//! The obvious models the optimised structures are checked against, in one
//! place: each crate's unit tests include its model by `#[path]` and diff
//! the flat structure against it op for op, and `tests/lockstep_oracle.rs`
//! composes them into a whole machine. Every user needs a different
//! subset of each model's methods, hence the `dead_code` allowance.
#![allow(dead_code)]

use cache_sim::{CacheConfig, CacheStats, ReplacementPolicy};
use mimic_os::Mapping;
use mmu_sim::tlb::TlbStats;
use mmu_sim::{TlbConfig, WalkAccessList, WalkOutcome};
use vm_types::{Asid, PageSize, PhysAddr, Requestor, VirtAddr};

pub mod cache;
pub mod map;
pub mod pwc;
pub mod radix;
pub mod tlb;
