//! MMU models for the Virtuoso framework: a configurable TLB hierarchy,
//! page-walk caches, hardware page-table walkers for several page-table
//! designs (4-level radix, elastic cuckoo hashing, open-addressing and
//! chained hash tables), and the alternative translation architectures the
//! paper evaluates — Utopia restrictive segments, Midgard intermediate
//! address spaces and RMM range translation.
//!
//! The MMU is *access generating*: a translation request returns which TLB
//! level hit (and its latency) or, on a miss, the ordered list of physical
//! memory accesses the page-table walk performs. The Virtuoso framework
//! sends those accesses through the cache hierarchy and DRAM model to obtain
//! the walk latency, which is how the paper captures page-table-induced
//! cache and DRAM contention.
//!
//! # Examples
//!
//! ```
//! use mmu_sim::{Mmu, MmuConfig, PageTableKind};
//! use mimic_os::Mapping;
//! use vm_types::{Asid, PageSize, PhysAddr, VirtAddr};
//!
//! let mut mmu = Mmu::new(MmuConfig::paper_baseline(PageTableKind::Radix));
//! let asid = Asid::new(1);
//! mmu.install_mapping(asid, &Mapping {
//!     vaddr: VirtAddr::new(0x2000),
//!     paddr: PhysAddr::new(0x8000_2000),
//!     page_size: PageSize::Size4K,
//! });
//! mmu.flush_tlb();                              // drop the install-time fill
//! let first = mmu.translate(asid, VirtAddr::new(0x2010));
//! assert!(first.tlb_hit_level.is_none());       // cold TLB: page walk
//! let second = mmu.translate(asid, VirtAddr::new(0x2010));
//! assert!(second.tlb_hit_level.is_some());      // now the TLB hits
//! // Another address space never observes these translations.
//! assert!(mmu.translate(Asid::new(2), VirtAddr::new(0x2010)).is_fault());
//! ```

pub mod engine;
pub mod midgard;
pub mod mmu;
pub mod pt;
pub mod pwc;
pub mod rmm;
pub mod tlb;
pub mod utopia_mmu;

pub use crate::mmu::{
    AsidMmuStats, Mmu, MmuConfig, MmuStats, RemovedTranslation, TranslationResult,
};
pub use engine::{EngineConfig, EngineReport, InstallInfo, InvalidationOutcome, TranslationEngine};
pub use midgard::{MidgardConfig, MidgardEngine};
pub use pt::{PageTable, PageTableKind, WalkAccessList, WalkOutcome};
pub use pwc::PageWalkCaches;
pub use rmm::{RmmConfig, RmmEngine};
pub use tlb::{Tlb, TlbConfig, TlbHierarchy, TlbHierarchyConfig, TlbLevel};
pub use utopia_mmu::{UtopiaEngine, UtopiaMmuConfig};
