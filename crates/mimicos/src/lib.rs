//! **MimicOS**: a lightweight userspace kernel that imitates the Linux
//! memory-management subsystem, following the paper's imitation-based OS
//! simulation methodology (§4–§5 of the Virtuoso paper).
//!
//! MimicOS is *not* an operating system — it is a library that mimics the
//! behaviour, data-structure footprint and work performed by the Linux
//! kernel's memory-management code, so that an architectural simulator can
//! charge the core and memory system for that work. Its major components
//! mirror Fig. 6 of the paper:
//!
//! * virtual memory areas and per-process address spaces ([`vma`], [`process`]),
//! * the buddy physical-frame allocator with controllable fragmentation
//!   ([`buddy`]) and the slab allocator for page-table frames ([`slab`]),
//! * the page cache and swap subsystem backed by an SSD model ([`page_cache`],
//!   [`swap`]),
//! * transparent huge pages: the Linux-like THP policy, `khugepaged`,
//!   hugetlbfs and reservation-based THP ([`thp`]),
//! * the Utopia restrictive-segment allocator ([`utopia`]),
//! * physical memory allocation policies ([`alloc_policy`]),
//! * the page-fault handler that ties everything together ([`fault`]),
//! * emission of kernel instruction streams for injection into the core
//!   model ([`kernel_stream`]) — the imitation counterpart of dynamically
//!   instrumenting the kernel binary with Pin/DynamoRIO.
//!
//! The top-level [`MimicOs`] type owns all of the above and exposes the
//! "system call / interrupt" surface that the Virtuoso framework calls
//! directly.
//!
//! # Examples
//!
//! ```
//! use mimic_os::{MimicOs, OsConfig};
//! use vm_types::{PageSize, VirtAddr};
//!
//! let mut os = MimicOs::new(OsConfig::small_test());
//! let pid = os.spawn_process();
//! os.mmap_anonymous(pid, VirtAddr::new(0x1000_0000), 64 * 1024 * 1024, false).unwrap();
//! let outcome = os.handle_page_fault(pid, VirtAddr::new(0x1000_0000), true).unwrap();
//! assert!(outcome.mapping.page_size >= PageSize::Size4K);
//! ```

pub mod alloc_policy;
pub mod buddy;
pub mod fault;
pub mod inject;
pub mod kernel;
pub mod kernel_stream;
pub mod page_cache;
pub mod process;
pub mod sched;
pub mod slab;
pub mod swap;
pub mod thp;
pub mod utopia;
pub mod vma;

pub use alloc_policy::AllocationPolicy;
pub use buddy::{BuddyAllocator, BuddyStats};
pub use fault::{FaultKind, InvalidationBatch, InvalidationVictim, Mapping, PageFaultOutcome};
pub use inject::{FaultInjectionConfig, FaultInjector};
pub use kernel::{MimicOs, OomKill, OsConfig, OsStats, ProcessId};
pub use kernel_stream::{KernelInstructionStream, KernelOp, KernelRoutine};
pub use page_cache::PageCache;
pub use process::{ExitReason, Process};
pub use sched::{ContextSwitch, SchedStats, Scheduler};
pub use slab::SlabAllocator;
pub use swap::{SwapManager, SwapStats};
pub use thp::{CollapseEvent, KhugepagedDaemon, ThpConfig, ThpMode};
pub use utopia::{RestSeg, UtopiaAllocator, UtopiaConfig};
pub use vma::{Vma, VmaKind, VmaTree};
