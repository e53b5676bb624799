//! Memory-access descriptors with requestor attribution.
//!
//! Every request that reaches the cache hierarchy or DRAM is tagged with a
//! [`Requestor`], so that the DRAM model can attribute row-buffer conflicts
//! to application data, page-table walks or kernel (MimicOS) activity — the
//! attribution behind the paper's Figure 14 and Figure 21.

use crate::addr::{PhysAddr, VirtAddr};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Whether a memory access reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessType {
    /// A load / read access.
    Read,
    /// A store / write access.
    Write,
    /// An instruction fetch.
    Fetch,
}

impl AccessType {
    /// Returns `true` for writes.
    #[inline]
    pub const fn is_write(self) -> bool {
        matches!(self, AccessType::Write)
    }
}

impl fmt::Display for AccessType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessType::Read => write!(f, "read"),
            AccessType::Write => write!(f, "write"),
            AccessType::Fetch => write!(f, "fetch"),
        }
    }
}

/// The agent on whose behalf a memory access is performed.
///
/// The paper's evaluation attributes DRAM row-buffer conflicts separately to
/// application data, page-table-walk traffic, and OS-routine traffic
/// (Figs. 14 and 21); this enum carries that attribution through the memory
/// hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Requestor {
    /// The simulated application itself.
    Application,
    /// The hardware page-table walker fetching translation metadata
    /// (page-table entries, range-table nodes, Utopia tag arrays, …).
    PageTableWalker,
    /// MimicOS kernel routines (page-fault handler, khugepaged, reclaim, …),
    /// i.e. the injected kernel instruction stream.
    Kernel,
    /// Hardware prefetchers.
    Prefetcher,
}

impl Requestor {
    /// All requestors, in a stable order (useful for report tables).
    pub const ALL: [Requestor; 4] = [
        Requestor::Application,
        Requestor::PageTableWalker,
        Requestor::Kernel,
        Requestor::Prefetcher,
    ];

    /// `true` if this requestor represents address-translation metadata
    /// traffic (the category Fig. 21 reports on).
    #[inline]
    pub const fn is_translation_metadata(self) -> bool {
        matches!(self, Requestor::PageTableWalker)
    }
}

impl fmt::Display for Requestor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Requestor::Application => write!(f, "application"),
            Requestor::PageTableWalker => write!(f, "ptw"),
            Requestor::Kernel => write!(f, "kernel"),
            Requestor::Prefetcher => write!(f, "prefetcher"),
        }
    }
}

/// A single memory access descriptor flowing through the memory hierarchy.
///
/// # Examples
///
/// ```
/// use vm_types::{AccessType, MemoryAccess, PhysAddr, Requestor, VirtAddr};
///
/// let access = MemoryAccess::new(
///     VirtAddr::new(0x1000),
///     PhysAddr::new(0x8000_1000),
///     AccessType::Read,
///     Requestor::Application,
/// );
/// assert!(!access.kind.is_write());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryAccess {
    /// Virtual address of the access (zero for accesses with no virtual
    /// counterpart, e.g. physically-indexed page-table fetches).
    pub vaddr: VirtAddr,
    /// Physical address of the access after translation.
    pub paddr: PhysAddr,
    /// Read, write or fetch.
    pub kind: AccessType,
    /// Who performs the access.
    pub requestor: Requestor,
}

impl MemoryAccess {
    /// Creates a new memory access descriptor.
    pub const fn new(
        vaddr: VirtAddr,
        paddr: PhysAddr,
        kind: AccessType,
        requestor: Requestor,
    ) -> Self {
        MemoryAccess {
            vaddr,
            paddr,
            kind,
            requestor,
        }
    }

    /// Convenience constructor for physically-addressed accesses (page-table
    /// walks, kernel metadata) that have no meaningful virtual address.
    pub const fn physical(paddr: PhysAddr, kind: AccessType, requestor: Requestor) -> Self {
        MemoryAccess {
            vaddr: VirtAddr::ZERO,
            paddr,
            kind,
            requestor,
        }
    }
}

impl fmt::Display for MemoryAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} va={} pa={}",
            self.requestor, self.kind, self.vaddr, self.paddr
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_type_is_write() {
        assert!(AccessType::Write.is_write());
        assert!(!AccessType::Read.is_write());
        assert!(!AccessType::Fetch.is_write());
    }

    #[test]
    fn requestor_translation_metadata_flag() {
        assert!(Requestor::PageTableWalker.is_translation_metadata());
        assert!(!Requestor::Application.is_translation_metadata());
        assert!(!Requestor::Kernel.is_translation_metadata());
    }

    #[test]
    fn requestor_all_is_exhaustive_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for r in Requestor::ALL {
            assert!(seen.insert(r as usize));
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn physical_constructor_zeroes_vaddr() {
        let a = MemoryAccess::physical(
            PhysAddr::new(0x42_000),
            AccessType::Read,
            Requestor::PageTableWalker,
        );
        assert_eq!(a.vaddr, VirtAddr::ZERO);
        assert_eq!(a.paddr.raw(), 0x42_000);
    }

    #[test]
    fn display_mentions_requestor_and_kind() {
        let a = MemoryAccess::new(
            VirtAddr::new(1),
            PhysAddr::new(2),
            AccessType::Write,
            Requestor::Kernel,
        );
        let s = a.to_string();
        assert!(s.contains("kernel"));
        assert!(s.contains("write"));
    }
}
