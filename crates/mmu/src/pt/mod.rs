//! Page-table designs: the hardware-visible translation structures walked by
//! the MMU and updated by the kernel on page faults.
//!
//! Four designs from the paper's Use Case 1 (§7.4) are provided:
//!
//! * [`radix::RadixPageTable`] — the x86-64 4-level radix tree (with
//!   page-walk caches handled by [`crate::pwc::PageWalkCaches`]),
//! * [`ech::ElasticCuckooPageTable`] — elastic cuckoo hashing
//!   (Skarlatos et al., ASPLOS 2020),
//! * [`hashed::OpenAddressingPageTable`] — the global open-addressing hash
//!   table of "Hash, Don't Cache (the page table)" (Yaniv & Tsafrir,
//!   SIGMETRICS 2016),
//! * [`chained::ChainedHashPageTable`] — a PowerPC-style chained hash table.
//!
//! Every design implements the [`PageTable`] trait: a *walk* returns the
//! physical memory accesses the hardware walker performs plus the mapping it
//! finds; an *insert* or *remove* returns the accesses the kernel performs to
//! update the structure. All three lists are inline [`WalkAccessList`]s, so
//! neither a walk nor a fault-time update allocates. The framework replays
//! those accesses through the cache/DRAM models, which is how
//! page-table-induced memory interference is captured.

pub mod chained;
pub mod ech;
pub mod hashed;
pub mod radix;

pub use chained::ChainedHashPageTable;
pub use ech::ElasticCuckooPageTable;
pub use hashed::OpenAddressingPageTable;
pub use radix::RadixPageTable;

use mimic_os::Mapping;
use serde::{Deserialize, Serialize};
use std::fmt;
use vm_types::{FixedVec, PhysAddr, VirtAddr};

/// The list of page-table accesses of one walk, insert or remove. Radix
/// walks and updates touch at most 5 entries and the hash designs' typical
/// probe sequences are shorter still, so the inline capacity of 8 keeps
/// every ordinary walk and update allocation-free; pathological collision
/// chains and cuckoo relocations spill to the heap transparently (see
/// [`vm_types::FixedVec`]).
pub type WalkAccessList = FixedVec<PhysAddr, 8>;

/// Which page-table design is in use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PageTableKind {
    /// 4-level x86-64 radix tree with page-walk caches.
    Radix,
    /// Elastic cuckoo hash page table (ECH).
    ElasticCuckoo,
    /// Global open-addressing hash page table (HDC).
    HashedOpenAddressing,
    /// Chained hash page table (HT).
    HashedChained,
}

impl PageTableKind {
    /// All designs, in the order the paper's figures present them.
    pub const ALL: [PageTableKind; 4] = [
        PageTableKind::Radix,
        PageTableKind::ElasticCuckoo,
        PageTableKind::HashedOpenAddressing,
        PageTableKind::HashedChained,
    ];

    /// Short label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            PageTableKind::Radix => "Radix",
            PageTableKind::ElasticCuckoo => "ECH",
            PageTableKind::HashedOpenAddressing => "HDC",
            PageTableKind::HashedChained => "HT",
        }
    }
}

impl fmt::Display for PageTableKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// The result of a hardware page-table walk.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalkOutcome {
    /// The mapping found, or `None` when the walk ends at a non-present
    /// entry (page fault).
    pub mapping: Option<Mapping>,
    /// The physical addresses of the page-table data the walker read, in
    /// walk order. Inline storage — ordinary walks allocate nothing.
    pub accesses: WalkAccessList,
    /// `true` when the accesses are independent and can be issued in
    /// parallel (hash-based designs probe all candidate locations at once);
    /// `false` for pointer-chasing walks whose accesses are serialized
    /// (the radix tree).
    pub parallel: bool,
}

impl WalkOutcome {
    /// `true` when the walk ended in a page fault.
    pub fn is_fault(&self) -> bool {
        self.mapping.is_none()
    }
}

/// A hardware-walkable page-table design.
pub trait PageTable {
    /// Walks the table for `va`. `skip_levels` is the number of upper radix
    /// levels a page-walk cache allows the walker to skip; hash-based
    /// designs ignore it.
    fn walk(&mut self, va: VirtAddr, skip_levels: usize) -> WalkOutcome;

    /// Inserts (or updates) a translation, returning the physical addresses
    /// of the page-table data written or read by the kernel while doing so.
    fn insert(&mut self, mapping: Mapping) -> WalkAccessList;

    /// Removes the translation covering `va`, returning the accesses made.
    fn remove(&mut self, va: VirtAddr) -> WalkAccessList;

    /// The design's kind.
    fn kind(&self) -> PageTableKind;

    /// Bytes of page-table metadata currently allocated.
    fn metadata_bytes(&self) -> u64;

    /// Number of translations currently stored.
    fn len(&self) -> usize;

    /// `true` when the table stores no translations.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Builds a boxed page table of the requested kind with default geometry,
/// placing its metadata at `metadata_base`.
pub fn build_page_table(kind: PageTableKind, metadata_base: PhysAddr) -> Box<dyn PageTable + Send> {
    match kind {
        PageTableKind::Radix => Box::new(RadixPageTable::new(metadata_base)),
        PageTableKind::ElasticCuckoo => {
            Box::new(ElasticCuckooPageTable::new(metadata_base, 8 * 1024, 4))
        }
        PageTableKind::HashedOpenAddressing => {
            Box::new(OpenAddressingPageTable::new(metadata_base, 4 << 30))
        }
        PageTableKind::HashedChained => Box::new(ChainedHashPageTable::new(metadata_base, 4 << 30)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vm_types::PageSize;

    fn sample_mapping(va: u64, size: PageSize) -> Mapping {
        Mapping {
            vaddr: VirtAddr::new(va).page_base(size),
            paddr: PhysAddr::new(0x10_0000_0000 + (va & !0xfff)),
            page_size: size,
        }
    }

    /// Shared conformance suite run against every design.
    fn conformance(kind: PageTableKind) {
        let mut pt = build_page_table(kind, PhysAddr::new(0x80_0000_0000));
        assert_eq!(pt.kind(), kind);
        assert!(pt.is_empty());

        // Walking an empty table faults.
        let miss = pt.walk(VirtAddr::new(0x1234_5000), 0);
        assert!(miss.is_fault());

        // Insert then walk finds the mapping.
        let m = sample_mapping(0x1234_5000, PageSize::Size4K);
        let insert_accesses = pt.insert(m);
        assert!(
            !insert_accesses.is_empty(),
            "{kind}: insert must touch metadata"
        );
        let hit = pt.walk(VirtAddr::new(0x1234_5678), 0);
        assert_eq!(hit.mapping, Some(m), "{kind}");
        assert!(!hit.accesses.is_empty(), "{kind}: walk must touch metadata");

        // Huge pages are found for any address they cover.
        let huge = sample_mapping(0x4000_0000, PageSize::Size2M);
        pt.insert(huge);
        let hit = pt.walk(VirtAddr::new(0x4000_0000 + 0x12_345), 0);
        assert_eq!(hit.mapping, Some(huge), "{kind}");

        // Unrelated addresses still fault.
        assert!(
            pt.walk(VirtAddr::new(0x7fff_0000_0000), 0).is_fault(),
            "{kind}"
        );

        // Removal makes the mapping unreachable.
        pt.remove(VirtAddr::new(0x1234_5000));
        assert!(pt.walk(VirtAddr::new(0x1234_5000), 0).is_fault(), "{kind}");

        assert!(pt.metadata_bytes() > 0, "{kind}");
        assert_eq!(pt.len(), 1, "{kind}");
    }

    #[test]
    fn all_designs_pass_conformance() {
        for kind in PageTableKind::ALL {
            conformance(kind);
        }
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(PageTableKind::Radix.label(), "Radix");
        assert_eq!(PageTableKind::ElasticCuckoo.label(), "ECH");
        assert_eq!(PageTableKind::HashedOpenAddressing.label(), "HDC");
        assert_eq!(PageTableKind::HashedChained.label(), "HT");
    }

    #[test]
    fn radix_walks_are_serial_and_hash_walks_parallel() {
        let m = sample_mapping(0x5555_0000, PageSize::Size4K);
        for kind in PageTableKind::ALL {
            let mut pt = build_page_table(kind, PhysAddr::new(0x80_0000_0000));
            pt.insert(m);
            let walk = pt.walk(VirtAddr::new(0x5555_0000), 0);
            match kind {
                PageTableKind::Radix => assert!(!walk.parallel),
                _ => assert!(walk.parallel, "{kind} should probe in parallel"),
            }
        }
    }

    #[test]
    fn radix_walk_touches_more_levels_than_hashed() {
        let m = sample_mapping(0x5555_0000, PageSize::Size4K);
        let mut radix = build_page_table(PageTableKind::Radix, PhysAddr::new(0x80_0000_0000));
        let mut hdc = build_page_table(
            PageTableKind::HashedOpenAddressing,
            PhysAddr::new(0x80_0000_0000),
        );
        radix.insert(m);
        hdc.insert(m);
        let radix_walk = radix.walk(VirtAddr::new(0x5555_0000), 0);
        let hdc_walk = hdc.walk(VirtAddr::new(0x5555_0000), 0);
        assert!(radix_walk.accesses.len() > hdc_walk.accesses.len());
    }
}
