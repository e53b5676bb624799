//! Virtual memory areas (VMAs) and the per-process VMA tree, imitating
//! Linux's `vm_area_struct` and `find_vma()`.
//!
//! The VMA tree is the first structure the page-fault handler consults
//! (Fig. 6, step "Find Virtual Memory Area"), and the distribution of VMA
//! sizes in a workload drives Midgard's frontend translation behaviour
//! (Fig. 17 and the BC VMA histogram of Fig. 18).

use crate::kernel_stream::KernelInstructionStream;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use vm_types::{Histogram, PageSize, PhysAddr, VirtAddr, VmError, VmResult};

/// What backs a virtual memory area.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VmaKind {
    /// Anonymous memory (heap, stack, `mmap(MAP_ANONYMOUS)`).
    Anonymous,
    /// File-backed memory served through the page cache.
    FileBacked {
        /// Identifier of the backing file.
        file_id: u64,
    },
    /// DAX / direct-access memory (bypasses the page cache, eligible for
    /// 1 GiB mappings in the Fig. 6 flow).
    Dax,
}

impl VmaKind {
    /// `true` for anonymous memory.
    pub const fn is_anonymous(self) -> bool {
        matches!(self, VmaKind::Anonymous)
    }

    /// `true` for file-backed or DAX memory.
    pub const fn is_file_backed(self) -> bool {
        matches!(self, VmaKind::FileBacked { .. } | VmaKind::Dax)
    }
}

/// A virtual memory area: a contiguous virtual address range with uniform
/// backing and policy flags.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Vma {
    /// Inclusive start of the range.
    pub start: VirtAddr,
    /// Exclusive end of the range.
    pub end: VirtAddr,
    /// Backing kind.
    pub kind: VmaKind,
    /// Mapped through hugetlbfs (explicit huge-page reservation via
    /// `mmap(MAP_HUGETLB)` / `shmget(SHM_HUGETLB)`).
    pub hugetlb: bool,
    /// 1 GiB allocation flags set (DAX or explicit request).
    pub gigantic_ok: bool,
    /// Eager paging requested (RMM-style: allocate the whole range up front).
    pub eager_paging: bool,
}

impl Vma {
    /// Creates an anonymous VMA covering `[start, start + len)`.
    pub fn anonymous(start: VirtAddr, len: u64) -> Self {
        Vma {
            start,
            end: start.add(len),
            kind: VmaKind::Anonymous,
            hugetlb: false,
            gigantic_ok: false,
            eager_paging: false,
        }
    }

    /// Creates a file-backed VMA covering `[start, start + len)`.
    pub fn file_backed(start: VirtAddr, len: u64, file_id: u64) -> Self {
        Vma {
            kind: VmaKind::FileBacked { file_id },
            ..Vma::anonymous(start, len)
        }
    }

    /// Length of the VMA in bytes.
    pub fn len(&self) -> u64 {
        self.end.offset_from(self.start)
    }

    /// `true` if the VMA covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` if `addr` lies inside the VMA.
    pub fn contains(&self, addr: VirtAddr) -> bool {
        addr >= self.start && addr < self.end
    }

    /// Number of base pages spanned by the VMA.
    pub fn base_pages(&self) -> u64 {
        self.len().div_ceil(PageSize::Size4K.bytes())
    }
}

/// The per-process tree of VMAs, keyed by start address.
///
/// # Examples
///
/// ```
/// use mimic_os::{Vma, VmaTree};
/// use vm_types::VirtAddr;
///
/// let mut tree = VmaTree::new();
/// tree.insert(Vma::anonymous(VirtAddr::new(0x1000), 0x4000)).unwrap();
/// assert!(tree.find(VirtAddr::new(0x2000)).is_some());
/// assert!(tree.find(VirtAddr::new(0x8000)).is_none());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VmaTree {
    vmas: BTreeMap<u64, Vma>,
}

impl VmaTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        VmaTree::default()
    }

    /// Number of VMAs.
    pub fn len(&self) -> usize {
        self.vmas.len()
    }

    /// `true` if the tree holds no VMAs.
    pub fn is_empty(&self) -> bool {
        self.vmas.is_empty()
    }

    /// Inserts a VMA.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::InvalidVma`] if the VMA is empty or overlaps an
    /// existing one.
    pub fn insert(&mut self, vma: Vma) -> VmResult<()> {
        if vma.is_empty() {
            return Err(VmError::InvalidVma {
                reason: "zero-length region".to_string(),
            });
        }
        if self.overlaps(&vma) {
            return Err(VmError::InvalidVma {
                reason: format!("region {}..{} overlaps an existing vma", vma.start, vma.end),
            });
        }
        self.vmas.insert(vma.start.raw(), vma);
        Ok(())
    }

    fn overlaps(&self, vma: &Vma) -> bool {
        // Check the predecessor and any VMA starting inside the new range.
        if let Some((_, prev)) = self.vmas.range(..=vma.start.raw()).next_back() {
            if prev.end > vma.start {
                return true;
            }
        }
        self.vmas
            .range(vma.start.raw()..vma.end.raw())
            .next()
            .is_some()
    }

    /// Finds the VMA containing `addr`, imitating `find_vma()`.
    pub fn find(&self, addr: VirtAddr) -> Option<&Vma> {
        let (_, candidate) = self.vmas.range(..=addr.raw()).next_back()?;
        candidate.contains(addr).then_some(candidate)
    }

    /// Finds the VMA containing `addr` while recording the lookup work
    /// (tree descent) into a kernel instruction stream.
    pub fn find_traced(
        &self,
        addr: VirtAddr,
        stream: &mut KernelInstructionStream,
    ) -> Option<&Vma> {
        // Model the rb-tree / maple-tree descent: ~log2(n) node visits, each
        // a load plus a handful of compare/branch instructions.
        let depth = (self.vmas.len().max(1) as f64).log2().ceil() as u32 + 1;
        for level in 0..depth {
            stream.compute(8);
            stream.load(PhysAddr::new(0xFFFF_8800_0000_0000 + (level as u64) * 64));
        }
        self.find(addr)
    }

    /// Removes the VMA starting exactly at `start`, returning it.
    pub fn remove(&mut self, start: VirtAddr) -> Option<Vma> {
        self.vmas.remove(&start.raw())
    }

    /// Iterates over all VMAs in address order.
    pub fn iter(&self) -> impl Iterator<Item = &Vma> {
        self.vmas.values()
    }

    /// Histogram of VMA sizes using the bucket bounds of the paper's
    /// Fig. 18: ≤4 KB, <128 KB, <256 KB, <512 KB, <1 MB, <8 MB, <16 MB,
    /// <32 MB, <1 GB, ≥1 GB (overflow bucket).
    pub fn size_histogram(&self) -> Histogram {
        const KB: u64 = 1024;
        const MB: u64 = 1024 * KB;
        const GB: u64 = 1024 * MB;
        let mut h = Histogram::new(&[
            4 * KB,
            128 * KB,
            256 * KB,
            512 * KB,
            MB,
            8 * MB,
            16 * MB,
            32 * MB,
            GB,
        ]);
        for vma in self.vmas.values() {
            h.record(vma.len());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel_stream::KernelRoutine;

    fn va(x: u64) -> VirtAddr {
        VirtAddr::new(x)
    }

    #[test]
    fn insert_and_find() {
        let mut tree = VmaTree::new();
        tree.insert(Vma::anonymous(va(0x1000), 0x3000)).unwrap();
        tree.insert(Vma::file_backed(va(0x10_0000), 0x1000, 7))
            .unwrap();
        assert!(tree.find(va(0x1000)).is_some());
        assert!(tree.find(va(0x3fff)).is_some());
        assert!(tree.find(va(0x4000)).is_none());
        assert_eq!(
            tree.find(va(0x10_0800)).unwrap().kind,
            VmaKind::FileBacked { file_id: 7 }
        );
        assert_eq!(tree.len(), 2);
    }

    #[test]
    fn overlapping_insert_rejected() {
        let mut tree = VmaTree::new();
        tree.insert(Vma::anonymous(va(0x1000), 0x3000)).unwrap();
        assert!(tree.insert(Vma::anonymous(va(0x2000), 0x1000)).is_err());
        assert!(tree.insert(Vma::anonymous(va(0x0), 0x1001)).is_err());
        // Adjacent (non-overlapping) regions are fine.
        assert!(tree.insert(Vma::anonymous(va(0x4000), 0x1000)).is_ok());
    }

    #[test]
    fn zero_length_vma_rejected() {
        let mut tree = VmaTree::new();
        assert!(matches!(
            tree.insert(Vma::anonymous(va(0x1000), 0)),
            Err(VmError::InvalidVma { .. })
        ));
    }

    #[test]
    fn remove_returns_vma() {
        let mut tree = VmaTree::new();
        tree.insert(Vma::anonymous(va(0x1000), 0x1000)).unwrap();
        let vma = tree.remove(va(0x1000)).unwrap();
        assert_eq!(vma.len(), 0x1000);
        assert!(tree.is_empty());
    }

    #[test]
    fn vma_properties() {
        let vma = Vma::anonymous(va(0x1000), 0x2000);
        assert_eq!(vma.len(), 0x2000);
        assert_eq!(vma.base_pages(), 2);
        assert!(vma.contains(va(0x2fff)));
        assert!(!vma.contains(va(0x3000)));
        assert!(vma.kind.is_anonymous());
        assert!(!vma.kind.is_file_backed());
        assert!(VmaKind::Dax.is_file_backed());
    }

    #[test]
    fn traced_find_records_tree_descent() {
        let mut tree = VmaTree::new();
        for i in 0..64u64 {
            tree.insert(Vma::anonymous(va(0x1_0000 + i * 0x10_000), 0x1000))
                .unwrap();
        }
        let mut stream = KernelInstructionStream::new(KernelRoutine::FindVma);
        tree.find_traced(va(0x1_0000), &mut stream);
        assert!(
            stream.memory_references() >= 6,
            "log2(64)+1 levels expected"
        );
    }

    #[test]
    fn size_histogram_matches_fig18_buckets() {
        let mut tree = VmaTree::new();
        tree.insert(Vma::anonymous(va(0x1000), 4 * 1024)).unwrap();
        tree.insert(Vma::anonymous(va(0x100_0000), 64 * 1024))
            .unwrap();
        tree.insert(Vma::anonymous(va(0x2_0000_0000), 77 * 1024 * 1024 * 1024))
            .unwrap();
        let h = tree.size_histogram();
        assert_eq!(h.total(), 3);
        assert_eq!(h.bucket_counts()[0], 1); // 4 KB
        assert_eq!(h.bucket_counts()[1], 1); // 64 KB < 128 KB
        assert_eq!(*h.bucket_counts().last().unwrap(), 1); // 77 GB overflow
    }
}
