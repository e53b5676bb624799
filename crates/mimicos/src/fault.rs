//! Types describing the outcome of a page fault handled by MimicOS,
//! including the translations the kernel tore down along the way (the
//! shootdown work the framework must mirror into the MMU).

use crate::kernel::ProcessId;
use crate::kernel_stream::KernelInstructionStream;
use serde::{Deserialize, Serialize};
use std::fmt;
use vm_types::{PageSize, PhysAddr, VirtAddr};

/// One established virtual-to-physical mapping.
///
/// # Examples
///
/// ```
/// use mimic_os::Mapping;
/// use vm_types::{PageSize, PhysAddr, VirtAddr};
///
/// let m = Mapping {
///     vaddr: VirtAddr::new(0x20_0000),
///     paddr: PhysAddr::new(0x4000_0000),
///     page_size: PageSize::Size2M,
/// };
/// assert_eq!(m.translate(VirtAddr::new(0x20_1234)).raw(), 0x4000_1234);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mapping {
    /// Base virtual address of the page (aligned to `page_size`).
    pub vaddr: VirtAddr,
    /// Base physical address of the backing frame (aligned to `page_size`).
    pub paddr: PhysAddr,
    /// Page size of the mapping.
    pub page_size: PageSize,
}

impl Mapping {
    /// Translates an address that falls inside this mapping.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `vaddr` lies within the mapped page.
    pub fn translate(&self, vaddr: VirtAddr) -> PhysAddr {
        debug_assert_eq!(vaddr.page_base(self.page_size), self.vaddr);
        self.paddr.add(vaddr.page_offset(self.page_size))
    }

    /// `true` if `addr` falls inside this mapping.
    pub fn covers(&self, addr: VirtAddr) -> bool {
        addr.page_base(self.page_size) == self.vaddr
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {} ({})", self.vaddr, self.paddr, self.page_size)
    }
}

/// Classification of a handled page fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// Minor fault: the page was allocated and mapped without device I/O.
    Minor,
    /// Major fault: the data had to be read from the storage device (page
    /// cache miss on a file-backed page).
    Major,
    /// The faulting page was swapped out and had to be brought back in.
    SwapIn,
    /// The fault was served from a hugetlbfs reservation.
    Hugetlb,
    /// The page was already mapped when the handler looked (e.g. a racing
    /// thread mapped it); no work was needed.
    Spurious,
}

impl FaultKind {
    /// `true` for faults that performed storage I/O.
    pub const fn is_major(self) -> bool {
        matches!(self, FaultKind::Major | FaultKind::SwapIn)
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultKind::Minor => "minor",
            FaultKind::Major => "major",
            FaultKind::SwapIn => "swap-in",
            FaultKind::Hugetlb => "hugetlb",
            FaultKind::Spurious => "spurious",
        };
        write!(f, "{s}")
    }
}

/// One translation torn down by the kernel (swap-out, huge-page demotion,
/// khugepaged collapse). The framework must shoot it down in the MMU: any
/// TLB entry, page-walk-cache line, page-table leaf or engine-resident
/// translation (RMM range, Utopia RestSeg residency, Midgard backend
/// mapping) still covering the page is stale the moment the kernel removes
/// it from the process's mapping table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InvalidationVictim {
    /// Process whose address space lost the translation (its pid doubles
    /// as the ASID in the framework).
    pub pid: ProcessId,
    /// Base virtual address of the torn-down page.
    pub vaddr: VirtAddr,
    /// Page size of the torn-down mapping.
    pub page_size: PageSize,
}

/// The batch of invalidations one kernel operation (a page-fault handler
/// invocation that reclaimed memory, or a khugepaged pass) performed.
///
/// Produced by MimicOS, consumed by the framework (`virtuoso::System`),
/// which applies every victim through `TranslationEngine::invalidate` and
/// installs every replacement — the imitation counterpart of the IPI-driven
/// TLB shootdown a real kernel performs before reusing a reclaimed frame.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct InvalidationBatch {
    /// Translations that must be shot down.
    pub victims: Vec<InvalidationVictim>,
    /// Mappings re-established in the same operation (the 4 KiB pieces a
    /// THP demotion leaves resident, or the huge page a khugepaged
    /// collapse installs over the removed base pages). Installed by the
    /// framework after the victims are shot down.
    pub replacements: Vec<(ProcessId, Mapping)>,
}

impl InvalidationBatch {
    /// `true` when the batch carries no work.
    pub fn is_empty(&self) -> bool {
        self.victims.is_empty() && self.replacements.is_empty()
    }

    /// Records a torn-down translation.
    pub fn push_victim(&mut self, pid: ProcessId, vaddr: VirtAddr, page_size: PageSize) {
        self.victims.push(InvalidationVictim {
            pid,
            vaddr,
            page_size,
        });
    }

    /// Appends all of `other`'s work to this batch.
    pub fn merge(&mut self, other: InvalidationBatch) {
        self.victims.extend(other.victims);
        self.replacements.extend(other.replacements);
    }
}

/// Everything the kernel reports back to the simulator after handling a
/// page fault: the functional result, plus the instruction stream the
/// simulator injects into its core model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PageFaultOutcome {
    /// The mapping established for the faulting address.
    pub mapping: Mapping,
    /// Additional mappings established as a side effect (eager paging maps
    /// whole ranges; reservation THP promotion replaces 4 KiB mappings).
    pub additional_mappings: Vec<Mapping>,
    /// Classification of the fault.
    pub kind: FaultKind,
    /// The kernel work performed, for injection into the core model.
    pub stream: KernelInstructionStream,
    /// Standalone latency estimate of the handler in nanoseconds (software
    /// work only, excluding device I/O). Used in emulation mode and for
    /// reporting; the detailed mode derives latency from the injected stream.
    pub software_latency_ns: f64,
    /// Storage-device latency incurred (zero for minor faults).
    pub device_latency_ns: f64,
    /// Bytes zeroed while preparing the page (the dominant cost of huge-page
    /// faults).
    pub zeroed_bytes: u64,
    /// Number of page-table frames newly allocated for this fault.
    pub pt_frames_allocated: u32,
    /// The page was placed in a Utopia RestSeg (engine-specific install
    /// metadata: the RestSeg walkers — not the page table — resolve the
    /// page from now on). Always `false` outside the Utopia policy.
    pub restseg_placed: bool,
    /// Translations the kernel tore down while handling this fault
    /// (reclaim under memory pressure, huge-page demotion). Empty on the
    /// steady-state path.
    pub invalidations: InvalidationBatch,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_translate_preserves_offset() {
        let m = Mapping {
            vaddr: VirtAddr::new(0x4000_0000),
            paddr: PhysAddr::new(0x8000_0000),
            page_size: PageSize::Size1G,
        };
        assert_eq!(m.translate(VirtAddr::new(0x4123_4567)).raw(), 0x8123_4567);
        assert!(m.covers(VirtAddr::new(0x7fff_ffff)));
        assert!(!m.covers(VirtAddr::new(0x8000_0000)));
    }

    #[test]
    fn fault_kind_major_classification() {
        assert!(FaultKind::Major.is_major());
        assert!(FaultKind::SwapIn.is_major());
        assert!(!FaultKind::Minor.is_major());
        assert!(!FaultKind::Hugetlb.is_major());
        assert_eq!(FaultKind::Minor.to_string(), "minor");
    }

    #[test]
    fn invalidation_batch_tracks_emptiness() {
        let mut batch = InvalidationBatch::default();
        assert!(batch.is_empty());
        batch.push_victim(ProcessId(3), VirtAddr::new(0x4000), PageSize::Size4K);
        assert!(!batch.is_empty());
        assert_eq!(batch.victims[0].pid, ProcessId(3));
        let replace_only = InvalidationBatch {
            victims: Vec::new(),
            replacements: vec![(
                ProcessId(0),
                Mapping {
                    vaddr: VirtAddr::new(0x20_0000),
                    paddr: PhysAddr::new(0x40_0000),
                    page_size: PageSize::Size2M,
                },
            )],
        };
        assert!(!replace_only.is_empty());
    }

    #[test]
    fn mapping_display_mentions_size() {
        let m = Mapping {
            vaddr: VirtAddr::new(0x1000),
            paddr: PhysAddr::new(0x2000),
            page_size: PageSize::Size2M,
        };
        assert!(m.to_string().contains("2MB"));
    }
}
