//! The top-level [`MimicOs`] kernel: configuration, process management, the
//! page-fault handler implementing the Fig. 6 flow, memory reclaim and the
//! statistics the paper's experiments read out.

use crate::alloc_policy::AllocationPolicy;
use crate::buddy::{order_for, BuddyAllocator, ORDER_1G, ORDER_2M};
use crate::fault::{FaultKind, InvalidationBatch, Mapping, PageFaultOutcome};
use crate::inject::{FaultInjectionConfig, FaultInjector};
use crate::kernel_stream::{KernelInstructionStream, KernelOp, KernelRoutine};
use crate::page_cache::PageCache;
use crate::process::{ExitReason, Process};
use crate::sched::{ContextSwitch, Scheduler};
use crate::slab::SlabAllocator;
use crate::swap::SwapManager;
use crate::thp::{
    HugetlbPool, KhugepagedDaemon, ReservationThp, ThpConfig, ThpMode, ZeroedPagePool,
};
use crate::utopia::UtopiaAllocator;
use crate::vma::{Vma, VmaKind};
use serde::{Deserialize, Serialize};
use ssd_sim::{SsdConfig, SsdModel};
use std::collections::BTreeMap;
use std::fmt;
use vm_types::{Counter, DetRng, LatencyStats, PageSize, PhysAddr, VirtAddr, VmError, VmResult};

/// Identifier of a simulated process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProcessId(pub usize);

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid {}", self.0)
    }
}

/// A contiguous virtual-to-physical range created by eager paging, consumed
/// by RMM's range TLB / range-table model in `mmu-sim`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RangeMapping {
    /// Virtual start of the range.
    pub virt_start: VirtAddr,
    /// Physical start of the range.
    pub phys_start: PhysAddr,
    /// Length in bytes.
    pub bytes: u64,
}

impl RangeMapping {
    /// `true` if `vaddr` falls inside the range.
    pub fn covers(&self, vaddr: VirtAddr) -> bool {
        vaddr >= self.virt_start && vaddr.raw() < self.virt_start.raw() + self.bytes
    }

    /// Splits the range around the page `[vaddr, vaddr + page_bytes)`,
    /// returning the (possibly empty) left and right remainders. Used when
    /// reclaim swaps a page out of an eagerly allocated range: the range no
    /// longer translates the victim, but its flanks still do.
    pub fn split_around(
        &self,
        vaddr: VirtAddr,
        page_bytes: u64,
    ) -> (Option<RangeMapping>, Option<RangeMapping>) {
        debug_assert!(self.covers(vaddr));
        let left_bytes = vaddr.raw() - self.virt_start.raw();
        let right_start = vaddr.raw() + page_bytes;
        let range_end = self.virt_start.raw() + self.bytes;
        let left = (left_bytes > 0).then_some(RangeMapping {
            virt_start: self.virt_start,
            phys_start: self.phys_start,
            bytes: left_bytes,
        });
        let right = (right_start < range_end).then(|| RangeMapping {
            virt_start: VirtAddr::new(right_start),
            phys_start: self.phys_start.add(right_start - self.virt_start.raw()),
            bytes: range_end - right_start,
        });
        (left, right)
    }
}

/// Configuration of the MimicOS kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OsConfig {
    /// Physical memory managed by the kernel, in bytes.
    pub memory_bytes: u64,
    /// Swap space, in bytes (the paper's baseline: 4 GB).
    pub swap_bytes: u64,
    /// Transparent-huge-page configuration.
    pub thp: ThpConfig,
    /// Physical memory allocation policy.
    pub policy: AllocationPolicy,
    /// Page-cache capacity in pages.
    pub page_cache_pages: usize,
    /// Pre-fragment physical memory so that this fraction of 2 MiB regions
    /// remains free (the paper's baseline: 0.8).
    pub fragmentation_target: Option<f64>,
    /// Memory-utilization fraction above which the kernel starts swapping
    /// (the paper's baseline: 0.9).
    pub swap_threshold: f64,
    /// Pages reclaimed (swapped out) per reclaim pass.
    pub reclaim_batch: usize,
    /// Storage device configuration for swap and page-cache misses.
    pub ssd: SsdConfig,
    /// Warm the page cache for file-backed mappings at `mmap` time,
    /// mirroring the paper's methodology of pre-populating the page cache so
    /// short-running workloads take minor rather than major faults.
    pub populate_page_cache: bool,
    /// Scheduler quantum in application instructions (0 disables
    /// preemption). Scaled down with the rest of the simulation: a few
    /// thousand instructions play the role of a millisecond timeslice.
    pub sched_quantum: u64,
    /// Kernel instructions charged for one context switch (scheduler
    /// bookkeeping, register save/restore, switch_mm).
    pub context_switch_cost: u32,
    /// Kernel instructions charged once per TLB-shootdown round: assembling
    /// the cpumask, sending the IPIs and waiting for every remote core to
    /// acknowledge (`flush_tlb_mm_range` / `smp_call_function_many`).
    /// Charged whenever a reclaim pass or a khugepaged collapse tears
    /// translations down.
    pub shootdown_ipi_cost: u32,
    /// Kernel instructions charged per page invalidated in a shootdown
    /// round (the per-`invlpg` work on the receiving cores plus flush-list
    /// bookkeeping on the sender).
    pub shootdown_per_page_cost: u32,
    /// Number of simulated cores. Processes are pinned to cores by
    /// `pid % num_cores`; each core owns its own TLB/PWC/engine frontend
    /// and reclaim broadcasts shootdown IPIs to the other cores. The
    /// default of 1 reproduces the single-core model exactly.
    pub num_cores: usize,
    /// Deterministic fault injection (disabled by default; see
    /// [`FaultInjectionConfig`]).
    pub fault_injection: FaultInjectionConfig,
    /// Seed for the kernel's deterministic RNG.
    pub seed: u64,
}

impl OsConfig {
    /// The paper's baseline configuration (Table 4): 256 GB of DDR4 memory,
    /// 4 GB of swap, Linux-like THP with 4 KB + 2 MB pages, hugetlbfs
    /// available, 90 % swapping threshold, 80 % baseline fragmentation.
    pub fn paper_baseline() -> Self {
        OsConfig {
            memory_bytes: 256 * 1024 * 1024 * 1024,
            swap_bytes: 4 * 1024 * 1024 * 1024,
            thp: ThpConfig::linux_default(),
            policy: AllocationPolicy::LinuxThp,
            page_cache_pages: 1 << 20,
            fragmentation_target: Some(0.8),
            swap_threshold: 0.9,
            reclaim_batch: 32,
            ssd: SsdConfig::nvme_datacenter(),
            populate_page_cache: true,
            sched_quantum: 50_000,
            context_switch_cost: 4_000,
            shootdown_ipi_cost: 1_800,
            shootdown_per_page_cost: 160,
            num_cores: 1,
            fault_injection: FaultInjectionConfig::default(),
            seed: 0x5a_fa_51,
        }
    }

    /// A small configuration for unit tests and examples: 256 MB of memory,
    /// 16 MB of swap, no pre-fragmentation.
    pub fn small_test() -> Self {
        OsConfig {
            memory_bytes: 256 * 1024 * 1024,
            swap_bytes: 16 * 1024 * 1024,
            page_cache_pages: 4096,
            fragmentation_target: None,
            sched_quantum: 2_500,
            ..OsConfig::paper_baseline()
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::InvalidConfig`] when a parameter is out of range.
    pub fn validate(&self) -> VmResult<()> {
        if self.memory_bytes == 0 || !self.memory_bytes.is_multiple_of(4096) {
            return Err(VmError::InvalidConfig {
                reason: "memory size must be a non-zero multiple of 4 KiB".to_string(),
            });
        }
        if self.num_cores == 0 {
            return Err(VmError::InvalidConfig {
                reason: "num_cores must be at least 1".to_string(),
            });
        }
        if !(0.0..=1.0).contains(&self.swap_threshold) {
            return Err(VmError::InvalidConfig {
                reason: format!("swap threshold {} outside [0,1]", self.swap_threshold),
            });
        }
        if let Some(f) = self.fragmentation_target {
            if !(0.0..=1.0).contains(&f) {
                return Err(VmError::InvalidConfig {
                    reason: format!("fragmentation target {f} outside [0,1]"),
                });
            }
            if self.memory_bytes / 4096 > 1 << 32 {
                // The buddy keeps its pinned frames as 32-bit frame numbers.
                return Err(VmError::InvalidConfig {
                    reason: "fragmentation needs at most 16 TiB of memory".to_string(),
                });
            }
        }
        if let AllocationPolicy::Utopia(cfg) = self.policy {
            if cfg.size_bytes >= self.memory_bytes {
                return Err(VmError::InvalidConfig {
                    reason: "utopia restseg must be smaller than physical memory".to_string(),
                });
            }
            if cfg.ways == 0 {
                return Err(VmError::InvalidConfig {
                    reason: "utopia restseg needs at least one way".to_string(),
                });
            }
            let page = cfg.page_size.bytes();
            if !cfg.size_bytes.is_multiple_of(page) {
                // An unaligned carve-out would leave the FlexSeg with a
                // fractional 4 KiB frame (caught deep in the buddy
                // allocator otherwise), and would misalign huge-page slots.
                return Err(VmError::InvalidConfig {
                    reason: format!(
                        "utopia restseg size {} is not a multiple of its {} pages",
                        cfg.size_bytes, cfg.page_size
                    ),
                });
            }
            if !(self.memory_bytes - cfg.size_bytes).is_multiple_of(page) {
                // The RestSeg sits at the top of memory: a base off its page
                // grid would round slots down into the FlexSeg's last frame.
                return Err(VmError::InvalidConfig {
                    reason: format!(
                        "utopia restseg base {:#x} is not aligned to its {} pages",
                        self.memory_bytes - cfg.size_bytes,
                        cfg.page_size
                    ),
                });
            }
            if cfg.size_bytes < cfg.ways as u64 * page {
                // Fewer bytes than one set: the slots of the single set
                // would reach past the carve-out, past the end of memory.
                return Err(VmError::InvalidConfig {
                    reason: format!(
                        "utopia restseg of {} bytes is smaller than one {}-way set",
                        cfg.size_bytes, cfg.ways
                    ),
                });
            }
        }
        self.fault_injection.validate()?;
        Ok(())
    }
}

impl Default for OsConfig {
    fn default() -> Self {
        OsConfig::paper_baseline()
    }
}

/// Statistics accumulated by the kernel across all handled events.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OsStats {
    /// Minor page faults handled.
    pub minor_faults: Counter,
    /// Major page faults handled (page-cache misses requiring device reads).
    pub major_faults: Counter,
    /// Swap-in faults handled.
    pub swap_in_faults: Counter,
    /// hugetlbfs faults handled.
    pub hugetlb_faults: Counter,
    /// Faults that found the page already mapped.
    pub spurious_faults: Counter,
    /// Faults taken on read accesses (the `is_write = false` half of the
    /// handler's entry conditions).
    pub read_faults: Counter,
    /// Faults taken on write accesses.
    pub write_faults: Counter,
    /// Per-fault total latency distribution (nanoseconds, software +
    /// device), every handled fault.
    pub fault_latency_ns: LatencyStats,
    /// Per-minor-fault latency distribution (nanoseconds, hugetlbfs faults
    /// included), the distribution shown in the paper's Fig. 2 / Fig. 16.
    pub minor_fault_latency_ns: LatencyStats,
    /// Total nanoseconds spent in the fault handler (software + device).
    pub total_fault_ns: f64,
    /// Total kernel instructions emitted (fault handler + daemons).
    pub kernel_instructions: u64,
    /// 2 MiB or 1 GiB mappings created.
    pub huge_mappings: Counter,
    /// 4 KiB mappings created.
    pub base_mappings: Counter,
    /// Pages swapped out by reclaim.
    pub reclaimed_pages: Counter,
    /// TLB-shootdown IPI rounds initiated (one per reclaim pass or
    /// khugepaged scan that tore translations down).
    pub shootdown_ipis: Counter,
    /// Huge mappings demoted (split into base pages) by reclaim.
    pub thp_demotions: Counter,
    /// Processes killed by the out-of-memory killer.
    pub oom_kills: Counter,
    /// Resident bytes examined by the OOM killer's badness scans.
    pub oom_scanned_bytes: u64,
    /// Bytes of resident memory freed by OOM kills.
    pub oom_freed_bytes: u64,
    /// Times a failed base-frame allocation fell into the direct-reclaim
    /// retry loop (the escalation path that precedes an OOM kill).
    pub oom_reclaim_retries: Counter,
    /// Resident bytes reclaim must leave alone: hugetlbfs-backed mappings,
    /// which (as in Linux) are neither swapped nor demoted. Their frames
    /// only come back when the owning process exits or is killed.
    pub unreclaimable_bytes: u64,
    /// Injected base-frame allocation shortfalls (fault injection).
    pub injected_alloc_shortfalls: Counter,
    /// Injected transient swap-device I/O errors (fault injection).
    pub injected_swap_io_errors: Counter,
    /// Injected swap-device latency spikes (fault injection).
    pub injected_swap_latency_spikes: Counter,
    /// Injected shootdown-IPI delivery delays (fault injection).
    pub injected_ipi_delays: Counter,
}

impl OsStats {
    /// Total faults of any kind.
    pub fn total_faults(&self) -> u64 {
        self.minor_faults.get()
            + self.major_faults.get()
            + self.swap_in_faults.get()
            + self.hugetlb_faults.get()
            + self.spurious_faults.get()
    }

    /// Counts one mapping the kernel created, huge or base: the one place
    /// both counters move.
    fn count_mapping(&mut self, size: PageSize) {
        match size {
            PageSize::Size4K => self.base_mappings.inc(),
            _ => self.huge_mappings.inc(),
        }
    }

    /// Records one handled fault's total latency, into the minor-fault
    /// distribution too when the fault was minor.
    fn record_fault_latency(&mut self, total_ns: f64, minor: bool) {
        self.fault_latency_ns.record(total_ns);
        if minor {
            self.minor_fault_latency_ns.record(total_ns);
        }
    }
}

/// The MimicOS kernel.
///
/// See the [crate-level documentation](crate) for an overview and an example.
#[derive(Debug, Clone)]
pub struct MimicOs {
    config: OsConfig,
    buddy: BuddyAllocator,
    pt_slab: SlabAllocator,
    page_cache: PageCache,
    swap: SwapManager,
    ssd: SsdModel,
    zeroed_pool: ZeroedPagePool,
    khugepaged: KhugepagedDaemon,
    reservation: Option<ReservationThp>,
    utopia: Option<UtopiaAllocator>,
    hugetlb: HugetlbPool,
    processes: Vec<Process>,
    scheduler: Scheduler,
    ranges: BTreeMap<usize, Vec<RangeMapping>>,
    /// Round-robin position of the reclaim scan: the process the next
    /// reclaim pass starts taking victims from, so one victim process does
    /// not absorb all swap traffic under multiprogram pressure.
    reclaim_cursor: usize,
    /// Shootdown work from faults that *failed* after reclaim already tore
    /// translations down (e.g. out-of-memory after an eviction-only
    /// reclaim pass). The framework drains this with
    /// [`MimicOs::take_pending_invalidations`] — losing it would leave
    /// stale translations alive.
    pending_invalidations: InvalidationBatch,
    /// OOM kills performed but not yet drained by the framework (see
    /// [`MimicOs::take_oom_kills`]): the framework must flush the victim's
    /// per-core translation state and inject the kill's kernel stream.
    oom_kill_log: Vec<OomKill>,
    /// Pids of killed processes whose slots (and ASIDs) are free for reuse
    /// by [`MimicOs::spawn_process`].
    free_pids: Vec<usize>,
    /// The (empty) op buffer of a stream the framework handed back with
    /// [`MimicOs::recycle_stream`]; the next page fault's stream takes it.
    spare_ops: Vec<KernelOp>,
    injector: FaultInjector,
    rng: DetRng,
    stats: OsStats,
}

/// One completed out-of-memory kill, surfaced to the framework so it can
/// tear down the victim's architectural translation state and charge the
/// kernel work. The torn-down translations themselves travel through the
/// fault's [`InvalidationBatch`] like any other shootdown.
#[derive(Debug, Clone)]
pub struct OomKill {
    /// The killed process.
    pub victim: ProcessId,
    /// The victim's badness score (resident + swapped bytes) at kill time.
    pub badness: u64,
    /// Resident bytes freed by the kill.
    pub freed_bytes: u64,
    /// The kernel instructions of the badness scan and address-space
    /// teardown, for injection into the core model.
    pub stream: KernelInstructionStream,
}

impl MimicOs {
    /// Boots a kernel with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`OsConfig::validate`]; use
    /// [`MimicOs::try_new`] to handle invalid configurations gracefully.
    pub fn new(config: OsConfig) -> Self {
        MimicOs::try_new(config).expect("invalid MimicOS configuration")
    }

    /// Boots a kernel, returning an error for invalid configurations.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::InvalidConfig`] when the configuration is
    /// inconsistent.
    pub fn try_new(config: OsConfig) -> VmResult<Self> {
        config.validate()?;
        let mut rng = DetRng::new(config.seed);

        // Under the Utopia policy the RestSegs are carved out of physical
        // memory; the buddy allocator only manages the remaining FlexSeg.
        let (buddy_bytes, utopia) = match config.policy {
            AllocationPolicy::Utopia(seg_cfg) => {
                let flexseg = config.memory_bytes - seg_cfg.size_bytes;
                let seg = crate::utopia::RestSeg::new(seg_cfg, PhysAddr::new(flexseg));
                (flexseg, Some(UtopiaAllocator::new(vec![seg])))
            }
            _ => (config.memory_bytes, None),
        };
        let mut buddy = BuddyAllocator::new(buddy_bytes);
        if let Some(target) = config.fragmentation_target {
            buddy.fragment(target, &mut rng);
        }
        let mut zeroed_pool = ZeroedPagePool::new(config.thp.zeroed_pool_capacity);
        if config.thp.mode != ThpMode::Never {
            zeroed_pool.refill(&mut buddy);
        }
        let reservation = match config.policy {
            AllocationPolicy::ConservativeReservationThp => Some(ReservationThp::conservative()),
            AllocationPolicy::AggressiveReservationThp => Some(ReservationThp::aggressive()),
            _ => None,
        };

        Ok(MimicOs {
            pt_slab: SlabAllocator::for_page_table_frames(),
            page_cache: PageCache::new(config.page_cache_pages),
            swap: SwapManager::new(config.swap_bytes),
            ssd: SsdModel::new(config.ssd.clone()),
            zeroed_pool,
            khugepaged: KhugepagedDaemon::new(),
            reservation,
            utopia,
            hugetlb: HugetlbPool::new(),
            processes: Vec::new(),
            scheduler: Scheduler::new_with_cores(config.sched_quantum, config.num_cores),
            ranges: BTreeMap::new(),
            reclaim_cursor: 0,
            pending_invalidations: InvalidationBatch::default(),
            oom_kill_log: Vec::new(),
            free_pids: Vec::new(),
            spare_ops: Vec::new(),
            injector: FaultInjector::new(config.fault_injection.clone()),
            rng,
            stats: OsStats::default(),
            buddy,
            config,
        })
    }

    /// The kernel's configuration.
    pub fn config(&self) -> &OsConfig {
        &self.config
    }

    /// Kernel-wide statistics.
    pub fn stats(&self) -> &OsStats {
        &self.stats
    }

    /// The physical frame allocator.
    pub fn buddy(&self) -> &BuddyAllocator {
        &self.buddy
    }

    /// Mutable access to the physical frame allocator (for experiments that
    /// inject fragmentation after boot).
    pub fn buddy_mut(&mut self) -> &mut BuddyAllocator {
        &mut self.buddy
    }

    /// The swap manager.
    pub fn swap(&self) -> &SwapManager {
        &self.swap
    }

    /// The storage device backing swap and the page cache.
    pub fn ssd(&self) -> &SsdModel {
        &self.ssd
    }

    /// The page cache.
    pub fn page_cache(&self) -> &PageCache {
        &self.page_cache
    }

    /// The Utopia allocator, when the policy uses one.
    pub fn utopia(&self) -> Option<&UtopiaAllocator> {
        self.utopia.as_ref()
    }

    /// The khugepaged daemon.
    pub fn khugepaged(&self) -> &KhugepagedDaemon {
        &self.khugepaged
    }

    /// Creates a new process, admits it to the scheduler's run queue and
    /// returns its identifier. Pid slots (and with them the ASIDs derived
    /// from them) of OOM-killed processes are recycled: the framework
    /// flushed the dead ASID from every core when it drained the kill, so
    /// reuse is safe — exactly what the chaos proptest pins down.
    pub fn spawn_process(&mut self) -> ProcessId {
        let pid = match self.free_pids.pop() {
            Some(idx) => {
                self.processes[idx] = Process::new();
                ProcessId(idx)
            }
            None => {
                self.processes.push(Process::new());
                ProcessId(self.processes.len() - 1)
            }
        };
        self.ranges.insert(pid.0, Vec::new());
        self.scheduler.admit(pid);
        pid
    }

    /// Number of pid slots ever created (live and exited).
    pub fn num_processes(&self) -> usize {
        self.processes.len()
    }

    /// The process scheduler.
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// Mutable access to the process scheduler (the simulation loop drives
    /// dispatch, accounting and preemption through it).
    pub fn scheduler_mut(&mut self) -> &mut Scheduler {
        &mut self.scheduler
    }

    /// Performs the kernel half of a context switch and returns the
    /// instruction stream of the switch code (scheduler bookkeeping,
    /// register save/restore, `switch_mm`).
    pub fn context_switch_stream(&mut self, switch: ContextSwitch) -> KernelInstructionStream {
        let mut stream = KernelInstructionStream::new(KernelRoutine::ContextSwitch);
        stream.compute(self.config.context_switch_cost);
        // Touch both task structs and the incoming mm_struct, so the switch
        // pollutes the caches the way real switch code does.
        for pid in [switch.from, switch.to] {
            stream.store(PhysAddr::new(
                0xFFFF_C000_0000_0000 + (pid.0 as u64) * 0x4000,
            ));
        }
        stream.store(PhysAddr::new(
            0xFFFF_C800_0000_0000 + (switch.to.0 as u64) * 0x2000,
        ));
        self.stats.kernel_instructions += stream.instruction_count();
        stream
    }

    /// Immutable access to a process.
    ///
    /// # Panics
    ///
    /// Panics if `pid` does not name a spawned process.
    pub fn process(&self, pid: ProcessId) -> &Process {
        &self.processes[pid.0]
    }

    /// Mutable access to a process.
    ///
    /// # Panics
    ///
    /// Panics if `pid` does not name a spawned process.
    pub fn process_mut(&mut self, pid: ProcessId) -> &mut Process {
        &mut self.processes[pid.0]
    }

    /// The contiguous ranges eagerly allocated for a process (RMM support).
    pub fn ranges(&self, pid: ProcessId) -> &[RangeMapping] {
        self.ranges.get(&pid.0).map_or(&[], |v| v.as_slice())
    }

    /// Maps an anonymous region `[start, start + len)` into a process.
    /// When `hugetlb` is `true`, the region is backed by hugetlbfs and the
    /// kernel reserves 2 MiB pages for it up front.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::InvalidVma`] if the region overlaps an existing
    /// VMA or has zero length.
    pub fn mmap_anonymous(
        &mut self,
        pid: ProcessId,
        start: VirtAddr,
        len: u64,
        hugetlb: bool,
    ) -> VmResult<()> {
        let mut vma = Vma::anonymous(start, len);
        vma.hugetlb = hugetlb;
        vma.eager_paging = matches!(self.config.policy, AllocationPolicy::EagerPaging);
        self.processes[pid.0].vmas.insert(vma.clone())?;
        if hugetlb {
            let pages = len.div_ceil(PageSize::Size2M.bytes());
            self.hugetlb.reserve(pages as usize, &mut self.buddy);
        }
        if vma.eager_paging {
            self.eager_populate(pid, &vma);
        }
        Ok(())
    }

    /// Maps a file-backed region into a process. When the configuration
    /// enables it, the page cache is warmed for the mapped range.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::InvalidVma`] if the region overlaps an existing
    /// VMA or has zero length.
    pub fn mmap_file(
        &mut self,
        pid: ProcessId,
        start: VirtAddr,
        len: u64,
        file_id: u64,
    ) -> VmResult<()> {
        let vma = Vma::file_backed(start, len, file_id);
        self.processes[pid.0].vmas.insert(vma)?;
        if self.config.populate_page_cache {
            let pages = (len / 4096).min(self.config.page_cache_pages as u64 / 2);
            for i in 0..pages {
                if let Ok(frame) = self.buddy.alloc(0) {
                    if let Some(evicted) = self.page_cache.insert(file_id, i, frame) {
                        let _ = self.buddy.free(evicted, 0);
                    }
                }
            }
        }
        Ok(())
    }

    /// Eagerly allocates physical memory for an entire VMA (RMM's eager
    /// paging), creating as few, as large, contiguous ranges as possible.
    fn eager_populate(&mut self, pid: ProcessId, vma: &Vma) {
        let mut offset = 0u64;
        while offset < vma.len() {
            let remaining_pages = (vma.len() - offset) / 4096;
            // Largest order that still fits in the remaining length, capped
            // at 2 MiB * 2^12 = 8 GiB (the paper's max order 21 relative to
            // 4 KiB pages).
            let max_order = 63 - remaining_pages.leading_zeros().min(63);
            let order = max_order.min(21);
            let Ok((base, got_order)) = self.buddy.alloc_with_fallback(order, 0, None) else {
                break;
            };
            let bytes = (1u64 << got_order) * 4096;
            let vstart = vma.start.add(offset);
            self.ranges.entry(pid.0).or_default().push(RangeMapping {
                virt_start: vstart,
                phys_start: base,
                bytes,
            });
            // Record mappings at the largest page granularity that tiles the
            // range so the MMU sees huge mappings where possible.
            let mut inner = 0u64;
            while inner < bytes {
                let va = vstart.add(inner);
                let pa = base.add(inner);
                let size = if bytes - inner >= PageSize::Size2M.bytes()
                    && va.is_aligned(PageSize::Size2M)
                    && pa.is_aligned(PageSize::Size2M)
                {
                    PageSize::Size2M
                } else {
                    PageSize::Size4K
                };
                self.processes[pid.0].insert_mapping(Mapping {
                    vaddr: va,
                    paddr: pa,
                    page_size: size,
                });
                self.stats.count_mapping(size);
                inner += size.bytes();
            }
            offset += bytes;
        }
    }

    /// Runs the kernel's background housekeeping: refills the pre-zeroed
    /// huge-page pool (the work a background zeroing thread would do off the
    /// critical path). Call periodically from the simulation loop.
    pub fn background_tick(&mut self) {
        if self.config.thp.mode != ThpMode::Never {
            self.zeroed_pool.refill(&mut self.buddy);
        }
    }

    /// Runs one khugepaged scan pass over a process, returning the kernel
    /// instruction stream describing the background work plus the
    /// translations the pass tore down: a collapse removes base mappings
    /// whose frames are freed (and immediately reusable), so the caller
    /// must shoot them down and install the replacement huge mapping —
    /// exactly the `mmu_notifier` + TLB-flush dance `collapse_huge_page`
    /// performs in Linux.
    pub fn khugepaged_tick(
        &mut self,
        pid: ProcessId,
    ) -> (KernelInstructionStream, InvalidationBatch) {
        let (mut stream, collapses) = self.khugepaged.scan(
            &self.config.thp,
            &mut self.processes[pid.0],
            &mut self.buddy,
        );
        let mut batch = InvalidationBatch::default();
        for collapse in collapses {
            for old in &collapse.removed {
                batch.push_victim(pid, old.vaddr, old.page_size);
            }
            batch.replacements.push((pid, collapse.huge));
        }
        self.charge_shootdown(batch.victims.len() as u64, &mut stream);
        self.stats.kernel_instructions += stream.instruction_count();
        (stream, batch)
    }

    /// Records the instruction-stream cost of one shootdown round: the
    /// IPI round trip plus the per-page invalidation work, and the store
    /// of the flush descriptor every responding core reads (cross-core
    /// cacheline ping-pong of the IPI handshake).
    fn shootdown_cost_ops(&self, pages: u64, stream: &mut KernelInstructionStream) {
        const FLUSH_DESCRIPTOR: PhysAddr = PhysAddr::new(0xFFFF_E000_0000_0000);
        let cost = u64::from(self.config.shootdown_ipi_cost)
            + u64::from(self.config.shootdown_per_page_cost) * pages;
        stream.compute(cost.min(u32::MAX as u64) as u32);
        stream.store(FLUSH_DESCRIPTOR);
    }

    /// Charges one TLB-shootdown round (IPIs + per-page invalidations) to
    /// the given kernel stream. A no-op when nothing was invalidated.
    fn charge_shootdown(&mut self, pages: u64, stream: &mut KernelInstructionStream) {
        if pages == 0 {
            return;
        }
        self.stats.shootdown_ipis.inc();
        self.shootdown_cost_ops(pages, stream);
    }

    /// Handles a page fault at `vaddr` in process `pid`, implementing the
    /// memory-management flow of the paper's Fig. 6. Returns the outcome,
    /// including the established mapping and the kernel instruction stream.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::SegmentationFault`] when `vaddr` is not covered by
    /// any VMA, and [`VmError::OutOfMemory`] when physical memory and swap
    /// are both exhausted and the OOM killer (always on: it kills the
    /// process with the highest badness score, never the faulter, and
    /// retries) finds no victim left.
    pub fn handle_page_fault(
        &mut self,
        pid: ProcessId,
        vaddr: VirtAddr,
        is_write: bool,
    ) -> VmResult<PageFaultOutcome> {
        let mut invalidations = InvalidationBatch::default();
        loop {
            match self.handle_page_fault_inner(pid, vaddr, is_write, &mut invalidations) {
                Ok(mut outcome) => {
                    outcome.invalidations = invalidations;
                    return Ok(outcome);
                }
                Err(error @ VmError::OutOfMemory { .. }) => {
                    // Reclaim and retry could not satisfy the allocation:
                    // escalate to the OOM killer. When it finds a victim
                    // the fault is retried against the freed memory; when
                    // every other process is already dead (or empty) the
                    // fault fails for real. Each iteration kills one
                    // process, so the loop terminates.
                    if !self.oom_kill_one(pid, &mut invalidations) {
                        self.pending_invalidations.merge(invalidations);
                        return Err(error);
                    }
                }
                Err(error) => {
                    // The fault failed *after* reclaim may already have torn
                    // translations down (e.g. out of memory when evicting
                    // RestSeg pages frees no FlexSeg frames). Stash the work:
                    // the shootdowns are real even though the fault is not.
                    self.pending_invalidations.merge(invalidations);
                    return Err(error);
                }
            }
        }
    }

    /// Selects the OOM victim with the highest badness score — resident
    /// plus swapped bytes, the RSS-dominant heuristic of Linux's
    /// `oom_badness` — excluding the faulting process (the kernel
    /// sacrifices another task so the faulting one can make progress) and
    /// everything already dead. Ties go to the younger (higher) pid. Kills
    /// it and appends the torn-down translations to `batch`. Returns
    /// `false` when no victim exists.
    fn oom_kill_one(&mut self, faulter: ProcessId, batch: &mut InvalidationBatch) -> bool {
        let mut scanned = 0u64;
        let mut best: Option<(usize, u64)> = None;
        for (idx, process) in self.processes.iter().enumerate() {
            if idx == faulter.0 || process.is_exited() {
                continue;
            }
            let badness = process.resident_bytes() + process.swapped_page_count() as u64 * 4096;
            scanned += badness;
            if badness > 0 && best.is_none_or(|(_, b)| badness >= b) {
                best = Some((idx, badness));
            }
        }
        let Some((victim_idx, badness)) = best else {
            return false;
        };
        let victim = ProcessId(victim_idx);
        let mut stream = KernelInstructionStream::new(KernelRoutine::OomKill);
        // The badness scan walks every task struct (`select_bad_process`).
        stream.compute(120 * self.processes.len().max(1) as u32);
        for idx in 0..self.processes.len() {
            stream.load(PhysAddr::new(0xFFFF_C000_0000_0000 + (idx as u64) * 0x4000));
        }
        let freed = self.kill_process(victim, &mut stream, batch);
        self.stats.oom_kills.inc();
        self.stats.oom_scanned_bytes += scanned;
        self.stats.oom_freed_bytes += freed;
        self.stats.kernel_instructions += stream.instruction_count();
        self.oom_kill_log.push(OomKill {
            victim,
            badness,
            freed_bytes: freed,
            stream,
        });
        true
    }

    /// Tears a process down (`oom_kill_process` + `exit_mmap`): every
    /// resident mapping becomes a shootdown victim in `batch` and its
    /// frames return to their owner (buddy allocator, hugetlb pool or
    /// RestSeg), swap slots are released, eager ranges dropped, and the
    /// process leaves the scheduler. Its pid slot is queued for reuse.
    /// Returns the resident bytes freed.
    fn kill_process(
        &mut self,
        victim: ProcessId,
        stream: &mut KernelInstructionStream,
        batch: &mut InvalidationBatch,
    ) -> u64 {
        let asid = victim.0 as u16;
        let space = self.processes[victim.0].kill(ExitReason::OomKilled);
        let mut freed = 0u64;
        for (mapping, hugetlb) in &space.mappings {
            batch.push_victim(victim, mapping.vaddr, mapping.page_size);
            freed += mapping.page_size.bytes();
            // Unmap + free per entry (`unmap_page_range` / `free_pgtables`).
            stream.compute(60);
            if let Some(utopia) = self.utopia.as_mut() {
                if utopia.remove(asid, mapping.vaddr) {
                    // RestSeg page: no buddy frame behind it.
                    continue;
                }
            }
            if *hugetlb {
                self.stats.unreclaimable_bytes = self
                    .stats
                    .unreclaimable_bytes
                    .saturating_sub(mapping.page_size.bytes());
                self.hugetlb.release(mapping.paddr);
                continue;
            }
            self.free_mapping_frames(mapping);
        }
        for slot in space.swap_slots {
            self.swap.release_slot(slot);
        }
        // Reservation-THP frames freed above may sit inside tracked 2 MiB
        // reservations; forget them all so no later promotion resurrects a
        // frame the buddy allocator already handed out again.
        if let Some(reservation) = self.reservation.as_mut() {
            reservation.clear();
        }
        self.ranges.insert(victim.0, Vec::new());
        self.scheduler.exit(victim);
        self.free_pids.push(victim.0);
        self.charge_shootdown(space.mappings.len() as u64, stream);
        freed
    }

    /// Frees the physical span behind one mapping. A huge mapping whose
    /// frames were carved out of a larger buddy block (eager paging, a
    /// demoted gigantic page) cannot be freed at its own order; the
    /// containing block is shattered to base frames first.
    fn free_mapping_frames(&mut self, mapping: &Mapping) {
        if self
            .buddy
            .free(mapping.paddr, order_for(mapping.page_size))
            .is_ok()
        {
            return;
        }
        if self.buddy.split_allocated(mapping.paddr).is_ok() {
            let mut offset = 0u64;
            while offset < mapping.page_size.bytes() {
                let _ = self.buddy.free(mapping.paddr.add(offset), 0);
                offset += 4096;
            }
        }
    }

    /// Drains the OOM kills performed since the last call. The framework
    /// must flush each victim's ASID from every core's translation state
    /// and inject the kill's kernel stream (in detailed mode).
    pub fn take_oom_kills(&mut self) -> Vec<OomKill> {
        std::mem::take(&mut self.oom_kill_log)
    }

    /// Takes back a kernel stream the framework has injected or discarded.
    /// Its op buffer is kept (the larger one, if a buffer is already
    /// spare) for the next page fault's stream, so a fault allocates no
    /// buffer of its own.
    pub fn recycle_stream(&mut self, stream: KernelInstructionStream) {
        let mut ops = stream.into_buffer();
        if ops.capacity() > self.spare_ops.capacity() {
            ops.clear();
            self.spare_ops = ops;
        }
    }

    /// Extra stall cycles for one remote core's shootdown IPI delivery,
    /// when fault injection decides the IPI arrives late. Returns 0 with
    /// injection disabled (without consuming injector randomness).
    pub fn injected_ipi_delay_cycles(&mut self) -> u64 {
        let delay = self.injector.ipi_delay_cycles();
        if delay > 0 {
            self.stats.injected_ipi_delays.inc();
        }
        delay
    }

    /// Drains the shootdown work accumulated by failed faults (see
    /// [`MimicOs::handle_page_fault`]). The framework must apply this
    /// after any fault that returns an error.
    pub fn take_pending_invalidations(&mut self) -> InvalidationBatch {
        std::mem::take(&mut self.pending_invalidations)
    }

    /// Builds the kernel stream for the shootdown cost of a *failed*
    /// fault's invalidation batch. The fault's own stream — which had the
    /// cost charged into it — was abandoned with the fault, but the IPIs
    /// and remote invalidations still executed; the framework injects this
    /// replacement alongside the drained batch. The IPI-round statistic is
    /// *not* re-incremented (it was counted when the victims were torn
    /// down).
    pub fn pending_shootdown_stream(&mut self, pages: u64) -> KernelInstructionStream {
        let mut stream = KernelInstructionStream::new(KernelRoutine::Reclaim);
        if pages > 0 {
            self.shootdown_cost_ops(pages, &mut stream);
            self.stats.kernel_instructions += stream.instruction_count();
        }
        stream
    }

    fn handle_page_fault_inner(
        &mut self,
        pid: ProcessId,
        vaddr: VirtAddr,
        is_write: bool,
        invalidations: &mut InvalidationBatch,
    ) -> VmResult<PageFaultOutcome> {
        let mut work = FaultWork {
            pid,
            is_write,
            stream: KernelInstructionStream::with_buffer(
                KernelRoutine::PageFaultHandler,
                std::mem::take(&mut self.spare_ops),
            ),
            device_ns: 0.0,
            zeroed_bytes: 0,
            pt_frames: None,
            additional: Vec::new(),
            restseg_placed: false,
        };
        // Exception entry, register save, mmap_lock acquisition.
        work.stream.compute(220);

        let Some(vma) = self.processes[pid.0]
            .vmas
            .find_traced(vaddr, &mut work.stream)
            .cloned()
        else {
            return Err(VmError::SegmentationFault { vaddr });
        };

        // Spurious fault: another thread (or eager paging) already mapped it.
        if let Some(existing) = self.processes[pid.0].lookup_mapping(vaddr) {
            work.stream.compute(40);
            return Ok(self.finish_fault(work, existing, FaultKind::Spurious));
        }

        // Reclaim (kswapd-style) if memory pressure is above the threshold.
        work.device_ns += self.reclaim_if_needed(&mut work.stream, invalidations)?;

        // Every arm ends here: the page-table frames (unless the arm charged
        // them before its allocation), the PTE store, the statistics.
        let (frame, size, kind) = self.fault_frame(&mut work, vaddr, &vma, invalidations)?;
        if work.pt_frames.is_none() {
            match self.charge_page_table_frames(pid, vaddr, &mut work.stream) {
                Ok(frames) => work.pt_frames = Some(frames),
                Err(e) => {
                    // The frame was taken but will not be mapped: return a
                    // hugetlbfs page to the pool and a gigabyte to the buddy
                    // (base frames belong to the page or swap cache).
                    if kind == FaultKind::Hugetlb {
                        self.hugetlb.release(frame);
                    } else if size == PageSize::Size1G {
                        let _ = self.buddy.free(frame, ORDER_1G);
                    }
                    return Err(e);
                }
            }
        }
        let mapping = Mapping {
            vaddr: vaddr.page_base(size),
            paddr: frame,
            page_size: size,
        };
        work.stream.compute(45);
        work.stream.store(PhysAddr::new(
            0xFFFF_D000_0000_0000 + (mapping.vaddr.raw() >> 9 & 0xF_FFF_FF8),
        ));
        self.processes[pid.0].insert_mapping(mapping);
        self.stats.count_mapping(size);
        Ok(self.finish_fault(work, mapping, kind))
    }

    /// The part of the Fig. 6 flow in which faults differ: picks the frame
    /// that backs the faulting page, its size and the fault's kind.
    fn fault_frame(
        &mut self,
        work: &mut FaultWork,
        vaddr: VirtAddr,
        vma: &Vma,
        batch: &mut InvalidationBatch,
    ) -> VmResult<(PhysAddr, PageSize, FaultKind)> {
        let pid = work.pid;
        // Swapped-out page: bring it back in.
        if self.processes[pid.0].is_swapped(vaddr) {
            self.swap.trace_lookup(&mut work.stream);
            let slot = self.processes[pid.0]
                .take_swap_slot(vaddr)
                .expect("is_swapped implies a slot");
            let dest = self.alloc_base_frame_for(&mut work.stream, batch)?;
            let (frame, io) = self.swap.swap_in(slot, dest, &mut self.ssd)?;
            if frame != dest {
                // The page was still in the swap cache; release the frame we
                // speculatively allocated.
                let _ = self.buddy.free(dest, 0);
            }
            work.device_ns +=
                io.as_nanos() + self.injected_swap_penalty_ns(io.as_nanos(), &mut work.stream);
            return Ok((frame, PageSize::Size4K, FaultKind::SwapIn));
        }

        // hugetlbfs VMAs take 2 MiB pages from the reserved pool (Fig. 6,
        // "Page in HugeTLB?").
        if vma.hugetlb {
            work.stream.compute(80);
            let frame = match self.hugetlb.take() {
                Some(f) => f,
                None => self.buddy.alloc_traced(ORDER_2M, Some(&mut work.stream))?,
            };
            work.zero(frame, PageSize::Size2M.bytes());
            return Ok((frame, PageSize::Size2M, FaultKind::Hugetlb));
        }

        // 1 GiB path: DAX/file-backed VMAs with gigantic flags and an
        // available contiguous gigabyte (Fig. 6, step 3).
        if vma.gigantic_ok
            && vma.kind.is_file_backed()
            && self.buddy.can_alloc(ORDER_1G)
            && vaddr.page_base(PageSize::Size1G) >= vma.start
        {
            let frame = self.buddy.alloc_traced(ORDER_1G, Some(&mut work.stream))?;
            return Ok((frame, PageSize::Size1G, FaultKind::Minor));
        }

        // File-backed pages go through the page cache (Fig. 6, step 7).
        if let VmaKind::FileBacked { file_id } = vma.kind {
            let page_index = (vaddr.page_base(PageSize::Size4K).offset_from(vma.start)) / 4096;
            if let Some(frame) =
                self.page_cache
                    .lookup_traced(file_id, page_index, &mut work.stream)
            {
                return Ok((frame, PageSize::Size4K, FaultKind::Minor));
            }
            // Page-cache miss: read from the device (major fault).
            let frame = self.alloc_base_frame_for(&mut work.stream, batch)?;
            let io = self.ssd.read(file_id * (1 << 30) + page_index * 4096);
            work.device_ns += io.as_nanos();
            if let Some(evicted) = self.page_cache.insert(file_id, page_index, frame) {
                let _ = self.buddy.free(evicted, 0);
            }
            return Ok((frame, PageSize::Size4K, FaultKind::Major));
        }

        // Anonymous memory: the page-table frames come first, then the
        // allocation policy decides.
        work.pt_frames = Some(self.charge_page_table_frames(pid, vaddr, &mut work.stream)?);
        let (frame, size) = match self.config.policy {
            // Eager paging normally populates at mmap time; reaching this
            // point means the eager allocation ran out of memory, so fall
            // back to on-demand 4 KiB pages.
            AllocationPolicy::BuddyFourK | AllocationPolicy::EagerPaging => {
                self.zeroed_base_frame(work, batch)?
            }
            AllocationPolicy::LinuxThp => self.linux_thp_fault(work, vaddr, vma, batch)?,
            AllocationPolicy::ConservativeReservationThp
            | AllocationPolicy::AggressiveReservationThp => {
                self.reservation_fault(work, vaddr, batch)?
            }
            AllocationPolicy::Utopia(_) => self.utopia_fault(work, vaddr, batch)?,
        };
        Ok((frame, size, FaultKind::Minor))
    }

    /// Linux-like THP: try a 2 MiB allocation for eligible first-touch
    /// regions, otherwise a 4 KiB page plus a khugepaged notification.
    fn linux_thp_fault(
        &mut self,
        work: &mut FaultWork,
        vaddr: VirtAddr,
        vma: &Vma,
        batch: &mut InvalidationBatch,
    ) -> VmResult<(PhysAddr, PageSize)> {
        let thp_eligible = match self.config.thp.mode {
            ThpMode::Always => true,
            ThpMode::Madvise => vma.hugetlb,
            ThpMode::Never => false,
        };
        let region_base = vaddr.page_base(PageSize::Size2M);
        let region_fits_vma =
            region_base >= vma.start && region_base.add(PageSize::Size2M.bytes()) <= vma.end;
        let region_untouched =
            !self.processes[work.pid.0].region_has_mappings(vaddr, PageSize::Size2M);

        // Keep headroom: under memory pressure Linux's huge-page allocation
        // (compaction) fails and the fault falls back to a base page, which
        // avoids THP bloat exhausting physical memory.
        let headroom_ok = self.buddy.free_bytes() > self.config.memory_bytes / 8;
        if thp_eligible
            && vma.kind.is_anonymous()
            && region_fits_vma
            && region_untouched
            && headroom_ok
        {
            work.stream.compute(90);
            // Prefer a pre-zeroed huge page from the pool. The pool is only
            // replenished by background work (`background_tick`), so bursts
            // of huge-page faults quickly fall back to inline zeroing — the
            // source of the THP tail latency in Figs. 2 and 16.
            if let Some(frame) = self.zeroed_pool.take() {
                work.stream.compute(30);
                return Ok((frame, PageSize::Size2M));
            }
            if self.buddy.can_alloc(ORDER_2M) {
                let frame = self.buddy.alloc_traced(ORDER_2M, Some(&mut work.stream))?;
                work.zero(frame, PageSize::Size2M.bytes());
                return Ok((frame, PageSize::Size2M));
            }
            // Fallback path: compaction attempt failed, take a base page.
            work.stream.compute(400);
        }
        let base = self.zeroed_base_frame(work, batch)?;
        self.khugepaged.notify(vaddr);
        Ok(base)
    }

    /// Reservation-based THP fault (CR-THP / AR-THP).
    fn reservation_fault(
        &mut self,
        work: &mut FaultWork,
        vaddr: VirtAddr,
        batch: &mut InvalidationBatch,
    ) -> VmResult<(PhysAddr, PageSize)> {
        let reservation = self
            .reservation
            .as_mut()
            .expect("reservation policy implies a tracker");
        let Some((frame, promote)) = reservation.on_fault(vaddr, &mut self.buddy, &mut work.stream)
        else {
            // Reservation failed (no contiguous 2 MiB region): plain page.
            return self.zeroed_base_frame(work, batch);
        };
        work.zero(frame, 4096);
        if let Some(huge_base) = promote {
            // Promotion: replace every 4 KiB mapping in the region with one
            // 2 MiB mapping.
            let region = vaddr.page_base(PageSize::Size2M);
            let huge = Mapping {
                vaddr: region,
                paddr: huge_base,
                page_size: PageSize::Size2M,
            };
            self.processes[work.pid.0].collapse_to_huge(region, huge);
            self.stats.count_mapping(PageSize::Size2M);
            work.additional.push(huge);
        }
        Ok((frame, PageSize::Size4K))
    }

    /// Utopia fault: hash-based placement into the RestSeg; collisions spill
    /// to the FlexSeg (buddy) and, under memory pressure, force swapping —
    /// the behaviour behind Fig. 20.
    fn utopia_fault(
        &mut self,
        work: &mut FaultWork,
        vaddr: VirtAddr,
        batch: &mut InvalidationBatch,
    ) -> VmResult<(PhysAddr, PageSize)> {
        let asid = work.pid.0 as u16;
        let utopia = self
            .utopia
            .as_mut()
            .expect("utopia policy implies segments");
        if let Some((frame, size)) =
            utopia.try_place(asid, vaddr, PageSize::Size4K, &mut work.stream)
        {
            work.restseg_placed = true;
            work.zero(frame, size.bytes().min(4096));
            return Ok((frame, size));
        }
        // Collision: spill to the FlexSeg. If the FlexSeg is out of memory,
        // reclaim by swapping out resident pages first.
        let frame = match self.alloc_base_frame_for(&mut work.stream, batch) {
            Ok(f) => f,
            Err(VmError::OutOfMemory { .. }) => {
                work.device_ns +=
                    self.reclaim_pages(self.config.reclaim_batch, &mut work.stream, batch)?;
                self.alloc_base_frame_for(&mut work.stream, batch)?
            }
            Err(e) => return Err(e),
        };
        work.zero(frame, 4096);
        Ok((frame, PageSize::Size4K))
    }

    /// A zeroed 4 KiB frame, with direct reclaim on a shortfall: the base
    /// page every anonymous policy falls back to.
    fn zeroed_base_frame(
        &mut self,
        work: &mut FaultWork,
        batch: &mut InvalidationBatch,
    ) -> VmResult<(PhysAddr, PageSize)> {
        let frame = self.alloc_base_frame_for(&mut work.stream, batch)?;
        work.zero(frame, 4096);
        Ok((frame, PageSize::Size4K))
    }

    /// Allocates one 4 KiB frame, reclaiming (swapping out) when physical
    /// memory is exhausted, like the direct-reclaim path of a real kernel.
    fn alloc_base_frame_for(
        &mut self,
        stream: &mut KernelInstructionStream,
        batch: &mut InvalidationBatch,
    ) -> VmResult<PhysAddr> {
        // An injected shortfall models a transient allocation failure (a
        // watermark breach, a CMA reservation, a race with another
        // allocator): the fault takes the same direct-reclaim path a real
        // failure would.
        let first_try = if self.injector.alloc_shortfall() {
            self.stats.injected_alloc_shortfalls.inc();
            Err(VmError::OutOfMemory {
                requested: 4096,
                free: self.buddy.free_bytes(),
            })
        } else {
            self.buddy.alloc_traced(0, Some(stream))
        };
        match first_try {
            Ok(f) => Ok(f),
            Err(VmError::OutOfMemory { .. }) => {
                self.stats.oom_reclaim_retries.inc();
                self.reclaim_pages(self.config.reclaim_batch.max(8), stream, batch)?;
                self.buddy.alloc_traced(0, Some(stream))
            }
            Err(e) => Err(e),
        }
    }

    /// Charges the slab allocations for page-table frames needed by a fault:
    /// one new frame per previously-untouched level of the region.
    fn charge_page_table_frames(
        &mut self,
        pid: ProcessId,
        vaddr: VirtAddr,
        stream: &mut KernelInstructionStream,
    ) -> VmResult<u32> {
        let mut frames = 0u32;
        for size in [PageSize::Size1G, PageSize::Size2M] {
            if !self.processes[pid.0].region_has_mappings(vaddr, size) {
                self.pt_slab.alloc(&mut self.buddy, Some(stream))?;
                frames += 1;
            }
        }
        Ok(frames)
    }

    /// Reclaims memory when utilization exceeds the swapping threshold.
    /// Returns the device time spent; torn-down translations are appended
    /// to `batch` for the framework to shoot down.
    fn reclaim_if_needed(
        &mut self,
        stream: &mut KernelInstructionStream,
        batch: &mut InvalidationBatch,
    ) -> VmResult<f64> {
        if self.buddy.utilization() <= self.config.swap_threshold {
            return Ok(0.0);
        }
        self.reclaim_pages(self.config.reclaim_batch, stream, batch)
    }

    /// Picks up to `count` 4 KiB reclaim victims, one page at a time
    /// round-robin across the resident processes starting at the reclaim
    /// cursor, so multiprogram pressure spreads the swap traffic instead
    /// of draining one victim process.
    fn reclaim_victims_round_robin(&mut self, count: usize) -> Vec<(ProcessId, Mapping)> {
        let n = self.processes.len();
        if n == 0 {
            return Vec::new();
        }
        let mut queues: Vec<(usize, std::collections::VecDeque<Mapping>)> = Vec::new();
        for i in 0..n {
            let idx = (self.reclaim_cursor + i) % n;
            let candidates = self.processes[idx].reclaim_candidates(count);
            if !candidates.is_empty() {
                queues.push((idx, candidates.into()));
            }
        }
        let mut victims = Vec::new();
        'fill: loop {
            let mut progressed = false;
            for (idx, queue) in &mut queues {
                if let Some(mapping) = queue.pop_front() {
                    victims.push((ProcessId(*idx), mapping));
                    progressed = true;
                    if victims.len() >= count {
                        break 'fill;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        if !victims.is_empty() {
            self.reclaim_cursor = (self.reclaim_cursor + 1) % n;
        }
        victims
    }

    /// Demotes one resident 2 MiB mapping into 512 4 KiB pieces on the
    /// same frames (`split_huge_page` + buddy split), searching processes
    /// round-robin from the cursor. When no 2 MiB mapping exists anywhere,
    /// a 1 GiB mapping is demoted instead — first into 512 2 MiB pieces,
    /// then the first of those on into 4 KiB pieces — so gigantic pages
    /// are never exempt from reclaim. The huge translation goes into
    /// `batch` as a shootdown victim (intermediate pieces never reached a
    /// TLB, so only the original mapping needs one); the 4 KiB pieces are
    /// returned so the caller can reclaim some and report the survivors
    /// as replacements.
    fn demote_one_huge(
        &mut self,
        stream: &mut KernelInstructionStream,
        batch: &mut InvalidationBatch,
    ) -> Option<(ProcessId, Vec<Mapping>)> {
        for size in [PageSize::Size2M, PageSize::Size1G] {
            let n = self.processes.len();
            for i in 0..n {
                let idx = (self.reclaim_cursor + i) % n;
                let process = &self.processes[idx];
                // Hugetlbfs mappings are pinned (counted in
                // `unreclaimable_bytes`): demotion must not touch them.
                let Some(vaddr) = process
                    .mappings()
                    .find(|m| {
                        m.page_size == size
                            && !process.vmas.find(m.vaddr).is_some_and(|v| v.hugetlb)
                    })
                    .map(|m| m.vaddr)
                else {
                    continue;
                };
                let (huge, mut pieces) = self.processes[idx]
                    .demote_mapping(vaddr)
                    .expect("a huge mapping was found above");
                // The containing buddy block (the huge allocation itself,
                // or the larger eager block it was carved from) becomes a
                // set of individually freeable frames; RestSeg and
                // gigantic-reservation frames live outside the buddy and
                // simply stay where they are.
                let _ = self.buddy.split_allocated(huge.paddr);
                let pid = ProcessId(idx);
                batch.push_victim(pid, huge.vaddr, huge.page_size);
                self.stats.thp_demotions.inc();
                // Splitting the PMD (or PUD): per-entry setup for the 512
                // new entries.
                stream.compute(512 * 3);
                if size == PageSize::Size1G {
                    // 1 GiB demotion yields 2 MiB pieces; split the first
                    // on down to reclaimable 4 KiB pages. The surviving
                    // 2 MiB pieces stay resident and ride the replacement
                    // path (they were never in any TLB — no shootdown).
                    let first = pieces[0];
                    for piece in &pieces[1..] {
                        batch.replacements.push((pid, *piece));
                    }
                    let (mid, base_pieces) = self.processes[idx]
                        .demote_mapping(first.vaddr)
                        .expect("the 2 MiB piece was just inserted");
                    let _ = self.buddy.split_allocated(mid.paddr);
                    self.stats.thp_demotions.inc();
                    stream.compute(512 * 3);
                    pieces = base_pieces;
                }
                return Some((pid, pieces));
            }
        }
        None
    }

    /// Swaps out up to `count` resident 4 KiB pages, chosen round-robin
    /// across all processes. When no base pages are resident anywhere, one
    /// huge mapping is demoted first and its pieces reclaimed. Every
    /// translation torn down is appended to `batch`, and the kernel stream
    /// is charged the configured shootdown cost (IPI round + per-page
    /// invalidation work).
    fn reclaim_pages(
        &mut self,
        count: usize,
        stream: &mut KernelInstructionStream,
        batch: &mut InvalidationBatch,
    ) -> VmResult<f64> {
        let victims_before = batch.victims.len();
        let mut device_ns = 0.0;
        stream.compute(200);
        let mut victims = self.reclaim_victims_round_robin(count);
        if victims.is_empty() {
            // No base pages anywhere: demote a huge mapping and reclaim
            // from its pieces. Pieces that survive this pass stay resident
            // as 4 KiB mappings and are reported as replacements.
            let Some((pid, pieces)) = self.demote_one_huge(stream, batch) else {
                return Ok(device_ns);
            };
            let reclaim_now = count.min(pieces.len());
            for piece in &pieces[reclaim_now..] {
                batch.replacements.push((pid, *piece));
            }
            victims = pieces[..reclaim_now].iter().map(|m| (pid, *m)).collect();
        }
        for (pid, victim) in victims {
            let Ok((slot, io)) = self.swap.swap_out(victim.paddr, &mut self.ssd) else {
                break;
            };
            let io_ns = io.as_nanos() + self.injected_swap_penalty_ns(io.as_nanos(), stream);
            self.swap.drop_swap_cache(slot);
            if self.processes[pid.0].swap_out(victim.vaddr, slot).is_some() {
                batch.push_victim(pid, victim.vaddr, victim.page_size);
                // An eagerly allocated range no longer translates the
                // victim page: trim it (both here and, via the batch, in
                // the engine's range table).
                self.trim_ranges(pid, victim.vaddr, victim.page_size.bytes());
            }
            if let Some(utopia) = self.utopia.as_mut() {
                if utopia.remove(pid.0 as u16, victim.vaddr) {
                    // Page lived in a RestSeg: no buddy frame to release.
                    device_ns += io_ns;
                    self.stats.reclaimed_pages.inc();
                    continue;
                }
            }
            if self.buddy.free(victim.paddr, 0).is_err() {
                // The frame is part of a larger allocation (an eager-paging
                // block): split the block into base frames, then release.
                if self.buddy.split_allocated(victim.paddr).is_ok() {
                    let _ = self.buddy.free(victim.paddr, 0);
                }
            }
            device_ns += io_ns;
            self.stats.reclaimed_pages.inc();
            stream.compute(80);
            stream.store(victim.paddr);
        }
        self.charge_shootdown((batch.victims.len() - victims_before) as u64, stream);
        Ok(device_ns)
    }

    /// Extra device nanoseconds injected into one swap transfer: a latency
    /// spike, a transient I/O error (the kernel retries, paying the
    /// transfer twice plus error-handling work), or both. A transfer that
    /// never touched the device (swap-cache hit) is not injectable.
    fn injected_swap_penalty_ns(
        &mut self,
        base_io_ns: f64,
        stream: &mut KernelInstructionStream,
    ) -> f64 {
        if !self.injector.is_active() || base_io_ns <= 0.0 {
            return 0.0;
        }
        let mut extra = 0.0;
        if self.injector.swap_io_error() {
            self.stats.injected_swap_io_errors.inc();
            // Completion with error status, bio re-submission.
            stream.compute(600);
            extra += base_io_ns;
        }
        if let Some(spike) = self.injector.swap_latency_spike_ns() {
            self.stats.injected_swap_latency_spikes.inc();
            extra += spike;
        }
        extra
    }

    /// Splits any eagerly allocated range of `pid` covering the reclaimed
    /// page `[vaddr, vaddr + bytes)` into its remainders.
    fn trim_ranges(&mut self, pid: ProcessId, vaddr: VirtAddr, bytes: u64) {
        let Some(ranges) = self.ranges.get_mut(&pid.0) else {
            return;
        };
        if let Some(idx) = ranges.iter().position(|r| r.covers(vaddr)) {
            let range = ranges.swap_remove(idx);
            let (left, right) = range.split_around(vaddr, bytes);
            ranges.extend(left);
            ranges.extend(right);
        }
    }

    /// Finalizes an outcome and records kernel-wide plus per-process
    /// statistics (including the read/write split of the faulting access —
    /// every handled fault, spurious ones included, counts on one side).
    fn finish_fault(
        &mut self,
        work: FaultWork,
        mapping: Mapping,
        kind: FaultKind,
    ) -> PageFaultOutcome {
        let FaultWork {
            pid,
            is_write,
            mut stream,
            device_ns,
            zeroed_bytes,
            pt_frames,
            additional,
            restseg_placed,
        } = work;
        // Exception return, TLB entry install, mmap_lock release.
        stream.compute(120);
        let software_ns = stream.estimate_latency_ns(2.0, 60.0);
        let total_ns = software_ns + device_ns;
        match kind {
            FaultKind::Minor => {
                self.stats.minor_faults.inc();
                self.processes[pid.0].minor_faults += 1;
            }
            FaultKind::Major => {
                self.stats.major_faults.inc();
                self.processes[pid.0].major_faults += 1;
            }
            FaultKind::SwapIn => {
                self.stats.swap_in_faults.inc();
                self.processes[pid.0].major_faults += 1;
            }
            FaultKind::Hugetlb => {
                self.stats.hugetlb_faults.inc();
                self.processes[pid.0].minor_faults += 1;
                // Hugetlbfs pages are pinned for the life of the mapping
                // (Linux never swaps or demotes them); only an OOM kill
                // returns them.
                self.stats.unreclaimable_bytes += mapping.page_size.bytes();
            }
            FaultKind::Spurious => self.stats.spurious_faults.inc(),
        }
        if is_write {
            self.stats.write_faults.inc();
            self.processes[pid.0].write_faults += 1;
        } else {
            self.stats.read_faults.inc();
            self.processes[pid.0].read_faults += 1;
        }
        self.stats.record_fault_latency(
            total_ns,
            matches!(kind, FaultKind::Minor | FaultKind::Hugetlb),
        );
        self.stats.total_fault_ns += total_ns;
        self.stats.kernel_instructions += stream.instruction_count();
        // Mild deterministic jitter imitating interrupt/lock interference.
        let _ = self.rng.next_u64();
        PageFaultOutcome {
            mapping,
            additional_mappings: additional,
            kind,
            stream,
            software_latency_ns: software_ns,
            device_latency_ns: device_ns,
            zeroed_bytes,
            pt_frames_allocated: pt_frames.unwrap_or(0),
            restseg_placed,
            invalidations: InvalidationBatch::default(),
        }
    }
}

/// One page fault in flight: its kernel stream and what its arm adds to
/// the outcome, closed by [`MimicOs::finish_fault`].
struct FaultWork {
    pid: ProcessId,
    is_write: bool,
    stream: KernelInstructionStream,
    /// Storage-device time (swap and file I/O, reclaim write-back).
    device_ns: f64,
    zeroed_bytes: u64,
    /// Page-table frames charged; `None` until the fault charges them.
    pt_frames: Option<u32>,
    /// Mappings established beside the faulting page (a promotion).
    additional: Vec<Mapping>,
    /// The page went to a Utopia RestSeg.
    restseg_placed: bool,
}

impl FaultWork {
    /// Zeroes `bytes` of a freshly allocated frame, charging the memset.
    fn zero(&mut self, frame: PhysAddr, bytes: u64) {
        // A rep-stos style memset: roughly one instruction per 8 bytes, plus
        // a store sample per 512 bytes so the memory system sees the traffic
        // without exploding the stream length.
        self.stream.compute((bytes / 8).min(u32::MAX as u64) as u32);
        let mut offset = 0;
        while offset < bytes && offset < 512 * 128 {
            self.stream.store(frame.add(offset));
            offset += 512;
        }
        self.zeroed_bytes += bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1024 * 1024;

    fn os_with_policy(policy: AllocationPolicy) -> MimicOs {
        let config = OsConfig {
            policy,
            ..OsConfig::small_test()
        };
        MimicOs::new(config)
    }

    fn touch(os: &mut MimicOs, pid: ProcessId, va: u64) -> PageFaultOutcome {
        os.handle_page_fault(pid, VirtAddr::new(va), true).unwrap()
    }

    #[test]
    fn fault_outside_any_vma_is_a_segfault() {
        let mut os = MimicOs::new(OsConfig::small_test());
        let pid = os.spawn_process();
        assert!(matches!(
            os.handle_page_fault(pid, VirtAddr::new(0xdead_0000), false),
            Err(VmError::SegmentationFault { .. })
        ));
    }

    #[test]
    fn anonymous_fault_with_thp_maps_a_huge_page() {
        let mut os = os_with_policy(AllocationPolicy::LinuxThp);
        let pid = os.spawn_process();
        os.mmap_anonymous(pid, VirtAddr::new(0x4000_0000), 64 * MB, false)
            .unwrap();
        let outcome = touch(&mut os, pid, 0x4000_0000);
        assert_eq!(outcome.mapping.page_size, PageSize::Size2M);
        assert_eq!(outcome.kind, FaultKind::Minor);
        assert!(outcome.stream.instruction_count() > 0);
        assert_eq!(os.stats().huge_mappings.get(), 1);
    }

    #[test]
    fn thp_disabled_maps_base_pages() {
        let config = OsConfig {
            thp: ThpConfig::disabled(),
            ..OsConfig::small_test()
        };
        let mut os = MimicOs::new(config);
        let pid = os.spawn_process();
        os.mmap_anonymous(pid, VirtAddr::new(0x4000_0000), 16 * MB, false)
            .unwrap();
        let outcome = touch(&mut os, pid, 0x4000_0000);
        assert_eq!(outcome.mapping.page_size, PageSize::Size4K);
    }

    #[test]
    fn buddy_4k_policy_never_maps_huge_pages() {
        let mut os = os_with_policy(AllocationPolicy::BuddyFourK);
        let pid = os.spawn_process();
        os.mmap_anonymous(pid, VirtAddr::new(0x4000_0000), 16 * MB, false)
            .unwrap();
        for i in 0..32u64 {
            let outcome = touch(&mut os, pid, 0x4000_0000 + i * 4096);
            assert_eq!(outcome.mapping.page_size, PageSize::Size4K);
        }
        assert_eq!(os.stats().huge_mappings.get(), 0);
    }

    #[test]
    fn a_recycled_stream_backs_the_next_fault_with_the_same_ops() {
        let mut os = os_with_policy(AllocationPolicy::BuddyFourK);
        let pid = os.spawn_process();
        os.mmap_anonymous(pid, VirtAddr::new(0x4000_0000), 16 * MB, false)
            .unwrap();
        let mut fresh = os.clone();
        let first = touch(&mut os, pid, 0x4000_0000).stream;
        let buffer = first.ops().as_ptr();
        os.recycle_stream(first);
        let reused = touch(&mut os, pid, 0x4000_1000).stream;
        assert_eq!(reused.ops().as_ptr(), buffer, "the spare buffer is taken");
        // Recycling changes where the ops live, never what they are.
        touch(&mut fresh, pid, 0x4000_0000);
        assert_eq!(reused, touch(&mut fresh, pid, 0x4000_1000).stream);
        assert_eq!(os.stats(), fresh.stats());
    }

    #[test]
    fn second_fault_on_same_page_is_spurious() {
        let mut os = os_with_policy(AllocationPolicy::BuddyFourK);
        let pid = os.spawn_process();
        os.mmap_anonymous(pid, VirtAddr::new(0x4000_0000), MB, false)
            .unwrap();
        touch(&mut os, pid, 0x4000_0000);
        let again = touch(&mut os, pid, 0x4000_0100);
        assert_eq!(again.kind, FaultKind::Spurious);
        assert_eq!(os.stats().spurious_faults.get(), 1);
    }

    #[test]
    fn huge_page_fault_zeroes_more_bytes_than_base_fault() {
        let mut os = os_with_policy(AllocationPolicy::LinuxThp);
        let pid = os.spawn_process();
        os.mmap_anonymous(pid, VirtAddr::new(0x4000_0000), 64 * MB, false)
            .unwrap();
        let huge = touch(&mut os, pid, 0x4000_0000);

        let mut os2 = os_with_policy(AllocationPolicy::BuddyFourK);
        let pid2 = os2.spawn_process();
        os2.mmap_anonymous(pid2, VirtAddr::new(0x4000_0000), 64 * MB, false)
            .unwrap();
        let base = touch(&mut os2, pid2, 0x4000_0000);

        // The huge fault either consumed a pre-zeroed page from the pool
        // (zeroing skipped) or zeroed the full 2 MiB inline.
        assert!(huge.zeroed_bytes == 0 || huge.zeroed_bytes == PageSize::Size2M.bytes());
        assert_eq!(huge.mapping.page_size, PageSize::Size2M);
        assert_eq!(base.zeroed_bytes, 4096);
        if huge.zeroed_bytes == PageSize::Size2M.bytes() {
            assert!(huge.software_latency_ns > base.software_latency_ns);
        }
    }

    #[test]
    fn file_backed_fault_hits_the_page_cache_after_warming() {
        let mut os = MimicOs::new(OsConfig::small_test());
        let pid = os.spawn_process();
        os.mmap_file(pid, VirtAddr::new(0x1000_0000), 4 * MB, 3)
            .unwrap();
        let outcome = touch(&mut os, pid, 0x1000_0000);
        assert_eq!(outcome.kind, FaultKind::Minor);
        assert_eq!(outcome.device_latency_ns, 0.0);
    }

    #[test]
    fn cold_file_fault_is_major_and_pays_device_latency() {
        let config = OsConfig {
            populate_page_cache: false,
            ..OsConfig::small_test()
        };
        let mut os = MimicOs::new(config);
        let pid = os.spawn_process();
        os.mmap_file(pid, VirtAddr::new(0x1000_0000), 4 * MB, 3)
            .unwrap();
        let outcome = touch(&mut os, pid, 0x1000_0000);
        assert_eq!(outcome.kind, FaultKind::Major);
        assert!(outcome.device_latency_ns > 10_000.0);
        assert_eq!(os.stats().major_faults.get(), 1);
        // The second access to the same file page now hits the page cache.
        let second = touch(&mut os, pid, 0x1000_0000 + 64);
        assert_eq!(second.kind, FaultKind::Spurious);
    }

    #[test]
    fn hugetlb_vma_uses_reserved_pages() {
        let mut os = MimicOs::new(OsConfig::small_test());
        let pid = os.spawn_process();
        os.mmap_anonymous(pid, VirtAddr::new(0x8000_0000), 8 * MB, true)
            .unwrap();
        let outcome = touch(&mut os, pid, 0x8000_0000);
        assert_eq!(outcome.kind, FaultKind::Hugetlb);
        assert_eq!(outcome.mapping.page_size, PageSize::Size2M);
        assert_eq!(os.stats().hugetlb_faults.get(), 1);
    }

    #[test]
    fn reservation_thp_promotes_and_reports_additional_mapping() {
        let mut os = os_with_policy(AllocationPolicy::AggressiveReservationThp);
        let pid = os.spawn_process();
        os.mmap_anonymous(pid, VirtAddr::new(0x4000_0000), 16 * MB, false)
            .unwrap();
        let mut promoted = false;
        for i in 0..60u64 {
            let outcome = touch(&mut os, pid, 0x4000_0000 + i * 4096);
            if !outcome.additional_mappings.is_empty() {
                promoted = true;
                assert_eq!(outcome.additional_mappings[0].page_size, PageSize::Size2M);
            }
        }
        assert!(promoted, "aggressive reservation THP should promote");
        // After promotion the region resolves to the huge mapping.
        assert_eq!(
            os.process(pid)
                .lookup_mapping(VirtAddr::new(0x4000_0000 + 100 * 4096))
                .unwrap()
                .page_size,
            PageSize::Size2M
        );
    }

    #[test]
    fn eager_paging_populates_at_mmap_time() {
        let mut os = os_with_policy(AllocationPolicy::EagerPaging);
        let pid = os.spawn_process();
        os.mmap_anonymous(pid, VirtAddr::new(0x4000_0000), 32 * MB, false)
            .unwrap();
        assert!(!os.ranges(pid).is_empty());
        assert!(os.process(pid).resident_bytes() >= 32 * MB);
        // Faults are spurious because the memory is already mapped.
        let outcome = touch(&mut os, pid, 0x4000_0000 + 5 * MB);
        assert_eq!(outcome.kind, FaultKind::Spurious);
    }

    #[test]
    fn eager_ranges_are_contiguous_and_cover_the_vma() {
        let mut os = os_with_policy(AllocationPolicy::EagerPaging);
        let pid = os.spawn_process();
        os.mmap_anonymous(pid, VirtAddr::new(0x4000_0000), 16 * MB, false)
            .unwrap();
        let covered: u64 = os.ranges(pid).iter().map(|r| r.bytes).sum();
        assert_eq!(covered, 16 * MB);
    }

    #[test]
    fn utopia_policy_places_pages_in_the_restseg() {
        let policy = AllocationPolicy::Utopia(crate::utopia::UtopiaConfig::new(
            32 * MB,
            16,
            PageSize::Size4K,
        ));
        let mut os = os_with_policy(policy);
        let pid = os.spawn_process();
        os.mmap_anonymous(pid, VirtAddr::new(0x4000_0000), 16 * MB, false)
            .unwrap();
        let outcome = touch(&mut os, pid, 0x4000_0000);
        // RestSeg frames live above the FlexSeg (buddy) range.
        assert!(outcome.mapping.paddr.raw() >= os.buddy().capacity_bytes());
        assert!(os.utopia().unwrap().segments()[0].stats().placements.get() >= 1);
    }

    #[test]
    fn utopia_faults_are_faster_than_thp_huge_faults() {
        let policy = AllocationPolicy::Utopia(crate::utopia::UtopiaConfig::new(
            32 * MB,
            16,
            PageSize::Size4K,
        ));
        let mut ut = os_with_policy(policy);
        let mut thp = os_with_policy(AllocationPolicy::LinuxThp);
        let pid_u = ut.spawn_process();
        let pid_t = thp.spawn_process();
        ut.mmap_anonymous(pid_u, VirtAddr::new(0x4000_0000), 64 * MB, false)
            .unwrap();
        thp.mmap_anonymous(pid_t, VirtAddr::new(0x4000_0000), 64 * MB, false)
            .unwrap();
        // Compare tail latency over first-touch faults (the THP side touches
        // one address per 2 MiB region so every fault allocates a huge page).
        for i in 0..32u64 {
            touch(&mut ut, pid_u, 0x4000_0000 + i * 4096);
            touch(&mut thp, pid_t, 0x4000_0000 + i * 2 * MB);
        }
        let ut_p99 = ut.stats().minor_fault_latency_ns.quantile(0.99);
        let thp_p99 = thp.stats().minor_fault_latency_ns.quantile(0.99);
        assert!(
            ut_p99 < thp_p99,
            "utopia p99 {ut_p99} should beat THP p99 {thp_p99}"
        );
    }

    #[test]
    fn memory_pressure_triggers_swapping() {
        // 16 MB of memory, tiny swap threshold: filling it forces reclaim.
        let config = OsConfig {
            memory_bytes: 16 * MB,
            swap_bytes: 32 * MB,
            swap_threshold: 0.5,
            policy: AllocationPolicy::BuddyFourK,
            thp: ThpConfig::disabled(),
            fragmentation_target: None,
            populate_page_cache: false,
            ..OsConfig::small_test()
        };
        let mut os = MimicOs::new(config);
        let pid = os.spawn_process();
        os.mmap_anonymous(pid, VirtAddr::new(0x4000_0000), 64 * MB, false)
            .unwrap();
        for i in 0..3000u64 {
            touch(&mut os, pid, 0x4000_0000 + i * 4096);
        }
        assert!(os.stats().reclaimed_pages.get() > 0);
        assert!(os.swap().stats().swap_outs.get() > 0);
    }

    #[test]
    fn swapped_page_faults_back_in() {
        let config = OsConfig {
            memory_bytes: 16 * MB,
            swap_bytes: 32 * MB,
            swap_threshold: 0.5,
            policy: AllocationPolicy::BuddyFourK,
            thp: ThpConfig::disabled(),
            fragmentation_target: None,
            populate_page_cache: false,
            ..OsConfig::small_test()
        };
        let mut os = MimicOs::new(config);
        let pid = os.spawn_process();
        os.mmap_anonymous(pid, VirtAddr::new(0x4000_0000), 64 * MB, false)
            .unwrap();
        for i in 0..3000u64 {
            touch(&mut os, pid, 0x4000_0000 + i * 4096);
        }
        // Find a swapped page and touch it again.
        let swapped_va = (0..3000u64)
            .map(|i| VirtAddr::new(0x4000_0000 + i * 4096))
            .find(|&va| os.process(pid).is_swapped(va))
            .expect("some page must be swapped out");
        let outcome = os.handle_page_fault(pid, swapped_va, false).unwrap();
        assert_eq!(outcome.kind, FaultKind::SwapIn);
        assert!(os.stats().swap_in_faults.get() >= 1);
    }

    #[test]
    fn khugepaged_tick_collapses_after_base_faults() {
        let config = OsConfig {
            // THP mode never: faults allocate 4 KiB; khugepaged still runs.
            thp: ThpConfig {
                mode: ThpMode::Never,
                ..ThpConfig::linux_default()
            },
            policy: AllocationPolicy::LinuxThp,
            fragmentation_target: None,
            ..OsConfig::small_test()
        };
        let mut os = MimicOs::new(config);
        let pid = os.spawn_process();
        os.mmap_anonymous(pid, VirtAddr::new(0x4000_0000), 4 * MB, false)
            .unwrap();
        for i in 0..512u64 {
            touch(&mut os, pid, 0x4000_0000 + i * 4096);
        }
        let (stream, batch) = os.khugepaged_tick(pid);
        assert!(stream.instruction_count() > 0);
        assert!(os.khugepaged().collapses.get() >= 1);
        // The collapse reports the removed base translations as shootdown
        // victims and the huge page as their replacement.
        assert!(batch.victims.len() >= 512);
        assert!(batch
            .victims
            .iter()
            .all(|v| v.pid == pid && v.page_size == PageSize::Size4K));
        assert!(batch
            .replacements
            .iter()
            .any(|(p, m)| *p == pid && m.page_size == PageSize::Size2M));
        assert!(os.stats().shootdown_ipis.get() >= 1);
        assert_eq!(
            os.process(pid)
                .lookup_mapping(VirtAddr::new(0x4000_0000))
                .unwrap()
                .page_size,
            PageSize::Size2M
        );
    }

    #[test]
    fn fragmentation_limits_huge_page_allocations() {
        let config = OsConfig {
            fragmentation_target: Some(0.0),
            ..OsConfig::small_test()
        };
        let mut os = MimicOs::new(config);
        let pid = os.spawn_process();
        os.mmap_anonymous(pid, VirtAddr::new(0x4000_0000), 64 * MB, false)
            .unwrap();
        // With no free 2 MiB regions (beyond the pre-filled zeroed pool),
        // THP faults quickly degrade to 4 KiB pages.
        let mut base_pages = 0;
        for i in 0..32u64 {
            let outcome = touch(&mut os, pid, 0x4000_0000 + i * 2 * MB);
            if outcome.mapping.page_size == PageSize::Size4K {
                base_pages += 1;
            }
        }
        assert!(base_pages > 16, "only {base_pages} base-page faults");
    }

    #[test]
    fn stats_track_fault_counts_and_latency() {
        let mut os = os_with_policy(AllocationPolicy::BuddyFourK);
        let pid = os.spawn_process();
        os.mmap_anonymous(pid, VirtAddr::new(0x4000_0000), MB, false)
            .unwrap();
        for i in 0..16u64 {
            touch(&mut os, pid, 0x4000_0000 + i * 4096);
        }
        let stats = os.stats();
        assert_eq!(stats.minor_faults.get(), 16);
        assert_eq!(stats.total_faults(), 16);
        assert_eq!(stats.fault_latency_ns.count(), 16);
        assert!(stats.total_fault_ns > 0.0);
        assert!(stats.kernel_instructions > 16 * 300);
    }

    #[test]
    fn faults_are_split_by_access_kind() {
        let mut os = os_with_policy(AllocationPolicy::BuddyFourK);
        let pid = os.spawn_process();
        os.mmap_anonymous(pid, VirtAddr::new(0x4000_0000), MB, false)
            .unwrap();
        for i in 0..10u64 {
            os.handle_page_fault(pid, VirtAddr::new(0x4000_0000 + i * 4096), i < 3)
                .unwrap();
        }
        assert_eq!(os.stats().write_faults.get(), 3);
        assert_eq!(os.stats().read_faults.get(), 7);
        assert_eq!(os.process(pid).write_faults, 3);
        assert_eq!(os.process(pid).read_faults, 7);
    }

    #[test]
    fn reclaim_reports_shootdown_victims_and_charges_the_ipi() {
        let config = OsConfig {
            memory_bytes: 16 * MB,
            swap_bytes: 32 * MB,
            swap_threshold: 0.5,
            policy: AllocationPolicy::BuddyFourK,
            thp: ThpConfig::disabled(),
            fragmentation_target: None,
            populate_page_cache: false,
            ..OsConfig::small_test()
        };
        let mut os = MimicOs::new(config);
        let pid = os.spawn_process();
        os.mmap_anonymous(pid, VirtAddr::new(0x4000_0000), 64 * MB, false)
            .unwrap();
        let mut batched_victims = 0usize;
        for i in 0..3000u64 {
            let outcome = touch(&mut os, pid, 0x4000_0000 + i * 4096);
            for victim in &outcome.invalidations.victims {
                assert_eq!(victim.pid, pid);
                assert!(os.process(pid).is_swapped(victim.vaddr));
                batched_victims += 1;
            }
        }
        assert!(batched_victims > 0, "pressure must produce victims");
        assert_eq!(batched_victims as u64, os.stats().reclaimed_pages.get());
        assert!(os.stats().shootdown_ipis.get() > 0);
    }

    #[test]
    fn multiprogram_reclaim_spreads_victims_round_robin() {
        let config = OsConfig {
            memory_bytes: 16 * MB,
            swap_bytes: 64 * MB,
            swap_threshold: 0.5,
            policy: AllocationPolicy::BuddyFourK,
            thp: ThpConfig::disabled(),
            fragmentation_target: None,
            populate_page_cache: false,
            ..OsConfig::small_test()
        };
        let mut os = MimicOs::new(config);
        let a = os.spawn_process();
        let b = os.spawn_process();
        for pid in [a, b] {
            os.mmap_anonymous(pid, VirtAddr::new(0x4000_0000), 32 * MB, false)
                .unwrap();
        }
        // Both processes establish a small resident set, then process A
        // alone drives the memory pressure.
        for i in 0..500u64 {
            touch(&mut os, a, 0x4000_0000 + i * 4096);
            touch(&mut os, b, 0x4000_0000 + i * 4096);
        }
        for i in 500..4000u64 {
            touch(&mut os, a, 0x4000_0000 + i * 4096);
        }
        let swapped_a = os.process(a).swapped_page_count();
        let swapped_b = os.process(b).swapped_page_count();
        assert!(
            swapped_a > 0 && swapped_b > 0,
            "round-robin reclaim must hit both processes (a: {swapped_a}, b: {swapped_b})"
        );
    }

    #[test]
    fn demotion_splits_huge_pages_and_reports_replacements() {
        // All-huge resident set under pressure: reclaim must demote.
        let config = OsConfig {
            memory_bytes: 32 * MB,
            swap_bytes: 64 * MB,
            swap_threshold: 0.5,
            policy: AllocationPolicy::LinuxThp,
            fragmentation_target: None,
            populate_page_cache: false,
            ..OsConfig::small_test()
        };
        let mut os = MimicOs::new(config);
        let pid = os.spawn_process();
        os.mmap_anonymous(pid, VirtAddr::new(0x4000_0000), 128 * MB, false)
            .unwrap();
        let mut saw_demotion_batch = false;
        for i in 0..48u64 {
            let outcome = touch(&mut os, pid, 0x4000_0000 + i * 2 * MB);
            let huge_victims = outcome
                .invalidations
                .victims
                .iter()
                .filter(|v| v.page_size == PageSize::Size2M)
                .count();
            if huge_victims > 0 {
                saw_demotion_batch = true;
                assert!(
                    !outcome.invalidations.replacements.is_empty(),
                    "a demoted region keeps resident 4 KiB pieces"
                );
                for (rpid, piece) in &outcome.invalidations.replacements {
                    assert_eq!(*rpid, pid);
                    assert_eq!(piece.page_size, PageSize::Size4K);
                    // Every replacement is still resident and translates
                    // exactly as the process table says.
                    assert_eq!(
                        os.process(pid).lookup_mapping(piece.vaddr).map(|m| m.paddr),
                        Some(piece.paddr)
                    );
                }
            }
        }
        assert!(saw_demotion_batch, "pressure on huge pages must demote");
        assert!(os.stats().thp_demotions.get() > 0);
        assert!(os.swap().stats().swap_outs.get() > 0);
    }

    #[test]
    fn gigantic_mappings_demote_under_pressure() {
        // A 1 GiB mapping must not be exempt from reclaim: when gigantic
        // pages are the only resident memory left, pressure demotes them
        // (1 GiB -> 512 x 2 MiB, then one piece on to 4 KiB) instead of
        // failing the fault with the gigabyte still pinned.
        let config = OsConfig {
            memory_bytes: 1040 * MB,
            swap_bytes: 64 * MB,
            swap_threshold: 0.5,
            policy: AllocationPolicy::BuddyFourK,
            thp: ThpConfig::disabled(),
            fragmentation_target: None,
            populate_page_cache: false,
            ..OsConfig::small_test()
        };
        let mut os = MimicOs::new(config);
        let pid = os.spawn_process();
        let gig = Vma {
            kind: VmaKind::Dax,
            gigantic_ok: true,
            ..Vma::anonymous(VirtAddr::new(0x40_0000_0000), 1024 * MB)
        };
        os.process_mut(pid).vmas.insert(gig).unwrap();
        let first = touch(&mut os, pid, 0x40_0000_0000);
        assert_eq!(first.mapping.page_size, PageSize::Size1G);

        // With the gigabyte resident, almost nothing is free; the next
        // fault anywhere else must reclaim, and the only reclaimable
        // memory is the gigantic page.
        os.mmap_anonymous(pid, VirtAddr::new(0x9000_0000), 4 * MB, false)
            .unwrap();
        let outcome = touch(&mut os, pid, 0x9000_0000);
        assert!(
            outcome
                .invalidations
                .victims
                .iter()
                .any(|v| v.page_size == PageSize::Size1G),
            "the gigantic translation must be shot down on demotion"
        );
        assert!(
            outcome
                .invalidations
                .replacements
                .iter()
                .any(|(rpid, m)| *rpid == pid && m.page_size == PageSize::Size2M),
            "surviving 2 MiB pieces stay resident as replacements"
        );
        // Two split levels: PUD -> PMDs, then one PMD -> PTEs.
        assert!(os.stats().thp_demotions.get() >= 2);
        assert!(os.swap().stats().swap_outs.get() > 0);
        // The demoted region still translates piece-by-piece where not
        // swapped: a 2 MiB piece covers addresses past the split head.
        let tail = os
            .process(pid)
            .lookup_mapping(VirtAddr::new(0x40_0000_0000 + 512 * MB))
            .expect("demoted pieces stay resident");
        assert_eq!(tail.page_size, PageSize::Size2M);
    }

    #[test]
    fn reclaim_trims_eager_ranges_around_victims() {
        let config = OsConfig {
            memory_bytes: 16 * MB,
            swap_bytes: 64 * MB,
            swap_threshold: 0.5,
            policy: AllocationPolicy::EagerPaging,
            thp: ThpConfig::disabled(),
            fragmentation_target: None,
            populate_page_cache: false,
            ..OsConfig::small_test()
        };
        let mut os = MimicOs::new(config);
        let pid = os.spawn_process();
        os.mmap_anonymous(pid, VirtAddr::new(0x4000_0000), 8 * MB, false)
            .unwrap();
        assert!(!os.ranges(pid).is_empty());
        // Drive pressure until eager pages of this process get reclaimed.
        os.mmap_anonymous(pid, VirtAddr::new(0x8000_0000), 32 * MB, false)
            .unwrap();
        for i in 0..3000u64 {
            touch(&mut os, pid, 0x8000_0000 + i * 4096);
        }
        let swapped: Vec<VirtAddr> = (0..2048u64)
            .map(|i| VirtAddr::new(0x4000_0000 + i * 4096))
            .filter(|&va| os.process(pid).is_swapped(va))
            .collect();
        assert!(!swapped.is_empty(), "eager pages must be reclaimable");
        // No surviving range may still cover a swapped-out page.
        for va in swapped {
            assert!(
                !os.ranges(pid).iter().any(|r| r.covers(va)),
                "range still covers swapped-out {va}"
            );
        }
    }

    #[test]
    fn range_split_around_produces_exact_remainders() {
        let range = RangeMapping {
            virt_start: VirtAddr::new(0x1000_0000),
            phys_start: PhysAddr::new(0x8000_0000),
            bytes: 16 * 4096,
        };
        // Middle page: two remainders, phys offsets preserved.
        let (l, r) = range.split_around(VirtAddr::new(0x1000_4000), 4096);
        let l = l.unwrap();
        let r = r.unwrap();
        assert_eq!(l.virt_start.raw(), 0x1000_0000);
        assert_eq!(l.bytes, 4 * 4096);
        assert_eq!(r.virt_start.raw(), 0x1000_5000);
        assert_eq!(r.phys_start.raw(), 0x8000_5000);
        assert_eq!(r.bytes, 11 * 4096);
        // First page: only a right remainder; last page: only a left one.
        let (l, r) = range.split_around(VirtAddr::new(0x1000_0000), 4096);
        assert!(l.is_none());
        assert_eq!(r.unwrap().bytes, 15 * 4096);
        let (l, r) = range.split_around(VirtAddr::new(0x1000_F000), 4096);
        assert_eq!(l.unwrap().bytes, 15 * 4096);
        assert!(r.is_none());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bad_mem = OsConfig {
            memory_bytes: 1000,
            ..OsConfig::small_test()
        };
        assert!(MimicOs::try_new(bad_mem).is_err());
        let bad_threshold = OsConfig {
            swap_threshold: 1.5,
            ..OsConfig::small_test()
        };
        assert!(MimicOs::try_new(bad_threshold).is_err());
        let bad_utopia = OsConfig {
            policy: AllocationPolicy::Utopia(crate::utopia::UtopiaConfig::new(
                1 << 40,
                16,
                PageSize::Size4K,
            )),
            ..OsConfig::small_test()
        };
        assert!(MimicOs::try_new(bad_utopia).is_err());
        let unaligned_restseg = OsConfig {
            policy: AllocationPolicy::Utopia(crate::utopia::UtopiaConfig::new(
                93_952_409, // 70 % of 128 MiB — not a whole frame count
                16,
                PageSize::Size4K,
            )),
            ..OsConfig::small_test()
        };
        assert!(MimicOs::try_new(unaligned_restseg).is_err());
        // Beyond 32-bit frame numbers only an unfragmented machine boots.
        let huge = OsConfig {
            memory_bytes: 32 << 40,
            ..OsConfig::paper_baseline()
        };
        assert!(huge.validate().is_err());
        let unfragmented = OsConfig {
            fragmentation_target: None,
            ..huge
        };
        assert!(unfragmented.validate().is_ok());
    }

    /// One case per RestSeg geometry rule: each would crash or overrun
    /// at boot (or misalign the segment's slots) if it got past
    /// validation.
    #[test]
    fn invalid_restseg_geometries_are_rejected() {
        let with_restseg = |size_bytes, ways, page_size| OsConfig {
            policy: AllocationPolicy::Utopia(crate::utopia::UtopiaConfig::new(
                size_bytes, ways, page_size,
            )),
            ..OsConfig::small_test()
        };
        let rejected = |config: OsConfig| {
            matches!(MimicOs::try_new(config), Err(VmError::InvalidConfig { .. }))
        };
        // No ways: `sets()` would divide by zero.
        assert!(rejected(with_restseg(32 * MB, 0, PageSize::Size4K)));
        // Smaller than one 16-way set of 4 KiB pages (64 KiB).
        assert!(rejected(with_restseg(32 * 1024, 16, PageSize::Size4K)));
        // 4 KiB-aligned but not a whole number of its 2 MiB pages.
        assert!(rejected(with_restseg(32 * MB + 4096, 4, PageSize::Size2M)));
        // A whole number of 2 MiB pages, but based off the 2 MiB grid: the
        // top of a 256 MiB + 4 KiB machine.
        assert!(rejected(OsConfig {
            memory_bytes: 256 * MB + 4096,
            ..with_restseg(32 * MB, 4, PageSize::Size2M)
        }));
        // The boundary cases stay valid.
        assert!(!rejected(with_restseg(16 * 4096, 16, PageSize::Size4K)));
        assert!(!rejected(with_restseg(32 * MB, 4, PageSize::Size2M)));
    }

    #[test]
    fn overlapping_mmap_is_rejected() {
        let mut os = MimicOs::new(OsConfig::small_test());
        let pid = os.spawn_process();
        os.mmap_anonymous(pid, VirtAddr::new(0x4000_0000), MB, false)
            .unwrap();
        assert!(os
            .mmap_anonymous(pid, VirtAddr::new(0x4000_0000), MB, false)
            .is_err());
    }

    #[test]
    fn multiple_processes_have_independent_address_spaces() {
        let mut os = os_with_policy(AllocationPolicy::BuddyFourK);
        let a = os.spawn_process();
        let b = os.spawn_process();
        os.mmap_anonymous(a, VirtAddr::new(0x4000_0000), MB, false)
            .unwrap();
        os.mmap_anonymous(b, VirtAddr::new(0x4000_0000), MB, false)
            .unwrap();
        let out_a = touch(&mut os, a, 0x4000_0000);
        let out_b = touch(&mut os, b, 0x4000_0000);
        assert_ne!(out_a.mapping.paddr, out_b.mapping.paddr);
        assert!(os.process(b).is_mapped(VirtAddr::new(0x4000_0000)));
    }

    /// 4 MiB of memory, no swap: reclaim can free nothing, so sustained
    /// allocation escalates straight to the OOM killer.
    fn pressure_os() -> MimicOs {
        let config = OsConfig {
            memory_bytes: 4 * MB,
            swap_bytes: 0,
            policy: AllocationPolicy::BuddyFourK,
            thp: ThpConfig::disabled(),
            fragmentation_target: None,
            populate_page_cache: false,
            ..OsConfig::small_test()
        };
        MimicOs::new(config)
    }

    #[test]
    fn oom_kill_sacrifices_the_biggest_process_and_the_fault_succeeds() {
        let mut os = pressure_os();
        let hog = os.spawn_process();
        let light = os.spawn_process();
        os.mmap_anonymous(hog, VirtAddr::new(0x4000_0000), 3 * MB, false)
            .unwrap();
        os.mmap_anonymous(light, VirtAddr::new(0x4000_0000), 2 * MB, false)
            .unwrap();
        for i in 0..640u64 {
            touch(&mut os, hog, 0x4000_0000 + i * 4096);
        }
        // The light process now cannot fit without a kill; every one of its
        // faults must nevertheless succeed.
        let mut hog_victims = 0;
        for i in 0..512u64 {
            let outcome = touch(&mut os, light, 0x4000_0000 + i * 4096);
            hog_victims += outcome
                .invalidations
                .victims
                .iter()
                .filter(|v| v.pid == hog)
                .count();
        }
        assert_eq!(os.stats().oom_kills.get(), 1);
        assert!(os.stats().oom_reclaim_retries.get() > 0);
        assert_eq!(os.process(hog).exit_reason(), Some(ExitReason::OomKilled));
        assert_eq!(os.process(hog).resident_bytes(), 0);
        assert!(!os.process(light).is_exited());
        // Every translation of the victim rode the shootdown batch.
        assert_eq!(hog_victims, 640);
        let kills = os.take_oom_kills();
        assert_eq!(kills.len(), 1);
        assert_eq!(kills[0].victim, hog);
        assert_eq!(kills[0].freed_bytes, 640 * 4096);
        assert_eq!(kills[0].badness, 640 * 4096);
        assert!(kills[0].stream.instruction_count() > 0);
        assert!(os.take_oom_kills().is_empty(), "the log drains");
    }

    #[test]
    fn the_faulting_process_is_never_the_oom_victim() {
        let mut os = pressure_os();
        let pid = os.spawn_process();
        os.mmap_anonymous(pid, VirtAddr::new(0x4000_0000), 8 * MB, false)
            .unwrap();
        let mut oom = false;
        for i in 0..2048u64 {
            match os.handle_page_fault(pid, VirtAddr::new(0x4000_0000 + i * 4096), true) {
                Ok(_) => {}
                Err(VmError::OutOfMemory { .. }) => {
                    oom = true;
                    break;
                }
                Err(other) => panic!("unexpected error {other:?}"),
            }
        }
        assert!(oom, "4 MiB cannot hold 8 MiB without swap");
        assert!(!os.process(pid).is_exited());
        assert_eq!(os.stats().oom_kills.get(), 0);
    }

    #[test]
    fn oom_killed_pids_are_recycled_with_a_clean_address_space() {
        let mut os = pressure_os();
        let hog = os.spawn_process();
        let light = os.spawn_process();
        os.mmap_anonymous(hog, VirtAddr::new(0x4000_0000), 3 * MB, false)
            .unwrap();
        os.mmap_anonymous(light, VirtAddr::new(0x4000_0000), 2 * MB, false)
            .unwrap();
        for i in 0..640u64 {
            touch(&mut os, hog, 0x4000_0000 + i * 4096);
        }
        for i in 0..512u64 {
            touch(&mut os, light, 0x4000_0000 + i * 4096);
        }
        assert_eq!(os.stats().oom_kills.get(), 1);
        // The victim's pid slot is reborn as a fresh process that can map
        // and fault immediately.
        let reborn = os.spawn_process();
        assert_eq!(reborn, hog);
        assert!(!os.process(reborn).is_exited());
        assert_eq!(os.process(reborn).resident_bytes(), 0);
        os.mmap_anonymous(reborn, VirtAddr::new(0x7000_0000), MB, false)
            .unwrap();
        let outcome = touch(&mut os, reborn, 0x7000_0000);
        assert_eq!(outcome.mapping.page_size, PageSize::Size4K);
    }

    #[test]
    fn hugetlb_pages_are_unreclaimable_until_their_owner_is_killed() {
        let mut os = MimicOs::new(OsConfig::small_test());
        let a = os.spawn_process();
        os.mmap_anonymous(a, VirtAddr::new(0x8000_0000), 8 * MB, true)
            .unwrap();
        for i in 0..4u64 {
            touch(&mut os, a, 0x8000_0000 + i * 2 * MB);
        }
        assert_eq!(os.stats().unreclaimable_bytes, 8 * MB);
        // Demotion skips pinned hugetlbfs mappings even though they are the
        // only huge mappings resident.
        let mut stream = KernelInstructionStream::new(KernelRoutine::Reclaim);
        let mut batch = InvalidationBatch::default();
        assert!(os.demote_one_huge(&mut stream, &mut batch).is_none());
        assert!(batch.victims.is_empty());
        // An OOM kill is the one path that unpins them, returning the
        // frames to the hugetlb pool.
        let mut kill_stream = KernelInstructionStream::new(KernelRoutine::OomKill);
        let freed = os.kill_process(a, &mut kill_stream, &mut batch);
        assert_eq!(freed, 8 * MB);
        assert_eq!(os.stats().unreclaimable_bytes, 0);
        assert_eq!(batch.victims.len(), 4);
        // The recycled pool serves the next hugetlbfs tenant.
        let b = os.spawn_process();
        os.mmap_anonymous(b, VirtAddr::new(0x8000_0000), 8 * MB, true)
            .unwrap();
        let outcome = touch(&mut os, b, 0x8000_0000);
        assert_eq!(outcome.kind, FaultKind::Hugetlb);
        assert_eq!(os.stats().unreclaimable_bytes, 2 * MB);
    }

    #[test]
    fn injected_alloc_shortfalls_hit_the_reclaim_retry_path() {
        let config = OsConfig {
            policy: AllocationPolicy::BuddyFourK,
            thp: ThpConfig::disabled(),
            fault_injection: FaultInjectionConfig {
                scripted_alloc_shortfalls: vec![0],
                ..FaultInjectionConfig::default()
            },
            ..OsConfig::small_test()
        };
        let mut os = MimicOs::new(config);
        let pid = os.spawn_process();
        os.mmap_anonymous(pid, VirtAddr::new(0x4000_0000), MB, false)
            .unwrap();
        touch(&mut os, pid, 0x4000_0000);
        assert_eq!(os.stats().injected_alloc_shortfalls.get(), 1);
        assert_eq!(os.stats().oom_reclaim_retries.get(), 1);
        // Memory is plentiful: the retry allocates and nobody dies.
        assert_eq!(os.stats().oom_kills.get(), 0);
    }

    #[test]
    fn injected_runs_are_bit_reproducible() {
        let config = OsConfig {
            memory_bytes: 8 * MB,
            swap_bytes: 32 * MB,
            policy: AllocationPolicy::BuddyFourK,
            thp: ThpConfig::disabled(),
            fragmentation_target: None,
            populate_page_cache: false,
            fault_injection: FaultInjectionConfig {
                alloc_shortfall_rate: 0.05,
                swap_io_error_rate: 0.3,
                swap_latency_spike_rate: 0.3,
                swap_latency_spike_ns: 50_000.0,
                ..FaultInjectionConfig::default()
            },
            ..OsConfig::small_test()
        };
        let run = |cfg: OsConfig| {
            let mut os = MimicOs::new(cfg);
            let pid = os.spawn_process();
            os.mmap_anonymous(pid, VirtAddr::new(0x4000_0000), 16 * MB, false)
                .unwrap();
            let mut total_ns = 0.0;
            for i in 0..3000u64 {
                let va = VirtAddr::new(0x4000_0000 + (i % 4096) * 4096);
                let outcome = os.handle_page_fault(pid, va, true).unwrap();
                total_ns += outcome.software_latency_ns + outcome.device_latency_ns;
            }
            (os.stats().clone(), total_ns)
        };
        let first = run(config.clone());
        let second = run(config);
        assert_eq!(first.0, second.0);
        assert_eq!(first.1.to_bits(), second.1.to_bits());
        assert!(first.0.injected_alloc_shortfalls.get() > 0);
        assert!(first.0.injected_swap_io_errors.get() > 0);
        assert!(first.0.injected_swap_latency_spikes.get() > 0);
    }

    /// Regions of the fault-series differential test's process.
    const SERIES_ANON: u64 = 0x4000_0000;
    const SERIES_FILE: u64 = 0x1000_0000;
    const SERIES_HUGETLB: u64 = 0x8000_0000;

    /// Drives `ops` through a fresh kernel and, after every op, holds its
    /// two latency recorders, every fault and minor faults (hugetlbfs ones
    /// included), to recorders fed from the returned outcomes. Returns the
    /// faults taken by kind: minor, major, swap-in, hugetlb, spurious.
    /// The machine has 16 MiB of memory under a 32 MiB anonymous region
    /// (sweeps fill memory, so revisits swap back in), a cold 4 MiB file
    /// (major faults, then spurious ones) and 4 MiB of hugetlbfs. An op is
    /// one anonymous page (8 in 16), a 256-page anonymous sweep (2), a file
    /// page (3) or a hugetlbfs page (3); bit 4 makes it a write.
    fn fault_series_against_two_recorders(thp: bool, ops: &[u64]) -> [u64; 5] {
        let config = OsConfig {
            memory_bytes: 16 * MB,
            swap_bytes: 64 * MB,
            swap_threshold: 0.5,
            policy: if thp {
                AllocationPolicy::LinuxThp
            } else {
                AllocationPolicy::BuddyFourK
            },
            thp: if thp {
                ThpConfig::linux_default()
            } else {
                ThpConfig::disabled()
            },
            fragmentation_target: None,
            populate_page_cache: false,
            ..OsConfig::small_test()
        };
        let mut os = MimicOs::new(config);
        let pid = os.spawn_process();
        os.mmap_anonymous(pid, VirtAddr::new(SERIES_ANON), 32 * MB, false)
            .unwrap();
        os.mmap_file(pid, VirtAddr::new(SERIES_FILE), 4 * MB, 3)
            .unwrap();
        os.mmap_anonymous(pid, VirtAddr::new(SERIES_HUGETLB), 4 * MB, true)
            .unwrap();
        let (mut all, mut minor) = (LatencyStats::new(), LatencyStats::new());
        let mut kinds = [0; 5];
        for (step, &word) in ops.iter().enumerate() {
            let page = (word >> 8) % (32 * MB / 4096);
            let sweep = page.min(32 * MB / 4096 - 256);
            let (base, pages) = match word % 16 {
                0..=7 => (SERIES_ANON, page..page + 1),
                8 | 9 => (SERIES_ANON, sweep..sweep + 256),
                10..=12 => (SERIES_FILE, page % 1024..page % 1024 + 1),
                _ => (SERIES_HUGETLB, page % 1024..page % 1024 + 1),
            };
            for page in pages {
                let va = VirtAddr::new(base + page * 4096);
                let Ok(outcome) = os.handle_page_fault(pid, va, word >> 4 & 1 == 1) else {
                    continue;
                };
                let total_ns = outcome.software_latency_ns + outcome.device_latency_ns;
                all.record(total_ns);
                let kind = match outcome.kind {
                    FaultKind::Minor => 0,
                    FaultKind::Major => 1,
                    FaultKind::SwapIn => 2,
                    FaultKind::Hugetlb => 3,
                    FaultKind::Spurious => 4,
                };
                kinds[kind] += 1;
                if matches!(outcome.kind, FaultKind::Minor | FaultKind::Hugetlb) {
                    minor.record(total_ns);
                }
            }
            let stats = os.stats();
            assert_eq!(
                stats.fault_latency_ns, all,
                "every fault after op {step} ({word:#x})"
            );
            assert_eq!(
                stats.minor_fault_latency_ns, minor,
                "minor faults after op {step} ({word:#x})"
            );
        }
        kinds
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// Differential test of `OsStats`' two latency recorders against
        /// recorders fed from the returned outcomes. See
        /// [`fault_series_against_two_recorders`];
        /// `the_fault_series_differential_reaches_every_kind` shows the ops
        /// reach every fault kind.
        ///
        /// Seeded mutations, each shown to fail this test and the fixed
        /// companion and then reverted (the two messages):
        ///
        /// | mutation | assertions that fired |
        /// |---|---|
        /// | `record_fault_latency` told only `FaultKind::Minor` is minor, so hugetlbfs faults skip the minor recorder | "minor faults after op 14", "… op 3" |
        #[test]
        fn os_latency_recorders_match_the_outcomes(
            thp in 0..2usize,
            ops in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..160),
        ) {
            fault_series_against_two_recorders(thp == 1, &ops);
        }
    }

    #[test]
    fn the_fault_series_differential_reaches_every_kind() {
        let mut rng = DetRng::new(29);
        let mut kinds = [0; 5];
        for thp in [false, true] {
            let ops: Vec<u64> = (0..200).map(|_| rng.next_u64()).collect();
            let run = fault_series_against_two_recorders(thp, &ops);
            for (total, n) in kinds.iter_mut().zip(run) {
                *total += n;
            }
        }
        eprintln!("{kinds:?}");
        assert!(
            kinds.iter().all(|&n| n > 0),
            "faults by kind (minor, major, swap-in, hugetlb, spurious): {kinds:?}"
        );
    }
}
