//! The assembled simulated system: core + caches + DRAM + MMU + MimicOS.
//! Page faults call [`MimicOs::handle_page_fault`] directly, and the kernel
//! instruction stream of each outcome is injected into the core model.
//!
//! The system runs one process ([`System::run`]) or several
//! ([`System::run_multiprogram`]): the MimicOS scheduler time-slices the
//! core between the processes' trace sources, every address-space operation
//! is tagged with the process's ASID, and context switches apply the
//! configured TLB policy (ASID-tagged survival vs full flush).

use crate::config::{SimulationMode, SystemConfig};
use crate::epoch::{
    Attempt, Done, EpochStats, FaultedAccess, Feed, FetchQueue, Frontend, SliceJob, SliceLog,
    Workers, LOG_CHUNK,
};
use crate::report::{
    CoreIpiStats, MultiProgramReport, OomStats, ProcessExitStatus, ProcessReport, ShootdownStats,
    SimulationReport,
};
use cache_sim::CacheHierarchy;
use dram_sim::DramModel;
use mimic_os::sched::ContextSwitch;
use mimic_os::{
    InvalidationBatch, KernelInstructionStream, KernelOp, Mapping, MimicOs, PageFaultOutcome,
    ProcessId,
};
use mmu_sim::{InstallInfo, Mmu, TranslationEngine, WalkAccessList};
use sim_core::{CoreModel, Instruction, TraceSource};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use vm_types::{
    AccessType, Asid, Cycles, FxHashMap, PageSize, PhysAddr, Requestor, VirtAddr, VmError, VmResult,
};

/// Per-process performance accounting kept by the framework (the OS keeps
/// the functional per-process state; this is the architectural side).
#[derive(Debug, Clone, Copy, Default)]
struct ProcPerf {
    instructions: u64,
    cycles: u64,
    translation_cycles: u64,
    ptw_latency_cycles: u64,
    ptw_count: u64,
    segfaults: u64,
    oom_failures: u64,
}

/// The architectural state of one simulated core that never leaves the run
/// loop's thread: its timing model and accounting. Its private translation
/// frontend (TLBs, PWCs, engine state) is the [`Frontend`] at the same
/// index of `System::frontends`; the caches, DRAM and MimicOS stay
/// machine-wide.
#[derive(Debug)]
struct CoreState {
    core: CoreModel,
    /// The process currently holding this core.
    current: ProcessId,
    /// Cached index of `current` into `per_proc`, refreshed on context
    /// switch so the steady-state loop does a single bounds-checked index.
    current_slot: usize,
    /// Cycles spent on address translation beyond the first-level TLB.
    translation_cycles: u64,
    /// Accumulated page-walk latency (cycles) and walk count.
    ptw_latency_cycles: u64,
    ptw_count: u64,
    instructions_since_housekeeping: u64,
}

/// Per-core plan of one epoch, reused across epochs so the steady-state
/// loop allocates nothing.
#[derive(Debug)]
struct EpochSlice {
    /// Instructions this core's slice may run this epoch, sized by the
    /// plan before anything is fetched; zero when the core sits the epoch
    /// out (the other fields are then stale).
    cap: u64,
    pid: ProcessId,
    /// Index into `programs` / the feeds.
    prog: usize,
    /// Instructions actually fetched for the slice: `cap`, or fewer if the
    /// trace ran dry.
    planned: u64,
    /// The core's cycle count when the slice was planned (after its
    /// dispatch context switch), for per-process cycle attribution.
    cycles_before: u64,
    /// The trace source ran dry while filling the slice.
    exhausted: bool,
    /// The slice's local phase is out on a worker: the core's frontend,
    /// the program's feed and `pool` travel with it.
    in_flight: bool,
    /// Empty chunk logs to hand the next job, allocated on this thread.
    pool: Vec<SliceLog>,
    /// Chunk logs replayed while `pool` is out with the job.
    spent: Vec<SliceLog>,
    /// Chunk logs back from the worker, not yet replayed, in slice order;
    /// the job's own log, the slice's last chunk, joins them at the back.
    pending: VecDeque<SliceLog>,
}

impl EpochSlice {
    /// The most chunks one slice can have: a slice runs at most
    /// `CORE_TICK * EPOCH_TICKS` instructions, a whole number of chunks.
    const MAX_CHUNKS: usize = {
        let slice = (System::CORE_TICK * System::EPOCH_TICKS) as usize;
        assert!(slice.is_multiple_of(LOG_CHUNK));
        slice / LOG_CHUNK
    };
}

impl Default for EpochSlice {
    fn default() -> Self {
        EpochSlice {
            cap: 0,
            pid: ProcessId(0),
            prog: 0,
            planned: 0,
            cycles_before: 0,
            exhausted: false,
            in_flight: false,
            pool: Vec::with_capacity(Self::MAX_CHUNKS),
            spent: Vec::with_capacity(Self::MAX_CHUNKS),
            pending: VecDeque::with_capacity(Self::MAX_CHUNKS),
        }
    }
}

/// A program's trace source behind the queue of instructions an epoch
/// fetched from it but did not run (a fault truncated the slice): those
/// replay before fresh ones, so slicing never reorders or drops trace
/// instructions.
struct ReplayFront<'a> {
    fetched: &'a mut FetchQueue,
    inner: &'a mut dyn TraceSource,
}

impl TraceSource for ReplayFront<'_> {
    fn next_instruction(&mut self) -> Option<Instruction> {
        self.fetched
            .pop_front()
            .or_else(|| self.inner.next_instruction())
    }
}

/// Instructions already in hand — a planned epoch slice, or the single
/// instruction of [`System::step`] — as a trace source, so they run through
/// the same loop as a live frontend without being copied or boxed.
struct Fetched<'a>(std::slice::Iter<'a, Instruction>);

impl TraceSource for Fetched<'_> {
    fn next_instruction(&mut self) -> Option<Instruction> {
        self.0.next().copied()
    }
}

/// The steady-state access pipeline: the active core, the accounting slot
/// of the process holding it and the shared memory hierarchy, borrowed
/// field by field out of [`System`] once per run of non-faulting
/// instructions (`System::datapath`) so the instruction loop re-derives
/// none of them. Everything that needs the whole machine — a page fault,
/// housekeeping, the coherence fence — happens between two such borrows.
/// The core's [`Frontend`] is not part of it: only
/// [`Datapath::run_until_fault`] translates, and the epoch barrier replays
/// a core's chunks while that core's frontend is still out on a worker.
struct Datapath<'a> {
    core: &'a mut CoreState,
    perf: &'a mut ProcPerf,
    caches: &'a mut CacheHierarchy,
    dram: &'a mut DramModel,
    mode: SimulationMode,
}

impl Datapath<'_> {
    /// Runs instructions from `source` until `n` have retired, the trace
    /// ends or a translation faults, translating on `front`. Returns how many retired and, on a
    /// fault, the faulting access's core-local half: the caller completes
    /// it with [`System::finish_faulted_access`] (the kernel is not
    /// reachable from here) and counts it as retired.
    fn run_until_fault<T: TraceSource + ?Sized>(
        &mut self,
        front: &mut Frontend,
        source: &mut T,
        n: u64,
    ) -> (u64, Option<FaultedAccess>) {
        let asid = System::asid_of(self.core.current);
        let mut ran = 0u64;
        while ran < n {
            let Some(instr) = source.next_instruction() else {
                break;
            };
            match instr.memory {
                None => self.core.core.retire_compute(1),
                Some((vaddr, kind)) => {
                    let translation = front.local_translate(asid, vaddr);
                    if translation.paddr.is_none() {
                        let entry = FaultedAccess {
                            pc: instr.pc,
                            vaddr,
                            kind,
                            translation,
                        };
                        return (ran, Some(entry));
                    }
                    self.complete_access(instr.pc, kind, translation.attempt(), Cycles::ZERO);
                }
            }
            ran += 1;
        }
        (ran, None)
    }

    /// The shared-state half of one memory access, and the only place it
    /// is spelled out: charge the translation, send the data access through
    /// caches and DRAM, retire. The inline loop, the epoch barrier's replay
    /// and the retry after a page fault all end here, so every schedule
    /// charges identical cycles in identical order. `carried` is latency a
    /// faulted first attempt already exposed; an access still unmapped
    /// after its fault was serviced is skipped.
    fn complete_access(
        &mut self,
        pc: VirtAddr,
        kind: AccessType,
        attempt: Attempt<'_>,
        carried: Cycles,
    ) {
        let latency = carried + self.charge_translation(attempt);
        match attempt.paddr {
            Some(paddr) => {
                let data_latency = self.data_access(pc, paddr, kind);
                self.core.core.retire_memory(latency + data_latency);
            }
            None => self.core.core.retire_compute(1),
        }
    }

    /// Charges one translation attempt — its page walk replayed through the
    /// memory hierarchy on top of the fixed TLB/PWC probe latency — credits
    /// the cost to the core and the process holding it (one dense-array
    /// slot per memory access; compute instructions never touch these
    /// fields) and returns the latency the attempt exposes.
    fn charge_translation(&mut self, attempt: Attempt<'_>) -> Cycles {
        let mut latency = attempt.fixed_latency;
        // Cycles beyond the 1-cycle L1 TLB probe are translation overhead.
        let mut cycles = attempt.fixed_latency.raw().saturating_sub(1);
        let (mut ptw_latency, mut ptw_count) = (0u64, 0u64);
        if let Some((parallel, accesses)) = attempt.walk {
            let walk_latency = self.charge_page_walk(parallel, accesses);
            latency += walk_latency;
            cycles += walk_latency.raw();
            ptw_latency = walk_latency.raw();
            ptw_count = 1;
        }
        self.core.translation_cycles += cycles;
        self.core.ptw_latency_cycles += ptw_latency;
        self.core.ptw_count += ptw_count;
        self.perf.translation_cycles += cycles;
        self.perf.ptw_latency_cycles += ptw_latency;
        self.perf.ptw_count += ptw_count;
        latency
    }

    /// Replays a page-table walk through the memory hierarchy and returns
    /// its latency. Parallel (hash-based) walks cost the slowest access;
    /// serial (radix) walks cost the sum.
    fn charge_page_walk(&mut self, parallel: bool, accesses: &[PhysAddr]) -> Cycles {
        match self.mode {
            SimulationMode::Emulation {
                fixed_ptw_latency, ..
            } => {
                if accesses.is_empty() {
                    Cycles::ZERO
                } else {
                    fixed_ptw_latency
                }
            }
            SimulationMode::Detailed => {
                let mut total = Cycles::ZERO;
                let mut slowest = Cycles::ZERO;
                for pa in accesses {
                    let mut latency = Cycles::ZERO;
                    let access = self.caches.access_page_table(*pa);
                    latency += access.latency;
                    for line in &access.dram_fetches {
                        latency += self.dram.access(&vm_types::MemoryAccess::physical(
                            *line,
                            AccessType::Read,
                            Requestor::PageTableWalker,
                        ));
                    }
                    for wb in &access.writebacks {
                        self.dram.access(&vm_types::MemoryAccess::physical(
                            *wb,
                            AccessType::Write,
                            Requestor::PageTableWalker,
                        ));
                    }
                    total += latency;
                    slowest = slowest.max(latency);
                }
                if parallel {
                    slowest
                } else {
                    total
                }
            }
        }
    }

    /// The data access through caches and DRAM: the demanded line (and any
    /// prefetches and writebacks) move through the shared hierarchy;
    /// returns the latency the demand access exposes to the core.
    fn data_access(&mut self, pc: VirtAddr, paddr: PhysAddr, kind: AccessType) -> Cycles {
        let access = self
            .caches
            .access_with_pc(pc, paddr, kind, Requestor::Application);
        let mut latency = access.latency;
        for (i, line) in access.dram_fetches.iter().enumerate() {
            let requestor = if i == 0 {
                Requestor::Application
            } else {
                Requestor::Prefetcher
            };
            let dram_latency = self.dram.access(&vm_types::MemoryAccess::physical(
                *line,
                AccessType::Read,
                requestor,
            ));
            if i == 0 {
                latency += dram_latency;
            }
        }
        for wb in &access.writebacks {
            self.dram.access(&vm_types::MemoryAccess::physical(
                *wb,
                AccessType::Write,
                Requestor::Application,
            ));
        }
        latency
    }
}

/// Why taking a frontend out of `System::frontends` cannot fail outside an
/// epoch's hand-off window.
const FRONTEND_HOME: &str = "a core's frontend is out on an epoch worker";

/// Why a program's feed is home whenever the run loop reaches for it: a
/// job takes it out only for the program's slice, and the barrier brings
/// that job home before the slice is accounted.
const FEED_HOME: &str = "a program's feed is out on an epoch worker";

/// Core `core`'s translation frontend, borrowed from the `frontends` field
/// alone so the caller keeps the rest of [`System`].
fn front_mut(frontends: &mut [Option<Box<Frontend>>], core: usize) -> &mut Frontend {
    frontends[core].as_deref_mut().expect(FRONTEND_HOME)
}

/// Translation-metadata update accesses as the kernel writes they are.
fn writes(accesses: WalkAccessList) -> impl Iterator<Item = KernelOp> {
    accesses.into_iter().map(|paddr| KernelOp::Memory {
        paddr,
        kind: AccessType::Write,
    })
}

/// The full simulated machine.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug)]
pub struct System {
    config: SystemConfig,
    caches: CacheHierarchy,
    dram: DramModel,
    /// The simulated cores (at least one): timing model and accounting.
    cores: Vec<CoreState>,
    /// Each core's private translation frontend, boxed so a parallel epoch
    /// can hand it to a worker and take it back by moving a pointer. `None`
    /// only while the core's slice is out on a worker; every frontend is
    /// home whenever the run loop is not inside an epoch.
    frontends: Vec<Option<Box<Frontend>>>,
    /// The core the stepping API and the slow paths act on; the
    /// multiprogram loop rotates it round-robin.
    active: usize,
    os: MimicOs,
    /// The first process, used by the single-process convenience API.
    primary: ProcessId,
    /// Per-process performance accounting, indexed densely by raw pid
    /// (pids are allocated sequentially from 0). Replaces the seed's
    /// `BTreeMap`, whose two tree walks per retired instruction were one
    /// of the instruction loop's dominant constant factors.
    per_proc: Vec<ProcPerf>,
    /// Context switches performed by the framework.
    context_switches: u64,
    /// TLB entries dropped by context-switch flushes.
    switch_flushed_entries: u64,
    /// Shootdown work applied on behalf of kernel invalidation batches.
    shootdowns: ShootdownStats,
    workload_name: String,
    /// Segmentation faults observed (accesses outside any VMA are skipped).
    segfaults: u64,
    /// Faults that stayed [`VmError::OutOfMemory`] even after reclaim and
    /// the OOM killer ran out of victims (the access is skipped, like a
    /// segfault, but the cause is machine pressure, not a bad pointer).
    oom_failures: u64,
    /// Instructions retired since the coherence fence last ran (only
    /// advanced when [`SystemConfig::invariant_check_interval`] arms it).
    instructions_since_invariant_check: u64,
    /// `true` while the barrier of a parallel epoch is resolving a fault;
    /// guards the assertions that no cross-core disturbance (reclaim
    /// shootdowns, OOM kills) slips into an epoch the headroom check
    /// declared safe — the other cores' local phases have already run.
    epoch_replay: bool,
    /// Telemetry of the epoch machinery. Not part of any report — exposed
    /// through [`System::epoch_stats`] so tests can assert the epoch path
    /// actually engaged rather than silently falling back.
    epoch_stats: EpochStats,
}

impl System {
    /// Builds the system described by `config`.
    ///
    /// # Panics
    ///
    /// Panics if the MimicOS configuration is invalid (see
    /// [`mimic_os::OsConfig::validate`]), or if the translation engine
    /// cannot work with the kernel's allocation policy: an RMM engine
    /// needs [`AllocationPolicy::EagerPaging`](mimic_os::AllocationPolicy::EagerPaging)
    /// and a Utopia engine [`AllocationPolicy::Utopia`](mimic_os::AllocationPolicy::Utopia),
    /// whose RestSeg geometry its walkers index (see
    /// [`TranslationEngine::new`]). [`SystemConfig::with_design`] builds
    /// only valid pairs.
    pub fn new(config: SystemConfig) -> Self {
        let num_cores = config.os.num_cores.max(1);
        let mut os = MimicOs::new(config.os.clone());
        let pid = os.spawn_process();
        let make_frontend = |_| {
            Some(Box::new(Frontend {
                mmu: Mmu::new(config.mmu.clone()),
                engine: TranslationEngine::new(config.engine, &config.os.policy),
            }))
        };
        let make_core = |c: usize| CoreState {
            core: CoreModel::new(config.core),
            // With `pid % num_cores` pinning, the first process
            // dispatched on core `c` is pid `c`, so seeding `current`
            // this way avoids a spurious boot-time context switch —
            // exactly the legacy `current = primary` semantics at
            // one core.
            current: ProcessId(c),
            current_slot: c,
            translation_cycles: 0,
            ptw_latency_cycles: 0,
            ptw_count: 0,
            instructions_since_housekeeping: 0,
        };
        System {
            caches: CacheHierarchy::new(config.caches.clone()),
            dram: DramModel::new(config.dram.clone()),
            cores: (0..num_cores).map(make_core).collect(),
            frontends: (0..num_cores).map(make_frontend).collect(),
            active: 0,
            os,
            primary: pid,
            per_proc: vec![ProcPerf::default(); pid.0 + 1],
            context_switches: 0,
            switch_flushed_entries: 0,
            shootdowns: ShootdownStats::default(),
            workload_name: String::new(),
            segfaults: 0,
            oom_failures: 0,
            instructions_since_invariant_check: 0,
            epoch_replay: false,
            epoch_stats: EpochStats::default(),
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The MimicOS kernel (for inspecting allocator / fault statistics).
    pub fn os(&self) -> &MimicOs {
        &self.os
    }

    /// The TLB-and-page-table side of core 0 (for TLB / page-walk
    /// statistics). Under the Midgard engine this is the Midgard-space
    /// backend the engine repurposes; see [`mmu_sim::MidgardEngine`].
    pub fn mmu(&self) -> &Mmu {
        &self.front(0).mmu
    }

    /// The translation engine of core 0 (for engine-specific statistics).
    pub fn engine(&self) -> &TranslationEngine {
        &self.front(0).engine
    }

    /// Core `core`'s private TLB-and-page-table state.
    pub fn mmu_of(&self, core: usize) -> &Mmu {
        &self.front(core).mmu
    }

    /// Core `core`'s translation engine.
    pub fn engine_of(&self, core: usize) -> &TranslationEngine {
        &self.front(core).engine
    }

    /// The DRAM model (for row-buffer statistics).
    pub fn dram(&self) -> &DramModel {
        &self.dram
    }

    /// The cache hierarchy every core shares (for per-level statistics).
    pub fn caches(&self) -> &CacheHierarchy {
        &self.caches
    }

    /// The core model of core 0.
    pub fn core(&self) -> &CoreModel {
        &self.cores[0].core
    }

    /// The core model of core `core`.
    pub fn core_model_of(&self, core: usize) -> &CoreModel {
        &self.cores[core].core
    }

    /// Number of simulated cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// The core a process is pinned to (`pid % num_cores`).
    pub fn core_of(&self, pid: ProcessId) -> usize {
        pid.0 % self.num_cores()
    }

    /// The first process — the one the single-process API runs.
    pub fn pid(&self) -> ProcessId {
        self.primary
    }

    /// The ASID of a process.
    pub fn asid_of(pid: ProcessId) -> Asid {
        Asid::new(pid.0 as u16)
    }

    /// Context switches performed so far.
    pub fn context_switches(&self) -> u64 {
        self.context_switches
    }

    /// TLB entries dropped by context-switch flushes so far (non-zero only
    /// without ASID tags).
    pub fn switch_flushed_entries(&self) -> u64 {
        self.switch_flushed_entries
    }

    /// Number of accesses that faulted outside any VMA and were skipped.
    pub fn segfaults(&self) -> u64 {
        self.segfaults
    }

    /// Number of accesses whose fault failed with
    /// [`VmError::OutOfMemory`] after reclaim and the OOM killer were
    /// exhausted (the access is skipped; see [`SimulationReport::oom`]
    /// for the machine-wide picture).
    ///
    /// [`SimulationReport::oom`]: crate::report::SimulationReport::oom
    pub fn oom_failures(&self) -> u64 {
        self.oom_failures
    }

    /// Planned multi-instruction epochs [`System::run_multiprogram`] has
    /// executed (zero when every round fell back to the serial
    /// one-`CORE_TICK` schedule — under memory pressure, fault injection
    /// or an armed coherence fence). Diagnostic only; never serialized
    /// into reports.
    pub fn epochs_run(&self) -> u64 {
        self.epoch_stats.epochs_run
    }

    /// Telemetry of the epoch machinery of [`System::run_multiprogram`]:
    /// epochs run, stand-downs by reason, fault-truncated slices and the
    /// work that crossed the host-thread boundary. Diagnostic only; never
    /// serialized into reports.
    pub fn epoch_stats(&self) -> EpochStats {
        self.epoch_stats
    }

    /// Core `core`'s translation frontend.
    fn front(&self, core: usize) -> &Frontend {
        self.frontends[core].as_deref().expect(FRONTEND_HOME)
    }

    /// Shootdown work applied so far (zero counters on a run without
    /// memory pressure or khugepaged collapses).
    pub fn shootdown_stats(&self) -> &ShootdownStats {
        &self.shootdowns
    }

    /// Creates an additional process (admitted to the scheduler's run
    /// queue) and returns its identifier.
    pub fn spawn_process(&mut self) -> ProcessId {
        let pid = self.os.spawn_process();
        self.ensure_perf_slot(pid);
        pid
    }

    /// Grows the dense per-process accounting table to cover `pid`.
    fn ensure_perf_slot(&mut self, pid: ProcessId) {
        if pid.0 >= self.per_proc.len() {
            self.per_proc.resize(pid.0 + 1, ProcPerf::default());
        }
    }

    /// The accounting slot of `pid` (growing the table if the process was
    /// created behind the system's back).
    fn perf_mut(&mut self, pid: ProcessId) -> &mut ProcPerf {
        self.ensure_perf_slot(pid);
        &mut self.per_proc[pid.0]
    }

    /// Maps an anonymous region for the primary process.
    ///
    /// # Errors
    ///
    /// Propagates [`VmError::InvalidVma`] for overlapping or empty regions.
    pub fn mmap_anonymous(&mut self, start: VirtAddr, len: u64) -> VmResult<()> {
        self.mmap_anonymous_for(self.primary, start, len)
    }

    /// Maps an anonymous region for a specific process.
    ///
    /// # Errors
    ///
    /// Propagates [`VmError::InvalidVma`] for overlapping or empty regions.
    pub fn mmap_anonymous_for(
        &mut self,
        pid: ProcessId,
        start: VirtAddr,
        len: u64,
    ) -> VmResult<()> {
        self.os.mmap_anonymous(pid, start, len, false)?;
        self.engine_note_mapped_region(pid, start, len);
        Ok(())
    }

    /// Maps a file-backed region for the primary process.
    ///
    /// # Errors
    ///
    /// Propagates [`VmError::InvalidVma`] for overlapping or empty regions.
    pub fn mmap_file(&mut self, start: VirtAddr, len: u64, file_id: u64) -> VmResult<()> {
        self.mmap_file_for(self.primary, start, len, file_id)
    }

    /// Maps a file-backed region for a specific process.
    ///
    /// # Errors
    ///
    /// Propagates [`VmError::InvalidVma`] for overlapping or empty regions.
    pub fn mmap_file_for(
        &mut self,
        pid: ProcessId,
        start: VirtAddr,
        len: u64,
        file_id: u64,
    ) -> VmResult<()> {
        self.os.mmap_file(pid, start, len, file_id)?;
        self.engine_note_mapped_region(pid, start, len);
        Ok(())
    }

    /// Feeds engine-specific metadata of a freshly mapped region to the
    /// translation engine: the VMA itself (Midgard registers it with the
    /// frontend) and any contiguous ranges the kernel allocated eagerly
    /// for the address space (RMM registers them with the range table).
    /// A no-op on the conventional page-table engine.
    fn engine_note_mapped_region(&mut self, pid: ProcessId, start: VirtAddr, len: u64) {
        let asid = Self::asid_of(pid);
        let core = self.core_of(pid);
        let c = front_mut(&mut self.frontends, core);
        c.engine.note_vma(asid, start, len);
        c.engine.note_ranges(asid, self.os.ranges(pid));
    }

    /// Pre-faults every page of every VMA of `pid` (the equivalent of
    /// `MAP_POPULATE`): mappings are established functionally and installed
    /// in the MMU, but no simulated time is charged and no kernel streams
    /// are injected (each fault's stream goes straight back to MimicOS for
    /// reuse). Used to measure steady-state behaviour of long-running
    /// workloads without their cold first-touch phase.
    pub fn populate(&mut self, pid: ProcessId) {
        let asid = Self::asid_of(pid);
        let home = self.core_of(pid);
        let vmas: Vec<(VirtAddr, u64)> = self
            .os
            .process(pid)
            .vmas
            .iter()
            .map(|v| (v.start, v.len()))
            .collect();
        for (start, len) in vmas {
            let mut offset = 0u64;
            while offset < len {
                let va = start.add(offset);
                if let Some(existing) = self.os.process(pid).lookup_mapping(va) {
                    self.install_on(home, asid, &existing, InstallInfo::default(), false);
                    offset = existing.vaddr.add(existing.page_size.bytes()).raw() - start.raw();
                    continue;
                }
                match self.os.handle_page_fault(pid, va, false) {
                    Ok(outcome) => {
                        // Populating a footprint larger than memory can
                        // reclaim; the shootdowns still apply (state, not
                        // time — populate charges nothing by design).
                        self.apply_invalidations_from(home, &outcome.invalidations, false);
                        self.process_oom_kills(false);
                        let info = InstallInfo {
                            restseg_placed: outcome.restseg_placed,
                        };
                        self.install_on(home, asid, &outcome.mapping, info, false);
                        for extra in &outcome.additional_mappings {
                            self.install_on(home, asid, extra, InstallInfo::default(), false);
                        }
                        offset = outcome
                            .mapping
                            .vaddr
                            .add(outcome.mapping.page_size.bytes())
                            .raw()
                            - start.raw();
                        self.os.recycle_stream(outcome.stream);
                    }
                    Err(_) => {
                        // Out of memory (or swap): leave the rest untouched,
                        // but apply whatever reclaim tore down on the way.
                        let pending = self.os.take_pending_invalidations();
                        self.apply_invalidations_from(home, &pending, false);
                        self.process_oom_kills(false);
                        offset += PageSize::Size4K.bytes();
                    }
                }
            }
        }
    }

    /// Runs a workload until its trace ends or `max_instructions` retire.
    /// Returns the simulation report.
    pub fn run<T: TraceSource + ?Sized>(
        &mut self,
        frontend: &mut T,
        max_instructions: Option<u64>,
    ) -> SimulationReport {
        self.workload_name = frontend.name().to_string();
        let limit = max_instructions.unwrap_or(u64::MAX);
        self.step_block(frontend, limit);
        self.report()
    }

    /// Registers the program names and builds the combined workload name.
    ///
    /// # Panics
    ///
    /// Panics if the same `pid` appears twice in `programs`.
    fn name_programs(
        &mut self,
        programs: &[(ProcessId, &mut dyn TraceSource)],
    ) -> BTreeMap<usize, String> {
        let mut names: BTreeMap<usize, String> = BTreeMap::new();
        for (pid, src) in programs.iter() {
            assert!(
                names.insert(pid.0, src.name().to_string()).is_none(),
                "{pid} appears twice"
            );
        }
        self.workload_name = {
            let mut all: Vec<&str> = names.values().map(String::as_str).collect();
            all.sort_unstable();
            all.join("+")
        };
        names
    }

    fn multiprogram_report(&self, names: &BTreeMap<usize, String>) -> MultiProgramReport {
        let processes = names
            .iter()
            .map(|(&pid, name)| self.process_report(ProcessId(pid), name.clone()))
            .collect();
        MultiProgramReport {
            processes,
            context_switches: self.context_switches,
            switch_flushed_tlb_entries: self.switch_flushed_entries,
            rollup: self.report(),
        }
    }

    /// Instructions one core runs before the round-robin loop moves on to
    /// the next: the interleaving granularity of the multi-core model.
    /// Small enough that cross-core shootdowns land promptly, large enough
    /// that the per-turn dispatch overhead stays negligible.
    const CORE_TICK: u64 = 256;

    /// `CORE_TICK` turns one epoch slice covers: the granularity at which
    /// the multi-core loop amortizes dispatch (and, with host threads, the
    /// length of the parallel phase between barriers).
    const EPOCH_TICKS: u64 = 16;

    /// Below this per-core slice length an epoch is not worth its planning
    /// and barrier overhead; the loop falls back to one `CORE_TICK` round
    /// instead (which is also how housekeeping ticks land at their exact
    /// per-core instruction numbers).
    const MIN_EPOCH_SLICE: u64 = Self::CORE_TICK;

    /// Upper bound on physical memory one page fault can consume: a 2 MiB
    /// THP (or reservation) allocation, up to two page-table frames and
    /// slack for metadata. The epoch headroom check multiplies this by the
    /// core count, since a slice stops at its first fault.
    const EPOCH_FAULT_ALLOC_BOUND: u64 = 4 << 20;

    /// Runs several processes on the system's simulated cores, interleaved
    /// by the MimicOS round-robin scheduler. Every core time-slices its own
    /// run queue (processes are pinned by `pid % num_cores`): a process
    /// executes up to one quantum of its trace, then the kernel preempts
    /// it, the context switch is charged (switch-code instruction stream,
    /// TLB flush policy) and the next process takes the core. The cores
    /// interleave deterministically in fixed slices, and reclaim
    /// invalidations broadcast shootdown IPIs from the faulting core to
    /// every other core. The run ends when every trace is exhausted or
    /// `max_instructions` have retired in total.
    ///
    /// Whenever no source of cross-core disturbance can fire mid-slice
    /// (see `System::epoch_ready`), the loop runs *epochs*: each core
    /// executes up to `CORE_TICK * EPOCH_TICKS` instructions against its
    /// private translation state, and all shared-state work — page walks
    /// through the caches, DRAM traffic, page faults, scheduling — resolves
    /// serially at the epoch barrier in core-index order. With
    /// `host_threads > 1` the per-core local phases run on host threads;
    /// because they touch disjoint state and the barrier replay is a fixed
    /// serial order, **every host-thread count produces bit-identical
    /// reports** (the `multicore_differential` fence enforces this).
    /// Otherwise the loop falls back to one serial `CORE_TICK` round-robin
    /// round, which handles housekeeping ticks, the coherence fence, fault
    /// injection and memory pressure at their exact instruction numbers.
    ///
    /// Every `(pid, source)` pair must name a process created by
    /// [`System::spawn_process`] (or [`System::pid`] for the first).
    /// Processes known to the scheduler but absent from `programs` are
    /// treated as immediately exited.
    ///
    /// # Panics
    ///
    /// Panics if the same `pid` appears twice in `programs`.
    pub fn run_multiprogram(
        &mut self,
        programs: &mut [(ProcessId, &mut dyn TraceSource)],
        max_instructions: Option<u64>,
    ) -> MultiProgramReport {
        let names = self.name_programs(programs);
        let limit = max_instructions.unwrap_or(u64::MAX);
        let num_cores = self.num_cores();
        let host_threads = self.config.host_threads.clamp(1, num_cores);
        // Dense pid -> program-index map: a per-turn linear scan over
        // `programs` is measurable dispatch overhead at CORE_TICK
        // granularity.
        let max_pid = programs.iter().map(|(pid, _)| pid.0).max().unwrap_or(0);
        let mut program_of = vec![None; max_pid + 1];
        for (i, (pid, _)) in programs.iter().enumerate() {
            program_of[pid.0] = Some(i);
        }
        // A worker fills the fetch queues, so they are allocated here, at
        // their largest, rather than grown there.
        let slice_max = (Self::CORE_TICK * Self::EPOCH_TICKS) as usize;
        let mut feeds: Vec<Option<Feed<'_>>> = programs
            .iter_mut()
            .map(|(_, source)| {
                let queue = if host_threads > 1 {
                    FetchQueue::with_room(slice_max)
                } else {
                    FetchQueue::default()
                };
                Some(Feed {
                    source: &mut **source,
                    queue,
                })
            })
            .collect();
        if host_threads > 1 {
            // The workers live for the whole run and borrow nothing: every
            // job is moved to them and back. The scope is only what joins
            // them, and surfaces their panics, on the way out.
            std::thread::scope(|scope| {
                let workers =
                    Workers::spawn(scope, host_threads - 1, num_cores, EpochSlice::MAX_CHUNKS);
                self.run_rounds(&mut feeds, &program_of, limit, Some(&workers));
            });
        } else {
            self.run_rounds(&mut feeds, &program_of, limit, None);
        }
        self.active = 0;
        self.multiprogram_report(&names)
    }

    /// The multiprogram loop proper: epochs while they are safe and
    /// worthwhile, serial `CORE_TICK` rounds otherwise. With `workers`,
    /// every epoch slice's fetch and local phase run on one of them, and
    /// the barrier replays each chunk as it arrives; without, slices are
    /// fetched and executed inline on this thread with no channel and no
    /// log.
    fn run_rounds<'a>(
        &mut self,
        feeds: &mut [Option<Feed<'a>>],
        program_of: &[Option<usize>],
        limit: u64,
        workers: Option<&Workers<'a>>,
    ) {
        let num_cores = self.num_cores();
        let mut epoch: Vec<EpochSlice> = (0..num_cores).map(|_| EpochSlice::default()).collect();

        let mut retired_total = 0u64;
        // A dispatched process always retires an instruction or exits, so
        // the run ends when the limit is reached or every process has exited.
        'outer: while retired_total < limit && self.os.scheduler().runnable() > 0 {
            let mut ran_epoch = false;

            if self.epoch_ready() {
                // ---- Plan (serial): dispatch and size every core's slice,
                // in core order, before a single instruction is fetched — a
                // runt on a later core then abandons the epoch with nothing
                // to put back. Context switches apply here so the local
                // phases see post-dispatch translation state, and every
                // frontend is still home.
                let interval = self.config.housekeeping_interval;
                let mut budget = limit - retired_total;
                let mut runt = false;
                for slice in epoch.iter_mut() {
                    slice.cap = 0;
                }
                for (core, slice) in epoch.iter_mut().enumerate() {
                    if budget == 0 {
                        break;
                    }
                    let Some((pid, prog)) = self.dispatch(core, program_of) else {
                        continue;
                    };
                    // Strictly below the housekeeping threshold: background
                    // ticks (khugepaged collapses!) must never fire inside
                    // an epoch, where their invalidations would reach cores
                    // whose local phase already ran.
                    let slack = if interval > 0 {
                        (interval - self.cores[core].instructions_since_housekeeping)
                            .saturating_sub(1)
                    } else {
                        u64::MAX
                    };
                    let cap = (Self::CORE_TICK * Self::EPOCH_TICKS)
                        .min(self.os.scheduler().remaining_quantum_on(core))
                        .min(slack)
                        .min(budget);
                    if cap < Self::MIN_EPOCH_SLICE {
                        runt = true;
                        break;
                    }
                    budget -= cap;
                    slice.cap = cap;
                    slice.pid = pid;
                    slice.prog = prog;
                }

                if runt {
                    self.epoch_stats.stood_down_runt_slice += 1;
                } else {
                    ran_epoch = true;
                    self.epoch_stats.epochs_run += 1;
                    // ---- Fetch and hand-off. With workers, every slice's
                    // job leaves at once, carrying its program's feed: the
                    // worker fetches core k's slice and translates it while
                    // this thread already replays core k-1. Without, this
                    // thread tops every slice's queue up to its cap from
                    // the source (what a truncated predecessor left comes
                    // first). The attribution baselines are snapshotted
                    // here, after every dispatch switch has been charged.
                    for (core, slice) in epoch.iter_mut().enumerate() {
                        if slice.cap == 0 {
                            continue;
                        }
                        slice.cycles_before = self.cores[core].core.cycles().raw();
                        let feed = &mut feeds[slice.prog];
                        if let Some(workers) = workers {
                            slice.in_flight = true;
                            self.epoch_stats.jobs_handed_off += 1;
                            slice.pool.append(&mut slice.spent);
                            let chunks = (slice.cap as usize).div_ceil(LOG_CHUNK);
                            while slice.pool.len() < chunks {
                                slice.pool.push(SliceLog::for_chunk());
                            }
                            workers.send(SliceJob {
                                core,
                                asid: Self::asid_of(slice.pid),
                                frontend: self.frontends[core].take().expect(FRONTEND_HOME),
                                feed: feed.take().expect(FEED_HOME),
                                cap: slice.cap as usize,
                                planned: 0,
                                exhausted: false,
                                logs: std::mem::take(&mut slice.pool),
                                last: SliceLog::default(),
                            });
                        } else {
                            let Feed { source, queue } = feed.as_mut().expect(FEED_HOME);
                            slice.exhausted = !queue.top_up(slice.cap as usize, &mut **source);
                            slice.planned = slice.cap.min(queue.len() as u64);
                        }
                    }

                    // ---- Barrier (serial, core-index order): replay the
                    // logged shared-state work chunk by chunk as it
                    // arrives, resolve faults, account and reschedule.
                    // This is the only place shared machine state moves,
                    // and it moves in core order and program order
                    // whatever order the workers finish in, so every
                    // report is independent of the host-thread count.
                    for core in 0..num_cores {
                        if epoch[core].cap == 0 {
                            continue;
                        }
                        self.active = core;
                        let (mut ran, fault) = if let Some(workers) = workers {
                            self.replay_slice(workers, &mut epoch, feeds, core)
                        } else {
                            // Single host thread: execute the slice inline,
                            // stopping at the first fault exactly where a
                            // worker would have.
                            let planned = epoch[core].planned;
                            let queue = &feeds[epoch[core].prog].as_ref().expect(FEED_HOME).queue;
                            let instrs = &queue.buf[queue.head..][..planned as usize];
                            let (mut path, front) = self.datapath_and_front();
                            path.run_until_fault(front, &mut Fetched(instrs.iter()), planned)
                        };
                        if let Some(entry) = fault {
                            // The slice resumes mid-instruction and ends.
                            // The fault path may reach any core's frontend,
                            // so every outstanding job comes home first.
                            self.epoch_stats.fault_truncated_slices += 1;
                            if let Some(workers) = workers {
                                self.collect(workers, &mut epoch, feeds);
                            }
                            self.epoch_replay = workers.is_some();
                            self.finish_faulted_access(&entry);
                            self.epoch_replay = false;
                            ran += 1;
                        }
                        let slice = &epoch[core];
                        self.attribute_block(ran, slice.cycles_before);
                        // What the slice did not get to stays queued for
                        // the next dispatch of this program.
                        feeds[slice.prog].as_mut().expect(FEED_HOME).queue.head += ran as usize;

                        retired_total += ran;
                        let at_limit = retired_total >= limit;
                        self.settle(
                            core,
                            slice.pid,
                            ran,
                            slice.exhausted && ran == slice.planned,
                            at_limit,
                        );
                        if at_limit {
                            if let Some(workers) = workers {
                                self.collect(workers, &mut epoch, feeds);
                            }
                            break 'outer;
                        }
                    }
                }
            }

            if !ran_epoch {
                // ---- Fallback: one serial CORE_TICK round-robin round.
                // Runs whenever an epoch is unsafe (fence armed, fault
                // injection, low memory headroom) or not worthwhile (a
                // core is about to cross its housekeeping threshold), and
                // fires those events at their exact per-core instruction
                // numbers via step_block's chunk clamping. Unlike an
                // epoch it plans and executes one core at a time.
                for core in 0..num_cores {
                    if retired_total >= limit {
                        break 'outer;
                    }
                    let Some((pid, prog)) = self.dispatch(core, program_of) else {
                        continue;
                    };
                    // One turn: at most CORE_TICK instructions, never past
                    // the end of the quantum, so preemption points do not
                    // depend on how the run was sliced.
                    let n = Self::CORE_TICK
                        .min(self.os.scheduler().remaining_quantum_on(core))
                        .min(limit - retired_total);
                    let Feed { source, queue } = feeds[prog].as_mut().expect(FEED_HOME);
                    let mut source = ReplayFront {
                        fetched: queue,
                        inner: &mut **source,
                    };
                    let ran = self.step_block(&mut source, n);
                    retired_total += ran;
                    let at_limit = retired_total >= limit;
                    self.settle(core, pid, ran, ran < n, at_limit);
                    if at_limit {
                        break 'outer;
                    }
                }
            }
        }
    }

    /// Replays core `core`'s slice at the barrier, chunk by chunk in slice
    /// order, each as soon as its worker sends it — the rest of the slice
    /// may still be translating — until the job, carrying the last chunk,
    /// is home. Returns the instructions the chunks ran and the access a
    /// fault ended the slice on (only the last chunk can end in one), as
    /// the inline path does.
    fn replay_slice<'a>(
        &mut self,
        workers: &Workers<'a>,
        epoch: &mut [EpochSlice],
        feeds: &mut [Option<Feed<'a>>],
        core: usize,
    ) -> (u64, Option<FaultedAccess>) {
        let (mut ran, mut fault) = (0, None);
        loop {
            while let Some(mut log) = epoch[core].pending.pop_front() {
                if epoch[core].in_flight {
                    self.epoch_stats.chunks_streamed += 1;
                }
                ran += self.replay_log(&log);
                fault = log.fault();
                log.clear();
                epoch[core].spent.push(log);
            }
            if !epoch[core].in_flight {
                return (ran, fault);
            }
            self.receive(workers, epoch, feeds);
        }
    }

    /// Replays one chunk log's shared-state work on the active core: its
    /// compute instructions, then its memory accesses in program order.
    /// Returns the instructions it ran.
    fn replay_log(&mut self, log: &SliceLog) -> u64 {
        let mut path = self.datapath();
        path.core.core.retire_computes(log.computes);
        for (pc, kind, attempt) in log.replay() {
            path.complete_access(pc, kind, attempt, Cycles::ZERO);
        }
        self.epoch_stats.replayed_accesses += log.logged_accesses();
        log.ran()
    }

    /// Blocks until every outstanding job is back from its worker, filing
    /// the chunks that arrive ahead of them.
    fn collect<'a>(
        &mut self,
        workers: &Workers<'a>,
        epoch: &mut [EpochSlice],
        feeds: &mut [Option<Feed<'a>>],
    ) {
        while epoch.iter().any(|slice| slice.in_flight) {
            self.receive(workers, epoch, feeds);
        }
    }

    /// Files the next message from the workers: a chunk log joins its
    /// core's pending queue; a finished job sends the frontend home, the
    /// feed back to its program, its last chunk's log after the pending
    /// ones and its unused logs back to the pool.
    fn receive<'a>(
        &mut self,
        workers: &Workers<'a>,
        epoch: &mut [EpochSlice],
        feeds: &mut [Option<Feed<'a>>],
    ) {
        match workers.recv() {
            Done::Chunk { core, log } => epoch[core].pending.push_back(log),
            Done::Job(job) => {
                let slice = &mut epoch[job.core];
                self.frontends[job.core] = Some(job.frontend);
                feeds[slice.prog] = Some(job.feed);
                slice.planned = job.planned as u64;
                slice.exhausted = job.exhausted;
                slice.pool = job.logs;
                slice.pending.push_back(job.last);
                slice.in_flight = false;
            }
        }
    }

    /// The head of one core's turn — schedule, context switch, program
    /// lookup: picks the next process of `core`'s run queue, makes `core`
    /// the active core, charges the dispatch switch when the process is not
    /// the one already holding it (after an exit, or for an externally
    /// spawned process: architecturally still a context switch) and looks
    /// up its trace. `None` means the core has nothing to run this turn:
    /// its queue is empty, or the process has no trace and exits
    /// immediately.
    fn dispatch(
        &mut self,
        core: usize,
        program_of: &[Option<usize>],
    ) -> Option<(ProcessId, usize)> {
        // A run that stopped at its instruction limit just as a quantum
        // expired left that preemption undone (`settle` skips it at the
        // limit). Without it here, the next run's turns would have no
        // quantum to run in and the loop would spin forever.
        if self.os.scheduler().remaining_quantum_on(core) == 0 {
            if let Some(switch) = self.os.scheduler_mut().preempt_on(core) {
                self.active = core;
                self.apply_context_switch(switch);
            }
        }
        let pid = self.os.scheduler_mut().schedule_on(core)?;
        self.active = core;
        let from = self.cores[core].current;
        if pid != from {
            self.apply_context_switch(ContextSwitch { from, to: pid });
        }
        let prog = program_of.get(pid.0).copied().flatten();
        if prog.is_none() {
            self.os.scheduler_mut().exit(pid);
        }
        prog.map(|prog| (pid, prog))
    }

    /// The tail of one core's turn — account, exit, preempt: charges the
    /// `ran` instructions to `pid`'s quantum on `core`, then retires the
    /// process if its trace `finished` or preempts it if the quantum
    /// expired. When the run's instruction limit has been reached
    /// (`at_limit`) only the accounting applies: the run ends with the
    /// process still holding its core, and a preemption due then is left
    /// to the next run's first [`System::dispatch`] on `core`.
    fn settle(&mut self, core: usize, pid: ProcessId, ran: u64, finished: bool, at_limit: bool) {
        let expired = ran > 0 && self.os.scheduler_mut().account_on(core, ran);
        if at_limit {
            return;
        }
        if finished {
            self.os.scheduler_mut().exit(pid);
        } else if expired {
            if let Some(switch) = self.os.scheduler_mut().preempt_on(core) {
                self.active = core;
                self.apply_context_switch(switch);
            }
        }
    }

    /// `true` when the next multi-core interleave can run as an epoch:
    /// every source of cross-core disturbance mid-epoch is excluded up
    /// front, so each core's local phase sees exactly the private state a
    /// fully serial schedule would have shown it.
    ///
    /// - The coherence fence counts instructions globally and serially.
    /// - Injected allocation shortfalls can force reclaim (and its
    ///   shootdown broadcasts) at *any* memory headroom, so chaos runs
    ///   serialize — they remain bit-reproducible across thread counts,
    ///   which is what `tests/chaos.rs` pins.
    /// - Low headroom means a barrier-serviced fault could trigger
    ///   reclaim, khugepaged-style invalidations or the OOM killer, whose
    ///   cross-core teardown must interleave at `CORE_TICK` granularity.
    fn epoch_ready(&mut self) -> bool {
        let headroom = self.epoch_fault_headroom();
        let stats = &mut self.epoch_stats;
        let stood_down = if self.config.invariant_check_interval != 0 {
            &mut stats.stood_down_fence_armed
        } else if self.config.os.fault_injection.is_active() {
            &mut stats.stood_down_fault_injection
        } else if !headroom {
            &mut stats.stood_down_low_headroom
        } else {
            return true;
        };
        *stood_down += 1;
        false
    }

    /// Barrier-serviced faults must stay reclaim-free: if the worst-case
    /// epoch's allocations (one fault per core, each at most
    /// [`System::EPOCH_FAULT_ALLOC_BOUND`]) could push the buddy allocator
    /// past the swap threshold, the epoch falls back to serial rounds.
    fn epoch_fault_headroom(&self) -> bool {
        let buddy = self.os.buddy();
        let capacity = buddy.capacity_bytes();
        let used = capacity - buddy.free_bytes();
        let worst = self.num_cores() as u64 * Self::EPOCH_FAULT_ALLOC_BOUND;
        (used + worst) as f64 <= self.config.os.swap_threshold * capacity as f64
    }

    /// Applies the architectural consequences of a context switch: the
    /// switch-code kernel stream, the TLB flush policy and the bookkeeping.
    fn apply_context_switch(&mut self, switch: ContextSwitch) {
        let stream = self.os.context_switch_stream(switch);
        let charge = self.charges();
        self.settle_stream(stream, charge);
        if !charge {
            // Emulation mode charges the switch as a fixed stall instead of
            // simulating the switch code.
            self.cores[self.active]
                .core
                .stall(Cycles::new(u64::from(self.config.os.context_switch_cost)));
        }
        self.ensure_perf_slot(switch.to);
        let dropped = front_mut(&mut self.frontends, self.active)
            .mmu
            .context_switch();
        self.switch_flushed_entries += dropped as u64;
        self.context_switches += 1;
        let c = &mut self.cores[self.active];
        c.current = switch.to;
        // Swap the cached accounting slot to the incoming process.
        c.current_slot = switch.to.0;
    }

    /// Builds the per-process slice of the report for `pid`.
    fn process_report(&self, pid: ProcessId, workload: String) -> ProcessReport {
        let perf = self.per_proc.get(pid.0).copied().unwrap_or_default();
        let home = self.core_of(pid);
        let asid_stats = self.front(home).mmu.stats().for_asid(Self::asid_of(pid));
        let process = self.os.process(pid);
        ProcessReport {
            pid: pid.0,
            workload,
            instructions: perf.instructions,
            cycles: perf.cycles,
            ipc: if perf.cycles == 0 {
                0.0
            } else {
                perf.instructions as f64 / perf.cycles as f64
            },
            translation_cycles: perf.translation_cycles,
            page_walks: asid_stats.walks.get(),
            tlb_translations: asid_stats.translations.get(),
            tlb_hits: asid_stats.hits(),
            avg_ptw_latency_cycles: if perf.ptw_count == 0 {
                0.0
            } else {
                perf.ptw_latency_cycles as f64 / perf.ptw_count as f64
            },
            minor_faults: process.minor_faults,
            major_faults: process.major_faults,
            read_faults: process.read_faults,
            write_faults: process.write_faults,
            segfaults: perf.segfaults,
            oom_failures: perf.oom_failures,
            scheduled_instructions: self.os.scheduler().stats().instructions_of(pid),
            exit_status: if process.exit_reason().is_some() {
                ProcessExitStatus::OomKilled
            } else if perf.segfaults > 0 {
                ProcessExitStatus::Segfaulted
            } else {
                ProcessExitStatus::Completed
            },
        }
    }

    /// Executes one application instruction on the active core, attributing
    /// its cost to the process currently holding that core.
    pub fn step(&mut self, instr: &Instruction) {
        self.step_block(&mut Fetched(std::slice::from_ref(instr).iter()), 1);
    }

    /// Runs up to `n` instructions from `frontend` on the active core,
    /// amortizing the per-instruction bookkeeping (perf attribution,
    /// housekeeping counter) over chunks. Returns how many instructions
    /// actually retired — fewer than `n` only when the trace ends.
    ///
    /// Chunking is invisible in the results: the per-process cycle
    /// attribution telescopes (the active slot cannot change mid-block —
    /// only `apply_context_switch` moves it, and the step path never
    /// switches), and chunks are clamped to the housekeeping and fence
    /// slack so both fire at exactly the instruction numbers a
    /// one-instruction-at-a-time loop would fire them at.
    fn step_block<T: TraceSource + ?Sized>(&mut self, frontend: &mut T, n: u64) -> u64 {
        let interval = self.config.housekeeping_interval;
        let fence_interval = self.config.invariant_check_interval;
        let mut stepped = 0u64;
        while stepped < n {
            let core = &self.cores[self.active];
            let slack = if interval > 0 {
                interval - core.instructions_since_housekeeping
            } else {
                u64::MAX
            };
            let fence_slack = if fence_interval > 0 {
                fence_interval - self.instructions_since_invariant_check
            } else {
                u64::MAX
            };
            let chunk = (n - stepped).min(slack).min(fence_slack);
            let cycles_before = core.core.cycles().raw();
            let mut ran = 0u64;
            while ran < chunk {
                let (mut path, front) = self.datapath_and_front();
                let (clean, fault) = path.run_until_fault(front, frontend, chunk - ran);
                ran += clean;
                let Some(entry) = fault else {
                    break; // chunk complete, or trace exhausted
                };
                self.finish_faulted_access(&entry);
                ran += 1;
            }
            self.attribute_block(ran, cycles_before);
            stepped += ran;
            let core = &mut self.cores[self.active];
            if interval > 0 && core.instructions_since_housekeeping >= interval {
                core.instructions_since_housekeeping = 0;
                self.housekeeping();
            }
            if fence_interval > 0 {
                self.instructions_since_invariant_check += ran;
                if self.instructions_since_invariant_check >= fence_interval {
                    self.instructions_since_invariant_check = 0;
                    self.assert_invariants();
                }
            }
            if ran < chunk {
                break; // trace exhausted
            }
        }
        stepped
    }

    /// Borrows the active core's access pipeline out of the machine. The
    /// core's frontend may be out on a worker.
    fn datapath(&mut self) -> Datapath<'_> {
        let core = &mut self.cores[self.active];
        Datapath {
            perf: &mut self.per_proc[core.current_slot],
            core,
            caches: &mut self.caches,
            dram: &mut self.dram,
            mode: self.config.mode,
        }
    }

    /// [`System::datapath`] and, beside it, the active core's frontend,
    /// which must be home: what [`Datapath::run_until_fault`] takes.
    fn datapath_and_front(&mut self) -> (Datapath<'_>, &mut Frontend) {
        let core = &mut self.cores[self.active];
        let path = Datapath {
            perf: &mut self.per_proc[core.current_slot],
            core,
            caches: &mut self.caches,
            dram: &mut self.dram,
            mode: self.config.mode,
        };
        (path, front_mut(&mut self.frontends, self.active))
    }

    /// Attributes a block of `ran` instructions just executed on the active
    /// core, and the cycles the core spent since `cycles_before`, to the
    /// process holding it.
    fn attribute_block(&mut self, ran: u64, cycles_before: u64) {
        let core = &mut self.cores[self.active];
        let perf = &mut self.per_proc[core.current_slot];
        perf.instructions += ran;
        perf.cycles += core.core.cycles().raw() - cycles_before;
        core.instructions_since_housekeeping += ran;
    }

    /// Executes one application instruction on core `core` — the multi-core
    /// stepping API (tests and benchmarks drive interleavings with it).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn step_on(&mut self, core: usize, instr: &Instruction) {
        assert!(core < self.num_cores(), "core {core} out of range");
        self.active = core;
        self.step(instr);
    }

    /// Periodic background OS work: zeroed-pool refill and khugepaged, with
    /// the khugepaged stream injected in detailed mode. A collapse moves
    /// the region to a *new* huge frame and frees the old base frames, so
    /// its invalidation batch is applied just like a reclaim shootdown —
    /// before the fix, the TLBs kept translating into the freed frames.
    fn housekeeping(&mut self) {
        let current = self.cores[self.active].current;
        self.os.background_tick();
        let (stream, invalidations) = self.os.khugepaged_tick(current);
        let charge = self.charges();
        self.settle_stream(stream, charge);
        self.apply_invalidations_from(self.active, &invalidations, charge);
    }

    /// Completes a memory access whose core-local translation faulted:
    /// charges the recorded first attempt, services the fault through the
    /// kernel, then retries the translation once and lets
    /// [`Datapath::complete_access`] finish the access. Shared between the
    /// step path (which calls it as soon as the instruction loop hands the
    /// fault back) and the epoch barrier (which calls it while resuming a
    /// truncated slice mid-instruction).
    fn finish_faulted_access(&mut self, entry: &FaultedAccess) {
        let carried = self
            .datapath()
            .charge_translation(entry.translation.attempt());
        if !self.handle_fault(entry.vaddr, entry.kind.is_write()) {
            // Unresolvable fault: skip the access.
            self.cores[self.active].core.retire_compute(1);
            return;
        }
        let asid = Self::asid_of(self.cores[self.active].current);
        let retry = front_mut(&mut self.frontends, self.active).engine_translate(asid, entry.vaddr);
        self.datapath()
            .complete_access(entry.pc, entry.kind, retry.attempt(), carried);
    }

    /// Asks MimicOS to handle a page fault, settles the returned kernel
    /// stream, installs the new mappings and stalls the core for the fault:
    /// the device time in detailed mode, the fixed fault latency in
    /// emulation mode. Returns `false` when the fault could not be resolved
    /// (segmentation fault).
    fn handle_fault(&mut self, vaddr: VirtAddr, is_write: bool) -> bool {
        let pid = self.cores[self.active].current;
        let asid = Self::asid_of(pid);
        let charge = self.charges();
        match self.os.handle_page_fault(pid, vaddr, is_write) {
            Ok(PageFaultOutcome {
                mapping,
                additional_mappings: additional,
                device_latency_ns,
                stream,
                invalidations,
                restseg_placed,
                ..
            }) => {
                let stall = match self.config.mode {
                    SimulationMode::Detailed => Cycles::new(
                        (device_latency_ns * self.config.core.frequency.ghz()).round() as u64,
                    ),
                    SimulationMode::Emulation {
                        fixed_fault_latency,
                        ..
                    } => fixed_fault_latency,
                };
                self.settle_stream(stream, charge);
                // Mirror the kernel's order: reclaim (and its shootdowns)
                // happened before the new mapping was established.
                self.apply_invalidations_from(self.active, &invalidations, charge);
                // Engine-specific install metadata travels with the fault
                // outcome (e.g. Utopia RestSeg placement).
                let info = InstallInfo { restseg_placed };
                self.install_on(self.active, asid, &mapping, info, charge);
                for extra in &additional {
                    self.install_on(self.active, asid, extra, InstallInfo::default(), charge);
                }
                self.cores[self.active].core.stall(stall);
                self.process_oom_kills(charge);
                true
            }
            Err(VmError::OutOfMemory { .. }) => {
                // Genuine memory exhaustion, not an addressing error: the
                // kernel may have killed processes on the way (whose
                // teardown is in the pending batch) before running out of
                // victims. Attributing this to `segfaults` — as the
                // catch-all arm below once did — made pressure-run reports
                // blame innocent survivors for bad pointers.
                self.apply_pending_invalidations(charge);
                self.process_oom_kills(charge);
                self.oom_failures += 1;
                self.perf_mut(pid).oom_failures += 1;
                false
            }
            Err(_) => {
                // A segmentation fault, or any other fault the kernel
                // could not resolve.
                self.apply_pending_invalidations(charge);
                self.segfaults += 1;
                self.perf_mut(pid).segfaults += 1;
                false
            }
        }
    }

    /// Whether kernel work costs simulated time, decided here and nowhere
    /// else: detailed mode injects every kernel stream into the core and
    /// sends the translation-metadata writes of installs and shootdowns
    /// through the caches; emulation mode applies the same state changes
    /// and recycles the streams. `populate` charges nothing in either mode.
    fn charges(&self) -> bool {
        self.config.mode.is_detailed()
    }

    /// Applies the architectural side of the OOM kills the kernel performed
    /// while handling the last fault. The per-page teardown of each victim
    /// already rode the fault's invalidation batch; what remains is the
    /// per-ASID state: every core's TLB entries and the engine's
    /// address-space structures (Midgard frontends, RMM range tables,
    /// Utopia RestSeg residency) are flushed so a recycled ASID can never
    /// inherit a dead process's translations. The kill's kernel stream
    /// (badness scan + `exit_mmap` teardown) is injected when `charge` is
    /// set and recycled otherwise.
    fn process_oom_kills(&mut self, charge: bool) {
        let kills = self.os.take_oom_kills();
        if kills.is_empty() {
            return;
        }
        assert!(
            !self.epoch_replay,
            "OOM kill fired inside an epoch the headroom check passed"
        );
        let num_cores = self.num_cores();
        for kill in kills {
            let asid = Self::asid_of(kill.victim);
            for core in 0..num_cores {
                let c = front_mut(&mut self.frontends, core);
                let dropped = c.engine.flush_asid(&mut c.mmu, asid);
                self.shootdowns.tlb_entries_dropped += dropped as u64;
            }
            self.settle_stream(kill.stream, charge);
        }
    }

    /// Applies the shootdown work of faults that failed partway: the
    /// kernel may have reclaimed (and torn translations down) before the
    /// fault ultimately errored, and that work is real even though the
    /// fault is not. The failed fault's stream died with it, so the
    /// kernel rebuilds the shootdown-cost portion for injection.
    fn apply_pending_invalidations(&mut self, charge: bool) {
        let pending = self.os.take_pending_invalidations();
        if pending.is_empty() {
            return;
        }
        // Build the replacement stream whether or not it is charged, so the
        // kernel-side instruction accounting stays mode-independent (as it
        // is for successful faults).
        let stream = self
            .os
            .pending_shootdown_stream(pending.victims.len() as u64);
        self.settle_stream(stream, charge);
        self.apply_invalidations_from(self.active, &pending, charge);
    }

    /// Installs `mapping` for `asid` in `core`'s translation engine — every
    /// install the framework makes goes through here — and, when `charge`
    /// is set, retires the translation-metadata writes as that core's
    /// kernel traffic.
    fn install_on(
        &mut self,
        core: usize,
        asid: Asid,
        mapping: &Mapping,
        info: InstallInfo,
        charge: bool,
    ) {
        let c = front_mut(&mut self.frontends, core);
        let accesses = c
            .engine
            .handle_fault_install(&mut c.mmu, asid, mapping, info);
        if charge {
            self.retire_kernel_ops(core, writes(accesses));
        }
    }

    /// Tears down the translations of a single victim page on core `core`,
    /// folding the dropped-entry counts into the shootdown statistics and —
    /// when `charge` — retiring the metadata-update writes as that core's
    /// kernel traffic.
    fn invalidate_victim_on(
        &mut self,
        core: usize,
        victim: &mimic_os::InvalidationVictim,
        charge: bool,
    ) {
        let asid = Self::asid_of(victim.pid);
        let outcome = {
            let c = front_mut(&mut self.frontends, core);
            c.engine
                .invalidate(&mut c.mmu, asid, victim.vaddr, victim.page_size)
        };
        self.shootdowns.tlb_entries_dropped += outcome.tlb_entries_dropped as u64;
        self.shootdowns.pwc_entries_dropped += outcome.pwc_entries_dropped as u64;
        self.shootdowns.engine_entries_dropped += outcome.engine_entries_dropped as u64;
        if charge {
            self.retire_kernel_ops(core, writes(outcome.accesses));
        }
    }

    /// Applies a kernel invalidation batch initiated on core `initiator`:
    /// every victim is shot out of the MMU (page table, TLBs, PWCs) and the
    /// engine's design-specific state through
    /// [`TranslationEngine::invalidate`], then the replacement mappings
    /// (THP-demotion survivors, khugepaged collapse results) are installed
    /// on their owners' home cores.
    ///
    /// With more than one core this is a real TLB shootdown: the initiator
    /// sends an IPI to every remote core, and each remote core stalls for
    /// the IPI delivery cost and tears down only its *own* TLB/PWC/engine
    /// state before the initiator's fault completes. Delivery is
    /// immediate: the epoch planner only runs parallel epochs when no
    /// reclaim (and hence no shootdown) can fire, so every IPI is serviced
    /// on the serial path in core-index order. The initiator-side IPI
    /// *instruction* cost is already part of the kernel stream MimicOS
    /// produced; `charge` additionally sends the metadata-update accesses
    /// through the cache hierarchy and charges the remote stalls (see
    /// [`System::charges`]).
    fn apply_invalidations_from(
        &mut self,
        initiator: usize,
        batch: &InvalidationBatch,
        charge: bool,
    ) {
        if batch.is_empty() {
            return;
        }
        // The epoch headroom check promises barrier-serviced faults never
        // reclaim; a cross-core invalidation here would reach cores whose
        // local phase already ran.
        assert!(
            !self.epoch_replay,
            "reclaim fired inside an epoch the headroom check passed"
        );
        self.shootdowns.batches += 1;
        let num_cores = self.num_cores();
        if num_cores > 1 {
            let per_core = self
                .shootdowns
                .per_core
                .get_or_insert_with(|| vec![CoreIpiStats::default(); num_cores]);
            per_core[initiator].ipis_sent += num_cores as u64 - 1;
        }

        // Initiator-local teardown (the legacy single-core path verbatim).
        for victim in &batch.victims {
            self.shootdowns.pages += 1;
            self.invalidate_victim_on(initiator, victim, charge);
        }

        // Remote cores service the IPI: stall for the delivery cost, then
        // tear down their local state.
        let ipi_cost = u64::from(self.config.os.shootdown_ipi_cost);
        for core in (0..num_cores).filter(|&core| core != initiator) {
            if let Some(per_core) = self.shootdowns.per_core.as_mut() {
                per_core[core].ipis_received += 1;
            }
            if charge {
                // Fault injection may hold the IPI in flight a while
                // longer (a busy interrupt controller); the remote
                // core's stall grows by the configured delay.
                let stall = ipi_cost + self.os.injected_ipi_delay_cycles();
                self.cores[core].core.stall(Cycles::new(stall));
                if let Some(per_core) = self.shootdowns.per_core.as_mut() {
                    per_core[core].ipi_stall_cycles += stall;
                }
            }
            for victim in &batch.victims {
                self.invalidate_victim_on(core, victim, charge);
            }
        }

        for (pid, mapping) in &batch.replacements {
            let home = self.core_of(*pid);
            self.install_on(
                home,
                Self::asid_of(*pid),
                mapping,
                InstallInfo::default(),
                charge,
            );
            self.shootdowns.replacements_installed += 1;
        }
    }

    /// Settles a kernel instruction stream: retired on the active core when
    /// `charge` is set, then handed back to MimicOS, whose next fault reuses
    /// its buffer.
    fn settle_stream(&mut self, stream: KernelInstructionStream, charge: bool) {
        if charge {
            self.retire_kernel_ops(self.active, stream.ops().iter().copied());
        }
        self.os.recycle_stream(stream);
    }

    /// Retires kernel work on `core` in kernel mode: compute blocks, and
    /// memory references sent through the cache hierarchy and DRAM.
    fn retire_kernel_ops(&mut self, core: usize, ops: impl IntoIterator<Item = KernelOp>) {
        self.cores[core].core.set_kernel_mode(true);
        for op in ops {
            match op {
                KernelOp::Compute { count } => {
                    self.cores[core].core.retire_compute(count as u64);
                }
                KernelOp::Memory { paddr, kind } => {
                    let latency = self.charge_kernel_access(paddr, kind);
                    self.cores[core].core.retire_memory(latency);
                }
            }
        }
        self.cores[core].core.set_kernel_mode(false);
    }

    fn charge_kernel_access(&mut self, paddr: PhysAddr, kind: AccessType) -> Cycles {
        let access = self.caches.access(paddr, kind, Requestor::Kernel);
        let mut latency = access.latency;
        for line in &access.dram_fetches {
            latency += self.dram.access(&vm_types::MemoryAccess::physical(
                *line,
                kind,
                Requestor::Kernel,
            ));
        }
        for wb in &access.writebacks {
            self.dram.access(&vm_types::MemoryAccess::physical(
                *wb,
                AccessType::Write,
                Requestor::Kernel,
            ));
        }
        latency
    }

    /// Runs the coherence fence and panics on the first violation — the
    /// reporting contract when the fence is armed through
    /// [`SystemConfig::invariant_check_interval`].
    ///
    /// # Panics
    ///
    /// Panics with the violation message when
    /// [`System::check_invariants`] fails.
    fn assert_invariants(&self) {
        if let Err(violation) = self.check_invariants() {
            panic!("coherence fence violated: {violation}");
        }
    }

    /// The runtime coherence fence: cross-checks every piece of cached
    /// translation state against MimicOS's authoritative tables, plus the
    /// machine-wide accounting that ties them together. Arm it with
    /// [`SystemConfig::invariant_check_interval`] or call it directly after
    /// a run; it is too expensive for the hot loop. Its time grows with
    /// the mapping count (the `fence` group of `benches/fault_path.rs`:
    /// 163 840 mappings in about 5 ms on a 2-vCPU x86-64 host), plus per
    /// core a visit to every TLB entry and L0 slot; its heap grows with
    /// the touched 2 MiB physical regions, one 64-byte bitmap each per
    /// frame set.
    ///
    /// Checked per core:
    /// * every TLB entry belongs to a live process and translates exactly
    ///   as the kernel's mapping table says;
    /// * every engine-resident translation (Utopia RestSeg residency) does
    ///   the same;
    /// * every engine-resident range (RMM range tables) belongs to a live
    ///   process and is contained — at the same virtual-to-physical
    ///   offset — in a range the kernel allocated for that process;
    /// * every L0 pointer the software L0 cache would serve belongs to a
    ///   live process and agrees with the mapping that covers its page
    ///   (engines that consult the L0).
    ///
    /// Checked machine-wide:
    /// * mapped buddy-backed bytes (deduplicated by frame; RestSeg pages
    ///   excluded) never exceed what the buddy allocator has handed out;
    /// * no two non-file-backed mappings of live processes overlap
    ///   physically (file-backed pages legitimately share page-cache
    ///   frames);
    /// * the scheduler holds no duplicate or dead process, each queued on
    ///   its home core.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a human-readable message.
    pub fn check_invariants(&self) -> Result<(), String> {
        let num_processes = self.os.num_processes();
        // Midgard's backend TLB caches *Midgard-space* addresses, which
        // have no entry in the kernel's per-process mapping table; for
        // that engine only the ownership checks apply to TLB entries.
        let tlb_holds_native_vas = !matches!(self.config.engine, mmu_sim::EngineConfig::Midgard(_));

        for core in 0..self.num_cores() {
            let c = self.front(core);
            for (asid, cached) in c.mmu.tlb().entries() {
                let idx = asid.raw() as usize;
                if idx >= num_processes {
                    return Err(format!(
                        "core {core}: TLB entry {cached} tagged with unknown asid {}",
                        asid.raw()
                    ));
                }
                let process = self.os.process(ProcessId(idx));
                if process.is_exited() {
                    return Err(format!(
                        "core {core}: TLB entry {cached} survives its dead owner (pid {idx})"
                    ));
                }
                if !tlb_holds_native_vas {
                    continue;
                }
                let expected = process
                    .lookup_mapping(cached.vaddr)
                    .map(|m| m.translate(cached.vaddr));
                if expected != Some(cached.translate(cached.vaddr)) {
                    return Err(format!(
                        "core {core}: stale TLB entry {cached} for pid {idx} \
                         (kernel says {expected:?})"
                    ));
                }
            }
            for (asid, resident) in c.engine.resident_mappings() {
                let idx = asid.raw() as usize;
                if idx >= num_processes {
                    return Err(format!(
                        "core {core}: engine-resident {resident} tagged with unknown asid {}",
                        asid.raw()
                    ));
                }
                let process = self.os.process(ProcessId(idx));
                if process.is_exited() {
                    return Err(format!(
                        "core {core}: engine-resident {resident} survives its dead owner \
                         (pid {idx})"
                    ));
                }
                if process.lookup_mapping(resident.vaddr).map(|m| m.paddr) != Some(resident.paddr) {
                    return Err(format!(
                        "core {core}: stale engine-resident translation {resident} for pid {idx}"
                    ));
                }
            }
            for (asid, range) in c.engine.resident_ranges() {
                let idx = asid.raw() as usize;
                if idx >= num_processes || self.os.process(ProcessId(idx)).is_exited() {
                    return Err(format!(
                        "core {core}: engine range {}+{:#x} survives its dead owner (asid {})",
                        range.virt_start,
                        range.bytes,
                        asid.raw()
                    ));
                }
                // The engine may hold *split* pieces of a kernel range
                // (invalidation splits around reclaimed pages), so the
                // check is containment at the same va->pa offset, not
                // equality.
                let covered = self.os.ranges(ProcessId(idx)).iter().any(|k| {
                    k.virt_start.raw() <= range.virt_start.raw()
                        && range.virt_start.raw() + range.bytes <= k.virt_start.raw() + k.bytes
                        && range.phys_start.raw().wrapping_sub(k.phys_start.raw())
                            == range.virt_start.raw().wrapping_sub(k.virt_start.raw())
                });
                if !covered {
                    return Err(format!(
                        "core {core}: engine range {}->{}+{:#x} for pid {idx} is not backed \
                         by any kernel range",
                        range.virt_start, range.phys_start, range.bytes
                    ));
                }
            }
            if c.engine.uses_l0() {
                self.check_l0(core)?;
            }
        }

        self.check_frames()?;

        // Scheduler sanity: no duplicates, no dead processes, home cores.
        let mut queued = std::collections::BTreeSet::new();
        for (core, pid) in self.os.scheduler().queued_snapshot() {
            if !queued.insert(pid.0) {
                return Err(format!("scheduler holds {pid} on more than one queue"));
            }
            if pid.0 >= num_processes {
                return Err(format!("scheduler holds unknown {pid}"));
            }
            if self.os.process(pid).is_exited() {
                return Err(format!("scheduler still holds dead {pid}"));
            }
            if core != self.core_of(pid) {
                return Err(format!(
                    "scheduler queues {pid} on core {core}, its home is core {}",
                    self.core_of(pid)
                ));
            }
        }

        Ok(())
    }

    /// The fence's L0 check on core `core`: every pointer the L0 would
    /// serve belongs to a live process and agrees with the mapping that
    /// covers its page, base or huge. One visit per L0 slot, whatever the
    /// mapping count.
    fn check_l0(&self, core: usize) -> Result<(), String> {
        let mmu = &self.front(core).mmu;
        for (asid, va) in mmu.l0_pointers() {
            let idx = asid.raw() as usize;
            let owner = (idx < self.os.num_processes()).then(|| self.os.process(ProcessId(idx)));
            let expected = owner
                .filter(|p| !p.is_exited())
                .and_then(|p| p.lookup_mapping(va))
                .map(|m| m.translate(va));
            let served = mmu.l0_peek(asid, va);
            if served != expected {
                return Err(format!(
                    "core {core}: L0 pointer for pid {idx} at {va} serves {served:?}, \
                     kernel says {expected:?}"
                ));
            }
        }
        Ok(())
    }

    /// The fence's machine-wide frame checks, over [`FrameSet`] bitmaps of
    /// 4 KiB frames that grow with the touched 2 MiB physical regions, not
    /// with the mapping count:
    /// * buddy accounting: mapped buddy-backed bytes never exceed what the
    ///   allocator has handed out. Each distinct frame start counts once
    ///   (file-backed pages are legitimately shared), with the size of the
    ///   *last* mapping at it in pid and address order, and RestSeg
    ///   placements (carved outside the buddy's frames) are skipped;
    /// * private disjointness: no two non-file-backed mappings overlap
    ///   physically. Each private mapping sets its frames' bits, and a bit
    ///   already set is an overlap.
    ///
    /// Pass 1 sums every non-RestSeg mapping and marks the starts that
    /// repeat; only if one does (a shared file frame) does pass 2 take
    /// back, at each repeated start, every size but the last.
    fn check_frames(&self) -> Result<(), String> {
        let mut private = FrameSet::default();
        let mut starts = FrameSet::default();
        let mut repeated = BTreeSet::new();
        let mut mapped = 0u64;
        let mut overlap = None;
        // `for_each`, not `for`: driven internally, the nested mapping
        // iterators walked 163 840 mappings in 0.7 ms, against 3.9 ms
        // driven by `next` (2-vCPU x86-64 host).
        self.fenced_mappings().for_each(|m| {
            if m.buddy_backed {
                mapped += m.mapping.page_size.bytes();
                if !starts.insert(m.first_frame()) {
                    repeated.insert(m.first_frame());
                }
            }
            if m.private {
                if let Some(frame) = private.insert_span(m.first_frame(), m.frames()) {
                    overlap.get_or_insert((m, frame));
                }
            }
        });
        if !repeated.is_empty() {
            let mut last_size = BTreeMap::new();
            self.fenced_mappings()
                .filter(|m| m.buddy_backed && repeated.contains(&m.first_frame()))
                .for_each(|m| {
                    if let Some(superseded) =
                        last_size.insert(m.first_frame(), m.mapping.page_size.bytes())
                    {
                        mapped -= superseded;
                    }
                });
        }
        let buddy = self.os.buddy();
        let allocated = buddy.capacity_bytes() - buddy.free_bytes();
        if mapped > allocated {
            return Err(format!(
                "{mapped} mapped buddy-backed bytes exceed the {allocated} bytes the buddy \
                 allocator has handed out"
            ));
        }

        let Some((second, frame)) = overlap else {
            return Ok(());
        };
        // Error path only: the earlier private mapping on the clashing frame.
        let first = self
            .fenced_mappings()
            .find(|m| {
                m.private
                    && (m.pid, m.mapping.vaddr) != (second.pid, second.mapping.vaddr)
                    && (m.first_frame()..m.first_frame() + m.frames()).contains(&frame)
            })
            .expect("a clashing frame has an earlier private owner");
        let (a, b) = if second.mapping.paddr < first.mapping.paddr {
            (second, first)
        } else {
            (first, second)
        };
        Err(format!(
            "private frames overlap: pid {} maps {} and pid {} maps {} into overlapping \
             physical spans at {:#x}",
            a.pid.0,
            a.mapping.vaddr,
            b.pid.0,
            b.mapping.vaddr,
            a.mapping.paddr.raw()
        ))
    }

    /// Every mapping of a live process, in pid order and each process's
    /// address order, classified for the frame checks.
    fn fenced_mappings(&self) -> impl Iterator<Item = FencedMapping> + '_ {
        (0..self.os.num_processes())
            .map(ProcessId)
            .filter(|&pid| !self.os.process(pid).is_exited())
            .flat_map(move |pid| {
                let process = self.os.process(pid);
                process.mappings().map(move |mapping| FencedMapping {
                    pid,
                    mapping,
                    private: !process
                        .vmas
                        .find(mapping.vaddr)
                        .is_some_and(|v| matches!(v.kind, mimic_os::VmaKind::FileBacked { .. })),
                    buddy_backed: self
                        .os
                        .utopia()
                        .is_none_or(|u| u.lookup(pid.0 as u16, mapping.vaddr).is_none()),
                })
            })
    }

    /// Assembles the simulation report for everything executed so far.
    ///
    /// On a single-core system this is exactly the legacy report. With
    /// several cores the instruction counts, walks and translation costs
    /// are summed across cores, the machine's elapsed time is the slowest
    /// core's cycle count (the cores tick in lockstep rounds), and the
    /// engine section reports core 0's frontend.
    pub fn report(&self) -> SimulationReport {
        let os_stats = self.os.stats();
        let dram_stats = self.dram.stats();
        let freq = self.config.core.frequency;

        let app_instructions: u64 = self
            .cores
            .iter()
            .map(|c| c.core.stats().app_instructions.get())
            .sum();
        let kernel_instructions: u64 = self
            .cores
            .iter()
            .map(|c| c.core.stats().kernel_instructions.get())
            .sum();
        let cycles = self
            .cores
            .iter()
            .map(|c| c.core.cycles().raw())
            .max()
            .unwrap_or(0);
        let (ipc, app_ipc) = if let [only] = self.cores.as_slice() {
            (only.core.ipc(), only.core.app_ipc())
        } else if cycles == 0 {
            (0.0, 0.0)
        } else {
            (
                (app_instructions + kernel_instructions) as f64 / cycles as f64,
                app_instructions as f64 / cycles as f64,
            )
        };
        let walks: u64 = (0..self.num_cores())
            .map(|c| self.front(c).mmu.stats().walks.get())
            .sum();
        let l2_tlb_mpki = if self.num_cores() == 1 {
            self.front(0).mmu.stats().l2_mpki(app_instructions)
        } else if app_instructions == 0 {
            0.0
        } else {
            walks as f64 * 1000.0 / app_instructions as f64
        };
        let translation_cycles: u64 = self.cores.iter().map(|c| c.translation_cycles).sum();
        let ptw_count: u64 = self.cores.iter().map(|c| c.ptw_count).sum();
        let ptw_latency_cycles: u64 = self.cores.iter().map(|c| c.ptw_latency_cycles).sum();

        let total_time_ns = Cycles::new(cycles).to_nanos(freq).as_nanos();
        let translation_ns = Cycles::new(translation_cycles).to_nanos(freq).as_nanos();

        SimulationReport {
            workload: self.workload_name.clone(),
            instructions: app_instructions,
            kernel_instructions,
            cycles,
            ipc,
            app_ipc,
            l2_tlb_mpki,
            page_walks: ptw_count,
            avg_ptw_latency_cycles: if ptw_count == 0 {
                0.0
            } else {
                ptw_latency_cycles as f64 / ptw_count as f64
            },
            total_ptw_latency_cycles: ptw_latency_cycles as f64,
            minor_faults: os_stats.minor_faults.get() + os_stats.hugetlb_faults.get(),
            major_faults: os_stats.major_faults.get(),
            swap_in_faults: os_stats.swap_in_faults.get(),
            fault_latency_ns: os_stats.fault_latency_ns.clone(),
            total_fault_ns: os_stats.total_fault_ns,
            total_translation_ns: translation_ns,
            total_time_ns,
            dram_row_conflicts: dram_stats.conflicts(),
            dram_translation_conflicts: dram_stats.translation_metadata_conflicts(),
            swapped_pages: os_stats.reclaimed_pages.get(),
            swap_io_ns: self.os.swap().stats().total_io_ns,
            huge_mappings: os_stats.huge_mappings.get(),
            base_mappings: os_stats.base_mappings.get(),
            engine: self.front(0).engine.report(&self.front(0).mmu),
            shootdowns: (!self.shootdowns.is_zero()).then(|| self.shootdowns.clone()),
            oom: {
                let kills = os_stats.oom_kills.get();
                (kills > 0 || self.oom_failures > 0).then(|| OomStats {
                    kills,
                    scanned_bytes: os_stats.oom_scanned_bytes,
                    freed_bytes: os_stats.oom_freed_bytes,
                    reclaim_retries: os_stats.oom_reclaim_retries.get(),
                    oom_failures: self.oom_failures,
                })
            },
        }
    }
}

/// A mapping of a live process as the fence's frame checks see it.
#[derive(Debug, Clone, Copy)]
struct FencedMapping {
    pid: ProcessId,
    mapping: Mapping,
    /// Held to physical disjointness: not a file page, which may be shared.
    private: bool,
    /// Counted by the buddy accounting: not placed in the Utopia RestSeg,
    /// outside the buddy's frames.
    buddy_backed: bool,
}

impl FencedMapping {
    /// The number of the first 4 KiB frame the mapping covers.
    fn first_frame(&self) -> u64 {
        self.mapping.paddr.raw() >> PageSize::Size4K.shift()
    }

    /// The number of 4 KiB frames the mapping covers.
    fn frames(&self) -> u64 {
        self.mapping.page_size.bytes() >> PageSize::Size4K.shift()
    }
}

/// A set of 4 KiB physical frame numbers, stored as one 512-bit bitmap per
/// touched 2 MiB region. A cursor on the last region looked up spares the
/// hash probe for consecutive frames, which mostly share a region.
#[derive(Debug, Default)]
struct FrameSet {
    /// Region number -> index of its bitmap in `bitmaps`.
    slots: FxHashMap<u64, usize>,
    bitmaps: Vec<[u64; 8]>,
    /// The last region looked up and its slot.
    cursor: Option<(u64, usize)>,
}

impl FrameSet {
    /// Frames per 2 MiB region: the bits of one bitmap.
    const REGION_FRAMES: u64 = 512;

    /// `frame`'s region, and the word and bit that hold it in the
    /// region's bitmap.
    fn position(frame: u64) -> (u64, usize, u64) {
        let region = frame / Self::REGION_FRAMES;
        (
            region,
            (frame % Self::REGION_FRAMES / 64) as usize,
            frame % 64,
        )
    }

    /// The bitmap of `region`, created empty on first use.
    fn bitmap(&mut self, region: u64) -> &mut [u64; 8] {
        let slot = match self.cursor {
            Some((cached, slot)) if cached == region => slot,
            _ => {
                let fresh = self.bitmaps.len();
                let slot = *self.slots.entry(region).or_insert(fresh);
                if slot == fresh {
                    self.bitmaps.push([0; 8]);
                }
                self.cursor = Some((region, slot));
                slot
            }
        };
        &mut self.bitmaps[slot]
    }

    /// Adds the `count` frames from `first` on and returns the lowest of
    /// them that was already in the set, if any.
    fn insert_span(&mut self, first: u64, count: u64) -> Option<u64> {
        // A 4 KiB mapping, the common case, needs no mask arithmetic.
        if count == 1 {
            return (!self.insert(first)).then_some(first);
        }
        let (end, mut frame) = (first + count, first);
        let mut clash = None;
        while frame < end {
            // The span's bits in `frame`'s 64-frame word.
            let (region, word, bit) = Self::position(frame);
            let bits = (64 - bit).min(end - frame);
            let mask = (u64::MAX >> (64 - bits)) << bit;
            let word = &mut self.bitmap(region)[word];
            if clash.is_none() && *word & mask != 0 {
                clash = Some(frame - bit + u64::from((*word & mask).trailing_zeros()));
            }
            *word |= mask;
            frame += bits;
        }
        clash
    }

    /// Adds `frame`; `false` if it was already in the set.
    fn insert(&mut self, frame: u64) -> bool {
        let (region, word, bit) = Self::position(frame);
        let word = &mut self.bitmap(region)[word];
        let fresh = *word >> bit & 1 == 0;
        *word |= 1 << bit;
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmu_sim::PageTableKind;
    use sim_core::SliceFrontend;
    use vm_types::DetRng;

    fn linear_trace(base: u64, count: u64, stride: u64) -> Vec<Instruction> {
        (0..count)
            .map(|i| {
                Instruction::load(
                    VirtAddr::new(0x400 + (i % 64) * 4),
                    VirtAddr::new(base + i * stride),
                )
            })
            .collect()
    }

    fn small_system() -> System {
        let mut system = System::new(SystemConfig::small_test());
        system
            .mmap_anonymous(VirtAddr::new(0x1000_0000), 64 * 1024 * 1024)
            .unwrap();
        system
    }

    #[test]
    fn runs_a_simple_trace_to_completion() {
        let mut system = small_system();
        let trace = linear_trace(0x1000_0000, 5000, 64);
        let report = system.run(&mut SliceFrontend::new("linear", trace), None);
        assert_eq!(report.instructions, 5000);
        assert!(report.cycles > 0);
        assert!(report.ipc > 0.0);
        assert!(report.minor_faults > 0, "first-touch faults expected");
        assert!(
            report.kernel_instructions > 0,
            "kernel streams must be injected"
        );
        assert_eq!(system.segfaults(), 0);
    }

    #[test]
    fn max_instructions_limit_is_respected() {
        let mut system = small_system();
        let trace = linear_trace(0x1000_0000, 10_000, 64);
        let report = system.run(&mut SliceFrontend::new("limited", trace), Some(1000));
        assert_eq!(report.instructions, 1000);
    }

    #[test]
    fn detailed_mode_injects_kernel_work_emulation_does_not() {
        let trace = linear_trace(0x1000_0000, 3000, 4096);

        let mut detailed = System::new(SystemConfig::small_test());
        detailed
            .mmap_anonymous(VirtAddr::new(0x1000_0000), 64 * 1024 * 1024)
            .unwrap();
        let det_report = detailed.run(&mut SliceFrontend::new("d", trace.clone()), None);

        let mut emulation = System::new(SystemConfig::small_test().with_emulation_baseline());
        emulation
            .mmap_anonymous(VirtAddr::new(0x1000_0000), 64 * 1024 * 1024)
            .unwrap();
        let emu_report = emulation.run(&mut SliceFrontend::new("e", trace), None);

        assert!(det_report.kernel_instructions > 0);
        assert_eq!(emu_report.kernel_instructions, 0);
        // Both modes resolve the same faults functionally.
        assert_eq!(det_report.minor_faults, emu_report.minor_faults);
        // The detailed and emulation modes disagree on timing — that
        // disagreement is exactly the accuracy gap of Fig. 8.
        assert_ne!(det_report.cycles, emu_report.cycles);
    }

    #[test]
    fn accesses_outside_vmas_are_counted_as_segfaults() {
        let mut system = small_system();
        let trace = vec![Instruction::load(
            VirtAddr::new(0x400),
            VirtAddr::new(0xdead_0000_0000),
        )];
        let report = system.run(&mut SliceFrontend::new("segv", trace), None);
        assert_eq!(system.segfaults(), 1);
        assert_eq!(report.instructions, 1);
    }

    #[test]
    fn page_walks_generate_translation_metadata_dram_traffic() {
        let mut system = small_system();
        // Strided accesses across many pages defeat the small test TLB.
        let trace = linear_trace(0x1000_0000, 4000, 2 * 1024 * 1024 / 4);
        let report = system.run(&mut SliceFrontend::new("stride", trace), None);
        assert!(report.page_walks > 0);
        assert!(report.avg_ptw_latency_cycles > 0.0);
        let dram = system.dram().stats();
        assert!(dram.accesses_by(Requestor::PageTableWalker) > 0);
    }

    #[test]
    fn different_page_tables_yield_different_walk_latencies() {
        let trace = linear_trace(0x1000_0000, 6000, 4096);
        let mut results = Vec::new();
        for kind in [PageTableKind::Radix, PageTableKind::HashedOpenAddressing] {
            let mut system =
                System::new(SystemConfig::small_test().with_design(crate::Design::PageTable(kind)));
            system
                .mmap_anonymous(VirtAddr::new(0x1000_0000), 64 * 1024 * 1024)
                .unwrap();
            let report = system.run(&mut SliceFrontend::new("pt", trace.clone()), None);
            results.push(report.avg_ptw_latency_cycles);
        }
        // The hashed page table's walks should not be slower than radix's on
        // average for this TLB-unfriendly pattern.
        assert!(results[1] <= results[0] * 1.5);
    }

    #[test]
    fn report_time_fractions_are_consistent() {
        let mut system = small_system();
        let trace = linear_trace(0x1000_0000, 3000, 64);
        let report = system.run(&mut SliceFrontend::new("frac", trace), None);
        assert!(report.translation_time_fraction() >= 0.0);
        assert!(report.translation_time_fraction() <= 1.0);
        assert!(report.total_time_ns > 0.0);
    }

    /// Every TLB entry and engine-resident translation must agree with the
    /// owning process's mapping table — the coherence invariant of the
    /// shootdown subsystem.
    fn assert_translation_coherence(system: &System) {
        for (asid, cached) in system.mmu().tlb().entries() {
            let process = system.os().process(ProcessId(asid.raw() as usize));
            let authoritative = process.lookup_mapping(cached.vaddr);
            let expected = authoritative.map(|m| m.translate(cached.vaddr));
            assert_eq!(
                expected,
                Some(cached.translate(cached.vaddr)),
                "stale TLB entry {cached} for asid {}",
                asid.raw()
            );
        }
        for (asid, resident) in system.engine().resident_mappings() {
            let process = system.os().process(ProcessId(asid.raw() as usize));
            assert_eq!(
                process.lookup_mapping(resident.vaddr).map(|m| m.paddr),
                Some(resident.paddr),
                "stale engine-resident translation {resident}"
            );
        }
    }

    fn pressure_config() -> SystemConfig {
        let mut config = SystemConfig::small_test();
        config.os.memory_bytes = 16 * 1024 * 1024;
        config.os.swap_bytes = 64 * 1024 * 1024;
        config.os.swap_threshold = 0.5;
        config.os.policy = mimic_os::AllocationPolicy::BuddyFourK;
        config.os.thp = mimic_os::ThpConfig::disabled();
        config.os.populate_page_cache = false;
        config
    }

    #[test]
    fn reclaim_shoots_stale_translations_out_of_the_mmu() {
        let mut system = System::new(pressure_config());
        system
            .mmap_anonymous(VirtAddr::new(0x1000_0000), 64 * 1024 * 1024)
            .unwrap();
        // Stream DOWN over more pages than memory holds: reclaim picks the
        // lowest-addressed resident pages, which under this order are the
        // most recently touched — i.e. TLB-resident — ones, the worst case
        // for coherence.
        let trace: Vec<Instruction> = (0..8000u64)
            .map(|i| {
                Instruction::load(
                    VirtAddr::new(0x400 + (i % 64) * 4),
                    VirtAddr::new(0x1000_0000 + (8000 - i) * 4096),
                )
            })
            .collect();
        let report = system.run(&mut SliceFrontend::new("pressure", trace), None);
        assert!(report.swapped_pages > 0, "pressure must swap");
        let shootdowns = report.shootdowns.expect("swapping implies shootdowns");
        assert!(shootdowns.batches > 0);
        assert_eq!(shootdowns.pages, report.swapped_pages);
        assert!(
            shootdowns.tlb_entries_dropped > 0,
            "reclaimed pages were TLB-resident; the shootdown must drop them"
        );
        assert_translation_coherence(&system);
        // Revisit a swapped-out page: it must fault back in (SwapIn)
        // instead of silently translating through a stale entry into a
        // reused frame.
        let swapped_va = (0..8000u64)
            .map(|i| VirtAddr::new(0x1000_0000 + (8000 - i) * 4096))
            .find(|&va| system.os().process(system.pid()).is_swapped(va))
            .expect("a swapped page must exist after the pressure run");
        let swap_ins_before = system.os().stats().swap_in_faults.get();
        let revisit = vec![Instruction::load(VirtAddr::new(0x400), swapped_va)];
        system.run(&mut SliceFrontend::new("revisit", revisit), None);
        assert_eq!(
            system.os().stats().swap_in_faults.get(),
            swap_ins_before + 1,
            "the revisit must take a swap-in fault, not a stale TLB hit"
        );
    }

    #[test]
    fn khugepaged_collapse_retargets_translations_to_the_new_frame() {
        // Before the shootdown subsystem, a collapse freed the base frames
        // but the MMU kept translating into them through stale TLB entries
        // and page-table leaves.
        let mut config = SystemConfig::small_test();
        config.os.thp = mimic_os::ThpConfig {
            mode: mimic_os::ThpMode::Never,
            ..mimic_os::ThpConfig::linux_default()
        };
        config.housekeeping_interval = 2_000;
        let mut system = System::new(config);
        system
            .mmap_anonymous(VirtAddr::new(0x1000_0000), 8 * 1024 * 1024)
            .unwrap();
        // Touch every base page of a few regions, then keep running so a
        // housekeeping tick collapses them.
        let trace = linear_trace(0x1000_0000, 6000, 4096);
        let report = system.run(&mut SliceFrontend::new("collapse", trace), None);
        assert!(
            system.os().khugepaged().collapses.get() > 0,
            "the run must collapse at least one region"
        );
        let shootdowns = report.shootdowns.expect("collapses imply shootdowns");
        assert!(shootdowns.replacements_installed > 0);
        assert_translation_coherence(&system);
        // The collapsed region translates to the huge mapping's frame.
        let huge = system
            .os()
            .process(system.pid())
            .mappings()
            .find(|m| m.page_size == PageSize::Size2M)
            .expect("collapse created a huge mapping");
        let asid = System::asid_of(system.pid());
        let result = {
            let c = front_mut(&mut system.frontends, 0);
            c.engine.translate(&mut c.mmu, asid, huge.vaddr)
        };
        assert_eq!(result.paddr, Some(huge.paddr));
    }

    #[test]
    fn emulation_mode_applies_shootdowns_functionally() {
        let mut system = System::new(pressure_config().with_emulation_baseline());
        system
            .mmap_anonymous(VirtAddr::new(0x1000_0000), 64 * 1024 * 1024)
            .unwrap();
        let trace = linear_trace(0x1000_0000, 8000, 4096);
        let report = system.run(&mut SliceFrontend::new("emul", trace), None);
        assert!(report.swapped_pages > 0);
        assert!(report.shootdowns.is_some());
        assert_translation_coherence(&system);
    }

    #[test]
    fn process_reports_split_faults_by_access_kind() {
        let (mut system, a, b) = two_process_system(true);
        let mut fa = SliceFrontend::new("A", linear_trace(0x1000_0000, 3000, 4096));
        let stores: Vec<Instruction> = (0..3000u64)
            .map(|i| {
                Instruction::store(VirtAddr::new(0x400), VirtAddr::new(0x1000_0000 + i * 4096))
            })
            .collect();
        let mut fb = SliceFrontend::new("B", stores);
        let mut programs: Vec<(ProcessId, &mut dyn TraceSource)> = vec![(a, &mut fa), (b, &mut fb)];
        let report = system.run_multiprogram(&mut programs, None);
        let ra = &report.processes[0];
        let rb = &report.processes[1];
        assert!(ra.read_faults > 0, "loads fault as reads");
        assert_eq!(ra.write_faults, 0);
        assert!(rb.write_faults > 0, "stores fault as writes");
        assert_eq!(rb.read_faults, 0);
        assert_eq!(
            ra.read_faults + rb.write_faults,
            system.os().stats().read_faults.get() + system.os().stats().write_faults.get()
        );
    }

    #[test]
    fn populate_prefaults_the_whole_vma() {
        let mut system = System::new(SystemConfig::small_test());
        system
            .mmap_anonymous(VirtAddr::new(0x1000_0000), 8 * 1024 * 1024)
            .unwrap();
        let pid = system.pid();
        system.populate(pid);
        assert!(system.os().process(pid).resident_bytes() >= 8 * 1024 * 1024);
        // A populated run takes no further faults.
        let before = system.os().stats().total_faults();
        let trace = linear_trace(0x1000_0000, 2000, 4096);
        system.run(&mut SliceFrontend::new("warm", trace), None);
        assert_eq!(system.os().stats().total_faults(), before);
    }

    mod engines {
        use super::*;
        use crate::Design;
        use mimic_os::AllocationPolicy;
        use mmu_sim::EngineReport;

        /// Whether `section` is the engine report `design` writes (none for
        /// a page table).
        fn section_matches(design: Design, section: &Option<EngineReport>) -> bool {
            matches!(
                (design, section),
                (Design::PageTable(_), None)
                    | (Design::Midgard, Some(EngineReport::Midgard { .. }))
                    | (Design::Rmm, Some(EngineReport::Rmm { .. }))
                    | (Design::Utopia(_), Some(EngineReport::Utopia { .. }))
            )
        }

        /// A short GUPS run on `small_test` with 4 KiB pages (so the TLBs
        /// miss and each design's translation path has work): uniform
        /// random loads over one 16 MiB region.
        fn gups_report(design: Design) -> SimulationReport {
            const BASE: u64 = 0x1000_0000;
            const FOOTPRINT: u64 = 16 * 1024 * 1024;
            let mut config = SystemConfig::small_test().with_design(design);
            config.os.thp = mimic_os::ThpConfig::disabled();
            let mut system = System::new(config);
            system
                .mmap_anonymous(VirtAddr::new(BASE), FOOTPRINT)
                .unwrap();
            let mut rng = DetRng::new(0x6095);
            let trace: Vec<Instruction> = (0..6_000u64)
                .map(|i| {
                    let offset = rng.gen_range(0, FOOTPRINT) & !7;
                    Instruction::load(
                        VirtAddr::new(0x400 + (i % 64) * 4),
                        VirtAddr::new(BASE + offset),
                    )
                })
                .collect();
            system.run(&mut SliceFrontend::new("GUPS", trace), None)
        }

        /// Every design runs end to end through `System`, writes its own
        /// engine section, and takes its own translation path: page tables
        /// walk, Midgard's VLBs and backend serve, RMM's ranges translate
        /// (and absorb the walks radix takes), Utopia's RestSeg resolves
        /// kernel placements.
        #[test]
        fn every_design_engages_its_own_path() {
            let mut radix_walks = None;
            for design in Design::ALL {
                let label = design.label();
                let report = gups_report(design);
                assert_eq!(report.instructions, 6_000, "{label}");
                // Eager paging maps each VMA whole at mmap: RMM never faults.
                assert_eq!(
                    report.minor_faults > 0,
                    design != Design::Rmm,
                    "{label}: faults flow through MimicOS"
                );
                assert!(
                    section_matches(design, &report.engine),
                    "{label}: wrong engine section {:?}",
                    report.engine
                );
                let json = serde_json::to_string(&report).unwrap();
                match (design, report.engine) {
                    (Design::PageTable(kind), None) => {
                        assert!(report.page_walks > 0, "{label}");
                        if kind == PageTableKind::Radix {
                            radix_walks = Some(report.page_walks);
                        }
                        assert!(
                            !json.contains("\"engine\":"),
                            "page-table reports serialize without an engine section"
                        );
                    }
                    (
                        Design::Midgard,
                        Some(EngineReport::Midgard {
                            translations,
                            l1_vlb_hits,
                            l2_vlb_hits,
                            backend_walks,
                            ..
                        }),
                    ) => {
                        assert!(translations > 0);
                        assert!(l1_vlb_hits > 0, "one VMA: the L1 VLB serves it");
                        assert!(backend_walks + l1_vlb_hits + l2_vlb_hits > 0);
                    }
                    (
                        Design::Rmm,
                        Some(EngineReport::Rmm {
                            range_translations,
                            range_coverage,
                            ranges,
                            ..
                        }),
                    ) => {
                        assert!(ranges > 0, "eager paging must register ranges");
                        assert!(range_translations > 0);
                        assert!(range_coverage > 0.9, "coverage {range_coverage}");
                        let radix = radix_walks.expect("radix runs first");
                        assert!(
                            report.page_walks < radix,
                            "ranges must absorb page walks ({} vs {radix})",
                            report.page_walks
                        );
                    }
                    (
                        Design::Utopia(_),
                        Some(EngineReport::Utopia {
                            lookups,
                            restseg_hits,
                            rsw_fetches,
                            ..
                        }),
                    ) => {
                        assert!(lookups > 0, "every TLB miss pays the RestSeg lookup");
                        assert!(restseg_hits > 0, "kernel placements resolve in the RestSeg");
                        assert!(rsw_fetches > 0, "tag-array traffic reaches the hierarchy");
                    }
                    _ => unreachable!("section_matches checked the pairing"),
                }
            }
        }

        #[test]
        #[should_panic(expected = "the RMM engine needs eager paging")]
        fn an_rmm_engine_without_eager_paging_is_rejected() {
            let config = SystemConfig::small_test()
                .with_design(Design::Rmm)
                .with_allocation_policy(AllocationPolicy::BuddyFourK);
            System::new(config);
        }

        #[test]
        #[should_panic(expected = "the Utopia engine needs the Utopia policy")]
        fn a_utopia_engine_without_its_restseg_policy_is_rejected() {
            let utopia =
                Design::Utopia(mimic_os::UtopiaConfig::new(32 << 20, 16, PageSize::Size4K));
            let config = SystemConfig::small_test()
                .with_design(utopia)
                .with_allocation_policy(AllocationPolicy::LinuxThp);
            System::new(config);
        }

        #[test]
        fn every_design_runs_multiprogram_with_per_process_attribution() {
            for design in Design::ALL {
                let label = design.label();
                let mut config = SystemConfig::small_test().with_design(design);
                config.os.sched_quantum = 500;
                let mut system = System::new(config);
                let a = system.pid();
                let b = system.spawn_process();
                for pid in [a, b] {
                    system
                        .mmap_anonymous_for(pid, VirtAddr::new(0x1000_0000), 8 * 1024 * 1024)
                        .unwrap();
                }
                let mut fa = SliceFrontend::new("A", linear_trace(0x1000_0000, 3000, 64));
                let mut fb = SliceFrontend::new("B", linear_trace(0x1000_0000, 3000, 4096));
                let mut programs: Vec<(ProcessId, &mut dyn TraceSource)> =
                    vec![(a, &mut fa), (b, &mut fb)];
                let report = system.run_multiprogram(&mut programs, None);
                assert_eq!(report.rollup.instructions, 6000, "{label}");
                assert!(report.context_switches > 0, "{label}");
                // Eager paging maps each VMA whole at mmap: RMM never faults.
                assert!(
                    report
                        .processes
                        .iter()
                        .all(|p| (p.minor_faults > 0) == (design != Design::Rmm)),
                    "{label}: every process faults"
                );
                assert!(
                    section_matches(design, &report.rollup.engine),
                    "{label}: wrong engine section {:?}",
                    report.rollup.engine
                );
            }
        }
    }

    fn two_process_system(asid_tags: bool) -> (System, ProcessId, ProcessId) {
        let mut config = SystemConfig::small_test();
        config.mmu.asid_tlb_tags = asid_tags;
        let mut system = System::new(config);
        let a = system.pid();
        let b = system.spawn_process();
        system
            .mmap_anonymous_for(a, VirtAddr::new(0x1000_0000), 16 * 1024 * 1024)
            .unwrap();
        system
            .mmap_anonymous_for(b, VirtAddr::new(0x1000_0000), 16 * 1024 * 1024)
            .unwrap();
        (system, a, b)
    }

    #[test]
    fn multiprogram_run_interleaves_and_reports_per_process() {
        let (mut system, a, b) = two_process_system(true);
        let mut fa = SliceFrontend::new("A", linear_trace(0x1000_0000, 8000, 64));
        let mut fb = SliceFrontend::new("B", linear_trace(0x1000_0000, 6000, 4096));
        let report = {
            let mut programs: Vec<(ProcessId, &mut dyn TraceSource)> =
                vec![(a, &mut fa), (b, &mut fb)];
            system.run_multiprogram(&mut programs, None)
        };
        assert_eq!(report.processes.len(), 2);
        let ra = &report.processes[0];
        let rb = &report.processes[1];
        assert_eq!(ra.workload, "A");
        assert_eq!(rb.workload, "B");
        assert_eq!(ra.instructions, 8000);
        assert_eq!(rb.instructions, 6000);
        assert_eq!(report.rollup.instructions, 14_000);
        assert_eq!(ra.instructions, ra.scheduled_instructions);
        assert!(report.context_switches > 0, "quantum is 2500 instructions");
        assert!(ra.minor_faults > 0);
        assert!(rb.minor_faults > 0);
        // Same virtual addresses, distinct address spaces: both took their
        // own faults and their own page walks.
        assert!(ra.tlb_translations > 0);
        assert!(rb.tlb_translations > 0);
        // Per-process cycles sum to the total (every cycle is attributed).
        assert!(ra.cycles + rb.cycles <= report.rollup.cycles);
    }

    #[test]
    fn asid_tags_avoid_flush_induced_tlb_misses() {
        let run = |asid_tags: bool| {
            let (mut system, a, b) = two_process_system(asid_tags);
            // Small working sets that fit the TLB, revisited every quantum.
            let mut fa = SliceFrontend::new("A", linear_trace(0x1000_0000, 12_000, 0));
            let mut fb = SliceFrontend::new("B", linear_trace(0x1000_0000, 12_000, 0));
            let mut programs: Vec<(ProcessId, &mut dyn TraceSource)> =
                vec![(a, &mut fa), (b, &mut fb)];
            let report = system.run_multiprogram(&mut programs, None);
            let walks: u64 = report.processes.iter().map(|p| p.page_walks).sum();
            (report, walks)
        };
        let (tagged_report, tagged_walks) = run(true);
        let (flushed_report, flushed_walks) = run(false);
        assert_eq!(tagged_report.switch_flushed_tlb_entries, 0);
        assert!(flushed_report.switch_flushed_tlb_entries > 0);
        assert!(
            tagged_walks < flushed_walks,
            "ASID tags must avoid flush-induced walks: {tagged_walks} vs {flushed_walks}"
        );
    }

    #[test]
    fn multiprogram_respects_the_total_instruction_limit() {
        let (mut system, a, b) = two_process_system(true);
        let mut fa = SliceFrontend::new("A", linear_trace(0x1000_0000, 50_000, 64));
        let mut fb = SliceFrontend::new("B", linear_trace(0x1000_0000, 50_000, 64));
        let mut programs: Vec<(ProcessId, &mut dyn TraceSource)> = vec![(a, &mut fa), (b, &mut fb)];
        let report = system.run_multiprogram(&mut programs, Some(10_000));
        assert_eq!(report.rollup.instructions, 10_000);
        let per_proc: u64 = report.processes.iter().map(|p| p.instructions).sum();
        assert_eq!(per_proc, 10_000);
    }

    /// A machine so small that two modest processes cannot coexist: 4 MiB
    /// of memory, no swap to reclaim into — the OOM killer's home turf.
    fn oom_pressure_config() -> SystemConfig {
        let mut config = SystemConfig::small_test();
        config.os.memory_bytes = 4 * 1024 * 1024;
        config.os.swap_bytes = 0;
        config.os.policy = mimic_os::AllocationPolicy::BuddyFourK;
        config.os.thp = mimic_os::ThpConfig::disabled();
        config.os.populate_page_cache = false;
        config
    }

    #[test]
    fn oom_failures_are_counted_apart_from_segfaults() {
        // A sole process that outgrows memory: there is no victim to kill
        // (the faulter is never its own victim), so the faults fail — as
        // OOM failures, not as the segfaults the old catch-all arm charged.
        let mut system = System::new(oom_pressure_config());
        system
            .mmap_anonymous(VirtAddr::new(0x1000_0000), 8 * 1024 * 1024)
            .unwrap();
        let trace = linear_trace(0x1000_0000, 2000, 4096);
        let report = system.run(&mut SliceFrontend::new("hog", trace), None);
        assert_eq!(report.instructions, 2000, "failed accesses are skipped");
        assert_eq!(system.segfaults(), 0, "pressure is not an addressing error");
        assert!(system.oom_failures() > 0);
        let oom = report.oom.expect("oom section appears once failures occur");
        assert_eq!(oom.oom_failures, system.oom_failures());
        assert_eq!(oom.kills, 0);
        assert!(oom.reclaim_retries > 0, "reclaim ran before giving up");
        assert!(!system.os().process(system.pid()).is_exited());
        system.check_invariants().unwrap();
    }

    #[test]
    fn oom_kill_sacrifices_a_process_and_attributes_the_survivors() {
        let mut config = oom_pressure_config();
        config.os.sched_quantum = 500;
        let mut system = System::new(config);
        let a = system.pid();
        let b = system.spawn_process();
        for pid in [a, b] {
            system
                .mmap_anonymous_for(pid, VirtAddr::new(0x1000_0000), 16 * 1024 * 1024)
                .unwrap();
        }
        // The light process loops on one page; the hog streams through
        // 12 MiB of a 4 MiB machine, forcing the kernel to sacrifice the
        // light process (the faulter is exempt) and then to fail outright
        // once no victims remain.
        let mut fa = SliceFrontend::new("light", linear_trace(0x1000_0000, 20_000, 0));
        let mut fb = SliceFrontend::new("hog", linear_trace(0x1000_0000, 3000, 4096));
        let report = {
            let mut programs: Vec<(ProcessId, &mut dyn TraceSource)> =
                vec![(a, &mut fa), (b, &mut fb)];
            system.run_multiprogram(&mut programs, None)
        };
        let oom = report
            .rollup
            .oom
            .expect("pressure must reach the OOM killer");
        assert!(oom.kills >= 1);
        assert!(oom.freed_bytes > 0);
        let light = &report.processes[0];
        let hog = &report.processes[1];
        assert_eq!(light.exit_status, ProcessExitStatus::OomKilled);
        assert_eq!(hog.exit_status, ProcessExitStatus::Completed);
        assert_eq!(hog.instructions, 3000, "the survivor runs to completion");
        assert!(light.instructions < 20_000, "the victim died mid-trace");
        assert!(hog.oom_failures > 0, "with no victims left, faults fail");
        assert_eq!(light.segfaults + hog.segfaults, 0);
        assert_eq!(
            report
                .processes
                .iter()
                .filter(|p| p.exit_status == ProcessExitStatus::OomKilled)
                .count() as u64,
            oom.kills,
            "each kill terminates exactly one reported process"
        );
        assert_eq!(system.os().process(a).resident_bytes(), 0);
        assert_translation_coherence(&system);
        system.check_invariants().unwrap();
    }

    #[test]
    fn segfaulted_processes_report_their_exit_status() {
        let mut system = small_system();
        let pid = system.pid();
        let mut f = SliceFrontend::new(
            "segv",
            vec![Instruction::load(
                VirtAddr::new(0x400),
                VirtAddr::new(0xdead_0000_0000),
            )],
        );
        let report = {
            let mut programs: Vec<(ProcessId, &mut dyn TraceSource)> = vec![(pid, &mut f)];
            system.run_multiprogram(&mut programs, None)
        };
        assert_eq!(
            report.processes[0].exit_status,
            ProcessExitStatus::Segfaulted
        );
        assert_eq!(report.processes[0].oom_failures, 0);
        assert!(
            report.rollup.oom.is_none(),
            "no oom section without pressure"
        );
    }

    #[test]
    fn the_fence_catches_a_planted_stale_translation() {
        let mut system = small_system();
        let trace = linear_trace(0x1000_0000, 200, 4096);
        system.run(&mut SliceFrontend::new("warm", trace), None);
        system.check_invariants().unwrap();
        // Install a translation the kernel never established: the fence
        // must flag it (this is exactly the corruption a missed shootdown
        // would leave behind).
        let bogus = Mapping {
            vaddr: VirtAddr::new(0xdead_0000),
            paddr: PhysAddr::new(0x30_0000),
            page_size: PageSize::Size4K,
        };
        let asid = System::asid_of(system.pid());
        front_mut(&mut system.frontends, 0)
            .mmu
            .install_mapping(asid, &bogus);
        let violation = system.check_invariants().unwrap_err();
        assert!(
            violation.contains("stale"),
            "unexpected message: {violation}"
        );
    }

    /// A stale L0 pointer at a page inside a 2 MiB mapping, not at its
    /// base: a check that compared pointers only at mapping bases had
    /// nothing to compare it with; the fence holds it to the mapping that
    /// covers its page.
    #[test]
    fn the_l0_check_catches_a_stale_pointer_inside_a_huge_mapping() {
        let mut system = System::new(SystemConfig::small_test());
        let base = VirtAddr::new(0x4000_0000);
        system.mmap_anonymous(base, 4 * 1024 * 1024).unwrap();
        let pid = system.pid();
        system.populate(pid);
        let huge = system.os.process(pid).lookup_mapping(base).unwrap();
        assert_eq!(huge.page_size, PageSize::Size2M, "populate maps THP");
        // The second access hits the 2 MiB L1 bank and records the pointer.
        let inside = base.add(0x5000);
        system.run(
            &mut SliceFrontend::new("touch", linear_trace(inside.raw(), 2, 0)),
            None,
        );
        system.check_l0(0).unwrap();
        // Move the page to another frame without a shootdown.
        system.os.process_mut(pid).insert_mapping(Mapping {
            paddr: huge.paddr.add(PageSize::Size2M.bytes()),
            ..huge
        });
        assert!(system
            .front(0)
            .mmu
            .l0_pointers()
            .any(|(_, va)| va == inside));
        assert!(system.os.process(pid).mapping_at(inside).is_none());
        let violation = system.check_l0(0).unwrap_err();
        assert!(
            violation.contains("L0 pointer"),
            "unexpected message: {violation}"
        );
        // Drop the mapping, still without a shootdown: a pointer served for
        // a page no live mapping covers is a violation too, not a pointer
        // with nothing to compare against.
        system.os.process_mut(pid).remove_mapping(inside).unwrap();
        assert!(system.os.process(pid).lookup_mapping(inside).is_none());
        let violation = system.check_l0(0).unwrap_err();
        assert!(
            violation.contains("kernel says None"),
            "unexpected message: {violation}"
        );
    }

    #[test]
    fn oom_kill_keeps_every_design_coherent_at_one_and_four_cores() {
        for cores in [1usize, 4] {
            for design in crate::Design::ALL {
                // A RestSeg that fits the 4 MiB machine.
                let design = design.with_restseg_bytes(2 * 1024 * 1024);
                let name = design.label();
                let mut config = oom_pressure_config()
                    .with_design(design)
                    .with_cores(cores)
                    .with_invariant_checks(512);
                config.os.sched_quantum = 500;
                let mut system = System::new(config);
                let a = system.pid();
                let b = system.spawn_process();
                for pid in [a, b] {
                    system
                        .mmap_anonymous_for(pid, VirtAddr::new(0x1000_0000), 16 * 1024 * 1024)
                        .unwrap();
                }
                let mut fa = SliceFrontend::new("light", linear_trace(0x1000_0000, 20_000, 0));
                let mut fb = SliceFrontend::new("hog", linear_trace(0x1000_0000, 3000, 4096));
                let report = {
                    let mut programs: Vec<(ProcessId, &mut dyn TraceSource)> =
                        vec![(a, &mut fa), (b, &mut fb)];
                    system.run_multiprogram(&mut programs, None)
                };
                let oom = report.rollup.oom.unwrap_or_default();
                assert!(oom.kills >= 1, "{name}/{cores} cores: pressure must kill");
                system
                    .check_invariants()
                    .unwrap_or_else(|v| panic!("{name}/{cores} cores: {v}"));
            }
        }
    }

    /// A populated system of design `Design::ALL[cell]` (serial radix and
    /// parallel hashed walks among them, and an 8 MiB RestSeg), plus a
    /// region that is mapped but untouched, so translations into it fault
    /// *after* a walk.
    fn slice_log_system(cell: usize) -> System {
        let design = crate::Design::ALL[cell].with_restseg_bytes(8 * 1024 * 1024);
        let mut system = System::new(SystemConfig::small_test().with_design(design));
        system
            .mmap_anonymous(VirtAddr::new(0x1000_0000), 4 * 1024 * 1024)
            .unwrap();
        system.populate(system.pid());
        system
            .mmap_anonymous(VirtAddr::new(0x4000_0000), 4 * 1024 * 1024)
            .unwrap();
        system
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(40))]

        /// The compact log loses nothing: whatever `(paddr, fixed_latency,
        /// walk.parallel, walk.accesses)` an engine produces for an access,
        /// the barrier replays exactly that — for every engine, both walk
        /// shapes, TLB hits, walks and the fault that ends a slice.
        #[test]
        fn the_slice_log_round_trips_every_translation(
            cell in 0usize..crate::Design::ALL.len(),
            seed in 0u64..1_000_000,
            len in 1usize..600,
            fault_at in 0usize..900,
        ) {
            // Identically built twins: one runs the worker's local phase,
            // the other translates access by access as the reference.
            let mut logged = slice_log_system(cell);
            let mut reference = slice_log_system(cell);
            let asid = System::asid_of(logged.pid());
            let mut state = seed;
            let instrs: Vec<Instruction> = (0..len)
                .map(|i| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let pc = VirtAddr::new(0x400 + 4 * i as u64);
                    let offset = (state >> 20) % (4 * 1024 * 1024);
                    match (i == fault_at, state % 3) {
                        (true, _) => Instruction::load(pc, VirtAddr::new(0x4000_0000 + offset)),
                        (false, 0) => Instruction::compute(pc),
                        (false, 1) => Instruction::store(pc, VirtAddr::new(0x1000_0000 + offset)),
                        (false, _) => Instruction::load(pc, VirtAddr::new(0x1000_0000 + offset)),
                    }
                })
                .collect();

            let mut log = SliceLog::default();
            front_mut(&mut logged.frontends, 0).run_slice_local(asid, &instrs, &mut log);

            let front = front_mut(&mut reference.frontends, 0);
            let mut replay = log.replay();
            let (mut computes, mut faulted) = (0u64, false);
            for instr in &instrs {
                let Some((vaddr, kind)) = instr.memory else {
                    computes += 1;
                    continue;
                };
                let expected = front.local_translate(asid, vaddr);
                if expected.paddr.is_none() {
                    let fault = log.fault().expect("the reference faulted, the log did not");
                    proptest::prop_assert_eq!(
                        (fault.pc, fault.vaddr, fault.kind),
                        (instr.pc, vaddr, kind)
                    );
                    proptest::prop_assert_eq!(fault.translation.attempt(), expected.attempt());
                    faulted = true;
                    break;
                }
                let (pc, logged_kind, attempt) = replay.next().expect("an access went unlogged");
                proptest::prop_assert_eq!((pc, logged_kind), (instr.pc, kind));
                proptest::prop_assert_eq!(attempt, expected.attempt());
            }
            proptest::prop_assert!(replay.next().is_none(), "the log holds extra accesses");
            proptest::prop_assert_eq!(log.computes, computes);
            proptest::prop_assert_eq!(log.fault().is_some(), faulted);
        }
    }

    /// A walk longer than `WalkAccessList`'s inline capacity of 8 (a long
    /// hash chain) is logged and replayed whole, as an access and as the
    /// fault that ends a slice.
    #[test]
    fn a_spilled_walk_survives_the_slice_log() {
        let addrs: Vec<PhysAddr> = (0..300u64)
            .map(|i| PhysAddr::new(0x9000 + 64 * i))
            .collect();
        let long_walk = |paddr| crate::epoch::LocalTranslation {
            paddr,
            fixed_latency: Cycles::new(9),
            walk: Some(mmu_sim::WalkOutcome {
                mapping: None,
                accesses: addrs.iter().copied().collect(),
                parallel: true,
            }),
        };
        let hit = long_walk(Some(PhysAddr::new(0x7000)));
        assert!(hit.walk.as_ref().unwrap().accesses.spilled());
        let miss = long_walk(None);
        let mut log = SliceLog::default();
        let pc = VirtAddr::new(0x400);
        log.push(pc, AccessType::Read, &hit);
        log.push(pc, AccessType::Write, &hit);
        log.end_in_fault(pc, VirtAddr::new(0x5000), AccessType::Read, &miss);
        let replayed: Vec<_> = log.replay().collect();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[1], (pc, AccessType::Write, hit.attempt()));
        assert_eq!(replayed[1].2.walk, Some((true, &addrs[..])));
        let fault = log.fault().expect("the slice ended in a fault");
        assert_eq!(fault.vaddr, VirtAddr::new(0x5000));
        assert_eq!(fault.translation.attempt(), miss.attempt());
    }

    #[test]
    fn multiprogram_rollup_and_table_render() {
        let (mut system, a, b) = two_process_system(true);
        let mut fa = SliceFrontend::new("A", linear_trace(0x1000_0000, 3000, 64));
        let mut fb = SliceFrontend::new("B", linear_trace(0x1000_0000, 3000, 64));
        let mut programs: Vec<(ProcessId, &mut dyn TraceSource)> = vec![(a, &mut fa), (b, &mut fb)];
        let report = system.run_multiprogram(&mut programs, None);
        assert_eq!(report.rollup.workload, "A+B");
        let table = report.to_table();
        assert!(table.contains("pid"));
        assert!(table.contains("context_switches"));
    }

    /// `FrameSet` spans that straddle words and regions, and the lowest
    /// clash of each, against a `BTreeSet` of frame numbers.
    #[test]
    fn frame_set_spans_match_a_set_of_frames() {
        let mut rng = DetRng::new(37);
        for _ in 0..40 {
            let mut bits = FrameSet::default();
            let mut model = BTreeSet::new();
            for _ in 0..25 {
                let first = rng.gen_range(0, 16_384);
                let count = [1, 63, 64, 512, 1100][rng.gen_range(0, 5) as usize];
                let clash = (first..first + count).find(|f| model.contains(f));
                assert_eq!(
                    bits.insert_span(first, count),
                    clash,
                    "span {first}+{count}"
                );
                model.extend(first..first + count);
            }
        }
    }

    /// The fence's frame checks as they were before any compact pass: a
    /// map entry per buddy-backed frame (last insert wins) and a sorted
    /// span per private mapping. The reference of
    /// `the_frame_checks_agree_with_the_map_reference`.
    fn reference_check_frames(system: &System) -> Result<(), String> {
        let mut buddy_backed: BTreeMap<u64, u64> = BTreeMap::new();
        let mut spans: Vec<(u64, u64, usize, VirtAddr)> = Vec::new();
        for idx in 0..system.os.num_processes() {
            let process = system.os.process(ProcessId(idx));
            if process.is_exited() {
                continue;
            }
            for m in process.mappings() {
                let in_restseg = system
                    .os
                    .utopia()
                    .is_some_and(|u| u.lookup(idx as u16, m.vaddr).is_some());
                if !in_restseg {
                    buddy_backed.insert(m.paddr.raw(), m.page_size.bytes());
                }
                let file_backed = process
                    .vmas
                    .find(m.vaddr)
                    .is_some_and(|v| matches!(v.kind, mimic_os::VmaKind::FileBacked { .. }));
                if !file_backed {
                    spans.push((
                        m.paddr.raw(),
                        m.paddr.raw() + m.page_size.bytes(),
                        idx,
                        m.vaddr,
                    ));
                }
            }
        }
        let mapped: u64 = buddy_backed.values().sum();
        let buddy = system.os.buddy();
        let allocated = buddy.capacity_bytes() - buddy.free_bytes();
        if mapped > allocated {
            return Err(format!(
                "{mapped} mapped buddy-backed bytes exceed the {allocated} bytes the buddy \
                 allocator has handed out"
            ));
        }
        spans.sort_unstable();
        for w in spans.windows(2) {
            let (a_start, a_end, a_pid, a_va) = w[0];
            let (b_start, _, b_pid, b_va) = w[1];
            if b_start < a_end {
                return Err(format!(
                    "private frames overlap: pid {a_pid} maps {a_va} and pid {b_pid} maps \
                     {b_va} into overlapping physical spans at {a_start:#x}"
                ));
            }
        }
        Ok(())
    }

    /// The fence's L0 check without `l0_pointers`: a peek at every 4 KiB
    /// page of every mapping of every live process.
    fn reference_check_l0(system: &System, core: usize) -> Result<(), String> {
        let c = system.front(core);
        for idx in 0..system.os.num_processes() {
            let process = system.os.process(ProcessId(idx));
            if process.is_exited() {
                continue;
            }
            let asid = System::asid_of(ProcessId(idx));
            for m in process.mappings() {
                for page in (0..m.page_size.bytes()).step_by(4096) {
                    let va = m.vaddr.add(page);
                    if c.mmu
                        .l0_peek(asid, va)
                        .is_some_and(|pa| pa != m.translate(va))
                    {
                        return Err(format!("core {core}: stale L0 pointer at {va}"));
                    }
                }
            }
        }
        Ok(())
    }

    /// A frame-check verdict as the differential compares it.
    fn frame_verdict(verdict: Result<(), String>) -> &'static str {
        match verdict {
            Ok(()) => "ok",
            Err(e) if e.contains("exceed") => "accounting",
            Err(e) if e.contains("overlap") => "overlap",
            Err(e) => panic!("unexpected frame-check violation: {e}"),
        }
    }

    const PLANT_ANON: u64 = 0x8000_0000;
    const PLANT_FILE: u64 = 0xC000_0000;
    const PLANT_BYTES: u64 = 64 * 1024 * 1024;

    /// 1–4 processes, each with an anonymous and a file-backed data region
    /// (two files, shared by processes of equal parity) and one untouched
    /// region of each kind for planted mappings, run through a random
    /// trace that revisits its pages (so L0 pointers exist when the plants
    /// begin).
    fn planted_fence_system(rng: &mut DetRng) -> System {
        let mut config = SystemConfig::small_test().with_cores(1 + rng.gen_range(0, 2) as usize);
        if rng.gen_bool(0.5) {
            config.os.thp = mimic_os::ThpConfig::disabled();
        }
        if rng.gen_bool(0.3) {
            // Utopia: some pages land in the RestSeg, outside the buddy.
            let restseg = mimic_os::UtopiaConfig::new(1 << 20, 16, PageSize::Size4K);
            config = config.with_design(crate::Design::Utopia(restseg));
        }
        // File pages are allocated on first touch, so the buddy hands out
        // little beyond what is mapped and planted frames can overflow it.
        config.os.populate_page_cache = false;
        let mut system = System::new(config);
        let mut pids = vec![system.pid()];
        pids.extend((1..rng.gen_range(1, 5)).map(|_| system.spawn_process()));
        for &pid in &pids {
            let file_id = 1 + pid.0 as u64 % 2;
            system
                .mmap_anonymous_for(pid, VirtAddr::new(0x1000_0000), 8 << 20)
                .unwrap();
            system
                .mmap_file_for(pid, VirtAddr::new(0x4000_0000), 4 << 20, file_id)
                .unwrap();
            system
                .mmap_anonymous_for(pid, VirtAddr::new(PLANT_ANON), PLANT_BYTES)
                .unwrap();
            system
                .mmap_file_for(pid, VirtAddr::new(PLANT_FILE), PLANT_BYTES, 9)
                .unwrap();
        }
        let mut sources: Vec<SliceFrontend> = pids
            .iter()
            .map(|_| {
                let len = rng.gen_range(50, 400);
                let trace = (0..len)
                    .map(|i| {
                        let pc = VirtAddr::new(0x400 + 4 * (i % 64));
                        let va = if rng.gen_bool(0.6) {
                            0x1000_0000 + rng.gen_range(0, 512) * 4096
                        } else {
                            0x4000_0000 + rng.gen_range(0, 128) * 4096
                        };
                        Instruction::load(pc, VirtAddr::new(va))
                    })
                    .collect();
                SliceFrontend::new("planted", trace)
            })
            .collect();
        let mut programs: Vec<(ProcessId, &mut dyn TraceSource)> = pids
            .iter()
            .zip(sources.iter_mut())
            .map(|(&pid, source)| (pid, source as &mut dyn TraceSource))
            .collect();
        system.run_multiprogram(&mut programs, None);
        system
    }

    /// Plants one mapping the kernel never established, in a random live
    /// process at the next free slot of its plant regions. `slot` counts
    /// the plants so far (each takes a fresh 2 MiB-aligned virtual slot).
    fn plant_mapping(system: &mut System, rng: &mut DetRng, slot: u64) {
        let live: Vec<ProcessId> = (0..system.os.num_processes())
            .map(ProcessId)
            .filter(|&pid| !system.os.process(pid).is_exited())
            .collect();
        let pick = |rng: &mut DetRng, n: usize| rng.gen_range(0, n as u64) as usize;
        let owner = live[pick(rng, live.len())];
        let donor = live[pick(rng, live.len())];
        let existing: Vec<Mapping> = system.os.process(donor).mappings().collect();
        let Some(&victim) = existing.get(pick(rng, existing.len().max(1))) else {
            return;
        };
        let base =
            |file: bool| VirtAddr::new(if file { PLANT_FILE } else { PLANT_ANON } + (slot << 21));
        let top = system.os.buddy().capacity_bytes();
        let (owner, planted) = match rng.gen_range(0, 5) {
            // The same frame a second time, private or file-backed.
            0 => (
                owner,
                Mapping {
                    vaddr: base(rng.gen_bool(0.3)),
                    ..victim
                },
            ),
            // A huge mapping over the 2 MiB region of an existing frame.
            1 => (
                owner,
                Mapping {
                    vaddr: base(rng.gen_bool(0.3)),
                    paddr: victim.paddr.page_base(PageSize::Size2M),
                    page_size: PageSize::Size2M,
                },
            ),
            // A file-backed share of one 4 KiB frame of an existing mapping.
            2 => (
                owner,
                Mapping {
                    vaddr: base(true),
                    paddr: victim
                        .paddr
                        .add(rng.gen_range(0, victim.page_size.bytes() >> 12) << 12),
                    page_size: PageSize::Size4K,
                },
            ),
            // Frames the buddy never handed out: it hands out the lowest
            // free block first, and these sit at the top of memory.
            3 => (
                owner,
                Mapping {
                    vaddr: base(rng.gen_bool(0.3)),
                    paddr: PhysAddr::new(top - ((slot + 1) << 21)),
                    page_size: if rng.gen_bool(0.25) {
                        PageSize::Size2M
                    } else {
                        PageSize::Size4K
                    },
                },
            ),
            // One of the donor's pages moved to another of its frames:
            // stale TLB / L0 state for the page and a second claim on the
            // frame.
            _ => (
                donor,
                Mapping {
                    paddr: existing[pick(rng, existing.len())].paddr,
                    ..victim
                },
            ),
        };
        system.os.process_mut(owner).insert_mapping(planted);
    }

    /// Runs the planted machine of `seed`, asserting after the run and
    /// after every plant that the bitmap frame pass gives the map
    /// reference's verdict and that the slot-scanning L0 check agrees with
    /// the per-page one on every core. Returns the frame verdicts in
    /// step order and the number of failed L0 checks.
    fn planted_run_verdicts(seed: u64) -> (Vec<&'static str>, usize) {
        let mut rng = DetRng::new(seed);
        let mut system = planted_fence_system(&mut rng);
        let (mut verdicts, mut l0_violations) = (Vec::new(), 0);
        for step in 0..=rng.gen_range(1, 12) {
            if step > 0 {
                plant_mapping(&mut system, &mut rng, step);
            }
            let verdict = frame_verdict(system.check_frames());
            let expected = frame_verdict(reference_check_frames(&system));
            assert_eq!(verdict, expected, "seed {seed:#x}, step {step}");
            verdicts.push(verdict);
            for core in 0..system.num_cores() {
                let l0 = system.check_l0(core).is_ok();
                assert_eq!(
                    l0,
                    reference_check_l0(&system, core).is_ok(),
                    "seed {seed:#x}, step {step}, core {core}: L0 verdicts differ"
                );
                l0_violations += usize::from(!l0);
            }
        }
        (verdicts, l0_violations)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// The bitmap frame pass gives the map reference's verdict (`Ok`,
        /// an accounting `Err` or an overlap `Err`) on random 1–4-process
        /// runs and after every planted mapping; the slot-scanning L0
        /// check agrees with the per-page one.
        ///
        /// Mutations planted in the bitmap pass, each caught (observed,
        /// then reverted):
        ///
        /// | planted change | what fired |
        /// |---|---|
        /// | pass 2 keeps each repeated start's *first* size | the verdict assertion here and in `planted_runs_reach_every_fence_verdict` (`overlap` vs `accounting`) |
        /// | pass 2 never runs | the same two (`accounting` vs `ok`) |
        /// | file-backed mappings marked as private | the same two (`overlap` vs `ok`) |
        /// | RestSeg bytes counted by the accounting | the same two (`accounting` vs `ok`), and `oom_kill_keeps_every_design_coherent_at_one_and_four_cores` |
        /// | the region key off by one bit (`frame >> 10`), so frames 2 MiB apart share a bit | the error path's `expect` (a clash no mapping owns) in the same two and in three OOM tests |
        /// | `check_l0` back to `mapping_at`, skipping pointers off a mapping base | `the_l0_check_catches_a_stale_pointer_inside_a_huge_mapping` |
        /// | `check_l0` skips a pointer whose page no live mapping covers (`expected.is_some() &&`) | the unmapped-page assertion of `the_l0_check_catches_a_stale_pointer_inside_a_huge_mapping` |
        /// | a radix PD created without its link table (its parent's link holds its node id) | `radix.rs`' `arena_matches_the_map_model_op_for_op`, every other radix unit test, and `mmu.rs`' `radix_walks_shrink_once_pwcs_warm_up` |
        /// | `l0_pointers` yields nothing | the L0 assertion here and in `planted_runs_reach_every_fence_verdict`, `the_l0_check_catches_a_stale_pointer_inside_a_huge_mapping`, and `tlb.rs`' `l0_pointers_are_exactly_what_l0_peek_serves` |
        #[test]
        fn the_frame_checks_agree_with_the_map_reference(seed in proptest::prelude::any::<u64>()) {
            planted_run_verdicts(seed);
        }
    }

    /// The planted runs are not vacuous: over a fixed set of seeds they
    /// end steps in every frame verdict and leave stale L0 pointers.
    #[test]
    fn planted_runs_reach_every_fence_verdict() {
        let mut seen = BTreeMap::<&str, usize>::new();
        let mut l0_violations = 0;
        for seed in 0..24 {
            let (verdicts, l0) = planted_run_verdicts(seed);
            for verdict in verdicts {
                *seen.entry(verdict).or_default() += 1;
            }
            l0_violations += l0;
        }
        eprintln!("frame verdicts {seen:?}, failed L0 checks {l0_violations}");
        for verdict in ["ok", "accounting", "overlap"] {
            assert!(
                seen.contains_key(verdict),
                "no step ended {verdict}: {seen:?}"
            );
        }
        assert!(l0_violations > 0, "no step left a stale L0 pointer");
    }
}
