//! The system-level oracle: `System` run in lockstep with `NaiveSystem`, a
//! machine composed from the obvious models of `common/naive/` — a
//! `BTreeMap` radix page table per address space, `Vec`-of-sets TLBs,
//! page-walk caches and caches — over the *real* `MimicOs`, `CoreModel`
//! and `DramModel`. The naive machine has no L0, no batching and no
//! epochs: it fetches, translates, charges and schedules one instruction
//! at a time.
//!
//! After every instruction the TLB, PWC, walk, cache, DRAM and core
//! counters — cycles included — of both machines must be equal. At the
//! first mismatch the test stops and prints the instruction, both
//! machines' counters and the last 16 instructions. The traces are random
//! multi-process mixes on one core and one host thread, under memory
//! pressure so that first-touch faults, reclaim and shootdowns all occur
//! (asserted). A second check runs `System` uninterrupted, so its epoch
//! path runs, and compares the final counters.
//!
//! `System` is stepped by `run_multiprogram` with a limit of one
//! instruction. A preemption due when such a run ends is done by the next
//! run's first dispatch, so the naive machine preempts at the start of its
//! next step too: nothing happens in between, so the schedule is the same.

#[path = "common/naive/mod.rs"]
mod naive;

use naive::cache::NaiveCache;
use naive::pwc::NaiveLevel;
use naive::radix::MapRadix;
use naive::tlb::NaiveTlb;
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};
use virtuoso_suite::cache_sim::CacheStats;
use virtuoso_suite::dram_sim::{DramModel, DramStats};
use virtuoso_suite::mimic_os::{
    ContextSwitch, InvalidationBatch, KernelInstructionStream, KernelOp, Mapping, PageFaultOutcome,
};
use virtuoso_suite::mmu_sim::tlb::TlbStats;
use virtuoso_suite::prelude::*;
use virtuoso_suite::sim_core::{CoreModel, CoreStats};
use virtuoso_suite::vm_types::{
    AccessType, Asid, Cycles, DetRng, MemoryAccess, PhysAddr, Requestor, VmError, CACHE_LINE_BYTES,
};
use virtuoso_suite::vm_workloads::SyntheticWorkload;

/// Physical distance between two address spaces' page-table regions.
const ASID_TABLE_STRIDE: u64 = 0x1_0000_0000;
/// The radix page-walk caches: three levels of 32 entries, 4 ways, and
/// their probe latency.
const PWC_SETS: usize = 8;
const PWC_WAYS: usize = 4;
const PWC_LATENCY: Cycles = Cycles::new(2);

fn asid(pid: ProcessId) -> Asid {
    Asid::new(pid.0 as u16)
}

/// What one translation attempt found: the address, the TLB/PWC probe
/// latency and the page-table addresses a walk read.
struct Translation {
    paddr: Option<PhysAddr>,
    fixed_latency: Cycles,
    walk: Vec<PhysAddr>,
}

/// The MMU's counters, named as in `MmuStats`.
#[derive(Debug, Clone, Default, PartialEq)]
struct MmuCounts {
    translations: u64,
    l1_hits: u64,
    l2_hits: u64,
    walks: u64,
    walk_accesses: u64,
    faults: u64,
    insert_accesses: u64,
    context_switches: u64,
}

/// Three TLB levels probed in order, three page-walk-cache levels and one
/// `MapRadix` per address space.
struct NaiveMmu {
    l1_4k: NaiveTlb,
    l1_2m: NaiveTlb,
    l2: NaiveTlb,
    latencies: (Cycles, Cycles),
    pwc: Vec<NaiveLevel>,
    tables: BTreeMap<u16, MapRadix>,
    metadata_base: PhysAddr,
    counts: MmuCounts,
}

impl NaiveMmu {
    fn new(config: &MmuConfig) -> Self {
        let level = || NaiveLevel {
            sets: vec![vec![None; PWC_WAYS]; PWC_SETS],
            clock: 0,
            hits: 0,
            misses: 0,
        };
        NaiveMmu {
            l1_4k: NaiveTlb::new(&config.tlb.l1_4k),
            l1_2m: NaiveTlb::new(&config.tlb.l1_2m),
            l2: NaiveTlb::new(&config.tlb.l2),
            latencies: (config.tlb.l1_4k.latency, config.tlb.l2.latency),
            pwc: (0..3).map(|_| level()).collect(),
            tables: BTreeMap::new(),
            metadata_base: config.metadata_base,
            counts: MmuCounts::default(),
        }
    }

    fn table(&mut self, asid: Asid) -> &mut MapRadix {
        let base = self.metadata_base.raw() + u64::from(asid.raw()) * ASID_TABLE_STRIDE;
        self.tables
            .entry(asid.raw())
            .or_insert_with(|| MapRadix::new(PhysAddr::new(base)))
    }

    /// The PWC tag of `va` at level `i`: the PD, PDPT and PML4 prefixes.
    fn pwc_tag(va: VirtAddr, i: usize) -> u64 {
        va.raw() >> [21, 30, 39][i]
    }

    fn fill(&mut self, asid: Asid, mapping: Mapping) {
        match mapping.page_size {
            PageSize::Size4K => self.l1_4k.fill(asid, mapping),
            _ => self.l1_2m.fill(asid, mapping),
        };
        self.l2.fill(asid, mapping);
    }

    fn translate(&mut self, asid: Asid, va: VirtAddr) -> Translation {
        self.counts.translations += 1;
        let hit = |paddr, fixed_latency| Translation {
            paddr: Some(paddr),
            fixed_latency,
            walk: Vec::new(),
        };
        let mut latency = self.latencies.0;
        if let Some(m) = self.l1_4k.lookup(asid, va) {
            self.counts.l1_hits += 1;
            return hit(m.translate(va), latency);
        }
        if let Some(m) = self.l1_2m.lookup(asid, va) {
            self.counts.l1_hits += 1;
            return hit(m.translate(va), latency);
        }
        latency += self.latencies.1;
        if let Some(m) = self.l2.lookup(asid, va) {
            self.counts.l2_hits += 1;
            match m.page_size {
                PageSize::Size4K => self.l1_4k.fill(asid, m),
                _ => self.l1_2m.fill(asid, m),
            };
            return hit(m.translate(va), latency);
        }
        latency += PWC_LATENCY;
        let skip = (0..3)
            .find(|&i| self.pwc[i].probe(Self::pwc_tag(va, i)))
            .map_or(0, |i| 3 - i);
        self.counts.walks += 1;
        let walk = self.table(asid).walk(va, skip);
        self.counts.walk_accesses += walk.accesses.len() as u64;
        let paddr = match walk.mapping {
            Some(m) => {
                self.fill(asid, m);
                for i in 0..3 {
                    self.pwc[i].fill(Self::pwc_tag(va, i));
                }
                Some(m.translate(va))
            }
            None => {
                self.counts.faults += 1;
                None
            }
        };
        Translation {
            paddr,
            fixed_latency: latency,
            walk: walk.accesses.iter().copied().collect(),
        }
    }

    fn install(&mut self, asid: Asid, mapping: Mapping) -> Vec<PhysAddr> {
        let accesses = self.table(asid).insert(mapping);
        self.counts.insert_accesses += accesses.len() as u64;
        self.fill(asid, mapping);
        accesses
    }

    fn remove(&mut self, asid: Asid, va: VirtAddr) -> Vec<PhysAddr> {
        let accesses = self.table(asid).remove(va);
        self.l1_4k.invalidate(asid, va);
        self.l1_2m.invalidate(asid, va);
        self.l2.invalidate(asid, va);
        for i in 0..3 {
            self.pwc[i].invalidate(Self::pwc_tag(va, i));
        }
        accesses
    }

    /// ASID-tagged TLBs survive a switch; the untagged PWCs do not.
    fn context_switch(&mut self) {
        self.counts.context_switches += 1;
        for level in &mut self.pwc {
            level.sets.iter_mut().for_each(|set| set.fill(None));
        }
    }

    fn flush_asid(&mut self, asid: Asid) {
        self.l1_4k.flush_asid(asid);
        self.l1_2m.flush_asid(asid);
        self.l2.flush_asid(asid);
    }
}

/// L1D, L2 and L3 as `NaiveCache`s, probed and filled as the hierarchy
/// does with its prefetchers off.
struct NaiveCaches {
    levels: [NaiveCache; 3],
    latencies: [Cycles; 3],
}

/// One trip through the caches: its latency, the line DRAM must supply if
/// it missed everywhere, and the dirty lines it evicted.
struct CacheTrip {
    latency: Cycles,
    fetch: Option<PhysAddr>,
    writebacks: Vec<PhysAddr>,
}

impl NaiveCaches {
    /// A demand access starting at `first` (0 for data, 1 for page-table
    /// entries, which bypass the L1D): the first level that hits stops it,
    /// and every level above is filled on the way back.
    fn access(
        &mut self,
        first: usize,
        paddr: PhysAddr,
        is_write: bool,
        by: Requestor,
    ) -> CacheTrip {
        let line = paddr.raw() / CACHE_LINE_BYTES;
        let mut latency = Cycles::ZERO;
        let mut hit = None;
        for level in first..3 {
            latency += self.latencies[level];
            if self.levels[level].lookup(line, is_write, by) {
                hit = Some(level);
                break;
            }
        }
        let mut writebacks = Vec::new();
        for level in (first..hit.unwrap_or(3)).rev() {
            let dirty = is_write && level == 0;
            if let Some(victim) = self.levels[level].fill(line, dirty, false) {
                writebacks.push(PhysAddr::new(victim * CACHE_LINE_BYTES));
            }
        }
        CacheTrip {
            latency,
            fetch: hit
                .is_none()
                .then(|| PhysAddr::new(line * CACHE_LINE_BYTES)),
            writebacks,
        }
    }
}

/// Every counter the two machines are compared on.
#[derive(Debug, Clone, PartialEq)]
struct Counters {
    cycles: u64,
    core: CoreStats,
    mmu: MmuCounts,
    tlb: [TlbStats; 3],
    pwc: (u64, u64),
    caches: [CacheStats; 3],
    dram: DramStats,
}

impl Counters {
    fn of_system(system: &System) -> Self {
        let core = system.core_model_of(0);
        let mmu = system.mmu_of(0);
        let s = mmu.stats();
        let caches = system.caches().stats();
        Counters {
            cycles: core.cycles().raw(),
            core: core.stats().clone(),
            mmu: MmuCounts {
                translations: s.translations.get(),
                l1_hits: s.l1_hits.get(),
                l2_hits: s.l2_hits.get(),
                walks: s.walks.get(),
                walk_accesses: s.walk_accesses.get(),
                faults: s.faults.get(),
                insert_accesses: s.insert_accesses.get(),
                context_switches: s.context_switches.get(),
            },
            tlb: [
                mmu.tlb().l1_4k_stats().clone(),
                mmu.tlb().l1_2m_stats().clone(),
                mmu.tlb().l2_stats().clone(),
            ],
            pwc: (mmu.pwc().hits(), mmu.pwc().misses()),
            caches: [caches.l1d, caches.l2, caches.l3],
            dram: system.dram().stats().clone(),
        }
    }

    fn of_naive(naive: &NaiveSystem) -> Self {
        let mmu = &naive.mmu;
        let pwc = |f: fn(&NaiveLevel) -> u64| mmu.pwc.iter().map(f).sum();
        Counters {
            cycles: naive.core.cycles().raw(),
            core: naive.core.stats().clone(),
            mmu: mmu.counts.clone(),
            tlb: [
                mmu.l1_4k.stats.clone(),
                mmu.l1_2m.stats.clone(),
                mmu.l2.stats.clone(),
            ],
            pwc: (pwc(|l| l.hits), pwc(|l| l.misses)),
            caches: naive.caches.levels.each_ref().map(|c| c.stats.clone()),
            dram: naive.dram.stats().clone(),
        }
    }
}

/// One core, one instruction at a time, over the real kernel.
struct NaiveSystem {
    config: SystemConfig,
    os: MimicOs,
    mmu: NaiveMmu,
    caches: NaiveCaches,
    dram: DramModel,
    core: CoreModel,
    /// The process holding the core.
    current: ProcessId,
    since_housekeeping: u64,
}

impl NaiveSystem {
    fn new(config: SystemConfig) -> Self {
        let mut os = MimicOs::new(config.os.clone());
        let first = os.spawn_process();
        let h = &config.caches;
        NaiveSystem {
            mmu: NaiveMmu::new(&config.mmu),
            caches: NaiveCaches {
                levels: [&h.l1d, &h.l2, &h.l3].map(NaiveCache::new),
                latencies: [h.l1d.latency, h.l2.latency, h.l3.latency],
            },
            dram: DramModel::new(config.dram.clone()),
            core: CoreModel::new(config.core),
            current: first,
            since_housekeeping: 0,
            os,
            config,
        }
    }

    fn dram(&mut self, line: PhysAddr, kind: AccessType, by: Requestor) -> Cycles {
        self.dram.access(&MemoryAccess::physical(line, kind, by))
    }

    /// Sends a cache trip's misses to DRAM, all on behalf of `by`: its
    /// fetch as a `fetch_kind` access, its writebacks as writes. Returns
    /// the trip's latency including the fetch.
    fn settle_trip(&mut self, trip: CacheTrip, fetch_kind: AccessType, by: Requestor) -> Cycles {
        let mut latency = trip.latency;
        if let Some(line) = trip.fetch {
            latency += self.dram(line, fetch_kind, by);
        }
        for wb in trip.writebacks {
            self.dram(wb, AccessType::Write, by);
        }
        latency
    }

    /// The fixed probe latency plus every walk read, serially.
    fn charge_translation(&mut self, t: &Translation) -> Cycles {
        let mut latency = t.fixed_latency;
        for &pa in &t.walk {
            let trip = self.caches.access(1, pa, false, Requestor::PageTableWalker);
            latency += self.settle_trip(trip, AccessType::Read, Requestor::PageTableWalker);
        }
        latency
    }

    /// The rest of an access once translated: its walk, its data access
    /// (no prefetcher, so the pc plays no part) and its retirement.
    fn complete(&mut self, kind: AccessType, t: &Translation, carried: Cycles) {
        let latency = carried + self.charge_translation(t);
        match t.paddr {
            Some(pa) => {
                let trip = self
                    .caches
                    .access(0, pa, kind.is_write(), Requestor::Application);
                let data = self.settle_trip(trip, AccessType::Read, Requestor::Application);
                self.core.retire_memory(latency + data);
            }
            None => self.core.retire_compute(1),
        }
    }

    fn kernel_access(&mut self, paddr: PhysAddr, kind: AccessType) -> Cycles {
        let trip = self
            .caches
            .access(0, paddr, kind.is_write(), Requestor::Kernel);
        self.settle_trip(trip, kind, Requestor::Kernel)
    }

    /// Kernel-mode memory writes: page-table updates.
    fn kernel_writes(&mut self, accesses: Vec<PhysAddr>) {
        self.core.set_kernel_mode(true);
        for pa in accesses {
            let latency = self.kernel_access(pa, AccessType::Write);
            self.core.retire_memory(latency);
        }
        self.core.set_kernel_mode(false);
    }

    fn inject(&mut self, stream: KernelInstructionStream) {
        self.core.set_kernel_mode(true);
        for op in stream.ops() {
            match *op {
                KernelOp::Compute { count } => self.core.retire_compute(u64::from(count)),
                KernelOp::Memory { paddr, kind } => {
                    let latency = self.kernel_access(paddr, kind);
                    self.core.retire_memory(latency);
                }
            }
        }
        self.core.set_kernel_mode(false);
        self.os.recycle_stream(stream);
    }

    fn invalidate(&mut self, batch: &InvalidationBatch) {
        for victim in &batch.victims {
            let accesses = self.mmu.remove(asid(victim.pid), victim.vaddr);
            self.kernel_writes(accesses);
        }
        for &(pid, mapping) in &batch.replacements {
            let accesses = self.mmu.install(asid(pid), mapping);
            self.kernel_writes(accesses);
        }
    }

    fn oom_kills(&mut self) {
        for kill in self.os.take_oom_kills() {
            self.mmu.flush_asid(asid(kill.victim));
            if !kill.stream.is_empty() {
                self.inject(kill.stream);
            }
        }
    }

    fn pending_invalidations(&mut self) {
        let pending = self.os.take_pending_invalidations();
        if pending.is_empty() {
            return;
        }
        let stream = self
            .os
            .pending_shootdown_stream(pending.victims.len() as u64);
        if !stream.is_empty() {
            self.inject(stream);
        }
        self.invalidate(&pending);
    }

    /// The kernel services the fault; `false` if it could not.
    fn fault(&mut self, vaddr: VirtAddr, is_write: bool) -> bool {
        match self.os.handle_page_fault(self.current, vaddr, is_write) {
            Ok(PageFaultOutcome {
                mapping,
                additional_mappings,
                device_latency_ns,
                stream,
                invalidations,
                ..
            }) => {
                self.inject(stream);
                self.invalidate(&invalidations);
                let asid = asid(self.current);
                for m in std::iter::once(mapping).chain(additional_mappings) {
                    let accesses = self.mmu.install(asid, m);
                    self.kernel_writes(accesses);
                }
                let ghz = self.config.core.frequency.ghz();
                self.core
                    .stall(Cycles::new((device_latency_ns * ghz).round() as u64));
                self.oom_kills();
                true
            }
            Err(VmError::OutOfMemory { .. }) => {
                self.pending_invalidations();
                self.oom_kills();
                false
            }
            Err(_) => {
                self.pending_invalidations();
                false
            }
        }
    }

    fn execute(&mut self, instr: Instruction) {
        let Some((vaddr, kind)) = instr.memory else {
            self.core.retire_compute(1);
            return;
        };
        let asid = asid(self.current);
        let first = self.mmu.translate(asid, vaddr);
        if first.paddr.is_some() {
            self.complete(kind, &first, Cycles::ZERO);
            return;
        }
        let carried = self.charge_translation(&first);
        if self.fault(vaddr, kind.is_write()) {
            let retry = self.mmu.translate(asid, vaddr);
            self.complete(kind, &retry, carried);
        } else {
            self.core.retire_compute(1);
        }
    }

    fn switch(&mut self, switch: ContextSwitch) {
        let stream = self.os.context_switch_stream(switch);
        self.inject(stream);
        self.mmu.context_switch();
        self.current = switch.to;
    }

    fn housekeeping(&mut self) {
        self.os.background_tick();
        let (stream, invalidations) = self.os.khugepaged_tick(self.current);
        if !stream.is_empty() {
            self.inject(stream);
        }
        self.invalidate(&invalidations);
    }

    /// Retires the next instruction of whichever process the scheduler
    /// runs; `None` once every process has exited.
    fn step(&mut self, sources: &mut [SyntheticWorkload]) -> Option<(ProcessId, Instruction)> {
        if self.os.scheduler_mut().remaining_quantum_on(0) == 0 {
            if let Some(switch) = self.os.scheduler_mut().preempt_on(0) {
                self.switch(switch);
            }
        }
        loop {
            let pid = self.os.scheduler_mut().schedule_on(0)?;
            if pid != self.current {
                self.switch(ContextSwitch {
                    from: self.current,
                    to: pid,
                });
            }
            let Some(instr) = sources[pid.0].next_instruction() else {
                self.os.scheduler_mut().exit(pid);
                continue;
            };
            self.execute(instr);
            self.since_housekeeping += 1;
            let interval = self.config.housekeeping_interval;
            if interval > 0 && self.since_housekeeping >= interval {
                self.since_housekeeping = 0;
                self.housekeeping();
            }
            self.os.scheduler_mut().account_on(0, 1);
            return Some((pid, instr));
        }
    }
}

/// One core under memory pressure: 16 MiB of RAM for three processes of
/// 8-12 MiB each, so faults reclaim and shoot translations down.
fn pressure_config() -> SystemConfig {
    let mut config = SystemConfig::small_test().with_host_threads(1);
    config.os.memory_bytes = 16 * 1024 * 1024;
    config.os.swap_bytes = 128 * 1024 * 1024;
    config.os.swap_threshold = 0.5;
    config.os.policy = AllocationPolicy::BuddyFourK;
    config.os.thp = virtuoso_suite::mimic_os::ThpConfig::disabled();
    config.os.populate_page_cache = false;
    config.os.sched_quantum = 700;
    config.housekeeping_interval = 2_500;
    config
}

/// A random mix: one process per pattern, footprints and memory
/// intensity drawn from `seed`.
fn random_specs(seed: u64, instructions: u64) -> Vec<WorkloadSpec> {
    let mut rng = DetRng::new(seed);
    let patterns = [
        AccessPattern::UniformRandom,
        AccessPattern::Streaming {
            jump_probability: 0.02,
        },
        AccessPattern::AllocateAndTouch {
            new_page_fraction: 0.3,
        },
    ];
    patterns
        .into_iter()
        .enumerate()
        .map(|(i, pattern)| {
            let mib = 8 + rng.gen_range(0, 5);
            let mut spec = WorkloadSpec::simple(
                &format!("MIX{i}"),
                WorkloadClass::LongRunning,
                mib * 1024 * 1024,
                pattern,
                instructions - rng.gen_range(0, instructions / 4),
            );
            spec.memory_fraction = 0.2 + 0.5 * rng.next_f64();
            spec
        })
        .collect()
}

/// Both machines with the processes of `specs` and their regions mapped.
fn build(config: &SystemConfig, specs: &[WorkloadSpec]) -> (System, NaiveSystem, Vec<ProcessId>) {
    assert!(
        !config.caches.l1_prefetcher && !config.caches.l2_prefetcher,
        "the naive caches model no prefetcher"
    );
    assert_eq!(config.mmu.page_table, PageTableKind::Radix);
    assert!(config.mmu.asid_tlb_tags);
    let mut system = System::new(config.clone());
    let mut naive = NaiveSystem::new(config.clone());
    let mut pids = vec![system.pid()];
    while pids.len() < specs.len() {
        pids.push(system.spawn_process());
        naive.os.spawn_process();
    }
    for (&pid, spec) in pids.iter().zip(specs) {
        for region in &spec.regions {
            system
                .mmap_anonymous_for(pid, region.start, region.bytes)
                .unwrap();
            naive
                .os
                .mmap_anonymous(pid, region.start, region.bytes, false)
                .unwrap();
        }
    }
    (system, naive, pids)
}

fn programs<'a>(
    pids: &[ProcessId],
    sources: &'a mut [SyntheticWorkload],
) -> Vec<(ProcessId, &'a mut dyn TraceSource)> {
    pids.iter()
        .copied()
        .zip(sources.iter_mut().map(|s| s as &mut dyn TraceSource))
        .collect()
}

/// Steps both machines one instruction at a time and compares them after
/// every one; panics at the first mismatch with the evidence.
fn lockstep(config: &SystemConfig, specs: &[WorkloadSpec], seed: u64) -> System {
    let (mut system, mut naive, pids) = build(config, specs);
    let build_sources = || -> Vec<SyntheticWorkload> {
        specs
            .iter()
            .enumerate()
            .map(|(i, s)| s.build(seed + i as u64))
            .collect()
    };
    let (mut fast_sources, mut naive_sources) = (build_sources(), build_sources());
    let mut fast_programs = programs(&pids, &mut fast_sources);
    let mut recent: VecDeque<(u64, ProcessId, Instruction)> = VecDeque::new();
    for step in 0u64.. {
        let ran = system
            .run_multiprogram(&mut fast_programs, Some(1))
            .rollup
            .instructions;
        let stepped = naive.step(&mut naive_sources);
        let (fast, slow) = (Counters::of_system(&system), Counters::of_naive(&naive));
        if let Some((pid, instr)) = stepped {
            if recent.len() == 16 {
                recent.pop_front();
            }
            recent.push_back((step, pid, instr));
        }
        if fast != slow || (stepped.is_some()) != (ran == step + 1) {
            panic!(
                "the machines part at instruction {step} (seed {seed:#x}): \
                 {stepped:?}\nSystem retired {ran} in all\nSystem: {fast:#?}\n\
                 NaiveSystem: {slow:#?}\nlast {} instructions: {recent:#?}",
                recent.len()
            );
        }
        if stepped.is_none() {
            break;
        }
    }
    system
}

/// `System` run uninterrupted — epochs included — ends where the naive
/// machine's single steps end.
fn whole_run_agrees(config: &SystemConfig, specs: &[WorkloadSpec], seed: u64) {
    let (mut system, mut naive, pids) = build(config, specs);
    let build_sources = || -> Vec<SyntheticWorkload> {
        specs
            .iter()
            .enumerate()
            .map(|(i, s)| s.build(seed + i as u64))
            .collect()
    };
    let (mut fast_sources, mut naive_sources) = (build_sources(), build_sources());
    system.run_multiprogram(&mut programs(&pids, &mut fast_sources), None);
    while naive.step(&mut naive_sources).is_some() {}
    assert_eq!(
        Counters::of_system(&system),
        Counters::of_naive(&naive),
        "seed {seed:#x}: the uninterrupted run ended elsewhere"
    );
    assert!(system.epoch_stats().epochs_run > 0, "no epoch ran");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn system_agrees_with_the_naive_machine_access_by_access(seed in any::<u64>()) {
        let seed = seed >> 8;
        let specs = random_specs(seed, 20_000);
        let system = lockstep(&pressure_config(), &specs, seed);
        let os = system.os().stats();
        prop_assert!(system.mmu_of(0).stats().faults.get() > 0, "no first-touch fault");
        prop_assert!(os.reclaimed_pages.get() > 0, "no reclaim");
        prop_assert!(system.shootdown_stats().batches > 0, "no shootdown");
    }

    #[test]
    fn an_uninterrupted_run_ends_where_the_naive_machine_does(seed in any::<u64>()) {
        let seed = seed >> 8;
        // Plentiful memory, so epochs run.
        let mut config = pressure_config();
        config.os.memory_bytes = 256 * 1024 * 1024;
        whole_run_agrees(&config, &random_specs(seed, 6_000), seed);
    }
}
