//! The staged replay: measures each layer from outside.
//!
//! A fresh, standalone instance of every layer — trace generator, MMU,
//! MimicOS, cache hierarchy, DRAM, core model — is driven through its public
//! functions in chunks of [`CHUNK`] instructions, one stage at a time:
//!
//! 1. `SyntheticWorkload::next_instruction` fills the chunk;
//! 2. `Mmu::l0_translate` / `Mmu::translate` translate every memory access;
//!    a fault calls `MimicOs::handle_page_fault`, then
//!    `Mmu::remove_mapping` / `Mmu::install_mapping` for the outcome's
//!    invalidations and mappings, and queues the kernel stream's `ops()`;
//! 3. `CacheHierarchy::access_page_table` / `access` / `access_with_pc`
//!    serve the queued walk, kernel and data accesses;
//! 4. `DramModel::access` serves the fetches and writebacks stage 3 asked
//!    for;
//! 5. `CoreModel::retire_compute` / `retire_memory` / `stall` retire the
//!    chunk.
//!
//! No layer's answer depends on a later stage (walks, faults and cache
//! lookups take no simulated time as input), so every layer sees exactly
//! the call sequence, in order, that `virtuoso::System` would give it on
//! the same trace — the stage orders below copy `System::memory_access`,
//! `finish_faulted_access`, `handle_fault`, `housekeeping` and `populate`
//! for one core, one process, the page-table engine and detailed mode. A
//! span brackets each stage; only faults and housekeeping ticks get per-call
//! spans.

use crate::trace::{SpanId, Trace};
use cache_sim::CacheHierarchy;
use dram_sim::DramModel;
use mimic_os::{InvalidationBatch, KernelInstructionStream, KernelOp, Mapping, MimicOs, ProcessId};
use mmu_sim::{Mmu, WalkOutcome};
use sim_core::{CoreModel, Instruction, TraceSource};
use std::time::Instant;
use virtuoso::{System, SystemConfig};
use vm_types::{AccessType, Asid, Cycles, MemoryAccess, PhysAddr, Requestor, VirtAddr};
use vm_workloads::{SyntheticWorkload, WorkloadSpec};

/// Instructions per chunk: large enough that a stage span brackets tens of
/// thousands of calls, small enough that the chunk's buffers stay in the
/// host's cache.
pub const CHUNK: usize = 65_536;

/// One call into the core model, in retire order.
#[derive(Debug, Clone, Copy)]
struct Event {
    op: Op,
    /// Instruction count (compute), accumulated latency in cycles (memory;
    /// the cache and DRAM stages add into it) or stall cycles.
    value: u64,
    kernel: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Compute,
    Memory,
    Stall,
}

/// Which hierarchy entry point serves a queued access.
#[derive(Debug, Clone, Copy)]
enum ReqKind {
    PageTable,
    Kernel(AccessType),
    Data(AccessType),
}

/// One queued cache-hierarchy access.
#[derive(Debug, Clone, Copy)]
struct CacheReq {
    /// The memory event whose latency this access adds to.
    event: u32,
    pc: VirtAddr,
    paddr: PhysAddr,
    kind: ReqKind,
}

/// One queued DRAM access.
#[derive(Debug, Clone, Copy)]
struct DramReq {
    event: u32,
    access: MemoryAccess,
    /// Whether the core waits for it (demand fetches do, prefetches and
    /// writebacks do not).
    exposed: bool,
}

/// An application access's requests are queued before its retire event
/// exists (kernel events of a fault come first); they carry this marker
/// until the event is pushed.
const PENDING: u32 = u32::MAX;

/// Call counts and per-call timers the spans alone do not give.
#[derive(Debug, Default, Clone)]
pub struct Meters {
    pub instructions: u64,
    pub cache_accesses: u64,
    /// Lines the cache hierarchy asked DRAM to fetch (demand and prefetch).
    pub dram_fetches: u64,
    pub dram_accesses: u64,
    pub faults: u64,
    pub fault_ns: u64,
    pub installs: u64,
    pub install_ns: u64,
    pub removes: u64,
    pub remove_ns: u64,
}

impl Meters {
    /// Adds another replay's meters (a repetition may run several machines).
    pub fn add(&mut self, other: &Meters) {
        self.instructions += other.instructions;
        self.cache_accesses += other.cache_accesses;
        self.dram_fetches += other.dram_fetches;
        self.dram_accesses += other.dram_accesses;
        self.faults += other.faults;
        self.fault_ns += other.fault_ns;
        self.installs += other.installs;
        self.install_ns += other.install_ns;
        self.removes += other.removes;
        self.remove_ns += other.remove_ns;
    }
}

/// The standalone layer instances and the chunk buffers between stages.
pub struct Replay {
    housekeeping_interval: u64,
    core_ghz: f64,
    pub os: MimicOs,
    pid: ProcessId,
    asid: Asid,
    pub mmu: Mmu,
    pub caches: CacheHierarchy,
    pub dram: DramModel,
    pub core: CoreModel,
    instrs: Vec<Instruction>,
    events: Vec<Event>,
    reqs: Vec<CacheReq>,
    dram_reqs: Vec<DramReq>,
    since_housekeeping: u64,
    pub meters: Meters,
}

impl Replay {
    /// Builds the layers `System::new(config)` would, maps the trace's
    /// regions and, if asked, pre-faults them like `System::populate`.
    pub fn new(
        config: &SystemConfig,
        spec: &WorkloadSpec,
        populate: bool,
    ) -> Result<Replay, String> {
        assert!(
            config.mode.is_detailed() && config.os.num_cores == 1,
            "the staged replay models one detailed core"
        );
        let mut os = MimicOs::new(config.os.clone());
        let pid = os.spawn_process();
        for region in &spec.regions {
            os.mmap_anonymous(pid, region.start, region.bytes, false)
                .map_err(|e| format!("replay mmap: {e}"))?;
        }
        let mut replay = Replay {
            housekeeping_interval: config.housekeeping_interval,
            core_ghz: config.core.frequency.ghz(),
            os,
            pid,
            asid: System::asid_of(pid),
            mmu: Mmu::new(config.mmu.clone()),
            caches: CacheHierarchy::new(config.caches.clone()),
            dram: DramModel::new(config.dram.clone()),
            core: CoreModel::new(config.core),
            instrs: Vec::with_capacity(CHUNK),
            events: Vec::with_capacity(CHUNK),
            reqs: Vec::with_capacity(CHUNK),
            dram_reqs: Vec::new(),
            since_housekeeping: 0,
            meters: Meters::default(),
        };
        if populate {
            replay.populate()?;
        }
        Ok(replay)
    }

    /// `System::populate`: mappings are established and installed, nothing
    /// is charged.
    fn populate(&mut self) -> Result<(), String> {
        let vmas: Vec<(VirtAddr, u64)> = self
            .os
            .process(self.pid)
            .vmas
            .iter()
            .map(|v| (v.start, v.len()))
            .collect();
        for (start, len) in vmas {
            let mut offset = 0;
            while offset < len {
                let va = start.add(offset);
                let mapping = match self.os.process(self.pid).lookup_mapping(va) {
                    Some(existing) => {
                        self.mmu.install_mapping(self.asid, &existing);
                        existing
                    }
                    None => {
                        let outcome = self
                            .os
                            .handle_page_fault(self.pid, va, false)
                            .map_err(|e| format!("replay populate at {va}: {e}"))?;
                        for victim in &outcome.invalidations.victims {
                            self.mmu
                                .remove_mapping(System::asid_of(victim.pid), victim.vaddr);
                        }
                        for (pid, mapping) in &outcome.invalidations.replacements {
                            self.mmu.install_mapping(System::asid_of(*pid), mapping);
                        }
                        self.mmu.install_mapping(self.asid, &outcome.mapping);
                        for extra in &outcome.additional_mappings {
                            self.mmu.install_mapping(self.asid, extra);
                        }
                        outcome.mapping
                    }
                };
                offset = mapping.vaddr.add(mapping.page_size.bytes()).raw() - start.raw();
            }
        }
        Ok(())
    }

    /// Replays the whole trace of `source`, one chunk span per [`CHUNK`]
    /// instructions under `parent`.
    pub fn run(
        &mut self,
        source: &mut SyntheticWorkload,
        trace: &mut Trace,
        parent: SpanId,
    ) -> Result<(), String> {
        while source.produced() < source.spec().instructions {
            let chunk = trace.open(Some(parent), "chunk", "vmbench");
            self.instrs.clear();
            self.events.clear();
            self.reqs.clear();
            self.dram_reqs.clear();

            let stage = trace.open(Some(chunk), "next_instruction", "vm_workloads");
            while self.instrs.len() < CHUNK {
                let Some(instr) = source.next_instruction() else {
                    break;
                };
                self.instrs.push(instr);
            }
            let generated = self.instrs.len() as u64;
            trace.close(stage, generated);
            self.meters.instructions += generated;

            let stage = trace.open(Some(chunk), "translate", "mmu_sim");
            let translations_before = self.mmu.stats().translations.get();
            self.translate_stage(trace, stage)?;
            trace.close(
                stage,
                self.mmu.stats().translations.get() - translations_before,
            );

            let stage = trace.open(Some(chunk), "cache_access", "cache_sim");
            self.cache_stage();
            trace.close(stage, self.reqs.len() as u64);
            self.meters.cache_accesses += self.reqs.len() as u64;

            let stage = trace.open(Some(chunk), "dram_access", "dram_sim");
            self.dram_stage();
            trace.close(stage, self.dram_reqs.len() as u64);
            self.meters.dram_accesses += self.dram_reqs.len() as u64;

            let stage = trace.open(Some(chunk), "retire", "sim_core");
            self.retire_stage();
            trace.close(stage, self.events.len() as u64);

            trace.close(chunk, generated);
        }
        Ok(())
    }

    fn translate_stage(&mut self, trace: &mut Trace, stage: SpanId) -> Result<(), String> {
        for i in 0..self.instrs.len() {
            let instr = self.instrs[i];
            match instr.memory {
                None => self.push_event(Op::Compute, 1, false),
                Some((vaddr, kind)) => self.app_access(trace, stage, instr.pc, vaddr, kind)?,
            }
            self.since_housekeeping += 1;
            if self.housekeeping_interval > 0
                && self.since_housekeeping >= self.housekeeping_interval
            {
                self.since_housekeeping = 0;
                self.housekeeping(trace, stage);
            }
        }
        Ok(())
    }

    /// `System::memory_access` up to the data access, for one application
    /// access: L0 probe, translation, and on a fault the kernel round trip
    /// and one retry.
    fn app_access(
        &mut self,
        trace: &mut Trace,
        stage: SpanId,
        pc: VirtAddr,
        vaddr: VirtAddr,
        kind: AccessType,
    ) -> Result<(), String> {
        let first_req = self.reqs.len();
        let mut fixed_latency;
        let paddr = match self.mmu.l0_translate(self.asid, vaddr) {
            Some((paddr, latency)) => {
                fixed_latency = latency;
                paddr
            }
            None => {
                let first = self.mmu.translate(self.asid, vaddr);
                fixed_latency = first.fixed_latency;
                self.queue_walk(first.walk.as_ref());
                match first.paddr {
                    Some(paddr) => paddr,
                    None => {
                        self.fault(trace, stage, vaddr, kind.is_write())?;
                        let retry = self.mmu.translate(self.asid, vaddr);
                        fixed_latency += retry.fixed_latency;
                        self.queue_walk(retry.walk.as_ref());
                        retry
                            .paddr
                            .ok_or_else(|| format!("{vaddr} still unmapped after its fault"))?
                    }
                }
            }
        };
        self.reqs.push(CacheReq {
            event: PENDING,
            pc,
            paddr,
            kind: ReqKind::Data(kind),
        });
        let event = self.events.len() as u32;
        self.push_event(Op::Memory, fixed_latency.raw(), false);
        for req in &mut self.reqs[first_req..] {
            if req.event == PENDING {
                req.event = event;
            }
        }
        Ok(())
    }

    fn queue_walk(&mut self, walk: Option<&WalkOutcome>) {
        let Some(walk) = walk else { return };
        // A parallel (hashed) walk costs its slowest access, not the sum the
        // events accumulate; every benchmark workload uses the radix table.
        assert!(!walk.parallel, "the staged replay models serial walks only");
        for &paddr in walk.accesses.iter() {
            self.reqs.push(CacheReq {
                event: PENDING,
                pc: VirtAddr::ZERO,
                paddr,
                kind: ReqKind::PageTable,
            });
        }
    }

    /// `System::handle_fault`, detailed mode: kernel stream, shootdowns,
    /// installs, device stall — in that order.
    fn fault(
        &mut self,
        trace: &mut Trace,
        stage: SpanId,
        vaddr: VirtAddr,
        is_write: bool,
    ) -> Result<(), String> {
        let start = trace.now();
        let result = self.os.handle_page_fault(self.pid, vaddr, is_write);
        let end = trace.now();
        trace.record(Some(stage), "handle_page_fault", "mimic_os", start, end, 1);
        self.meters.faults += 1;
        self.meters.fault_ns += end - start;
        let outcome = result.map_err(|e| format!("page fault at {vaddr} failed: {e}"))?;
        self.queue_stream(&outcome.stream);
        self.apply_invalidations(&outcome.invalidations);
        self.install(self.asid, &outcome.mapping);
        for extra in &outcome.additional_mappings {
            self.install(self.asid, extra);
        }
        let device_cycles = (outcome.device_latency_ns * self.core_ghz).round() as u64;
        self.push_event(Op::Stall, device_cycles, false);
        Ok(())
    }

    /// `System::housekeeping`: pool refill and khugepaged, its stream
    /// injected and its collapses applied.
    fn housekeeping(&mut self, trace: &mut Trace, stage: SpanId) {
        let start = trace.now();
        self.os.background_tick();
        let (stream, invalidations) = self.os.khugepaged_tick(self.pid);
        trace.record(
            Some(stage),
            "housekeeping",
            "mimic_os",
            start,
            trace.now(),
            2,
        );
        if !stream.is_empty() {
            self.queue_stream(&stream);
        }
        self.apply_invalidations(&invalidations);
    }

    fn queue_stream(&mut self, stream: &KernelInstructionStream) {
        for op in stream.ops() {
            match *op {
                KernelOp::Compute { count } => self.push_event(Op::Compute, u64::from(count), true),
                KernelOp::Memory { paddr, kind } => self.kernel_access(paddr, kind),
            }
        }
    }

    fn apply_invalidations(&mut self, batch: &InvalidationBatch) {
        for victim in &batch.victims {
            let start = Instant::now();
            let removed = self
                .mmu
                .remove_mapping(System::asid_of(victim.pid), victim.vaddr);
            self.meters.remove_ns += start.elapsed().as_nanos() as u64;
            self.meters.removes += 1;
            for paddr in removed.accesses {
                self.kernel_access(paddr, AccessType::Write);
            }
        }
        for (pid, mapping) in &batch.replacements {
            self.install(System::asid_of(*pid), mapping);
        }
    }

    fn install(&mut self, asid: Asid, mapping: &Mapping) {
        let start = Instant::now();
        let accesses = self.mmu.install_mapping(asid, mapping);
        self.meters.install_ns += start.elapsed().as_nanos() as u64;
        self.meters.installs += 1;
        for paddr in accesses {
            self.kernel_access(paddr, AccessType::Write);
        }
    }

    /// One kernel memory reference: its own retire event plus the access.
    fn kernel_access(&mut self, paddr: PhysAddr, kind: AccessType) {
        let event = self.events.len() as u32;
        self.push_event(Op::Memory, 0, true);
        self.reqs.push(CacheReq {
            event,
            pc: VirtAddr::ZERO,
            paddr,
            kind: ReqKind::Kernel(kind),
        });
    }

    fn push_event(&mut self, op: Op, value: u64, kernel: bool) {
        self.events.push(Event { op, value, kernel });
    }

    /// `System::charge_page_walk` / `charge_kernel_access` / `data_access`,
    /// cache half: which requestor and access type each DRAM request
    /// carries, and whether its latency is exposed, follow those functions.
    fn cache_stage(&mut self) {
        for req in &self.reqs {
            let (access, fetch_kind, requestor) = match req.kind {
                ReqKind::PageTable => (
                    self.caches.access_page_table(req.paddr),
                    AccessType::Read,
                    Requestor::PageTableWalker,
                ),
                ReqKind::Kernel(kind) => (
                    self.caches.access(req.paddr, kind, Requestor::Kernel),
                    kind,
                    Requestor::Kernel,
                ),
                ReqKind::Data(kind) => (
                    self.caches
                        .access_with_pc(req.pc, req.paddr, kind, Requestor::Application),
                    AccessType::Read,
                    Requestor::Application,
                ),
            };
            self.events[req.event as usize].value += access.latency.raw();
            self.meters.dram_fetches += access.dram_fetches.len() as u64;
            let is_data = matches!(req.kind, ReqKind::Data(_));
            for (i, &line) in access.dram_fetches.iter().enumerate() {
                // Of a data access's fetches only the first is the demand
                // line; the rest are prefetches nobody waits for.
                let demand = !is_data || i == 0;
                self.dram_reqs.push(DramReq {
                    event: req.event,
                    access: MemoryAccess::physical(
                        line,
                        fetch_kind,
                        if demand {
                            requestor
                        } else {
                            Requestor::Prefetcher
                        },
                    ),
                    exposed: demand,
                });
            }
            for &line in access.writebacks.iter() {
                self.dram_reqs.push(DramReq {
                    event: req.event,
                    access: MemoryAccess::physical(line, AccessType::Write, requestor),
                    exposed: false,
                });
            }
        }
    }

    fn dram_stage(&mut self) {
        for req in &self.dram_reqs {
            let latency = self.dram.access(&req.access);
            if req.exposed {
                self.events[req.event as usize].value += latency.raw();
            }
        }
    }

    fn retire_stage(&mut self) {
        for event in &self.events {
            if self.core.in_kernel_mode() != event.kernel {
                self.core.set_kernel_mode(event.kernel);
            }
            match event.op {
                Op::Compute => self.core.retire_compute(event.value),
                Op::Memory => self.core.retire_memory(Cycles::new(event.value)),
                Op::Stall => self.core.stall(Cycles::new(event.value)),
            }
        }
        // `System` leaves kernel mode at the end of every kernel section.
        self.core.set_kernel_mode(false);
    }
}
