//! What crosses the host-thread boundary of a parallel epoch: a core's
//! translation frontend, the compact log its local phase writes, the job
//! that carries both to a worker and back, and the workers themselves.
//!
//! Everything here is owned and moved — a [`SliceJob`] is sent to a worker
//! by value and comes back by value — so the borrow checker, not a
//! convention, guarantees the local phase touches core-private state only.
//! The run loop that plans, hands off and replays lives in
//! [`System::run_multiprogram`](crate::System::run_multiprogram).

use mmu_sim::{Mmu, TranslationEngine, WalkOutcome};
use serde::Serialize;
use sim_core::Instruction;
use std::ops::Range;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::Scope;
use vm_types::{AccessType, Asid, Cycles, PhysAddr, VirtAddr};

/// One core's private translation frontend: the unit a parallel epoch
/// hands to a worker. The core's timing model and accounting stay behind
/// in `System`, which is why they can be charged while the frontend is out.
#[derive(Debug)]
pub(crate) struct Frontend {
    /// The TLB hierarchy, page-walk caches and per-address-space page
    /// tables — the translation infrastructure every engine composes with.
    pub(crate) mmu: Mmu,
    /// The design-specific translation state (conventional page table,
    /// Midgard, RMM or Utopia), selected by `SystemConfig::engine`. The
    /// engine borrows this core's `mmu` on every call.
    pub(crate) engine: TranslationEngine,
}

/// The core-local outcome of one memory access's translation: everything
/// [`Frontend::local_translate`] computed without touching shared machine
/// state. The walk accesses are *recorded*, not charged — replaying them
/// through the shared caches/DRAM happens serially (inline on the step
/// path, at the barrier for parallel epochs).
#[derive(Debug)]
pub(crate) struct LocalTranslation {
    pub(crate) paddr: Option<PhysAddr>,
    pub(crate) fixed_latency: Cycles,
    pub(crate) walk: Option<WalkOutcome>,
}

impl LocalTranslation {
    /// The translation as the shared-state half consumes it.
    #[inline]
    pub(crate) fn attempt(&self) -> Attempt<'_> {
        Attempt {
            paddr: self.paddr,
            fixed_latency: self.fixed_latency,
            walk: self.walk.as_ref().map(|w| (w.parallel, &w.accesses[..])),
        }
    }
}

/// One translation attempt in the compact form `Datapath::complete_access`
/// and `Datapath::charge_translation` take from every caller: borrowed from
/// a [`LocalTranslation`] on the inline and fault-retry paths, from a
/// [`SliceLog`] at the epoch barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Attempt<'a> {
    pub(crate) paddr: Option<PhysAddr>,
    pub(crate) fixed_latency: Cycles,
    /// The page walk, if one ran: whether its accesses are independent
    /// (hash designs) and the page-table addresses it read, in walk order.
    pub(crate) walk: Option<(bool, &'a [PhysAddr])>,
}

/// A memory access whose core-local translation faulted: handed back by
/// the instruction loop, or rebuilt from a [`SliceLog`], for the fault path
/// to complete.
#[derive(Debug)]
pub(crate) struct FaultedAccess {
    pub(crate) pc: VirtAddr,
    pub(crate) vaddr: VirtAddr,
    pub(crate) kind: AccessType,
    pub(crate) translation: LocalTranslation,
}

impl Frontend {
    /// The core-local half of one memory access: the L0 fast path, then the
    /// engine translation. Touches only this core's TLBs/PWCs/engine state,
    /// so epoch workers run it without synchronization.
    #[inline]
    pub(crate) fn local_translate(&mut self, asid: Asid, vaddr: VirtAddr) -> LocalTranslation {
        if self.engine.uses_l0() {
            if let Some((pa, latency)) = self.mmu.l0_translate(asid, vaddr) {
                return LocalTranslation {
                    paddr: Some(pa),
                    fixed_latency: latency,
                    walk: None,
                };
            }
        }
        self.engine_translate(asid, vaddr)
    }

    /// [`Frontend::local_translate`] without the L0 fast path: the L0
    /// stands down on the retry after a page fault (the engine refills it
    /// on this translation).
    pub(crate) fn engine_translate(&mut self, asid: Asid, vaddr: VirtAddr) -> LocalTranslation {
        let result = self.engine.translate(&mut self.mmu, asid, vaddr);
        LocalTranslation {
            paddr: result.paddr,
            fixed_latency: result.fixed_latency,
            walk: result.walk,
        }
    }

    /// The parallel phase of one epoch slice: translates `instrs` against
    /// this core's private state only, logging every memory access for the
    /// serial barrier replay. Stops at the first translation fault — the
    /// fault needs the shared kernel, so the barrier resumes it exactly
    /// where this phase left off. Compute instructions are only counted:
    /// the barrier retires them on the core model that stayed behind (its
    /// accumulators are plain integer adds, so retiring them apart from
    /// the memory instructions cannot change the final counts).
    pub(crate) fn run_slice_local(
        &mut self,
        asid: Asid,
        instrs: &[Instruction],
        log: &mut SliceLog,
    ) {
        for instr in instrs {
            match instr.memory {
                None => log.computes += 1,
                Some((vaddr, kind)) => {
                    let translation = self.local_translate(asid, vaddr);
                    if translation.paddr.is_none() {
                        log.end_in_fault(instr.pc, vaddr, kind, &translation);
                        return;
                    }
                    log.push(instr.pc, kind, &translation);
                }
            }
        }
    }
}

/// One logged memory access: 32 bytes, so a 4096-instruction slice's log is
/// written and replayed as one flat array. The walk's addresses live in
/// [`SliceLog::walk_addrs`]; records are replayed in order, so a length is
/// all each needs to find its own.
#[derive(Debug, Clone, Copy)]
struct LoggedAccess {
    pc: VirtAddr,
    /// The translated address (unset in [`SliceLog::fault`]'s record, whose
    /// attempt found none).
    paddr: PhysAddr,
    fixed_latency: Cycles,
    /// `Some(parallel)` when the translation walked the page table; the
    /// walk read `walk_len` addresses.
    walk: Option<bool>,
    walk_len: u32,
    kind: AccessType,
}

const _: () = assert!(std::mem::size_of::<LoggedAccess>() <= 32);

/// What one core's local phase of an epoch produced, reused across epochs
/// so the steady state allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct SliceLog {
    /// Compute instructions executed locally, still to be retired.
    pub(crate) computes: u64,
    /// Successfully translated memory accesses, in program order.
    accesses: Vec<LoggedAccess>,
    /// The page-walk addresses of `accesses` and then of `fault`, back to
    /// back in program order.
    walk_addrs: Vec<PhysAddr>,
    /// Set when the slice stopped at a translation fault: the faulting
    /// access's virtual address and core-local half. The barrier resumes
    /// it mid-instruction (the attempt-0 TLB/engine mutations already
    /// happened locally).
    fault: Option<(VirtAddr, LoggedAccess)>,
}

impl SliceLog {
    pub(crate) fn clear(&mut self) {
        self.computes = 0;
        self.accesses.clear();
        self.walk_addrs.clear();
        self.fault = None;
    }

    /// Instructions fully executed locally (excludes the faulting one).
    pub(crate) fn ran(&self) -> u64 {
        self.computes + self.accesses.len() as u64
    }

    /// Memory accesses the barrier replays.
    pub(crate) fn logged_accesses(&self) -> u64 {
        self.accesses.len() as u64
    }

    /// Logs a successfully translated access.
    pub(crate) fn push(&mut self, pc: VirtAddr, kind: AccessType, translation: &LocalTranslation) {
        let record = self.record(pc, kind, translation);
        self.accesses.push(record);
    }

    /// Logs the access whose translation faulted; nothing follows it.
    pub(crate) fn end_in_fault(
        &mut self,
        pc: VirtAddr,
        vaddr: VirtAddr,
        kind: AccessType,
        translation: &LocalTranslation,
    ) {
        self.fault = Some((vaddr, self.record(pc, kind, translation)));
    }

    /// Appends `translation`'s walk addresses and returns its record.
    fn record(
        &mut self,
        pc: VirtAddr,
        kind: AccessType,
        translation: &LocalTranslation,
    ) -> LoggedAccess {
        let walk_len = translation.walk.as_ref().map_or(0, |outcome| {
            self.walk_addrs.extend_from_slice(&outcome.accesses);
            outcome.accesses.len()
        });
        LoggedAccess {
            pc,
            paddr: translation.paddr.unwrap_or(PhysAddr::new(0)),
            fixed_latency: translation.fixed_latency,
            walk: translation.walk.as_ref().map(|outcome| outcome.parallel),
            walk_len: u32::try_from(walk_len).expect("a page walk makes fewer than 2^32 accesses"),
            kind,
        }
    }

    /// The logged accesses in program order, each with the translation
    /// attempt the local phase recorded for it.
    pub(crate) fn replay(&self) -> impl Iterator<Item = (VirtAddr, AccessType, Attempt<'_>)> {
        let mut walk_addrs = &self.walk_addrs[..];
        self.accesses.iter().map(move |access| {
            let (walk, rest) = walk_addrs.split_at(access.walk_len as usize);
            walk_addrs = rest;
            let attempt = Attempt {
                paddr: Some(access.paddr),
                fixed_latency: access.fixed_latency,
                walk: access.walk.map(|parallel| (parallel, walk)),
            };
            (access.pc, access.kind, attempt)
        })
    }

    /// The access that ended the slice, if its translation faulted — in
    /// the owned form the instruction loop hands faults back in, so the
    /// fault path has one input type. Once per truncated slice, not per
    /// access.
    pub(crate) fn fault(&self) -> Option<FaultedAccess> {
        let (vaddr, access) = self.fault?;
        let walk = &self.walk_addrs[self.walk_addrs.len() - access.walk_len as usize..];
        Some(FaultedAccess {
            pc: access.pc,
            vaddr,
            kind: access.kind,
            translation: LocalTranslation {
                paddr: None,
                fixed_latency: access.fixed_latency,
                walk: access.walk.map(|parallel| WalkOutcome {
                    mapping: None,
                    accesses: walk.iter().copied().collect(),
                    parallel,
                }),
            },
        })
    }
}

/// One slice's local phase as a message: the run loop fills it in, a
/// worker runs it, the run loop takes it apart again. Every field is owned,
/// so nothing of `System` is reachable from a worker.
#[derive(Debug)]
pub(crate) struct SliceJob {
    pub(crate) core: usize,
    pub(crate) asid: Asid,
    pub(crate) frontend: Box<Frontend>,
    /// The program's fetched-instruction buffer; the slice is
    /// `instrs[slice]`.
    pub(crate) instrs: Vec<Instruction>,
    pub(crate) slice: Range<usize>,
    pub(crate) log: SliceLog,
}

/// The epoch workers: threads that live as long as one
/// `run_multiprogram` call, each blocked on its own job queue between
/// slices. Finished jobs come back on one shared queue in whatever order
/// they finish; the run loop files them by core.
pub(crate) struct Workers {
    jobs: Vec<SyncSender<SliceJob>>,
    /// `None` is a worker's dying word: it panicked mid-job.
    done: Receiver<Option<SliceJob>>,
}

impl Workers {
    /// Spawns `count` workers on `scope`. `depth` bounds the jobs in flight
    /// at once (the core count), so no send ever blocks and the queues'
    /// preallocated slots are all the memory the hand-off uses.
    pub(crate) fn spawn<'scope>(
        scope: &'scope Scope<'scope, '_>,
        count: usize,
        depth: usize,
    ) -> Self {
        let (done_tx, done) = sync_channel(depth + count);
        let jobs = (0..count)
            .map(|_| {
                let (tx, rx) = sync_channel(depth);
                let done_tx = done_tx.clone();
                scope.spawn(move || work(&rx, &done_tx));
                tx
            })
            .collect();
        Workers { jobs, done }
    }

    /// Hands `job` to the worker its core maps to.
    pub(crate) fn send(&self, job: SliceJob) {
        self.jobs[job.core % self.jobs.len()]
            .send(job)
            .expect("an epoch worker panicked");
    }

    /// Blocks until any outstanding job comes back; the caller knows one
    /// is out.
    ///
    /// # Panics
    ///
    /// Panics if a worker panicked instead of finishing its job.
    pub(crate) fn recv(&self) -> SliceJob {
        match self.done.recv() {
            Ok(Some(job)) => job,
            Ok(None) | Err(_) => panic!("an epoch worker panicked"),
        }
    }
}

/// A worker's whole life: run each job's local phase, send it back. Ends
/// when the run loop drops its end of either queue.
fn work(jobs: &Receiver<SliceJob>, done: &SyncSender<Option<SliceJob>>) {
    /// Wakes the run loop if this thread unwinds, so a panic in the local
    /// phase surfaces instead of leaving `Workers::recv` blocked forever.
    struct Poison<'a>(&'a SyncSender<Option<SliceJob>>);
    impl Drop for Poison<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                let _ = self.0.send(None);
            }
        }
    }
    let _poison = Poison(done);
    while let Ok(mut job) = jobs.recv() {
        let instrs = &job.instrs[job.slice.clone()];
        job.frontend.run_slice_local(job.asid, instrs, &mut job.log);
        if done.send(Some(job)).is_err() {
            break;
        }
    }
}

/// Counters of the epoch machinery of `System::run_multiprogram`, for
/// deciding whether it earns its keep: how often the multi-core loop ran an
/// epoch, why it did not, and how much work crossed the host-thread
/// boundary. Part of no report: the last two depend on the host-thread
/// count, which no report may.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct EpochStats {
    /// Planned epochs executed (as opposed to fallback one-tick rounds).
    pub epochs_run: u64,
    /// Rounds that fell back because the coherence fence is armed.
    pub stood_down_fence_armed: u64,
    /// Rounds that fell back because fault injection is active.
    pub stood_down_fault_injection: u64,
    /// Rounds that fell back because a barrier-serviced fault could have
    /// pushed the allocator into reclaim.
    pub stood_down_low_headroom: u64,
    /// Epochs planned and abandoned because some core's slice came out
    /// shorter than an epoch is worth (quantum end, housekeeping slack or
    /// instruction budget).
    pub stood_down_runt_slice: u64,
    /// Slices a page fault ended early.
    pub fault_truncated_slices: u64,
    /// Memory accesses logged by a worker and replayed at a barrier.
    pub replayed_accesses: u64,
    /// Slices handed to a worker (zero with one host thread).
    pub jobs_handed_off: u64,
}
