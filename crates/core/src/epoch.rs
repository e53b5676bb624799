//! What crosses the host-thread boundary of a parallel epoch: a core's
//! translation frontend, its program's trace source and fetch queue, the
//! compact logs its local phase writes, the job that carries all of them to
//! a worker and back, and the workers themselves.
//!
//! Everything here is owned and moved — a [`SliceJob`] is sent to a worker
//! by value and comes back by value, and each finished chunk's [`SliceLog`]
//! comes back the same way ahead of it — so the borrow checker, not a
//! convention, guarantees the local phase touches core-private state only.
//! The run loop that plans, hands off and replays lives in
//! [`System::run_multiprogram`](crate::System::run_multiprogram).

use mmu_sim::{Mmu, TranslationEngine, WalkOutcome};
use serde::Serialize;
use sim_core::{Instruction, TraceSource};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::Scope;
use vm_types::{AccessType, Asid, Cycles, PhysAddr, VirtAddr};

/// Instructions per chunk of a slice's local phase: the worker sends each
/// finished chunk's log home as soon as it is written, so the barrier
/// replays core *k*'s first chunk while the worker still translates the
/// rest. The epoch-start bubble is one chunk, not one slice. 256 and 1 024
/// both measured slower on the threaded multi-core benchmark.
pub(crate) const LOG_CHUNK: usize = 512;

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

/// One logged memory access: 32 bytes, so a chunk's log is written and
/// replayed as one flat array. The walk's addresses live in
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

/// What one chunk of a core's local phase produced, pooled and reused
/// across epochs so the steady state allocates nothing.
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
    /// An empty log with room for one [`LOG_CHUNK`] of accesses and their
    /// radix walks, so filling it on a worker allocates nothing.
    pub(crate) fn for_chunk() -> Self {
        SliceLog {
            computes: 0,
            accesses: Vec::with_capacity(LOG_CHUNK),
            walk_addrs: Vec::with_capacity(4 * LOG_CHUNK),
            fault: None,
        }
    }

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

/// The instructions an epoch fetched from one program's source and has not
/// run yet, oldest at `buf[head]`. A slice executes in place at the front,
/// so a fault-truncated slice leaves its tail where the next epoch — or
/// fallback turn — of that program finds it first.
#[derive(Debug, Default)]
pub(crate) struct FetchQueue {
    pub(crate) buf: Vec<Instruction>,
    pub(crate) head: usize,
}

impl FetchQueue {
    /// An empty queue that slices of up to `max_cap` instructions never
    /// grow: [`FetchQueue::top_up`] reclaims the consumed prefix before it
    /// outweighs the rest, so the buffer stays under twice the largest cap.
    pub(crate) fn with_room(max_cap: usize) -> Self {
        FetchQueue {
            buf: Vec::with_capacity(2 * max_cap),
            head: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Fetches from `source` until `cap` instructions are queued; `false`
    /// when the source ran dry first. The serial path calls it on the run
    /// loop's thread, a worker on its own.
    pub(crate) fn top_up(&mut self, cap: usize, source: &mut dyn TraceSource) -> bool {
        // Reclaim the consumed prefix once it outweighs what is left, so
        // the copy is amortized over the instructions already run.
        if self.head >= self.len() {
            self.buf.drain(..self.head);
            self.head = 0;
        }
        while self.len() < cap {
            match source.next_instruction() {
                Some(instr) => self.buf.push(instr),
                None => return false,
            }
        }
        true
    }

    pub(crate) fn pop_front(&mut self) -> Option<Instruction> {
        let instr = self.buf.get(self.head).copied()?;
        self.head += 1;
        Some(instr)
    }
}

/// One program's instruction supply: its trace source and what an epoch
/// fetched from it but did not run. A job takes it to the worker that
/// fetches the slice and brings it back.
pub(crate) struct Feed<'a> {
    pub(crate) source: &'a mut dyn TraceSource,
    pub(crate) queue: FetchQueue,
}

/// One slice's local phase as a message: the run loop fills it in, a
/// worker fetches and runs it, the run loop takes it apart again. Every
/// field is owned (the trace source by exclusive borrow), so nothing of
/// `System` is reachable from a worker.
pub(crate) struct SliceJob<'a> {
    pub(crate) core: usize,
    pub(crate) asid: Asid,
    pub(crate) frontend: Box<Frontend>,
    pub(crate) feed: Feed<'a>,
    /// Instructions the slice may run; the worker tops the queue up to it.
    pub(crate) cap: usize,
    /// Set by the worker: instructions the slice had, `cap` or fewer if
    /// the source ran dry, which is `exhausted`.
    pub(crate) planned: usize,
    pub(crate) exhausted: bool,
    /// Empty logs from the run loop's pool, at least one per chunk the
    /// slice can have, so the worker allocates none.
    pub(crate) logs: Vec<SliceLog>,
    /// The slice's last chunk — the one a fault ended, or the one that ran
    /// out of instructions — which travels home with the job.
    pub(crate) last: SliceLog,
}

impl SliceJob<'_> {
    /// The worker's half of one slice: fetch it and translate it in chunks
    /// of [`LOG_CHUNK`] instructions, handing every chunk's log but the
    /// last to `stream` as soon as it is written. Each chunk is fetched
    /// just before it is translated, so the barrier's first chunk waits for
    /// one chunk's fetch, not the slice's; however the slice ends, its
    /// queue is then topped up to `cap`, as the serial path leaves it.
    fn run(&mut self, mut stream: impl FnMut(SliceLog)) {
        let mut done = 0;
        loop {
            let queue = &mut self.feed.queue;
            let want = (done + LOG_CHUNK).min(self.cap);
            let fed = queue.top_up(want, &mut *self.feed.source);
            let end = want.min(queue.len());
            let mut log = self
                .logs
                .pop()
                .expect("the run loop supplies a log per chunk");
            let chunk = &queue.buf[queue.head..][done..end];
            self.frontend.run_slice_local(self.asid, chunk, &mut log);
            done = end;
            if log.fault.is_some() || !fed || done == self.cap {
                self.exhausted = !fed || !queue.top_up(self.cap, &mut *self.feed.source);
                self.planned = self.cap.min(queue.len());
                self.last = log;
                return;
            }
            stream(log);
        }
    }
}

/// What a worker sends home: a finished chunk's log ahead of its job, or
/// the job itself.
pub(crate) enum Done<'a> {
    Chunk { core: usize, log: SliceLog },
    Job(SliceJob<'a>),
}

/// The epoch workers: threads that live as long as one
/// `run_multiprogram` call, each blocked on its own job queue between
/// slices. Chunks and finished jobs come back on one shared queue in
/// whatever order the workers produce them — in order for any one core,
/// whose jobs always go to the same worker; the run loop files them by
/// core.
pub(crate) struct Workers<'a> {
    jobs: Vec<SyncSender<SliceJob<'a>>>,
    /// `None` is a worker's dying word: it panicked mid-job.
    done: Receiver<Option<Done<'a>>>,
}

impl<'a> Workers<'a> {
    /// Spawns `count` workers on `scope`. `depth` bounds the jobs in flight
    /// at once (the core count) and `chunks` the messages one job sends
    /// home, so the done queue holds every message that can be in flight
    /// and no send ever blocks: a worker runs ahead of the barrier by at
    /// most one epoch, and the queues' preallocated slots are all the
    /// memory the hand-off uses.
    pub(crate) fn spawn<'scope>(
        scope: &'scope Scope<'scope, '_>,
        count: usize,
        depth: usize,
        chunks: usize,
    ) -> Self
    where
        'a: 'scope,
    {
        let (done_tx, done) = sync_channel(depth * chunks + count);
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
    pub(crate) fn send(&self, job: SliceJob<'a>) {
        self.jobs[job.core % self.jobs.len()]
            .send(job)
            .expect("an epoch worker panicked");
    }

    /// Blocks until a worker sends a chunk or a job home; the caller knows
    /// a job is out.
    ///
    /// # Panics
    ///
    /// Panics if a worker panicked instead of finishing its job.
    pub(crate) fn recv(&self) -> Done<'a> {
        match self.done.recv() {
            Ok(Some(done)) => done,
            Ok(None) | Err(_) => panic!("an epoch worker panicked"),
        }
    }
}

/// A worker's whole life: run each job's local phase, streaming its chunks
/// home, then send the job back. Ends when the run loop drops its end of
/// either queue.
fn work<'a>(jobs: &Receiver<SliceJob<'a>>, done: &SyncSender<Option<Done<'a>>>) {
    /// Wakes the run loop if this thread unwinds, so a panic in the local
    /// phase surfaces instead of leaving `Workers::recv` blocked forever.
    struct Poison<'s, 'a>(&'s SyncSender<Option<Done<'a>>>);
    impl Drop for Poison<'_, '_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                let _ = self.0.send(None);
            }
        }
    }
    let _poison = Poison(done);
    while let Ok(mut job) = jobs.recv() {
        let core = job.core;
        let mut home = true;
        job.run(|log| home &= done.send(Some(Done::Chunk { core, log })).is_ok());
        if !home || done.send(Some(Done::Job(job))).is_err() {
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
    /// Chunk logs the barrier replayed while their slice's job was still
    /// out on a worker (zero with one host thread).
    pub chunks_streamed: u64,
}
