//! The MimicOS process scheduler: a round-robin, fixed-quantum scheduler
//! imitating the behaviour (not the implementation) of Linux CFS under a
//! steady multi-programmed load.
//!
//! The scheduler decides *which* process's trace the Virtuoso framework
//! feeds to the core model; the framework reports back how many
//! instructions actually ran and asks for a preemption decision when the
//! quantum expires. Context switches are surfaced as [`ContextSwitch`]
//! events so the framework can apply the architectural consequences (TLB
//! flush policy, switch-code instruction stream).

use crate::kernel::ProcessId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use vm_types::Counter;

/// A context-switch event: the outgoing and incoming process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContextSwitch {
    /// The process being descheduled.
    pub from: ProcessId,
    /// The process taking the core.
    pub to: ProcessId,
}

/// Scheduler statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedStats {
    /// Context switches performed (a quantum expiry with only one runnable
    /// process does not switch).
    pub context_switches: Counter,
    /// Quanta that ran to expiry.
    pub quanta_expired: Counter,
    /// Instructions accounted to each process, keyed by raw pid.
    pub instructions_by_pid: BTreeMap<usize, u64>,
}

impl SchedStats {
    /// Instructions accounted to one process.
    pub fn instructions_of(&self, pid: ProcessId) -> u64 {
        self.instructions_by_pid.get(&pid.0).copied().unwrap_or(0)
    }
}

/// Per-core scheduler state: one run queue and one running process.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CoreSched {
    runqueue: VecDeque<ProcessId>,
    current: Option<ProcessId>,
    ran_in_quantum: u64,
}

impl CoreSched {
    fn new() -> Self {
        CoreSched {
            runqueue: VecDeque::new(),
            current: None,
            ran_in_quantum: 0,
        }
    }
}

/// The round-robin quantum scheduler.
///
/// With more than one core, each core owns its own run queue and
/// processes are pinned to cores by `pid % num_cores` (no migration, so
/// a process's translation state lives on exactly one core). The
/// single-core entry points (`schedule`, `account`, `preempt`,
/// `current`) delegate to core 0 and behave exactly as before.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scheduler {
    quantum: u64,
    cores: Vec<CoreSched>,
    stats: SchedStats,
}

impl Scheduler {
    /// Builds a single-core scheduler with the given quantum (in
    /// instructions). A quantum of zero disables preemption.
    pub fn new(quantum: u64) -> Self {
        Scheduler::new_with_cores(quantum, 1)
    }

    /// Builds a scheduler managing `num_cores` run queues.
    pub fn new_with_cores(quantum: u64, num_cores: usize) -> Self {
        Scheduler {
            quantum: if quantum == 0 { u64::MAX } else { quantum },
            cores: (0..num_cores.max(1)).map(|_| CoreSched::new()).collect(),
            stats: SchedStats::default(),
        }
    }

    /// The quantum in instructions.
    pub fn quantum(&self) -> u64 {
        self.quantum
    }

    /// Instructions left in the quantum of the process running on `core`
    /// (the full quantum when the core is idle or freshly dispatched).
    pub fn remaining_quantum_on(&self, core: usize) -> u64 {
        self.quantum.saturating_sub(self.cores[core].ran_in_quantum)
    }

    /// Number of cores this scheduler places processes onto.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// The core a process is pinned to.
    pub fn core_of(&self, pid: ProcessId) -> usize {
        pid.0 % self.cores.len()
    }

    /// Statistics.
    pub fn stats(&self) -> &SchedStats {
        &self.stats
    }

    /// Admits a process to the tail of its core's run queue.
    pub fn admit(&mut self, pid: ProcessId) {
        let core = self.core_of(pid);
        self.cores[core].runqueue.push_back(pid);
    }

    /// The process currently holding core 0, if any.
    pub fn current(&self) -> Option<ProcessId> {
        self.current_on(0)
    }

    /// The process currently holding `core`, if any.
    pub fn current_on(&self, core: usize) -> Option<ProcessId> {
        self.cores[core].current
    }

    /// Number of runnable processes (running + queued) across all cores.
    pub fn runnable(&self) -> usize {
        self.cores
            .iter()
            .map(|c| c.runqueue.len() + usize::from(c.current.is_some()))
            .sum()
    }

    /// Ensures some process holds core 0 (see [`Scheduler::schedule_on`]).
    pub fn schedule(&mut self) -> Option<ProcessId> {
        self.schedule_on(0)
    }

    /// Ensures some process holds `core`, dispatching the head of its run
    /// queue if none does. Returns the running process, or `None` when the
    /// run queue is empty.
    pub fn schedule_on(&mut self, core: usize) -> Option<ProcessId> {
        let c = &mut self.cores[core];
        if c.current.is_none() {
            c.current = c.runqueue.pop_front();
            c.ran_in_quantum = 0;
        }
        c.current
    }

    /// Accounts `instructions` retired on core 0 (see
    /// [`Scheduler::account_on`]).
    ///
    /// # Panics
    ///
    /// Panics if no process is current on core 0.
    pub fn account(&mut self, instructions: u64) -> bool {
        self.account_on(0, instructions)
    }

    /// Accounts `instructions` retired by the process current on `core`.
    /// Returns `true` when the quantum has expired and
    /// [`Scheduler::preempt_on`] should be consulted.
    ///
    /// Accounting is batch-granular by design: the sharded run loop calls
    /// this once per core tick — or once per multi-instruction epoch
    /// slice under parallel host-thread stepping — never per instruction.
    /// Callers size their batches to the quantum remainder, so expiry
    /// still lands on exactly the instruction a per-instruction schedule
    /// would pick.
    ///
    /// # Panics
    ///
    /// Panics if no process is current on `core`.
    pub fn account_on(&mut self, core: usize, instructions: u64) -> bool {
        let c = &mut self.cores[core];
        let pid = c.current.expect("account() without a running process");
        *self.stats.instructions_by_pid.entry(pid.0).or_insert(0) += instructions;
        c.ran_in_quantum += instructions;
        c.ran_in_quantum >= self.quantum
    }

    /// Ends the current quantum on core 0 (see
    /// [`Scheduler::preempt_on`]).
    pub fn preempt(&mut self) -> Option<ContextSwitch> {
        self.preempt_on(0)
    }

    /// Ends the current quantum on `core`. If another process is queued
    /// there, rotates to it and returns the [`ContextSwitch`]; with a
    /// single runnable process the quantum simply restarts.
    pub fn preempt_on(&mut self, core: usize) -> Option<ContextSwitch> {
        let c = &mut self.cores[core];
        let from = c.current?;
        self.stats.quanta_expired.inc();
        c.ran_in_quantum = 0;
        let to = c.runqueue.pop_front()?;
        c.runqueue.push_back(from);
        c.current = Some(to);
        self.stats.context_switches.inc();
        Some(ContextSwitch { from, to })
    }

    /// Every process the scheduler currently tracks, as `(core, pid)`
    /// pairs: the running process of each core followed by its run queue in
    /// dispatch order. Used by the coherence fence to audit queue sanity
    /// (no duplicates, every pid alive, every pid on its home core).
    pub fn queued_snapshot(&self) -> Vec<(usize, ProcessId)> {
        let mut out = Vec::new();
        for (core, c) in self.cores.iter().enumerate() {
            if let Some(pid) = c.current {
                out.push((core, pid));
            }
            out.extend(c.runqueue.iter().map(|&pid| (core, pid)));
        }
        out
    }

    /// Removes a process (its trace ended or it was killed). If it was
    /// running, its core becomes idle until the next
    /// [`Scheduler::schedule_on`] call dispatches a successor.
    pub fn exit(&mut self, pid: ProcessId) {
        let core = self.core_of(pid);
        let c = &mut self.cores[core];
        if c.current == Some(pid) {
            c.current = None;
            c.ran_in_quantum = 0;
        } else {
            c.runqueue.retain(|&p| p != pid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: usize) -> ProcessId {
        ProcessId(n)
    }

    #[test]
    fn round_robin_rotates_through_the_runqueue() {
        let mut s = Scheduler::new(100);
        s.admit(pid(0));
        s.admit(pid(1));
        s.admit(pid(2));
        assert_eq!(s.schedule(), Some(pid(0)));
        assert!(s.account(100));
        assert_eq!(
            s.preempt(),
            Some(ContextSwitch {
                from: pid(0),
                to: pid(1)
            })
        );
        assert!(s.account(150));
        assert_eq!(
            s.preempt(),
            Some(ContextSwitch {
                from: pid(1),
                to: pid(2)
            })
        );
        assert!(s.account(100));
        // Back to the head.
        assert_eq!(s.preempt().unwrap().to, pid(0));
        assert_eq!(s.stats().context_switches.get(), 3);
    }

    #[test]
    fn a_lone_process_restarts_its_quantum_without_switching() {
        let mut s = Scheduler::new(50);
        s.admit(pid(4));
        assert_eq!(s.schedule(), Some(pid(4)));
        assert!(s.account(50));
        assert_eq!(s.preempt(), None);
        assert_eq!(s.current(), Some(pid(4)));
        assert_eq!(s.stats().context_switches.get(), 0);
        assert_eq!(s.stats().quanta_expired.get(), 1);
    }

    #[test]
    fn accounting_sums_to_the_total_run() {
        let mut s = Scheduler::new(10);
        s.admit(pid(0));
        s.admit(pid(1));
        s.schedule();
        let mut total = 0u64;
        for n in [10u64, 7, 10, 3, 10] {
            total += n;
            if s.account(n) {
                s.preempt();
            }
        }
        assert_eq!(
            s.stats().instructions_of(pid(0)) + s.stats().instructions_of(pid(1)),
            total
        );
        assert!(s.stats().instructions_of(pid(0)) > 0);
        assert!(s.stats().instructions_of(pid(1)) > 0);
    }

    #[test]
    fn exit_frees_the_core_and_the_queue() {
        let mut s = Scheduler::new(100);
        s.admit(pid(0));
        s.admit(pid(1));
        s.schedule();
        s.exit(pid(0));
        assert_eq!(s.current(), None);
        assert_eq!(s.schedule(), Some(pid(1)));
        s.exit(pid(1));
        assert_eq!(s.schedule(), None);
        assert_eq!(s.runnable(), 0);
    }

    #[test]
    fn zero_quantum_never_preempts() {
        let mut s = Scheduler::new(0);
        s.admit(pid(0));
        s.admit(pid(1));
        s.schedule();
        assert!(!s.account(u64::MAX / 2));
    }

    #[test]
    fn processes_are_pinned_by_pid_modulo_cores() {
        let mut s = Scheduler::new_with_cores(100, 2);
        for n in 0..4 {
            s.admit(pid(n));
        }
        assert_eq!(s.schedule_on(0), Some(pid(0)));
        assert_eq!(s.schedule_on(1), Some(pid(1)));
        assert_eq!(s.runnable(), 4);
        // Quantum expiry rotates within the core's own queue only.
        assert!(s.account_on(0, 100));
        assert_eq!(
            s.preempt_on(0),
            Some(ContextSwitch {
                from: pid(0),
                to: pid(2)
            })
        );
        assert_eq!(s.current_on(1), Some(pid(1)));
        // Exit targets the owning core even when queued elsewhere.
        s.exit(pid(3));
        s.exit(pid(1));
        assert_eq!(s.schedule_on(1), None);
        assert_eq!(s.current_on(0), Some(pid(2)));
    }

    #[test]
    fn single_core_constructor_matches_legacy_behaviour() {
        let mut legacy = Scheduler::new(50);
        let mut multi = Scheduler::new_with_cores(50, 1);
        for s in [&mut legacy, &mut multi] {
            s.admit(pid(0));
            s.admit(pid(1));
            s.schedule();
            assert!(s.account(50));
            assert_eq!(s.preempt().unwrap().to, pid(1));
        }
        assert_eq!(legacy.stats(), multi.stats());
    }
}
