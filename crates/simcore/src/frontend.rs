//! Frontend abstractions: the instruction format fed to the core model and
//! the trait implemented by trace generators.
//!
//! The paper's Virtuoso integrates with trace-based (ChampSim, Ramulator),
//! execution-driven (Sniper) and emulation-based (gem5) frontends. In this
//! reproduction the frontend is a [`TraceSource`]: any type that yields
//! [`Instruction`]s on demand. Synthetic workload generators in the
//! `vm-workloads` crate implement it.

use serde::{Deserialize, Serialize};
use vm_types::{AccessType, VirtAddr};

/// One instruction of the simulated application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Instruction {
    /// Program counter (virtual address of the instruction).
    pub pc: VirtAddr,
    /// The data memory operand, if the instruction is a load or store.
    pub memory: Option<(VirtAddr, AccessType)>,
}

impl Instruction {
    /// A non-memory (ALU/branch) instruction at `pc`.
    pub const fn compute(pc: VirtAddr) -> Self {
        Instruction { pc, memory: None }
    }

    /// A load from `addr` issued by the instruction at `pc`.
    pub const fn load(pc: VirtAddr, addr: VirtAddr) -> Self {
        Instruction {
            pc,
            memory: Some((addr, AccessType::Read)),
        }
    }

    /// A store to `addr` issued by the instruction at `pc`.
    pub const fn store(pc: VirtAddr, addr: VirtAddr) -> Self {
        Instruction {
            pc,
            memory: Some((addr, AccessType::Write)),
        }
    }

    /// `true` if the instruction references data memory.
    pub const fn is_memory(&self) -> bool {
        self.memory.is_some()
    }
}

/// A source of application instructions (the simulator frontend).
///
/// Sources are [`Send`]: with more than one host thread,
/// `System::run_multiprogram` moves each program's source, by exclusive
/// borrow, to the worker that fetches that program's epoch slice, and takes
/// it back at the barrier. A source is never used by two threads at once,
/// so it need not be `Sync`.
pub trait TraceSource: Send {
    /// Produces the next instruction, or `None` when the trace is finished.
    fn next_instruction(&mut self) -> Option<Instruction>;

    /// A human-readable name for reports.
    fn name(&self) -> &str {
        "trace"
    }

    /// A hint of how many instructions the trace will produce, when known.
    fn expected_instructions(&self) -> Option<u64> {
        None
    }
}

/// A frontend that replays a fixed slice of instructions (useful in tests
/// and for recorded traces).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SliceFrontend {
    name: String,
    instructions: Vec<Instruction>,
    position: usize,
}

impl SliceFrontend {
    /// Creates a frontend that replays `instructions` once.
    pub fn new(name: &str, instructions: Vec<Instruction>) -> Self {
        SliceFrontend {
            name: name.to_string(),
            instructions,
            position: 0,
        }
    }

    /// Number of instructions remaining.
    pub fn remaining(&self) -> usize {
        self.instructions.len() - self.position
    }
}

impl TraceSource for SliceFrontend {
    fn next_instruction(&mut self) -> Option<Instruction> {
        let instr = self.instructions.get(self.position).copied();
        if instr.is_some() {
            self.position += 1;
        }
        instr
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn expected_instructions(&self) -> Option<u64> {
        Some(self.instructions.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruction_constructors() {
        let c = Instruction::compute(VirtAddr::new(0x400));
        assert!(!c.is_memory());
        let l = Instruction::load(VirtAddr::new(0x404), VirtAddr::new(0x1000));
        assert_eq!(l.memory, Some((VirtAddr::new(0x1000), AccessType::Read)));
        let s = Instruction::store(VirtAddr::new(0x408), VirtAddr::new(0x2000));
        assert!(s.is_memory());
        assert_eq!(s.memory.unwrap().1, AccessType::Write);
    }

    #[test]
    fn slice_frontend_replays_in_order_then_ends() {
        let instrs = vec![
            Instruction::compute(VirtAddr::new(0x400)),
            Instruction::load(VirtAddr::new(0x404), VirtAddr::new(0x1000)),
        ];
        let mut fe = SliceFrontend::new("test", instrs.clone());
        assert_eq!(fe.expected_instructions(), Some(2));
        assert_eq!(fe.name(), "test");
        assert_eq!(fe.next_instruction(), Some(instrs[0]));
        assert_eq!(fe.remaining(), 1);
        assert_eq!(fe.next_instruction(), Some(instrs[1]));
        assert_eq!(fe.next_instruction(), None);
        assert_eq!(fe.next_instruction(), None);
    }
}
