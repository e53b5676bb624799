//! The core timing model: an out-of-order-approximating accounting model
//! that charges compute instructions at the core's sustained IPC and memory
//! instructions with partially overlapped memory latency.

use serde::{Deserialize, Serialize};
use vm_types::{Counter, Cycles, Frequency};

/// Configuration of the core timing model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Sustained issue rate for non-memory instructions (instructions per
    /// cycle); the paper's baseline is a 4-wide out-of-order core, which
    /// sustains roughly 2–3 IPC on integer code.
    pub compute_ipc: f64,
    /// Fraction of a memory access's latency that the out-of-order window
    /// hides by overlapping it with other work (0 = fully exposed,
    /// 1 = fully hidden). Typical OoO cores hide a substantial part of L2/L3
    /// hits but little of DRAM latency for dependent accesses.
    pub memory_overlap: f64,
    /// Core clock frequency.
    pub frequency: Frequency,
}

impl CoreConfig {
    /// The paper's baseline core (Table 4): 4-way out-of-order at 2.9 GHz.
    pub fn paper_baseline() -> Self {
        CoreConfig {
            compute_ipc: 2.5,
            memory_overlap: 0.35,
            frequency: Frequency::from_ghz(2.9),
        }
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig::paper_baseline()
    }
}

/// Statistics of the core model.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CoreStats {
    /// Application instructions retired.
    pub app_instructions: Counter,
    /// Kernel (injected MimicOS) instructions retired.
    pub kernel_instructions: Counter,
    /// Cycles spent executing application work.
    pub app_cycles: u64,
    /// Cycles spent executing injected kernel work.
    pub kernel_cycles: u64,
}

/// The core timing model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoreModel {
    config: CoreConfig,
    cycles_x1000: u64,
    stats: CoreStats,
    /// When `true`, retired work is attributed to the kernel stream.
    in_kernel_mode: bool,
}

impl CoreModel {
    /// Creates a core model.
    pub fn new(config: CoreConfig) -> Self {
        CoreModel {
            config,
            cycles_x1000: 0,
            stats: CoreStats::default(),
            in_kernel_mode: false,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// Statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Total elapsed cycles.
    pub fn cycles(&self) -> Cycles {
        Cycles::new(self.cycles_x1000 / 1000)
    }

    /// Total retired instructions (application + kernel).
    pub fn instructions(&self) -> u64 {
        self.stats.app_instructions.get() + self.stats.kernel_instructions.get()
    }

    /// Instructions per cycle over the whole run (application + kernel).
    pub fn ipc(&self) -> f64 {
        let cycles = self.cycles().raw();
        if cycles == 0 {
            0.0
        } else {
            self.instructions() as f64 / cycles as f64
        }
    }

    /// IPC of the application instructions only, with kernel cycles still
    /// counted as elapsed time (the application-visible slowdown).
    pub fn app_ipc(&self) -> f64 {
        let cycles = self.cycles().raw();
        if cycles == 0 {
            0.0
        } else {
            self.stats.app_instructions.get() as f64 / cycles as f64
        }
    }

    /// Switches attribution between application and kernel work (entering /
    /// leaving an injected MimicOS instruction stream).
    pub fn set_kernel_mode(&mut self, enabled: bool) {
        self.in_kernel_mode = enabled;
    }

    /// `true` while retiring an injected kernel stream.
    pub fn in_kernel_mode(&self) -> bool {
        self.in_kernel_mode
    }

    fn advance(&mut self, cycles_x1000: u64, instructions: u64) {
        self.advance_split(cycles_x1000, cycles_x1000 / 1000, instructions);
    }

    /// [`CoreModel::advance`] with the whole cycles credited to the current
    /// mode given apart, for a batch whose per-instruction truncations add
    /// up to less than one truncation of its total.
    fn advance_split(&mut self, cycles_x1000: u64, cycles: u64, instructions: u64) {
        self.cycles_x1000 += cycles_x1000;
        if self.in_kernel_mode {
            self.stats.kernel_instructions.add(instructions);
            self.stats.kernel_cycles += cycles;
        } else {
            self.stats.app_instructions.add(instructions);
            self.stats.app_cycles += cycles;
        }
    }

    /// Retires `count` non-memory instructions.
    pub fn retire_compute(&mut self, count: u64) {
        if count == 0 {
            return;
        }
        let cycles_x1000 = (count as f64 * 1000.0 / self.config.compute_ipc) as u64;
        self.advance(cycles_x1000, count);
    }

    /// Retires `n` non-memory instructions one at a time, in closed form:
    /// the core ends in exactly the state `n` calls to
    /// `retire_compute(1)` leave, each of which truncates its own cycles.
    /// (`retire_compute(n)` truncates once, over the batch.)
    pub fn retire_computes(&mut self, n: u64) {
        let per_instruction = (1000.0 / self.config.compute_ipc) as u64;
        self.advance_split(n * per_instruction, n * (per_instruction / 1000), n);
    }

    /// Retires one memory instruction whose memory-system latency was
    /// `latency`; the out-of-order window hides `memory_overlap` of it.
    pub fn retire_memory(&mut self, latency: Cycles) {
        let exposed = latency.raw() as f64 * (1.0 - self.config.memory_overlap);
        // The instruction itself also occupies an issue slot.
        let cycles_x1000 = (exposed * 1000.0) as u64 + (1000.0 / self.config.compute_ipc) as u64;
        self.advance(cycles_x1000, 1);
    }

    /// Charges an arbitrary stall (e.g. storage I/O) without retiring an
    /// instruction.
    pub fn stall(&mut self, latency: Cycles) {
        self.advance(latency.raw() * 1000, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_instructions_retire_at_configured_ipc() {
        let mut core = CoreModel::new(CoreConfig {
            compute_ipc: 2.0,
            memory_overlap: 0.0,
            frequency: Frequency::from_ghz(1.0),
        });
        core.retire_compute(1000);
        assert_eq!(core.cycles(), Cycles::new(500));
        assert!((core.ipc() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn memory_latency_is_partially_hidden() {
        let cfg = CoreConfig {
            compute_ipc: 1.0,
            memory_overlap: 0.5,
            frequency: Frequency::from_ghz(1.0),
        };
        let mut core = CoreModel::new(cfg);
        core.retire_memory(Cycles::new(100));
        // 50 cycles exposed + 1 issue cycle.
        assert_eq!(core.cycles(), Cycles::new(51));
    }

    #[test]
    fn kernel_mode_attributes_work_separately() {
        let mut core = CoreModel::new(CoreConfig::paper_baseline());
        core.retire_compute(100);
        core.set_kernel_mode(true);
        core.retire_compute(50);
        core.retire_memory(Cycles::new(80));
        core.set_kernel_mode(false);
        assert_eq!(core.stats().app_instructions.get(), 100);
        assert_eq!(core.stats().kernel_instructions.get(), 51);
        assert!(core.stats().kernel_cycles > 0);
        assert_eq!(core.instructions(), 151);
        assert!(core.app_ipc() < core.ipc() + 1e-12);
    }

    proptest::proptest! {
        /// The closed form the epoch barrier replays a chunk's compute
        /// instructions with leaves the core exactly where `n` single
        /// retires do, whatever the IPC's rounding, the mode and the cycles
        /// already on the clock.
        #[test]
        fn retire_computes_equals_n_single_retires(
            compute_ipc in 0.05f64..8.0,
            n in 0u64..5_000,
            kernel in proptest::prelude::any::<bool>(),
            before in 0u64..1_000,
            latency in 0u64..400,
        ) {
            let config = CoreConfig {
                compute_ipc,
                memory_overlap: 0.3,
                frequency: Frequency::from_ghz(2.0),
            };
            let mut closed = CoreModel::new(config);
            closed.retire_compute(before);
            closed.retire_memory(Cycles::new(latency));
            closed.set_kernel_mode(kernel);
            let mut looped = closed.clone();
            closed.retire_computes(n);
            for _ in 0..n {
                looped.retire_compute(1);
            }
            proptest::prop_assert_eq!(closed.stats(), looped.stats());
            proptest::prop_assert_eq!(closed.cycles(), looped.cycles());
            proptest::prop_assert_eq!(closed.cycles_x1000, looped.cycles_x1000);
        }
    }

    #[test]
    fn zero_work_has_zero_ipc() {
        let core = CoreModel::new(CoreConfig::paper_baseline());
        assert_eq!(core.ipc(), 0.0);
        assert_eq!(core.cycles(), Cycles::ZERO);
    }
}
