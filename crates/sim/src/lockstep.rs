//! The lockstep group bus: one kernel execution drives several
//! machines at once.
//!
//! [`Lockstep`] implements [`Bus`] by fanning every operation out to
//! one [`Machine`] per configuration: first every lane's access half
//! (design load/store/compute chunk plus the retire), then every lane's
//! settlement. A lane's settlement is one long dependent chain of f64
//! divisions and square roots whose order the byte-identity contract
//! fixes, so one machine alone is latency-bound; issuing the lanes'
//! chains back to back lets the CPU overlap them. Lanes never share
//! state, so each one sees exactly the operation sequence a solo run
//! would.
//!
//! The kernel only sees lane 0's loaded values. A lane whose load
//! returns anything else would have steered a solo run elsewhere, so
//! the group aborts with [`Diverged`] and [`crate::Simulator::run_group`]
//! falls back to one solo run per configuration.

use crate::machine::Machine;
use crate::params::COMPUTE_CHUNK_CYCLES;
use ehsim_mem::{AccessSize, Bus};

/// Panic payload raised when a lane's loaded value disagrees with
/// lane 0's.
pub(crate) struct Diverged;

/// A [`Bus`] that drives every machine in `lanes` in lockstep.
pub(crate) struct Lockstep {
    pub(crate) lanes: Vec<Machine>,
}

impl Bus for Lockstep {
    fn load(&mut self, addr: u32, size: AccessSize) -> u64 {
        let mut lead = None;
        for m in &mut self.lanes {
            let value = m.load_access(addr, size);
            if *lead.get_or_insert(value) != value {
                std::panic::panic_any(Diverged);
            }
        }
        self.lanes.iter_mut().for_each(Machine::settle);
        lead.unwrap_or_default()
    }

    fn store(&mut self, addr: u32, size: AccessSize, value: u64) {
        for m in &mut self.lanes {
            m.store_access(addr, size, value);
        }
        self.lanes.iter_mut().for_each(Machine::settle);
    }

    /// Chunk by chunk on the per-retire reference sequence, which the
    /// batched engine's fused compute loop reproduces bit for bit.
    fn compute(&mut self, cycles: u64) {
        self.lanes.iter_mut().for_each(Machine::begin_op);
        let mut remaining = cycles;
        while remaining > 0 {
            let chunk = remaining.min(COMPUTE_CHUNK_CYCLES);
            remaining -= chunk;
            for m in &mut self.lanes {
                m.compute_chunk(chunk);
            }
            self.lanes.iter_mut().for_each(Machine::settle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn lanes_that_load_different_values_abort_the_group() {
        let cfg = SimConfig::wl_cache();
        let mut bus = Lockstep {
            lanes: vec![Machine::new(&cfg, 4096), Machine::new(&cfg, 4096)],
        };
        bus.store_u32(0, 5);
        assert_eq!(bus.load_u32(0), 5, "lanes that agree");
        // A store only lane 1 sees: the next load of it disagrees.
        bus.lanes[1].store_u32(64, 7);
        let outcome = catch_unwind(AssertUnwindSafe(|| bus.load_u32(64)));
        let payload = outcome.expect_err("a disagreeing load must abort");
        assert!(payload.is::<Diverged>());
    }
}
