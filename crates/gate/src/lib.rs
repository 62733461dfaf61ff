//! Gate-level substrate: netlists, elaboration from RTL, and logic
//! simulation.
//!
//! The paper's flow relies on an in-house synthesis tool (to get cell-count
//! areas) and on logic-level models of each core (for ATPG and fault
//! simulation). This crate is that substrate:
//!
//! * [`GateNetlist`] / [`GateNetlistBuilder`] — a flat netlist of simple
//!   gates and D flip-flops, where every gate defines one signal;
//! * [`elaborate()`](elaborate::elaborate) — deterministic decomposition of a `socet-rtl`
//!   [`Core`](socet_rtl::Core) into gates (registers → DFFs, mux trees →
//!   MUX2 chains, functional units → ripple structures, random blocks →
//!   seeded gate networks);
//! * [`PackedSim`] — the one gate-evaluation kernel: a levelized op array
//!   compiled once per netlist, evaluated over 64 lanes of a [`Word`]
//!   (`u64` for two-valued lanes, [`P3`] for 0/1/X lanes) with per-lane
//!   stuck-at [`Force`]s; [`sim::eval`] is the only statement of gate
//!   semantics;
//! * [`CombSim`] — two-valued simulation, lane 0 of the kernel over `u64`;
//! * [`SeqSim`] — three-valued (0/1/X) sequential simulation for the
//!   un-DFT'd "Orig." experiments, lane 0 of the kernel over [`P3`].
//!
//! The fault simulators and PODEM in `socet-atpg` are drivers over the
//! same kernel.
//!
//! # Examples
//!
//! ```
//! use socet_gate::{GateKind, GateNetlistBuilder, CombSim};
//!
//! let mut b = GateNetlistBuilder::new("xor2");
//! let a = b.input("a");
//! let c = b.input("b");
//! let x = b.gate2(GateKind::Xor2, a, c);
//! b.output("y", x);
//! let nl = b.build()?;
//! let sim = CombSim::new(&nl);
//! assert_eq!(sim.run(&[true, false]), vec![true]);
//! # Ok::<(), socet_gate::GateError>(())
//! ```

pub mod codec;
pub mod elaborate;
pub mod export;
pub mod netlist;
pub mod sim;

pub use elaborate::{elaborate, elaborate_with, ElabOptions, Elaborated};
pub use netlist::{Gate, GateError, GateKind, GateNetlist, GateNetlistBuilder, SignalId};
pub use sim::{CombSim, Force, PackedSim, SeqSim, Tri, Word, P3};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_doc_example() {
        let mut b = GateNetlistBuilder::new("xor2");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.gate2(GateKind::Xor2, a, c);
        b.output("y", x);
        let nl = b.build().unwrap();
        let sim = CombSim::new(&nl);
        assert_eq!(sim.run(&[true, false]), vec![true]);
    }
}
