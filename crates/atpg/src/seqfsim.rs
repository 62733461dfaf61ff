//! Fault-parallel three-valued sequential fault simulation.
//!
//! The paper's "Orig." and "HSCAN-only" rows of Table 3 fault-simulate the
//! *sequential* chip (no scan access) against test sequences. Doing that
//! fault-serially is quadratic and slow, so this simulator runs up to 64
//! faulty machines per pass of `socet-gate`'s compiled kernel over
//! [`P3`] words (dual-rail 0/1/X, since flip-flops power up unknown): lane
//! *k* of every signal carries the value seen by fault *k* of the current
//! block, whose stuck-at [`Force`] is applied on lane *k* only.
//!
//! Fault blocks are mutually independent — each shares only the read-only
//! kernel and the good-machine reference — so [`SeqFaultSim::run_from`]
//! additionally partitions them into contiguous runs through
//! [`socet_obs::fan_out`]; results are bit-identical for any worker count.

use crate::fault::Fault;
use socet_gate::{Force, GateNetlist, PackedSim, Tri, P3};

/// Fault-parallel sequential fault simulator.
///
/// # Examples
///
/// ```
/// use socet_gate::{GateNetlistBuilder, Tri};
/// use socet_atpg::{Fault, SeqFaultSim};
/// let mut b = GateNetlistBuilder::new("dff");
/// let d = b.input("d");
/// let q = b.dff(d);
/// b.output("q", q);
/// let nl = b.build()?;
/// let sim = SeqFaultSim::new(&nl);
/// // Clock in 1 then observe: q stuck-at-0 is detected.
/// let vectors = vec![vec![Tri::One], vec![Tri::Zero]];
/// let det = sim.run(&[Fault::sa0(q)], &vectors);
/// assert_eq!(det, vec![true]);
/// # Ok::<(), socet_gate::GateError>(())
/// ```
#[derive(Debug)]
pub struct SeqFaultSim<'a> {
    nl: &'a GateNetlist,
    sim: PackedSim<'a>,
    /// Worker cap for block partitioning (1 forces serial evaluation).
    workers: usize,
}

impl<'a> SeqFaultSim<'a> {
    /// Creates a simulator over `nl`.
    pub fn new(nl: &'a GateNetlist) -> Self {
        SeqFaultSim {
            nl,
            sim: PackedSim::new(nl),
            workers: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
        }
    }

    /// Caps the number of worker threads block partitioning may use; `0`
    /// and `1` both force serial evaluation. Results are bit-identical for
    /// every setting.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Simulates `vectors` (applied cycle by cycle from X-initialized state)
    /// against every fault; `result[i]` reports whether `faults[i]` produced
    /// a definite, wrong value at a primary output in some cycle.
    ///
    /// # Panics
    ///
    /// Panics if a vector's length differs from the netlist's input count.
    pub fn run(&self, faults: &[Fault], vectors: &[Vec<Tri>]) -> Vec<bool> {
        self.run_from(faults, vectors, Tri::X)
    }

    /// Like [`SeqFaultSim::run`] but with every flip-flop initialized to
    /// `init` — pass [`Tri::Zero`] to model a chip that starts from reset.
    pub fn run_from(&self, faults: &[Fault], vectors: &[Vec<Tri>], init: Tri) -> Vec<bool> {
        let vectors: Vec<Vec<P3>> = vectors
            .iter()
            .map(|v| v.iter().map(|&t| P3::splat(t)).collect())
            .collect();
        // Reference (good-machine) outputs per cycle.
        let mut good = Vec::with_capacity(vectors.len());
        self.clock(&vectors, init, &[], |outs| good.push(outs.to_vec()));

        let blocks: Vec<&[Fault]> = faults.chunks(64).collect();
        let runs = socet_obs::fan_out(blocks.len(), self.workers, |range| {
            blocks[range]
                .iter()
                .flat_map(|block| self.run_block(block, &vectors, &good, init))
                .collect::<Vec<bool>>()
        });
        runs.concat()
    }

    /// Clocks `vectors` through the kernel from every flip-flop at `init`,
    /// with `forces` (sorted) applied each cycle, handing each cycle's
    /// primary-output words to `observe`.
    fn clock(
        &self,
        vectors: &[Vec<P3>],
        init: Tri,
        forces: &[Force],
        mut observe: impl FnMut(&[P3]),
    ) {
        let (sim, nl) = (&self.sim, self.nl);
        let mut state = vec![P3::splat(init); nl.flip_flop_count()];
        let (mut values, mut outs) = (Vec::new(), Vec::new());
        for pi in vectors {
            sim.eval_forced(pi, &state, forces, &mut values);
            outs.clear();
            outs.extend((0..nl.outputs().len()).map(|i| sim.output(&values, i)));
            observe(&outs);
            sim.next_state_into(&values, &mut state);
        }
    }

    /// Simulates one block of ≤64 faults, fault *k* in lane *k*; entry *k*
    /// of the result tells whether lane *k* ever showed a definite value
    /// opposite to the good machine's at a primary output.
    fn run_block(
        &self,
        block: &[Fault],
        vectors: &[Vec<P3>],
        good: &[Vec<P3>],
        init: Tri,
    ) -> impl Iterator<Item = bool> {
        let mut forces: Vec<Force> = block
            .iter()
            .enumerate()
            .map(|(k, f)| Force::stuck(f.signal, f.stuck_at_one, 1 << k))
            .collect();
        self.sim.sort_forces(&mut forces);
        let mut lanes = 0u64;
        let mut cycle = 0;
        self.clock(vectors, init, &forces, |outs| {
            for (g, f) in good[cycle].iter().zip(outs) {
                lanes |= (g.d1 & f.d0) | (g.d0 & f.d1);
            }
            cycle += 1;
        });
        (0..block.len()).map(move |k| lanes >> k & 1 != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::fault_list;
    use socet_gate::{GateNetlistBuilder, SeqSim};

    fn dff_chain(len: usize) -> GateNetlist {
        let mut b = GateNetlistBuilder::new("chain");
        let d = b.input("d");
        let mut s = d;
        for _ in 0..len {
            s = b.dff(s);
        }
        b.output("q", s);
        b.build().unwrap()
    }

    #[test]
    fn undetectable_without_enough_cycles() {
        let nl = dff_chain(3);
        let sim = SeqFaultSim::new(&nl);
        let faults = fault_list(&nl);
        // Two cycles cannot flush a 3-deep chain: the output is still X,
        // nothing definite to compare.
        let vectors = vec![vec![Tri::One]; 2];
        let det = sim.run(&faults, &vectors);
        assert!(det.iter().all(|&d| !d));
    }

    #[test]
    fn chain_faults_detected_after_flush() {
        let nl = dff_chain(3);
        let sim = SeqFaultSim::new(&nl);
        let faults = fault_list(&nl);
        // Drive 1s for 4 cycles (flush + observe), then 0s for 5: both
        // polarities become observable.
        let mut vectors = vec![vec![Tri::One]; 5];
        vectors.extend(vec![vec![Tri::Zero]; 6]);
        let det = sim.run(&faults, &vectors);
        assert!(
            det.iter().all(|&d| d),
            "undetected: {:?}",
            faults
                .iter()
                .zip(&det)
                .filter(|(_, &d)| !d)
                .map(|(f, _)| *f)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn agrees_with_scalar_seq_sim() {
        // Cross-check against SeqSim's lane-0 fault injection, fault by
        // fault (the independent scalar oracle is in tests/properties.rs).
        let nl = dff_chain(2);
        let faults = fault_list(&nl);
        let vectors: Vec<Vec<Tri>> = [Tri::One, Tri::Zero, Tri::One, Tri::One, Tri::Zero]
            .iter()
            .map(|t| vec![*t])
            .collect();
        let packed = SeqFaultSim::new(&nl).run(&faults, &vectors);
        for (fi, fault) in faults.iter().enumerate() {
            let mut good = SeqSim::new(&nl);
            let mut bad = SeqSim::new(&nl);
            let mut scalar_detected = false;
            for v in &vectors {
                let g = good.step(v, None);
                let f = bad.step(v, Some((fault.signal, fault.stuck_at_one)));
                for (gv, fv) in g.iter().zip(&f) {
                    if let (Some(a), Some(b)) = (gv.to_bool(), fv.to_bool()) {
                        if a != b {
                            scalar_detected = true;
                        }
                    }
                }
            }
            assert_eq!(packed[fi], scalar_detected, "{fault}");
        }
    }

    #[test]
    fn more_than_64_faults_use_blocks() {
        // A wide netlist with >64 fault sites.
        let mut b = GateNetlistBuilder::new("wide");
        let mut outs = Vec::new();
        for i in 0..40 {
            let x = b.input(&format!("x{i}"));
            let q = b.dff(x);
            outs.push(q);
        }
        for (i, q) in outs.iter().enumerate() {
            b.output(&format!("q{i}"), *q);
        }
        let nl = b.build().unwrap();
        let faults = fault_list(&nl);
        assert!(faults.len() > 64);
        let sim = SeqFaultSim::new(&nl);
        let vectors = vec![vec![Tri::One; 40], vec![Tri::Zero; 40], vec![Tri::Zero; 40]];
        let det = sim.run(&faults, &vectors);
        assert!(det.iter().all(|&d| d));
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let mut b = GateNetlistBuilder::new("wide");
        let mut outs = Vec::new();
        for i in 0..40 {
            let x = b.input(&format!("x{i}"));
            let q = b.dff(x);
            outs.push(q);
        }
        for (i, q) in outs.iter().enumerate() {
            b.output(&format!("q{i}"), *q);
        }
        let nl = b.build().unwrap();
        let faults = fault_list(&nl);
        let vectors = vec![vec![Tri::One; 40], vec![Tri::X; 40], vec![Tri::Zero; 40]];
        let serial = SeqFaultSim::new(&nl).with_workers(1).run(&faults, &vectors);
        let parallel = SeqFaultSim::new(&nl).with_workers(6).run(&faults, &vectors);
        assert_eq!(serial, parallel);
    }
}
