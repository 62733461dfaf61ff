//! Logic simulation: two-valued, 64-way packed, and three-valued sequential.

use crate::netlist::{GateKind, GateNetlist, SignalId};
use std::fmt;

/// Two-valued combinational simulator: lane 0 of
/// [`PackedSim`]'s compiled kernel.
///
/// Flip-flop outputs are treated as extra inputs (the full-scan view); use
/// [`CombSim::run_with_state`] to supply them, or [`CombSim::run`] to hold
/// them all at 0.
///
/// # Examples
///
/// ```
/// use socet_gate::{CombSim, GateKind, GateNetlistBuilder};
/// let mut b = GateNetlistBuilder::new("and");
/// let x = b.input("x");
/// let y = b.input("y");
/// let z = b.gate2(GateKind::And2, x, y);
/// b.output("z", z);
/// let nl = b.build()?;
/// let sim = CombSim::new(&nl);
/// assert_eq!(sim.run(&[true, true]), vec![true]);
/// assert_eq!(sim.run(&[true, false]), vec![false]);
/// # Ok::<(), socet_gate::GateError>(())
/// ```
#[derive(Debug)]
pub struct CombSim<'a> {
    sim: PackedSim<'a>,
}

fn lane0(bits: &[bool]) -> Vec<u64> {
    bits.iter().map(|&b| u64::from(b)).collect()
}

impl<'a> CombSim<'a> {
    /// Creates a simulator over `nl`.
    pub fn new(nl: &'a GateNetlist) -> Self {
        CombSim {
            sim: PackedSim::new(nl),
        }
    }

    /// Evaluates the netlist with flip-flops held at 0 and returns the
    /// primary-output values.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the number of primary inputs.
    pub fn run(&self, inputs: &[bool]) -> Vec<bool> {
        let zeros = vec![false; self.sim.ff_q.len()];
        self.run_with_state(inputs, &zeros).0
    }

    /// Evaluates the netlist with the given flip-flop state; returns
    /// `(primary outputs, next flip-flop state)`.
    ///
    /// # Panics
    ///
    /// Panics on input or state length mismatch.
    pub fn run_with_state(&self, inputs: &[bool], state: &[bool]) -> (Vec<bool>, Vec<bool>) {
        let v = self.sim.eval(&lane0(inputs), &lane0(state), None);
        let bit = |s: &u32| v[*s as usize] & 1 != 0;
        (
            self.sim.outputs.iter().map(bit).collect(),
            self.sim.ff_d.iter().map(bit).collect(),
        )
    }

    /// Evaluates every signal; the result is indexed by [`SignalId::index`].
    ///
    /// # Panics
    ///
    /// Panics on input or state length mismatch.
    pub fn eval_signals(&self, inputs: &[bool], state: &[bool]) -> Vec<bool> {
        self.sim
            .eval(&lane0(inputs), &lane0(state), None)
            .iter()
            .map(|w| w & 1 != 0)
            .collect()
    }
}

/// One compiled gate: kind, defined signal, operands (unused slots read 0).
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: GateKind,
    dst: u32,
    ops: [u32; 3],
}

/// 64-way bit-parallel pattern simulator: each signal carries a `u64` whose
/// bit *k* is the value under pattern *k*.
///
/// [`PackedSim::new`] compiles the netlist once into a flat, levelized op
/// array (gate kind plus `u32` operand indices) and index lists for
/// inputs, flip-flops, outputs and constants, so an evaluation is one pass
/// over that array with no netlist scans.
///
/// Supports single-stuck-at fault injection, which makes it the engine of
/// the parallel-pattern fault simulator in `socet-atpg`.
///
/// # Examples
///
/// ```
/// use socet_gate::{GateKind, GateNetlistBuilder, PackedSim};
/// let mut b = GateNetlistBuilder::new("inv");
/// let a = b.input("a");
/// let y = b.gate1(GateKind::Not, a);
/// b.output("y", y);
/// let nl = b.build()?;
/// let sim = PackedSim::new(&nl);
/// let values = sim.eval(&[0b01u64], &[], None);
/// assert_eq!(values[y.index()] & 0b11, 0b10);
/// # Ok::<(), socet_gate::GateError>(())
/// ```
#[derive(Debug)]
pub struct PackedSim<'a> {
    nl: &'a GateNetlist,
    /// Combinational gates in topological order.
    ops: Vec<Op>,
    /// Primary-input signals, in input order.
    inputs: Vec<u32>,
    /// Flip-flop Q signals, in index order.
    ff_q: Vec<u32>,
    /// The D signal of each flip-flop, aligned with `ff_q`.
    ff_d: Vec<u32>,
    /// Primary-output signals, in output order.
    outputs: Vec<u32>,
    /// Constant-1 sources.
    ones: Vec<u32>,
}

impl<'a> PackedSim<'a> {
    /// Compiles `nl` into a packed simulator.
    pub fn new(nl: &'a GateNetlist) -> Self {
        let op = |s: &SignalId| {
            let g = nl.gate(*s);
            let ops = g.ops.map(|o| if o == SignalId::NONE { 0 } else { o.0 });
            Op {
                kind: g.kind,
                dst: s.0,
                ops,
            }
        };
        let ffs = nl.flip_flops();
        PackedSim {
            nl,
            ops: nl.topo_order().iter().map(op).collect(),
            inputs: nl.inputs().iter().map(|(_, s)| s.0).collect(),
            ff_q: ffs.iter().map(|q| q.0).collect(),
            ff_d: ffs.iter().map(|q| nl.gate(*q).ops[0].0).collect(),
            outputs: nl.outputs().iter().map(|(_, s)| s.0).collect(),
            ones: (0..nl.gates().len() as u32)
                .filter(|&i| nl.gates()[i as usize].kind == GateKind::Const1)
                .collect(),
        }
    }

    /// Evaluates every signal under up to 64 patterns at once.
    ///
    /// `pi[i]` is the packed value of the *i*-th primary input, `ff[j]` of
    /// the *j*-th flip-flop Q. When `fault` is `Some((s, stuck))`, signal `s`
    /// is forced to all-`stuck` before its fanout reads it.
    ///
    /// # Panics
    ///
    /// Panics on input or state length mismatch.
    pub fn eval(&self, pi: &[u64], ff: &[u64], fault: Option<(SignalId, bool)>) -> Vec<u64> {
        let mut v = Vec::new();
        self.eval_into(pi, ff, fault, &mut v);
        v
    }

    /// Like [`PackedSim::eval`] but writes into a caller-owned buffer, so a
    /// hot loop allocates nothing after its first call.
    ///
    /// # Panics
    ///
    /// Panics on input or state length mismatch.
    pub fn eval_into(
        &self,
        pi: &[u64],
        ff: &[u64],
        fault: Option<(SignalId, bool)>,
        v: &mut Vec<u64>,
    ) {
        assert_eq!(pi.len(), self.inputs.len(), "input length");
        assert_eq!(ff.len(), self.ff_q.len(), "state length");
        v.clear();
        v.resize(self.nl.gates().len(), 0);
        for (&s, &x) in self.inputs.iter().zip(pi) {
            v[s as usize] = x;
        }
        for (&s, &x) in self.ff_q.iter().zip(ff) {
            v[s as usize] = x;
        }
        for &s in &self.ones {
            v[s as usize] = u64::MAX;
        }
        let Some((s, stuck)) = fault else {
            return run_ops(&self.ops, v);
        };
        // A fault on a source takes effect before the pass; one on a
        // combinational gate right after the gate is evaluated.
        let word = if stuck { u64::MAX } else { 0 };
        let split = self
            .ops
            .iter()
            .position(|op| op.dst as usize == s.index())
            .map_or(0, |k| k + 1);
        run_ops(&self.ops[..split], v);
        v[s.index()] = word;
        run_ops(&self.ops[split..], v);
    }

    /// Packed value of the `i`-th primary output in a signal vector
    /// produced by [`PackedSim::eval_into`].
    pub fn output(&self, values: &[u64], i: usize) -> u64 {
        values[self.outputs[i] as usize]
    }

    /// Writes the packed next-state (DFF D) values of a full signal vector
    /// into `next`, reusing its allocation.
    pub fn next_state_into(&self, values: &[u64], next: &mut Vec<u64>) {
        next.clear();
        next.extend(self.ff_d.iter().map(|d| values[*d as usize]));
    }
}

/// Evaluates `ops` in order over the signal vector `v`.
fn run_ops(ops: &[Op], v: &mut [u64]) {
    for op in ops {
        let [a, b, c] = op.ops.map(|s| v[s as usize]);
        v[op.dst as usize] = match op.kind {
            GateKind::Not => !a,
            GateKind::Buf => a,
            GateKind::And2 => a & b,
            GateKind::Or2 => a | b,
            GateKind::Nand2 => !(a & b),
            GateKind::Nor2 => !(a | b),
            GateKind::Xor2 => a ^ b,
            GateKind::Xnor2 => !(a ^ b),
            GateKind::Mux2 => (!a & b) | (a & c),
            _ => unreachable!("topo order holds only combinational gates"),
        };
    }
}

/// A three-valued logic value: 0, 1 or unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Tri {
    /// Logic 0.
    Zero,
    /// Logic 1.
    One,
    /// Unknown.
    #[default]
    X,
}

impl Tri {
    /// Converts a bool.
    pub fn from_bool(b: bool) -> Tri {
        if b {
            Tri::One
        } else {
            Tri::Zero
        }
    }

    /// The definite value, if any.
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Tri::Zero => Some(false),
            Tri::One => Some(true),
            Tri::X => None,
        }
    }

    fn not(self) -> Tri {
        match self {
            Tri::Zero => Tri::One,
            Tri::One => Tri::Zero,
            Tri::X => Tri::X,
        }
    }

    fn and(self, o: Tri) -> Tri {
        match (self, o) {
            (Tri::Zero, _) | (_, Tri::Zero) => Tri::Zero,
            (Tri::One, Tri::One) => Tri::One,
            _ => Tri::X,
        }
    }

    fn or(self, o: Tri) -> Tri {
        match (self, o) {
            (Tri::One, _) | (_, Tri::One) => Tri::One,
            (Tri::Zero, Tri::Zero) => Tri::Zero,
            _ => Tri::X,
        }
    }

    fn xor(self, o: Tri) -> Tri {
        match (self, o) {
            (Tri::X, _) | (_, Tri::X) => Tri::X,
            (a, b) => Tri::from_bool(a != b),
        }
    }
}

impl fmt::Display for Tri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Tri::Zero => "0",
            Tri::One => "1",
            Tri::X => "X",
        })
    }
}

/// Three-valued sequential simulator with X-initialized flip-flops.
///
/// Used for the paper's "Orig." experiments: fault-simulating the un-DFT'd
/// chip against random sequential vectors, where state starts unknown.
///
/// # Examples
///
/// ```
/// use socet_gate::{GateNetlistBuilder, SeqSim, Tri};
/// let mut b = GateNetlistBuilder::new("dff");
/// let d = b.input("d");
/// let q = b.dff(d);
/// b.output("q", q);
/// let nl = b.build()?;
/// let mut sim = SeqSim::new(&nl);
/// // Q is X before the first clock.
/// assert_eq!(sim.step(&[Tri::One], None), vec![Tri::X]);
/// // After clocking in a 1, Q is 1.
/// assert_eq!(sim.step(&[Tri::Zero], None), vec![Tri::One]);
/// # Ok::<(), socet_gate::GateError>(())
/// ```
#[derive(Debug)]
pub struct SeqSim<'a> {
    nl: &'a GateNetlist,
    state: Vec<Tri>,
}

impl<'a> SeqSim<'a> {
    /// Creates a simulator with all flip-flops at X.
    pub fn new(nl: &'a GateNetlist) -> Self {
        SeqSim {
            state: vec![Tri::X; nl.flip_flop_count()],
            nl,
        }
    }

    /// Creates a simulator with all flip-flops reset to 0 — the
    /// "after chip reset" premise of the sequential testability
    /// experiments.
    pub fn new_reset(nl: &'a GateNetlist) -> Self {
        SeqSim {
            state: vec![Tri::Zero; nl.flip_flop_count()],
            nl,
        }
    }

    /// Resets all flip-flops to X.
    pub fn reset(&mut self) {
        self.state.fill(Tri::X);
    }

    /// The current flip-flop state.
    pub fn state(&self) -> &[Tri] {
        &self.state
    }

    /// Applies one input vector, returns the primary outputs *before* the
    /// clock edge, then clocks the flip-flops. `fault` forces a signal to a
    /// stuck value throughout the cycle.
    ///
    /// # Panics
    ///
    /// Panics on input length mismatch.
    pub fn step(&mut self, inputs: &[Tri], fault: Option<(SignalId, bool)>) -> Vec<Tri> {
        assert_eq!(inputs.len(), self.nl.inputs().len(), "input length");
        let mut v = vec![Tri::X; self.nl.gates().len()];
        for ((_, s), val) in self.nl.inputs().iter().zip(inputs) {
            v[s.index()] = *val;
        }
        for (q, val) in self.nl.flip_flops().iter().zip(&self.state) {
            v[q.index()] = *val;
        }
        for (i, g) in self.nl.gates().iter().enumerate() {
            match g.kind {
                GateKind::Const0 => v[i] = Tri::Zero,
                GateKind::Const1 => v[i] = Tri::One,
                _ => {}
            }
        }
        if let Some((s, stuck)) = fault {
            let kind = self.nl.gate(s).kind;
            if matches!(
                kind,
                GateKind::Input | GateKind::Dff | GateKind::Const0 | GateKind::Const1
            ) {
                v[s.index()] = Tri::from_bool(stuck);
            }
        }
        for s in self.nl.topo_order() {
            let g = self.nl.gate(*s);
            let ops = g.operands();
            let val = match g.kind {
                GateKind::Not => v[ops[0].index()].not(),
                GateKind::Buf => v[ops[0].index()],
                GateKind::And2 => v[ops[0].index()].and(v[ops[1].index()]),
                GateKind::Or2 => v[ops[0].index()].or(v[ops[1].index()]),
                GateKind::Nand2 => v[ops[0].index()].and(v[ops[1].index()]).not(),
                GateKind::Nor2 => v[ops[0].index()].or(v[ops[1].index()]).not(),
                GateKind::Xor2 => v[ops[0].index()].xor(v[ops[1].index()]),
                GateKind::Xnor2 => v[ops[0].index()].xor(v[ops[1].index()]).not(),
                GateKind::Mux2 => match v[ops[0].index()] {
                    Tri::Zero => v[ops[1].index()],
                    Tri::One => v[ops[2].index()],
                    Tri::X => {
                        let a = v[ops[1].index()];
                        let b = v[ops[2].index()];
                        if a == b {
                            a
                        } else {
                            Tri::X
                        }
                    }
                },
                _ => unreachable!("topo order holds only combinational gates"),
            };
            v[s.index()] = val;
            if let Some((fs, stuck)) = fault {
                if fs == *s {
                    v[s.index()] = Tri::from_bool(stuck);
                }
            }
        }
        let outs = self
            .nl
            .outputs()
            .iter()
            .map(|(_, s)| v[s.index()])
            .collect();
        for (i, q) in self.nl.flip_flops().iter().enumerate() {
            self.state[i] = v[self.nl.gate(*q).operands()[0].index()];
        }
        outs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::GateNetlistBuilder;

    fn full_adder() -> GateNetlist {
        let mut b = GateNetlistBuilder::new("fa");
        let a = b.input("a");
        let c = b.input("b");
        let cin = b.input("cin");
        let x = b.gate2(GateKind::Xor2, a, c);
        let sum = b.gate2(GateKind::Xor2, x, cin);
        let g1 = b.gate2(GateKind::And2, a, c);
        let g2 = b.gate2(GateKind::And2, x, cin);
        let cout = b.gate2(GateKind::Or2, g1, g2);
        b.output("sum", sum);
        b.output("cout", cout);
        b.build().unwrap()
    }

    #[test]
    fn full_adder_truth_table() {
        let nl = full_adder();
        let sim = CombSim::new(&nl);
        for bits in 0..8u32 {
            let a = bits & 1 != 0;
            let b = bits & 2 != 0;
            let cin = bits & 4 != 0;
            let outs = sim.run(&[a, b, cin]);
            let total = a as u32 + b as u32 + cin as u32;
            assert_eq!(outs[0], total & 1 != 0, "sum for {bits:03b}");
            assert_eq!(outs[1], total >= 2, "cout for {bits:03b}");
        }
    }

    #[test]
    fn packed_sim_matches_comb_sim() {
        let nl = full_adder();
        let comb = CombSim::new(&nl);
        let packed = PackedSim::new(&nl);
        // Put all eight input combinations in one packed run.
        let mut pi = [0u64; 3];
        for pat in 0..8u64 {
            for (i, word) in pi.iter_mut().enumerate() {
                if pat >> i & 1 != 0 {
                    *word |= 1 << pat;
                }
            }
        }
        let values = packed.eval(&pi, &[], None);
        let outs = [packed.output(&values, 0), packed.output(&values, 1)];
        for pat in 0..8u64 {
            let scalar = comb.run(&[pat & 1 != 0, pat & 2 != 0, pat & 4 != 0]);
            assert_eq!(outs[0] >> pat & 1 != 0, scalar[0], "sum pattern {pat}");
            assert_eq!(outs[1] >> pat & 1 != 0, scalar[1], "cout pattern {pat}");
        }
    }

    #[test]
    fn packed_fault_injection_flips_output() {
        let nl = full_adder();
        let sim = PackedSim::new(&nl);
        // a=1, b=0, cin=0 -> sum=1. Stuck-at-0 on input a -> sum=0.
        let good = sim.eval(&[u64::MAX, 0, 0], &[], None);
        let a_sig = nl.inputs()[0].1;
        let bad = sim.eval(&[u64::MAX, 0, 0], &[], Some((a_sig, false)));
        assert_ne!(sim.output(&good, 0), sim.output(&bad, 0));
    }

    #[test]
    fn comb_run_with_state_propagates_dffs() {
        let mut b = GateNetlistBuilder::new("shift2");
        let d = b.input("d");
        let q0 = b.dff(d);
        let q1 = b.dff(q0);
        b.output("q", q1);
        let nl = b.build().unwrap();
        let sim = CombSim::new(&nl);
        let (outs, next) = sim.run_with_state(&[true], &[false, true]);
        assert_eq!(outs, vec![true]); // q1's current state
        assert_eq!(next, vec![true, false]); // d -> q0, q0 -> q1
    }

    #[test]
    fn tri_algebra() {
        assert_eq!(Tri::X.not(), Tri::X);
        assert_eq!(Tri::Zero.and(Tri::X), Tri::Zero);
        assert_eq!(Tri::One.or(Tri::X), Tri::One);
        assert_eq!(Tri::X.and(Tri::One), Tri::X);
        assert_eq!(Tri::One.xor(Tri::One), Tri::Zero);
        assert_eq!(Tri::One.xor(Tri::X), Tri::X);
        assert_eq!(Tri::from_bool(true).to_bool(), Some(true));
        assert_eq!(Tri::X.to_bool(), None);
        assert_eq!(Tri::X.to_string(), "X");
    }

    #[test]
    fn seq_sim_x_resolution_through_mux() {
        // mux(s=X, a, a) should still be a.
        let mut b = GateNetlistBuilder::new("m");
        let s = b.input("s");
        let a = b.input("a");
        let m = b.mux(s, a, a);
        b.output("m", m);
        let nl = b.build().unwrap();
        let mut sim = SeqSim::new(&nl);
        assert_eq!(sim.step(&[Tri::X, Tri::One], None), vec![Tri::One]);
    }

    #[test]
    fn packed_sim_fault_on_comb_gate_applies_at_definition() {
        // Fault downstream consumers see the forced value; upstream is
        // unaffected.
        let mut b = GateNetlistBuilder::new("n");
        let a = b.input("a");
        let x = b.gate1(GateKind::Not, a);
        let y = b.gate1(GateKind::Not, x);
        b.output("x", x);
        b.output("y", y);
        let nl = b.build().unwrap();
        let sim = PackedSim::new(&nl);
        let vals = sim.eval(&[0], &[], Some((x, false)));
        assert_eq!(vals[x.index()], 0, "fault site forced low");
        assert_eq!(vals[y.index()], u64::MAX, "consumer sees the fault");
    }

    #[test]
    fn comb_sim_constants() {
        let mut b = GateNetlistBuilder::new("n");
        let one = b.const1();
        let zero = b.const0();
        let x = b.gate2(GateKind::And2, one, zero);
        let y = b.gate2(GateKind::Or2, one, zero);
        b.output("x", x);
        b.output("y", y);
        let nl = b.build().unwrap();
        let sim = CombSim::new(&nl);
        assert_eq!(sim.run(&[]), vec![false, true]);
    }

    #[test]
    fn seq_sim_reset_state_constructor() {
        let mut b = GateNetlistBuilder::new("n");
        let d = b.input("d");
        let q = b.dff(d);
        b.output("q", q);
        let nl = b.build().unwrap();
        let mut sim = SeqSim::new_reset(&nl);
        // From reset, Q is a definite 0 on the first observation.
        assert_eq!(sim.step(&[Tri::One], None), vec![Tri::Zero]);
        assert_eq!(sim.step(&[Tri::Zero], None), vec![Tri::One]);
    }

    #[test]
    fn seq_sim_fault_on_dff() {
        let mut b = GateNetlistBuilder::new("dff");
        let d = b.input("d");
        let q = b.dff(d);
        b.output("q", q);
        let nl = b.build().unwrap();
        let mut sim = SeqSim::new(&nl);
        sim.step(&[Tri::One], None);
        // Stuck-at-0 on Q masks the captured 1.
        let outs = sim.step(&[Tri::Zero], Some((q, false)));
        assert_eq!(outs, vec![Tri::Zero]);
        // Without the fault the 1 is visible.
        sim.reset();
        sim.step(&[Tri::One], None);
        assert_eq!(sim.step(&[Tri::Zero], None), vec![Tri::One]);
    }
}
