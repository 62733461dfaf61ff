//! Logic simulation: one compiled gate kernel ([`PackedSim`] over a lane
//! [`Word`]) and its two-valued, three-valued and sequential drivers.

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

/// A lane word: one signal's value in 64 independent simulation lanes.
///
/// `u64` carries 64 two-valued lanes; [`P3`] carries 64 lanes of 0/1/X.
/// [`eval`] over these operations is the only statement of gate semantics
/// in the workspace.
pub trait Word: Copy + fmt::Debug {
    /// Every lane 0.
    const ZERO: Self;
    /// Every lane 1.
    const ONE: Self;
    /// Lane-wise NOT.
    fn not(self) -> Self;
    /// Lane-wise AND.
    fn and(self, o: Self) -> Self;
    /// Lane-wise OR.
    fn or(self, o: Self) -> Self;
    /// Lane-wise XOR.
    fn xor(self, o: Self) -> Self;
    /// Lane-wise 2:1 mux: `a0` where `s` is 0, `a1` where it is 1.
    fn mux(s: Self, a0: Self, a1: Self) -> Self;
    /// Forces the lanes set in `one` to 1 and the lanes set in `zero` to 0.
    fn force(self, one: u64, zero: u64) -> Self;
}

impl Word for u64 {
    const ZERO: u64 = 0;
    const ONE: u64 = u64::MAX;

    fn not(self) -> u64 {
        !self
    }

    fn and(self, o: u64) -> u64 {
        self & o
    }

    fn or(self, o: u64) -> u64 {
        self | o
    }

    fn xor(self, o: u64) -> u64 {
        self ^ o
    }

    fn mux(s: u64, a0: u64, a1: u64) -> u64 {
        (!s & a0) | (s & a1)
    }

    fn force(self, one: u64, zero: u64) -> u64 {
        (self & !zero) | one
    }
}

/// 64 lanes of three-valued logic in dual-rail form: bit *k* of `d1`
/// (`d0`) is set when lane *k* is a definite 1 (0); neither set is X.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct P3 {
    /// Lanes that are a definite 1.
    pub d1: u64,
    /// Lanes that are a definite 0.
    pub d0: u64,
}

impl P3 {
    /// Every lane X.
    pub const X: P3 = P3 { d1: 0, d0: 0 };

    /// `t` in every lane.
    pub fn splat(t: Tri) -> P3 {
        match t {
            Tri::One => P3::ONE,
            Tri::Zero => P3::ZERO,
            Tri::X => P3::X,
        }
    }

    /// The value of lane `k`.
    pub fn lane(self, k: usize) -> Tri {
        match (self.d1 >> k & 1, self.d0 >> k & 1) {
            (1, _) => Tri::One,
            (_, 1) => Tri::Zero,
            _ => Tri::X,
        }
    }
}

impl Word for P3 {
    const ZERO: P3 = P3 {
        d1: 0,
        d0: u64::MAX,
    };
    const ONE: P3 = P3 {
        d1: u64::MAX,
        d0: 0,
    };

    fn not(self) -> P3 {
        P3 {
            d1: self.d0,
            d0: self.d1,
        }
    }

    fn and(self, o: P3) -> P3 {
        P3 {
            d1: self.d1 & o.d1,
            d0: self.d0 | o.d0,
        }
    }

    fn or(self, o: P3) -> P3 {
        P3 {
            d1: self.d1 | o.d1,
            d0: self.d0 & o.d0,
        }
    }

    fn xor(self, o: P3) -> P3 {
        P3 {
            d1: (self.d1 & o.d0) | (self.d0 & o.d1),
            d0: (self.d1 & o.d1) | (self.d0 & o.d0),
        }
    }

    /// An X select still resolves to the data value where both legs agree.
    fn mux(s: P3, a0: P3, a1: P3) -> P3 {
        let sx = !(s.d0 | s.d1);
        P3 {
            d1: (s.d0 & a0.d1) | (s.d1 & a1.d1) | (sx & a0.d1 & a1.d1),
            d0: (s.d0 & a0.d0) | (s.d1 & a1.d0) | (sx & a0.d0 & a1.d0),
        }
    }

    fn force(self, one: u64, zero: u64) -> P3 {
        P3 {
            d1: (self.d1 & !zero) | one,
            d0: (self.d0 & !one) | zero,
        }
    }
}

/// Evaluates one combinational gate over lane words.
///
/// # Panics
///
/// Panics on a source kind (input, flip-flop, constant), which has no
/// operands to evaluate.
#[inline]
pub fn eval<W: Word>(kind: GateKind, a: W, b: W, c: W) -> W {
    match kind {
        GateKind::Not => a.not(),
        GateKind::Buf => a,
        GateKind::And2 => a.and(b),
        GateKind::Or2 => a.or(b),
        GateKind::Nand2 => a.and(b).not(),
        GateKind::Nor2 => a.or(b).not(),
        GateKind::Xor2 => a.xor(b),
        GateKind::Xnor2 => a.xor(b).not(),
        GateKind::Mux2 => W::mux(a, b, c),
        _ => unreachable!("only combinational gates are evaluated"),
    }
}

/// A per-lane stuck-at force for [`PackedSim::eval_forced`]: the lanes set
/// in `one` see `signal` at 1, the lanes set in `zero` see it at 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Force {
    /// The forced signal.
    pub signal: SignalId,
    /// Lanes forced to 1.
    pub one: u64,
    /// Lanes forced to 0.
    pub zero: u64,
}

impl Force {
    /// `signal` stuck at `stuck` in the lanes set in `lanes`.
    pub fn stuck(signal: SignalId, stuck: bool, lanes: u64) -> Force {
        let (one, zero) = if stuck { (lanes, 0) } else { (0, lanes) };
        Force { signal, one, zero }
    }
}

/// 64-way lane-parallel simulator over the compiled gate kernel: each
/// signal carries a [`Word`] whose lane *k* is its value under pattern
/// (or machine) *k*.
///
/// [`PackedSim::new`] compiles the netlist once into a flat, levelized op
/// array (gate kind plus `u32` operand indices) and index lists for
/// inputs, flip-flops, outputs and constants, so an evaluation is one pass
/// over that array with no netlist scans. Every simulator in the workspace
/// is a driver over this pass: [`CombSim`] (lane 0 of `u64`), [`SeqSim`]
/// (lane 0 of [`P3`]), and in `socet-atpg` the fault simulators and PODEM.
///
/// Per-lane stuck-at forces ([`PackedSim::eval_forced`]) make it the
/// fault-injection engine too.
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
    /// Per signal: the number of ops up to and including the one defining
    /// it, 0 for sources — where a force on it takes effect.
    split: Vec<u32>,
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
        let mut split = vec![0; nl.gates().len()];
        for (k, s) in nl.topo_order().iter().enumerate() {
            split[s.index()] = k as u32 + 1;
        }
        let ffs = nl.flip_flops();
        PackedSim {
            nl,
            ops: nl.topo_order().iter().map(op).collect(),
            split,
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
        let force = fault.map(|(s, stuck)| Force::stuck(s, stuck, u64::MAX));
        self.eval_forced(pi, ff, force.as_slice(), v);
    }

    /// Sorts `forces` into the order [`PackedSim::eval_forced`] applies
    /// them: sources first, then combinational sites in topological order.
    pub fn sort_forces(&self, forces: &mut [Force]) {
        forces.sort_by_key(|f| self.split[f.signal.index()]);
    }

    /// Evaluates every signal in every lane of `W` with per-lane stuck-at
    /// `forces` applied: a force on a source (input, flip-flop,
    /// constant) before the pass, one on a combinational gate right after
    /// the gate is evaluated — either way before its fanout reads it.
    /// Writes into a caller-owned buffer, indexed by [`SignalId::index`].
    ///
    /// # Panics
    ///
    /// Panics on input or state length mismatch, or if `forces` is not in
    /// the order [`PackedSim::sort_forces`] produces.
    pub fn eval_forced<W: Word>(&self, pi: &[W], ff: &[W], forces: &[Force], v: &mut Vec<W>) {
        assert_eq!(pi.len(), self.inputs.len(), "input length");
        assert_eq!(ff.len(), self.ff_q.len(), "state length");
        v.clear();
        v.resize(self.nl.gates().len(), W::ZERO);
        for (&s, &x) in self.inputs.iter().zip(pi) {
            v[s as usize] = x;
        }
        for (&s, &x) in self.ff_q.iter().zip(ff) {
            v[s as usize] = x;
        }
        for &s in &self.ones {
            v[s as usize] = W::ONE;
        }
        let mut done = 0;
        for f in forces {
            let at = self.split[f.signal.index()] as usize;
            assert!(at >= done, "forces out of topological order");
            run_ops(&self.ops[done..at], v);
            done = at;
            let s = f.signal.index();
            v[s] = v[s].force(f.one, f.zero);
        }
        run_ops(&self.ops[done..], v);
    }

    /// Packed value of the `i`-th primary output in a signal vector
    /// produced by [`PackedSim::eval_forced`].
    pub fn output<W: Word>(&self, values: &[W], i: usize) -> W {
        values[self.outputs[i] as usize]
    }

    /// Writes the packed next-state (DFF D) values of a full signal vector
    /// into `next`, reusing its allocation.
    pub fn next_state_into<W: Word>(&self, values: &[W], next: &mut Vec<W>) {
        next.clear();
        next.extend(self.ff_d.iter().map(|d| values[*d as usize]));
    }
}

/// Evaluates `ops` in order over the signal vector `v`.
fn run_ops<W: Word>(ops: &[Op], v: &mut [W]) {
    for op in ops {
        let [a, b, c] = op.ops.map(|s| v[s as usize]);
        v[op.dst as usize] = eval(op.kind, a, b, c);
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

/// Three-valued sequential simulator with X-initialized flip-flops: lane 0
/// of [`PackedSim`]'s kernel over [`P3`] words.
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
    sim: PackedSim<'a>,
    state: Vec<P3>,
    inputs: Vec<P3>,
    values: Vec<P3>,
}

impl<'a> SeqSim<'a> {
    /// Creates a simulator with all flip-flops at X.
    pub fn new(nl: &'a GateNetlist) -> Self {
        Self::with_state(nl, Tri::X)
    }

    /// Creates a simulator with all flip-flops reset to 0 — the
    /// "after chip reset" premise of the sequential testability
    /// experiments.
    pub fn new_reset(nl: &'a GateNetlist) -> Self {
        Self::with_state(nl, Tri::Zero)
    }

    fn with_state(nl: &'a GateNetlist, init: Tri) -> Self {
        SeqSim {
            state: vec![P3::splat(init); nl.flip_flop_count()],
            sim: PackedSim::new(nl),
            inputs: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Resets all flip-flops to X.
    pub fn reset(&mut self) {
        self.state.fill(P3::X);
    }

    /// Applies one input vector, returns the primary outputs *before* the
    /// clock edge, then clocks the flip-flops. `fault` forces a signal to a
    /// stuck value throughout the cycle.
    ///
    /// # Panics
    ///
    /// Panics on input length mismatch.
    pub fn step(&mut self, inputs: &[Tri], fault: Option<(SignalId, bool)>) -> Vec<Tri> {
        self.inputs.clear();
        self.inputs.extend(inputs.iter().map(|&t| P3::splat(t)));
        let force = fault.map(|(s, stuck)| Force::stuck(s, stuck, u64::MAX));
        let sim = &self.sim;
        sim.eval_forced(
            &self.inputs,
            &self.state,
            force.as_slice(),
            &mut self.values,
        );
        sim.next_state_into(&self.values, &mut self.state);
        (0..sim.outputs.len())
            .map(|i| sim.output(&self.values, i).lane(0))
            .collect()
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
        let g = |kind, a: Tri, b: Tri| eval(kind, P3::splat(a), P3::splat(b), P3::X).lane(0);
        assert_eq!(g(GateKind::Not, Tri::X, Tri::X), Tri::X);
        assert_eq!(g(GateKind::And2, Tri::Zero, Tri::X), Tri::Zero);
        assert_eq!(g(GateKind::Or2, Tri::One, Tri::X), Tri::One);
        assert_eq!(g(GateKind::And2, Tri::X, Tri::One), Tri::X);
        assert_eq!(g(GateKind::Xor2, Tri::One, Tri::One), Tri::Zero);
        assert_eq!(g(GateKind::Xor2, Tri::One, Tri::X), Tri::X);
        assert_eq!(P3::ONE.force(0b10, 0b01).lane(0), Tri::Zero);
        assert_eq!(P3::X.force(0b10, 0b01).lane(1), Tri::One);
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
