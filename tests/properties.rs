//! Property-based tests over randomly generated RTL cores and SOCs: the
//! invariants every stage of the pipeline must hold regardless of input
//! shape.

use proptest::prelude::*;
use socet::atpg::{
    fault_list, generate_tests, Fault, FaultSim, Podem, PodemOutcome, SeqFaultSim, TpgConfig,
};
use socet::cells::{CellLibrary, DftCosts};
use socet::core::{plan_inputs, schedule};
use socet::gate::{
    elaborate, CombSim, Force, GateKind, GateNetlist, GateNetlistBuilder, PackedSim, SignalId, Tri,
    P3,
};
use socet::hscan::insert_hscan;
use socet::rtl::{Core, CoreBuilder, Direction, RegisterId, RtlNode, SocBuilder};
use socet::transparency::synthesize_versions;
use std::collections::HashSet;
use std::sync::Arc;

/// A random core: `n` registers of width `w`, wired into a random DAG-ish
/// topology with an input and an output, plus optional extra mux edges.
fn random_core(n_regs: usize, width: u16, extra_edges: &[(usize, usize)]) -> Core {
    let mut b = CoreBuilder::new("rand");
    let i = b.port("i", Direction::In, width).expect("fresh");
    let o = b.port("o", Direction::Out, width).expect("fresh");
    let regs: Vec<RegisterId> = (0..n_regs)
        .map(|k| b.register(&format!("r{k}"), width).expect("fresh"))
        .collect();
    b.connect_mux(RtlNode::Port(i), RtlNode::Reg(regs[0]), 0)
        .expect("consistent");
    for w2 in regs.windows(2) {
        b.connect_mux(RtlNode::Reg(w2[0]), RtlNode::Reg(w2[1]), 0)
            .expect("consistent");
    }
    b.connect_reg_to_port(regs[n_regs - 1], o)
        .expect("consistent");
    let mut used_legs: Vec<u8> = vec![1; n_regs];
    for &(from, to) in extra_edges {
        let (from, to) = (from % n_regs, to % n_regs);
        if from == to {
            continue;
        }
        let leg = used_legs[to];
        if leg == u8::MAX {
            continue;
        }
        used_legs[to] += 1;
        b.connect_mux(RtlNode::Reg(regs[from]), RtlNode::Reg(regs[to]), leg)
            .expect("consistent");
    }
    b.build().expect("randomly generated core is consistent")
}

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn bit(&mut self) -> bool {
        self.next() & 1 != 0
    }

    fn tri(&mut self) -> Tri {
        [Tri::Zero, Tri::One, Tri::X][(self.next() % 3) as usize]
    }
}

/// A random gate netlist over every gate kind: inputs, constants and
/// flip-flops (some fed back from later logic), then combinational gates
/// reading earlier signals, a few of them outputs. At least `min_gates`
/// combinational gates and `min_ffs` flip-flops.
fn random_netlist(seed: u64, min_gates: u64, min_ffs: u64) -> GateNetlist {
    const KINDS: [GateKind; 9] = [
        GateKind::Not,
        GateKind::Buf,
        GateKind::And2,
        GateKind::Or2,
        GateKind::Nand2,
        GateKind::Nor2,
        GateKind::Xor2,
        GateKind::Xnor2,
        GateKind::Mux2,
    ];
    let mut rng = XorShift(seed | 1);
    let mut b = GateNetlistBuilder::new("random");
    let mut sigs: Vec<SignalId> = (0..1 + rng.next() % 5)
        .map(|i| b.input(&format!("i{i}")))
        .collect();
    sigs.push(b.const0());
    sigs.push(b.const1());
    let ffs: Vec<SignalId> = (0..min_ffs + rng.next() % 4)
        .map(|_| b.dff_deferred())
        .collect();
    sigs.extend(&ffs);
    for _ in 0..min_gates + rng.next() % 40 {
        let mut pick = || sigs[(rng.next() % sigs.len() as u64) as usize];
        let (x, y, z) = (pick(), pick(), pick());
        let kind = KINDS[(rng.next() % KINDS.len() as u64) as usize];
        sigs.push(match kind.arity() {
            1 => b.gate1(kind, x),
            2 => b.gate2(kind, x, y),
            _ => b.mux(x, y, z),
        });
    }
    for q in ffs {
        b.set_dff_input(q, sigs[(rng.next() % sigs.len() as u64) as usize]);
    }
    for k in 0..1 + rng.next() % 4 {
        b.output(
            &format!("o{k}"),
            sigs[(rng.next() % sigs.len() as u64) as usize],
        );
    }
    b.build().expect("acyclic by construction")
}

/// Scalar reference interpreter over 0/1/X: each signal evaluated on
/// demand from its gate's definition (no topological order), with `fault`
/// forcing its signal wherever it is read. A mux with an X select resolves
/// to the data value when both legs agree.
fn reference(
    nl: &GateNetlist,
    pi: &[Tri],
    ff: &[Tri],
    fault: Option<(SignalId, bool)>,
) -> Vec<Tri> {
    fn value(
        nl: &GateNetlist,
        s: SignalId,
        memo: &mut [Option<Tri>],
        fault: Option<(SignalId, bool)>,
    ) -> Tri {
        match (fault, memo[s.index()]) {
            (Some((f, stuck)), _) if f == s => return Tri::from_bool(stuck),
            (_, Some(v)) => return v,
            _ => {}
        }
        let gate = nl.gate(s);
        let x: Vec<Option<bool>> = gate
            .operands()
            .iter()
            .map(|o| value(nl, *o, memo, fault).to_bool())
            .collect();
        let not = |a: Option<bool>| a.map(|a| !a);
        let and = |a: Option<bool>, b: Option<bool>| match (a, b) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        };
        let or = |a, b| not(and(not(a), not(b)));
        let xor = |a: Option<bool>, b: Option<bool>| Some(a? != b?);
        let v = match gate.kind {
            GateKind::Const1 => Some(true),
            GateKind::Const0 => Some(false),
            GateKind::Input | GateKind::Dff => None,
            GateKind::Not => not(x[0]),
            GateKind::Buf => x[0],
            GateKind::And2 => and(x[0], x[1]),
            GateKind::Or2 => or(x[0], x[1]),
            GateKind::Nand2 => not(and(x[0], x[1])),
            GateKind::Nor2 => not(or(x[0], x[1])),
            GateKind::Xor2 => xor(x[0], x[1]),
            GateKind::Xnor2 => not(xor(x[0], x[1])),
            GateKind::Mux2 => match x[0] {
                Some(sel) => x[1 + usize::from(sel)],
                None => x[1].filter(|_| x[1] == x[2]),
            },
        };
        let v = v.map_or(Tri::X, Tri::from_bool);
        memo[s.index()] = Some(v);
        v
    }
    let mut memo = vec![None; nl.gates().len()];
    for ((_, s), &v) in nl.inputs().iter().zip(pi) {
        memo[s.index()] = Some(v);
    }
    for (q, &v) in nl.flip_flops().iter().zip(ff) {
        memo[q.index()] = Some(v);
    }
    (0..nl.gates().len())
        .map(|i| value(nl, SignalId::from_index(i), &mut memo, fault))
        .collect()
}

/// [`reference`] over definite inputs.
fn reference_bool(
    nl: &GateNetlist,
    pi: &[bool],
    ff: &[bool],
    fault: Option<(SignalId, bool)>,
) -> Vec<Tri> {
    let tri = |v: &[bool]| v.iter().map(|&b| Tri::from_bool(b)).collect::<Vec<_>>();
    reference(nl, &tri(pi), &tri(ff), fault)
}

/// Whether `fault` shows a definite, wrong value at one of `observe`.
fn effect_at(good: &[Tri], bad: &[Tri], observe: &[SignalId]) -> bool {
    observe.iter().any(|s| {
        let (g, b) = (good[s.index()], bad[s.index()]);
        g != Tri::X && b != Tri::X && g != b
    })
}

/// Fault-serial scalar combinational fault simulation over the full-scan
/// view: per pattern, the good machine and every still-undetected fault's
/// machine are evaluated through [`reference_bool`] over the whole
/// netlist and compared at every combinational output.
fn reference_comb_detect(nl: &GateNetlist, faults: &[Fault], patterns: &[Vec<bool>]) -> Vec<bool> {
    let observe = nl.comb_outputs();
    let mut det = vec![false; faults.len()];
    for pattern in patterns {
        let (pi, ff) = pattern.split_at(nl.inputs().len());
        let good = reference_bool(nl, pi, ff, None);
        for (d, f) in det.iter_mut().zip(faults).filter(|(d, _)| !**d) {
            let bad = reference_bool(nl, pi, ff, Some((f.signal, f.stuck_at_one)));
            *d = effect_at(&good, &bad, &observe);
        }
    }
    det
}

/// Fault-serial scalar sequential fault simulation: each fault's machine
/// and the good machine stepped cycle by cycle through [`reference`] from
/// every flip-flop at `init`.
fn reference_seq_detect(
    nl: &GateNetlist,
    faults: &[Fault],
    vectors: &[Vec<Tri>],
    init: Tri,
) -> Vec<bool> {
    let ffs = nl.flip_flops();
    let outputs: Vec<SignalId> = nl.outputs().iter().map(|(_, s)| *s).collect();
    let run = |fault: Option<(SignalId, bool)>| {
        let mut state = vec![init; ffs.len()];
        vectors
            .iter()
            .map(|v| {
                let values = reference(nl, v, &state, fault);
                state = ffs
                    .iter()
                    .map(|q| values[nl.gate(*q).operands()[0].index()])
                    .collect();
                values
            })
            .collect::<Vec<_>>()
    };
    let good = run(None);
    faults
        .iter()
        .map(|f| {
            let bad = run(Some((f.signal, f.stuck_at_one)));
            good.iter()
                .zip(&bad)
                .any(|(g, b)| effect_at(g, b, &outputs))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every register lands in exactly one HSCAN chain, so the core really
    /// is full-scan.
    #[test]
    fn hscan_chains_cover_all_registers(
        n in 2usize..10,
        width in 1u16..12,
        edges in prop::collection::vec((0usize..10, 0usize..10), 0..6),
    ) {
        let core = random_core(n, width, &edges);
        let h = insert_hscan(&core, &DftCosts::default());
        let mut seen = HashSet::new();
        for chain in h.chains() {
            for link in &chain.links {
                prop_assert!(seen.insert(link.reg), "{} chained twice", link.reg);
            }
        }
        prop_assert_eq!(seen.len(), core.registers().len());
        prop_assert!(h.sequential_depth() >= 1);
        prop_assert!(h.sequential_depth() <= n);
    }

    /// Every synthesized version is complete (all inputs propagate, all
    /// outputs justify), ladder latencies never increase, and overheads
    /// never decrease.
    #[test]
    fn version_ladder_is_monotone(
        n in 2usize..8,
        width in 1u16..10,
        edges in prop::collection::vec((0usize..8, 0usize..8), 0..6),
    ) {
        let core = random_core(n, width, &edges);
        let costs = DftCosts::default();
        let h = insert_hscan(&core, &costs);
        let versions = synthesize_versions(&core, &h, &costs);
        let lib = CellLibrary::generic_08um();
        prop_assert_eq!(versions.len(), 3);
        for v in &versions {
            prop_assert!(v.is_complete(&core), "{} incomplete", v.name());
        }
        let i = core.find_port("i").expect("port");
        let o = core.find_port("o").expect("port");
        let lat: Vec<Option<u32>> = versions.iter().map(|v| v.pair_latency(i, o)).collect();
        for w in lat.windows(2) {
            if let (Some(a), Some(b)) = (w[0], w[1]) {
                prop_assert!(b <= a, "latency rose along the ladder: {lat:?}");
            }
        }
        let ovh: Vec<u64> = versions.iter().map(|v| v.overhead_cells(&lib)).collect();
        for w in ovh.windows(2) {
            prop_assert!(w[1] >= w[0], "overhead fell along the ladder: {ovh:?}");
        }
        // The final version moves data in at most 2 cycles (one register
        // plus the output wire), since every slow data pair gets a mux.
        if let Some(l3) = lat[2] {
            prop_assert!(l3 <= 2, "version 3 latency {l3}");
        }
    }

    /// Transparency latency can never beat the shortest structural path:
    /// at least one register load separates an input from an output here.
    #[test]
    fn latency_at_least_one(
        n in 2usize..8,
        edges in prop::collection::vec((0usize..8, 0usize..8), 0..5),
    ) {
        let core = random_core(n, 4, &edges);
        let costs = DftCosts::default();
        let h = insert_hscan(&core, &costs);
        for v in synthesize_versions(&core, &h, &costs) {
            for p in v.paths() {
                prop_assert!(p.latency >= 1);
            }
        }
    }

    /// The compiled packed kernel agrees with the scalar reference
    /// interpreter on every elaborated random core and on random gate
    /// netlists: 64 distinct vectors in one pass equal 64 scalar runs
    /// (lane independence), with and without a stuck-at fault forced at
    /// its defining gate. `CombSim`, which runs lane 0 of the kernel,
    /// agrees on the first vector.
    #[test]
    fn packed_and_scalar_simulation_agree(
        n in 2usize..6,
        width in 1u16..8,
        edges in prop::collection::vec((0usize..6, 0usize..6), 0..4),
        pattern_seed in 0u64..u64::MAX,
        netlist_seed in 0u64..u64::MAX,
        fault_pick in 0usize..4096,
        stuck in any::<bool>(),
    ) {
        let core = random_core(n, width, &edges);
        let elab = elaborate(&core).expect("elaboration succeeds");
        for nl in [&elab.netlist, &random_netlist(netlist_seed, 5, 0)] {
            // Each vector is the primary inputs followed by the FF state.
            let n_pi = nl.inputs().len();
            let width = n_pi + nl.flip_flop_count();
            let mut rng = XorShift(pattern_seed | 1);
            let vectors: Vec<Vec<bool>> = (0..64)
                .map(|_| (0..width).map(|_| rng.bit()).collect())
                .collect();
            let words: Vec<u64> = (0..width)
                .map(|i| (0..64).fold(0, |w, k| w | u64::from(vectors[k][i]) << k))
                .collect();
            let (pi, ff) = words.split_at(n_pi);
            let site = SignalId::from_index(fault_pick % nl.gates().len());
            for fault in [None, Some((site, stuck))] {
                let packed = PackedSim::new(nl).eval(pi, ff, fault);
                for (k, v) in vectors.iter().enumerate() {
                    let (vpi, vff) = v.split_at(n_pi);
                    let want = reference_bool(nl, vpi, vff, fault);
                    for (s, &w) in want.iter().enumerate() {
                        prop_assert_eq!(Tri::from_bool(packed[s] >> k & 1 != 0), w, "lane {} signal {} fault {:?}", k, s, fault);
                    }
                }
            }
            let (vpi, vff) = vectors[0].split_at(n_pi);
            let comb: Vec<Tri> = CombSim::new(nl).eval_signals(vpi, vff).into_iter().map(Tri::from_bool).collect();
            prop_assert_eq!(comb, reference_bool(nl, vpi, vff, None));
        }
    }

    /// The three-valued kernel with per-lane forces agrees with the scalar
    /// 0/1/X reference: 64 random 0/1/X vectors in one `P3` pass, lane *k*
    /// carrying its own stuck-at force — on inputs, flip-flops, constants
    /// and combinational gates in turn, with lanes 0 and 1 forcing both
    /// polarities on one signal — equal 64 scalar runs.
    #[test]
    fn forced_three_valued_kernel_matches_scalar_reference(
        n in 2usize..6,
        width in 1u16..8,
        edges in prop::collection::vec((0usize..6, 0usize..6), 0..4),
        pattern_seed in 0u64..u64::MAX,
        netlist_seed in 0u64..u64::MAX,
    ) {
        let core = random_core(n, width, &edges);
        let elab = elaborate(&core).expect("elaboration succeeds");
        for nl in [&elab.netlist, &random_netlist(netlist_seed, 5, 1)] {
            let n_pi = nl.inputs().len();
            let width = n_pi + nl.flip_flop_count();
            let mut rng = XorShift(pattern_seed | 1);
            let vectors: Vec<Vec<Tri>> = (0..64)
                .map(|_| (0..width).map(|_| rng.tri()).collect())
                .collect();
            let words: Vec<P3> = (0..width)
                .map(|i| {
                    (0..64).fold(P3::X, |w, k| match vectors[k][i] {
                        Tri::One => P3 { d1: w.d1 | 1 << k, ..w },
                        Tri::Zero => P3 { d0: w.d0 | 1 << k, ..w },
                        Tri::X => w,
                    })
                })
                .collect();
            // Candidate sites by class: inputs, flip-flops, constants,
            // combinational gates.
            let mut classes: [Vec<SignalId>; 4] = Default::default();
            for (i, g) in nl.gates().iter().enumerate() {
                let class = match g.kind {
                    GateKind::Input => 0,
                    GateKind::Dff => 1,
                    GateKind::Const0 | GateKind::Const1 => 2,
                    _ => 3,
                };
                classes[class].push(SignalId::from_index(i));
            }
            let classes: Vec<&Vec<SignalId>> = classes.iter().filter(|c| !c.is_empty()).collect();
            let faults: Vec<(SignalId, bool)> = (0..64)
                .map(|k| {
                    let class = classes[k % classes.len()];
                    let site = class[(rng.next() % class.len() as u64) as usize];
                    (site, rng.bit())
                })
                .collect();
            let mut faults = faults;
            faults[1] = (faults[0].0, !faults[0].1);
            let mut forces: Vec<Force> = faults
                .iter()
                .enumerate()
                .map(|(k, &(s, stuck))| Force::stuck(s, stuck, 1 << k))
                .collect();
            let sim = PackedSim::new(nl);
            sim.sort_forces(&mut forces);
            let (pi, ff) = words.split_at(n_pi);
            let mut packed = Vec::new();
            sim.eval_forced(pi, ff, &forces, &mut packed);
            for (k, v) in vectors.iter().enumerate() {
                let (vpi, vff) = v.split_at(n_pi);
                let want = reference(nl, vpi, vff, Some(faults[k]));
                for (s, &w) in want.iter().enumerate() {
                    prop_assert_eq!(packed[s].lane(k), w, "lane {} signal {} force {:?}", k, s, faults[k]);
                }
            }
        }
    }

    /// The fault-parallel sequential fault simulator equals a fault-serial
    /// scalar reference stepped cycle by cycle, from X and from reset, for
    /// one worker and three, on random sequential netlists with more than
    /// one 64-fault block (constant faults included).
    #[test]
    fn seq_fault_sim_matches_fault_serial_reference(
        netlist_seed in 0u64..u64::MAX,
        vector_seed in 0u64..u64::MAX,
        cycles in 1usize..10,
    ) {
        let nl = random_netlist(netlist_seed, 48, 1);
        let mut faults = fault_list(&nl);
        for (i, g) in nl.gates().iter().enumerate() {
            let s = SignalId::from_index(i);
            match g.kind {
                GateKind::Const0 => faults.push(Fault::sa1(s)),
                GateKind::Const1 => faults.push(Fault::sa0(s)),
                _ => {}
            }
        }
        prop_assert!(faults.len() > 64, "only {} faults", faults.len());
        let mut rng = XorShift(vector_seed | 1);
        let vectors: Vec<Vec<Tri>> = (0..cycles)
            .map(|_| (0..nl.inputs().len()).map(|_| rng.tri()).collect())
            .collect();
        for init in [Tri::X, Tri::Zero] {
            let want = reference_seq_detect(&nl, &faults, &vectors, init);
            for workers in [1, 3] {
                let got = SeqFaultSim::new(&nl)
                    .with_workers(workers)
                    .run_from(&faults, &vectors, init);
                prop_assert_eq!(&got, &want, "init {} workers {}", init, workers);
            }
        }
    }

    /// Every PODEM test detects its fault under the scalar three-valued
    /// reference with the unassigned inputs left X: good and faulty values
    /// are definite and differ at some combinational output.
    #[test]
    fn podem_tests_detect_under_three_valued_reference(
        netlist_seed in 0u64..u64::MAX,
    ) {
        let nl = random_netlist(netlist_seed, 48, 1);
        let observe = nl.comb_outputs();
        let n_pi = nl.inputs().len();
        let mut podem = Podem::new(&nl, 64);
        for fault in fault_list(&nl) {
            if let PodemOutcome::Test(v) = podem.run(fault) {
                let (pi, ff) = v.split_at(n_pi);
                let good = reference(&nl, pi, ff, None);
                let bad = reference(&nl, pi, ff, Some((fault.signal, fault.stuck_at_one)));
                prop_assert!(effect_at(&good, &bad, &observe), "{} not detected by {:?}", fault, v);
            }
        }
    }

    /// The cone-pruned fault simulator — serial and fault-partitioned —
    /// produces bit-identical detection maps to the full-netlist scalar
    /// oracle on every elaborated random core.
    #[test]
    fn cone_fault_sim_matches_naive_oracle(
        n in 2usize..6,
        width in 1u16..8,
        edges in prop::collection::vec((0usize..6, 0usize..6), 0..4),
        pattern_seed in 0u64..u64::MAX,
        n_patterns in 1usize..90,
    ) {
        let core = random_core(n, width, &edges);
        let elab = elaborate(&core).expect("elaboration succeeds");
        let nl = &elab.netlist;
        let faults = fault_list(nl);
        let mut seed = pattern_seed | 1;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed & 1 != 0
        };
        let width = nl.inputs().len() + nl.flip_flop_count();
        let patterns: Vec<Vec<bool>> = (0..n_patterns)
            .map(|_| (0..width).map(|_| next()).collect())
            .collect();
        let naive = reference_comb_detect(nl, &faults, &patterns);
        let serial = FaultSim::new(nl).with_workers(1).detected(&faults, &patterns);
        let parallel = FaultSim::new(nl).with_workers(4).detected(&faults, &patterns);
        prop_assert_eq!(&naive, &serial, "serial cone engine diverged");
        prop_assert_eq!(&naive, &parallel, "parallel cone engine diverged");
    }

    /// The ATPG driver's reported coverage is honest: resimulating its
    /// patterns (cone engine and scalar oracle alike) re-detects exactly the
    /// faults it claimed.
    #[test]
    fn reported_coverage_survives_resimulation(
        n in 2usize..5,
        width in 1u16..6,
        edges in prop::collection::vec((0usize..5, 0usize..5), 0..4),
        seed in 0u64..u64::MAX,
    ) {
        let core = random_core(n, width, &edges);
        let elab = elaborate(&core).expect("elaboration succeeds");
        let nl = &elab.netlist;
        let cfg = TpgConfig { seed, max_backtracks: 64, ..TpgConfig::default() };
        let tests = generate_tests(nl, &cfg);
        let faults = fault_list(nl);
        let mut sim = FaultSim::new(nl);
        let det = sim.detected(&faults, &tests.patterns);
        let redetected = det.iter().filter(|&&d| d).count();
        prop_assert_eq!(redetected, tests.coverage.detected);
        prop_assert_eq!(tests.stats.fill_mask_events, 0);
        let naive = reference_comb_detect(nl, &faults, &tests.patterns);
        prop_assert_eq!(det, naive);
    }

    /// Scheduling a two-core SOC never double-books: the per-vector cycle
    /// count is at least the largest single transparency latency on any
    /// used route, and the plan is deterministic.
    #[test]
    fn schedule_respects_latencies(
        n in 2usize..6,
        edges in prop::collection::vec((0usize..6, 0usize..6), 0..4),
        vectors in 1usize..40,
    ) {
        let core = Arc::new(random_core(n, 4, &edges));
        let i = core.find_port("i").expect("port");
        let o = core.find_port("o").expect("port");
        let mut sb = SocBuilder::new("chip");
        let pi = sb.input_pin("pi", 4).expect("fresh");
        let po = sb.output_pin("po", 4).expect("fresh");
        let u0 = sb.instantiate("u0", core.clone()).expect("fresh");
        let u1 = sb.instantiate("u1", core.clone()).expect("fresh");
        sb.connect_pin_to_core(pi, u0, i).expect("consistent");
        sb.connect_cores(u0, o, u1, i).expect("consistent");
        sb.connect_core_to_pin(u1, o, po).expect("consistent");
        let soc = sb.build().expect("consistent");
        let costs = DftCosts::default();
        let data = plan_inputs(&soc, &costs, vectors).expect("both ports exist");
        let choice = vec![0, 0];
        let a = schedule(&soc, &data, &choice, &costs);
        let b = schedule(&soc, &data, &choice, &costs);
        prop_assert_eq!(a.test_application_time(), b.test_application_time());
        // u1's input goes through u0's transparency: its arrival is at
        // least u0's v1 latency for (i, o).
        let min_lat = data[0].as_ref().expect("data").versions[0]
            .pair_latency(i, o)
            .expect("pair exists");
        let ep1 = &a.episodes[1];
        let arrival = ep1.input_arrivals[0].1;
        prop_assert!(arrival >= min_lat, "arrival {arrival} < latency {min_lat}");
    }
}
