//! The four workloads. Each one drives the public API of the `socet`
//! facade; its set-up builds the inputs and the references its checks
//! compare against, and every iteration times its calls into the layers
//! (see [`Sample::time`]) and then checks every output.
//!
//! Why these four (the benchmark's README has the full table):
//!
//! * `prepare-paper` — ATPG dominates core preparation, and the on-disk
//!   store gives the flow layer a read path beside its write path;
//! * `explore-synth` — the chip-level engine alone (CCG, routing, route
//!   cache, assembly), the no-change control for gate/ATPG/replay work;
//! * `verify-paper` — gate-level replay simulation, bypassing ATPG;
//! * `testability-paper` — the sequential and packed fault simulators,
//!   which are ~1% of `prepare-paper` and would otherwise go unmeasured.

use std::fs;
use std::path::PathBuf;

use socet::atpg::{fault_list, generate_tests, Coverage, FaultSim, TestSet, TpgConfig};
use socet::baselines::{flatten_soc, hscan_only_coverage, orig_coverage};
use socet::cells::{CellLibrary, DftCosts};
use socet::core::{
    try_schedule, CoreTestData, DesignPoint, Explorer, Metrics, Objective, PrepareMetrics,
};
use socet::flow::{
    prepare_soc_uncached, prepare_soc_with, PrepareError, PrepareOptions, PreparedSoc,
};
use socet::gate::elaborate;
use socet::hscan::insert_hscan;
use socet::obs::SharedRecorder;
use socet::rtl::Soc;
use socet::socs::{barcode_system, generate_soc, system2, SyntheticConfig};
use socet::transparency::try_synthesize_versions;
use socet::verify::{run_synthetic_cases, verify_design_point, Shell, VerifyOptions};

use crate::checks::{same, Checks};
use crate::paper;
use crate::sample::{ratio, Sample, Stopwatch};

/// Workload names, each with the one-line reason it exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "prepare-paper",
        "ATPG-bound cold preparation of both paper chips plus a disk-warm pass of the artifact store; exercises flow, hscan, transparency, gate and atpg",
    ),
    (
        "explore-synth",
        "sweep and both objectives over 6561 synthetic design points; CCG, routing and route cache only, the no-change control for gate, ATPG and replay work",
    ),
    (
        "verify-paper",
        "gate-level replay of the paper design points (System 1 full, System 2 capped) plus synthetic oracle cases; replay simulation dominates, ATPG is bypassed",
    ),
    (
        "testability-paper",
        "Table 3 sequential and packed fault simulation on the flattened paper chips; measures the fault simulators that are about 1% of prepare-paper",
    ),
];

/// Worker threads the preparation pipeline may use. The paper chips'
/// preparation time is one core's PODEM run, so fan-out buys nothing and
/// a serial pipeline keeps the timing steady on a shared host.
pub const PREPARE_WORKERS: usize = 1;
/// Worker threads of the benchmark's own combinational fault simulation.
pub const FSIM_WORKERS: usize = 1;

/// Synthetic SOC size for `explore-synth`: 3^8 = 6561 design points.
const SYNTH_CORES: usize = 8;
/// Vector cap of the capped replays (as `soctool verify --cases`).
const CAPPED_VECTORS: u64 = 4;
/// Synthetic oracle cases per `verify-paper` iteration.
const SYNTH_CASES: u64 = 2;
/// The paper's fixed combinational vector count for replay preparation.
const PAPER_VECTORS: usize = 105;
/// Table 3's random sequential campaign length.
const RANDOM_CYCLES: usize = 96;
/// Random patterns of the combinational fault simulation per chip.
const FSIM_PATTERNS: usize = 256;

/// What a workload's traced run checks it stresses.
#[derive(Debug, Clone, Copy)]
pub enum Focus {
    /// The summed on-CPU time of these per-layer metrics as a share of
    /// the iteration's on-CPU time.
    Layers {
        parts: &'static [&'static str],
        target: f64,
    },
    /// The wall time of the program's own `part` spans inside the
    /// benchmark's `of` spans as a share of the wall time of `of`, both
    /// from the same traced iteration.
    Span {
        part: &'static str,
        of: &'static str,
        target: f64,
    },
}

/// The layer share workload `name` is meant to be dominated by.
pub fn focus(name: &str) -> Focus {
    match name {
        "prepare-paper" => Focus::Span {
            part: socet::obs::names::ATPG,
            of: "flow.prepare_cold_s",
            target: 0.8,
        },
        "explore-synth" => Focus::Layers {
            parts: &[
                "core.sweep_s",
                "core.optimize_tat_s",
                "core.optimize_area_s",
            ],
            target: 0.9,
        },
        "verify-paper" => Focus::Layers {
            parts: &[
                "verify.replay_full_s",
                "verify.replay_capped_s",
                "verify.harness_s",
            ],
            target: 0.9,
        },
        _ => Focus::Layers {
            parts: &[
                "baselines.flatten_s",
                "baselines.orig_coverage_s",
                "baselines.hscan_only_s",
                "atpg.fsim_s",
            ],
            target: 0.9,
        },
    }
}

/// Workloads that run on every CPU the process may use, so the time of
/// the `Explorer` sweep's worker threads and their merge is measured. The
/// others pin the process to one CPU, which makes the program's pools
/// serial.
pub const UNPINNED: &[&str] = &["explore-synth"];

/// One benchmark workload.
pub trait Workload {
    /// Runs one iteration: the timed calls first (their host time goes to
    /// `s.iter_s` through [`Sample::stop`]), then the checks. `traced` adds the layer probes the
    /// per-layer table needs, after the timed region.
    fn iterate(&mut self, traced: bool, s: &mut Sample, checks: &mut Checks);
}

/// Builds workload `name` for `seed`. Checks of the set-up's own outputs
/// (oracle runs, paper figures) are counted in `checks`.
pub fn setup(
    name: &str,
    seed: u64,
    work_dir: &std::path::Path,
    checks: &mut Checks,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "prepare-paper" => Box::new(PreparePaper::new(work_dir.join("store"), checks)?),
        "explore-synth" => Box::new(ExploreSynth::new(SYNTH_CORES, seed)?),
        "verify-paper" => Box::new(VerifyPaper::new(seed)),
        "testability-paper" => Box::new(TestabilityPaper::new(seed)?),
        _ => return Err(format!("unknown workload `{name}`")),
    })
}

/// splitmix64: derives independent streams from the benchmark seed.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Fault coverage with one decimal, the precision `EXPERIMENTS.md` uses.
fn fc1(c: &Coverage) -> String {
    format!("{:.1}", c.fault_coverage())
}

// ---------------------------------------------------------------------------
// prepare-paper

struct PrepChip {
    soc: Soc,
    /// Per-instance artifact bytes of the serial, uncached oracle flow.
    oracle: Vec<Option<Vec<u8>>>,
}

/// Cold (empty store) and disk-warm preparation of both paper chips.
pub struct PreparePaper {
    chips: Vec<PrepChip>,
    store: PathBuf,
    costs: DftCosts,
    tpg: TpgConfig,
}

impl PreparePaper {
    fn new(store: PathBuf, checks: &mut Checks) -> Result<Self, String> {
        let costs = DftCosts::default();
        let tpg = TpgConfig::default();
        let mut chips = Vec::new();
        for (ci, soc) in [barcode_system(), system2()].into_iter().enumerate() {
            let oracle = prepare_soc_uncached(&soc, &costs, &tpg).map_err(|e| e.to_string())?;
            checks.op(
                "oracle Table 3 scan coverage",
                same(
                    soc.name(),
                    fc1(&oracle.aggregate_coverage()).as_str(),
                    paper::TABLE3_SCAN_FC[ci],
                ),
            );
            if ci == 0 {
                checks.op(
                    "oracle paper figures",
                    paper::check_system1(&soc, &oracle.data),
                );
            }
            let oracle = (0..soc.cores().len())
                .map(|i| oracle.artifact_bytes(i))
                .collect();
            chips.push(PrepChip { soc, oracle });
        }
        Ok(PreparePaper {
            chips,
            store,
            costs,
            tpg,
        })
    }

    /// One pass through `prepare_soc_with`; in the traced run the
    /// pipeline's own recorder rides along and is adopted under the
    /// caller's open span.
    fn pass(&self, soc: &Soc, traced: bool) -> Result<(PreparedSoc, PrepareMetrics), PrepareError> {
        let opts = PrepareOptions::new()
            .workers(PREPARE_WORKERS)
            .cache_dir(&self.store);
        if !traced {
            return prepare_soc_with(soc, &self.costs, &self.tpg, &opts);
        }
        let rec = SharedRecorder::new();
        let out = prepare_soc_with(soc, &self.costs, &self.tpg, &opts.recorder(rec.clone()));
        socet::obs::adopt([rec.take()]);
        out
    }

    /// The per-core stage sequence `prepare_core` runs, one layer call at
    /// a time, for the traced run's per-layer times.
    fn probe(&self, s: &mut Sample, checks: &mut Checks) {
        for chip in &self.chips {
            let mut seen: Vec<&socet::rtl::Core> = Vec::new();
            for inst in chip.soc.cores().iter().filter(|i| !i.is_memory()) {
                let core = inst.core();
                if seen.iter().any(|c| std::ptr::eq(*c, core)) {
                    continue;
                }
                seen.push(core);
                let hscan = s.time("hscan.insert_s", || insert_hscan(core, &self.costs));
                let cells: usize = hscan.chains().iter().map(|c| c.depth()).sum();
                s.add("hscan.scan_cells", cells as f64);
                let versions = s.time("transparency.versions_s", || {
                    try_synthesize_versions(core, &hscan, &self.costs)
                });
                let elab = s.time("gate.elaborate_s", || elaborate(core));
                let outcome = match (versions, elab) {
                    (Ok(v), Ok(e)) => {
                        s.add("transparency.versions", v.len() as f64);
                        s.add("gate.gates", e.netlist.gates().len() as f64);
                        let t = s.time("atpg.generate_s", || generate_tests(&e.netlist, &self.tpg));
                        if t.vector_count() > 0 {
                            Ok(())
                        } else {
                            Err("no test vectors".into())
                        }
                    }
                    (Err(e), _) => Err(e.to_string()),
                    (_, Err(e)) => Err(e.to_string()),
                };
                checks.op(&format!("probe {}", inst.name()), outcome);
            }
        }
    }
}

impl Drop for PreparePaper {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.store);
    }
}

impl Workload for PreparePaper {
    fn iterate(&mut self, traced: bool, s: &mut Sample, checks: &mut Checks) {
        // Every iteration starts from an empty store: the cold pass
        // computes and writes, the warm pass reads back.
        let _ = fs::remove_dir_all(&self.store);
        let t0 = Stopwatch::start();
        let mut runs = Vec::with_capacity(self.chips.len());
        for chip in &self.chips {
            let cold = s.time("flow.prepare_cold_s", || self.pass(&chip.soc, traced));
            let warm = s.time("flow.prepare_warm_s", || self.pass(&chip.soc, traced));
            runs.push((cold, warm));
        }
        s.stop(t0);

        let mut cov = Coverage::default();
        let mut atpg = socet::atpg::AtpgMetrics::new();
        for (ci, (chip, (cold, warm))) in self.chips.iter().zip(runs).enumerate() {
            for (pass, run) in [("cold", cold), ("warm", warm)] {
                let outcome = run.map_err(|e| e.to_string()).and_then(|(p, m)| {
                    if pass == "cold" {
                        s.add("flow.disk_writes", m.disk_writes as f64);
                        s.add("flow.unique_cores", m.unique_cores as f64);
                        s.add("flow.memo_hits", m.memo_hits as f64);
                        let vectors = p.vectors().iter().sum::<u64>();
                        let chip_cov = p.aggregate_coverage();
                        s.add("atpg.vectors", vectors as f64);
                        cov = cov.merge(&chip_cov);
                        atpg.merge(&p.atpg_stats());
                        same(
                            "vectors, detected, faults",
                            [vectors, chip_cov.detected as u64, chip_cov.total as u64],
                            paper::PREPARE_OUTPUTS[ci],
                        )?;
                        if ci == 0 {
                            paper::check_system1(&chip.soc, &p.data)?;
                        }
                    } else {
                        s.add("flow.disk_hits", m.disk_hits as f64);
                        same("warm pass disk hits", m.disk_hits, m.unique_cores)?;
                    }
                    let bytes: Vec<_> = (0..chip.oracle.len())
                        .map(|i| p.artifact_bytes(i))
                        .collect();
                    if bytes == chip.oracle {
                        Ok(())
                    } else {
                        Err("artifact bytes differ from the uncached oracle".into())
                    }
                });
                checks.op(&format!("prepare {} {pass}", chip.soc.name()), outcome);
            }
        }
        s.set(
            "flow.warm_hit_ratio",
            ratio(s.get("flow.disk_hits"), s.get("flow.unique_cores")),
        );
        s.set("atpg.faults", cov.total as f64);
        s.set("atpg.coverage_pct", cov.fault_coverage());
        s.set(
            "atpg.cone_eval_ratio",
            ratio(
                atpg.cone_gate_evals as f64,
                atpg.full_gate_evals_equiv as f64,
            ),
        );
        s.set(
            "atpg.faults_dropped_random",
            atpg.faults_dropped_random as f64,
        );
        s.set(
            "atpg.faults_dropped_podem",
            atpg.faults_dropped_podem as f64,
        );
        if traced {
            self.probe(s, checks);
        }
    }
}

// ---------------------------------------------------------------------------
// explore-synth

/// A design point reduced to what the checks compare: choice, TAT, cells.
type PointKey = (Vec<usize>, u64, u64);

fn key(p: &DesignPoint, lib: &CellLibrary) -> PointKey {
    (
        p.choice.clone(),
        p.test_application_time(),
        p.overhead_cells(lib),
    )
}

/// Full sweep plus both §5.2 objectives on a synthetic SOC.
pub struct ExploreSynth {
    soc: Soc,
    data: Vec<Option<CoreTestData>>,
    costs: DftCosts,
    lib: CellLibrary,
    /// Objective (i) and (ii), their area and TAT budgets at the
    /// midpoints of the swept ranges.
    objectives: (Objective, Objective),
    ref_points: Vec<PointKey>,
    ref_objectives: (PointKey, PointKey),
    /// [`paper::EXPLORE_OUTPUTS`] when the SOC is the default one.
    pinned: Option<[u64; 5]>,
}

impl ExploreSynth {
    fn new(cores: usize, seed: u64) -> Result<Self, String> {
        let soc = generate_soc(&SyntheticConfig {
            cores,
            seed,
            ..SyntheticConfig::default()
        });
        let costs = DftCosts::default();
        let opts = PrepareOptions::new().workers(PREPARE_WORKERS);
        let (prepared, _) = prepare_soc_with(&soc, &costs, &TpgConfig::default(), &opts)
            .map_err(|e| e.to_string())?;
        let lib = CellLibrary::generic_08um();
        let ref_points: Vec<PointKey> = Explorer::new(&soc, &prepared.data, costs)
            .try_sweep()
            .map_err(|e| e.to_string())?
            .iter()
            .map(|p| key(p, &lib))
            .collect();
        let mid = |f: fn(&PointKey) -> u64| {
            let lo = ref_points.iter().map(f).min().unwrap_or(0);
            let hi = ref_points.iter().map(f).max().unwrap_or(0);
            lo + (hi - lo) / 2
        };
        let objectives = (
            Objective::MinTatUnderArea {
                max_overhead_cells: mid(|k| k.2),
            },
            Objective::MinAreaUnderTat {
                max_tat_cycles: mid(|k| k.1),
            },
        );
        let explorer = Explorer::new(&soc, &prepared.data, costs);
        let tat = explorer
            .try_optimize(objectives.0)
            .map_err(|e| e.to_string())?;
        let area = explorer
            .try_optimize(objectives.1)
            .map_err(|e| e.to_string())?;
        let ref_objectives = (key(&tat, &lib), key(&area, &lib));
        drop(explorer);
        let pinned =
            (seed == paper::TABLE3_SEED && cores == SYNTH_CORES).then_some(paper::EXPLORE_OUTPUTS);
        Ok(ExploreSynth {
            pinned,
            data: prepared.data,
            soc,
            costs,
            lib,
            objectives,
            ref_points,
            ref_objectives,
        })
    }
}

impl Workload for ExploreSynth {
    fn iterate(&mut self, _traced: bool, s: &mut Sample, checks: &mut Checks) {
        let (obj_tat, obj_area) = self.objectives;
        let t0 = Stopwatch::start();
        let explorer = Explorer::new(&self.soc, &self.data, self.costs);
        let mut m = Metrics::new();
        // The explorer records into its own recorder; hand each call's
        // events to the benchmark (adopted under the open layer span when
        // traced) and fold its counters.
        let mut hand_over = || {
            let rec = explorer.take_recorder();
            m.merge(&Metrics::from_recorder(&rec));
            socet::obs::adopt([rec]);
        };
        let sweep = s.time("core.sweep_s", || {
            let r = explorer.try_sweep();
            hand_over();
            r
        });
        let tat = s.time("core.optimize_tat_s", || {
            let r = explorer.try_optimize(obj_tat);
            hand_over();
            r
        });
        let area = s.time("core.optimize_area_s", || {
            let r = explorer.try_optimize(obj_area);
            hand_over();
            r
        });
        s.stop(t0);

        let lib = &self.lib;
        let points = sweep.as_ref().map_or(0, Vec::len);
        checks.op(
            "sweep",
            sweep.map_err(|e| e.to_string()).and_then(|pts| {
                let keys: Vec<PointKey> = pts.iter().map(|p| key(p, lib)).collect();
                if keys == self.ref_points {
                    Ok(())
                } else {
                    Err("swept point set differs from set-up's".into())
                }
            }),
        );
        let tat = tat.map(|p| key(&p, lib));
        let area = area.map(|p| key(&p, lib));
        if let (Some(want), Ok(t), Ok(a)) = (self.pinned, &tat, &area) {
            checks.op(
                "default-seed outputs",
                same(
                    "points, (i) TAT and cells, (ii) TAT and cells",
                    [points as u64, t.1, t.2, a.1, a.2],
                    want,
                ),
            );
        }
        if let Ok(k) = &tat {
            s.set("core.tat_cycles", k.1 as f64);
        }
        if let Ok(k) = &area {
            s.set("core.dft_area_cells", k.2 as f64);
        }
        checks.op(
            "objective (i)",
            tat.map_err(|e| e.to_string())
                .and_then(|k| same("point", k, self.ref_objectives.0.clone())),
        );
        checks.op(
            "objective (ii)",
            area.map_err(|e| e.to_string())
                .and_then(|k| same("point", k, self.ref_objectives.1.clone())),
        );

        s.set(
            "core.s_per_point",
            ratio(s.get("core.sweep_s"), points as f64),
        );
        s.set("core.evaluations", m.evaluations as f64);
        s.set("core.ccg_full_builds", m.ccg_full_builds as f64);
        s.set("core.ccg_patches", m.ccg_incremental_patches as f64);
        s.set("core.ccg_edges_rebuilt", m.ccg_edges_rebuilt as f64);
        s.set("core.route_attempts", m.route_attempts as f64);
        s.set(
            "core.route_cache_hit_ratio",
            // Every evaluation looks up one route per logic core.
            ratio(
                m.route_cache_hits as f64,
                (m.evaluations * self.soc.logic_cores().len() as u64) as f64,
            ),
        );
        s.set("core.dijkstra_relaxations", m.dijkstra_relaxations as f64);
        s.set("core.system_mux_fallbacks", m.system_mux_fallbacks as f64);
        s.set("core.build_s", m.build_time.as_secs_f64());
        s.set("core.route_s", m.route_time.as_secs_f64());
        s.set("core.assemble_s", m.assemble_time.as_secs_f64());
    }
}

// ---------------------------------------------------------------------------
// verify-paper

struct VerifyChip {
    soc: Soc,
    data: Vec<Option<CoreTestData>>,
    /// The design point replayed (all cores at version 0).
    choice: Vec<usize>,
    /// Vector cap of the replay (`None` = every vector).
    cap: Option<u64>,
}

/// Deterministic per-replay figures: checks, bits checked, bits
/// untracked, hold gaps.
type ReplayKey = [u64; 4];

/// Full and capped replays of paper design points, plus synthetic cases.
pub struct VerifyPaper {
    chips: Vec<VerifyChip>,
    costs: DftCosts,
    seed: u64,
    /// The first iteration's figures, which later ones must repeat.
    reference: Option<(Vec<ReplayKey>, String)>,
}

impl VerifyPaper {
    fn new(seed: u64) -> Self {
        let costs = DftCosts::default();
        // System 1's paper design point in full; System 2's capped, which
        // is the fixed per-design-point cost of a replay.
        let chips = [(barcode_system(), None), (system2(), Some(CAPPED_VECTORS))]
            .into_iter()
            .map(|(soc, cap)| {
                // The preparation `soctool verify` does: HSCAN + version
                // ladder per logic core, the paper's fixed vector count.
                let data: Vec<Option<CoreTestData>> = soc
                    .cores()
                    .iter()
                    .map(|inst| {
                        (!inst.is_memory()).then(|| {
                            let hscan = insert_hscan(inst.core(), &costs);
                            let versions = socet::transparency::synthesize_versions(
                                inst.core(),
                                &hscan,
                                &costs,
                            );
                            CoreTestData {
                                versions,
                                hscan,
                                scan_vectors: PAPER_VECTORS,
                            }
                        })
                    })
                    .collect();
                let choice = vec![0; soc.cores().len()];
                VerifyChip {
                    soc,
                    data,
                    choice,
                    cap,
                }
            })
            .collect();
        VerifyPaper {
            chips,
            costs,
            seed,
            reference: None,
        }
    }
}

impl Workload for VerifyPaper {
    fn iterate(&mut self, traced: bool, s: &mut Sample, checks: &mut Checks) {
        let t0 = Stopwatch::start();
        let mut runs = Vec::new();
        for chip in &self.chips {
            let plan = s.time("core.schedule_s", || {
                try_schedule(&chip.soc, &chip.data, &chip.choice, &self.costs)
            });
            let opts = VerifyOptions {
                seed: self.seed,
                max_vectors: chip.cap,
                ..VerifyOptions::default()
            };
            let metric = if chip.cap.is_none() {
                "verify.replay_full_s"
            } else {
                "verify.replay_capped_s"
            };
            let report = plan.as_ref().ok().map(|p| {
                s.time(metric, || {
                    verify_design_point(&chip.soc, &chip.data, p, &opts)
                })
            });
            runs.push((chip, plan, report));
        }
        let synth_opts = VerifyOptions {
            seed: self.seed,
            max_vectors: Some(CAPPED_VECTORS),
            ..VerifyOptions::default()
        };
        let synth = s.time("verify.harness_s", || {
            run_synthetic_cases(self.seed, SYNTH_CASES, &synth_opts)
        });
        s.stop(t0);

        let mut keys = Vec::new();
        let mut totals = [0u64; 4];
        let mut violations = 0u64;
        for (chip, plan, report) in &runs {
            let what = format!("replay {}", chip.soc.name());
            let outcome = match (plan, report) {
                (Err(e), _) => Err(format!("unschedulable: {e}")),
                (_, Some(Err(e))) => Err(e.to_string()),
                (Ok(_), Some(Ok(r))) => {
                    let checks_run = r.episodes.iter().map(|e| e.checks).sum::<u64>()
                        + r.parallel.as_ref().map_or(0, |p| p.checks);
                    let k = [
                        checks_run,
                        r.episodes.iter().map(|e| e.bits_checked).sum(),
                        r.episodes.iter().map(|e| e.bits_untracked).sum(),
                        r.episodes.iter().map(|e| e.hold_gaps).sum(),
                    ];
                    for (t, v) in totals.iter_mut().zip(k) {
                        *t += v;
                    }
                    violations += r.violations.len() as u64;
                    keys.push(k);
                    match r.violations.first() {
                        None if r.ok() => Ok(()),
                        Some(v) => Err(format!("[{}] {}", v.phase, v.detail)),
                        None => Err("verdict is not PASS".into()),
                    }
                }
                (Ok(_), None) => unreachable!("a schedulable point is always replayed"),
            };
            checks.op(&what, outcome);
        }
        let synth_text = synth.render();
        checks.op(
            "synthetic cases",
            if synth.ok() {
                Ok(())
            } else {
                Err(synth_text
                    .lines()
                    .find(|l| l.contains("FAIL"))
                    .unwrap_or("")
                    .to_owned())
            },
        );

        let [checks_run, bits, untracked, gaps] = totals;
        s.set("verify.checks", checks_run as f64);
        s.set("verify.bits_checked", bits as f64);
        s.set("verify.bits_untracked", untracked as f64);
        s.set("verify.hold_gaps", gaps as f64);
        s.set("verify.violations", violations as f64);
        s.set(
            "verify.bits_untracked_frac",
            ratio(untracked as f64, (bits + untracked) as f64),
        );
        let replay_s = s.get("verify.replay_full_s") + s.get("verify.replay_capped_s");
        s.set("verify.us_per_bit", ratio(replay_s * 1e6, bits as f64));

        if traced {
            for (chip, plan, _) in &runs {
                if let Ok(plan) = plan {
                    let shell = s.time("verify.shell_build_s", || {
                        Shell::build(&chip.soc, &chip.data, plan)
                    });
                    checks.op("shell build", shell.map(drop).map_err(|e| e.to_string()));
                }
            }
        }
        if self.seed == paper::TABLE3_SEED {
            checks.op(
                "default-seed replay figures",
                same("figures", keys.as_slice(), &paper::VERIFY_OUTPUTS[..]),
            );
        }
        let now = (keys, synth_text);
        match &self.reference {
            None => self.reference = Some(now),
            Some(r) => checks.op("replay figures repeat", same("figures", &now, r)),
        }
    }
}

// ---------------------------------------------------------------------------
// testability-paper

struct TestChip {
    soc: Soc,
    tests: Vec<Option<TestSet>>,
    patterns: Vec<Vec<bool>>,
}

/// Per-chip deterministic outputs: flat gates, Orig. detected, HSCAN-only
/// detected, combinational fault-sim detected, faults.
type TestKey = [usize; 5];

/// Table 3's simulations on both flattened paper chips.
pub struct TestabilityPaper {
    chips: Vec<TestChip>,
    seed: u64,
    reference: Option<Vec<TestKey>>,
}

impl TestabilityPaper {
    fn new(seed: u64) -> Result<Self, String> {
        let costs = DftCosts::default();
        let mut rng = mix(seed);
        let mut chips = Vec::new();
        for soc in [barcode_system(), system2()] {
            // ATPG for the HSCAN-only credit is set-up, not measured.
            let opts = PrepareOptions::new().workers(PREPARE_WORKERS);
            let (prepared, _) = prepare_soc_with(&soc, &costs, &TpgConfig::default(), &opts)
                .map_err(|e| e.to_string())?;
            let flat = flatten_soc(&soc).map_err(|e| e.to_string())?;
            let width = flat.inputs().len() + flat.flip_flop_count();
            let patterns = (0..FSIM_PATTERNS)
                .map(|_| {
                    (0..width)
                        .map(|_| {
                            rng = mix(rng);
                            rng & 1 == 1
                        })
                        .collect()
                })
                .collect();
            chips.push(TestChip {
                soc,
                tests: prepared.tests,
                patterns,
            });
        }
        Ok(TestabilityPaper {
            chips,
            seed,
            reference: None,
        })
    }
}

impl Workload for TestabilityPaper {
    fn iterate(&mut self, _traced: bool, s: &mut Sample, checks: &mut Checks) {
        let seed = self.seed;
        let t0 = Stopwatch::start();
        let mut runs = Vec::new();
        for chip in &self.chips {
            let run = s
                .time("baselines.flatten_s", || flatten_soc(&chip.soc))
                .map(|flat| {
                    let orig = s.time("baselines.orig_coverage_s", || {
                        orig_coverage(&flat, RANDOM_CYCLES, seed)
                    });
                    let hscan = s.time("baselines.hscan_only_s", || {
                        hscan_only_coverage(&chip.soc, &flat, &chip.tests, RANDOM_CYCLES, seed)
                    });
                    let (faults, detected) = s.time("atpg.fsim_s", || {
                        let faults = fault_list(&flat);
                        let det = FaultSim::new(&flat)
                            .with_workers(FSIM_WORKERS)
                            .detected(&faults, &chip.patterns);
                        (faults.len(), det.iter().filter(|&&d| d).count())
                    });
                    (flat.gates().len(), orig, hscan, faults, detected)
                });
            runs.push(run);
        }
        s.stop(t0);

        let mut keys = Vec::new();
        let (mut orig_all, mut hscan_all) = (Coverage::default(), Coverage::default());
        for (ci, (chip, run)) in self.chips.iter().zip(runs).enumerate() {
            let name = chip.soc.name();
            let Ok((gates, orig, hscan, faults, detected)) = run else {
                checks.op(&format!("flatten {name}"), Err("flatten failed".into()));
                continue;
            };
            orig_all = orig_all.merge(&orig);
            hscan_all = hscan_all.merge(&hscan);
            s.add("atpg.faults", faults as f64);
            let key = [gates, orig.detected, hscan.detected, detected, faults];
            keys.push(key);
            let table3 = if seed == paper::TABLE3_SEED {
                let want = paper::TABLE3_ORIG_FC[ci];
                same("Orig. FC", fc1(&orig).as_str(), want)
                    .and(same("HSCAN-only FC", fc1(&hscan).as_str(), want))
                    .and(same(
                        "gates, detected (Orig., HSCAN-only, fault sim), faults",
                        key,
                        paper::TESTABILITY_OUTPUTS[ci],
                    ))
            } else {
                Ok(())
            };
            checks.op(&format!("testability {name}"), table3);
        }
        match &self.reference {
            None => self.reference = Some(keys),
            Some(r) => checks.op("coverages repeat", same("coverages", &keys, r)),
        }
        s.set("baselines.orig_fc_pct", orig_all.fault_coverage());
        s.set("baselines.hscan_only_fc_pct", hscan_all.fault_coverage());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_output_is_counted_not_raised() {
        let mut w = ExploreSynth::new(3, 7).expect("small synthetic SOC sets up");
        let mut checks = Checks::default();
        let mut s = Sample::default();
        w.iterate(true, &mut s, &mut checks);
        assert_eq!((checks.attempted(), checks.failed()), (3, 0));
        // Corrupt the references the checks compare against: the next
        // iteration must count both mismatches and carry on.
        w.ref_points[0].1 += 1;
        w.ref_objectives.1 .2 += 1;
        w.iterate(false, &mut Sample::default(), &mut checks);
        assert_eq!((checks.attempted(), checks.failed()), (6, 2));
        assert!(checks.messages()[0].starts_with("sweep"));
        assert!(s.get("core.evaluations") >= 27.0, "3^3 points swept");
        assert!(s.iter_s > 0.0);
    }
}
