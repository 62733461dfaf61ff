//! The benchmark's metric catalogue: every name it can emit, with unit and
//! direction. `BENCHMARK.json` at the repository root repeats the
//! end-to-end and per-layer tables (adding the regression bounds); a unit
//! test keeps the two in step.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, work, area).
    Lower,
    /// Larger is better (coverage, hit ratios).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, matching `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every workload from the untraced run.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Lower),
    m("iter_s_max", "s", Lower),
    m("peak_rss_mib", "MiB", Lower),
];

/// Per-layer metrics, reported by every workload from the traced run; a
/// layer the workload does not call reads 0.
pub const PER_LAYER: &[Metric] = &[
    // flow (src/flow.rs): the content-addressed preparation pipeline.
    m("flow.prepare_cold_s", "s", Lower),
    m("flow.prepare_warm_s", "s", Lower),
    m("flow.warm_hit_ratio", "ratio", Higher),
    m("flow.disk_hits", "count", Higher),
    m("flow.disk_writes", "count", Lower),
    m("flow.memo_hits", "count", Higher),
    m("flow.unique_cores", "count", Lower),
    // hscan, transparency, gate: the per-core stages ahead of ATPG.
    m("hscan.insert_s", "s", Lower),
    m("hscan.scan_cells", "count", Lower),
    m("transparency.versions_s", "s", Lower),
    m("transparency.versions", "count", Higher),
    m("gate.elaborate_s", "s", Lower),
    m("gate.gates", "count", Lower),
    // atpg: test generation and fault simulation.
    m("atpg.generate_s", "s", Lower),
    m("atpg.podem_s", "s", Lower),
    m("atpg.random_s", "s", Lower),
    m("atpg.fsim_s", "s", Lower),
    m("atpg.vectors", "count", Lower),
    m("atpg.faults", "count", Lower),
    m("atpg.coverage_pct", "%", Higher),
    m("atpg.cone_eval_ratio", "ratio", Lower),
    m("atpg.faults_dropped_random", "count", Higher),
    m("atpg.faults_dropped_podem", "count", Lower),
    // core: CCG build/patch, routing, assembly, exploration.
    m("core.sweep_s", "s", Lower),
    m("core.optimize_tat_s", "s", Lower),
    m("core.optimize_area_s", "s", Lower),
    m("core.s_per_point", "s", Lower),
    m("core.schedule_s", "s", Lower),
    m("core.build_s", "s", Lower),
    m("core.route_s", "s", Lower),
    m("core.assemble_s", "s", Lower),
    m("core.evaluations", "count", Lower),
    m("core.ccg_full_builds", "count", Lower),
    m("core.ccg_patches", "count", Lower),
    m("core.ccg_edges_rebuilt", "count", Lower),
    m("core.route_attempts", "count", Lower),
    m("core.route_cache_hit_ratio", "ratio", Higher),
    m("core.dijkstra_relaxations", "count", Lower),
    m("core.system_mux_fallbacks", "count", Lower),
    m("core.tat_cycles", "cycles", Lower),
    m("core.dft_area_cells", "cells", Lower),
    // verify: the gate-level replay oracle.
    m("verify.replay_full_s", "s", Lower),
    m("verify.replay_capped_s", "s", Lower),
    m("verify.harness_s", "s", Lower),
    m("verify.shell_build_s", "s", Lower),
    m("verify.us_per_bit", "us/bit", Lower),
    m("verify.checks", "count", Higher),
    m("verify.bits_checked", "count", Higher),
    m("verify.bits_untracked", "count", Lower),
    m("verify.bits_untracked_frac", "ratio", Lower),
    m("verify.hold_gaps", "count", Lower),
    m("verify.violations", "count", Lower),
    // baselines: Table 3's flattening and coverage simulations.
    m("baselines.flatten_s", "s", Lower),
    m("baselines.orig_coverage_s", "s", Lower),
    m("baselines.hscan_only_s", "s", Lower),
    m("baselines.orig_fc_pct", "%", Higher),
    m("baselines.hscan_only_fc_pct", "%", Higher),
    // The traced run itself.
    m("trace.overhead_ratio", "ratio", Lower),
    m("trace.focus_share", "ratio", Higher),
];

/// Whether `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
/// starting with a letter or digit.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// The declared per-layer metric called `name`.
pub fn per_layer(name: &str) -> Option<&'static Metric> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    #[test]
    fn every_emitted_name_fits_the_grammar_once() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        for (i, name) in all.iter().enumerate() {
            assert!(valid_name(name), "{name}");
            assert!(!all[..i].contains(name), "{name} declared twice");
        }
        // `--workload all` prefixes each end-to-end metric with the workload.
        for (w, _) in crate::workloads::WORKLOADS {
            for m in END_TO_END {
                assert!(valid_name(&format!("{w}.{}", m.name)), "{w}.{}", m.name);
            }
        }
        assert!(!valid_name("_x") && !valid_name("a b") && !valid_name("a/b"));
        assert!(!valid_name(&"x".repeat(65)) && !valid_name(""));
    }

    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        let Some(Value::Array(workloads)) = doc.get("workloads") else {
            panic!("workloads missing");
        };
        let declared: Vec<(&str, &str)> = workloads
            .iter()
            .filter_map(|w| Some((w.get("name")?.as_str()?, w.get("why")?.as_str()?)))
            .collect();
        assert_eq!(declared, crate::workloads::WORKLOADS);
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Value::Array(rows)) = doc.get(key) else {
                panic!("{key} missing");
            };
            assert_eq!(rows.len(), table.len(), "{key} length");
            for (row, m) in rows.iter().zip(table) {
                assert_eq!(row.get("name").and_then(Value::as_str), Some(m.name));
                assert_eq!(row.get("unit").and_then(Value::as_str), Some(m.unit));
                assert_eq!(
                    row.get("better").and_then(Value::as_str),
                    Some(m.better.as_str()),
                    "{}",
                    m.name
                );
            }
        }
    }
}
