//! Compare mode: parent vs change over two result sets, one verdict per
//! workload × end-to-end metric, by the rule of choosing-metrics §8.
//!
//! * **improved** — at least ten pairs, the change wins at least 9/10 of
//!   them (ties count for neither side), and the medians differ in the
//!   change's favour by more than the parent's own quartile spread;
//! * **regressed** — the change's median is worse than the parent's by
//!   more than the metric's bound from `BENCHMARK.json`;
//! * **unresolved** — the run-to-run spread (the wider of the two
//!   quartile spreads) exceeds the bound, so "unchanged" cannot be told
//!   apart from a regression — unless every change run reads better than
//!   every parent run;
//! * **unchanged** — otherwise.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{parse, Value};
use crate::metrics::Better;
use crate::stats::{median, quartiles};

/// Pairs needed before a gain can be claimed.
pub const MIN_PAIRS: usize = 10;

/// A verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// Median and quartiles of one side's runs.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            n: values.len(),
            median: median(values),
            q1,
            q3,
        }
    }
}

/// The comparison of one workload × metric.
#[derive(Debug, Clone, Copy)]
pub struct Judgement {
    pub verdict: Verdict,
    pub parent: Summary,
    pub change: Summary,
    /// Pairs run (runs matched by seed) and pairs the change won.
    pub pairs: usize,
    pub wins: usize,
    /// How much worse the change's median is, as a share of the parent's
    /// median (negative = better).
    pub worse_frac: f64,
    /// The wider quartile spread of the two sides, as a share of the
    /// parent's median.
    pub spread_frac: f64,
}

/// `x / base`, with 0/0 = 0 and x/0 = ±∞.
fn share(x: f64, base: f64) -> f64 {
    if base != 0.0 {
        x / base
    } else if x == 0.0 {
        0.0
    } else {
        f64::INFINITY.copysign(x)
    }
}

/// Judges `change` against `parent`; `pairs` holds (parent, change) values
/// of runs made with the same seed.
pub fn judge(
    parent: &[f64],
    change: &[f64],
    pairs: &[(f64, f64)],
    better: Better,
    bound: f64,
) -> Judgement {
    let p = Summary::of(parent);
    let c = Summary::of(change);
    // `worse(a, b)`: how much worse `a` reads than `b`, signed.
    let worse = |a: f64, b: f64| match better {
        Better::Lower => a - b,
        Better::Higher => b - a,
    };
    let wins = pairs
        .iter()
        .filter(|&&(pv, cv)| worse(cv, pv) < 0.0)
        .count();
    let worse_frac = share(worse(c.median, p.median), p.median);
    let spread_frac = share((p.q3 - p.q1).max(c.q3 - c.q1), p.median);
    let gain = pairs.len() >= MIN_PAIRS
        && wins * 10 >= pairs.len() * 9
        && worse(c.median, p.median) < 0.0
        && (c.median - p.median).abs() > p.q3 - p.q1;
    let dominates = change
        .iter()
        .all(|&cv| parent.iter().all(|&pv| worse(cv, pv) < 0.0));
    let verdict = if gain {
        Verdict::Improved
    } else if spread_frac > bound && !dominates {
        Verdict::Unresolved
    } else if worse_frac > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    };
    Judgement {
        verdict,
        parent: p,
        change: c,
        pairs: pairs.len(),
        wins,
        worse_frac,
        spread_frac,
    }
}

/// One end-to-end run read back from a result set.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub metrics: BTreeMap<String, f64>,
}

/// Reads every untraced run record from `text`: JSON lines carrying a
/// `workload` key (captured stdout of the benchmark, appended run after run).
pub fn read_runs(text: &str) -> Vec<Run> {
    text.lines()
        .filter(|l| l.trim_start().starts_with('{'))
        .filter_map(|l| parse(l.trim()).ok())
        .filter(|v| v.get("trace").and_then(Value::as_f64) == Some(0.0))
        .filter_map(|v| {
            let workload = v.get("workload")?.as_str()?.to_owned();
            let seed = v.get("seed")?.as_f64()? as u64;
            let Value::Object(ms) = v.get("metrics")? else {
                return None;
            };
            let metrics = ms
                .iter()
                .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                .collect();
            Some(Run {
                workload,
                seed,
                metrics,
            })
        })
        .collect()
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub better: Better,
    pub bound: f64,
}

/// The end-to-end metrics and bounds of a `BENCHMARK.json` text.
pub fn read_bounds(text: &str) -> Result<Vec<Declared>, String> {
    let doc = parse(text)?;
    let Some(Value::Array(rows)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    rows.iter()
        .map(|r| {
            let field = |k: &str| r.get(k).ok_or(format!("end_to_end entry without `{k}`"));
            let text = |k: &str| -> Result<String, String> {
                field(k)?
                    .as_str()
                    .map(str::to_owned)
                    .ok_or(format!("`{k}` is not a string"))
            };
            let better = match text("better")?.as_str() {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                b => return Err(format!("unknown direction `{b}`")),
            };
            Ok(Declared {
                name: text("name")?,
                unit: text("unit")?,
                better,
                bound: field("bound")?.as_f64().ok_or("`bound` is not a number")?,
            })
        })
        .collect()
}

/// Runs matched by seed, in order of appearance within each seed.
fn pair_by_seed(parent: &[&Run], change: &[&Run], metric: &str) -> Vec<(f64, f64)> {
    let mut pool: Vec<&Run> = change.to_vec();
    parent
        .iter()
        .filter_map(|p| {
            let i = pool.iter().position(|c| c.seed == p.seed)?;
            let c = pool.remove(i);
            Some((*p.metrics.get(metric)?, *c.metrics.get(metric)?))
        })
        .collect()
}

/// The compare report for two result sets, and whether any verdict is
/// "regressed".
pub fn report(parent: &[Run], change: &[Run], declared: &[Declared]) -> (String, bool) {
    let mut workloads: Vec<&str> = parent.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<18} {:<14} {:>34} {:>34} {:>24} {:>7} {:>20}  verdict",
        "workload",
        "metric",
        "parent median [q1, q3] (n)",
        "change median [q1, q3] (n)",
        "change vs parent median",
        "wins",
        "spread (bound)"
    );
    for w in workloads {
        let p_runs: Vec<&Run> = parent.iter().filter(|r| r.workload == w).collect();
        let c_runs: Vec<&Run> = change.iter().filter(|r| r.workload == w).collect();
        for d in declared {
            let values = |runs: &[&Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.metrics.get(&d.name).copied())
                    .collect()
            };
            let (pv, cv) = (values(&p_runs), values(&c_runs));
            if pv.is_empty() || cv.is_empty() {
                let _ = writeln!(out, "{w:<18} {:<14} missing on one side", d.name);
                continue;
            }
            let pairs = pair_by_seed(&p_runs, &c_runs, &d.name);
            let j = judge(&pv, &cv, &pairs, d.better, d.bound);
            regressed |= j.verdict == Verdict::Regressed;
            let side =
                |s: &Summary| format!("{:.6} [{:.6}, {:.6}] ({})", s.median, s.q1, s.q3, s.n);
            let _ = writeln!(
                out,
                "{w:<18} {:<14} {:>34} {:>34} {:>+14.2}% worse of {:<.4} {} {:>3}/{:<3} {:>7.2}% ({:>5.1}%)  {:?}",
                d.name,
                side(&j.parent),
                side(&j.change),
                j.worse_frac * 100.0,
                j.parent.median,
                d.unit,
                j.wins,
                j.pairs,
                j.spread_frac * 100.0,
                d.bound * 100.0,
                j.verdict
            );
        }
    }
    let _ = writeln!(
        out,
        "\"worse of X\" is the change of the median as a share of the parent median X; \
         spread is the wider quartile range as a share of the parent median; \
         wins are seed-matched pairs the change won (ties count for neither)."
    );
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(p: &[f64], c: &[f64]) -> Vec<(f64, f64)> {
        p.iter().copied().zip(c.iter().copied()).collect()
    }

    fn series(base: f64, step: f64, n: usize) -> Vec<f64> {
        (0..n).map(|i| base + step * i as f64).collect()
    }

    #[test]
    fn nine_of_ten_wins_with_a_clear_gap_is_improved() {
        let p = series(1.00, 0.001, 10);
        let mut c = series(0.90, 0.001, 10);
        c[3] = 1.02; // one lost pair: 9/10 still qualifies
        let j = judge(&p, &c, &pairs(&p, &c), Better::Lower, 0.1);
        assert_eq!((j.wins, j.pairs, j.verdict), (9, 10, Verdict::Improved));
        // Two lost pairs: 8/10 falls short; the medians stay within bound.
        c[4] = 1.02;
        let j = judge(&p, &c, &pairs(&p, &c), Better::Lower, 0.1);
        assert_eq!((j.wins, j.verdict), (8, Verdict::Unchanged));
    }

    #[test]
    fn fewer_than_ten_pairs_never_claim_a_gain() {
        let p = series(1.0, 0.001, 9);
        let c = series(0.5, 0.001, 9);
        let j = judge(&p, &c, &pairs(&p, &c), Better::Lower, 0.1);
        assert_eq!((j.wins, j.verdict), (9, Verdict::Unchanged));
    }

    #[test]
    fn a_median_worse_by_more_than_the_bound_regresses() {
        let p = series(1.00, 0.001, 10);
        let c = series(1.20, 0.001, 10);
        let j = judge(&p, &c, &pairs(&p, &c), Better::Lower, 0.1);
        assert_eq!(j.verdict, Verdict::Regressed);
        assert!((j.worse_frac - 0.2).abs() < 0.01);
        // Direction matters: for a higher-is-better metric this is a gain.
        let j = judge(&p, &c, &pairs(&p, &c), Better::Higher, 0.1);
        assert_eq!(j.verdict, Verdict::Improved);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let p = [1.0, 0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 1.0];
        let c = [1.05, 0.55, 1.55, 0.65, 1.45, 0.75, 1.35, 0.85, 1.25, 1.05];
        let j = judge(&p, &c, &pairs(&p, &c), Better::Lower, 0.1);
        assert!(j.spread_frac > 0.1);
        assert_eq!(j.verdict, Verdict::Unresolved);
        // ...unless every change run beats every parent run.
        let c: Vec<f64> = p.iter().map(|v| v - 1.2).collect();
        let j = judge(&p, &c[..5], &pairs(&p, &c[..5]), Better::Lower, 0.1);
        assert_eq!(j.verdict, Verdict::Unchanged);
    }

    #[test]
    fn runs_pair_by_seed_and_records_read_back() {
        let line = |w: &str, seed: u64, v: f64| {
            format!(
                "{{\"workload\":\"{w}\",\"seed\":{seed},\"trace\":0,\
                 \"metrics\":{{\"iter_s_max\":{{\"value\":{v},\"unit\":\"s\"}}}}}}"
            )
        };
        let parent = read_runs(&format!(
            "noise\n{}\n{}\n{{\"correct\":true}}\n",
            line("a", 1, 1.0),
            line("a", 2, 2.0)
        ));
        let change = read_runs(&format!("{}\n{}\n", line("a", 2, 1.5), line("a", 3, 9.0)));
        assert_eq!(parent.len(), 2);
        let p: Vec<&Run> = parent.iter().collect();
        let c: Vec<&Run> = change.iter().collect();
        assert_eq!(pair_by_seed(&p, &c, "iter_s_max"), vec![(2.0, 1.5)]);
        let bounds = read_bounds(
            r#"{"end_to_end":[{"name":"iter_s_max","unit":"s","better":"lower","bound":0.1}]}"#,
        )
        .expect("parses");
        let (text, regressed) = report(&parent, &change, &bounds);
        assert!(text.contains("iter_s_max") && !regressed);
    }
}
