//! `flowbench` — the layered benchmark of the SOCET flow.
//!
//! ```text
//! flowbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//! flowbench compare PARENT CHANGE
//! ```
//!
//! A run sets its workload up several times (the median is `setup_s`),
//! then iterates it for `--seconds` with tracing off and reports the
//! end-to-end metrics. `--trace 1` instead alternates untraced and
//! traced iterations and reports the per-layer metrics, the
//! tracing overhead, and a JSON trace plus collapsed-stack profile under
//! `.flowbench/`. The last stdout line is the machine-readable result;
//! the line before it is the full run record (seed, machine, workers),
//! which compare mode reads from captured stdout.

mod checks;
mod compare;
mod host;
mod json;
mod metrics;
mod paper;
mod sample;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use socet::obs::Recorder;

use checks::Checks;
use json::quote;
use metrics::{Metric, END_TO_END, PER_LAYER};
use sample::{ratio, span_stats, total_under, Sample, SpanStat, Stopwatch};
use workloads::{Focus, Workload, WORKLOADS};

/// The default seed: Table 3's, so the testability workload reproduces
/// `EXPERIMENTS.md` exactly when no seed is given.
const DEFAULT_SEED: u64 = paper::TABLE3_SEED;
/// Set-ups per untraced run, spread over it; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Minimum untraced iterations: the tail percentile the run reports beside
/// the maximum needs ten samples beyond it.
const MIN_ITERS: usize = 11;
/// Minimum rounds (one untraced plus one traced iteration) of a traced
/// run.
const MIN_TRACE_ITERS: usize = 3;
/// Where traces, profiles and the artifact store go, relative to the
/// working directory.
const WORK_DIR: &str = ".flowbench";

/// Program spans the traced run reads under a benchmark-side layer span:
/// (per-layer metric, program span, enclosing benchmark span).
const PROGRAM_SPANS: &[(&str, &str, &str)] = &[
    ("atpg.podem_s", "atpg_podem", "atpg.generate_s"),
    ("atpg.random_s", "atpg_random", "atpg.generate_s"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    eprintln!(
        "usage: flowbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      flowbench compare PARENT CHANGE\n\
         workloads: {}",
        names.join(", ")
    );
    ExitCode::from(2)
}

fn parse_args(args: &[String]) -> Option<Args> {
    let mut a = Args {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: 28.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().ok()?,
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)?
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            _ => return None,
        }
    }
    let known = a.workload == "all" || WORKLOADS.iter().any(|w| w.0 == a.workload);
    known.then_some(a)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return run_compare(&args[1..]);
    }
    let Some(a) = parse_args(&args) else {
        return usage();
    };
    let result = if a.workload == "all" {
        run_all(&a)
    } else {
        run_workload(&a)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("flowbench: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// One workload

/// Everything one run measured.
struct Run {
    setup_s: Vec<f64>,
    untraced: Vec<Sample>,
    traced: Vec<Sample>,
    /// Per span name, summed over the traced iterations.
    spans: BTreeMap<&'static str, SpanStat>,
    /// The last traced iteration's recorder, exported as the trace.
    last_trace: Option<Recorder>,
    focus: Focus,
    checks: Checks,
}

/// Sets the workload up once: inputs, references, and a warm-up iteration
/// whose outputs are checked like any other. Its on-CPU time is one
/// `setup_s` sample.
fn set_up(a: &Args, work_dir: &Path, run: &mut Run) -> Result<Box<dyn Workload>, String> {
    let t = Stopwatch::start();
    let mut w = workloads::setup(&a.workload, a.seed, work_dir, &mut run.checks)?;
    w.iterate(false, &mut Sample::default(), &mut run.checks);
    run.setup_s.push(t.cpu_elapsed());
    Ok(w)
}

/// One iteration with a fresh recorder installed: benchmark-side layer
/// spans and the program's own spans land in it, under one root.
fn traced_iteration(w: &mut dyn Workload, run: &mut Run) -> Sample {
    let mut s = Sample::default();
    let mut rec = Recorder::new();
    let root = rec.begin("flowbench.iteration");
    {
        let _sink = rec.install();
        w.iterate(true, &mut s, &mut run.checks);
    }
    rec.end(root);
    for &(metric, span, under) in PROGRAM_SPANS {
        s.set(metric, total_under(&rec, span, under).as_secs_f64());
    }
    if let Focus::Span { part, of, .. } = run.focus {
        let of_s = total_under(&rec, of, "flowbench.iteration").as_secs_f64();
        s.set(
            "trace.focus_share",
            ratio(total_under(&rec, part, of).as_secs_f64(), of_s),
        );
    }
    for (name, st) in span_stats(&rec) {
        let e = run.spans.entry(name).or_default();
        e.total += st.total;
        e.self_time += st.self_time;
        e.count += st.count;
    }
    run.last_trace = Some(rec);
    s
}

/// Iterates the workload until `--seconds` have passed and enough rounds
/// ran. With `--trace 1`, each round is one untraced and one traced
/// iteration, so the tracing overhead compares samples taken side by side
/// in time. An untraced run sets the workload up again, replacing it, at
/// evenly spaced moments of the run, so its `setup_s` samples span the
/// run like its iterations do.
fn measure(a: &Args, work_dir: &Path) -> Result<Run, String> {
    let mut run = Run {
        setup_s: Vec::new(),
        untraced: Vec::new(),
        traced: Vec::new(),
        spans: BTreeMap::new(),
        last_trace: None,
        focus: workloads::focus(&a.workload),
        checks: Checks::default(),
    };
    let (setups, min) = if a.trace {
        (1, MIN_TRACE_ITERS)
    } else {
        (SETUP_REPS, MIN_ITERS)
    };
    let budget = a.seconds;
    let start = Instant::now();
    let mut w = set_up(a, work_dir, &mut run)?;
    while start.elapsed().as_secs_f64() < budget || run.untraced.len() < min {
        let due = budget * run.setup_s.len() as f64 / setups as f64;
        if run.setup_s.len() < setups && start.elapsed().as_secs_f64() >= due {
            drop(w);
            w = set_up(a, work_dir, &mut run)?;
        }
        let mut s = Sample::default();
        w.iterate(false, &mut s, &mut run.checks);
        run.untraced.push(s);
        if a.trace {
            let s = traced_iteration(w.as_mut(), &mut run);
            run.traced.push(s);
        }
    }
    Ok(run)
}

fn iter_times(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.iter_s).collect()
}

/// The focus share of one traced iteration: for [`Focus::Layers`], the
/// layers' on-CPU time over the iteration's; a [`Focus::Span`] share was
/// taken from the iteration's trace.
fn focus_share(f: &Focus, s: &Sample) -> f64 {
    match f {
        Focus::Layers { parts, .. } => ratio(parts.iter().map(|p| s.get(p)).sum(), s.iter_s),
        Focus::Span { .. } => s.get("trace.focus_share"),
    }
}

fn run_workload(a: &Args) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    host::check_cpu_clock()?;
    let pinned_cpu = if workloads::UNPINNED.contains(&a.workload.as_str()) {
        None
    } else {
        Some(host::pin_to_one_cpu()?)
    };
    let work_dir = PathBuf::from(WORK_DIR).join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    let run = measure(a, &work_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    let run = run?;

    let mut out = String::new();
    let mut metrics: Vec<(&Metric, f64)> = Vec::new();
    let untraced = iter_times(&run.untraced);
    let mut tail_note = String::new();
    if a.trace {
        let traced = iter_times(&run.traced);
        for m in PER_LAYER {
            let v = match m.name {
                "trace.overhead_ratio" => stats::median(&traced) / stats::median(&untraced),
                "trace.focus_share" => stats::median(
                    &run.traced
                        .iter()
                        .map(|s| focus_share(&run.focus, s))
                        .collect::<Vec<_>>(),
                ),
                name => stats::median(&run.traced.iter().map(|s| s.get(name)).collect::<Vec<_>>()),
            };
            metrics.push((m, v));
        }
    } else {
        let (p, tail) = stats::tail(&untraced, 10).ok_or("too few iterations for a tail")?;
        let _ = write!(
            tail_note,
            "the slowest of {} iterations; their p{p} (ten beyond it) is {tail} s and their median {} s",
            untraced.len(),
            stats::median(&untraced)
        );
        for m in END_TO_END {
            let v = match m.name {
                "setup_s" => stats::median(&run.setup_s),
                "iter_s_max" => untraced.iter().copied().fold(0.0, f64::max),
                "peak_rss_mib" => host::peak_rss_mib()?,
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            metrics.push((m, v));
        }
    }

    // Human-readable report.
    let _ = writeln!(
        out,
        "flowbench {} seed={} trace={} untraced iterations={} traced iterations={} setups={}",
        a.workload,
        a.seed,
        u8::from(a.trace),
        run.untraced.len(),
        run.traced.len(),
        run.setup_s.len()
    );
    if !tail_note.is_empty() {
        let _ = writeln!(out, "iter_s_max is {tail_note}");
    }
    for (m, v) in &metrics {
        if !a.trace || *v != 0.0 {
            let _ = writeln!(
                out,
                "  {:<30} {v:>16.6} {:<7} ({} is better)",
                m.name,
                m.unit,
                m.better.as_str()
            );
        }
    }
    if a.trace {
        write_span_table(&mut out, &run);
        let share = metrics
            .iter()
            .find(|(m, _)| m.name == "trace.focus_share")
            .map_or(0.0, |(_, v)| *v);
        let (what, target) = match run.focus {
            Focus::Layers { parts, target } => (
                format!("{} of the iteration (on-CPU)", parts.join(" + ")),
                target,
            ),
            Focus::Span { part, of, target } => {
                (format!("program span `{part}` of {of} (wall)"), target)
            }
        };
        let _ = writeln!(
            out,
            "focus: {what} = {:.1}% (target {:.0}%: {})",
            share * 100.0,
            target * 100.0,
            if share >= target { "met" } else { "NOT met" }
        );
        if let Some(rec) = &run.last_trace {
            let stem = PathBuf::from(WORK_DIR).join(format!("trace-{}-{}", a.workload, a.seed));
            let json = stem.with_extension("json");
            let folded = stem.with_extension("folded");
            std::fs::write(&json, rec.to_json())
                .and_then(|()| std::fs::write(&folded, rec.to_folded()))
                .map_err(|e| format!("writing the trace: {e}"))?;
            let _ = writeln!(
                out,
                "trace of the last traced iteration: {} and {}",
                json.display(),
                folded.display()
            );
        }
    }
    for m in run.checks.messages() {
        let _ = writeln!(out, "FAILED {m}");
    }
    let _ = writeln!(
        out,
        "ops: {} attempted, {} failed, ops_failed_frac {}",
        run.checks.attempted(),
        run.checks.failed(),
        run.checks.failed_frac()
    );

    let metrics_json = metrics_object(metrics.iter().map(|(m, v)| (m.name, *v, m.unit)));
    let correct = run.checks.failed() == 0;
    let record = format!(
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"seconds\":{},\"iterations\":{},\
         \"traced_iterations\":{},\"tail\":{},\"iter_s\":[{}],\"iter_wall_s\":[{}],\"setup_s\":[{}],\"env\":{},\
         \"correct\":{correct},\
         \"attempted\":{},\"failed\":{},\"ops_failed_frac\":{},\"metrics\":{metrics_json}}}",
        quote(&a.workload),
        a.seed,
        u8::from(a.trace),
        a.seconds,
        run.untraced.len(),
        run.traced.len(),
        quote(&tail_note),
        join_nums(&untraced),
        join_nums(&run.untraced.iter().map(|s| s.iter_wall_s).collect::<Vec<_>>()),
        join_nums(&run.setup_s),
        host::environment(nproc, pinned_cpu),
        run.checks.attempted(),
        run.checks.failed(),
        run.checks.failed_frac(),
    );
    let _ = writeln!(out, "{record}");
    let _ = writeln!(
        out,
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics_json}}}",
        run.checks.attempted(),
        run.checks.failed()
    );
    print!("{out}");
    Ok(())
}

/// A JSON metrics object: `{"name":{"value":v,"unit":u},...}`.
fn metrics_object<'a>(items: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let body: Vec<String> = items
        .map(|(n, v, u)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(n),
                num(v),
                quote(u)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn join_nums(values: &[f64]) -> String {
    values.iter().map(|v| num(*v)).collect::<Vec<_>>().join(",")
}

/// A finite JSON number with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Per span name: total and self time per traced iteration, and share of
/// the iteration.
fn write_span_table(out: &mut String, run: &Run) {
    let n = run.traced.len().max(1) as f64;
    let iter = run
        .spans
        .get("flowbench.iteration")
        .map_or(0.0, |s| s.total.as_secs_f64());
    let mut rows: Vec<(&&str, &SpanStat)> = run.spans.iter().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1.total));
    let _ = writeln!(
        out,
        "spans per traced iteration (benchmark layer calls are dotted; the rest are the program's own):"
    );
    let _ = writeln!(
        out,
        "  {:<30} {:>12} {:>12} {:>8} {:>9}",
        "span", "total ms", "self ms", "count", "of iter"
    );
    for (name, st) in rows {
        let _ = writeln!(
            out,
            "  {:<30} {:>12.3} {:>12.3} {:>8.1} {:>8.1}%",
            name,
            st.total.as_secs_f64() * 1e3 / n,
            st.self_time.as_secs_f64() * 1e3 / n,
            st.count as f64 / n,
            ratio(st.total.as_secs_f64(), iter) * 100.0
        );
    }
}

// ---------------------------------------------------------------------------
// All workloads, one process each

fn run_all(a: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut summary = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (name, why) in WORKLOADS {
        println!("== {name}: {why}");
        let out = Command::new(&exe)
            .args(["--workload", name, "--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("running {name}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        if !out.status.success() {
            return Err(format!("workload {name} exited with {}", out.status));
        }
        let last = text
            .lines()
            .last()
            .and_then(|l| json::parse(l).ok())
            .ok_or_else(|| format!("workload {name} printed no result"))?;
        attempted += last
            .get("attempted")
            .and_then(json::Value::as_f64)
            .unwrap_or(0.0) as u64;
        failed += last
            .get("failed")
            .and_then(json::Value::as_f64)
            .unwrap_or(0.0) as u64;
        if let Some(json::Value::Object(ms)) = last.get("metrics") {
            for (k, m) in ms {
                let v = m.get("value").and_then(json::Value::as_f64).unwrap_or(0.0);
                let unit = m.get("unit").and_then(json::Value::as_str).unwrap_or("");
                summary.push((format!("{name}.{k}"), v, unit.to_owned()));
            }
        }
    }
    println!("== summary");
    for (k, v, u) in &summary {
        if !a.trace || *v != 0.0 {
            println!("  {k:<48} {v:>16.6} {u}");
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        failed == 0,
        metrics_object(summary.iter().map(|(k, v, u)| (k.as_str(), *v, u.as_str())))
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Compare mode

fn run_compare(args: &[String]) -> ExitCode {
    let [parent, change] = args else {
        return usage();
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let result = (|| -> Result<bool, String> {
        let declared = compare::read_bounds(&read("BENCHMARK.json")?)?;
        let parent = compare::read_runs(&read(parent)?);
        let change = compare::read_runs(&read(change)?);
        if parent.is_empty() || change.is_empty() {
            return Err("a result set holds no untraced run records".into());
        }
        let (text, regressed) = compare::report(&parent, &change, &declared);
        print!("{text}");
        Ok(regressed)
    })();
    match result {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::from(3),
        Err(e) => {
            eprintln!("flowbench compare: {e}");
            ExitCode::FAILURE
        }
    }
}
