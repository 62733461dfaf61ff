//! `soctool` — command-line front end for the SOCET flow.
//!
//! ```text
//! soctool systems                      list the built-in systems
//! soctool report <system> [choice]     full test-plan report (e.g. choice 0,1,2)
//! soctool sweep <system>               design-space table + Pareto front
//! soctool dot-rcg <system> <core>      Graphviz of a core's RCG
//! soctool dot-ccg <system> [choice]    Graphviz of the chip's CCG (Fig. 9)
//! soctool atpg <system>                per-core combinational ATPG run
//! soctool prepare <system>             content-addressed preparation pipeline
//! soctool bist <system>                memory BIST plans
//! soctool verify <system>              gate-level replay oracle (see below)
//! ```
//!
//! `report`, `sweep`, `atpg`, `prepare` and `verify` accept `--stats`: after
//! the command's output they print the run's recorder as one counter table
//! ([`Recorder::to_table`]) — every nonzero counter by its trace name, then
//! each span's count and total wall time. The evaluation engine counts CCG
//! builds, route-cache hits and Dijkstra relaxations; the fault simulator
//! cone pruning, fault dropping and parallel shards; the preparation
//! pipeline memo and disk-cache hits; the replay oracle cycles, checks and
//! bits. A counter's value is the one `--trace` writes. `prepare` also
//! accepts `--cache-dir PATH` (on-disk artifact store) and `--workers N`
//! (`0` = auto).
//!
//! `report`, `sweep`, `atpg`, `prepare` and `verify` accept `--trace PATH`
//! (machine-readable JSON trace of the run's spans and counters) and
//! `--profile PATH` (collapsed-stack profile for flamegraph tooling) —
//! both exporters of the unified observability layer ([`socet::obs`]).
//!
//! `verify` replays scheduled test programs on the gate-level
//! transparency shell and checks the three oracle invariants
//! ([`socet::verify`]): `soctool verify system1|system2 [--cases K]`
//! fully replays the paper design point (all-zeros choice) and then `K-1`
//! further lexicographic design points with the vector count capped;
//! `soctool verify synthetic [--seed N] [--cases K]` runs the randomized
//! harness over `K` seeded synthetic SOCs with greedy shrinking. The same
//! `--seed` produces byte-identical output.
//!
//! Systems: `system1` (the barcode SOC), `system2`, or `synthetic:<n>`
//! for an n-core generated SOC.
//!
//! Unknown flags, flags the command does not use, unparsable numeric
//! values (`--seed`, `--cases`, `--workers`) and surplus positional
//! arguments are rejected with exit code 2 and the usage text.

use socet::bist::plan_memory_bist;
use socet::cells::{CellLibrary, DftCosts};
use socet::core::{
    parallelize, pareto_front, plan_inputs, render_plan, Ccg, CoreTestData, Explorer,
};
use socet::hscan::insert_hscan;
use socet::obs::{Recorder, SharedRecorder};
use socet::rtl::Soc;
use socet::socs::{barcode_system, generate_soc, system2, SyntheticConfig};
use socet::transparency::Rcg;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: soctool <command> [args] [--stats]\n\
         commands:\n\
           systems\n\
           report  <system> [choice] [--stats] [--trace PATH] [--profile PATH]\n\
           sweep   <system> [--stats] [--trace PATH] [--profile PATH]\n\
           dot-rcg <system> <core-name>\n\
           dot-ccg <system> [choice]\n\
           atpg    <system> [--stats] [--trace PATH] [--profile PATH]\n\
           prepare <system> [--stats] [--cache-dir PATH] [--workers N]\n\
                   [--trace PATH] [--profile PATH]\n\
           bist    <system>\n\
           verify  <system> [--seed N] [--cases K] [--stats]\n\
                   [--trace PATH] [--profile PATH]\n\
         systems: system1 | system2 | synthetic:<cores>\n\
                  (verify also accepts `synthetic` = randomized harness)\n\
         --stats: print the run's counter and span table\n\
         --trace: write the run's JSON trace; --profile: collapsed stacks"
    );
    ExitCode::from(2)
}

/// Where a run's recorder goes: the `--stats` table on stdout and the
/// `--trace` / `--profile` files.
struct RunOutputs {
    stats: bool,
    trace: Option<PathBuf>,
    profile: Option<PathBuf>,
}

impl RunOutputs {
    /// Prints the recorder's counter table when `--stats` is set, then
    /// writes its exports. Returns `false` (and reports to stderr) if a
    /// write fails.
    fn emit(&self, rec: &Recorder) -> bool {
        if self.stats {
            print!("\n{}", rec.to_table());
        }
        let mut ok = true;
        if let Some(path) = &self.trace {
            if let Err(e) = std::fs::write(path, rec.to_json()) {
                eprintln!("cannot write trace {}: {e}", path.display());
                ok = false;
            }
        }
        if let Some(path) = &self.profile {
            if let Err(e) = std::fs::write(path, rec.to_folded()) {
                eprintln!("cannot write profile {}: {e}", path.display());
                ok = false;
            }
        }
        ok
    }
}

fn load_system(name: &str) -> Option<Soc> {
    match name {
        "system1" => Some(barcode_system()),
        "system2" => Some(system2()),
        other => {
            let n: usize = other.strip_prefix("synthetic:")?.parse().ok()?;
            Some(generate_soc(&SyntheticConfig {
                cores: n,
                ..SyntheticConfig::default()
            }))
        }
    }
}

/// Planning inputs at a fixed 105 combinational vectors per logic core;
/// a core the flow rejects is reported to stderr and yields `None`.
fn plan_data(soc: &Soc, costs: &DftCosts) -> Option<Vec<Option<CoreTestData>>> {
    plan_inputs(soc, costs, 105)
        .inspect_err(|e| eprintln!("cannot prepare {}: {e}", soc.name()))
        .ok()
}

fn parse_choice(soc: &Soc, arg: Option<&str>) -> Option<Vec<usize>> {
    match arg {
        None => Some(vec![0; soc.cores().len()]),
        Some(s) => {
            let parts: Result<Vec<usize>, _> = s.split(',').map(str::parse).collect();
            let mut v = parts.ok()?;
            v.resize(soc.cores().len(), 0);
            Some(v)
        }
    }
}

/// Removes `--flag VALUE` from `args`, returning the value if present.
fn take_flag_value(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let at = args.iter().position(|a| a == flag)?;
    if at + 1 >= args.len() {
        return None;
    }
    let value = args.remove(at + 1);
    args.remove(at);
    Some(value)
}

/// Removes `--flag VALUE` from `args` and parses the value; a value that
/// does not parse is reported to stderr and yields `Err`.
fn take_parsed<T: std::str::FromStr>(args: &mut Vec<String>, flag: &str) -> Result<Option<T>, ()> {
    let Some(value) = take_flag_value(args, flag) else {
        return Ok(None);
    };
    value.parse().map(Some).map_err(|_| {
        eprintln!("invalid value `{value}` for {flag}");
    })
}

/// Whether `cmd` uses the value flag `flag`.
fn takes_flag(cmd: &str, flag: &str) -> bool {
    match flag {
        "--trace" | "--profile" => {
            matches!(cmd, "report" | "sweep" | "atpg" | "prepare" | "verify")
        }
        "--cache-dir" | "--workers" => cmd == "prepare",
        _ => cmd == "verify", // --seed, --cases
    }
}

/// Maximum positional argument count (command included) per command; the
/// parser rejects anything beyond it so typos never silently no-op.
fn max_positionals(cmd: &str) -> Option<usize> {
    match cmd {
        "systems" => Some(1),
        "sweep" | "atpg" | "prepare" | "bist" | "verify" => Some(2),
        "report" | "dot-rcg" | "dot-ccg" => Some(3),
        _ => None,
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let stats = {
        let before = args.len();
        args.retain(|a| a != "--stats");
        args.len() != before
    };
    let cache_dir = take_flag_value(&mut args, "--cache-dir").map(PathBuf::from);
    let trace = take_flag_value(&mut args, "--trace").map(PathBuf::from);
    let profile = take_flag_value(&mut args, "--profile").map(PathBuf::from);
    let (workers, seed, cases) = match (
        take_parsed::<usize>(&mut args, "--workers"),
        take_parsed::<u64>(&mut args, "--seed"),
        take_parsed::<u64>(&mut args, "--cases"),
    ) {
        (Ok(workers), Ok(seed), Ok(cases)) => (workers, seed, cases),
        _ => return usage(),
    };
    // Everything left must be a positional argument: an unknown flag (or a
    // flag whose value was consumed as a positional) must not be silently
    // accepted.
    if let Some(bad) = args.iter().find(|a| a.starts_with('-')) {
        eprintln!("unknown flag `{bad}`");
        return usage();
    }
    let Some(cmd) = args.first().map(String::as_str) else {
        return usage();
    };
    match max_positionals(cmd) {
        None => {
            eprintln!("unknown command `{cmd}`");
            return usage();
        }
        Some(max) if args.len() > max => {
            eprintln!("unexpected argument `{}`", args[max]);
            return usage();
        }
        Some(_) => {}
    }
    let given = [
        ("--cache-dir", cache_dir.is_some()),
        ("--workers", workers.is_some()),
        ("--trace", trace.is_some()),
        ("--profile", profile.is_some()),
        ("--seed", seed.is_some()),
        ("--cases", cases.is_some()),
    ];
    if let Some((flag, _)) = given.iter().find(|(f, set)| *set && !takes_flag(cmd, f)) {
        eprintln!("`{cmd}` does not take {flag}");
        return usage();
    }
    let out = RunOutputs {
        stats,
        trace,
        profile,
    };
    if cmd == "systems" {
        println!("system1      the paper's barcode SOC (CPU, PREPROCESSOR, DISPLAY, RAM, ROM)");
        println!("system2      graphics -> GCD -> X.25 pipeline");
        println!("synthetic:N  generated N-core backbone-with-taps SOC");
        return ExitCode::SUCCESS;
    }
    let Some(system_name) = args.get(1) else {
        return usage();
    };
    if cmd == "verify" && system_name == "synthetic" {
        let opts = socet::verify::VerifyOptions {
            seed: seed.unwrap_or(0x50CE7),
            max_vectors: Some(4),
            ..Default::default()
        };
        let mut rec = Recorder::new();
        let report = {
            let _sink = rec.install();
            socet::verify::run_synthetic_cases(seed.unwrap_or(0x50CE7), cases.unwrap_or(10), &opts)
        };
        print!("{}", report.render());
        if !out.emit(&rec) {
            return ExitCode::FAILURE;
        }
        return if report.ok() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let Some(soc) = load_system(system_name) else {
        eprintln!("unknown system `{system_name}`");
        return usage();
    };
    let costs = DftCosts::default();
    let lib = CellLibrary::generic_08um();
    match cmd {
        "report" => {
            let Some(data) = plan_data(&soc, &costs) else {
                return ExitCode::FAILURE;
            };
            let Some(choice) = parse_choice(&soc, args.get(2).map(String::as_str)) else {
                return usage();
            };
            let explorer = Explorer::new(&soc, &data, costs);
            let plan = match explorer.try_evaluate(&choice) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("cannot evaluate choice {choice:?}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            print!("{}", render_plan(&soc, &data, &plan));
            let par = parallelize(&soc, &plan);
            println!("\nparallel extension: {par}");
            match socet::core::build_controller(&soc, &plan) {
                Ok(ctrl) => println!(
                    "test controller : {} cells ({}-bit counter, {} windows)",
                    ctrl.area_cells(&lib),
                    ctrl.counter_bits,
                    ctrl.windows.len()
                ),
                Err(e) => println!("test controller : synthesis failed ({e})"),
            }
            if !out.emit(&explorer.take_recorder()) {
                return ExitCode::FAILURE;
            }
        }
        "sweep" => {
            let Some(data) = plan_data(&soc, &costs) else {
                return ExitCode::FAILURE;
            };
            let explorer = Explorer::new(&soc, &data, costs);
            let points = explorer.sweep();
            println!("{:>10} {:>12}  choice", "ovhd", "TAT");
            let mut sorted: Vec<_> = points.iter().collect();
            sorted.sort_by_key(|p| (p.overhead_cells(&lib), p.test_application_time()));
            for p in &sorted {
                println!(
                    "{:>10} {:>12}  {:?}",
                    p.overhead_cells(&lib),
                    p.test_application_time(),
                    p.choice
                );
            }
            println!("\npareto front:");
            for p in pareto_front(&points) {
                println!(
                    "{:>10} {:>12}  {:?}",
                    p.overhead_cells(&lib),
                    p.test_application_time(),
                    p.choice
                );
            }
            if !out.emit(&explorer.take_recorder()) {
                return ExitCode::FAILURE;
            }
        }
        "dot-rcg" => {
            let Some(core_name) = args.get(2) else {
                return usage();
            };
            let Some(cid) = soc.find_core(core_name) else {
                eprintln!("unknown core `{core_name}`");
                return ExitCode::from(2);
            };
            let core = soc.core(cid).core();
            let hscan = insert_hscan(core, &costs);
            let rcg = Rcg::extract(core, &hscan);
            print!("{}", rcg.to_dot(core));
        }
        "dot-ccg" => {
            let Some(data) = plan_data(&soc, &costs) else {
                return ExitCode::FAILURE;
            };
            let Some(choice) = parse_choice(&soc, args.get(2).map(String::as_str)) else {
                return usage();
            };
            let ccg = Ccg::build(&soc, &data, &choice);
            print!("{}", ccg.to_dot(&soc));
        }
        "atpg" => {
            let shared = SharedRecorder::new();
            let opts = socet::flow::PrepareOptions::new().recorder(shared.clone());
            let tpg = socet::atpg::TpgConfig::default();
            let prepared = match socet::flow::prepare_soc_with(&soc, &costs, &tpg, &opts) {
                Ok((p, _)) => p,
                Err(e) => {
                    eprintln!("cannot prepare {}: {e}", soc.name());
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "{:<14} {:>7} {:>8} {:>8} {:>8}",
                "core", "faults", "FC%", "TEff%", "vectors"
            );
            for (inst, tests) in soc.cores().iter().zip(&prepared.tests) {
                match tests {
                    Some(t) => println!(
                        "{:<14} {:>7} {:>8.2} {:>8.2} {:>8}",
                        inst.name(),
                        t.coverage.total,
                        t.coverage.fault_coverage(),
                        t.coverage.test_efficiency(),
                        t.vector_count()
                    ),
                    None => println!("{:<14} {:>7}", inst.name(), "memory"),
                }
            }
            let agg = prepared.aggregate_coverage();
            println!("\naggregate: {agg}");
            if !out.emit(&shared.take()) {
                return ExitCode::FAILURE;
            }
        }
        "prepare" => {
            let shared = SharedRecorder::new();
            let mut opts = socet::flow::PrepareOptions::new()
                .workers(workers.unwrap_or(0))
                .recorder(shared.clone());
            if let Some(dir) = cache_dir {
                opts = opts.cache_dir(dir);
            }
            let tpg = socet::atpg::TpgConfig::default();
            let prepared = match socet::flow::prepare_soc_with(&soc, &costs, &tpg, &opts) {
                Ok((p, _)) => p,
                Err(e) => {
                    eprintln!("cannot prepare {}: {e}", soc.name());
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "{:<14} {:>8} {:>8} {:>8} {:>8}",
                "core", "gates", "FFs", "vectors", "FC%"
            );
            for (inst, i) in soc.cores().iter().zip(0..) {
                match (&prepared.netlists[i], &prepared.tests[i]) {
                    (Some(nl), Some(t)) => println!(
                        "{:<14} {:>8} {:>8} {:>8} {:>8.2}",
                        inst.name(),
                        nl.gates().len(),
                        nl.flip_flop_count(),
                        t.vector_count(),
                        t.coverage.fault_coverage()
                    ),
                    _ => println!("{:<14} {:>8}", inst.name(), "memory"),
                }
            }
            println!("\naggregate: {}", prepared.aggregate_coverage());
            if !out.emit(&shared.take()) {
                return ExitCode::FAILURE;
            }
        }
        "verify" => {
            let mut rec = Recorder::new();
            let sink = rec.install();
            let Some(data) = plan_data(&soc, &costs) else {
                return ExitCode::FAILURE;
            };
            let limits: Vec<usize> = data
                .iter()
                .map(|d| d.as_ref().map_or(1, |d| d.versions.len().max(1)))
                .collect();
            let base_seed = seed.unwrap_or(0x50CE7);
            let cases = cases.unwrap_or(1).max(1);
            let mut choice = vec![0usize; limits.len()];
            let mut all_ok = true;
            for case in 0..cases {
                // Case 0 is the paper design point, replayed in full; the
                // rest sample the design space with capped vector counts.
                let opts = socet::verify::VerifyOptions {
                    seed: base_seed,
                    max_vectors: if case == 0 { None } else { Some(4) },
                    ..Default::default()
                };
                match socet::core::try_schedule(&soc, &data, &choice, &costs) {
                    Ok(plan) => match socet::verify::verify_design_point(&soc, &data, &plan, &opts)
                    {
                        Ok(report) => {
                            print!("{}", report.render());
                            all_ok &= report.ok();
                        }
                        Err(e) => {
                            eprintln!("cannot replay choice {choice:?}: {e}");
                            all_ok = false;
                        }
                    },
                    Err(e) => println!("choice {choice:?}: unschedulable ({e})"),
                }
                let advanced = (0..choice.len()).rev().any(|i| {
                    if choice[i] + 1 < limits[i] {
                        choice[i] += 1;
                        choice[i + 1..].fill(0);
                        true
                    } else {
                        false
                    }
                });
                if !advanced && case + 1 < cases {
                    println!("design space exhausted after {} cases", case + 1);
                    break;
                }
            }
            drop(sink);
            if !out.emit(&rec) {
                return ExitCode::FAILURE;
            }
            if !all_ok {
                return ExitCode::FAILURE;
            }
        }
        "bist" => {
            let plans = plan_memory_bist(&soc);
            if plans.is_empty() {
                println!("no memory cores in {}", soc.name());
            }
            for p in &plans {
                println!(
                    "{:<8} {:>2}-bit LFSR + {:>2}-bit MISR, {:>6} cells, {:>8} cycles",
                    soc.core(p.core).name(),
                    p.addr_width,
                    p.data_width,
                    p.overhead_cells(&lib),
                    p.test_cycles()
                );
            }
        }
        _ => return usage(),
    }
    ExitCode::SUCCESS
}
