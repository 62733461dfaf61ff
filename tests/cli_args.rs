//! Regression tests for `soctool` argument handling: unknown flags,
//! unknown commands, and surplus positional arguments must all be
//! rejected with exit code 2 and a usage message — historically the tool
//! exited 0 on unknown flags, silently ignoring typos like `--cout`.

use std::process::{Command, Output};

fn soctool(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_soctool"))
        .args(args)
        .output()
        .expect("soctool spawns")
}

fn assert_usage_rejection(args: &[&str]) {
    let out = soctool(args);
    assert_eq!(
        out.status.code(),
        Some(2),
        "soctool {args:?} should exit 2, got {:?}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("usage: soctool"),
        "soctool {args:?} printed no usage:\n{stderr}"
    );
}

#[test]
fn unknown_flags_are_rejected() {
    assert_usage_rejection(&["systems", "--bogus"]);
    assert_usage_rejection(&["report", "system1", "--cout"]); // typo of --stats
    assert_usage_rejection(&["verify", "system1", "--sed", "3"]); // typo of --seed
    assert_usage_rejection(&["atpg", "system1", "-x"]);
}

#[test]
fn unknown_commands_are_rejected() {
    assert_usage_rejection(&["frobnicate"]);
    assert_usage_rejection(&["Report", "system1"]);
    assert_usage_rejection(&[]);
}

#[test]
fn surplus_positionals_are_rejected() {
    assert_usage_rejection(&["systems", "extra"]);
    assert_usage_rejection(&["verify", "system1", "extra", "more"]);
    assert_usage_rejection(&["bist", "system1", "surplus"]);
}

#[test]
fn flag_values_are_not_swallowed_as_positionals() {
    // `--seed` consumes its value; what remains must still be checked.
    assert_usage_rejection(&["verify", "system1", "--seed", "7", "surplus"]);
    // A flag missing its value is an error, not a crash.
    let out = soctool(&["verify", "system1", "--seed"]);
    assert_eq!(out.status.code(), Some(2), "dangling --seed should exit 2");
}

#[test]
fn valid_invocations_still_work() {
    let out = soctool(&["systems"]);
    assert!(out.status.success(), "soctool systems failed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("system1"), "{stdout}");
    assert!(stdout.contains("system2"), "{stdout}");
}

/// A fresh per-test scratch directory under cargo's target tmpdir.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn atpg_exports_trace_and_profile() {
    let dir = scratch_dir("atpg-trace");
    let (trace, profile) = (dir.join("atpg.json"), dir.join("atpg.folded"));
    let out = soctool(&[
        "atpg",
        "system1",
        "--trace",
        trace.to_str().expect("utf-8 path"),
        "--profile",
        profile.to_str().expect("utf-8 path"),
    ]);
    assert!(out.status.success(), "atpg --trace failed: {out:?}");
    let json = std::fs::read_to_string(&trace).expect("trace written");
    assert!(json.trim_start().starts_with('{'), "{json}");
    let folded = std::fs::read_to_string(&profile).expect("profile written");
    assert!(folded.contains("atpg_podem"), "{folded}");
}

#[test]
fn flags_a_command_does_not_use_are_rejected() {
    let dir = scratch_dir("unused-flags");
    let path = dir.join("never.json");
    let path = path.to_str().expect("utf-8 path");
    // Before, these exited 0 and wrote nothing.
    assert_usage_rejection(&["bist", "system1", "--trace", path]);
    assert_usage_rejection(&["bist", "system1", "--profile", path]);
    assert!(!dir.join("never.json").exists(), "bist wrote a trace");
    assert_usage_rejection(&["systems", "--trace", path]);
    assert_usage_rejection(&["dot-rcg", "system1", "CPU", "--profile", path]);
    assert_usage_rejection(&["atpg", "system1", "--workers", "2"]);
    assert_usage_rejection(&["report", "system1", "--cache-dir", path]);
    assert_usage_rejection(&["sweep", "system1", "--seed", "3"]);
    assert_usage_rejection(&["prepare", "system1", "--cases", "3"]);
    assert_usage_rejection(&["dot-ccg", "system1", "--seed", "3"]);
}

#[test]
fn malformed_numeric_values_are_rejected() {
    // Before, an unparsable value silently fell back to the default.
    assert_usage_rejection(&["verify", "synthetic", "--seed", "notanumber"]);
    assert_usage_rejection(&["verify", "synthetic", "--cases", "1.5"]);
    assert_usage_rejection(&["verify", "system1", "--seed", "-1"]);
    assert_usage_rejection(&["prepare", "system2", "--workers", "-3"]);
    assert_usage_rejection(&["prepare", "system2", "--workers", "four"]);
}

/// The `name value` lines of the `counters:` block of a `--stats` table.
fn printed_counters(stdout: &str) -> Vec<(String, u64)> {
    stdout
        .lines()
        .skip_while(|l| *l != "counters:")
        .skip(1)
        .take_while(|l| l.starts_with("  "))
        .map(|l| {
            let mut it = l.split_whitespace();
            let name = it.next().expect("counter name").to_owned();
            let value = it.next().expect("counter value").parse().expect("integer");
            assert_eq!(it.next(), None, "stray field in `{l}`");
            (name, value)
        })
        .collect()
}

/// The `"counters"` object of a version-1 JSON trace, in file order.
fn trace_counters(json: &str) -> Vec<(String, u64)> {
    let body = json
        .split_once("\"counters\": {")
        .and_then(|(_, rest)| rest.split_once('}'))
        .expect("counters object")
        .0;
    body.split(',')
        .filter(|e| !e.trim().is_empty())
        .map(|e| {
            let (name, value) = e.split_once(':').expect("name: value");
            let name = name.trim().trim_matches('"').to_owned();
            (name, value.trim().parse().expect("integer"))
        })
        .collect()
}

#[test]
fn stats_tables_equal_trace_counters() {
    // `--stats` and `--trace` of one invocation render one recorder, so
    // every printed counter is the trace's; a total summed by hand from
    // the report would drift from what the engines counted.
    let dir = scratch_dir("stats-vs-trace");
    for args in [["verify", "system1"], ["atpg", "system2"]] {
        let trace = dir.join(format!("{}.json", args[0]));
        let trace_arg = trace.to_str().expect("utf-8 path");
        let out = soctool(&[args[0], args[1], "--stats", "--trace", trace_arg]);
        assert!(out.status.success(), "soctool {args:?} failed: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let printed = printed_counters(&stdout);
        assert!(!printed.is_empty(), "no counter table:\n{stdout}");
        let json = std::fs::read_to_string(&trace).expect("trace written");
        assert_eq!(printed, trace_counters(&json), "soctool {args:?}");
    }
}
