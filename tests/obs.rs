//! Observability-layer integration: the trace a pipeline run records has
//! the documented span shape, both exporters emit well-formed output,
//! recording is observationally inert — it never changes pipeline bytes —
//! and the one fan-out merges the same trace for any worker count.

use proptest::prelude::*;
use socet::atpg::TpgConfig;
use socet::cells::DftCosts;
use socet::core::{plan_inputs, try_schedule};
use socet::flow::{prepare_soc_with, PrepareOptions, PreparedSoc};
use socet::obs::{fan_out, names, Counter, Recorder, SharedRecorder, SpanRec};
use socet::rtl::{Soc, SocBuilder};
use socet::verify::{verify_soc, VerifyOptions};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;

fn light_tpg() -> TpgConfig {
    TpgConfig {
        random_patterns: 16,
        max_backtracks: 32,
        ..TpgConfig::default()
    }
}

/// Two instances of one core — small enough to prepare repeatedly, rich
/// enough to exercise the memo (one unique core, two instances).
fn twin_soc() -> Soc {
    let gcd = Arc::new(socet::socs::gcd_core());
    let port = |n: &str| gcd.find_port(n).unwrap();
    let mut b = SocBuilder::new("twin");
    let x = b.input_pin("X", 12).unwrap();
    let g = b.output_pin("G", 12).unwrap();
    let a = b.instantiate("gcd_a", Arc::clone(&gcd)).unwrap();
    let c = b.instantiate("gcd_b", Arc::clone(&gcd)).unwrap();
    b.connect_pin_to_core(x, a, port("X")).unwrap();
    b.connect_cores(a, port("G"), c, port("Y")).unwrap();
    b.connect_core_to_pin(c, port("G"), g).unwrap();
    b.build().unwrap()
}

fn fresh_cache_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("obs-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The root-to-leaf name path of span `i`.
fn path(spans: &[SpanRec], i: usize) -> Vec<&'static str> {
    let mut frames = Vec::new();
    let mut cur = Some(i as u32);
    while let Some(id) = cur {
        frames.push(spans[id as usize].name);
        cur = spans[id as usize].parent;
    }
    frames.reverse();
    frames
}

#[test]
fn trace_shape_matches_the_pipeline_structure() {
    let soc = twin_soc();
    let shared = SharedRecorder::new();
    let opts = PrepareOptions::new()
        .workers(1)
        .cache_dir(fresh_cache_dir("trace-shape"))
        .recorder(shared.clone());
    prepare_soc_with(&soc, &DftCosts::default(), &light_tpg(), &opts).unwrap();
    let rec = shared.take();

    let spans = rec.spans();
    assert_eq!(spans[0].name, names::PREPARE, "root span opens first");
    assert_eq!(spans[0].parent, None);
    assert_eq!(
        spans.iter().filter(|s| s.name == names::PREPARE).count(),
        1,
        "exactly one pipeline root"
    );

    // Golden nesting: prepare → prepare_core → {store_load, hscan,
    // versions, elaborate, atpg → {atpg_random, atpg_podem}, store_write}.
    let expect_under_core = [
        names::STORE_LOAD,
        names::HSCAN,
        names::VERSIONS,
        names::ELABORATE,
        names::ATPG,
        names::STORE_WRITE,
    ];
    for (i, s) in spans.iter().enumerate() {
        let p = path(spans, i);
        match s.name {
            names::PREPARE => assert_eq!(p, [names::PREPARE]),
            names::PREPARE_CORE => assert_eq!(p, [names::PREPARE, names::PREPARE_CORE]),
            names::ATPG_RANDOM | names::ATPG_PODEM => assert_eq!(
                p,
                [names::PREPARE, names::PREPARE_CORE, names::ATPG, s.name]
            ),
            names::FSIM_SHARD => assert_eq!(
                p[..3],
                [names::PREPARE, names::PREPARE_CORE, names::ATPG],
                "fault-sim shards live under the atpg span: {p:?}"
            ),
            name if expect_under_core.contains(&name) => {
                assert_eq!(p, [names::PREPARE, names::PREPARE_CORE, name])
            }
            other => panic!("unexpected span `{other}` in a prepare trace"),
        }
    }
    // One unique core, prepared once; its cold cache probe missed and the
    // artifact was written back.
    assert_eq!(rec.span_count(names::PREPARE_CORE), 1);
    assert_eq!(rec.span_count(names::STORE_LOAD), 1);
    assert_eq!(rec.span_count(names::STORE_WRITE), 1);
    for stage in [names::HSCAN, names::VERSIONS, names::ELABORATE, names::ATPG] {
        assert_eq!(rec.span_count(stage), 1, "stage `{stage}` runs once");
    }
    assert_eq!(rec.counter(Counter::Instances), 2);
    assert_eq!(rec.counter(Counter::UniqueCores), 1);
    assert_eq!(rec.counter(Counter::MemoHits), 1);
    assert_eq!(rec.counter(Counter::DiskMisses), 1);
    assert_eq!(rec.counter(Counter::DiskWrites), 1);
    assert_eq!(rec.counter(Counter::Workers), 1);
    assert_eq!(rec.dropped_spans(), 0);
}

#[test]
fn replay_trace_shape_and_work_counts() {
    // The work counts are deterministic. System 1's full paper design point
    // simulates 16 714 packed cycles (24 570 checks, 122 010 bits; 10 185
    // bits untracked, 2 100 hold gaps); System 2 capped at 4 vectors
    // simulates 11 059, its last check + 1.
    for (soc, cap, cycles) in [
        (socet::socs::barcode_system(), None, 16_714),
        (socet::socs::system2(), Some(4), 11_059),
    ] {
        let n = soc.cores().len();
        let opts = VerifyOptions {
            max_vectors: cap,
            ..VerifyOptions::default()
        };
        let mut rec = Recorder::new();
        let report = {
            let _sink = rec.install();
            verify_soc(&soc, 105, &vec![0; n], &opts).expect("oracle runs")
        };
        assert!(report.ok(), "{}", report.render());
        assert_eq!(rec.counter(Counter::VerifyCycles), cycles);
        // The untracked and hold-gap counters are the report's sums.
        let sum = |f: fn(&socet::verify::EpisodeSummary) -> u64| {
            report.episodes.iter().map(f).sum::<u64>()
        };
        assert_eq!(
            rec.counter(Counter::VerifyBitsUntracked),
            sum(|e| e.bits_untracked)
        );
        assert_eq!(rec.counter(Counter::VerifyHoldGaps), sum(|e| e.hold_gaps));
        if cap.is_none() {
            assert_eq!(rec.counter(Counter::VerifyChecks), 24_570);
            assert_eq!(rec.counter(Counter::VerifyBits), 122_010);
            assert_eq!(rec.counter(Counter::VerifyBitsUntracked), 10_185);
            assert_eq!(rec.counter(Counter::VerifyHoldGaps), 2_100);
        }
        let spans = rec.spans();
        for (name, want) in [
            (
                names::VERIFY_BUILD,
                vec![names::VERIFY, names::VERIFY_BUILD],
            ),
            (
                names::VERIFY_SIMULATE,
                vec![names::VERIFY, names::VERIFY_SIMULATE],
            ),
        ] {
            let at: Vec<usize> = (0..spans.len())
                .filter(|&i| spans[i].name == name)
                .collect();
            assert_eq!(at.len(), 1, "one {name} span per replay");
            assert_eq!(path(spans, at[0]), want);
        }
    }
}

#[test]
fn verify_records_the_schedulers_evaluation() {
    let soc = socet::socs::barcode_system();
    let choice = vec![0; soc.cores().len()];
    let opts = VerifyOptions {
        max_vectors: Some(4),
        ..VerifyOptions::default()
    };
    let mut rec = Recorder::new();
    {
        let _sink = rec.install();
        verify_soc(&soc, 105, &choice, &opts).expect("oracle runs");
    }
    // The scheduler records through the installed sink like every other
    // engine: one root `evaluate` with its three stages underneath.
    let spans = rec.spans();
    let named = |name: &str| -> Vec<usize> {
        (0..spans.len())
            .filter(|&i| spans[i].name == name)
            .collect()
    };
    let evaluate = named(names::EVALUATE);
    assert_eq!(evaluate.len(), 1, "one evaluation per verified point");
    assert_eq!(path(spans, evaluate[0]), [names::EVALUATE], "a root span");
    for stage in [names::BUILD, names::ROUTE, names::ASSEMBLE] {
        let at = named(stage);
        assert_eq!(at.len(), 1, "one `{stage}` span");
        assert_eq!(path(spans, at[0]), [names::EVALUATE, stage]);
    }
    assert_eq!(rec.counter(Counter::Evaluations), 1);
    assert!(rec.counter(Counter::RouteAttempts) > 0);

    // With nothing installed the engine records nowhere and schedules the
    // same point.
    let costs = DftCosts::default();
    let data = plan_inputs(&soc, &costs, 105).unwrap();
    let mut rec = Recorder::new();
    let recorded = {
        let _sink = rec.install();
        try_schedule(&soc, &data, &choice, &costs).unwrap()
    };
    let unrecorded = try_schedule(&soc, &data, &choice, &costs).unwrap();
    assert_eq!(format!("{unrecorded:?}"), format!("{recorded:?}"));
    assert_eq!(rec.counter(Counter::Evaluations), 1);
}

/// A fan-out body whose recording depends only on its range.
fn squares(range: Range<usize>) -> Vec<usize> {
    range
        .map(|i| {
            let _s = socet::obs::span(names::EVALUATE);
            socet::obs::add(Counter::RouteAttempts, i as u64 + 1);
            socet::obs::add(Counter::Workers, i as u64);
            i * i
        })
        .collect()
}

/// Results, every counter, and each span's name path, for one fan-out
/// under a root span.
fn fan_out_run(n: usize, workers: usize) -> (Vec<usize>, Vec<u64>, Vec<Vec<&'static str>>) {
    let mut rec = Recorder::new();
    let root = rec.begin(names::SWEEP);
    let out = {
        let _sink = rec.install();
        fan_out(n, workers, squares).concat()
    };
    rec.end(root);
    let spans = rec.spans();
    let paths = (0..spans.len()).map(|i| path(spans, i)).collect();
    (out, Counter::ALL.map(|c| rec.counter(c)).to_vec(), paths)
}

#[test]
fn fan_out_merges_alike_for_any_worker_count() {
    for n in [0, 1, 7, 100] {
        let serial = fan_out_run(n, 1);
        assert_eq!(serial.0, (0..n).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(serial.2.len(), n + 1, "the root and one span per item");
        for workers in [2, 3, 8, n + 1] {
            assert_eq!(fan_out_run(n, workers), serial, "n {n}, workers {workers}");
            assert!(fan_out(n, workers, |r| r).len() <= workers);
        }
    }
    let payload = std::panic::catch_unwind(|| {
        fan_out(8, 4, |range| {
            if range.contains(&5) {
                panic!("range {range:?} failed");
            }
        })
    })
    .expect_err("a worker's panic reaches the caller");
    assert_eq!(
        payload.downcast_ref::<String>().map(String::as_str),
        Some("range 4..6 failed")
    );
}

#[test]
fn exporters_emit_wellformed_output() {
    let soc = twin_soc();
    let shared = SharedRecorder::new();
    prepare_soc_with(
        &soc,
        &DftCosts::default(),
        &light_tpg(),
        &PrepareOptions::new().workers(1).recorder(shared.clone()),
    )
    .unwrap();
    let rec = shared.take();

    let json = rec.to_json();
    assert!(json_parses(&json), "trace must be valid JSON:\n{json}");
    assert!(json.contains("\"version\": 1"));
    assert!(json.contains("\"name\": \"prepare\""));
    assert!(json.contains("\"instances\": 2"));

    let folded = rec.to_folded();
    assert!(!folded.is_empty(), "profile must not be empty");
    for line in folded.lines() {
        let (stack, ns) = line.rsplit_once(' ').expect("`stack SP value` lines");
        assert!(stack.starts_with("prepare"), "stacks root at the pipeline");
        assert!(ns.parse::<u128>().expect("integer nanoseconds") > 0);
    }
}

/// A minimal JSON recognizer — enough to catch unbalanced structure,
/// missing commas and bad literals in the hand-rolled exporter.
fn json_parses(s: &str) -> bool {
    let b = s.as_bytes();
    let mut i = 0usize;
    fn ws(b: &[u8], i: &mut usize) {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    }
    fn value(b: &[u8], i: &mut usize) -> bool {
        ws(b, i);
        match b.get(*i) {
            Some(b'{') => {
                *i += 1;
                ws(b, i);
                if b.get(*i) == Some(&b'}') {
                    *i += 1;
                    return true;
                }
                loop {
                    ws(b, i);
                    if !string(b, i) {
                        return false;
                    }
                    ws(b, i);
                    if b.get(*i) != Some(&b':') {
                        return false;
                    }
                    *i += 1;
                    if !value(b, i) {
                        return false;
                    }
                    ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b'}') => {
                            *i += 1;
                            return true;
                        }
                        _ => return false,
                    }
                }
            }
            Some(b'[') => {
                *i += 1;
                ws(b, i);
                if b.get(*i) == Some(&b']') {
                    *i += 1;
                    return true;
                }
                loop {
                    if !value(b, i) {
                        return false;
                    }
                    ws(b, i);
                    match b.get(*i) {
                        Some(b',') => *i += 1,
                        Some(b']') => {
                            *i += 1;
                            return true;
                        }
                        _ => return false,
                    }
                }
            }
            Some(b'"') => string(b, i),
            Some(b'n') => literal(b, i, b"null"),
            Some(b't') => literal(b, i, b"true"),
            Some(b'f') => literal(b, i, b"false"),
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                *i += 1;
                while b
                    .get(*i)
                    .is_some_and(|c| c.is_ascii_digit() || b".eE+-".contains(c))
                {
                    *i += 1;
                }
                true
            }
            _ => false,
        }
    }
    fn string(b: &[u8], i: &mut usize) -> bool {
        if b.get(*i) != Some(&b'"') {
            return false;
        }
        *i += 1;
        while let Some(&c) = b.get(*i) {
            match c {
                b'"' => {
                    *i += 1;
                    return true;
                }
                b'\\' => *i += 2,
                _ => *i += 1,
            }
        }
        false
    }
    fn literal(b: &[u8], i: &mut usize, word: &[u8]) -> bool {
        if b.len() - *i >= word.len() && &b[*i..*i + word.len()] == word {
            *i += word.len();
            true
        } else {
            false
        }
    }
    if !value(b, &mut i) {
        return false;
    }
    ws(b, &mut i);
    i == b.len()
}

/// Byte encodings of every instance's artifact (`None` for memories).
fn all_bytes(p: &PreparedSoc, soc: &Soc) -> Vec<Option<Vec<u8>>> {
    (0..soc.cores().len())
        .map(|i| p.artifact_bytes(i))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Recording is observationally inert: capturing a full trace changes
    /// no pipeline output bytes, for any worker count and ATPG seed.
    #[test]
    fn recording_changes_no_pipeline_bytes(
        workers in 1usize..5,
        seed in 0u64..3,
    ) {
        let soc = twin_soc();
        let costs = DftCosts::default();
        let tpg = TpgConfig { seed, ..light_tpg() };
        let plain = PrepareOptions::new().workers(workers);
        let (unrecorded, _) = prepare_soc_with(&soc, &costs, &tpg, &plain).unwrap();
        let shared = socet::obs::SharedRecorder::new();
        let traced = PrepareOptions::new().workers(workers).recorder(shared.clone());
        let (recorded, _) = prepare_soc_with(&soc, &costs, &tpg, &traced).unwrap();
        prop_assert_eq!(all_bytes(&recorded, &soc), all_bytes(&unrecorded, &soc));
        let rec = shared.take();
        prop_assert!(rec.span_count(socet::obs::names::PREPARE) >= 1);
    }
}
