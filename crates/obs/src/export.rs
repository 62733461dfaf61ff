//! Trace exporters: a machine-readable JSON trace, a collapsed-stack
//! ("folded") profile for flamegraph tooling, and the human-readable
//! counter table.
//!
//! All three are hand-rolled — this crate takes no dependencies — and
//! only ever emit numbers, `null`, and span names drawn from
//! [`crate::names`] (plain ASCII identifiers), so no string escaping is
//! required beyond what [`escape`] provides defensively.
//!
//! # JSON schema (version 1)
//!
//! ```json
//! {
//!   "version": 1,
//!   "dropped_spans": 0,
//!   "counters": { "instances": 9, "unique_cores": 6 },
//!   "spans": [
//!     { "id": 0, "name": "prepare", "parent": null,
//!       "start_ns": 0, "dur_ns": 123456 }
//!   ]
//! }
//! ```
//!
//! `counters` lists only non-zero counters. `spans` is in recording order;
//! `parent` indexes into the same array. Times are integer nanoseconds from
//! the recorder epoch.
//!
//! # Folded format
//!
//! One line per distinct stack, `root;child;leaf <self-ns>`, where self
//! time is the span's duration minus its retained children's — exactly what
//! `flamegraph.pl` / `inferno-flamegraph` consume. Nanosecond units keep
//! sub-millisecond pipelines from collapsing to empty output.
//!
//! # Counter table
//!
//! The one place counters are formatted for people (`--stats`). Every
//! non-zero counter, by its JSON name in declaration order, then every
//! span name with its completed count and exact total wall time, in the
//! order the names first completed:
//!
//! ```text
//! counters:
//!   instances                               9
//!   unique_cores                            6
//! spans:
//!   hscan                                   6 × 1.234 ms
//!   prepare                                 1 × 20.100 ms
//! ```
//!
//! A counter line's value is exactly the JSON trace's `counters` entry of
//! the same name, so the two never disagree.

use crate::{Counter, Recorder};

/// Escapes a string for a JSON string literal. Span and counter names are
/// static ASCII identifiers, so this is defensive rather than load-bearing.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

pub(crate) fn to_json(rec: &Recorder) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"version\": 1,\n");
    out.push_str(&format!("  \"dropped_spans\": {},\n", rec.dropped_spans()));

    out.push_str("  \"counters\": {");
    let mut first = true;
    for c in Counter::ALL {
        let v = rec.counter(c);
        if v == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\n    \"{}\": {}", escape(c.name()), v));
    }
    if !first {
        out.push_str("\n  ");
    }
    out.push_str("},\n");

    out.push_str("  \"spans\": [");
    for (i, s) in rec.spans().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = match s.parent {
            Some(p) => p.to_string(),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "\n    {{ \"id\": {}, \"name\": \"{}\", \"parent\": {}, \"start_ns\": {}, \"dur_ns\": {} }}",
            i,
            escape(s.name),
            parent,
            s.start.as_nanos(),
            s.dur.as_nanos()
        ));
    }
    if !rec.spans().is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

pub(crate) fn to_table(rec: &Recorder) -> String {
    let mut out = String::from("counters:\n");
    for c in Counter::ALL {
        let v = rec.counter(c);
        if v != 0 {
            out.push_str(&format!("  {:<28} {v:>12}\n", c.name()));
        }
    }
    out.push_str("spans:\n");
    for (name, total, count) in rec.inner.as_ref().map_or(&[][..], |i| &i.agg) {
        out.push_str(&format!(
            "  {name:<28} {count:>12} × {:.3} ms\n",
            total.as_secs_f64() * 1e3
        ));
    }
    out
}

pub(crate) fn to_folded(rec: &Recorder) -> String {
    let spans = rec.spans();
    // Self time = duration minus the duration of retained children.
    let mut self_ns: Vec<i128> = spans.iter().map(|s| s.dur.as_nanos() as i128).collect();
    for s in spans {
        if let Some(p) = s.parent {
            self_ns[p as usize] -= s.dur.as_nanos() as i128;
        }
    }
    // Identical stacks merge; BTreeMap keeps the output deterministic.
    let mut stacks: std::collections::BTreeMap<String, u128> = std::collections::BTreeMap::new();
    for (i, _) in spans.iter().enumerate() {
        let self_time = self_ns[i].max(0) as u128;
        if self_time == 0 {
            continue;
        }
        let mut frames = Vec::new();
        let mut cur = Some(i as u32);
        while let Some(id) = cur {
            let s = &spans[id as usize];
            frames.push(s.name);
            cur = s.parent;
        }
        frames.reverse();
        *stacks.entry(frames.join(";")).or_insert(0) += self_time;
    }
    let mut out = String::new();
    for (stack, ns) in stacks {
        out.push_str(&format!("{stack} {ns}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::{Counter, Recorder};

    fn sample() -> Recorder {
        let mut rec = Recorder::new();
        rec.record(Counter::Instances, 4);
        let root = rec.begin("prepare");
        let core = rec.begin("prepare_core");
        let h = rec.begin("hscan");
        std::thread::sleep(std::time::Duration::from_millis(1));
        rec.end(h);
        rec.end(core);
        rec.end(root);
        rec
    }

    #[test]
    fn json_has_schema_fields_and_nonzero_counters_only() {
        let rec = sample();
        let json = rec.to_json();
        assert!(json.contains("\"version\": 1"));
        assert!(json.contains("\"instances\": 4"));
        assert!(!json.contains("\"disk_hits\""), "zero counters omitted");
        assert!(json.contains("\"name\": \"prepare\""));
        assert!(json.contains("\"parent\": null"));
        assert!(
            json.contains("\"parent\": 1"),
            "hscan nests under prepare_core"
        );
    }

    #[test]
    fn json_of_empty_recorder_is_well_formed() {
        let rec = Recorder::new();
        let json = rec.to_json();
        assert!(json.contains("\"counters\": {},"));
        assert!(json.contains("\"spans\": []"));
    }

    #[test]
    fn folded_emits_full_stacks_with_positive_self_time() {
        let rec = sample();
        let folded = rec.to_folded();
        assert!(
            folded.contains("prepare;prepare_core;hscan "),
            "leaf stack present: {folded:?}"
        );
        for line in folded.lines() {
            let (stack, ns) = line.rsplit_once(' ').expect("stack SP value");
            assert!(!stack.is_empty());
            assert!(ns.parse::<u128>().expect("integer ns") > 0);
        }
    }

    #[test]
    fn table_lists_nonzero_counters_in_order_then_spans() {
        let mut rec = sample();
        rec.record(Counter::DiskHits, 2);
        let table = rec.to_table();
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines[0], "counters:");
        // Declaration order: `instances` precedes `disk_hits`.
        assert_eq!(
            lines[1].split_whitespace().collect::<Vec<_>>(),
            ["instances", "4"]
        );
        assert_eq!(
            lines[2].split_whitespace().collect::<Vec<_>>(),
            ["disk_hits", "2"]
        );
        assert_eq!(lines[3], "spans:");
        // First completion order: the innermost span closes first.
        let spans: Vec<&str> = lines[4..]
            .iter()
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        assert_eq!(spans, ["hscan", "prepare_core", "prepare"]);
        assert!(lines[4].contains(" 1 × "), "{table}");
        assert!(!table.contains("unique_cores"), "zero counters omitted");
    }

    #[test]
    fn table_of_disabled_recorder_has_only_headers() {
        assert_eq!(Recorder::disabled().to_table(), "counters:\nspans:\n");
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(super::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(super::escape("\u{1}"), "\\u0001");
    }
}
