//! One iteration's measurements, and the span-tree arithmetic of the
//! traced run.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use socet::obs::Recorder;

use crate::host::cpu_s;
use crate::metrics::per_layer;

/// What one iteration measured: the host time of its timed region on
/// both clocks, plus per-layer values (layer-call times and the counts
/// the API returned), keyed by declared per-layer metric name.
#[derive(Debug, Default, Clone)]
pub struct Sample {
    /// On-CPU seconds of the iteration's timed region (checks excluded).
    pub iter_s: f64,
    /// Wall-clock seconds of the same region.
    pub iter_wall_s: f64,
    values: BTreeMap<&'static str, f64>,
}

/// The start of a timed region, on both clocks.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    /// Starts timing.
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu: cpu_s(),
        }
    }

    /// On-CPU seconds since the start.
    pub fn cpu_elapsed(&self) -> f64 {
        cpu_s() - self.cpu
    }
}

impl Sample {
    /// Ends the iteration's timed region started at `t`.
    pub fn stop(&mut self, t: Stopwatch) {
        self.iter_s = t.cpu_elapsed();
        self.iter_wall_s = t.wall.elapsed().as_secs_f64();
    }

    /// Runs `f`, a call into one layer, inside a `socet::obs` span named
    /// after `metric` (recorded only when the traced run has installed a
    /// recorder) and adds its on-CPU time to `metric`.
    pub fn time<T>(&mut self, metric: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = socet::obs::span(metric);
        let t = cpu_s();
        let out = f();
        self.add(metric, cpu_s() - t);
        out
    }

    /// Adds `v` to `metric`.
    ///
    /// # Panics
    ///
    /// Panics if `metric` is not a declared per-layer metric — a bug in
    /// this benchmark, caught on its first iteration.
    pub fn add(&mut self, metric: &'static str, v: f64) {
        assert!(per_layer(metric).is_some(), "undeclared metric {metric}");
        *self.values.entry(metric).or_default() += v;
    }

    /// Sets `metric` to `v` (see [`Sample::add`]).
    pub fn set(&mut self, metric: &'static str, v: f64) {
        assert!(per_layer(metric).is_some(), "undeclared metric {metric}");
        self.values.insert(metric, v);
    }

    /// The value of `metric` (0 when the iteration did not touch it).
    pub fn get(&self, metric: &str) -> f64 {
        self.values.get(metric).copied().unwrap_or(0.0)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Total and self time of one span name within a recorder.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpanStat {
    /// Summed wall time of every span with this name.
    pub total: Duration,
    /// `total` minus the part of each span's interval its children cover.
    pub self_time: Duration,
    /// Completed spans.
    pub count: u64,
}

/// Per-name total and self time over a recorder's retained spans. Self
/// time subtracts the *union* of the children's intervals, so children
/// running in parallel (sweep workers, fault-sim shards) are not
/// subtracted twice.
pub fn span_stats(rec: &Recorder) -> BTreeMap<&'static str, SpanStat> {
    let spans = rec.spans();
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start, s.start + s.dur));
        }
    }
    let mut out: BTreeMap<&'static str, SpanStat> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort();
        let mut covered = Duration::ZERO;
        let mut cur: Option<(Duration, Duration)> = None;
        for &(a, b) in kids.iter() {
            match cur {
                Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    cur = Some((a, b));
                }
                None => cur = Some((a, b)),
            }
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        let e = out.entry(s.name).or_default();
        e.total += s.dur;
        e.self_time += s.dur.saturating_sub(covered);
        e.count += 1;
    }
    out
}

/// Summed wall time of the spans named `name` that run inside a span
/// named `ancestor` — how the traced run reads the program's own spans
/// (e.g. `atpg_podem`) under one benchmark-side layer call.
pub fn total_under(rec: &Recorder, name: &str, ancestor: &str) -> Duration {
    let spans = rec.spans();
    spans
        .iter()
        .filter(|s| s.name == name)
        .filter(|s| {
            let mut p = s.parent;
            while let Some(i) = p {
                if spans[i as usize].name == ancestor {
                    return true;
                }
                p = spans[i as usize].parent;
            }
            false
        })
        .map(|s| s.dur)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut rec = Recorder::new();
        let root = rec.begin("flow.prepare_cold_s");
        {
            let _g = rec.install();
            let _a = socet::obs::span("atpg_podem");
            std::thread::sleep(Duration::from_millis(2));
        }
        // Two workers whose spans overlap in time, merged under the root.
        let (mut a, mut b) = (rec.fork(), rec.fork());
        let ta = a.begin("fsim_shard");
        let tb = b.begin("fsim_shard");
        std::thread::sleep(Duration::from_millis(2));
        a.end(ta);
        b.end(tb);
        rec.merge_child(a);
        rec.merge_child(b);
        rec.end(root);

        let stats = span_stats(&rec);
        let (root, podem, shard) = (
            stats["flow.prepare_cold_s"],
            stats["atpg_podem"],
            stats["fsim_shard"],
        );
        assert_eq!((root.count, podem.count, shard.count), (1, 1, 2));
        assert_eq!(podem.self_time, podem.total);
        // The overlapping shards are subtracted once, not twice.
        let children = podem.total + shard.total;
        assert!(root.self_time > root.total.saturating_sub(children));
        assert!(root.self_time + podem.total + shard.total / 2 <= root.total);
        assert_eq!(
            total_under(&rec, "atpg_podem", "flow.prepare_cold_s"),
            podem.total
        );
        assert_eq!(
            total_under(&rec, "atpg_podem", "core.sweep_s"),
            Duration::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "undeclared metric")]
    fn undeclared_names_are_refused() {
        Sample::default().add("flow.nonexistent_s", 1.0);
    }
}
