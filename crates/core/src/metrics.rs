//! Typed views over a recorder's counters and spans.
//!
//! Design-space exploration spends its time in three places — building (or
//! patching) the CCG, reservation-aware routing, and plan assembly — and
//! the interesting efficiency questions ("how many Dijkstra relaxations per
//! point?", "how often does routing fall back to a system mux?", "how much
//! of the graph did incremental patching actually rebuild?") are invisible
//! from the outside. Every stage records typed counters and spans into a
//! [`Recorder`](socet_obs::Recorder) (`socet_obs`, re-exported as
//! [`crate::obs`]); the [`Scheduler`](crate::schedule::Scheduler) owns one,
//! the [`Explorer`](crate::explore::Explorer) folds every engine's into its
//! own, and `--stats` prints the recorder's counter table
//! ([`Recorder::to_table`](socet_obs::Recorder::to_table)).
//!
//! [`Metrics`] / [`PrepareMetrics`] / [`AtpgMetrics`] are typed views
//! derived from one recorder with `from_recorder`, for code that reads a
//! field rather than printing; [`Metrics::merge`] folds whole views
//! together, for callers that keep one view per run.

use socet_atpg::AtpgMetrics;
use socet_obs::{names, Counter, Recorder};
use std::time::Duration;

/// Counters and stage wall-times of one core-preparation pipeline run
/// (`socet::flow::prepare_soc_with`): how many physical instances were requested,
/// how many unique cores actually had to be prepared, and where each
/// artifact came from — computed fresh, shared through the in-process memo,
/// or loaded from the on-disk store.
///
/// Stage times are summed across workers, so under parallel preparation
/// they exceed the wall-clock `total_time` — that gap *is* the parallel
/// speedup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrepareMetrics {
    /// Logic core instances in the SOC (memory cores are not prepared and
    /// not counted).
    pub instances: u64,
    /// Distinct logic cores prepared (the memo collapses repeats).
    pub unique_cores: u64,
    /// Instances served by the in-process memo instead of a fresh run.
    pub memo_hits: u64,
    /// Unique cores loaded from the on-disk artifact store.
    pub disk_hits: u64,
    /// Unique cores looked up on disk and not found (or found corrupt).
    pub disk_misses: u64,
    /// Artifacts written to the on-disk store this run.
    pub disk_writes: u64,
    /// Worker threads used for the unique-core fan-out.
    pub workers: u64,
    /// Wall time in HSCAN insertion, summed across workers.
    pub hscan_time: Duration,
    /// Wall time in transparency-version synthesis, summed across workers.
    pub versions_time: Duration,
    /// Wall time in gate-level elaboration, summed across workers.
    pub elaborate_time: Duration,
    /// Wall time in combinational ATPG, summed across workers.
    pub atpg_time: Duration,
    /// Wall time in artifact store I/O (read + decode + encode + write).
    pub io_time: Duration,
    /// End-to-end wall time of the pipeline run.
    pub total_time: Duration,
}

impl PrepareMetrics {
    /// A zeroed instance.
    pub fn new() -> Self {
        PrepareMetrics::default()
    }

    /// The view of one recorder's preparation counters and stage spans:
    /// counts come from the typed counter slots, stage times from the
    /// exact per-name span aggregates (`io_time` is store load + store
    /// write, `total_time` the enclosing `prepare` span).
    pub fn from_recorder(rec: &Recorder) -> Self {
        PrepareMetrics {
            instances: rec.counter(Counter::Instances),
            unique_cores: rec.counter(Counter::UniqueCores),
            memo_hits: rec.counter(Counter::MemoHits),
            disk_hits: rec.counter(Counter::DiskHits),
            disk_misses: rec.counter(Counter::DiskMisses),
            disk_writes: rec.counter(Counter::DiskWrites),
            workers: rec.counter(Counter::Workers),
            hscan_time: rec.span_total(names::HSCAN),
            versions_time: rec.span_total(names::VERSIONS),
            elaborate_time: rec.span_total(names::ELABORATE),
            atpg_time: rec.span_total(names::ATPG),
            io_time: rec.span_total(names::STORE_LOAD) + rec.span_total(names::STORE_WRITE),
            total_time: rec.span_total(names::PREPARE),
        }
    }

    /// Folds `other` into `self`: counters and times add; `workers` keeps
    /// the widest fan-out seen.
    fn merge(&mut self, other: &PrepareMetrics) {
        self.instances += other.instances;
        self.unique_cores += other.unique_cores;
        self.memo_hits += other.memo_hits;
        self.disk_hits += other.disk_hits;
        self.disk_misses += other.disk_misses;
        self.disk_writes += other.disk_writes;
        self.workers = self.workers.max(other.workers);
        self.hscan_time += other.hscan_time;
        self.versions_time += other.versions_time;
        self.elaborate_time += other.elaborate_time;
        self.atpg_time += other.atpg_time;
        self.io_time += other.io_time;
        self.total_time += other.total_time;
    }
}

/// Counters and stage wall-times accumulated across evaluations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Design points evaluated (successful `Scheduler::evaluate` calls).
    pub evaluations: u64,
    /// CCGs built from scratch.
    pub ccg_full_builds: u64,
    /// Incremental per-core patches applied instead of full rebuilds.
    pub ccg_incremental_patches: u64,
    /// Edges written while building or patching CCGs (a full build counts
    /// every edge; a patch counts only the stepped core's group).
    pub ccg_edges_rebuilt: u64,
    /// Routing requests issued (one per core port per evaluation).
    pub route_attempts: u64,
    /// Core episodes served from the route cache (a core's routes do not
    /// depend on its own version choice, so sweeps revisit them often).
    pub route_cache_hits: u64,
    /// Edge relaxations performed inside Dijkstra.
    pub dijkstra_relaxations: u64,
    /// Ports no route could reach, resolved with a system-level test mux.
    pub system_mux_fallbacks: u64,
    /// Wall time spent building/patching CCGs.
    pub build_time: Duration,
    /// Wall time spent routing.
    pub route_time: Duration,
    /// Wall time spent assembling design points (overhead accounting,
    /// sorting).
    pub assemble_time: Duration,
    /// Counters of the ATPG engines run on behalf of this flow (all zero
    /// when no test generation happened).
    pub atpg: AtpgMetrics,
    /// Counters of the core-preparation pipeline (all zero when no
    /// preparation happened in this flow).
    pub prepare: PrepareMetrics,
}

impl Metrics {
    /// A zeroed instance.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// The view of one recorder's full event stream: engine counters and
    /// stage spans, with the embedded ATPG and preparation blocks derived
    /// from the same recorder.
    pub fn from_recorder(rec: &Recorder) -> Self {
        Metrics {
            evaluations: rec.counter(Counter::Evaluations),
            ccg_full_builds: rec.counter(Counter::CcgFullBuilds),
            ccg_incremental_patches: rec.counter(Counter::CcgIncrementalPatches),
            ccg_edges_rebuilt: rec.counter(Counter::CcgEdgesRebuilt),
            route_attempts: rec.counter(Counter::RouteAttempts),
            route_cache_hits: rec.counter(Counter::RouteCacheHits),
            dijkstra_relaxations: rec.counter(Counter::DijkstraRelaxations),
            system_mux_fallbacks: rec.counter(Counter::SystemMuxFallbacks),
            build_time: rec.span_total(names::BUILD),
            route_time: rec.span_total(names::ROUTE),
            assemble_time: rec.span_total(names::ASSEMBLE),
            atpg: AtpgMetrics::from_recorder(rec),
            prepare: PrepareMetrics::from_recorder(rec),
        }
    }

    /// Folds `other` into `self` — used to aggregate per-worker metrics
    /// after a parallel sweep.
    pub fn merge(&mut self, other: &Metrics) {
        self.evaluations += other.evaluations;
        self.ccg_full_builds += other.ccg_full_builds;
        self.ccg_incremental_patches += other.ccg_incremental_patches;
        self.ccg_edges_rebuilt += other.ccg_edges_rebuilt;
        self.route_attempts += other.route_attempts;
        self.route_cache_hits += other.route_cache_hits;
        self.dijkstra_relaxations += other.dijkstra_relaxations;
        self.system_mux_fallbacks += other.system_mux_fallbacks;
        self.build_time += other.build_time;
        self.route_time += other.route_time;
        self.assemble_time += other.assemble_time;
        self.atpg.merge(&other.atpg);
        self.prepare.merge(&other.prepare);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_every_counter() {
        let mut a = Metrics {
            evaluations: 1,
            ccg_full_builds: 2,
            ccg_incremental_patches: 3,
            ccg_edges_rebuilt: 4,
            route_attempts: 5,
            route_cache_hits: 11,
            dijkstra_relaxations: 6,
            system_mux_fallbacks: 7,
            build_time: Duration::from_micros(8),
            route_time: Duration::from_micros(9),
            assemble_time: Duration::from_micros(10),
            atpg: AtpgMetrics {
                blocks_simulated: 12,
                ..AtpgMetrics::default()
            },
            prepare: PrepareMetrics {
                instances: 4,
                workers: 2,
                total_time: Duration::from_micros(6),
                ..PrepareMetrics::default()
            },
        };
        let b = Metrics {
            prepare: PrepareMetrics {
                workers: 8,
                ..a.prepare
            },
            ..a.clone()
        };
        a.merge(&b);
        assert_eq!(a.evaluations, 2);
        assert_eq!(a.ccg_edges_rebuilt, 8);
        assert_eq!(a.system_mux_fallbacks, 14);
        assert_eq!(a.route_time, Duration::from_micros(18));
        assert_eq!(a.atpg.blocks_simulated, 24);
        assert_eq!(a.prepare.instances, 8);
        assert_eq!(a.prepare.total_time, Duration::from_micros(12));
        assert_eq!(a.prepare.workers, 8, "merge keeps the widest fan-out");
    }

    #[test]
    fn views_derive_from_one_recorder() {
        let mut rec = Recorder::new();
        rec.record(Counter::Evaluations, 3);
        rec.record(Counter::RouteAttempts, 7);
        rec.record(Counter::Instances, 4);
        rec.record(Counter::UniqueCores, 2);
        rec.record(Counter::Workers, 8);
        rec.record(Counter::BlocksSimulated, 5);
        let b = rec.begin(names::BUILD);
        rec.end(b);
        let h = rec.begin(names::HSCAN);
        rec.end(h);

        let m = Metrics::from_recorder(&rec);
        assert_eq!(m.evaluations, 3);
        assert_eq!(m.route_attempts, 7);
        assert_eq!(m.build_time, rec.span_total(names::BUILD));
        // The embedded blocks derive from the same event stream.
        assert_eq!(m.atpg.blocks_simulated, 5);
        assert_eq!(m.prepare.instances, 4);
        assert_eq!(m.prepare.unique_cores, 2);
        assert_eq!(m.prepare.workers, 8);
        assert_eq!(m.prepare.hscan_time, rec.span_total(names::HSCAN));
        assert_eq!(
            PrepareMetrics::from_recorder(&rec),
            m.prepare,
            "both views read the same slots"
        );
    }
}
