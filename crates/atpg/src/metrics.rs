//! The ATPG slice of a recorder's counters.
//!
//! The cone-pruned fault simulator's wins are invisible from its results —
//! detection maps are bit-identical to the naive path by construction — so
//! [`FaultSim`](crate::FaultSim) and
//! [`generate_tests`](crate::generate_tests) count their work into the
//! installed [`socet_obs`] recorder: how many cone gates were actually
//! re-evaluated versus the full-netlist equivalent the seed's simulator
//! would have paid, how many faults were skipped outright because their
//! cone reaches no observable point, and how the random and PODEM phases
//! dropped faults. [`AtpgMetrics`] is a typed view of those counters, used as the
//! per-run snapshot [`TestSet::stats`](crate::TestSet::stats).

use socet_obs::{Counter, Recorder};

/// The ATPG counters of one recorder ([`AtpgMetrics::from_recorder`]):
/// what [`FaultSim`](crate::FaultSim) and
/// [`generate_tests`](crate::generate_tests) recorded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AtpgMetrics {
    /// 64-pattern blocks simulated (one good-machine evaluation each).
    pub blocks_simulated: u64,
    /// Gates re-evaluated inside fault cones.
    pub cone_gate_evals: u64,
    /// Gates the seed's full-netlist resimulation would have evaluated for
    /// the same fault×block work (`live faults × comb gates`); the ratio
    /// against [`AtpgMetrics::cone_gate_evals`] is the pruning win.
    pub full_gate_evals_equiv: u64,
    /// Fault evaluations skipped because the fault's cone reaches no
    /// observable point (no primary output, no flip-flop D input).
    pub faults_skipped_unobservable: u64,
    /// Faults first detected by the random-pattern phase of
    /// [`generate_tests`](crate::generate_tests).
    pub faults_dropped_random: u64,
    /// Faults first detected during the PODEM top-off (the targeted fault
    /// plus everything its random-filled vector drops).
    pub faults_dropped_podem: u64,
    /// Times a PODEM-proven test failed to detect its target fault under
    /// resimulation (the seed silently counted these as detected; now they
    /// trip a `debug_assert!` and are reported honestly).
    pub fill_mask_events: u64,
    /// Worker threads spawned by parallel fault partitioning.
    pub parallel_shards: u64,
}

impl AtpgMetrics {
    /// A zeroed instance.
    pub fn new() -> Self {
        AtpgMetrics::default()
    }

    /// Folds `other` into `self` — used to aggregate per-core snapshots.
    pub fn merge(&mut self, other: &AtpgMetrics) {
        self.blocks_simulated += other.blocks_simulated;
        self.cone_gate_evals += other.cone_gate_evals;
        self.full_gate_evals_equiv += other.full_gate_evals_equiv;
        self.faults_skipped_unobservable += other.faults_skipped_unobservable;
        self.faults_dropped_random += other.faults_dropped_random;
        self.faults_dropped_podem += other.faults_dropped_podem;
        self.fill_mask_events += other.fill_mask_events;
        self.parallel_shards += other.parallel_shards;
    }

    /// The view of one recorder's ATPG counters.
    pub fn from_recorder(rec: &Recorder) -> Self {
        AtpgMetrics {
            blocks_simulated: rec.counter(Counter::BlocksSimulated),
            cone_gate_evals: rec.counter(Counter::ConeGateEvals),
            full_gate_evals_equiv: rec.counter(Counter::FullGateEvalsEquiv),
            faults_skipped_unobservable: rec.counter(Counter::FaultsSkippedUnobservable),
            faults_dropped_random: rec.counter(Counter::FaultsDroppedRandom),
            faults_dropped_podem: rec.counter(Counter::FaultsDroppedPodem),
            fill_mask_events: rec.counter(Counter::FillMaskEvents),
            parallel_shards: rec.counter(Counter::ParallelShards),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_every_counter() {
        let mut a = AtpgMetrics {
            blocks_simulated: 1,
            cone_gate_evals: 2,
            full_gate_evals_equiv: 3,
            faults_skipped_unobservable: 4,
            faults_dropped_random: 5,
            faults_dropped_podem: 6,
            fill_mask_events: 7,
            parallel_shards: 8,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.blocks_simulated, 2);
        assert_eq!(a.cone_gate_evals, 4);
        assert_eq!(a.full_gate_evals_equiv, 6);
        assert_eq!(a.faults_skipped_unobservable, 8);
        assert_eq!(a.faults_dropped_random, 10);
        assert_eq!(a.faults_dropped_podem, 12);
        assert_eq!(a.fill_mask_events, 14);
        assert_eq!(a.parallel_shards, 16);
    }

    #[test]
    fn view_reads_every_counter() {
        let mut rec = Recorder::new();
        for (i, c) in [
            Counter::BlocksSimulated,
            Counter::ConeGateEvals,
            Counter::FullGateEvalsEquiv,
            Counter::FaultsSkippedUnobservable,
            Counter::FaultsDroppedRandom,
            Counter::FaultsDroppedPodem,
            Counter::FillMaskEvents,
            Counter::ParallelShards,
        ]
        .into_iter()
        .enumerate()
        {
            rec.record(c, i as u64 + 1);
        }
        let m = AtpgMetrics::from_recorder(&rec);
        assert_eq!(
            m,
            AtpgMetrics {
                blocks_simulated: 1,
                cone_gate_evals: 2,
                full_gate_evals_equiv: 3,
                faults_skipped_unobservable: 4,
                faults_dropped_random: 5,
                faults_dropped_podem: 6,
                fill_mask_events: 7,
                parallel_shards: 8,
            }
        );
    }
}
