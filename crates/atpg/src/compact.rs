//! Static test-set compaction: drop vectors whose faults are all covered
//! by the rest of the set.
//!
//! PODEM-generated sets carry redundancy — early random patterns detect
//! faults later deterministic vectors also catch. Reverse-order fault
//! simulation with fault dropping (the classic static compaction pass)
//! keeps only vectors that detect something no *later-kept* vector does.
//! Shorter precomputed test sets shorten every number downstream: HSCAN
//! test length, per-core episodes, global TAT.

use crate::fault::fault_list;
use crate::fsim::FaultSim;
use crate::tpg::TestSet;
use socet_gate::GateNetlist;

/// The result of compacting a test set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// Vectors before compaction.
    pub before: usize,
    /// Vectors after compaction.
    pub after: usize,
}

impl CompactionStats {
    /// Fraction of vectors removed, in percent.
    pub fn reduction(&self) -> f64 {
        if self.before == 0 {
            0.0
        } else {
            (self.before - self.after) as f64 / self.before as f64 * 100.0
        }
    }
}

/// Compacts `tests` against `nl` in place, preserving the detected-fault
/// set exactly. Returns the before/after statistics.
///
/// The pass's fault-simulation work is recorded into the thread's
/// installed [`socet_obs`] recorder; [`TestSet::stats`] stays the
/// generating run's snapshot.
///
/// The pass walks the set in reverse generation order (deterministic
/// vectors first, random fill last — later vectors tend to target harder
/// faults and cover more of the easy ones incidentally) and keeps a vector
/// only if it detects a fault nothing kept so far detects.
///
/// # Examples
///
/// ```
/// use socet_gate::{GateKind, GateNetlistBuilder};
/// use socet_atpg::{compact_tests, generate_tests, TpgConfig};
/// let mut b = GateNetlistBuilder::new("and");
/// let x = b.input("x");
/// let y = b.input("y");
/// let z = b.gate2(GateKind::And2, x, y);
/// b.output("z", z);
/// let nl = b.build()?;
/// let mut tests = generate_tests(&nl, &TpgConfig::default());
/// let before_cov = tests.coverage.detected;
/// let stats = compact_tests(&nl, &mut tests);
/// assert!(stats.after <= stats.before);
/// assert_eq!(tests.coverage.detected, before_cov, "coverage preserved");
/// # Ok::<(), socet_gate::GateError>(())
/// ```
pub fn compact_tests(nl: &GateNetlist, tests: &mut TestSet) -> CompactionStats {
    let faults = fault_list(nl);
    let mut sim = FaultSim::new(nl);
    let before = tests.patterns.len();

    // Which faults does the full set detect? (The preserved target.)
    let full = sim.detected(&faults, &tests.patterns);

    // Walk the set backwards in whole 64-lane blocks. Per-pattern
    // detection masks replay the greedy keep decision for every vector of
    // a block from one packed simulation, instead of burning a block on
    // each vector; a fault's single-vector verdict does not depend on
    // which other faults are already covered, so the decisions are
    // identical to the one-at-a-time pass.
    let mut keep = vec![false; before];
    let mut covered = vec![false; faults.len()];
    let mut masks = vec![0u64; faults.len()];
    let mut end = before;
    'outer: while end > 0 && covered != full {
        let start = end.saturating_sub(64);
        let block = &tests.patterns[start..end];
        sim.detection_masks(&faults, block, &covered, &mut masks);
        for k in (0..block.len()).rev() {
            let useful = masks
                .iter()
                .zip(&covered)
                .any(|(m, c)| !*c && *m >> k & 1 != 0);
            if useful {
                keep[start + k] = true;
                for (c, m) in covered.iter_mut().zip(&masks) {
                    *c |= *m >> k & 1 != 0;
                }
                if covered == full {
                    break 'outer;
                }
            }
        }
        end = start;
    }
    let mut k = 0;
    tests.patterns.retain(|_| {
        k += 1;
        keep[k - 1]
    });
    // Coverage bookkeeping is unchanged by construction; assert in debug.
    debug_assert_eq!(sim.detected(&faults, &tests.patterns), full);
    CompactionStats {
        before,
        after: tests.patterns.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpg::{generate_tests, TpgConfig};
    use socet_gate::{GateKind, GateNetlistBuilder};
    use socet_obs::{Counter, Recorder};

    fn adder4() -> GateNetlist {
        let mut b = GateNetlistBuilder::new("add4");
        let mut carry = b.const0();
        let mut sums = Vec::new();
        for i in 0..4 {
            let x = b.input(&format!("a{i}"));
            let y = b.input(&format!("b{i}"));
            let p = b.gate2(GateKind::Xor2, x, y);
            let s = b.gate2(GateKind::Xor2, p, carry);
            let g1 = b.gate2(GateKind::And2, x, y);
            let g2 = b.gate2(GateKind::And2, p, carry);
            carry = b.gate2(GateKind::Or2, g1, g2);
            sums.push(s);
        }
        for (i, s) in sums.iter().enumerate() {
            b.output(&format!("s{i}"), *s);
        }
        b.output("cout", carry);
        b.build().unwrap()
    }

    #[test]
    fn compaction_preserves_coverage() {
        let nl = adder4();
        let mut tests = generate_tests(&nl, &TpgConfig::default());
        let faults = fault_list(&nl);
        let mut sim = FaultSim::new(&nl);
        let before = sim.detected(&faults, &tests.patterns);
        let stats = compact_tests(&nl, &mut tests);
        let after = sim.detected(&faults, &tests.patterns);
        assert_eq!(before, after);
        assert_eq!(stats.after, tests.patterns.len());
        assert!(stats.after <= stats.before);
    }

    #[test]
    fn compaction_actually_shrinks_redundant_sets() {
        let nl = adder4();
        let mut tests = generate_tests(&nl, &TpgConfig::default());
        // Duplicate the whole set: half of it is trivially redundant.
        let dup: Vec<_> = tests.patterns.clone();
        tests.patterns.extend(dup);
        let stats = compact_tests(&nl, &mut tests);
        assert!(
            stats.after * 2 <= stats.before + 1,
            "{} -> {}",
            stats.before,
            stats.after
        );
        assert!(stats.reduction() > 40.0);
    }

    #[test]
    fn empty_set_is_a_noop() {
        let nl = adder4();
        let mut tests = generate_tests(&nl, &TpgConfig::default());
        tests.patterns.clear();
        let stats = compact_tests(&nl, &mut tests);
        assert_eq!(stats.before, 0);
        assert_eq!(stats.after, 0);
        assert_eq!(stats.reduction(), 0.0);
    }

    #[test]
    fn compaction_records_into_the_installed_recorder() {
        let nl = adder4();
        let mut tests = generate_tests(&nl, &TpgConfig::default());
        let generated = tests.stats;
        let mut rec = Recorder::new();
        {
            let _sink = rec.install();
            compact_tests(&nl, &mut tests);
        }
        assert!(rec.counter(Counter::BlocksSimulated) > 0);
        assert!(rec.counter(Counter::ConeGateEvals) > 0);
        assert_eq!(tests.stats, generated, "stats stay the generation snapshot");
    }

    #[test]
    fn compaction_is_idempotent() {
        let nl = adder4();
        let mut tests = generate_tests(&nl, &TpgConfig::default());
        compact_tests(&nl, &mut tests);
        let once = tests.patterns.clone();
        compact_tests(&nl, &mut tests);
        assert_eq!(once, tests.patterns);
    }
}
