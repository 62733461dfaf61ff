//! Output checks that count failures instead of aborting the run.
//!
//! Every operation a workload times is also checked; a failed check — an
//! `Err` from the API, a verify verdict other than PASS, or an output that
//! differs from its reference — is counted against the operations
//! attempted and reported as `ops_failed_frac`, so one bad iteration
//! cannot hide behind a panic or silently skew the timings.

/// Tally of checked operations.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
    /// The first few failure messages, for the log.
    messages: Vec<String>,
}

/// Failure messages kept per run; the count stays exact beyond it.
const KEPT_MESSAGES: usize = 8;

impl Checks {
    /// Counts one operation; `outcome` is `Err(reason)` when it failed.
    pub fn op(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = outcome {
            self.failed += 1;
            if self.messages.len() < KEPT_MESSAGES {
                self.messages.push(format!("{what}: {reason}"));
            }
        }
    }

    /// Operations attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations that failed so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The retained failure messages.
    pub fn messages(&self) -> &[String] {
        &self.messages
    }
}

/// `Ok` when `got == want`, else a message naming both.
pub fn same<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, want {want:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_are_counted_not_raised() {
        let mut c = Checks::default();
        c.op("a", Ok(()));
        c.op("b", same("tat", 3, 4));
        c.op("c", Err("boom".into()));
        assert_eq!((c.attempted(), c.failed()), (3, 2));
        assert!((c.failed_frac() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.messages()[0], "b: tat: got 3, want 4");
    }
}
