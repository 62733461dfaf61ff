//! Order statistics of timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spreads this benchmark prints are
//! the ones a reader recomputes from the raw values.

/// Sorted copy of `values` (NaN-free by construction: every value is a
/// measured duration or count).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (the mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, exactly as `statistics.quantiles(values,
/// n=4)` computes them. A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let ld = v.len();
    assert!(ld > 0, "quartiles of no samples");
    if ld == 1 {
        return (v[0], v[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The tail statistic: the highest whole percentile `p` whose
/// nearest-rank sample still has at least `beyond` samples ranked above
/// it. Returns `(p, value)`, or `None` when there are too few samples for
/// any percentile to qualify.
pub fn tail(values: &[f64], beyond: usize) -> Option<(u32, f64)> {
    let v = sorted(values);
    let n = v.len();
    (1..=99u32).rev().find_map(|p| {
        // Nearest rank: the ceil(p·n/100)-th smallest sample (1-based).
        let rank = (p as usize * n).div_ceil(100).max(1);
        (n - rank >= beyond).then(|| (p, v[rank - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 1..=100: p90 is the 90th sample, with exactly ten above it; p91
        // would leave nine.
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&v, 10), Some((90, 90.0)));
        // 40 samples: rank ceil(75·40/100) = 30 leaves ten; p76 → rank 31.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v, 10), Some((75, 30.0)));
        // 11 samples: only the minimum has ten beyond it.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&v, 10), Some((9, 1.0)));
        // Ten or fewer samples: no percentile qualifies.
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&v, 10), None);
    }
}
