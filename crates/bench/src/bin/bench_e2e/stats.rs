//! Order statistics, the tail-percentile rule, and the regression verdict
//! `compare` prints.

/// Minimum number of samples that must lie beyond a reported tail
/// percentile for it to mean anything.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the middle pair for even counts); NaN for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// First quartile, median and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads here match the ones computed with that module.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    match s.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (s[0], s[0], s[0]),
        ld => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                // Negative after clamping for tiny samples, as in Python.
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (q(1), q(2), q(3))
        }
    }
}

/// Interquartile range as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2.abs()
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`
/// samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).min(n)
}

/// Nearest-rank percentile (`q` in `(0, 1]`); NaN for no samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let s = sorted(values);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Nearest-rank percentile of samples carrying weights: the smallest
/// value whose cumulative weight reaches `q` of the total. With equal
/// weights it is [`percentile`]. NaN for no samples.
pub fn weighted_percentile(values: &[f64], weights: &[f64], q: f64) -> f64 {
    let mut pairs: Vec<(f64, f64)> = values
        .iter()
        .copied()
        .zip(weights.iter().copied())
        .collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: f64 = pairs.iter().map(|p| p.1).sum();
    let mut seen = 0.0;
    for &(v, w) in &pairs {
        seen += w;
        // A relative tolerance, so weights like 1/3 that sum to just
        // under a rank still reach it.
        if seen >= q * total * (1.0 - 1e-12) {
            return v;
        }
    }
    pairs.last().map_or(f64::NAN, |p| p.0)
}

/// Whether a run of `n` samples supports reporting its `q` percentile.
pub fn tail_supported(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= MIN_TAIL_SAMPLES
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Outcome of comparing a change's runs against a parent's runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the parent by more than the bound.
    Ok,
    /// Worse than the parent by more than the bound.
    Regressed,
    /// The parent's own run-to-run spread is wider than the bound, and
    /// the change does not read better on every run.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "OK",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// How much worse the change's median is than the parent's, as a share
/// of the parent's median (negative when it is better).
pub fn worsening(parent: &[f64], change: &[f64], better: Better) -> f64 {
    let (p, c) = (median(parent), median(change));
    let d = match better {
        Better::Lower => c - p,
        Better::Higher => p - c,
    };
    d / p.abs()
}

/// The no-regression rule: a metric whose parent spread exceeds the
/// bound is unresolved unless every change run beats every parent run;
/// otherwise it regressed when its median is worse by more than the
/// bound.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    let beats_all = |c: f64| match better {
        Better::Lower => parent.iter().all(|&p| c < p),
        Better::Higher => parent.iter().all(|&p| c > p),
    };
    if relative_spread(parent) > bound {
        if !change.is_empty() && change.iter().all(|&c| beats_all(c)) {
            return Verdict::Ok;
        }
        return Verdict::Unresolved;
    }
    if worsening(parent, change, better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert!(tail_supported(100, 0.9));
        assert!(!tail_supported(99, 0.9));
        assert!(!tail_supported(999, 0.99));
        assert!(tail_supported(1000, 0.99));
        assert!(tail_supported(20, 0.5));
        assert!(!tail_supported(19, 0.5));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn weighted_percentile_counts_each_group_once() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let ones = vec![1.0; 100];
        for q in [0.1, 0.5, 0.9, 1.0] {
            assert_eq!(weighted_percentile(&v, &ones, q), percentile(&v, q));
        }
        // Input 1 ran three times and inputs 2-4 once: weighting each
        // sample by one over its input's count gives every input one
        // vote, so the median is input 2's time, not input 1's.
        let times = [10.0, 10.0, 10.0, 20.0, 30.0, 40.0];
        let w = [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 1.0, 1.0, 1.0];
        assert_eq!(percentile(&times, 0.5), 10.0);
        assert_eq!(weighted_percentile(&times, &w, 0.25), 10.0);
        assert_eq!(weighted_percentile(&times, &w, 0.5), 20.0);
        assert!(weighted_percentile(&[], &[], 0.5).is_nan());
    }

    #[test]
    fn bound_check_flags_only_real_regressions() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        // 5% slower against a 10% bound: fine.
        let ok = [105.0, 105.5, 104.5, 105.2, 104.8];
        assert_eq!(verdict(&parent, &ok, Better::Lower, 0.10), Verdict::Ok);
        // 20% slower: regressed.
        let slow = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(
            verdict(&parent, &slow, Better::Lower, 0.10),
            Verdict::Regressed
        );
        // Throughput dropping 20% is a regression of a higher-is-better
        // metric; rising 20% is not.
        assert_eq!(
            verdict(&slow, &parent, Better::Higher, 0.10),
            Verdict::Regressed
        );
        assert_eq!(verdict(&parent, &slow, Better::Higher, 0.10), Verdict::Ok);
    }

    #[test]
    fn wide_parent_spread_is_unresolved_unless_every_run_wins() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        let same = [82.0, 101.0, 118.0, 92.0, 108.0];
        assert_eq!(
            verdict(&noisy, &same, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        let all_better = [70.0, 72.0, 71.0, 75.0, 74.0];
        assert_eq!(
            verdict(&noisy, &all_better, Better::Lower, 0.10),
            Verdict::Ok
        );
    }
}
