//! Order statistics and the parent-versus-change comparison rule.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! "exclusive" method), so spreads printed here match the ones computed
//! by anyone re-checking run files with the standard library.

/// Pairs needed before a gain can be claimed.
pub const MIN_PAIRS: usize = 10;

/// Percentiles the tail rule chooses from, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; NaN for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs)[1]
}

/// `[q1, median, q3]` by the exclusive method of Python's
/// `statistics.quantiles(n=4)`. One value yields itself three times;
/// an empty slice yields NaN.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let d = sorted(xs);
    let n = d.len();
    match n {
        0 => return [f64::NAN; 3],
        1 => return [d[0]; 3],
        _ => {}
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
    }
    out
}

/// Linearly interpolated percentile `p` (0–100).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let d = sorted(xs);
    if d.is_empty() {
        return f64::NAN;
    }
    let pos = p / 100.0 * (d.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    d[lo] + (d[hi] - d[lo]) * (pos - lo as f64)
}

/// The highest percentile with at least ten of `n` samples beyond it
/// (falls back to the median for fewer than twenty samples).
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_CANDIDATES
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .unwrap_or(50.0)
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

impl Better {
    /// Parses the `better` field of `BENCHMARK.json`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// True when `a` is strictly better than `b`.
    fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// Outcome of comparing one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins ≥ 9/10 of ≥ 10 pairs and its median moved by more
    /// than the parent's inter-quartile distance.
    Gain,
    /// The change's median is worse than the parent's by more than the
    /// bound (and, when the parent's spread exceeds the bound, every
    /// change run is worse than every parent run).
    Regression,
    /// The parent's own spread exceeds the bound and the runs overlap, so
    /// a move cannot be told apart from noise.
    Unresolved,
    /// Within the bound, and no gain shown.
    NoChange,
}

impl Verdict {
    /// Lower-case label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
            Verdict::NoChange => "no change",
        }
    }
}

/// One metric compared between parent and change runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// Median of the parent runs.
    pub parent_median: f64,
    /// Median of the change runs.
    pub change_median: f64,
    /// Parent inter-quartile distance as a share of its median.
    pub parent_spread: f64,
    /// Share by which the change's median is worse (negative = better).
    pub worse_by: f64,
    /// Pairs the change won (ties count for neither side).
    pub wins: usize,
    /// Pairs compared: run `i` of the parent against run `i` of the change.
    pub pairs: usize,
    /// The decision.
    pub verdict: Verdict,
}

/// Compares parent and change samples of one metric (one value per run,
/// runs paired by position) against the metric's regression `bound`.
pub fn compare(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Comparison {
    let [pq1, parent_median, pq3] = quartiles(parent);
    let change_median = median(change);
    let parent_spread = (pq3 - pq1) / parent_median.abs();
    let worse_by = match better {
        Better::Lower => change_median - parent_median,
        Better::Higher => parent_median - change_median,
    } / parent_median.abs();
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better.beats(c, p))
        .count();
    let every_change_better = parent
        .iter()
        .all(|&p| change.iter().all(|&c| better.beats(c, p)));
    let every_change_worse = parent
        .iter()
        .all(|&p| change.iter().all(|&c| better.beats(p, c)));
    // A spread wider than the bound hides moves within it, but not a
    // change whose every run lies beyond every parent run.
    let noisy = parent_spread > bound;
    let verdict = if worse_by > bound && (!noisy || every_change_worse) {
        Verdict::Regression
    } else if noisy && !every_change_better {
        Verdict::Unresolved
    } else if pairs >= MIN_PAIRS
        && wins * 10 >= pairs * 9
        && -worse_by * parent_median.abs() > pq3 - pq1
    {
        Verdict::Gain
    } else {
        Verdict::NoChange
    };
    Comparison {
        parent_median,
        change_median,
        parent_spread,
        worse_by,
        wins,
        pairs,
        verdict,
    }
}

/// Failed-op share of a set of runs: `(failed, attempted)` summed.
pub fn failed_frac(runs: &[(u64, u64)]) -> f64 {
    let (failed, attempted) = runs
        .iter()
        .fold((0, 0), |(f, a), &(rf, ra)| (f + rf, a + ra));
    failed as f64 / attempted.max(1) as f64
}

/// A change that fails more of its attempted ops than the parent is a
/// regression whatever its timings say.
pub fn compare_failures(parent: &[(u64, u64)], change: &[(u64, u64)]) -> Verdict {
    if failed_frac(change) > failed_frac(parent) {
        Verdict::Regression
    } else {
        Verdict::NoChange
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic jitter in `[-1, 1]` so synthetic samples look like
    /// repeated measurements.
    fn jitter(i: usize) -> f64 {
        ((i * 7919 % 1000) as f64 / 500.0) - 1.0
    }

    fn samples(center: f64, rel_noise: f64, n: usize, salt: usize) -> Vec<f64> {
        (0..n)
            .map(|i| center * (1.0 + rel_noise * jitter(i * 31 + salt)))
            .collect()
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_interpolates() {
        let xs: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(99), 75.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(3), 50.0);
    }

    #[test]
    fn identical_sets_show_no_change() {
        let p = samples(100.0, 0.02, 10, 0);
        let c = compare(&p, &p, Better::Lower, 0.05);
        assert_eq!(c.verdict, Verdict::NoChange);
        assert_eq!(c.wins, 0, "ties count for neither side");
        assert_eq!(c.worse_by, 0.0);
    }

    #[test]
    fn all_wins_inside_the_parent_iqr_are_not_a_gain() {
        // Every change run beats its pair by 0.5%, but the parent's own
        // quartiles are ~4% apart: the medians do not separate.
        let p = samples(100.0, 0.04, 10, 1);
        let c: Vec<f64> = p.iter().map(|v| v * 0.995).collect();
        let cmp = compare(&p, &c, Better::Lower, 0.10);
        assert_eq!(cmp.wins, 10);
        assert_eq!(cmp.verdict, Verdict::NoChange);
    }

    #[test]
    fn clear_win_is_a_gain_and_one_worse_metric_is_a_regression() {
        let p = samples(100.0, 0.01, 12, 2);
        let faster: Vec<f64> = p.iter().map(|v| v * 0.9).collect();
        assert_eq!(
            compare(&p, &faster, Better::Lower, 0.05).verdict,
            Verdict::Gain
        );
        let higher_tput: Vec<f64> = p.iter().map(|v| v * 1.1).collect();
        assert_eq!(
            compare(&p, &higher_tput, Better::Higher, 0.05).verdict,
            Verdict::Gain
        );
        // The one metric that got 8% worse against a 5% bound.
        let slower: Vec<f64> = p.iter().map(|v| v * 1.08).collect();
        let cmp = compare(&p, &slower, Better::Lower, 0.05);
        assert_eq!(cmp.verdict, Verdict::Regression);
        assert!((cmp.worse_by - 0.08).abs() < 1e-9);
    }

    #[test]
    fn too_few_pairs_cannot_claim_a_gain() {
        let p = samples(100.0, 0.01, 5, 3);
        let c: Vec<f64> = p.iter().map(|v| v * 0.8).collect();
        assert_eq!(
            compare(&p, &c, Better::Lower, 0.05).verdict,
            Verdict::NoChange
        );
    }

    #[test]
    fn spread_wider_than_bound_is_unresolved() {
        let p = samples(100.0, 0.3, 10, 4);
        let c = samples(100.0, 0.3, 10, 5);
        assert_eq!(
            compare(&p, &c, Better::Lower, 0.05).verdict,
            Verdict::Unresolved
        );
        // ...unless every change run beats every parent run...
        let far: Vec<f64> = p.iter().map(|v| v * 0.3).collect();
        assert_ne!(
            compare(&p, &far, Better::Lower, 0.05).verdict,
            Verdict::Unresolved
        );
        // ...or every change run is worse than every parent run.
        let slow: Vec<f64> = p.iter().map(|v| v * 3.0).collect();
        assert_eq!(
            compare(&p, &slow, Better::Lower, 0.05).verdict,
            Verdict::Regression
        );
        assert_eq!(
            compare(&p, &far, Better::Higher, 0.05).verdict,
            Verdict::Regression
        );
    }

    #[test]
    fn a_rise_in_failures_is_a_regression() {
        let parent = [(0, 50), (0, 50)];
        assert_eq!(compare_failures(&parent, &parent), Verdict::NoChange);
        assert_eq!(
            compare_failures(&parent, &[(0, 50), (1, 50)]),
            Verdict::Regression
        );
        assert_eq!(failed_frac(&[(1, 50), (1, 50)]), 0.02);
    }
}
