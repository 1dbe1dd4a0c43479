//! Order statistics and the regression verdict.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! exclusive method), because that is what the driver computes over its own
//! runs: a spread printed here is the spread the driver will see.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, exclusive method. Fewer than two samples have
/// no spread: both quartiles are the sample itself.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    assert!(n > 0, "quartiles of no samples");
    if n < 2 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles.
pub fn iqr(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    q3 - q1
}

/// The `p`-th percentile by nearest rank (`p` in 0..=100).
pub fn percentile(xs: &[f64], p: usize) -> f64 {
    let v = sorted(xs);
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = (p * v.len()).div_ceil(100).clamp(1, v.len());
    v[rank - 1]
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Gated value, spread and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The samples' median.
    pub value: f64,
    pub iqr: f64,
    pub n: usize,
    /// Reported only from 100 samples up, so that at least ten lie beyond it.
    pub p90: Option<f64>,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Summary {
        Summary {
            value: median(xs),
            iqr: iqr(xs),
            n: xs.len(),
            p90: (xs.len() >= 100).then(|| percentile(xs, 90)),
        }
    }

    /// Spread as a share of the value.
    pub fn rel_iqr(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            self.iqr / self.value.abs()
        }
    }
}

/// Outcome of comparing one lower-is-better metric on two sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    /// Run-to-run spread on either side is wider than the bound, so a
    /// difference of the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge side `b` against side `a` for a lower-is-better metric whose
/// regression bound is `bound` (a share of `a`'s median). `spread` is the
/// wider of the two sides' run-to-run spreads, also as a share.
pub fn verdict(a: f64, b: f64, spread: f64, bound: f64) -> Verdict {
    if spread > bound {
        return Verdict::Unresolved;
    }
    let rel = if a == 0.0 { 0.0 } else { (b - a) / a.abs() };
    if rel > bound {
        Verdict::Worse
    } else if rel < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
    }

    #[test]
    fn single_sample_has_no_spread() {
        assert_eq!(iqr(&[7.0]), 0.0);
        let s = Summary::of(&[7.0]);
        assert_eq!((s.value, s.iqr, s.n, s.p90), (7.0, 0.0, 1, None));
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(Summary::of(&xs).p90, Some(90.0));
        assert_eq!(Summary::of(&xs[..99]).p90, None);
        assert_eq!(percentile(&xs, 100), 100.0);
        assert_eq!(percentile(&xs, 0), 1.0);
    }

    #[test]
    fn verdict_uses_the_bound_both_ways() {
        assert_eq!(verdict(100.0, 102.0, 0.01, 0.03), Verdict::Unchanged);
        assert_eq!(verdict(100.0, 104.0, 0.01, 0.03), Verdict::Worse);
        assert_eq!(verdict(100.0, 96.0, 0.01, 0.03), Verdict::Better);
        // Exactly on the bound is still within it.
        assert_eq!(verdict(100.0, 103.0, 0.0, 0.03), Verdict::Unchanged);
    }

    #[test]
    fn wide_spread_is_unresolved_whatever_the_difference() {
        assert_eq!(verdict(100.0, 100.0, 0.05, 0.03), Verdict::Unresolved);
        assert_eq!(verdict(100.0, 150.0, 0.05, 0.03), Verdict::Unresolved);
    }

    #[test]
    fn rel_iqr_is_a_share_of_the_median() {
        let s = Summary::of(&[90.0, 100.0, 110.0]);
        assert_eq!(s.value, 100.0);
        assert!((s.rel_iqr() - 0.2).abs() < 1e-12);
    }
}
