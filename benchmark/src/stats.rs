//! Order statistics of a handful of timing samples.

use serde::{Deserialize, Serialize};

/// `n`, extremes and quartiles of one timing's samples, as printed
/// beside every reported time.  Quartiles follow Python's
/// `statistics.quantiles(v, n=4)` (the exclusive method), the estimator
/// the acceptance spread is computed with.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Spread {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Spread {
    /// Summarises `values`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or holds a NaN.
    pub fn of(values: &[f64]) -> Spread {
        assert!(!values.is_empty(), "no samples");
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
        let n = v.len();
        let quantile = |i: usize| {
            if n < 2 {
                return v[0];
            }
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Spread {
            n,
            min: v[0],
            q1: quantile(1),
            median: quantile(2),
            q3: quantile(3),
            max: v[n - 1],
        }
    }

    /// The reported time: the **minimum**.  The host's noise is
    /// one-sided — a neighbour on the shared box slows a stretch of
    /// seconds down and nothing ever speeds one up — so the least
    /// disturbed sample is the steadiest estimate of what the code
    /// costs.  Over 16 back-to-back runs of `loaded_oneway` the sum of
    /// per-point minima spread 2.1 % between quartiles and 13 % between
    /// extremes; the sum of per-point medians 4.1 % and 43 %.
    pub fn best(self) -> f64 {
        self.min
    }

    /// Adds another timing's statistics term by term: a workload's
    /// time is the sum of its points' times, and the statistics of
    /// that sum are taken as the sums of the per-point statistics (for
    /// the quartiles, an upper bound on the sum's own).
    pub fn plus(self, other: Spread) -> Spread {
        Spread {
            n: self.n.min(other.n),
            min: self.min + other.min,
            q1: self.q1 + other.q1,
            median: self.median + other.median,
            q3: self.q3 + other.q3,
            max: self.max + other.max,
        }
    }

    /// The all-zero spread [`Spread::plus`] starts from.
    pub fn zero() -> Spread {
        Spread {
            n: usize::MAX,
            min: 0.0,
            q1: 0.0,
            median: 0.0,
            q3: 0.0,
            max: 0.0,
        }
    }

    /// The statistics of `k / x` for a timing `x` (a rate from a
    /// duration): every term inverted, the order statistics mirrored.
    pub fn reciprocal(self, k: f64) -> Spread {
        Spread {
            n: self.n,
            min: k / self.max,
            q1: k / self.q3,
            median: k / self.median,
            q3: k / self.q1,
            max: k / self.min,
        }
    }

    /// A single exact reading.
    pub fn exact(value: f64) -> Spread {
        Spread {
            n: 1,
            min: value,
            q1: value,
            median: value,
            q3: value,
            max: value,
        }
    }
}

/// [`Spread::best`] of raw samples; 0 when there are none.
pub fn best(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        Spread::of(samples).best()
    }
}

/// `a / b`, or 0 when the denominator is 0 (a layer the workload never
/// entered).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        let s = Spread::of(&[7.0, 1.0, 3.0, 2.0, 6.0, 5.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 4.0, 6.0));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        let s = Spread::of(&[1.0, 2.0, 4.0, 8.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 3.0, 7.0));
        assert_eq!((s.n, s.min, s.max), (4, 1.0, 8.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = Spread::of(&[10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
        assert_eq!(Spread::of(&[3.0]).median, 3.0);
    }

    #[test]
    fn sums_add_term_by_term() {
        let s = Spread::zero()
            .plus(Spread::of(&[1.0, 2.0, 3.0]))
            .plus(Spread::exact(10.0));
        assert_eq!((s.n, s.median, s.min, s.max), (1, 12.0, 11.0, 13.0));
    }
}
