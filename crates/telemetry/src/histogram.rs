//! Mergeable log-linear histogram with rank-exact percentiles.
//!
//! Layout: values below [`LINEAR_CUTOFF`] get one bucket each (exact);
//! above, each power-of-two octave is split into 64 linear sub-buckets,
//! so a bucket at value `v` spans at most `v/64` — every percentile
//! read-out is exact below 128 and within 1/64 (≈1.6%) relative error
//! above, a sharp improvement over the old 21-bucket log₂ histogram
//! whose p99 could only name a power-of-two upper bound.
//!
//! Merging is plain counter addition, so sharded runs combine into the
//! exact single-run histogram (property-tested in
//! `tests/determinism.rs`).

use serde::{Deserialize, Error, Serialize, Value};

/// Values below this get exact (width-1) buckets.  The first octave of
/// the log-linear region ([64, 128)) also has width-1 sub-buckets, so
/// exactness actually holds below 128.
const LINEAR_CUTOFF: u64 = 64;

/// Sub-buckets per octave above the linear region.
const SUBS: u64 = 64;

/// Mergeable log-linear histogram over `u64` samples (latencies in
/// cycles, queue depths, …).  Tracks count/sum/min/max exactly; the
/// bucket array grows on demand and, by construction, never ends in a
/// zero (so structural equality is semantic equality).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogHistogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Vec<u64>,
}

/// Dense index of the bucket holding `v`.
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_CUTOFF {
        v as usize
    } else {
        let e = 63 - v.leading_zeros() as u64; // 2^e <= v < 2^(e+1), e >= 6
        let major = e - 6;
        let sub = (v >> major) & (SUBS - 1);
        (LINEAR_CUTOFF + major * SUBS + sub) as usize
    }
}

/// Inclusive upper bound of bucket `i` (its lower bound plus width - 1).
fn bucket_high(i: usize) -> u64 {
    let i = i as u64;
    if i < 2 * LINEAR_CUTOFF {
        // Width-1 region: exact buckets below 64 plus the [64,128) octave.
        i
    } else {
        let major = (i - LINEAR_CUTOFF) / SUBS;
        let sub = (i - LINEAR_CUTOFF) % SUBS;
        ((LINEAR_CUTOFF + sub + 1) << major) - 1
    }
}

impl LogHistogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` identical samples in O(1) — the closed form batched
    /// paths use when a whole idle span contributes one repeated value.
    pub(crate) fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = bucket_index(v);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += n;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += n;
        // Saturating: the sum only feeds the mean, and real latencies
        // never approach the limb; percentiles come from the buckets.
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
    }

    /// Adds every sample of `other` into `self`.  Merging shard
    /// histograms this way yields exactly the single-run histogram:
    /// buckets, count, sum, min and max are all plain monoid folds.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (`None` while empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample (`None` while empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of the recorded samples (`None` while empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The value at quantile `q` by rank: the smallest bucket whose
    /// cumulative count reaches `ceil(q · count)`, read out at its
    /// inclusive upper bound clamped to the observed maximum.  Exact
    /// for values below 128 (width-1 buckets); within 1/64 relative
    /// error above.  `None` while empty.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < q <= 1.0`.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(bucket_high(i).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Non-empty buckets as `(inclusive_upper_bound, count)` pairs in
    /// ascending value order — the report/export surface.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (bucket_high(i), n))
    }
}

// The bucket array is sparse in practice (a run's latencies cluster in
// a few octaves), so it serializes as `(index, count)` pairs rather
// than the dense vector; everything else is plain fields.  Hand-written
// because the derive shim has no `with`-style escape hatch.
impl Serialize for LogHistogram {
    fn to_value(&self) -> Value {
        let sparse: Vec<Value> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| Value::Seq(vec![Value::UInt(i as u64), Value::UInt(n)]))
            .collect();
        Value::Map(vec![
            ("count".into(), Value::UInt(self.count)),
            ("sum".into(), Value::UInt(self.sum)),
            ("min".into(), Value::UInt(if self.count > 0 { self.min } else { 0 })),
            ("max".into(), Value::UInt(if self.count > 0 { self.max } else { 0 })),
            ("buckets".into(), Value::Seq(sparse)),
        ])
    }
}

impl Deserialize for LogHistogram {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let field = |k: &str| -> Result<u64, Error> {
            u64::from_value(v.get(k).ok_or_else(|| Error::msg(format!("histogram missing {k}")))?)
        };
        let count = field("count")?;
        let sum = field("sum")?;
        let min = field("min")?;
        let max = field("max")?;
        let Some(Value::Seq(pairs)) = v.get("buckets") else {
            return Err(Error::msg("histogram missing buckets"));
        };
        let mut buckets = Vec::new();
        let mut total = 0u64;
        for p in pairs {
            let Value::Seq(pair) = p else {
                return Err(Error::msg("histogram bucket is not a pair"));
            };
            if pair.len() != 2 {
                return Err(Error::msg("histogram bucket is not a pair"));
            }
            let idx = u64::from_value(&pair[0])? as usize;
            let n = u64::from_value(&pair[1])?;
            if n == 0 {
                return Err(Error::msg("histogram bucket with zero count"));
            }
            if idx >= buckets.len() {
                buckets.resize(idx + 1, 0);
            }
            buckets[idx] += n;
            total += n;
        }
        if total != count {
            return Err(Error::msg("histogram bucket counts disagree with count"));
        }
        Ok(LogHistogram { count, sum, min, max, buckets })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_nothing() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.percentile(0.99), None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn exact_below_128() {
        // Every value below 128 occupies its own bucket: all
        // percentiles are rank-exact values, not bounds.
        let mut h = LogHistogram::new();
        for v in 0..128u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(1.0 / 128.0), Some(0));
        assert_eq!(h.percentile(0.5), Some(63));
        assert_eq!(h.percentile(1.0), Some(127));
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(127));
    }

    #[test]
    fn relative_error_bounded_above_128() {
        for &v in &[129u64, 1000, 4096, 65_537, 1 << 30, u64::MAX / 2] {
            let mut h = LogHistogram::new();
            h.record(v);
            h.record(v * 2);
            let p50 = h.percentile(0.5).unwrap();
            assert!(p50 >= v, "p50 {p50} under-reports {v}");
            assert!(
                (p50 - v) as f64 <= v as f64 / 64.0,
                "p50 {p50} off {v} by more than 1/64"
            );
        }
    }

    #[test]
    fn percentile_clamps_to_observed_max() {
        let mut h = LogHistogram::new();
        for _ in 0..9 {
            h.record(10);
        }
        h.record(900);
        assert_eq!(h.percentile(0.5), Some(10), "rank-exact below 128");
        assert_eq!(h.percentile(0.9), Some(10));
        assert_eq!(h.percentile(1.0), Some(900), "top clamps to max");
    }

    #[test]
    fn record_n_equals_n_records() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record_n(77, 5);
        a.record_n(3000, 2);
        for _ in 0..5 {
            b.record(77);
        }
        b.record(3000);
        b.record(3000);
        assert_eq!(a, b);
    }

    #[test]
    fn merge_equals_single_run() {
        let samples = [1u64, 5, 63, 64, 127, 128, 129, 511, 512, 10_000, 10_001];
        let mut whole = LogHistogram::new();
        let mut left = LogHistogram::new();
        let mut right = LogHistogram::new();
        for (i, &s) in samples.iter().enumerate() {
            whole.record(s);
            if i % 2 == 0 {
                left.record(s);
            } else {
                right.record(s);
            }
        }
        let mut merged = LogHistogram::new();
        merged.merge(&left);
        merged.merge(&right);
        assert_eq!(merged, whole);
        assert_eq!(merged.percentile(0.99), whole.percentile(0.99));
        // Merging an empty histogram is the identity.
        merged.merge(&LogHistogram::new());
        assert_eq!(merged, whole);
    }

    #[test]
    fn serde_roundtrip_preserves_everything() {
        let mut h = LogHistogram::new();
        for &v in &[0u64, 1, 64, 127, 128, 300, 1 << 20] {
            h.record_n(v, v + 1);
        }
        let json = serde_json::to_string(&h).unwrap();
        let back: LogHistogram = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
        let empty = LogHistogram::new();
        let back: LogHistogram =
            serde_json::from_str(&serde_json::to_string(&empty).unwrap()).unwrap();
        assert_eq!(back, empty);
    }

    #[test]
    fn bucket_bounds_cover_and_nest() {
        // Every value lands in a bucket whose inclusive bound is >= it
        // and within the documented error.
        for e in 0..63u32 {
            for &v in &[1u64 << e, (1u64 << e) + 1, (1u64 << e).wrapping_mul(2) - 1] {
                if v == 0 {
                    continue;
                }
                let hi = bucket_high(bucket_index(v));
                assert!(hi >= v, "bound {hi} below value {v}");
                assert!(hi - v <= v / 64, "bound {hi} too loose for {v}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn zero_quantile_panics() {
        LogHistogram::new().percentile(0.0);
    }
}
