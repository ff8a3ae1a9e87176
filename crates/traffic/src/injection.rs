//! Packet injection processes.
//!
//! Injection draws are **counter-based**: which cores fire at a cycle
//! is a pure function of `(seed, cycle)` (a stateless hash,
//! [`rand::counter`]), not a walk of sequential RNG state.  That is
//! what makes `InjectionSampler::next_fire_at` sound — the next
//! firing cycle can be computed without drawing (or skipping)
//! anything, so the simulation driver may fast-forward over quiet
//! stretches of a Bernoulli workload and still produce the
//! bit-identical event stream.
//!
//! The draw is **cycle-major**: one hash of the cycle index decides
//! how many cores fire (a Binomial(n, p) inverse-CDF lookup) and a
//! uniform subset decides which.  That factorisation is
//! distributionally identical to `n` independent Bernoulli(p) coins —
//! `K ~ Binomial(n, p)` plus a uniform `K`-subset *is* the product
//! Bernoulli law — but it prices a quiet cycle at a single mixer draw
//! instead of `n`, which is what lets `next_fire_at` scan thousands of
//! idle cycles for the cost of generating one.  See `docs/sweeps.md`
//! for the full soundness argument.

use rand::counter::{unit_f64, CounterRng, StreamKey};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Cycles [`InjectionSampler::next_fire_at`] scans before giving a
/// conservative bound.  The bound is still sound (no fire happens
/// before it) and the driver simply asks again from there, so the cap
/// only limits the cost of one query at astronomically low rates.
const SCAN_HORIZON: u64 = 65_536;

/// The stream id of the cycle-major draw.  Per-core streams use the
/// core index; `u64::MAX` can never collide with one.
const CYCLE_STREAM: u64 = u64::MAX;

/// The stream id of the event-indexed geometric-gap draw
/// ([`GeometricGaps`]); distinct from every per-core stream and from
/// [`CYCLE_STREAM`].
const GEOMETRIC_STREAM: u64 = u64::MAX - 1;

/// When sources create packets.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum InjectionProcess {
    /// Each core flips an independent coin every cycle: inject with
    /// probability `rate` (packets/core/cycle) — the paper's load sweep
    /// in Fig 3 uses exactly this open-loop process.
    Bernoulli {
        /// Packets per core per cycle, in `[0, 1]`.
        rate: f64,
    },
    /// Maximum load: every core offers a packet every cycle (the
    /// saturation measurement behind "peak achievable bandwidth").
    Saturation,
}

impl InjectionProcess {
    /// The offered load in packets/core/cycle.
    pub(crate) fn offered_load(&self) -> f64 {
        match *self {
            InjectionProcess::Bernoulli { rate } => rate,
            InjectionProcess::Saturation => 1.0,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if a Bernoulli rate lies outside `[0, 1]`.
    pub fn validate(&self) {
        if let InjectionProcess::Bernoulli { rate } = *self {
            assert!(
                (0.0..=1.0).contains(&rate),
                "injection rate {rate} outside [0, 1]"
            );
        }
    }
}

/// A compiled, seeded injection process over `cores` cores: answers
/// "who fires at cycle `t`?" and "when is the next fire ≥ `t`?" as
/// pure functions of the cycle index.
#[derive(Debug, Clone)]
pub struct InjectionSampler {
    process: InjectionProcess,
    cores: usize,
    /// The cycle-major draw stream.
    cycle_key: StreamKey,
    /// `P(no core fires)` = `(1 − rate)^cores`, the single-compare
    /// answer for a quiet cycle (1.0 for a zero rate, 0.0 for
    /// saturation).  Two f64 edge regimes are handled explicitly:
    ///
    /// * underflow to exactly `0.0` (`cores · ln(1 − rate) < ~−745`)
    ///   switches [`InjectionSampler::fires_at_into`] to a per-coin
    ///   fallback, because the Binomial pmf recurrence cannot start
    ///   from a flushed zero;
    /// * rounding to exactly `1.0` (rates below ~2⁻⁵³/cores) makes the
    ///   rate *effectively zero at f64 granularity*: the sampler
    ///   consistently reports no fires ever ([`InjectionSampler::next_fire_at`]
    ///   returns `u64::MAX` without scanning), which is within
    ///   statistical tolerance of any such rate.
    p_none: f64,
}

impl InjectionSampler {
    /// Compiles `process` for a system of `cores` cores under `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0` or the process fails
    /// [`InjectionProcess::validate`].
    pub fn new(process: InjectionProcess, cores: usize, seed: u64) -> Self {
        assert!(cores > 0, "sampler needs at least one core");
        process.validate();
        let p_none = match process {
            InjectionProcess::Bernoulli { rate } => p_none_of(cores, rate),
            InjectionProcess::Saturation => 0.0,
        };
        InjectionSampler {
            process,
            cores,
            cycle_key: StreamKey::new(seed, CYCLE_STREAM),
            p_none,
        }
    }

    /// The compiled process.
    pub(crate) fn process(&self) -> InjectionProcess {
        self.process
    }

    /// `true` if any core fires at `cycle` — one mixer draw.  In the
    /// underflow regime (`p_none == 0.0` at a positive sub-unit rate)
    /// this is unconditionally `true`: the all-quiet probability is
    /// below 2⁻¹⁰⁷⁴, unobservable in any run, and "may fire" is the
    /// sound direction for the fast-forward contract.
    #[inline]
    pub(crate) fn any_fire_at(&self, cycle: u64) -> bool {
        match self.process {
            InjectionProcess::Saturation => true,
            InjectionProcess::Bernoulli { rate } => {
                rate > 0.0
                    && self.p_none < 1.0
                    && (self.p_none == 0.0
                        || unit_f64(self.cycle_key.draw0(cycle)) >= self.p_none)
            }
        }
    }

    /// The cores firing at `cycle`, pushed onto `out` in increasing
    /// order (`out` is cleared first).  A pure function of the cycle
    /// index: querying any subset of cycles in any order yields the
    /// same sets.
    pub fn fires_at_into(&self, cycle: u64, out: &mut Vec<usize>) {
        out.clear();
        match self.process {
            InjectionProcess::Saturation => out.extend(0..self.cores),
            InjectionProcess::Bernoulli { rate } => {
                if rate <= 0.0 {
                    return;
                }
                if rate >= 1.0 {
                    out.extend(0..self.cores);
                    return;
                }
                let mut rng = self.cycle_key.rng(cycle);
                if self.p_none == 0.0 {
                    // Underflow fallback: `(1−p)^n` is not representable,
                    // so the pmf recurrence cannot start.  Flip the n
                    // coins directly on the cycle stream — O(n), but this
                    // regime (n·ln(1−p) < −745) is saturation-adjacent:
                    // fires happen every cycle and scans never run long.
                    for core in 0..self.cores {
                        if rng.gen::<f64>() < rate {
                            out.push(core);
                        }
                    }
                    return;
                }
                // Draw 0 is the same word `any_fire_at` tests: the
                // count comes from inverting the Binomial CDF at it, so
                // `u < p_none  ⟺  k = 0` and the two answers agree.
                let u: f64 = rng.gen();
                if u < self.p_none {
                    return;
                }
                let k = self.binomial_inverse_cdf(u);
                self.uniform_subset(k, &mut rng, out);
            }
        }
    }

    /// `true` when every core fires at every cycle (saturation, a unit
    /// rate).
    pub(crate) fn every_core_fires(&self) -> bool {
        match self.process {
            InjectionProcess::Saturation => true,
            InjectionProcess::Bernoulli { rate } => rate >= 1.0,
        }
    }

    /// Calls `f` with every core firing at `cycle`, in increasing
    /// order — the set [`InjectionSampler::fires_at_into`] would leave
    /// in `scratch`, except that an every-core cycle (saturation, a
    /// unit rate) is walked as a range and never written down.  One
    /// loop with one call of `f`, so a workload's whole per-core body
    /// inlines into it.
    #[inline]
    pub(crate) fn for_each_fire(
        &self,
        cycle: u64,
        scratch: &mut Vec<usize>,
        mut f: impl FnMut(usize),
    ) {
        let (all, listed): (_, &[usize]) = if self.every_core_fires() {
            (0..self.cores, &[])
        } else {
            self.fires_at_into(cycle, scratch);
            (0..0, scratch)
        };
        for core in all.chain(listed.iter().copied()) {
            f(core);
        }
    }

    /// Inverts the Binomial(cores, rate) CDF at `u`; see
    /// [`binomial_inverse_cdf`].
    fn binomial_inverse_cdf(&self, u: f64) -> usize {
        let InjectionProcess::Bernoulli { rate } = self.process else {
            unreachable!("only Bernoulli draws a count");
        };
        binomial_inverse_cdf(self.cores, rate, self.p_none, u)
    }

    /// Uniform `k`-subset of `0..cores`; see [`uniform_subset`].
    fn uniform_subset(&self, k: usize, rng: &mut CounterRng, out: &mut Vec<usize>) {
        uniform_subset(self.cores, k, rng, out);
    }

    /// The earliest cycle `>= from` at which any core fires, or a
    /// sound conservative bound: the returned cycle `c` guarantees no
    /// core fires in `[from, c)`, though `c` itself may be quiet when
    /// the scan horizon was reached (callers re-query from there).
    /// `u64::MAX` means "never" (zero rate).  One mixer draw per
    /// scanned cycle.
    pub(crate) fn next_fire_at(&self, from: u64) -> u64 {
        match self.process {
            InjectionProcess::Saturation => from,
            InjectionProcess::Bernoulli { rate } => {
                if rate <= 0.0 || self.p_none >= 1.0 {
                    // Zero — or effectively zero at f64 granularity
                    // (p_none rounded to 1.0): nothing ever fires, so
                    // don't burn scan cycles proving it.
                    return u64::MAX;
                }
                let horizon = from.saturating_add(SCAN_HORIZON);
                let mut cycle = from;
                while cycle < horizon {
                    if self.any_fire_at(cycle) {
                        return cycle;
                    }
                    cycle += 1;
                }
                horizon
            }
        }
    }
}

/// `P(no core fires)` for `n` independent Bernoulli(`rate`) coins —
/// `(1 − rate)^n`, with the same f64 edge regimes the sampler handles
/// (exact `0.0` on underflow, exact `1.0` for effectively-zero rates).
pub(crate) fn p_none_of(n: usize, rate: f64) -> f64 {
    if rate <= 0.0 {
        return 1.0;
    }
    if rate >= 1.0 {
        return 0.0;
    }
    (1.0 - rate).powi(i32::try_from(n).expect("core count fits i32"))
}

/// Inverts the Binomial(`n`, `rate`) CDF at `u` by walking the pmf
/// recurrence `pmf(k+1) = pmf(k) · (n−k)/(k+1) · p/(1−p)` from
/// `pmf(0) = (1−p)^n` (passed in as `p_none`).  O(k) — and `k` is the
/// number of events the caller must materialise anyway.
pub(crate) fn binomial_inverse_cdf(n: usize, rate: f64, p_none: f64, u: f64) -> usize {
    let ratio = rate / (1.0 - rate);
    let mut pmf = p_none;
    let mut cdf = pmf;
    let mut k = 0usize;
    while u >= cdf && k < n {
        pmf *= (n - k) as f64 / (k + 1) as f64 * ratio;
        cdf += pmf;
        k += 1;
    }
    // Floating-point tail: if rounding kept `cdf` below `u`, every
    // core fired.
    k
}

/// Uniform `k`-subset of `0..n`, sorted ascending into `out` (which is
/// *not* cleared: callers compose).
///
/// Sparse sets (`k² ≤ n`) use Floyd's algorithm — `k` draws, with the
/// membership probe bounded by `k ≤ √n`.  Dense sets use Knuth's
/// selection sampling (Algorithm S) — one draw per candidate index,
/// O(n) total, instead of Floyd's O(k²) linear-scan probes.  Both are
/// exactly uniform; which one runs is a deterministic function of `k`,
/// so the draw stream stays a pure function of the caller's index.
pub(crate) fn uniform_subset(n: usize, k: usize, rng: &mut CounterRng, out: &mut Vec<usize>) {
    debug_assert!(k <= n);
    if k == n {
        out.extend(0..n);
        return;
    }
    if k.saturating_mul(k) <= n {
        for j in (n - k)..n {
            let t = rng.gen_range(0..j + 1);
            if out.contains(&t) {
                out.push(j);
            } else {
                out.push(t);
            }
        }
        out.sort_unstable();
    } else {
        let mut need = k;
        for i in 0..n {
            if need == 0 {
                break;
            }
            let remaining = (n - i) as f64;
            if rng.gen::<f64>() * remaining < need as f64 {
                out.push(i);
                need -= 1;
            }
        }
    }
}

/// The firing subset of `0..n` cores **conditioned on at least one
/// fire**, sorted ascending into `out` (cleared first).
///
/// This is the per-fire-cycle companion of [`GeometricGaps`]: the gap
/// process realises *when* some core fires (the `1 − (1 − rate)^n`
/// any-fire law), and this draw realises *who*, from the Binomial
/// count distribution truncated at `k ≥ 1` plus a uniform `k`-subset —
/// together exactly the product-Bernoulli law conditioned on a
/// non-empty cycle.  The truncation maps a uniform draw onto
/// `[p_none, 1)` before inverting the CDF, so `k = 0` is unreachable.
///
/// In the underflow regime (`(1 − rate)^n` flushes to `0.0`) the count
/// recurrence cannot start; the fallback flips the `n` coins directly
/// and, in the `< 2⁻¹⁰⁰⁰` event that all miss, fires one uniform core
/// so the "fire cycles carry events" invariant holds.
pub(crate) fn conditional_fires(
    n: usize,
    rate: f64,
    rng: &mut CounterRng,
    out: &mut Vec<usize>,
) {
    out.clear();
    debug_assert!(rate > 0.0, "a fire cycle needs a positive rate");
    if rate >= 1.0 {
        out.extend(0..n);
        return;
    }
    let p_none = p_none_of(n, rate);
    if p_none == 0.0 {
        for core in 0..n {
            if rng.gen::<f64>() < rate {
                out.push(core);
            }
        }
        if out.is_empty() {
            out.push(rng.gen_range(0..n));
        }
        return;
    }
    let u = p_none + rng.gen::<f64>() * (1.0 - p_none);
    let k = binomial_inverse_cdf(n, rate, p_none, u).max(1);
    uniform_subset(n, k, rng, out);
}

/// Gaps this far out are reported as "never" ([`u64::MAX`]); beyond any
/// simulated horizon, and keeps the cursor arithmetic overflow-free.
const GAP_NEVER: f64 = 9.2e18; // ~2^63

/// An event-indexed geometric-gap fire process: the O(1)-per-event
/// counterpart of scanning i.i.d. Bernoulli coins cycle by cycle.
///
/// The process fires at cycles `t_1 < t_2 < …` where the gaps
/// `t_{k+1} − t_k` are i.i.d. geometric with per-cycle fire probability
/// `p` — exactly the gap law of a Bernoulli(p) coin per cycle — and
/// each gap is a pure function of `(seed, event ordinal)` via the
/// counter RNG, so the whole event stream is reproducible and
/// independent of how it is consumed.
///
/// `GeometricGaps::next_fire` produces each event with **one** mixer
/// draw and one `ln`, whatever the gap length.  `tests` walk the
/// identical stream one bool per cycle and prove the two walks
/// bit-identical — the same jump-equals-step contract the engine's idle
/// fast-forward keeps.
///
/// **Relation to [`InjectionSampler`]:** the cycle-major sampler keys
/// its coin at cycle `t` by a *hash of `t`*, which gives O(1) random
/// access (`any_fire_at`) but makes first-passage queries
/// (`next_fire_at`) cost one draw per scanned cycle — hash outputs at
/// distinct cycles are independent, so no scan can be skipped.  This
/// process keys the *gap* by event ordinal instead: first-passage is
/// O(1), random access is not.  The two constructions realise the same
/// law from opposite ends; pick by access pattern.  Because their
/// realisations differ, `GeometricGaps` is additive API — the default
/// workloads keep the cycle-major sampler and their fingerprints.
#[derive(Debug, Clone)]
pub(crate) struct GeometricGaps {
    key: StreamKey,
    /// Per-cycle quiet probability `1 − p`.
    p_quiet: f64,
    ln_quiet: f64,
    /// Next gap ordinal to draw.
    event: u64,
    /// The earliest cycle the next fire may land on.
    cursor: u64,
}

impl GeometricGaps {
    /// A geometric-gap process with per-cycle fire probability
    /// `p_fire`, first eligible cycle `start`, on `seed`'s dedicated
    /// gap stream.
    ///
    /// # Panics
    ///
    /// Panics if `p_fire` lies outside `[0, 1]`.
    pub(crate) fn new(seed: u64, p_fire: f64, start: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p_fire),
            "fire probability {p_fire} outside [0, 1]"
        );
        let p_quiet = 1.0 - p_fire;
        GeometricGaps {
            key: StreamKey::new(seed, GEOMETRIC_STREAM),
            p_quiet,
            ln_quiet: p_quiet.ln(),
            event: 0,
            cursor: start,
        }
    }

    /// The gap (≥ 1 cycle) encoded by event ordinal `k`: the geometric
    /// inverse CDF at that ordinal's uniform draw, `u64::MAX` for
    /// "never" (gaps beyond ~2⁶³ cycles, or a zero fire probability).
    /// A pure function of `(seed, k)` — one mixer draw, one `ln`.
    fn gap(&self, k: u64) -> u64 {
        if self.p_quiet >= 1.0 {
            return u64::MAX; // zero rate: nothing ever fires
        }
        if self.p_quiet <= 0.0 {
            return 1; // unit rate: every cycle fires
        }
        let u = unit_f64(self.key.draw0(k));
        // 1 − u is uniform on (0, 1], so the log is finite and ≤ 0;
        // P(gap > m) = P(1 − u < q^m) = q^m — the geometric law of a
        // Bernoulli(1 − q) coin per cycle.
        let x = (1.0 - u).ln() / self.ln_quiet;
        if !x.is_finite() || x >= GAP_NEVER {
            return u64::MAX;
        }
        let k = x.ceil();
        if k < 1.0 {
            1
        } else {
            k as u64
        }
    }

    /// The next fire cycle, or `u64::MAX` when the process never fires
    /// again within any representable horizon.  O(1) per call.
    pub(crate) fn next_fire(&mut self) -> u64 {
        let gap = self.gap(self.event);
        if gap == u64::MAX || self.cursor.checked_add(gap - 1).is_none() {
            // Park the cursor; every later call keeps answering "never"
            // without consuming further events.
            return u64::MAX;
        }
        self.event += 1;
        let fire = self.cursor + (gap - 1);
        self.cursor = fire + 1;
        fire
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fires(s: &InjectionSampler, cycle: u64) -> Vec<usize> {
        let mut v = Vec::new();
        s.fires_at_into(cycle, &mut v);
        v
    }

    #[test]
    fn bernoulli_rate_is_respected_statistically() {
        let s = InjectionSampler::new(InjectionProcess::Bernoulli { rate: 0.3 }, 16, 7);
        let cycles = 20_000u64;
        let total: usize = (0..cycles).map(|t| fires(&s, t).len()).sum();
        let rate = total as f64 / (cycles as f64 * 16.0);
        assert!((rate - 0.3).abs() < 0.01, "observed {rate}");
    }

    #[test]
    fn saturation_always_fires_everyone() {
        let s = InjectionSampler::new(InjectionProcess::Saturation, 8, 7);
        for t in 0..50 {
            assert_eq!(fires(&s, t), (0..8).collect::<Vec<_>>());
            assert!(s.any_fire_at(t));
        }
        assert_eq!(s.next_fire_at(123), 123);
        assert_eq!(s.process().offered_load(), 1.0);
    }

    #[test]
    fn zero_rate_never_fires() {
        let s = InjectionSampler::new(InjectionProcess::Bernoulli { rate: 0.0 }, 8, 7);
        assert!((0..100u64).all(|t| fires(&s, t).is_empty() && !s.any_fire_at(t)));
        assert_eq!(s.next_fire_at(0), u64::MAX);
    }

    #[test]
    fn unit_rate_fires_everyone() {
        let s = InjectionSampler::new(InjectionProcess::Bernoulli { rate: 1.0 }, 8, 7);
        assert_eq!(fires(&s, 3), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn fire_sets_are_sorted_unique_and_in_range() {
        let s = InjectionSampler::new(InjectionProcess::Bernoulli { rate: 0.4 }, 24, 9);
        for t in 0..2_000 {
            let f = fires(&s, t);
            assert!(f.windows(2).all(|w| w[0] < w[1]), "sorted unique: {f:?}");
            assert!(f.iter().all(|&c| c < 24));
        }
    }

    #[test]
    fn any_fire_agrees_with_the_fire_set() {
        let s = InjectionSampler::new(InjectionProcess::Bernoulli { rate: 0.05 }, 16, 11);
        for t in 0..5_000 {
            assert_eq!(s.any_fire_at(t), !fires(&s, t).is_empty(), "cycle {t}");
        }
    }

    #[test]
    fn fires_are_independent_of_query_order() {
        // The counter-based property: answers do not depend on which
        // other cycles were queried, or in what order.
        let s = InjectionSampler::new(InjectionProcess::Bernoulli { rate: 0.2 }, 8, 9);
        let forward: Vec<Vec<usize>> = (0..500u64).map(|t| fires(&s, t)).collect();
        let backward: Vec<Vec<usize>> =
            (0..500u64).rev().map(|t| fires(&s, t)).collect();
        assert_eq!(forward, backward.into_iter().rev().collect::<Vec<_>>());
    }

    #[test]
    fn next_fire_at_matches_brute_force() {
        for seed in [0u64, 1, 0x5177, u64::MAX] {
            let s =
                InjectionSampler::new(InjectionProcess::Bernoulli { rate: 0.01 }, 8, seed);
            let mut from = 0u64;
            for _ in 0..20 {
                let next = s.next_fire_at(from);
                // Nothing fires strictly before `next`.
                for t in from..next.min(from + 10_000) {
                    assert!(
                        fires(&s, t).is_empty(),
                        "seed {seed}: fire before the promised cycle {next}"
                    );
                }
                // And (within the horizon) something fires *at* it.
                if next < from + SCAN_HORIZON {
                    assert!(!fires(&s, next).is_empty());
                }
                from = next + 1;
            }
        }
    }

    #[test]
    fn next_fire_at_caps_the_scan_at_the_horizon() {
        // 1e-9 is representable ((1−p)^1 < 1.0) but far too rare to
        // fire inside one horizon with this seed.
        let s = InjectionSampler::new(InjectionProcess::Bernoulli { rate: 1e-9 }, 1, 1);
        assert_eq!(s.next_fire_at(100), 100 + SCAN_HORIZON);
    }

    #[test]
    fn effectively_zero_rates_report_never_without_scanning() {
        // Below ~2⁻⁵³/cores, (1−rate)^cores rounds to exactly 1.0: the
        // rate is zero at f64 granularity, and the sampler must say so
        // consistently (no fires, no horizon-long scans).
        let s = InjectionSampler::new(InjectionProcess::Bernoulli { rate: 1e-18 }, 1, 1);
        assert_eq!(s.next_fire_at(100), u64::MAX);
        assert!((0..1000u64).all(|t| !s.any_fire_at(t) && fires(&s, t).is_empty()));
    }

    #[test]
    fn underflow_regime_still_samples_bernoulli_per_core() {
        // (1 − 0.99)^160 underflows f64 to exactly 0.0; the sampler
        // must fall back to per-coin draws, not fire all cores always.
        let (n, p) = (160usize, 0.99f64);
        let s = InjectionSampler::new(InjectionProcess::Bernoulli { rate: p }, n, 3);
        let cycles = 3_000u64;
        let counts: Vec<f64> = (0..cycles).map(|t| fires(&s, t).len() as f64).collect();
        let mean = counts.iter().sum::<f64>() / cycles as f64;
        let var = counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>()
            / cycles as f64;
        let expect_mean = n as f64 * p; // 158.4
        assert!((mean - expect_mean).abs() < 0.2, "mean {mean} vs {expect_mean}");
        assert!(var > 0.5, "count variance collapsed: {var}");
        // A balanced rate on a huge system (0.5^2048 == 0.0) too.
        let s = InjectionSampler::new(InjectionProcess::Bernoulli { rate: 0.5 }, 2048, 3);
        let mean = (0..200u64).map(|t| fires(&s, t).len() as f64).sum::<f64>() / 200.0;
        assert!((mean - 1024.0).abs() < 15.0, "mean {mean} vs 1024");
        assert!(s.any_fire_at(0), "any_fire_at stays sound in the fallback regime");
    }

    #[test]
    fn binomial_count_matches_the_binomial_law() {
        // Mean n·p and variance n·p·(1−p) of the per-cycle fire count.
        let (n, p) = (32usize, 0.25f64);
        let s = InjectionSampler::new(InjectionProcess::Bernoulli { rate: p }, n, 5);
        let cycles = 20_000u64;
        let counts: Vec<f64> = (0..cycles).map(|t| fires(&s, t).len() as f64).collect();
        let mean = counts.iter().sum::<f64>() / cycles as f64;
        let var = counts.iter().map(|c| (c - mean).powi(2)).sum::<f64>()
            / cycles as f64;
        let expect_mean = n as f64 * p;
        let expect_var = n as f64 * p * (1.0 - p);
        assert!((mean - expect_mean).abs() < 0.1, "mean {mean} vs {expect_mean}");
        assert!(
            (var - expect_var).abs() < expect_var * 0.05,
            "var {var} vs {expect_var}"
        );
    }

    #[test]
    #[should_panic]
    fn out_of_range_rate_panics() {
        InjectionProcess::Bernoulli { rate: 1.5 }.validate();
    }

    // --- geometric-gap event iterator -------------------------------

    /// Cycle-by-cycle consumer of a [`GeometricGaps`] stream, from the
    /// process's current position: `step()` is called once per cycle and
    /// answers "does the process fire now?".  The reference scan the
    /// O(1) [`GeometricGaps::next_fire`] is tested against.
    struct GeometricGapStepper {
        gaps: GeometricGaps,
        /// Cycles left until the pending fire (0 = no gap drawn yet).
        countdown: u64,
        /// `true` once a gap came back "never".
        exhausted: bool,
    }

    impl GeometricGapStepper {
        fn over(gaps: &GeometricGaps) -> Self {
            GeometricGapStepper { gaps: gaps.clone(), countdown: 0, exhausted: false }
        }

        /// Advances one cycle; `true` when the process fires on it.
        fn step(&mut self) -> bool {
            if self.exhausted {
                return false;
            }
            if self.countdown == 0 {
                let gap = self.gaps.gap(self.gaps.event);
                if gap == u64::MAX {
                    self.exhausted = true;
                    return false;
                }
                self.gaps.event += 1;
                self.countdown = gap;
            }
            self.countdown -= 1;
            self.countdown == 0
        }
    }

    /// The satellite contract: the O(1)-per-event jump walk and the
    /// one-bool-per-cycle scan walk visit bit-identical fire cycles.
    #[test]
    fn geometric_jumps_are_bit_identical_to_the_cycle_scan() {
        for (seed, p, start) in [
            (0u64, 0.5f64, 0u64),
            (7, 0.01, 3),
            (0x5177, 0.2, 1_000),
            (u64::MAX, 0.003, 17),
        ] {
            let mut jump = GeometricGaps::new(seed, p, start);
            let mut step = GeometricGapStepper::over(&jump);
            let horizon = 200_000u64;
            let scanned: Vec<u64> = (start..start + horizon)
                .filter(|_| step.step())
                .collect();
            assert!(!scanned.is_empty(), "seed {seed}: no fires in the horizon");
            let mut jumped = Vec::with_capacity(scanned.len());
            while jumped.len() < scanned.len() {
                let f = jump.next_fire();
                assert!(f < start + horizon, "jump left the scanned window");
                jumped.push(f);
            }
            assert_eq!(jumped, scanned, "seed {seed}, p {p}: walks diverged");
        }
    }

    #[test]
    fn geometric_gap_law_matches_bernoulli_coins() {
        // Mean gap 1/p and the memoryless variance (1 − p)/p².
        let p = 0.05f64;
        let mut g = GeometricGaps::new(11, p, 0);
        let n = 50_000usize;
        let mut prev = None;
        let mut gaps = Vec::with_capacity(n);
        for _ in 0..n {
            let f = g.next_fire();
            if let Some(q) = prev {
                gaps.push((f - q) as f64);
            }
            prev = Some(f);
        }
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|x| (x - mean).powi(2)).sum::<f64>()
            / gaps.len() as f64;
        assert!((mean - 1.0 / p).abs() < 0.25, "mean gap {mean} vs {}", 1.0 / p);
        let expect_var = (1.0 - p) / (p * p);
        assert!(
            (var - expect_var).abs() < expect_var * 0.05,
            "gap variance {var} vs {expect_var}"
        );
    }

    #[test]
    fn geometric_edge_rates() {
        // Unit rate: every cycle fires, starting exactly at `start`.
        let mut g = GeometricGaps::new(3, 1.0, 42);
        assert_eq!(g.next_fire(), 42);
        assert_eq!(g.next_fire(), 43);
        // Zero rate: never fires, repeatedly.
        let mut g = GeometricGaps::new(3, 0.0, 0);
        assert_eq!(g.next_fire(), u64::MAX);
        assert_eq!(g.next_fire(), u64::MAX);
        let mut s = GeometricGapStepper::over(&g);
        assert!((0..100).all(|_| !s.step()));
    }

    #[test]
    fn geometric_stream_is_a_pure_function_of_the_seed() {
        let collect = |seed| {
            let mut g = GeometricGaps::new(seed, 0.1, 5);
            (0..50).map(|_| g.next_fire()).collect::<Vec<_>>()
        };
        assert_eq!(collect(9), collect(9));
        assert_ne!(collect(9), collect(10));
    }

    #[test]
    fn any_fire_of_matches_the_sampler_rate_statistically() {
        // The event rate of the geometric process built from a sampler
        // must match the sampler's empirical any-fire rate: same law,
        // different (independent) realisation.
        let s = InjectionSampler::new(InjectionProcess::Bernoulli { rate: 0.004 }, 64, 7);
        let cycles = 50_000u64;
        let sampler_fires =
            (0..cycles).filter(|&t| s.any_fire_at(t)).count() as f64 / cycles as f64;
        let mut g = GeometricGaps::new(7, 1.0 - s.p_none, 0);
        let mut geo_fires = 0usize;
        loop {
            let f = g.next_fire();
            if f >= cycles {
                break;
            }
            geo_fires += 1;
        }
        let geo_rate = geo_fires as f64 / cycles as f64;
        let p = 1.0 - (1.0 - 0.004f64).powi(64);
        assert!((sampler_fires - p).abs() < 0.01, "sampler rate {sampler_fires} vs {p}");
        assert!((geo_rate - p).abs() < 0.01, "geometric rate {geo_rate} vs {p}");
    }

    #[test]
    #[should_panic]
    fn geometric_rejects_bad_probability() {
        GeometricGaps::new(0, 1.5, 0);
    }
}
