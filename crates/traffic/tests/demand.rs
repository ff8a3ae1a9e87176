//! Demand-driven generation against plain generation.
//!
//! [`Workload::generate_into`] lets a caller name the cores whose
//! source queue is full, and the counter-based generators answer by not
//! drawing for those cores at all.  The contract is that nothing else
//! may change: the hinted call returns exactly what
//! [`Workload::generate`] returns with the full cores' events removed,
//! event for event, and — like `generate` itself
//! (`uniform::tests::generate_is_history_free`) — it is a pure function
//! of the queried cycle, whatever was asked before and with whatever
//! hint.
//!
//! Seeded mutation these properties were seen to catch: drawing every
//! core of a cycle from **one** rng (`self.keys[0].rng(now)` hoisted out
//! of the per-core closure in `UniformRandom::fill`) instead of one
//! `(core, cycle)` stream each.  `generate` is still deterministic then,
//! but a skipped core no longer consumes its draws, so the next core's
//! destination shifts: both properties fail on their first case whose
//! full set passes over a firing core (cases 5 and 1 of 96).

use proptest::prelude::*;

use wimnet_traffic::patterns::PatternWorkload;
use wimnet_traffic::{
    Endpoint, InjectionProcess, TrafficEvent, TrafficPattern, UniformRandom, Workload,
};

/// 64 cores: a power of two and a square, so every pattern applies,
/// and a `u64` names any set of cores.
const CORES: usize = 64;
const STACKS: usize = 4;

/// Every counter-based workload configuration under test, by index.
const SHAPES: usize = 10;

fn workload(shape: usize, injection: InjectionProcess, seed: u64) -> Box<dyn Workload> {
    let uniform = || UniformRandom::new(CORES, STACKS, 0.3, injection, 8, seed);
    let pattern =
        |p: TrafficPattern| Box::new(PatternWorkload::new(p, CORES, STACKS, 0.2, injection, 8, seed));
    match shape {
        0 => Box::new(uniform()),
        1 => Box::new(uniform().with_memory_affinity(0.6, (0..CORES).map(|c| c % STACKS).collect())),
        2 => Box::new(uniform().with_memory_reads(0.5, 2)),
        3 => Box::new(
            uniform()
                .with_memory_affinity(0.4, (0..CORES).map(|c| c / 16).collect())
                .with_memory_reads(1.0, 1),
        ),
        4 => pattern(TrafficPattern::BitComplement),
        5 => pattern(TrafficPattern::BitReverse),
        6 => pattern(TrafficPattern::Transpose),
        7 => pattern(TrafficPattern::Shuffle),
        8 => pattern(TrafficPattern::Hotspot { spots: vec![3, 40], fraction: 0.5 }),
        9 => pattern(TrafficPattern::Neighbor),
        _ => unreachable!("shape index below SHAPES"),
    }
}

/// The injection processes under test: saturation, a unit rate, and
/// Bernoulli rates on both sides of the sampler's sparse / dense split.
fn injection(kind: usize, rate: f64) -> InjectionProcess {
    match kind {
        0 => InjectionProcess::Saturation,
        1 => InjectionProcess::Bernoulli { rate: 1.0 },
        2 => InjectionProcess::Bernoulli { rate: rate * 0.05 },
        _ => InjectionProcess::Bernoulli { rate },
    }
}

/// A set of full cores: none, all, or a random one (sparser when the
/// two words are and-ed).
fn full_set(kind: usize, a: u64, b: u64) -> u64 {
    match kind {
        0 => 0,
        1 => u64::MAX,
        2 => a & b,
        _ => a,
    }
}

fn is_full(set: u64) -> impl Fn(usize) -> bool {
    move |core| set >> core & 1 == 1
}

/// What the contract allows at most: `generate(now)` of a fresh
/// workload without the full cores' events.
fn plain_filtered(w: &mut dyn Workload, now: u64, set: u64) -> Vec<TrafficEvent> {
    let full = is_full(set);
    w.generate(now)
        .into_iter()
        .filter(|e| !matches!(e.src, Endpoint::Core(c) if full(c)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn a_hinted_cycle_is_the_plain_cycle_filtered(
        shape in 0usize..SHAPES,
        process in (0usize..4, 0.0f64..1.0),
        seed in any::<u64>(),
        start in 0u64..1_000_000,
        sets in collection::vec((0usize..4, any::<u64>(), any::<u64>()), 1..12),
    ) {
        let injection = injection(process.0, process.1);
        let mut hinted = workload(shape, injection, seed);
        let mut plain = workload(shape, injection, seed);
        let mut out = vec![];
        for (i, &(kind, a, b)) in sets.iter().enumerate() {
            let now = start + i as u64;
            let set = full_set(kind, a, b);
            hinted.generate_into(now, &is_full(set), &mut out);
            prop_assert_eq!(&out, &plain_filtered(plain.as_mut(), now, set), "cycle {}", now);
        }
    }

    #[test]
    fn hinted_generation_is_history_free(
        shape in 0usize..SHAPES,
        process in (0usize..4, 0.0f64..1.0),
        seed in any::<u64>(),
        queries in collection::vec((0u64..4_000, 0usize..4, any::<u64>(), any::<u64>()), 1..24),
    ) {
        // One long-lived workload is asked about cycles in any order,
        // repeats included, under a different hint each time; every
        // answer must be the one a workload that has never been asked
        // anything gives, and `generate` on the long-lived one must not
        // have been disturbed by the hinted calls before it.
        let injection = injection(process.0, process.1);
        let mut lived = workload(shape, injection, seed);
        let mut out = vec![];
        for &(now, kind, a, b) in &queries {
            let set = full_set(kind, a, b);
            lived.generate_into(now, &is_full(set), &mut out);
            let mut fresh = workload(shape, injection, seed);
            prop_assert_eq!(&out, &plain_filtered(fresh.as_mut(), now, set), "cycle {}", now);
            prop_assert_eq!(lived.generate(now), fresh.generate(now), "plain cycle {}", now);
        }
    }
}

/// The provided method: a workload that only implements `generate`
/// answers `generate_into` with all of it, whatever the hint says (the
/// contract allows omission, it never requires it), into a cleared
/// buffer.
#[test]
fn the_default_ignores_the_hint_and_clears_the_buffer() {
    struct Plain(UniformRandom);
    impl Workload for Plain {
        fn generate(&mut self, now: u64) -> Vec<TrafficEvent> {
            self.0.generate(now)
        }
        fn name(&self) -> &str {
            "plain"
        }
        fn shape(&self) -> (usize, usize) {
            self.0.shape()
        }
    }
    let uniform = || UniformRandom::new(CORES, STACKS, 0.3, InjectionProcess::Saturation, 8, 5);
    let mut w = Plain(uniform());
    let mut out = uniform().generate(0);
    w.generate_into(7, &|_| true, &mut out);
    assert_eq!(out, uniform().generate(7));
    assert_eq!(out.len(), CORES);
}
