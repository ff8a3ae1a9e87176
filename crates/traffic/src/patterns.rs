//! Classic synthetic permutation patterns.
//!
//! Beyond the paper's uniform random workload, the NoC literature
//! exercises interconnects with adversarial permutations.  They are
//! included for the extended evaluation and the ablation benches.

use rand::counter::StreamKey;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::injection::{InjectionProcess, InjectionSampler};
use crate::{Endpoint, MessageKind, TrafficEvent, Workload};

/// A destination function over core indices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum TrafficPattern {
    /// Bit-complement: core `i` sends to `!i` (mod cores).
    BitComplement,
    /// Bit-reverse over the index width.
    BitReverse,
    /// Transpose of the square core matrix.
    Transpose,
    /// Perfect shuffle (rotate index bits left by one).
    Shuffle,
    /// Everyone sends to a fixed set of hotspot cores with probability
    /// `fraction`, else uniform random.
    Hotspot {
        /// The hotspot cores.
        spots: Vec<usize>,
        /// Probability of addressing a hotspot.
        fraction: f64,
    },
    /// Neighbour traffic: core `i` sends to `i + 1` (mod cores).
    Neighbor,
}

impl TrafficPattern {
    /// Index width in bits for a system of `cores` cores.
    fn bits(cores: usize) -> u32 {
        usize::BITS - (cores - 1).leading_zeros()
    }

    /// Destination core for `src` in a `cores`-core system.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is not a power of two for the bit-permutation
    /// patterns, or if a hotspot index is out of range.
    pub fn dest<R: Rng>(&self, src: usize, cores: usize, rng: &mut R) -> usize {
        let pow2 = cores.is_power_of_two();
        let d = match self {
            TrafficPattern::BitComplement => {
                assert!(pow2, "bit-complement needs a power-of-two core count");
                !src & (cores - 1)
            }
            TrafficPattern::BitReverse => {
                assert!(pow2, "bit-reverse needs a power-of-two core count");
                let b = Self::bits(cores);
                (src.reverse_bits() >> (usize::BITS - b)) & (cores - 1)
            }
            TrafficPattern::Transpose => {
                let side = (cores as f64).sqrt() as usize;
                assert_eq!(side * side, cores, "transpose needs a square core count");
                let (x, y) = (src % side, src / side);
                x * side + y
            }
            TrafficPattern::Shuffle => {
                assert!(pow2, "shuffle needs a power-of-two core count");
                let b = Self::bits(cores);
                ((src << 1) | (src >> (b - 1))) & (cores - 1)
            }
            TrafficPattern::Hotspot { spots, fraction } => {
                assert!(spots.iter().all(|&s| s < cores), "hotspot out of range");
                if rng.gen::<f64>() < *fraction {
                    spots[rng.gen_range(0..spots.len())]
                } else {
                    let mut d = rng.gen_range(0..cores - 1);
                    if d >= src {
                        d += 1;
                    }
                    d
                }
            }
            TrafficPattern::Neighbor => (src + 1) % cores,
        };
        d.min(cores - 1)
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            TrafficPattern::BitComplement => "bit-complement",
            TrafficPattern::BitReverse => "bit-reverse",
            TrafficPattern::Transpose => "transpose",
            TrafficPattern::Shuffle => "shuffle",
            TrafficPattern::Hotspot { .. } => "hotspot",
            TrafficPattern::Neighbor => "neighbor",
        }
    }
}

/// A [`Workload`] that drives a [`TrafficPattern`] with an injection
/// process and a memory-access fraction (memory picks stacks uniformly,
/// as in the paper's workload).
///
/// Like [`crate::UniformRandom`], generation is counter-based per
/// `(core, cycle)`, so the workload supports exact
/// [`Workload::next_event_at`] answers and idle fast-forward.
#[derive(Debug, Clone)]
pub struct PatternWorkload {
    pattern: TrafficPattern,
    cores: usize,
    stacks: usize,
    memory_fraction: f64,
    sampler: InjectionSampler,
    packet_flits: u32,
    /// Per-core destination stream keys (see [`crate::UniformRandom`]).
    keys: Vec<StreamKey>,
    /// Reusable fire-set buffer.
    fired: Vec<usize>,
    name: String,
}

impl PatternWorkload {
    /// Creates a pattern-driven workload.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters (see [`TrafficPattern::dest`] and
    /// [`InjectionProcess::validate`]).
    pub fn new(
        pattern: TrafficPattern,
        cores: usize,
        stacks: usize,
        memory_fraction: f64,
        injection: InjectionProcess,
        packet_flits: u32,
        seed: u64,
    ) -> Self {
        assert!(cores >= 2 && stacks > 0 && packet_flits > 0);
        assert!((0.0..=1.0).contains(&memory_fraction));
        injection.validate();
        let name = format!("{} ({:.0}% memory)", pattern.label(), memory_fraction * 100.0);
        PatternWorkload {
            pattern,
            cores,
            stacks,
            memory_fraction,
            sampler: InjectionSampler::new(injection, cores, seed),
            packet_flits,
            keys: (0..cores as u64).map(|c| StreamKey::new(seed, c)).collect(),
            fired: Vec::with_capacity(cores),
            name,
        }
    }

    /// The one generation body (see `UniformRandom::fill`): a core
    /// `full` reports is passed over before it draws.
    #[inline]
    fn fill(&mut self, now: u64, full: impl Fn(usize) -> bool, out: &mut Vec<TrafficEvent>) {
        let mut fired = std::mem::take(&mut self.fired);
        self.sampler.for_each_fire(now, &mut fired, |core| {
            if full(core) {
                return;
            }
            // Each firing core draws destinations from its own
            // (core, cycle) stream.
            let mut rng = self.keys[core].rng(now);
            let (dest, kind) = if rng.gen::<f64>() < self.memory_fraction {
                (
                    Endpoint::Memory(rng.gen_range(0..self.stacks)),
                    MessageKind::Oneway,
                )
            } else {
                let d = self.pattern.dest(core, self.cores, &mut rng);
                if d == core {
                    return; // fixed points of the permutation stay local
                }
                (Endpoint::Core(d), MessageKind::Oneway)
            };
            out.push(TrafficEvent {
                cycle: now,
                src: Endpoint::Core(core),
                dest,
                flits: self.packet_flits,
                kind,
            });
        });
        self.fired = fired;
    }
}

impl Workload for PatternWorkload {
    fn generate_into(
        &mut self,
        now: u64,
        full: &dyn Fn(usize) -> bool,
        out: &mut Vec<TrafficEvent>,
    ) {
        out.clear();
        self.fill(now, full, out);
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn shape(&self) -> (usize, usize) {
        (self.cores, self.stacks)
    }

    fn next_event_at(&self, now: u64) -> Option<u64> {
        // Sound even though permutation fixed points may drop a firing
        // core's event: next_fire_at returns the first cycle any core
        // *fires*, which can only be earlier than (or equal to) the
        // first cycle any event survives the fixed-point filter.
        Some(self.sampler.next_fire_at(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> rand::rngs::SmallRng {
        use rand::SeedableRng;
        rand::rngs::SmallRng::seed_from_u64(3)
    }

    #[test]
    fn bit_complement_is_an_involution() {
        let p = TrafficPattern::BitComplement;
        let mut r = rng();
        for src in 0..64 {
            let d = p.dest(src, 64, &mut r);
            assert_eq!(p.dest(d, 64, &mut r), src);
        }
        assert_eq!(p.dest(0, 64, &mut r), 63);
    }

    #[test]
    fn transpose_mirrors_the_matrix() {
        let p = TrafficPattern::Transpose;
        let mut r = rng();
        // 8x8 matrix: (x=1, y=0) -> (x=0, y=1).
        assert_eq!(p.dest(1, 64, &mut r), 8);
        assert_eq!(p.dest(8, 64, &mut r), 1);
        // Diagonal cores are fixed points.
        assert_eq!(p.dest(9, 64, &mut r), 9);
    }

    #[test]
    fn bit_reverse_and_shuffle_permute() {
        let mut r = rng();
        for p in [TrafficPattern::BitReverse, TrafficPattern::Shuffle] {
            let mut dests: Vec<_> = (0..64).map(|s| p.dest(s, 64, &mut r)).collect();
            dests.sort_unstable();
            dests.dedup();
            assert_eq!(dests.len(), 64, "{} must be a permutation", p.label());
        }
    }

    #[test]
    fn hotspot_concentrates_traffic() {
        let p = TrafficPattern::Hotspot { spots: vec![0, 1], fraction: 0.8 };
        let mut r = rng();
        let hits = (0..10_000)
            .filter(|_| p.dest(32, 64, &mut r) <= 1)
            .count();
        // ~80% plus the uniform share landing on 0/1.
        assert!(hits > 7_500, "got {hits}");
    }

    #[test]
    fn neighbor_wraps() {
        let p = TrafficPattern::Neighbor;
        let mut r = rng();
        assert_eq!(p.dest(63, 64, &mut r), 0);
        assert_eq!(p.dest(5, 64, &mut r), 6);
    }

    #[test]
    fn pattern_workload_generates_valid_events() {
        let mut w = PatternWorkload::new(
            TrafficPattern::Transpose,
            64,
            4,
            0.2,
            InjectionProcess::Bernoulli { rate: 0.5 },
            64,
            11,
        );
        let mut any = false;
        for now in 0..50 {
            for e in w.generate(now) {
                any = true;
                let Endpoint::Core(s) = e.src else { panic!() };
                if let Endpoint::Core(d) = e.dest {
                    assert_ne!(s, d);
                }
            }
        }
        assert!(any);
        assert_eq!(w.shape(), (64, 4));
    }

    #[test]
    #[should_panic]
    fn transpose_rejects_non_square() {
        TrafficPattern::Transpose.dest(0, 48, &mut rng());
    }
}
