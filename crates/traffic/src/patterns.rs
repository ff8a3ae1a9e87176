//! Classic synthetic permutation patterns.
//!
//! Beyond the paper's uniform random workload, the NoC literature
//! exercises interconnects with adversarial permutations.  They are
//! included for the extended evaluation and the ablation benches, as a
//! destination rule of the one synthetic generator
//! ([`crate::UniformRandom::with_pattern`]).

use rand::Rng;
use serde::{Deserialize, Serialize};

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

    /// Destination core for `src` in a `cores`-core system.  On a core
    /// count that [`TrafficPattern::check`] rejects, and
    /// [`crate::UniformRandom::with_pattern`] therefore refuses, the
    /// result is not the pattern's.
    pub fn dest<R: Rng>(&self, src: usize, cores: usize, rng: &mut R) -> usize {
        let d = match self {
            TrafficPattern::BitComplement => !src & (cores - 1),
            TrafficPattern::BitReverse => {
                let b = Self::bits(cores);
                (src.reverse_bits() >> (usize::BITS - b)) & (cores - 1)
            }
            TrafficPattern::Transpose => {
                let side = (cores as f64).sqrt() as usize;
                let (x, y) = (src % side, src / side);
                x * side + y
            }
            TrafficPattern::Shuffle => {
                let b = Self::bits(cores);
                ((src << 1) | (src >> (b - 1))) & (cores - 1)
            }
            TrafficPattern::Hotspot { spots, fraction } => {
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

    /// Checks that the pattern is defined on `cores` cores.
    ///
    /// # Errors
    ///
    /// A bit permutation on a core count that is not a power of two, a
    /// transpose on one that is not square, or a hotspot out of range.
    pub fn check(&self, cores: usize) -> Result<(), String> {
        let side = (cores as f64).sqrt() as usize;
        let defined = match self {
            TrafficPattern::BitComplement
            | TrafficPattern::BitReverse
            | TrafficPattern::Shuffle => cores.is_power_of_two(),
            TrafficPattern::Transpose => side * side == cores,
            TrafficPattern::Hotspot { spots, .. } => spots.iter().all(|&s| s < cores),
            TrafficPattern::Neighbor => true,
        };
        defined
            .then_some(())
            .ok_or_else(|| format!("{} is not defined on {cores} cores", self.label()))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Endpoint, InjectionProcess, UniformRandom, Workload};

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
        let rate = InjectionProcess::Bernoulli { rate: 0.5 };
        let mut w =
            UniformRandom::new(64, 4, 0.2, rate, 64, 11).with_pattern(TrafficPattern::Transpose);
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
    #[should_panic(expected = "transpose is not defined on 48 cores")]
    fn transpose_rejects_non_square() {
        assert!(TrafficPattern::Transpose.check(64).is_ok());
        let saturation = InjectionProcess::Saturation;
        UniformRandom::new(48, 4, 0.2, saturation, 64, 1).with_pattern(TrafficPattern::Transpose);
    }
}
