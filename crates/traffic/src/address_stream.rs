//! Deterministic memory address streams.
//!
//! The engine used to synthesize stack addresses from a bare counter,
//! so every stack saw one degenerate sequential walk: row-buffer
//! behaviour collapsed to "almost always hit" and scheduler policy was
//! unobservable.  This module provides the address side of memory
//! workloads as **pure functions of a [`StreamKey`] and the request
//! ordinal** — the same counter-based construction as the injection
//! RNG (`docs/sweeps.md`), so streams are reproducible regardless of
//! arrival timing, sweep order, or pool shape.
//!
//! A stream yields *stack-local block indices*; the engine maps them
//! onto the package-wide interleave (`addr = (block × stacks + stack) ×
//! block_bytes`), which keeps every generated address on the stack it
//! was generated for.  Four generators cover the classic row-buffer
//! regimes:
//!
//! * [`AddressStreamSpec::Sequential`] — consecutive blocks: the old
//!   counter behaviour, maximal row locality;
//! * [`AddressStreamSpec::Strided`] — constant stride in blocks; large
//!   strides defeat the row buffer and expose page-miss timing;
//! * [`AddressStreamSpec::Uniform`] — counter-RNG uniform over a
//!   region: the classic random-access worst case;
//! * [`AddressStreamSpec::HotRow`] — a zipf-like two-level mix: with
//!   probability `hot_fraction` the access lands in a small hot set
//!   (high hit rate), else uniformly in the region — the skewed reuse
//!   real footprints show.
//!
//! **Laws** (tested below): every stream is a pure function of
//! `(seed, stream id, ordinal)` — querying any subset of ordinals in
//! any order yields the same blocks — and each generator keeps its
//! structural promise (consecutiveness, stride spacing, region bounds,
//! hot-set concentration).

use rand::counter::StreamKey;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The stack-local block space every stream draws from: 2⁴⁶ 64-byte
/// blocks (4 EiB) per stack.  Bounding the space keeps the engine's
/// package-interleave mapping (`(block × stacks + stack) × 64`) safely
/// inside `u64` for any plausible stack count; [`AddressStreamSpec::check`]
/// rejects regions beyond it and the walking generators wrap into it.
pub(crate) const MAX_REGION_BLOCKS: u64 = 1 << 46;

/// Which address generator a memory workload drives.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum AddressStreamSpec {
    /// Consecutive stack-local blocks (maximal row-buffer locality —
    /// the legacy engine counter).
    #[default]
    Sequential,
    /// Constant stride in blocks.
    Strided {
        /// Blocks between consecutive accesses (≥ 1).
        stride_blocks: u64,
    },
    /// Uniform random over a region of blocks.
    Uniform {
        /// Region size in blocks (≥ 1).
        region_blocks: u64,
    },
    /// Two-level hot/cold mix: `hot_fraction` of accesses land in the
    /// first `hot_blocks` of the region, the rest uniformly anywhere in
    /// it.
    HotRow {
        /// Region size in blocks (≥ 1).
        region_blocks: u64,
        /// Hot-set size in blocks (≥ 1, ≤ `region_blocks`).
        hot_blocks: u64,
        /// Probability of a hot access, in `[0, 1]`.
        hot_fraction: f64,
    },
}

impl AddressStreamSpec {
    /// A compact label for sweep reports that encodes the parameters,
    /// so two variants of the same family stay distinguishable in
    /// point labels: `"seq"`, `"stride8"`, `"uniform4096"`,
    /// `"hotrow16/4096@0.9"`.
    pub fn label(&self) -> String {
        match *self {
            AddressStreamSpec::Sequential => "seq".to_string(),
            AddressStreamSpec::Strided { stride_blocks } => format!("stride{stride_blocks}"),
            AddressStreamSpec::Uniform { region_blocks } => format!("uniform{region_blocks}"),
            AddressStreamSpec::HotRow { region_blocks, hot_blocks, hot_fraction } => {
                format!("hotrow{hot_blocks}/{region_blocks}@{hot_fraction}")
            }
        }
    }

    /// Checks the parameters, describing the first problem found.
    ///
    /// # Errors
    ///
    /// A zero stride/region/hot set, a hot set larger than its region,
    /// a stride or region beyond the `MAX_REGION_BLOCKS` block
    /// space, or a hot fraction outside `[0, 1]`.
    pub fn check(&self) -> Result<(), String> {
        let bounded = |what: &str, blocks: u64| {
            if blocks < 1 {
                Err(format!("{what} must be at least one block"))
            } else if blocks > MAX_REGION_BLOCKS {
                Err(format!(
                    "{what} of {blocks} blocks exceeds the {MAX_REGION_BLOCKS}-block space"
                ))
            } else {
                Ok(())
            }
        };
        match *self {
            AddressStreamSpec::Sequential => Ok(()),
            AddressStreamSpec::Strided { stride_blocks } => bounded("stride", stride_blocks),
            AddressStreamSpec::Uniform { region_blocks } => bounded("region", region_blocks),
            AddressStreamSpec::HotRow { region_blocks, hot_blocks, hot_fraction } => {
                bounded("region", region_blocks)?;
                if hot_blocks < 1 || hot_blocks > region_blocks {
                    Err("hot set must be non-empty and fit the region".to_string())
                } else if !(0.0..=1.0).contains(&hot_fraction) {
                    Err(format!("hot fraction {hot_fraction} outside [0, 1]"))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Panicking form of [`AddressStreamSpec::check`].
    ///
    /// # Panics
    ///
    /// Panics when the check fails.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("invalid address stream {self:?}: {e}");
        }
    }
}

/// A compiled, seeded address stream (one per stack in the engine).
#[derive(Debug, Clone)]
pub struct AddressStream {
    spec: AddressStreamSpec,
    key: StreamKey,
}

/// The dedicated stream-id offset for address draws, away from the
/// per-core destination streams (small ids) and the injection streams
/// (near `u64::MAX`).
const ADDRESS_STREAM_BASE: u64 = 0xADD7_0000_0000_0000;

impl AddressStream {
    /// Compiles `spec` on `seed`'s address stream `stream` (the engine
    /// passes the stack index).
    ///
    /// # Panics
    ///
    /// Panics if `spec` fails [`AddressStreamSpec::validate`].
    pub fn new(spec: AddressStreamSpec, seed: u64, stream: u64) -> Self {
        spec.validate();
        AddressStream {
            spec,
            key: StreamKey::new(seed, ADDRESS_STREAM_BASE ^ stream),
        }
    }

    /// The compiled spec.
    pub fn spec(&self) -> AddressStreamSpec {
        self.spec
    }

    /// The stack-local block index of request `ordinal` — a pure
    /// function of `(seed, stream, ordinal)`, always inside the
    /// `MAX_REGION_BLOCKS` block space (the walking generators wrap
    /// into it; no real run approaches the boundary).
    pub fn block(&self, ordinal: u64) -> u64 {
        match self.spec {
            AddressStreamSpec::Sequential => ordinal & (MAX_REGION_BLOCKS - 1),
            AddressStreamSpec::Strided { stride_blocks } => {
                ordinal.wrapping_mul(stride_blocks) & (MAX_REGION_BLOCKS - 1)
            }
            AddressStreamSpec::Uniform { region_blocks } => {
                if region_blocks == 1 {
                    0
                } else {
                    self.key.rng(ordinal).gen_range(0..region_blocks)
                }
            }
            AddressStreamSpec::HotRow { region_blocks, hot_blocks, hot_fraction } => {
                let mut rng = self.key.rng(ordinal);
                if rng.gen::<f64>() < hot_fraction {
                    if hot_blocks == 1 {
                        0
                    } else {
                        rng.gen_range(0..hot_blocks)
                    }
                } else if region_blocks == 1 {
                    0
                } else {
                    rng.gen_range(0..region_blocks)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_reproduces_the_legacy_counter() {
        let s = AddressStream::new(AddressStreamSpec::Sequential, 7, 0);
        for i in 0..100 {
            assert_eq!(s.block(i), i);
        }
    }

    #[test]
    fn strided_keeps_its_spacing() {
        let s = AddressStream::new(AddressStreamSpec::Strided { stride_blocks: 96 }, 7, 2);
        for i in 0..100 {
            assert_eq!(s.block(i + 1) - s.block(i), 96);
        }
    }

    #[test]
    fn uniform_stays_in_region_and_spreads() {
        let s = AddressStream::new(AddressStreamSpec::Uniform { region_blocks: 64 }, 9, 1);
        let mut seen = [false; 64];
        for i in 0..2_000 {
            let b = s.block(i);
            assert!(b < 64);
            seen[b as usize] = true;
        }
        assert!(seen.iter().all(|&x| x), "uniform must reach the whole region");
    }

    #[test]
    fn hot_row_concentrates_by_its_fraction() {
        let spec = AddressStreamSpec::HotRow {
            region_blocks: 1 << 20,
            hot_blocks: 32,
            hot_fraction: 0.9,
        };
        let s = AddressStream::new(spec, 11, 3);
        let n = 20_000u64;
        let hot = (0..n).filter(|&i| s.block(i) < 32).count() as f64 / n as f64;
        // 90% targeted + ~0.003% of cold draws landing there anyway.
        assert!((hot - 0.9).abs() < 0.01, "hot share {hot}");
    }

    #[test]
    fn blocks_are_pure_functions_of_the_ordinal() {
        let spec = AddressStreamSpec::HotRow {
            region_blocks: 4_096,
            hot_blocks: 8,
            hot_fraction: 0.5,
        };
        let s = AddressStream::new(spec, 13, 5);
        let forward: Vec<u64> = (0..500).map(|i| s.block(i)).collect();
        let backward: Vec<u64> = (0..500).rev().map(|i| s.block(i)).collect();
        assert_eq!(forward, backward.into_iter().rev().collect::<Vec<_>>());
        // Distinct stacks (stream ids) see distinct realizations.
        let other = AddressStream::new(spec, 13, 6);
        assert_ne!(forward, (0..500).map(|i| other.block(i)).collect::<Vec<_>>());
    }

    #[test]
    fn labels_encode_the_parameters() {
        assert_eq!(AddressStreamSpec::Sequential.label(), "seq");
        assert_eq!(AddressStreamSpec::Strided { stride_blocks: 8 }.label(), "stride8");
        assert_eq!(AddressStreamSpec::Uniform { region_blocks: 4 }.label(), "uniform4");
        let h = AddressStreamSpec::HotRow {
            region_blocks: 4,
            hot_blocks: 1,
            hot_fraction: 0.5,
        };
        assert_eq!(h.label(), "hotrow1/4@0.5");
        // Two variants of the same family stay distinguishable.
        assert_ne!(
            AddressStreamSpec::Uniform { region_blocks: 4 }.label(),
            AddressStreamSpec::Uniform { region_blocks: 8 }.label()
        );
    }

    #[test]
    #[should_panic]
    fn zero_stride_panics() {
        AddressStream::new(AddressStreamSpec::Strided { stride_blocks: 0 }, 0, 0);
    }

    #[test]
    fn oversized_regions_are_rejected_and_walks_stay_bounded() {
        // Regions beyond the block space fail the check (they would
        // overflow the engine's package-interleave mapping)…
        assert!(AddressStreamSpec::Uniform { region_blocks: MAX_REGION_BLOCKS + 1 }
            .check()
            .is_err());
        assert!(AddressStreamSpec::Strided { stride_blocks: u64::MAX }.check().is_err());
        assert!(AddressStreamSpec::Uniform { region_blocks: MAX_REGION_BLOCKS }
            .check()
            .is_ok());
        // …and the walking generators wrap into the space instead of
        // overflowing, even at extreme ordinals.
        let s = AddressStream::new(
            AddressStreamSpec::Strided { stride_blocks: MAX_REGION_BLOCKS },
            3,
            0,
        );
        assert!(s.block(u64::MAX) < MAX_REGION_BLOCKS);
        let seq = AddressStream::new(AddressStreamSpec::Sequential, 3, 0);
        assert!(seq.block(u64::MAX) < MAX_REGION_BLOCKS);
    }

    #[test]
    #[should_panic]
    fn oversized_hot_set_panics() {
        AddressStream::new(
            AddressStreamSpec::HotRow { region_blocks: 4, hot_blocks: 5, hot_fraction: 0.5 },
            0,
            0,
        );
    }
}
