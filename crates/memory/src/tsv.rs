//! The through-silicon-via bundle connecting stacked DRAM layers.
//!
//! §III.A: "The layers of the memory stacks are interconnected using
//! TSVs."  TSVs are short (tens of µm) vertical copper pillars: their
//! energy per bit is an order of magnitude below package wires and their
//! latency is effectively one clock edge per crossing at 2.5 GHz.

use serde::{Deserialize, Serialize};

use wimnet_energy::Energy;

/// A vertical TSV bundle between adjacent dies of a stack.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct TsvBundle {
    /// Data width of the bundle in bits (per channel).
    pub width_bits: u32,
    /// Energy per bit per layer crossing, in pJ.
    pub pj_per_bit_per_layer: f64,
    /// Additional cycles per layer crossing (usually 0 at 2.5 GHz; kept
    /// configurable for taller stacks).
    pub cycles_per_layer: u64,
}

impl TsvBundle {
    /// The paper-era TSV bundle: 128-bit channel TSVs, 0.05 pJ/bit per
    /// crossing, same-cycle traversal.
    pub(crate) fn paper() -> Self {
        TsvBundle {
            width_bits: 128,
            pj_per_bit_per_layer: 0.05,
            cycles_per_layer: 0,
        }
    }

    /// Energy for `bits` bits to climb `layers` layer crossings.
    pub(crate) fn energy(&self, bits: u64, layers: u32) -> Energy {
        Energy::from_pj(self.pj_per_bit_per_layer * bits as f64 * f64::from(layers))
    }

    /// Extra latency in cycles for `layers` layer crossings.
    pub(crate) fn latency(&self, layers: u32) -> u64 {
        self.cycles_per_layer * u64::from(layers)
    }
}

impl Default for TsvBundle {
    fn default() -> Self {
        TsvBundle::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_scales_with_bits_and_layers() {
        let t = TsvBundle::paper();
        assert_eq!(t.energy(0, 4), Energy::ZERO);
        let one = t.energy(128, 1);
        let four = t.energy(128, 4);
        assert!((four.picojoules() - 4.0 * one.picojoules()).abs() < 1e-12);
        assert!((one.picojoules() - 6.4).abs() < 1e-12);
    }

    #[test]
    fn latency_defaults_to_zero_cycles() {
        let t = TsvBundle::paper();
        assert_eq!(t.latency(3), 0);
        let slow = TsvBundle { cycles_per_layer: 2, ..TsvBundle::paper() };
        assert_eq!(slow.latency(3), 6);
    }

    #[test]
    fn serialization_rounds_up() {
        // One transfer per cycle of the bundle width: a wide-I/O beat is
        // one cycle, a bit more is two, a 64-byte block is four.
        let beats = |bits: u64| bits.div_ceil(u64::from(TsvBundle::paper().width_bits));
        assert_eq!(beats(128), 1);
        assert_eq!(beats(129), 2);
        assert_eq!(beats(512), 4);
    }
}
