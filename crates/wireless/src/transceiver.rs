//! The OOK transceiver (paper ref \[6\], TSMC 65 nm).
//!
//! §IV: "The wireless transceiver … is shown to dissipate 2.3 pJ/bit
//! sustaining a data rate of 16 Gbps with a signal to noise ratio (SNR)
//! providing a bit-error rate (BER) of less than 10⁻¹⁵ while occupying an
//! area of 0.3 mm²."  With the sleepy design of ref \[17\], receivers whose
//! control packet does not address them are power-gated through the data
//! phase.

use serde::{Deserialize, Serialize};

/// Datasheet-style description of the paper's wireless transceiver.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransceiverSpec {
    /// Sustained data rate in Gbps.
    pub data_rate_gbps: f64,
    /// Total link energy per bit in pJ (TX + RX).
    pub energy_pj_per_bit: f64,
    /// Active silicon area in mm².
    pub area_mm2: f64,
    /// Worst-case link bit error rate.
    pub ber: f64,
}

impl TransceiverSpec {
    /// The paper's transceiver: 16 Gbps, 2.3 pJ/bit, 0.3 mm², BER < 1e-15.
    pub fn paper() -> Self {
        TransceiverSpec {
            data_rate_gbps: 16.0,
            energy_pj_per_bit: 2.3,
            area_mm2: 0.3,
            ber: 1e-15,
        }
    }

    /// Total active area for `count` deployed transceivers, in mm² —
    /// the paper's "negligible overhead of 0.3 mm² per transceiver".
    pub fn total_area_mm2(&self, count: usize) -> f64 {
        self.area_mm2 * count as f64
    }
}

impl Default for TransceiverSpec {
    fn default() -> Self {
        TransceiverSpec::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChannelConfig;
    use wimnet_energy::EnergyModel;

    #[test]
    fn paper_numbers() {
        let t = TransceiverSpec::paper();
        assert_eq!(t.data_rate_gbps, 16.0);
        assert_eq!(t.energy_pj_per_bit, 2.3);
        assert_eq!(t.area_mm2, 0.3);
        assert!(t.ber <= 1e-15);
    }

    #[test]
    fn link_energy_scales_with_bits() {
        // What the engine charges for a link crossing (TX + RX) is the
        // spec's per-bit energy times the bits: a full 64-flit, 32-bit
        // packet is 2048 bits × 2.3 pJ ≈ 4.7 nJ.
        let t = TransceiverSpec::paper();
        let m = EnergyModel::paper_65nm();
        let link = m.wireless_tx(2048) + m.wireless_rx(2048);
        assert!((link.picojoules() - t.energy_pj_per_bit * 2048.0).abs() < 1e-9);
        assert!((link.nanojoules() - 4.7104).abs() < 1e-9);
    }

    #[test]
    fn serialization_time_matches_rate() {
        // The channel the MACs serialise on runs at the spec's rate: one
        // 32-bit flit at 16 Gbps = 2 ns = 5 cycles of the 2.5 GHz clock.
        let t = TransceiverSpec::paper();
        let c = ChannelConfig::paper(8);
        assert_eq!(c.data_rate_gbps, t.data_rate_gbps);
        assert_eq!(c.cycles_per_flit(), 5);
    }

    #[test]
    fn area_overhead_for_paper_systems() {
        let t = TransceiverSpec::paper();
        // 4C4M: 8 WIs = 2.4 mm² — negligible against 400 mm² of compute.
        assert!((t.total_area_mm2(8) - 2.4).abs() < 1e-12);
    }

    #[test]
    fn spec_agrees_with_energy_model() {
        // Guards against drift between the two crates' constants.
        let t = TransceiverSpec::paper();
        let m = EnergyModel::paper_65nm();
        let total = m.wireless_tx_pj_per_bit + m.wireless_rx_pj_per_bit;
        assert!((total - t.energy_pj_per_bit).abs() < 1e-9);
        assert_eq!(ChannelConfig::paper(8).ber, t.ber);
    }

    #[test]
    fn sleep_draws_less_than_awake() {
        // The sleepy transceiver of ref [17]: a power-gated receiver
        // draws the model's sleep power, a listening one its idle power.
        let m = EnergyModel::paper_65nm();
        assert!(m.wireless_sleep < m.wireless_idle);
    }
}
