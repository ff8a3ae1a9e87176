//! The on-chip zigzag antenna (paper refs \[5\]\[11\]).
//!
//! §III.B: the chosen antenna must be compact (zigzag folding of the arms
//! beats a linear dipole), *non-directional* (WIs sit at arbitrary angles
//! across chips), CMOS-compatible (top-layer metal), and provide 16 GHz
//! of bandwidth around 60 GHz through typical dielectric packaging
//! materials.  The path-loss model below is the standard log-distance
//! form used for intra-package mm-wave links, with the exponent the
//! in-package dielectric measurements of ref \[11\] suggest.

use serde::{Deserialize, Serialize};

use crate::phy;

/// A millimetre-wave zigzag on-chip antenna.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ZigzagAntenna {
    /// Centre frequency in GHz (paper: 60 GHz band).
    pub frequency_ghz: f64,
    /// Usable bandwidth in GHz (paper: 16 GHz, intra- and inter-chip).
    pub bandwidth_ghz: f64,
    /// Antenna gain in dBi (zigzag antennas are near-isotropic in the
    /// package plane).
    pub gain_dbi: f64,
    /// Footprint in mm² (top-metal zigzag, sub-mm arms at 60 GHz).
    pub area_mm2: f64,
    /// Log-distance path-loss exponent through the package dielectric.
    pub path_loss_exponent: f64,
    /// Reference path loss at 1 mm, in dB.
    pub reference_loss_db: f64,
}

impl ZigzagAntenna {
    /// The paper's antenna: 60 GHz, 16 GHz bandwidth, omnidirectional.
    /// The in-package line-of-sight exponent of 2.0 and 25 dB reference
    /// loss follow the intra/inter-chip measurements of ref \[11\].
    pub fn paper() -> Self {
        ZigzagAntenna {
            frequency_ghz: 60.0,
            bandwidth_ghz: 16.0,
            gain_dbi: 0.0,
            area_mm2: 0.2,
            path_loss_exponent: 2.0,
            reference_loss_db: 25.0,
        }
    }

    /// Log-distance path loss in dB over `distance_mm`.
    ///
    /// # Panics
    ///
    /// Panics if `distance_mm` is not positive.
    pub(crate) fn path_loss_db(&self, distance_mm: f64) -> f64 {
        assert!(distance_mm > 0.0, "distance must be positive");
        self.reference_loss_db
            + 10.0 * self.path_loss_exponent * distance_mm.log10()
    }

    /// Link SNR in dB for a transmit power of `tx_power_dbm` over
    /// `distance_mm` against a `noise_floor_dbm` integrated noise floor,
    /// including both antenna gains.
    pub(crate) fn link_snr_db(
        &self,
        tx_power_dbm: f64,
        distance_mm: f64,
        noise_floor_dbm: f64,
    ) -> f64 {
        tx_power_dbm + 2.0 * self.gain_dbi - self.path_loss_db(distance_mm)
            - noise_floor_dbm
    }

    /// Bit error rate of an OOK link at `distance_mm`.
    pub fn link_ber(
        &self,
        tx_power_dbm: f64,
        distance_mm: f64,
        noise_floor_dbm: f64,
    ) -> f64 {
        let snr_db = self.link_snr_db(tx_power_dbm, distance_mm, noise_floor_dbm);
        phy::ook_ber(phy::from_db(snr_db.max(0.0)))
    }
}

impl Default for ZigzagAntenna {
    fn default() -> Self {
        ZigzagAntenna::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A +5 dBm transmitter against a −82 dBm integrated noise floor —
    /// representative of the 65 nm OOK designs the paper cites.
    const TX_DBM: f64 = 5.0;
    const NOISE_DBM: f64 = -82.0;

    #[test]
    fn paper_antenna_parameters() {
        let a = ZigzagAntenna::paper();
        assert_eq!(a.frequency_ghz, 60.0);
        assert_eq!(a.bandwidth_ghz, 16.0);
        assert!((299.792_458 / a.frequency_ghz - 5.0).abs() < 0.01, "60 GHz ≈ 5 mm");
        assert_eq!(a, ZigzagAntenna::default());
    }

    #[test]
    fn path_loss_grows_with_distance() {
        let a = ZigzagAntenna::paper();
        assert!(a.path_loss_db(10.0) > a.path_loss_db(1.0));
        // One decade of distance costs 10·n dB.
        let delta = a.path_loss_db(100.0) - a.path_loss_db(10.0);
        assert!((delta - 20.0).abs() < 1e-9);
    }

    #[test]
    fn package_scale_links_meet_the_paper_ber() {
        let a = ZigzagAntenna::paper();
        // Up to several centimetres — the span of the 4C4M package.
        for &d in &[5.0, 20.0, 60.0] {
            let ber = a.link_ber(TX_DBM, d, NOISE_DBM);
            assert!(ber < 1e-15, "BER {ber} at {d} mm");
        }
    }

    #[test]
    fn range_covers_the_multichip_package() {
        let a = ZigzagAntenna::paper();
        // A 4-chip package spans < 100 mm diagonally, and path loss is
        // monotone in distance: the range at the paper's BER exceeds it.
        let ber = a.link_ber(TX_DBM, 100.0, NOISE_DBM);
        assert!(ber < 1e-15, "BER {ber} at 100 mm");
    }

    #[test]
    fn ber_and_snr_are_consistent() {
        let a = ZigzagAntenna::paper();
        let snr_db = a.link_snr_db(TX_DBM, 30.0, NOISE_DBM);
        let ber = a.link_ber(TX_DBM, 30.0, NOISE_DBM);
        assert!((phy::ook_ber(phy::from_db(snr_db)) - ber).abs() < 1e-20);
    }

    #[test]
    #[should_panic]
    fn zero_distance_panics() {
        ZigzagAntenna::paper().path_loss_db(0.0);
    }
}
