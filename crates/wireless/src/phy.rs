//! Non-coherent OOK physical-layer relations.
//!
//! The paper chooses non-coherent on-off keying "as it allows relatively
//! simple and low-power circuit implementation" (§III.B).  For
//! non-coherent (envelope-detected) OOK, the classical bit error rate is
//!
//! ```text
//! BER ≈ ½ · exp(−SNR / 2)
//! ```
//!
//! with SNR as a linear power ratio.  These helpers validate the link
//! budget (a BER below 10⁻¹⁵ needs ≈ 20.3 dB of SNR) and convert BERs to
//! per-flit error probabilities for the MAC's retransmission path.

/// Bit error rate of non-coherent OOK at linear SNR `snr`.
///
/// # Panics
///
/// Panics if `snr` is negative or non-finite.
pub(crate) fn ook_ber(snr: f64) -> f64 {
    assert!(snr >= 0.0 && snr.is_finite(), "SNR must be a non-negative ratio");
    0.5 * (-snr / 2.0).exp()
}

/// Converts decibels to a linear power ratio.
pub(crate) fn from_db(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Probability that a `bits`-bit flit contains at least one bit error at
/// bit error rate `ber`.
///
/// Uses the numerically stable complement form, exact for independent
/// errors: `1 − (1 − ber)^bits`.
pub fn flit_error_probability(ber: f64, bits: u32) -> f64 {
    if ber <= 0.0 {
        return 0.0;
    }
    // 1 − (1 − ber)^bits, via expm1/ln1p for tiny BERs.
    -f64::exp_m1(f64::from(bits) * f64::ln_1p(-ber))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The linear SNR a target OOK bit error rate needs: [`ook_ber`]
    /// inverted.
    fn snr_for_ber(ber: f64) -> f64 {
        assert!(ber > 0.0 && ber <= 0.5, "BER must be in (0, 0.5]");
        -2.0 * (2.0 * ber).ln()
    }

    /// Converts a linear power ratio to decibels.
    fn to_db(ratio: f64) -> f64 {
        10.0 * ratio.log10()
    }

    #[test]
    fn ber_falls_exponentially_with_snr() {
        assert!((ook_ber(0.0) - 0.5).abs() < 1e-12);
        assert!(ook_ber(10.0) < ook_ber(5.0));
        assert!(ook_ber(80.0) < 1e-15, "paper's link budget is reachable");
    }

    #[test]
    fn snr_for_ber_inverts_ook_ber() {
        for &ber in &[1e-3, 1e-9, 1e-15] {
            let snr = snr_for_ber(ber);
            assert!((ook_ber(snr) - ber).abs() / ber < 1e-9);
        }
    }

    #[test]
    fn paper_ber_needs_about_twenty_db() {
        // ½ exp(−snr/2) = 1e−15  ⇒  snr ≈ 67.6 (linear) ≈ 18.3 dB.
        let snr = snr_for_ber(1e-15);
        let db = to_db(snr);
        assert!((17.0..20.0).contains(&db), "got {db} dB");
    }

    #[test]
    fn db_round_trip() {
        for &x in &[0.1, 1.0, 42.0, 1e6] {
            assert!((from_db(to_db(x)) - x).abs() / x < 1e-12);
        }
    }

    #[test]
    fn flit_error_probability_behaviour() {
        assert_eq!(flit_error_probability(0.0, 32), 0.0);
        // Small BER: ≈ bits × ber.
        let p = flit_error_probability(1e-12, 32);
        assert!((p - 32e-12).abs() / 32e-12 < 1e-3);
        // Large BER saturates toward 1.
        let p = flit_error_probability(0.5, 512);
        assert!(p > 0.999_999);
        // Monotone in bits.
        assert!(
            flit_error_probability(1e-6, 64) > flit_error_probability(1e-6, 32)
        );
    }

    #[test]
    #[should_panic]
    fn negative_snr_panics() {
        ook_ber(-1.0);
    }

    #[test]
    #[should_panic]
    fn silly_ber_panics() {
        snr_for_ber(0.7);
    }
}
