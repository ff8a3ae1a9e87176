//! Strongly typed physical quantities.
//!
//! All quantities are stored in SI base units (`f64` joules, watts, hertz)
//! and expose conversion constructors/accessors for the sub-units the NoC
//! literature actually uses (picojoules, nanojoules, milliwatts, gigahertz).
//!
//! The types are deliberately tiny `Copy` newtypes ([C-NEWTYPE]) so they can
//! be passed around the hot simulation loop at zero cost.
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// An amount of energy, stored in joules.
///
/// # Example
///
/// ```
/// use wimnet_energy::Energy;
///
/// let per_bit = Energy::from_pj(2.3);
/// let packet = per_bit * 2048.0;
/// assert!((packet.nanojoules() - 4.7104).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Energy(f64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0.0);

    /// Creates an energy from joules.
    pub fn from_joules(j: f64) -> Self {
        Energy(j)
    }

    /// Creates an energy from microjoules.
    pub fn from_uj(uj: f64) -> Self {
        Energy(uj * 1e-6)
    }

    /// Creates an energy from nanojoules.
    pub fn from_nj(nj: f64) -> Self {
        Energy(nj * 1e-9)
    }

    /// Creates an energy from picojoules.
    pub fn from_pj(pj: f64) -> Self {
        Energy(pj * 1e-12)
    }

    /// This energy in joules.
    pub fn joules(self) -> f64 {
        self.0
    }

    /// This energy in microjoules.
    pub fn microjoules(self) -> f64 {
        self.0 * 1e6
    }

    /// This energy in nanojoules.
    pub fn nanojoules(self) -> f64 {
        self.0 * 1e9
    }

    /// This energy in picojoules.
    pub fn picojoules(self) -> f64 {
        self.0 * 1e12
    }

    /// Returns `true` if the stored value is finite (not NaN/∞).
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Numerically safe maximum of two energies.
    pub fn max(self, other: Energy) -> Energy {
        Energy(self.0.max(other.0))
    }

    /// Numerically safe minimum of two energies.
    pub fn min(self, other: Energy) -> Energy {
        Energy(self.0.min(other.0))
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    fn sub(self, rhs: Energy) -> Energy {
        Energy(self.0 - rhs.0)
    }
}

impl SubAssign for Energy {
    fn sub_assign(&mut self, rhs: Energy) {
        self.0 -= rhs.0;
    }
}

impl Neg for Energy {
    type Output = Energy;
    fn neg(self) -> Energy {
        Energy(-self.0)
    }
}

impl Mul<f64> for Energy {
    type Output = Energy;
    fn mul(self, rhs: f64) -> Energy {
        Energy(self.0 * rhs)
    }
}

impl Mul<Energy> for f64 {
    type Output = Energy;
    fn mul(self, rhs: Energy) -> Energy {
        Energy(self * rhs.0)
    }
}

impl Div<f64> for Energy {
    type Output = Energy;
    fn div(self, rhs: f64) -> Energy {
        Energy(self.0 / rhs)
    }
}

impl Div<Energy> for Energy {
    /// Ratio of two energies (dimensionless).
    type Output = f64;
    fn div(self, rhs: Energy) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, Add::add)
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let j = self.0.abs();
        if j >= 1.0 {
            write!(f, "{:.4} J", self.0)
        } else if j >= 1e-3 {
            write!(f, "{:.4} mJ", self.0 * 1e3)
        } else if j >= 1e-6 {
            write!(f, "{:.4} uJ", self.0 * 1e6)
        } else if j >= 1e-9 {
            write!(f, "{:.4} nJ", self.0 * 1e9)
        } else {
            write!(f, "{:.4} pJ", self.0 * 1e12)
        }
    }
}

/// A power, stored in watts.
///
/// Multiplying a [`Power`] by a number of cycles of a [`Frequency`] yields
/// the [`Energy`] dissipated over that interval:
///
/// ```
/// use wimnet_energy::{Power, Frequency};
///
/// let leak = Power::from_mw(1.3);
/// let clk = Frequency::from_ghz(2.5);
/// let e = leak.energy_over_cycles(1000, clk);
/// assert!((e.picojoules() - 520.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Power(f64);

impl Power {
    /// Zero power.
    pub const ZERO: Power = Power(0.0);

    /// Creates a power from milliwatts.
    pub fn from_mw(mw: f64) -> Self {
        Power(mw * 1e-3)
    }

    /// Creates a power from microwatts.
    pub(crate) fn from_uw(uw: f64) -> Self {
        Power(uw * 1e-6)
    }

    /// This power in watts.
    pub fn watts(self) -> f64 {
        self.0
    }

    /// Energy dissipated by this power over `cycles` periods of `clock`.
    pub fn energy_over_cycles(self, cycles: u64, clock: Frequency) -> Energy {
        Energy::from_joules(self.0 * cycles as f64 / clock.hertz())
    }
}

impl Add for Power {
    type Output = Power;
    fn add(self, rhs: Power) -> Power {
        Power(self.0 + rhs.0)
    }
}

impl AddAssign for Power {
    fn add_assign(&mut self, rhs: Power) {
        self.0 += rhs.0;
    }
}

impl Sub for Power {
    type Output = Power;
    fn sub(self, rhs: Power) -> Power {
        Power(self.0 - rhs.0)
    }
}

impl Mul<f64> for Power {
    type Output = Power;
    fn mul(self, rhs: f64) -> Power {
        Power(self.0 * rhs)
    }
}

impl Sum for Power {
    fn sum<I: Iterator<Item = Power>>(iter: I) -> Power {
        iter.fold(Power::ZERO, Add::add)
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.0.abs();
        if w >= 1.0 {
            write!(f, "{:.4} W", self.0)
        } else if w >= 1e-3 {
            write!(f, "{:.4} mW", self.0 * 1e3)
        } else {
            write!(f, "{:.4} uW", self.0 * 1e6)
        }
    }
}

/// A frequency, stored in hertz.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Frequency(f64);

impl Frequency {
    /// Creates a frequency from gigahertz.
    pub fn from_ghz(ghz: f64) -> Self {
        Frequency(ghz * 1e9)
    }

    /// This frequency in hertz.
    pub fn hertz(self) -> f64 {
        self.0
    }

    /// This frequency in gigahertz.
    pub fn gigahertz(self) -> f64 {
        self.0 * 1e-9
    }
}

impl Default for Frequency {
    /// The paper's nominal 2.5 GHz 65 nm clock.
    fn default() -> Self {
        Frequency::from_ghz(2.5)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e9 {
            write!(f, "{:.3} GHz", self.0 * 1e-9)
        } else if self.0 >= 1e6 {
            write!(f, "{:.3} MHz", self.0 * 1e-6)
        } else {
            write!(f, "{:.3} Hz", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_unit_round_trips() {
        let e = Energy::from_pj(2.3);
        assert!((e.picojoules() - 2.3).abs() < 1e-12);
        assert!((e.nanojoules() - 0.0023).abs() < 1e-12);
        assert!((e.joules() - 2.3e-12).abs() < 1e-24);

        let e = Energy::from_nj(1500.0);
        assert!((e.microjoules() - 1.5).abs() < 1e-12);
        assert!((Energy::from_uj(1.5).nanojoules() - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn energy_arithmetic() {
        let a = Energy::from_pj(10.0);
        let b = Energy::from_pj(5.0);
        assert!(((a + b).picojoules() - 15.0).abs() < 1e-12);
        assert!(((a - b).picojoules() - 5.0).abs() < 1e-12);
        assert!(((a * 3.0).picojoules() - 30.0).abs() < 1e-12);
        assert!(((3.0 * a).picojoules() - 30.0).abs() < 1e-12);
        assert!(((a / 2.0).picojoules() - 5.0).abs() < 1e-12);
        assert!((a / b - 2.0).abs() < 1e-12);
        assert!(((-a).picojoules() + 10.0).abs() < 1e-12);
    }

    #[test]
    fn energy_add_assign_and_sum() {
        let mut e = Energy::ZERO;
        e += Energy::from_pj(1.0);
        e += Energy::from_pj(2.0);
        assert!((e.picojoules() - 3.0).abs() < 1e-12);

        let total: Energy = (0..10).map(|i| Energy::from_pj(i as f64)).sum();
        assert!((total.picojoules() - 45.0).abs() < 1e-12);
    }

    #[test]
    fn energy_ordering_and_min_max() {
        let a = Energy::from_pj(1.0);
        let b = Energy::from_pj(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn energy_display_picks_sensible_units() {
        assert_eq!(format!("{}", Energy::from_pj(2.3)), "2.3000 pJ");
        assert_eq!(format!("{}", Energy::from_nj(1400.0)), "1.4000 uJ");
        assert_eq!(format!("{}", Energy::from_nj(12.0)), "12.0000 nJ");
        assert_eq!(format!("{}", Energy::from_joules(0.5)), "500.0000 mJ");
        assert_eq!(format!("{}", Energy::from_joules(1.5)), "1.5000 J");
    }

    #[test]
    fn power_to_energy_over_cycles() {
        // 1 W for 2.5e9 cycles at 2.5 GHz is exactly one second: 1 J.
        let p = Power::from_mw(1000.0);
        let clk = Frequency::from_ghz(2.5);
        let e = p.energy_over_cycles(2_500_000_000, clk);
        assert!((e.joules() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn power_display_and_arithmetic() {
        let p = Power::from_mw(1.5) + Power::from_mw(0.5);
        assert!((p.watts() - 2.0e-3).abs() < 1e-15);
        assert_eq!(format!("{}", Power::from_mw(2.0)), "2.0000 mW");
        assert_eq!(format!("{}", Power::from_uw(17.0)), "17.0000 uW");
        let total: Power = (0..4).map(|_| Power::from_mw(1.0)).sum();
        assert!((total.watts() - 4.0e-3).abs() < 1e-12);
    }

    #[test]
    fn frequency_defaults_to_paper_clock() {
        let f = Frequency::default();
        assert!((f.gigahertz() - 2.5).abs() < 1e-12);
        assert_eq!(f.hertz(), 2.5e9);
        assert_eq!(format!("{f}"), "2.500 GHz");
    }
}
