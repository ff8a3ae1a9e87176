//! Per-category energy accounting on an exact fixed-point
//! superaccumulator.
//!
//! The meter keeps one wide-integer accumulator per category over the
//! quantum 2⁻¹⁰⁷⁴ J (the spacing of the smallest f64 subnormal), so
//! *every* finite `f64` charge is represented exactly and integer
//! addition — which is associative — replaces float addition.  Sums are
//! therefore independent of charge order and batching, and
//! [`EnergyMeter::add_repeated`] can account `k` identical charges with
//! one exact multiply-add: the O(1)-per-skipped-cycle contract the idle
//! fast-forward relies on (`docs/fast_forward.md`).  The f64 the caller
//! observes is produced once, at read time, by correctly rounding the
//! exact sum (round-to-nearest-even).

use std::fmt;
use std::ops::AddAssign;

use serde::{Deserialize, Serialize};

use crate::units::Energy;

/// Where a quantum of energy was spent.
///
/// The categories follow the components of the SOCC'17 multichip system so
/// that experiment reports can break a packet's energy down the same way the
/// paper's §IV discussion does.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[non_exhaustive]
pub enum EnergyCategory {
    /// Dynamic switch traversal (buffers, arbitration, crossbar).
    SwitchDynamic,
    /// Switch leakage integrated over simulated time.
    SwitchStatic,
    /// On-chip wires between mesh switches.
    Wire,
    /// Interposer metal-layer wiring including µbump crossings.
    InterposerWire,
    /// High-speed serial chip-to-chip I/O.
    SerialIo,
    /// Serial I/O static (PLL, RX front end) integrated over time.
    SerialIoStatic,
    /// 128-bit wide memory I/O.
    WideIo,
    /// Wireless transmitters (data).
    WirelessTx,
    /// Wireless receivers (data decode).
    WirelessRx,
    /// Wireless control packets (MAC overhead, all receivers awake).
    WirelessControl,
    /// Awake-but-idle wireless receivers.
    WirelessIdle,
    /// Power-gated wireless receivers.
    WirelessSleep,
    /// Through-silicon vias inside memory stacks.
    Tsv,
    /// DRAM array accesses (zero under the paper's assumptions).
    DramAccess,
    /// DRAM background power integrated over time (zero by default —
    /// the paper excludes intra-stack energy; see
    /// `StackConfig::background_power`).
    DramBackground,
}

impl EnergyCategory {
    /// All categories, in report order.
    pub const ALL: [EnergyCategory; 15] = [
        EnergyCategory::SwitchDynamic,
        EnergyCategory::SwitchStatic,
        EnergyCategory::Wire,
        EnergyCategory::InterposerWire,
        EnergyCategory::SerialIo,
        EnergyCategory::SerialIoStatic,
        EnergyCategory::WideIo,
        EnergyCategory::WirelessTx,
        EnergyCategory::WirelessRx,
        EnergyCategory::WirelessControl,
        EnergyCategory::WirelessIdle,
        EnergyCategory::WirelessSleep,
        EnergyCategory::Tsv,
        EnergyCategory::DramAccess,
        EnergyCategory::DramBackground,
    ];

    /// Short, stable label used in CSV output.
    pub fn label(self) -> &'static str {
        match self {
            EnergyCategory::SwitchDynamic => "switch_dynamic",
            EnergyCategory::SwitchStatic => "switch_static",
            EnergyCategory::Wire => "wire",
            EnergyCategory::InterposerWire => "interposer_wire",
            EnergyCategory::SerialIo => "serial_io",
            EnergyCategory::SerialIoStatic => "serial_io_static",
            EnergyCategory::WideIo => "wide_io",
            EnergyCategory::WirelessTx => "wireless_tx",
            EnergyCategory::WirelessRx => "wireless_rx",
            EnergyCategory::WirelessControl => "wireless_control",
            EnergyCategory::WirelessIdle => "wireless_idle",
            EnergyCategory::WirelessSleep => "wireless_sleep",
            EnergyCategory::Tsv => "tsv",
            EnergyCategory::DramAccess => "dram_access",
            EnergyCategory::DramBackground => "dram_background",
        }
    }

    fn index(self) -> usize {
        match self {
            EnergyCategory::SwitchDynamic => 0,
            EnergyCategory::SwitchStatic => 1,
            EnergyCategory::Wire => 2,
            EnergyCategory::InterposerWire => 3,
            EnergyCategory::SerialIo => 4,
            EnergyCategory::SerialIoStatic => 5,
            EnergyCategory::WideIo => 6,
            EnergyCategory::WirelessTx => 7,
            EnergyCategory::WirelessRx => 8,
            EnergyCategory::WirelessControl => 9,
            EnergyCategory::WirelessIdle => 10,
            EnergyCategory::WirelessSleep => 11,
            EnergyCategory::Tsv => 12,
            EnergyCategory::DramAccess => 13,
            EnergyCategory::DramBackground => 14,
        }
    }
}

impl fmt::Display for EnergyCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

const NUM_CATEGORIES: usize = 15;

/// Limbs of one exact accumulator.  The fixed point covers every finite
/// f64 bit weight — 2⁻¹⁰⁷⁴ J (bit 0) up to 2¹⁰²³ J (bit 2097) — plus
/// 64 bits of carry headroom, so ~2⁶⁴ maximal charges cannot overflow:
/// ⌈(1074 + 1024 + 64) / 64⌉ = 34.
const LIMBS: usize = 34;

/// An exact non-negative fixed-point sum of f64 values (a Kulisch-style
/// superaccumulator): a little-endian multi-limb integer in units of
/// 2⁻¹⁰⁷⁴ J.  Addition is integer addition — exact and associative —
/// so the sum is independent of both the order charges arrive in and
/// how they are batched.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct ExactSum {
    limbs: [u64; LIMBS],
}

impl Default for ExactSum {
    fn default() -> Self {
        ExactSum { limbs: [0; LIMBS] }
    }
}

/// Splits a finite positive f64 into `(mantissa, shift)` with
/// `x == mantissa × 2^(shift − 1074)`, i.e. the mantissa's LSB sits at
/// fixed-point bit `shift`.
#[inline]
fn decompose(x: f64) -> (u64, u32) {
    let bits = x.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as u32;
    let frac = bits & ((1u64 << 52) - 1);
    if exp == 0 {
        (frac, 0) // subnormal: no implicit bit, LSB weight 2⁻¹⁰⁷⁴
    } else {
        (frac | (1 << 52), exp - 1)
    }
}

impl ExactSum {
    /// Adds `value × 2^shift` (value < 2¹¹⁷: a mantissa × count
    /// product) into the accumulator, exactly.
    fn add_shifted(&mut self, value: u128, shift: u32) {
        let limb = (shift / 64) as usize;
        let off = shift % 64;
        let lo = value as u64;
        let hi = (value >> 64) as u64;
        // The ≤ 117-bit value lands across at most three limbs.
        let parts = if off == 0 {
            [lo, hi, 0]
        } else {
            [lo << off, (lo >> (64 - off)) | (hi << off), hi >> (64 - off)]
        };
        let mut carry = 0u64;
        let mut i = limb;
        for p in parts {
            let (s1, c1) = self.limbs[i].overflowing_add(p);
            let (s2, c2) = s1.overflowing_add(carry);
            self.limbs[i] = s2;
            carry = u64::from(c1) + u64::from(c2);
            i += 1;
        }
        while carry > 0 {
            // Indexing past the last limb would mean > 2¹⁶⁰ J were
            // accumulated; the panic is the overflow detector.
            let (s, c) = self.limbs[i].overflowing_add(carry);
            self.limbs[i] = s;
            carry = u64::from(c);
            i += 1;
        }
    }

    /// Adds `x` repeated `k` times — one exact multiply-add.
    #[inline]
    fn add_f64_repeated(&mut self, x: f64, k: u64) {
        if k == 0 || x.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return; // zero adds nothing; the caller validated x
        }
        let (m, shift) = decompose(x);
        self.add_shifted(u128::from(m) * u128::from(k), shift);
    }

    /// Folds another accumulator in (limb-wise add with carry).
    fn add_sum(&mut self, other: &ExactSum) {
        let mut carry = 0u64;
        for i in 0..LIMBS {
            let (s1, c1) = self.limbs[i].overflowing_add(other.limbs[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            self.limbs[i] = s2;
            carry = u64::from(c1) + u64::from(c2);
        }
        debug_assert_eq!(carry, 0, "exact accumulator overflow on merge");
    }

    /// `true` when any bit strictly below index `n` is set.
    fn any_bits_below(&self, n: usize) -> bool {
        let limb = n / 64;
        let off = n % 64;
        self.limbs[..limb].iter().any(|&l| l != 0)
            || (off > 0 && (self.limbs[limb] & ((1u64 << off) - 1)) != 0)
    }

    /// The correctly rounded (round-to-nearest-even) f64 value of the
    /// accumulator.
    fn to_f64(&self) -> f64 {
        let Some(top) = self.limbs.iter().rposition(|&l| l != 0) else {
            return 0.0;
        };
        let h = top * 64 + 63 - self.limbs[top].leading_zeros() as usize;
        if h <= 52 {
            // Below bit 53 the f64 encoding (subnormals and the first
            // normal binade) is linear in units of 2⁻¹⁰⁷⁴, so the low
            // limb *is* the bit pattern.
            return f64::from_bits(self.limbs[0]);
        }
        // Top 53 significant bits, then round-to-nearest-even on the
        // guard (first dropped) and sticky (any lower) bits.
        let drop = h - 52;
        let limb = drop / 64;
        let off = drop % 64;
        let lo = self.limbs[limb] >> off;
        let hi = if off == 0 {
            0
        } else {
            self.limbs.get(limb + 1).copied().unwrap_or(0) << (64 - off)
        };
        let mut mant = (lo | hi) & ((1u64 << 53) - 1);
        let guard = (self.limbs[(drop - 1) / 64] >> ((drop - 1) % 64)) & 1 == 1;
        if guard && (self.any_bits_below(drop - 1) || mant & 1 == 1) {
            mant += 1;
        }
        let mut h = h;
        if mant == 1 << 53 {
            mant >>= 1;
            h += 1;
        }
        // MSB at fixed-point bit h ⇒ value ≈ 2^(h − 1074) ⇒ biased
        // exponent h − 1074 + 1023 = h − 51 (h > 52 ⇒ always normal).
        let exp_biased = (h - 51) as u64;
        if exp_biased >= 2047 {
            return f64::INFINITY;
        }
        f64::from_bits((exp_biased << 52) | (mant & ((1u64 << 52) - 1)))
    }
}

/// Accumulates energy per [`EnergyCategory`] — exactly.
///
/// Each category is an `ExactSum` fixed-point superaccumulator, so
/// accumulation is associative and order-independent, per-cycle replay
/// and batched accounting produce identical sums by construction, and
/// [`EnergyMeter::total`] conserves energy exactly (it is the rounded
/// value of the per-category accumulators' exact sum).
///
/// The meter also counts its own work: [`EnergyMeter::ops`] is the
/// number of add *operations* performed while the simulation advanced,
/// [`EnergyMeter::charges`] the number of logical charges accounted.
/// A fast-forwarded idle stretch performs O(1) ops for O(k) charges;
/// `ops` is what the O(1)-accounting tests assert on.  Charges priced
/// only when the meter is read ([`EnergyMeter::add_counted`]) count as
/// `charges` but not as `ops`, so `ops` does not depend on how often a
/// run was read out or snapshotted.
///
/// # Example
///
/// ```
/// use wimnet_energy::{Energy, EnergyCategory, EnergyMeter};
///
/// let mut meter = EnergyMeter::new();
/// meter.add(EnergyCategory::Wire, Energy::from_pj(8.0));
/// meter.add(EnergyCategory::SwitchDynamic, Energy::from_pj(2.0));
/// assert!((meter.total().picojoules() - 10.0).abs() < 1e-12);
/// assert!(meter.verify_conservation(1e-12));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EnergyMeter {
    by_category: [ExactSum; NUM_CATEGORIES],
    /// Add operations performed (an `add_repeated` counts once).
    ops: u64,
    /// Logical charges represented (an `add_repeated` counts `k`).
    charges: u64,
}

/// Meters compare by accumulated energy; the `ops`/`charges` work
/// counters are diagnostics and deliberately excluded (a fast-forwarded
/// run equals its full-stepping twin).
impl PartialEq for EnergyMeter {
    fn eq(&self, other: &Self) -> bool {
        self.by_category == other.by_category
    }
}

impl EnergyMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        EnergyMeter::default()
    }

    /// Records `energy` against `category`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `energy` is negative or non-finite;
    /// energy consumption is physically non-negative.
    #[inline]
    pub fn add(&mut self, category: EnergyCategory, energy: Energy) {
        self.add_repeated(category, energy, 1);
    }

    /// Records `energy` against `category` `count` times — one exact
    /// multiply-add, bit-identical to `count` individual
    /// [`EnergyMeter::add`] calls (the accumulator is exact, so the
    /// equality is by construction, not by replay order).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `energy` is negative or non-finite.
    #[inline]
    pub fn add_repeated(&mut self, category: EnergyCategory, energy: Energy, count: u64) {
        self.ops += u64::from(count > 0);
        self.add_counted(category, energy, count);
    }

    /// Lands `count` charges of `energy` that a caller *counted* while
    /// the simulation advanced and prices only now, at read-out — one
    /// exact multiply-add, the same bits as `count` individual
    /// [`EnergyMeter::add`] calls.  The charges enter
    /// [`EnergyMeter::charges`]; the multiply-add is not an
    /// [`EnergyMeter::ops`] operation, because how many read-outs a run
    /// saw (one more per checkpoint) is the host's business, not the
    /// simulated system's.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `energy` is negative or non-finite.
    #[inline]
    pub fn add_counted(&mut self, category: EnergyCategory, energy: Energy, count: u64) {
        debug_assert!(
            energy.is_finite() && energy >= Energy::ZERO,
            "energy must be finite and non-negative, got {energy:?}"
        );
        self.charges += count;
        self.by_category[category.index()].add_f64_repeated(energy.joules(), count);
    }

    /// Energy recorded against `category` so far (correctly rounded
    /// from the exact accumulator).
    pub fn category(&self, category: EnergyCategory) -> Energy {
        Energy::from_joules(self.by_category[category.index()].to_f64())
    }

    /// Total energy recorded across all categories: the correctly
    /// rounded value of the categories' *exact* sum, so conservation
    /// holds by construction.
    pub fn total(&self) -> Energy {
        let mut sum = ExactSum::default();
        for acc in &self.by_category {
            sum.add_sum(acc);
        }
        Energy::from_joules(sum.to_f64())
    }

    /// Sum of all wireless categories (TX, RX, control, idle, sleep),
    /// exact before the single rounding.
    pub fn wireless_total(&self) -> Energy {
        let mut sum = ExactSum::default();
        for c in [
            EnergyCategory::WirelessTx,
            EnergyCategory::WirelessRx,
            EnergyCategory::WirelessControl,
            EnergyCategory::WirelessIdle,
            EnergyCategory::WirelessSleep,
        ] {
            sum.add_sum(&self.by_category[c.index()]);
        }
        Energy::from_joules(sum.to_f64())
    }

    /// Add operations performed so far (each [`EnergyMeter::add`] or
    /// [`EnergyMeter::add_repeated`] call counts once; read-out
    /// [`EnergyMeter::add_counted`] calls do not).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Logical charges accounted so far (an
    /// [`EnergyMeter::add_repeated`] of `k` counts `k`).  The spread
    /// between `charges` and `ops` is the work the batched
    /// representation saved.
    pub fn charges(&self) -> u64 {
        self.charges
    }

    /// Iterates over `(category, energy)` pairs in report order.
    pub fn iter(&self) -> impl Iterator<Item = (EnergyCategory, Energy)> + '_ {
        EnergyCategory::ALL.iter().map(move |&c| (c, self.category(c)))
    }

    /// Folds another meter into this one (exact limb-wise addition).
    pub fn merge(&mut self, other: &EnergyMeter) {
        for i in 0..NUM_CATEGORIES {
            self.by_category[i].add_sum(&other.by_category[i]);
        }
        self.ops += other.ops;
        self.charges += other.charges;
    }

    /// Checks that the per-category sum matches the total to within
    /// `tolerance_fraction` (relative, with an absolute floor of 1 pJ).
    /// With the exact accumulator the only slack is the one rounding
    /// per category read-out, so any sane tolerance passes.
    pub fn verify_conservation(&self, tolerance_fraction: f64) -> bool {
        let sum: Energy = self.iter().map(|(_, e)| e).sum();
        let diff = (sum - self.total()).joules().abs();
        let bound = (self.total().joules().abs() * tolerance_fraction).max(1e-12);
        diff <= bound
    }

    /// Resets all accumulators and work counters to zero.
    pub fn clear(&mut self) {
        *self = EnergyMeter::default();
    }

    /// An owned snapshot suitable for serialisation in reports.
    pub fn breakdown(&self) -> EnergyBreakdown {
        EnergyBreakdown {
            entries: self.iter().collect(),
            total: self.total(),
        }
    }
}

impl AddAssign<&EnergyMeter> for EnergyMeter {
    fn add_assign(&mut self, rhs: &EnergyMeter) {
        self.merge(rhs);
    }
}

/// A run-length-encoded log of pending meter charges.
///
/// A component that owes the meter the same few constants many times
/// over (the memory controllers' background power across a skipped
/// stretch) logs them into a `ChargeBatch` — whole stretches at once
/// with [`ChargeBatch::push_repeated`] — and its driver lands the batch
/// with [`EnergyMeter::apply_batch`].  Consecutive identical charges
/// collapse into one `(category, energy, count)` run, and draining
/// costs one [`EnergyMeter::add_repeated`] per *run* — O(1) per run
/// however many charges it represents.
///
/// **Exactness contract:** the meter's accumulator is an exact integer
/// sum, so applying a batch is bit-identical to the unbatched add
/// sequence regardless of charge order or how runs were coalesced —
/// associativity is exact, not approximate.
///
/// # Example
///
/// ```
/// use wimnet_energy::{ChargeBatch, Energy, EnergyCategory, EnergyMeter};
///
/// let mut batch = ChargeBatch::new();
/// batch.push(EnergyCategory::SwitchDynamic, Energy::from_pj(2.0));
/// batch.push(EnergyCategory::SwitchDynamic, Energy::from_pj(2.0));
/// batch.push_repeated(EnergyCategory::Wire, Energy::from_pj(8.0), 1_000_000);
/// assert_eq!(batch.runs(), 2);
/// assert_eq!(batch.charges(), 1_000_002);
///
/// let mut meter = EnergyMeter::new();
/// meter.apply_batch(&batch);
/// batch.clear();
/// assert_eq!(meter.ops(), 2, "one add per run, not per charge");
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChargeBatch {
    runs: Vec<(EnergyCategory, Energy, u64)>,
}

impl ChargeBatch {
    /// An empty batch.
    pub fn new() -> Self {
        ChargeBatch::default()
    }

    /// Logs one charge, merging it into the previous run when category
    /// and exact energy bit pattern match.
    #[inline]
    pub fn push(&mut self, category: EnergyCategory, energy: Energy) {
        self.push_repeated(category, energy, 1);
    }

    /// Logs `count` identical charges as (at most) one run.
    #[inline]
    pub fn push_repeated(&mut self, category: EnergyCategory, energy: Energy, count: u64) {
        if count == 0 {
            return;
        }
        if let Some(last) = self.runs.last_mut() {
            if last.0 == category && last.1.joules().to_bits() == energy.joules().to_bits() {
                last.2 += count;
                return;
            }
        }
        self.runs.push((category, energy, count));
    }

    /// Number of run records currently held (not the charge count).
    pub fn runs(&self) -> usize {
        self.runs.len()
    }

    /// Total logged charges across all runs.
    pub fn charges(&self) -> u64 {
        self.runs.iter().map(|&(_, _, n)| n).sum()
    }

    /// `true` when nothing is logged.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Forgets all logged charges, keeping the allocation.
    pub fn clear(&mut self) {
        self.runs.clear();
    }
}

impl EnergyMeter {
    /// Drains a [`ChargeBatch`] into the meter: one exact
    /// [`EnergyMeter::add_repeated`] per run, bit-identical to replaying
    /// every logged charge individually (see the batch's exactness
    /// contract).  The batch is left untouched; callers
    /// [`ChargeBatch::clear`] it for reuse.
    pub fn apply_batch(&mut self, batch: &ChargeBatch) {
        for &(category, energy, count) in &batch.runs {
            self.add_repeated(category, energy, count);
        }
    }
}

impl fmt::Display for EnergyMeter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{:<20} {:>14}", "category", "energy")?;
        for (cat, e) in self.iter() {
            if e > Energy::ZERO {
                writeln!(f, "{:<20} {:>14}", cat.label(), format!("{e}"))?;
            }
        }
        write!(f, "{:<20} {:>14}", "total", format!("{}", self.total()))
    }
}

/// A serialisable snapshot of an [`EnergyMeter`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// `(category, energy)` pairs in report order.
    pub entries: Vec<(EnergyCategory, Energy)>,
    /// Total energy across all categories.
    pub total: Energy,
}

impl EnergyBreakdown {
    /// Energy for one category, zero if absent.
    pub fn category(&self, category: EnergyCategory) -> Energy {
        self.entries
            .iter()
            .find(|(c, _)| *c == category)
            .map(|(_, e)| *e)
            .unwrap_or(Energy::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_meter_is_zero_and_conserved() {
        let m = EnergyMeter::new();
        assert_eq!(m.total(), Energy::ZERO);
        assert!(m.verify_conservation(1e-12));
        for (_, e) in m.iter() {
            assert_eq!(e, Energy::ZERO);
        }
        assert_eq!(m.ops(), 0);
        assert_eq!(m.charges(), 0);
    }

    #[test]
    fn add_accumulates_per_category_and_total() {
        let mut m = EnergyMeter::new();
        m.add(EnergyCategory::Wire, Energy::from_pj(1.0));
        m.add(EnergyCategory::Wire, Energy::from_pj(2.0));
        m.add(EnergyCategory::SerialIo, Energy::from_pj(5.0));
        assert!((m.category(EnergyCategory::Wire).picojoules() - 3.0).abs() < 1e-12);
        assert!((m.category(EnergyCategory::SerialIo).picojoules() - 5.0).abs() < 1e-12);
        assert!((m.total().picojoules() - 8.0).abs() < 1e-12);
        assert!(m.verify_conservation(1e-12));
    }

    #[test]
    fn merge_combines_meters() {
        let mut a = EnergyMeter::new();
        a.add(EnergyCategory::WirelessTx, Energy::from_pj(1.0));
        let mut b = EnergyMeter::new();
        b.add(EnergyCategory::WirelessTx, Energy::from_pj(2.0));
        b.add(EnergyCategory::WirelessRx, Energy::from_pj(4.0));
        a += &b;
        assert!((a.category(EnergyCategory::WirelessTx).picojoules() - 3.0).abs() < 1e-12);
        assert!((a.total().picojoules() - 7.0).abs() < 1e-12);
        assert!(a.verify_conservation(1e-12));
        assert_eq!(a.ops(), 3, "merge folds the work counters too");
    }

    #[test]
    fn wireless_total_sums_only_wireless_categories() {
        let mut m = EnergyMeter::new();
        m.add(EnergyCategory::WirelessTx, Energy::from_pj(1.0));
        m.add(EnergyCategory::WirelessRx, Energy::from_pj(2.0));
        m.add(EnergyCategory::WirelessControl, Energy::from_pj(3.0));
        m.add(EnergyCategory::WirelessIdle, Energy::from_pj(4.0));
        m.add(EnergyCategory::WirelessSleep, Energy::from_pj(5.0));
        m.add(EnergyCategory::Wire, Energy::from_pj(100.0));
        assert!((m.wireless_total().picojoules() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn clear_resets_everything() {
        let mut m = EnergyMeter::new();
        m.add(EnergyCategory::Tsv, Energy::from_pj(9.0));
        m.clear();
        assert_eq!(m, EnergyMeter::new());
        assert_eq!(m.ops(), 0);
    }

    #[test]
    fn breakdown_snapshot_matches_meter() {
        let mut m = EnergyMeter::new();
        m.add(EnergyCategory::WideIo, Energy::from_pj(6.5));
        let b = m.breakdown();
        assert_eq!(b.total, m.total());
        assert_eq!(
            b.category(EnergyCategory::WideIo),
            m.category(EnergyCategory::WideIo)
        );
        assert_eq!(b.category(EnergyCategory::Tsv), Energy::ZERO);
    }

    #[test]
    fn display_lists_nonzero_categories_and_total() {
        let mut m = EnergyMeter::new();
        m.add(EnergyCategory::SwitchDynamic, Energy::from_nj(1.0));
        let s = format!("{m}");
        assert!(s.contains("switch_dynamic"));
        assert!(s.contains("total"));
        assert!(!s.contains("dram_access"));
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn negative_energy_panics_in_debug() {
        let mut m = EnergyMeter::new();
        m.add(EnergyCategory::Wire, Energy::from_pj(-1.0));
    }

    #[test]
    fn add_repeated_is_bit_identical_to_individual_adds() {
        // Adversarial mantissa: all 52 fraction bits set, so a float
        // loop would drift within a few adds.
        let e = Energy::from_joules(f64::from_bits(0x3D3F_FFFF_FFFF_FFFF));
        let k = 1_000_003u64;
        let mut looped = EnergyMeter::new();
        for _ in 0..k {
            looped.add(EnergyCategory::WirelessIdle, e);
        }
        let mut batched = EnergyMeter::new();
        batched.add_repeated(EnergyCategory::WirelessIdle, e, k);
        assert_eq!(looped, batched);
        assert_eq!(
            looped.total().joules().to_bits(),
            batched.total().joules().to_bits()
        );
        assert_eq!(batched.ops(), 1);
        assert_eq!(batched.charges(), k);
        assert_eq!(looped.ops(), k);
        // The read-out form lands the same limbs and charges, but is
        // not an operation of the simulated run.
        let mut counted = EnergyMeter::new();
        counted.add_counted(EnergyCategory::WirelessIdle, e, k);
        assert_eq!(counted, batched);
        assert_eq!(counted.charges(), k);
        assert_eq!(counted.ops(), 0);
    }

    #[test]
    fn accumulation_is_order_independent() {
        let charges = [
            Energy::from_pj(20.16),
            Energy::from_joules(1e-300),
            Energy::from_pj(3.7),
            Energy::from_joules(f64::from_bits(1)), // smallest subnormal
            Energy::from_nj(123.456),
        ];
        let mut fwd = EnergyMeter::new();
        for &e in &charges {
            fwd.add(EnergyCategory::Wire, e);
        }
        let mut rev = EnergyMeter::new();
        for &e in charges.iter().rev() {
            rev.add(EnergyCategory::Wire, e);
        }
        assert_eq!(fwd, rev);
        assert_eq!(
            fwd.total().joules().to_bits(),
            rev.total().joules().to_bits()
        );
    }

    #[test]
    fn read_out_is_correctly_rounded() {
        // 2⁵³ + 1 is not representable: the exact sum sits halfway
        // between 2⁵³ and 2⁵³ + 2, and round-to-nearest-even must pick
        // 2⁵³ (even mantissa).
        let mut m = EnergyMeter::new();
        m.add(EnergyCategory::Wire, Energy::from_joules(9007199254740992.0));
        m.add(EnergyCategory::Wire, Energy::from_joules(1.0));
        assert_eq!(m.category(EnergyCategory::Wire).joules(), 9007199254740992.0);
        // …while 2⁵³ + 3 rounds up to 2⁵³ + 4 (nearest even).
        let mut m2 = EnergyMeter::new();
        m2.add(EnergyCategory::Wire, Energy::from_joules(9007199254740992.0));
        m2.add(EnergyCategory::Wire, Energy::from_joules(3.0));
        assert_eq!(m2.category(EnergyCategory::Wire).joules(), 9007199254740996.0);
        // A tiny term below the guard bit is sticky: 2⁵³ + 1 + ε
        // rounds *up* to 2⁵³ + 2.
        let mut m3 = EnergyMeter::new();
        m3.add(EnergyCategory::Wire, Energy::from_joules(9007199254740992.0));
        m3.add(EnergyCategory::Wire, Energy::from_joules(1.0));
        m3.add(EnergyCategory::Wire, Energy::from_joules(1e-30));
        assert_eq!(m3.category(EnergyCategory::Wire).joules(), 9007199254740994.0);
    }

    #[test]
    fn tiny_and_huge_magnitudes_coexist_exactly() {
        // Sub-ulp charges are retained, not absorbed: a running f64 sum
        // at 1000.0 J would never move under 1 fJ adds (1e-15 is below
        // half an ulp of 1000), but the exact accumulator keeps every
        // one and they surface at read-out once they amount to > ½ ulp.
        let big = Energy::from_joules(1.0);
        let tiny = Energy::from_joules(1e-15);
        let mut m = EnergyMeter::new();
        m.add_repeated(EnergyCategory::Tsv, big, 1_000);
        assert_eq!(m.category(EnergyCategory::Tsv).joules(), 1000.0);
        for _ in 0..1_000_000 {
            m.add(EnergyCategory::Tsv, tiny);
        }
        assert!(
            m.category(EnergyCategory::Tsv).joules() > 1000.0,
            "a million femtojoules must not vanish"
        );
        // And the pure-subnormal regime reads back exactly.
        let sub = Energy::from_joules(f64::from_bits(7));
        let mut m3 = EnergyMeter::new();
        m3.add_repeated(EnergyCategory::Tsv, sub, 3);
        assert_eq!(m3.category(EnergyCategory::Tsv).joules().to_bits(), 21);
    }

    #[test]
    fn charge_batch_is_bit_identical_to_unbatched_adds() {
        // An interleaved charge pattern (switch traversal, then a link
        // crossing, repeated).
        let charges = [
            (EnergyCategory::SwitchDynamic, Energy::from_pj(20.16)),
            (EnergyCategory::Wire, Energy::from_pj(3.7)),
            (EnergyCategory::SwitchDynamic, Energy::from_pj(20.16)),
            (EnergyCategory::SwitchDynamic, Energy::from_pj(20.16)),
            (EnergyCategory::WirelessRx, Energy::from_pj(12.8)),
            (EnergyCategory::WirelessTx, Energy::from_pj(60.8)),
            (EnergyCategory::SwitchDynamic, Energy::from_pj(20.16)),
            (EnergyCategory::Wire, Energy::from_pj(3.7)),
            (EnergyCategory::Wire, Energy::from_pj(3.7)),
        ];
        let mut direct = EnergyMeter::new();
        let mut batch = ChargeBatch::new();
        for &(c, e) in &charges {
            direct.add(c, e);
            batch.push(c, e);
        }
        assert!(batch.runs() < charges.len(), "adjacent runs must merge");
        assert_eq!(batch.charges(), charges.len() as u64);
        let mut batched = EnergyMeter::new();
        batched.apply_batch(&batch);
        assert_eq!(
            direct.total().joules().to_bits(),
            batched.total().joules().to_bits(),
            "total must replay bit-identically"
        );
        for (cat, e) in direct.iter() {
            assert_eq!(
                e.joules().to_bits(),
                batched.category(cat).joules().to_bits(),
                "{cat} diverged under batching"
            );
        }
        assert!(
            batched.ops() < direct.ops(),
            "batched application does one op per run"
        );
    }

    #[test]
    fn charge_batch_clear_and_reuse() {
        let mut batch = ChargeBatch::new();
        assert!(batch.is_empty());
        for _ in 0..4 {
            batch.push(EnergyCategory::Tsv, Energy::from_pj(1.0));
        }
        batch.push_repeated(EnergyCategory::Tsv, Energy::from_pj(1.0), 6);
        assert_eq!(batch.runs(), 1, "push_repeated merges into the open run");
        assert_eq!(batch.charges(), 10);
        let mut m = EnergyMeter::new();
        m.apply_batch(&batch);
        assert!((m.category(EnergyCategory::Tsv).picojoules() - 10.0).abs() < 1e-12);
        assert_eq!(m.ops(), 1);
        batch.clear();
        assert!(batch.is_empty());
        // Applying an empty batch is a no-op.
        let before = m.clone();
        m.apply_batch(&batch);
        assert_eq!(m, before);
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = EnergyCategory::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), NUM_CATEGORIES);
    }
}
