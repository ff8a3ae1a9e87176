//! Energy modelling for the `wimnet` multichip interconnect simulator.
//!
//! This crate provides the three building blocks every other `wimnet` crate
//! uses to account for energy:
//!
//! * [`units`] — strongly typed physical quantities ([`Energy`], [`Power`],
//!   [`Frequency`]) so that picojoules are never accidentally added to
//!   nanojoules or watts.
//! * [`model`] — the [`EnergyModel`]: every per-bit, per-millimetre and
//!   per-cycle constant used by the SOCC'17 paper, with the paper's cited
//!   values as defaults (wireless transceiver 2.3 pJ/bit, serial chip-to-chip
//!   I/O 5 pJ/bit, HBM-style wide I/O 6.5 pJ/bit, 65 nm switches at 2.5 GHz).
//! * [`meter`] — the [`EnergyMeter`]: per-category accumulation with a
//!   conservation invariant (the category breakdown always sums to the
//!   reported total).
//!
//! # Example
//!
//! ```
//! use wimnet_energy::{EnergyModel, EnergyMeter, EnergyCategory};
//!
//! let model = EnergyModel::paper_65nm();
//! let mut meter = EnergyMeter::new();
//!
//! // A 64-flit, 32-bit-per-flit packet crosses one wireless hop.
//! let bits = 64 * 32;
//! meter.add(EnergyCategory::WirelessTx, model.wireless_tx(bits));
//! meter.add(EnergyCategory::WirelessRx, model.wireless_rx(bits));
//!
//! // The paper's transceiver dissipates 2.3 pJ/bit in total.
//! let pj = meter.total().picojoules();
//! assert!((pj - 2.3 * bits as f64).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod meter;
pub mod model;
pub mod units;

pub use meter::{ChargeBatch, EnergyBreakdown, EnergyCategory, EnergyMeter};
pub use model::EnergyModel;
pub use units::{Energy, Frequency, Power};
