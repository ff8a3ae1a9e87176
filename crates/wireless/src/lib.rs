//! The 60 GHz mm-wave wireless interconnect: physical layer and MAC.
//!
//! This crate supplies everything §III.B–§III.D of the paper describe:
//!
//! * [`antenna`] — the zigzag on-chip antenna (paper refs \[5\]\[11\]):
//!   compact, CMOS-compatible, non-directional, 16 GHz of bandwidth
//!   around 60 GHz, with a millimetre-wave path-loss model.
//! * [`transceiver`] — the non-coherent OOK transceiver adopted from ref
//!   \[6\]: 16 Gbps, 2.3 pJ/bit, BER < 10⁻¹⁵, 0.3 mm², with power-gated
//!   ("sleepy", ref \[17\]) receiver states.
//! * [`phy`] — non-coherent OOK SNR/BER relations and flit-error
//!   probabilities, used both to validate the link budget and to inject
//!   bit errors for robustness experiments.
//! * [`control_mac`] — **the paper's proposed MAC**: each WI broadcasts a
//!   control packet carrying `(DestWI, PktID, NumFlits)` 3-tuples at the
//!   start of its turn, enabling partial packet transmission while
//!   preserving wormhole integrity, and letting non-addressed receivers
//!   sleep through the data phase.
//! * [`token_mac`] — the baseline token MAC (ref \[7\]): the token holder
//!   may transmit only *whole* packets, which inflates WI buffer
//!   requirements and hence static power.
//! * [`parallel_mac`] — concurrent per-WI links: the channel model the
//!   paper's *evaluation* magnitudes imply (see `docs/experiments.md`
//!   §3.1 on the §III.D ↔ §IV contradiction).
//!
//! All media implement [`wimnet_noc::SharedMedium`] and plug into the
//! engine with [`wimnet_noc::Network::attach_medium`].
//!
//! # Idle fast-forward
//!
//! All three media are **quiescence-capable**: when every WI transmit
//! buffer is empty and nothing is in flight, their idle evolution is
//! view-independent — the token machine passes periodically, the
//! control-packet machine broadcasts header-only passes periodically,
//! and the parallel links merely rotate their round-robin pointer — so
//! the engine may skip idle stretches while replaying state changes
//! and energy charges bit-identically
//! ([`wimnet_noc::SharedMedium::is_quiescent`] /
//! [`wimnet_noc::SharedMedium::idle_step`]; closed-form
//! [`ControlPacketMac::idle_advance`] / [`TokenMac::idle_advance`]).
//! The replay obligation is proven property-based in
//! `tests/idle_replay.rs`; the full contract lives in
//! `docs/fast_forward.md`.
//!
//! # Example
//!
//! ```
//! use wimnet_wireless::{ChannelConfig, ControlPacketMac};
//!
//! let cfg = ChannelConfig::paper(8); // 8 wireless interfaces
//! // 32-bit flits on a 16 Gbps channel at 2.5 GHz: 5 cycles per flit.
//! assert_eq!(cfg.cycles_per_flit(), 5);
//! let mac = ControlPacketMac::new(cfg);
//! assert_eq!(mac.stats().turns, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod antenna;
pub mod config;
pub mod control_mac;
pub mod parallel_mac;
pub mod phy;
mod shadow;
pub mod token_mac;
pub mod transceiver;

pub use antenna::ZigzagAntenna;
pub use config::ChannelConfig;
pub use control_mac::ControlPacketMac;
pub use parallel_mac::ParallelMac;
pub use phy::flit_error_probability;
pub use token_mac::TokenMac;
pub use transceiver::TransceiverSpec;

/// Shared MAC bookkeeping exposed by both MAC implementations.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize,
)]
pub struct MacStats {
    /// Completed transmission turns (control MAC) or token visits
    /// (token MAC).
    pub turns: u64,
    /// Turns that carried no data (header-only control packet / token
    /// pass).
    pub passes: u64,
    /// Control or token flits broadcast.
    pub control_flits: u64,
    /// Data flits delivered over the channel.
    pub data_flits: u64,
    /// Flits corrupted by channel errors and retransmitted.
    pub retransmissions: u64,
}

/// The telemetry view of a MAC's bookkeeping: the same counts, with
/// retransmissions reported as the medium's collisions.
impl From<MacStats> for wimnet_telemetry::MacCounters {
    fn from(stats: MacStats) -> Self {
        wimnet_telemetry::MacCounters {
            turns: stats.turns,
            passes: stats.passes,
            control_flits: stats.control_flits,
            data_flits: stats.data_flits,
            collisions: stats.retransmissions,
        }
    }
}
