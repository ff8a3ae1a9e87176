//! Cycle-accurate wormhole network-on-chip engine.
//!
//! This crate is the simulation substrate of the `wimnet` reproduction:
//! a synchronous, deterministic, cycle-stepped model of the paper's
//! interconnect fabric —
//!
//! * **wormhole switching** with per-packet virtual-channel allocation
//!   (§III.C; flow-control classics per the paper's ref \[16\]),
//! * **three-stage pipelined switches** (route compute → virtual-channel
//!   allocation → switch allocation + traversal; ref \[18\]),
//! * **8 virtual channels × 16-flit buffers** per port (§IV),
//! * **credit-based backpressure** on every wired hop,
//! * **rate-limited links** (single-cycle mesh wires, 15 Gbps serial I/O,
//!   128 Gbps wide memory I/O expressed as fractional flits per 2.5 GHz
//!   cycle), and
//! * a **shared-medium extension point** ([`SharedMedium`]) through which
//!   `wimnet-wireless` plugs the 16 Gbps mm-wave channel and its MAC.
//!
//! Energy is charged through `wimnet-energy` as flits move: switch
//! traversals, wire/serial/wide-I/O crossings per link kind, per-cycle
//! leakage, with the wireless categories delegated to the medium.
//!
//! The [`Network`] is built from a `wimnet-topology` layout plus
//! `wimnet-routing` forwarding tables; the experiment driver in
//! `wimnet-core` injects traffic and reads [`NetworkStats`].
//!
//! # Example
//!
//! ```
//! use wimnet_noc::{Network, NocConfig, PacketDesc};
//! use wimnet_routing::{Routes, RoutingPolicy};
//! use wimnet_topology::{Architecture, MultichipConfig, MultichipLayout};
//!
//! let layout = MultichipLayout::build(
//!     &MultichipConfig::xcym(4, 4, Architecture::Interposer),
//! )?;
//! let routes = Routes::build(layout.graph(), RoutingPolicy::default())?;
//! let mut net = Network::new(&layout, routes, NocConfig::paper())?;
//!
//! // Send one 64-flit packet from core 0 to memory stack 3.
//! let src = layout.core_nodes()[0];
//! let dst = layout.memory_nodes()[3];
//! net.inject(PacketDesc::new(src, dst, 64, 0));
//! for _ in 0..500 {
//!     net.step();
//! }
//! assert_eq!(net.stats().packets_delivered(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbiter;
pub mod error;
pub mod flit;
pub mod link;
pub mod network;
pub mod packet;
pub mod radio;
pub mod ring;
pub mod stats;
pub mod switch;
pub mod vc;

pub use error::NocError;
pub use flit::{Flit, FlitKind, FlitRun, PacketId};
pub use link::{Link, LinkDelivery};
pub use network::{Network, NetworkState, NocConfig, WirelessMode};
pub use packet::{ArrivedPacket, PacketDesc};
pub use radio::{MediumActions, MediumView, RadioId, SharedMedium};
pub use ring::RingSlab;
pub use stats::NetworkStats;
pub use switch::SwitchState;
pub use vc::{VcFabric, VcStage};
