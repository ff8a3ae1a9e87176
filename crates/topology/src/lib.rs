//! Multichip system topology for the `wimnet` simulator.
//!
//! This crate describes *structure and geometry only*: which switches exist,
//! how they are wired (mesh links, interposer links, serial chip-to-chip
//! I/O, wide memory I/O, wireless single-hop links), where every component
//! sits on the package in millimetres, and where the wireless interfaces
//! (WIs) are deployed.  Timing, energy and protocol behaviour are layered on
//! top by the `wimnet-routing`, `wimnet-noc` and `wimnet-wireless` crates.
//!
//! The central entry point is [`MultichipLayout::build`], which realises the
//! paper's `XCYM` naming scheme — `X` processing chips and `Y` in-package
//! memory stacks — for any of the three compared architectures
//! ([`Architecture::Substrate`], [`Architecture::Interposer`],
//! [`Architecture::Wireless`]).
//!
//! # Example
//!
//! ```
//! use wimnet_topology::{Architecture, MultichipConfig, MultichipLayout};
//!
//! // The paper's 4C4M wireless system: four 16-core chips + four stacks.
//! let config = MultichipConfig::xcym(4, 4, Architecture::Wireless);
//! let layout = MultichipLayout::build(&config)?;
//! assert_eq!(layout.core_nodes().len(), 64);
//! assert_eq!(layout.memory_nodes().len(), 4);
//! // One WI per 16-core chip plus one per memory stack.
//! assert_eq!(layout.wireless_interfaces().len(), 8);
//! # Ok::<(), wimnet_topology::TopologyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chip;
pub mod error;
pub mod geometry;
pub mod graph;
pub mod multichip;
pub mod render;

pub use chip::{ChipSpec, Cluster};
pub use error::TopologyError;
pub use geometry::Point;
pub use graph::{Edge, EdgeId, EdgeKind, Graph, Node, NodeId, NodeKind};
pub use render::ascii_map;
pub use multichip::{
    Architecture, MemorySpec, MultichipConfig, MultichipLayout, WiId, WirelessInterface,
};
