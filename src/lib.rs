//! # wimnet
//!
//! A production-quality Rust reproduction of *"Energy-Efficient Wireless
//! Interconnection Framework for Multichip Systems with In-package Memory
//! Stacks"* (Shamim, Ahmed, Mansoor, Ganguly — IEEE SOCC 2017).
//!
//! This facade crate re-exports the full public API of the `wimnet-*`
//! workspace:
//!
//! * [`energy`] — energy units, technology constants, conservation-checked
//!   accounting.
//! * [`topology`] — XCYM multichip layouts (substrate / interposer /
//!   wireless) with explicit package geometry.
//! * [`routing`] — deterministic Dijkstra forwarding tables, tree and
//!   up*/down* deadlock-free policies.
//! * [`noc`] — the cycle-accurate wormhole NoC engine (virtual channels,
//!   credits, 3-stage pipelined switches, rate-limited links).
//! * [`wireless`] — 60 GHz OOK transceivers, the SOCC'17 control-packet MAC
//!   with partial packets and sleepy receivers, and the token MAC baseline.
//! * [`memory`] — in-package stacked DRAM with TSVs and wide I/O.
//! * [`traffic`] — uniform-random, permutation and SynFull-style
//!   application workloads.
//! * [`telemetry`] — zero-observer-effect counters, fast-forward-aware
//!   time series, mergeable latency histograms and Chrome-trace export
//!   (`docs/observability.md`).
//! * [`core`] — the paper's framework: architecture presets, full-system
//!   assembly, metrics, experiments and scenario sweeps.
//!
//! # Quickstart
//!
//! ```
//! use wimnet::core::{Experiment, SystemConfig};
//! use wimnet::topology::Architecture;
//!
//! // Simulate a small wireless multichip system under uniform traffic.
//! let config = SystemConfig::xcym(4, 4, Architecture::Wireless)
//!     .quick_test_profile();
//! let outcome = Experiment::uniform_random(&config, 0.005).run()?;
//! assert!(outcome.packets_delivered() > 0);
//! # Ok::<(), wimnet::core::CoreError>(())
//! ```

#![forbid(unsafe_code)]

pub use wimnet_core as core;
pub use wimnet_energy as energy;
pub use wimnet_memory as memory;
pub use wimnet_noc as noc;
pub use wimnet_routing as routing;
pub use wimnet_telemetry as telemetry;
pub use wimnet_topology as topology;
pub use wimnet_traffic as traffic;
pub use wimnet_wireless as wireless;
