//! The SOCC'17 wireless multichip interconnection framework.
//!
//! This crate is the paper's primary contribution assembled from the
//! `wimnet` substrates: it builds complete multichip systems
//! ([`MultichipSystem`]) for the three compared architectures, drives
//! them with workloads, and runs the experiments and sweeps behind the
//! paper's evaluation (§IV).
//!
//! * [`system`] — [`SystemConfig`] (every §IV parameter in one place)
//!   and [`MultichipSystem`] (topology + routing + engine + wireless
//!   medium + memory stacks, with request/reply service).
//! * [`metrics`] — [`RunOutcome`]: peak bandwidth per core, average
//!   packet energy, average packet latency and energy breakdowns.
//! * [`experiments`] — the [`Experiment`] runner (a configuration plus
//!   a workload) and the [`Scale`] it runs at; the figures themselves
//!   are rows of the `wimnet-bench` figure table.
//! * [`sweeps`] — declarative [`ScenarioGrid`] cartesian products, the
//!   work-stealing pool ([`run_pool`]) that executes grids larger than
//!   the core count, and the three ways to run a grid: `run` (uncached),
//!   [`ScenarioGrid::run_cached_with`](sweeps::ScenarioGrid::run_cached_with)
//!   (through the catalog, shaped by [`SweepOptions`]) and its
//!   whole-grid shorthand `run_cached` (see `docs/sweeps.md`).
//! * [`catalog`] — the fingerprint-keyed on-disk result cache behind
//!   `run_cached_with`: deterministic outcomes memoized under
//!   (scenario bytes, engine version) keys, making sweeps resumable and
//!   shardable (front-ended by the `sweep` CLI in `wimnet-bench`).
//! * [`checkpoint`] — full-engine [`Snapshot`]s and the
//!   [`CheckpointStore`]: snapshot → restore → run is bit-identical to
//!   an uninterrupted run, so long sweeps survive kills mid-point and
//!   resume from the latest cadence mark (see `docs/checkpoint.md`).
//!   Both stores are one crate-private file discipline (atomic writes,
//!   validate-or-quarantine reads) plus an envelope type each.
//! * [`report`] — plain-text tables and CSV output for the harness.
//!
//! # Quickstart
//!
//! ```
//! use wimnet_core::{Experiment, SystemConfig};
//! use wimnet_topology::Architecture;
//!
//! let config = SystemConfig::xcym(4, 4, Architecture::Wireless)
//!     .quick_test_profile();
//! let outcome = Experiment::uniform_random(&config, 0.005).run()?;
//! assert!(outcome.packets_delivered() > 0);
//! # Ok::<(), wimnet_core::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod checkpoint;
pub mod driver;
pub mod error;
pub mod experiments;
pub mod metrics;
pub mod report;
mod store;
pub mod sweeps;
pub mod system;

pub use catalog::{Catalog, CatalogEntry, Fingerprint, ENGINE_VERSION};
pub use checkpoint::{CheckpointEntry, CheckpointStore, Snapshot};
pub use driver::find_saturation_load;
pub use error::CoreError;
pub use experiments::{Experiment, Scale};
pub use metrics::RunOutcome;
pub use sweeps::{
    run_pool, run_pool_batched, run_pool_each, CachedSweep, ScenarioGrid, ScenarioPoint, SweepOptions,
};
pub use system::{MacKind, MultichipSystem, SystemConfig, SystemState, WirelessModel};
pub use wimnet_telemetry::TelemetryConfig;
