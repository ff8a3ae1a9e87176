//! Zero-observer-effect telemetry for the wimnet engine.
//!
//! The paper reports three end-of-run aggregates (peak bandwidth per
//! core, average packet energy, average packet latency, §IV); this
//! crate adds the *inside* view — which link saturates, which MAC turn
//! stalls, how queue depth approaches the congestion knee — without
//! perturbing a single engine decision.  The design contract
//! (`docs/observability.md`) is **observer effect = zero**: every hook
//! in the engine is a branch on an `Option` sink that only ever *reads*
//! decision state and increments sink-local counters.  Outcomes are
//! bit-identical whether telemetry is on or off, proven by
//! `tests/determinism.rs`.
//!
//! Building blocks:
//!
//! * [`LogHistogram`] — mergeable log-linear latency histogram, exact
//!   below 128 cycles and within 1/64 relative error above, replacing
//!   the old single-bucket p99 upper bound with rank-exact percentiles;
//! * [`TimeSeries`] — cycle-bucketed sampler that is fast-forward
//!   aware: jumped idle spans fill their buckets in closed form (all
//!   deltas are zero by the quiescence precondition), so sampling
//!   never forces full stepping;
//! * per-component counters ([`LinkCounters`], [`SwitchCounters`],
//!   [`MacCounters`], [`StackCounters`]) harvested from the engine's
//!   existing slab/active-set structures;
//! * [`NetworkTelemetry`] — the live sink the network owns behind an
//!   `Option`, plus the [`TraceBuffer`] of packet-hop waypoints and
//!   MAC turn intervals;
//! * [`TelemetrySummary`] — the serializable end-of-run digest carried
//!   by `RunOutcome::telemetry` through the catalog discipline;
//! * [`trace`] — Chrome-trace/Perfetto JSON export and the schema
//!   validator CI runs against `--trace` output.

#![forbid(unsafe_code)]

mod counters;
mod histogram;
mod series;
mod summary;
pub mod trace;

pub use counters::{
    LinkCounters, MacCounters, NetworkTelemetry, StackCounters, SwitchCounters, TraceBuffer,
    TurnRecord,
};
pub use histogram::LogHistogram;
pub use series::{SamplePoint, TimeSeries};
pub use summary::{LinkTelemetry, SeriesSummary, TelemetrySummary};
pub use trace::{validate_chrome_trace, ChromeTrace, TraceEvent};

/// How a run should observe itself.  Carried on `SystemConfig` behind
/// `#[serde(skip)]`, so it never enters scenario fingerprints — a
/// telemetry-on run and a telemetry-off run are the *same* scenario
/// (and, by the zero-observer-effect contract, the same outcome).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Attach the [`NetworkTelemetry`] sink (counters + time series).
    pub enabled: bool,
    /// Time-series bucket width in cycles.
    pub sample_interval: u64,
    /// Also record packet-hop waypoints and MAC turn intervals for
    /// Chrome-trace export (implies `enabled`).
    pub trace: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: false,
            sample_interval: 1024,
            trace: false,
        }
    }
}

impl TelemetryConfig {
    /// Counters + time series at the default interval.
    pub fn counters() -> Self {
        TelemetryConfig {
            enabled: true,
            ..TelemetryConfig::default()
        }
    }

    /// Counters, time series *and* trace recording.
    pub fn tracing() -> Self {
        TelemetryConfig {
            enabled: true,
            trace: true,
            ..TelemetryConfig::default()
        }
    }

    /// `true` when any observation is requested.
    pub fn any(&self) -> bool {
        self.enabled || self.trace
    }
}
