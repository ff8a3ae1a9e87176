//! The pinned API surface: the only module that names a `wimnet_*`
//! crate.
//!
//! Every other module of the benchmark imports the simulator through
//! here, so a benchmark PR that follows an API consolidation (ROADMAP
//! items 2 and 3b: one stepper, one sweep entry point, one envelope
//! store) edits this file and nothing else.  Types are re-exported
//! as-is; the entry points those roadmap items are expected to reshape
//! get a thin wrapper with the benchmark's own, stable signature.

pub use rustc_hash::FxHashMap;

pub use wimnet_core::{
    Catalog, CheckpointStore, CoreError, Experiment, Fingerprint, MacKind, MultichipSystem,
    RunOutcome, Scale, ScenarioGrid, ScenarioPoint, Snapshot, SystemConfig, TelemetryConfig,
    WirelessModel, ENGINE_VERSION,
};
pub use wimnet_energy::{ChargeBatch, Energy, EnergyCategory};
pub use wimnet_memory::{
    AccessKind, AddressMap, Completion, MemRequest, MemoryController, SchedulerPolicy,
};
pub use wimnet_noc::{
    MediumActions, MediumView, Network, NocConfig, PacketDesc, PacketId, SharedMedium, WirelessMode,
};
pub use wimnet_routing::Routes;
pub use wimnet_telemetry::{MacCounters, TelemetrySummary, TurnRecord};
pub use wimnet_topology::{Architecture, MultichipLayout, NodeId};
pub use wimnet_traffic::{
    profiles, AddressStream, AddressStreamSpec, AppWorkload, Endpoint, InjectionProcess,
    MessageKind, TrafficEvent, UniformRandom, Workload,
};
pub use wimnet_wireless::{ChannelConfig, ControlPacketMac, ParallelMac, TokenMac};

/// The schema-free value tree `SharedMedium::state_value` speaks.
pub use serde::Value as StateValue;

/// Runs `experiments` one at a time per worker on the reference stepper.
pub fn pool_solo(experiments: &[Experiment], threads: usize) -> Result<Vec<RunOutcome>, CoreError> {
    wimnet_core::run_pool(experiments, threads, 1)
}

/// Runs `experiments` as `chunk`-wide replica batches on the fast stepper.
pub fn pool_batched(
    experiments: &[Experiment],
    threads: usize,
    chunk: usize,
) -> Result<Vec<RunOutcome>, CoreError> {
    wimnet_core::run_pool_batched(experiments, threads, chunk)
}

/// `(hits, misses, outcomes)` of one catalog-backed run of `grid`.
pub fn run_cached(
    grid: &ScenarioGrid,
    catalog: &Catalog,
    threads: usize,
) -> Result<(usize, usize, Vec<RunOutcome>), CoreError> {
    let sweep = grid.run_cached(catalog, threads, 1)?;
    Ok((sweep.hits, sweep.misses, sweep.outcomes))
}

/// Worker threads the pool workloads use: every available core.
pub fn host_threads() -> usize {
    wimnet_core::sweeps::default_threads()
}

/// The file a catalog entry for `fp` lives in.
pub fn catalog_entry_path(catalog: &Catalog, fp: &Fingerprint) -> std::path::PathBuf {
    catalog.dir().join(format!("{}.json", fp.hex()))
}

/// The file the checkpoint for `fp` lives in.
pub fn checkpoint_entry_path(store: &CheckpointStore, fp: &Fingerprint) -> std::path::PathBuf {
    store.dir().join(format!("{}.ckpt.json", fp.hex()))
}
