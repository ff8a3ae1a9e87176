//! Experiment metrics: the paper's three reported quantities.
//!
//! §IV: "we evaluate the performance and energy efficiency … in terms of
//! peak achievable bandwidth per core, average packet energy, and
//! average packet latency."

use serde::{Deserialize, Serialize};

use wimnet_energy::EnergyBreakdown;
use wimnet_memory::MemoryStackStats;
use wimnet_noc::Network;
use wimnet_telemetry::TelemetrySummary;

use crate::system::SystemConfig;

/// The measured outcome of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Architecture label, e.g. `"4C4M (Wireless)"`.
    pub label: String,
    /// Workload name.
    pub workload: String,
    /// Cores in the system.
    pub cores: usize,
    /// Measured cycles.
    pub window_cycles: u64,
    /// Packets delivered inside the measurement window.
    pub window_packets: u64,
    /// Packets delivered since simulation start.
    pub total_packets: u64,
    /// Delivered bandwidth per core in Gbps ("peak achievable bandwidth
    /// per core" when driven at saturation).
    pub bandwidth_gbps_per_core: f64,
    /// Mean energy to move one packet source→destination, in nJ
    /// (total measured energy / packets delivered, §IV).
    pub avg_packet_energy_nj: Option<f64>,
    /// Mean end-to-end packet latency in cycles.
    pub avg_latency_cycles: Option<f64>,
    /// Worst packet latency in cycles.
    pub max_latency_cycles: Option<u64>,
    /// Median end-to-end latency in cycles, rank-exact from the full
    /// log-linear histogram (defaulted so pre-v9 catalog entries parse).
    #[serde(default)]
    pub p50_latency_cycles: Option<u64>,
    /// 99th-percentile latency, rank-exact from the full log-linear
    /// histogram.  Pre-v9 entries stored a power-of-two bucket upper
    /// *bound* here — the histogram upgrade is why ENGINE_VERSION
    /// moved to v9.
    pub p99_latency_cycles: Option<u64>,
    /// 99.9th-percentile latency, rank-exact (defaulted like `p50`).
    #[serde(default)]
    pub p999_latency_cycles: Option<u64>,
    /// Cycles the engine skipped via idle fast-forward (warmup +
    /// window) — zero on busy runs or with
    /// [`SystemConfig::disable_fast_forward`] set.  Surfaces how much
    /// of a run was provably idle; see `docs/fast_forward.md`.
    pub fast_forwarded_cycles: u64,
    /// Exact-sum meter operations performed while the window advanced
    /// (each `add`/`add_repeated` call counts once: MAC, memory and
    /// driver charges; flit hops and leakage are counted and priced at
    /// read-out, which is not an operation).  Host-work telemetry, the
    /// only field here that describes the simulator rather than the
    /// simulated system.  With [`RunOutcome::meter_charges`] it
    /// surfaces the accounting win: `meter_charges − meter_ops` is the
    /// number of per-charge adds the counters and closed forms avoided.
    #[serde(default)]
    pub meter_ops: u64,
    /// Per-cycle charge quanta those operations accounted (an
    /// `add_repeated` of count `k` contributes `k`).
    #[serde(default)]
    pub meter_charges: u64,
    /// Energy by category over the window.
    pub energy: EnergyBreakdown,
    /// Per-stack memory-controller statistics (queue occupancy,
    /// bank-level parallelism, page hit/empty/miss breakdown) since
    /// simulation start — see `docs/memory.md` and
    /// [`crate::report::format_memory_table`].
    pub memory: Vec<MemoryStackStats>,
    /// End-of-run telemetry digest — per-link/switch/MAC/stack
    /// counters, the delivery time series and the full latency
    /// histogram — when the run observed itself
    /// (`SystemConfig::telemetry`); `None`, and absent from the JSON,
    /// otherwise.  Serde-defaulted so pre-v9 catalog entries parse.
    #[serde(default)]
    pub telemetry: Option<TelemetrySummary>,
}

impl RunOutcome {
    /// Collects the outcome from a finished network run.
    pub fn collect(
        config: &SystemConfig,
        workload: &str,
        net: &Network,
        cores: usize,
        memory: Vec<MemoryStackStats>,
        telemetry: Option<TelemetrySummary>,
    ) -> Self {
        let stats = net.stats();
        let flits_per_cycle_per_core =
            stats.accepted_flits_per_cycle_per_node(cores);
        let bandwidth_gbps_per_core = flits_per_cycle_per_core
            * f64::from(config.flit_bits)
            * config.energy.clock.gigahertz();
        let window_packets = stats.window_packets_delivered();
        let meter = net.meter();
        let avg_packet_energy_nj = (window_packets > 0)
            .then(|| meter.total().nanojoules() / window_packets as f64);
        RunOutcome {
            label: config.label(),
            workload: workload.to_string(),
            cores,
            window_cycles: stats.window_cycles(),
            window_packets,
            total_packets: stats.packets_delivered(),
            bandwidth_gbps_per_core,
            avg_packet_energy_nj,
            avg_latency_cycles: stats.average_latency(),
            max_latency_cycles: stats.max_latency(),
            p50_latency_cycles: stats.latency_percentile(0.5),
            p99_latency_cycles: stats.latency_percentile(0.99),
            p999_latency_cycles: stats.latency_percentile(0.999),
            fast_forwarded_cycles: net.fast_forwarded_cycles(),
            meter_ops: meter.ops(),
            meter_charges: meter.charges(),
            energy: meter.breakdown(),
            memory,
            telemetry,
        }
    }

    /// Per-charge adds the hop/cycle counters and the repeated-charge
    /// closed forms avoided: the quanta accounted minus the meter
    /// operations performed while the run advanced.
    pub fn meter_adds_saved(&self) -> u64 {
        self.meter_charges.saturating_sub(self.meter_ops)
    }

    /// Packets delivered since simulation start.
    pub fn packets_delivered(&self) -> u64 {
        self.total_packets
    }

    /// Total measured energy in nJ.
    pub fn total_energy_nj(&self) -> f64 {
        self.energy.total.nanojoules()
    }

    /// Average packet energy, panicking when nothing was delivered —
    /// for experiment code where that would be a setup bug.
    ///
    /// # Panics
    ///
    /// Panics if no packet was delivered in the window.
    pub fn packet_energy_nj(&self) -> f64 {
        self.avg_packet_energy_nj
            .expect("no packets delivered in the measurement window")
    }

    /// Average latency, panicking when nothing was measured.
    ///
    /// # Panics
    ///
    /// Panics if no packet created inside the window was delivered.
    pub fn latency_cycles(&self) -> f64 {
        self.avg_latency_cycles
            .expect("no packets measured for latency")
    }
}
