//! The metric tables: every name the benchmark reports, with its unit,
//! direction and — for end-to-end metrics — regression bound.
//!
//! `BENCHMARK.json` at the repository root must list exactly these
//! (checked by `tests/smoke.rs`); `README.md` defines each one.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric and the bound the comparator holds it to.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline value by which the metric may worsen.
    pub bound: f64,
    /// A worsening smaller than this, in the metric's unit, never
    /// counts (readings near zero move by large shares for nothing).
    pub floor: f64,
}

/// The widest bound `BENCHMARK.json` may state.  Every metric gets it:
/// the reference box's slow stretches reach 17–24 % on a whole run
/// (README, *Measured spread*), and a bound the box cannot hold would
/// only ever report the box.
const BOUND: f64 = 0.25;

/// The end-to-end metrics `BENCHMARK.json` lists, measured with tracing
/// off and reported for every workload.  `failed_share` is reported
/// beside them (see [`FAILED_SHARE`]).
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: BOUND,
        floor: 0.002,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: BOUND,
        floor: 0.0,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: BOUND,
        floor: 0.0,
    },
    EndToEnd {
        name: "sim_cycles_per_s",
        unit: "cycles/s",
        better: Better::Higher,
        bound: BOUND,
        floor: 0.0,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: BOUND,
        floor: 2.0,
    },
];

/// The sixth end-to-end metric: failed ÷ attempted operations.  Any
/// increase is a regression.  It is 0 on every workload by design, so
/// `BENCHMARK.json` — whose metrics must never read 0 — carries it as
/// the result line's `failed`/`attempted` counts instead.
pub const FAILED_SHARE: EndToEnd = EndToEnd {
    name: "failed_share",
    unit: "ratio",
    better: Better::Lower,
    bound: 0.0,
    floor: 0.0,
};

/// A per-layer metric from the traced run.  No bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Every per-layer metric.  A workload that never enters a layer
/// reports 0 for that layer's metrics.
pub const PER_LAYER: [PerLayer; 72] = [
    // Build cost per layer (moves `setup_s`).
    lower("topology.build_us", "us"),
    lower("routing.build_us", "us"),
    lower("noc.build_us", "us"),
    lower("memory.build_us", "us"),
    lower("traffic.build_us", "us"),
    // The engine step (moves `wall_s` on the loaded workloads).
    lower("noc.step_share", "ratio"),
    lower("noc.step_ns_per_call", "ns"),
    lower("noc.ns_per_flit_hop", "ns"),
    lower("noc.ns_per_switch_active_cycle", "ns"),
    higher("noc.grants_per_active_cycle", "ratio"),
    lower("noc.link_credit_stall_share", "ratio"),
    lower("noc.steps", "count"),
    lower("noc.flit_hops", "count"),
    lower("noc.switch_grants", "count"),
    lower("noc.switch_active_cycles", "count"),
    // Injection and delivery (moves `wall_s` on `memory_reads`).
    lower("noc.inject_share", "ratio"),
    lower("noc.inject_ns_per_packet", "ns"),
    lower("noc.drain_share", "ratio"),
    // Idle fast-forward (moves `wall_s` on `idle_ff` only).
    lower("noc.fast_forward_share", "ratio"),
    lower("noc.fast_forward_ns_per_jump", "ns"),
    lower("noc.ff_jumps", "count"),
    higher("noc.ff_cycle_share", "ratio"),
    higher("noc.ff_mean_jump_cycles", "cycles"),
    higher("core.system.ff_gate_hit_share", "ratio"),
    // The MAC phase.
    lower("wireless.step_share", "ratio"),
    lower("wireless.step_ns_per_call", "ns"),
    lower("wireless.idle_advance_ns_per_jump", "ns"),
    lower("wireless.turns", "count"),
    lower("wireless.pass_share", "ratio"),
    lower("wireless.control_flits_per_data_flit", "ratio"),
    // The memory controllers.
    lower("memory.step_share", "ratio"),
    lower("memory.ns_per_controller_step", "ns"),
    lower("memory.ns_per_request", "ns"),
    lower("memory.requests", "count"),
    lower("memory.mean_queue_depth", "count"),
    higher("memory.page_hit_rate", "ratio"),
    lower("memory.enqueue_bounce_share", "ratio"),
    // Workload generation.
    lower("traffic.generate_share", "ratio"),
    lower("traffic.generate_ns_per_call", "ns"),
    lower("traffic.next_event_share", "ratio"),
    lower("traffic.next_event_ns_per_call", "ns"),
    lower("traffic.offered_packets", "count"),
    lower("traffic.refused_share", "ratio"),
    // The meter.
    lower("energy.meter_ops", "count"),
    lower("energy.meter_charges", "count"),
    lower("energy.ops_per_charge", "ratio"),
    lower("energy.charge_ns_per_op", "ns"),
    // Validity of the trace itself.
    lower("core.system.driver_share", "ratio"),
    lower("core.system.outside_vs_run_ratio", "ratio"),
    lower("core.metrics.collect_us", "us"),
    lower("trace.overhead_ratio", "ratio"),
    lower("telemetry.counters_overhead_ratio", "ratio"),
    // The sweep machinery (`sweep_batched`).
    higher("core.sweeps.points_per_s", "1/s"),
    higher("core.sweeps.pool_efficiency", "ratio"),
    lower("core.sweeps.grid_expand_us", "us"),
    higher("noc.fast_step_speedup", "ratio"),
    higher("core.replica.lockstep_gain", "ratio"),
    // Persistence (`persist`).
    lower("core.catalog.fingerprint_us_per_point", "us"),
    lower("core.catalog.store_us_per_op", "us"),
    lower("core.catalog.lookup_us_per_op", "us"),
    lower("core.catalog.miss_us_per_op", "us"),
    lower("core.catalog.quarantine_us_per_op", "us"),
    lower("core.catalog.entry_bytes", "bytes"),
    higher("core.catalog.warm_points_per_s", "1/s"),
    lower("core.checkpoint.snapshot_us", "us"),
    lower("core.checkpoint.store_ms_per_op", "ms"),
    lower("core.checkpoint.lookup_ms_per_op", "ms"),
    lower("core.checkpoint.restore_us", "us"),
    lower("core.checkpoint.snapshot_bytes", "bytes"),
    lower("core.checkpoint.run_overhead_ratio", "ratio"),
    higher("serde_json.serialize_mb_per_s", "MB/s"),
    higher("serde_json.parse_mb_per_s", "MB/s"),
];

/// The unit of per-layer metric `name`.
///
/// # Panics
///
/// Panics on a name that is not in [`PER_LAYER`]: every reported layer
/// metric must be a declared one.
pub fn per_layer_unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("undeclared per-layer metric `{name}`"))
        .unit
}
