//! The serializable end-of-run telemetry digest.
//!
//! `RunOutcome::telemetry` carries a [`TelemetrySummary`] (as
//! `Option`, serde-defaulted so catalog entries written before this
//! layer existed still parse).  The summary is pure data — every field
//! round-trips through the serde shim, so the catalog/checkpoint
//! disciplines carry it unchanged.

use serde::{Deserialize, Serialize};

use crate::counters::{MacCounters, StackCounters, SwitchCounters};
use crate::histogram::LogHistogram;
use crate::series::SamplePoint;

/// One link's counters plus its identity, for reports.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LinkTelemetry {
    /// Link kind name (`mesh`, `serial`, `wide-io`, …).
    pub kind: String,
    /// Flits sent onto the link.
    pub flits: u64,
    /// Cycles the link was active.
    pub busy_cycles: u64,
    /// Busy cycles blocked on downstream credits.
    pub credit_stalls: u64,
    /// `busy_cycles` over the run length.
    pub utilization: f64,
}

/// The closed time series plus its bucketing parameters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SeriesSummary {
    /// Bucket width in cycles.
    pub interval: u64,
    /// Non-empty buckets, ascending.
    pub points: Vec<SamplePoint>,
}

/// Everything a run observed about itself.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySummary {
    /// Run length in cycles (the denominator behind utilizations).
    pub cycles: u64,
    /// Per-link counters, dense link order.
    pub links: Vec<LinkTelemetry>,
    /// Per-switch counters, switch-index order.
    pub switches: Vec<SwitchCounters>,
    /// Per-medium MAC counters (one entry per attached medium).
    pub macs: Vec<MacCounters>,
    /// Per-stack memory-controller counters.
    pub stacks: Vec<StackCounters>,
    /// Delivered-traffic/occupancy time series.
    pub series: SeriesSummary,
    /// Full latency histogram (window packets), mergeable across
    /// shards; the exact percentile source.
    pub latency: LogHistogram,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_roundtrips_through_serde() {
        let mut latency = LogHistogram::new();
        latency.record(17);
        latency.record(900);
        let s = TelemetrySummary {
            cycles: 5000,
            links: vec![LinkTelemetry {
                kind: "mesh".into(),
                flits: 64,
                busy_cycles: 70,
                credit_stalls: 3,
                utilization: 70.0 / 5000.0,
            }],
            switches: vec![SwitchCounters {
                grants: 64,
                active_cycles: 80,
                occupancy_integral: 200,
            }],
            macs: vec![MacCounters { turns: 4, data_flits: 64, ..Default::default() }],
            stacks: vec![StackCounters {
                requests: 9,
                queue_depth_integral: 45,
                mean_queue_depth: 45.0 / 5000.0,
            }],
            series: SeriesSummary {
                interval: 1024,
                points: vec![SamplePoint {
                    bucket: 0,
                    flits_delivered: 64,
                    packets_delivered: 1,
                    occupancy_integral: 301,
                }],
            },
            latency,
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: TelemetrySummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
