//! Network statistics: throughput, latency and measurement windows.
//!
//! The paper measures at steady state: "ten thousand iterations were
//! performed eliminating transients in the first thousand iterations."
//! [`NetworkStats`] mirrors that: counters accumulate from simulation
//! start, and a *measurement window* opened after warmup feeds the
//! reported metrics.  Latency is only recorded for packets created inside
//! the window, so warmup transients never contaminate it.

use serde::{Deserialize, Serialize};
use wimnet_telemetry::LogHistogram;

use crate::packet::ArrivedPacket;

/// Throughput and latency accounting for one simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkStats {
    // Lifetime counters.
    injected_packets: u64,
    injected_flits: u64,
    delivered_packets: u64,
    delivered_flits: u64,
    // Measurement window.
    window_start: Option<u64>,
    window_cycles: u64,
    window_delivered_packets: u64,
    window_delivered_flits: u64,
    window_injected_packets: u64,
    window_injected_flits: u64,
    latency_sum: u64,
    latency_count: u64,
    latency_max: u64,
    latency_min: u64,
    latency_hist: LogHistogram,
}

impl Default for NetworkStats {
    fn default() -> Self {
        NetworkStats {
            injected_packets: 0,
            injected_flits: 0,
            delivered_packets: 0,
            delivered_flits: 0,
            window_start: None,
            window_cycles: 0,
            window_delivered_packets: 0,
            window_delivered_flits: 0,
            window_injected_packets: 0,
            window_injected_flits: 0,
            latency_sum: 0,
            latency_count: 0,
            latency_max: 0,
            latency_min: u64::MAX,
            latency_hist: LogHistogram::new(),
        }
    }
}

impl NetworkStats {
    /// Fresh, empty statistics.
    pub fn new() -> Self {
        NetworkStats::default()
    }

    /// Opens the measurement window at `cycle` (call after warmup).
    pub fn begin_measurement(&mut self, cycle: u64) {
        self.window_start = Some(cycle);
        self.window_cycles = 0;
        self.window_delivered_packets = 0;
        self.window_delivered_flits = 0;
        self.window_injected_packets = 0;
        self.window_injected_flits = 0;
        self.latency_sum = 0;
        self.latency_count = 0;
        self.latency_max = 0;
        self.latency_min = u64::MAX;
        self.latency_hist = LogHistogram::new();
    }

    /// The cycle the measurement window opened at, if it has.
    pub fn window_start(&self) -> Option<u64> {
        self.window_start
    }

    /// Called once per simulated cycle.
    pub fn on_cycle(&mut self) {
        if self.window_start.is_some() {
            self.window_cycles += 1;
        }
    }

    /// Batched form of [`NetworkStats::on_cycle`] for idle fast-forward:
    /// integer addition, so skipping `n` cycles at once is bit-identical
    /// to `n` single calls.
    pub(crate) fn on_cycles(&mut self, n: u64) {
        if self.window_start.is_some() {
            self.window_cycles += n;
        }
    }

    /// Records a packet injection of `flits` flits.
    pub(crate) fn on_inject(&mut self, flits: u32) {
        self.injected_packets += 1;
        self.injected_flits += u64::from(flits);
        if self.window_start.is_some() {
            self.window_injected_packets += 1;
            self.window_injected_flits += u64::from(flits);
        }
    }

    /// Records a delivered packet.
    pub fn on_deliver(&mut self, packet: &ArrivedPacket) {
        self.delivered_packets += 1;
        self.delivered_flits += u64::from(packet.flits);
        if let Some(start) = self.window_start {
            self.window_delivered_packets += 1;
            self.window_delivered_flits += u64::from(packet.flits);
            if packet.created_at >= start {
                let lat = packet.latency();
                self.latency_sum += lat;
                self.latency_count += 1;
                self.latency_max = self.latency_max.max(lat);
                self.latency_min = self.latency_min.min(lat);
                self.latency_hist.record(lat);
            }
        }
    }

    /// Packets injected since simulation start.
    pub fn packets_injected(&self) -> u64 {
        self.injected_packets
    }

    /// Packets delivered since simulation start.
    pub fn packets_delivered(&self) -> u64 {
        self.delivered_packets
    }

    /// Flits delivered since simulation start.
    pub fn flits_delivered(&self) -> u64 {
        self.delivered_flits
    }

    /// Packets delivered inside the measurement window.
    pub fn window_packets_delivered(&self) -> u64 {
        self.window_delivered_packets
    }

    /// Flits delivered inside the measurement window.
    pub fn window_flits_delivered(&self) -> u64 {
        self.window_delivered_flits
    }

    /// Packets injected inside the measurement window.
    pub fn window_packets_injected(&self) -> u64 {
        self.window_injected_packets
    }

    /// Cycles elapsed inside the measurement window.
    pub fn window_cycles(&self) -> u64 {
        self.window_cycles
    }

    /// Mean end-to-end packet latency in cycles over the window
    /// (`None` until a packet created in the window is delivered).
    pub fn average_latency(&self) -> Option<f64> {
        (self.latency_count > 0).then(|| self.latency_sum as f64 / self.latency_count as f64)
    }

    /// Maximum packet latency observed in the window.
    pub fn max_latency(&self) -> Option<u64> {
        (self.latency_count > 0).then_some(self.latency_max)
    }

    /// Minimum packet latency observed in the window.
    pub fn min_latency(&self) -> Option<u64> {
        (self.latency_count > 0).then_some(self.latency_min)
    }

    /// Number of packets contributing to the latency statistics.
    pub fn latency_samples(&self) -> u64 {
        self.latency_count
    }

    /// Full log-linear latency histogram over window packets —
    /// mergeable across shards, rank-exact percentiles below 128
    /// cycles, ≤ 1/64 relative error above.
    pub fn latency_histogram(&self) -> &LogHistogram {
        &self.latency_hist
    }

    /// Latency percentile from the full log-linear histogram, e.g.
    /// `latency_percentile(0.99)` for the p99: rank-exact (values,
    /// not power-of-two bounds — the pre-telemetry approximation this
    /// replaced), clamped to the observed maximum.  `None` until at
    /// least one packet was measured.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < q <= 1.0`.
    pub fn latency_percentile(&self, q: f64) -> Option<u64> {
        self.latency_hist.percentile(q)
    }

    /// Delivered flits per cycle per endpoint over the window — the
    /// throughput metric behind the paper's "bandwidth per core".
    pub fn accepted_flits_per_cycle_per_node(&self, nodes: usize) -> f64 {
        if self.window_cycles == 0 || nodes == 0 {
            return 0.0;
        }
        self.window_delivered_flits as f64 / self.window_cycles as f64 / nodes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::PacketId;
    use wimnet_topology::NodeId;

    fn arrived(created: u64, arrived: u64, flits: u32) -> ArrivedPacket {
        ArrivedPacket {
            id: PacketId(0),
            src: NodeId(0),
            dest: NodeId(1),
            flits,
            created_at: created,
            arrived_at: arrived,
        }
    }

    #[test]
    fn lifetime_counters_accumulate() {
        let mut s = NetworkStats::new();
        s.on_inject(64);
        s.on_inject(64);
        s.on_deliver(&arrived(0, 100, 64));
        assert_eq!(s.packets_injected(), 2);
        assert_eq!(s.packets_delivered(), 1);
        assert_eq!(s.flits_delivered(), 64);
    }

    #[test]
    fn warmup_packets_do_not_pollute_latency() {
        let mut s = NetworkStats::new();
        s.begin_measurement(1000);
        // Created during warmup: counted for throughput, not latency.
        s.on_deliver(&arrived(500, 1200, 64));
        assert_eq!(s.window_packets_delivered(), 1);
        assert_eq!(s.average_latency(), None);
        // Created in the window: counted for both.
        s.on_deliver(&arrived(1100, 1400, 64));
        assert_eq!(s.average_latency(), Some(300.0));
        assert_eq!(s.latency_samples(), 1);
    }

    #[test]
    fn latency_extremes_and_histogram() {
        let mut s = NetworkStats::new();
        s.begin_measurement(0);
        s.on_deliver(&arrived(0, 10, 1));
        s.on_deliver(&arrived(0, 1000, 1));
        assert_eq!(s.min_latency(), Some(10));
        assert_eq!(s.max_latency(), Some(1000));
        assert_eq!(s.average_latency(), Some(505.0));
        let hist = s.latency_histogram();
        assert_eq!(hist.count(), 2);
        assert_eq!(hist.min(), Some(10));
        assert_eq!(hist.max(), Some(1000));
        // 10 sits in an exact (width-1) bucket; 1000 in a width-16 one.
        let buckets: Vec<(u64, u64)> = hist.nonzero_buckets().collect();
        assert_eq!(buckets[0], (10, 1));
        assert!(buckets[1].0 >= 1000 && buckets[1].0 - 1000 <= 1000 / 64);
    }

    #[test]
    fn throughput_per_node() {
        let mut s = NetworkStats::new();
        s.begin_measurement(0);
        for _ in 0..100 {
            s.on_cycle();
        }
        s.on_deliver(&arrived(0, 50, 64));
        s.on_deliver(&arrived(0, 80, 64));
        // 128 flits / 100 cycles / 4 nodes.
        assert!((s.accepted_flits_per_cycle_per_node(4) - 0.32).abs() < 1e-12);
        assert_eq!(s.accepted_flits_per_cycle_per_node(0), 0.0);
    }

    #[test]
    fn percentiles_from_histogram() {
        let mut s = NetworkStats::new();
        s.begin_measurement(0);
        assert_eq!(s.latency_percentile(0.5), None);
        // 9 fast packets and one slow one.
        for _ in 0..9 {
            s.on_deliver(&arrived(0, 10, 1));
        }
        s.on_deliver(&arrived(0, 900, 1));
        // p50 is rank-exact (the old log₂ histogram could only say
        // "at most 15" here).
        assert_eq!(s.latency_percentile(0.5), Some(10));
        // p100 is clamped to the observed maximum.
        assert_eq!(s.latency_percentile(1.0), Some(900));
        assert!(s.latency_percentile(0.95).unwrap() >= 10);
    }

    #[test]
    #[should_panic]
    fn zero_quantile_panics() {
        NetworkStats::new().latency_percentile(0.0);
    }

    #[test]
    fn begin_measurement_resets_window_only() {
        let mut s = NetworkStats::new();
        s.on_inject(8);
        s.begin_measurement(10);
        assert_eq!(s.packets_injected(), 1, "lifetime counter survives");
        assert_eq!(s.window_packets_injected(), 0);
        s.on_inject(8);
        assert_eq!(s.window_packets_injected(), 1);
    }
}
