//! Per-component counters and the live network sink.
//!
//! Every counter here is written by an engine hook of the shape
//! `if let Some(t) = &mut self.telemetry { … }` — the disabled path is
//! one branch on `None`, and the enabled path only reads decision
//! state that the engine computed anyway (link quiescence, ST winners,
//! buffered-flit totals) and increments sink-local integers.  Nothing
//! in this module can reach an RNG, a meter, or an allocator on the
//! hot path after warm-up (the vectors are pre-sized at enable time;
//! trace buffers grow, but only when tracing was requested).

use serde::{Deserialize, Serialize};

use crate::series::TimeSeries;

/// One physical link's activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkCounters {
    /// Flits sent onto the link.
    pub flits: u64,
    /// Cycles the link was active (pipeline non-empty or credits
    /// outstanding).  Idle fast-forward only skips cycles where every
    /// link is quiescent, so this count is exact whether or not the
    /// run jumped.
    pub busy_cycles: u64,
    /// Busy cycles that delivered nothing while the link's credit
    /// window was exhausted — downstream backpressure.
    pub credit_stalls: u64,
}

/// One switch's allocation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwitchCounters {
    /// ST-stage grants won (one per flit movement).
    pub grants: u64,
    /// Cycles the switch held at least one buffered flit when the switch
    /// visits of the cycle began.  A switch the engine has put to sleep
    /// holds the same flits until its next visit (every arrival wakes
    /// it), so its skipped cycles are added in closed form then, and at
    /// read-out ([`NetworkTelemetry::settle_switches`]).
    pub active_cycles: u64,
    /// Sum of buffered flits over active cycles — divide by
    /// `active_cycles` for mean VC occupancy while loaded.
    pub occupancy_integral: u64,
}

/// One MAC/medium's arbitration counters, mapped from the per-MAC
/// statistics each implementation already keeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MacCounters {
    /// Completed transmission turns (token holds that sent data).
    pub turns: u64,
    /// Turns declined or passed without transmitting.
    pub passes: u64,
    /// Control flits exchanged (token passes, control packets).
    pub control_flits: u64,
    /// Data flits crossing the medium.
    pub data_flits: u64,
    /// Collisions/retransmissions observed.
    pub collisions: u64,
}

/// One memory stack's controller counters (harvested from the
/// controller statistics at collection time).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StackCounters {
    /// Requests the controller completed.
    pub requests: u64,
    /// Sum of queued requests over cycles — divide by the run length
    /// for mean queue depth (the controller's own integral, replayed
    /// in closed form across fast-forwarded spans).
    pub queue_depth_integral: u64,
    /// Mean queue depth over the run.
    pub mean_queue_depth: f64,
}

/// A head flit crossing one switch — the raw material of the
/// Chrome-trace per-hop spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct HopRecord {
    /// Packet id.
    pub packet: u64,
    /// Switch the head flit won ST at.
    pub node: u64,
    /// Cycle of the ST grant.
    pub cycle: u64,
}

/// One MAC transmission turn (token hold, control-arbitration win, or
/// parallel-channel grant) as a closed interval of cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TurnRecord {
    /// Radio (= MAC sequence position) holding the turn.
    pub radio: u64,
    /// First cycle of the turn.
    pub start: u64,
    /// Exclusive end cycle.
    pub end: u64,
    /// Data flits moved during the turn.
    pub flits: u64,
}

/// Raw trace material: hop waypoints plus packet terminals.  Only
/// allocated when tracing was requested; the exporter in
/// [`crate::trace`] turns it into Chrome-trace events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceBuffer {
    /// Head-flit ST waypoints in grant order.
    pub(crate) hops: Vec<HopRecord>,
    /// Completed packets as `(packet, src, dest, created_at, arrived_at)`.
    pub(crate) packets: Vec<(u64, u64, u64, u64, u64)>,
    /// MAC turn intervals drained from the media.
    pub turns: Vec<TurnRecord>,
}

/// The live sink a network owns behind an `Option`: per-component
/// counters sized at enable time, the fast-forward-aware time series,
/// and (when tracing) the raw trace buffers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkTelemetry {
    /// Indexed by dense link id.
    pub links: Vec<LinkCounters>,
    /// Indexed by switch index.
    pub switches: Vec<SwitchCounters>,
    /// Cycle-bucketed deliveries/occupancy.
    pub series: TimeSeries,
    /// Hop/turn recording, when tracing was requested.
    pub trace: Option<TraceBuffer>,
    /// Per switch asleep holding flits: the first cycle not yet counted
    /// and the flits it holds, constant until its next visit.
    asleep: Vec<Option<(u64, u64)>>,
}

impl NetworkTelemetry {
    /// A sink for a network of `links` links and `switches` switches,
    /// sampling every `interval` cycles; `trace` additionally records
    /// hop waypoints and MAC turns.
    pub fn new(links: usize, switches: usize, interval: u64, trace: bool) -> Self {
        NetworkTelemetry {
            links: vec![LinkCounters::default(); links],
            switches: vec![SwitchCounters::default(); switches],
            series: TimeSeries::new(interval),
            trace: trace.then(TraceBuffer::default),
            asleep: vec![None; switches],
        }
    }

    /// Counts switch `si`'s visit in cycle `now`, holding `buffered`
    /// flits, after the cycles it slept through.
    #[inline]
    pub fn switch_visited(&mut self, si: usize, now: u64, buffered: u64) {
        self.settle_switch(si, now);
        if buffered > 0 {
            let sc = &mut self.switches[si];
            sc.active_cycles += 1;
            sc.occupancy_integral += buffered;
        }
    }

    /// Switch `si` is skipped from cycle `from` on, holding `buffered`
    /// flits until its next visit.
    #[inline]
    pub fn switch_sleeps(&mut self, si: usize, from: u64, buffered: u64) {
        self.asleep[si] = (buffered > 0).then_some((from, buffered));
    }

    /// Brings every sleeping switch's counters up to cycle `now`: the
    /// read-out half of the closed form (idempotent).
    pub fn settle_switches(&mut self, now: u64) {
        for si in 0..self.asleep.len() {
            if let Some((_, buffered)) = self.asleep[si] {
                self.settle_switch(si, now);
                self.asleep[si] = Some((now, buffered));
            }
        }
    }

    /// Adds the cycles switch `si` slept through before `now` and
    /// forgets its mark.
    #[inline]
    fn settle_switch(&mut self, si: usize, now: u64) {
        if let Some((from, buffered)) = self.asleep[si].take() {
            let sc = &mut self.switches[si];
            sc.active_cycles += now - from;
            sc.occupancy_integral += (now - from) * buffered;
        }
    }

    /// Records a head-flit hop if tracing is on (no-op otherwise).
    #[inline]
    pub fn record_hop(&mut self, packet: u64, node: u64, cycle: u64) {
        if let Some(tb) = &mut self.trace {
            tb.hops.push(HopRecord { packet, node, cycle });
        }
    }

    /// Records a completed packet's terminals if tracing is on.
    #[inline]
    pub fn record_packet(&mut self, packet: u64, src: u64, dest: u64, created: u64, arrived: u64) {
        if let Some(tb) = &mut self.trace {
            tb.packets.push((packet, src, dest, created, arrived));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_sizes_components_at_enable_time() {
        let t = NetworkTelemetry::new(12, 5, 64, false);
        assert_eq!(t.links.len(), 12);
        assert_eq!(t.switches.len(), 5);
        assert!(t.trace.is_none());
        assert_eq!(t.series.interval(), 64);
    }

    #[test]
    fn a_sleeping_switch_counts_its_skipped_cycles_in_closed_form() {
        let mut t = NetworkTelemetry::new(0, 2, 64, false);
        // Visited in cycle 10 with 3 flits, asleep from 11, read out at
        // 15 (twice), visited again in 20 with 5.
        t.switch_visited(0, 10, 3);
        t.switch_sleeps(0, 11, 3);
        t.switch_sleeps(1, 11, 0);
        t.settle_switches(15);
        t.settle_switches(15);
        assert_eq!((t.switches[0].active_cycles, t.switches[0].occupancy_integral), (5, 15));
        t.switch_visited(0, 20, 5);
        assert_eq!((t.switches[0].active_cycles, t.switches[0].occupancy_integral), (11, 35));
        // An empty switch asleep counts nothing.
        t.settle_switches(30);
        assert_eq!(t.switches[1], SwitchCounters::default());
        assert_eq!(t.switches[0].active_cycles, 11);
    }

    #[test]
    fn hop_recording_is_gated_on_trace() {
        let mut off = NetworkTelemetry::new(1, 1, 64, false);
        off.record_hop(1, 2, 3);
        off.record_packet(1, 0, 2, 0, 9);
        assert!(off.trace.is_none());
        let mut on = NetworkTelemetry::new(1, 1, 64, true);
        on.record_hop(1, 2, 3);
        on.record_packet(1, 0, 2, 0, 9);
        let tb = on.trace.as_ref().unwrap();
        assert_eq!(tb.hops, vec![HopRecord { packet: 1, node: 2, cycle: 3 }]);
        assert_eq!(tb.packets, vec![(1, 0, 2, 0, 9)]);
    }
}
