//! Traffic trace capture and deterministic replay.
//!
//! Any [`Workload`] can be recorded into a [`Trace`] and replayed later —
//! the mechanism the benchmark harness uses to run *identical* packet
//! sequences through different architectures, removing generator noise
//! from A/B comparisons.

use serde::{Deserialize, Serialize};

use crate::{TrafficEvent, Workload};

/// A recorded traffic event (alias of [`TrafficEvent`]; traces store
/// exactly what generators emit).
pub type TraceEvent = TrafficEvent;

/// An ordered traffic recording.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    name: String,
    cores: usize,
    stacks: usize,
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Records `cycles` cycles of `workload`.
    pub fn record(workload: &mut dyn Workload, cycles: u64) -> Self {
        let (cores, stacks) = workload.shape();
        let mut events = Vec::new();
        for now in 0..cycles {
            events.extend(workload.generate(now));
        }
        Trace {
            name: format!("{} [trace]", workload.name()),
            cores,
            stacks,
            events,
        }
    }

    /// The recorded events in injection order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A replaying [`Workload`] over this trace.
    pub fn replay(&self) -> TraceReplay<'_> {
        TraceReplay { trace: self, pos: 0 }
    }
}

/// Replays a [`Trace`] cycle by cycle.
#[derive(Debug, Clone)]
pub struct TraceReplay<'a> {
    trace: &'a Trace,
    pos: usize,
}

impl Workload for TraceReplay<'_> {
    /// Ignores `full`: a replay hands over what was recorded.
    fn generate_into(
        &mut self,
        now: u64,
        _full: &dyn Fn(usize) -> bool,
        out: &mut Vec<TrafficEvent>,
    ) {
        out.clear();
        while self.pos < self.trace.events.len()
            && self.trace.events[self.pos].cycle <= now
        {
            out.push(self.trace.events[self.pos]);
            self.pos += 1;
        }
    }

    fn name(&self) -> &str {
        &self.trace.name
    }

    fn shape(&self) -> (usize, usize) {
        (self.trace.cores, self.trace.stacks)
    }

    fn next_event_at(&self, now: u64) -> Option<u64> {
        // Replays know their future exactly: the next recorded event's
        // cycle (clamped to `now` for events already due).  When the
        // trace is exhausted there are no more events, ever; report
        // "not before u64::MAX" so drivers can skip straight to the end
        // of the measurement window.
        match self.trace.events.get(self.pos) {
            Some(e) => Some(e.cycle.max(now)),
            None => Some(u64::MAX),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::injection::InjectionProcess;
    use crate::uniform::UniformRandom;

    fn workload() -> UniformRandom {
        UniformRandom::new(
            16,
            2,
            0.2,
            InjectionProcess::Bernoulli { rate: 0.3 },
            8,
            123,
        )
    }

    #[test]
    fn record_then_replay_is_identical() {
        let mut w = workload();
        let trace = Trace::record(&mut w, 200);
        assert!(!trace.is_empty());

        // A fresh generator with the same seed produces the same events;
        // the replay must match it cycle for cycle.
        let mut fresh = workload();
        let mut replay = trace.replay();
        for now in 0..200 {
            assert_eq!(replay.generate(now), fresh.generate(now), "cycle {now}");
        }
        // Trace exhausted afterwards.
        assert!(replay.generate(1000).is_empty());
    }

    #[test]
    fn trace_preserves_shape_and_counts() {
        let mut w = workload();
        let trace = Trace::record(&mut w, 100);
        let mut replay = trace.replay();
        assert_eq!(replay.shape(), (16, 2));
        let replayed: usize = (0..100).map(|n| replay.generate(n).len()).sum();
        assert_eq!(replayed, trace.len());
        assert!(trace.events().iter().all(|e| e.flits >= 1));
        assert!(replay.name().contains("[trace]"));
    }

    #[test]
    fn empty_trace_replays_empty() {
        let trace = Trace::default();
        let mut r = trace.replay();
        assert!(r.generate(0).is_empty());
        assert_eq!(trace.len(), 0);
    }
}
