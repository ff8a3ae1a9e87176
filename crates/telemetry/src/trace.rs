//! Chrome-trace/Perfetto JSON export and schema validation.
//!
//! The export follows the Trace Event Format's JSON object form:
//! a top-level `{"traceEvents": [...]}` whose entries are complete
//! (`"ph": "X"`) duration events with microsecond-convention `ts`/`dur`
//! fields — here both are in *cycles*, which Perfetto renders fine
//! (`"displayTimeUnit"` advertises the convention).  Packet lifetimes
//! become one process (`pid`) per source node with one track (`tid`)
//! per packet: an umbrella span from injection to delivery plus one
//! child span per switch hop.  MAC turns become a `pid` per medium
//! with a track per radio.
//!
//! [`validate_chrome_trace`] is the schema check CI runs against
//! `--trace` output: it parses the JSON and verifies every event
//! carries the required keys with the right shapes.

use serde::Value;

use crate::counters::{TraceBuffer, TurnRecord};

/// One complete ("X") trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Human-readable span name.
    pub name: String,
    /// Process id (grouping lane in the UI).
    pub pid: u64,
    /// Thread id (track within the process).
    pub tid: u64,
    /// Start timestamp, in cycles.
    pub ts: u64,
    /// Duration, in cycles.
    pub dur: u64,
}

impl TraceEvent {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("name".into(), Value::Str(self.name.clone())),
            ("ph".into(), Value::Str("X".into())),
            ("ts".into(), Value::UInt(self.ts)),
            ("dur".into(), Value::UInt(self.dur)),
            ("pid".into(), Value::UInt(self.pid)),
            ("tid".into(), Value::UInt(self.tid)),
        ])
    }
}

/// A trace under assembly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChromeTrace {
    events: Vec<TraceEvent>,
}

/// Packet spans group under process ids offset by this, one per source
/// node; MAC turn spans use `pid` = medium index directly (media are
/// few, nodes are many, so the ranges stay disjoint).
const PACKET_PID_BASE: u64 = 1000;

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Builds the full trace from a drained [`TraceBuffer`]: per-hop
    /// spans and inject→deliver umbrellas for every completed packet,
    /// plus MAC turn intervals.
    pub fn from_buffer(buf: &TraceBuffer) -> Self {
        let mut t = ChromeTrace::new();
        t.push_packet_spans(buf);
        for turn in &buf.turns {
            t.push_turn(0, turn);
        }
        t
    }

    /// Events assembled so far.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Adds every completed packet's umbrella + per-hop spans.  Hops
    /// are matched to packets by id; a hop's span runs from its ST
    /// grant to the next waypoint (or delivery).
    pub(crate) fn push_packet_spans(&mut self, buf: &TraceBuffer) {
        for &(packet, src, dest, created, arrived) in &buf.packets {
            let pid = PACKET_PID_BASE + src;
            self.events.push(TraceEvent {
                name: format!("pkt{packet} {src}->{dest}"),
                pid,
                tid: packet,
                ts: created,
                dur: arrived.saturating_sub(created).max(1),
            });
            // Waypoints for this packet, in grant order (hops is
            // already cycle-ordered per packet because grants are).
            let mut cursor: Option<(u64, u64)> = None; // (node, since)
            for h in buf.hops.iter().filter(|h| h.packet == packet) {
                if let Some((node, since)) = cursor {
                    self.events.push(TraceEvent {
                        name: format!("hop @{node}"),
                        pid,
                        tid: packet,
                        ts: since,
                        dur: h.cycle.saturating_sub(since).max(1),
                    });
                }
                cursor = Some((h.node, h.cycle));
            }
            if let Some((node, since)) = cursor {
                self.events.push(TraceEvent {
                    name: format!("hop @{node}"),
                    pid,
                    tid: packet,
                    ts: since,
                    dur: arrived.saturating_sub(since).max(1),
                });
            }
        }
    }

    /// Adds one MAC turn interval under medium `medium`.
    pub(crate) fn push_turn(&mut self, medium: u64, turn: &TurnRecord) {
        self.events.push(TraceEvent {
            name: format!("turn radio{} ({} flits)", turn.radio, turn.flits),
            pid: medium,
            tid: turn.radio,
            ts: turn.start,
            dur: turn.end.saturating_sub(turn.start).max(1),
        });
    }

    /// Renders the trace as Chrome trace-event JSON.
    pub fn render(&self) -> String {
        let events: Vec<Value> = self.events.iter().map(TraceEvent::to_value).collect();
        let root = Value::Map(vec![
            ("traceEvents".into(), Value::Seq(events)),
            ("displayTimeUnit".into(), Value::Str("ns".into())),
            (
                "otherData".into(),
                Value::Map(vec![(
                    "timeUnit".into(),
                    Value::Str("cycles".into()),
                )]),
            ),
        ]);
        serde_json::value_to_string_pretty(&root)
    }
}

/// Schema-validates Chrome trace-event JSON (the object form):
/// a top-level map with a `traceEvents` sequence whose every entry has
/// `name` (string), `ph` (string), `pid`/`tid` (integers) and — for
/// complete `"X"` events — numeric `ts` and `dur`.  Returns the event
/// count on success.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    let root = serde_json::parse_value(json).map_err(|e| format!("not JSON: {e}"))?;
    let Some(events) = root.get("traceEvents") else {
        return Err("missing traceEvents".into());
    };
    let Value::Seq(events) = events else {
        return Err("traceEvents is not an array".into());
    };
    let want_uint = |ev: &Value, key: &str, i: usize| -> Result<u64, String> {
        match ev.get(key) {
            Some(Value::UInt(u)) => Ok(*u),
            Some(Value::Int(n)) if *n >= 0 => Ok(*n as u64),
            Some(_) => Err(format!("event {i}: {key} is not a non-negative integer")),
            None => Err(format!("event {i}: missing {key}")),
        }
    };
    for (i, ev) in events.iter().enumerate() {
        if !matches!(ev, Value::Map(_)) {
            return Err(format!("event {i} is not an object"));
        }
        match ev.get("name") {
            Some(Value::Str(_)) => {}
            _ => return Err(format!("event {i}: missing string name")),
        }
        let ph = match ev.get("ph") {
            Some(Value::Str(s)) => s.clone(),
            _ => return Err(format!("event {i}: missing string ph")),
        };
        want_uint(ev, "pid", i)?;
        want_uint(ev, "tid", i)?;
        if ph == "X" {
            want_uint(ev, "ts", i)?;
            want_uint(ev, "dur", i)?;
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::HopRecord;

    fn sample_buffer() -> TraceBuffer {
        TraceBuffer {
            hops: vec![
                HopRecord { packet: 7, node: 0, cycle: 2 },
                HopRecord { packet: 7, node: 1, cycle: 5 },
                HopRecord { packet: 8, node: 3, cycle: 4 },
            ],
            packets: vec![(7, 0, 2, 0, 9), (8, 3, 1, 1, 12)],
            turns: vec![TurnRecord { radio: 2, start: 10, end: 40, flits: 64 }],
        }
    }

    #[test]
    fn export_validates_against_its_own_schema() {
        let trace = ChromeTrace::from_buffer(&sample_buffer());
        // 2 umbrellas + 3 hop spans + 1 turn.
        assert_eq!(trace.events().len(), 6);
        let json = trace.render();
        assert_eq!(validate_chrome_trace(&json), Ok(6));
    }

    #[test]
    fn hop_spans_chain_waypoints_to_delivery() {
        let trace = ChromeTrace::from_buffer(&sample_buffer());
        let hops: Vec<&TraceEvent> = trace
            .events()
            .iter()
            .filter(|e| e.tid == 7 && e.name.starts_with("hop"))
            .collect();
        assert_eq!(hops.len(), 2);
        assert_eq!((hops[0].ts, hops[0].dur), (2, 3), "waypoint to next waypoint");
        assert_eq!((hops[1].ts, hops[1].dur), (5, 4), "last waypoint to delivery");
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace(r#"{"traceEvents": 3}"#).is_err());
        assert!(validate_chrome_trace(r#"{"traceEvents": [{"ph":"X"}]}"#).is_err());
        assert!(validate_chrome_trace(
            r#"{"traceEvents": [{"name":"a","ph":"X","pid":0,"tid":0,"ts":1}]}"#
        )
        .is_err(), "X events need dur");
        assert_eq!(validate_chrome_trace(r#"{"traceEvents": []}"#), Ok(0));
        assert_eq!(
            validate_chrome_trace(
                r#"{"traceEvents": [{"name":"a","ph":"X","pid":0,"tid":1,"ts":2,"dur":3}]}"#
            ),
            Ok(1)
        );
    }

    #[test]
    fn zero_length_spans_render_with_unit_duration() {
        let mut t = ChromeTrace::new();
        t.push_turn(0, &TurnRecord { radio: 0, start: 5, end: 5, flits: 0 });
        assert_eq!(t.events()[0].dur, 1);
    }
}
