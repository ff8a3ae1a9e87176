//! The benchmark's re-compositions must be the engine's own behaviour,
//! bit for bit: the outside driver against `MultichipSystem::run`, the
//! timed medium against the medium it wraps, and the mirrored workload
//! construction against `Experiment`.

use std::cell::RefCell;
use std::rc::Rc;

use wimnet_benchmark::api::{
    MacCounters, MediumActions, MediumView, MultichipSystem, RunOutcome, SharedMedium, StateValue,
    TurnRecord,
};
use wimnet_benchmark::outside::OutsideSystem;
use wimnet_benchmark::points::{idle_ff, loaded_oneway, memory_reads, SimPoint, DEFAULT_SEED};
use wimnet_benchmark::trace::{NoProbe, Probe, Span, SpanProbe};

fn reference(point: &SimPoint) -> RunOutcome {
    let mut system = MultichipSystem::build(&point.config).expect("system builds");
    system
        .run(point.workload().as_mut())
        .expect("run completes")
}

fn outside<P: Probe + Clone>(point: &SimPoint, probe: P) -> RunOutcome {
    let mut system = OutsideSystem::build(&point.config, probe).expect("system builds");
    system
        .run(point.workload().as_mut())
        .expect("run completes")
}

/// One quick-scale point per architecture, per wireless model, a
/// closed-loop-read point, and three fast-forwarding points.
fn covered_points() -> Vec<SimPoint> {
    let pick = |points: Vec<SimPoint>, ids: &[&str]| -> Vec<SimPoint> {
        let picked: Vec<SimPoint> = points
            .into_iter()
            .filter(|p| ids.contains(&p.id.as_str()))
            .collect();
        assert_eq!(picked.len(), ids.len(), "point ids changed");
        picked
    };
    let mut points = pick(
        loaded_oneway(DEFAULT_SEED, true),
        &[
            "substrate-0.004",
            "interposer-0.002",
            "wireless-p2p-0.002",
            "wireless-control-mac-0.002",
            "wireless-token-mac-0.002",
            "wireless-parallel-0.008",
        ],
    );
    points.extend(pick(
        memory_reads(DEFAULT_SEED, true),
        &["wireless-0.016-uniform-frfcfs"],
    ));
    points.extend(pick(
        idle_ff(DEFAULT_SEED, true),
        &[
            "token-1e-5-200k-s0",
            "blackscholes-parallel-100k-s0",
            "reads-5e-5-parallel-200k-s0",
        ],
    ));
    points
}

#[test]
fn outside_driver_equals_run_traced_and_untraced() {
    for point in covered_points() {
        let want = reference(&point);
        assert!(
            want.total_packets > 0,
            "{}: the point must carry traffic",
            point.id
        );
        assert_eq!(
            outside(&point, NoProbe),
            want,
            "{}: untraced outside driver",
            point.id
        );
        let probe = SpanProbe::default();
        assert_eq!(
            outside(&point, probe.clone()),
            want,
            "{}: traced outside driver",
            point.id
        );

        // The trace accounts for the whole run: every engine step is
        // spanned, and the shares add up to the wall time.
        let trace = probe.finish();
        assert!(trace.calls(Span::NocStep) > 0);
        assert_eq!(trace.calls(Span::NocStep), trace.calls(Span::Generate));
        let sum: f64 = trace.shares().iter().map(|(_, share)| share).sum();
        assert!(
            (sum - 1.0).abs() < 0.02,
            "{}: shares sum to {sum}",
            point.id
        );
        if want.fast_forwarded_cycles > 0 {
            assert!(
                trace.calls(Span::FastForward) > 0,
                "{}: jumps are spanned",
                point.id
            );
        }
    }
}

#[test]
fn mirrored_workloads_equal_the_experiment_constructors() {
    // One point per constructor: uniform_random, saturation,
    // memory_reads, app.
    let mut points = loaded_oneway(DEFAULT_SEED, true);
    points.retain(|p| p.id == "interposer-0.002" || p.id == "wireless-p2p-saturation");
    points.push(memory_reads(DEFAULT_SEED, true).remove(0));
    points.extend(
        idle_ff(DEFAULT_SEED, true)
            .into_iter()
            .filter(|p| p.id == "blackscholes-parallel-100k-s0"),
    );
    assert_eq!(points.len(), 4);
    for point in points {
        let via_experiment = point.experiment().run().expect("experiment runs");
        assert_eq!(reference(&point), via_experiment, "{}", point.id);
    }
}

/// A medium that logs every call and answers with marked values.
struct Recorder(Rc<RefCell<Vec<&'static str>>>);

impl Recorder {
    fn log(&self, call: &'static str) {
        self.0.borrow_mut().push(call);
    }
}

impl SharedMedium for Recorder {
    fn step(&mut self, _: u64, _: &MediumView, _: &mut MediumActions) {
        self.log("step");
    }
    fn name(&self) -> &str {
        self.log("name");
        "recorder"
    }
    fn is_quiescent(&self) -> bool {
        self.log("is_quiescent");
        true
    }
    fn idle_step(&mut self, _: u64, _: &mut MediumActions) {
        self.log("idle_step");
    }
    fn idle_advance(&mut self, _: u64, _: u64, _: &mut MediumActions) {
        self.log("idle_advance");
    }
    fn state_value(&self) -> StateValue {
        self.log("state_value");
        StateValue::UInt(7)
    }
    fn restore_state_value(&mut self, v: &StateValue) -> Result<(), serde::Error> {
        self.log("restore_state_value");
        assert_eq!(*v, StateValue::UInt(7));
        Ok(())
    }
    fn mac_counters(&self) -> MacCounters {
        self.log("mac_counters");
        MacCounters {
            turns: 11,
            ..MacCounters::default()
        }
    }
    fn set_trace_enabled(&mut self, on: bool) {
        assert!(on);
        self.log("set_trace_enabled");
    }
    fn drain_turn_records(&mut self, out: &mut Vec<TurnRecord>) {
        self.log("drain_turn_records");
        out.push(TurnRecord {
            radio: 1,
            start: 2,
            end: 3,
            flits: 4,
        });
    }
}

#[test]
fn timed_medium_forwards_every_method() {
    let log = Rc::new(RefCell::new(Vec::new()));
    let probe = SpanProbe::default();
    let mut medium = probe.wrap_medium(Box::new(Recorder(Rc::clone(&log))));
    let mut actions = MediumActions::new();
    medium.step(0, &MediumView::new(Vec::new()), &mut actions);
    assert_eq!(medium.name(), "recorder");
    assert!(medium.is_quiescent());
    medium.idle_step(1, &mut actions);
    medium.idle_advance(2, 10, &mut actions);
    let state = medium.state_value();
    assert_eq!(state, StateValue::UInt(7));
    medium
        .restore_state_value(&state)
        .expect("state round-trips");
    assert_eq!(medium.mac_counters().turns, 11);
    medium.set_trace_enabled(true);
    let mut turns = Vec::new();
    medium.drain_turn_records(&mut turns);
    assert_eq!(turns.len(), 1);
    assert_eq!(
        *log.borrow(),
        [
            "step",
            "name",
            "is_quiescent",
            "idle_step",
            "idle_advance",
            "state_value",
            "restore_state_value",
            "mac_counters",
            "set_trace_enabled",
            "drain_turn_records",
        ]
    );
    // Only the two timed calls left spans.
    let trace = probe.finish();
    assert_eq!(trace.calls(Span::WirelessStep), 1);
    assert_eq!(trace.calls(Span::WirelessIdle), 1);

    // The untraced probe hands the medium back untouched.
    let mut plain = NoProbe.wrap_medium(Box::new(Recorder(Rc::clone(&log))));
    plain.set_trace_enabled(true);
    assert_eq!(log.borrow().last(), Some(&"set_trace_enabled"));
}
