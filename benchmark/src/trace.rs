//! Spans at the layer boundaries: accumulation, self time, Chrome trace.
//!
//! The outside driver ([`crate::outside`]) brackets every call into a
//! crate with a span.  Totals and call counts are kept per span name for
//! every iteration; raw spans (name, start, end, parent, point) are kept
//! for every [`RAW_EVERY`]-th iteration only, [`RAW_ITERATIONS`] of them
//! per point, and written as Chrome-trace JSON when the benchmark ends.  A span's self time is its duration
//! minus the part its child spans cover; the driver's own time is the
//! sum of the gaps between top-level spans, so the shares of one point
//! add up to its wall time by construction of the timestamps and any
//! double counting shows as a sum above one.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use crate::api::{MacCounters, MediumActions, MediumView, SharedMedium, StateValue, TurnRecord};

/// Raw spans are recorded for one iteration in this many…
pub const RAW_EVERY: u64 = 64;
/// …up to this many iterations per point, which bounds the trace file
/// however long the point runs.
pub const RAW_ITERATIONS: u64 = 64;

macro_rules! spans {
    ($($variant:ident => $name:literal, $parent:expr;)*) => {
        /// One layer boundary the outside driver crosses.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Span { $($variant),* }

        impl Span {
            /// Every span, in declaration order (the index order of
            /// the per-span arrays).
            pub const ALL: &'static [Span] = &[$(Span::$variant),*];

            /// The `layer.call` name reports and traces use.
            pub fn name(self) -> &'static str {
                match self { $(Span::$variant => $name),* }
            }

            /// The span this one always runs inside, if any.
            pub fn parent(self) -> Option<Span> {
                match self { $(Span::$variant => $parent),* }
            }
        }
    };
}

spans! {
    TopologyBuild => "topology.build", None;
    RoutingBuild => "routing.build", None;
    NocBuild => "noc.build", None;
    MemoryBuild => "memory.build", None;
    Generate => "traffic.generate", None;
    Inject => "noc.inject", None;
    NocStep => "noc.step", None;
    WirelessStep => "wireless.step", Some(Span::NocStep);
    Drain => "noc.drain_arrivals", None;
    AddressBlock => "traffic.address_block", None;
    MemEnqueue => "memory.enqueue", None;
    MemStep => "memory.step", None;
    Charge => "energy.charge", None;
    IsIdle => "noc.is_idle", None;
    NextEvent => "traffic.next_event_at", None;
    MemGate => "memory.next_event_at", None;
    FastForward => "noc.fast_forward", None;
    WirelessIdle => "wireless.idle_advance", Some(Span::FastForward);
    MemIdle => "memory.idle_advance", None;
    Collect => "core.metrics.collect", None;
}

const N: usize = Span::ALL.len();

/// One recorded span of a sampled iteration.
#[derive(Debug, Clone, Copy)]
pub struct RawSpan {
    /// `None` is the per-iteration root (`core.system.iteration`).
    pub span: Option<Span>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub iteration: u64,
}

/// Per-point span accumulator.
#[derive(Debug)]
struct Tracer {
    origin: Instant,
    total_ns: [u64; N],
    child_ns: [u64; N],
    calls: [u64; N],
    /// End of the last top-level span (or the run's start).
    last_top_end: u64,
    run_start: u64,
    driver_ns: u64,
    wall_ns: u64,
    sampling: bool,
    iteration: u64,
    iteration_start: u64,
    raw: Vec<RawSpan>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            total_ns: [0; N],
            child_ns: [0; N],
            calls: [0; N],
            last_top_end: 0,
            run_start: 0,
            driver_ns: 0,
            wall_ns: 0,
            sampling: false,
            iteration: 0,
            iteration_start: 0,
            raw: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    fn record(&mut self, span: Span, start: Instant, end: Instant) {
        let (s, e) = (self.ns(start), self.ns(end));
        let i = span as usize;
        self.total_ns[i] += e - s;
        self.calls[i] += 1;
        match span.parent() {
            Some(p) => self.child_ns[p as usize] += e - s,
            None => {
                self.driver_ns += s.saturating_sub(self.last_top_end);
                self.last_top_end = e;
            }
        }
        if self.sampling {
            self.raw.push(RawSpan {
                span: Some(span),
                start_ns: s,
                end_ns: e,
                iteration: self.iteration,
            });
        }
    }

    fn close_iteration(&mut self, now: u64) {
        if self.sampling {
            self.raw.push(RawSpan {
                span: None,
                start_ns: self.iteration_start,
                end_ns: now,
                iteration: self.iteration,
            });
        }
    }
}

/// What the outside driver reports its layer crossings to.  The
/// untraced driver is the same code monomorphised over [`NoProbe`],
/// whose methods compile to nothing.
pub trait Probe {
    /// Opaque start-of-span token.
    type Mark: Copy;
    /// Opens a span.
    fn start(&self) -> Self::Mark;
    /// Closes the span opened by `mark` as `span`.
    fn stop(&self, span: Span, mark: Self::Mark);
    /// Marks the start of the timed run loop.
    fn begin_run(&self);
    /// Marks the start of run-loop iteration `n` (counted from 0).
    fn begin_iteration(&self, n: u64);
    /// Marks the end of the timed run loop.
    fn end_run(&self);
    /// Wraps a medium so its calls inside the engine are spanned too.
    fn wrap_medium(&self, medium: Box<dyn SharedMedium>) -> Box<dyn SharedMedium>;
}

/// The untraced probe.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl Probe for NoProbe {
    type Mark = ();
    #[inline(always)]
    fn start(&self) {}
    #[inline(always)]
    fn stop(&self, _: Span, (): ()) {}
    #[inline(always)]
    fn begin_run(&self) {}
    #[inline(always)]
    fn begin_iteration(&self, _: u64) {}
    #[inline(always)]
    fn end_run(&self) {}
    fn wrap_medium(&self, medium: Box<dyn SharedMedium>) -> Box<dyn SharedMedium> {
        medium
    }
}

/// The traced probe: a shared handle on one point's [`Tracer`] (shared
/// because the engine owns the wrapped medium).
#[derive(Debug, Clone)]
pub struct SpanProbe(Rc<RefCell<Tracer>>);

impl Default for SpanProbe {
    fn default() -> Self {
        SpanProbe(Rc::new(RefCell::new(Tracer::new())))
    }
}

impl Probe for SpanProbe {
    type Mark = Instant;

    #[inline]
    fn start(&self) -> Instant {
        Instant::now()
    }

    #[inline]
    fn stop(&self, span: Span, mark: Instant) {
        let end = Instant::now();
        self.0.borrow_mut().record(span, mark, end);
    }

    fn begin_run(&self) {
        let mut t = self.0.borrow_mut();
        let now = t.ns(Instant::now());
        t.run_start = now;
        t.last_top_end = now;
        t.driver_ns = 0;
    }

    #[inline]
    fn begin_iteration(&self, n: u64) {
        let mut t = self.0.borrow_mut();
        let sample = n.is_multiple_of(RAW_EVERY) && n < RAW_EVERY * RAW_ITERATIONS;
        if t.sampling || sample {
            let now = t.ns(Instant::now());
            t.close_iteration(now);
            t.sampling = sample;
            t.iteration = n;
            t.iteration_start = now;
        }
    }

    fn end_run(&self) {
        let mut t = self.0.borrow_mut();
        let now = t.ns(Instant::now());
        t.close_iteration(now);
        t.sampling = false;
        t.driver_ns += now.saturating_sub(t.last_top_end);
        t.wall_ns = now - t.run_start;
    }

    fn wrap_medium(&self, medium: Box<dyn SharedMedium>) -> Box<dyn SharedMedium> {
        Box::new(TimedMedium {
            inner: medium,
            probe: self.clone(),
        })
    }
}

/// The finished accounting of one traced point.
#[derive(Debug, Clone, Default)]
pub struct PointTrace {
    /// Wall time of the run loop (`begin_run` to `end_run`).
    pub wall_ns: u64,
    /// Gaps between top-level spans: the driver's own time.
    pub driver_ns: u64,
    total_ns: [u64; N],
    child_ns: [u64; N],
    calls: [u64; N],
    pub raw: Vec<RawSpan>,
}

impl SpanProbe {
    /// Takes the accumulated accounting out of the probe.
    pub fn finish(&self) -> PointTrace {
        let mut t = self.0.borrow_mut();
        PointTrace {
            wall_ns: t.wall_ns,
            driver_ns: t.driver_ns,
            total_ns: t.total_ns,
            child_ns: t.child_ns,
            calls: t.calls,
            raw: std::mem::take(&mut t.raw),
        }
    }
}

impl PointTrace {
    /// Adds another run's totals (another rep of the same point, or
    /// another point of the same workload).  Raw spans are kept from
    /// `self` only.
    pub fn absorb(&mut self, other: &PointTrace) {
        self.wall_ns += other.wall_ns;
        self.driver_ns += other.driver_ns;
        for i in 0..N {
            self.total_ns[i] += other.total_ns[i];
            self.child_ns[i] += other.child_ns[i];
            self.calls[i] += other.calls[i];
        }
    }

    /// Total duration of `span`, children included.
    pub fn total_ns(&self, span: Span) -> u64 {
        self.total_ns[span as usize]
    }

    /// Duration of `span` minus the part its child spans cover.
    pub fn self_ns(&self, span: Span) -> u64 {
        self.total_ns[span as usize] - self.child_ns[span as usize]
    }

    /// Times `span` was recorded.
    pub fn calls(&self, span: Span) -> u64 {
        self.calls[span as usize]
    }

    /// Self-time share of the run's wall per span inside the run loop,
    /// plus `core.system.driver`.  Build spans happen before the loop
    /// and are excluded.
    pub fn shares(&self) -> Vec<(&'static str, f64)> {
        let wall = self.wall_ns.max(1) as f64;
        let mut shares: Vec<(&'static str, f64)> = Span::ALL
            .iter()
            .filter(|s| !s.name().ends_with(".build"))
            .map(|&s| (s.name(), self.self_ns(s) as f64 / wall))
            .collect();
        shares.push(("core.system.driver", self.driver_ns as f64 / wall));
        shares
    }
}

/// A [`SharedMedium`] that spans `step` and `idle_advance` and forwards
/// everything else untouched, so the MAC's decisions, state and
/// counters are exactly the wrapped medium's.
struct TimedMedium {
    inner: Box<dyn SharedMedium>,
    probe: SpanProbe,
}

impl SharedMedium for TimedMedium {
    fn step(&mut self, now: u64, view: &MediumView, actions: &mut MediumActions) {
        let mark = self.probe.start();
        self.inner.step(now, view, actions);
        self.probe.stop(Span::WirelessStep, mark);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn is_quiescent(&self) -> bool {
        self.inner.is_quiescent()
    }

    fn idle_step(&mut self, now: u64, actions: &mut MediumActions) {
        self.inner.idle_step(now, actions);
    }

    fn idle_advance(&mut self, now: u64, cycles: u64, actions: &mut MediumActions) {
        let mark = self.probe.start();
        self.inner.idle_advance(now, cycles, actions);
        self.probe.stop(Span::WirelessIdle, mark);
    }

    fn state_value(&self) -> StateValue {
        self.inner.state_value()
    }

    fn restore_state_value(&mut self, v: &StateValue) -> Result<(), serde::Error> {
        self.inner.restore_state_value(v)
    }

    fn mac_counters(&self) -> MacCounters {
        self.inner.mac_counters()
    }

    fn set_trace_enabled(&mut self, on: bool) {
        self.inner.set_trace_enabled(on);
    }

    fn drain_turn_records(&mut self, out: &mut Vec<TurnRecord>) {
        self.inner.drain_turn_records(out);
    }
}

/// Renders raw spans as Chrome-trace JSON (`chrome://tracing`,
/// <https://ui.perfetto.dev>): one complete (`"X"`) event per span,
/// one thread track per point, timestamps in microseconds from the
/// point's start.
pub fn chrome_trace(workload: &str, points: &[(String, &PointTrace)]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |event: String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&event);
    };
    for (tid, (id, trace)) in points.iter().enumerate() {
        push(format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{workload}/{id}\"}}}}"
        ));
        let origin = trace.raw.iter().map(|r| r.start_ns).min().unwrap_or(0);
        for r in &trace.raw {
            let (name, parent) = match r.span {
                Some(s) => (
                    s.name(),
                    s.parent().map_or("core.system.iteration", Span::name),
                ),
                None => ("core.system.iteration", "core.system.run"),
            };
            push(format!(
                "{{\"ph\":\"X\",\"name\":\"{name}\",\"cat\":\"{}\",\"pid\":1,\"tid\":{tid},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"point\":\"{id}\",\
                 \"iteration\":{},\"parent\":\"{parent}\"}}}}",
                name.split('.').next().unwrap_or(name),
                (r.start_ns - origin) as f64 / 1e3,
                (r.end_ns - r.start_ns) as f64 / 1e3,
                r.iteration,
            ));
        }
    }
    out.push_str("\n]}\n");
    out
}
