//! The three solo-simulation workloads (`loaded_oneway`, `memory_reads`,
//! `idle_ff`): every point through `MultichipSystem::build` + `run`,
//! the path every figure binary reduces to.
//!
//! Each point is timed separately; the rep loop is outermost and the
//! points interleaved, so a noisy stretch of the host touches one rep
//! of many points, not every rep of one.  A workload's timing is the
//! **sum over points of the per-point best** ([`Spread::best`]).

use std::hint::black_box;
use std::time::Instant;

use crate::api::{MultichipSystem, RunOutcome, TelemetryConfig, TelemetrySummary};
use crate::golden::fingerprint;
use crate::outside::{DriverCounts, OutsideSystem};
use crate::points::SimPoint;
use crate::report::{PointShares, WorkloadReport};
use crate::stats::{best, ratio, Spread};
use crate::trace::{chrome_trace, NoProbe, PointTrace, Probe, Span, SpanProbe};
use crate::{timed, Opts};

/// Samples of one point across reps.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    cpu_s: Vec<f64>,
    /// The first rep's outcome: every later run of the point, on any
    /// path, must equal it.
    reference: Option<RunOutcome>,
}

impl Samples {
    /// Checks one run's result against the point's reference.
    fn verdict<E: std::fmt::Display>(
        &mut self,
        id: &str,
        path: &str,
        result: Result<RunOutcome, E>,
    ) -> Result<(), String> {
        let outcome = result.map_err(|e| format!("{id}: {path} failed: {e}"))?;
        match &self.reference {
            None => {
                self.reference = Some(outcome);
                Ok(())
            }
            Some(reference) if *reference == outcome => Ok(()),
            Some(reference) => Err(format!(
                "{id}: {path} returned {} where the first run returned {}",
                fingerprint(&outcome),
                fingerprint(reference)
            )),
        }
    }

    /// One rep of the point: `MultichipSystem::build` + workload
    /// construction (timed as set-up), then `run` (timed as wall and
    /// CPU).  Returns the operation's verdict.
    fn run_reference(
        &mut self,
        point: &SimPoint,
        telemetry: TelemetryConfig,
        opts: &Opts,
    ) -> Result<(), String> {
        let outcome = self.timed_reference(point, telemetry, opts);
        self.verdict(&point.id, "run", outcome)
    }

    fn timed_reference(
        &mut self,
        point: &SimPoint,
        telemetry: TelemetryConfig,
        opts: &Opts,
    ) -> Result<RunOutcome, String> {
        let mut config = point.config.clone();
        config.telemetry = telemetry;
        let (built, setup_s) = timed(|| (MultichipSystem::build(&config), point.workload()));
        let (system, mut workload) = built;
        let mut system = system.map_err(|e| e.to_string())?;
        let (outcome, wall_s, cpu_s) = opts.timed_call(|| system.run(workload.as_mut()));
        self.setup_s.push(setup_s);
        self.wall_s.push(wall_s);
        self.cpu_s.push(cpu_s);
        black_box(outcome).map_err(|e| e.to_string())
    }
}

/// The paper's orderings at saturation (§IV.B): packet energy wireless
/// < interposer < substrate, bandwidth per core the other way round.
fn paper_orderings(points: &[SimPoint], samples: &[Samples]) -> Option<Result<(), String>> {
    let outcome = |id: &str| {
        let i = points.iter().position(|p| p.id == id)?;
        samples[i].reference.as_ref()
    };
    let w = outcome("wireless-p2p-saturation")?;
    let i = outcome("interposer-saturation")?;
    let s = outcome("substrate-saturation")?;
    let energy = [w, i, s].map(|o| o.avg_packet_energy_nj.unwrap_or(f64::NAN));
    let bandwidth = [w, i, s].map(|o| o.bandwidth_gbps_per_core);
    println!(
        "  saturation, wireless / interposer / substrate: {:.1} / {:.1} / {:.1} nJ per packet, \
         {:.1} / {:.1} / {:.1} Gbps per core (model unvalidated: the repository holds no \
         reference results, so no error figure — only the paper's orderings are asserted)",
        energy[0], energy[1], energy[2], bandwidth[0], bandwidth[1], bandwidth[2]
    );
    let ordered = energy[0] < energy[1]
        && energy[1] < energy[2]
        && bandwidth[0] > bandwidth[1]
        && bandwidth[1] > bandwidth[2];
    Some(if ordered {
        Ok(())
    } else {
        Err(format!(
            "paper ordering violated: energy {energy:?} nJ, bandwidth {bandwidth:?} Gbps"
        ))
    })
}

/// Runs one simulation workload.
pub fn run(points: &[SimPoint], opts: &Opts) -> WorkloadReport {
    let mut report = opts.new_report();
    let mut samples: Vec<Samples> = points.iter().map(|_| Samples::default()).collect();
    if opts.traced {
        traced(points, &mut samples, opts, &mut report);
    } else {
        untraced(points, &mut samples, opts, &mut report);
    }
    for (p, s) in points.iter().zip(&samples) {
        if let Some(o) = &s.reference {
            report.fingerprints.insert(p.id.clone(), fingerprint(o));
        }
    }
    if let Some(verdict) = paper_orderings(points, &samples) {
        report.checks.op(verdict);
    }
    report
}

fn untraced(
    points: &[SimPoint],
    samples: &mut [Samples],
    opts: &Opts,
    report: &mut WorkloadReport,
) {
    let started = Instant::now();
    while opts.another_rep(report.reps, started) {
        for (p, s) in points.iter().zip(samples.iter_mut()) {
            report
                .checks
                .op(s.run_reference(p, TelemetryConfig::default(), opts));
        }
        report.reps += 1;
    }
    let (mut setup, mut wall, mut cpu) = (Spread::zero(), Spread::zero(), Spread::zero());
    for (p, s) in points.iter().zip(samples.iter()) {
        let (ps, pw) = (Spread::of(&s.setup_s), Spread::of(&s.wall_s));
        report.timings.insert(format!("{}.setup_s", p.id), ps);
        report.timings.insert(format!("{}.wall_s", p.id), pw);
        setup = setup.plus(ps);
        wall = wall.plus(pw);
        cpu = cpu.plus(Spread::of(&s.cpu_s));
    }
    report.set_host_costs(setup, wall, cpu, points.iter().map(SimPoint::cycles).sum());
}

/// Builds and runs the outside driver under `probe`; returns the
/// outcome, the harness-side wall time of `run`, and the driver's
/// counts.
fn run_outside<P: Probe + Clone>(
    point: &SimPoint,
    probe: P,
) -> Result<(RunOutcome, f64, DriverCounts), String> {
    let mut system = OutsideSystem::build(&point.config, probe).map_err(|e| e.to_string())?;
    let mut workload = point.workload();
    let (outcome, wall_s) = timed(|| system.run(workload.as_mut()));
    let outcome = black_box(outcome).map_err(|e| e.to_string())?;
    Ok((outcome, wall_s, system.counts()))
}

/// What the traced passes collect for one point.
#[derive(Default)]
struct Traced {
    outside_s: Vec<f64>,
    traced_s: Vec<f64>,
    workload_build_s: Vec<f64>,
    /// Span totals summed over the traced reps.
    trace: PointTrace,
    /// Raw spans of the first traced rep.
    raw: Option<PointTrace>,
    counts: DriverCounts,
    counters_s: f64,
    telemetry: Option<TelemetrySummary>,
}

fn traced(points: &[SimPoint], samples: &mut [Samples], opts: &Opts, report: &mut WorkloadReport) {
    let mut passes: Vec<Traced> = points.iter().map(|_| Traced::default()).collect();
    let started = Instant::now();
    while opts.another_rep(report.reps, started) {
        for ((p, s), t) in points.iter().zip(samples.iter_mut()).zip(passes.iter_mut()) {
            // The reference, the outside driver untraced, and traced.
            report
                .checks
                .op(s.run_reference(p, TelemetryConfig::default(), opts));

            let outside = run_outside(p, NoProbe);
            if let Ok((_, wall_s, _)) = &outside {
                t.outside_s.push(*wall_s);
            }
            report
                .checks
                .op(s.verdict(&p.id, "outside driver", outside.map(|r| r.0)));

            t.workload_build_s.push(timed(|| black_box(p.workload())).1);
            let probe = SpanProbe::default();
            let outside = run_outside(p, probe.clone());
            if let Ok((_, wall_s, counts)) = &outside {
                t.traced_s.push(*wall_s);
                t.counts = *counts;
                let trace = probe.finish();
                t.trace.absorb(&trace);
                t.raw.get_or_insert(trace);
            }
            report
                .checks
                .op(s.verdict(&p.id, "traced outside driver", outside.map(|r| r.0)));
        }
        report.reps += 1;
    }
    // Exact work counts: the zero-observer-effect counters see the same
    // run the untraced passes made.
    for ((p, s), t) in points.iter().zip(samples.iter_mut()).zip(passes.iter_mut()) {
        let mut counted = Samples::default();
        let outcome = counted
            .timed_reference(p, TelemetryConfig::counters(), opts)
            .map(|mut o| {
                t.telemetry = o.telemetry.take();
                o
            });
        t.counters_s = best(&counted.wall_s);
        report
            .checks
            .op(s.verdict(&p.id, "run with counters", outcome));
    }
    layer_metrics(points, samples, &passes, report);

    let named: Vec<(String, &PointTrace)> = points
        .iter()
        .zip(&passes)
        .filter_map(|(p, t)| Some((p.id.clone(), t.raw.as_ref()?)))
        .collect();
    let path = opts
        .dir
        .join("out")
        .join(format!("trace-{}.json", opts.workload));
    let written = std::fs::write(&path, chrome_trace(&opts.workload, &named));
    report
        .checks
        .op(written.map_err(|e| format!("write {}: {e}", path.display())));
}

fn layer_metrics(
    points: &[SimPoint],
    samples: &[Samples],
    traces: &[Traced],
    report: &mut WorkloadReport,
) {
    let reps = report.reps.max(1) as f64;
    // Span totals of the whole workload, summed over points and reps.
    let mut all = PointTrace::default();
    let mut counts = DriverCounts::default();
    let (mut run_s, mut outside_s, mut traced_s, mut counters_s, mut workload_build_s) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut cycles, mut ff_cycles) = (0u64, 0u64);
    let (mut flit_hops, mut link_busy, mut credit_stalls) = (0u64, 0u64, 0u64);
    let (mut grants, mut active_cycles) = (0u64, 0u64);
    let (mut turns, mut passes, mut control_flits, mut data_flits) = (0u64, 0u64, 0u64, 0u64);
    let (mut requests, mut page_hits, mut queue_depth, mut stacks) = (0u64, 0u64, 0.0, 0usize);
    let (mut meter_ops, mut meter_charges) = (0u64, 0u64);
    for ((p, s), t) in points.iter().zip(samples).zip(traces) {
        all.absorb(&t.trace);
        counts.absorb(&t.counts);
        run_s += best(&s.wall_s);
        outside_s += best(&t.outside_s);
        traced_s += best(&t.traced_s);
        workload_build_s += best(&t.workload_build_s);
        counters_s += t.counters_s;
        cycles += p.cycles();
        if let Some(o) = &s.reference {
            ff_cycles += o.fast_forwarded_cycles;
            meter_ops += o.meter_ops;
            meter_charges += o.meter_charges;
            for m in &o.memory {
                requests += m.accesses;
                page_hits += m.page_hits;
                queue_depth += m.avg_queue_depth;
                stacks += 1;
            }
        }
        if let Some(tel) = &t.telemetry {
            for l in &tel.links {
                flit_hops += l.flits;
                link_busy += l.busy_cycles;
                credit_stalls += l.credit_stalls;
            }
            for sw in &tel.switches {
                grants += sw.grants;
                active_cycles += sw.active_cycles;
            }
            for m in &tel.macs {
                turns += m.turns;
                passes += m.passes;
                control_flits += m.control_flits;
                data_flits += m.data_flits;
            }
        }
        let wall_s = t.trace.wall_ns as f64 / 1e9 / reps;
        let shares = t
            .trace
            .shares()
            .into_iter()
            .map(|(name, share)| (name.to_string(), share))
            .collect();
        report.points.push(PointShares {
            id: p.id.clone(),
            wall_s,
            shares,
        });
    }

    let wall = all.wall_ns as f64;
    let share = |span: Span| ratio(all.self_ns(span) as f64, wall);
    let ns_per_call = |span: Span| ratio(all.self_ns(span) as f64, all.calls(span) as f64);
    // Span self time of one rep, in ns.
    let per_rep = |span: Span| all.self_ns(span) as f64 / reps;
    let us_per_rep = |span: Span| all.total_ns(span) as f64 / reps / 1e3;
    let mut set = |name: &str, value: f64| report.set_layer(name, value);

    set("topology.build_us", us_per_rep(Span::TopologyBuild));
    set("routing.build_us", us_per_rep(Span::RoutingBuild));
    set("noc.build_us", us_per_rep(Span::NocBuild));
    set("memory.build_us", us_per_rep(Span::MemoryBuild));
    set("traffic.build_us", workload_build_s * 1e6);

    set("noc.step_share", share(Span::NocStep));
    set("noc.step_ns_per_call", ns_per_call(Span::NocStep));
    set(
        "noc.ns_per_flit_hop",
        ratio(per_rep(Span::NocStep), flit_hops as f64),
    );
    set(
        "noc.ns_per_switch_active_cycle",
        ratio(per_rep(Span::NocStep), active_cycles as f64),
    );
    set(
        "noc.grants_per_active_cycle",
        ratio(grants as f64, active_cycles as f64),
    );
    set(
        "noc.link_credit_stall_share",
        ratio(credit_stalls as f64, link_busy as f64),
    );
    set("noc.steps", counts.iterations as f64);
    set("noc.flit_hops", flit_hops as f64);
    set("noc.switch_grants", grants as f64);
    set("noc.switch_active_cycles", active_cycles as f64);

    set("noc.inject_share", share(Span::Inject));
    set("noc.inject_ns_per_packet", ns_per_call(Span::Inject));
    set("noc.drain_share", share(Span::Drain));

    set("noc.fast_forward_share", share(Span::FastForward));
    set(
        "noc.fast_forward_ns_per_jump",
        ratio(
            all.total_ns(Span::FastForward) as f64,
            all.calls(Span::FastForward) as f64,
        ),
    );
    set("noc.ff_jumps", counts.ff_jumps as f64);
    set("noc.ff_cycle_share", ratio(ff_cycles as f64, cycles as f64));
    set(
        "noc.ff_mean_jump_cycles",
        ratio(ff_cycles as f64, counts.ff_jumps as f64),
    );
    set(
        "core.system.ff_gate_hit_share",
        ratio(counts.ff_jumps as f64, counts.iterations as f64),
    );

    set("wireless.step_share", share(Span::WirelessStep));
    set("wireless.step_ns_per_call", ns_per_call(Span::WirelessStep));
    set(
        "wireless.idle_advance_ns_per_jump",
        ns_per_call(Span::WirelessIdle),
    );
    set("wireless.turns", turns as f64);
    set("wireless.pass_share", ratio(passes as f64, turns as f64));
    set(
        "wireless.control_flits_per_data_flit",
        ratio(control_flits as f64, data_flits as f64),
    );

    let memory_ns = per_rep(Span::MemStep) + per_rep(Span::MemEnqueue);
    set(
        "memory.step_share",
        share(Span::MemStep) + share(Span::MemEnqueue),
    );
    set("memory.ns_per_controller_step", ns_per_call(Span::MemStep));
    set("memory.ns_per_request", ratio(memory_ns, requests as f64));
    set("memory.requests", requests as f64);
    set("memory.mean_queue_depth", ratio(queue_depth, stacks as f64));
    set(
        "memory.page_hit_rate",
        ratio(page_hits as f64, requests as f64),
    );
    set(
        "memory.enqueue_bounce_share",
        ratio(
            counts.enqueue_bounces as f64,
            counts.enqueue_attempts as f64,
        ),
    );

    set("traffic.generate_share", share(Span::Generate));
    set("traffic.generate_ns_per_call", ns_per_call(Span::Generate));
    set("traffic.next_event_share", share(Span::NextEvent));
    set(
        "traffic.next_event_ns_per_call",
        ns_per_call(Span::NextEvent),
    );
    set("traffic.offered_packets", counts.offered as f64);
    set(
        "traffic.refused_share",
        ratio(counts.refused as f64, counts.offered as f64),
    );

    set("energy.meter_ops", meter_ops as f64);
    set("energy.meter_charges", meter_charges as f64);
    set(
        "energy.ops_per_charge",
        ratio(meter_ops as f64, meter_charges as f64),
    );
    set("energy.charge_ns_per_op", ns_per_call(Span::Charge));

    set(
        "core.system.driver_share",
        ratio(all.driver_ns as f64, wall),
    );
    set("core.system.outside_vs_run_ratio", ratio(outside_s, run_s));
    set("core.metrics.collect_us", us_per_rep(Span::Collect));
    set("trace.overhead_ratio", ratio(traced_s, outside_s));
    set(
        "telemetry.counters_overhead_ratio",
        ratio(counters_s, run_s),
    );
}
