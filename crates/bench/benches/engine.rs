//! Criterion micro-benchmarks of the engine's ns-scale operations: one
//! switch visit (and one step of a package whose switches are all
//! credit-blocked), one meter read-out, one drained memory-controller step,
//! one media phase with nothing to do, one `ParallelMac` step with one
//! radio of eight holding flits, one source that cannot inject
//! (generation for a full core, phase 1 for a blocked endpoint).  Each
//! is too short for the benchmark package (`benchmark/`, see
//! `BENCHMARK.json`) to time in isolation, so they are timed here in
//! loops of 1 000.
//!
//! Everything longer is the benchmark's, which reports it per layer with
//! a run-to-run spread; the groups that used to time the same quantities
//! here are gone, and their numbers are now:
//!
//! | former group | benchmark metric |
//! |---|---|
//! | `topology_build` | `topology.build_us` |
//! | `routes_build` | `routing.build_us` |
//! | `network_step`, `step_hot_loop` | `noc.step_ns_per_call`, `noc.ns_per_flit_hop`, `noc.fast_forward_ns_per_jump` (`loaded_oneway`, `idle_ff`) |
//! | `inject` | `noc.inject_ns_per_packet` (`memory_reads`) |
//! | `checkpoint_store_lookup` | `core.checkpoint.store_ms_per_op`, `core.checkpoint.lookup_ms_per_op`, `serde_json.serialize_mb_per_s` (`persist`) |
//! | `figures` (its own bench file) | `wall_s` and `core.sweeps.points_per_s` of `sweep_batched` |

use std::cell::RefCell;
use std::ops::Range;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkGroup, Criterion};

use wimnet_memory::{
    AccessKind, AddressMap, ControllerConfig, MemRequest, MemoryController, StackConfig,
};
use wimnet_noc::radio::{MediumActions, MediumView, RadioId, RadioView, RxVcView, TxVcView};
use wimnet_noc::switch::{OutPortSpec, RouteEntry, Switch};
use wimnet_noc::{Flit, FlitKind, Network, NocConfig, PacketDesc, PacketId, SharedMedium};
use wimnet_routing::{Routes, RoutingPolicy};
use wimnet_topology::{Architecture, MultichipConfig, MultichipLayout, NodeId};
use wimnet_traffic::{InjectionProcess, UniformRandom, Workload};
use wimnet_wireless::{ChannelConfig, ParallelMac, TokenMac};

fn build_layout(arch: Architecture) -> MultichipLayout {
    MultichipLayout::build(&MultichipConfig::xcym(4, 4, arch)).expect("layout")
}

fn bench_meter_readout(c: &mut Criterion) {
    // One `Network::meter()` on a loaded 4C4M: every port has carried
    // flits and the counters hold 500 cycles.  The read-out is O(ports)
    // whatever the counts, and this is its price for per-cycle callers
    // (the `golden_step` observer folds it into every cycle's hash).
    let layout = build_layout(Architecture::Interposer);
    let routes = Routes::build(layout.graph(), RoutingPolicy::default()).unwrap();
    let mut net = Network::new(&layout, routes, NocConfig::paper()).unwrap();
    let cores = layout.core_nodes();
    for (i, &src) in cores.iter().enumerate() {
        net.inject(PacketDesc::new(src, cores[(i + 17) % 64], 64, 0));
    }
    for _ in 0..500 {
        net.step();
    }
    let mut g = c.benchmark_group("meter_readout");
    g.bench_function("interposer_loaded", |b| b.iter(|| std::hint::black_box(&net).meter()));
    g.finish();
}

fn bench_controller_step_drained(c: &mut Criterion) {
    // One `MemoryController::step` on a stack that served a read and
    // drained — what every stack costs on every stepped cycle of a
    // workload that issues few or no reads.  The full body walks 4
    // channels x 8 banks; the drained fast path is one compare and one
    // counter bump.
    let map = AddressMap::paper(1);
    let mut mc = MemoryController::new(0, StackConfig::paper(), ControllerConfig::paper());
    mc.enqueue(MemRequest { addr: 0, bytes: 64, kind: AccessKind::Read, tag: 0 }, &map)
        .expect("an empty queue has room");
    let mut out = Vec::new();
    let mut now = 0u64;
    while out.is_empty() {
        mc.step(now, &mut out);
        now += 1;
    }
    let mut g = c.benchmark_group("controller_step_drained");
    // 1 000 steps per sample: µs per sample reads as ns per step.
    g.bench_function("paper_stack_x1000", |b| {
        b.iter(|| {
            for _ in 0..1_000 {
                now += 1;
                mc.step(std::hint::black_box(now), &mut out);
            }
        })
    });
    g.finish();
}

fn bench_media_phase_unchanged(c: &mut Criterion) {
    // One `Network::step` of an empty wireless 4C4M with the token MAC
    // attached: links saturated, no switch or injector active, so the
    // step is the media phase — a MAC cycle that reads the view as it
    // stands (no radio changed) and passes the token.  This is the
    // stepped cycle a low-duty-cycle run pays between packets.
    let layout = build_layout(Architecture::Wireless);
    let routes = Routes::build(layout.graph(), RoutingPolicy::default()).unwrap();
    let mut net = Network::new(&layout, routes, NocConfig::paper()).unwrap();
    net.attach_medium(Box::new(TokenMac::new(ChannelConfig::paper(net.radio_count()))));
    for _ in 0..100 {
        net.step();
    }
    let mut g = c.benchmark_group("media_phase_unchanged");
    // 1 000 steps per sample: µs per sample reads as ns per step.
    g.bench_function("token_mac_4c4m_x1000", |b| {
        b.iter(|| {
            for _ in 0..1_000 {
                net.step();
            }
        })
    });
    g.finish();
}

fn bench_parallel_mac_step(c: &mut Criterion) {
    // One `ParallelMac::step` over the eight radios of a wireless 4C4M
    // (8 TX and 8 RX VCs each): radio 0 streams the body flits of a long
    // packet to radio 1, which admits them, and the other seven hold
    // nothing — the figures' medium on a lightly loaded cycle.  The view
    // is fixed, so the stream never ends; each sample's 1 000 steps
    // write into one fresh action list.
    let idle = |id: usize| RadioView {
        id: RadioId(id),
        node: NodeId(id),
        tx: vec![TxVcView { front: None, len: 0, front_run_len: 0, front_run_has_tail: false }; 8],
        rx: vec![RxVcView { owner: None, len: 0, capacity: 16 }; 8],
    };
    let mut radios: Vec<_> = (0..8).map(idle).collect();
    let body = Flit { kind: FlitKind::Body, ..stream_flit(0, 1) };
    radios[0].tx[0] =
        TxVcView { front: Some((body, RadioId(1))), len: 16, front_run_len: 16, front_run_has_tail: false };
    radios[1].rx[0].owner = Some(body.packet);
    let view = MediumView::new(radios);
    let mut mac = ParallelMac::new(ChannelConfig::paper(8));
    let mut now = 0u64;
    let mut g = c.benchmark_group("parallel_mac_step");
    // 1 000 steps per sample: µs per sample reads as ns per step.
    g.bench_function("one_streaming_seven_idle_x1000", |b| {
        b.iter(|| {
            let mut actions = MediumActions::new();
            for _ in 0..1_000 {
                now += 1;
                mac.step(now, std::hint::black_box(&view), &mut actions);
            }
            actions.len()
        })
    });
    assert_eq!(mac.stats().data_flits, now, "one flit per step");
    g.finish();
}

fn bench_source_side(c: &mut Criterion) {
    // What a source that cannot inject costs per cycle, at its two
    // parties.  Both routines are 1 000 cycles over 64 cores, so the
    // reported microseconds / 64 read as ns per core per cycle.
    let mut g = c.benchmark_group("source_side");
    // The paper's saturated workload with every source queue full: the
    // driver's `generate_into` call passes over all 64 cores.  (With
    // `&|_| false` the same call draws 64 destinations, which is what a
    // saturated cycle cost before generation took the hint.)
    let mut w = UniformRandom::new(64, 4, 0.20, InjectionProcess::Saturation, 64, 7);
    let mut events = Vec::with_capacity(64);
    let mut now = 0u64;
    g.bench_function("generate_saturated_all_full_x1000", |b| {
        b.iter(|| {
            for _ in 0..1_000 {
                now += 1;
                w.generate_into(std::hint::black_box(now), &|_| true, &mut events);
            }
            events.len()
        })
    });
    // A jammed 4C4M with every source still backlogged behind a full
    // port-0 VC: a step of it is phase 1 over those endpoints plus the
    // blocked switches (what `switch_visit`'s `step_all_switches_blocked`
    // times alone).
    let (mut net, layout) = jammed_4c4m(16, 64);
    assert!(
        layout.core_nodes().iter().all(|&c| net.source_backlog_at(c) > 0),
        "every source is backlogged"
    );
    bench_stuck_steps(&mut g, "pump_injection_all_blocked_x1000", &mut net);
    g.finish();
}

/// A wireless 4C4M in medium mode with no MAC attached, every core
/// having offered `packets` packets of `flits` to a core on the next chip,
/// 5 000 cycles in.  Nothing crosses a chip boundary, so the fabric
/// fills and stops: every switch holding flits is out of credit toward
/// its radio or a full neighbour.
fn jammed_4c4m(packets: usize, flits: u32) -> (Network, MultichipLayout) {
    let layout = build_layout(Architecture::Wireless);
    let routes = Routes::build(layout.graph(), RoutingPolicy::default()).unwrap();
    let mut net = Network::new(&layout, routes, NocConfig::paper()).unwrap();
    let cores = layout.core_nodes();
    for (i, &src) in cores.iter().enumerate() {
        for _ in 0..packets {
            net.inject(PacketDesc::new(src, cores[(i + 16) % 64], flits, 0));
        }
    }
    for _ in 0..5_000 {
        net.step();
    }
    (net, layout)
}

/// Times 1 000 steps per sample of `net`, which must be stuck, as
/// `name` in `g` (the microseconds read as ns per step).
fn bench_stuck_steps(g: &mut BenchmarkGroup<'_>, name: &str, net: &mut Network) {
    let stuck = (net.flits_in_flight(), net.source_backlog());
    g.bench_function(name, |b| {
        b.iter(|| {
            for _ in 0..1_000 {
                net.step();
            }
        })
    });
    assert_eq!((net.flits_in_flight(), net.source_backlog()), stuck, "nothing moved");
}

/// A 5-port × 8-VC switch (the mesh switch shape) whose port-0 input
/// VCs `0..active` each hold the first `flits` flits of an endless
/// packet, Active toward port 1 with `credit` credits per output VC,
/// and the cycle the next visit happens at.  Port 0 is the sink.
fn visited_switch(active: usize, flits: u32, credit: u32) -> (Switch, Vec<RouteEntry>, u64) {
    let wired = OutPortSpec { credit, is_sink: false, max_grants: 1 };
    let mut ports = [wired; 5];
    ports[0] = OutPortSpec { credit: 16, is_sink: true, max_grants: 1 };
    let mut sw = Switch::new(NodeId(0), 8, 16, &ports);
    let lut = vec![RouteEntry { port: 1, next: NodeId(1) }; 2];
    for vc in 0..active {
        for seq in 0..flits {
            sw.deliver(0, vc, stream_flit(vc, seq));
        }
    }
    // RC at cycle 0, VA at cycle 1: every VC is Active from cycle 2 on.
    let mut grants = Vec::new();
    sw.alloc_phase(0, &lut, &mut grants);
    sw.alloc_phase(1, &lut, &mut grants);
    assert_eq!(grants.len(), active);
    (sw, lut, 2)
}

/// Flit `seq` of VC `vc`'s endless packet (the tail never comes).
fn stream_flit(vc: usize, seq: u32) -> Flit {
    Flit {
        packet: PacketId(vc as u64 + 1),
        kind: if seq == 0 { FlitKind::Head } else { FlitKind::Body },
        seq,
        src: NodeId(0),
        dest: NodeId(1),
        created_at: 0,
    }
}

fn bench_switch_visit(c: &mut Criterion) {
    // One switch visit (`alloc_phase` + `st_phase`) in the three shapes
    // the loaded trace is made of, and one of them out of L1.  Every routine is 1 000 visits, so
    // the reported microseconds read as ns per visit.
    const VISITS: u64 = 1_000;
    let mut g = c.benchmark_group("switch_visit");
    g.sample_size(30);
    let band = [false; 5];
    // Eight Active VCs, every output VC out of credit: the visit moves
    // nothing (85 % of substrate visits, 28-43 % at saturation).
    g.bench_function("blocked_8_vcs", |b| {
        b.iter_batched(
            || {
                let (mut sw, lut, mut now) = visited_switch(8, 4, 1);
                let (mut budget, mut moves) = (u32::MAX, Vec::new());
                // One flit per VC uses up its output VC's only credit.
                for _ in 0..8 {
                    sw.st_phase(now, |_| 1, &band, &mut budget, &mut moves);
                    assert_eq!(moves.len(), 1);
                    now += 1;
                }
                (sw, lut, now)
            },
            |(mut sw, lut, start)| {
                let (mut grants, mut moves, mut budget) = (Vec::new(), Vec::new(), u32::MAX);
                for now in start..start + VISITS {
                    sw.alloc_phase(now, &lut, &mut grants);
                    sw.st_phase(now, |_| 1, &band, &mut budget, &mut moves);
                    assert!(moves.is_empty());
                }
                sw
            },
            BatchSize::SmallInput,
        )
    });
    // One VC streaming a long packet: a flit arrives, a flit leaves, its
    // credit comes back.
    let scratch = RefCell::new((Vec::new(), Vec::new()));
    let stream = |sw: &mut Switch, lut: &[RouteEntry], seq: u32, now: u64| {
        let (grants, moves) = &mut *scratch.borrow_mut();
        sw.deliver(0, 0, stream_flit(0, seq));
        sw.alloc_phase(now, lut, grants);
        let mut budget = u32::MAX;
        sw.st_phase(now, |_| 1, &band, &mut budget, moves);
        assert_eq!(moves.len(), 1);
        sw.return_credit(1, moves[0].out_vc);
    };
    g.bench_function("streaming_1_vc", |b| {
        b.iter_batched(
            || visited_switch(1, 1, 16),
            |(mut sw, lut, start)| {
                for now in start..start + VISITS {
                    stream(&mut sw, &lut, (now - start) as u32 + 1, now);
                }
                sw
            },
            BatchSize::SmallInput,
        )
    });
    // The same visit with 83 other switches' visits between one and the
    // next, as `Network::step` makes it: what the records cost once they
    // no longer all sit in L1.  One lap of the 16-slot ring before the
    // clock starts, so every line comes from L2, not from wherever the
    // allocator left it.
    const WARM_ROUNDS: u64 = 16;
    let rounds = |switches: &mut [(Switch, Vec<RouteEntry>, u64)], visits: Range<u64>| {
        for visit in visits {
            let (sw, lut, start) = &mut switches[(visit % 84) as usize];
            let round = visit / 84;
            stream(sw, lut, round as u32 + 1, *start + round);
        }
    };
    g.bench_function("round_robin_84", |b| {
        b.iter_batched(
            || {
                let mut switches: Vec<_> = (0..84).map(|_| visited_switch(1, 1, 16)).collect();
                rounds(&mut switches, 0..WARM_ROUNDS * 84);
                switches
            },
            |mut switches| {
                rounds(&mut switches, WARM_ROUNDS * 84..WARM_ROUNDS * 84 + VISITS);
                switches
            },
            BatchSize::SmallInput,
        )
    });
    // Eight Active VCs with flits and credit, one grant per cycle on the
    // port they share: SA picks one, the rest wait.
    g.bench_function("contended_8_vcs", |b| {
        b.iter_batched(
            || visited_switch(8, 2, 16),
            |(mut sw, lut, start)| {
                let (mut grants, mut moves, mut budget) = (Vec::new(), Vec::new(), u32::MAX);
                for now in start..start + VISITS {
                    sw.alloc_phase(now, &lut, &mut grants);
                    sw.st_phase(now, |_| 1, &band, &mut budget, &mut moves);
                    assert_eq!(moves.len(), 1);
                    let m = moves[0];
                    sw.deliver(0, m.in_vc, stream_flit(m.in_vc, m.flit.seq + 2));
                    sw.return_credit(1, m.out_vc);
                }
                sw
            },
            BatchSize::SmallInput,
        )
    });
    // One step of a jammed 4C4M whose sources have all drained into the
    // fabric (one 16-flit packet per core): every switch holding flits is
    // credit-blocked and no injector has work, so the step is what the
    // blocked switches cost.
    let (mut net, _) = jammed_4c4m(1, 16);
    assert_eq!(net.source_backlog(), 0, "every packet is in the fabric");
    bench_stuck_steps(&mut g, "step_all_switches_blocked_x1000", &mut net);
    g.finish();
}

criterion_group!(
    benches,
    bench_switch_visit,
    bench_meter_readout,
    bench_controller_step_drained,
    bench_media_phase_unchanged,
    bench_parallel_mac_step,
    bench_source_side
);
criterion_main!(benches);
