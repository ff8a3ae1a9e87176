//! Criterion micro-benchmarks of the simulation engine itself:
//! cycle-stepping throughput, route precomputation and topology
//! construction — the costs that bound every experiment in the paper
//! harness.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use wimnet_core::{CheckpointStore, MultichipSystem, Scale, ScenarioGrid};
use wimnet_memory::{
    AccessKind, AddressMap, ControllerConfig, MemRequest, MemoryController, StackConfig,
};
use wimnet_noc::switch::{OutPortSpec, RouteEntry, Switch};
use wimnet_noc::{Flit, FlitKind, Network, NocConfig, PacketDesc, PacketId};
use wimnet_routing::{Routes, RoutingPolicy};
use wimnet_topology::{Architecture, MultichipConfig, MultichipLayout, NodeId};
use wimnet_traffic::{InjectionProcess, UniformRandom};
use wimnet_wireless::{ChannelConfig, TokenMac};

fn build_layout(arch: Architecture) -> MultichipLayout {
    MultichipLayout::build(&MultichipConfig::xcym(4, 4, arch)).expect("layout")
}

fn bench_topology_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("topology_build");
    for arch in Architecture::ALL {
        g.bench_function(arch.label(), |b| {
            b.iter(|| build_layout(std::hint::black_box(arch)))
        });
    }
    g.finish();
}

fn bench_route_computation(c: &mut Criterion) {
    let mut g = c.benchmark_group("routes_build");
    let layout = build_layout(Architecture::Wireless);
    for (name, policy) in [
        ("tree", RoutingPolicy::tree()),
        ("updown", RoutingPolicy::up_down()),
        ("shortest", RoutingPolicy::shortest_path()),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| Routes::build(layout.graph(), std::hint::black_box(policy)).unwrap())
        });
    }
    g.finish();
}

fn bench_network_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("network_step");
    g.sample_size(20);
    for arch in [Architecture::Interposer, Architecture::Wireless] {
        // 1000 cycles with moderate load already injected.
        g.bench_function(format!("{}_1000_cycles_loaded", arch.label()), |b| {
            b.iter_batched(
                || {
                    let layout = build_layout(arch);
                    let routes =
                        Routes::build(layout.graph(), RoutingPolicy::default()).unwrap();
                    let mut net =
                        Network::new(&layout, routes, NocConfig::paper()).unwrap();
                    let cores = layout.core_nodes().to_vec();
                    for (i, &src) in cores.iter().enumerate() {
                        net.inject(PacketDesc::new(src, cores[(i + 17) % 64], 64, 0));
                    }
                    net
                },
                |mut net| {
                    for _ in 0..1000 {
                        net.step();
                    }
                    net
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

fn bench_idle_step(c: &mut Criterion) {
    // The idle cost matters because long measurement windows are mostly
    // idle at low loads.
    c.bench_function("network_step/idle_1000_cycles", |b| {
        b.iter_batched(
            || {
                let layout = build_layout(Architecture::Interposer);
                let routes =
                    Routes::build(layout.graph(), RoutingPolicy::default()).unwrap();
                Network::new(&layout, routes, NocConfig::paper()).unwrap()
            },
            |mut net| {
                for _ in 0..1000 {
                    net.step();
                }
                net
            },
            BatchSize::LargeInput,
        )
    });
}

fn bench_step_hot_loop(c: &mut Criterion) {
    // The engine's three load regimes: idle (active sets empty and the
    // idle fast-forward short-circuits run_for), low-load (a handful of
    // packets in flight, most components skipped), and saturated (every
    // component active — the active-set overhead ceiling).
    let mut g = c.benchmark_group("step_hot_loop");
    g.sample_size(15);
    let setup = || {
        let layout = build_layout(Architecture::Interposer);
        let routes = Routes::build(layout.graph(), RoutingPolicy::default()).unwrap();
        let cores = layout.core_nodes().to_vec();
        let net = Network::new(&layout, routes, NocConfig::paper()).unwrap();
        (net, cores)
    };
    g.bench_function("idle_10k_cycles", |b| {
        b.iter_batched(
            || setup().0,
            |mut net| {
                net.run_for(10_000);
                net
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("low_load_10k_cycles", |b| {
        b.iter_batched(
            &setup,
            |(mut net, cores)| {
                // A trickle: one 64-flit packet every 500 cycles from a
                // rotating source — the fig3 low-load regime.
                for burst in 0..20u64 {
                    let src = cores[(burst as usize * 7) % cores.len()];
                    let dst = cores[(burst as usize * 7 + 29) % cores.len()];
                    net.inject(PacketDesc::new(src, dst, 64, burst * 500));
                    net.run_for(500);
                }
                net
            },
            BatchSize::LargeInput,
        )
    });
    // Wired-only saturated traffic (no radios anywhere): isolates the
    // switch datapath — slab FIFO walks, arbitration, credit/meter
    // bookkeeping — from every wireless code path.
    g.bench_function("wired_2k_cycles", |b| {
        b.iter_batched(
            || {
                let layout = build_layout(Architecture::Substrate);
                let routes =
                    Routes::build(layout.graph(), RoutingPolicy::default()).unwrap();
                let cores = layout.core_nodes().to_vec();
                let mut net = Network::new(&layout, routes, NocConfig::paper()).unwrap();
                for (i, &src) in cores.iter().enumerate() {
                    for k in 0..4 {
                        let dst = cores[(i + 17 + k * 13) % cores.len()];
                        net.inject(PacketDesc::new(src, dst, 64, 0));
                    }
                }
                net
            },
            |mut net| {
                net.run_for(2_000);
                net
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("saturated_2k_cycles", |b| {
        b.iter_batched(
            &setup,
            |(mut net, cores)| {
                for (i, &src) in cores.iter().enumerate() {
                    for k in 0..4 {
                        let dst = cores[(i + 17 + k * 13) % cores.len()];
                        net.inject(PacketDesc::new(src, dst, 64, 0));
                    }
                }
                net.run_for(2_000);
                net
            },
            BatchSize::LargeInput,
        )
    });
    // Shared-channel MAC attached: exercises the per-cycle MediumView
    // refresh (reused buffers — the view path must not allocate after
    // the first cycle) alongside the control-packet MAC's phase machine.
    g.bench_function("shared_channel_2k_cycles", |b| {
        b.iter_batched(
            || {
                let layout = build_layout(Architecture::Wireless);
                let routes =
                    Routes::build(layout.graph(), RoutingPolicy::default()).unwrap();
                let mut net = Network::new(&layout, routes, NocConfig::paper()).unwrap();
                let channel =
                    wimnet_wireless::ChannelConfig::paper(net.radio_count());
                net.attach_medium(Box::new(wimnet_wireless::ControlPacketMac::new(
                    channel,
                )));
                let cores = layout.core_nodes().to_vec();
                // Cross-chip pairs so traffic actually rides the medium.
                for (i, &src) in cores.iter().enumerate().take(16) {
                    let dst = cores[(i + 19) % cores.len()];
                    net.inject(PacketDesc::new(src, dst, 64, 0));
                }
                net
            },
            |mut net| {
                net.run_for(2_000);
                net
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_inject(c: &mut Criterion) {
    // `Network::inject` alone, no stepping: the cost a workload pays
    // per offered packet.  Divide the reported time by the packet count
    // for ns/packet.
    let mut g = c.benchmark_group("inject");
    let setup = || {
        let layout = build_layout(Architecture::Wireless);
        let routes = Routes::build(layout.graph(), RoutingPolicy::default()).unwrap();
        let net = Network::new(&layout, routes, NocConfig::paper()).unwrap();
        (net, layout)
    };
    // The closed-loop read regime: stacks answer faster than their one
    // port drains, so replies pile up past any source-queue cap — four
    // memory endpoints, 2 000 64-flit packets each (8 000 packets).
    g.bench_function("reply_burst", |b| {
        b.iter_batched(
            &setup,
            |(mut net, layout)| {
                let cores = layout.core_nodes();
                for k in 0..2_000usize {
                    for &stack in layout.memory_nodes() {
                        net.inject(PacketDesc::new(stack, cores[k % cores.len()], 64, 0));
                    }
                }
                net
            },
            BatchSize::LargeInput,
        )
    });
    // The warm-up regime: the first packet at every endpoint of a fresh
    // network (68 packets), where queue storage is first touched.
    g.bench_function("first_touch", |b| {
        b.iter_batched(
            &setup,
            |(mut net, layout)| {
                let cores = layout.core_nodes();
                for (i, &src) in cores.iter().chain(layout.memory_nodes()).enumerate() {
                    let dst = cores[(i + 17) % cores.len()];
                    net.inject(PacketDesc::new(src, dst, 64, 0));
                }
                net
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
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
    // step is the media phase — bring the view up to date (no radio
    // changed) and run a MAC cycle that passes the token.  This is the
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

fn bench_checkpoint_store_lookup(c: &mut Criterion) {
    // One snapshot's trip to disk and back: a substrate 4C4M at the
    // benchmark's `persist` load, cut at cycle 900 with a few thousand
    // flits buffered.  `store` is `to_value` + render + hash + write,
    // `lookup` is read + parse + re-render + hash + `from_value`; the
    // bare `to_string` is the JSON layer's share of a store.
    let grid = ScenarioGrid::new("bench-checkpoint")
        .scale(Scale::Quick)
        .architectures(&[Architecture::Substrate])
        .loads(&[0.004])
        .seeds(&[1]);
    let point = &grid.points()[0];
    let fp = grid.point_fingerprint(point);
    let cfg = grid.experiment(point).config().clone();
    let mut workload = UniformRandom::new(
        cfg.multichip.total_cores(),
        cfg.multichip.num_stacks,
        0.2,
        InjectionProcess::Bernoulli { rate: 0.004 },
        cfg.packet_flits,
        cfg.seed,
    );
    let mut system = MultichipSystem::build(&cfg).unwrap();
    system.run_until(&mut workload, 0, 900).unwrap();
    let snapshot = system.snapshot();
    let dir = std::env::temp_dir().join(format!("wimnet-bench-checkpoint-{}", std::process::id()));
    let store = CheckpointStore::open(&dir).unwrap();
    let mut g = c.benchmark_group("checkpoint_store_lookup");
    g.bench_function("store", |b| b.iter(|| store.store(&fp, &snapshot).unwrap()));
    g.bench_function("lookup", |b| b.iter(|| store.lookup(&fp).expect("served")));
    g.bench_function("to_string", |b| b.iter(|| serde_json::to_string(&snapshot).unwrap()));
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
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
    // the loaded trace is made of.  Every routine is 1 000 visits, so
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
    g.bench_function("streaming_1_vc", |b| {
        b.iter_batched(
            || visited_switch(1, 1, 16),
            |(mut sw, lut, start)| {
                let (mut grants, mut moves, mut budget) = (Vec::new(), Vec::new(), u32::MAX);
                for now in start..start + VISITS {
                    sw.deliver(0, 0, stream_flit(0, (now - start) as u32 + 1));
                    sw.alloc_phase(now, &lut, &mut grants);
                    sw.st_phase(now, |_| 1, &band, &mut budget, &mut moves);
                    assert_eq!(moves.len(), 1);
                    sw.return_credit(1, moves[0].out_vc);
                }
                sw
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
    g.finish();
}

criterion_group!(
    benches,
    bench_topology_build,
    bench_route_computation,
    bench_network_step,
    bench_idle_step,
    bench_step_hot_loop,
    bench_switch_visit,
    bench_inject,
    bench_meter_readout,
    bench_controller_step_drained,
    bench_media_phase_unchanged,
    bench_checkpoint_store_lookup
);
criterion_main!(benches);
