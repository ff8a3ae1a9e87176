//! Criterion micro-benchmarks of the simulation engine itself:
//! cycle-stepping throughput, route precomputation and topology
//! construction — the costs that bound every experiment in the paper
//! harness.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use wimnet_noc::{Network, NocConfig, PacketDesc};
use wimnet_routing::{Routes, RoutingPolicy};
use wimnet_topology::{Architecture, MultichipConfig, MultichipLayout};

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

criterion_group!(
    benches,
    bench_topology_build,
    bench_route_computation,
    bench_network_step,
    bench_idle_step,
    bench_step_hot_loop,
    bench_inject
);
criterion_main!(benches);
