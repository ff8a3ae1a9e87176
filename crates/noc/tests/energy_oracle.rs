//! Energy reconciled against per-component counts (ROADMAP aim 3).
//!
//! [`Network::meter`] prices the engine's own hop and cycle counters.
//! This oracle prices a *different* set of counts — the telemetry
//! sink's per-link `flits` and per-switch `grants`, which `apply_move`
//! bumps at other sites than the energy counter — against descriptors
//! rebuilt here from the layout graph and the energy model, and demands
//! the same limbs for every category.  No medium is attached and nothing
//! charges from outside, so the two must agree on the whole meter.
//!
//! Seeded mutations this was seen to catch: counting a hop on
//! `m.in_port` instead of `m.out_port` (every flit in flight is one
//! link crossing short — only the mid-flight read-out sees it, a drained
//! path has crossed the same edges either way), and skipping
//! ejection-port hops (`SwitchDynamic` falls short of Σ grants).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use wimnet_energy::{EnergyCategory, EnergyMeter, Power};
use wimnet_noc::network::WirelessMode;
use wimnet_noc::{Network, NocConfig, PacketDesc};
use wimnet_routing::{Routes, RoutingPolicy};
use wimnet_topology::{Architecture, EdgeKind, MultichipConfig, MultichipLayout};

/// Loads a 4C4M `arch` network with telemetry on from cycle 0 and no
/// measurement window, and reconciles the meter with the telemetry
/// counts twice: with flits in flight, and after the drain and a
/// fast-forwarded idle tail.
fn reconcile(arch: Architecture, cfg: NocConfig, seed: u64) {
    let layout = MultichipLayout::build(&MultichipConfig::xcym(4, 4, arch)).unwrap();
    let policy = if arch == Architecture::Wireless {
        RoutingPolicy::shortest_path()
    } else {
        RoutingPolicy::default()
    };
    let routes = Routes::build(layout.graph(), policy).unwrap();
    let mut net = Network::new(&layout, routes, cfg.clone()).unwrap();
    net.enable_telemetry(64, false);

    let mut rng = SmallRng::seed_from_u64(seed);
    let nodes: Vec<_> =
        layout.core_nodes().iter().chain(layout.memory_nodes()).copied().collect();
    for k in 0..200u64 {
        let src = nodes[rng.gen_range(0..nodes.len())];
        let dst = nodes[rng.gen_range(0..nodes.len())];
        if src != dst {
            let len = [1u32, 3, 16, 64][rng.gen_range(0..4)];
            net.inject(PacketDesc::new(src, dst, len, k));
        }
    }
    net.run_for(300);
    assert!(net.flits_in_flight() > 0, "the first read-out is mid-flight");
    assert_reconciled(&layout, &cfg, &net);
    net.run_for(20_000);
    assert!(net.stats().packets_delivered() > 100, "the scenario carried traffic");
    assert!(net.fast_forwarded_cycles() > 0, "the idle tail was jumped, not stepped");
    assert_reconciled(&layout, &cfg, &net);
}

fn assert_reconciled(layout: &MultichipLayout, cfg: &NocConfig, net: &Network) {
    // Links exist per node in adjacency order, which is the dense link
    // order telemetry counts in; a switch has its local port plus one
    // per link (no radio ports: interposer, or point-to-point wireless).
    let p2p = matches!(cfg.wireless_mode, WirelessMode::PointToPoint { .. });
    assert_eq!(net.radio_count(), 0, "radio ports are not modelled here");
    let (e, bits) = (&cfg.energy, u64::from(cfg.flit_bits));
    let telemetry = net.telemetry().expect("telemetry is on");
    let graph = layout.graph();
    let mut expected = EnergyMeter::new();
    let mut switch_static = Power::ZERO;
    let mut li = 0;
    for node in graph.node_ids() {
        let mut ports = 1;
        for &(_, eid) in graph.neighbors(node) {
            let edge = graph.edge(eid).unwrap();
            let flits = telemetry.links[li].flits;
            match edge.kind {
                EdgeKind::Mesh => expected.add_repeated(
                    EnergyCategory::Wire,
                    e.wire(bits, edge.length_mm),
                    flits,
                ),
                EdgeKind::Interposer => expected.add_repeated(
                    EnergyCategory::InterposerWire,
                    e.interposer_wire(bits, edge.length_mm),
                    flits,
                ),
                EdgeKind::SerialIo => {
                    expected.add_repeated(EnergyCategory::SerialIo, e.serial_io(bits), flits);
                }
                EdgeKind::WideIo => {
                    expected.add_repeated(EnergyCategory::WideIo, e.wide_io(bits), flits);
                }
                EdgeKind::Wireless => {
                    expected.add_repeated(EnergyCategory::WirelessTx, e.wireless_tx(bits), flits);
                    expected.add_repeated(EnergyCategory::WirelessRx, e.wireless_rx(bits), flits);
                }
            }
            ports += 1;
            li += 1;
        }
        switch_static += e.switch_static(ports);
    }
    assert_eq!(li, telemetry.links.len(), "every link was priced");
    let grants: u64 = telemetry.switches.iter().map(|s| s.grants).sum();
    assert!(grants > telemetry.links.iter().map(|l| l.flits).sum(), "ejections are grants too");
    expected.add_repeated(EnergyCategory::SwitchDynamic, e.switch_traversal(bits), grants);
    let cycles = net.now();
    expected.add_repeated(
        EnergyCategory::SwitchStatic,
        switch_static.energy_over_cycles(1, e.clock),
        cycles,
    );
    if p2p {
        let front_ends = e.wireless_idle * layout.wireless_interfaces().len() as f64;
        expected.add_repeated(
            EnergyCategory::WirelessIdle,
            front_ends.energy_over_cycles(1, e.clock),
            cycles,
        );
    }

    let meter = net.meter();
    for (category, energy) in expected.iter() {
        assert_eq!(
            meter.category(category).joules().to_bits(),
            energy.joules().to_bits(),
            "{category} is not its component counts × its descriptor"
        );
    }
    assert_eq!(meter.total().joules().to_bits(), expected.total().joules().to_bits());
    assert_eq!(meter.charges(), expected.charges(), "one charge per count");
    assert_eq!(meter.ops(), 0, "nothing was charged while the run advanced");
}

#[test]
fn loaded_interposer_energy_is_counts_times_descriptors() {
    reconcile(Architecture::Interposer, NocConfig::paper(), 0xE0);
}

#[test]
fn point_to_point_wireless_energy_is_counts_times_descriptors() {
    let cfg = NocConfig {
        wireless_mode: WirelessMode::PointToPoint {
            rate: 16.0 / 80.0,
            latency: 1,
            max_concurrent: 4,
        },
        ..NocConfig::paper()
    };
    reconcile(Architecture::Wireless, cfg, 0xE1);
}
