//! Golden per-cycle hash chains for [`Network::step`].
//!
//! Eight fixed-seed scenarios — the three architectures, both wireless
//! realisations, a second substrate seed, the fast-forward composition
//! case, and the two regimes where most switch visits move nothing
//! (substrate at saturation, a wide-I/O memory hot-spot) — each fold
//! the complete observable state after every cycle (clock,
//! in-flight/source/radio backlogs, statistics, meter category bits,
//! drained arrivals, `is_idle`) into one 64-bit chain, asserted against
//! a checked-in constant.
//!
//! The first six constants were recorded from the swept-and-sorted
//! reference stepper this engine replaced, at the last commit where
//! both steppers existed (the masked stepper produced the same six
//! values there); the last two from the busy-VC pre-pass stepper, at
//! the commit before the ready masks replaced it.  A chain that moves
//! means a grant, a move, an arrival order or a meter bit changed on
//! some cycle: that is an engine behaviour change (and an
//! `ENGINE_VERSION` bump), never a constant to refresh casually.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use wimnet_noc::network::WirelessMode;
use wimnet_noc::{
    MediumActions, MediumView, Network, NocConfig, PacketDesc, SharedMedium,
};
use wimnet_routing::{Routes, RoutingPolicy};
use wimnet_topology::{Architecture, MultichipConfig, MultichipLayout};

/// Minimal deterministic test MAC (same as `slab_model.rs`): each cycle
/// the first TX front anywhere whose target can admit it is transmitted.
struct OneFlitMac;

impl SharedMedium for OneFlitMac {
    fn step(&mut self, _now: u64, view: &MediumView, actions: &mut MediumActions) {
        for radio in view.radios() {
            for (tx_vc, tx) in radio.tx.iter().enumerate() {
                let Some((flit, target)) = tx.front else { continue };
                let Some(rx_vc) =
                    view.rx_admission(target, flit.packet, flit.kind.is_head())
                else {
                    continue;
                };
                actions.transmit(radio.id, tx_vc, rx_vc);
                return;
            }
        }
    }

    fn name(&self) -> &str {
        "one-flit-test-mac"
    }
}

fn build(arch: Architecture, cfg: NocConfig) -> (MultichipLayout, Network) {
    let layout = MultichipLayout::build(&MultichipConfig::xcym(4, 4, arch)).unwrap();
    let policy = if arch == Architecture::Wireless {
        RoutingPolicy::shortest_path()
    } else {
        RoutingPolicy::default()
    };
    let routes = Routes::build(layout.graph(), policy).unwrap();
    let net = Network::new(&layout, routes, cfg).unwrap();
    (layout, net)
}

fn inject_random(layout: &MultichipLayout, net: &mut Network, seed: u64, packets: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let nodes: Vec<_> = layout
        .core_nodes()
        .iter()
        .chain(layout.memory_nodes())
        .copied()
        .collect();
    for k in 0..packets {
        let src = nodes[rng.gen_range(0..nodes.len())];
        let dst = nodes[rng.gen_range(0..nodes.len())];
        if src == dst {
            continue;
        }
        let len = [1u32, 3, 16, 64][rng.gen_range(0..4)];
        net.inject(PacketDesc::new(src, dst, len, k as u64));
    }
}

/// One 64-bit hash chain (splitmix64 finaliser over `state ^ word`).
struct Chain(u64);

impl Chain {
    fn word(&mut self, x: u64) {
        let mut z = (self.0 ^ x).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }

    fn opt(&mut self, x: Option<u64>) {
        self.word(u64::from(x.is_some()));
        self.word(x.unwrap_or(0));
    }

    /// Folds everything an observer can tell two networks apart by
    /// after a cycle; drains the arrival list like a driver would.
    fn observe(&mut self, net: &mut Network) {
        self.word(net.now());
        self.word(net.flits_in_flight());
        self.word(net.source_backlog());
        self.word(net.radio_backlog());
        let s = net.stats();
        for x in [
            s.packets_injected(),
            s.packets_delivered(),
            s.flits_delivered(),
            s.window_packets_injected(),
            s.window_packets_delivered(),
            s.window_flits_delivered(),
            s.window_cycles(),
            s.latency_samples(),
        ] {
            self.word(x);
        }
        self.opt(s.window_start());
        self.opt(s.min_latency());
        self.opt(s.max_latency());
        self.opt(s.average_latency().map(f64::to_bits));
        for (_, energy) in net.meter().iter() {
            self.word(energy.joules().to_bits());
        }
        let arrivals = net.drain_arrivals();
        self.word(arrivals.len() as u64);
        for p in arrivals {
            for x in [
                p.id.0,
                p.src.index() as u64,
                p.dest.index() as u64,
                u64::from(p.flits),
                p.created_at,
                p.arrived_at,
            ] {
                self.word(x);
            }
        }
        self.word(u64::from(net.is_idle()));
    }
}

/// 40 random packets injected at cycle 0, then 600 observed cycles.
fn loaded_chain(arch: Architecture, cfg: NocConfig, medium: bool, seed: u64) -> u64 {
    let (layout, mut net) = build(arch, cfg);
    if medium {
        net.attach_medium(Box::new(OneFlitMac));
    }
    inject_random(&layout, &mut net, seed, 40);
    run_chain(&mut net, seed, 600)
}

#[test]
fn golden_chain_substrate() {
    let got = loaded_chain(Architecture::Substrate, NocConfig::paper(), false, 0xA11CE);
    assert_eq!(got, SUBSTRATE, "{got:#018x}");
}

#[test]
fn golden_chain_substrate_second_seed() {
    let got = loaded_chain(Architecture::Substrate, NocConfig::paper(), false, 0x5EED);
    assert_eq!(got, SUBSTRATE_SECOND_SEED, "{got:#018x}");
}

#[test]
fn golden_chain_interposer() {
    let got = loaded_chain(Architecture::Interposer, NocConfig::paper(), false, 0xB0B);
    assert_eq!(got, INTERPOSER, "{got:#018x}");
}

#[test]
fn golden_chain_wireless_point_to_point() {
    let cfg = NocConfig {
        wireless_mode: WirelessMode::PointToPoint {
            rate: 16.0 / 80.0,
            latency: 1,
            max_concurrent: 4,
        },
        ..NocConfig::paper()
    };
    let got = loaded_chain(Architecture::Wireless, cfg, false, 0xCAFE);
    assert_eq!(got, WIRELESS_POINT_TO_POINT, "{got:#018x}");
}

#[test]
fn golden_chain_wireless_medium() {
    let got = loaded_chain(Architecture::Wireless, NocConfig::paper(), true, 0xD00D);
    assert_eq!(got, WIRELESS_MEDIUM, "{got:#018x}");
}

/// Stepping composes with idle fast-forward: run a short packet to
/// idle, skip 1000 cycles in one jump, inject the reverse packet and
/// resume.
#[test]
fn golden_chain_fast_forward_composition() {
    let (layout, mut net) = build(Architecture::Substrate, NocConfig::paper());
    let src = layout.core_nodes()[0];
    let dst = layout.core_nodes()[9];
    let mut chain = Chain(0);
    net.inject(PacketDesc::new(src, dst, 8, 0));
    for _ in 0..200u64 {
        net.step();
        chain.observe(&mut net);
    }
    assert!(net.is_idle(), "short packet drained");
    assert_eq!(net.fast_forward(1000), 1000);
    chain.observe(&mut net);
    net.inject(PacketDesc::new(dst, src, 8, 0));
    for _ in 0..200u64 {
        net.step();
        chain.observe(&mut net);
    }
    assert_eq!(net.fast_forwarded_cycles(), 1000);
    assert_eq!(chain.0, FAST_FORWARD_COMPOSITION, "{:#018x}", chain.0);
}

/// Folds `cycles` stepped cycles (invariants checked after each).
fn run_chain(net: &mut Network, seed: u64, cycles: u64) -> u64 {
    let mut chain = Chain(seed);
    for _ in 0..cycles {
        net.step();
        net.assert_switch_invariants();
        chain.observe(net);
    }
    chain.0
}

/// Substrate at saturation: every core queues three 64-flit packets for
/// the same mesh position two chips over, so the 0.1875-rate serial
/// links stay credit-starved and most switch visits find every Active
/// VC blocked.
#[test]
fn golden_chain_substrate_saturated() {
    let (layout, mut net) = build(Architecture::Substrate, NocConfig::paper());
    let cores = layout.core_nodes();
    for k in 0..3u64 {
        for (i, &src) in cores.iter().enumerate() {
            let dst = cores[(i + 32 + 5 * k as usize) % cores.len()];
            net.inject(PacketDesc::new(src, dst, 64, k));
        }
    }
    let got = run_chain(&mut net, 0x5A7, 1500);
    assert_eq!(got, SUBSTRATE_SATURATED, "{got:#018x}");
}

/// Wide-I/O memory hot-spot: every core of the chip adjacent to stack 0
/// streams short and long packets at that one stack, so many input VCs
/// contend in VA for the few output VCs of the `max_grants = 2` port.
#[test]
fn golden_chain_memory_hot_spot() {
    let (layout, mut net) = build(Architecture::Substrate, NocConfig::paper());
    let stack = layout.memory_nodes()[0];
    let base = layout.adjacent_chip_of_stack(0).unwrap() * 16;
    for k in 0..12u64 {
        for c in 0..16usize {
            let len = [1u32, 3, 16, 64][(c + k as usize) % 4];
            net.inject(PacketDesc::new(layout.core_nodes()[base + c], stack, len, k * 20));
        }
    }
    let got = run_chain(&mut net, 0x407, 1200);
    assert_eq!(got, MEMORY_HOT_SPOT, "{got:#018x}");
}

const SUBSTRATE: u64 = 0x87e8_642b_92bc_457f;
const SUBSTRATE_SECOND_SEED: u64 = 0x235c_92e7_64d3_2524;
const INTERPOSER: u64 = 0x8119_f9b9_da3a_442e;
const WIRELESS_POINT_TO_POINT: u64 = 0x591b_59f3_417e_2ae3;
const WIRELESS_MEDIUM: u64 = 0xc362_55dd_f7c7_8c0c;
const FAST_FORWARD_COMPOSITION: u64 = 0xd12e_a5da_5c1b_0def;
const SUBSTRATE_SATURATED: u64 = 0x5692_fce6_7e0b_5f4b;
const MEMORY_HOT_SPOT: u64 = 0xdf55_f522_378e_813e;
