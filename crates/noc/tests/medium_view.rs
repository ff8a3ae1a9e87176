//! The medium-view invariant: a radio not marked dirty views exactly as
//! a from-scratch rebuild would.
//!
//! [`Network`] keeps the `MediumView` its shared media read across
//! cycles and rebuilds only the radios whose TX FIFOs or RX VCs changed
//! (a dirty bit per radio, set at the radio push, the radio-port pop,
//! `MediumAction::Transmit` and on restore).  A missed mark leaves a MAC
//! scheduling against stale occupancy, so this test runs a loaded 4C4M
//! under each shipped MAC and checks
//! [`Network::assert_medium_view_invariant`] after every cycle, across
//! one mid-run `state()` → `restore_state` round trip into a freshly
//! built network.  Debug builds also assert the invariant inside every
//! refresh; the explicit call is what a `--release` run of this test
//! still checks.
//!
//! Seeded mutation this was seen to catch: dropping the
//! `Upstream::Radio` mark in `Network::apply_move` (the pop from a
//! radio's receive port).  The RX `len` in the view then goes stale one
//! cycle after the first radio-port pop, and all three cases fail there.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use wimnet_noc::{Network, NocConfig, PacketDesc, SharedMedium};
use wimnet_routing::{Routes, RoutingPolicy};
use wimnet_topology::{Architecture, MultichipConfig, MultichipLayout};
use wimnet_wireless::{ChannelConfig, ControlPacketMac, ParallelMac, TokenMac};

const CYCLES: u64 = 3_000;
/// Packets per core per cycle.
const LOAD: f64 = 0.008;
const PACKET_FLITS: u32 = 64;

fn build(mac: fn(ChannelConfig) -> Box<dyn SharedMedium>) -> (MultichipLayout, Network) {
    let layout =
        MultichipLayout::build(&MultichipConfig::xcym(4, 4, Architecture::Wireless))
            .unwrap();
    let routes = Routes::build(layout.graph(), RoutingPolicy::default()).unwrap();
    // Deep enough for the token MAC's whole-packet rule.
    let cfg = NocConfig { radio_tx_depth: PACKET_FLITS as usize, ..NocConfig::paper() };
    let mut net = Network::new(&layout, routes, cfg).unwrap();
    net.attach_medium(mac(ChannelConfig::paper(net.radio_count())));
    (layout, net)
}

fn view_tracks_a_rebuild_every_cycle(mac: fn(ChannelConfig) -> Box<dyn SharedMedium>) {
    let (layout, mut net) = build(mac);
    let cores = layout.core_nodes();
    let endpoints: Vec<_> = cores.iter().chain(layout.memory_nodes()).copied().collect();
    let mut rng = SmallRng::seed_from_u64(0x71e3);
    for cycle in 0..CYCLES {
        for &src in cores {
            if rng.gen::<f64>() < LOAD {
                let dest = endpoints[rng.gen_range(0..endpoints.len())];
                if dest != src {
                    net.inject(PacketDesc::new(src, dest, PACKET_FLITS, cycle));
                }
            }
        }
        net.step();
        net.drain_arrivals();
        net.assert_medium_view_invariant();
        if cycle == CYCLES / 2 {
            assert!(net.radio_backlog() > 0, "the snapshot must catch radios mid-transfer");
            let snapshot = net.state();
            let (_, mut resumed) = build(mac);
            resumed.restore_state(&snapshot).unwrap();
            resumed.assert_medium_view_invariant();
            net = resumed;
        }
    }
    // A serialized channel moves one flit per five cycles at best.
    assert!(
        net.medium_counters()[0].data_flits > CYCLES / 10,
        "the medium must have carried real traffic: {:?}",
        net.medium_counters()
    );
}

#[test]
fn control_packet_mac_view_tracks_a_rebuild() {
    view_tracks_a_rebuild_every_cycle(|c| Box::new(ControlPacketMac::new(c)));
}

#[test]
fn token_mac_view_tracks_a_rebuild() {
    view_tracks_a_rebuild_every_cycle(|c| Box::new(TokenMac::new(c)));
}

#[test]
fn parallel_mac_view_tracks_a_rebuild() {
    view_tracks_a_rebuild_every_cycle(|c| Box::new(ParallelMac::new(c)));
}
