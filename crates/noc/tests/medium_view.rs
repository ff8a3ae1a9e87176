//! The medium-view invariant: every radio views exactly as a
//! from-scratch rebuild would.
//!
//! [`Network`] builds the `MediumView` its shared media read once, on
//! construction and restore, and writes it through at the four sites
//! that change a radio: the TX push and the radio-port pop in a switch
//! visit, the TX pop and the RX delivery of a MAC transmit.  There are
//! no dirty marks and no refresh, so a missed write leaves a MAC
//! scheduling against stale occupancy for good.  This test runs a loaded
//! 4C4M under each shipped MAC and compares every radio with a rebuild
//! ([`Network::assert_medium_view_invariant`]) after every cycle, and
//! across one mid-run `state()` → `restore_state` round trip into a
//! freshly built network.  Debug builds also check it at the start of
//! every media phase; the explicit call is what a `--release` run of
//! this test still checks.
//!
//! Seeded mutation this was seen to catch: dropping the RX-pop write in
//! `SwitchVisit::traverse` (the `Upstream::Radio` arm, a flit leaving a
//! radio's receive port).  The RX `len` in the view then stays high
//! after the first radio-port pop, and all three cases fail on the
//! cycle of that pop.

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
