//! Property-based tests of the engine's building blocks and the
//! end-to-end conservation laws.

use proptest::prelude::*;

use wimnet_noc::arbiter::RoundRobin;
use wimnet_noc::{Link, Network, NocConfig, PacketDesc};
use wimnet_routing::{Routes, RoutingPolicy};
use wimnet_topology::{Architecture, EdgeId, EdgeKind, MultichipConfig, MultichipLayout};

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Round-robin arbitration is work-conserving and starvation-free:
    /// with a persistent requester set, everyone wins within n grants.
    #[test]
    fn round_robin_is_starvation_free(
        n in 1usize..16,
        requesters in prop::collection::vec(any::<bool>(), 1..16),
    ) {
        let n = n.min(requesters.len());
        let req = &requesters[..n];
        if !req.iter().any(|&r| r) {
            let mut arb = RoundRobin::new(n);
            prop_assert_eq!(arb.grant(|i| req[i]), None);
            return Ok(());
        }
        let mut arb = RoundRobin::new(n);
        let mut last_win = vec![0usize; n];
        for round in 1..=(3 * n) {
            let w = arb.grant(|i| req[i]).unwrap();
            prop_assert!(req[w]);
            last_win[w] = round;
        }
        for (i, &r) in req.iter().enumerate() {
            if r {
                // Every persistent requester won within the last n rounds.
                prop_assert!(last_win[i] > 2 * n, "requester {i} starved");
            }
        }
    }

    /// The serialised form of a VC buffer is lossless for arbitrary
    /// flit sequences, far beyond the ones the engine makes: about half
    /// the flits continue the one before (so runs form), the rest are
    /// drawn from a domain small enough that near-misses — the same
    /// packet with a gap in `seq`, a head or head-tail mid-run, a body
    /// at `seq` 0, a flit after a tail, a `seq` at `u32::MAX` — are
    /// common.  Encoding is also canonical: what a run expands to
    /// encodes back to the same runs.
    ///
    /// Seeded mutation this was seen to catch: merging across a tail
    /// (dropping `!self.tail` from `FlitRun::continued_by`).
    #[test]
    fn flit_runs_are_lossless_for_arbitrary_sequences(
        draws in prop::collection::vec((0u8..10, 0u8..4, 0u32..6, 0u64..16), 0..40),
    ) {
        use wimnet_noc::{Flit, FlitKind, FlitRun, PacketId};
        use wimnet_topology::NodeId;
        const KINDS: [FlitKind; 4] =
            [FlitKind::Head, FlitKind::Body, FlitKind::Tail, FlitKind::HeadTail];
        const SEQS: [u32; 6] = [0, 1, 2, 3, u32::MAX - 1, u32::MAX];
        let mut flits: Vec<Flit> = Vec::new();
        for (mode, kind, seq, bits) in draws {
            let flit = match flits.last() {
                Some(&prev) if mode < 5 => Flit {
                    kind: if mode == 0 { FlitKind::Tail } else { FlitKind::Body },
                    seq: prev.seq.wrapping_add(1),
                    ..prev
                },
                _ => Flit {
                    packet: PacketId(bits & 1),
                    kind: KINDS[usize::from(kind)],
                    seq: SEQS[seq as usize],
                    src: NodeId((bits >> 1 & 1) as usize),
                    dest: NodeId((bits >> 2 & 1) as usize),
                    created_at: bits >> 3,
                },
            };
            flits.push(flit);
        }
        let runs = FlitRun::encode(flits.iter().copied());
        for run in &runs {
            prop_assert_eq!(run.check(), Ok(()));
        }
        let expanded: Vec<Flit> = FlitRun::expand(&runs).collect();
        prop_assert_eq!(&expanded, &flits);
        prop_assert_eq!(FlitRun::encode(expanded), runs);
    }

    /// A link's long-run throughput equals its configured rate.
    #[test]
    fn link_throughput_matches_rate(
        rate_milli in 100u32..2000,
        cycles in 100u64..2000,
    ) {
        let rate = f64::from(rate_milli) / 1000.0;
        let mut link = Link::new(EdgeId(0), EdgeKind::Mesh, 1.0, rate, 1);
        let flit = wimnet_noc::Flit {
            packet: wimnet_noc::PacketId(0),
            kind: wimnet_noc::FlitKind::Body,
            seq: 0,
            src: wimnet_topology::NodeId(0),
            dest: wimnet_topology::NodeId(1),
            created_at: 0,
        };
        let fill = wimnet_noc::link::LinkDelivery { flit, vc: 0, arrives_at: 0 };
        let mut flight = wimnet_noc::RingSlab::uniform(1, link.flight_capacity(), fill);
        let mut sent = 0u64;
        for now in 0..cycles {
            link.begin_cycle();
            Link::take_arrivals_into(&mut flight, 0, now, |_| {});
            while link.can_accept() {
                link.send(&mut flight, 0, flit, 0, now);
                sent += 1;
            }
        }
        let expected = rate * cycles as f64;
        prop_assert!(
            (sent as f64 - expected).abs() <= rate.max(1.0) + 1.0,
            "sent {sent}, expected ~{expected}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// End-to-end conservation on random traffic mixes: every injected
    /// packet is delivered exactly once, with its full flit count, on
    /// every wired architecture.
    #[test]
    fn wired_networks_conserve_random_traffic(
        arch_idx in 0usize..2,
        seed in 0u64..10_000,
        n_packets in 1usize..80,
    ) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let arch = [Architecture::Substrate, Architecture::Interposer][arch_idx];
        let layout =
            MultichipLayout::build(&MultichipConfig::xcym(4, 4, arch)).unwrap();
        let routes = Routes::build(layout.graph(), RoutingPolicy::default()).unwrap();
        let mut net = Network::new(&layout, routes, NocConfig::paper()).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let nodes: Vec<_> = layout
            .core_nodes()
            .iter()
            .chain(layout.memory_nodes())
            .copied()
            .collect();
        let mut flits = 0u64;
        for k in 0..n_packets {
            let src = nodes[rng.gen_range(0..nodes.len())];
            let dst = nodes[rng.gen_range(0..nodes.len())];
            if src == dst {
                continue;
            }
            let len = [1u32, 3, 16, 64][rng.gen_range(0..4)];
            net.inject(PacketDesc::new(src, dst, len, k as u64));
            flits += u64::from(len);
        }
        let injected = net.stats().packets_injected();
        for _ in 0..120_000u64 {
            if net.flits_in_flight() == 0 && net.source_backlog() == 0 {
                break;
            }
            net.step();
        }
        prop_assert_eq!(net.stats().packets_delivered(), injected);
        prop_assert_eq!(net.stats().flits_delivered(), flits);
        prop_assert!(net.meter().verify_conservation(1e-9));
        prop_assert_eq!(net.flits_in_flight(), 0);
    }
}
