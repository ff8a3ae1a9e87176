//! Model-based tests of the slab VC fabric: random push/pop/stage/owner
//! sequences checked against a reference `VecDeque<Flit>` + stage +
//! owner model (the exact structure the fabric replaced; the fabric
//! packs the last two into one record per VC), plus whole-switch
//! invariant sweeps (`buffered` counter and ready masks vs the per-VC
//! records) under random end-to-end traffic.

use std::collections::VecDeque;

use proptest::prelude::*;

use wimnet_noc::vc::{VcFabric, VcStage};
use wimnet_noc::{
    Flit, FlitKind, MediumActions, MediumView, Network, NocConfig, PacketDesc, PacketId,
    RingSlab, SharedMedium,
};
use wimnet_routing::{Routes, RoutingPolicy};
use wimnet_topology::{Architecture, MultichipConfig, MultichipLayout, NodeId};

/// Minimal test MAC: each cycle, the first TX front anywhere whose
/// target can admit it is transmitted (one flit per cycle, so a stale
/// view can never double-book a receive VC).  Exists purely to drive
/// the radio-port `Switch::deliver` path under the invariant sweep.
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

/// Reference model of one input VC: the pre-slab representation.
#[derive(Debug, Clone)]
struct ModelVc {
    fifo: VecDeque<Flit>,
    owner: Option<PacketId>,
    stage: VcStage,
}

impl ModelVc {
    fn push(&mut self, flit: Flit) {
        if flit.kind.is_head() {
            assert!(self.owner.is_none());
            self.owner = Some(flit.packet);
        }
        if flit.kind.is_tail() {
            self.owner = None;
        }
        self.fifo.push_back(flit);
    }

    /// The pop ST performs, spelled out on the unpacked representation:
    /// read the stage, pop the front, and let a tail release the stage.
    fn pop(&mut self) -> Option<Flit> {
        let flit = self.fifo.pop_front()?;
        if flit.kind.is_tail() {
            self.stage = VcStage::Idle;
        }
        Some(flit)
    }
}

/// A stage drawn from everything the packed record must hold: any byte
/// for the port and the VC, any `ready_at` — `u64::MAX` one time in four.
fn stage_from(bits: u64) -> VcStage {
    let out_port = (bits & 0xFF) as usize;
    let out_vc = (bits >> 8 & 0xFF) as usize;
    let ready_at = if bits >> 16 & 3 == 0 { u64::MAX } else { bits >> 18 };
    match bits >> 62 {
        0 => VcStage::Idle,
        1 => VcStage::Routed { out_port, ready_at },
        _ => VcStage::Active { out_port, out_vc, ready_at },
    }
}

/// In-progress packet feeding one model VC (so generated flit sequences
/// always respect wormhole ownership).
#[derive(Debug, Clone, Copy)]
struct Incoming {
    packet: u64,
    next_seq: u32,
    len: u32,
}

fn flit_at(packet: u64, seq: u32, len: u32) -> Flit {
    Flit {
        packet: PacketId(packet),
        kind: Flit::kind_for(seq, len),
        seq,
        src: NodeId(0),
        dest: NodeId((packet % 7) as usize + 1),
        created_at: packet ^ u64::from(seq),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Push/pop/stage sequences over several VCs behave exactly like
    /// per-VC `VecDeque`s with a stage and an owner beside each: same
    /// fronts, same pops, same owners, same stages, same lengths — and
    /// neither slab slots nor records of different VCs interfere.
    /// Every in-range [`VcStage`] reads back as written, and the fused
    /// pop equals `stage` + `pop` + `set_stage(Idle)` behind a tail on
    /// the reference.
    #[test]
    fn fabric_round_trips_against_the_vecdeque_model(
        ports in 1usize..4,
        vcs in 1usize..4,
        capacity in 1usize..6,
        ops in prop::collection::vec((0u8..4, 0usize..16, 1u32..5, any::<u64>()), 1..200),
    ) {
        let mut fabric = VcFabric::new(ports, vcs, capacity);
        let n = ports * vcs;
        let mut model: Vec<ModelVc> = (0..n)
            .map(|_| ModelVc { fifo: VecDeque::new(), owner: None, stage: VcStage::Idle })
            .collect();
        let mut incoming: Vec<Option<Incoming>> = vec![None; n];
        let mut next_packet = 1u64;

        for (op, target, len, bits) in ops {
            let flat = target % n;
            match op {
                // Push the next legal flit (new head, or continuation).
                0 => {
                    if model[flat].fifo.len() == capacity {
                        continue;
                    }
                    let inc = match incoming[flat] {
                        Some(inc) => inc,
                        None => {
                            if model[flat].owner.is_some() {
                                continue; // entry reservation still held
                            }
                            Incoming { packet: next_packet, next_seq: 0, len }
                        }
                    };
                    let f = flit_at(inc.packet, inc.next_seq, inc.len);
                    if inc.next_seq == 0 {
                        next_packet += 1;
                    }
                    fabric.push(flat, f);
                    model[flat].push(f);
                    incoming[flat] = if f.kind.is_tail() {
                        None
                    } else {
                        Some(Incoming { next_seq: inc.next_seq + 1, ..inc })
                    };
                }
                // Pop and compare (the stage is compared below, with
                // everything else).
                1 => {
                    let got = fabric.pop(flat);
                    let want = model[flat].pop();
                    prop_assert_eq!(got, want, "pop diverged on VC {}", flat);
                }
                // Stage write, read back at once.
                2 => {
                    let stage = stage_from(bits);
                    fabric.set_stage(flat, stage);
                    prop_assert_eq!(fabric.stage(flat), stage);
                    model[flat].stage = stage;
                }
                // Admission probe on an arbitrary packet id.
                _ => {
                    let probe = PacketId(u64::from(len));
                    let is_head = target % 2 == 0;
                    let want = match model[flat].owner {
                        Some(owner) => owner == probe && !is_head,
                        None => is_head,
                    };
                    prop_assert_eq!(fabric.may_accept(flat, probe, is_head), want);
                }
            }
            // Full observational equivalence after every op.
            for (vc, m) in model.iter().enumerate() {
                prop_assert_eq!(fabric.len(vc), m.fifo.len());
                prop_assert_eq!(fabric.is_empty(vc), m.fifo.is_empty());
                prop_assert_eq!(fabric.free_space(vc), capacity - m.fifo.len());
                prop_assert_eq!(fabric.owner(vc), m.owner);
                prop_assert_eq!(fabric.stage(vc), m.stage);
                prop_assert_eq!(fabric.front(vc), m.fifo.front().copied());
                for i in 0..m.fifo.len() {
                    prop_assert_eq!(fabric.get(vc, i), m.fifo.get(i).copied());
                }
                if !m.fifo.is_empty() {
                    let front = *m.fifo.front().unwrap();
                    prop_assert_eq!(fabric.front_kind(vc), front.kind);
                    prop_assert_eq!(fabric.front_dest(vc), front.dest);
                    prop_assert_eq!(fabric.front_packet(vc), front.packet);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Random push/pop sequences over a multi-lane [`RingSlab`] behave
    /// exactly like a `VecDeque` per lane (the structure the slab
    /// replaced for link pipelines and radio TX FIFOs):
    /// same fronts, same pops, same iteration order, same lengths —
    /// including across capacity growth — and lanes never interfere.
    #[test]
    fn ring_slab_round_trips_against_the_vecdeque_model(
        caps in prop::collection::vec(0usize..6, 1..5),
        ops in prop::collection::vec((0u8..3, 0usize..16, any::<u64>()), 1..200),
    ) {
        let lanes = caps.len();
        let mut slab = RingSlab::with_capacities(&caps, 0u64);
        let mut model: Vec<VecDeque<u64>> = vec![VecDeque::new(); lanes];

        for (op, target, value) in ops {
            let lane = target % lanes;
            match op {
                // Fixed-capacity push (skipped when full — overflow is a
                // protocol violation the slab asserts).
                0 => {
                    if slab.free_space(lane) == 0 {
                        continue;
                    }
                    slab.push_back(lane, value);
                    model[lane].push_back(value);
                }
                // Growing push: always legal, rebuilds the slab when the
                // lane is full.
                1 => {
                    slab.push_back_growing(lane, value);
                    model[lane].push_back(value);
                }
                // Pop and compare.
                _ => {
                    prop_assert_eq!(slab.pop_front(lane), model[lane].pop_front());
                }
            }
            // Full observational equivalence after every op.
            for (l, m) in model.iter().enumerate() {
                prop_assert_eq!(slab.len(l), m.len());
                prop_assert_eq!(slab.is_empty(l), m.is_empty());
                prop_assert!(slab.capacity(l) >= m.len());
                prop_assert_eq!(slab.front(l), m.front().copied());
                for i in 0..m.len() {
                    prop_assert_eq!(slab.get(l, i), m.get(i).copied());
                }
                prop_assert_eq!(slab.get(l, m.len()), None);
                prop_assert_eq!(
                    slab.iter(l).collect::<Vec<_>>(),
                    m.iter().copied().collect::<Vec<_>>()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Under random end-to-end traffic, every switch's `buffered`
    /// counter and ready masks stay consistent with the per-VC tables
    /// at every cycle (the engine's O(1) active-set checks and the
    /// allocators' candidate sets depend on it).
    /// The wireless case runs with a medium attached so radio-port
    /// deliveries (`apply_medium_actions`) hit the sweep too.
    #[test]
    fn switch_invariants_hold_under_random_traffic(
        arch_idx in 0usize..3,
        seed in 0u64..1_000,
        n_packets in 1usize..40,
    ) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let arch = [
            Architecture::Substrate,
            Architecture::Interposer,
            Architecture::Wireless,
        ][arch_idx];
        let layout =
            MultichipLayout::build(&MultichipConfig::xcym(4, 4, arch)).unwrap();
        let routes = Routes::build(layout.graph(), RoutingPolicy::default()).unwrap();
        let mut net = Network::new(&layout, routes, NocConfig::paper()).unwrap();
        if arch == Architecture::Wireless {
            net.attach_medium(Box::new(OneFlitMac));
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let nodes: Vec<_> = layout
            .core_nodes()
            .iter()
            .chain(layout.memory_nodes())
            .copied()
            .collect();
        for k in 0..n_packets {
            let src = nodes[rng.gen_range(0..nodes.len())];
            let dst = nodes[rng.gen_range(0..nodes.len())];
            if src == dst {
                continue;
            }
            let len = [1u32, 3, 16, 64][rng.gen_range(0..4)];
            net.inject(PacketDesc::new(src, dst, len, k as u64));
        }
        for _ in 0..400u64 {
            net.step();
            net.assert_switch_invariants();
        }
    }
}

/// Deterministic spot check kept outside proptest so a failure prints a
/// plain backtrace: a wrapping FIFO with mixed packet sizes.
#[test]
fn wrapping_ring_reproduces_vecdeque_order() {
    let mut fabric = VcFabric::new(1, 1, 4);
    let mut model: VecDeque<Flit> = VecDeque::new();
    let mut packet = 1u64;
    for round in 0..50u32 {
        let len = (round % 3) + 1;
        if fabric.free_space(0) >= len as usize && fabric.owner(0).is_none() {
            for seq in 0..len {
                let f = flit_at(packet, seq, len);
                fabric.push(0, f);
                model.push_back(f);
            }
            packet += 1;
        }
        for _ in 0..(round % 4) {
            assert_eq!(fabric.pop(0), model.pop_front());
        }
        assert_eq!(fabric.len(0), model.len());
        assert_eq!(fabric.front(0), model.front().copied());
    }
}

#[test]
fn flit_kind_default_is_body() {
    // The slab pre-fills its kind lane with the default; pin it so slab
    // initialisation never accidentally fabricates head/tail markers.
    assert_eq!(FlitKind::default(), FlitKind::Body);
}
