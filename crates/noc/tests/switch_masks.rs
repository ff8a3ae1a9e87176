//! Ready-mask bookkeeping of one [`Switch`] under random operation
//! sequences.
//!
//! The golden hash chains (`golden_step.rs`) pin *what* the switch
//! decides; this pins the bookkeeping behind it: after every single
//! `deliver` / `alloc_phase` / `st_phase` / `return_credit` /
//! `state`→`restore_state`, [`Switch::assert_invariants`] recomputes
//! every ready mask and the output-VC holder table from the per-VC
//! tables and demands equality with the incrementally kept copy.  The
//! phases' own debug assertions check mask eligibility against
//! `ready_at` on the way.
//!
//! After every operation the sleep verdict is held to its definition
//! and to what the engine relies on it for:
//!
//! * **(a)** [`Switch::can_sleep`] equals the verdict read off the
//!   serialised [`Switch::state`] tables alone (no idle VC with a flit,
//!   no Active VC with a flit and credit, no Routed VC whose port has an
//!   unowned output VC);
//! * **(b)** a visit to a switch whose verdict is true is a no-op under
//!   every link allowance, band flag and band budget tried: no grants,
//!   no moves, the budget untouched and `state()` unchanged — so
//!   skipping it is unobservable.

use proptest::prelude::*;
use serde::{Serialize, Value};

use wimnet_noc::switch::{OutPortSpec, RouteEntry, Switch};
use wimnet_noc::{Flit, PacketId};
use wimnet_topology::NodeId;

const PORTS: usize = 4;
const VCS: usize = 4;
const DEPTH: usize = 3;

/// Port 0 ejects; the wired ports have little credit, so Active VCs
/// block often, and port 3 is wide (`max_grants = 2`).
fn specs() -> [OutPortSpec; PORTS] {
    [
        OutPortSpec { credit: 4, is_sink: true, max_grants: 1 },
        OutPortSpec { credit: 1, is_sink: false, max_grants: 1 },
        OutPortSpec { credit: 2, is_sink: false, max_grants: 1 },
        OutPortSpec { credit: 2, is_sink: false, max_grants: 2 },
    ]
}

fn fresh_switch() -> Switch {
    Switch::new(NodeId(0), VCS, DEPTH, &specs())
}

/// Destination `d` leaves through port `d`.
fn lut() -> Vec<RouteEntry> {
    (0..PORTS).map(|d| RouteEntry { port: d, next: NodeId(d) }).collect()
}

/// The sleep verdict by brute force over the serialised snapshot
/// tables: `true` unless some listed input VC could act next cycle.
fn sleeps_by_the_tables(sw: &Switch) -> bool {
    let tree = sw.state().to_value();
    let uint = |v: Option<&Value>| match v {
        Some(Value::UInt(u)) => *u as usize,
        other => panic!("expected an unsigned integer, got {other:?}"),
    };
    let rows = |key: &str| -> Vec<(usize, &Value)> {
        let Some(Value::Seq(rows)) = tree.get(key) else { panic!("`{key}` is a sequence") };
        rows.iter()
            .map(|row| match row {
                Value::Seq(pair) => (uint(pair.first()), &pair[1]),
                other => panic!("a row is a pair, got {other:?}"),
            })
            .collect()
    };
    let credits = rows("credits");
    let owned: Vec<usize> = rows("out_owner").iter().map(|&(flat, _)| flat).collect();
    let may_send = |port: usize, out_vc: usize| {
        let out_flat = port * VCS + out_vc;
        let built = specs()[port].credit as usize;
        let credit =
            credits.iter().find(|&&(f, _)| f == out_flat).map_or(built, |&(_, c)| uint(Some(c)));
        specs()[port].is_sink || credit > 0
    };
    !rows("vcs").iter().any(|&(_, vc)| {
        let loaded = !matches!(vc.get("runs"), Some(Value::Seq(runs)) if runs.is_empty());
        let stage = vc.get("stage").expect("a VC has a stage");
        if let Some(routed) = stage.get("Routed") {
            let port = uint(routed.get("out_port"));
            (0..VCS).any(|v| !owned.contains(&(port * VCS + v)))
        } else if let Some(active) = stage.get("Active") {
            loaded && may_send(uint(active.get("out_port")), uint(active.get("out_vc")))
        } else {
            assert_eq!(stage, &Value::Str("Idle".into()));
            loaded
        }
    })
}

/// Panics unless a visit to `sw` in cycle `now` changes nothing, under
/// every combination of link allowance, band flags and band budget.
fn assert_visit_is_a_no_op(sw: &Switch, now: u64, lut: &[RouteEntry]) {
    let before = sw.state();
    let (mut grants, mut moves) = (Vec::new(), Vec::new());
    for avail in [0, 1, u32::MAX] {
        for on_band in [false, true] {
            for budget in [0, 1, u32::MAX] {
                let mut probe = sw.clone();
                let mut left = budget;
                probe.alloc_phase(now, lut, &mut grants);
                probe.st_phase(now, |_| avail, &[on_band; PORTS], &mut left, &mut moves);
                assert!(grants.is_empty() && moves.is_empty(), "a sleeping switch acted");
                assert_eq!(left, budget, "a sleeping switch spent band budget");
                assert_eq!(probe.state(), before, "a sleeping switch's visit changed its state");
            }
        }
    }
}

/// The packet an input VC is in the middle of receiving.
#[derive(Clone, Copy)]
struct Incoming {
    packet: u64,
    next_seq: u32,
    len: u32,
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn masks_track_the_tables_through_random_operations(
        ops in prop::collection::vec((0u8..8, 0usize..16, 1u32..5), 1..300),
    ) {
        let lut = lut();
        let band = [false; PORTS];
        let mut sw = fresh_switch();
        let mut incoming: [Option<Incoming>; PORTS * VCS] = [None; PORTS * VCS];
        // Credits the downstream side owes back, per output VC.
        let mut owed = [0u32; PORTS * VCS];
        let mut next_packet = 1u64;
        let mut now = 0u64;
        let mut grants = Vec::new();
        let mut moves = Vec::new();

        for (op, target, len) in ops {
            let (port, vc) = (target / VCS, target % VCS);
            match op {
                // Deliver the next legal flit of the VC's packet (a new
                // head once the previous tail is in).
                0..=2 => {
                    let inc = incoming[target].unwrap_or(Incoming {
                        packet: next_packet,
                        next_seq: 0,
                        len,
                    });
                    let is_head = inc.next_seq == 0;
                    if sw.input_space(port, vc) == 0
                        || !sw.may_accept(port, vc, PacketId(inc.packet), is_head)
                    {
                        continue;
                    }
                    if is_head {
                        next_packet += 1;
                    }
                    sw.deliver(port, vc, Flit {
                        packet: PacketId(inc.packet),
                        kind: Flit::kind_for(inc.next_seq, inc.len),
                        seq: inc.next_seq,
                        src: NodeId(0),
                        dest: NodeId(inc.packet as usize % PORTS),
                        created_at: now,
                    });
                    let next_seq = inc.next_seq + 1;
                    incoming[target] = (next_seq < inc.len).then_some(Incoming { next_seq, ..inc });
                }
                // One cycle: RC/VA (skipped by op 4, as the unit tests
                // do), a snapshot round trip between the phases (op 5,
                // where this cycle's grants must still sit out SA), then
                // SA/ST under a random link allowance.
                3..=5 => {
                    if op != 4 {
                        sw.alloc_phase(now, &lut, &mut grants);
                        sw.assert_invariants();
                    }
                    if op == 5 {
                        let snapshot = sw.state();
                        let mut restored = fresh_switch();
                        restored.restore_state(&snapshot).unwrap();
                        restored.assert_invariants();
                        prop_assert_eq!(restored.state(), snapshot);
                        sw = restored;
                    }
                    let avail = len - 1;
                    let mut budget = u32::MAX;
                    sw.st_phase(now, |_| avail, &band, &mut budget, &mut moves);
                    for m in &moves {
                        if m.out_port != 0 {
                            owed[m.out_port * VCS + m.out_vc] += 1;
                        }
                    }
                    now += 1;
                }
                // Downstream frees a slot.
                6 => {
                    if owed[target] == 0 {
                        continue;
                    }
                    owed[target] -= 1;
                    // The one wake a credit owes: exactly when it turns a
                    // sleeping switch into one that can act.
                    let slept = sw.can_sleep();
                    let woke = sw.return_credit(port, vc);
                    prop_assert!(!woke || !sw.can_sleep(), "a wake for a switch that still sleeps");
                    if slept {
                        prop_assert_eq!(woke, !sw.can_sleep(), "a credit woke the switch silently");
                    }
                }
                // Snapshot round trip between cycles.
                _ => {
                    let snapshot = sw.state();
                    prop_assert!(sw.restore_state(&snapshot).is_ok());
                    prop_assert_eq!(sw.state(), snapshot);
                }
            }
            sw.assert_invariants();
            prop_assert_eq!(sw.can_sleep(), sleeps_by_the_tables(&sw));
            if sw.can_sleep() {
                assert_visit_is_a_no_op(&sw, now, &lut);
            }
        }
    }
}
