//! Differential resume-equivalence harness for full-engine snapshots
//! (`wimnet::core::checkpoint`, `docs/checkpoint.md`).
//!
//! The headline invariant: **snapshot → restore → run is bit-identical
//! to the uninterrupted run** — the full [`RunOutcome`] (meter limbs,
//! latency bits, every energy category, per-stack memory statistics)
//! and the engine's bit-level fingerprint, for every architecture,
//! both serialized MACs, closed-loop memory traffic, and with idle
//! fast-forward engaged.  The corruption tests mirror
//! `tests/catalog.rs`: whatever happens to the checkpoint directory,
//! a resume either serves a validated snapshot or pays a cold start —
//! never a wrong answer, never an abort.

mod common;

use std::fs;
use std::path::PathBuf;

use proptest::prelude::*;

use common::{quick, system_fingerprint, temp_dir, vector_bytes};

use wimnet::core::{
    Catalog, CheckpointEntry, CheckpointStore, MacKind, MultichipSystem, SweepOptions,
    SystemConfig, WirelessModel, ENGINE_VERSION,
};
use wimnet::energy::{EnergyCategory, EnergyMeter};
use wimnet::topology::Architecture;
use wimnet::traffic::{InjectionProcess, UniformRandom, Workload};

/// A fresh per-test checkpoint directory under the system temp dir.
fn temp_store(tag: &str) -> PathBuf {
    temp_dir("wimnet-checkpoint-harness", tag)
}

/// Whole-grid sweep options on a `threads` x `chunk` pool with
/// `checkpoints` as the snapshot store.
fn pool(threads: usize, chunk: usize, checkpoints: &CheckpointStore) -> SweepOptions<'_> {
    SweepOptions { threads, chunk, checkpoints: Some(checkpoints), ..Default::default() }
}

/// The canonical closed-loop workload: uniform-random writes plus a
/// `read_share` of memory reads that return through the stacks'
/// controllers and the reply scheduler.
fn reads(cfg: &SystemConfig, rate: f64, read_share: f64) -> UniformRandom {
    UniformRandom::new(
        cfg.multichip.total_cores(),
        cfg.multichip.num_stacks,
        0.9,
        InjectionProcess::Bernoulli { rate },
        cfg.packet_flits,
        cfg.seed,
    )
    .with_memory_reads(read_share, 8)
}

/// The differential proof, one scenario at a time:
///
/// 1. run `cfg` + `make_workload()` uninterrupted (the reference);
/// 2. run a *fresh* pair to `stop`, snapshot, throw the system away;
/// 3. build another fresh system, restore the snapshot — its meter
///    must read out to the source's, limb for limb, although the hop
///    and cycle counters behind the source's read-out did not travel —
///    and resume with a *fresh* workload (generation is a pure function
///    of the cycle, so the workload is rebuilt, not snapshotted);
/// 4. assert outcome equality (full `PartialEq`, `meter_ops` and
///    `meter_charges` included, *and* canonical JSON
///    bytes), bit-level engine fingerprints, and per-stack memory
///    statistics.
///
/// Returns the reference system for scenario-specific follow-ups
/// (e.g. "fast-forward actually engaged").
fn assert_resume_equivalent(
    what: &str,
    cfg: &SystemConfig,
    make_workload: &dyn Fn() -> Box<dyn Workload>,
    stop: u64,
) -> MultichipSystem {
    let mut reference = MultichipSystem::build(cfg).expect("system builds");
    let mut w = make_workload();
    let ref_outcome = reference.run(w.as_mut()).expect("uninterrupted run");

    let (snapshot, source_meter) = {
        let mut first = MultichipSystem::build(cfg).expect("system builds");
        let mut w = make_workload();
        let reached = first.run_until(w.as_mut(), 0, stop).expect("partial run");
        let snap = first.snapshot();
        assert_eq!(snap.cycle, reached, "{what}: snapshot cursor != cursor reached");
        (snap, first.network().meter())
    };
    assert!(
        snapshot.cycle < reference.run_total_cycles_public(),
        "{what}: snapshot landed past the end — the scenario no longer interrupts anything"
    );

    let mut resumed = MultichipSystem::build(cfg).expect("system builds");
    resumed.restore(&snapshot).expect("restore succeeds");
    assert_same_meter(what, &resumed.network().meter(), &source_meter);
    let mut w = make_workload();
    let res_outcome = resumed
        .run_from(w.as_mut(), snapshot.cycle)
        .expect("resumed run");

    assert_eq!(
        res_outcome, ref_outcome,
        "{what}: resumed RunOutcome diverged from the uninterrupted run"
    );
    assert_eq!(
        vector_bytes(std::slice::from_ref(&res_outcome)),
        vector_bytes(std::slice::from_ref(&ref_outcome)),
        "{what}: resumed outcome bytes diverged"
    );
    assert_eq!(
        system_fingerprint(&resumed, res_outcome.avg_latency_cycles),
        system_fingerprint(&reference, ref_outcome.avg_latency_cycles),
        "{what}: bit-level engine fingerprint diverged"
    );
    assert_eq!(
        resumed.memory_stats(),
        reference.memory_stats(),
        "{what}: per-stack memory statistics diverged"
    );
    assert!(
        res_outcome.packets_delivered() > 0,
        "{what}: sanity — the scenario carried traffic"
    );
    reference
}

/// Two meter read-outs agree limb for limb (`EnergyMeter`'s equality is
/// the exact accumulators) and in both work counters.
fn assert_same_meter(what: &str, got: &EnergyMeter, want: &EnergyMeter) {
    assert_eq!(got, want, "{what}: meter limbs diverged");
    assert_eq!(
        (got.ops(), got.charges()),
        (want.ops(), want.charges()),
        "{what}: meter work counters diverged"
    );
}

/// `run_total_cycles` is crate-private; the public config carries the
/// same sum.
trait TotalCycles {
    fn run_total_cycles_public(&self) -> u64;
}
impl TotalCycles for MultichipSystem {
    fn run_total_cycles_public(&self) -> u64 {
        self.config().warmup_cycles + self.config().measure_cycles
    }
}

/// The acceptance differential for every architecture: closed-loop
/// memory traffic (`read_share = 1.0`) at a load sparse enough that
/// idle fast-forward provably engages, interrupted mid-measurement.
#[test]
fn resume_equals_uninterrupted_for_every_architecture() {
    for arch in Architecture::ALL {
        let cfg = quick(arch);
        let stop = cfg.warmup_cycles + cfg.measure_cycles / 3;
        let reference = assert_resume_equivalent(
            &format!("arch/{arch}"),
            &cfg,
            &|| Box::new(reads(&cfg, 0.0004, 1.0)),
            stop,
        );
        assert!(
            reference.network().fast_forwarded_cycles() > 0,
            "{arch}: fast-forward never engaged — the differential lost its hard case"
        );
    }
}

/// The acceptance differential for both serialized-channel MACs: the
/// token and control-packet media carry per-cycle arbitration state
/// (turn owners, grant queues, in-flight control exchanges) that the
/// snapshot must capture exactly.
#[test]
fn resume_equals_uninterrupted_for_both_serialized_macs() {
    for mac in [MacKind::Token, MacKind::ControlPacket] {
        let mut cfg = quick(Architecture::Wireless);
        cfg.wireless = WirelessModel::SharedChannel { mac };
        let stop = cfg.warmup_cycles + cfg.measure_cycles / 2;
        let reference = assert_resume_equivalent(
            &format!("shared-channel/{mac:?}"),
            &cfg,
            &|| Box::new(reads(&cfg, 0.0002, 0.5)),
            stop,
        );
        assert!(
            reference.network().fast_forwarded_cycles() > 0,
            "{mac:?}: fast-forward never engaged on the drained shared channel"
        );
    }
}

/// The hop and cycle counters behind `Network::meter` across the
/// snapshot boundary.  The source is cut mid-window with flits moving,
/// so its counters are non-zero (leakage and switch traversals are only
/// ever counted, never charged); the target is not a fresh system but
/// one that already ran to a *different* cycle, so the restore must
/// discard the counts it had pending rather than add the snapshot's
/// meter on top of them.  Both then run to the end: the full
/// `RunOutcome`, `meter_ops` and `meter_charges` included, must match.
#[test]
fn restore_discards_pending_energy_counts_and_resumes_exactly() {
    let cfg = quick(Architecture::Interposer);
    let make = || reads(&cfg, 0.004, 0.5);
    let stop = cfg.warmup_cycles + cfg.measure_cycles / 2;

    let mut source = MultichipSystem::build(&cfg).unwrap();
    let mut source_w = make();
    let reached = source.run_until(&mut source_w, 0, stop).unwrap();
    let snapshot = source.snapshot();
    let source_meter = source.network().meter();
    for counted in [EnergyCategory::SwitchStatic, EnergyCategory::SwitchDynamic] {
        assert!(source_meter.category(counted).joules() > 0.0, "{counted} was counted");
    }
    assert!(source_meter.charges() > source_meter.ops(), "counted charges are not ops");

    let mut target = MultichipSystem::build(&cfg).unwrap();
    target.run_until(&mut make(), 0, cfg.warmup_cycles + 7).unwrap();
    assert!(target.network().meter().charges() > 0, "the target has counts pending");
    target.restore(&snapshot).unwrap();
    assert_same_meter("dirty target", &target.network().meter(), &source_meter);

    let uninterrupted = source.run_from(&mut source_w, reached).unwrap();
    let resumed = target.run_from(&mut make(), snapshot.cycle).unwrap();
    assert_eq!(resumed, uninterrupted);
    assert!(uninterrupted.meter_charges > uninterrupted.meter_ops);
}

/// Edge case: snapshots at and around the warmup/measurement boundary.
/// `begin_measurement` fires at the top of the iteration where
/// `cycle == warmup_cycles`, so a snapshot taken exactly *at* the
/// boundary must resume into a run that still opens the window once —
/// and only once.  Cycle 0 (nothing has happened yet) and the cycle
/// right after the boundary ride along.
#[test]
fn snapshots_at_the_measurement_boundary_resume_exactly() {
    let cfg = quick(Architecture::Wireless);
    for stop in [0, cfg.warmup_cycles, cfg.warmup_cycles + 1] {
        assert_resume_equivalent(
            &format!("boundary/stop={stop}"),
            &cfg,
            &|| Box::new(reads(&cfg, 0.004, 0.5)),
            stop,
        );
    }
}

/// Edge case: snapshots landed by a fast-forward jump.  `run_until`
/// stops at the first iteration boundary **at or past** `stop`, so at
/// a sparse load the snapshot cursor regularly overshoots the
/// requested cycle — the snapshot is taken exactly where a
/// mid-fast-forward checkpoint mark would fire.
#[test]
fn snapshots_landed_by_a_fast_forward_jump_resume_exactly() {
    let cfg = quick(Architecture::Substrate);
    let make = || -> Box<dyn Workload> { Box::new(reads(&cfg, 0.0004, 1.0)) };
    // Replay the uninterrupted schedule one iteration at a time and
    // record every boundary, so the stop lines below can be placed in
    // the *middle* of real fast-forward jumps — `run_until` then lands
    // past the stop by construction.
    let total = cfg.warmup_cycles + cfg.measure_cycles;
    let mut probe = MultichipSystem::build(&cfg).unwrap();
    let mut w = make();
    let mut boundaries = vec![0u64];
    let mut cursor = 0;
    while cursor < total {
        cursor = probe.run_until(w.as_mut(), cursor, cursor + 1).unwrap();
        boundaries.push(cursor);
    }
    let stops: Vec<u64> = boundaries
        .windows(2)
        .filter(|w| w[1] - w[0] > 4 && w[1] < total)
        .map(|w| w[0] + (w[1] - w[0]) / 2)
        .take(3)
        .collect();
    assert!(
        !stops.is_empty(),
        "no fast-forward jump at this load — the edge case went untested"
    );
    for stop in stops {
        assert_resume_equivalent(&format!("ff-jump/stop={stop}"), &cfg, &make, stop);
    }
}

/// Edge case: snapshots *inside a control turn*.  At a busy load the
/// control-packet MAC is mid-exchange (request sent, grant pending,
/// data serializing) on most cycles, so snapshotting a run of
/// consecutive cycles is guaranteed to cut through live turns.
#[test]
fn snapshots_inside_a_control_turn_resume_exactly() {
    let mut cfg = quick(Architecture::Wireless);
    cfg.wireless = WirelessModel::SharedChannel { mac: MacKind::ControlPacket };
    let base = cfg.warmup_cycles + 200;
    for offset in 0..6 {
        let stop = base + offset;
        assert_resume_equivalent(
            &format!("control-turn/stop={stop}"),
            &cfg,
            &|| Box::new(reads(&cfg, 0.004, 0.5)),
            stop,
        );
    }
}

/// Source lanes of `snap` whose front packet is partially injected —
/// `0 < next_seq < flits`, with the wormhole VC it holds recorded —
/// read off the serialized form, the way a resumed process sees it.
fn mid_packet_lanes(snap: &wimnet::core::Snapshot) -> usize {
    use serde::{Serialize, Value};
    let root = snap.to_value();
    let net = root.get("state").and_then(|s| s.get("net")).expect("network state");
    let seq = |key: &str| match net.get(key) {
        Some(Value::Seq(items)) => items.as_slice(),
        other => panic!("`{key}` must be a sequence, got {other:?}"),
    };
    let uint = |v: &Value| match *v {
        Value::UInt(u) => u,
        ref other => panic!("expected an unsigned integer, got {other:?}"),
    };
    seq("inj_lanes")
        .iter()
        .zip(seq("inj_active_vc"))
        .filter(|(lane, vc)| {
            let Value::Seq(entries) = lane else { panic!("a lane is a sequence") };
            entries.first().is_some_and(|front| {
                let next = uint(front.get("next_seq").expect("packet-form entry"));
                let flits = uint(front.get("desc").and_then(|d| d.get("flits")).unwrap());
                0 < next && next < flits && **vc != Value::Null
            })
        })
        .count()
}

/// Edge case: snapshots *inside a packet's injection*.  A source queue
/// holds whole packets and materialises flits at the port, so a
/// snapshot can catch a front entry part-way through its flits; the
/// cursor and the held VC must both survive the round trip, on a wired
/// fabric and under a serialized MAC.
#[test]
fn snapshots_inside_a_packet_injection_resume_exactly() {
    let wired = quick(Architecture::Substrate);
    let mut shared = quick(Architecture::Wireless);
    shared.wireless = WirelessModel::SharedChannel { mac: MacKind::ControlPacket };
    for (what, cfg) in [("wired", wired), ("shared-channel", shared)] {
        let stop = cfg.warmup_cycles + 150;
        let mut probe = MultichipSystem::build(&cfg).unwrap();
        probe.run_until(&mut reads(&cfg, 0.004, 0.5), 0, stop).unwrap();
        assert!(
            mid_packet_lanes(&probe.snapshot()) > 0,
            "{what}: no source is mid-packet at cycle {stop} — the case went untested"
        );
        assert_resume_equivalent(
            &format!("mid-packet/{what}"),
            &cfg,
            &|| Box::new(reads(&cfg, 0.004, 0.5)),
            stop,
        );
    }
}

/// A snapshot carries state, not schedule: the active-set bitsets, the
/// flit counters and the lane capacities are derived on restore from the
/// tables they describe.  The parent engine wrote them into every
/// snapshot and its files are still served, so whatever those retired
/// keys say must not matter.  An interposer-saturation cut gets them back
/// with hostile values — flit counters of 0 over the flits it holds
/// (restore used to take them in unchecked, though they gate
/// fast-forward, draining and the stall watchdog), every switch and
/// injector asleep, a link bit past the link count, lane capacities of
/// `u32::MAX` — and still parses, restores and resumes to the reference
/// outcome and engine state.
#[test]
fn hostile_schedule_fields_in_a_parent_snapshot_are_ignored() {
    use serde::{Serialize, Value};
    let cfg = quick(Architecture::Interposer);
    let make = || {
        UniformRandom::new(
            cfg.multichip.total_cores(),
            cfg.multichip.num_stacks,
            0.20,
            InjectionProcess::Saturation,
            cfg.packet_flits,
            cfg.seed,
        )
    };
    let mut reference = MultichipSystem::build(&cfg).unwrap();
    let ref_outcome = reference.run(&mut make()).unwrap();

    let stop = cfg.warmup_cycles + 400;
    let mut first = MultichipSystem::build(&cfg).unwrap();
    first.run_until(&mut make(), 0, stop).unwrap();
    let held = first.network().flits_in_flight();
    assert!(held > 1_000, "only {held} flits in flight at the cut");
    let mut root = first.snapshot().to_value();
    let Value::Map(net) = value_at(&mut root, &["state", "net"]) else { panic!("a map") };
    let count = |key: &str| match net.iter().find(|(k, _)| k == key) {
        Some((_, Value::Seq(items))) => items.len(),
        other => panic!("`{key}` must be a sequence, got {other:?}"),
    };
    let (links, switches) = (count("link_credits"), count("switches"));
    assert!(links % 64 != 0, "{links} links fill their words: no bit lies past them");
    let words = |n: usize, word: u64| Value::Seq(vec![Value::UInt(word); n.div_ceil(64)]);
    for (key, value) in [
        ("flits_in_network", Value::UInt(0)),
        ("backlog_flits", Value::UInt(0)),
        ("radio_backlog_flits", Value::UInt(0)),
        ("links_mask", words(links, u64::MAX)),
        ("switch_mask", words(switches, 0)),
        ("inj_mask", words(switches, 0)),
        ("flight_caps", Value::Seq(vec![Value::UInt(u64::from(u32::MAX)); links])),
    ] {
        assert!(net.iter().all(|(k, _)| k != key), "`{key}` is written again");
        net.push((key.to_string(), value));
    }

    let text = serde_json::value_to_string(&root);
    let snapshot: wimnet::core::Snapshot = serde_json::from_str(&text).expect("still parses");
    let mut resumed = MultichipSystem::build(&cfg).unwrap();
    resumed.restore(&snapshot).expect("restore succeeds");
    resumed.network().assert_switch_invariants();
    assert_eq!(resumed.network().flits_in_flight(), held);
    let res_outcome = resumed.run_from(&mut make(), snapshot.cycle).unwrap();
    assert_eq!(res_outcome, ref_outcome, "resumed RunOutcome diverged");
    assert_eq!(
        serde_json::to_string(&resumed.network().state()).unwrap(),
        serde_json::to_string(&reference.network().state()).unwrap(),
        "resumed engine state diverged"
    );
}

/// Snapshots are O(queued packets), not O(queued flits): a stack whose
/// replies outrun its port keeps thousands of packets at the source,
/// and every checkpoint mark serializes them.
#[test]
fn a_backlogged_source_serializes_per_packet_not_per_flit() {
    use wimnet::noc::{Network, NocConfig, PacketDesc};
    use wimnet::routing::{Routes, RoutingPolicy};
    use wimnet::topology::{MultichipConfig, MultichipLayout};

    let multichip = MultichipConfig::xcym(4, 4, Architecture::Substrate);
    let layout = MultichipLayout::build(&multichip).unwrap();
    let routes = Routes::build(layout.graph(), RoutingPolicy::default()).unwrap();
    let mut net = Network::new(&layout, routes, NocConfig::paper()).unwrap();
    let empty = serde_json::to_string(&net.state()).unwrap().len();
    let stack = layout.memory_nodes()[0];
    for k in 0..1_000 {
        net.inject(PacketDesc::new(stack, layout.core_nodes()[k % 64], 64, 0));
    }
    assert_eq!(net.source_backlog_at(stack), 64_000);
    let queued = serde_json::to_string(&net.state()).unwrap().len() - empty;
    assert!(
        queued < 200_000,
        "1 000 queued packets added {queued} bytes to the snapshot"
    );
}

/// A snapshot costs what is in flight.  Drained, a 4C4M network is
/// under 40 KB of JSON (it was ≈ 125 KB when every switch listed all of
/// its idle input VCs plus a dense credit and owner table); loaded, it
/// grows by what the packets in the fabric need — a run per VC a packet
/// is spread over, the credits it holds down, the flits on wires — and
/// not by their flits: twice the packets cost twice the bytes, about
/// 0.9 KB per 64-flit packet where its flits written out one by one
/// would be 4.7 KB.
///
/// Seeded mutation this was seen to catch: `FlitRun::continued_by`
/// returning `false` (every buffered flit its own run) — a packet then
/// costs 5.3 KB and the per-packet and per-flit bounds fail.
#[test]
fn a_snapshot_grows_with_buffered_packets_not_with_switches_or_flits() {
    use wimnet::noc::{Network, NocConfig, PacketDesc};
    use wimnet::routing::{Routes, RoutingPolicy};
    use wimnet::topology::{MultichipConfig, MultichipLayout};

    let multichip = MultichipConfig::xcym(4, 4, Architecture::Substrate);
    let layout = MultichipLayout::build(&multichip).unwrap();
    // `packets` 64-flit packets from as many cores to one hot spot, 150
    // cycles in: backed up through the fabric, none delivered yet.
    let loaded = |packets: usize| {
        let routes = Routes::build(layout.graph(), RoutingPolicy::default()).unwrap();
        let mut net = Network::new(&layout, routes, NocConfig::paper()).unwrap();
        let cores = layout.core_nodes();
        for k in 0..packets {
            net.inject(PacketDesc::new(cores[k + 1], cores[0], 64, 0));
        }
        net.run_for(150);
        assert_eq!(net.stats().packets_delivered(), 0, "everything is still in flight");
        (serde_json::to_string(&net.state()).unwrap().len(), net.flits_in_flight())
    };

    let (drained, _) = loaded(0);
    assert!(drained <= 40_000, "a drained 4C4M snapshot is {drained} bytes");
    let (few, few_flits) = loaded(16);
    let (many, many_flits) = loaded(32);
    for (packets, size, flits) in [(16, few, few_flits), (32, many, many_flits)] {
        assert!(flits >= packets * 40, "{packets} packets buffer only {flits} flits");
        let (per_packet, per_flit) = ((size - drained) as u64 / packets, (size - drained) as u64 / flits);
        assert!(
            per_packet <= 1_200 && per_flit <= 25,
            "{packets} packets: {per_packet} bytes per packet, {per_flit} per buffered flit"
        );
    }
    let growth = (many - drained) as f64 / (few - drained) as f64;
    assert!((1.6..2.4).contains(&growth), "16 -> 32 packets grew the snapshot {growth:.2}x");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Random scenarios — architecture x wireless model x load x
    /// read share x fast-forward on/off — interrupted at a random
    /// cycle must resume bit-identically.  This is the randomized
    /// closure over the hand-picked cases above.
    #[test]
    fn random_interruptions_resume_bit_identically(
        arch_idx in 0usize..3,
        wireless_idx in 0usize..3,
        seed in 0u64..1_000,
        load in 0.0005f64..0.005,
        read_share in prop_oneof![Just(0.0), Just(0.5), Just(1.0)],
        disable_ff in any::<bool>(),
        stop_frac in 0.05f64..0.95,
    ) {
        let arch = [
            Architecture::Substrate,
            Architecture::Interposer,
            Architecture::Wireless,
        ][arch_idx];
        let mut cfg = SystemConfig::xcym(2, 2, arch).quick_test_profile();
        cfg.seed = seed;
        cfg.disable_fast_forward = disable_ff;
        if arch == Architecture::Wireless {
            cfg.wireless = [
                WirelessModel::default(),
                WirelessModel::SharedChannel { mac: MacKind::Token },
                WirelessModel::SharedChannel { mac: MacKind::ControlPacket },
            ][wireless_idx];
        }
        let total = cfg.warmup_cycles + cfg.measure_cycles;
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let stop = (total as f64 * stop_frac) as u64;
        assert_resume_equivalent(
            &format!("prop/{arch}/w{wireless_idx}/seed={seed}/stop={stop}"),
            &cfg,
            &|| Box::new(reads(&cfg, load, read_share)),
            stop,
        );
    }
}

// ---------------------------------------------------------------------------
// Corruption harness: the checkpoint store's quarantine discipline,
// mirroring tests/catalog.rs.
// ---------------------------------------------------------------------------

/// Take a real mid-run snapshot and its scenario fingerprint.
fn snapshot_fixture(
    cfg: &SystemConfig,
) -> (wimnet::core::Snapshot, wimnet::core::Fingerprint) {
    let mut sys = MultichipSystem::build(cfg).unwrap();
    let mut w = reads(cfg, 0.004, 0.5);
    sys.run_until(&mut w, 0, 500).unwrap();
    let grid = wimnet::core::ScenarioGrid::new("ckpt-harness").seeds(&[cfg.seed]);
    let fp = grid.point_fingerprint(&grid.points()[0]);
    (sys.snapshot(), fp)
}

/// Truncated snapshot files, doctored fingerprints, doctored state
/// bytes, foreign engine versions and an intact checkpoint re-indented
/// are all quarantined and reported as misses — never served, never
/// fatal.
#[test]
fn corrupt_checkpoints_are_quarantined_never_served() {
    let cfg = quick(Architecture::Wireless);
    let dir = temp_store("corruption");
    let store = CheckpointStore::open(&dir).unwrap();
    let (snap, fp) = snapshot_fixture(&cfg);
    let path = dir.join(format!("{}.ckpt.json", fp.hex()));

    // Corruption 1: a truncated file (writer killed mid-write would
    // leave a temp, but a torn disk can truncate the entry itself).
    store.store(&fp, &snap).unwrap();
    let bytes = fs::read(&path).unwrap();
    fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    assert!(store.contains(&fp), "the probe still sees the file");
    assert!(store.lookup(&fp).is_none(), "a truncated entry must not serve");
    assert_eq!(store.quarantined(), 1);
    assert!(!store.contains(&fp), "quarantine moved the file aside");

    // The doctored envelopes below are written compact, as the store
    // writes them: rewritten untouched, an intact entry keeps every
    // byte, so each case is refused for its own doctoring alone.
    store.store(&fp, &snap).unwrap();
    let intact = fs::read_to_string(&path).unwrap();
    let entry: CheckpointEntry = serde_json::from_str(&intact).unwrap();
    assert!(serde_json::to_string(&entry).unwrap() == intact, "a compact rewrite moved bytes");

    // Corruption 2: a well-formed envelope whose fingerprint field was
    // doctored to a different scenario.
    let mut entry: CheckpointEntry =
        serde_json::from_str(&fs::read_to_string(&path).unwrap()).unwrap();
    entry.fingerprint = format!("{:032x}", 0xbad);
    fs::write(&path, serde_json::to_string(&entry).unwrap()).unwrap();
    assert!(store.lookup(&fp).is_none(), "a foreign fingerprint must not serve");
    assert_eq!(store.quarantined(), 2);

    // Corruption 3: a foreign engine version wrapping otherwise valid
    // state — the versioning rule refuses it even though everything
    // else checks out.
    store.store(&fp, &snap).unwrap();
    let mut entry: CheckpointEntry =
        serde_json::from_str(&fs::read_to_string(&path).unwrap()).unwrap();
    "wimnet-engine-v7".clone_into(&mut entry.engine_version);
    assert_ne!(entry.engine_version, ENGINE_VERSION);
    fs::write(&path, serde_json::to_string(&entry).unwrap()).unwrap();
    assert!(store.lookup(&fp).is_none(), "a foreign engine version must not serve");
    assert_eq!(store.quarantined(), 3);

    // Corruption 4: doctored state — the envelope parses, version and
    // fingerprint check out, but the snapshot bytes changed under the
    // recorded content hash (here: a shifted cursor).
    store.store(&fp, &snap).unwrap();
    let mut entry: CheckpointEntry =
        serde_json::from_str(&fs::read_to_string(&path).unwrap()).unwrap();
    entry.snapshot.cycle = entry.snapshot.cycle.wrapping_add(1);
    fs::write(&path, serde_json::to_string(&entry).unwrap()).unwrap();
    assert!(store.lookup(&fp).is_none(), "doctored state must fail the content hash");
    assert_eq!(store.quarantined(), 4);

    // Corruption 5: nothing doctored, only re-indented.  The snapshot
    // still parses to the very state stored, but the content hash is
    // over the bytes the file holds, and these are not the bytes it
    // was taken over.
    store.store(&fp, &snap).unwrap();
    let entry: CheckpointEntry =
        serde_json::from_str(&fs::read_to_string(&path).unwrap()).unwrap();
    fs::write(&path, serde_json::to_string_pretty(&entry).unwrap()).unwrap();
    assert!(store.lookup(&fp).is_none(), "a re-indented checkpoint must not serve");
    assert_eq!(store.quarantined(), 5);

    // The quarantine directory preserved all five bodies for forensics.
    let quarantine: Vec<_> = fs::read_dir(dir.join("quarantine"))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(quarantine.len(), 5);
    assert!(quarantine.iter().all(|f| f.starts_with(&fp.hex())));

    // None of it was fatal: a fresh store stores and serves again.
    store.store(&fp, &snap).unwrap();
    assert_eq!(store.lookup(&fp).unwrap().cycle, snap.cycle);

    let _ = fs::remove_dir_all(&dir);
}

/// The fingerprint of a one-point grid: a store key for the hostile
/// files below, which need no snapshot behind them.
fn some_fingerprint() -> wimnet::core::Fingerprint {
    let grid = wimnet::core::ScenarioGrid::new("ckpt-harness").seeds(&[1]);
    grid.point_fingerprint(&grid.points()[0])
}

/// A checkpoint whose bytes are not UTF-8 is quarantined like any file
/// that does not parse — counted, moved aside, no longer an entry —
/// rather than missed while it stays in place.
#[test]
fn non_utf8_checkpoints_are_quarantined_like_unparseable_ones() {
    let dir = temp_store("non-utf8");
    let store = CheckpointStore::open(&dir).unwrap();
    let fp = some_fingerprint();
    fs::write(dir.join(format!("{}.ckpt.json", fp.hex())), common::NOT_UTF8).unwrap();
    assert!(store.contains(&fp));
    assert_eq!(store.len(), 1);

    assert!(store.lookup(&fp).is_none());
    assert_eq!(store.quarantined(), 1);
    assert!(!store.contains(&fp), "quarantine moved the file aside");
    assert!(store.is_empty());

    let _ = fs::remove_dir_all(&dir);
}

/// Checkpoints nested far past the parser's depth cap are quarantined
/// as unparseable — a typed parse error, not a stack overflow that
/// aborts the process — on the test's thread and on a thread with a
/// pool worker's 2 MB stack, where resumes run.
#[test]
fn deep_nests_are_quarantined_on_any_stack() {
    let dir = temp_store("deep-nests");
    let store = CheckpointStore::open(&dir).unwrap();
    let fp = some_fingerprint();
    let path = dir.join(format!("{}.ckpt.json", fp.hex()));
    let mut quarantined = 0;
    for nest in common::deep_nests() {
        for on_a_2mb_stack in [false, true] {
            fs::write(&path, &nest).unwrap();
            let served = if on_a_2mb_stack {
                common::on_a_2mb_stack(|| store.lookup(&fp).is_some())
            } else {
                store.lookup(&fp).is_some()
            };
            assert!(!served);
            quarantined += 1;
            assert_eq!(store.quarantined(), quarantined);
            assert!(!store.contains(&fp));
        }
    }

    let _ = fs::remove_dir_all(&dir);
}

/// `fixture` sits in the store under the fingerprint of `g`'s one point
/// and the current engine version, in a snapshot format this engine no
/// longer reads.  It must be quarantined, never served and never a
/// panic, and the point must recompute from cycle 0 to the answer an
/// uncached run gives.
fn assert_quarantined_and_cold_started(g: &wimnet::core::ScenarioGrid, fixture: &str, tag: &str) {
    let fp = g.point_fingerprint(&g.points()[0]);
    let path = format!("{}/tests/fixtures/{fixture}", env!("CARGO_MANIFEST_DIR"));
    let text = fs::read_to_string(path).unwrap();
    // Only the snapshot format stands between this file and a resume.
    let envelope = serde_json::parse_value(&text).unwrap();
    assert_eq!(
        envelope.get("engine_version"),
        Some(&serde::Value::Str(ENGINE_VERSION.to_string()))
    );
    assert_eq!(envelope.get("fingerprint"), Some(&serde::Value::Str(fp.hex())));

    let ckpt_dir = temp_store(&format!("{tag}-checkpoints"));
    let checkpoints = CheckpointStore::open(&ckpt_dir).unwrap();
    fs::write(ckpt_dir.join(format!("{}.ckpt.json", fp.hex())), &text).unwrap();
    assert!(checkpoints.contains(&fp));

    let cat_dir = temp_store(&format!("{tag}-catalog"));
    let resumed = g
        .run_cached_with(&Catalog::open(&cat_dir).unwrap(), &pool(1, 1, &checkpoints))
        .unwrap();
    assert_eq!(checkpoints.quarantined(), 1, "{fixture} must be set aside");
    assert!(checkpoints.is_empty());
    assert!(resumed.is_complete());

    let ref_dir = temp_store(&format!("{tag}-reference"));
    let reference = g.run_cached(&Catalog::open(&ref_dir).unwrap(), 1, 1).unwrap();
    assert_eq!(
        vector_bytes(&resumed.outcomes),
        vector_bytes(&reference.outcomes),
        "a cold start must land the uncached outcome"
    );

    for d in [&ckpt_dir, &cat_dir, &ref_dir] {
        let _ = fs::remove_dir_all(d);
    }
}

/// A `.ckpt.json` written before source queues held packets (its
/// `inj_lanes` are flit lists, one lane caught with 45 flits of a
/// packet queued), by the sweep entry point of the commit before PR 13,
/// killed at cycle 150.
#[test]
fn a_flit_form_checkpoint_is_quarantined_and_the_point_cold_starts() {
    let g = wimnet::core::ScenarioGrid::new("pre-pr13-fixture")
        .scale(wimnet::core::Scale::Quick)
        .architectures(&[Architecture::Substrate])
        .chips(&[1])
        .stacks(&[2])
        .loads(&[0.0005])
        .seeds(&[11])
        .checkpoint_every(100);
    assert_quarantined_and_cold_started(&g, "pre_pr13_flit_queue.ckpt.json", "flit-form");
}

/// The checkpoint `tests/catalog.rs` pinned byte for byte until
/// snapshots went sparse: every switch lists all its input VCs, idle or
/// not, and a dense credit and owner table (456 KB, pretty-printed).
/// Its content hash still matches what it holds — nothing is corrupt —
/// but the switch tables are no longer this engine's, and there is no
/// decoder for the old form.
#[test]
fn a_dense_form_checkpoint_is_quarantined_and_the_point_cold_starts() {
    let g = wimnet::core::ScenarioGrid::new("format-fixture")
        .scale(wimnet::core::Scale::Quick)
        .architectures(&[Architecture::Substrate])
        .chips(&[1])
        .stacks(&[2])
        .memory_fractions(&[0.5])
        .loads(&[0.001])
        .seeds(&[11])
        .read_share(0.5)
        .checkpoint_every(100);
    assert_quarantined_and_cold_started(&g, "v9_checkpoint.ckpt.json", "dense-form");
}

/// A store littered with abandoned temp files (crashed writers) sweeps
/// them without touching live entries.
#[test]
fn abandoned_temps_are_swept_and_live_entries_survive() {
    let cfg = quick(Architecture::Wireless);
    let dir = temp_store("temps");
    let store = CheckpointStore::open(&dir).unwrap();
    let (snap, fp) = snapshot_fixture(&cfg);
    store.store(&fp, &snap).unwrap();
    fs::write(
        dir.join(format!("{}.ckpt.json.tmp-999-0", fp.hex())),
        "{\"engine_version\": \"wim",
    )
    .unwrap();
    let stranger = format!("{}.ckpt.json.tmp-999-1", "feedface".repeat(4));
    fs::write(dir.join(stranger), "").unwrap();

    assert_eq!(store.len(), 1, "temp debris is not a checkpoint");
    assert_eq!(store.sweep_temps(), 2);
    assert_eq!(store.sweep_temps(), 0, "sweep is idempotent");
    assert_eq!(store.lookup(&fp).unwrap().cycle, snap.cycle);
    assert_eq!(store.quarantined(), 0);

    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Sweep-level warm start: kill -> resume -> bit-identical vector.
// ---------------------------------------------------------------------------

/// The CLI-visible contract end to end: a checkpointing sweep killed
/// mid-run leaves snapshots behind; the resumed sweep warm-starts from
/// them, lands the bit-identical outcome vector an uncached sweep
/// produces, and retires every spent checkpoint.
#[test]
fn killed_sweep_resumes_from_checkpoints_to_the_uncached_vector() {
    let g = common::small_grid("ckpt-sweep").checkpoint_every(200);
    let n = g.len();

    // Reference: a plain uncached run in its own catalog.
    let ref_dir = temp_store("sweep-reference");
    let reference = g.run_cached(&Catalog::open(&ref_dir).unwrap(), 2, 2).unwrap();
    assert_eq!(reference.misses, n);

    // The victim sweep: every point is killed at cycle 600, three
    // cadence marks in (200, 400, 600 — the kill check runs before the
    // iteration, so the 600 mark itself may or may not have landed).
    let cat_dir = temp_store("sweep-catalog");
    let ckpt_dir = temp_store("sweep-checkpoints");
    let catalog = Catalog::open(&cat_dir).unwrap();
    let checkpoints = CheckpointStore::open(&ckpt_dir).unwrap();
    let killing = SweepOptions { kill_at: Some(600), ..pool(2, 2, &checkpoints) };
    let killed = g.run_cached_with(&catalog, &killing).unwrap();
    assert_eq!(killed.pending, n, "every point was killed");
    assert!(killed.outcomes.is_empty(), "a killed sweep carries no vector");
    assert_eq!(checkpoints.len(), n, "each killed point left its latest snapshot");

    // Resume: warm-start every point from its snapshot.
    let resumed = g.run_cached_with(&catalog, &pool(2, 2, &checkpoints)).unwrap();
    assert!(resumed.is_complete());
    assert_eq!(resumed.misses, n, "nothing was in the catalog yet");
    assert_eq!(
        vector_bytes(&resumed.outcomes),
        vector_bytes(&reference.outcomes),
        "warm-started vector must be bit-identical to the uncached run"
    );
    assert!(
        checkpoints.is_empty(),
        "spent checkpoints must be retired once outcomes reach the catalog"
    );

    // The catalog is now warm; a third call simulates nothing, and
    // the checkpoint path is a no-op.
    let warm = g.run_cached_with(&catalog, &pool(2, 2, &checkpoints)).unwrap();
    assert_eq!((warm.hits, warm.misses, warm.pending), (n, 0, 0));
    assert_eq!(vector_bytes(&warm.outcomes), vector_bytes(&reference.outcomes));

    for d in [&ref_dir, &cat_dir, &ckpt_dir] {
        let _ = fs::remove_dir_all(d);
    }
}

/// `--catalog D --checkpoints D`: both stores opened on one directory.
/// An entry is exactly `{32 hex}{suffix}` and a temp exactly that plus
/// `.tmp-*`, so neither store counts, serves or sweeps the other's
/// files — although `*.ckpt.json` also ends in `.json`.
#[test]
fn a_catalog_and_a_checkpoint_store_can_share_a_directory() {
    let g = wimnet::core::ScenarioGrid::new("shared-dir")
        .scale(wimnet::core::Scale::Quick)
        .chips(&[2])
        .stacks(&[2])
        .loads(&[0.002])
        .seeds(&[11, 12])
        .checkpoint_every(200);
    let dir = temp_store("shared-dir");
    let catalog = Catalog::open(&dir).unwrap();
    let checkpoints = CheckpointStore::open(&dir).unwrap();

    let killing = SweepOptions { kill_at: Some(600), ..pool(2, 1, &checkpoints) };
    let killed = g.run_cached_with(&catalog, &killing).unwrap();
    assert_eq!(killed.pending, 2);
    assert_eq!(checkpoints.len(), 2, "each killed point left a snapshot");
    assert_eq!(catalog.len(), 0, "a snapshot is not a catalog entry");

    // One crashed writer of each kind.
    let fp = g.point_fingerprint(&g.points()[0]);
    let entry_temp = dir.join(format!("{}.json.tmp-1-0", fp.hex()));
    let snapshot_temp = dir.join(format!("{}.ckpt.json.tmp-1-0", fp.hex()));
    fs::write(&entry_temp, "{").unwrap();
    fs::write(&snapshot_temp, "{").unwrap();
    assert_eq!(catalog.sweep_temps(), 1);
    assert!(!entry_temp.exists(), "the catalog sweeps its own temp");
    assert!(snapshot_temp.exists(), "and leaves the checkpoint store's alone");
    assert_eq!(checkpoints.sweep_temps(), 1);
    assert!(!snapshot_temp.exists());
    assert_eq!((catalog.len(), checkpoints.len()), (0, 2), "sweeps touch no entry");

    let resumed = g.run_cached_with(&catalog, &pool(2, 1, &checkpoints)).unwrap();
    assert!(resumed.is_complete());
    assert_eq!((catalog.len(), checkpoints.len()), (2, 0));
    assert_eq!(catalog.quarantined() + checkpoints.quarantined(), 0);
    let reference = g.run().unwrap();
    assert_eq!(vector_bytes(&resumed.outcomes), vector_bytes(&reference));

    let _ = fs::remove_dir_all(&dir);
}

/// `sweep checkpoint --shard I/N`: a checkpointed run covers its own
/// shard only.  Two disjoint halves, each killed mid-point, leave
/// snapshots for exactly their own points; resumed, their union is the
/// uncached vector.
#[test]
fn sharded_checkpointed_sweeps_touch_only_their_own_points() {
    let g = common::small_grid("ckpt-shards").checkpoint_every(200);
    let n = g.len();
    let points = g.points();
    let cat_dir = temp_store("shards-catalog");
    let catalog = Catalog::open(&cat_dir).unwrap();
    let reference = g.run().unwrap();

    let mut stitched = Vec::new();
    let mut snapshot_dirs = Vec::new();
    for shard in 0..2 {
        let dir = temp_store(&format!("shards-checkpoints-{shard}"));
        let checkpoints = CheckpointStore::open(&dir).unwrap();
        let half = SweepOptions { shard: (shard, 2), ..pool(2, 2, &checkpoints) };
        let range = g.shard_range(shard, 2);

        let killing = SweepOptions { kill_at: Some(600), ..half };
        let killed = g.run_cached_with(&catalog, &killing).unwrap();
        assert_eq!(killed.indices, range);
        assert_eq!((killed.hits, killed.misses, killed.pending), (0, 0, n / 2));
        assert_eq!(checkpoints.len(), n / 2, "snapshots for this half only");
        for point in &points {
            assert_eq!(
                checkpoints.contains(&g.point_fingerprint(point)),
                range.contains(&point.index),
                "shard {shard}/2, point {}",
                point.index
            );
        }

        let resumed = g.run_cached_with(&catalog, &half).unwrap();
        assert_eq!((resumed.hits, resumed.misses, resumed.pending), (0, n / 2, 0));
        assert!(checkpoints.is_empty(), "spent checkpoints are retired");
        stitched.extend(resumed.outcomes);
        snapshot_dirs.push(dir);
    }
    assert_eq!(catalog.len(), n);
    assert_eq!(vector_bytes(&stitched), vector_bytes(&reference));

    for d in snapshot_dirs.iter().chain([&cat_dir]) {
        let _ = fs::remove_dir_all(d);
    }
}

/// Shape-mismatched snapshots are a checkpoint error, not a panic:
/// restoring a 2x2 wireless snapshot into a substrate system (or a
/// different MAC) fails cleanly and leaves the target runnable.
#[test]
fn restore_rejects_cross_scenario_snapshots_cleanly() {
    let wireless = quick(Architecture::Wireless);
    let (snap, _) = snapshot_fixture(&wireless);

    // Different architecture: the media split differs.
    let substrate = quick(Architecture::Substrate);
    let mut target = MultichipSystem::build(&substrate).unwrap();
    assert!(target.restore(&snap).is_err(), "cross-architecture restore must fail");

    // The failed restore left the system untouched and runnable.
    let mut w = reads(&substrate, 0.004, 0.5);
    let outcome = target.run(&mut w).unwrap();
    assert!(outcome.packets_delivered() > 0);

    // Different scale: the component counts differ.
    let mut big = quick(Architecture::Wireless);
    big.multichip = wimnet::topology::MultichipConfig::xcym(8, 4, Architecture::Wireless);
    let mut target = MultichipSystem::build(&big).unwrap();
    assert!(target.restore(&snap).is_err(), "cross-scale restore must fail");
}

/// The value at `path` inside `root`: map keys, or decimal indices
/// into sequences.
fn value_at<'a>(root: &'a mut serde::Value, path: &[&str]) -> &'a mut serde::Value {
    path.iter().fold(root, |v, step| match v {
        serde::Value::Map(entries) => entries
            .iter_mut()
            .find(|(k, _)| k == step)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no key `{step}`")),
        serde::Value::Seq(items) => &mut items[step.parse::<usize>().expect("an index")],
        other => panic!("cannot step `{step}` into {other:?}"),
    })
}

/// Doctored controller bytes are a checkpoint error, not a release-build
/// index panic: a request located at a bank the stack does not have, and
/// a queue longer than the configured capacity, are both rejected before
/// the network (or anything else) is restored.
#[test]
fn restore_rejects_malformed_controller_state_before_mutating() {
    use serde::{Deserialize, Serialize, Value};
    let cfg = quick(Architecture::Wireless);
    // A boundary with a read waiting in some channel queue of stack 0
    // (its bank still busy with an earlier one).
    let mut sys = MultichipSystem::build(&cfg).unwrap();
    let mut w = reads(&cfg, 0.02, 1.0);
    let channels = ["state", "controllers", "0", "channels"];
    let (mut cycle, mut root, mut channel) = (200, Value::Null, None);
    while channel.is_none() {
        assert!(cycle < 4_000, "no boundary caught a queued request at stack 0");
        cycle = sys.run_until(&mut w, cycle, cycle + 1).unwrap();
        root = sys.snapshot().to_value();
        let Value::Seq(chs) = value_at(&mut root, &channels) else { panic!("a sequence") };
        channel = chs
            .iter()
            .position(|ch| matches!(ch.get("queue"), Some(Value::Seq(q)) if !q.is_empty()));
    }
    let channel = channel.unwrap().to_string();
    let queue = ["state", "controllers", "0", "channels", &channel, "queue"];

    let fresh = MultichipSystem::build(&cfg).unwrap();
    let untouched = format!("{:?}", fresh.state());
    let rejected = |doctored: &Value, why: &str| {
        let snap = wimnet::core::Snapshot::from_value(doctored).expect("still parses");
        let mut target = MultichipSystem::build(&cfg).unwrap();
        let err = target.restore(&snap).expect_err(why);
        assert!(
            matches!(&err, wimnet::core::CoreError::Checkpoint { what }
                if what.contains("memory controller 0")),
            "{why}: {err:?}"
        );
        assert_eq!(format!("{:?}", target.state()), untouched, "{why}: target mutated");
    };

    // Case 1: the request's bank index points past the channel's banks
    // (`pick` would index `banks[loc.bank]` at the next step).
    let mut doctored = root.clone();
    *value_at(&mut doctored, &[&queue[..], &["0", "loc", "bank"]].concat()) = Value::UInt(1 << 20);
    rejected(&doctored, "an out-of-range bank index must be rejected");

    // Case 2: a queue stuffed past `queue_capacity` (admission checks
    // the length once, at `enqueue`, and trusts the bound afterwards).
    let mut doctored = root.clone();
    let Value::Seq(entries) = value_at(&mut doctored, &queue) else { panic!("a sequence") };
    let capacity = wimnet::memory::ControllerConfig::paper().queue_capacity;
    entries.resize(capacity + 1, entries[0].clone());
    rejected(&doctored, "an over-long queue must be rejected");

    // The undoctored snapshot still restores.
    let snap = wimnet::core::Snapshot::from_value(&root).unwrap();
    MultichipSystem::build(&cfg).unwrap().restore(&snap).unwrap();
}

/// The sparse switch tables are attack surface the dense ones were not:
/// doctored through the serialized tree — the way a damaged file
/// arrives — a duplicate, descending or out-of-range flat index, a run
/// of length 0, runs summing past the buffer depth, a run whose flit
/// numbers overflow, a credit above the one its port was built with,
/// an output VC owned twice and a stage whose output port or VC only
/// looks valid once narrowed to the byte the switch packs it into are
/// each a `CoreError::Checkpoint` naming the switch, on an untouched
/// system — never a panic, in debug or `--release`.
#[test]
fn restore_rejects_malformed_switch_tables_before_mutating() {
    use serde::{Deserialize, Serialize, Value};
    let cfg = quick(Architecture::Substrate);
    let mut sys = MultichipSystem::build(&cfg).unwrap();
    sys.run_until(&mut reads(&cfg, 0.006, 0.5), 0, 700).unwrap();
    let root = sys.snapshot().to_value();
    let len = |v: Option<&Value>| match v {
        Some(Value::Seq(items)) => items.len(),
        other => panic!("expected a sequence, got {other:?}"),
    };
    // A switch with two input VCs listed, a depleted credit and an
    // owned output VC: every table has something to doctor.
    let switches = root.get("state").and_then(|s| s.get("net")).and_then(|n| n.get("switches"));
    let Some(Value::Seq(switches)) = switches else { panic!("the switches are a sequence") };
    let at = switches
        .iter()
        .position(|sw| {
            let busy = |key: &str, min: usize| len(sw.get(key)) >= min;
            busy("vcs", 2) && busy("credits", 1) && busy("out_owner", 1)
        })
        .expect("a loaded fabric has a switch with two busy input VCs")
        .to_string();
    let sw = ["state", "net", "switches", &at];
    let path = |tail: &[&'static str]| [&sw[..], tail].concat();

    let fresh = MultichipSystem::build(&cfg).unwrap();
    let untouched = format!("{:?}", fresh.state());
    let rejected = |why: &str, doctor: &dyn Fn(&mut Value)| {
        let mut doctored = root.clone();
        doctor(&mut doctored);
        let snap = wimnet::core::Snapshot::from_value(&doctored).expect("still parses");
        let mut target = MultichipSystem::build(&cfg).unwrap();
        let err = target.restore(&snap).expect_err(why);
        assert!(
            matches!(&err, wimnet::core::CoreError::Checkpoint { what }
                if what.contains("snapshot of switch") && what.contains(why)),
            "{why}: {err:?}"
        );
        assert_eq!(format!("{:?}", target.state()), untouched, "{why}: target mutated");
    };
    let put = |root: &mut Value, tail: &[&'static str], v: u64| {
        *value_at(root, &path(tail)) = Value::UInt(v);
    };
    let rows = |root: &mut Value, tail: &[&'static str], edit: &dyn Fn(&mut Vec<Value>)| {
        let Value::Seq(rows) = value_at(root, &path(tail)) else { panic!("a sequence") };
        edit(rows);
    };

    // Table rows are `[flat, entry]` pairs: row 0's index is `…/0/0`.
    rejected("input VC indices not strictly ascending", &|root| {
        rows(root, &["vcs"], &|vcs| vcs[1] = vcs[0].clone());
    });
    rejected("input VC indices not strictly ascending", &|root| put(root, &["vcs", "1", "0"], 0));
    rejected("input VC indices out of range", &|root| put(root, &["vcs", "1", "0"], 5 * 8));
    let run = ["vcs", "0", "1", "runs", "0"];
    rejected("a run of length 0", &|root| put(root, &[&run[..], &["count"]].concat(), 0));
    rejected("more flits than its buffer", &|root| {
        rows(root, &run[..4], &|runs| {
            // Sixteen more flits than the VC already holds.
            let mut extra = runs[0].clone();
            *value_at(&mut extra, &["count"]) = Value::UInt(16);
            runs.push(extra);
        });
    });
    rejected("flit numbers overflow", &|root| {
        put(root, &[&run[..], &["first", "seq"]].concat(), u64::from(u32::MAX));
        put(root, &[&run[..], &["count"]].concat(), 2);
    });
    rejected("not below the one it was built with", &|root| put(root, &["credits", "0", "1"], 17));
    rejected("output owner indices not strictly ascending", &|root| {
        rows(root, &["out_owner"], &|owners| owners.push(owners[0].clone()));
    });
    // The switch packs a stage's port and VC into a byte each: 256 more
    // than a valid index narrows back to it, so the range check has to
    // come first and at full width.  The owned output VC is held by an
    // Active input VC; that row's stage is `{"Active": {…}}`.
    let Some(Value::Seq(listed)) = switches[at.parse::<usize>().unwrap()].get("vcs") else {
        panic!("the input VC table is a sequence")
    };
    let holder = listed
        .iter()
        .position(|row| {
            let Value::Seq(pair) = row else { panic!("a row is a pair") };
            pair[1].get("stage").is_some_and(|stage| stage.get("Active").is_some())
        })
        .expect("an owned output VC has an Active holder")
        .to_string();
    for field in ["out_port", "out_vc"] {
        rejected("active on an output VC out of range", &|root| {
            let stage = ["vcs", &holder, "1", "stage", "Active", field];
            let Value::UInt(index) = value_at(root, &[&sw[..], &stage[..]].concat()) else {
                panic!("an index")
            };
            *index += 256;
        });
    }

    // The undoctored snapshot still restores.
    let snap = wimnet::core::Snapshot::from_value(&root).unwrap();
    MultichipSystem::build(&cfg).unwrap().restore(&snap).unwrap();
}
