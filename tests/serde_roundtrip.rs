//! Serialisation round trips for the result and configuration types the
//! harness writes to disk.
//!
//! Floating-point fields are compared with a relative tolerance: the
//! JSON layer is not guaranteed bit-exact for every f64, and the
//! archives only need analysable precision.

mod common;

use proptest::prelude::*;

use common::gnarly_f64;

use wimnet::core::catalog;
use wimnet::core::experiments::Scale;
use wimnet::core::system::MacKind;
use wimnet::core::{
    Experiment, MultichipSystem, RunOutcome, ScenarioPoint, Snapshot, SystemConfig, WirelessModel,
};
use wimnet::energy::{Energy, EnergyBreakdown, EnergyCategory};
use wimnet::memory::{MemoryStackStats, SchedulerPolicy};
use wimnet::topology::Architecture;
use wimnet::traffic::{AddressStreamSpec, InjectionProcess};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= a.abs().max(b.abs()) * 1e-9 + 1e-15
}

#[test]
fn run_outcome_round_trips_through_json() {
    let cfg = SystemConfig::xcym(4, 4, Architecture::Wireless).quick_test_profile();
    let outcome = Experiment::uniform_random(&cfg, 0.002).run().unwrap();
    let json = serde_json::to_string_pretty(&outcome).unwrap();
    let back: RunOutcome = serde_json::from_str(&json).unwrap();

    assert_eq!(back.label, outcome.label);
    assert_eq!(back.workload, outcome.workload);
    assert_eq!(back.cores, outcome.cores);
    assert_eq!(back.window_packets, outcome.window_packets);
    assert_eq!(back.total_packets, outcome.total_packets);
    assert_eq!(back.max_latency_cycles, outcome.max_latency_cycles);
    assert_eq!(back.p99_latency_cycles, outcome.p99_latency_cycles);
    assert!(close(
        back.bandwidth_gbps_per_core,
        outcome.bandwidth_gbps_per_core
    ));
    assert!(close(back.packet_energy_nj(), outcome.packet_energy_nj()));
    assert!(close(back.latency_cycles(), outcome.latency_cycles()));
    assert!(close(
        back.energy.total.joules(),
        outcome.energy.total.joules()
    ));
    assert_eq!(back.energy.entries.len(), outcome.energy.entries.len());

    // The JSON is self-describing enough to grep in result archives.
    assert!(json.contains("bandwidth_gbps_per_core"));
    assert!(json.contains("4C4M (Wireless)"));
}

#[test]
fn system_config_round_trips_through_json() {
    let cfg = SystemConfig::xcym(8, 4, Architecture::Interposer);
    let json = serde_json::to_string(&cfg).unwrap();
    let back: SystemConfig = serde_json::from_str(&json).unwrap();
    // Routing policy is deliberately skipped (not serialisable), so the
    // round trip resets it to the default; everything else must match.
    assert_eq!(back.multichip, cfg.multichip);
    assert_eq!(back.packet_flits, cfg.packet_flits);
    assert_eq!(back.wireless, cfg.wireless);
    assert_eq!(back.warmup_cycles, cfg.warmup_cycles);
    assert_eq!(back.vcs, cfg.vcs);
    assert_eq!(back.buf_depth, cfg.buf_depth);
    assert!(close(
        back.energy.wire_pj_per_bit_per_mm,
        cfg.energy.wire_pj_per_bit_per_mm
    ));
    assert!(close(
        back.energy.switch_static_base.watts(),
        cfg.energy.switch_static_base.watts()
    ));
    // A config deserialised from an archive must still build and run.
    let outcome = Experiment::uniform_random(&back.quick_test_profile(), 0.001)
        .run()
        .unwrap();
    assert!(outcome.packets_delivered() > 0);
}

#[test]
fn figure_rows_serialize_for_the_harness() {
    use wimnet::core::experiments::{fig2, Scale};
    let rows = fig2(Scale::Quick).unwrap();
    let json = serde_json::to_string(&rows).unwrap();
    assert!(json.contains("Substrate"));
    let back: Vec<wimnet::core::experiments::Fig2Row> =
        serde_json::from_str(&json).unwrap();
    assert_eq!(back.len(), rows.len());
}

// ---------------------------------------------------------------------------
// Property tests: the catalog payload types (`ScenarioPoint`,
// `RunOutcome`) must survive JSON **bit-exactly** for arbitrary values,
// because the result catalog's resume/dedupe guarantees
// (`docs/sweeps.md`) are stated in terms of byte-identical entries.
// ---------------------------------------------------------------------------

fn arch_from(idx: usize) -> Architecture {
    match idx % 3 {
        0 => Architecture::Wireless,
        1 => Architecture::Interposer,
        _ => Architecture::Substrate,
    }
}

fn wireless_from(idx: usize, flits_raw: u32, conc: u32) -> WirelessModel {
    match idx % 5 {
        0 => WirelessModel::default(),
        1 => WirelessModel::PointToPoint {
            flits_per_cycle: f64::from(flits_raw) / 64.0,
            max_concurrent: 1 + conc % 16,
        },
        2 => WirelessModel::ParallelLinks {
            flits_per_cycle: f64::from(flits_raw) / 64.0,
        },
        3 => WirelessModel::SharedChannel { mac: MacKind::Token },
        _ => WirelessModel::SharedChannel {
            mac: MacKind::ControlPacket,
        },
    }
}

fn stream_from(idx: usize, a: u64, b: u64, frac_raw: u32) -> AddressStreamSpec {
    let region = 1 + a % 1_000_000;
    match idx % 4 {
        0 => AddressStreamSpec::Sequential,
        1 => AddressStreamSpec::Strided {
            stride_blocks: 1 + b % 4096,
        },
        2 => AddressStreamSpec::Uniform {
            region_blocks: region,
        },
        _ => AddressStreamSpec::HotRow {
            region_blocks: region,
            hot_blocks: 1 + b % region,
            hot_fraction: f64::from(frac_raw) / f64::from(u32::MAX),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Random [`ScenarioPoint`]s over all nine axes round-trip through
    /// JSON to equal values, and — the property the catalog actually
    /// leans on — the round trip preserves the content fingerprint and
    /// the serialized bytes exactly.
    #[test]
    fn scenario_points_round_trip_bit_exactly(
        axis_picks in (0usize..3, 0usize..5, 0usize..4),
        chips in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
        stacks in prop_oneof![Just(2usize), Just(4), Just(8)],
        wireless_raw in (1u32..512, any::<u32>(), 0u32..1_000_000),
        stream_raw in (any::<u64>(), any::<u64>(), any::<u64>()),
        toggles in (any::<bool>(), any::<bool>()),
        seed in any::<u64>(),
        index in 0usize..1_000_000,
    ) {
        let (arch_idx, wireless_idx, stream_idx) = axis_picks;
        let (flits_raw, conc, rate_raw) = wireless_raw;
        let (frac_bits, stream_a, stream_b) = stream_raw;
        let (frfcfs, saturation) = toggles;
        let memory_fraction = gnarly_f64(frac_bits).abs().fract();
        let point = ScenarioPoint {
            index,
            label: format!("prop point #{index} seed=0x{seed:x}"),
            architecture: arch_from(arch_idx),
            chips,
            stacks,
            wireless: wireless_from(wireless_idx, flits_raw, conc),
            memory_fraction,
            address_stream: stream_from(stream_idx, stream_a, stream_b, conc),
            scheduler: if frfcfs { SchedulerPolicy::FrFcfs } else { SchedulerPolicy::Fcfs },
            injection: if saturation {
                InjectionProcess::Saturation
            } else {
                InjectionProcess::Bernoulli { rate: f64::from(rate_raw) / 1e7 }
            },
            seed,
        };

        let json = serde_json::to_string_pretty(&point).unwrap();
        let back: ScenarioPoint = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &point);
        // Value equality is not enough for the catalog: the float axes
        // must come back with the same bit pattern...
        prop_assert_eq!(
            back.memory_fraction.to_bits(),
            point.memory_fraction.to_bits()
        );
        // ...so the fingerprint — and therefore the catalog key — is
        // stable across a round trip, at either scale.
        for scale in [Scale::Quick, Scale::Paper] {
            prop_assert_eq!(
                catalog::fingerprint(&back, scale, 0.7),
                catalog::fingerprint(&point, scale, 0.7)
            );
        }
        // And re-serializing yields byte-identical JSON.
        prop_assert_eq!(serde_json::to_string_pretty(&back).unwrap(), json);
    }

    /// Random [`RunOutcome`]s — with the optional latency/energy fields
    /// populated or absent and the memory-stats table populated or
    /// empty — round-trip through JSON to byte-identical documents.
    #[test]
    fn run_outcomes_round_trip_bit_exactly(
        cores in 1usize..4096,
        counters in (any::<u64>(), any::<u64>(), any::<u64>()),
        float_bits in (any::<u64>(), any::<u64>(), any::<u64>()),
        presence in (any::<bool>(), any::<bool>(), any::<bool>()),
        fast_forwarded in any::<u64>(),
        shape in (0usize..15, 1usize..5),
    ) {
        let (window_cycles, window_packets, total_packets) = counters;
        let (bw_bits, energy_bits, stat_seed) = float_bits;
        let (with_energy_stats, with_latency, with_memory) = presence;
        let (n_categories, stacks) = shape;
        let energy = EnergyBreakdown {
            entries: EnergyCategory::ALL
                .into_iter()
                .take(n_categories)
                .enumerate()
                .map(|(i, cat)| {
                    (cat, Energy::from_nj(gnarly_f64(energy_bits.rotate_left(i as u32)).abs()))
                })
                .collect(),
            total: Energy::from_nj(gnarly_f64(energy_bits).abs()),
        };
        let memory: Vec<MemoryStackStats> = if with_memory {
            (0..stacks)
                .map(|s| MemoryStackStats {
                    stack: s,
                    accesses: stat_seed.rotate_left(s as u32),
                    reads: stat_seed.rotate_left(1 + s as u32),
                    writes: stat_seed.rotate_left(2 + s as u32),
                    page_hits: stat_seed.rotate_left(3 + s as u32),
                    page_empties: stat_seed.rotate_left(4 + s as u32),
                    page_misses: stat_seed.rotate_left(5 + s as u32),
                    admit_stall_cycles: stat_seed.rotate_left(6 + s as u32),
                    max_queue_depth: (stat_seed % 1024) as usize,
                    avg_queue_depth: gnarly_f64(stat_seed.rotate_left(7)).abs(),
                    avg_bank_parallelism: gnarly_f64(stat_seed.rotate_left(8)).abs(),
                    busy_fraction: gnarly_f64(stat_seed.rotate_left(9)).abs().fract(),
                })
                .collect()
        } else {
            Vec::new()
        };
        let outcome = RunOutcome {
            label: format!("prop outcome cores={cores}"),
            workload: "property-generated".to_string(),
            cores,
            window_cycles,
            window_packets,
            total_packets,
            bandwidth_gbps_per_core: gnarly_f64(bw_bits).abs(),
            avg_packet_energy_nj: with_energy_stats
                .then(|| gnarly_f64(bw_bits.rotate_left(13)).abs()),
            avg_latency_cycles: with_latency
                .then(|| gnarly_f64(bw_bits.rotate_left(29)).abs()),
            max_latency_cycles: with_latency.then_some(stat_seed % 1_000_000),
            p50_latency_cycles: with_latency.then_some(stat_seed % 100_000),
            p99_latency_cycles: with_latency.then_some(stat_seed % 500_000),
            p999_latency_cycles: with_latency.then_some(stat_seed % 900_000),
            fast_forwarded_cycles: fast_forwarded,
            meter_ops: stat_seed.rotate_left(11),
            meter_charges: stat_seed.rotate_left(17),
            energy,
            memory,
            telemetry: None,
        };

        let json = serde_json::to_string_pretty(&outcome).unwrap();
        let back: RunOutcome = serde_json::from_str(&json).unwrap();
        // `RunOutcome`'s PartialEq covers every field, floats included.
        prop_assert_eq!(&back, &outcome);
        prop_assert_eq!(
            back.bandwidth_gbps_per_core.to_bits(),
            outcome.bandwidth_gbps_per_core.to_bits()
        );
        // Byte-identical re-serialization is what lets overlapping
        // catalog shards overwrite each other's entries benignly.
        prop_assert_eq!(serde_json::to_string_pretty(&back).unwrap(), json);
    }
}

// ---------------------------------------------------------------------------
// Full-engine snapshots (`wimnet::core::checkpoint`): the checkpoint
// store validates entries by recomputing the content hash from a
// *re-serialized parse*, so `bytes(parse(bytes(s))) == bytes(s)` is a
// correctness requirement, not a nicety — a snapshot that drifted
// through one round trip would quarantine itself on every lookup.
// ---------------------------------------------------------------------------

/// Replace every fractional number in a JSON document with a finite
/// full-mantissa float — the snapshot schema with worst-case payloads.
/// Integer-typed fields (cycle counters, queue contents) are left
/// alone; doctoring those would break nothing serde-wise but would
/// make the document lie about its own shape.
fn doctor_floats(value: &mut serde::Value, rng: &mut u64) {
    match value {
        serde::Value::Float(f) => {
            *rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *f = gnarly_f64(*rng);
        }
        serde::Value::Seq(items) => {
            for item in items {
                doctor_floats(item, rng);
            }
        }
        serde::Value::Map(entries) => {
            for (_, item) in entries {
                doctor_floats(item, rng);
            }
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Mid-run [`Snapshot`]s — taken at a random cycle of a random
    /// (architecture, seed, load, read-share) run — survive JSON
    /// byte-exactly, both as captured and after every float in the
    /// document is doctored to a gnarly full-mantissa value.
    #[test]
    fn snapshots_round_trip_bit_exactly(
        arch_idx in 0usize..3,
        seed in 0u64..1_000,
        load in 0.001f64..0.006,
        stop_frac in 0.1f64..0.9,
        reads in any::<bool>(),
        float_seed in any::<u64>(),
    ) {
        use wimnet::traffic::{InjectionProcess, UniformRandom, Workload};

        let mut cfg = SystemConfig::xcym(2, 2, arch_from(arch_idx)).quick_test_profile();
        cfg.seed = seed;
        let mut sys = MultichipSystem::build(&cfg).unwrap();
        let base = UniformRandom::new(
            cfg.multichip.total_cores(),
            cfg.multichip.num_stacks,
            if reads { 0.9 } else { 0.20 },
            InjectionProcess::Bernoulli { rate: load },
            cfg.packet_flits,
            cfg.seed,
        );
        let mut workload: Box<dyn Workload> = if reads {
            Box::new(base.with_memory_reads(1.0, 8))
        } else {
            Box::new(base)
        };
        let total = cfg.warmup_cycles + cfg.measure_cycles;
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let stop = (total as f64 * stop_frac) as u64;
        sys.run_until(workload.as_mut(), 0, stop).unwrap();

        // As captured: one round trip reproduces the exact bytes.
        let snap = sys.snapshot();
        let json = serde_json::to_string_pretty(&snap).unwrap();
        let back: Snapshot = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&serde_json::to_string_pretty(&back).unwrap(), &json);

        // Doctored: every float in the document replaced with a finite
        // full-mantissa value.  The parsed snapshot must reach a
        // byte-stable serialization in one round.
        let mut value: serde::Value = serde_json::from_str(&json).unwrap();
        let mut rng = float_seed;
        doctor_floats(&mut value, &mut rng);
        let doctored: Snapshot =
            serde_json::from_str(&serde_json::to_string(&value).unwrap()).unwrap();
        let first = serde_json::to_string_pretty(&doctored).unwrap();
        let reparsed: Snapshot = serde_json::from_str(&first).unwrap();
        prop_assert_eq!(serde_json::to_string_pretty(&reparsed).unwrap(), first);

        // A restored-from-JSON snapshot is as good as the original: it
        // lands the rebuilt system on the same cycle.
        let mut fresh = MultichipSystem::build(&cfg).unwrap();
        fresh.restore(&back).unwrap();
        prop_assert_eq!(fresh.network().now(), snap.cycle);
    }
}

/// The sparse snapshot form under load, for each fabric and each MAC: a
/// 4C4M cut 600 cycles into a heavy closed-loop run, with thousands of
/// flits buffered, goes `snapshot()` → JSON → `restore` into a freshly
/// built system whose own `snapshot()` is the same bytes — every switch
/// table, run and credit the restore rebuilt from the sparse form is
/// what the source held — and the two systems then run on in lockstep,
/// compared byte for byte every 50 cycles and in their final outcome.
///
/// Seeded mutation this was seen to catch: `Switch::restore_state` not
/// applying the snapshot's `credits` rows (every output VC back at its
/// built credit) — the restored system's first snapshot already differs.
#[test]
fn loaded_snapshots_restore_to_equal_state_and_step_on_bit_for_bit() {
    use wimnet::traffic::{InjectionProcess, UniformRandom};

    let shared = |mac| WirelessModel::SharedChannel { mac };
    let cases = [
        (Architecture::Substrate, WirelessModel::default()),
        (Architecture::Interposer, WirelessModel::default()),
        (Architecture::Wireless, WirelessModel::default()),
        (Architecture::Wireless, WirelessModel::ParallelLinks { flits_per_cycle: 0.2 }),
        (Architecture::Wireless, shared(MacKind::Token)),
        (Architecture::Wireless, shared(MacKind::ControlPacket)),
    ];
    for (arch, wireless) in cases {
        let what = format!("{arch}/{wireless:?}");
        let mut cfg = SystemConfig::xcym(4, 4, arch).quick_test_profile();
        cfg.wireless = wireless;
        let workload = || {
            UniformRandom::new(
                cfg.multichip.total_cores(),
                cfg.multichip.num_stacks,
                0.5,
                InjectionProcess::Bernoulli { rate: 0.008 },
                cfg.packet_flits,
                cfg.seed,
            )
            .with_memory_reads(0.5, 8)
        };
        let mut source = MultichipSystem::build(&cfg).unwrap();
        let mut source_w = workload();
        let mut cursor = source.run_until(&mut source_w, 0, 600).unwrap();
        assert!(
            source.network().flits_in_flight() > 1_000,
            "{what}: only {} flits in flight",
            source.network().flits_in_flight()
        );

        let json = serde_json::to_string(&source.snapshot()).unwrap();
        let parsed: Snapshot = serde_json::from_str(&json).unwrap();
        let mut restored = MultichipSystem::build(&cfg).unwrap();
        restored.restore(&parsed).unwrap();
        assert!(serde_json::to_string(&restored.snapshot()).unwrap() == json, "{what}: restored");

        let mut restored_w = workload();
        for _ in 0..8 {
            let stop = cursor + 50;
            let reached = source.run_until(&mut source_w, cursor, stop).unwrap();
            assert_eq!(restored.run_until(&mut restored_w, cursor, stop).unwrap(), reached);
            cursor = reached;
            assert!(
                serde_json::to_string(&restored.snapshot()).unwrap()
                    == serde_json::to_string(&source.snapshot()).unwrap(),
                "{what}: diverged by cycle {cursor}"
            );
        }
        let outcome = source.run_from(&mut source_w, cursor).unwrap();
        assert_eq!(restored.run_from(&mut restored_w, cursor).unwrap(), outcome, "{what}");
    }
}

// ---------------------------------------------------------------------------
// The JSON shim itself: writer and parser against each other on trees
// no derive produces, and the writer against bytes its predecessor
// wrote.
// ---------------------------------------------------------------------------

/// A random [`serde::Value`] tree that text can carry exactly: finite
/// floats, `Int` only below zero (`Int(5)` renders as `5`, which parses
/// as `UInt(5)`), strings and keys over an alphabet of the hard cases —
/// quotes, backslashes, control characters, multi-byte and astral
/// characters, the empty string.
fn random_value(rng: &mut u64, depth: u32) -> serde::Value {
    use serde::Value;
    fn draw(rng: &mut u64, n: u64) -> u64 {
        common::splitmix(rng) % n
    }
    fn text(rng: &mut u64) -> String {
        const ALPHABET: [&str; 12] =
            ["a", "Z", "0", " ", "\"", "\\", "\n", "\t", "\u{1}", "\u{1f}", "é", "\u{1F980}"];
        (0..draw(rng, 9)).map(|_| ALPHABET[draw(rng, 12) as usize]).collect()
    }
    // Containers only while there is depth left.
    match draw(rng, if depth == 0 { 7 } else { 9 }) {
        0 => Value::Null,
        1 => Value::Bool(draw(rng, 2) == 0),
        2 => Value::UInt([0, 7, 10, u64::MAX, draw(rng, u64::MAX)][draw(rng, 5) as usize]),
        3 => Value::Int([-1, i64::MIN, -(draw(rng, 1 << 40) as i64) - 1][draw(rng, 3) as usize]),
        4 => Value::Float(gnarly_f64(draw(rng, u64::MAX))),
        5 => Value::Float([0.0, -0.0, 1.0, -3.0, 1e300, 5e-324, 1e21][draw(rng, 7) as usize]),
        6 => Value::Str(text(rng)),
        7 => Value::Seq((0..draw(rng, 5)).map(|_| random_value(rng, depth - 1)).collect()),
        _ => Value::Map(
            (0..draw(rng, 5)).map(|_| (text(rng), random_value(rng, depth - 1))).collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Random value trees survive both renderings: compact and pretty
    /// text parse back to the tree, and a parsed tree renders to the
    /// text it came from (what makes a content hash over re-rendered
    /// bytes sound).
    #[test]
    fn random_value_trees_round_trip_through_compact_and_pretty_text(seed in any::<u64>()) {
        let mut rng = seed;
        let tree = random_value(&mut rng, 4);
        let compact = serde_json::value_to_string(&tree);
        let pretty = serde_json::value_to_string_pretty(&tree);
        let from_compact = serde_json::parse_value(&compact).unwrap();
        let from_pretty = serde_json::parse_value(&pretty).unwrap();
        prop_assert_eq!(&from_compact, &tree, "compact: {}", compact);
        prop_assert_eq!(&from_pretty, &tree, "pretty: {}", pretty);
        prop_assert_eq!(serde_json::value_to_string(&from_pretty), compact);
        prop_assert_eq!(serde_json::value_to_string_pretty(&from_compact), pretty);
        // The typed entry points render a tree the same way.
        prop_assert_eq!(serde_json::to_string(&tree).unwrap(), serde_json::value_to_string(&tree));
    }
}

/// The writer formats numbers and strings straight into its buffer; the
/// one before it went through a temporary `String` per number and a
/// `char` at a time.  The two checked-in files the old writer rendered
/// pretty — 460 KB of nested tables, integers, floats and strings
/// between them — must come back out of the new one byte for byte.
#[test]
fn the_writer_reproduces_files_its_predecessor_wrote() {
    for name in ["v9_checkpoint.ckpt.json", "v9_catalog_entry.json"] {
        let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(path).unwrap();
        let tree = serde_json::parse_value(&text).unwrap();
        assert!(serde_json::value_to_string_pretty(&tree) == text, "{name} re-rendered differently");
    }
}
