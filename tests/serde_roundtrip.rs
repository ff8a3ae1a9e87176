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

/// A strategy that draws with a closure over the test's rng, so one
/// value strategy serves several properties.
struct Draw<F>(F);

impl<T: std::fmt::Debug, F: Fn(&mut TestRng) -> T> Strategy for Draw<F> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// Random [`ScenarioPoint`]s over all nine axes.
fn scenario_points() -> impl Strategy<Value = ScenarioPoint> {
    Draw(|rng: &mut TestRng| {
        let (arch_idx, wireless_idx, stream_idx) = (0usize..3, 0usize..5, 0usize..4).sample(rng);
        let chips = prop_oneof![Just(1usize), Just(2), Just(4), Just(8)].sample(rng);
        let stacks = prop_oneof![Just(2usize), Just(4), Just(8)].sample(rng);
        let (flits_raw, conc, rate_raw) = (1u32..512, any::<u32>(), 0u32..1_000_000).sample(rng);
        let (frac_bits, stream_a, stream_b) = (any::<u64>(), any::<u64>(), any::<u64>()).sample(rng);
        let (frfcfs, saturation) = (any::<bool>(), any::<bool>()).sample(rng);
        let (seed, index) = (any::<u64>(), 0usize..1_000_000).sample(rng);
        ScenarioPoint {
            index,
            label: format!("prop point #{index} seed=0x{seed:x}"),
            architecture: arch_from(arch_idx),
            chips,
            stacks,
            wireless: wireless_from(wireless_idx, flits_raw, conc),
            memory_fraction: gnarly_f64(frac_bits).abs().fract(),
            address_stream: stream_from(stream_idx, stream_a, stream_b, conc),
            scheduler: if frfcfs { SchedulerPolicy::FrFcfs } else { SchedulerPolicy::Fcfs },
            injection: if saturation {
                InjectionProcess::Saturation
            } else {
                InjectionProcess::Bernoulli { rate: f64::from(rate_raw) / 1e7 }
            },
            seed,
        }
    })
}

/// Random [`RunOutcome`]s, with the optional latency/energy fields
/// populated or absent and the memory-stats table populated or empty.
fn run_outcomes() -> impl Strategy<Value = RunOutcome> {
    Draw(|rng: &mut TestRng| {
        let cores = (1usize..4096).sample(rng);
        let (window_cycles, window_packets, total_packets) =
            (any::<u64>(), any::<u64>(), any::<u64>()).sample(rng);
        let (bw_bits, energy_bits, stat_seed) = (any::<u64>(), any::<u64>(), any::<u64>()).sample(rng);
        let (with_energy_stats, with_latency, with_memory) =
            (any::<bool>(), any::<bool>(), any::<bool>()).sample(rng);
        let fast_forwarded = any::<u64>().sample(rng);
        let (n_categories, stacks) = (0usize..15, 1usize..5).sample(rng);
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
        RunOutcome {
            label: format!("prop outcome cores={cores}"),
            workload: "property-generated".to_string(),
            cores,
            window_cycles,
            window_packets,
            total_packets,
            bandwidth_gbps_per_core: gnarly_f64(bw_bits).abs(),
            avg_packet_energy_nj: with_energy_stats.then(|| gnarly_f64(bw_bits.rotate_left(13)).abs()),
            avg_latency_cycles: with_latency.then(|| gnarly_f64(bw_bits.rotate_left(29)).abs()),
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
        }
    })
}

/// A mid-run snapshot scenario: a 2C2M run of a random architecture,
/// seed, load and read share, cut at a random fraction of its cycles.
/// The strategy draws the scenario; [`SnapshotCase::take`] runs it.
#[derive(Debug)]
struct SnapshotCase {
    arch_idx: usize,
    seed: u64,
    load: f64,
    stop_frac: f64,
    reads: bool,
}

fn snapshot_cases() -> impl Strategy<Value = SnapshotCase> {
    Draw(|rng: &mut TestRng| {
        let (arch_idx, seed, load, stop_frac) =
            (0usize..3, 0u64..1_000, 0.001f64..0.006, 0.1f64..0.9).sample(rng);
        SnapshotCase { arch_idx, seed, load, stop_frac, reads: any::<bool>().sample(rng) }
    })
}

impl SnapshotCase {
    /// The scenario's configuration and its snapshot at the cut.
    fn take(&self) -> (SystemConfig, Snapshot) {
        use wimnet::traffic::{UniformRandom, Workload};

        let mut cfg = SystemConfig::xcym(2, 2, arch_from(self.arch_idx)).quick_test_profile();
        cfg.seed = self.seed;
        let mut sys = MultichipSystem::build(&cfg).unwrap();
        let base = UniformRandom::new(
            cfg.multichip.total_cores(),
            cfg.multichip.num_stacks,
            if self.reads { 0.9 } else { 0.20 },
            InjectionProcess::Bernoulli { rate: self.load },
            cfg.packet_flits,
            cfg.seed,
        );
        let mut workload: Box<dyn Workload> = if self.reads {
            Box::new(base.with_memory_reads(1.0, 8))
        } else {
            Box::new(base)
        };
        let total = cfg.warmup_cycles + cfg.measure_cycles;
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let stop = (total as f64 * self.stop_frac) as u64;
        sys.run_until(workload.as_mut(), 0, stop).unwrap();
        (cfg, sys.snapshot())
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Random [`ScenarioPoint`]s over all nine axes round-trip through
    /// JSON to equal values, and — the property the catalog actually
    /// leans on — the round trip preserves the content fingerprint and
    /// the serialized bytes exactly.
    #[test]
    fn scenario_points_round_trip_bit_exactly(point in scenario_points()) {
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

    /// Random [`RunOutcome`]s round-trip through JSON to
    /// byte-identical documents.
    #[test]
    fn run_outcomes_round_trip_bit_exactly(outcome in run_outcomes()) {
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
// Full-engine snapshots (`wimnet::core::checkpoint`): `bytes(parse(bytes(s)))
// == bytes(s)` is what makes a served snapshot re-store to the file it
// came from, and what the content hash — taken over the bytes a file
// holds — relies on when a store writes a snapshot it was served.
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
    fn snapshots_round_trip_bit_exactly(case in snapshot_cases(), float_seed in any::<u64>()) {
        let (cfg, snap) = case.take();

        // As captured: one round trip reproduces the exact bytes.
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

// ---------------------------------------------------------------------------
// Streaming ≡ tree.  A derived type reads straight from JSON text and
// writes straight into it; `from_value` / `to_value` go through a
// `serde::Value` tree instead.  The two paths share the parser, the
// writer and the derived code, and differ in everything between them —
// `Value`'s own impls, the tree-walking source, the tree-building sink
// and how the parser is driven (a typed walk skips unknown keys, a tree
// capture reads them).  So each path is the other's oracle.
//
// Seeded mutations these were seen to fail:
// - `Value::deserialize` keeping the last of duplicate map keys (it
//   overwrote the earlier entry): all three, on the duplicate-key
//   documents whose duplicate came after the original;
// - `[T]::serialize` announcing an element for an empty slice, which
//   the pretty writer renders as `[\n  \n]`: the snapshot case, whose
//   empty `VecDeque`s write `[]` streamed but go through `[Value]` — and
//   the mutation — on the tree path (`the_writer_reproduces_…` below
//   fails too);
// - a bracket-counting `skip` in the parser (an unknown key's value
//   passed over without being parsed): all three, on the unknown key
//   whose value is the malformed `[1 2]` — accepted streamed, refused
//   through the tree.
// ---------------------------------------------------------------------------

/// Index paths (through sequences and maps) of every non-empty map in
/// `v`.
fn map_paths(v: &serde::Value, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    use serde::Value;
    let children: Box<dyn Iterator<Item = &Value>> = match v {
        Value::Seq(items) => Box::new(items.iter()),
        Value::Map(entries) => {
            if !entries.is_empty() {
                out.push(path.clone());
            }
            Box::new(entries.iter().map(|(_, item)| item))
        }
        _ => return,
    };
    for (i, child) in children.enumerate() {
        path.push(i);
        map_paths(child, path, out);
        path.pop();
    }
}

/// The entries of the map at `path` (one from [`map_paths`]).
fn map_at<'a>(v: &'a mut serde::Value, path: &[usize]) -> &'a mut Vec<(String, serde::Value)> {
    use serde::Value;
    let node = path.iter().fold(v, |node, &i| match node {
        Value::Seq(items) => &mut items[i],
        Value::Map(entries) => &mut entries[i].1,
        _ => unreachable!("a path runs through containers"),
    });
    let Value::Map(entries) = node else { unreachable!("a path ends at a map") };
    entries
}

/// `text` and doctored variants of it, each named: keys reordered, an
/// extra unknown key (well-formed, and malformed), a duplicate key with
/// another value before or after the original, a value of the wrong
/// type, a missing field, trailing garbage.  Each tree-level doctoring
/// hits one non-empty map picked by `seed` and renders compact or
/// pretty, also by `seed`.
fn doctored_variants(text: &str, seed: u64) -> Vec<(&'static str, String)> {
    use serde::Value;
    let mut rng = seed;
    let mut draw = |n: usize| (common::splitmix(&mut rng) % n as u64) as usize;
    let tree = serde_json::parse_value(text).unwrap();
    let mut paths = Vec::new();
    map_paths(&tree, &mut Vec::new(), &mut paths);
    let mut out = vec![
        ("as rendered", text.to_string()),
        ("trailing garbage", format!("{text} x")),
        ("malformed unknown key", text.replacen('{', r#"{"zz_unknown":[1 2],"#, 1)),
    ];
    for what in ["reordered keys", "unknown key", "duplicate key", "wrong type", "missing field"] {
        let mut doctored = tree.clone();
        let entries = map_at(&mut doctored, &paths[draw(paths.len())]);
        let at = draw(entries.len());
        match what {
            "reordered keys" => entries.reverse(),
            "unknown key" => {
                let extra = Value::Seq(vec![Value::Null, Value::Map(vec![("k".into(), Value::Float(1.5))])]);
                entries.insert(draw(entries.len() + 1), ("zz_unknown".into(), extra));
            }
            "duplicate key" => {
                let other = [Value::Null, Value::Str("dup".into()), entries[draw(entries.len())].1.clone()]
                    [draw(3)]
                .clone();
                let key = entries[at].0.clone();
                entries.insert(draw(entries.len() + 1), (key, other));
            }
            "wrong type" => {
                entries[at].1 = match entries[at].1 {
                    Value::Str(_) => Value::UInt(1),
                    _ => Value::Str("wrong".into()),
                };
            }
            _ => {
                entries.remove(at);
            }
        }
        let render = if draw(2) == 0 { serde_json::value_to_string } else { serde_json::value_to_string_pretty };
        out.push((what, render(&doctored)));
    }
    out
}

/// `text` read as a `T` straight from the text and through the tree
/// [`serde_json::parse_value`] builds: both fail, or both succeed with
/// values that render to the same bytes.
fn reads_agree<T: serde::Serialize + serde::Deserialize>(what: &str, text: &str) -> Result<(), TestCaseError> {
    let streamed = serde_json::from_str::<T>(text);
    let through_tree = serde_json::parse_value(text).and_then(|tree| T::from_value(&tree));
    match (streamed, through_tree) {
        (Err(_), Err(_)) => Ok(()),
        (Ok(a), Ok(b)) if serde_json::to_string(&a).unwrap() == serde_json::to_string(&b).unwrap() => Ok(()),
        (a, b) => Err(TestCaseError::fail(format!(
            "{what}: streamed {}, through the tree {}",
            a.map_or_else(|e| format!("{e}"), |a| serde_json::to_string(&a).unwrap()),
            b.map_or_else(|e| format!("{e}"), |b| serde_json::to_string(&b).unwrap()),
        ))),
    }
}

/// `x` written straight to text and through its `Value` tree gives the
/// same bytes, compact and pretty; and every doctored variant of its
/// text reads the same both ways.
fn paths_agree<T: serde::Serialize + serde::Deserialize>(x: &T, seed: u64) -> Result<(), TestCaseError> {
    let tree = x.to_value();
    prop_assert!(serde_json::to_string(x).unwrap() == serde_json::value_to_string(&tree), "compact");
    let pretty = serde_json::to_string_pretty(x).unwrap();
    prop_assert!(pretty == serde_json::value_to_string_pretty(&tree), "pretty");
    for (what, text) in doctored_variants(&pretty, seed) {
        reads_agree::<T>(what, &text)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Streaming ≡ tree for the catalog's two payload types.
    #[test]
    fn streaming_and_tree_paths_agree_on_points_and_outcomes(
        point in scenario_points(),
        outcome in run_outcomes(),
        seed in any::<u64>(),
    ) {
        paths_agree(&point, seed)?;
        paths_agree(&outcome, seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// Streaming ≡ tree for mid-run snapshots.
    #[test]
    fn streaming_and_tree_paths_agree_on_snapshots(case in snapshot_cases(), seed in any::<u64>()) {
        paths_agree(&case.take().1, seed)?;
    }
}

/// Streaming ≡ tree for the checked-in store files: the catalog entry
/// and the two served checkpoints read, the two retired checkpoint forms
/// are refused, both ways alike, and so is every doctored variant.
#[test]
fn streaming_and_tree_paths_agree_on_the_fixtures() {
    use wimnet::core::{CatalogEntry, CheckpointEntry};
    let fixture = |name: &str| {
        std::fs::read_to_string(format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))).unwrap()
    };
    let entry = fixture("v9_catalog_entry.json");
    let checkpoints = [
        "v9_sparse_checkpoint.ckpt.json",
        "v9_state_only_checkpoint.ckpt.json",
        "v9_checkpoint.ckpt.json",
        "pre_pr13_flit_queue.ckpt.json",
    ]
    .map(fixture);
    let reads = |text: &String| serde_json::from_str::<CheckpointEntry>(text).is_ok();
    assert!(serde_json::from_str::<CatalogEntry>(&entry).is_ok());
    assert!(checkpoints[..2].iter().all(reads) && !checkpoints[2..].iter().any(reads));
    for seed in 0..8 {
        for (what, text) in doctored_variants(&entry, seed) {
            reads_agree::<CatalogEntry>(what, &text).unwrap();
        }
        for checkpoint in &checkpoints {
            for (what, text) in doctored_variants(checkpoint, seed) {
                reads_agree::<CheckpointEntry>(what, &text).unwrap();
            }
        }
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
