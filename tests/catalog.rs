//! Crash, corruption, and concurrency harness for the result catalog
//! (`wimnet::core::catalog`, `docs/sweeps.md` "The result catalog").
//!
//! The catalog's contract is brutal on purpose: whatever happens to
//! the directory — a killed writer, truncated files, entries from a
//! different engine version, two shards racing on one key — a
//! subsequent `run_cached` must converge on the **bit-identical**
//! outcome vector a fresh uncached run would produce.  These tests
//! damage the catalog in every one of those ways and check exactly
//! that.

mod common;

use std::fs;
use std::path::PathBuf;

use common::{splitmix, temp_dir, vector_bytes};

use wimnet::core::{
    Catalog, CatalogEntry, CheckpointStore, Fingerprint, Scale, ScenarioGrid, ScenarioPoint,
    SweepOptions, ENGINE_VERSION,
};
use wimnet::topology::Architecture;

/// A fresh per-test catalog directory under the system temp dir.
fn temp_catalog(tag: &str) -> PathBuf {
    temp_dir("wimnet-catalog-harness", tag)
}

/// The shared 8-point quick grid (2 architectures x 2 loads x 2 seeds).
fn grid() -> ScenarioGrid {
    common::small_grid("catalog-harness")
}

/// The pool shape the harness runs on: 2 threads, 2-point steals.
fn pool_2x2() -> SweepOptions<'static> {
    SweepOptions { threads: 2, chunk: 2, ..SweepOptions::default() }
}

/// Kill a sweep mid-flight (miss budget), damage the partial catalog —
/// delete a random subset of entries, truncate another one, leave a
/// half-written temp file behind — and resume.  The resumed sweep must
/// equal a fresh uncached run bit-for-bit.
#[test]
fn crash_damaged_catalog_resumes_to_the_uncached_result() {
    let g = grid();
    let n = g.len();
    assert_eq!(n, 8);

    // Reference: a fresh, uncached run of the same grid.
    let reference_dir = temp_catalog("crash-reference");
    let reference = g
        .run_cached(&Catalog::open(&reference_dir).unwrap(), 2, 2)
        .unwrap();
    assert_eq!(reference.misses, n);

    // The "crashed" sweep: budget kills it after 5 of 8 points.
    let dir = temp_catalog("crash-victim");
    let catalog = Catalog::open(&dir).unwrap();
    let budget = SweepOptions { miss_budget: Some(5), ..pool_2x2() };
    let killed = g.run_cached_with(&catalog, &budget).unwrap();
    assert!(!killed.is_complete());
    assert_eq!(killed.pending, 3);
    assert!(killed.outcomes.is_empty(), "a truncated run carries no vector");

    // Damage pass over the partial catalog.
    let mut rng = 0xdead_beefu64;
    let mut entries: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    entries.sort();
    assert_eq!(entries.len(), 5);
    // Delete a random subset (at least one)...
    let mut deleted = 0;
    for path in &entries {
        if splitmix(&mut rng).is_multiple_of(2) || deleted == 0 {
            fs::remove_file(path).unwrap();
            deleted += 1;
        }
    }
    // ...truncate a survivor halfway, if any survived...
    if let Some(survivor) = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "json"))
    {
        let bytes = fs::read(&survivor).unwrap();
        fs::write(&survivor, &bytes[..bytes.len() / 2]).unwrap();
    }
    // ...and plant a half-written temp file like a writer killed
    // mid-`fs::write` would leave.
    fs::write(
        dir.join("0123456789abcdef0123456789abcdef.json.tmp-999-0"),
        "{\"engine_version\": \"wim",
    )
    .unwrap();

    // Resume: a fresh Catalog handle, as a restarted process would own.
    let resumed_catalog = Catalog::open(&dir).unwrap();
    assert_eq!(resumed_catalog.sweep_temps(), 1, "abandoned temp swept");
    let resumed = g.run_cached(&resumed_catalog, 2, 2).unwrap();
    assert!(resumed.is_complete());
    assert!(resumed.misses > 0, "damage forced recomputation");
    assert_eq!(resumed.hits + resumed.misses, n);

    assert_eq!(resumed.outcomes, reference.outcomes);
    assert_eq!(
        vector_bytes(&resumed.outcomes),
        vector_bytes(&reference.outcomes),
        "resumed vector must be bit-identical to the uncached run"
    );

    // The catalog healed: one more run is all hits.
    let warm = g.run_cached(&resumed_catalog, 2, 2).unwrap();
    assert_eq!((warm.hits, warm.misses), (n, 0));

    let _ = fs::remove_dir_all(&reference_dir);
    let _ = fs::remove_dir_all(&dir);
}

/// `miss_budget: Some(k)` simulates the first `k` misses in *point*
/// order, not the first `k` the pool dispatches.  The grid's loads
/// ascend, so the heaviest-first dispatch order starts from its last
/// point; after every budget the catalog must still hold exactly the
/// fingerprints of points `0..k`.  Seeded mutation seen to fail it:
/// sorting `to_run` into the dispatch order before truncating it in
/// `ScenarioGrid::run_cached_with`.
#[test]
fn miss_budget_takes_the_first_misses_in_point_order() {
    let g = ScenarioGrid::new("budget-order")
        .scale(Scale::Quick)
        .architectures(&[Architecture::Substrate])
        .chips(&[2])
        .stacks(&[2])
        .loads(&[0.001, 0.002, 0.004, 0.008]);
    let points = g.points();
    for k in 1..points.len() {
        let dir = temp_catalog(&format!("budget-order-{k}"));
        let catalog = Catalog::open(&dir).unwrap();
        let budget = SweepOptions { miss_budget: Some(k), ..pool_2x2() };
        let run = g.run_cached_with(&catalog, &budget).unwrap();
        assert_eq!((run.misses, run.pending), (k, points.len() - k));
        for (i, point) in points.iter().enumerate() {
            assert_eq!(
                catalog.contains(&g.point_fingerprint(point)),
                i < k,
                "budget {k}: point {i}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Poisoned entries — a well-formed envelope from a different engine
/// version carrying a doctored outcome, and an entry overwritten with
/// garbage — are quarantined and recomputed, never served and never
/// fatal.
#[test]
fn poisoned_entries_are_quarantined_and_recomputed() {
    let g = grid();
    let n = g.len();
    let dir = temp_catalog("poison");
    let catalog = Catalog::open(&dir).unwrap();
    let first = g.run_cached(&catalog, 2, 2).unwrap();
    assert_eq!(first.misses, n);

    let points = g.points();

    // Poison 1: a valid envelope claiming a *different engine version*,
    // wrapping an outcome doctored to be obviously wrong.  If the
    // version rule ever breaks, the doctored packet count gets served
    // and the equality assertion below catches it.
    let victim = &points[2];
    let fp = g.point_fingerprint(victim);
    let mut doctored = first.outcomes[2].clone();
    doctored.total_packets = doctored.total_packets.wrapping_add(123_456);
    let poison = CatalogEntry {
        engine_version: "wimnet-engine-v0".to_string(),
        fingerprint: fp.hex(),
        point: victim.clone(),
        outcome: doctored,
    };
    assert_ne!(poison.engine_version, ENGINE_VERSION);
    fs::write(
        dir.join(format!("{}.json", fp.hex())),
        serde_json::to_string_pretty(&poison).unwrap(),
    )
    .unwrap();

    // Poison 2: plain corruption — an entry that no longer parses.
    let fp2 = g.point_fingerprint(&points[5]);
    fs::write(dir.join(format!("{}.json", fp2.hex())), "{ this is not json").unwrap();

    // Both poisoned keys still "exist" (contains is a cheap probe)...
    assert!(catalog.contains(&fp) && catalog.contains(&fp2));
    // ...but a lookup refuses to serve either.
    assert_eq!(catalog.lookup(&fp), None);
    assert_eq!(catalog.lookup(&fp2), None);
    assert_eq!(catalog.quarantined(), 2);

    // The quarantine directory preserves both bodies for forensics.
    let quarantine: Vec<_> = fs::read_dir(dir.join("quarantine"))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(quarantine.len(), 2);
    assert!(quarantine.iter().any(|f| f.starts_with(&fp.hex())));
    assert!(quarantine.iter().any(|f| f.starts_with(&fp2.hex())));

    // A rerun recomputes exactly the two poisoned points and lands on
    // the reference vector — the doctored outcome is never served.
    let healed = g.run_cached(&catalog, 2, 2).unwrap();
    assert_eq!((healed.hits, healed.misses), (n - 2, 2));
    assert_eq!(healed.outcomes, first.outcomes);
    assert_eq!(vector_bytes(&healed.outcomes), vector_bytes(&first.outcomes));

    // And the heal sticks: the next run is all hits.
    let warm = g.run_cached(&catalog, 2, 2).unwrap();
    assert_eq!((warm.hits, warm.misses), (n, 0));

    let _ = fs::remove_dir_all(&dir);
}

/// Two threads filling **disjoint** shards of one catalog directory
/// meet in the middle; two threads racing over the **same** full
/// range dedupe through atomic rename to byte-identical entries.  No
/// torn file is ever observable.
#[test]
fn concurrent_shards_share_a_catalog_without_torn_entries() {
    let g = grid();
    let n = g.len();

    // Disjoint halves, one directory, two threads.
    let dir = temp_catalog("shards-disjoint");
    let catalog = Catalog::open(&dir).unwrap();
    let half = |i| SweepOptions { shard: (i, 2), ..pool_2x2() };
    let (left, right) = std::thread::scope(|s| {
        let a = s.spawn(|| g.run_cached_with(&catalog, &half(0)).unwrap());
        let b = s.spawn(|| g.run_cached_with(&catalog, &half(1)).unwrap());
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(left.indices, g.shard_range(0, 2));
    assert_eq!(right.indices, g.shard_range(1, 2));
    assert_eq!(left.misses + right.misses, n, "halves are disjoint");
    assert_eq!(catalog.len(), n);

    // The merged catalog serves the full grid without simulating.
    let merged = g.run_cached(&catalog, 2, 2).unwrap();
    assert_eq!((merged.hits, merged.misses), (n, 0));
    let mut stitched = left.outcomes.clone();
    stitched.extend(right.outcomes.iter().cloned());
    assert_eq!(vector_bytes(&merged.outcomes), vector_bytes(&stitched));

    // Overlapping shards: both threads run the *whole* grid against a
    // fresh directory.  Same-key writers race, atomic rename makes the
    // race a benign overwrite of identical bytes.
    let dir2 = temp_catalog("shards-overlap");
    let catalog2 = Catalog::open(&dir2).unwrap();
    let (run_a, run_b) = std::thread::scope(|s| {
        let a = s.spawn(|| g.run_cached(&catalog2, 2, 2).unwrap());
        let b = s.spawn(|| g.run_cached(&catalog2, 2, 2).unwrap());
        (a.join().unwrap(), b.join().unwrap())
    });
    assert!(run_a.is_complete() && run_b.is_complete());
    assert_eq!(vector_bytes(&run_a.outcomes), vector_bytes(&run_b.outcomes));
    assert_eq!(vector_bytes(&run_a.outcomes), vector_bytes(&merged.outcomes));
    assert_eq!(catalog2.len(), n, "duplicate work dedupes to one entry per key");

    // Every entry file in both directories parses as a complete,
    // self-consistent envelope — no torn read, no stray temp file.
    for d in [&dir, &dir2] {
        for entry in fs::read_dir(d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                continue;
            }
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            assert!(
                name.ends_with(".json"),
                "unexpected non-entry file {name:?} (torn write or leftover temp)"
            );
            let body = fs::read_to_string(&path).unwrap();
            let parsed: CatalogEntry = serde_json::from_str(&body).unwrap();
            assert_eq!(parsed.engine_version, ENGINE_VERSION);
            assert_eq!(format!("{}.json", parsed.fingerprint), name);
        }
    }

    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&dir2);
}

/// An entry whose bytes are not UTF-8 is quarantined like any file
/// that does not parse — counted, moved aside, no longer an entry —
/// rather than missed while it stays in place.
#[test]
fn non_utf8_entries_are_quarantined_like_unparseable_ones() {
    let dir = temp_catalog("non-utf8");
    let catalog = Catalog::open(&dir).unwrap();
    let fp = grid().point_fingerprint(&grid().points()[0]);
    fs::write(dir.join(format!("{}.json", fp.hex())), common::NOT_UTF8).unwrap();
    assert!(catalog.contains(&fp));
    assert_eq!(catalog.len(), 1);

    assert_eq!(catalog.lookup(&fp), None);
    assert_eq!(catalog.quarantined(), 1);
    assert!(!catalog.contains(&fp), "quarantine moved the file aside");
    assert_eq!(catalog.len(), 0);

    let _ = fs::remove_dir_all(&dir);
}

/// Entries nested far past the parser's depth cap are quarantined as
/// unparseable — a typed parse error, not a stack overflow that aborts
/// the process — on the test's thread and on a thread with a pool
/// worker's 2 MB stack.
#[test]
fn deep_nests_are_quarantined_on_any_stack() {
    let dir = temp_catalog("deep-nests");
    let catalog = Catalog::open(&dir).unwrap();
    let fp = grid().point_fingerprint(&grid().points()[0]);
    let path = dir.join(format!("{}.json", fp.hex()));
    let mut quarantined = 0;
    for nest in common::deep_nests() {
        for on_a_2mb_stack in [false, true] {
            fs::write(&path, &nest).unwrap();
            let served = if on_a_2mb_stack {
                common::on_a_2mb_stack(|| catalog.lookup(&fp))
            } else {
                catalog.lookup(&fp)
            };
            assert_eq!(served, None);
            quarantined += 1;
            assert_eq!(catalog.quarantined(), quarantined);
            assert!(!catalog.contains(&fp));
        }
    }

    let _ = fs::remove_dir_all(&dir);
}

/// The v9 engine bump (`wimnet-engine-v9`, rank-exact latency
/// percentiles) invalidates every `wimnet-engine-v8` entry, through
/// both layers of the versioning rule (`docs/sweeps.md` §4):
///
/// 1. The engine version participates in the point fingerprint, so a
///    genuine pre-bump catalog keys its entries under v8 hashes that a
///    v9 sweep never probes — the first post-bump run is all misses
///    and simply recomputes, leaving the stale files inert.
/// 2. Even an entry planted *at* the current fingerprint path (a
///    copied or hand-edited file) is refused by the envelope check
///    when it claims `wimnet-engine-v8`, quarantined, and recomputed —
///    its doctored energy bits are never served.
#[test]
fn pre_bump_v8_entries_are_never_served_and_resume_recomputes() {
    assert_eq!(ENGINE_VERSION, "wimnet-engine-v9");
    let g = grid();
    let n = g.len();
    let dir = temp_catalog("v8-quarantine");
    let catalog = Catalog::open(&dir).unwrap();
    let reference = g.run_cached(&catalog, 2, 2).unwrap();
    assert_eq!(reference.misses, n);

    // Layer 1: a "pre-bump catalog" — v8 envelopes under hashes a v9
    // sweep never computes.  Wipe the v9 entries first so any hit at
    // all would have to come from the stale files.
    for entry in fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "json") {
            fs::remove_file(path).unwrap();
        }
    }
    for (i, point) in g.points().iter().enumerate() {
        let mut stale = reference.outcomes[i].clone();
        // Doctor the outcome so serving it would be caught below.
        stale.total_packets = stale.total_packets.wrapping_add(999);
        let entry = CatalogEntry {
            engine_version: "wimnet-engine-v8".to_string(),
            fingerprint: format!("{i:032x}"),
            point: point.clone(),
            outcome: stale,
        };
        fs::write(
            dir.join(format!("{i:032x}.json")),
            serde_json::to_string_pretty(&entry).unwrap(),
        )
        .unwrap();
    }
    let resumed_catalog = Catalog::open(&dir).unwrap();
    let resumed = g.run_cached(&resumed_catalog, 2, 2).unwrap();
    assert_eq!(
        (resumed.hits, resumed.misses),
        (0, n),
        "a v9 sweep must never hit a v8-keyed entry"
    );
    assert_eq!(resumed.outcomes, reference.outcomes);
    assert_eq!(vector_bytes(&resumed.outcomes), vector_bytes(&reference.outcomes));

    // Layer 2: plant a v8 envelope at the *current* fingerprint path.
    let victim = &g.points()[3];
    let fp = g.point_fingerprint(victim);
    let mut doctored = reference.outcomes[3].clone();
    doctored.total_packets = doctored.total_packets.wrapping_add(123_456);
    let planted = CatalogEntry {
        engine_version: "wimnet-engine-v8".to_string(),
        fingerprint: fp.hex(),
        point: victim.clone(),
        outcome: doctored,
    };
    fs::write(
        dir.join(format!("{}.json", fp.hex())),
        serde_json::to_string_pretty(&planted).unwrap(),
    )
    .unwrap();
    assert!(resumed_catalog.contains(&fp));
    assert_eq!(
        resumed_catalog.lookup(&fp),
        None,
        "a v8 envelope at a v9 path must be refused"
    );
    let healed = g.run_cached(&resumed_catalog, 2, 2).unwrap();
    assert_eq!((healed.hits, healed.misses), (n - 1, 1));
    assert_eq!(vector_bytes(&healed.outcomes), vector_bytes(&reference.outcomes));

    // The heal sticks, and the stale v8 files stay inert.
    let warm = g.run_cached(&resumed_catalog, 2, 2).unwrap();
    assert_eq!((warm.hits, warm.misses), (n, 0));

    let _ = fs::remove_dir_all(&dir);
}

/// The one-point grid of the on-disk format fixtures:
/// `sweep --name format-fixture --quick --archs substrate --chips 1
/// --stacks 2 --mem-fractions 0.5 --loads 0.001 --seeds 11
/// --read-share 0.5`, with `checkpoint --every 100 --kill-at 250` for
/// the checkpoints, its point and the point's fingerprint.
fn format_fixture_grid() -> (ScenarioGrid, ScenarioPoint, Fingerprint) {
    let g = ScenarioGrid::new("format-fixture")
        .scale(Scale::Quick)
        .architectures(&[Architecture::Substrate])
        .chips(&[1])
        .stacks(&[2])
        .memory_fractions(&[0.5])
        .loads(&[0.001])
        .seeds(&[11])
        .read_share(0.5);
    let point = g.points()[0].clone();
    let fp = g.point_fingerprint(&point);
    (g, point, fp)
}

/// A checked-in file under `tests/fixtures/`.
fn fixture(name: &str) -> String {
    fs::read_to_string(format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))).unwrap()
}

/// Files written by earlier engines that this one must still serve.
/// `v9_catalog_entry.json` was written by the `sweep` binary of the
/// commit before the stores were merged onto one implementation
/// (PR 14): `checkpoint --every 100 --kill-at 250`, then `resume`;
/// `store` of the served outcome must reproduce it byte for byte —
/// field order, layout, the content hash.
/// `v9_sparse_checkpoint.ckpt.json` is the snapshot at cycle 200 the
/// same `checkpoint` left from PR 18, when snapshots went sparse and
/// the envelope compact, until snapshots stopped carrying the active
/// sets, flit counters and lane capacities; this engine skips those
/// keys, derives them on restore, and must serve the file with nothing
/// quarantined.  The dense-form checkpoint PR 14 wrote
/// (`v9_checkpoint.ckpt.json`) stays in the tree as a file that must
/// be quarantined:
/// `tests/checkpoint.rs::a_dense_form_checkpoint_is_quarantined_and_the_point_cold_starts`.
///
/// The point resumes from the served snapshot to the outcome the entry
/// records, compared with `meter_ops` normalised: it is the only
/// `RunOutcome` field that counts the simulator's work rather than the
/// simulated system's, and the entry was written when every flit hop
/// and leakage quantum was its own meter operation (62 432 of them;
/// today hops and cycles are counted and priced at read-out).
/// `meter_charges`, the energy breakdown and every other field must
/// still equal what that engine recorded.
#[test]
fn parent_written_fixtures_are_served_and_resume_to_the_recorded_outcome() {
    let (g, point, fp) = format_fixture_grid();
    let entry = fixture("v9_catalog_entry.json");

    // Stores quarantine what they cannot serve, so they only ever see
    // copies of the checked-in files.
    let served_dir = temp_catalog("fixtures-served");
    let catalog = Catalog::open(&served_dir).unwrap();
    let checkpoints = CheckpointStore::open(&served_dir).unwrap();
    let entry_name = format!("{}.json", fp.hex());
    fs::write(served_dir.join(&entry_name), &entry).unwrap();
    fs::write(
        served_dir.join(format!("{}.ckpt.json", fp.hex())),
        fixture("v9_sparse_checkpoint.ckpt.json"),
    )
    .unwrap();
    let outcome = catalog.lookup(&fp).expect("the v9 catalog entry must be served");
    assert_eq!(checkpoints.lookup(&fp).map(|s| s.cycle), Some(200), "the sparse v9 checkpoint");
    assert_eq!(catalog.quarantined() + checkpoints.quarantined(), 0);

    let stored_dir = temp_catalog("fixtures-stored");
    Catalog::open(&stored_dir).unwrap().store(&fp, &point, &outcome).unwrap();
    assert!(fs::read_to_string(stored_dir.join(&entry_name)).unwrap() == entry, "entry bytes moved");

    // And the snapshot is live state, not just bytes: the point
    // resumes from it to the outcome the entry records.
    let resumed = g
        .checkpoint_every(100)
        .run_cached_with(
            &Catalog::open(stored_dir.join("resumed")).unwrap(),
            &SweepOptions { checkpoints: Some(&checkpoints), ..Default::default() },
        )
        .unwrap();
    assert_eq!(outcome.meter_charges, 67_465, "the fixture's charge count");
    let mut normalised = resumed.outcomes;
    for o in &mut normalised {
        o.meter_ops = outcome.meter_ops;
    }
    assert_eq!(normalised, [outcome]);
    assert_eq!(checkpoints.quarantined(), 0, "a warm start, not a cold one");

    let _ = fs::remove_dir_all(&served_dir);
    let _ = fs::remove_dir_all(&stored_dir);
}

/// The checkpoint this engine writes, pinned byte for byte:
/// `v9_state_only_checkpoint.ckpt.json` is what the `checkpoint` run of
/// [`format_fixture_grid`] leaves.  Storing the snapshot served from
/// the parent-written `v9_sparse_checkpoint.ckpt.json` must reproduce
/// it — the same state, without the keys restore now derives — and
/// so must serving it and storing it again.
#[test]
fn a_stored_checkpoint_reproduces_the_checked_in_fixture_byte_for_byte() {
    let (_, _, fp) = format_fixture_grid();
    let name = format!("{}.ckpt.json", fp.hex());
    let pinned = fixture("v9_state_only_checkpoint.ckpt.json");
    for source in ["v9_sparse_checkpoint.ckpt.json", "v9_state_only_checkpoint.ckpt.json"] {
        let served_dir = temp_catalog("fixture-served");
        let served = CheckpointStore::open(&served_dir).unwrap();
        fs::write(served_dir.join(&name), fixture(source)).unwrap();
        let snapshot = served.lookup(&fp).unwrap_or_else(|| panic!("{source} must be served"));
        assert_eq!(served.quarantined(), 0, "{source}");

        let stored_dir = temp_catalog("fixture-stored");
        CheckpointStore::open(&stored_dir).unwrap().store(&fp, &snapshot).unwrap();
        let stored = fs::read_to_string(stored_dir.join(&name)).unwrap();
        assert!(stored == pinned, "{source}: stored checkpoint bytes differ from the fixture");
        for d in [&served_dir, &stored_dir] {
            let _ = fs::remove_dir_all(d);
        }
    }
}

/// The headline acceptance check: a second `run_cached` of the same
/// grid performs **zero** simulation (miss counter is the witness) and
/// returns the bit-identical vector.
#[test]
fn warm_rerun_simulates_nothing_and_matches_bitwise() {
    let g = grid();
    let dir = temp_catalog("warm-rerun");
    let catalog = Catalog::open(&dir).unwrap();

    let cold = g.run_cached(&catalog, 2, 2).unwrap();
    assert_eq!((cold.hits, cold.misses), (0, g.len()));

    let warm = g.run_cached(&catalog, 2, 2).unwrap();
    assert_eq!(
        (warm.hits, warm.misses, warm.pending),
        (g.len(), 0, 0),
        "zero simulation on a warm catalog"
    );
    assert_eq!(warm.outcomes, cold.outcomes);
    assert_eq!(vector_bytes(&warm.outcomes), vector_bytes(&cold.outcomes));

    // Different thread/chunk shapes must not perturb the served bytes.
    for (threads, chunk) in [(1, 1), (3, 2), (4, 8)] {
        let again = g.run_cached(&catalog, threads, chunk).unwrap();
        assert_eq!(again.misses, 0);
        assert_eq!(vector_bytes(&again.outcomes), vector_bytes(&cold.outcomes));
    }

    let _ = fs::remove_dir_all(&dir);
}
