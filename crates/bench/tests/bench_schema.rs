//! Schema sanity for the checked-in `BENCH_engine.json`: every scenario
//! row must carry an interleaved-minimum wall clock, traffic rows must
//! carry complete determinism fingerprints in *both* the before and
//! after blocks, and the two blocks must cover the same scenarios with
//! bit-identical fingerprints.  Bench bit-rot (a renamed scenario, a
//! dropped fingerprint field, a block regenerated against a different
//! engine) fails the pipeline here instead of surfacing three PRs
//! later.

use serde::Value;

/// Scenarios that intentionally carry no fingerprint (no traffic, or a
/// sweep whose outcome is asserted inside `bench_engine` itself).
const FINGERPRINTLESS: &[&str] = &["idle", "fig3_sweep"];

/// Rows that must exist in both blocks: the fast-forward tentpole's
/// measured scenarios (the quiescence-capable MAC comparison and the
/// event-driven app workload), the observability tentpole's
/// zero-observer-effect A/B (`telemetry_overhead`), and the
/// long-standing engine rows.
const REQUIRED_ROWS: &[&str] = &[
    "idle",
    "fig3_anchor_load",
    "shared_channel",
    "mac_comparison_ff",
    "deep_idle_ff",
    "app_workload_ff",
    "app_blackscholes",
    "memory_bound_ff",
    "saturated",
    "telemetry_overhead",
    "sweep_grid_pool",
];

/// Fields every fingerprint must provide.
const FINGERPRINT_FIELDS: &[&str] =
    &["packets", "flits", "latency_bits", "energy_pj_bits", "energy_pj"];

fn load() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("BENCH_engine.json must be checked in at {path}: {e}"));
    serde_json::parse_value(&text).expect("BENCH_engine.json parses as JSON")
}

fn map<'a>(v: &'a Value, what: &str) -> &'a [(String, Value)] {
    match v {
        Value::Map(entries) => entries,
        other => panic!("{what} must be a JSON object, got {other:?}"),
    }
}

fn field<'a>(v: &'a Value, key: &str, what: &str) -> &'a Value {
    map(v, what)
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("{what} lacks required key `{key}`"))
}

fn scenarios(root: &Value, block: &str) -> Vec<(String, Value)> {
    let b = field(root, block, "BENCH_engine.json");
    map(field(b, "scenarios", block), block).to_vec()
}

fn number(v: &Value) -> f64 {
    match *v {
        Value::Float(f) => f,
        Value::Int(i) => i as f64,
        Value::UInt(u) => u as f64,
        ref other => panic!("expected a number, got {other:?}"),
    }
}

#[test]
fn bench_engine_json_has_before_and_after_blocks_with_fingerprints() {
    let root = load();
    let before = scenarios(&root, "before");
    let after = scenarios(&root, "after");

    let names = |rows: &[(String, Value)]| {
        let mut v: Vec<String> = rows.iter().map(|(k, _)| k.clone()).collect();
        v.sort();
        v
    };
    assert_eq!(
        names(&before),
        names(&after),
        "before/after must cover the same scenarios"
    );
    assert!(!before.is_empty(), "no scenarios recorded");

    for rows in [&before, &after] {
        for (name, row) in rows.iter() {
            let wall = number(field(row, "wall_ms", name));
            assert!(wall > 0.0, "{name}: wall_ms must be a positive minimum");
            assert!(
                number(field(row, "cycles", name)) > 0.0,
                "{name}: cycles must be positive"
            );
            let fp = map(row, name).iter().find(|(k, _)| k == "fingerprint");
            if FINGERPRINTLESS.contains(&name.as_str()) {
                continue;
            }
            let (_, fp) = fp.unwrap_or_else(|| {
                panic!("{name}: traffic scenarios must record a fingerprint")
            });
            for key in FINGERPRINT_FIELDS {
                field(fp, key, name);
            }
        }
    }
}

/// The versioning guard (`docs/sweeps.md` §4): `BENCH_engine.json` is
/// only meaningful for the engine version it was generated against —
/// fingerprints are version-scoped exactly like catalog entries.  The
/// file must record `engine_version`, and the string must match
/// `wimnet_core::ENGINE_VERSION`, so a future outcome-changing PR
/// cannot bump the engine without regenerating the bench file (or vice
/// versa).
#[test]
fn bench_file_records_the_current_engine_version() {
    let root = load();
    let recorded = match field(&root, "engine_version", "BENCH_engine.json") {
        Value::Str(s) => s.clone(),
        other => panic!("engine_version must be a string, got {other:?}"),
    };
    assert_eq!(
        recorded,
        wimnet_core::ENGINE_VERSION,
        "BENCH_engine.json was generated against a different engine version — \
         regenerate it (see the file's `regenerate` key)"
    );
}

#[test]
fn required_rows_are_present_in_both_blocks() {
    let root = load();
    for block in ["before", "after"] {
        let rows = scenarios(&root, block);
        for required in REQUIRED_ROWS {
            assert!(
                rows.iter().any(|(k, _)| k == required),
                "{block} block lost the `{required}` row"
            );
        }
    }
}

/// The observability tentpole's cost ceiling: on `telemetry_overhead`
/// the blocks compare telemetry-off (`before`) against counters + time
/// series attached (`after`) at uniform saturation — the worst case,
/// every hook firing every cycle.  Attached observation must stay
/// within ~5% of the unobserved wall clock (small slack on top for
/// measurement noise in the recorded minima; the *outcome* equality is
/// asserted separately by `before_and_after_fingerprints_are_bit_identical`
/// and at measurement time inside `bench_engine` itself).
#[test]
fn telemetry_overhead_stays_within_five_percent() {
    let root = load();
    let wall = |block: &str| {
        let rows = scenarios(&root, block);
        let (_, row) = rows
            .iter()
            .find(|(k, _)| k == "telemetry_overhead")
            .expect("required_rows_are_present_in_both_blocks covers absence");
        number(field(row, "wall_ms", "telemetry_overhead"))
    };
    let (off, on) = (wall("before"), wall("after"));
    assert!(
        on <= off * 1.08,
        "telemetry on ({on:.3} ms) exceeds ~5% overhead budget over \
         telemetry off ({off:.3} ms) at saturation"
    );
}

#[test]
fn before_and_after_fingerprints_are_bit_identical() {
    // This PR's contract (and every behavior-preserving perf PR's): the
    // speedup blocks describe the *same* simulation.  A PR that changes
    // behavior on purpose must say so in `rng_change_note` instead.
    let root = load();
    if map(&root, "root").iter().any(|(k, _)| k == "rng_change_note") {
        return; // documented behavioral change: blocks differ by design
    }
    let before = scenarios(&root, "before");
    let after = scenarios(&root, "after");
    for (name, row) in &before {
        if FINGERPRINTLESS.contains(&name.as_str()) {
            continue;
        }
        let b_fp = field(row, "fingerprint", name);
        let a_row = after
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .expect("name sets already checked equal");
        let a_fp = field(a_row, "fingerprint", name);
        for key in ["packets", "flits", "latency_bits", "energy_pj_bits"] {
            // Exact Value comparison: these are u64 bit patterns that
            // must not round-trip through f64.
            assert_eq!(
                field(b_fp, key, name),
                field(a_fp, key, name),
                "{name}: fingerprint field `{key}` diverged between blocks"
            );
        }
    }
}
