//! The `--quick` smoke run — every workload, both passes — and the
//! self-validation of what it writes; plus the check that
//! `BENCHMARK.json` lists exactly the metrics the code reports.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Deserialize;

use wimnet_benchmark::api::StateValue;
use wimnet_benchmark::metrics::{END_TO_END, PER_LAYER};
use wimnet_benchmark::points::WORKLOADS;
use wimnet_benchmark::report::Results;

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty() && name.len() <= 64 && name.chars().all(ok)
}

#[test]
fn quick_run_writes_valid_results() {
    // A scratch benchmark directory holding only the golden file, so
    // the run's `out/` does not collide with a user's.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch directory");
    fs::copy(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("golden.json"),
        dir.join("golden.json"),
    )
    .expect("copy golden.json");

    let run = Command::new(env!("CARGO_BIN_EXE_wimnet-benchmark"))
        .arg("--quick")
        .arg("--dir")
        .arg(&dir)
        .output()
        .expect("spawn the benchmark");
    assert!(
        run.status.success(),
        "quick run exited with {}:\n{}\n{}",
        run.status,
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );

    let text = fs::read_to_string(dir.join("out/results.json")).expect("results.json written");
    let results: Results = serde_json::from_str(&text).expect("results.json parses");
    assert!(results.quick);
    let names: Vec<&str> = results.workloads.keys().map(String::as_str).collect();
    let mut expected = WORKLOADS.to_vec();
    expected.sort_unstable();
    assert_eq!(names, expected);

    for (name, w) in results.workloads.iter() {
        assert!(valid_name(name));
        // Six end-to-end metrics, all present and finite.
        let e2e = &w.end_to_end;
        assert_eq!(e2e.metrics.len(), END_TO_END.len() + 1, "{name}");
        for m in &END_TO_END {
            let got = &e2e.metrics[m.name];
            assert!(
                got.value.is_finite() && got.value > 0.0,
                "{name}.{} = {}",
                m.name,
                got.value
            );
            assert_eq!(got.unit, m.unit);
        }
        assert_eq!(
            e2e.metrics["failed_share"].value, 0.0,
            "{name}: {:?}",
            e2e.checks.failures
        );
        assert!(e2e.checks.attempted > 0);
        assert_eq!(e2e.golden, "checked", "{name}");

        // The whole per-layer table, nothing undeclared.
        let layers = &w.per_layer;
        assert_eq!(
            layers.checks.failed, 0,
            "{name}: {:?}",
            layers.checks.failures
        );
        assert_eq!(layers.golden, "checked", "{name}");
        assert!(layers.metrics.len() <= 128);
        assert_eq!(layers.metrics.len(), PER_LAYER.len(), "{name}");
        for m in &PER_LAYER {
            let got = &layers.metrics[m.name];
            assert!(valid_name(m.name));
            assert!(
                got.value.is_finite() && got.value >= 0.0,
                "{name}.{} = {}",
                m.name,
                got.value
            );
        }
        for p in &layers.points {
            let sum: f64 = p.shares.values().sum();
            assert!(
                (sum - 1.0).abs() <= 0.02,
                "{name}/{}: shares sum to {sum}",
                p.id
            );
        }
    }

    // The simulation workloads are traced point by point, and on the
    // loaded ones fast-forward must never fire.
    for name in ["loaded_oneway", "memory_reads", "idle_ff"] {
        let layers = &results.workloads[name].per_layer;
        assert!(!layers.points.is_empty(), "{name} has traced points");
        assert!(layers.metrics["noc.steps"].value > 0.0);
        let jumps = layers.metrics["noc.ff_jumps"].value;
        assert_eq!(
            jumps > 0.0,
            name == "idle_ff",
            "{name}: {jumps} fast-forward jumps"
        );
        let trace = fs::read_to_string(dir.join(format!("out/trace-{name}.json")))
            .expect("Chrome trace written");
        let trace: StateValue = serde_json::from_str(&trace).expect("Chrome trace parses");
        let Some(StateValue::Seq(events)) = trace.get("traceEvents") else {
            panic!("{name}: trace has no traceEvents array");
        };
        assert!(
            events.len() > layers.points.len(),
            "{name}: trace holds spans"
        );
    }
    assert!(
        results.workloads["sweep_batched"].per_layer.metrics["noc.fast_step_speedup"].value > 0.0
    );
    assert!(results.workloads["persist"].per_layer.metrics["core.catalog.entry_bytes"].value > 0.0);
}

#[derive(Deserialize)]
struct Named {
    name: String,
    why: String,
}

#[derive(Deserialize)]
struct Listed {
    name: String,
    unit: String,
    better: String,
    #[serde(default)]
    bound: Option<f64>,
}

#[derive(Deserialize)]
struct BenchmarkJson {
    command: Vec<String>,
    paths: Vec<String>,
    run_seconds: u64,
    workloads: Vec<Named>,
    end_to_end: Vec<Listed>,
    per_layer: Vec<Listed>,
}

#[test]
fn benchmark_json_lists_what_the_code_reports() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let b: BenchmarkJson = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    assert_eq!(b.command, ["bash", "benchmark/run.sh"]);
    assert_eq!(b.paths, ["benchmark"]);
    assert!((1..=60).contains(&b.run_seconds));
    assert_eq!(
        b.workloads
            .iter()
            .map(|w| w.name.as_str())
            .collect::<Vec<_>>(),
        WORKLOADS
    );
    for w in &b.workloads {
        assert!(
            !w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n'),
            "{}",
            w.name
        );
    }
    assert_eq!(b.end_to_end.len(), END_TO_END.len());
    for (listed, m) in b.end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(
            (
                listed.name.as_str(),
                listed.unit.as_str(),
                listed.better.as_str(),
                listed.bound
            ),
            (m.name, m.unit, m.better.as_str(), Some(m.bound))
        );
        assert!(m.bound > 0.0 && m.bound <= 0.25);
    }
    assert_eq!(b.per_layer.len(), PER_LAYER.len());
    for (listed, m) in b.per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(
            (
                listed.name.as_str(),
                listed.unit.as_str(),
                listed.better.as_str(),
                listed.bound
            ),
            (m.name, m.unit, m.better.as_str(), None)
        );
        assert!(valid_name(m.name) && m.unit.len() <= 16);
    }
}
