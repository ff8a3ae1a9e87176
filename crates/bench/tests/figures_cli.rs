//! The `figures` binary's command line: nothing typed after its name
//! can panic it, and the exit code says what happened — 0 done, 1 a
//! figure failed, 2 usage (ROADMAP aim 3: flags cannot panic).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use wimnet_bench::FIGURES;
use wimnet_telemetry::validate_chrome_trace;

/// Runs `figures <args>` from `cwd`.
fn figures(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("the figures binary launches")
}

/// A fresh empty directory outside any cargo workspace, so the binary
/// writes `results/` relative to it.
fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("wimnet-figures-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn no_argument_lists_the_table() {
    let dir = scratch("list");
    let out = figures(&dir, &[]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    for figure in &FIGURES {
        assert!(
            stdout.lines().any(|l| l.contains(figure.name) && l.contains(figure.title)),
            "{} missing from:\n{stdout}",
            figure.name
        );
    }
    assert!(!dir.join("results").exists(), "listing runs nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_errors_exit_2_and_run_nothing() {
    let dir = scratch("usage");
    for (args, complaint) in [
        (&["fig7", "--quick"][..], "unknown figure \"fig7\""),
        (&["fig2", "--fast"][..], "unknown flag \"--fast\""),
        (&["ablation_mac", "--quick", "--trace"][..], "--trace needs a FILE"),
        (&["fig2", "--quick", "--trace", "t.json"][..], "fig2 records no trace"),
        (&["all", "--quick", "--trace", "t.json"][..], "records no trace"),
        (&["--quick"][..], "no figure named"),
    ] {
        let out = figures(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(complaint), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: figures"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a figure");
    }
    assert!(std::fs::read_dir(&dir).unwrap().next().is_none(), "usage errors write nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_figure_that_fails_exits_1_with_its_error() {
    // `results` is a file, so the CSV cannot be written.
    let dir = scratch("fail");
    std::fs::write(dir.join("results"), "in the way").unwrap();
    let out = figures(&dir, &["fig6", "-q"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("figures fig6: write results/fig6.csv"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_flag_writes_a_valid_trace_and_leaves_the_table_alone() {
    let dir = scratch("trace");
    let out = figures(&dir, &["ablation_mac", "--quick", "--trace", "mac.json"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let trace = std::fs::read_to_string(dir.join("mac.json")).unwrap();
    let events = validate_chrome_trace(&trace).expect("the written trace passes its schema");
    assert!(events > 0);
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/quick/ablation_mac.csv");
    assert_eq!(
        std::fs::read(dir.join("results/ablation_mac.csv")).unwrap(),
        std::fs::read(fixture).unwrap(),
        "observing a run must not move its table row"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
