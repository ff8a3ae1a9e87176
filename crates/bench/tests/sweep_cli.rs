//! The `sweep` binary's exit-code contract, through the executable: 0
//! done, 1 usage, 2 a verb failed (a `fetch` over an incomplete catalog,
//! a configuration the engine rejects), 3 a run verb stopped by a
//! simulated kill — and nothing typed after its name panics it
//! (ROADMAP aim 3: flags cannot panic).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A tiny two-point grid: one wireless 2C2M at two loads.
const AXES: [&str; 11] = [
    "--quick", "--archs", "wireless", "--chips", "2", "--stacks", "2", "--loads", "0.002,0.006",
    "--seeds", "1",
];

/// Runs `sweep <verb> <AXES> --catalog <dir>/cat <extra>`.
fn sweep(dir: &Path, verb: &str, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
        .arg(verb)
        .args(AXES)
        .arg("--catalog")
        .arg(dir.join("cat"))
        .args(extra)
        .current_dir(dir)
        .output()
        .expect("the sweep binary launches")
}

/// A fresh empty directory outside any cargo workspace.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wimnet-sweep-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn usage_errors_exit_1_and_run_nothing() {
    let dir = scratch("usage");
    for (extra, complaint) in [
        (&["--fast"][..], "unknown flag \"--fast\""),
        (&["--shard", "2/2"][..], "need 0 <= I < N"),
        (&["--shard", "1"][..], "--shard wants I/N"),
        (&["--wireless", "laser"][..], "unknown wireless model"),
    ] {
        let out = sweep(&dir, "submit", extra);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{extra:?}: {stderr}");
        assert!(stderr.contains(complaint), "{extra:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{extra:?} ran something");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_sweep")).arg("launch").output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: sweep"));
    assert!(!dir.join("cat").exists(), "usage errors open no catalog");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn simulated_kill_exits_3_then_fetch_exits_2_until_resubmitted() {
    let dir = scratch("kill");
    let killed = sweep(&dir, "submit", &["--abort-after-misses", "1"]);
    let stdout = String::from_utf8_lossy(&killed.stdout);
    assert_eq!(killed.status.code(), Some(3), "{stdout}");
    assert!(stdout.contains("hits 0 / simulated 1 / pending 1"), "{stdout}");

    let early = sweep(&dir, "fetch", &[]);
    let stderr = String::from_utf8_lossy(&early.stderr);
    assert_eq!(early.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("fetch: 1 of 2 points not cached"), "{stderr}");
    assert!(early.stdout.is_empty(), "an incomplete fetch prints no vector");

    let resumed = sweep(&dir, "submit", &[]);
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert_eq!(resumed.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("hits 1 / simulated 1 / pending 0"), "{stdout}");
    let fetched = sweep(&dir, "fetch", &[]);
    assert_eq!(fetched.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&fetched.stdout).contains("bandwidth_gbps_per_core"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A wireless rate or band, or a workload load or share, that the
/// engine rejects is exit 2 with its message, never a panic.
#[test]
fn a_wireless_rate_the_engine_rejects_is_a_message_not_a_panic() {
    let dir = scratch("rate");
    let rate = "wireless flits_per_cycle must be finite and positive";
    for (verb, extra, complaint) in [
        ("trace", &["--wireless", "p2p:0/16"][..], rate),
        ("trace", &["--wireless", "parallel:0"][..], rate),
        ("trace", &["--wireless", "p2p:nan/16"][..], rate),
        ("submit", &["--wireless", "parallel:nan"][..], rate),
        ("submit", &["--wireless", "p2p:1/0"][..], "wireless max_concurrent must be positive"),
        ("submit", &["--loads", "1.5"][..], "load 1.5 outside [0, 1]"),
        ("submit", &["--loads", "nan"][..], "load NaN outside [0, 1]"),
        ("submit", &["--loads", "-0.1"][..], "load -0.1 outside [0, 1]"),
        ("submit", &["--mem-fractions", "2"][..], "memory_fraction 2 outside [0, 1]"),
    ] {
        let out = sweep(&dir, verb, extra);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{verb} {extra:?}: {stderr}");
        assert!(stderr.contains(complaint), "{verb} {extra:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{verb} {extra:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
