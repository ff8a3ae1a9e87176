//! Shared testkit for the umbrella integration tests.
//!
//! Every test crate under `tests/` re-grew the same scaffolding —
//! quick-profile config builders, bit-level run fingerprints, the
//! fast-forward differential assertion, temp-dir plumbing, canonical
//! outcome bytes — before this module centralised them.  Each test
//! binary compiles its own copy (`mod common;`), so helpers unused by
//! one binary are dead code there; hence the blanket allow.

#![allow(dead_code)]

use std::fs;
use std::path::PathBuf;

use proptest::prelude::*;

use wimnet::core::{MultichipSystem, RunOutcome, Scale, ScenarioGrid, SystemConfig};
use wimnet::topology::Architecture;
use wimnet::traffic::{InjectionProcess, TrafficEvent, UniformRandom, Workload};

// ---------------------------------------------------------------------------
// Config and grid builders
// ---------------------------------------------------------------------------

/// The canonical small system every determinism/checkpoint test runs:
/// 4 chips x 4 stacks at the quick test profile.
pub fn quick(arch: Architecture) -> SystemConfig {
    SystemConfig::xcym(4, 4, arch).quick_test_profile()
}

/// A small grid that still exercises several axes: 2 architectures x
/// 2 loads x 2 seeds = 8 points at quick scale.
pub fn small_grid(name: &str) -> ScenarioGrid {
    ScenarioGrid::new(name)
        .scale(Scale::Quick)
        .architectures(&[Architecture::Wireless, Architecture::Substrate])
        .chips(&[2])
        .stacks(&[2])
        .loads(&[0.002, 0.006])
        .seeds(&[11, 12])
}

/// A proptest strategy over the three compared architectures.
pub fn arch_strategy() -> impl Strategy<Value = Architecture> {
    prop_oneof![
        Just(Architecture::Substrate),
        Just(Architecture::Interposer),
        Just(Architecture::Wireless),
    ]
}

// ---------------------------------------------------------------------------
// Filesystem plumbing
// ---------------------------------------------------------------------------

/// A fresh per-test directory under the system temp dir, wiped of any
/// leftover from a previous run of the same (prefix, tag) pair.
pub fn temp_dir(prefix: &str, tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("{prefix}-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// An entry's bytes that are not UTF-8: a UTF-16 byte-order mark
/// before `{}`.  A store must quarantine it like any unparseable file.
pub const NOT_UTF8: &[u8] = &[0xff, 0xfe, 0x7b, 0x7d];

/// Two 1 MB documents nested far past `serde_json::MAX_DEPTH`: a run
/// of `[` and a run of `{"a":`.  A store must quarantine them, never
/// overflow the stack on them.
pub fn deep_nests() -> [String; 2] {
    ["[".repeat(1 << 20), r#"{"a":"#.repeat((1 << 20) / 5)]
}

/// `f`'s result, computed on a fresh thread with a sweep pool
/// worker's 2 MB stack.
pub fn on_a_2mb_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn_scoped(s, f)
            .unwrap()
            .join()
            .unwrap()
    })
}

// ---------------------------------------------------------------------------
// Bit-level comparators
// ---------------------------------------------------------------------------

/// Canonical bytes of an outcome vector — "bit-identical" in the
/// harness tests means equal through this, not just `PartialEq`.
pub fn vector_bytes(outcomes: &[RunOutcome]) -> String {
    serde_json::to_string(&outcomes.to_vec()).unwrap()
}

/// A tiny deterministic generator for damage-site selection in the
/// corruption harnesses (the proptest shim's rng is per-test-name;
/// this keeps the subset stable and printable on failure).
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A finite f64 with a full random mantissa — stresses the shortest
/// round-trip float codec much harder than "nice" decimal literals.
pub fn gnarly_f64(bits: u64) -> f64 {
    let f = f64::from_bits(bits);
    if f.is_finite() {
        f
    } else {
        // Clear the exponent's top bit: the result is always finite.
        f64::from_bits(bits & !(1u64 << 62))
    }
}

/// Full bit-level fingerprint of a finished simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub packets_injected: u64,
    pub packets_delivered: u64,
    pub flits_delivered: u64,
    pub window_packets: u64,
    pub window_flits: u64,
    pub latency_sum_bits: u64,
    pub latency_max: Option<u64>,
    pub latency_min: Option<u64>,
    pub energy_total_bits: u64,
    pub energy_breakdown_bits: Vec<u64>,
}

/// Take the bit-level [`Fingerprint`] of a finished system.
pub fn system_fingerprint(sys: &MultichipSystem, avg_latency_cycles: Option<f64>) -> Fingerprint {
    let net = sys.network();
    let stats = net.stats();
    Fingerprint {
        packets_injected: stats.packets_injected(),
        packets_delivered: stats.packets_delivered(),
        flits_delivered: stats.flits_delivered(),
        window_packets: stats.window_packets_delivered(),
        window_flits: stats.window_flits_delivered(),
        latency_sum_bits: avg_latency_cycles.unwrap_or(f64::NAN).to_bits(),
        latency_max: stats.max_latency(),
        latency_min: stats.min_latency(),
        energy_total_bits: net.meter().total().picojoules().to_bits(),
        energy_breakdown_bits: net
            .meter()
            .breakdown()
            .entries
            .iter()
            .map(|(_, e)| e.picojoules().to_bits())
            .collect(),
    }
}

/// Build the canonical uniform-random workload for `config`, run it to
/// completion, and fingerprint the result.
pub fn run_fingerprint(config: &SystemConfig, load: InjectionProcess) -> Fingerprint {
    let mut sys = MultichipSystem::build(config).expect("system builds");
    let mut workload = UniformRandom::new(
        config.multichip.total_cores(),
        config.multichip.num_stacks,
        0.20,
        load,
        config.packet_flits,
        config.seed,
    );
    let outcome = sys.run(&mut workload).expect("run completes");
    system_fingerprint(&sys, outcome.avg_latency_cycles)
}

// ---------------------------------------------------------------------------
// Fast-forward differential harness
// ---------------------------------------------------------------------------

/// Disables fast-forward on any workload by reporting "cannot predict".
/// Generation is forwarded untouched (the demand-driven form too), so
/// the only difference between a wrapped and an unwrapped run is
/// whether the driver skips idle cycles.
pub struct NoFastForward<W>(pub W);

impl<W: Workload> Workload for NoFastForward<W> {
    fn generate_into(
        &mut self,
        now: u64,
        full: &dyn Fn(usize) -> bool,
        out: &mut Vec<TrafficEvent>,
    ) {
        self.0.generate_into(now, full, out);
    }
    fn name(&self) -> &str {
        self.0.name()
    }
    fn shape(&self) -> (usize, usize) {
        self.0.shape()
    }
    fn next_event_at(&self, _now: u64) -> Option<u64> {
        None
    }
}

/// Hides a workload's demand-driven generation: the full-source hint is
/// dropped and the wrapped workload asked with one that names no core,
/// so it hands over every event.  A wrapped run offers the driver
/// everything and lets `inject_event` refuse; an unwrapped one never
/// draws the refused events.  The two must be the same run.
pub struct PlainGenerate<W>(pub W);

impl<W: Workload> Workload for PlainGenerate<W> {
    fn generate_into(
        &mut self,
        now: u64,
        _full: &dyn Fn(usize) -> bool,
        out: &mut Vec<TrafficEvent>,
    ) {
        self.0.generate_into(now, &|_| false, out);
    }
    fn name(&self) -> &str {
        self.0.name()
    }
    fn shape(&self) -> (usize, usize) {
        self.0.shape()
    }
    fn next_event_at(&self, now: u64) -> Option<u64> {
        self.0.next_event_at(now)
    }
}

/// Full-fingerprint comparison of a fast-forwarded and a full-stepped
/// run of the same system + workload pair: stats, latency bits and
/// every energy category must match to the last bit.  `make_workload`
/// rebuilds the workload per run.
pub fn assert_ff_bit_identical(
    what: &str,
    cfg: &SystemConfig,
    make_workload: &dyn Fn() -> Box<dyn Workload>,
) {
    let run = |disable_ff: bool| {
        let mut cfg = cfg.clone();
        cfg.disable_fast_forward = disable_ff;
        let mut sys = MultichipSystem::build(&cfg).expect("system builds");
        let mut w = make_workload();
        sys.run(w.as_mut()).expect("run completes");
        sys
    };
    let fast = run(false);
    let full = run(true);
    assert!(
        full.network().fast_forwarded_cycles() == 0,
        "{what}: the full-stepping baseline must not skip"
    );
    assert!(
        fast.network().fast_forwarded_cycles() > 0,
        "{what}: fast-forward never engaged — the scenario no longer exercises it"
    );
    assert_eq!(
        fast.network().stats().packets_delivered(),
        full.network().stats().packets_delivered(),
        "{what}: delivered packets diverged"
    );
    assert_eq!(
        fast.network().stats().window_flits_delivered(),
        full.network().stats().window_flits_delivered(),
        "{what}: window flits diverged"
    );
    assert_eq!(
        fast.network().meter().total().picojoules().to_bits(),
        full.network().meter().total().picojoules().to_bits(),
        "{what}: energy totals must match to the last bit"
    );
    let breakdown = |sys: &MultichipSystem| -> Vec<u64> {
        sys.network()
            .meter()
            .breakdown()
            .entries
            .iter()
            .map(|(_, e)| e.picojoules().to_bits())
            .collect()
    };
    assert_eq!(breakdown(&fast), breakdown(&full), "{what}: breakdown diverged");
    // The per-stack controller statistics are part of the contract too:
    // skipped cycles replay their occupancy integrals in closed form
    // (MemoryController::idle_advance), so queue-depth and
    // bank-parallelism figures must not depend on whether the driver
    // stepped or jumped.
    assert_eq!(
        fast.memory_stats(),
        full.memory_stats(),
        "{what}: memory-controller statistics diverged"
    );
}
