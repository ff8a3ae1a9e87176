//! Output checks: simulated-result fingerprints and `golden.json`.
//!
//! A change that only makes the simulator faster must leave every
//! simulated statistic identical.  Each point's fingerprint is compared
//! across reps and passes at run time (whole-`RunOutcome` equality) and,
//! for the default seed under the recorded `ENGINE_VERSION`, against
//! `golden.json`.

use std::fs;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::api::{RunOutcome, ENGINE_VERSION};
use crate::json::Named;
use crate::points::DEFAULT_SEED;
use crate::report::WorkloadReport;
use crate::Opts;

/// The stored fingerprints: scale (`full`/`quick`) → workload → point.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Golden {
    pub engine_version: String,
    pub seed: u64,
    pub fingerprints: Named<Named<Named<String>>>,
}

/// The exact-comparison key of one outcome: packets since start,
/// packets and delivered bandwidth in the window (a function of the
/// window's flits), mean latency, total energy — floats by bit pattern
/// — and fast-forwarded cycles.
pub fn fingerprint(o: &RunOutcome) -> String {
    format!(
        "{}:{}:{:016x}:{:016x}:{:016x}:{}",
        o.total_packets,
        o.window_packets,
        o.bandwidth_gbps_per_core.to_bits(),
        o.avg_latency_cycles.unwrap_or(f64::NAN).to_bits(),
        o.total_energy_nj().to_bits(),
        o.fast_forwarded_cycles,
    )
}

/// One fingerprint for a whole vector of outcomes (counts summed, bit
/// patterns XOR-ed), for workloads whose points are too many to list.
pub fn folded_fingerprint(outcomes: &[RunOutcome]) -> String {
    let (mut packets, mut window, mut ff) = (0u64, 0u64, 0u64);
    let (mut bandwidth, mut latency, mut energy) = (0u64, 0u64, 0u64);
    for o in outcomes {
        packets += o.total_packets;
        window += o.window_packets;
        ff += o.fast_forwarded_cycles;
        bandwidth ^= o.bandwidth_gbps_per_core.to_bits();
        latency ^= o.avg_latency_cycles.unwrap_or(f64::NAN).to_bits();
        energy ^= o.total_energy_nj().to_bits();
    }
    format!("{packets}:{window}:{bandwidth:016x}:{latency:016x}:{energy:016x}:{ff}")
}

fn scale_key(quick: bool) -> &'static str {
    if quick {
        "quick"
    } else {
        "full"
    }
}

fn load(path: &Path) -> Result<Golden, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("no golden.json: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("unreadable golden.json: {e}"))
}

/// Compares the report's fingerprints with `golden.json`.  A mismatch
/// under the same engine version and the default seed is a failed
/// operation; anything else skips only this comparison and says why.
pub fn check(opts: &Opts, report: &mut WorkloadReport) {
    let stored = match load(&opts.dir.join("golden.json")) {
        Ok(g) => g,
        Err(why) => {
            report.golden = format!("skipped ({why})");
            return;
        }
    };
    let reason = if stored.engine_version != ENGINE_VERSION {
        Some(format!(
            "engine {ENGINE_VERSION}, golden recorded for {}",
            stored.engine_version
        ))
    } else if opts.seed != stored.seed {
        Some(format!(
            "seed {:#x} is not the golden seed {:#x}",
            opts.seed, stored.seed
        ))
    } else {
        None
    };
    let expected = stored
        .fingerprints
        .get(scale_key(opts.quick))
        .and_then(|s| s.get(&opts.workload));
    let (Some(expected), None) = (expected, &reason) else {
        let why = reason.unwrap_or_else(|| "no entry for this workload and scale".to_string());
        report.golden = format!("skipped ({why})");
        return;
    };
    for (id, got) in report.fingerprints.iter() {
        let verdict = match expected.get(id) {
            Some(want) if want == got => Ok(()),
            Some(want) => Err(format!(
                "{id}: fingerprint {got} differs from golden {want}"
            )),
            None => Err(format!("{id}: no golden fingerprint")),
        };
        report.checks.op(verdict);
    }
    report.golden = "checked".to_string();
}

/// Records `reports`' fingerprints as the new golden values for their
/// scale, keeping the other scale's when it was recorded for the same
/// engine version.
///
/// # Errors
///
/// A seed other than the default, or an unwritable file.
pub fn write(
    dir: &Path,
    quick: bool,
    seed: u64,
    reports: &[&WorkloadReport],
) -> Result<(), String> {
    if seed != DEFAULT_SEED {
        return Err(format!(
            "golden.json is recorded for the default seed {DEFAULT_SEED:#x}"
        ));
    }
    let path = dir.join("golden.json");
    let mut golden = load(&path)
        .ok()
        .filter(|g| g.engine_version == ENGINE_VERSION && g.seed == seed)
        .unwrap_or_default();
    golden.engine_version = ENGINE_VERSION.to_string();
    golden.seed = seed;
    let scale = golden
        .fingerprints
        .entry(scale_key(quick).to_string())
        .or_default();
    for r in reports {
        scale.insert(r.workload.clone(), r.fingerprints.clone());
    }
    let json = serde_json::to_string_pretty(&golden).map_err(|e| e.to_string())?;
    fs::write(&path, json + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}
