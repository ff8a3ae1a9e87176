//! Per-application profiles for the SynFull-substitute generators.
//!
//! Twelve PARSEC / SPLASH-2 applications, parameterised from their
//! published characterisations (working-set size, sharing behaviour,
//! memory intensity — e.g. the PARSEC tech report and the SynFull paper
//! itself).  The absolute numbers are synthetic; what Fig 6 needs is the
//! *spread*: memory-light compute-bound codes (blackscholes, swaptions)
//! through irregular memory-heavy ones (canneal, radix), with distinct
//! burstiness and sharing patterns.

use crate::app::{AppPhase, AppProfile};

/// Builder shorthand.
#[allow(clippy::too_many_arguments)]
fn phase(
    name: &'static str,
    injection_rate: f64,
    memory_fraction: f64,
    read_fraction: f64,
    coherence_fraction: f64,
    locality: f64,
    mean_dwell_cycles: f64,
) -> AppPhase {
    AppPhase {
        name,
        injection_rate,
        memory_fraction,
        read_fraction,
        coherence_fraction,
        locality,
        mean_dwell_cycles,
    }
}

/// Standard two-phase compute/communicate structure.
fn two_phase(
    name: &'static str,
    suite: &'static str,
    compute: AppPhase,
    comm: AppPhase,
    p_leave_compute: f64,
) -> AppProfile {
    AppProfile {
        name,
        suite,
        phases: vec![compute, comm],
        transitions: vec![
            vec![1.0 - p_leave_compute, p_leave_compute],
            vec![0.9, 0.1],
        ],
    }
}

/// blackscholes — embarrassingly parallel option pricing: tiny working
/// set, almost no sharing, light memory traffic.
pub fn blackscholes() -> AppProfile {
    two_phase(
        "blackscholes",
        "PARSEC",
        phase("compute", 0.000200, 0.30, 0.85, 0.30, 0.90, 400.0),
        phase("sync", 0.001000, 0.10, 0.50, 0.90, 0.30, 30.0),
        0.3,
    )
}

/// bodytrack — computer vision pipeline: moderate sharing, bursty
/// frame-boundary communication.
pub(crate) fn bodytrack() -> AppProfile {
    two_phase(
        "bodytrack",
        "PARSEC",
        phase("track", 0.000500, 0.35, 0.75, 0.40, 0.70, 250.0),
        phase("frame-sync", 0.003000, 0.20, 0.60, 0.80, 0.25, 50.0),
        0.4,
    )
}

/// canneal — cache-hostile simulated annealing over a huge netlist:
/// the memory-heaviest PARSEC code, little locality.
pub fn canneal() -> AppProfile {
    AppProfile {
        name: "canneal",
        suite: "PARSEC",
        phases: vec![
            phase("anneal", 0.001250, 0.70, 0.80, 0.20, 0.40, 300.0),
            phase("swap-burst", 0.002500, 0.75, 0.70, 0.25, 0.30, 80.0),
        ],
        transitions: vec![vec![0.85, 0.15], vec![0.60, 0.40]],
    }
}

/// dedup — pipelined compression: heavy producer/consumer transfers
/// between pipeline stages on different cores.
pub fn dedup() -> AppProfile {
    two_phase(
        "dedup",
        "PARSEC",
        phase("pipeline", 0.001000, 0.40, 0.55, 0.30, 0.50, 200.0),
        phase("hash-burst", 0.002250, 0.55, 0.65, 0.40, 0.35, 60.0),
        0.35,
    )
}

/// ferret — content-similarity search pipeline: moderate memory,
/// significant cross-stage data movement.
pub(crate) fn ferret() -> AppProfile {
    two_phase(
        "ferret",
        "PARSEC",
        phase("rank", 0.000750, 0.45, 0.70, 0.35, 0.55, 220.0),
        phase("query-burst", 0.002000, 0.50, 0.75, 0.50, 0.30, 70.0),
        0.3,
    )
}

/// fluidanimate — SPH fluid simulation: nearest-neighbour sharing,
/// regular barrier structure.
pub(crate) fn fluidanimate() -> AppProfile {
    two_phase(
        "fluidanimate",
        "PARSEC",
        phase("particles", 0.000600, 0.40, 0.70, 0.45, 0.80, 300.0),
        phase("barrier", 0.002500, 0.15, 0.50, 0.90, 0.40, 40.0),
        0.25,
    )
}

/// swaptions — Monte-Carlo pricing: compute-bound, minimal traffic.
pub(crate) fn swaptions() -> AppProfile {
    two_phase(
        "swaptions",
        "PARSEC",
        phase("simulate", 0.000150, 0.25, 0.85, 0.25, 0.90, 500.0),
        phase("reduce", 0.000750, 0.15, 0.40, 0.85, 0.30, 25.0),
        0.2,
    )
}

/// vips — image processing pipeline: streaming memory traffic.
pub(crate) fn vips() -> AppProfile {
    two_phase(
        "vips",
        "PARSEC",
        phase("filter", 0.000900, 0.55, 0.65, 0.30, 0.60, 250.0),
        phase("stripe-handoff", 0.002000, 0.45, 0.55, 0.60, 0.35, 60.0),
        0.35,
    )
}

/// barnes — SPLASH-2 N-body: irregular tree walks, moderate sharing.
pub(crate) fn barnes() -> AppProfile {
    two_phase(
        "barnes",
        "SPLASH-2",
        phase("tree-walk", 0.000750, 0.45, 0.80, 0.50, 0.55, 280.0),
        phase("tree-build", 0.002000, 0.55, 0.60, 0.55, 0.30, 90.0),
        0.3,
    )
}

/// fft — SPLASH-2 six-step FFT: compute phases separated by all-to-all
/// transpose bursts, the classic bisection stressor.
pub fn fft() -> AppProfile {
    AppProfile {
        name: "fft",
        suite: "SPLASH-2",
        phases: vec![
            phase("butterfly", 0.000400, 0.35, 0.75, 0.30, 0.85, 350.0),
            phase("transpose", 0.005000, 0.30, 0.50, 0.15, 0.05, 120.0),
        ],
        transitions: vec![vec![0.8, 0.2], vec![0.95, 0.05]],
    }
}

/// lu — SPLASH-2 blocked LU: regular block broadcasts along rows and
/// columns.
pub(crate) fn lu() -> AppProfile {
    two_phase(
        "lu",
        "SPLASH-2",
        phase("factor", 0.000500, 0.40, 0.75, 0.35, 0.70, 300.0),
        phase("block-bcast", 0.003000, 0.30, 0.55, 0.45, 0.20, 70.0),
        0.3,
    )
}

/// radix — SPLASH-2 radix sort: permutation phases that hammer memory
/// and the bisection simultaneously.
pub fn radix() -> AppProfile {
    AppProfile {
        name: "radix",
        suite: "SPLASH-2",
        phases: vec![
            phase("count", 0.001000, 0.60, 0.80, 0.20, 0.60, 200.0),
            phase("permute", 0.004000, 0.65, 0.45, 0.15, 0.10, 100.0),
        ],
        transitions: vec![vec![0.8, 0.2], vec![0.85, 0.15]],
    }
}

/// water — SPLASH-2 molecular dynamics: small working set, neighbour
/// exchanges, light memory load.
pub(crate) fn water() -> AppProfile {
    two_phase(
        "water",
        "SPLASH-2",
        phase("forces", 0.000300, 0.30, 0.80, 0.45, 0.85, 400.0),
        phase("exchange", 0.001500, 0.20, 0.55, 0.75, 0.40, 40.0),
        0.25,
    )
}

/// All shipped profiles, in the order used by the Fig 6 harness.
pub fn all() -> Vec<AppProfile> {
    vec![
        blackscholes(),
        bodytrack(),
        canneal(),
        dedup(),
        ferret(),
        fluidanimate(),
        swaptions(),
        vips(),
        barnes(),
        fft(),
        lu(),
        radix(),
        water(),
    ]
}

/// Looks a profile up by name (case-insensitive).
pub fn by_name(name: &str) -> Option<AppProfile> {
    all().into_iter().find(|p| p.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_profiles_cover_both_suites() {
        let profiles = all();
        assert_eq!(profiles.len(), 13);
        assert!(profiles.iter().any(|p| p.suite == "PARSEC"));
        assert!(profiles.iter().any(|p| p.suite == "SPLASH-2"));
        // Unique names.
        let mut names: Vec<_> = profiles.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 13);
    }

    #[test]
    fn memory_intensity_spans_a_wide_range() {
        let profiles = all();
        let mem: Vec<f64> = profiles.iter().map(|p| p.mean_memory_fraction()).collect();
        let min = mem.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = mem.iter().cloned().fold(0.0, f64::max);
        assert!(min < 0.30, "lightest app {min}");
        assert!(max > 0.60, "heaviest app {max}");
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(by_name("canneal").unwrap().name, "canneal");
        assert_eq!(by_name("FFT").unwrap().name, "fft");
        assert!(by_name("doom").is_none());
    }

    #[test]
    fn compute_bound_apps_offer_less_traffic_than_memory_bound() {
        let light = swaptions();
        let heavy = radix();
        let offered = |p: &AppProfile| -> f64 {
            let dwell: f64 = p.phases.iter().map(|ph| ph.mean_dwell_cycles).sum();
            p.phases
                .iter()
                .map(|ph| ph.injection_rate * ph.mean_dwell_cycles / dwell)
                .sum()
        };
        assert!(offered(&light) < offered(&heavy));
    }
}
