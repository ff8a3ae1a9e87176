//! The paper's evaluation: one function per figure.
//!
//! Each `figN` function reproduces the corresponding figure of §IV with
//! the same workloads, sweeps and comparisons — one [`ScenarioGrid`] (or,
//! for Fig 6's application profiles, one explicit list) through the pool
//! in a single run — returning structured rows ready for the
//! `wimnet-bench` figure table to print.  [`Scale::Quick`]
//! shrinks windows and sweep density for tests; [`Scale::Paper`] runs
//! the full 1 000 + 9 000-cycle windows.

use serde::{Deserialize, Serialize};

use wimnet_topology::Architecture;
use wimnet_traffic::profiles;
use wimnet_traffic::{AppProfile, AppWorkload, InjectionProcess, UniformRandom, Workload};

use crate::catalog::Fingerprint;
use crate::checkpoint::{run_with_checkpoints, CheckpointStore};
use crate::error::CoreError;
use crate::metrics::{percentage_gain, percentage_reduction, RunOutcome};
use crate::sweeps::ScenarioGrid;
use crate::system::{MultichipSystem, SystemConfig};

/// How much simulation to spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// The paper's windows (1 000 warmup + 9 000 measured cycles) and
    /// full sweeps.
    Paper,
    /// Reduced windows and sweeps for tests and CI.
    Quick,
}

impl Scale {
    /// Applies the scale to a config.
    pub fn apply(self, config: SystemConfig) -> SystemConfig {
        match self {
            Scale::Paper => config,
            Scale::Quick => config.quick_test_profile(),
        }
    }
}

/// What traffic an [`Experiment`] drives.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub(crate) enum WorkloadSpec {
    /// Uniform random with a Bernoulli injection rate (Fig 3 points).
    UniformRandom {
        /// Packets per core per cycle.
        load: f64,
        /// Memory-access share of generated packets.
        memory_fraction: f64,
        /// Share of the memory packets that are read *requests*
        /// (closed-loop traffic through the stack controllers; 0 keeps
        /// the paper's fire-and-forget stores).
        read_share: f64,
    },
    /// Uniform random at maximum load (Figs 2, 4, 5).
    Saturation {
        /// Memory-access share of generated packets.
        memory_fraction: f64,
        /// Share of the memory packets that are read requests.
        read_share: f64,
    },
    /// A SynFull-substitute application model (Fig 6).
    App {
        /// The application profile.
        profile: AppProfile,
    },
    /// A classic permutation pattern (extended evaluation beyond the
    /// paper: transpose, bit-complement, hotspot …).
    Pattern {
        /// The destination pattern.
        pattern: wimnet_traffic::TrafficPattern,
        /// Packets per core per cycle.
        load: f64,
        /// Memory-access share of generated packets.
        memory_fraction: f64,
    },
}

/// One runnable simulation: a system configuration plus a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Experiment {
    config: SystemConfig,
    spec: WorkloadSpec,
}

impl Experiment {
    /// Creates an experiment.
    pub(crate) fn new(config: SystemConfig, spec: WorkloadSpec) -> Self {
        Experiment { config, spec }
    }

    /// Uniform random traffic at `load` packets/core/cycle with the
    /// paper's 20 % memory-access share.
    pub fn uniform_random(config: &SystemConfig, load: f64) -> Self {
        Experiment::new(
            config.clone(),
            WorkloadSpec::UniformRandom { load, memory_fraction: 0.20, read_share: 0.0 },
        )
    }

    /// Memory-bound closed-loop traffic: uniform random at `load` with
    /// `memory_fraction` memory packets, all of them read requests that
    /// exercise the stack controllers and pull data replies back.
    pub fn memory_reads(config: &SystemConfig, load: f64, memory_fraction: f64) -> Self {
        Experiment::new(
            config.clone(),
            WorkloadSpec::UniformRandom { load, memory_fraction, read_share: 1.0 },
        )
    }

    /// Saturation (maximum load) with `memory_fraction` memory traffic.
    pub fn saturation(config: &SystemConfig, memory_fraction: f64) -> Self {
        Experiment::new(
            config.clone(),
            WorkloadSpec::Saturation { memory_fraction, read_share: 0.0 },
        )
    }

    /// An application workload.
    pub fn app(config: &SystemConfig, profile: AppProfile) -> Self {
        Experiment::new(config.clone(), WorkloadSpec::App { profile })
    }

    /// A permutation-pattern workload with the paper's 20 % memory share.
    pub fn pattern(
        config: &SystemConfig,
        pattern: wimnet_traffic::TrafficPattern,
        load: f64,
    ) -> Self {
        Experiment::new(
            config.clone(),
            WorkloadSpec::Pattern { pattern, load, memory_fraction: 0.20 },
        )
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Mutable access to the configuration — for sweep drivers that
    /// post-process grid-built experiments (e.g. `bench_engine`
    /// toggling [`SystemConfig::disable_fast_forward`] for its
    /// full-stepping baseline block).
    pub fn config_mut(&mut self) -> &mut SystemConfig {
        &mut self.config
    }

    /// An upper bound on the flits this experiment's window can inject:
    /// `(warmup + measure) × cores × min(offered flits per core per
    /// cycle, 1)`.  Bernoulli and pattern loads offer `load ×
    /// packet_flits`; saturation and application profiles count as 1.
    ///
    /// The sweep pool dispatches points in descending order of it
    /// (`sweeps::dispatch_order`).  It ranks points, it does not predict
    /// them, and it reaches no fingerprint, outcome or snapshot.
    pub(crate) fn work_estimate(&self) -> f64 {
        let offered = match &self.spec {
            WorkloadSpec::UniformRandom { load, .. } | WorkloadSpec::Pattern { load, .. } => {
                load * f64::from(self.config.packet_flits)
            }
            WorkloadSpec::Saturation { .. } | WorkloadSpec::App { .. } => 1.0,
        };
        let window = self.config.warmup_cycles as f64 + self.config.measure_cycles as f64;
        window * self.config.multichip.total_cores() as f64 * offered.min(1.0)
    }

    /// Core→home-stack mapping for NUMA-affine memory traffic.
    fn home_stacks(&self) -> Vec<usize> {
        wimnet_topology::MultichipLayout::build(&self.config.multichip)
            .map(|l| l.home_stacks())
            .unwrap_or_default()
    }

    fn build_workload(&self) -> Box<dyn Workload + Send> {
        let cores = self.config.multichip.total_cores();
        let stacks = self.config.multichip.num_stacks;
        let affine = |w: UniformRandom| -> UniformRandom {
            if self.config.memory_affinity_bias > 0.0 {
                w.with_memory_affinity(self.config.memory_affinity_bias, self.home_stacks())
            } else {
                w
            }
        };
        // Read requests carry the address, not the data: an eighth of
        // a data packet (8 flits at the paper's 64-flit packets), with
        // the full-size reply injected by the stack on completion.
        let request_flits = (self.config.packet_flits / 8).max(1);
        let reads = |w: UniformRandom, share: f64| -> UniformRandom {
            if share > 0.0 {
                w.with_memory_reads(share, request_flits)
            } else {
                w
            }
        };
        match &self.spec {
            WorkloadSpec::UniformRandom { load, memory_fraction, read_share } => {
                Box::new(reads(
                    affine(UniformRandom::new(
                        cores,
                        stacks,
                        *memory_fraction,
                        InjectionProcess::Bernoulli { rate: *load },
                        self.config.packet_flits,
                        self.config.seed,
                    )),
                    *read_share,
                ))
            }
            WorkloadSpec::Saturation { memory_fraction, read_share } => Box::new(reads(
                affine(UniformRandom::new(
                    cores,
                    stacks,
                    *memory_fraction,
                    InjectionProcess::Saturation,
                    self.config.packet_flits,
                    self.config.seed,
                )),
                *read_share,
            )),
            WorkloadSpec::App { profile } => Box::new(AppWorkload::new(
                profile.clone(),
                self.config.multichip.num_chips,
                self.config.multichip.cores_per_chip,
                stacks,
                self.config.seed,
            )),
            WorkloadSpec::Pattern { pattern, load, memory_fraction } => {
                Box::new(wimnet_traffic::patterns::PatternWorkload::new(
                    pattern.clone(),
                    cores,
                    stacks,
                    *memory_fraction,
                    InjectionProcess::Bernoulli { rate: *load },
                    self.config.packet_flits,
                    self.config.seed,
                ))
            }
        }
    }

    /// Builds the system, runs the workload, returns the outcome.
    ///
    /// # Errors
    ///
    /// Propagates construction failures and stalls.
    pub fn run(&self) -> Result<RunOutcome, CoreError> {
        let mut system = MultichipSystem::build(&self.config)?;
        let mut workload = self.build_workload();
        system.run(workload.as_mut())
    }

    /// Like [`Experiment::run`], but also exports the Chrome-trace JSON
    /// when `config.telemetry.trace` is set (`None` otherwise) — the
    /// plumbing behind the `figures` binary's `--trace FILE` flag and
    /// the `sweep trace` verb.  The outcome is bit-identical to an
    /// untraced run (`tests/determinism.rs`); only the side channel
    /// differs.
    ///
    /// # Errors
    ///
    /// Propagates construction failures and stalls.
    pub fn run_traced(&self) -> Result<(RunOutcome, Option<String>), CoreError> {
        let mut system = MultichipSystem::build(&self.config)?;
        let mut workload = self.build_workload();
        let outcome = system.run(workload.as_mut())?;
        let trace = system.export_chrome_trace();
        Ok((outcome, trace))
    }

    /// Runs with checkpointing against `store` under the scenario key
    /// `fp`: resumes from the latest serveable snapshot, persists one at
    /// every `config.checkpoint_every` mark, and — `kill_at` aside —
    /// produces the bit-identical [`RunOutcome`] of [`Experiment::run`].
    /// See `crate::checkpoint::run_with_checkpoints` for the `kill_at`
    /// crash-simulation contract (`Ok(None)` when killed).
    ///
    /// # Errors
    ///
    /// Propagates build, run and checkpoint-store failures.
    pub fn run_checkpointed(
        &self,
        store: &CheckpointStore,
        fp: &Fingerprint,
        kill_at: Option<u64>,
    ) -> Result<Option<RunOutcome>, CoreError> {
        let mut system = MultichipSystem::build(&self.config)?;
        let mut workload = self.build_workload();
        run_with_checkpoints(&mut system, workload.as_mut(), store, fp, kill_at)
    }
}

/// Runs experiments in parallel on the work-stealing pool (each
/// simulation is independent and single-threaded; the pool sizes itself
/// to the machine, so lists far longer than the core count are fine).
///
/// Outcomes keep input order and are bit-identical for every pool
/// shape — see [`crate::sweeps::run_pool`] for the stronger contract
/// and explicit thread/chunk control.
///
/// # Errors
///
/// Returns the lowest-indexed failing experiment's error.
pub fn run_all(experiments: &[Experiment]) -> Result<Vec<RunOutcome>, CoreError> {
    crate::sweeps::run_pool(experiments, crate::sweeps::default_threads(), 1)
}

// ---------------------------------------------------------------------
// Fig 2: peak bandwidth per core and average packet energy, 4C4M,
// uniform random, 20% memory accesses, all three architectures.
// ---------------------------------------------------------------------

/// One bar pair of Fig 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig2Row {
    /// Architecture.
    pub architecture: Architecture,
    /// The paper's bar label, e.g. `"4C4M (Wireless)"`.
    pub label: String,
    /// Peak achievable bandwidth per core, Gbps.
    pub peak_bandwidth_gbps_per_core: f64,
    /// Average packet energy, nJ.
    pub avg_packet_energy_nj: f64,
}

/// Reproduces Fig 2.
///
/// # Errors
///
/// Propagates experiment failures.
pub fn fig2(scale: Scale) -> Result<Vec<Fig2Row>, CoreError> {
    let outcomes =
        ScenarioGrid::new("fig2").scale(scale).architectures(&Architecture::ALL).run()?;
    Ok(Architecture::ALL
        .iter()
        .zip(outcomes)
        .map(|(&architecture, o)| Fig2Row {
            architecture,
            label: o.label.clone(),
            peak_bandwidth_gbps_per_core: o.bandwidth_gbps_per_core,
            avg_packet_energy_nj: o.packet_energy_nj(),
        })
        .collect())
}

// ---------------------------------------------------------------------
// Fig 3: average packet latency vs injection load, same setup.
// ---------------------------------------------------------------------

/// One latency curve of Fig 3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig3Series {
    /// Architecture.
    pub architecture: Architecture,
    /// The curve label.
    pub label: String,
    /// `(injection load in packets/core/cycle, mean latency in cycles)`;
    /// latency is `None` past saturation when nothing measured finished.
    pub points: Vec<(f64, Option<f64>)>,
}

/// The paper's log-spaced injection loads (packets/core/cycle).
pub fn fig3_loads(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Paper => vec![0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064, 0.125],
        Scale::Quick => vec![0.001, 0.008, 0.064],
    }
}

/// Reproduces Fig 3.
///
/// # Errors
///
/// Propagates experiment failures.
pub fn fig3(scale: Scale) -> Result<Vec<Fig3Series>, CoreError> {
    let loads = fig3_loads(scale);
    let outcomes = ScenarioGrid::new("fig3")
        .scale(scale)
        .architectures(&Architecture::ALL)
        .loads(&loads)
        .run()?;
    // Architecture is the slow axis: one `loads.len()` chunk per curve.
    Ok(Architecture::ALL
        .iter()
        .zip(outcomes.chunks(loads.len()))
        .map(|(&architecture, curve)| Fig3Series {
            architecture,
            label: curve[0].label.clone(),
            points: loads
                .iter()
                .zip(curve)
                .map(|(&l, o)| (l, o.avg_latency_cycles))
                .collect(),
        })
        .collect())
}

// ---------------------------------------------------------------------
// Fig 4: % gains (wireless vs interposer) vs chip-to-chip traffic:
// 1C4M (20% off-chip), 4C4M (80%), 8C4M (90%).
// ---------------------------------------------------------------------

/// One configuration column of Fig 4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4Row {
    /// Chips in the disintegrated system.
    pub chips: usize,
    /// The paper's x label, e.g. `"80% (4C4M)"`.
    pub label: String,
    /// Share of traffic leaving the source chip, in percent.
    pub off_chip_traffic_pct: f64,
    /// Bandwidth gain of wireless over interposer, percent.
    pub bandwidth_gain_pct: f64,
    /// Packet energy reduction of wireless under interposer, percent.
    pub energy_gain_pct: f64,
}

/// Expected off-chip share for an `XC4M` system at 20 % memory traffic.
fn off_chip_share(chips: usize) -> f64 {
    let cores = 64.0;
    let per_chip = cores / chips as f64;
    let other = cores - per_chip;
    0.20 + 0.80 * (other / (cores - 1.0))
}

/// The two fabrics Figs 4–6 compare, wireless first.
const WIRELESS_VS_INTERPOSER: [Architecture; 2] =
    [Architecture::Wireless, Architecture::Interposer];

/// Runs `grid` — one swept axis — on both fabrics in one pooled run and
/// returns, per axis value, the `(bandwidth gain, packet-energy
/// reduction)` of wireless over interposer in percent: the two bars of
/// Figs 4 and 5.
fn gains_over(grid: ScenarioGrid) -> Result<Vec<(f64, f64)>, CoreError> {
    let outcomes = grid.architectures(&WIRELESS_VS_INTERPOSER).run()?;
    // Architecture is the grid's slowest axis: every wireless point,
    // then every interposer one.
    let (wireless, interposer) = outcomes.split_at(outcomes.len() / 2);
    Ok(wireless
        .iter()
        .zip(interposer)
        .map(|(w, i)| {
            (
                percentage_gain(i.bandwidth_gbps_per_core, w.bandwidth_gbps_per_core),
                percentage_reduction(i.packet_energy_nj(), w.packet_energy_nj()),
            )
        })
        .collect())
}

/// Reproduces Fig 4.
///
/// # Errors
///
/// Propagates experiment failures.
pub fn fig4(scale: Scale) -> Result<Vec<Fig4Row>, CoreError> {
    let chips = [1usize, 4, 8];
    let gains = gains_over(ScenarioGrid::new("fig4").scale(scale).chips(&chips))?;
    Ok(chips
        .iter()
        .zip(gains)
        .map(|(&chips, (bandwidth_gain_pct, energy_gain_pct))| {
            let off = off_chip_share(chips) * 100.0;
            Fig4Row {
                chips,
                label: format!("{:.0}% ({}C4M)", off.round(), chips),
                off_chip_traffic_pct: off,
                bandwidth_gain_pct,
                energy_gain_pct,
            }
        })
        .collect())
}

// ---------------------------------------------------------------------
// Fig 5: % gains (wireless vs interposer) vs memory-access share,
// 4C4M, 20%..80%.
// ---------------------------------------------------------------------

/// One memory-share column of Fig 5.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5Row {
    /// Memory-access share, percent.
    pub memory_access_pct: f64,
    /// Bandwidth gain of wireless over interposer, percent.
    pub bandwidth_gain_pct: f64,
    /// Packet energy reduction of wireless under interposer, percent.
    pub energy_gain_pct: f64,
}

/// Reproduces Fig 5.
///
/// # Errors
///
/// Propagates experiment failures.
pub fn fig5(scale: Scale) -> Result<Vec<Fig5Row>, CoreError> {
    let fractions = match scale {
        Scale::Paper => vec![0.20, 0.40, 0.60, 0.80],
        Scale::Quick => vec![0.20, 0.80],
    };
    let gains =
        gains_over(ScenarioGrid::new("fig5").scale(scale).memory_fractions(&fractions))?;
    Ok(fractions
        .iter()
        .zip(gains)
        .map(|(&mem, (bandwidth_gain_pct, energy_gain_pct))| Fig5Row {
            memory_access_pct: mem * 100.0,
            bandwidth_gain_pct,
            energy_gain_pct,
        })
        .collect())
}

// ---------------------------------------------------------------------
// Fig 6: % gains (wireless vs interposer) per application.
// ---------------------------------------------------------------------

/// One application pair of Fig 6.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Row {
    /// Application name.
    pub app: String,
    /// Benchmark suite.
    pub suite: String,
    /// Latency reduction of wireless under interposer, percent.
    pub latency_gain_pct: f64,
    /// Packet energy reduction of wireless under interposer, percent.
    pub energy_gain_pct: f64,
}

/// The applications evaluated at each scale.
pub(crate) fn fig6_apps(scale: Scale) -> Vec<AppProfile> {
    match scale {
        Scale::Paper => profiles::all(),
        Scale::Quick => vec![
            profiles::blackscholes(),
            profiles::canneal(),
            profiles::fft(),
            profiles::radix(),
        ],
    }
}

/// Reproduces Fig 6.
///
/// # Errors
///
/// Propagates experiment failures.
pub fn fig6(scale: Scale) -> Result<Vec<Fig6Row>, CoreError> {
    // Application profiles are not a grid axis: the list is explicit,
    // one (wireless, interposer) pair per application.
    let apps = fig6_apps(scale);
    let experiments: Vec<Experiment> = apps
        .iter()
        .flat_map(|profile| {
            WIRELESS_VS_INTERPOSER.map(|arch| {
                Experiment::app(&scale.apply(SystemConfig::xcym(4, 4, arch)), profile.clone())
            })
        })
        .collect();
    let outcomes = run_all(&experiments)?;
    Ok(apps
        .iter()
        .zip(outcomes.chunks(2))
        .map(|(profile, pair)| {
            let (w, i) = (&pair[0], &pair[1]);
            Fig6Row {
                app: profile.name.to_string(),
                suite: profile.suite.to_string(),
                latency_gain_pct: percentage_reduction(i.latency_cycles(), w.latency_cycles()),
                energy_gain_pct: percentage_reduction(
                    i.packet_energy_nj(),
                    w.packet_energy_nj(),
                ),
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_quick_reproduces_the_paper_ordering() {
        let rows = fig2(Scale::Quick).unwrap();
        assert_eq!(rows.len(), 3);
        let by = |a: Architecture| {
            rows.iter().find(|r| r.architecture == a).unwrap().clone()
        };
        let substrate = by(Architecture::Substrate);
        let interposer = by(Architecture::Interposer);
        let wireless = by(Architecture::Wireless);
        // §IV.B: wireless has the highest bandwidth and lowest energy;
        // interposer beats substrate.
        assert!(
            wireless.peak_bandwidth_gbps_per_core
                > interposer.peak_bandwidth_gbps_per_core,
            "wireless {} vs interposer {}",
            wireless.peak_bandwidth_gbps_per_core,
            interposer.peak_bandwidth_gbps_per_core
        );
        assert!(
            interposer.peak_bandwidth_gbps_per_core
                > substrate.peak_bandwidth_gbps_per_core
        );
        assert!(wireless.avg_packet_energy_nj < interposer.avg_packet_energy_nj);
        assert!(interposer.avg_packet_energy_nj < substrate.avg_packet_energy_nj);
    }

    #[test]
    fn fig3_quick_latency_rises_with_load() {
        let series = fig3(Scale::Quick).unwrap();
        assert_eq!(series.len(), 3);
        for s in &series {
            let first = s.points.first().unwrap().1.expect("low load finishes");
            assert!(first > 0.0);
            // Latency is non-decreasing in load where measured.
            let measured: Vec<f64> = s.points.iter().filter_map(|p| p.1).collect();
            for w in measured.windows(2) {
                assert!(
                    w[1] >= w[0] * 0.8,
                    "{}: latency should not collapse with load: {measured:?}",
                    s.label
                );
            }
        }
        // Wireless has the lowest zero-load latency (§IV.B).  The
        // substrate is excluded from this quick-scale comparison: its
        // slow cross-chip serial packets are censored by the short
        // measurement window (survivor bias), which can deflate its
        // mean below the fully-measured fabrics on some traffic
        // realizations.  The full ordering holds at Scale::Paper.
        let low = |a: Architecture| {
            series
                .iter()
                .find(|s| s.architecture == a)
                .unwrap()
                .points[0]
                .1
                .unwrap()
        };
        assert!(low(Architecture::Wireless) < low(Architecture::Interposer));
    }

    #[test]
    fn fig4_quick_wireless_wins_at_every_disintegration_level() {
        let rows = fig4(Scale::Quick).unwrap();
        assert_eq!(rows.len(), 3);
        // Off-chip shares match §IV.C: 20%, 80%, 90%.
        assert!((rows[0].off_chip_traffic_pct - 20.0).abs() < 1.0);
        assert!((rows[1].off_chip_traffic_pct - 81.0).abs() < 1.5);
        assert!((rows[2].off_chip_traffic_pct - 91.0).abs() < 1.5);
        // The paper's robust claim: wireless wins bandwidth and energy
        // at every disintegration level.  (The paper additionally shows
        // *decreasing* gains with chip count; our mechanism-faithful
        // rebuild inverts parts of that trend — see docs/experiments.md for
        // the analysis of why the paper's trend is inconsistent with
        // its own per-bit energy constants.)
        for r in &rows {
            assert!(
                r.bandwidth_gain_pct > 0.0,
                "wireless must win bandwidth at {}: {r:?}",
                r.label
            );
            assert!(
                r.energy_gain_pct > 0.0,
                "wireless must save energy at {}: {r:?}",
                r.label
            );
        }
    }

    #[test]
    fn fig5_quick_wireless_wins_where_the_paper_is_robust() {
        let rows = fig5(Scale::Quick).unwrap();
        assert_eq!(rows.len(), 2);
        // Robust claims: wireless clearly wins bandwidth at low memory
        // share, the bandwidth gain falls as memory dominates (both
        // fabrics converge on the memory-side bottleneck — the paper's
        // asymptote), and energy gains stay positive throughout.
        assert!(rows[0].bandwidth_gain_pct > 0.0, "{rows:?}");
        assert!(
            rows[1].bandwidth_gain_pct < rows[0].bandwidth_gain_pct,
            "bandwidth gain must fall with memory share: {rows:?}"
        );
        assert!(
            rows[1].bandwidth_gain_pct > -30.0,
            "high-memory bandwidth stays in the asymptotic band: {rows:?}"
        );
        for r in &rows {
            assert!(r.energy_gain_pct > 0.0, "{r:?}");
            assert!(r.energy_gain_pct < 80.0, "{r:?}");
        }
        // The energy trend direction diverges from the paper (rising,
        // not falling, with memory share) — documented in
        // docs/experiments.md: the paper's own constants make wireless
        // memory paths ~3x cheaper per bit than the 6.5 pJ/bit wide
        // I/O, so memory-heavy traffic must favour wireless more.
        assert!(
            rows[1].energy_gain_pct > rows[0].energy_gain_pct * 0.5,
            "gains stay substantial across the sweep: {rows:?}"
        );
    }

    #[test]
    fn fig6_quick_wireless_wins_latency_and_energy() {
        let rows = fig6(Scale::Quick).unwrap();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(
                r.latency_gain_pct > 0.0,
                "{}: wireless must cut latency, got {r:?}",
                r.app
            );
            assert!(
                r.energy_gain_pct > 0.0,
                "{}: wireless must cut energy, got {r:?}",
                r.app
            );
        }
    }

    #[test]
    fn pattern_experiments_run_end_to_end() {
        let cfg =
            SystemConfig::xcym(4, 4, Architecture::Wireless).quick_test_profile();
        let outcome = Experiment::pattern(
            &cfg,
            wimnet_traffic::TrafficPattern::Transpose,
            0.002,
        )
        .run()
        .unwrap();
        assert!(outcome.packets_delivered() > 0);
        assert!(outcome.workload.contains("transpose"));
    }

    #[test]
    fn run_all_preserves_order() {
        let cfg =
            SystemConfig::xcym(4, 4, Architecture::Substrate).quick_test_profile();
        let exps =
            vec![Experiment::uniform_random(&cfg, 0.001), Experiment::uniform_random(&cfg, 0.004)];
        let outcomes = run_all(&exps).unwrap();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].label, outcomes[1].label);
    }
}
