//! One runnable simulation: an [`Experiment`] is a system configuration
//! plus a workload, and a [`Scale`] sets how much simulation it spends.
//!
//! Sweeps build their experiments through [`crate::sweeps::ScenarioGrid`]
//! or as explicit lists; the `wimnet-bench` figure table runs the
//! paper's figures that way and formats them.  [`Scale::Quick`] shrinks
//! windows for tests; [`Scale::Paper`] runs the full 1 000 + 9 000-cycle
//! windows.

use serde::{Deserialize, Serialize};

use wimnet_traffic::{
    AppProfile, AppWorkload, InjectionProcess, TrafficPattern, UniformRandom, Workload,
};

use crate::catalog::Fingerprint;
use crate::checkpoint::{run_with_checkpoints, CheckpointStore};
use crate::error::CoreError;
use crate::metrics::RunOutcome;
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
    /// Synthetic traffic from the one counter-based generator: the
    /// paper's uniform random (Figs 2–5) or, with a pattern, a classic
    /// permutation (extended evaluation beyond the paper).
    Synthetic {
        /// A Bernoulli load in packets per core per cycle (Fig 3
        /// points) or saturation (Figs 2, 4, 5).
        injection: InjectionProcess,
        /// Memory-access share of generated packets.
        memory_fraction: f64,
        /// Share of the memory packets that are read *requests*
        /// (closed-loop traffic through the stack controllers; 0 keeps
        /// the paper's fire-and-forget stores).
        read_share: f64,
        /// Core destinations from a permutation pattern (transpose,
        /// bit-complement, hotspot …) instead of uniform over all
        /// other cores.
        pattern: Option<TrafficPattern>,
    },
    /// A SynFull-substitute application model (Fig 6).
    App {
        /// The application profile.
        profile: AppProfile,
    },
}

impl WorkloadSpec {
    /// Checks every field a workload constructor would assert on, for a
    /// system of `cores` cores, describing the first problem found.
    fn check(&self, cores: usize) -> Result<(), String> {
        let WorkloadSpec::Synthetic { injection, memory_fraction, read_share, pattern } = self
        else {
            return Ok(());
        };
        if let Some(pattern) = pattern {
            pattern.check(cores)?;
        }
        let load = match *injection {
            InjectionProcess::Bernoulli { rate } => rate,
            InjectionProcess::Saturation => 1.0,
        };
        let shares =
            [("load", load), ("memory_fraction", *memory_fraction), ("read_share", *read_share)];
        match shares.into_iter().find(|(_, x)| !(0.0..=1.0).contains(x)) {
            Some((what, x)) => Err(format!("{what} {x} outside [0, 1]")),
            None => Ok(()),
        }
    }

    /// Uniform random traffic under `injection` (no pattern).
    pub(crate) fn uniform(
        injection: InjectionProcess,
        memory_fraction: f64,
        read_share: f64,
    ) -> Self {
        WorkloadSpec::Synthetic { injection, memory_fraction, read_share, pattern: None }
    }
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
        let spec = WorkloadSpec::uniform(InjectionProcess::Bernoulli { rate: load }, 0.20, 0.0);
        Experiment::new(config.clone(), spec)
    }

    /// Memory-bound closed-loop traffic: uniform random at `load` with
    /// `memory_fraction` memory packets, all of them read requests that
    /// exercise the stack controllers and pull data replies back.
    pub fn memory_reads(config: &SystemConfig, load: f64, memory_fraction: f64) -> Self {
        let injection = InjectionProcess::Bernoulli { rate: load };
        let spec = WorkloadSpec::uniform(injection, memory_fraction, 1.0);
        Experiment::new(config.clone(), spec)
    }

    /// Saturation (maximum load) with `memory_fraction` memory traffic.
    pub fn saturation(config: &SystemConfig, memory_fraction: f64) -> Self {
        let spec = WorkloadSpec::uniform(InjectionProcess::Saturation, memory_fraction, 0.0);
        Experiment::new(config.clone(), spec)
    }

    /// An application workload.
    pub fn app(config: &SystemConfig, profile: AppProfile) -> Self {
        Experiment::new(config.clone(), WorkloadSpec::App { profile })
    }

    /// A permutation-pattern workload with the paper's 20 % memory share.
    pub fn pattern(config: &SystemConfig, pattern: TrafficPattern, load: f64) -> Self {
        let spec = WorkloadSpec::Synthetic {
            injection: InjectionProcess::Bernoulli { rate: load },
            memory_fraction: 0.20,
            read_share: 0.0,
            pattern: Some(pattern),
        };
        Experiment::new(config.clone(), spec)
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Mutable access to the configuration — for drivers that
    /// post-process grid-built experiments (e.g. the `figures` and
    /// `sweep` binaries attaching [`TelemetryConfig::tracing`] to the
    /// point they trace).
    ///
    /// [`TelemetryConfig::tracing`]: crate::TelemetryConfig::tracing
    pub fn config_mut(&mut self) -> &mut SystemConfig {
        &mut self.config
    }

    /// An upper bound on the flits this experiment's window can inject:
    /// `(warmup + measure) × cores × min(offered flits per core per
    /// cycle, 1)`.  A Bernoulli load offers `load × packet_flits`,
    /// whatever the destinations; saturation and application profiles
    /// count as 1.
    ///
    /// The sweep pool dispatches points in descending order of it
    /// (`sweeps::dispatch_order`).  It ranks points, it does not predict
    /// them, and it reaches no fingerprint, outcome or snapshot.
    pub(crate) fn work_estimate(&self) -> f64 {
        let offered = match &self.spec {
            WorkloadSpec::Synthetic { injection: InjectionProcess::Bernoulli { rate }, .. } => {
                rate * f64::from(self.config.packet_flits)
            }
            _ => 1.0,
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
        let stacks = self.config.multichip.num_stacks;
        match &self.spec {
            WorkloadSpec::Synthetic { injection, memory_fraction, read_share, pattern } => {
                let mut w = UniformRandom::new(
                    self.config.multichip.total_cores(),
                    stacks,
                    *memory_fraction,
                    *injection,
                    self.config.packet_flits,
                    self.config.seed,
                );
                let bias = self.config.memory_affinity_bias;
                w = match pattern {
                    // A pattern keeps the uniform memory placement it
                    // has always had: NUMA affinity is uniform-only.
                    Some(pattern) => w.with_pattern(pattern.clone()),
                    None if bias > 0.0 => w.with_memory_affinity(bias, self.home_stacks()),
                    None => w,
                };
                if *read_share > 0.0 {
                    // Read requests carry the address, not the data: an
                    // eighth of a data packet (8 flits at the paper's
                    // 64-flit packets), with the full-size reply
                    // injected by the stack on completion.
                    let request_flits = (self.config.packet_flits / 8).max(1);
                    w = w.with_memory_reads(*read_share, request_flits);
                }
                Box::new(w)
            }
            WorkloadSpec::App { profile } => Box::new(AppWorkload::new(
                profile.clone(),
                self.config.multichip.num_chips,
                self.config.multichip.cores_per_chip,
                stacks,
                self.config.seed,
            )),
        }
    }

    /// The setup every `run*` path shares: a spec out of range (a load
    /// or share outside `[0, 1]`, a pattern undefined on the core count)
    /// is [`CoreError::InvalidParameter`] before anything is built; then
    /// the system and the workload.
    fn build(&self) -> Result<(MultichipSystem, Box<dyn Workload + Send>), CoreError> {
        self.spec
            .check(self.config.multichip.total_cores())
            .map_err(|what| CoreError::InvalidParameter { what })?;
        Ok((MultichipSystem::build(&self.config)?, self.build_workload()))
    }

    /// Builds the system, runs the workload, returns the outcome.
    ///
    /// # Errors
    ///
    /// Propagates spec and construction failures and stalls.
    pub fn run(&self) -> Result<RunOutcome, CoreError> {
        let (mut system, mut workload) = self.build()?;
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
    /// Propagates spec and construction failures and stalls.
    pub fn run_traced(&self) -> Result<(RunOutcome, Option<String>), CoreError> {
        let (mut system, mut workload) = self.build()?;
        let outcome = system.run(workload.as_mut())?;
        Ok((outcome, system.export_chrome_trace()))
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
    /// Propagates spec, build, run and checkpoint-store failures.
    pub fn run_checkpointed(
        &self,
        store: &CheckpointStore,
        fp: &Fingerprint,
        kill_at: Option<u64>,
    ) -> Result<Option<RunOutcome>, CoreError> {
        let (mut system, mut workload) = self.build()?;
        run_with_checkpoints(&mut system, workload.as_mut(), store, fp, kill_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wimnet_topology::Architecture;

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

    /// A spec the workload constructors would assert on is a typed
    /// error from every `run*` path, before anything is simulated.
    #[test]
    fn out_of_range_specs_are_typed_errors() {
        let cfg = SystemConfig::xcym(4, 4, Architecture::Wireless).quick_test_profile();
        let three_chips = SystemConfig::xcym(3, 4, Architecture::Wireless).quick_test_profile();
        let pattern = |cfg, p| Experiment::pattern(cfg, p, 0.002);
        for (exp, complaint) in [
            (Experiment::uniform_random(&cfg, f64::NAN), "load NaN outside [0, 1]"),
            (Experiment::uniform_random(&cfg, 1.5), "load 1.5 outside [0, 1]"),
            (Experiment::memory_reads(&cfg, 0.01, -0.1), "memory_fraction -0.1 outside"),
            (Experiment::saturation(&cfg, 2.0), "memory_fraction 2 outside"),
            (
                pattern(&three_chips, wimnet_traffic::TrafficPattern::BitComplement),
                "bit-complement is not defined on",
            ),
        ] {
            let Err(CoreError::InvalidParameter { what }) = exp.run() else {
                panic!("{exp:?} must be rejected");
            };
            assert!(what.contains(complaint), "{what}");
            assert!(matches!(exp.run_traced(), Err(CoreError::InvalidParameter { .. })));
        }
        // The same pattern on a power-of-two core count runs.
        assert!(pattern(&cfg, wimnet_traffic::TrafficPattern::BitComplement).run().is_ok());
    }
}
