//! One runnable simulation: an [`Experiment`] is a system configuration
//! plus a workload, and a [`Scale`] sets how much simulation it spends.
//!
//! Sweeps build their experiments through [`crate::sweeps::ScenarioGrid`]
//! or as explicit lists; the `wimnet-bench` figure table runs the
//! paper's figures that way and formats them.  [`Scale::Quick`] shrinks
//! windows for tests; [`Scale::Paper`] runs the full 1 000 + 9 000-cycle
//! windows.

use serde::{Deserialize, Serialize};

use wimnet_traffic::{AppProfile, AppWorkload, InjectionProcess, UniformRandom, Workload};

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
}
