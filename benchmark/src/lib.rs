//! The wimnet benchmark: five named workloads, end-to-end host-time
//! metrics and an outside-driver trace that attributes host time to
//! every crate.  See `README.md` for the glossary and the rules.
//!
//! Everything called `*_s`, `*_us`, `*_ns*`, `*_share`, `*_ratio` or
//! `*_per_s` is **host** time.  Simulated statistics (packets, latency,
//! energy) are checked for bit-identity, never scored.

#![forbid(unsafe_code)]

pub mod api;
pub mod compare;
pub mod golden;
pub mod host;
pub mod json;
pub mod metrics;
pub mod outside;
pub mod persist;
pub mod points;
pub mod pool;
pub mod report;
pub mod sim;
pub mod stats;
pub mod trace;

use std::path::PathBuf;
use std::time::Instant;

use report::{Checks, WorkloadReport};

/// Untraced runs repeat at least this often, however long a rep takes.
const MIN_REPS: usize = 5;
/// …and at most this often, however short.
const MAX_REPS: usize = 25;
/// Traced runs repeat each pass this often.
const TRACED_REPS: usize = 3;

/// The options of one workload process.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    /// Base of every `SystemConfig::seed`.
    pub seed: u64,
    /// How long the untraced rep loop measures.
    pub seconds: f64,
    /// Run the traced passes and report per-layer metrics.
    pub traced: bool,
    /// One rep over quick-scale windows.
    pub quick: bool,
    /// The benchmark's directory (`golden.json`, `out/`).
    pub dir: PathBuf,
    /// `getconf CLK_TCK`: `/proc/self/stat` ticks per second.
    pub clk_tck: u64,
}

impl Opts {
    /// `true` while the rep loop that began at `started` and has
    /// completed `reps` repetitions should run another.
    pub fn another_rep(&self, reps: usize, started: Instant) -> bool {
        if self.quick {
            reps < 1
        } else if self.traced {
            reps < TRACED_REPS
        } else {
            reps < MIN_REPS || (reps < MAX_REPS && started.elapsed().as_secs_f64() < self.seconds)
        }
    }

    /// Runs a timed call: its result, its wall seconds and the CPU
    /// seconds the process spent meanwhile.
    pub fn timed_call<T>(&self, call: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = host::cpu_ticks();
        let (value, wall_s) = timed(call);
        let cpu_s = (host::cpu_ticks() - before) as f64 / self.clk_tck as f64;
        (value, wall_s, cpu_s)
    }

    /// An empty report for this process to fill.
    pub fn new_report(&self) -> WorkloadReport {
        WorkloadReport {
            workload: self.workload.clone(),
            seed: self.seed,
            quick: self.quick,
            traced: self.traced,
            reps: 0,
            threads: api::host_threads(),
            engine_version: api::ENGINE_VERSION.to_string(),
            checks: Checks::default(),
            golden: String::new(),
            metrics: Default::default(),
            timings: Default::default(),
            points: Vec::new(),
            fingerprints: Default::default(),
        }
    }
}

/// Runs `f`, returning its result and its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Runs the workload `opts` names.
///
/// # Errors
///
/// An unknown workload name.
pub fn run_workload(opts: &Opts) -> Result<WorkloadReport, String> {
    let mut report = match opts.workload.as_str() {
        "loaded_oneway" => sim::run(&points::loaded_oneway(opts.seed, opts.quick), opts),
        "memory_reads" => sim::run(&points::memory_reads(opts.seed, opts.quick), opts),
        "idle_ff" => sim::run(&points::idle_ff(opts.seed, opts.quick), opts),
        "sweep_batched" => pool::run(opts),
        "persist" => persist::run(opts),
        other => {
            return Err(format!(
                "unknown workload `{other}` (one of: {})",
                points::WORKLOADS.join(", ")
            ))
        }
    };
    golden::check(opts, &mut report);
    if opts.traced {
        report.zero_missing_layers();
    } else {
        let share = report.checks.failed as f64 / report.checks.attempted.max(1) as f64;
        report.set_end_to_end("failed_share", share, None);
        if let Some(missing) = metrics::END_TO_END
            .iter()
            .find(|m| !report.metrics.contains_key(m.name))
        {
            return Err(format!(
                "{} stopped before measuring `{}`: {}",
                opts.workload,
                missing.name,
                report.checks.failures.join("; ")
            ));
        }
    }
    Ok(report)
}
