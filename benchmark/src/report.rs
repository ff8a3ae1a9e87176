//! What one workload process reports: the schema of the per-run report
//! files and of `out/results.json`, the printed table, and the result
//! line the outside driver reads.

use serde::{Deserialize, Serialize};

use crate::host::peak_rss_mb;
use crate::json::Named;
use crate::metrics::{per_layer_unit, END_TO_END, FAILED_SHARE, PER_LAYER};
use crate::stats::Spread;

/// A reported value.  Timings carry the statistics of their samples;
/// the value is [`Spread::best`] of them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
    #[serde(default)]
    pub spread: Option<Spread>,
}

/// One traced point: where its wall time went.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointShares {
    pub id: String,
    /// Wall time of the traced run, seconds (mean over traced reps).
    pub wall_s: f64,
    /// Self-time share per span name plus `core.system.driver`.
    pub shares: Named<f64>,
}

/// Pass/fail bookkeeping: one operation is one timed call into the
/// simulator or one comparison against a stored golden fingerprint.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// What failed, for the log (capped).
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one operation; `verdict` is `Err(why)` when it failed.
    pub fn op(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            if self.failures.len() < 32 {
                self.failures.push(why);
            }
        }
    }
}

/// The report of one workload process (`--trace 0` or `--trace 1`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadReport {
    pub workload: String,
    pub seed: u64,
    pub quick: bool,
    pub traced: bool,
    pub reps: usize,
    pub threads: usize,
    pub engine_version: String,
    pub checks: Checks,
    /// `checked` or `skipped (<reason>)`.
    pub golden: String,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Named<Metric>,
    /// Per-point timing spreads, `<point>.<wall_s|setup_s>` → seconds.
    pub timings: Named<Spread>,
    /// Traced runs only: the per-point share breakdown.
    pub points: Vec<PointShares>,
    /// Simulated-result fingerprint per point (checked, not scored).
    pub fingerprints: Named<String>,
}

impl WorkloadReport {
    /// Stores end-to-end metric `name`.
    pub fn set_end_to_end(&mut self, name: &str, value: f64, spread: Option<Spread>) {
        let unit = END_TO_END
            .iter()
            .chain(std::iter::once(&FAILED_SHARE))
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("undeclared end-to-end metric `{name}`"))
            .unit;
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit: unit.to_string(),
                spread,
            },
        );
    }

    /// Stores the five measured end-to-end metrics from a workload's
    /// summed set-up, wall and CPU times and the simulated cycles its
    /// timed calls returned.  Call when measuring is over: the peak RSS
    /// is read here.
    pub fn set_host_costs(&mut self, setup: Spread, wall: Spread, cpu: Spread, cycles: u64) {
        self.set_end_to_end("setup_s", setup.best(), Some(setup));
        self.set_end_to_end("wall_s", wall.best(), Some(wall));
        self.set_end_to_end("cpu_s", cpu.best(), Some(cpu));
        let rate = wall.reciprocal(cycles as f64);
        self.set_end_to_end("sim_cycles_per_s", cycles as f64 / wall.best(), Some(rate));
        self.set_end_to_end("peak_rss_mb", peak_rss_mb(), None);
    }

    /// Stores per-layer metric `name`.
    pub fn set_layer(&mut self, name: &str, value: f64) {
        let unit = per_layer_unit(name).to_string();
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit,
                spread: None,
            },
        );
    }

    /// Fills every per-layer metric the workload did not measure with 0
    /// (it never entered that layer), so each traced run reports the
    /// whole table.
    pub fn zero_missing_layers(&mut self) {
        for m in &PER_LAYER {
            if !self.metrics.contains_key(m.name) {
                self.set_layer(m.name, 0.0);
            }
        }
    }

    /// Prints every metric by name with its unit, timings with their
    /// sample count, extremes, quartiles and median.
    pub fn print(&self) {
        println!(
            "== {} ({}, seed {:#x}, {} reps, {} threads, {}{}) ==",
            self.workload,
            if self.traced { "traced" } else { "untraced" },
            self.seed,
            self.reps,
            self.threads,
            self.engine_version,
            if self.quick { ", quick" } else { "" },
        );
        for (name, m) in self.metrics.iter() {
            match m.spread {
                Some(s) => println!(
                    "  {name:<44} {:>16.6} {:<8} n={} min={:.6} q1={:.6} median={:.6} q3={:.6} \
                     max={:.6}",
                    m.value, m.unit, s.n, s.min, s.q1, s.median, s.q3, s.max
                ),
                None => println!("  {name:<44} {:>16.6} {}", m.value, m.unit),
            }
        }
        if self.traced {
            for p in &self.points {
                let mut top: Vec<(&String, &f64)> = p.shares.iter().collect();
                top.sort_by(|a, b| b.1.total_cmp(a.1));
                let top: Vec<String> = top
                    .iter()
                    .take(4)
                    .map(|(k, v)| format!("{k} {:.1}%", *v * 100.0))
                    .collect();
                println!(
                    "  point {:<36} {:>9.3} ms  {}",
                    p.id,
                    p.wall_s * 1e3,
                    top.join(", ")
                );
            }
        }
        println!(
            "  operations: {} attempted, {} failed; golden check {}",
            self.checks.attempted, self.checks.failed, self.golden
        );
        for f in &self.checks.failures {
            println!("  FAILED: {f}");
        }
    }

    /// The last line of standard output: one JSON object with exactly
    /// the keys `correct`, `attempted`, `failed` and `metrics`, the
    /// metrics being the ones `BENCHMARK.json` lists for this mode.
    pub fn result_line(&self) -> String {
        let listed: Vec<&str> = if self.traced {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        let metrics: Vec<String> = listed
            .iter()
            .map(|name| {
                let m = &self.metrics[*name];
                format!(
                    "\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.failed == 0,
            self.checks.attempted,
            self.checks.failed,
            metrics.join(", ")
        )
    }
}

/// `out/results.json`: both passes of every workload of one full run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Results {
    pub schema: u32,
    pub seed: u64,
    pub quick: bool,
    pub engine_version: String,
    pub threads: usize,
    /// Workload name → its two reports.
    pub workloads: Named<WorkloadResults>,
}

/// The untraced and the traced report of one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResults {
    pub end_to_end: WorkloadReport,
    pub per_layer: WorkloadReport,
}
