//! `sweep_batched`: the 18-point figure grid through the work-stealing
//! pool, replica batches and the masked fast stepper — what a figure or
//! sweep user runs.
//!
//! The layer boundaries here (`ScenarioGrid::experiments`, `run_pool`,
//! `run_pool_batched`) are already public calls, so the traced run needs
//! no re-composition: it times the same grid through four pool shapes.

use std::hint::black_box;
use std::time::Instant;

use crate::api::{host_threads, pool_batched, pool_solo, CoreError, RunOutcome};
use crate::golden::fingerprint;
use crate::points::sweep_grid;
use crate::report::WorkloadReport;
use crate::stats::{best, ratio, Spread};
use crate::{timed, Opts};

/// Replica-batch width of the timed call.
const CHUNK: usize = 3;
/// Grid expansions timed together per rep.
const EXPANSIONS: usize = 256;

/// Compares one pool call's outcomes with the first call's.
fn verdict(
    reference: &mut Option<Vec<RunOutcome>>,
    shape: &str,
    result: Result<Vec<RunOutcome>, CoreError>,
) -> Result<(), String> {
    let outcomes = result.map_err(|e| format!("{shape} failed: {e}"))?;
    match reference {
        None => {
            *reference = Some(outcomes);
            Ok(())
        }
        Some(r) if *r == outcomes => Ok(()),
        Some(r) => {
            let i = r
                .iter()
                .zip(&outcomes)
                .position(|(a, b)| a != b)
                .unwrap_or(0);
            Err(format!(
                "{shape}: point {i} differs from the first call's outcome"
            ))
        }
    }
}

/// Runs the workload.
pub fn run(opts: &Opts) -> WorkloadReport {
    let mut report = opts.new_report();
    let grid = sweep_grid(opts.seed, opts.quick);
    let threads = host_threads();
    let mut reference = None;
    let (mut setup_s, mut wall_s, mut cpu_s) = (Vec::new(), Vec::new(), Vec::new());
    // Traced: the same grid on one thread through the reference
    // stepper, the fast stepper solo, and the fast stepper batched.
    let (mut solo_s, mut fast_s, mut batched_s) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while opts.another_rep(report.reps, started) {
        // Grid expansion takes microseconds: time a batch of them so
        // the set-up reading is not timer noise.
        let (experiments, expand) = timed(|| {
            for _ in 1..EXPANSIONS {
                black_box(grid.experiments());
            }
            grid.experiments()
        });
        setup_s.push(expand / EXPANSIONS as f64);
        let (result, wall, cpu) = opts.timed_call(|| pool_batched(&experiments, threads, CHUNK));
        wall_s.push(wall);
        cpu_s.push(cpu);
        report.checks.op(verdict(
            &mut reference,
            "run_pool_batched",
            black_box(result),
        ));
        if opts.traced {
            let mut shape =
                |name: &str,
                 samples: &mut Vec<f64>,
                 run: &dyn Fn() -> Result<Vec<RunOutcome>, CoreError>| {
                    let (result, wall) = timed(run);
                    samples.push(wall);
                    report
                        .checks
                        .op(verdict(&mut reference, name, black_box(result)));
                };
            shape("run_pool(1, 1)", &mut solo_s, &|| {
                pool_solo(&experiments, 1)
            });
            shape("run_pool_batched(1, 1)", &mut fast_s, &|| {
                pool_batched(&experiments, 1, 1)
            });
            shape("run_pool_batched(1, 3)", &mut batched_s, &|| {
                pool_batched(&experiments, 1, CHUNK)
            });
        }
        report.reps += 1;
    }
    let points = grid.points();
    for (p, o) in points.iter().zip(reference.iter().flatten()) {
        report
            .fingerprints
            .insert(format!("p{:02}", p.index), fingerprint(o));
    }

    let (setup, wall) = (Spread::of(&setup_s), Spread::of(&wall_s));
    if opts.traced {
        let (solo, fast, batched) = (best(&solo_s), best(&fast_s), best(&batched_s));
        report.set_layer(
            "core.sweeps.points_per_s",
            points.len() as f64 / wall.best(),
        );
        report.set_layer(
            "core.sweeps.pool_efficiency",
            ratio(batched, threads as f64 * wall.best()),
        );
        report.set_layer("core.sweeps.grid_expand_us", setup.best() * 1e6);
        report.set_layer("noc.fast_step_speedup", ratio(solo, fast));
        report.set_layer("core.replica.lockstep_gain", ratio(fast, batched));
    } else {
        let cycles = grid
            .experiments()
            .iter()
            .map(|e| e.config().warmup_cycles + e.config().measure_cycles)
            .sum();
        report.timings.insert("grid.setup_s".to_string(), setup);
        report.timings.insert("grid.wall_s".to_string(), wall);
        report.set_host_costs(setup, wall, Spread::of(&cpu_s), cycles);
    }
    report
}
