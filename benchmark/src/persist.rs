//! `persist`: the catalog, the checkpoint store and the JSON layer under
//! them.  The engine does almost nothing here.
//!
//! Per rep, on a fresh directory under `out/`: store 96 pre-simulated
//! outcomes, serve the full-hit catalog through `run_cached` many times,
//! and run three checkpointed points killed at cycle 900 and resumed to
//! completion.  The traced run times the same stores one public call at
//! a time.

use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::api::{
    catalog_entry_path, checkpoint_entry_path, host_threads, pool_batched, pool_solo, run_cached,
    Catalog, CheckpointStore, Experiment, Fingerprint, MultichipSystem, RunOutcome, ScenarioGrid,
    ScenarioPoint, Snapshot,
};
use crate::golden::{fingerprint, folded_fingerprint};
use crate::points::{persist_checkpoint_grid, persist_grid, SimPoint, Traffic, CHECKPOINT_LOAD};
use crate::report::{Checks, WorkloadReport};
use crate::stats::{best, ratio, Spread};
use crate::{timed, Opts};

/// Full-hit `run_cached` calls per rep (quick: a tenth).
const WARM_CALLS: usize = 200;
/// The simulated crash: checkpointed points stop before this cycle.
const KILL_AT: u64 = 900;
/// Entries the traced run corrupts to time the quarantine path.
const QUARANTINED: usize = 16;

/// A grid compiled once: points, fingerprints, experiments.
struct Compiled {
    grid: ScenarioGrid,
    points: Vec<ScenarioPoint>,
    fingerprints: Vec<Fingerprint>,
    experiments: Vec<Experiment>,
}

fn compile(grid: ScenarioGrid) -> Compiled {
    let points = grid.points();
    let fingerprints = points.iter().map(|p| grid.point_fingerprint(p)).collect();
    let experiments = points.iter().map(|p| grid.experiment(p)).collect();
    Compiled {
        grid,
        points,
        fingerprints,
        experiments,
    }
}

/// The pre-simulated inputs: the catalog's 96 outcomes and the three
/// checkpointed points' uninterrupted outcomes.
struct Inputs {
    catalog: Compiled,
    outcomes: Vec<RunOutcome>,
    checkpointed: Compiled,
    uninterrupted: Vec<RunOutcome>,
}

fn simulate_inputs(opts: &Opts, threads: usize) -> Result<Inputs, String> {
    let catalog = compile(persist_grid(opts.seed));
    let checkpointed = compile(persist_checkpoint_grid(opts.seed));
    let outcomes =
        pool_batched(&catalog.experiments, threads, 3).map_err(|e| format!("pre-simulate: {e}"))?;
    let uninterrupted =
        pool_solo(&checkpointed.experiments, threads).map_err(|e| format!("pre-simulate: {e}"))?;
    Ok(Inputs {
        catalog,
        outcomes,
        checkpointed,
        uninterrupted,
    })
}

/// A scratch directory inside the benchmark's `out/`, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(opts: &Opts) -> Scratch {
        let dir = opts
            .dir
            .join("out")
            .join(format!("tmp-persist-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn store_all(catalog: &Catalog, inputs: &Inputs, checks: &mut Checks) {
    let c = &inputs.catalog;
    for ((fp, point), outcome) in c.fingerprints.iter().zip(&c.points).zip(&inputs.outcomes) {
        let stored = catalog.store(fp, point, outcome);
        checks.op(stored.map_err(|e| format!("catalog store: {e}")));
    }
}

/// One full-hit `run_cached`: no miss, and the pre-simulated vector back.
fn warm_call(catalog: &Catalog, inputs: &Inputs, threads: usize) -> Result<(), String> {
    let (hits, misses, outcomes) = run_cached(&inputs.catalog.grid, catalog, threads)
        .map_err(|e| format!("run_cached: {e}"))?;
    if misses != 0 || hits != inputs.outcomes.len() {
        return Err(format!(
            "warm run_cached reported {hits} hits, {misses} misses"
        ));
    }
    if black_box(outcomes) != inputs.outcomes {
        return Err("warm run_cached served a different outcome vector".to_string());
    }
    Ok(())
}

/// Kill at [`KILL_AT`], then resume to completion; the resumed outcome
/// must equal the uninterrupted one.
fn kill_and_resume(store: &CheckpointStore, inputs: &Inputs, checks: &mut Checks) {
    let c = &inputs.checkpointed;
    for ((experiment, fp), want) in c
        .experiments
        .iter()
        .zip(&c.fingerprints)
        .zip(&inputs.uninterrupted)
    {
        let killed = match experiment.run_checkpointed(store, fp, Some(KILL_AT)) {
            Ok(None) => Ok(()),
            Ok(Some(_)) => Err("checkpointed run ignored its kill cycle".to_string()),
            Err(e) => Err(format!("checkpointed run: {e}")),
        };
        checks.op(killed);
        let resumed = match experiment.run_checkpointed(store, fp, None) {
            Ok(Some(o)) if o == *want => Ok(()),
            Ok(Some(o)) => Err(format!(
                "resumed {} differs from uninterrupted {}",
                fingerprint(&o),
                fingerprint(want)
            )),
            Ok(None) => Err("resumed run did not finish".to_string()),
            Err(e) => Err(format!("resumed run: {e}")),
        };
        checks.op(resumed);
    }
}

fn open_stores(dir: &Path) -> Result<(Catalog, CheckpointStore), String> {
    let catalog = Catalog::open(dir.join("catalog")).map_err(|e| e.to_string())?;
    let store = CheckpointStore::open(dir.join("checkpoints")).map_err(|e| e.to_string())?;
    Ok((catalog, store))
}

/// Runs the workload.
pub fn run(opts: &Opts) -> WorkloadReport {
    let mut report = opts.new_report();
    let threads = host_threads();
    let (inputs, presimulate_s) = timed(|| simulate_inputs(opts, threads));
    let inputs = match inputs {
        Ok(i) => i,
        Err(why) => {
            report.checks.op(Err(why));
            return report;
        }
    };
    report.fingerprints.insert(
        "catalog-96".to_string(),
        folded_fingerprint(&inputs.outcomes),
    );
    for (p, o) in inputs.checkpointed.points.iter().zip(&inputs.uninterrupted) {
        report
            .fingerprints
            .insert(format!("checkpoint-{}", p.architecture), fingerprint(o));
    }
    let scratch = Scratch::new(opts);
    if opts.traced {
        traced(opts, &inputs, &scratch.0, threads, &mut report);
    } else {
        untraced(
            opts,
            &inputs,
            &scratch.0,
            threads,
            presimulate_s,
            &mut report,
        );
    }
    report
}

/// Wall and CPU samples of one op group across reps.
#[derive(Default)]
struct Group {
    wall_s: Vec<f64>,
    cpu_s: Vec<f64>,
}

impl Group {
    fn time(&mut self, opts: &Opts, ops: impl FnOnce()) {
        let ((), wall_s, cpu_s) = opts.timed_call(ops);
        self.wall_s.push(wall_s);
        self.cpu_s.push(cpu_s);
    }
}

fn untraced(
    opts: &Opts,
    inputs: &Inputs,
    scratch: &Path,
    threads: usize,
    presimulate_s: f64,
    report: &mut WorkloadReport,
) {
    let warm_calls = if opts.quick {
        WARM_CALLS / 10
    } else {
        WARM_CALLS
    };
    let mut open_s = Vec::new();
    let (mut store, mut warm, mut resume) = (Group::default(), Group::default(), Group::default());
    let started = Instant::now();
    while opts.another_rep(report.reps, started) {
        let dir = scratch.join(format!("rep{}", report.reps));
        let (stores, open) = timed(|| open_stores(&dir));
        let (catalog, checkpoints) = match stores {
            Ok(s) => s,
            Err(why) => {
                report.checks.op(Err(why));
                return;
            }
        };
        open_s.push(open);
        let checks = &mut report.checks;
        store.time(opts, || store_all(&catalog, inputs, checks));
        warm.time(opts, || {
            for _ in 0..warm_calls {
                checks.op(warm_call(&catalog, inputs, threads));
            }
        });
        resume.time(opts, || kill_and_resume(&checkpoints, inputs, checks));
        let _ = fs::remove_dir_all(&dir);
        report.reps += 1;
    }
    // Set-up: the pre-simulation happens once per process, opening the
    // stores once per rep.
    let open = Spread::of(&open_s);
    report.timings.insert("stores.setup_s".to_string(), open);
    report.timings.insert(
        "presimulate.setup_s".to_string(),
        Spread::exact(presimulate_s),
    );
    let (mut wall, mut cpu) = (Spread::zero(), Spread::zero());
    for (name, group) in [
        ("catalog-store", &store),
        ("catalog-warm", &warm),
        ("checkpoint-resume", &resume),
    ] {
        let group_wall = Spread::of(&group.wall_s);
        report.timings.insert(format!("{name}.wall_s"), group_wall);
        wall = wall.plus(group_wall);
        cpu = cpu.plus(Spread::of(&group.cpu_s));
    }
    let window = |e: &Experiment| e.config().warmup_cycles + e.config().measure_cycles;
    let served = inputs.catalog.experiments.iter().map(window).sum::<u64>() * warm_calls as u64
        + inputs
            .checkpointed
            .experiments
            .iter()
            .map(window)
            .sum::<u64>();
    report.set_host_costs(Spread::exact(presimulate_s).plus(open), wall, cpu, served);
}

/// Per-call time samples of the traced run, in seconds, one vector per
/// timed call; sizes in bytes.
#[derive(Default)]
struct LayerSamples {
    fingerprint_s: Vec<f64>,
    store_s: Vec<f64>,
    lookup_s: Vec<f64>,
    miss_s: Vec<f64>,
    quarantine_s: Vec<f64>,
    warm_s: Vec<f64>,
    snapshot_s: Vec<f64>,
    ckpt_store_s: Vec<f64>,
    ckpt_lookup_s: Vec<f64>,
    restore_s: Vec<f64>,
    plain_run_s: Vec<f64>,
    checkpointed_run_s: Vec<f64>,
    serialize_s: Vec<f64>,
    parse_s: Vec<f64>,
    entry_bytes: f64,
    snapshot_bytes: f64,
    snapshot_json_bytes: f64,
}

/// Full-hit `run_cached` calls per traced rep.
const TRACED_WARM_CALLS: usize = 20;

fn file_len(path: &Path) -> f64 {
    fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

fn traced(
    opts: &Opts,
    inputs: &Inputs,
    scratch: &Path,
    threads: usize,
    report: &mut WorkloadReport,
) {
    let mut s = LayerSamples::default();
    let misses = compile(persist_grid(opts.seed.wrapping_add(1_000))).fingerprints;
    let started = Instant::now();
    while opts.another_rep(report.reps, started) {
        let dir = scratch.join(format!("rep{}", report.reps));
        let (catalog, checkpoints) = match open_stores(&dir) {
            Ok(stores) => stores,
            Err(why) => {
                report.checks.op(Err(why));
                return;
            }
        };
        catalog_layer(
            &catalog,
            inputs,
            &misses,
            threads,
            &mut s,
            &mut report.checks,
        );
        checkpoint_layer(&checkpoints, &dir, inputs, &mut s, &mut report.checks);
        let _ = fs::remove_dir_all(&dir);
        report.reps += 1;
    }
    let points = inputs.catalog.points.len() as f64;
    let mut set = |name: &str, value: f64| report.set_layer(name, value);
    set(
        "core.catalog.fingerprint_us_per_point",
        best(&s.fingerprint_s) * 1e6,
    );
    set("core.catalog.store_us_per_op", best(&s.store_s) * 1e6);
    set("core.catalog.lookup_us_per_op", best(&s.lookup_s) * 1e6);
    set("core.catalog.miss_us_per_op", best(&s.miss_s) * 1e6);
    set(
        "core.catalog.quarantine_us_per_op",
        best(&s.quarantine_s) * 1e6,
    );
    set("core.catalog.entry_bytes", s.entry_bytes);
    set(
        "core.catalog.warm_points_per_s",
        ratio(TRACED_WARM_CALLS as f64 * points, best(&s.warm_s)),
    );
    set("core.checkpoint.snapshot_us", best(&s.snapshot_s) * 1e6);
    set(
        "core.checkpoint.store_ms_per_op",
        best(&s.ckpt_store_s) * 1e3,
    );
    set(
        "core.checkpoint.lookup_ms_per_op",
        best(&s.ckpt_lookup_s) * 1e3,
    );
    set("core.checkpoint.restore_us", best(&s.restore_s) * 1e6);
    set("core.checkpoint.snapshot_bytes", s.snapshot_bytes);
    set(
        "core.checkpoint.run_overhead_ratio",
        ratio(best(&s.checkpointed_run_s), best(&s.plain_run_s)),
    );
    let json_mb = s.snapshot_json_bytes / 1e6;
    set(
        "serde_json.serialize_mb_per_s",
        ratio(json_mb, best(&s.serialize_s)),
    );
    set(
        "serde_json.parse_mb_per_s",
        ratio(json_mb, best(&s.parse_s)),
    );
}

fn catalog_layer(
    catalog: &Catalog,
    inputs: &Inputs,
    misses: &[Fingerprint],
    threads: usize,
    s: &mut LayerSamples,
    checks: &mut Checks,
) {
    let c = &inputs.catalog;
    let n = c.points.len() as f64;
    let fingerprints = timed(|| {
        for p in &c.points {
            black_box(c.grid.point_fingerprint(p));
        }
    });
    s.fingerprint_s.push(fingerprints.1 / n);
    s.store_s
        .push(timed(|| store_all(catalog, inputs, checks)).1 / n);
    let bytes: f64 = c
        .fingerprints
        .iter()
        .map(|fp| file_len(&catalog_entry_path(catalog, fp)))
        .sum();
    s.entry_bytes = bytes / n;

    let (hits, took) = timed(|| {
        c.fingerprints
            .iter()
            .filter(|fp| catalog.lookup(fp).is_some())
            .count()
    });
    s.lookup_s.push(took / n);
    checks.op(if hits == c.points.len() {
        Ok(())
    } else {
        Err(format!("{hits} of {n} stored entries served"))
    });
    let (served, took) = timed(|| {
        misses
            .iter()
            .filter(|fp| catalog.lookup(fp).is_some())
            .count()
    });
    s.miss_s.push(took / misses.len() as f64);
    checks.op(if served == 0 {
        Ok(())
    } else {
        Err(format!("{served} lookups of absent keys were served"))
    });

    let warm = timed(|| {
        for _ in 0..TRACED_WARM_CALLS {
            checks.op(warm_call(catalog, inputs, threads));
        }
    });
    s.warm_s.push(warm.1);

    // Last, because it destroys entries: a corrupt entry must be
    // quarantined and reported as a miss, never served.
    let victims = &c.fingerprints[..QUARANTINED.min(c.fingerprints.len())];
    for fp in victims {
        let _ = fs::write(catalog_entry_path(catalog, fp), "{ not an entry");
    }
    let (served, took) = timed(|| {
        victims
            .iter()
            .filter(|fp| catalog.lookup(fp).is_some())
            .count()
    });
    s.quarantine_s.push(took / victims.len() as f64);
    checks.op(if served == 0 && catalog.quarantined() == victims.len() {
        Ok(())
    } else {
        Err(format!(
            "{served} corrupt entries served, {} of {} quarantined",
            catalog.quarantined(),
            victims.len()
        ))
    });
}

/// One rep's time in each step of a snapshot's life, summed over the
/// checkpointed points.
#[derive(Default)]
struct SnapshotLife {
    snapshot_s: f64,
    store_s: f64,
    lookup_s: f64,
    restore_s: f64,
    serialize_s: f64,
    parse_s: f64,
    plain_run_s: f64,
    checkpointed_run_s: f64,
    file_bytes: f64,
    json_bytes: f64,
}

fn checkpoint_layer(
    store: &CheckpointStore,
    dir: &Path,
    inputs: &Inputs,
    s: &mut LayerSamples,
    checks: &mut Checks,
) {
    let c = &inputs.checkpointed;
    let mut life = SnapshotLife::default();
    for ((experiment, fp), want) in c
        .experiments
        .iter()
        .zip(&c.fingerprints)
        .zip(&inputs.uninterrupted)
    {
        // One snapshot at the kill cycle, through every public step of
        // its life: capture, store, look up, restore, and the JSON
        // round trip underneath.
        let point = SimPoint {
            id: String::new(),
            config: experiment.config().clone(),
            traffic: Traffic::Oneway {
                load: CHECKPOINT_LOAD,
            },
        };
        let verdict = snapshot_life(store, &point, fp, &mut life);
        checks.op(verdict.map_err(|why| format!("snapshot of {}: {why}", point.config.label())));

        // The cost of checkpointing a whole run against a plain one.
        let (plain, took) = timed(|| experiment.run());
        life.plain_run_s += took;
        checks.op(match plain {
            Ok(o) if o == *want => Ok(()),
            Ok(_) => Err("plain run differs from the first".to_string()),
            Err(e) => Err(format!("plain run: {e}")),
        });
        let (ran, took) = timed(|| {
            let fresh = CheckpointStore::open(dir.join("overhead")).map_err(|e| e.to_string())?;
            let ran = experiment
                .run_checkpointed(&fresh, fp, None)
                .map_err(|e| e.to_string());
            fresh.remove(fp);
            ran
        });
        life.checkpointed_run_s += took;
        checks.op(match ran {
            Ok(Some(o)) if o == *want => Ok(()),
            Ok(_) => Err("checkpointed run differs from the plain one".to_string()),
            Err(e) => Err(format!("checkpointed run: {e}")),
        });
    }
    let n = c.points.len() as f64;
    s.snapshot_s.push(life.snapshot_s / n);
    s.ckpt_store_s.push(life.store_s / n);
    s.ckpt_lookup_s.push(life.lookup_s / n);
    s.restore_s.push(life.restore_s / n);
    s.serialize_s.push(life.serialize_s / n);
    s.parse_s.push(life.parse_s / n);
    s.plain_run_s.push(life.plain_run_s);
    s.checkpointed_run_s.push(life.checkpointed_run_s);
    s.snapshot_bytes = life.file_bytes / n;
    s.snapshot_json_bytes = life.json_bytes / n;
}

fn snapshot_life(
    store: &CheckpointStore,
    point: &SimPoint,
    fp: &Fingerprint,
    life: &mut SnapshotLife,
) -> Result<(), String> {
    let mut system = MultichipSystem::build(&point.config).map_err(|e| e.to_string())?;
    let mut workload = point.workload();
    system
        .run_until(workload.as_mut(), 0, KILL_AT)
        .map_err(|e| e.to_string())?;
    let (snapshot, took) = timed(|| system.snapshot());
    life.snapshot_s += took;

    let (stored, took) = timed(|| store.store(fp, &snapshot));
    life.store_s += took;
    stored.map_err(|e| format!("store: {e}"))?;
    life.file_bytes += file_len(&checkpoint_entry_path(store, fp));
    let (served, took) = timed(|| store.lookup(fp));
    life.lookup_s += took;
    let served = served.ok_or("stored checkpoint was not served")?;
    store.remove(fp);

    let mut fresh = MultichipSystem::build(&point.config).map_err(|e| e.to_string())?;
    let (restored, took) = timed(|| fresh.restore(&served));
    life.restore_s += took;
    restored.map_err(|e| format!("restore: {e}"))?;

    let (json, took) = timed(|| serde_json::to_string(&snapshot));
    life.serialize_s += took;
    let json = json.map_err(|e| format!("serialize: {e}"))?;
    life.json_bytes += json.len() as f64;
    let (parsed, took) = timed(|| serde_json::from_str::<Snapshot>(&json));
    life.parse_s += took;
    parsed.map(|_| ()).map_err(|e| format!("parse: {e}"))
}
