//! Declarative scenario grids and the work-stealing experiment pool.
//!
//! The paper's figures are small sweeps (a handful of loads × three
//! architectures).  Scaling the reproduction to the scenario
//! counts of the related mm-wave studies — hundreds of load × topology
//! × MAC × seed combinations — needs two things this module provides:
//!
//! * [`ScenarioGrid`] — a named-axis cartesian product compiled into
//!   concrete [`Experiment`]s with stable, deterministic point order
//!   (row-major over the axes, last axis fastest);
//! * [`run_pool`] — a work-stealing executor over `std::thread`:
//!   workers pull chunks of experiment indices from a shared atomic
//!   cursor over a heaviest-first dispatch order, so grids much larger
//!   than the core count saturate the machine even when per-point
//!   runtimes differ wildly (a saturated point can cost 50× a
//!   fast-forwarded low-load point), and the heaviest points start
//!   first instead of last.
//!
//! Results are written into per-index slots, so the output order equals
//! the input order and — because each simulation is single-threaded and
//! seed-deterministic — the outcomes are **bit-identical for every
//! thread count and chunk size** (guarded by `tests/determinism.rs`).

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use wimnet_memory::SchedulerPolicy;
use wimnet_topology::Architecture;

use crate::catalog::{Catalog, Fingerprint};
use crate::checkpoint::CheckpointStore;
use crate::error::CoreError;
use crate::experiments::{Experiment, Scale, WorkloadSpec};
use crate::metrics::RunOutcome;
use crate::system::{SystemConfig, WirelessModel};
use wimnet_traffic::{AddressStreamSpec, InjectionProcess};

/// Default work chunk: one experiment per steal.  Simulations are
/// coarse (milliseconds to seconds), so per-steal overhead is already
/// negligible at chunk 1, and finer chunks balance better: the last
/// steals of the heaviest-first dispatch order hold the lightest points,
/// and one point is the smallest tail a worker can be left with.
const DEFAULT_CHUNK: usize = 1;

/// Runs `experiments` on a work-stealing pool of `threads` OS threads,
/// handing out the next `chunk` experiments of the dispatch order per
/// steal.
///
/// The dispatch order is heaviest first: the indices sorted by a
/// deterministic work estimate (the flits a point's window can inject
/// at most — `(warmup + measure) × cores × min(offered flits per core
/// per cycle, 1)`), descending, ties in index order.  The longest points
/// start first and the last steals hold the shortest, so no worker is
/// left alone with a heavy point at the end; a sweep ends when its work
/// does.
///
/// Outcomes are returned in input order and are bit-identical for every
/// `(threads, chunk)` choice: each experiment is an independent,
/// seed-deterministic, single-threaded simulation, and the pool only
/// decides *which thread* runs it and *when*, never *what* it computes.
///
/// The worker count is clamped to `threads.clamp(1, n.div_ceil(chunk))`
/// — the number of chunks the list actually splits into — so an
/// oversized `chunk` (e.g. `chunk > n`) degrades gracefully to a single
/// worker draining one steal instead of spawning threads that would
/// find the queue already empty.  The clamp is shape-only and therefore
/// invisible in the results (pinned by `tests/determinism.rs`).
///
/// # Errors
///
/// Returns the error of the lowest-indexed failing experiment (also
/// independent of the pool shape and of the dispatch order).  A
/// simulation that panics is a [`CoreError::Panicked`] for its index,
/// not a torn-down pool.
pub fn run_pool(
    experiments: &[Experiment],
    threads: usize,
    chunk: usize,
) -> Result<Vec<RunOutcome>, CoreError> {
    run_pool_each(experiments, threads, chunk).into_iter().collect()
}

/// [`run_pool`] without the fold into one `Result`: every experiment's
/// own result, in input order, so a caller can report a failed point
/// next to its finished siblings (the `figures` tables print such a
/// point as a cell).  A point that panicked is its own
/// [`CoreError::Panicked`] here, beside its siblings' outcomes.  Same
/// pool, same heaviest-first dispatch order, same shape-independence.
pub fn run_pool_each(
    experiments: &[Experiment],
    threads: usize,
    chunk: usize,
) -> Vec<Result<RunOutcome, CoreError>> {
    run_pool_generic(&dispatch_order(experiments), threads, chunk, |i| experiments[i].run())
}

/// One-line forwarder to [`run_pool`], kept only because
/// `benchmark/src/api.rs` names it and only a benchmark-only PR may
/// edit `benchmark/`.  No in-repo caller may use it; the PR that
/// repoints `api.rs` deletes it (ROADMAP.md).
#[doc(hidden)]
pub fn run_pool_batched(
    experiments: &[Experiment],
    threads: usize,
    chunk: usize,
) -> Result<Vec<RunOutcome>, CoreError> {
    run_pool(experiments, threads, chunk)
}

/// The pool's dispatch order: `0..experiments.len()` sorted by
/// [`Experiment::work_estimate`], descending, ties in index order (the
/// sort is stable).
fn dispatch_order(experiments: &[Experiment]) -> Vec<usize> {
    let estimates: Vec<f64> = experiments.iter().map(Experiment::work_estimate).collect();
    let mut order: Vec<usize> = (0..experiments.len()).collect();
    order.sort_by(|&a, &b| estimates[b].total_cmp(&estimates[a]));
    order
}

/// Runs one pool index, turning a panic into that index's
/// [`CoreError::Panicked`] carrying the panic message.
///
/// `AssertUnwindSafe` holds because nothing a worker shares outlives a
/// panic half-done: the experiments are read-only, and a store write
/// cut short leaves at most a temp file, which the store's rename
/// discipline never serves.
fn catch_panic<T>(run: impl FnOnce() -> Result<T, CoreError>) -> Result<T, CoreError> {
    catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        let what = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "a panic without a message".to_string());
        Err(CoreError::Panicked { what })
    })
}

/// The pool skeleton: an atomic cursor over `order` drained by scoped
/// workers, `chunk` entries of it per steal, per-index result slots,
/// input-order collection.  `order` is a permutation of `0..n`
/// ([`dispatch_order`]); `run_one(i)` produces the result for index `i`
/// on whichever worker stole it.  Generic over the per-index outcome
/// type, for drivers whose work items can legitimately *not* produce an
/// outcome (checkpointed runs killed mid-point yield
/// `Option<RunOutcome>`).  A panic in `run_one(i)` is caught on its
/// worker and becomes index `i`'s [`CoreError::Panicked`]; the worker
/// goes on stealing.  Every index runs whatever its siblings returned; a
/// caller that wants one `Result` collects, which keeps the
/// lowest-indexed error.
fn run_pool_generic<T: Send + Sync>(
    order: &[usize],
    threads: usize,
    chunk: usize,
    run_one: impl Fn(usize) -> Result<T, CoreError> + Sync,
) -> Vec<Result<T, CoreError>> {
    let n = order.len();
    if n == 0 {
        return Vec::new();
    }
    let chunk = chunk.max(1);
    let threads = threads.clamp(1, n.div_ceil(chunk));
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<Result<T, CoreError>>> = (0..n).map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                for &i in order[start..].iter().take(chunk) {
                    let filled = slots[i].set(catch_panic(|| run_one(i))).is_ok();
                    debug_assert!(filled, "each index is stolen exactly once");
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("pool visited every index"))
        .collect()
}

/// The number of worker threads [`ScenarioGrid::run`] and the default
/// `run_all` use: every available core.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// One materialised grid point: the axis values that produced an
/// [`Experiment`], kept alongside its outcome for reporting.
///
/// Serializable for the result catalog and sweep archives; the
/// content fingerprint ([`crate::catalog::fingerprint`]) covers the
/// axis fields only — `index` and `label` are presentation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioPoint {
    /// Position in the grid's row-major enumeration.
    pub index: usize,
    /// Human-readable point label, e.g.
    /// `"4C4M (Wireless) mem=20% load=0.002 seed=0x5177"`.
    pub label: String,
    /// Architecture axis value.
    pub architecture: Architecture,
    /// Chip-count axis value.
    pub chips: usize,
    /// Stack-count axis value.
    pub stacks: usize,
    /// Wireless-model (MAC) axis value.
    pub wireless: WirelessModel,
    /// Memory-fraction axis value.
    pub memory_fraction: f64,
    /// Address-stream axis value (which walk read requests drive
    /// through the stack controllers).
    pub address_stream: AddressStreamSpec,
    /// Memory-scheduler axis value (FR-FCFS vs FCFS).
    pub scheduler: SchedulerPolicy,
    /// Injection axis value.
    pub injection: InjectionProcess,
    /// Seed axis value.
    pub seed: u64,
}

/// A declarative cartesian product of simulation scenarios.
///
/// Every axis has a default of one value (the paper's 4C4M wireless
/// saturation point), so a grid only names the axes it sweeps:
///
/// ```
/// use wimnet_core::sweeps::ScenarioGrid;
/// use wimnet_core::Scale;
/// use wimnet_topology::Architecture;
///
/// let grid = ScenarioGrid::new("fig3")
///     .scale(Scale::Quick)
///     .architectures(&Architecture::ALL)
///     .loads(&[0.001, 0.008]);
/// assert_eq!(grid.len(), 6);
/// let outcomes = grid.run()?;
/// assert_eq!(outcomes.len(), 6);
/// # Ok::<(), wimnet_core::CoreError>(())
/// ```
///
/// Axis order is fixed (architecture → chips → stacks → wireless model
/// → memory fraction → address stream → scheduler → injection → seed,
/// last fastest), so point indices are stable across runs and machines.
#[derive(Debug, Clone)]
pub struct ScenarioGrid {
    name: String,
    scale: Scale,
    architectures: Vec<Architecture>,
    chips: Vec<usize>,
    stacks: Vec<usize>,
    wireless: Vec<WirelessModel>,
    memory_fractions: Vec<f64>,
    address_streams: Vec<AddressStreamSpec>,
    schedulers: Vec<SchedulerPolicy>,
    injections: Vec<InjectionProcess>,
    seeds: Vec<u64>,
    /// Read-request share of memory packets (a grid-wide setting, not
    /// an axis: 0 keeps the paper's fire-and-forget stores).
    read_share: f64,
    /// Snapshot cadence for checkpointed runs (a grid-wide setting
    /// that, like `disable_fast_forward`, is *not* part of the point
    /// fingerprints: the cadence changes disk traffic, never physics).
    /// `0` disables checkpointing.
    checkpoint_every: u64,
}

impl ScenarioGrid {
    /// An empty grid named `name`, with every axis at the paper default:
    /// wireless 4C4M, default wireless model, 20 % memory traffic,
    /// saturation load, seed `0x5177`, paper-scale windows.
    pub fn new(name: impl Into<String>) -> Self {
        ScenarioGrid {
            name: name.into(),
            scale: Scale::Paper,
            architectures: vec![Architecture::Wireless],
            chips: vec![4],
            stacks: vec![4],
            wireless: vec![WirelessModel::default()],
            memory_fractions: vec![0.20],
            address_streams: vec![AddressStreamSpec::Sequential],
            schedulers: vec![SchedulerPolicy::FrFcfs],
            injections: vec![InjectionProcess::Saturation],
            seeds: vec![0x5177],
            read_share: 0.0,
            checkpoint_every: 0,
        }
    }

    /// The grid's name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets the simulation scale (window lengths).
    #[must_use]
    pub fn scale(mut self, scale: Scale) -> Self {
        self.scale = scale;
        self
    }

    /// Sweeps the architecture axis.
    #[must_use]
    pub fn architectures(mut self, archs: &[Architecture]) -> Self {
        assert!(!archs.is_empty(), "architecture axis must be non-empty");
        self.architectures = archs.to_vec();
        self
    }

    /// Sweeps the chip-count axis (XC in the paper's XCYM naming).
    #[must_use]
    pub fn chips(mut self, chips: &[usize]) -> Self {
        assert!(!chips.is_empty(), "chips axis must be non-empty");
        self.chips = chips.to_vec();
        self
    }

    /// Sweeps the memory-stack-count axis (YM).
    #[must_use]
    pub fn stacks(mut self, stacks: &[usize]) -> Self {
        assert!(!stacks.is_empty(), "stacks axis must be non-empty");
        self.stacks = stacks.to_vec();
        self
    }

    /// Sweeps the wireless-medium/MAC axis.  Only wireless-architecture
    /// points are affected (wired fabrics carry no medium); mixed grids
    /// typically pair this with `architectures(&[Architecture::Wireless])`.
    #[must_use]
    pub fn wireless_models(mut self, models: &[WirelessModel]) -> Self {
        assert!(!models.is_empty(), "wireless axis must be non-empty");
        self.wireless = models.to_vec();
        self
    }

    /// Sweeps the memory-access-fraction axis.
    #[must_use]
    pub fn memory_fractions(mut self, fractions: &[f64]) -> Self {
        assert!(!fractions.is_empty(), "memory-fraction axis must be non-empty");
        self.memory_fractions = fractions.to_vec();
        self
    }

    /// Sweeps the address-stream axis (sequential / strided / uniform /
    /// hot-row walks through the stack controllers; only observable
    /// with a positive [`ScenarioGrid::read_share`] or a read-issuing
    /// workload).
    #[must_use]
    pub fn address_streams(mut self, streams: &[AddressStreamSpec]) -> Self {
        assert!(!streams.is_empty(), "address-stream axis must be non-empty");
        self.address_streams = streams.to_vec();
        self
    }

    /// Sweeps the memory-scheduler axis (FR-FCFS vs FCFS).
    #[must_use]
    pub fn schedulers(mut self, schedulers: &[SchedulerPolicy]) -> Self {
        assert!(!schedulers.is_empty(), "scheduler axis must be non-empty");
        self.schedulers = schedulers.to_vec();
        self
    }

    /// Sets the read-request share of memory packets for every point
    /// (closed-loop traffic through the controllers).
    ///
    /// # Panics
    ///
    /// Panics if `share` is outside `[0, 1]`.
    #[must_use]
    pub fn read_share(mut self, share: f64) -> Self {
        assert!((0.0..=1.0).contains(&share), "read share {share} outside [0, 1]");
        self.read_share = share;
        self
    }

    /// Sets the snapshot cadence for runs given a checkpoint store
    /// ([`SweepOptions::checkpoints`]): every miss persists a
    /// checkpoint at each `every`-cycle mark while it simulates, so a
    /// killed sweep resumes mid-point instead of from cycle 0.  `0`
    /// (the default) disables checkpointing.  Not part of the point
    /// fingerprints — outcomes are bit-identical at every cadence.
    #[must_use]
    pub fn checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint_every = every;
        self
    }

    /// Sweeps the injection axis over Bernoulli loads
    /// (packets/core/cycle).
    #[must_use]
    pub fn loads(mut self, loads: &[f64]) -> Self {
        assert!(!loads.is_empty(), "load axis must be non-empty");
        self.injections = loads
            .iter()
            .map(|&rate| InjectionProcess::Bernoulli { rate })
            .collect();
        self
    }

    /// Sweeps the injection axis over explicit processes (mix Bernoulli
    /// points with saturation).
    #[must_use]
    pub fn injections(mut self, injections: &[InjectionProcess]) -> Self {
        assert!(!injections.is_empty(), "injection axis must be non-empty");
        self.injections = injections.to_vec();
        self
    }

    /// Sweeps the seed axis (statistical replication).
    #[must_use]
    pub fn seeds(mut self, seeds: &[u64]) -> Self {
        assert!(!seeds.is_empty(), "seed axis must be non-empty");
        self.seeds = seeds.to_vec();
        self
    }

    /// The named axes and their lengths, in nesting order.
    pub fn axes(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("architecture", self.architectures.len()),
            ("chips", self.chips.len()),
            ("stacks", self.stacks.len()),
            ("wireless", self.wireless.len()),
            ("memory_fraction", self.memory_fractions.len()),
            ("address_stream", self.address_streams.len()),
            ("scheduler", self.schedulers.len()),
            ("injection", self.injections.len()),
            ("seed", self.seeds.len()),
        ]
    }

    /// Number of grid points (the product of all axis lengths).
    pub fn len(&self) -> usize {
        self.axes().iter().map(|(_, n)| n).product()
    }

    /// `true` when the grid has no points (never: axes are non-empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialises every grid point in row-major order.
    pub fn points(&self) -> Vec<ScenarioPoint> {
        // The label names the memory axes only when the grid actually
        // engages them, so classic network-side sweeps keep their
        // short labels.
        let memory_axes_engaged = self.address_streams
            != [AddressStreamSpec::Sequential]
            || self.schedulers != [SchedulerPolicy::FrFcfs]
            || self.read_share > 0.0;
        let mut points = Vec::with_capacity(self.len());
        for &architecture in &self.architectures {
            for &chips in &self.chips {
                for &stacks in &self.stacks {
                    for &wireless in &self.wireless {
                        for &memory_fraction in &self.memory_fractions {
                            for &address_stream in &self.address_streams {
                                for &scheduler in &self.schedulers {
                                    for &injection in &self.injections {
                                        for &seed in &self.seeds {
                                            let index = points.len();
                                            let load = match injection {
                                                InjectionProcess::Bernoulli { rate } => {
                                                    format!("load={rate}")
                                                }
                                                InjectionProcess::Saturation => {
                                                    "saturation".to_string()
                                                }
                                            };
                                            let memory = if memory_axes_engaged {
                                                format!(
                                                    " stream={} sched={}",
                                                    address_stream.label(),
                                                    match scheduler {
                                                        SchedulerPolicy::FrFcfs => "frfcfs",
                                                        SchedulerPolicy::Fcfs => "fcfs",
                                                    }
                                                )
                                            } else {
                                                String::new()
                                            };
                                            points.push(ScenarioPoint {
                                                index,
                                                label: format!(
                                                    "{chips}C{stacks}M ({architecture}) \
                                                     mem={:.0}%{memory} {load} \
                                                     seed={seed:#x}",
                                                    memory_fraction * 100.0
                                                ),
                                                architecture,
                                                chips,
                                                stacks,
                                                wireless,
                                                memory_fraction,
                                                address_stream,
                                                scheduler,
                                                injection,
                                                seed,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        points
    }

    /// Compiles one point into a runnable [`Experiment`].
    pub fn experiment(&self, point: &ScenarioPoint) -> Experiment {
        let mut config = self
            .scale
            .apply(SystemConfig::xcym(point.chips, point.stacks, point.architecture));
        config.wireless = point.wireless;
        config.seed = point.seed;
        config.address_stream = point.address_stream;
        config.mem_controller.scheduler = point.scheduler;
        config.checkpoint_every = self.checkpoint_every;
        let spec = match point.injection {
            InjectionProcess::Bernoulli { rate } => WorkloadSpec::UniformRandom {
                load: rate,
                memory_fraction: point.memory_fraction,
                read_share: self.read_share,
            },
            InjectionProcess::Saturation => WorkloadSpec::Saturation {
                memory_fraction: point.memory_fraction,
                read_share: self.read_share,
            },
        };
        Experiment::new(config, spec)
    }

    /// Compiles the whole grid, point order preserved.
    pub fn experiments(&self) -> Vec<Experiment> {
        self.points().iter().map(|p| self.experiment(p)).collect()
    }

    /// Runs the grid uncached on the default pool (all cores, chunk 1).
    /// Outcomes are in point order — pair them with
    /// [`ScenarioGrid::points`] by `zip` — and independent of the pool
    /// shape; [`run_pool`] over [`ScenarioGrid::experiments`] is the
    /// same run with an explicit shape.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed failing point's error.
    pub fn run(&self) -> Result<Vec<RunOutcome>, CoreError> {
        run_pool(&self.experiments(), default_threads(), DEFAULT_CHUNK)
    }

    /// The canonical catalog fingerprint of one of this grid's points:
    /// the point's axis values plus the grid-wide settings (scale,
    /// read share) that co-determine the compiled experiment, keyed
    /// under [`crate::catalog::ENGINE_VERSION`].
    pub fn point_fingerprint(&self, point: &ScenarioPoint) -> Fingerprint {
        crate::catalog::fingerprint(point, self.scale, self.read_share)
    }

    /// The contiguous point-index range shard `shard` of `shards`
    /// owns: `[shard·n/shards, (shard+1)·n/shards)` — a balanced
    /// split (sizes differ by at most one) that covers every index
    /// exactly once across the shards.
    ///
    /// # Panics
    ///
    /// Panics when `shards == 0` or `shard >= shards`.
    pub fn shard_range(&self, shard: usize, shards: usize) -> Range<usize> {
        assert!(shards > 0, "shard count must be positive");
        assert!(shard < shards, "shard {shard} out of range for {shards} shards");
        let n = self.len();
        (shard * n / shards)..((shard + 1) * n / shards)
    }

    /// Runs the whole grid through the result `catalog` on a pool of
    /// `threads` threads with `chunk`-sized steals: shorthand for
    /// [`ScenarioGrid::run_cached_with`] with every other
    /// [`SweepOptions`] field at its default.
    ///
    /// # Errors
    ///
    /// As [`ScenarioGrid::run_cached_with`].
    pub fn run_cached(
        &self,
        catalog: &Catalog,
        threads: usize,
        chunk: usize,
    ) -> Result<CachedSweep, CoreError> {
        let opts = SweepOptions { threads, chunk, ..SweepOptions::default() };
        self.run_cached_with(catalog, &opts)
    }

    /// Runs the points of shard `opts.shard` through the result
    /// `catalog`: cache hits are served from disk at memcpy speed, only
    /// misses simulate (on the [`run_pool`] skeleton, heaviest first),
    /// and **each fresh outcome is memoized by the worker that produced
    /// it, the moment it exists** — a sibling point's error or a killed
    /// process loses
    /// nothing that had finished.  Outcomes are bit-identical to an
    /// uncached [`ScenarioGrid::run`] — simulations are deterministic
    /// and the JSON layer round-trips every finite f64 exactly — so a
    /// killed sweep resumed from its partial catalog converges on the
    /// same final vector.
    ///
    /// Disjoint shards may run concurrently — in threads or separate
    /// processes — against one catalog directory; overlapping shards
    /// are safe too and dedupe to byte-identical entries (atomic
    /// rename of deterministic content).
    ///
    /// With `opts.checkpoints`, every miss runs through
    /// `crate::checkpoint::run_with_checkpoints`: it resumes from the
    /// scenario's latest serveable snapshot, persists a new one at each
    /// [`ScenarioGrid::checkpoint_every`] mark while it simulates, and
    /// has its spent checkpoint removed once the outcome is in the
    /// catalog (snapshot → restore → run equals the uninterrupted run,
    /// bit for bit — `tests/checkpoint.rs`).
    ///
    /// The two simulated crashes leave [`CachedSweep::pending`] > 0 and
    /// no outcome vector: `opts.miss_budget` simulates only the first
    /// `k` misses in point order (the budget is taken before the
    /// dispatch order is); `opts.kill_at` stops each miss before
    /// its first iteration at cursor ≥ `k`, its latest checkpoint left
    /// on disk for a later call to finish from.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for a shard outside
    /// `0 <= i < n`; otherwise the lowest-indexed failing point's error
    /// — a simulation failure or panic, or a [`CoreError::Catalog`] /
    /// [`CoreError::Checkpoint`] when either store cannot be written.
    pub fn run_cached_with(
        &self,
        catalog: &Catalog,
        opts: &SweepOptions,
    ) -> Result<CachedSweep, CoreError> {
        let (shard, shards) = opts.shard;
        if shard >= shards {
            return Err(CoreError::InvalidParameter {
                what: format!("shard {shard}/{shards}: need 0 <= I < N"),
            });
        }
        let indices = self.shard_range(shard, shards);
        let points = self.points();
        let points = &points[indices.clone()];
        let fingerprints: Vec<Fingerprint> =
            points.iter().map(|p| self.point_fingerprint(p)).collect();
        let mut slots: Vec<Option<RunOutcome>> =
            fingerprints.iter().map(|fp| catalog.lookup(fp)).collect();
        let mut to_run: Vec<usize> =
            (0..slots.len()).filter(|&i| slots[i].is_none()).collect();
        let hits = points.len() - to_run.len();
        // Budget first, order second: the budget is the first `k` misses
        // in point order, whichever of them the pool then starts first.
        to_run.truncate(opts.miss_budget.unwrap_or(usize::MAX));
        let experiments: Vec<Experiment> =
            to_run.iter().map(|&i| self.experiment(&points[i])).collect();

        let fresh = run_pool_generic(&dispatch_order(&experiments), opts.threads, opts.chunk, |k| {
            let (i, experiment) = (to_run[k], &experiments[k]);
            let outcome = match opts.checkpoints {
                Some(store) => {
                    experiment.run_checkpointed(store, &fingerprints[i], opts.kill_at)?
                }
                None => Some(experiment.run()?),
            };
            if let Some(outcome) = &outcome {
                catalog.store(&fingerprints[i], &points[i], outcome)?;
                if let Some(store) = opts.checkpoints {
                    store.remove(&fingerprints[i]);
                }
            }
            Ok(outcome)
        })
        .into_iter()
        .collect::<Result<Vec<_>, CoreError>>()?;

        let mut misses = 0;
        for (&i, outcome) in to_run.iter().zip(fresh) {
            misses += usize::from(outcome.is_some());
            slots[i] = outcome;
        }
        let pending = points.len() - hits - misses;
        let outcomes =
            if pending == 0 { slots.into_iter().flatten().collect() } else { Vec::new() };
        Ok(CachedSweep { indices, outcomes, hits, misses, pending })
    }
}

/// How [`ScenarioGrid::run_cached_with`] runs a grid: pool shape,
/// shard, the optional checkpoint store, and the two simulated crashes.
/// None of it reaches a fingerprint or an outcome bit.
#[derive(Debug, Clone, Copy)]
pub struct SweepOptions<'a> {
    /// Pool worker threads (clamped to the number of steals).
    pub threads: usize,
    /// Points per steal: each steal takes the next `chunk` misses of
    /// the heaviest-first dispatch order ([`run_pool`]).
    pub chunk: usize,
    /// `(i, n)`: run only the points of shard `i` of `n`
    /// ([`ScenarioGrid::shard_range`]).
    pub shard: (usize, usize),
    /// Simulate at most this many misses (in point order) and leave the
    /// rest pending — the `sweep` CLI's simulated between-points crash.
    pub miss_budget: Option<usize>,
    /// Warm-start misses from, and snapshot them into, this store.
    pub checkpoints: Option<&'a CheckpointStore>,
    /// Stop every miss before its first iteration at cursor ≥ this —
    /// the simulated mid-point crash.  Read only with `checkpoints`
    /// set: a kill is defined by the snapshots it leaves behind.
    pub kill_at: Option<u64>,
}

impl Default for SweepOptions<'_> {
    /// The whole grid on every core with one-point steals: no shard, no
    /// checkpoints, no simulated crash.
    fn default() -> Self {
        SweepOptions {
            threads: default_threads(),
            chunk: DEFAULT_CHUNK,
            shard: (0, 1),
            miss_budget: None,
            checkpoints: None,
            kill_at: None,
        }
    }
}

/// The result of a catalog-backed (sharded) grid run — outcomes plus
/// the hit/miss accounting the resumability tests and the `sweep` CLI
/// assert on: a fully warm rerun must report `misses == 0` (zero
/// simulation steps) while returning the bit-identical vector.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedSweep {
    /// The grid point indices this run covered (the shard's range;
    /// the whole grid for [`ScenarioGrid::run_cached`]).
    pub indices: Range<usize>,
    /// Outcomes for `indices`, in point order — `outcomes[k]` belongs
    /// to point `indices.start + k`.  Empty when a simulated crash
    /// left the shard incomplete (`pending > 0`).
    pub outcomes: Vec<RunOutcome>,
    /// Points served from the catalog without simulating.
    pub hits: usize,
    /// Points simulated (and memoized) by this run.
    pub misses: usize,
    /// Cache misses left unfinished — beyond the miss budget, or
    /// killed mid-point by `kill_at`; zero means the shard is complete.
    pub pending: usize,
}

impl CachedSweep {
    /// `true` when every point of the shard has an outcome.
    pub fn is_complete(&self) -> bool {
        self.pending == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_len_is_the_axis_product() {
        let grid = ScenarioGrid::new("t")
            .architectures(&Architecture::ALL)
            .loads(&[0.001, 0.002, 0.004])
            .seeds(&[1, 2]);
        assert_eq!(grid.len(), 3 * 3 * 2);
        assert_eq!(grid.points().len(), grid.len());
        assert!(!grid.is_empty());
        assert_eq!(grid.name(), "t");
    }

    #[test]
    fn points_enumerate_row_major_with_stable_indices() {
        let grid = ScenarioGrid::new("t")
            .architectures(&[Architecture::Wireless, Architecture::Interposer])
            .loads(&[0.1, 0.2]);
        let points = grid.points();
        assert_eq!(points.len(), 4);
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.index, i);
        }
        // Last axis (injection) fastest.
        assert_eq!(points[0].architecture, Architecture::Wireless);
        assert_eq!(points[1].architecture, Architecture::Wireless);
        assert!(matches!(
            points[0].injection,
            InjectionProcess::Bernoulli { rate } if rate == 0.1
        ));
        assert!(matches!(
            points[1].injection,
            InjectionProcess::Bernoulli { rate } if rate == 0.2
        ));
        assert_eq!(points[2].architecture, Architecture::Interposer);
    }

    #[test]
    fn axes_are_named_in_nesting_order() {
        let grid = ScenarioGrid::new("t").loads(&[0.1, 0.2]).seeds(&[1, 2, 3]);
        let axes = grid.axes();
        assert_eq!(axes[0], ("architecture", 1));
        assert_eq!(axes[5], ("address_stream", 1));
        assert_eq!(axes[6], ("scheduler", 1));
        assert_eq!(axes[7], ("injection", 2));
        assert_eq!(axes[8], ("seed", 3));
    }

    #[test]
    fn memory_axes_multiply_points_and_name_labels() {
        let grid = ScenarioGrid::new("mem")
            .address_streams(&[
                AddressStreamSpec::Sequential,
                AddressStreamSpec::Uniform { region_blocks: 1 << 16 },
            ])
            .schedulers(&[SchedulerPolicy::FrFcfs, SchedulerPolicy::Fcfs])
            .read_share(1.0)
            .loads(&[0.001]);
        assert_eq!(grid.len(), 4);
        let points = grid.points();
        assert!(points[0].label.contains("stream=seq"));
        assert!(points[0].label.contains("sched=frfcfs"));
        assert!(points[1].label.contains("sched=fcfs"));
        assert!(points[2].label.contains("stream=uniform"));
        // The compiled experiments carry the axis values into the
        // system configuration.
        let exp = grid.experiment(&points[3]);
        assert_eq!(
            exp.config().address_stream,
            AddressStreamSpec::Uniform { region_blocks: 1 << 16 }
        );
        assert_eq!(exp.config().mem_controller.scheduler, SchedulerPolicy::Fcfs);
    }

    #[test]
    fn default_memory_axes_keep_the_short_labels() {
        let grid = ScenarioGrid::new("t").loads(&[0.002]);
        assert!(!grid.points()[0].label.contains("stream="));
    }

    #[test]
    fn scheduler_policy_changes_memory_bound_outcomes() {
        // Same seed and load, FR-FCFS vs FCFS on a hot-row stream:
        // the scheduler axis must be observable in the per-stack
        // statistics of a read-heavy run.
        let grid = ScenarioGrid::new("sched")
            .scale(Scale::Quick)
            .architectures(&[Architecture::Wireless])
            .address_streams(&[AddressStreamSpec::HotRow {
                region_blocks: 1 << 18,
                hot_blocks: 16,
                hot_fraction: 0.6,
            }])
            .schedulers(&[SchedulerPolicy::FrFcfs, SchedulerPolicy::Fcfs])
            .read_share(1.0)
            .memory_fractions(&[0.9])
            .loads(&[0.02]);
        let outcomes = grid.run().unwrap();
        assert_eq!(outcomes.len(), 2);
        for o in &outcomes {
            let accesses: u64 = o.memory.iter().map(|m| m.accesses).sum();
            assert!(accesses > 0, "read-heavy run must access the stacks");
        }
        // The axis is observable: same seed and traffic, different
        // service order — the per-stack statistics must diverge.
        assert_ne!(
            outcomes[0].memory, outcomes[1].memory,
            "FR-FCFS and FCFS produced identical memory statistics"
        );
    }

    #[test]
    fn grid_compiles_and_runs_quick_points() {
        let grid = ScenarioGrid::new("smoke")
            .scale(Scale::Quick)
            .architectures(&[Architecture::Wireless, Architecture::Substrate])
            .loads(&[0.002]);
        let annotated: Vec<(ScenarioPoint, RunOutcome)> =
            grid.points().into_iter().zip(grid.run().unwrap()).collect();
        assert_eq!(annotated.len(), 2);
        for (point, outcome) in &annotated {
            assert!(
                outcome.packets_delivered() > 0,
                "{} delivered nothing",
                point.label
            );
        }
        // The point label names the architecture and load.
        assert!(annotated[0].0.label.contains("4C4M"));
        assert!(annotated[0].0.label.contains("load=0.002"));
    }

    #[test]
    fn pool_shape_does_not_change_results() {
        let grid = ScenarioGrid::new("det")
            .scale(Scale::Quick)
            .loads(&[0.001, 0.004, 0.016]);
        let exps = grid.experiments();
        let a: Vec<RunOutcome> = exps.iter().map(|e| e.run().unwrap()).collect();
        let b = run_pool(&exps, 8, 2).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.packets_delivered(), y.packets_delivered());
            assert_eq!(
                x.avg_latency_cycles.map(f64::to_bits),
                y.avg_latency_cycles.map(f64::to_bits)
            );
            assert_eq!(x.total_energy_nj().to_bits(), y.total_energy_nj().to_bits());
        }
    }

    #[test]
    fn empty_experiment_list_is_fine() {
        assert!(run_pool(&[], 4, 1).unwrap().is_empty());
    }

    #[test]
    fn shard_ranges_partition_every_index_exactly_once() {
        let grid = ScenarioGrid::new("t")
            .loads(&[0.001, 0.002, 0.004])
            .seeds(&[1, 2, 3, 4, 5]);
        for shards in [1, 2, 3, 7, 15, 16] {
            let mut covered = Vec::new();
            for shard in 0..shards {
                let range = grid.shard_range(shard, shards);
                covered.extend(range);
            }
            assert_eq!(covered, (0..grid.len()).collect::<Vec<_>>(), "shards={shards}");
        }
        // Balanced: sizes differ by at most one.
        let sizes: Vec<usize> =
            (0..4).map(|s| grid.shard_range(s, 4).len()).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn run_cached_serves_the_second_run_without_simulating() {
        let dir = std::env::temp_dir()
            .join(format!("wimnet-sweeps-cached-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let catalog = Catalog::open(&dir).unwrap();
        let grid = ScenarioGrid::new("cached")
            .scale(Scale::Quick)
            .architectures(&[Architecture::Wireless, Architecture::Substrate])
            .loads(&[0.002]);
        let first = grid.run_cached(&catalog, 2, 1).unwrap();
        assert_eq!((first.hits, first.misses, first.pending), (0, 2, 0));
        assert!(first.is_complete());
        let second = grid.run_cached(&catalog, 2, 1).unwrap();
        assert_eq!((second.hits, second.misses), (2, 0), "warm run must not simulate");
        assert_eq!(first.outcomes, second.outcomes);
        // Budgeted runs stop mid-shard and report the remainder.
        let _ = std::fs::remove_dir_all(&dir);
        let catalog = Catalog::open(&dir).unwrap();
        let budgeted =
            SweepOptions { threads: 2, miss_budget: Some(1), ..SweepOptions::default() };
        let truncated = grid.run_cached_with(&catalog, &budgeted).unwrap();
        assert_eq!((truncated.hits, truncated.misses, truncated.pending), (0, 1, 1));
        assert!(!truncated.is_complete());
        assert!(truncated.outcomes.is_empty());
        let resumed = grid.run_cached(&catalog, 2, 1).unwrap();
        assert_eq!((resumed.hits, resumed.misses), (1, 1));
        assert_eq!(resumed.outcomes, first.outcomes, "resume converges on the same vector");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failing_sibling_does_not_lose_finished_points() {
        let dir = std::env::temp_dir()
            .join(format!("wimnet-sweeps-sibling-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let catalog = Catalog::open(&dir).unwrap();
        // Point 0 (4 chips) simulates; point 1 (0 chips) cannot build.
        let grid = |chips: &[usize]| {
            ScenarioGrid::new("sibling").scale(Scale::Quick).chips(chips).loads(&[0.002])
        };
        let err = grid(&[4, 0]).run_cached(&catalog, 2, 1).unwrap_err();
        assert!(matches!(err, CoreError::Topology(_)), "{err}");
        assert_eq!(catalog.len(), 1, "the finished point must already be memoized");
        let rerun = grid(&[4]).run_cached(&catalog, 2, 1).unwrap();
        assert_eq!((rerun.hits, rerun.misses), (1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_range_shards_are_errors_not_panics() {
        let dir = std::env::temp_dir()
            .join(format!("wimnet-sweeps-options-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let catalog = Catalog::open(&dir).unwrap();
        let grid = ScenarioGrid::new("options").scale(Scale::Quick);
        for bad in [
            SweepOptions { shard: (0, 0), ..SweepOptions::default() },
            SweepOptions { shard: (2, 2), ..SweepOptions::default() },
            SweepOptions { shard: (3, 2), ..SweepOptions::default() },
        ] {
            let err = grid.run_cached_with(&catalog, &bad).unwrap_err();
            assert!(matches!(err, CoreError::InvalidParameter { .. }), "{err}");
        }
        assert!(catalog.is_empty(), "a rejected call simulates nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pool_reports_the_lowest_indexed_failure() {
        // A stalling configuration: zero measure cycles is rejected at
        // build time, deterministically, whatever thread finds it.
        let mut bad = SystemConfig::xcym(4, 4, Architecture::Wireless).quick_test_profile();
        bad.measure_cycles = 0;
        let good = SystemConfig::xcym(4, 4, Architecture::Wireless).quick_test_profile();
        let exps = vec![
            Experiment::uniform_random(&good, 0.001),
            Experiment::uniform_random(&bad, 0.001),
            Experiment::uniform_random(&good, 0.002),
        ];
        let err = run_pool(&exps, 4, 1).unwrap_err();
        assert!(matches!(err, CoreError::InvalidParameter { .. }));
    }

    #[test]
    fn per_index_pool_keeps_a_failure_between_its_finished_siblings() {
        let good = SystemConfig::xcym(4, 4, Architecture::Wireless).quick_test_profile();
        let mut bad = good.clone();
        bad.measure_cycles = 0;
        let exps = vec![
            Experiment::uniform_random(&good, 0.001),
            Experiment::uniform_random(&bad, 0.001),
            Experiment::uniform_random(&good, 0.002),
        ];
        let solo = run_pool_each(&exps, 1, 1);
        assert!(matches!(solo[1], Err(CoreError::InvalidParameter { .. })));
        assert_eq!(solo[0], exps[0].run());
        assert_eq!(solo[2], exps[2].run());
        assert_ne!(solo[0], solo[2], "each slot holds its own experiment's outcome");
        assert_eq!(run_pool_each(&exps, 4, 2), solo, "whatever the pool shape");
    }

    /// A panicking index is that index's `Panicked` error, next to its
    /// siblings' results, and the worker that caught it keeps stealing.
    /// Seeded mutation seen to fail it: `slots[i].set(run_one(i))` in
    /// `run_pool_generic`, without `catch_panic` — the panic then
    /// propagates out of the thread scope and takes the test with it.
    #[test]
    fn a_panicking_point_is_its_own_error_beside_its_siblings() {
        let run_one = |i: usize| -> Result<usize, CoreError> {
            match i {
                1 => panic!("point {i} blew up"),
                3 => panic!("a static message"),
                _ => Ok(10 * i),
            }
        };
        fn panicked<T>(what: &str) -> Result<T, CoreError> {
            Err(CoreError::Panicked { what: what.to_string() })
        }
        let expected =
            vec![Ok(0), panicked("point 1 blew up"), Ok(20), panicked("a static message"), Ok(40)];
        // One worker draining the whole order in one steal: the panic
        // at index 3 (dispatched first) must not cost the rest of it.
        for (threads, chunk) in [(1, 5), (2, 1), (4, 2)] {
            let got = run_pool_generic(&[3, 4, 1, 0, 2], threads, chunk, run_one);
            assert_eq!(got, expected, "({threads} threads, chunk {chunk})");
            let folded: Result<Vec<usize>, CoreError> = got.into_iter().collect();
            assert_eq!(folded, panicked("point 1 blew up"), "the lowest index wins");
        }
    }

    /// Uniform random at `load` on a quick-scale 4C4M wireless system.
    fn quick_load(load: f64) -> Experiment {
        let cfg = SystemConfig::xcym(4, 4, Architecture::Wireless).quick_test_profile();
        Experiment::uniform_random(&cfg, load)
    }

    /// [`quick_load`] with twice the cores per chip.
    fn twice_the_cores(load: f64) -> Experiment {
        let mut exp = quick_load(load);
        exp.config_mut().multichip.cores_per_chip *= 2;
        exp
    }

    #[test]
    fn the_estimate_grows_with_window_cores_and_load_and_caps_at_saturation() {
        let base = quick_load(0.004);
        let mut longer = base.clone();
        longer.config_mut().measure_cycles += 1000;
        assert!(longer.work_estimate() > base.work_estimate(), "window");
        assert!(twice_the_cores(0.004).work_estimate() > base.work_estimate(), "cores");
        assert!(quick_load(0.008).work_estimate() > base.work_estimate(), "load");
        // 64-flit packets: any load past 1/64 offers more than a flit
        // per core per cycle, which is what saturation counts.
        let cfg = base.config();
        let saturation = Experiment::saturation(cfg, 0.2).work_estimate();
        let cores = cfg.multichip.total_cores() as f64;
        let window = (cfg.warmup_cycles + cfg.measure_cycles) as f64;
        assert_eq!(saturation, window * cores);
        assert_eq!(quick_load(0.5).work_estimate(), saturation);
        assert_eq!(quick_load(1.0 / 64.0).work_estimate(), saturation);
        assert!(quick_load(0.015).work_estimate() < saturation);
    }

    #[test]
    fn dispatch_order_is_descending_in_the_estimate_with_ties_in_index_order() {
        let cfg = SystemConfig::xcym(4, 4, Architecture::Substrate).quick_test_profile();
        let exps = vec![
            quick_load(0.001),                 // 0
            Experiment::saturation(&cfg, 0.2), // 1: capped
            quick_load(0.008),                 // 2
            twice_the_cores(0.001),            // 3
            quick_load(0.25),                  // 4: capped, ties 1
            quick_load(0.008),                 // 5: ties 2
            quick_load(0.002),                 // 6: ties 3
        ];
        let order = dispatch_order(&exps);
        assert_eq!(order, [1, 4, 2, 5, 3, 6, 0]);
        for pair in order.windows(2) {
            let (a, b) = (exps[pair[0]].work_estimate(), exps[pair[1]].work_estimate());
            assert!(a > b || (a == b && pair[0] < pair[1]), "{order:?}");
        }
        assert!(dispatch_order(&[]).is_empty());
    }

    /// The makespan of the pool replayed on known per-point costs: each
    /// steal of `chunk` entries of `order` goes to the worker that frees
    /// first (the lowest-numbered one on a tie), as the atomic cursor
    /// hands them out.
    fn replay(order: &[usize], costs: &[u64], threads: usize, chunk: usize) -> u64 {
        let mut free = vec![0u64; threads.clamp(1, order.len().div_ceil(chunk))];
        for steal in order.chunks(chunk) {
            let worker = (0..free.len()).min_by_key(|&w| free[w]).unwrap();
            free[worker] += steal.iter().map(|&i| costs[i]).sum::<u64>();
        }
        free.into_iter().max().unwrap_or(0)
    }

    /// The estimate ranks the work the pool really does, checked without
    /// a clock: on the benchmark's 18-point figure grid at quick scale,
    /// each point's cost is its `meter_charges` (deterministic; it
    /// tracks flit hops plus metered cycles), and the pool is replayed
    /// on those costs.  Heaviest-first must never end later than index
    /// order, and at 2 threads it must come within 8 % of the bound no
    /// schedule beats, `max(max cost, Σ / threads)`.
    #[test]
    fn heaviest_first_replays_no_later_than_index_order_and_near_the_bound() {
        let grid = ScenarioGrid::new("sweep_batched")
            .scale(Scale::Quick)
            .architectures(&Architecture::ALL)
            .loads(&[0.001, 0.002, 0.004, 0.008, 0.016, 0.032]);
        let exps = grid.experiments();
        let costs: Vec<u64> = run_pool(&exps, default_threads(), 1)
            .unwrap()
            .iter()
            .map(|o| o.meter_charges)
            .collect();
        let heaviest = dispatch_order(&exps);
        let index: Vec<usize> = (0..exps.len()).collect();
        for threads in [2, 4] {
            for chunk in [1, 3, 4] {
                let (ours, theirs) =
                    (replay(&heaviest, &costs, threads, chunk), replay(&index, &costs, threads, chunk));
                assert!(ours <= theirs, "{threads}x{chunk}: {ours} > index order's {theirs}");            }
        }
        let total: u64 = costs.iter().sum();
        let bound = (*costs.iter().max().unwrap() as f64).max(total as f64 / 2.0);
        for chunk in [1, 3] {
            let ratio = replay(&heaviest, &costs, 2, chunk) as f64 / bound;
            assert!(ratio <= 1.08, "2x{chunk}: makespan {ratio:.3} of the bound");
        }
    }
}
