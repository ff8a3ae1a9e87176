//! Determinism regression tests: the safety net under the active-set /
//! zero-allocation engine rework.
//!
//! The engine contract is *bit-identical* reproducibility: the same
//! `SystemConfig` and seed must produce the same `NetworkStats` and the
//! same energy meter totals — down to the last float bit — no matter
//! how often the simulation is repeated or how many experiments run
//! concurrently on other threads.  Any optimization that reorders
//! floating-point accumulation, iterates components in a
//! data-dependent order, or skips a cycle it should not, breaks these
//! tests immediately.

mod common;

use common::{assert_ff_bit_identical, quick, run_fingerprint, NoFastForward, PlainGenerate};

use wimnet::core::sweeps::{default_threads, run_pool, ScenarioGrid};
use wimnet::core::{
    Experiment, MacKind, MultichipSystem, Scale, SystemConfig, WirelessModel,
};
use wimnet::topology::Architecture;
use wimnet::traffic::{InjectionProcess, UniformRandom};

#[test]
fn repeated_runs_are_bit_identical_per_architecture() {
    for arch in Architecture::ALL {
        let cfg = quick(arch);
        let load = InjectionProcess::Bernoulli { rate: 0.004 };
        let a = run_fingerprint(&cfg, load);
        let b = run_fingerprint(&cfg, load);
        assert_eq!(a, b, "{arch}: identical seeds must be bit-identical");
        assert!(a.packets_delivered > 0, "{arch}: sanity — traffic flowed");
    }
}

#[test]
fn saturation_runs_are_bit_identical() {
    let cfg = quick(Architecture::Wireless);
    let a = run_fingerprint(&cfg, InjectionProcess::Saturation);
    let b = run_fingerprint(&cfg, InjectionProcess::Saturation);
    assert_eq!(a, b);
}

/// The pool at its default shape runs experiments on one OS thread
/// each; results must not depend on how many run concurrently (1 vs 4
/// here) or on scheduling order.
#[test]
fn thread_count_does_not_change_outcomes() {
    let cfg = quick(Architecture::Wireless);
    let exp = Experiment::uniform_random(&cfg, 0.004);

    let pooled = |exps: &[Experiment]| run_pool(exps, default_threads(), 1);
    let solo = pooled(std::slice::from_ref(&exp)).expect("solo run");
    let batch =
        pooled(&[exp.clone(), exp.clone(), exp.clone(), exp.clone()]).expect("batch run");

    let key = |o: &wimnet::core::RunOutcome| {
        (
            o.packets_delivered(),
            o.avg_latency_cycles.unwrap_or(f64::NAN).to_bits(),
            o.total_energy_nj().to_bits(),
        )
    };
    let reference = key(&solo[0]);
    for (i, o) in batch.iter().enumerate() {
        assert_eq!(key(o), reference, "outcome {i} diverged under concurrency");
    }
}

/// Fast-forward must never jump across the warmup/measurement
/// boundary: `begin_measurement` runs at the top of the iteration
/// where `cycle == warmup_cycles`, so a jump initiated in the
/// iteration that *ends* there must stop short.  (Regression test: an
/// empty trace makes the whole run fast-forwardable, and a warmup
/// that expires right as the links saturate used to skip the window
/// entirely, leaving zero window cycles and undiscarded warmup
/// energy.)
#[test]
fn fast_forward_stops_at_the_measurement_boundary() {
    for (arch, warmup) in [(Architecture::Wireless, 2), (Architecture::Substrate, 7)] {
        let mut cfg = quick(arch);
        cfg.warmup_cycles = warmup;
        let trace = wimnet::traffic::Trace::default();
        let mut sys = MultichipSystem::build(&cfg).unwrap();
        let mut replay = trace.replay();
        sys.run(&mut replay).unwrap();
        assert_eq!(
            sys.network().stats().window_cycles(),
            cfg.measure_cycles,
            "{arch}: measurement window must cover exactly the measured cycles"
        );
    }
}

/// The counter-based injection RNG makes Bernoulli generation a pure
/// function of `(seed, core, cycle)`, so the driver may fast-forward
/// over quiet low-load stretches.  The whole point of that soundness
/// argument (docs/sweeps.md) is THIS property: a fast-forwarded run is
/// bit-identical — stats, latency bits, every energy category — to one
/// that steps every cycle.
#[test]
fn bernoulli_fast_forward_is_bit_identical_to_full_stepping() {
    for arch in Architecture::ALL {
        let cfg = quick(arch);
        // Low enough that idle gaps dominate and fast-forward engages.
        let load = InjectionProcess::Bernoulli { rate: 0.0005 };
        let make = || {
            UniformRandom::new(
                cfg.multichip.total_cores(),
                cfg.multichip.num_stacks,
                0.20,
                load,
                cfg.packet_flits,
                cfg.seed,
            )
        };

        let mut fast = MultichipSystem::build(&cfg).expect("system builds");
        fast.run(&mut make()).expect("fast-forwarded run");

        let mut full = MultichipSystem::build(&cfg).expect("system builds");
        full.run(&mut NoFastForward(make())).expect("full-stepped run");

        assert_eq!(
            fast.network().stats().packets_delivered(),
            full.network().stats().packets_delivered(),
            "{arch}: delivered packets diverged"
        );
        assert_eq!(
            fast.network().stats().window_flits_delivered(),
            full.network().stats().window_flits_delivered(),
            "{arch}: window flits diverged"
        );
        assert_eq!(
            fast.network().meter().total().picojoules().to_bits(),
            full.network().meter().total().picojoules().to_bits(),
            "{arch}: energy totals must match to the last bit"
        );
        let fast_breakdown: Vec<u64> = fast
            .network()
            .meter()
            .breakdown()
            .entries
            .iter()
            .map(|(_, e)| e.picojoules().to_bits())
            .collect();
        let full_breakdown: Vec<u64> = full
            .network()
            .meter()
            .breakdown()
            .entries
            .iter()
            .map(|(_, e)| e.picojoules().to_bits())
            .collect();
        assert_eq!(fast_breakdown, full_breakdown, "{arch}: breakdown diverged");
        assert!(
            fast.network().stats().packets_delivered() > 0,
            "{arch}: sanity — the low-load run still carried traffic"
        );
    }
}

/// The tentpole contract for application traffic: `AppWorkload`'s
/// event-indexed phase/fire schedules make `next_event_at` exact, so a
/// fast-forwarded app run (quiet compute phases skipped in O(events))
/// is bit-identical to stepping every cycle — including the memory
/// read/reply traffic through the stacks.
#[test]
fn app_workload_fast_forward_is_bit_identical_to_full_stepping() {
    use wimnet::traffic::AppWorkload;
    for arch in [Architecture::Wireless, Architecture::Interposer] {
        let cfg = quick(arch);
        assert_ff_bit_identical(
            &format!("app/{arch}"),
            &cfg,
            &|| {
                Box::new(AppWorkload::new(
                    wimnet::traffic::profiles::blackscholes(),
                    cfg.multichip.num_chips,
                    cfg.multichip.cores_per_chip,
                    cfg.multichip.num_stacks,
                    cfg.seed,
                ))
            },
        );
    }
}

/// The tentpole contract for the serialized-channel MACs: both the
/// token and control-packet MACs now declare quiescence once drained,
/// and their `idle_step` replay keeps fast-forwarded shared-channel
/// runs bit-identical to full stepping — the paper's MAC-comparison
/// scenarios no longer pin the engine to per-cycle work.
#[test]
fn shared_channel_mac_fast_forward_is_bit_identical_to_full_stepping() {
    use wimnet::core::{MacKind, WirelessModel};
    for mac in [MacKind::Token, MacKind::ControlPacket] {
        let mut cfg = quick(Architecture::Wireless);
        cfg.wireless = WirelessModel::SharedChannel { mac };
        // Low enough that the serialized channel fully drains between
        // packets and idle stretches dominate.
        let load = InjectionProcess::Bernoulli { rate: 0.0002 };
        let cores = cfg.multichip.total_cores();
        let stacks = cfg.multichip.num_stacks;
        let (flits, seed) = (cfg.packet_flits, cfg.seed);
        assert_ff_bit_identical(
            &format!("shared-channel/{mac:?}"),
            &cfg,
            &|| Box::new(UniformRandom::new(cores, stacks, 0.20, load, flits, seed)),
        );
    }
}

/// The memory-controller contract: on a read-heavy workload the
/// network drains while requests sit in the stack controllers' queues
/// and banks, and the driver jumps those DRAM service gaps (bounded by
/// `MemoryController::next_event_at`, replayed by `idle_advance`).  A
/// fast-forwarded run must be bit-identical to full stepping — stats,
/// latency bits, every energy category, and the per-stack controller
/// statistics — with fast-forward provably engaged.
#[test]
fn memory_read_fast_forward_is_bit_identical_to_full_stepping() {
    use wimnet::memory::SchedulerPolicy;
    use wimnet::traffic::AddressStreamSpec;
    for (arch, stream, scheduler) in [
        (
            Architecture::Wireless,
            AddressStreamSpec::Sequential,
            SchedulerPolicy::FrFcfs,
        ),
        (
            Architecture::Substrate,
            AddressStreamSpec::Uniform { region_blocks: 1 << 22 },
            SchedulerPolicy::Fcfs,
        ),
        (
            Architecture::Interposer,
            AddressStreamSpec::HotRow {
                region_blocks: 1 << 20,
                hot_blocks: 16,
                hot_fraction: 0.7,
            },
            SchedulerPolicy::FrFcfs,
        ),
    ] {
        let mut cfg = quick(arch);
        cfg.address_stream = stream;
        cfg.mem_controller.scheduler = scheduler;
        // Sparse enough that the network drains between reads, so the
        // memory-side gap (not the workload gap) is what gets skipped.
        let load = InjectionProcess::Bernoulli { rate: 0.0004 };
        let cores = cfg.multichip.total_cores();
        let stacks = cfg.multichip.num_stacks;
        let (flits, seed) = (cfg.packet_flits, cfg.seed);
        assert_ff_bit_identical(
            &format!("memory-read/{arch}"),
            &cfg,
            &|| {
                Box::new(
                    UniformRandom::new(cores, stacks, 0.9, load, flits, seed)
                        .with_memory_reads(1.0, 8),
                )
            },
        );
    }
}

/// The work-stealing pool decides only *where* an experiment runs,
/// never *what* it computes: every (threads, chunk) shape must produce
/// bit-identical outcomes in the same order.  The shapes cover
/// one-point steals, partial tail chunks, chunks mixing architectures
/// and a single chunk holding the whole list.
/// The reference is each experiment run on its own, in list order, not
/// a one-thread pool: every pool shape walks the same heaviest-first
/// dispatch order, so a pool reference would share any fault of it.
#[test]
fn pool_shape_is_invisible_in_the_results() {
    let grid = ScenarioGrid::new("pool-shape")
        .scale(Scale::Quick)
        .architectures(&[Architecture::Wireless, Architecture::Interposer])
        .loads(&[0.001, 0.004, 0.016]);
    let exps = grid.experiments();
    let reference: Vec<_> =
        exps.iter().map(Experiment::run).collect::<Result<_, _>>().expect("serial");
    for (threads, chunk) in [
        (1, 1),
        (2, 1),
        (4, 1),
        (16, 1),
        (1, 3),
        (2, 2),
        (8, 2),
        (4, 3),
        (8, 4),
        (2, 6),
    ] {
        let got = run_pool(&exps, threads, chunk).expect("pooled");
        assert_eq!(
            got, reference,
            "pool shape ({threads} threads, chunk {chunk}) changed outcomes"
        );
    }
}

/// Oversized chunks degrade gracefully: with `chunk > n` the worker
/// count clamps to `n.div_ceil(chunk) == 1` and one thread drains the
/// single steal — same outcomes, same order, no dead workers racing an
/// empty queue.
#[test]
fn oversized_chunks_collapse_to_one_worker_without_changing_outcomes() {
    let grid = ScenarioGrid::new("clamp")
        .scale(Scale::Quick)
        .architectures(&[Architecture::Wireless, Architecture::Substrate])
        .loads(&[0.001, 0.004]);
    let exps = grid.experiments();
    let reference = run_pool(&exps, 1, 1).expect("serial reference");
    let clamped = run_pool(&exps, 8, exps.len() + 5).expect("oversized chunk");
    assert_eq!(clamped, reference, "run_pool: chunk > n changed outcomes");
}

/// The acceptance criterion for O(1)-per-skipped-cycle accounting,
/// asserted on the meter's own work counters rather than wall clock:
/// with an empty trace the whole run is fast-forwardable, so growing
/// the measurement window by 16× must leave the number of meter
/// *operations* unchanged (each jump lands a constant handful of
/// `add_repeated`s) while the number of per-cycle charge *quanta*
/// grows with the window.  Covered for the always-on wireless medium
/// and both serialized-channel MACs, whose idle closed forms emit
/// repeated charges per period rather than per cycle.
#[test]
fn fast_forwarded_idle_accounting_is_o1_in_skipped_cycles() {
    use wimnet::core::{MacKind, WirelessModel};
    let scenarios: Vec<(&str, SystemConfig)> = vec![
        ("substrate", quick(Architecture::Substrate)),
        ("wireless/parallel", quick(Architecture::Wireless)),
        (
            "wireless/token",
            {
                let mut c = quick(Architecture::Wireless);
                c.wireless = WirelessModel::SharedChannel { mac: MacKind::Token };
                c
            },
        ),
        (
            "wireless/control-packet",
            {
                let mut c = quick(Architecture::Wireless);
                c.wireless = WirelessModel::SharedChannel { mac: MacKind::ControlPacket };
                c
            },
        ),
    ];
    for (what, base) in scenarios {
        let meter_work = |measure_cycles: u64| -> (u64, u64, u64) {
            let mut cfg = base.clone();
            cfg.measure_cycles = measure_cycles;
            let mut sys = MultichipSystem::build(&cfg).expect("system builds");
            let trace = wimnet::traffic::Trace::default();
            let mut replay = trace.replay();
            sys.run(&mut replay).expect("idle run completes");
            let skipped = sys.network().fast_forwarded_cycles();
            (sys.network().meter().ops(), sys.network().meter().charges(), skipped)
        };
        let (ops_small, charges_small, skipped_small) = meter_work(10_000);
        let (ops_big, charges_big, skipped_big) = meter_work(160_000);
        assert!(skipped_big > skipped_small, "{what}: bigger window must skip more");
        assert_eq!(
            ops_small, ops_big,
            "{what}: meter operations must not scale with the skipped-cycle count"
        );
        assert!(
            charges_big >= charges_small + (160_000 - 10_000),
            "{what}: charge quanta must keep scaling with the window \
             ({charges_small} -> {charges_big})"
        );
        assert!(
            charges_big > ops_big,
            "{what}: the closed forms must actually batch (saved {} adds)",
            charges_big - ops_big
        );
    }
}

/// Nonzero DRAM background power rides the same contract: the per-cycle
/// quantum charged by the stepping driver and the repeated charge
/// batched by `MemoryController::idle_advance` must agree to the last
/// bit, and the `dram_background` category must actually accrue.
#[test]
fn background_power_fast_forward_is_bit_identical_to_full_stepping() {
    use wimnet::energy::{EnergyCategory, Power};
    use wimnet::traffic::AddressStreamSpec;
    let mut cfg = quick(Architecture::Wireless);
    cfg.address_stream = AddressStreamSpec::Sequential;
    cfg.stack.background_power = Power::from_mw(75.0);
    let load = InjectionProcess::Bernoulli { rate: 0.0004 };
    let cores = cfg.multichip.total_cores();
    let stacks = cfg.multichip.num_stacks;
    let (flits, seed) = (cfg.packet_flits, cfg.seed);
    assert_ff_bit_identical(
        "memory-read/background-power",
        &cfg,
        &|| {
            Box::new(
                UniformRandom::new(cores, stacks, 0.9, load, flits, seed)
                    .with_memory_reads(1.0, 8),
            )
        },
    );
    let mut sys = MultichipSystem::build(&cfg).unwrap();
    let mut w = UniformRandom::new(cores, stacks, 0.9, load, flits, seed)
        .with_memory_reads(1.0, 8);
    sys.run(&mut w).unwrap();
    let background = sys
        .network()
        .meter()
        .breakdown()
        .category(EnergyCategory::DramBackground);
    assert!(
        background > wimnet::energy::Energy::ZERO,
        "background power configured but dram_background never accrued"
    );
}

/// The observability tentpole's contract (`docs/observability.md`):
/// attaching telemetry — per-component counters, the cycle-bucketed
/// time series, even full trace recording — must not move a single
/// outcome bit.  Covered across all three architectures at a load
/// where fast-forward provably engages (so the ff-aware sampling path
/// runs, not just per-cycle bucketing) and both serialized-channel
/// MACs (whose turn logging rides the hottest decision paths).  The
/// observed run's `RunOutcome` must equal the unobserved run's in
/// every field except the telemetry payload itself, with latency and
/// energy additionally compared at the bit level.
#[test]
fn telemetry_has_zero_observer_effect() {
    use wimnet::core::{MacKind, TelemetryConfig, WirelessModel};
    let mut scenarios: Vec<(String, SystemConfig, f64)> = Architecture::ALL
        .iter()
        .map(|&arch| (format!("{arch}"), quick(arch), 0.0005))
        .collect();
    for mac in [MacKind::Token, MacKind::ControlPacket] {
        let mut cfg = quick(Architecture::Wireless);
        cfg.wireless = WirelessModel::SharedChannel { mac };
        scenarios.push((format!("shared-channel/{mac:?}"), cfg, 0.0002));
    }
    for (what, cfg, load) in scenarios {
        let plain = Experiment::uniform_random(&cfg, load)
            .run()
            .expect("unobserved run");
        assert!(
            plain.fast_forwarded_cycles > 0,
            "{what}: the scenario must engage fast-forward"
        );
        assert!(plain.packets_delivered() > 0, "{what}: sanity — traffic flowed");
        assert!(plain.telemetry.is_none(), "{what}: telemetry defaults to off");

        let mut observed_cfg = cfg.clone();
        observed_cfg.telemetry = TelemetryConfig::tracing();
        let mut observed = Experiment::uniform_random(&observed_cfg, load)
            .run()
            .expect("observed run");
        let summary = observed
            .telemetry
            .take()
            .unwrap_or_else(|| panic!("{what}: telemetry was enabled"));
        assert!(summary.cycles > 0, "{what}: summary covers the run");
        assert!(!summary.links.is_empty(), "{what}: per-link counters present");

        assert_eq!(
            observed.avg_latency_cycles.unwrap_or(f64::NAN).to_bits(),
            plain.avg_latency_cycles.unwrap_or(f64::NAN).to_bits(),
            "{what}: latency bits moved under observation"
        );
        assert_eq!(
            observed.total_energy_nj().to_bits(),
            plain.total_energy_nj().to_bits(),
            "{what}: energy bits moved under observation"
        );
        // Everything else — counts, percentiles, memory and energy
        // breakdowns — via the full structural comparison.
        assert_eq!(observed, plain, "{what}: telemetry changed the outcome");
    }
}

/// Idle fast-forward must not change what an idle system reports:
/// leakage accrues cycle-exactly even when the cycles are skipped.
#[test]
fn idle_fast_forward_keeps_cycle_exact_leakage() {
    let cfg = quick(Architecture::Substrate);
    let mut a = MultichipSystem::build(&cfg).unwrap();
    let mut b = MultichipSystem::build(&cfg).unwrap();
    // One long idle stretch vs many short ones: same cycle count, same
    // energy bits.
    a.idle(10_000);
    for _ in 0..100 {
        b.idle(100);
    }
    assert_eq!(a.network().now(), b.network().now());
    assert_eq!(
        a.network().meter().total().picojoules().to_bits(),
        b.network().meter().total().picojoules().to_bits(),
        "leakage must be bit-identical regardless of fast-forward chunking"
    );
}

/// Demand-driven generation and sleeping injectors change what the
/// simulator *visits*, never what it simulates.  The driver hands every
/// workload the set of cores whose source queue is full, and
/// `UniformRandom` answers by not drawing for them; hidden behind
/// [`PlainGenerate`] the same workload offers every event and lets
/// `inject_event` refuse.  Both runs must end in the same `RunOutcome`
/// **and** the same serialised `Network::state()` — source queues,
/// round-robin cursors and the injector bitset included — at the three
/// saturation points, under the token MAC (where nearly every injector
/// visit used to find its port full) and with closed-loop reads.
///
/// `Network::assert_switch_invariants` holds every sleeping injector
/// to "its front flit cannot enter": debug builds sweep it every 1024
/// driver cycles inside both runs, and it is called on the finished
/// system here so `--release` checks it too.  Seeded mutation that rule
/// was seen to catch: dropping the `Upstream::Local` wake in
/// `SwitchVisit::traverse` (back to an empty arm).  The first blocked
/// injector then never wakes; since both runs below share the engine
/// they still agree with each other, and a source that never drains
/// leaves nothing in flight for the stall watchdog, so the rule is what
/// fails — at cycle 1024 here in debug, at the end of the run in
/// release, and in seven of the eight `golden_step` chains (which call
/// it explicitly) in both.
#[test]
fn demand_driven_generation_and_sleeping_injectors_are_invisible() {
    let mut token = quick(Architecture::Wireless);
    token.wireless = WirelessModel::SharedChannel { mac: MacKind::Token };
    let saturated = InjectionProcess::Saturation;
    let bernoulli = |rate| InjectionProcess::Bernoulli { rate };
    // (name, system, memory share, injection, memory packets are reads)
    let scenarios = [
        ("wireless-p2p-saturation", quick(Architecture::Wireless), 0.20, saturated, false),
        ("interposer-saturation", quick(Architecture::Interposer), 0.20, saturated, false),
        ("substrate-saturation", quick(Architecture::Substrate), 0.20, saturated, false),
        ("wireless-token-mac-0.002", token, 0.20, bernoulli(0.002), false),
        ("memory-reads-0.016", quick(Architecture::Wireless), 0.90, bernoulli(0.016), true),
    ];
    for (what, cfg, memory, load, reads) in scenarios {
        let workload = UniformRandom::new(
            cfg.multichip.total_cores(),
            cfg.multichip.num_stacks,
            memory,
            load,
            cfg.packet_flits,
            cfg.seed,
        )
        .with_memory_reads(if reads { 1.0 } else { 0.0 }, 8);
        let mut hinted = MultichipSystem::build(&cfg).expect("system builds");
        let hinted_outcome = hinted.run(&mut workload.clone()).expect("hinted run");
        let mut plain = MultichipSystem::build(&cfg).expect("system builds");
        let plain_outcome = plain.run(&mut PlainGenerate(workload)).expect("plain run");

        assert_eq!(hinted_outcome, plain_outcome, "{what}: outcomes diverged");
        assert_eq!(
            serde_json::to_string(&hinted.network().state()).unwrap(),
            serde_json::to_string(&plain.network().state()).unwrap(),
            "{what}: engine state diverged"
        );
        assert!(hinted_outcome.total_packets > 0, "{what}: sanity — traffic flowed");
        hinted.network().assert_switch_invariants();
        if what.ends_with("saturation") {
            // The hint was in force: sources end the run full.
            let cap = cfg.source_queue_packets as u64 * u64::from(cfg.packet_flits);
            let full = hinted
                .layout()
                .core_nodes()
                .iter()
                .filter(|&&n| hinted.network().source_backlog_at(n) >= cap)
                .count();
            assert!(full > 32, "{what}: only {full} of 64 sources ended full");
        }
    }
}
