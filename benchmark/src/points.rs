//! The benchmark's inputs: every simulation point of every workload,
//! generated from `--seed`.
//!
//! The simulator receives only what is built here — `SystemConfig`s,
//! workload objects and scenario grids.  All points are the paper's
//! 4C4M package.  `quick` shrinks the windows (never the point list) for
//! the smoke run.

use crate::api::{
    profiles, AddressStreamSpec, AppWorkload, Architecture, Experiment, InjectionProcess, MacKind,
    MultichipLayout, Scale, ScenarioGrid, SchedulerPolicy, SystemConfig, UniformRandom,
    WirelessModel, Workload,
};

/// `--seed` default: the paper configuration's own seed, the one
/// `golden.json` is recorded for.
pub const DEFAULT_SEED: u64 = 0x5177;

/// The five workloads, in run order.
pub const WORKLOADS: [&str; 5] = [
    "loaded_oneway",
    "memory_reads",
    "idle_ff",
    "sweep_batched",
    "persist",
];

/// Memory share of the one-way workloads (the paper's 20 %).
const ONEWAY_MEMORY_SHARE: f64 = 0.20;
/// Memory share of the closed-loop read workloads.
const READS_MEMORY_SHARE: f64 = 0.90;

/// What traffic a point drives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// One-way uniform random, Bernoulli `load` packets/core/cycle,
    /// 20 % memory share.
    Oneway { load: f64 },
    /// One-way uniform random at saturation, 20 % memory share.
    Saturation,
    /// Closed-loop reads: 90 % memory share, every memory packet a read
    /// request answered by a full data reply.
    Reads { load: f64 },
    /// The blackscholes application model.
    Blackscholes,
}

/// One solo simulation: a configuration plus its traffic.
#[derive(Debug, Clone)]
pub struct SimPoint {
    /// Stable identifier, unique within its workload.
    pub id: String,
    pub config: SystemConfig,
    pub traffic: Traffic,
}

impl SimPoint {
    /// Simulated cycles of one run (warmup + measurement window).
    pub fn cycles(&self) -> u64 {
        self.config.warmup_cycles + self.config.measure_cycles
    }

    /// Builds the workload object the way `Experiment::build_workload`
    /// does (it is crate-private): memory-affinity bias over the
    /// layout's home stacks — which costs a layout build, as it does
    /// there — and read requests of an eighth of a data packet.
    pub fn workload(&self) -> Box<dyn Workload> {
        let cfg = &self.config;
        let cores = cfg.multichip.total_cores();
        let stacks = cfg.multichip.num_stacks;
        let uniform = |memory_fraction: f64, injection: InjectionProcess| {
            let w = UniformRandom::new(
                cores,
                stacks,
                memory_fraction,
                injection,
                cfg.packet_flits,
                cfg.seed,
            );
            if cfg.memory_affinity_bias > 0.0 {
                let home = MultichipLayout::build(&cfg.multichip)
                    .map(|l| l.home_stacks())
                    .unwrap_or_default();
                w.with_memory_affinity(cfg.memory_affinity_bias, home)
            } else {
                w
            }
        };
        match self.traffic {
            Traffic::Oneway { load } => Box::new(uniform(
                ONEWAY_MEMORY_SHARE,
                InjectionProcess::Bernoulli { rate: load },
            )),
            Traffic::Saturation => {
                Box::new(uniform(ONEWAY_MEMORY_SHARE, InjectionProcess::Saturation))
            }
            Traffic::Reads { load } => Box::new(
                uniform(
                    READS_MEMORY_SHARE,
                    InjectionProcess::Bernoulli { rate: load },
                )
                .with_memory_reads(1.0, (cfg.packet_flits / 8).max(1)),
            ),
            Traffic::Blackscholes => Box::new(AppWorkload::new(
                profiles::blackscholes(),
                cfg.multichip.num_chips,
                cfg.multichip.cores_per_chip,
                stacks,
                cfg.seed,
            )),
        }
    }

    /// The same point through the crate's own `Experiment` constructors
    /// — the reference the mirrored construction is tested against.
    pub fn experiment(&self) -> Experiment {
        match self.traffic {
            Traffic::Oneway { load } => Experiment::uniform_random(&self.config, load),
            Traffic::Saturation => Experiment::saturation(&self.config, ONEWAY_MEMORY_SHARE),
            Traffic::Reads { load } => {
                Experiment::memory_reads(&self.config, load, READS_MEMORY_SHARE)
            }
            Traffic::Blackscholes => Experiment::app(&self.config, profiles::blackscholes()),
        }
    }
}

/// 4C4M at the paper window (quick: the crate's quick test profile).
fn paper(arch: Architecture, seed: u64, quick: bool) -> SystemConfig {
    let mut cfg = SystemConfig::xcym(4, 4, arch);
    cfg.seed = seed;
    if quick {
        cfg.quick_test_profile()
    } else {
        cfg
    }
}

/// 4C4M over a long window of `cycles` total (quick: a tenth of it).
fn long_window(arch: Architecture, seed: u64, cycles: u64, quick: bool) -> SystemConfig {
    let mut cfg = SystemConfig::xcym(4, 4, arch);
    cfg.seed = seed;
    let (warmup, total) = if quick {
        (300, cycles / 10)
    } else {
        (1_000, cycles)
    };
    cfg.warmup_cycles = warmup;
    cfg.measure_cycles = total - warmup;
    cfg
}

fn with_wireless(mut cfg: SystemConfig, model: WirelessModel) -> SystemConfig {
    cfg.wireless = model;
    cfg
}

const TOKEN: WirelessModel = WirelessModel::SharedChannel {
    mac: MacKind::Token,
};
const CONTROL: WirelessModel = WirelessModel::SharedChannel {
    mac: MacKind::ControlPacket,
};
const PARALLEL: WirelessModel = WirelessModel::ParallelLinks {
    flits_per_cycle: 1.0,
};

/// `loaded_oneway`: 11 points with traffic always in flight.
pub fn loaded_oneway(seed: u64, quick: bool) -> Vec<SimPoint> {
    use Architecture::{Interposer, Substrate, Wireless};
    let point = |id: &str, config: SystemConfig, traffic: Traffic| SimPoint {
        id: id.to_string(),
        config,
        traffic,
    };
    let cfg = |arch| paper(arch, seed, quick);
    vec![
        point(
            "wireless-p2p-0.002",
            cfg(Wireless),
            Traffic::Oneway { load: 0.002 },
        ),
        point(
            "wireless-p2p-0.016",
            cfg(Wireless),
            Traffic::Oneway { load: 0.016 },
        ),
        point(
            "wireless-p2p-saturation",
            cfg(Wireless),
            Traffic::Saturation,
        ),
        point(
            "interposer-0.002",
            cfg(Interposer),
            Traffic::Oneway { load: 0.002 },
        ),
        point(
            "interposer-0.016",
            cfg(Interposer),
            Traffic::Oneway { load: 0.016 },
        ),
        point(
            "interposer-saturation",
            cfg(Interposer),
            Traffic::Saturation,
        ),
        point(
            "substrate-0.004",
            cfg(Substrate),
            Traffic::Oneway { load: 0.004 },
        ),
        point("substrate-saturation", cfg(Substrate), Traffic::Saturation),
        point(
            "wireless-control-mac-0.002",
            with_wireless(cfg(Wireless), CONTROL),
            Traffic::Oneway { load: 0.002 },
        ),
        point(
            "wireless-token-mac-0.002",
            with_wireless(cfg(Wireless), TOKEN),
            Traffic::Oneway { load: 0.002 },
        ),
        point(
            "wireless-parallel-0.008",
            with_wireless(cfg(Wireless), PARALLEL),
            Traffic::Oneway { load: 0.008 },
        ),
    ]
}

/// `memory_reads`: 5 closed-loop request → reply points.
pub fn memory_reads(seed: u64, quick: bool) -> Vec<SimPoint> {
    use Architecture::{Interposer, Wireless};
    let point = |id: &str,
                 arch: Architecture,
                 load: f64,
                 stream: AddressStreamSpec,
                 scheduler: SchedulerPolicy| {
        let mut config = paper(arch, seed, quick);
        config.address_stream = stream;
        config.mem_controller.scheduler = scheduler;
        SimPoint {
            id: id.to_string(),
            config,
            traffic: Traffic::Reads { load },
        }
    };
    let uniform = AddressStreamSpec::Uniform {
        region_blocks: 1 << 20,
    };
    let hot_row = AddressStreamSpec::HotRow {
        region_blocks: 1 << 20,
        hot_blocks: 64,
        hot_fraction: 0.9,
    };
    vec![
        point(
            "wireless-0.016-seq-frfcfs",
            Wireless,
            0.016,
            AddressStreamSpec::Sequential,
            SchedulerPolicy::FrFcfs,
        ),
        point(
            "wireless-0.016-uniform-frfcfs",
            Wireless,
            0.016,
            uniform,
            SchedulerPolicy::FrFcfs,
        ),
        point(
            "wireless-0.016-uniform-fcfs",
            Wireless,
            0.016,
            uniform,
            SchedulerPolicy::Fcfs,
        ),
        point(
            "interposer-0.016-hotrow-frfcfs",
            Interposer,
            0.016,
            hot_row,
            SchedulerPolicy::FrFcfs,
        ),
        point(
            "wireless-0.004-seq-frfcfs",
            Wireless,
            0.004,
            AddressStreamSpec::Sequential,
            SchedulerPolicy::FrFcfs,
        ),
    ]
}

/// Seeds per `idle_ff` configuration: single realizations at these
/// loads carry ±20 % packet-count noise.
const IDLE_SEEDS: u64 = 4;

/// `idle_ff`: 4 seeds × 8 mostly-skipped runs.
pub fn idle_ff(seed: u64, quick: bool) -> Vec<SimPoint> {
    use Architecture::{Interposer, Wireless};
    let mut points = Vec::new();
    for s in 0..IDLE_SEEDS {
        let seed = seed.wrapping_add(s);
        let mut point = |id: &str, config: SystemConfig, traffic: Traffic| {
            points.push(SimPoint {
                id: format!("{id}-s{s}"),
                config,
                traffic,
            });
        };
        let long = |cycles| long_window(Wireless, seed, cycles, quick);
        point(
            "token-1e-5-200k",
            with_wireless(long(200_000), TOKEN),
            Traffic::Oneway { load: 1e-5 },
        );
        point(
            "control-1e-5-200k",
            with_wireless(long(200_000), CONTROL),
            Traffic::Oneway { load: 1e-5 },
        );
        point(
            "token-1e-6-2m",
            with_wireless(long(2_000_000), TOKEN),
            Traffic::Oneway { load: 1e-6 },
        );
        point(
            "control-1e-6-2m",
            with_wireless(long(2_000_000), CONTROL),
            Traffic::Oneway { load: 1e-6 },
        );
        point(
            "blackscholes-parallel-100k",
            with_wireless(long(100_000), PARALLEL),
            Traffic::Blackscholes,
        );
        point(
            "reads-5e-5-parallel-200k",
            with_wireless(long(200_000), PARALLEL),
            Traffic::Reads { load: 5e-5 },
        );
        point(
            "anchor-1e-4-wireless-200k",
            long(200_000),
            Traffic::Oneway { load: 1e-4 },
        );
        point(
            "anchor-1e-4-interposer-200k",
            long_window(Interposer, seed, 200_000, quick),
            Traffic::Oneway { load: 1e-4 },
        );
    }
    points
}

fn scale(quick: bool) -> Scale {
    if quick {
        Scale::Quick
    } else {
        Scale::Paper
    }
}

/// `sweep_batched`: the 18-point figure grid (3 architectures × 6 loads).
pub fn sweep_grid(seed: u64, quick: bool) -> ScenarioGrid {
    ScenarioGrid::new("sweep_batched")
        .scale(scale(quick))
        .architectures(&Architecture::ALL)
        .loads(&[0.001, 0.002, 0.004, 0.008, 0.016, 0.032])
        .seeds(&[seed])
}

/// `persist`: the 96-point quick-scale catalog grid (3 architectures ×
/// 4 loads × 8 seeds).
pub fn persist_grid(seed: u64) -> ScenarioGrid {
    let seeds: Vec<u64> = (0..8).map(|s| seed.wrapping_add(s)).collect();
    ScenarioGrid::new("persist")
        .scale(Scale::Quick)
        .architectures(&Architecture::ALL)
        .loads(&[0.001, 0.002, 0.004, 0.008])
        .seeds(&seeds)
}

/// Load of the `persist` checkpointed points.
pub const CHECKPOINT_LOAD: f64 = 0.004;

/// `persist`: the three checkpointed points (one per architecture at
/// [`CHECKPOINT_LOAD`], quick scale, a snapshot every 150 cycles).
pub fn persist_checkpoint_grid(seed: u64) -> ScenarioGrid {
    ScenarioGrid::new("persist-checkpoint")
        .scale(Scale::Quick)
        .architectures(&Architecture::ALL)
        .loads(&[CHECKPOINT_LOAD])
        .seeds(&[seed])
        .checkpoint_every(150)
}
