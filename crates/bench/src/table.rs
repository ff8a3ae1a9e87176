//! The figure table: the paper's Figs 2–6, then the ablations and the
//! extended studies beyond the paper (`docs/experiments.md` has one
//! section per row).
//!
//! Every row function builds its full experiment list, runs it on the
//! pool once and formats the outcomes in place: a [`ScenarioGrid`] where
//! the sweep is over grid axes (Figs 2–5, `scaling_study`), an explicit
//! `Vec<Experiment>` where it is not (Fig 6's application profiles,
//! permutation patterns, BER, packet size, routing policy, WI density,
//! MAC).  `saturation_points` is the exception — an adaptive bisection
//! cannot list its points up front.  This module is the one place a
//! figure's outcomes become output.

use wimnet_core::report::fmt_opt;
use wimnet_core::sweeps::{default_threads, run_pool, run_pool_each};
use wimnet_core::{
    find_saturation_load, CoreError, Experiment, MacKind, RunOutcome, Scale, ScenarioGrid,
    SystemConfig, WirelessModel,
};
use wimnet_routing::{deadlock, Routes, RoutingPolicy};
use wimnet_topology::{Architecture, MultichipLayout};
use wimnet_traffic::{profiles, TrafficPattern};
use wimnet_wireless::{flit_error_probability, TransceiverSpec};

use crate::{Figure, Table};

/// Every figure `figures all` regenerates, in order.
pub static FIGURES: [Figure; 13] = [
    Figure {
        name: "fig2",
        title: "Fig 2 — peak bandwidth per core & average packet energy (4C4M)",
        headers: &["architecture", "peak bandwidth/core (Gbps)", "avg packet energy (nJ)"],
        csv_headers: &["architecture", "peak_bandwidth_gbps_per_core", "avg_packet_energy_nj"],
        note: "paper shape: Wireless highest bandwidth / lowest energy; \
               Interposer beats Substrate on both.",
        rows: fig2,
        trace_point: None,
    },
    Figure {
        name: "fig3",
        title: "Fig 3 — average packet latency vs injection load (4C4M)",
        // `fig3` adds one latency column per series, named by its label.
        headers: &["load (pkt/core/cycle)"],
        csv_headers: &["load (pkt/core/cycle)"],
        note: "paper shape: Wireless lowest latency at every load (shortest \
               average paths); Substrate saturates earliest.",
        rows: fig3,
        trace_point: None,
    },
    Figure {
        name: "fig4",
        title: "Fig 4 — % gain (Wireless vs Interposer) vs chip-to-chip traffic",
        headers: &[
            "configuration",
            "off-chip traffic (%)",
            "bandwidth gain (%)",
            "energy gain (%)",
        ],
        csv_headers: &[
            "configuration",
            "off_chip_traffic_pct",
            "bandwidth_gain_pct",
            "energy_gain_pct",
        ],
        note: "paper shape: wireless wins at every disintegration level \
               (the paper further reports gains shrinking with chip count; see \
               docs/experiments.md for where and why this reproduction diverges).",
        rows: fig4,
        trace_point: None,
    },
    Figure {
        name: "fig5",
        title: "Fig 5 — % gain (Wireless vs Interposer) vs memory accesses",
        headers: &["memory access", "bandwidth gain (%)", "energy gain (%)"],
        csv_headers: &["memory_access_pct", "bandwidth_gain_pct", "energy_gain_pct"],
        note: "paper shape: wireless wins at every memory share; the paper's \
               gains fall toward ~10%/35% asymptotes while this reproduction's \
               energy gain rises with memory share (see docs/experiments.md: the \
               trend in the paper is inconsistent with its own 6.5 pJ/bit wide \
               I/O vs 2.3 pJ/bit wireless constants).",
        rows: fig5,
        trace_point: None,
    },
    Figure {
        name: "fig6",
        title: "Fig 6 — % gain (Wireless vs Interposer), application traffic (4C4M)",
        headers: &["application", "suite", "latency gain (%)", "energy gain (%)"],
        csv_headers: &["application", "suite", "latency_gain_pct", "energy_gain_pct"],
        note: "paper: average reductions of 54% (latency) and 45% (energy).",
        rows: fig6,
        trace_point: None,
    },
    Figure {
        name: "ablation_ber",
        title: "Ablation — wireless bit error rate (4C4M, serialized MAC)",
        headers: &["BER", "flit error prob", "delivered", "latency (cycles)", "energy/pkt (nJ)"],
        csv_headers: &["ber", "flit_error_prob", "delivered", "latency_cycles", "energy_nj"],
        note: "reading: the paper's 1e-15 operating point has astronomically \
               low flit error probability; the MAC tolerates errors gracefully \
               until the per-flit error probability reaches percents.",
        rows: ablation_ber,
        trace_point: None,
    },
    Figure {
        name: "ablation_mac",
        title: "Ablation — wireless channel models and MACs (4C4M)",
        headers: &[
            "channel model",
            "delivered bw/core (Gbps)",
            "avg latency (cycles)",
            "energy/packet (nJ)",
        ],
        csv_headers: &[
            "channel_model",
            "bandwidth_gbps_per_core",
            "avg_latency_cycles",
            "energy_nj",
        ],
        note: "reading: the serialized §III.D channel cannot sustain what the \
               evaluation model delivers; sleepy receivers cut packet energy; \
               the token MAC pays latency for whole-packet transfers.",
        rows: ablation_mac,
        trace_point: Some(ablation_mac_trace_point),
    },
    Figure {
        name: "ablation_packet_size",
        title: "Ablation — packet size (4C4M, saturation, 20% memory)",
        headers: &[
            "packet size",
            "ip bw/core (Gbps)",
            "ip energy (nJ)",
            "wl bw/core (Gbps)",
            "wl energy (nJ)",
        ],
        csv_headers: &["packet_size", "ip_bw", "ip_energy_nj", "wl_bw", "wl_energy_nj"],
        note: "reading: the wireless advantage is robust across packet sizes; \
               per-packet energy scales roughly linearly with length on both \
               fabrics (per-bit costs dominate).",
        rows: ablation_packet_size,
        trace_point: None,
    },
    Figure {
        name: "ablation_routing",
        title: "Ablation — routing policy (4C4M Wireless)",
        headers: &[
            "policy",
            "avg hops",
            "channel dependency graph",
            "bw/core (Gbps)",
            "latency (cycles)",
        ],
        csv_headers: &["policy", "avg_hops", "cdg", "bandwidth_gbps_per_core", "latency_cycles"],
        note: "reading: up*/down* recovers most of shortest-path's distance \
               while keeping the dependency graph acyclic; pure tree routing \
               pays heavily in hops and congestion.",
        rows: ablation_routing,
        trace_point: None,
    },
    Figure {
        name: "ablation_wi_density",
        title: "Ablation — WI density (1C4M, 64 cores)",
        headers: &["density", "WIs", "area (mm^2)", "bw/core (Gbps)", "energy/packet (nJ)"],
        csv_headers: &["density", "wis", "area_mm2", "bandwidth_gbps_per_core", "energy_nj"],
        note: "reading: beyond ~1 WI / 16 cores the extra transceiver area \
               buys little — the paper's chosen density.",
        rows: ablation_wi_density,
        trace_point: None,
    },
    Figure {
        name: "extended_patterns",
        title: "Extended — permutation patterns (4C4M, 20% memory)",
        headers: &["pattern", "ip lat", "ip nJ", "wl lat", "wl nJ", "lat gain", "energy gain"],
        csv_headers: &[
            "pattern",
            "ip_lat",
            "ip_nj",
            "wl_lat",
            "wl_nj",
            "lat_gain",
            "energy_gain",
        ],
        note: "reading: bisection-bound permutations (transpose, bit-complement) \
               profit most from single-hop wireless; neighbour traffic, which \
               never leaves the chip, profits least.",
        rows: extended_patterns,
        trace_point: None,
    },
    Figure {
        name: "saturation_points",
        title: "Saturation points — load where latency reaches 3x zero-load",
        headers: &[
            "architecture",
            "saturation load (pkt/core/cycle)",
            "offered at saturation (Gbps/core x packet)",
        ],
        csv_headers: &["architecture", "saturation_load", "offered_gbps"],
        note: "note: the substrate is omitted — its measured latency plateaus \
               from survivor bias past saturation, so the threshold criterion \
               cannot bracket it (see docs/experiments.md, Fig 3).",
        rows: saturation_points,
        trace_point: None,
    },
    Figure {
        name: "scaling_study",
        title: "Extended — chiplet scaling at constant compute (64 cores)",
        headers: &[
            "configuration",
            "ip bw/core (Gbps)",
            "ip energy (nJ)",
            "wl bw/core (Gbps)",
            "wl energy (nJ)",
        ],
        csv_headers: &["configuration", "ip_bw", "ip_energy_nj", "wl_bw", "wl_energy_nj"],
        note: "reading: interposer efficiency decays with every extra boundary \
               a packet must cross; wireless holds its single-hop energy nearly \
               flat — the paper's core scalability argument, extended to 16 \
               chiplets.",
        rows: scaling_study,
        trace_point: None,
    },
];

/// The interposer baseline, then wireless: the column order of the
/// two-fabric ablation and extended tables.
const IP_THEN_WL: [Architecture; 2] = [Architecture::Interposer, Architecture::Wireless];

/// The two fabrics Figs 4–6 compare, wireless first.
const WL_THEN_IP: [Architecture; 2] = [Architecture::Wireless, Architecture::Interposer];

/// Percentage gain of `candidate` over `baseline` for a
/// higher-is-better metric: `(candidate − baseline) / baseline × 100`.
///
/// # Panics
///
/// Panics if `baseline` is not a positive finite number.
fn percentage_gain(baseline: f64, candidate: f64) -> f64 {
    assert!(baseline > 0.0 && baseline.is_finite(), "baseline must be positive, got {baseline}");
    (candidate - baseline) / baseline * 100.0
}

/// Percentage *reduction* of `candidate` under `baseline` for a
/// lower-is-better metric (energy, latency): the paper's "% gain in
/// packet energy/latency".
///
/// # Panics
///
/// Panics if `baseline` is not a positive finite number.
fn percentage_reduction(baseline: f64, candidate: f64) -> f64 {
    assert!(baseline > 0.0 && baseline.is_finite(), "baseline must be positive, got {baseline}");
    (baseline - candidate) / baseline * 100.0
}

/// One pooled run that keeps each experiment's own result, for the
/// tables that print a failed point as a cell.
fn run_each(experiments: &[Experiment]) -> Vec<Result<RunOutcome, CoreError>> {
    run_pool_each(experiments, default_threads(), 1)
}

fn fig2(scale: Scale) -> Result<Table, CoreError> {
    let grid = ScenarioGrid::new("fig2").scale(scale).architectures(&Architecture::ALL);
    Ok(grid
        .run()?
        .iter()
        .map(|o| {
            vec![
                o.label.clone(),
                format!("{:.2}", o.bandwidth_gbps_per_core),
                format!("{:.2}", o.packet_energy_nj()),
            ]
        })
        .collect())
}

fn fig3(scale: Scale) -> Result<Table, CoreError> {
    // The paper's log-spaced injection loads (packets/core/cycle).
    let loads: &[f64] = match scale {
        Scale::Paper => &[0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064, 0.125],
        Scale::Quick => &[0.001, 0.008, 0.064],
    };
    let grid =
        ScenarioGrid::new("fig3").scale(scale).architectures(&Architecture::ALL).loads(loads);
    let outcomes = grid.run()?;
    // Architecture is the slow axis: one `loads.len()` chunk per curve.
    let curves: Vec<&[RunOutcome]> = outcomes.chunks(loads.len()).collect();
    let series_headers = curves.iter().map(|c| format!("{} (cycles)", c[0].label)).collect();
    let rows = loads
        .iter()
        .enumerate()
        .map(|(i, load)| {
            let mut row = vec![format!("{load:.3}")];
            row.extend(curves.iter().map(|c| fmt_opt(c[i].avg_latency_cycles, 1)));
            row
        })
        .collect();
    Ok(Table { rows, series_headers, trailer: None })
}

/// Runs `grid` — one swept axis — on both fabrics in one pooled run and
/// returns, per axis value, the `(bandwidth gain, packet-energy
/// reduction)` of wireless over interposer in percent: the two bars of
/// Figs 4 and 5.
fn gains_over(grid: ScenarioGrid) -> Result<Vec<(f64, f64)>, CoreError> {
    let outcomes = grid.architectures(&WL_THEN_IP).run()?;
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

fn fig4(scale: Scale) -> Result<Table, CoreError> {
    let chips = [1usize, 4, 8];
    let gains = gains_over(ScenarioGrid::new("fig4").scale(scale).chips(&chips))?;
    Ok(chips
        .iter()
        .zip(gains)
        .map(|(&chips, (bandwidth, energy))| {
            // The expected off-chip share of an `XC4M` system at 20 %
            // memory traffic: every memory packet, plus the core packets
            // addressed to one of the 64 − 64/X cores off the source chip.
            let cores = 64.0;
            let other = cores - cores / chips as f64;
            let off = (0.20 + 0.80 * (other / (cores - 1.0))) * 100.0;
            vec![
                format!("{:.0}% ({}C4M)", off.round(), chips),
                format!("{off:.1}"),
                format!("{bandwidth:+.1}"),
                format!("{energy:+.1}"),
            ]
        })
        .collect())
}

fn fig5(scale: Scale) -> Result<Table, CoreError> {
    let fractions: &[f64] = match scale {
        Scale::Paper => &[0.20, 0.40, 0.60, 0.80],
        Scale::Quick => &[0.20, 0.80],
    };
    let gains = gains_over(ScenarioGrid::new("fig5").scale(scale).memory_fractions(fractions))?;
    Ok(fractions
        .iter()
        .zip(gains)
        .map(|(mem, (bandwidth, energy))| {
            vec![
                format!("{:.0}%", mem * 100.0),
                format!("{bandwidth:+.1}"),
                format!("{energy:+.1}"),
            ]
        })
        .collect())
}

fn fig6(scale: Scale) -> Result<Table, CoreError> {
    let apps = match scale {
        Scale::Paper => profiles::all(),
        Scale::Quick => {
            vec![profiles::blackscholes(), profiles::canneal(), profiles::fft(), profiles::radix()]
        }
    };
    // Application profiles are not a grid axis: the list is explicit,
    // one (wireless, interposer) pair per application.
    let experiments: Vec<Experiment> = apps
        .iter()
        .flat_map(|profile| {
            WL_THEN_IP.map(|arch| {
                Experiment::app(&scale.apply(SystemConfig::xcym(4, 4, arch)), profile.clone())
            })
        })
        .collect();
    let gains: Vec<(f64, f64)> = run_pool(&experiments, default_threads(), 1)?
        .chunks(2)
        .map(|pair| {
            let (w, i) = (&pair[0], &pair[1]);
            (
                percentage_reduction(i.latency_cycles(), w.latency_cycles()),
                percentage_reduction(i.packet_energy_nj(), w.packet_energy_nj()),
            )
        })
        .collect();
    let mean = |gain: fn(&(f64, f64)) -> f64| {
        gains.iter().map(gain).sum::<f64>() / gains.len() as f64
    };
    let trailer = format!(
        "average gains: latency {:+.1}%, energy {:+.1}%",
        mean(|g| g.0),
        mean(|g| g.1)
    );
    let rows = apps
        .iter()
        .zip(&gains)
        .map(|(profile, (latency, energy))| {
            vec![
                profile.name.to_string(),
                profile.suite.to_string(),
                format!("{latency:+.1}"),
                format!("{energy:+.1}"),
            ]
        })
        .collect();
    Ok(Table { rows, series_headers: Vec::new(), trailer: Some(trailer) })
}

/// The paper's link budget puts the wireless BER below 10⁻¹⁵ (§IV), so
/// retransmissions never appear in its results.  This sweep degrades the
/// channel artificially to show where the control-packet MAC's
/// stop-and-wait retransmission starts to cost real latency — the
/// robustness margin of the design.
fn ablation_ber(scale: Scale) -> Result<Table, CoreError> {
    let bers = [1e-15, 1e-6, 1e-4, 1e-3, 5e-3];
    let experiments: Vec<Experiment> = bers
        .iter()
        .map(|&ber| {
            let mut cfg = scale.apply(SystemConfig::xcym(4, 4, Architecture::Wireless));
            cfg.wireless = WirelessModel::SharedChannel { mac: MacKind::ControlPacket };
            cfg.ber = ber;
            // Short packets at a load the serialized 16 Gbps channel can
            // actually carry (~half its capacity), so the retransmission
            // effect is visible in the cross-chip latencies.
            cfg.packet_flits = 16;
            Experiment::uniform_random(&cfg, 1e-4)
        })
        .collect();
    Ok(experiments
        .iter()
        .zip(run_each(&experiments))
        .map(|(experiment, outcome)| {
            let cfg = experiment.config();
            let mut row = vec![
                format!("{:.0e}", cfg.ber),
                format!("{:.2e}", flit_error_probability(cfg.ber, cfg.flit_bits)),
            ];
            row.extend(match outcome {
                Ok(o) => [
                    o.packets_delivered().to_string(),
                    fmt_opt(o.avg_latency_cycles, 1),
                    fmt_opt(o.avg_packet_energy_nj, 2),
                ],
                Err(e) => ["stalled".into(), e.to_string(), "-".into()],
            });
            row
        })
        .collect())
}

/// The channel models × MAC choices of `ablation_mac`, as `(table name,
/// model, sleepy receivers)`: how much of the paper's claimed gain
/// survives progressively more faithful channel models?
///
/// * point-to-point — concurrent per-pair links (the evaluation model
///   behind the paper's §IV magnitudes; default for the figures).
/// * parallel — concurrent transfers but per-WI transceiver
///   serialisation at 16 Gbps.
/// * control-packet MAC — the literal §III.D protocol on one shared
///   16 Gbps channel, partial packets, sleepy receivers; with the
///   receivers kept awake for the sleepy on/off comparison that is part
///   of §III.D's motivation.
/// * token MAC — the baseline of ref \[7\]: whole packets only, deep WI
///   buffers, no sleep.
const MAC_VARIANTS: [(&str, WirelessModel, bool); 5] = [
    (
        "point-to-point links",
        WirelessModel::PointToPoint { flits_per_cycle: 1.0, max_concurrent: 16 },
        true,
    ),
    ("parallel per-WI links", WirelessModel::ParallelLinks { flits_per_cycle: 1.0 }, true),
    (
        "shared channel, control MAC (sleepy)",
        WirelessModel::SharedChannel { mac: MacKind::ControlPacket },
        true,
    ),
    (
        "shared channel, control MAC (no sleep)",
        WirelessModel::SharedChannel { mac: MacKind::ControlPacket },
        false,
    ),
    ("shared channel, token MAC", WirelessModel::SharedChannel { mac: MacKind::Token }, true),
];

fn mac_experiment(scale: Scale, (_, wireless, sleepy): (&str, WirelessModel, bool)) -> Experiment {
    let mut cfg = scale.apply(SystemConfig::xcym(4, 4, Architecture::Wireless));
    cfg.wireless = wireless;
    cfg.sleepy_receivers = sleepy;
    // A light load the serialized 16 Gbps channel can still carry, so
    // the comparison is apples-to-apples.
    Experiment::uniform_random(&cfg, 0.002)
}

fn ablation_mac(scale: Scale) -> Result<Table, CoreError> {
    let experiments: Vec<Experiment> =
        MAC_VARIANTS.iter().map(|&variant| mac_experiment(scale, variant)).collect();
    Ok(MAC_VARIANTS
        .iter()
        .zip(run_each(&experiments))
        .map(|((name, ..), outcome)| {
            let mut row = vec![name.to_string()];
            row.extend(match outcome {
                Ok(o) => [
                    format!("{:.2}", o.bandwidth_gbps_per_core),
                    fmt_opt(o.avg_latency_cycles, 1),
                    fmt_opt(o.avg_packet_energy_nj, 2),
                ],
                Err(e) => ["stalled".into(), e.to_string(), "-".into()],
            });
            row
        })
        .collect())
}

/// `--trace` records the paper's own protocol run — the sleepy
/// control-packet MAC.  Observation never moves an outcome bit
/// (`docs/observability.md`), so the table row is the unobserved run's.
fn ablation_mac_trace_point(scale: Scale) -> Experiment {
    mac_experiment(scale, MAC_VARIANTS[2])
}

/// §IV fixes "a moderate packet size of 64 flits"; this sweep shows how
/// the wireless-vs-interposer comparison depends on that choice (shorter
/// packets amortise the per-packet control overhead worse; longer ones
/// serialise longer on every slow link).
fn ablation_packet_size(scale: Scale) -> Result<Table, CoreError> {
    let sizes = [16u32, 32, 64, 128];
    let experiments: Vec<Experiment> = sizes
        .iter()
        .flat_map(|&flits| {
            IP_THEN_WL.map(|arch| {
                let mut cfg = scale.apply(SystemConfig::xcym(4, 4, arch));
                cfg.packet_flits = flits;
                Experiment::saturation(&cfg, 0.20)
            })
        })
        .collect();
    Ok(sizes
        .iter()
        .zip(run_pool(&experiments, default_threads(), 1)?.chunks(2))
        .map(|(flits, pair)| {
            let mut row = vec![format!("{flits} flits")];
            for o in pair {
                row.push(format!("{:.2}", o.bandwidth_gbps_per_core));
                row.push(format!("{:.2}", o.packet_energy_nj()));
            }
            row
        })
        .collect())
}

/// The paper routes on Dijkstra shortest paths and argues deadlock
/// freedom via a tree (§III.C).  This sweep compares the three
/// formalisations on the 4C4M wireless system: pure tree routing (the
/// literal argument), up*/down* (deadlock-free, uses all links — the
/// reproduction default) and unrestricted shortest paths (verified
/// per-topology; deadlocks on some architectures, see `wimnet-routing`'s
/// CDG checker).
fn ablation_routing(scale: Scale) -> Result<Table, CoreError> {
    let policies = [
        ("tree", RoutingPolicy::tree()),
        ("up*/down*", RoutingPolicy::up_down()),
        ("shortest-path", RoutingPolicy::shortest_path()),
    ];
    let experiments: Vec<Experiment> = policies
        .iter()
        .map(|&(_, policy)| {
            let mut cfg = scale.apply(SystemConfig::xcym(4, 4, Architecture::Wireless));
            cfg.routing = policy;
            Experiment::uniform_random(&cfg, 0.002)
        })
        .collect();
    experiments
        .iter()
        .zip(run_each(&experiments))
        .zip(policies)
        .map(|((experiment, outcome), (name, policy))| {
            // The deadlock audit: the CDG proof for this exact topology.
            let layout = MultichipLayout::build(&experiment.config().multichip)?;
            let routes = Routes::build(layout.graph(), policy)?;
            let cyclic = deadlock::find_cycle(layout.graph(), &routes).is_some();
            let (bandwidth, latency) = match outcome {
                Ok(o) => (
                    format!("{:.2}", o.bandwidth_gbps_per_core),
                    fmt_opt(o.avg_latency_cycles, 1),
                ),
                Err(e) => ("stalled".into(), e.to_string()),
            };
            Ok(vec![
                name.to_string(),
                format!("{:.2}", routes.average_hops()?),
                if cyclic { "cyclic (unsafe)" } else { "acyclic (safe)" }.to_string(),
                bandwidth,
                latency,
            ])
        })
        .collect()
}

/// "We avoid using a very high WI density such as 1 WI per core, as it
/// will increase the area overhead and potentially reduce performance
/// due to increased contention on the shared wireless channel" (§III.A).
/// This sweep quantifies the trade-off on the 1C4M system (where density
/// can vary freely): more WIs shorten collection paths but share the
/// same band capacity and add 0.3 mm² each.
fn ablation_wi_density(scale: Scale) -> Result<Table, CoreError> {
    let densities = [8usize, 16, 32, 64];
    let experiments: Vec<Experiment> = densities
        .iter()
        .map(|&cores_per_wi| {
            let mut cfg = scale.apply(SystemConfig::xcym(1, 4, Architecture::Wireless));
            cfg.multichip.cores_per_wi = cores_per_wi;
            Experiment::saturation(&cfg, 0.20)
        })
        .collect();
    let spec = TransceiverSpec::paper();
    Ok(experiments
        .iter()
        .zip(run_pool(&experiments, default_threads(), 1)?)
        .map(|(experiment, o)| {
            let chip = &experiment.config().multichip;
            let wis = 64 / chip.cores_per_wi + chip.num_stacks;
            vec![
                format!("1 WI / {} cores", chip.cores_per_wi),
                wis.to_string(),
                format!("{:.2}", spec.total_area_mm2(wis)),
                format!("{:.2}", o.bandwidth_gbps_per_core),
                format!("{:.2}", o.packet_energy_nj()),
            ]
        })
        .collect())
}

/// The paper evaluates uniform random and application traffic only.
/// Permutations stress specific resources — transpose and bit-complement
/// hammer the bisection, hotspot concentrates on a few ejection ports —
/// and show where single-hop wireless links help most.
fn extended_patterns(scale: Scale) -> Result<Table, CoreError> {
    let patterns = [
        TrafficPattern::Transpose,
        TrafficPattern::BitComplement,
        TrafficPattern::BitReverse,
        TrafficPattern::Shuffle,
        TrafficPattern::Neighbor,
        TrafficPattern::Hotspot { spots: vec![0, 21, 42, 63], fraction: 0.5 },
    ];
    let experiments: Vec<Experiment> = patterns
        .iter()
        .flat_map(|pattern| {
            IP_THEN_WL.map(|arch| {
                let cfg = scale.apply(SystemConfig::xcym(4, 4, arch));
                Experiment::pattern(&cfg, pattern.clone(), 0.004)
            })
        })
        .collect();
    Ok(patterns
        .iter()
        .zip(run_pool(&experiments, default_threads(), 1)?.chunks(2))
        .map(|(pattern, pair)| {
            let (ip, wl) = (&pair[0], &pair[1]);
            let mut row = vec![pattern.label().to_string()];
            for o in pair {
                row.push(fmt_opt(o.avg_latency_cycles, 1));
                row.push(format!("{:.2}", o.packet_energy_nj()));
            }
            row.push(match (ip.avg_latency_cycles, wl.avg_latency_cycles) {
                (Some(il), Some(wl)) => format!("{:+.1}%", (1.0 - wl / il) * 100.0),
                _ => "-".into(),
            });
            row.push(format!(
                "{:+.1}%",
                (1.0 - wl.packet_energy_nj() / ip.packet_energy_nj()) * 100.0
            ));
            row
        })
        .collect())
}

/// The injection load at which each architecture's latency diverges
/// (3× its zero-load latency) — the quantitative version of the Fig 3
/// saturation discussion.
fn saturation_points(scale: Scale) -> Result<Table, CoreError> {
    Ok(IP_THEN_WL
        .iter()
        .map(|&arch| {
            let cfg = scale.apply(SystemConfig::xcym(4, 4, arch));
            match find_saturation_load(&cfg, 3.0, 0.005) {
                Ok(load) => vec![
                    cfg.label(),
                    format!("{load:.4}"),
                    format!("{:.2}", load * 64.0 * 32.0 * 2.5), // Gbps offered system-wide
                ],
                Err(e) => vec![cfg.label(), e.to_string(), "-".into()],
            }
        })
        .collect())
}

/// Scaling the package from 1 to 16 chiplets at constant 64-core
/// compute — how far does the "seamless, scalable" claim of §I carry?
fn scaling_study(scale: Scale) -> Result<Table, CoreError> {
    let chips = [1usize, 2, 4, 8, 16];
    let grid =
        ScenarioGrid::new("scaling_study").scale(scale).architectures(&IP_THEN_WL).chips(&chips);
    // Architecture is the grid's slow axis: all interposer points, then
    // all wireless ones.
    let outcomes = run_each(&grid.experiments());
    let (ip, wl) = outcomes.split_at(chips.len());
    Ok(chips
        .iter()
        .zip(ip.iter().zip(wl))
        .map(|(chips, (ip, wl))| {
            let mut row = vec![format!("{chips} chips x {} cores", 64 / chips)];
            for outcome in [ip, wl] {
                row.extend(match outcome {
                    Ok(o) => [
                        format!("{:.2}", o.bandwidth_gbps_per_core),
                        format!("{:.2}", o.packet_energy_nj()),
                    ],
                    Err(e) => [e.to_string(), "-".into()],
                });
            }
            row
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gain_arithmetic() {
        assert!((percentage_gain(10.0, 11.0) - 10.0).abs() < 1e-12);
        assert!((percentage_gain(10.0, 9.0) + 10.0).abs() < 1e-12);
        assert!((percentage_reduction(10.0, 6.0) - 40.0).abs() < 1e-12);
        assert!((percentage_reduction(10.0, 12.0) + 20.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn zero_baseline_panics() {
        percentage_gain(0.0, 1.0);
    }

    #[test]
    fn paper_gain_example() {
        // §IV.C: "around 11% gain in bandwidth and 37% gain in energy
        // efficiency" — the formulas reproduce those from raw numbers.
        let bw = percentage_gain(9.0, 9.99);
        assert!((bw - 11.0).abs() < 0.01);
        let e = percentage_reduction(100.0, 63.0);
        assert!((e - 37.0).abs() < 1e-9);
    }
}
