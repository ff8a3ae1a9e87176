//! `sweep` — the resumable, shardable sweep front-end over the result
//! catalog (`wimnet_core::catalog`, `docs/sweeps.md` "The result
//! catalog").
//!
//! A sweep is a [`ScenarioGrid`] declared on the command line; every
//! outcome is memoized under its content fingerprint in a catalog
//! directory, so repeated submits only simulate what the catalog does
//! not already hold — a killed sweep resumes from its partial catalog
//! and converges on the bit-identical final vector.
//!
//! ```text
//! sweep submit --catalog results/catalog --quick \
//!       --archs wireless,substrate --loads 0.001,0.004     # simulate misses
//! sweep submit ... --shard 0/4                             # this process's quarter
//! sweep status ...                                         # cached / missing counts
//! sweep status ... --shard 0/4 --json                      # machine-readable, per shard
//! sweep fetch  ... > outcomes.json                         # full JSON result vector
//! sweep checkpoint ... --every 200 --kill-at 500           # run, snapshot, die mid-point
//! sweep resume ... --shard 0/4                             # finish one quarter
//! sweep resume ...                                         # finish the rest
//! sweep trace  ... --out run.trace.json                    # Perfetto trace of point 0
//! ```
//!
//! `status --json` emits one document with hit / miss / pending /
//! quarantine counts per shard (the shard count comes from `--shard
//! I/N`; default one shard), so fleet drivers can poll convergence
//! without scraping the human text.  `trace` re-runs the grid's first
//! point with `TelemetryConfig::tracing()` and writes validated
//! Chrome-trace/Perfetto JSON (`docs/observability.md` "Trace
//! schema") — by the zero-observer-effect contract the traced run's
//! outcome is bit-identical to the cataloged one.
//!
//! `checkpoint`/`resume` add **mid-point** resumability on top of the
//! catalog's per-point kind: misses snapshot their full engine state
//! every `--every` cycles into a checkpoint store
//! (`wimnet_core::checkpoint`, `docs/checkpoint.md`), and a killed
//! sweep's next run warm-starts each point from its latest snapshot —
//! producing the bit-identical outcome vector of an uninterrupted
//! submit (the CI checkpoint smoke diffs the two fetches).
//!
//! `submit`, `checkpoint` and `resume` are one function over
//! `ScenarioGrid::run_cached_with`; they differ only in whether the
//! snapshot store is opened and whether `--kill-at` applies, so
//! `--shard` and `--abort-after-misses` mean the same on all three.
//!
//! Exit codes: `0` success, `1` usage error, `2` fetch on an
//! incomplete catalog, `3` a run verb stopped by `--abort-after-misses`
//! or `--kill-at` (the CI smokes' simulated kills).

use std::path::PathBuf;
use std::process::ExitCode;

use serde::{Serialize, Value};
use wimnet_bench::results_dir;
use wimnet_core::catalog::Catalog;
use wimnet_core::checkpoint::CheckpointStore;
use wimnet_core::sweeps::SweepOptions;
use wimnet_core::{Scale, ScenarioGrid, TelemetryConfig, WirelessModel, ENGINE_VERSION};
use wimnet_core::system::MacKind;
use wimnet_telemetry::validate_chrome_trace;
use wimnet_memory::SchedulerPolicy;
use wimnet_topology::Architecture;
use wimnet_traffic::{AddressStreamSpec, InjectionProcess};

fn usage() -> String {
    "usage: sweep <submit|status|fetch|checkpoint|resume|trace> [options]\n\
     \n\
     grid axes (defaults: the paper's 4C4M wireless saturation point):\n\
       --name NAME            grid name (reporting only)\n\
       --quick | --paper      simulation scale (default: paper)\n\
       --archs LIST           wireless,interposer,substrate\n\
       --chips LIST           chip counts, e.g. 1,4,8\n\
       --stacks LIST          stack counts\n\
       --wireless LIST        p2p | p2p:FLITS/CONC | parallel:FLITS | token | control\n\
       --mem-fractions LIST   memory-access shares, e.g. 0.2,0.8\n\
       --streams LIST         seq | stride:BLKS | uniform:BLKS | hotrow:HOT/REGION@FRAC\n\
       --schedulers LIST      frfcfs,fcfs\n\
       --loads LIST           Bernoulli rates (replaces the saturation default)\n\
       --saturation           add the saturation point to the injection axis\n\
       --seeds LIST           u64 seeds, decimal or 0x-hex\n\
       --read-share X         read-request share of memory packets\n\
     \n\
     catalog / run options:\n\
       --catalog DIR          catalog directory (default: results/catalog)\n\
       --threads N            pool threads (default: all cores)\n\
       --chunk N              points per pool steal, heaviest first (default: 4)\n\
       --shard I/N            run only shard I of N (default 0/1)\n\
       --abort-after-misses K simulate a crash after K fresh points (exit 3)\n\
       --json                 status: machine-readable per-shard counts\n\
       --out FILE             fetch/trace: write JSON here instead of stdout\n\
     \n\
     checkpoint / resume options:\n\
       --checkpoints DIR      snapshot store (default: results/checkpoints)\n\
       --every N              snapshot cadence in cycles (default: 500)\n\
       --kill-at CYCLE        checkpoint: die before any iteration at or\n\
                              past CYCLE, leaving snapshots behind (exit 3)\n"
        .to_string()
}

struct Cli {
    command: String,
    grid: ScenarioGrid,
    catalog_dir: PathBuf,
    checkpoints_dir: PathBuf,
    /// Pool shape, shard and simulated crashes, as parsed; the run
    /// verbs add the snapshot store.
    options: SweepOptions<'static>,
    json: bool,
    out: Option<PathBuf>,
}

fn split_list(v: &str) -> Vec<&str> {
    v.split(',').map(str::trim).filter(|s| !s.is_empty()).collect()
}

fn parse_list<T, E: std::fmt::Display>(
    flag: &str,
    v: &str,
    parse: impl Fn(&str) -> Result<T, E>,
) -> Result<Vec<T>, String> {
    let items: Result<Vec<T>, String> = split_list(v)
        .into_iter()
        .map(|s| parse(s).map_err(|e| format!("{flag} {s:?}: {e}")))
        .collect();
    let items = items?;
    if items.is_empty() {
        return Err(format!("{flag} needs at least one value"));
    }
    Ok(items)
}

fn parse_arch(s: &str) -> Result<Architecture, String> {
    match s {
        "wireless" => Ok(Architecture::Wireless),
        "interposer" => Ok(Architecture::Interposer),
        "substrate" => Ok(Architecture::Substrate),
        other => Err(format!("unknown architecture {other:?}")),
    }
}

fn parse_wireless(s: &str) -> Result<WirelessModel, String> {
    if s == "p2p" {
        return Ok(WirelessModel::default());
    }
    if s == "token" {
        return Ok(WirelessModel::SharedChannel { mac: MacKind::Token });
    }
    if s == "control" {
        return Ok(WirelessModel::SharedChannel { mac: MacKind::ControlPacket });
    }
    if let Some(rest) = s.strip_prefix("p2p:") {
        let (flits, conc) = rest
            .split_once('/')
            .ok_or_else(|| "p2p wants p2p:FLITS/CONC".to_string())?;
        return Ok(WirelessModel::PointToPoint {
            flits_per_cycle: flits.parse().map_err(|e| format!("{e}"))?,
            max_concurrent: conc.parse().map_err(|e| format!("{e}"))?,
        });
    }
    if let Some(flits) = s.strip_prefix("parallel:") {
        return Ok(WirelessModel::ParallelLinks {
            flits_per_cycle: flits.parse().map_err(|e| format!("{e}"))?,
        });
    }
    Err(format!("unknown wireless model {s:?}"))
}

fn parse_stream(s: &str) -> Result<AddressStreamSpec, String> {
    if s == "seq" {
        return Ok(AddressStreamSpec::Sequential);
    }
    if let Some(blocks) = s.strip_prefix("stride:") {
        return Ok(AddressStreamSpec::Strided {
            stride_blocks: blocks.parse().map_err(|e| format!("{e}"))?,
        });
    }
    if let Some(blocks) = s.strip_prefix("uniform:") {
        return Ok(AddressStreamSpec::Uniform {
            region_blocks: blocks.parse().map_err(|e| format!("{e}"))?,
        });
    }
    if let Some(rest) = s.strip_prefix("hotrow:") {
        let (sizes, frac) = rest
            .split_once('@')
            .ok_or_else(|| "hotrow wants hotrow:HOT/REGION@FRAC".to_string())?;
        let (hot, region) = sizes
            .split_once('/')
            .ok_or_else(|| "hotrow wants hotrow:HOT/REGION@FRAC".to_string())?;
        return Ok(AddressStreamSpec::HotRow {
            region_blocks: region.parse().map_err(|e| format!("{e}"))?,
            hot_blocks: hot.parse().map_err(|e| format!("{e}"))?,
            hot_fraction: frac.parse().map_err(|e| format!("{e}"))?,
        });
    }
    Err(format!("unknown address stream {s:?}"))
}

fn parse_scheduler(s: &str) -> Result<SchedulerPolicy, String> {
    match s {
        "frfcfs" => Ok(SchedulerPolicy::FrFcfs),
        "fcfs" => Ok(SchedulerPolicy::Fcfs),
        other => Err(format!("unknown scheduler {other:?}")),
    }
}

fn parse_seed(s: &str) -> Result<u64, String> {
    let parsed = if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    parsed.map_err(|e| format!("{e}"))
}

fn parse_shard(s: &str) -> Result<(usize, usize), String> {
    let (i, n) = s.split_once('/').ok_or_else(|| "--shard wants I/N".to_string())?;
    let i: usize = i.parse().map_err(|e| format!("{e}"))?;
    let n: usize = n.parse().map_err(|e| format!("{e}"))?;
    if n == 0 || i >= n {
        return Err(format!("--shard {s:?}: need 0 <= I < N"));
    }
    Ok((i, n))
}

fn parse_cli() -> Result<Cli, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match args.first() {
        Some(c)
            if ["submit", "status", "fetch", "checkpoint", "resume", "trace"]
                .contains(&c.as_str()) =>
        {
            c.clone()
        }
        _ => return Err(usage()),
    };

    let mut name = "sweep".to_string();
    let mut scale = Scale::Paper;
    let mut grid_archs: Option<Vec<Architecture>> = None;
    let mut chips: Option<Vec<usize>> = None;
    let mut stacks: Option<Vec<usize>> = None;
    let mut wireless: Option<Vec<WirelessModel>> = None;
    let mut mem_fractions: Option<Vec<f64>> = None;
    let mut streams: Option<Vec<AddressStreamSpec>> = None;
    let mut schedulers: Option<Vec<SchedulerPolicy>> = None;
    let mut loads: Option<Vec<f64>> = None;
    let mut saturation = false;
    let mut seeds: Option<Vec<u64>> = None;
    let mut read_share: Option<f64> = None;
    let mut catalog_dir: Option<PathBuf> = None;
    let mut checkpoints_dir: Option<PathBuf> = None;
    let mut every = 500u64;
    let mut options = SweepOptions { chunk: 4, ..SweepOptions::default() };
    let mut json = false;
    let mut out: Option<PathBuf> = None;

    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--quick" | "-q" => scale = Scale::Quick,
            "--paper" => scale = Scale::Paper,
            "--saturation" => saturation = true,
            "--name" => name = value("--name")?,
            "--archs" => {
                grid_archs = Some(parse_list("--archs", &value("--archs")?, parse_arch)?)
            }
            "--chips" => {
                chips = Some(parse_list("--chips", &value("--chips")?, str::parse::<usize>)?)
            }
            "--stacks" => {
                stacks =
                    Some(parse_list("--stacks", &value("--stacks")?, str::parse::<usize>)?)
            }
            "--wireless" => {
                wireless =
                    Some(parse_list("--wireless", &value("--wireless")?, parse_wireless)?)
            }
            "--mem-fractions" => {
                mem_fractions = Some(parse_list(
                    "--mem-fractions",
                    &value("--mem-fractions")?,
                    str::parse::<f64>,
                )?)
            }
            "--streams" => {
                streams = Some(parse_list("--streams", &value("--streams")?, parse_stream)?)
            }
            "--schedulers" => {
                schedulers = Some(parse_list(
                    "--schedulers",
                    &value("--schedulers")?,
                    parse_scheduler,
                )?)
            }
            "--loads" => {
                loads = Some(parse_list("--loads", &value("--loads")?, str::parse::<f64>)?)
            }
            "--seeds" => seeds = Some(parse_list("--seeds", &value("--seeds")?, parse_seed)?),
            "--read-share" => {
                read_share = Some(
                    value("--read-share")?
                        .parse()
                        .map_err(|e| format!("--read-share: {e}"))?,
                )
            }
            "--catalog" => catalog_dir = Some(PathBuf::from(value("--catalog")?)),
            "--checkpoints" => {
                checkpoints_dir = Some(PathBuf::from(value("--checkpoints")?))
            }
            "--every" => {
                every = value("--every")?.parse().map_err(|e| format!("--every: {e}"))?
            }
            "--kill-at" => {
                options.kill_at = Some(
                    value("--kill-at")?
                        .parse()
                        .map_err(|e| format!("--kill-at: {e}"))?,
                )
            }
            "--threads" => {
                options.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--chunk" => {
                options.chunk =
                    value("--chunk")?.parse().map_err(|e| format!("--chunk: {e}"))?
            }
            "--shard" => options.shard = parse_shard(&value("--shard")?)?,
            "--abort-after-misses" => {
                options.miss_budget = Some(
                    value("--abort-after-misses")?
                        .parse()
                        .map_err(|e| format!("--abort-after-misses: {e}"))?,
                )
            }
            "--json" => json = true,
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown flag {other:?}\n\n{}", usage())),
        }
    }

    let mut grid = ScenarioGrid::new(name).scale(scale);
    if let Some(v) = grid_archs {
        grid = grid.architectures(&v);
    }
    if let Some(v) = chips {
        grid = grid.chips(&v);
    }
    if let Some(v) = stacks {
        grid = grid.stacks(&v);
    }
    if let Some(v) = wireless {
        grid = grid.wireless_models(&v);
    }
    if let Some(v) = mem_fractions {
        grid = grid.memory_fractions(&v);
    }
    if let Some(v) = streams {
        grid = grid.address_streams(&v);
    }
    if let Some(v) = schedulers {
        grid = grid.schedulers(&v);
    }
    let mut injections: Vec<InjectionProcess> = loads
        .map(|ls| {
            ls.into_iter()
                .map(|rate| InjectionProcess::Bernoulli { rate })
                .collect()
        })
        .unwrap_or_default();
    if saturation || injections.is_empty() {
        injections.push(InjectionProcess::Saturation);
    }
    grid = grid.injections(&injections);
    if let Some(v) = seeds {
        grid = grid.seeds(&v);
    }
    if let Some(share) = read_share {
        if !(0.0..=1.0).contains(&share) {
            return Err(format!("--read-share {share} outside [0, 1]"));
        }
        grid = grid.read_share(share);
    }
    if every == 0 {
        return Err("--every must be positive (the cadence is the resume grain)".into());
    }
    grid = grid.checkpoint_every(every);

    Ok(Cli {
        command,
        grid,
        catalog_dir: catalog_dir.unwrap_or_else(|| results_dir().join("catalog")),
        checkpoints_dir: checkpoints_dir
            .unwrap_or_else(|| results_dir().join("checkpoints")),
        options,
        json,
        out,
    })
}

fn status(cli: &Cli, catalog: &Catalog) -> Result<ExitCode, String> {
    if cli.json {
        return status_json(cli, catalog);
    }
    let points = cli.grid.points();
    let mut missing: Vec<&str> = Vec::new();
    for point in &points {
        if !catalog.contains(&cli.grid.point_fingerprint(point)) {
            missing.push(&point.label);
        }
    }
    println!(
        "status: grid {:?} — {} of {} points cached in {}",
        cli.grid.name(),
        points.len() - missing.len(),
        points.len(),
        catalog.dir().display()
    );
    if missing.is_empty() {
        println!("complete: ready to fetch");
    } else {
        println!("missing {}:", missing.len());
        for label in missing.iter().take(8) {
            println!("  {label}");
        }
        if missing.len() > 8 {
            println!("  ... and {} more", missing.len() - 8);
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `status --json`: one machine-readable document with hit / miss /
/// pending / quarantine counts per shard (shard count from `--shard
/// I/N`), plus grid-level totals.  Unlike the human `status`, this
/// *opens* every cached envelope (`Catalog::lookup`), so entries that
/// cannot be served — wrong engine version, corrupt payload — count as
/// `quarantined` rather than inflating `hits`; `pending` is what a
/// submit would still have to simulate (`misses + quarantined`).
fn status_json(cli: &Cli, catalog: &Catalog) -> Result<ExitCode, String> {
    let points = cli.grid.points();
    let (_, shards) = cli.options.shard;
    let mut shard_rows = Vec::with_capacity(shards);
    let (mut hits, mut misses, mut quarantined) = (0u64, 0u64, 0u64);
    for shard in 0..shards {
        let range = cli.grid.shard_range(shard, shards);
        let (mut h, mut m, mut q) = (0u64, 0u64, 0u64);
        for point in &points[range.clone()] {
            let fp = cli.grid.point_fingerprint(point);
            if !catalog.contains(&fp) {
                m += 1;
            } else if catalog.lookup(&fp).is_some() {
                h += 1;
            } else {
                q += 1;
            }
        }
        hits += h;
        misses += m;
        quarantined += q;
        shard_rows.push(Value::Map(vec![
            ("shard".to_string(), Value::UInt(shard as u64)),
            ("of".to_string(), Value::UInt(shards as u64)),
            ("points".to_string(), Value::UInt(range.len() as u64)),
            ("hits".to_string(), Value::UInt(h)),
            ("misses".to_string(), Value::UInt(m)),
            ("pending".to_string(), Value::UInt(m + q)),
            ("quarantined".to_string(), Value::UInt(q)),
        ]));
    }
    let doc = Value::Map(vec![
        ("grid".to_string(), Value::Str(cli.grid.name().to_string())),
        ("engine".to_string(), Value::Str(ENGINE_VERSION.to_string())),
        ("catalog".to_string(), Value::Str(cli.catalog_dir.display().to_string())),
        ("points".to_string(), Value::UInt(points.len() as u64)),
        ("hits".to_string(), Value::UInt(hits)),
        ("misses".to_string(), Value::UInt(misses)),
        ("pending".to_string(), Value::UInt(misses + quarantined)),
        ("quarantined".to_string(), Value::UInt(quarantined)),
        ("complete".to_string(), Value::Bool(misses + quarantined == 0)),
        ("shards".to_string(), Value::Seq(shard_rows)),
    ]);
    let json = serde_json::value_to_string_pretty(&doc);
    match &cli.out {
        Some(path) => std::fs::write(path, json)
            .map_err(|e| format!("write {}: {e}", path.display()))?,
        None => println!("{json}"),
    }
    Ok(ExitCode::SUCCESS)
}

/// `trace`: re-run the grid's first point with full trace recording and
/// emit validated Chrome-trace/Perfetto JSON (load into
/// `chrome://tracing` or <https://ui.perfetto.dev>).  The traced run
/// never touches the catalog — telemetry is excluded from scenario
/// fingerprints, and by the zero-observer-effect contract its outcome
/// is bit-identical to the cataloged one anyway.
fn trace(cli: &Cli) -> Result<ExitCode, String> {
    let points = cli.grid.points();
    let point = points.first().ok_or("trace: the grid has no points")?;
    if points.len() > 1 {
        eprintln!(
            "trace: grid has {} points; tracing point 0 ({})",
            points.len(),
            point.label
        );
    }
    let mut exp = cli.grid.experiment(point);
    exp.config_mut().telemetry = TelemetryConfig::tracing();
    let (outcome, trace) = exp.run_traced().map_err(|e| format!("{e}"))?;
    let json = trace.ok_or("trace: the engine produced no trace buffer")?;
    let events = validate_chrome_trace(&json)
        .map_err(|e| format!("trace: emitted JSON failed schema validation: {e}"))?;
    match &cli.out {
        Some(path) => {
            std::fs::write(path, &json)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            println!(
                "wrote {events} trace event(s) for {:?} ({} packets delivered) to {}",
                point.label,
                outcome.packets_delivered(),
                path.display()
            );
        }
        None => println!("{json}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn fetch(cli: &Cli, catalog: &Catalog) -> Result<ExitCode, String> {
    let points = cli.grid.points();
    let mut rows = Vec::with_capacity(points.len());
    let mut missing = 0usize;
    for point in &points {
        let fp = cli.grid.point_fingerprint(point);
        match catalog.lookup(&fp) {
            Some(outcome) => rows.push(Value::Map(vec![
                ("index".to_string(), Value::UInt(point.index as u64)),
                ("label".to_string(), Value::Str(point.label.clone())),
                ("fingerprint".to_string(), Value::Str(fp.hex())),
                ("outcome".to_string(), outcome.to_value()),
            ])),
            None => missing += 1,
        }
    }
    if missing > 0 {
        return Err(format!(
            "fetch: {missing} of {} points not cached (quarantined this pass: {}) — \
             run `sweep submit` first",
            points.len(),
            catalog.quarantined()
        ));
    }
    let json = serde_json::value_to_string_pretty(&Value::Seq(rows));
    match &cli.out {
        Some(path) => {
            std::fs::write(path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
            println!("wrote {} outcomes to {}", points.len(), path.display());
        }
        None => println!("{json}"),
    }
    Ok(ExitCode::SUCCESS)
}

/// `submit`, `checkpoint` and `resume`: one catalog run of this
/// process's shard.  `checkpoint` and `resume` also open the snapshot
/// store, so misses warm-start from their latest snapshot and persist a
/// new one every `--every` cycles.  Two simulated crashes end the run
/// with exit 3: `--abort-after-misses` (between points, any verb) and
/// `--kill-at` (mid-point, `checkpoint` only — `resume` never kills).
fn run(cli: &Cli, catalog: &Catalog) -> Result<ExitCode, String> {
    let store = if cli.command == "submit" {
        None
    } else {
        Some(CheckpointStore::open(&cli.checkpoints_dir).map_err(|e| format!("{e}"))?)
    };
    let (shard, shards) = cli.options.shard;
    let range = cli.grid.shard_range(shard, shards);
    println!(
        "{}: grid {:?}, {} points, shard {shard}/{shards} -> indices {}..{}",
        cli.command,
        cli.grid.name(),
        cli.grid.len(),
        range.start,
        range.end
    );
    let swept =
        catalog.sweep_temps() + store.as_ref().map_or(0, CheckpointStore::sweep_temps);
    if swept > 0 {
        println!("cleared {swept} abandoned temp file(s) from crashed writer(s)");
    }
    let options = SweepOptions {
        checkpoints: store.as_ref(),
        kill_at: cli.options.kill_at.filter(|_| cli.command == "checkpoint"),
        ..cli.options
    };
    let report = cli.grid.run_cached_with(catalog, &options).map_err(|e| format!("{e}"))?;
    println!(
        "hits {} / simulated {} / pending {}  (catalog {} holds {} entries)",
        report.hits,
        report.misses,
        report.pending,
        catalog.dir().display(),
        catalog.len()
    );
    if catalog.quarantined() > 0 {
        println!("quarantined {} unserveable entr(ies)", catalog.quarantined());
    }
    if let Some(store) = &store {
        println!("{} checkpoint(s) on disk in {}", store.len(), store.dir().display());
        if store.quarantined() > 0 {
            println!(
                "quarantined {} unserveable checkpoint(s); those points restarted cold",
                store.quarantined()
            );
        }
    }
    if !report.is_complete() {
        println!(
            "stopped by --abort-after-misses / --kill-at with {} point(s) unfinished; \
             run `sweep {}` to finish them",
            report.pending,
            if store.is_some() { "resume" } else { "submit" }
        );
        return Ok(ExitCode::from(3));
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(1);
        }
    };
    // `trace` never touches the catalog — don't create its directory.
    let result = if cli.command == "trace" {
        trace(&cli)
    } else {
        let catalog = match Catalog::open(&cli.catalog_dir) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(1);
            }
        };
        match cli.command.as_str() {
            "status" => status(&cli, &catalog),
            "fetch" => fetch(&cli, &catalog),
            _ => run(&cli, &catalog),
        }
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
