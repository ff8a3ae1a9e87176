//! `wimnet-benchmark`: see `benchmark/README.md` and `run.sh`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use wimnet_benchmark::json::Named;
use wimnet_benchmark::points::{DEFAULT_SEED, WORKLOADS};
use wimnet_benchmark::report::{Results, WorkloadReport, WorkloadResults};
use wimnet_benchmark::{api, compare, golden, run_workload, Opts};

const USAGE: &str = "\
usage: run.sh [--seed S] [--seconds T] [--quick] [--only WORKLOAD] [--write-golden]
           every workload, untraced then traced, each in its own process;
           writes out/results.json and out/trace-<workload>.json
       run.sh --workload NAME --seed S --seconds T --trace 0|1 [--quick]
           one run of one workload; the last line printed is the result
       run.sh --compare A.json B.json
           compares two results.json files; exit 1 on a `worse` verdict";

/// Seconds the untraced rep loop measures by default — the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 12.0;

struct Args {
    opts: Opts,
    workload: Option<String>,
    only: Option<String>,
    write_golden: bool,
    compare: Option<(String, String)>,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        opts: Opts {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            traced: false,
            quick: false,
            dir: PathBuf::from("benchmark"),
            clk_tck: 100,
        },
        workload: None,
        only: None,
        write_golden: false,
        compare: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value `{v}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--only" => args.only = Some(value()?),
            "--seed" => {
                let v = value()?;
                args.opts.seed = parse_seed(&v).ok_or_else(|| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                args.opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad(&v))?;
            }
            "--trace" => {
                let v = value()?;
                args.opts.traced = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--clk-tck" => {
                let v = value()?;
                args.opts.clk_tck = v.parse().ok().filter(|t| *t > 0).ok_or_else(|| bad(&v))?;
            }
            "--dir" => args.opts.dir = PathBuf::from(value()?),
            "--quick" => args.opts.quick = true,
            "--write-golden" => args.write_golden = true,
            "--compare" => args.compare = Some((value()?, value()?)),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

fn report_path(dir: &Path, workload: &str, traced: bool) -> PathBuf {
    dir.join("out")
        .join(format!("report-{workload}-trace{}.json", u8::from(traced)))
}

/// One workload in this process: print, persist the report, and end
/// with the result line.
fn single(opts: &Opts) -> Result<(), String> {
    fs::create_dir_all(opts.dir.join("out")).map_err(|e| format!("create out/: {e}"))?;
    let report = run_workload(opts)?;
    report.print();
    let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    let path = report_path(&opts.dir, &opts.workload, opts.traced);
    fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("{}", report.result_line());
    Ok(())
}

/// Runs `workload` in a child process and reads its report back.
fn child(opts: &Opts, workload: &str, traced: bool) -> Result<WorkloadReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--clk-tck", &opts.clk_tck.to_string()])
        .arg("--dir")
        .arg(&opts.dir);
    if opts.quick {
        command.arg("--quick");
    }
    let path = report_path(&opts.dir, workload, traced);
    let _ = fs::remove_file(&path);
    let status = command
        .status()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    if !status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {status}",
            u8::from(traced)
        ));
    }
    let text = fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

/// Every workload, untraced then traced, each in its own process.
fn full(args: &Args) -> Result<bool, String> {
    let opts = &args.opts;
    let selected: Vec<&str> = match &args.only {
        Some(only) if WORKLOADS.contains(&only.as_str()) => vec![only.as_str()],
        Some(only) => {
            return Err(format!(
                "unknown workload `{only}` (one of: {})",
                WORKLOADS.join(", ")
            ))
        }
        None => WORKLOADS.to_vec(),
    };
    let mut workloads = Named::default();
    for name in selected {
        let end_to_end = child(opts, name, false)?;
        let per_layer = child(opts, name, true)?;
        workloads.insert(
            name.to_string(),
            WorkloadResults {
                end_to_end,
                per_layer,
            },
        );
    }
    let results = Results {
        schema: 1,
        seed: opts.seed,
        quick: opts.quick,
        engine_version: api::ENGINE_VERSION.to_string(),
        threads: api::host_threads(),
        workloads,
    };
    let path = opts.dir.join("out").join("results.json");
    let json = serde_json::to_string_pretty(&results).map_err(|e| e.to_string())?;
    fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;

    println!("\n== end-to-end (tracing off) ==");
    let mut failed = 0;
    for (name, w) in results.workloads.iter() {
        let metrics: Vec<String> = w
            .end_to_end
            .metrics
            .iter()
            .map(|(metric, m)| format!("{metric} {:.6} {}", m.value, m.unit))
            .collect();
        println!("{name:<14} {}", metrics.join(", "));
        failed += w.end_to_end.checks.failed + w.per_layer.checks.failed;
    }
    println!("wrote {}", path.display());
    if args.write_golden {
        let reports: Vec<&WorkloadReport> =
            results.workloads.values().map(|w| &w.end_to_end).collect();
        golden::write(&opts.dir, opts.quick, opts.seed, &reports)?;
        println!("wrote {}", opts.dir.join("golden.json").display());
    }
    if failed > 0 {
        println!("{failed} operations FAILED");
    }
    Ok(failed == 0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::from(2);
        }
    };
    let ok = if let Some((a, b)) = &args.compare {
        compare::compare(a, b)
    } else if let Some(workload) = &args.workload {
        // The outside driver's contract: exit 0 once a result is
        // printed; a failed check shows as `correct: false`.
        single(&Opts {
            workload: workload.clone(),
            ..args.opts.clone()
        })
        .map(|()| true)
    } else {
        full(&args)
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("error: {why}");
            ExitCode::from(2)
        }
    }
}
