//! `figures` — regenerates the reproduction's figures, one subcommand
//! per row of [`wimnet_bench::FIGURES`].
//!
//! ```text
//! figures                          # list the table
//! figures fig2 fig3 --quick        # named figures
//! figures all                      # the whole table, in order
//! figures ablation_mac --trace mac.json
//! ```
//!
//! Each figure prints its banner, an aligned table and the paper-shape
//! note, and writes `results/<name>.csv`.  `--quick` / `-q` shrinks the
//! windows and sweeps to seconds; `--paper` (the default) runs the full
//! §IV windows.  `--trace FILE` additionally exports a
//! Chrome-trace/Perfetto JSON view of the one run a figure offers for
//! it (`docs/observability.md` "Trace schema").
//!
//! Exit codes: 0 done, 1 a figure failed (its error is on stderr),
//! 2 usage.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use wimnet_bench::{find, results_dir, Figure, FIGURES};
use wimnet_core::report::{format_table, write_csv};
use wimnet_core::{Experiment, Scale, TelemetryConfig};
use wimnet_telemetry::validate_chrome_trace;

fn usage() -> String {
    let mut text = String::from(
        "usage: figures <name>... | all [--quick|-q] [--paper] [--trace FILE]\n\
         \n\
         \x20 --quick, -q   reduced windows and sweeps (seconds)\n\
         \x20 --paper       the paper's 1,000 + 9,000-cycle windows (default)\n\
         \x20 --trace FILE  also export a Chrome-trace JSON of the figure's traced run\n\
         \n\
         figures:\n",
    );
    for figure in &FIGURES {
        let traces = if figure.trace_point.is_some() { "  [--trace]" } else { "" };
        text.push_str(&format!("  {:<22}{}{traces}\n", figure.name, figure.title));
    }
    text
}

struct Cli {
    figures: Vec<&'static Figure>,
    scale: Scale,
    trace: Option<PathBuf>,
}

fn parse_cli(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli { figures: Vec::new(), scale: Scale::Paper, trace: None };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" | "-q" => cli.scale = Scale::Quick,
            // The default; `--quick` wins wherever it stands.
            "--paper" => {}
            "--trace" => {
                let file = args.next().ok_or("--trace needs a FILE argument")?;
                cli.trace = Some(PathBuf::from(file));
            }
            "all" => cli.figures.extend(&FIGURES),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            name => cli
                .figures
                .push(find(name).ok_or_else(|| format!("unknown figure {name:?}"))?),
        }
    }
    if cli.figures.is_empty() {
        return Err("no figure named".into());
    }
    if cli.trace.is_some() {
        if let Some(untraced) = cli.figures.iter().find(|f| f.trace_point.is_none()) {
            return Err(format!("--trace: {} records no trace", untraced.name));
        }
    }
    Ok(cli)
}

fn banner(title: &str, scale: Scale) {
    println!("================================================================");
    println!("{title}");
    println!(
        "scale: {}",
        match scale {
            Scale::Paper => "paper (1,000 warmup + 9,000 measured cycles)",
            Scale::Quick => "quick (300 warmup + 1,500 measured cycles)",
        }
    );
    println!("================================================================");
}

/// Runs `experiment` with trace recording on and writes the
/// schema-validated Chrome-trace JSON to `path`.
fn write_trace(mut experiment: Experiment, path: &Path) -> Result<(), String> {
    experiment.config_mut().telemetry = TelemetryConfig::tracing();
    let (_, trace) = experiment.run_traced().map_err(|e| format!("traced run: {e}"))?;
    let json = trace.ok_or("the engine produced no trace buffer")?;
    let events = validate_chrome_trace(&json)
        .map_err(|e| format!("emitted trace failed schema validation: {e}"))?;
    std::fs::write(path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {events} trace event(s) to {}", path.display());
    Ok(())
}

/// The one place a figure is printed and its CSV written.
fn emit(figure: &Figure, scale: Scale, trace: Option<&Path>) -> Result<(), String> {
    banner(figure.title, scale);
    if let (Some(path), Some(trace_point)) = (trace, figure.trace_point) {
        write_trace(trace_point(scale), path)?;
    }
    let table = (figure.rows)(scale).map_err(|e| e.to_string())?;
    let (headers, csv_headers) = figure.headers_of(&table);
    println!("{}", format_table(&headers, &table.rows));
    if let Some(trailer) = &table.trailer {
        println!("{trailer}");
    }
    println!("{}", figure.note);
    let path = results_dir().join(format!("{}.csv", figure.name));
    write_csv(&path, &csv_headers, &table.rows)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = std::env::args().skip(1);
    if args.len() == 0 {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let cli = match parse_cli(args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("figures: {msg}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    for (i, figure) in cli.figures.iter().enumerate() {
        if i > 0 {
            println!();
        }
        if let Err(msg) = emit(figure, cli.scale, cli.trace.as_deref()) {
            eprintln!("figures {}: {msg}", figure.name);
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}
