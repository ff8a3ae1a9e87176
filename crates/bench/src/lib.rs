//! The figure table behind the `figures` binary, plus the `results/`
//! path the bench binaries share.
//!
//! Every figure of the reproduction — the paper's Figs 2–6 and the
//! ablations and extended studies beyond it — is one [`Figure`] row of
//! [`FIGURES`]: its name (the `figures` subcommand and the CSV stem),
//! title, column headers, the "paper shape / reading" note, and one
//! function from a [`Scale`] to formatted rows.  All thirteen rows are
//! built alike: the function hands its whole experiment list to the
//! work-stealing pool in a single call and formats the outcomes in
//! place, so the table is the only layer between a run and its output.
//! The `figures` binary prints a row and writes `results/<name>.csv`;
//! the `figures` criterion bench and `tests/figures_golden.rs` walk the
//! same table, so a new figure is a new row and nothing else.

#![forbid(unsafe_code)]

use std::path::PathBuf;

use wimnet_core::{CoreError, Experiment, Scale};

mod table;

pub use table::FIGURES;

/// One figure of the reproduction: a row of [`FIGURES`].
#[derive(Debug)]
pub struct Figure {
    /// Subcommand of the `figures` binary and stem of the CSV it writes.
    pub name: &'static str,
    /// Banner line.
    pub title: &'static str,
    /// Column headers of the printed table.
    pub headers: &'static [&'static str],
    /// Column headers of the CSV.
    pub csv_headers: &'static [&'static str],
    /// The "paper shape" / "reading" line printed under the table.
    pub note: &'static str,
    /// Runs the figure's experiments (one pooled run) and formats them.
    pub rows: fn(Scale) -> Result<Table, CoreError>,
    /// The one run `--trace FILE` records — `None` for a figure that has
    /// no trace to offer.
    pub trace_point: Option<fn(Scale) -> Experiment>,
}

/// What a figure's run produces: formatted cells, plus the two things a
/// static row cannot say.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    /// One formatted row per table line, as wide as the headers.
    pub rows: Vec<Vec<String>>,
    /// Columns the run adds after the row's static ones, printed and CSV
    /// alike — `fig3` has one per series, named by the series' label.
    pub series_headers: Vec<String>,
    /// A line printed between the table and the note (`fig6`'s average
    /// gains); not part of the CSV.
    pub trailer: Option<String>,
}

impl FromIterator<Vec<String>> for Table {
    /// Rows alone: no extra columns, no trailer — all but two figures.
    fn from_iter<I: IntoIterator<Item = Vec<String>>>(rows: I) -> Self {
        Table { rows: rows.into_iter().collect(), ..Table::default() }
    }
}

impl Figure {
    /// The `(printed, CSV)` header lists of `table`, a result of this
    /// figure's [`Figure::rows`].
    pub fn headers_of<'a>(&self, table: &'a Table) -> (Vec<&'a str>, Vec<&'a str>) {
        let with_series = |fixed: &[&'static str]| -> Vec<&'a str> {
            fixed.iter().copied().chain(table.series_headers.iter().map(String::as_str)).collect()
        };
        (with_series(self.headers), with_series(self.csv_headers))
    }
}

/// Looks a figure up by name.
pub fn find(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// Where CSV outputs land (`results/` under the workspace root, or the
/// current directory as a fallback).
pub fn results_dir() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    // Walk up until a Cargo workspace root is found.
    loop {
        if dir.join("Cargo.toml").exists() && dir.join("crates").exists() {
            return dir.join("results");
        }
        if !dir.pop() {
            return PathBuf::from("results");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_under_workspace() {
        let d = results_dir();
        assert!(d.ends_with("results"));
    }
}
