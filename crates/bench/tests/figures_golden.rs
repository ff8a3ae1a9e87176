//! The figure table against golden CSVs: every row of
//! `wimnet_bench::FIGURES`, run at `Scale::Quick`, must render the CSV
//! checked in as `tests/fixtures/quick/<name>.csv`, byte for byte.
//!
//! The fixtures were written by the thirteen per-figure executables of
//! commit `98b895e`, the last one that had them, so this is also the
//! proof that folding them into one table moved no output byte.
//!
//! Regeneration rule: simulations are deterministic, so a fixture moves
//! only when the engine's outcomes do — that is, together with an
//! `ENGINE_VERSION` bump (`docs/sweeps.md` §4).  Then, and only then,
//! `figures all --quick` from an empty directory rewrites them
//! (`cp results/*.csv crates/bench/tests/fixtures/quick/`).  A
//! formatting change to a table is a deliberate fixture edit in the
//! same commit.
//!
//! CI runs this in `--release` as well (≈ 2.5 s); no figure is skipped
//! in the debug tier-1 run either (the slowest, `saturation_points`,
//! takes ≈ 2.5 s there).
//!
//! The paper's orderings for Figs 2–6 are then checked on the fixtures
//! themselves, one test per figure, with no simulation: the byte-for-byte
//! test ties each fixture to the live engine, so an ordering that holds
//! on the fixture holds on what the engine prints.  Each test's doc
//! comment names the doctored copies of its fixture it was seen to fail
//! on.

use std::collections::BTreeSet;
use std::path::PathBuf;

use wimnet_bench::{find, FIGURES};
use wimnet_core::report::write_csv;
use wimnet_core::Scale;

fn fixtures() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/quick")
}

#[test]
fn names_are_unique_and_each_has_exactly_one_fixture() {
    let names: BTreeSet<&str> = FIGURES.iter().map(|f| f.name).collect();
    assert_eq!(names.len(), FIGURES.len(), "duplicate figure name");
    for figure in &FIGURES {
        assert!(std::ptr::eq(find(figure.name).unwrap(), figure));
        assert_eq!(
            figure.headers.len(),
            figure.csv_headers.len(),
            "{}: printed and CSV header lists differ in width",
            figure.name
        );
    }
    assert!(find("all").is_none(), "`all` is the binary's keyword, not a figure");
    let on_disk: BTreeSet<String> = std::fs::read_dir(fixtures())
        .expect("fixture directory exists")
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|e| e == "csv"))
        .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    let expected: BTreeSet<String> = names.iter().map(|n| n.to_string()).collect();
    assert_eq!(on_disk, expected, "fixtures and table rows must pair up");
}

#[test]
fn every_figure_renders_its_fixture_byte_for_byte() {
    let out = std::env::temp_dir().join(format!("wimnet-figures-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    for figure in &FIGURES {
        let table = (figure.rows)(Scale::Quick)
            .unwrap_or_else(|e| panic!("{} failed: {e}", figure.name));
        let (headers, csv_headers) = figure.headers_of(&table);
        assert_eq!(headers.len(), csv_headers.len(), "{}", figure.name);
        assert!(!table.rows.is_empty(), "{} has no rows", figure.name);
        for row in &table.rows {
            assert_eq!(row.len(), headers.len(), "{}: ragged row {row:?}", figure.name);
        }
        let file = format!("{}.csv", figure.name);
        write_csv(&out.join(&file), &csv_headers, &table.rows).expect("temp dir is writable");
        let rendered = std::fs::read(out.join(&file)).unwrap();
        let golden = std::fs::read(fixtures().join(&file)).unwrap();
        assert!(
            rendered == golden,
            "{file} moved:\n--- fixture\n{}\n--- rendered\n{}",
            String::from_utf8_lossy(&golden),
            String::from_utf8_lossy(&rendered)
        );
    }
    let _ = std::fs::remove_dir_all(&out);
}

/// The quick fixture `<name>.csv` as its header and its rows of cells.
/// No cell of Figs 2–6 is quoted, so every comma separates.
fn fixture(name: &str) -> (Vec<String>, Vec<Vec<String>>) {
    let text = std::fs::read_to_string(fixtures().join(format!("{name}.csv")))
        .unwrap_or_else(|e| panic!("{name}.csv: {e}"));
    let mut lines = text.lines().map(|line| line.split(',').map(str::to_string).collect());
    let header = lines.next().unwrap_or_else(|| panic!("{name}.csv is empty"));
    (header, lines.collect())
}

/// A numeric cell — `19.89`, `+18.8`, `20%` — or `None` for `-`, a point
/// where nothing measured finished.
fn number(cell: &str) -> Option<f64> {
    (cell != "-").then(|| {
        cell.trim_end_matches('%').parse().unwrap_or_else(|_| panic!("not a number: {cell:?}"))
    })
}

/// The numeric cell in `column` of `row`, which must hold a value.
fn value(row: &[String], column: usize) -> f64 {
    number(&row[column]).unwrap_or_else(|| panic!("no value in column {column} of {row:?}"))
}

/// §IV.B: wireless has the highest bandwidth and the lowest packet
/// energy; the interposer beats the substrate on both.
///
/// Seen to fail on doctored copies of `fig2.csv`: the Interposer and
/// Wireless bandwidth cells swapped, the Substrate and Interposer
/// bandwidth cells swapped, and the same two swaps in the energy
/// column — each trips its own assertion.
#[test]
fn fig2_wireless_leads_bandwidth_and_energy_then_interposer() {
    let (_, rows) = fixture("fig2");
    assert_eq!(rows.len(), 3);
    let by = |arch: &str| {
        let label = format!("4C4M ({arch})");
        let row = rows.iter().find(|r| r[0] == label).unwrap_or_else(|| panic!("no {label} row"));
        (value(row, 1), value(row, 2))
    };
    let (substrate, interposer, wireless) = (by("Substrate"), by("Interposer"), by("Wireless"));
    assert!(
        wireless.0 > interposer.0,
        "bandwidth: wireless {wireless:?} vs interposer {interposer:?}"
    );
    assert!(
        interposer.0 > substrate.0,
        "bandwidth: interposer {interposer:?} vs substrate {substrate:?}"
    );
    assert!(
        wireless.1 < interposer.1,
        "energy: wireless {wireless:?} vs interposer {interposer:?}"
    );
    assert!(
        interposer.1 < substrate.1,
        "energy: interposer {interposer:?} vs substrate {substrate:?}"
    );
}

/// Latency does not collapse with load on any fabric, and wireless has
/// the lower zero-load latency of the two fully measured fabrics
/// (§IV.B).  The substrate is left out of the second check: its slow
/// cross-chip serial packets are censored by the short quick window
/// (survivor bias), which can deflate its mean below the others; the
/// full ordering holds at paper scale.
///
/// Seen to fail on doctored copies of `fig3.csv`: the Substrate cell at
/// 0.001 set to `-` and to `0.0`, the Wireless cells at 0.001 and 0.064
/// swapped, and the Interposer and Wireless cells at 0.001 swapped —
/// each trips its own assertion.
#[test]
fn fig3_latency_rises_with_load_and_wireless_starts_below_interposer() {
    let (header, rows) = fixture("fig3");
    assert_eq!(header.len(), 4, "a load column and three series: {header:?}");
    let series = |column: usize| -> Vec<Option<f64>> {
        rows.iter().map(|row| number(&row[column])).collect()
    };
    for (column, label) in header.iter().enumerate().skip(1) {
        let points = series(column);
        let first = points[0].unwrap_or_else(|| panic!("{label}: the lowest load finishes"));
        assert!(first > 0.0, "{label}: {points:?}");
        let measured: Vec<f64> = points.into_iter().flatten().collect();
        for w in measured.windows(2) {
            assert!(
                w[1] >= w[0] * 0.8,
                "{label}: latency should not collapse with load: {measured:?}"
            );
        }
    }
    let lowest = |fabric: &str| {
        let column = header.iter().position(|h| h.contains(fabric)).expect("series per fabric");
        value(&rows[0], column)
    };
    assert!(
        lowest("Wireless") < lowest("Interposer"),
        "zero-load latency: wireless {} vs interposer {}",
        lowest("Wireless"),
        lowest("Interposer")
    );
}

/// The off-chip shares are §IV.C's 20 / 80 / 90 % (81 and 91 exactly),
/// and wireless wins bandwidth and energy at every disintegration
/// level.  The paper additionally shows gains *shrinking* with chip
/// count; this rebuild inverts parts of that trend (docs/experiments.md
/// explains why the paper's trend contradicts its own per-bit energy
/// constants), so the trend is not asserted.
///
/// Seen to fail on doctored copies of `fig4.csv`: the 4C4M and 8C4M
/// off-chip cells swapped, the 1C4M bandwidth gain negated and the 4C4M
/// energy gain negated.
#[test]
fn fig4_wireless_wins_at_every_disintegration_level() {
    let (_, rows) = fixture("fig4");
    assert_eq!(rows.len(), 3);
    for (row, (share, tolerance)) in rows.iter().zip([(20.0, 1.0), (81.0, 1.5), (91.0, 1.5)]) {
        let off_chip = value(row, 1);
        assert!(
            (off_chip - share).abs() < tolerance,
            "off-chip share {off_chip} vs {share}: {row:?}"
        );
    }
    for row in &rows {
        assert!(value(row, 2) > 0.0, "wireless must win bandwidth: {row:?}");
        assert!(value(row, 3) > 0.0, "wireless must save energy: {row:?}");
    }
}

/// Wireless clearly wins bandwidth at the lowest memory share, and the
/// gain falls as memory dominates — both fabrics converge on the
/// memory-side bottleneck, the paper's asymptote — without dropping out
/// of that band.  Energy gains stay positive and below 80 % throughout,
/// and the last stays above half the first.  Their direction diverges
/// from the paper (rising with memory share, not falling):
/// docs/experiments.md shows the paper's own constants make wireless
/// memory paths ~3x cheaper per bit than the 6.5 pJ/bit wide I/O.
///
/// Seen to fail on doctored copies of `fig5.csv`: the two bandwidth gains
/// swapped; the 80 % bandwidth gain set to +20.0 and to −31.5; the 20 %
/// energy gain set to +84.6 and negated; the 80 % energy gain set to
/// +12.0 — each trips its own assertion.
#[test]
fn fig5_bandwidth_gain_falls_with_memory_share_and_energy_gains_hold() {
    let (_, rows) = fixture("fig5");
    assert_eq!(rows.len(), 2);
    let (first, last) = (&rows[0], &rows[rows.len() - 1]);
    assert!(value(first, 1) > 0.0, "{rows:?}");
    assert!(
        value(last, 1) < value(first, 1),
        "bandwidth gain must fall with memory share: {rows:?}"
    );
    assert!(value(last, 1) > -30.0, "high-memory bandwidth stays in the asymptotic band: {rows:?}");
    for row in &rows {
        let energy = value(row, 2);
        assert!(energy > 0.0 && energy < 80.0, "energy gain out of (0, 80): {row:?}");
    }
    assert!(
        value(last, 2) > value(first, 2) * 0.5,
        "gains stay substantial across the sweep: {rows:?}"
    );
}

/// Wireless cuts both latency and packet energy for every application
/// (§IV.D).
///
/// Seen to fail on doctored copies of `fig6.csv`: the blackscholes latency
/// gain negated and the canneal energy gain negated.
#[test]
fn fig6_wireless_wins_latency_and_energy_for_every_app() {
    let (_, rows) = fixture("fig6");
    assert_eq!(rows.len(), 4);
    for row in &rows {
        assert!(value(row, 2) > 0.0, "{}: wireless must cut latency: {row:?}", row[0]);
        assert!(value(row, 3) > 0.0, "{}: wireless must cut energy: {row:?}", row[0]);
    }
}
