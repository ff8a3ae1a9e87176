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
