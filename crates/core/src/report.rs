//! Plain-text tables and CSV output for the reproduction harness.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Formats an aligned plain-text table.
///
/// # Example
///
/// ```
/// use wimnet_core::report::format_table;
///
/// let t = format_table(
///     &["arch", "gbps"],
///     &[vec!["Wireless".into(), "11.2".into()]],
/// );
/// assert!(t.contains("Wireless"));
/// assert!(t.lines().count() >= 3);
/// ```
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let mut line = String::new();
    for (i, h) in headers.iter().enumerate() {
        let _ = write!(line, "{:<width$}  ", h, width = widths[i]);
    }
    out.push_str(line.trim_end());
    out.push('\n');
    let mut rule = String::new();
    for (i, _) in headers.iter().enumerate() {
        rule.push_str(&"-".repeat(widths[i]));
        rule.push_str("  ");
    }
    out.push_str(rule.trim_end());
    out.push('\n');
    for row in rows {
        let mut line = String::new();
        for (i, cell) in row.iter().enumerate().take(cols) {
            let _ = write!(line, "{:<width$}  ", cell, width = widths[i]);
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Writes a CSV file (simple quoting: cells containing commas or quotes
/// are quoted with doubled quotes).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_csv(
    path: &Path,
    headers: &[&str],
    rows: &[Vec<String>],
) -> io::Result<()> {
    fn escape(cell: &str) -> String {
        if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
            format!("\"{}\"", cell.replace('"', "\"\""))
        } else {
            cell.to_string()
        }
    }
    let mut out = String::new();
    out.push_str(
        &headers
            .iter()
            .map(|h| escape(h))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for row in rows {
        out.push_str(
            &row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","),
        );
        out.push('\n');
    }
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, out)
}

/// Formats a float with `digits` decimals, rendering `None` as `"-"`.
pub fn fmt_opt(value: Option<f64>, digits: usize) -> String {
    match value {
        Some(v) => format!("{v:.digits$}"),
        None => "-".to_string(),
    }
}

/// Formats the per-stack memory-controller statistics of a run
/// (`RunOutcome::memory`) as an aligned table: accesses, page
/// hit/empty/miss shares, queue occupancy and bank-level parallelism.
pub fn format_memory_table(stats: &[wimnet_memory::MemoryStackStats]) -> String {
    let pct = |n: u64, d: u64| {
        if d == 0 {
            "-".to_string()
        } else {
            format!("{:.1}%", 100.0 * n as f64 / d as f64)
        }
    };
    let rows: Vec<Vec<String>> = stats
        .iter()
        .map(|s| {
            vec![
                s.stack.to_string(),
                s.accesses.to_string(),
                pct(s.page_hits, s.accesses),
                pct(s.page_empties, s.accesses),
                pct(s.page_misses, s.accesses),
                format!("{:.2}", s.avg_queue_depth),
                s.max_queue_depth.to_string(),
                format!("{:.2}", s.avg_bank_parallelism),
                format!("{:.1}%", 100.0 * s.busy_fraction),
            ]
        })
        .collect();
    format_table(
        &["stack", "accesses", "hit", "empty", "miss", "avg q", "max q", "blp", "busy"],
        &rows,
    )
}

/// Formats a run's per-category energy totals (`RunOutcome::energy`)
/// as an aligned table: every nonzero category with its share of the
/// total, then the total itself.  Each figure is one correctly-rounded
/// read-out of the meter's exact accumulator (`docs/engine.md`
/// §"Energy is read out, not charged"), so the categories sum to the
/// total up to one rounding per line — there is no accumulation drift
/// to hide.
pub fn format_energy_table(energy: &wimnet_energy::EnergyBreakdown) -> String {
    let total = energy.total.nanojoules();
    let mut rows: Vec<Vec<String>> = energy
        .entries
        .iter()
        .filter(|&&(_, e)| e > wimnet_energy::Energy::ZERO)
        .map(|&(c, e)| {
            let share = if total > 0.0 {
                format!("{:.1}%", 100.0 * e.nanojoules() / total)
            } else {
                "-".to_string()
            };
            vec![c.label().to_string(), format!("{:.4}", e.nanojoules()), share]
        })
        .collect();
    rows.push(vec!["total".to_string(), format!("{total:.4}"), "100.0%".to_string()]);
    format_table(&["category", "energy (nJ)", "share"], &rows)
}

/// Formats a run's per-link telemetry (`TelemetrySummary::links`) as a
/// utilization/stall heatmap table: one row per link with its kind,
/// flits carried, busy share of the run, and the fraction of busy
/// cycles lost to downstream credit exhaustion.  Links that never
/// carried a flit are folded into a single `(idle)` summary row so a
/// large mesh doesn't drown the hot paths.
pub fn format_link_utilization_table(
    telemetry: &wimnet_telemetry::TelemetrySummary,
) -> String {
    let pct = |n: u64, d: u64| {
        if d == 0 {
            "-".to_string()
        } else {
            format!("{:.1}%", 100.0 * n as f64 / d as f64)
        }
    };
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut idle = 0usize;
    for (i, l) in telemetry.links.iter().enumerate() {
        if l.flits == 0 && l.busy_cycles == 0 {
            idle += 1;
            continue;
        }
        rows.push(vec![
            i.to_string(),
            l.kind.clone(),
            l.flits.to_string(),
            format!("{:.1}%", 100.0 * l.utilization),
            pct(l.credit_stalls, l.busy_cycles),
        ]);
    }
    if idle > 0 {
        rows.push(vec![
            "(idle)".to_string(),
            format!("{idle} links"),
            "0".to_string(),
            "0.0%".to_string(),
            "-".to_string(),
        ]);
    }
    format_table(&["link", "kind", "flits", "busy", "stalled"], &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = format_table(
            &["a", "long-header"],
            &[
                vec!["x".into(), "1".into()],
                vec!["longer-cell".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // The header separator is as wide as the widest cell.
        assert!(lines[1].starts_with("-----------"));
        assert!(lines[2].starts_with("x "));
    }

    #[test]
    fn csv_escapes_properly() {
        let dir = std::env::temp_dir().join("wimnet-report-test");
        let path = dir.join("t.csv");
        write_csv(
            &path,
            &["a", "b"],
            &[vec!["plain".into(), "with,comma \"q\"".into()]],
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("plain,\"with,comma \"\"q\"\"\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fmt_opt_renders_none_as_dash() {
        assert_eq!(fmt_opt(Some(1.23456), 2), "1.23");
        assert_eq!(fmt_opt(None, 2), "-");
    }

    #[test]
    fn energy_table_lists_nonzero_categories_and_total() {
        use wimnet_energy::{Energy, EnergyCategory, EnergyMeter};
        let mut m = EnergyMeter::new();
        m.add(EnergyCategory::SwitchDynamic, Energy::from_pj(500.0));
        m.add_repeated(EnergyCategory::WirelessIdle, Energy::from_pj(1.0), 1_500);
        let t = format_energy_table(&m.breakdown());
        assert!(t.contains(EnergyCategory::SwitchDynamic.label()), "{t}");
        assert!(t.contains(EnergyCategory::WirelessIdle.label()), "{t}");
        assert!(
            !t.contains(EnergyCategory::DramBackground.label()),
            "zero categories are hidden: {t}"
        );
        assert!(t.contains("total"), "{t}");
        // 500 pJ of 2 000 pJ total.
        assert!(t.contains("25.0%"), "{t}");
    }

    #[test]
    fn memory_table_renders_shares_and_occupancy() {
        let stats = vec![wimnet_memory::MemoryStackStats {
            stack: 0,
            accesses: 100,
            reads: 100,
            writes: 0,
            page_hits: 60,
            page_empties: 10,
            page_misses: 30,
            admit_stall_cycles: 0,
            max_queue_depth: 5,
            avg_queue_depth: 1.25,
            avg_bank_parallelism: 2.0,
            busy_fraction: 0.5,
        }];
        let t = format_memory_table(&stats);
        assert!(t.contains("60.0%"), "{t}");
        assert!(t.contains("1.25"), "{t}");
        assert!(t.contains("blp"), "{t}");
    }

    #[test]
    fn link_table_shows_hot_links_and_folds_idle_ones() {
        use wimnet_telemetry::{LinkTelemetry, TelemetrySummary};
        let mut s = TelemetrySummary { cycles: 1000, ..Default::default() };
        s.links.push(LinkTelemetry {
            kind: "mesh".into(),
            flits: 640,
            busy_cycles: 500,
            credit_stalls: 50,
            utilization: 0.5,
        });
        s.links.push(LinkTelemetry { kind: "mesh".into(), ..Default::default() });
        s.links.push(LinkTelemetry { kind: "serial".into(), ..Default::default() });
        let t = format_link_utilization_table(&s);
        assert!(t.contains("640"), "{t}");
        assert!(t.contains("50.0%"), "{t}");
        assert!(t.contains("10.0%"), "stall share of busy cycles: {t}");
        assert!(t.contains("2 links"), "idle links fold into one row: {t}");
    }
}
