//! The A/A (and A/B) comparator: two `results.json` files, one verdict
//! per workload × end-to-end metric, held to the benchmark's own bounds.

use std::fs;

use crate::metrics::{Better, EndToEnd, END_TO_END, FAILED_SHARE};
use crate::report::{Metric, Results};

/// How `b` stands against `a` on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The values differ by no more than the bound (or its floor).
    Within,
    /// `b` is better by more than the bound, typical ranges apart.
    Better,
    /// `b` is worse by more than the bound, typical ranges apart.
    Worse,
    /// The values differ by more than the bound but each run's best
    /// sample lies within the other's best-to-median range: the spread
    /// is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The range a run's readings typically fall in: from the reported
/// value (the best sample) to the median sample.
fn typical(m: &Metric) -> (f64, f64) {
    let median = m.spread.map_or(m.value, |s| s.median);
    (m.value.min(median), m.value.max(median))
}

/// The verdict and the share by which `b` is worse than `a` (negative:
/// better), in the metric's own direction.
pub fn verdict(metric: &EndToEnd, a: &Metric, b: &Metric) -> (Verdict, f64) {
    let change = b.value - a.value;
    let worse_by = match metric.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let share = if a.value == 0.0 {
        if worse_by == 0.0 {
            0.0
        } else {
            worse_by.signum() * f64::INFINITY
        }
    } else {
        worse_by / a.value.abs()
    };
    if share.abs() <= metric.bound || change.abs() <= metric.floor {
        return (Verdict::Within, share);
    }
    let ((a_lo, a_hi), (b_lo, b_hi)) = (typical(a), typical(b));
    let overlap = a_lo <= b_hi && b_lo <= a_hi;
    let verdict = match (overlap, share > 0.0) {
        (true, _) => Verdict::Unresolved,
        (false, true) => Verdict::Worse,
        (false, false) => Verdict::Better,
    };
    (verdict, share)
}

fn load(path: &str) -> Result<Results, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))
}

/// Prints the comparison of results file `b` against `a`; `Ok(true)`
/// when no metric is worse.
///
/// # Errors
///
/// Unreadable files, or files from runs that cannot be compared.
pub fn compare(a: &str, b: &str) -> Result<bool, String> {
    let (ra, rb) = (load(a)?, load(b)?);
    if ra.quick != rb.quick {
        return Err("one run is --quick and the other is not".to_string());
    }
    println!("A = {a} (seed {:#x}, {})", ra.seed, ra.engine_version);
    println!("B = {b} (seed {:#x}, {})", rb.seed, rb.engine_version);
    println!(
        "{:<14} {:<17} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "B worse", "bound"
    );
    let (mut worse, mut unresolved) = (0, 0);
    for (name, wa) in ra.workloads.iter() {
        let Some(wb) = rb.workloads.get(name) else {
            return Err(format!("{b} has no workload `{name}`"));
        };
        for metric in END_TO_END.iter().chain(std::iter::once(&FAILED_SHARE)) {
            let (Some(ma), Some(mb)) = (
                wa.end_to_end.metrics.get(metric.name),
                wb.end_to_end.metrics.get(metric.name),
            ) else {
                return Err(format!("{name}: metric `{}` missing", metric.name));
            };
            let (v, share) = verdict(metric, ma, mb);
            worse += usize::from(v == Verdict::Worse);
            unresolved += usize::from(v == Verdict::Unresolved);
            println!(
                "{name:<14} {:<17} {:>14.6} {:>14.6} {:>+8.2}% {:>6.1}%  {}",
                metric.name,
                ma.value,
                mb.value,
                share * 100.0,
                metric.bound * 100.0,
                v.as_str()
            );
        }
    }
    println!("{worse} worse, {unresolved} unresolved");
    Ok(worse == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Spread;

    /// A timing whose best sample is `best` and whose median sample
    /// lies `noise` above it.
    fn timing(best: f64, noise: f64) -> Metric {
        let spread = Spread {
            n: 7,
            min: best,
            q1: best + noise / 2.0,
            median: best + noise,
            q3: best + 2.0 * noise,
            max: best + 4.0 * noise,
        };
        Metric {
            value: best,
            unit: "s".into(),
            spread: Some(spread),
        }
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let wall = &END_TO_END[1];
        assert_eq!(wall.name, "wall_s");
        assert_eq!(
            verdict(wall, &timing(1.0, 0.01), &timing(1.1, 0.01)).0,
            Verdict::Within
        );
        assert_eq!(
            verdict(wall, &timing(1.0, 0.01), &timing(1.5, 0.01)).0,
            Verdict::Worse
        );
        assert_eq!(
            verdict(wall, &timing(1.0, 0.01), &timing(0.6, 0.01)).0,
            Verdict::Better
        );
        assert_eq!(
            verdict(wall, &timing(1.0, 0.6), &timing(1.5, 0.6)).0,
            Verdict::Unresolved
        );
        // Higher is better: a drop is the worse direction.
        let rate = &END_TO_END[3];
        assert_eq!(rate.name, "sim_cycles_per_s");
        let (v, share) = verdict(rate, &timing(100.0, -1.0), &timing(70.0, -1.0));
        assert_eq!(v, Verdict::Worse);
        assert!((share - 0.3).abs() < 1e-12);
        // Below the absolute floor nothing counts.
        let setup = &END_TO_END[0];
        assert_eq!(
            verdict(setup, &timing(0.001, 0.0), &timing(0.002, 0.0)).0,
            Verdict::Within
        );
        // Any increase of the failed share is a regression.
        let exact = |value: f64| Metric {
            value,
            unit: "ratio".into(),
            spread: None,
        };
        assert_eq!(
            verdict(&FAILED_SHARE, &exact(0.0), &exact(0.0)).0,
            Verdict::Within
        );
        assert_eq!(
            verdict(&FAILED_SHARE, &exact(0.0), &exact(0.01)).0,
            Verdict::Worse
        );
    }
}
