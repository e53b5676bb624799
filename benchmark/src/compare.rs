//! `vmbench compare A.json B.json`: one row per (workload, end-to-end
//! metric) with both medians, their ratio, the bound and a verdict.

use crate::json::Json;
use crate::metrics::{Better, Summary, END_TO_END};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound and the two sets of
    /// runs overlap: the data cannot tell "unchanged" from "regressed".
    Unresolved,
}

/// Judges metric values `b` (the change) against `a` (the base): worse by
/// more than the share `bound` of the base's median is a regression. Medians
/// no further apart than `floor` (in the metric's unit) are always `Ok`.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64, floor: f64) -> (Verdict, f64) {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let ratio = sb.median / sa.median;
    let worse_by = match better {
        Better::Higher => 1.0 - ratio,
        Better::Lower => ratio - 1.0,
    };
    let separated = sb.min > sa.max || sb.max < sa.min;
    let verdict = if (sb.median - sa.median).abs() <= floor {
        Verdict::Ok
    } else if sa.spread().max(sb.spread()) > bound && !separated {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, ratio)
}

fn values_of(workload: &Json, metric: &str) -> Option<Vec<f64>> {
    workload
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

/// Prints the comparison of two results documents; `Ok(true)` when every
/// row is `ok`, no operation failed on either side and no digest moved.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    fn workloads(doc: &Json) -> Result<&[Json], String> {
        doc.get("workloads")
            .and_then(Json::as_arr)
            .ok_or_else(|| "not a vmbench results file: no \"workloads\"".to_string())
    }
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut all_ok = true;
    println!(
        "{:<13} {:<13} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound"
    );
    for entry_a in wa {
        let name = entry_a.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(entry_b) = wb
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            println!("{name:<13} missing from B");
            all_ok = false;
            continue;
        };
        for metric in &END_TO_END {
            let (Some(va), Some(vb)) = (
                values_of(entry_a, metric.name).filter(|v| !v.is_empty()),
                values_of(entry_b, metric.name).filter(|v| !v.is_empty()),
            ) else {
                println!("{name:<13} {:<13} no samples", metric.name);
                all_ok = false;
                continue;
            };
            let (verdict, ratio) = judge(&va, &vb, metric.better, metric.bound, metric.floor);
            all_ok &= verdict == Verdict::Ok;
            println!(
                "{name:<13} {:<13} {:>14.6} {:>14.6} {ratio:>9.4} {:>6.2}  {}",
                metric.name,
                Summary::of(&va).median,
                Summary::of(&vb).median,
                metric.bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let failed = |entry: &Json| {
            entry
                .get("ops_failed")
                .and_then(Json::as_f64)
                .unwrap_or(1.0)
        };
        if failed(entry_a) > 0.0 || failed(entry_b) > 0.0 {
            println!(
                "{name:<13} failed operations: A {} B {}",
                failed(entry_a),
                failed(entry_b)
            );
            all_ok = false;
        }
        if entry_a.get("stats_digest") != entry_b.get("stats_digest") {
            println!("{name:<13} simulated statistics changed (stats_digest differs)");
            all_ok = false;
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_shift_beyond_the_bound_with_tight_runs_is_a_regression() {
        let a = [10.0, 10.1, 9.9, 10.0];
        let slower = [8.0, 8.1, 7.9, 8.0];
        assert_eq!(
            judge(&a, &slower, Better::Higher, 0.1, 0.0).0,
            Verdict::Regressed
        );
        assert_eq!(judge(&a, &a, Better::Higher, 0.1, 0.0).0, Verdict::Ok);
        // The same shift is an improvement when lower is better.
        assert_eq!(judge(&a, &slower, Better::Lower, 0.1, 0.0).0, Verdict::Ok);
    }

    #[test]
    fn a_shift_within_the_absolute_floor_is_not_a_regression() {
        // 12 us against 9 us of set-up: a third worse, three microseconds.
        let a = [9.0e-6, 9.1e-6, 8.9e-6];
        let b = [12.0e-6, 12.1e-6, 11.9e-6];
        assert_eq!(
            judge(&a, &b, Better::Lower, 0.25, 0.0).0,
            Verdict::Regressed
        );
        assert_eq!(judge(&a, &b, Better::Lower, 0.25, 0.02).0, Verdict::Ok);
        // The floor does not excuse a shift larger than itself.
        let slow = [0.05, 0.051, 0.049];
        assert_eq!(
            judge(&a, &slow, Better::Lower, 0.25, 0.02).0,
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_not_unchanged() {
        let a = [8.0, 10.0, 12.0, 9.0, 11.0];
        let b = [7.5, 9.5, 11.5, 8.5, 10.5];
        assert_eq!(
            judge(&a, &b, Better::Higher, 0.1, 0.0).0,
            Verdict::Unresolved
        );
        // Wide but fully separated runs still resolve.
        let far = [2.0, 3.0, 4.0, 2.5, 3.5];
        assert_eq!(
            judge(&a, &far, Better::Higher, 0.1, 0.0).0,
            Verdict::Regressed
        );
    }
}
