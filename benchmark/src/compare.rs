//! `--compare a.json b.json`: applies the bounds of `BENCHMARK.json` to two
//! report files and prints one row per (metric, workload).

use crate::report::{read_reports, Report};
use crate::spec::{Better, MetricSpec, END_TO_END};
use crate::stats::{iqr_share, median};
use kath_json::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// The verdict on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// Run-to-run spread is wider than the bound, and the runs overlap.
    Unresolved,
}

/// Regression bounds by end-to-end metric name, from `BENCHMARK.json`.
pub fn read_bounds(path: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = kath_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let metrics = json
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// Judges `after` against `before` for one metric: medians compared under
/// `bound`, and `Unresolved` when either side's spread exceeds the bound
/// unless every run of one side beats every run of the other.
pub fn judge(spec: &MetricSpec, bound: f64, before: &[f64], after: &[f64]) -> Verdict {
    // Fold "higher is better" into "lower is better".
    let sign = if spec.better == Better::Lower {
        1.0
    } else {
        -1.0
    };
    let (base, new) = (median(before), median(after));
    let worse_by = sign * (new - base) / base.abs().max(f64::MIN_POSITIVE);
    let noisy = iqr_share(before) > bound || iqr_share(after) > bound;
    if noisy {
        let best = |xs: &[f64]| xs.iter().map(|x| sign * x).fold(f64::INFINITY, f64::min);
        let worst = |xs: &[f64]| {
            xs.iter()
                .map(|x| sign * x)
                .fold(f64::NEG_INFINITY, f64::max)
        };
        return if worst(after) < best(before) {
            Verdict::Improved
        } else if best(after) > worst(before) && worse_by > bound {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn values(reports: &[Report], workload: &str, metric: &str) -> Vec<f64> {
    reports
        .iter()
        .filter(|r| r.workload == workload && !r.traced)
        .filter_map(|r| r.metric(metric).map(|m| m.value))
        .collect()
}

fn failed_share(reports: &[Report], workload: &str) -> f64 {
    let (failed, attempted) = reports
        .iter()
        .filter(|r| r.workload == workload)
        .fold((0u64, 0u64), |(f, a), r| (f + r.failed, a + r.attempted));
    failed as f64 / attempted.max(1) as f64
}

/// Prints the comparison and returns whether `after` is acceptable: no
/// regression and no higher failed share.
pub fn compare(before: &Path, after: &Path, bounds: &Path) -> Result<bool, String> {
    let bounds = read_bounds(bounds)?;
    let (a, b) = (read_reports(before)?, read_reports(after)?);
    let mut acceptable = true;
    println!(
        "{:<14} {:<12} {:>12} {:>12} {:>9} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "before", "after", "after/before", "iqr_a", "iqr_b", "bound"
    );
    for workload in crate::spec::WORKLOADS {
        for spec in &END_TO_END {
            let (xs, ys) = (
                values(&a, workload, spec.name),
                values(&b, workload, spec.name),
            );
            if xs.is_empty() || ys.is_empty() {
                continue;
            }
            let bound = *bounds
                .get(spec.name)
                .ok_or_else(|| format!("BENCHMARK.json has no bound for {}", spec.name))?;
            let verdict = judge(spec, bound, &xs, &ys);
            acceptable &= verdict != Verdict::Regressed;
            let (base, new) = (median(&xs), median(&ys));
            println!(
                "{workload:<14} {:<12} {base:>12.4} {new:>12.4} {:>9.4} {:>7.4} {:>7.4} {bound:>6.2}  {verdict:?} ({} vs {} runs, {})",
                spec.name,
                new / base,
                iqr_share(&xs),
                iqr_share(&ys),
                xs.len(),
                ys.len(),
                spec.unit,
            );
        }
        let (fa, fb) = (failed_share(&a, workload), failed_share(&b, workload));
        if fb > fa {
            acceptable = false;
        }
        println!(
            "{workload:<14} {:<12} {fa:>12.6} {fb:>12.6}",
            "failed_share"
        );
    }
    Ok(acceptable)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY: MetricSpec = END_TO_END[1];
    const THROUGHPUT: MetricSpec = END_TO_END[3];

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let shifted = |k: f64| base.map(|x| x * k);
        assert_eq!(
            judge(&LATENCY, 0.1, &base, &shifted(1.05)),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&LATENCY, 0.1, &base, &shifted(1.2)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&LATENCY, 0.1, &base, &shifted(0.8)),
            Verdict::Improved
        );
        assert_eq!(
            judge(&THROUGHPUT, 0.1, &base, &shifted(0.8)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&THROUGHPUT, 0.1, &base, &shifted(1.2)),
            Verdict::Improved
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_runs_do_not_overlap() {
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            judge(&LATENCY, 0.1, &noisy, &noisy.map(|x| x * 1.15)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&LATENCY, 0.1, &noisy, &noisy.map(|x| x * 0.5)),
            Verdict::Improved
        );
        assert_eq!(
            judge(&LATENCY, 0.1, &noisy, &noisy.map(|x| x * 2.0)),
            Verdict::Regressed
        );
    }
}
