//! The committed `BENCH_*.json` reports at the repo root are what the docs
//! quote, so each must be a full run on a described host, and the set of
//! them must be exactly the set of reports the bench binaries write: a
//! report no binary produces any more is an orphan, and a binary whose
//! report is not committed answers its question nowhere.

use kath_json::Json;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The default report of every bench binary: the file its
/// `BenchArgs::parse("…")` call names.
fn default_reports() -> BTreeSet<String> {
    let bins = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    let mut reports = BTreeSet::new();
    for entry in std::fs::read_dir(bins).expect("src/bin lists") {
        let source = std::fs::read_to_string(entry.expect("entry").path()).expect("bin reads");
        if let Some((_, rest)) = source.split_once("BenchArgs::parse(\"") {
            let name = rest.split('"').next().expect("closing quote");
            reports.insert(name.to_string());
        }
    }
    reports
}

fn committed_reports() -> BTreeSet<String> {
    std::fs::read_dir(repo_root())
        .expect("repo root lists")
        .map(|entry| {
            entry
                .expect("entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect()
}

#[test]
fn every_bench_binary_has_its_report_committed_and_no_report_is_orphaned() {
    let defaults = default_reports();
    assert!(
        defaults.contains("BENCH_parallel.json"),
        "no bench binary found: {defaults:?}"
    );
    assert_eq!(committed_reports(), defaults);
}

#[test]
fn every_committed_report_is_a_full_run_on_a_described_host() {
    let mut faults = Vec::new();
    for name in committed_reports() {
        let text = std::fs::read_to_string(repo_root().join(&name)).expect("report reads");
        let report = match kath_json::parse(&text) {
            Ok(report) => report,
            Err(e) => {
                faults.push(format!("{name}: does not parse: {e:?}"));
                continue;
            }
        };
        if report.get("quick").and_then(Json::as_bool) != Some(false) {
            faults.push(format!("{name}: not `\"quick\": false`"));
        }
        if report.get("reps").and_then(Json::as_f64).is_none() {
            faults.push(format!("{name}: no `reps`"));
        }
        for key in ["nproc", "kernel", "git_rev"] {
            if report.get("host").and_then(|h| h.get(key)).is_none() {
                faults.push(format!("{name}: no `host.{key}`"));
            }
        }
    }
    assert!(faults.is_empty(), "{}", faults.join("\n"));
}
