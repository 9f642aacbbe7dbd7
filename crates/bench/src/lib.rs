//! Shared harness for the KathDB benchmark suite and the `paper_figures`
//! binary that regenerates every table and figure of the paper (see
//! DESIGN.md §4 for the experiment index).

#![warn(missing_docs)]

use kath_data::{mmqa_small, MmqaCorpus};
use kath_json::{to_string_pretty, Json, JsonMap};
use kath_model::ScriptedChannel;
use kathdb::{KathDB, QueryResult};
use std::sync::Arc;

/// The paper's flagship NL query (§1, §6).
pub const FLAGSHIP_QUERY: &str = "Sort the given films in the table by how exciting \
                                  they are, but the poster should be 'boring'";

/// The simulated user replies of §6: clarification, reactive correction,
/// approval.
pub fn flagship_channel() -> Arc<ScriptedChannel> {
    ScriptedChannel::new([
        "The movie plot contains scenes that are uncommon in real life",
        "Oh I prefer a more recent movie as well when scoring",
        "OK",
    ])
}

/// Runs the flagship query over a corpus; returns the database (for lineage
/// and registry inspection), the result, and the interaction transcript.
pub fn run_flagship(corpus: &MmqaCorpus) -> (KathDB, QueryResult, Arc<ScriptedChannel>) {
    let mut db = KathDB::new(42);
    db.load_corpus(corpus).expect("corpus loads");
    let channel = flagship_channel();
    let result = db
        .query(FLAGSHIP_QUERY, channel.as_ref())
        .expect("flagship query runs");
    (db, result, channel)
}

/// Runs the flagship query over the paper's small corpus.
pub fn run_flagship_small() -> (KathDB, QueryResult, Arc<ScriptedChannel>) {
    run_flagship(&mmqa_small())
}

/// Where and from what source a bench run was made, for the head of its
/// JSON report: core count, CPU model, kernel, compiler and git revision
/// (`-dirty` when the work tree differs from it; `"unknown"` for whatever
/// the host does not tell).
pub fn host_fingerprint() -> Json {
    let unknown = || "unknown".to_string();
    let file = |path: &str| std::fs::read_to_string(path).ok();
    let first_line_of = |program: &str, args: &[&str]| {
        let out = std::process::Command::new(program).args(args).output().ok();
        let text = String::from_utf8(out.filter(|o| o.status.success())?.stdout).ok()?;
        text.lines().next().map(str::to_string)
    };
    let cpu_model = file("/proc/cpuinfo").and_then(|s| {
        let line = s.lines().find(|l| l.starts_with("model name"))?;
        Some(line.split(':').nth(1)?.trim().to_string())
    });
    let kernel = file("/proc/sys/kernel/osrelease").map(|s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let git_rev = first_line_of("git", &["rev-parse", "HEAD"]).map(|rev| {
        let dirty = first_line_of("git", &["status", "--porcelain"]).is_some();
        rev + if dirty { "-dirty" } else { "" }
    });
    Json::object([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu_model", Json::Str(cpu_model.unwrap_or_else(unknown))),
        ("kernel", Json::Str(kernel.unwrap_or_else(unknown))),
        (
            "rustc",
            Json::Str(first_line_of("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        ("git_rev", Json::Str(git_rev.unwrap_or_else(unknown))),
    ])
}

/// The arguments every bench binary takes: `--quick` (the `make bench-smoke`
/// setting: small inputs, few reps) and `--out <path>`.
pub struct BenchArgs {
    /// Whether `--quick` was given.
    pub quick: bool,
    /// Where the JSON report goes.
    pub out: String,
}

impl BenchArgs {
    /// Reads them from the process arguments; the report goes to
    /// `default_out` unless `--out` names another path.
    pub fn parse(default_out: &str) -> BenchArgs {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let out = args.iter().position(|a| a == "--out");
        BenchArgs {
            quick: args.iter().any(|a| a == "--quick"),
            out: out
                .and_then(|i| args.get(i + 1).cloned())
                .unwrap_or_else(|| default_out.to_string()),
        }
    }
}

/// The median of `xs`: 0 for none, the mean of the middle two for an even
/// count.
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Writes a bench report to `path`: the header every report carries —
/// `bench`, `quick`, `reps` and `host` ([`host_fingerprint`]) — followed by
/// `body`'s entries in their order.
pub fn write_report(path: &str, bench: &str, quick: bool, reps: usize, body: JsonMap) {
    let mut report = JsonMap::new();
    report.insert("bench", Json::str(bench));
    report.insert("quick", Json::Bool(quick));
    report.insert("reps", Json::Num(reps as f64));
    report.insert("host", host_fingerprint());
    for (key, value) in body.iter() {
        report.insert(key, value.clone());
    }
    std::fs::write(path, to_string_pretty(&Json::Object(report)) + "\n").expect("report writes");
    eprintln!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_none_one_odd_and_even() {
        assert_eq!(median(vec![]), 0.0);
        assert_eq!(median(vec![4.0]), 4.0);
        assert_eq!(median(vec![9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn harness_reproduces_fig6() {
        let (_db, result, _) = run_flagship_small();
        let t = result.display_table();
        assert_eq!(
            t.cell(0, "title").unwrap().as_str(),
            Some("Guilty by Suspicion")
        );
    }
}
