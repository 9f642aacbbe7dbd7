//! Shared harness for the KathDB benchmark suite and the `paper_figures`
//! binary that regenerates every table and figure of the paper (see
//! DESIGN.md §4 for the experiment index).

#![warn(missing_docs)]

use kath_data::{mmqa_small, MmqaCorpus};
use kath_json::Json;
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

#[cfg(test)]
mod tests {
    use super::*;

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
