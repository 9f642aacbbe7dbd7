//! `txn_bench` — what group commit buys, in numbers.
//!
//! Two questions, answered machine-readably in `BENCH_txn.json`:
//!
//! 1. **Durable write throughput** — inserts/sec at 1/4/16/64 concurrent
//!    writer sessions, group commit (concurrent commits share fsyncs:
//!    leader syncs, followers wait on the durable LSN) vs per-statement
//!    fsync (every commit pays its own sync). fsync latency dominates a
//!    small durable insert, so group commit should win whenever writers
//!    overlap — the acceptance target is a win at ≥ 4 writers.
//! 2. **Snapshot read scalability** — SELECT QPS at 1/8/64 reader
//!    sessions over one shared catalog: snapshots are O(1) Arc clones
//!    behind an RwLock, so aggregate QPS should not collapse as sessions
//!    multiply.
//!
//! ```sh
//! cargo run --release -p kath_bench --bin txn_bench            # full sweep
//! cargo run --release -p kath_bench --bin txn_bench -- --quick # CI smoke, into target/bench-smoke/
//! cargo run --release -p kath_bench --bin txn_bench -- --out custom.json
//! ```
//!
//! Every leg asserts row-count parity (all acked inserts are readable)
//! before its timing is trusted. Timings land in the JSON for trend
//! diffs — thresholds are targets, not assertions (CI machines jitter).

use kath_bench::{write_report, BenchArgs};
use kath_json::{Json, JsonMap};
use kathdb::KathDB;
use std::time::Instant;

fn bench_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("kathdb_txn_bench_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `writers` sessions each autocommit `per_writer` durable single-row
/// INSERTs; returns aggregate inserts/sec.
fn durable_insert_throughput(writers: usize, per_writer: usize, group: bool) -> f64 {
    let tag = format!("w{writers}_{}", if group { "group" } else { "fsync" });
    let dir = bench_dir(&tag);
    let mut db = KathDB::open(&dir).expect("durable dir opens");
    db.sql("CREATE TABLE t (w INT, i INT)").unwrap();
    db.set_group_commit(group);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..writers {
            let mut session = db.session();
            scope.spawn(move || {
                for i in 0..per_writer {
                    session
                        .sql(&format!("INSERT INTO t VALUES ({w}, {i})"))
                        .expect("durable insert");
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let total = writers * per_writer;
    let n = db.sql("SELECT * FROM t").unwrap().len();
    assert_eq!(n, total, "acked inserts must all be readable");
    db.set_group_commit(true);
    drop(db);
    let _ = std::fs::remove_dir_all(dir);
    total as f64 / elapsed
}

/// `sessions` readers each run `per_session` snapshot SELECTs over a
/// shared in-memory catalog; returns aggregate queries/sec.
fn snapshot_qps(sessions: usize, per_session: usize, rows: usize) -> f64 {
    let mut db = KathDB::new(42);
    db.sql("CREATE TABLE t (x INT, grp INT)").unwrap();
    for chunk in (0..rows).collect::<Vec<_>>().chunks(500) {
        let values: Vec<String> = chunk.iter().map(|i| format!("({i}, {})", i % 7)).collect();
        db.sql(&format!("INSERT INTO t VALUES {}", values.join(", ")))
            .unwrap();
    }
    let expect = db
        .sql("SELECT grp, COUNT(*) AS n FROM t GROUP BY grp")
        .unwrap()
        .len();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..sessions {
            let mut session = db.session();
            scope.spawn(move || {
                for _ in 0..per_session {
                    let t = session
                        .sql("SELECT grp, COUNT(*) AS n FROM t GROUP BY grp")
                        .expect("snapshot read");
                    assert_eq!(t.len(), expect, "snapshot diverged");
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    (sessions * per_session) as f64 / elapsed
}

fn main() {
    let BenchArgs { quick, out } = BenchArgs::parse("BENCH_txn.json");
    let writer_counts: &[usize] = if quick { &[1, 4] } else { &[1, 4, 16, 64] };
    let session_counts: &[usize] = if quick { &[1, 8] } else { &[1, 8, 64] };
    let (inserts_per_writer, reads_per_session, read_rows) = if quick {
        (24, 20, 2_000)
    } else {
        (64, 50, 10_000)
    };

    let mut write_legs = Vec::new();
    eprintln!("durable inserts/sec ({inserts_per_writer} per writer):");
    for &writers in writer_counts {
        let group = durable_insert_throughput(writers, inserts_per_writer, true);
        let fsync = durable_insert_throughput(writers, inserts_per_writer, false);
        let speedup = group / fsync;
        eprintln!(
            "  {writers:>2} writer(s): group {group:>9.0}/s, per-stmt fsync {fsync:>9.0}/s \
             ({speedup:.2}x)"
        );
        let mut leg = JsonMap::new();
        leg.insert("writers", Json::Num(writers as f64));
        leg.insert("inserts_per_writer", Json::Num(inserts_per_writer as f64));
        leg.insert("group_commit_per_sec", Json::Num(group));
        leg.insert("per_statement_fsync_per_sec", Json::Num(fsync));
        leg.insert("group_speedup", Json::Num(speedup));
        write_legs.push(Json::Object(leg));
    }

    let mut read_legs = Vec::new();
    eprintln!("snapshot SELECT QPS ({read_rows}-row table, {reads_per_session} per session):");
    for &sessions in session_counts {
        let qps = snapshot_qps(sessions, reads_per_session, read_rows);
        eprintln!("  {sessions:>2} session(s): {qps:>9.0} queries/s");
        let mut leg = JsonMap::new();
        leg.insert("sessions", Json::Num(sessions as f64));
        leg.insert("reads_per_session", Json::Num(reads_per_session as f64));
        leg.insert("qps", Json::Num(qps));
        read_legs.push(Json::Object(leg));
    }

    let mut report = JsonMap::new();
    report.insert("durable_inserts", Json::Array(write_legs));
    report.insert("snapshot_reads", Json::Array(read_legs));
    write_report(&out, "transactions_and_sessions", quick, 1, report);
}
