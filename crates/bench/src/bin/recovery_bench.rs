//! `recovery_bench` — the machine-readable perf trajectory of durability.
//!
//! Three questions, answered in `BENCH_recovery.json` at the repo root:
//!
//! 1. **INSERT and replay cost vs table size**: a single-row INSERT into a
//!    table that already holds 1 k / 10 k / 100 k / 1 M rows, in memory and
//!    durable (write-ahead logged + fsynced), and the reopen time of the
//!    durable directory with and without INSERTs behind the snapshot —
//!    one record per 256 table rows, at least 256, so that the replay
//!    outweighs the clean reopen's spread at every size — back to back in
//!    each of 21 reps: the median per-rep difference, per record, is what
//!    replaying one costs — reported when the lower
//!    quartile of the paired differences (written beside it) is above 0,
//!    so one slow reopen cannot decide a point, and `null` otherwise. A
//!    table is
//!    a list of row groups, and an INSERT shares every group but the last,
//!    which it copies (or reopens) and seals only if its rows fill it, so
//!    all three must be flat across the three decades, and so must the
//!    first INSERT into a bulk-loaded, never-sealed table
//!    (`first_insert_into_unsealed_ms`); only the snapshot-load floor
//!    (`reopen_clean_ms`, which verifies every page file) may grow with the
//!    table.
//! 2. **Scans, sealed vs all-open**: the same range count over the same
//!    rows, once as a never-sealed table (open row groups, whose zone maps
//!    the first hinted scan derives; the key is `all_tail_ms`) and once
//!    sealed behind the default buffer pool (pages, zone maps), on a
//!    clustered and on an unclustered column — what reads pay, or gain,
//!    for the write path's representation.
//! 3. **Replay time vs snapshot age**: reopen cost as a function of how
//!    many WAL records accumulated since the last checkpoint. The curve is
//!    the argument for checkpointing: replay is linear in the tail length,
//!    a snapshot resets it.
//!
//! ```sh
//! cargo run --release -p kath_bench --bin recovery_bench            # full
//! cargo run --release -p kath_bench --bin recovery_bench -- --quick # smoke, into target/bench-smoke/
//! cargo run --release -p kath_bench --bin recovery_bench -- --out custom.json
//! ```
//!
//! `--quick` is the `make bench-smoke` setting (1 k / 10 k rows): enough to
//! prove the durable path runs end to end and keep the JSON schema stable,
//! fast enough for CI (fsync dominates, so even quick runs measure real
//! I/O).

use kath_bench::{median, write_report, BenchArgs};
use kath_json::{Json, JsonMap};
use kath_storage::{DataType, Schema, Table, Value};
use kathdb::KathDB;
use std::path::PathBuf;
use std::time::Instant;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kathdb_recovery_bench_{}", std::process::id()));
    dir.join(name)
}

fn insert_stmt(i: usize) -> String {
    format!("INSERT INTO kv VALUES ({i}, 'value-{i}')")
}

/// `big (k INT, v STR, r INT)` with `rows` rows: `k` ascending (clustered),
/// `r` the same numbers scattered (7919 is coprime to every size used).
fn big_table(rows: usize) -> Table {
    let schema = Schema::of(&[
        ("k", DataType::Int),
        ("v", DataType::Str),
        ("r", DataType::Int),
    ]);
    let mut t = Table::new("big", schema);
    for k in 0..rows {
        let r = (k * 7919 % rows) as i64;
        t.push(vec![
            Value::Int(k as i64),
            format!("value-{k}").into(),
            r.into(),
        ])
        .expect("generated row fits the schema");
    }
    t
}

fn big_insert(k: usize) -> String {
    format!("INSERT INTO big VALUES ({k}, 'value-{k}', {k})")
}

/// Runs `inserts` single-row INSERTs starting at key `from`; returns the
/// median µs of one.
fn time_inserts(db: &mut KathDB, from: usize, inserts: usize) -> f64 {
    let mut samples = Vec::with_capacity(inserts);
    for k in from..from + inserts {
        let sql = big_insert(k);
        let started = Instant::now();
        db.sql(&sql).unwrap();
        samples.push(started.elapsed().as_secs_f64() * 1e6);
    }
    median(samples)
}

/// Ms of one cold open of `dir` (the handle is dropped without `close`, so
/// nothing is checkpointed), checking the row count.
fn time_reopen(dir: &std::path::Path, want_rows: usize) -> f64 {
    let started = Instant::now();
    let db = KathDB::open(dir).expect("recovery succeeds");
    let ms = started.elapsed().as_secs_f64() * 1000.0;
    let rows = db.context().catalog.snapshot().get("big").unwrap().len();
    assert_eq!(rows, want_rows, "recovery lost rows");
    ms
}

/// The median of the lower half of `xs` (the middle sample of an odd count
/// belongs to neither half).
fn lower_quartile(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    median(xs[..xs.len() / 2].to_vec())
}

/// Question 1 at one table size: `inserts` INSERTs timed in memory, and
/// one durable INSERT per 256 rows, at least `inserts`, timed and replayed.
fn size_point(rows: usize, inserts: usize, reps: usize) -> Json {
    let records = (rows / 256).max(inserts);
    // In memory. The first INSERT into a bulk-loaded, never-sealed table
    // copies the open last group it appends to and seals nothing it did not
    // fill; it is reported on its own.
    let mut db = KathDB::new(42);
    db.load_table(big_table(rows), "bench://big").unwrap();
    let started = Instant::now();
    db.sql(&big_insert(rows)).unwrap();
    let first_unsealed_ms = started.elapsed().as_secs_f64() * 1000.0;
    db.page_table("big").unwrap();
    let from = db.context().catalog.snapshot().get("big").unwrap().len();
    let memory_us = time_inserts(&mut db, from, inserts);
    drop(db);

    // Durable: two directories hold the same checkpoint (load, checkpoint,
    // crash), and one of them `records` INSERTs logged behind it. Each rep
    // reopens both back to back, so a pair shares the host's moment.
    let clean = tmp_dir(&format!("size_{rows}_clean"));
    let replay = tmp_dir(&format!("size_{rows}_replay"));
    for dir in [&clean, &replay] {
        let _ = std::fs::remove_dir_all(dir);
        let mut db = KathDB::open(dir).expect("durable dir opens");
        db.load_table(big_table(rows), "bench://big").unwrap();
        db.checkpoint().unwrap();
    }
    let durable_us = {
        let mut db = KathDB::open(&replay).expect("durable dir opens");
        time_inserts(&mut db, rows, records)
    };
    let (mut clean_ms, mut replay_ms, mut diff_ms) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        let c = time_reopen(&clean, rows);
        let r = time_reopen(&replay, rows + records);
        clean_ms.push(c);
        replay_ms.push(r);
        diff_ms.push(r - c);
    }
    // Decided on the paired differences: most pairs must show the replay
    // reopen slower, not the median alone.
    let diff_q1_ms = lower_quartile(diff_ms.clone());
    let (reopen_clean_ms, reopen_replay_ms) = (median(clean_ms), median(replay_ms));
    let diff_ms = median(diff_ms);
    let replay_us = (diff_q1_ms > 0.0).then(|| diff_ms * 1000.0 / records as f64);
    let _ = [&clean, &replay].map(std::fs::remove_dir_all);
    let replay_json = replay_us.map_or(Json::Null, Json::Num);
    eprintln!(
        "  {rows:>8} rows: INSERT {memory_us:7.1} µs in memory, {durable_us:7.1} µs durable; \
         reopen {reopen_clean_ms:7.2} ms clean, {reopen_replay_ms:7.2} ms with {records} records \
         (+{diff_ms:.2} ms per pair, lower quartile {diff_q1_ms:+.2} ms)"
    );
    Json::object([
        ("rows", Json::Num(rows as f64)),
        ("memory_us_per_insert", Json::Num(memory_us)),
        ("durable_us_per_insert", Json::Num(durable_us)),
        (
            "first_insert_into_unsealed_ms",
            Json::Num(first_unsealed_ms),
        ),
        ("reopen_clean_ms", Json::Num(reopen_clean_ms)),
        ("reopen_replay_ms", Json::Num(reopen_replay_ms)),
        ("replayed_records", Json::Num(records as f64)),
        ("replay_diff_q1_ms", Json::Num(diff_q1_ms)),
        ("replay_us_per_record", replay_json),
    ])
}

/// Question 2: median ms of a 1 % range count on the clustered and on the
/// scattered column, over `rows` rows all open and sealed.
fn scan_series(rows: usize, reps: usize) -> Vec<Json> {
    let mut open_db = KathDB::new(42);
    open_db.load_table(big_table(rows), "bench://big").unwrap();
    let mut sealed_db = KathDB::new(42);
    sealed_db
        .load_table(big_table(rows), "bench://big")
        .unwrap();
    sealed_db.page_table("big").unwrap();
    let (lo, hi) = (rows / 2, rows / 2 + rows / 100);
    let mut series = Vec::new();
    for (predicate, column) in [("clustered", "k"), ("unclustered", "r")] {
        let sql =
            format!("SELECT COUNT(*) AS n FROM big WHERE {column} >= {lo} AND {column} < {hi}");
        let mut point = JsonMap::new();
        point.insert("rows", Json::Num(rows as f64));
        point.insert("predicate", Json::Str(predicate.into()));
        let mut line = format!("  {rows} rows, {predicate} 1% range count:");
        for (backing, db) in [("all_tail_ms", &mut open_db), ("sealed_ms", &mut sealed_db)] {
            let mut samples = Vec::with_capacity(reps);
            // One untimed run first: the pool fills, lazy state settles.
            for rep in 0..=reps {
                let started = Instant::now();
                let out = db.sql(&sql).unwrap();
                let ms = started.elapsed().as_secs_f64() * 1000.0;
                assert_eq!(out.rows()[0][0], Value::Int((hi - lo) as i64));
                if rep > 0 {
                    samples.push(ms);
                }
            }
            let ms = median(samples);
            line.push_str(&format!(" {backing} {ms:.3}"));
            point.insert(backing, Json::Num(ms));
        }
        eprintln!("{line}");
        series.push(Json::Object(point));
    }
    series
}

fn main() {
    let BenchArgs { quick, out } = BenchArgs::parse("BENCH_recovery.json");
    let (inserts, age_points): (usize, Vec<usize>) = if quick {
        (64, vec![0, 32, 128])
    } else {
        (256, vec![0, 256, 1024, 4096])
    };
    let (sizes, scan_rows): (&[usize], usize) = if quick {
        (&[1_000, 10_000], 10_000)
    } else {
        (&[1_000, 10_000, 100_000, 1_000_000], 100_000)
    };
    let reps = if quick { 3 } else { 5 };
    // Reopen pairs per table size. A clean reopen varies from pair to pair,
    // so the lower quartile of the differences needs many.
    let pair_reps = if quick { 5 } else { 21 };

    // --- 1. INSERT and replay cost vs table size --------------------------
    eprintln!("measuring single-row INSERTs and the replay of one per 256 rows, by table size…");
    let size_series: Vec<Json> = sizes
        .iter()
        .map(|&rows| size_point(rows, inserts, pair_reps))
        .collect();

    // --- 2. scans, sealed vs all-open --------------------------------------
    eprintln!("measuring scans over {scan_rows} rows, all-open vs sealed…");
    let scans = scan_series(scan_rows, 2 * reps + 1);

    // --- 3. replay time vs snapshot age ---------------------------------
    let mut series = Vec::new();
    for &age in &age_points {
        let dir = tmp_dir(&format!("replay_{age}"));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut db = KathDB::open(&dir).expect("durable dir opens");
            db.sql("CREATE TABLE kv (k INT, v STR)").unwrap();
            db.checkpoint().unwrap();
            for i in 0..age {
                db.sql(&insert_stmt(i)).unwrap();
            }
            // Crash: drop without close, leaving `age` records in the WAL.
        }
        let mut samples = Vec::with_capacity(reps);
        let mut recovered_rows = 0usize;
        for _ in 0..reps {
            let started = Instant::now();
            let db = KathDB::open(&dir).expect("recovery succeeds");
            samples.push(started.elapsed().as_secs_f64() * 1000.0);
            recovered_rows = db.context().catalog.snapshot().get("kv").unwrap().len();
        }
        assert_eq!(recovered_rows, age, "recovery lost rows");
        let median_ms = median(samples);
        eprintln!("  wal age {age:>5} records: reopen median {median_ms:8.2} ms");
        let mut point = JsonMap::new();
        point.insert("wal_records", Json::Num(age as f64));
        point.insert("reopen_median_ms", Json::Num(median_ms));
        series.push(Json::Object(point));
    }

    let mut report = JsonMap::new();
    report.insert("inserts", Json::Num(inserts as f64));
    report.insert("reopen_pairs", Json::Num(pair_reps as f64));
    report.insert("size_series", Json::Array(size_series));
    report.insert("scan_series", Json::Array(scans));
    report.insert("replay_series", Json::Array(series));
    write_report(&out, "durability_recovery", quick, reps, report);
    let _ = std::fs::remove_dir_all(
        std::env::temp_dir().join(format!("kathdb_recovery_bench_{}", std::process::id())),
    );
}
