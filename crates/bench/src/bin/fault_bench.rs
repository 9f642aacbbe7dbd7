//! `fault_bench` — the machine-readable cost of robustness.
//!
//! Two questions, answered with numbers in `BENCH_faults.json`:
//!
//! 1. **Guard overhead** — what does threading a live [`QueryGuard`]
//!    (deadline + cancel + budgets) through the serial batch drive cost on
//!    a large scan? Target: under 2% on the 1M-row scan-filter-project
//!    (the scan checks once per batch and the root drain charges per
//!    produced batch, so the steady-state cost is a few atomic loads per
//!    1024 rows).
//! 2. **Recovery under faults** — how much slower is building + recovering
//!    a durable directory when 10% of I/O operations fail transiently
//!    (every one retried by the bounded-backoff policy)?
//!
//! ```sh
//! cargo run --release -p kath_bench --bin fault_bench            # full: 1M rows
//! cargo run --release -p kath_bench --bin fault_bench -- --quick # smoke: 100k rows
//! cargo run --release -p kath_bench --bin fault_bench -- --out custom.json
//! ```
//!
//! Every guarded sample asserts result parity with the unguarded run
//! before its timing is trusted; the recovery leg asserts every
//! acknowledged row survives. Timings land in the JSON for trend diffs —
//! thresholds are targets, not assertions (CI machines jitter).

use kath_bench::{median, write_report, BenchArgs};
use kath_json::{Json, JsonMap};
use kath_sql::{parse_select, run_select_auto_guarded};
use kath_storage::{
    BufferPool, Catalog, CompileMode, DataType, Durability, ExecMode, FaultKind, FaultPlan, Io,
    QueryGuard, Schema, Table, Value, VectorMode, WalRecord,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn bench_table(rows: usize) -> Table {
    let schema = Schema::of(&[
        ("id", DataType::Int),
        ("year", DataType::Int),
        ("score", DataType::Int),
    ]);
    let mut t = Table::new("movie_table", schema);
    for i in 0..rows {
        let id = i as i64 + 1;
        t.push(vec![
            Value::Int(id),
            Value::Int(1960 + id % 65),
            Value::Int(id % 100),
        ])
        .expect("typed row");
    }
    t
}

/// The batched scan-filter-project, unguarded vs under a fully armed (but
/// generous) guard. Returns (unguarded_ms, guarded_ms, result_rows).
fn guard_overhead(rows: usize, reps: usize) -> (f64, f64, usize) {
    let mut catalog = Catalog::new();
    catalog.register(bench_table(rows)).expect("fresh catalog");
    let k = (rows as f64 * 0.5) as i64;
    let query = format!("SELECT id, year FROM movie_table WHERE id <= {k}");
    let select = parse_select(&query).expect("bench query parses");
    // Armed on every axis — deadline, cancel token, row and byte budgets —
    // but generous enough to never trip: this measures pure bookkeeping.
    let guard = QueryGuard::unlimited()
        .with_timeout(Duration::from_secs(3600))
        .with_row_budget(u64::MAX / 2)
        .with_byte_budget(u64::MAX / 2);
    let unlimited = QueryGuard::unlimited();
    let run = |guard: Option<&QueryGuard>| {
        let started = Instant::now();
        let (table, _stats) = run_select_auto_guarded(
            &catalog,
            &select,
            "out",
            ExecMode::Batched(1024),
            1,
            VectorMode::Auto,
            CompileMode::Off,
            guard.unwrap_or(&unlimited),
        )
        .expect("bench query succeeds");
        (table, started.elapsed().as_secs_f64() * 1000.0)
    };

    let mut plain = Vec::with_capacity(reps);
    let mut guarded = Vec::with_capacity(reps);
    let mut result_rows = 0usize;
    for _ in 0..reps {
        let (want, pms) = run(None);
        let (got, gms) = run(Some(&guard));
        assert_eq!(want, got, "guarded result diverged from unguarded");
        result_rows = want.len();
        plain.push(pms);
        guarded.push(gms);
    }
    (median(plain), median(guarded), result_rows)
}

/// Builds a durable directory of `records` WAL-logged inserts (checkpoint
/// at the midpoint), optionally under a transient-fault schedule every
/// append retries through, then times the fault-free reopen. Returns
/// (build_ms, recover_ms, recovered_rows).
fn durable_round_trip(records: usize, faults: Option<FaultPlan>) -> (f64, f64, usize) {
    let tag = if faults.is_some() { "faulty" } else { "clean" };
    let dir = std::env::temp_dir().join(format!(
        "kathdb_fault_bench_{}_{tag}_{records}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Str)]);

    let io = Io::real();
    let pool = Arc::new(BufferPool::with_budget_io(64, io.clone()));
    let build_started = Instant::now();
    {
        let (mut d, _) = Durability::open(&dir, &pool).expect("durable dir opens");
        let create = WalRecord::CreateTable {
            name: "kv".to_string(),
            schema: schema.clone(),
        };
        d.log_batch_nosync([&create]).unwrap();
        d.sync_wal().unwrap();
        if let Some(plan) = &faults {
            io.install_faults(plan.clone());
        }
        for i in 0..records {
            if i == records / 2 {
                // The checkpoint runs fault-free (a failed rotation would
                // poison the handle by design); the cost under measurement
                // is the retried WAL appends around it.
                io.clear_faults();
                let mut table = Table::new("kv", schema.clone());
                for j in 0..i {
                    table
                        .push(vec![Value::Int(j as i64), Value::Str(format!("row-{j}"))])
                        .unwrap();
                }
                d.checkpoint(&[Arc::new(table)], &pool, None)
                    .expect("fault-free checkpoint succeeds");
                if let Some(plan) = &faults {
                    io.install_faults(plan.clone());
                }
            }
            // A failed append is rolled back to the tail it began at, as a
            // commit's is, so the client-level retry (on top of the
            // built-in bounded backoff) never duplicates a record; a 10%
            // schedule occasionally outlasts one bounded run.
            let record = WalRecord::Insert {
                table: "kv".to_string(),
                rows: vec![vec![Value::Int(i as i64), Value::Str(format!("row-{i}"))]],
            };
            let (tail, count) = (d.wal_tail(), d.wal_record_count());
            let mut attempts = 0;
            while let Err(e) = d.log_batch_nosync([&record]).and_then(|_| d.sync_wal()) {
                d.rewind_wal(tail, count);
                attempts += 1;
                assert!(attempts < 100, "append never succeeded: {e}");
            }
        }
        io.clear_faults();
    }
    let build_ms = build_started.elapsed().as_secs_f64() * 1000.0;

    let pool2 = Arc::new(BufferPool::with_budget(64));
    let recover_started = Instant::now();
    let (_, rec) = Durability::open(&dir, &pool2).expect("recovery succeeds");
    let recover_ms = recover_started.elapsed().as_secs_f64() * 1000.0;
    let mut catalog = Catalog::new();
    for t in rec.tables {
        catalog.register_or_replace(t);
    }
    for r in &rec.wal_records {
        catalog.apply(r).expect("recovered records replay");
    }
    let rows = catalog.get("kv").expect("kv recovered").len();
    assert_eq!(rows, records, "{tag}: acknowledged rows lost in recovery");
    let _ = std::fs::remove_dir_all(dir);
    (build_ms, recover_ms, rows)
}

fn main() {
    let BenchArgs { quick, out } = BenchArgs::parse("BENCH_faults.json");
    let (scan_rows, wal_records, reps) = if quick {
        (100_000, 200, 3)
    } else {
        (1_000_000, 1_000, 5)
    };

    eprintln!("guard overhead: {scan_rows}-row batched scan, {reps} reps…");
    let (plain_ms, guarded_ms, result_rows) = guard_overhead(scan_rows, reps);
    let overhead_pct = if plain_ms > 0.0 {
        (guarded_ms - plain_ms) / plain_ms * 100.0
    } else {
        0.0
    };
    eprintln!(
        "  unguarded {plain_ms:8.2} ms, guarded {guarded_ms:8.2} ms \
         ({overhead_pct:+5.2}% vs <2% target, {result_rows} result rows)"
    );

    eprintln!("recovery: {wal_records} WAL records, clean vs 10% transient faults…");
    let (clean_build_ms, clean_recover_ms, _) = durable_round_trip(wal_records, None);
    let plan = FaultPlan::probabilistic(7, 0.10).with_kinds(&[FaultKind::Transient]);
    let (faulty_build_ms, faulty_recover_ms, _) = durable_round_trip(wal_records, Some(plan));
    eprintln!(
        "  clean : build {clean_build_ms:8.2} ms, recover {clean_recover_ms:8.2} ms\n  \
         faulty: build {faulty_build_ms:8.2} ms, recover {faulty_recover_ms:8.2} ms"
    );

    let mut guard_leg = JsonMap::new();
    guard_leg.insert("scan_rows", Json::Num(scan_rows as f64));
    guard_leg.insert("result_rows", Json::Num(result_rows as f64));
    guard_leg.insert("unguarded_ms", Json::Num(plain_ms));
    guard_leg.insert("guarded_ms", Json::Num(guarded_ms));
    guard_leg.insert("overhead_pct", Json::Num(overhead_pct));
    guard_leg.insert("target_pct", Json::Num(2.0));

    let mut recovery_leg = JsonMap::new();
    recovery_leg.insert("wal_records", Json::Num(wal_records as f64));
    recovery_leg.insert("fault_probability", Json::Num(0.10));
    recovery_leg.insert("clean_build_ms", Json::Num(clean_build_ms));
    recovery_leg.insert("clean_recover_ms", Json::Num(clean_recover_ms));
    recovery_leg.insert("faulty_build_ms", Json::Num(faulty_build_ms));
    recovery_leg.insert("faulty_recover_ms", Json::Num(faulty_recover_ms));

    let mut report = JsonMap::new();
    report.insert("guard_overhead", Json::Object(guard_leg));
    report.insert("recovery_under_faults", Json::Object(recovery_leg));
    write_report(&out, "fault_injection_and_guard", quick, reps, report);
}
