//! `durable_mixed`: reads beside durable writes on one table, with a
//! checkpoint, a crash and a recovery in every cycle.
//!
//! One op is a group of five statements in a fixed 3:1:1 schedule: three
//! point reads, a range read and a single-row autocommit INSERT. A cycle is
//! 30 groups, then `checkpoint()`, then 30 more INSERTs, then the handle is
//! dropped without `close` (the crash) and the directory is opened again
//! (the recovery, which replays those 30 records behind the snapshot).
//! Checkpoint, tail INSERTs and recovery are not ops, but their time counts
//! in `ops_per_s`.
//!
//! The op is the group and not the statement because a percentile over
//! single statements of three kinds lands on the boundary between two kinds
//! and jumps from run to run.

use crate::common::{
    fresh_data_dir, Budget, Busy, Checks, Rng, RunConfig, Size, MODEL_SEED, SETUP_REPEATS,
};
use crate::report::Report;
use crate::span::Tracer;
use crate::stats::{median, percentile, ratio};
use kath_sql::{apply_mutation, parse_statement, plan_mutation, SqlError, Statement};
use kath_storage::{DataType, Schema, Table, Value, Wal, WalRecord};
use kathdb::KathDB;
use std::path::Path;
use std::time::Instant;

const GROUPS_PER_CYCLE: usize = 30;
const TAIL_WRITES: usize = 30;
const RANGE_WIDTH: i64 = 1000;
const WARM_UP_GROUPS: usize = 4;
/// Appends and syncs timed on the standalone WAL segment.
const WAL_KERNEL_RECORDS: usize = 200;

fn initial_rows(size: Size) -> i64 {
    match size {
        Size::Full => 50_000,
        Size::Smoke => 3_000,
    }
}

/// The value stored under key `k`: the oracle recomputes it.
fn value_of(seed: u64, k: i64) -> String {
    format!("v{:016x}", Rng::new(seed ^ k as u64).next())
}

fn user_bytes(seed: u64, k: i64) -> u64 {
    8 + value_of(seed, k).len() as u64
}

/// Kinds of statement, in reporting order.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Point,
    Range,
    Insert,
}

/// The check of one statement's result against what the benchmark knows.
type Check = Box<dyn Fn(&Table) -> Result<(), String>>;

/// The database under test plus what the benchmark knows about it. Keys
/// are dense (`0..keys`), so the expected answer to every read is known
/// without a second copy of the data.
struct Bench<'a> {
    cfg: &'a RunConfig,
    dir: std::path::PathBuf,
    db: KathDB,
    /// Acknowledged keys: exactly `0..keys`.
    keys: i64,
    rng: Rng,
    checks: Checks,
}

#[derive(Default)]
struct Observed {
    read_ms: Vec<f64>,
    write_ms: Vec<f64>,
    op_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    recovery_ms: Vec<f64>,
    replayed: Vec<f64>,
    wal_bytes: u64,
    inserted_user_bytes: u64,
    fsyncs: u64,
    pages_written: Vec<f64>,
    pages_reused: Vec<f64>,
    bytes_written: Vec<f64>,
    stored_bytes: u64,
    busy: Busy,
}

impl<'a> Bench<'a> {
    /// A fresh directory with `kv` filled and checkpointed.
    fn create(cfg: &'a RunConfig, n: usize) -> Self {
        let dir = fresh_data_dir(cfg, "durable", n);
        let mut db = KathDB::open(&dir).expect("fresh durable directory opens");
        let keys = initial_rows(cfg.size);
        let mut kv = Table::new(
            "kv",
            Schema::of(&[("k", DataType::Int), ("v", DataType::Str)]),
        );
        for k in 0..keys {
            kv.push(vec![Value::Int(k), value_of(cfg.seed, k).into()])
                .expect("generated row fits the schema");
        }
        db.load_table(kv, "bench://kv").expect("kv loads");
        db.checkpoint().expect("first checkpoint");
        Self {
            cfg,
            dir,
            db,
            keys,
            rng: Rng::new(cfg.seed),
            checks: Checks::default(),
        }
    }

    /// The next statement of `kind` and the check of its result.
    fn statement(&mut self, kind: Kind) -> (String, Check) {
        match kind {
            Kind::Point => {
                let k = self.rng.below(self.keys as u64) as i64;
                let want = value_of(self.cfg.seed, k);
                (
                    format!("SELECT v FROM kv WHERE k = {k}"),
                    Box::new(move |t| match t.rows() {
                        [row] if row[0].as_str() == Some(want.as_str()) => Ok(()),
                        rows => Err(format!("key {k}: {} rows, wrong value", rows.len())),
                    }),
                )
            }
            Kind::Range => {
                let lo = self.rng.below((self.keys - RANGE_WIDTH) as u64) as i64;
                let hi = lo + RANGE_WIDTH;
                (
                    format!(
                        "SELECT COUNT(*) AS n, MAX(k) AS top FROM kv WHERE k >= {lo} AND k < {hi}"
                    ),
                    Box::new(move |t| match t.rows() {
                        [row]
                            if row[0].as_int() == Some(RANGE_WIDTH)
                                && row[1].as_int() == Some(hi - 1) =>
                        {
                            Ok(())
                        }
                        _ => Err(format!("range [{lo}, {hi}): wrong count or maximum")),
                    }),
                )
            }
            Kind::Insert => {
                let k = self.keys;
                (
                    format!(
                        "INSERT INTO kv VALUES ({k}, '{}')",
                        value_of(self.cfg.seed, k)
                    ),
                    Box::new(|t| match t.rows() {
                        [row] if row[0].as_int() == Some(1) => Ok(()),
                        _ => Err("insert did not report one row".into()),
                    }),
                )
            }
        }
    }

    /// One statement through `run`, timed, then checked. Returns its time.
    fn statement_op(
        &mut self,
        kind: Kind,
        seen: &mut Observed,
        run: &mut dyn FnMut(&mut KathDB, &str) -> Result<Table, String>,
    ) -> f64 {
        let (sql, check) = self.statement(kind);
        let before = (kind == Kind::Insert)
            .then(|| self.db.durability_status())
            .flatten();
        let (result, ms) = seen.busy.time(|| run(&mut self.db, &sql));
        if kind == Kind::Insert {
            seen.write_ms.push(ms);
            if result.is_ok() {
                seen.inserted_user_bytes += user_bytes(self.cfg.seed, self.keys);
                self.keys += 1;
            }
            if let (Some(b), Some(a)) = (before, self.db.durability_status()) {
                seen.wal_bytes += a.wal_bytes.saturating_sub(b.wal_bytes);
                seen.fsyncs += a.group_fsyncs.saturating_sub(b.group_fsyncs);
            }
        } else {
            seen.read_ms.push(ms);
        }
        self.checks.record(&sql, result.and_then(|t| check(&t)));
        ms
    }

    /// One op: three point reads, a range read, an INSERT.
    fn group(
        &mut self,
        seen: &mut Observed,
        run: &mut dyn FnMut(&mut KathDB, &str) -> Result<Table, String>,
    ) {
        let kinds = [
            Kind::Point,
            Kind::Point,
            Kind::Point,
            Kind::Range,
            Kind::Insert,
        ];
        let ms = kinds.map(|kind| self.statement_op(kind, seen, run));
        seen.op_ms.push(ms.iter().sum());
    }

    /// Checkpoint, tail writes, crash, recovery; then the key set read back
    /// must be exactly the acknowledged one.
    fn finish_cycle(
        &mut self,
        seen: &mut Observed,
        run: &mut dyn FnMut(&mut KathDB, &str) -> Result<Table, String>,
    ) {
        let (epoch, ms) = seen.busy.time(|| self.db.checkpoint());
        seen.checkpoint_ms.push(ms);
        self.checks
            .record("checkpoint", epoch.map(|_| ()).map_err(|e| e.to_string()));
        if let Some(stats) = self.db.durability_status().and_then(|s| s.last_checkpoint) {
            seen.pages_written.push(stats.pages_written as f64);
            seen.pages_reused.push(stats.pages_reused as f64);
            seen.bytes_written.push(stats.bytes_written as f64);
            seen.stored_bytes = stats.bytes_total;
        }
        for _ in 0..TAIL_WRITES {
            self.statement_op(Kind::Insert, seen, run);
        }

        // The crash: nothing is flushed beyond what the WAL already synced.
        let crashed = std::mem::replace(&mut self.db, KathDB::new(MODEL_SEED));
        drop(crashed);
        let (recovered, ms) = seen.busy.time(|| self.db.open_dir(&self.dir));
        seen.recovery_ms.push(ms);
        let read_back = recovered.map_err(|e| e.to_string()).and_then(|info| {
            seen.replayed.push(info.wal_replayed as f64);
            if info.wal_replayed != TAIL_WRITES {
                return Err(format!(
                    "replayed {} records, not {TAIL_WRITES}",
                    info.wal_replayed
                ));
            }
            let t = self.db.sql("SELECT k FROM kv").map_err(|e| e.to_string())?;
            let mut keys: Vec<i64> = t.rows().iter().filter_map(|r| r[0].as_int()).collect();
            keys.sort_unstable();
            if keys.len() == t.len() && keys.iter().copied().eq(0..self.keys) {
                Ok(())
            } else {
                Err(format!(
                    "{} keys read back, {} acknowledged",
                    t.len(),
                    self.keys
                ))
            }
        });
        self.checks.record("recovery", read_back);
    }

    fn cycle(
        &mut self,
        seen: &mut Observed,
        run: &mut dyn FnMut(&mut KathDB, &str) -> Result<Table, String>,
    ) {
        for _ in 0..GROUPS_PER_CYCLE {
            self.group(seen, run);
        }
        self.finish_cycle(seen, run);
    }
}

fn facade_sql(db: &mut KathDB, sql: &str) -> Result<Table, String> {
    db.sql(sql).map_err(|e| e.to_string())
}

/// `KathDB::sql`, made of the same public calls in the same order, with a
/// span around each.
fn staged_sql(db: &mut KathDB, sql: &str, tr: &mut Tracer) -> Result<Table, String> {
    tr.next_op();
    let root = tr.enter("sql.statement");
    let result = staged_statement(db, sql, tr);
    tr.exit(root);
    result
}

fn staged_statement(db: &mut KathDB, sql: &str, tr: &mut Tracer) -> Result<Table, String> {
    let span = tr.enter("sql.parse");
    let stmt = parse_statement(sql);
    tr.exit(span);
    match stmt.map_err(|e| e.to_string())? {
        Statement::Select(select) => {
            crate::sql::staged_select(db, &select, "sql.select", tr).map(|(table, _)| table)
        }
        stmt => {
            let span = tr.enter("storage.txn.snapshot");
            let snapshot = db.context().catalog.snapshot();
            tr.exit(span);
            let span = tr.enter("sql.plan_mutation");
            let record = plan_mutation(&snapshot, &stmt);
            drop(snapshot);
            tr.exit(span);
            let records = [record.map_err(|e| e.to_string())?];
            let span = tr.enter("storage.txn.submit");
            let result = db
                .context()
                .catalog
                .submit::<Table, SqlError>(&records, false, |c| {
                    let span = tr.enter("sql.apply_mutation");
                    let out = apply_mutation(c, &records[0], "sql_result");
                    tr.exit(span);
                    out
                });
            tr.exit(span);
            result.map_err(|e| e.to_string())
        }
    }
}

/// Append and sync of one INSERT record on a WAL segment of its own.
fn wal_kernel(dir: &Path, seed: u64) -> (f64, f64) {
    let (mut wal, _) = Wal::open(&dir.join("kernel.log")).expect("standalone WAL segment opens");
    let (mut append_us, mut sync_us) = (Vec::new(), Vec::new());
    for i in 0..WAL_KERNEL_RECORDS as i64 {
        let record = WalRecord::Insert {
            table: "kv".into(),
            rows: vec![vec![Value::Int(i), value_of(seed, i).into()]],
        };
        let started = Instant::now();
        wal.append_batch_nosync([&record]).expect("WAL append");
        append_us.push(started.elapsed().as_secs_f64() * 1e6);
        let started = Instant::now();
        wal.sync().expect("WAL sync");
        sync_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    (median(&append_us), median(&sync_us))
}

pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::default();

    // Set-up as the system sees it: open, fill, first checkpoint, warm-up.
    let mut setup_s = Vec::new();
    let mut bench = None;
    for n in 0..SETUP_REPEATS {
        if let Some(Bench { dir, db, .. }) = bench.take() {
            drop(db);
            let _ = std::fs::remove_dir_all(dir);
        }
        // The warm-up statements are timed one by one like any other, so
        // each is scaled by the host speed around it.
        let mut setup = Busy::default();
        let (mut fresh, _) = setup.time(|| Bench::create(cfg, n));
        let mut warm = Observed::default();
        for _ in 0..WARM_UP_GROUPS {
            fresh.group(&mut warm, &mut facade_sql);
        }
        setup_s.push(setup.seconds() + warm.busy.seconds());
        let warm_up = std::mem::take(&mut fresh.checks);
        assert_eq!(warm_up.failed, 0, "warm-up failed: {:?}", warm_up.failures);
        fresh.rng = Rng::new(cfg.seed);
        bench = Some(fresh);
    }
    let mut bench = bench.expect("set-up ran");
    for (key, value) in crate::engine_settings(&bench.db) {
        report.engine.insert(key, value);
    }

    // The budget counts groups; a started cycle always completes.
    let phases = if cfg.traced { 2 } else { 1 };
    let cycle_budget = match cfg.budget.split(phases) {
        Budget::Ops(n) => Budget::Ops(n.div_ceil(GROUPS_PER_CYCLE)),
        seconds => seconds,
    };
    let mut seen = Observed::default();
    let mut pace = cycle_budget.start();
    while pace.more() {
        bench.cycle(&mut seen, &mut facade_sql);
    }
    crate::push_end_to_end(&mut report, &setup_s, &seen.op_ms, &seen.busy);

    let live_user_bytes: u64 = (0..bench.keys).map(|k| user_bytes(cfg.seed, k)).sum();
    let writes = seen.write_ms.len();
    report.push("read_p50_ms", median(&seen.read_ms), seen.read_ms.len());
    report.push(
        "read_p95_ms",
        percentile(&seen.read_ms, 95.0),
        seen.read_ms.len(),
    );
    report.push("write_p50_ms", median(&seen.write_ms), writes);
    report.push("write_p95_ms", percentile(&seen.write_ms, 95.0), writes);
    let cycles = seen.checkpoint_ms.len();
    report.push("checkpoint_p50_ms", median(&seen.checkpoint_ms), cycles);
    report.push("recovery_p50_ms", median(&seen.recovery_ms), cycles);
    report.push(
        "wal_bytes_per_user_byte",
        ratio(seen.wal_bytes as f64, seen.inserted_user_bytes as f64),
        writes,
    );
    report.push(
        "stored_bytes_per_user_byte",
        ratio(seen.stored_bytes as f64, live_user_bytes as f64),
        1,
    );
    report.push(
        "storage.durable.fsyncs_per_write",
        ratio(seen.fsyncs as f64, writes as f64),
        writes,
    );
    report.push(
        "storage.durable.wal_bytes_per_write",
        ratio(seen.wal_bytes as f64, writes as f64),
        writes,
    );
    report.push(
        "storage.durable.checkpoint_pages_written",
        median(&seen.pages_written),
        cycles,
    );
    report.push(
        "storage.durable.checkpoint_pages_reused",
        median(&seen.pages_reused),
        cycles,
    );
    report.push(
        "storage.durable.checkpoint_bytes_written",
        median(&seen.bytes_written),
        cycles,
    );
    report.push(
        "storage.durable.replay_us_per_record",
        ratio(median(&seen.recovery_ms) * 1e3, median(&seen.replayed)),
        cycles,
    );
    report.ops.insert("groups".into(), seen.op_ms.len() as u64);
    report.ops.insert("reads".into(), seen.read_ms.len() as u64);
    report.ops.insert("writes".into(), writes as u64);
    report.ops.insert("checkpoints".into(), cycles as u64);
    report
        .ops
        .insert("recoveries".into(), seen.recovery_ms.len() as u64);
    for (key, value) in [
        ("wal_bytes", seen.wal_bytes),
        ("inserted_user_bytes", seen.inserted_user_bytes),
        ("stored_bytes", seen.stored_bytes),
        ("fsyncs", seen.fsyncs),
        ("keys", bench.keys as u64),
    ] {
        report.exact.insert(key.into(), value.to_string());
    }

    if cfg.traced {
        let mut tr = Tracer::new();
        let mut staged = Observed::default();
        let mut pace = cycle_budget.start();
        while pace.more() {
            bench.cycle(&mut staged, &mut |db, sql| staged_sql(db, sql, &mut tr));
        }
        let us = |name: &str| {
            let d = tr.durations_ms(name);
            (median(&d) * 1e3, d.len())
        };
        let (parse_us, n) = us("sql.parse");
        report.push("sql.parse_us", parse_us, n);
        let (plan_us, n) = us("sql.plan_mutation");
        report.push("sql.plan_mutation_us", plan_us, n);
        let (apply_us, n) = us("sql.apply_mutation");
        report.push("sql.apply_mutation_us", apply_us, n);
        let submit_self: Vec<f64> = tr
            .spans()
            .iter()
            .zip(tr.self_times_ns())
            .filter(|(s, _)| s.name == "storage.txn.submit")
            .map(|(_, ns)| ns as f64 / 1e3)
            .collect();
        report.push(
            "storage.txn.submit_self_us",
            median(&submit_self),
            submit_self.len(),
        );
        let (snapshot_us, n) = us("storage.txn.snapshot");
        report.push("storage.txn.snapshot_ns", snapshot_us * 1e3, n);
        let (append_us, sync_us) = wal_kernel(&bench.dir, cfg.seed);
        report.push("storage.wal.append_us", append_us, WAL_KERNEL_RECORDS);
        report.push("storage.wal.sync_us", sync_us, WAL_KERNEL_RECORDS);
        report.push(
            "trace_overhead",
            ratio(median(&staged.op_ms), median(&seen.op_ms)),
            staged.op_ms.len(),
        );
        crate::push_unattributed_share(&mut report, &tr, "sql.statement");
        report
            .ops
            .insert("staged_groups".into(), staged.op_ms.len() as u64);
        crate::write_trace(cfg, "durable_mixed", &tr);
    }

    let Bench {
        dir, db, checks, ..
    } = bench;
    checks.finish(&mut report);
    drop(db);
    let _ = std::fs::remove_dir_all(dir);
    report
}
