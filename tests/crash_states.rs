//! Power-loss crash states, enumerated.
//!
//! One scripted workload runs through the facade on a [`SimDisk`]: open,
//! CREATE, INSERTs, a 5 000-row ingest (longer than a page), a
//! `begin`/`commit` transaction, then checkpoints (WAL rotation, then
//! prune and sweep) between more INSERTs. The disk logs every operation, so
//! the power can fail after any of them. Each crash state is opened by the
//! real `KathDB::open_dir`, and the tables it recovers must equal the
//! state after some prefix of the workload that holds every statement
//! acknowledged before the crash — and nothing the workload had not yet
//! started.
//!
//! Three variants of each crash point: the durable image alone, every
//! volatile operation kept (what a killed process leaves), and seeded
//! subsets of the volatile operations (proptest cases; `PROPTEST_CASES`
//! scales them). The fault schedules at the end run the same disk under
//! injected I/O errors, then crash it.

#[path = "../crates/storage/tests/support/mod.rs"]
mod support;

use kath_storage::{DataType, Row, Schema, StorageError, Table, Value};
use kathdb::{KathDB, KathError};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};
use support::faults::{FaultPlan, FaultyIo};
use support::{Keep, SimDisk};

const DIR: &str = "/db";

/// One acknowledged unit of the workload.
#[derive(Debug)]
enum Step {
    Sql(String),
    /// `load_table` of [`ingested`].
    Ingest,
    /// `begin`, these statements, `commit`.
    Txn(Vec<String>),
    Checkpoint,
}

fn insert(k: i64) -> Step {
    Step::Sql(format!("INSERT INTO kv VALUES ({k}, 'row-{k}')"))
}

fn workload() -> Vec<Step> {
    let mut steps = vec![Step::Sql("CREATE TABLE kv (k INT, v STR)".into())];
    steps.extend((0..3).map(insert));
    steps.push(Step::Ingest);
    steps.push(Step::Txn(vec![
        "INSERT INTO kv VALUES (100, 'txn-a')".into(),
        "INSERT INTO kv VALUES (101, 'txn-b')".into(),
    ]));
    // Epoch 1: the log rotates to a fresh segment.
    steps.push(Step::Checkpoint);
    steps.extend((3..5).map(insert));
    // Epoch 2 prunes segment 0.
    steps.push(Step::Checkpoint);
    steps.extend((5..7).map(insert));
    // Epoch 3 prunes snapshot 1 and segment 1, and sweeps the `kv` pages
    // only snapshot 1 held.
    steps.push(Step::Checkpoint);
    steps.extend((7..9).map(insert));
    steps
}

/// The table the workload ingests: 5 000 rows, more than one page.
fn ingested() -> Table {
    let rows = (0..5_000i64).map(|k| vec![Value::Int(k), Value::Str(format!("ingest-{k}"))]);
    let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Str)]);
    Table::from_rows("ingested", schema, rows.collect()).unwrap()
}

fn run(db: &mut KathDB, step: &Step) -> Result<(), KathError> {
    match step {
        Step::Sql(sql) => db.sql(sql).map(drop),
        Step::Ingest => db.load_table(ingested(), "test://ingested"),
        Step::Txn(statements) => {
            db.begin()?;
            for sql in statements {
                db.sql(sql)?;
            }
            db.commit().map(drop)
        }
        Step::Checkpoint => db.checkpoint().map(drop),
    }
}

/// Every table of the catalog with its rows, in table order.
type Tables = BTreeMap<String, Vec<Row>>;

fn tables(db: &KathDB) -> Tables {
    let snap = db.context().catalog.snapshot();
    let rows = |name: &str| snap.get(name).and_then(|t| t.to_rows()).unwrap();
    let names = snap.table_names().into_iter();
    names.map(|name| (name.to_string(), rows(name))).collect()
}

fn summary(t: &Tables) -> String {
    let parts: Vec<String> = t
        .iter()
        .map(|(n, rows)| format!("{n}: {} rows", rows.len()))
        .collect();
    format!("{{{}}}", parts.join(", "))
}

/// A database handle whose I/O runs on `disk`.
fn on_disk(disk: Arc<SimDisk>) -> KathDB {
    let db = KathDB::new(42);
    db.context().catalog.pool().io().set_backend(disk);
    db
}

/// Opens a crashed disk with the real recovery path and says which
/// prefixes of the workload it equals (or what it recovered instead).
fn recover(disk: SimDisk, states: &[Tables]) -> Result<Vec<usize>, String> {
    let mut db = on_disk(Arc::new(disk));
    db.open_dir(DIR)
        .map_err(|e| format!("recovery failed: {e}"))?;
    let got = tables(&db);
    let matches: Vec<usize> = (0..states.len()).filter(|&k| states[k] == got).collect();
    match matches.is_empty() {
        true => Err(format!(
            "recovered {}, no prefix of the workload",
            summary(&got)
        )),
        false => Ok(matches),
    }
}

/// The workload's one run on a [`SimDisk`], and what each prefix of it
/// leaves in the catalog.
struct Recorded {
    disk: Arc<SimDisk>,
    /// `states[k]`: the tables after the first `k` steps.
    states: Vec<Tables>,
    /// Each step's first and last event on the disk.
    spans: Vec<(usize, usize)>,
}

impl Recorded {
    /// The prefixes a crash after `point` events may recover: at least
    /// every step acknowledged by then, at most every step begun.
    fn allowed(&self, point: usize) -> (usize, usize) {
        let acked = self.spans.iter().filter(|(_, end)| *end <= point).count();
        let begun = self
            .spans
            .iter()
            .filter(|(start, _)| *start < point)
            .count();
        (acked, begun.max(acked))
    }
}

fn recorded() -> &'static Recorded {
    static RECORDED: OnceLock<Recorded> = OnceLock::new();
    RECORDED.get_or_init(|| {
        let steps = workload();
        // The reference: the same steps in memory (a checkpoint changes no
        // table, and an in-memory handle has none to write).
        let mut reference = KathDB::new(42);
        let mut states = vec![tables(&reference)];
        for step in &steps {
            if !matches!(step, Step::Checkpoint) {
                run(&mut reference, step).unwrap();
            }
            states.push(tables(&reference));
        }
        let disk = Arc::new(SimDisk::new());
        let mut db = on_disk(Arc::clone(&disk));
        db.open_dir(DIR).unwrap();
        let mut spans = Vec::new();
        for step in &steps {
            let start = disk.events();
            run(&mut db, step).unwrap_or_else(|e| panic!("{step:?}: {e}"));
            spans.push((start, disk.events()));
        }
        assert_eq!(tables(&db), states[steps.len()], "the run on the disk");
        Recorded {
            disk,
            states,
            spans,
        }
    })
}

/// What opening a crash state gave, by the state's fingerprint.
type Opened = HashMap<u64, Result<Vec<usize>, String>>;

/// Crashes the recorded run after `point` events under `keep`, opens the
/// crash state (once per distinct contents, through `opened`), and checks
/// it against the prefixes allowed at that point.
fn check(rec: &Recorded, point: usize, keep: Keep, opened: &mut Opened) -> Result<(), String> {
    let crashed = rec.disk.crash(point, keep);
    let got = opened
        .entry(crashed.fingerprint())
        .or_insert_with(|| recover(crashed, &rec.states));
    let (lo, hi) = rec.allowed(point);
    let what = match got {
        Ok(prefixes) if prefixes.iter().any(|k| (lo..=hi).contains(k)) => return Ok(()),
        Ok(prefixes) => format!("recovered the state after prefix(es) {prefixes:?}"),
        Err(e) => e.clone(),
    };
    Err(format!(
        "crash point {point} of {} ({keep:?}): {what}; allowed prefixes {lo}..={hi} of {} steps",
        rec.disk.events(),
        rec.spans.len()
    ))
}

/// [`check`] after every event of the recorded run.
fn sweep(keep: impl Fn(usize) -> Keep) -> Result<(), String> {
    let rec = recorded();
    let mut opened = Opened::new();
    (0..=rec.disk.events()).try_for_each(|point| check(rec, point, keep(point), &mut opened))
}

#[test]
fn every_crash_point_recovers_from_the_durable_image_alone() {
    sweep(|_| Keep::Durable).unwrap();
}

#[test]
fn every_crash_point_recovers_with_every_volatile_operation_kept() {
    sweep(|_| Keep::All).unwrap();
}

#[test]
fn every_crash_point_recovers_with_a_seeded_subset_kept() {
    sweep(|point| Keep::Seeded(point as u64)).unwrap();
}

proptest! {
    /// More subsets: each case draws a crash point and a subset from its
    /// seed, so `PROPTEST_CASES` scales them.
    #[test]
    fn a_seeded_crash_point_recovers_with_a_seeded_subset_kept(seed in any::<u64>()) {
        let rec = recorded();
        let point = (seed % (rec.disk.events() as u64 + 1)) as usize;
        if let Err(e) = check(rec, point, Keep::Seeded(seed), &mut Opened::new()) {
            prop_assert!(false, "seed {seed}: {e}");
        }
    }
}

fn typed(err: &KathError) -> bool {
    matches!(
        err,
        KathError::Storage(StorageError::Io(_) | StorageError::Corrupt(_))
            | KathError::Sql(kath_sql::SqlError::Storage(
                StorageError::Io(_) | StorageError::Corrupt(_)
            ))
    )
}

/// Seeded fault schedules on the I/O seam over one disk: sixteen INSERTs
/// with a checkpoint after eight, stopping at the first failure, which
/// must be a typed error. Then the power fails, with the durable image
/// alone and with every volatile operation kept: either way recovery
/// holds every acknowledged INSERT and at most the one that failed.
#[test]
fn fault_schedules_then_a_crash_keep_the_acknowledged_prefix() {
    const INSERTS: usize = 16;
    const CHECKPOINT_AT: usize = 8;
    const SCHEDULES: &[(u64, &str)] = &[
        (1, "p=0.05"),
        (2, "p=0.1"),
        (3, "p=0.25"),
        (4, "p=0.1,kinds=transient"),
        (5, "p=0.2,kinds=enospc|shortwrite"),
        (6, "p=0.15,ops=write|fsync"),
    ];
    for (seed, spec) in SCHEDULES {
        let spec = format!("seed={seed},{spec}");
        let disk = Arc::new(SimDisk::new());
        let mut db = on_disk(Arc::clone(&disk));
        db.open_dir(DIR).unwrap();
        // The baseline commit is fault-free; faults start with the data.
        db.sql("CREATE TABLE kv (k INT, v STR)").unwrap();
        let io = db.context().catalog.pool().io().clone();
        io.set_backend(Arc::new(FaultyIo::new(
            FaultPlan::parse(&spec).unwrap(),
            disk.clone(),
        )));
        let mut acked = 0usize;
        for i in 0..INSERTS {
            if i == CHECKPOINT_AT {
                // Allowed to fail: nothing changes, or the handle poisons.
                let _ = db.checkpoint();
            }
            match db.sql(&format!("INSERT INTO kv VALUES ({i}, 'row-{i}')")) {
                Ok(_) => acked += 1,
                Err(e) if typed(&e) => break,
                Err(e) => panic!("schedule '{spec}': untyped failure: {e}"),
            }
        }
        io.set_backend(disk.clone());
        for keep in [Keep::Durable, Keep::All] {
            let mut db = on_disk(Arc::new(disk.crash(disk.events(), keep)));
            let rows = db
                .open_dir(DIR)
                .and_then(|_| db.sql("SELECT k FROM kv ORDER BY k"))
                .unwrap_or_else(|e| panic!("schedule '{spec}' ({keep:?}): {e}"));
            assert!(
                rows.len() >= acked && rows.len() <= acked + 1,
                "schedule '{spec}' ({keep:?}): recovered {} rows, acknowledged {acked}",
                rows.len()
            );
            for (i, row) in rows.rows().iter().enumerate() {
                assert_eq!(
                    row[0],
                    Value::Int(i as i64),
                    "schedule '{spec}' ({keep:?}): not the committed prefix"
                );
            }
        }
        // With the disk back, the same handle keeps answering, unless the
        // faults left it poisoned (a WAL rotation failed after a committed
        // checkpoint), which it says.
        match db.sql(&format!("INSERT INTO kv VALUES ({INSERTS}, 'after')")) {
            Ok(_) => {
                let rows = db.sql("SELECT k FROM kv ORDER BY k").unwrap();
                assert_eq!(rows.len(), acked + 1, "schedule '{spec}'");
                assert_eq!(rows.rows()[acked][0], Value::Int(INSERTS as i64));
            }
            Err(e) => assert!(
                e.to_string().contains("reopen the database"),
                "schedule '{spec}': the restored disk refused an INSERT: {e}"
            ),
        }
    }
}
