//! Chaos property tests: seeded fault injection on the I/O seam.
//!
//! The contract under test, for ANY deterministic fault schedule: every
//! storage operation either succeeds, or fails with a clean typed error —
//! and after the faults clear, reopening the directory recovers a **prefix
//! of committed state** (at least every acknowledged write, at most one
//! in-flight unacknowledged one). Never a panic, never corruption served
//! as data, never an acknowledged-then-lost write.

use kath_storage::*;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "kathdb_chaos_{}_{name}_{}",
        std::process::id(),
        NEXT_DIR.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn kv_schema() -> Schema {
    Schema::of(&[("k", DataType::Int), ("v", DataType::Str)])
}

fn insert(k: i64, v: &str) -> WalRecord {
    WalRecord::Insert {
        table: "kv".to_string(),
        rows: vec![vec![Value::Int(k), Value::Str(v.to_string())]],
    }
}

fn create_kv() -> WalRecord {
    WalRecord::CreateTable {
        name: "kv".to_string(),
        schema: kv_schema(),
    }
}

/// `catalog` with a recovered directory's snapshot tables, then its
/// committed WAL records replayed through [`Catalog::apply`].
fn replay(mut catalog: Catalog, rec: Recovered) -> Result<Catalog, StorageError> {
    for table in rec.tables {
        catalog.register_or_replace(table);
    }
    for record in &rec.wal_records {
        catalog.apply(record)?;
    }
    Ok(catalog)
}

/// The kv rows a recovered directory holds: snapshot table + WAL replay.
fn recovered_rows(rec: Recovered) -> Vec<Row> {
    let catalog = replay(Catalog::new(), rec).unwrap();
    catalog.get("kv").unwrap().rows().to_vec()
}

/// Any mix of fault kinds (the non-zero bitmask picks a non-empty subset)
/// over every operation class.
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (any::<u64>(), 0.05f64..0.5, 1u8..16).prop_map(|(seed, p, mask)| {
        let all = [
            FaultKind::Transient,
            FaultKind::Permanent,
            FaultKind::Enospc,
            FaultKind::ShortWrite,
        ];
        let kinds: Vec<FaultKind> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, k)| *k)
            .collect();
        FaultPlan::probabilistic(seed, p).with_kinds(&kinds)
    })
}

/// Opens `dir` as a durable shared catalog the way the facade does:
/// snapshot tables (all sealed), then the committed WAL records replayed
/// through [`Catalog::apply`], the call live statements make. With a
/// `plan`, its faults hit the open and the replay alike.
fn open_shared(
    dir: &std::path::Path,
    plan: Option<FaultPlan>,
) -> Result<SharedCatalog, StorageError> {
    let shared = SharedCatalog::new();
    let pool = shared.pool();
    if let Some(plan) = plan {
        pool.io().install_faults(plan);
    }
    let (dur, rec) = Durability::open(dir, &pool)?;
    let max_txid = rec.max_txid;
    let catalog = replay(shared.snapshot().catalog().clone(), rec)?;
    shared.install_recovered(catalog, dur, max_txid);
    Ok(shared)
}

/// Commits one durable record, applied the way replay applies it.
fn commit(shared: &SharedCatalog, record: WalRecord) -> Result<(), StorageError> {
    shared.submit(std::slice::from_ref(&record), false, |c| c.apply(&record))
}

/// One durable single-row INSERT into `kv`.
fn insert_shared(shared: &SharedCatalog, k: i64, v: &str) -> Result<(), StorageError> {
    commit(shared, insert(k, v))
}

fn typed(e: &StorageError) -> bool {
    matches!(e, StorageError::Io(_) | StorageError::Corrupt(_))
}

/// Case budget: 48 by default (fast enough for tier-1), deepened in CI's
/// chaos leg via `PROPTEST_CASES`.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// THE chaos invariant: under any probabilistic fault schedule, a
    /// log/checkpoint workload never panics, every failure is a typed
    /// error, and reopening after the faults clear recovers a prefix of
    /// committed state containing every acknowledged record (plus at most
    /// the one in-flight write that failed without acknowledgment).
    #[test]
    fn any_fault_schedule_recovers_acknowledged_state(
        kvs in prop::collection::vec((any::<i64>(), "[a-z]{0,6}"), 1..10),
        plan in arb_plan(),
        ckpt_at in 0usize..10,
    ) {
        let dir = tmp("sched");
        let io = Io::real();
        let pool = Arc::new(BufferPool::with_budget_io(4, io.clone()));
        let (mut d, _) = Durability::open(&dir, &pool).unwrap();
        // The baseline commit happens fault-free: CREATE TABLE kv.
        d.log(&create_kv()).unwrap();

        io.install_faults(plan);
        let mut acked = 0usize;
        for (i, (k, v)) in kvs.iter().enumerate() {
            if i == ckpt_at {
                // A checkpoint mid-stream: on success its snapshot holds
                // every acked row; on failure either nothing changed or
                // the handle is poisoned and refuses further appends —
                // both keep the invariant.
                let mut table = Table::new("kv", kv_schema());
                for (k, v) in &kvs[..acked] {
                    table.push(vec![Value::Int(*k), Value::Str(v.clone())]).unwrap();
                }
                let _ = d.checkpoint(&[Arc::new(table)], &pool, None);
            }
            match d.log(&insert(*k, v)) {
                Ok(()) => acked += 1,
                Err(StorageError::Io(_) | StorageError::Corrupt(_)) => break,
                Err(e) => prop_assert!(false, "untyped failure: {e}"),
            }
        }
        io.clear_faults();
        drop(d);

        // Reopen fault-free: recovery must succeed and hold a prefix.
        let pool2 = Arc::new(BufferPool::with_budget(4));
        let (_, rec) = Durability::open(&dir, &pool2).unwrap();
        let rows = recovered_rows(rec);
        prop_assert!(
            rows.len() >= acked && rows.len() <= acked + 1,
            "recovered {} rows, acknowledged {acked}", rows.len()
        );
        for (row, (k, v)) in rows.iter().zip(kvs.iter()) {
            prop_assert_eq!(row, &vec![Value::Int(*k), Value::Str(v.clone())],
                "recovered state is not the committed prefix");
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    /// The same invariant for a table that is mostly sealed pages: a
    /// checkpointed base, then INSERTs with checkpoints in between, so the
    /// faults land on checkpoints that seal only a tail (decode the short
    /// last page, encode, write two pages, commit the manifest), on the
    /// INSERT path's own sealing of a full tail, and — with the faults
    /// still on at reopen — on recovery and on replay into sealed tables.
    /// Every failure is typed, and once the faults clear the directory
    /// holds the acknowledged rows plus at most the one in flight.
    #[test]
    fn faults_between_checkpoints_recover_acknowledged_rows(
        base in 0usize..12,
        kvs in prop::collection::vec((any::<i64>(), "[a-z]{0,6}"), 1..14),
        plan in arb_plan(),
        page_rows in 2usize..5,
        ckpt_every in 2usize..6,
    ) {
        let dir = tmp("sealed");
        // Fault-free baseline: `base` logged rows, paged small, checkpointed.
        let all: Vec<(i64, String)> = (0..base as i64)
            .map(|k| (k, format!("b{k}")))
            .chain(kvs.iter().cloned())
            .collect();
        let want: Vec<Row> = all
            .iter()
            .map(|(k, v)| vec![Value::Int(*k), Value::Str(v.clone())])
            .collect();
        let shared = open_shared(&dir, None).unwrap();
        commit(&shared, create_kv()).unwrap();
        for (k, v) in &all[..base] {
            insert_shared(&shared, *k, v).unwrap();
        }
        shared.page_table("kv", page_rows).unwrap();
        shared.checkpoint(None).unwrap();

        shared.pool().io().install_faults(plan.clone());
        let mut acked = base;
        for (i, (k, v)) in kvs.iter().enumerate() {
            if i > 0 && i % ckpt_every == 0 {
                // On failure either nothing changed or the handle is
                // poisoned and refuses further appends.
                match shared.checkpoint(None) {
                    Ok(_) => prop_assert!(shared.get("kv").unwrap().tail().is_empty()),
                    Err(e) => prop_assert!(typed(&e), "untyped failure: {e}"),
                }
            }
            match insert_shared(&shared, *k, v) {
                Ok(()) => acked += 1,
                Err(e) => {
                    prop_assert!(typed(&e), "untyped failure: {e}");
                    break;
                }
            }
        }
        // What readers see never ran ahead of what was acknowledged.
        prop_assert_eq!(shared.get("kv").unwrap().len(), acked);
        drop(shared);

        // Reopen with the faults still on: recovery and replay either work
        // or fail typed — and when they work, the rows are the prefix.
        let check = |shared: &SharedCatalog| -> Result<(), TestCaseError> {
            let kv = shared.get("kv").unwrap();
            prop_assert!(
                kv.len() >= acked && kv.len() <= acked + 1,
                "recovered {} rows, acknowledged {acked}", kv.len()
            );
            for (i, row) in want[..kv.len()].iter().enumerate() {
                match kv.row_at(i) {
                    Ok(got) => prop_assert_eq!(got.as_ref(), Some(row)),
                    Err(e) => prop_assert!(typed(&e), "untyped failure: {e}"),
                }
            }
            Ok(())
        };
        match open_shared(&dir, Some(plan)) {
            Ok(faulty) => check(&faulty)?,
            Err(e) => prop_assert!(typed(&e), "untyped failure: {e}"),
        }
        let clean = open_shared(&dir, None).unwrap();
        check(&clean)?;
        let kv = clean.get("kv").unwrap();
        prop_assert_eq!(kv.rows(), &want[..kv.len()]);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Satellite 3's drive sweep: a file-backed paged table under a
    /// 1-page buffer pool with injected page-read faults. Every drive —
    /// serial at two batch sizes, and morsel-parallel — either returns exactly the
    /// fault-free result or a typed Io/Corrupt error. Never a panic, never
    /// a wrong batch; and once the faults clear, the same pool serves
    /// correct results again.
    #[test]
    fn page_read_faults_never_yield_wrong_batches(
        n in 50usize..300,
        seed in any::<u64>(),
        p in 0.05f64..1.0,
        workers in 1usize..5,
    ) {
        let dir = tmp("reads");
        let io = Io::real();
        let pool = Arc::new(BufferPool::with_budget_io(1, io.clone()));
        // Build the file-backed table through a checkpoint round-trip.
        let mut table = Table::new("kv", kv_schema());
        for i in 0..n {
            table.push(vec![Value::Int(i as i64), Value::Str(format!("v{i}"))]).unwrap();
        }
        {
            let (mut d, _) = Durability::open(&dir, &pool).unwrap();
            d.log(&create_kv()).unwrap();
            d.checkpoint(&[Arc::new(table.clone())], &pool, None).unwrap();
        }
        let (_, rec) = Durability::open(&dir, &pool).unwrap();
        let paged = Arc::new(rec.tables.into_iter().find(|t| t.name() == "kv").unwrap());
        prop_assert!(paged.is_paged());

        let baseline: Vec<Row> = table.rows().to_vec();
        let check = |result: Result<Vec<Row>, StorageError>| -> Result<(), TestCaseError> {
            match result {
                Ok(rows) => prop_assert_eq!(&rows, &baseline, "faulty read served wrong rows"),
                Err(StorageError::Io(_) | StorageError::Corrupt(_)) => {}
                Err(e) => prop_assert!(false, "untyped failure: {e}"),
            }
            Ok(())
        };
        let serial = |t: &Arc<Table>, batch: usize| {
            collect("out", Box::new(TableScan::new(Arc::clone(t)).with_batch_size(batch)))
                .map(|out| out.rows().to_vec())
        };
        let parallel = |t: &Arc<Table>, workers: usize| {
            let pt = t.paged().unwrap();
            let source = MorselSource::with_batch_size_aligned(t.len(), 32, pt.page_rows());
            run_morsels(&source, workers, |m| {
                collect(
                    "m",
                    Box::new(TableScan::new(Arc::clone(t)).with_range(m.start, m.end)),
                )
                .map(|t| t.rows().to_vec())
            })
            .map(|run| run.outputs.into_iter().flatten().collect::<Vec<Row>>())
        };
        io.install_faults(FaultPlan::probabilistic(seed, p).on_ops(&[IoOp::Read]));
        check(serial(&paged, 1024))?;
        check(serial(&paged, 32))?;
        check(parallel(&paged, workers))?;
        io.clear_faults();

        // Fault-free again: every drive serves the exact table.
        prop_assert_eq!(serial(&paged, 1024).unwrap(), baseline.clone());
        prop_assert_eq!(serial(&paged, 32).unwrap(), baseline.clone());
        prop_assert_eq!(parallel(&paged, workers).unwrap(), baseline);
        let _ = std::fs::remove_dir_all(dir);
    }
}
