//! `session_smoke` — concurrent-session correctness, end to end.
//!
//! N writer sessions commit framed transactions (several INSERTs each)
//! against one durable [`KathDB`] while M reader sessions take MVCC
//! snapshots, under seeded interleavings. The run asserts, continuously
//! and at the end:
//!
//! 1. **No torn reads** — every snapshot a reader takes shows, per
//!    writer, a *prefix* of that writer's committed transactions, and
//!    every visible transaction is complete (all of its rows or none).
//! 2. **Recovery equals acked commits** — after a simulated crash (drop
//!    without close, plus a hand-written `Begin..` frame with no `Commit`
//!    on the WAL tail), reopening recovers exactly the acknowledged
//!    transactions: the torn tail is discarded, nothing acked is lost.
//!
//! With `KATHDB_FAULTS=<spec>` set (e.g. `seed=7,p=0.05`) the workload
//! runs under fault injection on the I/O seam — the chaos leg. Writers
//! stop at the first typed error; the invariant weakens to: every acked
//! transaction survives recovery, every recovered transaction is
//! complete, and per writer at most one unacknowledged transaction may
//! additionally appear (its fsync raced the failure).
//!
//! CI runs this as `make session-smoke` (part of `make verify`), once
//! plain and once under `KATHDB_FAULTS`.

use kath_storage::{FaultPlan, StorageError, Value, WalRecord};
use kathdb::{KathDB, KathError, Session};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

const WRITERS: usize = 8;
const READERS: usize = 8;
const COMMITS_PER_WRITER: usize = 6;
const ROWS_PER_TXN: usize = 3;
const SEEDS: &[u64] = &[1, 2, 3];

fn smoke_dir(seed: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "kathdb_session_smoke_{}_{seed}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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

/// Deterministic per-thread jitter: a seeded xorshift drives how often a
/// thread yields, so each seed exercises a different interleaving.
struct Jitter(u64);

impl Jitter {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn maybe_yield(&mut self) {
        if self.next().is_multiple_of(3) {
            std::thread::yield_now();
        }
    }
}

/// Per-writer view of a snapshot: seq → row count. A consistent snapshot
/// has, for every writer, seqs forming exactly 0..k with ROWS_PER_TXN
/// rows each — a committed prefix of complete transactions.
fn check_snapshot(rows: &[Vec<Value>], context: &str) {
    let mut per_writer: BTreeMap<i64, BTreeMap<i64, usize>> = BTreeMap::new();
    for row in rows {
        let (w, seq) = (row[0].as_int().unwrap(), row[1].as_int().unwrap());
        *per_writer.entry(w).or_default().entry(seq).or_insert(0) += 1;
    }
    for (w, seqs) in &per_writer {
        for (i, (seq, count)) in seqs.iter().enumerate() {
            assert_eq!(
                *seq, i as i64,
                "{context}: writer {w} shows seq {seq} without its predecessors \
                 (committed prefix violated)"
            );
            assert_eq!(
                *count, ROWS_PER_TXN,
                "{context}: writer {w} txn {seq} is torn: {count} of {ROWS_PER_TXN} rows visible"
            );
        }
    }
}

/// One writer: commit framed transactions until done or a typed fault.
/// Returns nothing; acked counts land in `acked[w]`.
fn run_writer(mut session: Session, w: usize, seed: u64, acked: &AtomicUsize) {
    let mut jitter = Jitter(seed.wrapping_mul(0x9e3779b9).wrapping_add(w as u64 + 1));
    for seq in 0..COMMITS_PER_WRITER {
        jitter.maybe_yield();
        if let Err(e) = session.begin() {
            panic!("writer {w}: begin failed: {e}");
        }
        let mut failed = false;
        for i in 0..ROWS_PER_TXN {
            jitter.maybe_yield();
            match session.sql(&format!("INSERT INTO log VALUES ({w}, {seq}, {i})")) {
                Ok(_) => {}
                Err(e) if typed(&e) => {
                    failed = true;
                    break;
                }
                Err(e) => panic!("writer {w}: untyped failure: {e}"),
            }
        }
        if failed {
            let _ = session.rollback();
            return;
        }
        match session.commit() {
            Ok(n) => {
                assert_eq!(n, ROWS_PER_TXN, "writer {w}: wrong commit size");
                acked.fetch_add(1, Ordering::SeqCst);
            }
            Err(e) if typed(&e) => return,
            Err(e) => panic!("writer {w}: untyped commit failure: {e}"),
        }
    }
}

/// One reader: repeatedly snapshot the log and assert prefix-consistency.
fn run_reader(mut session: Session, r: usize, seed: u64, faulty: bool) {
    let mut jitter = Jitter(seed.wrapping_mul(0xdeadbeef).wrapping_add(r as u64 + 1));
    for pass in 0..12 {
        jitter.maybe_yield();
        match session.sql("SELECT w, seq, i FROM log") {
            Ok(t) => check_snapshot(t.rows(), &format!("reader {r} pass {pass}")),
            Err(e) if faulty && typed(&e) => {}
            Err(e) => panic!("reader {r}: unexpected failure: {e}"),
        }
    }
}

/// Appends a `Begin` + payload with no `Commit` to the active WAL segment
/// — the torn tail a crash mid-transaction leaves behind.
fn tear_wal_tail(dir: &std::path::Path) {
    let mut segs: Vec<_> = std::fs::read_dir(dir.join("wal"))
        .expect("wal dir exists")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .collect();
    segs.sort();
    let seg = segs.pop().expect("active segment");
    let (mut wal, _) = kath_storage::Wal::open(&seg).expect("segment reopens");
    let insert = WalRecord::Insert {
        table: "log".into(),
        rows: vec![vec![Value::Int(999), Value::Int(999), Value::Int(0)]],
    };
    wal.append_batch_nosync([&WalRecord::Begin(u64::MAX / 2), &insert])
        .unwrap();
    wal.sync().unwrap();
    // No Commit: recovery must discard this transaction entirely.
}

/// One seeded run. Returns (acked commits, recovered commits).
fn run_seed(seed: u64, fault_spec: Option<&str>) -> (usize, usize) {
    let dir = smoke_dir(seed);
    let acked: Vec<AtomicUsize> = (0..WRITERS).map(|_| AtomicUsize::new(0)).collect();
    {
        let mut db = KathDB::open(&dir).expect("durable dir opens");
        db.sql("CREATE TABLE log (w INT, seq INT, i INT)").unwrap();
        if let Some(spec) = fault_spec {
            let spec = format!("seed={seed},{spec}");
            db.install_faults(FaultPlan::parse(&spec).expect("fault spec parses"));
        }
        std::thread::scope(|scope| {
            for (w, slot) in acked.iter().enumerate() {
                let session = db.session();
                scope.spawn(move || run_writer(session, w, seed, slot));
            }
            for r in 0..READERS {
                let session = db.session();
                let faulty = fault_spec.is_some();
                scope.spawn(move || run_reader(session, r, seed, faulty));
            }
        });
        db.clear_faults();
        assert_eq!(db.sessions(), 0, "all session handles dropped");
        // Crash: drop without close. Nothing beyond the WAL survives.
    }
    tear_wal_tail(&dir);

    let mut db = KathDB::open(&dir).expect("recovery succeeds");
    let t = db.sql("SELECT w, seq, i FROM log").unwrap();
    check_snapshot(t.rows(), &format!("seed {seed} post-recovery"));
    // Per-writer: everything acked survived; under faults at most one
    // unacknowledged transaction may additionally appear.
    let mut recovered_txns = 0usize;
    for (w, acked_slot) in acked.iter().enumerate() {
        let acked_w = acked_slot.load(Ordering::SeqCst);
        let recovered_w = t
            .rows()
            .iter()
            .filter(|r| r[0].as_int() == Some(w as i64))
            .count()
            / ROWS_PER_TXN;
        recovered_txns += recovered_w;
        if fault_spec.is_some() {
            assert!(
                recovered_w >= acked_w && recovered_w <= acked_w + 1,
                "seed {seed}: writer {w} acked {acked_w}, recovered {recovered_w}"
            );
        } else {
            assert_eq!(
                recovered_w, acked_w,
                "seed {seed}: writer {w} acked {acked_w} but recovered {recovered_w}"
            );
        }
    }
    // The torn tail was discarded, not replayed.
    assert!(
        t.rows().iter().all(|r| r[0].as_int() != Some(999)),
        "seed {seed}: uncommitted torn-tail transaction leaked into recovery"
    );
    let total_acked: usize = acked.iter().map(|a| a.load(Ordering::SeqCst)).sum();
    let _ = std::fs::remove_dir_all(dir);
    (total_acked, recovered_txns)
}

fn main() {
    let fault_spec = std::env::var("KATHDB_FAULTS").ok();
    // The storage Io seam honours KATHDB_FAULTS on its own, which would
    // make even the post-crash recovery open faulty. This harness scopes
    // the faults to the concurrent workload window instead (that is the
    // invariant under test), so it takes ownership of the spec.
    std::env::remove_var("KATHDB_FAULTS");
    let fault_spec = fault_spec.as_deref().filter(|s| !s.is_empty());
    let leg = match fault_spec {
        Some(spec) => format!("chaos leg (KATHDB_FAULTS={spec})"),
        None => "clean leg".to_string(),
    };
    for &seed in SEEDS {
        let (acked, recovered) = run_seed(seed, fault_spec);
        eprintln!(
            "seed {seed}: {WRITERS} writers x {COMMITS_PER_WRITER} txns, {READERS} readers — \
             {acked} acked, {recovered} recovered, no torn reads"
        );
    }
    eprintln!(
        "session smoke [{leg}]: {} seeds ok — snapshot prefix-consistency and \
         crash recovery hold",
        SEEDS.len()
    );
}
