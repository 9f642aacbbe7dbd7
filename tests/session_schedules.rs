//! Session interleavings, replayed from a seed and checked for snapshot
//! isolation.
//!
//! Writer sessions commit transactions of a few rows each into one table
//! `log (w, seq, i)`: framed (`begin`, one INSERT per row, `commit`) or
//! one autocommitted multi-row INSERT. Reader sessions SELECT the table,
//! alone or inside a read-only transaction, and some schedules checkpoint
//! (seal pages, rotate the log) beside them. Every session runs on its own
//! thread under [`Sim`], which lets one run at a time and passes the turn
//! at each pause of the shared catalog, so one `u64` fixes the
//! interleaving. The same seed draws the shape, a fault plan over the
//! [`SimDisk`] (most schedules draw none) and the [`Keep::Seeded`] power
//! loss that ends the schedule.
//!
//! The checker reads the history the catalog told the scheduler (each
//! version installed, published, rolled back or read) and asserts the
//! contract of docs/concurrency.md:
//!
//! - a SELECT returns exactly the transactions installed at or before the
//!   version its snapshot read and never rolled back, each with all of its
//!   rows: no dirty, aborted or intermediate read;
//! - it holds every transaction acknowledged before its snapshot;
//! - the version it read was published before it read it;
//! - recovery from the power loss holds exactly the acknowledged
//!   transactions, and under faults at most one more per writer (its
//!   fsync failed after the bytes landed), never a torn one.
//!
//! A failure prints the seed, the step and the hook where it stopped;
//! `schedule(seed, small(seed))` (or `schedule(seed, WIDE)`) replays it.

#[path = "../crates/storage/tests/support/mod.rs"]
mod support;

use kath_storage::{BufferPool, Catalog, Durability, Io, Row, StorageError, VersionEvent};
use kathdb::{KathDB, KathError, Session};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};
use support::faults::{FaultPlan, FaultyIo};
use support::sched::{Entry, Job, Sim, Step};
use support::{Keep, SimDisk};

const DIR: &str = "/db";

/// The former CI chaos specs, drawn by a few schedules each.
const FAULT_PLANS: [&str; 2] = ["p=0.1", "p=0.2,kinds=enospc|shortwrite"];

/// How many sessions do what.
#[derive(Debug, Clone, Copy)]
struct Shape {
    writers: usize,
    readers: usize,
    /// Transactions per writer.
    txns: usize,
    /// Rows per transaction.
    rows: usize,
    /// SELECTs per reader.
    reads: usize,
    /// Checkpoints, run by one more thread.
    checkpoints: usize,
}

/// The shape of the former concurrent-session smoke: 8 writers × 8
/// readers.
const WIDE: Shape = Shape {
    writers: 8,
    readers: 8,
    txns: 6,
    rows: 3,
    reads: 12,
    checkpoints: 2,
};

/// SplitMix64 of `seed` and `salt`: the schedule's draws other than the
/// turn order.
fn draw(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small shape drawn from the seed: 2–4 sessions, a few statements.
fn small(seed: u64) -> Shape {
    let d = draw(seed, 1);
    let writers = 1 + (d % 3) as usize;
    Shape {
        writers,
        readers: 1 + (d >> 8) as usize % (4 - writers),
        txns: 1 + (d >> 16) as usize % 2,
        rows: 2,
        reads: 1,
        checkpoints: usize::from((d >> 24).is_multiple_of(4)),
    }
}

/// One in eight schedules runs under one of [`FAULT_PLANS`].
fn fault_plan(seed: u64) -> Option<FaultPlan> {
    let spec = FAULT_PLANS.get((draw(seed, 2) % 16) as usize)?;
    Some(FaultPlan::parse(&format!("seed={seed},{spec}")).unwrap())
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

/// A database handle whose I/O runs on `disk`.
fn on_disk(disk: Arc<SimDisk>) -> KathDB {
    let db = KathDB::new(42);
    db.context().catalog.pool().io().set_backend(disk);
    db
}

/// A copy of the disk every schedule starts from: a durable directory
/// holding an empty `log` table.
fn blank() -> SimDisk {
    static BLANK: OnceLock<SimDisk> = OnceLock::new();
    let blank = BLANK.get_or_init(|| {
        let disk = Arc::new(SimDisk::new());
        let mut db = on_disk(Arc::clone(&disk));
        db.open_dir(DIR).unwrap();
        db.sql("CREATE TABLE log (w INT, seq INT, i INT)").unwrap();
        disk.crash(disk.events(), Keep::All)
    });
    blank.crash(0, Keep::All)
}

/// The `log` rows recovery finds on `disk`: the committed view of the
/// log (`Durability::open`) applied through `Catalog::apply`, as
/// `KathDB::open_dir` applies it.
fn recover(disk: SimDisk) -> Result<Vec<Row>, StorageError> {
    let io = Io::real();
    io.set_backend(Arc::new(disk));
    let (_, recovered) = Durability::open(
        Path::new(DIR),
        &Arc::new(BufferPool::with_budget_io(64, io)),
    )?;
    let mut catalog = Catalog::new();
    for table in recovered.tables {
        catalog.register_or_replace(table);
    }
    for record in &recovered.wal_records {
        catalog.apply(record)?;
    }
    catalog.get("log")?.to_rows()
}

/// A session that runs its SELECTs on its own thread.
fn session(db: &KathDB) -> Session {
    let mut s = db.session();
    s.set_parallelism(1);
    s
}

/// A writer's transaction: (writer, seq).
type Txn = (usize, usize);

/// What the sessions saw.
#[derive(Default)]
struct Log {
    /// Each acknowledged transaction and the history position after it.
    acks: Vec<(Txn, usize)>,
    /// Each SELECT's reader, rows, history position after it, and step.
    reads: Vec<(usize, Vec<Row>, usize, usize)>,
}

/// The transactions `rows` hold, with the rows each shows.
fn txns_in(rows: &[Row]) -> BTreeMap<Txn, usize> {
    let mut out = BTreeMap::new();
    for row in rows {
        let key = |i: usize| row[i].as_int().unwrap() as usize;
        *out.entry((key(0), key(1))).or_default() += 1;
    }
    out
}

fn run_writer(mut s: Session, w: usize, shape: Shape, seed: u64, sim: &Sim, log: &Mutex<Log>) {
    for seq in 0..shape.txns {
        let values = |i: usize| format!("({w}, {seq}, {i})");
        let result = if draw(seed, (w * 64 + seq) as u64 + 3).is_multiple_of(2) {
            (|| {
                s.begin()?;
                for i in 0..shape.rows {
                    s.sql(&format!("INSERT INTO log VALUES {}", values(i)))?;
                }
                s.commit()
            })()
        } else {
            let all: Vec<String> = (0..shape.rows).map(values).collect();
            s.sql(&format!("INSERT INTO log VALUES {}", all.join(", ")))
                .map(|_| shape.rows)
        };
        match result {
            Ok(n) => {
                assert_eq!(n, shape.rows, "writer {w} txn {seq}: commit size");
                log.lock().unwrap().acks.push(((w, seq), sim.now()));
            }
            Err(e) if typed(&e) && fault_plan(seed).is_some() => {
                let _ = s.rollback();
                return;
            }
            Err(e) => panic!("writer {w} txn {seq}: {e}"),
        }
    }
}

fn run_reader(mut s: Session, me: usize, shape: Shape, seed: u64, sim: &Sim, log: &Mutex<Log>) {
    // A reader in a transaction reads once more: each read must show the
    // version its `begin` took.
    let in_txn = draw(seed, me as u64 + 1000).is_multiple_of(4);
    if in_txn {
        s.begin().unwrap();
    }
    for _ in 0..shape.reads + usize::from(in_txn) {
        match s.sql("SELECT w, seq, i FROM log") {
            Ok(t) => {
                let read = (me, t.rows().to_vec(), sim.now(), sim.step());
                log.lock().unwrap().reads.push(read);
            }
            Err(e) if typed(&e) && fault_plan(seed).is_some() => {}
            Err(e) => panic!("reader {me}: {e}"),
        }
    }
    if in_txn {
        s.commit().unwrap();
    }
}

/// What one schedule did, for replay comparisons.
#[derive(Debug, PartialEq)]
struct Ran {
    trace: Vec<Step>,
    history: Vec<Entry>,
}

/// Runs the schedule `seed` draws for `shape` and checks it; a failed
/// check panics with the seed, the step and the hook.
fn schedule(seed: u64, shape: Shape) -> Ran {
    let sim = Arc::new(Sim::new(seed));
    let disk = Arc::new(blank());
    let mut db = on_disk(Arc::clone(&disk));
    db.open_dir(DIR).unwrap();
    // Published before the history starts.
    let base = db.context().catalog.snapshot().version();
    assert!(db.context().catalog.set_scheduler(sim.clone()).is_ok());
    let plan = fault_plan(seed);
    let faulty = plan.is_some();
    let io = db.context().catalog.pool().io().clone();
    if let Some(plan) = plan {
        io.set_backend(Arc::new(FaultyIo::new(plan, disk.clone())));
    }
    let log = Arc::new(Mutex::new(Log::default()));
    let mut bodies: Vec<Job> = Vec::new();
    for w in 0..shape.writers {
        let s = session(&db);
        let (sim, log) = (Arc::clone(&sim), Arc::clone(&log));
        bodies.push(Box::new(move || run_writer(s, w, shape, seed, &sim, &log)));
    }
    for r in 0..shape.readers {
        let s = session(&db);
        let (sim, log) = (Arc::clone(&sim), Arc::clone(&log));
        let me = shape.writers + r;
        bodies.push(Box::new(move || run_reader(s, me, shape, seed, &sim, &log)));
    }
    if shape.checkpoints > 0 {
        let catalog = db.context().catalog.clone();
        bodies.push(Box::new(move || {
            for _ in 0..shape.checkpoints {
                match catalog.checkpoint(None) {
                    Ok(_) => {}
                    Err(_) if faulty => return,
                    Err(e) => panic!("checkpoint: {e}"),
                }
            }
        }));
    }
    sim.run(bodies);
    io.set_backend(disk.clone());
    let log = std::mem::take(&mut *log.lock().unwrap());
    let fail = |step: usize, what: String| -> ! {
        let hook = step
            .checked_sub(1)
            .and_then(|i| sim.trace().get(i).copied());
        panic!("{}, hook {hook:?}: {what}", sim.place(step))
    };
    let history = sim.history();
    let acked: BTreeSet<Txn> = log.acks.iter().map(|(t, _)| *t).collect();

    // Which transaction each version holds: a writer installs one version
    // per transaction that reaches the log, in order.
    let mut installed: HashMap<u64, Txn> = HashMap::new();
    let mut per_writer = vec![0usize; shape.writers];
    let mut rolled_back = HashSet::new();
    let mut published = HashMap::from([(base, 0)]);
    for (at, (who, event)) in history.iter().enumerate() {
        match *event {
            VersionEvent::Install(v) => {
                if let Some(w) = who.filter(|&w| w < shape.writers) {
                    installed.insert(v, (w, per_writer[w]));
                    per_writer[w] += 1;
                }
            }
            VersionEvent::Publish(v) => {
                published.entry(v).or_insert(at);
            }
            VersionEvent::Rollback(v) => {
                rolled_back.insert(v);
            }
            VersionEvent::Read(_) => {}
        }
    }
    let as_of = |v: u64| -> BTreeSet<Txn> {
        let live = installed.iter().filter(|(ver, _)| **ver <= v);
        let live = live.filter(|(ver, _)| !rolled_back.contains(*ver));
        live.map(|(_, t)| *t).collect()
    };

    for (reader, rows, end, step) in &log.reads {
        let Some((at, v)) = history[..*end]
            .iter()
            .enumerate()
            .rev()
            .find_map(|(at, (who, e))| match e {
                VersionEvent::Read(v) if *who == Some(*reader) => Some((at, *v)),
                _ => None,
            })
        else {
            fail(*step, format!("reader {reader} read no version"));
        };
        if published.get(&v).is_none_or(|p| *p > at) {
            fail(
                *step,
                format!("reader {reader} read unpublished version {v}"),
            );
        }
        let seen = txns_in(rows);
        if let Some((t, n)) = seen.iter().find(|(_, n)| **n != shape.rows) {
            fail(*step, format!("reader {reader}: txn {t:?} shows {n} rows"));
        }
        let seen: BTreeSet<Txn> = seen.into_keys().collect();
        let expected = as_of(v);
        if seen != expected {
            fail(
                *step,
                format!("reader {reader} at version {v} saw {seen:?}, published {expected:?}"),
            );
        }
        let missed = log
            .acks
            .iter()
            .find(|(t, pos)| *pos <= at && !seen.contains(t));
        if let Some((t, _)) = missed {
            fail(
                *step,
                format!("reader {reader} misses txn {t:?}, acked before its snapshot"),
            );
        }
    }

    // The live database holds exactly the acknowledged transactions.
    let steps = sim.step();
    let live = db
        .context()
        .catalog
        .snapshot()
        .get("log")
        .and_then(|t| t.to_rows());
    let live: BTreeSet<Txn> = txns_in(&live.unwrap()).into_keys().collect();
    if live != acked {
        fail(steps, format!("live {live:?}, acked {acked:?}"));
    }

    // Power loss after the last event: the seed picks which volatile
    // operations survive. Recovery holds every acknowledged transaction,
    // complete, and under faults at most one more per writer.
    let rows = recover(disk.crash(disk.events(), Keep::Seeded(seed)))
        .unwrap_or_else(|e| fail(steps, format!("recovery failed: {e}")));
    let recovered = txns_in(&rows);
    if let Some((t, n)) = recovered.iter().find(|(_, n)| **n != shape.rows) {
        fail(
            steps,
            format!("recovered txn {t:?} with {n} of {} rows", shape.rows),
        );
    }
    for w in 0..shape.writers {
        let of = |set: &mut dyn Iterator<Item = &Txn>| -> Vec<usize> {
            set.filter(|t| t.0 == w).map(|t| t.1).collect()
        };
        let got = of(&mut recovered.keys());
        let want = of(&mut acked.iter());
        let prefix = got.iter().enumerate().all(|(i, seq)| i == *seq);
        let extra = got.len().saturating_sub(want.len());
        if !prefix || got.len() < want.len() || extra > usize::from(faulty) {
            fail(
                steps,
                format!("writer {w}: recovered txns {got:?}, acked {want:?} (faults: {faulty})"),
            );
        }
    }
    Ran {
        trace: sim.trace(),
        history,
    }
}

/// Tier-1's sweep: this many seeds, on four threads (a schedule runs
/// one thread at a time, so four keep two cores busy).
const SMALL_SCHEDULES: u64 = 10_000;

#[test]
fn small_schedules_hold_snapshot_isolation() {
    const SWEEPERS: u64 = 4;
    std::thread::scope(|scope| {
        let sweepers: Vec<_> = (0..SWEEPERS)
            .map(|i| {
                scope.spawn(move || {
                    for seed in (i..SMALL_SCHEDULES).step_by(SWEEPERS as usize) {
                        schedule(seed, small(seed));
                    }
                })
            })
            .collect();
        for sweeper in sweepers {
            if let Err(panic) = sweeper.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

proptest! {
    // Eight seeds unless `PROPTEST_CASES` says otherwise (the CI sessions
    // job runs 256): tier-1 gets its 10 000 schedules from the small ones.
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|n| n.parse().ok()).unwrap_or(8)
    ))]

    /// The wide shape, 16 sessions.
    #[test]
    fn wide_schedules_hold_snapshot_isolation(seed in any::<u64>()) {
        schedule(seed, WIDE);
    }
}

/// Seeds a deeper sweep found, each red before its fix:
/// - 29 790: a writer asleep across a failed group fsync, the log's rewind
///   and a later group's fsync read the reused offset as its own and was
///   told its dropped commit succeeded (a commit now learns its fate by
///   version);
/// - 4 647 (also in the sweep): a rewind whose truncate failed left the
///   dropped commit's bytes past the tail, the next append wrote over
///   them, and the power loss tore the two into a whole frame that failed
///   its checksum, so recovery refused to open (an append now truncates
///   first).
#[test]
fn seeds_that_found_bugs_stay_green() {
    for seed in [29_790, 4_647] {
        schedule(seed, small(seed));
    }
}

#[test]
fn a_seed_replays_its_schedule() {
    for seed in [7, 8, 9] {
        let shape = Shape {
            writers: 2,
            readers: 2,
            ..WIDE
        };
        let first = schedule(seed, shape);
        assert!(
            first.trace.len() > 20,
            "seed {seed}: {} steps",
            first.trace.len()
        );
        assert_eq!(
            first,
            schedule(seed, shape),
            "seed {seed} replayed differently"
        );
    }
}

/// Snapshot isolation admits write skew: two transactions that each read
/// the other's table and insert into their own both commit, though no
/// serial order of the two lets each miss the other's row. Seed 1 begins
/// both before either commits.
#[test]
fn write_skew_commits() {
    const SEED: u64 = 1;
    let sim = Arc::new(Sim::new(SEED));
    let mut db = on_disk(Arc::new(SimDisk::new()));
    db.open_dir(DIR).unwrap();
    db.sql("CREATE TABLE a (x INT)").unwrap();
    db.sql("CREATE TABLE b (x INT)").unwrap();
    assert!(db.context().catalog.set_scheduler(sim.clone()).is_ok());
    let seen = Arc::new(Mutex::new(BTreeMap::new()));
    let skew = |mut s: Session, read: &'static str, write: &'static str| -> Job {
        let seen = Arc::clone(&seen);
        Box::new(move || {
            s.begin().unwrap();
            let rows = s.sql(&format!("SELECT x FROM {read}")).unwrap().len();
            s.sql(&format!("INSERT INTO {write} VALUES (1)")).unwrap();
            s.commit().unwrap();
            seen.lock().unwrap().insert(write, rows);
        })
    };
    sim.run(vec![
        skew(session(&db), "b", "a"),
        skew(session(&db), "a", "b"),
    ]);
    let seen = std::mem::take(&mut *seen.lock().unwrap());
    assert_eq!(
        seen,
        BTreeMap::from([("a", 0), ("b", 0)]),
        "seed {SEED}: each transaction read the other's table empty"
    );
    for table in ["a", "b"] {
        let rows = db.sql(&format!("SELECT x FROM {table}")).unwrap();
        assert_eq!(rows.len(), 1, "both commits landed");
    }
}
