//! Concurrent sessions over one shared, versioned catalog.
//!
//! A [`Session`] is a handle onto a [`KathDB`]'s shared catalog: it reads
//! MVCC snapshots (one frozen catalog version per statement), commits
//! through the same group-commit WAL as every other session, and carries its
//! **own** settings — timeout, budgets, strategy pins, vector policy and a
//! private cancel token, so cancelling one session never aborts another.
//! Sessions are `Send`: hand them to worker threads and run SQL
//! concurrently against one database. The facade's SQL side *is* a
//! `Session` — the one it owns and dereferences to — so a setting, a
//! transaction or a statement behaves the same on either handle because
//! it is the same code.
//!
//! Explicit transactions ([`Session::begin`] … [`Session::commit`]) stage
//! mutations on a private copy of the begin-time snapshot — visible to the
//! session's own SELECTs (read-your-writes), invisible to everyone else —
//! and publish atomically at commit as a single `Begin..Commit` WAL frame.
//! Conflict resolution is first-committer-wins: the staged records
//! re-validate against the catalog head at commit, so a transaction that
//! raced a conflicting DDL (say, both created the same table) fails
//! cleanly with nothing logged or published.
//!
//! Sessions speak SQL. The NL pipeline (parse → verify → compile →
//! execute) stays on the [`KathDB`] facade: it mutates the function
//! registry and the lineage store, which are facade state, not catalog
//! state.
//!
//! [`KathDB`]: crate::KathDB

use crate::KathError;
use kath_optimizer::{choose_strategy, StrategyPins};
use kath_sql::{SqlError, Statement};
use kath_storage::{
    CancelToken, Catalog, CatalogRef, CompileMode, ExecMode, GuardSpec, SharedCatalog,
    StorageError, Table, VectorMode, WalRecord,
};
use std::time::Duration;

/// A staged transaction: a private working copy of the begin-time
/// snapshot plus the WAL records to publish at commit.
pub struct TxnStage {
    work: Catalog,
    staged: Vec<WalRecord>,
}

impl TxnStage {
    /// Opens a stage over `snap`: the working copy starts as a cheap
    /// structural clone (tables are `Arc`-shared, never row-copied).
    pub fn new(snap: &CatalogRef) -> Self {
        Self {
            work: snap.catalog().clone(),
            staged: Vec::new(),
        }
    }

    /// Validates `stmt` against the working catalog, applies it there,
    /// and stages its WAL record for commit.
    fn mutate(&mut self, stmt: &Statement) -> Result<Table, SqlError> {
        let record = kath_sql::plan_mutation(&self.work, stmt)?;
        let out = kath_sql::apply_mutation(&mut self.work, &record, "sql_result")?;
        self.staged.push(record);
        Ok(out)
    }

    /// Publishes the stage: re-applies every staged record to the current
    /// catalog head (first committer wins — a conflicting concurrent
    /// commit fails the re-apply and nothing is logged), writes them as
    /// one framed `Begin..Commit` group through the group-commit
    /// coordinator, and returns once durable. Returns the record count.
    fn publish(self, shared: &SharedCatalog) -> Result<usize, SqlError> {
        if self.staged.is_empty() {
            return Ok(0);
        }
        let staged = self.staged;
        shared.submit::<(), StorageError>(&staged, true, |c| {
            staged.iter().try_for_each(|record| c.apply(record))
        })?;
        Ok(staged.len())
    }
}

/// A positive integer pins; `0`, `auto`, anything else and unset do not.
fn parse_threads(raw: Option<&str>) -> Option<usize> {
    raw?.parse().ok().filter(|n| *n > 0)
}

/// Rows of the largest of `tables` that `catalog` holds (0 when it holds
/// none of them): the cardinality the strategy rule reads. A statement
/// passes its own FROM/JOIN tables, an NL plan each node's inputs.
pub(crate) fn largest_input<S: AsRef<str>>(
    catalog: &Catalog,
    tables: impl IntoIterator<Item = S>,
) -> usize {
    tables
        .into_iter()
        .filter_map(|t| catalog.get(t.as_ref()).ok())
        .map(|t| t.len())
        .max()
        .unwrap_or(0)
}

/// Re-arms a handle's cancel token after a statement settles, so a fired
/// token cancels exactly one statement.
pub(crate) fn rearm_cancel(limits: &GuardSpec) {
    if limits.cancel.is_cancelled() {
        limits.cancel.clear();
    }
}

/// One handle over a shared catalog. See the module docs.
pub struct Session {
    shared: SharedCatalog,
    /// Each statement mints a fresh guard from this: the deadline restarts
    /// per statement, while the cancel token is this handle's own.
    pub(crate) limits: GuardSpec,
    pub(crate) pins: StrategyPins,
    pub(crate) vector_mode: VectorMode,
    txn: Option<TxnStage>,
}

impl Session {
    /// A handle over `shared`. The `KATHDB_THREADS` environment variable,
    /// when set to a positive integer, pins its worker count (`auto` or `0`
    /// keep the rule's choice) — the knob CI uses to run the whole suite
    /// serially and 4-wide.
    pub(crate) fn new(shared: SharedCatalog) -> Self {
        shared.register_session();
        Self {
            shared,
            limits: GuardSpec::default(),
            pins: StrategyPins {
                threads: parse_threads(std::env::var("KATHDB_THREADS").ok().as_deref()),
                ..StrategyPins::default()
            },
            vector_mode: VectorMode::default(),
            txn: None,
        }
    }

    /// Runs one SQL statement. A SELECT executes against one frozen catalog
    /// snapshot — a single version even while other sessions commit — or
    /// against the open transaction's working state (read-your-writes),
    /// under the strategy `kath_optimizer::choose_strategy` derives from
    /// this handle's pins and the statement's own largest FROM/JOIN table
    /// in that same catalog. CREATE TABLE / INSERT / DROP TABLE stage when
    /// a transaction is open; otherwise they autocommit: validated against
    /// a snapshot, made durable through the group-commit WAL when a
    /// directory is open, and only then published.
    pub fn sql(&mut self, sql: &str) -> Result<Table, KathError> {
        let stmt = kath_sql::parse_statement(sql).map_err(|e| KathError::Sql(e.into()))?;
        let select = match stmt {
            Statement::Select(select) => select,
            stmt => {
                if let Some(txn) = &mut self.txn {
                    return Ok(txn.mutate(&stmt)?);
                }
                let snapshot = self.shared.snapshot();
                let record = kath_sql::plan_mutation(&snapshot, &stmt)?;
                drop(snapshot);
                let records = [record];
                return Ok(self
                    .shared
                    .submit::<Table, SqlError>(&records, false, |c| {
                        kath_sql::apply_mutation(c, &records[0], "sql_result")
                    })?);
            }
        };
        let snapshot;
        let catalog: &Catalog = match &self.txn {
            Some(txn) => &txn.work,
            None => {
                snapshot = self.shared.snapshot();
                &snapshot
            }
        };
        let (mode, threads) =
            choose_strategy(self.pins, largest_input(catalog, select.tables()), 0.0);
        let result = kath_sql::run_select_auto_guarded(
            catalog,
            &select,
            "sql_result",
            mode,
            threads,
            self.vector_mode,
            CompileMode::Off,
            &self.limits.guard(),
        );
        rearm_cancel(&self.limits);
        let (table, _stats) = result?;
        Ok(table)
    }

    /// Opens an explicit transaction: subsequent mutations stage against a
    /// private copy of the current snapshot (visible to this handle's own
    /// SELECTs, invisible to every other) until [`Session::commit`]
    /// publishes them atomically or [`Session::rollback`] discards them.
    /// Errors if one is already open.
    pub fn begin(&mut self) -> Result<(), KathError> {
        if self.txn.is_some() {
            return Err(KathError::Txn(
                "a transaction is already open (commit or rollback it first)".to_string(),
            ));
        }
        self.txn = Some(TxnStage::new(&self.shared.snapshot()));
        Ok(())
    }

    fn take_txn(&mut self, verb: &str) -> Result<TxnStage, KathError> {
        self.txn
            .take()
            .ok_or_else(|| KathError::Txn(format!("no open transaction to {verb}")))
    }

    /// Commits the open transaction: every staged mutation re-applies to
    /// the current catalog head (first committer wins on conflicts), the
    /// records hit the WAL as one `Begin..Commit` frame through the
    /// group-commit coordinator, and the new version publishes only once
    /// durable. Returns the number of committed records.
    pub fn commit(&mut self) -> Result<usize, KathError> {
        Ok(self.take_txn("commit")?.publish(&self.shared)?)
    }

    /// Discards the open transaction's staged mutations; returns how many
    /// records were dropped.
    pub fn rollback(&mut self) -> Result<usize, KathError> {
        Ok(self.take_txn("roll back")?.staged.len())
    }

    /// Whether an explicit transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// Fires this handle's cancel token: a statement running on another
    /// thread (via [`Session::cancel_handle`]) aborts at its next guard
    /// check with `StorageError::Cancelled`. One-shot: the token re-arms
    /// after the cancelled statement returns. Other handles are unaffected
    /// — each owns a private token.
    pub fn cancel(&self) {
        self.limits.cancel.cancel();
    }

    /// A clonable handle to **this handle's** cancel token, for firing
    /// [`Session::cancel`] from another thread while a query runs.
    pub fn cancel_handle(&self) -> CancelToken {
        self.limits.cancel.clone()
    }

    /// Sets (or clears) the per-query wall-clock timeout. A query that
    /// outlives it aborts mid-scan with `StorageError::Cancelled` on
    /// whichever drive is running — serial or morsel-parallel —
    /// with partial state dropped and the catalog untouched; the next
    /// statement runs normally. The deadline is minted fresh at each
    /// statement's start — for an NL `KathDB::query`, at the start of each
    /// node of its plan, SQL or semantic (a model-call node checks it
    /// between morsels of 64 rows), where a trip ends the query with
    /// `ExecError::Guard` carrying that same typed error: the monitor does
    /// not mistake it for a fault to repair.
    pub fn set_query_timeout(&mut self, timeout: Option<Duration>) {
        self.limits.timeout = timeout;
    }

    /// The active per-query timeout, if any.
    pub fn query_timeout(&self) -> Option<Duration> {
        self.limits.timeout
    }

    /// Sets (or clears) per-query output budgets: a query that produces
    /// more than `rows` root-level rows or `bytes` payload bytes aborts
    /// with `StorageError::Budget`. Budgets meter produced output, not
    /// intermediate operator traffic.
    pub fn set_query_budget(&mut self, rows: Option<u64>, bytes: Option<u64>) {
        self.limits.row_budget = rows;
        self.limits.byte_budget = bytes;
    }

    /// Pins the execution mode: `ExecMode::Batched(n)` sets the batch size;
    /// `ExecMode::default()` is what an unpinned handle runs.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.pins.mode = Some(mode);
    }

    /// Pins the degree of intra-query parallelism: SQL pipelines run their
    /// streaming phase, and the semantic nodes of an NL plan their per-row
    /// model calls, with `n` morsel workers (min 1). Results — answers,
    /// lineage, token totals, repairs — are identical to serial execution
    /// at any setting.
    pub fn set_parallelism(&mut self, n: usize) {
        self.pins.threads = Some(n.max(1));
    }

    /// Reverts to the rule's worker count (the default): each statement
    /// weighs per-worker startup cost against the per-morsel win over its
    /// own input cardinality and, for an NL plan, over the profiled cost of
    /// its model-call nodes, capped at the host's cores.
    pub fn auto_parallelism(&mut self) {
        self.pins.threads = None;
    }

    /// The strategy a scan of the catalog's largest table would get — what
    /// [`Session::exec_mode`] and [`Session::threads`] preview. A statement
    /// decides from its own FROM/JOIN tables and an NL query from its
    /// compiled plan, by the same rule (see `QueryResult.exec.timings` for
    /// what each node then used).
    fn preview(&self) -> (ExecMode, usize) {
        let snapshot = self.shared.snapshot();
        let rows = largest_input(&snapshot, snapshot.table_names());
        choose_strategy(self.pins, rows, 0.0)
    }

    /// The execution mode statements run in: the pin, else
    /// `ExecMode::default()`.
    pub fn exec_mode(&self) -> ExecMode {
        self.preview().0
    }

    /// The worker count a scan of the catalog's largest table would run
    /// with: the pin, else the rule's choice.
    pub fn threads(&self) -> usize {
        self.preview().1
    }

    /// Sets the vector access-path policy for SQL similarity queries:
    /// `Auto` (cost model picks Flat vs IVF per query from catalog
    /// cardinality — the default), `Off` (always the full-sort plan), or a
    /// forced `Flat`/`Ivf`. The exact paths (`Off`, `Flat`, and `Auto`
    /// below the cost crossover) return identical rows; `Ivf` — including
    /// `Auto` above the crossover — trades exactness for speed: same row
    /// count, recall-tested (≥ 0.9 @ k=10) but not bit-identical ranking.
    pub fn set_vector_mode(&mut self, mode: VectorMode) {
        self.vector_mode = mode;
    }

    /// The active vector access-path policy.
    pub fn vector_mode(&self) -> VectorMode {
        self.vector_mode
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.shared.unregister_session();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KathDB;
    use kath_storage::StorageError;

    fn assert_send<T: Send>() {}

    #[test]
    fn sessions_are_send() {
        assert_send::<Session>();
    }

    #[test]
    fn only_a_positive_thread_count_pins() {
        assert_eq!(parse_threads(Some("4")), Some(4));
        for unpinned in [Some("0"), Some("auto"), Some(""), None] {
            assert_eq!(parse_threads(unpinned), None, "{unpinned:?}");
        }
    }

    #[test]
    fn session_count_tracks_live_handles() {
        let db = KathDB::new(42);
        assert_eq!(db.sessions(), 0);
        let s1 = db.session();
        let s2 = db.session();
        assert_eq!(db.sessions(), 2);
        drop(s1);
        assert_eq!(db.sessions(), 1);
        drop(s2);
        assert_eq!(db.sessions(), 0);
    }

    #[test]
    fn snapshot_reads_are_stable_while_another_session_commits() {
        let mut db = KathDB::new(42);
        db.sql("CREATE TABLE t (x INT)").unwrap();
        db.sql("INSERT INTO t VALUES (1), (2)").unwrap();
        let mut reader = db.session();
        let mut writer = db.session();
        // The reader's transaction freezes its snapshot at BEGIN.
        reader.begin().unwrap();
        assert_eq!(reader.sql("SELECT * FROM t").unwrap().len(), 2);
        writer.sql("INSERT INTO t VALUES (3)").unwrap();
        // Inside the transaction: still the begin-time version.
        assert_eq!(reader.sql("SELECT * FROM t").unwrap().len(), 2);
        reader.commit().unwrap();
        // Outside: the next statement takes a fresh snapshot.
        assert_eq!(reader.sql("SELECT * FROM t").unwrap().len(), 3);
    }

    #[test]
    fn staged_mutations_are_invisible_until_commit_and_read_your_writes() {
        let mut db = KathDB::new(42);
        db.sql("CREATE TABLE t (x INT)").unwrap();
        let mut a = db.session();
        let mut b = db.session();
        a.begin().unwrap();
        a.sql("INSERT INTO t VALUES (7)").unwrap();
        // A sees its own staged write; B and the facade do not.
        assert_eq!(a.sql("SELECT * FROM t").unwrap().len(), 1);
        assert_eq!(b.sql("SELECT * FROM t").unwrap().len(), 0);
        assert_eq!(db.sql("SELECT * FROM t").unwrap().len(), 0);
        let committed = a.commit().unwrap();
        assert_eq!(committed, 1);
        assert_eq!(b.sql("SELECT * FROM t").unwrap().len(), 1);
        assert_eq!(db.sql("SELECT * FROM t").unwrap().len(), 1);
    }

    #[test]
    fn rollback_discards_staged_mutations() {
        let mut db = KathDB::new(42);
        db.sql("CREATE TABLE t (x INT)").unwrap();
        let mut s = db.session();
        s.begin().unwrap();
        s.sql("INSERT INTO t VALUES (1)").unwrap();
        s.sql("INSERT INTO t VALUES (2)").unwrap();
        assert_eq!(s.rollback().unwrap(), 2);
        assert_eq!(s.sql("SELECT * FROM t").unwrap().len(), 0);
        assert!(!s.in_transaction());
        // Txn-control misuse errors cleanly.
        assert!(matches!(s.commit(), Err(KathError::Txn(_))));
        s.begin().unwrap();
        assert!(matches!(s.begin(), Err(KathError::Txn(_))));
        s.rollback().unwrap();
    }

    #[test]
    fn first_committer_wins_on_conflicting_ddl() {
        let mut db = KathDB::new(42);
        let mut a = db.session();
        let mut b = db.session();
        a.begin().unwrap();
        b.begin().unwrap();
        a.sql("CREATE TABLE dup (x INT)").unwrap();
        b.sql("CREATE TABLE dup (x INT)").unwrap();
        a.commit().unwrap();
        // B's commit re-validates against the head: the table now exists.
        let err = b.commit().unwrap_err();
        assert!(matches!(err, KathError::Sql(_)), "{err:?}");
        // The failed commit published nothing extra and B is usable again.
        assert_eq!(db.sql("SELECT * FROM dup").unwrap().len(), 0);
        b.sql("INSERT INTO dup VALUES (1)").unwrap();
        assert_eq!(db.sql("SELECT * FROM dup").unwrap().len(), 1);
    }

    #[test]
    fn cancel_is_per_session_not_global() {
        let mut db = KathDB::new(42);
        db.sql("CREATE TABLE t (x INT)").unwrap();
        db.sql("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        let mut a = db.session();
        let mut b = db.session();
        // Fire A's token: A's next statement aborts, B's runs untouched.
        a.cancel_handle().cancel();
        let err = a.sql("SELECT * FROM t").unwrap_err();
        assert!(
            matches!(
                err,
                KathError::Sql(SqlError::Storage(StorageError::Cancelled(_)))
            ),
            "{err:?}"
        );
        assert_eq!(b.sql("SELECT * FROM t").unwrap().len(), 3);
        // A's token re-armed; the facade's token is a third, also
        // independent, one.
        assert_eq!(a.sql("SELECT * FROM t").unwrap().len(), 3);
        db.cancel();
        assert_eq!(a.sql("SELECT * FROM t").unwrap().len(), 3);
        assert_eq!(b.sql("SELECT * FROM t").unwrap().len(), 3);
    }

    fn int_table(name: &str, rows: i64) -> Table {
        let mut t = Table::new(
            name,
            kath_storage::Schema::of(&[("x", kath_storage::DataType::Int)]),
        );
        for i in 0..rows {
            t.push(vec![i.into()]).unwrap();
        }
        t
    }

    #[test]
    fn a_statement_is_sized_by_its_own_tables_not_the_catalogs_largest() {
        let mut db = KathDB::new(42);
        db.load_table(int_table("small", 6), "test://small")
            .unwrap();
        db.load_table(int_table("big", 50_000), "test://big")
            .unwrap();
        let snapshot = db.context().catalog.snapshot();
        let rows = |catalog: &Catalog, sql: &str| {
            largest_input(catalog, kath_sql::parse_select(sql).unwrap().tables())
        };
        assert_eq!(rows(&snapshot, "SELECT * FROM small"), 6);
        let join = "SELECT small.x FROM small JOIN big ON small.x = big.x";
        assert_eq!(rows(&snapshot, join), 50_000);
        assert_eq!(rows(&snapshot, "SELECT * FROM missing"), 0);
        // The rule keeps six rows on the calling thread and gives the join
        // what a 50 000-row pipeline earns on this host.
        let free = StrategyPins::default();
        let batched = ExecMode::default();
        assert_eq!(choose_strategy(free, 6, 0.0), (batched, 1));
        assert_eq!(
            choose_strategy(free, 50_000, 0.0),
            (
                batched,
                kath_optimizer::preferred_parallelism(50_000, batched)
            )
        );
        // Inside a transaction the statement is sized in the working copy.
        let mut s = db.session();
        s.begin().unwrap();
        s.sql("CREATE TABLE staged (x INT)").unwrap();
        s.sql("INSERT INTO staged VALUES (1), (2)").unwrap();
        let work = &s.txn.as_ref().unwrap().work;
        assert_eq!(rows(work, "SELECT * FROM staged"), 2);
        assert_eq!(rows(&snapshot, "SELECT * FROM staged"), 0);
        assert_eq!(s.sql("SELECT * FROM staged").unwrap().len(), 2);
    }

    #[test]
    fn a_sessions_settings_are_its_own() {
        let mut db = KathDB::new(42);
        db.load_table(int_table("t", 3), "test://t").unwrap();
        let mut a = db.session();
        let mut b = db.session();
        let all = "SELECT * FROM t";
        a.set_query_timeout(Some(Duration::ZERO));
        let err = a.sql(all).unwrap_err();
        assert!(
            matches!(
                err,
                KathError::Sql(SqlError::Storage(StorageError::Cancelled(_)))
            ),
            "{err:?}"
        );
        assert_eq!(b.sql(all).unwrap().len(), 3);
        assert_eq!(db.sql(all).unwrap().len(), 3);
        assert_eq!(
            (a.query_timeout(), db.query_timeout()),
            (Some(Duration::ZERO), None)
        );
        a.set_query_timeout(None);
        a.set_query_budget(Some(2), None);
        let err = a.sql(all).unwrap_err();
        assert!(
            matches!(
                err,
                KathError::Sql(SqlError::Storage(StorageError::Budget(_)))
            ),
            "{err:?}"
        );
        assert_eq!(b.sql(all).unwrap().len(), 3);
        a.set_query_budget(None, None);
        // Pins and the vector policy are per handle too; the rows are not.
        a.set_exec_mode(ExecMode::Batched(1));
        a.set_parallelism(4);
        a.set_vector_mode(VectorMode::Off);
        assert_eq!((a.exec_mode(), a.threads()), (ExecMode::Batched(1), 4));
        assert_eq!(a.vector_mode(), VectorMode::Off);
        assert_eq!(db.exec_mode(), ExecMode::default());
        assert_eq!(db.vector_mode(), VectorMode::default());
        assert_eq!(a.sql(all).unwrap(), db.sql(all).unwrap());
    }

    #[test]
    fn the_facade_runs_transactions_through_the_session_it_owns() {
        let mut db = KathDB::new(42);
        db.sql("CREATE TABLE t (x INT)").unwrap();
        let mut s = db.session();
        let handles: [&mut Session; 2] = [&mut db, &mut s];
        for handle in handles {
            handle.begin().unwrap();
            assert!(matches!(handle.begin(), Err(KathError::Txn(_))));
            handle.sql("INSERT INTO t VALUES (1)").unwrap();
            assert!(handle.in_transaction());
            assert_eq!(handle.sql("SELECT * FROM t").unwrap().len(), 1);
            assert_eq!(handle.rollback().unwrap(), 1);
            assert!(!handle.in_transaction());
            assert_eq!(handle.sql("SELECT * FROM t").unwrap().len(), 0);
            assert!(matches!(handle.commit(), Err(KathError::Txn(_))));
            assert!(matches!(handle.rollback(), Err(KathError::Txn(_))));
        }
        // The facade's own session is not one `session()` handed out.
        assert_eq!(db.sessions(), 1);
    }

    #[test]
    fn parallel_writers_and_readers_settle_consistently() {
        let mut db = KathDB::new(42);
        db.sql("CREATE TABLE log (w INT, seq INT)").unwrap();
        let writers = 4;
        let commits = 8;
        std::thread::scope(|scope| {
            for w in 0..writers {
                let mut s = db.session();
                scope.spawn(move || {
                    for seq in 0..commits {
                        s.begin().unwrap();
                        s.sql(&format!("INSERT INTO log VALUES ({w}, {seq})"))
                            .unwrap();
                        s.commit().unwrap();
                    }
                });
            }
            let mut r = db.session();
            scope.spawn(move || {
                for _ in 0..20 {
                    // Every snapshot is internally consistent: row count
                    // matches a committed prefix (never torn mid-commit).
                    let n = r.sql("SELECT * FROM log").unwrap().len();
                    assert!(n <= writers * commits);
                }
            });
        });
        let total = db.sql("SELECT * FROM log").unwrap().len();
        assert_eq!(total, writers * commits);
    }
}
