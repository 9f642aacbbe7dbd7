//! Concurrent sessions over one shared, versioned catalog.
//!
//! A [`Session`] is an independent handle onto a [`KathDB`]'s shared
//! catalog: it reads MVCC snapshots (one frozen catalog version per
//! statement), commits through the same group-commit WAL as every other
//! session, and carries its **own** guard settings — timeout, budgets,
//! and a private cancel token, so cancelling one session never aborts
//! another. Sessions are `Send`: hand them to worker threads and run SQL
//! concurrently against one database.
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
use kath_optimizer::{preferred_exec_mode, preferred_parallelism};
use kath_sql::{SqlError, Statement};
use kath_storage::{
    CancelToken, Catalog, CatalogRef, CompileMode, ExecMode, GuardSpec, SharedCatalog, Table,
    VectorMode, WalRecord,
};

/// A staged transaction: a private working copy of the begin-time
/// snapshot plus the WAL records to publish at commit.
pub struct TxnStage {
    work: Catalog,
    staged: Vec<WalRecord>,
    base_version: u64,
}

impl TxnStage {
    /// Opens a stage over `snap`: the working copy starts as a cheap
    /// structural clone (tables are `Arc`-shared, never row-copied).
    pub fn new(snap: &CatalogRef) -> Self {
        Self {
            work: snap.catalog().clone(),
            staged: Vec::new(),
            base_version: snap.version(),
        }
    }

    /// The catalog version this transaction's snapshot was taken at.
    pub fn base_version(&self) -> u64 {
        self.base_version
    }

    /// The working catalog — the session's own SELECTs read this
    /// (read-your-writes); no other session can see it.
    pub(crate) fn working(&self) -> &Catalog {
        &self.work
    }

    /// Validates `stmt` against the working catalog, applies it there,
    /// and stages its WAL record for commit.
    pub(crate) fn mutate(&mut self, stmt: &Statement) -> Result<Table, SqlError> {
        let record = kath_sql::plan_mutation(&self.work, stmt)?;
        let out = kath_sql::apply_mutation(&mut self.work, &record, "sql_result")?;
        self.staged.push(record);
        Ok(out)
    }

    /// Commits the stage: re-applies every staged record to the current
    /// catalog head (first committer wins — a conflicting concurrent
    /// commit fails the re-apply and nothing is logged), writes them as
    /// one framed `Begin..Commit` group through the group-commit
    /// coordinator, and returns once durable. Returns the record count.
    pub(crate) fn commit(self, shared: &SharedCatalog) -> Result<usize, SqlError> {
        if self.staged.is_empty() {
            return Ok(0);
        }
        let staged = self.staged;
        shared.submit::<(), SqlError>(&staged, true, |c| {
            for record in &staged {
                kath_sql::apply_mutation(c, record, "txn_commit")?;
            }
            Ok(())
        })?;
        Ok(staged.len())
    }

    /// Discards the stage; returns how many records were dropped.
    pub(crate) fn discard(self) -> usize {
        self.staged.len()
    }
}

/// What a handle — the [`KathDB`] facade or a [`Session`] — brings to one
/// SQL statement besides its catalog and open transaction.
///
/// [`KathDB`]: crate::KathDB
pub(crate) struct SqlSettings<'a> {
    /// Each statement mints a fresh guard from this: the deadline restarts
    /// per statement, while the cancel token is the handle's shared one.
    pub limits: &'a GuardSpec,
    pub pinned_exec_mode: Option<ExecMode>,
    pub pinned_threads: Option<usize>,
    pub vector_mode: VectorMode,
}

/// The worker count `KATHDB_THREADS` pins for every handle a process makes
/// — facade and sessions alike — or `None` for the cost model's choice.
pub(crate) fn threads_from_env() -> Option<usize> {
    parse_threads(std::env::var("KATHDB_THREADS").ok().as_deref())
}

/// A positive integer pins; `0`, `auto`, anything else and unset do not.
fn parse_threads(raw: Option<&str>) -> Option<usize> {
    raw?.parse().ok().filter(|n| *n > 0)
}

/// Mode + parallelism for one statement: the handle's pins, or the cost
/// model's choice from the largest cardinality in `catalog`.
pub(crate) fn pick_strategy(
    catalog: &Catalog,
    pinned_exec_mode: Option<ExecMode>,
    pinned_threads: Option<usize>,
) -> (ExecMode, usize) {
    let max_rows = catalog
        .table_names()
        .iter()
        .filter_map(|n| catalog.get(n).ok())
        .map(|t| t.len())
        .max()
        .unwrap_or(0);
    let mode = pinned_exec_mode.unwrap_or_else(|| preferred_exec_mode(max_rows));
    let threads = pinned_threads.unwrap_or_else(|| match mode {
        ExecMode::Volcano => 1,
        batched => preferred_parallelism(max_rows, batched),
    });
    (mode, threads)
}

/// Re-arms a handle's cancel token after a statement settles, so a fired
/// token cancels exactly one statement.
pub(crate) fn rearm_cancel(limits: &GuardSpec) {
    if limits.cancel.is_cancelled() {
        limits.cancel.clear();
    }
}

/// Runs one SQL statement for a handle: the routine behind both
/// [`KathDB::sql`] and [`Session::sql`]. A SELECT executes against one
/// frozen catalog snapshot — a single version even while other sessions
/// commit — or against the open transaction's working state
/// (read-your-writes), under the strategy [`pick_strategy`] derives from
/// that same catalog. CREATE TABLE / INSERT / DROP TABLE stage when a
/// transaction is open; otherwise they autocommit: validated against a
/// snapshot, made durable through the group-commit WAL when a directory
/// is open, and only then published.
///
/// [`KathDB::sql`]: crate::KathDB::sql
pub(crate) fn run_statement(
    shared: &SharedCatalog,
    txn: &mut Option<TxnStage>,
    settings: SqlSettings<'_>,
    sql: &str,
) -> Result<Table, KathError> {
    let stmt = kath_sql::parse_statement(sql).map_err(|e| KathError::Sql(e.into()))?;
    let select = match stmt {
        Statement::Select(select) => select,
        stmt => {
            if let Some(txn) = txn {
                return Ok(txn.mutate(&stmt)?);
            }
            let snapshot = shared.snapshot();
            let record = kath_sql::plan_mutation(&snapshot, &stmt)?;
            drop(snapshot);
            let records = [record];
            return Ok(shared.submit::<Table, SqlError>(&records, false, |c| {
                kath_sql::apply_mutation(c, &records[0], "sql_result")
            })?);
        }
    };
    let snapshot;
    let catalog: &Catalog = match txn {
        Some(txn) => txn.working(),
        None => {
            snapshot = shared.snapshot();
            &snapshot
        }
    };
    let (mode, threads) =
        pick_strategy(catalog, settings.pinned_exec_mode, settings.pinned_threads);
    let result = kath_sql::run_select_auto_guarded(
        catalog,
        &select,
        "sql_result",
        mode,
        threads,
        settings.vector_mode,
        CompileMode::Off,
        &settings.limits.guard(),
    );
    rearm_cancel(settings.limits);
    let (table, _stats) = result?;
    Ok(table)
}

/// One concurrent session over a shared catalog. See the module docs.
pub struct Session {
    shared: SharedCatalog,
    /// Per-session query limits (own cancel token: cancelling this
    /// session never touches another).
    limits: GuardSpec,
    pinned_exec_mode: Option<ExecMode>,
    pinned_threads: Option<usize>,
    vector_mode: VectorMode,
    txn: Option<TxnStage>,
}

impl Session {
    pub(crate) fn new(shared: SharedCatalog) -> Self {
        shared.register_session();
        Self {
            shared,
            limits: GuardSpec::default(),
            pinned_exec_mode: None,
            pinned_threads: threads_from_env(),
            vector_mode: VectorMode::default(),
            txn: None,
        }
    }

    /// Runs one SQL statement. SELECTs read a single frozen snapshot (or
    /// the open transaction's working state); mutations autocommit
    /// durably, or stage when a transaction is open.
    pub fn sql(&mut self, sql: &str) -> Result<Table, KathError> {
        let settings = SqlSettings {
            limits: &self.limits,
            pinned_exec_mode: self.pinned_exec_mode,
            pinned_threads: self.pinned_threads,
            vector_mode: self.vector_mode,
        };
        run_statement(&self.shared, &mut self.txn, settings, sql)
    }

    /// Opens an explicit transaction (errors if one is already open).
    pub fn begin(&mut self) -> Result<(), KathError> {
        if self.txn.is_some() {
            return Err(KathError::Txn(
                "a transaction is already open (commit or rollback it first)".to_string(),
            ));
        }
        self.txn = Some(TxnStage::new(&self.shared.snapshot()));
        Ok(())
    }

    /// Commits the open transaction; returns the committed record count.
    pub fn commit(&mut self) -> Result<usize, KathError> {
        let txn = self
            .txn
            .take()
            .ok_or_else(|| KathError::Txn("no open transaction to commit".to_string()))?;
        Ok(txn.commit(&self.shared)?)
    }

    /// Discards the open transaction; returns the dropped record count.
    pub fn rollback(&mut self) -> Result<usize, KathError> {
        let txn = self
            .txn
            .take()
            .ok_or_else(|| KathError::Txn("no open transaction to roll back".to_string()))?;
        Ok(txn.discard())
    }

    /// Whether an explicit transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// The catalog version the next snapshot read would see (or the open
    /// transaction's base version).
    pub fn snapshot_version(&self) -> u64 {
        match &self.txn {
            Some(txn) => txn.base_version(),
            None => self.shared.version(),
        }
    }

    /// Fires this session's cancel token. One-shot: it re-arms after the
    /// cancelled statement returns. Other sessions are unaffected — each
    /// session owns a private token.
    pub fn cancel(&self) {
        self.limits.cancel.cancel();
    }

    /// A clonable handle to **this session's** cancel token, for firing
    /// [`Session::cancel`] from another thread while a query runs.
    /// Firing it never cancels any other session's statement.
    pub fn cancel_handle(&self) -> CancelToken {
        self.limits.cancel.clone()
    }

    /// Sets (or clears) this session's per-query wall-clock timeout.
    pub fn set_query_timeout(&mut self, timeout: Option<std::time::Duration>) {
        self.limits.timeout = timeout;
    }

    /// Sets (or clears) this session's per-query output budgets.
    pub fn set_query_budget(&mut self, rows: Option<u64>, bytes: Option<u64>) {
        self.limits.row_budget = rows;
        self.limits.byte_budget = bytes;
    }

    /// Pins this session's execution mode.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.pinned_exec_mode = Some(mode);
    }

    /// Reverts this session to cost-model mode selection.
    pub fn auto_exec_mode(&mut self) {
        self.pinned_exec_mode = None;
    }

    /// Pins this session's degree of parallelism.
    pub fn set_parallelism(&mut self, n: usize) {
        self.pinned_threads = Some(n.max(1));
    }

    /// Sets this session's vector access-path policy.
    pub fn set_vector_mode(&mut self, mode: VectorMode) {
        self.vector_mode = mode;
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
