//! Concurrent catalog sharing: MVCC snapshots over a group-commit WAL.
//!
//! [`SharedCatalog`] is the concurrency kernel of the engine. It holds the
//! catalog as an immutable, Arc-shared [`CatalogRef`] version chain:
//! readers take an O(1) [`SharedCatalog::snapshot`] and run entire queries
//! against that frozen version while writers publish new versions —
//! copy-on-write at the catalog level (a shallow [`Catalog::clone`]: table
//! `Arc`s, never row data and no lock), never in place. A published version
//! is never written through: what readers derive from a table (its vector
//! indexes) lives on the shared, immutable [`Table`] value, not in the
//! catalog. Writers serialize on a commit mutex;
//! durability is amortized by a group-commit protocol:
//!
//! 1. Under the commit lock, a committer applies its records to a clone of
//!    the *logical head* (the newest version, durable or not), appends the
//!    records to the WAL **without fsyncing** (framed in
//!    `Begin..Commit` for multi-statement transactions, bare for
//!    autocommits), and queues the new version on the pending list keyed
//!    by its end LSN.
//! 2. The first committer to find no fsync in flight becomes the *leader*:
//!    it captures the current WAL tail, releases the lock, fsyncs, then
//!    relocks and advances the durable LSN to the captured tail — one
//!    fsync acknowledges every transaction that appended while the
//!    previous fsync ran. Followers wait on a condvar until a leader takes
//!    their version off the pending list: published, or dropped by a
//!    failed fsync.
//! 3. Only then does a pending version become the *published* snapshot
//!    ([`SharedCatalog::snapshot`]): readers never observe effects of a
//!    commit that has not been acknowledged as durable, so an
//!    acknowledged-read is never lost by a crash.
//!
//! On fsync failure the leader rolls back: pending versions are dropped,
//! the logical head returns to the last published version, and the WAL
//! tail rewinds over the unacknowledged bytes, so a later commit
//! overwrites them — the failure poisons nothing.
//!
//! A [`Scheduler`] (none in production) is called at each [`Pause`], all
//! reached with no declared lock held, and told each [`VersionEvent`]: the
//! session simulator (`tests/session_schedules.rs`) runs on it.

use crate::catalog::Catalog;
use crate::durable::{Durability, DurabilityStatus};
use crate::pool::BufferPool;
use crate::table::Table;
use crate::wal::{sync_segment, WalRecord};
use crate::StorageError;
use std::collections::{HashSet, VecDeque};
use std::convert::Infallible;
use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Where a [`Scheduler`] may pass the turn to another thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pause {
    /// Before the commit lock is taken.
    Lock,
    /// A group-commit leader, unlocked, before its fsync.
    Sync,
    /// A durable-LSN or drain wait: unlock, pause, relock, recheck.
    Wait,
    /// Before [`SharedCatalog::snapshot`] reads the published version.
    Snapshot,
}

/// What happened to a catalog version (told under the commit lock).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VersionEvent {
    /// The version became the logical head.
    Install(u64),
    /// The version became what [`SharedCatalog::snapshot`] hands out.
    Publish(u64),
    /// A failed group fsync dropped the unpublished version.
    Rollback(u64),
    /// [`SharedCatalog::snapshot`] handed out the version.
    Read(u64),
}

/// The scheduler seam, installed with [`SharedCatalog::set_scheduler`].
pub trait Scheduler: Send + Sync {
    /// Called at each [`Pause`]; may block until the thread's next turn.
    fn pause(&self, at: Pause);
    /// Called at each [`VersionEvent`]; must not block.
    fn record(&self, event: VersionEvent);
}

/// One immutable catalog version. Cloning is O(1) (an `Arc` bump + a
/// counter); the catalog behind it is never mutated — writers publish a
/// *new* version instead. Dereferences to [`Catalog`], so every read-path
/// API works on a snapshot unchanged.
#[derive(Debug, Clone)]
pub struct CatalogRef {
    version: u64,
    inner: Arc<Catalog>,
}

impl CatalogRef {
    /// The version number. Each names one catalog: a rolled-back version's
    /// number is never reused, so published versions may skip numbers.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The catalog this version freezes.
    pub fn catalog(&self) -> &Catalog {
        &self.inner
    }
}

impl Deref for CatalogRef {
    type Target = Catalog;
    fn deref(&self) -> &Catalog {
        &self.inner
    }
}

/// Commit-side state, all behind one mutex (the commit lock).
struct CommitState {
    /// The logical head: newest version, including not-yet-durable
    /// commits. New commits apply on top of this; it is published to
    /// readers only once durable.
    head: CatalogRef,
    /// Committed-but-not-yet-durable versions, in append order, keyed by
    /// the WAL tail offset after their records (their end LSN).
    pending: VecDeque<(u64, CatalogRef)>,
    /// The durable directory, when attached.
    dur: Option<Durability>,
    /// WAL offset up to which data is known fsynced.
    durable_lsn: u64,
    /// Record count matching `durable_lsn` (for rewind on fsync failure).
    durable_records: u64,
    /// Whether a leader is fsyncing outside the lock right now.
    syncing: bool,
    /// Versions a failed fsync dropped, until each committer takes its own
    /// out (a rewound WAL reuses offsets, so LSNs cannot tell).
    dropped: HashSet<u64>,
    /// Next transaction id for `Begin..Commit` framing.
    next_txid: u64,
    /// The highest version number made so far (a rollback keeps it).
    last_version: u64,
    /// When false, every commit fsyncs individually under the commit lock
    /// (the per-statement baseline `txn_bench` compares against).
    group_commit: bool,
    /// Fsyncs issued by commit leaders.
    group_fsyncs: u64,
    /// Commits those fsyncs acknowledged (mean group size =
    /// `group_commits / group_fsyncs`).
    group_commits: u64,
}

impl CommitState {
    /// The attached durable directory, or the typed error a commit or a
    /// checkpoint reports when there is none (any more).
    fn attached(&mut self) -> Result<&mut Durability, StorageError> {
        self.dur
            .as_mut()
            .ok_or_else(|| StorageError::Io("no durable directory attached".to_string()))
    }
}

struct SharedInner {
    /// The published version: what [`SharedCatalog::snapshot`] hands out.
    /// Behind its own lock so readers never touch the commit mutex.
    current: parking_lot::RwLock<CatalogRef>,
    commit: Mutex<CommitState>,
    cv: Condvar,
    sessions: AtomicUsize,
    sched: OnceLock<Arc<dyn Scheduler>>,
}

/// A handle to the shared, versioned catalog. Clones are cheap and all
/// refer to the same state; the handle is `Send + Sync`, so sessions on
/// different threads read and commit concurrently.
#[derive(Clone)]
pub struct SharedCatalog {
    inner: Arc<SharedInner>,
}

impl std::fmt::Debug for SharedCatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("SharedCatalog")
            .field("version", &snap.version())
            .field("tables", &snap.len())
            .finish()
    }
}

impl Default for SharedCatalog {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedCatalog {
    /// An empty shared catalog (version 1, no durable directory).
    pub fn new() -> Self {
        Self::from_catalog(Catalog::new())
    }

    /// Wraps an existing catalog as version 1.
    pub fn from_catalog(catalog: Catalog) -> Self {
        let head = CatalogRef {
            version: 1,
            inner: Arc::new(catalog),
        };
        SharedCatalog {
            inner: Arc::new(SharedInner {
                current: parking_lot::RwLock::new(head.clone()),
                commit: Mutex::new(CommitState {
                    head,
                    pending: VecDeque::new(),
                    dur: None,
                    durable_lsn: 0,
                    durable_records: 0,
                    syncing: false,
                    dropped: HashSet::new(),
                    next_txid: 1,
                    last_version: 1,
                    group_commit: true,
                    group_fsyncs: 0,
                    group_commits: 0,
                }),
                cv: Condvar::new(),
                sessions: AtomicUsize::new(0),
                sched: OnceLock::new(),
            }),
        }
    }

    /// An *independent* shared catalog seeded from the current snapshot
    /// (shallow clone — rows stay Arc-shared). Mutations on the fork are
    /// invisible here and vice versa; the optimizer uses this to trial
    /// candidate plans against sampled state without touching the live
    /// version chain.
    pub fn fork(&self) -> SharedCatalog {
        Self::from_catalog((*self.snapshot().inner).clone())
    }

    /// The published catalog version: an O(1) frozen snapshot containing
    /// every acknowledged commit and nothing else — the one read path. A
    /// reader holds one `CatalogRef` for all it reads, so it never
    /// observes a torn update.
    pub fn snapshot(&self) -> CatalogRef {
        let Some(sched) = self.inner.sched.get() else {
            return self.inner.current.read().clone();
        };
        sched.pause(Pause::Snapshot);
        let snap = self.inner.current.read().clone();
        sched.record(VersionEvent::Read(snap.version));
        snap
    }

    /// The buffer pool shared by every version of this catalog.
    pub fn pool(&self) -> Arc<BufferPool> {
        Arc::clone(self.inner.current.read().pool())
    }

    /// Installs the scheduler of every clone of this handle (write once).
    pub fn set_scheduler(&self, sched: Arc<dyn Scheduler>) -> Result<(), Arc<dyn Scheduler>> {
        self.inner.sched.set(sched)
    }

    fn pause(&self, at: Pause) {
        if let Some(sched) = self.inner.sched.get() {
            sched.pause(at);
        }
    }

    fn record(&self, event: VersionEvent) {
        if let Some(sched) = self.inner.sched.get() {
            sched.record(event);
        }
    }

    // ---- commit path ------------------------------------------------------

    /// Pauses at `at`, then locks the commit mutex, recovering from a
    /// poisoned lock (a panic in an apply closure must not wedge every
    /// other session — the state transitions below are crash-consistent).
    fn lock(&self, at: Pause) -> MutexGuard<'_, CommitState> {
        self.pause(at);
        self.inner
            .commit
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Locks the commit mutex once `ready` holds. Under a scheduler a
    /// waiter unlocks, pauses and relocks instead of sleeping on the
    /// condvar, so no thread sleeps holding the turn.
    fn lock_when(&self, ready: impl Fn(&CommitState) -> bool) -> MutexGuard<'_, CommitState> {
        let mut at = Pause::Lock;
        loop {
            let mut st = self.lock(at);
            while self.inner.sched.get().is_none() && !ready(&st) {
                st = self.inner.cv.wait(st).unwrap_or_else(|p| p.into_inner());
            }
            if ready(&st) {
                return st;
            }
            at = Pause::Wait; // `st` drops: unlock, pause, relock, recheck
        }
    }

    /// Locks the commit mutex once no fsync is in flight and no version is
    /// pending (used by non-logged publishes and checkpoints, which must
    /// build on fully acknowledged state).
    fn lock_drained(&self) -> MutexGuard<'_, CommitState> {
        self.lock_when(|st| !st.syncing && st.pending.is_empty())
    }

    /// The one place a new version is made: `catalog` becomes the logical
    /// head, and either waits on the pending list for the group fsync that
    /// covers `end_lsn` or — with nothing to make durable — is published
    /// to readers at once.
    fn install(&self, st: &mut CommitState, catalog: Catalog, end_lsn: Option<u64>) {
        st.last_version += 1;
        let next = CatalogRef {
            version: st.last_version,
            inner: Arc::new(catalog),
        };
        self.record(VersionEvent::Install(next.version));
        st.head = next.clone();
        match end_lsn {
            Some(lsn) => st.pending.push_back((lsn, next)),
            None => self.publish_version(next),
        }
    }

    fn publish_version(&self, version: CatalogRef) {
        self.record(VersionEvent::Publish(version.version));
        *self.inner.current.write() = version;
    }

    /// Applies `f` to a copy of the head of a drained `st` and publishes
    /// the result; on `Err` the copy is discarded and nothing changes.
    fn publish_on<T, E>(
        &self,
        st: &mut CommitState,
        f: impl FnOnce(&mut Catalog) -> Result<T, E>,
    ) -> Result<T, E> {
        let mut work = (*st.head.inner).clone();
        let out = f(&mut work)?;
        self.install(st, work, None);
        Ok(out)
    }

    /// Commits `records` atomically: applies them to a copy of the logical
    /// head via `apply`, appends them to the WAL (framed in
    /// `Begin..Commit` when `framed`, bare otherwise), and returns once
    /// the commit is *durable* and published to readers. With no durable
    /// directory attached the new version publishes immediately.
    ///
    /// If `apply` fails nothing is logged or published. If the group fsync
    /// fails the commit reports the error and the engine state is as if it
    /// never happened (WAL rewound, head rolled back).
    pub fn submit<T, E>(
        &self,
        records: &[WalRecord],
        framed: bool,
        apply: impl FnOnce(&mut Catalog) -> Result<T, E>,
    ) -> Result<T, E>
    where
        E: From<StorageError>,
    {
        // With nothing to make durable, wait out any in-flight group (a new
        // version must not expose unacknowledged effects), then apply and
        // publish immediately.
        let logged = |st: &CommitState| !records.is_empty() && st.dur.is_some();
        let mut st = self.lock_when(|st| logged(st) || (!st.syncing && st.pending.is_empty()));
        if !logged(&st) {
            return self.publish_on(&mut st, apply);
        }

        // Apply against the logical head first: a conflicting or invalid
        // record fails here, before anything touches the log.
        let mut work = (*st.head.inner).clone();
        let out = apply(&mut work)?;

        // Append (no fsync yet). A transaction's frames go down as one
        // contiguous write so a crash can never interleave two
        // transactions' frames.
        let txid = st.next_txid;
        let dur = st.attached()?;
        let append = if framed {
            let begin = WalRecord::Begin(txid);
            let commit = WalRecord::Commit(txid);
            dur.log_batch_nosync(
                std::iter::once(&begin)
                    .chain(records.iter())
                    .chain(std::iter::once(&commit)),
            )
        } else {
            dur.log_batch_nosync(records.iter())
        };
        let end_lsn = append?;
        if framed {
            st.next_txid += 1;
        }
        self.install(&mut st, work, Some(end_lsn));
        let mine = st.last_version;

        if !st.group_commit {
            // Per-statement durability: fsync under the lock. This is the
            // baseline group commit is measured against.
            let synced = st.attached().and_then(|dur| {
                dur.sync_wal()?;
                Ok(dur.wal_record_count())
            });
            return match synced {
                Ok(records_now) => {
                    self.advance_durable(&mut st, end_lsn, records_now);
                    self.inner.cv.notify_all();
                    Ok(out)
                }
                Err(e) => {
                    self.fail_pending(&mut st, mine);
                    self.inner.cv.notify_all();
                    Err(e.into())
                }
            };
        }

        // Group commit: wait until a leader's fsync takes our version off
        // the pending list, or become the leader.
        let pending = |st: &CommitState| st.pending.front().is_some_and(|(_, v)| v.version <= mine);
        loop {
            if !pending(&st) {
                if st.dropped.remove(&mine) {
                    return Err(StorageError::Io(
                        "group commit fsync failed; transaction rolled back".to_string(),
                    )
                    .into());
                }
                return Ok(out);
            }
            if !st.syncing {
                // Leader: capture the tail, fsync *outside* the lock so
                // other committers keep appending meanwhile — that overlap
                // is what batches their commits into the next fsync.
                let dur = st.attached()?;
                let target_lsn = dur.wal_tail();
                let target_records = dur.wal_record_count();
                let (io, path, retry) = dur.wal_sync_handles();
                st.syncing = true;
                drop(st);
                self.pause(Pause::Sync);
                let res = sync_segment(&io, &path, &retry);
                st = self.lock(Pause::Lock);
                st.syncing = false;
                match res {
                    Ok(()) => {
                        self.advance_durable(&mut st, target_lsn, target_records);
                        self.inner.cv.notify_all();
                        // Loop: our version is published now.
                    }
                    Err(e) => {
                        self.fail_pending(&mut st, mine);
                        self.inner.cv.notify_all();
                        return Err(e.into());
                    }
                }
            } else {
                drop(st);
                st = self.lock_when(|st| !st.syncing || !pending(st));
            }
        }
    }

    /// Marks everything up to `lsn` durable and publishes the newest
    /// pending version it covers.
    fn advance_durable(&self, st: &mut CommitState, lsn: u64, records: u64) {
        st.durable_lsn = st.durable_lsn.max(lsn);
        st.durable_records = st.durable_records.max(records);
        let mut published = None;
        let mut acked = 0u64;
        while st
            .pending
            .front()
            .is_some_and(|(end, _)| *end <= st.durable_lsn)
        {
            published = st.pending.pop_front().map(|(_, v)| v);
            acked += 1;
        }
        if let Some(v) = published {
            self.publish_version(v);
        }
        st.group_fsyncs += 1;
        st.group_commits += acked;
    }

    /// Rolls back after a failed fsync: unacknowledged versions are
    /// dropped (the failing committer's own, `mine`, reports the error
    /// itself), the head returns to the published version, and the WAL
    /// tail rewinds over the unacknowledged bytes.
    fn fail_pending(&self, st: &mut CommitState, mine: u64) {
        for (_, v) in std::mem::take(&mut st.pending) {
            self.record(VersionEvent::Rollback(v.version));
            if v.version != mine {
                st.dropped.insert(v.version);
            }
        }
        st.head = self.inner.current.read().clone();
        let (lsn, records) = (st.durable_lsn, st.durable_records);
        if let Some(dur) = st.dur.as_mut() {
            dur.rewind_wal(lsn, records);
        }
    }

    /// Publishes an infallible non-logged mutation (materializations —
    /// state that is derivable and therefore not write-ahead logged) as a
    /// new version.
    pub fn publish<T>(&self, f: impl FnOnce(&mut Catalog) -> T) -> T {
        match self.try_publish(|c| Ok::<T, Infallible>(f(c))) {
            Ok(out) => out,
            Err(never) => match never {},
        }
    }

    /// [`SharedCatalog::publish`] for fallible mutations: on `Err` the
    /// working copy is discarded and no version is published.
    pub fn try_publish<T, E>(&self, f: impl FnOnce(&mut Catalog) -> Result<T, E>) -> Result<T, E> {
        self.publish_on(&mut self.lock_drained(), f)
    }

    // ---- durability management -------------------------------------------

    /// Detaches and returns the durable directory, if any. Waits for
    /// in-flight commits to drain first.
    pub fn detach(&self) -> Option<Durability> {
        let mut st = self.lock_drained();
        st.durable_lsn = 0;
        st.durable_records = 0;
        st.dur.take()
    }

    /// Records appended to the active WAL segment since open or the last
    /// checkpoint (0 when not durable).
    pub fn wal_appended(&self) -> u64 {
        self.lock(Pause::Lock)
            .dur
            .as_ref()
            .map(|d| d.appended_records())
            .unwrap_or(0)
    }

    /// Durability status with live group-commit counters filled in.
    pub fn status(&self) -> Option<DurabilityStatus> {
        let st = self.lock(Pause::Lock);
        st.dur.as_ref().map(|d| {
            let mut s = d.status();
            s.group_fsyncs = st.group_fsyncs;
            s.group_commits = st.group_commits;
            s
        })
    }

    /// Replaces the entire state with a recovered catalog + its durable
    /// directory (the tail end of `KathDB::open_dir`): later commits are
    /// write-ahead logged through it, with txids above `recovered_max_txid`.
    pub fn install_recovered(&self, catalog: Catalog, dur: Durability, recovered_max_txid: u64) {
        let mut st = self.lock_drained();
        self.install(&mut st, catalog, None);
        st.durable_lsn = dur.wal_tail();
        st.durable_records = dur.wal_record_count();
        st.next_txid = recovered_max_txid + 1;
        st.group_fsyncs = 0;
        st.group_commits = 0;
        st.dur = Some(dur);
    }

    /// Checkpoints the published state through the attached durable
    /// directory: waits for in-flight commits to drain, snapshots every
    /// table, rotates the WAL, and publishes the paged table
    /// representations the checkpoint produced. Returns the new epoch.
    pub fn checkpoint(&self, functions_json: Option<&str>) -> Result<u64, StorageError> {
        let mut st = self.lock_drained();
        let head = st.head.clone();
        let tables: Vec<Arc<Table>> = head
            .table_names()
            .iter()
            .filter_map(|n| head.get(n).ok())
            .collect();
        let pool = Arc::clone(head.pool());
        let dur = st.attached()?;
        let (epoch, paged) = dur.checkpoint(&tables, &pool, functions_json)?;
        // The WAL rotated: the new segment starts empty and durable.
        let (tail, record_count) = (dur.wal_tail(), dur.wal_record_count());
        st.durable_lsn = tail;
        st.durable_records = record_count;
        // Publish the paged representations: the same rows, so each shares
        // the derived state of the table it replaces.
        let mut work = (*st.head.inner).clone();
        for t in paged {
            work.register_or_replace(t);
        }
        self.install(&mut st, work, None);
        Ok(epoch)
    }

    /// Switches between group commit (default) and per-statement fsync.
    pub fn set_group_commit(&self, on: bool) {
        self.lock_drained().group_commit = on;
    }

    /// Whether group commit is enabled.
    pub fn group_commit(&self) -> bool {
        self.lock(Pause::Lock).group_commit
    }

    // ---- session accounting ----------------------------------------------

    /// Registers a session handle; returns the new count.
    pub fn register_session(&self) -> usize {
        self.inner.sessions.fetch_add(1, Ordering::Relaxed) + 1 // lint: relaxed-ok — session bookkeeping for diagnostics; commit safety rests on the commit mutex
    }

    /// Unregisters a session handle.
    pub fn unregister_session(&self) {
        self.inner.sessions.fetch_sub(1, Ordering::Relaxed); // lint: relaxed-ok — session bookkeeping for diagnostics; commit safety rests on the commit mutex
    }

    /// Live session handles (excluding the owning facade).
    pub fn session_count(&self) -> usize {
        self.inner.sessions.load(Ordering::Relaxed) // lint: relaxed-ok — session bookkeeping for diagnostics; commit safety rests on the commit mutex
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataType, Schema, Value};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kathdb_txn_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn kv(rows: &[(i64, &str)]) -> Table {
        Table::from_rows(
            "kv",
            Schema::of(&[("k", DataType::Int), ("v", DataType::Str)]),
            rows.iter()
                .map(|(k, v)| vec![Value::Int(*k), Value::Str(v.to_string())])
                .collect(),
        )
        .unwrap()
    }

    fn insert(k: i64, v: &str) -> WalRecord {
        WalRecord::Insert {
            table: "kv".into(),
            rows: vec![vec![k.into(), v.into()]],
        }
    }

    /// Commits `records` through [`Catalog::apply`], as replay applies them.
    fn commit(
        shared: &SharedCatalog,
        records: &[WalRecord],
        framed: bool,
    ) -> Result<(), StorageError> {
        shared.submit(records, framed, |c| {
            records.iter().try_for_each(|r| c.apply(r))
        })
    }

    fn create_kv() -> WalRecord {
        WalRecord::CreateTable {
            name: "kv".into(),
            schema: kv(&[]).schema().clone(),
        }
    }

    #[test]
    fn snapshots_are_frozen_versions() {
        let shared = SharedCatalog::new();
        shared.try_publish(|c| c.register(kv(&[(1, "a")]))).unwrap();
        let snap = shared.snapshot();
        assert_eq!(snap.get("kv").unwrap().len(), 1);
        // A later publish is invisible to the held snapshot…
        shared
            .submit::<(), StorageError>(&[], false, |c| c.apply(&insert(2, "b")))
            .unwrap();
        assert_eq!(snap.get("kv").unwrap().len(), 1);
        // …and visible to a fresh one, under a higher version.
        let newer = shared.snapshot();
        assert_eq!(newer.get("kv").unwrap().len(), 2);
        assert!(newer.version() > snap.version());
    }

    #[test]
    fn snapshot_creation_shares_row_storage() {
        // Satellite regression: a snapshot of a 100k-row table must not
        // copy row data — the table Arc in the snapshot is the *same
        // allocation* as the one in the live catalog.
        let rows: Vec<(i64, String)> = (0..100_000).map(|i| (i, format!("row-{i}"))).collect();
        let refs: Vec<(i64, &str)> = rows.iter().map(|(k, v)| (*k, v.as_str())).collect();
        let shared = SharedCatalog::new();
        let live = shared.try_publish(|c| c.register(kv(&refs))).unwrap();
        assert_eq!(live.len(), 100_000);
        let snap = shared.snapshot();
        assert!(
            Arc::ptr_eq(&live, &snap.get("kv").unwrap()),
            "snapshot must share the table allocation, not copy rows"
        );
        // And taking many snapshots is O(1) each — same allocation every
        // time, no matter how many versions exist.
        for _ in 0..100 {
            assert!(Arc::ptr_eq(&live, &shared.snapshot().get("kv").unwrap()));
        }
    }

    #[test]
    fn failed_apply_publishes_nothing() {
        let shared = SharedCatalog::new();
        shared.try_publish(|c| c.register(kv(&[(1, "a")]))).unwrap();
        let v = shared.snapshot().version();
        let err = shared.submit::<(), StorageError>(&[insert(1, "x")], false, |_c| {
            Err(StorageError::UnknownTable("boom".into()))
        });
        assert!(err.is_err());
        assert_eq!(
            shared.snapshot().version(),
            v,
            "failed apply must not publish"
        );
        assert_eq!(shared.snapshot().get("kv").unwrap().len(), 1);
    }

    #[test]
    fn durable_commits_are_published_and_replayable() {
        let dir = tmp("durable");
        let pool = Arc::new(BufferPool::with_budget(64));
        let shared = SharedCatalog::new();
        let (dur, rec) = Durability::open(&dir, &pool).unwrap();
        assert_eq!(rec.max_txid, 0);
        shared.install_recovered(Catalog::new(), dur, rec.max_txid);
        let create = create_kv();
        commit(&shared, std::slice::from_ref(&create), false).unwrap();
        // A framed two-record transaction.
        let recs = [insert(1, "a"), insert(2, "b")];
        commit(&shared, &recs, true).unwrap();
        assert_eq!(shared.snapshot().get("kv").unwrap().len(), 2);
        let status = shared.status().unwrap();
        assert!(status.group_fsyncs >= 1);
        assert!(status.group_commits >= 1);
        // 1 bare + Begin + 2 inserts + Commit = 5 records on disk.
        assert_eq!(status.wal_records, 5);
        drop(shared);
        // Recovery replays the bare record and the committed span.
        let (_, rec) = Durability::open(&dir, &pool).unwrap();
        assert_eq!(rec.wal_records.len(), 3);
        assert_eq!(rec.committed_txns, 1);
        assert_eq!(rec.max_txid, 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn concurrent_writers_group_their_fsyncs() {
        let dir = tmp("group");
        let pool = Arc::new(BufferPool::with_budget(64));
        let shared = SharedCatalog::new();
        let (dur, rec) = Durability::open(&dir, &pool).unwrap();
        shared.install_recovered(Catalog::new(), dur, rec.max_txid);
        let create = create_kv();
        commit(&shared, std::slice::from_ref(&create), false).unwrap();
        let writers = 8;
        let per_writer = 10;
        let handles: Vec<_> = (0..writers)
            .map(|w| {
                let shared = shared.clone();
                std::thread::spawn(move || {
                    for i in 0..per_writer {
                        let r = insert((w * per_writer + i) as i64, "x");
                        commit(&shared, std::slice::from_ref(&r), true).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            shared.snapshot().get("kv").unwrap().len(),
            writers * per_writer
        );
        let status = shared.status().unwrap();
        let commits = (writers * per_writer) as u64 + 1;
        assert_eq!(status.group_commits, commits);
        assert!(
            status.group_fsyncs <= commits,
            "leader fsyncs must not exceed commits ({} vs {commits})",
            status.group_fsyncs
        );
        drop(shared);
        let (_, rec) = Durability::open(&dir, &pool).unwrap();
        assert_eq!(rec.committed_txns, (writers * per_writer) as u64);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn forks_are_independent() {
        let shared = SharedCatalog::new();
        shared.try_publish(|c| c.register(kv(&[(1, "a")]))).unwrap();
        let fork = shared.fork();
        fork.publish(|c| c.register_or_replace(kv(&[(1, "a"), (2, "b")])));
        assert_eq!(fork.snapshot().get("kv").unwrap().len(), 2);
        assert_eq!(
            shared.snapshot().get("kv").unwrap().len(),
            1,
            "fork must not leak"
        );
    }

    #[test]
    fn session_counter_tracks_handles() {
        let shared = SharedCatalog::new();
        assert_eq!(shared.session_count(), 0);
        assert_eq!(shared.register_session(), 1);
        assert_eq!(shared.register_session(), 2);
        shared.unregister_session();
        assert_eq!(shared.session_count(), 1);
    }

    #[test]
    fn shared_catalog_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedCatalog>();
        assert_send_sync::<CatalogRef>();
    }
}
