//! Durable storage: incremental checkpoints + WAL segments + crash recovery.
//!
//! On-disk layout of a durable database directory:
//!
//! ```text
//! <dir>/
//!   wal/
//!     000000.log      # records logged before the first checkpoint
//!     000001.log      # records logged after snapshot 000001, …
//!   pages/
//!     <crc><fnv>.kpg  # content-addressed compressed column pages,
//!                     # shared by every snapshot that references them
//!   snapshots/
//!     000001/
//!       MANIFEST      # file list + sizes + CRC32s, self-checksummed
//!       t0.kmeta …    # per-table page descriptors (schema + page list)
//!       functions.json
//! ```
//!
//! Checkpoint `N` seals every table — the rows inserted since the last
//! checkpoint (the table's tail) plus its short last page are encoded, every
//! full page is shared as it is — and writes only the pages whose
//! content-addressed file does not already exist. Unchanged pages from
//! earlier checkpoints are referenced, not rewritten or even re-encoded,
//! which makes checkpoints incremental: after a small INSERT only the last
//! page of each column hits disk. The per-snapshot `tN.kmeta`
//! descriptors and the self-checksummed manifest then commit atomically
//! via temp-dir rename, the WAL rotates to segment `N`, state older than
//! `N-1` is pruned, and pages no retained snapshot references are swept.
//!
//! Recovery loads the newest snapshot whose manifest, descriptors, and
//! referenced page files all verify (falling back to the previous retained
//! snapshot otherwise), builds file-backed paged tables — pages stay on
//! disk until first touch — and replays every WAL segment from that epoch
//! onward, tolerating a torn final record.

use crate::io::{parent_dir, sync_dir, with_retry, Io, RetryPolicy};
use crate::page::ZoneMap;
use crate::paged::{write_durable, PageSlot};
use crate::persist::{get_schema, get_str, put_schema, put_str};
use crate::pool::BufferPool;
use crate::wal::{crc32, filter_committed, Wal, WalRecord};
use crate::{Schema, StorageError, Table, DEFAULT_PAGE_ROWS};
use bytes::{Buf, BufMut, BytesMut};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MANIFEST_MAGIC: &str = "KSNAP 1";
const KMETA_MAGIC: &[u8; 4] = b"KPGM";
const KMETA_VERSION: u8 = 1;

/// What [`Durability::open`] reconstructed from disk.
#[derive(Debug)]
pub struct Recovered {
    /// Tables of the newest valid snapshot (empty for a fresh directory).
    /// Checkpointed tables come back *paged* — column pages stay on disk
    /// until first touch.
    pub tables: Vec<Table>,
    /// The function-registry payload persisted with that snapshot.
    pub functions_json: Option<String>,
    /// WAL records logged after the snapshot, in commit order, already
    /// filtered to the committed view: bare (autocommitted) records plus
    /// the contents of `Begin..Commit` spans; aborted and crash-torn open
    /// transactions are discarded. The caller replays them on top of
    /// `tables` through [`crate::Catalog::apply`].
    pub wal_records: Vec<WalRecord>,
    /// Epoch of the snapshot that was loaded (0 = started empty).
    pub snapshot_epoch: u64,
    /// Highest transaction id seen in the log (0 when none): the txid
    /// allocator resumes above this.
    pub max_txid: u64,
    /// Framed transactions whose commit marker was found and replayed.
    pub committed_txns: u64,
    /// Framed transactions discarded (aborted or torn open at the tail).
    pub discarded_txns: u64,
}

/// What one checkpoint wrote (and avoided writing), for `\wal` and
/// the incremental-checkpoint regression tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointStats {
    /// The snapshot epoch this checkpoint created.
    pub epoch: u64,
    /// Tables included.
    pub tables: usize,
    /// Pages newly written (dirty pages).
    pub pages_written: usize,
    /// Pages already durable from earlier checkpoints (clean pages).
    pub pages_reused: usize,
    /// Bytes of page data written this checkpoint.
    pub bytes_written: u64,
    /// Total bytes of page data the snapshot references.
    pub bytes_total: u64,
}

/// Point-in-time status of a durable directory, for the REPL's `\wal`.
#[derive(Debug, Clone, PartialEq)]
pub struct DurabilityStatus {
    /// The database directory.
    pub dir: PathBuf,
    /// Newest snapshot epoch (0 before the first checkpoint).
    pub snapshot_epoch: u64,
    /// Complete records in the active segment (replayed + appended).
    pub wal_records: u64,
    /// Valid bytes in the active segment.
    pub wal_bytes: u64,
    /// What the most recent checkpoint of this session wrote (None before
    /// the first checkpoint).
    pub last_checkpoint: Option<CheckpointStats>,
    /// Batched fsyncs the group-commit coordinator issued (0 when the
    /// database is driven through the plain single-caller path).
    pub group_fsyncs: u64,
    /// Commits acknowledged by those batched fsyncs; `group_commits /
    /// group_fsyncs` is the mean group size.
    pub group_commits: u64,
}

/// The durability coordinator: owns the active WAL segment and writes
/// checkpoints. One instance per open database directory.
#[derive(Debug)]
pub struct Durability {
    dir: PathBuf,
    io: Io,
    /// Newest snapshot epoch == index of the active WAL segment.
    epoch: u64,
    wal: Wal,
    last_checkpoint: Option<CheckpointStats>,
    /// Set when WAL rotation failed after a committed checkpoint: the old
    /// segment is behind the new snapshot's replay horizon, so appending
    /// there would acknowledge records recovery can never see. All further
    /// logging refuses until the database is reopened.
    poisoned: bool,
}

fn epoch_name(e: u64) -> String {
    format!("{e:06}")
}

fn segment_path(dir: &Path, e: u64) -> PathBuf {
    dir.join("wal").join(format!("{}.log", epoch_name(e)))
}

fn snapshot_dir(dir: &Path, e: u64) -> PathBuf {
    dir.join("snapshots").join(epoch_name(e))
}

fn pages_dir(dir: &Path) -> PathBuf {
    dir.join("pages")
}

/// Numeric entries (dirs or `.log` files) under `path`, ascending.
fn list_epochs(io: &Io, path: &Path, strip_log: bool) -> Result<Vec<u64>, StorageError> {
    let mut out = Vec::new();
    let entries = match io.read_dir(path) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e.into()),
    };
    for path in entries {
        let Some(name) = path.file_name() else {
            continue;
        };
        let name = name.to_string_lossy();
        let stem = if strip_log {
            match name.strip_suffix(".log") {
                Some(s) => s,
                None => continue,
            }
        } else {
            name.as_ref()
        };
        if let Ok(e) = stem.parse::<u64>() {
            out.push(e);
        }
    }
    out.sort_unstable();
    Ok(out)
}

impl Durability {
    /// Opens a durable directory, creating it if absent, and recovers:
    /// newest valid snapshot + replay of every WAL segment from that epoch
    /// onward. Falls back to the previous retained snapshot (or, before
    /// any pruning, to the empty epoch-0 state) when the newest snapshot
    /// fails verification; errors with [`StorageError::Corrupt`] only when
    /// no retained state verifies. Recovered paged tables read their pages
    /// through `pool`.
    pub fn open(dir: &Path, pool: &Arc<BufferPool>) -> Result<(Self, Recovered), StorageError> {
        let io = pool.io().clone();
        io.create_dir_all(&dir.join("wal"))?;
        io.create_dir_all(&dir.join("snapshots"))?;
        io.create_dir_all(&pages_dir(dir))?;
        // The three entries, and the directory's own entry in its parent,
        // must survive power loss before anything is logged under them.
        sync_dir(&io, dir)?;
        sync_dir(&io, parent_dir(dir))?;
        // Clear interrupted checkpoint attempts.
        for path in io.read_dir(&dir.join("snapshots"))? {
            let is_tmp = path
                .file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with(".tmp-"));
            if is_tmp {
                let _ = io.remove_dir_all(&path);
            }
        }

        let snaps = list_epochs(&io, &dir.join("snapshots"), false)?;
        let segments = list_epochs(&io, &dir.join("wal"), true)?;
        let max_epoch = snaps
            .iter()
            .chain(segments.iter())
            .copied()
            .max()
            .unwrap_or(0);

        // Candidate start states, newest first; epoch 0 (empty) is only
        // reachable while segment 0 is still retained or nothing exists.
        let mut candidates: Vec<u64> = snaps.iter().rev().copied().collect();
        if snaps.is_empty() || segments.first() == Some(&0) {
            candidates.push(0);
        }

        let mut first_error: Option<StorageError> = None;
        for candidate in candidates {
            // Every rotated-out segment in [candidate, max_epoch) must be
            // present — a pruned segment means this start state can no
            // longer reach the present.
            let chain_ok = (candidate..max_epoch).all(|e| segments.binary_search(&e).is_ok());
            if !chain_ok {
                continue;
            }
            let loaded = if candidate == 0 {
                Ok((Vec::new(), None))
            } else {
                load_snapshot(&io, dir, candidate, pool)
            };
            let (tables, functions_json) = match loaded {
                Ok(state) => state,
                Err(e) => {
                    first_error.get_or_insert(e);
                    continue;
                }
            };
            let mut wal_records = Vec::new();
            let mut replay_ok = true;
            for e in candidate..max_epoch {
                match Wal::replay_file_with(&segment_path(dir, e), &io) {
                    Ok(records) => wal_records.extend(records),
                    Err(err) => {
                        first_error.get_or_insert(err);
                        replay_ok = false;
                        break;
                    }
                }
            }
            if !replay_ok {
                continue;
            }
            // The active segment: replay and truncate any torn tail.
            let (mut wal, tail) = Wal::open_with(&segment_path(dir, max_epoch), io.clone())?;
            wal_records.extend(tail);
            // Transaction framing: replay bare records and committed
            // spans only. A malformed frame sequence is corruption — try
            // the next candidate like any other corrupt state.
            let filtered = match filter_committed(wal_records) {
                Ok(f) => f,
                Err(e) => {
                    first_error.get_or_insert(e);
                    continue;
                }
            };
            // Seal a crash-torn open transaction: its complete frames sit
            // at the tail, so without an explicit abort marker, bare
            // records appended later would be swallowed into it at the
            // next replay.
            if let Some(txid) = filtered.open_txn {
                wal.append_batch_nosync([&WalRecord::Abort(txid)])?;
                wal.sync()?;
            }
            return Ok((
                Self {
                    dir: dir.to_path_buf(),
                    io,
                    epoch: max_epoch,
                    wal,
                    last_checkpoint: None,
                    poisoned: false,
                },
                Recovered {
                    tables,
                    functions_json,
                    wal_records: filtered.records,
                    snapshot_epoch: candidate,
                    max_txid: filtered.max_txid,
                    committed_txns: filtered.committed_txns,
                    discarded_txns: filtered.discarded_txns,
                },
            ));
        }
        Err(first_error.unwrap_or_else(|| {
            StorageError::Corrupt("no recoverable snapshot or wal state".to_string())
        }))
    }

    /// The active segment, unless the handle is poisoned (WAL rotation
    /// failed after a committed checkpoint): that segment is behind the
    /// snapshot's replay horizon, so an append there would be
    /// acknowledged-then-lost.
    fn active_wal(&mut self) -> Result<&mut Wal, StorageError> {
        if self.poisoned {
            return Err(StorageError::Io(
                "wal rotation failed after the last checkpoint; reopen the database".to_string(),
            ));
        }
        Ok(&mut self.wal)
    }

    /// Appends a batch of records as one contiguous write **without
    /// fsyncing** (see [`Wal::append_batch_nosync`]), returning the new
    /// tail offset. The group-commit coordinator pairs this with
    /// [`Durability::sync_wal`] (or an out-of-lock fsync through
    /// [`Durability::wal_sync_handles`]) and rolls back with
    /// [`Durability::rewind_wal`] when the fsync fails.
    pub fn log_batch_nosync<'a>(
        &mut self,
        records: impl IntoIterator<Item = &'a WalRecord>,
    ) -> Result<u64, StorageError> {
        self.active_wal()?.append_batch_nosync(records)
    }

    /// Fsyncs the active segment (acknowledges every batch appended since
    /// the last sync).
    pub fn sync_wal(&self) -> Result<(), StorageError> {
        self.wal.sync()
    }

    /// Clones the handles a group-commit leader needs to fsync the active
    /// segment outside the commit lock.
    pub fn wal_sync_handles(&self) -> (Io, PathBuf, RetryPolicy) {
        self.wal.sync_handles()
    }

    /// Valid bytes in the active segment (the durable LSN once fsynced).
    pub fn wal_tail(&self) -> u64 {
        self.wal.bytes()
    }

    /// Complete records in the active segment.
    pub fn wal_record_count(&self) -> u64 {
        self.wal.records()
    }

    /// Rolls the active segment back to `(len, records)` after a failed
    /// group fsync (see [`Wal::rewind`]).
    pub fn rewind_wal(&mut self, len: u64, records: u64) {
        self.wal.rewind(len, records);
    }

    /// Writes an incremental checkpoint: every table is sealed (nothing to
    /// do for a table with no open group; otherwise the open groups are
    /// encoded and every sealed one is shared, see [`Table::seal`]), pages
    /// not yet in the shared
    /// content-addressed `pages/` store land there, and the per-table
    /// descriptors + manifest commit via temp dir + fsync + atomic rename.
    /// The WAL then rotates to a new segment, state older than the previous
    /// epoch is pruned, and unreferenced pages are swept.
    ///
    /// Returns the new epoch and the sealed form of each input table (same
    /// order) so the caller can swap them into its catalog — the rows are
    /// identical, only the open groups moved into pages.
    pub fn checkpoint(
        &mut self,
        tables: &[Arc<Table>],
        pool: &Arc<BufferPool>,
        functions_json: Option<&str>,
    ) -> Result<(u64, Vec<Arc<Table>>), StorageError> {
        let next = self.epoch + 1;
        let snapshots = self.dir.join("snapshots");
        let pages = pages_dir(&self.dir);
        self.io.create_dir_all(&pages)?;
        let tmp = snapshots.join(format!(".tmp-{}", epoch_name(next)));
        let _ = self.io.remove_dir_all(&tmp);
        self.io.create_dir_all(&tmp)?;

        let mut stats = CheckpointStats {
            epoch: next,
            tables: tables.len(),
            pages_written: 0,
            pages_reused: 0,
            bytes_written: 0,
            bytes_total: 0,
        };
        let mut manifest = format!("{MANIFEST_MAGIC}\nepoch {next}\n");
        let mut paged_out = Vec::with_capacity(tables.len());
        for (i, table) in tables.iter().enumerate() {
            let paged = if table.is_sealed() {
                Arc::clone(table)
            } else {
                Arc::new(table.seal(pool, DEFAULT_PAGE_ROWS)?)
            };
            let w = write_durable(&paged.sealed_pages()?, &pages, pool.io())?;
            stats.pages_written += w.pages_written;
            stats.pages_reused += w.pages_reused;
            stats.bytes_written += w.bytes_written;
            stats.bytes_total += w.bytes_total;
            let file = format!("t{i}.kmeta");
            let bytes = encode_kmeta(&paged)?;
            write_synced(&self.io, &tmp.join(&file), &bytes)?;
            manifest.push_str(&format!(
                "ptable {file} {} {}\n",
                bytes.len(),
                crc32(&bytes)
            ));
            paged_out.push(paged);
        }
        // Page files (and their directory entry) must be durable before the
        // manifest that references them commits.
        sync_dir(&self.io, &pages)?;
        if let Some(json) = functions_json {
            let bytes = json.as_bytes();
            write_synced(&self.io, &tmp.join("functions.json"), bytes)?;
            manifest.push_str(&format!(
                "functions functions.json {} {}\n",
                bytes.len(),
                crc32(bytes)
            ));
        }
        manifest.push_str(&format!("crc {}\n", crc32(manifest.as_bytes())));
        write_synced(&self.io, &tmp.join("MANIFEST"), manifest.as_bytes())?;
        sync_dir(&self.io, &tmp)?;
        // The commit point: everything before a failed rename is an
        // uncommitted `.tmp-` directory the next open clears.
        self.io.rename(&tmp, &snapshot_dir(&self.dir, next))?;

        // Make the rename durable, then rotate the log: subsequent records
        // belong to the new epoch. The snapshot may already be committed,
        // so a failure of either poisons the handle — appending to the
        // *old* segment would acknowledge records behind the new
        // snapshot's replay horizon (recovery would silently drop them).
        let rotated = sync_dir(&self.io, &snapshots)
            .map_err(StorageError::from)
            .and_then(|()| Wal::open_with(&segment_path(&self.dir, next), self.io.clone()));
        match rotated {
            Ok((wal, _)) => {
                self.wal = wal;
                self.epoch = next;
            }
            Err(e) => {
                self.poisoned = true;
                return Err(e);
            }
        }

        // Post-commit housekeeping is best-effort: the checkpoint is
        // durable, and a failed prune or sweep must not report it as
        // failed — the next checkpoint retries, and stale state is
        // harmless (recovery ignores epochs older than the newest valid
        // chain; the sweep never deletes a page unless every retained
        // descriptor was read successfully).
        self.prune_and_sweep(next);
        self.last_checkpoint = Some(stats);
        Ok((next, paged_out))
    }

    /// Prunes snapshots/segments older than `next - 1` and sweeps
    /// unreferenced pages. Every step is individually best-effort.
    fn prune_and_sweep(&self, next: u64) {
        let snapshots = self.dir.join("snapshots");
        if let Ok(epochs) = list_epochs(&self.io, &snapshots, false) {
            for e in epochs {
                if e + 2 <= next {
                    let _ = self.io.remove_dir_all(&snapshot_dir(&self.dir, e));
                }
            }
        }
        if let Ok(epochs) = list_epochs(&self.io, &self.dir.join("wal"), true) {
            for e in epochs {
                if e + 2 <= next {
                    let _ = self.io.remove_file(&segment_path(&self.dir, e));
                }
            }
        }
        sweep_orphan_pages(&self.io, &self.dir);
    }

    /// Records appended through this handle since open or the last
    /// checkpoint (replayed tail records are not counted: they are already
    /// durable and re-replayable, so a session that only read needs no
    /// closing snapshot).
    pub fn appended_records(&self) -> u64 {
        self.wal.appended()
    }

    /// Current status (snapshot epoch, active-segment records/bytes, what
    /// the last checkpoint wrote).
    pub fn status(&self) -> DurabilityStatus {
        DurabilityStatus {
            dir: self.dir.clone(),
            snapshot_epoch: self.epoch,
            wal_records: self.wal.records(),
            wal_bytes: self.wal.bytes(),
            last_checkpoint: self.last_checkpoint,
            group_fsyncs: 0,
            group_commits: 0,
        }
    }
}

/// Writes `bytes` and fsyncs, retrying transient faults (the write is
/// idempotent: each attempt recreates the file). Plain (non-atomic) writes
/// are fine here: the file lives in a temp snapshot directory whose
/// *rename* is the atomic commit point.
fn write_synced(io: &Io, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
    with_retry(&RetryPolicy::default(), || {
        io.write_file(path, bytes)?;
        io.fsync(path)
    })?;
    Ok(())
}

// ---- kmeta: per-table page descriptors ------------------------------------

/// One page's entry in a kmeta descriptor: file name, encoded length,
/// CRC32, FNV-1a 64, and the page's zone map.
type KmetaPage = (String, u32, u32, u64, ZoneMap);

/// Parsed form of a `tN.kmeta` descriptor.
struct KmetaDoc {
    name: String,
    schema: Schema,
    rows: u64,
    page_rows: u32,
    // columns[c][p] = one page descriptor
    columns: Vec<Vec<KmetaPage>>,
}

/// Serializes one paged table's descriptor: schema, shape, and the
/// content-addressed page list with per-page verification data and zone
/// maps. CRC32 trailer, like every binary format in this crate.
fn encode_kmeta(table: &Table) -> Result<Vec<u8>, StorageError> {
    let groups = table.sealed_pages()?;
    let mut buf = BytesMut::new();
    buf.put_slice(KMETA_MAGIC);
    buf.put_u8(KMETA_VERSION);
    let schema = table.schema();
    put_schema(&mut buf, table.name(), schema)?;
    buf.put_u64(table.len() as u64);
    buf.put_u32(table.page_rows() as u32);
    buf.put_u32(groups.len() as u32);
    for c in 0..schema.arity() {
        for slots in &groups {
            let slot = &slots[c];
            put_str(&mut buf, &slot.file_name())?;
            buf.put_u32(slot.encoded_len() as u32);
            buf.put_u32(slot.crc());
            buf.put_u64(slot.fnv());
            slot.zone().encode(&mut buf)?;
        }
    }
    let checksum = crc32(&buf);
    buf.put_u32(checksum);
    Ok(buf.to_vec())
}

/// Parses (and checksum-verifies) a `tN.kmeta` descriptor.
fn parse_kmeta(data: &[u8]) -> Result<KmetaDoc, StorageError> {
    let corrupt = |m: &str| StorageError::Corrupt(m.to_string());
    if data.len() < 9 || data[..4] != *KMETA_MAGIC {
        return Err(corrupt("bad kmeta magic"));
    }
    if data[4] != KMETA_VERSION {
        return Err(corrupt("unsupported kmeta version"));
    }
    let Some((payload, trailer)) = data.split_last_chunk::<4>() else {
        return Err(corrupt("kmeta trailer truncated"));
    };
    if crc32(payload) != u32::from_be_bytes(*trailer) {
        return Err(corrupt("kmeta checksum mismatch"));
    }
    let mut data = &payload[5..];
    let (name, schema) = get_schema(&mut data)?;
    let arity = schema.arity();
    if data.remaining() < 16 {
        return Err(corrupt("truncated kmeta shape"));
    }
    let rows = data.get_u64();
    let page_rows = data.get_u32();
    let page_count = data.get_u32() as usize;
    if page_rows == 0 && page_count > 0 {
        return Err(corrupt("kmeta page_rows is zero"));
    }
    // A page entry takes at least 29 bytes (file-name prefix, length, two
    // checksums, an empty zone map): refuse a count the bytes cannot hold
    // before reserving room for it.
    if page_count.saturating_mul(arity).saturating_mul(29) > data.remaining() {
        return Err(corrupt("implausible kmeta page count"));
    }
    let mut columns = Vec::with_capacity(arity);
    for _ in 0..arity {
        let mut pages = Vec::with_capacity(page_count);
        for _ in 0..page_count {
            let file = get_str(&mut data)?;
            if data.remaining() < 16 {
                return Err(corrupt("truncated kmeta page entry"));
            }
            let len = data.get_u32();
            let crc = data.get_u32();
            let fnv = data.get_u64();
            let zone = ZoneMap::decode(&mut data)?;
            pages.push((file, len, crc, fnv, zone));
        }
        columns.push(pages);
    }
    if data.has_remaining() {
        return Err(corrupt("trailing bytes after kmeta"));
    }
    Ok(KmetaDoc {
        name,
        schema,
        rows,
        page_rows,
        columns,
    })
}

impl KmetaDoc {
    /// Builds the file-backed paged table this descriptor describes,
    /// verifying every referenced page file (length + CRC32) first —
    /// one file at a time, so recovery verification is O(data) I/O but
    /// bounded memory.
    fn into_table(
        self,
        io: &Io,
        root: &Path,
        pool: &Arc<BufferPool>,
    ) -> Result<Table, StorageError> {
        let pages = pages_dir(root);
        let mut recovered: Vec<Vec<Arc<PageSlot>>> = Vec::with_capacity(self.columns.len());
        for col in self.columns {
            let mut out = Vec::with_capacity(col.len());
            for (file, len, crc, fnv, zone) in col {
                let path = pages.join(&file);
                let bytes = io.read(&path).map_err(|e| {
                    StorageError::Corrupt(format!("unreadable page file {file}: {e}"))
                })?;
                if bytes.len() != len as usize || crc32(&bytes) != crc {
                    return Err(StorageError::Corrupt(format!(
                        "page file {file} fails verification"
                    )));
                }
                out.push(PageSlot::recovered(path, (len, crc, fnv), zone, pool));
            }
            recovered.push(out);
        }
        let shape = (self.rows as usize, self.page_rows as usize);
        Table::from_recovered(self.name, self.schema, shape, recovered, pool)
    }
}

/// Deletes page files no retained snapshot references. Deletion happens
/// only when the referenced set is provably complete: if any retained
/// snapshot fails to list, or any of its descriptors fails to read or
/// parse, the sweep is skipped entirely — an orphaned page is harmless, a
/// deleted referenced page is not. Individual deletions are best-effort
/// (a failed unlink leaves an orphan for the next sweep).
fn sweep_orphan_pages(io: &Io, dir: &Path) {
    let pages = pages_dir(dir);
    if !io.exists(&pages) {
        return;
    }
    let mut referenced: BTreeSet<String> = BTreeSet::new();
    let Ok(epochs) = list_epochs(io, &dir.join("snapshots"), false) else {
        return;
    };
    for e in epochs {
        let snap = snapshot_dir(dir, e);
        let Ok(entries) = io.read_dir(&snap) else {
            return;
        };
        for path in entries {
            if path.extension().is_some_and(|x| x == "kmeta") {
                let Ok(bytes) = io.read(&path) else {
                    return;
                };
                let Ok(doc) = parse_kmeta(&bytes) else {
                    return;
                };
                for col in &doc.columns {
                    for (file, ..) in col {
                        referenced.insert(file.clone());
                    }
                }
            }
        }
    }
    let Ok(entries) = io.read_dir(&pages) else {
        return;
    };
    for path in entries {
        let name = path.file_name().map(|n| n.to_string_lossy().to_string());
        if let Some(name) = name {
            if name.ends_with(".kpg") && !referenced.contains(&name) {
                let _ = io.remove_file(&path);
            }
        }
    }
}

/// Loads and fully verifies snapshot `epoch` under `root`.
fn load_snapshot(
    io: &Io,
    root: &Path,
    epoch: u64,
    pool: &Arc<BufferPool>,
) -> Result<(Vec<Table>, Option<String>), StorageError> {
    let dir = snapshot_dir(root, epoch);
    let corrupt = |m: String| StorageError::Corrupt(m);
    let manifest = io
        .read(&dir.join("MANIFEST"))
        .map_err(|e| corrupt(format!("unreadable manifest in {}: {e}", dir.display())))
        .and_then(|bytes| {
            String::from_utf8(bytes)
                .map_err(|_| corrupt(format!("manifest in {} is not utf-8", dir.display())))
        })?;
    // The manifest authenticates itself: its last line checksums the rest.
    let body_end = manifest
        .trim_end_matches('\n')
        .rfind('\n')
        .map(|i| i + 1)
        .ok_or_else(|| corrupt("manifest too short".to_string()))?;
    let (body, crc_line) = manifest.split_at(body_end);
    let stored: u32 = crc_line
        .trim()
        .strip_prefix("crc ")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| corrupt("manifest missing crc line".to_string()))?;
    if crc32(body.as_bytes()) != stored {
        return Err(corrupt("manifest checksum mismatch".to_string()));
    }
    let mut lines = body.lines();
    if lines.next() != Some(MANIFEST_MAGIC) {
        return Err(corrupt("bad manifest magic".to_string()));
    }
    let mut tables = Vec::new();
    let mut functions_json = None;
    for line in lines {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["epoch", _] => {}
            ["ptable", file, len, crc] | ["functions", file, len, crc] => {
                let want_len: usize = len
                    .parse()
                    .map_err(|_| corrupt(format!("bad length in manifest line '{line}'")))?;
                let want_crc: u32 = crc
                    .parse()
                    .map_err(|_| corrupt(format!("bad crc in manifest line '{line}'")))?;
                let bytes = io
                    .read(&dir.join(file))
                    .map_err(|e| corrupt(format!("unreadable snapshot file {file}: {e}")))?;
                if bytes.len() != want_len || crc32(&bytes) != want_crc {
                    return Err(corrupt(format!("snapshot file {file} fails verification")));
                }
                if line.starts_with("ptable ") {
                    tables.push(parse_kmeta(&bytes)?.into_table(io, root, pool)?);
                } else {
                    functions_json = Some(String::from_utf8(bytes).map_err(|_| {
                        corrupt("snapshot functions.json is not utf-8".to_string())
                    })?);
                }
            }
            _ => return Err(corrupt(format!("unrecognized manifest line '{line}'"))),
        }
    }
    Ok((tables, functions_json))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataType, Value};

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kathdb_durable_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::with_budget(64))
    }

    fn kv_table(rows: &[(i64, &str)]) -> Table {
        Table::from_rows(
            "kv",
            Schema::of(&[("k", DataType::Int), ("v", DataType::Str)]),
            rows.iter()
                .map(|(k, v)| vec![Value::Int(*k), Value::Str(v.to_string())])
                .collect(),
        )
        .unwrap()
    }

    /// Logs one record the way a commit does: one write without an fsync,
    /// then the fsync; when that fails, the tail is rolled back.
    fn log(d: &mut Durability, record: &WalRecord) -> Result<(), StorageError> {
        let (tail, records) = (d.wal_tail(), d.wal_record_count());
        d.log_batch_nosync([record])?;
        d.sync_wal().inspect_err(|_| d.rewind_wal(tail, records))
    }

    fn create_kv() -> WalRecord {
        WalRecord::CreateTable {
            name: "kv".into(),
            schema: kv_table(&[]).schema().clone(),
        }
    }

    #[test]
    fn fresh_directory_starts_empty() {
        let dir = tmp("fresh");
        let (d, rec) = Durability::open(&dir, &pool()).unwrap();
        assert!(rec.tables.is_empty());
        assert!(rec.wal_records.is_empty());
        assert_eq!(rec.snapshot_epoch, 0);
        assert_eq!(d.status().snapshot_epoch, 0);
        assert_eq!(d.status().last_checkpoint, None);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn checkpoint_then_recover_round_trips() {
        let dir = tmp("roundtrip");
        let pl = pool();
        let t = kv_table(&[(1, "a"), (2, "b")]);
        {
            let (mut d, _) = Durability::open(&dir, &pl).unwrap();
            log(&mut d, &create_kv()).unwrap();
            let (epoch, paged) = d
                .checkpoint(&[Arc::new(t.clone())], &pl, Some("{\"functions\": []}"))
                .unwrap();
            assert_eq!(epoch, 1);
            assert_eq!(paged.len(), 1);
            assert!(paged[0].is_paged());
            log(
                &mut d,
                &WalRecord::Insert {
                    table: "kv".into(),
                    rows: vec![vec![3i64.into(), "c".into()]],
                },
            )
            .unwrap();
        }
        let (d, rec) = Durability::open(&dir, &pl).unwrap();
        assert_eq!(rec.snapshot_epoch, 1);
        assert_eq!(rec.tables, vec![t]);
        assert!(rec.tables[0].is_paged());
        assert_eq!(rec.functions_json.as_deref(), Some("{\"functions\": []}"));
        assert_eq!(rec.wal_records.len(), 1);
        assert_eq!(d.status().wal_records, 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn second_checkpoint_writes_only_dirty_pages() {
        let dir = tmp("incremental");
        let pl = pool();
        // Large enough for several pages per column at the default height.
        let rows: Vec<(i64, String)> = (0..10_000)
            .map(|i| (i, format!("value-{}", i % 50)))
            .collect();
        let refs: Vec<(i64, &str)> = rows.iter().map(|(k, v)| (*k, v.as_str())).collect();
        let t1 = kv_table(&refs);
        let (mut d, _) = Durability::open(&dir, &pl).unwrap();
        let (_, paged) = d.checkpoint(&[Arc::new(t1)], &pl, None).unwrap();
        let first = d.status().last_checkpoint.unwrap();
        assert!(first.pages_written > 2);
        assert_eq!(first.pages_reused, 0);
        // A small INSERT dirties only the last page of each column.
        let mut t2 = (*paged[0]).clone();
        t2.push(vec![Value::Int(10_000), Value::Str("tail".into())])
            .unwrap();
        d.checkpoint(&[Arc::new(t2)], &pl, None).unwrap();
        let second = d.status().last_checkpoint.unwrap();
        assert_eq!(second.pages_written, 2, "only the last page per column");
        assert!(second.pages_reused >= first.pages_written - 2);
        assert!(
            second.bytes_written < first.bytes_written,
            "incremental checkpoint must write strictly fewer bytes \
             ({} vs {})",
            second.bytes_written,
            first.bytes_written
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn orphaned_pages_are_swept() {
        let dir = tmp("sweep");
        let pl = pool();
        let (mut d, _) = Durability::open(&dir, &pl).unwrap();
        let t1 = kv_table(&[(1, "first")]);
        d.checkpoint(&[Arc::new(t1)], &pl, None).unwrap();
        let t2 = kv_table(&[(2, "second")]);
        d.checkpoint(&[Arc::new(t2)], &pl, None).unwrap();
        // Both snapshots retained: both page sets must exist.
        let count = || {
            std::fs::read_dir(pages_dir(&dir))
                .unwrap()
                .filter(|e| {
                    e.as_ref()
                        .unwrap()
                        .path()
                        .extension()
                        .is_some_and(|x| x == "kpg")
                })
                .count()
        };
        assert_eq!(count(), 4); // 2 columns × 2 distinct snapshots
        let t3 = kv_table(&[(3, "third")]);
        d.checkpoint(&[Arc::new(t3)], &pl, None).unwrap();
        // Snapshot 1 was pruned; its pages are no longer referenced.
        assert_eq!(count(), 4); // snapshots 2 and 3 remain
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A directory with snapshot 1 of `kv` = (1, a), then snapshot 2 after
    /// an INSERT of (2, b); returns it, its pool and snapshot 1's table.
    fn two_snapshots(name: &str) -> (PathBuf, Arc<BufferPool>, Table) {
        let dir = tmp(name);
        let pl = pool();
        let t1 = kv_table(&[(1, "a")]);
        let (mut d, _) = Durability::open(&dir, &pl).unwrap();
        log(&mut d, &create_kv()).unwrap();
        d.checkpoint(&[Arc::new(t1.clone())], &pl, None).unwrap();
        log(
            &mut d,
            &WalRecord::Insert {
                table: "kv".into(),
                rows: vec![vec![2i64.into(), "b".into()]],
            },
        )
        .unwrap();
        let t2 = kv_table(&[(1, "a"), (2, "b")]);
        d.checkpoint(&[Arc::new(t2)], &pl, None).unwrap();
        (dir, pl, t1)
    }

    #[test]
    fn corrupt_newest_snapshot_falls_back_to_previous() {
        let (dir, pl, t1) = two_snapshots("fallback");
        // Corrupt every file of snapshot 2.
        let snap2 = snapshot_dir(&dir, 2);
        for entry in std::fs::read_dir(&snap2).unwrap() {
            let p = entry.unwrap().path();
            let mut bytes = std::fs::read(&p).unwrap();
            if let Some(b) = bytes.get_mut(10) {
                *b ^= 0xFF;
            }
            std::fs::write(&p, &bytes).unwrap();
        }
        // Recovery falls back to snapshot 1 and replays segment 1 (the
        // insert) + segment 2 (empty): same logical state.
        let (_, rec) = Durability::open(&dir, &pl).unwrap();
        assert_eq!(rec.snapshot_epoch, 1);
        assert_eq!(rec.tables, vec![t1]);
        assert_eq!(rec.wal_records.len(), 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn missing_page_file_fails_verification_and_falls_back() {
        let (dir, pl, t1) = two_snapshots("missingpage");
        // Delete a page referenced only by snapshot 2 (t2's "k" column
        // differs from t1's, so its page file is unique to snapshot 2).
        let kmeta = std::fs::read(snapshot_dir(&dir, 2).join("t0.kmeta")).unwrap();
        let doc2 = parse_kmeta(&kmeta).unwrap();
        let kmeta1 = std::fs::read(snapshot_dir(&dir, 1).join("t0.kmeta")).unwrap();
        let doc1 = parse_kmeta(&kmeta1).unwrap();
        let files1: BTreeSet<String> = doc1
            .columns
            .iter()
            .flatten()
            .map(|(f, ..)| f.clone())
            .collect();
        let only2 = doc2
            .columns
            .iter()
            .flatten()
            .map(|(f, ..)| f.clone())
            .find(|f| !files1.contains(f))
            .expect("snapshot 2 must own at least one new page");
        std::fs::remove_file(pages_dir(&dir).join(only2)).unwrap();
        let (_, rec) = Durability::open(&dir, &pl).unwrap();
        assert_eq!(rec.snapshot_epoch, 1);
        assert_eq!(rec.tables, vec![t1]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn all_snapshots_corrupt_is_an_error_not_a_panic() {
        let dir = tmp("allcorrupt");
        let pl = pool();
        let t1 = kv_table(&[(1, "a")]);
        {
            let (mut d, _) = Durability::open(&dir, &pl).unwrap();
            for _ in 0..3 {
                d.checkpoint(&[Arc::new(t1.clone())], &pl, None).unwrap();
            }
        }
        // Segment 0 and snapshot 1 are pruned by now; corrupt snapshots 2+3.
        for e in [2u64, 3] {
            let m = snapshot_dir(&dir, e).join("MANIFEST");
            std::fs::write(&m, "garbage").unwrap();
        }
        assert!(matches!(
            Durability::open(&dir, &pl),
            Err(StorageError::Corrupt(_))
        ));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn pruning_keeps_two_snapshots() {
        let dir = tmp("prune");
        let pl = pool();
        let t = kv_table(&[(1, "a")]);
        {
            let (mut d, _) = Durability::open(&dir, &pl).unwrap();
            for _ in 0..4 {
                d.checkpoint(&[Arc::new(t.clone())], &pl, None).unwrap();
            }
        }
        let io = Io::real();
        let snaps = list_epochs(&io, &dir.join("snapshots"), false).unwrap();
        assert_eq!(snaps, vec![3, 4]);
        let segs = list_epochs(&io, &dir.join("wal"), true).unwrap();
        assert_eq!(segs, vec![3, 4]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn wal_rotation_failure_poisons_logging_until_reopen() {
        let dir = tmp("rotatepoison");
        let pl = pool();
        let (mut d, _) = Durability::open(&dir, &pl).unwrap();
        let t = kv_table(&[(1, "a")]);
        log(&mut d, &create_kv()).unwrap();
        // Make rotation fail after the snapshot rename commits: a
        // directory squats on the new segment's path, so opening it
        // errors. The checkpoint reports the failure…
        std::fs::create_dir_all(segment_path(&dir, 1)).unwrap();
        let err = d.checkpoint(&[Arc::new(t.clone())], &pl, None).unwrap_err();
        assert!(matches!(
            err,
            StorageError::Io(_) | StorageError::Corrupt(_)
        ));
        // Logging now refuses: an append to the old segment would be
        // acknowledged-then-lost behind snapshot 1.
        assert!(matches!(
            log(&mut d, &WalRecord::DropTable("kv".into())),
            Err(StorageError::Io(_))
        ));
        // Reopen (after clearing the obstruction) recovers the committed
        // snapshot.
        std::fs::remove_dir_all(segment_path(&dir, 1)).unwrap();
        drop(d);
        let (mut d, rec) = Durability::open(&dir, &pl).unwrap();
        assert_eq!(rec.snapshot_epoch, 1);
        assert_eq!(rec.tables, vec![t]);
        log(&mut d, &WalRecord::DropTable("kv".into())).unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn recovery_replays_committed_txns_and_seals_torn_open_ones() {
        let dir = tmp("txnframing");
        let pl = pool();
        let ins = |k: i64, v: &str| WalRecord::Insert {
            table: "kv".into(),
            rows: vec![vec![k.into(), v.into()]],
        };
        {
            let (mut d, _) = Durability::open(&dir, &pl).unwrap();
            log(&mut d, &create_kv()).unwrap();
            // Committed transaction, then a torn one (Begin + record but
            // no Commit — as a crash mid-group-write would leave).
            let committed = [WalRecord::Begin(1), ins(1, "a"), WalRecord::Commit(1)];
            d.log_batch_nosync(committed.iter()).unwrap();
            d.sync_wal().unwrap();
            let torn = [WalRecord::Begin(2), ins(2, "lost")];
            d.log_batch_nosync(torn.iter()).unwrap();
            d.sync_wal().unwrap();
        }
        let (mut d, rec) = Durability::open(&dir, &pl).unwrap();
        assert_eq!(rec.wal_records, vec![create_kv(), ins(1, "a")]);
        assert_eq!(rec.max_txid, 2);
        assert_eq!(rec.committed_txns, 1);
        assert_eq!(rec.discarded_txns, 1);
        // The open transaction was sealed with an Abort, so a bare append
        // after recovery is not swallowed into it at the next replay.
        log(&mut d, &ins(3, "kept")).unwrap();
        drop(d);
        let (_, rec) = Durability::open(&dir, &pl).unwrap();
        assert_eq!(
            rec.wal_records,
            vec![create_kv(), ins(1, "a"), ins(3, "kept")]
        );
        assert_eq!(rec.discarded_txns, 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn whole_table_manifest_lines_are_refused() {
        // No checkpoint of this repository wrote a whole-table `table
        // <file>` line; a manifest carrying one is refused with a typed
        // error like any other line it does not know.
        let dir = tmp("legacy");
        std::fs::create_dir_all(dir.join("wal")).unwrap();
        std::fs::create_dir_all(dir.join("snapshots").join("000001")).unwrap();
        let bytes = b"a whole table";
        let snap = dir.join("snapshots").join("000001");
        std::fs::write(snap.join("t0.tbl"), bytes).unwrap();
        let mut manifest = format!("{MANIFEST_MAGIC}\nepoch 1\n");
        manifest.push_str(&format!("table t0.tbl {} {}\n", bytes.len(), crc32(bytes)));
        manifest.push_str(&format!("crc {}\n", crc32(manifest.as_bytes())));
        std::fs::write(snap.join("MANIFEST"), manifest).unwrap();
        std::fs::write(segment_path(&dir, 1), b"").unwrap();
        let Err(err) = Durability::open(&dir, &pool()) else {
            panic!("a whole-table manifest line must be refused");
        };
        assert!(
            matches!(&err, StorageError::Corrupt(m) if m.contains("unrecognized")),
            "{err:?}"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn kmeta_round_trips() {
        let pl = pool();
        let t = kv_table(&[(1, "a"), (2, "b"), (3, "c")]);
        let paged = t.seal(&pl, 2).unwrap();
        let bytes = encode_kmeta(&paged).unwrap();
        let doc = parse_kmeta(&bytes).unwrap();
        assert_eq!(doc.name, "kv");
        assert_eq!(doc.schema, *t.schema());
        assert_eq!(doc.rows, 3);
        assert_eq!(doc.page_rows, 2);
        assert_eq!(doc.columns.len(), 2);
        assert_eq!(doc.columns[0].len(), 2);
        // Every cut and every bit flip is `Corrupt`: the trailer catches
        // it. Under a re-sealed trailer the parser, the shared schema codec
        // included, parses or refuses, and never panics or reserves what
        // the bytes cannot hold.
        let mutations = |b: &[u8]| {
            let cuts = (0..b.len()).map(|cut| b[..cut].to_vec());
            let flips = (0..b.len() * 8).map(|bit| {
                let mut m = b.to_vec();
                m[bit / 8] ^= 1 << (bit % 8);
                m
            });
            cuts.chain(flips).collect::<Vec<_>>()
        };
        for bad in mutations(&bytes) {
            assert!(
                matches!(parse_kmeta(&bad), Err(StorageError::Corrupt(_))),
                "{bad:?}"
            );
        }
        for mut bad in mutations(&bytes[..bytes.len() - 4]) {
            bad.extend_from_slice(&crc32(&bad).to_be_bytes());
            let parsed = parse_kmeta(&bad);
            assert!(
                matches!(parsed, Ok(_) | Err(StorageError::Corrupt(_))),
                "{bad:?}"
            );
        }
    }
}
