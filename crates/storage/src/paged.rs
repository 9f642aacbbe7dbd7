//! Sealed pages: the out-of-core part of a [`crate::Table`].
//!
//! A [`PagedTable`] holds one compressed page per (column, row group)
//! instead of resident rows. Pages live either in memory ([`PageBacking::Mem`],
//! freshly encoded and not yet checkpointed — the *dirty* state) or on disk
//! ([`PageBacking::File`], durable and content-addressed). Every page is
//! full except possibly the last of each column, so a row position maps to
//! its page by division.
//!
//! Slots are immutable and individually `Arc`-shared: the sealed part that
//! follows another one ([`PagedTable::extended`]) holds the *same* slot for
//! every full page and encodes only the short last page plus the rows being
//! sealed. Decoded pages are cached in the shared [`BufferPool`] under the
//! slot's own id, so a page shared by many table versions is decoded once,
//! and leaves the pool when its slot is dropped with the last of them.
//! Checkpoints call [`PagedTable::write_durable`], which writes only pages
//! whose content-addressed file does not already exist — that is the whole
//! incremental-checkpoint mechanism: unchanged pages are recognized by name
//! (`{crc32}{fnv1a64}.kpg`) and skipped.

use crate::io::{with_retry, Io, RetryPolicy};
use crate::page::{decode_page, encode_page, ZoneMap};
use crate::pool::{BufferPool, PageKey};
use crate::wal::crc32;
use crate::{ColumnVector, Row, Schema, StorageError, Value};
use bytes::Bytes;
use parking_lot::RwLock;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_SLOT_ID: AtomicU64 = AtomicU64::new(1);

/// FNV-1a 64-bit hash; paired with CRC32 to content-address page files.
fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Where one page's encoded bytes live right now.
#[derive(Debug, Clone)]
pub enum PageBacking {
    /// Encoded in memory, not yet checkpointed (dirty).
    Mem(Bytes),
    /// Durable in a content-addressed `.kpg` file.
    File(PathBuf),
}

/// One compressed column page plus the metadata needed to find, verify,
/// and prune it without decoding. Immutable once made (only where its bytes
/// live changes), so every table version that contains the page holds the
/// same slot.
#[derive(Debug)]
pub struct PageSlot {
    // Process-unique; the page's buffer-pool key.
    id: u64,
    zone: ZoneMap,
    rows: u32,
    len: u32,
    crc: u32,
    fnv: u64,
    backing: RwLock<PageBacking>,
    pool: Arc<BufferPool>,
}

impl PageSlot {
    fn new(
        zone: ZoneMap,
        (len, crc, fnv): (u32, u32, u64),
        backing: PageBacking,
        pool: &Arc<BufferPool>,
    ) -> Arc<Self> {
        Arc::new(Self {
            id: NEXT_SLOT_ID.fetch_add(1, Ordering::Relaxed), // lint: relaxed-ok — unique-ID tick; the RMW alone guarantees uniqueness
            rows: zone.rows,
            len,
            crc,
            fnv,
            zone,
            backing: RwLock::new(backing),
            pool: Arc::clone(pool),
        })
    }

    /// Encodes `values` as one fresh in-memory (dirty) page.
    fn encode(values: &[Value], pool: &Arc<BufferPool>) -> Result<Arc<Self>, StorageError> {
        let (bytes, zone) = encode_page(values)?;
        let address = (bytes.len() as u32, crc32(&bytes), fnv1a64(&bytes));
        Ok(Self::new(zone, address, PageBacking::Mem(bytes), pool))
    }

    /// The content-addressed durable file name of this page.
    pub fn file_name(&self) -> String {
        format!("{:08x}{:016x}.kpg", self.crc, self.fnv)
    }

    /// Zone map of the page.
    pub fn zone(&self) -> &ZoneMap {
        &self.zone
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        self.len as usize
    }

    /// Rows in the page.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// CRC32 of the encoded page bytes.
    pub fn crc(&self) -> u32 {
        self.crc
    }

    /// FNV-1a 64 of the encoded page bytes.
    pub fn fnv(&self) -> u64 {
        self.fnv
    }

    /// Whether the page is only in memory (not yet written durably).
    pub fn is_dirty(&self) -> bool {
        matches!(*self.backing.read(), PageBacking::Mem(_))
    }

    /// The decoded page, via the buffer pool.
    fn decoded(&self) -> Result<Arc<ColumnVector>, StorageError> {
        self.pool.get_or_load(PageKey(self.id), || {
            self.with_encoded(self.pool.io(), |bytes| decode_page(bytes).map(Arc::new))
        })
    }

    /// Runs `f` over the page's encoded bytes: the in-memory copy in place
    /// (under the backing's read lock, not cloned), or the file's contents
    /// once they match the descriptor.
    fn with_encoded<T>(
        &self,
        io: &Io,
        f: impl FnOnce(&[u8]) -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        let backing = self.backing.read();
        match &*backing {
            PageBacking::Mem(bytes) => f(bytes),
            PageBacking::File(path) => {
                // One retry on a transient read failure; anything that
                // persists surfaces as a typed `Io`, and bytes that arrive
                // but do not match the descriptor are `Corrupt`. Never a
                // panic, never a wrong page.
                let retry = RetryPolicy {
                    attempts: 2,
                    ..RetryPolicy::default()
                };
                let data = with_retry(&retry, || io.read(path))?;
                if crc32(&data) != self.crc || data.len() != self.len as usize {
                    return Err(StorageError::Corrupt(format!(
                        "page file {} does not match its descriptor",
                        path.display()
                    )));
                }
                f(&data)
            }
        }
    }
}

impl Drop for PageSlot {
    /// The last table holding the page is gone: its decoded copy must not
    /// be stranded in the pool.
    fn drop(&mut self) {
        self.pool.evict(PageKey(self.id));
    }
}

/// Metadata for one durable page, as read back from checkpoint metadata.
#[derive(Debug, Clone)]
pub struct RecoveredPage {
    /// Path of the content-addressed `.kpg` file.
    pub path: PathBuf,
    /// Encoded length in bytes.
    pub len: u32,
    /// CRC32 of the encoded bytes.
    pub crc: u32,
    /// FNV-1a 64 of the encoded bytes.
    pub fnv: u64,
    /// Zone map of the page.
    pub zone: ZoneMap,
}

/// Outcome of one [`PagedTable::write_durable`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageWriteStats {
    /// Pages newly written this checkpoint.
    pub pages_written: usize,
    /// Pages whose content-addressed file already existed (clean pages).
    pub pages_reused: usize,
    /// Bytes written this checkpoint (dirty pages only).
    pub bytes_written: u64,
    /// Total encoded bytes referenced by the table (written + reused).
    pub bytes_total: u64,
}

/// Rows stored as fixed-size compressed column pages, read through the
/// shared buffer pool: the sealed part of a [`crate::Table`].
#[derive(Debug)]
pub struct PagedTable {
    schema: Schema,
    rows: usize,
    page_rows: usize,
    // columns[c][p] = page p of column c; every page holds `page_rows` rows
    // except possibly the last.
    columns: Vec<Vec<Arc<PageSlot>>>,
    pool: Arc<BufferPool>,
}

impl PagedTable {
    /// Pages `rows` under `schema` into compressed column pages of
    /// `page_rows` rows each.
    pub fn from_rows(
        schema: Schema,
        rows: &[Row],
        pool: Arc<BufferPool>,
        page_rows: usize,
    ) -> Result<Self, StorageError> {
        let empty = Self {
            columns: vec![Vec::new(); schema.arity()],
            schema,
            rows: 0,
            page_rows: page_rows.max(1),
            pool,
        };
        empty.extended(rows)
    }

    /// These pages followed by `tail`, as a new sealed part: every full
    /// page is the *same* slot (shared, not copied or re-encoded); only the
    /// rows of a short last page and `tail` are encoded. Identical rows
    /// give identical page bytes, so the result names the same
    /// content-addressed files as paging all the rows from scratch.
    pub(crate) fn extended(&self, tail: &[Row]) -> Result<Self, StorageError> {
        let full = self.rows / self.page_rows;
        let base = full * self.page_rows;
        let total = self.rows + tail.len();
        // The short last page, decoded (one page per column through the pool).
        let short: Vec<Arc<ColumnVector>> = if base < self.rows {
            (0..self.columns.len())
                .map(|c| self.column_page(c, full))
                .collect::<Result<_, _>>()?
        } else {
            Vec::new()
        };
        let mut columns: Vec<Vec<Arc<PageSlot>>> = self
            .columns
            .iter()
            .map(|slots| slots[..full].to_vec())
            .collect();
        let mut scratch: Vec<Value> = Vec::with_capacity(self.page_rows);
        let mut start = base;
        while start < total {
            let end = (start + self.page_rows).min(total);
            for (c, slots) in columns.iter_mut().enumerate() {
                scratch.clear();
                scratch.extend((start..end.min(self.rows)).map(|pos| short[c].value(pos - base)));
                let from_tail = &tail[start.max(self.rows) - self.rows..end - self.rows];
                scratch.extend(from_tail.iter().map(|r| r[c].clone()));
                slots.push(PageSlot::encode(&scratch, &self.pool)?);
            }
            start = end;
        }
        Ok(Self {
            schema: self.schema.clone(),
            rows: total,
            page_rows: self.page_rows,
            columns,
            pool: Arc::clone(&self.pool),
        })
    }

    /// Rebuilds a paged table from checkpoint metadata; pages stay on disk
    /// until first touch, so recovery is O(metadata), not O(data).
    pub fn from_recovered(
        schema: Schema,
        rows: usize,
        page_rows: usize,
        columns: Vec<Vec<RecoveredPage>>,
        pool: Arc<BufferPool>,
    ) -> Result<Self, StorageError> {
        let page_rows = page_rows.max(1);
        let expect_pages = rows.div_ceil(page_rows);
        if columns.len() != schema.columns().len()
            || columns.iter().any(|c| c.len() != expect_pages)
        {
            return Err(StorageError::Corrupt(
                "checkpoint page layout does not match table shape".into(),
            ));
        }
        let columns = columns
            .into_iter()
            .map(|slots| {
                slots
                    .into_iter()
                    .map(|r| {
                        let address = (r.len, r.crc, r.fnv);
                        PageSlot::new(r.zone, address, PageBacking::File(r.path), &pool)
                    })
                    .collect()
            })
            .collect();
        Ok(Self {
            schema,
            rows,
            page_rows,
            columns,
            pool,
        })
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total rows across all pages.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Rows per page.
    pub fn page_rows(&self) -> usize {
        self.page_rows
    }

    /// Pages per column.
    pub fn page_count(&self) -> usize {
        self.rows.div_ceil(self.page_rows)
    }

    /// The shared buffer pool this table reads through.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Row range `[start, end)` of page `p`.
    pub fn page_bounds(&self, p: usize) -> (usize, usize) {
        let start = p * self.page_rows;
        (start, (start + self.page_rows).min(self.rows))
    }

    /// Zone map of page `p` of column `c`.
    pub fn zone(&self, c: usize, p: usize) -> &ZoneMap {
        self.columns[c][p].zone()
    }

    /// The page slot for column `c`, page `p`. Two sealed parts that share
    /// the page return the same `Arc`.
    pub fn slot(&self, c: usize, p: usize) -> &Arc<PageSlot> {
        &self.columns[c][p]
    }

    /// Sum of encoded page sizes in bytes.
    pub fn encoded_bytes(&self) -> u64 {
        self.columns.iter().flatten().map(|s| s.len as u64).sum()
    }

    /// Pages held only in memory (dirty: not yet written durably).
    pub fn dirty_pages(&self) -> usize {
        self.columns
            .iter()
            .flatten()
            .filter(|s| s.is_dirty())
            .count()
    }

    /// Records that the scan skipped a page via its zone map.
    pub fn note_zone_skip(&self) {
        self.pool.note_zone_skip();
    }

    /// The decoded page `p` of column `c`, via the buffer pool.
    pub fn column_page(&self, c: usize, p: usize) -> Result<Arc<ColumnVector>, StorageError> {
        self.columns[c][p].decoded()
    }

    /// The row at position `i`, or `None` past the end. Touches one page
    /// per column through the pool.
    pub fn row_at(&self, i: usize) -> Result<Option<Row>, StorageError> {
        self.cells_at(i, 0..self.columns.len())
    }

    /// The cells of row `i` at `columns` (in that order), or `None` past
    /// the end. Touches one page of each of those columns and no other.
    pub(crate) fn cells_at(
        &self,
        i: usize,
        columns: impl IntoIterator<Item = usize>,
    ) -> Result<Option<Row>, StorageError> {
        if i >= self.rows {
            return Ok(None);
        }
        let p = i / self.page_rows;
        let off = i - p * self.page_rows;
        columns
            .into_iter()
            .map(|c| Ok(self.column_page(c, p)?.value(off)))
            .collect::<Result<Row, _>>()
            .map(Some)
    }

    /// Decodes every page back into resident rows (page by page, so peak
    /// extra memory beyond the output is one row group).
    pub fn materialize(&self) -> Result<Vec<Row>, StorageError> {
        let mut rows: Vec<Row> = Vec::with_capacity(self.rows);
        for p in 0..self.page_count() {
            let (start, end) = self.page_bounds(p);
            let cols: Vec<Arc<ColumnVector>> = (0..self.columns.len())
                .map(|c| self.column_page(c, p))
                .collect::<Result<_, _>>()?;
            for off in 0..end - start {
                rows.push(cols.iter().map(|col| col.value(off)).collect());
            }
        }
        Ok(rows)
    }

    /// Streams one column's values as `(row position, value)` without
    /// materializing rows — the index builders' access path.
    pub fn for_each_in_column<F>(&self, c: usize, mut f: F) -> Result<(), StorageError>
    where
        F: FnMut(usize, &Value) -> Result<(), StorageError>,
    {
        for p in 0..self.page_count() {
            let (start, end) = self.page_bounds(p);
            let col = self.column_page(c, p)?;
            for off in 0..end - start {
                f(start + off, &col.value(off))?;
            }
        }
        Ok(())
    }

    /// Writes every dirty page into `pages_dir` under its content-addressed
    /// name, fsynced, and flips its backing to [`PageBacking::File`]. Pages
    /// whose file already exists (identical content from an earlier
    /// checkpoint) are skipped — this is what makes checkpoints incremental.
    pub fn write_durable(&self, pages_dir: &Path) -> Result<PageWriteStats, StorageError> {
        let io = self.pool.io().clone();
        let mut stats = PageWriteStats::default();
        for slots in &self.columns {
            for slot in slots {
                stats.bytes_total += slot.len as u64;
                let path = pages_dir.join(slot.file_name());
                if io.exists(&path) {
                    stats.pages_reused += 1;
                } else {
                    slot.with_encoded(&io, |bytes| {
                        crate::persist::atomic_write_with(&io, &path, bytes)
                    })?;
                    stats.pages_written += 1;
                    stats.bytes_written += slot.len as u64;
                }
                let mut backing = slot.backing.write();
                if matches!(*backing, PageBacking::Mem(_)) {
                    *backing = PageBacking::File(path);
                }
            }
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataType, Schema};

    fn schema() -> Schema {
        Schema::of(&[("id", DataType::Int), ("tag", DataType::Str)])
    }

    fn rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                vec![
                    Value::Int(i as i64),
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Str(format!("tag{}", i % 3))
                    },
                ]
            })
            .collect()
    }

    #[test]
    fn round_trips_through_pages() {
        let pool = Arc::new(BufferPool::with_budget(64));
        let data = rows(1000);
        let pt = PagedTable::from_rows(schema(), &data, pool, 128).unwrap();
        assert_eq!(pt.len(), 1000);
        assert_eq!(pt.page_count(), 8);
        assert_eq!(pt.materialize().unwrap(), data);
        assert_eq!(pt.row_at(999).unwrap().unwrap(), data[999]);
        assert_eq!(pt.row_at(1000).unwrap(), None);
    }

    #[test]
    fn identical_under_tiny_pool() {
        let pool = Arc::new(BufferPool::with_budget(1));
        let data = rows(500);
        let pt = PagedTable::from_rows(schema(), &data, Arc::clone(&pool), 64).unwrap();
        assert_eq!(pt.materialize().unwrap(), data);
        assert!(pool.status().evictions > 0);
    }

    #[test]
    fn drop_evicts_pool_entries() {
        let pool = Arc::new(BufferPool::with_budget(64));
        let data = rows(100);
        let pt = PagedTable::from_rows(schema(), &data, Arc::clone(&pool), 32).unwrap();
        pt.materialize().unwrap();
        assert!(pool.status().resident_pages > 0);
        drop(pt);
        assert_eq!(pool.status().resident_pages, 0);
    }

    #[test]
    fn shared_pages_are_decoded_once_and_evicted_with_their_last_holder() {
        let pool = Arc::new(BufferPool::with_budget(64));
        let data = rows(100);
        let first = PagedTable::from_rows(schema(), &data[..70], Arc::clone(&pool), 32).unwrap();
        let second = first.extended(&data[70..]).unwrap();
        assert_eq!((first.page_count(), second.page_count()), (3, 4));
        // Sealing read the short last page of each column and nothing else.
        assert_eq!(pool.status().misses, 2);
        assert_eq!(first.materialize().unwrap(), data[..70]);
        assert_eq!(second.materialize().unwrap(), data);
        // 2 columns x (2 shared full pages + first's short page + second's
        // two new pages), each decoded exactly once.
        assert_eq!(pool.status().misses, 10);
        assert_eq!(pool.status().resident_pages, 10);
        // Dropping the older part evicts only the page nobody else holds.
        drop(first);
        assert_eq!(pool.status().resident_pages, 8);
        assert_eq!(second.materialize().unwrap(), data);
        assert_eq!(pool.status().misses, 10);
        drop(second);
        assert_eq!(pool.status().resident_pages, 0);
    }

    #[test]
    fn write_durable_is_incremental() {
        let dir = tempdir();
        let pool = Arc::new(BufferPool::with_budget(64));
        let data = rows(256);
        let pt = PagedTable::from_rows(schema(), &data, Arc::clone(&pool), 64).unwrap();
        assert_eq!(pt.dirty_pages(), pt.page_count() * 2);
        let first = pt.write_durable(&dir).unwrap();
        assert_eq!(first.pages_written, pt.page_count() * 2);
        assert_eq!(first.pages_reused, 0);
        assert_eq!(pt.dirty_pages(), 0);
        // Re-paging identical content reuses every file.
        let pt2 = PagedTable::from_rows(schema(), &data, Arc::clone(&pool), 64).unwrap();
        let second = pt2.write_durable(&dir).unwrap();
        assert_eq!(second.pages_written, 0);
        assert_eq!(second.pages_reused, pt.page_count() * 2);
        assert_eq!(second.bytes_written, 0);
        // One appended row dirties only the last page of each column.
        let mut more = data.clone();
        more.push(vec![Value::Int(256), Value::Str("tag0".into())]);
        let pt3 = PagedTable::from_rows(schema(), &more, Arc::clone(&pool), 64).unwrap();
        let third = pt3.write_durable(&dir).unwrap();
        assert_eq!(third.pages_written, 2); // last page of each of 2 columns
        assert!(third.bytes_written < first.bytes_written);
        // File-backed pages still materialize correctly.
        assert_eq!(pt3.materialize().unwrap(), more);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovered_tables_read_lazily() {
        let dir = tempdir();
        let pool = Arc::new(BufferPool::with_budget(64));
        let data = rows(200);
        let pt = PagedTable::from_rows(schema(), &data, Arc::clone(&pool), 64).unwrap();
        pt.write_durable(&dir).unwrap();
        let recovered: Vec<Vec<RecoveredPage>> = (0..2)
            .map(|c| {
                (0..pt.page_count())
                    .map(|p| {
                        let s = pt.slot(c, p);
                        RecoveredPage {
                            path: dir.join(s.file_name()),
                            len: s.encoded_len() as u32,
                            crc: s.crc(),
                            fnv: s.fnv(),
                            zone: s.zone().clone(),
                        }
                    })
                    .collect()
            })
            .collect();
        let back =
            PagedTable::from_recovered(schema(), 200, 64, recovered, Arc::clone(&pool)).unwrap();
        assert_eq!(back.dirty_pages(), 0);
        assert_eq!(back.materialize().unwrap(), data);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn page_reads_retry_once_then_surface_typed_errors() {
        use crate::{FaultKind, FaultPlan, IoOp};
        let dir = tempdir();
        let io = Io::real();
        let pool = Arc::new(BufferPool::with_budget_io(1, io.clone()));
        let data = rows(200);
        let pt = PagedTable::from_rows(schema(), &data, Arc::clone(&pool), 64).unwrap();
        pt.write_durable(&dir).unwrap();
        // A transient read fault is retried once and hidden from the scan
        // (budget 1 forces a disk read per page).
        io.install_faults(FaultPlan::at(1, FaultKind::Transient).on_ops(&[IoOp::Read]));
        assert_eq!(pt.materialize().unwrap(), data);
        // A persistent read fault surfaces as Io — never a panic or a
        // wrong batch.
        io.install_faults(FaultPlan::probabilistic(1, 1.0).with_kinds(&[FaultKind::Permanent]));
        assert!(matches!(pt.materialize().unwrap_err(), StorageError::Io(_)));
        io.clear_faults();
        assert_eq!(pt.materialize().unwrap(), data);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shape_mismatch_is_corrupt() {
        let pool = Arc::new(BufferPool::with_budget(4));
        let err = PagedTable::from_recovered(schema(), 10, 4, vec![], pool).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)));
    }

    fn tempdir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "kathdb-paged-test-{}-{}",
            std::process::id(),
            NEXT_SLOT_ID.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
