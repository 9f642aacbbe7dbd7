//! Row groups: the one shape of a [`crate::Table`]'s rows.
//!
//! A table is a list of [`RowGroup`]s of `page_rows` rows each — every one
//! full except the last — and a group holds one page per column. An *open*
//! group is one resident [`ColumnVector`] per column, the shape pushes
//! append to. A *sealed* group is one compressed page per column
//! ([`PageSlot`]): in memory ([`PageBacking::Mem`], freshly encoded, the
//! *dirty* state) or on disk ([`PageBacking::File`], content-addressed),
//! decoded through the shared [`BufferPool`]. Every group has a zone map
//! per column whenever a hinted scan asks, so open and sealed groups are
//! skipped alike (see [`OpenGroup`]).
//!
//! Slots and open groups are `Arc`-shared, so every table version that
//! holds a group holds the *same* slots. Decoded pages are cached in the
//! pool under the slot's own id: a page shared by many table versions is
//! decoded once, and leaves the pool when its slot is dropped with the last
//! of them. Checkpoints call [`write_durable`], which writes only pages
//! whose content-addressed file (`{crc32}{fnv1a64}.kpg`) does not already
//! exist — that is the whole incremental-checkpoint mechanism.

use crate::io::{with_retry, Io, RetryPolicy};
use crate::page::{decode_page, encode_page, ZoneMap};
use crate::pool::{BufferPool, PageKey};
use crate::wal::crc32;
use crate::{ColumnVector, Row, ScanHint, StorageError, Value};
use bytes::Bytes;
use parking_lot::RwLock;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

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

    /// The slot of a page a checkpoint wrote to `path`, as recovery reads
    /// its `(len, crc, fnv)` address and zone map back.
    pub(crate) fn recovered(
        path: PathBuf,
        address: (u32, u32, u64),
        zone: ZoneMap,
        pool: &Arc<BufferPool>,
    ) -> Arc<Self> {
        Self::new(zone, address, PageBacking::File(path), pool)
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

/// Outcome of one [`write_durable`] call.
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

/// One row group of a table: a page per column, open or sealed (see the
/// module docs).
#[derive(Debug, Clone)]
pub enum RowGroup {
    /// One compressed page per column, read through the buffer pool.
    Sealed(Arc<[Arc<PageSlot>]>),
    /// One resident column per column; a push copies the group first only
    /// when another table value shares it.
    Open(Arc<OpenGroup>),
}

/// The resident columns of an open group and their zone maps: the pages'
/// when the group was reopened, else derived from the columns on a hinted
/// scan's first ask — once for every table value sharing the group. A push
/// widens them once set, an INSERT's copy keeps them and a drain's append
/// resets them.
#[derive(Debug, Clone)]
pub struct OpenGroup {
    pub(crate) columns: Vec<ColumnVector>,
    zones: OnceLock<Vec<ZoneMap>>,
}

impl OpenGroup {
    /// A group of `arity` empty columns.
    pub(crate) fn empty(arity: usize) -> Self {
        let columns = (0..arity).map(|_| ColumnVector::from_values(Vec::new()));
        Self {
            columns: columns.collect(),
            zones: OnceLock::new(),
        }
    }

    /// The copy a push makes of a group another table value holds: room
    /// for twice its rows, at most `page_rows` (so the pushes after it do
    /// not reallocate), string columns in one buffer each (see
    /// [`ColumnVector::copy_with_room`]) and the zone maps as they are.
    pub(crate) fn copy_for_push(&self, page_rows: usize) -> Self {
        let rows = (2 * self.rows()).max(16).min(page_rows);
        Self {
            columns: self
                .columns
                .iter()
                .map(|c| c.copy_with_room(rows))
                .collect(),
            zones: self.zones.clone(),
        }
    }

    /// Rows in the group.
    pub(crate) fn rows(&self) -> usize {
        self.columns.first().map_or(0, ColumnVector::len)
    }

    /// Appends one row, one value per column, widening its zone maps.
    pub(crate) fn push_row(&mut self, row: Row) {
        if let Some(zones) = self.zones.get_mut() {
            zones.iter_mut().zip(&row).for_each(|(z, v)| z.widen(v));
        }
        for (column, value) in self.columns.iter_mut().zip(row) {
            column.push(value);
        }
    }

    /// Appends one column part per column, moving them in, and resets the
    /// zone maps.
    pub(crate) fn append(&mut self, parts: Vec<ColumnVector>) {
        self.zones.take();
        for (column, part) in self.columns.iter_mut().zip(parts) {
            column.extend(part);
        }
    }
}

impl RowGroup {
    /// Runs `f` over column `c` of the group: the decoded page, through
    /// the buffer pool, or the open column in place.
    pub fn read_column<T>(
        &self,
        c: usize,
        f: impl FnOnce(&ColumnVector) -> T,
    ) -> Result<T, StorageError> {
        match self {
            RowGroup::Sealed(slots) => Ok(f(slots[c].decoded()?.as_ref())),
            RowGroup::Open(open) => Ok(f(&open.columns[c])),
        }
    }

    /// Rows in the group.
    pub fn rows(&self) -> usize {
        match self {
            RowGroup::Sealed(slots) => slots.first().map_or(0, |s| s.rows as usize),
            RowGroup::Open(open) => open.rows(),
        }
    }

    /// Whether the group is open: resident columns, not yet sealed.
    pub fn is_open(&self) -> bool {
        matches!(self, RowGroup::Open(_))
    }

    /// The group with its open columns encoded as fresh in-memory pages;
    /// a sealed group is shared as it is.
    pub(crate) fn sealed(&self, pool: &Arc<BufferPool>) -> Result<RowGroup, StorageError> {
        match self {
            RowGroup::Sealed(_) => Ok(self.clone()),
            RowGroup::Open(open) => (open.columns.iter())
                .map(|column| PageSlot::encode(&column.to_values(), pool))
                .collect::<Result<_, _>>()
                .map(RowGroup::Sealed),
        }
    }

    /// The group as an open one, ready to append to: a sealed group's
    /// pages are decoded once, through the pool, kept in the form the pool
    /// holds them, and keep their zone maps.
    pub(crate) fn reopened(&self) -> Result<OpenGroup, StorageError> {
        match self {
            RowGroup::Sealed(slots) => Ok(OpenGroup {
                columns: (slots.iter())
                    .map(|slot| slot.decoded().map(Arc::unwrap_or_clone))
                    .collect::<Result<_, _>>()?,
                zones: OnceLock::from(slots.iter().map(|s| s.zone.clone()).collect::<Vec<_>>()),
            }),
            RowGroup::Open(open) => Ok(OpenGroup::clone(open)),
        }
    }

    /// The zone map of column `c`: a sealed group's page's; an open group
    /// derives every column's on first ask.
    pub fn zone(&self, c: usize) -> &ZoneMap {
        match self {
            RowGroup::Sealed(slots) => &slots[c].zone,
            RowGroup::Open(open) => &open.zones.get_or_init(|| {
                let columns = open.columns.iter();
                columns
                    .map(|column| ZoneMap::compute(&column.to_values()))
                    .collect()
            })[c],
        }
    }

    /// Whether the zone maps leave room for a row of the group that
    /// satisfies every `(column, op, literal)` hint; `false` only when one
    /// of them proves that none can. Counts nothing.
    pub fn may_match(&self, hints: &[ScanHint]) -> bool {
        (hints.iter()).all(|(c, op, lit)| self.zone(*c).may_match(*op, lit))
    }

    /// Whether a zone map proves that no row of the group satisfies every
    /// hint ([`RowGroup::may_match`]), when a scan is about to read it. A
    /// sealed group's skip is counted in the pool, whose pages it saves; an
    /// open group's saves no page read.
    pub(crate) fn prunes(&self, hints: &[ScanHint]) -> bool {
        let pruned = !self.may_match(hints);
        if let (true, RowGroup::Sealed(slots)) = (pruned, self) {
            slots[0].pool.note_zone_skip();
        }
        pruned
    }
}

/// Writes every dirty page of `groups` (each a sealed group's slots) into
/// `pages_dir` under its content-addressed name, fsynced, and flips its
/// backing to [`PageBacking::File`]. Pages whose file already exists
/// (identical content from an earlier checkpoint) are skipped — this is
/// what makes checkpoints incremental. Column by column, the order a
/// checkpoint has always written them in.
pub(crate) fn write_durable(
    groups: &[&[Arc<PageSlot>]],
    pages_dir: &Path,
    io: &Io,
) -> Result<PageWriteStats, StorageError> {
    let mut stats = PageWriteStats::default();
    let arity = groups.first().map_or(0, |slots| slots.len());
    for c in 0..arity {
        for slot in groups.iter().map(|slots| &slots[c]) {
            stats.bytes_total += slot.len as u64;
            let path = pages_dir.join(slot.file_name());
            if io.exists(&path) {
                stats.pages_reused += 1;
            } else {
                slot.with_encoded(io, |bytes| {
                    crate::persist::atomic_write_with(io, &path, bytes)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BinOp, DataType, Row, Schema, Table};

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

    /// `data` sealed into pages of `page_rows` rows.
    fn paged(data: &[Row], pool: &Arc<BufferPool>, page_rows: usize) -> Table {
        Table::from_rows("t", schema(), data.to_vec())
            .unwrap()
            .seal(pool, page_rows)
            .unwrap()
    }

    fn dirty_pages(t: &Table) -> usize {
        let groups = t.sealed_pages().unwrap();
        groups
            .iter()
            .flat_map(|slots| slots.iter())
            .filter(|s| s.is_dirty())
            .count()
    }

    /// Every open group's zone maps, if it has any, against a fresh pass
    /// over its values; returns how many open groups have them.
    fn assert_exact_zones(t: &Table) -> usize {
        let mut set = 0;
        for group in t.groups() {
            if let RowGroup::Open(open) = group {
                if let Some(zones) = open.zones.get() {
                    let columns = open.columns.iter();
                    let fresh: Vec<ZoneMap> =
                        columns.map(|c| ZoneMap::compute(&c.to_values())).collect();
                    assert_eq!(*zones, fresh);
                    set += 1;
                }
            }
        }
        set
    }

    #[test]
    fn open_groups_keep_exact_zone_maps_and_prune_like_sealed_ones() {
        let pool = Arc::new(BufferPool::with_budget(64));
        // Groups of 4, 4 and 2 rows; the short one is reopened by a push
        // and takes its pages' maps, which the pushes widen.
        let mut t = paged(&rows(10), &pool, 4);
        t.push(vec![Value::Int(-5), Value::Null]).unwrap();
        t.push(vec![Value::Int(50), Value::Str("zz".into())])
            .unwrap();
        // A group that was never sealed has no map until a scan asks.
        t.push(vec![Value::Int(7), Value::Str("a".into())]).unwrap();
        assert!(t.groups()[2].is_open() && t.groups()[3].is_open());
        assert_eq!(assert_exact_zones(&t), 1);
        let prunes =
            |t: &Table, g: usize, k: i64| t.groups()[g].prunes(&[(0, BinOp::Eq, Value::Int(k))]);
        assert!(!prunes(&t, 2, -5) && !prunes(&t, 2, 50));
        assert!(prunes(&t, 2, -6) && prunes(&t, 2, 51));
        // It derives its maps, and is skipped by them.
        assert!(!prunes(&t, 3, 7) && prunes(&t, 3, 50));
        assert_eq!(assert_exact_zones(&t), 2);
        let skips = pool.status().zone_skips;
        assert_eq!(skips, 0, "an open group's skip saves no page read");

        // An INSERT's copy keeps the maps; a drain resets them, and the
        // next hinted scan derives them again.
        let mut short = paged(&rows(5), &pool, 4);
        short.push(vec![Value::Int(-1), Value::Null]).unwrap();
        let mut copy = short.clone();
        copy.push(vec![Value::Int(40), Value::Null]).unwrap();
        assert_eq!(assert_exact_zones(&copy), 1);
        assert!(prunes(&copy, 1, 41) && !prunes(&copy, 1, 40) && prunes(&short, 1, 40));
        let batch = crate::RowBatch::from_rows(2, vec![vec![Value::Int(99), Value::Null]]);
        copy.append_batch(batch).unwrap();
        assert_eq!(assert_exact_zones(&copy), 0);
        assert!(!prunes(&copy, 1, 99) && prunes(&copy, 1, 100) && prunes(&copy, 1, -2));
        assert_eq!(assert_exact_zones(&copy), 1);

        // A drained result, never sealed, is skipped like the rest.
        let scan =
            crate::TableScan::new(Arc::new(Table::from_rows("t", schema(), rows(10)).unwrap()));
        let drained = crate::collect("d", Box::new(scan.with_batch_size(3))).unwrap();
        assert!(!prunes(&drained, 0, 9) && prunes(&drained, 0, 10));
        assert_eq!(assert_exact_zones(&drained), 1);
    }

    #[test]
    fn round_trips_through_pages() {
        let pool = Arc::new(BufferPool::with_budget(64));
        let data = rows(1000);
        let pt = paged(&data, &pool, 128);
        assert_eq!(pt.len(), 1000);
        assert_eq!(pt.groups().len(), 8);
        assert_eq!(pt.to_rows().unwrap(), data);
        assert_eq!(pt.row_at(999).unwrap().unwrap(), data[999]);
        assert_eq!(pt.row_at(1000).unwrap(), None);
    }

    #[test]
    fn identical_under_tiny_pool() {
        let pool = Arc::new(BufferPool::with_budget(1));
        let data = rows(500);
        let pt = paged(&data, &pool, 64);
        assert_eq!(pt.to_rows().unwrap(), data);
        assert!(pool.status().evictions > 0);
    }

    #[test]
    fn drop_evicts_pool_entries() {
        let pool = Arc::new(BufferPool::with_budget(64));
        let pt = paged(&rows(100), &pool, 32);
        pt.to_rows().unwrap();
        assert!(pool.status().resident_pages > 0);
        drop(pt);
        assert_eq!(pool.status().resident_pages, 0);
    }

    #[test]
    fn shared_pages_are_decoded_once_and_evicted_with_their_last_holder() {
        let pool = Arc::new(BufferPool::with_budget(64));
        let data = rows(100);
        let first = paged(&data[..70], &pool, 32);
        let mut grown = first.clone();
        grown.extend(data[70..].to_vec()).unwrap();
        let second = grown.seal(&pool, 32).unwrap();
        drop(grown);
        assert_eq!((first.groups().len(), second.groups().len()), (3, 4));
        // Growing reopened the short last page of each column and read
        // nothing else.
        assert_eq!(pool.status().misses, 2);
        assert_eq!(first.to_rows().unwrap(), data[..70]);
        assert_eq!(second.to_rows().unwrap(), data);
        // 2 columns x (2 shared full pages + first's short page + second's
        // two new pages), each decoded exactly once.
        assert_eq!(pool.status().misses, 10);
        assert_eq!(pool.status().resident_pages, 10);
        // Dropping the older table evicts only the page nobody else holds.
        drop(first);
        assert_eq!(pool.status().resident_pages, 8);
        assert_eq!(second.to_rows().unwrap(), data);
        assert_eq!(pool.status().misses, 10);
        drop(second);
        assert_eq!(pool.status().resident_pages, 0);
    }

    #[test]
    fn write_durable_is_incremental() {
        let dir = tempdir();
        let pool = Arc::new(BufferPool::with_budget(64));
        let data = rows(256);
        let pt = paged(&data, &pool, 64);
        let pages = pt.groups().len() * 2;
        assert_eq!(dirty_pages(&pt), pages);
        let first = write_durable(&pt.sealed_pages().unwrap(), &dir, pool.io()).unwrap();
        assert_eq!(first.pages_written, pages);
        assert_eq!(first.pages_reused, 0);
        assert_eq!(dirty_pages(&pt), 0);
        // Re-paging identical content reuses every file.
        let pt2 = paged(&data, &pool, 64);
        let second = write_durable(&pt2.sealed_pages().unwrap(), &dir, pool.io()).unwrap();
        assert_eq!(second.pages_written, 0);
        assert_eq!(second.pages_reused, pages);
        assert_eq!(second.bytes_written, 0);
        // One appended row dirties only the last page of each column.
        let mut more = data.clone();
        more.push(vec![Value::Int(256), Value::Str("tag0".into())]);
        let pt3 = paged(&more, &pool, 64);
        let third = write_durable(&pt3.sealed_pages().unwrap(), &dir, pool.io()).unwrap();
        assert_eq!(third.pages_written, 2); // last page of each of 2 columns
        assert!(third.bytes_written < first.bytes_written);
        // File-backed pages still materialize correctly.
        assert_eq!(pt3.to_rows().unwrap(), more);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovered_tables_read_lazily() {
        let dir = tempdir();
        let pool = Arc::new(BufferPool::with_budget(64));
        let data = rows(200);
        let pt = paged(&data, &pool, 64);
        write_durable(&pt.sealed_pages().unwrap(), &dir, pool.io()).unwrap();
        let groups = pt.sealed_pages().unwrap();
        let recovered: Vec<Vec<Arc<PageSlot>>> = (0..2)
            .map(|c| {
                groups
                    .iter()
                    .map(|slots| {
                        let s = &slots[c];
                        let address = (s.encoded_len() as u32, s.crc(), s.fnv());
                        let path = dir.join(s.file_name());
                        PageSlot::recovered(path, address, s.zone().clone(), &pool)
                    })
                    .collect()
            })
            .collect();
        let back =
            Table::from_recovered("t".into(), schema(), (200, 64), recovered, &pool).unwrap();
        assert_eq!(dirty_pages(&back), 0);
        assert_eq!(back.to_rows().unwrap(), data);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn page_reads_retry_once_then_surface_typed_errors() {
        use crate::{FaultKind, FaultPlan, IoOp};
        let dir = tempdir();
        let io = Io::real();
        let pool = Arc::new(BufferPool::with_budget_io(1, io.clone()));
        let data = rows(200);
        let pt = paged(&data, &pool, 64);
        write_durable(&pt.sealed_pages().unwrap(), &dir, pool.io()).unwrap();
        // A transient read fault is retried once and hidden from the scan
        // (budget 1 forces a disk read per page).
        io.install_faults(FaultPlan::at(1, FaultKind::Transient).on_ops(&[IoOp::Read]));
        assert_eq!(pt.to_rows().unwrap(), data);
        // A persistent read fault surfaces as Io — never a panic or a
        // wrong batch.
        io.install_faults(FaultPlan::probabilistic(1, 1.0).with_kinds(&[FaultKind::Permanent]));
        assert!(matches!(pt.to_rows().unwrap_err(), StorageError::Io(_)));
        io.clear_faults();
        assert_eq!(pt.to_rows().unwrap(), data);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shape_mismatch_is_corrupt() {
        let pool = Arc::new(BufferPool::with_budget(4));
        let err = Table::from_recovered("t".into(), schema(), (10, 4), vec![], &pool).unwrap_err();
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
