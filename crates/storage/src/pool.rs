//! Buffer pool: a bounded LRU cache of decoded column pages.
//!
//! Every sealed table part reads its column pages through a shared
//! [`BufferPool`]. The pool caches *decoded* pages (`Arc<ColumnVector>`)
//! under a page-count budget; when the budget is exceeded the
//! least-recently-used unpinned page is evicted and must be re-decoded (or
//! re-read from disk) on the next touch. An evicted page is unlinked under
//! the pool mutex and freed after it is released: the mutex is the one every
//! other worker's *hit* takes, and a page can be thousands of allocations. A page is cached under its own
//! identity ([`PageKey`]), not its table's: the versions of a table share
//! their sealed pages, so a page they share is decoded once for all of
//! them and leaves the pool when the last of them lets go of it. The
//! budget comes from `KATHDB_POOL_PAGES` (default 4096 pages) or
//! [`BufferPool::set_budget`]. Hit/miss/eviction and zone-map-skip counters
//! feed `\pool` in the REPL and `durability_status()` in the facade.

use crate::io::Io;
use crate::{ColumnData, ColumnVector, StorageError, Value};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Environment variable naming the pool budget in pages.
pub const POOL_PAGES_ENV: &str = "KATHDB_POOL_PAGES";

/// Default pool budget in pages when `KATHDB_POOL_PAGES` is unset.
pub const DEFAULT_POOL_PAGES: usize = 4096;

/// Identity of one sealed column page: the process-unique id minted with
/// its [`crate::PageSlot`], whichever tables hold that slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageKey(pub u64);

struct Entry {
    col: Arc<ColumnVector>,
    bytes: usize,
    last_used: u64,
}

#[derive(Default)]
struct Inner {
    map: HashMap<PageKey, Entry>,
    tick: u64,
}

/// Point-in-time snapshot of pool occupancy and counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStatus {
    /// Budget in pages.
    pub budget_pages: usize,
    /// Decoded pages currently resident.
    pub resident_pages: usize,
    /// Estimated bytes held by resident pages.
    pub resident_bytes: usize,
    /// Lookups served from the pool.
    pub hits: u64,
    /// Lookups that had to decode (or read) the page.
    pub misses: u64,
    /// Pages evicted to stay within budget.
    pub evictions: u64,
    /// Pages skipped by zone-map pruning before any decode.
    pub zone_skips: u64,
}

/// A bounded LRU cache of decoded column pages, shared by all paged tables
/// of one catalog.
#[derive(Debug)]
pub struct BufferPool {
    budget: AtomicUsize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    zone_skips: AtomicU64,
    /// The database's I/O seam: page reads, the WAL, and checkpoints of
    /// the catalog owning this pool all share it, so one `\faults` spec
    /// (or `KATHDB_FAULTS`) covers the whole durability path.
    io: Io,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field("resident", &self.map.len())
            .finish()
    }
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::from_env()
    }
}

impl BufferPool {
    /// A pool with an explicit page budget (min 1) over the real backend.
    pub fn with_budget(pages: usize) -> Self {
        Self::with_budget_io(pages, Io::real())
    }

    /// A pool with an explicit page budget and I/O seam.
    pub fn with_budget_io(pages: usize, io: Io) -> Self {
        Self {
            budget: AtomicUsize::new(pages.max(1)),
            inner: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            zone_skips: AtomicU64::new(0),
            io,
        }
    }

    /// A pool budgeted from `KATHDB_POOL_PAGES` (default
    /// [`DEFAULT_POOL_PAGES`]), with an I/O seam honouring `KATHDB_FAULTS`
    /// (test-only).
    pub fn from_env() -> Self {
        let pages = std::env::var(POOL_PAGES_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_POOL_PAGES);
        Self::with_budget_io(pages, Io::from_env())
    }

    /// The database's I/O seam (shared by page reads, the WAL, and
    /// checkpoints).
    pub fn io(&self) -> &Io {
        &self.io
    }

    /// Current budget in pages.
    pub fn budget(&self) -> usize {
        self.budget.load(Ordering::Relaxed) // lint: relaxed-ok — budget is a tuning knob; a stale read only delays eviction by one op
    }

    /// Re-budgets the pool, evicting down to the new cap immediately.
    pub fn set_budget(&self, pages: usize) {
        self.budget.store(pages.max(1), Ordering::Relaxed); // lint: relaxed-ok — budget is a tuning knob; a stale read only delays eviction by one op
        let victims = self.evict_to_budget(&mut self.inner.lock(), None);
        drop(victims); // the lock is released: see `evict_to_budget`
    }

    /// Returns the decoded page for `key`, loading it with `loader` on a
    /// miss. The just-loaded page is never evicted by its own insertion,
    /// so the pool makes progress even with a 1-page budget.
    pub fn get_or_load<F>(&self, key: PageKey, loader: F) -> Result<Arc<ColumnVector>, StorageError>
    where
        F: FnOnce() -> Result<Arc<ColumnVector>, StorageError>,
    {
        {
            let mut inner = self.inner.lock();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.map.get_mut(&key) {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok — telemetry counter
                return Ok(Arc::clone(&entry.col));
            }
        }
        // Decode outside the lock: concurrent scans of distinct pages
        // should not serialize on the pool mutex.
        self.misses.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok — telemetry counter
        let col = loader()?;
        let bytes = estimate_bytes(&col);
        let victims = {
            let mut inner = self.inner.lock();
            inner.tick += 1;
            let entry = Entry {
                col: Arc::clone(&col),
                bytes,
                last_used: inner.tick,
            };
            // A racing loader of the same page may have put its copy in.
            let replaced = inner.map.insert(key, entry);
            let mut victims = self.evict_to_budget(&mut inner, Some(key));
            victims.extend(replaced);
            victims
        };
        drop(victims); // the lock is released: see `evict_to_budget`
        Ok(col)
    }

    /// Unlinks least-recently-used pages until the pool is within budget
    /// and hands them back: the caller drops them once `inner` is unlocked,
    /// so freeing what may be the last reference to a page never runs under
    /// the mutex.
    #[must_use]
    fn evict_to_budget(&self, inner: &mut Inner, keep: Option<PageKey>) -> Vec<Entry> {
        let budget = self.budget();
        let mut victims = Vec::new();
        while inner.map.len() > budget {
            let victim = inner
                .map
                .iter()
                .filter(|(k, _)| Some(**k) != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            // `None`: only the pinned page remains.
            let Some(entry) = victim.and_then(|k| inner.map.remove(&k)) else {
                break;
            };
            victims.push(entry);
            self.evictions.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok — telemetry counter
        }
        victims
    }

    /// Drops the decoded copy of page `key`, if resident (called when the
    /// last table holding the page's slot goes, so it is not stranded in
    /// the pool).
    pub(crate) fn evict(&self, key: PageKey) {
        let removed = self.inner.lock().map.remove(&key);
        drop(removed); // after the guard: a temporary of the line above
    }

    /// Records a page skipped via its zone map (pruned before decode).
    pub fn note_zone_skip(&self) {
        self.zone_skips.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok — telemetry counter
    }

    /// Snapshot of occupancy and counters.
    pub fn status(&self) -> PoolStatus {
        let inner = self.inner.lock();
        PoolStatus {
            budget_pages: self.budget(),
            resident_pages: inner.map.len(),
            resident_bytes: inner.map.values().map(|e| e.bytes).sum(),
            hits: self.hits.load(Ordering::Relaxed), // lint: relaxed-ok — stats snapshot; approximate reads are fine
            misses: self.misses.load(Ordering::Relaxed), // lint: relaxed-ok — stats snapshot; approximate reads are fine
            evictions: self.evictions.load(Ordering::Relaxed), // lint: relaxed-ok — stats snapshot; approximate reads are fine
            zone_skips: self.zone_skips.load(Ordering::Relaxed), // lint: relaxed-ok — stats snapshot; approximate reads are fine
        }
    }

    /// Zeroes the hit/miss/eviction/zone-skip counters (occupancy is kept).
    pub fn reset_counters(&self) {
        self.hits.store(0, Ordering::Relaxed); // lint: relaxed-ok — telemetry reset
        self.misses.store(0, Ordering::Relaxed); // lint: relaxed-ok — telemetry reset
        self.evictions.store(0, Ordering::Relaxed); // lint: relaxed-ok — telemetry reset
        self.zone_skips.store(0, Ordering::Relaxed); // lint: relaxed-ok — telemetry reset
    }
}

/// Rough heap footprint of a decoded page, for `resident_bytes` reporting,
/// read off the typed payload in place.
fn estimate_bytes(col: &ColumnVector) -> usize {
    let owned = std::mem::size_of::<String>();
    let payload = match col.data() {
        ColumnData::Int(_) | ColumnData::Float(_) | ColumnData::Bool(_) => 8 * col.len(),
        ColumnData::Str(v) => v.iter().map(|s| owned + s.len()).sum(),
        ColumnData::StrBuf(v) => v.heap_bytes(),
        ColumnData::Mixed(v) => v
            .iter()
            .map(|v| match v {
                Value::Str(s) => owned + s.len(),
                Value::Blob(b) => owned + b.len(),
                _ => 8,
            })
            .sum(),
    };
    std::mem::size_of::<ColumnVector>() + col.len() / 8 + payload
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(vals: &[i64]) -> Arc<ColumnVector> {
        Arc::new(ColumnVector::from_values(
            vals.iter().map(|&i| Value::Int(i)).collect(),
        ))
    }

    fn key(p: u32) -> PageKey {
        PageKey(p as u64)
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let pool = BufferPool::with_budget(8);
        for _ in 0..3 {
            pool.get_or_load(key(0), || Ok(page(&[1, 2]))).unwrap();
        }
        let s = pool.status();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 2);
        assert_eq!(s.resident_pages, 1);
        assert!(s.resident_bytes > 0);
    }

    #[test]
    fn lru_evicts_the_coldest_page() {
        let pool = BufferPool::with_budget(2);
        pool.get_or_load(key(0), || Ok(page(&[0]))).unwrap();
        pool.get_or_load(key(1), || Ok(page(&[1]))).unwrap();
        pool.get_or_load(key(0), || Ok(page(&[0]))).unwrap(); // refresh 0
        pool.get_or_load(key(2), || Ok(page(&[2]))).unwrap(); // evicts 1
        let s = pool.status();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.resident_pages, 2);
        // Page 1 must reload; pages 0 and 2 are hits.
        pool.get_or_load(key(0), || panic!("0 should be resident"))
            .unwrap();
        pool.get_or_load(key(2), || panic!("2 should be resident"))
            .unwrap();
        let mut reloaded = false;
        pool.get_or_load(key(1), || {
            reloaded = true;
            Ok(page(&[1]))
        })
        .unwrap();
        assert!(reloaded);
    }

    #[test]
    fn one_page_budget_still_progresses() {
        let pool = BufferPool::with_budget(1);
        for p in 0..4 {
            let got = pool.get_or_load(key(p), || Ok(page(&[p as i64]))).unwrap();
            assert_eq!(got.value(0), Value::Int(p as i64));
        }
        let s = pool.status();
        assert_eq!(s.resident_pages, 1);
        assert_eq!(s.evictions, 3);
    }

    #[test]
    fn set_budget_evicts_down() {
        let pool = BufferPool::with_budget(4);
        for p in 0..4 {
            pool.get_or_load(key(p), || Ok(page(&[p as i64]))).unwrap();
        }
        pool.set_budget(2);
        assert_eq!(pool.status().resident_pages, 2);
        assert_eq!(pool.budget(), 2);
    }

    #[test]
    fn victims_outlive_the_pool_lock() {
        let pool = BufferPool::with_budget(4);
        // The pool ends up holding the only strong reference to each page.
        let pages: Vec<_> = (0..4)
            .map(|p| {
                let loaded = page(&[p as i64]);
                let weak = Arc::downgrade(&loaded);
                pool.get_or_load(key(p), || Ok(loaded)).unwrap();
                weak
            })
            .collect();
        let alive = || pages.iter().filter(|w| w.strong_count() > 0).count();
        pool.budget.store(1, Ordering::Relaxed);
        let mut inner = pool.inner.lock();
        let victims = pool.evict_to_budget(&mut inner, None);
        // Unlinked and counted, but not freed: the mutex is still held here.
        assert_eq!((victims.len(), inner.map.len(), alive()), (3, 1, 4));
        drop(inner);
        drop(victims);
        assert_eq!(alive(), 1);
        assert_eq!(pool.status().evictions, 3);
        // The public paths free what they evict (after unlocking, by the
        // same hand-off), the replaced copy of a reloaded page included.
        pool.get_or_load(key(9), || Ok(page(&[9]))).unwrap();
        assert_eq!(alive(), 0);
    }

    #[test]
    fn evict_clears_only_that_page() {
        let pool = BufferPool::with_budget(8);
        pool.get_or_load(key(0), || Ok(page(&[1]))).unwrap();
        pool.get_or_load(key(1), || Ok(page(&[2]))).unwrap();
        pool.evict(key(0));
        assert_eq!(pool.status().resident_pages, 1);
        pool.get_or_load(key(1), || panic!("1 should be resident"))
            .unwrap();
    }

    #[test]
    fn loader_error_is_propagated_and_not_cached() {
        let pool = BufferPool::with_budget(2);
        let err = pool
            .get_or_load(key(0), || Err(StorageError::Corrupt("boom".into())))
            .unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)));
        assert_eq!(pool.status().resident_pages, 0);
        pool.get_or_load(key(0), || Ok(page(&[1]))).unwrap();
        assert_eq!(pool.status().resident_pages, 1);
    }
}
