//! Morsel-driven parallel execution.
//!
//! A *morsel* is a fixed-size contiguous range of a scan's input — a few
//! batches' worth of rows. Workers claim morsels from a shared
//! [`MorselSource`] through an atomic cursor, run the (stateless) streaming
//! part of a pipeline over each claimed morsel, and hand back per-morsel
//! outputs. Because outputs are re-assembled **in morsel order**, the merged
//! stream is exactly the stream a serial run would have produced — the
//! scheduling of workers can never leak into results (the "encapsulation of
//! parallelism" Volcano asks of an execution model).
//!
//! The primitives here are deliberately small: a claimable range source, a
//! scoped-thread worker loop ([`run_morsels`]), and per-worker timing. The
//! SQL planner composes them with the shared-build hash join, partial
//! aggregation, and sorted-run merge from [`crate::ops`] into full parallel
//! query pipelines.

use crate::guard::QueryGuard;
use crate::StorageError;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// How many batches one morsel spans. Morsels are a small multiple of the
/// batch size so a worker amortizes its claim (one atomic increment) over
/// several tight batch loops, while the work-list stays fine-grained enough
/// to balance skewed pipelines.
pub const MORSEL_BATCHES: usize = 4;

/// One claimed unit of scan work: rows `[start, end)` of the source, with
/// its position in scan order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsel {
    /// Zero-based claim sequence number — equals `start / morsel_rows`.
    /// Outputs merged in `seq` order reproduce the serial stream.
    pub seq: usize,
    /// First row (inclusive).
    pub start: usize,
    /// Last row (exclusive).
    pub end: usize,
}

impl Morsel {
    /// Number of rows in the morsel.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the morsel is empty (never produced by a source).
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Hands out fixed-size row ranges of a scan via an atomic cursor.
///
/// The source is shape-agnostic: `total` may count table rows (for a
/// [`crate::TableScan`]) or a vector index's scored entries.
#[derive(Debug)]
pub struct MorselSource {
    total: usize,
    morsel_rows: usize,
    cursor: AtomicUsize,
}

impl MorselSource {
    /// A source over `total` rows handing out morsels of `morsel_rows`
    /// (min 1; the final morsel may be short).
    pub fn new(total: usize, morsel_rows: usize) -> Self {
        Self {
            total,
            morsel_rows: morsel_rows.max(1),
            cursor: AtomicUsize::new(0),
        }
    }

    /// A source whose morsels span [`MORSEL_BATCHES`] batches of
    /// `batch_size` rows, so per-worker batch boundaries line up exactly
    /// with a serial batched scan.
    pub fn with_batch_size(total: usize, batch_size: usize) -> Self {
        Self::new(total, batch_size.max(1).saturating_mul(MORSEL_BATCHES))
    }

    /// Like [`MorselSource::with_batch_size`], but rounds the morsel size
    /// up to a multiple of `align` — paged scans align morsels to page
    /// boundaries so no two workers decode the same column page.
    pub fn with_batch_size_aligned(total: usize, batch_size: usize, align: usize) -> Self {
        let base = batch_size.max(1).saturating_mul(MORSEL_BATCHES);
        let align = align.max(1);
        Self::new(total, base.div_ceil(align).max(1).saturating_mul(align))
    }

    /// Claims the next morsel, or `None` when the scan is exhausted.
    pub fn claim(&self) -> Option<Morsel> {
        let start = self.cursor.fetch_add(self.morsel_rows, Ordering::Relaxed); // lint: relaxed-ok — the RMW hands out disjoint ranges; no ordering needed
        if start >= self.total {
            return None;
        }
        Some(Morsel {
            seq: start / self.morsel_rows,
            start,
            end: (start + self.morsel_rows).min(self.total),
        })
    }

    /// Rows per (full) morsel.
    pub fn morsel_rows(&self) -> usize {
        self.morsel_rows
    }

    /// Total number of morsels the source will hand out.
    pub fn morsel_count(&self) -> usize {
        self.total.div_ceil(self.morsel_rows)
    }
}

/// The result of a [`run_morsels`] sweep: per-morsel outputs in scan order
/// plus per-worker busy time.
#[derive(Debug)]
pub struct MorselRun<T> {
    /// One output per morsel, indexed by [`Morsel::seq`].
    pub outputs: Vec<T>,
    /// Wall-clock milliseconds each worker spent in its claim loop.
    pub worker_ms: Vec<f64>,
}

impl<T> MorselRun<T> {
    /// Folds the outputs, in morsel order, with `merge`. Returns what it
    /// made, each worker's busy milliseconds, and the merge's own
    /// wall-clock milliseconds.
    pub fn merge<R>(self, merge: impl FnOnce(Vec<T>) -> R) -> (R, Vec<f64>, f64) {
        let started = Instant::now(); // lint: nondet-ok — merge-time telemetry; the merged value never depends on it
        let merged = merge(self.outputs);
        let merge_ms = started.elapsed().as_secs_f64() * 1000.0;
        (merged, self.worker_ms, merge_ms)
    }
}

/// Runs `work` over every morsel of `source` on `workers` threads
/// (`std::thread::scope`; the calling thread doubles as worker 0, so
/// `workers == 1` spawns nothing and degenerates to a serial loop).
///
/// Outputs are returned **in morsel order**, independent of which worker
/// processed which morsel. On error, the sweep stops early and the error of
/// the lowest-numbered failing morsel is returned — the same error a serial
/// left-to-right run would have hit first.
pub fn run_morsels<T, F>(
    source: &MorselSource,
    workers: usize,
    work: F,
) -> Result<MorselRun<T>, StorageError>
where
    T: Send,
    F: Fn(Morsel) -> Result<T, StorageError> + Sync,
{
    run_morsels_guarded(source, workers, &QueryGuard::unlimited(), work)
}

/// [`run_morsels`] under a [`QueryGuard`]: every worker re-checks the guard
/// after claiming a morsel and before running it, so cancellation and
/// deadlines take effect at morsel granularity. A tripped guard is recorded
/// at that morsel's `seq`, and the earliest-morsel error rule then makes the
/// result deterministic: the same typed error a serial run would surface.
pub fn run_morsels_guarded<T, F>(
    source: &MorselSource,
    workers: usize,
    guard: &QueryGuard,
    work: F,
) -> Result<MorselRun<T>, StorageError>
where
    T: Send,
    F: Fn(Morsel) -> Result<T, StorageError> + Sync,
{
    let workers = workers.max(1).min(source.morsel_count().max(1));
    let slots: Vec<parking_lot::Mutex<Option<T>>> = (0..source.morsel_count())
        .map(|_| parking_lot::Mutex::new(None))
        .collect();
    let failure: parking_lot::Mutex<Option<(usize, StorageError)>> = parking_lot::Mutex::new(None);
    let abort = AtomicBool::new(false);
    let timings: Vec<parking_lot::Mutex<f64>> =
        (0..workers).map(|_| parking_lot::Mutex::new(0.0)).collect();

    let worker_loop = |w: usize| {
        let started = Instant::now(); // lint: nondet-ok — per-worker busy-time telemetry; merged outputs stay in morsel order
                                      // Acquire pairs with the Release store below: a worker that sees
                                      // the abort also sees the failure recorded before it.
        while !abort.load(Ordering::Acquire) {
            let Some(morsel) = source.claim() else {
                break;
            };
            match guard.check().and_then(|()| work(morsel)) {
                Ok(out) => *slots[morsel.seq].lock() = Some(out),
                Err(e) => {
                    let mut slot = failure.lock();
                    // Keep the error of the earliest morsel: that is the one
                    // a serial run would have surfaced.
                    if slot.as_ref().is_none_or(|(seq, _)| morsel.seq < *seq) {
                        *slot = Some((morsel.seq, e));
                    }
                    abort.store(true, Ordering::Release);
                }
            }
        }
        *timings[w].lock() = started.elapsed().as_secs_f64() * 1000.0;
    };

    if workers == 1 {
        worker_loop(0);
    } else {
        std::thread::scope(|scope| {
            for w in 1..workers {
                let worker_loop = &worker_loop;
                scope.spawn(move || worker_loop(w));
            }
            worker_loop(0);
        });
    }

    if let Some((_, e)) = failure.into_inner() {
        return Err(e);
    }
    // With no failure recorded every morsel was claimed and ran, so every
    // slot is filled; an empty one is reported, not assumed away.
    let outputs = slots
        .into_iter()
        .enumerate()
        .map(|(seq, slot)| {
            slot.into_inner()
                .ok_or_else(|| StorageError::Eval(format!("morsel {seq} produced no output")))
        })
        .collect::<Result<_, _>>()?;
    Ok(MorselRun {
        outputs,
        worker_ms: timings.into_iter().map(|t| t.into_inner()).collect(),
    })
}

/// The degree of parallelism the host offers (≥ 1). Callers cap their
/// worker counts here; the cost model uses it as the ceiling for its
/// degree-of-parallelism choice. Read once: asking the OS (affinity
/// mask, cgroup files) takes ≈ 25 µs, and every statement asks.
pub fn host_parallelism() -> usize {
    static HOST: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morsels_tile_the_input_exactly() {
        let src = MorselSource::new(10, 4);
        assert_eq!(src.morsel_count(), 3);
        let m0 = src.claim().unwrap();
        let m1 = src.claim().unwrap();
        let m2 = src.claim().unwrap();
        assert_eq!((m0.start, m0.end, m0.seq), (0, 4, 0));
        assert_eq!((m1.start, m1.end, m1.seq), (4, 8, 1));
        assert_eq!((m2.start, m2.end, m2.seq), (8, 10, 2));
        assert_eq!(m2.len(), 2);
        assert!(src.claim().is_none());
        assert!(src.claim().is_none()); // stays exhausted
    }

    #[test]
    fn empty_source_hands_out_nothing() {
        let src = MorselSource::new(0, 4);
        assert_eq!(src.morsel_count(), 0);
        assert!(src.claim().is_none());
    }

    #[test]
    fn batch_aligned_source_spans_morsel_batches() {
        let src = MorselSource::with_batch_size(10_000, 1024);
        assert_eq!(src.morsel_rows(), 1024 * MORSEL_BATCHES);
    }

    #[test]
    fn run_morsels_preserves_scan_order_at_any_worker_count() {
        let src_rows = 999usize;
        for workers in [1usize, 2, 8] {
            let src = MorselSource::new(src_rows, 64);
            let run =
                run_morsels(&src, workers, |m| Ok((m.start..m.end).collect::<Vec<_>>())).unwrap();
            let flat: Vec<usize> = run.outputs.into_iter().flatten().collect();
            assert_eq!(flat, (0..src_rows).collect::<Vec<_>>(), "workers {workers}");
            assert!(!run.worker_ms.is_empty());
        }
    }

    #[test]
    fn run_morsels_reports_the_earliest_error() {
        let src = MorselSource::new(100, 10);
        let err = run_morsels(&src, 4, |m| {
            if m.seq >= 3 {
                Err(StorageError::Eval(format!("boom at {}", m.seq)))
            } else {
                Ok(m.seq)
            }
        })
        .unwrap_err();
        // Workers may hit seq 4..9 first, but the reported error must be the
        // earliest failing morsel a serial run would have reached.
        assert!(
            matches!(&err, StorageError::Eval(m) if m == "boom at 3"),
            "{err:?}"
        );
    }

    #[test]
    fn host_parallelism_is_at_least_one() {
        assert!(host_parallelism() >= 1);
    }

    #[test]
    fn guarded_run_cancels_deterministically() {
        use std::time::Duration;
        // A 0ms deadline trips on the very first claimed morsel, and the
        // earliest-morsel rule pins the reported error to seq 0 regardless
        // of worker count or scheduling.
        for workers in [1usize, 4] {
            let src = MorselSource::new(1000, 10);
            let guard = QueryGuard::unlimited().with_timeout(Duration::ZERO);
            let err = run_morsels_guarded(&src, workers, &guard, Ok).unwrap_err();
            assert!(matches!(err, StorageError::Cancelled(_)), "{err:?}");
        }
        // An untripped guard changes nothing.
        let src = MorselSource::new(100, 10);
        let run = run_morsels_guarded(&src, 4, &QueryGuard::unlimited(), |m| Ok(m.seq)).unwrap();
        assert_eq!(run.outputs, (0..10).collect::<Vec<_>>());
    }
}
