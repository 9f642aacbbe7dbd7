//! Per-query guardrails: deadline, cooperative cancellation, and row/byte
//! budgets, enforced uniformly across the query drives.
//!
//! A [`QueryGuard`] is built once per statement (from the session-level
//! [`GuardSpec`]) and threaded through the drive that runs it:
//!
//! - workers check between morsels (claim, check, work), and every
//!   morsel's [`crate::TableScan`] checks once per batch-sized run of rows,
//!   so a scan under a sort or an aggregate still aborts mid-scan;
//! - the tail's [`crate::drain_guarded`] checks before every `next_batch()`
//!   and charges the result rows, after DISTINCT/LIMIT; the morsels charge
//!   per batch mid-scan instead when every row they emit is a result row.
//!
//! Budgets meter **produced** (root-level) rows and bytes — the work a
//! client would receive — not intermediate operator traffic, so whether a
//! budget trips does not depend on the worker count. A tripped guard
//! surfaces as a typed [`StorageError::Cancelled`] or
//! [`StorageError::Budget`]; partial results are dropped on the unwind
//! path and no catalog state is touched, so the next query on the same
//! catalog runs normally.
//!
//! The unlimited guard is a `None` — every check is one branch on an
//! `Option`, which keeps the overhead of guardrails on un-limited queries
//! below the noise floor (see `fault_bench`).

use crate::batch::{ColumnData, RowBatch};
use crate::{Row, StorageError, Value};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cancellation flag: clone it, hand it to another thread, and
/// [`CancelToken::cancel`] aborts the running query at its next guard
/// check. Flags are one-shot per query — the facade clears the flag after
/// a query returns `Cancelled`, so the next query is unaffected.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-fired token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Fires the token: the owning query aborts at its next check.
    /// Release/Acquire so everything the cancelling thread did before
    /// firing is visible to the query that observes the abort.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Re-arms the token for the next query.
    pub fn clear(&self) {
        self.flag.store(false, Ordering::Release);
    }

    /// Whether the token has fired.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

#[derive(Debug, Default)]
struct GuardInner {
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    row_budget: Option<u64>,
    byte_budget: Option<u64>,
    rows: AtomicU64,
    bytes: AtomicU64,
}

/// The per-query guard. Cheap to clone (an `Arc`); the unlimited guard is
/// a `None` and every operation on it is a single branch.
#[derive(Debug, Clone, Default)]
pub struct QueryGuard {
    inner: Option<Arc<GuardInner>>,
}

impl QueryGuard {
    /// A guard that never trips — the default for un-limited sessions.
    pub fn unlimited() -> QueryGuard {
        QueryGuard::default()
    }

    /// Whether this guard can never trip.
    pub fn is_unlimited(&self) -> bool {
        self.inner.is_none()
    }

    /// The guard with `set` applied to its limits. Builders run before the
    /// guard is shared or charged, so the copy starts its counters at zero.
    fn with(self, set: impl FnOnce(&mut GuardInner)) -> QueryGuard {
        let mut inner = self.inner.map_or_else(GuardInner::default, |i| GuardInner {
            deadline: i.deadline,
            cancel: i.cancel.clone(),
            row_budget: i.row_budget,
            byte_budget: i.byte_budget,
            ..GuardInner::default()
        });
        set(&mut inner);
        QueryGuard {
            inner: Some(Arc::new(inner)),
        }
    }

    /// Trips with `Cancelled` once `Instant::now()` passes `deadline`.
    pub fn with_deadline(self, deadline: Instant) -> QueryGuard {
        self.with(|g| g.deadline = Some(deadline))
    }

    /// Deadline `timeout` from now. A zero timeout trips on the very first
    /// check, before any row is produced.
    pub fn with_timeout(self, timeout: Duration) -> QueryGuard {
        self.with_deadline(Instant::now() + timeout)
    }

    /// Trips with `Cancelled` once `cancel` fires.
    pub fn with_cancel(self, cancel: CancelToken) -> QueryGuard {
        self.with(|g| g.cancel = Some(cancel))
    }

    /// Trips with `Budget` after producing more than `rows` rows.
    pub fn with_row_budget(self, rows: u64) -> QueryGuard {
        self.with(|g| g.row_budget = Some(rows))
    }

    /// Trips with `Budget` after producing more than `bytes` bytes.
    pub fn with_byte_budget(self, bytes: u64) -> QueryGuard {
        self.with(|g| g.byte_budget = Some(bytes))
    }

    /// Checks cancellation and deadline (not budgets). Call this before
    /// producing work.
    pub fn check(&self) -> Result<(), StorageError> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        if let Some(cancel) = &inner.cancel {
            if cancel.is_cancelled() {
                return Err(StorageError::Cancelled("cancel token fired".to_string()));
            }
        }
        if let Some(deadline) = inner.deadline {
            if Instant::now() >= deadline {
                return Err(StorageError::Cancelled("deadline exceeded".to_string()));
            }
        }
        Ok(())
    }

    /// Whether byte accounting is needed (a byte budget is set). Callers
    /// skip footprint computation otherwise.
    pub fn wants_bytes(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.byte_budget.is_some())
    }

    /// Charges `rows` produced rows and `bytes` produced bytes against the
    /// budgets.
    pub fn charge(&self, rows: u64, bytes: u64) -> Result<(), StorageError> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        if let Some(budget) = inner.row_budget {
            let total = inner.rows.fetch_add(rows, Ordering::Relaxed) + rows; // lint: relaxed-ok — the RMW keeps the budget count exact; no other memory rides on it
            if total > budget {
                return Err(StorageError::Budget(format!(
                    "row budget of {budget} exceeded ({total} rows produced)"
                )));
            }
        }
        if let Some(budget) = inner.byte_budget {
            let total = inner.bytes.fetch_add(bytes, Ordering::Relaxed) + bytes; // lint: relaxed-ok — the RMW keeps the budget count exact; no other memory rides on it
            if total > budget {
                return Err(StorageError::Budget(format!(
                    "byte budget of {budget} exceeded ({total} bytes produced)"
                )));
            }
        }
        Ok(())
    }

    /// Charges one produced batch.
    pub fn charge_batch(&self, batch: &RowBatch) -> Result<(), StorageError> {
        if self.inner.is_none() {
            return Ok(());
        }
        let bytes = if self.wants_bytes() {
            batch_footprint(batch)
        } else {
            0
        };
        self.charge(batch.num_rows() as u64, bytes)
    }
}

/// Approximate in-memory footprint of one value (fixed 8 bytes for
/// scalars, 8 + payload for strings/blobs).
pub fn value_footprint(v: &Value) -> u64 {
    match v {
        Value::Null | Value::Int(_) | Value::Float(_) | Value::Bool(_) => 8,
        Value::Str(s) => 8 + s.len() as u64,
        Value::Blob(b) => 8 + b.len() as u64,
    }
}

/// Approximate footprint of one row.
pub fn row_footprint(row: &Row) -> u64 {
    row.iter().map(value_footprint).sum()
}

/// Approximate footprint of one batch (column-wise, no per-row walk for
/// fixed-width columns).
pub fn batch_footprint(batch: &RowBatch) -> u64 {
    batch
        .columns()
        .iter()
        .map(|c| match c.data() {
            ColumnData::Int(v) => 8 * v.len() as u64,
            ColumnData::Float(v) => 8 * v.len() as u64,
            ColumnData::Bool(v) => 8 * v.len() as u64,
            ColumnData::Str(v) => v.iter().map(|s| 8 + s.len() as u64).sum(),
            ColumnData::StrBuf(v) => v.iter().map(|s| 8 + s.len() as u64).sum(),
            ColumnData::Mixed(v) => v.iter().map(value_footprint).sum(),
        })
        .sum()
}

/// Session-level limits (the `KathDB` facade and `ExecContext` hold one):
/// a timeout, optional budgets, and the session's cancel token. Each
/// statement mints a fresh [`QueryGuard`] via [`GuardSpec::guard`], fixing
/// the deadline at statement start.
#[derive(Debug, Clone, Default)]
pub struct GuardSpec {
    /// Per-query wall-clock timeout.
    pub timeout: Option<Duration>,
    /// Per-query produced-row budget.
    pub row_budget: Option<u64>,
    /// Per-query produced-byte budget.
    pub byte_budget: Option<u64>,
    /// The session's cancel token (shared across queries; one-shot — the
    /// facade clears it after a cancelled query returns).
    pub cancel: CancelToken,
}

impl GuardSpec {
    /// Whether every query under this spec runs unguarded.
    pub fn is_unlimited(&self) -> bool {
        self.timeout.is_none() && self.row_budget.is_none() && self.byte_budget.is_none()
    }

    /// Mints the guard for one statement. Unlimited specs still carry the
    /// cancel token, so `cancel()` works even with no timeout set.
    pub fn guard(&self) -> QueryGuard {
        QueryGuard {
            inner: Some(Arc::new(GuardInner {
                deadline: self.timeout.map(|t| Instant::now() + t),
                cancel: Some(self.cancel.clone()),
                row_budget: self.row_budget,
                byte_budget: self.byte_budget,
                ..GuardInner::default()
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_guard_never_trips() {
        let g = QueryGuard::unlimited();
        assert!(g.is_unlimited());
        g.check().unwrap();
        g.charge(1 << 40, 1 << 40).unwrap();
    }

    #[test]
    fn zero_timeout_trips_on_first_check() {
        let g = QueryGuard::unlimited().with_timeout(Duration::ZERO);
        assert!(matches!(g.check(), Err(StorageError::Cancelled(_))));
    }

    #[test]
    fn cancel_token_trips_and_clears() {
        let token = CancelToken::new();
        let g = QueryGuard::unlimited().with_cancel(token.clone());
        g.check().unwrap();
        token.cancel();
        assert!(matches!(g.check(), Err(StorageError::Cancelled(_))));
        token.clear();
        g.check().unwrap();
    }

    #[test]
    fn row_budget_trips_past_the_line() {
        let g = QueryGuard::unlimited().with_row_budget(3);
        g.charge(3, 0).unwrap();
        assert!(matches!(g.charge(1, 0), Err(StorageError::Budget(_))));
    }

    #[test]
    fn byte_budget_counts_payload_bytes() {
        let g = QueryGuard::unlimited().with_byte_budget(20);
        assert!(g.wants_bytes());
        let row: Row = vec![Value::Int(1), Value::Str("abcd".into())];
        assert_eq!(row_footprint(&row), 8 + 8 + 4);
        let batch = RowBatch::from_rows(2, vec![row]);
        g.charge_batch(&batch).unwrap();
        assert!(matches!(
            g.charge_batch(&batch),
            Err(StorageError::Budget(_))
        ));
    }

    #[test]
    fn batch_footprint_matches_row_walk() {
        let rows = vec![
            vec![Value::Int(1), Value::Str("ab".into()), Value::Bool(true)],
            vec![Value::Int(2), Value::Str("c".into()), Value::Null],
        ];
        let by_rows: u64 = rows.iter().map(row_footprint).sum();
        let batch = RowBatch::from_rows(3, rows);
        assert_eq!(batch_footprint(&batch), by_rows);
    }

    #[test]
    fn spec_mints_fresh_deadlines() {
        let spec = GuardSpec {
            timeout: Some(Duration::from_secs(3600)),
            ..GuardSpec::default()
        };
        assert!(!spec.is_unlimited());
        spec.guard().check().unwrap();
        let spec = GuardSpec::default();
        assert!(spec.is_unlimited());
        spec.guard().check().unwrap();
        // Cancel still works on an unlimited spec.
        spec.cancel.cancel();
        assert!(matches!(
            spec.guard().check(),
            Err(StorageError::Cancelled(_))
        ));
    }
}
