//! Execution errors, split along the paper's syntactic/semantic line (§2.3).

use kath_storage::StorageError;
use std::fmt;

/// A fatal (whole-node) execution error. Per-row failures are *not* errors:
/// they travel in [`crate::ExecOutcome::failed_rows`] so unaffected tuples
/// keep flowing (§5).
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A query guard tripped while a node ran — the deadline passed, the
    /// cancel token fired, or a row/byte budget ran out. Carries the
    /// storage layer's typed [`StorageError::Cancelled`] /
    /// [`StorageError::Budget`] as it was raised. Not a fault of the
    /// function: the monitor hands it back untouched instead of repairing.
    Guard(StorageError),
    /// SQL parse/plan/execution failure.
    Sql(String),
    /// Storage-layer failure (schema, unknown table/column).
    Storage(String),
    /// Expression parse/eval failure.
    Expr(String),
    /// Media failure affecting the whole node.
    Media(String),
    /// Lineage recording failure.
    Lineage(String),
    /// Function registry failure.
    Registry(String),
    /// The monitor exhausted its repair attempts.
    RepairFailed {
        /// The failing function.
        func_id: String,
        /// The last error message.
        last_error: String,
        /// Repair attempts made.
        attempts: u32,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Guard(e) => write!(f, "{e}"),
            ExecError::Sql(m) => write!(f, "sql error: {m}"),
            ExecError::Storage(m) => write!(f, "storage error: {m}"),
            ExecError::Expr(m) => write!(f, "expression error: {m}"),
            ExecError::Media(m) => write!(f, "media error: {m}"),
            ExecError::Lineage(m) => write!(f, "lineage error: {m}"),
            ExecError::Registry(m) => write!(f, "registry error: {m}"),
            ExecError::RepairFailed {
                func_id,
                last_error,
                attempts,
            } => write!(
                f,
                "function '{func_id}' still failing after {attempts} repair attempt(s): {last_error}"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<kath_sql::SqlError> for ExecError {
    fn from(e: kath_sql::SqlError) -> Self {
        match e {
            kath_sql::SqlError::Storage(
                e @ (StorageError::Cancelled(_) | StorageError::Budget(_)),
            ) => ExecError::Guard(e),
            e => ExecError::Sql(e.to_string()),
        }
    }
}

impl From<StorageError> for ExecError {
    fn from(e: StorageError) -> Self {
        match e {
            StorageError::Cancelled(_) | StorageError::Budget(_) => ExecError::Guard(e),
            e => ExecError::Storage(e.to_string()),
        }
    }
}

impl From<kath_media::MediaError> for ExecError {
    fn from(e: kath_media::MediaError) -> Self {
        ExecError::Media(e.to_string())
    }
}

impl From<kath_lineage::LineageError> for ExecError {
    fn from(e: kath_lineage::LineageError) -> Self {
        ExecError::Lineage(e.to_string())
    }
}

impl From<kath_fao::RegistryError> for ExecError {
    fn from(e: kath_fao::RegistryError) -> Self {
        ExecError::Registry(e.to_string())
    }
}
