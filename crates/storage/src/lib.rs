//! KathDB relational substrate.
//!
//! The paper's central design decision is a "unified semantic layer based on
//! the relational model" (§1): every modality — tables, text, images, video —
//! is represented as relational views, and every FAO ultimately reads and
//! writes tables. This crate is that relational foundation: typed values,
//! schemas, in-memory tables, scalar expressions, batch-pulled operators,
//! a system catalog (with the verifier's database utilities), compressed
//! column pages, and the durability subsystem (write-ahead log +
//! checkpointed snapshots + crash recovery).

#![warn(missing_docs)]

mod batch;
mod catalog;
mod durable;
mod error;
mod exact_sum;
mod expr;
mod guard;
mod io;
mod morsel;
mod ops;
mod page;
mod paged;
mod persist;
mod pool;
mod schema;
mod table;
mod txn;
mod value;
mod vecindex;
mod wal;

pub use batch::{
    ColumnData, ColumnVector, CompileMode, ExecMode, NullBitmap, RowBatch, StrBuf,
    DEFAULT_BATCH_SIZE,
};
pub use catalog::{Catalog, Joinability};
pub use durable::{CheckpointStats, Durability, DurabilityStatus, Recovered};
pub use error::StorageError;
pub use expr::{BinOp, Expr};
pub use guard::{
    batch_footprint, row_footprint, value_footprint, CancelToken, GuardSpec, QueryGuard,
};
pub use io::{is_transient, with_retry, Io, IoBackend, RealIo, RetryPolicy};
pub use morsel::{
    host_parallelism, run_morsels, run_morsels_guarded, Morsel, MorselRun, MorselSource,
    MORSEL_BATCHES,
};
pub use ops::{
    cmp_rows, col_cmp, collect, drain_guarded, merge_sorted_runs, resolve_sort_keys, sort_rows,
    AggFunc, Aggregate, Distinct, Filter, HashAggregate, HashJoin, IndexScan, JoinBuild, JoinKind,
    Limit, Operator, PartialAggregate, Project, RunMerge, ScanHint, SortKey, SortedMerge,
    SortedRun, TableScan,
};
pub use page::{decode_page, encode_page, page_encoding_name, ZoneMap, DEFAULT_PAGE_ROWS};
pub use paged::{PageBacking, PageSlot, PageWriteStats, RowGroup};
pub use persist::{atomic_write, atomic_write_with};
pub use pool::{BufferPool, PageKey, PoolStatus, DEFAULT_POOL_PAGES, POOL_PAGES_ENV};
pub use schema::{Column, Schema};
pub use table::Table;
pub use txn::{CatalogRef, Pause, Scheduler, SharedCatalog, VersionEvent};
pub use value::{cmp_int_f64, DataType, Row, Value};
pub use vecindex::{
    decode_embedding, default_nlist, default_nprobe, encode_embedding, merge_top_k,
    preferred_vector_strategy, top_k_entries, vector_search_cost, VectorIndex, VectorMode,
    VectorStrategy, IVF_FIXED_COST, VECTOR_INDEX_SEED,
};
pub use wal::{crc32, filter_committed, FilteredLog, Wal, WalRecord};
