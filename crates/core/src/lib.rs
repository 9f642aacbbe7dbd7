//! # KathDB
//!
//! An explainable multimodal database management system with human-AI
//! collaboration — a from-scratch Rust reproduction of the CIDR 2026 vision
//! paper. This facade crate wires the full pipeline together:
//!
//! 1. **Parse** (`kath-parser`): NL query → clarifications → query sketch →
//!    logical plan (function signatures in the exact Fig. 3 JSON layout) →
//!    agentic plan verification with database tool use.
//! 2. **Optimize** (`kath-optimizer`): logical rewrites, then the
//!    coder/profiler/critic loop generates, profiles, and selects versioned
//!    function bodies (FAO, §4).
//! 3. **Execute** (`kath-exec`): the engine runs the physical plan under
//!    the monitor (self-repair + semantic anomaly checks) while recording
//!    row/table-level lineage (§3).
//! 4. **Explain** (`kath-explain`): coarse pipeline and fine-grained
//!    per-tuple explanations over the provenance graph (§5).
//!
//! ```
//! use kathdb::KathDB;
//! use kath_data::mmqa_small;
//! use kath_model::ScriptedChannel;
//!
//! let mut db = KathDB::new(42);
//! db.load_corpus(&mmqa_small()).unwrap();
//! let channel = ScriptedChannel::new([
//!     "The movie plot contains scenes that are uncommon in real life",
//!     "Oh I prefer a more recent movie as well when scoring",
//!     "OK",
//! ]);
//! let result = db
//!     .query(
//!         "Sort the given films in the table by how exciting they are, \
//!          but the poster should be 'boring'",
//!         channel.as_ref(),
//!     )
//!     .unwrap();
//! assert_eq!(
//!     result.display_table().unwrap().cell(0, "title").unwrap().as_str(),
//!     Some("Guilty by Suspicion")
//! );
//! ```

#![warn(missing_docs)]

use kath_data::MmqaCorpus;
use kath_exec::{ExecContext, ExecError, ExecReport, ExecutionEngine, PhysicalPlan, RepairEvent};
use kath_explain::Explainer;
use kath_fao::FunctionRegistry;
use kath_json::to_string_pretty;
use kath_model::{SimLlm, TokenMeter, Usage, UserChannel};
use kath_optimizer::{
    choose_strategy, compile, estimate_function_over, CompileOptions, CompileReport,
};
use kath_parser::{
    generate_logical_plan, LogicalPlan, NlParser, ParseOutcome, PlanVerifier, VerifierReport,
};
use kath_sql::SqlError;
use kath_storage::{
    collect, CompileMode, Durability, DurabilityStatus, PoolStatus, RowGroup, StorageError, Table,
    TableScan, WalRecord, DEFAULT_PAGE_ROWS,
};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::path::Path;

mod session;

pub use kath_data as data;
pub use kath_exec as exec;
pub use kath_explain as explain;
pub use kath_fao as fao;
pub use kath_json as json;
pub use kath_lineage as lineage;
pub use kath_media as media;
pub use kath_model as model;
pub use kath_multimodal as multimodal;
pub use kath_optimizer as optimizer;
pub use kath_parser as parser;
pub use kath_sql as sql;
pub use kath_storage as storage;
pub use kath_vector as vector;
pub use session::{Session, TxnStage};

/// Top-level errors.
#[derive(Debug)]
pub enum KathError {
    /// The plan verifier rejected the plan.
    PlanRejected(VerifierReport),
    /// Compilation or execution failed.
    Exec(ExecError),
    /// Storage failure (ingest).
    Storage(kath_storage::StorageError),
    /// Nothing has been executed yet.
    NoQueryRun,
    /// Registry persistence failure.
    Registry(kath_fao::RegistryError),
    /// Raw SQL failed (parse, plan, or execution).
    Sql(SqlError),
    /// A durability operation was requested but no directory is open.
    NotDurable,
    /// Transaction-control misuse: nested `begin`, or `commit`/`rollback`
    /// with no open transaction.
    Txn(String),
}

impl fmt::Display for KathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KathError::PlanRejected(r) => {
                write!(f, "plan rejected by verifier: {:?}", r.hints())
            }
            KathError::Exec(e) => write!(f, "{e}"),
            KathError::Storage(e) => write!(f, "{e}"),
            KathError::NoQueryRun => write!(f, "no query has been executed yet"),
            KathError::Registry(e) => write!(f, "{e}"),
            KathError::Sql(e) => write!(f, "{e}"),
            KathError::NotDurable => {
                write!(f, "no durable directory open (use KathDB::open or \\open)")
            }
            KathError::Txn(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for KathError {}

impl From<ExecError> for KathError {
    fn from(e: ExecError) -> Self {
        KathError::Exec(e)
    }
}

impl From<kath_storage::StorageError> for KathError {
    fn from(e: kath_storage::StorageError) -> Self {
        KathError::Storage(e)
    }
}

impl From<kath_fao::RegistryError> for KathError {
    fn from(e: kath_fao::RegistryError) -> Self {
        KathError::Registry(e)
    }
}

impl From<SqlError> for KathError {
    fn from(e: SqlError) -> Self {
        KathError::Sql(e)
    }
}

/// The result of one NL query, with every intermediate artifact exposed for
/// inspection (that exposure *is* the paper's thesis).
pub struct QueryResult {
    /// The final ranked table (all columns, including plumbing).
    pub table: Table,
    /// Parser artifacts: intent, sketch history, clarifications.
    pub parse: ParseOutcome,
    /// The verified logical plan.
    pub logical: LogicalPlan,
    /// The verifier's report.
    pub verification: VerifierReport,
    /// The optimizer's report (rewrites, critiques, selections).
    pub compile: CompileReport,
    /// The engine's report (repairs, anomalies, timings).
    pub exec: ExecReport,
}

impl QueryResult {
    /// A presentation view matching Fig. 6: the columns `lid, title, year,
    /// final_score, boring` the output has, in that order and under their
    /// own types, or the output as it is when it has none of them.
    pub fn display_table(&self) -> Result<Table, KathError> {
        let schema = self.table.schema();
        let wanted = ["lid", "title", "year", "final_score", "boring"];
        let columns: Vec<usize> = wanted.iter().filter_map(|w| schema.index_of(w)).collect();
        if columns.is_empty() {
            return Ok(self.table.clone());
        }
        let scan = TableScan::new(self.table.clone().into()).with_columns(&columns);
        Ok(collect("final_results", Box::new(scan))?)
    }

    /// The lid of the top-ranked tuple, if present.
    pub fn top_lid(&self) -> Option<i64> {
        let idx = self.table.schema().index_of("lid")?;
        self.table.row_at(0).ok().flatten()?[idx].as_int()
    }
}

/// The database façade: the NL pipeline, ingest and durability, over the
/// [`Session`] it owns and dereferences to — `sql`, transactions, `cancel`,
/// and the timeout / budget / exec-mode / thread / vector settings with
/// their getters are that session's, the same type [`KathDB::session`]
/// hands out.
pub struct KathDB {
    /// This handle's SQL side and every per-handle setting. Declared, so
    /// dropped, before `ctx`: the shared catalog is then freed with `ctx`,
    /// ahead of the registry and the plan, as it was before the facade
    /// owned a session.
    session: Session,
    ctx: ExecContext,
    registry: FunctionRegistry,
    last_plan: Option<PhysicalPlan>,
    /// Function ids of the nodes of `last_plan` that were reused, not run.
    last_reused: Vec<String>,
    /// Function ids of the nodes of `last_plan` installed from a compile
    /// record, not compiled.
    last_compiled_earlier: Vec<String>,
    /// The repairs the monitor made while `last_plan` ran.
    last_repairs: Vec<RepairEvent>,
    /// Compiler options used for subsequent queries (exposed so examples and
    /// benches can inject faults or disable rewrites).
    pub compile_options: CompileOptions,
    /// Run the engine's semantic checks (fan-out detection).
    pub semantic_checks: bool,
    /// Durable-storage state when a directory is open (`None` = in-memory
    /// only, the historical behaviour).
    durability: Option<DurableState>,
}

/// The function-registry payload as last logged or checkpointed (change
/// detection for `query()`). The durability coordinator itself lives inside
/// the shared catalog so concurrent sessions commit through one WAL.
struct DurableState {
    functions_json: String,
}

/// What [`KathDB::open_dir`] recovered from disk.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryInfo {
    /// Tables restored from the snapshot.
    pub snapshot_tables: usize,
    /// WAL records replayed on top of the snapshot.
    pub wal_replayed: usize,
    /// Epoch of the snapshot that was loaded (0 = started empty).
    pub snapshot_epoch: u64,
}

impl KathDB {
    /// A fresh instance with the given model seed.
    ///
    /// `KATHDB_THREADS` pins the worker count of the instance and of every
    /// [`Session`] (see `Session::new`, the one place it is read).
    /// `KATHDB_POOL_PAGES` caps the buffer pool at that many decoded column
    /// pages (minimum 1) — the knob CI uses for its low-memory leg; results
    /// are identical at any budget.
    pub fn new(seed: u64) -> Self {
        let ctx = ExecContext::new(SimLlm::new(seed, TokenMeter::new()));
        Self {
            session: Session::new(ctx.catalog.clone()),
            ctx,
            registry: FunctionRegistry::new(),
            last_plan: None,
            last_reused: Vec::new(),
            last_compiled_earlier: Vec::new(),
            last_repairs: Vec::new(),
            compile_options: CompileOptions::default(),
            semantic_checks: true,
            durability: None,
        }
    }

    /// Opens (creating if needed) a durable database directory: recovers
    /// the newest valid snapshot, replays the WAL tail (a torn final record
    /// is skipped, never an error), and arms write-ahead logging for every
    /// subsequent mutation. Uses the default model seed; call
    /// [`KathDB::new`] + [`KathDB::open_dir`] to pick a seed.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, KathError> {
        let mut db = KathDB::new(42);
        db.open_dir(dir)?;
        Ok(db)
    }

    /// Attaches a durable directory to this instance (the instance method
    /// behind [`KathDB::open`] and the REPL's `\open`). Any previously
    /// attached directory is closed (checkpointed) first. Recovered tables
    /// join the catalog (replacing same-named in-memory tables); if the
    /// session already holds state, an immediate checkpoint makes that
    /// state durable too. Returns what was recovered.
    pub fn open_dir(&mut self, dir: impl AsRef<Path>) -> Result<RecoveryInfo, KathError> {
        let dir = dir.as_ref();
        self.close()?;
        let current = self.ctx.catalog.snapshot();
        let pre_existing = !current.is_empty();
        let (inner, recovered) = Durability::open(dir, current.pool())?;
        let info = RecoveryInfo {
            snapshot_tables: recovered.tables.len(),
            wal_replayed: recovered.wal_records.len(),
            snapshot_epoch: recovered.snapshot_epoch,
        };
        // Stage recovery on copies: a failed open must leave the session
        // exactly as it was, never half-recovered. Only committed WAL
        // records reach us here — `Durability::open` filtered out any
        // framed transaction that never reached its `Commit` marker.
        let mut staged = current.catalog().clone();
        let mut registry = match &recovered.functions_json {
            Some(json) => Self::registry_from_json(json)?,
            None => self.registry.clone(),
        };
        // The directory's history replays on a catalog of its own over this
        // handle's pool, so a record can only name a table the directory
        // itself holds.
        let mut replayed = staged.clone();
        for name in staged.table_names() {
            replayed.drop_table(name)?;
        }
        for table in recovered.tables {
            replayed.register_or_replace(table);
        }
        for record in recovered.wal_records {
            match record {
                WalRecord::Functions(json) => registry = Self::registry_from_json(&json)?,
                record => replayed.apply(&record).map_err(|e| {
                    StorageError::Corrupt(format!(
                        "wal record does not apply to recovered state: {e}"
                    ))
                })?,
            }
        }
        // Recovered tables replace same-named in-memory ones.
        for name in replayed.table_names() {
            staged.register_or_replace(replayed.get(name)?);
        }
        // Publish the staged state as one new version (readers holding
        // older snapshots are unaffected), then give every restored table
        // a lineage ingest root: provenance bottoms out at the durable
        // directory, whether the table came from the snapshot or the log.
        self.ctx
            .catalog
            .install_recovered(staged, inner, recovered.max_txid);
        self.registry = registry;
        for name in replayed.table_names() {
            if self.ctx.table_lid(name).is_none() {
                let uri = format!("kathdb://{}/{name}", dir.display());
                self.ctx.ingest_root(name, &uri)?;
            }
        }
        let functions_json = to_string_pretty(&self.registry.to_json());
        self.durability = Some(DurableState { functions_json });
        if pre_existing {
            self.checkpoint()?;
        }
        Ok(info)
    }

    fn registry_from_json(json: &str) -> Result<FunctionRegistry, KathError> {
        let value = kath_json::parse(json).map_err(|e| {
            KathError::Storage(StorageError::Corrupt(format!(
                "persisted function registry is not valid JSON: {e}"
            )))
        })?;
        Ok(FunctionRegistry::from_json(&value)?)
    }

    /// A new concurrent session over this database's shared catalog: its
    /// own guard settings and cancel token, its own exec/vector pins, its
    /// own transactions — reading MVCC snapshots and committing through the
    /// same group-commit WAL as everyone else. Sessions are `Send`: hand
    /// them to worker threads.
    pub fn session(&self) -> Session {
        Session::new(self.ctx.catalog.clone())
    }

    /// How many [`Session`] handles handed out by [`KathDB::session`] are
    /// currently live (the facade's own is not one of them).
    pub fn sessions(&self) -> usize {
        self.ctx.catalog.session_count() - 1
    }

    /// Writes a checkpoint: every catalog table plus the function registry
    /// into a fresh snapshot epoch (atomic rename), then rotates the WAL.
    /// Returns the new epoch. Errors with [`KathError::NotDurable`] when no
    /// directory is open.
    pub fn checkpoint(&mut self) -> Result<u64, KathError> {
        if self.durability.is_none() {
            return Err(KathError::NotDurable);
        }
        let functions_json = to_string_pretty(&self.registry.to_json());
        // The shared catalog drains in-flight commits, snapshots every
        // table, rotates the WAL, and publishes the paged representations
        // the checkpoint produced (identical rows, page-backed — the next
        // checkpoint rewrites only dirty pages).
        let epoch = self.ctx.catalog.checkpoint(Some(&functions_json))?;
        if let Some(d) = &mut self.durability {
            d.functions_json = functions_json;
        }
        Ok(epoch)
    }

    /// Checkpoints (when a durable directory is open) and detaches it.
    /// Safe to call repeatedly; a no-op for in-memory instances. Read-only
    /// sessions skip the snapshot: when no WAL record accumulated and the
    /// registry is unchanged since the last checkpoint, there is nothing
    /// to re-encode.
    pub fn close(&mut self) -> Result<(), KathError> {
        if let Some(d) = &self.durability {
            // Replayed tail records are already durable (they replay again
            // next open); only records appended since open, or an unlogged
            // registry change, warrant a closing snapshot.
            let dirty = self.ctx.catalog.wal_appended() > 0
                || to_string_pretty(&self.registry.to_json()) != d.functions_json;
            if dirty {
                self.checkpoint()?;
            }
        }
        self.durability = None;
        self.ctx.catalog.detach();
        Ok(())
    }

    /// Switches between group commit (the default: concurrent commits
    /// batch into shared fsyncs — leader syncs, followers wait on the
    /// durable LSN) and per-statement fsync (every commit pays its own
    /// sync — the baseline `txn_bench` measures group commit against).
    pub fn set_group_commit(&self, on: bool) {
        self.ctx.catalog.set_group_commit(on);
    }

    /// Whether group commit is enabled.
    pub fn group_commit(&self) -> bool {
        self.ctx.catalog.group_commit()
    }

    /// WAL / snapshot status of the open durable directory, if any —
    /// including the group-commit coordinator's live counters (batched
    /// fsyncs, commits acknowledged per fsync).
    pub fn durability_status(&self) -> Option<DurabilityStatus> {
        self.durability.as_ref()?;
        self.ctx.catalog.status()
    }

    /// Buffer-pool counters for this instance: budget, residency, hit /
    /// miss / eviction totals, and zone-map page skips.
    pub fn pool_status(&self) -> PoolStatus {
        self.ctx.catalog.pool().status()
    }

    /// Re-budgets the buffer pool to `pages` decoded column pages (minimum
    /// 1), evicting down immediately if over. Results are unaffected at any
    /// budget — only how much decoded data stays cached.
    pub fn set_pool_budget(&self, pages: usize) {
        self.ctx.catalog.pool().set_budget(pages);
    }

    /// Seals a catalog table: its rows move into compressed column pages
    /// served through the buffer pool (the out-of-core form). Contents are
    /// identical afterwards; returns whether anything was sealed (`false`
    /// if the table was already all pages). Checkpoints do this
    /// automatically for every table.
    pub fn page_table(&mut self, name: &str) -> Result<bool, KathError> {
        let catalog = &self.ctx.catalog;
        Ok(catalog.try_publish(|c| c.page_table(name, DEFAULT_PAGE_ROWS))?)
    }

    /// Sums `f` over the tables of the current catalog version.
    fn sum_over_tables(&self, f: impl Fn(&Table) -> usize) -> usize {
        let snapshot = self.ctx.catalog.snapshot();
        let names = snapshot.table_names();
        names
            .iter()
            .filter_map(|n| snapshot.get(n).ok())
            .map(|t| f(&t))
            .sum()
    }

    /// Total dirty pages across catalog tables: sealed, but not yet written
    /// by a checkpoint. Rows in a table's open groups are in no page at
    /// all; [`KathDB::unsaved_open_rows`] counts those.
    pub fn dirty_pages(&self) -> usize {
        self.sum_over_tables(|t| {
            let slots = t.groups().iter().flat_map(|g| match g {
                RowGroup::Sealed(slots) => slots.as_ref(),
                RowGroup::Open(_) => &[],
            });
            slots.filter(|s| s.is_dirty()).count()
        })
    }

    /// Total rows in open groups across the catalog: loaded or inserted
    /// (or reopened by an INSERT) since their table was last sealed, so in
    /// no page a checkpoint wrote (on a durable directory the WAL is what
    /// holds them).
    pub fn unsaved_open_rows(&self) -> usize {
        self.sum_over_tables(|t| {
            let open = t.groups().iter().filter(|g| g.is_open());
            open.map(RowGroup::rows).sum()
        })
    }

    /// Logs the function registry to the WAL when it changed since the last
    /// log/checkpoint (called after every NL query; registries mutate
    /// through compilation and self-repair).
    fn log_registry_if_changed(&mut self) -> Result<(), KathError> {
        let Some(d) = &self.durability else {
            return Ok(());
        };
        let json = to_string_pretty(&self.registry.to_json());
        if d.functions_json == json {
            return Ok(());
        }
        let records = [WalRecord::Functions(json.clone())];
        self.ctx
            .catalog
            .submit::<(), StorageError>(&records, false, |_| Ok(()))?;
        if let Some(d) = &mut self.durability {
            d.functions_json = json;
        }
        Ok(())
    }

    /// Stores `mode`, which the engine ignores: there is no compiled drive.
    /// The setter stays for the repo benchmark, which calls it.
    pub fn set_compile_mode(&mut self, mode: CompileMode) {
        self.ctx.compile = mode;
    }

    /// The stored value of [`KathDB::set_compile_mode`]; kept for the repo
    /// benchmark, which prints it.
    pub fn compile_mode(&self) -> CompileMode {
        self.ctx.compile
    }

    /// Builds (if the current table value has none yet) the vector index
    /// over `table.column`, returning `(scored entries, unscored rows)`.
    /// The planner derives indexes on demand, so this is only needed to
    /// warm one up eagerly (e.g. from the REPL's `\vindex build`).
    pub fn build_vector_index(
        &mut self,
        table: &str,
        column: &str,
    ) -> Result<(usize, usize), KathError> {
        let table = self.ctx.catalog.snapshot().get(table)?;
        let ix = table.vector_index(column)?;
        Ok((ix.entries().len(), ix.unscored().len()))
    }

    /// Every vector index built for a current table value:
    /// `(table, column, scored, unscored)`.
    pub fn vector_index_status(&self) -> Vec<(String, String, usize, usize)> {
        let snapshot = self.ctx.catalog.snapshot();
        let mut out = Vec::new();
        for table in snapshot.table_names() {
            for ix in snapshot.get(table).iter().flat_map(|t| t.vector_indexes()) {
                out.push((
                    table.to_string(),
                    ix.column().to_string(),
                    ix.entries().len(),
                    ix.unscored().len(),
                ));
            }
        }
        out
    }

    /// What the strategy rule reads of a compiled plan: the rows of its
    /// largest node input, and the estimated milliseconds of its costliest
    /// profiled model-call node, whose compute phase divides over workers
    /// whatever the row count. On a first question such a node's input does
    /// not exist yet; it is priced over that largest input, never over the
    /// four rows it was profiled on.
    fn plan_inputs(&self, plan: &PhysicalPlan) -> (usize, f64) {
        let snapshot = self.ctx.catalog.snapshot();
        let bodies: Vec<_> = (plan.nodes.iter())
            .filter_map(|node| Some((node, self.registry.get(&node.func_id).ok()?)))
            .map(|(node, entry)| (node.func_id.as_str(), &entry.active_version().body))
            .collect();
        let input_rows = (bodies.iter())
            .map(|(_, body)| session::largest_input(&snapshot, body.inputs()))
            .max()
            .unwrap_or(0);
        let model_ms = (bodies.iter())
            .filter(|(_, body)| body.calls_model())
            .filter_map(|(func_id, _)| {
                estimate_function_over(&self.registry, &snapshot, func_id, Some(input_rows))
            })
            .fold(0.0, |ms, estimate| estimate.runtime_ms.max(ms));
        (input_rows, model_ms)
    }

    /// Ingests an MMQA-like corpus: the base table plus its media. The
    /// table rides the WAL when a durable directory is open; media
    /// descriptors are in-memory only until the next checkpoint-capturing
    /// release (they are re-registered by `load_corpus` on restart: when
    /// the base table was already recovered from disk, only the media
    /// registration runs — the recovered rows win).
    pub fn load_corpus(&mut self, corpus: &MmqaCorpus) -> Result<(), KathError> {
        if !self.ctx.catalog.snapshot().contains(corpus.movies.name()) {
            self.load_table(corpus.movies.clone(), "file://data/movie_table")?;
        }
        for d in &corpus.documents {
            self.ctx.media.add_document(d.clone());
        }
        for i in &corpus.images {
            self.ctx.media.add_image(i.clone());
        }
        Ok(())
    }

    /// Ingests an arbitrary base table. When a durable directory is open
    /// the ingest is logged write-ahead as one transaction, its CREATE plus
    /// one INSERT of its rows, so it survives a crash even before the next
    /// checkpoint — whole or not at all.
    pub fn load_table(&mut self, table: Table, src_uri: &str) -> Result<(), KathError> {
        if self.ctx.catalog.snapshot().contains(table.name()) {
            return Err(KathError::Storage(StorageError::TableExists(
                table.name().to_string(),
            )));
        }
        let name = table.name().to_string();
        let mut records = Vec::new();
        if self.durability.is_some() {
            records.push(WalRecord::CreateTable {
                name: name.clone(),
                schema: table.schema().clone(),
            });
            if !table.is_empty() {
                // `to_rows`, not `rows`: the table registered below keeps
                // no row cache.
                records.push(WalRecord::Insert {
                    table: name.clone(),
                    rows: table.to_rows()?,
                });
            }
        }
        self.ctx
            .catalog
            .submit::<(), StorageError>(&records, records.len() > 1, move |c| {
                c.register(table).map(drop)
            })?;
        self.ctx.ingest_root(&name, src_uri)?;
        Ok(())
    }

    /// Runs the full interactive pipeline on an NL query.
    pub fn query(&mut self, nl: &str, channel: &dyn UserChannel) -> Result<QueryResult, KathError> {
        // 1. Interactive parse (proactive clarification + reactive
        //    correction).
        let parser = NlParser::new(self.ctx.llm.clone());
        let parse = parser.parse(nl, channel);

        // 2. Logical plan generation + agentic verification (over one
        //    frozen catalog snapshot).
        let logical = generate_logical_plan(&parse.sketch, "movie_table");
        let verify_snapshot = self.ctx.catalog.snapshot();
        let verifier = PlanVerifier::new(&verify_snapshot);
        let (logical, verification) = verifier.verify(logical);
        if !verification.approved {
            return Err(KathError::PlanRejected(verification));
        }

        // 3. Compile: coder/profiler/critic, rewrites, selection.
        let compile_report = compile(
            &logical,
            &self.ctx,
            &mut self.registry,
            &parse.clarifications,
            &self.compile_options,
        )?;

        // 4. Execute under the monitor, with this handle's settings and the
        //    strategy the one rule gives this plan.
        let (input_rows, model_ms) = self.plan_inputs(&compile_report.physical);
        (self.ctx.exec_mode, self.ctx.threads) =
            choose_strategy(self.session.pins, input_rows, model_ms);
        self.ctx.limits = self.session.limits.clone();
        self.ctx.vector_mode = self.session.vector_mode;
        let engine = ExecutionEngine {
            semantic_checks: self.semantic_checks,
            ..ExecutionEngine::new()
        };
        let exec_report = engine.run(
            &mut self.ctx,
            &mut self.registry,
            &compile_report.physical,
            channel,
        );
        session::rearm_cancel(&self.ctx.limits);
        let exec_report = exec_report?;

        self.last_plan = Some(compile_report.physical.clone());
        self.last_reused = exec_report.reused_nodes().map(str::to_string).collect();
        self.last_compiled_earlier = compile_report.reused.clone();
        self.last_repairs = exec_report.repairs.clone();
        // Compilation and self-repair may have added function versions;
        // make the registry durable before acknowledging the query.
        self.log_registry_if_changed()?;
        Ok(QueryResult {
            table: exec_report.final_table.clone(),
            parse,
            logical,
            verification,
            compile: compile_report,
            exec: exec_report,
        })
    }

    /// Answers an NL explanation question about the last query (§5):
    /// `"explain the pipeline"`, `"explain tuple <lid>"`, ….
    pub fn explain(&self, question: &str) -> Result<String, KathError> {
        let plan = self.last_plan.as_ref().ok_or(KathError::NoQueryRun)?;
        let snapshot = self.ctx.catalog.snapshot();
        let explainer = Explainer::new(plan, &self.registry, &self.ctx.lineage, &snapshot)
            .with_reused(&self.last_reused)
            .with_compiled_earlier(&self.last_compiled_earlier)
            .with_repairs(&self.last_repairs);
        Ok(explainer.answer(question))
    }

    /// Total simulated token usage so far.
    pub fn token_usage(&self) -> Usage {
        self.ctx.llm.meter().usage()
    }

    /// Persists every generated function (all versions) to disk (§1:
    /// "these functions are persisted locally on disk").
    pub fn save_functions(&self, path: &Path) -> Result<(), KathError> {
        self.registry.save(path)?;
        Ok(())
    }

    /// The function registry (read access for inspection).
    pub fn registry(&self) -> &FunctionRegistry {
        &self.registry
    }

    /// The execution context (read access: catalog, lineage, media).
    pub fn context(&self) -> &ExecContext {
        &self.ctx
    }

    /// Mutable execution context (benches inject lineage policies).
    pub fn context_mut(&mut self) -> &mut ExecContext {
        &mut self.ctx
    }

    /// The Table-3 lineage relation for the current session.
    pub fn lineage_table(&self) -> Result<Table, KathError> {
        self.ctx
            .lineage
            .as_table()
            .map_err(|e| KathError::Exec(ExecError::Lineage(e.to_string())))
    }
}

impl Deref for KathDB {
    type Target = Session;

    fn deref(&self) -> &Session {
        &self.session
    }
}

impl DerefMut for KathDB {
    fn deref_mut(&mut self) -> &mut Session {
        &mut self.session
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kath_data::mmqa_small;
    use kath_model::ScriptedChannel;
    use kath_storage::{DataType, ExecMode, Schema, Value, VectorMode};

    const FLAGSHIP: &str = "Sort the given films in the table by how exciting \
                            they are, but the poster should be 'boring'";

    fn run_flagship() -> (KathDB, QueryResult) {
        let mut db = KathDB::new(42);
        db.load_corpus(&mmqa_small()).unwrap();
        let channel = ScriptedChannel::new([
            "The movie plot contains scenes that are uncommon in real life",
            "Oh I prefer a more recent movie as well when scoring",
            "OK",
        ]);
        let result = db.query(FLAGSHIP, channel.as_ref()).unwrap();
        (db, result)
    }

    /// The strategy rule's inputs on a fresh handle come from the base
    /// table, not from the four rows a model-call node was profiled on: its
    /// input does not exist before the first run.
    #[test]
    fn a_first_question_prices_model_nodes_over_the_base_table() {
        use kath_fao::ProfileStats;
        use kath_optimizer::{strategy_capped, StrategyPins, WORKER_STARTUP_MS};

        let mut db = KathDB::new(42);
        let corpus = kath_data::generate_corpus(&kath_data::CorpusSpec {
            movies: 1000,
            ..kath_data::CorpusSpec::default()
        });
        db.load_corpus(&corpus).unwrap();
        // Compile as `query` does, and stop before the run.
        let channel = ScriptedChannel::new([
            "The movie plot contains scenes that are uncommon in real life",
            "OK",
        ]);
        let parse = NlParser::new(db.ctx.llm.clone()).parse(FLAGSHIP, channel.as_ref());
        let logical = generate_logical_plan(&parse.sketch, "movie_table");
        let options = CompileOptions::default();
        let report = compile(
            &logical,
            &db.ctx,
            &mut db.registry,
            &parse.clarifications,
            &options,
        )
        .unwrap();
        let plan = report.physical;
        assert!(!db.ctx.catalog.snapshot().contains("films_with_text"));

        // Whatever four calls happened to cost when they were profiled —
        // here, a tenth of what a second worker must save to pay for itself.
        let four_calls_ms = 0.2 * WORKER_STARTUP_MS;
        let profile = |runtime_ms| ProfileStats {
            runtime_ms,
            tokens: 40,
            rows_in: options.sample_size,
            rows_out: options.sample_size,
            accuracy: Some(1.0),
        };
        for func in ["gen_excitement_score", "classify_boring"] {
            let ver = db.registry.get(func).unwrap().active_version().ver_id;
            db.registry
                .set_profile(func, ver, profile(four_calls_ms))
                .unwrap();
        }
        let (input_rows, model_ms) = db.plan_inputs(&plan);
        assert_eq!(input_rows, 1000);
        assert!(model_ms >= 100.0 * four_calls_ms, "{model_ms} ms");
        assert_eq!(
            model_ms,
            four_calls_ms * (1000 / options.sample_size) as f64
        );
        let free = StrategyPins::default();
        assert_eq!(strategy_capped(free, input_rows, model_ms, 2).1, 2);
        // The sample's own cost would have kept the plan on one thread.
        assert_eq!(strategy_capped(free, input_rows, four_calls_ms, 2).1, 1);

        // Once the inputs exist they are what the estimate scales by: the
        // scored table holds every film, the classified one the same.
        let engine = ExecutionEngine::new();
        engine
            .run(&mut db.ctx, &mut db.registry, &plan, channel.as_ref())
            .unwrap();
        for func in ["gen_excitement_score", "classify_boring"] {
            let ver = db.registry.get(func).unwrap().active_version().ver_id;
            db.registry
                .set_profile(func, ver, profile(four_calls_ms))
                .unwrap();
        }
        assert_eq!(db.plan_inputs(&plan), (input_rows, model_ms));
    }

    fn durable_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("kathdb_core_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The newest WAL segment file of a durable directory.
    fn active_segment(dir: &Path) -> std::path::PathBuf {
        let mut segs: Vec<_> = std::fs::read_dir(dir.join("wal"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "log"))
            .collect();
        segs.sort();
        segs.pop().expect("at least one wal segment")
    }

    #[test]
    fn durable_sql_survives_crash_and_torn_tail() {
        let dir = durable_dir("crash");
        let committed;
        let before_last;
        {
            // Populate via SQL, checkpoint mid-stream, keep writing, then
            // "crash" (drop without close: nothing is flushed beyond what
            // the WAL already fsynced).
            let mut db = KathDB::open(&dir).unwrap();
            db.sql("CREATE TABLE kv (k INT, v STR)").unwrap();
            db.sql("INSERT INTO kv VALUES (1, 'a'), (2, 'b')").unwrap();
            assert_eq!(db.checkpoint().unwrap(), 1);
            db.sql("INSERT INTO kv VALUES (3, 'c')").unwrap();
            before_last = db.sql("SELECT * FROM kv ORDER BY k").unwrap();
            db.sql("INSERT INTO kv VALUES (4, 'd')").unwrap();
            committed = db.sql("SELECT * FROM kv ORDER BY k").unwrap();
            let status = db.durability_status().unwrap();
            assert_eq!(status.snapshot_epoch, 1);
            assert_eq!(status.wal_records, 2);
        }
        {
            // Reopen: byte-identical state.
            let mut db = KathDB::open(&dir).unwrap();
            assert_eq!(db.sql("SELECT * FROM kv ORDER BY k").unwrap(), committed);
        }
        // Tear the final WAL record (simulates a crash mid-append): the
        // torn record is skipped, everything before it survives.
        let seg = active_segment(&dir);
        let len = std::fs::metadata(&seg).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        {
            let mut db = KathDB::open(&dir).unwrap();
            assert_eq!(db.sql("SELECT * FROM kv ORDER BY k").unwrap(), before_last);
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn durable_drop_table_survives_reopen() {
        let dir = durable_dir("drop");
        {
            let mut db = KathDB::open(&dir).unwrap();
            db.sql("CREATE TABLE gone (x INT)").unwrap();
            db.sql("CREATE TABLE kept (x INT)").unwrap();
            db.sql("INSERT INTO kept VALUES (7)").unwrap();
            db.sql("DROP TABLE gone").unwrap();
        }
        let mut db = KathDB::open(&dir).unwrap();
        assert!(!db.context().catalog.snapshot().contains("gone"));
        assert!(db.sql("SELECT * FROM gone").is_err());
        let kept = db.sql("SELECT * FROM kept").unwrap();
        assert_eq!(kept.cell(0, "x").unwrap().as_int(), Some(7));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn corpus_and_functions_survive_reopen() {
        let dir = durable_dir("functions");
        {
            let mut db = KathDB::open(&dir).unwrap();
            db.load_corpus(&mmqa_small()).unwrap();
            let channel = ScriptedChannel::new([
                "The movie plot contains scenes that are uncommon in real life",
                "Oh I prefer a more recent movie as well when scoring",
                "OK",
            ]);
            db.query(FLAGSHIP, channel.as_ref()).unwrap();
            // Crash: no close, no checkpoint. The corpus ingest and the
            // registry changes were WAL-logged.
        }
        let mut db = KathDB::open(&dir).unwrap();
        assert!(db.registry().contains("classify_boring"));
        assert!(db.registry().contains("gen_excitement_score"));
        let movies = db.context().catalog.snapshot().get("movie_table").unwrap();
        assert_eq!(movies.len(), 6);
        // The documented restart workflow: load_corpus again to re-register
        // the media descriptors. The recovered base table wins (no
        // TableExists error), and the full NL pipeline runs end to end.
        db.load_corpus(&mmqa_small()).unwrap();
        let channel = ScriptedChannel::new([
            "The movie plot contains scenes that are uncommon in real life",
            "Oh I prefer a more recent movie as well when scoring",
            "OK",
        ]);
        let result = db.query(FLAGSHIP, channel.as_ref()).unwrap();
        assert_eq!(
            result
                .display_table()
                .unwrap()
                .cell(0, "title")
                .unwrap()
                .as_str(),
            Some("Guilty by Suspicion")
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn attaching_a_dir_checkpoints_preexisting_state() {
        let dir = durable_dir("attach");
        {
            let mut db = KathDB::new(42);
            db.load_corpus(&mmqa_small()).unwrap();
            let info = db.open_dir(&dir).unwrap();
            assert_eq!(info.snapshot_tables, 0);
            // The attach checkpointed the already-loaded corpus.
            assert_eq!(db.durability_status().unwrap().snapshot_epoch, 1);
        }
        let db = KathDB::open(&dir).unwrap();
        let movies = db.context().catalog.snapshot().get("movie_table").unwrap();
        assert_eq!(movies.len(), 6);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn close_checkpoints_and_detaches() {
        let dir = durable_dir("close");
        let mut db = KathDB::open(&dir).unwrap();
        db.sql("CREATE TABLE t (x INT)").unwrap();
        db.close().unwrap();
        assert!(db.durability_status().is_none());
        assert!(matches!(db.checkpoint(), Err(KathError::NotDurable)));
        // Close is idempotent, and further mutations are in-memory only.
        db.close().unwrap();
        let db2 = KathDB::open(&dir).unwrap();
        assert!(db2.context().catalog.snapshot().contains("t"));
        drop(db2);
        // A read-only session writes no new snapshot on close.
        let mut db3 = KathDB::open(&dir).unwrap();
        let epoch = db3.durability_status().unwrap().snapshot_epoch;
        db3.sql("SELECT * FROM t").unwrap();
        db3.close().unwrap();
        let db4 = KathDB::open(&dir).unwrap();
        assert_eq!(db4.durability_status().unwrap().snapshot_epoch, epoch);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn switching_dirs_checkpoints_the_first() {
        let dir1 = durable_dir("switch1");
        let dir2 = durable_dir("switch2");
        let mut db = KathDB::open(&dir1).unwrap();
        db.sql("CREATE TABLE a (x INT)").unwrap();
        db.sql("INSERT INTO a VALUES (1)").unwrap();
        // Switching detaches dir1 with a final checkpoint before attaching
        // dir2 (which then checkpoints the carried-over state too).
        db.open_dir(&dir2).unwrap();
        db.sql("INSERT INTO a VALUES (2)").unwrap();
        drop(db);
        let mut db1 = KathDB::open(&dir1).unwrap();
        assert_eq!(db1.sql("SELECT * FROM a").unwrap().len(), 1);
        let mut db2 = KathDB::open(&dir2).unwrap();
        assert_eq!(db2.sql("SELECT * FROM a").unwrap().len(), 2);
        let _ = std::fs::remove_dir_all(dir1);
        let _ = std::fs::remove_dir_all(dir2);
    }

    /// The out-of-core acceptance demo: a table larger than the buffer-pool
    /// budget streams through evictions byte-identically, a one-row INSERT
    /// makes the next checkpoint incremental (strictly fewer bytes), and a
    /// crash recovers exactly the committed state.
    #[test]
    fn out_of_core_workload_is_byte_identical_and_incremental() {
        let dir = durable_dir("outofcore");
        let mut db = KathDB::new(42);
        db.sql("CREATE TABLE big (id INT, grp STR, score FLOAT)")
            .unwrap();
        // 5000 rows → two pages per column at the default page size; the
        // x.5 floats keep every SUM exact regardless of addition order.
        for chunk in 0..10i64 {
            let rows: Vec<String> = (0..500i64)
                .map(|i| {
                    let id = chunk * 500 + i;
                    format!("({id}, 'g{}', {}.5)", id % 7, id % 100)
                })
                .collect();
            db.sql(&format!("INSERT INTO big VALUES {}", rows.join(", ")))
                .unwrap();
        }
        let queries = [
            "SELECT grp, COUNT(*) AS n, SUM(score) AS s FROM big GROUP BY grp ORDER BY grp",
            "SELECT id, score FROM big WHERE id >= 4990 ORDER BY id",
            "SELECT COUNT(*) AS n FROM big WHERE grp = 'g3'",
        ];
        let resident: Vec<Table> = queries.iter().map(|q| db.sql(q).unwrap()).collect();
        // The ninth INSERT filled the first group and sealed it alone (one
        // in-memory page per column); its other 404 rows and the tenth's
        // 500 are in the open second group.
        assert_eq!((db.dirty_pages(), db.unsaved_open_rows()), (3, 904));

        // Attaching a durable dir checkpoints the pre-existing state, which
        // seals every table and writes its pages.
        db.open_dir(&dir).unwrap();
        let big = db.context().catalog.snapshot().get("big").unwrap();
        assert!(big.is_paged());
        assert_eq!((db.dirty_pages(), db.unsaved_open_rows()), (0, 0));
        let first = db.durability_status().unwrap().last_checkpoint.unwrap();
        assert!(first.pages_written >= 6, "3 columns x 2 pages: {first:?}");

        // Cap the pool below the table's page count: the same workload must
        // stream pages through evictions and still match byte for byte.
        db.set_pool_budget(2);
        for (q, want) in queries.iter().zip(&resident) {
            let got = db.sql(q).unwrap();
            assert_eq!(got.rows(), want.rows(), "paged result diverged: {q}");
        }
        let status = db.pool_status();
        assert!(status.evictions > 0, "no evictions under a 2-page budget");
        assert!(status.resident_pages <= 2, "{status:?}");

        // One appended row reopens only the last page of each column, so
        // the second checkpoint is incremental: strictly fewer bytes.
        db.sql("INSERT INTO big VALUES (5000, 'g0', 1.5)").unwrap();
        assert_eq!((db.dirty_pages(), db.unsaved_open_rows()), (0, 905));
        db.checkpoint().unwrap();
        assert_eq!((db.dirty_pages(), db.unsaved_open_rows()), (0, 0));
        let second = db.durability_status().unwrap().last_checkpoint.unwrap();
        assert!(second.bytes_written > 0);
        assert!(
            second.bytes_written < first.bytes_written,
            "second checkpoint not incremental: {second:?} vs {first:?}"
        );
        assert!(second.pages_written < first.pages_written);
        assert!(second.pages_reused > 0);

        // Crash (no close): one more WAL-only insert, then recovery must
        // reproduce exactly the committed result set.
        db.sql("INSERT INTO big VALUES (5001, 'g1', 2.5)").unwrap();
        let committed: Vec<Table> = queries.iter().map(|q| db.sql(q).unwrap()).collect();
        drop(db);
        let mut db2 = KathDB::open(&dir).unwrap();
        for (q, want) in queries.iter().zip(&committed) {
            let got = db2.sql(q).unwrap();
            assert_eq!(got.rows(), want.rows(), "recovered result diverged: {q}");
        }
        let n = db2.sql("SELECT COUNT(*) AS n FROM big").unwrap();
        assert_eq!(n.rows()[0][0], Value::Int(5002));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn failed_open_leaves_the_session_untouched() {
        let dir = durable_dir("failedopen");
        {
            // A log that disagrees with its (absent) snapshot: an INSERT
            // into a table the directory never created, which only the
            // in-memory handle holds.
            let pool = std::sync::Arc::new(kath_storage::BufferPool::with_budget(16));
            let (mut d, _) = Durability::open(&dir, &pool).unwrap();
            d.log_batch_nosync([&WalRecord::Insert {
                table: "movie_table".into(),
                rows: vec![vec![Value::Int(1)]],
            }])
            .unwrap();
            d.sync_wal().unwrap();
        }
        let mut db = KathDB::new(42);
        db.load_corpus(&mmqa_small()).unwrap();
        let version_before = db.context().catalog.snapshot().version();
        let functions_before = db.registry().len();
        let err = db.open_dir(&dir).unwrap_err();
        assert!(matches!(err, KathError::Storage(StorageError::Corrupt(_))));
        // No half-recovered state: catalog, registry, and durability are
        // exactly as they were.
        assert_eq!(db.context().catalog.snapshot().version(), version_before);
        assert_eq!(db.registry().len(), functions_before);
        assert!(db.durability_status().is_none());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn an_in_memory_table_the_log_drops_survives_the_open() {
        let dir = durable_dir("droppedname");
        {
            let mut db = KathDB::open(&dir).unwrap();
            db.sql("CREATE TABLE t (x INT)").unwrap();
            db.sql("DROP TABLE t").unwrap();
        }
        let mut db = KathDB::new(42);
        db.sql("CREATE TABLE t (y STR)").unwrap();
        db.sql("INSERT INTO t VALUES ('mine')").unwrap();
        db.open_dir(&dir).unwrap();
        let t = db.sql("SELECT y FROM t").unwrap();
        assert_eq!(t.cell(0, "y").unwrap().as_str(), Some("mine"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_torn_ingest_recovers_whole_or_not_at_all() {
        let dir = durable_dir("torningest");
        let rows = (0..DEFAULT_PAGE_ROWS as i64 + 100).map(|k| vec![Value::Int(k)]);
        let big = Table::from_rows("big", Schema::of(&[("k", DataType::Int)]), rows.collect());
        let big = big.unwrap();
        let mut db = KathDB::open(&dir).unwrap();
        db.load_table(big.clone(), "test://big").unwrap();
        drop(db);
        // Cut the log at every frame boundary: Begin, CREATE, INSERT, Commit.
        let segment = active_segment(&dir);
        let log = std::fs::read(&segment).unwrap();
        let mut cut = 0;
        while cut < log.len() {
            cut += 12 + u32::from_be_bytes(log[cut..cut + 4].try_into().unwrap()) as usize;
            std::fs::write(&segment, &log[..cut]).unwrap();
            let reopened = KathDB::open(&dir).unwrap().context().catalog.snapshot();
            let recovered = reopened.get("big");
            match recovered {
                Ok(t) => assert_eq!(*t, big, "cut at {cut}"),
                Err(_) => assert!(cut < log.len(), "the whole ingest was lost"),
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn wal_recovered_tables_carry_lineage_roots() {
        let dir = durable_dir("lineage");
        {
            let mut db = KathDB::open(&dir).unwrap();
            db.sql("CREATE TABLE logged (x INT)").unwrap();
            // Crash before any checkpoint: the table exists only in the WAL.
        }
        let db = KathDB::open(&dir).unwrap();
        let lid = db.context().table_lid("logged").expect("lineage root");
        let edge = &db.context().lineage.edges_of(lid)[0];
        assert!(edge.parent_lid.is_none());
        assert!(edge.src_uri.as_deref().unwrap().starts_with("kathdb://"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn the_display_table_projects_the_fig6_columns_in_order() {
        let (_db, mut result) = run_flagship();
        // Display columns out of Fig. 6's order, among others.
        let schema = Schema::of(&[
            ("boring", DataType::Bool),
            ("plot", DataType::Str),
            ("year", DataType::Int),
            ("final_score", DataType::Any),
            ("title", DataType::Str),
        ]);
        let rows: Vec<Vec<Value>> = (0..9i64)
            .map(|i| {
                let score = if i % 2 == 0 {
                    Value::Float(i as f64 / 10.0)
                } else {
                    Value::Int(i)
                };
                let title = if i == 4 {
                    Value::Null
                } else {
                    format!("t{i}").into()
                };
                vec![
                    (i % 3 == 0).into(),
                    format!("p{i}").into(),
                    (1980 + i).into(),
                    score,
                    title,
                ]
            })
            .collect();
        let resident = Table::from_rows("ranked", schema, rows.clone()).unwrap();
        let pool = std::sync::Arc::new(kath_storage::BufferPool::with_budget(4));
        let sealed = resident.seal(&pool, 2).unwrap();
        assert!(sealed.is_paged() && sealed.groups().len() == 5);
        let want = Table::from_rows(
            "final_results",
            Schema::of(&[
                ("title", DataType::Str),
                ("year", DataType::Int),
                ("final_score", DataType::Any),
                ("boring", DataType::Bool),
            ]),
            rows.into_iter()
                .map(|r| vec![r[4].clone(), r[2].clone(), r[3].clone(), r[0].clone()])
                .collect(),
        )
        .unwrap();
        for table in [resident, sealed] {
            result.table = table;
            let display = result.display_table().unwrap();
            // Table equality includes the schema: names, order and types.
            assert_eq!(display, want, "paged {}", result.table.is_paged());
        }
        // None of the five columns: the output as it is.
        let other = Schema::of(&[("id", DataType::Int), ("plot", DataType::Str)]);
        result.table =
            Table::from_rows("other", other, vec![vec![1i64.into(), "p".into()]]).unwrap();
        assert_eq!(result.display_table().unwrap(), result.table);
    }

    #[test]
    fn flagship_reproduces_fig6_top_two() {
        let (_db, result) = run_flagship();
        let display = result.display_table().unwrap();
        assert!(display.len() >= 2, "{}", display.render());
        // Fig. 6: Guilty by Suspicion (1991) then Clean and Sober (1988),
        // both with boring posters.
        assert_eq!(
            display.cell(0, "title").unwrap().as_str(),
            Some("Guilty by Suspicion"),
            "\n{}",
            display.render()
        );
        assert_eq!(
            display.cell(1, "title").unwrap().as_str(),
            Some("Clean and Sober"),
            "\n{}",
            display.render()
        );
        assert_eq!(display.cell(0, "year").unwrap().as_int(), Some(1991));
        assert_eq!(display.cell(1, "year").unwrap().as_int(), Some(1988));
        for i in 0..display.len() {
            assert_eq!(display.cell(i, "boring").unwrap(), &Value::Bool(true));
        }
        // Scores are sorted descending.
        let s0 = display.cell(0, "final_score").unwrap().as_f64().unwrap();
        let s1 = display.cell(1, "final_score").unwrap().as_f64().unwrap();
        assert!(s0 > s1);
    }

    #[test]
    fn every_batch_size_agrees_end_to_end() {
        let (_db, baseline) = run_flagship();
        for mode in [ExecMode::Batched(64), ExecMode::Batched(1)] {
            let mut db = KathDB::new(42);
            db.load_corpus(&mmqa_small()).unwrap();
            db.set_exec_mode(mode);
            assert_eq!(db.exec_mode(), mode);
            let channel = ScriptedChannel::new([
                "The movie plot contains scenes that are uncommon in real life",
                "Oh I prefer a more recent movie as well when scoring",
                "OK",
            ]);
            let result = db.query(FLAGSHIP, channel.as_ref()).unwrap();
            assert_eq!(
                result.display_table().unwrap(),
                baseline.display_table().unwrap(),
                "{mode:?} diverged from the default path"
            );
            // SQL nodes report their batch counts.
            let sql_batches: usize = result.exec.timings.iter().map(|t| t.batches_out).sum();
            assert!(sql_batches > 0, "{mode:?}: no batches recorded");
        }
    }

    #[test]
    fn exec_mode_is_the_pin_or_the_default_whatever_the_catalog_holds() {
        let mut db = KathDB::new(42);
        assert_eq!(db.exec_mode(), ExecMode::default(), "empty catalog");
        db.load_corpus(&mmqa_small()).unwrap();
        assert_eq!(db.exec_mode(), ExecMode::default(), "six rows");
        let mut big = Table::new(
            "big",
            kath_storage::Schema::of(&[("x", kath_storage::DataType::Int)]),
        );
        for i in 0..10_000i64 {
            big.push(vec![i.into()]).unwrap();
        }
        db.load_table(big, "bench://big").unwrap();
        assert_eq!(db.exec_mode(), ExecMode::default(), "10 000 rows");
        for pin in [
            ExecMode::Batched(32),
            ExecMode::Batched(1),
            ExecMode::default(),
        ] {
            db.set_exec_mode(pin);
            assert_eq!(db.exec_mode(), pin);
        }
    }

    #[test]
    fn parallel_and_serial_queries_agree_end_to_end() {
        let (_db, baseline) = run_flagship();
        for threads in [1usize, 4] {
            let mut db = KathDB::new(42);
            db.load_corpus(&mmqa_small()).unwrap();
            db.set_parallelism(threads);
            assert_eq!(db.threads(), threads);
            let channel = ScriptedChannel::new([
                "The movie plot contains scenes that are uncommon in real life",
                "Oh I prefer a more recent movie as well when scoring",
                "OK",
            ]);
            let result = db.query(FLAGSHIP, channel.as_ref()).unwrap();
            assert_eq!(
                result.display_table().unwrap(),
                baseline.display_table().unwrap(),
                "threads={threads} diverged from the serial baseline"
            );
            // Every timing row reports its worker count (≥ 1); serial and
            // non-relational nodes report exactly 1.
            for t in &result.exec.timings {
                assert!(t.workers >= 1);
                if t.workers == 1 {
                    assert!(t.worker_ms.is_empty());
                }
            }
        }
    }

    #[test]
    fn auto_parallelism_follows_cardinality_and_pinning_wins() {
        let mut db = KathDB::new(42);
        // Neutralize any KATHDB_THREADS pin from the environment (the CI
        // matrix runs the suite under 1 and 4).
        db.auto_parallelism();
        // Empty catalog: nothing to parallelize.
        assert_eq!(db.threads(), 1);
        db.set_parallelism(6);
        assert_eq!(db.threads(), 6);
        db.auto_parallelism();
        // Auto never exceeds the host's cores.
        assert!(db.threads() <= kath_storage::host_parallelism());
    }

    #[test]
    fn sql_similarity_search_end_to_end() {
        let mut db = KathDB::new(42);
        db.sql("CREATE TABLE notes (id INT, body STR, emb BLOB)")
            .unwrap();
        db.sql(
            "INSERT INTO notes VALUES \
             (1, 'gun fight in the alley', EMBED('gun fight in the alley')), \
             (2, 'tea in the quiet garden', EMBED('tea in the quiet garden')), \
             (3, 'murder weapon found', EMBED('murder weapon found')), \
             (4, 'a peaceful walk', EMBED('a peaceful walk'))",
        )
        .unwrap();
        let sql = "SELECT id, body FROM notes \
                   ORDER BY SIMILARITY(emb, 'shootout') DESC LIMIT 2";
        let top = db.sql(sql).unwrap();
        assert_eq!(top.len(), 2);
        let ids: Vec<i64> = top.rows().iter().map(|r| r[0].as_int().unwrap()).collect();
        assert!(ids.contains(&1) && ids.contains(&3), "{}", top.render());
        // The derived index now exists; every mode agrees with the
        // full-sort fallback.
        assert_eq!(db.vector_index_status().len(), 1);
        assert_eq!(db.vector_index_status()[0].2, 4, "all rows scored");
        let baseline = {
            db.set_vector_mode(VectorMode::Off);
            db.sql(sql).unwrap()
        };
        for mode in [VectorMode::Auto, VectorMode::Flat, VectorMode::Ivf] {
            db.set_vector_mode(mode);
            assert_eq!(db.vector_mode(), mode);
            assert_eq!(db.sql(sql).unwrap(), baseline, "{mode:?}");
        }
        db.set_vector_mode(VectorMode::Auto);
        // An insert makes a new table value with no index yet: a new best
        // match is visible to the very next query.
        db.sql("INSERT INTO notes VALUES (5, 'shootout', EMBED('shootout'))")
            .unwrap();
        let top = db.sql(sql).unwrap();
        assert_eq!(top.cell(0, "id").unwrap(), &Value::Int(5));
        // The query built the new value's index; warming it up again hands
        // back that one, and a non-embedding column is refused.
        let (scored, unscored) = db.build_vector_index("notes", "emb").unwrap();
        assert_eq!((scored, unscored), (5, 0));
        assert!(db.build_vector_index("notes", "id").is_err());
    }

    #[test]
    fn sketch_history_matches_fig4() {
        let (_db, result) = run_flagship();
        assert_eq!(result.parse.history[0].len(), 8);
        assert_eq!(result.parse.sketch.len(), 11);
        assert_eq!(result.parse.clarifications.len(), 1);
        assert_eq!(result.parse.clarifications[0].0, "exciting");
    }

    #[test]
    fn explanations_work_after_query() {
        let (db, result) = run_flagship();
        let pipeline = db.explain("explain the pipeline").unwrap();
        assert!(pipeline.contains("classify_boring"));
        let lid = result.top_lid().expect("final table carries lids");
        let tuple = db.explain(&format!("explain tuple {lid}")).unwrap();
        assert!(tuple.contains("final_score"), "{tuple}");
        assert!(tuple.contains("0.7 *"), "{tuple}");
    }

    #[test]
    fn explain_before_query_errors() {
        let db = KathDB::new(1);
        assert!(matches!(
            db.explain("explain the pipeline"),
            Err(KathError::NoQueryRun)
        ));
    }

    #[test]
    fn tokens_are_metered_and_functions_persist() {
        let (db, _result) = run_flagship();
        assert!(db.token_usage().calls > 10);
        assert!(db.token_usage().total() > 1000);
        let dir = std::env::temp_dir().join("kathdb_facade_test");
        let path = dir.join("functions.json");
        db.save_functions(&path).unwrap();
        let loaded = kath_fao::FunctionRegistry::load(&path).unwrap();
        assert!(loaded.contains("classify_boring"));
        assert!(loaded.contains("gen_excitement_score"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn lineage_table_has_fig2_shape() {
        let (db, result) = run_flagship();
        let lineage = db.lineage_table().unwrap();
        assert_eq!(
            lineage.schema().names(),
            vec![
                "lid",
                "parent_lid",
                "src_uri",
                "func_id",
                "ver_id",
                "data_type",
                "ts"
            ]
        );
        assert!(lineage.len() > 20);
        // The final tuple's trace reaches the raw ingest.
        let lid = result.top_lid().unwrap();
        let trace = db.context().lineage.trace(lid).unwrap();
        let funcs: Vec<String> = trace.functions().into_iter().map(|(f, _)| f).collect();
        assert!(funcs.contains(&"combine_score".to_string()), "{funcs:?}");
        assert!(
            funcs.contains(&"gen_excitement_score".to_string()),
            "{funcs:?}"
        );
        // The row-level path bottoms out at an external ingest root — the
        // plot documents' media collection (the excitement score derives
        // from the text view rows).
        assert!(funcs.iter().any(|f| f.starts_with("ingest")), "{funcs:?}");
    }

    fn cancelled(err: &KathError) -> bool {
        matches!(
            err,
            KathError::Sql(SqlError::Storage(kath_storage::StorageError::Cancelled(_)))
        )
    }

    #[test]
    fn query_timeout_is_per_statement_and_reversible() {
        let mut db = KathDB::new(42);
        db.sql("CREATE TABLE t (x INT)").unwrap();
        db.sql("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        db.set_query_timeout(Some(std::time::Duration::ZERO));
        assert_eq!(db.query_timeout(), Some(std::time::Duration::ZERO));
        let err = db.sql("SELECT * FROM t").unwrap_err();
        assert!(cancelled(&err), "expected Cancelled, got {err:?}");
        // Mutations carry no deadline; only queries are guarded.
        db.sql("INSERT INTO t VALUES (4)").unwrap();
        db.set_query_timeout(None);
        assert_eq!(db.sql("SELECT * FROM t").unwrap().len(), 4);
    }

    #[test]
    fn cancel_aborts_one_statement_then_rearms() {
        let mut db = KathDB::new(42);
        db.sql("CREATE TABLE t (x INT)").unwrap();
        db.sql("INSERT INTO t VALUES (1), (2)").unwrap();
        db.cancel();
        let err = db.sql("SELECT * FROM t").unwrap_err();
        assert!(cancelled(&err), "expected Cancelled, got {err:?}");
        // The token is one-shot: the very next statement runs normally.
        assert_eq!(db.sql("SELECT * FROM t").unwrap().len(), 2);
        // A handle fired from "another thread" behaves identically.
        let handle = db.cancel_handle();
        handle.cancel();
        assert!(cancelled(&db.sql("SELECT * FROM t").unwrap_err()));
        assert_eq!(db.sql("SELECT * FROM t").unwrap().len(), 2);
    }

    #[test]
    fn integer_overflow_is_a_typed_error_at_every_batch_size() {
        let mut db = KathDB::new(42);
        db.sql("CREATE TABLE t (x INT)").unwrap();
        db.sql("INSERT INTO t VALUES (2), (1)").unwrap();
        for pin in [ExecMode::default(), ExecMode::Batched(1)] {
            db.set_exec_mode(pin);
            for op in ["/", "%"] {
                let sql = format!("SELECT (0 - 9223372036854775807 - 1) {op} (0 - x) FROM t");
                let err = db.sql(&sql).unwrap_err();
                assert!(
                    matches!(
                        &err,
                        KathError::Sql(SqlError::Storage(StorageError::Eval(m)))
                            if m == "integer overflow"
                    ),
                    "{pin:?} {sql}: {err:?}"
                );
            }
            // The handle survives, and unary minus wraps like `+ - *`.
            let negated = db
                .sql("SELECT -(0 - 9223372036854775807 - x) FROM t")
                .unwrap();
            assert_eq!(negated.rows()[1], vec![Value::Int(i64::MIN)], "{pin:?}");
        }
    }

    #[test]
    fn query_budgets_bound_result_size() {
        let mut db = KathDB::new(42);
        db.sql("CREATE TABLE t (x INT)").unwrap();
        db.sql("INSERT INTO t VALUES (1), (2), (3), (4)").unwrap();
        db.set_query_budget(Some(2), None);
        let err = db.sql("SELECT * FROM t").unwrap_err();
        assert!(
            matches!(
                err,
                KathError::Sql(SqlError::Storage(kath_storage::StorageError::Budget(_)))
            ),
            "expected Budget, got {err:?}"
        );
        db.set_query_budget(None, None);
        assert_eq!(db.sql("SELECT * FROM t").unwrap().len(), 4);
    }
}
