//! The execution context: catalog + media + models + lineage.

use crate::{ExecError, ExecOutcome};
use kath_fao::FunctionBody;
use kath_lineage::{DataKind, LineageStore};
use kath_media::{MediaKind, MediaRegistry};
use kath_model::SimLlm;
use kath_storage::{CompileMode, ExecMode, GuardSpec, SharedCatalog, Table, VectorMode};
use std::collections::HashMap;
use std::sync::Arc;

/// A table a node published, with its table-level lid.
#[derive(Debug, Clone)]
pub struct Published {
    /// The table as the catalog holds it.
    pub table: Arc<Table>,
    /// Its table-level lid.
    pub lid: i64,
}

/// What one node's last clean run read and published: the record a later
/// question checks before running the node again (docs/execution.md,
/// "Incremental re-execution"). Tables are compared by identity — the
/// record keeps each `Arc`, so an address cannot be reused while it is
/// compared — never by content. In memory only.
#[derive(Debug)]
pub struct Materialization {
    func_id: String,
    body: FunctionBody,
    /// The tables `body.inputs()` named, in that order.
    inputs: Vec<Arc<Table>>,
    /// The media collection the body reads and its stamp after the run (a
    /// repairing view population replaces images while it runs).
    media: Option<(MediaKind, u64)>,
    /// Tables the run published besides its output (a view population's
    /// views).
    side_outputs: Vec<Published>,
    output: Published,
    rows_in: usize,
}

impl Materialization {
    /// Every table the node published, its own output last.
    pub fn outputs(&self) -> impl Iterator<Item = &Published> {
        self.side_outputs.iter().chain([&self.output])
    }

    /// The recorded output, as the outcome of a node that did not run.
    pub(crate) fn outcome(&self) -> ExecOutcome {
        ExecOutcome {
            side_outputs: self.side_outputs.clone(),
            reused: true,
            ..ExecOutcome::serial(
                Arc::clone(&self.output.table),
                self.output.lid,
                self.rows_in,
            )
        }
    }
}

/// Everything a function body needs at runtime.
pub struct ExecContext {
    /// The system catalog (base relations + materialized intermediates),
    /// shared and versioned: statements read a frozen
    /// [`kath_storage::CatalogRef`] snapshot while concurrent sessions
    /// publish new versions.
    pub catalog: SharedCatalog,
    /// Registered media, resolved by URI.
    pub media: MediaRegistry,
    /// The simulated foundation model (shared token meter).
    pub llm: SimLlm,
    /// The provenance store.
    pub lineage: LineageStore,
    /// Table-level lid of every materialized table.
    pub table_lids: HashMap<String, i64>,
    /// The batch size relational (SQL) function bodies drive their operator
    /// pipelines at. Semantic bodies (the narrow transforms, the view
    /// populations) have no pipeline to pull and ignore it. Row-level
    /// lineage is unaffected at any setting — SQL bodies record table-level
    /// edges, and semantic bodies stamp their rows serially, in input
    /// order, after computing them.
    pub exec_mode: ExecMode,
    /// Degree of intra-query parallelism: workers that claim morsels of a
    /// SQL body's streaming phase or of a semantic
    /// body's compute phase — per-row model calls, 64 rows a morsel (an
    /// expression body splits like a SELECT, 4 096 rows a morsel).
    /// `1` (the default) runs on the calling thread and spawns nothing.
    /// Answers, lids, lineage rows, token totals, failed rows and repairs
    /// are identical at any setting; only [`ExecOutcome::workers`] and the
    /// timings tell.
    pub threads: usize,
    /// Vector access-path policy for SQL bodies: whether (and how) the
    /// `ORDER BY SIMILARITY(...) DESC LIMIT k` pattern lowers to the top-k
    /// vector scan. `Auto` (the default) lets the cost model pick Flat vs
    /// IVF per query from catalog cardinality. The exact paths (`Off`,
    /// `Flat`, small-table `Auto`) match the full-sort plan bit for bit;
    /// the approximate IVF path (`Auto` above the cost crossover) keeps
    /// the row count and a tested recall floor instead — the §4
    /// accuracy-for-cost trade, made per query.
    pub vector_mode: VectorMode,
    /// Stored and ignored: there is no compiled drive. The field stays
    /// for the repo benchmark, which reads it.
    pub compile: CompileMode,
    /// Session-level query limits — timeout, row/byte budgets, and the
    /// shared cancellation token. Each statement — and each node of an NL
    /// plan, SQL or semantic — mints a fresh [`kath_storage::QueryGuard`]
    /// from this spec (`limits.guard()`), so the deadline restarts per
    /// statement or node while the cancel token is shared with whoever
    /// holds a handle to it. A trip surfaces as [`ExecError::Guard`]. Like
    /// `exec_mode`, `threads` and `vector_mode`, this is the setting of the
    /// run in progress: the facade copies its session's here per question.
    pub limits: GuardSpec,
    /// One record per node output, keyed by the output's name.
    materializations: HashMap<String, Materialization>,
}

impl ExecContext {
    /// Builds a context around a model.
    pub fn new(llm: SimLlm) -> Self {
        Self {
            catalog: SharedCatalog::new(),
            media: MediaRegistry::new(),
            llm,
            lineage: LineageStore::new(),
            table_lids: HashMap::new(),
            exec_mode: ExecMode::default(),
            threads: 1,
            vector_mode: VectorMode::default(),
            compile: CompileMode::Off,
            limits: GuardSpec::default(),
            materializations: HashMap::new(),
        }
    }

    /// Ingests a base table: registers it in the catalog and creates the
    /// single table-level lineage root of §3 ("Ingesting a raw table creates
    /// a single lineage entry with data_type=table").
    pub fn ingest_table(&mut self, table: Table, src_uri: &str) -> Result<i64, ExecError> {
        let name = table.name().to_string();
        let lid = self.lineage.alloc_lid();
        self.lineage.record(
            lid,
            None,
            Some(src_uri.to_string()),
            "ingest",
            1,
            DataKind::Table,
        )?;
        self.catalog.register(table)?;
        self.table_lids.insert(name, lid);
        Ok(lid)
    }

    /// Registers (or replaces) a materialized intermediate with its lid and
    /// returns it as the catalog holds it.
    pub fn materialize(&mut self, table: Table, lid: i64) -> Arc<Table> {
        let name = table.name().to_string();
        self.table_lids.insert(name, lid);
        self.catalog.register_or_replace(table)
    }

    /// Publishes a table another context materialized, under the same name
    /// and lid, without copying it.
    pub fn adopt(&mut self, published: &Published) {
        self.table_lids
            .insert(published.table.name().to_string(), published.lid);
        self.catalog
            .register_or_replace(Arc::clone(&published.table));
    }

    /// The record of `output`, if running `func_id` with `body` now would
    /// repeat the run that made it: the same body, every table the body
    /// reads still the table that run read, the media collection it reads
    /// unchanged, and every table it published still in the catalog under
    /// the lid it was given.
    pub fn reusable(
        &self,
        func_id: &str,
        body: &FunctionBody,
        output: &str,
    ) -> Option<&Materialization> {
        let record = self.materializations.get(output)?;
        if record.func_id != func_id || record.body != *body {
            return None;
        }
        let snapshot = self.catalog.snapshot();
        let current = |table: &Arc<Table>| {
            snapshot
                .get(table.name())
                .is_ok_and(|now| Arc::ptr_eq(&now, table))
        };
        let valid = record.inputs.iter().all(current)
            && record.media == self.media_identity(body)
            && record
                .outputs()
                .all(|p| current(&p.table) && self.table_lid(p.table.name()) == Some(p.lid));
        valid.then_some(record)
    }

    /// The media collection `body` reads directly, with its current stamp.
    fn media_identity(&self, body: &FunctionBody) -> Option<(MediaKind, u64)> {
        let kind = match body {
            FunctionBody::ViewPopulate { modality, .. } if modality == "text" => {
                MediaKind::Documents
            }
            FunctionBody::ViewPopulate { .. } | FunctionBody::VisualClassify { .. } => {
                MediaKind::Images
            }
            _ => return None,
        };
        Some((kind, self.media.stamp(kind)))
    }

    /// Forgets the record of `output` and returns the tables `body` is
    /// about to read — as they are *before* the run, so that a table
    /// replaced while the node runs (by the node itself or by a concurrent
    /// session) can only make the record fail to validate, never validate
    /// wrongly. `None` if one of them does not exist.
    pub(crate) fn begin_node(
        &mut self,
        body: &FunctionBody,
        output: &str,
    ) -> Option<Vec<Arc<Table>>> {
        self.materializations.remove(output);
        let snapshot = self.catalog.snapshot();
        body.inputs()
            .iter()
            .map(|name| snapshot.get(name).ok())
            .collect()
    }

    /// Records the clean run of `body` over `inputs` that ended in `outcome`.
    pub(crate) fn record_node(
        &mut self,
        func_id: &str,
        body: &FunctionBody,
        output: &str,
        inputs: Vec<Arc<Table>>,
        outcome: &ExecOutcome,
    ) {
        let record = Materialization {
            func_id: func_id.to_string(),
            body: body.clone(),
            inputs,
            media: self.media_identity(body),
            side_outputs: outcome.side_outputs.clone(),
            output: Published {
                table: Arc::clone(&outcome.table),
                lid: outcome.output_lid,
            },
            rows_in: outcome.rows_in,
        };
        self.materializations.insert(output.to_string(), record);
    }

    /// The table-level lid of a materialized table, if known.
    pub fn table_lid(&self, name: &str) -> Option<i64> {
        self.table_lids.get(name).copied()
    }

    /// Creates the lineage root for a media collection (one per modality,
    /// like a raw-table ingest).
    pub fn ingest_media_root(&mut self, src_uri: &str) -> Result<i64, ExecError> {
        let lid = self.lineage.alloc_lid();
        self.lineage.record(
            lid,
            None,
            Some(src_uri.to_string()),
            "ingest_media",
            1,
            DataKind::Table,
        )?;
        Ok(lid)
    }
}

/// Extracts the trailing integer id from a media URI, the convention that
/// ties media to the `did`/`vid` columns of the base table (e.g.
/// `file://posters/7.png` → 7, `doc://plot/3` → 3).
pub fn id_from_uri(uri: &str) -> Option<i64> {
    let stem = uri
        .rsplit_once('.')
        .map(|(s, ext)| {
            // Only strip a real extension (alphanumeric, short).
            if ext.len() <= 5 && ext.chars().all(|c| c.is_ascii_alphanumeric()) {
                s
            } else {
                uri
            }
        })
        .unwrap_or(uri);
    let id = stem.trim_end_matches(|c: char| c.is_ascii_digit()).len();
    stem[id..].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kath_model::TokenMeter;
    use kath_storage::{DataType, Schema};

    #[test]
    fn ingest_creates_single_table_root() {
        let mut ctx = ExecContext::new(SimLlm::new(1, TokenMeter::new()));
        let t = Table::new("movie_table", Schema::of(&[("id", DataType::Int)]));
        let lid = ctx.ingest_table(t, "file://data/movies").unwrap();
        assert_eq!(ctx.lineage.len(), 1);
        assert_eq!(ctx.table_lid("movie_table"), Some(lid));
        let e = &ctx.lineage.edges_of(lid)[0];
        assert_eq!(e.src_uri.as_deref(), Some("file://data/movies"));
        assert!(e.parent_lid.is_none());
    }

    #[test]
    fn duplicate_ingest_fails() {
        let mut ctx = ExecContext::new(SimLlm::new(1, TokenMeter::new()));
        let t = Table::new("t", Schema::of(&[("id", DataType::Int)]));
        ctx.ingest_table(t.clone(), "u").unwrap();
        assert!(ctx.ingest_table(t, "u").is_err());
    }

    #[test]
    fn id_from_uri_conventions() {
        assert_eq!(id_from_uri("file://posters/7.png"), Some(7));
        assert_eq!(id_from_uri("doc://plot/3"), Some(3));
        assert_eq!(id_from_uri("file://posters/142.heic"), Some(142));
        assert_eq!(id_from_uri("file://posters/cover.png"), None);
        assert_eq!(id_from_uri(""), None);
    }
}
