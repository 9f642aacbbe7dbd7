//! The execution engine: runs a physical plan node by node under the
//! monitor, recording lineage and timings (§2.3).

use crate::{AnomalyEvent, ExecContext, ExecError, Monitor, RepairEvent};
use kath_fao::{FunctionBody, FunctionRegistry};
use kath_model::UserChannel;
use kath_storage::Table;
use std::sync::Arc;
use std::time::Instant;

/// One node of the physical plan: a function to execute (its active version
/// comes from the registry) and the output table it materializes.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalNode {
    /// The function id.
    pub func_id: String,
    /// The output table name.
    pub output: String,
}

/// An ordered physical plan (topological order by construction: the logical
/// plan threads outputs into inputs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhysicalPlan {
    /// The nodes, in execution order.
    pub nodes: Vec<PhysicalNode>,
}

impl PhysicalPlan {
    /// The final output table name.
    pub fn final_output(&self) -> Option<&str> {
        self.nodes.last().map(|n| n.output.as_str())
    }
}

/// Per-node execution measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTiming {
    /// Function id.
    pub func_id: String,
    /// Wall-clock milliseconds.
    pub elapsed_ms: f64,
    /// Rows in the node's output.
    pub rows_out: usize,
    /// Batches the node's operator pipeline produced (0 when the node is
    /// not relational).
    pub batches_out: usize,
    /// Workers that drove the node's streaming phase — a SQL node's morsel
    /// pipelines, a semantic node's compute phase (1 when serial).
    pub workers: usize,
    /// Busy milliseconds per worker, in worker order (empty when serial).
    pub worker_ms: Vec<f64>,
    /// Milliseconds of the single-threaded step after the workers: a SQL
    /// node's deterministic merge (0.0 when serial), a semantic node's
    /// in-order stamp phase.
    pub merge_ms: f64,
    /// Whether the node did not run: its output was still the one an
    /// earlier question on this context materialized.
    pub reused: bool,
}

/// The engine's report for one query.
#[derive(Debug)]
pub struct ExecReport {
    /// The final result table.
    pub final_table: Table,
    /// All repairs performed by the monitor.
    pub repairs: Vec<RepairEvent>,
    /// All semantic anomalies raised (accepted or patched).
    pub anomalies: Vec<AnomalyEvent>,
    /// Per-node timings.
    pub timings: Vec<NodeTiming>,
}

impl ExecReport {
    /// Function ids of the nodes that did not run: their function and
    /// inputs were unchanged since an earlier question on the same context,
    /// so the monitor served the outputs that question materialized.
    pub fn reused_nodes(&self) -> impl Iterator<Item = &str> {
        self.timings
            .iter()
            .filter(|t| t.reused)
            .map(|t| t.func_id.as_str())
    }
}

/// The execution engine.
pub struct ExecutionEngine {
    /// Run the semantic fan-out check after SQL join nodes (§5). The key it
    /// guards is the movie id column.
    pub semantic_checks: bool,
    /// Key column used by the fan-out check.
    pub fanout_key: String,
}

impl Default for ExecutionEngine {
    fn default() -> Self {
        Self {
            semantic_checks: true,
            fanout_key: "id".to_string(),
        }
    }
}

impl ExecutionEngine {
    /// An engine with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Executes the plan. Each node runs under the monitor's repair loop;
    /// SQL join nodes additionally get the semantic fan-out check.
    pub fn run(
        &self,
        ctx: &mut ExecContext,
        registry: &mut FunctionRegistry,
        plan: &PhysicalPlan,
        channel: &dyn UserChannel,
    ) -> Result<ExecReport, ExecError> {
        let monitor = Monitor::new(channel);
        let mut repairs = Vec::new();
        let mut anomalies = Vec::new();
        let mut timings = Vec::new();
        let mut final_table: Option<Arc<Table>> = None;

        for node in &plan.nodes {
            let started = Instant::now(); // lint: nondet-ok — per-node timing telemetry in the run report; results never depend on it
            let (mut outcome, node_repairs) =
                monitor.execute_with_repair(ctx, registry, &node.func_id, &node.output)?;
            repairs.extend(node_repairs);

            // A reused join output was checked when it was produced.
            if self.semantic_checks && !outcome.reused && is_join_sql(registry, &node.func_id) {
                if let Some((event, reexec)) = monitor.check_fanout(
                    ctx,
                    registry,
                    &node.func_id,
                    &node.output,
                    &self.fanout_key,
                )? {
                    anomalies.push(event);
                    if let Some(fixed) = reexec {
                        outcome = fixed;
                    }
                }
            }

            timings.push(NodeTiming {
                func_id: node.func_id.clone(),
                elapsed_ms: started.elapsed().as_secs_f64() * 1000.0,
                rows_out: outcome.table.len(),
                batches_out: outcome.batches_out,
                workers: outcome.workers,
                worker_ms: outcome.worker_ms,
                merge_ms: outcome.merge_ms,
                reused: outcome.reused,
            });
            final_table = Some(outcome.table);
        }

        let final_table = final_table.ok_or_else(|| ExecError::Sql("empty plan".into()))?;
        Ok(ExecReport {
            final_table: Arc::unwrap_or_clone(final_table),
            repairs,
            anomalies,
            timings,
        })
    }
}

fn is_join_sql(registry: &FunctionRegistry, func_id: &str) -> bool {
    registry
        .get(func_id)
        .ok()
        .map(|e| match &e.active_version().body {
            FunctionBody::Sql { query, .. } => kath_sql::parse_select(query)
                .map(|s| !s.joins.is_empty())
                .unwrap_or(false),
            _ => false,
        })
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kath_fao::FunctionSignature;
    use kath_model::{SilentChannel, SimLlm, TokenMeter};
    use kath_storage::{DataType, Schema, Value};

    fn setup() -> (ExecContext, FunctionRegistry, PhysicalPlan) {
        let mut ctx = ExecContext::new(SimLlm::new(42, TokenMeter::new()));
        let films = Table::from_rows(
            "films",
            Schema::of(&[
                ("id", DataType::Int),
                ("title", DataType::Str),
                ("year", DataType::Int),
            ]),
            vec![
                vec![1i64.into(), "Guilty by Suspicion".into(), 1991i64.into()],
                vec![2i64.into(), "Clean and Sober".into(), 1988i64.into()],
                vec![3i64.into(), "Quiet Days".into(), 1975i64.into()],
            ],
        )
        .unwrap();
        ctx.ingest_table(films, "file://films").unwrap();

        let mut registry = FunctionRegistry::new();
        registry.register(
            FunctionSignature::new(
                "gen_recency_score",
                "newer is higher",
                vec!["films".into()],
                "scored",
            ),
            FunctionBody::MapExpr {
                input: "films".into(),
                expr: "clamp01((year - 1970) / 25.0)".into(),
                output_column: "recency_score".into(),
            },
            "initial",
        );
        registry.register(
            FunctionSignature::new(
                "rank_films",
                "rank by score",
                vec!["scored".into()],
                "ranked",
            ),
            FunctionBody::Sql {
                query: "SELECT id, title, year, lid, recency_score FROM scored \
                        ORDER BY recency_score DESC"
                    .into(),
                dedup_key: None,
            },
            "initial",
        );
        let plan = PhysicalPlan {
            nodes: vec![
                PhysicalNode {
                    func_id: "gen_recency_score".into(),
                    output: "scored".into(),
                },
                PhysicalNode {
                    func_id: "rank_films".into(),
                    output: "ranked".into(),
                },
            ],
        };
        (ctx, registry, plan)
    }

    #[test]
    fn two_node_plan_runs_end_to_end() {
        let (mut ctx, mut registry, plan) = setup();
        let engine = ExecutionEngine::new();
        let channel = SilentChannel;
        let report = engine
            .run(&mut ctx, &mut registry, &plan, &channel)
            .unwrap();
        assert_eq!(report.final_table.len(), 3);
        assert_eq!(
            report.final_table.cell(0, "title").unwrap().as_str(),
            Some("Guilty by Suspicion")
        );
        assert!(report.repairs.is_empty());
        assert!(report.anomalies.is_empty());
        assert_eq!(report.timings.len(), 2);
        // The SQL node ran batched (default mode) and reported its batches;
        // the narrow map node has no operator pipeline to batch.
        assert_eq!(report.timings[0].batches_out, 0);
        assert!(report.timings[1].batches_out >= 1);
        // The final table keeps per-row lids for explanation (Fig. 6).
        assert!(report.final_table.schema().index_of("lid").is_some());
        let lid = report.final_table.cell(0, "lid").unwrap();
        assert!(matches!(lid, Value::Int(_)));
    }

    #[test]
    fn empty_plan_is_an_error() {
        let (mut ctx, mut registry, _) = setup();
        let engine = ExecutionEngine::new();
        let channel = SilentChannel;
        let err = engine.run(&mut ctx, &mut registry, &PhysicalPlan::default(), &channel);
        assert!(err.is_err());
    }

    #[test]
    fn final_tuple_lineage_traces_to_ingest() {
        let (mut ctx, mut registry, plan) = setup();
        let engine = ExecutionEngine::new();
        let channel = SilentChannel;
        let report = engine
            .run(&mut ctx, &mut registry, &plan, &channel)
            .unwrap();
        let lid = report.final_table.cell(0, "lid").unwrap().as_int().unwrap();
        let trace = ctx.lineage.trace(lid).unwrap();
        let funcs: Vec<String> = trace.functions().into_iter().map(|(f, _)| f).collect();
        assert!(funcs.contains(&"gen_recency_score".to_string()));
        assert!(funcs.contains(&"ingest".to_string()));
    }
}
