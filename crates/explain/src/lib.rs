//! KathDB's query result explainer (§5, Fig. 5).
//!
//! Exposes the full provenance of query results and makes it queryable in
//! NL. Two modes: **coarse** (a high-level overview of the transformations
//! the pipeline performed) and **fine-grained** (a per-`lid` account of how
//! every output field was derived, tracing parent tuples through the
//! versioned functions that produced them).

#![warn(missing_docs)]

use kath_exec::PhysicalPlan;
use kath_fao::{FunctionBody, FunctionRegistry};
use kath_lineage::{LineageError, LineageStore};
use kath_storage::{Catalog, Value};

/// The explainer: read-only views over the artifacts of one executed query.
pub struct Explainer<'a> {
    /// The executed physical plan.
    pub plan: &'a PhysicalPlan,
    /// The function registry (bodies + versions + notes).
    pub registry: &'a FunctionRegistry,
    /// The provenance store.
    pub lineage: &'a LineageStore,
    /// The catalog with all materialized intermediates.
    pub catalog: &'a Catalog,
    /// Function ids of the plan nodes that did not run for this query: their
    /// outputs were still the ones an earlier question materialized.
    pub reused: &'a [String],
}

impl<'a> Explainer<'a> {
    /// Builds an explainer over a finished query's artifacts.
    pub fn new(
        plan: &'a PhysicalPlan,
        registry: &'a FunctionRegistry,
        lineage: &'a LineageStore,
        catalog: &'a Catalog,
    ) -> Self {
        Self {
            plan,
            registry,
            lineage,
            catalog,
            reused: &[],
        }
    }

    /// Names the nodes the engine served from an earlier question
    /// (`NodeTiming::reused`), so the pipeline overview can say so.
    pub fn with_reused(mut self, reused: &'a [String]) -> Self {
        self.reused = reused;
        self
    }

    /// Coarse-grained mode (Fig. 5 left): a numbered overview of every
    /// transformation in the pipeline, including how many versions each
    /// function went through.
    pub fn explain_pipeline(&self) -> String {
        let mut out = String::from("Pipeline overview:\n");
        for (i, node) in self.plan.nodes.iter().enumerate() {
            let line = match self.registry.get(&node.func_id) {
                Ok(entry) => {
                    let v = entry.active_version();
                    let versions = entry.versions.len();
                    let version_note = if versions > 1 {
                        format!(" [v{} of {}: {}]", v.ver_id, versions, v.note)
                    } else {
                        String::new()
                    };
                    let reuse_note = if self.reused.contains(&node.func_id) {
                        " [reused: function and inputs unchanged since an earlier question]"
                    } else {
                        ""
                    };
                    format!(
                        "{}: {} — {}{}{}\n",
                        i + 1,
                        node.func_id,
                        v.body.summarize(),
                        version_note,
                        reuse_note
                    )
                }
                Err(_) => format!("{}: {} (unregistered)\n", i + 1, node.func_id),
            };
            out.push_str(&line);
        }
        out
    }

    /// Fine-grained mode (Fig. 5 right): takes a specific `lid`, inspects
    /// the function implementations along its derivation, traces parent
    /// tuples, and shows how each computed field of the tuple was derived.
    pub fn explain_tuple(&self, lid: i64) -> Result<String, LineageError> {
        let trace = self.lineage.trace(lid)?;
        let mut out = format!("Derivation of tuple lid={lid}:\n");

        // Locate the tuple's row in a materialized table.
        let located = self.locate_row(lid);
        if let Some((table_name, row, schema_names)) = &located {
            out.push_str(&format!("  found in materialized view '{table_name}':\n"));
            for (name, value) in schema_names.iter().zip(row.iter()) {
                out.push_str(&format!("    {name}: {}\n", value.render()));
            }
            // Field derivations for computed columns: walk the trace's
            // functions and, for expression-valued bodies, show the formula
            // with the operand values substituted (Fig. 5's
            // "0.7 * 0.99999988 + 0.3 * 1.0 ≈ 0.99999992").
            out.push_str("  field derivations:\n");
            for (func_id, ver_id) in trace.functions() {
                let Ok(entry) = self.registry.get(&func_id) else {
                    continue;
                };
                let Some(version) = entry.version(ver_id) else {
                    continue;
                };
                match &version.body {
                    FunctionBody::MapExpr {
                        expr,
                        output_column,
                        ..
                    } => {
                        let value = schema_names
                            .iter()
                            .position(|n| n == output_column)
                            .map(|i| row[i].render())
                            .unwrap_or_else(|| "<not in this view>".into());
                        let substituted = substitute_operands(expr, schema_names, row);
                        out.push_str(&format!(
                            "    **{output_column}** (by {func_id} v{ver_id}): \
                             {substituted} ≈ {value}\n"
                        ));
                    }
                    FunctionBody::ConceptScore {
                        keywords,
                        output_column,
                        ..
                    } => {
                        let value = schema_names
                            .iter()
                            .position(|n| n == output_column)
                            .map(|i| row[i].render())
                            .unwrap_or_else(|| "<not in this view>".into());
                        let preview: Vec<&str> =
                            keywords.iter().take(4).map(String::as_str).collect();
                        out.push_str(&format!(
                            "    **{output_column}** (by {func_id} v{ver_id}): plot contains \
                             keywords related to \"{}\", etc.; score is {value}\n",
                            preview.join("\", \"")
                        ));
                    }
                    FunctionBody::VisualClassify {
                        output_column,
                        threshold,
                        implementation,
                        ..
                    } => {
                        let value = schema_names
                            .iter()
                            .position(|n| n == output_column)
                            .map(|i| row[i].render())
                            .unwrap_or_else(|| "<not in this view>".into());
                        out.push_str(&format!(
                            "    **{output_column}** (by {func_id} v{ver_id}): poster flagged \
                             {value} — visual interest vs threshold {threshold} using {}\n",
                            implementation.as_str()
                        ));
                    }
                    _ => {}
                }
            }
        } else {
            out.push_str("  (tuple not present in any materialized view)\n");
        }

        // Parent chain.
        out.push_str("  provenance chain:\n");
        render_trace(&trace, 2, &mut out);
        Ok(out)
    }

    /// NL question answering over the lineage and plan artifacts (§5:
    /// "the user can also ask NL queries over this lineage information").
    pub fn answer(&self, question: &str) -> String {
        let lower = question.to_lowercase();
        // "explain tuple 1621" / "why is tuple 1621 in the result"
        if let Some(lid) = extract_number(&lower) {
            if lower.contains("tuple") || lower.contains("row") || lower.contains("lid") {
                return self
                    .explain_tuple(lid)
                    .unwrap_or_else(|e| format!("cannot explain lid {lid}: {e}"));
            }
        }
        if lower.contains("pipeline") || lower.contains("whole query") || lower.contains("overview")
        {
            return self.explain_pipeline();
        }
        // "what produced column final_score"
        if lower.contains("column") || lower.contains("produced") {
            for name in self.registry.names() {
                let Ok(entry) = self.registry.get(name) else {
                    continue;
                };
                let out_col = match &entry.active_version().body {
                    FunctionBody::MapExpr { output_column, .. }
                    | FunctionBody::ConceptScore { output_column, .. }
                    | FunctionBody::VisualClassify { output_column, .. } => {
                        Some(output_column.clone())
                    }
                    _ => None,
                };
                if let Some(col) = out_col {
                    if lower.contains(&col.to_lowercase()) {
                        let v = entry.active_version();
                        return format!(
                            "Column '{col}' is produced by {name} (v{}): {}",
                            v.ver_id,
                            v.body.summarize()
                        );
                    }
                }
            }
        }
        // "how many versions of classify_boring"
        if lower.contains("version") {
            for name in self.registry.names() {
                if lower.contains(&name.to_lowercase()) {
                    let entry = self.registry.get(name).expect("name from registry");
                    let notes: Vec<String> = entry
                        .versions
                        .iter()
                        .map(|v| format!("v{} ({})", v.ver_id, v.note))
                        .collect();
                    return format!(
                        "{name} has {} version(s): {} — active: v{}",
                        entry.versions.len(),
                        notes.join(", "),
                        entry.active
                    );
                }
            }
        }
        format!(
            "I can explain: 'explain the pipeline', 'explain tuple <lid>', \
             'what produced column <name>', 'versions of <function>'. \
             (question was: {question})"
        )
    }

    /// Finds the materialized row carrying `lid` in its `lid` column,
    /// searching the most recent (later-plan) outputs first.
    fn locate_row(&self, lid: i64) -> Option<(String, Vec<Value>, Vec<String>)> {
        for node in self.plan.nodes.iter().rev() {
            let Ok(table) = self.catalog.get(&node.output) else {
                continue;
            };
            let Some(idx) = table.schema().index_of("lid") else {
                continue;
            };
            for row in table.rows() {
                if row[idx] == Value::Int(lid) {
                    return Some((
                        node.output.clone(),
                        row.clone(),
                        table
                            .schema()
                            .names()
                            .into_iter()
                            .map(String::from)
                            .collect(),
                    ));
                }
            }
        }
        None
    }
}

/// Substitutes column operands of an expression with the row's values:
/// `0.7 * excitement_score + 0.3 * recency_score` becomes
/// `0.7 * 0.99999988 + 0.3 * 1.0`.
fn substitute_operands(expr: &str, names: &[String], row: &[Value]) -> String {
    let mut out = expr.to_string();
    // Longest names first so `excitement_score` is replaced before `score`.
    let mut indexed: Vec<(usize, &String)> = names.iter().enumerate().collect();
    indexed.sort_by_key(|(_, n)| std::cmp::Reverse(n.len()));
    for (i, name) in indexed {
        if out.contains(name.as_str()) {
            out = out.replace(name.as_str(), &row[i].render());
        }
    }
    out
}

fn render_trace(trace: &kath_lineage::DerivationTrace, indent: usize, out: &mut String) {
    for edge in &trace.edges {
        out.push_str(&format!(
            "{}lid {} <- {} (by {} v{}, {})\n",
            "  ".repeat(indent),
            edge.lid,
            edge.parent_lid
                .map(|p| format!("parent lid {p}"))
                .unwrap_or_else(|| format!(
                    "external source {}",
                    edge.src_uri.as_deref().unwrap_or("<unknown>")
                )),
            edge.func_id,
            edge.ver_id,
            edge.data_type,
        ));
    }
    for parent in &trace.parents {
        render_trace(parent, indent + 1, out);
    }
}

fn extract_number(text: &str) -> Option<i64> {
    let mut current = String::new();
    for c in text.chars() {
        if c.is_ascii_digit() {
            current.push(c);
        } else if !current.is_empty() {
            break;
        }
    }
    current.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kath_exec::{execute_body, ExecContext, PhysicalNode};
    use kath_fao::FunctionSignature;
    use kath_model::{SimLlm, TokenMeter};
    use kath_storage::{DataType, Schema, Table};

    /// A two-step pipeline: recency score then weighted combine, enough to
    /// reproduce the Fig. 5 explanations.
    fn setup() -> (ExecContext, FunctionRegistry, PhysicalPlan) {
        let mut ctx = ExecContext::new(SimLlm::new(42, TokenMeter::new()));
        let films = Table::from_rows(
            "films",
            Schema::of(&[
                ("id", DataType::Int),
                ("title", DataType::Str),
                ("year", DataType::Int),
                ("excitement_score", DataType::Float),
            ]),
            vec![
                vec![
                    1i64.into(),
                    "Guilty by Suspicion".into(),
                    1991i64.into(),
                    0.99999988.into(),
                ],
                vec![
                    2i64.into(),
                    "Clean and Sober".into(),
                    1988i64.into(),
                    0.973.into(),
                ],
            ],
        )
        .unwrap();
        ctx.ingest_table(films, "file://data/films").unwrap();
        let mut registry = FunctionRegistry::new();
        registry.register(
            FunctionSignature::new(
                "gen_recency_score",
                "newer scores higher",
                vec!["films".into()],
                "with_recency",
            ),
            FunctionBody::MapExpr {
                input: "films".into(),
                expr: "clamp01((year - 1975) / 16.0)".into(),
                output_column: "recency_score".into(),
            },
            "initial",
        );
        registry.register(
            FunctionSignature::new(
                "combine_score",
                "weighted sum",
                vec!["with_recency".into()],
                "combined",
            ),
            FunctionBody::MapExpr {
                input: "with_recency".into(),
                expr: "0.7 * excitement_score + 0.3 * recency_score".into(),
                output_column: "final_score".into(),
            },
            "initial",
        );
        let plan = PhysicalPlan {
            nodes: vec![
                PhysicalNode {
                    func_id: "gen_recency_score".into(),
                    output: "with_recency".into(),
                },
                PhysicalNode {
                    func_id: "combine_score".into(),
                    output: "combined".into(),
                },
            ],
        };
        for node in &plan.nodes {
            let body = registry
                .get(&node.func_id)
                .unwrap()
                .active_version()
                .body
                .clone();
            execute_body(&mut ctx, &node.func_id, 1, &body, &node.output).unwrap();
        }
        (ctx, registry, plan)
    }

    #[test]
    fn coarse_mode_numbers_every_step() {
        let (ctx, registry, plan) = setup();
        let snapshot = ctx.catalog.snapshot();
        let ex = Explainer::new(&plan, &registry, &ctx.lineage, &snapshot);
        let text = ex.explain_pipeline();
        assert!(text.contains("1: gen_recency_score"));
        assert!(text.contains("2: combine_score"));
        assert!(text.contains("0.7 * excitement_score"));
    }

    #[test]
    fn fine_mode_shows_weighted_sum_with_substituted_values() {
        let (ctx, registry, plan) = setup();
        let final_table = ctx.catalog.get("combined").unwrap();
        let lid_idx = final_table.schema().index_of("lid").unwrap();
        let lid = final_table.rows()[0][lid_idx].as_int().unwrap();
        let snapshot = ctx.catalog.snapshot();
        let ex = Explainer::new(&plan, &registry, &ctx.lineage, &snapshot);
        let text = ex.explain_tuple(lid).unwrap();
        // Fig. 5: the weighted sum appears with operand values substituted.
        assert!(text.contains("**final_score**"), "{text}");
        assert!(text.contains("0.7 * 0.99999988"), "{text}");
        assert!(text.contains("**recency_score**"), "{text}");
        assert!(text.contains("provenance chain"), "{text}");
        assert!(text.contains("external source file://data/films"), "{text}");
    }

    #[test]
    fn nl_questions_route_to_the_right_mode() {
        let (ctx, registry, plan) = setup();
        let snapshot = ctx.catalog.snapshot();
        let ex = Explainer::new(&plan, &registry, &ctx.lineage, &snapshot);
        assert!(ex
            .answer("Explain the pipeline?")
            .contains("Pipeline overview"));
        let final_table = ctx.catalog.get("combined").unwrap();
        let lid_idx = final_table.schema().index_of("lid").unwrap();
        let lid = final_table.rows()[0][lid_idx].as_int().unwrap();
        let a = ex.answer(&format!("Explain tuple {lid}?"));
        assert!(a.contains("Derivation of tuple"));
        let a = ex.answer("what produced column final_score?");
        assert!(a.contains("combine_score"));
        let a = ex.answer("how many versions of gen_recency_score are there?");
        assert!(a.contains("1 version(s)"));
        let a = ex.answer("sing a song");
        assert!(a.contains("I can explain"));
    }

    #[test]
    fn unknown_lid_is_reported() {
        let (ctx, registry, plan) = setup();
        let snapshot = ctx.catalog.snapshot();
        let ex = Explainer::new(&plan, &registry, &ctx.lineage, &snapshot);
        assert!(ex.explain_tuple(999_999).is_err());
        assert!(ex.answer("explain tuple 999999").contains("cannot explain"));
    }

    #[test]
    fn substitution_replaces_longest_names_first() {
        let names = vec!["score".to_string(), "excitement_score".to_string()];
        let row = vec![Value::Float(0.5), Value::Float(0.9)];
        let out = substitute_operands("0.7 * excitement_score + score", &names, &row);
        assert_eq!(out, "0.7 * 0.9 + 0.5");
    }
}
