//! The agentic execution monitor (§5).
//!
//! Syntactic faults launch the two-agent loop: the *reviewer* diagnoses the
//! exception, the *rewriter* patches the body, the registry bumps `ver_id`,
//! and execution resumes — tuples unaffected by the error have already
//! flowed through the old definition and keep its results: the patched
//! version runs over the failed items only, spliced back in row order.
//! Semantic anomalies (a join fanning one poster out to several movies) are
//! explained to the user, who chooses to accept, adjust, or rewrite.
//!
//! Every node passes through [`run_node`] here, which is also where a
//! follow-up question is spared the nodes it shares with an earlier one: a
//! node whose body, inputs and outputs are still those of its last clean
//! run returns that run's output instead of running again.

use crate::interp::execute;
use crate::{ExecContext, ExecError, ExecOutcome};
use kath_fao::{FunctionBody, FunctionRegistry};
use kath_model::UserChannel;
use kath_sql::{SqlBinOp, SqlExpr};
use kath_storage::Table;
use std::sync::Arc;

/// A completed repair.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairEvent {
    /// The repaired function.
    pub func_id: String,
    /// Version that failed.
    pub from_ver: u32,
    /// Version the rewriter produced.
    pub to_ver: u32,
    /// The reviewer agent's diagnosis.
    pub diagnosis: String,
    /// Items (input rows, media items) that had succeeded under the old
    /// version and keep its results (§5); 0 when the node failed as a whole.
    pub unaffected_tuples: usize,
    /// Items the new version ran over: the ones that failed.
    pub failed_tuples: usize,
}

impl RepairEvent {
    /// "repaired 21 of 1 000 items (v1 → v2); the other 979 kept their v1
    /// results", or, for a node that failed as a whole, "repaired the whole
    /// node (v1 → v2)".
    pub fn summary(&self) -> String {
        let (from, to) = (self.from_ver, self.to_ver);
        match self.failed_tuples {
            0 => format!("repaired the whole node (v{from} → v{to})"),
            failed => format!(
                "repaired {} of {} items (v{from} → v{to}); the other {} kept their v{from} results",
                grouped(failed),
                grouped(failed + self.unaffected_tuples),
                grouped(self.unaffected_tuples)
            ),
        }
    }
}

/// `n` with its thousands set apart by spaces: `1 000`.
fn grouped(n: usize) -> String {
    let digits = n.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(' ');
        }
        out.push(c);
    }
    out
}

/// A detected semantic anomaly and its resolution.
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyEvent {
    /// The function whose output looked wrong.
    pub func_id: String,
    /// What the monitor observed.
    pub observation: String,
    /// The likely cause, as explained to the user.
    pub explanation: String,
    /// The user's decision.
    pub user_reply: String,
    /// Whether a corrective version was installed.
    pub patched: bool,
}

/// One run of a node: its outcome, and the tables the node read before its
/// first attempt (`None` when one of them did not exist or the node did not
/// run) — what a clean run, or a clean splice, is recorded under.
struct Attempt {
    outcome: ExecOutcome,
    inputs: Option<Vec<Arc<Table>>>,
}

/// Runs one node: returns the output of its last clean run when that run
/// would only be repeated ([`kath_fao::Record::revalidate`]) — no model call, no
/// lineage rows, and a catalog write only to publish again an output that
/// was dropped — and otherwise executes the body,
/// recording the run if no row failed. Because a reused producer leaves
/// its output table in place and a re-executed one publishes a new table,
/// reuse and re-execution both cascade to consumers by themselves. With
/// `repairing`, an earlier attempt some of whose items failed, `body` runs
/// over those items only and its rows are spliced into that attempt's.
fn run_node(
    ctx: &mut ExecContext,
    func_id: &str,
    ver_id: u32,
    body: &FunctionBody,
    output_name: &str,
    repairing: Option<Attempt>,
) -> Result<Attempt, ExecError> {
    let (inputs, outcome) = match repairing {
        Some(Attempt { outcome, inputs }) => {
            let spliced = execute(ctx, func_id, ver_id, body, output_name, Some(&outcome))?;
            (inputs, spliced)
        }
        None => {
            if let Some(outcome) = ctx.reuse(func_id, body, output_name) {
                return Ok(Attempt {
                    outcome,
                    inputs: None,
                });
            }
            let inputs = ctx.begin_node(body, output_name);
            let outcome = execute(ctx, func_id, ver_id, body, output_name, None)?;
            (inputs, outcome)
        }
    };
    if let (Some(inputs), true) = (&inputs, outcome.failed_rows.is_empty()) {
        ctx.record_node(func_id, body, output_name, inputs.clone(), &outcome);
    }
    Ok(Attempt { outcome, inputs })
}

/// The execution monitor.
pub struct Monitor<'a> {
    channel: &'a dyn UserChannel,
    /// Maximum rewrite attempts per function.
    pub max_repairs: u32,
}

impl<'a> Monitor<'a> {
    /// Builds a monitor talking to `channel`.
    pub fn new(channel: &'a dyn UserChannel) -> Self {
        Self {
            channel,
            max_repairs: 2,
        }
    }

    /// Executes the active version of `func_id`, running the repair loop on
    /// syntactic faults. Returns the final outcome and any repairs made. A
    /// tripped query guard ([`ExecError::Guard`]) is returned as it is.
    ///
    /// When some items fail, each repair runs the patched version over
    /// those items only and splices its rows into the earlier attempt's in
    /// row order; the other items keep their results and lids (§5). An
    /// error that fails the whole node re-runs the whole node.
    pub fn execute_with_repair(
        &self,
        ctx: &mut ExecContext,
        registry: &mut FunctionRegistry,
        func_id: &str,
        output_name: &str,
    ) -> Result<(ExecOutcome, Vec<RepairEvent>), ExecError> {
        let mut repairs = Vec::new();
        let mut attempts = 0u32;
        let mut repairing = None;
        loop {
            let (ver_id, body) = {
                let entry = registry.get(func_id)?;
                let v = entry.active_version();
                (v.ver_id, v.body.clone())
            };
            let result = run_node(ctx, func_id, ver_id, &body, output_name, repairing.take());
            let error_text = match result {
                Ok(attempt) => match attempt.outcome.failed_rows.first() {
                    None => return Ok((attempt.outcome, repairs)),
                    // Item-level faults: the good items already flowed.
                    Some((_, err)) => {
                        let err = err.clone();
                        repairing = Some(attempt);
                        err
                    }
                },
                // A tripped guard says the caller ran out of time or budget
                // (or cancelled), not that the function is wrong: no
                // diagnosis call, no notification, no new version.
                Err(e @ ExecError::Guard(_)) => return Err(e),
                Err(e) => e.to_string(),
            };

            attempts += 1;
            if attempts > self.max_repairs {
                return Err(ExecError::RepairFailed {
                    func_id: func_id.to_string(),
                    last_error: error_text,
                    attempts: attempts - 1,
                });
            }
            // Reviewer diagnoses; rewriter patches; ver_id bumps (§5).
            let diagnosis = ctx.llm.diagnose_exception(&error_text);
            let Some(patched) = patch_body(&body, &error_text) else {
                self.channel.notify(&format!(
                    "Execution of {func_id} failed and no automatic patch applies: {diagnosis}"
                ));
                return Err(ExecError::RepairFailed {
                    func_id: func_id.to_string(),
                    last_error: error_text,
                    attempts,
                });
            };
            let to_ver = registry.add_version(func_id, patched, format!("repair: {diagnosis}"))?;
            let (items, failed) = (repairing.as_ref()).map_or((0, 0), |a| {
                (a.outcome.rows_in, a.outcome.failed_items.len())
            });
            let event = RepairEvent {
                func_id: func_id.to_string(),
                from_ver: ver_id,
                to_ver,
                diagnosis,
                unaffected_tuples: items - failed,
                failed_tuples: failed,
            };
            self.channel.notify(&format!(
                "Repaired {func_id} ({}): {}.",
                event.diagnosis,
                event.summary()
            ));
            repairs.push(event);
            // Resume from this operator with the new version: over the
            // failed items, or over the whole node if it failed as a whole.
        }
    }

    /// Semantic-anomaly pass over a join output (§5): if `key` shows
    /// duplicates, the monitor explains the likely cause and asks the user
    /// whether to accept or enforce a one-to-one match. Returns the event
    /// and, when patched, the re-executed outcome.
    pub fn check_fanout(
        &self,
        ctx: &mut ExecContext,
        registry: &mut FunctionRegistry,
        func_id: &str,
        output_name: &str,
        key: &str,
    ) -> Result<Option<(AnomalyEvent, Option<ExecOutcome>)>, ExecError> {
        let table = ctx.catalog.snapshot().get(output_name)?;
        if table.schema().index_of(key).is_none() {
            return Ok(None); // key not present: nothing to check
        }
        let mut seen = std::collections::HashSet::new();
        let mut dups = 0usize;
        table.for_each_in_column(key, |_, v| {
            if !v.is_null() && !seen.insert(v.clone()) {
                dups += 1;
            }
            Ok(())
        })?;
        if dups == 0 {
            return Ok(None);
        }
        let observation = format!(
            "the output of {func_id} links the same {key} to multiple rows \
             ({dups} duplicate match(es) — fan-out)"
        );
        let explanation = ctx.llm.explain_anomaly(&format!(
            "one poster image matched multiple movie rows (fan-out): {observation}"
        ));
        let reply = self.channel.ask(&format!(
            "Semantic check on {func_id}: {observation}.\nLikely cause: {explanation}\n\
             Accept the operator as is, or enforce one match per {key}? (accept/enforce)"
        ));
        let wants_enforce =
            reply.to_lowercase().contains("enforce") || reply.to_lowercase().contains("one match");
        if !wants_enforce {
            return Ok(Some((
                AnomalyEvent {
                    func_id: func_id.to_string(),
                    observation,
                    explanation,
                    user_reply: reply,
                    patched: false,
                },
                None,
            )));
        }
        // Patch: same SQL with a dedup key, new version, re-run.
        let body = registry.get(func_id)?.active_version().body.clone();
        let FunctionBody::Sql { query, .. } = body else {
            return Ok(Some((
                AnomalyEvent {
                    func_id: func_id.to_string(),
                    observation,
                    explanation,
                    user_reply: reply,
                    patched: false,
                },
                None,
            )));
        };
        let patched = FunctionBody::Sql {
            query,
            dedup_key: Some(key.to_string()),
        };
        let to_ver = registry.add_version(
            func_id,
            patched.clone(),
            format!("semantic fix: enforce one match per {key}"),
        )?;
        let outcome = run_node(ctx, func_id, to_ver, &patched, output_name, None)?.outcome;
        Ok(Some((
            AnomalyEvent {
                func_id: func_id.to_string(),
                observation,
                explanation,
                user_reply: reply,
                patched: true,
            },
            Some(outcome),
        )))
    }
}

/// The rewriter agent's patch catalogue: deterministic fixes keyed off the
/// diagnosis, standing in for LLM-generated code patches.
fn patch_body(body: &FunctionBody, error_text: &str) -> Option<FunctionBody> {
    let lower = error_text.to_lowercase();
    if lower.contains("unsupported") || lower.contains("heic") || lower.contains("tiff") {
        return match body {
            FunctionBody::VisualClassify {
                input,
                uri_column,
                output_column,
                implementation,
                threshold,
                convert_unsupported: false,
            } => Some(FunctionBody::VisualClassify {
                input: input.clone(),
                uri_column: uri_column.clone(),
                output_column: output_column.clone(),
                implementation: *implementation,
                threshold: *threshold,
                convert_unsupported: true,
            }),
            FunctionBody::ViewPopulate {
                modality,
                implementation,
                convert_unsupported: false,
            } => Some(FunctionBody::ViewPopulate {
                modality: modality.clone(),
                implementation: *implementation,
                convert_unsupported: true,
            }),
            _ => None,
        };
    }
    if lower.contains("division by zero") {
        // NULL for a zero denominator, and nothing else touched: every row
        // whose divisions all had a nonzero divisor keeps its value.
        let guard = |text: &str| -> Option<String> {
            let parsed = kath_sql::parse_expr(text).ok()?;
            Some(null_if_zero(parsed).to_string())
        };
        return match body {
            FunctionBody::MapExpr {
                input,
                expr,
                output_column,
            } => Some(FunctionBody::MapExpr {
                input: input.clone(),
                expr: guard(expr)?,
                output_column: output_column.clone(),
            }),
            FunctionBody::FilterExpr { input, predicate } => Some(FunctionBody::FilterExpr {
                input: input.clone(),
                predicate: guard(predicate)?,
            }),
            _ => None,
        };
    }
    None
}

/// `expr` with every denominator `d` of a division replaced by
/// `nullif(d, 0)`.
fn null_if_zero(expr: SqlExpr) -> SqlExpr {
    let rec = |e: Box<SqlExpr>| Box::new(null_if_zero(*e));
    match expr {
        SqlExpr::Binary(SqlBinOp::Div, l, r) => {
            let guarded = SqlExpr::Call("nullif".into(), vec![null_if_zero(*r), SqlExpr::Int(0)]);
            SqlExpr::Binary(SqlBinOp::Div, rec(l), Box::new(guarded))
        }
        SqlExpr::Binary(op, l, r) => SqlExpr::Binary(op, rec(l), rec(r)),
        SqlExpr::Not(e) => SqlExpr::Not(rec(e)),
        SqlExpr::Neg(e) => SqlExpr::Neg(rec(e)),
        SqlExpr::IsNull(e, negated) => SqlExpr::IsNull(rec(e), negated),
        SqlExpr::Call(name, args) => {
            SqlExpr::Call(name, args.into_iter().map(null_if_zero).collect())
        }
        SqlExpr::Agg(agg, arg) => SqlExpr::Agg(agg, arg.map(rec)),
        leaf => leaf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kath_fao::{FunctionSignature, VisionImpl};
    use kath_media::{BBox, Color, Image, ImageObject, MediaFormat};
    use kath_model::{ScriptedChannel, SilentChannel, SimLlm, TokenMeter};
    use kath_storage::{DataType, Schema, Table, Value};
    use std::sync::Arc;

    fn ctx_with_posters() -> ExecContext {
        let mut ctx = ExecContext::new(SimLlm::new(42, TokenMeter::new()));
        for (id, fmt) in [
            (1, MediaFormat::Png),
            (2, MediaFormat::Png),
            (3, MediaFormat::Heic),
        ] {
            ctx.media.add_image(
                Image::new(format!("file://posters/{id}.{}", fmt.extension()), fmt)
                    .with_color(Color::rgb(200, 20, 20))
                    .with_object(ImageObject::new("person", BBox::new(0.1, 0.1, 0.6, 0.9)))
                    .with_object(ImageObject::new("gun", BBox::new(0.4, 0.4, 0.6, 0.6))),
            );
        }
        let posters = Table::from_rows(
            "posters",
            Schema::of(&[("id", DataType::Int), ("poster_uri", DataType::Str)]),
            vec![
                vec![1i64.into(), "file://posters/1.png".into()],
                vec![2i64.into(), "file://posters/2.png".into()],
                vec![3i64.into(), "file://posters/3.heic".into()],
            ],
        )
        .unwrap();
        ctx.ingest_table(posters, "p").unwrap();
        ctx
    }

    #[test]
    fn heic_failure_is_repaired_with_version_bump() {
        let mut ctx = ctx_with_posters();
        let mut registry = FunctionRegistry::new();
        registry.register(
            FunctionSignature::new(
                "classify_boring",
                "flag boring posters",
                vec!["posters".into()],
                "flagged",
            ),
            FunctionBody::VisualClassify {
                input: "posters".into(),
                uri_column: "poster_uri".into(),
                output_column: "boring".into(),
                implementation: VisionImpl::VlmAccurate,
                threshold: 0.4,
                convert_unsupported: false,
            },
            "initial",
        );
        let channel = SilentChannel;
        let monitor = Monitor::new(&channel);
        let (outcome, repairs) = monitor
            .execute_with_repair(&mut ctx, &mut registry, "classify_boring", "flagged")
            .unwrap();
        // All three rows processed after the repair.
        assert_eq!(outcome.table.len(), 3);
        assert_eq!(repairs.len(), 1);
        assert_eq!(repairs[0].from_ver, 1);
        assert_eq!(repairs[0].to_ver, 2);
        assert_eq!(repairs[0].unaffected_tuples, 2);
        assert_eq!(repairs[0].failed_tuples, 1);
        assert!(repairs[0].diagnosis.contains("conversion"));
        // The two PNG rows keep their v1 lids; the HEIC row, third in row
        // order, is v2's.
        let lid = outcome.table.schema().index_of("lid").unwrap();
        let versions: Vec<u32> = (outcome.table.to_rows().unwrap().iter())
            .map(|row| ctx.lineage.edges_of(row[lid].as_int().unwrap())[0].ver_id)
            .collect();
        assert_eq!(versions, [1, 1, 2]);
        // Both versions remain in the registry.
        let entry = registry.get("classify_boring").unwrap();
        assert_eq!(entry.versions.len(), 2);
        assert_eq!(entry.active, 2);
    }

    #[test]
    fn unrepairable_fault_reports_repair_failed() {
        let mut ctx = ExecContext::new(SimLlm::new(1, TokenMeter::new()));
        let t = Table::from_rows(
            "t",
            Schema::of(&[("x", DataType::Int)]),
            vec![vec![1i64.into()]],
        )
        .unwrap();
        ctx.ingest_table(t, "u").unwrap();
        let mut registry = FunctionRegistry::new();
        registry.register(
            FunctionSignature::new("bad", "references a missing column", vec!["t".into()], "o"),
            FunctionBody::MapExpr {
                input: "t".into(),
                expr: "no_such_column + 1".into(),
                output_column: "y".into(),
            },
            "initial",
        );
        let channel = SilentChannel;
        let monitor = Monitor::new(&channel);
        let err = monitor.execute_with_repair(&mut ctx, &mut registry, "bad", "o");
        assert!(matches!(err, Err(ExecError::RepairFailed { .. })));
    }

    #[test]
    fn a_zero_divisor_is_repaired_to_null_on_its_row_only() {
        let mut ctx = ExecContext::new(SimLlm::new(1, TokenMeter::new()));
        let xs = Table::from_rows(
            "xs",
            Schema::of(&[("x", DataType::Int)]),
            vec![vec![1i64.into()], vec![0i64.into()], vec![4i64.into()]],
        )
        .unwrap();
        ctx.ingest_table(xs, "u").unwrap();
        let mut registry = FunctionRegistry::new();
        registry.register(
            FunctionSignature::new("inverse", "ten over x", vec!["xs".into()], "ys"),
            FunctionBody::MapExpr {
                input: "xs".into(),
                expr: "10.0 / x".into(),
                output_column: "y".into(),
            },
            "initial",
        );
        let monitor = Monitor::new(&SilentChannel);
        let (outcome, repairs) = monitor
            .execute_with_repair(&mut ctx, &mut registry, "inverse", "ys")
            .unwrap();
        let ys: Vec<Value> = (outcome.table.to_rows().unwrap().iter())
            .map(|r| r[2].clone())
            .collect();
        assert_eq!(ys, vec![Value::Float(10.0), Value::Null, Value::Float(2.5)]);
        assert_eq!(repairs.len(), 1);
        let repair = &repairs[0];
        assert_eq!((repair.unaffected_tuples, repair.failed_tuples), (2, 1));
        assert_eq!(
            repair.summary(),
            "repaired 1 of 3 items (v1 → v2); the other 2 kept their v1 results"
        );
        let entry = registry.get("inverse").unwrap();
        assert_eq!((entry.versions.len(), entry.active), (2, 2));
        let FunctionBody::MapExpr { expr, .. } = &entry.active_version().body else {
            panic!("the patch keeps the body kind");
        };
        assert_eq!(expr, "(10.0 / nullif(x, 0))");
    }

    #[test]
    fn counts_print_with_their_thousands_set_apart() {
        let printed: Vec<String> = [0, 7, 999, 1000, 12_345, 1_000_000]
            .into_iter()
            .map(grouped)
            .collect();
        assert_eq!(printed, ["0", "7", "999", "1 000", "12 345", "1 000 000"]);
    }

    #[test]
    fn fanout_anomaly_enforced_by_user() {
        let mut ctx = ExecContext::new(SimLlm::new(1, TokenMeter::new()));
        let films = Table::from_rows(
            "films",
            Schema::of(&[("id", DataType::Int), ("title", DataType::Str)]),
            vec![vec![1i64.into(), "A".into()], vec![2i64.into(), "B".into()]],
        )
        .unwrap();
        // Two posters claim film 1: the fan-out of §5.
        let posters = Table::from_rows(
            "posters",
            Schema::of(&[("film_id", DataType::Int), ("uri", DataType::Str)]),
            vec![
                vec![1i64.into(), "p1".into()],
                vec![1i64.into(), "p1b".into()],
                vec![2i64.into(), "p2".into()],
            ],
        )
        .unwrap();
        ctx.ingest_table(films, "f").unwrap();
        ctx.ingest_table(posters, "p").unwrap();
        let mut registry = FunctionRegistry::new();
        registry.register(
            FunctionSignature::new(
                "join_posters",
                "join posters to films",
                vec!["films".into(), "posters".into()],
                "joined",
            ),
            FunctionBody::Sql {
                query: "SELECT * FROM films JOIN posters ON films.id = posters.film_id".into(),
                dedup_key: None,
            },
            "initial",
        );
        let channel = ScriptedChannel::new(["enforce"]);
        let monitor = Monitor::new(channel.as_ref());
        let (outcome, _) = monitor
            .execute_with_repair(&mut ctx, &mut registry, "join_posters", "joined")
            .unwrap();
        assert_eq!(outcome.table.len(), 3); // fan-out present
        let result = monitor
            .check_fanout(&mut ctx, &mut registry, "join_posters", "joined", "id")
            .unwrap();
        let (event, reexec) = result.expect("anomaly must be detected");
        assert!(event.patched);
        assert!(event.explanation.contains("one-to-one"));
        let fixed = reexec.expect("patched outcome");
        assert_eq!(fixed.table.len(), 2); // one poster per movie
        assert_eq!(registry.get("join_posters").unwrap().active, 2);
    }

    #[test]
    fn fanout_accepted_by_user_is_left_alone() {
        let mut ctx = ExecContext::new(SimLlm::new(1, TokenMeter::new()));
        let t = Table::from_rows(
            "t",
            Schema::of(&[("id", DataType::Int)]),
            vec![vec![1i64.into()], vec![1i64.into()]],
        )
        .unwrap();
        ctx.ingest_table(t, "u").unwrap();
        let mut registry = FunctionRegistry::new();
        registry.register(
            FunctionSignature::new("f", "copy", vec!["t".into()], "o"),
            FunctionBody::Sql {
                query: "SELECT * FROM t".into(),
                dedup_key: None,
            },
            "initial",
        );
        let channel = ScriptedChannel::new(["accept, that is expected"]);
        let monitor = Monitor::new(channel.as_ref());
        monitor
            .execute_with_repair(&mut ctx, &mut registry, "f", "o")
            .unwrap();
        let result = monitor
            .check_fanout(&mut ctx, &mut registry, "f", "o", "id")
            .unwrap();
        let (event, reexec) = result.unwrap();
        assert!(!event.patched);
        assert!(reexec.is_none());
        assert_eq!(registry.get("f").unwrap().active, 1);
    }

    #[test]
    fn no_anomaly_on_unique_keys() {
        let mut ctx = ExecContext::new(SimLlm::new(1, TokenMeter::new()));
        let t = Table::from_rows(
            "t",
            Schema::of(&[("id", DataType::Int)]),
            vec![vec![1i64.into()], vec![2i64.into()]],
        )
        .unwrap();
        ctx.ingest_table(t, "u").unwrap();
        let mut registry = FunctionRegistry::new();
        registry.register(
            FunctionSignature::new("f", "copy", vec!["t".into()], "o"),
            FunctionBody::Sql {
                query: "SELECT * FROM t".into(),
                dedup_key: None,
            },
            "initial",
        );
        let channel = SilentChannel;
        let monitor = Monitor::new(&channel);
        monitor
            .execute_with_repair(&mut ctx, &mut registry, "f", "o")
            .unwrap();
        let result = monitor
            .check_fanout(&mut ctx, &mut registry, "f", "o", "id")
            .unwrap();
        assert!(result.is_none());
    }

    /// `copy_t` reads `t` and writes `o`; returns whether the run was reused.
    fn run_copy(ctx: &mut ExecContext, registry: &mut FunctionRegistry) -> bool {
        let monitor = Monitor::new(&SilentChannel);
        let (outcome, repairs) = monitor
            .execute_with_repair(ctx, registry, "copy_t", "o")
            .unwrap();
        assert!(repairs.is_empty());
        assert_eq!(outcome.table.len(), 2);
        outcome.reused
    }

    fn two_rows(name: &str) -> Table {
        Table::from_rows(
            name,
            Schema::of(&[("id", DataType::Int)]),
            vec![vec![1i64.into()], vec![2i64.into()]],
        )
        .unwrap()
    }

    #[test]
    fn reuse_is_keyed_on_shared_rows_not_equal_content() {
        let mut ctx = ExecContext::new(SimLlm::new(1, TokenMeter::new()));
        ctx.ingest_table(two_rows("t"), "u").unwrap();
        let mut registry = FunctionRegistry::new();
        registry.register(
            FunctionSignature::new("copy_t", "copy", vec!["t".into()], "o"),
            FunctionBody::Sql {
                query: "SELECT * FROM t".into(),
                dedup_key: None,
            },
            "initial",
        );
        assert!(!run_copy(&mut ctx, &mut registry));
        let lineage_rows = ctx.lineage.len();
        let output = ctx.catalog.snapshot().get("o").unwrap();
        assert!(run_copy(&mut ctx, &mut registry));
        assert_eq!(ctx.lineage.len(), lineage_rows);
        assert!(Arc::ptr_eq(
            &output,
            &ctx.catalog.snapshot().get("o").unwrap()
        ));

        // A clone of the input, and its sealed form, are the rows the run
        // read: the node is served, and the record takes the catalog's value.
        let input = ctx.catalog.snapshot().get("t").unwrap();
        ctx.catalog
            .publish(|c| c.register_or_replace(Table::clone(&input)));
        assert!(run_copy(&mut ctx, &mut registry));
        ctx.catalog.try_publish(|c| c.page_table("t", 1)).unwrap();
        assert!(run_copy(&mut ctx, &mut registry));
        assert_eq!(ctx.lineage.len(), lineage_rows);

        // Equal rows built apart are a new input.
        ctx.catalog
            .publish(|c| c.register_or_replace(two_rows("t")));
        assert!(!run_copy(&mut ctx, &mut registry));
        assert!(run_copy(&mut ctx, &mut registry));

        // So is a dropped input that comes back as a fresh value.
        ctx.catalog.try_publish(|c| c.drop_table("t")).unwrap();
        ctx.catalog
            .try_publish(|c| c.register(two_rows("t")))
            .unwrap();
        assert!(!run_copy(&mut ctx, &mut registry));

        // A dropped output that comes back as a clone is the table the run
        // wrote; one that does not come back is published from the record.
        let old_output = ctx.catalog.snapshot().get("o").unwrap();
        ctx.catalog.try_publish(|c| c.drop_table("o")).unwrap();
        ctx.catalog
            .try_publish(|c| c.register(Table::clone(&old_output)))
            .unwrap();
        assert!(run_copy(&mut ctx, &mut registry));
        ctx.catalog.try_publish(|c| c.drop_table("o")).unwrap();
        assert!(run_copy(&mut ctx, &mut registry));
        let back = ctx.catalog.snapshot().get("o").unwrap();
        assert!(back.same_rows(&old_output));

        // A fresh value of equal content under the output's name runs it.
        let rows = old_output.to_rows().unwrap();
        let equal = Table::from_rows("o", old_output.schema().clone(), rows).unwrap();
        ctx.catalog.publish(|c| c.register_or_replace(equal));
        assert!(!run_copy(&mut ctx, &mut registry));
    }

    #[test]
    fn a_run_with_failed_rows_is_recorded_only_after_its_repair() {
        let mut ctx = ctx_with_posters();
        let mut registry = FunctionRegistry::new();
        registry.register(
            FunctionSignature::new("classify_boring", "flag", vec!["posters".into()], "flagged"),
            FunctionBody::VisualClassify {
                input: "posters".into(),
                uri_column: "poster_uri".into(),
                output_column: "boring".into(),
                implementation: VisionImpl::VlmAccurate,
                threshold: 0.4,
                convert_unsupported: false,
            },
            "initial",
        );
        let monitor = Monitor::new(&SilentChannel);
        let mut run = |registry: &mut FunctionRegistry| {
            monitor
                .execute_with_repair(&mut ctx, registry, "classify_boring", "flagged")
                .unwrap()
        };
        let (first, repairs) = run(&mut registry);
        assert_eq!((first.reused, repairs.len()), (false, 1));
        let (second, repairs) = run(&mut registry);
        assert_eq!((second.reused, repairs.len()), (true, 0));
        assert_eq!(second.table.len(), 3);
        // Back on the version that cannot read HEIC, the node runs (and is
        // repaired) again: the record is of the repaired body.
        registry.rollback("classify_boring", 1).unwrap();
        let (third, repairs) = run(&mut registry);
        assert_eq!((third.reused, repairs.len()), (false, 1));
    }

    #[test]
    fn a_tripped_guard_is_returned_untouched_not_repaired() {
        let mut ctx = ExecContext::new(SimLlm::new(1, TokenMeter::new()));
        ctx.ingest_table(two_rows("t"), "u").unwrap();
        let mut registry = FunctionRegistry::new();
        registry.register(
            FunctionSignature::new("copy_t", "copy", vec!["t".into()], "o"),
            FunctionBody::Sql {
                query: "SELECT * FROM t".into(),
                dedup_key: None,
            },
            "initial",
        );
        registry.register(
            FunctionSignature::new("double", "doubles", vec!["t".into()], "d"),
            FunctionBody::MapExpr {
                input: "t".into(),
                expr: "id * 2".into(),
                output_column: "twice".into(),
            },
            "initial",
        );
        let channel = ScriptedChannel::new(Vec::<String>::new());
        let monitor = Monitor::new(channel.as_ref());
        ctx.limits.timeout = Some(std::time::Duration::ZERO);
        for (func, output) in [("copy_t", "o"), ("double", "d")] {
            let err = monitor
                .execute_with_repair(&mut ctx, &mut registry, func, output)
                .unwrap_err();
            assert!(
                matches!(
                    &err,
                    ExecError::Guard(kath_storage::StorageError::Cancelled(_))
                ),
                "{func}: {err:?}"
            );
            // No diagnosis call, no message to the user, no new version,
            // no table, nothing to reuse.
            assert_eq!(ctx.llm.meter().usage().calls, 0);
            assert!(channel.transcript().is_empty());
            assert_eq!(registry.get(func).unwrap().versions.len(), 1);
            assert!(!ctx.catalog.snapshot().contains(output));
            let body = registry.get(func).unwrap().active_version().body.clone();
            assert!(ctx.reuse(func, &body, output).is_none());
        }
        // A row budget trips the same way.
        ctx.limits.timeout = None;
        ctx.limits.row_budget = Some(1);
        let err = monitor
            .execute_with_repair(&mut ctx, &mut registry, "copy_t", "o")
            .unwrap_err();
        assert!(
            matches!(
                &err,
                ExecError::Guard(kath_storage::StorageError::Budget(_))
            ),
            "{err:?}"
        );
        assert_eq!(ctx.llm.meter().usage().calls, 0);
        // With the limits lifted the same handle runs, records and reuses.
        ctx.limits.row_budget = None;
        assert!(!run_copy(&mut ctx, &mut registry));
        assert!(run_copy(&mut ctx, &mut registry));
    }

    #[test]
    fn an_aborted_node_forgets_its_earlier_record() {
        let mut ctx = ExecContext::new(SimLlm::new(1, TokenMeter::new()));
        ctx.ingest_table(two_rows("t"), "u").unwrap();
        let mut registry = FunctionRegistry::new();
        registry.register(
            FunctionSignature::new("double", "doubles", vec!["t".into()], "d"),
            FunctionBody::MapExpr {
                input: "t".into(),
                expr: "id * 2".into(),
                output_column: "twice".into(),
            },
            "initial",
        );
        let monitor = Monitor::new(&SilentChannel);
        let mut run =
            |ctx: &mut ExecContext| monitor.execute_with_repair(ctx, &mut registry, "double", "d");
        assert!(!run(&mut ctx).unwrap().0.reused);
        assert!(run(&mut ctx).unwrap().0.reused);
        // A new input makes the node run; the deadline aborts that run.
        ctx.catalog
            .publish(|c| c.register_or_replace(two_rows("t")));
        ctx.limits.timeout = Some(std::time::Duration::ZERO);
        assert!(matches!(run(&mut ctx), Err(ExecError::Guard(_))));
        ctx.limits.timeout = None;
        let (rerun, _) = run(&mut ctx).unwrap();
        assert!(
            !rerun.reused,
            "an aborted run must not pass for the record before it"
        );
        assert!(run(&mut ctx).unwrap().0.reused);
    }
}
