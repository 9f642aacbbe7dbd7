//! The agentic execution monitor (§5).
//!
//! Syntactic faults launch the two-agent loop: the *reviewer* diagnoses the
//! exception, the *rewriter* patches the body, the registry bumps `ver_id`,
//! and execution resumes — tuples unaffected by the error have already
//! flowed through the old definition. Semantic anomalies (a join fanning one
//! poster out to several movies) are explained to the user, who chooses to
//! accept, adjust, or rewrite.
//!
//! Every node passes through [`run_node`] here, which is also where a
//! follow-up question is spared the nodes it shares with an earlier one: a
//! node whose body, inputs and outputs are still those of its last clean
//! run returns that run's output instead of running again.

use crate::{execute_body, ExecContext, ExecError, ExecOutcome};
use kath_fao::{FunctionBody, FunctionRegistry};
use kath_model::UserChannel;

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
    /// Tuples that had already succeeded under the old version and kept
    /// flowing while the repair happened (§5).
    pub unaffected_tuples: usize,
    /// Tuples that had to be reprocessed by the new version.
    pub failed_tuples: usize,
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

/// Runs one node: returns the output of its last clean run when that run
/// would only be repeated ([`ExecContext::reusable`]) — no model call, no
/// lineage rows, no catalog write — and otherwise executes the body,
/// recording the run if no row failed. Because a reused producer leaves
/// its output table in place and a re-executed one publishes a new table,
/// reuse and re-execution both cascade to consumers by themselves.
fn run_node(
    ctx: &mut ExecContext,
    func_id: &str,
    ver_id: u32,
    body: &FunctionBody,
    output_name: &str,
) -> Result<ExecOutcome, ExecError> {
    if let Some(record) = ctx.reusable(func_id, body, output_name) {
        return Ok(record.outcome());
    }
    let inputs = ctx.begin_node(body, output_name);
    let outcome = execute_body(ctx, func_id, ver_id, body, output_name)?;
    if let (Some(inputs), true) = (inputs, outcome.failed_rows.is_empty()) {
        ctx.record_node(func_id, body, output_name, inputs, &outcome);
    }
    Ok(outcome)
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
    pub fn execute_with_repair(
        &self,
        ctx: &mut ExecContext,
        registry: &mut FunctionRegistry,
        func_id: &str,
        output_name: &str,
    ) -> Result<(ExecOutcome, Vec<RepairEvent>), ExecError> {
        let mut repairs = Vec::new();
        let mut attempts = 0u32;
        loop {
            let (ver_id, body) = {
                let entry = registry.get(func_id)?;
                let v = entry.active_version();
                (v.ver_id, v.body.clone())
            };
            let result = run_node(ctx, func_id, ver_id, &body, output_name);
            let (error_text, unaffected, failed) = match result {
                Ok(outcome) if outcome.failed_rows.is_empty() => {
                    return Ok((outcome, repairs));
                }
                Ok(outcome) => {
                    // Row-level faults: the good tuples already flowed.
                    let err = outcome.failed_rows[0].1.clone();
                    (err, outcome.table.len(), outcome.failed_rows.len())
                }
                // A tripped guard says the caller ran out of time or budget
                // (or cancelled), not that the function is wrong: no
                // diagnosis call, no notification, no new version.
                Err(e @ ExecError::Guard(_)) => return Err(e),
                Err(e) => (e.to_string(), 0, 0),
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
            self.channel.notify(&format!(
                "Repaired {func_id}: v{ver_id} -> v{to_ver} ({diagnosis}); \
                 {unaffected} unaffected tuple(s) continued, {failed} reprocessed."
            ));
            repairs.push(RepairEvent {
                func_id: func_id.to_string(),
                from_ver: ver_id,
                to_ver,
                diagnosis,
                unaffected_tuples: unaffected,
                failed_tuples: failed,
            });
            // Resume from this operator with the new version (re-executes
            // the node; already-correct tuples recompute identically).
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
        let table = ctx.catalog.get(output_name)?;
        let Ok(idx) = table.schema().resolve(key) else {
            return Ok(None); // key not present: nothing to check
        };
        let mut seen = std::collections::HashSet::new();
        let mut dups = 0usize;
        for row in table.rows() {
            if !row[idx].is_null() && !seen.insert(row[idx].clone()) {
                dups += 1;
            }
        }
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
        let outcome = run_node(ctx, func_id, to_ver, &patched, output_name)?;
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
        if let FunctionBody::MapExpr {
            input,
            expr,
            output_column,
        } = body
        {
            // Guard the whole expression; the denominator is inside it.
            return Some(FunctionBody::MapExpr {
                input: input.clone(),
                expr: format!("coalesce({expr} * 0 + 0.0, 0.0)"),
                output_column: output_column.clone(),
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use kath_fao::{FunctionSignature, VisionImpl};
    use kath_media::{BBox, Color, Image, ImageObject, MediaFormat};
    use kath_model::{ScriptedChannel, SilentChannel, SimLlm, TokenMeter};
    use kath_storage::{DataType, Schema, Table};
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
    fn reuse_is_keyed_on_table_identity_not_content() {
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
        let output = ctx.catalog.get("o").unwrap();
        assert!(run_copy(&mut ctx, &mut registry));
        assert_eq!(ctx.lineage.len(), lineage_rows);
        assert!(Arc::ptr_eq(&output, &ctx.catalog.get("o").unwrap()));

        // The same rows in a new table are a new input.
        ctx.catalog.register_or_replace(two_rows("t"));
        assert!(!run_copy(&mut ctx, &mut registry));
        assert!(run_copy(&mut ctx, &mut registry));

        // A dropped input that comes back is not the table the run read.
        ctx.catalog.drop_table("t").unwrap();
        ctx.catalog.register(two_rows("t")).unwrap();
        assert!(!run_copy(&mut ctx, &mut registry));

        // Nor is a dropped output that comes back the table the run wrote.
        let old_output = ctx.catalog.get("o").unwrap();
        ctx.catalog.drop_table("o").unwrap();
        ctx.catalog.register(Table::clone(&old_output)).unwrap();
        assert!(!run_copy(&mut ctx, &mut registry));
        assert!(run_copy(&mut ctx, &mut registry));
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
            assert!(!ctx.catalog.contains(output));
            let body = registry.get(func).unwrap().active_version().body.clone();
            assert!(ctx.reusable(func, &body, output).is_none());
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
        ctx.catalog.register_or_replace(two_rows("t"));
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
