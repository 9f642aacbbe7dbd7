//! The query optimizer's compile loop: coder → profiler → critic per node
//! (§4), with profiling on sampled inputs and cost/accuracy-based selection
//! among alternative physical implementations.

use crate::coder::{synthesize, CoderContext, CoderFaults};
use crate::rewrite::{rewrite_plan, RewriteEvent};
use kath_exec::{execute_body, id_from_uri, ExecContext, ExecError, PhysicalNode, PhysicalPlan};
use kath_fao::{FunctionBody, FunctionRegistry, FunctionSignature, ProfileStats, VisionImpl};
use kath_lineage::{LineagePolicy, LineageStore};
use kath_model::Verdict;
use kath_parser::{LogicalPlan, StepTag};
use kath_storage::Table;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Compiler options.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Rows sampled per input relation for profiling.
    pub sample_size: usize,
    /// Minimum acceptable estimated accuracy for a physical implementation.
    pub accuracy_floor: f64,
    /// Injected coder faults (tests/benches).
    pub faults: CoderFaults,
    /// Apply logical rewrites before compiling.
    pub rewrites: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        Self {
            sample_size: 4,
            accuracy_floor: 0.9,
            faults: CoderFaults::default(),
            rewrites: true,
        }
    }
}

/// A critic intervention (§4: semantic correctness loop).
#[derive(Debug, Clone, PartialEq)]
pub struct CritiqueEvent {
    /// The corrected function.
    pub func_id: String,
    /// The critic's corrective hint.
    pub hint: String,
    /// Version found wrong.
    pub from_ver: u32,
    /// Corrected version.
    pub to_ver: u32,
}

/// A physical implementation choice (§4: "chooses the one that produces
/// acceptable outputs at the lowest cost").
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionEvent {
    /// The function.
    pub func_id: String,
    /// The chosen implementation's note.
    pub chosen: String,
    /// How many candidates were profiled.
    pub candidates: usize,
    /// Profiled cost of the winner.
    pub cost: f64,
    /// Estimated accuracy of the winner.
    pub accuracy: f64,
}

/// The compiler's output.
#[derive(Debug)]
pub struct CompileReport {
    /// The executable physical plan.
    pub physical: PhysicalPlan,
    /// Logical rewrites applied.
    pub rewrites: Vec<RewriteEvent>,
    /// Critic interventions.
    pub critiques: Vec<CritiqueEvent>,
    /// Implementation selections (one per multi-candidate node).
    pub selections: Vec<SelectionEvent>,
}

/// Compiles a verified logical plan: generates function bodies, profiles
/// them on samples, lets the critic check semantics, registers everything in
/// the function registry, and emits the physical plan.
pub fn compile(
    logical: &LogicalPlan,
    ctx: &ExecContext,
    registry: &mut FunctionRegistry,
    clarifications: &[(String, String)],
    opts: &CompileOptions,
) -> Result<CompileReport, ExecError> {
    let (logical, rewrites) = if opts.rewrites {
        rewrite_plan(logical.clone(), true, true)
    } else {
        (logical.clone(), Vec::new())
    };

    let mut sample_ctx = build_sample_ctx(ctx, opts.sample_size)?;
    let mut physical = PhysicalPlan::default();
    let mut critiques = Vec::new();
    let mut selections = Vec::new();

    for node in &logical.nodes {
        if node.prewritten {
            // The pre-written view-population function of §6, split into its
            // text and scene halves so each materializes its own views.
            for (func, modality) in [
                ("populate_text_views", "text"),
                ("populate_scene_views", "scene"),
            ] {
                let body = FunctionBody::ViewPopulate {
                    modality: modality.into(),
                    implementation: VisionImpl::VlmAccurate,
                    convert_unsupported: false,
                };
                let output = format!("{modality}_views");
                let sig = FunctionSignature::new(
                    func,
                    format!("{} ({modality} half)", node.signature.description),
                    vec![],
                    output.clone(),
                );
                if !registry.contains(func) {
                    registry.register(sig, body.clone(), "pre-written (§6)");
                }
                let active = registry.get(func)?.active_version();
                // Downstream coding reads the views' schemas. When the
                // caller's context still holds the views the engine is about
                // to reuse, the sample context shares those tables;
                // otherwise it populates its own from the media its sampled
                // rows reference.
                match ctx.reusable(func, &active.body, &output) {
                    Some(record) => {
                        for published in record.outputs() {
                            sample_ctx.adopt(published);
                        }
                    }
                    None => {
                        sample_media(&mut sample_ctx, modality);
                        let _ = execute_body(&mut sample_ctx, func, active.ver_id, &body, &output);
                    }
                }
                physical.nodes.push(PhysicalNode {
                    func_id: func.into(),
                    output,
                });
            }
            continue;
        }

        let func_id = node.signature.name.clone();
        let sample_snapshot = sample_ctx.catalog.snapshot();
        let coder_ctx = CoderContext {
            catalog: &sample_snapshot,
            clarifications,
            faults: opts.faults,
        };
        let candidates = synthesize(node, &coder_ctx, &ctx.llm);
        assert!(!candidates.is_empty(), "coder produced no candidates");

        // Profile every candidate on a fork of the sample context.
        let mut profiled: Vec<(FunctionBody, String, ProfileStats, Option<Arc<Table>>)> =
            Vec::new();
        for (body, note) in &candidates {
            let mut fork = fork_ctx(&sample_ctx);
            let tokens_before = fork.llm.meter().usage().total();
            let started = Instant::now(); // lint: nondet-ok — candidate profiling wall-clock; ranks compile candidates, not query results
            let result = execute_body(&mut fork, &func_id, 1, body, &node.signature.output);
            let runtime_ms = started.elapsed().as_secs_f64() * 1000.0;
            let tokens = fork.llm.meter().usage().total() - tokens_before;
            match result {
                Ok(outcome) if outcome.failed_rows.is_empty() => {
                    profiled.push((
                        body.clone(),
                        note.clone(),
                        ProfileStats {
                            runtime_ms,
                            tokens,
                            rows_in: outcome.rows_in,
                            rows_out: outcome.table.len(),
                            accuracy: None,
                        },
                        Some(outcome.table),
                    ));
                }
                // Candidates that fail on the sample are recorded with no
                // output; the engine's monitor would repair them at run time,
                // but the optimizer prefers alternatives that just work.
                _ => profiled.push((
                    body.clone(),
                    note.clone(),
                    ProfileStats {
                        runtime_ms,
                        tokens,
                        rows_in: 0,
                        rows_out: 0,
                        accuracy: Some(0.0),
                    },
                    None,
                )),
            }
        }

        // Accuracy: agreement with the first (reference) candidate, blended
        // with an offline prior per implementation. The prior is the paper's
        // "offline profiling" (§4): small online samples can be degenerate
        // (e.g. every sampled poster happens to be boring), and the prior
        // keeps known-weak implementations from slipping through.
        if let Some(reference) = profiled.first().and_then(|p| p.3.clone()) {
            let n = profiled.len();
            for item in profiled.iter_mut().take(n) {
                let acc = match &item.3 {
                    Some(out) => 0.5 * agreement(&reference, out) + 0.5 * accuracy_prior(&item.0),
                    None => 0.0,
                };
                item.2.accuracy = Some(acc);
            }
        }

        // Select: cheapest candidate meeting the accuracy floor; if none
        // meets it, the most accurate one.
        let chosen_idx = {
            let eligible: Vec<usize> = (0..profiled.len())
                .filter(|&i| profiled[i].2.accuracy.unwrap_or(1.0) >= opts.accuracy_floor)
                .collect();
            if eligible.is_empty() {
                (0..profiled.len())
                    .max_by(|&a, &b| {
                        profiled[a]
                            .2
                            .accuracy
                            .unwrap_or(0.0)
                            .total_cmp(&profiled[b].2.accuracy.unwrap_or(0.0))
                    })
                    .unwrap_or(0)
            } else {
                *eligible
                    .iter()
                    .min_by(|&&a, &&b| profiled[a].2.cost().total_cmp(&profiled[b].2.cost()))
                    .expect("non-empty")
            }
        };
        let (body, note, stats, _) = profiled.swap_remove(chosen_idx);
        if candidates.len() > 1 {
            selections.push(SelectionEvent {
                func_id: func_id.clone(),
                chosen: note.clone(),
                candidates: candidates.len(),
                cost: stats.cost(),
                accuracy: stats.accuracy.unwrap_or(1.0),
            });
        }
        let ver = registry.register(node.signature.clone(), body.clone(), note);
        // A re-activated version keeps the profile it was selected with:
        // wall-clock jitter on a four-row sample is no new information, and
        // an unchanged registry is not logged again.
        if registry
            .get(&func_id)?
            .version(ver)
            .is_some_and(|v| v.profile.is_none())
        {
            registry.set_profile(&func_id, ver, stats)?;
        }

        // Materialize the winner's sample output for downstream nodes.
        let mut active_body = body;
        let mut active_ver = ver;
        let _ = execute_body(
            &mut sample_ctx,
            &func_id,
            active_ver,
            &active_body,
            &node.signature.output,
        );

        // Critic: semantic direction check on score functions (§4's example
        // of a reversed recency score).
        if matches!(node.tag, StepTag::RecencyScore) {
            if let Ok(out) = sample_ctx.catalog.get(&node.signature.output) {
                let samples: Vec<(f64, f64)> = out
                    .rows()
                    .iter()
                    .filter_map(|r| {
                        let y = out.schema().index_of("year")?;
                        let s = out.schema().index_of("recency_score")?;
                        Some((r[y].as_f64()?, r[s].as_f64()?))
                    })
                    .collect();
                let verdict = ctx
                    .llm
                    .critique_monotonic("assign a recency score based on release year", &samples);
                if let Verdict::Mismatch { hint } = verdict {
                    // Coder retries without the fault; critic re-checks.
                    let fixed_snapshot = sample_ctx.catalog.snapshot();
                    let fixed_ctx = CoderContext {
                        catalog: &fixed_snapshot,
                        clarifications,
                        faults: CoderFaults {
                            reversed_recency: false,
                        },
                    };
                    let fixed = synthesize(node, &fixed_ctx, &ctx.llm);
                    let (fixed_body, _) = fixed.into_iter().next().expect("candidate");
                    let to_ver = registry.add_version(
                        &func_id,
                        fixed_body.clone(),
                        format!("critic: {hint}"),
                    )?;
                    critiques.push(CritiqueEvent {
                        func_id: func_id.clone(),
                        hint,
                        from_ver: active_ver,
                        to_ver,
                    });
                    active_body = fixed_body;
                    active_ver = to_ver;
                    let _ = execute_body(
                        &mut sample_ctx,
                        &func_id,
                        active_ver,
                        &active_body,
                        &node.signature.output,
                    );
                }
            }
        }

        physical.nodes.push(PhysicalNode {
            func_id,
            output: node.signature.output.clone(),
        });
    }

    Ok(CompileReport {
        physical,
        rewrites,
        critiques,
        selections,
    })
}

/// Offline accuracy prior per implementation (the "offline profiling" of
/// §4), blended with online sample agreement during selection.
fn accuracy_prior(body: &FunctionBody) -> f64 {
    match body {
        FunctionBody::VisualClassify { implementation, .. } => match implementation {
            VisionImpl::VlmAccurate => 0.97,
            VisionImpl::Cascade => 0.93,
            VisionImpl::VlmCheap => 0.88,
            VisionImpl::Ocr => 0.55,
        },
        _ => 1.0,
    }
}

/// Row-wise agreement between two tables on their last column (the computed
/// flag/score), used as the accuracy estimate for implementation selection.
fn agreement(reference: &Table, candidate: &Table) -> f64 {
    if reference.is_empty() && candidate.is_empty() {
        return 1.0;
    }
    if reference.len() != candidate.len() || reference.is_empty() {
        return 0.0;
    }
    let rc = reference.schema().arity() - 1;
    let cc = candidate.schema().arity() - 1;
    let matches = reference
        .rows()
        .iter()
        .zip(candidate.rows())
        .filter(|(a, b)| a[rc] == b[cc])
        .count();
    matches as f64 / reference.len() as f64
}

/// Samples the media collection the `modality` half populates its views
/// from, the way the tables were sampled: a document (image) stays when its
/// URI's id ([`id_from_uri`]) is the `did` (`vid`) of a sampled row — all a
/// sample join can reach — or when its URI carries no id. A collection no
/// sampled table keys stays whole.
fn sample_media(sample: &mut ExecContext, modality: &str) {
    let column = if modality == "text" { "did" } else { "vid" };
    let snapshot = sample.catalog.snapshot();
    let mut ids: Option<HashSet<i64>> = None;
    for name in snapshot.table_names() {
        let Ok(table) = snapshot.get(name) else {
            continue;
        };
        if let Some(i) = table.schema().index_of(column) {
            let keys = table.rows().iter().filter_map(|r| r[i].as_int());
            ids.get_or_insert_default().extend(keys);
        }
    }
    let Some(ids) = ids else { return };
    let keep = |uri: &str| id_from_uri(uri).is_none_or(|id| ids.contains(&id));
    match modality {
        "text" => sample.media.retain_documents(|d| keep(&d.uri)),
        _ => sample.media.retain_images(|i| keep(&i.uri)),
    }
}

/// Builds the profiling context: sampled base tables, the caller's media
/// (shared; [`sample_media`] narrows a collection when a population is
/// about to read it), fresh lineage with recording off. A table whose first
/// rows cannot be read fails the compile with the storage error.
fn build_sample_ctx(ctx: &ExecContext, sample_size: usize) -> Result<ExecContext, ExecError> {
    let mut sample = ExecContext::new(ctx.llm.clone());
    sample.lineage = LineageStore::with_policy(LineagePolicy::Off);
    sample.media = ctx.media.clone();
    for name in ctx.catalog.table_names() {
        if let Ok(table) = ctx.catalog.get(&name) {
            let mut t = table.sample(sample_size)?;
            t.set_name(&name);
            sample.catalog.register_or_replace(t);
        }
    }
    Ok(sample)
}

/// Forks the sample context for one candidate profile run. The catalog is
/// forked, not cloned: a `SharedCatalog` clone would share the version
/// chain, leaking one candidate's materializations into the next.
fn fork_ctx(sample: &ExecContext) -> ExecContext {
    let mut fork = ExecContext::new(sample.llm.clone());
    fork.lineage = LineageStore::with_policy(LineagePolicy::Off);
    fork.media = sample.media.clone();
    fork.catalog = sample.catalog.fork();
    fork.table_lids = sample.table_lids.clone();
    fork
}

#[cfg(test)]
mod tests {
    use super::*;
    use kath_media::{BBox, Color, Document, Image, ImageObject, MediaFormat};
    use kath_model::{ScriptedChannel, SimLlm, TokenMeter};
    use kath_parser::{generate_logical_plan, NlParser};
    use kath_storage::{DataType, Schema, Value};

    const FLAGSHIP: &str = "Sort the given films in the table by how exciting \
                            they are, but the poster should be 'boring'";

    fn full_ctx() -> ExecContext {
        let mut ctx = ExecContext::new(SimLlm::new(42, TokenMeter::new()));
        let movies = Table::from_rows(
            "movie_table",
            Schema::of(&[
                ("id", DataType::Int),
                ("title", DataType::Str),
                ("year", DataType::Int),
                ("did", DataType::Int),
                ("vid", DataType::Int),
            ]),
            vec![
                vec![
                    1i64.into(),
                    "Guilty by Suspicion".into(),
                    1991i64.into(),
                    1i64.into(),
                    1i64.into(),
                ],
                vec![
                    2i64.into(),
                    "Clean and Sober".into(),
                    1988i64.into(),
                    2i64.into(),
                    2i64.into(),
                ],
                vec![
                    3i64.into(),
                    "Quiet Days".into(),
                    1975i64.into(),
                    3i64.into(),
                    3i64.into(),
                ],
            ],
        )
        .unwrap();
        ctx.ingest_table(movies, "file://data/movies").unwrap();
        ctx.media.add_document(Document::new(
            "doc://plot/1",
            "A gun fight and a murder shake the studio. A man jumped off a plane.",
        ));
        ctx.media.add_document(Document::new(
            "doc://plot/2",
            "A calm recovery. Tea in a quiet garden.",
        ));
        ctx.media.add_document(Document::new(
            "doc://plot/3",
            "An ordinary week of routine walks.",
        ));
        // Boring posters for 1 and 2, vivid one for 3.
        for id in [1i64, 2] {
            ctx.media.add_image(
                Image::new(format!("file://posters/{id}.png"), MediaFormat::Png)
                    .with_color(Color::rgb(110, 110, 110))
                    .with_object(
                        ImageObject::new("portrait", BBox::new(0.3, 0.2, 0.7, 0.8))
                            .with_saliency(0.25),
                    ),
            );
        }
        ctx.media.add_image(
            Image::new("file://posters/3.png", MediaFormat::Png)
                .with_color(Color::rgb(230, 30, 30))
                .with_color(Color::rgb(30, 30, 230))
                .with_object(ImageObject::new("person", BBox::new(0.1, 0.1, 0.5, 0.9)))
                .with_object(ImageObject::new(
                    "motorcycle",
                    BBox::new(0.4, 0.5, 0.9, 0.95),
                ))
                .with_object(ImageObject::new(
                    "explosion",
                    BBox::new(0.6, 0.1, 0.95, 0.4),
                )),
        );
        ctx
    }

    fn flagship_logical(ctx: &ExecContext) -> (LogicalPlan, Vec<(String, String)>) {
        let parser = NlParser::new(ctx.llm.clone());
        let channel = ScriptedChannel::new([
            "The movie plot contains scenes that are uncommon in real life",
            "Oh I prefer a more recent movie as well when scoring",
            "OK",
        ]);
        let outcome = parser.parse(FLAGSHIP, channel.as_ref());
        let plan = generate_logical_plan(&outcome.sketch, "movie_table");
        (plan, outcome.clarifications)
    }

    #[test]
    fn compile_produces_a_runnable_physical_plan() {
        let ctx = full_ctx();
        let (logical, clars) = flagship_logical(&ctx);
        let mut registry = FunctionRegistry::new();
        let report = compile(
            &logical,
            &ctx,
            &mut registry,
            &clars,
            &CompileOptions::default(),
        )
        .unwrap();
        // 2 view-population halves + 10 generated nodes.
        assert_eq!(report.physical.nodes.len(), 12);
        assert!(registry.contains("classify_boring"));
        assert!(registry.contains("gen_excitement_score"));
        // The visual classifier had alternatives profiled.
        let sel = report
            .selections
            .iter()
            .find(|s| s.func_id == "classify_boring")
            .expect("selection event");
        assert_eq!(sel.candidates, 4);
        assert!(sel.accuracy >= 0.75);
        // Profiles were recorded on the winning versions.
        let entry = registry.get("classify_boring").unwrap();
        assert!(entry.active_version().profile.is_some());
    }

    #[test]
    fn critic_catches_injected_reversed_recency() {
        let ctx = full_ctx();
        let (logical, clars) = flagship_logical(&ctx);
        let mut registry = FunctionRegistry::new();
        let opts = CompileOptions {
            faults: CoderFaults {
                reversed_recency: true,
            },
            ..CompileOptions::default()
        };
        let report = compile(&logical, &ctx, &mut registry, &clars, &opts).unwrap();
        assert_eq!(report.critiques.len(), 1);
        let c = &report.critiques[0];
        assert_eq!(c.func_id, "gen_recency_score");
        assert!(c.hint.contains("direction") || c.hint.contains("flip"));
        // The registry keeps both the wrong and the corrected version.
        let entry = registry.get("gen_recency_score").unwrap();
        assert_eq!(entry.versions.len(), 2);
        assert_eq!(entry.active, 2);
        assert!(entry.versions[1].note.starts_with("critic:"));
    }

    #[test]
    fn without_fault_no_critique_is_needed() {
        let ctx = full_ctx();
        let (logical, clars) = flagship_logical(&ctx);
        let mut registry = FunctionRegistry::new();
        let report = compile(
            &logical,
            &ctx,
            &mut registry,
            &clars,
            &CompileOptions::default(),
        )
        .unwrap();
        assert!(report.critiques.is_empty());
        assert_eq!(registry.get("gen_recency_score").unwrap().versions.len(), 1);
    }

    #[test]
    fn ocr_loses_selection_to_vlm_on_accuracy() {
        let ctx = full_ctx();
        let (logical, clars) = flagship_logical(&ctx);
        let mut registry = FunctionRegistry::new();
        let report = compile(
            &logical,
            &ctx,
            &mut registry,
            &clars,
            &CompileOptions::default(),
        )
        .unwrap();
        let chosen = &registry
            .get("classify_boring")
            .unwrap()
            .active_version()
            .body;
        let FunctionBody::VisualClassify { implementation, .. } = chosen else {
            panic!()
        };
        // OCR agrees too rarely with the reference to pass the floor.
        assert_ne!(*implementation, VisionImpl::Ocr);
        let _ = report;
    }

    #[test]
    fn a_second_compile_shares_the_views_the_engine_left() {
        let mut ctx = full_ctx();
        let (logical, clars) = flagship_logical(&ctx);
        let mut registry = FunctionRegistry::new();
        let opts = CompileOptions::default();
        let compile_calls = |ctx: &ExecContext, registry: &mut FunctionRegistry| {
            let before = ctx.llm.meter().usage().calls;
            let report = compile(&logical, ctx, registry, &clars, &opts).unwrap();
            (report.physical, ctx.llm.meter().usage().calls - before)
        };

        let (plan, first) = compile_calls(&ctx, &mut registry);
        kath_exec::ExecutionEngine::new()
            .run(&mut ctx, &mut registry, &plan, &kath_model::SilentChannel)
            .unwrap();
        let registered = registry.clone();

        // Nothing changed: both halves' views are adopted, not populated
        // again (one model call per image; the text half calls no metered
        // model), and the registry is left exactly as it was, versions and
        // profiles.
        let (again, second) = compile_calls(&ctx, &mut registry);
        assert_eq!(again, plan);
        assert_eq!(registry, registered);
        assert_eq!(first - second, 3);

        // A new image: only the scene half is populated on the sample again,
        // from the posters of the three sampled rows — not from the new one,
        // which no sampled `vid` names.
        ctx.media
            .add_image(Image::new("file://posters/9.png", MediaFormat::Png));
        let (_, third) = compile_calls(&ctx, &mut registry);
        assert_eq!(third - second, 3);
    }

    /// `movies` films, each with a plot and a poster, every third poster
    /// vivid; no views yet.
    fn wide_ctx(movies: i64) -> ExecContext {
        let mut ctx = ExecContext::new(SimLlm::new(42, TokenMeter::new()));
        let schema = full_ctx()
            .catalog
            .get("movie_table")
            .unwrap()
            .schema()
            .clone();
        let mut table = Table::new("movie_table", schema);
        for id in 1..=movies {
            let row = vec![
                id.into(),
                format!("Film {id}").into(),
                (1960 + id % 60).into(),
                id.into(),
                id.into(),
            ];
            table.push(row).unwrap();
            let plot = match id % 2 {
                0 => "A gun fight and a murder. A man jumped off a plane.",
                _ => "A calm recovery. Tea in a quiet garden.",
            };
            ctx.media
                .add_document(Document::new(format!("doc://plot/{id}"), plot));
            let poster = Image::new(format!("file://posters/{id}.png"), MediaFormat::Png);
            ctx.media.add_image(match id % 3 {
                0 => poster
                    .with_color(Color::rgb(230, 30, 30))
                    .with_object(ImageObject::new("explosion", BBox::new(0.6, 0.1, 0.9, 0.4))),
                _ => poster.with_color(Color::rgb(110, 110, 110)),
            });
        }
        ctx.ingest_table(table, "file://data/movies").unwrap();
        ctx
    }

    #[test]
    fn sampled_tables_bound_profiling_cost() {
        let ctx = full_ctx();
        let sample = build_sample_ctx(&ctx, 2).unwrap();
        assert_eq!(sample.catalog.get("movie_table").unwrap().len(), 2);
        assert_eq!(
            sample.catalog.get("movie_table").unwrap().name(),
            "movie_table"
        );

        // Media is sampled like the tables: what a compile with no views to
        // adopt spends on model calls follows `sample_size`, not the size
        // of the collections.
        let compile_calls = |movies: i64, sample_size: usize| {
            let ctx = wide_ctx(movies);
            let (logical, clars) = flagship_logical(&ctx);
            let mut registry = FunctionRegistry::new();
            let opts = CompileOptions {
                sample_size,
                ..CompileOptions::default()
            };
            let before = ctx.llm.meter().usage().calls;
            let report = compile(&logical, &ctx, &mut registry, &clars, &opts).unwrap();
            // Every downstream node is still coded, and OCR still loses.
            assert_eq!(report.physical.nodes.len(), 12);
            let chosen = &registry
                .get("classify_boring")
                .unwrap()
                .active_version()
                .body;
            assert!(matches!(
                chosen,
                FunctionBody::VisualClassify { implementation, .. }
                    if *implementation != VisionImpl::Ocr
            ));
            // The caller's media is untouched.
            assert_eq!(ctx.media.counts(), (movies as usize, movies as usize, 0));
            (ctx.llm.meter().usage().calls - before) as usize
        };
        let small = compile_calls(40, 4);
        assert_eq!(compile_calls(1_000, 4), small);
        assert!(small <= 10 * 4, "{small} calls for 4 sample rows");
        let double = compile_calls(1_000, 8);
        assert!(small < double && double <= 10 * 8, "{double} calls for 8");
    }

    #[test]
    fn media_no_sampled_row_keys_stays_whole() {
        // No `did`/`vid` column anywhere: both collections stay as they are.
        let mut ctx = full_ctx();
        let mut sample = build_sample_ctx(&ctx, 2).unwrap();
        let unkeyed = Table::new("movie_table", Schema::of(&[("id", DataType::Int)]));
        sample.catalog.register_or_replace(unkeyed);
        sample_media(&mut sample, "text");
        sample_media(&mut sample, "scene");
        assert_eq!(sample.media.counts(), (3, 3, 0));

        // Keyed: the media of the two sampled rows, plus whatever carries no
        // id in its URI.
        ctx.media
            .add_image(Image::new("file://posters/cover.png", MediaFormat::Png));
        let mut sample = build_sample_ctx(&ctx, 2).unwrap();
        sample_media(&mut sample, "scene");
        let kept: Vec<&str> = (sample.media.images().iter())
            .map(|i| i.uri.as_str())
            .collect();
        assert_eq!(
            kept,
            [
                "file://posters/1.png",
                "file://posters/2.png",
                "file://posters/cover.png"
            ]
        );
        assert_eq!(sample.media.counts().1, 3);
        sample_media(&mut sample, "text");
        assert_eq!(sample.media.counts().1, 2);
        assert_eq!(ctx.media.counts(), (4, 3, 0));
    }

    #[test]
    fn agreement_measures_last_column_matches() {
        let schema = Schema::of(&[("id", DataType::Int), ("flag", DataType::Bool)]);
        let a = Table::from_rows(
            "a",
            schema.clone(),
            vec![
                vec![1i64.into(), true.into()],
                vec![2i64.into(), false.into()],
            ],
        )
        .unwrap();
        let b = Table::from_rows(
            "b",
            schema,
            vec![
                vec![1i64.into(), true.into()],
                vec![2i64.into(), true.into()],
            ],
        )
        .unwrap();
        assert_eq!(agreement(&a, &a), 1.0);
        assert_eq!(agreement(&a, &b), 0.5);
        let empty = Table::new("e", Schema::of(&[("x", DataType::Int)]));
        assert_eq!(agreement(&empty, &empty), 1.0);
        assert_eq!(agreement(&a, &empty), 0.0);
        let _ = Value::Null;
    }
}
