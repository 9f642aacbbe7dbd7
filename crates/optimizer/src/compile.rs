//! The query optimizer's compile loop: coder → profiler → critic per node
//! (§4), with profiling on sampled inputs and cost/accuracy-based selection
//! among alternative physical implementations.

use crate::coder::{synthesize, CoderContext, CoderFaults};
use crate::rewrite::{rewrite_plan, RewriteEvent};
use kath_exec::{
    execute_body, id_from_uri, ExecContext, ExecError, ExecOutcome, PhysicalNode, PhysicalPlan,
};
use kath_fao::{
    CompileRecords, Decision, FunctionBody, FunctionRegistry, FunctionSignature, ProfileStats,
    Record, RecordedCritique, VisionImpl,
};
use kath_lineage::{LineagePolicy, LineageStore};
use kath_media::MediaKind;
use kath_model::{SimLlm, Verdict};
use kath_parser::{LogicalNode, LogicalPlan, StepTag};
use kath_storage::{Table, Value};
use std::collections::BTreeSet;
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
    /// Function ids of the generated nodes whose compile record validated:
    /// their recorded decision was installed, nothing was profiled.
    pub reused: Vec<String>,
}

/// Compiles a verified logical plan: generates function bodies, profiles
/// them on samples, lets the critic check semantics, registers everything in
/// the function registry, and emits the physical plan.
///
/// A node the registry's compile records say was compiled over the same
/// sample inputs — the same node, clarifications and options, and every
/// sample table its candidates read still the table they read — is not
/// compiled again: its recorded winner is registered again (which
/// re-activates the equal version and keeps its profile) and its recorded
/// sample output published, so its consumers validate too.
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
    // The records leave the registry while the nodes register versions,
    // and come back holding this compile's.
    let mut records = std::mem::take(registry.compile_records_mut());
    let mut report = CompileReport {
        physical: PhysicalPlan::default(),
        rewrites,
        critiques: Vec::new(),
        selections: Vec::new(),
        reused: Vec::new(),
    };
    let compiled = compile_nodes(
        &logical,
        ctx,
        registry,
        &mut records,
        clarifications,
        opts,
        &mut report,
    );
    *registry.compile_records_mut() = records;
    compiled.map(|()| report)
}

fn compile_nodes(
    logical: &LogicalPlan,
    ctx: &ExecContext,
    registry: &mut FunctionRegistry,
    records: &mut CompileRecords,
    clarifications: &[(String, String)],
    opts: &CompileOptions,
    report: &mut CompileReport,
) -> Result<(), ExecError> {
    let mut sample_ctx = build_sample_ctx(ctx, records, opts.sample_size)?;
    for node in &logical.nodes {
        if node.prewritten {
            // The pre-written view-population function of §6, split into its
            // text and scene halves so each materializes its own views.
            for (func, modality, kind) in [
                ("populate_text_views", "text", MediaKind::Documents),
                ("populate_scene_views", "scene", MediaKind::Images),
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
                let ver = registry.get(func)?.active_version().ver_id;
                // Downstream coding reads the views' schemas: the sample
                // populates its own from the media its sampled rows name.
                let ids = media_keys(&sample_ctx, modality);
                records.sample_media(&mut sample_ctx.media, kind, ids, id_from_uri);
                let context = format!("{body:?}");
                let kept = recorded(records, func, &context, &sample_ctx);
                if let Some(record) = kept {
                    record.outputs.iter().for_each(|p| sample_ctx.adopt(p));
                } else if let Ok(outcome) = execute_body(&mut sample_ctx, func, ver, &body, &output)
                {
                    let record = sample_ctx.record(context, &body, Vec::new(), &outcome);
                    records.insert(func, record);
                }
                report.physical.nodes.push(PhysicalNode {
                    func_id: func.into(),
                    output,
                });
            }
            continue;
        }

        let func_id = node.signature.name.clone();
        let context = format!("{:?}", (&node.signature, &node.tag, clarifications, opts));
        let found = recorded(records, &func_id, &context, &sample_ctx);
        // A record that validates installs its decision; any other node is
        // decided now, and both leave through the same tail.
        let mut fresh = None;
        let (decision, outputs) = match found {
            Some(Record {
                decision: Some(decision),
                outputs,
                ..
            }) => {
                report.reused.push(func_id.clone());
                (&*decision, outputs.clone())
            }
            _ => {
                let (decision, inputs, run) =
                    decide(node, &ctx.llm, &sample_ctx, clarifications, opts);
                let outputs = run.as_ref().map(ExecOutcome::published);
                let record = (inputs.zip(run))
                    .map(|(inputs, run)| sample_ctx.record(context, &decision.body, inputs, &run));
                let (decision, _) = fresh.insert((decision, record));
                (&*decision, outputs.unwrap_or_default())
            }
        };
        let ver = install(registry, node, decision, report)?;
        if let Some(critique) = &decision.critique {
            let to_ver = registry.register(
                node.signature.clone(),
                critique.body.clone(),
                format!("critic: {}", critique.hint),
            );
            report.critiques.push(CritiqueEvent {
                func_id: func_id.clone(),
                hint: critique.hint.clone(),
                from_ver: ver,
                to_ver,
            });
        }
        outputs.iter().for_each(|p| sample_ctx.adopt(p));
        // Record a fresh compile when its inputs and its sample output
        // exist; otherwise the next question compiles the node again.
        if let Some((decision, Some(record))) = fresh {
            let decision = Some(decision);
            records.insert(&func_id, Record { decision, ..record });
        }
        report.physical.nodes.push(PhysicalNode {
            func_id,
            output: node.signature.output.clone(),
        });
    }
    Ok(())
}

/// Decides `node` on the sample: codes its candidates, profiles each once
/// on its own fork of `sample`, selects among them and lets the critic
/// check the winner. Returns the decision, every sample table the coder
/// and the candidates read (`None` when one is missing), and the winner's
/// profile run — or the critic's body's own run — when it did not fail.
fn decide(
    node: &LogicalNode,
    llm: &SimLlm,
    sample: &ExecContext,
    clarifications: &[(String, String)],
    opts: &CompileOptions,
) -> (Decision, Option<Vec<Arc<Table>>>, Option<ExecOutcome>) {
    let snapshot = sample.catalog.snapshot();
    let coder_ctx = CoderContext {
        catalog: &snapshot,
        clarifications,
        faults: opts.faults,
    };
    let candidates = synthesize(node, &coder_ctx, llm);
    assert!(!candidates.is_empty(), "coder produced no candidates");
    // Every sample table the coder and the candidates read, as they are
    // before the node publishes anything.
    let read: BTreeSet<String> = (node.signature.inputs.iter().cloned())
        .chain(candidates.iter().flat_map(|(body, _)| body.inputs()))
        .collect();
    let inputs: Option<Vec<Arc<Table>>> =
        (read.iter()).map(|name| snapshot.get(name).ok()).collect();

    // One run of `body` on a fork of the sample context, and its profile.
    // A run that fails, or fails rows, is profiled with no output: the
    // engine's monitor would repair it at run time, but the optimizer
    // prefers alternatives that just work.
    let profile_run = |body: &FunctionBody| {
        let mut fork = fork_ctx(sample);
        let tokens_before = fork.llm.meter().usage().total();
        let started = Instant::now(); // lint: nondet-ok — candidate profiling wall-clock; ranks compile candidates, not query results
        let run = execute_body(
            &mut fork,
            &node.signature.name,
            1,
            body,
            &node.signature.output,
        )
        .ok();
        let runtime_ms = started.elapsed().as_secs_f64() * 1000.0;
        let clean = clean_output(&run);
        let stats = ProfileStats {
            runtime_ms,
            tokens: fork.llm.meter().usage().total() - tokens_before,
            rows_in: clean.map_or(0, |o| o.rows_in),
            rows_out: clean.map_or(0, |o| o.table.len()),
            accuracy: clean.is_none().then_some(0.0),
        };
        (stats, run)
    };
    let mut profiled: Vec<_> = (candidates.into_iter())
        .map(|(body, note)| {
            let (stats, run) = profile_run(&body);
            (body, note, stats, run)
        })
        .collect();

    // Accuracy: agreement with the first (reference) candidate, blended
    // with an offline prior per implementation. The prior is the paper's
    // "offline profiling" (§4): small online samples can be degenerate
    // (e.g. every sampled poster happens to be boring), and the prior
    // keeps known-weak implementations from slipping through.
    let reference = clean_output(&profiled[0].3).map(|o| Arc::clone(&o.table));
    if let Some(reference) = reference {
        for (body, _, stats, run) in &mut profiled {
            stats.accuracy = Some(clean_output(run).map_or(0.0, |o| {
                0.5 * agreement(&reference, &o.table) + 0.5 * accuracy_prior(body)
            }));
        }
    }

    // Select: cheapest candidate meeting the accuracy floor; if none
    // meets it, the most accurate one.
    let accuracy = |i: &usize, missing: f64| profiled[*i].2.accuracy.unwrap_or(missing);
    let chosen_idx = (0..profiled.len())
        .filter(|i| accuracy(i, 1.0) >= opts.accuracy_floor)
        .min_by(|&a, &b| profiled[a].2.cost().total_cmp(&profiled[b].2.cost()))
        .or_else(|| {
            (0..profiled.len()).max_by(|a, b| accuracy(a, 0.0).total_cmp(&accuracy(b, 0.0)))
        })
        .unwrap_or(0);
    let candidates = profiled.len();
    let (body, note, profile, mut run) = profiled.swap_remove(chosen_idx);
    let mut decision = Decision {
        body,
        note,
        profile,
        candidates,
        critique: None,
    };

    // Critic: semantic direction check on score functions (§4's example
    // of a reversed recency score).
    if let (StepTag::RecencyScore, Some(out)) = (&node.tag, &run) {
        let column = |name| read_column(&out.table, name).unwrap_or_default();
        let samples: Vec<(f64, f64)> = (column("year").iter().zip(&column("recency_score")))
            .filter_map(|(y, s)| Some((y.as_f64()?, s.as_f64()?)))
            .collect();
        let verdict =
            llm.critique_monotonic("assign a recency score based on release year", &samples);
        if let Verdict::Mismatch { hint } = verdict {
            // Coder retries without the fault; its body's run is the sample's.
            let fixed_ctx = CoderContext {
                faults: CoderFaults {
                    reversed_recency: false,
                },
                ..coder_ctx
            };
            let fixed = synthesize(node, &fixed_ctx, llm);
            let (body, _) = fixed.into_iter().next().expect("candidate");
            run = profile_run(&body).1;
            decision.critique = Some(RecordedCritique { hint, body });
        }
    }
    (decision, inputs, run)
}

/// Registers `decision`'s winner for `node` — a new version, or the
/// re-activated equal one, which keeps the profile it was selected with:
/// wall-clock jitter on a four-row sample is no new information, and an
/// unchanged registry is not logged again — and reports the selection when
/// there was one to make. Returns the winner's version.
fn install(
    registry: &mut FunctionRegistry,
    node: &LogicalNode,
    decision: &Decision,
    report: &mut CompileReport,
) -> Result<u32, ExecError> {
    let func_id = &node.signature.name;
    let ver = registry.register(
        node.signature.clone(),
        decision.body.clone(),
        decision.note.clone(),
    );
    if registry
        .get(func_id)?
        .version(ver)
        .is_some_and(|v| v.profile.is_none())
    {
        registry.set_profile(func_id, ver, decision.profile.clone())?;
    }
    if decision.candidates > 1 {
        report.selections.push(SelectionEvent {
            func_id: func_id.clone(),
            chosen: decision.note.clone(),
            candidates: decision.candidates,
            cost: decision.profile.cost(),
            accuracy: decision.profile.accuracy.unwrap_or(1.0),
        });
    }
    Ok(ver)
}

/// The record of `func_id` that still holds over `sample` under `context`
/// ([`Record::revalidate`]).
fn recorded<'r>(
    records: &'r mut CompileRecords,
    func_id: &str,
    context: &str,
    sample: &ExecContext,
) -> Option<&'r mut Record> {
    let snapshot = sample.catalog.snapshot();
    let (media, lids) = (&sample.media, &sample.table_lids);
    records.find(func_id, |r| {
        r.context == context && r.revalidate(&snapshot, media, lids)
    })
}

/// The run, when it processed every row.
fn clean_output(run: &Option<ExecOutcome>) -> Option<&ExecOutcome> {
    run.as_ref().filter(|o| o.failed_rows.is_empty())
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
    let last = |t: &Table| read_column(t, &t.schema().columns().last()?.name);
    let (Some(r), Some(c)) = (last(reference), last(candidate)) else {
        return 0.0;
    };
    let matches = r.iter().zip(&c).filter(|(a, b)| a == b).count();
    matches as f64 / reference.len() as f64
}

/// The values of `table`'s column `name`, read without materializing rows;
/// `None` when there is no such column or its pages are unreadable.
fn read_column(table: &Table, name: &str) -> Option<Vec<Value>> {
    let mut values = Vec::with_capacity(table.len());
    let read = table.for_each_in_column(name, |_, v| {
        values.push(v.clone());
        Ok(())
    });
    read.ok().map(|()| values)
}

/// The ids that key the media the `modality` half populates its views
/// from: the `did` (`vid`) of every sampled row of every table with that
/// column — all a sample join can reach — or `None` when no table has one.
fn media_keys(sample: &ExecContext, modality: &str) -> Option<BTreeSet<i64>> {
    let column = if modality == "text" { "did" } else { "vid" };
    let snapshot = sample.catalog.snapshot();
    let names = snapshot.table_names();
    let mut keyed = (names.iter())
        .filter_map(|name| read_column(&*snapshot.get(name).ok()?, column))
        .peekable();
    keyed.peek()?;
    Some(keyed.flatten().filter_map(|v| v.as_int()).collect())
}

/// Builds the profiling context: the caller's base tables sampled (a
/// table an earlier question's node published is no input of this plan's
/// and is left out), the caller's media (shared;
/// [`CompileRecords::sample_media`] narrows a collection when a population
/// is about to read it), fresh lineage with recording off. A sample is
/// drawn again only when its table's rows changed, and kept when its own
/// did not ([`CompileRecords::sample`]). A table whose first rows cannot be read
/// fails the compile with the storage error.
fn build_sample_ctx(
    ctx: &ExecContext,
    records: &mut CompileRecords,
    sample_size: usize,
) -> Result<ExecContext, ExecError> {
    let mut sample = ExecContext::new(ctx.llm.clone());
    sample.lineage = LineageStore::with_policy(LineagePolicy::Off);
    sample.media = ctx.media.clone();
    let snapshot = ctx.catalog.snapshot();
    let names = snapshot.table_names();
    let base: Vec<&str> = (names.iter().copied())
        .filter(|name| !ctx.is_node_output(name))
        .collect();
    records.retain_samples(|name| base.contains(&name));
    let mut sampled = Vec::with_capacity(base.len());
    for name in base {
        sampled.push(records.sample(&snapshot.get(name)?, sample_size)?);
    }
    sample.catalog.publish(|c| {
        for t in sampled {
            c.register_or_replace(t);
        }
    });
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
    fn a_second_compile_installs_what_the_first_decided() {
        let mut ctx = full_ctx();
        let (logical, clars) = flagship_logical(&ctx);
        let mut registry = FunctionRegistry::new();
        let opts = CompileOptions::default();
        let compile_calls = |ctx: &ExecContext, registry: &mut FunctionRegistry| {
            let before = ctx.llm.meter().usage().calls;
            let report = compile(&logical, ctx, registry, &clars, &opts).unwrap();
            let calls = ctx.llm.meter().usage().calls - before;
            (report.physical, calls, report.reused)
        };

        let (plan, first, reused) = compile_calls(&ctx, &mut registry);
        assert!(first > 0 && reused.is_empty());
        kath_exec::ExecutionEngine::new()
            .run(&mut ctx, &mut registry, &plan, &kath_model::SilentChannel)
            .unwrap();
        let registered = registry.clone();

        // Nothing the sample reads changed — the engine's views and
        // intermediates are no sample input: no model call, the same plan,
        // the registry exactly as it was (versions and profiles), and every
        // generated node installed from its record.
        let (again, second, reused) = compile_calls(&ctx, &mut registry);
        assert_eq!(again, plan);
        assert_eq!(registry, registered);
        assert_eq!(second, 0);
        assert_eq!(reused.len(), 10);

        // A new image no sampled `vid` names leaves the sampled media equal
        // by value, whatever the collection's stamp.
        ctx.media
            .add_image(Image::new("file://posters/9.png", MediaFormat::Png));
        let (_, third, reused) = compile_calls(&ctx, &mut registry);
        assert_eq!((third, reused.len()), (0, 10));

        // A sampled poster changed by value: the scene half is populated
        // on the sample again (one model call per sampled poster) and the
        // nodes that read its views compile again; the text side does not.
        ctx.media.add_image(
            Image::new("file://posters/1.png", MediaFormat::Png)
                .with_color(Color::rgb(230, 30, 30))
                .with_object(ImageObject::new("explosion", BBox::new(0.6, 0.1, 0.9, 0.4))),
        );
        let (_, fourth, reused) = compile_calls(&ctx, &mut registry);
        assert!(fourth > 3, "{fourth} calls");
        assert!(reused.iter().any(|f| f == "gen_excitement_score"));
        assert!(!reused.iter().any(|f| f == "join_image_view"));
        assert!(!reused.iter().any(|f| f == "classify_boring"));
    }

    #[test]
    fn a_changed_clarification_or_base_table_compiles_again() {
        let ctx = full_ctx();
        let (logical, clars) = flagship_logical(&ctx);
        let mut registry = FunctionRegistry::new();
        let opts = CompileOptions::default();
        let calls = |ctx: &ExecContext, registry: &mut FunctionRegistry, clars| {
            let before = ctx.llm.meter().usage().calls;
            let report = compile(&logical, ctx, registry, clars, &opts).unwrap();
            (ctx.llm.meter().usage().calls - before, report.reused.len())
        };
        assert!(calls(&ctx, &mut registry, &clars).0 > 0);

        // Another clarification is another decision for every node; the
        // records of the first are kept beside its records, and asking the
        // first way again installs them.
        let other = vec![(clars[0].0.clone(), "fast cars".to_string())];
        assert_eq!(calls(&ctx, &mut registry, &other).1, 0);
        assert_eq!(calls(&ctx, &mut registry, &clars), (0, 10));
        assert_eq!(calls(&ctx, &mut registry, &other), (0, 10));

        // A base table replaced by another value of the same rows (a
        // clone, as a checkpoint's sealed form is) keeps its sample, and
        // every node installs.
        let movies = ctx.catalog.snapshot().get("movie_table").unwrap();
        ctx.catalog
            .publish(|c| c.register_or_replace((*movies).clone()));
        assert_eq!(calls(&ctx, &mut registry, &clars), (0, 10));
    }

    /// `movies` films, each with a plot and a poster, every third poster
    /// vivid; no views yet.
    fn wide_ctx(movies: i64) -> ExecContext {
        let mut ctx = ExecContext::new(SimLlm::new(42, TokenMeter::new()));
        let full = full_ctx().catalog.snapshot();
        let schema = full.get("movie_table").unwrap().schema().clone();
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
        let sample = build_sample_ctx(&ctx, &mut CompileRecords::default(), 2).unwrap();
        assert_eq!(
            sample.catalog.snapshot().get("movie_table").unwrap().len(),
            2
        );
        assert_eq!(
            sample.catalog.snapshot().get("movie_table").unwrap().name(),
            "movie_table"
        );

        // Media is sampled like the tables: what a first compile spends on
        // model calls follows `sample_size`, not the size of the
        // collections.
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
            assert_eq!(ctx.media.counts(), (movies as usize, movies as usize));
            (ctx.llm.meter().usage().calls - before) as usize
        };
        let small = compile_calls(40, 4);
        assert_eq!(compile_calls(1_000, 4), small);
        assert!(small <= 10 * 4, "{small} calls for 4 sample rows");
        let double = compile_calls(1_000, 8);
        assert!(small < double && double <= 10 * 8, "{double} calls for 8");
    }

    fn sample_media(sample: &mut ExecContext, modality: &str) {
        let kind = match modality {
            "text" => MediaKind::Documents,
            _ => MediaKind::Images,
        };
        let ids = media_keys(sample, modality);
        let records = &mut CompileRecords::default();
        records.sample_media(&mut sample.media, kind, ids, id_from_uri);
    }

    #[test]
    fn media_no_sampled_row_keys_stays_whole() {
        // No `did`/`vid` column anywhere: both collections stay as they are.
        let mut ctx = full_ctx();
        let mut sample = build_sample_ctx(&ctx, &mut CompileRecords::default(), 2).unwrap();
        let unkeyed = Table::new("movie_table", Schema::of(&[("id", DataType::Int)]));
        sample.catalog.publish(|c| c.register_or_replace(unkeyed));
        sample_media(&mut sample, "text");
        sample_media(&mut sample, "scene");
        assert_eq!(sample.media.counts(), (3, 3));

        // Keyed: the media of the two sampled rows, plus whatever carries no
        // id in its URI.
        ctx.media
            .add_image(Image::new("file://posters/cover.png", MediaFormat::Png));
        let mut sample = build_sample_ctx(&ctx, &mut CompileRecords::default(), 2).unwrap();
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
        assert_eq!(ctx.media.counts(), (4, 3));
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
