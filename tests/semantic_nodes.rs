//! Semantic nodes run like relational ones (docs/execution.md, "Semantic
//! nodes: prepare, compute in morsels, stamp in order"): the worker count
//! shows in the timings and nowhere else, and the query guards that stop a
//! SQL node stop a model-call node — as a typed error, not as a fault the
//! monitor tries to repair.

use kath_data::{generate_corpus, mmqa_small, CorpusSpec, MmqaCorpus};
use kath_exec::{AnomalyEvent, ExecContext, ExecError, RepairEvent};
use kath_fao::{FunctionBody, FunctionRegistry};
use kath_model::{ScriptedChannel, SimLlm, TokenMeter, Usage, UserChannel};
use kath_optimizer::{compile, CompileOptions};
use kath_parser::{generate_logical_plan, NlParser, PlanVerifier};
use kath_storage::{CancelToken, ExecMode, Row, StorageError, Table};
use kathdb::{KathDB, KathError, QueryResult};
use std::sync::Arc;
use std::time::Duration;

const CLARIFICATION: &str = "The movie plot contains scenes that are uncommon in real life";
const BORING: &str = "Sort the given films in the table by how exciting they are, \
                      but the poster should be 'boring'";
const NOT_BORING: &str = "Sort the given films in the table by how exciting they are, \
                          but the poster should not be 'boring'";

/// The benchmark's three ways of asking: clarification only, clarification
/// plus the recency correction, and the negated poster filter.
const VARIANTS: [(&str, &[&str]); 3] = [
    (BORING, &[CLARIFICATION, "OK"]),
    (
        BORING,
        &[
            CLARIFICATION,
            "Oh I prefer a more recent movie as well when scoring",
            "OK",
        ],
    ),
    (NOT_BORING, &[CLARIFICATION, "OK"]),
];

const SEMANTIC_NODES: [&str; 4] = [
    "populate_text_views",
    "populate_scene_views",
    "gen_excitement_score",
    "classify_boring",
];

fn handle(corpus: &MmqaCorpus) -> KathDB {
    let mut db = KathDB::new(42);
    db.load_corpus(corpus).unwrap();
    db
}

fn ask(db: &mut KathDB, variant: usize) -> Result<QueryResult, KathError> {
    let (question, replies) = VARIANTS[variant];
    let channel = ScriptedChannel::new(replies.iter().copied());
    db.query(question, channel.as_ref())
}

/// Everything a caller can see of one question, timings aside.
#[derive(Debug, PartialEq)]
struct Seen {
    answer: Table,
    /// `lineage_table()` without its last column, `ts`.
    lineage: Vec<Row>,
    usage: Usage,
    repairs: Vec<RepairEvent>,
    anomalies: Vec<AnomalyEvent>,
    reused: Vec<String>,
}

fn see(db: &KathDB, result: QueryResult) -> Seen {
    let lineage = db.lineage_table().unwrap();
    assert_eq!(lineage.schema().names().last(), Some(&"ts"));
    let without_ts = |row: &Row| row[..row.len() - 1].to_vec();
    Seen {
        lineage: lineage.rows().iter().map(without_ts).collect(),
        usage: db.token_usage(),
        reused: result.exec.reused_nodes().map(str::to_string).collect(),
        repairs: result.exec.repairs,
        anomalies: result.exec.anomalies,
        answer: result.table,
    }
}

#[test]
fn the_worker_count_shows_in_the_timings_and_nowhere_else() {
    // Three morsels of posters and plots, some of them HEIC, so
    // `populate_scene_views` and `classify_boring` fail rows on several
    // workers and are repaired.
    let corpus = generate_corpus(&CorpusSpec {
        movies: 150,
        heic_fraction: 0.05,
        seed: 3,
        ..CorpusSpec::default()
    });
    assert!(corpus.images.iter().any(|i| !i.format.is_supported()));
    for variant in 0..VARIANTS.len() {
        let mut serial: Option<(Seen, Seen)> = None;
        for threads in [1usize, 2, 8] {
            let mut db = handle(&corpus);
            db.set_parallelism(threads);
            let first = ask(&mut db, variant).unwrap();
            for node in first
                .exec
                .timings
                .iter()
                .filter(|t| SEMANTIC_NODES.contains(&t.func_id.as_str()))
            {
                assert_eq!(
                    node.workers,
                    threads.min(3),
                    "{} at {threads} thread(s)",
                    node.func_id
                );
                assert_eq!(
                    node.worker_ms.len(),
                    if threads > 1 { node.workers } else { 0 }
                );
            }
            let first = see(&db, first);
            assert!(!first.repairs.is_empty() && !first.answer.is_empty());
            let follow_up = ask(&mut db, (variant + 1) % VARIANTS.len()).unwrap();
            let follow_up = see(&db, follow_up);
            assert!(follow_up.reused.iter().any(|n| n == "populate_scene_views"));
            match &serial {
                None => serial = Some((first, follow_up)),
                Some((serial_first, serial_follow_up)) => {
                    assert_eq!(&first, serial_first, "variant {variant}, {threads} threads");
                    assert_eq!(
                        &follow_up, serial_follow_up,
                        "follow-up to variant {variant}, {threads} threads"
                    );
                }
            }
        }
    }
}

#[test]
fn every_question_of_an_unpinned_handle_runs_on_the_batch_drive() {
    let corpus = mmqa_small();
    let mut unpinned = handle(&corpus);
    let mut reference = handle(&corpus);
    reference.set_exec_mode(ExecMode::Volcano);
    for variant in [0, 1] {
        let result = ask(&mut unpinned, variant).unwrap();
        assert_eq!(unpinned.context().exec_mode, ExecMode::default());
        let mut sql_nodes_run = 0;
        for node in result.exec.timings.iter().filter(|t| !t.reused) {
            let entry = unpinned.registry().get(&node.func_id).unwrap();
            if matches!(entry.active_version().body, FunctionBody::Sql { .. }) {
                assert!(node.batches_out >= 1, "{} pulled no batch", node.func_id);
                sql_nodes_run += 1;
            }
        }
        assert!(sql_nodes_run > 0, "question {variant} ran no SQL node");
        let on_the_reference = ask(&mut reference, variant).unwrap();
        assert_eq!(reference.context().exec_mode, ExecMode::Volcano);
        assert_eq!(
            see(&unpinned, result),
            see(&reference, on_the_reference),
            "question {variant}"
        );
    }
}

/// Model calls of a question's parse and compile stages on a fresh handle,
/// counted with the facade's own layer functions.
fn calls_before_execution(corpus: &MmqaCorpus, variant: usize) -> u64 {
    let mut ctx = ExecContext::new(SimLlm::new(42, TokenMeter::new()));
    ctx.ingest_table(corpus.movies.clone(), "file://data/movie_table")
        .unwrap();
    for d in &corpus.documents {
        ctx.media.add_document(d.clone());
    }
    for i in &corpus.images {
        ctx.media.add_image(i.clone());
    }
    let (question, replies) = VARIANTS[variant];
    let channel = ScriptedChannel::new(replies.iter().copied());
    let parse = NlParser::new(ctx.llm.clone()).parse(question, channel.as_ref());
    let logical = generate_logical_plan(&parse.sketch, "movie_table");
    let snapshot = ctx.catalog.snapshot();
    let (logical, verification) = PlanVerifier::new(&snapshot).verify(logical);
    assert!(verification.approved);
    compile(
        &logical,
        &ctx,
        &mut FunctionRegistry::new(),
        &parse.clarifications,
        &CompileOptions::default(),
    )
    .unwrap();
    ctx.llm.meter().usage().calls
}

fn cancelled(err: &KathError) -> bool {
    matches!(
        err,
        KathError::Exec(ExecError::Guard(StorageError::Cancelled(_)))
    )
}

#[test]
fn a_tripped_deadline_is_the_typed_cancel_not_a_failed_repair() {
    let corpus = mmqa_small();
    let expected = ask(&mut handle(&corpus), 0).unwrap().table;
    let mut db = handle(&corpus);
    db.set_query_timeout(Some(Duration::ZERO));
    let (question, replies) = VARIANTS[0];
    let channel = ScriptedChannel::new(replies.iter().copied());
    let err = db.query(question, channel.as_ref()).err().unwrap();
    assert!(cancelled(&err), "{err:?}");
    assert_eq!(err.to_string(), "query cancelled: deadline exceeded");
    // Nothing after the trip: no diagnosis call, no word to the user, no
    // repaired version in the registry.
    assert_eq!(db.token_usage().calls, calls_before_execution(&corpus, 0));
    assert!(
        channel
            .transcript()
            .iter()
            .all(|(_, reply)| !reply.is_empty()),
        "only the parser's questions: {:?}",
        channel.transcript()
    );
    for name in db.registry().names() {
        assert_eq!(db.registry().get(name).unwrap().versions.len(), 1, "{name}");
    }
    // The handle is fine: lift the limit and the question is answered.
    db.set_query_timeout(None);
    assert_eq!(ask(&mut db, 0).unwrap().table, expected);
}

/// Replies from a script; before handing over the last reply — the sketch
/// approval, after which execution starts — has another thread fire the
/// handle's cancel token, and waits for it.
struct CancelsAtApproval {
    script: Arc<ScriptedChannel>,
    token: CancelToken,
}

impl UserChannel for CancelsAtApproval {
    fn ask(&self, question: &str) -> String {
        if self.script.remaining() == 1 {
            let token = self.token.clone();
            std::thread::spawn(move || token.cancel())
                .join()
                .expect("canceller runs");
        }
        self.script.ask(question)
    }

    fn notify(&self, message: &str) {
        self.script.notify(message);
    }
}

#[test]
fn a_cancel_from_another_thread_aborts_the_question_and_rearms() {
    let corpus = generate_corpus(&CorpusSpec {
        movies: 150,
        heic_fraction: 0.05,
        seed: 3,
        ..CorpusSpec::default()
    });
    let expected = ask(&mut handle(&corpus), 0).unwrap().table;
    for threads in [1usize, 4] {
        let mut db = handle(&corpus);
        db.set_parallelism(threads);
        let (question, replies) = VARIANTS[0];
        let channel = CancelsAtApproval {
            script: ScriptedChannel::new(replies.iter().copied()),
            token: db.cancel_handle(),
        };
        let err = db.query(question, &channel).err().unwrap();
        assert!(cancelled(&err), "{err:?}");
        assert_eq!(err.to_string(), "query cancelled: cancel token fired");
        // The first node to run is a semantic one, and it answered: nothing
        // was populated, scored or published.
        assert_eq!(db.token_usage().calls, calls_before_execution(&corpus, 0));
        assert!(!db.context().catalog.contains("text_texts"));
        // One-shot: the next question on the handle runs every node (an
        // aborted node recorded nothing to reuse) and answers as a fresh
        // handle does.
        let result = ask(&mut db, 0).unwrap();
        assert_eq!(result.exec.reused_nodes().count(), 0);
        assert_eq!(result.table, expected);
    }
}
