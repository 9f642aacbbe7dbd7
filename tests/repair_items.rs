//! A repair re-runs only the items that failed (docs/execution.md,
//! "Item-granular repair"). The benchmark's 1 000-movie corpus at seed 1
//! has 21 HEIC posters; its twin is the same corpus with those 21
//! converted to PNG before loading, so nothing fails. A first question on
//! the HEIC corpus must answer what the twin answers and pay, beyond the
//! twin, only the repair itself: one diagnosis call, and the table-level
//! lids of the run the patched version makes over the 21 posters.

use kath_data::{generate_corpus, CorpusSpec, MmqaCorpus};
use kath_exec::id_from_uri;
use kath_media::MediaFormat;
use kath_model::ScriptedChannel;
use kathdb::{KathDB, QueryResult};

const CLARIFICATION: &str = "The movie plot contains scenes that are uncommon in real life";
const BORING: &str = "Sort the given films in the table by how exciting they are, \
                      but the poster should be 'boring'";
const NOT_BORING: &str = "Sort the given films in the table by how exciting they are, \
                          but the poster should not be 'boring'";

/// The benchmark's three ways of asking.
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

/// HEIC posters in the seed-1 corpus.
const HEIC: usize = 21;

/// Lineage rows the repair's run adds beyond the twin's first question: the
/// table-level lids of the four scene views it splices (objects,
/// relationships, attributes, frames) and of the summary table. Its row
/// lids, one per view row of the 21 posters, are the rows the twin stamps
/// for the same posters; the collection root is the earlier run's.
const REPAIR_TABLE_LIDS: usize = 5;

fn corpora() -> (MmqaCorpus, MmqaCorpus) {
    let heic = generate_corpus(&CorpusSpec {
        movies: 1000,
        heic_fraction: 0.02,
        seed: 1,
        ..CorpusSpec::default()
    });
    let mut twin = heic.clone();
    for image in &mut twin.images {
        if !image.format.is_supported() {
            *image = image.convert_to(MediaFormat::Png);
        }
    }
    (heic, twin)
}

/// One first question on a fresh handle: the answer's `(id, score bits)`,
/// its model calls, the lineage rows it wrote, and the handle.
fn first_question(corpus: &MmqaCorpus, variant: usize, threads: usize) -> Asked {
    let mut db = KathDB::new(42);
    db.load_corpus(corpus).unwrap();
    db.set_parallelism(threads);
    let (question, replies) = VARIANTS[variant];
    let channel = ScriptedChannel::new(replies.iter().copied());
    let result = db.query(question, channel.as_ref()).unwrap();
    Asked {
        scores: scores(&result),
        calls: db.token_usage().calls,
        lineage_rows: db.context().lineage.len(),
        result,
        db,
    }
}

struct Asked {
    scores: Vec<(i64, u64)>,
    calls: u64,
    lineage_rows: usize,
    result: QueryResult,
    db: KathDB,
}

fn scores(result: &QueryResult) -> Vec<(i64, u64)> {
    let schema = result.table.schema();
    let id = schema.index_of("id").unwrap();
    let score = (schema.index_of("final_score"))
        .or_else(|| schema.index_of("excitement_score"))
        .unwrap();
    let rows = result.table.rows();
    let row = |r: &Vec<kath_storage::Value>| {
        (
            r[id].as_int().unwrap(),
            r[score].as_f64().unwrap().to_bits(),
        )
    };
    rows.iter().map(row).collect()
}

#[test]
fn a_repair_costs_the_twin_one_diagnosis_and_its_table_lids() {
    let (heic, twin) = corpora();
    let unsupported = heic.images.iter().filter(|i| !i.format.is_supported());
    assert_eq!(unsupported.count(), HEIC);
    for threads in [1usize, 2] {
        for variant in 0..VARIANTS.len() {
            let at = format!("variant {variant}, {threads} thread(s)");
            let repaired = first_question(&heic, variant, threads);
            let clean = first_question(&twin, variant, threads);
            assert!(clean.result.exec.repairs.is_empty(), "{at}");
            assert_eq!(repaired.scores, clean.scores, "{at}");
            assert!(!repaired.scores.is_empty(), "{at}");

            // One repair, of the scene views, over the 21 posters only.
            let repairs = &repaired.result.exec.repairs;
            assert_eq!(repairs.len(), 1, "{at}: {repairs:?}");
            let repair = &repairs[0];
            assert_eq!(repair.func_id, "populate_scene_views", "{at}");
            assert_eq!((repair.from_ver, repair.to_ver), (1, 2), "{at}");
            assert_eq!(
                (repair.unaffected_tuples, repair.failed_tuples),
                (1000 - HEIC, HEIC),
                "{at}"
            );

            // The monitor's diagnosis is the one model call the twin does
            // not make: the patched version's 21 vision calls are the
            // twin's own for those posters.
            assert_eq!(repaired.calls, clean.calls + 1, "{at}");
            assert_eq!(
                repaired.lineage_rows,
                clean.lineage_rows + REPAIR_TABLE_LIDS,
                "{at}"
            );
        }
    }
}

#[test]
fn explanations_tell_the_repair_at_item_granularity() {
    let (heic, _) = corpora();
    let asked = first_question(&heic, 0, 1);
    let pipeline = asked.db.explain("explain the pipeline").unwrap();
    assert!(
        pipeline
            .contains("repaired 21 of 1 000 items (v1 → v2); the other 979 kept their v1 results"),
        "{pipeline}"
    );

    // Every scene-frame row names the version that produced it: v2 for
    // the 21 converted posters, v1 for every other.
    let db = &asked.db;
    let heic_vids: Vec<i64> = (heic.images.iter())
        .filter(|i| !i.format.is_supported())
        .filter_map(|i| id_from_uri(&i.uri))
        .collect();
    assert_eq!(heic_vids.len(), HEIC);
    let frames = db.context().catalog.snapshot().get("scene_frames").unwrap();
    let (vid, lid) = (
        frames.schema().index_of("vid").unwrap(),
        frames.schema().index_of("lid").unwrap(),
    );
    let mut by_version = [0usize; 2];
    for row in frames.rows() {
        let edge = &db.context().lineage.edges_of(row[lid].as_int().unwrap())[0];
        let repaired = heic_vids.contains(&row[vid].as_int().unwrap());
        assert_eq!(edge.ver_id, if repaired { 2 } else { 1 }, "{row:?}");
        by_version[usize::from(repaired)] += 1;
    }
    assert_eq!(by_version, [1000 - HEIC, HEIC]);

    // `explain tuple` on an answer tuple walks down to its poster's frame:
    // v2 on a repaired poster's path, v1 on any other.
    let answer = &asked.result.table;
    let (id, lid) = (
        answer.schema().index_of("id").unwrap(),
        answer.schema().index_of("lid").unwrap(),
    );
    let mut seen = [false; 2];
    for row in answer.rows() {
        let repaired = heic_vids.contains(&row[id].as_int().unwrap());
        let text = db
            .explain(&format!("explain tuple {}", row[lid].as_int().unwrap()))
            .unwrap();
        let (named, other) = if repaired { (2, 1) } else { (1, 2) };
        assert!(
            text.contains(&format!("(by populate_scene_views v{named}, row)")),
            "{text}"
        );
        assert!(
            !text.contains(&format!("populate_scene_views v{other}")),
            "{text}"
        );
        seen[usize::from(repaired)] = true;
    }
    assert_eq!(seen, [true, true], "the answer holds both kinds of poster");
}
