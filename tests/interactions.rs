//! Integration tests for the human-AI interaction paths: self-repair during
//! execution, semantic anomaly resolution, critic interventions, version
//! rollback, and function persistence across sessions.

use kath_data::{generate_corpus, mmqa_small, CorpusSpec};
use kath_fao::FunctionRegistry;
use kath_model::ScriptedChannel;
use kath_optimizer::CoderFaults;
use kathdb::KathDB;

const FLAGSHIP: &str = "Sort the given films in the table by how exciting \
                        they are, but the poster should be 'boring'";

#[test]
fn heic_corpus_triggers_repairs_and_still_answers() {
    let corpus = generate_corpus(&CorpusSpec {
        movies: 30,
        exciting_fraction: 0.5,
        boring_fraction: 0.6,
        heic_fraction: 0.15,
        seed: 5,
    });
    let heic_posters = corpus
        .images
        .iter()
        .filter(|i| !i.format.is_supported())
        .count();
    assert!(heic_posters > 0, "corpus must contain HEIC posters");

    let mut db = KathDB::new(42);
    db.load_corpus(&corpus).unwrap();
    let channel = ScriptedChannel::new(["uncommon and intense scenes", "OK"]);
    let result = db.query(FLAGSHIP, channel.as_ref()).unwrap();

    // At least one repair happened (scene population and/or classify).
    assert!(
        !result.exec.repairs.is_empty(),
        "expected repairs for HEIC posters"
    );
    for r in &result.exec.repairs {
        assert!(r.to_ver > r.from_ver);
        assert!(r.diagnosis.contains("conversion"), "{}", r.diagnosis);
    }
    // Repaired functions keep all versions (roll-back safety, §4).
    let repaired = &result.exec.repairs[0].func_id;
    assert!(db.registry().get(repaired).unwrap().versions.len() >= 2);
    // And the final result is highly faithful to the planted ground truth.
    // (Exactness is not guaranteed: the optimizer may legitimately pick a
    // cheaper vision model that trades a little accuracy for cost — the
    // very trade-off of §4.)
    let display = result.display_table().unwrap();
    let tidx = display.schema().index_of("title").unwrap();
    let got: Vec<String> = display.rows().iter().map(|r| r[tidx].render()).collect();
    let correct = corpus
        .truth
        .iter()
        .filter(|t| got.contains(&t.title) == t.boring_poster)
        .count();
    let accuracy = correct as f64 / corpus.truth.len() as f64;
    assert!(accuracy >= 0.9, "filter accuracy {accuracy} too low");
}

#[test]
fn injected_reversed_recency_is_caught_by_the_critic() {
    let mut db = KathDB::new(42);
    db.compile_options.faults = CoderFaults {
        reversed_recency: true,
    };
    db.load_corpus(&mmqa_small()).unwrap();
    let channel = ScriptedChannel::new([
        "The movie plot contains scenes that are uncommon in real life",
        "Oh I prefer a more recent movie as well when scoring",
        "OK",
    ]);
    let result = db.query(FLAGSHIP, channel.as_ref()).unwrap();
    // The critic flagged and fixed the direction before execution.
    assert_eq!(result.compile.critiques.len(), 1);
    assert_eq!(result.compile.critiques[0].func_id, "gen_recency_score");
    // So the final ranking is still correct: 1991 over 1988.
    let display = result.display_table().unwrap();
    assert_eq!(
        display.cell(0, "title").unwrap().as_str(),
        Some("Guilty by Suspicion")
    );
    // Both the faulty and the corrected version live in the registry.
    let entry = db.registry().get("gen_recency_score").unwrap();
    assert_eq!(entry.versions.len(), 2);
    assert!(entry.versions[1].note.starts_with("critic:"));
}

#[test]
fn registry_round_trips_across_sessions() {
    let dir = std::env::temp_dir().join("kathdb_it_persist");
    let path = dir.join("functions.json");
    {
        let mut db = KathDB::new(42);
        db.load_corpus(&mmqa_small()).unwrap();
        let channel = ScriptedChannel::new(["uncommon scenes", "OK"]);
        db.query(FLAGSHIP, channel.as_ref()).unwrap();
        db.save_functions(&path).unwrap();
    }
    // A later "session" reloads every generated function with versions,
    // profiles, and notes intact.
    let loaded = FunctionRegistry::load(&path).unwrap();
    for f in [
        "select_movie_columns",
        "join_text_view",
        "join_image_view",
        "gen_excitement_score",
        "classify_boring",
        "filter_boring",
        "rank_films",
    ] {
        assert!(loaded.contains(f), "missing {f}");
    }
    let classify = loaded.get("classify_boring").unwrap();
    assert!(classify.active_version().profile.is_some());
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn rollback_restores_an_earlier_implementation() {
    let mut db = KathDB::new(42);
    db.load_corpus(&mmqa_small()).unwrap();
    let channel = ScriptedChannel::new(["uncommon scenes", "OK"]);
    db.query(FLAGSHIP, channel.as_ref()).unwrap();

    // Simulate a bad manual edit: add a junk version, then roll back.
    let before = db.registry().get("filter_boring").unwrap().active;
    // (Rollback is exercised through the registry API the facade exposes in
    // spirit; here we clone, mutate, and verify semantics.)
    let mut reg = db.registry().clone();
    let v2 = reg
        .add_version(
            "filter_boring",
            kath_fao::FunctionBody::FilterExpr {
                input: "films_with_boring_flag".into(),
                predicate: "boring = FALSE".into(), // wrong on purpose
            },
            "bad manual edit",
        )
        .unwrap();
    assert_eq!(reg.get("filter_boring").unwrap().active, v2);
    reg.rollback("filter_boring", before).unwrap();
    assert_eq!(reg.get("filter_boring").unwrap().active, before);
    // The bad version is preserved for audit.
    assert!(reg.get("filter_boring").unwrap().version(v2).is_some());
}

#[test]
fn token_budget_grows_with_corpus_size() {
    let mut small_db = KathDB::new(42);
    small_db
        .load_corpus(&generate_corpus(&CorpusSpec {
            movies: 10,
            ..Default::default()
        }))
        .unwrap();
    let channel = ScriptedChannel::new(["uncommon scenes", "OK"]);
    small_db.query(FLAGSHIP, channel.as_ref()).unwrap();
    let small_tokens = small_db.token_usage().total();

    let mut big_db = KathDB::new(42);
    big_db
        .load_corpus(&generate_corpus(&CorpusSpec {
            movies: 60,
            ..Default::default()
        }))
        .unwrap();
    let channel = ScriptedChannel::new(["uncommon scenes", "OK"]);
    big_db.query(FLAGSHIP, channel.as_ref()).unwrap();
    let big_tokens = big_db.token_usage().total();

    assert!(
        big_tokens > small_tokens * 2,
        "token cost must scale with data: small={small_tokens} big={big_tokens}"
    );
}

#[test]
fn determinism_same_seed_same_answer() {
    let run = || {
        let mut db = KathDB::new(123);
        db.load_corpus(&mmqa_small()).unwrap();
        let channel = ScriptedChannel::new(["uncommon scenes", "OK"]);
        let r = db.query(FLAGSHIP, channel.as_ref()).unwrap();
        r.display_table()
            .unwrap()
            .rows()
            .iter()
            .map(|row| row[1].render())
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}
