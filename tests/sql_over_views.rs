//! After a query runs, the materialized multimodal views are ordinary
//! relations: this test drives the SQL engine over them — the "systematic,
//! cost-based evaluation of cross-modal user queries" the unified relational
//! layer promises (§1).

use kath_data::mmqa_small;
use kath_model::ScriptedChannel;
use kath_storage::Value;
use kathdb::KathDB;

fn db_after_flagship() -> KathDB {
    let mut db = KathDB::new(42);
    db.load_corpus(&mmqa_small()).unwrap();
    let channel = ScriptedChannel::new(["uncommon scenes", "OK"]);
    db.query(
        "Sort the given films in the table by how exciting they are, \
         but the poster should be 'boring'",
        channel.as_ref(),
    )
    .unwrap();
    db
}

#[test]
fn scene_objects_view_is_sql_queryable() {
    let db = db_after_flagship();
    let mut catalog = db.context().catalog.snapshot().catalog().clone();
    // Count detected objects per poster.
    let t = kath_sql::execute(
        &mut catalog,
        "SELECT vid, COUNT(*) AS objects FROM scene_objects GROUP BY vid ORDER BY vid",
        "objects_per_poster",
    )
    .unwrap();
    // The detector is noisy: low-saliency objects on boring posters may go
    // undetected entirely, so some vids can be absent from the grouped view.
    assert!((4..=6).contains(&t.len()), "{}", t.render());
    // Vivid posters (4 = Night Chase) carry more detected objects than any
    // boring one.
    let night_chase = t.find("vid", &Value::Int(4)).unwrap().unwrap();
    let nc = t.cell(night_chase, "objects").unwrap().as_int().unwrap();
    assert!(nc >= 3, "night chase should be object-rich, got {nc}");
    for boring_vid in [1i64, 2, 3, 6] {
        if let Some(row) = t.find("vid", &Value::Int(boring_vid)).unwrap() {
            let n = t.cell(row, "objects").unwrap().as_int().unwrap();
            assert!(n < nc, "boring poster {boring_vid} has {n} >= {nc}");
        }
    }
}

#[test]
fn cross_modal_join_movies_to_detected_weapons() {
    let db = db_after_flagship();
    let mut catalog = db.context().catalog.snapshot().catalog().clone();
    // Which movies' posters depict a weapon? A cross-modal join: base table
    // × scene-graph view.
    let t = kath_sql::execute(
        &mut catalog,
        "SELECT DISTINCT title FROM movie_table \
         JOIN scene_objects ON movie_table.vid = scene_objects.vid \
         WHERE cid = 'weapon' ORDER BY title",
        "weapon_movies",
    )
    .unwrap();
    let titles: Vec<&str> = t.rows().iter().map(|r| r[0].as_str().unwrap()).collect();
    // Exactly the vivid-poster movies (Night Chase, Garden Letters).
    assert!(titles.contains(&"Night Chase"), "{titles:?}");
    assert!(!titles.contains(&"Quiet Days"), "{titles:?}");
}

#[test]
fn text_entities_view_finds_the_director() {
    let db = db_after_flagship();
    let mut catalog = db.context().catalog.snapshot().catalog().clone();
    // The Guilty by Suspicion plot mentions Irwin Winkler; the text graph
    // resolves him as a person entity with a director_of relationship.
    let people = kath_sql::execute(
        &mut catalog,
        "SELECT did, COUNT(*) AS n FROM text_entities WHERE cid = 'person' GROUP BY did",
        "people_per_doc",
    )
    .unwrap();
    let guilty = people.find("did", &Value::Int(1)).unwrap();
    assert!(guilty.is_some(), "{}", people.render());

    let rels = kath_sql::execute(
        &mut catalog,
        "SELECT * FROM text_relationships WHERE pid = 'director_of'",
        "director_rels",
    )
    .unwrap();
    assert!(
        !rels.is_empty(),
        "director_of relationship must be extracted"
    );
    assert_eq!(rels.cell(0, "did").unwrap(), &Value::Int(1));
}

#[test]
fn mentions_have_valid_spans_into_texts() {
    let db = db_after_flagship();
    let catalog = db.context().catalog.snapshot();
    let mentions = catalog.get("text_mentions").unwrap();
    let texts = catalog.get("text_texts").unwrap();
    for m in mentions.rows() {
        let did = &m[0];
        let (s1, s2) = (
            m[5].as_int().unwrap() as usize,
            m[6].as_int().unwrap() as usize,
        );
        let doc_row = texts.find("did", did).unwrap().expect("doc exists");
        let chars = texts.cell(doc_row, "chars").unwrap().as_str().unwrap();
        assert!(
            s2 <= chars.len() && s1 < s2,
            "span [{s1},{s2}) out of range"
        );
        // Spans cut on character boundaries and are non-empty.
        assert!(!chars[s1..s2].trim().is_empty());
    }
}

#[test]
fn intermediate_tables_are_inspectable() {
    let db = db_after_flagship();
    let catalog = db.context().catalog.snapshot();
    // The paper's explainability story depends on every intermediate being
    // a materialized view the user can look at.
    for name in [
        "movie_columns",
        "films_with_text",
        "films_with_image_scene",
        "films_with_excitement",
        "films_with_boring_flag",
        "films_boring_only",
        "final_ranked_films",
    ] {
        assert!(catalog.contains(name), "missing intermediate '{name}'");
        assert!(
            catalog.get(name).unwrap().schema().arity() > 0,
            "degenerate schema for '{name}'"
        );
    }
}
