//! Cross-crate integration tests: the complete flagship pipeline of §6,
//! checked against every artifact the paper's figures show.

use kath_data::mmqa_small;
use kath_json::{parse, to_string};
use kath_model::ScriptedChannel;
use kath_parser::StepTag;
use kath_storage::Value;
use kathdb::{KathDB, QueryResult};

const FLAGSHIP: &str = "Sort the given films in the table by how exciting \
                        they are, but the poster should be 'boring'";

fn run_flagship() -> (KathDB, QueryResult, std::sync::Arc<ScriptedChannel>) {
    let mut db = KathDB::new(42);
    db.load_corpus(&mmqa_small()).unwrap();
    let channel = ScriptedChannel::new([
        "The movie plot contains scenes that are uncommon in real life",
        "Oh I prefer a more recent movie as well when scoring",
        "OK",
    ]);
    let result = db.query(FLAGSHIP, channel.as_ref()).unwrap();
    (db, result, channel)
}

#[test]
fn fig4_interaction_clarifies_then_corrects() {
    let (_db, result, channel) = run_flagship();
    let transcript = channel.transcript();
    // The parser asked the paper's exact clarification question first.
    assert!(transcript[0]
        .0
        .contains("What does 'exciting' mean in this context?"));
    assert_eq!(
        transcript[0].1,
        "The movie plot contains scenes that are uncommon in real life"
    );
    // Then showed a sketch and received the recency correction.
    assert!(transcript[1].0.contains("Query sketch (v1)"));
    assert!(transcript[1].1.contains("recent"));
    // The revised sketch was approved with an explicit OK (§5).
    assert!(transcript[2].0.contains("Query sketch (v2)"));
    assert_eq!(transcript[2].1, "OK");
    // 8 steps grew to 11 (§6).
    assert_eq!(result.parse.history[0].len(), 8);
    assert_eq!(result.parse.sketch.len(), 11);
}

#[test]
fn fig3_logical_plan_nodes_use_the_exact_json_layout() {
    let (_db, result, _) = run_flagship();
    // §6: the pre-written view population leaves 10 generated nodes.
    assert_eq!(result.logical.nodes.len(), 11);
    assert_eq!(result.logical.generated_nodes().count(), 10);
    let classify = result.logical.node("classify_boring").unwrap();
    let json = to_string(&classify.signature.to_json());
    // Keys in the exact order, ingestible without post-processing.
    let reparsed = parse(&json).unwrap();
    let keys: Vec<&str> = reparsed.as_object().unwrap().keys().collect();
    assert_eq!(keys, vec!["name", "description", "inputs", "output"]);
    assert_eq!(
        reparsed.get("inputs").unwrap().as_array().unwrap()[0].as_str(),
        Some("films_with_image_scene")
    );
    assert_eq!(
        reparsed.get("output").unwrap().as_str(),
        Some("films_with_boring_flag")
    );
}

#[test]
fn fig6_final_ranking_and_flags() {
    let (_db, result, _) = run_flagship();
    let display = result.display_table().unwrap();
    // Only boring-poster films survive; vivid ones are filtered.
    let titles: Vec<&str> = display
        .rows()
        .iter()
        .map(|r| {
            r[display.schema().index_of("title").unwrap()]
                .as_str()
                .unwrap()
        })
        .collect();
    assert!(!titles.contains(&"Night Chase"), "{titles:?}");
    assert!(!titles.contains(&"Garden Letters"), "{titles:?}");
    // Top two exactly as in Fig. 6.
    assert_eq!(titles[0], "Guilty by Suspicion");
    assert_eq!(titles[1], "Clean and Sober");
    // Scores strictly descending; all boring flags true.
    let sidx = display.schema().index_of("final_score").unwrap();
    let scores: Vec<f64> = display
        .rows()
        .iter()
        .map(|r| r[sidx].as_f64().unwrap())
        .collect();
    for w in scores.windows(2) {
        assert!(w[0] >= w[1]);
    }
    for row in display.rows() {
        assert_eq!(
            row[display.schema().index_of("boring").unwrap()],
            Value::Bool(true)
        );
    }
}

#[test]
fn accuracy_against_planted_ground_truth() {
    // Something the paper could not measure: with planted labels, the
    // pipeline's boring filter must agree with the ground truth.
    let corpus = mmqa_small();
    let (_db, result, _) = run_flagship();
    let display = result.display_table().unwrap();
    let expected: Vec<&str> = corpus
        .truth
        .iter()
        .filter(|t| t.boring_poster)
        .map(|t| t.title.as_str())
        .collect();
    assert_eq!(display.len(), expected.len());
    for t in &corpus.truth {
        let present = display
            .rows()
            .iter()
            .any(|r| r[display.schema().index_of("title").unwrap()].as_str() == Some(&t.title));
        assert_eq!(present, t.boring_poster, "{}", t.title);
    }
    // Ranking respects ground-truth excitement: every exciting plot in the
    // result ranks above every calm plot.
    let tidx = display.schema().index_of("title").unwrap();
    let rank_of = |title: &str| {
        display
            .rows()
            .iter()
            .position(|r| r[tidx].as_str() == Some(title))
    };
    for exciting in corpus
        .truth
        .iter()
        .filter(|t| t.exciting_plot && t.boring_poster)
    {
        for calm in corpus
            .truth
            .iter()
            .filter(|t| !t.exciting_plot && t.boring_poster)
        {
            let (Some(re), Some(rc)) = (rank_of(&exciting.title), rank_of(&calm.title)) else {
                continue;
            };
            assert!(
                re < rc,
                "{} (exciting) should outrank {} (calm)",
                exciting.title,
                calm.title
            );
        }
    }
}

#[test]
fn lineage_trace_spans_all_narrow_operators() {
    let (db, result, _) = run_flagship();
    let lid = result.top_lid().unwrap();
    let trace = db.context().lineage.trace(lid).unwrap();
    let funcs: Vec<String> = trace.functions().into_iter().map(|(f, _)| f).collect();
    for expected in [
        "combine_score",
        "gen_recency_score",
        "gen_excitement_score",
        "populate_text_views",
    ] {
        assert!(funcs.contains(&expected.to_string()), "{funcs:?}");
    }
    // Trace terminates at an external root.
    assert!(trace.depth() >= 5);
}

#[test]
fn sketch_tags_cover_the_full_pipeline() {
    let (_db, result, _) = run_flagship();
    let tags: Vec<&StepTag> = result.parse.sketch.steps.iter().map(|s| &s.tag).collect();
    assert!(matches!(tags[0], StepTag::PopulateViews));
    assert!(tags
        .iter()
        .any(|t| matches!(t, StepTag::ConceptScore { .. })));
    assert!(tags.iter().any(|t| matches!(t, StepTag::RecencyScore)));
    assert!(tags.iter().any(|t| matches!(t, StepTag::CombineScores)));
    assert!(tags
        .iter()
        .any(|t| matches!(t, StepTag::VisualClassify { .. })));
    assert!(tags.iter().any(|t| matches!(t, StepTag::FilterFlag { .. })));
    assert!(matches!(tags.last().unwrap(), StepTag::FinalRank));
}

#[test]
fn without_recency_correction_the_plan_is_smaller() {
    let mut db = KathDB::new(42);
    db.load_corpus(&mmqa_small()).unwrap();
    let channel = ScriptedChannel::new([
        "The movie plot contains scenes that are uncommon in real life",
        "OK",
    ]);
    let result = db.query(FLAGSHIP, channel.as_ref()).unwrap();
    assert_eq!(result.parse.sketch.len(), 8);
    assert!(result.logical.node("gen_recency_score").is_none());
    assert!(result.logical.node("combine_score").is_none());
    // Still ranks by excitement and filters boring posters.
    let display = result.display_table().unwrap();
    assert!(display.len() >= 2);
    let tidx = display.schema().index_of("title").unwrap();
    assert_eq!(
        display.rows()[0][tidx].as_str(),
        Some("Guilty by Suspicion")
    );
}
