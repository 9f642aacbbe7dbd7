//! Property tests over the full pipeline: for randomized corpora, the
//! system-level invariants of KathDB must hold — results are subsets of the
//! input ranked by score, lineage traces terminate at external roots, and
//! the boring filter stays faithful to planted ground truth.

use kath_data::{generate_corpus, CorpusSpec};
use kath_model::ScriptedChannel;
use kathdb::KathDB;
use proptest::prelude::*;

const FLAGSHIP: &str = "Sort the given films in the table by how exciting \
                        they are, but the poster should be 'boring'";

proptest! {
    // End-to-end runs are expensive; a handful of random corpora per test
    // run is enough to sweep the parameter space over CI history.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn pipeline_invariants_hold_for_random_corpora(
        seed in 0u64..1000,
        movies in 8usize..25,
        boring_fraction in 0.3f64..0.8,
    ) {
        let corpus = generate_corpus(&CorpusSpec {
            movies,
            exciting_fraction: 0.5,
            boring_fraction,
            heic_fraction: 0.0,
            seed,
        });
        let mut db = KathDB::new(42);
        db.load_corpus(&corpus).unwrap();
        let channel = ScriptedChannel::new(["uncommon scenes", "OK"]);
        let result = db.query(FLAGSHIP, channel.as_ref()).unwrap();
        let display = result.display_table().unwrap();

        // 1. Every result row is one of the input movies, at most once.
        let tidx = display.schema().index_of("title").unwrap();
        let mut seen = std::collections::HashSet::new();
        for row in display.rows() {
            let title = row[tidx].render();
            prop_assert!(
                corpus.truth.iter().any(|t| t.title == title),
                "unknown title {title}"
            );
            prop_assert!(seen.insert(title), "duplicate result row");
        }

        // 2. Scores are sorted non-increasing.
        if let Some(sidx) = display.schema().index_of("excitement_score")
            .or_else(|| display.schema().index_of("final_score"))
        {
            let scores: Vec<f64> = display
                .rows()
                .iter()
                .map(|r| r[sidx].as_f64().unwrap())
                .collect();
            for w in scores.windows(2) {
                prop_assert!(w[0] >= w[1]);
            }
            // 3. Scores are valid probabilities.
            for s in scores {
                prop_assert!((0.0..=1.0).contains(&s));
            }
        }

        // 4. Filter accuracy vs planted truth stays high (the optimizer may
        //    trade a little accuracy for cost; it must not collapse).
        let got: Vec<String> = display.rows().iter().map(|r| r[tidx].render()).collect();
        let correct = corpus
            .truth
            .iter()
            .filter(|t| got.contains(&t.title) == t.boring_poster)
            .count();
        prop_assert!(
            correct as f64 / corpus.truth.len() as f64 >= 0.8,
            "accuracy collapsed: {correct}/{}", corpus.truth.len()
        );

        // 5. Every result tuple's lineage trace terminates at an external
        //    root within bounded depth.
        if let Some(lidx) = display.schema().index_of("lid") {
            for row in display.rows() {
                let lid = row[lidx].as_int().unwrap();
                let trace = db.context().lineage.trace(lid).unwrap();
                prop_assert!(trace.depth() <= 12);
                // A root edge (no parent) is reachable.
                fn has_root(t: &kath_lineage::DerivationTrace) -> bool {
                    t.edges.iter().any(|e| e.parent_lid.is_none())
                        || t.parents.iter().any(has_root)
                }
                prop_assert!(has_root(&trace), "trace never reached a root");
            }
        }

        // 6. The function registry contains profiled versions for every
        //    physical node that ran.
        for node in &result.compile.physical.nodes {
            prop_assert!(db.registry().contains(&node.func_id));
        }
    }

    #[test]
    fn token_cost_is_monotone_in_corpus_size(seed in 0u64..100) {
        let mut totals = Vec::new();
        for movies in [6usize, 18] {
            let corpus = generate_corpus(&CorpusSpec {
                movies,
                seed,
                ..Default::default()
            });
            let mut db = KathDB::new(42);
            db.load_corpus(&corpus).unwrap();
            let channel = ScriptedChannel::new(["uncommon scenes", "OK"]);
            db.query(FLAGSHIP, channel.as_ref()).unwrap();
            totals.push(db.token_usage().total());
        }
        prop_assert!(totals[1] > totals[0], "{totals:?}");
    }
}
