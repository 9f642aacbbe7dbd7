//! Interactive-style result explanation (§5, Fig. 5): run the flagship
//! query, then walk the provenance graph — the Table-3 lineage relation,
//! coarse pipeline explanation, fine-grained per-tuple derivations, and NL
//! questions over the lineage.
//!
//! ```sh
//! cargo run --example lineage_explorer
//! ```

use kath_data::mmqa_small;
use kath_model::ScriptedChannel;
use kathdb::KathDB;

fn main() {
    let mut db = KathDB::new(42);
    db.load_corpus(&mmqa_small()).expect("corpus loads");
    let channel = ScriptedChannel::new([
        "The movie plot contains scenes that are uncommon in real life",
        "Oh I prefer a more recent movie as well when scoring",
        "OK",
    ]);
    let result = db
        .query(
            "Sort the given films in the table by how exciting they are, \
             but the poster should be 'boring'",
            channel.as_ref(),
        )
        .expect("query runs");

    // The unified lineage relation (Table 3 / Fig. 2).
    let lineage = db.lineage_table().expect("lineage renders");
    println!(
        "== Lineage relation: {} edges (showing the last 8, cf. Fig. 2) ==",
        lineage.len()
    );
    let tail_start = lineage.len().saturating_sub(8);
    let mut tail = kath_storage::Table::new("lineage_tail", lineage.schema().clone());
    for row in &lineage.rows()[tail_start..] {
        tail.push(row.clone()).unwrap();
    }
    println!("{}", tail.render());

    // Coarse mode (Fig. 5 left).
    println!("== Q: Explain the pipeline? ==");
    println!("{}", db.explain("Explain the pipeline?").unwrap());

    // Fine mode (Fig. 5 right) for every result tuple.
    let display = result.display_table().expect("display");
    let lid_col = display.schema().index_of("lid").expect("lid column");
    for row in display.rows().iter().take(2) {
        let lid = row[lid_col].as_int().expect("integer lid");
        println!("== Q: Explain tuple {lid}? ==");
        println!("{}", db.explain(&format!("Explain tuple {lid}?")).unwrap());
    }

    // Other NL questions the explainer answers.
    for q in [
        "what produced column final_score?",
        "how many versions of classify_boring exist?",
    ] {
        println!("== Q: {q} ==");
        println!("{}\n", db.explain(q).unwrap());
    }
}
