//! Quickstart: load the MMQA-like corpus, run the paper's flagship NL query
//! with scripted user replies, and print the final ranked table (Fig. 6).
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use kath_data::mmqa_small;
use kath_model::ScriptedChannel;
use kathdb::KathDB;

fn main() {
    // 1. A fresh KathDB instance (seed fixes all simulated-model behavior).
    let mut db = KathDB::new(42);

    // 2. Ingest the corpus: a movie table plus plot documents and poster
    //    image descriptors.
    db.load_corpus(&mmqa_small()).expect("corpus loads");

    // 3. The paper's query, with the user replies of §6 scripted:
    //    one clarification, one reactive correction, then approval.
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

    // 4. The final ranked list (Fig. 6).
    println!("{}", result.display_table().expect("display").render());

    // 5. One-line explanation of how the winner was derived.
    let lid = result.top_lid().expect("lids present");
    println!("{}", db.explain(&format!("explain tuple {lid}")).unwrap());

    println!(
        "simulated token usage: {} tokens over {} model calls",
        db.token_usage().total(),
        db.token_usage().calls
    );
}
