//! On-the-fly error repair (§5): a corpus whose posters include unsupported
//! HEIC files. The first execution of `classify_boring` fails on those rows;
//! the monitor's reviewer diagnoses the exception, the rewriter patches the
//! function (adding a format-conversion step), the version bumps, and the
//! pipeline resumes — tuples unaffected by the error kept flowing.
//!
//! ```sh
//! cargo run --example self_repair
//! ```

use kath_data::{generate_corpus, CorpusSpec};
use kath_model::ScriptedChannel;
use kathdb::KathDB;

fn main() {
    // 10% of posters are HEIC — the exact failure of the paper's example.
    let corpus = generate_corpus(&CorpusSpec {
        movies: 40,
        exciting_fraction: 0.5,
        boring_fraction: 0.5,
        heic_fraction: 0.10,
        seed: 9,
    });
    let heic = corpus
        .images
        .iter()
        .filter(|i| !i.format.is_supported())
        .count();
    println!(
        "corpus: {} movies, {} HEIC poster(s)\n",
        corpus.movies.len(),
        heic
    );

    let mut db = KathDB::new(42);
    db.load_corpus(&corpus).expect("corpus loads");

    let channel = ScriptedChannel::new([
        "The movie plot contains scenes that are uncommon in real life",
        "OK",
    ]);
    let result = db
        .query(
            "Sort the given films in the table by how exciting they are, \
             but the poster should be 'boring'",
            channel.as_ref(),
        )
        .expect("query survives the HEIC rows via self-repair");

    println!("== Repairs performed by the monitor ==");
    if result.exec.repairs.is_empty() {
        println!("(none needed)");
    }
    for r in &result.exec.repairs {
        println!(
            "{}: v{} -> v{}\n  diagnosis: {}\n  {} unaffected tuple(s) continued, {} reprocessed",
            r.func_id, r.from_ver, r.to_ver, r.diagnosis, r.unaffected_tuples, r.failed_tuples
        );
    }

    println!("\n== Version history of the repaired functions ==");
    for name in db.registry().names() {
        let entry = db.registry().get(name).expect("listed name");
        if entry.versions.len() > 1 {
            for v in &entry.versions {
                println!("{name} v{}: {}", v.ver_id, v.note);
            }
        }
    }

    println!("\n== Final result (top 5) ==");
    let display = result.display_table();
    println!("{}", display.sample(5).expect("resident rows").render());
    println!(
        "({} result rows; every HEIC poster was classified after the repair)",
        display.len()
    );
}
