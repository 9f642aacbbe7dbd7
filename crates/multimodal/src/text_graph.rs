//! Text semantic-graph views (Table 2 of the paper).
//!
//! A textual corpus is represented by entities, their mentions (with
//! character spans), relationships, attributes, and the raw texts. The key
//! semantic move is entity resolution: "Taylor" and "Mrs. Swift" get
//! different `mid`s but share an `eid` (§3), so queries that group by entity
//! avoid double counting.

use kath_media::Document;
use kath_model::ner::{extract_mentions, resolve_entities, ResolvedEntity};
use kath_model::SimLlm;
use kath_storage::{DataType, Schema, StorageError, Table, Value};

/// `Entities(did, eid, lid, cid)` (Table 2).
pub fn entities_schema() -> Schema {
    Schema::of(&[
        ("did", DataType::Int),
        ("eid", DataType::Int),
        ("lid", DataType::Int),
        ("cid", DataType::Str),
    ])
}

/// `Mentions(did, sid, mid, lid, eid, span1, span2)` (Table 2).
pub fn mentions_schema() -> Schema {
    Schema::of(&[
        ("did", DataType::Int),
        ("sid", DataType::Int),
        ("mid", DataType::Int),
        ("lid", DataType::Int),
        ("eid", DataType::Int),
        ("span1", DataType::Int),
        ("span2", DataType::Int),
    ])
}

/// `Relationships(did, sid, rid, lid, eid_i, pid, eid_j)` (Table 2).
pub fn relationships_schema() -> Schema {
    Schema::of(&[
        ("did", DataType::Int),
        ("sid", DataType::Int),
        ("rid", DataType::Int),
        ("lid", DataType::Int),
        ("eid_i", DataType::Int),
        ("pid", DataType::Str),
        ("eid_j", DataType::Int),
    ])
}

/// `Attributes(did, sid, eid, lid, k, v)` (Table 2).
pub fn attributes_schema() -> Schema {
    Schema::of(&[
        ("did", DataType::Int),
        ("sid", DataType::Int),
        ("eid", DataType::Int),
        ("lid", DataType::Int),
        ("k", DataType::Str),
        ("v", DataType::Str),
    ])
}

/// `Texts(did, lid, chars)` (Table 2).
pub fn texts_schema() -> Schema {
    Schema::of(&[
        ("did", DataType::Int),
        ("lid", DataType::Int),
        ("chars", DataType::Str),
    ])
}

/// The five materialized text-graph views.
#[derive(Debug, Clone)]
pub struct TextGraphViews {
    /// Resolved entities.
    pub entities: Table,
    /// Entity mentions with character spans.
    pub mentions: Table,
    /// Entity–entity relationships.
    pub relationships: Table,
    /// Entity attributes.
    pub attributes: Table,
    /// Raw text registry.
    pub texts: Table,
}

impl TextGraphViews {
    /// Empty views with the canonical names and schemas.
    pub fn empty() -> Self {
        Self {
            entities: Table::new("text_entities", entities_schema()),
            mentions: Table::new("text_mentions", mentions_schema()),
            relationships: Table::new("text_relationships", relationships_schema()),
            attributes: Table::new("text_attributes", attributes_schema()),
            texts: Table::new("text_texts", texts_schema()),
        }
    }
}

/// Verb patterns that induce relationships between two entities mentioned in
/// the same sentence: `(surface verb, pid)`.
const RELATION_PATTERNS: [(&str, &str); 6] = [
    ("directed", "director_of"),
    ("produced", "producer_of"),
    ("starred in", "star_of"),
    ("married", "spouse_of"),
    ("wrote", "writer_of"),
    ("met", "met"),
];

/// What the NER stack and the verb patterns read out of one document: the
/// model half of [`populate_document`]. It is a pure function of the
/// document — no view, no lid — so documents can be extracted in any order
/// (or on several workers) before [`emit_document`] writes them one by one.
#[derive(Debug, Clone, PartialEq)]
pub struct DocumentExtraction {
    entities: Vec<ResolvedEntity>,
    /// Relationships and attributes in the order their view rows are
    /// emitted: sentence by sentence, a sentence's relationships first.
    facts: Vec<SentenceFact>,
}

/// One relationship or attribute found in sentence `sid`.
#[derive(Debug, Clone, PartialEq)]
enum SentenceFact {
    Relationship {
        sid: usize,
        eid_i: usize,
        pid: &'static str,
        eid_j: usize,
    },
    /// A `movie_budget` attribute of entity `eid`.
    Budget {
        sid: usize,
        eid: usize,
        amount: String,
    },
}

/// Extracts one document: mentions, resolved entities (class assignment
/// runs through the simulated model's NER stack), verb-pattern relationships
/// and attributes.
pub fn extract_document(doc: &Document, llm: &SimLlm) -> DocumentExtraction {
    let sentences = doc.sentences();
    let mentions = extract_mentions(&sentences);
    let entities = resolve_entities(mentions, llm.knowledge());

    // Relationships: verb patterns between two entity mentions within one
    // sentence, in textual order. Mention spans are document offsets; the
    // verb position is sentence-local, so shift by the sentence start.
    let mut facts = Vec::new();
    for (si, (sstart, _send, stext)) in sentences.iter().enumerate() {
        let lower = stext.to_lowercase();
        // Non-pronoun mentions of this sentence as (local offset, eid).
        let local_mentions: Vec<(usize, usize)> = entities
            .iter()
            .flat_map(|e| e.mentions.iter().map(move |m| (e.id, m)))
            .filter(|(_, m)| m.sentence == si && !m.pronoun)
            .map(|(id, m)| (m.span1.saturating_sub(*sstart), id))
            .collect();
        for (verb, pid) in RELATION_PATTERNS {
            let Some(vpos) = lower.find(verb) else {
                continue;
            };
            // Subject: mention closest before the verb; object: first
            // mention after it.
            let subj = local_mentions
                .iter()
                .filter(|(off, _)| *off < vpos)
                .max_by_key(|(off, _)| *off)
                .map(|(_, id)| *id);
            let obj = local_mentions
                .iter()
                .filter(|(off, _)| *off > vpos)
                .min_by_key(|(off, _)| *off)
                .map(|(_, id)| *id);
            if let (Some(eid_i), Some(eid_j)) = (subj, obj) {
                if eid_i != eid_j {
                    facts.push(SentenceFact::Relationship {
                        sid: si,
                        eid_i,
                        pid,
                        eid_j,
                    });
                }
            }
        }
        // Attribute pattern: "<entity> ... budget of <amount>", attached to
        // the first entity mentioned in the sentence.
        if let Some(bpos) = lower.find("budget of ") {
            let amount: String = stext[bpos + "budget of ".len()..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '.' || *c == '$')
                .collect();
            let first = local_mentions
                .iter()
                .min_by_key(|(off, _)| *off)
                .map(|(_, id)| *id);
            if let (Some(eid), false) = (first, amount.is_empty()) {
                facts.push(SentenceFact::Budget {
                    sid: si,
                    eid,
                    amount,
                });
            }
        }
    }
    DocumentExtraction { entities, facts }
}

/// Writes one extracted document into the views as document `did`: the
/// text row, then each entity with its mentions, then the sentence facts.
/// `next_lid` allocates one lineage id per view row, in that order. Returns
/// the entity count.
pub fn emit_document(
    views: &mut TextGraphViews,
    did: i64,
    doc: &Document,
    extraction: &DocumentExtraction,
    next_lid: &mut impl FnMut() -> i64,
) -> Result<usize, StorageError> {
    views.texts.push(vec![
        Value::Int(did),
        Value::Int(next_lid()),
        Value::Str(doc.text.clone()),
    ])?;

    let mut mid = 0i64;
    for ent in &extraction.entities {
        views.entities.push(vec![
            Value::Int(did),
            Value::Int(ent.id as i64),
            Value::Int(next_lid()),
            Value::Str(ent.class.clone()),
        ])?;
        for m in &ent.mentions {
            views.mentions.push(vec![
                Value::Int(did),
                Value::Int(m.sentence as i64),
                Value::Int(mid),
                Value::Int(next_lid()),
                Value::Int(ent.id as i64),
                Value::Int(m.span1 as i64),
                Value::Int(m.span2 as i64),
            ])?;
            mid += 1;
        }
    }

    let mut rid = 0i64;
    for fact in &extraction.facts {
        match fact {
            SentenceFact::Relationship {
                sid,
                eid_i,
                pid,
                eid_j,
            } => {
                views.relationships.push(vec![
                    Value::Int(did),
                    Value::Int(*sid as i64),
                    Value::Int(rid),
                    Value::Int(next_lid()),
                    Value::Int(*eid_i as i64),
                    Value::Str(pid.to_string()),
                    Value::Int(*eid_j as i64),
                ])?;
                rid += 1;
            }
            SentenceFact::Budget { sid, eid, amount } => views.attributes.push(vec![
                Value::Int(did),
                Value::Int(*sid as i64),
                Value::Int(*eid as i64),
                Value::Int(next_lid()),
                Value::Str("movie_budget".to_string()),
                Value::Str(amount.clone()),
            ])?,
        }
    }

    Ok(extraction.entities.len())
}

/// Populates the text-graph views for one document identified by `did`:
/// [`extract_document`], then [`emit_document`].
pub fn populate_document(
    views: &mut TextGraphViews,
    did: i64,
    doc: &Document,
    llm: &SimLlm,
    next_lid: &mut impl FnMut() -> i64,
) -> Result<usize, StorageError> {
    emit_document(views, did, doc, &extract_document(doc, llm), next_lid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kath_model::TokenMeter;

    fn llm() -> SimLlm {
        SimLlm::new(42, TokenMeter::new())
    }

    fn lid() -> impl FnMut() -> i64 {
        let mut c = 0i64;
        move || {
            c += 1;
            c
        }
    }

    #[test]
    fn schemas_match_table2_exactly() {
        assert_eq!(entities_schema().names(), vec!["did", "eid", "lid", "cid"]);
        assert_eq!(
            mentions_schema().names(),
            vec!["did", "sid", "mid", "lid", "eid", "span1", "span2"]
        );
        assert_eq!(
            relationships_schema().names(),
            vec!["did", "sid", "rid", "lid", "eid_i", "pid", "eid_j"]
        );
        assert_eq!(
            attributes_schema().names(),
            vec!["did", "sid", "eid", "lid", "k", "v"]
        );
        assert_eq!(texts_schema().names(), vec!["did", "lid", "chars"]);
    }

    #[test]
    fn entity_resolution_shares_eid_across_mentions() {
        let mut views = TextGraphViews::empty();
        let doc = Document::new(
            "doc://1",
            "Taylor Swift released an album. Mrs. Swift then toured the world.",
        );
        let mut gen = lid();
        populate_document(&mut views, 1, &doc, &llm(), &mut gen).unwrap();
        // One Swift entity...
        let swift_rows: Vec<_> = views
            .entities
            .rows()
            .iter()
            .filter(|r| r[3].as_str() == Some("person"))
            .collect();
        assert_eq!(swift_rows.len(), 1);
        let eid = swift_rows[0][1].clone();
        // ...with at least two mentions carrying distinct mids.
        let mentions: Vec<_> = views
            .mentions
            .rows()
            .iter()
            .filter(|r| r[4] == eid)
            .collect();
        assert!(mentions.len() >= 2);
        assert_ne!(mentions[0][2], mentions[1][2]); // different mid
    }

    #[test]
    fn mention_spans_are_document_offsets() {
        let mut views = TextGraphViews::empty();
        let text = "Irwin Winkler directed Guilty by Suspicion.";
        let doc = Document::new("doc://2", text);
        let mut gen = lid();
        populate_document(&mut views, 2, &doc, &llm(), &mut gen).unwrap();
        for row in views.mentions.rows() {
            let (a, b) = (
                row[5].as_int().unwrap() as usize,
                row[6].as_int().unwrap() as usize,
            );
            assert!(b <= text.len() && a < b);
        }
    }

    #[test]
    fn director_relationship_extracted_as_in_paper() {
        // §3: entity "Irwin Winkler" has relationship "director_of" with
        // movie entity "Guilty by Suspicion".
        let mut views = TextGraphViews::empty();
        let doc = Document::new("doc://3", "Irwin Winkler directed Guilty by Suspicion.");
        let mut gen = lid();
        populate_document(&mut views, 3, &doc, &llm(), &mut gen).unwrap();
        assert_eq!(views.relationships.len(), 1, "{:?}", views.relationships);
        let rel = views.relationships.row(0).unwrap();
        assert_eq!(rel[5].as_str(), Some("director_of"));
        let eid_i = rel[4].as_int().unwrap();
        // Subject must be the Winkler entity.
        let winkler = views
            .entities
            .rows()
            .iter()
            .position(|r| r[3].as_str() == Some("person"))
            .unwrap();
        assert_eq!(views.entities.rows()[winkler][1].as_int().unwrap(), eid_i);
    }

    #[test]
    fn budget_attribute_extracted() {
        let mut views = TextGraphViews::empty();
        let doc = Document::new(
            "doc://4",
            "Guilty by Suspicion had a budget of 13M according to reports.",
        );
        let mut gen = lid();
        populate_document(&mut views, 4, &doc, &llm(), &mut gen).unwrap();
        assert_eq!(views.attributes.len(), 1);
        let a = views.attributes.row(0).unwrap();
        assert_eq!(a[4].as_str(), Some("movie_budget"));
        assert_eq!(a[5].as_str(), Some("13M"));
    }

    #[test]
    fn texts_view_keeps_raw_content() {
        let mut views = TextGraphViews::empty();
        let doc = Document::new("doc://5", "Plain text without entities here.");
        let mut gen = lid();
        populate_document(&mut views, 5, &doc, &llm(), &mut gen).unwrap();
        assert_eq!(views.texts.len(), 1);
        assert_eq!(
            views.texts.cell(0, "chars").unwrap().as_str(),
            Some("Plain text without entities here.")
        );
    }

    #[test]
    fn multiple_documents_accumulate() {
        let mut views = TextGraphViews::empty();
        let mut gen = lid();
        for d in 0..3i64 {
            let doc = Document::new(format!("doc://{d}"), "Robert De Niro stars.");
            populate_document(&mut views, d, &doc, &llm(), &mut gen).unwrap();
        }
        assert_eq!(views.texts.len(), 3);
        assert_eq!(views.entities.len(), 3);
        // eids are per-document (paper: unique within corpus per doc scope).
        let dids: Vec<i64> = views
            .entities
            .rows()
            .iter()
            .map(|r| r[0].as_int().unwrap())
            .collect();
        assert_eq!(dids, vec![0, 1, 2]);
    }
}
