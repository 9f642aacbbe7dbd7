//! Compile records: what the optimizer decided on its profiling sample,
//! kept beside the functions so that a later question over the same sample
//! inputs installs the decision instead of making it again
//! (docs/execution.md, "Incremental re-execution"). Tables are compared by
//! identity — a record keeps each `Arc`, so an address cannot be reused
//! while it is compared — and sampled media by value. In memory only: never
//! part of the registry's JSON image, and not part of registry equality.

use crate::{FunctionBody, ProfileStats};
use kath_media::{MediaKind, MediaRegistry};
use kath_storage::{StorageError, Table};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// A table a function published, with its table-level lid.
#[derive(Debug, Clone)]
pub struct Published {
    /// The table as the catalog holds it.
    pub table: Arc<Table>,
    /// Its table-level lid.
    pub lid: i64,
}

/// The critic's correction of a recorded winner.
#[derive(Debug, Clone)]
pub struct RecordedCritique {
    /// The critic's corrective hint.
    pub hint: String,
    /// The corrected body, the one the node ends on.
    pub body: FunctionBody,
}

/// The implementation a compile chose for a node.
#[derive(Debug, Clone)]
pub struct Decision {
    /// The winning body.
    pub body: FunctionBody,
    /// The winner's note.
    pub note: String,
    /// The winner's profile on the sample.
    pub profile: ProfileStats,
    /// How many candidates were profiled.
    pub candidates: usize,
    /// The critic's correction of the winner, if it made one.
    pub critique: Option<RecordedCritique>,
}

/// The media a sample run read: one collection of the caller's, narrowed to
/// what the sampled rows name.
#[derive(Debug, Clone)]
pub struct SampledMedia {
    /// The collection.
    pub kind: MediaKind,
    /// The caller's collection stamp it was narrowed from: while the
    /// caller's stamp is this one, narrowing again gives `sample` again.
    pub source_stamp: u64,
    /// The sample context's `kind` collection after narrowing, compared by
    /// value (the other collection is empty).
    pub sample: MediaRegistry,
}

/// One node's compile over one sample: what it read and what it left.
#[derive(Debug, Clone)]
pub struct CompileRecord {
    /// What the decision read besides tables and media — the node, the
    /// clarifications and the compile options — as the compiler renders
    /// them: equal renderings, equal inputs.
    pub context: String,
    /// The sample tables the compile read, by identity.
    pub inputs: Vec<Arc<Table>>,
    /// The sampled media collection it read.
    pub media: Option<SampledMedia>,
    /// The chosen implementation; `None` for a pre-written function, which
    /// has nothing to choose.
    pub decision: Option<Decision>,
    /// What it published on the sample, its own output last.
    pub outputs: Vec<Published>,
}

/// A sampled table and the table it was drawn from.
#[derive(Debug, Clone)]
struct Sample {
    source: Arc<Table>,
    size: usize,
    sample: Arc<Table>,
}

/// The records kept per function, most recently used first: enough for a
/// session that alternates between a few ways of asking.
const RECORDS_PER_FUNCTION: usize = 4;

/// Every compile record of a registry, a few per function, and the sampled
/// tables they were made over.
#[derive(Debug, Clone, Default)]
pub struct CompileRecords {
    samples: HashMap<String, Sample>,
    nodes: HashMap<String, VecDeque<CompileRecord>>,
}

impl CompileRecords {
    /// The first `size` rows of `table`, under its name, as last drawn: a
    /// sample is drawn again only when `table` is no longer the table it
    /// was drawn from, so an unchanged table keeps one sample `Arc`.
    pub fn sample(&mut self, table: &Arc<Table>, size: usize) -> Result<Arc<Table>, StorageError> {
        let name = table.name();
        if let Some(kept) = self.samples.get(name) {
            if Arc::ptr_eq(&kept.source, table) && kept.size == size {
                return Ok(Arc::clone(&kept.sample));
            }
        }
        let mut drawn = table.sample(size)?;
        drawn.set_name(name);
        let sample = Arc::new(drawn);
        let kept = Sample {
            source: Arc::clone(table),
            size,
            sample: Arc::clone(&sample),
        };
        self.samples.insert(name.to_string(), kept);
        Ok(sample)
    }

    /// Forgets the samples of tables `keep` refuses.
    pub fn retain_samples(&mut self, keep: impl Fn(&str) -> bool) {
        self.samples.retain(|name, _| keep(name));
    }

    /// The first of `func_id`'s records `accept` takes, made the most
    /// recently used.
    pub fn find(
        &mut self,
        func_id: &str,
        accept: impl Fn(&CompileRecord) -> bool,
    ) -> Option<&mut CompileRecord> {
        let kept = self.nodes.get_mut(func_id)?;
        let at = kept.iter().position(accept)?;
        let record = kept.remove(at)?;
        kept.push_front(record);
        kept.front_mut()
    }

    /// The record `func_id`'s last compile made or installed.
    pub fn latest(&self, func_id: &str) -> Option<&CompileRecord> {
        self.nodes.get(func_id)?.front()
    }

    /// Records a compile of `func_id` as its most recent, forgetting the
    /// least recently used record beyond a few.
    pub fn insert(&mut self, func_id: &str, record: CompileRecord) {
        let kept = self.nodes.entry(func_id.to_string()).or_default();
        kept.push_front(record);
        kept.truncate(RECORDS_PER_FUNCTION);
    }
}
