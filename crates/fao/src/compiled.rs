//! Records of what a run read and published: a later run that would only
//! repeat one serves what it published instead (docs/execution.md,
//! "Incremental re-execution"). The engine keeps one per node output, the
//! optimizer a few per function over its profiling sample. Tables compare
//! by [`Table::same_rows`], media collections by stamp. In memory only:
//! never part of the registry's JSON image, nor of registry equality.

use crate::{FunctionBody, ProfileStats};
use kath_media::{MediaKind, MediaRegistry};
use kath_storage::{Catalog, StorageError, Table};
use std::collections::{BTreeSet, HashMap, VecDeque};
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

/// One run of a function — a node's over the catalog, or a compile's over
/// its sample: what it read and what it left.
#[derive(Debug, Clone)]
pub struct Record<C = String> {
    /// What the run read besides tables and media, which its caller
    /// compares: a node's function and body, or a compile's node,
    /// clarifications and options, rendered.
    pub context: C,
    /// The tables it read, in the order it named them.
    pub inputs: Vec<Arc<Table>>,
    /// The media collection it read directly, with its stamp after the run
    /// (a repairing view population replaces images while it runs).
    pub media: Option<(MediaKind, u64)>,
    /// What it published, its own output last.
    pub outputs: Vec<Published>,
    /// Input rows it consumed.
    pub rows_in: usize,
    /// What a compile chose; `None` for a node's run and for a pre-written
    /// function, which has nothing to choose.
    pub decision: Option<Decision>,
}

impl<C> Record<C> {
    /// Whether running again under an equal context would repeat this run:
    /// every table it read the same rows in `catalog`, its media collection
    /// at the recorded stamp, and every table it published the same rows
    /// under its lid in `lids`, or gone (the caller publishes it again from
    /// the record). Each table it finds the same rows it swaps for
    /// `catalog`'s value, so it never pins one the catalog replaced by its
    /// sealed form.
    pub fn revalidate(
        &mut self,
        catalog: &Catalog,
        media: &MediaRegistry,
        lids: &HashMap<String, i64>,
    ) -> bool {
        let stamped = |(kind, stamp): (MediaKind, u64)| media.stamp(kind) == stamp;
        if !self.media.is_none_or(stamped) {
            return false;
        }
        // A swapped value holds the same rows, so a record that fails half
        // way means what it meant before.
        let current = |t: &mut Arc<Table>| match catalog.get(t.name()) {
            Ok(now) if now.same_rows(t) => {
                *t = now;
                true
            }
            _ => false,
        };
        self.inputs.iter_mut().all(current)
            && self.outputs.iter_mut().all(|p| {
                let name = p.table.name();
                !catalog.contains(name) || (lids.get(name) == Some(&p.lid) && current(&mut p.table))
            })
    }
}

/// A sampled table and the table it was drawn from.
#[derive(Debug, Clone)]
struct Sample {
    source: Arc<Table>,
    size: usize,
    sample: Arc<Table>,
}

/// A media collection narrowed for the sample, and what it was narrowed
/// from: the caller's stamp and the ids it kept (`None`: not narrowed).
#[derive(Debug, Clone)]
struct MediaSample {
    source: (u64, Option<BTreeSet<i64>>),
    sample: MediaRegistry,
}

/// The compile records kept per function: enough for a session that
/// alternates between a few ways of asking.
const RECORDS_PER_FUNCTION: usize = 4;

/// Every compile record of a registry, a few per function, and the sampled
/// tables and media they were made over.
#[derive(Debug, Clone, Default)]
pub struct CompileRecords {
    samples: HashMap<String, Sample>,
    media: HashMap<MediaKind, MediaSample>,
    nodes: HashMap<String, VecDeque<Record>>,
}

impl CompileRecords {
    /// The first of `func_id`'s records `accept` takes, made the most
    /// recently used.
    pub fn find(
        &mut self,
        func_id: &str,
        accept: impl FnMut(&mut Record) -> bool,
    ) -> Option<&mut Record> {
        let kept = self.nodes.get_mut(func_id)?;
        let at = kept.iter_mut().position(accept)?;
        let record = kept.remove(at)?;
        kept.push_front(record);
        kept.front_mut()
    }

    /// The record `func_id`'s last compile made or installed.
    pub fn latest(&self, func_id: &str) -> Option<&Record> {
        self.nodes.get(func_id)?.front()
    }

    /// Records a compile of `func_id` as its most recent, forgetting the
    /// least recently used record beyond a few.
    pub fn insert(&mut self, func_id: &str, record: Record) {
        let kept = self.nodes.entry(func_id.to_string()).or_default();
        kept.push_front(record);
        kept.truncate(RECORDS_PER_FUNCTION);
    }

    /// The first `size` rows of `table`, under its name, as last drawn: a
    /// sample is drawn again only when `table` no longer holds the rows it
    /// was drawn from, and one drawn again with the kept one's values is
    /// the kept one. A sample is a function of its rows: one an append
    /// leaves alone keeps its `Arc`.
    pub fn sample(&mut self, table: &Arc<Table>, size: usize) -> Result<Arc<Table>, StorageError> {
        let name = table.name();
        let sample = match self.samples.get_mut(name).filter(|kept| kept.size == size) {
            Some(kept) if kept.source.same_rows(table) => {
                kept.source = Arc::clone(table);
                return Ok(Arc::clone(&kept.sample));
            }
            kept => {
                let mut drawn = table.sample(size)?;
                drawn.set_name(name);
                match kept.filter(|kept| same_values(&kept.sample, &drawn)) {
                    Some(kept) => Arc::clone(&kept.sample),
                    None => Arc::new(drawn),
                }
            }
        };
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

    /// Narrows `media`'s `kind` collection the way the tables were sampled:
    /// an item stays when `id_of` its URI is one of `ids`, or is none; with
    /// no `ids` the collection stays whole. The result is the collection
    /// last narrowed — shared, with its stamp — while the caller's
    /// collection has the stamp it was narrowed from and `ids` are the
    /// same, or when narrowing again gives equal items; a run recorded over
    /// it then validates by that stamp.
    pub fn sample_media(
        &mut self,
        media: &mut MediaRegistry,
        kind: MediaKind,
        ids: Option<BTreeSet<i64>>,
        id_of: impl Fn(&str) -> Option<i64>,
    ) {
        let source = (media.stamp(kind), ids);
        let kept = self.media.get(&kind);
        if let Some(kept) = kept.filter(|kept| kept.source == source) {
            return media.share(&kept.sample, kind);
        }
        if let Some(ids) = &source.1 {
            let keep = |uri: &str| id_of(uri).is_none_or(|id| ids.contains(&id));
            match kind {
                MediaKind::Images => media.retain_images(|i| keep(&i.uri)),
                MediaKind::Documents => media.retain_documents(|d| keep(&d.uri)),
            }
        }
        // Only the collection it narrowed: the other one is still the
        // caller's, and keeping it would make the caller's next write to it
        // copy the whole map.
        let mut sample = MediaRegistry::new();
        match kept.filter(|kept| kept.sample.same_contents(media, kind)) {
            Some(kept) => sample.share(&kept.sample, kind),
            None => sample.share(media, kind),
        }
        media.share(&sample, kind);
        self.media.insert(kind, MediaSample { source, sample });
    }
}

/// Whether two tables hold equal values in equal order under one schema,
/// read through their columns.
fn same_values(a: &Table, b: &Table) -> bool {
    let rows = |t: &Table| {
        t.to_batch()
            .map(|b| (0..b.num_rows()).map(|i| b.row(i)).collect())
    };
    a.schema() == b.schema() && rows(a).is_ok_and(|a: Vec<_>| rows(b).is_ok_and(|b| a == b))
}
