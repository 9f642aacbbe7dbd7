//! The media registry: URI → descriptor lookup.
//!
//! KathDB stores media by "a file path to the image stored on disk" (§1);
//! the relational views carry URIs and the execution engine resolves them
//! here when a function body needs the underlying content.
//!
//! Each collection sits behind one `Arc` and is copied on write, so cloning
//! a registry (the optimizer does it once per profiled candidate) copies no
//! descriptor.

use crate::{Document, Image, MediaError};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The two media collections of a registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MediaKind {
    /// Poster images.
    Images,
    /// Text documents (plots).
    Documents,
}

/// Source of collection stamps. Process-wide, so one stamp never names two
/// different contents, even across registries.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

fn fresh_stamp() -> u64 {
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed) // lint: relaxed-ok — only the uniqueness of the value matters; no memory is published under it
}

/// One collection: its entries in URI order and the identity of its
/// contents.
#[derive(Debug, Clone)]
struct Collection<T> {
    items: Arc<BTreeMap<String, T>>,
    /// 0 for the empty collection a registry starts with; every mutation
    /// takes a fresh value. A clone keeps the stamp: same contents.
    stamp: u64,
}

impl<T> Default for Collection<T> {
    fn default() -> Self {
        Self {
            items: Arc::default(),
            stamp: 0,
        }
    }
}

impl<T: Clone + PartialEq> Collection<T> {
    /// Whether `other` holds equal entries: by stamp or shared storage
    /// first, then entry by entry.
    fn same_items(&self, other: &Self) -> bool {
        self.stamp == other.stamp
            || Arc::ptr_eq(&self.items, &other.items)
            || self.items == other.items
    }

    fn items_mut(&mut self) -> &mut BTreeMap<String, T> {
        self.stamp = fresh_stamp();
        Arc::make_mut(&mut self.items)
    }

    fn get(&self, uri: &str) -> Result<&T, MediaError> {
        self.items
            .get(uri)
            .ok_or_else(|| MediaError::NotFound(uri.to_string()))
    }

    /// Drops the entries `keep` refuses. Copies the kept ones only, never
    /// the collection it shares with a clone.
    fn retain(&mut self, keep: impl Fn(&T) -> bool) {
        let kept = self.items.iter().filter(|(_, item)| keep(item));
        let kept = kept.map(|(uri, item)| (uri.clone(), item.clone()));
        self.items = Arc::new(kept.collect());
        self.stamp = fresh_stamp();
    }
}

/// In-memory registry of all media known to a KathDB instance.
#[derive(Debug, Clone, Default)]
pub struct MediaRegistry {
    images: Collection<Image>,
    documents: Collection<Document>,
}

impl MediaRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an image under its URI (replaces any previous entry —
    /// the repair loop re-registers converted images).
    pub fn add_image(&mut self, image: Image) {
        self.images.items_mut().insert(image.uri.clone(), image);
    }

    /// Registers a document under its URI.
    pub fn add_document(&mut self, doc: Document) {
        self.documents.items_mut().insert(doc.uri.clone(), doc);
    }

    /// Removes an image by URI (e.g. after converting it to a new format).
    pub fn remove_image(&mut self, uri: &str) -> Option<Image> {
        self.images.items_mut().remove(uri)
    }

    /// The identity of one collection's current contents: equal stamps mean
    /// the same entries, and every add or remove takes a stamp no
    /// collection has had before. What an execution record compares to
    /// decide whether a media-reading node has to run again.
    pub fn stamp(&self, kind: MediaKind) -> u64 {
        match kind {
            MediaKind::Images => self.images.stamp,
            MediaKind::Documents => self.documents.stamp,
        }
    }

    /// Whether one collection of `other` holds the same entries as this
    /// registry's, compared by value: a collection narrowed or repaired
    /// into equal entries is the same, whatever its stamp. What the
    /// optimizer compares before reusing views it populated on sampled
    /// media.
    pub fn same_contents(&self, other: &MediaRegistry, kind: MediaKind) -> bool {
        match kind {
            MediaKind::Images => self.images.same_items(&other.images),
            MediaKind::Documents => self.documents.same_items(&other.documents),
        }
    }

    /// Takes `from`'s `kind` collection, shared and with its stamp, in
    /// place of this registry's.
    pub fn share(&mut self, from: &MediaRegistry, kind: MediaKind) {
        match kind {
            MediaKind::Images => self.images = from.images.clone(),
            MediaKind::Documents => self.documents = from.documents.clone(),
        }
    }

    /// Looks up an image.
    pub fn image(&self, uri: &str) -> Result<&Image, MediaError> {
        self.images.get(uri)
    }

    /// Looks up a document.
    pub fn document(&self, uri: &str) -> Result<&Document, MediaError> {
        self.documents.get(uri)
    }

    /// All images, in URI order for deterministic iteration.
    pub fn images(&self) -> Vec<&Image> {
        self.images.items.values().collect()
    }

    /// All documents, in URI order.
    pub fn documents(&self) -> Vec<&Document> {
        self.documents.items.values().collect()
    }

    /// Keeps only the images `keep` accepts (a profiling context samples
    /// its media the way it samples its tables).
    pub fn retain_images(&mut self, keep: impl Fn(&Image) -> bool) {
        self.images.retain(keep);
    }

    /// Keeps only the documents `keep` accepts.
    pub fn retain_documents(&mut self, keep: impl Fn(&Document) -> bool) {
        self.documents.retain(keep);
    }

    /// Counts: (images, documents).
    pub fn counts(&self) -> (usize, usize) {
        (self.images.items.len(), self.documents.items.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MediaFormat;

    #[test]
    fn register_and_lookup() {
        let mut r = MediaRegistry::new();
        r.add_image(Image::new("file://p/1.png", MediaFormat::Png));
        r.add_document(Document::new("doc://1", "text"));
        assert!(r.image("file://p/1.png").is_ok());
        assert!(r.document("doc://1").is_ok());
        assert!(matches!(r.image("nope"), Err(MediaError::NotFound(_))));
        assert_eq!(r.counts(), (1, 1));
    }

    #[test]
    fn re_registration_replaces() {
        let mut r = MediaRegistry::new();
        r.add_image(Image::new("u", MediaFormat::Heic));
        r.add_image(Image::new("u", MediaFormat::Png));
        assert_eq!(r.image("u").unwrap().format, MediaFormat::Png);
        assert_eq!(r.counts().0, 1);
    }

    #[test]
    fn iteration_is_sorted() {
        let mut r = MediaRegistry::new();
        r.add_image(Image::new("b", MediaFormat::Png));
        r.add_image(Image::new("a", MediaFormat::Png));
        let uris: Vec<&str> = r.images().iter().map(|i| i.uri.as_str()).collect();
        assert_eq!(uris, vec!["a", "b"]);
    }

    #[test]
    fn clones_share_entries_until_one_side_writes() {
        let mut a = MediaRegistry::new();
        a.add_image(Image::new("a", MediaFormat::Png));
        let mut b = a.clone();
        assert!(std::ptr::eq(a.image("a").unwrap(), b.image("a").unwrap()));
        b.add_image(Image::new("b", MediaFormat::Png));
        assert_eq!((a.counts().0, b.counts().0), (1, 2));
        assert!(a.image("b").is_err());
    }

    #[test]
    fn stamps_follow_contents_per_collection() {
        let mut r = MediaRegistry::new();
        assert_eq!(
            r.stamp(MediaKind::Images),
            MediaRegistry::new().stamp(MediaKind::Images)
        );
        r.add_image(Image::new("a", MediaFormat::Heic));
        r.add_document(Document::new("d", "text"));
        let (images, documents) = (r.stamp(MediaKind::Images), r.stamp(MediaKind::Documents));
        assert_eq!(r.clone().stamp(MediaKind::Images), images);
        // Replacing an image (the HEIC repair) leaves the documents alone.
        r.remove_image("a");
        r.add_image(Image::new("a", MediaFormat::Png));
        assert_ne!(r.stamp(MediaKind::Images), images);
        assert_eq!(r.stamp(MediaKind::Documents), documents);
        // Equal contents reached by different registries are still distinct.
        let mut other = MediaRegistry::new();
        other.add_document(Document::new("d", "text"));
        assert_ne!(other.stamp(MediaKind::Documents), documents);
        // ... yet hold the same contents, which is what a value check sees.
        assert!(other.same_contents(&r, MediaKind::Documents));
        assert!(!other.same_contents(&r, MediaKind::Images));
        let mut narrowed = r.clone();
        narrowed.retain_images(|_| true);
        assert!(narrowed.same_contents(&r, MediaKind::Images));
        narrowed.add_image(Image::new("a", MediaFormat::Heic));
        assert!(!narrowed.same_contents(&r, MediaKind::Images));
        // Sharing one collection takes its stamp and leaves the other.
        other.share(&narrowed, MediaKind::Images);
        assert_eq!(
            other.stamp(MediaKind::Images),
            narrowed.stamp(MediaKind::Images)
        );
        assert_ne!(other.stamp(MediaKind::Documents), documents);
    }
}
