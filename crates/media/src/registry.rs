//! The media registry: URI → descriptor lookup.
//!
//! KathDB stores media by "a file path to the image stored on disk" (§1);
//! the relational views carry URIs and the execution engine resolves them
//! here when a function body needs the underlying content.
//!
//! Each collection sits behind one `Arc` and is copied on write, so cloning
//! a registry (the optimizer does it once per profiled candidate) copies no
//! descriptor.

use crate::{Document, Image, MediaError, Video};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The three media collections of a registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MediaKind {
    /// Poster images.
    Images,
    /// Text documents (plots).
    Documents,
    /// Videos.
    Videos,
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

impl<T: Clone> Collection<T> {
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
    videos: Collection<Video>,
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
            MediaKind::Videos => self.videos.stamp,
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

    /// Looks up a video.
    pub fn video(&self, uri: &str) -> Result<&Video, MediaError> {
        self.videos.get(uri)
    }

    /// All images, in URI order for deterministic iteration.
    pub fn images(&self) -> Vec<&Image> {
        self.images.items.values().collect()
    }

    /// All documents, in URI order.
    pub fn documents(&self) -> Vec<&Document> {
        self.documents.items.values().collect()
    }

    /// All videos, in URI order.
    pub fn videos(&self) -> Vec<&Video> {
        self.videos.items.values().collect()
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

    /// Counts: (images, documents, videos).
    pub fn counts(&self) -> (usize, usize, usize) {
        (
            self.images.items.len(),
            self.documents.items.len(),
            self.videos.items.len(),
        )
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
        assert_eq!(r.counts(), (1, 1, 0));
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
    }
}
