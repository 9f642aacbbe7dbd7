//! Media types for KathDB.
//!
//! The paper's prototype stores posters as "pixel values or, more commonly, a
//! file path to the image stored on disk" (§1) and analyzes them with VLMs
//! and OpenCV. Per the reproduction rules (DESIGN.md §1), this crate replaces
//! raster images with *structured descriptors*: an [`Image`] carries the
//! objects, palette, and layout a vision model would extract. Everything the
//! relational scene-graph layer consumes — detections, attributes, bounding
//! boxes — is derivable from these descriptors, including the failure modes
//! (unsupported formats like HEIC) that drive the execution monitor's repair
//! loop (§5).

#![warn(missing_docs)]

mod doc;
mod image;
mod registry;
mod video;

pub use doc::{split_sentences, Document};
pub use image::{BBox, Color, Image, ImageObject};
pub use registry::{MediaKind, MediaRegistry};
pub use video::Video;

use std::fmt;

/// On-disk media container formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MediaFormat {
    /// PNG — supported.
    Png,
    /// JPEG — supported.
    Jpeg,
    /// WEBP — supported.
    Webp,
    /// HEIC — **unsupported** by the simulated cv2 pipeline; triggers the
    /// on-the-fly repair loop exactly as in the paper's example (§5).
    Heic,
    /// TIFF — unsupported.
    Tiff,
}

impl MediaFormat {
    /// Whether the baseline decode path supports this format.
    pub fn is_supported(&self) -> bool {
        matches!(
            self,
            MediaFormat::Png | MediaFormat::Jpeg | MediaFormat::Webp
        )
    }

    /// Canonical file extension.
    pub fn extension(&self) -> &'static str {
        match self {
            MediaFormat::Png => "png",
            MediaFormat::Jpeg => "jpg",
            MediaFormat::Webp => "webp",
            MediaFormat::Heic => "heic",
            MediaFormat::Tiff => "tiff",
        }
    }

    /// Parses from a file extension.
    pub fn from_extension(ext: &str) -> Option<MediaFormat> {
        Some(match ext.to_ascii_lowercase().as_str() {
            "png" => MediaFormat::Png,
            "jpg" | "jpeg" => MediaFormat::Jpeg,
            "webp" => MediaFormat::Webp,
            "heic" => MediaFormat::Heic,
            "tif" | "tiff" => MediaFormat::Tiff,
            _ => return None,
        })
    }
}

impl fmt::Display for MediaFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.extension())
    }
}

/// Errors when handling media.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MediaError {
    /// The decode path does not support the container format (the paper's
    /// HEIC example, §5).
    UnsupportedFormat(MediaFormat),
    /// The referenced media does not exist.
    NotFound(String),
    /// The descriptor is internally inconsistent.
    Malformed(String),
}

impl fmt::Display for MediaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MediaError::UnsupportedFormat(m) => {
                write!(f, "unsupported file format: {}", m.extension())
            }
            MediaError::NotFound(uri) => write!(f, "media not found: {uri}"),
            MediaError::Malformed(m) => write!(f, "malformed media descriptor: {m}"),
        }
    }
}

impl std::error::Error for MediaError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_support_matrix() {
        assert!(MediaFormat::Png.is_supported());
        assert!(MediaFormat::Jpeg.is_supported());
        assert!(!MediaFormat::Heic.is_supported());
        assert!(!MediaFormat::Tiff.is_supported());
    }

    #[test]
    fn extension_round_trip() {
        for f in [
            MediaFormat::Png,
            MediaFormat::Jpeg,
            MediaFormat::Webp,
            MediaFormat::Heic,
            MediaFormat::Tiff,
        ] {
            assert_eq!(MediaFormat::from_extension(f.extension()), Some(f));
        }
        assert_eq!(MediaFormat::from_extension("JPEG"), Some(MediaFormat::Jpeg));
        assert_eq!(MediaFormat::from_extension("gif"), None);
    }

    #[test]
    fn error_messages_name_the_format() {
        let e = MediaError::UnsupportedFormat(MediaFormat::Heic);
        assert!(e.to_string().contains("heic"));
    }
}
