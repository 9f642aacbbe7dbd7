//! Scene-graph views over images and videos (Table 1 of the paper).
//!
//! Visual content is represented as "objects interacting in space and time"
//! (§3, after EQUI-VOCAL): four relations — `Objects`, `Relationships`,
//! `Attributes`, `Frames` — with images treated as single-frame videos.

use kath_media::{Image, Video};
use kath_model::{Detection, SimVlm};
use kath_storage::{DataType, Schema, StorageError, Table, Value};

/// The exact `Objects` schema of Table 1:
/// `Objects(vid, fid, oid, lid, cid, x_1, y_1, x_2, y_2)`.
pub fn objects_schema() -> Schema {
    Schema::of(&[
        ("vid", DataType::Int),
        ("fid", DataType::Int),
        ("oid", DataType::Int),
        ("lid", DataType::Int),
        ("cid", DataType::Str),
        ("x_1", DataType::Float),
        ("y_1", DataType::Float),
        ("x_2", DataType::Float),
        ("y_2", DataType::Float),
    ])
}

/// `Relationships(vid, fid, rid, lid, oid_i, pid, oid_j)` (Table 1).
pub fn relationships_schema() -> Schema {
    Schema::of(&[
        ("vid", DataType::Int),
        ("fid", DataType::Int),
        ("rid", DataType::Int),
        ("lid", DataType::Int),
        ("oid_i", DataType::Int),
        ("pid", DataType::Str),
        ("oid_j", DataType::Int),
    ])
}

/// `Attributes(vid, fid, oid, lid, k, v)` (Table 1).
pub fn attributes_schema() -> Schema {
    Schema::of(&[
        ("vid", DataType::Int),
        ("fid", DataType::Int),
        ("oid", DataType::Int),
        ("lid", DataType::Int),
        ("k", DataType::Str),
        ("v", DataType::Str),
    ])
}

/// `Frames(vid, fid, lid, pixels)` (Table 1). Pixels are represented by the
/// source URI of the frame descriptor (the paper itself stores "a file path
/// to the image stored on disk", §1).
pub fn frames_schema() -> Schema {
    Schema::of(&[
        ("vid", DataType::Int),
        ("fid", DataType::Int),
        ("lid", DataType::Int),
        ("pixels", DataType::Str),
    ])
}

/// The four materialized scene-graph views.
#[derive(Debug, Clone)]
pub struct SceneGraphViews {
    /// Detected objects.
    pub objects: Table,
    /// Object–object relationships.
    pub relationships: Table,
    /// Object attributes.
    pub attributes: Table,
    /// Frame registry.
    pub frames: Table,
}

impl SceneGraphViews {
    /// Empty views with the canonical names and schemas.
    pub fn empty() -> Self {
        Self {
            objects: Table::new("scene_objects", objects_schema()),
            relationships: Table::new("scene_relationships", relationships_schema()),
            attributes: Table::new("scene_attributes", attributes_schema()),
            frames: Table::new("scene_frames", frames_schema()),
        }
    }
}

/// Populates scene-graph views for one image (`vid` identifies it; images
/// are single-frame videos with `fid = 0`). Detection runs through the
/// provided vision model; `next_lid` allocates lineage ids.
///
/// Fails (without partial writes) when the image's format is unsupported —
/// the execution monitor catches this and repairs (§5).
pub fn populate_image(
    views: &mut SceneGraphViews,
    vid: i64,
    image: &Image,
    vlm: &SimVlm,
    next_lid: &mut impl FnMut() -> i64,
) -> Result<usize, SceneGraphError> {
    populate_frame(views, vid, 0, image, vlm, next_lid)
}

/// Populates scene-graph views for a whole video, one frame at a time.
/// Objects sharing a `track_id` keep the same `oid` across frames (§3).
pub fn populate_video(
    views: &mut SceneGraphViews,
    vid: i64,
    video: &Video,
    vlm: &SimVlm,
    next_lid: &mut impl FnMut() -> i64,
) -> Result<usize, SceneGraphError> {
    let mut total = 0;
    for (fid, frame) in video.frames.iter().enumerate() {
        total += populate_frame(views, vid, fid as i64, frame, vlm, next_lid)?;
    }
    Ok(total)
}

/// Errors from scene-graph population.
#[derive(Debug, Clone, PartialEq)]
pub enum SceneGraphError {
    /// Media decode/analysis failed (e.g. unsupported format).
    Media(kath_media::MediaError),
    /// The storage layer rejected a row.
    Storage(StorageError),
}

impl std::fmt::Display for SceneGraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SceneGraphError::Media(e) => write!(f, "{e}"),
            SceneGraphError::Storage(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SceneGraphError {}

impl From<kath_media::MediaError> for SceneGraphError {
    fn from(e: kath_media::MediaError) -> Self {
        SceneGraphError::Media(e)
    }
}

impl From<StorageError> for SceneGraphError {
    fn from(e: StorageError) -> Self {
        SceneGraphError::Storage(e)
    }
}

fn populate_frame(
    views: &mut SceneGraphViews,
    vid: i64,
    fid: i64,
    image: &Image,
    vlm: &SimVlm,
    next_lid: &mut impl FnMut() -> i64,
) -> Result<usize, SceneGraphError> {
    let detections = vlm.detect(image)?;
    Ok(emit_frame(views, vid, fid, image, &detections, next_lid)?)
}

/// Writes what a vision model detected in frame `fid` of `vid` into the
/// views — the half of population that follows the model call
/// (`SimVlm::detect`), so frames can be detected in any order (or on several
/// workers) and emitted one by one: the frame row, each object with its
/// attributes, then the relationships. `next_lid` allocates one lineage id
/// per view row, in that order. Returns the detection count.
pub fn emit_frame(
    views: &mut SceneGraphViews,
    vid: i64,
    fid: i64,
    image: &Image,
    detections: &[Detection],
    next_lid: &mut impl FnMut() -> i64,
) -> Result<usize, StorageError> {
    views.frames.push(vec![
        Value::Int(vid),
        Value::Int(fid),
        Value::Int(next_lid()),
        Value::Str(image.uri.clone()),
    ])?;

    // Map from descriptor-object index → assigned oid, for relationships.
    // Track ids (videos) take priority so the same physical object keeps
    // one oid across frames; untracked objects get per-frame sequential ids
    // offset past the track range.
    let mut oid_of_index: Vec<Option<i64>> = vec![None; image.objects.len()];
    let mut next_seq = 10_000i64 + fid * 1_000;
    for det in detections {
        // Find the descriptor index this detection came from (first
        // unclaimed object with the same class and box).
        let idx = image.objects.iter().enumerate().position(|(i, o)| {
            oid_of_index[i].is_none() && o.class == det.class && o.bbox == det.bbox
        });
        let Some(idx) = idx else { continue };
        let oid = match det.track_id {
            Some(t) => t as i64,
            None => {
                next_seq += 1;
                next_seq
            }
        };
        oid_of_index[idx] = Some(oid);
        views.objects.push(vec![
            Value::Int(vid),
            Value::Int(fid),
            Value::Int(oid),
            Value::Int(next_lid()),
            Value::Str(det.class.clone()),
            Value::Float(det.bbox.x1),
            Value::Float(det.bbox.y1),
            Value::Float(det.bbox.x2),
            Value::Float(det.bbox.y2),
        ])?;
        for (k, v) in &det.attributes {
            views.attributes.push(vec![
                Value::Int(vid),
                Value::Int(fid),
                Value::Int(oid),
                Value::Int(next_lid()),
                Value::Str(k.clone()),
                Value::Str(v.clone()),
            ])?;
        }
    }

    // Relationships: only between objects that were both detected.
    let mut rid = 0i64;
    for (si, pred, oi) in &image.relationships {
        if let (Some(Some(a)), Some(Some(b))) = (oid_of_index.get(*si), oid_of_index.get(*oi)) {
            views.relationships.push(vec![
                Value::Int(vid),
                Value::Int(fid),
                Value::Int(rid),
                Value::Int(next_lid()),
                Value::Int(*a),
                Value::Str(pred.clone()),
                Value::Int(*b),
            ])?;
            rid += 1;
        }
    }

    Ok(detections.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kath_media::{BBox, ImageObject, MediaFormat};
    use kath_model::TokenMeter;

    fn vlm() -> SimVlm {
        SimVlm::accurate(7, TokenMeter::new())
    }

    fn lid_counter() -> (impl FnMut() -> i64, std::rc::Rc<std::cell::Cell<i64>>) {
        let c = std::rc::Rc::new(std::cell::Cell::new(0i64));
        let c2 = std::rc::Rc::clone(&c);
        (
            move || {
                c2.set(c2.get() + 1);
                c2.get()
            },
            c,
        )
    }

    fn poster() -> Image {
        Image::new("file://posters/1.png", MediaFormat::Png)
            .with_object(ImageObject::new("person", BBox::new(0.1, 0.1, 0.5, 0.9)))
            .with_object(
                ImageObject::new("gun", BBox::new(0.45, 0.4, 0.6, 0.6)).with_attr("color", "black"),
            )
            .with_rel(0, "holds", 1)
    }

    #[test]
    fn schemas_match_table1_exactly() {
        assert_eq!(
            objects_schema().names(),
            vec!["vid", "fid", "oid", "lid", "cid", "x_1", "y_1", "x_2", "y_2"]
        );
        assert_eq!(
            relationships_schema().names(),
            vec!["vid", "fid", "rid", "lid", "oid_i", "pid", "oid_j"]
        );
        assert_eq!(
            attributes_schema().names(),
            vec!["vid", "fid", "oid", "lid", "k", "v"]
        );
        assert_eq!(frames_schema().names(), vec!["vid", "fid", "lid", "pixels"]);
    }

    #[test]
    fn image_population_fills_all_views() {
        let mut views = SceneGraphViews::empty();
        let (mut lid, counter) = lid_counter();
        let n = populate_image(&mut views, 9, &poster(), &vlm(), &mut lid).unwrap();
        assert_eq!(n, 2);
        assert_eq!(views.objects.len(), 2);
        assert_eq!(views.frames.len(), 1);
        assert_eq!(views.attributes.len(), 1);
        assert_eq!(views.relationships.len(), 1);
        // Every row consumed a fresh lid.
        assert_eq!(counter.get() as usize, 1 + 2 + 1 + 1);
        // Images are single-frame videos: fid = 0.
        assert_eq!(views.objects.cell(0, "fid").unwrap(), &Value::Int(0));
        assert_eq!(views.objects.cell(0, "vid").unwrap(), &Value::Int(9));
    }

    #[test]
    fn relationship_links_detected_oids() {
        let mut views = SceneGraphViews::empty();
        let (mut lid, _) = lid_counter();
        populate_image(&mut views, 1, &poster(), &vlm(), &mut lid).unwrap();
        let rel = views.relationships.row(0).unwrap().clone();
        let oid_i = rel[4].as_int().unwrap();
        let oid_j = rel[6].as_int().unwrap();
        let oids: Vec<i64> = views
            .objects
            .rows()
            .iter()
            .map(|r| r[2].as_int().unwrap())
            .collect();
        assert!(oids.contains(&oid_i));
        assert!(oids.contains(&oid_j));
        assert_eq!(rel[5].as_str(), Some("holds"));
    }

    #[test]
    fn unsupported_format_fails_population() {
        let mut views = SceneGraphViews::empty();
        let (mut lid, _) = lid_counter();
        let heic = poster().convert_to(MediaFormat::Heic);
        let err = populate_image(&mut views, 1, &heic, &vlm(), &mut lid);
        assert!(matches!(err, Err(SceneGraphError::Media(_))));
        assert!(views.frames.is_empty());
    }

    #[test]
    fn video_tracks_share_oid_across_frames() {
        let mut obj = ImageObject::new("person", BBox::new(0.1, 0.1, 0.4, 0.4));
        obj.track_id = Some(77);
        let video = Video::new("vid://1")
            .with_frame(Image::new("f0.png", MediaFormat::Png).with_object(obj.clone()))
            .with_frame(Image::new("f1.png", MediaFormat::Png).with_object(obj));
        let mut views = SceneGraphViews::empty();
        let (mut lid, _) = lid_counter();
        populate_video(&mut views, 5, &video, &vlm(), &mut lid).unwrap();
        assert_eq!(views.objects.len(), 2);
        assert_eq!(views.frames.len(), 2);
        for r in views.objects.rows() {
            assert_eq!(r[2], Value::Int(77)); // same oid both frames
        }
        // Distinct fids.
        assert_ne!(views.objects.rows()[0][1], views.objects.rows()[1][1]);
    }

    #[test]
    fn noisy_vlm_drops_relationships_of_missed_objects() {
        // recall 0 → nothing detected → no objects, no relationships, but the
        // frame row is still registered.
        let vlm = SimVlm::with_recall(0.0, 10, 1, TokenMeter::new());
        let mut views = SceneGraphViews::empty();
        let (mut lid, _) = lid_counter();
        let n = populate_image(&mut views, 1, &poster(), &vlm, &mut lid).unwrap();
        assert_eq!(n, 0);
        assert_eq!(views.objects.len(), 0);
        assert_eq!(views.relationships.len(), 0);
        assert_eq!(views.frames.len(), 1);
    }
}
