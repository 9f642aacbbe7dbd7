//! The function registry: versioned FAO implementations, persisted to disk.
//!
//! "Each function is stamped with a monotonically increasing `ver_id`.
//! Whenever the optimizer generates a new implementation, KathDB increments
//! the version ID, leaving earlier versions intact" (§4). Versions enable
//! precise lineage queries, safe roll-backs, and iterative refinement (§5).

use crate::{CompileRecords, FunctionBody, FunctionSignature};
use kath_json::{parse, to_string_pretty, Json};
use kath_lineage::DependencyPattern;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Profiling statistics attached to one implementation (§1: "cost and
/// accuracy statistics to individual FAO implementations").
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfileStats {
    /// Wall-clock runtime on the profiling sample, milliseconds.
    pub runtime_ms: f64,
    /// Simulated tokens consumed on the sample.
    pub tokens: u64,
    /// Input rows profiled.
    pub rows_in: usize,
    /// Output rows produced.
    pub rows_out: usize,
    /// Estimated accuracy in `[0,1]` (from the critic or ground truth).
    pub accuracy: Option<f64>,
}

impl ProfileStats {
    /// Scalar cost used for implementation selection: token cost dominates
    /// (LLM invocation time dwarfs local compute, §4), runtime breaks ties.
    pub fn cost(&self) -> f64 {
        self.tokens as f64 + self.runtime_ms / 1000.0
    }
}

/// One concrete implementation of a function.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionVersion {
    /// Monotone version id (1-based).
    pub ver_id: u32,
    /// The structured body.
    pub body: FunctionBody,
    /// Why this version exists ("initial", "repair: …", "critic: …").
    pub note: String,
    /// Dependency pattern as classified at generation time (§3).
    pub dependency: DependencyPattern,
    /// Profiling results, if profiled.
    pub profile: Option<ProfileStats>,
}

impl FunctionVersion {
    /// An unprofiled version, its dependency pattern classified from the body.
    fn new(ver_id: u32, body: FunctionBody, note: String) -> Self {
        Self {
            ver_id,
            dependency: body.dependency_pattern(),
            body,
            note,
            profile: None,
        }
    }
}

/// A function: its signature plus all versions ever generated.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionEntry {
    /// The logical signature.
    pub signature: FunctionSignature,
    /// All versions, oldest first; never emptied (roll-back safety).
    pub versions: Vec<FunctionVersion>,
    /// The currently active version id.
    pub active: u32,
}

impl FunctionEntry {
    /// The active version.
    pub fn active_version(&self) -> &FunctionVersion {
        self.versions
            .iter()
            .find(|v| v.ver_id == self.active)
            .expect("active version must exist")
    }

    /// A version by id.
    pub fn version(&self, ver_id: u32) -> Option<&FunctionVersion> {
        self.versions.iter().find(|v| v.ver_id == ver_id)
    }

    /// Latest version id.
    pub fn latest(&self) -> u32 {
        self.versions.last().map(|v| v.ver_id).unwrap_or(0)
    }
}

/// Registry errors.
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryError {
    /// The function is not registered.
    UnknownFunction(String),
    /// The requested version does not exist.
    UnknownVersion(String, u32),
    /// Persistence failure.
    Io(String),
    /// Corrupt persisted registry.
    Corrupt(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownFunction(n) => write!(f, "unknown function '{n}'"),
            RegistryError::UnknownVersion(n, v) => {
                write!(f, "function '{n}' has no version {v}")
            }
            RegistryError::Io(m) => write!(f, "registry io error: {m}"),
            RegistryError::Corrupt(m) => write!(f, "corrupt registry: {m}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// The registry of all functions of a KathDB instance.
#[derive(Debug, Clone, Default)]
pub struct FunctionRegistry {
    functions: BTreeMap<String, FunctionEntry>,
    /// What the optimizer decided for each function on its last profiling
    /// sample. In memory only.
    compiled: CompileRecords,
}

/// Two registries are equal when they hold the same functions: what one
/// remembers of compiling them is not part of them.
impl PartialEq for FunctionRegistry {
    fn eq(&self, other: &Self) -> bool {
        self.functions == other.functions
    }
}

impl FunctionRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a signature with its first implementation; returns ver 1.
    /// Re-registering a name activates the version whose body is
    /// structurally equal, if there is one — `ver_id` only moves for a *new*
    /// implementation (§4), so asking the same question again leaves the
    /// registry as it was — and adds a new version otherwise. The stored
    /// signature follows the inputs of the latest registration.
    pub fn register(
        &mut self,
        signature: FunctionSignature,
        body: FunctionBody,
        note: impl Into<String>,
    ) -> u32 {
        let Some(entry) = self.functions.get_mut(&signature.name) else {
            self.functions.insert(
                signature.name.clone(),
                FunctionEntry {
                    signature,
                    versions: vec![FunctionVersion::new(1, body, note.into())],
                    active: 1,
                },
            );
            return 1;
        };
        if entry.signature.inputs != signature.inputs {
            entry.signature = signature;
        }
        entry.active = match entry.versions.iter().find(|v| v.body == body) {
            Some(existing) => existing.ver_id,
            None => {
                let ver_id = entry.latest() + 1;
                entry
                    .versions
                    .push(FunctionVersion::new(ver_id, body, note.into()));
                ver_id
            }
        };
        entry.active
    }

    /// Adds a new version for an existing function (repair/alternative);
    /// the new version becomes active. Returns the new ver_id.
    pub fn add_version(
        &mut self,
        name: &str,
        body: FunctionBody,
        note: impl Into<String>,
    ) -> Result<u32, RegistryError> {
        let entry = self
            .functions
            .get_mut(name)
            .ok_or_else(|| RegistryError::UnknownFunction(name.to_string()))?;
        let ver_id = entry.latest() + 1;
        entry
            .versions
            .push(FunctionVersion::new(ver_id, body, note.into()));
        entry.active = ver_id;
        Ok(ver_id)
    }

    /// Rolls back to a prior version ("safe roll-backs", §4).
    pub fn rollback(&mut self, name: &str, ver_id: u32) -> Result<(), RegistryError> {
        let entry = self
            .functions
            .get_mut(name)
            .ok_or_else(|| RegistryError::UnknownFunction(name.to_string()))?;
        if entry.version(ver_id).is_none() {
            return Err(RegistryError::UnknownVersion(name.to_string(), ver_id));
        }
        entry.active = ver_id;
        Ok(())
    }

    /// Attaches profiling stats to a specific version.
    pub fn set_profile(
        &mut self,
        name: &str,
        ver_id: u32,
        profile: ProfileStats,
    ) -> Result<(), RegistryError> {
        let entry = self
            .functions
            .get_mut(name)
            .ok_or_else(|| RegistryError::UnknownFunction(name.to_string()))?;
        let v = entry
            .versions
            .iter_mut()
            .find(|v| v.ver_id == ver_id)
            .ok_or_else(|| RegistryError::UnknownVersion(name.to_string(), ver_id))?;
        v.profile = Some(profile);
        Ok(())
    }

    /// Looks up a function.
    pub fn get(&self, name: &str) -> Result<&FunctionEntry, RegistryError> {
        self.functions
            .get(name)
            .ok_or_else(|| RegistryError::UnknownFunction(name.to_string()))
    }

    /// Whether a function exists.
    pub fn contains(&self, name: &str) -> bool {
        self.functions.contains_key(name)
    }

    /// All function names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.functions.keys().map(String::as_str).collect()
    }

    /// Number of functions.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }

    /// The optimizer's compile records of these functions.
    pub fn compile_records(&self) -> &CompileRecords {
        &self.compiled
    }

    /// The compile records, for the optimizer to take and put back.
    pub fn compile_records_mut(&mut self) -> &mut CompileRecords {
        &mut self.compiled
    }

    /// Serializes the whole registry to pretty JSON.
    pub fn to_json(&self) -> Json {
        let funcs: Vec<Json> = self
            .functions
            .values()
            .map(|e| {
                let versions: Vec<Json> = e
                    .versions
                    .iter()
                    .map(|v| {
                        let mut pairs = vec![
                            ("ver_id", Json::from(v.ver_id as i64)),
                            ("body", v.body.to_json()),
                            ("note", Json::str(&v.note)),
                            ("dependency_pattern", Json::str(v.dependency.as_str())),
                        ];
                        if let Some(p) = &v.profile {
                            pairs.push((
                                "profile",
                                Json::object([
                                    ("runtime_ms", Json::Num(p.runtime_ms)),
                                    ("tokens", Json::from(p.tokens)),
                                    ("rows_in", Json::from(p.rows_in as u64)),
                                    ("rows_out", Json::from(p.rows_out as u64)),
                                    ("accuracy", p.accuracy.map(Json::Num).unwrap_or(Json::Null)),
                                ]),
                            ));
                        }
                        Json::object(pairs)
                    })
                    .collect();
                Json::object([
                    ("signature", e.signature.to_json()),
                    ("active", Json::from(e.active as i64)),
                    ("versions", Json::Array(versions)),
                ])
            })
            .collect();
        Json::object([("functions", Json::Array(funcs))])
    }

    /// Loads a registry from its JSON form.
    pub fn from_json(v: &Json) -> Result<Self, RegistryError> {
        let corrupt = |m: &str| RegistryError::Corrupt(m.to_string());
        let mut reg = FunctionRegistry::new();
        let funcs = v
            .get("functions")
            .and_then(Json::as_array)
            .ok_or_else(|| corrupt("missing 'functions'"))?;
        for f in funcs {
            let signature = FunctionSignature::from_json(
                f.get("signature")
                    .ok_or_else(|| corrupt("missing signature"))?,
            )
            .map_err(|e| corrupt(&e.to_string()))?;
            let active = f
                .get("active")
                .and_then(Json::as_i64)
                .ok_or_else(|| corrupt("missing active"))? as u32;
            let mut versions = Vec::new();
            for vj in f
                .get("versions")
                .and_then(Json::as_array)
                .ok_or_else(|| corrupt("missing versions"))?
            {
                let ver_id = vj
                    .get("ver_id")
                    .and_then(Json::as_i64)
                    .ok_or_else(|| corrupt("missing ver_id"))? as u32;
                let body =
                    FunctionBody::from_json(vj.get("body").ok_or_else(|| corrupt("missing body"))?)
                        .map_err(|e| corrupt(&e.to_string()))?;
                let note = vj
                    .get("note")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                let dependency = vj
                    .get("dependency_pattern")
                    .and_then(Json::as_str)
                    .and_then(DependencyPattern::parse)
                    .unwrap_or_else(|| body.dependency_pattern());
                let profile = vj.get("profile").and_then(|p| {
                    Some(ProfileStats {
                        runtime_ms: p.get("runtime_ms")?.as_f64()?,
                        tokens: p.get("tokens")?.as_i64()? as u64,
                        rows_in: p.get("rows_in")?.as_i64()? as usize,
                        rows_out: p.get("rows_out")?.as_i64()? as usize,
                        accuracy: p.get("accuracy").and_then(Json::as_f64),
                    })
                });
                versions.push(FunctionVersion {
                    ver_id,
                    body,
                    note,
                    dependency,
                    profile,
                });
            }
            if versions.is_empty() {
                return Err(corrupt("function with no versions"));
            }
            let name = signature.name.clone();
            reg.functions.insert(
                name,
                FunctionEntry {
                    signature,
                    versions,
                    active,
                },
            );
        }
        Ok(reg)
    }

    /// Persists the registry to a file ("these functions are persisted
    /// locally on disk", §1). The write is atomic — temp file in the same
    /// directory, fsync, rename — so a crash mid-save can never leave a
    /// truncated registry under the target name.
    pub fn save(&self, path: &Path) -> Result<(), RegistryError> {
        kath_storage::atomic_write(path, to_string_pretty(&self.to_json()).as_bytes())
            .map_err(|e| RegistryError::Io(e.to_string()))
    }

    /// Loads the registry from a file.
    pub fn load(path: &Path) -> Result<Self, RegistryError> {
        let text = std::fs::read_to_string(path).map_err(|e| RegistryError::Io(e.to_string()))?;
        let v = parse(&text).map_err(|e| RegistryError::Corrupt(e.to_string()))?;
        Self::from_json(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(name: &str) -> FunctionSignature {
        FunctionSignature::new(name, format!("does {name}"), vec!["in".into()], "out")
    }

    fn body(expr: &str) -> FunctionBody {
        FunctionBody::MapExpr {
            input: "in".into(),
            expr: expr.into(),
            output_column: "c".into(),
        }
    }

    #[test]
    fn version_ids_are_monotone_and_never_lost() {
        let mut reg = FunctionRegistry::new();
        assert_eq!(reg.register(sig("f"), body("1"), "initial"), 1);
        assert_eq!(reg.add_version("f", body("2"), "repair").unwrap(), 2);
        assert_eq!(reg.add_version("f", body("3"), "critic").unwrap(), 3);
        let entry = reg.get("f").unwrap();
        assert_eq!(entry.versions.len(), 3);
        assert_eq!(entry.active, 3);
        // Earlier versions remain intact.
        assert!(matches!(
            &entry.version(1).unwrap().body,
            FunctionBody::MapExpr { expr, .. } if expr == "1"
        ));
    }

    #[test]
    fn rollback_restores_prior_version() {
        let mut reg = FunctionRegistry::new();
        reg.register(sig("f"), body("1"), "initial");
        reg.add_version("f", body("2"), "bad repair").unwrap();
        reg.rollback("f", 1).unwrap();
        assert_eq!(reg.get("f").unwrap().active_version().ver_id, 1);
        assert!(matches!(
            reg.rollback("f", 9),
            Err(RegistryError::UnknownVersion(_, 9))
        ));
        assert!(reg.rollback("missing", 1).is_err());
    }

    #[test]
    fn re_register_adds_version() {
        let mut reg = FunctionRegistry::new();
        reg.register(sig("f"), body("1"), "initial");
        let v = reg.register(sig("f"), body("2"), "again");
        assert_eq!(v, 2);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn re_register_of_a_known_body_reactivates_its_version() {
        let mut reg = FunctionRegistry::new();
        reg.register(sig("f"), body("1"), "initial");
        reg.register(sig("f"), body("2"), "again");
        let before = reg.clone();
        // Same question asked again: nothing is minted, nothing changes.
        assert_eq!(reg.register(sig("f"), body("2"), "third time"), 2);
        assert_eq!(reg, before);
        // An earlier body comes back as the version it already is.
        assert_eq!(reg.register(sig("f"), body("1"), "back"), 1);
        let entry = reg.get("f").unwrap();
        assert_eq!((entry.active, entry.versions.len()), (1, 2));
        assert_eq!(entry.version(1).unwrap().note, "initial");
    }

    #[test]
    fn re_register_refreshes_a_signature_whose_inputs_moved() {
        let mut reg = FunctionRegistry::new();
        reg.register(sig("f"), body("1"), "initial");
        let rewired = FunctionSignature::new("f", "does f", vec!["a".into(), "b".into()], "out");
        reg.register(rewired.clone(), body("2"), "rewired");
        assert_eq!(reg.get("f").unwrap().signature, rewired);
    }

    #[test]
    fn profiles_attach_to_versions() {
        let mut reg = FunctionRegistry::new();
        reg.register(sig("f"), body("1"), "initial");
        let stats = ProfileStats {
            runtime_ms: 12.5,
            tokens: 300,
            rows_in: 10,
            rows_out: 10,
            accuracy: Some(0.9),
        };
        reg.set_profile("f", 1, stats.clone()).unwrap();
        assert_eq!(
            reg.get("f").unwrap().version(1).unwrap().profile,
            Some(stats)
        );
        assert!(reg.set_profile("f", 5, ProfileStats::default()).is_err());
    }

    #[test]
    fn cost_prefers_fewer_tokens() {
        let cheap = ProfileStats {
            tokens: 100,
            runtime_ms: 900.0,
            ..Default::default()
        };
        let pricey = ProfileStats {
            tokens: 1000,
            runtime_ms: 10.0,
            ..Default::default()
        };
        assert!(cheap.cost() < pricey.cost());
    }

    #[test]
    fn json_and_disk_round_trip() {
        let mut reg = FunctionRegistry::new();
        reg.register(
            FunctionSignature::new(
                "classify_boring",
                "Analyze visual features of each film's poster...",
                vec!["films_with_image_scene".into()],
                "films_with_boring_flag",
            ),
            FunctionBody::VisualClassify {
                input: "films_with_image_scene".into(),
                uri_column: "poster_uri".into(),
                output_column: "boring".into(),
                implementation: crate::VisionImpl::Cascade,
                threshold: 0.4,
                convert_unsupported: false,
            },
            "initial",
        );
        reg.add_version(
            "classify_boring",
            FunctionBody::VisualClassify {
                input: "films_with_image_scene".into(),
                uri_column: "poster_uri".into(),
                output_column: "boring".into(),
                implementation: crate::VisionImpl::Ocr,
                threshold: 0.4,
                convert_unsupported: false,
            },
            "cheaper alternative",
        )
        .unwrap();
        reg.set_profile(
            "classify_boring",
            1,
            ProfileStats {
                runtime_ms: 5.0,
                tokens: 1100,
                rows_in: 4,
                rows_out: 4,
                accuracy: Some(0.97),
            },
        )
        .unwrap();

        // In-memory JSON round trip.
        let back = FunctionRegistry::from_json(&reg.to_json()).unwrap();
        assert_eq!(back, reg);

        // Disk round trip.
        let dir = std::env::temp_dir().join("kathdb_registry_test");
        let path = dir.join("functions.json");
        reg.save(&path).unwrap();
        let loaded = FunctionRegistry::load(&path).unwrap();
        assert_eq!(loaded, reg);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn load_rejects_corruption() {
        let dir = std::env::temp_dir().join("kathdb_registry_corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, "{\"functions\": [{}]}").unwrap();
        assert!(matches!(
            FunctionRegistry::load(&path),
            Err(RegistryError::Corrupt(_))
        ));
        std::fs::write(&path, "not json").unwrap();
        assert!(FunctionRegistry::load(&path).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }
}
