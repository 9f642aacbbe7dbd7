//! A self-contained JSON layer for KathDB.
//!
//! The KathDB paper requires every logical-plan node to be emitted in an
//! *exact JSON layout* "so the downstream parser can ingest it without any
//! post-processing" (§4, Fig. 3). Function bodies and version registries are
//! also persisted to disk as JSON. This crate provides the value model,
//! a strict parser, and compact/pretty writers used across the workspace.
//!
//! Object keys preserve **insertion order**, which matters because the
//! paper's "exact layout" fixes the key order of emitted plan nodes.

mod parse;
mod write;

pub use parse::{parse, ParseError};
pub use write::{to_string, to_string_pretty};

use std::fmt;

/// A JSON value.
///
/// Numbers are stored as `f64` (ints round-trip exactly up to 2^53, which is
/// far beyond any identifier KathDB allocates).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A JSON string.
    Str(String),
    /// A JSON array.
    Array(Vec<Json>),
    /// A JSON object with insertion-ordered keys.
    Object(JsonMap),
}

/// An insertion-ordered string → [`Json`] map.
///
/// A `Vec` of pairs is deliberate: plan-node objects have <10 keys, and the
/// paper's exact-layout requirement makes ordering semantically relevant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JsonMap {
    entries: Vec<(String, Json)>,
}

impl JsonMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a key, replacing in place if it already exists (keeps order).
    pub fn insert(&mut self, key: impl Into<String>, value: Json) {
        let key = key.into();
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.entries.push((key, value));
        }
    }

    /// Looks up a key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Removes a key, returning its value.
    pub fn remove(&mut self, key: &str) -> Option<Json> {
        let idx = self.entries.iter().position(|(k, _)| k == key)?;
        Some(self.entries.remove(idx).1)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Json)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_str())
    }

    /// Whether a key is present.
    pub fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }
}

impl FromIterator<(String, Json)> for JsonMap {
    fn from_iter<T: IntoIterator<Item = (String, Json)>>(iter: T) -> Self {
        let mut map = JsonMap::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

impl Json {
    /// Convenience constructor for an object built from `(key, value)` pairs.
    pub fn object(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor for an array of strings.
    pub fn str_array<S: Into<String>>(items: impl IntoIterator<Item = S>) -> Json {
        Json::Array(items.into_iter().map(|s| Json::Str(s.into())).collect())
    }

    /// Returns the string payload if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the numeric payload if this is a `Num`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Returns the value as an `i64` if it is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 9.0e15 => Some(*n as i64),
            _ => None,
        }
    }

    /// Returns the boolean payload if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the array payload if this is an `Array`.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Returns the object payload if this is an `Object`.
    pub fn as_object(&self) -> Option<&JsonMap> {
        match self {
            Json::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Whether this value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Object-field access: `value.get("name")`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object().and_then(|m| m.get(key))
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&to_string(self))
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Self {
        Json::Num(n)
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Self {
        Json::Num(n as f64)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::Num(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<Vec<Json>> for Json {
    fn from(a: Vec<Json>) -> Self {
        Json::Array(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_insertion_order() {
        let mut m = JsonMap::new();
        m.insert("z", Json::from(1i64));
        m.insert("a", Json::from(2i64));
        m.insert("m", Json::from(3i64));
        let keys: Vec<_> = m.keys().collect();
        assert_eq!(keys, vec!["z", "a", "m"]);
    }

    #[test]
    fn map_insert_replaces_in_place() {
        let mut m = JsonMap::new();
        m.insert("a", Json::from(1i64));
        m.insert("b", Json::from(2i64));
        m.insert("a", Json::from(9i64));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get("a").unwrap().as_i64(), Some(9));
        assert_eq!(m.keys().next(), Some("a"));
    }

    #[test]
    fn as_i64_rejects_fractions() {
        assert_eq!(Json::Num(3.5).as_i64(), None);
        assert_eq!(Json::Num(-7.0).as_i64(), Some(-7));
    }
}
