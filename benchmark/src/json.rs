//! Dynamic JSON over the vendored `serde::Content` tree. The metric maps
//! are keyed by metric name, which the shim's derives cannot express, so
//! documents are built and read as trees.

use serde::{Content, DeError, Deserialize, Serialize};

/// A parsed JSON document (any `Content` tree deserializes as itself).
struct Doc(Content);

impl Deserialize for Doc {
    fn deserialize(c: &Content) -> Result<Self, DeError> {
        Ok(Doc(c.clone()))
    }
}

pub fn obj<K: Into<String>>(entries: impl IntoIterator<Item = (K, Content)>) -> Content {
    Content::Map(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn s(v: impl Into<String>) -> Content {
    Content::Str(v.into())
}

pub fn get<'a>(c: &'a Content, key: &str) -> Option<&'a Content> {
    c.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

pub fn as_f64(c: &Content) -> Option<f64> {
    match c {
        Content::F64(v) => Some(*v),
        Content::U64(v) => Some(*v as f64),
        Content::I64(v) => Some(*v as f64),
        _ => None,
    }
}

/// Borrowed view of a tree for writing (the shim's `serialize` returns an
/// owned tree, so this costs the one clone it cannot avoid).
struct Borrowed<'a>(&'a Content);

impl Serialize for Borrowed<'_> {
    fn serialize(&self) -> Content {
        self.0.clone()
    }
}

pub fn compact(c: &Content) -> String {
    serde_json::to_string(&Borrowed(c)).expect("a Content tree always serializes")
}

pub fn pretty(c: &Content) -> String {
    serde_json::to_string_pretty(&Borrowed(c)).expect("a Content tree always serializes")
}

/// Reads and parses a JSON file; errors name the file.
pub fn parse_file(path: &std::path::Path) -> Result<Content, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn parse(text: &str) -> Result<Content, String> {
    serde_json::from_str::<Doc>(text)
        .map(|d| d.0)
        .map_err(|e| e.to_string())
}
