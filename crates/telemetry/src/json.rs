//! A minimal hand-rolled JSON value type and serializer.
//!
//! The workspace builds offline with zero external dependencies, so the
//! machine-readable benchmark output (`fig* --json`) serializes through
//! this module instead of serde. Only what the telemetry snapshots need:
//! objects, arrays, strings (with full escaping), integers, floats and
//! booleans. Object keys keep insertion order — callers insert in sorted
//! order when determinism matters (the snapshot code does). Nothing in
//! the workspace reads JSON back, so there is no parser.

use std::fmt;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer, emitted without a decimal point.
    Int(i64),
    /// An unsigned integer (storage and byte counters exceed `i64` range
    /// only in theory, but keep the type honest).
    UInt(u64),
    /// A float, emitted via Rust's shortest-round-trip formatting;
    /// non-finite values become `null` (JSON has no NaN/Inf).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj<I, K>(pairs: I) -> Json
    where
        I: IntoIterator<Item = (K, Json)>,
        K: Into<String>,
    {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Float(f) => {
                if f.is_finite() {
                    let _ = write!(out, "{f}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    /// Serialize to a compact single-line string.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\x08' => out.push_str("\\b"),
            '\x0c' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::Int(-7).to_string(), "-7");
        assert_eq!(Json::UInt(u64::MAX).to_string(), "18446744073709551615");
        assert_eq!(Json::Float(1.5).to_string(), "1.5");
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
        assert_eq!(Json::Float(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(
            Json::Str("a\"b\\c\nd\te\u{1}".into()).to_string(),
            r#""a\"b\\c\nd\te\u0001""#
        );
        assert_eq!(Json::Str("héllo".into()).to_string(), "\"héllo\"");
    }

    #[test]
    fn containers_render() {
        let v = Json::obj([
            ("a", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            ("b", Json::obj([("c", Json::Null)])),
        ]);
        assert_eq!(v.to_string(), r#"{"a":[1,2],"b":{"c":null}}"#);
    }
}
