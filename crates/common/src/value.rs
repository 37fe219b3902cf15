//! Dynamically typed attribute values for NDlog tuples.

use std::fmt;
use std::sync::Arc;

use crate::hash::Sha1;
use crate::size::StorageSize;
use crate::tuple::NodeId;

/// A single attribute value inside a [`crate::Tuple`].
///
/// NDlog is dynamically typed; the four variants here cover everything the
/// paper's applications need: node addresses (location specifiers and
/// next-hop attributes), integers, strings (URLs, payloads, domain names)
/// and booleans (results of user-defined predicates).
///
/// Strings are shared: cloning a `Value::Str` (a slot binding, a join
/// match, a head tuple's argument) bumps a refcount instead of copying
/// the bytes.
///
/// The word-sized tag puts every payload at offset 8. Without it the
/// compiler packs `Addr` and `Bool` into bytes 1..8 and copies them
/// through overlapping stack stores, which made cloning a binding vector
/// several times slower than with the `String` payload this replaced.
/// The size (24 bytes, also as `Option<Value>`) is unchanged.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u64)]
pub enum Value {
    /// A node address, e.g. the `@L` location specifier.
    Addr(NodeId),
    /// A 64-bit signed integer.
    Int(i64),
    /// A string (URL, payload, domain name, ...).
    Str(Arc<str>),
    /// A boolean.
    Bool(bool),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The node id if this value is an address.
    pub fn as_addr(&self) -> Option<NodeId> {
        match self {
            Value::Addr(n) => Some(*n),
            _ => None,
        }
    }

    /// The integer if this value is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The string if this value is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean if this value is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Canonical byte encoding used for content hashing (`vid` computation).
    ///
    /// The encoding is injective: a one-byte type tag followed by a
    /// fixed-width or length-prefixed payload, so distinct values can never
    /// encode to the same bytes. It is exactly
    /// [`StorageSize::storage_size`] bytes long.
    pub fn encode_into<S: ByteSink + ?Sized>(&self, out: &mut S) {
        match self {
            Value::Addr(n) => {
                out.put(&[0]);
                out.put(&n.0.to_be_bytes());
            }
            Value::Int(i) => {
                out.put(&[1]);
                out.put(&i.to_be_bytes());
            }
            Value::Str(s) => {
                out.put(&[2]);
                out.put(&(s.len() as u32).to_be_bytes());
                out.put(s.as_bytes());
            }
            Value::Bool(b) => out.put(&[3, *b as u8]),
        }
    }
}

/// Where a canonical encoding goes: a buffer ([`crate::Tuple::encode`])
/// or straight into a hasher (the streamed `vid`/`evid`), so the two can
/// never disagree.
pub trait ByteSink {
    /// Append `bytes`.
    fn put(&mut self, bytes: &[u8]);
}

impl ByteSink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

impl ByteSink for Sha1 {
    fn put(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }
}

impl StorageSize for Value {
    fn storage_size(&self) -> usize {
        // Mirrors a boost-style binary archive: 1 tag byte plus payload.
        1 + match self {
            Value::Addr(_) => 4,
            Value::Int(_) => 8,
            Value::Str(s) => 4 + s.len(),
            Value::Bool(_) => 1,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Addr(n) => write!(f, "{n}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl From<NodeId> for Value {
    fn from(n: NodeId) -> Self {
        Value::Addr(n)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::str(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Value::Addr(NodeId(3)).as_addr(), Some(NodeId(3)));
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Int(7).as_addr(), None);
        assert_eq!(Value::str("x").as_int(), None);
    }

    #[test]
    fn encoding_is_injective_across_types() {
        let vals = [
            Value::Addr(NodeId(1)),
            Value::Int(1),
            Value::str("1"),
            Value::Bool(true),
            Value::Int(256),
            Value::str(""),
            Value::str("\0\0\0\0"),
        ];
        let mut encodings = Vec::new();
        for v in &vals {
            let mut buf = Vec::new();
            v.encode_into(&mut buf);
            encodings.push(buf);
        }
        for i in 0..encodings.len() {
            for j in i + 1..encodings.len() {
                assert_ne!(encodings[i], encodings[j], "{:?} vs {:?}", vals[i], vals[j]);
            }
        }
    }

    #[test]
    fn string_length_prefix_prevents_concat_ambiguity() {
        // ("ab","c") and ("a","bc") must encode differently when concatenated.
        let mut e1 = Vec::new();
        Value::str("ab").encode_into(&mut e1);
        Value::str("c").encode_into(&mut e1);
        let mut e2 = Vec::new();
        Value::str("a").encode_into(&mut e2);
        Value::str("bc").encode_into(&mut e2);
        assert_ne!(e1, e2);
    }

    #[test]
    fn values_stay_three_words() {
        assert_eq!(std::mem::size_of::<Value>(), 24);
        assert_eq!(std::mem::size_of::<Option<Value>>(), 24);
    }

    #[test]
    fn storage_sizes() {
        assert_eq!(Value::Addr(NodeId(0)).storage_size(), 5);
        assert_eq!(Value::Int(0).storage_size(), 9);
        assert_eq!(Value::str("abcd").storage_size(), 9);
        assert_eq!(Value::Bool(false).storage_size(), 2);
    }

    #[test]
    fn display() {
        assert_eq!(Value::Addr(NodeId(2)).to_string(), "n2");
        assert_eq!(Value::Int(-5).to_string(), "-5");
        assert_eq!(Value::str("hi").to_string(), "\"hi\"");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }
}
