//! Tuples, relation names and node identities.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use crate::error::{Error, Result};
use crate::hash::{EvId, Vid};
use crate::size::StorageSize;
use crate::value::{ByteSink, Value};

/// Identity of a node in the distributed system.
///
/// Nodes are dense small integers; the `Display` form (`n0`, `n1`, ...)
/// matches the paper's figures.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The integer index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// An interned relation name.
///
/// Relation names are shared between many tuples, rules, and provenance
/// rows; `Arc<str>` keeps clones cheap (a refcount bump) without pulling in
/// an interning table.
pub type RelName = Arc<str>;

/// An instance of a relation: the relation name plus its attribute values.
///
/// By NDlog convention the first attribute is the *location specifier*: the
/// node at which the tuple lives (written `@L` in surface syntax).
///
/// The payload lives behind an `Arc`, so cloning a tuple is a refcount
/// bump. The canonical SHA-1 identities (`vid`/`evid`) are each computed
/// on first use and cached inside the shared payload, so every clone — and
/// every recorder that re-derives an id from the same tuple — pays each
/// hash at most once, and a tuple only ever asked for its `vid` (every
/// derived tuple) never pays for its `evid`. A digest streams the
/// canonical encoding straight into the hasher; no encoding buffer is
/// built.
#[derive(Clone)]
pub struct Tuple {
    inner: Arc<TupleInner>,
}

struct TupleInner {
    rel: RelName,
    args: Vec<Value>,
    vid: OnceLock<Vid>,
    evid: OnceLock<EvId>,
}

impl Tuple {
    /// Build a tuple. The first argument should be the location specifier.
    pub fn new(rel: impl AsRef<str>, args: Vec<Value>) -> Tuple {
        Tuple::from_rel(Arc::from(rel.as_ref()), args)
    }

    /// Build a tuple from an already-interned relation name.
    pub fn from_rel(rel: RelName, args: Vec<Value>) -> Tuple {
        Tuple {
            inner: Arc::new(TupleInner {
                rel,
                args,
                vid: OnceLock::new(),
                evid: OnceLock::new(),
            }),
        }
    }

    /// The relation this tuple belongs to.
    pub fn rel(&self) -> &str {
        &self.inner.rel
    }

    /// The interned relation name (cheap to clone).
    pub fn rel_name(&self) -> &RelName {
        &self.inner.rel
    }

    /// All attribute values, location specifier first.
    pub fn args(&self) -> &[Value] {
        &self.inner.args
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.inner.args.len()
    }

    /// The location specifier — the node this tuple lives at.
    ///
    /// Errors if the tuple has no attributes or the first attribute is not
    /// an address.
    pub fn loc(&self) -> Result<NodeId> {
        self.inner
            .args
            .first()
            .and_then(Value::as_addr)
            .ok_or_else(|| Error::Schema(format!("tuple {self} has no location specifier")))
    }

    /// Canonical byte encoding of the whole tuple, used for `vid`/`evid`
    /// computation. Injective: relation name is length-prefixed and each
    /// value uses its own injective encoding. Exactly
    /// [`StorageSize::storage_size`] bytes long.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.storage_size());
        self.encode_into(&mut out);
        out
    }

    /// Write the canonical encoding ([`Tuple::encode`]) into `out`.
    pub fn encode_into<S: ByteSink + ?Sized>(&self, out: &mut S) {
        let rel = &self.inner.rel;
        let args = &self.inner.args;
        out.put(&(rel.len() as u32).to_be_bytes());
        out.put(rel.as_bytes());
        out.put(&(args.len() as u32).to_be_bytes());
        for a in args {
            a.encode_into(out);
        }
    }

    /// The content-addressed tuple id: `vid = sha1(tuple)`. Computed once
    /// per tuple payload; clones share the cached digest.
    pub fn vid(&self) -> Vid {
        *self
            .inner
            .vid
            .get_or_init(|| Vid::of_writer(|h| self.encode_into(h)))
    }

    /// The event id used when this tuple is an input event: `evid`.
    /// Cached like [`Tuple::vid`], but separately: computing one digest
    /// never computes the other.
    pub fn evid(&self) -> EvId {
        *self
            .inner
            .evid
            .get_or_init(|| EvId::of_writer(|h| self.encode_into(h)))
    }
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Tuple) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
            || (self.inner.rel == other.inner.rel && self.inner.args == other.inner.args)
    }
}

impl Eq for Tuple {}

impl Hash for Tuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.inner.rel.hash(state);
        self.inner.args.hash(state);
    }
}

impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Tuple) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    fn cmp(&self, other: &Tuple) -> std::cmp::Ordering {
        self.inner
            .rel
            .cmp(&other.inner.rel)
            .then_with(|| self.inner.args.cmp(&other.inner.args))
    }
}

impl StorageSize for Tuple {
    fn storage_size(&self) -> usize {
        4 + self.inner.rel.len()
            + 4
            + self
                .inner
                .args
                .iter()
                .map(StorageSize::storage_size)
                .sum::<usize>()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.inner.rel)?;
        for (i, a) in self.inner.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            if i == 0 {
                write!(f, "@{a}")?;
            } else {
                write!(f, "{a}")?;
            }
        }
        write!(f, ")")
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Shorthand macro for constructing tuples in tests and examples:
/// `tuple!["packet", n(1), n(1), n(3), "data"]`.
#[macro_export]
macro_rules! tuple {
    ($rel:expr $(, $arg:expr)* $(,)?) => {
        $crate::Tuple::new($rel, vec![$($crate::Value::from($arg)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt() -> Tuple {
        Tuple::new(
            "packet",
            vec![
                Value::Addr(NodeId(1)),
                Value::Addr(NodeId(1)),
                Value::Addr(NodeId(3)),
                Value::str("data"),
            ],
        )
    }

    #[test]
    fn loc_is_first_attribute() {
        assert_eq!(pkt().loc().unwrap(), NodeId(1));
    }

    #[test]
    fn loc_errors_without_address() {
        let t = Tuple::new("x", vec![Value::Int(3)]);
        assert!(t.loc().is_err());
        let empty = Tuple::new("x", vec![]);
        assert!(empty.loc().is_err());
    }

    #[test]
    fn vid_is_content_addressed() {
        let a = pkt();
        let b = pkt();
        assert_eq!(a.vid(), b.vid());
        let c = Tuple::new(
            "packet",
            vec![
                Value::Addr(NodeId(1)),
                Value::Addr(NodeId(1)),
                Value::Addr(NodeId(3)),
                Value::str("url"),
            ],
        );
        assert_ne!(a.vid(), c.vid());
    }

    #[test]
    fn vid_depends_on_relation_name() {
        let a = Tuple::new("recv", vec![Value::Int(1)]);
        let b = Tuple::new("sent", vec![Value::Int(1)]);
        assert_ne!(a.vid(), b.vid());
    }

    #[test]
    fn vid_and_evid_are_distinct_spaces() {
        let t = pkt();
        assert_ne!(t.vid().0, t.evid().0);
    }

    #[test]
    fn encode_rel_name_boundary_is_unambiguous() {
        // rel "ab" + first arg str "c..." vs rel "a" + args starting "bc"
        let a = Tuple::new("ab", vec![Value::str("c")]);
        let b = Tuple::new("a", vec![Value::str("bc")]);
        assert_ne!(a.encode(), b.encode());
        assert_ne!(a.vid(), b.vid());
    }

    #[test]
    fn display_matches_paper_style() {
        assert_eq!(pkt().to_string(), "packet(@n1, n1, n3, \"data\")");
    }

    #[test]
    fn storage_size_sums_parts() {
        let t = pkt();
        // 4 + 6 ("packet") + 4 + (5 + 5 + 5 + (1+4+4))
        assert_eq!(t.storage_size(), 4 + 6 + 4 + 5 + 5 + 5 + 9);
    }

    #[test]
    fn clones_share_payload_and_digest_cache() {
        let a = pkt();
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.inner, &b.inner));
        // A digest computed through either handle is cached for both.
        let vid = a.vid();
        assert_eq!(b.inner.vid.get(), Some(&vid), "clone shares the cached vid");
        assert!(b.inner.evid.get().is_none());
        let evid = b.evid();
        assert_eq!(
            a.inner.evid.get(),
            Some(&evid),
            "clone shares the cached evid"
        );
        let c = b.clone();
        assert_eq!((c.vid(), c.evid()), (vid, evid));
    }

    /// A 500-byte forwarding packet, the size the forwarding workloads
    /// ship.
    fn packet_500b() -> Tuple {
        let payload: String = (0..500u32)
            .map(|i| char::from(b'a' + (i % 26) as u8))
            .collect();
        Tuple::new(
            "packet",
            vec![
                Value::Addr(NodeId(1)),
                Value::Addr(NodeId(1)),
                Value::Addr(NodeId(3)),
                Value::str(payload),
            ],
        )
    }

    #[test]
    fn digests_match_reference_values() {
        // Recorded before the vid/evid caches were split: caching must
        // never change a digest, or stored provenance stops resolving.
        let t = packet_500b();
        assert_eq!(t.vid().to_hex(), "87766583f17a40815360ed94b9113e619458aedc");
        assert_eq!(
            t.evid().to_hex(),
            "e733ded272190897e988ce446783a74fbc4c3b61"
        );
        // The same values come out whichever digest is asked for first.
        let u = packet_500b();
        assert_eq!(u.evid(), t.evid());
        assert_eq!(u.vid(), t.vid());
    }

    #[test]
    fn each_digest_is_computed_only_on_demand() {
        let t = packet_500b();
        t.vid();
        assert!(t.inner.vid.get().is_some());
        assert!(t.inner.evid.get().is_none(), "vid() must not hash the evid");
        let u = packet_500b();
        u.evid();
        assert!(u.inner.evid.get().is_some());
        assert!(u.inner.vid.get().is_none(), "evid() must not hash the vid");
    }

    #[test]
    fn equality_hash_and_order_follow_content() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let a = pkt();
        let b = pkt(); // separate allocation, same content
        assert!(!Arc::ptr_eq(&a.inner, &b.inner));
        assert_eq!(a, b);
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        let hash = |t: &Tuple| {
            let mut h = DefaultHasher::new();
            t.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
        // Ordering is (rel, args) lexicographic, as with the derived impl.
        let c = Tuple::new("aaa", vec![Value::Int(1)]);
        assert!(c < a);
        let d = Tuple::new("packet", vec![Value::Addr(NodeId(0))]);
        assert!(d < a);
    }

    #[test]
    fn tuple_macro() {
        let t = tuple!["recv", NodeId(3), NodeId(1), NodeId(3), "data"];
        assert_eq!(t.rel(), "recv");
        assert_eq!(t.arity(), 4);
        assert_eq!(t.loc().unwrap(), NodeId(3));
    }
}
