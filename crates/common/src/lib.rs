#![warn(missing_docs)]
// The hardware SHA-1 kernel in `hash` is the workspace's only `unsafe`
// code (every other crate forbids it); each block states why it is sound.
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

//! Shared data model for the distributed-provenance-compression workspace.
//!
//! This crate holds the vocabulary types every other crate speaks:
//!
//! * [`Value`] — the dynamically typed attribute values that flow through
//!   NDlog tuples (node addresses, integers, strings, booleans).
//! * [`Tuple`] — a relation instance, i.e. a relation name plus a vector of
//!   values whose first attribute is the *location specifier* (`@`-attribute
//!   in NDlog surface syntax).
//! * [`NodeId`] — identity of a node in the simulated distributed system.
//! * [`sha1`] — a from-scratch SHA-1 implementation (RFC 3174) used to derive
//!   the content-addressed `vid`/`rid`/`evid` identifiers of the provenance
//!   model, exactly as ExSPAN and the paper do. It compresses on the CPU's
//!   SHA instructions where present and on a portable kernel otherwise.
//! * [`Digest`], [`Vid`], [`Rid`], [`EvId`], [`EqKeyHash`] — typed digests so
//!   a tuple id can never be confused with a rule-execution id.
//! * [`StorageSize`] — the byte-size model standing in for the paper's
//!   `boost::serialization` measurement of provenance table storage.
//! * [`FastMap`] — a `HashMap` over a deterministic non-SipHash hasher,
//!   for the engine's maps keyed by values the program makes itself.

pub mod error;
pub mod fasthash;
pub mod hash;
pub mod rng;
pub mod size;
pub mod tuple;
pub mod value;

pub use error::{Error, Result};
pub use fasthash::{FastHasher, FastMap};
pub use hash::{sha1, Digest, EqKeyHash, EvId, Rid, Sha1, Vid};
pub use rng::{Rng, SeededRng};
pub use size::StorageSize;
pub use tuple::{NodeId, RelName, Tuple};
pub use value::{ByteSink, Value};
