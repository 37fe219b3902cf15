//! A small, deterministic, non-cryptographic hasher for in-process maps.
//!
//! `std`'s default `HashMap` hashes with SipHash-1-3 under a per-process
//! random key: robust against keys crafted to collide, but costlier per
//! key than the engine needs for keys the program makes itself (relation
//! names, tuples, digests, join keys), and its iteration order changes
//! from run to run. [`FastHasher`] is an Fx-style word hasher (rotate, xor,
//! multiply per word, as in rustc's `FxHasher`) with a fixed seed, so a
//! key hashes to the same `u64` in every run and every build; the module
//! tests pin known answers.
//!
//! Use [`FastMap`] only for keys that do not come from outside the
//! program: a fixed seed offers no protection against inputs chosen to
//! collide.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// An odd 64-bit multiplier with well-mixed bits (the one rustc's
/// `FxHasher` uses on 64-bit targets).
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fx-style streaming hasher: each word is folded in with one rotate, one
/// xor and one multiply. Byte slices are read as little-endian words, and
/// `usize`/`isize` as 64-bit words, so the output does not depend on the
/// target's endianness or pointer width.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut rest = chunks.remainder();
        if rest.len() >= 4 {
            self.add(u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as u64);
            rest = &rest[4..];
        }
        for &b in rest {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The multiply leaves its best-mixed bits at the top, while
    /// `HashMap` picks buckets with the low bits: rotate them down.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// `BuildHasher` for [`FastHasher`]; every hasher starts from the same state.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` hashed with [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeId, Value};
    use std::hash::{BuildHasher, Hash};

    fn fast<T: Hash + ?Sized>(t: &T) -> u64 {
        FastBuildHasher::default().hash_one(t)
    }

    /// Known answers: a change to the hasher's output changes bucket
    /// layouts and map iteration order, so it must be deliberate. The
    /// comments give the words each key feeds the hasher.
    #[test]
    fn known_answers() {
        assert_eq!(fast(&0u64), 0); // [0]: zero is a fixed point, as in Fx
        assert_eq!(fast(&1u64), K.rotate_left(26)); // [1]
        assert_eq!(fast(&1u64), 0xdc9c_882a_5545_f306);
        assert_eq!(fast(""), 0xbfeb_a229_acad_13d5); // [0xff]: str's terminator
        assert_eq!(fast("packet"), 0x2e60_4de5_c0b5_f9a4); // ["pack", 'e', 't', 0xff]
                                                           // [tag, payload]: the discriminant is its own word, so an address
                                                           // and an integer with the same payload hash apart.
        assert_eq!(fast(&Value::Addr(NodeId(3))), 0x95d5_987e_ffd1_d914); // [0, 3]
        assert_eq!(fast(&Value::Int(3)), 0xdc82_c6d9_76ef_22a0); // [1, 3]
        assert_eq!(fast(&Value::str("a.com")), 0x82b7_3335_f02a_ecce); // [2, "a.co", 'm', 0xff]
    }

    #[test]
    fn byte_tails_and_lengths_are_all_hashed() {
        // Every prefix of a 16-byte string hashes differently: the 8-byte
        // words, the 4-byte word and the single tail bytes all count.
        let s = "abcdefghijklmnop";
        let mut seen: Vec<u64> = (0..=s.len()).map(|n| fast(&s[..n])).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), s.len() + 1);
        // A map keyed by strings still behaves like a map.
        let mut m: FastMap<&str, usize> = FastMap::default();
        for (i, w) in ["a", "b", "ab", "ba", ""].iter().enumerate() {
            m.insert(w, i);
        }
        assert_eq!(m.len(), 5);
        assert_eq!(m["ab"], 2);
    }
}
