//! Randomized tests of the data model: canonical-encoding injectivity,
//! hash identity, and storage-size consistency over random tuples.
//!
//! Driven by the in-tree seeded PRNG (`dpc_common::rng`) — each case
//! derives its own generator from a fixed base seed, so failures
//! reproduce exactly.

use dpc_common::{EvId, NodeId, Rng, SeededRng, StorageSize, Tuple, Value, Vid};

const CASES: u64 = 256;

fn random_string(rng: &mut SeededRng, max_len: usize) -> String {
    let len = rng.random_range(0..max_len as u64 + 1) as usize;
    // Printable ASCII including quotes and backslashes.
    (0..len)
        .map(|_| (rng.random_range(0x20u32..0x7f) as u8) as char)
        .collect()
}

fn random_value(rng: &mut SeededRng) -> Value {
    match rng.random_range(0..4u32) {
        0 => Value::Addr(NodeId(rng.random_range(0..64u32))),
        1 => Value::Int(rng.next_u64() as i64),
        2 => Value::str(random_string(rng, 24)),
        _ => Value::Bool(rng.random_bool(0.5)),
    }
}

fn random_rel(rng: &mut SeededRng) -> String {
    let mut s = String::new();
    s.push((b'a' + rng.random_range(0..26u32) as u8) as char);
    let alphabet = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_";
    for _ in 0..rng.random_range(0..11u64) {
        s.push(alphabet[rng.random_range(0..alphabet.len())] as char);
    }
    s
}

fn random_tuple(rng: &mut SeededRng) -> Tuple {
    let arity = rng.random_range(0..6u64) as usize;
    let args: Vec<Value> = (0..arity).map(|_| random_value(rng)).collect();
    Tuple::new(random_rel(rng), args)
}

/// Equal tuples encode equally; unequal tuples encode differently
/// (the injectivity `vid` correctness rests on).
#[test]
fn encoding_is_injective() {
    for case in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(0x1000 + case);
        let a = random_tuple(&mut rng);
        // Half the cases compare against an identical clone, half against
        // an independently drawn tuple.
        let b = if case % 2 == 0 {
            a.clone()
        } else {
            random_tuple(&mut rng)
        };
        if a == b {
            assert_eq!(a.encode(), b.encode());
            assert_eq!(a.vid(), b.vid());
            assert_eq!(a.evid(), b.evid());
        } else {
            assert_ne!(a.encode(), b.encode(), "{a} vs {b}");
        }
    }
}

/// Encoding and hashing are deterministic.
#[test]
fn hashing_is_deterministic() {
    for case in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(0x2000 + case);
        let t = random_tuple(&mut rng);
        assert_eq!(t.vid(), t.clone().vid());
        assert_eq!(t.encode(), t.clone().encode());
    }
}

/// The streamed digests hash exactly the bytes `encode` returns, and
/// `encode` is exactly `storage_size` bytes long.
#[test]
fn streamed_digests_hash_the_encoding() {
    for case in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(0x8000 + case);
        let t = random_tuple(&mut rng);
        let bytes = t.encode();
        assert_eq!(t.vid(), Vid::of_bytes(&bytes), "{t}");
        assert_eq!(t.evid(), EvId::of_bytes(&bytes), "{t}");
        assert_eq!(bytes.len(), t.storage_size(), "{t}");
    }
}

/// The vid and evid identifier spaces never collide.
#[test]
fn vid_and_evid_spaces_are_disjoint() {
    for case in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(0x3000 + case);
        let a = random_tuple(&mut rng);
        let b = random_tuple(&mut rng);
        assert_ne!(a.vid().0, b.evid().0);
        assert_ne!(a.vid().0, a.evid().0);
    }
}

/// The storage-size model is structural: a tuple's size is the fixed
/// framing plus its parts, and sizes are positive and deterministic.
#[test]
fn storage_size_is_structural() {
    for case in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(0x4000 + case);
        let t = random_tuple(&mut rng);
        let parts: usize = t.args().iter().map(StorageSize::storage_size).sum();
        assert_eq!(t.storage_size(), 4 + t.rel().len() + 4 + parts);
        assert!(t.storage_size() >= 8);
    }
}

/// Display output is stable across calls and always carries the `@`
/// location marker.
#[test]
fn display_is_stable() {
    for case in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(0x5000 + case);
        let t = random_tuple(&mut rng);
        let s1 = t.to_string();
        let s2 = t.to_string();
        assert_eq!(s1, s2);
        if t.arity() > 0 {
            assert!(s1.contains('@'), "{s1}");
        }
    }
}

/// SHA-1 streaming equals one-shot for arbitrary splits.
#[test]
fn sha1_streaming_matches_oneshot() {
    for case in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(0x6000 + case);
        let len = rng.random_range(0..512u64) as usize;
        let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let split = rng.random_range(0..len as u64 + 1) as usize;
        let mut h = dpc_common::Sha1::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        assert_eq!(h.finish(), dpc_common::sha1(&data));
    }
}

/// Digest hex round trips.
#[test]
fn digest_hex_round_trips() {
    for case in 0..CASES {
        let mut rng = SeededRng::seed_from_u64(0x7000 + case);
        let len = rng.random_range(0..64u64) as usize;
        let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let d = dpc_common::sha1(&data);
        assert_eq!(dpc_common::Digest::from_hex(&d.to_hex()), Some(d));
    }
}
