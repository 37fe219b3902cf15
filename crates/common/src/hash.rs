//! SHA-1 (RFC 3174) and the typed digests of the provenance model.
//!
//! The paper (and ExSPAN before it) identifies provenance nodes by SHA-1
//! hashes: a tuple's `vid` is `sha1(tuple)`, a rule execution's `rid` is
//! `sha1(rule + loc + child vids)`, and the event peculiar to one execution
//! is identified by its `evid`. We reproduce that scheme with a from-scratch
//! SHA-1 so the workspace has no external digest dependency; the
//! implementation is validated against the RFC 3174 / FIPS 180-1 test
//! vectors in this module's tests.
//!
//! The typed wrappers ([`Vid`], [`Rid`], [`EvId`], [`EqKeyHash`]) exist so
//! that the storage layer cannot accidentally mix identifier spaces — a bug
//! class that is otherwise easy to hit when everything is `[u8; 20]`.

use std::fmt;

/// A raw 160-bit SHA-1 digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 20]);

impl Digest {
    /// Render the digest as lowercase hex.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(40);
        for b in self.0 {
            use fmt::Write;
            write!(s, "{b:02x}").expect("writing to String cannot fail");
        }
        s
    }

    /// A short (8 hex char) prefix, handy for human-readable table dumps.
    pub fn short(&self) -> String {
        self.to_hex()[..8].to_string()
    }

    /// Parse a 40-character hex string back into a digest.
    pub fn from_hex(s: &str) -> Option<Digest> {
        let s = s.as_bytes();
        if s.len() != 40 {
            return None;
        }
        let mut out = [0u8; 20];
        for (i, pair) in s.chunks_exact(2).enumerate() {
            let hi = (pair[0] as char).to_digit(16)?;
            let lo = (pair[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(Digest(out))
    }

    /// The all-zero digest, used as a sentinel in a few table dumps.
    pub const ZERO: Digest = Digest([0; 20]);
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.short())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Streaming SHA-1 hasher.
///
/// Whole 64-byte blocks are compressed straight from the input slice;
/// only a partial block is buffered. Compression runs on the CPU's SHA
/// instructions where it has them (x86-64 SHA-NI, detected at run time)
/// and on a portable kernel otherwise. Both produce identical digests;
/// the portable kernel is also the oracle the hardware one is tested
/// against.
///
/// ```
/// use dpc_common::Sha1;
/// let mut h = Sha1::new();
/// h.update(b"abc");
/// assert_eq!(h.finish().to_hex(), "a9993e364706816aba3e25717850c26c9cd0d89d");
/// ```
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// Total message length in bytes.
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

/// A SHA-1 compression function: folds whole 64-byte blocks into the
/// state. `blocks.len()` is a multiple of 64.
type Kernel = fn(&mut [u32; 5], &[u8]);

impl Sha1 {
    /// Create a hasher in its initial state.
    pub fn new() -> Self {
        Sha1 {
            state: [
                0x6745_2301,
                0xEFCD_AB89,
                0x98BA_DCFE,
                0x1032_5476,
                0xC3D2_E1F0,
            ],
            len: 0,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    /// Absorb `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress);
    }

    /// Finalize and return the digest. Consumes the hasher.
    pub fn finish(self) -> Digest {
        self.finish_with(compress)
    }

    fn update_with(&mut self, mut data: &[u8], kernel: Kernel) {
        self.len += data.len() as u64;
        // Complete a partial block first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            kernel(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        // Whole blocks straight from the input.
        let whole = data.len() & !63;
        if whole > 0 {
            kernel(&mut self.state, &data[..whole]);
        }
        // Stash the tail.
        let tail = &data[whole..];
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    fn finish_with(mut self, kernel: Kernel) -> Digest {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, then zeros until 8 bytes remain in the block, then
        // the big-endian 64-bit bit length — fed in a single update.
        let zeros = (55 + 64 - self.buf_len) % 64;
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        pad[1 + zeros..9 + zeros].copy_from_slice(&bit_len.to_be_bytes());
        self.update_with(&pad[..9 + zeros], kernel);
        debug_assert_eq!(self.buf_len, 0);
        let mut out = [0u8; 20];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// The compression kernel for this CPU: SHA-NI where present, the
/// portable kernel otherwise.
fn compress(state: &mut [u32; 5], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni_detected() {
        // SAFETY: `sha_ni_detected` has just confirmed that this CPU has
        // every feature `compress_sha_ni` is compiled for.
        unsafe { compress_sha_ni(state, blocks) };
        return;
    }
    compress_portable(state, blocks);
}

/// Whether the CPU runs [`compress_sha_ni`]. `std` caches the
/// detection, so this is a few relaxed loads.
#[cfg(target_arch = "x86_64")]
fn sha_ni_detected() -> bool {
    use std::arch::is_x86_feature_detected as has;
    has!("sha") && has!("sse2") && has!("ssse3") && has!("sse4.1")
}

/// One SHA-1 step: `f` is the round function of `b, c, d`, `k` the round
/// constant and `w` the message word.
#[inline(always)]
fn step(v: &mut [u32; 5], f: u32, k: u32, w: u32) {
    let [a, b, c, d, e] = *v;
    let t = a
        .rotate_left(5)
        .wrapping_add(f)
        .wrapping_add(e)
        .wrapping_add(k)
        .wrapping_add(w);
    *v = [t, a, b.rotate_left(30), c, d];
}

/// Message word `t` of the block whose first 16 words seeded `w`. The
/// schedule rolls through 16 slots: word `t` overwrites word `t - 16`.
#[inline(always)]
fn schedule(w: &mut [u32; 16], t: usize) -> u32 {
    if t < 16 {
        return w[t];
    }
    let x = (w[(t + 13) & 15] ^ w[(t + 8) & 15] ^ w[(t + 2) & 15] ^ w[t & 15]).rotate_left(1);
    w[t & 15] = x;
    x
}

/// Portable SHA-1 compression (RFC 3174 §6.1).
fn compress_portable(state: &mut [u32; 5], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 16];
        for (wi, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *wi = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        let mut v = *state;
        for t in 0..20 {
            let [_, b, c, d, _] = v;
            step(&mut v, (b & c) | (!b & d), 0x5A82_7999, schedule(&mut w, t));
        }
        for t in 20..40 {
            let [_, b, c, d, _] = v;
            step(&mut v, b ^ c ^ d, 0x6ED9_EBA1, schedule(&mut w, t));
        }
        for t in 40..60 {
            let [_, b, c, d, _] = v;
            step(
                &mut v,
                (b & c) | (d & (b | c)),
                0x8F1B_BCDC,
                schedule(&mut w, t),
            );
        }
        for t in 60..80 {
            let [_, b, c, d, _] = v;
            step(&mut v, b ^ c ^ d, 0xCA62_C1D6, schedule(&mut w, t));
        }
        for (s, x) in state.iter_mut().zip(v) {
            *s = s.wrapping_add(x);
        }
    }
}

/// SHA-1 compression on the x86 SHA extensions.
///
/// Registers hold four words with the first in the top lane: `abcd` is
/// the working `a, b, c, d`, and `w0..w3` roll through the message
/// schedule, four words each. `sha1rnds4` runs four rounds; it takes
/// `e` pre-added to the group's first message word, which `sha1nexte`
/// derives from the `abcd` of four rounds back.
///
/// # Safety
///
/// Callers must make sure the CPU has the SHA, SSE2, SSSE3 and SSE4.1
/// extensions ([`sha_ni_detected`]). Any `blocks` slice is sound: a
/// trailing partial block is ignored.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_sha_ni(state: &mut [u32; 5], blocks: &[u8]) {
    use std::arch::x86_64::*;

    // Four rounds of function `$f` on message vector `$w`.
    macro_rules! rounds4 {
        ($abcd:ident, $prev:ident, $w:expr, $f:literal) => {{
            let e = _mm_sha1nexte_epu32($prev, $w);
            $prev = $abcd;
            $abcd = _mm_sha1rnds4_epu32($abcd, e, $f);
        }};
    }
    // The next four schedule words, W[t..t+4] from W[t-16..t), replace
    // the oldest vector `$w0`.
    macro_rules! schedule4 {
        ($w0:ident, $w1:ident, $w2:ident, $w3:ident) => {
            $w0 = _mm_sha1msg2_epu32(_mm_xor_si128(_mm_sha1msg1_epu32($w0, $w1), $w2), $w3)
        };
    }

    // Reverses all 16 bytes: big-endian words, first word in the top lane.
    let flip = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
    let mut abcd = _mm_set_epi32(
        state[0] as i32,
        state[1] as i32,
        state[2] as i32,
        state[3] as i32,
    );
    let mut e0 = _mm_set_epi32(state[4] as i32, 0, 0, 0);

    for block in blocks.chunks_exact(64) {
        let ptr = block.as_ptr().cast::<__m128i>();
        // SAFETY: `block` is 64 readable bytes, so the four 16-byte loads
        // at offsets 0, 16, 32 and 48 stay in bounds, and `loadu` has no
        // alignment requirement.
        let [w0, w1, w2, w3] = unsafe {
            [
                _mm_loadu_si128(ptr),
                _mm_loadu_si128(ptr.add(1)),
                _mm_loadu_si128(ptr.add(2)),
                _mm_loadu_si128(ptr.add(3)),
            ]
        };
        let mut w0 = _mm_shuffle_epi8(w0, flip);
        let mut w1 = _mm_shuffle_epi8(w1, flip);
        let mut w2 = _mm_shuffle_epi8(w2, flip);
        let mut w3 = _mm_shuffle_epi8(w3, flip);

        let (abcd_in, e_in) = (abcd, e0);
        // Rounds 0..20.
        let mut prev = abcd;
        abcd = _mm_sha1rnds4_epu32(abcd, _mm_add_epi32(e0, w0), 0);
        rounds4!(abcd, prev, w1, 0);
        rounds4!(abcd, prev, w2, 0);
        rounds4!(abcd, prev, w3, 0);
        schedule4!(w0, w1, w2, w3);
        rounds4!(abcd, prev, w0, 0);
        // Rounds 20..40.
        schedule4!(w1, w2, w3, w0);
        rounds4!(abcd, prev, w1, 1);
        schedule4!(w2, w3, w0, w1);
        rounds4!(abcd, prev, w2, 1);
        schedule4!(w3, w0, w1, w2);
        rounds4!(abcd, prev, w3, 1);
        schedule4!(w0, w1, w2, w3);
        rounds4!(abcd, prev, w0, 1);
        schedule4!(w1, w2, w3, w0);
        rounds4!(abcd, prev, w1, 1);
        // Rounds 40..60.
        schedule4!(w2, w3, w0, w1);
        rounds4!(abcd, prev, w2, 2);
        schedule4!(w3, w0, w1, w2);
        rounds4!(abcd, prev, w3, 2);
        schedule4!(w0, w1, w2, w3);
        rounds4!(abcd, prev, w0, 2);
        schedule4!(w1, w2, w3, w0);
        rounds4!(abcd, prev, w1, 2);
        schedule4!(w2, w3, w0, w1);
        rounds4!(abcd, prev, w2, 2);
        // Rounds 60..80.
        schedule4!(w3, w0, w1, w2);
        rounds4!(abcd, prev, w3, 3);
        schedule4!(w0, w1, w2, w3);
        rounds4!(abcd, prev, w0, 3);
        schedule4!(w1, w2, w3, w0);
        rounds4!(abcd, prev, w1, 3);
        schedule4!(w2, w3, w0, w1);
        rounds4!(abcd, prev, w2, 3);
        schedule4!(w3, w0, w1, w2);
        rounds4!(abcd, prev, w3, 3);

        e0 = _mm_sha1nexte_epu32(prev, e_in);
        abcd = _mm_add_epi32(abcd, abcd_in);
    }

    state[0] = _mm_extract_epi32(abcd, 3) as u32;
    state[1] = _mm_extract_epi32(abcd, 2) as u32;
    state[2] = _mm_extract_epi32(abcd, 1) as u32;
    state[3] = _mm_extract_epi32(abcd, 0) as u32;
    state[4] = _mm_extract_epi32(e0, 3) as u32;
}

/// One-shot SHA-1 of a byte slice.
pub fn sha1(data: &[u8]) -> Digest {
    let mut h = Sha1::new();
    h.update(data);
    h.finish()
}

/// One-shot SHA-1 on the portable kernel, whatever the CPU: the
/// reference [`sha1`] is measured and tested against.
pub fn sha1_portable(data: &[u8]) -> Digest {
    let mut h = Sha1::new();
    h.update_with(data, compress_portable);
    h.finish_with(compress_portable)
}

macro_rules! typed_digest {
    ($(#[$doc:meta])* $name:ident, $tag:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub Digest);

        impl $name {
            /// Hash arbitrary bytes into this identifier space. A single
            /// domain-separation byte keeps the spaces disjoint even for
            /// identical payloads.
            pub fn of_bytes(data: &[u8]) -> Self {
                Self::of_writer(|h| h.update(data))
            }

            /// Hash whatever `write` feeds the hasher, after the same
            /// domain-separation byte: `of_writer(|h| h.update(b))` is
            /// `of_bytes(b)`, without first gathering the bytes.
            pub fn of_writer(write: impl FnOnce(&mut Sha1)) -> Self {
                let mut h = Sha1::new();
                h.update(&[$tag]);
                write(&mut h);
                $name(h.finish())
            }

            /// Lowercase-hex rendering of the digest.
            pub fn to_hex(&self) -> String {
                self.0.to_hex()
            }

            /// Short hex prefix for table dumps.
            pub fn short(&self) -> String {
                self.0.short()
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0.short())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.0.short())
            }
        }
    };
}

typed_digest!(
    /// Identifier of a tuple (`vid` in the paper): `sha1(tuple)`.
    Vid,
    b'V'
);
typed_digest!(
    /// Identifier of a rule execution (`rid` in the paper).
    Rid,
    b'R'
);
typed_digest!(
    /// Identifier of the input event peculiar to one execution (`evid`).
    EvId,
    b'E'
);
typed_digest!(
    /// Hash of an input event's equivalence-key valuation — the value
    /// stored in the `htequi` set and used as the `hmap` key (Section 5.3).
    EqKeyHash,
    b'K'
);

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 3174 / FIPS 180-1 test vectors.
    #[test]
    fn rfc3174_vector_abc() {
        assert_eq!(
            sha1(b"abc").to_hex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn rfc3174_vector_two_blocks() {
        assert_eq!(
            sha1(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn rfc3174_vector_million_a() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finish().to_hex(),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn empty_input() {
        assert_eq!(
            sha1(b"").to_hex(),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), sha1(&data), "split at {split}");
        }
    }

    #[test]
    fn byte_at_a_time_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut h = Sha1::new();
        for b in data {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finish(), sha1(data));
    }

    #[test]
    fn typed_digests_are_domain_separated() {
        let v = Vid::of_bytes(b"same payload");
        let r = Rid::of_bytes(b"same payload");
        let e = EvId::of_bytes(b"same payload");
        let k = EqKeyHash::of_bytes(b"same payload");
        assert_ne!(v.0, r.0);
        assert_ne!(v.0, e.0);
        assert_ne!(r.0, e.0);
        assert_ne!(k.0, v.0);
    }

    #[test]
    fn digest_rendering() {
        let d = sha1(b"abc");
        assert_eq!(d.short(), "a9993e36");
        assert_eq!(format!("{d}"), d.to_hex());
        assert!(format!("{d:?}").starts_with("Digest(a9993e36"));
        assert_eq!(Digest::ZERO.to_hex(), "0".repeat(40));
    }

    #[test]
    fn from_hex_round_trips() {
        let d = sha1(b"round trip");
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(
            Digest::from_hex("da39a3ee5e6b4b0d3255bfef95601890afd80709"),
            Some(sha1(b""))
        );
        assert_eq!(Digest::from_hex("tooshort"), None);
        assert_eq!(Digest::from_hex(&"g".repeat(40)), None);
        assert_eq!(Digest::from_hex(&"0".repeat(41)), None);
    }

    /// Digest of `data` fed through `kernel` in pieces cut at `cuts`.
    fn sha1_on(kernel: Kernel, data: &[u8], cuts: &[usize]) -> Digest {
        let mut h = Sha1::new();
        let mut at = 0;
        for &cut in cuts {
            h.update_with(&data[at..cut], kernel);
            at = cut;
        }
        h.update_with(&data[at..], kernel);
        h.finish_with(kernel)
    }

    /// Every kernel this build has: the portable one, plus SHA-NI when
    /// the CPU runs it.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        #[allow(unused_mut)]
        let mut ks: Vec<(&'static str, Kernel)> = vec![("portable", compress_portable)];
        #[cfg(target_arch = "x86_64")]
        if sha_ni_detected() {
            ks.push(("sha-ni", |state, blocks| {
                // SAFETY: pushed only after `sha_ni_detected` returned true.
                unsafe { compress_sha_ni(state, blocks) }
            }));
        }
        ks
    }

    #[test]
    fn rfc3174_vectors_on_every_kernel() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 4] = [
            (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
            ),
            (&million_a, "34aa973cd4c4daa4f61eeb2bdbad27316534016f"),
            (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
        ];
        for (name, kernel) in kernels() {
            for (data, hex) in vectors {
                assert_eq!(sha1_on(kernel, data, &[]).to_hex(), hex, "{name}");
            }
        }
    }

    /// The hardware kernel against the portable one on seeded inputs of
    /// every length 0..=1100 (so every padding boundary: 55/56/64 and
    /// their multiples), each fed in randomly cut pieces.
    #[test]
    fn kernels_agree_on_random_inputs() {
        use crate::rng::{Rng, SeededRng};
        let kernels = kernels();
        if kernels.len() == 1 {
            eprintln!(
                "no hardware SHA-1 kernel on this CPU; portable kernel checked by vectors only"
            );
            return;
        }
        let mut rng = SeededRng::seed_from_u64(0x5a1);
        for len in 0..=1100usize {
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let mut cuts: Vec<usize> = (0..rng.random_range(0..4u64))
                .map(|_| rng.random_range(0..len + 1))
                .collect();
            cuts.sort_unstable();
            let want = sha1_on(compress_portable, &data, &cuts);
            for &(name, kernel) in &kernels {
                assert_eq!(
                    sha1_on(kernel, &data, &cuts),
                    want,
                    "{name}, len {len}, cuts {cuts:?}"
                );
                assert_eq!(
                    sha1_on(kernel, &data, &[]),
                    want,
                    "{name}, len {len} one-shot"
                );
            }
        }
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths around the 55/56/64 byte padding boundaries exercise the
        // two-block padding path.
        let known = [
            (55usize, true),
            (56, true),
            (57, true),
            (63, true),
            (64, true),
            (65, true),
        ];
        for (len, _) in known {
            let data = vec![0x61u8; len];
            let d1 = sha1(&data);
            // Re-hash via streaming to double check internal consistency.
            let mut h = Sha1::new();
            h.update(&data);
            assert_eq!(h.finish(), d1, "len {len}");
        }
    }
}
