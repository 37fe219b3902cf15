//! The benchmark's reference clock.
//!
//! On a shared host a neighbour's load slows this process's CPU time
//! itself: a fixed loop of hashing and table updates ran up to 45% slower
//! for ten seconds and more at a time, so CPU seconds of the same work
//! moved between runs by as much. A fixed kernel, probed between spans
//! of the measured work, tracks that slowdown. Scaling each span by the
//! probes around it gives *reference seconds*: the span's CPU time at
//! the speed the kernel has on an idle host ([`PROBE_REF_SECS`]).
//!
//! The kernel mixes the two kinds of work the workloads do: arithmetic
//! on cache-resident state (a digest-like mixing loop and a small hash
//! map) and allocation with scattered writes into a table larger than
//! the core's private caches. On the workloads' own drive phases,
//! repeated for a minute and more, scaling by this kernel halved the
//! spread of the per-iteration times against raw CPU seconds; the
//! cache-resident half alone tracked forwarding better, the allocating
//! half alone DNS. Across five 30-second runs of `fwd-advanced`, the
//! quartile spread of the drive rate fell from 16% of its median in CPU
//! seconds to 2% in reference seconds.
//!
//! The kernel is the benchmark's own code and never changes, so a change
//! to the workspace moves reference seconds exactly as it moves CPU time.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;

use crate::stats::cpu_secs;

/// CPU seconds one probe takes on an idle host: about the fastest
/// probes on the 2-core Xeon (Sapphire Rapids, 2.1 GHz, KVM) the
/// benchmark was tuned on.
pub const PROBE_REF_SECS: f64 = 0.000_7;

/// Rounds of the cache-resident half per probe, timed.
const CORE_ROUNDS: usize = 20_000;

/// Rounds of the allocating half per probe, timed.
const ALLOC_ROUNDS: usize = 500;

/// Untimed rounds of each half before a probe, to bring the kernel's
/// state back into the caches that the measured work evicted.
const WARM_DIVISOR: usize = 10;

/// Slots of the cache-resident table: 16 KiB, inside a core's L1 cache.
const TABLE_SLOTS: usize = 1 << 11;

/// Distinct keys of the cache-resident hash map.
const MAP_KEYS: u64 = 1 << 8;

/// Words of the block the mixing loop digests: 512 bytes, one payload.
const BLOCK_WORDS: usize = 128;

/// Bytes of each buffer the allocating half stores.
const BUFFER_BYTES: usize = 500;

/// Distinct keys of the allocating half's map: 8 MiB of buffers, beyond
/// a core's private caches.
const BUFFER_KEYS: u64 = 1 << 14;

/// A fixed hashed-key map, so that every run probes identical work.
type FixedMap<V> = HashMap<u64, V, BuildHasherDefault<DefaultHasher>>;

/// Probes the host's speed with the reference kernel and converts CPU
/// seconds to reference seconds.
pub struct RefClock {
    table: Vec<u64>,
    map: FixedMap<u64>,
    block: Vec<u32>,
    buffers: FixedMap<Vec<u8>>,
    state: u64,
    /// CPU seconds of the latest probe.
    last: f64,
    /// CPU seconds of every probe, in order.
    pub probes: Vec<f64>,
}

impl Default for RefClock {
    fn default() -> Self {
        Self::new()
    }
}

impl RefClock {
    /// A clock whose kernel state is allocated and warm.
    pub fn new() -> RefClock {
        let mut clock = RefClock {
            table: vec![0; TABLE_SLOTS],
            map: FixedMap::default(),
            block: vec![1; BLOCK_WORDS],
            buffers: FixedMap::default(),
            state: 0x9e37_79b9_7f4a_7c15,
            last: 0.0,
            probes: Vec::new(),
        };
        for _ in 0..BUFFER_KEYS / ALLOC_ROUNDS as u64 * 4 {
            clock.alloc_rounds(ALLOC_ROUNDS);
        }
        clock.probe();
        clock.probes.clear();
        clock.mark();
        clock
    }

    /// Run the kernel once, warm: CPU seconds it took.
    fn probe(&mut self) -> f64 {
        self.core_rounds(CORE_ROUNDS / WARM_DIVISOR);
        self.alloc_rounds(ALLOC_ROUNDS / WARM_DIVISOR);
        let start = cpu_secs();
        self.core_rounds(CORE_ROUNDS);
        self.alloc_rounds(ALLOC_ROUNDS);
        let secs = cpu_secs() - start;
        self.probes.push(secs);
        secs
    }

    /// The next value of the kernel's xorshift stream.
    fn step(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// Table and map updates on L1-resident state.
    fn core_rounds(&mut self, n: usize) {
        for _ in 0..n {
            let x = self.step();
            let slot = x as usize % TABLE_SLOTS;
            self.table[slot] = self.table[slot].rotate_left(5) ^ x;
            *self.map.entry(x % MAP_KEYS).or_insert(0) += self.table[slot ^ 1];
        }
        self.state = black_box(self.state);
    }

    /// Digest a block, then store a fresh buffer under a scattered key,
    /// freeing the one it replaces.
    fn alloc_rounds(&mut self, n: usize) {
        for _ in 0..n {
            let seed = self.step();
            let (mut a, mut b) = (seed as u32, (seed >> 32) as u32);
            let (mut c, mut d) = (0x6745_2301u32, 0xefcd_ab89u32);
            for w in self.block.iter_mut() {
                a = a.wrapping_add(*w).rotate_left(5) ^ b;
                b = b.wrapping_add(c).rotate_left(30);
                c ^= d.wrapping_add(a);
                d = d.rotate_left(7).wrapping_add(a);
                *w = w.wrapping_add(d);
            }
            let digest = (u64::from(a) << 32 | u64::from(b)) ^ u64::from(c) ^ u64::from(d);
            let x = self.step() ^ digest;
            let buffer = vec![x as u8; BUFFER_BYTES];
            black_box(self.buffers.insert(x % BUFFER_KEYS, buffer));
        }
        self.state = black_box(self.state);
    }

    /// Probe now, as the start of the next span of measured work.
    pub fn mark(&mut self) {
        self.last = self.probe();
    }

    /// Reference seconds of `cpu` CPU seconds of work done since the
    /// latest probe: `cpu` scaled by the mean of that probe and a new one,
    /// which also starts the next span.
    pub fn scale(&mut self, cpu: f64) -> f64 {
        let now = self.probe();
        let probe = (self.last + now) / 2.0;
        self.last = now;
        cpu * PROBE_REF_SECS / probe
    }

    /// The host's slowdown at each probe: its CPU seconds over
    /// [`PROBE_REF_SECS`].
    pub fn slowdowns(&self) -> Vec<f64> {
        self.probes.iter().map(|p| p / PROBE_REF_SECS).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_proportional_to_cpu_time() {
        let mut clock = RefClock::new();
        assert_eq!(clock.scale(0.0), 0.0);
        let one = clock.scale(1.0);
        assert!(one.is_finite() && one > 0.0);
        assert_eq!(clock.slowdowns().len(), clock.probes.len());
    }
}
