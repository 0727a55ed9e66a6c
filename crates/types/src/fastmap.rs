//! Fast non-cryptographic hashing for simulator-internal maps.
//!
//! The standard library's default `HashMap` hasher (SipHash-1-3) is
//! DoS-resistant but costs ~20 ns per lookup on short keys, which is
//! material in the simulator's hot paths: duplicate-tag lookups, L2
//! MSHR tracking, and directory state are all keyed by line addresses
//! and hit on every cache miss. Simulator state is never exposed to
//! untrusted key distributions, so we trade collision resistance for
//! speed with a multiply-rotate hash in the spirit of FNV/fxhash.
//!
//! Determinism note: [`FastMap`] has a *fixed* (seedless) hash
//! function, so its internal bucket order is stable across runs —
//! unlike `RandomState`, which reseeds per process. No simulation
//! code may iterate a map in bucket order anyway (event ordering must
//! come from the future event list's `(time, seq)` keys), but fixed
//! seeding removes even the
//! possibility of run-to-run divergence from map internals.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher for short, trusted keys.
///
/// Each 8-byte word is folded in as
/// `h = (h.rotate_left(5) ^ w) * K` with an odd 64-bit constant `K`
/// derived from the golden ratio. This is 2-3 instructions per word
/// and mixes line addresses (which differ in their low-middle bits)
/// well enough for the load factors `HashMap` maintains.
#[derive(Default, Clone, Copy)]
pub struct FastHasher {
    hash: u64,
}

/// Odd multiplier: `floor(2^64 / phi)`, the 64-bit golden-ratio
/// constant also used by Fibonacci hashing.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

impl FastHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic path for composite/odd-sized keys: fold 8 bytes at
        // a time, then the tail padded with its own length so "ab"
        // and "ab\0" differ.
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.fold(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            tail[7] = rest.len() as u8;
            self.fold(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.fold(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.fold(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.fold(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.fold(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.fold(n as u64);
    }
}

/// `BuildHasher` for [`FastHasher`]; zero-sized and seedless.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// `HashMap` keyed with the fast seedless hasher.
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// `HashSet` keyed with the fast seedless hasher.
pub type FastSet<K> = HashSet<K, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_round_trips_line_addr_like_keys() {
        let mut m: FastMap<u64, u32> = FastMap::default();
        // Line addresses: sequential multiples of a cache-line stride.
        for i in 0..10_000u64 {
            m.insert(i * 64, i as u32);
        }
        for i in 0..10_000u64 {
            assert_eq!(m.get(&(i * 64)), Some(&(i as u32)));
        }
        assert_eq!(m.len(), 10_000);
    }

    #[test]
    fn composite_and_stream_hashing_distinguish_tails() {
        let mut a = FastHasher::default();
        a.write(b"ab");
        let mut b = FastHasher::default();
        b.write(b"ab\0");
        assert_ne!(a.finish(), b.finish());

        let mut m: FastMap<(u8, u64), u8> = FastMap::default();
        m.insert((1, 7), 1);
        m.insert((2, 7), 2);
        assert_eq!(m.get(&(1, 7)), Some(&1));
        assert_eq!(m.get(&(2, 7)), Some(&2));
    }

    #[test]
    fn hashes_are_stable_across_instances() {
        // Seedless: two independent hashers agree, so bucket layout
        // is identical across runs of the same binary.
        let h = |x: u64| {
            let mut f = FastHasher::default();
            f.write_u64(x);
            f.finish()
        };
        assert_eq!(h(0xdead_beef), h(0xdead_beef));
        assert_ne!(h(1), h(2));
    }
}
