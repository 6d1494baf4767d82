//! A deterministic fast hasher for small integer keys.
//!
//! `std`'s default SipHash is keyed per process and built to resist
//! collision attacks — neither matters for simulator-internal maps keyed by
//! node ids, node pairs and frame handles, and SipHash costs more than the
//! lookup it guards on the per-event path. [`FastHasher`] folds each
//! written word with a rotate, an xor and one odd-constant multiply (the
//! Fx construction): a fixed function, so a [`FastMap`]'s layout is the
//! same in every process.
//!
//! Rule for every `FastMap`: never iterate it in a way whose result
//! depends on the order. The order is deterministic but arbitrary; a
//! sorted or commutative fold (sum, min, `retain` by a per-entry
//! predicate, collect-then-sort) is fine, anything else is a bug.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative word hasher (see the module docs).
#[derive(Clone, Copy, Default, Debug)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
}

/// A `HashMap` under [`FastHasher`]. Build with `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(t: &T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(t)
    }

    #[test]
    fn hashes_are_fixed_and_distinguish_small_keys() {
        // A fixed function: the same key hashes alike in every process.
        assert_eq!(hash_of(&(3u32, 4u32)), 0xe1dd_36ee_3af3_1882);
        assert_ne!(hash_of(&(3u32, 4u32)), hash_of(&(4u32, 3u32)));
        let mut seen = std::collections::HashSet::new();
        for a in 0..64u32 {
            for b in 0..64u32 {
                assert!(seen.insert(hash_of(&(a, b))), "collision at {a},{b}");
            }
        }
        // Handle-shaped keys (cluster base in the high bits) map back.
        let mut m: FastMap<u64, u64> = FastMap::default();
        m.extend((0..1000).map(|i| (i << 48 | i, i)));
        assert!((0..1000).all(|i| m[&(i << 48 | i)] == i));
    }
}
