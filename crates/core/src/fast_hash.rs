//! A fast, non-cryptographic hasher for the request hot path.
//!
//! Every candidate pushed into a job costs several hash-map operations
//! (shard-map lookup, dedup-index insert, encoder-cache probe). The
//! standard library's SipHash is DoS-resistant but ~5× slower than needed
//! for 4-byte [`crate::UserId`] keys that already sit behind the server's
//! anonymization layer. This is the Fx/rustc multiply-rotate hash:
//! word-at-a-time, two arithmetic ops per word.
//!
//! Use for internal, trusted-key tables only (user/item ids). An unkeyed
//! multiplicative hash is easy to collide on purpose: ids that share their
//! low zero bits (say multiples of 2^16) all land in one bucket. Integer
//! keys a client chooses go into a [`KeyedHashMap`] instead, which folds
//! a per-process random key into a full 64×64→128-bit product; anything
//! keyed by attacker-controlled byte strings should stay on SipHash.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::OnceLock;

/// Multiplier from the Fx hash (Firefox/rustc): a single odd constant with
/// good bit diffusion under multiplication.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Word-at-a-time multiplicative hasher (the rustc `FxHasher`).
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Rarely used for our integer keys; fold bytes into words.
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add_word(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_word(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_word(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_word(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_word(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_word(n as u64);
    }
}

/// `BuildHasher` for [`FastHasher`].
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed by trusted internal ids.
pub type FastHashMap<K, V> = std::collections::HashMap<K, V, FastBuildHasher>;

/// A `HashSet` of trusted internal ids.
pub type FastHashSet<T> = std::collections::HashSet<T, FastBuildHasher>;

/// `BuildHasher` for [`KeyedHasher`]: every instance carries the same
/// per-process random key, drawn once from the standard library's
/// `RandomState`.
#[derive(Debug, Clone, Copy)]
pub struct KeyedBuildHasher {
    seed: u64,
    multiplier: u64,
}

impl Default for KeyedBuildHasher {
    fn default() -> Self {
        static KEY: OnceLock<KeyedBuildHasher> = OnceLock::new();
        *KEY.get_or_init(|| {
            let random = RandomState::new();
            Self {
                seed: random.hash_one(0u64),
                multiplier: random.hash_one(1u64) | 1,
            }
        })
    }
}

impl BuildHasher for KeyedBuildHasher {
    type Hasher = KeyedHasher;

    fn build_hasher(&self) -> KeyedHasher {
        KeyedHasher {
            hash: self.seed,
            multiplier: self.multiplier,
        }
    }
}

/// Word-at-a-time keyed hasher for integer keys a client may choose: each
/// word is mixed in by a folded multiply (the low and high halves of the
/// 128-bit product XORed) with the secret multiplier, so the low bits a
/// table indexes by depend on every input bit and on the key.
#[derive(Debug, Clone, Copy)]
pub struct KeyedHasher {
    hash: u64,
    multiplier: u64,
}

impl KeyedHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        let product = u128::from(self.hash ^ word) * u128::from(self.multiplier);
        self.hash = (product as u64) ^ ((product >> 64) as u64);
    }
}

impl Hasher for KeyedHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add_word(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_word(u64::from(n));
    }
}

/// A `HashMap` keyed by integer ids a client may choose.
pub type KeyedHashMap<K, V> = std::collections::HashMap<K, V, KeyedBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributes_sequential_ids() {
        // Sequential uids must spread across low bits (hash maps mask by
        // capacity), or every shard map degenerates into one bucket chain.
        let mut buckets = [0u32; 64];
        for id in 0u32..64_000 {
            let mut h = FastHasher::default();
            h.write_u32(id);
            buckets[(h.finish() & 63) as usize] += 1;
        }
        let (min, max) = (
            *buckets.iter().min().unwrap(),
            *buckets.iter().max().unwrap(),
        );
        assert!(min > 500, "bucket starvation: min {min}");
        assert!(max < 2000, "bucket pileup: max {max}");
    }

    #[test]
    fn keyed_hasher_spreads_ids_sharing_low_bits() {
        // Multiples of 2^16 all hash to a multiple of 2^16 under the
        // unkeyed hasher; the keyed one must spread them over low bits.
        let build = KeyedBuildHasher::default();
        let mut buckets = [0u32; 64];
        for i in 0u32..64_000 {
            buckets[(build.hash_one(i << 16) & 63) as usize] += 1;
        }
        let (min, max) = (
            *buckets.iter().min().unwrap(),
            *buckets.iter().max().unwrap(),
        );
        assert!(min > 500, "bucket starvation: min {min}");
        assert!(max < 2000, "bucket pileup: max {max}");
        // One key per process: every builder hashes alike.
        assert_eq!(
            KeyedBuildHasher::default().hash_one(7u32),
            build.hash_one(7u32)
        );
    }

    #[test]
    fn map_and_set_round_trip() {
        let mut map: FastHashMap<u32, u32> = FastHashMap::default();
        let mut set: FastHashSet<u32> = FastHashSet::default();
        for i in 0..1000u32 {
            map.insert(i, i * 2);
            set.insert(i);
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map[&500], 1000);
        assert!(set.contains(&999));
        assert!(!set.contains(&1000));
    }

    #[test]
    fn byte_slices_hash_consistently() {
        let mut a = FastHasher::default();
        a.write(b"hello world");
        let mut b = FastHasher::default();
        b.write(b"hello world");
        assert_eq!(a.finish(), b.finish());
        let mut c = FastHasher::default();
        c.write(b"hello worle");
        assert_ne!(a.finish(), c.finish());
    }
}
