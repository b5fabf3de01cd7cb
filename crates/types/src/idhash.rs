//! Hashing for simulator-assigned integer keys.
//!
//! The run loops keep a few maps keyed by ids the simulator hands out
//! itself: [`crate::TransactionId`]s and raw-request ids, issued from a
//! per-node counter. `std`'s default SipHash defends against keys an
//! adversary chooses; no outside input chooses these, so a single
//! multiplication per key is enough. Sequential ids stay spread: the
//! multiplier is odd, so the low bits of consecutive keys (the bucket
//! index) are a bijection of the keys' low bits, and the high bits (the
//! probe tag) mix every input bit.
//!
//! Do not key an [`IdMap`] by anything read from a file, a socket or a
//! user: colliding keys are easy to construct for this hash.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 divided by the golden ratio, rounded to odd (Knuth's
/// multiplicative hashing constant).
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// A multiplicative [`Hasher`] for small integer keys; see the module
/// docs for when it is safe.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(MULTIPLIER);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed by simulator-assigned ids, hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TransactionId;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(key: impl Hash) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(key)
    }

    #[test]
    fn sequential_ids_fill_distinct_buckets() {
        // Any 2^k consecutive ids land in 2^k distinct low-bit buckets.
        let mask = (1u64 << 10) - 1;
        let base = TransactionId::compose(3, 5000).0;
        let mut seen = vec![false; 1 << 10];
        for id in base..base + (1 << 10) {
            let b = (hash_of(TransactionId(id)) & mask) as usize;
            assert!(!seen[b], "bucket {b} reused");
            seen[b] = true;
        }
    }
}
