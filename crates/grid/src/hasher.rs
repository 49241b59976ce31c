//! Hashing utilities: a small Fx-style hasher for the legality
//! checker's node and layer maps, and the workspace's canonical FNV-1a
//! stream digest.
//!
//! The legality checker looks up a node or a layer for every wire
//! terminal and every wire run; SipHash (std's default) is needlessly
//! slow for that, so we use the classic
//! multiply-and-rotate Fx construction (as used by rustc; see the Rust
//! Performance Book's Hashing chapter). Implemented locally (~30 lines)
//! rather than pulling in a crate.
//!
//! [`fnv1a`] / [`fnv1a_u64`] / [`FNV_BASIS`] are the *stable*
//! content-keying digest, re-exported from [`mlv_core::fnv`] where it is
//! defined once for the whole workspace: unlike Fx (an in-process
//! hash-table mixer), FNV-1a over a canonical byte encoding is an
//! interchange fingerprint — the conformance harness's lattice digests,
//! the batch engine's spec→layout memo keys and the tiled IR's digest
//! print and compare these values across runs. [`fnv1a_u64`] folds a
//! word's high zero bytes into one multiply, so the small integers
//! those keys are made of cost one or two steps instead of eight.

use std::hash::{BuildHasherDefault, Hasher};

pub use mlv_core::fnv::{fnv1a, fnv1a_u64, FNV_BASIS, FNV_PRIME};

/// `HashMap`/`HashSet` build-hasher alias using [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A fast, non-cryptographic hasher (Fx construction).
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
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

    #[inline]
    fn write_i32(&mut self, n: i32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.add(n as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn hash_set_with_fx_works() {
        let mut s: HashSet<(i64, i64, i32), FxBuildHasher> = HashSet::default();
        for x in 0..100 {
            for y in 0..100 {
                assert!(s.insert((x, y, (x % 4) as i32)));
            }
        }
        assert_eq!(s.len(), 10_000);
        assert!(s.contains(&(42, 17, 2)));
        assert!(!s.contains(&(42, 17, 3)));
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // published FNV-1a 64-bit test vectors
        assert_eq!(fnv1a(FNV_BASIS, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_BASIS, b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv1a_chains_like_concatenation() {
        let whole = fnv1a(FNV_BASIS, b"hello world");
        let chained = fnv1a(fnv1a(FNV_BASIS, b"hello "), b"world");
        assert_eq!(whole, chained);
        assert_eq!(fnv1a_u64(7, 42), fnv1a(7, &42u64.to_le_bytes()));
    }

    #[test]
    fn distinct_inputs_distinct_hashes_smoke() {
        // not a real collision test, just a sanity check that the hasher
        // is not degenerate
        let mut hashes = HashSet::new();
        for i in 0..1000u64 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            hashes.insert(h.finish());
        }
        assert_eq!(hashes.len(), 1000);
    }
}
