//! FNV-1a, the workspace's stable content digest.
//!
//! Unlike an in-process hash-table mixer, FNV-1a over a canonical byte
//! encoding is an interchange fingerprint: the conformance harness's
//! lattice digests, the batch engine's spec→layout memo keys, the tiled
//! IR's digest, trace digests and the property harness's per-test seeds
//! all print or compare these values across runs, so the definition
//! lives here, spelled exactly once. (`mlv_grid::hasher` re-exports it
//! next to its Fx table hasher.)
//!
//! [`fnv1a_u64`] is the hot path — memo keys and IR digests hash
//! millions of small integers. FNV-1a's step on a zero byte is a bare
//! multiply (`(h ^ 0)·P = h·P`), so a word's high zero bytes fold into
//! one multiply by a power of the prime; the value is bit-identical to
//! hashing all eight little-endian bytes.

/// FNV-1a offset basis (the standard 64-bit initial state).
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^k` for `k = 0..=8`: the state multiplier of `k` zero
/// bytes.
const PRIME_POWERS: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// Fold `bytes` into an FNV-1a digest state. Start from [`FNV_BASIS`]
/// (or any prior digest, for incremental keying) and chain freely:
/// `fnv1a(fnv1a(FNV_BASIS, a), b)` digests the concatenated stream.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Digest a `u64` in little-endian byte order (canonical encoding for
/// numeric fields in content keys): exactly
/// `fnv1a(state, &word.to_le_bytes())`, with the word's high zero
/// bytes folded into one multiply.
#[inline]
pub fn fnv1a_u64(state: u64, word: u64) -> u64 {
    let zeros = (word.leading_zeros() / 8) as usize;
    let mut h = state;
    let mut w = word;
    for _ in zeros..8 {
        h ^= w & 0xff;
        h = h.wrapping_mul(FNV_PRIME);
        w >>= 8;
    }
    h.wrapping_mul(PRIME_POWERS[zeros])
}

// The published reference vectors and the chaining rule are tested
// where most callers import these, in `mlv_grid::hasher`.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mlv_proptest, prop_assert_eq};

    #[test]
    fn prime_powers_are_repeated_zero_bytes() {
        for (k, &p) in PRIME_POWERS.iter().enumerate() {
            assert_eq!(fnv1a(1, &vec![0u8; k]), p);
        }
    }

    #[test]
    fn folded_word_matches_bytewise_at_every_width_boundary() {
        let words = [
            0,
            1,
            0xff,
            0x100,
            (1u64 << 56) - 1,
            1 << 56,
            u64::MAX,
            (-1i64) as u64,
            (-2i64) as u64,
        ];
        for state in [FNV_BASIS, 0, 1, 7, u64::MAX, 0x0123_4567_89ab_cdef] {
            for &w in &words {
                assert_eq!(
                    fnv1a_u64(state, w),
                    fnv1a(state, &w.to_le_bytes()),
                    "state {state:#x} word {w:#x}"
                );
            }
        }
    }

    mlv_proptest! {
        cases = 512;

        /// Words of every byte width 0..=8 — masked from a random word,
        /// top bit of the width set, so exactly `8 - width` high bytes
        /// are zero — hash as their eight little-endian bytes do.
        #[test]
        fn folded_word_matches_bytewise(
            state in 0u64..u64::MAX,
            word in 0u64..u64::MAX,
            width in 0u32..9,
        ) {
            let w = match width {
                0 => 0,
                8 => word | 1 << 63,
                _ => (word & ((1 << (8 * width)) - 1)) | 1 << (8 * width - 1),
            };
            prop_assert_eq!(w.leading_zeros() / 8, 8 - width);
            prop_assert_eq!(fnv1a_u64(state, w), fnv1a(state, &w.to_le_bytes()));
        }
    }
}
