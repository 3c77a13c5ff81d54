//! Chained FNV-1a hashing for state digests and frame checksums.
//!
//! The flight recorder needs a hash that is (a) deterministic across
//! platforms and builds, (b) cheap enough to run on every simulation
//! event, and (c) trivially re-implementable in other languages for
//! offline log analysis. 64-bit FNV-1a satisfies all three; it is not
//! cryptographic and does not need to be — the digest detects
//! *divergence*, not tampering by an adversary.
//!
//! Digests are *chained*: each event folds its fields into the running
//! hash, so a single differing field anywhere in the run changes every
//! subsequent digest. That is what lets replay pinpoint the **first**
//! divergent event rather than just "the runs differ somewhere".

/// FNV-1a 64-bit offset basis — the initial state of an empty digest.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold a byte slice into an existing digest state.
#[inline]
pub fn fold_bytes(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// Fold a little-endian `u64` into an existing digest state.
#[inline]
pub fn fold_u64(state: u64, v: u64) -> u64 {
    fold_bytes(state, &v.to_le_bytes())
}

/// Hash a byte slice from scratch (offset basis start).
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fold_bytes(FNV_OFFSET, bytes)
}

/// Frame checksum: FNV-1a 64 over the frame body, truncated to 32 bits.
///
/// Truncation keeps frames compact; 32 bits is ample for detecting the
/// torn writes and bit flips the checksum exists to catch.
#[inline]
pub fn frame_check(bytes: &[u8]) -> u32 {
    fnv1a(bytes) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn chaining_matches_concatenation() {
        let whole = fnv1a(b"hello world");
        let parts = fold_bytes(fold_bytes(FNV_OFFSET, b"hello "), b"world");
        assert_eq!(whole, parts);
    }

    #[test]
    fn u64_fold_is_le_bytes() {
        let v = 0x0123_4567_89ab_cdefu64;
        assert_eq!(fold_u64(FNV_OFFSET, v), fnv1a(&v.to_le_bytes()));
    }
}
