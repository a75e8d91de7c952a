//! FNV-1a: the workspace's one stable byte hash.
//!
//! Persisted-image checksums, the fuzzer's run fingerprint, and the
//! checker's component content hashes all fold bytes with these constants.
//! None of them may use [`std::collections::hash_map::DefaultHasher`]: its
//! output is not promised to be stable across releases, and these values
//! are written to disk or pinned in tests.

/// The FNV-1a 64-bit offset basis.
pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a 64-bit prime.
pub const PRIME: u64 = 0x100_0000_01b3;

/// Folds `bytes` into the FNV-1a state `hash`. A `hash` of 0 starts from
/// the offset basis, so `fnv1a(0, bytes)` is plain FNV-1a of `bytes` and
/// chained calls accumulate.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = if hash == 0 { OFFSET } else { hash };
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(fnv1a(0, b""), OFFSET);
        assert_eq!(fnv1a(0, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(0, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a(fnv1a(0, b"foo"), b"bar"), fnv1a(0, b"foobar"), "chaining accumulates");
    }
}
