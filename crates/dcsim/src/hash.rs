//! FNV-1a: the one hash behind the determinism fingerprints and the
//! fabric's ECMP flow hash. It is stable across runs, platforms and
//! releases, which `std`'s hashers do not promise.

/// The 64-bit FNV-1a offset basis: the hash of no bytes.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the FNV-1a hash `hash`. Start from
/// [`FNV1A_OFFSET`]; folding pieces one after another hashes their
/// concatenation.
///
/// ```
/// use dcsim::{fnv1a, FNV1A_OFFSET};
/// assert_eq!(fnv1a(FNV1A_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
/// assert_eq!(fnv1a(fnv1a(FNV1A_OFFSET, b"ab"), b"c"), fnv1a(FNV1A_OFFSET, b"abc"));
/// ```
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    (bytes.iter()).fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV1A_PRIME))
}
