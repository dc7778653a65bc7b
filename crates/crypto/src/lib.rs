//! # plab-crypto
//!
//! From-scratch cryptographic primitives for the PacketLab reproduction.
//!
//! The PacketLab paper (IMC '17, §3.3) builds its access-control system on
//! "cryptographic certificates similar to X.509 certificates": a certificate
//! carries a hash of the signer's public key, a hash of the signed object,
//! an optional restriction list, and a digital signature. This crate provides
//! the primitives that the `packetlab` core crate composes into that system:
//!
//! - [`sha256`] / [`sha512`] — FIPS 180-4 hash functions (SHA-256 is the
//!   certificate object/key hash; SHA-512 is required internally by Ed25519).
//! - [`ed25519`] — RFC 8032 Ed25519 signatures, used to sign certificates and
//!   experiment descriptors.
//!
//! ## Why from scratch?
//!
//! The approved offline dependency set for this reproduction contains no
//! cryptography crate, so the primitives are implemented here and validated
//! against the published test vectors (FIPS 180-4 / RFC 8032) in each
//! module's tests. The implementations favour clarity and correctness over
//! raw speed; they are *not* hardened against timing side channels and should
//! not be lifted into unrelated production systems.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod ed25519;
pub mod hex;
pub mod sha256;
pub mod sha512;

pub use ed25519::{Keypair, PublicKey, SecretKey, Signature};
pub use sha256::Digest256;

/// A 32-byte identifier for a public key: the SHA-256 hash of its encoding.
///
/// The paper identifies keys by hash ("Public keys are identified by their
/// hash value", §3.3); rendezvous channels are likewise named by key hash.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KeyHash(pub [u8; 32]);

impl KeyHash {
    /// Hash a public key into its identifier.
    pub fn of(key: &PublicKey) -> Self {
        KeyHash(sha256::digest(key.as_bytes()).0)
    }
}

impl core::fmt::Debug for KeyHash {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "KeyHash({}..)", hex::encode(&self.0[..6]))
    }
}

impl core::fmt::Display for KeyHash {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", hex::encode(&self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_hash_is_sha256_of_key_bytes() {
        let kp = Keypair::from_seed(&[7u8; 32]);
        let kh = KeyHash::of(&kp.public);
        assert_eq!(kh.0, sha256::digest(kp.public.as_bytes()).0);
    }

    #[test]
    fn key_hash_display_roundtrip() {
        let kh = KeyHash([0xab; 32]);
        let s = kh.to_string();
        assert_eq!(s.len(), 64);
        assert!(s.chars().all(|c| c == 'a' || c == 'b'));
    }
}
