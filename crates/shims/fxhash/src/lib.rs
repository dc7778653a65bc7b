//! Local stand-in for the `fxhash`/`rustc-hash` crate: the Firefox/rustc
//! multiply-mix hasher, vendored because the build environment has no
//! crates.io access.
//!
//! SipHash (the std default) exists to resist hash-flooding from untrusted
//! input; simulator-internal keys (node indices, ports, flow tuples) are
//! trusted, so the netsim hot path swaps in this ~5x cheaper mix. The
//! function is deterministic across runs and platforms of the same
//! pointer width — and all keys hashed on the simulator hot path write
//! fixed-width integers, so iteration-free lookups are reproducible
//! everywhere.
//!
//! The algorithm follows the classic FxHasher: for each machine word of
//! input, `state = (state.rotate_left(5) ^ word) * K` with K an odd
//! multiplicative constant derived from the golden ratio. `finish`
//! rotates the product's high bits down, as rustc-hash 2.x does: a
//! multiply leaves its entropy at the top, and hashbrown takes the
//! bucket from the bottom.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::hash::{BuildHasherDefault, Hasher};

/// Odd golden-ratio multiplier (2^64 / phi, forced odd), the usual 64-bit
/// Fx constant.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// The Fx multiply-mix hasher. Not flooding-resistant; use only for
/// trusted keys.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Length-tag the tail word so "ab" and "ab\0" differ.
            self.add_to_hash(u64::from_le_bytes(tail) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The low n bits of a product depend only on the low n bits of
        // its operands, so keys that agree there (every `10.128.x.y`
        // address: its word's low 16 bits are the first two octets)
        // would share one bucket chain. The high bits mix all of them.
        self.hash.rotate_left(20)
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using the Fx hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using the Fx hasher.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(&12345u64), hash_of(&12345u64));
        assert_eq!(hash_of(&"hello"), hash_of(&"hello"));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&"ab"), hash_of(&"ab\0"));
        assert_ne!(hash_of(&(6u8, 1u16)), hash_of(&(1u8, 6u16)));
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(7, "seven");
        assert_eq!(m.get(&7), Some(&"seven"));
        let mut s: FxHashSet<u16> = FxHashSet::default();
        s.insert(443);
        assert!(s.contains(&443));
    }

    /// Largest bucket when `keys` are placed by the low 16 bits of their
    /// hash, as a 2^16-bucket hashbrown table would place them.
    fn max_occupancy<T: Hash>(keys: impl Iterator<Item = T>) -> usize {
        let mut buckets = vec![0usize; 1 << 16];
        for k in keys {
            buckets[hash_of(&k) as usize & 0xffff] += 1;
        }
        buckets.into_iter().max().unwrap()
    }

    #[test]
    fn simulator_keys_spread_over_low_bits() {
        // What netsim's maps hold: host addresses that share their first
        // two octets (route tables), ports (UDP sockets, TCP listeners),
        // and (protocol, id) pairs (NAT). 65,536 keys into 65,536
        // buckets: a uniform hash peaks near 8.
        let addrs = (0..=255u8)
            .flat_map(|x| (0..=255u8).map(move |y| std::net::Ipv4Addr::new(10, 128, x, y)));
        assert!(max_occupancy(addrs) <= 16, "addresses pile up");
        assert!(max_occupancy(0..=u16::MAX) <= 16, "ports pile up");
        let nat = [1u8, 6, 17, 47]
            .into_iter()
            .flat_map(|p| (0..1u16 << 14).map(move |id| (p, 50_000u16.wrapping_add(id))));
        assert!(max_occupancy(nat) <= 16, "NAT keys pile up");
    }

    #[test]
    fn spreads_small_keys() {
        // Sequential small integers must not collide in low bits en masse
        // (the property HashMap bucket indexing relies on).
        let mut low_bits: FxHashSet<u64> = FxHashSet::default();
        for i in 0..64u64 {
            low_bits.insert(hash_of(&i) & 0x3f);
        }
        assert!(low_bits.len() > 32, "low bits too clustered");
    }
}
