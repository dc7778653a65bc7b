//! The Internet checksum (RFC 1071) and transport pseudo-header sums.

use std::net::Ipv4Addr;

/// Incremental ones-complement sum accumulator.
#[derive(Default, Clone, Copy)]
pub struct Checksum {
    sum: u32,
}

impl Checksum {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a big-endian 16-bit word.
    pub fn add_u16(&mut self, v: u16) -> &mut Self {
        self.sum += v as u32;
        self
    }

    /// Add a 32-bit value as two 16-bit words.
    pub fn add_u32(&mut self, v: u32) -> &mut Self {
        self.add_u16((v >> 16) as u16);
        self.add_u16(v as u16)
    }

    /// Add raw bytes (padded with a zero byte if odd length), as
    /// little-endian 32-bit words in four 64-bit lanes: a 32-bit word is
    /// two 16-bit ones modulo 2^16 − 1, and the little-endian sum is the
    /// big-endian one byte-swapped (RFC 1071 §2(B)).
    pub fn add_bytes(&mut self, data: &[u8]) -> &mut Self {
        let mut lanes = [0u64; 4];
        let mut add = |block: &[u8]| {
            for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(4)) {
                *lane += u64::from(u32::from_le_bytes(word.try_into().unwrap()));
            }
        };
        let mut blocks = data.chunks_exact(16);
        blocks.by_ref().for_each(&mut add);
        let mut last = [0u8; 16];
        last[..blocks.remainder().len()].copy_from_slice(blocks.remainder());
        add(&last);
        let mut sum: u64 = lanes.iter().map(|l| (l & 0xffff_ffff) + (l >> 32)).sum();
        while sum > 0xffff {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        self.add_u16((sum as u16).swap_bytes())
    }

    /// Fold carries and return the ones-complement result.
    pub fn finish(&self) -> u16 {
        let mut s = self.sum;
        while s > 0xffff {
            s = (s & 0xffff) + (s >> 16);
        }
        !(s as u16)
    }
}

/// One-shot checksum of a byte slice.
pub fn checksum(data: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add_bytes(data);
    c.finish()
}

/// Checksum for UDP/TCP: IPv4 pseudo-header (src, dst, proto, length) plus
/// the transport header and payload bytes.
pub fn transport_checksum(src: Ipv4Addr, dst: Ipv4Addr, proto: u8, segment: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add_u32(u32::from(src));
    c.add_u32(u32::from(dst));
    c.add_u16(proto as u16);
    c.add_u16(segment.len() as u16);
    c.add_bytes(segment);
    c.finish()
}

/// Verify data containing an embedded checksum field sums to zero.
pub fn verify(data: &[u8]) -> bool {
    checksum(data) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sum as RFC 1071 writes it: big-endian byte pairs, an odd last
    /// byte padded with zero.
    fn add_byte_pairs(c: &mut Checksum, data: &[u8]) {
        let mut pairs = data.chunks_exact(2);
        for p in &mut pairs {
            c.add_u16(u16::from_be_bytes([p[0], p[1]]));
        }
        if let [last] = pairs.remainder() {
            c.add_u16(u16::from_be_bytes([*last, 0]));
        }
    }

    /// `add_bytes` against the byte-pair sum on every length 0–1,500 at
    /// start offsets 0–3, over all-zero, all-0xff and seeded bytes, whole
    /// and split at odd offsets (each piece an odd-length call, so padded),
    /// after a word that leaves the accumulator non-zero.
    #[test]
    fn add_bytes_matches_the_byte_pair_sum() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let seeded: Vec<u8> = (0..1504)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        for data in [vec![0; 1504], vec![0xff; 1504], seeded] {
            for offset in 0..4 {
                for len in 0..=1500 {
                    let bytes = &data[offset..offset + len];
                    let splits = [len, (len / 2) | 1, (len / 3) | 1, 1];
                    for split in splits.into_iter().filter(|&at| at <= len) {
                        let (head, tail) = bytes.split_at(split);
                        let mut fast = Checksum::new();
                        fast.add_u16(0x1234).add_bytes(head).add_bytes(tail);
                        let mut slow = Checksum::new();
                        slow.add_u16(0x1234);
                        add_byte_pairs(&mut slow, head);
                        add_byte_pairs(&mut slow, tail);
                        assert_eq!(fast.finish(), slow.finish(), "{offset}+{len} at {split}");
                    }
                    let mut slow = Checksum::new();
                    add_byte_pairs(&mut slow, bytes);
                    assert_eq!(checksum(bytes), slow.finish(), "{offset}+{len}");
                }
            }
        }
    }

    #[test]
    fn rfc1071_example() {
        // Classic example: 00 01 f2 03 f4 f5 f6 f7 -> sum 0xddf2, cksum 0x220d.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(checksum(&data), 0x220d);
    }

    #[test]
    fn odd_length_padding() {
        // Odd byte counts as high byte of a zero-padded word.
        assert_eq!(checksum(&[0xab]), !0xab00);
    }

    #[test]
    fn empty_is_all_ones() {
        assert_eq!(checksum(&[]), 0xffff);
    }

    #[test]
    fn embedded_checksum_verifies() {
        // Build data, insert checksum at offset 2, then verify sums to 0.
        let mut data = vec![0x45, 0x00, 0x00, 0x00, 0x12, 0x34, 0xab, 0xcd];
        let ck = checksum(&data);
        data[2..4].copy_from_slice(&ck.to_be_bytes());
        assert!(verify(&data));
    }

    #[test]
    fn transport_checksum_differs_by_addr() {
        let seg = [1, 2, 3, 4];
        let a = transport_checksum(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            17,
            &seg,
        );
        let b = transport_checksum(
            Ipv4Addr::new(10, 0, 0, 3),
            Ipv4Addr::new(10, 0, 0, 2),
            17,
            &seg,
        );
        assert_ne!(a, b);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..57u8).collect();
        let mut c = Checksum::new();
        for chunk in data.chunks(2) {
            // chunks of 2 keep word alignment; compare with one-shot
            c.add_bytes(chunk);
        }
        assert_eq!(c.finish(), checksum(&data));
    }
}
