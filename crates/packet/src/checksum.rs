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

    /// Add raw bytes (padded with a zero byte if odd length).
    pub fn add_bytes(&mut self, data: &[u8]) -> &mut Self {
        let mut chunks = data.chunks_exact(2);
        for c in &mut chunks {
            self.add_u16(u16::from_be_bytes([c[0], c[1]]));
        }
        if let [last] = chunks.remainder() {
            self.add_u16(u16::from_be_bytes([*last, 0]));
        }
        self
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
