//! IPv4 header parsing and serialization (RFC 791).

use crate::{checksum, ParseError};
use std::net::Ipv4Addr;

/// Minimum IPv4 header length (no options), in bytes.
pub const MIN_HEADER_LEN: usize = 20;

/// Flag bit: don't fragment.
pub const FLAG_DF: u8 = 0b010;
/// Flag bit: more fragments.
pub const FLAG_MF: u8 = 0b001;

/// A parsed-out, owned IPv4 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Differentiated services / ECN byte.
    pub tos: u8,
    /// Total datagram length in bytes (header + payload).
    pub total_len: u16,
    /// Identification field.
    pub ident: u16,
    /// Flags (3 bits: reserved, DF, MF).
    pub flags: u8,
    /// Fragment offset in 8-byte units.
    pub frag_offset: u16,
    /// Time to live.
    pub ttl: u8,
    /// Protocol number (see [`crate::proto`]).
    pub protocol: u8,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
}

impl Ipv4Header {
    /// A header template with sensible defaults (TTL 64, no fragmentation).
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8) -> Self {
        Ipv4Header {
            tos: 0,
            total_len: MIN_HEADER_LEN as u16,
            ident: 0,
            flags: FLAG_DF,
            frag_offset: 0,
            ttl: 64,
            protocol,
            src,
            dst,
        }
    }

    /// Serialize the header (20 bytes, checksum filled in) followed by
    /// `payload` into a fresh datagram. `total_len` is recomputed.
    pub fn build(&self, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(MIN_HEADER_LEN + payload.len());
        self.build_into(payload, &mut buf);
        buf
    }

    /// Like [`Ipv4Header::build`], but writes into `buf` (cleared first) so
    /// callers can reuse pooled buffers instead of allocating per datagram.
    pub fn build_into(&self, payload: &[u8], buf: &mut Vec<u8>) {
        self.build_with(buf, |b| b.extend_from_slice(payload));
    }

    /// Like [`Ipv4Header::build_into`], but the payload is appended by
    /// `emit` directly after the header bytes — no intermediate payload
    /// allocation. `emit` must only append; the length and checksum
    /// fields are patched afterwards.
    pub fn build_with(&self, buf: &mut Vec<u8>, emit: impl FnOnce(&mut Vec<u8>)) {
        buf.clear();
        buf.resize(MIN_HEADER_LEN, 0);
        emit(buf);
        let total = buf.len();
        assert!(total <= u16::MAX as usize, "datagram too large");
        buf[0] = 0x45; // version 4, IHL 5
        buf[1] = self.tos;
        buf[2..4].copy_from_slice(&(total as u16).to_be_bytes());
        buf[4..6].copy_from_slice(&self.ident.to_be_bytes());
        let ff = ((self.flags as u16) << 13) | (self.frag_offset & 0x1fff);
        buf[6..8].copy_from_slice(&ff.to_be_bytes());
        buf[8] = self.ttl;
        buf[9] = self.protocol;
        buf[10] = 0;
        buf[11] = 0;
        buf[12..16].copy_from_slice(&self.src.octets());
        buf[16..20].copy_from_slice(&self.dst.octets());
        let ck = checksum::checksum(&buf[..MIN_HEADER_LEN]);
        buf[10..12].copy_from_slice(&ck.to_be_bytes());
    }
}

/// A zero-copy typed view over an IPv4 datagram.
#[derive(Debug, Clone, Copy)]
pub struct Ipv4View<'a> {
    buf: &'a [u8],
}

impl<'a> Ipv4View<'a> {
    /// Parse, validating structure and header checksum.
    pub fn new(buf: &'a [u8]) -> Result<Self, ParseError> {
        if buf.len() < MIN_HEADER_LEN {
            return Err(ParseError::Truncated);
        }
        if buf[0] >> 4 != 4 {
            return Err(ParseError::Malformed);
        }
        let ihl = (buf[0] & 0xf) as usize * 4;
        if ihl < MIN_HEADER_LEN || buf.len() < ihl {
            return Err(ParseError::Malformed);
        }
        let total = u16::from_be_bytes([buf[2], buf[3]]) as usize;
        if total < ihl || total > buf.len() {
            return Err(ParseError::BadLength);
        }
        if checksum::checksum(&buf[..ihl]) != 0 {
            return Err(ParseError::BadChecksum);
        }
        Ok(Ipv4View { buf })
    }

    /// Parse without verifying the checksum (for packets in flight whose
    /// checksum is being rewritten, e.g. inside a NAT).
    pub fn new_unchecked(buf: &'a [u8]) -> Result<Self, ParseError> {
        if buf.len() < MIN_HEADER_LEN || buf[0] >> 4 != 4 {
            return Err(ParseError::Truncated);
        }
        Ok(Ipv4View { buf })
    }

    /// IP version (always 4 for a successfully parsed view).
    pub fn version(&self) -> u8 {
        self.buf[0] >> 4
    }

    /// Header length in 32-bit words.
    pub fn ihl(&self) -> u8 {
        self.buf[0] & 0xf
    }

    /// Header length in bytes.
    pub fn header_len(&self) -> usize {
        self.ihl() as usize * 4
    }

    /// Type-of-service byte.
    pub fn tos(&self) -> u8 {
        self.buf[1]
    }

    /// Total datagram length from the header.
    pub fn total_len(&self) -> u16 {
        u16::from_be_bytes([self.buf[2], self.buf[3]])
    }

    /// Identification field.
    pub fn ident(&self) -> u16 {
        u16::from_be_bytes([self.buf[4], self.buf[5]])
    }

    /// Flags (3 bits).
    pub fn flags(&self) -> u8 {
        self.buf[6] >> 5
    }

    /// Fragment offset in 8-byte units.
    pub fn frag_offset(&self) -> u16 {
        u16::from_be_bytes([self.buf[6], self.buf[7]]) & 0x1fff
    }

    /// Time to live.
    pub fn ttl(&self) -> u8 {
        self.buf[8]
    }

    /// Protocol number.
    pub fn protocol(&self) -> u8 {
        self.buf[9]
    }

    /// Source address.
    pub fn src(&self) -> Ipv4Addr {
        Ipv4Addr::new(self.buf[12], self.buf[13], self.buf[14], self.buf[15])
    }

    /// Destination address.
    pub fn dst(&self) -> Ipv4Addr {
        Ipv4Addr::new(self.buf[16], self.buf[17], self.buf[18], self.buf[19])
    }

    /// The payload after the header, bounded by `total_len`.
    pub fn payload(&self) -> &'a [u8] {
        let start = self.header_len();
        let end = (self.total_len() as usize).min(self.buf.len());
        &self.buf[start..end]
    }
}

/// Rewrite the TTL of a serialized datagram in place (decrementing routers),
/// incrementally fixing the header checksum per RFC 1624.
pub fn decrement_ttl(buf: &mut [u8]) -> bool {
    if buf.len() < MIN_HEADER_LEN || buf[8] == 0 {
        return false;
    }
    buf[8] -= 1;
    // Incremental update: HC' = ~(~HC + ~m + m') with m = old ttl<<8|proto.
    let old = u16::from_be_bytes([buf[10], buf[11]]);
    let m_old = u16::from_be_bytes([buf[8] + 1, buf[9]]);
    let m_new = u16::from_be_bytes([buf[8], buf[9]]);
    let mut sum = (!old as u32) + (!m_old as u32) + (m_new as u32);
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    let new = !(sum as u16);
    buf[10..12].copy_from_slice(&new.to_be_bytes());
    true
}

/// Rewrite the source address in place, fixing the header checksum (NAT).
pub fn rewrite_src(buf: &mut [u8], new_src: Ipv4Addr) {
    rewrite_addr(buf, 12, new_src);
}

/// Rewrite the destination address in place, fixing the header checksum.
pub fn rewrite_dst(buf: &mut [u8], new_dst: Ipv4Addr) {
    rewrite_addr(buf, 16, new_dst);
}

fn rewrite_addr(buf: &mut [u8], off: usize, addr: Ipv4Addr) {
    assert!(buf.len() >= MIN_HEADER_LEN);
    buf[off..off + 4].copy_from_slice(&addr.octets());
    // Recompute the whole header checksum (simpler than incremental here).
    let ihl = (buf[0] & 0xf) as usize * 4;
    buf[10] = 0;
    buf[11] = 0;
    let ck = checksum::checksum(&buf[..ihl]);
    buf[10..12].copy_from_slice(&ck.to_be_bytes());
}

/// Convenience: does this datagram carry the given protocol?
pub fn is_proto(buf: &[u8], protocol: u8) -> bool {
    Ipv4View::new_unchecked(buf)
        .map(|v| v.protocol() == protocol)
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto;

    fn addr(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, n)
    }

    #[test]
    fn build_parse_roundtrip() {
        let hdr = Ipv4Header::new(addr(1), addr(2), proto::UDP);
        let pkt = hdr.build(b"hello");
        let view = Ipv4View::new(&pkt).unwrap();
        assert_eq!(view.version(), 4);
        assert_eq!(view.ihl(), 5);
        assert_eq!(view.src(), addr(1));
        assert_eq!(view.dst(), addr(2));
        assert_eq!(view.protocol(), proto::UDP);
        assert_eq!(view.ttl(), 64);
        assert_eq!(view.total_len(), 25);
        assert_eq!(view.payload(), b"hello");
    }

    #[test]
    fn checksum_is_valid_on_build() {
        let pkt = Ipv4Header::new(addr(1), addr(2), proto::ICMP).build(&[]);
        assert_eq!(checksum::checksum(&pkt[..20]), 0);
    }

    #[test]
    fn corrupted_checksum_rejected() {
        let mut pkt = Ipv4Header::new(addr(1), addr(2), proto::ICMP).build(&[]);
        pkt[8] ^= 0xff; // mangle TTL without fixing checksum
        assert!(matches!(Ipv4View::new(&pkt), Err(ParseError::BadChecksum)));
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            Ipv4View::new(&[0x45; 10]),
            Err(ParseError::Truncated)
        ));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut pkt = Ipv4Header::new(addr(1), addr(2), proto::ICMP).build(&[]);
        pkt[0] = 0x65; // version 6
        assert!(matches!(Ipv4View::new(&pkt), Err(ParseError::Malformed)));
    }

    #[test]
    fn bad_total_len_rejected() {
        let mut pkt = Ipv4Header::new(addr(1), addr(2), proto::ICMP).build(b"xy");
        pkt[2] = 0xff;
        pkt[3] = 0xff; // total_len larger than buffer
        assert!(matches!(Ipv4View::new(&pkt), Err(ParseError::BadLength)));
    }

    #[test]
    fn ttl_decrement_preserves_checksum_validity() {
        let mut pkt = Ipv4Header::new(addr(1), addr(2), proto::ICMP).build(b"abc");
        for expect in (0..64u8).rev() {
            assert!(decrement_ttl(&mut pkt));
            let view = Ipv4View::new(&pkt).expect("checksum must stay valid");
            assert_eq!(view.ttl(), expect);
        }
        // TTL now 0: no further decrement.
        assert!(!decrement_ttl(&mut pkt));
    }

    #[test]
    fn rewrite_src_preserves_checksum() {
        let mut pkt = Ipv4Header::new(addr(1), addr(2), proto::UDP).build(b"p");
        rewrite_src(&mut pkt, Ipv4Addr::new(192, 168, 1, 100));
        let view = Ipv4View::new(&pkt).unwrap();
        assert_eq!(view.src(), Ipv4Addr::new(192, 168, 1, 100));
        assert_eq!(view.dst(), addr(2));
    }

    #[test]
    fn rewrite_dst_preserves_checksum() {
        let mut pkt = Ipv4Header::new(addr(1), addr(2), proto::UDP).build(b"p");
        rewrite_dst(&mut pkt, Ipv4Addr::new(8, 8, 8, 8));
        let view = Ipv4View::new(&pkt).unwrap();
        assert_eq!(view.dst(), Ipv4Addr::new(8, 8, 8, 8));
    }

    #[test]
    fn header_roundtrip_through_view() {
        let mut hdr = Ipv4Header::new(addr(9), addr(7), proto::TCP);
        hdr.ttl = 3;
        hdr.ident = 0xbeef;
        hdr.tos = 0x10;
        let pkt = hdr.build(b"zz");
        let parsed = Ipv4View::new(&pkt).unwrap();
        assert_eq!(parsed.ttl(), 3);
        assert_eq!(parsed.ident(), 0xbeef);
        assert_eq!(parsed.tos(), 0x10);
        assert_eq!(parsed.total_len(), 22);
    }

    #[test]
    fn is_proto_helpers() {
        let pkt = Ipv4Header::new(addr(1), addr(2), proto::ICMP).build(&[]);
        assert!(is_proto(&pkt, proto::ICMP));
        assert!(!is_proto(&pkt, proto::UDP));
        assert!(!is_proto(&[], proto::ICMP));
    }
}
