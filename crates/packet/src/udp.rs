//! UDP header construction and parsing (RFC 768).

use crate::{checksum, proto, ParseError};
use std::net::Ipv4Addr;

/// UDP header length in bytes.
pub const HEADER_LEN: usize = 8;

/// A parsed UDP datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpView<'a> {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload bytes.
    pub payload: &'a [u8],
}

/// Build a UDP segment (header + payload) with a valid pseudo-header
/// checksum.
pub fn build(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    emit(&mut buf, src, dst, src_port, dst_port, payload);
    buf
}

/// Append a UDP segment to `buf` and checksum it in place — the
/// zero-allocation form of [`build`] used on the simulator hot path.
pub fn emit(
    buf: &mut Vec<u8>,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
) {
    let start = buf.len();
    let len = HEADER_LEN + payload.len();
    assert!(len <= u16::MAX as usize, "UDP datagram too large");
    buf.resize(start + HEADER_LEN, 0);
    buf[start..start + 2].copy_from_slice(&src_port.to_be_bytes());
    buf[start + 2..start + 4].copy_from_slice(&dst_port.to_be_bytes());
    buf[start + 4..start + 6].copy_from_slice(&(len as u16).to_be_bytes());
    buf.extend_from_slice(payload);
    let ck = checksum::transport_checksum(src, dst, proto::UDP, &buf[start..]);
    // RFC 768: a computed checksum of zero is transmitted as all-ones.
    let ck = if ck == 0 { 0xffff } else { ck };
    buf[start + 6..start + 8].copy_from_slice(&ck.to_be_bytes());
}

/// Parse a UDP segment, verifying length and (if nonzero) checksum.
pub fn parse<'a>(src: Ipv4Addr, dst: Ipv4Addr, buf: &'a [u8]) -> Result<UdpView<'a>, ParseError> {
    if buf.len() < HEADER_LEN {
        return Err(ParseError::Truncated);
    }
    let len = u16::from_be_bytes([buf[4], buf[5]]) as usize;
    if len < HEADER_LEN || len > buf.len() {
        return Err(ParseError::BadLength);
    }
    let ck_field = u16::from_be_bytes([buf[6], buf[7]]);
    if ck_field != 0 && checksum::transport_checksum(src, dst, proto::UDP, &buf[..len]) != 0 {
        return Err(ParseError::BadChecksum);
    }
    Ok(UdpView {
        src_port: u16::from_be_bytes([buf[0], buf[1]]),
        dst_port: u16::from_be_bytes([buf[2], buf[3]]),
        payload: &buf[HEADER_LEN..len],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(192, 0, 2, n)
    }

    #[test]
    fn roundtrip() {
        let seg = build(a(1), a(2), 5353, 53, b"query");
        let view = parse(a(1), a(2), &seg).unwrap();
        assert_eq!(view.src_port, 5353);
        assert_eq!(view.dst_port, 53);
        assert_eq!(view.payload, b"query");
    }

    #[test]
    fn empty_payload() {
        let seg = build(a(1), a(2), 1, 2, &[]);
        assert_eq!(seg.len(), HEADER_LEN);
        assert_eq!(parse(a(1), a(2), &seg).unwrap().payload, b"");
    }

    #[test]
    fn checksum_covers_addresses() {
        let seg = build(a(1), a(2), 1, 2, b"data");
        // Parsing with the wrong pseudo-header must fail.
        assert!(matches!(
            parse(a(3), a(2), &seg),
            Err(ParseError::BadChecksum)
        ));
    }

    #[test]
    fn corrupted_payload_rejected() {
        let mut seg = build(a(1), a(2), 1, 2, b"data");
        let last = seg.len() - 1;
        seg[last] ^= 0xff;
        assert!(matches!(
            parse(a(1), a(2), &seg),
            Err(ParseError::BadChecksum)
        ));
    }

    #[test]
    fn zero_checksum_skips_verification() {
        let mut seg = build(a(1), a(2), 1, 2, b"data");
        seg[6] = 0;
        seg[7] = 0;
        assert!(parse(a(1), a(2), &seg).is_ok());
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            parse(a(1), a(2), &[0; 4]),
            Err(ParseError::Truncated)
        ));
    }

    #[test]
    fn bad_length_field_rejected() {
        let mut seg = build(a(1), a(2), 1, 2, b"data");
        seg[4] = 0xff;
        seg[5] = 0xff;
        assert!(matches!(
            parse(a(1), a(2), &seg),
            Err(ParseError::BadLength)
        ));
    }

    #[test]
    fn length_shorter_than_buffer_ok() {
        // Extra trailing bytes beyond the UDP length are ignored.
        let mut seg = build(a(1), a(2), 7, 8, b"ab");
        seg.push(0xee);
        let view = parse(a(1), a(2), &seg).unwrap();
        assert_eq!(view.payload, b"ab");
    }
}
