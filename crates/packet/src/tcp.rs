//! TCP segment construction and parsing (RFC 793).
//!
//! PacketLab endpoints offer native TCP sockets (Table 1's second `nopen`
//! form), and the netsim substrate implements a small reliable TCP over
//! these segment codecs — enough for handshake, ordered delivery,
//! retransmission, and receive-window flow control (the backpressure
//! mechanism §3.1 relies on when capture buffers fill).

use crate::{checksum, proto, ParseError};
use std::net::Ipv4Addr;

/// TCP header length without options, in bytes.
pub const HEADER_LEN: usize = 20;

/// Control flags.
pub mod flags {
    /// Final segment from sender.
    pub const FIN: u8 = 0x01;
    /// Synchronize sequence numbers.
    pub const SYN: u8 = 0x02;
    /// Reset the connection.
    pub const RST: u8 = 0x04;
    /// Push function.
    pub const PSH: u8 = 0x08;
    /// Acknowledgment field significant.
    pub const ACK: u8 = 0x10;
}

/// An owned TCP segment header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Control flags (see [`flags`]).
    pub flags: u8,
    /// Receive window.
    pub window: u16,
}

impl TcpHeader {
    /// Append the header and then `payload`, the concatenation of its
    /// parts (a send ring's two halves), to `buf`, and write the
    /// pseudo-header checksum in place over what was appended.
    pub fn emit(&self, buf: &mut Vec<u8>, src: Ipv4Addr, dst: Ipv4Addr, payload: &[&[u8]]) {
        let start = buf.len();
        buf.extend_from_slice(&self.src_port.to_be_bytes());
        buf.extend_from_slice(&self.dst_port.to_be_bytes());
        buf.extend_from_slice(&self.seq.to_be_bytes());
        buf.extend_from_slice(&self.ack.to_be_bytes());
        buf.extend_from_slice(&[5 << 4, self.flags]); // data offset = 5 words, no options
        buf.extend_from_slice(&self.window.to_be_bytes());
        buf.extend_from_slice(&[0; 4]); // checksum, urgent pointer
        payload.iter().for_each(|part| buf.extend_from_slice(part));
        let ck = checksum::transport_checksum(src, dst, proto::TCP, &buf[start..]);
        buf[start + 16..start + 18].copy_from_slice(&ck.to_be_bytes());
    }

    /// [`TcpHeader::emit`] into a fresh buffer.
    pub fn build(&self, src: Ipv4Addr, dst: Ipv4Addr, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
        self.emit(&mut buf, src, dst, &[payload]);
        buf
    }
}

/// A parsed TCP segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpView<'a> {
    /// The parsed header fields.
    pub header: TcpHeader,
    /// Payload after header+options.
    pub payload: &'a [u8],
}

impl<'a> TcpView<'a> {
    /// True if the given flag bit is set.
    pub fn has_flag(&self, flag: u8) -> bool {
        self.header.flags & flag != 0
    }
}

/// Parse a TCP segment, verifying the pseudo-header checksum.
pub fn parse<'a>(src: Ipv4Addr, dst: Ipv4Addr, buf: &'a [u8]) -> Result<TcpView<'a>, ParseError> {
    if buf.len() < HEADER_LEN {
        return Err(ParseError::Truncated);
    }
    let data_off = (buf[12] >> 4) as usize * 4;
    if data_off < HEADER_LEN || data_off > buf.len() {
        return Err(ParseError::Malformed);
    }
    if checksum::transport_checksum(src, dst, proto::TCP, buf) != 0 {
        return Err(ParseError::BadChecksum);
    }
    Ok(TcpView {
        header: TcpHeader {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            seq: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
            ack: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
            flags: buf[13],
            window: u16::from_be_bytes([buf[14], buf[15]]),
        },
        payload: &buf[data_off..],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(198, 51, 100, n)
    }

    fn hdr() -> TcpHeader {
        TcpHeader {
            src_port: 40000,
            dst_port: 80,
            seq: 1000,
            ack: 2000,
            flags: flags::ACK | flags::PSH,
            window: 65535,
        }
    }

    #[test]
    fn roundtrip() {
        let seg = hdr().build(a(1), a(2), b"GET /");
        let view = parse(a(1), a(2), &seg).unwrap();
        assert_eq!(view.header, hdr());
        assert_eq!(view.payload, b"GET /");
        assert!(view.has_flag(flags::ACK));
        assert!(!view.has_flag(flags::SYN));
    }

    #[test]
    fn syn_segment() {
        let mut h = hdr();
        h.flags = flags::SYN;
        let seg = h.build(a(1), a(2), &[]);
        let view = parse(a(1), a(2), &seg).unwrap();
        assert!(view.has_flag(flags::SYN));
        assert!(view.payload.is_empty());
    }

    #[test]
    fn checksum_covers_pseudo_header() {
        let seg = hdr().build(a(1), a(2), b"x");
        assert!(matches!(
            parse(a(9), a(2), &seg),
            Err(ParseError::BadChecksum)
        ));
    }

    #[test]
    fn corrupted_flags_rejected() {
        let mut seg = hdr().build(a(1), a(2), b"x");
        seg[13] ^= 0xff;
        assert!(matches!(
            parse(a(1), a(2), &seg),
            Err(ParseError::BadChecksum)
        ));
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            parse(a(1), a(2), &[0; 10]),
            Err(ParseError::Truncated)
        ));
    }

    #[test]
    fn bad_data_offset_rejected() {
        let mut seg = hdr().build(a(1), a(2), &[]);
        seg[12] = 2 << 4; // offset below minimum
        assert!(matches!(
            parse(a(1), a(2), &seg),
            Err(ParseError::Malformed)
        ));
    }

    #[test]
    fn wrapping_sequence_numbers() {
        let mut h = hdr();
        h.seq = u32::MAX;
        h.ack = u32::MAX - 1;
        let seg = h.build(a(1), a(2), b"z");
        let view = parse(a(1), a(2), &seg).unwrap();
        assert_eq!(view.header.seq, u32::MAX);
        assert_eq!(view.header.ack, u32::MAX - 1);
    }
}
