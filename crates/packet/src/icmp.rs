//! ICMP message construction and parsing (RFC 792).
//!
//! The paper's §4 traceroute experiment and Figure 2 monitor revolve around
//! three message types: echo request, echo reply, and time exceeded (which
//! embeds the originating IP header — the monitor inspects
//! `icmp.orig.ip.src` / `icmp.orig.ip.dst` inside it).

use crate::{checksum, ParseError};

/// ICMP type: echo reply.
pub const TYPE_ECHO_REPLY: u8 = 0;
/// ICMP type: destination unreachable.
pub const TYPE_DEST_UNREACHABLE: u8 = 3;
/// ICMP type: echo request.
pub const TYPE_ECHO_REQUEST: u8 = 8;
/// ICMP type: time exceeded.
pub const TYPE_TIME_EXCEEDED: u8 = 11;

/// Code for time-exceeded: TTL expired in transit.
pub const CODE_TTL_EXPIRED: u8 = 0;
/// Code for destination unreachable: port unreachable.
pub const CODE_PORT_UNREACHABLE: u8 = 3;

/// Minimum ICMP header length in bytes.
pub const HEADER_LEN: usize = 8;

/// A parsed ICMP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IcmpMessage<'a> {
    /// Echo request with identifier, sequence, payload.
    EchoRequest {
        /// Identifier (conventionally the "ping session").
        ident: u16,
        /// Sequence number.
        seq: u16,
        /// Echo payload.
        payload: &'a [u8],
    },
    /// Echo reply mirroring a request.
    EchoReply {
        /// Identifier copied from the request.
        ident: u16,
        /// Sequence copied from the request.
        seq: u16,
        /// Payload copied from the request.
        payload: &'a [u8],
    },
    /// TTL expired at a router; carries the leading bytes of the original
    /// datagram (IP header + at least 8 payload bytes).
    TimeExceeded {
        /// Code (0 = TTL in transit).
        code: u8,
        /// Original datagram prefix.
        original: &'a [u8],
    },
    /// Destination unreachable; carries the original datagram prefix.
    DestUnreachable {
        /// Code (3 = port unreachable, ...).
        code: u8,
        /// Original datagram prefix.
        original: &'a [u8],
    },
    /// Any other type/code.
    Other {
        /// ICMP type.
        icmp_type: u8,
        /// ICMP code.
        code: u8,
        /// Bytes after the 8-byte header.
        body: &'a [u8],
    },
}

/// Build an ICMP echo request message (the ICMP part only; wrap in IPv4
/// with [`crate::builder`]).
pub fn build_echo_request(ident: u16, seq: u16, payload: &[u8]) -> Vec<u8> {
    build_echo(TYPE_ECHO_REQUEST, ident, seq, payload)
}

/// Build an ICMP echo reply.
pub fn build_echo_reply(ident: u16, seq: u16, payload: &[u8]) -> Vec<u8> {
    build_echo(TYPE_ECHO_REPLY, ident, seq, payload)
}

fn build_echo(icmp_type: u8, ident: u16, seq: u16, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    emit_echo(&mut buf, icmp_type, ident, seq, payload);
    buf
}

/// Append an echo message to `buf` and checksum it in place — the
/// zero-allocation form of [`build_echo_request`]/[`build_echo_reply`]
/// used on the simulator hot path.
pub fn emit_echo(buf: &mut Vec<u8>, icmp_type: u8, ident: u16, seq: u16, payload: &[u8]) {
    let start = buf.len();
    buf.resize(start + HEADER_LEN, 0);
    buf[start] = icmp_type;
    buf[start + 4..start + 6].copy_from_slice(&ident.to_be_bytes());
    buf[start + 6..start + 8].copy_from_slice(&seq.to_be_bytes());
    buf.extend_from_slice(payload);
    fill_checksum(&mut buf[start..]);
}

/// Build a time-exceeded message quoting the original datagram.
///
/// `original` should be the IP header plus the first 8 payload bytes of the
/// expired datagram, per RFC 792.
pub fn build_time_exceeded(code: u8, original: &[u8]) -> Vec<u8> {
    build_with_original(TYPE_TIME_EXCEEDED, code, original)
}

/// Build a destination-unreachable message quoting the original datagram.
pub fn build_dest_unreachable(code: u8, original: &[u8]) -> Vec<u8> {
    build_with_original(TYPE_DEST_UNREACHABLE, code, original)
}

fn build_with_original(icmp_type: u8, code: u8, original: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + original.len());
    emit_with_original(&mut buf, icmp_type, code, original);
    buf
}

/// Append an error message quoting `original` to `buf` and checksum it in
/// place — the zero-allocation form of [`build_time_exceeded`]/
/// [`build_dest_unreachable`].
pub fn emit_with_original(buf: &mut Vec<u8>, icmp_type: u8, code: u8, original: &[u8]) {
    let start = buf.len();
    buf.resize(start + HEADER_LEN, 0);
    buf[start] = icmp_type;
    buf[start + 1] = code;
    buf.extend_from_slice(original);
    fill_checksum(&mut buf[start..]);
}

/// Quote the first `ip_header + 8` bytes of a datagram for embedding in an
/// error message.
pub fn quote_original(datagram: &[u8]) -> &[u8] {
    let ihl = if datagram.len() >= 20 {
        ((datagram[0] & 0xf) as usize * 4).max(20)
    } else {
        return datagram;
    };
    let end = (ihl + 8).min(datagram.len());
    &datagram[..end]
}

fn fill_checksum(buf: &mut [u8]) {
    buf[2] = 0;
    buf[3] = 0;
    let ck = checksum::checksum(buf);
    buf[2..4].copy_from_slice(&ck.to_be_bytes());
}

/// Parse an ICMP message, verifying the checksum.
pub fn parse(buf: &[u8]) -> Result<IcmpMessage<'_>, ParseError> {
    if buf.len() < HEADER_LEN {
        return Err(ParseError::Truncated);
    }
    if checksum::checksum(buf) != 0 {
        return Err(ParseError::BadChecksum);
    }
    let icmp_type = buf[0];
    let code = buf[1];
    let msg = match icmp_type {
        TYPE_ECHO_REQUEST | TYPE_ECHO_REPLY => {
            let ident = u16::from_be_bytes([buf[4], buf[5]]);
            let seq = u16::from_be_bytes([buf[6], buf[7]]);
            let payload = &buf[8..];
            if icmp_type == TYPE_ECHO_REQUEST {
                IcmpMessage::EchoRequest {
                    ident,
                    seq,
                    payload,
                }
            } else {
                IcmpMessage::EchoReply {
                    ident,
                    seq,
                    payload,
                }
            }
        }
        TYPE_TIME_EXCEEDED => IcmpMessage::TimeExceeded {
            code,
            original: &buf[8..],
        },
        TYPE_DEST_UNREACHABLE => IcmpMessage::DestUnreachable {
            code,
            original: &buf[8..],
        },
        _ => IcmpMessage::Other {
            icmp_type,
            code,
            body: &buf[8..],
        },
    };
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::Ipv4Header;
    use crate::proto;
    use std::net::Ipv4Addr;

    #[test]
    fn echo_request_roundtrip() {
        let msg = build_echo_request(0x1234, 7, b"payload");
        match parse(&msg).unwrap() {
            IcmpMessage::EchoRequest {
                ident,
                seq,
                payload,
            } => {
                assert_eq!(ident, 0x1234);
                assert_eq!(seq, 7);
                assert_eq!(payload, b"payload");
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn echo_reply_roundtrip() {
        let msg = build_echo_reply(1, 2, &[]);
        assert!(matches!(
            parse(&msg).unwrap(),
            IcmpMessage::EchoReply {
                ident: 1,
                seq: 2,
                payload: &[]
            }
        ));
    }

    #[test]
    fn time_exceeded_embeds_original() {
        let orig_pkt = Ipv4Header::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 99),
            proto::ICMP,
        )
        .build(&build_echo_request(9, 9, b"xxxx"));
        let quoted = quote_original(&orig_pkt);
        assert_eq!(quoted.len(), 28); // 20 header + 8 payload bytes
        let msg = build_time_exceeded(CODE_TTL_EXPIRED, quoted);
        match parse(&msg).unwrap() {
            IcmpMessage::TimeExceeded { code, original } => {
                assert_eq!(code, CODE_TTL_EXPIRED);
                assert_eq!(original, quoted);
                // The embedded original still parses as an IPv4 header prefix.
                let view = crate::ipv4::Ipv4View::new_unchecked(original).unwrap();
                assert_eq!(view.src(), Ipv4Addr::new(10, 0, 0, 1));
                assert_eq!(view.dst(), Ipv4Addr::new(10, 0, 0, 99));
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn dest_unreachable_roundtrip() {
        let msg = build_dest_unreachable(CODE_PORT_UNREACHABLE, b"original-bytes-here-");
        assert!(matches!(
            parse(&msg).unwrap(),
            IcmpMessage::DestUnreachable {
                code: CODE_PORT_UNREACHABLE,
                ..
            }
        ));
    }

    #[test]
    fn corrupted_checksum_rejected() {
        let mut msg = build_echo_request(1, 1, b"x");
        msg[4] ^= 0xff;
        assert!(matches!(parse(&msg), Err(ParseError::BadChecksum)));
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(parse(&[8, 0, 0]), Err(ParseError::Truncated)));
    }

    #[test]
    fn unknown_type_parses_as_other() {
        let mut buf = vec![0u8; 12];
        buf[0] = 42;
        buf[1] = 1;
        super::fill_checksum(&mut buf);
        assert!(matches!(
            parse(&buf).unwrap(),
            IcmpMessage::Other {
                icmp_type: 42,
                code: 1,
                ..
            }
        ));
    }

    #[test]
    fn quote_original_short_datagram() {
        // Shorter than an IP header: quoted verbatim.
        assert_eq!(quote_original(&[1, 2, 3]), &[1, 2, 3]);
    }
}
