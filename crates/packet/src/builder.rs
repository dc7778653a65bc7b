//! One-call constructors for complete IPv4 datagrams.
//!
//! These are the building blocks experiment controllers use to craft raw
//! packets (§4 of the paper: "creates a series of ICMP echo request packets
//! with incrementing TTL values ... and the payload set to contain a
//! two-byte sequence number").

use crate::{icmp, ipv4::Ipv4Header, proto, tcp, udp};
use std::net::Ipv4Addr;

/// Build a complete ICMP echo-request datagram with the given TTL.
pub fn icmp_echo_request(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    ttl: u8,
    ident: u16,
    seq: u16,
    payload: &[u8],
) -> Vec<u8> {
    let mut hdr = Ipv4Header::new(src, dst, proto::ICMP);
    hdr.ttl = ttl;
    let mut buf = Vec::with_capacity(20 + icmp::HEADER_LEN + payload.len());
    hdr.build_with(&mut buf, |b| {
        icmp::emit_echo(b, icmp::TYPE_ECHO_REQUEST, ident, seq, payload)
    });
    buf
}

/// Build a complete ICMP echo-reply datagram.
pub fn icmp_echo_reply(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    ident: u16,
    seq: u16,
    payload: &[u8],
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(20 + icmp::HEADER_LEN + payload.len());
    icmp_echo_reply_into(src, dst, ident, seq, payload, &mut buf);
    buf
}

/// [`icmp_echo_reply`] writing into a reusable buffer (cleared first).
pub fn icmp_echo_reply_into(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    ident: u16,
    seq: u16,
    payload: &[u8],
    buf: &mut Vec<u8>,
) {
    let hdr = Ipv4Header::new(src, dst, proto::ICMP);
    hdr.build_with(buf, |b| {
        icmp::emit_echo(b, icmp::TYPE_ECHO_REPLY, ident, seq, payload)
    })
}

/// Build a complete ICMP time-exceeded datagram quoting `original`.
pub fn icmp_time_exceeded(src: Ipv4Addr, dst: Ipv4Addr, original: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    icmp_time_exceeded_into(src, dst, original, &mut buf);
    buf
}

/// [`icmp_time_exceeded`] writing into a reusable buffer (cleared first).
pub fn icmp_time_exceeded_into(src: Ipv4Addr, dst: Ipv4Addr, original: &[u8], buf: &mut Vec<u8>) {
    let hdr = Ipv4Header::new(src, dst, proto::ICMP);
    hdr.build_with(buf, |b| {
        icmp::emit_with_original(
            b,
            icmp::TYPE_TIME_EXCEEDED,
            icmp::CODE_TTL_EXPIRED,
            icmp::quote_original(original),
        )
    })
}

/// Build a complete ICMP destination-unreachable datagram into a reusable
/// buffer (cleared first).
pub fn icmp_dest_unreachable_into(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    code: u8,
    original: &[u8],
    buf: &mut Vec<u8>,
) {
    let hdr = Ipv4Header::new(src, dst, proto::ICMP);
    hdr.build_with(buf, |b| {
        icmp::emit_with_original(
            b,
            icmp::TYPE_DEST_UNREACHABLE,
            code,
            icmp::quote_original(original),
        )
    })
}

/// Build a complete UDP datagram.
pub fn udp_datagram(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
) -> Vec<u8> {
    let mut buf = Vec::new();
    udp_datagram_into(src, dst, src_port, dst_port, payload, &mut buf);
    buf
}

/// [`udp_datagram`] writing into a reusable buffer (cleared first).
pub fn udp_datagram_into(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
    buf: &mut Vec<u8>,
) {
    let hdr = Ipv4Header::new(src, dst, proto::UDP);
    hdr.build_with(buf, |b| udp::emit(b, src, dst, src_port, dst_port, payload))
}

/// Build a complete TCP segment datagram.
pub fn tcp_segment(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    header: tcp::TcpHeader,
    payload: &[u8],
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(20 + tcp::HEADER_LEN + payload.len());
    let hdr = Ipv4Header::new(src, dst, proto::TCP);
    hdr.build_with(&mut buf, |b| header.emit(b, src, dst, &[payload]));
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::icmp::IcmpMessage;
    use crate::ipv4::Ipv4View;

    fn a(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(203, 0, 113, n)
    }

    #[test]
    fn echo_request_full_stack() {
        let pkt = icmp_echo_request(a(1), a(2), 7, 99, 3, &[0xaa, 0xbb]);
        let ip = Ipv4View::new(&pkt).unwrap();
        assert_eq!(ip.ttl(), 7);
        assert_eq!(ip.protocol(), proto::ICMP);
        match icmp::parse(ip.payload()).unwrap() {
            IcmpMessage::EchoRequest {
                ident,
                seq,
                payload,
            } => {
                assert_eq!((ident, seq), (99, 3));
                assert_eq!(payload, &[0xaa, 0xbb]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn udp_full_stack() {
        let pkt = udp_datagram(a(1), a(2), 4444, 5555, b"probe");
        let ip = Ipv4View::new(&pkt).unwrap();
        let u = udp::parse(ip.src(), ip.dst(), ip.payload()).unwrap();
        assert_eq!(u.src_port, 4444);
        assert_eq!(u.dst_port, 5555);
        assert_eq!(u.payload, b"probe");
    }

    #[test]
    fn tcp_full_stack() {
        let h = tcp::TcpHeader {
            src_port: 1,
            dst_port: 2,
            seq: 3,
            ack: 4,
            flags: tcp::flags::SYN,
            window: 100,
        };
        let pkt = tcp_segment(a(1), a(2), h, &[]);
        let ip = Ipv4View::new(&pkt).unwrap();
        let t = tcp::parse(ip.src(), ip.dst(), ip.payload()).unwrap();
        assert_eq!(t.header, h);
    }

    #[test]
    fn time_exceeded_quotes_first_28_bytes() {
        let orig = icmp_echo_request(a(1), a(9), 1, 5, 5, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let te = icmp_time_exceeded(a(3), a(1), &orig);
        let ip = Ipv4View::new(&te).unwrap();
        match icmp::parse(ip.payload()).unwrap() {
            IcmpMessage::TimeExceeded { original, .. } => {
                assert_eq!(original.len(), 28);
                assert_eq!(original, &orig[..28]);
            }
            other => panic!("{other:?}"),
        }
    }
}
