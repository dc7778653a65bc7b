//! The symbolic packet-field model shared by the PFVM filter machine and
//! the Cpf compiler.
//!
//! The paper's Figure 2 monitor is written against a C `union packet` of
//! protocol headers (`pkt->ip.proto`, `pkt->ip.icmp.orig.ip.src`, ...).
//! This module is the single source of truth mapping those dotted field
//! paths to byte offsets/widths in a raw IPv4 datagram, so that the Cpf
//! compiler, the filter assembler, and hand-written monitors all agree.
//!
//! Nested offsets assume IHL = 5 (no IP options) — the same assumption the
//! paper's own monitor makes explicit by checking `pkt->ip.ihl == 5` before
//! touching nested fields. Monitors for option-bearing traffic must check
//! `ip.ihl` themselves, exactly as in the paper.

/// How a field's bits sit inside the addressed bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldSpec {
    /// Byte offset from the start of the IP datagram.
    pub offset: usize,
    /// Width in bytes (1, 2, or 4); multi-byte fields are big-endian.
    pub width: usize,
    /// Right-shift applied after the big-endian load.
    pub shift: u32,
    /// Mask applied after the shift (in the low bits).
    pub mask: u64,
}

impl FieldSpec {
    const fn full(offset: usize, width: usize) -> Self {
        let mask = if width >= 8 {
            u64::MAX
        } else {
            (1u64 << (width * 8)) - 1
        };
        FieldSpec {
            offset,
            width,
            shift: 0,
            mask,
        }
    }

    const fn bits(offset: usize, width: usize, shift: u32, mask: u64) -> Self {
        FieldSpec {
            offset,
            width,
            shift,
            mask,
        }
    }

    /// Read the field from a raw datagram (big-endian, network order);
    /// `None` if out of bounds. Use for *packet* fields.
    pub fn read(&self, pkt: &[u8]) -> Option<u64> {
        if pkt.len() < self.offset + self.width {
            return None;
        }
        let mut v: u64 = 0;
        for i in 0..self.width {
            v = (v << 8) | pkt[self.offset + i] as u64;
        }
        Some((v >> self.shift) & self.mask)
    }

    /// Read the field little-endian. Use for *info-block* fields, which are
    /// host-structured memory (matching the PFVM `ld.info*` semantics).
    pub fn read_le(&self, block: &[u8]) -> Option<u64> {
        if block.len() < self.offset + self.width {
            return None;
        }
        let mut v: u64 = 0;
        for i in 0..self.width {
            v |= (block[self.offset + i] as u64) << (8 * i);
        }
        Some((v >> self.shift) & self.mask)
    }

    /// Write the field little-endian into an info block. Panics on OOB
    /// (info blocks are fixed-size and endpoint-managed).
    pub fn write_le(&self, block: &mut [u8], value: u64) {
        assert_eq!(self.shift, 0, "bitfield info writes unsupported");
        for i in 0..self.width {
            block[self.offset + i] = (value >> (8 * i)) as u8;
        }
    }
}

/// ICMP header offset within the datagram (IHL = 5).
pub const ICMP_OFFSET: usize = 20;
/// Offset of the quoted original datagram inside an ICMP error message.
pub const ICMP_ORIG_OFFSET: usize = ICMP_OFFSET + 8;
/// Transport header offset (IHL = 5).
pub const TRANSPORT_OFFSET: usize = 20;

/// All recognized field paths with their specs. The table is the canonical
/// field list: Cpf resolves `pkt->a.b.c` and PFVM assembly `ld.f` names
/// against it.
pub const FIELDS: &[(&str, FieldSpec)] = &[
    // IPv4 header.
    ("ip.ver", FieldSpec::bits(0, 1, 4, 0xf)),
    ("ip.ihl", FieldSpec::bits(0, 1, 0, 0xf)),
    ("ip.tos", FieldSpec::full(1, 1)),
    ("ip.len", FieldSpec::full(2, 2)),
    ("ip.id", FieldSpec::full(4, 2)),
    ("ip.frag", FieldSpec::bits(6, 2, 0, 0x1fff)),
    ("ip.ttl", FieldSpec::full(8, 1)),
    ("ip.proto", FieldSpec::full(9, 1)),
    ("ip.cksum", FieldSpec::full(10, 2)),
    ("ip.src", FieldSpec::full(12, 4)),
    ("ip.dst", FieldSpec::full(16, 4)),
    // ICMP (at IHL=5).
    ("ip.icmp.type", FieldSpec::full(ICMP_OFFSET, 1)),
    ("ip.icmp.code", FieldSpec::full(ICMP_OFFSET + 1, 1)),
    ("ip.icmp.cksum", FieldSpec::full(ICMP_OFFSET + 2, 2)),
    ("ip.icmp.ident", FieldSpec::full(ICMP_OFFSET + 4, 2)),
    ("ip.icmp.seq", FieldSpec::full(ICMP_OFFSET + 6, 2)),
    // The original datagram quoted inside ICMP errors.
    (
        "ip.icmp.orig.ip.ver",
        FieldSpec::bits(ICMP_ORIG_OFFSET, 1, 4, 0xf),
    ),
    (
        "ip.icmp.orig.ip.ihl",
        FieldSpec::bits(ICMP_ORIG_OFFSET, 1, 0, 0xf),
    ),
    (
        "ip.icmp.orig.ip.proto",
        FieldSpec::full(ICMP_ORIG_OFFSET + 9, 1),
    ),
    (
        "ip.icmp.orig.ip.src",
        FieldSpec::full(ICMP_ORIG_OFFSET + 12, 4),
    ),
    (
        "ip.icmp.orig.ip.dst",
        FieldSpec::full(ICMP_ORIG_OFFSET + 16, 4),
    ),
    (
        "ip.icmp.orig.ip.ttl",
        FieldSpec::full(ICMP_ORIG_OFFSET + 8, 1),
    ),
    // UDP (at IHL=5).
    ("ip.udp.sport", FieldSpec::full(TRANSPORT_OFFSET, 2)),
    ("ip.udp.dport", FieldSpec::full(TRANSPORT_OFFSET + 2, 2)),
    ("ip.udp.len", FieldSpec::full(TRANSPORT_OFFSET + 4, 2)),
    // TCP (at IHL=5).
    ("ip.tcp.sport", FieldSpec::full(TRANSPORT_OFFSET, 2)),
    ("ip.tcp.dport", FieldSpec::full(TRANSPORT_OFFSET + 2, 2)),
    ("ip.tcp.seq", FieldSpec::full(TRANSPORT_OFFSET + 4, 4)),
    ("ip.tcp.ack", FieldSpec::full(TRANSPORT_OFFSET + 8, 4)),
    ("ip.tcp.flags", FieldSpec::full(TRANSPORT_OFFSET + 13, 1)),
    ("ip.tcp.window", FieldSpec::full(TRANSPORT_OFFSET + 14, 2)),
];

/// Resolve a dotted field path (e.g. `"ip.icmp.orig.ip.src"`).
pub fn resolve(path: &str) -> Option<FieldSpec> {
    FIELDS
        .iter()
        .find(|(name, _)| *name == path)
        .map(|(_, s)| *s)
}

/// Well-known constants predeclared in Cpf programs, mirroring
/// `netinet/in.h` / `netinet/ip_icmp.h`.
pub const CONSTANTS: &[(&str, u64)] = &[
    ("IPPROTO_ICMP", crate::proto::ICMP as u64),
    ("IPPROTO_TCP", crate::proto::TCP as u64),
    ("IPPROTO_UDP", crate::proto::UDP as u64),
    ("ICMP_ECHO_REPLY", crate::icmp::TYPE_ECHO_REPLY as u64),
    (
        "ICMP_DEST_UNREACH",
        crate::icmp::TYPE_DEST_UNREACHABLE as u64,
    ),
    ("ICMP_ECHO_REQUEST", crate::icmp::TYPE_ECHO_REQUEST as u64),
    ("ICMP_TIME_EXCEEDED", crate::icmp::TYPE_TIME_EXCEEDED as u64),
];

/// Resolve a predeclared constant by name.
pub fn constant(name: &str) -> Option<u64> {
    CONSTANTS.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
}

// ---------------------------------------------------------------------------
// Endpoint info block
// ---------------------------------------------------------------------------

/// Size in bytes of the endpoint *info block* (§3.1: "A PacketLab endpoint
/// makes this information such as its IP address, DHCP parameters, and the
/// current socket state available to the controller via a structured block
/// of memory that is accessed using the mread and mwrite commands").
///
/// Offsets `0..INFO_RW_OFFSET` are read-only to controllers (the endpoint
/// maintains them); `INFO_RW_OFFSET..INFO_SIZE` is controller scratch that
/// `mwrite` may modify — monitors can read it, which lets a controller pass
/// parameters to a stateful monitor.
pub const INFO_SIZE: usize = 128;
/// First controller-writable offset in the info block.
pub const INFO_RW_OFFSET: usize = 64;

/// Info-block fields. Values are little-endian (host-structured memory,
/// unlike packet fields which are network order). IPv4 addresses are stored
/// as their numeric `u32` value so that a monitor comparing
/// `pkt->ip.src == info->addr.ip` compares like with like.
///
/// | name | offset | width | meaning |
/// |------|--------|-------|---------|
/// | `clock` | 0 | 8 | endpoint local clock, ns (read-only; §3.1 Timekeeping) |
/// | `addr.ip` | 8 | 4 | internal IPv4 address |
/// | `addr.ext_ip` | 12 | 4 | external (post-NAT) IPv4 address |
/// | `mtu` | 16 | 4 | interface MTU |
/// | `flags` | 20 | 4 | bit 0: raw sockets available; bit 1: behind NAT |
/// | `buffer.capacity` | 24 | 8 | capture buffer capacity, bytes |
/// | `buffer.used` | 32 | 8 | capture buffer bytes in use |
/// | `sockets.open` | 40 | 8 | number of open sockets |
/// | `experiment.priority` | 48 | 8 | priority of the running experiment |
/// | `scratch0`/`scratch1`/... | 64+8k | 8 | controller-writable scratch |
pub const INFO_FIELDS: &[(&str, FieldSpec)] = &[
    ("clock", FieldSpec::full(0, 8)),
    ("addr.ip", FieldSpec::full(8, 4)),
    ("addr.ext_ip", FieldSpec::full(12, 4)),
    ("mtu", FieldSpec::full(16, 4)),
    ("flags", FieldSpec::full(20, 4)),
    ("buffer.capacity", FieldSpec::full(24, 8)),
    ("buffer.used", FieldSpec::full(32, 8)),
    ("sockets.open", FieldSpec::full(40, 8)),
    ("experiment.priority", FieldSpec::full(48, 8)),
    ("scratch0", FieldSpec::full(64, 8)),
    ("scratch1", FieldSpec::full(72, 8)),
    ("scratch2", FieldSpec::full(80, 8)),
    ("scratch3", FieldSpec::full(88, 8)),
];

/// Flag bit in the info `flags` field: raw sockets available.
pub const INFO_FLAG_RAW: u32 = 1 << 0;
/// Flag bit in the info `flags` field: endpoint is behind a NAT.
pub const INFO_FLAG_NAT: u32 = 1 << 1;

/// Resolve an info-block field path (e.g. `"addr.ip"`).
pub fn resolve_info(path: &str) -> Option<FieldSpec> {
    INFO_FIELDS
        .iter()
        .find(|(name, _)| *name == path)
        .map(|(_, s)| *s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;
    use std::net::Ipv4Addr;

    fn a(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 1, 2, n)
    }

    #[test]
    fn reads_match_builders() {
        let pkt = builder::icmp_echo_request(a(1), a(2), 33, 0xabcd, 0x1234, b"pp");
        let get = |p: &str| resolve(p).unwrap().read(&pkt).unwrap();
        assert_eq!(get("ip.ver"), 4);
        assert_eq!(get("ip.ihl"), 5);
        assert_eq!(get("ip.ttl"), 33);
        assert_eq!(get("ip.proto"), crate::proto::ICMP as u64);
        assert_eq!(get("ip.src"), u32::from(a(1)) as u64);
        assert_eq!(get("ip.dst"), u32::from(a(2)) as u64);
        assert_eq!(get("ip.icmp.type"), crate::icmp::TYPE_ECHO_REQUEST as u64);
        assert_eq!(get("ip.icmp.ident"), 0xabcd);
        assert_eq!(get("ip.icmp.seq"), 0x1234);
    }

    #[test]
    fn orig_fields_inside_time_exceeded() {
        let orig = builder::icmp_echo_request(a(1), a(9), 1, 5, 6, b"12345678");
        let te = builder::icmp_time_exceeded(a(3), a(1), &orig);
        let get = |p: &str| resolve(p).unwrap().read(&te).unwrap();
        assert_eq!(get("ip.icmp.type"), crate::icmp::TYPE_TIME_EXCEEDED as u64);
        assert_eq!(get("ip.icmp.orig.ip.ver"), 4);
        assert_eq!(get("ip.icmp.orig.ip.src"), u32::from(a(1)) as u64);
        assert_eq!(get("ip.icmp.orig.ip.dst"), u32::from(a(9)) as u64);
        assert_eq!(get("ip.icmp.orig.ip.proto"), crate::proto::ICMP as u64);
    }

    #[test]
    fn udp_fields() {
        let pkt = builder::udp_datagram(a(1), a(2), 1111, 2222, b"x");
        let get = |p: &str| resolve(p).unwrap().read(&pkt).unwrap();
        assert_eq!(get("ip.udp.sport"), 1111);
        assert_eq!(get("ip.udp.dport"), 2222);
        assert_eq!(get("ip.proto"), crate::proto::UDP as u64);
    }

    #[test]
    fn tcp_fields() {
        let h = crate::tcp::TcpHeader {
            src_port: 7,
            dst_port: 8,
            seq: 0xdeadbeef,
            ack: 0xfeedface,
            flags: crate::tcp::flags::SYN | crate::tcp::flags::ACK,
            window: 555,
        };
        let pkt = builder::tcp_segment(a(1), a(2), h, &[]);
        let get = |p: &str| resolve(p).unwrap().read(&pkt).unwrap();
        assert_eq!(get("ip.tcp.sport"), 7);
        assert_eq!(get("ip.tcp.dport"), 8);
        assert_eq!(get("ip.tcp.seq"), 0xdeadbeef);
        assert_eq!(get("ip.tcp.ack"), 0xfeedface);
        assert_eq!(get("ip.tcp.flags"), 0x12);
        assert_eq!(get("ip.tcp.window"), 555);
    }

    #[test]
    fn out_of_bounds_read_is_none() {
        let short = [0x45u8; 20];
        assert!(resolve("ip.icmp.type").unwrap().read(&short).is_none());
        assert!(resolve("ip.ttl").unwrap().read(&short).is_some());
    }

    #[test]
    fn unknown_path_is_none() {
        assert!(resolve("ip.nonexistent").is_none());
        assert!(resolve("").is_none());
    }

    #[test]
    fn constants_resolve() {
        assert_eq!(constant("IPPROTO_ICMP"), Some(1));
        assert_eq!(constant("ICMP_ECHO_REQUEST"), Some(8));
        assert_eq!(constant("ICMP_TIME_EXCEEDED"), Some(11));
        assert_eq!(constant("NOPE"), None);
    }

    #[test]
    fn info_fields_resolve_and_roundtrip() {
        let mut block = vec![0u8; INFO_SIZE];
        let clock = resolve_info("clock").unwrap();
        clock.write_le(&mut block, 123_456_789);
        assert_eq!(clock.read_le(&block), Some(123_456_789));
        let ip = resolve_info("addr.ip").unwrap();
        ip.write_le(&mut block, u32::from(Ipv4Addr::new(10, 0, 0, 7)) as u64);
        assert_eq!(
            ip.read_le(&block),
            Some(u32::from(Ipv4Addr::new(10, 0, 0, 7)) as u64)
        );
        assert!(resolve_info("addr.bogus").is_none());
    }

    #[test]
    fn info_fields_do_not_overlap() {
        let mut spans: Vec<(usize, usize)> = INFO_FIELDS
            .iter()
            .map(|(_, s)| (s.offset, s.offset + s.width))
            .collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlap: {:?}", w);
        }
        for (_, s) in INFO_FIELDS {
            assert!(s.offset + s.width <= INFO_SIZE);
        }
    }

    #[test]
    fn info_scratch_is_in_rw_region() {
        let s = resolve_info("scratch0").unwrap();
        assert!(s.offset >= INFO_RW_OFFSET);
        let c = resolve_info("clock").unwrap();
        assert!(c.offset < INFO_RW_OFFSET);
    }

    #[test]
    fn all_field_names_unique() {
        let mut names: Vec<&str> = FIELDS.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
