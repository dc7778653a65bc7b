//! Source NAT (NAPT) middlebox state.
//!
//! PacketLab explicitly surfaces NAT ("For endpoints behind a NAT, this
//! address will be different from its external address", §3.1): the info
//! block exposes both the internal and external address, and controllers
//! must learn the internal address to craft valid raw packets. The netsim
//! NAT node makes that distinction real: it rewrites source address and
//! port/identifier on the way out, keeps a mapping table, and rewrites the
//! destination back on the way in.

use fxhash::FxHashMap;
use plab_packet::{checksum, icmp, ipv4, proto};
use std::net::Ipv4Addr;

/// Key identifying an internal flow: (protocol, internal addr, internal id).
/// The id is the source port for UDP/TCP and the echo ident for ICMP.
type FlowKey = (u8, Ipv4Addr, u16);

/// NAPT mapping table.
#[derive(Debug, Clone)]
pub struct NatTable {
    /// The external (public) address presented to the outside.
    pub external_ip: Ipv4Addr,
    next_id: u16,
    by_internal: FxHashMap<FlowKey, u16>,
    by_external: FxHashMap<(u8, u16), (Ipv4Addr, u16)>,
}

impl NatTable {
    /// New table translating to `external_ip`.
    pub fn new(external_ip: Ipv4Addr) -> Self {
        NatTable {
            external_ip,
            next_id: 50_000,
            by_internal: FxHashMap::default(),
            by_external: FxHashMap::default(),
        }
    }

    fn map(&mut self, key: FlowKey) -> u16 {
        if let Some(&ext) = self.by_internal.get(&key) {
            return ext;
        }
        let ext = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(50_000);
        self.by_internal.insert(key, ext);
        self.by_external.insert((key.0, ext), (key.1, key.2));
        ext
    }

    /// Number of active mappings.
    pub fn mappings(&self) -> usize {
        self.by_internal.len()
    }

    /// Rewrite an outbound datagram in place (src addr and id). Returns
    /// false for packets NAT cannot translate (fragments, unknown proto).
    pub fn translate_outbound(&mut self, pkt: &mut [u8]) -> bool {
        let Ok(view) = ipv4::Ipv4View::new_unchecked(pkt) else {
            return false;
        };
        let internal = view.src();
        let protocol = view.protocol();
        let hlen = view.header_len();
        let internal_id = match protocol {
            proto::UDP | proto::TCP => {
                if pkt.len() < hlen + 4 {
                    return false;
                }
                u16::from_be_bytes([pkt[hlen], pkt[hlen + 1]])
            }
            proto::ICMP => {
                // Only echo request/reply carry a rewritable ident.
                if pkt.len() < hlen + 8 || !matches!(pkt[hlen], 0 | 8) {
                    return false;
                }
                u16::from_be_bytes([pkt[hlen + 4], pkt[hlen + 5]])
            }
            _ => return false,
        };
        let ext_id = self.map((protocol, internal, internal_id));
        // Rewrite the id field.
        match protocol {
            proto::UDP | proto::TCP => {
                pkt[hlen..hlen + 2].copy_from_slice(&ext_id.to_be_bytes());
            }
            proto::ICMP => {
                pkt[hlen + 4..hlen + 6].copy_from_slice(&ext_id.to_be_bytes());
            }
            _ => unreachable!(),
        }
        let ext_ip = self.external_ip;
        ipv4::rewrite_src(pkt, ext_ip);
        fix_transport_checksum(pkt);
        true
    }

    /// Rewrite an inbound datagram in place (dst addr and id back to the
    /// internal flow). Returns false when no mapping exists (unsolicited
    /// traffic, dropped by the NAT).
    pub fn translate_inbound(&mut self, pkt: &mut [u8]) -> bool {
        let Ok(view) = ipv4::Ipv4View::new_unchecked(pkt) else {
            return false;
        };
        if view.dst() != self.external_ip {
            return false;
        }
        let protocol = view.protocol();
        let hlen = view.header_len();
        let ext_id = match protocol {
            proto::UDP | proto::TCP => {
                if pkt.len() < hlen + 4 {
                    return false;
                }
                u16::from_be_bytes([pkt[hlen + 2], pkt[hlen + 3]])
            }
            proto::ICMP => {
                if pkt.len() < hlen + 8 || !matches!(pkt[hlen], 0 | 8) {
                    return false;
                }
                u16::from_be_bytes([pkt[hlen + 4], pkt[hlen + 5]])
            }
            _ => return false,
        };
        let Some(&(internal_ip, internal_id)) = self.by_external.get(&(protocol, ext_id)) else {
            return false;
        };
        match protocol {
            proto::UDP | proto::TCP => {
                pkt[hlen + 2..hlen + 4].copy_from_slice(&internal_id.to_be_bytes());
            }
            proto::ICMP => {
                pkt[hlen + 4..hlen + 6].copy_from_slice(&internal_id.to_be_bytes());
            }
            _ => unreachable!(),
        }
        ipv4::rewrite_dst(pkt, internal_ip);
        fix_transport_checksum(pkt);
        true
    }
}

/// Recompute the transport checksum after address/id rewriting.
fn fix_transport_checksum(pkt: &mut [u8]) {
    let Ok(view) = ipv4::Ipv4View::new_unchecked(pkt) else {
        return;
    };
    let hlen = view.header_len();
    let src = view.src();
    let dst = view.dst();
    let protocol = view.protocol();
    let end = (view.total_len() as usize).min(pkt.len());
    match protocol {
        proto::UDP if pkt.len() >= hlen + 8 => {
            pkt[hlen + 6] = 0;
            pkt[hlen + 7] = 0;
            let ck = checksum::transport_checksum(src, dst, proto::UDP, &pkt[hlen..end]);
            let ck = if ck == 0 { 0xffff } else { ck };
            pkt[hlen + 6..hlen + 8].copy_from_slice(&ck.to_be_bytes());
        }
        proto::TCP if pkt.len() >= hlen + 20 => {
            pkt[hlen + 16] = 0;
            pkt[hlen + 17] = 0;
            let ck = checksum::transport_checksum(src, dst, proto::TCP, &pkt[hlen..end]);
            pkt[hlen + 16..hlen + 18].copy_from_slice(&ck.to_be_bytes());
        }
        proto::ICMP if pkt.len() >= hlen + icmp::HEADER_LEN => {
            pkt[hlen + 2] = 0;
            pkt[hlen + 3] = 0;
            let ck = checksum::checksum(&pkt[hlen..end]);
            pkt[hlen + 2..hlen + 4].copy_from_slice(&ck.to_be_bytes());
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plab_packet::builder;
    use plab_packet::udp;

    fn internal(n: u8) -> Ipv4Addr {
        Ipv4Addr::new(192, 168, 1, n)
    }
    fn ext() -> Ipv4Addr {
        Ipv4Addr::new(203, 0, 113, 5)
    }
    fn server() -> Ipv4Addr {
        Ipv4Addr::new(8, 8, 8, 8)
    }

    #[test]
    fn udp_outbound_rewrites_src_and_port() {
        let mut nat = NatTable::new(ext());
        let mut pkt = builder::udp_datagram(internal(10), server(), 1234, 53, b"q");
        assert!(nat.translate_outbound(&mut pkt));
        let view = ipv4::Ipv4View::new(&pkt).expect("header checksum fixed");
        assert_eq!(view.src(), ext());
        let u = udp::parse(view.src(), view.dst(), view.payload()).expect("udp checksum fixed");
        assert_eq!(u.src_port, 50_000);
        assert_eq!(u.dst_port, 53);
    }

    #[test]
    fn udp_roundtrip_restores_internal_flow() {
        let mut nat = NatTable::new(ext());
        let mut out = builder::udp_datagram(internal(10), server(), 1234, 53, b"q");
        assert!(nat.translate_outbound(&mut out));
        // Server replies to the external mapping.
        let mut reply = builder::udp_datagram(server(), ext(), 53, 50_000, b"r");
        assert!(nat.translate_inbound(&mut reply));
        let view = ipv4::Ipv4View::new(&reply).unwrap();
        assert_eq!(view.dst(), internal(10));
        let u = udp::parse(view.src(), view.dst(), view.payload()).unwrap();
        assert_eq!(u.dst_port, 1234);
    }

    #[test]
    fn same_flow_reuses_mapping() {
        let mut nat = NatTable::new(ext());
        let mut p1 = builder::udp_datagram(internal(10), server(), 1234, 53, b"a");
        let mut p2 = builder::udp_datagram(internal(10), server(), 1234, 53, b"b");
        nat.translate_outbound(&mut p1);
        nat.translate_outbound(&mut p2);
        assert_eq!(nat.mappings(), 1);
    }

    #[test]
    fn different_flows_get_different_ports() {
        let mut nat = NatTable::new(ext());
        let mut p1 = builder::udp_datagram(internal(10), server(), 1111, 53, b"a");
        let mut p2 = builder::udp_datagram(internal(11), server(), 1111, 53, b"b");
        nat.translate_outbound(&mut p1);
        nat.translate_outbound(&mut p2);
        assert_eq!(nat.mappings(), 2);
        let v1 = ipv4::Ipv4View::new(&p1).unwrap();
        let v2 = ipv4::Ipv4View::new(&p2).unwrap();
        let u1 = udp::parse(v1.src(), v1.dst(), v1.payload()).unwrap();
        let u2 = udp::parse(v2.src(), v2.dst(), v2.payload()).unwrap();
        assert_ne!(u1.src_port, u2.src_port);
    }

    #[test]
    fn unsolicited_inbound_dropped() {
        let mut nat = NatTable::new(ext());
        let mut pkt = builder::udp_datagram(server(), ext(), 53, 60_000, b"x");
        assert!(!nat.translate_inbound(&mut pkt));
    }

    #[test]
    fn icmp_echo_ident_translated() {
        let mut nat = NatTable::new(ext());
        let mut probe = builder::icmp_echo_request(internal(10), server(), 64, 777, 1, b"p");
        assert!(nat.translate_outbound(&mut probe));
        let view = ipv4::Ipv4View::new(&probe).unwrap();
        assert_eq!(view.src(), ext());
        // ICMP checksum must still verify.
        let msg = plab_packet::icmp::parse(view.payload()).unwrap();
        let plab_packet::icmp::IcmpMessage::EchoRequest { ident, .. } = msg else {
            panic!()
        };
        assert_eq!(ident, 50_000);
        // Reply comes back to the external ident.
        let mut reply = builder::icmp_echo_reply(server(), ext(), 50_000, 1, b"p");
        assert!(nat.translate_inbound(&mut reply));
        let rv = ipv4::Ipv4View::new(&reply).unwrap();
        assert_eq!(rv.dst(), internal(10));
    }

    #[test]
    fn inbound_to_other_address_rejected() {
        let mut nat = NatTable::new(ext());
        let mut pkt = builder::udp_datagram(server(), internal(9), 53, 50_000, b"x");
        assert!(!nat.translate_inbound(&mut pkt));
    }

    #[test]
    fn time_exceeded_passes_through_untranslated() {
        // ICMP errors are not echo messages; NAT returns false and the sim
        // drops them (a known simplification: real NATs rewrite quoted
        // packets; our experiments always traceroute from *outside* inward
        // or from non-NAT endpoints).
        let mut nat = NatTable::new(ext());
        let orig = builder::icmp_echo_request(internal(10), server(), 1, 1, 1, &[]);
        let mut te = builder::icmp_time_exceeded(server(), ext(), &orig);
        assert!(!nat.translate_inbound(&mut te));
    }
}
