//! Property tests pinning the fused monitor-chain engine to the
//! sequential reference walk: across arbitrary Cpf monitor chains and
//! packet streams, the two engines must produce identical verdict
//! sequences, identical per-monitor persistent memory, and identical
//! per-monitor fuel attribution.

use packetlab::monitor::MonitorSet;
use plab_packet::layout;
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// One parameterized Cpf monitor drawn from a pool of shapes that
/// exercise the fusion machinery differently: pure predicates (field
/// loads several monitors share), stateful quotas and accumulators
/// (persistent reads and writes a replayer takes from its recorder),
/// entry-point asymmetry (missing `send` or `recv` takes the default-allow
/// path in one engine position of the chain), a length gate (no packet
/// loads at all), and a stamp whose path depends on what the previous send
/// stored (a replayer left behind its recorder by a stopped walk shows in
/// its fuel).
#[derive(Debug, Clone, Copy)]
enum Shape {
    AllowProto(u8),
    DenyProto(u8),
    Quota(u32),
    ByteBudget(u32),
    LenGate(u32),
    RecvOnly(u32),
    Stamp,
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        prop_oneof![Just(1u8), Just(6), Just(17)].prop_map(Shape::AllowProto),
        prop_oneof![Just(1u8), Just(6), Just(17)].prop_map(Shape::DenyProto),
        (1u32..6).prop_map(Shape::Quota),
        (32u32..512).prop_map(Shape::ByteBudget),
        (8u32..96).prop_map(Shape::LenGate),
        (8u32..96).prop_map(Shape::RecvOnly),
        Just(Shape::Stamp),
    ]
}

/// A chain of one to five monitors, or half the time a monitor repeated
/// after one to three others: the walk can then stop between the copies
/// after the first one wrote.
fn arb_chain() -> impl Strategy<Value = Vec<Shape>> {
    prop_oneof![
        prop::collection::vec(arb_shape(), 1..6),
        (arb_shape(), prop::collection::vec(arb_shape(), 1..4)).prop_map(|(repeated, mid)| {
            [vec![repeated], mid, vec![repeated]].concat()
        }),
    ]
}

fn compile(shape: Shape) -> Vec<u8> {
    let src = match shape {
        Shape::AllowProto(p) => format!(
            "uint32_t send(const union packet *pkt, uint32_t len) {{
                 if (pkt->ip.proto == {p}) return len;
                 return 0;
             }}
             uint32_t recv(const union packet *pkt, uint32_t len) {{
                 if (pkt->ip.proto == {p}) return len;
                 return 0;
             }}"
        ),
        Shape::DenyProto(p) => format!(
            "uint32_t send(const union packet *pkt, uint32_t len) {{
                 if (pkt->ip.proto == {p}) return 0;
                 return len;
             }}"
        ),
        Shape::Quota(limit) => format!(
            "uint32_t used = 0;
             uint32_t send(const union packet *pkt, uint32_t len) {{
                 if (used >= {limit}) return 0;
                 used = used + 1;
                 return len;
             }}"
        ),
        Shape::ByteBudget(budget) => format!(
            "uint64_t bytes = 0;
             uint32_t send(const union packet *pkt, uint32_t len) {{
                 bytes = bytes + len;
                 if (bytes > {budget}) return 0;
                 return len;
             }}
             uint32_t recv(const union packet *pkt, uint32_t len) {{
                 bytes = bytes + len;
                 if (bytes > {budget}) return 0;
                 return len;
             }}"
        ),
        Shape::LenGate(max) => format!(
            "uint32_t send(const union packet *pkt, uint32_t len) {{
                 if (len > {max}) return 0;
                 return len;
             }}"
        ),
        Shape::RecvOnly(max) => format!(
            "uint32_t recv(const union packet *pkt, uint32_t len) {{
                 if (len > {max}) return 0;
                 return len;
             }}"
        ),
        Shape::Stamp => "uint64_t last = 0;
             uint32_t send(const union packet *pkt, uint32_t len) {
                 uint64_t old = last;
                 last = pkt->ip.proto;
                 if (old == pkt->ip.proto) return len;
                 return len + 1;
             }"
        .to_string(),
    };
    plab_cpf::compile(&src).expect("pool monitors compile").encode()
}

fn pkt(proto: u8, payload: usize) -> Vec<u8> {
    plab_packet::ipv4::Ipv4Header::new(
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 2),
        proto,
    )
    .build(&vec![0u8; payload])
}

fn info_block() -> Vec<u8> {
    let mut info = vec![0u8; layout::INFO_SIZE];
    layout::resolve_info("addr.ip")
        .unwrap()
        .write_le(&mut info, u64::from(u32::from(Ipv4Addr::new(10, 0, 0, 1))));
    info
}

fn arb_packet() -> impl Strategy<Value = (u8, usize, bool)> {
    (
        prop_oneof![Just(1u8), Just(6), Just(17), Just(41)],
        0usize..64,
        any::<bool>(),
    )
}

/// Assert both engines are in an identical observable state.
fn assert_engines_agree(fused: &MonitorSet, seq: &MonitorSet) -> Result<(), TestCaseError> {
    prop_assert_eq!(fused.len(), seq.len(), "chain length diverges");
    prop_assert_eq!(
        fused.insns_attributed(),
        seq.insns_attributed(),
        "fuel attribution diverges"
    );
    for i in 0..fused.len() {
        prop_assert_eq!(
            fused.persistent(i),
            seq.persistent(i),
            "monitor {} persistent memory diverges",
            i
        );
    }
    Ok(())
}

// The default config: 256 cases, or `PROPTEST_CASES` (CI runs 2,048 in
// release, where the repeated-copy chains reach more of their streams).
proptest! {
    /// Core fusion-soundness property: a fused chain is observationally
    /// identical to the sequential walk over any monitor pool selection
    /// and any packet stream — same verdict for every adjudication, same
    /// per-monitor persistent memory after every adjudication, same
    /// per-monitor fuel attribution.
    #[test]
    fn fused_chain_matches_sequential_walk(
        shapes in arb_chain(),
        stream in prop::collection::vec(arb_packet(), 1..12),
    ) {
        let info = info_block();
        let encoded: Vec<Vec<u8>> = shapes.iter().map(|&s| compile(s)).collect();
        let mut fused = MonitorSet::instantiate(&encoded, &info).unwrap();
        let mut seq = MonitorSet::instantiate_sequential(&encoded, &info).unwrap();
        for &(proto, payload, is_send) in &stream {
            let packet = pkt(proto, payload);
            let (got, want) = if is_send {
                (fused.allow_send(&packet, &info), seq.allow_send(&packet, &info))
            } else {
                (fused.allow_recv(&packet, &info), seq.allow_recv(&packet, &info))
            };
            prop_assert_eq!(got, want, "verdict diverges ({:?})", (proto, payload, is_send));
            assert_engines_agree(&fused, &seq)?;
        }
    }
}
