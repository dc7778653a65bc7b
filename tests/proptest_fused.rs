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
/// (persistent reads and writes, prefix replay pauses), entry-point
/// asymmetry (missing `send` or `recv` takes the default-allow path in one
/// engine position of the chain), and a length gate (no packet loads at
/// all).
#[derive(Debug, Clone, Copy)]
enum Shape {
    AllowProto(u8),
    DenyProto(u8),
    Quota(u32),
    ByteBudget(u32),
    LenGate(u32),
    RecvOnly(u32),
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        prop_oneof![Just(1u8), Just(6), Just(17)].prop_map(Shape::AllowProto),
        prop_oneof![Just(1u8), Just(6), Just(17)].prop_map(Shape::DenyProto),
        (1u32..6).prop_map(Shape::Quota),
        (32u32..512).prop_map(Shape::ByteBudget),
        (8u32..96).prop_map(Shape::LenGate),
        (8u32..96).prop_map(Shape::RecvOnly),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Core fusion-soundness property: a fused chain is observationally
    /// identical to the sequential walk over any monitor pool selection
    /// and any packet stream — same verdict for every adjudication, same
    /// per-monitor persistent memory after every adjudication, same
    /// per-monitor fuel attribution.
    #[test]
    fn fused_chain_matches_sequential_walk(
        shapes in prop::collection::vec(arb_shape(), 1..6),
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
