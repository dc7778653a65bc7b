//! An endpoint's memo of verified certificate signatures is exact: no
//! verdict ever comes from the memo alone.
//!
//! `cert::SigMemo` remembers that a signature passed the curve equation and
//! nothing else, so everything around the equation — trust root, chain
//! shape, descriptor binding, validity window, and at the agent the
//! priority ceiling and possession proof — must read the same with a warm
//! memo as with none. The property drives one memo through arbitrary
//! sequences of good and damaged chains against a fresh memo per step; the
//! harness tests run the Figure 1 refusals of `cert_negative.rs` twice
//! through one agent and watch the two counters across a crash.

use packetlab::cert::{self, CertError, CertPayload, Certificate, Restrictions, SigMemo};
use packetlab::controller::{Controller, ControllerError, Credentials};
use packetlab::descriptor::ExperimentDescriptor;
use packetlab::endpoint::EndpointConfig;
use packetlab::harness::{EndpointId, SimChannel, SimNet};
use packetlab::wire::ErrCode;
use plab_crypto::{sha256, KeyHash, Keypair, PublicKey};
use plab_netsim::{FaultAction, LinkParams, NodeId, TopologyBuilder};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

fn counters() -> (u64, u64) {
    (
        plab_obs::metrics::counter("endpoint.auth.sig_verified"),
        plab_obs::metrics::counter("endpoint.auth.sig_memo_hits"),
    )
}

/// Curve verifications made under a key's comb table.
fn prepared() -> u64 {
    plab_obs::metrics::counter("endpoint.auth.sig_prepared")
}

fn watch_counters() {
    plab_obs::enable();
    plab_obs::reset();
}

// --- the property: one warm memo against a fresh memo per step ---

/// Three delegation chains over five keys: the Figure 1 shape twice (one
/// operator, two experimenters) and a three-level chain, with windows and
/// ceilings that the steps' `now` values fall inside and outside of.
struct Pool {
    keys: Vec<Keypair>,
    chains: Vec<(Vec<Certificate>, sha256::Digest256)>,
}

fn pool() -> Pool {
    let keys: Vec<Keypair> = (1..=5u8).map(|s| Keypair::from_seed(&[s; 32])).collect();
    let delegate = |from: usize, to: usize, restrictions| {
        let payload = CertPayload::Delegation(KeyHash::of(&keys[to].public));
        Certificate::sign(&keys[from], payload, restrictions)
    };
    let leaf = |from: usize, descriptor: &[u8]| {
        let hash = sha256::digest(descriptor);
        let payload = CertPayload::Experiment(hash);
        (
            Certificate::sign(&keys[from], payload, Restrictions::none()),
            hash,
        )
    };
    let window = Restrictions {
        not_before: Some(100),
        not_after: Some(200),
        ..Restrictions::none()
    };
    let ceiling = Restrictions {
        max_priority: Some(5),
        ..Restrictions::none()
    };
    let (leaf_a, hash_a) = leaf(1, b"a");
    let (leaf_b, hash_b) = leaf(2, b"b");
    let (leaf_c, hash_c) = leaf(4, b"c");
    Pool {
        chains: vec![
            (vec![delegate(0, 1, window.clone()), leaf_a], hash_a),
            (vec![delegate(0, 2, ceiling), leaf_b], hash_b),
            (
                vec![
                    delegate(0, 3, Restrictions::none()),
                    delegate(3, 4, window),
                    leaf_c,
                ],
                hash_c,
            ),
        ],
        keys,
    }
}

/// What one step does to the chain it picked.
#[derive(Debug, Clone)]
enum Damage {
    None,
    /// Flip one bit of one certificate's encoding (signature, signer hash,
    /// payload or restrictions); a flip that no longer decodes is skipped.
    FlipBit {
        cert: usize,
        bit: usize,
    },
    /// Present another pool key under the hash of a certificate's signer.
    Rekey {
        cert: usize,
        key: usize,
    },
    /// Swap two certificates.
    Reorder {
        a: usize,
        b: usize,
    },
    /// Verify against another chain's descriptor.
    OtherDescriptor,
}

#[derive(Debug, Clone)]
struct Step {
    chain: usize,
    damage: Damage,
    now: u64,
    /// Index of the trusted root in the pool's keys (0 is the operator).
    trusted: usize,
}

fn arb_step() -> impl Strategy<Value = Step> {
    let damage = prop_oneof![
        Just(Damage::None),
        Just(Damage::None),
        (0..3usize, 0..4096usize).prop_map(|(cert, bit)| Damage::FlipBit { cert, bit }),
        (0..3usize, 0..5usize).prop_map(|(cert, key)| Damage::Rekey { cert, key }),
        (0..3usize, 0..3usize).prop_map(|(a, b)| Damage::Reorder { a, b }),
        Just(Damage::OtherDescriptor),
    ];
    // Mostly the operator as root and a time inside every window.
    let now = prop_oneof![Just(150u64), Just(150u64), Just(50u64), Just(250u64)];
    let trusted = prop_oneof![Just(0usize), Just(0usize), Just(0usize), 1..5usize];
    (0..3usize, damage, now, trusted).prop_map(|(chain, damage, now, trusted)| Step {
        chain,
        damage,
        now,
        trusted,
    })
}

/// The arguments of one `verify_chain` call, or `None` for a bit flip that
/// left a certificate undecodable (it never reaches a verifier).
type Call = (
    Vec<Certificate>,
    HashMap<KeyHash, PublicKey>,
    Vec<KeyHash>,
    sha256::Digest256,
    u64,
);

fn call(pool: &Pool, step: &Step) -> Option<Call> {
    let (mut chain, mut descriptor) = pool.chains[step.chain].clone();
    let public: Vec<PublicKey> = pool.keys.iter().map(|k| k.public).collect();
    let mut keys = cert::key_map(&public);
    match step.damage {
        Damage::None => {}
        Damage::FlipBit { cert, bit } => {
            let cert = cert % chain.len();
            let mut bytes = chain[cert].encode();
            let bit = bit % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            chain[cert] = Certificate::decode(&bytes).ok()?;
        }
        Damage::Rekey { cert, key } => {
            keys.insert(chain[cert % chain.len()].signer, public[key]);
        }
        Damage::Reorder { a, b } => {
            let len = chain.len();
            chain.swap(a % len, b % len);
        }
        Damage::OtherDescriptor => descriptor = pool.chains[(step.chain + 1) % 3].1,
    }
    let trusted = vec![KeyHash::of(&public[step.trusted])];
    Some((chain, keys, trusted, descriptor, step.now))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn warm_memo_agrees_with_a_fresh_one_at_every_step(
        steps in prop::collection::vec(arb_step(), 1..24)
    ) {
        let pool = pool();
        let mut warm = SigMemo::default();
        let mut accepted = 0;
        for step in &steps {
            let Some((chain, keys, trusted, descriptor, now)) = call(&pool, step) else { continue };
            let cold = cert::verify_chain(&chain, &keys, &trusted, &descriptor, now);
            let fresh = SigMemo::default().verify_chain(&chain, &keys, &trusted, &descriptor, now);
            let got = warm.verify_chain(&chain, &keys, &trusted, &descriptor, now);
            prop_assert_eq!(&fresh, &cold, "fresh memo, {:?}", step);
            prop_assert_eq!(&got, &cold, "warm memo, {:?}", step);
            accepted += cold.is_ok() as u32;
        }
        // Undamaged steps under the operator inside the window accept, so
        // the memo the later steps meet is warm.
        let clean = steps.iter().filter(|s| {
            matches!(s.damage, Damage::None) && s.now == 150 && s.trusted == 0
        });
        prop_assert!(accepted >= clean.count() as u32);
    }
}

// --- the memo itself: eviction, and what never enters ---

/// One chain-of-one per seed: the operator signs the experiment directly.
fn direct(operator: &Keypair, seed: u8) -> (Vec<Certificate>, sha256::Digest256) {
    let hash = sha256::digest(&[seed]);
    (
        vec![Certificate::sign(
            operator,
            CertPayload::Experiment(hash),
            Restrictions::none(),
        )],
        hash,
    )
}

#[test]
fn seventeen_signatures_evict_the_first() {
    watch_counters();
    let operator = Keypair::from_seed(&[1; 32]);
    let keys = cert::key_map(&[operator.public]);
    let trusted = [KeyHash::of(&operator.public)];
    let mut memo = SigMemo::default();
    let mut verify = |seed: u8| {
        let (chain, hash) = direct(&operator, seed);
        memo.verify_chain(&chain, &keys, &trusted, &hash, 0)
            .expect("a valid chain");
        counters()
    };
    for seed in 0..16 {
        assert_eq!(verify(seed), (u64::from(seed) + 1, 0));
    }
    assert_eq!(verify(0), (16, 1), "sixteen are remembered");
    assert_eq!(verify(16), (17, 1), "the seventeenth is new");
    assert_eq!(verify(16), (17, 2));
    assert_eq!(
        verify(0),
        (18, 2),
        "the oldest was forgotten, and is verified again"
    );
    assert_eq!(verify(2), (18, 3), "the third oldest was not");
}

#[test]
fn a_failing_signature_never_enters() {
    watch_counters();
    let operator = Keypair::from_seed(&[1; 32]);
    let keys = cert::key_map(&[operator.public]);
    let trusted = [KeyHash::of(&operator.public)];
    let (mut chain, hash) = direct(&operator, 7);
    chain[0].restrictions.max_priority = Some(255);
    let mut memo = SigMemo::default();
    for round in 1..=3 {
        let got = memo.verify_chain(&chain, &keys, &trusted, &hash, 0);
        assert_eq!(got, Err(CertError::BadSignature));
        assert_eq!(counters(), (round, 0), "verified afresh every time");
    }
}

/// Four fresh passes under each of five keys: three cold, then the fourth
/// builds the key's table. The fifth table evicts the first key's, which
/// is cold again until it has passed three more times.
#[test]
fn a_fifth_prepared_key_evicts_the_oldest() {
    watch_counters();
    let keys: Vec<Keypair> = (70..75u8).map(|s| Keypair::from_seed(&[s; 32])).collect();
    let mut memo = SigMemo::default();
    let mut fresh = |key: usize, round: u8| {
        let body = [round; 40];
        assert!(memo.verify_fresh(&keys[key].public, &body, &keys[key].sign(&body)));
        prepared()
    };
    for key in 0..5 {
        for round in 0..3 {
            assert_eq!(fresh(key, round), key as u64, "key {key} is cold");
        }
        assert_eq!(fresh(key, 3), key as u64 + 1, "key {key} is prepared");
    }
    for key in 1..5 {
        assert_eq!(fresh(key, 4), 5 + key as u64, "key {key} kept its table");
    }
    for round in 5..8 {
        assert_eq!(fresh(0, round), 9, "the first key's table was evicted");
    }
    assert_eq!(fresh(0, 8), 10, "and is built again");
    assert_eq!(fresh(1, 9), 10, "in place of the second's");
    assert_eq!(counters(), (29, 0), "every verification a curve one");
}

// --- through the agent: Figure 1's refusals, twice ---

/// The endpoint's wall clock (EndpointConfig default).
const WALL: u64 = 1_700_000_000;

struct World {
    net: Rc<RefCell<SimNet>>,
    ctrl_node: NodeId,
    ep_node: NodeId,
    ep_addr: Ipv4Addr,
    operator: Keypair,
}

fn world() -> World {
    let operator = Keypair::from_seed(&[3; 32]);
    let mut t = TopologyBuilder::new();
    let c = t.host("controller", "10.9.0.1".parse().unwrap());
    let e = t.host("endpoint", "10.0.0.1".parse().unwrap());
    t.link(c, e, LinkParams::new(5, 0));
    let mut net = SimNet::new(t.build());
    net.add_endpoint(
        e,
        EndpointConfig {
            trusted_keys: vec![KeyHash::of(&operator.public)],
            ..Default::default()
        },
    );
    World {
        net: Rc::new(RefCell::new(net)),
        ctrl_node: c,
        ep_node: e,
        ep_addr: "10.0.0.1".parse().unwrap(),
        operator,
    }
}

fn descriptor(experimenter: &Keypair) -> ExperimentDescriptor {
    ExperimentDescriptor {
        name: "memo".into(),
        controller_addr: "10.9.0.1:7000".into(),
        info_url: String::new(),
        experimenter: KeyHash::of(&experimenter.public),
    }
}

fn connect(world: &World, creds: &Credentials) -> Result<(), (ErrCode, String)> {
    let chan = SimChannel::connect(&world.net, world.ctrl_node, world.ep_addr);
    match Controller::connect(chan, creds) {
        Ok(_) => Ok(()),
        Err(ControllerError::Endpoint(code, msg)) => Err((code, msg)),
        Err(other) => panic!("expected a typed endpoint answer, got {other:?}"),
    }
}

/// `cert_negative.rs`'s six refusals: (what the refusal names, credentials).
fn refusals(operator: &Keypair) -> Vec<(&'static str, Credentials)> {
    let issue = |seed: u8, restrictions, priority| {
        let experimenter = Keypair::from_seed(&[seed; 32]);
        Credentials::issue(
            operator,
            &experimenter,
            descriptor(&experimenter),
            restrictions,
            priority,
        )
    };
    let expired = Restrictions {
        not_after: Some(WALL - 1),
        ..Restrictions::none()
    };
    let early = Restrictions {
        not_before: Some(WALL + 1_000),
        ..Restrictions::none()
    };
    let ceiling = Restrictions {
        max_priority: Some(5),
        ..Restrictions::none()
    };

    let (delegated, interloper) = (Keypair::from_seed(&[53; 32]), Keypair::from_seed(&[54; 32]));
    let desc = descriptor(&interloper);
    let broken = Credentials {
        chain: vec![
            Certificate::sign(
                operator,
                CertPayload::Delegation(KeyHash::of(&delegated.public)),
                Restrictions::none(),
            ),
            Certificate::sign(
                &interloper,
                CertPayload::Experiment(desc.hash()),
                Restrictions::none(),
            ),
        ],
        descriptor: desc,
        keys: vec![operator.public, delegated.public, interloper.public],
        signing_key: interloper,
        priority: 10,
    };

    let rogue = Keypair::from_seed(&[55; 32]);
    let experimenter = Keypair::from_seed(&[56; 32]);
    let untrusted = Credentials::issue(
        &rogue,
        &experimenter,
        descriptor(&experimenter),
        Restrictions::none(),
        10,
    );

    let mut swapped = issue(57, Restrictions::none(), 10);
    swapped.descriptor.name = "swapped".into();

    vec![
        ("expired", issue(50, expired, 10)),
        ("expired", issue(51, early, 10)),
        ("priority", issue(52, ceiling, 9)),
        ("broken chain", broken),
        ("no trusted signer", untrusted),
        ("descriptor", swapped),
    ]
}

#[test]
fn refusals_read_the_same_through_a_warm_memo() {
    watch_counters();
    let w = world();
    let battery = refusals(&w.operator);
    let pass = |label: &str| -> Vec<(ErrCode, String)> {
        battery
            .iter()
            .map(|(names, creds)| {
                let refusal = connect(&w, creds).expect_err("credentials that must be refused");
                assert!(refusal.1.contains(names), "{label}: {names}: {refusal:?}");
                refusal
            })
            .collect()
    };
    let cold = pass("cold");
    let (verified, hits) = counters();
    assert_eq!(hits, 0, "six different chains");
    let warm = pass("warm");
    assert_eq!(warm, cold, "identical typed errors both times");
    // Every signature that passed the first time is a hit the second, and
    // the only curve work left is the one possession proof a refusal gets
    // as far as (the priority ceiling is read after it).
    let (verified_warm, hits_warm) = counters();
    assert_eq!(hits_warm, verified - 1);
    assert_eq!(verified_warm, verified + 1);
    w.net.borrow_mut().process();
    assert_eq!(
        w.net
            .borrow()
            .endpoint_agent(EndpointId::first())
            .session_count(),
        0
    );
}

/// 64 sessions under one experimenter's key, with four forged proofs
/// after the second: three proofs verify cold, and from the fourth every
/// proof verifies under the key's table. A proof that fails never counts
/// toward preparing it.
#[test]
fn an_experimenter_seen_again_verifies_under_its_table() {
    watch_counters();
    let w = world();
    let experimenter = Keypair::from_seed(&[61; 32]);
    let creds = Credentials::issue(
        &w.operator,
        &experimenter,
        descriptor(&experimenter),
        Restrictions::none(),
        10,
    );
    let forged = Credentials {
        signing_key: Keypair::from_seed(&[62; 32]),
        ..creds.clone()
    };
    for session in 0..64 {
        if session == 2 {
            for _ in 0..4 {
                let refusal = connect(&w, &forged).expect_err("a forged proof");
                assert!(refusal.1.contains("possession proof"), "{refusal:?}");
            }
        }
        connect(&w, &creds).expect("valid credentials");
    }
    assert_eq!(prepared(), 61, "3 cold proofs, then 61 under the table");
    assert_eq!(counters(), (2 + 4 + 64, 2 * (4 + 63)));
}

#[test]
fn a_restarted_endpoint_remembers_nothing() {
    watch_counters();
    let w = world();
    let experimenter = Keypair::from_seed(&[60; 32]);
    let creds = Credentials::issue(
        &w.operator,
        &experimenter,
        descriptor(&experimenter),
        Restrictions::none(),
        10,
    );
    connect(&w, &creds).expect("valid credentials");
    assert_eq!(counters(), (3, 0), "two certificates and the proof");
    connect(&w, &creds).expect("valid credentials");
    assert_eq!(counters(), (4, 2), "the proof alone");

    let now = w.net.borrow().sim.now();
    for (delay, action) in [
        (1, FaultAction::NodeCrash { node: w.ep_node.0 }),
        (2, FaultAction::NodeRestart { node: w.ep_node.0 }),
    ] {
        w.net
            .borrow_mut()
            .sim
            .schedule_fault(now + delay * 1_000_000, action);
    }
    w.net.borrow_mut().run_until(now + 3_000_000);
    connect(&w, &creds).expect("valid credentials after the restart");
    assert_eq!(counters(), (7, 2), "the whole chain again");
}
