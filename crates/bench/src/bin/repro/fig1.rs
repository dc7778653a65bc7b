//! F1 — Figure 1 authorization-relationship reproduction.
//!
//! Walks all eight steps of the paper's authorization figure, printing
//! the verification outcome at each trust decision, then reports chain
//! verification cost as delegation depth grows ("Delegation can be
//! extended several levels by forming a certificate chain"): cold, what
//! an endpoint pays the first time it sees a chain, and warm, what it pays
//! when the experimenter's next session presents the chain again. The
//! chain sizes go to stdout, the wall times to stderr.

use packetlab::cert::{self, CertPayload, Certificate, Restrictions, SigMemo};
use packetlab::descriptor::ExperimentDescriptor;
use plab_crypto::{Keypair, KeyHash};
use std::time::Instant;

pub fn run(_: &crate::Opts) -> i32 {
    let rv_operator = Keypair::from_seed(&[1; 32]);
    let ep_operator = Keypair::from_seed(&[2; 32]);
    let experimenter = Keypair::from_seed(&[3; 32]);

    println!("F1: Figure 1 authorization relationships\n");

    // ➊ experimenter certificate from the rendezvous operator.
    let rv_deleg = Certificate::sign(
        &rv_operator,
        CertPayload::Delegation(KeyHash::of(&experimenter.public)),
        Restrictions::none(),
    );
    println!("➊ rendezvous operator → experimenter delegation ... signed");

    // ➋–➌ endpoint operator's delegation.
    let ep_deleg = Certificate::sign(
        &ep_operator,
        CertPayload::Delegation(KeyHash::of(&experimenter.public)),
        Restrictions { max_priority: Some(50), ..Default::default() },
    );
    println!("➋➌ endpoint operator → experimenter delegation ... signed (max priority 50)");

    // ➍ experiment certificate.
    let descriptor = ExperimentDescriptor {
        name: "fig1".into(),
        controller_addr: "10.0.0.1:7000".into(),
        info_url: String::new(),
        experimenter: KeyHash::of(&experimenter.public),
    };
    let exp_cert = Certificate::sign(
        &experimenter,
        CertPayload::Experiment(descriptor.hash()),
        Restrictions::none(),
    );
    println!("➍ experimenter → experiment certificate ... signed");

    // ➎–➏ rendezvous-side verification of the published bundle.
    let bundle = [rv_deleg.clone(), ep_deleg.clone(), exp_cert.clone()];
    let keys = cert::key_map(&[rv_operator.public, ep_operator.public, experimenter.public]);
    let rv_check = cert::verify_cert_set(
        &bundle,
        &keys,
        &[KeyHash::of(&rv_operator.public)],
        &descriptor.hash(),
        0,
    );
    println!("➎➏ rendezvous verifies publish bundle ... {}", ok(rv_check.is_ok()));

    // ➐–➑ endpoint-side verification of the presented chain.
    let ep_check = cert::verify_chain(
        &[ep_deleg.clone(), exp_cert.clone()],
        &keys,
        &[KeyHash::of(&ep_operator.public)],
        &descriptor.hash(),
        0,
    );
    println!("➐➑ endpoint verifies experiment chain ... {}", ok(ep_check.is_ok()));
    let eff = ep_check.unwrap();
    println!("    effective restrictions: max priority {:?}\n", eff.max_priority);

    // Negative controls.
    let mallory = Keypair::from_seed(&[9; 32]);
    let bad = cert::verify_chain(
        &[ep_deleg, exp_cert.clone()],
        &keys,
        &[KeyHash::of(&mallory.public)],
        &descriptor.hash(),
        0,
    );
    println!("control: chain vs untrusted root ... {}", ok(bad.is_err()));
    let mut tampered = exp_cert;
    tampered.restrictions.max_priority = Some(255);
    println!(
        "control: tampered certificate signature ... {}",
        ok(!tampered.verify_signature(&experimenter.public))
    );

    // Scaling: verification cost vs delegation depth.
    println!("\nchain size vs delegation depth:");
    println!("{:>7} {:>14}", "depth", "chain bytes");
    eprintln!("chain verification cost vs delegation depth:");
    eprintln!("{:>7} {:>14} {:>14}", "depth", "cold verify", "warm verify");
    for depth in [1usize, 2, 4, 8, 16] {
        let mut chain = Vec::new();
        let mut pubkeys = Vec::new();
        let mut signer = Keypair::from_seed(&[100; 32]);
        pubkeys.push(signer.public);
        let root_hash = KeyHash::of(&signer.public);
        for i in 0..depth {
            let next = Keypair::from_seed(&[101 + i as u8; 32]);
            chain.push(Certificate::sign(
                &signer,
                CertPayload::Delegation(KeyHash::of(&next.public)),
                Restrictions::none(),
            ));
            pubkeys.push(next.public);
            signer = next;
        }
        chain.push(Certificate::sign(
            &signer,
            CertPayload::Experiment(descriptor.hash()),
            Restrictions::none(),
        ));
        let keys = cert::key_map(&pubkeys);
        let bytes: usize = chain.iter().map(|c| c.encode().len()).sum();
        let iters = 20;
        // One untimed call first: it is what warms the memo.
        let time = |verify: &mut dyn FnMut() -> bool| {
            assert!(verify(), "valid deep chain");
            let start = Instant::now();
            for _ in 0..iters {
                assert!(verify(), "valid deep chain");
            }
            start.elapsed() / iters
        };
        let (root, dhash) = ([root_hash], descriptor.hash());
        let cold = time(&mut || cert::verify_chain(&chain, &keys, &root, &dhash, 0).is_ok());
        let mut memo = SigMemo::default();
        let warm = time(&mut || memo.verify_chain(&chain, &keys, &root, &dhash, 0).is_ok());
        println!("{depth:>7} {bytes:>12} B");
        eprintln!("{depth:>7} {cold:>14.2?} {warm:>14.2?}");
    }
    eprintln!(
        "(depth 16 is 17 certificates through the memo's 16 slots, oldest out first: \
         each is forgotten just before it comes round again)"
    );
    0
}

fn ok(b: bool) -> &'static str {
    if b {
        "ok"
    } else {
        "FAILED"
    }
}
