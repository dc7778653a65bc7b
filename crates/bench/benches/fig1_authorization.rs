//! F1 bench: the bare Ed25519 sign/verify under every certificate, then
//! certificate operations — signing, chain verification vs delegation
//! depth, and the rendezvous-side unordered cert-set search.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use packetlab::cert::{self, CertPayload, Certificate, Restrictions};
use packetlab::descriptor::ExperimentDescriptor;
use plab_crypto::{KeyHash, Keypair};
use std::hint::black_box;

fn descriptor() -> ExperimentDescriptor {
    ExperimentDescriptor {
        name: "bench".into(),
        controller_addr: "10.0.0.1:7000".into(),
        info_url: String::new(),
        experimenter: KeyHash([7; 32]),
    }
}

/// Build a delegation chain of `depth` hops ending in an experiment cert.
fn chain_of_depth(
    depth: usize,
) -> (Vec<Certificate>, std::collections::HashMap<KeyHash, plab_crypto::PublicKey>, KeyHash) {
    let mut chain = Vec::new();
    let mut pubkeys = Vec::new();
    let mut signer = Keypair::from_seed(&[100; 32]);
    pubkeys.push(signer.public);
    let root = KeyHash::of(&signer.public);
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
        CertPayload::Experiment(descriptor().hash()),
        Restrictions::none(),
    ));
    (chain, cert::key_map(&pubkeys), root)
}

fn bench_certs(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig1");
    g.sample_size(20);

    let kp = Keypair::from_seed(&[7; 32]);
    let msg = [0x5au8; 96];
    let sig = kp.sign(&msg);
    g.bench_function("ed25519_sign", |b| b.iter(|| kp.sign(black_box(&msg))));
    g.bench_function("ed25519_verify", |b| {
        b.iter(|| assert!(plab_crypto::ed25519::verify(&kp.public, black_box(&msg), &sig)));
    });

    g.bench_function("sign_delegation", |b| {
        let op = Keypair::from_seed(&[1; 32]);
        b.iter(|| {
            Certificate::sign(
                &op,
                CertPayload::Delegation(KeyHash([5; 32])),
                Restrictions::none(),
            )
        });
    });

    for depth in [1usize, 2, 4, 8] {
        let (chain, keys, root) = chain_of_depth(depth);
        let dhash = descriptor().hash();
        g.bench_with_input(BenchmarkId::new("verify_chain_depth", depth), &depth, |b, _| {
            b.iter(|| {
                cert::verify_chain(&chain, &keys, &[root], &dhash, 0).unwrap();
            });
        });
    }

    // Unordered cert-set search (rendezvous side): scrambled order.
    let (mut bundle, keys, root) = chain_of_depth(4);
    bundle.reverse();
    let dhash = descriptor().hash();
    g.bench_function("verify_cert_set_scrambled_depth4", |b| {
        b.iter(|| {
            cert::verify_cert_set(&bundle, &keys, &[root], &dhash, 0).unwrap();
        });
    });

    g.bench_function("encode_decode_certificate", |b| {
        let op = Keypair::from_seed(&[1; 32]);
        let cert = Certificate::sign(
            &op,
            CertPayload::Delegation(KeyHash([5; 32])),
            Restrictions {
                not_before: Some(1),
                not_after: Some(2),
                monitor: Some(vec![0; 200]),
                max_buffer_bytes: Some(1 << 20),
                max_priority: Some(10),
            },
        );
        b.iter(|| {
            let enc = cert.encode();
            Certificate::decode(&enc).unwrap()
        });
    });

    g.finish();
}

criterion_group!(benches, bench_certs);
criterion_main!(benches);
