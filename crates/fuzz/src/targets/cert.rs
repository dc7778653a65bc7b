//! Fuzz target: certificate decoding and chain/set verification.
//!
//! The input blob is a *bundle*: a sequence of u32-LE length-prefixed
//! certificate encodings. The fuzzer builds a pristine, correctly signed
//! delegation chain (root → delegate → experiment certificate) from fixed
//! key seeds, mutates the bundle, and checks:
//!
//! - decoding never panics, and accepted certificates survive an
//!   encode→decode round trip (idempotent fixed point);
//! - `verify_chain` / `verify_cert_set` never panic on any decodable
//!   bundle;
//! - forgery resistance: a bundle whose decoded certificates differ from
//!   the pristine chain must never verify (every byte of a certificate is
//!   covered by its signature);
//! - memo exactness: an endpoint's `SigMemo`, warm from every bundle the
//!   run has verified so far or empty, returns `verify_chain`'s verdict
//!   and error.

use crate::mutate::mutate;
use crate::{exec_one, Exec, Report};
use packetlab::cert::{
    verify_cert_set, verify_chain, CertPayload, Certificate, Restrictions, SigMemo,
};
use plab_crypto::{sha256, KeyHash, Keypair, PublicKey};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;

/// Wall-clock instant used by every verification (determinism).
const NOW: u64 = 1_000;

/// The fixed trust environment every input is verified against.
struct Fixture {
    keys: HashMap<KeyHash, PublicKey>,
    trusted: Vec<KeyHash>,
    descriptor_hash: sha256::Digest256,
    /// The correctly signed chain, root first.
    pristine: Vec<Certificate>,
}

fn fixture() -> Fixture {
    let root = Keypair::from_seed(&[0x11; 32]);
    let mid = Keypair::from_seed(&[0x22; 32]);
    let descriptor_hash = sha256::digest(b"plab-fuzz experiment descriptor");
    let restrictions = Restrictions {
        not_before: Some(NOW - 500),
        not_after: Some(NOW + 500),
        max_buffer_bytes: Some(1 << 20),
        max_priority: Some(5),
        ..Restrictions::none()
    };
    let c0 = Certificate::sign(
        &root,
        CertPayload::Delegation(KeyHash::of(&mid.public)),
        restrictions,
    );
    let c1 = Certificate::sign(
        &mid,
        CertPayload::Experiment(descriptor_hash),
        Restrictions::none(),
    );
    Fixture {
        keys: packetlab::cert::key_map(&[root.public, mid.public]),
        trusted: vec![KeyHash::of(&root.public)],
        descriptor_hash,
        pristine: vec![c0, c1],
    }
}

fn encode_bundle(certs: &[Certificate]) -> Vec<u8> {
    let mut out = Vec::new();
    for c in certs {
        let enc = c.encode();
        out.extend_from_slice(&(enc.len() as u32).to_le_bytes());
        out.extend_from_slice(&enc);
    }
    out
}

/// Parse a bundle; `None` on any framing or certificate decode failure.
fn decode_bundle(bytes: &[u8]) -> Option<Vec<Certificate>> {
    let mut certs = Vec::new();
    let mut r = bytes;
    while !r.is_empty() {
        let len = u32::from_le_bytes(r.get(..4)?.try_into().ok()?) as usize;
        r = &r[4..];
        let blob = r.get(..len)?;
        r = &r[len..];
        let cert = Certificate::decode(blob).ok()?;
        // Round-trip oracle is checked by the caller; cap bundle size so a
        // mutated length field cannot make this loop allocate unboundedly.
        if certs.len() >= 64 {
            return None;
        }
        certs.push(cert);
    }
    Some(certs)
}

fn check_against(fx: &Fixture, warm: &mut SigMemo, bytes: &[u8]) -> Result<Exec, String> {
    let certs = match decode_bundle(bytes) {
        Some(c) => c,
        None => return Ok(Exec::Rejected),
    };
    // Idempotent fixed point for every accepted certificate.
    for c in &certs {
        match Certificate::decode(&c.encode()) {
            Ok(c2) if c2 == *c => {}
            other => return Err(format!("cert encode/decode not a fixed point: {other:?}")),
        }
    }
    // Verification must never panic, whatever the bundle shape.
    let chain_res = verify_chain(&certs, &fx.keys, &fx.trusted, &fx.descriptor_hash, NOW);
    let set_res = verify_cert_set(&certs, &fx.keys, &fx.trusted, &fx.descriptor_hash, NOW);
    // A memo remembers signatures, never verdicts.
    for (state, memo) in [("warm", warm), ("empty", &mut SigMemo::default())] {
        let res = memo.verify_chain(&certs, &fx.keys, &fx.trusted, &fx.descriptor_hash, NOW);
        if res != chain_res {
            return Err(format!(
                "{state} memo answered {res:?}, verify_chain {chain_res:?}"
            ));
        }
    }
    // Forgery resistance: anything other than the pristine chain must fail.
    if certs != fx.pristine {
        if chain_res.is_ok() {
            return Err("verify_chain accepted a modified bundle".into());
        }
        // The set verifier may legitimately accept a *reordering or
        // superset* of the pristine chain (that is its job), but only if
        // every pristine certificate's bits are intact within it.
        let all_pristine = certs.iter().all(|c| fx.pristine.contains(c));
        if set_res.is_ok() && !all_pristine {
            return Err("verify_cert_set accepted a bundle containing a forged certificate".into());
        }
        return Ok(Exec::Rejected);
    }
    if chain_res.is_err() {
        return Err(format!("pristine chain rejected: {chain_res:?}"));
    }
    if set_res.is_err() {
        return Err(format!("pristine set rejected: {set_res:?}"));
    }
    Ok(Exec::Accepted)
}

/// Oracle function for one bundle.
pub fn check(bytes: &[u8]) -> Result<Exec, String> {
    check_against(&fixture(), &mut SigMemo::default(), bytes)
}

/// The encoded pristine bundle (used to seed the checked-in corpus).
pub fn pristine_bundle() -> Vec<u8> {
    encode_bundle(&fixture().pristine)
}

/// Mutational fuzz loop.
pub fn run(seed: u64, iters: u64) -> Report {
    let mut report = Report::new("cert", seed);
    let fx = fixture();
    let mut warm = SigMemo::default();
    let pristine_bundle = encode_bundle(&fx.pristine);
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..iters {
        let mut bundle = pristine_bundle.clone();
        if rng.gen_bool(0.8) {
            mutate(&mut rng, &mut bundle);
        }
        exec_one(&mut report, &bundle, || {
            check_against(&fx, &mut warm, &bundle)
        });
    }
    report
}
