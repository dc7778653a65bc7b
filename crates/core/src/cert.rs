//! Certificates and delegation (§3.3).
//!
//! "A certificate consists of a cryptographic hash of the signer public
//! key, a cryptographic hash of the signed object, an optional list of
//! restrictions, and a digital signature of the above. There are two
//! functionally different kinds of certificates: experiment certificates
//! and delegation certificates. Both use the same format and differ only
//! in the object being signed."
//!
//! Restrictions carried by any certificate in a chain constrain the whole
//! chain (they can only tighten): validity period, experiment monitor,
//! buffer space limit, and maximum priority — exactly the paper's list.

use plab_crypto::ed25519::{Ladder, PreparedKey};
use plab_crypto::{sha256, KeyHash, Keypair, PublicKey, Signature};
use plab_packet::codec::{Reader, WireError, Writer};
use std::collections::HashMap;

/// Optional restrictions on certificate applicability (§3.3: "validity
/// period, experiment monitor, buffer space limits, and priority").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Restrictions {
    /// Not valid before (endpoint wall-clock seconds).
    pub not_before: Option<u64>,
    /// Not valid after (endpoint wall-clock seconds).
    pub not_after: Option<u64>,
    /// Encoded PFVM monitor the endpoint must enforce (§3.4).
    pub monitor: Option<Vec<u8>>,
    /// Ceiling on endpoint capture-buffer bytes.
    pub max_buffer_bytes: Option<u64>,
    /// Ceiling on experiment priority.
    pub max_priority: Option<u8>,
}

impl Restrictions {
    /// No restrictions.
    pub fn none() -> Self {
        Self::default()
    }

    fn write(&self, w: &mut Writer) {
        write_opt(w, &self.not_before, |w, v| w.u64(*v));
        write_opt(w, &self.not_after, |w, v| w.u64(*v));
        write_opt(w, &self.monitor, |w, m| w.bytes(m));
        write_opt(w, &self.max_buffer_bytes, |w, v| w.u64(*v));
        write_opt(w, &self.max_priority, |w, p| w.u8(*p));
    }

    fn read(r: &mut Reader) -> Result<Restrictions, WireError> {
        Ok(Restrictions {
            not_before: read_opt(r, Reader::u64)?,
            not_after: read_opt(r, Reader::u64)?,
            monitor: read_opt(r, |r| Ok(r.bytes(MAX_MONITOR)?.to_vec()))?,
            max_buffer_bytes: read_opt(r, Reader::u64)?,
            max_priority: read_opt(r, Reader::u8)?,
        })
    }
}

/// Largest monitor a restriction may carry, in bytes.
const MAX_MONITOR: usize = 1 << 20;

/// An optional field: a presence byte (0 or 1), then the value if present.
fn write_opt<T>(w: &mut Writer, v: &Option<T>, write: impl FnOnce(&mut Writer, &T)) {
    match v {
        Some(v) => {
            w.u8(1);
            write(w, v);
        }
        None => w.u8(0),
    }
}

/// The decode half of [`write_opt`].
fn read_opt<'a, T>(
    r: &mut Reader<'a>,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, WireError>,
) -> Result<Option<T>, WireError> {
    match r.u8()? {
        0 => Ok(None),
        1 => read(r).map(Some),
        _ => Err(WireError::BadTag),
    }
}

/// Magic and format version that open every certificate.
const MAGIC: &[u8; 7] = b"PLCERT\x01";

/// What a certificate signs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CertPayload {
    /// Delegation: the hash of another public key ("the object signed is
    /// another public key").
    Delegation(KeyHash),
    /// Experiment: the hash of an experiment descriptor.
    Experiment(sha256::Digest256),
}

impl CertPayload {
    fn kind(&self) -> u8 {
        match self {
            CertPayload::Delegation(_) => 0,
            CertPayload::Experiment(_) => 1,
        }
    }

    fn hash_bytes(&self) -> &[u8; 32] {
        match self {
            CertPayload::Delegation(k) => &k.0,
            CertPayload::Experiment(d) => &d.0,
        }
    }
}

/// A PacketLab certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// Hash of the signer's public key ("Public keys are identified by
    /// their hash value").
    pub signer: KeyHash,
    /// The signed object.
    pub payload: CertPayload,
    /// Optional restrictions.
    pub restrictions: Restrictions,
    /// Ed25519 signature over the canonical encoding of the above.
    pub signature: Signature,
}

/// Errors from certificate operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertError {
    /// Encoding malformed.
    Malformed,
    /// Signature verification failed.
    BadSignature,
    /// Chain structure broken (wrong order, wrong payloads).
    BrokenChain,
    /// No certificate in the chain is signed by a trusted key.
    Untrusted,
    /// A referenced public key was not supplied.
    MissingKey,
    /// Certificate outside its validity window.
    Expired,
    /// The leaf does not bind the presented descriptor.
    WrongDescriptor,
}

impl core::fmt::Display for CertError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            CertError::Malformed => "malformed certificate",
            CertError::BadSignature => "bad signature",
            CertError::BrokenChain => "broken chain",
            CertError::Untrusted => "no trusted signer",
            CertError::MissingKey => "referenced key missing",
            CertError::Expired => "certificate expired or not yet valid",
            CertError::WrongDescriptor => "leaf does not bind descriptor",
        };
        write!(f, "{s}")
    }
}

impl std::error::Error for CertError {}

impl Certificate {
    /// The canonical bytes covered by the signature.
    fn signed_bytes(
        signer: &KeyHash,
        payload: &CertPayload,
        restrictions: &Restrictions,
    ) -> Vec<u8> {
        Writer::build(0, |w| {
            w.raw(MAGIC);
            w.raw(&signer.0);
            w.u8(payload.kind());
            w.raw(payload.hash_bytes());
            restrictions.write(w);
        })
    }

    /// Create and sign a certificate.
    pub fn sign(signer: &Keypair, payload: CertPayload, restrictions: Restrictions) -> Certificate {
        let signer_hash = KeyHash::of(&signer.public);
        let body = Self::signed_bytes(&signer_hash, &payload, &restrictions);
        let signature = signer.sign(&body);
        Certificate {
            signer: signer_hash,
            payload,
            restrictions,
            signature,
        }
    }

    /// Verify this certificate's signature against the signer's key.
    pub fn verify_signature(&self, signer_key: &PublicKey) -> bool {
        self.verify_signature_with(signer_key, plab_crypto::ed25519::verify)
    }

    /// The checks around the curve equation — the key is the one the
    /// certificate names, the bytes are the ones it covers — with the
    /// equation itself (key, signed bytes, signature) left to `curve_ok`.
    fn verify_signature_with(
        &self,
        signer_key: &PublicKey,
        curve_ok: impl FnOnce(&PublicKey, &[u8], &Signature) -> bool,
    ) -> bool {
        KeyHash::of(signer_key) == self.signer
            && curve_ok(
                signer_key,
                &Self::signed_bytes(&self.signer, &self.payload, &self.restrictions),
                &self.signature,
            )
    }

    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Self::signed_bytes(&self.signer, &self.payload, &self.restrictions);
        out.extend_from_slice(self.signature.as_bytes());
        out
    }

    /// Deserialize.
    pub fn decode(bytes: &[u8]) -> Result<Certificate, CertError> {
        Reader::all(bytes, |r| {
            if r.take()? != *MAGIC {
                return Err(WireError::BadTag);
            }
            let signer = KeyHash(r.take()?);
            let payload = match (r.u8()?, r.take()?) {
                (0, hash) => CertPayload::Delegation(KeyHash(hash)),
                (1, hash) => CertPayload::Experiment(sha256::Digest256(hash)),
                _ => return Err(WireError::BadTag),
            };
            Ok(Certificate {
                signer,
                payload,
                restrictions: Restrictions::read(r)?,
                signature: Signature::from_bytes(r.take()?),
            })
        })
        .map_err(|_| CertError::Malformed)
    }
}

/// The intersection of all restrictions along a verified chain — what the
/// endpoint actually enforces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EffectiveRestrictions {
    /// Latest `not_before` along the chain.
    pub not_before: Option<u64>,
    /// Earliest `not_after`.
    pub not_after: Option<u64>,
    /// Every monitor in the chain (all must allow every operation).
    pub monitors: Vec<Vec<u8>>,
    /// Smallest buffer ceiling.
    pub max_buffer_bytes: Option<u64>,
    /// Smallest priority ceiling.
    pub max_priority: Option<u8>,
}

impl EffectiveRestrictions {
    fn tighten(&mut self, r: &Restrictions) {
        if let Some(nb) = r.not_before {
            self.not_before = Some(self.not_before.map_or(nb, |x| x.max(nb)));
        }
        if let Some(na) = r.not_after {
            self.not_after = Some(self.not_after.map_or(na, |x| x.min(na)));
        }
        if let Some(m) = &r.monitor {
            self.monitors.push(m.clone());
        }
        if let Some(b) = r.max_buffer_bytes {
            self.max_buffer_bytes = Some(self.max_buffer_bytes.map_or(b, |x| x.min(b)));
        }
        if let Some(p) = r.max_priority {
            self.max_priority = Some(self.max_priority.map_or(p, |x| x.min(p)));
        }
    }

    /// Is `t` (wall seconds) inside the validity window?
    pub fn valid_at(&self, t: u64) -> bool {
        self.not_before.is_none_or(|nb| t >= nb) && self.not_after.is_none_or(|na| t <= na)
    }
}

/// Verify a certificate chain (root first) that authorizes `descriptor_hash`.
///
/// Rules (§3.3): the first certificate must be signed by a key in
/// `trusted` (the endpoint operator's key set, or a rendezvous server's
/// accepted publishers). Each delegation certificate authorizes the key
/// that signs the next certificate. The final certificate must be an
/// experiment certificate binding `descriptor_hash`. `keys` supplies the
/// public keys referenced by hash. `now` (wall seconds) checks validity
/// windows; restrictions accumulate by intersection.
pub fn verify_chain(
    chain: &[Certificate],
    keys: &HashMap<KeyHash, PublicKey>,
    trusted: &[KeyHash],
    descriptor_hash: &sha256::Digest256,
    now: u64,
) -> Result<EffectiveRestrictions, CertError> {
    walk_chain(
        chain,
        keys,
        trusted,
        descriptor_hash,
        now,
        plab_crypto::ed25519::verify,
    )
}

/// [`verify_chain`] with the curve equation of each signature check left to
/// `curve_ok`: the one chain walk, under the cold verifier and under a
/// [`SigMemo`].
fn walk_chain(
    chain: &[Certificate],
    keys: &HashMap<KeyHash, PublicKey>,
    trusted: &[KeyHash],
    descriptor_hash: &sha256::Digest256,
    now: u64,
    mut curve_ok: impl FnMut(&PublicKey, &[u8], &Signature) -> bool,
) -> Result<EffectiveRestrictions, CertError> {
    if chain.is_empty() {
        return Err(CertError::BrokenChain);
    }
    if !trusted.contains(&chain[0].signer) {
        return Err(CertError::Untrusted);
    }
    let mut effective = EffectiveRestrictions::default();
    for (i, cert) in chain.iter().enumerate() {
        let signer_key = keys.get(&cert.signer).ok_or(CertError::MissingKey)?;
        if !cert.verify_signature_with(signer_key, &mut curve_ok) {
            return Err(CertError::BadSignature);
        }
        effective.tighten(&cert.restrictions);
        let is_last = i == chain.len() - 1;
        match (&cert.payload, is_last) {
            (CertPayload::Delegation(next_key), false) => {
                // The delegated key must sign the next certificate.
                if chain[i + 1].signer != *next_key {
                    return Err(CertError::BrokenChain);
                }
            }
            (CertPayload::Experiment(d), true) => {
                if d != descriptor_hash {
                    return Err(CertError::WrongDescriptor);
                }
            }
            // Delegation as leaf or experiment mid-chain: broken.
            _ => return Err(CertError::BrokenChain),
        }
    }
    if !effective.valid_at(now) {
        return Err(CertError::Expired);
    }
    Ok(effective)
}

/// How many verified signatures a [`SigMemo`] holds, and how many keys it
/// counts passing proofs under. A constant, not a setting: it bounds what
/// an endpoint keeps (512 bytes of hashes, sixteen counts) whatever
/// arrives, and an endpoint serves a handful of operators and
/// experimenters at a time — past sixteen the oldest is forgotten and
/// verified again.
const SIG_MEMO_SLOTS: usize = 16;

/// Proofs that pass under a key before the next verification under it
/// builds its table, and how many tables (40 KiB each) a memo keeps: the
/// ski-rental threshold and the memory bound of DESIGN deviation 10.
const PREPARE_AFTER: u32 = 3;
const PREPARED_KEYS: usize = 4;

static M_SIG_VERIFIED: plab_obs::metrics::Counter =
    plab_obs::metrics::Counter::new("endpoint.auth.sig_verified");
static M_SIG_MEMO_HITS: plab_obs::metrics::Counter =
    plab_obs::metrics::Counter::new("endpoint.auth.sig_memo_hits");
static M_SIG_PREPARED: plab_obs::metrics::Counter =
    plab_obs::metrics::Counter::new("endpoint.auth.sig_prepared");

/// The one place an endpoint verifies signatures. It remembers the
/// certificate signatures it has already verified, so that the delegation
/// arriving again with an experimenter's next session costs one hash in
/// place of a curve verification (§3.3 re-verifies the chain on every
/// session; Figure 1's delegations are long-lived by design), and keeps the
/// [`PreparedKey`] of a key it keeps verifying possession proofs under.
///
/// An entry is `SHA-256(signer key ‖ signature ‖ signed bytes)`: a hit
/// means these exact bytes passed [`plab_crypto::ed25519::verify`] under
/// this exact key before, and the verdict of that function depends on
/// nothing else. Only passes are kept, the oldest of sixteen is evicted
/// first, and nothing else about a chain is remembered:
/// [`SigMemo::verify_chain`] is [`verify_chain`]'s walk, so trust root,
/// chain shape, descriptor binding and validity window are evaluated on
/// every call. A prepared key gives the cold verdict, so it too changes
/// only the cost.
#[derive(Default)]
pub struct SigMemo {
    /// Entries, the oldest first.
    verified: Vec<[u8; 32]>,
    /// Passing proofs under keys without a table, the oldest key first.
    passes: Vec<(PublicKey, u32)>,
    /// Keys with a table, the oldest first.
    prepared: Vec<PreparedKey>,
}

impl SigMemo {
    /// [`verify_chain`], skipping the curve equation for a signature this
    /// memo has seen pass. Same verdict and same error as the cold
    /// function for every input and every memo state.
    pub fn verify_chain(
        &mut self,
        chain: &[Certificate],
        keys: &HashMap<KeyHash, PublicKey>,
        trusted: &[KeyHash],
        descriptor_hash: &sha256::Digest256,
        now: u64,
    ) -> Result<EffectiveRestrictions, CertError> {
        walk_chain(
            chain,
            keys,
            trusted,
            descriptor_hash,
            now,
            |key, body, signature| self.verify(key, body, signature),
        )
    }

    fn verify(&mut self, key: &PublicKey, body: &[u8], signature: &Signature) -> bool {
        let id = sha256::digest_parts(&[key.as_bytes(), signature.as_bytes(), body]).0;
        if self.verified.contains(&id) {
            M_SIG_MEMO_HITS.inc();
            return true;
        }
        let ok = self.curve(key, body, signature);
        if ok {
            push_bounded(&mut self.verified, SIG_MEMO_SLOTS, id);
        }
        ok
    }

    /// Verify a possession proof, which signs a fresh nonce and so is
    /// never remembered. A pass counts toward preparing `key`, and the
    /// verification after its third builds the key's table.
    pub fn verify_fresh(&mut self, key: &PublicKey, body: &[u8], signature: &Signature) -> bool {
        let ready = |&(k, n): &(PublicKey, u32)| k == *key && n == PREPARE_AFTER;
        if let Some(at) = self.passes.iter().position(ready) {
            self.passes.remove(at);
            if let Some(table) = PreparedKey::new(Ladder::detect(), key) {
                push_bounded(&mut self.prepared, PREPARED_KEYS, table);
            }
        }
        let cold = !self.prepared.iter().any(|p| p.public() == key);
        let ok = self.curve(key, body, signature);
        if ok && cold {
            match self.passes.iter_mut().find(|(k, _)| k == key) {
                Some((_, n)) => *n += 1,
                None => push_bounded(&mut self.passes, SIG_MEMO_SLOTS, (*key, 1)),
            }
        }
        ok
    }

    /// The curve equation, under `key`'s table if the memo holds one.
    fn curve(&self, key: &PublicKey, body: &[u8], signature: &Signature) -> bool {
        M_SIG_VERIFIED.inc();
        match self.prepared.iter().find(|p| p.public() == key) {
            Some(prepared) => {
                M_SIG_PREPARED.inc();
                prepared.verify(body, signature)
            }
            None => plab_crypto::ed25519::verify(key, body, signature),
        }
    }
}

/// Push `item`, first dropping the oldest if `v` holds `cap`.
fn push_bounded<T>(v: &mut Vec<T>, cap: usize, item: T) {
    if v.len() == cap {
        v.remove(0);
    }
    v.push(item);
}

/// Convenience: build the key map an `Auth` message carries.
pub fn key_map(keys: &[PublicKey]) -> HashMap<KeyHash, PublicKey> {
    keys.iter().map(|k| (KeyHash::of(k), *k)).collect()
}

/// Verify a *certificate set* authorizing `descriptor_hash`: used by
/// rendezvous servers, where the experimenter "includes the full
/// certificate chain and corresponding public keys" — typically *both* the
/// rendezvous-operator path and one or more endpoint-operator paths, in no
/// particular order. The server accepts when any subset forms a valid
/// chain from one of its `trusted` keys to an experiment certificate
/// binding the descriptor.
///
/// Returns the effective restrictions along the first valid path found.
pub fn verify_cert_set(
    certs: &[Certificate],
    keys: &HashMap<KeyHash, PublicKey>,
    trusted: &[KeyHash],
    descriptor_hash: &sha256::Digest256,
    now: u64,
) -> Result<EffectiveRestrictions, CertError> {
    if certs.is_empty() {
        return Err(CertError::BrokenChain);
    }
    // All presented certificates must at least be validly signed (a forged
    // certificate anywhere in the bundle is grounds for rejection).
    for cert in certs {
        let key = keys.get(&cert.signer).ok_or(CertError::MissingKey)?;
        if !cert.verify_signature(key) {
            return Err(CertError::BadSignature);
        }
    }
    // Delegations by delegated-key: who hands authority to K?
    let mut delegators: HashMap<KeyHash, Vec<&Certificate>> = HashMap::new();
    for cert in certs {
        if let CertPayload::Delegation(k) = &cert.payload {
            delegators.entry(*k).or_default().push(cert);
        }
    }
    // Depth-first search for an authorization path trusted → ... → signer
    // of an experiment certificate binding the descriptor.
    // Recursion is bounded because every descent pushes a new key onto
    // `visited` (≤ number of distinct delegated keys), but a hostile bundle
    // can still present thousands of distinct certificates; cap the path
    // depth explicitly so stack usage stays small regardless of set size.
    const MAX_PATH_DEPTH: usize = 256;
    fn authorize(
        key: &KeyHash,
        trusted: &[KeyHash],
        delegators: &HashMap<KeyHash, Vec<&Certificate>>,
        visited: &mut Vec<KeyHash>,
    ) -> Option<Vec<Restrictions>> {
        if trusted.contains(key) {
            return Some(Vec::new());
        }
        if visited.contains(key) || visited.len() >= MAX_PATH_DEPTH {
            return None;
        }
        visited.push(*key);
        if let Some(certs) = delegators.get(key) {
            for cert in certs {
                if let Some(mut path) = authorize(&cert.signer, trusted, delegators, visited) {
                    path.push(cert.restrictions.clone());
                    return Some(path);
                }
            }
        }
        None
    }

    let mut last_err = CertError::Untrusted;
    for cert in certs {
        let CertPayload::Experiment(d) = &cert.payload else {
            continue;
        };
        if d != descriptor_hash {
            last_err = CertError::WrongDescriptor;
            continue;
        }
        let mut visited = Vec::new();
        if let Some(path) = authorize(&cert.signer, trusted, &delegators, &mut visited) {
            let mut effective = EffectiveRestrictions::default();
            for r in &path {
                effective.tighten(r);
            }
            effective.tighten(&cert.restrictions);
            if !effective.valid_at(now) {
                last_err = CertError::Expired;
                continue;
            }
            return Ok(effective);
        }
    }
    Err(last_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use plab_crypto::Keypair;

    fn kp(seed: u8) -> Keypair {
        Keypair::from_seed(&[seed; 32])
    }

    fn dhash(data: &[u8]) -> sha256::Digest256 {
        sha256::digest(data)
    }

    /// operator -> experimenter -> experiment, the Figure 1 shape.
    fn standard_chain(
        operator: &Keypair,
        experimenter: &Keypair,
        descriptor: &[u8],
        op_restrictions: Restrictions,
    ) -> (Vec<Certificate>, HashMap<KeyHash, PublicKey>) {
        let deleg = Certificate::sign(
            operator,
            CertPayload::Delegation(KeyHash::of(&experimenter.public)),
            op_restrictions,
        );
        let exp = Certificate::sign(
            experimenter,
            CertPayload::Experiment(dhash(descriptor)),
            Restrictions::none(),
        );
        let keys = key_map(&[operator.public, experimenter.public]);
        (vec![deleg, exp], keys)
    }

    #[test]
    fn encode_decode_roundtrip() {
        let op = kp(1);
        let cert = Certificate::sign(
            &op,
            CertPayload::Delegation(KeyHash([9; 32])),
            Restrictions {
                not_before: Some(100),
                not_after: Some(200),
                monitor: Some(vec![1, 2, 3]),
                max_buffer_bytes: Some(4096),
                max_priority: Some(10),
            },
        );
        let decoded = Certificate::decode(&cert.encode()).unwrap();
        assert_eq!(decoded, cert);
    }

    #[test]
    fn signature_verifies_and_tamper_detected() {
        let op = kp(1);
        let cert = Certificate::sign(
            &op,
            CertPayload::Delegation(KeyHash([5; 32])),
            Restrictions::none(),
        );
        assert!(cert.verify_signature(&op.public));
        let mut tampered = cert.clone();
        tampered.restrictions.max_priority = Some(255);
        assert!(!tampered.verify_signature(&op.public));
        // Wrong key.
        assert!(!cert.verify_signature(&kp(2).public));
    }

    #[test]
    fn valid_two_level_chain() {
        let op = kp(1);
        let exp = kp(2);
        let (chain, keys) = standard_chain(&op, &exp, b"my experiment", Restrictions::none());
        let eff = verify_chain(
            &chain,
            &keys,
            &[KeyHash::of(&op.public)],
            &dhash(b"my experiment"),
            1000,
        )
        .unwrap();
        assert!(eff.monitors.is_empty());
    }

    #[test]
    fn direct_experiment_cert_chain_of_one() {
        // Operator signs the experiment descriptor directly ("an
        // experimenter can ask the endpoint operator to sign an experiment
        // descriptor for each experiment").
        let op = kp(1);
        let cert = Certificate::sign(
            &op,
            CertPayload::Experiment(dhash(b"d")),
            Restrictions::none(),
        );
        let keys = key_map(&[op.public]);
        verify_chain(&[cert], &keys, &[KeyHash::of(&op.public)], &dhash(b"d"), 0).unwrap();
    }

    #[test]
    fn untrusted_root_rejected() {
        let op = kp(1);
        let exp = kp(2);
        let (chain, keys) = standard_chain(&op, &exp, b"d", Restrictions::none());
        let err = verify_chain(
            &chain,
            &keys,
            &[KeyHash::of(&kp(9).public)],
            &dhash(b"d"),
            0,
        );
        assert_eq!(err, Err(CertError::Untrusted));
    }

    #[test]
    fn wrong_descriptor_rejected() {
        let op = kp(1);
        let exp = kp(2);
        let (chain, keys) = standard_chain(&op, &exp, b"d", Restrictions::none());
        let err = verify_chain(
            &chain,
            &keys,
            &[KeyHash::of(&op.public)],
            &dhash(b"other"),
            0,
        );
        assert_eq!(err, Err(CertError::WrongDescriptor));
    }

    #[test]
    fn missing_key_rejected() {
        let op = kp(1);
        let exp = kp(2);
        let (chain, _) = standard_chain(&op, &exp, b"d", Restrictions::none());
        let keys = key_map(&[op.public]); // experimenter key absent
        let err = verify_chain(&chain, &keys, &[KeyHash::of(&op.public)], &dhash(b"d"), 0);
        assert_eq!(err, Err(CertError::MissingKey));
    }

    #[test]
    fn chain_order_enforced() {
        let op = kp(1);
        let exp = kp(2);
        let (mut chain, keys) = standard_chain(&op, &exp, b"d", Restrictions::none());
        chain.swap(0, 1);
        let err = verify_chain(&chain, &keys, &[KeyHash::of(&op.public)], &dhash(b"d"), 0);
        assert!(err.is_err());
    }

    #[test]
    fn delegation_to_wrong_key_rejected() {
        let op = kp(1);
        let exp = kp(2);
        let mallory = kp(3);
        // Operator delegates to exp, but mallory signs the experiment.
        let deleg = Certificate::sign(
            &op,
            CertPayload::Delegation(KeyHash::of(&exp.public)),
            Restrictions::none(),
        );
        let bad_leaf = Certificate::sign(
            &mallory,
            CertPayload::Experiment(dhash(b"d")),
            Restrictions::none(),
        );
        let keys = key_map(&[op.public, exp.public, mallory.public]);
        let err = verify_chain(
            &[deleg, bad_leaf],
            &keys,
            &[KeyHash::of(&op.public)],
            &dhash(b"d"),
            0,
        );
        assert_eq!(err, Err(CertError::BrokenChain));
    }

    #[test]
    fn multi_level_delegation() {
        // operator -> group lead -> student -> experiment ("Delegation can
        // be extended several levels by forming a certificate chain").
        let op = kp(1);
        let lead = kp(2);
        let student = kp(3);
        let c1 = Certificate::sign(
            &op,
            CertPayload::Delegation(KeyHash::of(&lead.public)),
            Restrictions {
                max_priority: Some(100),
                ..Default::default()
            },
        );
        let c2 = Certificate::sign(
            &lead,
            CertPayload::Delegation(KeyHash::of(&student.public)),
            Restrictions {
                max_priority: Some(50),
                ..Default::default()
            },
        );
        let c3 = Certificate::sign(
            &student,
            CertPayload::Experiment(dhash(b"d")),
            Restrictions::none(),
        );
        let keys = key_map(&[op.public, lead.public, student.public]);
        let eff = verify_chain(
            &[c1, c2, c3],
            &keys,
            &[KeyHash::of(&op.public)],
            &dhash(b"d"),
            0,
        )
        .unwrap();
        assert_eq!(eff.max_priority, Some(50), "priority tightens down-chain");
    }

    #[test]
    fn restrictions_intersect() {
        let op = kp(1);
        let exp = kp(2);
        let deleg = Certificate::sign(
            &op,
            CertPayload::Delegation(KeyHash::of(&exp.public)),
            Restrictions {
                not_before: Some(100),
                not_after: Some(1000),
                monitor: Some(vec![1]),
                max_buffer_bytes: Some(1 << 20),
                max_priority: Some(10),
            },
        );
        let leaf = Certificate::sign(
            &exp,
            CertPayload::Experiment(dhash(b"d")),
            Restrictions {
                not_before: Some(200),
                not_after: Some(2000),
                monitor: Some(vec![2]),
                max_buffer_bytes: Some(1 << 16),
                max_priority: None,
            },
        );
        let keys = key_map(&[op.public, exp.public]);
        let eff = verify_chain(
            &[deleg, leaf],
            &keys,
            &[KeyHash::of(&op.public)],
            &dhash(b"d"),
            500,
        )
        .unwrap();
        assert_eq!(eff.not_before, Some(200));
        assert_eq!(eff.not_after, Some(1000));
        assert_eq!(eff.monitors, vec![vec![1], vec![2]]);
        assert_eq!(eff.max_buffer_bytes, Some(1 << 16));
        assert_eq!(eff.max_priority, Some(10));
    }

    #[test]
    fn expired_chain_rejected() {
        let op = kp(1);
        let exp = kp(2);
        let (chain, keys) = standard_chain(
            &op,
            &exp,
            b"d",
            Restrictions {
                not_after: Some(100),
                ..Default::default()
            },
        );
        let err = verify_chain(&chain, &keys, &[KeyHash::of(&op.public)], &dhash(b"d"), 200);
        assert_eq!(err, Err(CertError::Expired));

        let (chain, keys) = standard_chain(
            &op,
            &exp,
            b"d",
            Restrictions {
                not_before: Some(100),
                ..Default::default()
            },
        );
        let err = verify_chain(&chain, &keys, &[KeyHash::of(&op.public)], &dhash(b"d"), 50);
        assert_eq!(err, Err(CertError::Expired));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Certificate::decode(&[]).is_err());
        assert!(Certificate::decode(b"PLCERT\x01short").is_err());
        let op = kp(1);
        let cert = Certificate::sign(
            &op,
            CertPayload::Delegation(KeyHash([0; 32])),
            Restrictions::none(),
        );
        let mut enc = cert.encode();
        enc.truncate(enc.len() - 1);
        assert!(Certificate::decode(&enc).is_err());
    }

    #[test]
    fn empty_chain_rejected() {
        let err = verify_chain(&[], &HashMap::new(), &[], &dhash(b"d"), 0);
        assert_eq!(err, Err(CertError::BrokenChain));
    }

    // --- verify_cert_set (rendezvous-side, unordered bundles) ---

    #[test]
    fn cert_set_accepts_unordered_multi_path_bundle() {
        let rv_op = kp(1);
        let ep_op = kp(2);
        let exp = kp(3);
        let leaf = Certificate::sign(
            &exp,
            CertPayload::Experiment(dhash(b"d")),
            Restrictions::none(),
        );
        let rv_deleg = Certificate::sign(
            &rv_op,
            CertPayload::Delegation(KeyHash::of(&exp.public)),
            Restrictions::none(),
        );
        let ep_deleg = Certificate::sign(
            &ep_op,
            CertPayload::Delegation(KeyHash::of(&exp.public)),
            Restrictions {
                max_priority: Some(7),
                ..Default::default()
            },
        );
        let keys = key_map(&[rv_op.public, ep_op.public, exp.public]);
        // Bundle in scrambled order; trusted = rendezvous operator.
        let bundle = vec![leaf.clone(), ep_deleg.clone(), rv_deleg.clone()];
        verify_cert_set(
            &bundle,
            &keys,
            &[KeyHash::of(&rv_op.public)],
            &dhash(b"d"),
            0,
        )
        .unwrap();
        // Same bundle also validates against the endpoint operator root.
        let eff = verify_cert_set(
            &bundle,
            &keys,
            &[KeyHash::of(&ep_op.public)],
            &dhash(b"d"),
            0,
        )
        .unwrap();
        assert_eq!(eff.max_priority, Some(7), "restrictions from the used path");
    }

    #[test]
    fn cert_set_rejects_when_no_path_to_trust() {
        let op = kp(1);
        let exp = kp(3);
        let leaf = Certificate::sign(
            &exp,
            CertPayload::Experiment(dhash(b"d")),
            Restrictions::none(),
        );
        let keys = key_map(&[op.public, exp.public]);
        let err = verify_cert_set(&[leaf], &keys, &[KeyHash::of(&op.public)], &dhash(b"d"), 0);
        assert_eq!(err, Err(CertError::Untrusted));
    }

    #[test]
    fn cert_set_rejects_forged_member() {
        let op = kp(1);
        let exp = kp(3);
        let mut deleg = Certificate::sign(
            &op,
            CertPayload::Delegation(KeyHash::of(&exp.public)),
            Restrictions::none(),
        );
        deleg.restrictions.max_priority = Some(255); // tamper
        let leaf = Certificate::sign(
            &exp,
            CertPayload::Experiment(dhash(b"d")),
            Restrictions::none(),
        );
        let keys = key_map(&[op.public, exp.public]);
        let err = verify_cert_set(
            &[deleg, leaf],
            &keys,
            &[KeyHash::of(&op.public)],
            &dhash(b"d"),
            0,
        );
        assert_eq!(err, Err(CertError::BadSignature));
    }

    #[test]
    fn cert_set_survives_delegation_cycles() {
        // a delegates to b, b delegates to a: must not loop forever, and
        // with no trusted root must reject.
        let a = kp(1);
        let b = kp(2);
        let exp = kp(3);
        let c1 = Certificate::sign(
            &a,
            CertPayload::Delegation(KeyHash::of(&b.public)),
            Restrictions::none(),
        );
        let c2 = Certificate::sign(
            &b,
            CertPayload::Delegation(KeyHash::of(&a.public)),
            Restrictions::none(),
        );
        let c3 = Certificate::sign(
            &b,
            CertPayload::Delegation(KeyHash::of(&exp.public)),
            Restrictions::none(),
        );
        let leaf = Certificate::sign(
            &exp,
            CertPayload::Experiment(dhash(b"d")),
            Restrictions::none(),
        );
        let keys = key_map(&[a.public, b.public, exp.public]);
        let err = verify_cert_set(
            &[c1.clone(), c2, c3.clone(), leaf.clone()],
            &keys,
            &[KeyHash::of(&kp(9).public)],
            &dhash(b"d"),
            0,
        );
        assert!(err.is_err());
        // With `a` trusted, the path a→b→exp works.
        verify_cert_set(
            &[c1, c3, leaf],
            &keys,
            &[KeyHash::of(&a.public)],
            &dhash(b"d"),
            0,
        )
        .unwrap();
    }

    #[test]
    fn cert_set_expired_path_rejected() {
        let op = kp(1);
        let exp = kp(2);
        let deleg = Certificate::sign(
            &op,
            CertPayload::Delegation(KeyHash::of(&exp.public)),
            Restrictions {
                not_after: Some(100),
                ..Default::default()
            },
        );
        let leaf = Certificate::sign(
            &exp,
            CertPayload::Experiment(dhash(b"d")),
            Restrictions::none(),
        );
        let keys = key_map(&[op.public, exp.public]);
        let err = verify_cert_set(
            &[deleg, leaf],
            &keys,
            &[KeyHash::of(&op.public)],
            &dhash(b"d"),
            500,
        );
        assert_eq!(err, Err(CertError::Expired));
    }
}
