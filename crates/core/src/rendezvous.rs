//! Rendezvous servers (§3.2–3.3): publish/subscribe experiment
//! dissemination.
//!
//! "Experiment controllers and measurement endpoints find each other with
//! the help of a rendezvous server, which provides a publish-subscribe
//! facility for experiment dissemination. ... The identifier used to
//! describe a channel is simply the hash of a public key used to sign
//! certificates. ... This allows the rendezvous server to verify the
//! certificate chain and broadcast the experiment to all endpoints that
//! accept experiments signed by at least one of the keys in the
//! certificate chain."

use crate::cert::{self, Certificate};
use crate::descriptor::ExperimentDescriptor;
use crate::wire::{self, WireError};
use plab_crypto::{KeyHash, PublicKey};
use plab_packet::codec::{Reader, Writer};
use std::collections::HashMap;

static M_PUBLISHES: plab_obs::metrics::Counter =
    plab_obs::metrics::Counter::new("rendezvous.publishes");
static M_PUBLISH_REJECTS: plab_obs::metrics::Counter =
    plab_obs::metrics::Counter::new("rendezvous.publish_rejects");
static M_ANNOUNCES: plab_obs::metrics::Counter =
    plab_obs::metrics::Counter::new("rendezvous.announces");
static M_SUBSCRIBERS: plab_obs::metrics::Gauge =
    plab_obs::metrics::Gauge::new("rendezvous.subscribers");
static M_FANOUT: plab_obs::metrics::Histogram =
    plab_obs::metrics::Histogram::new("rendezvous.fanout_per_publish");

/// Rendezvous wire messages (own framing-compatible codec: these travel in
/// the same length-prefixed frames as [`crate::wire::Message`], on the
/// rendezvous port).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RvMessage {
    /// Experimenter → server: publish an experiment.
    Publish {
        /// Encoded descriptor.
        descriptor: Vec<u8>,
        /// Encoded certificate chain, root first. The root must be signed
        /// by a key the server trusts for publishing.
        chain: Vec<Vec<u8>>,
        /// Public keys referenced in the chain.
        keys: Vec<[u8; 32]>,
    },
    /// Server → experimenter: accepted.
    PublishOk,
    /// Server → experimenter: rejected.
    PublishErr {
        /// Why.
        reason: String,
    },
    /// Endpoint → server: subscribe to channels (key hashes).
    Subscribe {
        /// Channels, i.e. hashes of keys the endpoint trusts.
        channels: Vec<[u8; 32]>,
    },
    /// Server → endpoint: an experiment on a subscribed channel.
    Announce {
        /// Encoded descriptor.
        descriptor: Vec<u8>,
        /// Encoded chain.
        chain: Vec<Vec<u8>>,
        /// Keys.
        keys: Vec<[u8; 32]>,
    },
}

impl RvMessage {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        Writer::build(wire::SMALL_MESSAGE, |w| self.write(w))
    }

    pub(crate) fn write(&self, w: &mut Writer) {
        match self {
            RvMessage::Publish {
                descriptor,
                chain,
                keys,
            } => {
                w.u8(0);
                wire::write_bundle(w, descriptor, chain, keys);
            }
            RvMessage::PublishOk => w.u8(1),
            RvMessage::PublishErr { reason } => {
                w.u8(2);
                w.bytes(reason.as_bytes());
            }
            RvMessage::Subscribe { channels } => {
                w.u8(3);
                w.u16(channels.len() as u16);
                for c in channels {
                    w.raw(c);
                }
            }
            RvMessage::Announce {
                descriptor,
                chain,
                keys,
            } => {
                w.u8(4);
                wire::write_bundle(w, descriptor, chain, keys);
            }
        }
    }

    /// Decode from a frame payload. A bundle is held to the limits
    /// [`crate::wire::Message::Auth`] holds it to
    /// ([`crate::wire::MAX_CHAIN`], [`crate::wire::MAX_KEYS`]): what could
    /// not authenticate is not worth announcing.
    pub fn decode(bytes: &[u8]) -> Option<RvMessage> {
        Reader::all(bytes, |r| {
            Ok(match r.u8()? {
                0 => {
                    let (descriptor, chain, keys) = wire::read_bundle(r)?;
                    RvMessage::Publish {
                        descriptor,
                        chain,
                        keys,
                    }
                }
                1 => RvMessage::PublishOk,
                2 => RvMessage::PublishErr {
                    reason: r.string(wire::MAX_FRAME)?,
                },
                3 => {
                    let n = r.u16()? as usize;
                    let mut channels = Vec::with_capacity(n.min(256));
                    for _ in 0..n {
                        channels.push(r.take()?);
                    }
                    RvMessage::Subscribe { channels }
                }
                4 => {
                    let (descriptor, chain, keys) = wire::read_bundle(r)?;
                    RvMessage::Announce {
                        descriptor,
                        chain,
                        keys,
                    }
                }
                _ => return Err(WireError::BadTag),
            })
        })
        .ok()
    }
}

/// A published experiment retained by the server.
#[derive(Debug, Clone)]
pub struct PublishedExperiment {
    /// Encoded descriptor.
    pub descriptor: Vec<u8>,
    /// Encoded chain.
    pub chain: Vec<Vec<u8>>,
    /// Referenced keys.
    pub keys: Vec<[u8; 32]>,
    /// Channels this experiment broadcasts on: all key hashes in the
    /// chain.
    pub channels: Vec<KeyHash>,
}

/// The rendezvous server: "the only permanent infrastructure required by
/// PacketLab".
///
/// Subscriptions live in an inverted index (channel → subscriber sids), so
/// a publish looks up only its experiment-key channels — one probe each
/// plus a drain of the matched sids — instead of iterating every
/// subscriber slot. [`RendezvousServer::scanned_slots`] counts the slots
/// publishes actually scanned, which tests assert stays decoupled from the
/// subscriber count.
pub struct RendezvousServer {
    /// Keys accepted to anchor publish chains ("Each rendezvous server has
    /// a list of public keys whose signatures it accepts").
    pub trusted_publishers: Vec<KeyHash>,
    /// Wall time for validity checks.
    pub wall_time: u64,
    published: Vec<PublishedExperiment>,
    /// Subscriber session → channels (authoritative; also what
    /// unsubscribe uses to find the index entries to drop).
    subscribers: HashMap<u64, Vec<KeyHash>>,
    /// Inverted index: channel → subscribed sids.
    index: HashMap<KeyHash, Vec<u64>>,
    /// Cumulative subscription slots scanned by publish fan-out.
    scanned_slots: u64,
}

impl RendezvousServer {
    /// New server trusting `publishers`.
    pub fn new(trusted_publishers: Vec<KeyHash>, wall_time: u64) -> Self {
        RendezvousServer {
            trusted_publishers,
            wall_time,
            published: Vec::new(),
            subscribers: HashMap::new(),
            index: HashMap::new(),
            scanned_slots: 0,
        }
    }

    /// Number of retained experiments.
    pub fn published_count(&self) -> usize {
        self.published.len()
    }

    /// Number of live subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.len()
    }

    /// Cumulative subscription slots scanned by publish fan-out since the
    /// server started: each publish adds one per channel looked up plus
    /// one per subscriber sid in the channels' match lists. With the
    /// inverted index this grows with *matches*, not with the subscriber
    /// population.
    pub fn scanned_slots(&self) -> u64 {
        self.scanned_slots
    }

    fn index_insert(&mut self, sid: u64, channels: &[KeyHash]) {
        for ch in channels {
            let slot = self.index.entry(*ch).or_default();
            if !slot.contains(&sid) {
                slot.push(sid);
            }
        }
    }

    fn index_remove(&mut self, sid: u64, channels: &[KeyHash]) {
        for ch in channels {
            if let Some(slot) = self.index.get_mut(ch) {
                slot.retain(|&s| s != sid);
                if slot.is_empty() {
                    self.index.remove(ch);
                }
            }
        }
    }

    /// A subscriber connection closed.
    pub fn on_session_closed(&mut self, sid: u64) {
        if let Some(channels) = self.subscribers.remove(&sid) {
            self.index_remove(sid, &channels);
            M_SUBSCRIBERS.sub(1);
            plab_obs::obs_event!(plab_obs::Component::Rendezvous, "unsubscribe", "sid" = sid);
        }
    }

    /// Handle one message from session `sid`, returning messages to send.
    pub fn on_message(&mut self, sid: u64, msg: RvMessage) -> Vec<(u64, RvMessage)> {
        match msg {
            RvMessage::Publish {
                descriptor,
                chain,
                keys,
            } => self.publish(sid, descriptor, chain, keys),
            RvMessage::Subscribe { channels } => {
                let channels: Vec<KeyHash> = channels.into_iter().map(KeyHash).collect();
                let mut out = Vec::new();
                // Replay existing experiments matching any channel.
                for exp in &self.published {
                    if exp.channels.iter().any(|c| channels.contains(c)) {
                        out.push((
                            sid,
                            RvMessage::Announce {
                                descriptor: exp.descriptor.clone(),
                                chain: exp.chain.clone(),
                                keys: exp.keys.clone(),
                            },
                        ));
                    }
                }
                match self.subscribers.insert(sid, channels.clone()) {
                    Some(old) => self.index_remove(sid, &old),
                    None => M_SUBSCRIBERS.add(1),
                }
                self.index_insert(sid, &channels);
                plab_obs::obs_event!(
                    plab_obs::Component::Rendezvous,
                    "subscribe",
                    "sid" = sid,
                    "replayed" = out.len()
                );
                M_ANNOUNCES.add(out.len() as u64);
                out
            }
            // Client-bound messages arriving at the server are ignored.
            _ => Vec::new(),
        }
    }

    fn publish(
        &mut self,
        sid: u64,
        descriptor: Vec<u8>,
        chain: Vec<Vec<u8>>,
        keys: Vec<[u8; 32]>,
    ) -> Vec<(u64, RvMessage)> {
        let reject = |reason: &str| {
            M_PUBLISH_REJECTS.inc();
            plab_obs::obs_event!(
                plab_obs::Component::Rendezvous,
                "publish.reject",
                "sid" = sid
            );
            vec![(
                sid,
                RvMessage::PublishErr {
                    reason: reason.to_string(),
                },
            )]
        };
        let Some(desc) = ExperimentDescriptor::decode(&descriptor) else {
            return reject("bad descriptor");
        };
        let mut certs = Vec::with_capacity(chain.len());
        for c in &chain {
            match Certificate::decode(c) {
                Ok(cert) => certs.push(cert),
                Err(e) => return reject(&format!("bad certificate: {e}")),
            }
        }
        let pubkeys: Vec<PublicKey> = keys.iter().map(|k| PublicKey::from_bytes(*k)).collect();
        let key_map = cert::key_map(&pubkeys);
        if let Err(e) = cert::verify_cert_set(
            &certs,
            &key_map,
            &self.trusted_publishers,
            &desc.hash(),
            self.wall_time,
        ) {
            return reject(&format!("chain rejected: {e}"));
        }
        // Channels: every key hash appearing in the chain (signers and
        // delegated keys).
        let mut channels: Vec<KeyHash> = Vec::new();
        for cert in &certs {
            if !channels.contains(&cert.signer) {
                channels.push(cert.signer);
            }
            if let crate::cert::CertPayload::Delegation(k) = &cert.payload {
                if !channels.contains(k) {
                    channels.push(*k);
                }
            }
        }
        let exp = PublishedExperiment {
            descriptor: descriptor.clone(),
            chain: chain.clone(),
            keys: keys.clone(),
            channels: channels.clone(),
        };
        self.published.push(exp);

        let mut out = vec![(sid, RvMessage::PublishOk)];
        // Fan out via the inverted index: only the experiment's channels
        // are looked up, and only matching sids are drained. Announce in
        // ascending-sid order (deduplicated across channels) — map
        // iteration order must never decide announce order, or two replays
        // of the same publish would wake subscribers differently.
        let mut matched: Vec<u64> = Vec::new();
        let mut scanned = channels.len() as u64;
        for ch in &channels {
            if let Some(slot) = self.index.get(ch) {
                scanned += slot.len() as u64;
                matched.extend_from_slice(slot);
            }
        }
        self.scanned_slots += scanned;
        matched.sort_unstable();
        matched.dedup();
        for sub in matched {
            out.push((
                sub,
                RvMessage::Announce {
                    descriptor: descriptor.clone(),
                    chain: chain.clone(),
                    keys: keys.clone(),
                },
            ));
        }
        let fanout = (out.len() - 1) as u64;
        M_PUBLISHES.inc();
        M_ANNOUNCES.add(fanout);
        M_FANOUT.observe(fanout);
        plab_obs::obs_event!(
            plab_obs::Component::Rendezvous,
            "publish",
            "sid" = sid,
            "fanout" = fanout
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::{CertPayload, Restrictions};
    use plab_crypto::Keypair;

    fn kp(seed: u8) -> Keypair {
        Keypair::from_seed(&[seed; 32])
    }

    fn descriptor(experimenter: &Keypair) -> ExperimentDescriptor {
        ExperimentDescriptor {
            name: "test-exp".into(),
            controller_addr: "10.0.0.9:7000".into(),
            info_url: "https://example.org".into(),
            experimenter: KeyHash::of(&experimenter.public),
        }
    }

    /// rendezvous-root -> experimenter -> experiment bundle.
    fn bundle(root: &Keypair, exp: &Keypair) -> (Vec<u8>, Vec<Vec<u8>>, Vec<[u8; 32]>) {
        let d = descriptor(exp);
        let deleg = Certificate::sign(
            root,
            CertPayload::Delegation(KeyHash::of(&exp.public)),
            Restrictions::none(),
        );
        let leaf = Certificate::sign(exp, CertPayload::Experiment(d.hash()), Restrictions::none());
        (
            d.encode(),
            vec![deleg.encode(), leaf.encode()],
            vec![*root.public.as_bytes(), *exp.public.as_bytes()],
        )
    }

    #[test]
    fn rv_message_roundtrips() {
        let msgs = [
            RvMessage::Publish {
                descriptor: vec![1, 2],
                chain: vec![vec![3], vec![4, 5]],
                keys: vec![[6; 32]],
            },
            RvMessage::PublishOk,
            RvMessage::PublishErr {
                reason: "nope".into(),
            },
            RvMessage::Subscribe {
                channels: vec![[1; 32], [2; 32]],
            },
            RvMessage::Announce {
                descriptor: vec![],
                chain: vec![],
                keys: vec![],
            },
        ];
        for m in msgs {
            assert_eq!(RvMessage::decode(&m.encode()), Some(m));
        }
    }

    #[test]
    fn decode_rejects_truncation_and_garbage() {
        let enc = RvMessage::Publish {
            descriptor: vec![1, 2, 3],
            chain: vec![vec![4]],
            keys: vec![[5; 32]],
        }
        .encode();
        for cut in 0..enc.len() {
            assert!(RvMessage::decode(&enc[..cut]).is_none(), "cut {cut}");
        }
        assert!(RvMessage::decode(&[9, 9, 9]).is_none());
    }

    #[test]
    fn bundles_over_the_auth_limits_are_refused() {
        use crate::wire::{MAX_CHAIN, MAX_KEYS};
        // A bundle `Message::Auth` would refuse is not worth relaying.
        let bundle = |n_chain: usize, n_keys: usize| RvMessage::Publish {
            descriptor: vec![1],
            chain: vec![vec![2]; n_chain],
            keys: vec![[3; 32]; n_keys],
        };
        let at_limit = bundle(MAX_CHAIN, MAX_KEYS);
        assert_eq!(RvMessage::decode(&at_limit.encode()), Some(at_limit));
        assert_eq!(RvMessage::decode(&bundle(MAX_CHAIN + 1, 0).encode()), None);
        assert_eq!(RvMessage::decode(&bundle(0, MAX_KEYS + 1).encode()), None);
        let announce = RvMessage::Announce {
            descriptor: vec![],
            chain: vec![vec![]; MAX_CHAIN + 1],
            keys: vec![],
        };
        assert_eq!(RvMessage::decode(&announce.encode()), None);
    }

    #[test]
    fn publish_verifies_chain_and_broadcasts() {
        let root = kp(1);
        let exp = kp(2);
        let mut server = RendezvousServer::new(vec![KeyHash::of(&root.public)], 1000);

        // Endpoint 77 subscribes to the root channel (it trusts root).
        let out = server.on_message(
            77,
            RvMessage::Subscribe {
                channels: vec![KeyHash::of(&root.public).0],
            },
        );
        assert!(out.is_empty(), "nothing published yet");

        // Experimenter publishes.
        let (d, chain, keys) = bundle(&root, &exp);
        let out = server.on_message(
            5,
            RvMessage::Publish {
                descriptor: d,
                chain,
                keys,
            },
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, 5);
        assert!(matches!(out[0].1, RvMessage::PublishOk));
        assert_eq!(out[1].0, 77, "subscriber gets the announce");
        assert!(matches!(out[1].1, RvMessage::Announce { .. }));
        assert_eq!(server.published_count(), 1);
    }

    #[test]
    fn late_subscriber_gets_replay() {
        let root = kp(1);
        let exp = kp(2);
        let mut server = RendezvousServer::new(vec![KeyHash::of(&root.public)], 1000);
        let (d, chain, keys) = bundle(&root, &exp);
        server.on_message(
            5,
            RvMessage::Publish {
                descriptor: d,
                chain,
                keys,
            },
        );
        // Endpoint subscribes on the *experimenter* channel — also in the
        // chain, so it matches.
        let out = server.on_message(
            88,
            RvMessage::Subscribe {
                channels: vec![KeyHash::of(&exp.public).0],
            },
        );
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].1, RvMessage::Announce { .. }));
    }

    #[test]
    fn publish_with_untrusted_root_rejected() {
        let root = kp(1);
        let exp = kp(2);
        let mallory = kp(3);
        let mut server = RendezvousServer::new(vec![KeyHash::of(&root.public)], 1000);
        let (d, chain, keys) = bundle(&mallory, &exp);
        let out = server.on_message(
            5,
            RvMessage::Publish {
                descriptor: d,
                chain,
                keys,
            },
        );
        assert!(matches!(&out[0].1, RvMessage::PublishErr { reason } if reason.contains("chain")));
        assert_eq!(server.published_count(), 0);
    }

    #[test]
    fn publish_with_tampered_descriptor_rejected() {
        let root = kp(1);
        let exp = kp(2);
        let mut server = RendezvousServer::new(vec![KeyHash::of(&root.public)], 1000);
        let (mut d, chain, keys) = bundle(&root, &exp);
        // Flip a descriptor byte: the leaf's hash no longer matches.
        let idx = d.len() - 1;
        d[idx] ^= 0xff;
        let out = server.on_message(
            5,
            RvMessage::Publish {
                descriptor: d,
                chain,
                keys,
            },
        );
        assert!(matches!(&out[0].1, RvMessage::PublishErr { .. }));
    }

    #[test]
    fn unsubscribed_channels_get_nothing() {
        let root = kp(1);
        let exp = kp(2);
        let mut server = RendezvousServer::new(vec![KeyHash::of(&root.public)], 1000);
        server.on_message(
            77,
            RvMessage::Subscribe {
                channels: vec![[0xee; 32]],
            },
        );
        let (d, chain, keys) = bundle(&root, &exp);
        let out = server.on_message(
            5,
            RvMessage::Publish {
                descriptor: d,
                chain,
                keys,
            },
        );
        assert_eq!(out.len(), 1, "only the PublishOk, no announce");
    }

    #[test]
    fn publish_scans_matches_not_subscribers() {
        let root = kp(1);
        let exp = kp(2);
        let mut server = RendezvousServer::new(vec![KeyHash::of(&root.public)], 1000);

        // 100k subscribers, each on its own unrelated channel.
        const POPULATION: u64 = 100_000;
        for i in 0..POPULATION {
            let mut ch = [0u8; 32];
            ch[..8].copy_from_slice(&i.to_le_bytes());
            ch[8] = 0xAB;
            server.on_message(1000 + i, RvMessage::Subscribe { channels: vec![ch] });
        }
        // ... and 50 on a channel actually in the experiment's chain.
        let interested: Vec<u64> = (0..50).map(|i| 2_000_000 + i).collect();
        for &sid in &interested {
            server.on_message(
                sid,
                RvMessage::Subscribe {
                    channels: vec![KeyHash::of(&root.public).0],
                },
            );
        }
        assert_eq!(server.subscriber_count() as u64, POPULATION + 50);

        let scanned_before = server.scanned_slots();
        let (d, chain, keys) = bundle(&root, &exp);
        let out = server.on_message(
            5,
            RvMessage::Publish {
                descriptor: d,
                chain,
                keys,
            },
        );

        // Every interested subscriber (and nobody else) gets the announce,
        // in ascending sid order.
        assert_eq!(out.len(), 1 + interested.len());
        let announced: Vec<u64> = out[1..].iter().map(|(sid, _)| *sid).collect();
        assert_eq!(announced, interested);

        // The fan-out scanned O(channels + matches), decoupled from
        // the 100k-strong population: a per-slot iteration would have
        // scanned at least POPULATION slots.
        let scanned = server.scanned_slots() - scanned_before;
        assert!(
            scanned < 1_000,
            "publish scanned {scanned} slots with {POPULATION} bystander subscribers"
        );
    }

    #[test]
    fn resubscribe_replaces_channels_in_index() {
        let root = kp(1);
        let exp = kp(2);
        let mut server = RendezvousServer::new(vec![KeyHash::of(&root.public)], 1000);
        // First subscribe on the matching channel, then replace the
        // subscription with an unrelated one: no announce must arrive.
        server.on_message(
            77,
            RvMessage::Subscribe {
                channels: vec![KeyHash::of(&root.public).0],
            },
        );
        server.on_message(
            77,
            RvMessage::Subscribe {
                channels: vec![[0xee; 32]],
            },
        );
        assert_eq!(server.subscriber_count(), 1);
        let (d, chain, keys) = bundle(&root, &exp);
        let out = server.on_message(
            5,
            RvMessage::Publish {
                descriptor: d,
                chain,
                keys,
            },
        );
        assert_eq!(
            out.len(),
            1,
            "only the PublishOk: the old channel was dropped"
        );
    }

    #[test]
    fn session_close_unsubscribes() {
        let root = kp(1);
        let exp = kp(2);
        let mut server = RendezvousServer::new(vec![KeyHash::of(&root.public)], 1000);
        server.on_message(
            77,
            RvMessage::Subscribe {
                channels: vec![KeyHash::of(&root.public).0],
            },
        );
        assert_eq!(server.subscriber_count(), 1);
        server.on_session_closed(77);
        assert_eq!(server.subscriber_count(), 0);
        let (d, chain, keys) = bundle(&root, &exp);
        let out = server.on_message(
            5,
            RvMessage::Publish {
                descriptor: d,
                chain,
                keys,
            },
        );
        assert_eq!(out.len(), 1);
    }
}
