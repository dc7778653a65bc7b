//! Experiment descriptors (§3.2).
//!
//! "Experimenters publish their experiments to a rendezvous server by
//! sending the rendezvous server an experiment descriptor, which contains
//! the address of the experiment controller, the experiment name, and a
//! URL describing the experiment."

use plab_crypto::{sha256, KeyHash};
use plab_packet::codec::{Reader, WireError, Writer};

/// Magic and format version that open every descriptor.
const MAGIC: &[u8; 6] = b"PLEXP\x01";
/// Longest string field a descriptor may carry, in bytes.
const MAX_STRING: usize = 1 << 16;

/// An experiment descriptor. The descriptor deliberately does *not*
/// contain the commands the experiment will issue — "experiments execute
/// in an interactive fashion"; monitors police behaviour at runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentDescriptor {
    /// Experiment name (for operators and logging).
    pub name: String,
    /// Where endpoints should contact the experiment controller,
    /// `"host:port"`.
    pub controller_addr: String,
    /// URL describing the experiment for humans.
    pub info_url: String,
    /// Hash of the experimenter key that will sign the experiment
    /// certificate (lets endpoints correlate descriptor and chain).
    pub experimenter: KeyHash,
}

impl ExperimentDescriptor {
    /// Serialize canonically (the bytes the experiment certificate hashes).
    pub fn encode(&self) -> Vec<u8> {
        Writer::build(0, |w| {
            w.raw(MAGIC);
            for field in [&self.name, &self.controller_addr, &self.info_url] {
                w.bytes(field.as_bytes());
            }
            w.raw(&self.experimenter.0);
        })
    }

    /// Deserialize.
    pub fn decode(bytes: &[u8]) -> Option<ExperimentDescriptor> {
        Reader::all(bytes, |r| {
            if r.take()? != *MAGIC {
                return Err(WireError::BadTag);
            }
            Ok(ExperimentDescriptor {
                name: r.string(MAX_STRING)?,
                controller_addr: r.string(MAX_STRING)?,
                info_url: r.string(MAX_STRING)?,
                experimenter: KeyHash(r.take()?),
            })
        })
        .ok()
    }

    /// The descriptor hash bound by experiment certificates.
    pub fn hash(&self) -> sha256::Digest256 {
        sha256::digest(&self.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentDescriptor {
        ExperimentDescriptor {
            name: "interdomain-congestion".into(),
            controller_addr: "10.0.9.1:7000".into(),
            info_url: "https://example.org/experiments/congestion".into(),
            experimenter: KeyHash([7; 32]),
        }
    }

    #[test]
    fn roundtrip() {
        let d = sample();
        assert_eq!(ExperimentDescriptor::decode(&d.encode()), Some(d));
    }

    #[test]
    fn hash_is_stable_and_content_sensitive() {
        let d = sample();
        assert_eq!(d.hash(), d.hash());
        let mut d2 = sample();
        d2.name.push('x');
        assert_ne!(d.hash(), d2.hash());
    }

    #[test]
    fn decode_rejects_bad_magic() {
        assert!(ExperimentDescriptor::decode(b"NOPE").is_none());
    }

    #[test]
    fn decode_rejects_truncation() {
        let enc = sample().encode();
        for cut in 0..enc.len() {
            assert!(
                ExperimentDescriptor::decode(&enc[..cut]).is_none(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn empty_strings_roundtrip() {
        let d = ExperimentDescriptor {
            name: String::new(),
            controller_addr: String::new(),
            info_url: String::new(),
            experimenter: KeyHash([0; 32]),
        };
        assert_eq!(ExperimentDescriptor::decode(&d.encode()), Some(d));
    }
}
