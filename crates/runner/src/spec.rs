//! Experiment specs: the one description every endpoint of the fleet
//! runs — credentials (who may do this), a Cpf monitor (what the
//! operator's PFVM enforces), and a measurement program (what the
//! controller drives).

use packetlab::cert::Restrictions;
use packetlab::controller::aio::{Plane, Sink};
use packetlab::controller::experiments::aio as probes;
use packetlab::controller::{ControllerError, Credentials};
use packetlab::descriptor::ExperimentDescriptor;
use plab_crypto::{KeyHash, Keypair};
use std::net::Ipv4Addr;

use crate::report::Detail;

/// The controller-side measurement program, fanned over the roster. These
/// are the §4 workloads from `packetlab::controller::experiments`,
/// unmodified — the runner only decides *when* each copy runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Program {
    /// ICMP echo toward the pair's controller host.
    Ping {
        /// Probes to send.
        count: u32,
        /// Endpoint-clock spacing between probes, ns.
        interval_ns: u64,
        /// ICMP payload length.
        payload_len: usize,
    },
    /// §4 traceroute toward the pair's controller host (crosses the
    /// roster's pod routers and core).
    Traceroute {
        /// Give up past this TTL.
        max_ttl: u8,
    },
    /// §4 scheduled-send uplink bandwidth estimate into a UDP sink on the
    /// pair's controller host, read two ways from the same arrivals: the
    /// first/last-arrival rate and the loss-robust dispersion median.
    Bandwidth {
        /// Controller-side UDP sink port.
        sink_port: u16,
        /// Datagrams in the measurement burst.
        packets: u32,
        /// UDP payload length.
        payload_len: usize,
        /// δ: the lead from the endpoint clock read t₀ to the burst's
        /// departure, ns. A lead shorter than command delivery sends each
        /// datagram as its command lands, and the estimate measures the
        /// control channel instead of the access link (bursts over 16
        /// datagrams lengthen it from a coarse round).
        delay_ns: u64,
    },
}

impl Program {
    /// Run the program through `ctrl` toward the pair's controller host
    /// `dst`, and fold what it measured into the report's [`Detail`].
    pub(crate) async fn run<P: Plane + Sink>(
        self,
        ctrl: &mut P,
        dst: Ipv4Addr,
    ) -> Result<Detail, ControllerError> {
        match self {
            Program::Ping {
                count,
                interval_ns,
                payload_len,
            } => probes::ping(ctrl, dst, count, interval_ns, payload_len)
                .await
                .map(|s| Detail::Ping {
                    sent: s.sent,
                    replies: s.replies.len() as u32,
                    min_rtt: s.min_rtt().unwrap_or(0),
                    max_rtt: s.max_rtt().unwrap_or(0),
                }),
            Program::Traceroute { max_ttl } => {
                probes::traceroute(ctrl, dst, max_ttl)
                    .await
                    .map(|t| Detail::Traceroute {
                        hops: t.hops.len() as u32,
                        reached: t.reached,
                    })
            }
            Program::Bandwidth {
                sink_port,
                packets,
                payload_len,
                delay_ns,
            } => probes::measure_uplink_bandwidth(ctrl, sink_port, packets, payload_len, delay_ns)
                .await
                .map(|b| Detail::Bandwidth {
                    sent: b.sent,
                    received: b.received,
                    kbits_per_sec: (b.bits_per_sec / 1000.0) as u64,
                    dispersion_kbits_per_sec: b.dispersion_bps / 1000,
                }),
        }
    }
}

/// Everything the fleet shares: an experiment name, an optional Cpf
/// monitor source (compiled once, embedded in the certificate chain's
/// restrictions, installed by every endpoint at Auth), the measurement
/// program, and the requested priority.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Experiment name (descriptor field).
    pub name: String,
    /// Cpf monitor source; `None` runs unmonitored.
    pub monitor: Option<String>,
    /// The measurement program.
    pub program: Program,
    /// Requested priority (§3.4).
    pub priority: u8,
}

impl ExperimentSpec {
    /// A ping spec with the fleet defaults (2 probes, 50 ms apart).
    pub fn ping(name: &str) -> ExperimentSpec {
        ExperimentSpec {
            name: name.into(),
            monitor: None,
            program: Program::Ping {
                count: 2,
                interval_ns: 50_000_000,
                payload_len: 8,
            },
            priority: 10,
        }
    }

    /// Issue the fleet's shared credentials: `operator` delegates to
    /// `experimenter` with the compiled monitor in the delegation's
    /// restrictions, and `experimenter` signs the experiment certificate.
    /// One chain serves the whole roster (every endpoint trusts the same
    /// operator), mirroring a real deployment where the experiment is
    /// published once.
    pub fn credentials(
        &self,
        operator: &Keypair,
        experimenter: &Keypair,
        controller_addr: &str,
    ) -> Result<Credentials, String> {
        let monitor = match &self.monitor {
            Some(src) => Some(
                plab_cpf::compile(src)
                    .map_err(|e| format!("monitor does not compile: {e}"))?
                    .encode(),
            ),
            None => None,
        };
        let descriptor = ExperimentDescriptor {
            name: self.name.clone(),
            controller_addr: controller_addr.into(),
            info_url: String::new(),
            experimenter: KeyHash::of(&experimenter.public),
        };
        let restrictions = Restrictions {
            monitor,
            ..Default::default()
        };
        Ok(Credentials::issue(
            operator,
            experimenter,
            descriptor,
            restrictions,
            self.priority,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_with_monitor_compiles_into_chain() {
        let spec = ExperimentSpec {
            monitor: Some(
                "uint32_t send(const union packet * pkt, uint32_t len) { return len; }\n\
                 uint32_t recv(const union packet * pkt, uint32_t len) { return len; }"
                    .into(),
            ),
            ..ExperimentSpec::ping("spec-test")
        };
        let operator = Keypair::from_seed(&[1; 32]);
        let experimenter = Keypair::from_seed(&[2; 32]);
        let creds = spec
            .credentials(&operator, &experimenter, "10.32.0.1:6000")
            .expect("valid monitor compiles");
        assert_eq!(creds.chain.len(), 2);
        let with_monitor = creds
            .chain
            .iter()
            .filter(|c| c.restrictions.monitor.is_some())
            .count();
        assert_eq!(with_monitor, 1, "delegation cert carries the monitor");
    }

    #[test]
    fn bad_monitor_is_rejected_at_spec_time() {
        let spec = ExperimentSpec {
            monitor: Some("this is not Cpf".into()),
            ..ExperimentSpec::ping("bad")
        };
        let operator = Keypair::from_seed(&[1; 32]);
        let experimenter = Keypair::from_seed(&[2; 32]);
        assert!(spec
            .credentials(&operator, &experimenter, "10.32.0.1:6000")
            .is_err());
    }
}
