//! The measurement library: experiments written purely against the
//! PacketLab command set, as an outside experimenter would write them.
//!
//! [`ping`] and [`traceroute`] reproduce §4's traceroute prototype
//! ("creates a series of ICMP echo request packets with incrementing TTL
//! values starting from 1 and the payload set to contain a two-byte
//! sequence number"); [`measure_uplink_bandwidth`] reproduces §4's
//! bandwidth measurement ("schedules a block of UDP datagrams to be sent
//! from the endpoint to the controller at time t0 + δ ... records their
//! arrival times, and calculates the uplink bandwidth").
//!
//! Each probe has one body, an `async fn` in [`aio`] over any
//! [`Plane`](super::aio::Plane); the functions here are its blocking
//! shells for planes whose operations complete inside the call.

use super::aio::block_on;
use super::{probe_payload, ClockSync, ControlPlane, ControllerError, SinkHost};
use plab_packet::{builder, icmp, ipv4};
use std::net::Ipv4Addr;

pub mod bwest;

/// Capture filter: all ICMP addressed to the endpoint. Written in Cpf and
/// compiled client-side, like every controller-supplied filter.
pub const ICMP_CAPTURE_FILTER: &str = r#"
uint32_t recv(const union packet *pkt, uint32_t len) {
    if (pkt->ip.ver == 4 && pkt->ip.proto == IPPROTO_ICMP)
        return len;
    return 0;
}
"#;

/// [`ICMP_CAPTURE_FILTER`], compiled once per process.
fn icmp_capture_program() -> Vec<u8> {
    static PROGRAM: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    let compile = || plab_cpf::compile(ICMP_CAPTURE_FILTER).expect("it compiles");
    PROGRAM.get_or_init(|| compile().encode()).clone()
}

/// ICMP ident used by the measurement library ("PL").
pub const PING_IDENT: u16 = 0x504c;

/// One ping result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PingReply {
    /// Sequence number.
    pub seq: u16,
    /// Round-trip time on the endpoint clock, ns.
    pub rtt: u64,
}

/// Outcome of a ping run.
#[derive(Debug, Clone)]
pub struct PingStats {
    /// Probes sent.
    pub sent: u32,
    /// Replies received, by sequence.
    pub replies: Vec<PingReply>,
    /// Clock sync used.
    pub sync: ClockSync,
}

impl PingStats {
    /// Fraction of probes answered.
    pub fn loss(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        1.0 - self.replies.len() as f64 / self.sent as f64
    }

    /// Mean RTT over received replies, ns.
    pub fn mean_rtt(&self) -> Option<u64> {
        if self.replies.is_empty() {
            return None;
        }
        Some(
            self.replies.iter().map(|r| r.rtt as u128).sum::<u128>() as u64
                / self.replies.len() as u64,
        )
    }

    /// Minimum RTT, ns.
    pub fn min_rtt(&self) -> Option<u64> {
        self.replies.iter().map(|r| r.rtt).min()
    }

    /// Maximum RTT, ns.
    pub fn max_rtt(&self) -> Option<u64> {
        self.replies.iter().map(|r| r.rtt).max()
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;

    fn stats(rtts: &[u64]) -> PingStats {
        PingStats {
            sent: rtts.len() as u32,
            replies: rtts
                .iter()
                .enumerate()
                .map(|(i, &rtt)| PingReply { seq: i as u16, rtt })
                .collect(),
            sync: ClockSync {
                offset: 0,
                min_rtt: 0,
                samples: 0,
            },
        }
    }

    #[test]
    fn summary_statistics() {
        let s = stats(&[10, 20, 30, 40]);
        assert_eq!(s.mean_rtt(), Some(25));
        assert_eq!(s.min_rtt(), Some(10));
        assert_eq!(s.max_rtt(), Some(40));
        assert_eq!(s.loss(), 0.0);
    }

    #[test]
    fn empty_stats_are_none() {
        let s = stats(&[]);
        assert_eq!(s.mean_rtt(), None);
        assert_eq!(s.min_rtt(), None);
    }

    #[test]
    fn loss_fraction() {
        let mut s = stats(&[10, 20]);
        s.sent = 8;
        assert!((s.loss() - 0.75).abs() < 1e-9);
    }
}

/// Ping `dst` from the endpoint: schedule `count` echo requests spaced
/// `interval` ns apart (endpoint clock), capture replies, compute RTTs
/// from the endpoint's own timestamps (the paper's point that precise
/// timestamps — not fast endpoint response — are what timing measurements
/// need).
pub fn ping<P: ControlPlane>(
    ctrl: &mut P,
    dst: Ipv4Addr,
    count: u32,
    interval: u64,
    payload_len: usize,
) -> Result<PingStats, ControllerError> {
    block_on(aio::ping(ctrl, dst, count, interval, payload_len))
}

/// One traceroute hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// TTL of the probe.
    pub ttl: u8,
    /// Responding router/host, if any.
    pub addr: Option<Ipv4Addr>,
    /// RTT on the endpoint clock, ns.
    pub rtt: Option<u64>,
    /// True when the responder is the destination itself (echo reply).
    pub reached: bool,
}

/// Traceroute result.
#[derive(Debug, Clone)]
pub struct TracerouteResult {
    /// Hops in TTL order, ending at the destination if reached.
    pub hops: Vec<Hop>,
    /// Whether the destination answered.
    pub reached: bool,
}

/// §4's traceroute, verbatim: ICMP echo requests with TTL 1..=40 and a
/// two-byte sequence number in the payload; RTT is `trcv − tsnd`, both on
/// the endpoint clock; probing stops once the destination replies or TTL
/// exceeds `max_ttl`.
pub fn traceroute<P: ControlPlane>(
    ctrl: &mut P,
    dst: Ipv4Addr,
    max_ttl: u8,
) -> Result<TracerouteResult, ControllerError> {
    block_on(aio::traceroute(ctrl, dst, max_ttl))
}

/// Extract the two-byte sequence number from the quoted original datagram
/// inside an ICMP error (IP header + ICMP header + payload prefix).
fn quoted_seq(original: &[u8]) -> Option<u16> {
    let view = ipv4::Ipv4View::new_unchecked(original).ok()?;
    let ihl = view.header_len();
    // The quoted ICMP echo header: type(1) code(1) cksum(2) ident(2) seq(2).
    if original.len() < ihl + 8 {
        return None;
    }
    Some(u16::from_be_bytes([original[ihl + 6], original[ihl + 7]]))
}

/// Result of the §4 uplink bandwidth experiment.
#[derive(Debug, Clone, Copy)]
pub struct BandwidthEstimate {
    /// Datagrams that arrived at the controller sink.
    pub received: u32,
    /// Datagrams sent by the endpoint.
    pub sent: u32,
    /// First arrival (controller clock, ns).
    pub first_arrival: u64,
    /// Last arrival (controller clock, ns).
    pub last_arrival: u64,
    /// Estimated uplink bandwidth, bits per second (IP-layer).
    pub bits_per_sec: f64,
    /// The same arrivals read as a dispersion train
    /// ([`bwest::dispersion_from_arrivals`]): the median of the
    /// sequence-gap-normalized spacing rates, bits per second. A lost
    /// datagram widens a gap instead of shrinking the byte count, so this
    /// reading holds under loss where `bits_per_sec` undercounts. 0 with
    /// fewer than three usable pairs.
    pub dispersion_bps: u64,
    /// The arrival wait hit its hard deadline while datagrams were still
    /// landing: the count (and on very slow links the rate) undercounts.
    pub truncated: bool,
}

/// Per-datagram IP-layer framing the sink does not see: IPv4 header (no
/// options) + UDP header. Asserted against `plab_packet`'s layouts in the
/// tests below.
pub const UDP_IP_OVERHEAD: u64 = 28;

/// Fold sink arrivals into a [`BandwidthEstimate`].
///
/// First/last are the *min/max* arrival timestamps, not the positional
/// first/last sink entries: out-of-order delivery (multi-path, reordering
/// middleboxes) must not produce a negative — or wrapped — interval. The
/// rate excludes the earliest datagram's bytes: its serialization time is
/// not inside the measured interval.
pub fn estimate_from_arrivals(
    sent: u32,
    arrivals: &[(u64, Ipv4Addr, u16, u32, usize)],
    truncated: bool,
) -> BandwidthEstimate {
    let train: Vec<_> = arrivals
        .iter()
        .map(|&(t, _, _, seq, len)| (t, seq, len))
        .collect();
    let dispersion_bps = bwest::dispersion_from_arrivals(&train).map_or(0, |(bps, _)| bps);
    if arrivals.len() < 2 {
        let t = arrivals.first().map(|a| a.0).unwrap_or(0);
        return BandwidthEstimate {
            received: arrivals.len() as u32,
            sent,
            first_arrival: t,
            last_arrival: t,
            bits_per_sec: 0.0,
            dispersion_bps,
            truncated,
        };
    }
    let mut earliest = 0usize;
    let (mut first, mut last) = (arrivals[0].0, arrivals[0].0);
    for (i, a) in arrivals.iter().enumerate() {
        if a.0 < first {
            first = a.0;
            earliest = i;
        }
        if a.0 > last {
            last = a.0;
        }
    }
    let bytes: u64 = arrivals
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != earliest)
        .map(|(_, (.., len))| *len as u64 + UDP_IP_OVERHEAD)
        .sum();
    let duration = (last - first).max(1);
    BandwidthEstimate {
        received: arrivals.len() as u32,
        sent,
        first_arrival: first,
        last_arrival: last,
        bits_per_sec: bytes as f64 * 8.0 / (duration as f64 / 1e9),
        dispersion_bps,
        truncated,
    }
}

/// Ablation counterpart to [`measure_uplink_bandwidth`]: the *naive*
/// controller-paced variant, without `nsend` scheduling — each datagram is
/// sent "immediately" as its command arrives over the control channel.
/// This is what a design without scheduled sends would measure: the
/// arrival rate reflects the control-channel round trip, not the access
/// link, so the estimate collapses (§3.1's rationale for the `time`
/// parameter: "By scheduling data to be sent later, rather than sending it
/// immediately, traffic between the endpoint and experiment controller
/// does not affect the bandwidth measurement").
pub fn measure_uplink_bandwidth_unscheduled<P: ControlPlane + SinkHost>(
    ctrl: &mut P,
    sink_port: u16,
    n_packets: u32,
    payload_len: usize,
) -> Result<BandwidthEstimate, ControllerError> {
    block_on(aio::measure_uplink_bandwidth_unscheduled(
        ctrl,
        sink_port,
        n_packets,
        payload_len,
    ))
}

/// §4's uplink bandwidth measurement, verbatim in structure:
///
/// 1. "The controller first reads the current time t0 on the endpoint
///    (using the mread command)."
/// 2. "It then opens a UDP socket on the endpoint (using nopen)".
/// 3. "and schedules a block of UDP datagrams to be sent from the endpoint
///    to the controller at time t0 + δ (using nsend)."
/// 4. "The controller then waits for the UDP packets from the endpoint,
///    records their arrival times, and calculates the uplink bandwidth."
///
/// `delay_ns` is δ, the lead before the burst departs. It must cover
/// command delivery: datagrams whose `nsend` arrives after t₀ + δ leave as
/// their commands land, and the estimate then reads the control channel's
/// pace, as [`measure_uplink_bandwidth_unscheduled`] does. Bursts over 16
/// datagrams size the lead themselves from a coarse round; shorter ones
/// take δ as given.
///
/// Runs over the simulation harness (the controller's UDP sink lives on
/// its simulated host).
pub fn measure_uplink_bandwidth<P: ControlPlane + SinkHost>(
    ctrl: &mut P,
    sink_port: u16,
    n_packets: u32,
    payload_len: usize,
    delay_ns: u64,
) -> Result<BandwidthEstimate, ControllerError> {
    block_on(aio::measure_uplink_bandwidth(
        ctrl,
        sink_port,
        n_packets,
        payload_len,
        delay_ns,
    ))
}

/// The probes themselves: one `async` body each, over any
/// [`Plane`](crate::controller::aio::Plane). The functions of the parent
/// module are their blocking shells; the fleet runner awaits these
/// directly.
pub mod aio {
    use super::*;
    use crate::controller::aio::{Plane, Sink};

    /// [`super::ping`], resumable.
    pub async fn ping<P: Plane>(
        ctrl: &mut P,
        dst: Ipv4Addr,
        count: u32,
        interval: u64,
        payload_len: usize,
    ) -> Result<PingStats, ControllerError> {
        const SKT: u32 = 1;
        let sync = ctrl.sync_clock(4).await?;
        let src = ctrl.endpoint_addr().await?;
        ctrl.nopen_raw(SKT).await?;
        ctrl.ncap(SKT, u64::MAX, icmp_capture_program()).await?;

        // Schedule all probes slightly in the future so control traffic does
        // not contend with the measurement (§3.1's rationale for nsend times).
        let t0 = ctrl.read_clock().await?;
        let start = t0 + 2 * sync.min_rtt.max(1_000_000);
        let mut tags = Vec::new();
        for i in 0..count {
            let probe = builder::icmp_echo_request(
                src,
                dst,
                64,
                PING_IDENT,
                i as u16,
                &vec![0xa5; payload_len],
            );
            let tag = ctrl.nsend(SKT, start + i as u64 * interval, probe).await?;
            tags.push(tag);
        }

        // Poll for replies until shortly after the last probe + a grace RTT.
        let deadline = start + count as u64 * interval + 2_000_000_000;
        let mut replies = Vec::new();
        while replies.len() < count as usize {
            let poll = ctrl.npoll(deadline).await?;
            let mut got_any = false;
            for (_skt, trcv, pkt) in &poll.packets {
                got_any = true;
                let Ok(view) = ipv4::Ipv4View::new_unchecked(pkt) else {
                    continue;
                };
                if view.src() != dst {
                    continue;
                }
                if let Ok(icmp::IcmpMessage::EchoReply { ident, seq, .. }) =
                    icmp::parse(view.payload())
                {
                    if ident == PING_IDENT && (seq as u32) < count {
                        if let Some(tsnd) = ctrl.read_send_time(tags[seq as usize]).await? {
                            replies.push(PingReply {
                                seq,
                                rtt: trcv.saturating_sub(tsnd),
                            });
                        }
                    }
                }
            }
            if !got_any && ctrl.read_clock().await? >= deadline {
                break;
            }
            if poll.packets.is_empty() {
                break;
            }
        }
        ctrl.nclose(SKT).await?;
        replies.sort_by_key(|r| r.seq);
        replies.dedup_by_key(|r| r.seq);
        Ok(PingStats {
            sent: count,
            replies,
            sync,
        })
    }

    /// [`super::traceroute`], resumable.
    pub async fn traceroute<P: Plane>(
        ctrl: &mut P,
        dst: Ipv4Addr,
        max_ttl: u8,
    ) -> Result<TracerouteResult, ControllerError> {
        const SKT: u32 = 2;
        let sync = ctrl.sync_clock(4).await?;
        let src = ctrl.endpoint_addr().await?;
        ctrl.nopen_raw(SKT).await?;
        ctrl.ncap(SKT, u64::MAX, icmp_capture_program()).await?;

        let mut hops: Vec<Hop> = Vec::new();
        let mut reached = false;
        let mut ttl = 1u8;
        while ttl <= max_ttl && !reached {
            // Probe a small batch of TTLs, scheduled ahead of time.
            let batch_end = (ttl + 3).min(max_ttl);
            let t0 = ctrl.read_clock().await?;
            let start = t0 + 2 * sync.min_rtt.max(1_000_000);
            let mut tags = std::collections::HashMap::new();
            for t in ttl..=batch_end {
                // "the payload set to contain a two-byte sequence number".
                let seq = t as u16;
                let payload = seq.to_be_bytes();
                let probe = builder::icmp_echo_request(src, dst, t, PING_IDENT, seq, &payload);
                let tag = ctrl
                    .nsend(SKT, start + (t - ttl) as u64 * 1_000_000, probe)
                    .await?;
                tags.insert(seq, tag);
            }
            let deadline = start + 3_000_000_000;
            let mut answered: std::collections::HashMap<u16, (Ipv4Addr, u64, bool)> =
                std::collections::HashMap::new();
            while answered.len() < tags.len() {
                let poll = ctrl.npoll(deadline).await?;
                if poll.packets.is_empty() {
                    break;
                }
                for (_skt, trcv, pkt) in &poll.packets {
                    let Ok(view) = ipv4::Ipv4View::new_unchecked(pkt) else {
                        continue;
                    };
                    match icmp::parse(view.payload()) {
                        Ok(icmp::IcmpMessage::TimeExceeded { original, .. }) => {
                            // "The sequence number is extracted from the packet
                            // and used to match the original ICMP's tsnd."
                            if let Some(seq) = quoted_seq(original) {
                                answered.entry(seq).or_insert((view.src(), *trcv, false));
                            }
                        }
                        Ok(icmp::IcmpMessage::EchoReply { ident, seq, .. })
                            if ident == PING_IDENT && view.src() == dst =>
                        {
                            answered.entry(seq).or_insert((view.src(), *trcv, true));
                        }
                        _ => {}
                    }
                }
            }
            for t in ttl..=batch_end {
                let seq = t as u16;
                match answered.get(&seq) {
                    Some((addr, trcv, is_dst)) => {
                        let tsnd = ctrl.read_send_time(tags[&seq]).await?;
                        let rtt = tsnd.map(|ts| trcv.saturating_sub(ts));
                        hops.push(Hop {
                            ttl: t,
                            addr: Some(*addr),
                            rtt,
                            reached: *is_dst,
                        });
                        if *is_dst {
                            reached = true;
                            break;
                        }
                    }
                    None => hops.push(Hop {
                        ttl: t,
                        addr: None,
                        rtt: None,
                        reached: false,
                    }),
                }
            }
            ttl = batch_end + 1;
        }
        ctrl.nclose(SKT).await?;
        Ok(TracerouteResult { hops, reached })
    }

    /// [`super::measure_uplink_bandwidth_unscheduled`], resumable.
    pub async fn measure_uplink_bandwidth_unscheduled<P: Plane + Sink>(
        ctrl: &mut P,
        sink_port: u16,
        n_packets: u32,
        payload_len: usize,
    ) -> Result<BandwidthEstimate, ControllerError> {
        const SKT: u32 = 4;
        let sink_addr = ctrl.sink_addr();
        ctrl.sink_bind(sink_port);
        ctrl.nopen_udp(SKT, 20_001, sink_addr, sink_port).await?;
        // One command per datagram, each waiting for its response: the control
        // RTT paces the burst.
        for i in 0..n_packets {
            ctrl.nsend(SKT, 0, probe_payload(i, payload_len)).await?;
        }
        // Adaptive arrival horizon. The burst is paced by the control-channel
        // round trip, so its duration scales with the link: a fixed horizon
        // cuts slow links off mid-burst and silently undercounts. Keep
        // extending the wait while arrivals are still landing, bounded by a
        // hard deadline; report hitting that wall as truncation.
        let hard_deadline = ctrl.now() + 30_000_000_000;
        let mut arrivals = Vec::new();
        let mut truncated = false;
        loop {
            let window_end = (ctrl.now() + 2_000_000_000).min(hard_deadline);
            ctrl.wait_until(window_end).await;
            let batch = ctrl.sink_take(sink_port);
            let progress = !batch.is_empty();
            arrivals.extend(batch);
            if arrivals.len() as u32 >= n_packets {
                break;
            }
            if ctrl.now() >= hard_deadline {
                truncated = progress;
                break;
            }
            if !progress {
                break;
            }
        }
        ctrl.nclose(SKT).await?;
        Ok(estimate_from_arrivals(n_packets, &arrivals, truncated))
    }

    /// [`super::measure_uplink_bandwidth`], resumable.
    pub async fn measure_uplink_bandwidth<P: Plane + Sink>(
        ctrl: &mut P,
        sink_port: u16,
        n_packets: u32,
        payload_len: usize,
        delay_ns: u64,
    ) -> Result<BandwidthEstimate, ControllerError> {
        // The nsend commands themselves traverse the (slow) access link, and
        // their responses share the uplink with the measurement — the very
        // contention §3.1's scheduling exists to avoid. For large bursts, run
        // a small probe burst first to coarsely estimate the link, then size
        // the scheduling delay so all control traffic completes before the
        // burst departs.
        let mut delay = delay_ns;
        if n_packets > 16 {
            let coarse = burst_once(ctrl, 30, 20_002, sink_port, 10, payload_len, delay_ns).await?;
            if coarse.bits_per_sec > 0.0 {
                // Bytes of command traffic still to deliver, with generous
                // framing overhead, at the coarse rate — double it for slack.
                let cmd_bytes = n_packets as u64 * (payload_len as u64 + 120);
                let deliver_ns = (cmd_bytes as f64 * 8.0 / coarse.bits_per_sec * 1e9) as u64;
                delay = delay_ns + 2 * deliver_ns + 100_000_000;
            }
        }
        burst_once(ctrl, 3, 20_000, sink_port, n_packets, payload_len, delay).await
    }

    /// One scheduled burst round of the §4 bandwidth experiment.
    async fn burst_once<P: Plane + Sink>(
        ctrl: &mut P,
        skt: u32,
        locport: u16,
        sink_port: u16,
        n_packets: u32,
        payload_len: usize,
        delay_ns: u64,
    ) -> Result<BandwidthEstimate, ControllerError> {
        let sink_addr = ctrl.sink_addr();
        ctrl.sink_bind(sink_port);
        // Drain anything a previous round left in the sink.
        let _ = ctrl.sink_take(sink_port);

        // 1. Endpoint time.
        let t0 = ctrl.read_clock().await?;
        // 2. UDP socket on the endpoint.
        ctrl.nopen_udp(skt, locport, sink_addr, sink_port).await?;
        // 3. Schedule the burst at t0 + δ: all datagrams queued for the same
        //    instant; the access link's serialization paces them out, which is
        //    precisely what the estimate measures.
        let burst_time = t0 + delay_ns;
        let cmds: Vec<_> = (0..n_packets)
            .map(|i| crate::wire::Command::NSend {
                sktid: skt,
                time: burst_time,
                data: probe_payload(i, payload_len),
            })
            .collect();
        // Pipelined: the whole block is scheduled in ~one control round trip,
        // so control traffic is off the access link before the burst departs.
        for resp in ctrl.request_batch(cmds).await? {
            if let crate::wire::Response::Err { code, msg } = resp {
                return Err(ControllerError::Endpoint(code, msg.into_owned()));
            }
        }

        // 4. Wait for the burst to drain and record arrivals.
        let sync = ctrl.sync_clock(2).await?;
        let ctrl_burst_time = sync.to_controller(burst_time);
        // Generous horizon: burst duration at 1 Mbps plus slack.
        let ip_len = payload_len as u64 + UDP_IP_OVERHEAD;
        let horizon = ctrl_burst_time + n_packets as u64 * ip_len * 8 * 1_000 + 5_000_000_000;
        ctrl.wait_until(horizon).await;

        let arrivals = ctrl.sink_take(sink_port);
        ctrl.nclose(skt).await?;
        Ok(estimate_from_arrivals(n_packets, &arrivals, false))
    }
}

#[cfg(test)]
mod estimate_tests {
    use super::*;

    fn arr(entries: &[(u64, usize)]) -> Vec<(u64, Ipv4Addr, u16, u32, usize)> {
        entries
            .iter()
            .map(|&(t, len)| (t, Ipv4Addr::new(10, 0, 0, 1), 9999, 0, len))
            .collect()
    }

    #[test]
    fn overhead_matches_packet_crate_layouts() {
        assert_eq!(
            UDP_IP_OVERHEAD as usize,
            plab_packet::ipv4::MIN_HEADER_LEN + plab_packet::udp::HEADER_LEN
        );
    }

    #[test]
    fn zero_arrivals() {
        let e = estimate_from_arrivals(40, &arr(&[]), false);
        assert_eq!(e.received, 0);
        assert_eq!(e.sent, 40);
        assert_eq!(e.first_arrival, 0);
        assert_eq!(e.last_arrival, 0);
        assert_eq!(e.bits_per_sec, 0.0);
        assert!(!e.truncated);
    }

    #[test]
    fn one_arrival_has_no_rate() {
        let e = estimate_from_arrivals(40, &arr(&[(5_000, 1000)]), true);
        assert_eq!(e.received, 1);
        assert_eq!(e.first_arrival, 5_000);
        assert_eq!(e.last_arrival, 5_000);
        assert_eq!(e.bits_per_sec, 0.0);
        assert!(e.truncated);
    }

    #[test]
    fn out_of_order_arrivals_use_min_max_not_positional() {
        // Reordered sink entries: positional first/last would yield a
        // wrapped (negative) interval. The middle entry is the earliest.
        let e = estimate_from_arrivals(
            3,
            &arr(&[(2_000_000, 1000), (1_000_000, 1000), (1_500_000, 1000)]),
            false,
        );
        assert_eq!(e.first_arrival, 1_000_000);
        assert_eq!(e.last_arrival, 2_000_000);
        // Two datagrams (the earliest excluded) over 1 ms.
        let expect = 2.0 * (1000.0 + 28.0) * 8.0 / 1e-3;
        assert!((e.bits_per_sec - expect).abs() < 1e-6, "{}", e.bits_per_sec);
    }

    #[test]
    fn in_order_matches_positional_semantics() {
        // FIFO arrivals: identical to the historical positional fold that
        // the chaos digests pin.
        let a = arr(&[(10, 500), (20, 500), (35, 500)]);
        let e = estimate_from_arrivals(3, &a, false);
        assert_eq!(e.first_arrival, 10);
        assert_eq!(e.last_arrival, 35);
        let bytes = 2 * (500 + 28) as u64;
        let expect = bytes as f64 * 8.0 / (25.0 / 1e9);
        assert_eq!(e.bits_per_sec, expect);
    }

    #[test]
    fn dispersion_holds_the_link_rate_through_loss() {
        // A 10 Mbit/s train of 1000-byte datagrams, spaced by their
        // serialization time, with every third one lost.
        let spacing = (1000 + UDP_IP_OVERHEAD) * 8 * 1_000_000_000 / 10_000_000;
        let train = |seqs: Vec<u32>| -> Vec<_> {
            seqs.into_iter()
                .map(|i| {
                    (
                        1_000_000 + i as u64 * spacing,
                        Ipv4Addr::new(10, 0, 0, 1),
                        9999,
                        i,
                        1000,
                    )
                })
                .collect()
        };
        let e = estimate_from_arrivals(24, &train((0..24).filter(|i| i % 3 != 2).collect()), false);
        assert_eq!(e.received, 16);
        assert_eq!(e.dispersion_bps, 10_000_000);
        // The first/last fold counts 15 datagrams over 22 slots.
        assert!(e.bits_per_sec < 7_000_000.0, "{}", e.bits_per_sec);
        // Three arrivals are two pairs: a first/last rate, no dispersion.
        let e = estimate_from_arrivals(3, &train(vec![0, 1, 2]), false);
        assert_eq!(e.dispersion_bps, 0);
        assert!(
            (e.bits_per_sec - 10_000_000.0).abs() < 1.0,
            "{}",
            e.bits_per_sec
        );
    }
}
