//! `plab-bwest`: the multi-destination bandwidth-estimation probe suite.
//!
//! Estimates the endpoint→destination path bandwidth with two independent
//! probes, both written purely against the PacketLab command set:
//!
//! * **TCP bulk probe** — schedule a sized block of stream data for a
//!   single future instant (`nsend` with a time, §3.1: "by scheduling
//!   data to be sent later ... traffic between the endpoint and
//!   experiment controller does not affect the bandwidth measurement"),
//!   then watch the endpoint's socket-state table (`mread` of the
//!   [`crate::memory::SOCKSTAT_OFFSET`] region — the paper's "current
//!   socket state") as the send backlog drains. Because the whole block
//!   enters the endpoint's TCP send buffer at one instant, the drain rate
//!   *is* the path bottleneck for a window-limited flow; no control
//!   traffic contends with the transfer while it runs.
//! * **UDP dispersion probe** — schedule a back-to-back datagram train to
//!   the destination's echo service and measure the spacing of the echoes
//!   (packet-pair/train dispersion). Spacing is normalized by the
//!   sequence gap between consecutive arrivals, so burst loss thins the
//!   samples without biasing the median: a dropped probe still consumed
//!   its serialization slot at the bottleneck.
//!
//! The probes fail differently — bulk TCP collapses under burst loss
//! (RTO-driven go-back-N), dispersion smears under jitter — so the
//! combiner prefers the TCP probe when its retransmission counter (the
//! TCP_INFO-style signal in the socket-state flags) stays clean and falls
//! back to dispersion otherwise, reporting agreement as a confidence
//! grade.

use super::UDP_IP_OVERHEAD;
use crate::controller::aio::{block_on, unexpected, Plane};
use crate::controller::{probe_payload, probe_seq, ClockSync, ControlPlane, ControllerError};
use crate::memory::{EndpointMemory, SockStat, SOCKSTAT_ENTRY};
use crate::wire::{Command, Response};
use std::net::Ipv4Addr;

/// Destination UDP echo service port (the classic inetd echo port).
pub const UDP_ECHO_PORT: u16 = 7;
/// Destination TCP byte-sink port (the classic inetd discard port).
pub const TCP_SINK_PORT: u16 = 9;
/// The netsim TCP advertises a 16-bit window without scaling: a single
/// flow cannot exceed `RECV_WINDOW_BITS / RTT` bits per second.
pub const RECV_WINDOW_BITS: u64 = 65_535 * 8;

static M_PROBES: plab_obs::metrics::Counter = plab_obs::metrics::Counter::new("bwest.probes");
static M_STALLS: plab_obs::metrics::Counter = plab_obs::metrics::Counter::new("bwest.tcp.stalls");
static M_SLIPS: plab_obs::metrics::Counter =
    plab_obs::metrics::Counter::new("bwest.schedule.slips");

/// Target drain duration for the TCP bulk probe, ns. The bulk size is
/// chosen so the drain takes about this long at the coarse estimate.
const BULK_TARGET_NS: u64 = 1_200_000_000;
/// Bulk size floor and ceiling, bytes.
const BULK_MIN_BYTES: u64 = 96 * 1024;
const BULK_MAX_BYTES: u64 = 4 * 1024 * 1024;
/// Bytes per scheduled `nsend` chunk.
const CHUNK_BYTES: usize = 64 * 1024;
/// Hard per-probe deadline, ns (controller clock): a transfer still
/// unfinished this long after its scheduled start is reported stalled.
const PROBE_DEADLINE_NS: u64 = 15_000_000_000;

/// Datagrams per dispersion train. With `TRAIN_PAYLOAD` it sizes the
/// train for access links in the 1–50 Mbit/s range (the ground-truth
/// corpus in `plab_netsim::roster`).
const TRAIN_LEN: u32 = 24;
/// Payload bytes per train datagram (sequence number in the first 4).
const TRAIN_PAYLOAD: usize = 1000;

/// How much to trust a [`DestEstimate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Confidence {
    /// Both probes ran clean and agree within 25%.
    High,
    /// One clean probe, or clean probes that disagree.
    Medium,
    /// No clean probe; the estimate is best-effort.
    Low,
}

/// Outcome of the TCP bulk probe against one destination.
#[derive(Debug, Clone, Copy)]
pub struct TcpProbeResult {
    /// Estimated path bandwidth, bits per second.
    pub bits_per_sec: u64,
    /// Bytes acknowledged end-to-end during the timed window.
    pub bytes: u64,
    /// Timed window, ns.
    pub elapsed_ns: u64,
    /// Largest send backlog observed (bytes).
    pub peak_backlog: u64,
    /// Socket-state samples taken.
    pub samples: u32,
    /// Retransmissions during the probe (socket-state flags delta).
    pub retrans: u32,
    /// The transfer did not complete before the deadline, or stopped
    /// making progress.
    pub stalled: bool,
    /// Command delivery overran the scheduled start: control traffic
    /// overlapped the measurement, so the estimate is contaminated.
    pub slipped: bool,
}

/// Outcome of the dispersion probe against one destination.
#[derive(Debug, Clone, Copy)]
pub struct DispersionResult {
    /// Median dispersion rate, bits per second.
    pub bits_per_sec: u64,
    /// Echoes received (of the train's 24 probes).
    pub echoes: u32,
    /// Consecutive-arrival pairs behind the median.
    pub pairs: u32,
    /// Round-trip time of the earliest echo (endpoint clock), ns; 0 when
    /// unavailable.
    pub rtt_ns: u64,
}

/// Combined per-destination estimate.
#[derive(Debug, Clone, Copy)]
pub struct DestEstimate {
    /// The destination probed.
    pub dest: Ipv4Addr,
    /// The suite's bandwidth estimate, bits per second.
    pub bits_per_sec: u64,
    /// Trust grade from probe agreement.
    pub confidence: Confidence,
    /// The TCP estimate sits at the receive-window throughput ceiling
    /// (`RECV_WINDOW_BITS / RTT`): the flow was window-limited and the
    /// path may be faster than reported.
    pub window_limited: bool,
    /// TCP bulk probe detail, if the connection came up.
    pub tcp: Option<TcpProbeResult>,
    /// Dispersion probe detail, if enough echoes returned.
    pub dispersion: Option<DispersionResult>,
}

/// Suite result over all destinations.
#[derive(Debug, Clone)]
pub struct BwestReport {
    /// Per-destination estimates, in input order.
    pub dests: Vec<DestEstimate>,
    /// Clock sync used for schedule conversions.
    pub sync: ClockSync,
}

/// Fold a train's arrivals `(arrival time ns, sequence, payload len)`
/// into a dispersion rate: for each consecutive-arrival pair with
/// ascending sequence numbers, `rate = seq_gap · (len + 28) · 8 / Δt`,
/// then take the median. Sequence-gap normalization keeps the estimate
/// unbiased under loss (a lost probe still consumed its serialization
/// slot at the bottleneck); the median rejects jitter outliers. Integer
/// math throughout — replays are bit-identical. Returns `(bits_per_sec,
/// pairs)` or `None` with fewer than 3 usable pairs.
pub fn dispersion_from_arrivals(arrivals: &[(u64, u32, usize)]) -> Option<(u64, u32)> {
    let mut a: Vec<(u64, u32, usize)> = arrivals.to_vec();
    a.sort_unstable_by_key(|e| (e.0, e.1));
    a.dedup_by_key(|e| e.1);
    let mut rates: Vec<u64> = Vec::new();
    for w in a.windows(2) {
        let (t0, s0, _) = w[0];
        let (t1, s1, len) = w[1];
        if s1 <= s0 || t1 <= t0 {
            continue;
        }
        let gap = (s1 - s0) as u64;
        let bits = gap * (len as u64 + UDP_IP_OVERHEAD) * 8;
        rates.push(bits.saturating_mul(1_000_000_000) / (t1 - t0));
    }
    if rates.len() < 3 {
        return None;
    }
    rates.sort_unstable();
    let n = rates.len();
    let median = if n % 2 == 1 { rates[n / 2] } else { (rates[n / 2 - 1] + rates[n / 2]) / 2 };
    Some((median, n as u32))
}

/// Read one socket-state entry; `None` when the slot describes another
/// socket (ring collision) or was cleared.
async fn read_sockstat<P: Plane>(
    ctrl: &mut P,
    sktid: u32,
) -> Result<Option<SockStat>, ControllerError> {
    let data = ctrl.mread(EndpointMemory::sockstat_slot(sktid), SOCKSTAT_ENTRY as u32).await?;
    Ok(EndpointMemory::parse_sockstat_entry(&data).filter(|s| s.sktid == sktid && s.is_open()))
}

/// Schedule `n` sends of `payload(i)` for one future endpoint instant,
/// pipelined as a batch. Returns the send-log tags, the scheduled start
/// (endpoint clock), and how far command delivery overran the start
/// (0 = the whole block was queued before its departure time). Callers
/// that retry use the overrun to size the next attempt's lead: on a
/// lossy control channel batch delivery time is dominated by RTO stalls,
/// which no a-priori `k·rtt` guess predicts.
async fn schedule_block<P: Plane>(
    ctrl: &mut P,
    skt: u32,
    n: u32,
    lead_ns: u64,
    rtt: u64,
    mut payload: impl FnMut(u32) -> Vec<u8>,
) -> Result<(Vec<u64>, u64, u64), ControllerError> {
    let t0 = ctrl.read_clock().await?;
    let start = t0 + lead_ns;
    let cmds: Vec<Command> = (0..n)
        .map(|i| Command::NSend { sktid: skt, time: start, data: payload(i) })
        .collect();
    let mut tags = Vec::with_capacity(n as usize);
    for resp in ctrl.request_batch(cmds).await? {
        match resp {
            Response::SendQueued { tag } => tags.push(tag),
            other => return Err(unexpected(other, "SendQueued")),
        }
    }
    let after = ctrl.read_clock().await?;
    let late_ns = (after + rtt).saturating_sub(start);
    if late_ns > 0 {
        M_SLIPS.inc();
        plab_obs::obs_event!(
            plab_obs::Component::Controller,
            "bwest.slip",
            "skt" = skt as u64,
            "late_ns" = late_ns
        );
    }
    Ok((tags, start, late_ns))
}

/// Outcome of one timed scheduled-block drain.
struct DrainOutcome {
    bytes: u64,
    elapsed_ns: u64,
    peak_backlog: u64,
    samples: u32,
    drained: bool,
    slipped: bool,
}

impl DrainOutcome {
    /// The probe result this drain stands for, given the retransmissions
    /// counted across it.
    fn into_result(self, retrans: u32) -> TcpProbeResult {
        TcpProbeResult {
            bits_per_sec: self.bytes.saturating_mul(8_000_000_000) / self.elapsed_ns,
            bytes: self.bytes,
            elapsed_ns: self.elapsed_ns,
            peak_backlog: self.peak_backlog,
            samples: self.samples,
            retrans,
            stalled: !self.drained,
            slipped: self.slipped,
        }
    }
}

/// Schedule `n_chunks · chunk` bytes of bulk at one instant, then sample
/// the socket-state backlog until it drains. `sample_interval_ns = 0`
/// samples at the natural control-round-trip cadence (used by the coarse
/// probe); a positive interval sleeps between samples via an empty
/// `npoll` so the sampling itself stays off the measured uplink.
#[allow(clippy::too_many_arguments)]
async fn timed_drain<P: Plane>(
    ctrl: &mut P,
    skt: u32,
    sync: &ClockSync,
    chunk: usize,
    n_chunks: u64,
    lead_ns: u64,
    sample_interval_ns: u64,
    deadline_ns: u64,
) -> Result<DrainOutcome, ControllerError> {
    let rtt = sync.min_rtt.max(1_000_000);
    let total = chunk as u64 * n_chunks;
    let (_tags, start, late) =
        schedule_block(ctrl, skt, n_chunks as u32, lead_ns, rtt, |_| vec![0u8; chunk]).await?;
    let slipped = late > 0;
    // Wait out the remaining lead (each clock read is one control round
    // trip; the block only enters the TCP send buffer at `start`).
    while ctrl.read_clock().await? < start {}
    let start_ctrl = sync.to_controller(start);
    let deadline_ctrl = start_ctrl + deadline_ns;
    let mut peak = 0u64;
    let mut samples = 0u32;
    let mut last_b = u64::MAX;
    let mut last_change = start_ctrl;
    let (drained, t_end, final_b) = loop {
        if sample_interval_ns > 0 {
            let wake = sync.to_endpoint(ctrl.now()) + sample_interval_ns;
            let _ = ctrl.npoll(wake).await?;
        }
        let b = read_sockstat(ctrl, skt).await?.map(|s| s.backlog).unwrap_or(0);
        let now = ctrl.now();
        samples += 1;
        peak = peak.max(b);
        if b != last_b {
            last_b = b;
            last_change = now;
        }
        if b == 0 && now >= start_ctrl {
            break (true, now, 0);
        }
        if now >= deadline_ctrl {
            break (false, now, b);
        }
        if b > 0 && now.saturating_sub(last_change) > 5_000_000_000 {
            break (false, now, b);
        }
    };
    Ok(DrainOutcome {
        bytes: total.saturating_sub(final_b),
        elapsed_ns: t_end.saturating_sub(start_ctrl).max(1),
        peak_backlog: peak,
        samples,
        drained,
        slipped,
    })
}

/// Map an endpoint-side error to "probe unavailable" while letting
/// transport failures propagate.
fn soft<T>(r: Result<T, ControllerError>) -> Result<Option<T>, ControllerError> {
    match r {
        Ok(v) => Ok(Some(v)),
        Err(ControllerError::Endpoint(..)) => Ok(None),
        Err(e) => Err(e),
    }
}

/// The TCP bulk probe: connect to the destination's byte sink, size the
/// bulk from a coarse 64 KiB drain, schedule the bulk for one instant,
/// and time the backlog drain. Returns `None` when the connection never
/// establishes (no sink at the destination).
async fn tcp_probe<P: Plane>(
    ctrl: &mut P,
    skt: u32,
    locport: u16,
    dest: Ipv4Addr,
    sync: &ClockSync,
) -> Result<Option<TcpProbeResult>, ControllerError> {
    if soft(ctrl.nopen_tcp(skt, locport, dest, TCP_SINK_PORT).await)?.is_none() {
        return Ok(None);
    }
    M_PROBES.inc();
    let rtt = sync.min_rtt.max(1_000_000);
    // Establishment: poll the socket-state table (SYN loss is ridden out
    // by the endpoint stack's own retransmission).
    let est_deadline = ctrl.now() + 10_000_000_000;
    let established = loop {
        if read_sockstat(ctrl, skt).await?.is_some_and(|s| s.is_alive()) {
            break true;
        }
        if ctrl.now() >= est_deadline {
            break false;
        }
    };
    if !established {
        let _ = soft(ctrl.nclose(skt).await)?;
        return Ok(None);
    }
    let retrans0 = read_sockstat(ctrl, skt).await?.map(|s| s.retrans()).unwrap_or(0);

    // Coarse drain: one 64 KiB chunk, generous lead (unknown link — budget
    // delivery at 1 Mbit/s; idle virtual time is cheap).
    let coarse_chunk = 64 * 1024usize;
    let coarse_lead = 2 * (coarse_chunk as u64 * 8 * 1_000) + 8 * rtt + 300_000_000;
    let coarse =
        timed_drain(ctrl, skt, sync, coarse_chunk, 1, coarse_lead, 0, PROBE_DEADLINE_NS).await?;
    // A coarse drain that stalled is the result; one that finished sizes
    // the timed bulk.
    let outcome = if !coarse.drained {
        coarse
    } else {
        let coarse_bps =
            (coarse_chunk as u64).saturating_mul(8_000_000_000) / coarse.elapsed_ns;
        // Size the bulk for ~BULK_TARGET_NS of drain at the coarse rate.
        let bulk = (coarse_bps / 8).saturating_mul(BULK_TARGET_NS) / 1_000_000_000;
        let bulk = bulk.clamp(BULK_MIN_BYTES, BULK_MAX_BYTES);
        let n_chunks = bulk.div_ceil(CHUNK_BYTES as u64).max(1);
        let total = n_chunks * CHUNK_BYTES as u64;
        // Delivery budget: the batch crosses the control channel at least
        // as fast as the coarse drain rate (downlink ≥ path bottleneck),
        // doubled for slack, plus per-command round trips.
        let lead = 2 * total.saturating_mul(8_000_000_000) / coarse_bps.max(1)
            + n_chunks * 4 * rtt
            + 500_000_000;
        let interval = (BULK_TARGET_NS / 48).max(4 * rtt);
        timed_drain(ctrl, skt, sync, CHUNK_BYTES, n_chunks, lead, interval, PROBE_DEADLINE_NS)
            .await?
    };
    if !outcome.drained {
        M_STALLS.inc();
    }
    let retrans1 = read_sockstat(ctrl, skt).await?.map(|s| s.retrans()).unwrap_or(retrans0);
    let result = outcome.into_result(retrans1.saturating_sub(retrans0));
    let _ = soft(ctrl.nclose(skt).await)?;
    plab_obs::obs_event!(
        plab_obs::Component::Controller,
        "bwest.tcp",
        "bps" = result.bits_per_sec,
        "retrans" = result.retrans as u64
    );
    Ok(Some(result))
}

/// The dispersion probe over UDP socket `skt`, closed on the way out:
/// schedule a back-to-back train to the destination's echo port, gather
/// its echoes via `npoll`, take the median sequence-gap-normalized spacing
/// rate. Retries with a longer lead when command delivery overruns the
/// scheduled departure; each attempt numbers its probes from a disjoint
/// range, so an earlier attempt's echoes are ignored. `rtt_ns` is the
/// earliest echo's stamp minus its actual transmit time from the
/// send-time log.
async fn dispersion_probe<P: Plane>(
    ctrl: &mut P,
    skt: u32,
    locport: u16,
    dest: Ipv4Addr,
    sync: &ClockSync,
) -> Result<Option<DispersionResult>, ControllerError> {
    if soft(ctrl.nopen_udp(skt, locport, dest, UDP_ECHO_PORT).await)?.is_none() {
        return Ok(None);
    }
    let rtt = sync.min_rtt.max(1_000_000);
    M_PROBES.inc();
    let mut lead = TRAIN_LEN as u64 * 2 * rtt + 300_000_000;
    let mut best = None;
    for attempt in 0..4u32 {
        let seq_base = attempt * 1000;
        let (tags, start, late) = schedule_block(ctrl, skt, TRAIN_LEN, lead, rtt, |i| {
            probe_payload(seq_base + i, TRAIN_PAYLOAD)
        })
        .await?;
        if late > 0 {
            // The overrun is a direct measurement of batch delivery time
            // on the current channel; cover it with 2× margin next round.
            lead = (lead + late) * 2;
            continue;
        }
        // Gather echoes until the train is fully answered or the deadline
        // (endpoint clock) lapses.
        let seqs = seq_base..seq_base + TRAIN_LEN;
        let deadline = start + 3_000_000_000 + 2 * rtt;
        let mut arrivals = Vec::new();
        loop {
            let poll = ctrl.npoll(deadline).await?;
            let got = !poll.packets.is_empty();
            for (pskt, trcv, payload) in &poll.packets {
                let seq = probe_seq(payload);
                if *pskt == skt && seqs.contains(&seq) {
                    arrivals.push((*trcv, seq - seq_base, payload.len()));
                }
            }
            if arrivals.len() >= TRAIN_LEN as usize {
                break;
            }
            if !got || ctrl.read_clock().await? >= deadline {
                break;
            }
        }
        plab_obs::obs_event!(
            plab_obs::Component::Controller,
            "bwest.train",
            "echoes" = arrivals.len() as u64,
            "attempt" = attempt as u64
        );
        if let Some((bps, pairs)) = dispersion_from_arrivals(&arrivals) {
            let rtt_ns = match arrivals.iter().min_by_key(|a| a.0) {
                Some(&(trcv, seq, _)) => ctrl
                    .read_send_time(tags[seq as usize])
                    .await?
                    .map_or(0, |tsnd| trcv.saturating_sub(tsnd)),
                None => 0,
            };
            best = Some(DispersionResult {
                bits_per_sec: bps,
                echoes: arrivals.len() as u32,
                pairs,
                rtt_ns,
            });
            break;
        }
    }
    let _ = soft(ctrl.nclose(skt).await)?;
    Ok(best)
}

/// Merge the two probes into one estimate. The TCP probe wins while its
/// loss signal stays clean (it is exact on clean, bloated, and jittery
/// paths); dispersion takes over when TCP shows retransmissions, a
/// stall, or a schedule slip (burst-loss paths, where bulk TCP goodput
/// collapses below the path rate).
fn combine(
    tcp: &Option<TcpProbeResult>,
    disp: &Option<DispersionResult>,
) -> (u64, Confidence, bool) {
    let tcp_clean = tcp
        .as_ref()
        .is_some_and(|t| !t.stalled && !t.slipped && t.retrans <= 2 && t.bits_per_sec > 0);
    let window_limited = match (tcp_clean, tcp, disp) {
        (true, Some(t), Some(d)) if d.rtt_ns > 0 => {
            let ceiling = RECV_WINDOW_BITS.saturating_mul(1_000_000_000) / d.rtt_ns;
            t.bits_per_sec.saturating_mul(100) >= ceiling.saturating_mul(85)
        }
        _ => false,
    };
    match (tcp_clean, tcp, disp) {
        (true, Some(t), Some(d)) => {
            let (hi, lo) = (t.bits_per_sec.max(d.bits_per_sec), t.bits_per_sec.min(d.bits_per_sec));
            let agree = hi.saturating_sub(lo).saturating_mul(100) <= hi.saturating_mul(25);
            let conf = if agree { Confidence::High } else { Confidence::Medium };
            (t.bits_per_sec, conf, window_limited)
        }
        (true, Some(t), None) => (t.bits_per_sec, Confidence::Medium, window_limited),
        (false, _, Some(d)) => (d.bits_per_sec, Confidence::Medium, false),
        (false, Some(t), None) => (t.bits_per_sec, Confidence::Low, false),
        (false, None, None) => (0, Confidence::Low, false),
        (true, None, _) => unreachable!("tcp_clean implies tcp present"),
    }
}

/// Run the full suite against every destination: dispersion first (its
/// first echo also yields the path RTT), then the TCP bulk probe, then
/// the combiner. One socket-id pair per destination.
pub fn estimate_path_bandwidth<P: ControlPlane>(
    ctrl: &mut P,
    dests: &[Ipv4Addr],
) -> Result<BwestReport, ControllerError> {
    block_on(aio::estimate_path_bandwidth(ctrl, dests))
}

/// The suite's entry point as an `async` body over any [`Plane`]; the
/// function of the parent module is its blocking shell.
pub mod aio {
    use super::*;

    /// [`super::estimate_path_bandwidth`], resumable.
    pub async fn estimate_path_bandwidth<P: Plane>(
        ctrl: &mut P,
        dests: &[Ipv4Addr],
    ) -> Result<BwestReport, ControllerError> {
        let sync = ctrl.sync_clock(4).await?;
        let mut out = Vec::with_capacity(dests.len());
        for (i, &dest) in dests.iter().enumerate() {
            let skt = 10 + 2 * i as u32;
            let locport = 21_000 + 2 * i as u16;
            // Endpoint-side failures mid-probe (e.g. a control-channel
            // reconnect that lost the session, taking its sockets with it)
            // degrade this destination to a missing probe instead of
            // aborting the remaining destinations; transport failures
            // (`Unreachable`) still abort the suite.
            let dispersion =
                soft(dispersion_probe(ctrl, skt, locport, dest, &sync).await)?.flatten();
            let tcp = soft(tcp_probe(ctrl, skt + 1, locport + 1, dest, &sync).await)?.flatten();
            let (bits_per_sec, confidence, window_limited) = combine(&tcp, &dispersion);
            plab_obs::obs_event!(
                plab_obs::Component::Controller,
                "bwest.estimate",
                "bps" = bits_per_sec,
                "confidence" = confidence as u64
            );
            out.push(DestEstimate {
                dest,
                bits_per_sec,
                confidence,
                window_limited,
                tcp,
                dispersion,
            });
        }
        Ok(BwestReport { dests: out, sync })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train(rate_bps: u64, n: u32, len: usize) -> Vec<(u64, u32, usize)> {
        let spacing = (len as u64 + UDP_IP_OVERHEAD) * 8 * 1_000_000_000 / rate_bps;
        (0..n).map(|i| (1_000_000 + i as u64 * spacing, i, len)).collect()
    }

    #[test]
    fn dispersion_recovers_uniform_rate() {
        let (bps, pairs) = dispersion_from_arrivals(&train(5_000_000, 24, 1000)).unwrap();
        assert_eq!(pairs, 23);
        let err = bps.abs_diff(5_000_000);
        assert!(err * 100 <= 5_000_000, "{bps} vs 5000000");
    }

    #[test]
    fn dispersion_is_loss_robust_via_seq_gaps() {
        // Drop probes 3..9 and 15..18: the survivors' spacing still spans
        // the lost probes' serialization slots.
        let full = train(2_000_000, 24, 1000);
        let thinned: Vec<_> = full
            .iter()
            .copied()
            .filter(|&(_, s, _)| !(3..9).contains(&s) && !(15..18).contains(&s))
            .collect();
        let (bps, _) = dispersion_from_arrivals(&thinned).unwrap();
        let err = bps.abs_diff(2_000_000);
        assert!(err * 100 <= 2_000_000, "{bps} vs 2000000");
    }

    #[test]
    fn dispersion_needs_three_pairs() {
        assert!(dispersion_from_arrivals(&train(1_000_000, 3, 1000)).is_none());
        assert!(dispersion_from_arrivals(&[]).is_none());
        // Duplicate sequences collapse; ties in time are skipped.
        let dup = vec![(100, 1, 500), (100, 1, 500), (200, 1, 500)];
        assert!(dispersion_from_arrivals(&dup).is_none());
    }

    #[test]
    fn dispersion_survives_reordered_input() {
        let mut t = train(8_000_000, 16, 1000);
        t.reverse();
        let (bps, _) = dispersion_from_arrivals(&t).unwrap();
        let err = bps.abs_diff(8_000_000);
        assert!(err * 100 <= 8_000_000, "{bps}");
    }

    fn tcp_result(bps: u64, retrans: u32, stalled: bool) -> TcpProbeResult {
        TcpProbeResult {
            bits_per_sec: bps,
            bytes: 0,
            elapsed_ns: 1,
            peak_backlog: 0,
            samples: 1,
            retrans,
            stalled,
            slipped: false,
        }
    }

    fn disp_result(bps: u64) -> DispersionResult {
        DispersionResult { bits_per_sec: bps, echoes: 20, pairs: 19, rtt_ns: 10_000_000 }
    }

    #[test]
    fn combine_prefers_clean_tcp_and_grades_agreement() {
        let (bps, conf, _) =
            combine(&Some(tcp_result(5_000_000, 0, false)), &Some(disp_result(5_200_000)));
        assert_eq!(bps, 5_000_000);
        assert_eq!(conf, Confidence::High);
        // Disagreement keeps TCP but drops the grade.
        let (bps, conf, _) =
            combine(&Some(tcp_result(5_000_000, 0, false)), &Some(disp_result(9_000_000)));
        assert_eq!(bps, 5_000_000);
        assert_eq!(conf, Confidence::Medium);
    }

    #[test]
    fn combine_falls_back_to_dispersion_on_loss() {
        let (bps, conf, wl) =
            combine(&Some(tcp_result(900_000, 14, false)), &Some(disp_result(5_000_000)));
        assert_eq!(bps, 5_000_000);
        assert_eq!(conf, Confidence::Medium);
        assert!(!wl);
        let (bps, _, _) =
            combine(&Some(tcp_result(100_000, 3, true)), &Some(disp_result(2_000_000)));
        assert_eq!(bps, 2_000_000);
    }

    #[test]
    fn combine_degrades_gracefully() {
        let (bps, conf, _) = combine(&Some(tcp_result(4_000_000, 0, false)), &None);
        assert_eq!((bps, conf), (4_000_000, Confidence::Medium));
        let (bps, conf, _) = combine(&Some(tcp_result(300_000, 9, true)), &None);
        assert_eq!((bps, conf), (300_000, Confidence::Low));
        let (bps, conf, _) = combine(&None, &None);
        assert_eq!((bps, conf), (0, Confidence::Low));
    }

    #[test]
    fn window_ceiling_flags_window_limited_transfers() {
        // RTT 10 ms → ceiling 52.4 Mbit/s; a 50 Mbit/s TCP estimate is
        // within 85% of it.
        let (_, _, wl) =
            combine(&Some(tcp_result(50_000_000, 0, false)), &Some(disp_result(50_000_000)));
        assert!(wl);
        let (_, _, wl) =
            combine(&Some(tcp_result(5_000_000, 0, false)), &Some(disp_result(5_000_000)));
        assert!(!wl);
    }
}
