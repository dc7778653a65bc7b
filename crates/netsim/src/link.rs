//! Point-to-point links: propagation latency, serialization bandwidth,
//! drop-tail queueing, and optional random loss.
//!
//! The link model is what makes the §4 bandwidth experiment meaningful: a
//! burst of UDP datagrams sent "as quickly as possible" from an endpoint is
//! paced by its access link's serialization delay, so the receiver-observed
//! arrival rate estimates the bottleneck bandwidth.

use crate::fault::{roll_below, GilbertElliott};
use crate::time::{serialization_ns, SimTime};

/// Link configuration.
#[derive(Debug, Clone, Copy)]
pub struct LinkParams {
    /// One-way propagation delay, ns.
    pub latency: SimTime,
    /// Serialization rate a→b, bits/second. 0 = infinite.
    pub bandwidth_ab_bps: u64,
    /// Serialization rate b→a, bits/second. 0 = infinite. Asymmetric
    /// residential access links (ADSL/cable) have much slower upstream.
    pub bandwidth_ba_bps: u64,
    /// Drop-tail queue capacity in bytes (per direction).
    pub queue_bytes: usize,
    /// Random loss probability per packet in [0, 1).
    pub loss: f64,
    /// Maximum random extra delay per packet, ns (uniform in [0, jitter]).
    /// Arrival order within a direction is preserved (delays are clamped
    /// so FIFO links never reorder — our TCP relies on that).
    pub jitter: SimTime,
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams {
            latency: crate::time::MILLISECOND,
            bandwidth_ab_bps: 0,
            bandwidth_ba_bps: 0,
            queue_bytes: 256 * 1024,
            loss: 0.0,
            jitter: 0,
        }
    }
}

impl LinkParams {
    /// A convenience constructor: `latency_ms` milliseconds, `mbps`
    /// megabits per second in both directions (0 = infinite).
    pub fn new(latency_ms: u64, mbps: u64) -> Self {
        LinkParams {
            latency: latency_ms * crate::time::MILLISECOND,
            bandwidth_ab_bps: mbps * 1_000_000,
            bandwidth_ba_bps: mbps * 1_000_000,
            ..Default::default()
        }
    }

    /// Asymmetric link: `down_mbps` in the a→b direction, `up_mbps` in
    /// the b→a direction. Connect the ISP side as `a` and the subscriber
    /// as `b` and this models a residential access link.
    pub fn asymmetric(latency_ms: u64, down_mbps: u64, up_mbps: u64) -> Self {
        LinkParams {
            latency: latency_ms * crate::time::MILLISECOND,
            bandwidth_ab_bps: down_mbps * 1_000_000,
            bandwidth_ba_bps: up_mbps * 1_000_000,
            ..Default::default()
        }
    }

    /// Serialization rate for a direction (0 = a→b, 1 = b→a).
    pub fn bandwidth_for(&self, dir: usize) -> u64 {
        if dir == 0 {
            self.bandwidth_ab_bps
        } else {
            self.bandwidth_ba_bps
        }
    }

    /// Builder-style: set loss probability.
    pub fn with_loss(mut self, loss: f64) -> Self {
        self.loss = loss;
        self
    }

    /// Builder-style: set queue capacity in bytes.
    pub fn with_queue(mut self, bytes: usize) -> Self {
        self.queue_bytes = bytes;
        self
    }

    /// Builder-style: set per-packet jitter ceiling in ns.
    pub fn with_jitter(mut self, jitter: SimTime) -> Self {
        self.jitter = jitter;
        self
    }

    /// Builder-style: bufferbloat mode. A pathologically deep drop-tail
    /// queue (4 MiB ≈ seconds of buffering at residential rates): packets
    /// are almost never tail-dropped, they just sit and accumulate
    /// queueing delay, which inflates RTT-based estimates while leaving
    /// dispersion-based ones intact.
    pub fn bufferbloat(mut self) -> Self {
        self.queue_bytes = BUFFERBLOAT_QUEUE_BYTES;
        self
    }
}

/// Queue depth used by [`LinkParams::bufferbloat`].
pub const BUFFERBLOAT_QUEUE_BYTES: usize = 4 * 1024 * 1024;

/// Per-direction transmission state.
#[derive(Debug, Default, Clone)]
pub struct Direction {
    /// Time the transmitter is busy until (serialization).
    pub busy_until: SimTime,
    /// Bytes currently queued or in flight toward the far end.
    pub queued_bytes: usize,
    /// Packets dropped at this queue.
    pub drops: u64,
    /// Latest arrival time handed out (jitter clamp: preserves FIFO order).
    pub last_arrival: SimTime,
    /// Gilbert–Elliott state: true while the channel is in the bad state.
    pub ge_bad: bool,
}

/// A bidirectional link between two node interfaces.
#[derive(Debug, Clone)]
pub struct Link {
    /// Endpoint A: (node index, interface index).
    pub a: (usize, usize),
    /// Endpoint B: (node index, interface index).
    pub b: (usize, usize),
    /// Configuration.
    pub params: LinkParams,
    /// Per-direction state: `[0]` is a→b, `[1]` is b→a.
    pub dirs: [Direction; 2],
    /// Administrative state; false while a fault holds the link down.
    pub up: bool,
    /// Optional burst-loss model (fault injection); directions share the
    /// parameters but keep independent state.
    pub ge: Option<GilbertElliott>,
}

/// Outcome of offering a packet to a link queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// Accepted; packet arrives at the far node at this time.
    Accepted {
        /// Arrival time at the far end.
        arrival: SimTime,
    },
    /// Dropped at the queue (tail drop).
    QueueFull,
}

impl Link {
    /// Create a link.
    pub fn new(a: (usize, usize), b: (usize, usize), params: LinkParams) -> Self {
        Link {
            a,
            b,
            params,
            dirs: [Direction::default(), Direction::default()],
            up: true,
            ge: None,
        }
    }

    /// Does arrival-time loss sampling need RNG rolls for this link?
    pub fn lossy(&self) -> bool {
        self.params.loss > 0.0 || self.ge.is_some()
    }

    /// Decide whether a packet arriving in `dir` is lost. `rolls` are two
    /// independent uniform `u64` draws from the simulator's seeded RNG:
    /// the first drives the Gilbert–Elliott state transition, the second
    /// the loss decision itself. Pure integer threshold comparisons keep
    /// the outcome bit-for-bit identical across platforms.
    pub fn sample_loss(&mut self, dir: usize, rolls: [u64; 2]) -> bool {
        let mut p = self.params.loss;
        if let Some(ge) = self.ge {
            let d = &mut self.dirs[dir];
            let flip = if d.ge_bad {
                ge.p_exit_bad
            } else {
                ge.p_enter_bad
            };
            if roll_below(rolls[0], flip) {
                d.ge_bad = !d.ge_bad;
            }
            let burst = if d.ge_bad { ge.loss_bad } else { ge.loss_good };
            p = p.max(burst);
        }
        p > 0.0 && roll_below(rolls[1], p)
    }

    /// The far node for a given direction.
    pub fn dst_node(&self, dir: usize) -> usize {
        if dir == 0 {
            self.b.0
        } else {
            self.a.0
        }
    }

    /// The near (transmitting) node for a given direction.
    pub fn src_node(&self, dir: usize) -> usize {
        if dir == 0 {
            self.a.0
        } else {
            self.b.0
        }
    }

    /// The direction index for traffic leaving `node`.
    pub fn dir_from(&self, node: usize) -> Option<usize> {
        if self.a.0 == node {
            Some(0)
        } else if self.b.0 == node {
            Some(1)
        } else {
            None
        }
    }

    /// Offer a packet of `len` bytes for transmission at `now`.
    /// `jitter_sample` is a uniform draw in [0, params.jitter] supplied by
    /// the simulator's seeded RNG (0 when the link has no jitter).
    pub fn offer(&mut self, dir: usize, now: SimTime, len: usize, jitter_sample: SimTime) -> Offer {
        let d = &mut self.dirs[dir];
        if d.queued_bytes + len > self.params.queue_bytes {
            d.drops += 1;
            return Offer::QueueFull;
        }
        d.queued_bytes += len;
        let start = d.busy_until.max(now);
        let done = start + serialization_ns(len, self.params.bandwidth_for(dir));
        d.busy_until = done;
        // Clamp so arrivals stay non-decreasing per direction.
        let arrival = (done + self.params.latency + jitter_sample).max(d.last_arrival);
        d.last_arrival = arrival;
        Offer::Accepted { arrival }
    }

    /// Account a packet leaving the queue (called at arrival).
    pub fn departed(&mut self, dir: usize, len: usize) {
        let d = &mut self.dirs[dir];
        d.queued_bytes = d.queued_bytes.saturating_sub(len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::MILLISECOND;

    fn link(params: LinkParams) -> Link {
        Link::new((0, 0), (1, 0), params)
    }

    #[test]
    fn latency_only() {
        let mut l = link(LinkParams {
            latency: 5 * MILLISECOND,
            bandwidth_ab_bps: 0,
            bandwidth_ba_bps: 0,
            queue_bytes: 1000,
            loss: 0.0,
            jitter: 0,
        });
        match l.offer(0, 100, 500, 0) {
            Offer::Accepted { arrival } => assert_eq!(arrival, 100 + 5 * MILLISECOND),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn serialization_paces_back_to_back_packets() {
        // 10 Mbps, 1250-byte packets => 1 ms each.
        let mut l = link(LinkParams {
            latency: 0,
            bandwidth_ab_bps: 10_000_000,
            bandwidth_ba_bps: 10_000_000,
            queue_bytes: usize::MAX,
            loss: 0.0,
            jitter: 0,
        });
        let mut arrivals = Vec::new();
        for _ in 0..5 {
            match l.offer(0, 0, 1250, 0) {
                Offer::Accepted { arrival } => arrivals.push(arrival),
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(
            arrivals,
            vec![
                MILLISECOND,
                2 * MILLISECOND,
                3 * MILLISECOND,
                4 * MILLISECOND,
                5 * MILLISECOND
            ]
        );
    }

    #[test]
    fn queue_overflow_drops() {
        let mut l = link(LinkParams {
            latency: 0,
            bandwidth_ab_bps: 1_000_000,
            bandwidth_ba_bps: 1_000_000,
            queue_bytes: 3000,
            loss: 0.0,
            jitter: 0,
        });
        assert!(matches!(l.offer(0, 0, 1500, 0), Offer::Accepted { .. }));
        assert!(matches!(l.offer(0, 0, 1500, 0), Offer::Accepted { .. }));
        assert_eq!(l.offer(0, 0, 1500, 0), Offer::QueueFull);
        assert_eq!(l.dirs[0].drops, 1);
        // Draining the queue frees space.
        l.departed(0, 1500);
        assert!(matches!(l.offer(0, 0, 1500, 0), Offer::Accepted { .. }));
    }

    #[test]
    fn directions_are_independent() {
        let mut l = link(LinkParams {
            latency: MILLISECOND,
            bandwidth_ab_bps: 10_000_000,
            bandwidth_ba_bps: 10_000_000,
            queue_bytes: 10_000,
            loss: 0.0,
            jitter: 0,
        });
        let Offer::Accepted { arrival: a0 } = l.offer(0, 0, 1250, 0) else {
            panic!()
        };
        let Offer::Accepted { arrival: a1 } = l.offer(1, 0, 1250, 0) else {
            panic!()
        };
        // Same timing in both directions; neither blocks the other.
        assert_eq!(a0, a1);
    }

    #[test]
    fn idle_gap_resets_pacing() {
        let mut l = link(LinkParams {
            latency: 0,
            bandwidth_ab_bps: 10_000_000,
            bandwidth_ba_bps: 10_000_000,
            queue_bytes: usize::MAX,
            loss: 0.0,
            jitter: 0,
        });
        let Offer::Accepted { arrival: first } = l.offer(0, 0, 1250, 0) else {
            panic!()
        };
        assert_eq!(first, MILLISECOND);
        l.departed(0, 1250);
        // Offer long after the link went idle: serialization starts at now.
        let Offer::Accepted { arrival } = l.offer(0, 100 * MILLISECOND, 1250, 0) else {
            panic!()
        };
        assert_eq!(arrival, 101 * MILLISECOND);
    }

    #[test]
    fn dir_helpers() {
        let l = link(LinkParams::default());
        assert_eq!(l.dir_from(0), Some(0));
        assert_eq!(l.dir_from(1), Some(1));
        assert_eq!(l.dir_from(9), None);
        assert_eq!(l.dst_node(0), 1);
        assert_eq!(l.dst_node(1), 0);
    }
}

#[cfg(test)]
mod asymmetric_tests {
    use super::*;
    use crate::time::MILLISECOND;

    #[test]
    fn asymmetric_directions_pace_differently() {
        // a→b 10 Mbps (1250 B = 1 ms), b→a 1 Mbps (1250 B = 10 ms).
        let mut l = Link::new((0, 0), (1, 0), LinkParams::asymmetric(0, 10, 1));
        let Offer::Accepted { arrival: down } = l.offer(0, 0, 1250, 0) else {
            panic!()
        };
        let Offer::Accepted { arrival: up } = l.offer(1, 0, 1250, 0) else {
            panic!()
        };
        assert_eq!(down, MILLISECOND);
        assert_eq!(up, 10 * MILLISECOND);
    }

    #[test]
    fn bandwidth_for_selects_direction() {
        let p = LinkParams::asymmetric(1, 50, 5);
        assert_eq!(p.bandwidth_for(0), 50_000_000);
        assert_eq!(p.bandwidth_for(1), 5_000_000);
    }
}
