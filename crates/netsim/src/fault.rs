//! Deterministic fault injection: scheduled link flaps, Gilbert–Elliott
//! loss bursts, loss/parameter changes, and endpoint crash/restart.
//!
//! Faults are ordinary events on the simulator's queue ([`crate::event`]):
//! they fire at exact virtual times and any randomness they need (burst
//! state transitions, per-packet loss rolls) is drawn from the simulator's
//! single seeded RNG, so a (topology, seed, fault schedule) triple replays
//! bit-for-bit. The paper's viability argument — a dumb endpoint driven
//! interactively over the real Internet (§1, §3.2) — only holds if the
//! control plane survives exactly these conditions; this module makes them
//! reproducible enough to regression-test.

use crate::time::SimTime;

/// Parameters of a Gilbert–Elliott two-state burst-loss model.
///
/// The channel is either *good* or *bad*; each packet arrival first rolls a
/// state transition, then rolls loss at the current state's rate. With a
/// small `p_enter_bad` and a moderate `p_exit_bad` this produces the bursty
/// loss residential access links actually exhibit, which uniform loss
/// cannot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Probability of moving good → bad, rolled per packet.
    pub p_enter_bad: f64,
    /// Probability of moving bad → good, rolled per packet.
    pub p_exit_bad: f64,
    /// Per-packet loss probability while in the good state.
    pub loss_good: f64,
    /// Per-packet loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// A typical bursty profile: rare entry into a bad state that loses
    /// most packets and lasts ~10 packets on average.
    pub fn bursty() -> Self {
        GilbertElliott {
            p_enter_bad: 0.02,
            p_exit_bad: 0.1,
            loss_good: 0.0,
            loss_bad: 0.75,
        }
    }
}

/// A fault applied to the simulation at a scheduled virtual time.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Take a link down. Packets already in flight on the link are lost at
    /// arrival time (a cut cable drops what is on the wire) and new offers
    /// are dropped with [`crate::DropReason::LinkDown`].
    LinkDown {
        /// Link index (see [`crate::Sim::link_between`]).
        link: usize,
    },
    /// Bring a link back up.
    LinkUp {
        /// Link index.
        link: usize,
    },
    /// Replace a link's uniform random-loss probability.
    SetLoss {
        /// Link index.
        link: usize,
        /// New per-packet loss probability in [0, 1).
        loss: f64,
    },
    /// Enable (`Some`) or disable (`None`) Gilbert–Elliott burst loss on a
    /// link. Both directions share the parameters but hold independent
    /// good/bad state.
    SetBurstLoss {
        /// Link index.
        link: usize,
        /// Model parameters, or `None` to turn burst loss off.
        model: Option<GilbertElliott>,
    },
    /// Replace a link's propagation delay and jitter (e.g. a route change
    /// moving traffic onto a longer path). Packets already in flight keep
    /// their old arrival times; FIFO ordering per direction is preserved
    /// for subsequent sends by the usual serialization rule.
    SetDelay {
        /// Link index.
        link: usize,
        /// New one-way propagation delay (ns).
        latency: SimTime,
        /// New ± uniform jitter bound (ns).
        jitter: SimTime,
    },
    /// Tear down every TCP connection on a host — established, half-open,
    /// and queued-for-accept — while leaving listeners, UDP/raw sockets,
    /// and all application state untouched. This models the control
    /// channel dying (NAT table flush, middlebox reset) without the
    /// endpoint losing its experiment: the distinction
    /// [`FaultAction::NodeCrash`] cannot express.
    TcpReset {
        /// Node index.
        node: usize,
    },
    /// Crash a host: its entire socket stack (raw/UDP/TCP, pending OS
    /// packets) is wiped and deliveries are dropped with
    /// [`crate::DropReason::NodeDown`] until restart.
    NodeCrash {
        /// Node index.
        node: usize,
    },
    /// Restart a crashed host with a fresh, empty socket stack. The driving
    /// harness observes the transition via
    /// [`crate::Sim::drain_node_transitions`] and re-establishes listeners.
    NodeRestart {
        /// Node index.
        node: usize,
    },
}

/// A scheduled fault: apply `action` at virtual time `at`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledFault {
    /// Virtual time the fault fires.
    pub at: SimTime,
    /// What happens.
    pub action: FaultAction,
}

/// Convert a probability in [0, 1] to a threshold against the top 53 bits
/// of a uniform `u64` roll. The comparison `roll >> 11 < threshold` is pure
/// integer arithmetic, so loss decisions are bit-for-bit identical across
/// platforms and optimization levels (satisfying the determinism contract
/// float comparisons cannot).
pub fn loss_threshold(p: f64) -> u64 {
    debug_assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
    (p.clamp(0.0, 1.0) * (1u64 << 53) as f64) as u64
}

/// Decide a Bernoulli trial from a uniform `u64` roll and a probability.
pub fn roll_below(roll: u64, p: f64) -> bool {
    (roll >> 11) < loss_threshold(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_edges() {
        assert_eq!(loss_threshold(0.0), 0);
        assert_eq!(loss_threshold(1.0), 1u64 << 53);
        // p = 0 never fires, even on the maximal roll.
        assert!(!roll_below(u64::MAX, 0.0));
        // p = 1 always fires.
        assert!(roll_below(u64::MAX, 1.0));
        assert!(roll_below(0, 1.0));
    }

    #[test]
    fn threshold_is_monotonic() {
        let mut last = 0;
        for i in 0..=100 {
            let t = loss_threshold(i as f64 / 100.0);
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn half_probability_splits_roll_space() {
        // A roll whose top bit is clear is below a 0.5 threshold.
        assert!(roll_below(0, 0.5));
        assert!(!roll_below(u64::MAX, 0.5));
    }
}
