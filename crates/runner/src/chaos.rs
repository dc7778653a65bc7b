//! Fleet-scale fault plans: deterministic chaos schedules over a roster.
//!
//! A plan picks a seeded subset of roster endpoints and schedules
//! crash/restart cycles on their hosts and Gilbert–Elliott burst-loss
//! windows on their access links. Everything derives from splitmix64
//! over `(seed, index)`, so the same plan against the same world replays
//! identically — which is what lets the fleet chaos tests pin report
//! digests.

use crate::exec::FleetWorld;
use plab_netsim::{FaultAction, GilbertElliott};
use plab_obs::export::splitmix64;

/// Parameters for [`schedule_fleet_faults`].
#[derive(Debug, Clone, Copy)]
pub struct FleetFaultPlan {
    /// Plan seed (independent of the world seed).
    pub seed: u64,
    /// Crash one endpoint host in every `crash_every`-th roster slot
    /// (0 disables crashes).
    pub crash_every: usize,
    /// Virtual-time window faults land in: crashes are spread uniformly
    /// over `[start_ns, start_ns + spread_ns)`.
    pub start_ns: u64,
    /// Spread of fault onset times, ns.
    pub spread_ns: u64,
    /// How long a crashed host stays down before its restart, ns.
    /// `u64::MAX` means no restart (the endpoint stays dead).
    pub downtime_ns: u64,
    /// Put a burst-loss window on every `burst_every`-th endpoint's
    /// access link (0 disables burst loss).
    pub burst_every: usize,
    /// How long each burst-loss window lasts, ns.
    pub burst_len_ns: u64,
}

impl Default for FleetFaultPlan {
    fn default() -> FleetFaultPlan {
        FleetFaultPlan {
            seed: 0x5eed_f1ee7,
            crash_every: 8,
            start_ns: 2 * plab_netsim::SECOND,
            spread_ns: 8 * plab_netsim::SECOND,
            downtime_ns: 3 * plab_netsim::SECOND,
            burst_every: 8,
            burst_len_ns: 4 * plab_netsim::SECOND,
        }
    }
}

/// Schedule `plan` onto `world`: endpoint-host crash (+ restart unless
/// `downtime_ns == u64::MAX`) for every `crash_every`-th pair, and a
/// bursty-loss window on every `burst_every`-th pair's access link
/// (offset so the two fault kinds mostly hit different pairs). Returns
/// `(crashes, burst_windows)` scheduled.
pub fn schedule_fleet_faults(world: &mut FleetWorld, plan: &FleetFaultPlan) -> (usize, usize) {
    let mut crashes = 0;
    let mut bursts = 0;
    for (i, pair) in world.pairs.iter().enumerate() {
        let jitter =
            splitmix64(&mut (plan.seed ^ (i as u64).wrapping_mul(0x9e37))) % plan.spread_ns.max(1);
        let at = plan.start_ns + jitter;
        if plan.crash_every != 0 && i % plan.crash_every == 0 {
            world.net.sim.schedule_fault(
                at,
                FaultAction::NodeCrash {
                    node: pair.endpoint.0,
                },
            );
            if plan.downtime_ns != u64::MAX {
                world.net.sim.schedule_fault(
                    at.saturating_add(plan.downtime_ns),
                    FaultAction::NodeRestart {
                        node: pair.endpoint.0,
                    },
                );
            }
            crashes += 1;
        }
        // Offset by half the stride so burst loss and crashes interleave
        // across the roster instead of stacking on the same pairs.
        if plan.burst_every != 0 && (i + plan.burst_every / 2).is_multiple_of(plan.burst_every) {
            // The access link is the pod-router ↔ endpoint-host link; the
            // builder creates it when the endpoint host is added.
            let link = {
                let sim = &world.net.sim;
                sim.link_between(pair.endpoint, pod_router_of(world, i))
            };
            if let Some(link) = link {
                world.net.sim.schedule_fault(
                    at,
                    FaultAction::SetBurstLoss {
                        link,
                        model: Some(GilbertElliott::bursty()),
                    },
                );
                world.net.sim.schedule_fault(
                    at.saturating_add(plan.burst_len_ns),
                    FaultAction::SetBurstLoss { link, model: None },
                );
                bursts += 1;
            }
        }
    }
    (crashes, bursts)
}

/// The endpoint-pod router serving roster pair `i`. Node ids are
/// assigned in construction order: core, then `pods` controller-pod
/// routers, then `pods` endpoint-pod routers, then host pairs.
fn pod_router_of(world: &FleetWorld, i: usize) -> plab_netsim::NodeId {
    let pod = i / plab_netsim::roster::HOSTS_PER_POD;
    plab_netsim::NodeId(1 + world.pods + pod)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::build_fleet;
    use plab_crypto::Keypair;
    use plab_netsim::roster::RosterSpec;

    #[test]
    fn plan_schedules_expected_counts() {
        let operator = Keypair::from_seed(&[3; 32]);
        let spec = RosterSpec {
            pairs: 64,
            shards: 2,
            threads: 1,
            seed: 11,
            access_mbps: 0,
        };
        let mut world = build_fleet(&spec, &operator);
        let (crashes, bursts) = schedule_fleet_faults(&mut world, &FleetFaultPlan::default());
        assert_eq!(crashes, 8);
        assert_eq!(bursts, 8);
    }

    #[test]
    fn pod_router_lookup_matches_links() {
        let operator = Keypair::from_seed(&[3; 32]);
        let spec = RosterSpec {
            pairs: 130,
            shards: 2,
            threads: 1,
            seed: 11,
            access_mbps: 0,
        };
        let world = build_fleet(&spec, &operator);
        // Every pair's endpoint must share a link with its computed pod
        // router, including pairs past the first pod boundary.
        for i in [0, 63, 64, 129] {
            let r = pod_router_of(&world, i);
            assert!(
                world
                    .net
                    .sim
                    .link_between(world.pairs[i].endpoint, r)
                    .is_some(),
                "pair {i} has no access link to its pod router"
            );
        }
    }
}
