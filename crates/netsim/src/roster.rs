//! Fleet roster topologies: paired controller/endpoint hosts over pod
//! worlds with manual routes, sized for thousands of measurement
//! endpoints (the substrate `plab-runner` orchestrates over).
//!
//! The shape mirrors the scale-sweep pod worlds: a core router with one
//! 2 ms uplink per pod (the uplink latency is the sharded lookahead
//! window), pods of 64 hosts behind a pod router, and manual routes so
//! construction skips the O(n²) BFS. Controllers and endpoints live in
//! *separate* pods — pair `i`'s controller sits in controller-pod
//! `i / 64` and its endpoint in endpoint-pod `i / 64` — so every
//! control message and measurement probe crosses
//! `controller → pod router → core → pod router → endpoint`, a
//! four-hop path worth tracerouting and, at `shards > 1`, a genuine
//! cross-shard exchange.
//!
//! Everything here is pure topology: nodes, links, addresses, routes,
//! shard assignment. Attaching endpoint agents and control listeners is
//! the harness's job.

use crate::fault::{FaultAction, GilbertElliott};
use crate::link::LinkParams;
use crate::node::NodeId;
use crate::shard::ShardedSim;
use crate::sim::Sim;
use crate::time::MILLISECOND;
use crate::topology::TopologyBuilder;
use std::net::Ipv4Addr;

/// Hosts per pod (shared with the scale-sweep pod worlds).
pub const HOSTS_PER_POD: usize = 64;

/// Uplink (pod ↔ core) one-way latency in milliseconds. This is the
/// minimum cross-shard link latency, i.e. the conservative-lookahead
/// window of the sharded world.
pub const UPLINK_MS: u64 = 2;

/// How to build a roster world.
#[derive(Debug, Clone, Copy)]
pub struct RosterSpec {
    /// Number of controller/endpoint pairs.
    pub pairs: usize,
    /// Shard count for the [`ShardedSim`].
    pub shards: usize,
    /// OS threads for the windowed advance (1 = sequential; the result
    /// is bit-identical either way).
    pub threads: usize,
    /// World RNG seed.
    pub seed: u64,
    /// Endpoint access-link bandwidth, Mbit/s (0 = infinite). Finite
    /// values make the §4 uplink-bandwidth program measure something.
    pub access_mbps: u64,
}

/// One controller/endpoint pair of a built roster.
#[derive(Debug, Clone, Copy)]
pub struct RosterPair {
    /// The controller's host node.
    pub controller: NodeId,
    /// The measurement endpoint's host node.
    pub endpoint: NodeId,
    /// The controller host's address.
    pub controller_addr: Ipv4Addr,
    /// The endpoint host's address.
    pub endpoint_addr: Ipv4Addr,
}

/// A built roster world.
pub struct RosterWorld {
    /// The sharded simulator.
    pub sim: ShardedSim,
    /// All pairs, in roster order.
    pub pairs: Vec<RosterPair>,
    /// Pods per side (controller pods == endpoint pods).
    pub pods: usize,
}

fn ctrl_host_addr(pod: usize, j: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 32 + pod as u8, (j / 200) as u8, (j % 200) as u8 + 1)
}

fn ep_host_addr(pod: usize, j: usize) -> Ipv4Addr {
    Ipv4Addr::new(11, 32 + pod as u8, (j / 200) as u8, (j % 200) as u8 + 1)
}

/// Build a paired pod world per `spec`. Node creation order, link
/// order, shard assignment, and routes are all pure functions of the
/// spec, so two builds from the same spec are identical worlds.
pub fn build_roster(spec: &RosterSpec) -> RosterWorld {
    assert!(spec.pairs > 0, "empty roster");
    assert!(spec.shards > 0, "need at least one shard");
    let pods = spec.pairs.div_ceil(HOSTS_PER_POD);
    assert!(
        pods <= 200,
        "roster capped at {} pairs",
        200 * HOSTS_PER_POD
    );

    let mut t = TopologyBuilder::new();
    t.seed(spec.seed);
    t.manual_routes();

    let core = t.router("core", Ipv4Addr::new(10, 0, 0, 254));

    // Pod routers + uplinks first: core iface p == controller pod p,
    // core iface pods + p == endpoint pod p (interfaces are allocated
    // in link-creation order).
    let uplink = LinkParams::new(UPLINK_MS, 0);
    let ctrl_pods: Vec<NodeId> = (0..pods)
        .map(|p| {
            let r = t.router(
                &format!("cpod{p}"),
                Ipv4Addr::new(10, 32 + p as u8, 255, 254),
            );
            t.link(core, r, uplink);
            r
        })
        .collect();
    let ep_pods: Vec<NodeId> = (0..pods)
        .map(|p| {
            let r = t.router(
                &format!("epod{p}"),
                Ipv4Addr::new(11, 32 + p as u8, 255, 254),
            );
            t.link(core, r, uplink);
            r
        })
        .collect();

    // Hosts. Controller links are fast and clean; endpoint access links
    // carry the (optionally finite) measured bandwidth.
    let ctrl_link = LinkParams::new(1, 0);
    let ep_link = LinkParams::new(1, spec.access_mbps);
    let mut pairs = Vec::with_capacity(spec.pairs);
    for i in 0..spec.pairs {
        let (p, j) = (i / HOSTS_PER_POD, i % HOSTS_PER_POD);
        let ca = ctrl_host_addr(p, j);
        let ea = ep_host_addr(p, j);
        let c = t.host(&format!("c{i}"), ca);
        t.link(ctrl_pods[p], c, ctrl_link);
        let e = t.host(&format!("e{i}"), ea);
        t.link(ep_pods[p], e, ep_link);
        pairs.push(RosterPair {
            controller: c,
            endpoint: e,
            controller_addr: ca,
            endpoint_addr: ea,
        });
    }

    // Shard assignment: the core lives on shard 0; controller pod p and
    // its hosts on shard p % shards, endpoint pod p and its hosts on
    // (pods + p) % shards — paired pods generally land on different
    // shards, so control traffic exercises the boundary exchange.
    let total_nodes = 1 + 2 * pods + 2 * spec.pairs;
    let mut shard_of = vec![0usize; total_nodes];
    for (p, r) in ctrl_pods.iter().enumerate() {
        shard_of[r.0] = p % spec.shards;
    }
    for (p, r) in ep_pods.iter().enumerate() {
        shard_of[r.0] = (pods + p) % spec.shards;
    }
    for (i, pr) in pairs.iter().enumerate() {
        let p = i / HOSTS_PER_POD;
        shard_of[pr.controller.0] = p % spec.shards;
        shard_of[pr.endpoint.0] = (pods + p) % spec.shards;
    }

    let mut sim = t.build_sharded(&shard_of, spec.threads);

    // Manual routes. Core: one exact route per host toward its pod's
    // uplink interface. Pod routers: default to the uplink (iface 0,
    // created first), hosts on ifaces 1 + j. Hosts got their default
    // route at assembly.
    for (i, pr) in pairs.iter().enumerate() {
        let p = i / HOSTS_PER_POD;
        sim.install_route(core, pr.controller_addr, p);
        sim.install_route(core, pr.endpoint_addr, pods + p);
    }
    for (p, r) in ctrl_pods.iter().enumerate() {
        sim.set_default_route(*r, 0);
        for j in 0..HOSTS_PER_POD.min(spec.pairs - p * HOSTS_PER_POD) {
            sim.install_route(*r, ctrl_host_addr(p, j), 1 + j);
        }
    }
    for (p, r) in ep_pods.iter().enumerate() {
        sim.set_default_route(*r, 0);
        for j in 0..HOSTS_PER_POD.min(spec.pairs - p * HOSTS_PER_POD) {
            sim.install_route(*r, ep_host_addr(p, j), 1 + j);
        }
    }

    RosterWorld { sim, pairs, pods }
}

// ---------------------------------------------------------------------
// Bandwidth-estimation ground-truth corpus (plab-bwest)
// ---------------------------------------------------------------------

/// One destination host behind the bwest world's aggregation router.
#[derive(Debug, Clone, Copy)]
pub struct BwDest {
    /// Destination link rate (both directions), Mbit/s. 0 = infinite.
    pub mbps: u64,
    /// Destination link one-way latency, ms.
    pub latency_ms: u64,
}

/// One bandwidth-estimation topology: a subscriber endpoint behind an
/// asymmetric access link, a fast controller, and one or more probe
/// destinations, all meeting at an aggregation router.
///
/// ```text
/// controller ──1ms/∞── racc ──access (down/up)── endpoint
///                        │
///                        ├──dest link── dest 0
///                        └──dest link── dest 1 …
/// ```
///
/// The netsim TCP advertises a 16-bit window (no window scaling), so a
/// single bulk flow tops out at `65535·8/RTT` bits/s — corpus entries
/// keep path RTTs and rates under that ceiling with margin.
#[derive(Debug, Clone, Copy)]
pub struct BwTopoSpec {
    /// Corpus entry name (stable across releases; keys the accuracy
    /// table and artifact digests).
    pub name: &'static str,
    /// Access downlink (racc → endpoint), Mbit/s.
    pub down_mbps: u64,
    /// Access uplink (endpoint → racc), Mbit/s — usually the bottleneck
    /// the suite must find.
    pub up_mbps: u64,
    /// Access link one-way latency, ms.
    pub access_latency_ms: u64,
    /// Access link jitter ceiling, ms (uniform, FIFO-clamped).
    pub jitter_ms: u64,
    /// Probe destinations.
    pub dests: &'static [BwDest],
    /// Deep (4 MiB) drop-tail queue on the access link: RTT inflates
    /// under load, nothing drops.
    pub bufferbloat: bool,
    /// Gilbert–Elliott burst loss on the access link from t=0.
    pub burst_loss: bool,
    /// World RNG seed.
    pub seed: u64,
}

/// A built bwest world (sequential [`Sim`]; these are five-node worlds).
pub struct BwWorld {
    /// The simulator.
    pub sim: Sim,
    /// Controller host.
    pub controller: NodeId,
    /// Subscriber endpoint host.
    pub endpoint: NodeId,
    /// Controller address.
    pub controller_addr: Ipv4Addr,
    /// Endpoint address.
    pub endpoint_addr: Ipv4Addr,
    /// Destination hosts, in spec order.
    pub dests: Vec<(NodeId, Ipv4Addr)>,
    /// Configured endpoint→dest bottleneck per destination, bits/s
    /// (`min(uplink, dest link)`) — what the estimator is graded against.
    pub ground_truth: Vec<u64>,
}

const ONE: [BwDest; 1] = [BwDest {
    mbps: 40,
    latency_ms: 1,
}];
const DUAL: [BwDest; 2] = [
    BwDest {
        mbps: 40,
        latency_ms: 1,
    },
    BwDest {
        mbps: 3,
        latency_ms: 2,
    },
];
const TRIO: [BwDest; 3] = [
    BwDest {
        mbps: 40,
        latency_ms: 1,
    },
    BwDest {
        mbps: 8,
        latency_ms: 2,
    },
    BwDest {
        mbps: 12,
        latency_ms: 3,
    },
];
const FAR: [BwDest; 1] = [BwDest {
    mbps: 40,
    latency_ms: 6,
}];
const SLOW: [BwDest; 1] = [BwDest {
    mbps: 5,
    latency_ms: 1,
}];

/// The 20-topology ground-truth corpus: clean asymmetric access tiers,
/// destination-limited paths, bufferbloat queues, Gilbert–Elliott burst
/// loss, jitter, and combinations.
pub fn bw_corpus() -> Vec<BwTopoSpec> {
    let base = BwTopoSpec {
        name: "",
        down_mbps: 0,
        up_mbps: 0,
        access_latency_ms: 2,
        jitter_ms: 0,
        dests: &ONE,
        bufferbloat: false,
        burst_loss: false,
        seed: 0,
    };
    vec![
        BwTopoSpec {
            name: "adsl_6_1",
            down_mbps: 6,
            up_mbps: 1,
            seed: 101,
            ..base
        },
        BwTopoSpec {
            name: "adsl_24_3",
            down_mbps: 24,
            up_mbps: 3,
            seed: 102,
            ..base
        },
        BwTopoSpec {
            name: "cable_30_5",
            down_mbps: 30,
            up_mbps: 5,
            seed: 103,
            ..base
        },
        BwTopoSpec {
            name: "cable_dual_dest",
            down_mbps: 30,
            up_mbps: 5,
            dests: &DUAL,
            seed: 104,
            ..base
        },
        BwTopoSpec {
            name: "fiber_sym_20",
            down_mbps: 20,
            up_mbps: 20,
            seed: 105,
            ..base
        },
        BwTopoSpec {
            name: "fiber_sym_35",
            down_mbps: 35,
            up_mbps: 35,
            seed: 106,
            ..base
        },
        BwTopoSpec {
            name: "vdsl_50_10",
            down_mbps: 50,
            up_mbps: 10,
            seed: 107,
            ..base
        },
        BwTopoSpec {
            name: "dest_limited",
            down_mbps: 30,
            up_mbps: 20,
            dests: &SLOW,
            seed: 108,
            ..base
        },
        BwTopoSpec {
            name: "far_dest",
            down_mbps: 20,
            up_mbps: 8,
            dests: &FAR,
            seed: 109,
            ..base
        },
        BwTopoSpec {
            name: "slow_sym_3",
            down_mbps: 3,
            up_mbps: 3,
            seed: 110,
            ..base
        },
        BwTopoSpec {
            name: "bloat_adsl",
            down_mbps: 6,
            up_mbps: 1,
            bufferbloat: true,
            seed: 111,
            ..base
        },
        BwTopoSpec {
            name: "bloat_cable",
            down_mbps: 30,
            up_mbps: 5,
            bufferbloat: true,
            seed: 112,
            ..base
        },
        BwTopoSpec {
            name: "bloat_fiber",
            down_mbps: 25,
            up_mbps: 25,
            bufferbloat: true,
            seed: 113,
            ..base
        },
        BwTopoSpec {
            name: "bloat_far",
            down_mbps: 20,
            up_mbps: 10,
            dests: &FAR,
            bufferbloat: true,
            seed: 114,
            ..base
        },
        BwTopoSpec {
            name: "lossy_adsl",
            down_mbps: 8,
            up_mbps: 2,
            burst_loss: true,
            seed: 115,
            ..base
        },
        BwTopoSpec {
            name: "lossy_cable",
            down_mbps: 30,
            up_mbps: 5,
            burst_loss: true,
            seed: 116,
            ..base
        },
        BwTopoSpec {
            name: "lossy_sym",
            down_mbps: 15,
            up_mbps: 15,
            burst_loss: true,
            seed: 117,
            ..base
        },
        BwTopoSpec {
            name: "lossy_bloat",
            down_mbps: 20,
            up_mbps: 6,
            bufferbloat: true,
            burst_loss: true,
            seed: 118,
            ..base
        },
        BwTopoSpec {
            name: "jittery_cable",
            down_mbps: 30,
            up_mbps: 5,
            jitter_ms: 1,
            seed: 119,
            ..base
        },
        BwTopoSpec {
            name: "multi_dest_trio",
            down_mbps: 20,
            up_mbps: 12,
            dests: &TRIO,
            seed: 120,
            ..base
        },
    ]
}

/// Build the world for one corpus entry. Node order, link order, and the
/// fault schedule are pure functions of the spec: two builds replay
/// bit-identically.
pub fn build_bw_world(spec: &BwTopoSpec) -> BwWorld {
    let mut t = TopologyBuilder::new();
    t.seed(spec.seed);

    let racc = t.router("racc", Ipv4Addr::new(10, 9, 0, 254));
    let controller_addr = Ipv4Addr::new(10, 9, 0, 1);
    let endpoint_addr = Ipv4Addr::new(10, 9, 1, 1);
    let controller = t.host("controller", controller_addr);
    t.link(racc, controller, LinkParams::new(1, 0));

    let mut access = LinkParams::asymmetric(spec.access_latency_ms, spec.down_mbps, spec.up_mbps);
    if spec.bufferbloat {
        access = access.bufferbloat();
    }
    if spec.jitter_ms > 0 {
        access = access.with_jitter(spec.jitter_ms * MILLISECOND);
    }
    let endpoint = t.host("endpoint", endpoint_addr);
    let access_link = t.link(racc, endpoint, access);

    let mut dests = Vec::with_capacity(spec.dests.len());
    let mut ground_truth = Vec::with_capacity(spec.dests.len());
    for (i, d) in spec.dests.iter().enumerate() {
        let addr = Ipv4Addr::new(10, 9, 2, 1 + i as u8);
        let node = t.host(&format!("dest{i}"), addr);
        t.link(racc, node, LinkParams::new(d.latency_ms, d.mbps));
        dests.push((node, addr));
        // Endpoint→dest bottleneck: the slower of uplink and dest link
        // (0 = infinite on either).
        let truth = match (spec.up_mbps, d.mbps) {
            (0, 0) => 0,
            (0, m) | (m, 0) => m,
            (a, b) => a.min(b),
        };
        ground_truth.push(truth * 1_000_000);
    }

    let mut sim = t.build();
    if spec.burst_loss {
        sim.schedule_fault(
            0,
            FaultAction::SetBurstLoss {
                link: access_link,
                model: Some(GilbertElliott::bursty()),
            },
        );
    }
    BwWorld {
        sim,
        controller,
        endpoint,
        controller_addr,
        endpoint_addr,
        dests,
        ground_truth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_addresses_are_unique() {
        let w = build_roster(&RosterSpec {
            pairs: 130,
            shards: 2,
            threads: 1,
            seed: 7,
            access_mbps: 0,
        });
        let mut addrs: Vec<Ipv4Addr> = w
            .pairs
            .iter()
            .flat_map(|p| [p.controller_addr, p.endpoint_addr])
            .collect();
        addrs.sort();
        addrs.dedup();
        assert_eq!(addrs.len(), 260);
        assert_eq!(w.pods, 3);
    }

    #[test]
    fn roster_pairs_can_reach_each_other() {
        let mut w = build_roster(&RosterSpec {
            pairs: 65,
            shards: 4,
            threads: 1,
            seed: 7,
            access_mbps: 0,
        });
        // Last pair spans pod 1 on both sides: ping endpoint from
        // controller through core and assert the echo comes back.
        let pr = w.pairs[64];
        let sock = w.sim.raw_open(pr.controller);
        let probe = plab_packet::builder::icmp_echo_request(
            pr.controller_addr,
            pr.endpoint_addr,
            32,
            7,
            1,
            &[],
        );
        w.sim.raw_send(pr.controller, probe);
        w.sim.run_until(crate::time::SECOND);
        let got = w.sim.raw_recv(pr.controller, sock);
        assert!(!got.is_empty(), "echo reply crosses pods");
    }

    #[test]
    fn bw_corpus_is_twenty_distinct_topologies() {
        let corpus = bw_corpus();
        assert_eq!(corpus.len(), 20);
        let mut names: Vec<&str> = corpus.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 20, "corpus names must be unique");
        for spec in &corpus {
            // Every entry respects the u16-window TCP ceiling with ≥2x
            // margin: bottleneck·1.2 < 65535·8/RTT.
            for d in spec.dests {
                let truth = spec
                    .up_mbps
                    .min(if d.mbps == 0 { u64::MAX } else { d.mbps });
                let rtt_ms = 2 * (spec.access_latency_ms + d.latency_ms);
                let ceiling_mbps = 65_535 * 8 / rtt_ms / 1000;
                assert!(
                    2 * truth <= ceiling_mbps,
                    "{}: truth {truth} Mbps too close to window ceiling {ceiling_mbps} Mbps",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn bw_world_endpoint_reaches_dests_and_truth_is_min() {
        let corpus = bw_corpus();
        let spec = corpus.iter().find(|s| s.name == "multi_dest_trio").unwrap();
        let mut w = build_bw_world(spec);
        assert_eq!(w.ground_truth, vec![12_000_000, 8_000_000, 12_000_000]);
        // UDP from the endpoint reaches every dest.
        for (i, (node, addr)) in w.dests.clone().into_iter().enumerate() {
            assert!(w.sim.udp_bind(node, 7000));
            w.sim
                .udp_send(w.endpoint, 20_000, addr, 7000, &[i as u8; 64]);
        }
        w.sim.run_until(crate::time::SECOND);
        for (node, _) in &w.dests {
            assert_eq!(w.sim.udp_recv(*node, 7000).len(), 1);
        }
    }
}
