//! Differential property test: the sharded simulator against the
//! sequential engine.
//!
//! Random worlds — topology, UDP traffic, a TCP stream, timers, and a
//! fault schedule, all derived from one seed — run under the sequential
//! [`plab_netsim::Sim`] and under [`plab_netsim::ShardedSim`] at shard
//! counts {1, 2, 4, 8} (plus a threaded 4-shard run). Every engine must
//! produce identical observables: per-host datagram deliveries (arrival
//! time, source, payload bytes), the TCP server's accepted byte stream,
//! connection state, and per-node fired-timer sequences.
//!
//! The workloads are deliberately *RNG-free*: link loss is zero and
//! jitter is zero, so the simulator's seeded RNG is never consulted on
//! the datapath. That is what makes exact cross-engine equality the
//! right assertion — with loss or jitter enabled, per-shard RNG streams
//! legitimately produce different (still deterministic, separately
//! pinned) timelines, which the chaos shard pins cover instead.
//! Same-time arrival *order* at one socket is the one observable that
//! may differ across shard counts (global event seq numbers are engine-
//! specific), so each delivery list is sorted by its full record before
//! comparison.

use plab_netsim::{
    FaultAction, LinkParams, NodeId, ShardedSim, Sim, TopologyBuilder, MILLISECOND, SECOND,
};
use proptest::prelude::*;
use std::net::Ipv4Addr;

const UDP_PORT: u16 = 9000;
const TCP_PORT: u16 = 80;
const END: u64 = 5 * SECOND;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One scheduled driver action.
#[derive(Debug, Clone)]
enum Action {
    Udp {
        src: usize,
        dst: usize,
        payload: Vec<u8>,
    },
    TcpChunk {
        bytes: Vec<u8>,
    },
}

/// A complete world specification, derived from one seed.
#[derive(Debug, Clone)]
struct Spec {
    routers: usize,
    hosts: usize,
    /// (a, b, latency_ms, mbps) — host i attaches to router `host_router[i]`.
    router_links_ms: Vec<u64>,
    host_links: Vec<(usize, u64, u64)>,
    /// (time, action), time-sorted.
    actions: Vec<(u64, Action)>,
    /// (time, node, key).
    timers: Vec<(u64, usize, u64)>,
    /// (time, fault) — times odd so they never tie with ms-aligned traffic.
    faults: Vec<(u64, Fault)>,
    tcp: bool,
}

/// Fault plan entries, link/node resolved at build time.
#[derive(Debug, Clone)]
enum Fault {
    Flap { host: usize, down_ms: u64 },
    Delay { host: usize, latency_ms: u64 },
    TcpReset { node: usize },
    CrashRestart { host: usize, down_ms: u64 },
}

fn derive_spec(seed: u64) -> Spec {
    let mut s = seed;
    let routers = 1 + (splitmix64(&mut s) % 3) as usize;
    let hosts = 2 + (splitmix64(&mut s) % 6) as usize;
    let router_links_ms: Vec<u64> = (1..routers).map(|_| 1 + splitmix64(&mut s) % 10).collect();
    let host_links: Vec<(usize, u64, u64)> = (0..hosts)
        .map(|_| {
            let r = (splitmix64(&mut s) % routers as u64) as usize;
            let lat = 1 + splitmix64(&mut s) % 10;
            let mbps = [0u64, 10, 100][(splitmix64(&mut s) % 3) as usize];
            (r, lat, mbps)
        })
        .collect();

    let n_sends = 5 + (splitmix64(&mut s) % 20) as usize;
    let mut actions: Vec<(u64, Action)> = (0..n_sends)
        .map(|i| {
            let t = (1 + splitmix64(&mut s) % 1500) * MILLISECOND;
            let src = (splitmix64(&mut s) % hosts as u64) as usize;
            let mut dst = (splitmix64(&mut s) % hosts as u64) as usize;
            if dst == src {
                dst = (dst + 1) % hosts;
            }
            let len = 1 + (splitmix64(&mut s) % 700) as usize;
            (
                t,
                Action::Udp {
                    src,
                    dst,
                    payload: vec![i as u8; len],
                },
            )
        })
        .collect();
    let tcp = hosts >= 2 && !splitmix64(&mut s).is_multiple_of(4);
    if tcp {
        for i in 0..3u64 {
            let t = (50 + splitmix64(&mut s) % 1000) * MILLISECOND;
            actions.push((
                t,
                Action::TcpChunk {
                    bytes: vec![0xc0 + i as u8; 200],
                },
            ));
        }
    }
    actions.sort_by_key(|(t, _)| *t);

    let timers: Vec<(u64, usize, u64)> = (0..splitmix64(&mut s) % 8)
        .map(|k| {
            let t = (splitmix64(&mut s) % (2 * SECOND)) | 1;
            let node = (splitmix64(&mut s) % (routers + hosts) as u64) as usize;
            (t, node, 100 + k)
        })
        .collect();

    let faults: Vec<(u64, Fault)> = (0..splitmix64(&mut s) % 4)
        .map(|_| {
            let t = (100 * MILLISECOND + splitmix64(&mut s) % SECOND) | 1;
            let host = (splitmix64(&mut s) % hosts as u64) as usize;
            let f = match splitmix64(&mut s) % 4 {
                0 => Fault::Flap {
                    host,
                    down_ms: 50 + splitmix64(&mut s) % 400,
                },
                1 => Fault::Delay {
                    host,
                    latency_ms: 1 + splitmix64(&mut s) % 20,
                },
                2 => Fault::TcpReset { node: host },
                _ => Fault::CrashRestart {
                    host,
                    down_ms: 100 + splitmix64(&mut s) % 500,
                },
            };
            (t, f)
        })
        .collect();

    Spec {
        routers,
        hosts,
        router_links_ms,
        host_links,
        actions,
        timers,
        faults,
        tcp,
    }
}

fn host_addr(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, 1, (i / 200) as u8, (i % 200 + 1) as u8)
}

/// Build the spec's topology; returns (builder, router ids, host ids).
fn build_topology(spec: &Spec) -> (TopologyBuilder, Vec<NodeId>, Vec<NodeId>) {
    let mut t = TopologyBuilder::new();
    t.seed(0x5eed);
    let routers: Vec<NodeId> = (0..spec.routers)
        .map(|i| t.router(&format!("r{i}"), Ipv4Addr::new(10, 0, i as u8, 254)))
        .collect();
    for (i, &lat) in spec.router_links_ms.iter().enumerate() {
        t.link(routers[i], routers[i + 1], LinkParams::new(lat, 0));
    }
    let hosts: Vec<NodeId> = spec
        .host_links
        .iter()
        .enumerate()
        .map(|(i, &(r, lat, mbps))| {
            let h = t.host(&format!("h{i}"), host_addr(i));
            t.link(h, routers[r], LinkParams::new(lat, mbps));
            h
        })
        .collect();
    (t, routers, hosts)
}

/// One delivered datagram: (arrival time, source addr, source port, payload).
type Datagram = (u64, Ipv4Addr, u16, Vec<u8>);

/// What every engine must agree on.
#[derive(Debug, Clone, PartialEq)]
struct Obs {
    /// Per host: delivered datagrams, sorted by full record (same-time
    /// arrival order at one socket is engine-specific).
    udp: Vec<Vec<Datagram>>,
    /// (server accepted, bytes received in stream order), if TCP ran.
    tcp: Option<(bool, Vec<u8>)>,
    tcp_client_established: bool,
    /// Per node: fired timer keys in firing order.
    timers: Vec<Vec<u64>>,
    end: u64,
}

/// Drive one engine through the spec. Duck-typed over `Sim` and
/// `ShardedSim` (identical driving APIs).
macro_rules! drive {
    ($sim:expr, $spec:expr, $hosts:expr, $nodes:expr) => {{
        let sim = $sim;
        let spec = $spec;
        let hosts: &Vec<NodeId> = $hosts;
        for &h in hosts.iter() {
            sim.udp_bind(h, UDP_PORT);
        }
        let tcp_conn = if spec.tcp {
            sim.tcp_listen(hosts[1], TCP_PORT);
            Some(sim.tcp_connect(hosts[0], host_addr(1), TCP_PORT))
        } else {
            None
        };
        for &(t, node, key) in &spec.timers {
            sim.schedule_timer($nodes[node], key, t);
        }
        for (t, f) in &spec.faults {
            match f {
                Fault::Flap { host, down_ms } => {
                    let link = *host; // host i's access link is created i-th after router links
                    let link = link + spec.router_links_ms.len();
                    sim.schedule_fault(*t, FaultAction::LinkDown { link });
                    sim.schedule_fault(*t + down_ms * MILLISECOND, FaultAction::LinkUp { link });
                }
                Fault::Delay { host, latency_ms } => {
                    let link = *host + spec.router_links_ms.len();
                    sim.schedule_fault(
                        *t,
                        FaultAction::SetDelay {
                            link,
                            latency: latency_ms * MILLISECOND,
                            jitter: 0,
                        },
                    );
                }
                Fault::TcpReset { node } => {
                    sim.schedule_fault(
                        *t,
                        FaultAction::TcpReset {
                            node: hosts[*node].0,
                        },
                    );
                }
                Fault::CrashRestart { host, down_ms } => {
                    sim.schedule_fault(
                        *t,
                        FaultAction::NodeCrash {
                            node: hosts[*host].0,
                        },
                    );
                    sim.schedule_fault(
                        *t + down_ms * MILLISECOND,
                        FaultAction::NodeRestart {
                            node: hosts[*host].0,
                        },
                    );
                }
            }
        }
        let mut fired: Vec<(NodeId, u64)> = Vec::new();
        for (t, action) in &spec.actions {
            sim.run_until(*t);
            sim.drain_fired_timers(&mut fired);
            match action {
                Action::Udp { src, dst, payload } => {
                    sim.udp_send(hosts[*src], UDP_PORT, host_addr(*dst), UDP_PORT, payload);
                }
                Action::TcpChunk { bytes } => {
                    if let Some(conn) = tcp_conn {
                        sim.tcp_send(hosts[0], conn, bytes);
                    }
                }
            }
        }
        sim.run_until(END);
        sim.drain_fired_timers(&mut fired);

        let mut udp = Vec::new();
        for &h in hosts.iter() {
            let mut got: Vec<(u64, Ipv4Addr, u16, Vec<u8>)> = sim
                .udp_recv(h, UDP_PORT)
                .into_iter()
                .map(|(t, a, p, d)| (t, a, p, d.to_vec()))
                .collect();
            got.sort();
            udp.push(got);
        }
        let tcp = tcp_conn.map(|_| {
            let accepted = sim.tcp_accept(hosts[1], TCP_PORT);
            let mut stream = Vec::new();
            if let Some(conn) = accepted {
                loop {
                    let data = sim.tcp_recv(hosts[1], conn, 65536);
                    if data.is_empty() {
                        break;
                    }
                    stream.extend_from_slice(&data);
                }
            }
            (accepted.is_some(), stream)
        });
        let tcp_client_established = tcp_conn.is_some_and(|c| sim.tcp_established(hosts[0], c));
        let mut timers = vec![Vec::new(); $nodes.len()];
        for (node, key) in fired {
            timers[node.0].push(key);
        }
        Obs {
            udp,
            tcp,
            tcp_client_established,
            timers,
            end: sim.now(),
        }
    }};
}

fn run_sequential(spec: &Spec) -> Obs {
    let (t, routers, hosts) = build_topology(spec);
    let mut sim: Sim = t.build();
    let nodes: Vec<NodeId> = routers.iter().chain(hosts.iter()).copied().collect();
    drive!(&mut sim, spec, &hosts, nodes)
}

fn run_sharded(spec: &Spec, shards: usize, threads: usize) -> Obs {
    let (t, routers, hosts) = build_topology(spec);
    let n = spec.routers + spec.hosts;
    let shard_of: Vec<usize> = (0..n).map(|i| i % shards).collect();
    let mut sim: ShardedSim = t.build_sharded(&shard_of, threads);
    let nodes: Vec<NodeId> = routers.iter().chain(hosts.iter()).copied().collect();
    drive!(&mut sim, spec, &hosts, nodes)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48 })]

    /// Random RNG-free worlds: the sequential engine and every shard
    /// count agree on all observables, and threading the window advance
    /// changes nothing.
    #[test]
    fn sharded_engines_match_sequential(seed in any::<u64>()) {
        let spec = derive_spec(seed);
        let want = run_sequential(&spec);
        for shards in [1usize, 2, 4, 8] {
            let got = run_sharded(&spec, shards, 1);
            prop_assert_eq!(
                &got, &want,
                "{} shards diverged from sequential (seed {:#x})", shards, seed
            );
        }
        let threaded = run_sharded(&spec, 4, 2);
        prop_assert_eq!(&threaded, &want, "threaded advance diverged (seed {:#x})", seed);
    }

    /// Same spec, same shard count, twice — bit-identical (determinism
    /// within one engine, independent of the sequential comparison).
    #[test]
    fn sharded_runs_replay_bit_identically(seed in any::<u64>()) {
        let spec = derive_spec(seed);
        let a = run_sharded(&spec, 4, 1);
        let b = run_sharded(&spec, 4, 2);
        prop_assert_eq!(a, b);
    }
}
