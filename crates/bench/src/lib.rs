//! Shared scaffolding for the reproduction harness.
//!
//! Every table/figure/experiment in the paper is a command of the one
//! `repro` binary that regenerates its rows, the implementation's own
//! wall-clock cost beside them (bodies in `src/bin/repro/`, the table and
//! option parser in [`guard`]; outputs are committed under `results/` and
//! as `BENCH_*.json`, records that no guard reads). This module holds the
//! world-building helpers they share.

use packetlab::cert::Restrictions;
use packetlab::controller::{ControlPlane, Controller, Credentials, SinkHost};
use packetlab::descriptor::ExperimentDescriptor;
use packetlab::endpoint::EndpointConfig;
use packetlab::harness::{SimChannel, SimNet};
use packetlab::monitor::MonitorSet;
use plab_crypto::{KeyHash, Keypair};
use plab_netsim::{LinkParams, NodeId, TopologyBuilder};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// A standard single-endpoint world:
///
/// ```text
/// controller ──(control_latency)── racc ──(access: 5ms, uplink_mbps)── endpoint
///                                   └── r1 ── r2 ── … ──(5ms each)── target
/// ```
pub struct World {
    /// The harness.
    pub net: Rc<RefCell<SimNet>>,
    /// Controller host.
    pub controller: NodeId,
    /// Endpoint address.
    pub endpoint_addr: Ipv4Addr,
    /// Target address.
    pub target_addr: Ipv4Addr,
    /// Router addresses on the endpoint→target path (racc first).
    pub path: Vec<Ipv4Addr>,
    /// Operator key (for issuing further credentials).
    pub operator: Keypair,
}

/// Build a [`World`]. `path_routers` is the number of routers between the
/// endpoint and the target (≥ 1; the access router is the first hop).
pub fn build_world(control_latency_ms: u64, uplink_mbps: u64, path_routers: usize) -> World {
    assert!(path_routers >= 1);
    let operator = Keypair::from_seed(&[1; 32]);
    let mut t = TopologyBuilder::new();
    let controller = t.host("controller", "10.9.0.1".parse().unwrap());
    let endpoint = t.host("endpoint", "10.0.0.1".parse().unwrap());
    let racc = t.router("racc", "10.0.0.254".parse().unwrap());
    t.link(endpoint, racc, LinkParams::new(5, uplink_mbps));
    t.link(racc, controller, LinkParams::new(control_latency_ms, 0));

    let mut path = vec!["10.0.0.254".parse().unwrap()];
    let mut prev = racc;
    for i in 1..path_routers {
        let addr: Ipv4Addr = format!("10.0.{i}.254").parse().unwrap();
        let r = t.router(&format!("r{i}"), addr);
        t.link(prev, r, LinkParams::new(5, 0));
        path.push(addr);
        prev = r;
    }
    let target_addr: Ipv4Addr = "10.0.99.1".parse().unwrap();
    let target = t.host("target", target_addr);
    t.link(prev, target, LinkParams::new(5, 0));

    let sim = t.build();
    let mut net = SimNet::new(sim);
    net.add_endpoint(
        endpoint,
        EndpointConfig {
            trusted_keys: vec![KeyHash::of(&operator.public)],
            ..Default::default()
        },
    );
    World {
        net: Rc::new(RefCell::new(net)),
        controller,
        endpoint_addr: "10.0.0.1".parse().unwrap(),
        target_addr,
        path,
        operator,
    }
}

/// Standard credentials against the world's operator.
pub fn credentials(world: &World, restrictions: Restrictions, priority: u8) -> Credentials {
    let experimenter = Keypair::from_seed(&[42; 32]);
    let descriptor = ExperimentDescriptor {
        name: "bench".into(),
        controller_addr: "10.9.0.1:7000".into(),
        info_url: String::new(),
        experimenter: KeyHash::of(&experimenter.public),
    };
    Credentials::issue(
        &world.operator,
        &experimenter,
        descriptor,
        restrictions,
        priority,
    )
}

/// Connect an authenticated controller.
pub fn connect(world: &World) -> Controller<SimChannel> {
    connect_with(world, Restrictions::none(), 10)
}

/// Connect with explicit restrictions/priority.
pub fn connect_with(
    world: &World,
    restrictions: Restrictions,
    priority: u8,
) -> Controller<SimChannel> {
    let creds = credentials(world, restrictions, priority);
    let chan = SimChannel::connect(&world.net, world.controller, world.endpoint_addr);
    Controller::connect(chan, &creds).expect("bench world authenticates")
}

/// The paper's Figure 2 monitor source (dead-store fixed), shared by the
/// Figure 2 bench/bin.
pub const FIGURE2_MONITOR: &str = r#"
in_addr_t ping_dst = 0;

uint32_t send(const union packet * pkt, uint32_t len) {
    if (pkt->ip.ver == 4 && pkt->ip.ihl == 5 &&
        pkt->ip.proto == IPPROTO_ICMP &&
        pkt->ip.src == info->addr.ip &&
        pkt->ip.icmp.type == ICMP_ECHO_REQUEST)
    {
        ping_dst = pkt->ip.dst;
        return len;
    } else
        return 0;
}

uint32_t recv(const union packet * pkt, uint32_t len) {
    if (pkt->ip.ver == 4 && pkt->ip.ihl == 5 &&
        pkt->ip.proto == IPPROTO_ICMP && (
        (pkt->ip.icmp.type == ICMP_ECHO_REPLY &&
         pkt->ip.src == ping_dst) ||
        (pkt->ip.icmp.type == ICMP_TIME_EXCEEDED &&
         pkt->ip.icmp.orig.ip.src == info->addr.ip &&
         pkt->ip.icmp.orig.ip.dst == ping_dst)))
        return len;
    else
        return 0;
}
"#;

/// What the adjudication benches feed [`FIGURE2_MONITOR`]: the encoded
/// monitor, an ICMP echo request from 10.0.0.1 that it allows, and the
/// info block of the endpoint at that address.
pub fn figure2_fixture() -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    let me: Ipv4Addr = "10.0.0.1".parse().unwrap();
    let mut info = vec![0u8; plab_packet::layout::INFO_SIZE];
    plab_packet::layout::resolve_info("addr.ip")
        .unwrap()
        .write_le(&mut info, u32::from(me) as u64);
    let probe =
        plab_packet::builder::icmp_echo_request(me, "10.0.99.1".parse().unwrap(), 5, 1, 1, &[0, 1]);
    let encoded = plab_cpf::compile(FIGURE2_MONITOR)
        .expect("Figure 2 compiles")
        .encode();
    (encoded, probe, info)
}

/// The echo reply [`figure2_fixture`]'s probe draws from its target:
/// [`FIGURE2_MONITOR`]'s `recv` allows it once the probe set `ping_dst`.
pub fn figure2_reply() -> Vec<u8> {
    let (me, target) = ("10.0.0.1".parse().unwrap(), "10.0.99.1".parse().unwrap());
    plab_packet::builder::icmp_echo_reply(target, me, 1, 1, &[0, 1])
}

/// `depth` copies of the encoded monitor on the default (fused) engine.
pub fn figure2_chain(depth: usize, encoded: &[u8], info: &[u8]) -> MonitorSet {
    MonitorSet::instantiate(&vec![encoded.to_vec(); depth], info).expect("monitors instantiate")
}

/// Reactive-response measurement for the §3.5 limitation experiment: a
/// peer (the target host) sends a UDP request to the endpoint; the
/// *controller* — not the endpoint — decides the response and commands it
/// via `nsend`. Returns the peer-observed response time in ns.
///
/// Compare with [`scheduled_send_error`]: the reactive path necessarily
/// includes the controller↔endpoint round trip; the scheduled path does
/// not ("a round trip is only necessary if a sent packet depends on a
/// received packet").
pub fn reactive_response_time(world: &World, ctrl: &mut Controller<SimChannel>) -> u64 {
    const SKT: u32 = 7;
    const EP_PORT: u16 = 7100;
    const PEER_PORT: u16 = 7200;
    ctrl.nopen_udp(SKT, EP_PORT, world.target_addr, PEER_PORT)
        .unwrap();
    // The peer fires its request.
    let sent_at;
    {
        let net = ctrl.channel().net();
        let mut n = net.borrow_mut();
        let target = n.sim.node_by_name("target").unwrap();
        n.sim.udp_bind(target, PEER_PORT);
        sent_at = n.sim.now();
        n.sim
            .udp_send(target, PEER_PORT, world.endpoint_addr, EP_PORT, b"request");
    }
    // Controller polls until the request shows up, then commands the
    // response — the reactive pattern.
    let deadline = ctrl.read_clock().unwrap() + 60_000_000_000;
    loop {
        let poll = ctrl.npoll(deadline).unwrap();
        if !poll.packets.is_empty() {
            break;
        }
    }
    ctrl.nsend(SKT, 0, b"response".to_vec()).unwrap();
    // Wait for the peer to observe it.
    let horizon = ctrl.now() + 60_000_000_000;
    ctrl.channel().wait_until(horizon);
    let response_at = {
        let net = ctrl.channel().net();
        let mut n = net.borrow_mut();
        let target = n.sim.node_by_name("target").unwrap();
        let got = n.sim.udp_recv(target, PEER_PORT);
        got.first().expect("peer got the response").0
    };
    ctrl.nclose(SKT).unwrap();
    response_at - sent_at
}

/// Scheduled-send timing error for the §3.5 comparison: schedule a packet
/// at a precise future endpoint time and report |actual − requested| in
/// ns.
pub fn scheduled_send_error(world: &World, ctrl: &mut Controller<SimChannel>) -> u64 {
    const SKT: u32 = 8;
    ctrl.nopen_raw(SKT).unwrap();
    let src = ctrl.endpoint_addr().unwrap();
    // The lead time must exceed the one-way control delay or the schedule
    // is already in the past when the command arrives — so derive it from
    // the measured control RTT, as a real controller would.
    let sync = ctrl.sync_clock(2).unwrap();
    let lead = 500_000_000u64.max(2 * sync.min_rtt);
    let t0 = ctrl.read_clock().unwrap();
    let when = t0 + lead;
    let probe = plab_packet::builder::icmp_echo_request(src, world.target_addr, 64, 9, 9, &[]);
    let tag = ctrl.nsend(SKT, when, probe).unwrap();
    let horizon = ctrl.now() + 2_000_000_000;
    ctrl.channel().wait_until(horizon);
    let actual = ctrl.read_send_time(tag).unwrap().expect("send happened");
    ctrl.nclose(SKT).unwrap();
    actual.abs_diff(when)
}

pub mod ctrl;
pub mod guard;

/// Scale-sweep world for the netsim hot-path benches
/// (`repro netsim_scale`, `repro guard netsim`).
///
/// The throughput snapshot's 4-router line is deliberately tiny — it
/// measures per-event cost with everything in cache. This module builds
/// the opposite: `n` hosts spread over a chain of routers (16 hosts per
/// router), millisecond-scale heterogeneous link latencies so pending
/// events populate several timer-wheel levels at once, and route tables
/// with one entry per address so lookup cost scales with the topology.
/// Each host schedules a small burst of ICMP echo probes at a
/// deterministic offset inside a 50 ms window toward a partner on the
/// far side of the chain; routers forward, partners reply, TTLs are
/// generous enough that every probe completes.
pub mod netsim_scale {
    use plab_netsim::{LinkParams, NodeId, Sim, TopologyBuilder, MILLISECOND};
    use plab_packet::builder;
    use std::net::Ipv4Addr;

    /// Probes each host schedules.
    pub const PROBES_PER_HOST: usize = 4;

    /// Host `i`'s address (10.a.b.c, avoiding .0/.255 octets).
    fn host_addr(i: usize) -> Ipv4Addr {
        Ipv4Addr::new(10, (i / 200) as u8, (i % 200) as u8 + 1, 1)
    }

    /// Router `r`'s address.
    fn router_addr(r: usize) -> Ipv4Addr {
        Ipv4Addr::new(11, (r / 200) as u8, (r % 200) as u8 + 1, 254)
    }

    /// A built world plus the metadata the pump needs.
    pub struct ScaleWorld {
        /// The simulator.
        pub sim: Sim,
        /// All host nodes, in index order.
        pub hosts: Vec<NodeId>,
        /// Raw-socket handle per host (delivered probes and replies are
        /// cloned into these inboxes — the zero-copy borrow path).
        pub socks: Vec<u64>,
        /// Host count (`hosts.len()`, for convenience).
        pub n: usize,
    }

    /// Build the `n`-host world. `n` must be a multiple of 16.
    pub fn build(n: usize) -> ScaleWorld {
        assert!(
            n >= 16 && n.is_multiple_of(16),
            "host count must be a multiple of 16"
        );
        let routers = n / 16;
        let mut t = TopologyBuilder::new();
        let router_ids: Vec<NodeId> = (0..routers)
            .map(|r| t.router(&format!("r{r}"), router_addr(r)))
            .collect();
        // Backbone: a chain with 2 ms hops (infinite bandwidth).
        for w in router_ids.windows(2) {
            t.link(w[0], w[1], LinkParams::new(2, 0));
        }
        let hosts: Vec<NodeId> = (0..n)
            .map(|i| {
                let h = t.host(&format!("h{i}"), host_addr(i));
                // Access latency varies 1–5 ms so arrivals spread across
                // wheel slots instead of landing in lockstep.
                t.link(
                    h,
                    router_ids[i / 16],
                    LinkParams::new(1 + (i as u64 % 5), 0),
                );
                h
            })
            .collect();
        let mut sim = t.build();
        let socks = hosts.iter().map(|&h| sim.raw_open(h)).collect();
        ScaleWorld {
            sim,
            hosts,
            socks,
            n,
        }
    }

    /// Schedule every host's probe burst. Each host `i` probes its
    /// partner across the chain at deterministic offsets inside a 50 ms
    /// window; offsets use fixed primes so the schedule is identical on
    /// every run.
    pub fn inject(world: &mut ScaleWorld) {
        let n = world.n;
        for i in 0..n {
            let src = host_addr(i);
            let dst = host_addr((i + n / 2) % n);
            for j in 0..PROBES_PER_HOST {
                let at = ((i * 7919 + j * 104_729) % 50) as u64 * MILLISECOND;
                let pkt =
                    builder::icmp_echo_request(src, dst, 64, i as u16, j as u16, &[0xab, 0xcd]);
                world
                    .sim
                    .schedule_send(world.hosts[i], at, pkt, (i * 10 + j) as u64);
            }
        }
    }

    /// Run the world to quiescence, returning the event count. Inboxes
    /// are drained afterwards so every delivered frame reaches
    /// end-of-life (keeping the pool's `taken == recycled` teardown
    /// invariant checkable while the simulator is still alive).
    pub fn pump(world: &mut ScaleWorld) -> u64 {
        let mut events = 0u64;
        while world.sim.step() {
            events += 1;
        }
        let mut delivered = 0usize;
        for (i, &h) in world.hosts.iter().enumerate() {
            delivered += world.sim.raw_recv(h, world.socks[i]).len();
        }
        assert!(delivered > 0, "no probe deliveries observed");
        events
    }

    /// One full round: build, inject, pump. Returns the event count,
    /// the wall seconds spent *scheduling and processing events* (world
    /// construction is excluded — route-table building is not event
    /// throughput), and the simulator for pool statistics.
    pub fn round(n: usize) -> (u64, f64, Sim) {
        let mut w = build(n);
        let start = std::time::Instant::now();
        inject(&mut w);
        let events = pump(&mut w);
        (events, start.elapsed().as_secs_f64(), w.sim)
    }

    // ------------------------------------------------------------------
    // Sharded pod worlds (10k–100k hosts)
    // ------------------------------------------------------------------

    use plab_netsim::{ShardedSim, SECOND};

    /// Hosts per pod in the sharded scale world. Small enough that a
    /// pod's working set stays cache-resident, large enough that the
    /// per-window barrier amortizes over thousands of events.
    pub const POD_HOSTS: usize = 64;

    /// Every 16th host probes a partner in the next pod — cross-pod (and
    /// at `shards > 1`, usually cross-shard) traffic through the core.
    pub const CROSS_POD_STRIDE: usize = 16;

    /// A sharded pod world: one core router, `n / POD_HOSTS` pod
    /// routers, `POD_HOSTS` hosts each, manually routed (BFS over 100k
    /// nodes would dominate construction).
    ///
    /// ```text
    ///            core
    ///          /  |   \            2 ms pod uplinks (the lookahead window)
    ///       pod0 pod1 ... podP     1–5 ms host access links
    ///       /|\  /|\      /|\
    ///      hosts hosts   hosts
    /// ```
    ///
    /// Pods (router + hosts) are assigned to shards round-robin; the
    /// core lives on shard 0. The minimum cross-shard latency is the
    /// 2 ms uplink, so shards advance in 2 ms windows.
    pub struct PodWorld {
        /// The sharded simulator.
        pub sim: ShardedSim,
        /// All host nodes, pod-major order.
        pub hosts: Vec<NodeId>,
        /// Raw-socket handle per host.
        pub socks: Vec<u64>,
        /// Host count.
        pub n: usize,
        /// Pod count.
        pub pods: usize,
    }

    /// Host `i`'s address in the pod world (distinct 10.128+ space so
    /// the chain world's helpers cannot be confused with it).
    fn pod_host_addr(i: usize) -> Ipv4Addr {
        Ipv4Addr::new(
            10,
            128 + (i / 40_000) as u8,
            ((i / 200) % 200) as u8,
            (i % 200) as u8 + 1,
        )
    }

    /// Build the `n`-host pod world over `shards` shards. `n` must be a
    /// multiple of [`POD_HOSTS`].
    pub fn build_pods(n: usize, shards: usize, threads: usize) -> PodWorld {
        assert!(
            n >= POD_HOSTS && n.is_multiple_of(POD_HOSTS),
            "host count must be a multiple of {POD_HOSTS}"
        );
        let pods = n / POD_HOSTS;
        let mut t = TopologyBuilder::new();
        t.manual_routes();
        let core = t.router("core", Ipv4Addr::new(11, 255, 255, 254));
        let pod_ids: Vec<NodeId> = (0..pods)
            .map(|p| {
                t.router(
                    &format!("p{p}"),
                    Ipv4Addr::new(11, (p / 200) as u8, (p % 200) as u8, 254),
                )
            })
            .collect();
        // Pod uplinks first: core's iface p reaches pod p, and each pod
        // router's iface 0 is its uplink.
        for &p in &pod_ids {
            t.link(core, p, LinkParams::new(2, 0));
        }
        let hosts: Vec<NodeId> = (0..n)
            .map(|i| {
                let h = t.host(&format!("h{i}"), pod_host_addr(i));
                // 1–5 ms access latency spreads arrivals across wheel
                // slots; host j of its pod lands on the pod's iface 1+j.
                t.link(
                    h,
                    pod_ids[i / POD_HOSTS],
                    LinkParams::new(1 + (i as u64 % 5), 0),
                );
                h
            })
            .collect();
        // Pods round-robin over shards, each pod's hosts with it; the
        // core on shard 0. Cross-shard traffic only rides 2 ms uplinks.
        let mut shard_of = vec![0usize; 1 + pods + n];
        for p in 0..pods {
            shard_of[1 + p] = p % shards.max(1);
        }
        for i in 0..n {
            shard_of[1 + pods + i] = (i / POD_HOSTS) % shards.max(1);
        }
        let mut sim = t.build_sharded(&shard_of, threads);
        // Manual routes. Hosts already default to their access link.
        // Core: every host routes down the owning pod's uplink (iface p).
        for (i, _) in hosts.iter().enumerate() {
            sim.install_route(core, pod_host_addr(i), i / POD_HOSTS);
        }
        for (p, &pod) in pod_ids.iter().enumerate() {
            // Pod router: iface 0 is the uplink (default); host j of the
            // pod hangs off iface 1 + j.
            sim.set_default_route(pod, 0);
            for j in 0..POD_HOSTS {
                sim.install_route(pod, pod_host_addr(p * POD_HOSTS + j), 1 + j);
            }
        }
        let socks = hosts.iter().map(|&h| sim.raw_open(h)).collect();
        PodWorld {
            sim,
            hosts,
            socks,
            n,
            pods,
        }
    }

    /// What building a pod world costs.
    pub struct BuildCost {
        /// Wall seconds inside [`build_pods`].
        pub secs: f64,
        /// Resident memory the build added, kB (0 without procfs).
        pub rss_kb: u64,
    }

    const BUILD_COST_ARG: &str = "--build-cost";

    fn vm_rss_kb() -> u64 {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let field = status.lines().find_map(|l| l.strip_prefix("VmRSS:"));
        field
            .and_then(|f| f.split_whitespace().next()?.parse().ok())
            .unwrap_or(0)
    }

    /// Build cost of the `n`-host pod world on `shards` shards, measured
    /// in a fresh process — the resident set of one that has built and
    /// dropped other worlds says little about this one. The child is the
    /// calling binary itself, whose `main` must open with
    /// [`serve_build_cost`].
    pub fn build_cost(n: usize, shards: usize) -> BuildCost {
        let exe = std::env::current_exe().expect("own path");
        let out = std::process::Command::new(exe)
            .args([BUILD_COST_ARG, &n.to_string(), &shards.to_string()])
            .output()
            .expect("spawn build-cost child");
        assert!(out.status.success(), "build-cost child failed: {out:?}");
        let text = String::from_utf8_lossy(&out.stdout);
        let mut fields = text.split_whitespace();
        let mut next = || fields.next().expect("child prints secs and kB");
        BuildCost {
            secs: next().parse().expect("seconds"),
            rss_kb: next().parse().expect("kB"),
        }
    }

    /// The child half of [`build_cost`]: when the process was started
    /// for it, build the world, print the cost and exit; otherwise
    /// (and when the two counts are not there) return at once.
    pub fn serve_build_cost() {
        let args: Vec<String> = std::env::args().collect();
        let size = |i: usize| args.get(i).and_then(|a| a.parse().ok());
        let (Some(BUILD_COST_ARG), Some(n), Some(shards)) =
            (args.get(1).map(String::as_str), size(2), size(3))
        else {
            return;
        };
        let before = vm_rss_kb();
        let start = std::time::Instant::now();
        let world = build_pods(n, shards, 1);
        let secs = start.elapsed().as_secs_f64();
        println!("{secs} {}", vm_rss_kb().saturating_sub(before));
        drop(world);
        std::process::exit(0);
    }

    /// Schedule every host's probe burst: intra-pod ping-pong partners,
    /// with every [`CROSS_POD_STRIDE`]-th host instead probing into the
    /// next pod (through the core, across shards).
    pub fn inject_pods(world: &mut PodWorld) {
        let n = world.n;
        for i in 0..n {
            let src = pod_host_addr(i);
            let dst_idx = if i.is_multiple_of(CROSS_POD_STRIDE) {
                (i + POD_HOSTS) % n
            } else {
                let pod = i / POD_HOSTS;
                pod * POD_HOSTS + (i + 1) % POD_HOSTS
            };
            let dst = pod_host_addr(dst_idx);
            for j in 0..PROBES_PER_HOST {
                let at = ((i * 7919 + j * 104_729) % 50) as u64 * MILLISECOND;
                let pkt =
                    builder::icmp_echo_request(src, dst, 64, i as u16, j as u16, &[0xab, 0xcd]);
                world
                    .sim
                    .schedule_send(world.hosts[i], at, pkt, (i * 10 + j) as u64);
            }
        }
    }

    /// Drive the pod world with windowed advances until idle, then drain
    /// inboxes (pool-invariant hygiene, as in [`pump`]). Returns events
    /// processed.
    pub fn pump_pods(world: &mut PodWorld) -> u64 {
        let before = world.sim.events_processed();
        // All probes launch within 50 ms and the widest path is ~18 ms
        // round trip; one virtual second covers every retransmit-free
        // timeline, and the idle check proves nothing is left.
        world.sim.run_until(SECOND);
        assert!(
            world.sim.next_event_time().is_none(),
            "pod world still busy"
        );
        let mut delivered = 0usize;
        for (i, &h) in world.hosts.iter().enumerate() {
            delivered += world.sim.raw_recv(h, world.socks[i]).len();
        }
        assert!(delivered > 0, "no probe deliveries observed");
        world.sim.events_processed() - before
    }

    /// One sharded round: build, inject, pump. Returns the event count,
    /// wall seconds over inject+pump (construction and manual routing
    /// excluded), and the world for pool/handoff statistics.
    pub fn round_pods(n: usize, shards: usize, threads: usize) -> (u64, f64, PodWorld) {
        let mut w = build_pods(n, shards, threads);
        let start = std::time::Instant::now();
        inject_pods(&mut w);
        let events = pump_pods(&mut w);
        let secs = start.elapsed().as_secs_f64();
        (events, secs, w)
    }

    #[cfg(test)]
    mod tests {
        /// `Sim::step` reads the frames of events it has not popped yet
        /// (`warm_ahead`). It must hold none of them past the call and
        /// change nothing: once a round's inboxes are drained every
        /// shard's pool has back what it gave out, and the round is the
        /// same 22,272 events on one thread and on two.
        #[test]
        fn a_pod_round_balances_every_pool_and_is_the_pinned_events() {
            const EVENTS: u64 = 22_272;
            for threads in [1, 2] {
                let (events, _, world) = super::round_pods(1024, 4, threads);
                for (shard, pool) in world.sim.pool_handles().iter().enumerate() {
                    assert!(pool.taken() > 0, "shard {shard} moved no packet");
                    assert_eq!(
                        pool.taken(),
                        pool.recycled(),
                        "shard {shard} is owed frames"
                    );
                }
                assert_eq!(events, EVENTS, "on {threads} threads");
            }
        }
    }
}

/// Shared construction for the fleet-orchestration bench and its CI guard
/// (`repro fleet`, `repro guard fleet`). Both must build *bit-identical*
/// worlds — the guard pins the report digests `BENCH_fleet.json` records
/// — so every knob that feeds the digest (roster seed, keypairs,
/// experiment spec, scheduler config, fault plan) lives here once.
pub mod fleet {
    use plab_crypto::Keypair;
    use plab_netsim::roster::RosterSpec;
    use plab_netsim::SECOND;
    use plab_runner::{
        build_fleet, run_fleet, schedule_fleet_faults, ExperimentSpec, FleetFaultPlan, FleetRun,
        RateLimit, SchedulerConfig,
    };

    /// Roster size the guard counts and pins (a `repro fleet` sweep
    /// point, so the record always carries the matching row).
    pub const GUARD_PAIRS: usize = 512;

    /// Shard count for every fleet point. The report is thread-count
    /// invariant (tested), but shard *assignment* shapes the world, so it
    /// is fixed here rather than taken from the machine.
    pub const SHARDS: usize = 4;

    /// Roster topology seed (link jitter etc.).
    pub const SEED: u64 = 4242;

    /// Worker threads for the sharded advance: the shard count, capped by
    /// the machine. Wall time varies with this; the report does not.
    pub fn threads() -> usize {
        SHARDS.min(
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
        )
    }

    /// The experiment fanned over the fleet: the §4 ping built on the
    /// paper's Figure-2 monitor, so every endpoint exercises the full
    /// chain — cert handshake, Cpf monitor install, measurement program.
    pub fn spec() -> ExperimentSpec {
        ExperimentSpec {
            monitor: Some(crate::FIGURE2_MONITOR.into()),
            ..ExperimentSpec::ping("fleet-bench")
        }
    }

    /// Scheduler config: real launch rate limit + default retry policy.
    pub fn config() -> SchedulerConfig {
        SchedulerConfig {
            max_concurrency: 256,
            launch: RateLimit::per_sec(500, 32),
            fleet_deadline_ns: Some(600 * SECOND),
            ..Default::default()
        }
    }

    /// Fault plan for the chaos point: onsets spread over seconds 1–5,
    /// overlapping the launch schedule (`pairs / 500` seconds) so crashes
    /// and burst loss actually bite live tasks.
    pub fn fault_plan() -> FleetFaultPlan {
        FleetFaultPlan {
            start_ns: SECOND,
            spread_ns: 4 * SECOND,
            downtime_ns: 2 * SECOND,
            ..Default::default()
        }
    }

    /// One full fleet point: build the roster world, optionally schedule
    /// the fault plan, run the experiment over every endpoint. Returns
    /// the run and the wall seconds spent *running* (construction is
    /// excluded — route tables are not orchestration throughput).
    pub fn point(pairs: usize, threads: usize, chaos: bool) -> (FleetRun, f64) {
        let operator = Keypair::from_seed(&[31; 32]);
        let experimenter = Keypair::from_seed(&[32; 32]);
        let roster = RosterSpec {
            pairs,
            shards: SHARDS,
            threads,
            seed: SEED,
            access_mbps: 0,
        };
        let mut world = build_fleet(&roster, &operator);
        if chaos {
            schedule_fleet_faults(&mut world, &fault_plan());
        }
        let spec = spec();
        let start = std::time::Instant::now();
        let run =
            run_fleet(world, &spec, &operator, &experimenter, &config()).expect("bench spec valid");
        (run, start.elapsed().as_secs_f64())
    }

    /// Sum of retry-visible counters across a run's tasks.
    pub fn retries(run: &FleetRun) -> u64 {
        run.results
            .iter()
            .map(|t| t.stats.failed_dials as u64 + t.stats.timeouts as u64 + t.stats.replays as u64)
            .sum()
    }
}

/// Shared construction for the bandwidth-estimation bench and its CI
/// guard (`repro bwest`, `repro guard bwest`). Both must build
/// bit-identical worlds — the guard pins artifact digests — so every
/// knob (corpus, keypair seeds, socket layout, pass bar) lives here
/// once.
pub mod bwest {
    use packetlab::cert::Restrictions;
    use packetlab::controller::experiments::bwest::{
        estimate_path_bandwidth, BwestReport, TCP_SINK_PORT, UDP_ECHO_PORT,
    };
    use packetlab::controller::robust::{RetryPolicy, RobustController};
    use packetlab::controller::Credentials;
    use packetlab::descriptor::ExperimentDescriptor;
    use packetlab::endpoint::EndpointConfig;
    use packetlab::harness::{SimDialer, SimNet};
    use plab_crypto::{KeyHash, Keypair};
    use plab_netsim::roster::{build_bw_world, bw_corpus, BwTopoSpec};
    use plab_obs::export::{prometheus_text, qlog_seq};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Accuracy budget: a topology is within when every destination's
    /// estimate is this close to the configured bottleneck, percent.
    pub const TOLERANCE_PCT: f64 = 20.0;

    /// Pass bar: how many of the 20 corpus topologies must be within.
    pub const MIN_WITHIN: usize = 18;

    /// One corpus point: the estimator's report next to the configured
    /// truth.
    pub struct BwestPoint {
        /// Corpus entry name.
        pub name: &'static str,
        /// Configured endpoint→dest bottlenecks, bits/s, in dest order.
        pub truth: Vec<u64>,
        /// The suite's estimates.
        pub report: BwestReport,
        /// Simulator events the point took, hang-up included.
        pub events: u64,
    }

    impl BwestPoint {
        /// Signed relative error of destination `i`, percent.
        pub fn error_pct(&self, i: usize) -> f64 {
            let est = self.report.dests[i].bits_per_sec as f64;
            let truth = self.truth[i] as f64;
            (est - truth) * 100.0 / truth
        }

        /// Worst absolute relative error across destinations, percent.
        pub fn worst_error_pct(&self) -> f64 {
            (0..self.truth.len())
                .map(|i| self.error_pct(i).abs())
                .fold(0.0, f64::max)
        }
    }

    /// Build one corpus world — endpoint agent behind the access link,
    /// TCP byte sink + UDP echo on every destination — and run the full
    /// suite over a [`RobustController`].
    pub fn point(spec: &BwTopoSpec) -> BwestPoint {
        let operator = Keypair::from_seed(&[71; 32]);
        let w = build_bw_world(spec);
        let mut net = SimNet::new(w.sim);
        net.add_endpoint(
            w.endpoint,
            EndpointConfig {
                trusted_keys: vec![KeyHash::of(&operator.public)],
                // Burst-loss corpus entries can kill the control channel
                // mid-probe; a lingering session lets the reconnect resume
                // with its sockets (and sockstat region) intact. Sized in
                // virtual minutes: redialing through Gilbert–Elliott bursts
                // can lose several SYNs back to back, and an expiry midway
                // tears down every probe socket.
                session_linger_ns: 300 * plab_netsim::SECOND,
                ..Default::default()
            },
        );
        for &(node, _) in &w.dests {
            net.add_tcp_sink(node, TCP_SINK_PORT);
            net.add_udp_echo(node, UDP_ECHO_PORT);
        }
        let net = Rc::new(RefCell::new(net));
        let experimenter = Keypair::from_seed(&[72; 32]);
        let descriptor = ExperimentDescriptor {
            name: format!("bwest-{}", spec.name),
            controller_addr: format!("{}:7000", w.controller_addr),
            info_url: String::new(),
            experimenter: KeyHash::of(&experimenter.public),
        };
        let creds = Credentials::issue(
            &operator,
            &experimenter,
            descriptor,
            Restrictions::none(),
            10,
        );
        let dialer = SimDialer::new(&net, w.controller, w.endpoint_addr);
        // Burst-loss entries can stall the control channel through several
        // doubling RTOs (200 ms → 12.8 s cumulative); a patient per-request
        // timeout rides the burst out instead of redialing into a fresh
        // handshake over the same lossy link, and the unreachable budget
        // is sized for virtual time — the probe should keep retrying as
        // long as the session linger window can still save it.
        let policy = RetryPolicy {
            request_timeout: 15_000_000_000,
            unreachable_budget: 600_000_000_000,
            ..Default::default()
        };
        let mut ctrl =
            RobustController::connect(dialer, creds, policy).expect("bwest world authenticates");
        let dests: Vec<_> = w.dests.iter().map(|&(_, addr)| addr).collect();
        let report = estimate_path_bandwidth(&mut ctrl, &dests).expect("bwest suite completes");
        drop(ctrl);
        let events = net.borrow().sim.events_processed();
        BwestPoint {
            name: spec.name,
            truth: w.ground_truth,
            report,
            events,
        }
    }

    /// `harness.passes` over the points' events, after [`run_corpus`].
    pub fn passes_per_event(points: &[BwestPoint]) -> f64 {
        let events: u64 = points.iter().map(|p| p.events).sum();
        plab_obs::metrics::counter("harness.passes") as f64 / events as f64
    }

    /// Run the full corpus once under a fresh flight recorder; return the
    /// points plus the rendered artifacts: the qlog-style JSON-SEQ trace
    /// and the Prometheus text exposition.
    pub fn run_corpus() -> (Vec<BwestPoint>, String, String) {
        plab_obs::enable();
        plab_obs::reset();
        let points = bw_corpus().iter().map(point).collect();
        let qlog = qlog_seq(&plab_obs::snapshot());
        let prom = prometheus_text();
        plab_obs::disable();
        (points, qlog, prom)
    }
}

/// Shared JSON plumbing for the `repro` commands' `BENCH_*.json` records
/// and `guard --json`: the finite-float formatter, trailing-comma row
/// joining, the machine header and the record write live here once.
pub mod reportjson {
    /// A float for a JSON report: one decimal when finite, `null`
    /// otherwise (JSON has no NaN/inf).
    pub fn json_f(v: f64) -> String {
        if v.is_finite() {
            format!("{v:.1}")
        } else {
            "null".to_string()
        }
    }

    /// Join pre-rendered JSON values into an array body: each row on its
    /// own line at `indent`, comma-separated (the trailing-comma dance
    /// every report previously hand-rolled).
    pub fn json_rows(rows: &[String], indent: &str) -> String {
        rows.iter()
            .map(|r| format!("{indent}{r}"))
            .collect::<Vec<_>>()
            .join(",\n")
    }

    /// Cores this process may run on (0 when the platform will not say).
    pub fn cores() -> usize {
        std::thread::available_parallelism().map_or(0, |n| n.get())
    }

    /// The members every `BENCH_*.json` should open with, so a number is
    /// never read without the machine and build that produced it:
    /// `"cores": N, "profile": "release", "commit": "abc1234"` (`-dirty`
    /// when the tree has uncommitted changes, `unknown` outside git).
    fn machine_members() -> String {
        let cores = cores();
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        let commit = std::process::Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or("unknown".to_string(), |s| s.trim().to_string());
        format!("\"cores\": {cores}, \"profile\": \"{profile}\", \"commit\": \"{commit}\"")
    }

    /// Write a finished `BENCH_*` record, opened with its name and the
    /// machine members, and say on stdout where it went. `members` is the
    /// rest of the object, from its first member's indent to the closing
    /// brace.
    pub fn emit_report(bench: &str, path: &str, members: &str) {
        let report = format!(
            "{{\n  \"bench\": \"{bench}\",\n  {},\n{members}",
            machine_members()
        );
        std::fs::write(path, &report).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }
}
