//! `pump_50k`: the simulator alone. One 51,200-host pod world over four
//! shards (`plab_bench::netsim_scale::build_pods`), then inject-and-drain
//! rounds until the budget is spent. `pump_pods` runs to an absolute
//! virtual second and so cannot drive one world twice; the round loop
//! here works from `now`. This is the event pump, the shard windows and
//! memory at scale, with no control plane on top.

use crate::harness::{
    measure, mix, proc_status, shard_threads, Args, Clock, Outcome, Stat, Tracer, SHARDS,
    WARMUP_DIVISOR,
};
use crate::pins::Pins;
use plab_bench::netsim_scale::{build_pods, PodWorld, CROSS_POD_STRIDE, POD_HOSTS};
use plab_netsim::MILLISECOND;
use plab_packet::builder;
use std::time::Instant;

const HOSTS: usize = 51_200;
/// Probes a host and round: 1.1 M events and about 0.8 s of wall per
/// round, so a run holds a dozen.
const PROBES_PER_HOST: usize = 4;
/// Virtual time a round spans. Probes leave within the first 50 ms and
/// the longest round trip is under 20 ms; the idle check proves it.
const ROUND_NS: u64 = 100 * MILLISECOND;

struct Round {
    wall_s: f64,
    events: u64,
    delivered: u64,
    idle: bool,
}

/// One round: every host schedules `PROBES_PER_HOST` echo requests inside
/// the 50 ms after `now`, at offsets drawn from the seed, to its partner
/// in the pod (every `CROSS_POD_STRIDE`-th host: to the next pod, across
/// the core and usually across shards); then the world runs `ROUND_NS`
/// on and the inboxes are drained.
fn round(world: &mut PodWorld, seed: u64, tracer: &mut Tracer) -> Round {
    let n = world.n;
    let wall = Instant::now();
    let base = world.sim.now();
    let before = world.sim.events_processed();
    let inject = tracer.begin("netsim.inject");
    for i in 0..n {
        let partner = if i % CROSS_POD_STRIDE == 0 {
            (i + POD_HOSTS) % n
        } else {
            i / POD_HOSTS * POD_HOSTS + (i + 1) % POD_HOSTS
        };
        let src = world.sim.addr_of(world.hosts[i]);
        let dst = world.sim.addr_of(world.hosts[partner]);
        for j in 0..PROBES_PER_HOST {
            let at = base + mix(seed, (i * PROBES_PER_HOST + j) as u64) % 50 * MILLISECOND;
            let pkt = builder::icmp_echo_request(src, dst, 64, i as u16, j as u16, &[0xab, 0xcd]);
            world
                .sim
                .schedule_send(world.hosts[i], at, pkt, (i * 10 + j) as u64);
        }
    }
    tracer.end(inject);
    tracer.span("netsim.run_until", || world.sim.run_until(base + ROUND_NS));
    let idle = world.sim.next_event_time().is_none();
    let drain = tracer.begin("netsim.drain");
    let mut delivered = 0u64;
    for (i, &h) in world.hosts.iter().enumerate() {
        delivered += world.sim.raw_recv(h, world.socks[i]).len() as u64;
    }
    tracer.end(drain);
    Round {
        wall_s: wall.elapsed().as_secs_f64(),
        events: world.sim.events_processed() - before,
        delivered,
        idle,
    }
}

pub fn run(args: &Args, tracer: &mut Tracer, pins: &Pins) -> Outcome {
    // The shards advance in parallel on as many threads as the process
    // may use, up to one a shard; this workload alone is not pinned, for
    // that. One thread in the traced run, so every `plab_obs` counter
    // lands on the thread that reads them.
    let threads = if args.trace { 1 } else { shard_threads() };
    let mut out = Outcome {
        threads,
        ..Default::default()
    };
    let mut warm = build_pods(HOSTS / WARMUP_DIVISOR, SHARDS, threads);
    round(&mut warm, args.seed, tracer);
    drop(warm);

    // The build takes about eight seconds (it grows fourfold per doubling
    // of hosts), so one per run is all the time cap allows.
    let rss_before_kb = proc_status("VmRSS");
    let t = Instant::now();
    tracer.set(args.trace);
    let mut world = tracer.span("setup.build", || build_pods(HOSTS, SHARDS, threads));
    tracer.set(false);
    let setup_s = t.elapsed().as_secs_f64();
    let rss_after_kb = proc_status("VmRSS");

    let mut rounds = Vec::new();
    let handoffs_before = world.sim.handoffs();
    let windows_before = world.sim.windows_run();
    let passes = measure(args, Clock::Plain, tracer, &mut out, |tracer| {
        let r = round(&mut world, args.seed, tracer);
        let wall_s = r.wall_s;
        rounds.push(r);
        wall_s
    });

    // Every probe is answered, so a round delivers a request and a reply
    // per probe; anything less is a lost packet.
    let probes = (HOSTS * PROBES_PER_HOST) as u64;
    for (i, r) in rounds.iter().enumerate() {
        out.attempted += probes;
        out.failed += probes.saturating_sub(r.delivered / 2);
        out.check(r.delivered == 2 * probes, || {
            format!("round {i}: {} deliveries for {probes} probes", r.delivered)
        });
        out.check(r.idle, || {
            format!("round {i}: the world is still busy {ROUND_NS} ns on")
        });
        out.check(r.events == rounds[0].events, || {
            format!(
                "round {i}: {} events, round 0 had {}",
                r.events, rounds[0].events
            )
        });
    }
    let last = rounds.last().expect("at least one round ran");
    pins.check(&mut out, args, "events_per_round", &last.events.to_string());
    pins.check(
        &mut out,
        args,
        "deliveries_per_round",
        &last.delivered.to_string(),
    );

    let sim_events_per_s = Stat::rate("sim_events_per_s", last.events as f64, &passes.walls);
    let failed_frac = out.failed as f64 / out.attempted as f64;
    out.work = "sim_events_per_s";
    out.metrics = vec![
        Stat::seconds("setup_s", &[setup_s]),
        sim_events_per_s,
        Stat::rss(out.peak_rss_mb),
        Stat::exact("failed_frac", "ratio", failed_frac),
    ];
    if !args.trace {
        return out;
    }

    let n = rounds.len() as f64;
    out.layer("failed_frac", failed_frac);
    out.layer("netsim.events", last.events as f64);
    out.layer(
        "netsim.ns_per_event",
        tracer.self_ns("netsim.run_until") as f64 / last.events as f64,
    );
    out.layer(
        "netsim.shard.handoffs",
        (world.sim.handoffs() - handoffs_before) as f64 / n,
    );
    out.layer(
        "netsim.shard.windows",
        (world.sim.windows_run() - windows_before) as f64 / n,
    );
    out.obs_counter("netsim.pool.cow_copies");
    out.obs_counter("netsim.drops");
    out.layer("netsim.build_us_per_host", setup_s * 1e6 / HOSTS as f64);
    out.layer(
        "netsim.rss_kb_per_host",
        rss_after_kb.saturating_sub(rss_before_kb) as f64 / HOSTS as f64,
    );
    out
}
