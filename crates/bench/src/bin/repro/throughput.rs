//! Throughput snapshot: adjudications/sec for Figure-2 monitor chains and
//! simulator events/sec on a multi-hop topology, written to
//! `BENCH_throughput.json` so successive revisions have a perf trajectory.
//! Beside each chain's rates it writes what no clock blurs: per
//! adjudication, the sections that executed a stream and the outcomes
//! replayed whole, for send and for recv (functions of the chain and the
//! packet alone).
//!
//! The counts go to stdout and the rates to stderr. `--secs` stretches or shrinks the per-measurement budget
//! (default 0.5 s; CI smoke uses 0.05).

use packetlab::monitor::MonitorSet;
use plab_filter::FuseStats;
use plab_netsim::{LinkParams, NodeId, Sim, TopologyBuilder};
use plab_packet::builder;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

fn chain_sequential(n: usize, encoded: &[u8], info: &[u8]) -> MonitorSet {
    MonitorSet::instantiate_sequential(&vec![encoded.to_vec(); n], info)
        .expect("monitors instantiate")
}

/// Run `op` repeatedly for roughly `budget`, returning ops/sec.
fn measure(budget: Duration, mut op: impl FnMut() -> u64) -> (f64, u64) {
    // Warm up and estimate per-op cost.
    let mut acc = 0u64;
    let start = Instant::now();
    let mut calls = 0u64;
    while calls < 16 || start.elapsed() < budget / 8 {
        acc = acc.wrapping_add(op());
        calls += 1;
    }
    let per_call = start.elapsed() / calls as u32;
    let batch = (budget.as_nanos() / per_call.as_nanos().max(1)).clamp(1, 50_000_000) as u64;
    let start = Instant::now();
    for _ in 0..batch {
        acc = acc.wrapping_add(op());
    }
    let elapsed = start.elapsed();
    (batch as f64 / elapsed.as_secs_f64(), std::hint::black_box(acc))
}

/// Sections executed and outcomes replayed per call of `op`, over 1,000
/// calls: exact, and the same for every call when `op` adjudicates one
/// packet.
fn replay_shape(set: &mut MonitorSet, op: impl Fn(&mut MonitorSet) -> bool) -> (f64, f64) {
    const CALLS: u64 = 1000;
    let stats = |set: &MonitorSet| set.fuse_stats().expect("a fused chain");
    let before = stats(set);
    for _ in 0..CALLS {
        op(set);
    }
    let FuseStats { executed, replays, .. } = stats(set);
    let per_call = |n: u64| n as f64 / CALLS as f64;
    (per_call(executed - before.executed), per_call(replays - before.replays))
}

fn multihop() -> (Sim, NodeId, Ipv4Addr, Ipv4Addr) {
    let mut t = TopologyBuilder::new();
    let src: Ipv4Addr = "10.0.0.1".parse().unwrap();
    let dst: Ipv4Addr = "10.0.99.1".parse().unwrap();
    let h = t.host("h", src);
    let mut prev = h;
    for i in 0..4 {
        let r = t.router(&format!("r{i}"), format!("10.0.{}.254", i + 1).parse().unwrap());
        t.link(prev, r, LinkParams::new(0, 0));
        prev = r;
    }
    let target = t.host("target", dst);
    t.link(prev, target, LinkParams::new(0, 0));
    (t.build(), h, src, dst)
}

fn pump_round(sim: &mut Sim, h: NodeId, src: Ipv4Addr, dst: Ipv4Addr) -> u64 {
    let sock = sim.raw_open(h);
    for i in 0..64u16 {
        let ttl = (i % 8) as u8 + 1;
        sim.raw_send(h, builder::icmp_echo_request(src, dst, ttl, 7, i, &[0, 1]));
    }
    let mut events = 0u64;
    while sim.step() {
        events += 1;
    }
    let got = sim.raw_recv(h, sock);
    assert!(!got.is_empty(), "replies observed");
    events
}

use plab_bench::reportjson::json_f;

pub fn run(opts: &crate::Opts) -> i32 {
    let budget = opts.secs.unwrap_or(Duration::from_millis(500));

    let (encoded, probe, info) = plab_bench::figure2_fixture();
    let reply = plab_bench::figure2_reply();

    println!(
        "throughput snapshot ({} ms per measurement)\n",
        budget.as_millis()
    );

    // Monitor chains: adjudications per second through the fused engine
    // (the default) and the sequential one-Vm-per-monitor reference walk.
    let mut send_rates = Vec::new();
    let mut recv_rates = Vec::new();
    let mut seq_send_rates = Vec::new();
    let mut seq_recv_rates = Vec::new();
    let mut insns = Vec::new();
    let mut shapes = Vec::new();
    let mut fusion = None;
    for n in [1usize, 2, 4, 8] {
        let mut set = plab_bench::figure2_chain(n, &encoded, &info);
        assert!(set.allow_send(&probe, &info), "probe allowed");
        let (send_rate, _) = measure(budget, || u64::from(set.allow_send(&probe, &info)));
        assert!(set.allow_recv(&reply, &info), "reply allowed");
        let (recv_rate, _) = measure(budget, || u64::from(set.allow_recv(&reply, &info)));
        let send_shape = replay_shape(&mut set, |s| s.allow_send(&probe, &info));
        let recv_shape = replay_shape(&mut set, |s| s.allow_recv(&reply, &info));
        let mut seq = chain_sequential(n, &encoded, &info);
        let (seq_send, _) = measure(budget, || u64::from(seq.allow_send(&probe, &info)));
        let (seq_recv, _) = measure(budget, || u64::from(seq.allow_recv(&reply, &info)));
        println!(
            "monitor chain x{n}: per adjudication, sections executed / outcomes replayed: \
             send {} / {}, recv {} / {}",
            send_shape.0, send_shape.1, recv_shape.0, recv_shape.1
        );
        eprintln!(
            "monitor chain x{n}: fused {:.2} M send / {:.2} M recv adjudications/s, \
             sequential {:.2} M send / {:.2} M recv",
            send_rate / 1e6,
            recv_rate / 1e6,
            seq_send / 1e6,
            seq_recv / 1e6
        );
        shapes.push((send_shape, recv_shape));
        send_rates.push((n, send_rate));
        recv_rates.push((n, recv_rate));
        seq_send_rates.push((n, seq_send));
        seq_recv_rates.push((n, seq_recv));
        insns.push((n, set.insns_executed()));
        // Fusion shape + runtime counters from the deepest chain measured.
        fusion = set.fuse_stats().map(|s| (n, s));
    }

    // Simulator: events per second across a 4-router line, mixed TTLs.
    let (mut cal, h, src, dst) = multihop();
    let events_per_round = pump_round(&mut cal, h, src, dst);
    let (rounds_per_sec, _) = measure(budget, || {
        let (mut sim, h, src, dst) = multihop();
        pump_round(&mut sim, h, src, dst)
    });
    let events_per_sec = rounds_per_sec * events_per_round as f64;
    println!(
        "netsim multihop: {events_per_round} events/round \
         (pool: {} taken, {} recycled after calibration round)",
        cal.pools()[0].taken(),
        cal.pools()[0].recycled()
    );
    eprintln!("netsim multihop: {:.2} M events/s", events_per_sec / 1e6);

    let mut out =
        format!("  \"budget_ms\": {},\n  \"monitor_chains\": [\n", budget.as_millis());
    for (i, &(n, send)) in send_rates.iter().enumerate() {
        let recv = recv_rates[i].1;
        let ins = insns[i].1;
        let ((send_exec, send_replays), (recv_exec, recv_replays)) = shapes[i];
        out.push_str(&format!(
            "    {{\"monitors\": {n}, \"send_adjudications_per_sec\": {}, \
             \"recv_adjudications_per_sec\": {}, \
             \"sequential_send_adjudications_per_sec\": {}, \
             \"sequential_recv_adjudications_per_sec\": {}, \"insns_executed\": {ins}, \
             \"send_sections_executed\": {send_exec}, \"send_replays\": {send_replays}, \
             \"recv_sections_executed\": {recv_exec}, \"recv_replays\": {recv_replays}}}{}\n",
            json_f(send),
            json_f(recv),
            json_f(seq_send_rates[i].1),
            json_f(seq_recv_rates[i].1),
            if i + 1 < send_rates.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    if let Some((n, s)) = fusion {
        out.push_str(&format!(
            "  \"fusion\": {{\n    \"monitors\": {n},\n    \"sections\": {},\n    \
             \"orig_insns\": {},\n    \"fused_insns\": {},\n    \"superinsns\": {},\n    \
             \"replay_sections\": {},\n    \"replays\": {},\n    \"reruns\": {},\n    \
             \"executed\": {},\n    \"superinsn_len_hist\": [{}]\n  }},\n",
            s.sections,
            s.orig_insns,
            s.fused_insns,
            s.superinsns,
            s.replay_sections,
            s.replays,
            s.reruns,
            s.executed,
            s.super_len.map(|c| c.to_string()).join(",")
        ));
    }
    out.push_str("  \"netsim\": {\n");
    out.push_str(&format!(
        "    \"events_per_round\": {events_per_round},\n    \"events_per_sec\": {},\n",
        json_f(events_per_sec)
    ));
    out.push_str(&format!(
        "    \"pool_taken\": {},\n    \"pool_recycled\": {}\n  }}\n}}\n",
        cal.pools()[0].taken(),
        cal.pools()[0].recycled()
    ));
    plab_bench::reportjson::emit_report("throughput", "BENCH_throughput.json", &out);
    0
}
