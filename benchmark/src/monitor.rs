//! `monitor_chain`: the PFVM alone. Figure-2 monitor chains of depth 1, 4
//! and 8 through `MonitorSet::instantiate`, adjudicating a fixed packet
//! mix by alternating `allow_send` and `allow_recv`. This is the
//! endpoint's packets-per-second ceiling per core; the PFVM is under 1 %
//! of any fleet workload, so it is visible nowhere else.

use crate::harness::{calib_ms, measure, median, mix, scaled, Args, Clock, Outcome, Stat, Tracer};
use crate::kernels::{encoded_chain, info_block, MONITOR_ME};
use crate::pins::Pins;
use packetlab::monitor::MonitorSet;
use plab_packet::builder;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

const DEPTHS: [usize; 3] = [1, 4, 8];
/// Adjudications per depth and pass (half sends, half receives): a pass
/// is about 0.6 s, six times the calibration readings around it, and a
/// run holds some fourteen.
const ADJUDICATIONS: u64 = 2_000_000;
/// Set-ups timed per run; the set-up is a tenth of a millisecond.
const SETUPS: usize = 201;

/// One packet of the mix with the verdicts Figure 2 must give it.
struct Case {
    packet: Vec<u8>,
    send: bool,
    recv: bool,
}

/// The packet mix. The seed moves the ICMP identifiers, sequence numbers
/// and payload bytes, none of which Figure 2 looks at, so the verdicts
/// are the same for every seed:
/// - an echo request from the endpoint's own address may be sent and is
///   not something the endpoint may receive;
/// - an echo request from a forged source is denied both ways;
/// - an echo reply and a time-exceeded addressed to the endpoint may be
///   received but not sent.
fn packet_mix(seed: u64) -> Vec<Case> {
    let target = Ipv4Addr::new(10, 0, 99, 1);
    let forged = Ipv4Addr::new(10, 0, 7, 7);
    let router = Ipv4Addr::new(10, 0, 3, 254);
    let r = |i: u64| mix(seed, i);
    let payload = [r(0) as u8, r(1) as u8];
    let probe =
        builder::icmp_echo_request(MONITOR_ME, target, 5, r(2) as u16, r(3) as u16, &payload);
    let denied = builder::icmp_echo_request(forged, target, 5, r(4) as u16, r(5) as u16, &payload);
    let reply = builder::icmp_echo_reply(target, MONITOR_ME, r(2) as u16, r(3) as u16, &payload);
    let exceeded = builder::icmp_time_exceeded(router, MONITOR_ME, &probe);
    vec![
        Case {
            packet: probe,
            send: true,
            recv: false,
        },
        Case {
            packet: denied,
            send: false,
            recv: false,
        },
        Case {
            packet: reply,
            send: false,
            recv: true,
        },
        Case {
            packet: exceeded,
            send: false,
            recv: true,
        },
    ]
}

/// Compile Figure 2 and instantiate the three chains: what an endpoint
/// does between a verified `Auth` and its first adjudication.
fn set_up(info: &[u8], tracer: &mut Tracer) -> (f64, Vec<MonitorSet>) {
    let t = Instant::now();
    let sets = DEPTHS
        .iter()
        .map(|&depth| {
            let chain = tracer.span("setup.compile", || encoded_chain(depth));
            tracer
                .span("setup.instantiate", || {
                    MonitorSet::instantiate(&chain, info)
                })
                .expect("Figure 2 instantiates")
        })
        .collect();
    (t.elapsed().as_secs_f64(), sets)
}

/// Adjudicate the mix `ADJUDICATIONS` times on one chain; returns the
/// wall seconds of the send and of the receive batch.
fn adjudicate(
    set: &mut MonitorSet,
    cases: &[Case],
    info: &[u8],
    tracer: &mut Tracer,
) -> (f64, f64) {
    let rounds = ADJUDICATIONS / 2 / cases.len() as u64;
    let mut allowed = 0u64;
    let t = Instant::now();
    let send = tracer.begin("pfvm.allow_send");
    for _ in 0..rounds {
        for c in cases {
            allowed += u64::from(set.allow_send(black_box(&c.packet), info));
        }
    }
    tracer.end(send);
    let send_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let recv = tracer.begin("pfvm.allow_recv");
    for _ in 0..rounds {
        for c in cases {
            allowed += u64::from(set.allow_recv(black_box(&c.packet), info));
        }
    }
    tracer.end(recv);
    black_box(allowed);
    (send_s, t.elapsed().as_secs_f64())
}

pub fn run(args: &Args, tracer: &mut Tracer, pins: &Pins) -> Outcome {
    let mut out = Outcome {
        threads: 1,
        ..Default::default()
    };
    let info = info_block(MONITOR_ME);
    let cases = packet_mix(args.seed);

    // Output check: the verdict vector of every chain, fused against the
    // expected pattern and against the sequential reference engine.
    let (_, mut sets) = set_up(&info, tracer);
    let mut verdicts = String::new();
    for (set, &depth) in sets.iter_mut().zip(&DEPTHS) {
        let mut reference = MonitorSet::instantiate_sequential(&encoded_chain(depth), &info)
            .expect("Figure 2 instantiates");
        for (i, c) in cases.iter().enumerate() {
            let got = (
                set.allow_send(&c.packet, &info),
                set.allow_recv(&c.packet, &info),
            );
            let seq = (
                reference.allow_send(&c.packet, &info),
                reference.allow_recv(&c.packet, &info),
            );
            out.attempted += 2;
            out.failed += u64::from(got.0 != c.send) + u64::from(got.1 != c.recv);
            out.check(got == (c.send, c.recv), || {
                format!(
                    "depth {depth}, packet {i}: verdicts {got:?}, expected {:?}",
                    (c.send, c.recv)
                )
            });
            out.check(got == seq, || {
                format!("depth {depth}, packet {i}: fused {got:?}, sequential {seq:?}")
            });
            verdicts.push(if got.0 { 'S' } else { 's' });
            verdicts.push(if got.1 { 'R' } else { 'r' });
        }
    }
    pins.check(&mut out, args, "verdicts", &verdicts);

    let mut setups = Vec::new();
    let calib = calib_ms();
    for _ in 0..SETUPS {
        let (setup_s, fresh) = set_up(&info, tracer);
        setups.push(setup_s);
        sets = fresh;
    }
    let calib_after = calib_ms();
    for setup_s in &mut setups {
        *setup_s = scaled(*setup_s, calib, calib_after);
    }

    // Per depth: the wall seconds of every pass's send and receive batch.
    let mut batches: [Vec<(f64, f64)>; 3] = Default::default();
    let passes = measure(args, Clock::Scaled, tracer, &mut out, |tracer| {
        if tracer.on() {
            // A `MonitorSet` reads the `plab_obs` switch when it is made,
            // so the traced pass needs sets made with it on.
            sets = set_up(&info, tracer).1;
        }
        let mut wall_s = 0.0;
        for (d, set) in sets.iter_mut().enumerate() {
            let (send_s, recv_s) = adjudicate(set, &cases, &info, tracer);
            batches[d].push((send_s, recv_s));
            wall_s += send_s + recv_s;
        }
        wall_s
    });
    let per_depth = (ADJUDICATIONS / 2 / cases.len() as u64 * cases.len() as u64 * 2) as f64;
    let total = per_depth * DEPTHS.len() as f64;
    // Per depth: the send and receive batch of every timed pass, scaled as
    // the pass is.
    let batches = batches.map(|b| {
        let scaled: Vec<(f64, f64)> = b
            .iter()
            .zip(&passes.scale)
            .map(|(&(send_s, recv_s), k)| (send_s * k, recv_s * k))
            .collect();
        scaled
    });
    let depth_rate = |name, d: usize| {
        let walls: Vec<f64> = batches[d].iter().map(|b| b.0 + b.1).collect();
        Stat::rate(name, per_depth, &walls)
    };

    out.work = "adjud_per_s";
    out.metrics = vec![
        Stat::seconds("setup_s", &setups),
        Stat::rate("adjud_per_s", total, &passes.walls),
        Stat::rss(out.peak_rss_mb),
        depth_rate("adjud_d1_per_s", 0),
        depth_rate("adjud_d4_per_s", 1),
        depth_rate("adjud_d8_per_s", 2),
        Stat::exact(
            "failed_frac",
            "ratio",
            out.failed as f64 / out.attempted as f64,
        ),
    ];
    if !args.trace {
        return out;
    }

    for m in &out.metrics[3..6] {
        out.layers.insert(m.name, m.value);
    }
    out.layer("failed_frac", out.failed as f64 / out.attempted as f64);
    let half = per_depth / 2.0;
    let ns = |pick: fn(&(f64, f64)) -> f64, d: usize| {
        median(&batches[d].iter().map(pick).collect::<Vec<f64>>()) * 1e9 / half
    };
    out.layer("pfvm.ns_per_send_d1", ns(|b| b.0, 0));
    out.layer("pfvm.ns_per_send_d4", ns(|b| b.0, 1));
    out.layer("pfvm.ns_per_send_d8", ns(|b| b.0, 2));
    out.layer("pfvm.ns_per_recv_d1", ns(|b| b.1, 0));
    out.layer("pfvm.ns_per_recv_d4", ns(|b| b.1, 1));
    out.layer("pfvm.ns_per_recv_d8", ns(|b| b.1, 2));
    // The traced pass ran on fresh sets, so their counts are its alone.
    let insns: u64 = sets.iter().map(MonitorSet::insns_executed).sum();
    out.layer("pfvm.insns_per_adjudication", insns as f64 / total);
    if let Some(stats) = sets[2].fuse_stats() {
        let lookups = (stats.dedup_hits + stats.dedup_misses).max(1);
        out.layer(
            "pfvm.fuse.dedup_hit_ratio",
            stats.dedup_hits as f64 / lookups as f64,
        );
        out.layer("pfvm.fuse.replays", stats.replays as f64);
    }
    out.obs_counter("pfvm.adjudications");
    out.obs_counter("pfvm.denials");
    out.layer(
        "pfvm.instantiate_us",
        tracer.self_ns("setup.instantiate") as f64 / 1e3 / DEPTHS.len() as f64,
    );
    crate::kernels::cpf(&mut out);
    out
}
