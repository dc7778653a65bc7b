//! `fleet_ping`, `fleet_trace`, `fleet_chaos`: one experiment spec fanned
//! over a roster of controller/endpoint pairs by `plab_runner::run_fleet`.
//! Every pass builds its own world, because `run_fleet` consumes it; the
//! build and the credential issue are the pass's set-up, `run_fleet`
//! alone is its timed region.

use crate::harness::{measure, Args, Clock, Outcome, Stat, Tracer, SHARDS, WARMUP_DIVISOR};
use crate::kernels;
use crate::pins::Pins;
use packetlab::harness::CONTROL_PORT;
use plab_crypto::Keypair;
use plab_netsim::roster::RosterSpec;
use plab_netsim::{FaultAction, MILLISECOND, SECOND};
use plab_runner::report::percentile;
use plab_runner::{
    build_fleet, run_fleet, schedule_fleet_faults, ExperimentSpec, FleetFaultPlan, FleetRun,
    Outcome as TaskOutcome, Program, RunReport,
};
use std::hint::black_box;
use std::time::Instant;

/// Roster size. A quarter of the issue's 1024, so that a pass takes a
/// good second and a run holds six to eight of them, each between two
/// calibration readings (see `harness::calib_ms`). It is past the knee the five `BENCH_*.json` numbers did not explain: wall
/// per task is 1.4 ms at 16 pairs, 4.0 ms here and 4.7 ms at 1024. The
/// launch rate limit of `plab_bench::fleet::config()` (a burst of 32,
/// then 500 a second) spreads the launches over 0.45 s of virtual time,
/// with some 120 tasks in flight. (Its cap of 256 in flight does not
/// bind on a clean fleet of 1024 pairs either: a task lasts a quarter of
/// a virtual second.)
const PAIRS: usize = 256;

/// Every `FAULT_STRIDE`-th endpoint crashes, the next has its control
/// connections reset, the next sits behind burst loss, the last is left
/// alone.
const FAULT_STRIDE: usize = 4;

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Ping,
    Trace,
    Chaos,
}

/// The fault schedule of `fleet_chaos`, three kinds of fault on a
/// quarter of the endpoints each, timed against the virtual instant the
/// scheduler launches the endpoint's task:
/// - the endpoint host crashes 10 ms after, in the middle of the
///   handshake, and restarts 50 ms later: the dial fails and the
///   controller backs off and redials;
/// - the endpoint's TCP connections are reset 80 ms after, while the
///   session is live: the controller times out, redials,
///   re-authenticates into the lingering session and replays the lost
///   command;
/// - two seconds of Gilbert–Elliott loss on the access link, from the
///   `FleetFaultPlan`.
///
/// The plan's own crashes land at instants drawn from its seed, and one
/// that lands inside a live session wipes the experiment's sockets: the
/// task ends in a typed `BadSocket` failure (1.9 % of the issue's roster
/// did). That is the right answer but a failed operation, and the
/// benchmark contract wants workloads on which none fails; hence crashes
/// placed where the controller can recover. Any task that fails all the
/// same is counted in `failed`, not hidden.
fn schedule_chaos(world: &mut plab_runner::FleetWorld, seed: u64) {
    let plan = FleetFaultPlan {
        seed: FleetFaultPlan::default().seed ^ seed,
        crash_every: 0,
        burst_every: FAULT_STRIDE,
        start_ns: 0,
        spread_ns: SECOND / 2,
        burst_len_ns: 2 * SECOND,
        ..Default::default()
    };
    schedule_fleet_faults(world, &plan);
    // The scheduler launches a burst at once, then at its rate limit.
    let launch = plab_bench::fleet::config().launch;
    for i in 0..world.pairs.len() {
        let slot = (i as u64).saturating_sub(launch.burst) * SECOND / launch.rate_per_sec;
        let node = world.pairs[i].endpoint.0;
        let sim = &mut world.net.sim;
        match i % FAULT_STRIDE {
            0 => {
                sim.schedule_fault(slot + 10 * MILLISECOND, FaultAction::NodeCrash { node });
                sim.schedule_fault(slot + 60 * MILLISECOND, FaultAction::NodeRestart { node });
            }
            1 => sim.schedule_fault(slot + 80 * MILLISECOND, FaultAction::TcpReset { node }),
            _ => {}
        }
    }
}

/// Set-ups timed per pass; the set-up is two milliseconds. The last
/// one's world is the one the pass runs.
const SETUPS_PER_PASS: usize = 8;

struct Pass {
    setups_s: [f64; SETUPS_PER_PASS],
    wall_s: f64,
    run: FleetRun,
}

struct Fleet {
    kind: Kind,
    seed: u64,
    threads: usize,
    operator: Keypair,
    experimenter: Keypair,
    spec: ExperimentSpec,
}

impl Fleet {
    /// Build the world and issue the credentials: what comes before the
    /// first timed operation. Returns the world and the wall seconds.
    fn set_up(&self, pairs: usize, tracer: &mut Tracer) -> (plab_runner::FleetWorld, f64) {
        let t = Instant::now();
        let build = tracer.begin("setup.build");
        let roster = RosterSpec {
            pairs,
            shards: SHARDS,
            threads: self.threads,
            seed: self.seed,
            access_mbps: 0,
        };
        let mut world = build_fleet(&roster, &self.operator);
        if self.kind == Kind::Chaos {
            schedule_chaos(&mut world, self.seed);
        }
        tracer.end(build);
        // `run_fleet` issues the same credentials again inside its timed
        // region; this call is what puts their cost into the set-up time.
        let addr = format!("{}:{CONTROL_PORT}", world.pairs[0].controller_addr);
        tracer.span("setup.credentials", || {
            black_box(
                self.spec
                    .credentials(&self.operator, &self.experimenter, &addr),
            )
            .expect("Figure 2 compiles");
        });
        (world, t.elapsed().as_secs_f64())
    }

    fn pass(&self, pairs: usize, tracer: &mut Tracer) -> Pass {
        let mut setups_s = [0.0; SETUPS_PER_PASS];
        let mut world = None;
        for s in &mut setups_s {
            let (w, setup_s) = self.set_up(pairs, tracer);
            *s = setup_s;
            world = Some(w);
        }
        let world = world.expect("at least one set-up a pass");
        let t = Instant::now();
        let run = tracer
            .span("run.run_fleet", || {
                run_fleet(
                    world,
                    &self.spec,
                    &self.operator,
                    &self.experimenter,
                    &plab_bench::fleet::config(),
                )
            })
            .expect("the spec is valid");
        Pass {
            setups_s,
            wall_s: t.elapsed().as_secs_f64(),
            run,
        }
    }
}

fn tally(run: &FleetRun) -> (u64, u64, u64) {
    let count = |o: TaskOutcome| run.results.iter().filter(|r| r.outcome == o).count() as u64;
    (
        count(TaskOutcome::Completed),
        count(TaskOutcome::Failed),
        count(TaskOutcome::Aborted),
    )
}

pub fn run(args: &Args, tracer: &mut Tracer, kind: Kind, pins: &Pins) -> Outcome {
    let program = match kind {
        Kind::Trace => Program::Traceroute { max_ttl: 8 },
        Kind::Ping | Kind::Chaos => Program::Ping {
            count: 2,
            interval_ns: 50 * MILLISECOND,
            payload_len: 8,
        },
    };
    let fleet = Fleet {
        kind,
        seed: args.seed,
        // One thread in the traced run, so every `plab_obs` counter lands
        // on the thread that reads them.
        threads: if args.trace {
            1
        } else {
            crate::harness::shard_threads()
        },
        operator: Keypair::from_seed(&[31; 32]),
        experimenter: Keypair::from_seed(&[32; 32]),
        spec: ExperimentSpec {
            monitor: Some(plab_bench::FIGURE2_MONITOR.into()),
            program,
            ..ExperimentSpec::ping("bench-fleet")
        },
    };
    let mut out = Outcome {
        threads: fleet.threads,
        ..Default::default()
    };
    fleet.pass(PAIRS / WARMUP_DIVISOR, tracer);

    let mut setups = Vec::new();
    // Only the last run is kept whole, so memory does not grow with the
    // number of passes the budget happened to hold.
    let mut seen: Vec<(u64, (u64, u64, u64))> = Vec::new();
    let mut last = None;
    let mut seal_json_ms = (0.0, 0.0);
    let passes = measure(args, Clock::Scaled, tracer, &mut out, |tracer| {
        let p = fleet.pass(PAIRS, tracer);
        if tracer.on() {
            // The report layer on the pass's own report: `run_fleet` has
            // sealed it once already, inside its span.
            let t = Instant::now();
            let sealed = tracer.span("report.seal", || {
                RunReport::seal(p.run.report.events.clone(), p.run.report.summary.clone())
            });
            let seal_ms = t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            tracer.span("report.json_seq", || drop(black_box(sealed.json_seq())));
            seal_json_ms = (seal_ms, t.elapsed().as_secs_f64() * 1e3);
        }
        setups.push(p.setups_s);
        seen.push((p.run.report.digest, tally(&p.run)));
        last = Some(p.run);
        p.wall_s
    });

    // Output checks.
    let roster = PAIRS as u64;
    for (i, &(digest, (completed, failed, aborted))) in seen.iter().enumerate() {
        out.attempted += roster;
        out.failed += failed + aborted;
        out.check(completed + failed + aborted == roster, || {
            format!("pass {i}: {completed}+{failed}+{aborted} outcomes for a roster of {roster}")
        });
        // Under faults a failed task is counted, not a broken output.
        out.check(kind == Kind::Chaos || failed + aborted == 0, || {
            format!("pass {i}: {failed} failed, {aborted} aborted on a fleet without faults")
        });
        out.check(digest == seen[0].0, || {
            format!(
                "pass {i}: report digest {digest:#018x} differs from pass 0's {:#018x}",
                seen[0].0
            )
        });
    }
    let last = last.expect("at least one pass ran");
    let retries = plab_bench::fleet::retries(&last);
    if kind == Kind::Chaos {
        out.check(retries > 0, || {
            "the fault schedule never bit: no retries".into()
        });
    } else {
        out.check(retries == 0, || {
            format!("{retries} retries on a fleet without faults")
        });
    }
    let (completed, failed, aborted) = tally(&last);
    pins.check(
        &mut out,
        args,
        "digest",
        &format!("{:#018x}", last.report.digest),
    );
    pins.check(&mut out, args, "completed", &completed.to_string());
    pins.check(&mut out, args, "retries", &retries.to_string());

    // End-to-end metrics.
    let scaled_setups: Vec<[f64; SETUPS_PER_PASS]> = setups
        .iter()
        .zip(&passes.scale)
        .map(|(s, k)| s.map(|setup_s| setup_s * k))
        .collect();
    let endpoints_per_s = Stat::rate("endpoints_per_s", PAIRS as f64, &passes.walls);
    let mut latencies: Vec<u64> = last
        .results
        .iter()
        .filter(|r| r.outcome == TaskOutcome::Completed)
        .map(|r| r.finished_ns.saturating_sub(r.started_ns))
        .collect();
    latencies.sort_unstable();
    let p50 = percentile(&latencies, 50) as f64 / 1e6;
    let p99 = percentile(&latencies, 99) as f64 / 1e6;
    let failed_frac = (failed + aborted) as f64 / roster as f64;
    out.work = "endpoints_per_s";
    out.metrics = vec![
        Stat::seconds("setup_s", &passes.timed(&scaled_setups).concat()),
        endpoints_per_s,
        Stat::rss(out.peak_rss_mb),
        Stat::exact("task_virtual_p50_ms", "ms", p50),
        Stat::exact("task_virtual_p99_ms", "ms", p99),
        Stat::exact("failed_frac", "ratio", failed_frac),
    ];
    if !args.trace {
        return out;
    }

    // Per-layer numbers of the traced pass (the last one).
    let wall_s = tracer
        .by_name()
        .get("run.run_fleet")
        .map_or(0.0, |e| e.1 as f64 / 1e9);
    let tasks = roster as f64;
    let sum = |f: fn(&packetlab::controller::robust::RetryStats) -> u32| -> f64 {
        last.results.iter().map(|r| f64::from(f(&r.stats))).sum()
    };
    let connects = sum(|s| s.connects);
    out.layer("task_virtual_p50_ms", p50);
    out.layer("task_virtual_p99_ms", p99);
    out.layer("failed_frac", failed_frac);
    out.layer("controller.connects", connects);
    out.layer("controller.failed_dials", sum(|s| s.failed_dials));
    out.layer("controller.timeouts", sum(|s| s.timeouts));
    out.layer("controller.replays", sum(|s| s.replays));
    out.layer(
        "controller.completed_per_connect",
        completed as f64 / connects.max(1.0),
    );
    let commands = out.obs_counter("endpoint.commands");
    out.layer("endpoint.commands_per_task", commands / tasks);
    for name in [
        "endpoint.denied_sends",
        "endpoint.capture.packets",
        "endpoint.capture.dropped_packets",
        "endpoint.replay.hits",
        "endpoint.replay.misses",
        "netsim.shard.handoffs",
        "netsim.shard.windows",
        "netsim.pool.cow_copies",
        "netsim.drops",
        "pfvm.denials",
        "pfvm.fuse.replays",
        "runner.completed",
        "runner.failed",
        "runner.aborted",
    ] {
        out.obs_counter(name);
    }
    out.layer(
        "endpoint.sessions.lingering",
        plab_obs::metrics::gauge("endpoint.sessions.lingering") as f64,
    );
    let adjudications = out.obs_counter("pfvm.adjudications");
    out.layer("runner.wall_ms_per_task", wall_s * 1e3 / tasks);
    out.layer("runner.report_seal_ms", seal_json_ms.0);
    out.layer("runner.json_seq_ms", seal_json_ms.1);
    // The main thread blocks once per baton handoff, and `/proc` counts
    // the main thread alone: its voluntary switches over every task the
    // process ran (warm-up included) are the handoffs per task.
    let tasks_run = (PAIRS / WARMUP_DIVISOR + PAIRS * seen.len()) as f64;
    out.layer(
        "host.vol_ctx_switches_per_task",
        crate::harness::proc_status("voluntary_ctxt_switches") as f64 / tasks_run,
    );

    let verify_us = kernels::crypto(&mut out);
    kernels::cpf(&mut out);
    let creds = fleet
        .spec
        .credentials(&fleet.operator, &fleet.experimenter, "10.0.0.1:6000")
        .expect("Figure 2 compiles");
    let auth_us = kernels::cert(&mut out, &creds, &fleet.operator, verify_us);
    kernels::wire(&mut out, &creds);
    let (instantiate_us, adjudication_ns) = kernels::pfvm_depth1(&mut out);
    kernels::host_proxies(&mut out);
    // Shares of `run_fleet`'s wall time, modelled from outside: what one
    // task pays a layer (timed above) times the tasks, over the wall.
    let cert_share = connects * auth_us / 1e6 / wall_s;
    let pfvm_share =
        (connects * instantiate_us / 1e6 + adjudications * adjudication_ns / 1e9) / wall_s;
    out.layer("cert.share_of_wall", cert_share);
    out.layer("pfvm.share_of_wall", pfvm_share);
    out.layer("runner.unattributed_share", 1.0 - cert_share - pfvm_share);
    out
}
