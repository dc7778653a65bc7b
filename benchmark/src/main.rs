//! The repo's benchmark: one process runs one workload for a time budget,
//! checks its outputs, prints every metric by name with its unit, writes
//! a record under `benchmark/out/`, and ends with the one-line result the
//! benchmark contract in `BENCHMARK.json` asks for. `run.sh` builds it;
//! `suite.py` runs the whole set. See `README.md` beside this package.
//!
//! ```text
//! plab-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! plab-benchmark --calibrate      the calibration process a run starts for itself
//! ```

mod bwest;
mod ctrl_mux;
mod fleet;
mod harness;
mod kernels;
mod monitor;
mod pins;
mod pump;

use harness::{Args, Outcome, Tracer};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::process::ExitCode;

/// The seven workloads, as `BENCHMARK.json` names them.
const WORKLOADS: [&str; 7] = [
    "fleet_ping",
    "fleet_trace",
    "fleet_chaos",
    "ctrl_mux",
    "bwest_corpus",
    "pump_50k",
    "monitor_chain",
];

/// The end-to-end metrics of `BENCHMARK.json`. The contract has every
/// workload report every one of them, so the workload's own rate
/// (`endpoints_per_s`, `ctrl_ops_per_s`, `bwest_dests_per_s`,
/// `sim_events_per_s`, `adjud_per_s`) goes into the result line as
/// `work_per_s`; the record keeps it under its own name.
const END_TO_END: [&str; 3] = ["setup_s", "work_per_s", "peak_rss_mb"];

/// Every per-layer metric with its unit, as `BENCHMARK.json` lists them.
/// A traced run reports all of them; a layer the workload does not use
/// reads 0.
const PER_LAYER: [(&str, &str); 79] = [
    ("crypto.verify_us", "us"),
    ("crypto.sign_us", "us"),
    ("crypto.sha256_mb_per_s", "MB/s"),
    ("cert.chain_len", "count"),
    ("cert.verify_set_us", "us"),
    ("cert.issue_us", "us"),
    ("cert.auth_message_us", "us"),
    ("cert.share_of_wall", "ratio"),
    ("cpf.compile_us", "us"),
    ("wire.encode_ns_per_msg", "ns"),
    ("wire.decode_ns_per_msg", "ns"),
    ("wire.frame_decode_mb_per_s", "MB/s"),
    ("reactor.pump_ns_per_op", "ns"),
    ("reactor.dispatch_ns_per_op", "ns"),
    ("reactor.flush_ns_per_op", "ns"),
    ("reactor.client_ns_per_op", "ns"),
    ("endpoint.reactor.dispatched", "count"),
    ("endpoint.reactor.backpressure_stalls", "count"),
    ("endpoint.replay.hits", "count"),
    ("endpoint.replay.misses", "count"),
    ("endpoint.commands", "count"),
    ("endpoint.commands_per_task", "count"),
    ("endpoint.denied_sends", "count"),
    ("endpoint.capture.packets", "count"),
    ("endpoint.capture.dropped_packets", "count"),
    ("endpoint.sessions.lingering", "count"),
    ("controller.connects", "count"),
    ("controller.failed_dials", "count"),
    ("controller.timeouts", "count"),
    ("controller.replays", "count"),
    ("controller.completed_per_connect", "ratio"),
    ("pfvm.instantiate_us", "us"),
    ("pfvm.ns_per_send_d1", "ns"),
    ("pfvm.ns_per_send_d4", "ns"),
    ("pfvm.ns_per_send_d8", "ns"),
    ("pfvm.ns_per_recv_d1", "ns"),
    ("pfvm.ns_per_recv_d4", "ns"),
    ("pfvm.ns_per_recv_d8", "ns"),
    ("pfvm.insns_per_adjudication", "count"),
    ("pfvm.fuse.dedup_hit_ratio", "ratio"),
    ("pfvm.fuse.replays", "count"),
    ("pfvm.adjudications", "count"),
    ("pfvm.denials", "count"),
    ("pfvm.share_of_wall", "ratio"),
    ("netsim.ns_per_event", "ns"),
    ("netsim.events", "count"),
    ("netsim.shard.handoffs", "count"),
    ("netsim.shard.windows", "count"),
    ("netsim.pool.cow_copies", "count"),
    ("netsim.drops", "count"),
    ("netsim.build_us_per_host", "us"),
    ("netsim.rss_kb_per_host", "kB"),
    ("runner.wall_ms_per_task", "ms"),
    ("runner.report_seal_ms", "ms"),
    ("runner.json_seq_ms", "ms"),
    ("runner.completed", "count"),
    ("runner.failed", "count"),
    ("runner.aborted", "count"),
    ("runner.unattributed_share", "ratio"),
    ("host.cores", "count"),
    ("host.threads", "count"),
    ("host.calib_ms", "ms"),
    ("host.speed", "ratio"),
    ("host.cpu_s", "s"),
    ("host.vol_ctx_switches_per_task", "count"),
    ("host.thread_spawn_us", "us"),
    ("host.mpsc_roundtrip_us", "us"),
    ("obs.traced_overhead_pct", "%"),
    ("obs.span_coverage", "ratio"),
    // The issue's end-to-end metrics that cannot be the contract's, which
    // wants each of those on every workload, never 0, and no time that
    // reads the same on every run: exact per seed (simulated time,
    // accuracy, failures) or defined on one workload only. The traced
    // result line is the one place where the driver sees them.
    ("task_virtual_p50_ms", "ms"),
    ("task_virtual_p99_ms", "ms"),
    ("ctrl_virtual_p99_ms", "ms"),
    ("bwest_worst_err_pct", "%"),
    ("failed_frac", "ratio"),
    ("adjud_d1_per_s", "1/s"),
    ("adjud_d4_per_s", "1/s"),
    ("adjud_d8_per_s", "1/s"),
    ("passes.settled", "count"),
    ("passes.unsettled", "count"),
];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: pins::PINNED_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: not {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn run_workload(args: &Args, tracer: &mut Tracer) -> Outcome {
    let pins = pins::Pins::load();
    // `pump_50k` advances its shards in parallel; everything else has one
    // thread runnable at a time and is pinned, see `pin_to_one_cpu`.
    let pinned_cpu = if args.workload == "pump_50k" {
        None
    } else {
        harness::pin_to_one_cpu()
    };
    let mut out = match args.workload.as_str() {
        "fleet_ping" => fleet::run(args, tracer, fleet::Kind::Ping, &pins),
        "fleet_trace" => fleet::run(args, tracer, fleet::Kind::Trace, &pins),
        "fleet_chaos" => fleet::run(args, tracer, fleet::Kind::Chaos, &pins),
        "ctrl_mux" => ctrl_mux::run(args, tracer, &pins),
        "bwest_corpus" => bwest::run(args, tracer, &pins),
        "pump_50k" => pump::run(args, tracer, &pins),
        "monitor_chain" => monitor::run(args, tracer, &pins),
        other => unreachable!("parse_args let {other} through"),
    };
    out.pinned_cpu = pinned_cpu;
    out
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the metrics being the end-to-end ones of an untraced
/// run and the per-layer ones of a traced run.
fn result_line(args: &Args, out: &Outcome) -> String {
    let metrics: Vec<String> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = out.layers.get(name).copied().unwrap_or(0.0);
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    harness::json_str(name),
                    harness::num(v),
                    harness::json_str(unit)
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&name| {
                let own = if name == "work_per_s" { out.work } else { name };
                let m = out
                    .metrics
                    .iter()
                    .find(|m| m.name == own)
                    .expect("every workload reports the contract's metrics");
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    harness::json_str(name),
                    harness::num(m.value),
                    harness::json_str(m.unit)
                )
            })
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.check_failures.is_empty(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    // The calibration process, see `harness::calib_ms`.
    if std::env::args().nth(1).as_deref() == Some("--calibrate") {
        harness::calibrate();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("plab-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = Tracer::default();
    // Whatever becomes of the workload, the calibration process it started
    // is stopped and waited for.
    let run = catch_unwind(AssertUnwindSafe(|| run_workload(&args, &mut tracer)));
    harness::calib_stop();
    let mut out = run.unwrap_or_else(|panic| resume_unwind(panic));

    out.layer("host.cores", harness::cores() as f64);
    out.layer("host.threads", out.threads as f64);
    out.layer("host.cpu_s", harness::cpu_secs());
    out.layer("passes.settled", (out.reps - out.unsettled) as f64);
    out.layer("passes.unsettled", out.unsettled as f64);
    if args.trace {
        // The spans are of any use only if they account for the pass.
        let coverage =
            tracer.top_level_ns_since(out.traced_from_ns) as f64 / out.traced_wall_ns.max(1) as f64;
        out.layer("obs.span_coverage", coverage);
        out.check(coverage >= 0.95, || {
            format!("top-level spans cover {coverage:.3} of the traced pass, under 0.95")
        });
    }
    for m in &out.metrics {
        if !m.value.is_finite() {
            out.check_failures
                .push(format!("{} is not a finite number", m.name));
        }
    }
    let unknown: Vec<&str> = out
        .layers
        .keys()
        .copied()
        .filter(|k| !PER_LAYER.iter().any(|(name, _)| name == k))
        .collect();
    assert!(
        unknown.is_empty(),
        "layers missing from PER_LAYER: {unknown:?}"
    );
    for v in out.layers.values_mut() {
        if !v.is_finite() {
            *v = 0.0;
        }
    }

    println!(
        "{} seed {} {}: {} passes measured, {} of them unsettled, {} threads on {} cores, {}",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        out.reps,
        out.unsettled,
        out.threads,
        harness::cores(),
        out.pinned_cpu
            .map_or("not pinned".into(), |c| format!("pinned to CPU {c}"))
    );
    for m in &out.metrics {
        println!(
            "  {:<28} {:>16.4} {:<6} (median {:.4}, min {:.4}, max {:.4}, n {})",
            m.name, m.value, m.unit, m.median, m.min, m.max, m.n
        );
    }
    if args.trace {
        for &(name, unit) in &PER_LAYER {
            if let Some(v) = out.layers.get(name) {
                println!("  {name:<38} {v:>16.4} {unit}");
            }
        }
    }
    for f in &out.check_failures {
        println!("  CHECK FAILED: {f}");
    }

    let file = if args.trace {
        format!("trace_{}.json", args.workload)
    } else {
        format!("{}.json", args.workload)
    };
    let dir = std::path::Path::new("benchmark/out");
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        std::fs::write(
            dir.join(&file),
            harness::record_json(&args, &out, &PER_LAYER, &tracer),
        )
    });
    if let Err(e) = written {
        eprintln!("plab-benchmark: cannot write benchmark/out/{file}: {e}");
        return ExitCode::from(2);
    }

    println!("{}", result_line(&args, &out));
    if out.check_failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
