//! Bandwidth-estimation accuracy sweep: run the `plab-bwest` probe suite
//! (TCP bulk drain + UDP dispersion cross-check over a RobustController)
//! against every entry of the 20-topology ground-truth corpus
//! (`plab_netsim::roster::bw_corpus`) and report each destination's
//! estimate, signed error against the configured bottleneck, and
//! confidence grade.
//!
//! The whole corpus runs **twice** with the flight recorder on and the
//! rendered artifacts — the qlog-style JSON-SEQ trace and the Prometheus
//! text exposition — must be byte-identical across the replays; any
//! divergence exits non-zero. Artifacts land next to the report:
//!
//! - `bwest_trace.jsonseq` — one JSON-SEQ record per recorded event
//!   (probes, trains, slips, estimates), virtual-clock stamped.
//! - `bwest_metrics.prom`  — the metric snapshot in Prometheus text
//!   exposition format.
//! - `BENCH_bwest.json`    — the accuracy table + artifact digests (the
//!   committed record; `repro guard bwest` pins the same trace digest).
//!
//! Pass bar (same as the guard's): ≥ 18 of 20 topologies with every
//! destination inside the 20% accuracy budget. `--json` prints the
//! report on stdout.

use plab_bench::bwest::{passes_per_event, run_corpus, BwestPoint, MIN_WITHIN, TOLERANCE_PCT};
use plab_bench::reportjson::{emit_report, json_rows};
use plab_obs::export::fnv1a64;
use packetlab::controller::experiments::bwest::Confidence;

fn confidence_name(c: Confidence) -> &'static str {
    match c {
        Confidence::High => "high",
        Confidence::Medium => "medium",
        Confidence::Low => "low",
    }
}

fn render_row(p: &BwestPoint) -> String {
    let truths: Vec<String> = p.truth.iter().map(u64::to_string).collect();
    let ests: Vec<String> =
        p.report.dests.iter().map(|d| d.bits_per_sec.to_string()).collect();
    let confs: Vec<String> = p
        .report
        .dests
        .iter()
        .map(|d| format!("\"{}\"", confidence_name(d.confidence)))
        .collect();
    format!(
        "{{\"name\": \"{}\", \"truth_bps\": [{}], \"est_bps\": [{}], \
         \"confidence\": [{}], \"worst_error_pct\": {:.1}, \"within\": {}}}",
        p.name,
        truths.join(", "),
        ests.join(", "),
        confs.join(", "),
        p.worst_error_pct(),
        p.worst_error_pct() <= TOLERANCE_PCT,
    )
}

pub fn run(opts: &crate::Opts) -> i32 {
    let json = opts.json;

    let (points, qlog, prom) = run_corpus();
    let events: u64 = points.iter().map(|p| p.events).sum();
    let per_event = passes_per_event(&points);
    let (again, qlog_b, prom_b) = run_corpus();
    let replay_rows_match = points.len() == again.len()
        && points.iter().zip(&again).all(|(a, b)| render_row(a) == render_row(b));
    let artifacts_identical = qlog == qlog_b && prom == prom_b;
    let trace_fnv = fnv1a64(qlog.as_bytes());
    let prom_fnv = fnv1a64(prom.as_bytes());

    let within =
        points.iter().filter(|p| p.worst_error_pct() <= TOLERANCE_PCT).count();
    let pass = within >= MIN_WITHIN && artifacts_identical && replay_rows_match;

    if !json {
        println!(
            "bwest accuracy: {} topologies, {TOLERANCE_PCT}% budget (bar: {MIN_WITHIN} within)\n",
            points.len()
        );
        for p in &points {
            let d0 = &p.report.dests[0];
            println!(
                "{:>16}  est {:>10} bps (truth {:>10})  err {:>+6.1}%  {:>6}  {}",
                p.name,
                d0.bits_per_sec,
                p.truth[0],
                p.error_pct(0),
                confidence_name(d0.confidence),
                if p.worst_error_pct() <= TOLERANCE_PCT { "ok" } else { "MISS" },
            );
        }
        println!(
            "\n{within}/{} within budget; trace {trace_fnv:#018x} prom {prom_fnv:#018x} \
             replay {}; {events} events, {per_event:.3} servicing passes per event",
            points.len(),
            if artifacts_identical && replay_rows_match { "identical" } else { "DIVERGED" },
        );
    }

    std::fs::write("bwest_trace.jsonseq", &qlog).expect("write qlog trace");
    std::fs::write("bwest_metrics.prom", &prom).expect("write prometheus exposition");

    let rows: Vec<String> = points.iter().map(render_row).collect();
    let mut out = format!(
        "  \"tolerance_pct\": {TOLERANCE_PCT},\n  \"min_within\": {MIN_WITHIN},\n  \
         \"within\": {within},\n  \"topologies\": {},\n  \
         \"trace_fnv\": \"{trace_fnv:#018x}\",\n  \"prom_fnv\": \"{prom_fnv:#018x}\",\n  \
         \"artifacts_identical\": {artifacts_identical},\n  \"events\": {events},\n  \
         \"passes_per_event\": {per_event:.3},\n  \"sweep\": [\n",
        points.len()
    );
    out.push_str(&json_rows(&rows, "    "));
    out.push_str(&format!("\n  ],\n  \"pass\": {pass}\n}}\n"));
    emit_report("bwest", "BENCH_bwest.json", &out, json);
    i32::from(!pass)
}
