//! F/chaos: the control plane under deterministic fault injection.
//!
//! Replays the §4 experiments (traceroute, uplink bandwidth) and a Table 1
//! conformance sweep against seeded fault schedules (link flaps, burst
//! loss, delay changes, partitions, TCP resets, endpoint crash/restart),
//! and reports each run's verdict, observables digest, and retry counters.
//!
//! Alone it runs the fixed-seed corpus (same as CI); `--seed` replays one
//! seed (every scenario, or the one `--scenario` names); `--sweep N` runs
//! N seeds a scenario derived from `--base`. `--trace` turns the flight
//! recorder on: each seed runs twice, the dumps must be byte-identical,
//! the recorder tail prints on abort or divergence and the artifacts are
//! written. Every line echoes the seed: paste it back with `--seed` to
//! reproduce a run bit-for-bit.

use packetlab::chaos::{self, ChaosOutcome, ChaosVerdict, Scenario};

/// One run's result, as collected for reporting.
struct Row {
    outcome: ChaosOutcome,
    deterministic: bool,
}

/// Print the last `n` lines of a flight-recorder text dump.
fn print_tail(dump: &str, n: usize) {
    let lines: Vec<&str> = dump.lines().collect();
    let keep = lines.len().saturating_sub(n);
    if keep > 0 {
        println!("  ... ({keep} earlier events)");
    }
    for line in &lines[keep..] {
        println!("  {line}");
    }
}

/// Run a seed twice (determinism is part of the contract) and report.
fn run_one(scenario: Scenario, seed: u64, trace: bool) -> Row {
    if !trace {
        let out = chaos::run(scenario, seed);
        let again = chaos::run(scenario, seed);
        let deterministic = out == again;
        print_row(&out, deterministic);
        return Row { outcome: out, deterministic };
    }

    let first = chaos::run_traced(scenario, seed);
    let again = chaos::run_traced(scenario, seed);
    // The determinism contract in trace mode is stronger: not just the
    // outcome but the rendered flight-recorder artifacts must be
    // byte-identical across replays of the same seed.
    let deterministic = first == again;
    print_row(&first.outcome, deterministic);
    if !deterministic {
        println!("  TRACE DIVERGENCE — first run's recorder tail:");
        print_tail(&first.text_dump, 30);
        println!("  second run's recorder tail:");
        print_tail(&again.text_dump, 30);
    } else if matches!(first.outcome.verdict, ChaosVerdict::Aborted(_)) {
        println!("  flight-recorder tail at abort:");
        print_tail(&first.text_dump, 30);
    }

    // Artifacts for the trace viewer and diffing.
    let stem = format!("chaos_trace_{}_{seed:#018x}", scenario.name());
    std::fs::write(format!("{stem}.txt"), &first.text_dump).expect("write trace text dump");
    std::fs::write(format!("{stem}.json"), &first.chrome_json).expect("write chrome trace");
    println!("  wrote {stem}.txt and {stem}.json (chrome://tracing)");
    Row {
        outcome: first.outcome,
        deterministic,
    }
}

fn print_row(out: &ChaosOutcome, deterministic: bool) {
    let status = match (&out.verdict, deterministic) {
        (_, false) => "NONDETERMINISTIC",
        (ChaosVerdict::Completed, _) => "ok",
        (ChaosVerdict::Aborted(_), _) => "aborted",
    };
    println!("{status:>16}  {}", out.report());
}

pub fn run(opts: &crate::Opts) -> i32 {
    let base = opts.base.unwrap_or(0x5eed_0000);
    println!("F/chaos: control plane under deterministic fault schedules\n");

    let runs: Vec<(Scenario, u64)> = match (opts.scenario, opts.seed, opts.seeds) {
        (s, Some(seed), _) => {
            // Single-seed replay (all scenarios unless one is named).
            match s {
                Some(s) => vec![(s, seed)],
                None => Scenario::all().into_iter().map(|s| (s, seed)).collect(),
            }
        }
        (_, None, Some(n)) => {
            // Randomized sweep: n derived seeds per scenario, from `base`
            // (CI passes a fresh base and logs it; any failure names the
            // exact derived seed to replay).
            println!("sweep of {n} seeds per scenario from base {base:#x}\n");
            let mut runs = Vec::new();
            for s in Scenario::all() {
                for k in 0..n {
                    runs.push((s, base.wrapping_add(k.wrapping_mul(0x9e37_79b9))));
                }
            }
            runs
        }
        (Some(s), None, None) => chaos::corpus().into_iter().filter(|(c, _)| *c == s).collect(),
        (None, None, None) => chaos::corpus(),
    };

    let rows: Vec<Row> = runs
        .into_iter()
        .map(|(s, seed)| run_one(s, seed, opts.trace))
        .collect();
    let all_deterministic = rows.iter().all(|r| r.deterministic);
    let completed = rows
        .iter()
        .filter(|r| matches!(r.outcome.verdict, ChaosVerdict::Completed))
        .count();

    println!(
        "\n{completed} completed, {} aborted cleanly, 0 hung (by construction)",
        rows.len() - completed
    );
    if !all_deterministic {
        println!("NONDETERMINISM DETECTED — see lines above for seeds");
    }
    i32::from(!all_deterministic)
}
