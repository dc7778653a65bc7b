//! Deterministic fuzz driver for the adversarial-input harness.
//!
//! Runs every `plab-fuzz` target (or the one `--target` names) for
//! `--iters` seed-driven iterations (default 10,000 from `--seed`
//! 0xfeedface) and reports execution counters and any oracle failures or
//! caught panics. The same `(target, seed, iters)` triple always
//! reproduces the same execution. Exit status is non-zero when any run is
//! not clean, so CI can gate on it.

use plab_fuzz::{run_target, Report, TARGETS};
use plab_obs::export::json_escape;

fn print_report(r: &Report, json: bool) {
    if json {
        let failures: Vec<String> =
            r.failures.iter().map(|f| format!("\"{}\"", json_escape(f))).collect();
        println!(
            "{{\"target\":\"{}\",\"seed\":{},\"execs\":{},\"accepted\":{},\"rejects\":{},\
             \"oracle_failures\":{},\"panics\":{},\"clean\":{},\"failures\":[{}]}}",
            r.target,
            r.seed,
            r.execs,
            r.accepted,
            r.rejects,
            r.oracle_failures,
            r.panics,
            r.clean(),
            failures.join(",")
        );
    } else {
        println!(
            "fuzz {:<6} seed=0x{:x} execs={} accepted={} rejects={} oracle_failures={} panics={} -> {}",
            r.target,
            r.seed,
            r.execs,
            r.accepted,
            r.rejects,
            r.oracle_failures,
            r.panics,
            if r.clean() { "CLEAN" } else { "FAILING" }
        );
        for f in &r.failures {
            println!("  {f}");
        }
    }
}

pub fn run(opts: &crate::Opts) -> i32 {
    let (seed, iters) = (opts.seed.unwrap_or(0xfeed_face), opts.iters.unwrap_or(10_000));
    let targets = opts.target.as_ref().map_or(TARGETS, std::slice::from_ref);
    let mut all_clean = true;
    for target in targets {
        let r = run_target(target, seed, iters).expect("a name from TARGETS");
        all_clean &= r.clean();
        print_report(&r, opts.json);
    }
    i32::from(!all_clean)
}
