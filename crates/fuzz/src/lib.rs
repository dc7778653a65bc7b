//! # plab-fuzz — deterministic adversarial-input harness
//!
//! PacketLab's security model (§3 of the paper) rests on endpoints parsing
//! artifacts — wire messages, certificate chains, and monitor programs —
//! supplied by *untrusted* experiment controllers. Every byte-level parser
//! in the workspace is therefore an adversarial boundary: a hostile peer
//! must not be able to panic, hang, or balloon the memory of an endpoint.
//!
//! This crate turns that requirement into a checkable property. It is a
//! seed-driven, structure-aware mutational fuzzer in the style of
//! libFuzzer/AFL, but fully deterministic (the vendored xorshift64* RNG,
//! no wall clock, no global state) so a `(target, seed, iters)` triple
//! always reproduces the same execution — the same discipline as the chaos
//! and netsim harnesses in this repo.
//!
//! Five targets, mirroring the untrusted surfaces:
//!
//! | target   | surface                                  | oracles |
//! |----------|------------------------------------------|---------|
//! | `wire`   | `Message::decode` + `FrameDecoder`       | no panic; decode→encode→decode fixed point; canonical re-encode; split invariance over adversarial chunkings; sticky error + bounded buffering after poison |
//! | `cert`   | `Certificate::decode` + chain/set verify | no panic; decode→encode→decode fixed point; any single-byte corruption of a signed certificate must be rejected |
//! | `cpf`    | `lex → parse → sema → codegen`           | no panic; compiler output always validates; compiled programs agree with the naive reference VM (verdict, persistent memory, instruction count) |
//! | `filter` | `Program::decode` + `validate` + `Vm`    | no panic; decode fixed point; "validator accepts ⇒ VM terminates within fuel without trapping unsafely"; differential vs the reference VM |
//! | `fused`  | `FusedVm` monitor-chain execution        | no panic; fused + threaded + outcome-replay execution of arbitrary validated chains is bit-identical to the sequential reference walk (composite verdicts, per-monitor persistent memory, per-monitor fuel attribution) |
//!
//! Every input that ever violated an oracle is minimized and checked into
//! `corpus/<target>/`, replayed by `tests/corpus_replay.rs` as a plain
//! `cargo test` so regressions are caught without running the fuzzer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mutate;
pub mod reference;
pub mod targets;

use plab_obs::metrics::Counter;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Fuzz target names accepted by [`run_target`].
pub const TARGETS: &[&str] = &["wire", "cert", "cpf", "filter", "fused"];

static EXECS: Counter = Counter::new("fuzz.execs");
static REJECTS: Counter = Counter::new("fuzz.rejects");
static ORACLE_FAILURES: Counter = Counter::new("fuzz.oracle_failures");
static PANICS: Counter = Counter::new("fuzz.panics");

/// Outcome of one input execution (when no oracle failed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// The parser accepted the input (and all acceptance oracles held).
    Accepted,
    /// The parser rejected the input with a typed error (the correct
    /// response to most mutated inputs).
    Rejected,
}

/// Aggregate result of a fuzz run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Target name.
    pub target: &'static str,
    /// Seed the run started from.
    pub seed: u64,
    /// Inputs executed.
    pub execs: u64,
    /// Inputs the parser accepted.
    pub accepted: u64,
    /// Inputs the parser rejected with a typed error.
    pub rejects: u64,
    /// Oracle violations (fixed-point/differential/invariance failures).
    pub oracle_failures: u64,
    /// Panics caught while executing inputs.
    pub panics: u64,
    /// Up to [`MAX_STORED_FAILURES`] failing inputs, hex-encoded with the
    /// oracle message, for reproduction.
    pub failures: Vec<String>,
}

/// Cap on stored failure repros (counters keep counting past this).
pub const MAX_STORED_FAILURES: usize = 8;

impl Report {
    fn new(target: &'static str, seed: u64) -> Report {
        Report {
            target,
            seed,
            execs: 0,
            accepted: 0,
            rejects: 0,
            oracle_failures: 0,
            panics: 0,
            failures: Vec::new(),
        }
    }

    /// True when the run found nothing: no panics, no oracle violations.
    pub fn clean(&self) -> bool {
        self.oracle_failures == 0 && self.panics == 0
    }

    /// Record one execution result.
    fn record(&mut self, input: &[u8], outcome: Result<Result<Exec, String>, String>) {
        self.execs += 1;
        EXECS.inc();
        match outcome {
            Ok(Ok(Exec::Accepted)) => self.accepted += 1,
            Ok(Ok(Exec::Rejected)) => {
                self.rejects += 1;
                REJECTS.inc();
            }
            Ok(Err(msg)) => {
                self.oracle_failures += 1;
                ORACLE_FAILURES.inc();
                self.store_failure("oracle", &msg, input);
            }
            Err(msg) => {
                self.panics += 1;
                PANICS.inc();
                self.store_failure("panic", &msg, input);
            }
        }
    }

    fn store_failure(&mut self, kind: &str, msg: &str, input: &[u8]) {
        if self.failures.len() < MAX_STORED_FAILURES {
            self.failures
                .push(format!("{kind}: {msg} input={}", hex(input)));
        }
    }
}

/// Lowercase hex of a byte string (truncated for huge inputs).
pub fn hex(bytes: &[u8]) -> String {
    let shown = &bytes[..bytes.len().min(512)];
    let mut s: String = shown.iter().map(|b| format!("{b:02x}")).collect();
    if bytes.len() > shown.len() {
        s.push_str(&format!("..({} bytes)", bytes.len()));
    }
    s
}

/// Execute one input under panic capture and record it into the report.
pub(crate) fn exec_one<F>(report: &mut Report, input: &[u8], f: F)
where
    F: FnOnce() -> Result<Exec, String>,
{
    let caught = catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        let msg = e
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| e.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        msg
    });
    report.record(input, caught);
}

/// Run a named target for `iters` iterations from `seed`.
///
/// Returns `None` for an unknown target name.
pub fn run_target(target: &str, seed: u64, iters: u64) -> Option<Report> {
    match target {
        "wire" => Some(targets::wire::run(seed, iters)),
        "cert" => Some(targets::cert::run(seed, iters)),
        "cpf" => Some(targets::cpf::run(seed, iters)),
        "filter" => Some(targets::filter::run(seed, iters)),
        "fused" => Some(targets::fused::run(seed, iters)),
        _ => None,
    }
}

/// Replay one corpus input through a target's oracles (no mutation).
///
/// Used by the checked-in corpus regression test; a `Err` return or a panic
/// means a previously fixed bug is back.
pub fn replay(target: &str, bytes: &[u8]) -> Option<Result<Exec, String>> {
    match target {
        "wire" => Some(targets::wire::check(bytes)),
        "cert" => Some(targets::cert::check(bytes)),
        "cpf" => Some(targets::cpf::check(bytes)),
        "filter" => Some(targets::filter::check(bytes)),
        "fused" => Some(targets::fused::check(bytes)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_target_is_none() {
        assert!(run_target("bogus", 1, 1).is_none());
        assert!(replay("bogus", &[]).is_none());
    }

    #[test]
    fn smoke_all_targets() {
        for t in TARGETS {
            let r = run_target(t, 0xfeed, 300).unwrap();
            assert!(r.clean(), "{t}: {:?}", r.failures);
            assert_eq!(r.execs, 300);
            // Structure-aware generation must exercise the accept path too.
            assert!(r.accepted > 0, "{t}: no inputs accepted");
            assert!(r.rejects > 0, "{t}: no inputs rejected");
        }
    }

    #[test]
    fn runs_are_deterministic() {
        for t in TARGETS {
            let a = run_target(t, 42, 150).unwrap();
            let b = run_target(t, 42, 150).unwrap();
            assert_eq!(a.accepted, b.accepted, "{t}");
            assert_eq!(a.rejects, b.rejects, "{t}");
        }
    }
}
