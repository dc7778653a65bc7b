//! Fuzz target: fused monitor-chain execution vs the sequential reference.
//!
//! The blob encodes an arbitrary monitor chain: byte 0 picks the chain
//! length (1–4), followed by that many `u32`-LE-length-prefixed `Program`
//! encodings; any remaining bytes become packet material. Oracles:
//!
//! - chains of individually validated programs always fuse;
//! - the fused, threaded, outcome-replaying execution is observationally
//!   identical to running each monitor sequentially on the naive reference
//!   interpreter: same composite verdicts (short-circuit order included),
//!   same per-monitor persistent memory, same per-monitor fuel attribution;
//! - re-adjudication after persistent state has evolved stays identical
//!   (a replayer whose segment a stopped walk left behind its recorder's
//!   must stop taking the recorder's outcome).

use crate::mutate::{mutate, random_bytes};
use crate::reference::RefVm;
use crate::targets::filter::gen_program;
use crate::{exec_one, Exec, Report};
use plab_filter::{validate, EntryPoint, FusedVm, Program, Verdict};
use plab_packet::codec::{Reader, Writer};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Per-monitor fuel for differential runs.
const FUEL: u64 = 10_000;

/// Split the blob into its length-prefixed program encodings plus the
/// trailing packet material. `None` means structurally unparseable.
fn split_blob(bytes: &[u8]) -> Option<(Vec<&[u8]>, &[u8])> {
    let mut r = Reader::new(bytes);
    let n = 1 + (r.u8().ok()? as usize % 4);
    let parts = (0..n)
        .map(|_| r.bytes(usize::MAX))
        .collect::<Result<_, _>>()
        .ok()?;
    Some((parts, r.slice(r.remaining()).ok()?))
}

/// The sequential chain walk the fused engine must be indistinguishable
/// from: first non-allow wins; otherwise the last monitor's verdict when
/// it defines the entry, the implicit allow when it does not.
fn ref_composite(
    programs: &[Program],
    refs: &mut [RefVm],
    entry: &str,
    packet: &[u8],
    info: &[u8],
) -> Verdict {
    let default_allow = Verdict::Allow(packet.len().max(1) as u64);
    let mut last = default_allow;
    for (i, r) in refs.iter_mut().enumerate() {
        if programs[i].entry(entry).is_none() {
            continue;
        }
        let verdict = match r.run(entry, packet, info) {
            Ok(0) => Verdict::Deny,
            Ok(v) => Verdict::Allow(v),
            Err(t) => Verdict::Fault(t),
        };
        if !verdict.allowed() {
            return verdict;
        }
        last = verdict;
    }
    if programs.last().is_some_and(|p| p.entry(entry).is_some()) {
        last
    } else {
        default_allow
    }
}

/// Oracle function for one candidate chain blob.
pub fn check(bytes: &[u8]) -> Result<Exec, String> {
    let Some((parts, tail)) = split_blob(bytes) else {
        return Ok(Exec::Rejected);
    };
    let mut programs = Vec::with_capacity(parts.len());
    for part in parts {
        match Program::decode(part) {
            Ok(p) if validate(&p).is_ok() => programs.push(p),
            _ => return Ok(Exec::Rejected),
        }
    }
    let n = programs.len();
    let mut fused = FusedVm::new(programs.clone(), vec![FUEL; n])
        .map_err(|(i, e)| format!("validated program {i} rejected by fusion: {e:?}"))?;
    let mut refs: Vec<RefVm> = programs
        .iter()
        .map(|p| RefVm::new(p.clone(), FUEL))
        .collect();
    let info: Vec<u8> = (0u8..32)
        .map(|i| i.wrapping_mul(7).wrapping_add(3))
        .collect();

    fused.init_all(&info);
    for (p, r) in programs.iter().zip(refs.iter_mut()) {
        if p.entry("init").is_some() {
            let _ = r.run("init", &[], &info);
        }
    }

    let pkt_small: Vec<u8> = (0u8..16).map(|i| i.wrapping_mul(5)).collect();
    let pkt_big: Vec<u8> = (0u8..96)
        .map(|i| i.wrapping_mul(3).wrapping_add(7))
        .collect();
    let packets: [&[u8]; 4] = [&[], &pkt_small, &pkt_big, tail];
    // Two rounds so round 2 adjudicates against persistent state written in
    // round 1 — a record must never outlive the packet that recorded it.
    for round in 0..2 {
        for (pi, pkt) in packets.iter().enumerate() {
            for entry in [EntryPoint::Send, EntryPoint::Recv, EntryPoint::Open] {
                let got = fused.check_entry(entry, pkt, &info);
                let want = ref_composite(&programs, &mut refs, entry.name(), pkt, &info);
                if got != want {
                    return Err(format!(
                        "verdict diverged (round {round}, packet {pi}, {}): fused={got:?} ref={want:?}",
                        entry.name()
                    ));
                }
            }
        }
    }
    for (i, r) in refs.iter().enumerate() {
        if fused.persistent_segment(i) != r.persistent.as_slice() {
            return Err(format!("monitor {i} persistent memory diverged"));
        }
        if fused.attributed()[i] != r.insns_executed {
            return Err(format!(
                "monitor {i} fuel attribution diverged: fused={} ref={}",
                fused.attributed()[i],
                r.insns_executed
            ));
        }
    }
    Ok(Exec::Accepted)
}

/// Mutational fuzz loop.
pub fn run(seed: u64, iters: u64) -> Report {
    let mut report = Report::new("fused", seed);
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..iters {
        let mut blob = if rng.gen_bool(0.9) {
            // Bias toward short chains: the accept rate multiplies across
            // monitors, and depth 1 already exercises the threaded engine.
            let n = if rng.gen_bool(0.5) {
                1
            } else {
                rng.gen_range(2usize..=4)
            };
            let mut encs: Vec<Vec<u8>> = Vec::with_capacity(n);
            for i in 0..n {
                // Repeating an earlier program exercises replay; a copy
                // that lands past an intervening program lets a walk stop
                // between recorder and replayer, so most land there.
                let enc = if i > 0 && rng.gen_bool(0.3) {
                    let before = if i > 1 && rng.gen_bool(0.75) {
                        i - 1
                    } else {
                        i
                    };
                    encs[rng.gen_range(0..before)].clone()
                } else {
                    gen_program(&mut rng).encode()
                };
                encs.push(enc);
            }
            Writer::build(0, |w| {
                w.u8((n - 1) as u8);
                encs.iter().for_each(|enc| w.bytes(enc));
                w.raw(&random_bytes(&mut rng, 64));
            })
        } else {
            random_bytes(&mut rng, 160)
        };
        if rng.gen_bool(0.5) {
            mutate(&mut rng, &mut blob);
        }
        exec_one(&mut report, &blob, || check(&blob));
    }
    report
}
