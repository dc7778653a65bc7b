//! Monitor-chain fusion: one PFVM execution for a whole `MonitorSet`.
//!
//! A PacketLab endpoint runs *every* monitor in the authorization chain
//! against every packet. Executed naively that costs one full interpreter
//! invocation per monitor — and monitors in a chain are heavily redundant:
//! operators delegate one certificate's monitor unchanged, so a chain is
//! mostly copies. A [`FusedVm`] prepares the chain once, when the
//! certificates are presented, as a single execution with bit-identical
//! semantics. The set of monitors never changes afterwards (no PacketLab
//! message carries a certificate after authentication), so there is one
//! constructor and no rebuild path.
//!
//! - **Segment remapping.** Each monitor's persistent and scratch segments
//!   become disjoint slices of one shared buffer. Programs are *not*
//!   rewritten: the slice boundaries enforce exactly the per-monitor
//!   bounds the sequential interpreter enforced, and every monitor performs
//!   its own loads, so every monitor reaching a trapping load traps for
//!   itself.
//! - **Whole-outcome replay between identical monitors.** When a
//!   monitor's program (and fuel budget) is byte-identical to an earlier
//!   monitor's, the earlier one — its *recorder* — runs a twin of its
//!   stream that logs every persistent write, and the later one, while it
//!   is *in lock-step* (its persistent segment equal to the recorder's),
//!   applies that log to its own segment and takes the recorder's result
//!   and fuel without executing. A run is a deterministic function of
//!   program, fuel budget, entry, packet, info block, zeroed scratch,
//!   initial registers and persistent segment; lock-step makes the last
//!   equal too, so verdict, trap, fuel and writes are exactly the ones the
//!   sequential walk produces. Segments start zeroed, and taking the log
//!   keeps them equal. Only a walk that stops (deny or fault) after a
//!   recorder whose run wrote and before the replayer can part them; the
//!   replayer then runs its own stream for the rest of the session.
//! - **Fuel attribution.** Every section runs under its own fuel budget
//!   and its exact consumption (including replayed outcomes) is
//!   accumulated per monitor, so observability reports the same
//!   per-monitor instruction counts as sequential execution.
//!
//! The per-instruction half of the speed-up — superinstructions over the
//! compiler's field-load, compare and return idioms — belongs to
//! [`crate::lower`] and serves the single-program driver as well.
//!
//! The chain verdict is the first non-allow verdict in monitor order, or —
//! when every monitor allows — the verdict of the *last* monitor
//! (missing entries count as allow), matching a sequential walk over the
//! set.

use crate::lower::{self, TInsn};
use crate::program::{EntryPoint, Program};
use crate::validate::{validate, NUM_REGS, ValidateError};
use crate::vm::Trap;
use crate::Verdict;

/// Static and runtime counters for one fused chain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuseStats {
    /// Monitors fused.
    pub sections: u64,
    /// Source instructions across all monitors.
    pub orig_insns: u64,
    /// Threaded instructions across all monitors (after superinstruction
    /// formation).
    pub fused_insns: u64,
    /// Superinstructions formed.
    pub superinsns: u64,
    /// Superinstructions by covered source length (index = length).
    pub super_len: [u64; 4],
    /// Sections whose program and fuel budget repeat an earlier
    /// section's, and so take its outcome while in lock-step with it.
    pub replay_sections: u64,
    /// Always 0. The cross-monitor load cache these counted is gone (it
    /// measured at parity with plain loads on its own best case); the
    /// field stays because the repo benchmark, which this crate may not
    /// edit, reads it to print `pfvm.fuse.dedup_hit_ratio`.
    pub dedup_hits: u64,
    /// Always 0, kept for the same reader as `dedup_hits`.
    pub dedup_misses: u64,
    /// Runtime: outcomes a replaying section took whole from its recorder.
    pub replays: u64,
    /// Runtime: runs of a replaying section out of lock-step, which
    /// executed its own stream.
    pub reruns: u64,
    /// Runtime: section runs that executed a stream of their own
    /// (recorders, sections without a twin, and reruns).
    pub executed: u64,
}

/// One monitor inside the fused chain.
struct Section {
    /// Threaded code.
    tcode: Vec<TInsn>,
    /// Per-monitor fuel budget.
    fuel: u64,
    /// This monitor's persistent segment inside the shared buffer.
    mem_off: usize,
    mem_len: usize,
    /// This monitor's scratch segment inside the shared buffer.
    scr_off: usize,
    scr_len: usize,
    /// Write-logging twin of `tcode`; empty unless some later section
    /// replays this one.
    record_tcode: Vec<TInsn>,
    /// Index of the first earlier section with an identical program and
    /// fuel budget: the recorder whose outcome this section takes.
    replay_from: Option<usize>,
    /// Set while this section's persistent segment equals its recorder's.
    /// Cleared for good once a walk stops between the two after the
    /// recorder wrote; never set again.
    lockstep: bool,
}

/// What a recorder's run did this invocation: the outcome a replayer in
/// lock-step takes. The log keeps its capacity across invocations, so
/// steady-state recording never allocates.
struct Record {
    /// Result of the run.
    result: Result<u64, Trap>,
    /// Fuel it consumed.
    used: u64,
    /// Persistent writes `(segment offset, value)` it performed, in order.
    log: Vec<(u64, u64)>,
}

/// Per-entry chain: the sections that define the entry, in monitor order.
struct Chain {
    /// (section index, threaded entry pc).
    links: Vec<(u32, u32)>,
    /// True when the last monitor of the set is the last link — its
    /// verdict is then the chain verdict when everything allows.
    ends_with_last_monitor: bool,
}

/// A fused monitor chain: all monitors of a set prepared as one
/// execution. Construction is the slow path (validation, lowering,
/// identical-section detection); adjudication is allocation-free.
pub struct FusedVm {
    sections: Vec<Section>,
    /// Shared persistent buffer; sections slice disjoint segments.
    persistent: Vec<u8>,
    /// Shared scratch buffer, zeroed once per adjudication.
    scratch: Vec<u8>,
    chains: [Chain; EntryPoint::COUNT],
    /// Per-section record of this invocation (used by recorders only).
    records: Vec<Record>,
    /// Some recorder's run this invocation logged a write.
    wrote: bool,
    /// Per-monitor cumulative instructions executed.
    attributed: Vec<u64>,
    /// Static counters, set at construction, and the runtime ones.
    stats: FuseStats,
}

impl FusedVm {
    /// Fuse `programs` (validated here; errors carry the offending
    /// monitor's index) with per-monitor fuel budgets, starting with
    /// zeroed persistent memory.
    ///
    /// Panics if `fuels` disagrees with `programs` in length — a caller
    /// bug, not an input error.
    pub fn new(programs: Vec<Program>, fuels: Vec<u64>) -> Result<FusedVm, (usize, ValidateError)> {
        assert_eq!(programs.len(), fuels.len(), "one fuel budget per monitor");
        for (i, p) in programs.iter().enumerate() {
            validate(p).map_err(|e| (i, e))?;
        }

        let mut stats = FuseStats { sections: programs.len() as u64, ..FuseStats::default() };
        let mut sections: Vec<Section> = Vec::with_capacity(programs.len());
        let mut chains = [(); EntryPoint::COUNT].map(|()| Chain {
            links: Vec::new(),
            ends_with_last_monitor: false,
        });
        let mut mem_off = 0usize;
        let mut scr_off = 0usize;
        for (i, program) in programs.iter().enumerate() {
            let lowered = lower::lower(program);
            stats.orig_insns += lowered.stats.orig_insns;
            stats.fused_insns += lowered.stats.threaded_insns;
            stats.superinsns += lowered.stats.superinsns;
            for (len, n) in lowered.stats.super_len.iter().enumerate() {
                stats.super_len[len] += n;
            }
            for ep in EntryPoint::ALL {
                if let Some(pc) = program.entry(ep.name()) {
                    chains[ep as usize].links.push((i as u32, lowered.pc_map[pc as usize]));
                }
            }
            let mem_len = program.persistent_size as usize;
            let scr_len = program.scratch_size as usize;
            let replay_from =
                (0..i).find(|&j| programs[j] == *program && fuels[j] == fuels[i]);
            if let Some(j) = replay_from {
                stats.replay_sections += 1;
                if sections[j].record_tcode.is_empty() {
                    sections[j].record_tcode = lower::record_variant(&sections[j].tcode);
                }
            }
            sections.push(Section {
                tcode: lowered.tcode,
                fuel: fuels[i],
                mem_off,
                mem_len,
                scr_off,
                scr_len,
                record_tcode: Vec::new(),
                replay_from,
                lockstep: replay_from.is_some(),
            });
            mem_off += mem_len;
            scr_off += scr_len;
        }
        for chain in &mut chains {
            chain.ends_with_last_monitor =
                chain.links.last().is_some_and(|&(i, _)| i as usize == sections.len() - 1);
        }

        let records =
            sections.iter().map(|_| Record { result: Ok(0), used: 0, log: Vec::new() }).collect();
        Ok(FusedVm {
            attributed: vec![0u64; sections.len()],
            sections,
            persistent: vec![0u8; mem_off],
            scratch: vec![0u8; scr_off],
            chains,
            records,
            wrote: false,
            stats,
        })
    }

    /// Monitors in the chain.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// True when the chain has no monitors (everything allowed).
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Monitor `i`'s persistent segment (for tests and diagnostics).
    pub fn persistent_segment(&self, i: usize) -> &[u8] {
        let s = &self.sections[i];
        &self.persistent[s.mem_off..s.mem_off + s.mem_len]
    }

    /// Per-monitor cumulative instructions executed (same attribution as
    /// running each monitor's own [`crate::vm::Vm`]).
    pub fn attributed(&self) -> &[u64] {
        &self.attributed
    }

    /// Total instructions executed across the chain.
    pub fn insns_executed(&self) -> u64 {
        self.attributed.iter().sum()
    }

    /// Static fusion counters plus the runtime replay counters.
    pub fn stats(&self) -> FuseStats {
        self.stats
    }

    /// Run every monitor's `init` entry in order (chain instantiation).
    pub fn init_all(&mut self, info: &[u8]) {
        let _ = self.adjudicate(EntryPoint::Init, &[], info, false);
    }

    /// Adjudicate an outgoing packet: the chain's `send` entries.
    #[inline]
    pub fn check_send(&mut self, packet: &[u8], info: &[u8]) -> Verdict {
        self.check_entry(EntryPoint::Send, packet, info)
    }

    /// Adjudicate a captured packet: the chain's `recv` entries.
    #[inline]
    pub fn check_recv(&mut self, packet: &[u8], info: &[u8]) -> Verdict {
        self.check_entry(EntryPoint::Recv, packet, info)
    }

    /// Adjudicate `entry` across the chain, short-circuiting at the first
    /// non-allow verdict. Monitors without the entry allow implicitly.
    pub fn check_entry(&mut self, entry: EntryPoint, packet: &[u8], info: &[u8]) -> Verdict {
        self.adjudicate(entry, packet, info, true)
    }

    fn adjudicate(
        &mut self,
        entry: EntryPoint,
        packet: &[u8],
        info: &[u8],
        short_circuit: bool,
    ) -> Verdict {
        // Scratch is fresh per invocation.
        if !self.scratch.is_empty() {
            self.scratch.fill(0);
        }
        self.wrote = false;
        let default_allow = Verdict::Allow(packet.len().max(1) as u64);
        let n_links = self.chains[entry as usize].links.len();
        let mut last = default_allow;
        for li in 0..n_links {
            let (sec_idx, tpc) = self.chains[entry as usize].links[li];
            let (result, used) = self.run_link(sec_idx as usize, tpc as usize, packet, info);
            self.attributed[sec_idx as usize] += used;
            let verdict = match result {
                Ok(0) => Verdict::Deny,
                Ok(v) => Verdict::Allow(v),
                Err(t) => Verdict::Fault(t),
            };
            if short_circuit && !verdict.allowed() {
                if self.wrote {
                    self.break_lockstep(entry, li);
                }
                return verdict;
            }
            last = verdict;
        }
        if self.chains[entry as usize].ends_with_last_monitor {
            // Everything allowed and the final monitor ran: a sequential
            // walk would surface its verdict.
            last
        } else {
            // The final monitor lacks this entry: its implicit allow is
            // the chain verdict.
            default_allow
        }
    }

    /// The walk of `entry` stopped at link `li` after some recorder wrote:
    /// a replayer past `li` whose recorder ran and wrote now holds a
    /// segment its recorder has moved away from.
    #[cold]
    fn break_lockstep(&mut self, entry: EntryPoint, li: usize) {
        let links = &self.chains[entry as usize].links;
        // A recorder holds its replayers' entries and links run in section
        // order, so the recorders that ran are those at or before `stop`.
        let stop = links[li].0 as usize;
        for &(i, _) in &links[li + 1..] {
            let sec = &mut self.sections[i as usize];
            if sec.replay_from.is_some_and(|j| j <= stop && !self.records[j].log.is_empty()) {
                sec.lockstep = false;
            }
        }
    }

    /// Run one section of the chain; returns (result, fuel consumed).
    fn run_link(
        &mut self,
        sec_idx: usize,
        tpc: usize,
        packet: &[u8],
        info: &[u8],
    ) -> (Result<u64, Trap>, u64) {
        let FusedVm { sections, persistent, scratch, records, wrote, stats, .. } = self;
        let sec = &sections[sec_idx];
        let mem = &mut persistent[sec.mem_off..sec.mem_off + sec.mem_len];
        match sec.replay_from {
            Some(j) if sec.lockstep => {
                // The recorder ran earlier in this walk (it holds the same
                // entries and comes first in every chain, and a walk that
                // stopped before reaching this section never gets here), on
                // an equal segment: its run is this section's run.
                let rec = &records[j];
                stats.replays += 1;
                for &(addr, val) in &rec.log {
                    // Logged stores succeeded in an identically-sized
                    // segment, so the span is in bounds here too.
                    let a = addr as usize;
                    mem[a..a + 8].copy_from_slice(&val.to_le_bytes());
                }
                return (rec.result, rec.used);
            }
            Some(_) => stats.reruns += 1,
            None => {}
        }
        stats.executed += 1;
        let scr = &mut scratch[sec.scr_off..sec.scr_off + sec.scr_len];
        let mut regs = [0u64; NUM_REGS as usize];
        regs[1] = packet.len() as u64;
        let mut fuel = sec.fuel;
        if sec.record_tcode.is_empty() {
            let result = lower::run(
                &sec.tcode, tpc, &mut regs, packet, info, mem, scr, &mut fuel, &mut Vec::new(),
            );
            return (result, sec.fuel - fuel);
        }
        let rec = &mut records[sec_idx];
        rec.log.clear();
        rec.result = lower::run(
            &sec.record_tcode, tpc, &mut regs, packet, info, mem, scr, &mut fuel, &mut rec.log,
        );
        rec.used = sec.fuel - fuel;
        *wrote |= !rec.log.is_empty();
        (rec.result, rec.used)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Asm;
    use crate::insn::{Insn, Op};
    use crate::vm::{Vm, VmConfig};

    const FUEL: u64 = 100_000;

    /// send: allow ICMP (pkt[9] == 1) with full length, else deny.
    fn icmp_only() -> Program {
        let mut a = Asm::new();
        let send = a.label();
        a.mov_i(2, 0);
        a.ld_pkt8(2, 2, 9);
        let ok = a.new_label();
        a.jeq_i_to(2, 1, ok);
        a.mov_i(0, 0);
        a.ret(0);
        a.bind(ok);
        a.mov_r(0, 1);
        a.ret(0);
        a.finish_program(&[("send", send)], 0, 0)
    }

    /// send: allow the first `limit` packets, then deny (persistent
    /// counter at mem[0]).
    fn quota(limit: u32) -> Program {
        let mut a = Asm::new();
        let send = a.label();
        a.mov_i(2, 0);
        a.ld_mem(2, 2, 0);
        let deny = a.new_label();
        a.jeq_i_to(2, limit, deny);
        a.emit(Insn::new(Op::AddI, 2, 0, 1));
        a.mov_i(3, 0);
        a.st_mem(3, 2, 0);
        a.mov_r(0, 1);
        a.ret(0);
        a.bind(deny);
        a.mov_i(0, 0);
        a.ret(0);
        a.finish_program(&[("send", send)], 8, 0)
    }

    fn sequential(programs: &[Program]) -> Vec<Vm> {
        programs
            .iter()
            .map(|p| Vm::with_config(p.clone(), VmConfig { fuel: FUEL }).unwrap())
            .collect()
    }

    /// The sequential composite verdict a MonitorSet walk produces.
    fn sequential_verdict(vms: &mut [Vm], entry: EntryPoint, pkt: &[u8], info: &[u8]) -> Verdict {
        let mut last = Verdict::Allow(pkt.len().max(1) as u64);
        for vm in vms.iter_mut() {
            last = vm.check_entry(entry, pkt, info);
            if !last.allowed() {
                return last;
            }
        }
        last
    }

    fn fused(programs: &[Program]) -> FusedVm {
        FusedVm::new(programs.to_vec(), vec![FUEL; programs.len()]).unwrap()
    }

    fn icmp_pkt(len: usize) -> Vec<u8> {
        let mut p = vec![0u8; len];
        if len > 9 {
            p[9] = 1;
        }
        p
    }

    #[test]
    fn fused_matches_sequential_verdicts_and_attribution() {
        let programs = vec![icmp_only(), quota(3), icmp_only()];
        let mut vms = sequential(&programs);
        let mut f = fused(&programs);
        let icmp = icmp_pkt(40);
        let udp = {
            let mut p = vec![0u8; 40];
            p[9] = 17;
            p
        };
        // Too short for the pkt[9] load: the monitor that reaches it traps
        // for itself, as in the walk.
        let short = vec![0u8; 4];
        for pkt in [&icmp, &icmp, &udp, &icmp, &short, &icmp, &icmp] {
            let sv = sequential_verdict(&mut vms, EntryPoint::Send, pkt, &[]);
            let fv = f.check_send(pkt, &[]);
            assert_eq!(sv, fv);
        }
        for (i, vm) in vms.iter().enumerate() {
            assert_eq!(
                vm.insns_executed,
                f.attributed()[i],
                "attribution mismatch for monitor {i}"
            );
        }
        // The two icmp_only sections are identical: the second takes the
        // first's outcome, and nothing stateless ever leaves lock-step.
        assert_eq!(f.stats().replay_sections, 1);
        assert!(f.stats().replays > 0);
        assert_eq!(f.stats().reruns, 0);
    }

    #[test]
    fn persistent_segments_stay_isolated() {
        let programs = vec![quota(2), quota(5)];
        let mut f = fused(&programs);
        let pkt = icmp_pkt(20);
        // quota(2) denies on the 3rd packet even though quota(5) still has
        // budget — and quota(5)'s counter must only advance while packets
        // reach it.
        assert!(f.check_send(&pkt, &[]).allowed());
        assert!(f.check_send(&pkt, &[]).allowed());
        assert_eq!(f.check_send(&pkt, &[]), Verdict::Deny);
        assert_eq!(u64::from_le_bytes(f.persistent_segment(0)[..8].try_into().unwrap()), 2);
        assert_eq!(u64::from_le_bytes(f.persistent_segment(1)[..8].try_into().unwrap()), 2);
    }

    #[test]
    fn identical_quota_monitors_replay_exactly() {
        // Identical *stateful* monitors: the recorder reads and writes its
        // counter, and the replayer's counter follows it through the log.
        // The deny that ends the walk at the recorder wrote nothing, so
        // lock-step holds throughout.
        let programs = vec![quota(2), quota(2)];
        let mut vms = sequential(&programs);
        let mut f = fused(&programs);
        let pkt = icmp_pkt(20);
        for _ in 0..4 {
            let sv = sequential_verdict(&mut vms, EntryPoint::Send, &pkt, &[]);
            let fv = f.check_send(&pkt, &[]);
            assert_eq!(sv, fv);
        }
        for (i, vm) in vms.iter().enumerate() {
            assert_eq!(vm.insns_executed, f.attributed()[i]);
        }
        assert_eq!(f.persistent_segment(0), f.persistent_segment(1));
        assert_eq!((f.stats().replays, f.stats().reruns), (2, 0));
    }

    /// send: returns the old `mem[0] + 1` and stores `pkt[0]` into `mem[0]`.
    fn stamp() -> Program {
        let mut a = Asm::new();
        let send = a.label();
        a.mov_i(2, 0);
        a.ld_mem(2, 2, 0);
        a.mov_i(3, 0);
        a.ld_pkt8(3, 3, 0);
        a.mov_i(4, 0);
        a.st_mem(4, 3, 0);
        a.emit(Insn::new(Op::AddI, 2, 0, 1));
        a.mov_r(0, 2);
        a.ret(0);
        a.finish_program(&[("send", send)], 8, 0)
    }

    /// send: denies `pkt[0] == 0xff`, allows everything else.
    fn gate() -> Program {
        let mut a = Asm::new();
        let send = a.label();
        a.mov_i(2, 0);
        a.ld_pkt8(2, 2, 0);
        let deny = a.new_label();
        a.jeq_i_to(2, 0xff, deny);
        a.mov_r(0, 1);
        a.ret(0);
        a.bind(deny);
        a.mov_i(0, 0);
        a.ret(0);
        a.finish_program(&[("send", send)], 0, 0)
    }

    #[test]
    fn lockstep_breaks_where_the_walk_stops() {
        // [stamp, gate, stamp]: on 0xff the first stamp stores it and the
        // gate stops the walk, so the second stamp never sees it and must
        // answer from its own older memory from then on. [gate, stamp,
        // stamp]: the walk stops before the recorder runs, and lock-step
        // holds.
        for (programs, counts) in [
            (vec![stamp(), gate(), stamp()], (1, 3, 17)),
            (vec![gate(), stamp(), stamp()], (4, 0, 11)),
        ] {
            let mut vms = sequential(&programs);
            let mut f = fused(&programs);
            for first in [1u8, 0xff, 2, 3, 0xff, 0xff, 4] {
                let pkt = [first, 0, 0, 0];
                let sv = sequential_verdict(&mut vms, EntryPoint::Send, &pkt, &[]);
                assert_eq!(f.check_send(&pkt, &[]), sv, "packet {first:#x}");
                for (i, vm) in vms.iter().enumerate() {
                    assert_eq!(f.persistent_segment(i), vm.persistent(), "monitor {i}, {first:#x}");
                    assert_eq!(f.attributed()[i], vm.insns_executed, "monitor {i}, {first:#x}");
                }
            }
            let s = f.stats();
            assert_eq!((s.replays, s.reruns, s.executed), counts, "replays, reruns, executed");
        }
    }

    #[test]
    fn missing_entries_allow_and_last_monitor_sets_verdict() {
        // Monitor 0 defines send; monitor 1 does not. The chain verdict
        // when all allow is monitor 1's implicit Allow(len).
        let only_recv = {
            let mut a = Asm::new();
            let recv = a.label();
            a.mov_i(0, 1);
            a.ret(0);
            a.finish_program(&[("recv", recv)], 0, 0)
        };
        let programs = vec![icmp_only(), only_recv];
        let mut vms = sequential(&programs);
        let mut f = fused(&programs);
        let pkt = icmp_pkt(40);
        let sv = sequential_verdict(&mut vms, EntryPoint::Send, &pkt, &[]);
        let fv = f.check_send(&pkt, &[]);
        assert_eq!(sv, fv);
        assert_eq!(fv, Verdict::Allow(40));
        // recv: only monitor 1 runs, and it is the final monitor.
        assert_eq!(f.check_recv(&pkt, &[]), Verdict::Allow(1));
    }

    #[test]
    fn init_runs_all_monitors_without_short_circuit() {
        // init returns 0 ("deny") but must not stop later monitors' init.
        let init_writes = |v: i64| {
            let mut a = Asm::new();
            let init = a.label();
            a.mov_i(2, v);
            a.mov_i(3, 0);
            a.st_mem(3, 2, 0);
            a.mov_i(0, 0);
            a.ret(0);
            let send = a.label();
            a.mov_r(0, 1);
            a.ret(0);
            a.finish_program(&[("init", init), ("send", send)], 8, 0)
        };
        let programs = vec![init_writes(11), init_writes(22)];
        let mut f = fused(&programs);
        f.init_all(&[]);
        assert_eq!(u64::from_le_bytes(f.persistent_segment(0)[..8].try_into().unwrap()), 11);
        assert_eq!(u64::from_le_bytes(f.persistent_segment(1)[..8].try_into().unwrap()), 22);
    }

    #[test]
    fn empty_chain_allows_everything() {
        let mut f = FusedVm::new(Vec::new(), Vec::new()).unwrap();
        assert_eq!(f.check_send(&[1, 2, 3], &[]), Verdict::Allow(3));
        assert_eq!(f.check_recv(&[], &[]), Verdict::Allow(1));
        assert_eq!(f.insns_executed(), 0);
    }
}
