//! Experiment monitors (§3.4): instantiating and consulting the PFVM
//! programs attached to a certificate chain.
//!
//! "Monitors provide the mechanism by which an operator restricts what an
//! experiment can do on an endpoint. An endpoint uses the monitor during
//! the experiment to ensure that the experiment does not stray outside the
//! behavior allowed by the endpoint operator."
//!
//! Every certificate in the authorizing chain may attach a monitor; the
//! endpoint instantiates all of them and an operation proceeds only if
//! *every* monitor allows it (restrictions only tighten along a chain).
//! Each monitor keeps its own persistent memory for the lifetime of the
//! experiment — "each monitor also has a block of private memory that
//! persists for the duration of the experiment that is not accessible to
//! the controller via the mread command."
//!
//! # Execution engines
//!
//! PFVM has one dispatch loop (`plab_filter::lower`) and two drivers over
//! it. A set is adjudicated by the chain driver, a **fused** execution
//! ([`plab_filter::FusedVm`]): the whole chain prepared once, when the
//! certificates are presented, as one threaded program in which a
//! monitor identical to an earlier one takes that one's whole outcome
//! while their persistent memories agree. A set is built by
//! [`MonitorSet::instantiate`] and lives as long as its session; nothing
//! adds or removes a monitor afterwards (Table 1 has no such operation,
//! and re-authentication builds a fresh set).
//! [`MonitorSet::instantiate_sequential`] walks one single-program driver
//! ([`plab_filter::Vm`]) per monitor: it is the reference the fuzz and
//! property suites, and the repo benchmark's `monitor_chain` check, hold
//! the fused driver bit-identical to on verdicts, persistent memory, and
//! per-monitor fuel — which is why it stays.

use plab_filter::{EntryPoint, FuseStats, FusedVm, Program, Vm, VmConfig};

// `FusedVm` is large by design (shared buffers + per-section records);
// one `Engine` exists per session, so indirection would only slow the
// adjudication fast path.
#[allow(clippy::large_enum_variant)]
enum Engine {
    /// One `Vm` per monitor, walked in order (reference semantics).
    Sequential(Vec<Vm>),
    /// Fused chain (the default engine).
    Fused(FusedVm),
}

/// The set of monitors guarding one experiment session.
pub struct MonitorSet {
    engine: Engine,
    /// Observability snapshot, taken once at instantiation so the
    /// per-adjudication disabled path is a single register test (the
    /// PR 1 hot path stays within the <1% overhead budget even against
    /// a TLS flag load). Enable tracing *before* the session opens.
    obs_on: bool,
}

impl core::fmt::Debug for MonitorSet {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "MonitorSet({} monitors)", self.len())
    }
}

/// Why a monitor set could not be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MonitorError {
    /// A monitor program failed to decode.
    Undecodable(usize),
    /// A monitor program failed validation.
    Invalid(usize, String),
}

impl core::fmt::Display for MonitorError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MonitorError::Undecodable(i) => write!(f, "monitor {i} undecodable"),
            MonitorError::Invalid(i, e) => write!(f, "monitor {i} invalid: {e}"),
        }
    }
}

impl std::error::Error for MonitorError {}

fn decode_all(encoded: &[Vec<u8>]) -> Result<Vec<Program>, MonitorError> {
    encoded
        .iter()
        .enumerate()
        .map(|(i, bytes)| Program::decode(bytes).map_err(|_| MonitorError::Undecodable(i)))
        .collect()
}

/// Fusion build counters (chains built, superinstruction shape). Gated on
/// `plab_obs::enabled()` by the metrics layer itself; builds are cold so no
/// `obs_on` snapshot is involved.
fn record_build_metrics(stats: &FuseStats) {
    use plab_obs::metrics::{Counter, Histogram};
    static BUILDS: Counter = Counter::new("pfvm.fuse.builds");
    static FUSED_INSNS: Counter = Counter::new("pfvm.fuse.fused_insns");
    static SUPERINSNS: Counter = Counter::new("pfvm.fuse.superinsns");
    static SUPER_LEN: Histogram = Histogram::new("pfvm.fuse.superinsn_len");
    BUILDS.inc();
    FUSED_INSNS.add(stats.fused_insns);
    SUPERINSNS.add(stats.superinsns);
    for (len, &n) in stats.super_len.iter().enumerate() {
        for _ in 0..n {
            SUPER_LEN.observe(len as u64);
        }
    }
}

impl MonitorSet {
    /// Instantiate monitors from their encoded programs (the
    /// `EffectiveRestrictions::monitors` of a verified chain), running each
    /// program's `init` entry. The chain is prepared as a fused execution.
    pub fn instantiate(encoded: &[Vec<u8>], info: &[u8]) -> Result<MonitorSet, MonitorError> {
        let programs = decode_all(encoded)?;
        let fuels = vec![VmConfig::default().fuel; programs.len()];
        let mut fused = FusedVm::new(programs, fuels)
            .map_err(|(i, e)| MonitorError::Invalid(i, e.to_string()))?;
        record_build_metrics(&fused.stats());
        fused.init_all(info);
        Ok(MonitorSet { engine: Engine::Fused(fused), obs_on: plab_obs::enabled() })
    }

    /// Instantiate with the sequential reference engine: one `Vm` per
    /// monitor, no fusion. Semantically identical to
    /// [`MonitorSet::instantiate`]; kept for differential testing and
    /// benchmarking of the fused path.
    pub fn instantiate_sequential(
        encoded: &[Vec<u8>],
        info: &[u8],
    ) -> Result<MonitorSet, MonitorError> {
        let programs = decode_all(encoded)?;
        let mut vms = Vec::with_capacity(programs.len());
        for (i, program) in programs.into_iter().enumerate() {
            let mut vm =
                Vm::new(program).map_err(|e| MonitorError::Invalid(i, e.to_string()))?;
            vm.init(info);
            vms.push(vm);
        }
        Ok(MonitorSet { engine: Engine::Sequential(vms), obs_on: plab_obs::enabled() })
    }

    /// An unrestricted monitor set (no certificates attached monitors).
    pub fn unrestricted() -> MonitorSet {
        MonitorSet {
            engine: Engine::Fused(
                FusedVm::new(Vec::new(), Vec::new()).expect("empty chain always fuses"),
            ),
            obs_on: plab_obs::enabled(),
        }
    }

    /// Number of monitors.
    pub fn len(&self) -> usize {
        match &self.engine {
            Engine::Sequential(vms) => vms.len(),
            Engine::Fused(fused) => fused.len(),
        }
    }

    /// True if no monitors are attached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// May this packet be sent? All monitors must allow. Allocation-free:
    /// the fused chain (or each sequential VM) runs its pre-resolved
    /// `send` entry. `#[inline]` so callers in other crates absorb the
    /// thin wrapper (and the disabled-path `obs_on` test) instead of
    /// paying a nested call per packet.
    #[inline]
    pub fn allow_send(&mut self, packet: &[u8], info: &[u8]) -> bool {
        self.allow_entry(EntryPoint::Send, packet, info)
    }

    /// May this captured packet be returned to the controller?
    #[inline]
    pub fn allow_recv(&mut self, packet: &[u8], info: &[u8]) -> bool {
        self.allow_entry(EntryPoint::Recv, packet, info)
    }

    /// May this `nopen` proceed? Consults the optional `open` entry with a
    /// 9-byte pseudo-packet describing the request, all fields in network
    /// byte order:
    ///
    /// | offset | size | field                         |
    /// |--------|------|-------------------------------|
    /// | 0      | 1    | `proto`                       |
    /// | 1      | 2    | `locport` (big-endian)        |
    /// | 3      | 4    | `remaddr` (big-endian)        |
    /// | 7      | 2    | `remport` (big-endian)        |
    pub fn allow_open(&mut self, proto: u8, locport: u16, remaddr: u32, remport: u16, info: &[u8]) -> bool {
        let mut pseudo = [0u8; 9];
        pseudo[0] = proto;
        pseudo[1..3].copy_from_slice(&locport.to_be_bytes());
        pseudo[3..7].copy_from_slice(&remaddr.to_be_bytes());
        pseudo[7..9].copy_from_slice(&remport.to_be_bytes());
        self.allow_entry(EntryPoint::Open, &pseudo, info)
    }

    /// Shared adjudication fast path: every monitor's pre-resolved entry
    /// must allow (missing entries allow by convention).
    #[inline]
    fn allow_entry(&mut self, entry: EntryPoint, packet: &[u8], info: &[u8]) -> bool {
        if !self.obs_on {
            return self.adjudicate(entry, packet, info);
        }
        self.allow_entry_observed(entry, packet, info)
    }

    /// The engine's verdict on `entry`.
    #[inline]
    fn adjudicate(&mut self, entry: EntryPoint, packet: &[u8], info: &[u8]) -> bool {
        /// The reference walk, kept out of line: inlined beside the fused
        /// call it costs every caller's adjudication loop its registers
        /// (`repro guard obs` read 0.94–0.98 with it inline).
        #[inline(never)]
        fn walk(vms: &mut [Vm], entry: EntryPoint, packet: &[u8], info: &[u8]) -> bool {
            vms.iter_mut().all(|vm| vm.check_entry(entry, packet, info).allowed())
        }
        match &mut self.engine {
            Engine::Sequential(vms) => walk(vms, entry, packet, info),
            Engine::Fused(fused) => fused.check_entry(entry, packet, info).allowed(),
        }
    }

    /// The instrumented twin of the adjudication loop: identical verdict
    /// and fuel semantics (same short-circuit order), plus verdict, fuel
    /// and outcome-replay accounting into `plab-obs`. Kept out of line (and
    /// marked cold) so its register pressure cannot leak into the disabled
    /// fast path.
    #[cold]
    #[inline(never)]
    fn allow_entry_observed(&mut self, entry: EntryPoint, packet: &[u8], info: &[u8]) -> bool {
        use plab_obs::metrics::{Counter, Histogram};
        static ADJUDICATIONS: Counter = Counter::new("pfvm.adjudications");
        static DENIALS: Counter = Counter::new("pfvm.denials");
        static FUEL: Histogram = Histogram::new("pfvm.fuel_per_adjudication");
        static REPLAYS: Counter = Counter::new("pfvm.fuse.replays");
        let before = self.insns_executed();
        let fuse_before = self.fuse_stats();
        let allowed = self.adjudicate(entry, packet, info);
        let fuel = self.insns_executed() - before;
        ADJUDICATIONS.inc();
        if !allowed {
            DENIALS.inc();
        }
        FUEL.observe(fuel);
        if let (Some(b), Some(a)) = (fuse_before, self.fuse_stats()) {
            REPLAYS.add(a.replays - b.replays);
        }
        plab_obs::obs_event!(
            plab_obs::Component::Pfvm,
            "adjudicate",
            "entry" = entry as u8,
            "allowed" = allowed as u64
        );
        allowed
    }

    /// Total PFVM instructions executed so far (overhead accounting).
    pub fn insns_executed(&self) -> u64 {
        match &self.engine {
            Engine::Sequential(vms) => vms.iter().map(|vm| vm.insns_executed).sum(),
            Engine::Fused(fused) => fused.insns_executed(),
        }
    }

    /// Per-monitor instructions executed, in chain order.
    pub fn insns_attributed(&self) -> Vec<u64> {
        match &self.engine {
            Engine::Sequential(vms) => vms.iter().map(|vm| vm.insns_executed).collect(),
            Engine::Fused(fused) => fused.attributed().to_vec(),
        }
    }

    /// Monitor `i`'s persistent memory (tests and diagnostics).
    pub fn persistent(&self, i: usize) -> &[u8] {
        match &self.engine {
            Engine::Sequential(vms) => vms[i].persistent(),
            Engine::Fused(fused) => fused.persistent_segment(i),
        }
    }

    /// Fusion statistics when running on the fused engine (`None` for
    /// the sequential reference engine).
    pub fn fuse_stats(&self) -> Option<FuseStats> {
        match &self.engine {
            Engine::Sequential(_) => None,
            Engine::Fused(fused) => Some(fused.stats()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn icmp_only_monitor() -> Vec<u8> {
        plab_cpf::compile(
            r#"
            uint32_t send(const union packet *pkt, uint32_t len) {
                if (pkt->ip.proto == IPPROTO_ICMP) return len;
                return 0;
            }
            "#,
        )
        .unwrap()
        .encode()
    }

    fn deny_udp_monitor() -> Vec<u8> {
        plab_cpf::compile(
            r#"
            uint32_t send(const union packet *pkt, uint32_t len) {
                if (pkt->ip.proto == IPPROTO_UDP) return 0;
                return len;
            }
            "#,
        )
        .unwrap()
        .encode()
    }

    fn quota_monitor(limit: u32) -> Vec<u8> {
        plab_cpf::compile(&format!(
            r#"
            uint32_t used = 0;
            uint32_t send(const union packet *pkt, uint32_t len) {{
                if (used >= {limit}) return 0;
                used = used + 1;
                return len;
            }}
            "#
        ))
        .unwrap()
        .encode()
    }

    fn pkt(proto: u8) -> Vec<u8> {
        use std::net::Ipv4Addr;
        plab_packet::ipv4::Ipv4Header::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            proto,
        )
        .build(&[0u8; 8])
    }

    #[test]
    fn unrestricted_allows_everything() {
        let mut m = MonitorSet::unrestricted();
        assert!(m.allow_send(&pkt(17), &[]));
        assert!(m.allow_recv(&pkt(6), &[]));
        assert!(m.allow_open(0, 0, 0, 0, &[]));
        assert!(m.is_empty());
    }

    #[test]
    fn all_monitors_must_allow() {
        // ICMP-only AND deny-UDP: ICMP passes both, UDP fails both, TCP
        // fails the first.
        let mut m = MonitorSet::instantiate(&[icmp_only_monitor(), deny_udp_monitor()], &[])
            .unwrap();
        assert_eq!(m.len(), 2);
        assert!(m.allow_send(&pkt(1), &[]));
        assert!(!m.allow_send(&pkt(17), &[]));
        assert!(!m.allow_send(&pkt(6), &[]));
    }

    #[test]
    fn missing_recv_entry_allows_recv() {
        let mut m = MonitorSet::instantiate(&[icmp_only_monitor()], &[]).unwrap();
        // The monitor constrains only send.
        assert!(m.allow_recv(&pkt(17), &[]));
    }

    #[test]
    fn undecodable_monitor_rejected() {
        let err = MonitorSet::instantiate(&[vec![1, 2, 3]], &[]).unwrap_err();
        assert_eq!(err, MonitorError::Undecodable(0));
    }

    #[test]
    fn monitors_keep_private_state() {
        // A quota monitor: allows 3 sends then denies.
        let mut m = MonitorSet::instantiate(&[quota_monitor(3)], &[]).unwrap();
        for _ in 0..3 {
            assert!(m.allow_send(&pkt(1), &[]));
        }
        assert!(!m.allow_send(&pkt(1), &[]), "quota exhausted");
        assert!(m.insns_executed() > 0);
    }

    #[test]
    fn fused_and_sequential_engines_agree() {
        let monitors =
            [icmp_only_monitor(), quota_monitor(4), deny_udp_monitor(), icmp_only_monitor()];
        let mut fused = MonitorSet::instantiate(&monitors, &[]).unwrap();
        let mut seq = MonitorSet::instantiate_sequential(&monitors, &[]).unwrap();
        for proto in [1u8, 1, 17, 1, 6, 1, 1, 1, 1] {
            let p = pkt(proto);
            assert_eq!(fused.allow_send(&p, &[]), seq.allow_send(&p, &[]), "proto {proto}");
            assert_eq!(fused.allow_recv(&p, &[]), seq.allow_recv(&p, &[]));
        }
        assert_eq!(fused.insns_executed(), seq.insns_executed());
        assert_eq!(fused.insns_attributed(), seq.insns_attributed());
        for i in 0..monitors.len() {
            assert_eq!(fused.persistent(i), seq.persistent(i), "monitor {i} memory");
        }
    }

    #[test]
    fn fuse_stats_reflect_chain_shape() {
        let mut m = MonitorSet::instantiate(
            &[icmp_only_monitor(), icmp_only_monitor(), deny_udp_monitor()],
            &[],
        )
        .unwrap();
        let s = m.fuse_stats().expect("fused engine");
        assert_eq!(s.sections, 3);
        assert!(s.superinsns > 0, "cpf output must fuse superinstructions");
        assert_eq!(s.replay_sections, 1, "the second icmp monitor replays the first");
        let _ = m.allow_send(&pkt(1), &[]);
        assert!(m.fuse_stats().unwrap().replays > 0);
        assert!(
            MonitorSet::instantiate_sequential(&[icmp_only_monitor()], &[])
                .unwrap()
                .fuse_stats()
                .is_none()
        );
    }
}
