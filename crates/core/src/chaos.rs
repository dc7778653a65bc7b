//! Deterministic chaos harness: seeded fault schedules over full §4
//! experiments, with a pass/fail contract the test suite can enforce.
//!
//! A chaos run is a pure function of `(scenario, seed)`: the seed derives a
//! fault schedule (link flaps, Gilbert–Elliott burst loss, delay changes,
//! partitions, TCP resets, endpoint crash/restart — see
//! [`plab_netsim::fault`]), the scenario runs a real experiment through a
//! [`RobustController`] over the faulted simulation, and the outcome is
//! classified:
//!
//! - **Completed** — the experiment finished and its observables hash to a
//!   digest that is bit-for-bit reproducible for the same seed;
//! - **Aborted** — the control plane gave up with a *typed* error
//!   ([`ControllerError::Unreachable`] after the retry budget, or an
//!   endpoint error after a crash wiped experiment state), leaving partial
//!   results;
//!
//! and never anything else: no hang (every wait is bounded by the retry
//! policy's budget in virtual time) and no panic. `tests/chaos.rs` sweeps a
//! fixed-seed corpus and asserts exactly this contract; the
//! `repro chaos --seed` replays any single seed for debugging.

use crate::cert::Restrictions;
use crate::controller::experiments::{self, BandwidthEstimate, TracerouteResult};
use crate::controller::robust::{RetryPolicy, RetryStats, RobustController};
use crate::controller::{ControlPlane, ControllerError, Credentials};
use crate::descriptor::ExperimentDescriptor;
use crate::endpoint::EndpointConfig;
use crate::harness::{SimDialer, SimNet};
use plab_crypto::{KeyHash, Keypair};
use plab_netsim::{
    FaultAction, GilbertElliott, LinkParams, NodeId, ScheduledFault, TopologyBuilder, MILLISECOND,
    SECOND,
};
use plab_obs::export::{fnv1a, splitmix64, FNV_OFFSET};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// Which experiment a chaos run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// §4 traceroute to the target host (raw socket, scheduled probes,
    /// capture filter, npoll).
    Traceroute,
    /// §4 uplink-bandwidth burst to a controller-side UDP sink.
    Bandwidth,
    /// A Table 1 conformance sweep: every command class exercised in
    /// sequence (mread/mwrite, nopen/nsend/npoll/nclose, read_info).
    Conformance,
}

impl Scenario {
    /// All scenarios, for corpus sweeps.
    pub fn all() -> [Scenario; 3] {
        [
            Scenario::Traceroute,
            Scenario::Bandwidth,
            Scenario::Conformance,
        ]
    }

    /// Stable name for reporting.
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::Traceroute => "traceroute",
            Scenario::Bandwidth => "bandwidth",
            Scenario::Conformance => "conformance",
        }
    }
}

/// How a chaos run ended. Anything outside these two variants (hang,
/// panic) is a bug the chaos tests exist to catch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosVerdict {
    /// Experiment ran to completion; observables digested.
    Completed,
    /// Control plane aborted with a typed error (rendered) and partial
    /// results.
    Aborted(String),
}

/// Result of one chaos run. Every field is a pure function of
/// `(scenario, seed)` — [`run`] twice and compare for the determinism
/// guarantee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosOutcome {
    /// The seed that produced this run (echoed for failure reports).
    pub seed: u64,
    /// The scenario driven.
    pub scenario: Scenario,
    /// Completed or aborted-with-typed-error.
    pub verdict: ChaosVerdict,
    /// FNV-1a digest over the experiment's virtual-time observables
    /// (hop addresses and RTTs, datagram arrival times, response values).
    pub digest: u64,
    /// Virtual time when the run finished, ns.
    pub finished_at: u64,
    /// Retry machinery counters (reconnects, replays, timeouts).
    pub stats: RetryStats,
    /// Number of faults in the schedule.
    pub fault_count: usize,
    /// Packet-pool buffers taken over the run (read after the world is
    /// dropped, so every in-flight frame has reached end-of-life).
    pub pool_taken: u64,
    /// Packet-pool buffers recycled over the run. The pool's leak
    /// invariant is `pool_taken == pool_recycled` at teardown — asserted
    /// corpus-wide by the pool-accounting test.
    pub pool_recycled: u64,
}

impl ChaosOutcome {
    /// One-line report, used by the corpus test on failure and by
    /// `repro chaos`: every field but `pool_recycled`, the finish time
    /// in ns, so `results/repro_chaos.txt` pins what the corpus digest
    /// of `tests/chaos.rs` folds.
    pub fn report(&self) -> String {
        let s = &self.stats;
        format!(
            "seed={:#018x} scenario={} verdict={:?} digest={:#018x} t_end={}ns \
             connects={} failed_dials={} timeouts={} replays={} suspended_waits={} \
             faults={} pool_taken={}",
            self.seed,
            self.scenario.name(),
            self.verdict,
            self.digest,
            self.finished_at,
            s.connects,
            s.failed_dials,
            s.timeouts,
            s.replays,
            s.suspended_waits,
            self.fault_count,
            self.pool_taken,
        )
    }
}

/// Virtual-time ceiling for one chaos run. Every scenario must produce its
/// verdict before this instant; [`run`] asserts it, making "the schedule
/// hangs" a test failure rather than a stuck suite.
pub const RUN_DEADLINE: u64 = 300 * SECOND;

fn fnv_u64(hash: &mut u64, v: u64) {
    fnv1a(hash, &v.to_le_bytes());
}

/// The fixed chaos topology (a miniature of the bench `World`):
///
/// ```text
/// controller ──(20ms)── racc ──(5ms, 10 Mbps)── endpoint
///                        └──(5ms)── r1 ──(5ms)── target
/// ```
struct ChaosWorld {
    net: Rc<RefCell<SimNet>>,
    controller: NodeId,
    endpoint_node: NodeId,
    endpoint_addr: Ipv4Addr,
    target_addr: Ipv4Addr,
    /// Link indices for fault targeting.
    control_link: usize,
    access_link: usize,
    path_link: usize,
    operator: Keypair,
}

fn build_world(linger_ns: u64, shards: usize) -> ChaosWorld {
    let operator = Keypair::from_seed(&[7; 32]);
    let mut t = TopologyBuilder::new();
    let controller = t.host("controller", "10.9.0.1".parse().unwrap());
    let endpoint = t.host("endpoint", "10.0.0.1".parse().unwrap());
    let racc = t.router("racc", "10.0.0.254".parse().unwrap());
    let r1 = t.router("r1", "10.0.1.254".parse().unwrap());
    let target = t.host("target", "10.0.99.1".parse().unwrap());
    t.link(endpoint, racc, LinkParams::new(5, 10));
    t.link(racc, controller, LinkParams::new(20, 0));
    t.link(racc, r1, LinkParams::new(5, 0));
    t.link(r1, target, LinkParams::new(5, 0));
    // Round-robin node→shard placement; every chaos link has ≥ 5 ms
    // latency, so the lookahead window is 5 ms for any shard count.
    let shard_of: Vec<usize> = (0..5).map(|i| i % shards.max(1)).collect();
    let sim = t.build_sharded(&shard_of, 1);
    let control_link = sim.link_between(racc, controller).unwrap();
    let access_link = sim.link_between(endpoint, racc).unwrap();
    let path_link = sim.link_between(racc, r1).unwrap();

    let mut net = SimNet::new(sim);
    net.add_endpoint(
        endpoint,
        EndpointConfig {
            trusted_keys: vec![KeyHash::of(&operator.public)],
            session_linger_ns: linger_ns,
            ..Default::default()
        },
    );
    ChaosWorld {
        net: Rc::new(RefCell::new(net)),
        controller,
        endpoint_node: endpoint,
        endpoint_addr: "10.0.0.1".parse().unwrap(),
        target_addr: "10.0.99.1".parse().unwrap(),
        control_link,
        access_link,
        path_link,
        operator,
    }
}

fn chaos_credentials(world: &ChaosWorld) -> Credentials {
    let experimenter = Keypair::from_seed(&[43; 32]);
    let descriptor = ExperimentDescriptor {
        name: "chaos".into(),
        controller_addr: "10.9.0.1:7000".into(),
        info_url: String::new(),
        experimenter: KeyHash::of(&experimenter.public),
    };
    Credentials::issue(
        &world.operator,
        &experimenter,
        descriptor,
        Restrictions::none(),
        10,
    )
}

/// Derive the fault schedule for `seed`. Pure and platform-independent:
/// the same seed always yields the same schedule.
///
/// Between 2 and 6 faults fire in the window 1–20 s (experiments start at
/// virtual 0). The mix covers every [`FaultAction`] class; a small tail of
/// seeds (~1 in 16) crashes the endpoint *without* restart, which must
/// surface as a typed [`ControllerError::Unreachable`] abort.
pub fn fault_plan(seed: u64, world: &WorldLinks) -> Vec<ScheduledFault> {
    let mut rng = seed ^ (0xc8a5u64 << 32);
    let mut faults = Vec::new();
    let n = 2 + (splitmix64(&mut rng) % 5) as usize;
    // One seed in 16 ends in an unrecovered crash (the clean-abort path).
    let fatal_crash = splitmix64(&mut rng).is_multiple_of(16);
    for _ in 0..n {
        let at = SECOND + splitmix64(&mut rng) % (19 * SECOND);
        match splitmix64(&mut rng) % 7 {
            0 => {
                // Control-link flap: down for 0.2–3.2 s.
                let outage = 200 * MILLISECOND + splitmix64(&mut rng) % (3 * SECOND);
                faults.push(ScheduledFault {
                    at,
                    action: FaultAction::LinkDown {
                        link: world.control_link,
                    },
                });
                faults.push(ScheduledFault {
                    at: at + outage,
                    action: FaultAction::LinkUp {
                        link: world.control_link,
                    },
                });
            }
            1 => {
                // Burst loss on the access link for 5 s.
                faults.push(ScheduledFault {
                    at,
                    action: FaultAction::SetBurstLoss {
                        link: world.access_link,
                        model: Some(GilbertElliott::bursty()),
                    },
                });
                faults.push(ScheduledFault {
                    at: at + 5 * SECOND,
                    action: FaultAction::SetBurstLoss {
                        link: world.access_link,
                        model: None,
                    },
                });
            }
            2 => {
                // Uniform loss on the control link: 5–25 % for 4 s.
                let loss = 0.05 + (splitmix64(&mut rng) % 20) as f64 / 100.0;
                faults.push(ScheduledFault {
                    at,
                    action: FaultAction::SetLoss {
                        link: world.control_link,
                        loss,
                    },
                });
                faults.push(ScheduledFault {
                    at: at + 4 * SECOND,
                    action: FaultAction::SetLoss {
                        link: world.control_link,
                        loss: 0.0,
                    },
                });
            }
            3 => {
                // Route change: control latency jumps to 30–130 ms with up
                // to 10 ms jitter.
                let lat = 30 * MILLISECOND + splitmix64(&mut rng) % (100 * MILLISECOND);
                let jit = splitmix64(&mut rng) % (10 * MILLISECOND);
                faults.push(ScheduledFault {
                    at,
                    action: FaultAction::SetDelay {
                        link: world.control_link,
                        latency: lat,
                        jitter: jit,
                    },
                });
            }
            4 => {
                // Measurement-path partition: 1–4 s.
                let outage = SECOND + splitmix64(&mut rng) % (3 * SECOND);
                faults.push(ScheduledFault {
                    at,
                    action: FaultAction::LinkDown {
                        link: world.path_link,
                    },
                });
                faults.push(ScheduledFault {
                    at: at + outage,
                    action: FaultAction::LinkUp {
                        link: world.path_link,
                    },
                });
            }
            5 => {
                // Control channel dies (NAT flush / middlebox RST); the
                // endpoint keeps its experiment state.
                faults.push(ScheduledFault {
                    at,
                    action: FaultAction::TcpReset {
                        node: world.endpoint_node.0,
                    },
                });
            }
            _ => {
                // Endpoint crash; restarts 0.5–4.5 s later unless this is a
                // fatal-crash seed.
                faults.push(ScheduledFault {
                    at,
                    action: FaultAction::NodeCrash {
                        node: world.endpoint_node.0,
                    },
                });
                if !fatal_crash {
                    let down = 500 * MILLISECOND + splitmix64(&mut rng) % (4 * SECOND);
                    faults.push(ScheduledFault {
                        at: at + down,
                        action: FaultAction::NodeRestart {
                            node: world.endpoint_node.0,
                        },
                    });
                }
            }
        }
    }
    faults.sort_by_key(|f| f.at);
    faults
}

/// The link/node indices a fault plan targets (decoupled from the private
/// world type so `fault_plan` is testable and reusable).
pub struct WorldLinks {
    /// Controller↔access-router link.
    pub control_link: usize,
    /// Endpoint↔access-router link.
    pub access_link: usize,
    /// Access-router↔path link (partitions the measurement target).
    pub path_link: usize,
    /// The endpoint's node.
    pub endpoint_node: NodeId,
}

/// Retry policy used by chaos runs: tighter than the defaults so 50+
/// schedules stay fast, but with a budget (25 s) generous enough to ride
/// out any recoverable schedule from [`fault_plan`].
pub fn chaos_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        request_timeout: 2 * SECOND,
        base_backoff: 100 * MILLISECOND,
        max_backoff: 2 * SECOND,
        unreachable_budget: 25 * SECOND,
        jitter_seed: seed | 1,
    }
}

/// Run one chaos schedule: build the world, install the seed's fault
/// schedule, drive `scenario` through a [`RobustController`], classify.
///
/// Panics only on contract violations (the run outliving
/// [`RUN_DEADLINE`]), which the chaos tests report with the seed.
pub fn run(scenario: Scenario, seed: u64) -> ChaosOutcome {
    run_sharded(scenario, seed, 1)
}

/// [`run`] over a world partitioned into `shards` shards (round-robin
/// node placement). One shard is bit-identical to the sequential engine;
/// `shards > 1` is deterministic for a fixed `(scenario, seed, shards)`
/// with its own digests (per-shard RNG streams and event sequencing
/// legitimately differ from the sequential interleaving).
pub fn run_sharded(scenario: Scenario, seed: u64, shards: usize) -> ChaosOutcome {
    // Sessions linger 60 s so a TcpReset/reconnect resumes the experiment
    // (crash wipes the agent regardless — that is the point of crashes).
    let world = build_world(60 * SECOND, shards);
    let links = WorldLinks {
        control_link: world.control_link,
        access_link: world.access_link,
        path_link: world.path_link,
        endpoint_node: world.endpoint_node,
    };
    let faults = fault_plan(seed, &links);
    let fault_count = faults.len();
    for f in &faults {
        world
            .net
            .borrow_mut()
            .sim
            .schedule_fault(f.at, f.action.clone());
    }

    let creds = chaos_credentials(&world);
    let dialer = SimDialer::new(&world.net, world.controller, world.endpoint_addr);
    let mut digest = FNV_OFFSET;
    fnv_u64(&mut digest, seed);

    let verdict; // set by the match below
    let stats;
    match RobustController::connect(dialer, creds, chaos_policy(seed)) {
        Ok(mut ctrl) => {
            let result = match scenario {
                Scenario::Traceroute => run_traceroute(&mut ctrl, &world, &mut digest),
                Scenario::Bandwidth => run_bandwidth(&mut ctrl, &mut digest),
                Scenario::Conformance => run_conformance(&mut ctrl, &mut digest),
            };
            stats = ctrl.stats;
            verdict = match result {
                Ok(()) => ChaosVerdict::Completed,
                Err(e) => {
                    fnv1a(&mut digest, b"abort");
                    ChaosVerdict::Aborted(e.to_string())
                }
            };
        }
        Err(e) => {
            stats = RetryStats::default();
            fnv1a(&mut digest, b"no-connect");
            verdict = ChaosVerdict::Aborted(e.to_string());
        }
    }

    let finished_at = world.net.borrow().sim.now();
    assert!(
        finished_at <= RUN_DEADLINE,
        "chaos run overran its deadline budget: seed={seed:#018x} \
         scenario={} t={finished_at}",
        scenario.name(),
    );
    // Keep handles on every shard's pool, then tear the world down so
    // queued and inboxed frames reach end-of-life before the counters are
    // read. The leak invariant holds per shard; the outcome reports sums.
    let pools = world.net.borrow().sim.pools();
    drop(world);
    ChaosOutcome {
        seed,
        scenario,
        verdict,
        digest,
        finished_at,
        stats,
        fault_count,
        pool_taken: pools.iter().map(|p| p.taken()).sum(),
        pool_recycled: pools.iter().map(|p| p.recycled()).sum(),
    }
}

/// A chaos run plus its rendered flight-recorder artifacts.
///
/// Every field is a pure function of `(scenario, seed)`: the tracing
/// clock is the netsim virtual clock and event sequence numbers restart
/// at zero, so two [`run_traced`] calls with the same inputs produce
/// byte-identical dumps — the property `repro chaos --trace` asserts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TracedChaos {
    /// The run's classification (identical to an untraced [`run`] except
    /// that an abort's rendered error also carries the controller trace
    /// tail).
    pub outcome: ChaosOutcome,
    /// Flight-recorder text dump ([`plab_obs::export::text_dump`]) of the
    /// full event snapshot at the end of the run.
    pub text_dump: String,
    /// chrome://tracing JSON ([`plab_obs::export::chrome_trace`]) of the
    /// same snapshot — load in `about:tracing` or Perfetto.
    pub chrome_json: String,
    /// Metrics snapshot, one aligned line per metric.
    pub metrics_text: String,
}

/// [`run`], with the flight recorder on: enables `plab-obs` for the
/// duration, resets recorded state so the run observes only itself, and
/// renders the dump artifacts before restoring the previous tracing
/// state.
pub fn run_traced(scenario: Scenario, seed: u64) -> TracedChaos {
    let was_enabled = plab_obs::enabled();
    plab_obs::enable();
    plab_obs::reset();
    let outcome = run(scenario, seed);
    let events = plab_obs::snapshot();
    let traced = TracedChaos {
        outcome,
        text_dump: plab_obs::export::text_dump(&events),
        chrome_json: plab_obs::export::chrome_trace(&events),
        metrics_text: plab_obs::export::metrics_dump(),
    };
    plab_obs::reset();
    if !was_enabled {
        plab_obs::disable();
    }
    traced
}

fn run_traceroute(
    ctrl: &mut RobustController<SimDialer>,
    world: &ChaosWorld,
    digest: &mut u64,
) -> Result<(), ControllerError> {
    let res: TracerouteResult = experiments::traceroute(ctrl, world.target_addr, 8)?;
    fnv_u64(digest, res.reached as u64);
    for hop in &res.hops {
        fnv_u64(digest, hop.ttl as u64);
        match hop.addr {
            Some(a) => fnv1a(digest, &a.octets()),
            None => fnv1a(digest, b"*"),
        }
        fnv_u64(digest, hop.rtt.unwrap_or(0));
        fnv_u64(digest, hop.reached as u64);
    }
    Ok(())
}

fn run_bandwidth(
    ctrl: &mut RobustController<SimDialer>,
    digest: &mut u64,
) -> Result<(), ControllerError> {
    let est: BandwidthEstimate =
        experiments::measure_uplink_bandwidth(ctrl, 7400, 40, 1000, 500 * MILLISECOND)?;
    fnv_u64(digest, est.received as u64);
    fnv_u64(digest, est.sent as u64);
    fnv_u64(digest, est.first_arrival);
    fnv_u64(digest, est.last_arrival);
    // bits_per_sec is a quotient of the digested integers; digest its bit
    // pattern too so any float divergence is caught.
    fnv_u64(digest, est.bits_per_sec.to_bits());
    Ok(())
}

/// Table 1 sweep: one of everything, digesting every response. Sockets use
/// ids distinct from the other scenarios so replays cannot alias.
fn run_conformance(
    ctrl: &mut RobustController<SimDialer>,
    digest: &mut u64,
) -> Result<(), ControllerError> {
    const SKT: u32 = 11;
    // mread/mwrite round trip.
    ctrl.mwrite(0x40, vec![0xab, 0xcd, 0xef, 0x01])?;
    let mem = ctrl.mread(0x40, 4)?;
    fnv1a(digest, &mem);
    // read_info + endpoint clock.
    let clk = ctrl.read_clock()?;
    fnv_u64(digest, clk);
    let addr = ctrl.endpoint_addr()?;
    fnv1a(digest, &addr.octets());
    // UDP socket to the controller sink; scheduled sends; poll for nothing
    // (UDP has no capture here) then close.
    let sink = crate::controller::SinkHost::sink_addr(ctrl);
    crate::controller::SinkHost::sink_bind(ctrl, 7500);
    ctrl.nopen_udp(SKT, 7300, sink, 7500)?;
    let t0 = ctrl.read_clock()?;
    for i in 0u32..10 {
        let tag = ctrl.nsend(
            SKT,
            t0 + 100 * MILLISECOND + i as u64 * 10 * MILLISECOND,
            i.to_le_bytes().to_vec(),
        )?;
        fnv_u64(digest, tag);
    }
    // Let the burst drain, then count arrivals at the sink.
    let horizon = ctrl.now() + 2 * SECOND;
    crate::controller::SinkHost::wait_until(ctrl, horizon);
    let arrivals = crate::controller::SinkHost::sink_take(ctrl, 7500);
    fnv_u64(digest, arrivals.len() as u64);
    for (t, .., len) in &arrivals {
        fnv_u64(digest, *t);
        fnv_u64(digest, *len as u64);
    }
    ctrl.nclose(SKT)?;
    Ok(())
}

/// The corpus used by `tests/chaos.rs` and `repro chaos`: a fixed
/// spread of seeds per scenario. 54 runs total (≥ 50 required), chosen to
/// include several crash/restart and fatal-crash schedules.
pub fn corpus() -> Vec<(Scenario, u64)> {
    let mut runs = Vec::new();
    for scenario in Scenario::all() {
        for i in 0..18u64 {
            // Spread seeds so consecutive corpus entries share no splitmix
            // prefix.
            runs.push((scenario, 0x5eed_0000 + i * 0x9111));
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_is_deterministic() {
        let links = WorldLinks {
            control_link: 1,
            access_link: 0,
            path_link: 2,
            endpoint_node: NodeId(1),
        };
        for seed in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(fault_plan(seed, &links), fault_plan(seed, &links));
        }
    }

    #[test]
    fn fault_plan_orders_and_bounds() {
        let links = WorldLinks {
            control_link: 1,
            access_link: 0,
            path_link: 2,
            endpoint_node: NodeId(1),
        };
        for seed in 0..200u64 {
            let plan = fault_plan(seed, &links);
            assert!(!plan.is_empty());
            let mut last = 0;
            for f in &plan {
                assert!(f.at >= last, "unsorted plan for seed {seed}");
                assert!(f.at < 40 * SECOND, "fault outside window for seed {seed}");
                last = f.at;
            }
        }
    }

    #[test]
    fn corpus_has_at_least_fifty_runs() {
        assert!(corpus().len() >= 50);
    }
}
