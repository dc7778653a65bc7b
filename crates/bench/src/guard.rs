//! The guard harness and `repro`'s command line. Every claim CI defends
//! about this reproduction is one row of [`GUARDS`], run by
//! `repro guard <name>|all [--secs S] [--json]`; every command `repro`
//! has is one row of [`COMMANDS`], and [`parse`] is the one option parser
//! for all of them. The timer, rendering and the exit code (0 pass, 1 a
//! check failed, 2 usage) exist here once.
//!
//! **Throughput checks keep the minimum** over fixed-size rounds:
//! scheduler preemption and frequency ramps only ever add time, so the
//! minimum converges on the machine's true cost while averages drift with
//! load. The gates catch algorithmic cliffs, not single-digit drift.
//!
//! **No check reads a committed number.** A timed check is a quotient of
//! two things timed in this process, both in every round and in
//! alternating order (`paired`), so the machine's speed divides out; its
//! bar is a named constant beside it, set between twenty readings of the
//! code and twenty of the regression it exists for (EXPERIMENTS G10).
//! Every other check is an exact count, a digest or a bound that virtual
//! time makes machine-independent. The `BENCH_*.json` files are records
//! the `repro` commands write; no guard opens one.

use crate::reportjson::cores;
use crate::{bwest, ctrl, figure2_chain, figure2_fixture, figure2_reply, fleet, netsim_scale};
use packetlab::chaos::Scenario;
use packetlab::monitor::MonitorSet;
use plab_filter::{EntryPoint, FusedVm, Program, VmConfig};
use plab_fuzz::TARGETS;
use plab_obs::export::{fnv1a64, json_escape};
use std::time::{Duration, Instant};

/// One row of the table.
pub struct Guard {
    /// What `repro guard` and the CI matrix call it.
    pub name: &'static str,
    /// Default `--secs`: the measurement budget of its timed checks (0
    /// for a guard with none).
    pub secs: f64,
    /// Runs the guard with the budget.
    pub checks: fn(Duration) -> Vec<Check>,
}

/// The seven guards. CI's budgets live in `ci.yml`'s matrix.
pub static GUARDS: [Guard; 7] = [
    Guard {
        name: "throughput",
        secs: 2.0,
        checks: throughput,
    },
    Guard {
        name: "obs",
        secs: 0.5,
        checks: obs,
    },
    Guard {
        name: "netsim",
        secs: 2.0,
        checks: netsim,
    },
    // `windowed` and `threaded` take half the budget each.
    Guard {
        name: "netsim-shard",
        secs: 4.0,
        checks: netsim_shard,
    },
    // Nothing fleet or bwest checks is timed or machine-dependent.
    Guard {
        name: "fleet",
        secs: 0.0,
        checks: fleet_roster,
    },
    Guard {
        name: "bwest",
        secs: 0.0,
        checks: bwest_corpus,
    },
    Guard {
        name: "ctrl",
        secs: 6.0,
        checks: ctrl_mux,
    },
];

/// One named verdict of a guard.
pub struct Check {
    /// The member it appears under in `--json`.
    pub name: &'static str,
    /// Whether it held.
    pub pass: bool,
    /// What was measured against what.
    pub detail: String,
}

impl Check {
    fn new(name: &'static str, pass: bool, detail: String) -> Check {
        Check { name, pass, detail }
    }

    /// A check that could not run here: said out loud, not passed silently.
    fn skipped(name: &'static str, why: &str) -> Check {
        Check::new(name, true, format!("skipped: {why}"))
    }

    /// Every digest in `got` equals `pin`.
    fn pinned(name: &'static str, got: &[u64], pin: u64) -> Check {
        let drift = got
            .iter()
            .find(|&&d| d != pin)
            .or(got.last())
            .copied()
            .unwrap_or(0);
        let detail = format!("{drift:#018x} (pinned {pin:#018x}, {} runs)", got.len());
        Check::new(name, got.iter().all(|&d| d == pin), detail)
    }

    /// Exact counts: `got` equals `want`, both spelled out under `what`.
    fn counts<const N: usize>(
        name: &'static str,
        what: &str,
        got: [u64; N],
        want: [u64; N],
    ) -> Check {
        let list = |v: [u64; N]| v.map(|n| n.to_string()).join(", ");
        let detail = format!("{what}: {} (exactly {})", list(got), list(want));
        Check::new(name, got == want, detail)
    }

    /// A quotient of two rates timed in this process (`what` says which
    /// over which) against the bar it must reach.
    fn quotient(name: &'static str, what: &str, q: f64, min: f64, rounds: u32) -> Check {
        let detail = format!("{what}: {q:.3} (bar {min}, min over {rounds} rounds)");
        Check::new(name, q >= min, detail)
    }
}

/// Call `round` (which returns the seconds each thing it timed took)
/// until `budget` is spent and at least `min_rounds` have run: the
/// fastest time of each, and how many rounds ran.
pub fn min_over_rounds<const N: usize>(
    budget: Duration,
    min_rounds: u32,
    mut round: impl FnMut(u32) -> [f64; N],
) -> ([f64; N], u32) {
    let mut best = [f64::MAX; N];
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < min_rounds || start.elapsed() < budget {
        for (b, t) in best.iter_mut().zip(round(rounds)) {
            *b = b.min(t);
        }
        rounds += 1;
    }
    (best, rounds)
}

/// [`min_over_rounds`] of `a` and `b`, both timed in every round and in
/// alternating order, so neither systematically inherits the other's warm
/// caches or a frequency ramp, and a machine that changes speed between
/// rounds changes both.
fn paired(
    budget: Duration,
    min_rounds: u32,
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> ([f64; 2], u32) {
    min_over_rounds(budget, min_rounds, |round| alternate(round, &mut a, &mut b))
}

/// The times of `a` and `b` in round `round`: `b` runs first in even rounds.
fn alternate(round: u32, a: &mut impl FnMut() -> f64, b: &mut impl FnMut() -> f64) -> [f64; 2] {
    if round.is_multiple_of(2) {
        let b = b();
        [a(), b]
    } else {
        [a(), b()]
    }
}

/// Wall seconds for `batch` calls of `op`.
fn time_batch(batch: u64, op: &mut impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let acc = (0..batch).fold(0u64, |acc, _| acc.wrapping_add(op()));
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(acc);
    secs
}

/// Fused over sequential depth-4 send rate. Twenty runs on two cores read
/// 2.12-3.98, and 0.82-1.02 with the fused chain routed through the
/// sequential walk (EXPERIMENTS G10).
const MIN_FUSION: f64 = 1.6;

/// Fused adjudication. `fusion`: send adjudications/s of the depth-4
/// Figure-2 chain (the fusion sweep's headline point: deep enough that
/// outcome replay carries the number, small enough to stay cache-resident)
/// over the sequential walk's (`MonitorSet::instantiate_sequential`) on
/// the same chain; losing fusion entirely reads 1. `replay`, a count:
/// after one allowed probe `send` on a depth-8 chain, 1,000 reply `recv`s
/// execute 1,000 sections (the recorder's), replay 7,000 outcomes whole
/// and rerun none. Every `recv` reads `ping_dst`, so an engine that
/// re-executes each copy from its first persistent read executes 8,000.
fn throughput(budget: Duration) -> Vec<Check> {
    const BATCH: u64 = 200_000;
    const RECVS: u64 = 1000;
    let (encoded, probe, info) = figure2_fixture();
    let mut fused = figure2_chain(4, &encoded, &info);
    let mut walk = MonitorSet::instantiate_sequential(&vec![encoded.clone(); 4], &info)
        .expect("monitors instantiate");
    assert!(
        fused.allow_send(&probe, &info) && walk.allow_send(&probe, &info),
        "probe allowed"
    );
    let mut fused_op = || u64::from(fused.allow_send(&probe, &info));
    let mut walk_op = || u64::from(walk.allow_send(&probe, &info));
    let ([fused, walk], rounds) = paired(
        budget,
        4,
        || time_batch(BATCH, &mut fused_op),
        || time_batch(BATCH, &mut walk_op),
    );

    let (reply, mut deep) = (figure2_reply(), figure2_chain(8, &encoded, &info));
    assert!(deep.allow_send(&probe, &info), "probe allowed");
    let before = deep.fuse_stats().expect("a fused chain");
    let allowed = (0..RECVS)
        .filter(|_| deep.allow_recv(&reply, &info))
        .count() as u64;
    let after = deep.fuse_stats().expect("a fused chain");
    let got = [
        after.executed - before.executed,
        after.replays - before.replays,
        after.reruns,
    ];
    let want = [RECVS, 7 * RECVS, 0];
    let detail = format!(
        "{allowed} of {RECVS} reply recvs allowed on a depth-8 chain: {} sections executed, \
         {} outcomes replayed, {} reruns (exactly {}, {}, {})",
        got[0], got[1], got[2], want[0], want[1], want[2]
    );
    let what = "depth-4 send adjudications/s, fused over the sequential walk";
    vec![
        Check::quotient("fusion", what, walk / fused, MIN_FUSION, rounds),
        Check::new("replay", allowed == RECVS && got == want, detail),
    ]
}

/// Two identical bare engines read 0.940-1.019 against each other by the
/// median of paired rounds over twenty runs (EXPERIMENTS G15), one of them
/// under the bar; by the minimum of each side they read 0.923-1.085, two
/// under it. A wrapper that adjudicates 5 % more reads 0.896-0.9498 by the
/// median, all twenty under the bar, and 0.784-1.040 by the minima.
const MIN_OBS_RATIO: f64 = 0.95;

/// Disabled instrumentation costs (effectively) nothing on the PFVM hot
/// path: with `plab-obs` off (the default), depth-1 send adjudications
/// through the instrumented `MonitorSet` against an uninstrumented twin:
/// the one-section `plab_filter::FusedVm` that `MonitorSet::instantiate`
/// builds, called directly (plab-filter carries no instrumentation, so the
/// twin is the same engine minus the `MonitorSet` wrapper and its
/// `obs_on` test). The bar is what wall time can resolve here: two
/// identical twins read as low as 0.940 against each other, so a
/// wrapper that costs what its one test costs passes, and one that costs
/// 5 % of a 53 ns adjudication does not. Here `--secs` is the length of
/// one batch, not of the run (at 0.2 s the twins read 0.968-1.052), so
/// the batch is 0.5 s and the rounds 24. The reading is the median of
/// each round's quotient, not a quotient of minima: the two halves of a
/// round see the same machine, and one lucky batch of either side does
/// not decide it.
fn obs(budget: Duration) -> Vec<Check> {
    assert!(!plab_obs::enabled(), "guard measures the disabled path");
    let (encoded, probe, info) = figure2_fixture();
    // The obs snapshot is taken at instantiation: the production shape.
    let mut set = figure2_chain(1, &encoded, &info);
    assert!(set.allow_send(&probe, &info), "probe allowed");
    let program = Program::decode(&encoded).expect("the fixture decodes");
    let mut twin =
        FusedVm::new(vec![program], vec![VmConfig::default().fuel]).expect("the fixture validates");
    twin.init_all(&info);
    let mut inst_op = || u64::from(set.allow_send(&probe, &info));
    let mut twin_op = || u64::from(twin.check_entry(EntryPoint::Send, &probe, &info).allowed());
    assert_eq!(twin_op(), 1, "twin allows probe");

    // A batch sized so one takes roughly the budget.
    let per_call = time_batch(100_000, &mut inst_op) / 1e5;
    let batch = ((budget.as_secs_f64() / per_call) as u64).clamp(1, 50_000_000);
    let mut inst = || time_batch(batch, &mut inst_op);
    let mut twin = || time_batch(batch, &mut twin_op);
    let mut quotients: Vec<f64> = (0..24)
        .map(|round| {
            let [inst, twin] = alternate(round, &mut inst, &mut twin);
            twin / inst
        })
        .collect();
    quotients.sort_by(f64::total_cmp);
    let median = (quotients[11] + quotients[12]) / 2.0;
    let detail = format!(
        "depth-1 adjudications/s, MonitorSet over its bare FusedVm: {median:.3} \
         (bar {MIN_OBS_RATIO}, median over 24 paired rounds)"
    );
    vec![Check::new("ratio", median >= MIN_OBS_RATIO, detail)]
}

/// Events, pool takes, frames recycled and copy-on-write copies of one
/// 128-host round: every host's four probes and their replies, each a
/// frame of its own that comes back.
const NETSIM_COUNTS: [u64; 4] = [6_656, 1_024, 1_024, 0];

/// Events/s at 1,024 hosts over events/s at 16. Twenty runs on two cores
/// read 0.85-1.37, and 0.12-0.15 with a route lookup that scans the
/// table (EXPERIMENTS G10).
const MIN_SIZE_DECAY: f64 = 0.6;

/// The simulator on the chain world of `repro netsim_scale`. `counts`:
/// the 128-host round (the mid-size sweep point: big enough to exercise
/// the timer wheel and route tables), pumped to quiescence, is exactly
/// [`NETSIM_COUNTS`]. `size_decay`:
/// events/s at 1,024 hosts over events/s at 16 (a batch of 64 rounds, so
/// that a timing is not a few hundred events), both in every round of
/// one process. A per-packet cost that grows with the world is what it
/// catches; the 16-host world has nothing to grow. PR 13's colliding
/// `FxHasher` (the raw product in `finish`) moves it about 12 % and does
/// not fail it: `build_growth` is that hash's check.
fn netsim(budget: Duration) -> Vec<Check> {
    // 64 rounds of 16 hosts are 20,480 events, a round of 1,024 282,624.
    const SIZES: [(usize, u32); 2] = [(16, 64), (1024, 1)];
    let (events, _, sim) = netsim_scale::round(128);
    let pool = &sim.pools()[0];
    let got = [events, pool.taken(), pool.recycled(), pool.cow_copies()];
    let counts = Check::counts(
        "counts",
        "events, pool takes, recycled, CoW copies",
        got,
        NETSIM_COUNTS,
    );

    // Seconds per event over a batch of `reps` rounds of `hosts`.
    let per_event = |(hosts, reps): (usize, u32)| {
        let (mut events, mut secs) = (0, 0.0);
        for _ in 0..reps {
            let (ev, s, _) = netsim_scale::round(hosts);
            (events, secs) = (events + ev, secs + s);
        }
        secs / events as f64
    };
    let ([small, large], rounds) =
        paired(budget, 4, || per_event(SIZES[0]), || per_event(SIZES[1]));
    let what = "events/s at 1,024 hosts over 16";
    vec![
        counts,
        Check::quotient("size_decay", what, small / large, MIN_SIZE_DECAY, rounds),
    ]
}

const SHARDS: usize = 4;

/// Events, windows and cross-shard handoffs of one 1,024-host round on 4
/// shards: 2 ms windows over one virtual second, and every 16th host's
/// probes and replies crossing a pod boundary.
const SHARD_COUNTS: [u64; 3] = [22_272, 500, 768];

/// Events of one 10,240-host round on 4 shards and one thread, and how
/// many of them the look-ahead read past. Deleting the look-ahead reads
/// the second as 0 (EXPERIMENTS G17).
const LOOK_AHEAD_COUNTS: [u64; 2] = [222_720, 221_844];

/// Events/s on 4 shards over 1 shard, one thread, 1,024 hosts. Twenty
/// runs on two cores read 0.90-0.97, and 0.09-0.13 with a thread scope
/// opened per window at one thread (EXPERIMENTS G10).
const MIN_WINDOWED: f64 = 0.6;

/// Events/s on `min(4, cores)` threads over one thread, 40,960 hosts on 4
/// shards. On two cores twenty runs read 1.03-1.53, and 0.71-1.02 with
/// each shard's thread joined before the next one spawns: the ranges
/// touch, so the bar sits under the lowest reading, and it caught that
/// mutation in 19 runs of 20, not in every one (EXPERIMENTS G10).
const MIN_THREADED: f64 = 0.95;

/// The windowed multi-shard engine. `windowed`: the 1024-host pod world
/// on 4 shards over the same world on 1, both on one thread and in every
/// round, half the budget; `windows`, a count, the same 4-shard round's
/// [`SHARD_COUNTS`]. `threaded`: `min(4, cores)` threads over one thread,
/// only where there is a second core; on the 40,960-host world, because
/// a threaded round opens a scope of four threads for each of its 500
/// windows, and only a window this full pays for them: at 10,240 hosts
/// two threads lose to one on two cores (0.57-0.73) and a serialised
/// advance reads the same (0.27-0.61). Two cores are its ceiling: four
/// shards share them, and each window ends at a barrier.
/// `scale_decay`, a count: what a tenfold world loses is the latency of
/// first touches, and `Sim::step`'s look-ahead (DESIGN "Netsim") is what
/// hides it, so the check pins the 10,240-host round's
/// [`LOOK_AHEAD_COUNTS`]. It was a quotient, events/s at 10,240 hosts over
/// 1,024, but that no longer separated the code from a pump without the
/// look-ahead on two cores: twenty runs each read 0.433-0.670 and
/// 0.368-0.489 by the median of paired rounds, and 0.366-0.574 and
/// 0.289-0.420 at 40,960 hosts (EXPERIMENTS G17). `build_growth`,
/// `build_rss`: world construction
/// is outside every event timing, so it has bounds of its own, each
/// measured in a fresh process ([`netsim_scale::build_cost`]): 102,400
/// hosts may take at most 20x as long to build as 10,240 (linear is 10; a
/// per-node scan or a colliding hash reads in the hundreds), and the
/// 4-shard world may hold at most 2x the resident memory of the 1-shard
/// one (shards own partitions; replicas would read ~3x). The 4-shard chaos
/// digests are pinned once, in `determinism_regression.rs`, and replayed
/// by `tests/chaos.rs`; CI runs both beside this guard.
fn netsim_shard(budget: Duration) -> Vec<Check> {
    const BUILD_HOSTS: [usize; 2] = [10_240, 102_400];
    const MAX_BUILD_GROWTH: f64 = 20.0;
    const MAX_RSS_GROWTH: f64 = 2.0;

    // Builds first: a child spawned right after a threaded round of this
    // size reads 0.3-1.0 s against 0.2 s otherwise (EXPERIMENTS P1 addendum).
    let [small, large] = BUILD_HOSTS.map(|n| netsim_scale::build_cost(n, SHARDS));
    let one_shard = netsim_scale::build_cost(BUILD_HOSTS[1], 1);

    // Events/s of `hosts` on `shards` and `threads`, as seconds per event
    // (what `paired` keeps the minimum of), and the round's counts.
    let per_event = |hosts: usize, shards: usize, threads: usize| {
        let (ev, secs, world) = netsim_scale::round_pods(hosts, shards, threads);
        for pool in world.sim.pools() {
            assert_eq!(pool.taken(), pool.recycled(), "pool leak in shard world");
        }
        (
            secs / ev as f64,
            [ev, world.sim.windows_run(), world.sim.handoffs()],
        )
    };
    let mut got = Vec::new();
    let ([sharded, whole], rounds) = paired(
        budget / 2,
        4,
        || {
            let (t, counts) = per_event(1024, SHARDS, 1);
            got.push(counts);
            t
        },
        || per_event(1024, 1, 1).0,
    );
    let what = "one thread, 1,024 hosts: events/s on 4 shards over 1";
    let windowed = Check::quotient("windowed", what, whole / sharded, MIN_WINDOWED, rounds);
    let drift = got.iter().find(|&&c| c != SHARD_COUNTS).unwrap_or(&got[0]);
    let mut windows = Check::counts("windows", "events, windows, handoffs", *drift, SHARD_COUNTS);
    windows.detail += &format!(" a round, over {} rounds", got.len());

    let threads = cores().clamp(1, SHARDS);
    let threaded = if threads == 1 {
        Check::skipped("threaded", "1 core")
    } else {
        let ([many, one], rounds) = paired(
            budget / 2,
            4,
            || per_event(40_960, SHARDS, threads).0,
            || per_event(40_960, SHARDS, 1).0,
        );
        let what = format!(
            "40,960 hosts on 4 shards: events/s on {threads} threads over 1 \
             ({} cores; at most 4 shards' worth)",
            cores()
        );
        Check::quotient("threaded", &what, one / many, MIN_THREADED, rounds)
    };
    let (events, _, world) = netsim_scale::round_pods(10_240, SHARDS, 1);
    let scale_decay = Check::counts(
        "scale_decay",
        "one thread, 10,240 hosts: events, events the look-ahead read past",
        [events, world.sim.warmed()],
        LOOK_AHEAD_COUNTS,
    );
    let growth = large.secs / small.secs;
    // Without procfs both readings are 0 and the ratio is NaN.
    let rss_growth = large.rss_kb as f64 / one_shard.rss_kb as f64;
    let build_rss = if rss_growth.is_nan() {
        Check::skipped("build_rss", "no /proc/self/status")
    } else {
        let detail = format!(
            "{:.1} MB on {SHARDS} shards vs {:.1} MB on 1 (x{rss_growth:.2}, \
             bound x{MAX_RSS_GROWTH})",
            large.rss_kb as f64 / 1024.0,
            one_shard.rss_kb as f64 / 1024.0
        );
        Check::new("build_rss", rss_growth <= MAX_RSS_GROWTH, detail)
    };
    let build_detail = format!(
        "{} hosts in {:.3} s, {} in {:.3} s (x{growth:.1}, bound x{MAX_BUILD_GROWTH})",
        BUILD_HOSTS[0], small.secs, BUILD_HOSTS[1], large.secs
    );
    vec![
        windowed,
        windows,
        threaded,
        scale_decay,
        Check::new("build_growth", growth <= MAX_BUILD_GROWTH, build_detail),
        build_rss,
    ]
}

/// Digests of the 512-endpoint guard roster, clean and under the shared
/// fault plan (they match `BENCH_fleet.json`'s sweep row). To re-pin after
/// an *intentional* report change, run `repro fleet --sweep 512` and
/// paste the printed clean and chaos digests.
const PINNED_FLEET_CLEAN: u64 = 0xb2ca_999d_eef6_7529;
const PINNED_FLEET_CHAOS: u64 = 0x0ae5_d52f_df16_91ef;

/// What one clean run of the 512-endpoint roster counts, in the order of
/// [`FLEET_COUNTERS`]: the harness's servicing passes, the runner's
/// probes of signalled tasks and its polls of task futures (170.6, 39.0
/// and 19 a task), the same on 1, 2 and 4 shard threads.
const FLEET_COUNTERS: [&str; 3] = ["harness.passes", "runner.wake_probes", "runner.task_polls"];
const FLEET_COUNTS: [u64; 3] = [87_336, 19_973, 9_728];

/// The fleet runner on the 512-endpoint roster (ping + Figure-2 monitor
/// over 4 shards, the construction `repro fleet` measures). `wakeups`, a
/// count: one clean run, recorded, makes exactly [`FLEET_COUNTS`] of
/// [`FLEET_COUNTERS`]; a runner that probes every parked task on each
/// pass, or a harness that services before each event as well, makes
/// more. The clean run and a second, unrecorded one must seal the pinned
/// clean report; the chaos variant (crash/restart + burst loss) runs
/// twice, both reports bit-identical and equal to the chaos pin. Reports
/// and counts are machine- and thread-count-independent, so drift means
/// fleet scheduling or replay is broken whatever the throughput.
fn fleet_roster(_: Duration) -> Vec<Check> {
    let (pairs, threads) = (fleet::GUARD_PAIRS, fleet::threads());
    plab_obs::enable();
    plab_obs::reset();
    let recorded = fleet::point(pairs, threads, false).0.report;
    plab_obs::disable();
    let counted = FLEET_COUNTERS.map(plab_obs::metrics::counter);
    let clean = [
        recorded.digest,
        fleet::point(pairs, threads, false).0.report.digest,
    ];
    let [a, b] = [(); 2].map(|()| fleet::point(pairs, threads, true).0.report);
    let replayed = a.digest == b.digest && a.events == b.events && a.summary == b.summary;
    vec![
        Check::counts("wakeups", &FLEET_COUNTERS.join(", "), counted, FLEET_COUNTS),
        Check::pinned("clean_pinned", &clean, PINNED_FLEET_CLEAN),
        Check::pinned("chaos_pinned", &[a.digest], PINNED_FLEET_CHAOS),
        Check::new(
            "chaos_replay_identical",
            replayed,
            format!("second run {:#018x}", b.digest),
        ),
    ]
}

/// Digest of the 20-topology corpus trace (`BENCH_bwest.json`'s
/// `trace_fnv`). To re-pin after an *intentional* estimator or
/// trace-schema change, run `repro bwest` and paste its printed digest.
const PINNED_BWEST_TRACE: u64 = 0x8786_bdd8_f1e0_d476;

/// Dense servicing passes per event on the corpus: 0.504, where a pass
/// after every event read 1.061 and three read 3.06.
const MAX_PASSES_PER_EVENT: f64 = 0.58;

/// The bwest probe suite over the ground-truth corpus, twice: at least
/// [`bwest::MIN_WITHIN`] topologies with every destination inside
/// [`bwest::TOLERANCE_PCT`] of the configured bottleneck, both passes
/// rendering the pinned qlog JSON-SEQ trace, and at most
/// [`MAX_PASSES_PER_EVENT`] harness servicing passes per simulator event.
/// Traces and counts are machine-independent (virtual clock, integer
/// rendering), so any drift is a real regression.
fn bwest_corpus(_: Duration) -> Vec<Check> {
    let [(errors, digest, per_event), (errors_b, digest_b, _)] = [(); 2].map(|()| {
        let (points, qlog, _) = bwest::run_corpus();
        let errors: Vec<_> = points
            .iter()
            .map(|p| (p.name, p.worst_error_pct()))
            .collect();
        (
            errors,
            fnv1a64(qlog.as_bytes()),
            bwest::passes_per_event(&points),
        )
    });
    let within = errors
        .iter()
        .filter(|&&(_, e)| e <= bwest::TOLERANCE_PCT)
        .count();
    let (worst, err) = errors
        .iter()
        .copied()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("a corpus");
    let accuracy = format!(
        "{within}/{} topologies within {}% (bar {}), worst {worst} at {err:.1}%",
        errors.len(),
        bwest::TOLERANCE_PCT,
        bwest::MIN_WITHIN
    );
    let replayed = digest == digest_b && errors == errors_b;
    vec![
        Check::new("within", within >= bwest::MIN_WITHIN, accuracy),
        Check::new(
            "replay_identical",
            replayed,
            format!("second pass {digest_b:#018x}"),
        ),
        Check::pinned("pinned", &[digest], PINNED_BWEST_TRACE),
        Check::new(
            "passes_per_event",
            per_event <= MAX_PASSES_PER_EVENT,
            format!("{per_event:.3}"),
        ),
    ]
}

/// Sessions and round trips a session of the pinned ctrl point (the
/// `BENCH_ctrl.json` sweep row), and the digest of its reply stream. To
/// re-pin after an *intentional* wire or agent change, run
/// `repro ctrl_scale` and paste the printed 1024-session digest.
const CTRL_SESSIONS: usize = 1024;
const CTRL_OPS: u32 = 100;
const PINNED_CTRL_DIGEST: u64 = 0x27b8_c596_556e_9713;

/// Wall ops/s at 4,096 sessions over 64. Twenty runs on two cores read
/// 0.44-0.71, and 0.04-0.08 with a dispatch that finds a session's slot
/// by linear scan (EXPERIMENTS G10).
const MIN_SESSION_SCALE: f64 = 0.3;

/// The multiplexed endpoint reactor. `session_scale`: wall ops/s of the
/// 4,096-session point over the 64-session point (stop-and-wait clients
/// over the 10 ms virtual RTT, `repro ctrl_scale`'s construction), both
/// in every round; a per-op cost that grows with the sessions enrolled is
/// what it catches. `scales`: aggregate virtual ops/sec of the pinned
/// 1,024-session point at least 10x the single-session serial baseline
/// with per-op p99 at the RTT floor; the reactor drains every servable
/// message per tick, so any scheduling delay is a regression. `pinned`:
/// two passes' flushed reply streams. `idle_cheap`: with 4096 sessions
/// enrolled and none sending, a pump + dispatch + flush turn costs at
/// most 2x the 4096 `tcp_readable` probes it has to make, both timed
/// here: twenty runs on two cores read 1.47-1.69, and 2.19-2.55 with a
/// pump that reads every connection each turn (EXPERIMENTS P10).
/// `verify_once`, a count: N authentications of one chain on
/// one agent run N + chain_len curve verifications (each possession
/// proof, the chain once), and N agents authenticating it once each run
/// N x (chain_len + 1). `prepared`, a count: a 4,096-session world's
/// set-up verifies three possession proofs cold and the rest under the
/// experimenter key's comb table; the 64 agents prepare nothing.
fn ctrl_mux(budget: Duration) -> Vec<Check> {
    const SCALE_SESSIONS: [usize; 2] = [64, 4096];
    const IDLE_SESSIONS: usize = 4096;
    const IDLE_MAX_OVER_PROBES: f64 = 2.0;
    const AUTHS: u64 = 64;
    const COLD_PROOFS: u64 = 3;
    let per_op = |sessions| {
        let p = ctrl::point(sessions, CTRL_OPS);
        p.wall_secs / p.ops as f64
    };
    let ([few, many], rounds) = paired(
        budget,
        2,
        || per_op(SCALE_SESSIONS[0]),
        || per_op(SCALE_SESSIONS[1]),
    );
    let passes = [(); 2].map(|()| ctrl::point(CTRL_SESSIONS, CTRL_OPS));
    let (mux, serial) = (passes[0], ctrl::point(1, CTRL_OPS));
    let speedup = mux.virtual_ops_per_sec() / serial.virtual_ops_per_sec();
    let scales = speedup >= 10.0 && mux.p99_ns <= ctrl::RTT_NS && serial.p99_ns <= ctrl::RTT_NS;
    let idle = ctrl::ScaleWorld::new(IDLE_SESSIONS).idle_turn_over_probes(200);
    let scaling = format!(
        "{speedup:.1}x over serial (threshold 10x), p99 {:.1} ms (floor {:.1} ms)",
        mux.p99_ns as f64 / 1e6,
        ctrl::RTT_NS as f64 / 1e6
    );
    let idle_detail = format!(
        "an idle turn costs {idle:.2}x its {IDLE_SESSIONS} readiness probes \
         (bound {IDLE_MAX_OVER_PROBES}x)"
    );
    let (one_agent, _) = ctrl::auth_verifications(1, AUTHS as usize);
    let (apart, apart_prepared) = ctrl::auth_verifications(AUTHS as usize, 1);
    let want = (AUTHS + ctrl::CHAIN_LEN, AUTHS * (ctrl::CHAIN_LEN + 1));
    let verify_detail = format!(
        "{AUTHS} authentications of one chain verify {one_agent} signatures on one agent \
         (exactly {}), {apart} on {AUTHS} agents (exactly {})",
        want.0, want.1
    );
    let (verified, prepared) = ctrl::auth_verifications(1, IDLE_SESSIONS);
    let cold = verified.saturating_sub(ctrl::CHAIN_LEN + prepared);
    let split = (cold, prepared, apart_prepared);
    let want_split = (COLD_PROOFS, IDLE_SESSIONS as u64 - COLD_PROOFS, 0);
    let split_detail = format!(
        "(cold, prepared) proofs of {IDLE_SESSIONS} sessions on one agent, and prepared \
         on {AUTHS} agents: {split:?} (exactly {want_split:?})"
    );
    let what = "wall ops/s at 4,096 sessions over 64";
    vec![
        Check::quotient("session_scale", what, few / many, MIN_SESSION_SCALE, rounds),
        Check::new("scales", scales, scaling),
        Check::pinned("pinned", &passes.map(|p| p.digest), PINNED_CTRL_DIGEST),
        Check::new("idle_cheap", idle <= IDLE_MAX_OVER_PROBES, idle_detail),
        Check::new("verify_once", (one_agent, apart) == want, verify_detail),
        Check::new("prepared", split == want_split, split_detail),
    ]
}

/// What one guard found.
pub struct Report {
    /// The guard's name.
    pub guard: &'static str,
    /// Its checks, in the order it made them.
    pub checks: Vec<Check>,
}

impl Report {
    /// Whether every check held.
    pub fn pass(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    fn text(&self) -> String {
        let mut out = String::new();
        for c in &self.checks {
            let mark = if c.pass { "ok  " } else { "FAIL" };
            out.push_str(&format!(
                "{} guard: {mark} {}: {}\n",
                self.guard, c.name, c.detail
            ));
        }
        out + &format!(
            "{}: {}\n",
            if self.pass() { "PASS" } else { "FAIL" },
            self.guard
        )
    }
}

/// The `--json` document: every check of every guard run, and the overall
/// verdict.
pub fn render_json(reports: &[Report]) -> String {
    let rows: Vec<String> = reports
        .iter()
        .flat_map(|r| r.checks.iter().map(move |c| (r.guard, c)))
        .map(|(guard, c)| {
            format!(
                "{{\"guard\": \"{guard}\", \"check\": \"{}\", \"pass\": {}, \"detail\": \"{}\"}}",
                c.name,
                c.pass,
                json_escape(&c.detail)
            )
        })
        .collect();
    format!(
        "{{\n  \"checks\": [\n{}\n  ],\n  \"pass\": {}\n}}\n",
        crate::reportjson::json_rows(&rows, "    "),
        exit_code(reports) == 0
    )
}

/// 0 when every check of every report held, else 1.
pub fn exit_code(reports: &[Report]) -> i32 {
    i32::from(!reports.iter().all(Report::pass))
}

/// What a `repro` command line asked for, typed. A flag sets the field
/// named after it; one that was not given leaves `None` (`false`, empty)
/// and the command's body supplies its default.
#[derive(Default)]
pub struct Opts {
    /// `guard --json`: the machine-readable report on stdout, the text one
    /// suppressed.
    pub json: bool,
    /// `--trace`: run under the flight recorder and write its artifacts.
    pub trace: bool,
    /// `--secs`: the measurement budget.
    pub secs: Option<Duration>,
    /// `--seed`.
    pub seed: Option<u64>,
    /// `--base`: the seed a chaos `--sweep` derives its seeds from.
    pub base: Option<u64>,
    /// `--iters`: executions per fuzz target.
    pub iters: Option<u64>,
    /// `--rounds`: rounds the minimum is kept over.
    pub rounds: Option<u64>,
    /// chaos `--sweep`: derived seeds per scenario.
    pub seeds: Option<u64>,
    /// fleet `--sweep`: roster sizes.
    pub rosters: Option<Vec<usize>>,
    /// `--scenario`.
    pub scenario: Option<Scenario>,
    /// `--target`.
    pub target: Option<&'static str>,
    /// `guard`'s operand: the rows it names.
    pub guards: Vec<&'static Guard>,
}

/// Decimal or `0x` hex, the way every report prints a seed.
fn number(v: &str) -> Result<u64, String> {
    let parsed = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|_| "a decimal or 0x-hex number".to_string())
}

fn non_negative(v: &str) -> Result<f64, String> {
    let parsed = v
        .parse()
        .ok()
        .filter(|&v| Duration::try_from_secs_f64(v).is_ok());
    parsed.ok_or_else(|| "a non-negative number".to_string())
}

/// The member of `all` that `name` calls `v`, or the names there are.
fn one_of<T: Copy>(v: &str, all: &[T], name: impl Fn(&T) -> &'static str) -> Result<T, String> {
    let names = || all.iter().map(&name).collect::<Vec<_>>().join(", ");
    all.iter()
        .copied()
        .find(|t| name(t) == v)
        .ok_or_else(|| format!("one of {}", names()))
}

/// One row of `repro`'s table: what `repro <name>` accepts. The bodies
/// live with the binary (`src/bin/repro/`), which finds a row's function
/// by its name; they stay out of this library because the repo benchmark
/// links it.
pub struct Command {
    /// What the command line, CI and `results/repro_<name>.txt` call it.
    pub name: &'static str,
    /// What may follow it, as usage prints each: `--flag`, `--flag VALUE`,
    /// or first a required bare `<word>`. [`parse`] has an arm for each.
    args: &'static [&'static str],
}

/// Every paper artifact, perf snapshot and harness `repro` runs.
pub static COMMANDS: [Command; 16] = [
    Command {
        name: "bandwidth",
        args: &[],
    },
    Command {
        name: "bwest",
        args: &[],
    },
    Command {
        name: "chaos",
        args: &[
            "--scenario NAME",
            "--seed N",
            "--sweep N",
            "--base N",
            "--trace",
        ],
    },
    Command {
        name: "contention",
        args: &[],
    },
    Command {
        name: "ctrl_scale",
        args: &[],
    },
    Command {
        name: "fig1",
        args: &[],
    },
    Command {
        name: "fig2",
        args: &[],
    },
    Command {
        name: "fleet",
        args: &["--sweep PAIRS,.."],
    },
    Command {
        name: "fuzz",
        args: &["--target NAME", "--seed N", "--iters N"],
    },
    Command {
        name: "guard",
        args: &["<guard>", "--secs S", "--json"],
    },
    Command {
        name: "netsim_scale",
        args: &["--rounds N"],
    },
    Command {
        name: "rendezvous",
        args: &[],
    },
    Command {
        name: "rtt_limitation",
        args: &[],
    },
    Command {
        name: "table1",
        args: &[],
    },
    Command {
        name: "throughput",
        args: &["--secs S"],
    },
    Command {
        name: "traceroute",
        args: &[],
    },
];

impl Command {
    fn usage(&self) -> String {
        let arg = |a: &&str| {
            if a.starts_with('<') {
                format!(" {a}")
            } else {
                format!(" [{a}]")
            }
        };
        format!(
            "repro {}{}",
            self.name,
            self.args.iter().map(arg).collect::<String>()
        )
    }
}

/// The one option parser: `args` (the command line without the program
/// name) against [`COMMANDS`]. An error is what was wrong and the usage
/// of the row it was wrong for (of every row when none was named), ready
/// for stderr and exit 2.
pub fn parse(args: &[String]) -> Result<(&'static Command, Opts), String> {
    let table = || {
        COMMANDS
            .iter()
            .map(|c| format!("\n  {}", c.usage()))
            .collect::<String>()
    };
    let (name, rest) = args
        .split_first()
        .ok_or_else(|| format!("usage:{}", table()))?;
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command `{name}`\nusage:{}", table()))?;
    let bad = |what: String| format!("{what}\nusage: {}", command.usage());
    let mut o = Opts::default();
    // Store `v` as what `arg` (an entry of a row's `args`) takes, or say what that is.
    let mut set = |arg: &str, v: &str| {
        let stored = match arg {
            "--json" => {
                o.json = true;
                Ok(())
            }
            "--trace" => {
                o.trace = true;
                Ok(())
            }
            "--secs S" => non_negative(v).map(|s| o.secs = Some(Duration::from_secs_f64(s))),
            "--seed N" => number(v).map(|n| o.seed = Some(n)),
            "--base N" => number(v).map(|n| o.base = Some(n)),
            "--iters N" => number(v).map(|n| o.iters = Some(n)),
            "--rounds N" => number(v).map(|n| o.rounds = Some(n)),
            "--sweep N" => number(v).map(|n| o.seeds = Some(n)),
            "--sweep PAIRS,.." => {
                let sizes: Option<Vec<usize>> = v.split(',').map(|s| s.parse().ok()).collect();
                sizes
                    .map(|s| o.rosters = Some(s))
                    .ok_or("comma-separated roster sizes".into())
            }
            "--scenario NAME" => {
                one_of(v, &Scenario::all(), Scenario::name).map(|s| o.scenario = Some(s))
            }
            "--target NAME" => one_of(v, TARGETS, |t| *t).map(|t| o.target = Some(t)),
            "<guard>" => {
                o.guards = GUARDS
                    .iter()
                    .filter(|g| v == "all" || v == g.name)
                    .collect();
                let names = || GUARDS.iter().map(|g| g.name).collect::<Vec<_>>().join(", ");
                let takes = || format!("`all` or one of {}", names());
                (!o.guards.is_empty()).then_some(()).ok_or_else(takes)
            }
            _ => unreachable!("a row of COMMANDS lists `{arg}` and the parser has no arm for it"),
        };
        let name = arg.split(' ').next().unwrap_or(arg);
        stored.map_err(|takes| bad(format!("{name} takes {takes}")))
    };
    // A value that is missing reads as the empty word, which no typed
    // value accepts.
    let mut words = rest.iter().map(String::as_str);
    if let Some(operand) = command.args.first().filter(|a| a.starts_with('<')) {
        set(operand, words.next().unwrap_or(""))?;
    }
    while let Some(word) = words.next() {
        let arg = command
            .args
            .iter()
            .find(|a| a.split(' ').next() == Some(word));
        let arg = arg.ok_or_else(|| bad(format!("unknown option `{word}`")))?;
        set(
            arg,
            if arg.contains(' ') {
                words.next().unwrap_or("")
            } else {
                ""
            },
        )?;
    }
    Ok((command, o))
}

/// `repro guard`: run the guards named, print, and return the exit code.
pub fn run(opts: &Opts) -> i32 {
    let mut reports = Vec::new();
    for guard in &opts.guards {
        let budget = opts.secs.unwrap_or(Duration::from_secs_f64(guard.secs));
        let report = Report {
            guard: guard.name,
            checks: (guard.checks)(budget),
        };
        if !opts.json {
            print!("{}", report.text());
        }
        reports.push(report);
    }
    if opts.json {
        print!("{}", render_json(&reports));
    }
    exit_code(&reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_runs_its_minimum_rounds_and_keeps_the_minimum() {
        let times = [3.0, 1.0, 2.0, 0.5];
        let (best, rounds) = min_over_rounds(Duration::ZERO, 3, |i| [times[i as usize], 7.0]);
        assert_eq!((best, rounds), ([1.0, 7.0], 3));
    }

    /// What is left of `s` after one JSON value, `None` if it opens with none.
    fn json_value(s: &str) -> Option<&str> {
        let s = s.trim_start();
        let close = match s.chars().next()? {
            '{' => '}',
            '[' => ']',
            '"' => {
                let mut i = 1;
                loop {
                    match s.as_bytes().get(i)? {
                        b'"' => return Some(&s[i + 1..]),
                        b'\\' => i += 2,
                        c if *c < b' ' => return None,
                        _ => i += 1,
                    }
                }
            }
            _ => {
                let (word, rest) = s.split_at(s.find([',', '}', ']']).unwrap_or(s.len()));
                let word = word.trim_end();
                let ok = matches!(word, "true" | "false" | "null") || word.parse::<f64>().is_ok();
                return ok.then_some(rest);
            }
        };
        let mut rest = s[1..].trim_start();
        if let Some(after) = rest.strip_prefix(close) {
            return Some(after);
        }
        loop {
            if close == '}' {
                let key = rest.strip_prefix('"').map(|_| rest)?;
                rest = json_value(key)?.trim_start().strip_prefix(':')?;
            }
            rest = json_value(rest)?.trim_start();
            match rest.strip_prefix(',') {
                Some(more) => rest = more.trim_start(),
                None => return rest.strip_prefix(close),
            }
        }
    }

    #[test]
    fn a_failing_check_fails_the_report_in_valid_json() {
        let checks = vec![
            Check::new("ratio", true, "said \"fine\"".into()),
            Check::pinned("pinned", &[1, 2], 1),
        ];
        let reports = [Report {
            guard: "fleet",
            checks,
        }];
        let json = render_json(&reports);
        assert_eq!(
            json_value(&json).map(str::trim),
            Some(""),
            "not JSON: {json}"
        );
        assert!(
            json.contains("\"check\": \"pinned\", \"pass\": false"),
            "{json}"
        );
        assert!(json.ends_with("\"pass\": false\n}\n"), "{json}");
        assert_eq!(exit_code(&reports), 1);
        let text = reports[0].text();
        assert!(text.contains("FAIL pinned: 0x0000000000000002"), "{text}");
        assert!(text.ends_with("\nFAIL: fleet\n"), "{text}");
        for bad in [
            "{\"a\": [1, tru]}",
            "{\"a\": 1 \"b\": 2}",
            "[1,]",
            "{\"a\": \"x}",
        ] {
            assert!(json_value(bad).is_none(), "the validator accepts {bad}");
        }
    }

    #[test]
    fn a_bad_command_line_is_a_usage_error_that_lists_the_names() {
        let parse = |line: &str| {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            super::parse(&args).map(|(command, opts)| (command.name, opts))
        };
        let rejected = |line: &str| {
            parse(line)
                .err()
                .unwrap_or_else(|| panic!("`{line}` parsed"))
        };
        for name in [
            "throughput",
            "obs",
            "netsim",
            "netsim-shard",
            "fleet",
            "bwest",
            "ctrl",
        ] {
            assert!(
                rejected("guard nope").contains(name),
                "{}",
                rejected("guard nope")
            );
        }
        for command in &COMMANDS {
            assert!(rejected("").contains(&command.usage()), "{}", rejected(""));
            assert!(rejected("nope").contains(&command.usage()));
        }
        let (name, opts) = parse("guard ctrl --secs 0.5 --json").expect("accepted");
        assert_eq!(
            (name, opts.guards[0].name, opts.guards.len()),
            ("guard", "ctrl", 1)
        );
        assert!(opts.json && !opts.trace);
        assert_eq!(opts.secs, Some(Duration::from_millis(500)));
        assert_eq!(
            parse("guard all").expect("accepted").1.guards.len(),
            GUARDS.len()
        );

        // A flag that ends the line without its value, a value of the
        // wrong type and a flag of another row or of none (`--min-ratio`
        // is gone) all name the row's usage: the sixteen binaries indexed
        // past the end or panicked in `expect`.
        for line in [
            "guard",
            "guard ctrl --secs -1",
            "guard ctrl --seed 1",
            "chaos --seed",
            "chaos --scenario",
            "chaos --sweep 0xzz",
            "chaos --base 1 --trace --sweep",
            "chaos extra",
            "fuzz --iters",
            "fuzz --iters many",
            "fuzz --seed --json",
            "fleet --sweep 512,",
            "throughput --secs soon",
            "netsim_scale --rounds",
            "table1 --secs 1",
            "table1 --json",
            "guard ctrl --min-ratio 0.2",
        ] {
            let usage = format!("usage: repro {}", line.split(' ').next().unwrap());
            assert!(
                rejected(line).contains(&usage),
                "`{line}`: {}",
                rejected(line)
            );
        }
        // Valid names come from the tables the bodies run, not a list here.
        for scenario in Scenario::all() {
            assert!(rejected("chaos --scenario nope").contains(scenario.name()));
            let line = format!(
                "chaos --scenario {} --seed 0x5eed0000 --sweep 40",
                scenario.name()
            );
            let (_, opts) = parse(&line).expect("accepted");
            let numbers = (opts.seed, opts.seeds, opts.base);
            assert_eq!(
                (opts.scenario, numbers),
                (Some(scenario), (Some(0x5eed_0000), Some(40), None))
            );
        }
        for target in TARGETS {
            assert!(rejected("fuzz --target nope").contains(target));
            assert_eq!(
                parse(&format!("fuzz --target {target}")).unwrap().1.target,
                Some(*target)
            );
        }
        assert_eq!(
            parse("fleet --sweep 512,1024").unwrap().1.rosters,
            Some(vec![512, 1024])
        );
    }
}
