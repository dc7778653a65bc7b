//! The guard harness and `repro`'s command line. Every claim CI defends
//! about this reproduction is one row of [`GUARDS`], run by
//! `repro guard <name>|all [--secs S] [--min-ratio R] [--json]`; every
//! command `repro` has is one row of [`COMMANDS`], and [`parse`] is the
//! one option parser for all of them. The timer, the baseline lookup,
//! rendering and the exit code (0 pass, 1 a check failed, 2 usage) exist
//! here once.
//!
//! **Throughput checks keep the minimum** over fixed-size rounds:
//! scheduler preemption and frequency ramps only ever add time, so the
//! minimum converges on the machine's true cost while averages drift with
//! load. The gates catch algorithmic cliffs, not single-digit drift.
//!
//! **Baselines** hold numbers from whatever machine last ran the matching
//! `repro` command; its recorded `cores` print next to every ratio. On a
//! much slower machine regenerate the file first or lower `--min-ratio`
//! rather than comparing apples to oranges (CI's shared runners pass
//! 0.2-0.5). Digest, scaling, accuracy and build-cost checks have no
//! knob: virtual time is machine-independent by construction and the
//! rest divide the machine out.

use crate::reportjson::cores;
use crate::{bwest, ctrl, figure2_chain, figure2_fixture, figure2_reply, fleet, netsim_scale};
use packetlab::chaos::Scenario;
use plab_filter::{EntryPoint, FusedVm, Program, VmConfig};
use plab_fuzz::TARGETS;
use plab_obs::export::{fnv1a64, json_escape};
use std::time::{Duration, Instant};

/// Where a guard's throughput baseline lives, `(file, row, field)`: in the
/// committed `BENCH_*.json` `file` (read from the working directory), the
/// object whose members equal every `(key, value)` of `row` as whole
/// values, and of it the rate `field` that the measured one is divided by.
pub type Baseline = (&'static str, &'static [(&'static str, u64)], &'static str);

/// One row of the table.
pub struct Guard {
    /// What `repro guard` and the CI matrix call it.
    pub name: &'static str,
    /// The committed number its `ratio` check is held to, if it has one.
    pub baseline: Option<Baseline>,
    /// Default `--secs`: the measurement budget of its timed checks.
    pub secs: f64,
    /// Default `--min-ratio`: measured / baseline must reach it.
    pub min_ratio: f64,
    /// Runs the guard.
    pub checks: fn(&Ctx) -> Vec<Check>,
}

/// The seven guards. Budgets and ratios are what a quiet machine of the
/// baseline's class should pass; CI's values live in `ci.yml`'s matrix.
pub static GUARDS: [Guard; 7] = [
    Guard {
        name: "throughput",
        baseline: Some(("BENCH_throughput.json", &[("monitors", 4)], "send_adjudications_per_sec")),
        secs: 2.0,
        min_ratio: 0.9,
        checks: throughput,
    },
    // Two identical bare engines read 0.954-1.029 against each other at
    // this batch length (twenty runs, EXPERIMENTS P7): the bar sits just
    // under the lowest.
    Guard { name: "obs", baseline: None, secs: 0.5, min_ratio: 0.95, checks: obs },
    Guard {
        name: "netsim",
        baseline: Some(("BENCH_netsim.json", &[("hosts", 128)], "events_per_sec")),
        secs: 2.0,
        min_ratio: 0.9,
        checks: netsim,
    },
    Guard {
        name: "netsim-shard",
        // The legacy `sweep` rows carry no `shards` member, so matching
        // on all three cannot hit them.
        baseline: Some((
            "BENCH_netsim.json",
            &[("hosts", 1024), ("shards", SHARDS as u64), ("threads", 1)],
            "events_per_sec",
        )),
        // At 2 s `scale_decay` cannot separate the two engines (EXPERIMENTS G7).
        secs: 4.0,
        // Looser than the sequential guard's: the windowed advance adds
        // barrier points whose cost is more scheduler-sensitive.
        min_ratio: 0.85,
        checks: netsim_shard,
    },
    Guard {
        name: "fleet",
        // The chaos object carries a different `pairs`, so it cannot match.
        baseline: Some((
            "BENCH_fleet.json",
            &[("pairs", fleet::GUARD_PAIRS as u64)],
            "endpoints_per_sec",
        )),
        secs: 6.0,
        min_ratio: 0.5,
        checks: fleet_roster,
    },
    // Nothing bwest checks is timed or machine-dependent: no budget, no ratio.
    Guard { name: "bwest", baseline: None, secs: 0.0, min_ratio: 0.0, checks: bwest_corpus },
    Guard {
        name: "ctrl",
        baseline: Some((
            "BENCH_ctrl.json",
            &[("sessions", CTRL_SESSIONS as u64)],
            "wall_ops_per_sec",
        )),
        secs: 6.0,
        min_ratio: 0.25,
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
        let drift = got.iter().find(|&&d| d != pin).or(got.last()).copied().unwrap_or(0);
        let detail = format!("{drift:#018x} (pinned {pin:#018x}, {} runs)", got.len());
        Check::new(name, got.iter().all(|&d| d == pin), detail)
    }
}

/// What a guard's checks are run with.
pub struct Ctx {
    /// The measurement budget (`--secs`, or the row's default).
    pub budget: Duration,
    /// The pass ratio (`--min-ratio`, or the row's default).
    pub min_ratio: f64,
    /// The row's baseline and the text of its file.
    baseline: Option<(&'static Baseline, String)>,
    /// The rate the row's baseline names (NaN without one).
    base: f64,
}

impl Ctx {
    /// The baseline rate of `row`, or which of row and field is missing
    /// from which file.
    fn lookup(&self, row: &[(&str, u64)]) -> Result<f64, String> {
        let ((file, _, field), text) =
            self.baseline.as_ref().expect("the guard's row names a baseline");
        let keys: Vec<String> = row.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        let at = format!("{file}: row {{{}}}", keys.join(", "));
        let found = find_row(text, row).ok_or_else(|| format!("{at} is missing"))?;
        member(found, field)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{at} has no numeric \"{field}\""))
    }

    /// `measured` (the fastest of `rounds`) over `base` against the pass
    /// ratio, with the machine the baseline came from next to it so "slower
    /// machine" shows.
    fn ratio(
        &self,
        name: &'static str,
        measured: f64,
        unit: &str,
        rounds: u32,
        base: f64,
    ) -> Check {
        let ratio = measured / base;
        let from = self.baseline.as_ref().map_or("measured here".to_string(), |((file, ..), text)| {
            let recorded = member(text, "cores").unwrap_or("?");
            format!("{file} recorded on {recorded} cores, this machine has {}", cores())
        });
        let detail = format!(
            "min over {rounds} rounds: {measured:.1} {unit} vs baseline {base:.1} \
             (ratio {ratio:.3}, threshold {}; {from})",
            self.min_ratio
        );
        Check::new(name, ratio >= self.min_ratio, detail)
    }
}

/// The text of member `key` in `obj`: what follows `"key":` up to the
/// next `,`, `}` or line end. No JSON dependency; the `BENCH_*` rows are
/// flat and one to a line.
fn member<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let tail = obj.split_once(&format!("\"{key}\":"))?.1;
    Some(tail.split([',', '}', '\n']).next()?.trim())
}

/// The object of `text` whose members equal every `(key, value)` of
/// `row`, as whole values: `128` does not match a row that says `1280`.
pub fn find_row<'a>(text: &'a str, row: &[(&str, u64)]) -> Option<&'a str> {
    text.split('{')
        .map(|s| s.split('}').next().unwrap_or(s))
        .find(|obj| row.iter().all(|&(k, v)| member(obj, k).is_some_and(|m| m == v.to_string())))
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

/// Wall seconds for `batch` calls of `op`.
fn time_batch(batch: u64, op: &mut impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let acc = (0..batch).fold(0u64, |acc, _| acc.wrapping_add(op()));
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(acc);
    secs
}

/// Fused adjudication. `ratio`: the depth-4 Figure-2 chain (the fusion
/// sweep's headline point: deep enough that outcome replay carries the
/// number, small enough to stay cache-resident) against `repro
/// throughput`'s 4-monitor `send_adjudications_per_sec`; losing fusion
/// entirely is a 3x cliff. `replay`, a count: after one allowed probe
/// `send` on a depth-8 chain, 1,000 reply `recv`s execute 1,000 sections
/// (the recorder's), replay 7,000 outcomes whole and rerun none. Every
/// `recv` reads `ping_dst`, so an engine that re-executes each copy from
/// its first persistent read executes 8,000.
fn throughput(ctx: &Ctx) -> Vec<Check> {
    const BATCH: u64 = 200_000;
    const RECVS: u64 = 1000;
    let (encoded, probe, info) = figure2_fixture();
    let mut set = figure2_chain(4, &encoded, &info);
    assert!(set.allow_send(&probe, &info), "probe allowed");
    let mut op = || u64::from(set.allow_send(&probe, &info));
    let ([best], rounds) = min_over_rounds(ctx.budget, 4, |_| [time_batch(BATCH, &mut op)]);

    let (reply, mut deep) = (figure2_reply(), figure2_chain(8, &encoded, &info));
    assert!(deep.allow_send(&probe, &info), "probe allowed");
    let before = deep.fuse_stats().expect("a fused chain");
    let allowed = (0..RECVS).filter(|_| deep.allow_recv(&reply, &info)).count() as u64;
    let after = deep.fuse_stats().expect("a fused chain");
    let got = [after.executed - before.executed, after.replays - before.replays, after.reruns];
    let want = [RECVS, 7 * RECVS, 0];
    let detail = format!(
        "{allowed} of {RECVS} reply recvs allowed on a depth-8 chain: {} sections executed, \
         {} outcomes replayed, {} reruns (exactly {}, {}, {})",
        got[0], got[1], got[2], want[0], want[1], want[2]
    );
    vec![
        ctx.ratio("ratio", BATCH as f64 / best, "send adjudications/s", rounds, ctx.base),
        Check::new("replay", allowed == RECVS && got == want, detail),
    ]
}

/// Disabled instrumentation costs (effectively) nothing on the PFVM hot
/// path: with `plab-obs` off (the default), depth-1 send adjudications
/// through the instrumented `MonitorSet` against an uninstrumented twin:
/// the one-section `plab_filter::FusedVm` that `MonitorSet::instantiate`
/// builds, called directly (plab-filter carries no instrumentation, so the
/// twin is the same engine minus the `MonitorSet` wrapper and its
/// `obs_on` test). The bar is what wall time can resolve here: two
/// identical twins read as low as 0.954 against each other, so a
/// wrapper that costs what its one test costs passes, and one that costs
/// 5 % of a 53 ns adjudication does not. Here `--secs` is the length of
/// one batch, not of the run: min-of-batches is robust to noise only if
/// each batch amortizes the timer (at 0.2 s the twins read 0.968-1.052
/// and the guard 0.937-1.054), so the batch is 0.5 s and the rounds 24.
fn obs(ctx: &Ctx) -> Vec<Check> {
    assert!(!plab_obs::enabled(), "guard measures the disabled path");
    let (encoded, probe, info) = figure2_fixture();
    // The obs snapshot is taken at instantiation: the production shape.
    let mut set = figure2_chain(1, &encoded, &info);
    assert!(set.allow_send(&probe, &info), "probe allowed");
    let program = Program::decode(&encoded).expect("the fixture decodes");
    let mut twin = FusedVm::new(vec![program], vec![VmConfig::default().fuel])
        .expect("the fixture validates");
    twin.init_all(&info);
    let mut inst_op = || u64::from(set.allow_send(&probe, &info));
    let mut twin_op = || u64::from(twin.check_entry(EntryPoint::Send, &probe, &info).allowed());
    assert_eq!(twin_op(), 1, "twin allows probe");

    // A batch sized so one takes roughly the budget.
    let per_call = time_batch(100_000, &mut inst_op) / 1e5;
    let batch = ((ctx.budget.as_secs_f64() / per_call) as u64).clamp(1, 50_000_000);

    // Alternate which path goes first so neither systematically inherits
    // the other's warm caches or a frequency ramp.
    let ([inst, twin], rounds) = min_over_rounds(Duration::ZERO, 24, |round| {
        if round % 2 == 0 {
            let twin = time_batch(batch, &mut twin_op);
            [time_batch(batch, &mut inst_op), twin]
        } else {
            [time_batch(batch, &mut inst_op), time_batch(batch, &mut twin_op)]
        }
    });
    vec![ctx.ratio("ratio", batch as f64 / inst, "adjudications/s", rounds, batch as f64 / twin)]
}

/// Simulator events/sec on the 128-host chain world (the mid-size sweep
/// point: big enough to exercise the timer wheel and route tables, small
/// enough for CI), pumped to quiescence each round, against
/// `repro netsim_scale`'s row. A 2x cliff is what the gate is for.
fn netsim(ctx: &Ctx) -> Vec<Check> {
    let mut events = 0;
    let ([best], rounds) = min_over_rounds(ctx.budget, 4, |_| {
        let (ev, secs, sim) = netsim_scale::round(128);
        assert_eq!(sim.pool().taken(), sim.pool().recycled(), "pool leak");
        events = ev;
        [secs]
    });
    vec![ctx.ratio("ratio", events as f64 / best, "events/s", rounds, ctx.base)]
}

const SHARDS: usize = 4;

/// The windowed multi-shard engine. `ratio`: the 1024-host pod world on 4
/// shards and one thread, half the budget. `threaded`: `min(4, cores)`
/// threads, only where there is a second core to run it on and a baseline
/// row to hold it to; on the 10,240-host world, because at 1024 a window
/// holds a few events a shard and a threaded round times its 2,000 thread
/// spawns, not the engine. `scale_decay`: one-thread events/s at 10,240
/// hosts over events/s at 1,024, both sizes in every round of one process
/// so the quotient is this machine's own, over the whole budget. What a
/// tenfold world loses is the latency of first touches, and
/// `Sim::step`'s look-ahead (DESIGN "Netsim") is what hides it: twenty
/// runs at 4 s on two cores read 0.535-0.676 with it (median 0.619) and
/// 0.383-0.531 without (median 0.452), so the bound sits between; at 2 s
/// the ranges overlap. Both levels move between sittings (medians
/// 0.56-0.62 with it), so a slow day can still miss (EXPERIMENTS G7).
/// `build_growth`, `build_rss`: world construction
/// is outside every event timing, so it has bounds of its own, each
/// measured in a fresh process ([`netsim_scale::build_cost`]): 102,400
/// hosts may take at most 20x as long to build as 10,240 (linear is 10; a
/// per-node scan or a colliding hash reads in the hundreds), and the
/// 4-shard world may hold at most 2x the resident memory of the 1-shard
/// one (shards own partitions; replicas would read ~3x). The 4-shard chaos
/// digests are pinned once, in `determinism_regression.rs`, and replayed
/// by `tests/chaos.rs`; CI runs both beside this guard.
fn netsim_shard(ctx: &Ctx) -> Vec<Check> {
    const BUILD_HOSTS: [usize; 2] = [10_240, 102_400];
    const MAX_BUILD_GROWTH: f64 = 20.0;
    const MAX_RSS_GROWTH: f64 = 2.0;
    const MIN_SCALE_DECAY: f64 = 0.525;

    // Builds first: a child spawned right after a threaded round of this
    // size reads 0.3-1.0 s against 0.2 s otherwise (EXPERIMENTS P1 addendum).
    let [small, large] = BUILD_HOSTS.map(|n| netsim_scale::build_cost(n, SHARDS));
    let one_shard = netsim_scale::build_cost(BUILD_HOSTS[1], 1);

    let measure = |hosts: usize, threads: usize| {
        let mut events = 0;
        let ([best], rounds) = min_over_rounds(ctx.budget / 2, 4, |_| {
            let (ev, secs, world) = netsim_scale::round_pods(hosts, SHARDS, threads);
            for pool in world.sim.pool_handles() {
                assert_eq!(pool.taken(), pool.recycled(), "pool leak in shard world");
            }
            events = ev;
            [secs]
        });
        (events as f64 / best, rounds)
    };
    let (one_thread, rounds) = measure(1024, 1);
    // Both sizes in every round, so a machine that changes speed between
    // rounds changes both readings.
    let mut events = [0; 2];
    let (secs, _): ([f64; 2], _) = min_over_rounds(ctx.budget, 4, |_| {
        std::array::from_fn(|i| {
            let (ev, secs, _) = netsim_scale::round_pods([1024, 10_240][i], SHARDS, 1);
            events[i] = ev;
            secs
        })
    });
    let decay = (events[1] as f64 / secs[1]) / (events[0] as f64 / secs[0]);
    let decay_detail = format!(
        "one thread, 10,240 hosts run at {decay:.3} of the events/s of 1,024 \
         (bound {MIN_SCALE_DECAY})"
    );
    let threads = cores().clamp(1, SHARDS);
    let threaded_row = [("hosts", 10_240), ("shards", SHARDS as u64), ("threads", threads as u64)];
    let threaded = match ctx.lookup(&threaded_row) {
        _ if threads == 1 => Check::skipped("threaded", "1 core"),
        Err(missing) => Check::skipped("threaded", &missing),
        Ok(base) => {
            let (rate, rounds) = measure(10_240, threads);
            ctx.ratio("threaded", rate, "events/s", rounds, base)
        }
    };
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
        ctx.ratio("ratio", one_thread, "events/s", rounds, ctx.base),
        threaded,
        Check::new("scale_decay", decay >= MIN_SCALE_DECAY, decay_detail),
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

/// The fleet runner on the 512-endpoint roster (ping + Figure-2 monitor
/// over 4 shards, the construction `repro fleet` measures): endpoints/sec
/// of the fastest pass against the sweep row; every pass must seal the
/// pinned clean report; the chaos variant (crash/restart + burst loss)
/// runs twice, both reports bit-identical and equal to the chaos pin. The
/// report is machine- and thread-count-independent, so digest drift means
/// fleet replay is broken whatever the throughput.
fn fleet_roster(ctx: &Ctx) -> Vec<Check> {
    let (pairs, threads) = (fleet::GUARD_PAIRS, fleet::threads());
    let mut clean = Vec::new();
    let ([best], rounds) = min_over_rounds(ctx.budget, 2, |_| {
        let (run, wall) = fleet::point(pairs, threads, false);
        clean.push(run.report.digest);
        [wall]
    });
    let [a, b] = [(); 2].map(|()| fleet::point(pairs, threads, true).0.report);
    let replayed = a.digest == b.digest && a.events == b.events && a.summary == b.summary;
    vec![
        ctx.ratio("ratio", pairs as f64 / best, "endpoints/s", rounds, ctx.base),
        Check::pinned("clean_pinned", &clean, PINNED_FLEET_CLEAN),
        Check::pinned("chaos_pinned", &[a.digest], PINNED_FLEET_CHAOS),
        Check::new("chaos_replay_identical", replayed, format!("second run {:#018x}", b.digest)),
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
fn bwest_corpus(_: &Ctx) -> Vec<Check> {
    let [(errors, digest, per_event), (errors_b, digest_b, _)] = [(); 2].map(|()| {
        let (points, qlog, _) = bwest::run_corpus();
        let errors: Vec<_> = points.iter().map(|p| (p.name, p.worst_error_pct())).collect();
        (errors, fnv1a64(qlog.as_bytes()), bwest::passes_per_event(&points))
    });
    let within = errors.iter().filter(|&&(_, e)| e <= bwest::TOLERANCE_PCT).count();
    let (worst, err) = errors.iter().copied().max_by(|a, b| a.1.total_cmp(&b.1)).expect("a corpus");
    let accuracy = format!(
        "{within}/{} topologies within {}% (bar {}), worst {worst} at {err:.1}%",
        errors.len(),
        bwest::TOLERANCE_PCT,
        bwest::MIN_WITHIN
    );
    let replayed = digest == digest_b && errors == errors_b;
    vec![
        Check::new("within", within >= bwest::MIN_WITHIN, accuracy),
        Check::new("replay_identical", replayed, format!("second pass {digest_b:#018x}")),
        Check::pinned("pinned", &[digest], PINNED_BWEST_TRACE),
        Check::new("passes_per_event", per_event <= MAX_PASSES_PER_EVENT, format!("{per_event:.3}")),
    ]
}

/// Sessions and round trips a session of the ctrl point (the
/// `BENCH_ctrl.json` sweep row), and the digest of its reply stream. To
/// re-pin after an *intentional* wire or agent change, run
/// `repro ctrl_scale` and paste the printed 1024-session digest.
const CTRL_SESSIONS: usize = 1024;
const CTRL_OPS: u32 = 100;
const PINNED_CTRL_DIGEST: u64 = 0x27b8_c596_556e_9713;

/// The multiplexed endpoint reactor. `ratio`: wall ops/sec of the fastest
/// 1024-session pass (stop-and-wait clients over the 10 ms virtual RTT,
/// `repro ctrl_scale`'s construction). `scales`: aggregate virtual ops/sec
/// at least 10x the single-session serial baseline with per-op p99 at the
/// RTT floor; the reactor drains every servable message per tick, so any
/// scheduling delay is a regression. `pinned`: every pass's flushed reply
/// stream. `idle_cheap`: with 4096 sessions enrolled and none sending, a
/// pump + dispatch + flush turn costs at most 3x the 4096 `tcp_recv`
/// readiness polls it has to make, both timed here; a reactor that hashes
/// and sorts its way over every enrolled session each turn reads 6x or
/// more, the dense table and cursor ring under 2x. `verify_once`, a count:
/// N authentications of one chain on one agent run N + chain_len curve
/// verifications (each possession proof, the chain once), and N agents
/// authenticating it once each run N x (chain_len + 1).
fn ctrl_mux(ctx: &Ctx) -> Vec<Check> {
    const IDLE_SESSIONS: usize = 4096;
    const IDLE_MAX_OVER_POLLS: f64 = 3.0;
    const AUTHS: u64 = 64;
    let mut passes = Vec::new();
    let ([best], rounds) = min_over_rounds(ctx.budget, 2, |_| {
        passes.push(ctrl::point(CTRL_SESSIONS, CTRL_OPS));
        [passes[passes.len() - 1].wall_secs]
    });
    let digests: Vec<u64> = passes.iter().map(|p| p.digest).collect();
    let (mux, serial) = (passes[0], ctrl::point(1, CTRL_OPS));
    let speedup = mux.virtual_ops_per_sec() / serial.virtual_ops_per_sec();
    let scales = speedup >= 10.0 && mux.p99_ns <= ctrl::RTT_NS && serial.p99_ns <= ctrl::RTT_NS;
    let idle = ctrl::ScaleWorld::new(IDLE_SESSIONS).idle_turn_over_polls(200);
    let scaling = format!(
        "{speedup:.1}x over serial (threshold 10x), p99 {:.1} ms (floor {:.1} ms)",
        mux.p99_ns as f64 / 1e6,
        ctrl::RTT_NS as f64 / 1e6
    );
    let idle_detail = format!(
        "an idle turn costs {idle:.2}x its {IDLE_SESSIONS} readiness polls \
         (bound {IDLE_MAX_OVER_POLLS}x)"
    );
    let one_agent = ctrl::auth_verifications(1, AUTHS as usize);
    let apart = ctrl::auth_verifications(AUTHS as usize, 1);
    let want = (AUTHS + ctrl::CHAIN_LEN, AUTHS * (ctrl::CHAIN_LEN + 1));
    let verify_detail = format!(
        "{AUTHS} authentications of one chain verify {one_agent} signatures on one agent \
         (exactly {}), {apart} on {AUTHS} agents (exactly {})",
        want.0, want.1
    );
    vec![
        ctx.ratio("ratio", mux.ops as f64 / best, "wall ops/s", rounds, ctx.base),
        Check::new("scales", scales, scaling),
        Check::pinned("pinned", &digests, PINNED_CTRL_DIGEST),
        Check::new("idle_cheap", idle <= IDLE_MAX_OVER_POLLS, idle_detail),
        Check::new("verify_once", (one_agent, apart) == want, verify_detail),
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
            out.push_str(&format!("{} guard: {mark} {}: {}\n", self.guard, c.name, c.detail));
        }
        out + &format!("{}: {}\n", if self.pass() { "PASS" } else { "FAIL" }, self.guard)
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
    /// `--json`: the machine-readable report on stdout, the text one suppressed.
    pub json: bool,
    /// `--trace`: run under the flight recorder and write its artifacts.
    pub trace: bool,
    /// `--secs`: the measurement budget.
    pub secs: Option<Duration>,
    /// `--min-ratio`: what measured / baseline must reach.
    pub min_ratio: Option<f64>,
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
    let parsed = v.parse().ok().filter(|&v| Duration::try_from_secs_f64(v).is_ok());
    parsed.ok_or_else(|| "a non-negative number".to_string())
}

/// The member of `all` that `name` calls `v`, or the names there are.
fn one_of<T: Copy>(v: &str, all: &[T], name: impl Fn(&T) -> &'static str) -> Result<T, String> {
    let names = || all.iter().map(&name).collect::<Vec<_>>().join(", ");
    all.iter().copied().find(|t| name(t) == v).ok_or_else(|| format!("one of {}", names()))
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
    Command { name: "bandwidth", args: &[] },
    Command { name: "bwest", args: &["--json"] },
    Command {
        name: "chaos",
        args: &["--scenario NAME", "--seed N", "--sweep N", "--base N", "--trace", "--json"],
    },
    Command { name: "contention", args: &[] },
    Command { name: "ctrl_scale", args: &["--json"] },
    Command { name: "fig1", args: &[] },
    Command { name: "fig2", args: &[] },
    Command { name: "fleet", args: &["--sweep PAIRS,..", "--json"] },
    Command { name: "fuzz", args: &["--target NAME", "--seed N", "--iters N", "--json"] },
    Command { name: "guard", args: &["<guard>", "--secs S", "--min-ratio R", "--json"] },
    Command { name: "netsim_scale", args: &["--rounds N", "--json"] },
    Command { name: "rendezvous", args: &["--json"] },
    Command { name: "rtt_limitation", args: &[] },
    Command { name: "table1", args: &["--json"] },
    Command { name: "throughput", args: &["--secs S", "--json"] },
    Command { name: "traceroute", args: &[] },
];

impl Command {
    fn usage(&self) -> String {
        let arg = |a: &&str| if a.starts_with('<') { format!(" {a}") } else { format!(" [{a}]") };
        format!("repro {}{}", self.name, self.args.iter().map(arg).collect::<String>())
    }
}

/// The one option parser: `args` (the command line without the program
/// name) against [`COMMANDS`]. An error is what was wrong and the usage
/// of the row it was wrong for (of every row when none was named), ready
/// for stderr and exit 2.
pub fn parse(args: &[String]) -> Result<(&'static Command, Opts), String> {
    let table = || COMMANDS.iter().map(|c| format!("\n  {}", c.usage())).collect::<String>();
    let (name, rest) = args.split_first().ok_or_else(|| format!("usage:{}", table()))?;
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
            "--min-ratio R" => non_negative(v).map(|r| o.min_ratio = Some(r)),
            "--seed N" => number(v).map(|n| o.seed = Some(n)),
            "--base N" => number(v).map(|n| o.base = Some(n)),
            "--iters N" => number(v).map(|n| o.iters = Some(n)),
            "--rounds N" => number(v).map(|n| o.rounds = Some(n)),
            "--sweep N" => number(v).map(|n| o.seeds = Some(n)),
            "--sweep PAIRS,.." => {
                let sizes: Option<Vec<usize>> = v.split(',').map(|s| s.parse().ok()).collect();
                sizes.map(|s| o.rosters = Some(s)).ok_or("comma-separated roster sizes".into())
            }
            "--scenario NAME" => {
                one_of(v, &Scenario::all(), Scenario::name).map(|s| o.scenario = Some(s))
            }
            "--target NAME" => one_of(v, TARGETS, |t| *t).map(|t| o.target = Some(t)),
            "<guard>" => {
                o.guards = GUARDS.iter().filter(|g| v == "all" || v == g.name).collect();
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
        let arg = command.args.iter().find(|a| a.split(' ').next() == Some(word));
        let arg = arg.ok_or_else(|| bad(format!("unknown option `{word}`")))?;
        set(arg, if arg.contains(' ') { words.next().unwrap_or("") } else { "" })?;
    }
    Ok((command, o))
}

/// Run one guard: read its baseline first, so a missing file, row or
/// field is said before the budget is spent rather than after.
fn run_guard(guard: &'static Guard, opts: &Opts) -> Report {
    let mut ctx = Ctx {
        budget: opts.secs.unwrap_or(Duration::from_secs_f64(guard.secs)),
        min_ratio: opts.min_ratio.unwrap_or(guard.min_ratio),
        baseline: None,
        base: f64::NAN,
    };
    let report = |checks| Report { guard: guard.name, checks };
    if let Some(spec @ (file, row, _)) = &guard.baseline {
        let read = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"));
        let found = read.and_then(|text| {
            ctx.baseline = Some((spec, text));
            ctx.lookup(row)
        });
        match found {
            Ok(base) => ctx.base = base,
            Err(missing) => return report(vec![Check::new("baseline", false, missing)]),
        }
    }
    report((guard.checks)(&ctx))
}

/// `repro guard`: run the guards named, print, and return the exit code.
pub fn run(opts: &Opts) -> i32 {
    let mut reports = Vec::new();
    for guard in &opts.guards {
        let report = run_guard(guard, opts);
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

    /// A sweep that lists the 1,280-host row first: a scrape that matches
    /// `"hosts": 128` by prefix returns its neighbour's number.
    const SWEEP: &str = "{\n  \"cores\": 2,\n  \"sweep\": [\n    \
        {\"hosts\": 1280, \"events_per_sec\": 1.5},\n    \
        {\"hosts\": 128, \"events_per_sec\": 4.5, \"shards\": 4}\n  ]\n}\n";

    #[test]
    fn lookup_matches_whole_values_on_every_key() {
        let row = find_row(SWEEP, &[("hosts", 128)]).expect("the 128-host row");
        assert_eq!(member(row, "events_per_sec"), Some("4.5"));
        assert_eq!(member(row, "shards"), Some("4"), "last member, closed by the brace");
        assert!(find_row(SWEEP, &[("hosts", 12)]).is_none(), "absent, not a neighbour");
        assert!(find_row(SWEEP, &[("hosts", 128), ("shards", 2)]).is_none(), "every key");
        assert!(find_row(SWEEP, &[("hosts", 1280), ("shards", 4)]).is_none());
        assert_eq!(member(SWEEP, "cores"), Some("2"));
    }

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
        let reports = [Report { guard: "fleet", checks }];
        let json = render_json(&reports);
        assert_eq!(json_value(&json).map(str::trim), Some(""), "not JSON: {json}");
        assert!(json.contains("\"check\": \"pinned\", \"pass\": false"), "{json}");
        assert!(json.ends_with("\"pass\": false\n}\n"), "{json}");
        assert_eq!(exit_code(&reports), 1);
        let text = reports[0].text();
        assert!(text.contains("FAIL pinned: 0x0000000000000002"), "{text}");
        assert!(text.ends_with("\nFAIL: fleet\n"), "{text}");
        for bad in ["{\"a\": [1, tru]}", "{\"a\": 1 \"b\": 2}", "[1,]", "{\"a\": \"x}"] {
            assert!(json_value(bad).is_none(), "the validator accepts {bad}");
        }
    }

    #[test]
    fn a_bad_command_line_is_a_usage_error_that_lists_the_names() {
        let parse = |line: &str| {
            let args: Vec<String> = line.split_whitespace().map(String::from).collect();
            super::parse(&args).map(|(command, opts)| (command.name, opts))
        };
        let rejected = |line: &str| parse(line).err().unwrap_or_else(|| panic!("`{line}` parsed"));
        for name in ["throughput", "obs", "netsim", "netsim-shard", "fleet", "bwest", "ctrl"] {
            assert!(rejected("guard nope").contains(name), "{}", rejected("guard nope"));
        }
        for command in &COMMANDS {
            assert!(rejected("").contains(&command.usage()), "{}", rejected(""));
            assert!(rejected("nope").contains(&command.usage()));
        }
        let (name, opts) = parse("guard ctrl --secs 0.5 --json").expect("accepted");
        assert_eq!((name, opts.guards[0].name, opts.guards.len()), ("guard", "ctrl", 1));
        assert!(opts.json && !opts.trace);
        assert_eq!((opts.secs, opts.min_ratio), (Some(Duration::from_millis(500)), None));
        assert_eq!(parse("guard all").expect("accepted").1.guards.len(), GUARDS.len());

        // A flag that ends the line without its value, a value of the
        // wrong type and a flag of another row all name the row's usage:
        // the sixteen binaries indexed past the end or panicked in `expect`.
        for line in [
            "guard", "guard ctrl --secs -1", "guard ctrl --seed 1", "chaos --seed",
            "chaos --scenario", "chaos --sweep 0xzz", "chaos --base 1 --trace --sweep",
            "chaos extra", "fuzz --iters", "fuzz --iters many", "fuzz --seed --json",
            "fleet --sweep 512,", "throughput --secs soon", "netsim_scale --rounds",
            "table1 --secs 1",
        ] {
            let usage = format!("usage: repro {}", line.split(' ').next().unwrap());
            assert!(rejected(line).contains(&usage), "`{line}`: {}", rejected(line));
        }
        // Valid names come from the tables the bodies run, not a list here.
        for scenario in Scenario::all() {
            assert!(rejected("chaos --scenario nope").contains(scenario.name()));
            let line = format!("chaos --scenario {} --seed 0x5eed0000 --sweep 40", scenario.name());
            let (_, opts) = parse(&line).expect("accepted");
            let numbers = (opts.seed, opts.seeds, opts.base);
            assert_eq!((opts.scenario, numbers), (Some(scenario), (Some(0x5eed_0000), Some(40), None)));
        }
        for target in TARGETS {
            assert!(rejected("fuzz --target nope").contains(target));
            assert_eq!(parse(&format!("fuzz --target {target}")).unwrap().1.target, Some(*target));
        }
        assert_eq!(parse("fleet --sweep 512,1024").unwrap().1.rosters, Some(vec![512, 1024]));
    }
}
