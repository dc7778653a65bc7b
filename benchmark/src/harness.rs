//! Measurement plumbing every workload shares: the closed-loop pass
//! timer with its calibration brackets, the scaling of wall times to the
//! host's nominal speed, medians, in-memory spans, the host readings from
//! `/proc`, and the one record schema every output file uses.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::{BufRead as _, BufReader, Write as _};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc::channel;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Shard count of every sharded world. Shard assignment shapes the world
/// (and so the pinned digests), so it is fixed rather than taken from
/// the machine.
pub const SHARDS: usize = 4;

/// Warm-up passes run at this fraction of the workload's size.
pub const WARMUP_DIVISOR: usize = 8;

/// A pass with a calibration reading this much slower than the process's
/// fastest ran on a machine in a different state and is marked unsettled.
/// The slow state costs the calibration kernel a third of its speed and
/// more; readings of one state scatter by a tenth, so a threshold of a
/// tenth, the issue's, marked eight passes in ten.
const UNSETTLED_RATIO: f64 = 0.25;

/// The parsed command line of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// CPUs this process may run on, read before any pinning.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin this process, and every thread it will spawn, to the CPU it is
/// running on; returns that CPU, or `None` where that cannot be done.
/// Every workload but `pump_50k` calls this first. On the two-vCPU VMs
/// this was built on, wake-ups across vCPUs get about three times dearer
/// for minutes after both were busy, and a fleet run is little else than
/// such wake-ups: over ten seeds 256-pair `fleet_ping` spread 16 % of its
/// median unpinned and 6 % pinned. The runner has one thread runnable at
/// a time anyway, and the other pinned workloads have one thread.
pub fn pin_to_one_cpu() -> Option<usize> {
    cores();
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `sched_getcpu` takes no arguments. `sched_setaffinity`
        // reads `cpusetsize` bytes from `mask`, which points at a live
        // array of exactly that size; pid 0 is the calling thread, whose
        // mask the threads it spawns inherit.
        unsafe {
            let cpu = usize::try_from(sched_getcpu()).ok()?;
            let mut mask = [0u64; 16];
            *mask.get_mut(cpu / 64)? = 1 << (cpu % 64);
            (sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0).then_some(cpu)
        }
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Worker threads of a sharded world: one a shard, capped by the CPUs the
/// process may run on now (one, once pinned).
pub fn shard_threads() -> usize {
    SHARDS.min(std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// splitmix64: the one generator every workload derives its inputs from.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The benchmark's own regression bounds, the issue's: wall-clock
/// metrics may differ by a tenth between two runs of one build, peak
/// memory by a twentieth, and what is simulated time, a count or an
/// accuracy must repeat exactly. `--selfcheck` judges by these.
pub const WALL_BOUND: f64 = 0.10;
pub const RSS_BOUND: f64 = 0.05;

/// One named metric of a record: its value, the median, range and count
/// of the samples it was drawn from, and its bound.
pub struct Stat {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
    /// Share of the value two runs of one build may differ by; 0 for a
    /// metric that is deterministic per seed.
    pub bound: f64,
}

impl Stat {
    fn of(name: &'static str, unit: &'static str, value: f64, samples: &[f64], bound: f64) -> Stat {
        Stat {
            name,
            unit,
            value,
            median: median(samples),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: samples.len(),
            bound,
        }
    }

    /// Seconds of something timed as a whole several times in the run,
    /// each sample scaled to the host's nominal speed (see `calib_ms`):
    /// their median.
    pub fn seconds(name: &'static str, walls: &[f64]) -> Stat {
        Stat::of(name, "s", median(walls), walls, WALL_BOUND)
    }

    /// `work` units per second, one sample per timed pass, each pass's
    /// wall time scaled to the host's nominal speed: the rate of the
    /// median pass.
    pub fn rate(name: &'static str, work: f64, walls: &[f64]) -> Stat {
        let rates: Vec<f64> = walls.iter().map(|w| work / w).collect();
        Stat::of(name, "1/s", work / median(walls), &rates, WALL_BOUND)
    }

    /// Peak resident set, MB.
    pub fn rss(value: f64) -> Stat {
        Stat::of("peak_rss_mb", "MB", value, &[value], RSS_BOUND)
    }

    /// A reading in simulated time, a count or an accuracy: the same on
    /// every run of one build at one seed.
    pub fn exact(name: &'static str, unit: &'static str, value: f64) -> Stat {
        Stat::of(name, unit, value, &[value], 0.0)
    }
}

/// One calibration reading is `CALIB_UNITS` of these: round trips between
/// two threads over a pair of channels, threads spawned and joined, and
/// sweeps of `arithmetic` over its two 4 KiB arrays. Each third takes
/// about 0.7 ms on a fast machine.
const CALIB_UNITS: usize = 48;
const CALIB_ROUND_TRIPS: usize = 200;
const CALIB_SPAWNS: usize = 40;
const CALIB_SWEEPS: usize = 2400;

/// What `calib_ms` reads on this class of machine in its fast state: the
/// speed every wall time is scaled to, so that a scaled second is a
/// second of the fast state.
pub const CALIB_NOMINAL_MS: f64 = 2.0;

/// The calibration kernel, timed before and after every pass and every
/// set-up, in milliseconds per unit: thread hand-offs and thread spawns on
/// one CPU, and integer arithmetic on memory that stays in the first-level
/// cache. It is the benchmark's own code and calls nothing of the repo, so
/// no change to the program moves it.
///
/// Why these three and not one arithmetic loop. The virtual machines this
/// runs on change speed for tens of seconds at a time, with no steal time
/// shown: in two 300 s traces of small passes of five workloads
/// interleaved with nineteen candidate kernels, the workloads took 1.3
/// (a 4096-host pump world) to 1.65 times (`fleet_ping`) as long in the
/// slow stretches as in the fast ones, whichever CPU they ran on. A
/// dependent chain of shifts did not slow down at all, eight independent
/// chains by 1.25, pointer chasing by 1.13, a
/// bytecode interpreter of the benchmark's own by 1.07; thread hand-offs
/// and spawns, which run the guest kernel's code as well as the
/// program's, by 1.4, and `arithmetic`, which keeps loads, stores,
/// multiplies and branches in flight together, by 1.7. Cut into 10 s
/// windows, the plain median pass of such a trace spread 30 to 36 % of
/// itself from window to window (`pump_50k` 14), its fastest twentieth
/// 8 to 25 %, and the ratio of pass time to the time of these kernels 5
/// to 7 %, which is as closely as one workload tracks another (4 to 7 %).
///
/// A process of its own does the work (this binary again, started with
/// `--calibrate`), so that what the kernel's hand-offs and spawns cost does
/// not depend on the address space or the threads of the program under
/// test, which a change to the program may alter. The child inherits the CPU
/// the workload is pinned to, or else pins itself to the one it starts on,
/// so its hand-offs never cross CPUs. It answers one reading per line
/// written to it and ends when its input does; `calib_stop` ends it.
pub fn calib_ms() -> f64 {
    let mut calib = CALIB.lock().expect("no calibration panicked");
    let (_, ask, answers) = calib.get_or_insert_with(|| {
        let exe = std::env::current_exe().expect("the benchmark's own binary has a path");
        let mut child = Command::new(exe)
            .arg("--calibrate")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("the calibration process starts");
        let ask = child.stdin.take().expect("its input is piped");
        let answers = BufReader::new(child.stdout.take().expect("its output is piped"));
        (child, ask, answers)
    });
    ask.write_all(b"\n")
        .expect("the calibration process is alive");
    let mut line = String::new();
    answers
        .read_line(&mut line)
        .expect("the calibration process answers");
    line.trim()
        .parse()
        .expect("the calibration process answers with a number")
}

static CALIB: Mutex<Option<(Child, ChildStdin, BufReader<ChildStdout>)>> = Mutex::new(None);

/// End the calibration process, if one was started, and wait for it.
pub fn calib_stop() {
    // A poisoned lock still holds the child that has to go.
    let mut calib = CALIB
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some((mut child, ask, _)) = calib.take() {
        drop(ask);
        let _ = child.wait();
    }
}

/// What the process started with `--calibrate` does: one reading for every
/// line on its standard input, until that ends.
pub fn calibrate() {
    pin_to_one_cpu();
    let (to_peer, from_me) = channel::<u64>();
    let (to_me, from_peer) = channel::<u64>();
    std::thread::spawn(move || {
        while let Ok(v) = from_me.recv() {
            if to_me.send(v).is_err() {
                break;
            }
        }
    });
    let mut a: [u64; 512] = std::array::from_fn(|i| mix(1, i as u64));
    let b: [u64; 512] = std::array::from_fn(|i| mix(2, i as u64));
    for line in std::io::stdin().lines() {
        if line.is_err() {
            break;
        }
        let t = Instant::now();
        for _ in 0..CALIB_UNITS {
            for _ in 0..CALIB_ROUND_TRIPS {
                to_peer.send(1).expect("the peer is alive");
                black_box(from_peer.recv().expect("the peer answers"));
            }
            for _ in 0..CALIB_SPAWNS {
                std::thread::spawn(|| black_box(0u64))
                    .join()
                    .expect("an empty thread joins");
            }
            for _ in 0..CALIB_SWEEPS {
                black_box(arithmetic(&mut a, &b));
            }
        }
        println!("{}", t.elapsed().as_secs_f64() * 1e3 / CALIB_UNITS as f64);
    }
}

/// One sweep over `a`: four independent lanes of multiply, shift, add and
/// rotate on loaded words, a data-dependent branch, and the results
/// stored back.
fn arithmetic(a: &mut [u64; 512], b: &[u64; 512]) -> u64 {
    let mut s = [1u64, 2, 3, 4];
    for (a, b) in a.chunks_exact_mut(4).zip(b.chunks_exact(4)) {
        let x0 = a[0].wrapping_mul(3).wrapping_add(b[0] ^ (a[0] >> 5));
        let x1 = a[1].wrapping_mul(5).wrapping_add(b[1] ^ (a[1] >> 7));
        let x2 = a[2].wrapping_mul(7).wrapping_add(b[2] ^ (a[2] >> 3));
        let x3 = a[3].wrapping_mul(9).wrapping_add(b[3] ^ (a[3] >> 9));
        if x0 & 0x100 != 0 {
            s[0] = s[0].wrapping_add(x0);
        } else {
            s[0] ^= x1;
        }
        s[1] = s[1].wrapping_add(x1 ^ s[0]);
        s[2] ^= x2.rotate_left((x3 & 31) as u32);
        s[3] = s[3].wrapping_add(x3);
        a.copy_from_slice(&[x0, x1, x2, x3]);
    }
    s[0] ^ s[1] ^ s[2] ^ s[3]
}

/// `wall_s` of something that ran between two calibration readings,
/// scaled to the host's nominal speed: what it would have taken had the
/// calibration kernel read `CALIB_NOMINAL_MS` around it.
pub fn scaled(wall_s: f64, calib_before_ms: f64, calib_after_ms: f64) -> f64 {
    wall_s * CALIB_NOMINAL_MS / ((calib_before_ms + calib_after_ms) / 2.0)
}

/// Which seconds a workload's passes are timed in.
#[derive(Clone, Copy)]
pub enum Clock {
    /// Wall seconds scaled by the calibration readings around the pass:
    /// every workload whose pass time follows the calibration kernel. Over
    /// twenty runs at ten seeds the logarithm of the median pass rose by
    /// 0.74 to 0.95 of the logarithm of the median reading.
    Scaled,
    /// Wall seconds as they are, for `pump_50k`, where that slope was
    /// 0.26: two threads on both CPUs and a world of 330 MB wait for
    /// memory, which the slow state of the machine costs little. Its plain
    /// rate spread 4 to 6 % over those runs and its scaled one 13 %.
    Plain,
}

/// What the timed loop saw. One entry per timed pass, in run order.
pub struct Passes {
    /// Seconds of the pass's timed region, scaled to the host's nominal
    /// speed by the two readings around it.
    pub walls: Vec<f64>,
    /// What scaled them: multiply a wall time of the pass by this.
    pub scale: Vec<f64>,
    /// Wall seconds as the clock read them.
    pub raw_walls: Vec<f64>,
    /// Whether both readings around the pass were near the process's
    /// fastest.
    pub settled: Vec<bool>,
    /// Every calibration reading, ms: one before the first pass, then
    /// one after each.
    pub calib: Vec<f64>,
}

impl Passes {
    /// Of one sample per pass run, those of the timed passes (the extra
    /// pass of a traced run, at the end, is not among them).
    pub fn timed<T: Copy>(&self, per_pass: &[T]) -> Vec<T> {
        per_pass[..self.walls.len()].to_vec()
    }
}

/// Closed loop in wall time: call `pass` (which returns the wall seconds
/// of its timed region) until `seconds` have gone by. Each pass sits
/// between two calibration readings, and its wall time is scaled by them,
/// see `scaled`. The fastest reading of the process is the machine at its
/// fast speed; a pass with a reading more than 25 % slower on either side
/// ran on a machine in another state and is marked unsettled: counted and
/// reported. It is measured all the same, because its own readings scale
/// it: over ten seeds the median of all scaled passes spread less than
/// the median of the settled ones on five workloads of seven (5 against
/// 12 % on `fleet_trace`), a run that changes speed half-way keeping
/// three passes of eight otherwise.
///
/// `Clock::Plain` takes the readings all the same, for the record, and
/// leaves the wall times as they are.
pub fn timed_passes(seconds: f64, clock: Clock, mut pass: impl FnMut() -> f64) -> Passes {
    let mut calib = vec![calib_ms()];
    let mut raw_walls = Vec::new();
    let start = Instant::now();
    while raw_walls.is_empty() || start.elapsed().as_secs_f64() < seconds {
        raw_walls.push(pass());
        calib.push(calib_ms());
    }
    let limit = calib.iter().copied().fold(f64::INFINITY, f64::min) * (1.0 + UNSETTLED_RATIO);
    let settled = calib
        .windows(2)
        .map(|w| w[0] <= limit && w[1] <= limit)
        .collect();
    let scale: Vec<f64> = calib
        .windows(2)
        .map(|w| match clock {
            Clock::Scaled => scaled(1.0, w[0], w[1]),
            Clock::Plain => 1.0,
        })
        .collect();
    let walls = raw_walls.iter().zip(&scale).map(|(w, k)| w * k).collect();
    Passes {
        walls,
        scale,
        raw_walls,
        settled,
        calib,
    }
}

/// The measuring part of every workload. Untraced passes fill the time
/// budget with the tracer and `plab_obs` off; these give the end-to-end
/// numbers, each pass's wall time scaled by the readings around it. A traced run spends half its budget that way and then makes
/// one more pass with both on, which gives the per-layer numbers; the
/// traced pass against the untraced median is the tracing overhead.
/// `pass` returns the wall seconds of its timed region.
pub fn measure(
    args: &Args,
    clock: Clock,
    tracer: &mut Tracer,
    out: &mut Outcome,
    mut pass: impl FnMut(&mut Tracer) -> f64,
) -> Passes {
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    // Peak memory is read after the first pass: one pass is what a user
    // runs, and later passes add what the allocator keeps, by an amount
    // that depends on how many the budget held.
    let mut first_pass_rss = None;
    let passes = timed_passes(budget, clock, || {
        let wall = pass(tracer);
        first_pass_rss.get_or_insert_with(peak_rss_mb);
        wall
    });
    out.reps = passes.walls.len();
    out.pass_wall_s = passes.raw_walls.clone();
    out.pass_settled = passes.settled.clone();
    out.calib_ms = passes.calib.clone();
    out.unsettled = passes.settled.iter().filter(|&&s| !s).count();
    out.peak_rss_mb = first_pass_rss.expect("at least one pass ran");
    out.layer("host.calib_ms", median(&passes.calib));
    let speeds: Vec<f64> = passes.calib.iter().map(|c| CALIB_NOMINAL_MS / c).collect();
    out.layer("host.speed", median(&speeds));
    if args.trace {
        plab_obs::enable();
        plab_obs::reset();
        tracer.set(true);
        out.traced_from_ns = tracer.now_ns();
        let wall = pass(tracer);
        out.traced_wall_ns = tracer.now_ns() - out.traced_from_ns;
        tracer.set(false);
        plab_obs::disable();
        // Plain wall times on both sides: the traced pass has no reading
        // after it to scale it by.
        let untraced = median(&passes.raw_walls);
        out.layer("obs.traced_overhead_pct", (wall / untraced - 1.0) * 100.0);
    }
    passes
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// In-memory span recorder around the benchmark's own calls into each
/// layer. Off (the default) it records nothing: `begin` and `end` are a
/// branch each, so the untraced passes pay nothing for it.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle `Tracer::begin` returns and `Tracer::end` takes back.
pub struct Open(Option<usize>);

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    pub fn set(&mut self, on: bool) {
        self.on = on;
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let popped = self.open.pop();
        assert_eq!(popped, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Per span name: calls, total ns, and self ns (duration minus the
    /// part its children cover).
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Self nanoseconds recorded under `name`.
    pub fn self_ns(&self, name: &str) -> u64 {
        self.by_name().get(name).map_or(0, |e| e.2)
    }

    /// Nanoseconds covered by parentless spans that began at or after
    /// `from_ns` (set-up spans recorded before the traced pass stay out).
    pub fn top_level_ns_since(&self, from_ns: u64) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.start_ns >= from_ns)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }
}

// ---------------------------------------------------------------------
// Host readings
// ---------------------------------------------------------------------

/// A numeric field of `/proc/self/status` (0 when the file or the field
/// is missing, as on a host without procfs).
pub fn proc_status(field: &str) -> u64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process, MB.
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM") as f64 / 1024.0
}

/// User plus system CPU seconds of this process, exited threads
/// included. `/proc/self/stat` counts in USER_HZ ticks, which Linux
/// fixes at 100 for user space on every architecture.
pub fn cpu_secs() -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields 14 and 15 are
    // the 12th and 13th after its closing parenthesis.
    let Some(rest) = text.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / 100.0
}

// ---------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------

/// What a workload hands back: the numbers of one run and the verdict of
/// its output checks.
#[derive(Default)]
pub struct Outcome {
    /// Operations issued over the timed passes.
    pub attempted: u64,
    /// Operations that did not end as they should.
    pub failed: u64,
    /// Output checks that did not hold (empty when the run is correct).
    pub check_failures: Vec<String>,
    pub threads: usize,
    /// The CPU the process was pinned to, if it was.
    pub pinned_cpu: Option<usize>,
    pub reps: usize,
    /// Timed passes with a calibration reading far from the process's
    /// fastest on either side.
    pub unsettled: usize,
    /// Wall seconds of the timed region of every timed pass, as the clock
    /// read them, and whether the pass settled.
    pub pass_wall_s: Vec<f64>,
    pub pass_settled: Vec<bool>,
    /// Every calibration reading: one before the first pass, then one
    /// after each.
    pub calib_ms: Vec<f64>,
    /// Peak resident set after the first timed pass, MB.
    pub peak_rss_mb: f64,
    /// End-to-end metrics under the issue's names.
    pub metrics: Vec<Stat>,
    /// Which of `metrics` is the workload's rate: the result line of an
    /// untraced run calls it `work_per_s`, the one name the contract can
    /// bound on every workload.
    pub work: &'static str,
    /// Per-layer readings of the traced pass.
    pub layers: BTreeMap<&'static str, f64>,
    /// When the traced pass began on the tracer's clock, and how long it
    /// took: what the top-level spans must cover.
    pub traced_from_ns: u64,
    pub traced_wall_ns: u64,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// Copy one `plab_obs` counter of the traced pass into the layers.
    pub fn obs_counter(&mut self, name: &'static str) -> f64 {
        let v = plab_obs::metrics::counter(name) as f64;
        self.layer(name, v);
        v
    }
}

/// A JSON number with every digit the measurement has. JSON has no NaN
/// or infinity; callers check `is_finite` first.
pub fn num(v: f64) -> String {
    format!("{v}")
}

pub fn json_str(s: &str) -> String {
    format!("\"{}\"", plab_obs::export::json_escape(s))
}

/// The one schema of every record the benchmark writes: the header that
/// says what ran where, then `metrics`, then `layers`, and `"claim":
/// null` last, because the benchmark measures and claims nothing.
pub fn record_json(
    args: &Args,
    out: &Outcome,
    layer_units: &[(&'static str, &'static str)],
    tracer: &Tracer,
) -> String {
    let mut s = String::from("{\n");
    let commit = std::env::var("PLAB_BENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
    let _ = writeln!(s, "  \"workload\": {},", json_str(&args.workload));
    let _ = writeln!(s, "  \"seed\": {},", args.seed);
    let _ = writeln!(s, "  \"commit\": {},", json_str(&commit));
    let _ = writeln!(s, "  \"profile\": \"release\",");
    let _ = writeln!(s, "  \"host.cores\": {},", cores());
    let pinned = out.pinned_cpu.map_or("null".into(), |c| c.to_string());
    let _ = writeln!(s, "  \"pinned_cpu\": {pinned},");
    let _ = writeln!(s, "  \"threads\": {},", out.threads);
    let _ = writeln!(s, "  \"shards\": {SHARDS},");
    let _ = writeln!(s, "  \"reps\": {},", out.reps);
    let _ = writeln!(s, "  \"traced\": {},", args.trace);
    let _ = writeln!(s, "  \"unsettled\": {},", out.unsettled);
    let _ = writeln!(s, "  \"correct\": {},", out.check_failures.is_empty());
    let _ = writeln!(s, "  \"attempted\": {},", out.attempted);
    let _ = writeln!(s, "  \"failed\": {},", out.failed);
    let failures: Vec<String> = out.check_failures.iter().map(|f| json_str(f)).collect();
    let _ = writeln!(s, "  \"check_failures\": [{}],", failures.join(", "));
    let walls: Vec<String> = out.pass_wall_s.iter().map(|w| num(*w)).collect();
    let _ = writeln!(s, "  \"pass_wall_s\": [{}],", walls.join(", "));
    let calib: Vec<String> = out.calib_ms.iter().map(|c| num(*c)).collect();
    let _ = writeln!(s, "  \"calib_ms\": [{}],", calib.join(", "));
    let settled: Vec<String> = out.pass_settled.iter().map(bool::to_string).collect();
    let _ = writeln!(s, "  \"pass_settled\": [{}],", settled.join(", "));
    let _ = writeln!(s, "  \"work_per_s\": {},", json_str(out.work));
    s.push_str("  \"metrics\": {\n");
    let rows: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}, \"median\": {}, \"min\": {}, \"max\": {}, \"n\": {}, \"bound\": {}}}",
                json_str(m.name),
                num(m.value),
                json_str(m.unit),
                num(m.median),
                num(m.min),
                num(m.max),
                m.n,
                num(m.bound)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  },\n  \"layers\": {\n");
    let rows: Vec<String> = layer_units
        .iter()
        .filter_map(|&(name, unit)| {
            let v = out.layers.get(name)?;
            Some(format!(
                "    {}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                num(*v),
                json_str(unit)
            ))
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  },\n");
    if args.trace {
        let _ = writeln!(s, "  \"traced_from_ns\": {},", out.traced_from_ns);
        let _ = writeln!(s, "  \"traced_wall_ns\": {},", out.traced_wall_ns);
        let _ = writeln!(
            s,
            "  \"top_level_span_ns\": {},",
            tracer.top_level_ns_since(out.traced_from_ns)
        );
        s.push_str("  \"span_totals\": {\n");
        let rows: Vec<String> = tracer
            .by_name()
            .iter()
            .map(|(name, (calls, total, own))| {
                format!(
                    "    {}: {{\"calls\": {calls}, \"total_ns\": {total}, \"self_ns\": {own}}}",
                    json_str(name)
                )
            })
            .collect();
        s.push_str(&rows.join(",\n"));
        s.push_str("\n  },\n  \"spans\": [\n");
        let rows: Vec<String> = tracer
            .spans
            .iter()
            .map(|sp| {
                let parent = sp.parent.map_or("null".into(), |p| p.to_string());
                format!(
                    "    {{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"workload\": {}}}",
                    json_str(sp.name),
                    sp.start_ns,
                    sp.end_ns,
                    json_str(&args.workload)
                )
            })
            .collect();
        s.push_str(&rows.join(",\n"));
        s.push_str("\n  ],\n");
        let _ = writeln!(
            s,
            "  \"obs_metrics\": {},",
            plab_obs::export::metrics_json().trim_end()
        );
    }
    s.push_str("  \"claim\": null\n}\n");
    s
}
