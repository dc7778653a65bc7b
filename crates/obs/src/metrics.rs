//! Metrics: statically declared counters, gauges, and fixed-bucket
//! histograms with an allocation-free steady-state hot path.
//!
//! Declarations are `static`s (so names live once in the binary); the
//! first touch interns the name in a global registry and sizes this
//! thread's value table, after which every update is a bounds-checked
//! array write. Values are thread-local — in this single-threaded,
//! deterministic system that makes snapshots reproducible and lets
//! parallel tests observe only their own work.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// Histogram bucket count: bucket 0 holds value 0, bucket `i ≥ 1` holds
/// values in `[2^(i-1), 2^i)`. 64 power-of-two buckets cover the full
/// `u64` range — fixed at compile time, no configuration, no allocation.
pub const HIST_BUCKETS: usize = 65;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

/// Global name registry, shared by all threads so a metric has the same
/// index everywhere. Locked only when a `static` is first touched.
static NAMES: Mutex<Vec<(&'static str, Kind)>> = Mutex::new(Vec::new());

fn intern(name: &'static str, kind: Kind, slot: &AtomicU32) -> usize {
    let cached = slot.load(Ordering::Relaxed);
    if cached != 0 {
        return (cached - 1) as usize;
    }
    let mut names = NAMES.lock().expect("metric registry poisoned");
    let cached = slot.load(Ordering::Relaxed);
    if cached != 0 {
        return (cached - 1) as usize;
    }
    let idx = names.len();
    names.push((name, kind));
    slot.store(idx as u32 + 1, Ordering::Relaxed);
    idx
}

/// Per-histogram thread-local state.
#[derive(Clone)]
struct HistData {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
}

impl HistData {
    fn new() -> HistData {
        HistData {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

/// This thread's metric values, indexed by the global metric index.
/// (A metric of one kind only ever touches its kind's table.)
struct Values {
    slots_counter: Vec<u64>,
    slots_gauge: Vec<i64>,
    slots_hist: Vec<HistData>,
}

thread_local! {
    static VALUES: RefCell<Values> = const {
        RefCell::new(Values {
            slots_counter: Vec::new(),
            slots_gauge: Vec::new(),
            slots_hist: Vec::new(),
        })
    };
}

/// A monotonically increasing counter. Declare as a `static`:
///
/// ```
/// use plab_obs::metrics::Counter;
/// static REPLAYS: Counter = Counter::new("controller.replays");
/// plab_obs::enable();
/// REPLAYS.inc();
/// assert_eq!(plab_obs::metrics::counter("controller.replays"), 1);
/// ```
pub struct Counter {
    name: &'static str,
    idx: AtomicU32,
}

impl Counter {
    /// A new counter named `name` (interned on first use).
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            idx: AtomicU32::new(0),
        }
    }

    /// Add `n`. A no-op while recording is disabled on this thread.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !crate::enabled() {
            return;
        }
        let idx = intern(self.name, Kind::Counter, &self.idx);
        VALUES.with(|v| {
            let v = &mut v.borrow_mut().slots_counter;
            if idx >= v.len() {
                v.resize(idx + 1, 0);
            }
            v[idx] += n;
        });
    }

    /// Add 1.
    #[inline]
    pub fn inc(&'static self) {
        self.add(1);
    }
}

/// An up/down gauge (e.g. lingering sessions, subscriber slots).
pub struct Gauge {
    name: &'static str,
    idx: AtomicU32,
}

impl Gauge {
    /// A new gauge named `name` (interned on first use).
    pub const fn new(name: &'static str) -> Gauge {
        Gauge {
            name,
            idx: AtomicU32::new(0),
        }
    }

    #[inline]
    fn update(&'static self, f: impl FnOnce(&mut i64)) {
        if !crate::enabled() {
            return;
        }
        let idx = intern(self.name, Kind::Gauge, &self.idx);
        VALUES.with(|v| {
            let v = &mut v.borrow_mut().slots_gauge;
            if idx >= v.len() {
                v.resize(idx + 1, 0);
            }
            f(&mut v[idx]);
        });
    }

    /// Set to `val`.
    #[inline]
    pub fn set(&'static self, val: i64) {
        self.update(|g| *g = val);
    }

    /// Add `n` (may be negative).
    #[inline]
    pub fn add(&'static self, n: i64) {
        self.update(|g| *g += n);
    }

    /// Subtract `n`.
    #[inline]
    pub fn sub(&'static self, n: i64) {
        self.update(|g| *g -= n);
    }
}

/// A histogram over fixed power-of-two buckets (see [`HIST_BUCKETS`]).
pub struct Histogram {
    name: &'static str,
    idx: AtomicU32,
}

impl Histogram {
    /// A new histogram named `name` (interned on first use).
    pub const fn new(name: &'static str) -> Histogram {
        Histogram {
            name,
            idx: AtomicU32::new(0),
        }
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&'static self, value: u64) {
        if !crate::enabled() {
            return;
        }
        let idx = intern(self.name, Kind::Histogram, &self.idx);
        VALUES.with(|v| {
            let v = &mut v.borrow_mut().slots_hist;
            if idx >= v.len() {
                v.resize(idx + 1, HistData::new());
            }
            let h = &mut v[idx];
            h.buckets[bucket_of(value)] += 1;
            h.count += 1;
            h.sum = h.sum.wrapping_add(value);
        });
    }
}

/// The bucket index for a value: 0 for 0, else `64 - leading_zeros`.
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The exclusive upper bound of bucket `i` (`None` for the last bucket,
/// whose bound would overflow `u64`).
pub fn bucket_bound(i: usize) -> Option<u64> {
    if i >= 64 {
        None
    } else {
        Some(1u64 << i)
    }
}

/// A point-in-time value of one metric, as returned by [`snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge level.
    Gauge(i64),
    /// Histogram contents: observation count, wrapping sum, and the
    /// non-empty buckets as `(bucket_index, count)`.
    Histogram {
        /// Observations recorded.
        count: u64,
        /// Wrapping sum of observed values.
        sum: u64,
        /// Non-empty buckets, ascending by index.
        buckets: Vec<(usize, u64)>,
    },
}

/// All registered metrics with this thread's values, sorted by name
/// (deterministic output regardless of interning order). Metrics this
/// thread never touched report zero.
pub fn snapshot() -> Vec<(&'static str, MetricValue)> {
    let names: Vec<(&'static str, Kind)> = NAMES.lock().expect("metric registry poisoned").clone();
    let mut out: Vec<(&'static str, MetricValue)> = VALUES.with(|v| {
        let v = v.borrow();
        names
            .iter()
            .enumerate()
            .map(|(idx, &(name, kind))| {
                let value = match kind {
                    Kind::Counter => {
                        MetricValue::Counter(v.slots_counter.get(idx).copied().unwrap_or(0))
                    }
                    Kind::Gauge => MetricValue::Gauge(v.slots_gauge.get(idx).copied().unwrap_or(0)),
                    Kind::Histogram => {
                        let h = v.slots_hist.get(idx).cloned().unwrap_or_else(HistData::new);
                        MetricValue::Histogram {
                            count: h.count,
                            sum: h.sum,
                            buckets: h
                                .buckets
                                .iter()
                                .enumerate()
                                .filter(|(_, &c)| c > 0)
                                .map(|(i, &c)| (i, c))
                                .collect(),
                        }
                    }
                };
                (name, value)
            })
            .collect()
    });
    out.sort_by_key(|&(name, _)| name);
    out
}

/// This thread's value of the counter named `name` (0 when never
/// touched here). Convenience for test assertions.
pub fn counter(name: &str) -> u64 {
    for (n, v) in snapshot() {
        if n == name {
            if let MetricValue::Counter(c) = v {
                return c;
            }
        }
    }
    0
}

/// This thread's value of the gauge named `name` (0 when never touched
/// here).
pub fn gauge(name: &str) -> i64 {
    for (n, v) in snapshot() {
        if n == name {
            if let MetricValue::Gauge(g) = v {
                return g;
            }
        }
    }
    0
}

/// Zero every metric value on this thread (registrations persist).
pub fn reset() {
    VALUES.with(|v| {
        let mut v = v.borrow_mut();
        v.slots_counter.iter_mut().for_each(|c| *c = 0);
        v.slots_gauge.iter_mut().for_each(|g| *g = 0);
        v.slots_hist.iter_mut().for_each(|h| *h = HistData::new());
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    static HITS: Counter = Counter::new("obs.test.hits");
    static LEVEL: Gauge = Gauge::new("obs.test.level");
    static SIZES: Histogram = Histogram::new("obs.test.sizes");

    #[test]
    fn counters_gauges_histograms_round_trip() {
        crate::enable();
        reset();
        HITS.inc();
        HITS.add(4);
        LEVEL.add(10);
        LEVEL.sub(3);
        SIZES.observe(0);
        SIZES.observe(1);
        SIZES.observe(1500);
        assert_eq!(counter("obs.test.hits"), 5);
        assert_eq!(gauge("obs.test.level"), 7);
        let snap = snapshot();
        let (_, hist) = snap.iter().find(|(n, _)| *n == "obs.test.sizes").unwrap();
        match hist {
            MetricValue::Histogram {
                count,
                sum,
                buckets,
            } => {
                assert_eq!(*count, 3);
                assert_eq!(*sum, 1501);
                // 0 → bucket 0, 1 → bucket 1, 1500 → bucket 11 (1024..2048).
                assert_eq!(buckets.as_slice(), &[(0, 1), (1, 1), (11, 1)]);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
        crate::disable();
    }

    #[test]
    fn disabled_metrics_do_not_move() {
        crate::disable();
        reset();
        HITS.add(100);
        LEVEL.set(9);
        SIZES.observe(1);
        assert_eq!(counter("obs.test.hits"), 0);
        assert_eq!(gauge("obs.test.level"), 0);
    }

    #[test]
    fn bucket_bounds_partition_u64() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_bound(0), Some(1));
        assert_eq!(bucket_bound(63), Some(1u64 << 63));
        assert_eq!(bucket_bound(64), None);
    }
}
