//! The discrete-event queue: a deterministic hierarchical timer wheel.
//!
//! The simulator used to schedule on a `BinaryHeap<Reverse<Entry>>`;
//! every push/pop paid an `O(log n)` sift through cold cache lines, and
//! at line rate the heap dominated the event loop. This module replaces
//! it with the classic discrete-event alternative (hashed/hierarchical
//! timing wheels, as in ns-3-style simulators and kernel timer wheels):
//! six levels of 64 power-of-two-nanosecond buckets, giving `O(1)`
//! insert and amortized `O(1)` pop for the short link-latency deltas
//! that make up nearly all simulator traffic.
//!
//! # Determinism
//!
//! Replay identity requires the wheel to reproduce the heap's total
//! order *exactly*: ascending `(time, seq)` where `seq` is assignment
//! order. The argument (also in DESIGN.md):
//!
//! - **Placement.** An entry at absolute time `t` lives at the level of
//!   the highest bit-block (6 bits per level) in which `t` differs from
//!   the wheel clock `now`, in slot `(t >> 6·level) & 63`. Entries more
//!   than `2^36` ns out go to a spill list sorted by `(time, seq)`
//!   descending (popped from the tail). Because `now` never exceeds the
//!   earliest pending time, every entry at level `L` agrees with `now`
//!   on all blocks above `L`, so distinct slots of one level cover
//!   disjoint, slot-ordered time ranges and the lowest occupied slot
//!   (found by a bitmap scan) holds the level's earliest entry.
//! - **Peek.** Each bucket caches its minimum time, and the queue caches
//!   the minimum over the wheel and the spill list: a placement lowers
//!   it, and `EventQueue::advance` rescans the ≤ 6 lowest occupied
//!   buckets and the spill tail once, at its end (nothing else removes a
//!   wheel entry). A peek is one read — no cascading, and therefore no
//!   clock movement — which matters because a sharded merge peeks every
//!   shard's queue several times per event.
//! - **Pop.** Popping first drains `current` — the FIFO of entries whose
//!   time equals `now` — and only when it is empty advances the clock to
//!   the next pending time `t*`: at each level the single slot containing
//!   `t*` is drained, entries equal to `t*` are collected and the rest
//!   re-placed (always at a strictly lower level, so the cascade
//!   terminates), spill-tail entries at `t*` are collected too, and the
//!   collected batch is sorted by `seq`. Same-time events therefore pop
//!   in seq order no matter which level, bucket, or list they waited in,
//!   which is exactly the heap's tie-break.
//! - **Late pushes.** Pushes at the current clock (zero-latency links
//!   produce arrivals at `now` constantly) append to `current`; their
//!   fresh `seq` is larger than anything drained earlier, so FIFO order
//!   is preserved without re-sorting.
//! - **Past pushes.** Pushes *behind* the clock are legal: cross-shard
//!   injection at a conservative-lookahead window boundary can hand a
//!   shard an arrival whose timestamp precedes events the shard already
//!   scheduled (the shard's wheel clock is the time of its last pop, and
//!   a boundary flush may carry arrivals anywhere inside the closed
//!   window). Such entries insert into `current` at their `(time, seq)`
//!   rank — `current` is kept sorted, and same-or-later entries at the
//!   clock sort after them — so they pop first, without panicking and
//!   without perturbing the order of anything already scheduled.
//!   (`level_for` must never see `time < now`: its XOR trick assumes the
//!   clock agrees with the entry on all higher bit-blocks.)
//!
//! A scheduled event cannot be withdrawn: no simulator path needs to. A
//! TCP tick that has gone stale finds nothing to do when it fires
//! (`TcpHost::tick`), and drivers ignore timers they no longer want.
//!
//! The pre-wheel binary heap survives as [`ReferenceEventQueue`], the
//! oracle for the differential property test in
//! `crates/netsim/tests/differential_scheduler.rs`.

use crate::fault::FaultAction;
use crate::pool::Frame;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Events the simulator processes.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A packet finishes traversing a link (index, direction) and arrives
    /// at the far node.
    LinkArrival {
        /// Link index.
        link: usize,
        /// Direction: 0 = a→b, 1 = b→a.
        dir: usize,
        /// The datagram.
        packet: Frame,
    },
    /// A host's scheduled transmission (the `nsend` primitive) comes due.
    ScheduledSend {
        /// Sending node index (32 bits, so that `logged` fits beside it in
        /// a 48-byte event).
        node: u32,
        /// Whether the scheduler asked for a record of the actual send time.
        logged: bool,
        /// The datagram to inject into the sending node's stack.
        packet: Frame,
        /// Opaque tag reported back with the actual send time (endpoints
        /// use it to record actual-send timestamps).
        tag: u64,
    },
    /// A TCP retransmission/housekeeping tick for a connection.
    TcpTick {
        /// Node index.
        node: usize,
        /// Connection id on that node.
        conn: u64,
    },
    /// A named timer requested via [`crate::Sim::schedule_timer`]; fired
    /// timers are queued for the driving code to collect.
    Timer {
        /// Node index the timer belongs to.
        node: usize,
        /// Opaque key.
        key: u64,
    },
    /// A scheduled fault fires (see [`crate::fault`]).
    Fault {
        /// The fault to apply.
        action: FaultAction,
    },
    /// Cross-shard bookkeeping: a packet handed to a foreign shard
    /// finishes serializing out of this shard's side of the link. The
    /// owning (source) shard processes this to release the link's queue
    /// occupancy — the destination shard, which sees the matching
    /// `LinkArrival`, never saw the `offer` and must not double-release.
    CrossDeparted {
        /// Link index.
        link: usize,
        /// Direction: 0 = a→b, 1 = b→a.
        dir: usize,
        /// Wire length of the departed packet in bytes.
        len: usize,
    },
}

/// Bits of time covered per wheel level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels; level `L` buckets span `2^(6·L)` ns each.
const LEVELS: usize = 6;
/// Deltas at or beyond `2^36` ns (~68.7 s) overflow to the spill list.
const HORIZON_BITS: u32 = SLOT_BITS * LEVELS as u32;

#[derive(Debug)]
struct Entry {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

#[derive(Debug, Default)]
struct Bucket {
    entries: Vec<Entry>,
    /// Minimum `time` over `entries`; meaningless when empty.
    min_time: SimTime,
}

/// Slot index of `time` at `level`.
#[inline]
fn slot(time: SimTime, level: usize) -> usize {
    ((time >> (SLOT_BITS as usize * level)) & (SLOTS as u64 - 1)) as usize
}

/// Wheel level for an entry at `time` given clock `now` (`time > now`),
/// or `LEVELS`+ for spill.
#[inline]
fn level_for(time: SimTime, now: SimTime) -> usize {
    let diff = time ^ now;
    debug_assert!(diff != 0);
    let level = ((63 - diff.leading_zeros()) / SLOT_BITS) as usize;
    debug_assert!(level < LEVELS || diff >= (1 << HORIZON_BITS));
    level
}

/// A deterministic time-ordered event queue (FIFO among equal
/// timestamps), backed by a hierarchical timer wheel.
///
/// Schedule times may lie at — or, for cross-shard boundary injection,
/// *behind* — the queue's internal clock (the time of the last popped
/// event). Past-clock entries pop first, ordered by `(time, seq)`, so a
/// merged multi-shard schedule keeps the same total order a single
/// queue would have produced.
pub struct EventQueue {
    now: SimTime,
    next_seq: u64,
    len: usize,
    /// Per-level bitmap of non-empty slots.
    occupied: [u64; LEVELS],
    /// Lazily allocated bucket array: a simulation whose pending events
    /// all sit at the clock (zero-latency topologies) never pays the
    /// ~12 KiB wheel initialisation.
    wheel: Option<Box<[[Bucket; SLOTS]; LEVELS]>>,
    /// Entries at or before `now`, sorted by `(time, seq)`; always the
    /// pop front. In the common case every entry is at exactly `now` and
    /// pushes append in seq order; past-clock pushes insert at their
    /// rank.
    current: VecDeque<Entry>,
    /// Entries beyond the wheel horizon, sorted by `(time, seq)`
    /// *descending* so the earliest pops from the tail.
    spill: Vec<Entry>,
    /// Earliest time over the wheel and `spill` (not `current`);
    /// `SimTime::MAX` when both are empty, which `len` tells apart from
    /// an entry at that time.
    wheel_min: SimTime,
    /// Reusable batch buffer for [`Self::advance`]; keeping it across
    /// advances avoids a malloc/free pair per clock step.
    batch_scratch: Vec<Entry>,
    /// Reusable bucket buffer: drained buckets swap their storage with
    /// this instead of being `mem::take`n, so bucket capacity survives
    /// the drain and refills never re-allocate.
    bucket_scratch: Vec<Entry>,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            now: 0,
            next_seq: 0,
            len: 0,
            occupied: [0; LEVELS],
            wheel: None,
            current: VecDeque::new(),
            spill: Vec::new(),
            wheel_min: SimTime::MAX,
            batch_scratch: Vec::new(),
            bucket_scratch: Vec::new(),
        }
    }
}

impl EventQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `kind` at `time` (which may lie at or behind the queue
    /// clock — see the struct docs).
    pub fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        static OCCUPANCY: plab_obs::metrics::Gauge =
            plab_obs::metrics::Gauge::new("netsim.wheel.occupancy");
        OCCUPANCY.set(self.len as i64);
        self.place(Entry { time, seq, kind });
    }

    /// Route an entry to `current` (at-or-behind the clock), a wheel
    /// bucket, or the spill list.
    fn place(&mut self, e: Entry) {
        if e.time <= self.now {
            // Fast path: at the clock with the freshest seq (every push
            // from a live simulation), append. Otherwise (past-clock
            // cross-shard injection) insert at the (time, seq) rank.
            let key = (e.time, e.seq);
            if self
                .current
                .back()
                .is_none_or(|last| (last.time, last.seq) < key)
            {
                self.current.push_back(e);
            } else {
                let pos = self.current.partition_point(|x| (x.time, x.seq) < key);
                self.current.insert(pos, e);
            }
            return;
        }
        self.wheel_min = self.wheel_min.min(e.time);
        let level = level_for(e.time, self.now);
        if level >= LEVELS {
            let key = (e.time, e.seq);
            let pos = self.spill.partition_point(|x| (x.time, x.seq) > key);
            self.spill.insert(pos, e);
            return;
        }
        let s = slot(e.time, level);
        let wheel = self.wheel.get_or_insert_with(|| {
            Box::new(std::array::from_fn(|_| {
                std::array::from_fn(|_| Bucket::default())
            }))
        });
        let b = &mut wheel[level][s];
        if b.entries.is_empty() || e.time < b.min_time {
            b.min_time = e.time;
        }
        b.entries.push(e);
        self.occupied[level] |= 1 << s;
    }

    /// Earliest pending time across wheel levels and the spill list,
    /// ignoring `current`, by scanning them (`SimTime::MAX` if empty):
    /// what `wheel_min` caches.
    fn scan_wheel_time(&self) -> SimTime {
        let mut best = self.spill.last().map_or(SimTime::MAX, |e| e.time);
        if let Some(wheel) = &self.wheel {
            for (level, &occ) in self.occupied.iter().enumerate() {
                if occ != 0 {
                    best = best.min(wheel[level][occ.trailing_zeros() as usize].min_time);
                }
            }
        }
        best
    }

    /// The cached [`Self::scan_wheel_time`], `None` when the wheel and
    /// the spill list are empty.
    fn next_wheel_time(&self) -> Option<SimTime> {
        debug_assert_eq!(self.wheel_min, self.scan_wheel_time());
        (self.len > self.current.len()).then_some(self.wheel_min)
    }

    /// Advance the clock to `t` (the earliest pending time) and collect
    /// every entry scheduled at exactly `t` into `current`, in seq order.
    fn advance(&mut self, t: SimTime) {
        debug_assert!(t > self.now, "advance only moves the clock forward");
        debug_assert!(self.current.is_empty());
        self.now = t;
        let mut batch = std::mem::take(&mut self.batch_scratch);
        debug_assert!(batch.is_empty());
        let mut scanned = 0u64;
        // Highest level first: re-placed entries always land at a lower
        // level (they agree with `t` on their old level's block), in a
        // slot the descending scan has not visited yet or that differs
        // from t's slot there — so nothing is drained twice.
        for level in (0..LEVELS).rev() {
            let s = slot(t, level);
            if self.occupied[level] & (1 << s) == 0 {
                continue;
            }
            scanned += 1;
            self.occupied[level] &= !(1 << s);
            // Swap the bucket's storage with the scratch buffer instead
            // of taking it: both Vecs keep their capacity, so steady-
            // state advances allocate nothing.
            let mut drained = std::mem::take(&mut self.bucket_scratch);
            std::mem::swap(
                &mut self.wheel.as_mut().expect("occupied bit implies wheel")[level][s].entries,
                &mut drained,
            );
            for e in drained.drain(..) {
                debug_assert!(e.time >= t);
                if e.time == t {
                    batch.push(e);
                } else {
                    self.place(e);
                }
            }
            self.bucket_scratch = drained;
        }
        while self.spill.last().is_some_and(|e| e.time == t) {
            scanned += 1;
            batch.push(self.spill.pop().expect("checked non-empty"));
        }
        static SCAN: plab_obs::metrics::Histogram =
            plab_obs::metrics::Histogram::new("netsim.wheel.buckets_scanned");
        SCAN.observe(scanned);
        // Same-time entries from different buckets/levels/spill merge in
        // seq order — the heap's FIFO tie-break.
        batch.sort_unstable_by_key(|e| e.seq);
        self.current.extend(batch.drain(..));
        self.batch_scratch = batch;
        self.wheel_min = self.scan_wheel_time();
        debug_assert!(
            !self.current.is_empty(),
            "the earliest pending time yields at least one entry"
        );
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        if self.current.is_empty() {
            let t = self.next_wheel_time()?;
            self.advance(t);
        }
        let e = self.current.pop_front().expect("advance fills current");
        self.len -= 1;
        Some((e.time, e.kind))
    }

    /// The event `k` places down the batch `pop` is draining — `ahead(0)`
    /// is what the next `pop` returns, barring a past-clock push before
    /// it — or `None` when the batch is that short: it never looks into
    /// the wheel, so outside worlds that land thousands of events on one
    /// instant it answers `None`. Read-only; [`crate::Sim::step`] uses it
    /// to touch what upcoming events will read.
    #[inline]
    pub fn ahead(&self, k: usize) -> Option<&EventKind> {
        self.current.get(k).map(|e| &e.kind)
    }

    /// Time of the next event without removing it. Exact and `O(1)`: the
    /// wheel's minimum is cached, so peeking never cascades (and therefore
    /// never moves the clock — critical, since pushes clamp against it).
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(front) = self.current.front() {
            // `current` is sorted by (time, seq); its front is the global
            // minimum (possibly behind `now` after cross-shard injection).
            return Some(front.time);
        }
        self.next_wheel_time()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Events ever pushed (the next seq to be handed out).
    pub fn pushed(&self) -> u64 {
        self.next_seq
    }
}

// ---------------------------------------------------------------------
// Reference implementation (differential-test oracle)
// ---------------------------------------------------------------------

#[derive(Debug)]
struct RefEntry {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

// Ordering uses (time, seq) only; seq is unique, so this Eq is consistent
// with Ord even though EventKind itself is not Eq (fault probabilities).
impl PartialEq for RefEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}

impl Eq for RefEntry {}

impl Ord for RefEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for RefEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The previous `BinaryHeap`-based scheduler, kept verbatim as the
/// oracle for the wheel's differential property test. Not part of the
/// supported API.
#[doc(hidden)]
#[derive(Default)]
pub struct ReferenceEventQueue {
    heap: BinaryHeap<Reverse<RefEntry>>,
    next_seq: u64,
}

impl ReferenceEventQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `kind` at `time` (past-clock times are legal, exactly as
    /// in [`EventQueue::push`] — the heap orders by `(time, seq)` with no
    /// notion of a clock at all).
    pub fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(RefEntry { time, seq, kind }));
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, EventKind)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.kind))
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(node: usize, key: u64) -> EventKind {
        EventKind::Timer { node, key }
    }

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(30, timer(0, 3));
        q.push(10, timer(0, 1));
        q.push(20, timer(0, 2));
        assert_eq!(q.pop().unwrap().0, 10);
        assert_eq!(q.pop().unwrap().0, 20);
        assert_eq!(q.pop().unwrap().0, 30);
        assert!(q.pop().is_none());
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        for k in 0..10u64 {
            q.push(5, timer(0, k));
        }
        for k in 0..10u64 {
            let (t, e) = q.pop().unwrap();
            assert_eq!(t, 5);
            assert_eq!(e, timer(0, k), "insertion order must be preserved");
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(7, timer(1, 1));
        assert_eq!(q.peek_time(), Some(7));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn same_time_across_levels_pops_in_seq_order() {
        // Entries at one timestamp reached from different wheel levels
        // (one pushed far out, one pushed after the clock moved closer)
        // must still interleave by seq.
        let mut q = EventQueue::new();
        q.push(1 << 20, timer(0, 0)); // level 3 relative to now=0
        q.push(1, timer(0, 1));
        assert_eq!(q.pop().unwrap().1, timer(0, 1)); // now = 1
        q.push(1 << 20, timer(0, 2)); // same target time, level 3 again
        let (t1, e1) = q.pop().unwrap();
        let (t2, e2) = q.pop().unwrap();
        assert_eq!((t1, t2), (1 << 20, 1 << 20));
        assert_eq!(e1, timer(0, 0), "older seq first");
        assert_eq!(e2, timer(0, 2));
    }

    #[test]
    fn push_at_now_during_drain_stays_fifo() {
        let mut q = EventQueue::new();
        q.push(10, timer(0, 0));
        q.push(10, timer(0, 1));
        assert_eq!(q.pop().unwrap().1, timer(0, 0));
        // Clock is now 10; a zero-latency push lands at now.
        q.push(10, timer(0, 2));
        assert_eq!(q.pop().unwrap().1, timer(0, 1));
        assert_eq!(q.pop().unwrap().1, timer(0, 2));
    }

    #[test]
    fn past_push_pops_before_pending_events() {
        // Regression for cross-shard boundary injection: a push behind
        // the wheel clock must neither panic nor reorder — it pops
        // first, before anything scheduled at or after the clock.
        let mut q = EventQueue::new();
        q.push(100, timer(0, 0));
        assert_eq!(q.pop().unwrap().0, 100); // clock now 100
        q.push(200, timer(0, 9));
        q.push(5, timer(0, 1));
        assert_eq!(q.peek_time(), Some(5), "past time preserved, not clamped");
        assert_eq!(q.pop().unwrap(), (5, timer(0, 1)));
        assert_eq!(q.pop().unwrap(), (200, timer(0, 9)));
        assert!(q.is_empty());
    }

    #[test]
    fn past_pushes_interleave_by_time_then_seq() {
        // Multiple past pushes (a window's worth of cross-shard
        // arrivals) plus entries already waiting at the clock: pop order
        // is (time, seq) over the merged set.
        let mut q = EventQueue::new();
        q.push(50, timer(0, 0));
        q.push(50, timer(0, 1));
        assert_eq!(q.pop().unwrap(), (50, timer(0, 0))); // clock 50; seq1 waits in current
        q.push(30, timer(0, 2)); // past
        q.push(10, timer(0, 3)); // further past
        q.push(30, timer(0, 4)); // same past time, later seq
        q.push(50, timer(0, 5)); // at the clock
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (10, timer(0, 3)),
                (30, timer(0, 2)),
                (30, timer(0, 4)),
                (50, timer(0, 1)),
                (50, timer(0, 5)),
            ]
        );
    }

    #[test]
    fn spill_beyond_horizon_round_trips() {
        let mut q = EventQueue::new();
        let far = 1u64 << 40; // past the 2^36 wheel horizon
        q.push(far + 3, timer(0, 3));
        q.push(far + 1, timer(0, 1));
        q.push(2, timer(0, 0));
        assert_eq!(q.peek_time(), Some(2));
        assert_eq!(q.pop().unwrap().0, 2);
        assert_eq!(q.pop().unwrap(), (far + 1, timer(0, 1)));
        assert_eq!(q.pop().unwrap(), (far + 3, timer(0, 3)));
        assert!(q.is_empty());
    }

    #[test]
    fn spill_and_wheel_merge_same_timestamp() {
        let mut q = EventQueue::new();
        let t = (1u64 << 40) + 7;
        q.push(t, timer(0, 0)); // spill (far from now=0)
        q.push(1 << 39, timer(0, 1)); // also spill
        assert_eq!(q.pop().unwrap().0, 1 << 39);
        // Clock at 2^39: t is now within the wheel horizon.
        q.push(t, timer(0, 2)); // wheel bucket
        let (ta, ea) = q.pop().unwrap();
        let (tb, eb) = q.pop().unwrap();
        assert_eq!((ta, tb), (t, t));
        assert_eq!(ea, timer(0, 0), "spill entry has the older seq");
        assert_eq!(eb, timer(0, 2));
    }

    #[test]
    fn cached_wheel_minimum_holds_after_every_step() {
        // The check `next_wheel_time` makes in debug builds, made here
        // in every build: after each push and pop the cached minimum
        // equals a scan, and `peek_time` equals the reference heap's.
        // Mostly short deltas, so pushes keep lowering the minimum of a
        // busy wheel and pops keep cascading; some spill, some sit at or
        // behind the clock.
        let mut wheel = EventQueue::new();
        let mut oracle = ReferenceEventQueue::new();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        let mut now = 0u64;
        for i in 0..20_000u64 {
            if next(2) == 0 || wheel.is_empty() {
                let t = match next(8) {
                    0..=3 => now + next(1 << 8),
                    4 => now + next(1 << 20),
                    5 => now + (1 << HORIZON_BITS) + next(1 << 30),
                    6 => now,
                    _ => now.saturating_sub(next(1 << 8)),
                };
                wheel.push(t, timer(0, i));
                oracle.push(t, timer(0, i));
            } else {
                let got = wheel.pop();
                assert_eq!(got, oracle.pop(), "pop at step {i}");
                now = got.map_or(now, |(t, _)| t);
            }
            assert_eq!(wheel.wheel_min, wheel.scan_wheel_time(), "step {i}");
            assert_eq!(wheel.peek_time(), oracle.peek_time(), "step {i}");
        }
    }

    #[test]
    fn long_mixed_run_matches_reference() {
        // Deterministic pseudo-random schedule driven against the oracle.
        let mut wheel = EventQueue::new();
        let mut oracle = ReferenceEventQueue::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        let mut now = 0u64;
        for i in 0..50_000u64 {
            if next(3) != 0 || wheel.is_empty() {
                // Mixed deltas: mostly short, some cross-level, some
                // spill — and occasionally *behind* the clock, like a
                // cross-shard boundary injection.
                let t = match next(12) {
                    0..=5 => now + next(1 << 10),
                    6..=7 => now + next(1 << 22),
                    8 => now + next(1 << 34),
                    9 => now + next(1 << 40),
                    _ => now.saturating_sub(next(1 << 12)),
                };
                wheel.push(t, timer(0, i));
                oracle.push(t, timer(0, i));
            } else {
                let got = wheel.pop();
                let want = oracle.pop();
                assert_eq!(got, want, "pop #{i} diverged (wheel vs reference heap)");
                if let Some((t, _)) = got {
                    now = t;
                }
            }
            assert_eq!(wheel.peek_time(), oracle.peek_time());
            assert_eq!(wheel.len(), oracle.len());
        }
        while let Some(want) = oracle.pop() {
            assert_eq!(wheel.pop(), Some(want));
        }
        assert!(wheel.is_empty());
    }
}
