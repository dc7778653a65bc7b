//! Differential property test: the hierarchical timer wheel
//! ([`plab_netsim::event::EventQueue`]) against the previous
//! `BinaryHeap` scheduler, kept verbatim as
//! [`plab_netsim::event::ReferenceEventQueue`].
//!
//! The wheel's determinism contract is that it is *observationally
//! identical* to the heap: same `(time, seq)` pop order, same handling of
//! past-clock pushes (legal since cross-shard boundary injection: they
//! pop first, in `(time, seq)` order) — for any interleaving of schedule
//! and pop operations, across every level of the wheel and the overflow
//! spill list. Seeded traces recorded
//! before the swap must therefore replay bit-identically after it.
//!
//! The wheel has one accessor the heap has not, `ahead(k)`, which
//! `Sim::step` reads to touch what upcoming events will need. The scripts
//! call it anywhere: what it shows is what the next pops return, and
//! having looked changes nothing the two queues then agree on.

use plab_netsim::event::{EventKind, EventQueue, ReferenceEventQueue};
use proptest::prelude::*;

/// One scripted operation against both schedulers.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule a timer at `now + delta` (deltas span every wheel level
    /// and the spill horizon).
    Push { delta: u64 },
    /// Schedule a timer in the past (`now - back`), as a cross-shard
    /// window-boundary injection would; both queues must accept it and
    /// pop it at its (past) time, before anything later.
    PushPast { back: u64 },
    /// Pop the earliest event.
    Pop,
    /// Look `0..=k` places down the wheel, then pop `k + 1` times: each
    /// place showed `None` or exactly the event that pop returns.
    Ahead { k: usize },
}

/// Deltas chosen so every placement path is exercised: the same-tick
/// FIFO fast path, each wheel level, and the >2^36 ns spill list.
/// Arms are repeated instead of weighted (the vendored proptest's
/// `prop_oneof!` is uniform).
fn delta_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64), // same-tick FIFO path
        Just(0u64),
        1u64..64, // level 0
        1u64..64,
        64u64..4096,             // level 1
        4096u64..(1 << 18),      // levels 2–3
        (1u64 << 18)..(1 << 30), // levels 3–4
        (1u64 << 30)..(1 << 36), // level 5
        (1u64 << 36)..(1 << 40), // spill list
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        delta_strategy().prop_map(|delta| Op::Push { delta }),
        delta_strategy().prop_map(|delta| Op::Push { delta }),
        delta_strategy().prop_map(|delta| Op::Push { delta }),
        (0u64..(1 << 20)).prop_map(|back| Op::PushPast { back }),
        Just(Op::Pop),
        Just(Op::Pop),
        (0u64..12).prop_map(|k| Op::Ahead { k: k as usize }),
    ]
}

fn timer(key: u64) -> EventKind {
    EventKind::Timer { node: 0, key }
}

/// Drive both queues through `ops`, asserting observational equality
/// after every step, then drain both and compare the full tail.
fn run_script(ops: Vec<Op>) {
    let mut wheel = EventQueue::new();
    let mut oracle = ReferenceEventQueue::new();
    let mut now: u64 = 0;
    let mut next_key: u64 = 0;

    for op in ops {
        // `Ahead` is its looks followed by as many pops.
        let (pops, shown) = match op {
            Op::Pop => (1, Vec::new()),
            Op::Ahead { k } => (k + 1, (0..=k).map(|j| wheel.ahead(j).cloned()).collect()),
            _ => (0, Vec::new()),
        };
        for j in 0..pops {
            let a = wheel.pop();
            let b = oracle.pop();
            assert_eq!(a, b, "pop diverged");
            if let Some(shown) = shown.get(j).cloned().flatten() {
                assert_eq!(
                    a.as_ref().map(|(_, e)| e),
                    Some(&shown),
                    "ahead({j}) showed another"
                );
            }
            if let Some((t, _)) = a {
                // Past-clock pushes may pop behind `now`; the
                // external clock only ratchets forward.
                now = now.max(t);
            }
        }
        match op {
            Op::Push { delta } => {
                let k = timer(next_key);
                next_key += 1;
                wheel.push(now + delta, k.clone());
                oracle.push(now + delta, k);
            }
            Op::PushPast { back } => {
                let k = timer(next_key);
                next_key += 1;
                let t = now.saturating_sub(back);
                wheel.push(t, k.clone());
                oracle.push(t, k);
            }
            Op::Pop | Op::Ahead { .. } => {}
        }
        assert_eq!(wheel.peek_time(), oracle.peek_time(), "peek diverged");
        assert_eq!(wheel.len(), oracle.len(), "len diverged");
        assert_eq!(wheel.is_empty(), oracle.is_empty());
    }

    // Drain both to the end: the full remaining order must match exactly.
    loop {
        let a = wheel.pop();
        let b = oracle.pop();
        assert_eq!(a, b, "drain diverged");
        if a.is_none() {
            break;
        }
    }
}

/// `ahead` sees the batch `pop` is draining — past-clock insertions in
/// their place — and nothing beyond it, though the wheel holds more.
#[test]
fn ahead_shows_the_batch_and_stops_at_its_end() {
    let mut q = EventQueue::new();
    q.push(1_000, timer(99)); // a later instant: stays in the wheel
    for key in 0..20 {
        q.push(500, timer(key));
    }
    assert_eq!(q.ahead(0), None, "nothing is current before the first pop");
    assert_eq!(q.pop(), Some((500, timer(0))));
    q.push(400, timer(50)); // behind the clock: to the front
    q.push(500, timer(51)); // at the clock: to the back
    let want: Vec<u64> = [50].into_iter().chain(1..20).chain([51]).collect();
    for (k, &key) in want.iter().enumerate() {
        assert_eq!(q.ahead(k), Some(&timer(key)), "place {k}");
    }
    assert_eq!(
        q.ahead(want.len()),
        None,
        "the event at 1,000 is not in the batch"
    );
    assert_eq!(q.len(), want.len() + 1, "looking removed nothing");
    for &key in &want {
        assert_eq!(q.pop().map(|(_, e)| e), Some(timer(key)));
    }
    assert_eq!(q.pop(), Some((1_000, timer(99))));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    /// Random interleavings of push/pop across all wheel levels
    /// pop in exactly the heap's order.
    #[test]
    fn wheel_matches_heap(ops in prop::collection::vec(op_strategy(), 1..400)) {
        run_script(ops);
    }

    /// Burst-then-drain: many same-tick events (the zero-latency-link
    /// pattern that dominates the simulator) preserve FIFO seq order.
    #[test]
    fn same_tick_bursts_are_fifo(
        bursts in prop::collection::vec((0u64..1024, 1usize..64), 1..20)
    ) {
        let mut ops = Vec::new();
        for (delta, n) in bursts {
            for _ in 0..n {
                ops.push(Op::Push { delta });
            }
            for _ in 0..n / 2 {
                ops.push(Op::Pop);
            }
        }
        run_script(ops);
    }
}
