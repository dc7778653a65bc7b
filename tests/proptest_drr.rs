//! Property test: the endpoint reactor's deficit round-robin schedule is
//! a **pure function of (seed, session arrival order)**.
//!
//! Random scenarios — session count, enrollment order, per-session queues
//! of unit costs, and the quantum, all derived from one seed — are served
//! three ways:
//!
//! 1. through a fresh [`DrrScheduler`] (the production scheduler: a `Vec`
//!    ring read cyclically from a cursor, credits beside it),
//! 2. through a second fresh `DrrScheduler` (replay: bit-identical), and
//! 3. through an independently written single-step oracle that carries
//!    its state only in `Vec`s, in strict arrival order.
//!
//! All three must produce the same service order, and the order must be
//! work-conserving: every queued unit is served exactly once.
//!
//! A second, dynamic property runs the scheduler in lockstep with a
//! rotating-queue model while sessions enroll and leave mid-stream, units
//! arrive between polls and sessions turn unservable and back: what the
//! cursor arithmetic has to get right.

use packetlab::reactor::DrrScheduler;
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A scheduling scenario: sessions enroll in `arrivals` order, each with
/// a fixed queue of unit costs.
#[derive(Debug, Clone)]
struct Spec {
    quantum: u64,
    arrivals: Vec<u64>,
    queues: Vec<VecDeque<u64>>, // indexed like `arrivals`
}

fn derive_spec(seed: u64) -> Spec {
    let mut s = seed;
    let quantum = 1 + splitmix64(&mut s) % 64;
    let n = 1 + (splitmix64(&mut s) % 8) as usize;
    // Arrival order: a seed-derived shuffle of distinct sids (sids are
    // deliberately non-contiguous so positional bugs can't hide).
    let mut arrivals: Vec<u64> = (0..n as u64).map(|i| 10 + i * 7).collect();
    for i in (1..arrivals.len()).rev() {
        let j = (splitmix64(&mut s) % (i as u64 + 1)) as usize;
        arrivals.swap(i, j);
    }
    let queues = (0..n)
        .map(|_| {
            let len = splitmix64(&mut s) % 7;
            (0..len).map(|_| 1 + splitmix64(&mut s) % (2 * quantum)).collect()
        })
        .collect();
    Spec { quantum, arrivals, queues }
}

/// Serve the spec through the production scheduler: repeated single-unit
/// polls until nothing is servable.
fn run_scheduler(spec: &Spec) -> Vec<u64> {
    let mut sched = DrrScheduler::new(spec.quantum);
    let mut queues: HashMap<u64, VecDeque<u64>> = HashMap::new();
    for (i, &sid) in spec.arrivals.iter().enumerate() {
        sched.enroll(sid);
        queues.insert(sid, spec.queues[i].clone());
    }
    let mut order = Vec::new();
    loop {
        let next = sched.poll(|sid| queues.get(&sid).and_then(|q| q.front().copied()));
        match next {
            Some(sid) => {
                queues.get_mut(&sid).unwrap().pop_front();
                order.push(sid);
            }
            // One poll pass grants each session at most one quantum; a
            // head unit pricier than that needs further passes — exactly
            // the continue-if-servable rule `EndpointReactor::dispatch`
            // applies.
            None => {
                if queues.values().all(VecDeque::is_empty) {
                    break;
                }
            }
        }
    }
    order
}

/// Textbook DRR (Shreedhar & Varghese), written independently of the
/// production code: a `Vec` ring in arrival order, one quantum per visit,
/// serve while credit covers the head-of-line cost, reset credit when the
/// queue is found empty. No hash maps anywhere — arrival order is the
/// only order this oracle can possibly produce.
fn run_oracle(spec: &Spec) -> Vec<u64> {
    let mut queues: Vec<VecDeque<u64>> = spec.queues.clone();
    let mut deficit: Vec<u64> = vec![0; spec.arrivals.len()];
    let mut ring: VecDeque<usize> = (0..spec.arrivals.len()).collect();
    let mut order = Vec::new();
    let mut remaining: usize = queues.iter().map(VecDeque::len).sum();
    while remaining > 0 {
        let i = *ring.front().unwrap();
        if queues[i].is_empty() {
            deficit[i] = 0;
            ring.rotate_left(1);
            continue;
        }
        deficit[i] += spec.quantum;
        while let Some(&c) = queues[i].front() {
            if deficit[i] < c {
                break;
            }
            deficit[i] -= c;
            queues[i].pop_front();
            order.push(spec.arrivals[i]);
            remaining -= 1;
        }
        ring.rotate_left(1);
    }
    order
}

/// Single-step reference for the dynamic property: the ring is a queue
/// whose front is the session being offered service, moved on by rotation,
/// with each session's credit riding along in its entry. It shares no
/// index arithmetic with the production scheduler's cursor.
struct Model {
    quantum: u64,
    ring: VecDeque<(u64, u64)>, // (sid, credit)
    /// The front session already has this visit's quantum.
    granted: bool,
}

impl Model {
    fn enroll(&mut self, sid: u64) {
        if self.ring.iter().all(|&(s, _)| s != sid) {
            self.ring.push_back((sid, 0));
        }
    }

    fn remove(&mut self, sid: u64) {
        if self.ring.front().is_some_and(|&(s, _)| s == sid) {
            self.granted = false;
        }
        self.ring.retain(|&(s, _)| s != sid);
    }

    fn poll(&mut self, cost: impl Fn(u64) -> Option<u64>) -> Option<u64> {
        for _ in 0..self.ring.len() {
            let (sid, credit) = self.ring.front_mut()?;
            match cost(*sid) {
                Some(c) => {
                    if !self.granted {
                        *credit += self.quantum;
                        self.granted = true;
                    }
                    if *credit >= c {
                        *credit -= c;
                        return Some(*sid);
                    }
                }
                None => *credit = 0,
            }
            self.granted = false;
            self.ring.rotate_left(1);
        }
        None
    }
}

/// One session of the dynamic property.
struct Peer {
    sid: u64,
    queue: VecDeque<u64>,
    /// Unservable for now (the reactor's backpressured or poisoned
    /// session): its cost reads `None` whatever it has queued.
    blocked: bool,
}

fn head_cost(peers: &[Peer], sid: u64) -> Option<u64> {
    let p = peers.iter().find(|p| p.sid == sid)?;
    if p.blocked {
        return None;
    }
    p.queue.front().copied()
}

/// One poll of both schedulers with the same answers: they must agree, and
/// the unit they chose is served.
fn poll_both(
    sched: &mut DrrScheduler,
    model: &mut Model,
    peers: &mut [Peer],
    seed: u64,
) -> Result<Option<u64>, TestCaseError> {
    let got = sched.poll(|sid| head_cost(peers, sid));
    let want = model.poll(|sid| head_cost(peers, sid));
    prop_assert_eq!(got, want, "poll diverged (seed {:#x})", seed);
    if let Some(sid) = got {
        peers.iter_mut().find(|p| p.sid == sid).unwrap().queue.pop_front();
    }
    Ok(got)
}

/// Drive the production scheduler and the model through one seed-derived
/// script, polling both with the same answers; the polls' results are
/// compared as they happen. Returns how many units were served.
fn run_dynamic(seed: u64) -> Result<usize, TestCaseError> {
    let mut s = seed;
    let quantum = 1 + splitmix64(&mut s) % 64;
    let mut sched = DrrScheduler::new(quantum);
    let mut model = Model { quantum, ring: VecDeque::new(), granted: false };
    let mut peers: Vec<Peer> = Vec::new();
    let mut enrolled = 0u64;
    let mut served = 0usize;

    let steps = 40 + splitmix64(&mut s) % 80;
    for step in 0..steps {
        let r = splitmix64(&mut s);
        let pick = (splitmix64(&mut s) % peers.len().max(1) as u64) as usize;
        // The session under the cursor and the one just before it are
        // where an off-by-one in `remove` would show.
        let target = match r >> 8 & 3 {
            0 => model.ring.front().map(|&(sid, _)| sid),
            1 => model.ring.back().map(|&(sid, _)| sid),
            _ => peers.get(pick).map(|p| p.sid),
        };
        match r % 16 {
            // The script opens with a few enrollments, then they are rare.
            _ if step < 3 => {}
            0..=4 => {
                if let Some(p) = peers.get_mut(pick) {
                    p.queue.push_back(1 + (r >> 16) % (2 * quantum));
                }
                continue;
            }
            5..=10 => {
                let polls = 1 + (r >> 16) % 3;
                for _ in 0..polls {
                    let got = poll_both(&mut sched, &mut model, &mut peers, seed)?;
                    served += usize::from(got.is_some());
                }
                continue;
            }
            11 | 12 => {
                if let Some(sid) = target {
                    sched.remove(sid);
                    model.remove(sid);
                    peers.retain(|p| p.sid != sid);
                }
                continue;
            }
            13 | 14 => {
                if let Some(p) = target.and_then(|sid| peers.iter_mut().find(|p| p.sid == sid)) {
                    p.blocked = !p.blocked;
                }
                continue;
            }
            _ => {}
        }
        if enrolled < 31 {
            // Distinct, non-contiguous and out of order.
            let sid = 10 + 7 * (enrolled * 11 % 31);
            enrolled += 1;
            sched.enroll(sid);
            model.enroll(sid);
            let len = splitmix64(&mut s) % 4;
            let queue = (0..len).map(|_| 1 + splitmix64(&mut s) % (2 * quantum)).collect();
            peers.push(Peer { sid, queue, blocked: false });
        }
    }

    // Everything becomes servable again and the rest drains, still in
    // lockstep: work conservation across all of the above.
    for p in &mut peers {
        p.blocked = false;
    }
    prop_assert_eq!(sched.len(), peers.len());
    let mut polls = 0;
    while peers.iter().any(|p| !p.queue.is_empty()) {
        polls += 1;
        prop_assert!(polls < 100_000, "drain does not end (seed {:#x})", seed);
        served += usize::from(poll_both(&mut sched, &mut model, &mut peers, seed)?.is_some());
    }
    Ok(served)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    /// The production schedule replays bit-identically and matches the
    /// arrival-order oracle: (seed, arrival order) fully determine it.
    #[test]
    fn drr_order_is_pure_function_of_seed_and_arrival(seed in any::<u64>()) {
        let spec = derive_spec(seed);
        let first = run_scheduler(&spec);
        let second = run_scheduler(&spec);
        prop_assert_eq!(&first, &second, "replay diverged (seed {:#x})", seed);
        let oracle = run_oracle(&spec);
        prop_assert_eq!(&first, &oracle, "oracle diverged (seed {:#x})", seed);
        // Work conservation: every queued unit served exactly once.
        let total: usize = spec.queues.iter().map(VecDeque::len).sum();
        prop_assert_eq!(first.len(), total);
        for (i, &sid) in spec.arrivals.iter().enumerate() {
            prop_assert_eq!(
                first.iter().filter(|&&s| s == sid).count(),
                spec.queues[i].len(),
                "session {} served a wrong unit count (seed {:#x})", sid, seed
            );
        }
    }

    /// Arrival order matters and nothing else does: relabeling sids while
    /// keeping arrival positions and queues fixed relabels the schedule
    /// exactly — the scheduler keys on nothing but the ring.
    #[test]
    fn drr_order_is_invariant_under_sid_relabeling(seed in any::<u64>()) {
        let spec = derive_spec(seed);
        let mut relabeled = spec.clone();
        for sid in &mut relabeled.arrivals {
            *sid = *sid * 131 + 9; // injective on the derived sid range
        }
        let base = run_scheduler(&spec);
        let got = run_scheduler(&relabeled);
        let want: Vec<u64> = base.iter().map(|sid| *sid * 131 + 9).collect();
        prop_assert_eq!(got, want, "relabeling changed the schedule shape (seed {:#x})", seed);
    }

    /// Enrollment, removal, arrivals and blocking between polls: the
    /// cursor ring serves exactly what the rotating-queue model serves,
    /// poll for poll, and replays identically.
    #[test]
    fn drr_matches_model_under_enroll_remove_and_blocking(seed in any::<u64>()) {
        let first = run_dynamic(seed)?;
        let second = run_dynamic(seed)?;
        prop_assert_eq!(first, second, "replay diverged (seed {:#x})", seed);
    }
}
