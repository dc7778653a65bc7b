//! Structured events: static callsites, compact records, and the
//! per-component ring-buffer flight recorder.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// Which subsystem an event (or flight-recorder ring) belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Component {
    /// The measurement endpoint agent (command dispatch, capture
    /// buffers, replay cache, session linger).
    Endpoint = 0,
    /// The experiment controller (retries, backoff, deadlines).
    Controller = 1,
    /// The rendezvous server (publish, fan-out, subscriptions).
    Rendezvous = 2,
    /// The network simulator (faults, drops, queues).
    Netsim = 3,
    /// PFVM monitor adjudication (verdicts, fuel).
    Pfvm = 4,
    /// Harness-level markers (scenario start/end, world build).
    Harness = 5,
    /// Fleet orchestration (scheduling decisions, launches, outcomes).
    Runner = 6,
}

impl Component {
    /// Number of components (ring buffers per flight recorder).
    pub const COUNT: usize = 7;

    /// All components, in ring order.
    pub const ALL: [Component; Component::COUNT] = [
        Component::Endpoint,
        Component::Controller,
        Component::Rendezvous,
        Component::Netsim,
        Component::Pfvm,
        Component::Harness,
        Component::Runner,
    ];

    /// Stable lowercase name, used by exporters.
    pub fn name(self) -> &'static str {
        match self {
            Component::Endpoint => "endpoint",
            Component::Controller => "controller",
            Component::Rendezvous => "rendezvous",
            Component::Netsim => "netsim",
            Component::Pfvm => "pfvm",
            Component::Harness => "harness",
            Component::Runner => "runner",
        }
    }
}

/// A statically declared event source. Declare one `static` per code
/// location (the [`obs_event!`](crate::obs_event) macro does this) so
/// that the event payload carries only a compact interned id while the
/// name and field labels live once in the binary.
pub struct Callsite {
    /// The component whose ring receives events from this site.
    pub component: Component,
    /// Event name, e.g. `"replay.hit"`.
    pub name: &'static str,
    /// Labels for the two payload words (empty string = unused).
    pub fields: [&'static str; 2],
    /// Interned id + 1; 0 until first use.
    id: AtomicU32,
}

impl Callsite {
    /// A new, not-yet-interned callsite. `const` so it can initialize a
    /// `static`.
    pub const fn new(component: Component, name: &'static str, fields: [&'static str; 2]) -> Self {
        Callsite {
            component,
            name,
            fields,
            id: AtomicU32::new(0),
        }
    }
}

/// Interned callsite info, for resolving ids in snapshots.
#[derive(Clone, Copy)]
struct CallsiteInfo {
    component: Component,
    name: &'static str,
    fields: [&'static str; 2],
}

/// The global (cross-thread) callsite registry. Locked once per
/// callsite per process, on its first recorded event.
static REGISTRY: Mutex<Vec<CallsiteInfo>> = Mutex::new(Vec::new());

fn intern(cs: &'static Callsite) -> u16 {
    let cached = cs.id.load(Ordering::Relaxed);
    if cached != 0 {
        return (cached - 1) as u16;
    }
    let mut reg = REGISTRY.lock().expect("callsite registry poisoned");
    // Re-check under the lock: another thread may have interned it.
    let cached = cs.id.load(Ordering::Relaxed);
    if cached != 0 {
        return (cached - 1) as u16;
    }
    let id = reg.len();
    assert!(id < u16::MAX as usize, "callsite registry overflow");
    reg.push(CallsiteInfo {
        component: cs.component,
        name: cs.name,
        fields: cs.fields,
    });
    cs.id.store(id as u32 + 1, Ordering::Relaxed);
    id as u16
}

fn resolve(id: u16) -> CallsiteInfo {
    REGISTRY.lock().expect("callsite registry poisoned")[id as usize]
}

/// One recorded event: 34 bytes of payload, fixed size, `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Thread-global record sequence number (total causal order).
    pub seq: u64,
    /// Virtual time, ns (see [`crate::set_virtual_time`]).
    pub t: u64,
    /// Interned callsite id.
    pub callsite: u16,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

/// An [`Event`] with its callsite resolved, as handed to exporters.
#[derive(Debug, Clone)]
pub struct ResolvedEvent {
    /// Record sequence number.
    pub seq: u64,
    /// Virtual time, ns.
    pub t: u64,
    /// Owning component.
    pub component: Component,
    /// Event name.
    pub name: &'static str,
    /// Payload field labels.
    pub fields: [&'static str; 2],
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

impl ResolvedEvent {
    /// Compact one-line rendering for embedding in error messages and
    /// logs (the aligned multi-event format is
    /// [`text_dump`](crate::export::text_dump)).
    pub fn line(&self) -> String {
        let mut out = format!(
            "#{}@{}ns {}.{}",
            self.seq,
            self.t,
            self.component.name(),
            self.name
        );
        if !self.fields[0].is_empty() {
            out.push_str(&format!(" {}={}", self.fields[0], self.a));
        }
        if !self.fields[1].is_empty() {
            out.push_str(&format!(" {}={}", self.fields[1], self.b));
        }
        out
    }
}

/// Events retained per component ring. Old events are evicted first,
/// so the recorder always holds the most recent history — the flight
/// recorder property.
pub const RING_CAPACITY: usize = 8192;

struct Ring {
    buf: std::collections::VecDeque<Event>,
    /// Events evicted from this ring since the last clear.
    evicted: u64,
}

impl Ring {
    const fn new() -> Ring {
        Ring {
            buf: std::collections::VecDeque::new(),
            evicted: 0,
        }
    }

    fn push(&mut self, ev: Event) {
        if self.buf.len() == RING_CAPACITY {
            self.buf.pop_front();
            self.evicted += 1;
        }
        self.buf.push_back(ev);
    }
}

struct Recorder {
    rings: [Ring; Component::COUNT],
    next_seq: u64,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = const {
        RefCell::new(Recorder {
            rings: [
                Ring::new(),
                Ring::new(),
                Ring::new(),
                Ring::new(),
                Ring::new(),
                Ring::new(),
                Ring::new(),
            ],
            next_seq: 0,
        })
    };
}

/// Record one event. Callers normally go through
/// [`obs_event!`](crate::obs_event), which declares the static callsite
/// and performs the [`enabled`](crate::enabled) check; calling this
/// directly records unconditionally.
pub fn record(cs: &'static Callsite, a: u64, b: u64) {
    let callsite = intern(cs);
    let t = crate::virtual_time();
    RECORDER.with(|r| {
        let mut rec = r.borrow_mut();
        let seq = rec.next_seq;
        rec.next_seq += 1;
        rec.rings[cs.component as usize].push(Event {
            seq,
            t,
            callsite,
            a,
            b,
        });
    });
}

/// Drop all retained events and restart the sequence counter (this
/// thread only).
pub fn clear_events() {
    RECORDER.with(|r| {
        let mut rec = r.borrow_mut();
        for ring in &mut rec.rings {
            ring.buf.clear();
            ring.evicted = 0;
        }
        rec.next_seq = 0;
    });
}

fn resolve_all(events: Vec<Event>) -> Vec<ResolvedEvent> {
    events
        .into_iter()
        .map(|e| {
            let info = resolve(e.callsite);
            ResolvedEvent {
                seq: e.seq,
                t: e.t,
                component: info.component,
                name: info.name,
                fields: info.fields,
                a: e.a,
                b: e.b,
            }
        })
        .collect()
}

/// A non-destructive snapshot of every ring, merged into record order
/// (by sequence number). Deterministic for deterministic workloads.
pub fn snapshot() -> Vec<ResolvedEvent> {
    let mut all: Vec<Event> = RECORDER.with(|r| {
        let rec = r.borrow();
        rec.rings
            .iter()
            .flat_map(|ring| ring.buf.iter().copied())
            .collect()
    });
    all.sort_unstable_by_key(|e| e.seq);
    resolve_all(all)
}

/// The last `n` events across all components, in record order.
pub fn tail(n: usize) -> Vec<ResolvedEvent> {
    let mut all = snapshot();
    let keep = all.len().saturating_sub(n);
    all.drain(..keep);
    all
}

/// The last `n` events recorded by one component, in record order.
pub fn tail_for(component: Component, n: usize) -> Vec<ResolvedEvent> {
    let events: Vec<Event> = RECORDER.with(|r| {
        let rec = r.borrow();
        let buf = &rec.rings[component as usize].buf;
        let keep = buf.len().saturating_sub(n);
        buf.iter().skip(keep).copied().collect()
    });
    resolve_all(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    static CS_A: Callsite = Callsite::new(Component::Netsim, "ring.a", ["x", ""]);
    static CS_B: Callsite = Callsite::new(Component::Endpoint, "ring.b", ["y", ""]);

    #[test]
    fn ring_evicts_oldest_and_counts() {
        clear_events();
        for i in 0..(RING_CAPACITY as u64 + 10) {
            record(&CS_A, i, 0);
        }
        let evs = tail_for(Component::Netsim, usize::MAX);
        assert_eq!(evs.len(), RING_CAPACITY);
        // The oldest 10 were evicted: the first retained is a=10.
        assert_eq!(evs[0].a, 10);
        assert_eq!(evs.last().unwrap().a, RING_CAPACITY as u64 + 9);
        clear_events();
    }

    #[test]
    fn snapshot_merges_components_in_record_order() {
        clear_events();
        record(&CS_A, 1, 0);
        record(&CS_B, 2, 0);
        record(&CS_A, 3, 0);
        let evs = snapshot();
        let names: Vec<&str> = evs.iter().map(|e| e.name).collect();
        assert_eq!(names, ["ring.a", "ring.b", "ring.a"]);
        assert_eq!(evs[1].component, Component::Endpoint);
        clear_events();
    }
}
