//! Deterministic observability for the PacketLab stack: a structured
//! event core with per-component flight recorders, a metrics registry,
//! and trace exporters — all stamped with the *simulated* clock so that
//! two replays of the same chaos seed produce bit-identical traces.
//!
//! # Design
//!
//! The whole control plane is single-threaded and deterministic (the
//! simulator owns one seeded RNG and a virtual clock), so observability
//! state lives in thread-local storage: recording is lock-free, tests
//! running in parallel threads cannot perturb each other, and a chaos
//! replay on one thread observes exactly its own events. Only the
//! *name* registries (callsite and metric interning) are global, behind
//! a mutex that is touched once per callsite per process — never on the
//! hot path.
//!
//! - **Events** ([`Callsite`], [`record`], [`obs_event!`]) are compact
//!   fixed-size records `(seq, virtual_time, callsite_id, a, b)` pushed
//!   into a bounded per-[`Component`] ring buffer (the *flight
//!   recorder*). When a ring is full the oldest event is evicted, so a
//!   crash dump always holds the most recent history.
//! - **Metrics** ([`metrics::Counter`], [`metrics::Gauge`],
//!   [`metrics::Histogram`]) are statically declared, interned on first
//!   touch, and updated by plain array indexing — no allocation on the
//!   steady-state hot path.
//! - **Exporters** ([`export::chrome_trace`], [`export::text_dump`])
//!   render a snapshot to chrome://tracing JSON (load it in
//!   `about:tracing` or Perfetto) or a human-readable text dump.
//!
//! # Disabled-path cost
//!
//! Everything is gated on a thread-local flag ([`enabled`]). The
//! [`obs_event!`] macro and every metric operation compile to a single
//! const-initialized TLS load and a predictable branch when disabled;
//! latency-critical consumers (the PFVM adjudication path) additionally
//! snapshot the flag once at construction so their per-packet cost is a
//! register test. `repro guard obs` in `plab-bench` measures the
//! disabled-path overhead against an uninstrumented twin loop and fails
//! if it exceeds 1%.
//!
//! # Virtual time
//!
//! Timestamps come from [`virtual_time`], a thread-local cell that the
//! simulator advances as it executes events. Code that runs outside the
//! simulator (setup, teardown) records at the last-set time. Because
//! the clock is virtual, identical seeds yield identical timestamps —
//! wall-clock jitter never leaks into a trace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;

mod event;
pub mod export;
pub mod metrics;

pub use event::{
    clear_events, record, snapshot, tail, tail_for, Callsite, Component, Event, ResolvedEvent,
};

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static VIRTUAL_NOW: Cell<u64> = const { Cell::new(0) };
}

/// Whether observability is recording on this thread. This is the gate
/// every instrumentation site checks; it compiles to a TLS load and a
/// branch.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

/// Turn recording on for this thread.
pub fn enable() {
    ENABLED.with(|e| e.set(true));
}

/// Turn recording off for this thread. Already-recorded events and
/// metric values are kept until [`reset`].
pub fn disable() {
    ENABLED.with(|e| e.set(false));
}

/// Set the thread's virtual clock. The simulator calls this as it
/// advances; every subsequently recorded event is stamped with `t`.
#[inline]
pub fn set_virtual_time(t: u64) {
    VIRTUAL_NOW.with(|c| c.set(t));
}

/// The thread's current virtual time, ns.
#[inline]
pub fn virtual_time() -> u64 {
    VIRTUAL_NOW.with(|c| c.get())
}

/// Clear all recorded state on this thread: flight-recorder rings,
/// metric values, the event sequence counter, and the virtual clock.
/// Interned callsite/metric registrations persist (they are static).
/// Call at the start of a run that must observe only itself.
pub fn reset() {
    clear_events();
    metrics::reset();
    set_virtual_time(0);
}

/// Record a structured event into a component's flight recorder.
///
/// The callsite is a `static` declared at the point of use (the macro
/// does this), forming the static callsite registry: names and field
/// labels live in the binary, events carry only a compact id.
///
/// ```
/// use plab_obs::{obs_event, Component};
/// plab_obs::enable();
/// obs_event!(Component::Endpoint, "cmd.dispatch", "sid" = 7u64, "op" = 3u64);
/// assert_eq!(plab_obs::tail(1)[0].name, "cmd.dispatch");
/// ```
#[macro_export]
macro_rules! obs_event {
    ($comp:expr, $name:expr, $f0:literal = $a:expr, $f1:literal = $b:expr) => {{
        static __OBS_CALLSITE: $crate::Callsite = $crate::Callsite::new($comp, $name, [$f0, $f1]);
        if $crate::enabled() {
            $crate::record(&__OBS_CALLSITE, ($a) as u64, ($b) as u64);
        }
    }};
    ($comp:expr, $name:expr, $f0:literal = $a:expr) => {
        $crate::obs_event!($comp, $name, $f0 = $a, "" = 0u64)
    };
    ($comp:expr, $name:expr) => {
        $crate::obs_event!($comp, $name, "" = 0u64, "" = 0u64)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        // Thread-local state: this test's thread starts disabled.
        obs_event!(Component::Netsim, "should.not.appear", "x" = 1u64);
        assert!(snapshot().iter().all(|e| e.name != "should.not.appear"));
    }

    #[test]
    fn events_are_stamped_with_virtual_time() {
        enable();
        reset();
        set_virtual_time(42_000);
        obs_event!(Component::Endpoint, "stamped", "x" = 5u64);
        set_virtual_time(43_000);
        obs_event!(Component::Endpoint, "stamped", "x" = 6u64);
        let evs = snapshot();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].t, 42_000);
        assert_eq!(evs[1].t, 43_000);
        assert_eq!(evs[0].a, 5);
        assert!(evs[0].seq < evs[1].seq);
        disable();
    }

    #[test]
    fn reset_clears_events_and_clock() {
        enable();
        set_virtual_time(10);
        obs_event!(Component::Controller, "gone");
        reset();
        assert_eq!(snapshot().len(), 0);
        assert_eq!(virtual_time(), 0);
        disable();
    }

    #[test]
    fn replaying_identical_actions_yields_identical_dumps() {
        enable();
        static TICKS: metrics::Counter = metrics::Counter::new("obs.test.lib.ticks");
        let mut dumps = Vec::new();
        for _ in 0..2 {
            reset();
            for i in 0..100u64 {
                set_virtual_time(i * 1_000);
                obs_event!(Component::Netsim, "tick", "i" = i, "sq" = i * i);
                TICKS.inc();
            }
            dumps.push(export::text_dump(&snapshot()));
        }
        assert_eq!(dumps[0], dumps[1]);
        assert!(!dumps[0].is_empty());
        disable();
    }
}
