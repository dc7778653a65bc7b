//! Exporters: chrome://tracing JSON and a human-readable text dump.
//!
//! Both render a `&[ResolvedEvent]` snapshot, so the caller decides the
//! window (full [`crate::snapshot`] or a [`crate::tail`]). Output is a
//! pure function of the events — no wall clock, no float formatting —
//! so two replays of the same seed render byte-identical artifacts.

use crate::event::ResolvedEvent;
use crate::metrics::{self, MetricValue};

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// FNV-1a's offset basis: the hash of no bytes, where a fold starts.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into an FNV-1a `hash`, the workspace's one digest
/// primitive (platform-independent, dependency-free): folding a stream
/// piece by piece from [`FNV_OFFSET`] gives the hash of the whole.
pub fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// splitmix64: step the generator `state` and return its next output,
/// the workspace's one seed expander (per-task jitter seeds, fault plans,
/// per-shard RNG seeds). For a stateless derivation of `x`, step a copy:
/// `splitmix64(&mut x.clone())`.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a of `bytes` in one call. Used to fingerprint dump artifacts in
/// reports.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    fnv1a(&mut hash, bytes);
    hash
}

/// Microseconds with exact nanosecond remainder, as chrome://tracing's
/// `ts` field (decimal microseconds). Integer arithmetic only.
fn ts_micros(t_ns: u64) -> String {
    format!("{}.{:03}", t_ns / 1_000, t_ns % 1_000)
}

/// Render events as chrome://tracing "JSON Object Format". Load the
/// output in `about:tracing` or <https://ui.perfetto.dev>: each
/// component appears as a named thread, each event as an instant on its
/// thread's track with the payload fields under `args`.
pub fn chrome_trace(events: &[ResolvedEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"packetlab\"}}",
    );
    for comp in crate::Component::ALL {
        out.push_str(&format!(
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
             \"args\":{{\"name\":\"{}\"}}}}",
            comp as u8,
            comp.name()
        ));
    }
    for ev in events {
        let mut args = format!("\"seq\":{}", ev.seq);
        if !ev.fields[0].is_empty() {
            args.push_str(&format!(",\"{}\":{}", json_escape(ev.fields[0]), ev.a));
        }
        if !ev.fields[1].is_empty() {
            args.push_str(&format!(",\"{}\":{}", json_escape(ev.fields[1]), ev.b));
        }
        out.push_str(&format!(
            ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\
             \"tid\":{},\"ts\":{},\"args\":{{{}}}}}",
            json_escape(ev.name),
            ev.component.name(),
            ev.component as u8,
            ts_micros(ev.t),
            args
        ));
    }
    out.push_str("\n]}\n");
    out
}

/// Render events as an aligned, human-readable text dump — the format
/// of the chaos flight-recorder artifact. One line per event:
///
/// ```text
/// #000041     223000000ns controller  reconnect.attempt        failures=2 backoff_ns=150000000
/// ```
pub fn text_dump(events: &[ResolvedEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&format!(
            "#{:06} {:>13}ns {:<11} {:<26}",
            ev.seq,
            ev.t,
            ev.component.name(),
            ev.name
        ));
        if !ev.fields[0].is_empty() {
            out.push_str(&format!(" {}={}", ev.fields[0], ev.a));
        }
        if !ev.fields[1].is_empty() {
            out.push_str(&format!(" {}={}", ev.fields[1], ev.b));
        }
        out.push('\n');
    }
    out
}

/// Sanitize a metric name for Prometheus exposition: the workspace's
/// dotted names (`runner.task_latency_ns`) become underscore-separated
/// (`runner_task_latency_ns`).
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Render this thread's metric snapshot in the Prometheus text
/// exposition format (version 0.0.4): `# TYPE` comment per family, one
/// sample per counter/gauge, and cumulative `le`-labelled buckets plus
/// `_sum`/`_count` per histogram. Histogram buckets are the registry's
/// power-of-two buckets; `le` carries each bucket's exclusive upper
/// bound. Integer formatting only — two replays of the same seed render
/// byte-identical expositions.
pub fn prometheus_text() -> String {
    let mut out = String::new();
    for (name, value) in metrics::snapshot() {
        let pname = prom_name(name);
        match value {
            MetricValue::Counter(c) => {
                out.push_str(&format!("# TYPE {pname} counter\n{pname} {c}\n"));
            }
            MetricValue::Gauge(g) => {
                out.push_str(&format!("# TYPE {pname} gauge\n{pname} {g}\n"));
            }
            MetricValue::Histogram {
                count,
                sum,
                buckets,
            } => {
                out.push_str(&format!("# TYPE {pname} histogram\n"));
                let mut cumulative = 0u64;
                for (i, c) in buckets {
                    cumulative += c;
                    if let Some(hi) = metrics::bucket_bound(i) {
                        out.push_str(&format!("{pname}_bucket{{le=\"{hi}\"}} {cumulative}\n"));
                    }
                }
                out.push_str(&format!("{pname}_bucket{{le=\"+Inf\"}} {count}\n"));
                out.push_str(&format!("{pname}_sum {sum}\n"));
                out.push_str(&format!("{pname}_count {count}\n"));
            }
        }
    }
    out
}

/// Render events as a qlog-style JSON-SEQ trace (RFC 7464 framing: each
/// record is `RS` + JSON + `LF`; qlog 0.4's streamable container). The
/// first record is the trace header; every following record is one event
/// with its virtual-clock timestamp as decimal microseconds (integer
/// arithmetic — replays render byte-identically), its name as
/// `component:event`, and the payload fields under `data`.
pub fn qlog_seq(events: &[ResolvedEvent]) -> String {
    let mut out = String::new();
    out.push('\u{1e}');
    out.push_str(
        "{\"qlog_version\":\"0.4\",\"qlog_format\":\"JSON-SEQ\",\
         \"title\":\"packetlab\",\"trace\":{\"vantage_point\":{\"type\":\"network\"},\
         \"common_fields\":{\"time_format\":\"relative\",\"reference_time\":0}}}\n",
    );
    for ev in events {
        let mut data = format!("\"seq\":{}", ev.seq);
        if !ev.fields[0].is_empty() {
            data.push_str(&format!(",\"{}\":{}", json_escape(ev.fields[0]), ev.a));
        }
        if !ev.fields[1].is_empty() {
            data.push_str(&format!(",\"{}\":{}", json_escape(ev.fields[1]), ev.b));
        }
        out.push('\u{1e}');
        out.push_str(&format!(
            "{{\"time\":{},\"name\":\"{}:{}\",\"data\":{{{}}}}}\n",
            ts_micros(ev.t),
            ev.component.name(),
            json_escape(ev.name),
            data
        ));
    }
    out
}

/// Render this thread's metric snapshot as one aligned line per metric.
pub fn metrics_dump() -> String {
    let mut out = String::new();
    for (name, value) in metrics::snapshot() {
        match value {
            MetricValue::Counter(c) => out.push_str(&format!("{name:<40} counter {c}\n")),
            MetricValue::Gauge(g) => out.push_str(&format!("{name:<40} gauge   {g}\n")),
            MetricValue::Histogram {
                count,
                sum,
                buckets,
            } => {
                out.push_str(&format!("{name:<40} hist    count={count} sum={sum}"));
                for (i, c) in buckets {
                    match metrics::bucket_bound(i) {
                        Some(hi) => out.push_str(&format!(" <{hi}:{c}")),
                        None => out.push_str(&format!(" <inf:{c}")),
                    }
                }
                out.push('\n');
            }
        }
    }
    out
}

/// Render this thread's metric snapshot as a JSON object
/// (`name → value`, histograms as `{count, sum, buckets}`).
pub fn metrics_json() -> String {
    let mut out = String::from("{");
    let mut first = true;
    for (name, value) in metrics::snapshot() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\"{}\":", json_escape(name)));
        match value {
            MetricValue::Counter(c) => out.push_str(&c.to_string()),
            MetricValue::Gauge(g) => out.push_str(&g.to_string()),
            MetricValue::Histogram {
                count,
                sum,
                buckets,
            } => {
                out.push_str(&format!("{{\"count\":{count},\"sum\":{sum},\"buckets\":["));
                for (j, (i, c)) in buckets.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("[{i},{c}]"));
                }
                out.push_str("]}");
            }
        }
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{obs_event, Component};

    fn sample_events() -> Vec<ResolvedEvent> {
        crate::enable();
        crate::reset();
        crate::set_virtual_time(1_234_567);
        obs_event!(Component::Netsim, "drop", "reason" = 2u64, "node" = 3u64);
        crate::set_virtual_time(2_000_000);
        obs_event!(
            Component::Controller,
            "backoff",
            "sleep_ns" = 150_000_000u64
        );
        let evs = crate::snapshot();
        crate::disable();
        evs
    }

    #[test]
    fn chrome_trace_is_valid_shape_and_deterministic() {
        let evs = sample_events();
        let a = chrome_trace(&evs);
        let b = chrome_trace(&evs);
        assert_eq!(a, b);
        // Structural smoke: one metadata record per component + process,
        // one instant per event, balanced braces/brackets.
        assert!(a.starts_with("{\"traceEvents\":["));
        assert!(a.trim_end().ends_with("]}"));
        assert_eq!(a.matches("\"ph\":\"M\"").count(), 1 + Component::COUNT);
        assert_eq!(a.matches("\"ph\":\"i\"").count(), evs.len());
        assert!(a.contains("\"ts\":1234.567"));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn text_dump_renders_fields_in_order() {
        let evs = sample_events();
        let dump = text_dump(&evs);
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("netsim"));
        assert!(lines[0].contains("drop"));
        assert!(lines[0].contains("reason=2"));
        assert!(lines[0].contains("node=3"));
        assert!(lines[1].contains("backoff"));
        assert!(lines[1].contains("sleep_ns=150000000"));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn fnv_matches_reference_vector() {
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn qlog_seq_framing_and_determinism() {
        let evs = sample_events();
        let a = qlog_seq(&evs);
        assert_eq!(a, qlog_seq(&evs), "replay must render byte-identically");
        let records: Vec<&str> = a.split('\u{1e}').filter(|r| !r.is_empty()).collect();
        // Header + one record per event, each RS-prefixed and LF-terminated.
        assert_eq!(records.len(), 1 + evs.len());
        assert!(records[0].contains("\"qlog_version\":\"0.4\""));
        assert!(records[0].contains("\"qlog_format\":\"JSON-SEQ\""));
        for r in &records {
            assert!(r.ends_with('\n'));
            let body = r.trim_end();
            assert!(body.starts_with('{') && body.ends_with('}'));
            assert_eq!(body.matches('{').count(), body.matches('}').count());
        }
        assert!(records[1].contains("\"time\":1234.567"));
        assert!(records[1].contains("\"name\":\"netsim:drop\""));
        assert!(records[1].contains("\"reason\":2"));
        assert!(records[2].contains("\"name\":\"controller:backoff\""));
    }

    #[test]
    fn prometheus_text_shape() {
        static C: crate::metrics::Counter = crate::metrics::Counter::new("promtest.requests");
        static H: crate::metrics::Histogram = crate::metrics::Histogram::new("promtest.lat_ns");
        crate::enable();
        crate::metrics::reset();
        C.add(3);
        H.observe(1);
        H.observe(5);
        H.observe(5_000);
        let text = prometheus_text();
        crate::disable();
        assert_eq!(text, prometheus_text(), "exposition must be deterministic");
        assert!(text.contains("# TYPE promtest_requests counter\npromtest_requests 3\n"));
        assert!(text.contains("# TYPE promtest_lat_ns histogram\n"));
        // Cumulative buckets end at +Inf == count, with sum/count samples.
        assert!(text.contains("promtest_lat_ns_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("promtest_lat_ns_sum 5006\n"));
        assert!(text.contains("promtest_lat_ns_count 3\n"));
        // Buckets are cumulative: each le line's value ≤ the next one's.
        let mut last = 0u64;
        for line in text
            .lines()
            .filter(|l| l.contains("promtest_lat_ns_bucket"))
        {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "non-monotone bucket line: {line}");
            last = v;
        }
    }
}
