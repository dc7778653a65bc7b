//! Deterministic machine-readable run reports.
//!
//! A fleet run produces an ordered stream of JSON event records
//! (run_start, launch, outcome, run_end — each stamped with virtual
//! time), an aggregate summary with exact percentile latencies and
//! power-of-two histogram buckets, and a 64-bit FNV digest over both.
//! Every number in the report is an integer: no floats means no
//! formatting ambiguity, so a replay of the same `(seed, roster,
//! config)` yields byte-identical output.

use std::io::Write as _;
use std::path::PathBuf;

use packetlab::controller::robust::RetryStats;
use plab_obs::export::{fnv1a64, json_escape};

/// How an endpoint's experiment ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The measurement program ran to completion.
    Completed,
    /// The controller gave up (retry budget exhausted, protocol error,
    /// endpoint rejection).
    Failed,
    /// The scheduler cut the task off (fleet deadline) or the task
    /// panicked.
    Aborted,
}

impl Outcome {
    /// Stable lowercase label used in report records.
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Completed => "completed",
            Outcome::Failed => "failed",
            Outcome::Aborted => "aborted",
        }
    }
}

/// Program-specific measurement results, integers only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Detail {
    /// No measurement data (task failed before producing any).
    None,
    /// Ping results.
    Ping {
        /// Probes sent.
        sent: u32,
        /// Echo replies received.
        replies: u32,
        /// Fastest round trip, ns (0 when no replies).
        min_rtt: u64,
        /// Slowest round trip, ns (0 when no replies).
        max_rtt: u64,
    },
    /// Traceroute results.
    Traceroute {
        /// Hops probed.
        hops: u32,
        /// Whether the destination answered.
        reached: bool,
    },
    /// Uplink bandwidth results.
    Bandwidth {
        /// Datagrams sent by the endpoint.
        sent: u32,
        /// Datagrams observed at the sink.
        received: u32,
        /// Estimated goodput in kilobits per second, truncated.
        kbits_per_sec: u64,
        /// The same arrivals' median sequence-gap-normalized spacing rate
        /// in kilobits per second, truncated (0 with fewer than three
        /// usable pairs).
        dispersion_kbits_per_sec: u64,
    },
}

impl Detail {
    /// Render as a JSON fragment (an object, or `null` for `None`).
    pub fn to_json(&self) -> String {
        match self {
            Detail::None => "null".into(),
            Detail::Ping { sent, replies, min_rtt, max_rtt } => format!(
                "{{\"kind\":\"ping\",\"sent\":{sent},\"replies\":{replies},\"min_rtt_ns\":{min_rtt},\"max_rtt_ns\":{max_rtt}}}"
            ),
            Detail::Traceroute { hops, reached } => {
                format!("{{\"kind\":\"traceroute\",\"hops\":{hops},\"reached\":{reached}}}")
            }
            Detail::Bandwidth { sent, received, kbits_per_sec, dispersion_kbits_per_sec } => format!(
                "{{\"kind\":\"bandwidth\",\"sent\":{sent},\"received\":{received},\"kbits_per_sec\":{kbits_per_sec},\"dispersion_kbits_per_sec\":{dispersion_kbits_per_sec}}}"
            ),
        }
    }
}

/// The per-endpoint record the scheduler collects when a task finishes.
#[derive(Debug, Clone)]
pub struct TaskResult {
    /// Index of the roster pair this task ran against.
    pub endpoint: usize,
    /// How it ended.
    pub outcome: Outcome,
    /// Typed failure cause (e.g. `"timeout"`, `"unreachable"`,
    /// `"fleet-deadline"`); `None` on success.
    pub cause: Option<String>,
    /// Measurement results.
    pub detail: Detail,
    /// Retry/replay statistics from the task's `RobustController`.
    pub stats: RetryStats,
    /// Virtual time the task launched.
    pub started_ns: u64,
    /// Virtual time the task finished.
    pub finished_ns: u64,
}

/// Exact percentile of a **sorted** latency slice: the element at rank
/// `ceil(q/100 * n)` (1-based). Returns 0 for an empty slice.
pub fn percentile(sorted: &[u64], q: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len() as u64;
    let rank = (q * n).div_ceil(100).max(1);
    sorted[(rank - 1) as usize]
}

/// Power-of-two histogram over latencies: returns `(bucket_upper_bound,
/// count)` pairs for non-empty buckets, ascending.
pub fn pow2_buckets(latencies: &[u64]) -> Vec<(u64, u64)> {
    let mut counts: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for &l in latencies {
        let bucket = l.max(1).next_power_of_two();
        *counts.entry(bucket).or_default() += 1;
    }
    counts.into_iter().collect()
}

/// A finished fleet run: the ordered event stream, the aggregate
/// summary record, and a digest over both.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// JSON event records in scheduler order (each a complete object).
    pub events: Vec<String>,
    /// Aggregate summary as one JSON object.
    pub summary: String,
    /// FNV-1a/64 over every event record plus the summary.
    pub digest: u64,
}

impl RunReport {
    /// Seal `events` + `summary` into a report, computing the digest.
    pub fn seal(events: Vec<String>, summary: String) -> RunReport {
        let mut hash_input = Vec::new();
        for e in &events {
            hash_input.extend_from_slice(e.as_bytes());
            hash_input.push(b'\n');
        }
        hash_input.extend_from_slice(summary.as_bytes());
        let digest = fnv1a64(&hash_input);
        RunReport {
            events,
            summary,
            digest,
        }
    }

    /// Serialize the full report as RFC 7464 JSON text sequences: each
    /// record is `RS record LF`. The summary is the final record.
    pub fn json_seq(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for e in &self.events {
            out.push(0x1e);
            out.extend_from_slice(e.as_bytes());
            out.push(b'\n');
        }
        out.push(0x1e);
        out.extend_from_slice(self.summary.as_bytes());
        out.push(b'\n');
        out
    }

    /// Write the report under `dir` as rotated JSON-SEQ files
    /// (`<prefix>.0000.json-seq`, `.0001`, ...) of at most
    /// `rotate_every` event records each, plus `<prefix>.summary.json`.
    /// Returns the paths written.
    pub fn write_rotated(
        &self,
        dir: &std::path::Path,
        prefix: &str,
        rotate_every: usize,
    ) -> std::io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let chunk = rotate_every.max(1);
        let mut paths = Vec::new();
        for (i, events) in self.events.chunks(chunk).enumerate() {
            let path = dir.join(format!("{prefix}.{i:04}.json-seq"));
            let mut f = std::fs::File::create(&path)?;
            for e in events {
                f.write_all(&[0x1e])?;
                f.write_all(e.as_bytes())?;
                f.write_all(b"\n")?;
            }
            paths.push(path);
        }
        let path = dir.join(format!("{prefix}.summary.json"));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(self.summary.as_bytes())?;
        f.write_all(b"\n")?;
        paths.push(path);
        Ok(paths)
    }
}

/// Render one `outcome` event record.
pub fn outcome_event(now: u64, r: &TaskResult) -> String {
    let cause = match &r.cause {
        Some(c) => format!("\"{}\"", json_escape(c)),
        None => "null".into(),
    };
    format!(
        "{{\"event\":\"outcome\",\"t_ns\":{now},\"endpoint\":{},\"outcome\":\"{}\",\"cause\":{cause},\
         \"started_ns\":{},\"finished_ns\":{},\"connects\":{},\"failed_dials\":{},\"timeouts\":{},\
         \"replays\":{},\"detail\":{}}}",
        r.endpoint,
        r.outcome.as_str(),
        r.started_ns,
        r.finished_ns,
        r.stats.connects,
        r.stats.failed_dials,
        r.stats.timeouts,
        r.stats.replays,
        r.detail.to_json(),
    )
}

/// Build the aggregate summary record from the collected results.
pub fn summarize(name: &str, roster_size: usize, results: &[TaskResult], end_ns: u64) -> String {
    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut aborted = 0u64;
    let mut connects = 0u64;
    let mut failed_dials = 0u64;
    let mut timeouts = 0u64;
    let mut replays = 0u64;
    let mut latencies: Vec<u64> = Vec::new();
    for r in results {
        match r.outcome {
            Outcome::Completed => completed += 1,
            Outcome::Failed => failed += 1,
            Outcome::Aborted => aborted += 1,
        }
        connects += r.stats.connects as u64;
        failed_dials += r.stats.failed_dials as u64;
        timeouts += r.stats.timeouts as u64;
        replays += r.stats.replays as u64;
        if r.outcome == Outcome::Completed {
            latencies.push(r.finished_ns.saturating_sub(r.started_ns));
        }
    }
    latencies.sort_unstable();
    let buckets = pow2_buckets(&latencies)
        .into_iter()
        .map(|(b, c)| format!("[{b},{c}]"))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"event\":\"summary\",\"experiment\":\"{}\",\"roster\":{roster_size},\
         \"completed\":{completed},\"failed\":{failed},\"aborted\":{aborted},\
         \"connects\":{connects},\"failed_dials\":{failed_dials},\"timeouts\":{timeouts},\
         \"replays\":{replays},\"end_ns\":{end_ns},\
         \"latency_ns\":{{\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[{buckets}]}}}}",
        json_escape(name),
        percentile(&latencies, 50),
        percentile(&latencies, 90),
        percentile(&latencies, 99),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 90), 90);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(percentile(&[7], 50), 7);
        assert_eq!(percentile(&[], 99), 0);
    }

    #[test]
    fn buckets_are_pow2_and_sorted() {
        let b = pow2_buckets(&[1, 2, 3, 5, 9, 900]);
        assert_eq!(b, vec![(1, 1), (2, 1), (4, 1), (8, 1), (16, 1), (1024, 1)]);
    }

    #[test]
    fn seal_digest_is_stable() {
        let a = RunReport::seal(vec!["{\"e\":1}".into()], "{\"s\":2}".into());
        let b = RunReport::seal(vec!["{\"e\":1}".into()], "{\"s\":2}".into());
        assert_eq!(a.digest, b.digest);
        let c = RunReport::seal(vec!["{\"e\":1}".into()], "{\"s\":3}".into());
        assert_ne!(a.digest, c.digest);
    }

    #[test]
    fn json_seq_frames_records() {
        let r = RunReport::seal(vec!["{}".into(), "{}".into()], "{\"s\":1}".into());
        let seq = r.json_seq();
        let records: Vec<&[u8]> = seq
            .split(|&b| b == 0x1e)
            .filter(|s| !s.is_empty())
            .collect();
        assert_eq!(records.len(), 3);
        for rec in records {
            assert_eq!(*rec.last().unwrap(), b'\n');
        }
    }

    #[test]
    fn rotation_splits_event_files() {
        let dir = std::env::temp_dir().join(format!("plab-runner-report-{}", std::process::id()));
        let events: Vec<String> = (0..10).map(|i| format!("{{\"i\":{i}}}")).collect();
        let r = RunReport::seal(events, "{\"s\":1}".into());
        let paths = r.write_rotated(&dir, "run", 4).unwrap();
        // 10 events at 4/file -> 3 event files + 1 summary.
        assert_eq!(paths.len(), 4);
        let first = std::fs::read(&paths[0]).unwrap();
        assert_eq!(first.iter().filter(|&&b| b == 0x1e).count(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
