//! Scheduler configuration: concurrency cap, the token-bucket launch rate
//! limit, retry/backoff budget, and deadlines.

use packetlab::controller::robust::RetryPolicy;

/// A token-bucket rate limit. `rate_per_sec == 0` means unlimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimit {
    /// Sustained rate, tokens per virtual second. 0 disables the limit.
    pub rate_per_sec: u64,
    /// Burst size, tokens. Clamped to at least 1.
    pub burst: u64,
}

impl RateLimit {
    /// An unlimited rate (bucket always full).
    pub const UNLIMITED: RateLimit = RateLimit {
        rate_per_sec: 0,
        burst: 1,
    };

    /// A limit of `rate_per_sec` with burst `burst`.
    pub fn per_sec(rate_per_sec: u64, burst: u64) -> RateLimit {
        RateLimit {
            rate_per_sec,
            burst,
        }
    }
}

/// Everything the fleet scheduler needs besides the spec and the roster.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Maximum experiments in flight at once. `run_fleet` rejects 0.
    pub max_concurrency: usize,
    /// Global launch rate limit: how fast new experiments may start.
    pub launch: RateLimit,
    /// Retry/backoff budget handed to each task's `RobustController`.
    pub retry: RetryPolicy,
    /// Abort the whole run at this virtual time if tasks are still
    /// outstanding. `None` runs until the fleet drains.
    pub fleet_deadline_ns: Option<u64>,
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            max_concurrency: 64,
            launch: RateLimit::UNLIMITED,
            retry: RetryPolicy::default(),
            fleet_deadline_ns: None,
        }
    }
}

/// Integer token bucket over virtual time. Levels are tracked in
/// nano-tokens so that 1 token/sec refills exactly 1 nano-token per
/// nanosecond — no floating point, so replays are bit-exact.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_per_sec: u64,
    capacity_nano: u64,
    level_nano: u64,
    last_refill: u64,
}

const NANO: u64 = 1_000_000_000;

impl TokenBucket {
    /// A bucket implementing `limit`, full at virtual time `now`.
    pub fn new(limit: RateLimit, now: u64) -> TokenBucket {
        let capacity_nano = limit.burst.max(1).saturating_mul(NANO);
        TokenBucket {
            rate_per_sec: limit.rate_per_sec,
            capacity_nano,
            level_nano: capacity_nano,
            last_refill: now,
        }
    }

    fn refill(&mut self, now: u64) {
        if now <= self.last_refill {
            return;
        }
        let dt = now - self.last_refill;
        self.last_refill = now;
        // 1 token/sec == 1 nano-token/ns, so rate * dt_ns is exact.
        self.level_nano = self
            .level_nano
            .saturating_add(self.rate_per_sec.saturating_mul(dt))
            .min(self.capacity_nano);
    }

    /// Take one token at virtual time `now` if available.
    pub fn try_take(&mut self, now: u64) -> bool {
        if self.rate_per_sec == 0 {
            return true;
        }
        self.refill(now);
        if self.level_nano >= NANO {
            self.level_nano -= NANO;
            true
        } else {
            false
        }
    }

    /// Earliest virtual time at or after `now` when a token will be
    /// available. Returns `now` itself when one already is.
    pub fn next_ready(&mut self, now: u64) -> u64 {
        if self.rate_per_sec == 0 {
            return now;
        }
        self.refill(now);
        if self.level_nano >= NANO {
            return now;
        }
        let deficit = NANO - self.level_nano;
        now + deficit.div_ceil(self.rate_per_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_enforces_rate_and_burst() {
        let mut b = TokenBucket::new(RateLimit::per_sec(2, 3), 0);
        // Burst of 3 available immediately.
        assert!(b.try_take(0));
        assert!(b.try_take(0));
        assert!(b.try_take(0));
        assert!(!b.try_take(0));
        // 2/sec: next token exactly 500 ms out.
        assert_eq!(b.next_ready(0), 500_000_000);
        assert!(!b.try_take(499_999_999));
        assert!(b.try_take(500_000_000));
        assert!(!b.try_take(500_000_000));
    }

    #[test]
    fn bucket_caps_at_burst_after_idle() {
        let mut b = TokenBucket::new(RateLimit::per_sec(1000, 2), 0);
        assert!(b.try_take(0));
        assert!(b.try_take(0));
        // A long idle period refills to burst, not beyond.
        assert!(b.try_take(1_000 * NANO));
        assert!(b.try_take(1_000 * NANO));
        assert!(!b.try_take(1_000 * NANO));
    }

    #[test]
    fn unlimited_never_blocks() {
        let mut b = TokenBucket::new(RateLimit::UNLIMITED, 0);
        for _ in 0..10_000 {
            assert!(b.try_take(0));
        }
        assert_eq!(b.next_ready(0), 0);
    }
}
