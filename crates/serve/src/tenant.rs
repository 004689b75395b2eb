//! Per-tenant policy: quotas, fairness weight, queue bounds, and the
//! resilience knobs each tenant gets as *its own* configuration.
//!
//! The serving plane treats the PR 5 resilience machinery (retry budgets,
//! breaker thresholds, quarantine windows) as per-tenant policy rather
//! than global configuration: a tenant whose programs keep faulting trips
//! *its own* breakers on *its own* managers, and its neighbours never see
//! a quarantined variant they did not earn.

use adaptic::RetryPolicy;

/// Token-bucket admission quota, refilled from the server's microsecond
/// clock. `capacity` bounds the burst a tenant may land at once;
/// `refill_per_sec` bounds its sustained admission rate. A refill rate of
/// zero makes the bucket a fixed budget of `capacity` requests — handy
/// for deterministic tests.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    capacity: f64,
    refill_per_us: f64,
    tokens: f64,
    last_us: u64,
}

impl TokenBucket {
    /// A bucket starting full.
    pub fn new(capacity: f64, refill_per_sec: f64) -> TokenBucket {
        let capacity = capacity.max(0.0);
        TokenBucket {
            capacity,
            refill_per_us: (refill_per_sec / 1e6).max(0.0),
            tokens: capacity,
            last_us: 0,
        }
    }

    fn refill(&mut self, now_us: u64) {
        let elapsed = now_us.saturating_sub(self.last_us);
        self.last_us = self.last_us.max(now_us);
        self.tokens = (self.tokens + elapsed as f64 * self.refill_per_us).min(self.capacity);
    }

    /// Take one token if available. Monotone `now_us` values come from the
    /// server clock; a stale timestamp refills nothing and never refunds.
    pub fn try_take(&mut self, now_us: u64) -> bool {
        self.refill(now_us);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens currently available (after refilling to `now_us`).
    pub fn available(&mut self, now_us: u64) -> f64 {
        self.refill(now_us);
        self.tokens
    }
}

/// Everything the server needs to know about one tenant, set at
/// registration. The defaults are deliberately forgiving; overload tests
/// tighten them.
#[derive(Debug, Clone)]
pub struct TenantPolicy {
    /// Weighted-fair share of worker drain relative to other tenants.
    pub weight: f64,
    /// Bound on the tenant's FIFO; admission sheds past-deadline entries
    /// before rejecting `QueueFull`.
    pub queue_cap: usize,
    /// Token-bucket burst capacity (requests).
    pub burst: f64,
    /// Token-bucket sustained refill rate (requests/second); 0 freezes the
    /// bucket at `burst` total admissions.
    pub refill_per_sec: f64,
    /// Per-launch retry/backoff budget. The request deadline is folded in
    /// at dispatch: the effective watchdog is
    /// `min(retry.deadline_us, remaining_budget)` (0 meaning "unbounded"
    /// on either side).
    pub retry: RetryPolicy,
    /// Consecutive-failure threshold before a variant's breaker opens on
    /// this tenant's managers.
    pub quarantine_threshold: u32,
    /// Launches a quarantined variant sits out before a half-open probe.
    pub quarantine_window: u64,
    /// Allow identical `SampledExec` launches to coalesce onto another
    /// tenant's in-flight simulation.
    pub coalesce: bool,
}

impl Default for TenantPolicy {
    fn default() -> TenantPolicy {
        TenantPolicy {
            weight: 1.0,
            queue_cap: 32,
            burst: 64.0,
            refill_per_sec: 256.0,
            retry: RetryPolicy::default(),
            quarantine_threshold: 3,
            quarantine_window: 16,
            coalesce: true,
        }
    }
}

impl TenantPolicy {
    /// Set the weighted-fair drain share.
    pub fn with_weight(mut self, weight: f64) -> TenantPolicy {
        self.weight = weight.max(f64::MIN_POSITIVE);
        self
    }

    /// Bound the tenant FIFO.
    pub fn with_queue_cap(mut self, cap: usize) -> TenantPolicy {
        self.queue_cap = cap.max(1);
        self
    }

    /// Set the token-bucket quota: `burst` capacity, `per_sec` refill.
    pub fn with_quota(mut self, burst: f64, per_sec: f64) -> TenantPolicy {
        self.burst = burst;
        self.refill_per_sec = per_sec;
        self
    }

    /// Set the per-launch retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> TenantPolicy {
        self.retry = retry;
        self
    }

    /// Set breaker threshold and quarantine window for the tenant's
    /// managers.
    pub fn with_quarantine(mut self, threshold: u32, window: u64) -> TenantPolicy {
        self.quarantine_threshold = threshold;
        self.quarantine_window = window;
        self
    }

    /// Opt out of cross-tenant request coalescing.
    pub fn without_coalescing(mut self) -> TenantPolicy {
        self.coalesce = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_burst_and_rate() {
        let mut b = TokenBucket::new(2.0, 1_000_000.0); // 1 token/µs
        assert!(b.try_take(0));
        assert!(b.try_take(0));
        assert!(!b.try_take(0), "burst capacity spent");
        assert!(b.try_take(1), "one µs refills one token");
        // Refill never exceeds capacity.
        assert!((b.available(1_000) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_refill_is_a_fixed_budget() {
        let mut b = TokenBucket::new(3.0, 0.0);
        for _ in 0..3 {
            assert!(b.try_take(u64::MAX / 2));
        }
        assert!(!b.try_take(u64::MAX), "no refill, ever");
    }

    #[test]
    fn stale_timestamps_never_refund() {
        let mut b = TokenBucket::new(1.0, 1_000_000.0);
        assert!(b.try_take(100));
        // A clock echo from the past must not mint tokens.
        assert!(!b.try_take(100));
        assert!(!b.try_take(99));
    }
}
