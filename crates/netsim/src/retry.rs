//! Retry with exponential backoff, jitter, and a budget.
//!
//! Shared by the device firmware and the companion app so every procedure
//! of the binding life cycle (`Status`, `Bind`, `Unbind`) survives injected
//! faults instead of silently wedging on one lost packet. All jitter is
//! drawn from the simulation's [`SimRng`], so retry schedules are part of
//! the deterministic execution.

use crate::rng::SimRng;

/// Parameters of an exponential-backoff schedule.
///
/// Attempt `n` (0-based) waits `min(cap, base * 2^n + jitter)` ticks, where
/// `jitter` is drawn uniformly from `[0, delay * jitter_per_mille / 1000]`.
/// Because the jitter never exceeds the un-jittered delay (per-mille is
/// clamped to 1000), the schedule is monotone non-decreasing for any RNG
/// stream, and it is bounded by `cap`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Delay before the first retry.
    pub base: u64,
    /// Upper bound on any delay.
    pub cap: u64,
    /// Jitter amplitude as a fraction of the current delay, in per-mille
    /// (values above 1000 are treated as 1000 to keep the schedule
    /// monotone).
    pub jitter_per_mille: u16,
    /// Maximum number of retries before the caller should give up.
    pub budget: u32,
}

impl RetryPolicy {
    /// A policy with the given base and cap, moderate jitter (50%), and a
    /// budget of 16 retries.
    pub fn new(base: u64, cap: u64) -> Self {
        RetryPolicy {
            base: base.max(1),
            cap: cap.max(base.max(1)),
            jitter_per_mille: 500,
            budget: 16,
        }
    }

    /// Overrides the retry budget.
    pub fn budget(mut self, budget: u32) -> Self {
        self.budget = budget;
        self
    }

    /// Overrides the jitter amplitude.
    pub fn jitter(mut self, per_mille: u16) -> Self {
        self.jitter_per_mille = per_mille;
        self
    }

    /// The delay before retry `attempt` (0-based), with jitter drawn from
    /// `rng`.
    pub fn delay(&self, attempt: u32, rng: &mut SimRng) -> u64 {
        let shift = attempt.min(62);
        let raw = self
            .base
            .saturating_mul(1u64.checked_shl(shift).unwrap_or(u64::MAX))
            .min(self.cap);
        let amplitude = u64::from(self.jitter_per_mille.min(1000));
        let jitter_max = raw / 1000 * amplitude + raw % 1000 * amplitude / 1000;
        let jitter = if jitter_max > 0 {
            rng.range_u64(0, jitter_max)
        } else {
            0
        };
        raw.saturating_add(jitter).min(self.cap)
    }
}

/// Mutable retry state: an attempt counter against a [`RetryPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retry {
    policy: RetryPolicy,
    attempt: u32,
}

impl Retry {
    /// Fresh state (no retries consumed).
    pub fn new(policy: RetryPolicy) -> Self {
        Retry { policy, attempt: 0 }
    }

    /// The policy in force.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Retries consumed since the last reset.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Whether the budget is spent.
    pub fn exhausted(&self) -> bool {
        self.attempt >= self.policy.budget
    }

    /// Consumes one retry: returns the backoff delay to wait before the
    /// next send, or `None` when the budget is exhausted (the caller
    /// should cleanly abort rather than wedge).
    pub fn next(&mut self, rng: &mut SimRng) -> Option<u64> {
        if self.exhausted() {
            return None;
        }
        let delay = self.policy.delay(self.attempt, rng);
        self.attempt += 1;
        Some(delay)
    }

    /// Resets the attempt counter — call whenever the peer answers, so the
    /// budget only ever counts *consecutive* unanswered sends.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_monotone_and_capped() {
        let policy = RetryPolicy::new(100, 3_000).jitter(1000);
        for seed in 0..50 {
            let mut rng = SimRng::new(seed);
            let delays: Vec<u64> = (0..12).map(|n| policy.delay(n, &mut rng)).collect();
            for w in delays.windows(2) {
                assert!(w[0] <= w[1], "monotone: {delays:?}");
            }
            assert!(delays.iter().all(|&d| d <= 3_000), "capped: {delays:?}");
            assert!(delays[0] >= 100, "never below base");
        }
    }

    #[test]
    fn zero_jitter_is_pure_exponential() {
        let policy = RetryPolicy::new(10, 1_000).jitter(0);
        let mut rng = SimRng::new(1);
        let delays: Vec<u64> = (0..8).map(|n| policy.delay(n, &mut rng)).collect();
        assert_eq!(delays, vec![10, 20, 40, 80, 160, 320, 640, 1_000]);
    }

    #[test]
    fn budget_exhaustion_returns_none() {
        let mut retry = Retry::new(RetryPolicy::new(5, 50).budget(3));
        let mut rng = SimRng::new(2);
        assert!(retry.next(&mut rng).is_some());
        assert!(retry.next(&mut rng).is_some());
        assert!(retry.next(&mut rng).is_some());
        assert!(retry.exhausted());
        assert_eq!(retry.next(&mut rng), None);
        retry.reset();
        assert!(!retry.exhausted());
        assert!(retry.next(&mut rng).is_some());
        assert_eq!(retry.attempts(), 1);
    }

    #[test]
    fn huge_attempt_counts_do_not_overflow() {
        let policy = RetryPolicy::new(u64::MAX / 2, u64::MAX);
        let mut rng = SimRng::new(3);
        // Shift saturates, multiply saturates, delay stays at the cap.
        assert_eq!(policy.delay(200, &mut rng), u64::MAX);
    }

    #[test]
    fn same_seed_same_schedule() {
        let policy = RetryPolicy::new(100, 10_000);
        let run = |seed| {
            let mut rng = SimRng::new(seed);
            (0..10)
                .map(|n| policy.delay(n, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
    }
}
