//! The retry policy behind [`Client`](crate::Client): bounded attempts,
//! jittered exponential backoff and a per-request deadline.
//!
//! Which failures retry, and what happens to the connection after each
//! kind, is described on the [`client`](crate::client) module.
//!
//! # Backoff
//!
//! Attempt `k` (0-based) sleeps a uniformly jittered duration in
//! `[base·2ᵏ/2, base·2ᵏ]`, capped by `max_backoff` and by whatever
//! remains of the per-request deadline. Jitter comes from the in-repo
//! PRNG seeded per client, so a seeded harness replays identical retry
//! timing.

use crate::client::ClientError;
use crate::wire::ErrorCode;
use std::time::{Duration, Instant};

/// Retry/deadline policy for a [`Client`](crate::Client).
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per request (first try included); minimum 1.
    pub attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Upper bound on a single backoff sleep.
    pub max_backoff: Duration,
    /// Wall-clock budget per logical request across all attempts and
    /// backoff sleeps; `None` leaves only the socket timeouts in charge.
    pub deadline: Option<Duration>,
    /// Seed for the jitter PRNG (deterministic retry timing per client).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 3,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            deadline: Some(Duration::from_secs(60)),
            seed: 0x0001_0051_1E47,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (single attempt, no deadline).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            attempts: 1,
            deadline: None,
            ..RetryPolicy::default()
        }
    }

    /// After `attempt` failures of a request begun at `started`: sleeps
    /// the jittered backoff and returns `true` to continue, or records a
    /// giveup and returns `false` when the attempt budget or deadline is
    /// spent.
    pub(crate) fn backoff_or_give_up(
        &self,
        rng: &mut fpc_prng::Rng,
        attempt: u32,
        started: Instant,
    ) -> bool {
        if attempt >= self.attempts.max(1) {
            fpc_metrics::incr(fpc_metrics::Counter::RemoteRetryGiveups, 1);
            return false;
        }
        let remaining = match self.deadline {
            Some(deadline) => match deadline.checked_sub(started.elapsed()) {
                Some(rest) if !rest.is_zero() => Some(rest),
                _ => {
                    fpc_metrics::incr(fpc_metrics::Counter::RemoteRetryGiveups, 1);
                    return false;
                }
            },
            None => None,
        };
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.max_backoff);
        // Full jitter over [exp/2, exp) so synchronized clients desync.
        let nanos = exp.as_nanos().min(u128::from(u64::MAX)) as u64;
        let low = nanos / 2;
        let jittered = Duration::from_nanos(rng.gen_range(low..nanos.max(low + 1)));
        let sleep = match remaining {
            // A backoff that consumes the entire remaining budget leaves no
            // time for the retry it precedes: the next attempt would start
            // at (or past) the deadline and only extend the caller's wait by
            // a doomed socket round-trip. Fail fast with the deadline error
            // instead of sleeping the budget away.
            Some(rest) if jittered >= rest => {
                fpc_metrics::incr(fpc_metrics::Counter::RemoteRetryGiveups, 1);
                return false;
            }
            _ => jittered,
        };
        fpc_metrics::incr(fpc_metrics::Counter::RemoteRetryAttempts, 1);
        fpc_metrics::incr(
            fpc_metrics::Counter::RemoteRetryBackoffNanos,
            sleep.as_nanos().min(u128::from(u64::MAX)) as u64,
        );
        std::thread::sleep(sleep);
        true
    }
}

/// `true` when retrying `err` on a fresh attempt could plausibly succeed.
pub fn is_transient(err: &ClientError) -> bool {
    match err {
        ClientError::Io(_) => true,
        // The reply stream desynced; the request itself may be fine on a
        // clean connection (idempotency makes the re-send safe).
        ClientError::Protocol(_) => true,
        ClientError::Remote(e) => {
            matches!(e.code, ErrorCode::Busy | ErrorCode::Timeout | ErrorCode::Io)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireError;
    use crate::Client;

    #[test]
    fn transience_classification_matches_the_contract() {
        let io = ClientError::Io(std::io::Error::other("x"));
        let proto = ClientError::Protocol("desync".into());
        assert!(is_transient(&io));
        assert!(is_transient(&proto));
        for code in [ErrorCode::Busy, ErrorCode::Timeout, ErrorCode::Io] {
            assert!(
                is_transient(&ClientError::Remote(WireError::new(code, ""))),
                "{} must be transient",
                code.name()
            );
        }
        for code in [
            ErrorCode::BadMagic,
            ErrorCode::UnsupportedVersion,
            ErrorCode::BadFrame,
            ErrorCode::FrameTooLarge,
            ErrorCode::PayloadTooLarge,
            ErrorCode::UnknownAlgorithm,
            ErrorCode::UnknownOp,
            ErrorCode::CorruptStream,
            ErrorCode::RangeOutOfBounds,
        ] {
            assert!(
                !is_transient(&ClientError::Remote(WireError::new(code, ""))),
                "{} must fail fast",
                code.name()
            );
        }
    }

    #[test]
    fn connect_gives_up_within_the_attempt_budget() {
        // A port from the TEST-NET-3 doc range refuses/filters quickly on
        // loopback-only CI hosts; more importantly the policy allows one
        // attempt, so this returns rather than looping.
        let policy = RetryPolicy {
            attempts: 1,
            deadline: Some(Duration::from_millis(500)),
            ..RetryPolicy::default()
        };
        Client::connect_with_policy("127.0.0.1:9", Some(Duration::from_millis(200)), policy)
            .err()
            .expect("nothing listens on the discard port");
    }

    #[test]
    fn backoff_never_sleeps_past_the_deadline() {
        // The backoff after the first failed attempt would be jittered
        // into [5s, 10s) — far beyond the 300ms deadline. The client must
        // fail fast instead of sleeping the budget away and then running
        // one more doomed attempt: total elapsed stays near the connect
        // timeout, nowhere near base_backoff.
        let policy = RetryPolicy {
            attempts: 5,
            base_backoff: Duration::from_secs(10),
            max_backoff: Duration::from_secs(10),
            deadline: Some(Duration::from_millis(300)),
            ..RetryPolicy::default()
        };
        let started = Instant::now();
        Client::connect_with_policy("127.0.0.1:9", Some(Duration::from_millis(100)), policy)
            .err()
            .expect("nothing listens on the discard port");
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(2),
            "deadline-bounded connect took {elapsed:?}; the backoff slept past the budget"
        );
    }
}
