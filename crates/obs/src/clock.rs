//! The injectable clock: monotonic on real sockets and in production
//! metrics, virtual for in-process delivery and in tests.
//!
//! Everything in the workspace that needs "now" takes it from a
//! [`Clock`] rather than calling `Instant::now()` directly, and waits
//! on one rather than in `thread::sleep`, so chaos and latency tests
//! can drive time deterministically (clippy's `disallowed_methods`, set
//! in the instrumented crates' `clippy.toml`, enforces both there; this
//! module is the sanctioned wrapper).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonic time source reporting the elapsed time since its own
/// origin. Implementations must be monotone: successive `now()` calls
/// never go backwards.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Time elapsed since this clock's origin.
    fn now(&self) -> Duration;
}

/// Production clock: wall-clock monotonic time via `Instant`, anchored
/// at construction.
#[derive(Debug, Clone)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose origin is "now".
    pub fn new() -> Self {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }
}

/// Logical clock: time advances only when told to, in whole
/// nanoseconds. Monotone by construction — there is no way to move it
/// backwards. In-process delivery waits on one, and tests drive
/// clusters on one.
#[derive(Debug, Default)]
pub struct VirtualClock {
    nanos: AtomicU64,
}

impl VirtualClock {
    /// A virtual clock starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance the clock by `d` (saturating at `u64::MAX` nanoseconds).
    pub fn advance(&self, d: Duration) {
        let add = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let mut cur = self.nanos.load(Ordering::Relaxed); // audit:ordering(Relaxed): CAS loop seed read; any stale value is corrected by the retry
        loop {
            let next = cur.saturating_add(add);
            match self
                .nanos
                .compare_exchange(cur, next, Ordering::Relaxed, Ordering::Relaxed) // audit:ordering(Relaxed): monotone CAS on a single cell; RMW atomicity suffices, saturating_add keeps it monotone
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed)) // audit:ordering(Relaxed): virtual time read; single-cell coherence already forbids a thread seeing time go backwards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn monotonic_clock_never_goes_backwards() {
        let c = MonotonicClock::new();
        let mut last = c.now();
        for _ in 0..1000 {
            let t = c.now();
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn virtual_clock_advances_exactly() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), Duration::ZERO);
        c.advance(Duration::from_millis(5));
        assert_eq!(c.now(), Duration::from_millis(5));
        c.advance(Duration::from_nanos(3));
        assert_eq!(c.now(), Duration::from_nanos(5_000_003));
    }

    #[test]
    fn virtual_clock_saturates_instead_of_wrapping() {
        let c = VirtualClock::new();
        c.advance(Duration::from_nanos(u64::MAX));
        c.advance(Duration::from_secs(1));
        assert_eq!(c.now(), Duration::from_nanos(u64::MAX));
    }

    #[test]
    fn clock_is_object_safe_and_shareable() {
        let c: Arc<dyn Clock> = Arc::new(VirtualClock::new());
        let c2 = c.clone();
        assert_eq!(c.now(), c2.now());
    }
}
