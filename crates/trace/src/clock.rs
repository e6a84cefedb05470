//! The time source behind every latency measurement.
//!
//! The bench stack models device time (`sim_io_us`) instead of sleeping, so
//! a wall clock would read near-zero for every operation and — worse —
//! would make two identical runs produce different snapshots.  The trace
//! layer therefore times everything against a [`TraceClock`]: a microsecond
//! counter advanced explicitly by the instrumented device as it models I/O
//! cost.  Deterministic: identical runs read identical timestamps.
//!
//! Code records `now_us()` before an operation and the delta after it; the
//! delta is exactly the modeled device cost of that operation.  (Wall-clock
//! time is `rgpdbench`'s business: it wraps the store in its own spans.)

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A simulated microsecond clock, advanced by the device model.
#[derive(Debug, Default)]
pub struct TraceClock(AtomicU64);

impl TraceClock {
    /// A simulated clock starting at 0 µs.
    pub fn sim() -> Arc<Self> {
        Arc::default()
    }

    /// Current reading in microseconds.
    pub fn now_us(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Advances the clock.
    pub fn advance_us(&self, us: u64) {
        self.0.fetch_add(us, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_clock_is_explicit() {
        let c = TraceClock::sim();
        assert_eq!(c.now_us(), 0);
        c.advance_us(30);
        c.advance_us(12);
        assert_eq!(c.now_us(), 42);
    }
}
