//! Time sources for span timing.
//!
//! Production telemetry stamps spans on the process-wide monotonic clock
//! ([`splatonic_math::timebase::monotonic_ns`]) so merged traces line up
//! across subsystems. Tests instead inject a [`TestClock`] — a manually
//! advanced nanosecond counter — so span durations, nesting windows, and
//! span totals are exact and assertable.

use splatonic_math::timebase;
use std::cell::Cell;
use std::rc::Rc;

/// A manually-advanced monotonic clock for deterministic telemetry tests.
///
/// Cloning shares the underlying counter (the telemetry handle holds one
/// clone, the test the other), and the handle is `!Sync` like
/// [`crate::Telemetry`] itself.
///
/// ```
/// use splatonic_telemetry::TestClock;
/// let clock = TestClock::new();
/// clock.advance_ns(250);
/// assert_eq!(clock.now_ns(), 250);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TestClock(Rc<Cell<u64>>);

impl TestClock {
    /// A clock starting at 0 ns.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `ns` nanoseconds.
    pub fn advance_ns(&self, ns: u64) {
        self.0.set(self.0.get().saturating_add(ns));
    }

    /// Sets the clock to an absolute value (must not move backwards in
    /// sane tests; the clock itself does not enforce monotonicity).
    pub fn set_ns(&self, ns: u64) {
        self.0.set(ns);
    }

    /// Current reading in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.0.get()
    }
}

/// The time source a [`crate::Telemetry`] handle stamps spans with.
#[derive(Debug, Clone, Default)]
pub(crate) enum Clock {
    /// The shared process-wide monotonic clock (production).
    #[default]
    Monotonic,
    /// An injected manual clock (tests).
    Test(TestClock),
}

impl Clock {
    pub(crate) fn now_ns(&self) -> u64 {
        match self {
            Clock::Monotonic => timebase::monotonic_ns(),
            Clock::Test(c) => c.now_ns(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_clock_advances_and_shares_state() {
        let a = TestClock::new();
        let b = a.clone();
        a.advance_ns(100);
        b.advance_ns(50);
        assert_eq!(a.now_ns(), 150);
        a.set_ns(7);
        assert_eq!(b.now_ns(), 7);
    }

    #[test]
    fn monotonic_clock_never_goes_backwards() {
        let c = Clock::Monotonic;
        let t0 = c.now_ns();
        assert!(c.now_ns() >= t0);
    }
}
