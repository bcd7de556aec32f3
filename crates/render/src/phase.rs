//! Side-band phase tracing for the render hot path.
//!
//! The renderer cannot take a `&Telemetry` handle — `splatonic-telemetry`
//! depends on this crate (it exports [`crate::trace::RenderTrace`]
//! counters), so the dependency would be circular, and the telemetry handle
//! is `!Sync` anyway. Instead the pipelines record *phase events* into a
//! gated process-global buffer on the shared
//! [`splatonic_math::timebase`] clock; the telemetry crate's Chrome trace
//! export drains the buffer by cursor and merges the phases onto the same
//! timeline as the spans and the pool lanes.
//!
//! Phases are trace-export-only: they never enter the span aggregate table
//! of a `RunReport`, so enabling tracing cannot perturb the
//! `scripts/bench_baseline.json` comparison. When the gate is off (the
//! default) a [`PhaseGuard`] costs one relaxed atomic load.

use splatonic_math::timebase;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// One recorded render phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseEvent {
    /// Static phase name, `render/`-prefixed (e.g. `render/discover`).
    pub name: &'static str,
    /// Trace lane of the recording thread.
    pub lane: u32,
    /// Run/session id ambient on the recording thread when the phase ended
    /// ([`timebase::run_id`]; 0 when no session scope is active).
    pub run: u32,
    /// Start, nanoseconds on [`timebase::monotonic_ns`].
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Upper bound on buffered events; past it new phases are dropped so
/// tracing cannot grow memory without bound.
const MAX_PHASE_EVENTS: usize = 1 << 20;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EVENTS: Mutex<Vec<PhaseEvent>> = Mutex::new(Vec::new());

/// Enables or disables phase capture (process-global).
pub fn enable(on: bool) {
    ENABLED.store(on, Ordering::Release);
}

/// Whether phase capture is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Current buffer length; bracket a window with a cursor and
/// [`events_since`] to read only your events.
pub fn cursor() -> usize {
    EVENTS.lock().expect("phase trace lock").len()
}

/// Copies the events recorded since `cursor` (a prior [`cursor`] call).
pub fn events_since(cursor: usize) -> Vec<PhaseEvent> {
    let events = EVENTS.lock().expect("phase trace lock");
    events.get(cursor..).map_or_else(Vec::new, <[_]>::to_vec)
}

/// Starts a phase; the returned guard records on drop. No-op (one atomic
/// load) while capture is disabled.
#[must_use = "dropping the guard immediately records a ~0 ns phase"]
pub fn begin(name: &'static str) -> PhaseGuard {
    if enabled() {
        PhaseGuard {
            live: Some((name, timebase::monotonic_ns())),
        }
    } else {
        PhaseGuard { live: None }
    }
}

/// RAII guard recording one [`PhaseEvent`] on drop.
pub struct PhaseGuard {
    live: Option<(&'static str, u64)>,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some((name, start_ns)) = self.live.take() {
            let dur_ns = timebase::monotonic_ns().saturating_sub(start_ns);
            let mut events = EVENTS.lock().expect("phase trace lock");
            if events.len() < MAX_PHASE_EVENTS {
                events.push(PhaseEvent {
                    name,
                    lane: timebase::lane_id(),
                    run: timebase::run_id(),
                    start_ns,
                    dur_ns,
                });
            }
        }
    }
}

#[cfg(test)]
/// Serializes the crate's tests that toggle the process-global capture gate.
pub(crate) static GATE_TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_records_only_while_enabled() {
        let _serial = GATE_TEST_LOCK.lock().unwrap();
        // Disabled path: guard must be free and record nothing from here.
        {
            let _g = begin("render/unit_disabled");
        }
        assert!(
            !events_since(0)
                .iter()
                .any(|e| e.name == "render/unit_disabled"),
            "disabled guard must not record"
        );

        enable(true);
        let cursor = cursor();
        {
            let _g = begin("render/unit_enabled");
        }
        let events = events_since(cursor);
        enable(false);
        let e = events
            .iter()
            .find(|e| e.name == "render/unit_enabled")
            .expect("enabled guard records");
        assert!(e.lane >= 1);
    }

    #[test]
    fn scoped_drain_filters_by_run_id() {
        let _serial = GATE_TEST_LOCK.lock().unwrap();
        enable(true);
        let cursor = cursor();
        {
            let _scope = timebase::run_scope(8801);
            let _g = begin("render/unit_run_a");
        }
        {
            let _scope = timebase::run_scope(8802);
            let _g = begin("render/unit_run_b");
        }
        let events = events_since(cursor);
        enable(false);
        let for_run = |run: u32| -> Vec<PhaseEvent> {
            events.iter().filter(|e| e.run == run).copied().collect()
        };
        let (only_a, only_b) = (for_run(8801), for_run(8802));

        assert!(only_a.iter().any(|e| e.name == "render/unit_run_a"));
        assert!(only_a.iter().all(|e| e.run == 8801));
        assert!(only_b.iter().any(|e| e.name == "render/unit_run_b"));
        assert!(only_b.iter().all(|e| e.run == 8802));
    }
}
