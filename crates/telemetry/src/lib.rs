//! Dependency-free telemetry for the SPLATONIC suite.
//!
//! One [`Telemetry`] handle carries everything an instrumented run records:
//!
//! * **Spans** — RAII wall-clock timers ([`Telemetry::span`]) that nest; a
//!   guard created while another is live records under the `/`-joined path
//!   (`tracking/forward`). Each path keeps count/total/mean/min/max
//!   ([`Summary`]) in O(1) memory. Every completed guard additionally emits one
//!   hierarchical [`SpanEvent`] carrying its parent span id, trace lane,
//!   and window on the shared monotonic timebase
//!   ([`splatonic_math::timebase`]).
//! * **Counters and gauges** — monotonic `u64` counters and point-in-time
//!   `f64` gauges, named `subsystem/name` ([`validate_metric_name`]).
//!   [`Telemetry::record_trace`] exports every field of a renderer
//!   [`RenderTrace`] as counters (exhaustively destructured, so a new trace
//!   field is a compile error here until it is exported).
//! * **Frames** — per-frame SLAM records ([`FrameRecord`]) forming the
//!   accuracy/workload trajectory of a run; the report derives its exact
//!   nearest-rank track/map latency quantiles from them
//!   ([`RunReport::latency`]).
//! * **Reports** — [`Telemetry::finish`] snapshots everything into a
//!   [`RunReport`] that serializes to JSON ([`json::Json`]) or renders as
//!   aligned text.
//! * **Exports** — [`Telemetry::write_chrome_trace`] merges span events
//!   with the pool and render-phase side-band buffers into a
//!   Perfetto-loadable Chrome trace ([`trace::TraceSession`]);
//!   [`Telemetry::stream_events_to`] attaches an incrementally-flushed
//!   JSONL event stream a live run can tail.
//!
//! The handle is deliberately cheap to thread everywhere: a disabled handle
//! ([`Telemetry::disabled`]) holds no state and every operation on it —
//! including [`Telemetry::span`] — returns without allocating, so hot render
//! loops can take `&Telemetry` unconditionally.
//!
//! Timings are wall-clock and therefore non-deterministic; they stay
//! outside the snapshot fingerprint and the bit-exactness suites
//! (DESIGN.md §14). Everything here is hand-rolled on `std` only: the
//! suite builds offline, so no `tracing`, no `serde` (DESIGN.md
//! "Telemetry & run reports").

// Every public item must carry a doc comment; config knobs additionally
// document their default and bit-exactness contract (DESIGN.md §13).
#![warn(missing_docs)]

pub mod clock;
pub mod event;
pub mod frame;
pub mod json;
pub mod report;
pub mod trace;

pub use clock::TestClock;
pub use event::SpanEvent;
pub use frame::FrameRecord;
pub use json::Json;
pub use report::{utc_date, AccuracySummary, LatencyQuantiles, RunReport};
pub use trace::TraceSession;

use clock::Clock;
use event::EventSink;
use splatonic_math::stats::Summary;
use splatonic_math::{pool, timebase};
use splatonic_render::trace::{BackwardStats, ForwardStats, RenderTrace};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Upper bound on retained [`SpanEvent`]s per handle; beyond it events are
/// dropped (aggregates still record) so long runs stay bounded.
const MAX_SPAN_EVENTS: usize = 1 << 20;

#[derive(Debug, Default)]
struct Inner {
    /// Live span names, innermost last; joined with `/` to form paths.
    stack: Vec<String>,
    /// Ids of all open spans (including flat ones), innermost last —
    /// the parent-attribution stack for hierarchical events.
    event_stack: Vec<u32>,
    spans: BTreeMap<String, Summary>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    frames: Vec<FrameRecord>,
    /// Completed hierarchical span events, in completion order.
    events: Vec<SpanEvent>,
    next_event_id: u32,
    events_dropped: u64,
    clock: Clock,
    /// Attached JSONL event stream, if any.
    sink: Option<EventSink>,
}

/// Telemetry sink for one run.
///
/// Not `Sync`; each run owns its handle (the suite is single-threaded by
/// design — determinism first, see DESIGN.md).
#[derive(Debug, Default)]
pub struct Telemetry {
    /// `None` = disabled: every method is a no-op and allocates nothing.
    inner: Option<RefCell<Inner>>,
}

impl Telemetry {
    /// An enabled, empty telemetry sink.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(RefCell::new(Inner::default())),
        }
    }

    /// An enabled sink stamping spans on an injected [`TestClock`] instead
    /// of the process monotonic clock — nesting windows, durations, and
    /// span totals become exact and assertable in tests.
    pub fn with_clock(clock: TestClock) -> Self {
        Telemetry {
            inner: Some(RefCell::new(Inner {
                clock: Clock::Test(clock),
                ..Inner::default()
            })),
        }
    }

    /// A disabled sink: all operations no-op without allocating.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Whether this sink records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Starts a timed span. The returned guard records elapsed wall-clock
    /// milliseconds under the current nesting path when dropped.
    ///
    /// ```
    /// let t = splatonic_telemetry::Telemetry::enabled();
    /// {
    ///     let _outer = t.span("tracking");
    ///     let _inner = t.span("forward"); // records as "tracking/forward"
    /// }
    /// let report = t.finish("doc", Default::default());
    /// assert!(report.spans.iter().any(|(p, _)| p == "tracking/forward"));
    /// ```
    #[must_use = "dropping the guard immediately records a ~0 ms span"]
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        self.span_impl(name, false)
    }

    /// Starts a timed span that aggregates under the **verbatim** `name`,
    /// without joining (or extending) the nesting path.
    ///
    /// Spans opened while a flat span is live keep their own paths —
    /// `span_flat("frame")` wrapping `span("tracking")` still aggregates
    /// the inner one as `"tracking"`, keeping report span paths stable —
    /// but the hierarchical [`SpanEvent`]s do record the flat span as the
    /// parent, so trace exports show the true tree.
    #[must_use = "dropping the guard immediately records a ~0 ms span"]
    pub fn span_flat(&self, name: &str) -> SpanGuard<'_> {
        self.span_impl(name, true)
    }

    fn span_impl(&self, name: &str, flat: bool) -> SpanGuard<'_> {
        let Some(cell) = &self.inner else {
            return SpanGuard { live: None };
        };
        let mut inner = cell.borrow_mut();
        let path = if flat {
            name.to_string()
        } else {
            inner.stack.push(name.to_string());
            inner.stack.join("/")
        };
        let id = inner.next_event_id;
        inner.next_event_id += 1;
        let parent = inner.event_stack.last().copied();
        inner.event_stack.push(id);
        let start_ns = inner.clock.now_ns();
        drop(inner);
        SpanGuard {
            live: Some(LiveSpan {
                telemetry: self,
                path,
                name: name.to_string(),
                id,
                parent,
                flat,
                lane: timebase::lane_id(),
                run: timebase::run_id(),
                start_ns,
            }),
        }
    }

    /// Adds `delta` to the named monotonic counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(cell) = &self.inner {
            let mut inner = cell.borrow_mut();
            *inner.counters.entry(name.to_string()).or_insert(0) += delta;
        }
    }

    /// Sets the named gauge to `value` (last write wins).
    pub fn gauge_set(&self, name: &str, value: f64) {
        if let Some(cell) = &self.inner {
            cell.borrow_mut().gauges.insert(name.to_string(), value);
        }
    }

    /// Appends one per-frame SLAM record (also streamed to an attached
    /// JSONL sink).
    pub fn record_frame(&self, record: FrameRecord) {
        if let Some(cell) = &self.inner {
            let mut inner = cell.borrow_mut();
            if let Some(sink) = &mut inner.sink {
                sink.frame(&record);
            }
            inner.frames.push(record);
        }
    }

    /// Records one externally-measured duration under `path`, without
    /// touching the live span stack.
    ///
    /// Used to import measurements the RAII guards cannot take themselves —
    /// e.g. per-worker busy time from the render worker pool, whose threads
    /// never see this (`!Sync`) handle.
    pub fn record_span_ms(&self, path: &str, ms: f64) {
        if let Some(cell) = &self.inner {
            cell.borrow_mut()
                .spans
                .entry(path.to_string())
                .or_default()
                .push(ms);
        }
    }

    /// Imports the render worker pool's per-worker activity since `before`
    /// (a [`pool::worker_stats_snapshot`] taken earlier) as one
    /// `pool/worker<i>` span sample per worker that was busy.
    ///
    /// The pool registry is process-global and monotonic, so callers bracket
    /// the window of interest with a snapshot and this call. A run made of
    /// several windows (one per SLAM frame) records one sample per busy
    /// window, so each worker's span `total_ms` is its time in this run
    /// even when other runs interleave between the windows.
    pub fn record_pool_workers(&self, before: &[pool::WorkerStats]) {
        if self.inner.is_none() {
            return;
        }
        for w in pool::worker_stats_snapshot() {
            let prev = before.iter().find(|b| b.worker == w.worker);
            let busy_ms = w.busy_ms - prev.map_or(0.0, |b| b.busy_ms);
            if busy_ms > 0.0 {
                self.record_span_ms(&format!("pool/worker{}", w.worker), busy_ms);
            }
        }
    }

    /// Exports every counter of a render trace under `prefix` (e.g.
    /// `tracking`), plus derived utilization/contention gauges.
    ///
    /// The destructuring below is deliberately exhaustive (no `..`): adding a
    /// field to [`ForwardStats`] or [`BackwardStats`] fails compilation here
    /// until the new counter is exported — the same drift-proofing contract
    /// as [`RenderTrace::merge`].
    pub fn record_trace(&self, prefix: &str, trace: &RenderTrace) {
        if self.inner.is_none() {
            return;
        }
        let RenderTrace { forward, backward } = trace;

        let ForwardStats {
            gaussians_input,
            gaussians_culled,
            gaussians_projected,
            tile_pairs,
            proj_alpha_checks,
            bin_candidates,
            proj_pairs_kept,
            sort_elems,
            sort_lists,
            sort_group_reuse,
            raster_alpha_checks,
            pairs_integrated,
            pixels_shaded,
            exp_evals,
            warp_steps,
            warp_active,
            pixel_list_len,
            bytes_read,
            bytes_written,
        } = forward;
        let fwd = [
            ("gaussians_input", *gaussians_input),
            ("gaussians_culled", *gaussians_culled),
            ("gaussians_projected", *gaussians_projected),
            ("tile_pairs", *tile_pairs),
            ("proj_alpha_checks", *proj_alpha_checks),
            ("bin_candidates", *bin_candidates),
            ("proj_pairs_kept", *proj_pairs_kept),
            ("sort_elems", *sort_elems),
            ("sort_lists", *sort_lists),
            ("sort_group_reuse", *sort_group_reuse),
            ("raster_alpha_checks", *raster_alpha_checks),
            ("pairs_integrated", *pairs_integrated),
            ("pixels_shaded", *pixels_shaded),
            ("exp_evals", *exp_evals),
            ("warp_steps", *warp_steps),
            ("warp_active", *warp_active),
            ("bytes_read", *bytes_read),
            ("bytes_written", *bytes_written),
        ];
        for (name, value) in fwd {
            self.counter_add(&format!("{prefix}/forward/{name}"), value);
        }
        self.gauge_set(
            &format!("{prefix}/forward/pixel_list_len_mean"),
            pixel_list_len.mean(),
        );
        self.gauge_set(
            &format!("{prefix}/forward/warp_utilization"),
            forward.warp_utilization(),
        );

        let BackwardStats {
            alpha_checks,
            pairs_grad,
            reduction_ops,
            atomic_adds,
            exp_evals,
            warp_steps,
            warp_active,
            gaussian_touches,
            gaussians_touched,
            reprojections,
            bytes_read,
            bytes_written,
        } = backward;
        let bwd = [
            ("alpha_checks", *alpha_checks),
            ("pairs_grad", *pairs_grad),
            ("reduction_ops", *reduction_ops),
            ("atomic_adds", *atomic_adds),
            ("exp_evals", *exp_evals),
            ("warp_steps", *warp_steps),
            ("warp_active", *warp_active),
            ("gaussians_touched", *gaussians_touched),
            ("reprojections", *reprojections),
            ("bytes_read", *bytes_read),
            ("bytes_written", *bytes_written),
        ];
        for (name, value) in bwd {
            self.counter_add(&format!("{prefix}/backward/{name}"), value);
        }
        self.gauge_set(
            &format!("{prefix}/backward/mean_contention"),
            gaussian_touches.mean(),
        );
        self.gauge_set(
            &format!("{prefix}/backward/warp_utilization"),
            backward.warp_utilization(),
        );
    }

    /// Snapshots everything recorded so far into a [`RunReport`]; its
    /// per-frame latency quantiles come from the copied frame records
    /// ([`RunReport::latency`]).
    ///
    /// The handle stays usable afterwards (the report is a copy), so a
    /// caller can emit intermediate reports from a long run. If a JSONL
    /// stream is attached, counter/gauge totals and a `run_end` record are
    /// written on every `finish` call.
    pub fn finish(&self, name: &str, accuracy: AccuracySummary) -> RunReport {
        let unix_time = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let mut report = RunReport {
            name: name.to_string(),
            date: utc_date(unix_time),
            unix_time,
            frames: Vec::new(),
            spans: Vec::new(),
            counters: Vec::new(),
            gauges: Vec::new(),
            accuracy,
        };
        if let Some(cell) = &self.inner {
            let mut inner = cell.borrow_mut();
            report.frames = inner.frames.clone();
            report.spans = inner.spans.iter().map(|(k, v)| (k.clone(), *v)).collect();
            report.counters = inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect();
            report.gauges = inner.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect();

            let counters: Vec<(String, u64)> = report.counters.clone();
            let gauges: Vec<(String, f64)> = report.gauges.clone();
            let end_ns = inner.clock.now_ns();
            if let Some(sink) = &mut inner.sink {
                for (k, v) in &counters {
                    sink.counter(k, *v);
                }
                for (k, v) in &gauges {
                    sink.gauge(k, *v);
                }
                sink.run_end(name, end_ns);
            }
        }
        report
    }

    fn end_span(&self, live: LiveSpan<'_>) {
        if let Some(cell) = &self.inner {
            let mut inner = cell.borrow_mut();
            let dur_ns = inner.clock.now_ns().saturating_sub(live.start_ns);
            if !live.flat {
                inner.stack.pop();
            }
            inner.event_stack.pop();
            inner
                .spans
                .entry(live.path.clone())
                .or_default()
                .push(dur_ns as f64 / 1e6);
            let event = SpanEvent {
                id: live.id,
                parent: live.parent,
                path: live.path,
                name: live.name,
                lane: live.lane,
                run: live.run,
                start_ns: live.start_ns,
                dur_ns,
            };
            if let Some(sink) = &mut inner.sink {
                sink.span(&event);
            }
            if inner.events.len() < MAX_SPAN_EVENTS {
                inner.events.push(event);
            } else {
                inner.events_dropped += 1;
            }
        }
    }

    /// Attaches an incrementally-flushed JSONL event stream: a `run_start`
    /// record immediately, one record per completed span and frame as they
    /// happen, and counter/gauge totals plus `run_end` at
    /// [`Telemetry::finish`]. Each record is one compact JSON object per
    /// line, flushed as written, so `tail -f` on the file follows the run
    /// live. A later call replaces the previous stream.
    pub fn stream_events_to(&self, out: Box<dyn std::io::Write>) {
        if let Some(cell) = &self.inner {
            let mut inner = cell.borrow_mut();
            let ts = inner.clock.now_ns();
            let mut sink = EventSink::new(out);
            sink.run_start(ts);
            inner.sink = Some(sink);
        }
    }

    /// Snapshot of the hierarchical span events completed so far.
    pub fn span_events(&self) -> Vec<SpanEvent> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |cell| cell.borrow().events.clone())
    }

    /// Writes a Chrome trace-event JSON file merging this handle's span
    /// events and `extra_spans` with the pool and render-phase activity
    /// captured since `session` began (see [`TraceSession`]). Loadable in
    /// Perfetto / `chrome://tracing`; validated by `scripts/check_trace.py`.
    ///
    /// `extra_spans` are span events collected on *other* handles: a
    /// multi-session server owns one handle per session (the handle is
    /// `!Sync`) and passes their events here to emit one fleet-wide trace,
    /// where each session's spans land in that session's process group
    /// (sessions are distinguished by [`SpanEvent::run`]). Single-run
    /// callers pass `&[]`.
    pub fn write_chrome_trace(
        &self,
        session: &TraceSession,
        extra_spans: &[SpanEvent],
        path: &std::path::Path,
    ) -> std::io::Result<()> {
        let mut events = self.span_events();
        events.extend_from_slice(extra_spans);
        let doc = trace::chrome_trace_json(&events, session);
        let mut text = doc.to_string_pretty();
        text.push('\n');
        std::fs::write(path, text)
    }
}

struct LiveSpan<'a> {
    telemetry: &'a Telemetry,
    path: String,
    name: String,
    id: u32,
    parent: Option<u32>,
    flat: bool,
    lane: u32,
    run: u32,
    start_ns: u64,
}

/// RAII guard returned by [`Telemetry::span`]; records on drop.
pub struct SpanGuard<'a> {
    /// `None` when the telemetry handle is disabled — dropping is free.
    live: Option<LiveSpan<'a>>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            let telemetry: &Telemetry = live.telemetry;
            telemetry.end_span(live);
        }
    }
}

/// Checks a counter/gauge name against the `subsystem/name` convention:
/// at least two non-empty `/`-separated segments of
/// `[a-z0-9_-]` characters.
///
/// ```
/// use splatonic_telemetry::validate_metric_name as v;
/// assert!(v("slam/checkpoints_written").is_ok());
/// assert!(v("unprefixed").is_err());
/// assert!(v("Bad/Case").is_err());
/// ```
pub fn validate_metric_name(name: &str) -> Result<(), String> {
    let segments: Vec<&str> = name.split('/').collect();
    if segments.len() < 2 {
        return Err(format!(
            "metric {name:?} lacks a subsystem prefix (want subsystem/name)"
        ));
    }
    for seg in &segments {
        if seg.is_empty() {
            return Err(format!("metric {name:?} has an empty path segment"));
        }
        if !seg
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '-')
        {
            return Err(format!(
                "metric {name:?} has characters outside [a-z0-9_-] in segment {seg:?}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_build_slash_paths() {
        let t = Telemetry::enabled();
        for _ in 0..3 {
            let _track = t.span("tracking");
            {
                let _fwd = t.span("forward");
            }
            let _bwd = t.span("backward");
        }
        let report = t.finish("r", AccuracySummary::default());
        let paths: Vec<&str> = report.spans.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(
            paths,
            vec!["tracking", "tracking/backward", "tracking/forward"]
        );
        for (_, stats) in &report.spans {
            assert_eq!(stats.count(), 3);
        }
    }

    #[test]
    fn sibling_spans_do_not_nest() {
        let t = Telemetry::enabled();
        {
            let _a = t.span("a");
        }
        {
            let _b = t.span("b");
        }
        let report = t.finish("r", AccuracySummary::default());
        let paths: Vec<&str> = report.spans.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, vec!["a", "b"]);
    }

    #[test]
    fn record_span_ms_bypasses_the_stack() {
        let t = Telemetry::enabled();
        {
            let _outer = t.span("tracking");
            // Imported spans land at their own path, not under "tracking/".
            t.record_span_ms("pool/worker0", 3.0);
            t.record_span_ms("pool/worker0", 5.0);
        }
        let report = t.finish("r", AccuracySummary::default());
        let (_, stats) = report
            .spans
            .iter()
            .find(|(p, _)| p == "pool/worker0")
            .expect("imported span present");
        assert_eq!(stats.count(), 2);
        assert!((stats.sum() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn pool_worker_deltas_become_spans() {
        let t = Telemetry::enabled();
        let before = pool::worker_stats_snapshot();
        // Drive the pool so at least worker 0 accrues busy time.
        let items: Vec<u64> = (0..4096).collect();
        let _ = pool::par_chunks_indexed(2, &items, 64, |_, _, c| {
            c.iter().map(|&x| x.wrapping_mul(x)).sum::<u64>()
        });
        t.record_pool_workers(&before);
        let report = t.finish("r", AccuracySummary::default());
        assert!(
            report
                .spans
                .iter()
                .any(|(p, _)| p.starts_with("pool/worker")),
            "expected pool worker spans, got {:?}",
            report.spans.iter().map(|(p, _)| p).collect::<Vec<_>>()
        );
        // The worker count is the number of span keys; no gauge repeats it.
        assert!(report.gauges.is_empty(), "{:?}", report.gauges);
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        {
            let _s = t.span("tracking");
            t.counter_add("c", 5);
            t.gauge_set("g", 1.0);
            t.record_frame(FrameRecord {
                frame_idx: 0,
                track_iters: 0,
                map_invoked: false,
                sampled_pixels: 0,
                map_sampled_pixels: 0,
                gaussian_count: 0,
                psnr_db: 0.0,
                ate_so_far_cm: 0.0,
                track_ms: 0.0,
                map_ms: 0.0,
            });
            t.record_trace("x", &RenderTrace::new());
        }
        let report = t.finish("r", AccuracySummary::default());
        assert!(report.spans.is_empty());
        assert!(report.counters.is_empty());
        assert!(report.gauges.is_empty());
        assert!(report.frames.is_empty());
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let t = Telemetry::enabled();
        t.counter_add("pairs", 3);
        t.counter_add("pairs", 4);
        t.gauge_set("util", 0.2);
        t.gauge_set("util", 0.9);
        let report = t.finish("r", AccuracySummary::default());
        assert_eq!(report.counters, vec![("pairs".to_string(), 7)]);
        assert_eq!(report.gauges, vec![("util".to_string(), 0.9)]);
    }

    #[test]
    fn record_trace_exports_forward_and_backward_counters() {
        let mut trace = RenderTrace::new();
        trace.forward.pairs_integrated = 42;
        trace.forward.pixels_shaded = 7;
        trace.forward.warp_steps = 10;
        trace.forward.warp_active = 160;
        trace.backward.atomic_adds = 11;
        trace.backward.gaussian_touches.push(4.0);
        let t = Telemetry::enabled();
        t.record_trace("tracking", &trace);
        t.record_trace("tracking", &trace); // counters sum across calls
        let report = t.finish("r", AccuracySummary::default());
        let get = |name: &str| {
            report
                .counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
        };
        assert_eq!(get("tracking/forward/pairs_integrated"), Some(84));
        assert_eq!(get("tracking/forward/pixels_shaded"), Some(14));
        assert_eq!(get("tracking/backward/atomic_adds"), Some(22));
        let util = report
            .gauges
            .iter()
            .find(|(n, _)| n == "tracking/forward/warp_utilization")
            .map(|(_, v)| *v)
            .unwrap();
        assert!((util - 0.5).abs() < 1e-12);
    }

    #[test]
    fn span_events_record_hierarchy_and_exact_durations() {
        let clock = TestClock::new();
        let t = Telemetry::with_clock(clock.clone());
        {
            let _frame = t.span_flat("frame");
            clock.advance_ns(1_000);
            {
                let _track = t.span("tracking");
                clock.advance_ns(2_000_000); // 2 ms
                {
                    let _fwd = t.span("forward");
                    clock.advance_ns(500_000); // 0.5 ms
                }
            }
            clock.advance_ns(1_000);
        }
        let events = t.span_events();
        // Completion order: innermost first.
        assert_eq!(events.len(), 3);
        let fwd = &events[0];
        let track = &events[1];
        let frame = &events[2];
        assert_eq!(frame.path, "frame");
        assert_eq!(frame.parent, None);
        assert_eq!(track.path, "tracking"); // flat parent does not extend paths
        assert_eq!(track.parent, Some(frame.id));
        assert_eq!(fwd.path, "tracking/forward");
        assert_eq!(fwd.parent, Some(track.id));
        // Durations are exact on the test clock.
        assert_eq!(fwd.dur_ns, 500_000);
        assert_eq!(track.dur_ns, 2_500_000);
        assert_eq!(frame.dur_ns, 2_502_000);
        // Windows nest: child inside parent.
        assert!(track.start_ns >= frame.start_ns);
        assert!(track.start_ns + track.dur_ns <= frame.start_ns + frame.dur_ns);
        // All on this thread's lane.
        let lane = splatonic_math::timebase::lane_id();
        assert!(events.iter().all(|e| e.lane == lane));
        // Aggregates: "frame" recorded verbatim, inner paths unchanged.
        let report = t.finish("r", AccuracySummary::default());
        let paths: Vec<&str> = report.spans.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, vec!["frame", "tracking", "tracking/forward"]);
    }

    #[test]
    fn spans_record_the_recording_threads_lane() {
        // The handle is !Sync, so each thread owns its own handle; lanes
        // attribute events to threads across handles.
        let here = {
            let t = Telemetry::enabled();
            let _s = t.span("a");
            drop(_s);
            t.span_events()[0].lane
        };
        let there = std::thread::spawn(|| {
            let t = Telemetry::enabled();
            let _s = t.span("a");
            drop(_s);
            t.span_events()[0].lane
        })
        .join()
        .unwrap();
        assert_ne!(here, there);
    }

    #[test]
    fn frame_latency_quantiles_are_exact_samples() {
        let t = Telemetry::enabled();
        let frame = |idx: usize, track_ms: f64, map: Option<f64>| FrameRecord {
            frame_idx: idx,
            track_iters: if idx == 0 { 0 } else { 10 },
            map_invoked: map.is_some(),
            sampled_pixels: 1,
            map_sampled_pixels: 0,
            gaussian_count: 1,
            psnr_db: f64::NAN,
            ate_so_far_cm: 0.0,
            track_ms,
            map_ms: map.unwrap_or(0.0),
        };
        // The anchor frame maps but does not track.
        t.record_frame(frame(0, 0.0, Some(150.0)));
        // No sample sits on a log2 µs bucket edge, so a bucketed quantile
        // would read 2.048 ms (p50) and 32.768 ms (p95/p99) here.
        t.record_frame(frame(1, 20.0, None));
        t.record_frame(frame(2, 1.5, Some(140.0)));
        t.record_frame(frame(3, 1.0, None));
        t.record_frame(frame(4, 3.0, None));
        let doc = json::parse(&t.finish("r", AccuracySummary::default()).to_json_string())
            .expect("valid JSON");
        let series = |name: &str, key: &str| {
            doc.get("latency")
                .and_then(|l| l.get(name))
                .and_then(|s| s.get(key))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("latency.{name}.{key} missing"))
        };
        // Track samples sorted: [1.0, 1.5, 3.0, 20.0]; rank ⌈p/100 · 4⌉.
        assert_eq!(series("frame/track_ms", "count"), 4.0);
        assert_eq!(series("frame/track_ms", "p50_ms"), 1.5);
        assert_eq!(series("frame/track_ms", "p95_ms"), 20.0);
        assert_eq!(series("frame/track_ms", "p99_ms"), 20.0);
        // Map samples sorted: [140.0, 150.0]; the anchor frame counts.
        assert_eq!(series("frame/map_ms", "count"), 2.0);
        assert_eq!(series("frame/map_ms", "p50_ms"), 140.0);
        assert_eq!(series("frame/map_ms", "p99_ms"), 150.0);
    }

    #[test]
    fn jsonl_stream_is_tailable_line_by_line() {
        use std::io::Write;
        use std::rc::Rc;
        #[derive(Clone, Default)]
        struct Buf(Rc<RefCell<Vec<u8>>>);
        impl Write for Buf {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.borrow_mut().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let clock = TestClock::new();
        let t = Telemetry::with_clock(clock.clone());
        let buf = Buf::default();
        t.stream_events_to(Box::new(buf.clone()));
        {
            let _s = t.span("tracking");
            clock.advance_ns(1_000_000);
        }
        t.counter_add("slam/frames", 1);
        let _ = t.finish("stream-unit", AccuracySummary::default());

        let text = String::from_utf8(buf.0.borrow().clone()).unwrap();
        let types: Vec<String> = text
            .lines()
            .map(|l| {
                let doc = json::parse(l).expect("each line parses standalone");
                match doc.get("type").unwrap() {
                    Json::Str(s) => s.clone(),
                    other => panic!("bad type field {other:?}"),
                }
            })
            .collect();
        assert_eq!(types[0], "run_start");
        assert!(types.contains(&"span".to_string()));
        assert!(types.contains(&"counter".to_string()));
        assert_eq!(types.last().unwrap(), "run_end");
        // Span lines appear before run_end (incremental, not batched).
        let span_pos = types.iter().position(|t| t == "span").unwrap();
        let end_pos = types.iter().position(|t| t == "run_end").unwrap();
        assert!(span_pos < end_pos);
    }

    #[test]
    fn metric_name_validation_enforces_subsystem_prefix() {
        assert!(validate_metric_name("slam/checkpoints_written").is_ok());
        assert!(validate_metric_name("hw/splatonic-hw/seconds").is_ok());
        assert!(validate_metric_name("pool/worker0").is_ok());
        assert!(validate_metric_name("unprefixed").is_err());
        assert!(validate_metric_name("trailing/").is_err());
        assert!(validate_metric_name("/leading").is_err());
        assert!(validate_metric_name("Upper/case").is_err());
        assert!(validate_metric_name("spa ce/x").is_err());
    }

    #[test]
    fn finish_report_is_valid_json() {
        let t = Telemetry::enabled();
        {
            let _s = t.span("tracking");
        }
        t.counter_add("tracking/forward/pixels_shaded", 9);
        let report = t.finish(
            "unit",
            AccuracySummary {
                ate_cm: 1.0,
                psnr_db: 20.0,
                frames: 1,
                scene_size: 10,
            },
        );
        let doc = json::parse(&report.to_json_string()).expect("valid JSON");
        assert_eq!(doc.get("name").unwrap(), &Json::Str("unit".into()));
        assert!(doc.get("spans").unwrap().get("tracking").is_some());
    }
}
