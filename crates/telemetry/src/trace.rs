//! Chrome trace-event export (Perfetto-loadable).
//!
//! A [`TraceSession`] brackets the traced portion of a run: beginning one
//! turns on the side-band capture gates of the worker pool
//! (`splatonic_math::pool`) and the renderer phase buffer
//! (`splatonic_render::phase`) and remembers their cursors, so the export
//! only contains events from *this* session even though both buffers are
//! process-global. [`crate::Telemetry::write_chrome_trace`] then merges
//! three producers onto one timeline:
//!
//! * telemetry span events (category `span`) on the recording thread's lane,
//! * renderer phase events (category `render`) on their recording lanes,
//! * pool worker activity (category `pool`) on one lane per worker *slot*
//!   (`timebase::POOL_LANE_BASE + worker`), stable across the ephemeral
//!   scoped threads.
//!
//! All producers stamp the same monotonic timebase, so nesting falls out of
//! time containment per lane — Perfetto renders one row per lane with
//! spans stacked. Events are emitted as complete (`"ph": "X"`) records
//! sorted by start time; `scripts/check_trace.py` validates the schema.
//!
//! # Multi-session runs
//!
//! Every producer also stamps the ambient run id
//! (`splatonic_math::timebase::run_id`; 0 outside any session scope). The
//! export maps run `r` to Chrome trace process id `r + 1` — a single-run
//! trace therefore stays on pid 1 exactly as before, while a fleet trace
//! shows one process group per SLAM session. [`TraceSession::begin_for_run`]
//! additionally *filters* the export to one run, so concurrent sessions
//! sharing the process-global buffers each export only their own events.

use crate::event::SpanEvent;
use crate::json::Json;
use splatonic_math::{pool, timebase};
use splatonic_render::phase;

/// One traced window of a run; see the module docs.
#[derive(Debug)]
pub struct TraceSession {
    pool_cursor: usize,
    phase_cursor: usize,
    /// When set, the export keeps only events stamped with this run id.
    run_filter: Option<u32>,
}

impl TraceSession {
    /// Enables pool and render-phase capture and marks the session start.
    ///
    /// The gates stay on for the life of the process (bench binaries trace
    /// whole runs); cursors scope the export to this session's events.
    pub fn begin() -> Self {
        pool::trace_enable(true);
        phase::enable(true);
        TraceSession {
            pool_cursor: pool::trace_cursor(),
            phase_cursor: phase::cursor(),
            run_filter: None,
        }
    }

    /// Like [`TraceSession::begin`], but the eventual export keeps only
    /// events attributed to `run` — the scoped-drain form concurrent
    /// sessions need so one session's export cannot absorb another's
    /// events from the shared process-global buffers.
    pub fn begin_for_run(run: u32) -> Self {
        let mut s = TraceSession::begin();
        s.run_filter = Some(run);
        s
    }
}

/// One exported `"X"` row before serialization.
struct Row {
    name: String,
    cat: &'static str,
    /// Chrome trace process id: run id + 1 (run 0 → pid 1).
    pid: u64,
    tid: u32,
    ts_us: f64,
    dur_us: f64,
}

/// Maps a producer run id to a Chrome trace process id. Run 0 (no session
/// scope) lands on pid 1, keeping single-run traces shaped as before.
fn run_to_pid(run: u32) -> u64 {
    run as u64 + 1
}

/// Builds the full Chrome trace document for the given telemetry span
/// events plus everything the session's side-band buffers captured.
pub(crate) fn chrome_trace_json(spans: &[SpanEvent], session: &TraceSession) -> Json {
    let keep = |run: u32| session.run_filter.is_none_or(|want| run == want);
    let mut rows: Vec<Row> = Vec::new();
    for e in spans {
        if !keep(e.run) {
            continue;
        }
        rows.push(Row {
            name: e.path.clone(),
            cat: "span",
            pid: run_to_pid(e.run),
            tid: e.lane,
            ts_us: e.start_ns as f64 / 1e3,
            dur_us: e.dur_ns as f64 / 1e3,
        });
    }
    for e in phase::events_since(session.phase_cursor) {
        if !keep(e.run) {
            continue;
        }
        rows.push(Row {
            name: e.name.to_string(),
            cat: "render",
            pid: run_to_pid(e.run),
            tid: e.lane,
            ts_us: e.start_ns as f64 / 1e3,
            dur_us: e.dur_ns as f64 / 1e3,
        });
    }
    for e in pool::trace_events_since(session.pool_cursor) {
        if !keep(e.run) {
            continue;
        }
        rows.push(Row {
            name: format!("pool/worker{}", e.worker),
            cat: "pool",
            pid: run_to_pid(e.run),
            tid: timebase::POOL_LANE_BASE + e.worker as u32,
            ts_us: e.start_ns as f64 / 1e3,
            dur_us: e.dur_ns as f64 / 1e3,
        });
    }
    // Start-time order (ties: longer span first) makes per-lane nesting a
    // simple stack walk for validators.
    rows.sort_by(|a, b| {
        a.ts_us
            .total_cmp(&b.ts_us)
            .then(b.dur_us.total_cmp(&a.dur_us))
    });

    let mut events: Vec<Json> = Vec::new();
    let mut meta = |name: &str, pid: u64, tid: u32, value: &str| {
        let mut args = Json::obj();
        args.set("name", value);
        let mut o = Json::obj();
        o.set("name", name)
            .set("ph", "M")
            .set("pid", pid)
            .set("tid", tid as i64)
            .set("args", args);
        events.push(o);
    };
    // One process group per run id present in the export (always at least
    // pid 1 so an empty trace still names the process).
    let mut pids: Vec<u64> = rows.iter().map(|r| r.pid).collect();
    pids.push(1);
    pids.sort_unstable();
    pids.dedup();
    for pid in &pids {
        let label = if *pid == 1 {
            "splatonic".to_string()
        } else {
            format!("session-{}", pid - 1)
        };
        meta("process_name", *pid, 0, &label);
    }
    let mut lanes: Vec<(u64, u32)> = rows.iter().map(|r| (r.pid, r.tid)).collect();
    lanes.sort_unstable();
    lanes.dedup();
    for (pid, tid) in &lanes {
        let label = if *tid >= timebase::POOL_LANE_BASE {
            format!("pool-worker{}", tid - timebase::POOL_LANE_BASE)
        } else if *tid == 1 {
            "main".to_string()
        } else {
            format!("lane{tid}")
        };
        meta("thread_name", *pid, *tid, &label);
    }
    for r in rows {
        let mut o = Json::obj();
        o.set("name", r.name)
            .set("cat", r.cat)
            .set("ph", "X")
            .set("ts", r.ts_us)
            .set("dur", r.dur_us)
            .set("pid", r.pid)
            .set("tid", r.tid as i64);
        events.push(o);
    }

    let mut doc = Json::obj();
    doc.set("traceEvents", Json::Arr(events))
        .set("displayTimeUnit", "ms");
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, path: &str, run: u32, start_ns: u64) -> SpanEvent {
        SpanEvent {
            id,
            parent,
            path: path.into(),
            name: path.rsplit('/').next().unwrap_or(path).into(),
            lane: 1,
            run,
            start_ns,
            dur_ns: 1_000,
        }
    }

    #[test]
    fn export_contains_metadata_and_sorted_x_events() {
        let session = TraceSession::begin();
        let spans = vec![
            SpanEvent {
                id: 2,
                parent: Some(1),
                path: "frame/tracking".into(),
                name: "tracking".into(),
                lane: 1,
                run: 0,
                start_ns: 2_000,
                dur_ns: 1_000,
            },
            SpanEvent {
                id: 1,
                parent: None,
                path: "frame".into(),
                name: "frame".into(),
                lane: 1,
                run: 0,
                start_ns: 1_000,
                dur_ns: 5_000,
            },
        ];
        let doc = chrome_trace_json(&spans, &session);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let xs: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap() == &Json::Str("X".into()))
            .collect();
        assert!(xs.len() >= 2);
        // Sorted by ts: the outer "frame" span comes first.
        assert_eq!(xs[0].get("name").unwrap(), &Json::Str("frame".into()));
        let mut last_ts = f64::NEG_INFINITY;
        for x in &xs {
            let ts = x.get("ts").unwrap().as_f64().unwrap();
            assert!(ts >= last_ts, "X events must be start-time sorted");
            last_ts = ts;
        }
        // Run 0 spans stay on pid 1, exactly as single-run traces always did.
        assert!(xs
            .iter()
            .all(|x| x.get("pid").unwrap().as_f64() == Some(1.0)));
        assert!(events.iter().any(|e| {
            e.get("name").unwrap() == &Json::Str("thread_name".into())
                && e.get("ph").unwrap() == &Json::Str("M".into())
        }));
    }

    #[test]
    fn runs_map_to_process_groups_and_filters_scope_the_export() {
        let spans = vec![
            span(1, None, "frame", 0, 1_000),
            span(2, None, "frame", 3, 2_000),
            span(3, None, "frame", 4, 3_000),
        ];

        // Unfiltered: one process group per run, run r on pid r+1.
        let session = TraceSession::begin();
        let doc = chrome_trace_json(&spans, &session);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let mut x_pids: Vec<f64> = events
            .iter()
            .filter(|e| e.get("ph").unwrap() == &Json::Str("X".into()))
            .filter_map(|e| e.get("pid").unwrap().as_f64())
            .collect();
        x_pids.sort_by(f64::total_cmp);
        assert!(x_pids.starts_with(&[1.0]));
        assert!(x_pids.contains(&4.0) && x_pids.contains(&5.0));
        let session_names: Vec<String> = events
            .iter()
            .filter(|e| e.get("name").unwrap() == &Json::Str("process_name".into()))
            .filter_map(|e| match e.get("args").unwrap().get("name") {
                Some(Json::Str(s)) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert!(session_names.contains(&"splatonic".to_string()));
        assert!(session_names.contains(&"session-3".to_string()));
        assert!(session_names.contains(&"session-4".to_string()));

        // Filtered: only run 3's events survive.
        let scoped = TraceSession::begin_for_run(3);
        let doc = chrome_trace_json(&spans, &scoped);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let xs: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap() == &Json::Str("X".into()))
            .collect();
        assert_eq!(xs.len(), 1);
        assert_eq!(xs[0].get("pid").unwrap().as_f64(), Some(4.0));
    }
}
