//! Instrumented benchmark runs producing machine-readable `BENCH_*.json`
//! reports (`figures --report out.json`).
//!
//! One instrumented run executes the full SLAM loop with telemetry enabled
//! (spans, per-frame accuracy trajectory, merged workload counters), then
//! prices a representative tracking iteration on every hardware target and
//! exports the stage/energy breakdowns as gauges. The resulting
//! [`RunReport`] serializes as `{name, date, frames, spans, counters,
//! accuracy}`.

use crate::cli::Exports;
use crate::Settings;
use splatonic::harness::{measure_tracking_iteration, TrackingScenario};
use splatonic::prelude::*;
use splatonic::telemetry::{AccuracySummary, RunReport, Telemetry};
use splatonic_slam::dataset::Dataset;
use std::path::PathBuf;

/// Options for an instrumented pass (`figures --report/--checkpoint-every/
/// --checkpoint-dir/--trace-out/--events-out`). `Default` cuts a checkpoint
/// every 4 frames, keeps everything in memory and exports nothing.
#[derive(Debug, Clone)]
pub struct InstrumentOptions {
    /// Checkpoint cadence in frames (`0` disables checkpointing, as in
    /// [`SlamConfig::checkpoint_every`]).
    pub checkpoint_every: usize,
    /// When set, every snapshot is also written here as `ckpt_<frame>.snap`.
    pub checkpoint_dir: Option<PathBuf>,
    /// When set, a Chrome trace-event JSON (Perfetto-loadable) covering the
    /// whole pass is written here (`--trace-out`).
    pub trace_out: Option<PathBuf>,
    /// When set, a JSONL event stream (run/span/frame/counter records,
    /// flushed per line for live tailing) is written here (`--events-out`).
    pub events_out: Option<PathBuf>,
}

impl Default for InstrumentOptions {
    fn default() -> Self {
        InstrumentOptions {
            checkpoint_every: 4,
            checkpoint_dir: None,
            trace_out: None,
            events_out: None,
        }
    }
}

/// Telemetry gauge prefix for a hardware target: `hw/` + a lowercase slug
/// of the display name (`hw/splatonic-hw`, `hw/gpu-tile-based`).
fn target_slug(target: HardwareTarget) -> String {
    let slug: String = target
        .name()
        .to_ascii_lowercase()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let parts: Vec<&str> = slug.split('-').filter(|s| !s.is_empty()).collect();
    format!("hw/{}", parts.join("-"))
}

/// Runs one fully-instrumented SLAM pass plus hardware pricing and returns
/// the run report; see [`InstrumentOptions`] for the outputs.
///
/// The default checkpoint cadence makes the report carry the checkpoint
/// span, `slam/checkpoints_written` and `slam/snapshot_bytes`, which the
/// `report_diff` gate requires.
///
/// # Panics
///
/// Panics if the checkpoint directory or an export file cannot be created.
pub fn instrumented_run(name: &str, settings: &Settings, options: &InstrumentOptions) -> RunReport {
    let dir = options.checkpoint_dir.as_deref();
    let dataset = Dataset::replica_like("report-room", 7, settings.dataset_config());
    let telemetry = Telemetry::enabled();
    let exports = Exports::begin(
        &telemetry,
        options.trace_out.clone(),
        options.events_out.clone(),
    )
    .unwrap_or_else(|e| panic!("{e}"));
    // Host vector width in use (DESIGN.md §13). report_diff requires the
    // gauge to be present but skips its value (machine-dependent).
    telemetry.gauge_set("render/simd_lanes", splatonic_render::simd::lanes() as f64);

    // End-to-end SLAM with spans and per-frame records.
    let mut slam_cfg = SlamConfig::splatonic(AlgorithmConfig::default());
    slam_cfg.checkpoint_every = options.checkpoint_every;
    let mut system = SlamSystem::new(slam_cfg, dataset.intrinsics);
    if let Some(d) = dir {
        std::fs::create_dir_all(d).expect("create checkpoint dir");
    }
    let result = system
        .run_with_checkpoints(&dataset, &telemetry, &mut |snap, bytes| {
            if let Some(d) = dir {
                let path = d.join(format!("ckpt_{:04}.snap", snap.next_frame));
                std::fs::write(&path, bytes)
                    .map_err(|e| splatonic_slam::SnapshotError::Io(e.to_string()))?;
            }
            Ok(())
        })
        .expect("checkpoint sink failed");

    // Asset-path accounting: exercise the `.ply` export/import roundtrip
    // in memory so every report carries the `assets/ply_gaussians_written`
    // and `assets/ply_gaussians_read` counters (report_diff requires them
    // nonzero — a silently broken splat codec
    // must fail the gate, not vanish from the report).
    {
        let _span = telemetry.span("assets_roundtrip");
        let ply = splatonic_slam::assets::encode_scene_ply(system.scene(), &telemetry);
        let reimported = splatonic_slam::assets::decode_scene_ply(&ply, &telemetry)
            .expect("freshly exported scene must re-import");
        assert_eq!(reimported.len(), system.scene().len());
    }

    // Price one representative tracking iteration on every target and
    // export the stage/energy breakdowns.
    let scenario = TrackingScenario::prepare(&dataset, 1);
    for target in HardwareTarget::all() {
        let m = measure_tracking_iteration(
            &scenario,
            target.expected_pipeline(),
            slam_cfg.tracking_sampling,
            1,
        );
        let cost = {
            let _span = telemetry.span("pricing");
            target.price(&m)
        };
        cost.export_telemetry(&telemetry, &target_slug(target));
    }

    let report = telemetry.finish(
        name,
        AccuracySummary {
            ate_cm: result.ate_cm,
            psnr_db: result.psnr_db,
            frames: result.frames,
            scene_size: result.scene_size,
        },
    );
    exports
        .write_trace(&telemetry, &[])
        .unwrap_or_else(|e| panic!("{e}"));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use splatonic::telemetry::json;

    #[test]
    fn target_slugs_are_clean() {
        assert_eq!(target_slug(HardwareTarget::SplatonicHw), "hw/splatonic-hw");
        assert_eq!(target_slug(HardwareTarget::GpuTile), "hw/gpu-tile-based");
    }

    #[test]
    fn instrumented_run_meets_report_contract() {
        let report = instrumented_run(
            "bench-unit",
            &Settings::quick(),
            &InstrumentOptions::default(),
        );
        let doc = json::parse(&report.to_json_string()).expect("report must be valid JSON");

        // Per-span timing for tracking and mapping.
        let spans = doc.get("spans").expect("spans section");
        for path in [
            "tracking",
            "tracking/forward",
            "mapping",
            "mapping/backward",
        ] {
            assert!(spans.get(path).is_some(), "missing span {path}");
        }
        // Merged forward/backward workload counters.
        let counters = doc.get("counters").expect("counters section");
        for name in [
            "tracking/forward/pairs_integrated",
            "tracking/backward/atomic_adds",
            "mapping/forward/pixels_shaded",
            "slam/checkpoints_written",
            "assets/ply_gaussians_written",
            "assets/ply_gaussians_read",
        ] {
            assert!(counters.get(name).is_some(), "missing counter {name}");
        }
        assert!(spans.get("checkpoint").is_some(), "missing checkpoint span");
        assert!(
            doc.get("gauges")
                .unwrap()
                .get("slam/snapshot_bytes")
                .and_then(|v| v.as_f64())
                .is_some_and(|v| v > 0.0),
            "missing slam/snapshot_bytes gauge"
        );
        // Per-frame array with accuracy trajectory.
        let frames = doc.get("frames").expect("frames section").as_arr().unwrap();
        assert!(!frames.is_empty());
        for f in frames {
            assert!(f.get("psnr_db").is_some());
            assert!(f.get("ate_so_far_cm").is_some());
        }
        // Hardware gauges for every target.
        let gauges = doc.get("gauges").expect("gauges section");
        for target in HardwareTarget::all() {
            let key = format!("{}/seconds", target_slug(target));
            assert!(gauges.get(&key).is_some(), "missing gauge {key}");
        }
        assert!(doc
            .get("accuracy")
            .unwrap()
            .get("ate_cm")
            .unwrap()
            .as_f64()
            .is_some());
        // Latency quantiles are the nearest-rank order statistics of the
        // report's own frame times: rank ⌈p/100 · n⌉ of the sorted series.
        let latency = doc.get("latency").expect("latency section");
        let num = |v: &json::Json, key: &str| v.get(key).and_then(|x| x.as_f64()).unwrap();
        let tracked = report.frames.iter().filter(|f| f.track_iters > 0);
        let mapped = report.frames.iter().filter(|f| f.map_invoked);
        for (name, mut samples) in [
            (
                "frame/track_ms",
                tracked.map(|f| f.track_ms).collect::<Vec<_>>(),
            ),
            ("frame/map_ms", mapped.map(|f| f.map_ms).collect()),
        ] {
            samples.sort_by(f64::total_cmp);
            let series = latency
                .get(name)
                .unwrap_or_else(|| panic!("missing {name}"));
            assert!(!samples.is_empty());
            assert_eq!(num(series, "count"), samples.len() as f64);
            for (key, p) in [("p50_ms", 50.0), ("p95_ms", 95.0), ("p99_ms", 99.0)] {
                let rank = (p / 100.0 * samples.len() as f64).ceil() as usize;
                assert_eq!(num(series, key), samples[rank - 1], "{name}.{key}");
            }
            assert!(series.get("buckets").is_none());
        }
    }

    #[test]
    fn instrumented_options_emit_trace_events_and_clean_names() {
        let dir = std::env::temp_dir().join(format!("splatonic-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("trace.json");
        let events_path = dir.join("events.jsonl");
        let report = instrumented_run(
            "bench-options",
            &Settings::quick(),
            &InstrumentOptions {
                trace_out: Some(trace_path.clone()),
                events_out: Some(events_path.clone()),
                ..InstrumentOptions::default()
            },
        );

        // Chrome trace: valid JSON with metadata and complete events from
        // all three producers (telemetry spans, render phases, pool lanes).
        let trace = json::parse(&std::fs::read_to_string(&trace_path).unwrap())
            .expect("trace must be valid JSON");
        let events = trace.get("traceEvents").unwrap().as_arr().unwrap();
        let name_of = |e: &json::Json| e.get("name").and_then(|n| n.as_str().map(String::from));
        let cat_of = |e: &json::Json| e.get("cat").and_then(|c| c.as_str().map(String::from));
        assert!(events
            .iter()
            .any(|e| name_of(e).as_deref() == Some("frame")));
        for cat in ["span", "render"] {
            assert!(
                events.iter().any(|e| cat_of(e).as_deref() == Some(cat)),
                "no {cat} events in trace"
            );
        }

        // JSONL stream: one JSON object per line, bracketed run_start →
        // run_end, with span and frame records in between.
        let stream = std::fs::read_to_string(&events_path).unwrap();
        let lines: Vec<&str> = stream.lines().collect();
        assert!(lines.len() > 10, "stream too short: {} lines", lines.len());
        let types: Vec<String> = lines
            .iter()
            .map(|l| {
                json::parse(l)
                    .expect("every stream line must be valid JSON")
                    .get("type")
                    .and_then(|t| t.as_str().map(String::from))
                    .expect("every record carries a type")
            })
            .collect();
        assert_eq!(types.first().map(String::as_str), Some("run_start"));
        assert_eq!(types.last().map(String::as_str), Some("run_end"));
        for t in ["span", "frame", "counter", "gauge"] {
            assert!(types.iter().any(|x| x == t), "no {t} records in stream");
        }

        // Naming audit: every counter and gauge from an end-to-end run obeys
        // the `subsystem/name` convention, with no duplicates or collisions.
        let mut seen = std::collections::BTreeSet::new();
        let counter_names: Vec<&String> = report.counters.iter().map(|(n, _)| n).collect();
        let gauge_names: Vec<&String> = report.gauges.iter().map(|(n, _)| n).collect();
        for (kind, names) in [("counter", counter_names), ("gauge", gauge_names)] {
            for name in names {
                splatonic::telemetry::validate_metric_name(name)
                    .unwrap_or_else(|e| panic!("{kind} {name}: {e}"));
                assert!(seen.insert(name.clone()), "duplicate metric name {name}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
