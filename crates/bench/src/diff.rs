//! Report-to-baseline comparison (`report_diff REPORT BASELINE`).
//!
//! The single home of the run-report gating policy: CI and
//! `scripts/verify.sh` gate the smoke report against
//! `scripts/bench_baseline.json` with this module and nothing else. The
//! split of strict-vs-loose follows determinism:
//!
//! * workload counters: exact — the renderer is deterministic, any delta is
//!   a real workload change;
//! * per-frame integer/bool fields: exact; per-frame floats and accuracy:
//!   absolute tolerance [`FLOAT_ABS_TOL`];
//! * gauges: relative tolerance [`GAUGE_REL_TOL`];
//! * every section's key set: equal on both sides (a new metric fails until
//!   the baseline is regenerated);
//! * span invocation *counts*: exact; span *wall time*: upper bound only
//!   ([`TIMING_MULT`]× baseline, floored at [`TIMING_FLOOR_MS`]);
//! * latency series: sample counts exact; p50/p95/p99 bounded like span
//!   time. Each is an exact nearest-rank sample of the report's own
//!   `frames[]` times, so it differs from the baseline only by wall-clock
//!   noise;
//! * anything under a [`SKIP_PREFIXES`] prefix: machine-dependent, skipped.
//!
//! Every violation is collected (not just the first) and rendered one per
//! line; [`diff_reports`] returning an empty list is a pass.

use splatonic::telemetry::json::Json;

/// Absolute tolerance for accuracy metrics and per-frame floats (dB for
/// PSNR, cm for ATE).
pub const FLOAT_ABS_TOL: f64 = 0.05;
/// Relative tolerance for gauges (deterministic hardware-model outputs).
pub const GAUGE_REL_TOL: f64 = 1e-6;
/// A span's (or latency percentile's) report value may be up to this many
/// times the baseline — CI runners are slow and noisy.
pub const TIMING_MULT: f64 = 25.0;
/// ...with a floor so micro-spans cannot flake.
pub const TIMING_FLOOR_MS: f64 = 5.0;
/// Machine-dependent metric prefixes, value-skipped on both sides.
pub const SKIP_PREFIXES: &[&str] = &["pool/", "render/simd_lanes"];
/// Counters the report must carry regardless of what the baseline holds —
/// a dropped checkpoint subsystem must fail the gate even if both sides
/// lost the keys together.
pub const REQUIRED_COUNTERS: &[&str] = &[
    "slam/checkpoints_written",
    "assets/ply_gaussians_written",
    "assets/ply_gaussians_read",
    "mapping/densify_capped",
];
/// The [`REQUIRED_COUNTERS`] subset that must additionally be nonzero: any
/// instrumented run checkpoints and roundtrips the scene through the `.ply`
/// codec. `mapping/densify_capped` is zero whenever its knob is off, so it
/// is presence-only.
pub const REQUIRED_NONZERO: &[&str] = &[
    "slam/checkpoints_written",
    "assets/ply_gaussians_written",
    "assets/ply_gaussians_read",
];
/// Gauges that must be present on both sides (values may be skipped).
pub const REQUIRED_GAUGES: &[&str] = &["slam/snapshot_bytes", "render/simd_lanes"];
/// Minimum sorted-element reduction of the grouped tile sort, with each
/// backward reading its forward's lists, over the per-tile baseline that
/// sorts in every pass (DESIGN.md §16); `report_diff record`
/// refuses to append a `BENCH_sort.json` entry below it.
pub const MIN_SORT_REDUCTION: f64 = 2.0;
/// Hint appended to key-set violations.
const REGENERATE: &str = "; regenerate scripts/bench_baseline.json";

fn machine_dependent(name: &str) -> bool {
    SKIP_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// Object fields as `(key, value)` pairs, machine-dependent keys removed.
fn object_entries<'a>(doc: &'a Json, section: &str) -> Vec<(&'a str, &'a Json)> {
    match doc.get(section) {
        Some(Json::Obj(fields)) => fields
            .iter()
            .filter(|(k, _)| !machine_dependent(k))
            .map(|(k, v)| (k.as_str(), v))
            .collect(),
        _ => Vec::new(),
    }
}

fn lookup<'a>(entries: &[(&'a str, &'a Json)], key: &str) -> Option<&'a Json> {
    entries.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

/// Keys present on only one side, as errors.
fn key_set_errors(
    errors: &mut Vec<String>,
    section: &str,
    report: &[(&str, &Json)],
    baseline: &[(&str, &Json)],
) {
    for (k, _) in baseline {
        if lookup(report, k).is_none() {
            errors.push(format!("{section}.{k}: missing from report"));
        }
    }
    for (k, _) in report {
        if lookup(baseline, k).is_none() {
            errors.push(format!("{section}.{k}: not in baseline{REGENERATE}"));
        }
    }
}

fn f64_field(v: &Json, key: &str) -> Option<f64> {
    v.get(key).and_then(Json::as_f64)
}

fn diff_accuracy(errors: &mut Vec<String>, report: &Json, baseline: &Json) {
    let empty = Json::obj();
    let acc_r = report.get("accuracy").unwrap_or(&empty);
    let acc_b = baseline.get("accuracy").unwrap_or(&empty);
    for field in ["frames", "scene_size"] {
        if acc_r.get(field) != acc_b.get(field) {
            errors.push(format!(
                "accuracy.{field}: report {:?} != baseline {:?}",
                acc_r.get(field),
                acc_b.get(field)
            ));
        }
    }
    for field in ["psnr_db", "ate_cm"] {
        match (f64_field(acc_r, field), f64_field(acc_b, field)) {
            (Some(r), Some(b)) => {
                if (r - b).abs() > FLOAT_ABS_TOL {
                    errors.push(format!(
                        "accuracy.{field}: report {r} vs baseline {b} \
                         (|delta| {:.4} > {FLOAT_ABS_TOL})",
                        (r - b).abs()
                    ));
                }
            }
            (r, b) => errors.push(format!(
                "accuracy.{field}: missing (report {r:?}, baseline {b:?})"
            )),
        }
    }
}

fn diff_frames(errors: &mut Vec<String>, report: &Json, baseline: &Json) {
    const EXACT: &[&str] = &[
        "frame_idx",
        "track_iters",
        "map_invoked",
        "sampled_pixels",
        "map_sampled_pixels",
        "gaussian_count",
    ];
    const FLOATS: &[&str] = &["psnr_db", "ate_so_far_cm"];
    let frames_r = report.get("frames").and_then(Json::as_arr).unwrap_or(&[]);
    let frames_b = baseline.get("frames").and_then(Json::as_arr).unwrap_or(&[]);
    if frames_r.len() != frames_b.len() {
        errors.push(format!(
            "frames: report has {}, baseline has {}",
            frames_r.len(),
            frames_b.len()
        ));
    }
    for (i, (fr, fb)) in frames_r.iter().zip(frames_b.iter()).enumerate() {
        for field in EXACT {
            if fr.get(field) != fb.get(field) {
                errors.push(format!(
                    "frames[{i}].{field}: report {:?} != baseline {:?}",
                    fr.get(field),
                    fb.get(field)
                ));
            }
        }
        for field in FLOATS {
            let r = f64_field(fr, field).unwrap_or(0.0);
            let b = f64_field(fb, field).unwrap_or(0.0);
            if (r - b).abs() > FLOAT_ABS_TOL {
                errors.push(format!(
                    "frames[{i}].{field}: report {r} vs baseline {b} \
                     (|delta| {:.4} > {FLOAT_ABS_TOL})",
                    (r - b).abs()
                ));
            }
        }
    }
}

fn diff_counters(errors: &mut Vec<String>, report: &Json, baseline: &Json) {
    let counters_r = object_entries(report, "counters");
    let counters_b = object_entries(baseline, "counters");
    key_set_errors(errors, "counters", &counters_r, &counters_b);
    for (name, r) in &counters_r {
        if let Some(b) = lookup(&counters_b, name) {
            if *r != b {
                errors.push(format!("counters.{name}: report {r:?} != baseline {b:?}"));
            }
        }
    }
    for name in REQUIRED_COUNTERS {
        if lookup(&counters_r, name).is_none() {
            errors.push(format!("counters.{name}: required, missing from report"));
        }
        if lookup(&counters_b, name).is_none() {
            errors.push(format!("counters.{name}: required, missing from baseline"));
        }
    }
    for name in REQUIRED_NONZERO {
        if let Some(0.0) = lookup(&counters_r, name).and_then(Json::as_f64) {
            errors.push(format!(
                "counters.{name}: required to be nonzero (its subsystem must have run)"
            ));
        }
    }
}

fn diff_spans(errors: &mut Vec<String>, report: &Json, baseline: &Json) {
    let spans_r = object_entries(report, "spans");
    let spans_b = object_entries(baseline, "spans");
    key_set_errors(errors, "spans", &spans_r, &spans_b);
    for (name, r) in &spans_r {
        let Some(b) = lookup(&spans_b, name) else {
            continue;
        };
        if r.get("count") != b.get("count") {
            errors.push(format!(
                "spans.{name}.count: report {:?} != baseline {:?}",
                r.get("count"),
                b.get("count")
            ));
        }
        let (rt, bt) = (f64_field(r, "total_ms"), f64_field(b, "total_ms"));
        for (side, v) in [("report", rt), ("baseline", bt)] {
            if v.is_none() {
                errors.push(format!("spans.{name}.total_ms: missing from {side}"));
            }
        }
        if let (Some(rt), Some(bt)) = (rt, bt) {
            let limit = (bt * TIMING_MULT).max(TIMING_FLOOR_MS);
            if rt > limit {
                errors.push(format!(
                    "spans.{name}.total_ms: report {rt:.2} ms exceeds \
                     {TIMING_MULT}x baseline ({bt:.2} ms, limit {limit:.2} ms)"
                ));
            }
        }
    }
}

fn diff_latency(errors: &mut Vec<String>, report: &Json, baseline: &Json) {
    let lat_r = object_entries(report, "latency");
    let lat_b = object_entries(baseline, "latency");
    key_set_errors(errors, "latency", &lat_r, &lat_b);
    for (name, r) in &lat_r {
        let Some(b) = lookup(&lat_b, name) else {
            continue;
        };
        // Sample counts are deterministic (one per frame / map invocation).
        if r.get("count") != b.get("count") {
            errors.push(format!(
                "latency.{name}.count: report {:?} != baseline {:?}",
                r.get("count"),
                b.get("count")
            ));
        }
        // Percentiles are exact frame times, but wall-clock: bound them like
        // span time.
        for p in ["p50_ms", "p95_ms", "p99_ms"] {
            let (Some(rp), Some(bp)) = (f64_field(r, p), f64_field(b, p)) else {
                errors.push(format!("latency.{name}.{p}: missing"));
                continue;
            };
            let limit = (bp * TIMING_MULT).max(TIMING_FLOOR_MS);
            if rp > limit {
                errors.push(format!(
                    "latency.{name}.{p}: report {rp:.3} ms exceeds \
                     {TIMING_MULT}x baseline ({bp:.3} ms, limit {limit:.3} ms)"
                ));
            }
        }
    }
}

fn diff_gauges(errors: &mut Vec<String>, report: &Json, baseline: &Json) {
    let gauges_r = object_entries(report, "gauges");
    let gauges_b = object_entries(baseline, "gauges");
    key_set_errors(errors, "gauges", &gauges_r, &gauges_b);
    for (name, r) in &gauges_r {
        let Some(b) = lookup(&gauges_b, name) else {
            continue;
        };
        let (Some(r), Some(b)) = (r.as_f64(), b.as_f64()) else {
            continue;
        };
        let tol = GAUGE_REL_TOL * r.abs().max(b.abs()).max(1.0);
        if (r - b).abs() > tol {
            errors.push(format!(
                "gauges.{name}: report {r} vs baseline {b} (tol {tol:.3e})"
            ));
        }
    }
    // Required gauges may be machine-dependent (value-skipped above), so
    // presence is checked against the unfiltered sections.
    for name in REQUIRED_GAUGES {
        for (side, doc) in [("report", report), ("baseline", baseline)] {
            let present = doc.get("gauges").is_some_and(|g| g.get(name).is_some());
            if !present {
                errors.push(format!("gauges.{name}: required, missing from {side}"));
            }
        }
    }
}

/// Compares two parsed `RunReport` JSON documents and returns every
/// violation (empty = pass).
pub fn diff_reports(report: &Json, baseline: &Json) -> Vec<String> {
    let mut errors = Vec::new();
    diff_accuracy(&mut errors, report, baseline);
    diff_frames(&mut errors, report, baseline);
    diff_counters(&mut errors, report, baseline);
    diff_gauges(&mut errors, report, baseline);
    diff_spans(&mut errors, report, baseline);
    diff_latency(&mut errors, report, baseline);
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use splatonic::telemetry::json::parse;

    fn baseline() -> Json {
        parse(include_str!("../../../scripts/bench_baseline.json")).expect("baseline parses")
    }

    /// The value at `path` (a chain of object keys) inside `doc`.
    fn at<'a>(doc: &'a mut Json, path: &[&str]) -> &'a mut Json {
        path.iter().fold(doc, |v, key| match v {
            Json::Obj(fields) => fields
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no field {key}")),
            _ => panic!("{key}: parent is not an object"),
        })
    }

    fn remove(doc: &mut Json, path: &[&str], key: &str) {
        let Json::Obj(fields) = at(doc, path) else {
            panic!("{path:?} is not an object");
        };
        let before = fields.len();
        fields.retain(|(k, _)| k != key);
        assert_eq!(fields.len() + 1, before, "{key} must exist");
    }

    fn bump(v: &mut Json) {
        *v = match *v {
            Json::Int(i) => Json::Int(i + 1),
            ref other => panic!("not an integer: {other:?}"),
        };
    }

    fn offset(v: &mut Json, by: f64) {
        *v = Json::Num(v.as_f64().expect("numeric") + by);
    }

    fn frame_3(doc: &mut Json) -> &mut Json {
        match at(doc, &["frames"]) {
            Json::Arr(frames) => &mut frames[3],
            _ => panic!("frames is not an array"),
        }
    }

    #[test]
    fn every_regression_class_fails_the_gate() {
        let base = baseline();
        assert_eq!(diff_reports(&base, &base), Vec::<String>::new());

        // (class, mutation of a report copy, substrings of one violation).
        type Class = (&'static str, fn(&mut Json), &'static [&'static str]);
        let classes: [Class; 16] = [
            (
                "counter value changes",
                |r| bump(at(r, &["counters", "tracking/forward/pixels_shaded"])),
                &["counters.tracking/forward/pixels_shaded: report"],
            ),
            (
                "counter missing",
                |r| remove(r, &["counters"], "mapping/backward/atomic_adds"),
                &["counters.mapping/backward/atomic_adds: missing from report"],
            ),
            (
                "counter only in report",
                |r| {
                    at(r, &["counters"]).set("render/new_counter", 1u64);
                },
                &["counters.render/new_counter: not in baseline", "regenerate"],
            ),
            (
                "exact frame field changes",
                |r| bump(at(frame_3(r), &["track_iters"])),
                &["frames[3].track_iters"],
            ),
            (
                "accuracy drifts beyond tolerance",
                |r| offset(at(r, &["accuracy", "psnr_db"]), 1.2 * FLOAT_ABS_TOL),
                &["accuracy.psnr_db"],
            ),
            (
                "span missing",
                |r| remove(r, &["spans"], "tracking"),
                &["spans.tracking: missing from report"],
            ),
            (
                "span only in report",
                |r| {
                    let span = parse(r#"{"count": 1, "total_ms": 0.1}"#).unwrap();
                    at(r, &["spans"]).set("tracking/extra", span);
                },
                &["spans.tracking/extra: not in baseline"],
            ),
            (
                "span count changes",
                |r| bump(at(r, &["spans", "tracking", "count"])),
                &["spans.tracking.count"],
            ),
            (
                "span total exceeds the timing bound",
                |r| {
                    let total = at(r, &["spans", "psnr_eval", "total_ms"]);
                    let limit = (total.as_f64().unwrap() * TIMING_MULT).max(TIMING_FLOOR_MS);
                    *total = Json::Num(limit + 1.0);
                },
                &["spans.psnr_eval.total_ms", "exceeds"],
            ),
            (
                "latency count changes",
                |r| bump(at(r, &["latency", "frame/map_ms", "count"])),
                &["latency.frame/map_ms.count"],
            ),
            (
                "latency series missing",
                |r| remove(r, &["latency"], "frame/track_ms"),
                &["latency.frame/track_ms: missing from report"],
            ),
            (
                "latency percentile exceeds the timing bound",
                |r| {
                    let p95 = at(r, &["latency", "frame/track_ms", "p95_ms"]);
                    let limit = (p95.as_f64().unwrap() * TIMING_MULT).max(TIMING_FLOOR_MS);
                    *p95 = Json::Num(limit + 1.0);
                },
                &["latency.frame/track_ms.p95_ms", "exceeds"],
            ),
            (
                "gauge moves beyond tolerance",
                |r| offset(at(r, &["gauges", "slam/scene_size"]), 0.5),
                &["gauges.slam/scene_size: report"],
            ),
            (
                "gauge only in report",
                |r| {
                    at(r, &["gauges"]).set("hw/new_gauge", 1.0);
                },
                &["gauges.hw/new_gauge: not in baseline", "regenerate"],
            ),
            (
                "required gauge missing",
                |r| remove(r, &["gauges"], "slam/snapshot_bytes"),
                &["gauges.slam/snapshot_bytes: required, missing from report"],
            ),
            (
                "required-nonzero counter zeroed",
                |r| *at(r, &["counters", "slam/checkpoints_written"]) = Json::Int(0),
                &["counters.slam/checkpoints_written", "nonzero"],
            ),
        ];
        for (class, mutate, needles) in classes {
            let mut report = base.clone();
            mutate(&mut report);
            let errors = diff_reports(&report, &base);
            assert!(
                errors.iter().any(|e| needles.iter().all(|n| e.contains(n))),
                "{class}: no violation contains {needles:?}: {errors:?}"
            );
        }
    }

    #[test]
    fn required_counters_fail_even_when_both_sides_agree() {
        let mut doc = baseline();
        remove(&mut doc, &["counters"], "mapping/densify_capped");
        *at(&mut doc, &["counters", "assets/ply_gaussians_read"]) = Json::Int(0);
        let errors = diff_reports(&doc, &doc);
        for needle in [
            "counters.mapping/densify_capped: required, missing from report",
            "counters.assets/ply_gaussians_read: required to be nonzero",
        ] {
            assert!(errors.iter().any(|e| e.contains(needle)), "{errors:?}");
        }
    }

    #[test]
    fn machine_dependent_values_and_tolerated_drift_pass() {
        let base = baseline();
        let mut report = base.clone();
        offset(at(&mut report, &["gauges", "slam/scene_size"]), 1e-9);
        offset(
            at(&mut report, &["accuracy", "ate_cm"]),
            0.5 * FLOAT_ABS_TOL,
        );
        *at(&mut report, &["gauges", "render/simd_lanes"]) = Json::Num(1.0);
        *at(&mut report, &["spans", "pool/worker0", "total_ms"]) = Json::Num(1e9);
        assert_eq!(diff_reports(&report, &base), Vec::<String>::new());
    }
}
