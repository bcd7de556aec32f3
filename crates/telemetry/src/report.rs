//! Machine-readable run reports and their human-readable rendering.
//!
//! A [`RunReport`] is the terminal artifact of an instrumented run: span
//! timing stats, workload counters, hardware gauges, the per-frame SLAM
//! trajectory, and final accuracy, serialized as JSON
//! (`{name, date, frames, spans, counters, gauges, latency, accuracy}` —
//! the `BENCH_*.json` perf-trajectory schema) or rendered as aligned-column
//! text. The `latency` section is not stored: it is derived from `frames`
//! on every render ([`RunReport::latency`]).

use crate::frame::FrameRecord;
use crate::json::Json;
use splatonic_math::stats::{percentile, Summary};

/// Final accuracy of a run (the `accuracy` report section).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccuracySummary {
    /// Absolute trajectory error (cm).
    pub ate_cm: f64,
    /// Mean PSNR of final-map renders (dB).
    pub psnr_db: f64,
    /// Frames processed.
    pub frames: usize,
    /// Final scene size (Gaussians).
    pub scene_size: usize,
}

impl AccuracySummary {
    /// JSON object for this summary.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("ate_cm", self.ate_cm)
            .set("psnr_db", self.psnr_db)
            .set("frames", self.frames)
            .set("scene_size", self.scene_size);
        o
    }
}

/// Exact quantiles of one per-frame latency series (one entry of the
/// report's `latency` section).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyQuantiles {
    /// Samples in the series.
    pub count: usize,
    /// Nearest-rank median (ms).
    pub p50_ms: f64,
    /// Nearest-rank 95th percentile (ms).
    pub p95_ms: f64,
    /// Nearest-rank 99th percentile (ms).
    pub p99_ms: f64,
}

impl LatencyQuantiles {
    fn of(mut samples: Vec<f64>) -> Self {
        LatencyQuantiles {
            count: samples.len(),
            p50_ms: percentile(&mut samples, 50.0),
            p95_ms: percentile(&mut samples, 95.0),
            p99_ms: percentile(&mut samples, 99.0),
        }
    }

    fn to_json(self) -> Json {
        let mut o = Json::obj();
        o.set("count", self.count)
            .set("p50_ms", self.p50_ms)
            .set("p95_ms", self.p95_ms)
            .set("p99_ms", self.p99_ms);
        o
    }
}

/// JSON object for one span path's timing summary.
fn span_json(s: &Summary) -> Json {
    let mut o = Json::obj();
    o.set("count", s.count())
        .set("total_ms", s.sum())
        .set("mean_ms", s.mean())
        .set("min_ms", s.min())
        .set("max_ms", s.max());
    o
}

/// A complete instrumented-run report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Run name (e.g. the benchmark id).
    pub name: String,
    /// UTC date of the run, `YYYY-MM-DD`.
    pub date: String,
    /// Unix timestamp (seconds) of report creation.
    pub unix_time: u64,
    /// Per-frame SLAM trajectory.
    pub frames: Vec<FrameRecord>,
    /// Span timing stats (milliseconds) by `/`-separated path, sorted.
    pub spans: Vec<(String, Summary)>,
    /// Monotonic workload counters by name, sorted.
    pub counters: Vec<(String, u64)>,
    /// Point-in-time gauges (hardware model outputs etc.) by name, sorted.
    pub gauges: Vec<(String, f64)>,
    /// Final accuracy.
    pub accuracy: AccuracySummary,
}

impl RunReport {
    /// Per-frame latency quantiles, computed from [`RunReport::frames`]:
    /// `frame/track_ms` over the frames that tracked (`track_iters > 0`),
    /// `frame/map_ms` over the frames where mapping ran. Every quantile is
    /// the nearest-rank sample ([`percentile`]), so it is exact: zero error
    /// against the recorded frame times.
    pub fn latency(&self) -> [(&'static str, LatencyQuantiles); 2] {
        let track = self.frames.iter().filter(|f| f.track_iters > 0);
        let map = self.frames.iter().filter(|f| f.map_invoked);
        [
            (
                "frame/track_ms",
                LatencyQuantiles::of(track.map(|f| f.track_ms).collect()),
            ),
            (
                "frame/map_ms",
                LatencyQuantiles::of(map.map(|f| f.map_ms).collect()),
            ),
        ]
    }

    /// The full JSON document.
    pub fn to_json(&self) -> Json {
        let mut spans = Json::obj();
        for (path, stats) in &self.spans {
            spans.set(path, span_json(stats));
        }
        let mut counters = Json::obj();
        for (name, value) in &self.counters {
            counters.set(name, *value);
        }
        let mut gauges = Json::obj();
        for (name, value) in &self.gauges {
            gauges.set(name, *value);
        }
        let mut latency = Json::obj();
        for (name, q) in self.latency() {
            latency.set(name, q.to_json());
        }
        let mut o = Json::obj();
        o.set("name", self.name.as_str())
            .set("date", self.date.as_str())
            .set("unix_time", self.unix_time)
            .set(
                "frames",
                Json::Arr(self.frames.iter().map(FrameRecord::to_json).collect()),
            )
            .set("spans", spans)
            .set("counters", counters)
            .set("gauges", gauges)
            .set("latency", latency)
            .set("accuracy", self.accuracy.to_json());
        o
    }

    /// Pretty JSON text.
    pub fn to_json_string(&self) -> String {
        let mut s = self.to_json().to_string_pretty();
        s.push('\n');
        s
    }

    /// Writes the JSON document to `path`.
    pub fn write_json_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json_string())
    }

    /// Aligned-column text rendering: the span tree, the counters, and the
    /// accuracy line. Span nesting is shown by indenting each path segment
    /// under its parent.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== run report: {} ({}) ==\n",
            self.name, self.date
        ));

        if !self.spans.is_empty() {
            let rows: Vec<[String; 5]> = self
                .spans
                .iter()
                .map(|(path, s)| {
                    let depth = path.matches('/').count();
                    let leaf = path.rsplit('/').next().unwrap_or(path);
                    [
                        format!("{}{}", "  ".repeat(depth), leaf),
                        s.count().to_string(),
                        format!("{:.2}", s.sum()),
                        format!("{:.3}", s.mean()),
                        format!("{:.3}", s.max()),
                    ]
                })
                .collect();
            let header = ["span", "count", "total ms", "mean", "max"];
            let mut w: Vec<usize> = header.iter().map(|h| h.len()).collect();
            for row in &rows {
                for (i, cell) in row.iter().enumerate() {
                    w[i] = w[i].max(cell.chars().count());
                }
            }
            let fmt_row = |cells: &[String]| {
                cells
                    .iter()
                    .enumerate()
                    .map(|(i, c)| {
                        if i == 0 {
                            format!("{:<width$}", c, width = w[i])
                        } else {
                            format!("{:>width$}", c, width = w[i])
                        }
                    })
                    .collect::<Vec<_>>()
                    .join("  ")
            };
            let header: Vec<String> = header.iter().map(|s| s.to_string()).collect();
            out.push_str(&fmt_row(&header));
            out.push('\n');
            for row in rows {
                out.push_str(&fmt_row(&row));
                out.push('\n');
            }
        }

        let shown_latency: Vec<_> = self
            .latency()
            .into_iter()
            .filter(|(_, q)| q.count > 0)
            .collect();
        if !shown_latency.is_empty() {
            out.push_str("-- latency (nearest rank, exact) --\n");
            let w = shown_latency
                .iter()
                .map(|(n, _)| n.chars().count())
                .max()
                .unwrap_or(0);
            for (name, q) in &shown_latency {
                out.push_str(&format!(
                    "{name:<w$}  n={:<5} p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms\n",
                    q.count, q.p50_ms, q.p95_ms, q.p99_ms
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("-- counters --\n");
            let w = self
                .counters
                .iter()
                .map(|(n, _)| n.chars().count())
                .max()
                .unwrap_or(0);
            for (name, value) in &self.counters {
                out.push_str(&format!("{name:<w$}  {value}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("-- gauges --\n");
            let w = self
                .gauges
                .iter()
                .map(|(n, _)| n.chars().count())
                .max()
                .unwrap_or(0);
            for (name, value) in &self.gauges {
                out.push_str(&format!("{name:<w$}  {value:.6}\n"));
            }
        }
        out.push_str(&format!(
            "accuracy: ATE {:.2} cm, PSNR {:.2} dB over {} frames ({} gaussians)\n",
            self.accuracy.ate_cm,
            self.accuracy.psnr_db,
            self.accuracy.frames,
            self.accuracy.scene_size
        ));
        out
    }
}

/// `YYYY-MM-DD` (UTC) for a unix timestamp, via the standard civil-from-days
/// conversion (Howard Hinnant's algorithm) — no time-zone database needed.
pub fn utc_date(unix_secs: u64) -> String {
    let days = (unix_secs / 86_400) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097); // day of era [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn sample_report() -> RunReport {
        RunReport {
            name: "smoke".into(),
            date: "2026-08-06".into(),
            unix_time: 1_786_000_000,
            frames: vec![FrameRecord {
                frame_idx: 1,
                track_iters: 10,
                map_invoked: false,
                sampled_pixels: 48,
                map_sampled_pixels: 0,
                gaussian_count: 900,
                psnr_db: 20.0,
                ate_so_far_cm: 0.4,
                track_ms: 5.0,
                map_ms: 0.0,
            }],
            spans: vec![
                ("tracking".into(), Summary::from_iter([5.0, 7.0])),
                ("tracking/forward".into(), Summary::from_iter([1.0])),
            ],
            counters: vec![("tracking/forward/pixels_shaded".into(), 480)],
            gauges: vec![("hw/splatonic/total_s".into(), 1.25e-4)],
            accuracy: AccuracySummary {
                ate_cm: 0.4,
                psnr_db: 20.0,
                frames: 2,
                scene_size: 900,
            },
        }
    }

    #[test]
    fn json_round_trips_and_matches_schema() {
        let r = sample_report();
        let doc = parse(&r.to_json_string()).expect("report must be valid JSON");
        for key in ["name", "date", "frames", "spans", "counters", "accuracy"] {
            assert!(doc.get(key).is_some(), "schema section {key} missing");
        }
        let frames = doc.get("frames").unwrap().as_arr().unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].get("psnr_db").unwrap().as_f64(), Some(20.0));
        let spans = doc.get("spans").unwrap();
        let t = spans.get("tracking").unwrap();
        assert_eq!(t.get("count").unwrap().as_f64(), Some(2.0));
        assert_eq!(t.get("total_ms").unwrap().as_f64(), Some(12.0));
        let keys: Vec<&str> = match t {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("span is not an object: {other:?}"),
        };
        assert_eq!(keys, ["count", "total_ms", "mean_ms", "min_ms", "max_ms"]);
        assert_eq!(
            doc.get("accuracy").unwrap().get("ate_cm").unwrap().as_f64(),
            Some(0.4)
        );
    }

    #[test]
    fn text_rendering_aligns_and_indents() {
        let text = sample_report().to_text();
        assert!(text.contains("tracking"));
        // The nested span is indented under its parent.
        assert!(text.contains("\n  forward") || text.contains("  forward  "));
        assert!(text.contains("accuracy: ATE 0.40 cm"));
        assert!(text.contains("pixels_shaded"));
        assert!(text.contains("-- latency"));
        assert!(text.contains("frame/track_ms"));
    }

    #[test]
    fn latency_section_is_derived_from_frames() {
        let doc = parse(&sample_report().to_json_string()).unwrap();
        let lat = doc.get("latency").expect("latency section");
        let track = lat.get("frame/track_ms").expect("track series");
        assert_eq!(track.get("count").unwrap().as_f64(), Some(1.0));
        for key in ["p50_ms", "p95_ms", "p99_ms"] {
            assert_eq!(track.get(key).unwrap().as_f64(), Some(5.0), "{key}");
        }
        assert!(track.get("buckets").is_none());
        // No frame mapped: the series is present but empty.
        let map = lat.get("frame/map_ms").expect("map series");
        assert_eq!(map.get("count").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn utc_date_known_values() {
        assert_eq!(utc_date(0), "1970-01-01");
        assert_eq!(utc_date(86_400), "1970-01-02");
        // 2000-03-01 (leap-century boundary).
        assert_eq!(utc_date(951_868_800), "2000-03-01");
        // 2026-08-06 00:00:00 UTC (day 20671 since epoch).
        assert_eq!(utc_date(1_785_974_400), "2026-08-06");
    }
}
