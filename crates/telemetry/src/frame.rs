//! Per-frame SLAM trajectory records.
//!
//! One [`FrameRecord`] per processed frame captures the accuracy/workload
//! trajectory of a run (SplaTAM-style per-frame evaluation): how much work
//! tracking did, whether mapping fired, how the map grew, and the running
//! accuracy metrics. The array of records is the `frames` section of a
//! [`crate::RunReport`].

use crate::json::Json;

/// One frame of a SLAM run.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameRecord {
    /// Frame index in the sequence.
    pub frame_idx: usize,
    /// Tracking iterations executed on this frame (0 for the anchor frame).
    pub track_iters: usize,
    /// Whether a mapping invocation ran after this frame.
    pub map_invoked: bool,
    /// Pixels sampled by tracking across its iterations.
    pub sampled_pixels: usize,
    /// Pixels sampled by mapping across its optimization iterations (0 when
    /// mapping did not run).
    pub map_sampled_pixels: usize,
    /// Scene size (Gaussians) after processing this frame.
    pub gaussian_count: usize,
    /// PSNR of the current map rendered at the estimated pose (dB); NaN
    /// serializes as `null` when not evaluated.
    pub psnr_db: f64,
    /// ATE RMSE over frames `0..=frame_idx` (cm).
    pub ate_so_far_cm: f64,
    /// Wall-clock milliseconds spent in tracking for this frame.
    pub track_ms: f64,
    /// Wall-clock milliseconds spent in mapping for this frame (0 when
    /// mapping did not run).
    pub map_ms: f64,
}

impl FrameRecord {
    /// JSON object for this record.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("frame_idx", self.frame_idx)
            .set("track_iters", self.track_iters)
            .set("map_invoked", self.map_invoked)
            .set("sampled_pixels", self.sampled_pixels)
            .set("map_sampled_pixels", self.map_sampled_pixels)
            .set("gaussian_count", self.gaussian_count)
            .set("psnr_db", self.psnr_db)
            .set("ate_so_far_cm", self.ate_so_far_cm)
            .set("track_ms", self.track_ms)
            .set("map_ms", self.map_ms);
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn record_serializes_with_all_fields() {
        let r = FrameRecord {
            frame_idx: 4,
            track_iters: 10,
            map_invoked: true,
            sampled_pixels: 120,
            map_sampled_pixels: 200,
            gaussian_count: 5000,
            psnr_db: 21.5,
            ate_so_far_cm: 0.8,
            track_ms: 12.0,
            map_ms: 30.0,
        };
        let doc = parse(&r.to_json().to_string_compact()).unwrap();
        assert_eq!(doc.get("frame_idx").unwrap().as_f64(), Some(4.0));
        assert_eq!(doc.get("map_invoked").unwrap(), &Json::Bool(true));
        assert_eq!(doc.get("psnr_db").unwrap().as_f64(), Some(21.5));
        assert_eq!(doc.get("ate_so_far_cm").unwrap().as_f64(), Some(0.8));
        assert_eq!(doc.get("map_sampled_pixels").unwrap().as_f64(), Some(200.0));
    }

    #[test]
    fn unevaluated_psnr_serializes_as_null() {
        let r = FrameRecord {
            frame_idx: 0,
            track_iters: 0,
            map_invoked: false,
            sampled_pixels: 0,
            map_sampled_pixels: 0,
            gaussian_count: 0,
            psnr_db: f64::NAN,
            ate_so_far_cm: 0.0,
            track_ms: 0.0,
            map_ms: 0.0,
        };
        let doc = parse(&r.to_json().to_string_compact()).unwrap();
        assert_eq!(doc.get("psnr_db").unwrap(), &Json::Null);
    }
}
