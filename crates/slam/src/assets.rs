//! Telemetry-aware splat asset I/O: the SLAM-side face of the scene
//! crate's `.ply` codec (DESIGN.md §17).
//!
//! Thin wrappers over [`splatonic_scene::ply`] that bump the
//! `assets/ply_gaussians_written` / `assets/ply_gaussians_read` counters,
//! so every run report accounts for scene material crossing the process
//! boundary the same way it accounts for snapshot bytes. The bytes
//! produced are exactly the scene crate's — no SLAM-specific framing.

use splatonic_scene::{ply, GaussianScene, PlyError};
use splatonic_telemetry::Telemetry;

/// Encodes `scene` to 3DGS `.ply` bytes, counting the exported Gaussians
/// as `assets/ply_gaussians_written`.
pub fn encode_scene_ply(scene: &GaussianScene, telemetry: &Telemetry) -> Vec<u8> {
    telemetry.counter_add("assets/ply_gaussians_written", scene.len() as u64);
    ply::encode_ply(scene)
}

/// Decodes 3DGS `.ply` bytes into a scene, counting the imported Gaussians
/// as `assets/ply_gaussians_read`. Nothing is counted on a decode error.
pub fn decode_scene_ply(bytes: &[u8], telemetry: &Telemetry) -> Result<GaussianScene, PlyError> {
    let scene = ply::decode_ply(bytes)?;
    telemetry.counter_add("assets/ply_gaussians_read", scene.len() as u64);
    Ok(scene)
}

#[cfg(test)]
mod tests {
    use super::*;
    use splatonic_math::{Quat, Vec3};
    use splatonic_scene::Gaussian;

    fn scene(n: usize) -> GaussianScene {
        let mut s = GaussianScene::new();
        for i in 0..n {
            s.push(Gaussian::new(
                Vec3::new(i as f64 * 0.25, 0.0, 2.0),
                Vec3::splat(0.0625),
                Quat::IDENTITY,
                0.75,
                Vec3::splat(0.5),
            ));
        }
        s
    }

    fn counter(report: &splatonic_telemetry::RunReport, name: &str) -> Option<u64> {
        report
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    #[test]
    fn counters_track_roundtrip_cardinality() {
        let telemetry = Telemetry::enabled();
        let s = scene(6);
        let bytes = encode_scene_ply(&s, &telemetry);
        let back = decode_scene_ply(&bytes, &telemetry).unwrap();
        assert_eq!(back.len(), 6);
        let report = telemetry.finish("assets-test", Default::default());
        assert_eq!(counter(&report, "assets/ply_gaussians_written"), Some(6));
        assert_eq!(counter(&report, "assets/ply_gaussians_read"), Some(6));
    }

    #[test]
    fn decode_error_counts_nothing() {
        let telemetry = Telemetry::enabled();
        assert!(decode_scene_ply(b"not a ply", &telemetry).is_err());
        let report = telemetry.finish("assets-err", Default::default());
        assert_eq!(counter(&report, "assets/ply_gaussians_read"), None);
    }
}
