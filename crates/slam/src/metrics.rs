//! Evaluation metrics: absolute trajectory error and PSNR (paper Sec. VI).

use crate::dataset::Dataset;
use splatonic_math::{Image, Mat3, Pose, Vec3};
use splatonic_render::{render_forward, Pipeline, PixelSet, RenderConfig};
use splatonic_scene::{Camera, ColorImage, Frame, GaussianScene, Intrinsics};

/// Umeyama alignment (rotation + translation, no scale) of `est` onto `gt`
/// camera centers. Returns the aligning pose `T` such that `T(est) ≈ gt`.
///
/// Fewer than 3 camera centers underdetermine the rotation, so short
/// trajectories fall back to an *anchor-relative* alignment: identity
/// rotation plus the translation that maps the first estimated center onto
/// the first ground-truth center. This matches the SLAM convention that the
/// first pose is the given anchor — an estimate expressed in a shifted
/// world frame aligns to zero error instead of reporting the raw offset the
/// old identity fallback produced.
pub fn align_trajectories(est: &[Pose], gt: &[Pose]) -> Pose {
    let n = est.len().min(gt.len());
    if n == 0 {
        return Pose::identity();
    }
    if n < 3 {
        let t = gt[0].camera_center() - est[0].camera_center();
        return Pose::new(Mat3::identity(), t);
    }
    let est_c: Vec<Vec3> = est[..n].iter().map(Pose::camera_center).collect();
    let gt_c: Vec<Vec3> = gt[..n].iter().map(Pose::camera_center).collect();
    let mean = |v: &[Vec3]| v.iter().fold(Vec3::ZERO, |a, &b| a + b) / v.len() as f64;
    let me = mean(&est_c);
    let mg = mean(&gt_c);
    // Cross-covariance H = Σ (gt−mg)(est−me)ᵀ.
    let mut h = Mat3::zero();
    for i in 0..n {
        h = h + Mat3::outer(gt_c[i] - mg, est_c[i] - me);
    }
    let r = polar_rotation(&h);
    let t = mg - r * me;
    Pose::new(r, t)
}

/// Nearest rotation matrix to `m` via iterative polar decomposition
/// (Higham's Newton iteration), with a determinant fix for reflections.
fn polar_rotation(m: &Mat3) -> Mat3 {
    // Guard: a near-zero matrix (degenerate trajectories) maps to identity.
    let frob: f64 = m.m.iter().map(|v| v * v).sum::<f64>().sqrt();
    if frob < 1e-12 {
        return Mat3::identity();
    }
    let mut q = m.scale(1.0 / frob);
    for _ in 0..60 {
        let q_inv_t = match q.inverse() {
            Some(inv) => inv.transpose(),
            None => break,
        };
        let next = (q + q_inv_t).scale(0.5);
        let delta: f64 = next
            .m
            .iter()
            .zip(q.m.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        q = next;
        if delta < 1e-30 {
            break;
        }
    }
    if q.det() < 0.0 {
        // Reflection: flip the axis of least significance (column 2 is as
        // good as any for the degenerate planar case).
        let c0 = q.col(0);
        let c1 = q.col(1);
        let c2 = q.col(2) * -1.0;
        q = Mat3::from_cols(c0, c1, c2);
    }
    q
}

/// Absolute trajectory error (RMSE of aligned camera-center distances), in
/// centimeters — the paper's tracking-accuracy metric.
///
/// Trajectories of 3+ poses are Umeyama-aligned (rotation + translation, no
/// scale) before the RMSE; 1–2 poses use the anchor-relative fallback of
/// [`align_trajectories`], so the early-trajectory values reported in
/// per-frame telemetry (`ate_so_far_cm`) follow the same anchored
/// convention as the full-run number instead of mixing in a global offset.
///
/// # Panics
///
/// Panics if the trajectories have different lengths or are empty.
pub fn ate_rmse_cm(est: &[Pose], gt: &[Pose]) -> f64 {
    assert_eq!(est.len(), gt.len(), "trajectory lengths must match");
    assert!(!est.is_empty(), "trajectories must be non-empty");
    let align = align_trajectories(est, gt);
    let mut sum_sq = 0.0;
    for (e, g) in est.iter().zip(gt.iter()) {
        let d = align.transform(e.camera_center()) - g.camera_center();
        sum_sq += d.norm_sq();
    }
    (sum_sq / est.len() as f64).sqrt() * 100.0
}

/// Peak signal-to-noise ratio between two color images, in dB — the paper's
/// reconstruction-quality metric. Peak value is 1.0.
///
/// Returns `f64::INFINITY` for identical images.
///
/// # Panics
///
/// Panics if the image dimensions differ or the images are empty.
pub fn psnr_db(rendered: &ColorImage, reference: &ColorImage) -> f64 {
    assert_eq!(
        (rendered.width(), rendered.height()),
        (reference.width(), reference.height()),
        "image dimensions must match"
    );
    assert!(!rendered.is_empty(), "images must be non-empty");
    let mut sum_sq = 0.0;
    for (a, b) in rendered.as_slice().iter().zip(reference.as_slice().iter()) {
        let d = *a - *b;
        sum_sq += d.norm_sq();
    }
    let mse = sum_sq / (rendered.len() * 3) as f64;
    if mse <= 0.0 {
        return f64::INFINITY;
    }
    10.0 * (1.0 / mse).log10()
}

/// PSNR (dB) of `scene` rendered densely (tile-based pipeline) at `pose`
/// against `frame`'s color image.
///
/// This is the per-frame reconstruction-quality probe behind the run
/// report's PSNR column; it is public so standalone pipelines (`.ply`-
/// imported or LOD-decimated scenes) evaluate with exactly the arithmetic
/// `SlamSystem::finalize` uses.
pub fn scene_frame_psnr(
    scene: &GaussianScene,
    intrinsics: Intrinsics,
    render_cfg: &RenderConfig,
    frame: &Frame,
    pose: Pose,
) -> f64 {
    let pixels = PixelSet::dense(intrinsics.width, intrinsics.height);
    let cam = Camera::new(intrinsics, pose);
    let out = render_forward(scene, &cam, &pixels, Pipeline::TileBased, render_cfg);
    let mut img = Image::filled(intrinsics.width, intrinsics.height, Vec3::ZERO);
    for (i, p) in pixels.iter_all().enumerate() {
        img[(p.x as usize, p.y as usize)] = out.color[i];
    }
    psnr_db(&img, &frame.color)
}

/// Mean [`scene_frame_psnr`] over every `stride`-th frame of `dataset`,
/// rendered at the corresponding `est_poses` entry. Non-finite per-frame
/// values (identical images) are excluded from the mean; returns `0.0`
/// when no frame produced a finite value.
pub fn evaluate_scene_psnr(
    scene: &GaussianScene,
    intrinsics: Intrinsics,
    render_cfg: &RenderConfig,
    dataset: &Dataset,
    est_poses: &[Pose],
    stride: usize,
) -> f64 {
    let mut total = 0.0;
    let mut count = 0;
    for t in (0..dataset.len()).step_by(stride.max(1)) {
        let v = scene_frame_psnr(
            scene,
            intrinsics,
            render_cfg,
            &dataset.frames[t],
            est_poses[t],
        );
        if v.is_finite() {
            total += v;
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splatonic_math::Se3;

    fn make_traj(n: usize, offset: Vec3) -> Vec<Pose> {
        (0..n)
            .map(|i| {
                let t = i as f64 * 0.1;
                Se3::new(
                    Vec3::new(t.cos(), 0.1 * t, t.sin()) + offset,
                    Vec3::new(0.0, t * 0.05, 0.0),
                )
                .exp()
            })
            .collect()
    }

    #[test]
    fn identical_trajectories_zero_ate() {
        let t = make_traj(20, Vec3::ZERO);
        assert!(ate_rmse_cm(&t, &t) < 1e-6);
    }

    #[test]
    fn ate_invariant_under_rigid_transform() {
        let gt = make_traj(20, Vec3::ZERO);
        // Apply a global rigid transform to the estimate; ATE must stay ~0.
        let rig = Se3::new(Vec3::new(1.0, -2.0, 0.5), Vec3::new(0.2, 0.4, -0.1)).exp();
        let est: Vec<Pose> = gt.iter().map(|p| p.compose(&rig)).collect();
        let ate = ate_rmse_cm(&est, &gt);
        assert!(ate < 1e-4, "ATE after rigid transform: {ate}");
    }

    #[test]
    fn ate_detects_offset() {
        let gt = make_traj(20, Vec3::ZERO);
        // Non-rigid error: perturb half the poses.
        let mut est = gt.clone();
        for p in est.iter_mut().take(10) {
            p.translation += Vec3::new(0.02, 0.0, 0.0);
        }
        let ate = ate_rmse_cm(&est, &gt);
        assert!(ate > 0.2, "perturbation must show up: {ate}");
        assert!(ate < 3.0);
    }

    #[test]
    fn alignment_recovers_transform() {
        let gt = make_traj(30, Vec3::ZERO);
        let rig = Se3::new(Vec3::new(0.3, 0.1, -0.2), Vec3::new(0.0, 0.7, 0.0)).exp();
        let est: Vec<Pose> = gt.iter().map(|p| p.compose(&rig)).collect();
        let align = align_trajectories(&est, &gt);
        for (e, g) in est.iter().zip(gt.iter()) {
            let d = align.transform(e.camera_center()) - g.camera_center();
            assert!(d.norm() < 1e-6);
        }
    }

    #[test]
    fn polar_rotation_of_rotation_is_identity_map() {
        let r = Se3::new(Vec3::ZERO, Vec3::new(0.4, -0.2, 0.8))
            .exp()
            .rotation;
        let q = polar_rotation(&r);
        for i in 0..9 {
            assert!((q.m[i] - r.m[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn polar_rotation_handles_zero() {
        let q = polar_rotation(&Mat3::zero());
        assert!((q.det() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn short_trajectory_alignment_is_anchor_relative() {
        // satellite of PR 5: with <3 poses the old code returned identity
        // alignment, so an estimate expressed in a shifted world frame
        // reported the raw frame offset as "error". The anchored fallback
        // removes the offset via the first pose.
        let gt = make_traj(2, Vec3::ZERO);
        // Shift every camera center by a constant world offset d:
        // c = −Rᵀt, so t ← t − R·d moves c to c + d.
        let d = Vec3::new(1.5, -0.4, 2.0);
        let est: Vec<Pose> = gt
            .iter()
            .map(|p| {
                let mut q = *p;
                q.translation -= q.rotation * d;
                q
            })
            .collect();
        let ate = ate_rmse_cm(&est, &gt);
        assert!(ate < 1e-9, "pure world-frame shift must align out: {ate}");
        // A genuine relative error still shows up.
        let mut bad = gt.clone();
        bad[1].translation += Vec3::new(0.05, 0.0, 0.0);
        assert!(ate_rmse_cm(&bad, &gt) > 1.0);
        // Single-pose trajectories anchor to exactly zero.
        assert!(ate_rmse_cm(&gt[..1], &gt[..1]) < 1e-12);
        // In-system convention: est[0] == gt[0] (the anchor is given), so
        // the fallback translation is zero and frame-1 values are unchanged
        // versus the old identity fallback.
        let mut est2 = vec![gt[0], gt[1]];
        est2[1].translation += Vec3::new(0.01, 0.0, 0.0);
        let anchored = ate_rmse_cm(&est2, &gt[..2]);
        assert!(anchored > 0.0 && anchored.is_finite());
    }

    #[test]
    #[should_panic(expected = "lengths must match")]
    fn mismatched_lengths_panic() {
        let a = make_traj(3, Vec3::ZERO);
        let b = make_traj(4, Vec3::ZERO);
        let _ = ate_rmse_cm(&a, &b);
    }

    #[test]
    fn psnr_identical_is_infinite() {
        let img = Image::filled(4, 4, Vec3::splat(0.5));
        assert!(psnr_db(&img, &img).is_infinite());
    }

    #[test]
    fn psnr_known_value() {
        let a = Image::filled(4, 4, Vec3::splat(0.5));
        let b = Image::filled(4, 4, Vec3::splat(0.6));
        // MSE = 0.01 → PSNR = 20 dB.
        assert!((psnr_db(&a, &b) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn psnr_orders_by_quality() {
        let reference = Image::filled(4, 4, Vec3::splat(0.5));
        let close = Image::filled(4, 4, Vec3::splat(0.52));
        let far = Image::filled(4, 4, Vec3::splat(0.8));
        assert!(psnr_db(&close, &reference) > psnr_db(&far, &reference));
    }

    #[test]
    #[should_panic(expected = "dimensions must match")]
    fn psnr_dimension_mismatch_panics() {
        let a = Image::filled(4, 4, Vec3::ZERO);
        let b = Image::filled(3, 4, Vec3::ZERO);
        let _ = psnr_db(&a, &b);
    }
}
