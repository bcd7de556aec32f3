//! Shared projection and compositing kernels (EWA splatting).
//!
//! Both pipelines project 3D Gaussians to screen space the same way:
//!
//! * transform the mean into the camera frame, cull behind-camera points,
//! * project the mean through the pinhole model,
//! * push the 3D covariance through the local affine approximation
//!   `Σ' = J W Σ Wᵀ Jᵀ + b·I` (the classic EWA splatting Jacobian `J`),
//! * invert `Σ'` (the "conic") for α evaluation.
//!
//! The transparency of Gaussian `i` at pixel `p` is
//! `α_i = min(α_max, o_i · exp(-½ dᵀ Σ'⁻¹ d))` with `d = p − μ'` — exactly
//! the quantity the paper's α-checking thresholds against `α*`.

use splatonic_math::{pool, Mat2, Vec2, Vec3};
use splatonic_scene::{Camera, Gaussian, ProjectionTerms};

/// α* — a Gaussian with `α < ALPHA_THRESHOLD` at a pixel is skipped
/// (preemptive α-checking and the tile raster's check alike).
pub const ALPHA_THRESHOLD: f64 = 1.0 / 255.0;

/// Upper clamp on α (the reference 3DGS implementation's value).
pub const ALPHA_MAX: f64 = 0.99;

/// Early-termination transmittance: compositing stops once `Γ < T_min`.
pub const TRANSMITTANCE_MIN: f64 = 1e-4;

/// Screen-space blur added to the projected covariance diagonal.
pub const SCREEN_BLUR: f64 = 0.3;

/// Bounding-box extent in standard deviations.
///
/// 3.5σ guarantees that a pixel outside the box has `α < ALPHA_THRESHOLD`
/// even at full opacity: some axis has `|d| > BBOX_SIGMA·√λmax`, hence
/// `q = dᵀΣ'⁻¹d ≥ |d|²/λmax > BBOX_SIGMA²` and `α < exp(−BBOX_SIGMA²/2)`,
/// which is below α* because `BBOX_SIGMA² ≥ −2·ln ALPHA_THRESHOLD`
/// (12.25 ≥ 11.08). So bbox-based candidate discovery (pixel pipeline) and
/// threshold-only α-checking (tile pipeline) select exactly the same
/// pixel–Gaussian pairs, and both pipelines skip the `exp` of a pair whose
/// pixel lies outside the box. The skip is a host shortcut only: the trace
/// still counts the check, because the modelled hardware performs it.
pub const BBOX_SIGMA: f64 = 3.5;

/// Near-plane distance for frustum culling.
pub const NEAR: f64 = 0.2;

/// Background color where transmittance remains. Black, so the `Γ·bg`
/// term of a composited color and of its gradient is `+0` and the
/// compositing and backward loops leave it out (bit-exact: none of their
/// sums is ever `-0.0`).
pub const BACKGROUND: Vec3 = Vec3::ZERO;

/// Execution policy shared by both pipelines. Every field is
/// output-transparent: results are bit-identical for every value, so none
/// enters the `SlamConfig` fingerprint. The numbers that define the
/// rendering are the crate constants above ([`ALPHA_THRESHOLD`] …
/// [`BACKGROUND`]).
///
/// # Examples
///
/// ```
/// use splatonic_render::{KernelMode, RenderConfig};
/// let cfg = RenderConfig {
///     threads: 1,
///     kernels: KernelMode::Scalar,
/// };
/// assert_ne!(cfg, RenderConfig::default());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenderConfig {
    /// Worker threads for the parallel render/backward paths (default `0` =
    /// auto: the `SPLATONIC_THREADS` environment variable, falling back to
    /// `available_parallelism()`). Results are bit-identical for every
    /// value (see `splatonic_math::pool`).
    pub threads: usize,
    /// Kernel implementation selector (default [`crate::simd::KernelMode::Simd`]).
    ///
    /// `Simd` uses the runtime-detected vector paths in [`crate::simd`]
    /// (projection and the per-pixel backward) and falls back to scalar
    /// automatically when no vector unit is detected. Every shipped SIMD
    /// lane replicates the scalar operation order exactly, so outputs are
    /// bit-identical across modes (enforced by the determinism suite); the
    /// flag is the A/B switch that shows each vector kernel still pays.
    pub kernels: crate::simd::KernelMode,
}

impl Default for RenderConfig {
    fn default() -> Self {
        RenderConfig {
            threads: 0,
            kernels: crate::simd::KernelMode::Simd,
        }
    }
}

/// A Gaussian projected to screen space, ready for rasterization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProjectedGaussian {
    /// Index of the source Gaussian in the scene.
    pub id: u32,
    /// Projected 2D mean μ' in pixel coordinates.
    pub mean2d: Vec2,
    /// Inverse of the projected 2D covariance (the "conic").
    pub conic: Mat2,
    /// Camera-frame depth (z).
    pub depth: f64,
    /// Camera-frame mean (needed by the backward pass).
    pub mean_cam: Vec3,
    /// Opacity `o_i` (natural, in (0,1)).
    pub opacity: f64,
    /// Color, clamped into \[0, 1].
    pub color: Vec3,
    /// Bounding-box half-extent in pixels (per axis, from [`BBOX_SIGMA`]).
    pub radius: Vec2,
}

impl ProjectedGaussian {
    /// Screen-space bounding box `(min, max)` inclusive.
    pub fn bbox(&self) -> (Vec2, Vec2) {
        (self.mean2d - self.radius, self.mean2d + self.radius)
    }

    /// Whether `pixel` lies inside [`ProjectedGaussian::bbox`] (inclusive).
    #[inline]
    pub fn bbox_contains(&self, pixel: Vec2) -> bool {
        let (lo, hi) = self.bbox();
        pixel.x >= lo.x && pixel.x <= hi.x && pixel.y >= lo.y && pixel.y <= hi.y
    }
}

/// The projection Jacobian `J` (2×3 stored as rows) for camera point `p`.
///
/// `J = [[fx/z, 0, −fx·x/z²], [0, fy/z, −fy·y/z²]]`.
#[inline]
pub fn projection_jacobian(fx: f64, fy: f64, p_cam: Vec3) -> [Vec3; 2] {
    let inv_z = 1.0 / p_cam.z;
    let inv_z2 = inv_z * inv_z;
    [
        Vec3::new(fx * inv_z, 0.0, -fx * p_cam.x * inv_z2),
        Vec3::new(0.0, fy * inv_z, -fy * p_cam.y * inv_z2),
    ]
}

/// Projects one Gaussian; returns `None` if culled (behind the near plane,
/// outside the image, degenerate covariance, or any non-finite input that
/// reaches one of those tests).
///
/// This is the scalar oracle: it derives the pose-independent terms inline.
/// The SIMD path reads the same terms from the scene's
/// [`GaussianScene::projection_terms`](splatonic_scene::GaussianScene::projection_terms)
/// column and is bit-identical to it.
pub fn project_gaussian(g: &Gaussian, id: u32, camera: &Camera) -> Option<ProjectedGaussian> {
    let (p_cam, mean2d) = project_mean(camera, g.mean);
    if !in_front_of_near(p_cam.z) {
        return None;
    }
    project_from_cam(&ProjectionTerms::of(g), g.color, id, p_cam, mean2d, camera)
}

/// Camera-frame mean and pinhole-projected 2D mean of a world point: the
/// scalar projection head.
#[inline]
pub(crate) fn project_mean(camera: &Camera, mean: Vec3) -> (Vec3, Vec2) {
    let p_cam = camera.to_camera(mean);
    let intr = &camera.intrinsics;
    let mean2d = Vec2::new(
        intr.fx * p_cam.x / p_cam.z + intr.cx,
        intr.fy * p_cam.y / p_cam.z + intr.cy,
    );
    (p_cam, mean2d)
}

/// The near-plane cull shared by the scalar and SIMD projection heads. A
/// positive test, so a NaN depth fails it and is culled.
#[inline]
pub(crate) fn in_front_of_near(z: f64) -> bool {
    z > NEAR
}

/// Covariance/conic/culling tail of [`project_gaussian`], starting from the
/// Gaussian's pose-independent terms, a camera-frame mean, and a projected
/// 2D mean. The SIMD projection path vectorizes the transform + pinhole head
/// and finishes each surviving lane here, so both paths share one covariance
/// pipeline bit-for-bit.
pub(crate) fn project_from_cam(
    terms: &ProjectionTerms,
    color: Vec3,
    id: u32,
    p_cam: Vec3,
    mean2d: Vec2,
    camera: &Camera,
) -> Option<ProjectedGaussian> {
    if !terms.opacity.is_finite() {
        return None;
    }
    let intr = &camera.intrinsics;
    // 2D covariance: Σ' = J W Σ Wᵀ Jᵀ + blur·I.
    let w = camera.pose.rotation;
    let sigma_cam = w * terms.covariance * w.transpose();
    let j = projection_jacobian(intr.fx, intr.fy, p_cam);
    let js0 = sigma_cam * j[0];
    let js1 = sigma_cam * j[1];
    let mut cov2d = Mat2::new(
        j[0].dot(js0) + SCREEN_BLUR,
        j[0].dot(js1),
        j[1].dot(js0),
        j[1].dot(js1) + SCREEN_BLUR,
    );
    // Symmetrize against floating-point drift.
    let off = 0.5 * (cov2d.m[1] + cov2d.m[2]);
    cov2d.m[1] = off;
    cov2d.m[2] = off;
    let conic = cov2d.inverse()?;
    let (l1, l2) = cov2d.symmetric_eigenvalues();
    // Negated so that NaN eigenvalues (a NaN scale or rotation) are culled
    // instead of producing a NaN bounding box.
    if !(l1 > 0.0 && l2 > 0.0) {
        return None;
    }
    let r = BBOX_SIGMA * l1.sqrt();
    let radius = Vec2::new(r, r);
    // Frustum culling. The margin is capped: near the image plane the
    // affine (EWA) approximation blows the projected radius up for
    // far-off-axis Gaussians, and an uncapped bbox margin would let those
    // degenerate splats cover the whole screen as phantom surfaces. The
    // reference implementation culls on the *mean* position in NDC with a
    // modest guard band for the same reason.
    let margin = r.min(0.3 * intr.width.max(intr.height) as f64);
    if !intr.in_bounds(mean2d, margin) {
        return None;
    }
    Some(ProjectedGaussian {
        id,
        mean2d,
        conic,
        depth: p_cam.z,
        mean_cam: p_cam,
        opacity: terms.opacity,
        color: color.clamp(0.0, 1.0),
        radius,
    })
}

/// Fixed fan-out granularity for projection (thread-count independent, so
/// the concatenation order of per-chunk outputs never changes).
const PROJECT_CHUNK: usize = 512;

/// Projects the whole scene, returning visible Gaussians (ordered by scene
/// index) and the number culled.
///
/// Each Gaussian projects independently, so this fans out over the worker
/// pool; per-chunk outputs are concatenated in chunk order, making the
/// result identical to a sequential pass for every thread count.
pub fn project_scene(
    scene: &splatonic_scene::GaussianScene,
    camera: &Camera,
    config: &RenderConfig,
) -> (Vec<ProjectedGaussian>, u64) {
    let threads = pool::resolve_threads(config.threads);
    let terms = config
        .kernels
        .simd_active()
        .then(|| scene.projection_terms(threads));
    let chunks =
        pool::par_chunks_indexed(threads, scene.means(), PROJECT_CHUNK, |_, offset, means| {
            let mut out = Vec::with_capacity(means.len());
            let mut culled = 0u64;
            if let Some(terms) = terms {
                crate::simd::project_chunk(scene, terms, offset, means.len(), camera, &mut out);
                culled += (means.len() - out.len()) as u64;
            } else {
                for k in 0..means.len() {
                    let i = offset + k;
                    let g = scene.gaussian(i);
                    match project_gaussian(&g, i as u32, camera) {
                        Some(pg) => out.push(pg),
                        None => culled += 1,
                    }
                }
            }
            (out, culled)
        });
    let mut out = Vec::with_capacity(scene.len());
    let mut culled = 0u64;
    for (chunk_out, chunk_culled) in chunks {
        out.extend(chunk_out);
        culled += chunk_culled;
    }
    (out, culled)
}

/// Evaluates the Mahalanobis power `q = dᵀ conic d ≥ 0` at `pixel`.
#[inline]
pub fn power_at(pg: &ProjectedGaussian, pixel: Vec2) -> f64 {
    let d = pixel - pg.mean2d;
    (pg.conic * d).dot(d).max(0.0)
}

/// Evaluates α at `pixel`: `min(α_max, o·exp(−q/2))`.
///
/// Returns `(alpha, power)`; α-checking compares `alpha` against
/// [`ALPHA_THRESHOLD`].
#[inline]
pub fn alpha_at(pg: &ProjectedGaussian, pixel: Vec2) -> (f64, f64) {
    let q = power_at(pg, pixel);
    let alpha = (pg.opacity * (-0.5 * q).exp()).min(ALPHA_MAX);
    (alpha, q)
}

/// Composites a depth-sorted contribution list into color, depth, and final
/// transmittance (Eq. 1). `contribs` must be front-to-back.
pub fn composite(
    contribs: &[(f64, Vec3, f64)], // (alpha, color, z) front-to-back
) -> (Vec3, f64, f64) {
    let mut t = 1.0;
    let mut color = Vec3::ZERO;
    let mut depth = 0.0;
    for &(alpha, c, z) in contribs {
        let w = t * alpha;
        color += c * w;
        depth += z * w;
        t *= 1.0 - alpha;
    }
    (color, depth, t)
}

/// Sort of projected Gaussians by ascending depth, tie-broken by Gaussian
/// id so both pipelines composite equal-depth splats in the same order.
/// `total_cmp` keeps the comparator a total order even on a NaN depth
/// (projection culls those, so on its output this equals IEEE order).
pub fn sort_by_depth(list: &mut [ProjectedGaussian]) {
    list.sort_by(|a, b| a.depth.total_cmp(&b.depth).then(a.id.cmp(&b.id)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use splatonic_math::{Pose, Quat};
    use splatonic_scene::Intrinsics;

    fn camera() -> Camera {
        Camera::new(Intrinsics::with_fov(128, 96, 1.2), Pose::identity())
    }

    fn gaussian_at(z: f64) -> Gaussian {
        Gaussian::new(
            Vec3::new(0.0, 0.0, z),
            Vec3::splat(0.05),
            Quat::IDENTITY,
            0.9,
            Vec3::new(1.0, 0.0, 0.0),
        )
    }

    #[test]
    fn project_center_gaussian() {
        let cam = camera();
        let pg = project_gaussian(&gaussian_at(2.0), 0, &cam).unwrap();
        assert!((pg.mean2d.x - cam.intrinsics.cx).abs() < 1e-9);
        assert!((pg.mean2d.y - cam.intrinsics.cy).abs() < 1e-9);
        assert!((pg.depth - 2.0).abs() < 1e-12);
    }

    #[test]
    fn behind_camera_culled() {
        let cam = camera();
        assert!(project_gaussian(&gaussian_at(-1.0), 0, &cam).is_none());
    }

    #[test]
    fn far_off_screen_culled() {
        let cam = camera();
        let g = Gaussian::new(
            Vec3::new(100.0, 0.0, 2.0),
            Vec3::splat(0.05),
            Quat::IDENTITY,
            0.9,
            Vec3::ZERO,
        );
        assert!(project_gaussian(&g, 0, &cam).is_none());
    }

    #[test]
    fn alpha_peaks_at_mean() {
        let cam = camera();
        let pg = project_gaussian(&gaussian_at(2.0), 0, &cam).unwrap();
        let (a_center, q_center) = alpha_at(&pg, pg.mean2d);
        let (a_off, _) = alpha_at(&pg, pg.mean2d + Vec2::new(5.0, 0.0));
        assert!(q_center.abs() < 1e-12);
        assert!(a_center > a_off);
        assert!(
            (a_center - 0.9).abs() < 1e-9,
            "alpha at mean equals opacity"
        );
    }

    #[test]
    fn alpha_clamped_at_max() {
        let cam = camera();
        let g = Gaussian::new(
            Vec3::new(0.0, 0.0, 2.0),
            Vec3::splat(0.05),
            Quat::IDENTITY,
            0.9999,
            Vec3::ZERO,
        );
        let pg = project_gaussian(&g, 0, &cam).unwrap();
        let (a, _) = alpha_at(&pg, pg.mean2d);
        assert!(a <= ALPHA_MAX + 1e-12);
    }

    #[test]
    fn projected_covariance_grows_with_scale() {
        let cam = camera();
        let small = project_gaussian(&gaussian_at(2.0), 0, &cam).unwrap();
        let big_g = Gaussian::new(
            Vec3::new(0.0, 0.0, 2.0),
            Vec3::splat(0.2),
            Quat::IDENTITY,
            0.9,
            Vec3::ZERO,
        );
        let big = project_gaussian(&big_g, 0, &cam).unwrap();
        assert!(big.radius.x > small.radius.x * 2.0);
    }

    #[test]
    fn closer_gaussian_projects_larger() {
        let cam = camera();
        let near = project_gaussian(&gaussian_at(1.0), 0, &cam).unwrap();
        let far = project_gaussian(&gaussian_at(4.0), 0, &cam).unwrap();
        assert!(near.radius.x > far.radius.x);
    }

    #[test]
    fn composite_single_opaque() {
        let c = Vec3::new(0.2, 0.4, 0.6);
        let (color, depth, t) = composite(&[(0.99, c, 2.0)]);
        assert!((color - c * 0.99).norm() < 1e-12);
        assert!((depth - 1.98).abs() < 1e-12);
        assert!((t - 0.01).abs() < 1e-12);
    }

    #[test]
    fn composite_order_matters() {
        let red = (0.8, Vec3::new(1.0, 0.0, 0.0), 1.0);
        let blue = (0.8, Vec3::new(0.0, 0.0, 1.0), 2.0);
        let (front_red, _, _) = composite(&[red, blue]);
        let (front_blue, _, _) = composite(&[blue, red]);
        assert!(front_red.x > front_red.z);
        assert!(front_blue.z > front_blue.x);
    }

    #[test]
    fn composite_transmittance_product() {
        let items = [(0.5, Vec3::ZERO, 1.0), (0.25, Vec3::ZERO, 1.0)];
        let (_, _, t) = composite(&items);
        assert!((t - 0.5 * 0.75).abs() < 1e-12);
    }

    #[test]
    fn background_fills_remaining_transmittance() {
        let (color, depth, t) = composite(&[]);
        assert_eq!(t, 1.0);
        assert_eq!(depth, 0.0);
        assert_eq!(color, BACKGROUND);
    }

    #[test]
    fn sort_by_depth_orders_ascending() {
        let cam = camera();
        let mut list: Vec<ProjectedGaussian> = [3.0, 1.0, 2.0]
            .iter()
            .map(|&z| project_gaussian(&gaussian_at(z), 0, &cam).unwrap())
            .collect();
        sort_by_depth(&mut list);
        assert!(list[0].depth < list[1].depth && list[1].depth < list[2].depth);
    }

    #[test]
    fn projection_jacobian_matches_finite_difference() {
        let (fx, fy) = (100.0, 110.0);
        let p = Vec3::new(0.3, -0.4, 2.0);
        let j = projection_jacobian(fx, fy, p);
        let proj = |p: Vec3| Vec2::new(fx * p.x / p.z, fy * p.y / p.z);
        let eps = 1e-7;
        for k in 0..3 {
            let mut dp = p;
            dp[k] += eps;
            let fd = (proj(dp) - proj(p)) / eps;
            assert!((fd.x - j[0][k]).abs() < 1e-4, "row0 col{k}");
            assert!((fd.y - j[1][k]).abs() < 1e-4, "row1 col{k}");
        }
    }

    #[test]
    fn project_scene_counts_culled() {
        let cam = camera();
        let mut scene = splatonic_scene::GaussianScene::new();
        scene.push(gaussian_at(2.0));
        scene.push(gaussian_at(-2.0));
        let (vis, culled) = project_scene(&scene, &cam, &RenderConfig::default());
        assert_eq!(vis.len(), 1);
        assert_eq!(culled, 1);
    }
}
