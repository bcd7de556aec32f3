//! Runtime-detected SIMD implementations of the hot kernels, with the
//! scalar code as the bit-exactness oracle.
//!
//! One kernel gets an explicit vector path here: projection
//! (`project_chunk`, run by every tracking and mapping iteration). The
//! pixel forward (preemptive α-checking and compositing) and the per-pixel
//! gradient of the backward have one scalar path each: their vector
//! versions measured within run-to-run noise end to end (DESIGN.md §13).
//! The shipped lanes replicate the scalar operation *order* exactly (same
//! adds in the same association), so SIMD output is **bit-identical** to
//! the scalar oracle on every input. The determinism suite asserts this
//! directly; [`KernelMode`] is the A/B switch that suite and the `kernels`
//! bench drive.
//!
//! Backend selection is per-architecture at compile time and per-CPU at
//! runtime:
//!
//! * `x86_64`: AVX2 (`__m256d`, four `f64` lanes), detected once via
//!   `is_x86_feature_detected!` and cached,
//! * `aarch64`: NEON (two `float64x2_t` halves; baseline feature, no
//!   runtime check),
//! * elsewhere: a portable `[f64; 4]` mirror, with [`lanes`] reporting 1 so
//!   the pipelines keep the plain scalar path.
//!
//! See DESIGN.md §13 for the layout and performance model.

use crate::kernel::{in_front_of_near, project_from_cam, project_mean, ProjectedGaussian};
use splatonic_math::{Vec2, Vec3};
use splatonic_scene::{Camera, GaussianScene, ProjectionTerms};

/// Kernel implementation selector carried by
/// [`RenderConfig::kernels`](crate::RenderConfig).
///
/// Selects between the scalar oracle and the vector projection kernel
/// (`project_chunk`). Both modes produce
/// bit-identical output (the SIMD lanes replicate the scalar operation
/// order exactly); the flag is the A/B switch the scalar≡SIMD determinism
/// tests and the `kernels` bench bin (`--scalar` / `--simd`) drive, so the
/// kernel can keep showing that it pays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelMode {
    /// Always use the scalar oracle kernels.
    Scalar,
    /// Use the vector kernels where the CPU supports them (default).
    /// Falls back to scalar automatically when [`lanes`] reports 1.
    #[default]
    Simd,
}

impl KernelMode {
    /// `true` when this mode selects the vector kernels *and* the CPU has a
    /// usable vector unit ([`lanes`] > 1).
    #[inline]
    pub fn simd_active(self) -> bool {
        self == KernelMode::Simd && lanes() > 1
    }

    /// Stable label for telemetry and bench reports.
    pub fn label(self) -> &'static str {
        match self {
            KernelMode::Scalar => "scalar",
            KernelMode::Simd => "simd",
        }
    }
}

/// Hardware `f64` lane width available to the vector kernels: 4 on x86-64
/// with AVX2, 2 on aarch64 (NEON), 1 elsewhere (scalar fallback).
///
/// Detected once per process; also exported as the `render/simd_lanes`
/// counter so bench baselines pin the CI vector width.
#[cfg(target_arch = "x86_64")]
pub fn lanes() -> usize {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static LANES: AtomicUsize = AtomicUsize::new(0);
    match LANES.load(Ordering::Relaxed) {
        0 => {
            let l = if is_x86_feature_detected!("avx2") {
                4
            } else {
                1
            };
            LANES.store(l, Ordering::Relaxed);
            l
        }
        l => l,
    }
}

/// Hardware `f64` lane width (NEON baseline on aarch64).
#[cfg(target_arch = "aarch64")]
pub fn lanes() -> usize {
    2
}

/// Hardware `f64` lane width (no vector backend on this architecture).
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
pub fn lanes() -> usize {
    1
}

#[cfg(target_arch = "x86_64")]
mod arch {
    //! AVX2 backend: one `__m256d` carries the four-element batch.
    //!
    //! Methods are `#[inline(always)]` so they fold into the
    //! `#[target_feature(enable = "avx2")]` kernel bodies. The intrinsic
    //! calls are sound because the kernels assert `lanes() > 1` (runtime
    //! AVX2 detection) before entering vector code.
    use core::arch::x86_64::*;

    #[derive(Clone, Copy)]
    pub(super) struct F4(__m256d);

    impl F4 {
        #[inline(always)]
        pub(super) fn splat(v: f64) -> Self {
            unsafe { F4(_mm256_set1_pd(v)) }
        }
        #[inline(always)]
        pub(super) fn new(a: f64, b: f64, c: f64, d: f64) -> Self {
            unsafe { F4(_mm256_setr_pd(a, b, c, d)) }
        }
        #[inline(always)]
        pub(super) fn add(self, r: Self) -> Self {
            unsafe { F4(_mm256_add_pd(self.0, r.0)) }
        }
        #[inline(always)]
        pub(super) fn mul(self, r: Self) -> Self {
            unsafe { F4(_mm256_mul_pd(self.0, r.0)) }
        }
        #[inline(always)]
        pub(super) fn div(self, r: Self) -> Self {
            unsafe { F4(_mm256_div_pd(self.0, r.0)) }
        }
        #[inline(always)]
        pub(super) fn to_array(self) -> [f64; 4] {
            let mut out = [0.0; 4];
            unsafe { _mm256_storeu_pd(out.as_mut_ptr(), self.0) };
            out
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod arch {
    //! NEON backend: two `float64x2_t` halves carry the four-element batch.
    #![allow(unused_unsafe)]
    use core::arch::aarch64::*;

    #[derive(Clone, Copy)]
    pub(super) struct F4(float64x2_t, float64x2_t);

    impl F4 {
        #[inline(always)]
        pub(super) fn splat(v: f64) -> Self {
            unsafe { F4(vdupq_n_f64(v), vdupq_n_f64(v)) }
        }
        #[inline(always)]
        pub(super) fn new(a: f64, b: f64, c: f64, d: f64) -> Self {
            Self::load(&[a, b, c, d])
        }
        #[inline(always)]
        pub(super) fn load(p: &[f64; 4]) -> Self {
            unsafe { F4(vld1q_f64(p.as_ptr()), vld1q_f64(p.as_ptr().add(2))) }
        }
        #[inline(always)]
        pub(super) fn add(self, r: Self) -> Self {
            unsafe { F4(vaddq_f64(self.0, r.0), vaddq_f64(self.1, r.1)) }
        }
        #[inline(always)]
        pub(super) fn mul(self, r: Self) -> Self {
            unsafe { F4(vmulq_f64(self.0, r.0), vmulq_f64(self.1, r.1)) }
        }
        #[inline(always)]
        pub(super) fn div(self, r: Self) -> Self {
            unsafe { F4(vdivq_f64(self.0, r.0), vdivq_f64(self.1, r.1)) }
        }
        #[inline(always)]
        pub(super) fn to_array(self) -> [f64; 4] {
            let mut out = [0.0; 4];
            unsafe {
                vst1q_f64(out.as_mut_ptr(), self.0);
                vst1q_f64(out.as_mut_ptr().add(2), self.1);
            }
            out
        }
    }
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
mod arch {
    //! Portable mirror so the kernels compile everywhere. `lanes()` is 1 on
    //! these targets, so the pipelines never dispatch here; the bodies
    //! remain exact scalar replicas regardless.
    #[derive(Clone, Copy)]
    pub(super) struct F4([f64; 4]);

    impl F4 {
        #[inline(always)]
        pub(super) fn splat(v: f64) -> Self {
            F4([v; 4])
        }
        #[inline(always)]
        pub(super) fn new(a: f64, b: f64, c: f64, d: f64) -> Self {
            F4([a, b, c, d])
        }
        #[inline(always)]
        pub(super) fn add(self, r: Self) -> Self {
            F4(std::array::from_fn(|i| self.0[i] + r.0[i]))
        }
        #[inline(always)]
        pub(super) fn mul(self, r: Self) -> Self {
            F4(std::array::from_fn(|i| self.0[i] * r.0[i]))
        }
        #[inline(always)]
        pub(super) fn div(self, r: Self) -> Self {
            F4(std::array::from_fn(|i| self.0[i] / r.0[i]))
        }
        #[inline(always)]
        pub(super) fn to_array(self) -> [f64; 4] {
            self.0
        }
    }
}

use arch::F4;

/// Asserts the vector backend is usable before entering `unsafe` kernel
/// code; turns an API misuse on a non-AVX2 x86 into a panic instead of UB.
#[inline]
fn assert_vector_unit() {
    assert!(
        lanes() > 1,
        "SIMD kernel invoked without a vector unit; gate calls on KernelMode::simd_active()"
    );
}

/// Projects `len` scene Gaussians starting at `offset`, appending the
/// survivors to `out` in index order — bitwise the same records
/// `project_gaussian` emits for each index.
///
/// `terms` is the scene's
/// [`projection_terms`](splatonic_scene::GaussianScene::projection_terms)
/// column, so the per-Gaussian covariance and opacity are read, not
/// recomputed. The camera transform and pinhole projection run four
/// Gaussians per lane batch; surviving lanes finish through the shared
/// scalar tail (`project_from_cam`). Vectorizing that tail (Σ' →
/// conic/eigenvalues) is the documented future lane in DESIGN.md §13.
///
/// # Panics
///
/// Panics when called without a vector unit ([`lanes`] == 1), or when
/// `offset + len` exceeds the scene or `terms`.
pub fn project_chunk(
    scene: &GaussianScene,
    terms: &[ProjectionTerms],
    offset: usize,
    len: usize,
    camera: &Camera,
    out: &mut Vec<ProjectedGaussian>,
) {
    assert_vector_unit();
    // SAFETY: `assert_vector_unit` confirmed the target feature at runtime.
    unsafe { project_chunk_impl(scene, terms, offset, len, camera, out) }
}

#[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2"))]
unsafe fn project_chunk_impl(
    scene: &GaussianScene,
    terms: &[ProjectionTerms],
    offset: usize,
    len: usize,
    camera: &Camera,
    out: &mut Vec<ProjectedGaussian>,
) {
    let means = &scene.means()[offset..offset + len];
    let terms = &terms[offset..offset + len];
    let colors = &scene.colors()[offset..offset + len];
    let r = camera.pose.rotation.m;
    let tr = camera.pose.translation;
    let intr = &camera.intrinsics;
    let rv: [F4; 9] = std::array::from_fn(|i| F4::splat(r[i]));
    let (tx, ty, tz) = (F4::splat(tr.x), F4::splat(tr.y), F4::splat(tr.z));
    let (fx, fy) = (F4::splat(intr.fx), F4::splat(intr.fy));
    let (cx, cy) = (F4::splat(intr.cx), F4::splat(intr.cy));
    // The tail shared by the lane batches and the scalar remainder.
    let mut finish = |k: usize, p_cam: Vec3, mean2d: Vec2| {
        if !in_front_of_near(p_cam.z) {
            return;
        }
        let id = (offset + k) as u32;
        if let Some(pg) = project_from_cam(&terms[k], colors[k], id, p_cam, mean2d, camera) {
            out.push(pg);
        }
    };
    let mut i = 0;
    while i + 4 <= len {
        let m = &means[i..i + 4];
        let xs = F4::new(m[0].x, m[1].x, m[2].x, m[3].x);
        let ys = F4::new(m[0].y, m[1].y, m[2].y, m[3].y);
        let zs = F4::new(m[0].z, m[1].z, m[2].z, m[3].z);
        // p_cam = R·p + t, row-major rows in the oracle's association
        // ((m₀x + m₁y) + m₂z) + tᵢ.
        let px = rv[0].mul(xs).add(rv[1].mul(ys)).add(rv[2].mul(zs)).add(tx);
        let py = rv[3].mul(xs).add(rv[4].mul(ys)).add(rv[5].mul(zs)).add(ty);
        let pz = rv[6].mul(xs).add(rv[7].mul(ys)).add(rv[8].mul(zs)).add(tz);
        // Pinhole: ((f·p)/z) + c, matching the scalar expression order.
        let mx = fx.mul(px).div(pz).add(cx).to_array();
        let my = fy.mul(py).div(pz).add(cy).to_array();
        let (pxa, pya, pza) = (px.to_array(), py.to_array(), pz.to_array());
        for k in 0..4 {
            finish(
                i + k,
                Vec3::new(pxa[k], pya[k], pza[k]),
                Vec2::new(mx[k], my[k]),
            );
        }
        i += 4;
    }
    while i < len {
        let (p_cam, mean2d) = project_mean(camera, means[i]);
        finish(i, p_cam, mean2d);
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::project_gaussian;
    use splatonic_math::{Pose, Quat};
    use splatonic_scene::{Gaussian, Intrinsics};

    fn scene() -> GaussianScene {
        let mut s = GaussianScene::new();
        for i in 0..23 {
            let f = i as f64;
            s.push(Gaussian::new(
                Vec3::new(0.17 * f - 1.5, 0.09 * (f - 7.0), 2.0 + 0.21 * f),
                Vec3::new(0.05 + 0.003 * f, 0.06, 0.04),
                Quat::from_axis_angle(Vec3::new(0.3, 1.0, -0.2), 0.17 * f),
                0.1 + 0.035 * f,
                Vec3::new(0.04 * f, 1.0 - 0.04 * f, 0.5),
            ));
        }
        s
    }

    fn camera() -> Camera {
        Camera::new(
            Intrinsics::with_fov(64, 48, 1.2),
            Pose::new(
                Quat::from_axis_angle(Vec3::Y, 0.1).to_rotation_matrix(),
                Vec3::new(0.05, -0.02, 0.1),
            ),
        )
    }

    #[test]
    fn lanes_is_stable_and_positive() {
        let l = lanes();
        assert!(l >= 1);
        assert_eq!(l, lanes());
    }

    #[test]
    fn simd_active_requires_simd_mode() {
        assert!(!KernelMode::Scalar.simd_active());
        assert_eq!(KernelMode::Simd.simd_active(), lanes() > 1);
        assert_eq!(KernelMode::default(), KernelMode::Simd);
    }

    #[test]
    fn project_chunk_matches_scalar_bitwise() {
        if lanes() == 1 {
            return;
        }
        let s = scene();
        let cam = camera();
        let mut simd_out = Vec::new();
        project_chunk(&s, s.projection_terms(1), 0, s.len(), &cam, &mut simd_out);
        let mut scalar_out = Vec::new();
        for i in 0..s.len() {
            if let Some(pg) = project_gaussian(&s.gaussian(i), i as u32, &cam) {
                scalar_out.push(pg);
            }
        }
        assert_eq!(simd_out.len(), scalar_out.len());
        for (a, b) in simd_out.iter().zip(&scalar_out) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.mean2d.x.to_bits(), b.mean2d.x.to_bits());
            assert_eq!(a.mean2d.y.to_bits(), b.mean2d.y.to_bits());
            assert_eq!(a.conic.m[0].to_bits(), b.conic.m[0].to_bits());
            assert_eq!(a.depth.to_bits(), b.depth.to_bits());
        }
    }
}
