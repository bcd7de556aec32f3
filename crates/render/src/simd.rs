//! Runtime-detected SIMD implementations of the hot kernels, with the
//! scalar code as the bit-exactness oracle.
//!
//! The four hot kernels — projection (`project_chunk`), preemptive
//! α-checking (`alpha_batch_gaussian`), compositing
//! (`composite_pixel`), and per-pixel gradient accumulation
//! (`pixel_backward_simd`) — get explicit vector paths here. Every shipped
//! lane replicates the scalar operation *order* exactly (same adds in the
//! same association, `exp` evaluated scalar per lane, IEEE min/max with the
//! never-NaN operand second), so SIMD output is **bit-identical** to the
//! scalar oracle on every input. The determinism suite asserts this
//! directly; [`KernelMode`] remains as the A/B harness for future lanes
//! (e.g. a vectorized polynomial `exp`) that would relax the contract.
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

use crate::grad::{CamGradAccumulator, PixelBackwardCounts, GRAD_COMPONENTS};
use crate::kernel::{
    alpha_at, in_front_of_near, project_from_cam, project_mean, ProjectedGaussian, RenderConfig,
};
use crate::Contribution;
use splatonic_math::{Vec2, Vec3};
use splatonic_scene::{Camera, GaussianScene, ProjectionTerms};

/// Kernel implementation selector carried by
/// [`RenderConfig::kernels`](crate::RenderConfig).
///
/// Both modes produce bit-identical output (the SIMD lanes replicate the
/// scalar operation order exactly); the flag is the A/B harness demanded of
/// any future lane that relaxes that contract, and the switch the `kernels`
/// bench bin drives via `--scalar` / `--simd`.
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
        pub(super) fn load(p: &[f64; 4]) -> Self {
            unsafe { F4(_mm256_loadu_pd(p.as_ptr())) }
        }
        #[inline(always)]
        pub(super) fn add(self, r: Self) -> Self {
            unsafe { F4(_mm256_add_pd(self.0, r.0)) }
        }
        #[inline(always)]
        pub(super) fn sub(self, r: Self) -> Self {
            unsafe { F4(_mm256_sub_pd(self.0, r.0)) }
        }
        #[inline(always)]
        pub(super) fn mul(self, r: Self) -> Self {
            unsafe { F4(_mm256_mul_pd(self.0, r.0)) }
        }
        #[inline(always)]
        pub(super) fn div(self, r: Self) -> Self {
            unsafe { F4(_mm256_div_pd(self.0, r.0)) }
        }
        /// Lanewise max matching `f64::max` under the kernel precondition
        /// that `r` is never NaN (`vmaxpd` returns the second operand on
        /// NaN, which is `f64::max`'s answer for a NaN first operand).
        #[inline(always)]
        pub(super) fn max(self, r: Self) -> Self {
            unsafe { F4(_mm256_max_pd(self.0, r.0)) }
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
        pub(super) fn sub(self, r: Self) -> Self {
            unsafe { F4(vsubq_f64(self.0, r.0), vsubq_f64(self.1, r.1)) }
        }
        #[inline(always)]
        pub(super) fn mul(self, r: Self) -> Self {
            unsafe { F4(vmulq_f64(self.0, r.0), vmulq_f64(self.1, r.1)) }
        }
        #[inline(always)]
        pub(super) fn div(self, r: Self) -> Self {
            unsafe { F4(vdivq_f64(self.0, r.0), vdivq_f64(self.1, r.1)) }
        }
        /// `fmaxnm` has `f64::max`'s NaN-ignoring (maxNum) semantics.
        #[inline(always)]
        pub(super) fn max(self, r: Self) -> Self {
            unsafe { F4(vmaxnmq_f64(self.0, r.0), vmaxnmq_f64(self.1, r.1)) }
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
        pub(super) fn load(p: &[f64; 4]) -> Self {
            F4(*p)
        }
        #[inline(always)]
        pub(super) fn add(self, r: Self) -> Self {
            F4(std::array::from_fn(|i| self.0[i] + r.0[i]))
        }
        #[inline(always)]
        pub(super) fn sub(self, r: Self) -> Self {
            F4(std::array::from_fn(|i| self.0[i] - r.0[i]))
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
        pub(super) fn max(self, r: Self) -> Self {
            F4(std::array::from_fn(|i| self.0[i].max(r.0[i])))
        }
        #[inline(always)]
        pub(super) fn to_array(self) -> [f64; 4] {
            self.0
        }
    }
}

use arch::F4;

/// Structure-of-arrays view of a projected-Gaussian list, gathered once per
/// forward/backward pass so the vector kernels load only the attributes
/// they touch (instead of copying whole [`ProjectedGaussian`] records).
///
/// `colorz` packs `[r, g, b, depth]` contiguously per splat: compositing
/// and the backward pass accumulate those four channels in one lane batch.
#[derive(Debug, Clone, Default)]
pub struct ProjectedSoA {
    mx: Vec<f64>,
    my: Vec<f64>,
    c00: Vec<f64>,
    c01: Vec<f64>,
    c10: Vec<f64>,
    c11: Vec<f64>,
    opacity: Vec<f64>,
    colorz: Vec<[f64; 4]>,
    id: Vec<u32>,
}

impl ProjectedSoA {
    /// Scatters an AoS projection list into per-attribute arrays. The f64
    /// values are copied verbatim, so kernels reading either layout see
    /// identical bits.
    pub fn build(projected: &[ProjectedGaussian]) -> Self {
        let n = projected.len();
        let mut s = ProjectedSoA {
            mx: Vec::with_capacity(n),
            my: Vec::with_capacity(n),
            c00: Vec::with_capacity(n),
            c01: Vec::with_capacity(n),
            c10: Vec::with_capacity(n),
            c11: Vec::with_capacity(n),
            opacity: Vec::with_capacity(n),
            colorz: Vec::with_capacity(n),
            id: Vec::with_capacity(n),
        };
        for pg in projected {
            s.mx.push(pg.mean2d.x);
            s.my.push(pg.mean2d.y);
            s.c00.push(pg.conic.m[0]);
            s.c01.push(pg.conic.m[1]);
            s.c10.push(pg.conic.m[2]);
            s.c11.push(pg.conic.m[3]);
            s.opacity.push(pg.opacity);
            s.colorz
                .push([pg.color.x, pg.color.y, pg.color.z, pg.depth]);
            s.id.push(pg.id);
        }
        s
    }

    /// Number of projected Gaussians.
    pub fn len(&self) -> usize {
        self.id.len()
    }

    /// Returns `true` when no Gaussian was projected.
    pub fn is_empty(&self) -> bool {
        self.id.is_empty()
    }
}

/// Pixels-per-projected-splat ratio below which gathering a
/// [`ProjectedSoA`] costs more than the vector kernels save.
const SOA_AMORTIZE: usize = 8;

/// Whether a pass over `pixel_count` pixels amortizes the O(projected) SoA
/// gather. The scalar oracle and the vector kernels produce bit-identical
/// output, so this heuristic moves wall-clock only — never results. Sparse
/// tracking passes (tens of pixels against thousands of projected splats)
/// stay on the scalar path; dense and mapping passes vectorize.
#[inline]
pub fn soa_pays_off(pixel_count: usize, projected_count: usize) -> bool {
    pixel_count.saturating_mul(SOA_AMORTIZE) >= projected_count
}

/// Asserts the vector backend is usable before entering `unsafe` kernel
/// code; turns an API misuse on a non-AVX2 x86 into a panic instead of UB.
#[inline]
fn assert_vector_unit() {
    assert!(
        lanes() > 1,
        "SIMD kernel invoked without a vector unit; gate calls on KernelMode::simd_active()"
    );
}

/// α-check of one projected Gaussian against a batch of pixel centers
/// (`px[k]`, `py[k]`), appending each α to `out`.
///
/// Bit-identical to pushing `alpha_at(pg, (px[k], py[k]), config).0` per
/// element: the quadratic form replicates `Vec2::dot`'s `0.0 + x·x' + y·y'`
/// association per lane, and `exp` stays scalar per lane.
///
/// # Panics
///
/// Panics when called without a vector unit ([`lanes`] == 1).
pub fn alpha_batch_gaussian(
    pg: &ProjectedGaussian,
    px: &[f64],
    py: &[f64],
    config: &RenderConfig,
    out: &mut Vec<f64>,
) {
    assert_vector_unit();
    debug_assert_eq!(px.len(), py.len());
    // SAFETY: `assert_vector_unit` confirmed the target feature at runtime.
    unsafe { alpha_batch_gaussian_impl(pg, px, py, config, out) }
}

#[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2"))]
unsafe fn alpha_batch_gaussian_impl(
    pg: &ProjectedGaussian,
    px: &[f64],
    py: &[f64],
    config: &RenderConfig,
    out: &mut Vec<f64>,
) {
    let n = px.len();
    out.reserve(n);
    let mx = F4::splat(pg.mean2d.x);
    let my = F4::splat(pg.mean2d.y);
    let c00 = F4::splat(pg.conic.m[0]);
    let c01 = F4::splat(pg.conic.m[1]);
    let c10 = F4::splat(pg.conic.m[2]);
    let c11 = F4::splat(pg.conic.m[3]);
    let zero = F4::splat(0.0);
    let mut i = 0;
    while i + 4 <= n {
        let pxv = F4::new(px[i], px[i + 1], px[i + 2], px[i + 3]);
        let pyv = F4::new(py[i], py[i + 1], py[i + 2], py[i + 3]);
        let dx = pxv.sub(mx);
        let dy = pyv.sub(my);
        // u = conic·d, rows (m0·dx + m1·dy, m2·dx + m3·dy).
        let ux = c00.mul(dx).add(c01.mul(dy));
        let uy = c10.mul(dx).add(c11.mul(dy));
        // q = u·d via the oracle's `0.0 + ux·dx + uy·dy`, clamped at 0.
        let q = zero.add(ux.mul(dx)).add(uy.mul(dy)).max(zero).to_array();
        for &qk in &q {
            out.push((pg.opacity * (-0.5 * qk).exp()).min(config.alpha_max));
        }
        i += 4;
    }
    while i < n {
        out.push(alpha_at(pg, Vec2::new(px[i], py[i]), config).0);
        i += 1;
    }
}

/// Front-to-back compositing of one pixel's depth-sorted candidate list
/// (parallel `projs` / `alphas` arrays — the SoA form of the per-pixel
/// entry list).
///
/// The four color/depth channels `[r, g, b, z]` ride one lane batch through
/// `acc += colorz[proj] · (Γ·α)`; the transmittance recurrence stays
/// scalar (it is serial by definition). Returns
/// `([r, g, b, depth], final transmittance, pairs integrated)` — bitwise
/// the scalar raster loop's sums — and pushes one [`Contribution`] per
/// integrated pair.
///
/// # Panics
///
/// Panics when called without a vector unit ([`lanes`] == 1).
pub fn composite_pixel(
    projs: &[u32],
    alphas: &[f64],
    soa: &ProjectedSoA,
    transmittance_min: f64,
    contribs: &mut Vec<Contribution>,
) -> ([f64; 4], f64, usize) {
    assert_vector_unit();
    debug_assert_eq!(projs.len(), alphas.len());
    // SAFETY: `assert_vector_unit` confirmed the target feature at runtime.
    unsafe { composite_pixel_impl(projs, alphas, soa, transmittance_min, contribs) }
}

#[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2"))]
unsafe fn composite_pixel_impl(
    projs: &[u32],
    alphas: &[f64],
    soa: &ProjectedSoA,
    transmittance_min: f64,
    contribs: &mut Vec<Contribution>,
) -> ([f64; 4], f64, usize) {
    let mut t = 1.0;
    let mut acc = F4::splat(0.0);
    let mut used = 0usize;
    for (&proj, &alpha) in projs.iter().zip(alphas) {
        if t < transmittance_min {
            break;
        }
        let proj = proj as usize;
        let w = t * alpha;
        acc = acc.add(F4::load(&soa.colorz[proj]).mul(F4::splat(w)));
        contribs.push(Contribution {
            gaussian: soa.id[proj],
            alpha,
            transmittance: t,
        });
        t *= 1.0 - alpha;
        used += 1;
    }
    (acc.to_array(), t, used)
}

/// Reverse color integration for one pixel — the vector twin of
/// [`pixel_backward`](crate::grad::pixel_backward), reading gathered SoA
/// attributes instead of copying whole projection records.
///
/// Lane batch: `[r, g, b, z]` channels share one vector for the direct
/// gradients (`∂L/∂color`, `∂L/∂z`), the α chain (`∂C/∂α`, `∂D/∂α`), and
/// the suffix sums. Lane 3 of the background term carries `-0.0` so the
/// depth suffix picks up no bias (`x + -0.0 == x` bitwise for every `x`).
/// The `∂L/∂α` reduction extracts the four products and sums them in the
/// oracle's association `((0 + p₀) + p₁ + p₂) + p₃`, so the result is
/// bit-identical.
///
/// # Panics
///
/// Panics when called without a vector unit ([`lanes`] == 1).
#[allow(clippy::too_many_arguments)]
pub fn pixel_backward_simd(
    pixel: Vec2,
    contribs: &[Contribution],
    soa: &ProjectedSoA,
    proj_of_id: &[u32],
    dl_dc: Vec3,
    dl_dd: f64,
    config: &RenderConfig,
    background: Vec3,
    accum: &mut CamGradAccumulator,
) -> PixelBackwardCounts {
    assert_vector_unit();
    // SAFETY: `assert_vector_unit` confirmed the target feature at runtime.
    unsafe {
        pixel_backward_impl(
            pixel, contribs, soa, proj_of_id, dl_dc, dl_dd, config, background, accum,
        )
    }
}

#[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2"))]
#[allow(clippy::too_many_arguments)]
unsafe fn pixel_backward_impl(
    pixel: Vec2,
    contribs: &[Contribution],
    soa: &ProjectedSoA,
    proj_of_id: &[u32],
    dl_dc: Vec3,
    dl_dd: f64,
    config: &RenderConfig,
    background: Vec3,
    accum: &mut CamGradAccumulator,
) -> PixelBackwardCounts {
    let mut counts = PixelBackwardCounts::default();
    if contribs.is_empty() {
        return counts;
    }
    let mut t_final = 1.0;
    for c in contribs {
        t_final *= 1.0 - c.alpha;
    }
    let dldc4 = F4::new(dl_dc.x, dl_dc.y, dl_dc.z, dl_dd);
    // Lane 3 carries -0.0: the depth channel has no background term, and
    // `suffix_z + -0.0` is bitwise `suffix_z` for every value.
    let bgterm = F4::new(
        background.x * t_final,
        background.y * t_final,
        background.z * t_final,
        -0.0,
    );
    let mut sfx = F4::splat(0.0);
    for c in contribs.iter().rev() {
        let proj = proj_of_id[c.gaussian as usize] as usize;
        let colorz = F4::load(&soa.colorz[proj]);
        let w = c.transmittance * c.alpha;
        let dl4 = dldc4.mul(F4::splat(w)); // [∂L/∂color · w, ∂L/∂z · w]
        let one_minus = (1.0 - c.alpha).max(1e-6);
        let dalpha4 = colorz
            .mul(F4::splat(c.transmittance))
            .sub(sfx.add(bgterm).div(F4::splat(one_minus)));
        let p = dldc4.mul(dalpha4).to_array();
        // Oracle order: dl_dc.dot(dc_dalpha) + dl_dd * dd_dalpha.
        let dl_dalpha = ((0.0 + p[0]) + p[1] + p[2]) + p[3];
        let opacity = soa.opacity[proj];
        let g_val = c.alpha / opacity;
        let clamped = c.alpha >= config.alpha_max - 1e-12;
        let (dl_do, dl_dg) = if clamped {
            (0.0, 0.0)
        } else {
            (g_val * dl_dalpha, opacity * dl_dalpha)
        };
        let dl_dq = -0.5 * g_val * dl_dg;
        let dx = pixel.x - soa.mx[proj];
        let dy = pixel.y - soa.my[proj];
        let ux = soa.c00[proj] * dx + soa.c01[proj] * dy;
        let uy = soa.c10[proj] * dx + soa.c11[proj] * dy;
        let dl_dcov = [-dl_dq * ux * ux, -dl_dq * ux * uy, -dl_dq * uy * uy];
        let dla = dl4.to_array();
        let e = accum.entry(c.gaussian);
        e.mean2d += Vec2::new(-2.0 * dl_dq * ux, -2.0 * dl_dq * uy);
        e.cov2d[0] += dl_dcov[0];
        e.cov2d[1] += dl_dcov[1];
        e.cov2d[2] += dl_dcov[2];
        e.depth += dla[3];
        e.color += Vec3::new(dla[0], dla[1], dla[2]);
        e.opacity += dl_do;
        e.count += 1;
        counts.pairs += 1;
        counts.atomic_adds += GRAD_COMPONENTS;
        sfx = sfx.add(colorz.mul(F4::splat(w)));
    }
    counts
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
    config: &RenderConfig,
    out: &mut Vec<ProjectedGaussian>,
) {
    assert_vector_unit();
    // SAFETY: `assert_vector_unit` confirmed the target feature at runtime.
    unsafe { project_chunk_impl(scene, terms, offset, len, camera, config, out) }
}

#[cfg_attr(target_arch = "x86_64", target_feature(enable = "avx2"))]
unsafe fn project_chunk_impl(
    scene: &GaussianScene,
    terms: &[ProjectionTerms],
    offset: usize,
    len: usize,
    camera: &Camera,
    config: &RenderConfig,
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
        if !in_front_of_near(p_cam.z, config) {
            return;
        }
        let id = (offset + k) as u32;
        if let Some(pg) = project_from_cam(&terms[k], colors[k], id, p_cam, mean2d, camera, config)
        {
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
    fn soa_mirrors_projection_list() {
        let cfg = RenderConfig::default();
        let (projected, _) = crate::kernel::project_scene(&scene(), &camera(), &cfg);
        assert!(!projected.is_empty());
        let soa = ProjectedSoA::build(&projected);
        assert_eq!(soa.len(), projected.len());
        for (i, pg) in projected.iter().enumerate() {
            assert_eq!(soa.mx[i].to_bits(), pg.mean2d.x.to_bits());
            assert_eq!(soa.c01[i].to_bits(), pg.conic.m[1].to_bits());
            assert_eq!(soa.colorz[i][3].to_bits(), pg.depth.to_bits());
            assert_eq!(soa.id[i], pg.id);
        }
    }

    #[test]
    fn project_chunk_matches_scalar_bitwise() {
        if lanes() == 1 {
            return;
        }
        let s = scene();
        let cam = camera();
        let cfg = RenderConfig::default();
        let mut simd_out = Vec::new();
        project_chunk(
            &s,
            s.projection_terms(1),
            0,
            s.len(),
            &cam,
            &cfg,
            &mut simd_out,
        );
        let mut scalar_out = Vec::new();
        for i in 0..s.len() {
            if let Some(pg) = project_gaussian(&s.gaussian(i), i as u32, &cam, &cfg) {
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

    #[test]
    fn alpha_batches_match_scalar_bitwise() {
        if lanes() == 1 {
            return;
        }
        let cfg = RenderConfig::default();
        let (projected, _) = crate::kernel::project_scene(&scene(), &camera(), &cfg);
        // Odd-length batches exercise the scalar tails too.
        let pts: Vec<Vec2> = (0..13)
            .map(|k| Vec2::new(3.0 + 4.7 * k as f64, 2.0 + 3.1 * k as f64))
            .collect();
        let px: Vec<f64> = pts.iter().map(|p| p.x).collect();
        let py: Vec<f64> = pts.iter().map(|p| p.y).collect();
        for pg in &projected {
            let mut batched = Vec::new();
            alpha_batch_gaussian(pg, &px, &py, &cfg, &mut batched);
            for (k, p) in pts.iter().enumerate() {
                assert_eq!(batched[k].to_bits(), alpha_at(pg, *p, &cfg).0.to_bits());
            }
        }
    }

    #[test]
    fn composite_matches_scalar_bitwise() {
        if lanes() == 1 {
            return;
        }
        let cfg = RenderConfig::default();
        let (projected, _) = crate::kernel::project_scene(&scene(), &camera(), &cfg);
        let soa = ProjectedSoA::build(&projected);
        let projs: Vec<u32> = (0..projected.len() as u32).collect();
        let alphas: Vec<f64> = projected
            .iter()
            .enumerate()
            .map(|(i, _)| 0.05 + 0.11 * (i % 9) as f64)
            .collect();
        let mut contribs = Vec::new();
        let (acc, t, used) =
            composite_pixel(&projs, &alphas, &soa, cfg.transmittance_min, &mut contribs);
        // Scalar oracle (the pixel.rs raster loop).
        let mut st = 1.0;
        let mut c = Vec3::ZERO;
        let mut d = 0.0;
        let mut sused = 0;
        let mut scontribs = Vec::new();
        for (e, &alpha) in projs.iter().zip(&alphas) {
            if st < cfg.transmittance_min {
                break;
            }
            let pg = &projected[*e as usize];
            let w = st * alpha;
            c += pg.color * w;
            d += pg.depth * w;
            scontribs.push(Contribution {
                gaussian: pg.id,
                alpha,
                transmittance: st,
            });
            st *= 1.0 - alpha;
            sused += 1;
        }
        assert_eq!(used, sused);
        assert_eq!(t.to_bits(), st.to_bits());
        assert_eq!(acc[0].to_bits(), c.x.to_bits());
        assert_eq!(acc[1].to_bits(), c.y.to_bits());
        assert_eq!(acc[2].to_bits(), c.z.to_bits());
        assert_eq!(acc[3].to_bits(), d.to_bits());
        assert_eq!(contribs.len(), scontribs.len());
        for (a, b) in contribs.iter().zip(&scontribs) {
            assert_eq!(a.gaussian, b.gaussian);
            assert_eq!(a.transmittance.to_bits(), b.transmittance.to_bits());
        }
    }

    #[test]
    fn backward_matches_scalar_bitwise() {
        if lanes() == 1 {
            return;
        }
        let cfg = RenderConfig::default();
        let s = scene();
        let (projected, _) = crate::kernel::project_scene(&s, &camera(), &cfg);
        let soa = ProjectedSoA::build(&projected);
        let mut proj_of_id = vec![u32::MAX; s.len()];
        for (pi, pg) in projected.iter().enumerate() {
            proj_of_id[pg.id as usize] = pi as u32;
        }
        let lookup = |id: u32| projected[proj_of_id[id as usize] as usize];
        let mut t = 1.0;
        let contribs: Vec<Contribution> = projected
            .iter()
            .enumerate()
            .map(|(i, pg)| {
                let alpha = (0.03 + 0.09 * (i % 10) as f64).min(pg.opacity);
                let c = Contribution {
                    gaussian: pg.id,
                    alpha,
                    transmittance: t,
                };
                t *= 1.0 - alpha;
                c
            })
            .collect();
        let pixel = Vec2::new(31.5, 23.5);
        let dl_dc = Vec3::new(0.4, -0.3, 0.2);
        let dl_dd = 0.07;
        let bg = Vec3::new(0.1, 0.2, 0.3);
        let mut acc_simd = CamGradAccumulator::new(s.len());
        acc_simd.reset(s.len());
        let counts_simd = pixel_backward_simd(
            pixel,
            &contribs,
            &soa,
            &proj_of_id,
            dl_dc,
            dl_dd,
            &cfg,
            bg,
            &mut acc_simd,
        );
        let mut acc_scalar = CamGradAccumulator::new(s.len());
        acc_scalar.reset(s.len());
        let counts_scalar = crate::grad::pixel_backward(
            pixel,
            &contribs,
            &lookup,
            dl_dc,
            dl_dd,
            &cfg,
            bg,
            &mut acc_scalar,
        );
        assert_eq!(counts_simd, counts_scalar);
        assert_eq!(acc_simd.touched(), acc_scalar.touched());
        for &id in acc_scalar.touched() {
            let a = acc_simd.get(id);
            let b = acc_scalar.get(id);
            assert_eq!(a.mean2d.x.to_bits(), b.mean2d.x.to_bits());
            assert_eq!(a.mean2d.y.to_bits(), b.mean2d.y.to_bits());
            for k in 0..3 {
                assert_eq!(a.cov2d[k].to_bits(), b.cov2d[k].to_bits());
            }
            assert_eq!(a.depth.to_bits(), b.depth.to_bits());
            assert_eq!(a.color.x.to_bits(), b.color.x.to_bits());
            assert_eq!(a.color.y.to_bits(), b.color.y.to_bits());
            assert_eq!(a.color.z.to_bits(), b.color.z.to_bits());
            assert_eq!(a.opacity.to_bits(), b.opacity.to_bits());
            assert_eq!(a.count, b.count);
        }
    }
}
