//! The schedule-independent half of both backward pipelines.
//!
//! Following the paper's decomposition (Fig. 3), the backward pass is:
//!
//! 1. **Reverse rasterization** — per pixel–Gaussian pair, compute the
//!    partial gradients of the loss w.r.t. the pair's screen-space
//!    quantities (projected mean, projected covariance, depth, color,
//!    opacity); implemented by [`pixel_backward`].
//! 2. **Aggregation** — sum the partial gradients into per-Gaussian
//!    accumulators (the `atomicAdd` stage on GPUs); implemented by
//!    [`CamGradAccumulator`].
//! 3. **Re-projection** — transform the accumulated camera-space gradients
//!    into world-space parameter gradients (mapping) or into the
//!    camera-pose tangent (tracking), whichever the caller requests
//!    ([`GradRequest`]); implemented by [`reproject`].
//!
//! Only the order in which pixels are walked depends on the schedule. The
//! pixel and tile pipelines each own their walk and its trace counters;
//! everything else — the id → projection index, the per-pair gradient
//! call, the pooled fan-out, the chunk-order merge and re-projection — is
//! the one `run_backward` here.
//!
//! Tracking pose gradients flow through the projected means and depths
//! (`∂p_cam/∂ξ = [I | −[p_cam]×]` for a left-multiplicative update); the
//! covariance-orientation dependence on pose is dropped (standard
//! SplaTAM-style approximation; see DESIGN.md §5).

use crate::kernel::{projection_jacobian, ProjectedGaussian, RenderConfig, ALPHA_MAX};
use crate::loss::LossGrad;
use crate::pixelset::{PixelCoord, PixelSet};
use crate::trace::{bytes, BackwardStats, RenderTrace};
use crate::{Contribution, PixelLists};
use splatonic_math::{pool, Mat2, Mat3, Se3, Vec2, Vec3};
use splatonic_scene::{Camera, Gaussian, GaussianScene};
use std::sync::Mutex;

/// Gradient of the loss w.r.t. one Gaussian's trainable parameters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GaussianParamGrad {
    /// ∂L/∂mean (world).
    pub mean: Vec3,
    /// ∂L/∂log_scale.
    pub log_scale: Vec3,
    /// ∂L/∂rotation (raw quaternion storage, `[w, x, y, z]`).
    pub rotation: [f64; 4],
    /// ∂L/∂opacity_logit.
    pub opacity_logit: f64,
    /// ∂L/∂color.
    pub color: Vec3,
}

/// Per-Gaussian gradients for the touched subset of the scene.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SceneGrads {
    /// `(gaussian index, gradient)` pairs, unordered.
    pub entries: Vec<(u32, GaussianParamGrad)>,
}

impl SceneGrads {
    /// Number of Gaussians with gradients.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no Gaussian received a gradient.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up the gradient for Gaussian `id` (linear scan; test helper).
    pub fn get(&self, id: u32) -> Option<&GaussianParamGrad> {
        self.entries.iter().find(|(i, _)| *i == id).map(|(_, g)| g)
    }
}

/// Gradient of the loss w.r.t. the camera pose, in the left tangent space.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PoseGrad {
    /// ∂L/∂ξ for the update `pose ← exp(−η·ξ̂) ∘ pose`.
    pub xi: Se3,
}

/// Accumulated camera-space gradients for one Gaussian (pre-re-projection).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CamGrad {
    /// ∂L/∂μ' (projected 2D mean).
    pub mean2d: Vec2,
    /// ∂L/∂Σ' upper triangle `[xx, xy, yy]` (symmetric).
    pub cov2d: [f64; 3],
    /// ∂L/∂z from depth compositing.
    pub depth: f64,
    /// ∂L/∂color.
    pub color: Vec3,
    /// ∂L/∂opacity (natural opacity, chained to logit at re-projection).
    pub opacity: f64,
    /// Number of pixel contributions aggregated.
    pub count: u32,
}

/// Accumulator over Gaussian ids with an epoch-based lazy reset, so
/// repeated backward passes reuse the allocation.
///
/// The per-id state is only an epoch stamp (zero-initialised) and a slot
/// index into a gradient column filled in first-touch order, so a pass that
/// touches a small subset of a large scene reads and writes little more
/// than that subset: the gradients themselves live in a `Vec` as long as
/// the touched list, not in a scene-sized array.
#[derive(Debug, Clone, Default)]
pub struct CamGradAccumulator {
    /// Per id: the epoch of its last touch (0 = never).
    epoch: Vec<u32>,
    /// Per id: its index into `grads`, valid when `epoch[id] == current`.
    slot: Vec<u32>,
    current: u32,
    touched: Vec<u32>,
    /// Gradients of the touched ids, parallel to `touched`.
    grads: Vec<CamGrad>,
}

impl CamGradAccumulator {
    /// Creates an accumulator sized for `n` Gaussians.
    pub fn new(n: usize) -> Self {
        CamGradAccumulator {
            epoch: vec![0; n],
            slot: vec![0; n],
            current: 1,
            touched: Vec::new(),
            grads: Vec::new(),
        }
    }

    /// Clears all accumulated gradients (O(1) amortized).
    pub fn reset(&mut self, n: usize) {
        if self.epoch.len() < n {
            self.epoch.resize(n, 0);
            self.slot.resize(n, 0);
        }
        self.current = self.current.wrapping_add(1);
        if self.current == 0 {
            // Epoch wrapped: do a real clear.
            self.epoch.fill(0);
            self.current = 1;
        }
        self.touched.clear();
        self.grads.clear();
    }

    /// Mutable access to Gaussian `id`'s accumulator, zeroing it on first
    /// touch this epoch.
    pub fn entry(&mut self, id: u32) -> &mut CamGrad {
        let i = id as usize;
        if self.epoch[i] != self.current {
            self.epoch[i] = self.current;
            self.slot[i] = self.grads.len() as u32;
            self.grads.push(CamGrad::default());
            self.touched.push(id);
        }
        &mut self.grads[self.slot[i] as usize]
    }

    /// Ids touched this epoch, in first-touch order.
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// Read-only access (zero if untouched this epoch).
    pub fn get(&self, id: u32) -> CamGrad {
        let i = id as usize;
        if i < self.epoch.len() && self.epoch[i] == self.current {
            self.grads[self.slot[i] as usize]
        } else {
            CamGrad::default()
        }
    }

    /// Adds another accumulator's entry for `id` into this one.
    ///
    /// Used by the parallel backward passes: each pool chunk accumulates
    /// into a private accumulator, and the partials are merged in chunk
    /// order so the final sums are identical for every worker count. The
    /// destructuring is exhaustive (no `..`) so a new [`CamGrad`] field
    /// cannot be silently dropped from the merge.
    pub fn merge_entry(&mut self, id: u32, other: &CamGrad) {
        let CamGrad {
            mean2d,
            cov2d,
            depth,
            color,
            opacity,
            count,
        } = *other;
        let e = self.entry(id);
        e.mean2d += mean2d;
        e.cov2d[0] += cov2d[0];
        e.cov2d[1] += cov2d[1];
        e.cov2d[2] += cov2d[2];
        e.depth += depth;
        e.color += color;
        e.opacity += opacity;
        e.count += count;
    }
}

/// Statistics returned by [`pixel_backward`] for trace accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PixelBackwardCounts {
    /// Pairs whose gradients were computed.
    pub pairs: u64,
    /// Scalar atomic adds the aggregation would issue (one per gradient
    /// component per pair: 2 mean + 3 cov + 1 depth + 3 color + 1 opacity).
    pub atomic_adds: u64,
}

/// Scalar gradient components accumulated per pair (drives atomic counts).
pub const GRAD_COMPONENTS: u64 = 10;

/// Reverse color integration for one pixel (paper Fig. 3 / Sec. IV-B).
///
/// Walks the pixel's depth-ordered contribution list, computes each pair's
/// partial gradients analytically, and adds them into `accum`. `lookup`
/// resolves a Gaussian id to its projection; it is generic so that the
/// lookup inlines into the per-pair loop. `dl_dc`/`dl_dd` are the loss
/// gradients w.r.t. this pixel's color and depth.
pub fn pixel_backward(
    pixel: Vec2,
    contribs: &[Contribution],
    lookup: &impl Fn(u32) -> ProjectedGaussian,
    dl_dc: Vec3,
    dl_dd: f64,
    accum: &mut CamGradAccumulator,
) -> PixelBackwardCounts {
    let mut counts = PixelBackwardCounts::default();
    if contribs.is_empty() {
        return counts;
    }
    // Suffix sums: S_c = Σ_{j>i} w_j c_j, S_z = Σ_{j>i} w_j z_j. With a
    // black background C = Σ w_i c_i, so
    //   ∂C/∂α_i = Γ_i c_i − S_c^i/(1−α_i).
    let mut suffix_c = Vec3::ZERO;
    let mut suffix_z = 0.0;
    // Iterate back-to-front (the paper's reverse integration order).
    for c in contribs.iter().rev() {
        let pg = lookup(c.gaussian);
        let w = c.transmittance * c.alpha;
        // ∂L/∂color and ∂L/∂z are direct.
        let dl_dcolor = dl_dc * w;
        let dl_dz = dl_dd * w;
        // ∂L/∂α via color and depth channels.
        let one_minus = (1.0 - c.alpha).max(1e-6);
        let dc_dalpha = pg.color * c.transmittance - suffix_c / one_minus;
        let dd_dalpha = pg.depth * c.transmittance - suffix_z / one_minus;
        let dl_dalpha = dl_dc.dot(dc_dalpha) + dl_dd * dd_dalpha;
        // α = min(α_max, o·G): zero gradient through the clamp.
        let g_val = c.alpha / pg.opacity;
        let clamped = c.alpha >= ALPHA_MAX - 1e-12;
        let (dl_do, dl_dg) = if clamped {
            (0.0, 0.0)
        } else {
            (g_val * dl_dalpha, pg.opacity * dl_dalpha)
        };
        // G = exp(−q/2) ⇒ ∂G/∂q = −G/2, so ∂L/∂q = −½·G·∂L/∂G.
        let dl_dq = -0.5 * g_val * dl_dg;
        let d = pixel - pg.mean2d;
        let u = pg.conic * d; // Σ'⁻¹ d
                              // q = dᵀΣ'⁻¹d with d = p − μ' ⇒ ∂q/∂μ' = −2u, ∂q/∂Σ' = −u uᵀ.
        let dl_dcov = [-dl_dq * u.x * u.x, -dl_dq * u.x * u.y, -dl_dq * u.y * u.y];
        let e = accum.entry(c.gaussian);
        e.mean2d += Vec2::new(-2.0 * dl_dq * u.x, -2.0 * dl_dq * u.y);
        e.cov2d[0] += dl_dcov[0];
        e.cov2d[1] += dl_dcov[1];
        e.cov2d[2] += dl_dcov[2];
        e.depth += dl_dz;
        e.color += dl_dcolor;
        e.opacity += dl_do;
        e.count += 1;
        counts.pairs += 1;
        counts.atomic_adds += GRAD_COMPONENTS;
        // Maintain suffixes for the next (nearer) Gaussian.
        suffix_c += pg.color * w;
        suffix_z += pg.depth * w;
    }
    counts
}

/// Which half of the gradients a backward pass computes at re-projection.
///
/// Tracking optimizes only the camera pose and mapping only the Gaussians
/// (paper Sec. II-A), so each process asks for the half it uses and pays
/// for nothing else. The stages before re-projection, and with them every
/// [`RenderTrace`] counter, are the same for every request; so are the
/// bits of each half that is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GradRequest {
    /// Per-Gaussian scene gradients only; the pose gradient is zero
    /// (mapping: poses are fixed).
    Scene,
    /// The camera-pose gradient only; the scene gradients are empty
    /// (tracking: the scene is fixed).
    Pose,
    /// Both halves.
    Both,
}

impl GradRequest {
    fn scene(self) -> bool {
        matches!(self, GradRequest::Scene | GradRequest::Both)
    }

    fn pose(self) -> bool {
        matches!(self, GradRequest::Pose | GradRequest::Both)
    }
}

/// Touched Gaussians per re-projection chunk (fixed fan-out granularity;
/// independent of the worker count, see `splatonic_math::pool`).
pub const REPROJECT_CHUNK: usize = 128;

/// The camera-space chain shared by both halves of [`reproject`] for one
/// touched Gaussian.
struct CamChain {
    p_cam: Vec3,
    /// The non-zero rows of the projection Jacobian `J`.
    j: [Vec3; 2],
    /// ∂L/∂Σ' as a symmetric 2×2 matrix.
    dl_dcov: Mat2,
    /// ∂L/∂p_cam through the projected mean, the depth and `J`.
    dl_dpcam: Vec3,
}

/// Chains `cg` to camera space for the Gaussian at world `mean` with world
/// covariance `covariance`; `None` when it lies behind the camera.
fn cam_chain(
    camera: &Camera,
    wt: Mat3,
    mean: Vec3,
    covariance: Mat3,
    cg: &CamGrad,
) -> Option<CamChain> {
    let w = camera.pose.rotation;
    let intr = &camera.intrinsics;
    let p_cam = camera.to_camera(mean);
    if p_cam.z <= 0.0 {
        return None;
    }
    let j = projection_jacobian(intr.fx, intr.fy, p_cam);
    // ∂L/∂p_cam through the projected mean and depth.
    let mut dl_dpcam = j[0] * cg.mean2d.x + j[1] * cg.mean2d.y + Vec3::Z * cg.depth;
    // ∂L/∂p_cam through the covariance's dependence on J.
    // Σ' = J Σc Jᵀ ⇒ ∂L/∂J = 2·(∂L/∂Σ')·(J Σc)  (∂L/∂Σ' symmetric), and
    // row r of J Σc is Σc jᵣ (Σc symmetric).
    let sigma_cam = w * covariance * wt;
    let dl_dcov = Mat2::new(cg.cov2d[0], cg.cov2d[1], cg.cov2d[1], cg.cov2d[2]);
    let js = [sigma_cam * j[0], sigma_cam * j[1]];
    let dl_dj0 = js[0] * (2.0 * dl_dcov.m[0]) + js[1] * (2.0 * dl_dcov.m[1]);
    let dl_dj1 = js[0] * (2.0 * dl_dcov.m[2]) + js[1] * (2.0 * dl_dcov.m[3]);
    // Non-zero J entries: J00=fx/z, J02=−fx·x/z², J11=fy/z, J12=−fy·y/z².
    let (x, y, z) = (p_cam.x, p_cam.y, p_cam.z);
    let inv_z2 = 1.0 / (z * z);
    let inv_z3 = inv_z2 / z;
    dl_dpcam.x += dl_dj0.z * (-intr.fx * inv_z2);
    dl_dpcam.y += dl_dj1.z * (-intr.fy * inv_z2);
    dl_dpcam.z += dl_dj0.x * (-intr.fx * inv_z2)
        + dl_dj0.z * (2.0 * intr.fx * x * inv_z3)
        + dl_dj1.y * (-intr.fy * inv_z2)
        + dl_dj1.z * (2.0 * intr.fy * y * inv_z3);
    Some(CamChain {
        p_cam,
        j,
        dl_dcov,
        dl_dpcam,
    })
}

/// The world-space parameter gradient of Gaussian `g` from its camera-space
/// chain `c` and aggregated gradient `cg`.
fn param_grad(
    g: &Gaussian,
    opacity: f64,
    wt: Mat3,
    c: &CamChain,
    cg: &CamGrad,
) -> GaussianParamGrad {
    let (j, dl_dcov) = (c.j, c.dl_dcov);
    // World-space mean gradient.
    let dmean = wt * c.dl_dpcam;
    // World-space covariance gradient: ∂L/∂Σw = Tᵀ (∂L/∂Σ') T, T = J W.
    let t0 = wt * j[0];
    let t1 = wt * j[1];
    let dl_dsigma_w = Mat3::outer(t0, t0).scale(dl_dcov.m[0])
        + (Mat3::outer(t0, t1) + Mat3::outer(t1, t0)).scale(dl_dcov.m[1])
        + Mat3::outer(t1, t1).scale(dl_dcov.m[3]);
    // Σw = M Mᵀ with M = R S ⇒ ∂L/∂M = 2 (∂L/∂Σw) M.
    let r = g.rotation.to_rotation_matrix();
    let s = g.scale();
    let m = r * Mat3::diag(s.x, s.y, s.z);
    let dl_dm = dl_dsigma_w.scale(2.0) * m;
    // ∂L/∂s_j = Σ_i (∂L/∂M)_ij R_ij; chain to log-scale (×s_j).
    let mut dlog_scale = Vec3::ZERO;
    for jcol in 0..3 {
        let mut acc = 0.0;
        for irow in 0..3 {
            acc += dl_dm.at(irow, jcol) * r.at(irow, jcol);
        }
        dlog_scale[jcol] = acc * s[jcol];
    }
    // ∂L/∂R_ij = (∂L/∂M)_ij s_j → quaternion gradient.
    let mut dl_dr = Mat3::zero();
    for irow in 0..3 {
        for jcol in 0..3 {
            *dl_dr.at_mut(irow, jcol) = dl_dm.at(irow, jcol) * s[jcol];
        }
    }
    let jac = g.rotation.rotation_jacobian();
    let mut dq_unit = [0.0; 4];
    for (k, dj) in jac.iter().enumerate() {
        let mut acc = 0.0;
        for i in 0..9 {
            acc += dl_dr.m[i] * dj.m[i];
        }
        dq_unit[k] = acc;
    }
    let drot = g.rotation.backprop_normalization(dq_unit);
    // Opacity: chain natural → logit.
    let dopacity_logit = cg.opacity * opacity * (1.0 - opacity);
    // Color: straight-through except where the render-time clamp binds.
    let mut dcolor = cg.color;
    if g.color.x <= 0.0 || g.color.x >= 1.0 {
        dcolor.x = 0.0;
    }
    if g.color.y <= 0.0 || g.color.y >= 1.0 {
        dcolor.y = 0.0;
    }
    if g.color.z <= 0.0 || g.color.z >= 1.0 {
        dcolor.z = 0.0;
    }
    GaussianParamGrad {
        mean: dmean,
        log_scale: dlog_scale,
        rotation: drot,
        opacity_logit: dopacity_logit,
        color: dcolor,
    }
}

/// Re-projection (paper Fig. 3): transforms the aggregated camera-space
/// gradients into the half `want` asks for — world-space parameter
/// gradients, the camera-pose gradient, or both.
///
/// Covariance and opacity come from the scene's
/// [`projection_terms`](GaussianScene::projection_terms) column, which the
/// forward pass on this scene has already built, so no covariance is
/// recomputed here. The scene half fans out over fixed
/// [`REPROJECT_CHUNK`]-sized chunks of the touched ids on `threads` pool
/// workers; each entry is independent and chunks are concatenated in
/// order, so the entries are in first-touch order at every width. The pose
/// half folds its per-id terms on the calling thread in first-touch order.
/// Ids outside the scene or behind the camera are skipped by both halves.
pub fn reproject(
    scene: &GaussianScene,
    camera: &Camera,
    accum: &CamGradAccumulator,
    want: GradRequest,
    threads: usize,
) -> (SceneGrads, PoseGrad) {
    let terms = scene.projection_terms(threads);
    let wt = camera.pose.rotation.transpose();
    let chain = |id: u32| -> Option<(CamChain, CamGrad)> {
        let i = id as usize;
        if i >= scene.len() {
            return None;
        }
        let cg = accum.get(id);
        cam_chain(camera, wt, scene.means()[i], terms[i].covariance, &cg).map(|c| (c, cg))
    };
    let mut grads = SceneGrads::default();
    if want.scene() {
        let chunks =
            pool::par_chunks_indexed(threads, accum.touched(), REPROJECT_CHUNK, |_, _, ids| {
                ids.iter()
                    .filter_map(|&id| {
                        let (c, cg) = chain(id)?;
                        let i = id as usize;
                        Some((
                            id,
                            param_grad(&scene.gaussian(i), terms[i].opacity, wt, &c, &cg),
                        ))
                    })
                    .collect::<Vec<_>>()
            });
        grads.entries = chunks.concat();
    }
    let mut pose = Se3::ZERO;
    if want.pose() {
        for &id in accum.touched() {
            if let Some((c, _)) = chain(id) {
                // Left-perturbation: δp_cam = δρ + δφ × p_cam.
                pose.rho += c.dl_dpcam;
                pose.phi += c.p_cam.cross(c.dl_dpcam);
            }
        }
    }
    (grads, PoseGrad { xi: pose })
}

/// Runs the schedule-independent half of one backward pass around a
/// pipeline's `walk`, from the forward's hand-over projection and the loss
/// gradients, and re-projects the result to the half `want` asks for.
///
/// The walk runs over fixed `chunk_size`-sized pool chunks of `items` and
/// calls [`ChunkGrads::pixel`] for every pixel it visits, counting only its
/// own schedule's work. Each chunk accumulates into a private
/// [`CamGradAccumulator`], recycled through a small pool together with the
/// walk's scratch `S`, and extracts its per-Gaussian partials in
/// first-touch order. The partials and the chunks' counters are merged in
/// chunk order, so every sum is identical for every worker count.
/// `render/backward_accum` covers the walk, the per-pair gradients and the
/// merge; re-projection follows under `render/reproject`. The returned
/// trace holds the walk's counters plus the aggregation's.
///
/// # Panics
///
/// Panics when `loss_grads` does not cover `pixels`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_backward<T: Sync, S: Default + Send>(
    scene: &GaussianScene,
    camera: &Camera,
    pixels: &PixelSet,
    contributions: &PixelLists,
    projected: &[ProjectedGaussian],
    loss_grads: &[LossGrad],
    config: &RenderConfig,
    want: GradRequest,
    items: &[T],
    chunk_size: usize,
    walk: impl Fn(usize, &[T], &mut S, &mut ChunkGrads<'_>) + Sync,
) -> (SceneGrads, PoseGrad, RenderTrace) {
    assert_eq!(
        loss_grads.len(),
        pixels.len(),
        "loss gradients must cover the pixel set"
    );
    let n = scene.len();
    let mut proj_of_id = vec![u32::MAX; n];
    for (pi, pg) in projected.iter().enumerate() {
        proj_of_id[pg.id as usize] = pi as u32;
    }
    let stage = GradStage {
        contributions,
        loss_grads,
        projected,
        proj_of_id,
    };
    let threads = pool::resolve_threads(config.threads);
    let accum_phase = crate::phase::begin("render/backward_accum");
    let recycled: Mutex<Vec<(CamGradAccumulator, S)>> = Mutex::new(Vec::new());
    let partials = pool::par_chunks_indexed(threads, items, chunk_size, |_, offset, chunk| {
        let (acc, mut s) = recycled
            .lock()
            .expect("a worker panicked")
            .pop()
            .unwrap_or_else(|| (CamGradAccumulator::new(n), S::default()));
        let mut g = ChunkGrads {
            stage: &stage,
            acc,
            stats: BackwardStats::default(),
        };
        g.acc.reset(n);
        walk(offset, chunk, &mut s, &mut g);
        let entries: Vec<(u32, CamGrad)> = g
            .acc
            .touched()
            .iter()
            .map(|&id| (id, g.acc.get(id)))
            .collect();
        recycled.lock().expect("a worker panicked").push((g.acc, s));
        (entries, g.stats)
    });
    let mut trace = RenderTrace::new();
    let b = &mut trace.backward;
    let mut accum = CamGradAccumulator::new(n);
    for (entries, stats) in partials {
        b.merge(&stats);
        for (id, cg) in &entries {
            accum.merge_entry(*id, cg);
        }
    }
    for &id in accum.touched() {
        b.gaussian_touches.push(accum.get(id).count as f64);
    }
    b.gaussians_touched = accum.touched().len() as u64;
    b.reprojections = accum.touched().len() as u64;
    b.bytes_read += b.gaussians_touched * bytes::GRADIENT;
    b.bytes_written += b.gaussians_touched * bytes::GRADIENT;
    drop(accum_phase);
    let (grads, pose) = {
        let _p = crate::phase::begin("render/reproject");
        reproject(scene, camera, &accum, want, threads)
    };
    (grads, pose, trace)
}

/// What every chunk of a [`run_backward`] reads: the forward's per-pixel
/// lists and projection, indexed by Gaussian id, and the loss gradients.
struct GradStage<'a> {
    contributions: &'a PixelLists,
    loss_grads: &'a [LossGrad],
    projected: &'a [ProjectedGaussian],
    /// Gaussian id → index into `projected`.
    proj_of_id: Vec<u32>,
}

/// One pool chunk of a [`run_backward`]: its private accumulator and its
/// backward counters.
pub(crate) struct ChunkGrads<'s> {
    stage: &'s GradStage<'s>,
    acc: CamGradAccumulator,
    /// The chunk's counters, merged into the backward trace in chunk order.
    pub(crate) stats: BackwardStats,
}

impl ChunkGrads<'_> {
    /// Computes the per-pair gradients of the pixel `p` at output index
    /// `out_idx` into the chunk's accumulator and counts its pairs, atomic
    /// adds and gradient bytes. Returns the pair count.
    pub(crate) fn pixel(&mut self, p: PixelCoord, out_idx: usize) -> u64 {
        let st = self.stage;
        let LossGrad { d_color, d_depth } = st.loss_grads[out_idx];
        let counts = pixel_backward(
            p.center(),
            &st.contributions[out_idx],
            &|id| st.projected[st.proj_of_id[id as usize] as usize],
            d_color,
            d_depth,
            &mut self.acc,
        );
        self.stats.pairs_grad += counts.pairs;
        self.stats.atomic_adds += counts.atomic_adds;
        self.stats.bytes_written += counts.pairs * bytes::GRADIENT;
        counts.pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splatonic_math::Pose;
    use splatonic_scene::Intrinsics;

    #[test]
    fn accumulator_epoch_reset() {
        let mut acc = CamGradAccumulator::new(4);
        acc.reset(4);
        acc.entry(2).opacity = 1.0;
        assert_eq!(acc.touched(), &[2]);
        assert_eq!(acc.get(2).opacity, 1.0);
        acc.reset(4);
        assert!(acc.touched().is_empty());
        assert_eq!(acc.get(2).opacity, 0.0);
    }

    #[test]
    fn accumulator_grows_on_reset() {
        let mut acc = CamGradAccumulator::new(2);
        acc.reset(10);
        acc.entry(9).depth = 2.0;
        assert_eq!(acc.get(9).depth, 2.0);
    }

    /// Adds every field of `d` into `g` (the oracle's `merge_entry`).
    fn add_into(g: &mut CamGrad, d: &CamGrad) {
        g.mean2d += d.mean2d;
        g.cov2d[0] += d.cov2d[0];
        g.cov2d[1] += d.cov2d[1];
        g.cov2d[2] += d.cov2d[2];
        g.depth += d.depth;
        g.color += d.color;
        g.opacity += d.opacity;
        g.count += d.count;
    }

    fn random_grad(rng: &mut splatonic_math::Rng64) -> CamGrad {
        let mut v = || rng.gen_range(-1.0..1.0);
        CamGrad {
            mean2d: Vec2::new(v(), v()),
            cov2d: [v(), v(), v()],
            depth: v(),
            color: Vec3::new(v(), v(), v()),
            opacity: v(),
            count: 1,
        }
    }

    #[test]
    fn accumulator_matches_dense_oracle() {
        // The plain dense model: one gradient per id, zeroed on every
        // reset, plus the first-touch list.
        let mut rng = splatonic_math::Rng64::seed_from_u64(0x05ee_dacc);
        let mut n = 16usize;
        let mut acc = CamGradAccumulator::new(n);
        let mut oracle_grads = vec![CamGrad::default(); n];
        let mut oracle_touched: Vec<u32> = Vec::new();
        for epoch in 0..24 {
            // Two epoch wraps, so ids stamped in the epoch after the first
            // wrap would alias the epoch after the second one without the
            // real clear.
            if epoch == 6 || epoch == 15 {
                acc.current = u32::MAX - 1;
            }
            if epoch % 4 == 3 {
                n += rng.gen_range(0usize..40);
            }
            acc.reset(n);
            if epoch == 7 || epoch == 16 {
                assert_eq!(acc.current, 1, "epoch {epoch}: wrapped");
            }
            oracle_grads = vec![CamGrad::default(); n];
            oracle_touched.clear();
            for _ in 0..rng.gen_range(0usize..120) {
                let id = rng.gen_range(0..n as u32);
                let d = random_grad(&mut rng);
                let i = id as usize;
                if !oracle_touched.contains(&id) {
                    oracle_touched.push(id);
                }
                add_into(&mut oracle_grads[i], &d);
                match rng.gen_range(0u32..3) {
                    0 => add_into(acc.entry(id), &d),
                    1 => acc.merge_entry(id, &d),
                    _ => {
                        add_into(acc.entry(id), &d);
                        let probe = rng.gen_range(0..n as u32);
                        assert_eq!(acc.get(probe), oracle_grads[probe as usize]);
                    }
                }
            }
            assert_eq!(acc.touched(), oracle_touched.as_slice(), "epoch {epoch}");
            for (id, want) in oracle_grads.iter().enumerate() {
                assert_eq!(acc.get(id as u32), *want, "epoch {epoch}, id {id}");
            }
            // Ids beyond the sized range read as zero.
            assert_eq!(acc.get(n as u32 + 5), CamGrad::default());
        }
    }

    #[test]
    fn pixel_backward_empty_contribs() {
        let mut acc = CamGradAccumulator::new(1);
        acc.reset(1);
        let counts = pixel_backward(
            Vec2::new(0.0, 0.0),
            &[],
            &|_| unreachable!(),
            Vec3::ZERO,
            0.0,
            &mut acc,
        );
        assert_eq!(counts.pairs, 0);
    }

    #[test]
    fn backward_phases_nest_in_their_pass_phase() {
        use crate::{phase, render_backward, render_forward, Pipeline};
        use splatonic_math::{timebase, Quat};
        let _serial = phase::GATE_TEST_LOCK.lock().unwrap();
        let scene: GaussianScene = (0..12)
            .map(|i| {
                let t = i as f64;
                Gaussian::new(
                    Vec3::new(0.1 * t - 0.6, 0.05 * t - 0.3, 2.0 + 0.1 * t),
                    Vec3::splat(0.15),
                    Quat::IDENTITY,
                    0.8,
                    Vec3::new(0.9, 0.1 * t / 12.0, 0.3),
                )
            })
            .collect();
        let cam = Camera::new(Intrinsics::with_fov(64, 48, 1.2), Pose::identity());
        let pixels = PixelSet::dense(64, 48);
        let cfg = RenderConfig::default();
        let loss = vec![
            LossGrad {
                d_color: Vec3::splat(1.0),
                d_depth: 0.1,
            };
            pixels.len()
        ];
        let cases = [
            (Pipeline::PixelBased, "render/pixel_backward", 9301),
            (Pipeline::TileBased, "render/tile_backward", 9302),
        ];
        for (pipeline, pass, run) in cases {
            phase::enable(true);
            let cursor = phase::cursor();
            {
                let _scope = timebase::run_scope(run);
                let fwd = render_forward(&scene, &cam, &pixels, pipeline, &cfg);
                let _ =
                    render_backward(&scene, &cam, &pixels, &fwd, &loss, &cfg, GradRequest::Both);
            }
            let events: Vec<_> = phase::events_since(cursor)
                .into_iter()
                .filter(|e| e.run == run)
                .collect();
            phase::enable(false);
            let outer = events
                .iter()
                .find(|e| e.name == pass)
                .unwrap_or_else(|| panic!("no {pass} phase"));
            for name in ["render/backward_accum", "render/reproject"] {
                let e = events
                    .iter()
                    .find(|e| e.name == name)
                    .unwrap_or_else(|| panic!("{pass}: no {name} phase"));
                assert!(
                    e.start_ns >= outer.start_ns
                        && e.start_ns + e.dur_ns <= outer.start_ns + outer.dur_ns,
                    "{pass}: {name} lies outside its pass phase"
                );
            }
        }
    }

    #[test]
    fn reproject_skips_unknown_ids() {
        let scene = GaussianScene::new();
        let cam = Camera::new(Intrinsics::with_fov(32, 32, 1.0), Pose::identity());
        let mut acc = CamGradAccumulator::new(4);
        acc.reset(4);
        acc.entry(3).color = Vec3::splat(1.0);
        let (grads, pose) = reproject(&scene, &cam, &acc, GradRequest::Both, 1);
        assert!(grads.is_empty());
        assert_eq!(pose.xi, Se3::ZERO);
    }
}
