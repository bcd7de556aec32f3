//! Differentiable 3D-Gaussian-splatting rendering for SPLATONIC.
//!
//! This crate implements the paper's two rendering schedules over one shared
//! set of math kernels, so accuracy is schedule-independent and performance
//! experiments compare *schedules*, exactly as the paper frames it:
//!
//! * [`tile`] — the conventional **tile-based** pipeline (paper Sec. II-B,
//!   Fig. 3): tile-granular projection and sorting amortize work across the
//!   pixels of a 16×16 tile; rasterization α-checks every pixel–Gaussian
//!   pair, causing warp divergence under sparse sampling.
//! * [`pixel`] — the paper's **pixel-based** pipeline (Sec. IV-B, Fig. 13):
//!   per-pixel projection with *preemptive α-checking*, per-pixel depth
//!   sorting, and Gaussian-parallel rasterization.
//!
//! Supporting modules:
//!
//! * [`kernel`] — EWA projection, α evaluation, the analytic Jacobians,
//!   and the constants that define the rendering (α* = 1/255, the α clamp,
//!   `T_min`, blur, 3.5σ bbox, near plane, black background);
//!   [`RenderConfig`] holds only output-transparent execution policy,
//! * [`projcache`] — the cross-iteration projection cache reusing
//!   per-Gaussian projection results across Adam iterations,
//! * [`tilesort`] — depth-sorted tile lists from one global sort, the
//!   counted GS-TG-style tile-grouping sort schedule, and an exact-key
//!   sorted-list cache keyed like `projcache` (bit-identical output),
//! * [`phase`] — gated side-band phase tracing feeding the Chrome trace
//!   export (trace-only; never perturbs reports),
//! * [`sampling`] — the adaptive sparse pixel samplers of Sec. IV-A plus the
//!   baselines of Fig. 10 (Low-Res., Loss-guided, Harris),
//! * [`loss`] — L1 color+depth losses and their gradients,
//! * [`grad`] — gradient containers and the re-projection stage,
//! * [`trace`] — per-stage workload statistics consumed by the hardware
//!   models in `splatonic-gpusim` and `splatonic-accel`.
//!
//! # Examples
//!
//! ```
//! use splatonic_render::prelude::*;
//! use splatonic_scene::{Camera, Intrinsics, WorldBuilder};
//!
//! let world = WorldBuilder::new(1).gaussian_spacing(0.5).build();
//! let cam = Camera::look_at(
//!     Intrinsics::with_fov(64, 48, 1.2),
//!     [0.0, 0.0, 0.0].into(),
//!     [0.0, 0.0, 2.0].into(),
//!     splatonic_math::Vec3::Y,
//! );
//! let pixels = PixelSet::dense(64, 48);
//! let out = render_forward(&world.scene, &cam, &pixels, Pipeline::TileBased, &RenderConfig::default());
//! assert_eq!(out.color.len(), pixels.len());
//! ```

// Every public item must carry a doc comment; config knobs additionally
// document their default and bit-exactness contract (DESIGN.md §13).
#![warn(missing_docs)]

pub mod grad;
pub mod kernel;
pub mod loss;
pub mod phase;
pub mod pixel;
pub mod pixelset;
pub mod projcache;
pub mod sampling;
pub mod simd;
pub mod tile;
pub mod tilesort;
pub mod trace;

pub use grad::{GradRequest, PoseGrad, SceneGrads};
pub use kernel::{ProjectedGaussian, RenderConfig};
pub use loss::{LossConfig, LossGrad};
pub use pixelset::PixelSet;
pub use sampling::{MappingSampler, SamplingStrategy};
pub use simd::KernelMode;
pub use trace::RenderTrace;

use splatonic_math::Vec3;
use splatonic_scene::{Camera, GaussianScene};

/// Which rendering schedule to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pipeline {
    /// Conventional tile-based rendering (baseline, paper Fig. 3).
    TileBased,
    /// The paper's pixel-based rendering (Fig. 13).
    PixelBased,
}

/// One Gaussian's contribution to one pixel, kept for the backward pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Contribution {
    /// Index of the Gaussian in the scene.
    pub gaussian: u32,
    /// Evaluated transparency α_i at this pixel.
    pub alpha: f64,
    /// Transmittance Γ_i *before* this Gaussian (Eq. 1 prefix product).
    pub transmittance: f64,
}

/// Output of a forward render over a pixel set.
///
/// Per-pixel vectors are indexed in the same order as
/// [`PixelSet::iter_all`] yields pixels.
#[derive(Debug, Clone)]
pub struct ForwardResult {
    /// Composited color per sampled pixel.
    pub color: Vec<Vec3>,
    /// Expected depth per sampled pixel.
    pub depth: Vec<f64>,
    /// Final transmittance Γ_final per sampled pixel (Eq. 2 input).
    pub final_transmittance: Vec<f64>,
    /// Contributing (Gaussian, α, Γ) list per sampled pixel, depth-ordered.
    pub contributions: Vec<Vec<Contribution>>,
    /// Workload statistics recorded during the render.
    pub trace: RenderTrace,
}

impl ForwardResult {
    /// Total number of pixel–Gaussian contributions across all pixels.
    pub fn total_contributions(&self) -> usize {
        self.contributions.iter().map(Vec::len).sum()
    }
}

/// Renders the scene at `camera` over the pixels in `pixels` using the
/// requested `pipeline`.
///
/// Both pipelines produce the same image up to floating-point noise; they
/// differ in schedule and therefore in the recorded [`RenderTrace`].
pub fn render_forward(
    scene: &GaussianScene,
    camera: &Camera,
    pixels: &PixelSet,
    pipeline: Pipeline,
    config: &RenderConfig,
) -> ForwardResult {
    match pipeline {
        Pipeline::TileBased => tile::forward(scene, camera, pixels, config),
        Pipeline::PixelBased => pixel::forward(scene, camera, pixels, config),
    }
}

/// Runs the backward pass for a prior [`render_forward`] call.
///
/// `loss_grads` supplies `∂L/∂color` and `∂L/∂depth` per sampled pixel (in
/// pixel-set order). Returns per-Gaussian gradients, the camera-pose
/// gradient, and the backward-stage trace. `want` selects which of the two
/// gradients is computed (tracking: [`GradRequest::Pose`], mapping:
/// [`GradRequest::Scene`]); the other comes back empty or zero. The trace
/// and the bits of every computed gradient do not depend on `want`.
#[allow(clippy::too_many_arguments)]
pub fn render_backward(
    scene: &GaussianScene,
    camera: &Camera,
    pixels: &PixelSet,
    forward: &ForwardResult,
    loss_grads: &[LossGrad],
    pipeline: Pipeline,
    config: &RenderConfig,
    want: GradRequest,
) -> (SceneGrads, PoseGrad, RenderTrace) {
    match pipeline {
        Pipeline::TileBased => {
            tile::backward(scene, camera, pixels, forward, loss_grads, config, want)
        }
        Pipeline::PixelBased => {
            pixel::backward(scene, camera, pixels, forward, loss_grads, config, want)
        }
    }
}

/// Convenience prelude re-exporting the common entry points.
pub mod prelude {
    pub use crate::grad::GradRequest;
    pub use crate::kernel::RenderConfig;
    pub use crate::pixelset::PixelSet;
    pub use crate::sampling::SamplingStrategy;
    pub use crate::{render_backward, render_forward, ForwardResult, Pipeline};
}
