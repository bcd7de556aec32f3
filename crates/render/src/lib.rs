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
//! * [`tilesort`] — depth-sorted tile lists from one global sort and the
//!   counted GS-TG-style tile-grouping sort schedule,
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

/// Depth-ordered contribution lists, one per pixel, stored flat.
///
/// Each render chunk writes its pixels' lists into one buffer, and the
/// buffers are kept as written (no merge copy); pixel `i`'s list is a
/// `(buffer, start, end)` range into one of them. A render thus allocates
/// once per chunk rather than once per pixel. Equality compares the lists
/// pixel by pixel, so two layouts of the same lists are equal.
#[derive(Clone, Default)]
pub struct PixelLists {
    buffers: Vec<Box<[Contribution]>>,
    /// Per pixel, `(buffer, start, end)`; an empty list is `(0, 0, 0)`.
    ranges: Vec<(u32, u32, u32)>,
}

impl PixelLists {
    /// Builds the lists from one slice per pixel (copied into one buffer).
    pub fn from_lists<L: AsRef<[Contribution]>>(lists: impl IntoIterator<Item = L>) -> Self {
        let mut chunk = ChunkLists::default();
        let mut n = 0;
        for list in lists {
            chunk.push_list(n, list.as_ref());
            n += 1;
        }
        PixelLists::from_chunks(n, [chunk])
    }

    /// Assembles the lists of `n` pixels from chunk buffers; a pixel no
    /// chunk finished has an empty list.
    pub(crate) fn from_chunks(n: usize, chunks: impl IntoIterator<Item = ChunkLists>) -> Self {
        let mut lists = PixelLists {
            buffers: Vec::new(),
            ranges: vec![(0, 0, 0); n],
        };
        for ChunkLists { buffer, spans } in chunks {
            if buffer.is_empty() {
                continue;
            }
            let b = lists.buffers.len() as u32;
            for (out_idx, start, end) in spans {
                lists.ranges[out_idx as usize] = (b, start, end);
            }
            lists.buffers.push(buffer.into_boxed_slice());
        }
        lists
    }

    /// Number of pixels.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Whether there are no pixels.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Pixel `i`'s list. Panics if `i` is out of range.
    #[inline]
    pub fn get(&self, i: usize) -> &[Contribution] {
        let (b, start, end) = self.ranges[i];
        if start == end {
            return &[];
        }
        &self.buffers[b as usize][start as usize..end as usize]
    }

    /// The lists in pixel order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Contribution]> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Total number of contributions across all pixels.
    pub fn total(&self) -> usize {
        self.ranges.iter().map(|&(_, s, e)| (e - s) as usize).sum()
    }
}

impl std::ops::Index<usize> for PixelLists {
    type Output = [Contribution];

    fn index(&self, i: usize) -> &[Contribution] {
        self.get(i)
    }
}

impl PartialEq for PixelLists {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for PixelLists {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One render chunk's share of a [`PixelLists`]: the chunk's buffer plus,
/// per non-empty list, its pixel's output index and range in the buffer.
/// [`PixelLists::from_chunks`] keeps the buffer, shrunk to its length.
#[derive(Debug, Default)]
pub(crate) struct ChunkLists {
    buffer: Vec<Contribution>,
    spans: Vec<(u32, u32, u32)>,
}

impl ChunkLists {
    /// An empty chunk whose buffer holds `contributions` without growing.
    pub(crate) fn with_capacity(contributions: usize) -> Self {
        ChunkLists {
            buffer: Vec::with_capacity(contributions),
            spans: Vec::new(),
        }
    }

    /// Appends `c` to the list being built.
    #[inline]
    pub(crate) fn push(&mut self, c: Contribution) {
        self.buffer.push(c);
    }

    /// Closes the list being built (everything pushed since the previous
    /// close) as pixel `out_idx`'s.
    pub(crate) fn finish(&mut self, out_idx: usize) {
        let start = self.spans.last().map_or(0, |s| s.2);
        let end = u32::try_from(self.buffer.len()).expect("chunk buffer exceeds u32 range");
        if end > start {
            let out_idx = u32::try_from(out_idx).expect("pixel index exceeds u32 range");
            self.spans.push((out_idx, start, end));
        }
    }

    /// Appends `list` as pixel `out_idx`'s list.
    pub(crate) fn push_list(&mut self, out_idx: usize, list: &[Contribution]) {
        self.buffer.extend_from_slice(list);
        self.finish(out_idx);
    }

    /// Moves the lists out into an exact-size copy, leaving this chunk
    /// empty with its buffer's capacity kept for reuse.
    pub(crate) fn take_exact(&mut self) -> ChunkLists {
        let lists = ChunkLists {
            buffer: self.buffer.to_vec(),
            spans: std::mem::take(&mut self.spans),
        };
        self.buffer.clear();
        lists
    }
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
    /// Contributing (Gaussian, α, Γ) list per sampled pixel, depth-ordered,
    /// stored flat ([`PixelLists`]). The backward pass walks these lists
    /// instead of re-rasterizing, and the accelerator models read their
    /// lengths and Gaussian ids.
    pub contributions: PixelLists,
    /// What the backward pass reads besides the contribution lists, tagged
    /// by the pipeline that rendered ([`Handoff`]). [`render_backward`]
    /// dispatches on it, so it projects and sorts nothing.
    pub handoff: Handoff,
    /// Workload statistics recorded during the render.
    pub trace: RenderTrace,
}

impl ForwardResult {
    /// Total number of pixel–Gaussian contributions across all pixels.
    pub fn total_contributions(&self) -> usize {
        self.contributions.total()
    }
}

/// What a forward pass hands to its backward pass, tagged by the pipeline
/// that made it.
///
/// The backward pass runs at the forward's scene and pose, so it reads the
/// forward's projection (and, on the tile path, its sorted tile lists)
/// instead of building them again.
#[derive(Debug, Clone)]
pub enum Handoff {
    /// The pixel pipeline's compact projection, in scene order: every
    /// Gaussian that kept at least one pixel pair, projected at the
    /// render's pose.
    Pixel(Vec<ProjectedGaussian>),
    /// The tile pipeline's full projection and depth-sorted tile lists.
    Tile(tilesort::PreparedTiles),
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
/// gradient, and the backward-stage trace. The pipeline is the one that
/// rendered `forward` ([`ForwardResult::handoff`]); `scene`, `camera` and
/// `pixels` must be the forward's. `want` selects which of the two
/// gradients is computed (tracking: [`GradRequest::Pose`], mapping:
/// [`GradRequest::Scene`]); the other comes back empty or zero. The trace
/// and the bits of every computed gradient do not depend on `want`.
pub fn render_backward(
    scene: &GaussianScene,
    camera: &Camera,
    pixels: &PixelSet,
    forward: &ForwardResult,
    loss_grads: &[LossGrad],
    config: &RenderConfig,
    want: GradRequest,
) -> (SceneGrads, PoseGrad, RenderTrace) {
    let contributions = &forward.contributions;
    match &forward.handoff {
        Handoff::Tile(prepared) => tile::backward(
            scene,
            camera,
            pixels,
            contributions,
            prepared,
            loss_grads,
            config,
            want,
        ),
        Handoff::Pixel(projected) => pixel::backward(
            scene,
            camera,
            pixels,
            contributions,
            projected,
            loss_grads,
            config,
            want,
        ),
    }
}

/// Convenience prelude re-exporting the common entry points.
pub mod prelude {
    pub use crate::grad::GradRequest;
    pub use crate::kernel::RenderConfig;
    pub use crate::pixelset::PixelSet;
    pub use crate::sampling::SamplingStrategy;
    pub use crate::{render_backward, render_forward, ForwardResult, Handoff, Pipeline};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_result_is_send_and_sync() {
        fn send_sync<T: Send + Sync>() {}
        send_sync::<ForwardResult>();
        send_sync::<Handoff>();
    }

    fn c(gaussian: u32) -> Contribution {
        Contribution {
            gaussian,
            alpha: 0.5,
            transmittance: 1.0 / f64::from(gaussian + 1),
        }
    }

    fn nested() -> Vec<Vec<Contribution>> {
        vec![
            vec![c(3), c(1)],
            vec![],
            vec![c(7)],
            vec![],
            vec![c(2), c(5), c(9)],
        ]
    }

    #[test]
    fn from_lists_round_trips_nested_lists() {
        let want = nested();
        let lists = PixelLists::from_lists(&want);
        assert_eq!(lists.len(), want.len());
        assert_eq!(lists.total(), 6);
        let back: Vec<Vec<Contribution>> = lists.iter().map(<[_]>::to_vec).collect();
        assert_eq!(back, want);
        for (i, list) in want.iter().enumerate() {
            assert_eq!(lists.get(i), &list[..]);
            assert_eq!(&lists[i], &list[..]);
        }
        let none = PixelLists::from_lists(Vec::<Vec<Contribution>>::new());
        assert!(none.is_empty());
        assert_eq!(none.total(), 0);
    }

    #[test]
    fn pixels_no_chunk_finishes_are_empty() {
        // Pixels 0, 2 and 4 are never finished (a tile with an empty list
        // shades them without a span); pixel 3 is finished with nothing.
        let mut chunk = ChunkLists::default();
        chunk.push_list(1, &[c(4)]);
        chunk.finish(3);
        let lists = PixelLists::from_chunks(5, [chunk, ChunkLists::default()]);
        assert_eq!(
            lists.iter().map(<[_]>::len).collect::<Vec<_>>(),
            [0, 1, 0, 0, 0]
        );
        assert_eq!(lists[1], [c(4)]);
        assert_eq!(lists.total(), 1);
        // All-empty lists hold no buffer at all.
        assert_eq!(
            PixelLists::from_chunks(3, []),
            PixelLists::from_lists([[]; 3])
        );
        assert!(PixelLists::from_chunks(3, []).buffers.is_empty());
    }

    #[test]
    fn ranges_span_several_chunk_buffers() {
        // Three chunks, scattered like the tile path's: each chunk's lists
        // are in one buffer, in an output order of their own.
        let want = nested();
        let mut a = ChunkLists::with_capacity(3);
        for x in &want[4] {
            a.push(*x);
        }
        a.finish(4);
        a.push_list(1, &want[1]);
        // `b` is copied out of a reused scratch chunk, as the tile path
        // does; the scratch comes back empty.
        let mut scratch = ChunkLists::default();
        scratch.push_list(3, &want[4]);
        scratch.take_exact();
        scratch.push_list(2, &want[2]);
        scratch.push_list(0, &want[0]);
        let b = scratch.take_exact();
        assert!(scratch.buffer.is_empty() && scratch.spans.is_empty());
        assert!(scratch.buffer.capacity() >= 3);
        assert_eq!(b.buffer.capacity(), 3);
        let mut empty = ChunkLists::default();
        empty.push_list(3, &want[3]);
        let lists = PixelLists::from_chunks(5, [a, empty, b]);
        assert_eq!(lists.buffers.len(), 2);
        assert_eq!(lists.ranges[0], (1, 1, 3));
        assert_eq!(lists.ranges[4], (0, 0, 3));
        for (i, list) in want.iter().enumerate() {
            assert_eq!(&lists[i], &list[..], "pixel {i}");
        }
        assert_eq!(lists.total(), 6);
    }

    #[test]
    fn equality_ignores_the_layout() {
        let want = nested();
        let one_buffer = PixelLists::from_lists(&want);
        let mut chunks = Vec::new();
        for (i, list) in want.iter().enumerate() {
            let mut chunk = ChunkLists::default();
            chunk.push_list(i, list);
            chunks.push(chunk);
        }
        let per_pixel = PixelLists::from_chunks(want.len(), chunks);
        assert_ne!(one_buffer.buffers.len(), per_pixel.buffers.len());
        assert_eq!(one_buffer, per_pixel);
        assert_eq!(format!("{one_buffer:?}"), format!("{want:?}"));

        let mut moved = want.clone();
        moved[2][0].alpha = 0.25;
        assert_ne!(one_buffer, PixelLists::from_lists(&moved));
        // The same contributions split between other pixels differ.
        let shifted = [
            vec![c(3)],
            vec![c(1)],
            vec![c(7)],
            vec![],
            vec![c(2), c(5), c(9)],
        ];
        assert_ne!(one_buffer, PixelLists::from_lists(shifted));
        assert_ne!(one_buffer, PixelLists::from_lists(&want[..4]));
    }
}
