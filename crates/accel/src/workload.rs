//! Frame workloads: what the accelerator simulators consume.
//!
//! A [`FrameWorkload`] captures one training iteration's real work shape —
//! the render's [`RenderTrace`] counters plus per-pixel contributing-list
//! lengths and the backward gradient stream (pixel-grouped Gaussian ids),
//! both rebuilt from that render's [`ForwardResult::contributions`] (no
//! trace carries per-element data). Hardware behavior that depends on
//! *distribution* (sorter load balance, aggregation locality) therefore
//! comes from measured data.

use splatonic_render::{ForwardResult, RenderTrace};

/// The work shape of one forward+backward training iteration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrameWorkload {
    /// Total Gaussians fed to projection.
    pub gaussians: u64,
    /// Gaussians surviving projection.
    pub projected: u64,
    /// Candidate pixel–Gaussian pairs α-checked at projection (pixel
    /// pipeline; zero for tile workloads) — drives the α-filter units.
    pub proj_alpha_checks: u64,
    /// Pairs kept after preemptive α-checking.
    pub pairs_kept: u64,
    /// Tile–Gaussian pairs (tile pipeline) — drives tile-based baselines.
    pub tile_pairs: u64,
    /// Per-pixel contributing-list lengths (depth-sorted lists).
    pub pixel_lists: Vec<u32>,
    /// Gradient stream: per pixel, the Gaussian ids receiving partial
    /// gradients (in reverse integration order).
    pub grad_stream: Vec<Vec<u32>>,
    /// Warp-steps the GPU tile schedule would issue (for baselines that
    /// inherit tile-granular work).
    pub tile_warp_steps: u64,
    /// Forward DRAM bytes (parameters in, pairs + pixels out).
    pub fwd_bytes: u64,
    /// Backward DRAM bytes (pairs in, gradients out), excluding the
    /// aggregation unit's own cache traffic (simulated separately).
    pub bwd_bytes: u64,
    /// Pixels shaded.
    pub pixels: u64,
}

impl FrameWorkload {
    /// Extracts a workload from a forward result and its backward trace.
    ///
    /// `forward.trace` supplies the forward counts; `backward` (from
    /// `render_backward`) supplies the backward counts. List lengths and
    /// the gradient stream come from the per-pixel contribution lists.
    pub fn from_render(forward: &ForwardResult, backward: &RenderTrace) -> FrameWorkload {
        let f = &forward.trace.forward;
        let grad_stream: Vec<Vec<u32>> = forward
            .contributions
            .iter()
            .map(|list| list.iter().rev().map(|c| c.gaussian).collect())
            .collect();
        FrameWorkload {
            gaussians: f.gaussians_input,
            projected: f.gaussians_projected,
            proj_alpha_checks: f.proj_alpha_checks,
            pairs_kept: f.proj_pairs_kept,
            tile_pairs: f.tile_pairs,
            pixel_lists: forward
                .contributions
                .iter()
                .map(|l| l.len() as u32)
                .collect(),
            grad_stream,
            tile_warp_steps: f.warp_steps,
            fwd_bytes: f.bytes_read + f.bytes_written,
            bwd_bytes: backward.backward.bytes_read + backward.backward.bytes_written,
            pixels: f.pixels_shaded,
        }
    }

    /// Total pixel–Gaussian pairs integrated.
    pub fn total_pairs(&self) -> u64 {
        self.pixel_lists.iter().map(|&l| l as u64).sum()
    }

    /// Total gradient entries in the backward stream.
    pub fn total_grad_entries(&self) -> u64 {
        self.grad_stream.iter().map(|v| v.len() as u64).sum()
    }

    /// Number of distinct Gaussians in the gradient stream.
    pub fn distinct_grad_gaussians(&self) -> usize {
        let mut ids: Vec<u32> = self.grad_stream.iter().flatten().copied().collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splatonic_math::Vec3;
    use splatonic_render::trace::RenderTrace;
    use splatonic_render::{Contribution, PixelLists};

    fn fake_forward() -> ForwardResult {
        let mut trace = RenderTrace::new();
        trace.forward.gaussians_input = 10;
        trace.forward.gaussians_projected = 8;
        trace.forward.pixels_shaded = 2;
        trace.forward.proj_alpha_checks = 4;
        ForwardResult {
            color: vec![Vec3::ZERO; 2],
            depth: vec![0.0; 2],
            final_transmittance: vec![1.0; 2],
            contributions: PixelLists::from_lists([
                vec![
                    Contribution {
                        gaussian: 4,
                        alpha: 0.5,
                        transmittance: 1.0,
                    },
                    Contribution {
                        gaussian: 7,
                        alpha: 0.3,
                        transmittance: 0.5,
                    },
                ],
                vec![Contribution {
                    gaussian: 4,
                    alpha: 0.2,
                    transmittance: 1.0,
                }],
            ]),
            handoff: splatonic_render::Handoff::Pixel(Vec::new()),
            trace,
        }
    }

    #[test]
    fn extracts_grad_stream_in_reverse_order() {
        let w = FrameWorkload::from_render(&fake_forward(), &RenderTrace::new());
        assert_eq!(w.grad_stream.len(), 2);
        // Reverse integration: farthest Gaussian first.
        assert_eq!(w.grad_stream[0], vec![7, 4]);
        assert_eq!(w.grad_stream[1], vec![4]);
        assert_eq!(w.total_grad_entries(), 3);
        assert_eq!(w.distinct_grad_gaussians(), 2);
        assert_eq!(w.pixel_lists, vec![2, 1]);
        assert_eq!(w.total_pairs(), 3);
        assert_eq!(w.proj_alpha_checks, 4);
        assert_eq!(w.gaussians, 10);
    }
}
