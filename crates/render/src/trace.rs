//! Workload statistics recorded during rendering.
//!
//! The hardware models in `splatonic-gpusim` and `splatonic-accel` do not
//! re-run the renderer; they consume a [`RenderTrace`] — counts of the exact
//! operations each stage performed on the *real* workload (α-checks,
//! integrated pairs, warp occupancy, atomic collisions, bytes moved). This is
//! what lets warp divergence and aggregation contention come out of measured
//! distributions rather than assumed ones (DESIGN.md §5).

use splatonic_math::stats::Summary;

/// Forward-pass stage counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ForwardStats {
    /// Gaussians fed into projection.
    pub gaussians_input: u64,
    /// Gaussians culled by frustum / degeneracy tests.
    pub gaussians_culled: u64,
    /// Gaussians surviving projection.
    pub gaussians_projected: u64,
    /// Tile-based: tile–Gaussian intersection pairs written to the table.
    pub tile_pairs: u64,
    /// Pixel-based: candidate pixel–Gaussian pairs α-checked at projection
    /// (preemptive α-checking, paper Sec. IV-B).
    pub proj_alpha_checks: u64,
    /// Always zero: it counted the visits of a screen-space bin walk that
    /// no longer exists (every pixel set is direct-indexed, DESIGN.md §11).
    /// Kept because the benchmark driver and the snapshot format read it;
    /// it goes with the next change to the benchmark (ROADMAP item 7(b)).
    pub bin_candidates: u64,
    /// Pixel-based: candidate pairs that passed preemptive α-checking.
    pub proj_pairs_kept: u64,
    /// Total elements passed through sorting (sum of list lengths): the
    /// shared group-union lists of GS-TG-style tile grouping for the tile
    /// pipeline (see [`crate::tilesort`]), per-pixel lists for the pixel
    /// pipeline. [`ForwardStats::per_tile_sort`] reads the per-tile
    /// schedule of a tile trace.
    pub sort_elems: u64,
    /// Number of sorted lists (non-empty tile groups, or pixels).
    pub sort_lists: u64,
    /// Tile-based: non-empty tiles whose depth-sorted list was derived by
    /// masking a shared group sort instead of being sorted independently
    /// (the per-tile sorts avoided by grouping). Zero for the pixel
    /// pipeline.
    pub sort_group_reuse: u64,
    /// α-checks performed inside rasterization (tile-based only; the
    /// pixel-based pipeline has none by construction).
    pub raster_alpha_checks: u64,
    /// Pixel–Gaussian pairs actually integrated into a pixel.
    pub pairs_integrated: u64,
    /// Pixels shaded.
    pub pixels_shaded: u64,
    /// Exponential evaluations (SFU ops) across all stages.
    pub exp_evals: u64,
    /// Warp-steps issued during rasterization (one step = one Gaussian
    /// broadcast to a 32-thread warp).
    pub warp_steps: u64,
    /// Sum of active threads over all warp-steps (≤ 32 · warp_steps).
    pub warp_active: u64,
    /// Distribution of per-pixel contributing-list lengths.
    pub pixel_list_len: Summary,
    /// Approximate DRAM bytes read by the forward pass.
    pub bytes_read: u64,
    /// Approximate DRAM bytes written by the forward pass.
    pub bytes_written: u64,
}

impl ForwardStats {
    /// `(lists, elements)` of the per-tile sorting schedule — every
    /// non-empty tile sorts its own list — read from a tile-pipeline
    /// trace's grouped counters: each non-empty tile is either one of its
    /// group's shared sorts or masked from one, and the per-tile lists hold
    /// exactly the tile–Gaussian pairs. Meaningless for pixel-pipeline
    /// traces. Version-1 snapshots carry no `sort_group_reuse`, so a trace
    /// restored from one reads a low list count.
    pub fn per_tile_sort(&self) -> (u64, u64) {
        (self.sort_lists + self.sort_group_reuse, self.tile_pairs)
    }

    /// Thread utilization during rasterization in `[0, 1]`
    /// (paper Fig. 7 reports ≈ 28% for tile-based rendering).
    pub fn warp_utilization(&self) -> f64 {
        if self.warp_steps == 0 {
            0.0
        } else {
            self.warp_active as f64 / (self.warp_steps * 32) as f64
        }
    }

    /// Merges another forward pass's counters into this one (summing
    /// counts); exhaustive like [`RenderTrace::merge`].
    pub(crate) fn merge(&mut self, other: &ForwardStats) {
        let f = self;
        let ForwardStats {
            gaussians_input,
            gaussians_culled,
            gaussians_projected,
            tile_pairs,
            proj_alpha_checks,
            bin_candidates,
            proj_pairs_kept,
            sort_elems,
            sort_lists,
            sort_group_reuse,
            raster_alpha_checks,
            pairs_integrated,
            pixels_shaded,
            exp_evals,
            warp_steps,
            warp_active,
            pixel_list_len,
            bytes_read,
            bytes_written,
        } = other;
        f.gaussians_input += gaussians_input;
        f.gaussians_culled += gaussians_culled;
        f.gaussians_projected += gaussians_projected;
        f.tile_pairs += tile_pairs;
        f.proj_alpha_checks += proj_alpha_checks;
        f.bin_candidates += bin_candidates;
        f.proj_pairs_kept += proj_pairs_kept;
        f.sort_elems += sort_elems;
        f.sort_lists += sort_lists;
        f.sort_group_reuse += sort_group_reuse;
        f.raster_alpha_checks += raster_alpha_checks;
        f.pairs_integrated += pairs_integrated;
        f.pixels_shaded += pixels_shaded;
        f.exp_evals += exp_evals;
        f.warp_steps += warp_steps;
        f.warp_active += warp_active;
        f.pixel_list_len.merge(pixel_list_len);
        f.bytes_read += bytes_read;
        f.bytes_written += bytes_written;
    }
}

/// Backward-pass stage counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BackwardStats {
    /// α-checks re-performed during reverse rasterization (tile-based).
    pub alpha_checks: u64,
    /// Pixel–Gaussian pairs whose partial gradients were computed.
    pub pairs_grad: u64,
    /// Cross-thread reduction operations (pixel-based Γ reduction +
    /// gradient reductions).
    pub reduction_ops: u64,
    /// Scalar atomic adds issued during aggregation.
    pub atomic_adds: u64,
    /// Exponential evaluations in the backward pass.
    pub exp_evals: u64,
    /// Warp-steps issued during reverse rasterization.
    pub warp_steps: u64,
    /// Sum of active threads over those warp-steps.
    pub warp_active: u64,
    /// Distribution of per-Gaussian gradient-contribution counts
    /// (the aggregation-contention driver).
    pub gaussian_touches: Summary,
    /// Number of distinct Gaussians receiving gradients.
    pub gaussians_touched: u64,
    /// Re-projection operations (one per touched Gaussian).
    pub reprojections: u64,
    /// Approximate DRAM bytes read by the backward pass.
    pub bytes_read: u64,
    /// Approximate DRAM bytes written by the backward pass.
    pub bytes_written: u64,
}

impl BackwardStats {
    /// Thread utilization during reverse rasterization in `[0, 1]`.
    pub fn warp_utilization(&self) -> f64 {
        if self.warp_steps == 0 {
            0.0
        } else {
            self.warp_active as f64 / (self.warp_steps * 32) as f64
        }
    }

    /// Mean number of pixels contributing to each touched Gaussian; the
    /// expected `atomicAdd` collision depth during aggregation.
    pub fn mean_contention(&self) -> f64 {
        self.gaussian_touches.mean()
    }

    /// Merges another backward pass's counters into this one (summing
    /// counts); exhaustive like [`RenderTrace::merge`].
    pub(crate) fn merge(&mut self, other: &BackwardStats) {
        let b = self;
        let BackwardStats {
            alpha_checks,
            pairs_grad,
            reduction_ops,
            atomic_adds,
            exp_evals,
            warp_steps,
            warp_active,
            gaussian_touches,
            gaussians_touched,
            reprojections,
            bytes_read,
            bytes_written,
        } = other;
        b.alpha_checks += alpha_checks;
        b.pairs_grad += pairs_grad;
        b.reduction_ops += reduction_ops;
        b.atomic_adds += atomic_adds;
        b.exp_evals += exp_evals;
        b.warp_steps += warp_steps;
        b.warp_active += warp_active;
        b.gaussian_touches.merge(gaussian_touches);
        b.gaussians_touched += gaussians_touched;
        b.reprojections += reprojections;
        b.bytes_read += bytes_read;
        b.bytes_written += bytes_written;
    }
}

/// Complete workload trace of one forward(+backward) render.
///
/// Fixed-size counters only, so a trace merged over a whole run (and
/// stored in checkpoints) costs the same however many renders it covers.
/// Per-element shapes the accelerator models need (per-pixel list lengths)
/// come from the render's own [`crate::ForwardResult::contributions`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RenderTrace {
    /// Forward-pass counters.
    pub forward: ForwardStats,
    /// Backward-pass counters (default-empty until a backward pass runs).
    pub backward: BackwardStats,
}

impl RenderTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        RenderTrace::default()
    }

    /// Merges another trace's counters into this one (summing counts).
    ///
    /// The destructuring here and in `ForwardStats::merge` and
    /// `BackwardStats::merge` is deliberately exhaustive (no `..`):
    /// adding a counter to [`ForwardStats`], [`BackwardStats`], or
    /// [`RenderTrace`] fails compilation until the merge handles it, so a
    /// new counter can never be silently dropped when traces are
    /// aggregated.
    pub fn merge(&mut self, other: &RenderTrace) {
        let RenderTrace { forward, backward } = other;
        self.forward.merge(forward);
        self.backward.merge(backward);
    }
}

/// Approximate per-record byte sizes used for DRAM-traffic accounting.
///
/// A Gaussian record is mean (12B) + quaternion (16B) + scale (12B) +
/// opacity (4B) + color (12B) ≈ 56B, padded to 64. A projected record is
/// mean2d (8) + conic (12) + depth (4) + color (12) + opacity (4) ≈ 40,
/// padded to 48. A gradient record covers the 11 scalar gradient components.
pub mod bytes {
    /// Bytes per Gaussian parameter record.
    pub const GAUSSIAN: u64 = 64;
    /// Bytes per projected-Gaussian record.
    pub const PROJECTED: u64 = 48;
    /// Bytes per pixel–Gaussian pair entry (id + α + depth).
    pub const PAIR_ENTRY: u64 = 12;
    /// Bytes per gradient record (11 f32 components, padded).
    pub const GRADIENT: u64 = 48;
    /// Bytes per shaded pixel result (color + depth + transmittance).
    pub const PIXEL_OUT: u64 = 20;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_bounds() {
        let mut f = ForwardStats::default();
        assert_eq!(f.warp_utilization(), 0.0);
        f.warp_steps = 10;
        f.warp_active = 320;
        assert!((f.warp_utilization() - 1.0).abs() < 1e-12);
        f.warp_active = 32;
        assert!((f.warp_utilization() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn backward_contention() {
        let mut b = BackwardStats::default();
        b.gaussian_touches.push(4.0);
        b.gaussian_touches.push(6.0);
        assert!((b.mean_contention() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = RenderTrace::new();
        a.forward.pairs_integrated = 10;
        a.backward.atomic_adds = 5;
        let mut b = RenderTrace::new();
        b.forward.pairs_integrated = 7;
        b.backward.atomic_adds = 2;
        a.merge(&b);
        assert_eq!(a.forward.pairs_integrated, 17);
        assert_eq!(a.backward.atomic_adds, 7);
    }
}
