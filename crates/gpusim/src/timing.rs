//! Per-stage GPU timing model.

use splatonic_render::trace::ForwardStats;
use splatonic_render::{Pipeline, RenderTrace};

/// `(lists, elements)` the GPU sorts for a trace: per tile on the tile
/// pipeline (a GPU sorts each tile's list on its own), per pixel on the
/// pixel pipeline.
pub(crate) fn sorted_lists(f: &ForwardStats, pipeline: Pipeline) -> (u64, u64) {
    match pipeline {
        Pipeline::TileBased => f.per_tile_sort(),
        Pipeline::PixelBased => (f.sort_lists, f.sort_elems),
    }
}

/// GPU hardware parameters (defaults model a Jetson-Orin-class mobile
/// Ampere GPU).
///
/// Rates are *effective sustained* throughputs, folding issue limits and
/// typical occupancy into one constant per operation class; they are
/// calibration values, not datasheet numbers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuConfig {
    /// Streaming multiprocessor count.
    pub sm_count: usize,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Warp-instructions issued per SM per cycle (sustained).
    pub warp_issue_per_sm: f64,
    /// Cycles of issued work per rasterization warp-step (α-check
    /// address math + blend, excluding the exp itself).
    pub raster_cpi: f64,
    /// Cycles per reverse-rasterization warp-step (gradient math is
    /// heavier than blending).
    pub reverse_cpi: f64,
    /// `exp` evaluations per SM per cycle (SFU throughput).
    pub sfu_exp_per_sm_cycle: f64,
    /// Warp-cycles to project one Gaussian (mean/covariance/conic).
    pub projection_cycles: f64,
    /// Warp-cycles to set up one tile–Gaussian pair entry.
    pub pair_setup_cycles: f64,
    /// Cycles per element·log₂(n) of sorting work.
    pub sort_cycles_per_elem: f64,
    /// Scalar atomic adds retired per cycle (whole GPU, conflict-free).
    pub atomic_throughput: f64,
    /// Extra serialization per unit of mean per-Gaussian collision depth:
    /// effective atomic cost multiplier is `1 + weight · mean_touches`.
    pub atomic_contention_weight: f64,
    /// Cycles per re-projection (per touched Gaussian).
    pub reprojection_cycles: f64,
    /// Kernel-launch overhead per stage launch, in microseconds (the paper
    /// measures "execution time as well as the kernel launch").
    pub launch_overhead_us: f64,
    /// Number of kernel launches per forward pass.
    pub forward_launches: f64,
    /// Number of kernel launches per backward pass.
    pub backward_launches: f64,
    /// Sustained DRAM bandwidth in GB/s.
    pub dram_gbps: f64,
    /// Per-stage minimum time in microseconds (kernel tail / sync floor —
    /// tiny sparse kernels cannot go faster than this).
    pub stage_floor_us: f64,
}

impl GpuConfig {
    /// Jetson-Orin-like mobile Ampere configuration.
    pub fn orin_like() -> Self {
        GpuConfig {
            sm_count: 8,
            clock_ghz: 0.918,
            warp_issue_per_sm: 1.0,
            raster_cpi: 24.0,
            reverse_cpi: 40.0,
            sfu_exp_per_sm_cycle: 4.0,
            projection_cycles: 48.0,
            pair_setup_cycles: 4.0,
            sort_cycles_per_elem: 1.2,
            atomic_throughput: 16.0,
            atomic_contention_weight: 0.03,
            reprojection_cycles: 96.0,
            launch_overhead_us: 6.0,
            forward_launches: 3.0,
            backward_launches: 2.0,
            dram_gbps: 51.2,
            stage_floor_us: 3.0,
        }
    }

    /// Total warp-instruction issue slots per second.
    fn issue_rate(&self) -> f64 {
        self.sm_count as f64 * self.warp_issue_per_sm * self.clock_ghz * 1e9
    }

    /// Total `exp` evaluations per second.
    fn sfu_rate(&self) -> f64 {
        self.sm_count as f64 * self.sfu_exp_per_sm_cycle * self.clock_ghz * 1e9
    }

    /// Seconds for `cycles` of warp-issue work.
    fn issue_seconds(&self, cycles: f64) -> f64 {
        cycles / self.issue_rate()
    }

    /// Seconds the SFUs need for `evals` exponential evaluations (used by
    /// the α-checking-share characterization, paper Fig. 9).
    pub fn sfu_seconds(&self, evals: u64) -> f64 {
        evals as f64 / self.sfu_rate()
    }

    /// Prices one forward+backward trace.
    pub fn price(&self, trace: &RenderTrace, pipeline: Pipeline) -> GpuReport {
        let f = &trace.forward;
        let b = &trace.backward;
        let clock_hz = self.clock_ghz * 1e9;

        // --- Forward ---------------------------------------------------
        // Projection: per-Gaussian transform work plus pipeline-specific
        // extras (tile pairs vs. preemptive α-checking).
        let mut projection = self.issue_seconds(
            f.gaussians_input as f64 / 32.0 * self.projection_cycles
                + f.tile_pairs as f64 * self.pair_setup_cycles / 32.0,
        );
        if pipeline == Pipeline::PixelBased {
            // Pixel-level projection on the GPU lacks the accelerator's
            // direct indexing (a hardware technique, paper Sec. V-C): every
            // projected Gaussian scans the whole sampled-pixel list and
            // α-checks each candidate. This is what shifts the forward
            // bottleneck into projection (paper Fig. 14a).
            let sw_checks = (f.gaussians_projected as f64) * (f.pixels_shaded as f64);
            let setup = self.issue_seconds(sw_checks * self.pair_setup_cycles / 8.0);
            let sfu = sw_checks / self.sfu_rate();
            projection += setup.max(sfu)
                + self.issue_seconds(f.proj_pairs_kept as f64 * self.pair_setup_cycles / 32.0);
        }

        // Sorting: n·log n compare/exchange work over the sorted lists.
        let (lists, elems) = sorted_lists(f, pipeline);
        let mean_len = if lists > 0 {
            (elems as f64 / lists as f64).max(2.0)
        } else {
            2.0
        };
        let sorting =
            self.issue_seconds(elems as f64 * mean_len.log2() * self.sort_cycles_per_elem / 32.0);

        // Rasterization: warp-steps are the issued work regardless of how
        // many lanes were useful (divergence); α-check exps bound via SFU.
        let raster_issue = self.issue_seconds(f.warp_steps as f64 * self.raster_cpi);
        let raster_sfu = f.raster_alpha_checks as f64 / self.sfu_rate();
        let rasterization = raster_issue.max(raster_sfu);

        // DRAM floor for the whole forward pass.
        let fwd_dram = (f.bytes_read + f.bytes_written) as f64 / (self.dram_gbps * 1e9);
        let fwd_launch = self.forward_launches * self.launch_overhead_us * 1e-6;

        // --- Backward --------------------------------------------------
        let floor = self.stage_floor_us * 1e-6;
        let projection = projection.max(floor);
        let sorting = sorting.max(floor);
        let rasterization = rasterization.max(floor);

        let rev_issue = self.issue_seconds(b.warp_steps as f64 * self.reverse_cpi);
        let rev_sfu = (b.alpha_checks + b.exp_evals) as f64 / self.sfu_rate();
        let rev_reduction = self.issue_seconds(b.reduction_ops as f64 * 2.0 / 32.0);
        let reverse_raster = (rev_issue.max(rev_sfu) + rev_reduction).max(floor);

        // Aggregation: atomic throughput degraded by measured collision
        // depth (paper Fig. 8: ≥63.5% of reverse-raster time).
        let contention = 1.0 + self.atomic_contention_weight * b.gaussian_touches.mean();
        let aggregation =
            (b.atomic_adds as f64 * contention / (self.atomic_throughput * clock_hz)).max(floor);

        let reprojection =
            self.issue_seconds(b.reprojections as f64 / 32.0 * self.reprojection_cycles);
        let bwd_dram = (b.bytes_read + b.bytes_written) as f64 / (self.dram_gbps * 1e9);
        let bwd_launch = self.backward_launches * self.launch_overhead_us * 1e-6;

        GpuReport {
            forward: StageTimes {
                projection,
                sorting,
                rasterization,
                dram_floor: fwd_dram,
                launch: fwd_launch,
            },
            backward: BackwardTimes {
                reverse_raster,
                aggregation,
                reprojection,
                dram_floor: bwd_dram,
                launch: bwd_launch,
            },
        }
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig::orin_like()
    }
}

/// Forward-pass stage times (seconds).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageTimes {
    /// Projection stage.
    pub projection: f64,
    /// Sorting stage.
    pub sorting: f64,
    /// Rasterization stage.
    pub rasterization: f64,
    /// Memory-bandwidth floor across the pass.
    pub dram_floor: f64,
    /// Kernel-launch overhead.
    pub launch: f64,
}

impl StageTimes {
    /// Total forward time: compute stages serialize; the DRAM floor applies
    /// if it exceeds the summed compute time.
    pub fn total(&self) -> f64 {
        (self.projection + self.sorting + self.rasterization).max(self.dram_floor) + self.launch
    }
}

/// Backward-pass stage times (seconds).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BackwardTimes {
    /// Reverse rasterization (per-pair gradients, including Γ reductions).
    pub reverse_raster: f64,
    /// Aggregation (atomic accumulation of partial gradients).
    pub aggregation: f64,
    /// Re-projection of accumulated gradients.
    pub reprojection: f64,
    /// Memory-bandwidth floor across the pass.
    pub dram_floor: f64,
    /// Kernel-launch overhead.
    pub launch: f64,
}

impl BackwardTimes {
    /// Total backward time.
    pub fn total(&self) -> f64 {
        (self.reverse_raster + self.aggregation + self.reprojection).max(self.dram_floor)
            + self.launch
    }
}

/// Priced forward + backward pass.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GpuReport {
    /// Forward-pass stage times.
    pub forward: StageTimes,
    /// Backward-pass stage times.
    pub backward: BackwardTimes,
}

impl GpuReport {
    /// End-to-end seconds (forward + backward).
    pub fn total_seconds(&self) -> f64 {
        self.forward.total() + self.backward.total()
    }

    /// Fraction of total time spent in rasterization + reverse
    /// rasterization (paper Fig. 5 reports ≈ 94.7% for the dense baseline).
    pub fn raster_fraction(&self) -> f64 {
        let t = self.total_seconds();
        if t == 0.0 {
            return 0.0;
        }
        (self.forward.rasterization + self.backward.reverse_raster + self.backward.aggregation) / t
    }

    /// Fraction of backward time in aggregation (paper Fig. 8).
    pub fn aggregation_fraction(&self) -> f64 {
        let t = self.backward.total();
        if t == 0.0 {
            return 0.0;
        }
        self.backward.aggregation / t
    }

    /// Exports the stage breakdown as telemetry gauges under `prefix` (e.g.
    /// `hw/gpu`), one gauge per stage. Pass totals are left to the caller
    /// (`IterationCost` exports them as `forward_seconds` and friends).
    ///
    /// Destructuring is exhaustive: a new stage field fails compilation here
    /// until it is exported.
    pub fn export_telemetry(&self, telemetry: &splatonic_telemetry::Telemetry, prefix: &str) {
        let GpuReport { forward, backward } = self;
        let StageTimes {
            projection,
            sorting,
            rasterization,
            dram_floor,
            launch,
        } = forward;
        let fwd = [
            ("projection_s", *projection),
            ("sorting_s", *sorting),
            ("rasterization_s", *rasterization),
            ("dram_floor_s", *dram_floor),
            ("launch_s", *launch),
        ];
        for (name, value) in fwd {
            telemetry.gauge_set(&format!("{prefix}/forward/{name}"), value);
        }
        let BackwardTimes {
            reverse_raster,
            aggregation,
            reprojection,
            dram_floor,
            launch,
        } = backward;
        let bwd = [
            ("reverse_raster_s", *reverse_raster),
            ("aggregation_s", *aggregation),
            ("reprojection_s", *reprojection),
            ("dram_floor_s", *dram_floor),
            ("launch_s", *launch),
        ];
        for (name, value) in bwd {
            telemetry.gauge_set(&format!("{prefix}/backward/{name}"), value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splatonic_render::RenderTrace;

    fn dense_tile_trace() -> RenderTrace {
        // Synthetic counts shaped like a dense 3DGS frame: raster dominates.
        let mut t = RenderTrace::new();
        let f = &mut t.forward;
        f.gaussians_input = 100_000;
        f.gaussians_projected = 60_000;
        f.tile_pairs = 500_000;
        f.sort_elems = 500_000;
        f.sort_lists = 4_800;
        f.warp_steps = 4_000_000;
        f.warp_active = 36_000_000;
        f.raster_alpha_checks = 100_000_000;
        f.exp_evals = 100_000_000;
        f.pairs_integrated = 30_000_000;
        f.pixels_shaded = 1_200_000;
        f.bytes_read = 200_000_000;
        f.bytes_written = 50_000_000;
        let b = &mut t.backward;
        b.warp_steps = 4_000_000;
        b.alpha_checks = 100_000_000;
        b.exp_evals = 30_000_000;
        b.pairs_grad = 30_000_000;
        b.atomic_adds = 300_000_000;
        for _ in 0..100 {
            b.gaussian_touches.push(500.0);
        }
        b.gaussians_touched = 60_000;
        b.reprojections = 60_000;
        b.bytes_read = 300_000_000;
        b.bytes_written = 100_000_000;
        t
    }

    #[test]
    fn dense_raster_dominates() {
        let r = price_default(&dense_tile_trace());
        assert!(
            r.raster_fraction() > 0.85,
            "raster fraction {} should dominate like paper Fig. 5",
            r.raster_fraction()
        );
    }

    fn price_default(t: &RenderTrace) -> GpuReport {
        GpuConfig::orin_like().price(t, Pipeline::TileBased)
    }

    #[test]
    fn aggregation_significant_in_backward() {
        let r = price_default(&dense_tile_trace());
        assert!(
            r.aggregation_fraction() > 0.4,
            "aggregation fraction {} (paper Fig. 8: ≈63.5%)",
            r.aggregation_fraction()
        );
    }

    #[test]
    fn sparse_tile_trace_is_barely_faster() {
        // Sparse sampling on the tile schedule: warp_steps shrink only ~8×
        // (warps still walk whole tile lists), α-checks shrink ~256×.
        let dense = dense_tile_trace();
        let mut sparse = dense_tile_trace();
        sparse.forward.warp_steps /= 8;
        sparse.forward.raster_alpha_checks /= 256;
        sparse.forward.exp_evals /= 256;
        sparse.backward.warp_steps /= 8;
        sparse.backward.alpha_checks /= 256;
        sparse.backward.atomic_adds /= 256;
        let rd = price_default(&dense);
        let rs = price_default(&sparse);
        let speedup = rd.total_seconds() / rs.total_seconds();
        assert!(
            speedup > 2.0 && speedup < 40.0,
            "tile-based sparse speedup {speedup} should be far below 256× (paper: ~4×)"
        );
    }

    #[test]
    fn sfu_bounds_alpha_heavy_stages() {
        let mut t = dense_tile_trace();
        // Make the α-check count extreme: rasterization must become
        // SFU-bound and scale with it.
        t.forward.raster_alpha_checks *= 30;
        let r = price_default(&t);
        let base = price_default(&dense_tile_trace());
        assert!(r.forward.rasterization > base.forward.rasterization * 5.0);
    }

    #[test]
    fn contention_scales_aggregation() {
        let mut low = dense_tile_trace();
        low.backward.gaussian_touches = splatonic_math::stats::Summary::from_iter([2.0; 16]);
        let mut high = dense_tile_trace();
        high.backward.gaussian_touches = splatonic_math::stats::Summary::from_iter([2000.0; 16]);
        let rl = price_default(&low);
        let rh = price_default(&high);
        assert!(rh.backward.aggregation > rl.backward.aggregation * 5.0);
    }

    #[test]
    fn empty_trace_is_pure_overhead() {
        // No work: only launch overhead plus the per-stage kernel-tail
        // floor remains (three forward stages, reverse raster, aggregation;
        // reprojection has no floor).
        let r = price_default(&RenderTrace::new());
        let cfg = GpuConfig::orin_like();
        let launches =
            (cfg.forward_launches + cfg.backward_launches) * cfg.launch_overhead_us * 1e-6;
        let floors = 5.0 * cfg.stage_floor_us * 1e-6;
        assert!((r.total_seconds() - (launches + floors)).abs() < 1e-12);
    }

    #[test]
    fn pixel_pipeline_prices_projection_alpha_checks() {
        // The SW pixel-based projection term scans every sampled pixel per
        // projected Gaussian, so the trace must carry both counts.
        let mut t = RenderTrace::new();
        t.forward.gaussians_input = 10_000;
        t.forward.gaussians_projected = 8_000;
        t.forward.pixels_shaded = 1_000;
        t.forward.proj_alpha_checks = 5_000_000;
        t.forward.proj_pairs_kept = 100_000;
        let tile = GpuConfig::orin_like().price(&t, Pipeline::TileBased);
        let pixel = GpuConfig::orin_like().price(&t, Pipeline::PixelBased);
        assert!(pixel.forward.projection > tile.forward.projection * 2.0);
    }
}
