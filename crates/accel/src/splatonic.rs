//! The SPLATONIC pipelined accelerator model (paper Sec. V, Fig. 15).
//!
//! Forward: projection units (with α-filter LUTs) → hierarchical sorters →
//! rasterization engines, all streaming through double buffers, so the pass
//! time is the *maximum* stage occupancy plus fill/drain — the defining
//! property of the pipelined design. The render units need no α-checking
//! (preemptive α-checking guarantees every list entry contributes) and the
//! forward pass stashes `Γ_i`/`C_i` per pixel in the engine buffer, so the
//! backward pass runs without the first cross-thread reduction.
//!
//! Backward: reverse render units compute per-pair gradients; the
//! aggregation unit (simulated cycle-by-cycle in [`crate::aggregation`])
//! drains them; re-projection reuses the projection units.

use crate::aggregation::{simulate, AggregationConfig, AggregationResult};
use crate::config::SplatonicConfig;
use crate::dram::DramModel;
use crate::workload::FrameWorkload;

/// Per-stage cycle breakdown of one pass on SPLATONIC.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AccelReport {
    /// Projection-stage cycles (incl. preemptive α-checking).
    pub projection_cycles: f64,
    /// Sorting-stage cycles.
    pub sorting_cycles: f64,
    /// Rasterization-engine cycles (forward).
    pub raster_cycles: f64,
    /// Reverse-render cycles (backward pair gradients).
    pub reverse_cycles: f64,
    /// Aggregation-unit cycles (from the cycle-stepped simulation).
    pub aggregation_cycles: f64,
    /// Re-projection cycles.
    pub reprojection_cycles: f64,
    /// DRAM streaming floor for the forward pass, cycles.
    pub fwd_dram_cycles: f64,
    /// DRAM streaming floor for the backward pass, cycles.
    pub bwd_dram_cycles: f64,
    /// Pipeline fill/drain overhead, cycles.
    pub fill_cycles: f64,
    /// Clock in Hz (for time conversion).
    pub clock_hz: f64,
    /// Distinct Gaussians in the gradient stream (the re-projected set),
    /// counted once per pricing so the energy model reuses it.
    pub touched_gaussians: u64,
    /// Aggregation simulation detail.
    pub aggregation: AggregationResult,
}

impl AccelReport {
    /// Forward-pass cycles: pipelined stages bound by the slowest, floored
    /// by DRAM streaming.
    pub fn forward_cycles(&self) -> f64 {
        self.projection_cycles
            .max(self.sorting_cycles)
            .max(self.raster_cycles)
            .max(self.fwd_dram_cycles)
            + self.fill_cycles
    }

    /// Backward-pass cycles: reverse rasterization and aggregation are
    /// pipelined against each other; re-projection follows.
    pub fn backward_cycles(&self) -> f64 {
        self.reverse_cycles
            .max(self.aggregation_cycles)
            .max(self.bwd_dram_cycles)
            + self.reprojection_cycles
            + self.fill_cycles
    }

    /// Total seconds for forward + backward.
    pub fn total_seconds(&self) -> f64 {
        (self.forward_cycles() + self.backward_cycles()) / self.clock_hz
    }

    /// Exports the stage cycle breakdown (and the aggregation-unit detail)
    /// as telemetry gauges under `prefix` (e.g. `hw/splatonic`).
    ///
    /// Destructuring is exhaustive: a new report field fails compilation
    /// here until it is exported. `touched_gaussians` is a workload count,
    /// not a stage; its cost is exported as `reprojection_cycles`.
    pub fn export_telemetry(&self, telemetry: &splatonic_telemetry::Telemetry, prefix: &str) {
        let AccelReport {
            projection_cycles,
            sorting_cycles,
            raster_cycles,
            reverse_cycles,
            aggregation_cycles,
            reprojection_cycles,
            fwd_dram_cycles,
            bwd_dram_cycles,
            fill_cycles,
            clock_hz,
            touched_gaussians: _,
            aggregation,
        } = self;
        let stages = [
            ("projection_cycles", *projection_cycles),
            ("sorting_cycles", *sorting_cycles),
            ("raster_cycles", *raster_cycles),
            ("reverse_cycles", *reverse_cycles),
            ("aggregation_cycles", *aggregation_cycles),
            ("reprojection_cycles", *reprojection_cycles),
            ("fwd_dram_cycles", *fwd_dram_cycles),
            ("bwd_dram_cycles", *bwd_dram_cycles),
            ("fill_cycles", *fill_cycles),
            ("clock_hz", *clock_hz),
            ("forward_cycles", self.forward_cycles()),
            ("backward_cycles", self.backward_cycles()),
        ];
        for (name, value) in stages {
            telemetry.gauge_set(&format!("{prefix}/{name}"), value);
        }
        telemetry.gauge_set(
            &format!("{prefix}/aggregation/stall_cycles"),
            aggregation.stall_cycles as f64,
        );
        telemetry.gauge_set(
            &format!("{prefix}/aggregation/dram_bytes"),
            aggregation.dram_bytes as f64,
        );
    }
}

/// The SPLATONIC accelerator model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SplatonicAccel {
    /// Hardware configuration.
    pub config: SplatonicConfig,
    /// DRAM model.
    pub dram: DramModel,
}

impl SplatonicAccel {
    /// Creates the paper-configuration accelerator.
    pub fn paper() -> Self {
        SplatonicAccel {
            config: SplatonicConfig::paper(),
            dram: DramModel::lpddr3_1600_x4(),
        }
    }

    /// Prices one training iteration's workload.
    ///
    /// The workload should come from the **pixel-based** pipeline — the
    /// architecture implements that schedule (tile-based workloads are what
    /// the baselines consume).
    pub fn price(&self, w: &FrameWorkload) -> AccelReport {
        let c = &self.config;
        let clock = c.clock_hz();

        // Projection: each Gaussian is transformed once; its candidate
        // pixels are α-checked by the unit's α-filter LUTs.
        let transform = w.gaussians as f64 * c.projection_cycles / c.projection_units as f64;
        let alpha = w.proj_alpha_checks as f64 / c.alpha_check_rate();
        let projection_cycles = transform + alpha;

        // Sorting on the hierarchical sorters: the architecture's pixel
        // schedule depth-sorts each pixel's list.
        let sort_work: f64 = w
            .pixel_lists
            .iter()
            .map(|&l| {
                let l = l as f64;
                if l > 1.0 {
                    l * l.log2()
                } else {
                    l
                }
            })
            .sum();
        let sorting_cycles = sort_work / (c.sorting_units as f64 * c.sort_elems_per_unit_cycle);

        // Rasterization: render units blend pre-filtered pairs; one
        // reduction step per pixel.
        let pairs = w.total_pairs() as f64;
        let raster_cycles = pairs / c.blend_rate() + w.pixels as f64;

        // Forward DRAM floor. The accelerator streams fp16 parameter
        // records in two phases (geometry for projection, then color/
        // opacity only for surviving Gaussians) rather than the GPU's
        // full-fat records. Pixel–Gaussian pair entries never round-trip
        // DRAM: the streaming pipeline (Fig. 15) carries each pixel's list
        // through sort → raster → reverse-raster on-chip, which is exactly
        // what the per-pixel Γ/C double buffer enables.
        let hw_fwd_bytes = w.gaussians * 32 + w.projected * 16 + w.pixels * 20;
        let fwd_dram_cycles = self.dram.transfer_cycles(hw_fwd_bytes, clock);

        // Backward: reverse render units, using the cached Γ/C (no first
        // reduction).
        let grads = w.total_grad_entries() as f64;
        let reverse_cycles = grads / c.grad_rate();

        // Aggregation: cycle-stepped simulation on the real stream.
        let agg_cfg = AggregationConfig {
            channels: c.aggregation_channels,
            cache_entries: c.gaussian_cache_bytes / 48,
            scoreboard_entries: c.scoreboard_bytes / 16,
            record_bytes: 48,
            retire_per_cycle: c.aggregation_channels,
        };
        let aggregation = simulate(&w.grad_stream, &agg_cfg, &self.dram, clock);

        // Re-projection of the touched Gaussians on the projection units.
        let touched_gaussians = w.distinct_grad_gaussians() as u64;
        let reprojection_cycles =
            touched_gaussians as f64 * c.reprojection_cycles / c.projection_units as f64;

        // Backward traffic: only the per-Gaussian accumulated gradients
        // (handled by the aggregation unit's cache) plus the final
        // re-projected parameter updates; pair lists stay on-chip.
        let hw_bwd_bytes = touched_gaussians * 48;
        let bwd_dram_cycles = self
            .dram
            .transfer_cycles(hw_bwd_bytes + aggregation.dram_bytes, clock);

        AccelReport {
            projection_cycles,
            sorting_cycles,
            raster_cycles,
            reverse_cycles,
            aggregation_cycles: aggregation.cycles as f64,
            reprojection_cycles,
            fwd_dram_cycles,
            bwd_dram_cycles,
            fill_cycles: c.pipeline_fill_cycles,
            clock_hz: clock,
            touched_gaussians,
            aggregation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sparse_workload() -> FrameWorkload {
        // 48 sampled pixels, ~20 contributors each, 4000 Gaussians.
        let pixel_lists = vec![20u32; 48];
        let grad_stream: Vec<Vec<u32>> = (0..48u32)
            .map(|p| (0..20u32).map(|k| (p * 37 + k * 113) % 4000).collect())
            .collect();
        FrameWorkload {
            gaussians: 4000,
            projected: 3000,
            proj_alpha_checks: 4 * 3000,
            pairs_kept: 960,
            tile_pairs: 0,
            pixel_lists,
            grad_stream,
            tile_warp_steps: 0,
            fwd_bytes: 4000 * 64 + 960 * 12,
            bwd_bytes: 960 * 48,
            pixels: 48,
        }
    }

    #[test]
    fn sparse_iteration_is_fast() {
        let accel = SplatonicAccel::paper();
        let r = accel.price(&sparse_workload());
        // A sparse tracking iteration should take well under a millisecond
        // at 500 MHz (the paper reports hundreds of FPS end-to-end).
        assert!(r.total_seconds() < 1e-3, "took {}", r.total_seconds());
        assert!(r.forward_cycles() > 0.0);
        assert!(r.backward_cycles() > 0.0);
    }

    #[test]
    fn report_carries_the_distinct_gradient_count() {
        let w = sparse_workload();
        let r = SplatonicAccel::paper().price(&w);
        assert!(r.touched_gaussians > 0);
        assert_eq!(r.touched_gaussians, w.distinct_grad_gaussians() as u64);
    }

    #[test]
    fn stage_occupancy_pipelines() {
        // Compute stages overlap: the pipelined occupancy is the max, not
        // the sum. (The full forward time may still be DRAM-floored for
        // small workloads, which is orthogonal to pipelining.)
        let accel = SplatonicAccel::paper();
        let r = accel.price(&sparse_workload());
        let sum = r.projection_cycles + r.sorting_cycles + r.raster_cycles;
        let pipelined = r
            .projection_cycles
            .max(r.sorting_cycles)
            .max(r.raster_cycles);
        assert!(pipelined < sum);
        assert!(r.forward_cycles() >= pipelined);
    }

    #[test]
    fn more_render_units_speed_up_raster_bound() {
        let mut w = sparse_workload();
        // Make rasterization the bottleneck.
        w.pixel_lists = vec![2000u32; 48];
        let base = SplatonicAccel::paper().price(&w);
        let big = SplatonicAccel {
            config: SplatonicConfig::paper().with_units(8, 8),
            dram: DramModel::lpddr3_1600_x4(),
        }
        .price(&w);
        assert!(big.raster_cycles < base.raster_cycles * 0.6);
    }

    #[test]
    fn more_projection_units_speed_up_projection_bound() {
        let mut w = sparse_workload();
        w.proj_alpha_checks = 64 * 3000; // heavy preemptive checking
        let base = SplatonicAccel::paper().price(&w);
        let big = SplatonicAccel {
            config: SplatonicConfig::paper().with_units(16, 4),
            dram: DramModel::lpddr3_1600_x4(),
        }
        .price(&w);
        assert!(big.projection_cycles < base.projection_cycles * 0.6);
    }

    #[test]
    fn pixel_workloads_ignore_tile_sort_counters() {
        // The architecture's native pixel schedule prices per-pixel lists;
        // the tile schedule's pair count must not change any stage.
        let mut w = sparse_workload();
        w.tile_pairs = 234_567;
        let base = SplatonicAccel::paper().price(&sparse_workload());
        let noisy = SplatonicAccel::paper().price(&w);
        assert_eq!(base, noisy);
    }

    #[test]
    fn empty_workload_costs_only_fill() {
        let accel = SplatonicAccel::paper();
        let r = accel.price(&FrameWorkload::default());
        assert!((r.forward_cycles() - accel.config.pipeline_fill_cycles).abs() < 1e-9);
    }
}
