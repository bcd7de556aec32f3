//! Prior-accelerator baselines: GSArch \[29] and GauSPU \[77].
//!
//! Both are built for **tile-based** rendering, which is what makes them
//! inefficient under sparse pixel sampling (paper Sec. VII-C): their PE
//! arrays process tile-granular work, so a tile with one sampled pixel
//! still walks its whole Gaussian list. The models consume the *tile
//! pipeline's* workload trace, whose `tile_warp_steps` already encode that
//! slot-level inefficiency.
//!
//! * **GSArch** — a dedicated 3DGS *training* accelerator; all stages run
//!   on-chip. Its aggregation handles memory stalls better than GPU
//!   `atomicAdd` but lacks SPLATONIC's scoreboard/cache co-design.
//! * **GauSPU** — a 3DGS-SLAM processor that *"executes projection and
//!   sorting on GPU, and the remaining stages … on the dedicated
//!   accelerator"*; its projection/sorting latency and energy are therefore
//!   priced with the GPU model.

use crate::dram::DramModel;
use crate::workload::FrameWorkload;
use splatonic_gpusim::{GpuConfig, GpuEnergyModel};
use splatonic_render::{Pipeline, RenderTrace};

/// Per-pass result for a baseline accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BaselineReport {
    /// Forward seconds.
    pub forward_s: f64,
    /// Backward seconds.
    pub backward_s: f64,
    /// Energy in joules.
    pub energy_j: f64,
}

impl BaselineReport {
    /// Total seconds.
    pub fn total_seconds(&self) -> f64 {
        self.forward_s + self.backward_s
    }
}

/// GSArch model (edge configuration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GsArchModel {
    /// PE lanes processing pixel–Gaussian slots.
    pub pe_lanes: f64,
    /// Clock in Hz (scaled to 500 MHz like the paper's comparison).
    pub clock_hz: f64,
    /// Cycles per pixel–Gaussian slot (α-check + blend on dedicated logic).
    pub slot_cpi: f64,
    /// Cycles per slot in the backward pass.
    pub bwd_slot_cpi: f64,
    /// Gradient accumulations retired per cycle (its memory-stall
    /// mitigation is better than GPU atomics, below SPLATONIC's unit).
    pub accum_per_cycle: f64,
    /// Projection throughput, Gaussians per cycle.
    pub proj_per_cycle: f64,
    /// Sort throughput, elements per cycle.
    pub sort_per_cycle: f64,
    /// Energy per slot, picojoules.
    pub pj_per_slot: f64,
    /// Static power, watts.
    pub static_watts: f64,
    /// Effective DRAM-traffic factor: GSArch's contribution is breaking
    /// memory barriers in 3DGS training (fp16 parameter streams + on-chip
    /// reuse of tile lists), modelled as a flat compression of the tile
    /// pipeline's raw traffic.
    pub dram_traffic_factor: f64,
    /// DRAM model.
    pub dram: DramModel,
}

impl GsArchModel {
    /// Edge configuration scaled to 500 MHz (paper Sec. VI).
    pub fn edge() -> Self {
        GsArchModel {
            pe_lanes: 64.0,
            clock_hz: 500e6,
            slot_cpi: 1.0,
            bwd_slot_cpi: 2.0,
            accum_per_cycle: 2.0,
            proj_per_cycle: 2.0,
            sort_per_cycle: 4.0,
            pj_per_slot: 18.0,
            static_watts: 0.25,
            dram_traffic_factor: 0.35,
            dram: DramModel::lpddr3_1600_x4(),
        }
    }

    /// Prices a tile-pipeline workload.
    ///
    /// `tile_warp_steps` count 32-slot steps of the tile schedule; GSArch
    /// runs the same slot-granular work on `pe_lanes` dedicated lanes.
    /// Sorting is charged per tile–Gaussian pair (`tile_pairs /
    /// sort_per_cycle`): the prior architectures sort each tile's list
    /// independently.
    pub fn price(&self, w: &FrameWorkload) -> BaselineReport {
        let slots = w.tile_warp_steps as f64 * 32.0;
        let fwd_bytes = w.fwd_bytes as f64 * self.dram_traffic_factor;
        let bwd_bytes =
            (w.bwd_bytes + w.total_grad_entries() * 48) as f64 * self.dram_traffic_factor;
        let fwd_compute = w.gaussians as f64 / self.proj_per_cycle
            + w.tile_pairs as f64 / self.sort_per_cycle
            + slots * self.slot_cpi / self.pe_lanes;
        let fwd_dram = self.dram.transfer_cycles(fwd_bytes as u64, self.clock_hz);
        let forward = fwd_compute.max(fwd_dram) / self.clock_hz;

        let grads = w.total_grad_entries() as f64;
        let bwd_compute = slots * self.bwd_slot_cpi / self.pe_lanes + grads / self.accum_per_cycle;
        let bwd_dram = self.dram.transfer_cycles(bwd_bytes as u64, self.clock_hz);
        let backward = bwd_compute.max(bwd_dram) / self.clock_hz;

        let energy = (slots * 2.0 + grads) * self.pj_per_slot * 1e-12
            + (fwd_bytes + bwd_bytes) * 80.0 * 1e-12
            + self.static_watts * (forward + backward);
        BaselineReport {
            forward_s: forward,
            backward_s: backward,
            energy_j: energy,
        }
    }
}

impl Default for GsArchModel {
    fn default() -> Self {
        GsArchModel::edge()
    }
}

/// GauSPU model: GPU projection/sorting + dedicated raster/reverse-raster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GauSpuModel {
    /// GPU used for projection and sorting.
    pub gpu: GpuConfig,
    /// GPU energy model for those stages.
    pub gpu_energy: GpuEnergyModel,
    /// Accelerator PE lanes for rasterization stages.
    pub pe_lanes: f64,
    /// Accelerator clock in Hz.
    pub clock_hz: f64,
    /// Cycles per pixel–Gaussian slot.
    pub slot_cpi: f64,
    /// Gradient accumulations retired per cycle.
    pub accum_per_cycle: f64,
    /// Energy per slot, picojoules.
    pub pj_per_slot: f64,
    /// Accelerator static power, watts.
    pub static_watts: f64,
}

impl GauSpuModel {
    /// The paper's modelling: GPU stage parameters from the Orin mobile GPU.
    pub fn paper() -> Self {
        GauSpuModel {
            gpu: GpuConfig::orin_like(),
            gpu_energy: GpuEnergyModel::orin_like(),
            pe_lanes: 32.0,
            clock_hz: 500e6,
            slot_cpi: 2.0,
            accum_per_cycle: 1.0,
            pj_per_slot: 22.0,
            static_watts: 0.2,
        }
    }

    /// Prices a tile-pipeline workload; `gpu_trace` must be the matching
    /// tile-pipeline render trace (for the GPU-side stages).
    pub fn price(&self, w: &FrameWorkload, gpu_trace: &RenderTrace) -> BaselineReport {
        // GPU side: projection + sorting latency and energy.
        let gpu_report = self.gpu.price(gpu_trace, Pipeline::TileBased);
        let gpu_time = gpu_report.forward.projection + gpu_report.forward.sorting;
        // Count the GPU energy for just those stages via their time share.
        let gpu_total = gpu_report.total_seconds().max(1e-12);
        let gpu_energy_all = self
            .gpu_energy
            .price(gpu_trace, Pipeline::TileBased, &gpu_report)
            .total_j();
        let gpu_energy = gpu_energy_all * (gpu_time / gpu_total).min(1.0);

        // Accelerator side: tile-granular rasterization slots.
        let slots = w.tile_warp_steps as f64 * 32.0;
        let fwd = slots * self.slot_cpi / self.pe_lanes / self.clock_hz;
        let grads = w.total_grad_entries() as f64;
        let bwd =
            (slots * self.slot_cpi / self.pe_lanes + grads / self.accum_per_cycle) / self.clock_hz;
        let accel_energy =
            (slots * 2.0 + grads) * self.pj_per_slot * 1e-12 + self.static_watts * (fwd + bwd);
        // The GPU must stay powered across the whole pipelined iteration
        // (it feeds projection/sorting results to the accelerator), so its
        // static power is charged over the full latency — the reason the
        // paper finds GauSPU+S's energy efficiency low (Sec. VII-C).
        let total = gpu_time + fwd + bwd;
        let gpu_static = self.gpu_energy.static_watts * total;

        BaselineReport {
            forward_s: gpu_time + fwd,
            backward_s: bwd,
            energy_j: gpu_energy + gpu_static + accel_energy,
        }
    }
}

impl Default for GauSpuModel {
    fn default() -> Self {
        GauSpuModel::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile_workload(sparse: bool) -> FrameWorkload {
        // Dense: every pixel works; sparse: 1/256 pixels but tile lists
        // still walked (warp-steps shrink only ~8×).
        let (pixels, steps, pairs) = if sparse {
            (48u64, 60_000u64, 1_000u64)
        } else {
            (12_288u64, 480_000u64, 250_000u64)
        };
        FrameWorkload {
            gaussians: 4000,
            projected: 3000,
            proj_alpha_checks: 0,
            pairs_kept: 0,
            tile_pairs: 40_000,
            pixel_lists: vec![(pairs / pixels.max(1)) as u32; pixels as usize],
            grad_stream: (0..pixels as u32)
                .map(|p| {
                    (0..(pairs / pixels.max(1)) as u32)
                        .map(|k| (p * 31 + k * 97) % 4000)
                        .collect()
                })
                .collect(),
            tile_warp_steps: steps,
            fwd_bytes: 4_000_000,
            bwd_bytes: 2_000_000,
            pixels,
        }
    }

    #[test]
    fn gsarch_sparse_speedup_is_limited() {
        let m = GsArchModel::edge();
        let dense = m.price(&tile_workload(false));
        let sparse = m.price(&tile_workload(true));
        let speedup = dense.total_seconds() / sparse.total_seconds();
        // Tile-granular work limits the benefit of 256× fewer pixels.
        assert!(
            speedup > 1.5 && speedup < 64.0,
            "GSArch sparse speedup {speedup} should be far below 256×"
        );
    }

    #[test]
    fn gauspu_keeps_gpu_projection_cost() {
        let m = GauSpuModel::paper();
        let mut trace = RenderTrace::new();
        trace.forward.gaussians_input = 4000;
        trace.forward.tile_pairs = 40_000;
        trace.forward.sort_elems = 40_000;
        trace.forward.sort_lists = 48;
        let r = m.price(&tile_workload(true), &trace);
        // GPU-side projection/sorting must be a visible part of the total.
        let gpu_side = m.gpu.price(&trace, Pipeline::TileBased);
        let gpu_time = gpu_side.forward.projection + gpu_side.forward.sorting;
        assert!(r.forward_s >= gpu_time);
        assert!(gpu_time > 0.0);
    }

    #[test]
    fn gsarch_sorting_reads_tile_pairs_only() {
        // Prior tile architectures sort each tile's list: the tile-Gaussian
        // pairs set the sort cost, and the per-pixel lists SPLATONIC's
        // sorters price must not change GSArch's price.
        let m = GsArchModel::edge();
        let base = tile_workload(false);
        let mut pixel_lists = tile_workload(false);
        pixel_lists.pixel_lists = vec![7; 100];
        assert_eq!(m.price(&base), m.price(&pixel_lists));
        let mut more_pairs = tile_workload(false);
        more_pairs.tile_pairs *= 4;
        assert!(m.price(&more_pairs).forward_s > m.price(&base).forward_s);
    }

    #[test]
    fn baseline_energy_positive_and_ordered() {
        let g = GsArchModel::edge();
        let dense = g.price(&tile_workload(false));
        let sparse = g.price(&tile_workload(true));
        assert!(dense.energy_j > sparse.energy_j);
        assert!(sparse.energy_j > 0.0);
    }
}
