//! GPU energy model.
//!
//! Energy is priced as static power × runtime plus per-operation dynamic
//! energy plus DRAM traffic energy — mirroring how the paper obtains GPU
//! power from Orin's built-in sensing and DRAM energy from the Micron power
//! calculators (Sec. VI). Constants are calibration values for a mobile
//! Ampere-class SoC.

use crate::timing::{sorted_lists, GpuReport};
use splatonic_render::{Pipeline, RenderTrace};

/// Per-operation and static energy constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuEnergyModel {
    /// Static (leakage + idle rail) power in watts.
    pub static_watts: f64,
    /// Energy per warp-step of issued work, in picojoules.
    pub pj_per_warp_step: f64,
    /// Energy per SFU `exp`, in picojoules.
    pub pj_per_exp: f64,
    /// Energy per scalar atomic add, in picojoules.
    pub pj_per_atomic: f64,
    /// Energy per Gaussian projection, in picojoules.
    pub pj_per_projection: f64,
    /// Energy per sorted element, in picojoules.
    pub pj_per_sort_elem: f64,
    /// DRAM energy per byte moved, in picojoules.
    pub pj_per_dram_byte: f64,
}

impl GpuEnergyModel {
    /// Orin-like calibration.
    pub fn orin_like() -> Self {
        GpuEnergyModel {
            static_watts: 3.0,
            pj_per_warp_step: 600.0,
            pj_per_exp: 30.0,
            pj_per_atomic: 80.0,
            pj_per_projection: 900.0,
            pj_per_sort_elem: 25.0,
            pj_per_dram_byte: 80.0,
        }
    }

    /// Prices the energy of a traced pass on `pipeline` given its timing
    /// report.
    pub fn price(
        &self,
        trace: &RenderTrace,
        pipeline: Pipeline,
        report: &GpuReport,
    ) -> EnergyBreakdown {
        let f = &trace.forward;
        let b = &trace.backward;
        let (_, sort_elems) = sorted_lists(f, pipeline);
        let pj = |v: f64| v * 1e-12;
        let compute = pj((f.warp_steps + b.warp_steps) as f64 * self.pj_per_warp_step
            + (f.exp_evals + b.exp_evals + b.alpha_checks) as f64 * self.pj_per_exp
            + f.gaussians_input as f64 * self.pj_per_projection
            + sort_elems as f64 * self.pj_per_sort_elem
            + (f.proj_alpha_checks + f.proj_pairs_kept + f.tile_pairs) as f64
                * self.pj_per_sort_elem);
        let atomic = pj(b.atomic_adds as f64 * self.pj_per_atomic);
        let dram = pj(
            (f.bytes_read + f.bytes_written + b.bytes_read + b.bytes_written) as f64
                * self.pj_per_dram_byte,
        );
        let static_energy = self.static_watts * report.total_seconds();
        EnergyBreakdown {
            compute_j: compute,
            atomic_j: atomic,
            dram_j: dram,
            static_j: static_energy,
        }
    }
}

impl Default for GpuEnergyModel {
    fn default() -> Self {
        GpuEnergyModel::orin_like()
    }
}

/// Energy components of one pass, in joules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Dynamic compute energy.
    pub compute_j: f64,
    /// Atomic-operation energy.
    pub atomic_j: f64,
    /// DRAM traffic energy.
    pub dram_j: f64,
    /// Static power × runtime.
    pub static_j: f64,
}

impl EnergyBreakdown {
    /// Total joules.
    pub fn total_j(&self) -> f64 {
        self.compute_j + self.atomic_j + self.dram_j + self.static_j
    }

    /// Exports the energy components as telemetry gauges under `prefix`
    /// (exhaustively destructured: new components must be exported here).
    pub fn export_telemetry(&self, telemetry: &splatonic_telemetry::Telemetry, prefix: &str) {
        let EnergyBreakdown {
            compute_j,
            atomic_j,
            dram_j,
            static_j,
        } = self;
        let parts = [
            ("compute_j", *compute_j),
            ("atomic_j", *atomic_j),
            ("dram_j", *dram_j),
            ("static_j", *static_j),
            ("total_j", self.total_j()),
        ];
        for (name, value) in parts {
            telemetry.gauge_set(&format!("{prefix}/{name}"), value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::GpuConfig;

    #[test]
    fn more_work_costs_more_energy() {
        let cfg = GpuConfig::orin_like();
        let em = GpuEnergyModel::orin_like();
        let mut small = RenderTrace::new();
        small.forward.warp_steps = 1_000;
        small.forward.exp_evals = 10_000;
        let mut big = RenderTrace::new();
        big.forward.warp_steps = 1_000_000;
        big.forward.exp_evals = 10_000_000;
        big.backward.atomic_adds = 1_000_000;
        let tile = Pipeline::TileBased;
        let es = em.price(&small, tile, &cfg.price(&small, tile));
        let eb = em.price(&big, tile, &cfg.price(&big, tile));
        assert!(eb.total_j() > es.total_j() * 10.0);
    }

    #[test]
    fn static_term_scales_with_time() {
        let em = GpuEnergyModel::orin_like();
        let trace = RenderTrace::new();
        let mut report = GpuReport::default();
        report.forward.rasterization = 1.0;
        let e = em.price(&trace, Pipeline::TileBased, &report);
        assert!((e.static_j - em.static_watts).abs() < 1e-9);
    }

    #[test]
    fn breakdown_sums() {
        let e = EnergyBreakdown {
            compute_j: 1.0,
            atomic_j: 2.0,
            dram_j: 3.0,
            static_j: 4.0,
        };
        assert_eq!(e.total_j(), 10.0);
    }
}
