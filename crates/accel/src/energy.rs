//! SPLATONIC energy model.
//!
//! Stands in for the paper's synthesis-derived numbers (TSMC 16 nm, scaled
//! to 8 nm with DeepScaleTool to match the Orin SoC's node): per-operation
//! energies for the dedicated units, SRAM access energies, and DRAM traffic
//! priced per byte from the Micron power-calculator methodology.

use crate::splatonic::AccelReport;
use crate::workload::FrameWorkload;

/// Per-operation energy constants for the accelerator (picojoules), plus
/// static power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelEnergyModel {
    /// Energy per Gaussian projection.
    pub pj_per_projection: f64,
    /// Energy per LUT-based α-check (the 64-entry LUT replaces the exp).
    pub pj_per_alpha_check: f64,
    /// Energy per sorted element.
    pub pj_per_sort_elem: f64,
    /// Energy per blended pair (render unit).
    pub pj_per_blend: f64,
    /// Energy per pair gradient (reverse render unit).
    pub pj_per_grad: f64,
    /// Energy per aggregation-unit operation (merge + scoreboard + cache).
    pub pj_per_aggregate: f64,
    /// Energy per re-projection.
    pub pj_per_reprojection: f64,
    /// SRAM access energy per byte (buffers, cache, scoreboard).
    pub pj_per_sram_byte: f64,
    /// DRAM energy per byte.
    pub pj_per_dram_byte: f64,
    /// Static power in watts.
    pub static_watts: f64,
}

impl AccelEnergyModel {
    /// 8 nm-scaled calibration.
    pub fn paper() -> Self {
        AccelEnergyModel {
            pj_per_projection: 40.0,
            pj_per_alpha_check: 2.0,
            pj_per_sort_elem: 1.5,
            pj_per_blend: 4.0,
            pj_per_grad: 8.0,
            pj_per_aggregate: 6.0,
            pj_per_reprojection: 60.0,
            pj_per_sram_byte: 0.08,
            pj_per_dram_byte: 80.0,
            static_watts: 0.05,
        }
    }

    /// Prices one workload's energy given its timing report (which carries
    /// the workload's distinct-gradient count, so the stream is not
    /// re-sorted here).
    pub fn price(&self, w: &FrameWorkload, report: &AccelReport) -> AccelEnergyReport {
        let checks = w.proj_alpha_checks as f64;
        let pairs = w.total_pairs() as f64;
        let grads = w.total_grad_entries() as f64;
        let touched = report.touched_gaussians as f64;
        let pj = |v: f64| v * 1e-12;
        let compute_j = pj(w.gaussians as f64 * self.pj_per_projection
            + checks * self.pj_per_alpha_check
            + pairs * self.pj_per_sort_elem
            + pairs * self.pj_per_blend
            + grads * self.pj_per_grad
            + grads * self.pj_per_aggregate
            + touched * self.pj_per_reprojection);
        // SRAM traffic: pair entries through the global buffer, Γ/C through
        // the engine buffers, gradients through the aggregation structures.
        let sram_bytes = pairs * 24.0 + grads * 32.0;
        let sram_j = pj(sram_bytes * self.pj_per_sram_byte);
        // Same fp16 two-phase, pairs-stay-on-chip traffic accounting as
        // the timing model.
        let hw_bytes =
            w.gaussians * 32 + w.projected * 16 + w.pixels * 20 + report.touched_gaussians * 48;
        let dram_bytes = (hw_bytes + report.aggregation.dram_bytes) as f64;
        let dram_j = pj(dram_bytes * self.pj_per_dram_byte);
        let static_j = self.static_watts * report.total_seconds();
        AccelEnergyReport {
            compute_j,
            sram_j,
            dram_j,
            static_j,
        }
    }
}

impl Default for AccelEnergyModel {
    fn default() -> Self {
        AccelEnergyModel::paper()
    }
}

/// Energy components of one pass, in joules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AccelEnergyReport {
    /// Dynamic compute energy.
    pub compute_j: f64,
    /// On-chip SRAM energy.
    pub sram_j: f64,
    /// DRAM traffic energy.
    pub dram_j: f64,
    /// Static power × runtime.
    pub static_j: f64,
}

impl AccelEnergyReport {
    /// Total joules.
    pub fn total_j(&self) -> f64 {
        self.compute_j + self.sram_j + self.dram_j + self.static_j
    }

    /// Exports the energy components as telemetry gauges under `prefix`
    /// (exhaustively destructured: new components must be exported here).
    pub fn export_telemetry(&self, telemetry: &splatonic_telemetry::Telemetry, prefix: &str) {
        let AccelEnergyReport {
            compute_j,
            sram_j,
            dram_j,
            static_j,
        } = self;
        let parts = [
            ("compute_j", *compute_j),
            ("sram_j", *sram_j),
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
    use crate::splatonic::SplatonicAccel;

    fn workload() -> FrameWorkload {
        FrameWorkload {
            gaussians: 1000,
            projected: 800,
            proj_alpha_checks: 4 * 800,
            pairs_kept: 500,
            pixel_lists: vec![10; 50],
            grad_stream: (0..50u32)
                .map(|p| (0..10).map(|k| p * 10 + k).collect())
                .collect(),
            fwd_bytes: 100_000,
            bwd_bytes: 50_000,
            pixels: 50,
            ..FrameWorkload::default()
        }
    }

    #[test]
    fn energy_positive_and_dominated_by_dram_for_traffic_heavy() {
        let accel = SplatonicAccel::paper();
        let w = workload();
        let report = accel.price(&w);
        let e = AccelEnergyModel::paper().price(&w, &report);
        assert!(e.total_j() > 0.0);
        assert!(e.dram_j > e.sram_j, "DRAM dominates on-chip SRAM energy");
    }

    #[test]
    fn energy_scales_with_work() {
        let accel = SplatonicAccel::paper();
        let small = workload();
        let mut big = workload();
        big.pixel_lists = vec![10; 500];
        big.grad_stream = (0..500u32)
            .map(|p| (0..10).map(|k| p * 10 + k).collect())
            .collect();
        big.fwd_bytes *= 10;
        big.bwd_bytes *= 10;
        let es = AccelEnergyModel::paper().price(&small, &accel.price(&small));
        let eb = AccelEnergyModel::paper().price(&big, &accel.price(&big));
        assert!(eb.total_j() > es.total_j() * 3.0);
    }
}
