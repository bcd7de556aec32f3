//! Hardware targets and iteration pricing (paper Sec. VI "Baselines" and
//! "Variants").
//!
//! | Target | Schedule | Hardware |
//! |---|---|---|
//! | `GpuTile` | tile-based | mobile GPU (Orin-like) |
//! | `GpuPixel` (SPLATONIC-SW) | pixel-based | mobile GPU |
//! | `SplatonicHw` | pixel-based | SPLATONIC accelerator |
//! | `GsArch` | tile-based | GSArch edge config |
//! | `GauSpu` | tile-based | GPU proj/sort + GauSPU accel |
//!
//! The "+S" variants of the paper are expressed by *what you measure*: feed
//! a sparse-sampled iteration to `GpuTile`/`GsArch`/`GauSpu` and you get
//! ORG.+S / GSArch+S / GauSPU+S.

use crate::harness::IterationMeasurement;
use splatonic_accel::{AccelEnergyModel, GauSpuModel, GsArchModel, SplatonicAccel};
use splatonic_gpusim::{GpuConfig, GpuEnergyModel};
use splatonic_render::Pipeline;

/// A hardware execution target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HardwareTarget {
    /// Mobile GPU running the tile-based schedule (the GPU baseline; with
    /// a sparse measurement this is ORG.+S).
    GpuTile,
    /// Mobile GPU running the pixel-based schedule (SPLATONIC-SW).
    GpuPixel,
    /// The SPLATONIC accelerator (SPLATONIC-HW).
    SplatonicHw,
    /// GSArch \[29] (with a sparse measurement: GSArch+S).
    GsArch,
    /// GauSPU \[77] (with a sparse measurement: GauSPU+S).
    GauSpu,
}

impl HardwareTarget {
    /// All targets in the paper's presentation order.
    pub fn all() -> [HardwareTarget; 5] {
        [
            HardwareTarget::GpuTile,
            HardwareTarget::GpuPixel,
            HardwareTarget::SplatonicHw,
            HardwareTarget::GsArch,
            HardwareTarget::GauSpu,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            HardwareTarget::GpuTile => "GPU (tile-based)",
            HardwareTarget::GpuPixel => "SPLATONIC-SW",
            HardwareTarget::SplatonicHw => "SPLATONIC-HW",
            HardwareTarget::GsArch => "GSArch",
            HardwareTarget::GauSpu => "GauSPU",
        }
    }

    /// The schedule this target expects its measurement to come from.
    pub fn expected_pipeline(&self) -> Pipeline {
        match self {
            HardwareTarget::GpuPixel | HardwareTarget::SplatonicHw => Pipeline::PixelBased,
            _ => Pipeline::TileBased,
        }
    }

    /// Prices one measured iteration on this target.
    ///
    /// # Panics
    ///
    /// Panics if the measurement's schedule does not match
    /// [`HardwareTarget::expected_pipeline`] — pricing a tile-based trace on
    /// the SPLATONIC accelerator (or vice versa) would be meaningless.
    pub fn price(&self, m: &IterationMeasurement) -> IterationCost {
        assert_eq!(
            m.pipeline,
            self.expected_pipeline(),
            "measurement schedule does not match target {}",
            self.name()
        );
        match self {
            HardwareTarget::GpuTile | HardwareTarget::GpuPixel => {
                let cfg = GpuConfig::orin_like();
                let report = cfg.price(&m.trace, m.pipeline);
                let energy = GpuEnergyModel::orin_like().price(&m.trace, m.pipeline, &report);
                IterationCost {
                    seconds: report.total_seconds(),
                    joules: energy.total_j(),
                    forward_seconds: report.forward.total(),
                    backward_seconds: report.backward.total(),
                    detail: CostDetail::Gpu(report),
                }
            }
            HardwareTarget::SplatonicHw => {
                let accel = SplatonicAccel::paper();
                let report = accel.price(&m.workload);
                let energy = AccelEnergyModel::paper().price(&m.workload, &report);
                IterationCost {
                    seconds: report.total_seconds(),
                    joules: energy.total_j(),
                    forward_seconds: report.forward_cycles() / report.clock_hz,
                    backward_seconds: report.backward_cycles() / report.clock_hz,
                    detail: CostDetail::Accel(report),
                }
            }
            HardwareTarget::GsArch => {
                let r = GsArchModel::edge().price(&m.workload);
                IterationCost {
                    seconds: r.total_seconds(),
                    joules: r.energy_j,
                    forward_seconds: r.forward_s,
                    backward_seconds: r.backward_s,
                    detail: CostDetail::Baseline(r),
                }
            }
            HardwareTarget::GauSpu => {
                let r = GauSpuModel::paper().price(&m.workload, &m.trace);
                IterationCost {
                    seconds: r.total_seconds(),
                    joules: r.energy_j,
                    forward_seconds: r.forward_s,
                    backward_seconds: r.backward_s,
                    detail: CostDetail::Baseline(r),
                }
            }
        }
    }
}

/// Target-specific pricing detail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CostDetail {
    /// GPU stage breakdown.
    Gpu(splatonic_gpusim::GpuReport),
    /// SPLATONIC accelerator stage breakdown.
    Accel(splatonic_accel::AccelReport),
    /// Baseline accelerator summary.
    Baseline(splatonic_accel::baselines::BaselineReport),
}

/// Priced cost of one training iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationCost {
    /// Seconds per iteration.
    pub seconds: f64,
    /// Joules per iteration.
    pub joules: f64,
    /// Forward-pass seconds.
    pub forward_seconds: f64,
    /// Backward-pass seconds.
    pub backward_seconds: f64,
    /// Stage-level detail.
    pub detail: CostDetail,
}

impl IterationCost {
    /// Frame cost given `iterations` per frame.
    pub fn per_frame(&self, iterations: usize) -> (f64, f64) {
        (
            self.seconds * iterations as f64,
            self.joules * iterations as f64,
        )
    }

    /// Exports the priced iteration as telemetry gauges under `prefix`
    /// (e.g. `hw/SPLATONIC-HW`), including the target-specific stage
    /// breakdown carried in [`CostDetail`]. The four totals are exported
    /// once, under the names of their fields; the detail adds only what
    /// they do not already say.
    pub fn export_telemetry(&self, telemetry: &splatonic_telemetry::Telemetry, prefix: &str) {
        let IterationCost {
            seconds,
            joules,
            forward_seconds,
            backward_seconds,
            detail,
        } = self;
        let parts = [
            ("seconds", *seconds),
            ("joules", *joules),
            ("forward_seconds", *forward_seconds),
            ("backward_seconds", *backward_seconds),
        ];
        for (name, value) in parts {
            telemetry.gauge_set(&format!("{prefix}/{name}"), value);
        }
        match detail {
            CostDetail::Gpu(r) => r.export_telemetry(telemetry, prefix),
            CostDetail::Accel(r) => r.export_telemetry(telemetry, prefix),
            // A baseline summary is exactly the four totals above.
            CostDetail::Baseline(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{measure_dense_iteration, measure_tracking_iteration, TrackingScenario};
    use splatonic_render::SamplingStrategy;
    use splatonic_slam::dataset::{Dataset, DatasetConfig};

    fn scenario() -> TrackingScenario {
        let d = Dataset::replica_like(
            "targets",
            88,
            DatasetConfig {
                width: 64,
                height: 48,
                frames: 8,
                spacing: 0.3,
                fov: 1.25,
                furniture: 2,
                depth_dropout_coverage: 0.9,
            },
        );
        TrackingScenario::prepare(&d, 4)
    }

    #[test]
    fn splatonic_hw_beats_gpu_on_sparse() {
        let s = scenario();
        let sampling = SamplingStrategy::RandomPerTile { tile: 16 };
        let tile = measure_tracking_iteration(&s, Pipeline::TileBased, sampling, 1);
        let pixel = measure_tracking_iteration(&s, Pipeline::PixelBased, sampling, 1);
        let gpu = HardwareTarget::GpuTile.price(&tile);
        let hw = HardwareTarget::SplatonicHw.price(&pixel);
        assert!(
            hw.seconds < gpu.seconds,
            "accelerator {} s must beat GPU {} s",
            hw.seconds,
            gpu.seconds
        );
        assert!(hw.joules < gpu.joules);
    }

    #[test]
    fn dense_costs_more_than_sparse_everywhere() {
        let s = scenario();
        let dense = measure_dense_iteration(&s, Pipeline::TileBased);
        let sparse = measure_tracking_iteration(
            &s,
            Pipeline::TileBased,
            SamplingStrategy::RandomPerTile { tile: 16 },
            1,
        );
        for t in [HardwareTarget::GpuTile, HardwareTarget::GsArch] {
            let cd = t.price(&dense);
            let cs = t.price(&sparse);
            assert!(
                cd.seconds > cs.seconds,
                "{}: dense {} vs sparse {}",
                t.name(),
                cd.seconds,
                cs.seconds
            );
        }
    }

    #[test]
    #[should_panic(expected = "schedule does not match")]
    fn pipeline_mismatch_panics() {
        let s = scenario();
        let tile = measure_tracking_iteration(
            &s,
            Pipeline::TileBased,
            SamplingStrategy::RandomPerTile { tile: 16 },
            1,
        );
        let _ = HardwareTarget::SplatonicHw.price(&tile);
    }

    #[test]
    fn per_frame_scales() {
        let s = scenario();
        let m = measure_tracking_iteration(
            &s,
            Pipeline::PixelBased,
            SamplingStrategy::RandomPerTile { tile: 16 },
            1,
        );
        let c = HardwareTarget::SplatonicHw.price(&m);
        let (t, e) = c.per_frame(10);
        assert!((t - c.seconds * 10.0).abs() < 1e-15);
        assert!((e - c.joules * 10.0).abs() < 1e-15);
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<_> =
            HardwareTarget::all().iter().map(|t| t.name()).collect();
        assert_eq!(names.len(), 5);
    }
}
