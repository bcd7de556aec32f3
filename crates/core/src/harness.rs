//! Measurement harness: runs representative training iterations and
//! extracts the traces/workloads the hardware models price.
//!
//! The paper's performance figures compare *the same workload* on different
//! schedules and hardware. This module builds that workload once — a
//! realistic mid-sequence SLAM state (seeded + mapped scene, tracked pose)
//! — and renders single training iterations under each schedule/sampling
//! combination, recording both the [`RenderTrace`] (for the GPU model) and
//! the [`FrameWorkload`] (for the accelerator simulators).

use splatonic_accel::FrameWorkload;
use splatonic_math::Pose;
use splatonic_render::sampling::{tracking_plan, MappingStrategy};
use splatonic_render::{
    loss, render_backward, render_forward, GradRequest, MappingSampler, Pipeline, PixelSet,
    RenderConfig, RenderTrace, SamplingStrategy,
};
use splatonic_scene::{Camera, Frame, GaussianScene, Intrinsics};
use splatonic_slam::adam::AdamVector;
use splatonic_slam::algorithm::AlgorithmConfig;
use splatonic_slam::mapping::{map_scene, seed_scene_from_frame, Keyframe};
use splatonic_slam::tracking::resolve_plan;
use splatonic_slam::Dataset;
use splatonic_telemetry::Telemetry;

/// A frozen mid-sequence SLAM state used as the measurement workload.
#[derive(Debug, Clone)]
pub struct TrackingScenario {
    /// The reconstructed scene at the measurement point.
    pub scene: GaussianScene,
    /// Camera intrinsics.
    pub intrinsics: Intrinsics,
    /// Pose at which the measured frame is rendered.
    pub pose: Pose,
    /// The reference frame being tracked/mapped against.
    pub frame: Frame,
}

impl TrackingScenario {
    /// Prepares a realistic scenario from `dataset`: seeds the map from
    /// frame 0, runs one mapping invocation, and measures at `frame_index`
    /// (ground-truth pose — pose error is irrelevant to workload shape).
    ///
    /// # Panics
    ///
    /// Panics if `frame_index` is out of range.
    pub fn prepare(dataset: &Dataset, frame_index: usize) -> TrackingScenario {
        assert!(frame_index < dataset.len(), "frame index out of range");
        let algo = AlgorithmConfig::default();
        let mut scene = seed_scene_from_frame(
            &dataset.frames[0],
            dataset.intrinsics,
            dataset.gt_poses[0],
            1,
        );
        let keyframes = [Keyframe {
            frame: &dataset.frames[0],
            pose: dataset.gt_poses[0],
        }];
        let sampler = MappingSampler::new(4, MappingStrategy::Combined);
        map_scene(
            &mut scene,
            &keyframes,
            dataset.intrinsics,
            &sampler,
            &algo,
            Pipeline::PixelBased,
            &RenderConfig::default(),
            1,
            &mut AdamVector::new(0),
            &Telemetry::disabled(),
        );
        TrackingScenario {
            scene,
            intrinsics: dataset.intrinsics,
            pose: dataset.gt_poses[frame_index],
            frame: dataset.frames[frame_index].clone(),
        }
    }
}

/// One measured training iteration: trace for the GPU model, workload for
/// the accelerator models.
#[derive(Debug, Clone)]
pub struct IterationMeasurement {
    /// Forward + backward trace (merged).
    pub trace: RenderTrace,
    /// Forward-only trace (for stage-level figures).
    pub forward_trace: RenderTrace,
    /// Backward-only trace.
    pub backward_trace: RenderTrace,
    /// Accelerator workload.
    pub workload: FrameWorkload,
    /// The schedule that produced it.
    pub pipeline: Pipeline,
    /// Pixels rendered.
    pub pixels: usize,
}

/// Renders one tracking iteration under the given schedule and sampling,
/// with a real loss/backward pass, and returns its measurement.
pub fn measure_tracking_iteration(
    scenario: &TrackingScenario,
    pipeline: Pipeline,
    sampling: SamplingStrategy,
    seed: u64,
) -> IterationMeasurement {
    let plan = tracking_plan(sampling, &scenario.frame, seed, None);
    let (intrinsics, pixels, frame) = resolve_plan(plan, scenario.intrinsics, &scenario.frame);
    measure_iteration(
        &scenario.scene,
        &Camera::new(intrinsics, scenario.pose),
        &frame,
        &pixels,
        pipeline,
    )
}

/// Renders one mapping iteration (the paper's `w_m`-tile combined sampler,
/// plus the unseen set from a dense Γ pass) and returns its measurement.
pub fn measure_mapping_iteration(
    scenario: &TrackingScenario,
    pipeline: Pipeline,
    mapping_tile: usize,
    seed: u64,
) -> IterationMeasurement {
    let cam = Camera::new(scenario.intrinsics, scenario.pose);
    // Dense Γ pass feeds the unseen classification (priced separately by
    // callers if desired; here it only shapes the pixel set).
    let dense = PixelSet::dense(scenario.intrinsics.width, scenario.intrinsics.height);
    let dense_out = render_forward(
        &scenario.scene,
        &cam,
        &dense,
        pipeline,
        &RenderConfig::default(),
    );
    let mut transmittance =
        splatonic_math::Image::filled(scenario.intrinsics.width, scenario.intrinsics.height, 1.0);
    for (i, p) in dense.iter_all().enumerate() {
        transmittance[(p.x as usize, p.y as usize)] = dense_out.final_transmittance[i];
    }
    let sampler = MappingSampler::new(mapping_tile, MappingStrategy::Combined);
    let pixels = sampler.build(&scenario.frame, &transmittance, seed);
    measure_iteration(&scenario.scene, &cam, &scenario.frame, &pixels, pipeline)
}

/// Renders a dense iteration (the dense-mapping / dense-baseline case).
pub fn measure_dense_iteration(
    scenario: &TrackingScenario,
    pipeline: Pipeline,
) -> IterationMeasurement {
    let cam = Camera::new(scenario.intrinsics, scenario.pose);
    let pixels = PixelSet::dense(scenario.intrinsics.width, scenario.intrinsics.height);
    measure_iteration(&scenario.scene, &cam, &scenario.frame, &pixels, pipeline)
}

/// One forward, loss and backward pass under [`RenderConfig::default`].
/// A tile trace counts the grouped sort schedule; the per-tile one is
/// [`splatonic_render::trace::ForwardStats::per_tile_sort`] of the same
/// trace.
fn measure_iteration(
    scene: &GaussianScene,
    cam: &Camera,
    frame: &Frame,
    pixels: &PixelSet,
    pipeline: Pipeline,
) -> IterationMeasurement {
    let cfg = &RenderConfig::default();
    let out = render_forward(scene, cam, pixels, pipeline, cfg);
    let l = loss::evaluate_loss(
        &out,
        frame,
        pixels,
        &splatonic_render::LossConfig::default(),
    );
    // Only the trace is used, and it is the same for every request.
    let (_, _, bwd) = render_backward(
        scene,
        cam,
        pixels,
        &out,
        &l.grads,
        pipeline,
        cfg,
        GradRequest::Pose,
    );
    let workload = FrameWorkload::from_render(&out, &bwd, pipeline);
    let mut trace = out.trace.clone();
    trace.merge(&bwd);
    IterationMeasurement {
        forward_trace: out.trace.clone(),
        backward_trace: bwd,
        trace,
        workload,
        pipeline,
        pixels: pixels.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splatonic_slam::dataset::DatasetConfig;

    fn scenario() -> TrackingScenario {
        let d = Dataset::replica_like(
            "harness",
            77,
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
    fn tracking_measurements_differ_by_schedule() {
        let s = scenario();
        let sampling = SamplingStrategy::RandomPerTile { tile: 16 };
        let tile = measure_tracking_iteration(&s, Pipeline::TileBased, sampling, 3);
        let pixel = measure_tracking_iteration(&s, Pipeline::PixelBased, sampling, 3);
        assert!(tile.trace.forward.tile_pairs > 0);
        assert_eq!(pixel.trace.forward.tile_pairs, 0);
        assert!(pixel.trace.forward.proj_alpha_checks > 0);
        assert_eq!(tile.pixels, pixel.pixels);
        // Same sampling seed → same pixels → same integrated pairs.
        assert_eq!(tile.workload.total_pairs(), pixel.workload.total_pairs());
    }

    #[test]
    fn derived_workload_matches_the_render_exactly() {
        let s = scenario();
        let sampling = SamplingStrategy::RandomPerTile { tile: 16 };
        for pipeline in [Pipeline::TileBased, Pipeline::PixelBased] {
            let plan = tracking_plan(sampling, &s.frame, 3, None);
            let (intrinsics, pixels, _) = resolve_plan(plan, s.intrinsics, &s.frame);
            let cam = Camera::new(intrinsics, s.pose);
            let cfg = RenderConfig::default();
            let out = render_forward(&s.scene, &cam, &pixels, pipeline, &cfg);
            let w = FrameWorkload::from_render(&out, &RenderTrace::new(), pipeline);
            let lens: Vec<usize> = out.contributions.iter().map(<[_]>::len).collect();
            let derived: Vec<usize> = w.pixel_lists.iter().map(|&l| l as usize).collect();
            assert_eq!(derived, lens, "{pipeline:?}");
            assert_eq!(w.proj_alpha_checks, out.trace.forward.proj_alpha_checks);
        }
    }

    #[test]
    fn iteration_prices_are_pinned() {
        // Bit patterns of each target's (seconds, joules) on this scenario:
        // a change to how workloads are derived from a render must not
        // move a single bit of any price.
        use crate::targets::HardwareTarget;
        let pins = [
            (
                HardwareTarget::GpuTile,
                0x3f16_7510_d75a_0140,
                0x3f36_a530_e2df_8d7e,
            ),
            (
                HardwareTarget::GsArch,
                0x3ef7_2390_b171_2f4a,
                0x3f04_be1c_f75f_8cd3,
            ),
            (
                HardwareTarget::GauSpu,
                0x3f09_dd3a_9cf8_b87c,
                0x3f28_b15d_c29e_847e,
            ),
            (
                HardwareTarget::GpuPixel,
                0x3f07_ba40_9537_202c,
                0x3f25_24a3_8cbf_4457,
            ),
            (
                HardwareTarget::SplatonicHw,
                0x3ee1_5012_19bb_9b80,
                0x3eee_7c25_f07b_ef88,
            ),
        ];
        let s = scenario();
        let sampling = SamplingStrategy::RandomPerTile { tile: 16 };
        let tile = measure_tracking_iteration(&s, Pipeline::TileBased, sampling, 3);
        let pixel = measure_tracking_iteration(&s, Pipeline::PixelBased, sampling, 3);
        for (target, seconds, joules) in pins {
            let m = match target.expected_pipeline() {
                Pipeline::TileBased => &tile,
                Pipeline::PixelBased => &pixel,
            };
            let cost = target.price(m);
            assert_eq!(cost.seconds.to_bits(), seconds, "{target:?} seconds");
            assert_eq!(cost.joules.to_bits(), joules, "{target:?} joules");
        }
    }

    #[test]
    fn dense_measurement_covers_image() {
        let s = scenario();
        let m = measure_dense_iteration(&s, Pipeline::TileBased);
        assert_eq!(m.pixels, 64 * 48);
        assert!(m.workload.total_grad_entries() > 0);
    }

    #[test]
    fn mapping_measurement_has_sparse_plus_unseen() {
        let s = scenario();
        let m = measure_mapping_iteration(&s, Pipeline::PixelBased, 4, 5);
        // One sample per 4×4 tile = 192 samples at 64×48, plus any unseen.
        assert!(m.pixels >= 192);
        assert!(m.pixels < 64 * 48);
    }

    #[test]
    fn grouping_ablation_changes_only_sort_counters() {
        // One dense tile render counts the grouped schedule, and the
        // per-tile schedule is read from the same trace. Both are pinned to
        // what this scenario gave when each schedule was rendered on its
        // own (per-tile: 12 lists, 5342 elements; grouped: 4 shared sorts
        // over 3926 elements, 8 tiles masked).
        let m = measure_dense_iteration(&scenario(), Pipeline::TileBased);
        let f = &m.trace.forward;
        assert_eq!(
            (f.sort_lists, f.sort_elems, f.sort_group_reuse),
            (4, 3926, 8)
        );
        assert_eq!(f.per_tile_sort(), (12, 5342));
        assert_eq!(m.workload.tile_pairs, 5342);
    }

    #[test]
    fn lowres_tracking_measurement() {
        let s = scenario();
        let m = measure_tracking_iteration(
            &s,
            Pipeline::TileBased,
            SamplingStrategy::LowRes { factor: 4 },
            1,
        );
        assert_eq!(m.pixels, 16 * 12);
    }
}
