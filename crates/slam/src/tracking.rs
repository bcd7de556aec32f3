//! Per-frame camera-pose tracking (paper Sec. II-A).
//!
//! [`track_frame`] fixes the Gaussian scene and optimizes a single camera
//! pose by `S_t` iterations of render → loss → backward → Adam-on-se(3).
//! Pixels are chosen once per frame by the configured [`SamplingStrategy`]
//! ([`resolve_plan`] turns the plan into intrinsics, pixel set and
//! reference frame), so losses stay comparable across iterations and the
//! best-of pose selection is meaningful; only the loss-guided baseline
//! re-samples each iteration.
//!
//! Each iteration projects the scene once: the forward pass hands its
//! projection to its backward pass in `ForwardResult::handoff` (the pixel
//! pipeline the Gaussians that kept a pair, the tile pipeline the whole
//! projection with its sorted tile lists), and the Adam step then moves the
//! pose, so the next forward projects afresh.

use crate::adam::{AdamParams, AdamVector};
use crate::algorithm::AlgorithmConfig;
use splatonic_math::{Image, Pose, Se3, Vec3};
use splatonic_render::sampling::{tracking_plan, SamplingPlan};
use splatonic_render::{
    loss, render_backward, render_forward, GradRequest, Pipeline, PixelSet, RenderConfig,
    RenderTrace, SamplingStrategy,
};
use splatonic_scene::{Camera, Frame, GaussianScene, Intrinsics};
use splatonic_telemetry::Telemetry;
use std::borrow::Cow;

/// Output of tracking one frame.
#[derive(Debug, Clone)]
pub struct TrackerOutput {
    /// Estimated world-to-camera pose.
    pub pose: Pose,
    /// Aggregated workload trace over all iterations.
    pub trace: RenderTrace,
    /// Iterations executed: fewer than `tracking_iters` when a zero pose
    /// gradient stopped the loop early.
    pub iters: usize,
    /// Loss at the returned pose.
    pub final_loss: f64,
    /// Exact total pixels rendered across all optimization iterations
    /// (excludes the final best-of evaluation render, matching what the
    /// trace accounts). It stays exact when per-iteration pixel counts
    /// vary (e.g. loss-guided resampling).
    pub sampled_pixels: usize,
}

/// Downsamples a frame by an integer factor (box filter), for the
/// "Low-Res." baseline.
pub fn downsample_frame(frame: &Frame, factor: usize) -> Frame {
    let channel = |sel: fn(&Vec3) -> f64| -> Image<f64> {
        splatonic_math::image::downsample(&frame.color.map(sel), factor)
    };
    let r = channel(|c| c.x);
    let g = channel(|c| c.y);
    let b = channel(|c| c.z);
    let w = r.width();
    let h = r.height();
    let color = Image::from_fn(w, h, |x, y| Vec3::new(r[(x, y)], g[(x, y)], b[(x, y)]));
    // Depth uses the same box filter; zero (invalid) pixels bias blocks
    // toward zero, which conservatively weakens the depth term there.
    let depth = splatonic_math::image::downsample(&frame.depth, factor);
    Frame::new(color, depth, frame.index)
}

/// Resolves a tracking sampling plan to what one iteration renders: the
/// camera intrinsics, the pixel set and the reference frame. The Low-Res.
/// baseline renders a dense image of the frame downscaled by its factor.
pub fn resolve_plan(
    plan: SamplingPlan,
    intrinsics: Intrinsics,
    frame: &Frame,
) -> (Intrinsics, PixelSet, Cow<'_, Frame>) {
    match plan {
        SamplingPlan::Pixels(pixels) => (intrinsics, pixels, Cow::Borrowed(frame)),
        SamplingPlan::LowRes { factor } => {
            let small = intrinsics.downscaled(factor);
            let pixels = PixelSet::dense(small.width, small.height);
            (small, pixels, Cow::Owned(downsample_frame(frame, factor)))
        }
    }
}

/// Tracks one frame: optimizes the camera pose against `frame` with the
/// scene fixed. Each iteration's render passes are timed under `forward` /
/// `backward` (nested under whatever span the caller holds, e.g.
/// `tracking`); a disabled handle adds no overhead.
#[allow(clippy::too_many_arguments)]
pub fn track_frame(
    scene: &GaussianScene,
    intrinsics: Intrinsics,
    init_pose: Pose,
    frame: &Frame,
    strategy: SamplingStrategy,
    pipeline: Pipeline,
    algo: &AlgorithmConfig,
    render_cfg: &RenderConfig,
    seed: u64,
    telemetry: &Telemetry,
) -> TrackerOutput {
    let mut pose = init_pose;
    let mut best_pose = init_pose;
    let mut best_loss = f64::INFINITY;
    let mut adam = AdamVector::new(6);
    let adam_params = AdamParams::with_lr(algo.pose_lr);
    let mut trace = RenderTrace::new();
    let mut pixels_total = 0usize;
    let mut iters = algo.tracking_iters;
    // Loss-guided sampling state: per-16×16-tile loss from the previous
    // iteration's rendered tiles.
    let mut tile_loss: Option<Vec<f64>> = None;
    // The loss-guided baseline reacts to the previous iteration's loss by
    // construction, so it alone re-samples per iteration.
    let resample_per_iter = matches!(strategy, SamplingStrategy::LossGuidedTiles { .. });
    let (mut cam_intrinsics, mut pixels, mut reference) = resolve_plan(
        tracking_plan(strategy, frame, seed, None),
        intrinsics,
        frame,
    );

    for it in 0..algo.tracking_iters {
        if resample_per_iter && it > 0 {
            let plan = tracking_plan(
                strategy,
                frame,
                seed ^ (it as u64).wrapping_mul(0x9E37),
                tile_loss.as_deref(),
            );
            (cam_intrinsics, pixels, reference) = resolve_plan(plan, intrinsics, frame);
        }
        let cam = Camera::new(cam_intrinsics, pose);
        pixels_total += pixels.len();
        let out = {
            let _span = telemetry.span("forward");
            render_forward(scene, &cam, &pixels, pipeline, render_cfg)
        };
        let l = loss::evaluate_loss(&out, &reference, &pixels, &algo.loss);
        if l.value < best_loss {
            best_loss = l.value;
            best_pose = pose;
        }
        if resample_per_iter {
            tile_loss = Some(update_tile_losses(
                tile_loss.take(),
                &out,
                &reference,
                &pixels,
            ));
        }
        let (_, pose_grad, bwd_trace) = {
            let _span = telemetry.span("backward");
            render_backward(
                scene,
                &cam,
                &pixels,
                &out,
                &l.grads,
                render_cfg,
                GradRequest::Pose,
            )
        };
        trace.merge(&out.trace);
        trace.merge(&bwd_trace);
        // A zero gradient means the render saw no Gaussians (the pose left
        // the reconstructed region); stepping on stale momentum would only
        // coast further away, so stop and fall back to the best pose.
        if pose_grad.xi.norm() == 0.0 {
            iters = it + 1;
            break;
        }
        // Adam step on the 6 tangent coordinates.
        let g = pose_grad.xi.to_array();
        let mut step = adam.begin_step(&adam_params);
        let delta: [f64; 6] = std::array::from_fn(|i| step.delta(i, g[i]));
        pose = pose.retract(Se3::from_array(delta));
    }
    // Evaluate the final pose on the same pixel set so the best-of
    // selection includes it.
    let cam = Camera::new(cam_intrinsics, pose);
    let out = render_forward(scene, &cam, &pixels, pipeline, render_cfg);
    let l = loss::evaluate_loss(&out, &reference, &pixels, &algo.loss);
    if l.value < best_loss {
        best_loss = l.value;
        best_pose = pose;
    }
    TrackerOutput {
        pose: best_pose,
        trace,
        iters,
        final_loss: best_loss,
        sampled_pixels: pixels_total,
    }
}

/// Updates the per-16×16-tile loss map from the tiles rendered this
/// iteration (GauSPU-style reactive sampling keys on previous results).
fn update_tile_losses(
    prev: Option<Vec<f64>>,
    out: &splatonic_render::ForwardResult,
    reference: &Frame,
    pixels: &PixelSet,
) -> Vec<f64> {
    const T: usize = 16;
    let tiles_x = pixels.width().div_ceil(T);
    let tiles_y = pixels.height().div_ceil(T);
    let mut losses = prev.unwrap_or_else(|| vec![0.0; tiles_x * tiles_y]);
    if losses.len() != tiles_x * tiles_y {
        losses = vec![0.0; tiles_x * tiles_y];
    }
    let mut sums = vec![0.0; tiles_x * tiles_y];
    let mut counts = vec![0u32; tiles_x * tiles_y];
    for (i, p) in pixels.iter_all().enumerate() {
        let t = (p.y as usize / T) * tiles_x + (p.x as usize / T);
        let r = out.color[i] - reference.color[(p.x as usize, p.y as usize)];
        sums[t] += r.abs().sum();
        counts[t] += 1;
    }
    for t in 0..losses.len() {
        if counts[t] > 0 {
            losses[t] = sums[t] / counts[t] as f64;
        }
    }
    losses
}

/// Constant-velocity pose initialization: extrapolates the motion between
/// the previous two world-to-camera poses.
pub fn constant_velocity_init(prev: Pose, prev_prev: Option<Pose>) -> Pose {
    match prev_prev {
        Some(pp) => {
            // Relative motion R = P_{t-1} ∘ P_{t-2}⁻¹; predict R ∘ P_{t-1}.
            let rel = prev.compose(&pp.inverse());
            rel.compose(&prev).orthonormalized()
        }
        None => prev,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, DatasetConfig};
    use splatonic_render::SamplingStrategy;

    fn tiny_dataset() -> Dataset {
        Dataset::replica_like(
            "track-test",
            42,
            DatasetConfig {
                width: 64,
                height: 48,
                frames: 3,
                spacing: 0.3,
                fov: 1.25,
                furniture: 2,
                depth_dropout_coverage: 0.9,
            },
        )
    }

    #[test]
    fn tracking_improves_perturbed_pose() {
        // Realistic setup: track against a map seeded by back-projection
        // and refined by a short mapping pass (what the SLAM system does),
        // at evaluation resolution, with a perturbation well above the
        // pixel-sensitivity floor.
        let d = Dataset::replica_like(
            "track-test-hi",
            42,
            DatasetConfig {
                width: 128,
                height: 96,
                frames: 3,
                spacing: 0.25,
                fov: 1.25,
                furniture: 2,
                depth_dropout_coverage: 0.9,
            },
        );
        let mut scene =
            crate::mapping::seed_scene_from_frame(&d.frames[1], d.intrinsics, d.gt_poses[1], 1);
        let map_algo = AlgorithmConfig {
            mapping_iters: 15,
            ..AlgorithmConfig::default()
        };
        let kf = crate::mapping::Keyframe {
            frame: &d.frames[1],
            pose: d.gt_poses[1],
        };
        let sampler = splatonic_render::MappingSampler::new(
            4,
            splatonic_render::sampling::MappingStrategy::Combined,
        );
        crate::mapping::map_scene(
            &mut scene,
            &[kf],
            d.intrinsics,
            &sampler,
            &map_algo,
            Pipeline::PixelBased,
            &RenderConfig::default(),
            3,
            &mut AdamVector::new(0),
            &Telemetry::disabled(),
        );
        let gt = d.gt_poses[1];
        let init = gt.retract(Se3::new(
            Vec3::new(0.03, -0.02, 0.025),
            Vec3::new(0.01, -0.012, 0.008),
        ));
        let algo = AlgorithmConfig {
            tracking_iters: 40,
            ..AlgorithmConfig::default()
        };
        let out = track_frame(
            &scene,
            d.intrinsics,
            init,
            &d.frames[1],
            SamplingStrategy::RandomPerTile { tile: 8 },
            Pipeline::PixelBased,
            &algo,
            &RenderConfig::default(),
            7,
            &Telemetry::disabled(),
        );
        let err_before = init.translation_distance_to(&gt);
        let err_after = out.pose.translation_distance_to(&gt);
        assert!(
            err_after < err_before * 0.6,
            "tracking must substantially reduce the pose error: {err_before} -> {err_after}"
        );
    }

    #[test]
    fn tracking_with_correct_init_stays_put() {
        let d = tiny_dataset();
        let gt = d.gt_poses[1];
        let algo = AlgorithmConfig {
            tracking_iters: 8,
            ..AlgorithmConfig::default()
        };
        let out = track_frame(
            &d.world.scene,
            d.intrinsics,
            gt,
            &d.frames[1],
            SamplingStrategy::RandomPerTile { tile: 8 },
            Pipeline::PixelBased,
            &algo,
            &RenderConfig::default(),
            3,
            &Telemetry::disabled(),
        );
        assert!(
            out.pose.translation_distance_to(&gt) < 5e-3,
            "drift {}",
            out.pose.translation_distance_to(&gt)
        );
    }

    #[test]
    fn trace_accumulates_over_iterations() {
        let d = tiny_dataset();
        let algo = AlgorithmConfig {
            tracking_iters: 4,
            ..AlgorithmConfig::default()
        };
        // Start slightly off the ground truth so gradients are non-zero
        // and all iterations execute (a perfect pose has an exactly-zero
        // Huber gradient and tracking stops immediately).
        let init = d.gt_poses[1].retract(Se3::new(
            Vec3::new(0.01, 0.005, -0.008),
            Vec3::new(0.004, -0.003, 0.002),
        ));
        let out = track_frame(
            &d.world.scene,
            d.intrinsics,
            init,
            &d.frames[1],
            SamplingStrategy::RandomPerTile { tile: 16 },
            Pipeline::PixelBased,
            &algo,
            &RenderConfig::default(),
            3,
            &Telemetry::disabled(),
        );
        assert_eq!(out.iters, 4);
        assert!(out.trace.forward.pixels_shaded >= 4 * 12); // 64x48/16² = 12 tiles
        assert!(out.trace.backward.pairs_grad > 0);
        // The exact total matches what the trace accounted: the final
        // best-of evaluation render is excluded from both.
        assert_eq!(out.sampled_pixels as u64, out.trace.forward.pixels_shaded);
    }

    #[test]
    fn zero_gradient_stop_reports_iterations_run() {
        // An empty scene renders only background: the first pose gradient
        // is exactly zero, so the loop stops after one iteration and must
        // say so rather than report the whole budget.
        let d = tiny_dataset();
        let algo = AlgorithmConfig {
            tracking_iters: 6,
            ..AlgorithmConfig::default()
        };
        let init = d.gt_poses[1];
        let out = track_frame(
            &GaussianScene::new(),
            d.intrinsics,
            init,
            &d.frames[1],
            SamplingStrategy::RandomPerTile { tile: 16 },
            Pipeline::PixelBased,
            &algo,
            &RenderConfig::default(),
            3,
            &Telemetry::disabled(),
        );
        assert_eq!(out.iters, 1);
        assert_eq!(out.pose, init);
        assert_eq!(out.sampled_pixels, 12); // one iteration over 12 tiles
    }

    #[test]
    fn lowres_strategy_runs() {
        let d = tiny_dataset();
        let algo = AlgorithmConfig {
            tracking_iters: 3,
            ..AlgorithmConfig::default()
        };
        let out = track_frame(
            &d.world.scene,
            d.intrinsics,
            d.gt_poses[1],
            &d.frames[1],
            SamplingStrategy::LowRes { factor: 4 },
            Pipeline::TileBased,
            &algo,
            &RenderConfig::default(),
            3,
            &Telemetry::disabled(),
        );
        assert!(out.final_loss.is_finite());
        // Low-res renders (64/4)×(48/4) = 192 pixels per iteration.
        assert_eq!(out.sampled_pixels, 192 * out.iters);
    }

    #[test]
    fn loss_guided_strategy_runs() {
        let d = tiny_dataset();
        let algo = AlgorithmConfig {
            tracking_iters: 3,
            ..AlgorithmConfig::default()
        };
        let out = track_frame(
            &d.world.scene,
            d.intrinsics,
            d.gt_poses[1],
            &d.frames[1],
            SamplingStrategy::LossGuidedTiles { tile: 8 },
            Pipeline::TileBased,
            &algo,
            &RenderConfig::default(),
            3,
            &Telemetry::disabled(),
        );
        assert!(out.final_loss.is_finite());
    }

    #[test]
    fn constant_velocity_extrapolates() {
        let p0 = Pose::identity();
        let step = Se3::new(Vec3::new(0.1, 0.0, 0.0), Vec3::ZERO).exp();
        let p1 = step.compose(&p0);
        let predicted = constant_velocity_init(p1, Some(p0));
        let expected = step.compose(&p1);
        assert!(predicted.translation_distance_to(&expected) < 1e-9);
        // Without history it returns the previous pose.
        assert_eq!(constant_velocity_init(p1, None), p1);
    }

    #[test]
    fn downsample_frame_shapes() {
        let d = tiny_dataset();
        let small = downsample_frame(&d.frames[0], 4);
        assert_eq!(small.width(), 16);
        assert_eq!(small.height(), 12);
    }
}
