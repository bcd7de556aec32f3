//! Scene mapping: densification and Gaussian-parameter optimization
//! (paper Sec. II-A).
//!
//! [`map_scene`] fixes the recent camera poses and fine-tunes the Gaussian
//! scene, with the optimizer state owned by the caller:
//!
//! 1. One **dense forward pass** over the newest keyframe yields the final
//!    transmittance map `Γ_final` (performed "only once per mapping",
//!    paper Sec. IV-A).
//! 2. **Densification** back-projects unseen pixels (`Γ_final > 0.5`,
//!    Eq. 2) into new Gaussians.
//! 3. `S_m` iterations of render → loss → backward → Adam over the window's
//!    keyframes, with pixels chosen by the [`MappingSampler`].
//!
//! Within one mapping iteration the backward pass reads the forward's
//! projection (and, on the tile path, its sorted tile lists) from
//! `ForwardResult::handoff`. Every Adam step mutates the scene, so the next
//! iteration's forward projects afresh.

use crate::adam::{AdamParams, AdamVector};
use crate::algorithm::AlgorithmConfig;
use splatonic_math::{Image, Pose, Vec3};
use splatonic_render::{
    loss, render_backward, render_forward, GradRequest, MappingSampler, Pipeline, PixelSet,
    RenderConfig, RenderTrace, SceneGrads,
};
use splatonic_scene::{Camera, Frame, Gaussian, GaussianScene, Intrinsics};
use splatonic_telemetry::Telemetry;

/// Parameters per Gaussian tracked by the mapping optimizer
/// (mean 3 + log-scale 3 + quaternion 4 + opacity 1 + color 3).
const PARAMS_PER_GAUSSIAN: usize = 14;

/// A keyframe: reference frame (borrowed from the dataset) plus its
/// (estimated, fixed) pose.
#[derive(Debug, Clone, Copy)]
pub struct Keyframe<'a> {
    /// The reference RGB-D frame.
    pub frame: &'a Frame,
    /// World-to-camera pose estimated by tracking.
    pub pose: Pose,
}

/// Output of one mapping invocation.
#[derive(Debug, Clone)]
pub struct MappingOutput {
    /// Aggregated workload trace (includes the dense Γ pass).
    pub trace: RenderTrace,
    /// Gaussians added by densification.
    pub densified: usize,
    /// Eligible densification candidates rejected by
    /// [`AlgorithmConfig::densify_max_per_frame`].
    pub densified_capped: usize,
    /// Gaussians pruned at the end.
    pub pruned: usize,
    /// Iterations executed.
    pub iters: usize,
    /// Total pixels rendered across all optimization iterations (the
    /// per-frame `map_sampled_pixels` of the run report).
    pub sampled_pixels: usize,
}

/// One Adam step over the touched Gaussians of `grads`, applied straight to
/// the scene's columns. Parameter `14·id + k` of the optimizer is
/// component `k` of Gaussian `id` in the order mean, log-scale, rotation
/// `[w, x, y, z]`, opacity logit, color; each delta is scaled by its
/// group's learning rate relative to `lr.lr`. Always takes the scene's
/// fields mutably, so the scene drops its derived projection terms even
/// for an empty `grads`.
fn adam_step(
    adam: &mut AdamVector,
    lr: &AdamParams,
    algo: &AlgorithmConfig,
    grads: &SceneGrads,
    scene: &mut GaussianScene,
) {
    adam.grow(scene.len() * PARAMS_PER_GAUSSIAN);
    let mean_lr = algo.mean_lr / lr.lr;
    let scale_lr = algo.scale_lr / lr.lr;
    let rot_lr = algo.rot_lr / lr.lr;
    let opacity_lr = algo.opacity_lr / lr.lr;
    let color_lr = algo.color_lr / lr.lr;
    let mut step = adam.begin_step(lr);
    let f = scene.fields_mut();
    for (id, g) in &grads.entries {
        let i = *id as usize;
        let base = i * PARAMS_PER_GAUSSIAN;
        let mut delta = |k: usize, grad: f64, scale: f64| step.delta(base + k, grad) * scale;
        let mean = &mut f.means[i];
        mean.x += delta(0, g.mean.x, mean_lr);
        mean.y += delta(1, g.mean.y, mean_lr);
        mean.z += delta(2, g.mean.z, mean_lr);
        let log_scale = &mut f.log_scales[i];
        log_scale.x += delta(3, g.log_scale.x, scale_lr);
        log_scale.y += delta(4, g.log_scale.y, scale_lr);
        log_scale.z += delta(5, g.log_scale.z, scale_lr);
        let rotation = &mut f.rotations[i];
        rotation.w += delta(6, g.rotation[0], rot_lr);
        rotation.x += delta(7, g.rotation[1], rot_lr);
        rotation.y += delta(8, g.rotation[2], rot_lr);
        rotation.z += delta(9, g.rotation[3], rot_lr);
        f.opacity_logits[i] += delta(10, g.opacity_logit, opacity_lr);
        let color = &mut f.colors[i];
        color.x += delta(11, g.color.x, color_lr);
        color.y += delta(12, g.color.y, color_lr);
        color.z += delta(13, g.color.z, color_lr);
    }
}

/// Seeds an initial scene by back-projecting every `stride`-th valid-depth
/// pixel of `frame` at `pose`.
pub fn seed_scene_from_frame(
    frame: &Frame,
    intrinsics: Intrinsics,
    pose: Pose,
    stride: usize,
) -> GaussianScene {
    let cam = Camera::new(intrinsics, pose);
    let mut scene = GaussianScene::new();
    let stride = stride.max(1);
    for y in (0..frame.height()).step_by(stride) {
        for x in (0..frame.width()).step_by(stride) {
            let z = frame.depth[(x, y)];
            if z <= 0.0 {
                continue;
            }
            scene.push(backproject_gaussian(frame, &cam, x, y, z, stride));
        }
    }
    scene
}

/// Back-projects pixel `(x, y)` at depth `z` into a new Gaussian whose
/// radius is ~0.65 pixel footprints times `stride` — thin enough to keep
/// the rendered expected depth close to the surface (fat overlapping seeds
/// bias depth toward the camera and shift the tracking optimum).
fn backproject_gaussian(
    frame: &Frame,
    cam: &Camera,
    x: usize,
    y: usize,
    z: f64,
    stride: usize,
) -> Gaussian {
    let mean = cam.unproject_to_world(x as f64 + 0.5, y as f64 + 0.5, z);
    let radius = z * stride as f64 / cam.intrinsics.fx * 0.65;
    Gaussian::new(
        mean,
        Vec3::splat(radius.max(1e-3)),
        splatonic_math::Quat::IDENTITY,
        0.92,
        frame.color[(x, y)],
    )
}

/// Densifies the scene from unseen pixels of `frame` (Eq. 2): back-projects
/// every `stride`-th unseen pixel with valid depth, admitting at most
/// `max_new` Gaussians in deterministic scan order (row-major, strided).
/// Returns `(added, capped)`: how many Gaussians were pushed and how many
/// eligible candidates the cap rejected. With `max_new = usize::MAX` the
/// behavior (and the scene, bitwise) is identical to the uncapped pass.
pub fn densify_unseen(
    scene: &mut GaussianScene,
    frame: &Frame,
    intrinsics: Intrinsics,
    pose: Pose,
    transmittance: &Image<f64>,
    stride: usize,
    max_new: usize,
) -> (usize, usize) {
    let cam = Camera::new(intrinsics, pose);
    let stride = stride.max(1);
    let mut added = 0;
    let mut capped = 0;
    for y in (0..frame.height()).step_by(stride) {
        for x in (0..frame.width()).step_by(stride) {
            if transmittance[(x, y)] <= 0.5 {
                continue;
            }
            let z = frame.depth[(x, y)];
            if z <= 0.0 {
                continue;
            }
            // Keep scanning past the cap so the overflow is counted — the
            // `mapping/densify_capped` counter reports real pressure, not
            // just a saturated flag.
            if added >= max_new {
                capped += 1;
                continue;
            }
            scene.push(backproject_gaussian(frame, &cam, x, y, z, stride));
            added += 1;
        }
    }
    (added, capped)
}

/// The mapping process: densify from the newest keyframe, then optimize the
/// scene over the keyframe window.
///
/// `adam` is reset to exactly `AdamVector::new(scene.len() * 14)` at the
/// start of the invocation, but the moments and step count live in the
/// caller between iterations, so a checkpoint taken mid-run genuinely
/// captures them ([`crate::snapshot`]).
///
/// The once-per-invocation dense Γ pass is timed as `gamma_dense` and
/// densification as `densify`; each optimization iteration's pixel-set
/// build as `sample`, its render passes as `forward` / `backward` and its
/// optimizer update as `adam`; the final cull as `prune`. Densify/prune
/// counts are exported as counters. A disabled handle adds no overhead.
#[allow(clippy::too_many_arguments)]
pub fn map_scene(
    scene: &mut GaussianScene,
    keyframes: &[Keyframe],
    intrinsics: Intrinsics,
    sampler: &MappingSampler,
    algo: &AlgorithmConfig,
    pipeline: Pipeline,
    render_cfg: &RenderConfig,
    seed: u64,
    adam: &mut AdamVector,
    telemetry: &Telemetry,
) -> MappingOutput {
    assert!(!keyframes.is_empty(), "mapping needs at least one keyframe");
    let newest = keyframes.last().expect("non-empty");
    let mut trace = RenderTrace::new();

    // 1. Dense forward pass for Γ_final (once per mapping invocation).
    let dense = PixelSet::dense(intrinsics.width, intrinsics.height);
    let cam_new = Camera::new(intrinsics, newest.pose);
    let dense_out = {
        let _span = telemetry.span("gamma_dense");
        render_forward(scene, &cam_new, &dense, pipeline, render_cfg)
    };
    trace.merge(&dense_out.trace);
    let mut transmittance = Image::filled(intrinsics.width, intrinsics.height, 1.0);
    for (i, p) in dense.iter_all().enumerate() {
        transmittance[(p.x as usize, p.y as usize)] = dense_out.final_transmittance[i];
    }

    // 2. Densification from unseen pixels, bounded per invocation.
    let (densified, densified_capped) = {
        let _span = telemetry.span("densify");
        densify_unseen(
            scene,
            newest.frame,
            intrinsics,
            newest.pose,
            &transmittance,
            2,
            algo.densify_max_per_frame,
        )
    };

    // 3. Optimization over the window.
    adam.reset_to(scene.len() * PARAMS_PER_GAUSSIAN);
    let lr = AdamParams::default();
    let mut pixels_total = 0usize;
    // Older keyframes sample with a flat weight map (read-only).
    let flat = Image::filled(intrinsics.width, intrinsics.height, 0.0);
    for it in 0..algo.mapping_iters {
        let kf = &keyframes[it % keyframes.len()];
        let cam = Camera::new(intrinsics, kf.pose);
        // Paper Sec. VII-A: "we perform one full-frame mapping for every
        // four frames" — the first iteration of each mapping invocation is
        // dense; the rest use the sparse sampler. The Γ map belongs to the
        // newest keyframe; older keyframes use the weighted sampler only
        // (their unseen regions were handled when they were newest).
        let pixels = {
            let _span = telemetry.span("sample");
            if it == 0 {
                PixelSet::dense(intrinsics.width, intrinsics.height)
            } else if std::ptr::eq(kf, newest) {
                sampler.build(kf.frame, &transmittance, seed ^ (it as u64))
            } else {
                sampler.build(kf.frame, &flat, seed ^ (it as u64))
            }
        };
        if pixels.is_empty() {
            continue;
        }
        pixels_total += pixels.len();
        let out = {
            let _span = telemetry.span("forward");
            render_forward(scene, &cam, &pixels, pipeline, render_cfg)
        };
        let l = loss::evaluate_loss(&out, kf.frame, &pixels, &algo.loss);
        let (scene_grads, _, bwd_trace) = {
            let _span = telemetry.span("backward");
            render_backward(
                scene,
                &cam,
                &pixels,
                &out,
                &l.grads,
                render_cfg,
                GradRequest::Scene,
            )
        };
        trace.merge(&out.trace);
        trace.merge(&bwd_trace);
        // Adam update over the touched Gaussians.
        let _span = telemetry.span("adam");
        adam_step(adam, &lr, algo, &scene_grads, scene);
    }

    // 4. Prune Gaussians that optimization drove transparent or degenerate.
    let pruned = {
        let _span = telemetry.span("prune");
        let before = scene.len();
        scene.retain(|g| g.opacity() > 0.02 && g.is_finite());
        before - scene.len()
    };
    telemetry.counter_add("mapping/gaussians_densified", densified as u64);
    telemetry.counter_add("mapping/gaussians_pruned", pruned as u64);
    telemetry.counter_add("mapping/densify_capped", densified_capped as u64);

    MappingOutput {
        trace,
        densified,
        densified_capped,
        pruned,
        iters: algo.mapping_iters,
        sampled_pixels: pixels_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adam::AdamScalar;
    use crate::dataset::{Dataset, DatasetConfig};
    use crate::metrics::psnr_db;
    use splatonic_render::sampling::MappingStrategy;
    use splatonic_render::Pipeline;

    fn tiny_dataset() -> Dataset {
        Dataset::replica_like(
            "map-test",
            13,
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

    fn render_at(
        scene: &GaussianScene,
        intrinsics: Intrinsics,
        pose: Pose,
    ) -> splatonic_math::Image<Vec3> {
        let pixels = PixelSet::dense(intrinsics.width, intrinsics.height);
        let cam = Camera::new(intrinsics, pose);
        let out = render_forward(
            scene,
            &cam,
            &pixels,
            Pipeline::TileBased,
            &RenderConfig::default(),
        );
        let mut img = Image::filled(intrinsics.width, intrinsics.height, Vec3::ZERO);
        for (i, p) in pixels.iter_all().enumerate() {
            img[(p.x as usize, p.y as usize)] = out.color[i];
        }
        img
    }

    #[test]
    fn seed_scene_covers_frame() {
        let d = tiny_dataset();
        let scene = seed_scene_from_frame(&d.frames[0], d.intrinsics, d.gt_poses[0], 2);
        assert!(scene.len() > 200, "seeded {} gaussians", scene.len());
        // Rendering the seeded scene from the seeding pose should already
        // resemble the reference.
        let img = render_at(&scene, d.intrinsics, d.gt_poses[0]);
        let psnr = psnr_db(&img, &d.frames[0].color);
        assert!(psnr > 14.0, "seeded PSNR too low: {psnr:.1} dB");
    }

    #[test]
    fn mapping_improves_psnr() {
        let d = tiny_dataset();
        let mut scene = seed_scene_from_frame(&d.frames[0], d.intrinsics, d.gt_poses[0], 2);
        let before = psnr_db(
            &render_at(&scene, d.intrinsics, d.gt_poses[0]),
            &d.frames[0].color,
        );
        let kf = Keyframe {
            frame: &d.frames[0],
            pose: d.gt_poses[0],
        };
        let algo = AlgorithmConfig {
            mapping_iters: 20,
            ..AlgorithmConfig::default()
        };
        let sampler = MappingSampler::new(2, MappingStrategy::Combined);
        map_scene(
            &mut scene,
            &[kf],
            d.intrinsics,
            &sampler,
            &algo,
            Pipeline::PixelBased,
            &RenderConfig::default(),
            9,
            &mut AdamVector::new(0),
            &Telemetry::disabled(),
        );
        let after = psnr_db(
            &render_at(&scene, d.intrinsics, d.gt_poses[0]),
            &d.frames[0].color,
        );
        assert!(
            after > before + 0.3,
            "mapping must improve PSNR: {before:.2} -> {after:.2}"
        );
    }

    #[test]
    fn densification_fills_unseen_regions() {
        // A long trajectory so the last frame is a genuinely new viewpoint
        // relative to the seeding frame (unseen regions must appear).
        let d = Dataset::replica_like(
            "map-test-long",
            13,
            DatasetConfig {
                width: 64,
                height: 48,
                frames: 60,
                spacing: 0.3,
                fov: 1.25,
                furniture: 2,
                depth_dropout_coverage: 0.9,
            },
        );
        let mut scene = seed_scene_from_frame(&d.frames[0], d.intrinsics, d.gt_poses[0], 2);
        let n0 = scene.len();
        let kf = Keyframe {
            frame: &d.frames[59],
            pose: d.gt_poses[59],
        };
        let algo = AlgorithmConfig {
            mapping_iters: 2,
            ..AlgorithmConfig::default()
        };
        let sampler = MappingSampler::new(4, MappingStrategy::Combined);
        let out = map_scene(
            &mut scene,
            &[kf],
            d.intrinsics,
            &sampler,
            &algo,
            Pipeline::PixelBased,
            &RenderConfig::default(),
            4,
            &mut AdamVector::new(0),
            &Telemetry::disabled(),
        );
        assert!(out.densified > 0, "no densification happened");
        assert!(scene.len() > n0 - out.pruned);
    }

    #[test]
    fn densify_cap_is_a_deterministic_prefix() {
        let d = tiny_dataset();
        // Fully unseen transmittance: every strided valid-depth pixel is a
        // densification candidate.
        let t = Image::filled(d.intrinsics.width, d.intrinsics.height, 1.0);
        let mut full = GaussianScene::new();
        let (added_full, capped_full) = densify_unseen(
            &mut full,
            &d.frames[0],
            d.intrinsics,
            d.gt_poses[0],
            &t,
            2,
            usize::MAX,
        );
        assert!(added_full > 10);
        assert_eq!(capped_full, 0, "usize::MAX must never cap");
        let cap = added_full / 2;
        let mut capped = GaussianScene::new();
        let (added, overflow) = densify_unseen(
            &mut capped,
            &d.frames[0],
            d.intrinsics,
            d.gt_poses[0],
            &t,
            2,
            cap,
        );
        assert_eq!(added, cap);
        assert_eq!(overflow, added_full - cap);
        // The capped pass admits exactly the bitwise prefix of the
        // uncapped one — scan order is the deterministic priority.
        for i in 0..cap {
            assert_eq!(capped.gaussian(i), full.gaussian(i), "index {i}");
        }
    }

    #[test]
    fn mapping_reports_capped_densification() {
        let d = Dataset::replica_like(
            "map-test-long",
            13,
            DatasetConfig {
                width: 64,
                height: 48,
                frames: 60,
                spacing: 0.3,
                fov: 1.25,
                furniture: 2,
                depth_dropout_coverage: 0.9,
            },
        );
        let mut scene = seed_scene_from_frame(&d.frames[0], d.intrinsics, d.gt_poses[0], 2);
        let kf = Keyframe {
            frame: &d.frames[59],
            pose: d.gt_poses[59],
        };
        let algo = AlgorithmConfig {
            mapping_iters: 2,
            densify_max_per_frame: 5,
            ..AlgorithmConfig::default()
        };
        let sampler = MappingSampler::new(4, MappingStrategy::Combined);
        let out = map_scene(
            &mut scene,
            &[kf],
            d.intrinsics,
            &sampler,
            &algo,
            Pipeline::PixelBased,
            &RenderConfig::default(),
            4,
            &mut AdamVector::new(0),
            &Telemetry::disabled(),
        );
        assert_eq!(out.densified, 5, "cap must bound densification");
        assert!(out.densified_capped > 0, "overflow must be reported");
    }

    #[test]
    fn mapping_records_trace() {
        let d = tiny_dataset();
        let mut scene = seed_scene_from_frame(&d.frames[0], d.intrinsics, d.gt_poses[0], 3);
        let kf = Keyframe {
            frame: &d.frames[0],
            pose: d.gt_poses[0],
        };
        let algo = AlgorithmConfig {
            mapping_iters: 3,
            ..AlgorithmConfig::default()
        };
        let sampler = MappingSampler::new(4, MappingStrategy::Combined);
        let out = map_scene(
            &mut scene,
            &[kf],
            d.intrinsics,
            &sampler,
            &algo,
            Pipeline::PixelBased,
            &RenderConfig::default(),
            4,
            &mut AdamVector::new(0),
            &Telemetry::disabled(),
        );
        assert!(out.trace.forward.pixels_shaded > 0);
        assert!(out.trace.backward.pairs_grad > 0);
        assert_eq!(out.iters, 3);
    }

    /// The mapping update as it was before it went per column: a
    /// `(parameter, gradient)` list per step, one scalar Adam step per
    /// entry, and a 14-way `match` per parameter for its lr group and
    /// column.
    fn adam_step_oracle(
        state: &mut Vec<AdamScalar>,
        t: &mut u64,
        lr: &AdamParams,
        algo: &AlgorithmConfig,
        grads: &SceneGrads,
        scene: &mut GaussianScene,
    ) {
        let n = scene.len() * PARAMS_PER_GAUSSIAN;
        if n > state.len() {
            state.resize(n, AdamScalar::default());
        }
        *t += 1;
        let mut sparse: Vec<(usize, f64)> = Vec::new();
        for (id, g) in &grads.entries {
            let base = *id as usize * PARAMS_PER_GAUSSIAN;
            let values = [
                g.mean.x,
                g.mean.y,
                g.mean.z,
                g.log_scale.x,
                g.log_scale.y,
                g.log_scale.z,
                g.rotation[0],
                g.rotation[1],
                g.rotation[2],
                g.rotation[3],
                g.opacity_logit,
                g.color.x,
                g.color.y,
                g.color.z,
            ];
            sparse.extend(values.iter().enumerate().map(|(k, &v)| (base + k, v)));
        }
        let fields = scene.fields_mut();
        for (idx, grad) in sparse {
            let mut delta = state[idx].step(grad, *t, lr);
            let gid = idx / PARAMS_PER_GAUSSIAN;
            let k = idx % PARAMS_PER_GAUSSIAN;
            let scale = match k {
                0..=2 => algo.mean_lr,
                3..=5 => algo.scale_lr,
                6..=9 => algo.rot_lr,
                10 => algo.opacity_lr,
                _ => algo.color_lr,
            } / lr.lr;
            delta *= scale;
            match k {
                0 => fields.means[gid].x += delta,
                1 => fields.means[gid].y += delta,
                2 => fields.means[gid].z += delta,
                3 => fields.log_scales[gid].x += delta,
                4 => fields.log_scales[gid].y += delta,
                5 => fields.log_scales[gid].z += delta,
                6 => fields.rotations[gid].w += delta,
                7 => fields.rotations[gid].x += delta,
                8 => fields.rotations[gid].y += delta,
                9 => fields.rotations[gid].z += delta,
                10 => fields.opacity_logits[gid] += delta,
                11 => fields.colors[gid].x += delta,
                12 => fields.colors[gid].y += delta,
                _ => fields.colors[gid].z += delta,
            }
        }
    }

    /// Every parameter bit of `scene`, in id order.
    fn scene_bits(scene: &GaussianScene) -> Vec<u64> {
        scene
            .to_vec()
            .iter()
            .flat_map(|g| {
                let r = g.rotation;
                [
                    g.mean.x,
                    g.mean.y,
                    g.mean.z,
                    g.log_scale.x,
                    g.log_scale.y,
                    g.log_scale.z,
                    r.w,
                    r.x,
                    r.y,
                    r.z,
                    g.opacity_logit,
                    g.color.x,
                    g.color.y,
                    g.color.z,
                ]
            })
            .map(f64::to_bits)
            .collect()
    }

    #[test]
    fn per_column_adam_matches_list_and_match_path() {
        let mut rng = splatonic_math::Rng64::seed_from_u64(0xada);
        let v = |rng: &mut splatonic_math::Rng64| rng.gen_range(-2.0..2.0);
        let gaussian = |rng: &mut splatonic_math::Rng64| {
            Gaussian::new(
                Vec3::new(rng.gen_range(-1.0..1.0), 0.5, rng.gen_range(1.0..3.0)),
                Vec3::splat(rng.gen_range(0.05..0.3)),
                splatonic_math::Quat::IDENTITY,
                rng.gen_range(0.2..0.9),
                Vec3::new(0.2, 0.5, 0.8),
            )
        };
        let mut scene = GaussianScene::new();
        for _ in 0..5 {
            scene.push(gaussian(&mut rng));
        }
        let mut oracle_scene = scene.clone();
        let algo = AlgorithmConfig::default();
        let lr = AdamParams::default();
        let mut adam = AdamVector::new(scene.len() * PARAMS_PER_GAUSSIAN);
        let (mut state, mut t) = (adam.scalars().to_vec(), 0u64);
        for step in 0..4 {
            if step == 2 {
                // Densification between steps: the optimizer grows cold.
                let g = gaussian(&mut rng);
                scene.push(g);
                oracle_scene.push(g);
            }
            // A touched subset in scrambled order, with non-zero moments
            // carried over from earlier steps on the repeated ids.
            let ids: &[u32] = match step {
                0 => &[3, 0, 1],
                1 => &[1, 4, 3],
                2 => &[5, 3, 2],
                _ => &[0, 1, 2, 3, 4, 5],
            };
            let grads = SceneGrads {
                entries: ids
                    .iter()
                    .map(|&id| {
                        let g = splatonic_render::grad::GaussianParamGrad {
                            mean: Vec3::new(v(&mut rng), v(&mut rng), v(&mut rng)),
                            log_scale: Vec3::new(v(&mut rng), v(&mut rng), v(&mut rng)),
                            rotation: [v(&mut rng), v(&mut rng), v(&mut rng), v(&mut rng)],
                            opacity_logit: v(&mut rng),
                            color: Vec3::new(v(&mut rng), v(&mut rng), v(&mut rng)),
                        };
                        (id, g)
                    })
                    .collect(),
            };
            adam_step(&mut adam, &lr, &algo, &grads, &mut scene);
            adam_step_oracle(&mut state, &mut t, &lr, &algo, &grads, &mut oracle_scene);
            assert_eq!(scene_bits(&scene), scene_bits(&oracle_scene), "step {step}");
            assert_eq!(adam.scalars(), state.as_slice(), "step {step}");
            assert_eq!(adam.step_count(), t);
        }
        assert!(adam.scalars().iter().all(|s| s.moments().0 != 0.0));
    }

    #[test]
    #[should_panic(expected = "at least one keyframe")]
    fn empty_keyframes_panic() {
        let d = tiny_dataset();
        let mut scene = GaussianScene::new();
        let sampler = MappingSampler::new(4, MappingStrategy::Combined);
        let _ = map_scene(
            &mut scene,
            &[],
            d.intrinsics,
            &sampler,
            &AlgorithmConfig::default(),
            Pipeline::PixelBased,
            &RenderConfig::default(),
            0,
            &mut AdamVector::new(0),
            &Telemetry::disabled(),
        );
    }
}
