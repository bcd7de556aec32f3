//! Failure-injection tests: the renderer must stay finite and well-behaved
//! on degenerate inputs (DESIGN.md §7) — zero scales, behind-camera and
//! far-outside Gaussians, saturated opacities, empty pixel sets, zero-
//! texture frames, and non-finite parameters must never produce NaNs or
//! panics in either pipeline.

use splatonic_math::{Pose, Quat, Vec3};
use splatonic_render::pixelset::PixelCoord;
use splatonic_render::prelude::*;
use splatonic_render::{loss, KernelMode, LossConfig};
use splatonic_scene::{Camera, Frame, Gaussian, GaussianScene, Intrinsics};

const W: usize = 48;
const H: usize = 36;

fn camera() -> Camera {
    Camera::new(Intrinsics::with_fov(W, H, 1.2), Pose::identity())
}

fn render_both(scene: &GaussianScene, pixels: &PixelSet) -> (ForwardResult, ForwardResult) {
    let cfg = RenderConfig::default();
    let cam = camera();
    (
        render_forward(scene, &cam, pixels, Pipeline::TileBased, &cfg),
        render_forward(scene, &cam, pixels, Pipeline::PixelBased, &cfg),
    )
}

fn assert_finite(out: &ForwardResult) {
    for c in &out.color {
        assert!(c.is_finite(), "non-finite color {c:?}");
    }
    for &d in &out.depth {
        assert!(d.is_finite());
    }
    for &t in &out.final_transmittance {
        assert!(t.is_finite() && (0.0..=1.0 + 1e-9).contains(&t));
    }
}

#[test]
fn zero_scale_gaussian_is_harmless() {
    let mut scene = GaussianScene::new();
    scene.push(Gaussian::new(
        Vec3::new(0.0, 0.0, 2.0),
        Vec3::splat(0.0), // clamped to the positive floor internally
        Quat::IDENTITY,
        0.9,
        Vec3::splat(0.5),
    ));
    let pixels = PixelSet::dense(W, H);
    let (a, b) = render_both(&scene, &pixels);
    assert_finite(&a);
    assert_finite(&b);
}

#[test]
fn behind_camera_gaussians_render_background() {
    let mut scene = GaussianScene::new();
    for z in [-5.0, -0.5, 0.0, 0.1] {
        scene.push(Gaussian::new(
            Vec3::new(0.0, 0.0, z),
            Vec3::splat(0.2),
            Quat::IDENTITY,
            0.9,
            Vec3::splat(1.0),
        ));
    }
    let pixels = PixelSet::dense(W, H);
    let (a, b) = render_both(&scene, &pixels);
    assert_finite(&a);
    assert_finite(&b);
    // Everything is behind the near plane (0.2): nothing renders.
    assert!(a.color.iter().all(|c| c.norm() == 0.0));
    assert!(b.total_contributions() == 0);
}

#[test]
fn extreme_scales_do_not_blow_up() {
    let mut scene = GaussianScene::new();
    // A giant fog blob and a microscopic speck.
    scene.push(Gaussian::new(
        Vec3::new(0.0, 0.0, 3.0),
        Vec3::splat(50.0),
        Quat::IDENTITY,
        0.5,
        Vec3::new(0.2, 0.4, 0.6),
    ));
    scene.push(Gaussian::new(
        Vec3::new(0.1, 0.1, 1.0),
        Vec3::splat(1e-9),
        Quat::IDENTITY,
        0.9,
        Vec3::splat(1.0),
    ));
    let pixels = PixelSet::dense(W, H);
    let (a, b) = render_both(&scene, &pixels);
    assert_finite(&a);
    assert_finite(&b);
}

#[test]
fn saturated_opacity_is_clamped() {
    let mut scene = GaussianScene::new();
    scene.push(Gaussian::new(
        Vec3::new(0.0, 0.0, 1.5),
        Vec3::splat(0.5),
        Quat::IDENTITY,
        5.0, // clamped into (0, 1) by the logit storage
        Vec3::splat(1.0),
    ));
    let pixels = PixelSet::dense(W, H);
    let (a, _) = render_both(&scene, &pixels);
    assert_finite(&a);
    for contribs in a.contributions.iter() {
        for c in contribs {
            assert!(c.alpha <= splatonic_render::kernel::ALPHA_MAX + 1e-12);
        }
    }
}

#[test]
fn empty_pixel_set_renders_nothing() {
    let mut scene = GaussianScene::new();
    scene.push(Gaussian::new(
        Vec3::new(0.0, 0.0, 2.0),
        Vec3::splat(0.2),
        Quat::IDENTITY,
        0.9,
        Vec3::splat(0.5),
    ));
    let pixels = PixelSet::from_pixels(W, H, Vec::new());
    let (a, b) = render_both(&scene, &pixels);
    assert!(a.color.is_empty());
    assert!(b.color.is_empty());
}

#[test]
fn empty_scene_backward_is_empty() {
    let scene = GaussianScene::new();
    let cam = camera();
    let cfg = RenderConfig::default();
    let pixels = PixelSet::dense(W, H);
    let out = render_forward(&scene, &cam, &pixels, Pipeline::PixelBased, &cfg);
    let grads = vec![
        loss::LossGrad {
            d_color: Vec3::splat(1.0),
            d_depth: 1.0
        };
        pixels.len()
    ];
    let (sg, pg, trace) = render_backward(
        &scene,
        &cam,
        &pixels,
        &out,
        &grads,
        Pipeline::PixelBased,
        &cfg,
        GradRequest::Both,
    );
    assert!(sg.is_empty());
    assert_eq!(pg.xi.norm(), 0.0);
    assert_eq!(trace.backward.pairs_grad, 0);
}

#[test]
fn zero_texture_frame_loss_is_well_defined() {
    // A pitch-black reference with no depth: loss must be finite and its
    // gradients defined (the paper's samplers must also survive this).
    let mut scene = GaussianScene::new();
    scene.push(Gaussian::new(
        Vec3::new(0.0, 0.0, 2.0),
        Vec3::splat(0.3),
        Quat::IDENTITY,
        0.9,
        Vec3::splat(0.7),
    ));
    let cam = camera();
    let cfg = RenderConfig::default();
    let pixels = PixelSet::dense(W, H);
    let out = render_forward(&scene, &cam, &pixels, Pipeline::TileBased, &cfg);
    let frame = Frame::new(
        splatonic_math::Image::filled(W, H, Vec3::ZERO),
        splatonic_math::Image::filled(W, H, 0.0),
        0,
    );
    let l = loss::evaluate_loss(&out, &frame, &pixels, &LossConfig::default());
    assert!(l.value.is_finite());
    assert!(l.grads.iter().all(|g| g.d_color.is_finite()));
    // Invalid depths disable every depth gradient.
    assert!(l.grads.iter().all(|g| g.d_depth == 0.0));
}

#[test]
fn zero_texture_frame_samplers_survive() {
    use splatonic_render::sampling::{tracking_plan, MappingStrategy, SamplingPlan};
    use splatonic_render::MappingSampler;
    let frame = Frame::new(
        splatonic_math::Image::filled(W, H, Vec3::splat(0.5)),
        splatonic_math::Image::filled(W, H, 1.0),
        0,
    );
    // Harris on a perfectly flat frame must fall back to random coverage.
    let plan = tracking_plan(SamplingStrategy::HarrisPerTile { tile: 8 }, &frame, 1, None);
    let SamplingPlan::Pixels(p) = plan else {
        panic!()
    };
    assert_eq!(p.len(), (W / 8) * (H.div_ceil(8)));
    // Weighted mapping sampling on zero gradients likewise.
    let sampler = MappingSampler::new(4, MappingStrategy::WeightedOnly);
    let t = splatonic_math::Image::filled(W, H, 0.0);
    let set = sampler.build(&frame, &t, 2);
    assert_eq!(set.sample_count(), (W / 4) * (H / 4));
}

#[test]
fn non_finite_gaussian_is_culled_not_propagated() {
    let mut scene = GaussianScene::new();
    scene.push(Gaussian {
        mean: Vec3::new(f64::NAN, 0.0, 2.0),
        log_scale: Vec3::splat(-2.0),
        rotation: Quat::IDENTITY,
        opacity_logit: 1.0,
        color: Vec3::splat(0.5),
    });
    scene.push(Gaussian::new(
        Vec3::new(0.0, 0.0, 2.0),
        Vec3::splat(0.2),
        Quat::IDENTITY,
        0.9,
        Vec3::splat(0.5),
    ));
    let pixels = PixelSet::dense(W, H);
    let (a, b) = render_both(&scene, &pixels);
    assert_finite(&a);
    assert_finite(&b);
    // The healthy Gaussian still renders.
    assert!(a.total_contributions() > 0);
}

/// Healthy Gaussians with one parameter set to NaN, +∞ or −∞, each with
/// whether projection must cull it. The rows that project do so by design:
/// color is clamped into [0, 1] (`Vec3::clamp` maps NaN to 0), log-scale −∞
/// is a zero-scale splat that the screen blur keeps finite, and a saturated
/// opacity logit is opacity 0 or 1.
fn non_finite_rows() -> Vec<(String, Gaussian, bool)> {
    let healthy = Gaussian::new(
        Vec3::new(0.1, -0.1, 2.0),
        Vec3::new(0.2, 0.1, 0.15),
        Quat::from_axis_angle(Vec3::new(0.3, 1.0, 0.2), 0.4),
        0.9,
        Vec3::splat(0.5),
    );
    let mut rows = Vec::new();
    for (label, v) in [
        ("NaN", f64::NAN),
        ("+inf", f64::INFINITY),
        ("-inf", f64::NEG_INFINITY),
    ] {
        let mut row = |what: &str, culled: bool, set: &dyn Fn(&mut Gaussian)| {
            let mut g = healthy;
            set(&mut g);
            rows.push((format!("{label} {what}"), g, culled));
        };
        row("mean.x", true, &|g| g.mean.x = v);
        row("mean.y", true, &|g| g.mean.y = v);
        row("mean.z", true, &|g| g.mean.z = v);
        row("log_scale", v != f64::NEG_INFINITY, &|g| g.log_scale.y = v);
        row("opacity_logit", v.is_nan(), &|g| g.opacity_logit = v);
        row("rotation", true, &|g| {
            g.rotation = Quat::new(v, 0.0, 0.0, 0.0)
        });
        row("color", false, &|g| g.color.y = v);
    }
    rows
}

#[test]
fn non_finite_parameters_in_every_pipeline_and_kernel_mode() {
    let sparse = PixelSet::from_tile_chooser(W, H, 8, |_, _, x0, y0, tw, th| {
        Some(PixelCoord::new((x0 + tw / 2) as u16, (y0 + th / 2) as u16))
    });
    let cam = camera();
    for (what, bad, culled) in non_finite_rows() {
        // Four healthy neighbours, so the bad row lands in a SIMD lane batch
        // at index 1 and in the scalar remainder at index 4.
        for pos in [1usize, 4] {
            let mut scene = GaussianScene::new();
            for k in 0..5 {
                if k == pos {
                    scene.push(bad);
                } else {
                    scene.push(Gaussian::new(
                        Vec3::new(0.2 * k as f64 - 0.4, 0.05 * k as f64, 1.5 + 0.3 * k as f64),
                        Vec3::new(0.2, 0.1, 0.15),
                        Quat::from_axis_angle(Vec3::new(0.3, 1.0, 0.2), 0.4),
                        0.9,
                        Vec3::splat(0.5),
                    ));
                }
            }
            for pixels in [&sparse, &PixelSet::dense(W, H)] {
                for kernels in [KernelMode::Scalar, KernelMode::Simd] {
                    let cfg = RenderConfig {
                        kernels,
                        ..RenderConfig::default()
                    };
                    for pipeline in [Pipeline::TileBased, Pipeline::PixelBased] {
                        let at = format!("{what} at {pos}, {pipeline:?}, {kernels:?}");
                        let out = render_forward(&scene, &cam, pixels, pipeline, &cfg);
                        assert_finite(&out);
                        assert!(out.total_contributions() > 0, "{at}");
                        let fwd = &out.trace.forward;
                        if culled {
                            assert_eq!(fwd.gaussians_culled, 1, "{at}");
                            assert_eq!(fwd.gaussians_projected, 4, "{at}");
                            assert!(
                                out.contributions
                                    .iter()
                                    .flatten()
                                    .all(|c| c.gaussian != pos as u32),
                                "{at}"
                            );
                        } else {
                            assert_eq!(fwd.gaussians_culled, 0, "{at}");
                            assert_eq!(fwd.gaussians_projected, 5, "{at}");
                        }
                    }
                }
            }
        }
    }
}
