//! Scalar ≡ SIMD bit-exactness gate (DESIGN.md §13).
//!
//! The vector kernels in `splatonic_render::simd` replicate the scalar
//! oracles' floating-point operation order lane-by-lane, so every render
//! output — forward color/depth/transmittance, per-pixel contribution
//! lists, scene and pose gradients — must be *bitwise* identical between
//! `KernelMode::Scalar` and `KernelMode::Simd`, at every worker width.
//!
//! Widths 1, 4, and auto are swept explicitly here; `scripts/verify.sh`
//! additionally re-runs this whole file under `SPLATONIC_THREADS=1` and
//! `=4`, so the dispatch is exercised at width × mode combinations. On
//! hosts without a vector unit (`simd::lanes() == 1`) both modes resolve
//! to the scalar path and the comparison is trivially exact.

use splatonic::math::Vec3;
use splatonic::render::prelude::*;
use splatonic::render::{loss, KernelMode, LossConfig};
use splatonic::scene::{Camera, Gaussian, GaussianScene, Intrinsics};
use splatonic_math::{Pose, Quat};

const W: usize = 64;
const H: usize = 48;

/// Worker widths swept by every test (0 = auto).
const WIDTHS: [usize; 3] = [1, 4, 0];

fn scene() -> GaussianScene {
    let mut scene = GaussianScene::new();
    // Enough overlapping splats that every kernel sees full vector batches
    // plus a scalar tail (counts not divisible by the lane width).
    for i in 0..23u32 {
        let t = i as f64;
        scene.push(Gaussian::new(
            Vec3::new(
                0.35 * (t * 0.7).sin(),
                0.3 * (t * 1.1).cos(),
                1.6 + 0.12 * t,
            ),
            Vec3::new(
                0.15 + 0.02 * (t * 0.4).sin().abs(),
                0.2 + 0.015 * t.cos().abs(),
                0.18,
            ),
            Quat::from_axis_angle(Vec3::new(0.2, 1.0, 0.3 * t.sin()), 0.25 * t),
            0.35 + 0.55 * ((t * 0.9).sin() * 0.5 + 0.5),
            Vec3::new(
                (t * 0.3).sin() * 0.5 + 0.5,
                (t * 0.5).cos() * 0.5 + 0.5,
                0.6,
            ),
        ));
    }
    scene
}

fn camera() -> Camera {
    Camera::new(
        Intrinsics::with_fov(W, H, 1.2),
        Pose::new(
            Quat::from_axis_angle(Vec3::Y, 0.08).to_rotation_matrix(),
            Vec3::new(0.04, -0.03, 0.05),
        ),
    )
}

fn config(mode: KernelMode, threads: usize) -> RenderConfig {
    RenderConfig {
        kernels: mode,
        threads,
    }
}

fn assert_forward_bitwise(a: &ForwardResult, b: &ForwardResult, label: &str) {
    assert_eq!(a.color.len(), b.color.len(), "{label}: pixel count");
    for (i, (ca, cb)) in a.color.iter().zip(&b.color).enumerate() {
        for k in 0..3 {
            assert_eq!(
                ca[k].to_bits(),
                cb[k].to_bits(),
                "{label}: color[{i}][{k}] {} vs {}",
                ca[k],
                cb[k]
            );
        }
    }
    for (i, (da, db)) in a.depth.iter().zip(&b.depth).enumerate() {
        assert_eq!(da.to_bits(), db.to_bits(), "{label}: depth[{i}]");
    }
    for (i, (ta, tb)) in a
        .final_transmittance
        .iter()
        .zip(&b.final_transmittance)
        .enumerate()
    {
        assert_eq!(ta.to_bits(), tb.to_bits(), "{label}: transmittance[{i}]");
    }
    assert_eq!(
        a.contributions.len(),
        b.contributions.len(),
        "{label}: contribution lists"
    );
    for (i, (la, lb)) in a
        .contributions
        .iter()
        .zip(b.contributions.iter())
        .enumerate()
    {
        assert_eq!(la.len(), lb.len(), "{label}: contribs[{i}] length");
        for (ea, eb) in la.iter().zip(lb) {
            assert_eq!(ea.gaussian, eb.gaussian, "{label}: contribs[{i}] id");
            assert_eq!(
                ea.alpha.to_bits(),
                eb.alpha.to_bits(),
                "{label}: contribs[{i}] alpha"
            );
            assert_eq!(
                ea.transmittance.to_bits(),
                eb.transmittance.to_bits(),
                "{label}: contribs[{i}] transmittance"
            );
        }
    }
}

fn pixel_sets() -> Vec<(&'static str, PixelSet)> {
    let sparse = PixelSet::from_tile_chooser(W, H, 16, |_, _, x0, y0, w, h| {
        Some(splatonic::render::pixelset::PixelCoord::new(
            (x0 + w / 2) as u16,
            (y0 + h / 2) as u16,
        ))
    });
    vec![("dense", PixelSet::dense(W, H)), ("sparse16", sparse)]
}

#[test]
fn forward_scalar_simd_bitwise_at_all_widths() {
    let scene = scene();
    let cam = camera();
    for (set_name, pixels) in pixel_sets() {
        for pipeline in [Pipeline::PixelBased, Pipeline::TileBased] {
            for threads in WIDTHS {
                let scalar = render_forward(
                    &scene,
                    &cam,
                    &pixels,
                    pipeline,
                    &config(KernelMode::Scalar, threads),
                );
                let simd = render_forward(
                    &scene,
                    &cam,
                    &pixels,
                    pipeline,
                    &config(KernelMode::Simd, threads),
                );
                assert_forward_bitwise(
                    &scalar,
                    &simd,
                    &format!("{pipeline:?}/{set_name}/threads={threads}"),
                );
                // Workload accounting must not depend on the kernel mode
                // either — report_diff compares these counters exactly.
                assert_eq!(
                    scalar.trace.forward, simd.trace.forward,
                    "{pipeline:?}/{set_name}/threads={threads}: forward trace"
                );
            }
        }
    }
}

#[test]
fn backward_scalar_simd_bitwise_at_all_widths() {
    let scene = scene();
    let cam = camera();
    let loss_cfg = LossConfig::default();
    let reference = {
        // A slightly perturbed render as the target frame, so loss
        // gradients are non-zero everywhere.
        let mut perturbed = scene.clone();
        perturbed.update_each(|_, g| {
            g.mean += Vec3::new(0.012, -0.009, 0.011);
            g.color += Vec3::new(-0.02, 0.03, 0.015);
        });
        let pixels = PixelSet::dense(W, H);
        let out = render_forward(
            &perturbed,
            &cam,
            &pixels,
            Pipeline::TileBased,
            &RenderConfig::default(),
        );
        let mut color = splatonic::math::Image::filled(W, H, Vec3::ZERO);
        let mut depth = splatonic::math::Image::filled(W, H, 0.0);
        for (i, p) in pixels.iter_all().enumerate() {
            color[(p.x as usize, p.y as usize)] = out.color[i];
            depth[(p.x as usize, p.y as usize)] = out.depth[i];
        }
        splatonic::scene::Frame::new(color, depth, 0)
    };
    for (set_name, pixels) in pixel_sets() {
        for pipeline in [Pipeline::PixelBased, Pipeline::TileBased] {
            for threads in WIDTHS {
                let run = |mode: KernelMode| {
                    let cfg = config(mode, threads);
                    let out = render_forward(&scene, &cam, &pixels, pipeline, &cfg);
                    let l = loss::evaluate_loss(&out, &reference, &pixels, &loss_cfg);
                    render_backward(
                        &scene,
                        &cam,
                        &pixels,
                        &out,
                        &l.grads,
                        pipeline,
                        &cfg,
                        GradRequest::Both,
                    )
                };
                let (sg_a, pg_a, tr_a) = run(KernelMode::Scalar);
                let (sg_b, pg_b, tr_b) = run(KernelMode::Simd);
                let label = format!("{pipeline:?}/{set_name}/threads={threads}");
                assert_eq!(sg_a.len(), sg_b.len(), "{label}: grad count");
                for ((id_a, ga), (id_b, gb)) in sg_a.entries.iter().zip(&sg_b.entries) {
                    assert_eq!(id_a, id_b, "{label}: grad order");
                    for k in 0..3 {
                        assert_eq!(
                            ga.mean[k].to_bits(),
                            gb.mean[k].to_bits(),
                            "{label}: g{id_a} mean[{k}]"
                        );
                        assert_eq!(
                            ga.log_scale[k].to_bits(),
                            gb.log_scale[k].to_bits(),
                            "{label}: g{id_a} log_scale[{k}]"
                        );
                        assert_eq!(
                            ga.color[k].to_bits(),
                            gb.color[k].to_bits(),
                            "{label}: g{id_a} color[{k}]"
                        );
                    }
                    for k in 0..4 {
                        assert_eq!(
                            ga.rotation[k].to_bits(),
                            gb.rotation[k].to_bits(),
                            "{label}: g{id_a} rotation[{k}]"
                        );
                    }
                    assert_eq!(
                        ga.opacity_logit.to_bits(),
                        gb.opacity_logit.to_bits(),
                        "{label}: g{id_a} opacity_logit"
                    );
                }
                let (xa, xb) = (pg_a.xi.to_array(), pg_b.xi.to_array());
                for k in 0..6 {
                    assert_eq!(xa[k].to_bits(), xb[k].to_bits(), "{label}: pose xi[{k}]");
                }
                assert_eq!(tr_a.backward, tr_b.backward, "{label}: backward trace");
            }
        }
    }
}
