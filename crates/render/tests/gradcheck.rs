//! Finite-difference validation of the analytic backward pass.
//!
//! The loss is made smooth in the probed region by a large Huber delta, so
//! central differences of the full forward+loss pipeline must match the
//! analytic gradients from `render_backward` for every Gaussian parameter
//! and for the camera-pose translation. (Pose-rotation gradients drop the
//! covariance-orientation term by design — see DESIGN.md §5 — so they are
//! checked directionally, not to FD precision.)

use splatonic_math::{Pose, Quat, Se3, Vec3};
use splatonic_render::prelude::*;
use splatonic_render::{loss, LossConfig};
use splatonic_scene::{Camera, Frame, Gaussian, GaussianScene, Intrinsics};

const W: usize = 48;
const H: usize = 36;

fn test_scene() -> GaussianScene {
    let mut scene = GaussianScene::new();
    scene.push(Gaussian::new(
        Vec3::new(0.05, -0.02, 1.8),
        Vec3::new(0.22, 0.3, 0.18),
        Quat::from_axis_angle(Vec3::new(1.0, 0.5, 0.2), 0.4),
        0.7,
        Vec3::new(0.8, 0.3, 0.4),
    ));
    scene.push(Gaussian::new(
        Vec3::new(-0.15, 0.1, 2.6),
        Vec3::new(0.35, 0.28, 0.3),
        Quat::from_axis_angle(Vec3::new(0.0, 1.0, 0.3), -0.7),
        0.6,
        Vec3::new(0.2, 0.7, 0.5),
    ));
    scene.push(Gaussian::new(
        Vec3::new(0.2, 0.15, 3.4),
        Vec3::new(0.5, 0.4, 0.45),
        Quat::from_axis_angle(Vec3::new(0.3, 0.2, 1.0), 1.1),
        0.8,
        Vec3::new(0.4, 0.4, 0.9),
    ));
    scene
}

fn camera() -> Camera {
    Camera::new(Intrinsics::with_fov(W, H, 1.2), Pose::identity())
}

fn reference() -> Frame {
    // Render the reference from a slightly perturbed scene so residuals are
    // non-zero but small (inside the Huber region).
    let mut perturbed = test_scene();
    perturbed.update_each(|_, g| {
        g.mean += Vec3::new(0.01, -0.008, 0.012);
        g.color += Vec3::new(0.03, -0.02, 0.01);
    });
    let pixels = PixelSet::dense(W, H);
    let out = render_forward(
        &perturbed,
        &camera(),
        &pixels,
        Pipeline::TileBased,
        &RenderConfig::default(),
    );
    let mut color = splatonic_math::Image::filled(W, H, Vec3::ZERO);
    let mut depth = splatonic_math::Image::filled(W, H, 0.0);
    for (i, p) in pixels.iter_all().enumerate() {
        color[(p.x as usize, p.y as usize)] = out.color[i];
        depth[(p.x as usize, p.y as usize)] = out.depth[i];
    }
    Frame::new(color, depth, 0)
}

fn loss_cfg() -> LossConfig {
    LossConfig {
        color_weight: 0.7,
        depth_weight: 0.8,
        huber_delta: 10.0, // quadratic everywhere we probe
        huber_delta_depth: 10.0,
    }
}

fn scalar_loss(scene: &GaussianScene, cam: &Camera, reference: &Frame) -> f64 {
    let pixels = PixelSet::dense(W, H);
    let out = render_forward(
        scene,
        cam,
        &pixels,
        Pipeline::TileBased,
        &RenderConfig::default(),
    );
    loss::evaluate_loss(&out, reference, &pixels, &loss_cfg()).value
}

fn analytic_grads(
    scene: &GaussianScene,
    cam: &Camera,
    reference: &Frame,
    pipeline: Pipeline,
) -> (splatonic_render::SceneGrads, splatonic_render::PoseGrad) {
    let pixels = PixelSet::dense(W, H);
    let cfg = RenderConfig::default();
    let out = render_forward(scene, cam, &pixels, pipeline, &cfg);
    let l = loss::evaluate_loss(&out, reference, &pixels, &loss_cfg());
    // Each half comes from the request its caller makes (mapping: scene,
    // tracking: pose), so the finite differences check what they use.
    let backward = |want| render_backward(scene, cam, &pixels, &out, &l.grads, &cfg, want);
    let (sg, _, _) = backward(GradRequest::Scene);
    let (_, pg, _) = backward(GradRequest::Pose);
    (sg, pg)
}

/// Relative-error helper with an absolute floor for tiny gradients.
fn check(fd: f64, analytic: f64, label: &str) {
    let denom = fd.abs().max(analytic.abs()).max(1e-4);
    let rel = (fd - analytic).abs() / denom;
    assert!(
        rel < 0.08,
        "{label}: fd={fd:.6e} analytic={analytic:.6e} rel={rel:.3}"
    );
}

#[test]
fn mean_gradients_match_fd() {
    let scene = test_scene();
    let cam = camera();
    let r = reference();
    let (sg, _) = analytic_grads(&scene, &cam, &r, Pipeline::TileBased);
    let eps = 2e-5;
    for gid in 0..scene.len() {
        let g = sg.get(gid as u32).expect("gradient present");
        for k in 0..3 {
            let mut plus = scene.clone();
            plus.update(gid, |g| g.mean[k] += eps);
            let mut minus = scene.clone();
            minus.update(gid, |g| g.mean[k] -= eps);
            let fd = (scalar_loss(&plus, &cam, &r) - scalar_loss(&minus, &cam, &r)) / (2.0 * eps);
            check(fd, g.mean[k], &format!("gaussian {gid} mean[{k}]"));
        }
    }
}

#[test]
fn color_gradients_match_fd() {
    let scene = test_scene();
    let cam = camera();
    let r = reference();
    let (sg, _) = analytic_grads(&scene, &cam, &r, Pipeline::TileBased);
    let eps = 1e-5;
    for gid in 0..scene.len() {
        let g = sg.get(gid as u32).unwrap();
        for k in 0..3 {
            let mut plus = scene.clone();
            let mut minus = scene.clone();
            match k {
                0 => {
                    plus.update(gid, |g| g.color.x += eps);
                    minus.update(gid, |g| g.color.x -= eps);
                }
                1 => {
                    plus.update(gid, |g| g.color.y += eps);
                    minus.update(gid, |g| g.color.y -= eps);
                }
                _ => {
                    plus.update(gid, |g| g.color.z += eps);
                    minus.update(gid, |g| g.color.z -= eps);
                }
            }
            let fd = (scalar_loss(&plus, &cam, &r) - scalar_loss(&minus, &cam, &r)) / (2.0 * eps);
            let analytic = match k {
                0 => g.color.x,
                1 => g.color.y,
                _ => g.color.z,
            };
            check(fd, analytic, &format!("gaussian {gid} color[{k}]"));
        }
    }
}

#[test]
fn opacity_gradients_match_fd() {
    let scene = test_scene();
    let cam = camera();
    let r = reference();
    let (sg, _) = analytic_grads(&scene, &cam, &r, Pipeline::TileBased);
    let eps = 2e-5;
    for gid in 0..scene.len() {
        let g = sg.get(gid as u32).unwrap();
        let mut plus = scene.clone();
        plus.update(gid, |g| g.opacity_logit += eps);
        let mut minus = scene.clone();
        minus.update(gid, |g| g.opacity_logit -= eps);
        let fd = (scalar_loss(&plus, &cam, &r) - scalar_loss(&minus, &cam, &r)) / (2.0 * eps);
        check(
            fd,
            g.opacity_logit,
            &format!("gaussian {gid} opacity_logit"),
        );
    }
}

#[test]
fn scale_gradients_match_fd() {
    let scene = test_scene();
    let cam = camera();
    let r = reference();
    let (sg, _) = analytic_grads(&scene, &cam, &r, Pipeline::TileBased);
    let eps = 2e-5;
    for gid in 0..scene.len() {
        let g = sg.get(gid as u32).unwrap();
        for k in 0..3 {
            let mut plus = scene.clone();
            plus.update(gid, |g| g.log_scale[k] += eps);
            let mut minus = scene.clone();
            minus.update(gid, |g| g.log_scale[k] -= eps);
            let fd = (scalar_loss(&plus, &cam, &r) - scalar_loss(&minus, &cam, &r)) / (2.0 * eps);
            check(
                fd,
                g.log_scale[k],
                &format!("gaussian {gid} log_scale[{k}]"),
            );
        }
    }
}

#[test]
fn rotation_gradients_match_fd() {
    let scene = test_scene();
    let cam = camera();
    let r = reference();
    let (sg, _) = analytic_grads(&scene, &cam, &r, Pipeline::TileBased);
    let eps = 2e-5;
    for gid in 0..scene.len() {
        let g = sg.get(gid as u32).unwrap();
        for k in 0..4 {
            let mut plus = scene.clone();
            let mut minus = scene.clone();
            plus.update(gid, |g| {
                let mut q = g.rotation.to_array();
                q[k] += eps;
                g.rotation = Quat::from_array(q);
            });
            minus.update(gid, |g| {
                let mut q = g.rotation.to_array();
                q[k] -= eps;
                g.rotation = Quat::from_array(q);
            });
            let fd = (scalar_loss(&plus, &cam, &r) - scalar_loss(&minus, &cam, &r)) / (2.0 * eps);
            check(fd, g.rotation[k], &format!("gaussian {gid} rotation[{k}]"));
        }
    }
}

#[test]
fn pose_translation_gradients_match_fd() {
    let scene = test_scene();
    let cam = camera();
    let r = reference();
    let (_, pg) = analytic_grads(&scene, &cam, &r, Pipeline::TileBased);
    let eps = 2e-5;
    let analytic = pg.xi.to_array();
    for k in 0..3 {
        let mut xi_p = [0.0; 6];
        xi_p[k] = eps;
        let mut xi_m = [0.0; 6];
        xi_m[k] = -eps;
        let cam_p = Camera::new(cam.intrinsics, cam.pose.retract(Se3::from_array(xi_p)));
        let cam_m = Camera::new(cam.intrinsics, cam.pose.retract(Se3::from_array(xi_m)));
        let fd = (scalar_loss(&scene, &cam_p, &r) - scalar_loss(&scene, &cam_m, &r)) / (2.0 * eps);
        check(fd, analytic[k], &format!("pose rho[{k}]"));
    }
}

#[test]
fn pose_rotation_gradients_point_downhill() {
    // Rotation gradients omit the covariance-orientation term, so check the
    // descent property rather than FD equality: stepping along −grad must
    // reduce the loss.
    let scene = test_scene();
    let cam = camera();
    let r = reference();
    // Perturb the camera so the pose gradient is substantial.
    let cam = Camera::new(
        cam.intrinsics,
        cam.pose.retract(Se3::new(
            Vec3::new(0.01, -0.01, 0.005),
            Vec3::new(0.004, 0.006, -0.003),
        )),
    );
    let (_, pg) = analytic_grads(&scene, &cam, &r, Pipeline::TileBased);
    let g = pg.xi;
    assert!(g.norm() > 0.0);
    let base = scalar_loss(&scene, &cam, &r);
    let step = g * (-1e-4 / g.norm());
    let cam2 = Camera::new(cam.intrinsics, cam.pose.retract(step));
    let stepped = scalar_loss(&scene, &cam2, &r);
    assert!(
        stepped < base,
        "descent step must reduce loss: {base} -> {stepped}"
    );
}

#[test]
fn pipelines_agree_on_gradients() {
    let scene = test_scene();
    let cam = camera();
    let r = reference();
    let (sa, pa) = analytic_grads(&scene, &cam, &r, Pipeline::TileBased);
    let (sb, pb) = analytic_grads(&scene, &cam, &r, Pipeline::PixelBased);
    assert_eq!(sa.len(), sb.len());
    for (id, g) in &sa.entries {
        let h = sb.get(*id).unwrap();
        assert!((g.mean - h.mean).norm() < 1e-8);
        assert!((g.log_scale - h.log_scale).norm() < 1e-8);
        assert!((g.color - h.color).norm() < 1e-8);
    }
    assert!((pa.xi.rho - pb.xi.rho).norm() < 1e-8);
    assert!((pa.xi.phi - pb.xi.phi).norm() < 1e-8);
}
