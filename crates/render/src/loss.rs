//! Per-pixel losses and their gradients.
//!
//! The 3DGS-SLAM algorithms train against an L1 photometric loss plus an L1
//! depth loss on valid depth pixels (SplaTAM-style). The loss is evaluated
//! only over the sampled pixel set and normalized by its size, so gradients
//! are comparable across sampling rates.

use crate::pixelset::PixelSet;
use crate::ForwardResult;
use splatonic_math::Vec3;
use splatonic_scene::Frame;

/// Loss weighting configuration.
///
/// # Examples
///
/// ```
/// use splatonic_render::LossConfig;
/// let cfg = LossConfig::default();
/// assert!(cfg.color_weight > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossConfig {
    /// Weight on the L1 color term.
    pub color_weight: f64,
    /// Weight on the L1 depth term.
    pub depth_weight: f64,
    /// Huber knee for the color residual (zero disables smoothing).
    pub huber_delta: f64,
    /// Huber knee for the depth residual in meters. Depth residuals are
    /// metric, so a tighter knee keeps the gradient proportional to the
    /// pose error near convergence.
    pub huber_delta_depth: f64,
}

impl Default for LossConfig {
    fn default() -> Self {
        LossConfig {
            color_weight: 0.5,
            depth_weight: 1.0,
            huber_delta: 0.05,
            huber_delta_depth: 0.01,
        }
    }
}

/// Loss gradient for one sampled pixel.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LossGrad {
    /// ∂L/∂color.
    pub d_color: Vec3,
    /// ∂L/∂depth.
    pub d_depth: f64,
}

/// The evaluated loss plus per-pixel gradients (in pixel-set order).
#[derive(Debug, Clone, PartialEq)]
pub struct LossResult {
    /// Scalar loss value.
    pub value: f64,
    /// Per-pixel gradients aligned with [`PixelSet::iter_all`] order.
    pub grads: Vec<LossGrad>,
}

/// Smoothed sign: `sign(r)` for `|r| > delta`, linear inside.
#[inline]
fn smooth_sign(r: f64, delta: f64) -> f64 {
    if delta <= 0.0 {
        return if r > 0.0 {
            1.0
        } else if r < 0.0 {
            -1.0
        } else {
            0.0
        };
    }
    (r / delta).clamp(-1.0, 1.0)
}

/// Huber penalty matching [`smooth_sign`]'s derivative: `r²/(2δ)` inside the
/// knee, `|r| − δ/2` outside (zero at zero, C¹ at the knee).
#[inline]
fn smooth_abs(r: f64, delta: f64) -> f64 {
    if delta <= 0.0 {
        r.abs()
    } else if r.abs() >= delta {
        r.abs() - 0.5 * delta
    } else {
        0.5 * r * r / delta
    }
}

/// Evaluates the L1 color + L1 depth loss of `forward` against `reference`
/// over the pixels of `pixels`, returning the loss and per-pixel gradients.
///
/// Invalid reference depths (`<= 0`) contribute no depth term.
///
/// # Panics
///
/// Panics if `forward` does not cover exactly the pixels of `pixels`.
pub fn evaluate_loss(
    forward: &ForwardResult,
    reference: &Frame,
    pixels: &PixelSet,
    config: &LossConfig,
) -> LossResult {
    assert_eq!(
        forward.color.len(),
        pixels.len(),
        "forward result does not match the pixel set"
    );
    let n = pixels.len().max(1) as f64;
    let cw = config.color_weight / n;
    let dw = config.depth_weight / n;
    let mut value = 0.0;
    let mut grads = Vec::with_capacity(pixels.len());
    for (i, p) in pixels.iter_all().enumerate() {
        let ref_c = reference.color[(p.x as usize, p.y as usize)];
        let ref_d = reference.depth[(p.x as usize, p.y as usize)];
        let rc = forward.color[i] - ref_c;
        let mut g = LossGrad::default();
        value += cw
            * (smooth_abs(rc.x, config.huber_delta)
                + smooth_abs(rc.y, config.huber_delta)
                + smooth_abs(rc.z, config.huber_delta));
        g.d_color = Vec3::new(
            cw * smooth_sign(rc.x, config.huber_delta),
            cw * smooth_sign(rc.y, config.huber_delta),
            cw * smooth_sign(rc.z, config.huber_delta),
        );
        if ref_d > 0.0 {
            let rd = forward.depth[i] - ref_d;
            value += dw * smooth_abs(rd, config.huber_delta_depth);
            g.d_depth = dw * smooth_sign(rd, config.huber_delta_depth);
        }
        grads.push(g);
    }
    LossResult { value, grads }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::RenderTrace;
    use crate::PixelLists;
    use splatonic_math::Image;

    fn dummy_forward(colors: Vec<Vec3>, depths: Vec<f64>) -> ForwardResult {
        let n = colors.len();
        ForwardResult {
            color: colors,
            depth: depths,
            final_transmittance: vec![1.0; n],
            contributions: PixelLists::from_lists(vec![Vec::new(); n]),
            handoff: crate::Handoff::Pixel(Vec::new()),
            trace: RenderTrace::new(),
        }
    }

    fn frame(w: usize, h: usize, c: Vec3, d: f64) -> Frame {
        Frame::new(Image::filled(w, h, c), Image::filled(w, h, d), 0)
    }

    #[test]
    fn zero_residual_zero_loss() {
        let pixels = PixelSet::dense(2, 2);
        let f = dummy_forward(vec![Vec3::splat(0.5); 4], vec![1.0; 4]);
        let r = frame(2, 2, Vec3::splat(0.5), 1.0);
        let out = evaluate_loss(&f, &r, &pixels, &LossConfig::default());
        assert!(out.value.abs() < 1e-9);
        assert!(out.grads.iter().all(|g| g.d_color.norm() < 1e-9));
    }

    #[test]
    fn positive_residual_positive_gradient() {
        let pixels = PixelSet::dense(1, 1);
        let f = dummy_forward(vec![Vec3::splat(0.9)], vec![2.0]);
        let r = frame(1, 1, Vec3::splat(0.5), 1.0);
        let out = evaluate_loss(&f, &r, &pixels, &LossConfig::default());
        assert!(out.value > 0.0);
        assert!(out.grads[0].d_color.x > 0.0);
        assert!(out.grads[0].d_depth > 0.0);
    }

    #[test]
    fn invalid_depth_has_no_depth_term() {
        let pixels = PixelSet::dense(1, 1);
        let f = dummy_forward(vec![Vec3::ZERO], vec![5.0]);
        let r = frame(1, 1, Vec3::ZERO, 0.0);
        let out = evaluate_loss(&f, &r, &pixels, &LossConfig::default());
        assert_eq!(out.grads[0].d_depth, 0.0);
        assert!(out.value.abs() < 1e-12);
    }

    #[test]
    fn loss_normalized_by_pixel_count() {
        let cfg = LossConfig {
            huber_delta: 0.0,
            huber_delta_depth: 0.0,
            ..LossConfig::default()
        };
        let one = evaluate_loss(
            &dummy_forward(vec![Vec3::splat(1.0)], vec![1.0]),
            &frame(1, 1, Vec3::ZERO, 1.0),
            &PixelSet::dense(1, 1),
            &cfg,
        );
        let four = evaluate_loss(
            &dummy_forward(vec![Vec3::splat(1.0); 4], vec![1.0; 4]),
            &frame(2, 2, Vec3::ZERO, 1.0),
            &PixelSet::dense(2, 2),
            &cfg,
        );
        assert!((one.value - four.value).abs() < 1e-12);
    }

    #[test]
    fn huber_smooths_near_zero() {
        assert_eq!(smooth_sign(1.0, 1e-3), 1.0);
        assert_eq!(smooth_sign(-1.0, 1e-3), -1.0);
        assert!((smooth_sign(5e-4, 1e-3) - 0.5).abs() < 1e-12);
        assert_eq!(smooth_abs(0.0, 1e-3), 0.0);
        // Continuity at the knee: r²/(2δ) = |r| − δ/2 at r = δ.
        let delta = 1e-3;
        assert!((smooth_abs(delta, delta) - 0.5 * delta).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_pixel_set_panics() {
        let pixels = PixelSet::dense(2, 2);
        let f = dummy_forward(vec![Vec3::ZERO], vec![1.0]);
        let r = frame(2, 2, Vec3::ZERO, 1.0);
        let _ = evaluate_loss(&f, &r, &pixels, &LossConfig::default());
    }
}
