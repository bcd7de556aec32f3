//! Opacity/scale-aware level-of-detail decimation for [`GaussianScene`]
//! (DESIGN.md §17).
//!
//! A Gaussian's screen contribution is bounded by its opacity times its
//! footprint area, so the pass ranks Gaussians by the **contribution
//! score** `sigmoid(opacity_logit) · exp(2 · mean(log_scale))` — natural
//! opacity times the squared geometric-mean scale (an area proxy that is
//! rotation-invariant and cheap to compute from the stored log-scales) —
//! and keeps the top `budget` of them. Ties break by index, so the
//! priority order is fully deterministic: the same scene and budget always
//! keep exactly the same Gaussians, in their original order.
//!
//! Runs on a finished map only; the SLAM loop never decimates.

use crate::gaussian::{sigmoid, GaussianScene};

/// Outcome of a [`decimate`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LodStats {
    /// Gaussians remaining after the pass.
    pub kept: usize,
    /// Gaussians removed by the pass.
    pub pruned: usize,
}

/// Contribution score of one Gaussian: natural opacity times the squared
/// geometric mean of its per-axis scales. Higher scores survive
/// decimation longer.
pub fn contribution_score(log_scale: splatonic_math::Vec3, opacity_logit: f64) -> f64 {
    let mean_log_scale = (log_scale.x + log_scale.y + log_scale.z) / 3.0;
    sigmoid(opacity_logit) * (2.0 * mean_log_scale).exp()
}

/// Decimates `scene` in place to at most `budget` Gaussians, keeping the
/// top-`budget` by [`contribution_score`] (ties broken by index) in their
/// original order. Returns how many were kept and pruned.
///
/// A scene already within budget is untouched — no mutation, no revision
/// bump, so downstream projection/sort caches stay warm.
pub fn decimate(scene: &mut GaussianScene, budget: usize) -> LodStats {
    let n = scene.len();
    if n <= budget {
        return LodStats { kept: n, pruned: 0 };
    }
    let scales = scene.log_scales();
    let logits = scene.opacity_logits();
    let mut order: Vec<usize> = (0..n).collect();
    // Sort by score descending; `total_cmp` keeps the order total even for
    // degenerate scores, and the index tiebreak makes it deterministic.
    order.sort_by(|&a, &b| {
        contribution_score(scales[b], logits[b])
            .total_cmp(&contribution_score(scales[a], logits[a]))
            .then(a.cmp(&b))
    });
    let mut keep = vec![false; n];
    for &i in order.iter().take(budget) {
        keep[i] = true;
    }
    let mut idx = 0;
    scene.retain(|_| {
        let k = keep[idx];
        idx += 1;
        k
    });
    LodStats {
        kept: budget,
        pruned: n - budget,
    }
}

/// Decimates to a fraction of the current size: `keep_fraction` in
/// `[0, 1]` is rounded to the nearest whole budget. Convenience wrapper
/// over [`decimate`] for callers that scale with scene size.
pub fn decimate_fraction(scene: &mut GaussianScene, keep_fraction: f64) -> LodStats {
    let budget = (scene.len() as f64 * keep_fraction.clamp(0.0, 1.0)).round() as usize;
    decimate(scene, budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gaussian::Gaussian;
    use splatonic_math::{Quat, Vec3};

    fn scene_with_scores(opacities: &[f64]) -> GaussianScene {
        let mut scene = GaussianScene::new();
        for (i, &op) in opacities.iter().enumerate() {
            scene.push(Gaussian::new(
                Vec3::new(i as f64, 0.0, 2.0),
                Vec3::splat(0.1),
                Quat::IDENTITY,
                op,
                Vec3::splat(0.5),
            ));
        }
        scene
    }

    #[test]
    fn keeps_top_k_by_score_in_original_order() {
        let mut scene = scene_with_scores(&[0.1, 0.9, 0.5, 0.8, 0.2]);
        let stats = decimate(&mut scene, 3);
        assert_eq!(stats, LodStats { kept: 3, pruned: 2 });
        // Survivors are indices 1, 2, 3 (opacities 0.9, 0.5, 0.8), kept in
        // original order — means encode the original index.
        let xs: Vec<f64> = scene.means().iter().map(|m| m.x).collect();
        assert_eq!(xs, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn larger_scale_outranks_at_equal_opacity() {
        let mut scene = GaussianScene::new();
        for s in [0.05, 0.3, 0.1] {
            scene.push(Gaussian::new(
                Vec3::new(s, 0.0, 2.0),
                Vec3::splat(s),
                Quat::IDENTITY,
                0.5,
                Vec3::splat(0.5),
            ));
        }
        decimate(&mut scene, 1);
        assert_eq!(scene.len(), 1);
        assert!((scene.means()[0].x - 0.3).abs() < 1e-12);
    }

    #[test]
    fn within_budget_is_a_no_op_without_revision_bump() {
        let mut scene = scene_with_scores(&[0.5, 0.6]);
        let rev = scene.revision();
        let stats = decimate(&mut scene, 2);
        assert_eq!(stats, LodStats { kept: 2, pruned: 0 });
        assert_eq!(scene.revision(), rev, "no-op must not invalidate caches");
        assert_eq!(decimate(&mut scene, 10).pruned, 0);
    }

    #[test]
    fn deterministic_with_tied_scores() {
        let mut a = scene_with_scores(&[0.5; 7]);
        let mut b = scene_with_scores(&[0.5; 7]);
        decimate(&mut a, 3);
        decimate(&mut b, 3);
        let xs = |s: &GaussianScene| s.means().iter().map(|m| m.x).collect::<Vec<_>>();
        assert_eq!(xs(&a), xs(&b));
        // Ties break by index: the first 3 survive.
        assert_eq!(xs(&a), vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn zero_budget_empties_the_scene() {
        let mut scene = scene_with_scores(&[0.5, 0.6, 0.7]);
        let stats = decimate(&mut scene, 0);
        assert_eq!(stats.pruned, 3);
        assert!(scene.is_empty());
    }

    #[test]
    fn fraction_rounds_to_nearest_budget() {
        let mut scene = scene_with_scores(&[0.1, 0.2, 0.3, 0.4, 0.5]);
        let stats = decimate_fraction(&mut scene, 0.5);
        // 5 × 0.5 = 2.5 → rounds to 3 (round half away from zero).
        assert_eq!(stats.kept, 3);
        assert_eq!(scene.len(), 3);
        assert_eq!(decimate_fraction(&mut scene, 2.0).pruned, 0);
    }

    #[test]
    fn score_orders_by_opacity_and_area() {
        let lo = contribution_score(Vec3::splat(-2.0), -1.0);
        let hi_op = contribution_score(Vec3::splat(-2.0), 1.0);
        let hi_area = contribution_score(Vec3::splat(-1.0), -1.0);
        assert!(hi_op > lo);
        assert!(hi_area > lo);
    }
}
