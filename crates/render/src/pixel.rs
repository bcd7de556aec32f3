//! The paper's **pixel-based** rendering pipeline (Sec. IV-B, Fig. 13).
//!
//! Forward:
//! 1. *Pixel-level projection with preemptive α-checking* — one pass
//!    (`render/project`): each Gaussian is projected and, at once,
//!    direct-indexes the sampled-pixel grid via its bounding-box corners
//!    (paper Sec. V-C) and α-checks each candidate; only passing pairs
//!    enter the per-pixel intersection lists, and only Gaussians with a
//!    passing pair enter the compact projection
//!    ([`crate::Handoff::Pixel`]).
//! 2. *Per-pixel sorting* — each pixel's list is depth-sorted.
//! 3. *Gaussian-parallel rasterization* — a 32-thread warp co-renders one
//!    pixel: Gaussians are distributed across lanes with no divergence
//!    (every list entry is known to contribute), followed by a color
//!    reduction.
//!
//! Backward re-uses the per-pixel sorted lists and the forward's compact
//! projection, so it projects nothing. Its own part is the walk: pixels in
//! order, a first cross-thread reduction recovering `Γ_i` and the warp
//! steps charged per pixel. The per-pair gradients, the second reduction
//! (per-Gaussian aggregation) and re-projection are the gradient stage it
//! shares with the tile pipeline (`grad::run_backward`).

use crate::grad::{run_backward, ChunkGrads, GradRequest, PoseGrad, SceneGrads};
use crate::kernel::{
    alpha_at, ProjectedGaussian, Projector, RenderConfig, ALPHA_THRESHOLD, PROJECT_CHUNK,
    TRANSMITTANCE_MIN,
};
use crate::loss::LossGrad;
use crate::pixelset::{PixelCoord, PixelSet};
use crate::trace::{bytes, ForwardStats, RenderTrace};
use crate::{ChunkLists, Contribution, ForwardResult, Handoff, PixelLists};
use splatonic_math::{pool, Vec3};
use splatonic_scene::{Camera, GaussianScene};

/// GPU warp width in threads (Gaussian-parallel lanes).
pub const WARP: usize = 32;

/// Fixed fan-out granularities (thread-count independent; see
/// `splatonic_math::pool` for why this matters for determinism).
const RASTER_CHUNK: usize = 128;
const BACKWARD_CHUNK: usize = 128;

/// A per-pixel intersection entry produced by preemptive α-checking.
#[derive(Debug, Clone, Copy)]
struct PixelEntry {
    proj: u32,
    alpha: f64,
    depth: f64,
}

/// Forward pass of the pixel-based pipeline.
pub fn forward(
    scene: &GaussianScene,
    camera: &Camera,
    pixels: &PixelSet,
    config: &RenderConfig,
) -> ForwardResult {
    let _pass = crate::phase::begin("render/pixel_forward");
    let mut trace = RenderTrace::new();
    let f = &mut trace.forward;
    f.gaussians_input = scene.len() as u64;
    f.bytes_read += scene.len() as u64 * bytes::GAUSSIAN;

    let n_out = pixels.len();
    let threads = pool::resolve_threads(config.threads);

    // Pixel-level projection with preemptive α-checking, one fused pass
    // fanned out over fixed chunks of scene Gaussians. Each chunk projects
    // its Gaussians into a chunk-local buffer (`kernel::Projector`, the body
    // `project_scene` runs) and α-checks each one at once, while it is
    // still in cache: the Gaussian direct-indexes its bbox through the
    // pixel set (tile slots, then the cell-indexed pixels without one).
    // A Gaussian enters the render's compact projection only if it keeps at
    // least one pair; its entries name it by its index in the chunk's kept
    // list, and the merge below rebases that index by the chunk's offset in
    // the compact list. The compact list is in scene order, like the full
    // projection, so the `(depth, proj)` tie-break orders every pixel's
    // entries as the full projection's indices would. The chunks' pairs and
    // counter partials are applied in chunk order, which reproduces the
    // sequential push order. A pixel gets at most one entry per Gaussian,
    // so the visit order inside one Gaussian never reaches a per-pixel list.
    //
    // A tile-indexed sample whose tile overlaps the bbox can still lie
    // outside it; such a pair is counted as α-checked (the hardware
    // checks it) but its `exp` is skipped, since it provably fails
    // (`kernel::BBOX_SIGMA`).
    let _project = crate::phase::begin("render/project");
    let projector = Projector::new(scene, camera, config, threads);
    struct ProjectPartial {
        kept: Vec<ProjectedGaussian>,
        entries: Vec<(usize, PixelEntry)>,
        stats: ForwardStats,
    }
    let partials =
        pool::par_chunks_indexed(threads, scene.means(), PROJECT_CHUNK, |_, offset, means| {
            let mut visible = Vec::with_capacity(means.len());
            let culled = projector.project(offset, means.len(), &mut visible);
            let mut part = ProjectPartial {
                kept: Vec::new(),
                entries: Vec::new(),
                stats: ForwardStats {
                    gaussians_projected: visible.len() as u64,
                    gaussians_culled: culled,
                    ..ForwardStats::default()
                },
            };
            for pg in visible {
                let local = part.kept.len() as u32;
                let before = part.entries.len();
                let (lo, hi) = pg.bbox();
                pixels.samples_in_bbox(lo, hi, |out_idx: usize, p: PixelCoord| {
                    part.stats.proj_alpha_checks += 1;
                    let c = p.center();
                    if !pg.bbox_contains(c) {
                        return;
                    }
                    let (alpha, _) = alpha_at(&pg, c);
                    if alpha >= ALPHA_THRESHOLD {
                        part.entries.push((
                            out_idx,
                            PixelEntry {
                                proj: local,
                                alpha,
                                depth: pg.depth,
                            },
                        ));
                    }
                });
                if part.entries.len() > before {
                    part.kept.push(pg);
                }
            }
            part.stats.exp_evals = part.stats.proj_alpha_checks;
            part.stats.proj_pairs_kept = part.entries.len() as u64;
            part
        });
    // Counting sort of the chunks' pairs into one flat array of per-pixel
    // lists: count per pixel, prefix-sum into offsets, then scatter each
    // chunk in chunk order, so every pixel's list is the sequential push
    // order; pixel `i`'s list is `flat[offsets[i]..offsets[i + 1]]`. Each
    // partial is freed once it has been scattered.
    let mut offsets = vec![0usize; n_out + 1];
    let mut n_kept = 0;
    for part in &partials {
        for &(out_idx, _) in &part.entries {
            offsets[out_idx + 1] += 1;
        }
        n_kept += part.kept.len();
    }
    for i in 0..n_out {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor = offsets[..n_out].to_vec();
    let mut flat = vec![
        PixelEntry {
            proj: 0,
            alpha: 0.0,
            depth: 0.0,
        };
        offsets[n_out]
    ];
    let mut projected = Vec::with_capacity(n_kept);
    for part in partials {
        f.merge(&part.stats);
        let base = projected.len() as u32;
        for (out_idx, mut e) in part.entries {
            e.proj += base;
            flat[cursor[out_idx]] = e;
            cursor[out_idx] += 1;
        }
        projected.extend(part.kept);
    }
    drop(_project);
    let lists: Vec<&[PixelEntry]> = offsets.windows(2).map(|w| &flat[w[0]..w[1]]).collect();
    f.bytes_written += f.proj_pairs_kept * bytes::PAIR_ENTRY;
    f.bytes_read += f.proj_pairs_kept * bytes::PAIR_ENTRY;

    // Per-pixel depth sort + Gaussian-parallel rasterization, fanned out
    // over fixed chunks of pixels. A warp co-renders each pixel; all lanes
    // do useful work (no α-checking left, no divergence). Each chunk sorts
    // a scratch copy of its lists and shades its pixels; partial outputs
    // are concatenated in chunk order (= pixel order). Contributions go
    // straight into the chunk's buffer, reserved at the chunk's discovered
    // pair count: early termination only shortens a list, so it never
    // grows.
    struct RasterPartial {
        color: Vec<Vec3>,
        depth: Vec<f64>,
        t_final: Vec<f64>,
        lists: ChunkLists,
        stats: ForwardStats,
    }
    let _raster = crate::phase::begin("render/sort_raster");
    let raster_partials = pool::par_chunks_indexed(threads, &lists, RASTER_CHUNK, |j, _, chunk| {
        let mut part = RasterPartial {
            color: Vec::with_capacity(chunk.len()),
            depth: Vec::with_capacity(chunk.len()),
            t_final: Vec::with_capacity(chunk.len()),
            lists: ChunkLists::with_capacity(chunk.iter().map(|l| l.len()).sum()),
            stats: ForwardStats {
                pixels_shaded: chunk.len() as u64,
                ..ForwardStats::default()
            },
        };
        let mut sorted: Vec<PixelEntry> = Vec::new();
        for (k, list) in chunk.iter().enumerate() {
            sorted.clear();
            sorted.extend_from_slice(list);
            if !sorted.is_empty() {
                part.stats.sort_lists += 1;
                part.stats.sort_elems += sorted.len() as u64;
                // Tie-break equal depths by projection index (ascending
                // scene id), matching the tile pipeline's global sort order.
                sorted.sort_by(|a, b| a.depth.total_cmp(&b.depth).then(a.proj.cmp(&b.proj)));
            }
            let mut t = 1.0;
            let mut c = Vec3::ZERO;
            let mut d = 0.0;
            let mut used = 0usize;
            for e in &sorted {
                if t < TRANSMITTANCE_MIN {
                    break;
                }
                let pg = &projected[e.proj as usize];
                let w = t * e.alpha;
                c += pg.color * w;
                d += pg.depth * w;
                part.lists.push(Contribution {
                    gaussian: pg.id,
                    alpha: e.alpha,
                    transmittance: t,
                });
                t *= 1.0 - e.alpha;
                used += 1;
            }
            part.color.push(c);
            part.depth.push(d);
            part.t_final.push(t);
            part.stats.pairs_integrated += used as u64;
            // Warp accounting: ceil(used/32) integration steps with every
            // resident lane doing useful work, plus one reduction step per
            // warp of lanes (the color/depth tree reduction) — the same
            // two-pass model the backward trace uses.
            let steps = 2 * used.div_ceil(WARP);
            part.stats.warp_steps += steps as u64;
            part.stats.warp_active += 2 * used as u64;
            part.stats.bytes_read += used as u64 * bytes::PROJECTED;
            part.stats.bytes_written += bytes::PIXEL_OUT;
            part.lists.finish(j * RASTER_CHUNK + k);
        }
        part
    });

    let mut color = Vec::with_capacity(n_out);
    let mut depth = Vec::with_capacity(n_out);
    let mut t_final = Vec::with_capacity(n_out);
    let mut chunk_lists = Vec::with_capacity(raster_partials.len());
    for part in raster_partials {
        f.merge(&part.stats);
        color.extend(part.color);
        depth.extend(part.depth);
        t_final.extend(part.t_final);
        chunk_lists.push(part.lists);
    }
    let contributions = PixelLists::from_chunks(n_out, chunk_lists);
    for list in contributions.iter() {
        f.pixel_list_len.push(list.len() as f64);
    }

    ForwardResult {
        color,
        depth,
        final_transmittance: t_final,
        contributions,
        handoff: Handoff::Pixel(projected),
        trace,
    }
}

/// Backward pass of the pixel-based pipeline.
///
/// Re-uses the per-pixel sorted lists (`contributions`) and the compact
/// projection ([`crate::Handoff::Pixel`]) of the forward pass. The walk
/// visits the pixels in order over fixed chunks and charges the first
/// cross-thread reduction (recovering `Γ_i` per Gaussian) and the warp
/// steps to the trace; the lane-parallel per-pair gradients, the second
/// reduction (aggregation) and re-projection are the shared
/// [`run_backward`]'s. Re-projection computes only the gradient half `want`
/// asks for.
///
/// # Panics
///
/// Panics when `loss_grads` does not cover `pixels`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn backward(
    scene: &GaussianScene,
    camera: &Camera,
    pixels: &PixelSet,
    contributions: &PixelLists,
    projected: &[ProjectedGaussian],
    loss_grads: &[LossGrad],
    config: &RenderConfig,
    want: GradRequest,
) -> (SceneGrads, PoseGrad, RenderTrace) {
    let _pass = crate::phase::begin("render/pixel_backward");
    let all_pixels: Vec<PixelCoord> = pixels.iter_all().collect();
    let walk = |offset: usize, chunk: &[PixelCoord], _: &mut (), g: &mut ChunkGrads<'_>| {
        for (k, &p) in chunk.iter().enumerate() {
            let out_idx = offset + k;
            let n = contributions[out_idx].len() as u64;
            if n == 0 {
                continue;
            }
            let b = &mut g.stats;
            // Recompute α_i per lane (exp), then the Γ reduction (first
            // cross-thread reduction introduced by pixel-based rendering).
            b.exp_evals += n;
            b.reduction_ops += n;
            // Lane-parallel gradient computation: all lanes active.
            b.warp_steps += 2 * n.div_ceil(WARP as u64); // α/Γ pass + gradient pass
            b.warp_active += 2 * n;
            b.bytes_read += n * (bytes::PAIR_ENTRY + bytes::PROJECTED);
            let pairs = g.pixel(p, out_idx);
            // Second reduction: aggregation of partial gradients.
            g.stats.reduction_ops += pairs;
        }
    };
    run_backward(
        scene,
        camera,
        pixels,
        contributions,
        projected,
        loss_grads,
        config,
        want,
        &all_pixels,
        BACKWARD_CHUNK,
        walk,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile;
    use splatonic_math::{Pose, Quat};
    use splatonic_scene::{Gaussian, Intrinsics, WorldBuilder};

    fn test_world() -> (GaussianScene, Camera) {
        let world = WorldBuilder::new(11)
            .gaussian_spacing(0.35)
            .furniture(2)
            .build();
        let cam = Camera::look_at(
            Intrinsics::with_fov(96, 72, 1.2),
            Vec3::new(0.4, -0.1, -0.6),
            Vec3::new(0.0, 0.0, 2.0),
            Vec3::Y,
        );
        (world.scene, cam)
    }

    fn sparse_set(w: usize, h: usize, tile: usize) -> PixelSet {
        PixelSet::from_tile_chooser(w, h, tile, |_, _, x0, y0, tw, th| {
            Some(PixelCoord::new((x0 + tw / 2) as u16, (y0 + th / 2) as u16))
        })
    }

    #[test]
    fn matches_tile_pipeline_dense() {
        let (scene, cam) = test_world();
        let cfg = RenderConfig::default();
        let pixels = PixelSet::dense(96, 72);
        let a = tile::forward(&scene, &cam, &pixels, &cfg);
        let b = forward(&scene, &cam, &pixels, &cfg);
        let mut max_err: f64 = 0.0;
        for (ca, cb) in a.color.iter().zip(b.color.iter()) {
            max_err = max_err.max((*ca - *cb).abs().max_component());
        }
        assert!(
            max_err < 1e-6,
            "pipelines must produce the same image; max err {max_err}"
        );
        for (da, db) in a.depth.iter().zip(b.depth.iter()) {
            assert!((da - db).abs() < 1e-6);
        }
    }

    #[test]
    fn matches_tile_pipeline_sparse() {
        let (scene, cam) = test_world();
        let cfg = RenderConfig::default();
        let pixels = sparse_set(96, 72, 16);
        let a = tile::forward(&scene, &cam, &pixels, &cfg);
        let b = forward(&scene, &cam, &pixels, &cfg);
        for (ca, cb) in a.color.iter().zip(b.color.iter()) {
            assert!((*ca - *cb).abs().max_component() < 1e-6);
        }
    }

    #[test]
    fn no_raster_alpha_checks() {
        let (scene, cam) = test_world();
        let out = forward(
            &scene,
            &cam,
            &sparse_set(96, 72, 16),
            &RenderConfig::default(),
        );
        assert_eq!(out.trace.forward.raster_alpha_checks, 0);
        assert!(out.trace.forward.proj_alpha_checks > 0);
    }

    #[test]
    fn bottleneck_shifts_to_projection() {
        // Preemptive α-checking moves the exp work into projection: the
        // sorted lists and rasterization shrink, while projection grows —
        // the bottleneck shift of paper Sec. IV-C / Fig. 14.
        let (scene, cam) = test_world();
        let cfg = RenderConfig::default();
        let pixels = sparse_set(96, 72, 16);
        let t = tile::forward(&scene, &cam, &pixels, &cfg);
        let p = forward(&scene, &cam, &pixels, &cfg);
        assert!(
            p.trace.forward.sort_elems < t.trace.forward.sort_elems,
            "per-pixel sorts ({}) must be smaller than per-tile sorts ({})",
            p.trace.forward.sort_elems,
            t.trace.forward.sort_elems
        );
        assert!(p.trace.forward.proj_alpha_checks > 0);
        assert_eq!(p.trace.forward.raster_alpha_checks, 0);
    }

    #[test]
    fn fewer_warp_steps_than_tile_sparse() {
        // Gaussian-parallel rasterization issues far fewer warp-steps than
        // the sparse tile-based schedule, at higher per-step occupancy.
        let (scene, cam) = test_world();
        let cfg = RenderConfig::default();
        let pixels = sparse_set(96, 72, 16);
        let t = tile::forward(&scene, &cam, &pixels, &cfg);
        let p = forward(&scene, &cam, &pixels, &cfg);
        assert!(
            p.trace.forward.warp_steps * 4 < t.trace.forward.warp_steps,
            "pixel-based {} vs tile-based {} warp-steps",
            p.trace.forward.warp_steps,
            t.trace.forward.warp_steps
        );
        assert!(
            p.trace.forward.warp_utilization() > t.trace.forward.warp_utilization(),
            "occupancy must improve: {} vs {}",
            p.trace.forward.warp_utilization(),
            t.trace.forward.warp_utilization()
        );
    }

    #[test]
    fn warp_accounting_charges_integration_and_reduction() {
        // Each shaded pixel charges ceil(used/32) integration steps plus
        // one reduction step per warp of lanes — both passes fully
        // occupied. Cross-check totals against the tile pipeline on the
        // dense set, where both schedules integrate the same pairs.
        let (scene, cam) = test_world();
        let cfg = RenderConfig::default();
        let pixels = PixelSet::dense(96, 72);
        let t = tile::forward(&scene, &cam, &pixels, &cfg);
        let p = forward(&scene, &cam, &pixels, &cfg);
        assert_eq!(
            p.trace.forward.pairs_integrated, t.trace.forward.pairs_integrated,
            "dense renders must integrate identical pair counts"
        );
        assert_eq!(
            p.trace.forward.warp_active,
            2 * p.trace.forward.pairs_integrated,
            "every integrated pair is active in both passes"
        );
        let expected_steps: u64 = p
            .contributions
            .iter()
            .map(|c| 2 * c.len().div_ceil(WARP) as u64)
            .sum();
        assert_eq!(p.trace.forward.warp_steps, expected_steps);
    }

    #[test]
    fn extras_are_rendered() {
        let (scene, cam) = test_world();
        let cfg = RenderConfig::default();
        let mut with_extra = sparse_set(96, 72, 16);
        with_extra.add_extra([PixelCoord::new(48, 36)]);
        let out = forward(&scene, &cam, &with_extra, &cfg);
        // Compare the extra pixel against a dense render.
        let dense = forward(&scene, &cam, &PixelSet::dense(96, 72), &cfg);
        let extra_color = out.color[with_extra.len() - 1];
        let dense_color = dense.color[36 * 96 + 48];
        assert!((extra_color - dense_color).abs().max_component() < 1e-6);
    }

    #[test]
    fn backward_matches_tile_backward() {
        let (scene, cam) = test_world();
        let cfg = RenderConfig::default();
        let pixels = sparse_set(96, 72, 8);
        let fa = tile::forward(&scene, &cam, &pixels, &cfg);
        let fb = forward(&scene, &cam, &pixels, &cfg);
        let lg: Vec<LossGrad> = (0..pixels.len())
            .map(|i| LossGrad {
                d_color: Vec3::new(0.1, -0.2, 0.3) * ((i % 5) as f64 - 2.0),
                d_depth: 0.05 * ((i % 3) as f64 - 1.0),
            })
            .collect();
        let (ga, pa, _) =
            crate::render_backward(&scene, &cam, &pixels, &fa, &lg, &cfg, GradRequest::Both);
        let (gb, pb, _) =
            crate::render_backward(&scene, &cam, &pixels, &fb, &lg, &cfg, GradRequest::Both);
        assert_eq!(ga.len(), gb.len());
        // Pose gradients must agree across schedules.
        let d = (pa.xi.rho - pb.xi.rho).norm() + (pa.xi.phi - pb.xi.phi).norm();
        assert!(d < 1e-9, "pose grads differ by {d}");
        for (id, g) in &ga.entries {
            let h = gb.get(*id).expect("gaussian missing from pixel backward");
            assert!((g.mean - h.mean).norm() < 1e-9);
            assert!((g.color - h.color).norm() < 1e-9);
            assert!((g.opacity_logit - h.opacity_logit).abs() < 1e-9);
        }
    }

    #[test]
    fn first_reduction_counted() {
        let (scene, cam) = test_world();
        let cfg = RenderConfig::default();
        let pixels = sparse_set(96, 72, 16);
        let f = forward(&scene, &cam, &pixels, &cfg);
        let lg = vec![
            LossGrad {
                d_color: Vec3::splat(1.0),
                d_depth: 0.0
            };
            pixels.len()
        ];
        let (_, _, trace) =
            crate::render_backward(&scene, &cam, &pixels, &f, &lg, &cfg, GradRequest::Both);
        assert!(trace.backward.reduction_ops > 0);
        assert!(
            trace.backward.alpha_checks == 0,
            "no α-checks in reverse rasterization"
        );
    }

    #[test]
    fn single_gaussian_center_alpha() {
        // Sanity: one Gaussian straight ahead gives α ≈ opacity at center.
        let mut scene = GaussianScene::new();
        scene.push(Gaussian::new(
            Vec3::new(0.0, 0.0, 2.0),
            Vec3::splat(0.2),
            Quat::IDENTITY,
            0.9,
            Vec3::new(1.0, 1.0, 1.0),
        ));
        let cam = Camera::new(Intrinsics::with_fov(33, 33, 1.0), Pose::identity());
        let pixels = PixelSet::from_pixels(33, 33, vec![PixelCoord::new(16, 16)]);
        let out = forward(&scene, &cam, &pixels, &RenderConfig::default());
        assert_eq!(out.contributions[0].len(), 1);
        assert!((out.contributions[0][0].alpha - 0.9).abs() < 0.01);
        assert!((out.color[0].x - 0.9).abs() < 0.02);
    }
}
