//! The paper's **pixel-based** rendering pipeline (Sec. IV-B, Fig. 13).
//!
//! Forward:
//! 1. *Pixel-level projection with preemptive α-checking* — each projected
//!    Gaussian direct-indexes the sampled-pixel grid via its bounding-box
//!    corners (paper Sec. V-C) and α-checks each candidate; only passing
//!    pairs enter the per-pixel intersection lists.
//! 2. *Per-pixel sorting* — each pixel's list is depth-sorted.
//! 3. *Gaussian-parallel rasterization* — a 32-thread warp co-renders one
//!    pixel: Gaussians are distributed across lanes with no divergence
//!    (every list entry is known to contribute), followed by a color
//!    reduction.
//!
//! Backward re-uses the per-pixel sorted lists: a first cross-thread
//! reduction recovers `Γ_i`, per-pair gradients are computed in parallel,
//! and a second reduction aggregates them per Gaussian.

use crate::grad::{pixel_backward, reproject, CamGradAccumulator, PoseGrad, SceneGrads};
use crate::kernel::{alpha_at, ProjectedGaussian, RenderConfig};
use crate::loss::LossGrad;
use crate::pixelset::{PixelCoord, PixelSet};
use crate::projcache::project_scene_cached;
use crate::simd::{self, ProjectedSoA};
use crate::trace::{bytes, RenderTrace};
use crate::{Contribution, ForwardResult};
use splatonic_math::{pool, Vec3};
use splatonic_scene::{Camera, GaussianScene};
use std::sync::Mutex;

/// GPU warp width in threads (Gaussian-parallel lanes).
pub const WARP: usize = 32;

/// Fixed fan-out granularities (thread-count independent; see
/// `splatonic_math::pool` for why this matters for determinism).
const PROJ_CHECK_CHUNK: usize = 256;
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

    let (projected_shared, culled) = project_scene_cached(scene, camera, config);
    let projected: &[ProjectedGaussian] = &projected_shared;
    f.gaussians_culled = culled;
    f.gaussians_projected = projected.len() as u64;

    let n_out = pixels.len();
    let mut lists: Vec<Vec<PixelEntry>> = vec![Vec::new(); n_out];
    let threads = pool::resolve_threads(config.threads);
    // SoA view for the vector kernels, gathered once per pass. The SIMD
    // paths below are bit-identical to the scalar ones (see `simd`), so the
    // dispatch never changes output — only the instruction mix.
    let soa = (config.kernels.simd_active()
        && crate::simd::soa_pays_off(pixels.len(), projected.len()))
    .then(|| {
        let _p = crate::phase::begin("render/soa_build");
        ProjectedSoA::build(projected)
    });
    let soa = soa.as_ref();
    let simd = soa.is_some();

    // Gaussian-major discovery, the only walk: pixel-level projection +
    // preemptive α-checking, fanned out over fixed chunks of projected
    // Gaussians. Each Gaussian direct-indexes its bbox through the pixel
    // set (tile slots, then the cell-indexed pixels without one). Each chunk
    // emits its passing (pixel, entry) pairs and counter partials; the merge
    // below applies them in chunk order, which reproduces the sequential
    // push order. A pixel gets at most one entry per Gaussian, so the visit
    // order inside one Gaussian never reaches a per-pixel list.
    //
    // A tile-indexed sample whose tile overlaps the bbox can still lie
    // outside it; such a pair is counted as α-checked (the hardware
    // checks it) but its `exp` is skipped, since it provably fails.
    let _discover = crate::phase::begin("render/discover_exhaustive");
    let prereject = config.bbox_prereject();
    struct ProjCheckPartial {
        entries: Vec<(usize, PixelEntry)>,
        candidates: Vec<u32>,
        alpha_checks: u64,
        pairs_kept: u64,
    }
    let proj_partials =
        pool::par_chunks_indexed(threads, projected, PROJ_CHECK_CHUNK, |_, offset, chunk| {
            let mut part = ProjCheckPartial {
                entries: Vec::new(),
                candidates: Vec::with_capacity(chunk.len()),
                alpha_checks: 0,
                pairs_kept: 0,
            };
            // SIMD scratch: candidate pixel indices and centers per
            // Gaussian, α-checked in lane batches after collection.
            let mut idx_scratch: Vec<usize> = Vec::new();
            let mut px_scratch: Vec<f64> = Vec::new();
            let mut py_scratch: Vec<f64> = Vec::new();
            let mut alpha_scratch: Vec<f64> = Vec::new();
            for (k, pg) in chunk.iter().enumerate() {
                let pi = offset + k;
                let (lo, hi) = pg.bbox();
                let mut candidates = 0u32;
                if simd {
                    idx_scratch.clear();
                    px_scratch.clear();
                    py_scratch.clear();
                    let collect = |out_idx: usize, p: PixelCoord| {
                        candidates += 1;
                        part.alpha_checks += 1;
                        let c = p.center();
                        if prereject && !pg.bbox_contains(c) {
                            return;
                        }
                        idx_scratch.push(out_idx);
                        px_scratch.push(c.x);
                        py_scratch.push(c.y);
                    };
                    pixels.samples_in_bbox(lo, hi, collect);
                    alpha_scratch.clear();
                    simd::alpha_batch_gaussian(
                        pg,
                        &px_scratch,
                        &py_scratch,
                        config,
                        &mut alpha_scratch,
                    );
                    for (j, &alpha) in alpha_scratch.iter().enumerate() {
                        if alpha >= config.alpha_threshold {
                            part.pairs_kept += 1;
                            part.entries.push((
                                idx_scratch[j],
                                PixelEntry {
                                    proj: pi as u32,
                                    alpha,
                                    depth: pg.depth,
                                },
                            ));
                        }
                    }
                } else {
                    let check = |out_idx: usize, p: PixelCoord| {
                        candidates += 1;
                        part.alpha_checks += 1;
                        let c = p.center();
                        if prereject && !pg.bbox_contains(c) {
                            return;
                        }
                        let (alpha, _) = alpha_at(pg, c, config);
                        if alpha >= config.alpha_threshold {
                            part.pairs_kept += 1;
                            part.entries.push((
                                out_idx,
                                PixelEntry {
                                    proj: pi as u32,
                                    alpha,
                                    depth: pg.depth,
                                },
                            ));
                        }
                    };
                    pixels.samples_in_bbox(lo, hi, check);
                }
                part.candidates.push(candidates);
            }
            part
        });
    for part in proj_partials {
        f.proj_alpha_checks += part.alpha_checks;
        f.exp_evals += part.alpha_checks;
        f.proj_pairs_kept += part.pairs_kept;
        for (out_idx, e) in part.entries {
            lists[out_idx].push(e);
        }
        trace.proj_candidates.extend(part.candidates);
    }
    f.bytes_written += f.proj_pairs_kept * bytes::PAIR_ENTRY;
    f.bytes_read += f.proj_pairs_kept * bytes::PAIR_ENTRY;

    // Per-pixel depth sort + Gaussian-parallel rasterization, fanned out
    // over fixed chunks of pixels. A warp co-renders each pixel; all lanes
    // do useful work (no α-checking left, no divergence). Each chunk sorts
    // a scratch copy of its lists and shades its pixels; partial outputs
    // are concatenated in chunk order (= pixel order).
    struct RasterPartial {
        color: Vec<Vec3>,
        depth: Vec<f64>,
        t_final: Vec<f64>,
        contribs: Vec<Vec<Contribution>>,
        sort_lists: u64,
        sort_elems: u64,
        pairs_integrated: u64,
        warp_steps: u64,
        warp_active: u64,
        bytes_read: u64,
        bytes_written: u64,
    }
    let _raster = crate::phase::begin("render/sort_raster");
    let raster_partials = pool::par_chunks_indexed(threads, &lists, RASTER_CHUNK, |_, _, chunk| {
        let mut part = RasterPartial {
            color: Vec::with_capacity(chunk.len()),
            depth: Vec::with_capacity(chunk.len()),
            t_final: Vec::with_capacity(chunk.len()),
            contribs: Vec::with_capacity(chunk.len()),
            sort_lists: 0,
            sort_elems: 0,
            pairs_integrated: 0,
            warp_steps: 0,
            warp_active: 0,
            bytes_read: 0,
            bytes_written: 0,
        };
        let mut sorted: Vec<PixelEntry> = Vec::new();
        // SoA scratch for the vector composite: the sorted entry list split
        // into parallel projection-index / α arrays.
        let mut proj_scratch: Vec<u32> = Vec::new();
        let mut alpha_scratch: Vec<f64> = Vec::new();
        for list in chunk {
            sorted.clear();
            sorted.extend_from_slice(list);
            if !sorted.is_empty() {
                part.sort_lists += 1;
                part.sort_elems += sorted.len() as u64;
                // Tie-break equal depths by projection index (ascending
                // scene id), matching the tile pipeline's global sort order.
                sorted.sort_by(|a, b| a.depth.total_cmp(&b.depth).then(a.proj.cmp(&b.proj)));
            }
            let mut contribs = Vec::new();
            let (c, d, t, used) = if let Some(soa) = soa {
                proj_scratch.clear();
                alpha_scratch.clear();
                for e in &sorted {
                    proj_scratch.push(e.proj);
                    alpha_scratch.push(e.alpha);
                }
                let (acc, t, used) = simd::composite_pixel(
                    &proj_scratch,
                    &alpha_scratch,
                    soa,
                    config.transmittance_min,
                    &mut contribs,
                );
                (Vec3::new(acc[0], acc[1], acc[2]), acc[3], t, used)
            } else {
                let mut t = 1.0;
                let mut c = Vec3::ZERO;
                let mut d = 0.0;
                let mut used = 0usize;
                for e in &sorted {
                    if t < config.transmittance_min {
                        break;
                    }
                    let pg = &projected[e.proj as usize];
                    let w = t * e.alpha;
                    c += pg.color * w;
                    d += pg.depth * w;
                    contribs.push(Contribution {
                        gaussian: pg.id,
                        alpha: e.alpha,
                        transmittance: t,
                    });
                    t *= 1.0 - e.alpha;
                    used += 1;
                }
                (c, d, t, used)
            };
            part.color.push(c + config.background * t);
            part.depth.push(d);
            part.t_final.push(t);
            part.pairs_integrated += used as u64;
            // Warp accounting: ceil(used/32) integration steps with every
            // resident lane doing useful work, plus one reduction step per
            // warp of lanes (the color/depth tree reduction) — the same
            // two-pass model the backward trace uses.
            let steps = 2 * used.div_ceil(WARP);
            part.warp_steps += steps as u64;
            part.warp_active += 2 * used as u64;
            part.bytes_read += used as u64 * bytes::PROJECTED;
            part.bytes_written += bytes::PIXEL_OUT;
            part.contribs.push(contribs);
        }
        part
    });

    let mut color = Vec::with_capacity(n_out);
    let mut depth = Vec::with_capacity(n_out);
    let mut t_final = Vec::with_capacity(n_out);
    let mut contributions: Vec<Vec<Contribution>> = Vec::with_capacity(n_out);
    for part in raster_partials {
        f.sort_lists += part.sort_lists;
        f.sort_elems += part.sort_elems;
        f.pairs_integrated += part.pairs_integrated;
        f.pixels_shaded += part.color.len() as u64;
        f.warp_steps += part.warp_steps;
        f.warp_active += part.warp_active;
        f.bytes_read += part.bytes_read;
        f.bytes_written += part.bytes_written;
        for contribs in &part.contribs {
            f.pixel_list_len.push(contribs.len() as f64);
            trace.pixel_lists.push(contribs.len() as u32);
        }
        color.extend(part.color);
        depth.extend(part.depth);
        t_final.extend(part.t_final);
        contributions.extend(part.contribs);
    }

    ForwardResult {
        color,
        depth,
        final_transmittance: t_final,
        contributions,
        trace,
    }
}

/// Backward pass of the pixel-based pipeline.
///
/// Re-uses the per-pixel sorted lists from the forward pass. The first
/// cross-thread reduction (recovering `Γ_i` per Gaussian) is charged to the
/// trace; the partial-gradient computation is lane-parallel; the second
/// reduction is the aggregation stage.
pub fn backward(
    scene: &GaussianScene,
    camera: &Camera,
    pixels: &PixelSet,
    forward_result: &ForwardResult,
    loss_grads: &[LossGrad],
    config: &RenderConfig,
) -> (SceneGrads, PoseGrad, RenderTrace) {
    assert_eq!(
        loss_grads.len(),
        pixels.len(),
        "loss gradients must cover the pixel set"
    );
    let _pass = crate::phase::begin("render/pixel_backward");
    let mut trace = RenderTrace::new();
    let (projected_shared, _) = project_scene_cached(scene, camera, config);
    let projected: &[ProjectedGaussian] = &projected_shared;
    let mut proj_of_id: Vec<u32> = vec![u32::MAX; scene.len()];
    for (pi, pg) in projected.iter().enumerate() {
        proj_of_id[pg.id as usize] = pi as u32;
    }
    let lookup = |id: u32| projected[proj_of_id[id as usize] as usize];
    // SoA view for the vector backward kernel (bit-identical to `lookup` +
    // `pixel_backward`; see `simd`).
    let soa = (config.kernels.simd_active()
        && crate::simd::soa_pays_off(pixels.len(), projected.len()))
    .then(|| {
        let _p = crate::phase::begin("render/soa_build");
        ProjectedSoA::build(projected)
    });
    let soa = soa.as_ref();

    // Per-pair gradients, fanned out over fixed chunks of pixels. Each
    // chunk accumulates into a private accumulator (recycled through a
    // small pool) and extracts its per-Gaussian partials in first-touch
    // order; the merge below folds them into the shared accumulator in
    // chunk order, so the aggregation is identical for every worker count.
    let threads = pool::resolve_threads(config.threads);
    let all_pixels: Vec<PixelCoord> = pixels.iter_all().collect();
    let acc_pool: Mutex<Vec<CamGradAccumulator>> = Mutex::new(Vec::new());
    #[derive(Default)]
    struct BackwardPartial {
        entries: Vec<(u32, crate::grad::CamGrad)>,
        exp_evals: u64,
        reduction_ops: u64,
        warp_steps: u64,
        warp_active: u64,
        pairs_grad: u64,
        atomic_adds: u64,
        bytes_read: u64,
        bytes_written: u64,
    }
    let _accum = crate::phase::begin("render/backward_accum");
    let partials =
        pool::par_chunks_indexed(threads, &all_pixels, BACKWARD_CHUNK, |_, offset, chunk| {
            let mut acc = acc_pool
                .lock()
                .unwrap()
                .pop()
                .unwrap_or_else(|| CamGradAccumulator::new(scene.len()));
            acc.reset(scene.len());
            let mut part = BackwardPartial::default();
            for (k, p) in chunk.iter().enumerate() {
                let out_idx = offset + k;
                let contribs = &forward_result.contributions[out_idx];
                if contribs.is_empty() {
                    continue;
                }
                let n = contribs.len() as u64;
                // Recompute α_i per lane (exp), then the Γ reduction (first
                // cross-thread reduction introduced by pixel-based rendering).
                part.exp_evals += n;
                part.reduction_ops += n;
                // Lane-parallel gradient computation: all lanes active.
                let steps = (contribs.len().div_ceil(WARP)) as u64;
                part.warp_steps += 2 * steps; // α/Γ pass + gradient pass
                part.warp_active += 2 * n;
                part.bytes_read += n * (bytes::PAIR_ENTRY + bytes::PROJECTED);
                let counts = if let Some(soa) = soa {
                    simd::pixel_backward_simd(
                        p.center(),
                        contribs,
                        soa,
                        &proj_of_id,
                        loss_grads[out_idx].d_color,
                        loss_grads[out_idx].d_depth,
                        config,
                        config.background,
                        &mut acc,
                    )
                } else {
                    pixel_backward(
                        p.center(),
                        contribs,
                        &lookup,
                        loss_grads[out_idx].d_color,
                        loss_grads[out_idx].d_depth,
                        config,
                        config.background,
                        &mut acc,
                    )
                };
                part.pairs_grad += counts.pairs;
                part.atomic_adds += counts.atomic_adds;
                // Second reduction: aggregation of partial gradients.
                part.reduction_ops += counts.pairs;
                part.bytes_written += counts.pairs * bytes::GRADIENT;
            }
            part.entries = acc.touched().iter().map(|&id| (id, acc.get(id))).collect();
            acc_pool.lock().unwrap().push(acc);
            part
        });

    let mut accum = CamGradAccumulator::new(scene.len());
    accum.reset(scene.len());
    {
        let b = &mut trace.backward;
        for part in partials {
            b.exp_evals += part.exp_evals;
            b.reduction_ops += part.reduction_ops;
            b.warp_steps += part.warp_steps;
            b.warp_active += part.warp_active;
            b.pairs_grad += part.pairs_grad;
            b.atomic_adds += part.atomic_adds;
            b.bytes_read += part.bytes_read;
            b.bytes_written += part.bytes_written;
            for (id, cg) in &part.entries {
                accum.merge_entry(*id, cg);
            }
        }
    }

    {
        let b = &mut trace.backward;
        for &id in accum.touched() {
            b.gaussian_touches.push(accum.get(id).count as f64);
        }
        b.gaussians_touched = accum.touched().len() as u64;
        b.reprojections = accum.touched().len() as u64;
        b.bytes_read += b.gaussians_touched * bytes::GRADIENT;
        b.bytes_written += b.gaussians_touched * bytes::GRADIENT;
    }

    drop(_accum);
    let (grads, pose) = {
        let _p = crate::phase::begin("render/reproject");
        reproject(scene, camera, &accum, true)
    };
    (grads, pose, trace)
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
        let (ga, pa, _) = tile::backward(&scene, &cam, &pixels, &fa, &lg, &cfg);
        let (gb, pb, _) = backward(&scene, &cam, &pixels, &fb, &lg, &cfg);
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
        let (_, _, trace) = backward(&scene, &cam, &pixels, &f, &lg, &cfg);
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
