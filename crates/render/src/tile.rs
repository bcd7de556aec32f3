//! The conventional **tile-based** rendering pipeline (paper Sec. II-B).
//!
//! Forward: projection and sorting run at *tile* granularity (16×16 pixels)
//! to amortize cost across pixels; rasterization then walks each tile's
//! depth-sorted Gaussian list per pixel, α-checking every pixel–Gaussian
//! pair. The warp model mirrors the GPU mapping (one thread per pixel, 32
//! threads per warp): at each list step a warp is occupied for every resident
//! pixel, but only pixels whose α-check passes do useful work — the warp
//! divergence of paper Fig. 6. The trace counts every modelled α-check; the
//! host skips the ones that provably fail, a whole warp at a time where it
//! can (DESIGN.md §13).
//!
//! Backward: reverse rasterization re-walks the forward's tile lists
//! ([`crate::Handoff::Tile`]) per pixel, re-α-checking. The walk computes
//! no gradient, so the host counts it in closed form; the per-pair
//! gradients, their per-Gaussian aggregation (the `atomicAdd` stage) and
//! re-projection are the gradient stage it shares with the pixel pipeline
//! (`grad::run_backward`).

use crate::grad::{run_backward, ChunkGrads, GradRequest, PoseGrad, SceneGrads};
use crate::kernel::{
    alpha_at, ProjectedGaussian, RenderConfig, ALPHA_THRESHOLD, BACKGROUND, TRANSMITTANCE_MIN,
};
use crate::loss::LossGrad;
use crate::pixelset::{PixelCoord, PixelSet};
use crate::tilesort::{prepare_tiles, PreparedTiles};
use crate::trace::{bytes, ForwardStats, RenderTrace};
use crate::{ChunkLists, Contribution, ForwardResult, Handoff, PixelLists};
use splatonic_math::{pool, Vec2, Vec3};
use splatonic_scene::{Camera, GaussianScene};
use std::sync::Mutex;

/// Tile edge length in pixels (the standard 16×16 of reference 3DGS).
pub const TILE: usize = 16;
/// GPU warp width in threads.
pub const WARP: usize = 32;

/// Tiles per pool chunk (fixed fan-out granularity; independent of the
/// worker count, see `splatonic_math::pool`).
const TILE_CHUNK: usize = 4;

/// Warps per tile (8 for 16×16 tiles): warp `k` holds pixel rows `2k` and
/// `2k + 1` of its tile.
const WARPS_PER_TILE: usize = (TILE * TILE).div_ceil(WARP);

/// Top-left pixel of tile `tile_idx` in a row-major grid `tiles_x` wide.
#[inline]
fn tile_origin(tile_idx: usize, tiles_x: usize) -> (usize, usize) {
    ((tile_idx % tiles_x) * TILE, (tile_idx / tiles_x) * TILE)
}

/// The warp of the tile at `(x0, y0)` whose lanes hold pixel `p`.
#[inline]
fn warp_of(p: PixelCoord, x0: usize, y0: usize) -> usize {
    ((p.y as usize - y0) * TILE + (p.x as usize - x0)) / WARP
}

/// The tile grid of `pixels`' image, `(tiles_x, tiles_y)` 16×16 tiles.
pub(crate) fn tile_grid(pixels: &PixelSet) -> (usize, usize) {
    (
        pixels.width().div_ceil(TILE),
        pixels.height().div_ceil(TILE),
    )
}

/// Groups the requested pixels by tile, keeping their output indices.
pub(crate) fn group_pixels_by_tile(
    pixels: &PixelSet,
    tiles_x: usize,
    tiles_y: usize,
) -> Vec<Vec<(PixelCoord, usize)>> {
    let mut groups: Vec<Vec<(PixelCoord, usize)>> = vec![Vec::new(); tiles_x * tiles_y];
    for (out_idx, p) in pixels.iter_all().enumerate() {
        let tx = (p.x as usize / TILE).min(tiles_x - 1);
        let ty = (p.y as usize / TILE).min(tiles_y - 1);
        groups[ty * tiles_x + tx].push((p, out_idx));
    }
    groups
}

/// Forward pass of the tile-based pipeline.
pub fn forward(
    scene: &GaussianScene,
    camera: &Camera,
    pixels: &PixelSet,
    config: &RenderConfig,
) -> ForwardResult {
    let _pass = crate::phase::begin("render/tile_forward");
    let mut trace = RenderTrace::new();
    let f = &mut trace.forward;
    f.gaussians_input = scene.len() as u64;
    f.bytes_read += scene.len() as u64 * bytes::GAUSSIAN;

    // Projection (tile granularity: one projection per Gaussian, shared by
    // all pixels of every covered tile) plus depth-sorted tile lists: one
    // shared sort per tile group, per-tile lists derived by masking. The
    // lists hold indices into the scene-index-ordered projection; both, and
    // the requested pixels grouped by tile, go to the backward pass in
    // `ForwardResult::handoff`.
    let prepared = prepare_tiles(scene, camera, pixels, config);
    f.gaussians_culled = prepared.culled;
    f.gaussians_projected = prepared.projected.len() as u64;
    f.bytes_written += prepared.projected.len() as u64 * bytes::PROJECTED;
    f.tile_pairs = prepared.tile_pairs;
    f.bytes_written += prepared.tile_pairs * bytes::PAIR_ENTRY;
    f.sort_lists = prepared.sort_lists;
    f.sort_elems = prepared.sort_elems;
    f.sort_group_reuse = prepared.sort_group_reuse;
    f.bytes_read += prepared.tile_pairs * bytes::PAIR_ENTRY;
    let (tiles_x, _) = tile_grid(pixels);
    let projected: &[ProjectedGaussian] = &prepared.projected;
    let tile_lists: &[Vec<u32>] = &prepared.tile_lists;
    let groups: &[Vec<(PixelCoord, usize)>] = &prepared.pixel_groups;

    // Rasterization, warp by warp, fanned out over fixed chunks of tiles.
    // Each chunk shades its tiles into scatter lists applied in chunk order
    // below; every output index belongs to exactly one tile, so the merge
    // is write-once and identical for every worker count.
    let n_out = pixels.len();
    let mut color = vec![Vec3::ZERO; n_out];
    let mut depth = vec![0.0; n_out];
    let mut t_final = vec![1.0; n_out];
    let threads = pool::resolve_threads(config.threads);

    #[derive(Default)]
    struct TilePartial {
        outputs: Vec<(usize, Vec3, f64, f64)>,
        lists: ChunkLists,
        stats: ForwardStats,
    }
    // A chunk's list count is known only once it is shaded, so its lists
    // are built in a buffer recycled across the render's chunks and copied
    // out at their exact size. Growing a fresh buffer per chunk instead
    // left the allocator holding ~10% more peak RSS on dense renders.
    let list_scratch: Mutex<Vec<ChunkLists>> = Mutex::new(Vec::new());
    let tile_partials =
        pool::par_chunks_indexed(threads, groups, TILE_CHUNK, |_, offset, chunk| {
            let mut part = TilePartial::default();
            let stats = &mut part.stats;
            let mut lists = list_scratch
                .lock()
                .expect("a worker panicked")
                .pop()
                .unwrap_or_default();
            // Per-chunk scratch, cleared per tile (`warps`) or per warp (the
            // rest). Each member's list is built in `member_contribs`, whose
            // vectors keep their capacity from warp to warp, and is appended
            // to the chunk's buffer when the warp ends.
            let mut warps: [Vec<(PixelCoord, usize)>; WARPS_PER_TILE] = Default::default();
            let mut state: Vec<(Vec3, f64, f64)> = Vec::new(); // (color, depth, T)
            let mut member_contribs = Vec::new();
            let mut centers: Vec<Vec2> = Vec::new();
            for (k, group) in chunk.iter().enumerate() {
                let tile_idx = offset + k;
                if group.is_empty() {
                    continue;
                }
                let list = &tile_lists[tile_idx];
                if list.is_empty() {
                    for &(_, out_idx) in group {
                        stats.pixels_shaded += 1;
                        part.outputs.push((out_idx, BACKGROUND, 0.0, 1.0));
                    }
                    continue;
                }
                stats.bytes_read += list.len() as u64 * bytes::PROJECTED;
                // Warp assignment: pixels of the tile in row-major order, 32
                // lanes per warp. Only warps containing a requested pixel
                // execute; within them, every resident requested pixel
                // occupies a lane.
                let (x0, y0) = tile_origin(tile_idx, tiles_x);
                warps.iter_mut().for_each(Vec::clear);
                for &(p, out_idx) in group {
                    warps[warp_of(p, x0, y0)].push((p, out_idx));
                }
                for members in warps.iter().filter(|m| !m.is_empty()) {
                    // Per-member compositing state.
                    state.clear();
                    state.resize(members.len(), (Vec3::ZERO, 0.0, 1.0));
                    if member_contribs.len() < members.len() {
                        member_contribs.resize_with(members.len(), Vec::new);
                    }
                    member_contribs.iter_mut().for_each(Vec::clear);
                    centers.clear();
                    centers.extend(members.iter().map(|(p, _)| p.center()));
                    // The rectangle spanned by the members' pixel centers.
                    let (rlo, rhi) = centers
                        .iter()
                        .fold((centers[0], centers[0]), |(lo, hi), &c| {
                            (lo.min(c), hi.max(c))
                        });
                    let mut live = members.len();
                    for &pi in list.iter() {
                        if live == 0 {
                            break;
                        }
                        stats.warp_steps += 1;
                        // The modelled warp α-checks every live lane (those
                        // with `T ≥ T_min`). The trace counts those checks
                        // here, once per step; the host then skips the ones
                        // outside the bbox, which provably fail
                        // (`kernel::BBOX_SIGMA`) — for the whole warp at
                        // once when the rectangle misses the bbox. NaN
                        // bounds compare false and take the per-lane path.
                        stats.raster_alpha_checks += live as u64;
                        stats.exp_evals += live as u64;
                        let pg = &projected[pi as usize];
                        let (lo, hi) = pg.bbox();
                        if rhi.x < lo.x || rlo.x > hi.x || rhi.y < lo.y || rlo.y > hi.y {
                            continue;
                        }
                        let mut active_this_step = 0u64;
                        for (mi, &center) in centers.iter().enumerate() {
                            if !pg.bbox_contains(center) {
                                continue;
                            }
                            let (c, d, t) = state[mi];
                            if t < TRANSMITTANCE_MIN {
                                continue;
                            }
                            let (alpha, _) = alpha_at(pg, center);
                            if alpha < ALPHA_THRESHOLD {
                                continue;
                            }
                            active_this_step += 1;
                            let w = t * alpha;
                            let nc = c + pg.color * w;
                            let nd = d + pg.depth * w;
                            let nt = t * (1.0 - alpha);
                            member_contribs[mi].push(Contribution {
                                gaussian: pg.id,
                                alpha,
                                transmittance: t,
                            });
                            stats.pairs_integrated += 1;
                            state[mi] = (nc, nd, nt);
                            if nt < TRANSMITTANCE_MIN {
                                live -= 1;
                            }
                        }
                        stats.warp_active += active_this_step;
                    }
                    for (mi, &(_, out_idx)) in members.iter().enumerate() {
                        let (c, d, t) = state[mi];
                        part.outputs.push((out_idx, c, d, t));
                        stats.pixels_shaded += 1;
                        stats.bytes_written += bytes::PIXEL_OUT;
                        lists.push_list(out_idx, &member_contribs[mi]);
                    }
                }
            }
            part.lists = lists.take_exact();
            list_scratch.lock().expect("a worker panicked").push(lists);
            part
        });
    let mut chunk_lists = Vec::with_capacity(tile_partials.len());
    for part in tile_partials {
        f.merge(&part.stats);
        for (out_idx, c, d, t) in part.outputs {
            color[out_idx] = c;
            depth[out_idx] = d;
            t_final[out_idx] = t;
        }
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
        handoff: Handoff::Tile(prepared),
        trace,
    }
}

/// Backward pass of the tile-based pipeline.
///
/// Re-uses the forward pass's projection, tile–Gaussian sorted lists and
/// per-tile pixel groups (`prepared`, [`crate::Handoff::Tile`]) and its
/// per-pixel `contributions`. The walk re-walks each tile's list per pixel
/// over fixed chunks of tiles and charges its α-checks and warp steps to the trace;
/// the per-pair gradients, their aggregation and re-projection are the
/// shared [`run_backward`]'s. Re-projection computes only the gradient half
/// `want` asks for.
///
/// # Panics
///
/// Panics when `loss_grads` does not cover `pixels`, or when `prepared`
/// was built for another tile grid or pixel count than `pixels`'.
#[allow(clippy::too_many_arguments)]
pub(crate) fn backward(
    scene: &GaussianScene,
    camera: &Camera,
    pixels: &PixelSet,
    contributions: &PixelLists,
    prepared: &PreparedTiles,
    loss_grads: &[LossGrad],
    config: &RenderConfig,
    want: GradRequest,
) -> (SceneGrads, PoseGrad, RenderTrace) {
    let _pass = crate::phase::begin("render/tile_backward");
    let (tiles_x, tiles_y) = tile_grid(pixels);
    assert_eq!(
        prepared.tile_lists.len(),
        tiles_x * tiles_y,
        "the forward's tile lists must cover the pixel set's tile grid"
    );
    let groups: &[Vec<(PixelCoord, usize)>] = &prepared.pixel_groups;
    assert_eq!(
        groups.iter().map(Vec::len).sum::<usize>(),
        pixels.len(),
        "the forward's pixel groups must cover the pixel set"
    );
    let projected: &[ProjectedGaussian] = &prepared.projected;
    let tile_lists: &[Vec<u32>] = &prepared.tile_lists;

    // Reverse rasterization with the same warp shape as the forward pass:
    // every pixel re-walks its tile list, α-checking each pair. The walk's
    // scratch is a scene-sized list-position table, sized on first use,
    // recycled across chunks with the chunk's accumulator, and cleared
    // after each tile.
    let walk = |offset: usize,
                chunk: &[Vec<(PixelCoord, usize)>],
                list_pos: &mut Vec<u32>,
                g: &mut ChunkGrads<'_>| {
        list_pos.resize(scene.len(), u32::MAX);
        for (k, group) in chunk.iter().enumerate() {
            let tile_idx = offset + k;
            let list = &tile_lists[tile_idx];
            if group.is_empty() || list.is_empty() {
                continue;
            }
            // The modelled walk: each lane keeps a cursor into its pixel's
            // contribution list, and the warp steps through the whole tile
            // list, α-checking every lane whose cursor is not yet at the
            // end; a lane is active on the steps where its next contribution
            // matches. Contributions are a subsequence of the list in list
            // order, and a Gaussian appears in a list at most once, so the
            // counters have a closed form, computed here from
            // each Gaussian's list position: a warp takes `list.len()` steps,
            // and a lane issues (position of its last match + 1) checks and
            // is active once per match. A contribution absent from the list
            // or out of order (a forward pass at another pose or scene)
            // stalls the cursor for good, so that lane checks on every step.
            let (x0, y0) = tile_origin(tile_idx, tiles_x);
            for (pos, &pi) in list.iter().enumerate() {
                list_pos[projected[pi as usize].id as usize] = pos as u32;
            }
            let b = &mut g.stats;
            let mut occupied = 0u32;
            for &(p, out_idx) in group {
                occupied |= 1 << warp_of(p, x0, y0);
                let mut next = 0;
                for c in &contributions[out_idx] {
                    match list_pos.get(c.gaussian as usize) {
                        Some(&pos) if pos != u32::MAX && pos as usize >= next => {
                            next = pos as usize + 1;
                            b.warp_active += 1;
                        }
                        _ => {
                            next = list.len();
                            break;
                        }
                    }
                }
                b.alpha_checks += next as u64;
                b.exp_evals += next as u64;
            }
            b.warp_steps += occupied.count_ones() as u64 * list.len() as u64;
            for &pi in list {
                list_pos[projected[pi as usize].id as usize] = u32::MAX;
            }
            for &(p, out_idx) in group {
                g.pixel(p, out_idx);
            }
        }
    };
    let (grads, pose, mut trace) = run_backward(
        scene,
        camera,
        pixels,
        contributions,
        projected,
        loss_grads,
        config,
        want,
        groups,
        TILE_CHUNK,
        walk,
    );
    trace.backward.bytes_read +=
        prepared.tile_pairs * bytes::PAIR_ENTRY + projected.len() as u64 * bytes::PROJECTED;
    (grads, pose, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::project_scene;
    use splatonic_math::{Pose, Quat, Vec2};
    use splatonic_scene::{Gaussian, Intrinsics};

    fn small_scene() -> (GaussianScene, Camera) {
        let mut scene = GaussianScene::new();
        scene.push(Gaussian::new(
            Vec3::new(0.0, 0.0, 2.0),
            Vec3::splat(0.15),
            Quat::IDENTITY,
            0.9,
            Vec3::new(1.0, 0.2, 0.1),
        ));
        scene.push(Gaussian::new(
            Vec3::new(0.3, 0.1, 3.0),
            Vec3::splat(0.2),
            Quat::IDENTITY,
            0.8,
            Vec3::new(0.1, 0.9, 0.2),
        ));
        let cam = Camera::new(Intrinsics::with_fov(64, 48, 1.2), Pose::identity());
        (scene, cam)
    }

    #[test]
    fn dense_forward_shades_all_pixels() {
        let (scene, cam) = small_scene();
        let pixels = PixelSet::dense(64, 48);
        let out = forward(&scene, &cam, &pixels, &RenderConfig::default());
        assert_eq!(out.color.len(), 64 * 48);
        assert_eq!(out.trace.forward.pixels_shaded, 64 * 48);
        // The center pixel must have been hit by the front Gaussian.
        let center = 24 * 64 + 32;
        assert!(out.color[center].x > 0.1, "center {:?}", out.color[center]);
        assert!(out.final_transmittance[center] < 1.0);
    }

    #[test]
    fn empty_scene_renders_background() {
        let cam = Camera::new(Intrinsics::with_fov(32, 32, 1.0), Pose::identity());
        let pixels = PixelSet::dense(32, 32);
        let out = forward(
            &GaussianScene::new(),
            &cam,
            &pixels,
            &RenderConfig::default(),
        );
        assert!(out.color.iter().all(|&c| c == BACKGROUND));
        assert!(out.final_transmittance.iter().all(|&t| t == 1.0));
    }

    #[test]
    fn contributions_are_depth_ordered() {
        let (scene, cam) = small_scene();
        let pixels = PixelSet::dense(64, 48);
        let out = forward(&scene, &cam, &pixels, &RenderConfig::default());
        for contribs in out.contributions.iter() {
            for w in contribs.windows(2) {
                // Transmittance decreases along the list (front-to-back).
                assert!(w[1].transmittance <= w[0].transmittance + 1e-12);
            }
        }
    }

    #[test]
    fn pixels_of_empty_tile_lists_have_empty_contributions() {
        let (scene, cam) = small_scene();
        let pixels = PixelSet::dense(64, 48);
        let cfg = RenderConfig::default();
        let out = forward(&scene, &cam, &pixels, &cfg);
        let Handoff::Tile(prepared) = &out.handoff else {
            panic!("a tile forward hands over its tile lists");
        };
        let (tiles_x, _) = tile_grid(&pixels);
        let empty_tiles = prepared.tile_lists.iter().filter(|l| l.is_empty()).count();
        assert!(empty_tiles > 0 && empty_tiles < prepared.tile_lists.len());
        for (i, p) in pixels.iter_all().enumerate() {
            let tile = (p.y as usize / TILE) * tiles_x + p.x as usize / TILE;
            if prepared.tile_lists[tile].is_empty() {
                assert!(out.contributions[i].is_empty(), "pixel {i}");
            }
        }
        assert_eq!(out.contributions.len(), pixels.len());
        assert_eq!(
            out.total_contributions() as u64,
            out.trace.forward.pairs_integrated
        );
        let pixel = crate::pixel::forward(&scene, &cam, &pixels, &cfg);
        assert_eq!(out.contributions, pixel.contributions);
    }

    #[test]
    fn sparse_pixels_shade_subset() {
        let (scene, cam) = small_scene();
        let pixels = PixelSet::from_tile_chooser(64, 48, 16, |_, _, x0, y0, w, h| {
            Some(crate::pixelset::PixelCoord::new(
                (x0 + w / 2) as u16,
                (y0 + h / 2) as u16,
            ))
        });
        let out = forward(&scene, &cam, &pixels, &RenderConfig::default());
        assert_eq!(out.color.len(), pixels.len());
        assert!(out.trace.forward.pixels_shaded as usize == pixels.len());
        // Tile work is unchanged by sparsity (that is the point).
        assert!(out.trace.forward.tile_pairs > 0);
    }

    #[test]
    #[should_panic(expected = "pixel groups must cover")]
    fn backward_rejects_another_pixel_set() {
        // The hand-over's pixel groups belong to the forward's pixel set; a
        // backward over another set on the same grid must not read them.
        let (scene, cam) = small_scene();
        let sparse = PixelSet::from_tile_chooser(64, 48, 16, |_, _, x0, y0, _, _| {
            Some(crate::pixelset::PixelCoord::new(x0 as u16, y0 as u16))
        });
        let cfg = RenderConfig::default();
        let out = forward(&scene, &cam, &sparse, &cfg);
        let Handoff::Tile(prepared) = &out.handoff else {
            panic!("a tile forward hands over its tile lists");
        };
        let dense = PixelSet::dense(64, 48);
        let grads = vec![LossGrad::default(); dense.len()];
        let _ = backward(
            &scene,
            &cam,
            &dense,
            &out.contributions,
            prepared,
            &grads,
            &cfg,
            GradRequest::Pose,
        );
    }

    #[test]
    fn sparse_warp_utilization_lower_than_dense() {
        let (scene, cam) = small_scene();
        let dense = forward(
            &scene,
            &cam,
            &PixelSet::dense(64, 48),
            &RenderConfig::default(),
        );
        let sparse_set = PixelSet::from_tile_chooser(64, 48, 16, |_, _, x0, y0, _, _| {
            Some(crate::pixelset::PixelCoord::new(x0 as u16, y0 as u16))
        });
        let sparse = forward(&scene, &cam, &sparse_set, &RenderConfig::default());
        let ud = dense.trace.forward.warp_utilization();
        let us = sparse.trace.forward.warp_utilization();
        assert!(
            us < ud,
            "sparse utilization {us} should be below dense {ud}"
        );
        // A single resident pixel caps utilization at 1/32.
        assert!(us <= 1.0 / 32.0 + 1e-9);
    }

    #[test]
    fn backward_produces_gradients() {
        let (scene, cam) = small_scene();
        let pixels = PixelSet::dense(64, 48);
        let cfg = RenderConfig::default();
        let out = forward(&scene, &cam, &pixels, &cfg);
        let grads: Vec<LossGrad> = out
            .color
            .iter()
            .map(|_| LossGrad {
                d_color: Vec3::splat(1.0),
                d_depth: 0.1,
            })
            .collect();
        let (sg, pg, trace) =
            crate::render_backward(&scene, &cam, &pixels, &out, &grads, &cfg, GradRequest::Both);
        assert!(!sg.is_empty());
        assert!(pg.xi.norm() > 0.0);
        assert!(trace.backward.pairs_grad > 0);
        assert!(trace.backward.atomic_adds >= trace.backward.pairs_grad);
        assert_eq!(trace.backward.reprojections, sg.len() as u64);
    }

    #[test]
    fn backward_zero_loss_zero_grad() {
        let (scene, cam) = small_scene();
        let pixels = PixelSet::dense(32, 32);
        let cfg = RenderConfig::default();
        let out = forward(&scene, &cam, &pixels, &cfg);
        let grads = vec![LossGrad::default(); pixels.len()];
        let (sg, pg, _) =
            crate::render_backward(&scene, &cam, &pixels, &out, &grads, &cfg, GradRequest::Both);
        for (_, g) in &sg.entries {
            assert!(g.mean.norm() < 1e-12);
            assert!(g.color.norm() < 1e-12);
        }
        assert!(pg.xi.norm() < 1e-12);
    }

    #[test]
    fn bbox_to_tiles_covers_projection() {
        let (scene, cam) = small_scene();
        let prepared = prepare_tiles(
            &scene,
            &cam,
            &PixelSet::dense(64, 48),
            &RenderConfig::default(),
        );
        assert_eq!(
            prepared.tile_pairs,
            prepared
                .tile_lists
                .iter()
                .map(|l| l.len() as u64)
                .sum::<u64>()
        );
        // The tile containing each Gaussian's center must list it (the
        // prepared projection is in scene-index order, so enumeration
        // indices are the list entries).
        for (pi, pg) in prepared.projected.iter().enumerate() {
            let tx = (pg.mean2d.x as usize / TILE).min(64usize.div_ceil(TILE) - 1);
            let ty = (pg.mean2d.y as usize / TILE).min(48usize.div_ceil(TILE) - 1);
            assert!(prepared.tile_lists[ty * 64usize.div_ceil(TILE) + tx].contains(&(pi as u32)));
        }
    }

    #[test]
    fn early_termination_limits_list() {
        // Stack many opaque Gaussians; the pixel should terminate early.
        let mut scene = GaussianScene::new();
        for i in 0..50 {
            scene.push(Gaussian::new(
                Vec3::new(0.0, 0.0, 1.0 + i as f64 * 0.1),
                Vec3::splat(0.3),
                Quat::IDENTITY,
                0.95,
                Vec3::splat(0.5),
            ));
        }
        let cam = Camera::new(Intrinsics::with_fov(32, 32, 1.0), Pose::identity());
        let pixels = PixelSet::from_pixels(32, 32, vec![PixelCoord::new(16, 16)]);
        let out = forward(&scene, &cam, &pixels, &RenderConfig::default());
        assert!(
            out.contributions[0].len() < 10,
            "opaque stack should terminate after a few Gaussians, got {}",
            out.contributions[0].len()
        );
        assert!(out.final_transmittance[0] < 1e-3);
    }

    #[test]
    fn alpha_checks_exceed_integrations() {
        let (scene, cam) = small_scene();
        let pixels = PixelSet::dense(64, 48);
        let out = forward(&scene, &cam, &pixels, &RenderConfig::default());
        let f = &out.trace.forward;
        assert!(f.raster_alpha_checks >= f.pairs_integrated);
        assert!(f.exp_evals >= f.raster_alpha_checks);
    }

    #[test]
    fn projected_center_matches_camera_projection() {
        let (scene, cam) = small_scene();
        let cfg = RenderConfig::default();
        let (projected, _) = project_scene(&scene, &cam, &cfg);
        for pg in &projected {
            let expect = cam.project_point(scene.means()[pg.id as usize]).unwrap();
            assert!((pg.mean2d - Vec2::new(expect.x, expect.y)).norm() < 1e-9);
        }
    }
}
