//! Cross-thread-count golden tests.
//!
//! The worker pool's contract (`splatonic_math::pool`) is that chunk
//! boundaries and merge order never depend on the worker count, so forward
//! images, backward gradients, and the full workload trace must be
//! **bit-identical** for 1, 2, and 8 workers. These tests pin that contract
//! on a seeded random scene for both pipelines.

use splatonic_math::{Image, Rng64, Vec3};
use splatonic_render::kernel::{alpha_at, project_scene};
use splatonic_render::loss::LossGrad;
use splatonic_render::pixelset::{PixelCoord, PixelSet};
use splatonic_render::sampling::MappingStrategy;
use splatonic_render::{
    render_backward, render_forward, Contribution, ForwardResult, KernelMode, MappingSampler,
    Pipeline, RenderConfig, RenderTrace,
};
use splatonic_scene::{Camera, Frame, Gaussian, GaussianScene, Intrinsics};

const THREAD_COUNTS: [usize; 2] = [2, 8];

fn random_scene(seed: u64, n: usize) -> GaussianScene {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut scene = GaussianScene::new();
    for _ in 0..n {
        scene.push(Gaussian::new(
            Vec3::new(
                rng.gen_range(-1.5..1.5),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(1.0..4.0),
            ),
            Vec3::new(
                rng.gen_range(0.05..0.3),
                rng.gen_range(0.05..0.3),
                rng.gen_range(0.05..0.3),
            ),
            splatonic_math::Quat::IDENTITY,
            rng.gen_range(0.2..0.95),
            Vec3::new(
                rng.gen_range(0.0..1.0),
                rng.gen_range(0.0..1.0),
                rng.gen_range(0.0..1.0),
            ),
        ));
    }
    scene
}

fn camera() -> Camera {
    Camera::look_at(
        Intrinsics::with_fov(96, 72, 1.2),
        Vec3::new(0.3, -0.2, -0.5),
        Vec3::new(0.0, 0.0, 2.0),
        Vec3::Y,
    )
}

fn sparse_set() -> PixelSet {
    let mut set = PixelSet::from_tile_chooser(96, 72, 8, |_, _, x0, y0, tw, th| {
        Some(PixelCoord::new((x0 + tw / 2) as u16, (y0 + th / 2) as u16))
    });
    set.add_extra([PixelCoord::new(10, 11), PixelCoord::new(70, 45)]);
    set
}

fn loss_grads(n: usize) -> Vec<LossGrad> {
    (0..n)
        .map(|i| LossGrad {
            d_color: Vec3::new(0.2, -0.1, 0.15) * ((i % 7) as f64 - 3.0),
            d_depth: 0.03 * ((i % 5) as f64 - 2.0),
        })
        .collect()
}

fn cfg(threads: usize) -> RenderConfig {
    RenderConfig {
        threads,
        ..RenderConfig::default()
    }
}

fn assert_forward_bit_identical(pipeline: Pipeline, pixels: &PixelSet) {
    let scene = random_scene(31, 400);
    let cam = camera();
    let base = render_forward(&scene, &cam, pixels, pipeline, &cfg(1));
    for threads in THREAD_COUNTS {
        let out = render_forward(&scene, &cam, pixels, pipeline, &cfg(threads));
        assert_eq!(
            base.color, out.color,
            "{pipeline:?} color, {threads} workers"
        );
        assert_eq!(
            base.depth, out.depth,
            "{pipeline:?} depth, {threads} workers"
        );
        assert_eq!(
            base.final_transmittance, out.final_transmittance,
            "{pipeline:?} Γ_final, {threads} workers"
        );
        assert_eq!(
            base.contributions, out.contributions,
            "{pipeline:?} contributions, {threads} workers"
        );
        assert_eq!(
            base.trace, out.trace,
            "{pipeline:?} trace, {threads} workers"
        );
    }
}

fn assert_backward_bit_identical(pipeline: Pipeline, pixels: &PixelSet) {
    let scene = random_scene(57, 400);
    let cam = camera();
    let lg = loss_grads(pixels.len());
    let fwd = render_forward(&scene, &cam, pixels, pipeline, &cfg(1));
    let (g1, p1, t1) = render_backward(&scene, &cam, pixels, &fwd, &lg, pipeline, &cfg(1));
    for threads in THREAD_COUNTS {
        let (g, p, t) = render_backward(&scene, &cam, pixels, &fwd, &lg, pipeline, &cfg(threads));
        assert_eq!(g1, g, "{pipeline:?} scene grads, {threads} workers");
        assert_eq!(p1, p, "{pipeline:?} pose grad, {threads} workers");
        assert_eq!(t1, t, "{pipeline:?} backward trace, {threads} workers");
    }
}

#[test]
fn pixel_forward_is_thread_count_invariant_sparse() {
    assert_forward_bit_identical(Pipeline::PixelBased, &sparse_set());
}

#[test]
fn pixel_forward_is_thread_count_invariant_dense() {
    assert_forward_bit_identical(Pipeline::PixelBased, &PixelSet::dense(96, 72));
}

#[test]
fn tile_forward_is_thread_count_invariant_sparse() {
    assert_forward_bit_identical(Pipeline::TileBased, &sparse_set());
}

#[test]
fn tile_forward_is_thread_count_invariant_dense() {
    assert_forward_bit_identical(Pipeline::TileBased, &PixelSet::dense(96, 72));
}

#[test]
fn pixel_backward_is_thread_count_invariant() {
    assert_backward_bit_identical(Pipeline::PixelBased, &sparse_set());
}

#[test]
fn tile_backward_is_thread_count_invariant() {
    assert_backward_bit_identical(Pipeline::TileBased, &PixelSet::dense(96, 72));
}

/// Empties the thread-local projection and sorted-list caches, so the next
/// render starts cold.
fn clear_caches() {
    splatonic_render::projcache::clear();
    splatonic_render::tilesort::clear();
}

/// Widths for the oracle and cached equality tests: 1, a fixed multi-worker
/// width, and the session default (0 = `SPLATONIC_THREADS` / host).
const EQUALITY_WIDTHS: [usize; 3] = [1, 4, 0];

/// Brute-force forward pass of the pixel pipeline, with its full trace.
///
/// The candidates of a Gaussian are found without the pixel set's indexes:
/// when `tiled`, every sample whose tile lies in the Gaussian's clamped
/// tile range (computed here), and every other pixel — all of them when
/// not `tiled` — whose center lies in its bounding box, by a scan. Each
/// candidate is α-checked with a real `exp` — no geometric shortcut — and
/// kept when `α ≥ α*`. Per-pixel lists are then depth-sorted
/// (projection-index tie-break) and composited front to back.
fn oracle_forward(
    scene: &GaussianScene,
    cam: &Camera,
    pixels: &PixelSet,
    tiled: bool,
    config: &RenderConfig,
) -> ForwardResult {
    use splatonic_render::trace::bytes;
    let (projected, culled) = project_scene(scene, cam, config);
    let mut lists: Vec<Vec<(f64, u32, f64)>> = vec![Vec::new(); pixels.len()];
    let mut trace = RenderTrace::new();
    let tile = pixels.tile_size();
    let (tiles_x, tiles_y) = pixels.tile_dims();
    let tile_span = |lo: f64, hi: f64, n: usize| {
        let clamp = |v: f64| ((v as isize) / tile as isize).clamp(0, n as isize - 1) as usize;
        clamp(lo.floor())..=clamp(hi.ceil())
    };
    let untiled_from = if tiled { pixels.sample_count() } else { 0 };
    for (pi, pg) in projected.iter().enumerate() {
        let (lo, hi) = pg.bbox();
        let mut candidates = Vec::new();
        if tiled {
            let (xs, ys) = (
                tile_span(lo.x, hi.x, tiles_x),
                tile_span(lo.y, hi.y, tiles_y),
            );
            for (i, p) in pixels.samples().enumerate() {
                if xs.contains(&(p.x as usize / tile)) && ys.contains(&(p.y as usize / tile)) {
                    candidates.push((i, p));
                }
            }
        }
        for (i, p) in pixels.iter_all().enumerate().skip(untiled_from) {
            if pg.bbox_contains(p.center()) {
                candidates.push((i, p));
            }
        }
        trace.proj_candidates.push(candidates.len() as u32);
        for (out_idx, p) in candidates {
            let (alpha, _) = alpha_at(pg, p.center(), config);
            if alpha >= config.alpha_threshold {
                lists[out_idx].push((pg.depth, pi as u32, alpha));
            }
        }
    }
    let f = &mut trace.forward;
    f.gaussians_input = scene.len() as u64;
    f.gaussians_culled = culled;
    f.gaussians_projected = projected.len() as u64;
    f.proj_alpha_checks = trace.proj_candidates.iter().map(|&c| c as u64).sum();
    f.exp_evals = f.proj_alpha_checks;
    f.proj_pairs_kept = lists.iter().map(|l| l.len() as u64).sum();
    f.bytes_read = scene.len() as u64 * bytes::GAUSSIAN + f.proj_pairs_kept * bytes::PAIR_ENTRY;
    f.bytes_written = f.proj_pairs_kept * bytes::PAIR_ENTRY;
    let mut out = ForwardResult {
        color: Vec::new(),
        depth: Vec::new(),
        final_transmittance: Vec::new(),
        contributions: Vec::new(),
        trace: RenderTrace::new(),
    };
    for mut list in lists {
        if !list.is_empty() {
            f.sort_lists += 1;
            f.sort_elems += list.len() as u64;
        }
        list.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let (mut t, mut c, mut d) = (1.0, Vec3::ZERO, 0.0);
        let mut contribs = Vec::new();
        for &(depth, pi, alpha) in &list {
            if t < config.transmittance_min {
                break;
            }
            let pg = &projected[pi as usize];
            let w = t * alpha;
            c += pg.color * w;
            d += depth * w;
            contribs.push(Contribution {
                gaussian: pg.id,
                alpha,
                transmittance: t,
            });
            t *= 1.0 - alpha;
        }
        let used = contribs.len() as u64;
        f.pairs_integrated += used;
        f.pixels_shaded += 1;
        f.warp_steps += 2 * used.div_ceil(32);
        f.warp_active += 2 * used;
        f.bytes_read += used * bytes::PROJECTED;
        f.bytes_written += bytes::PIXEL_OUT;
        f.pixel_list_len.push(used as f64);
        trace.pixel_lists.push(used as u32);
        out.color.push(c + config.background * t);
        out.depth.push(d);
        out.final_transmittance.push(t);
        out.contributions.push(contribs);
    }
    out.trace = trace;
    out
}

/// Asserts the pixel pipeline is bit-identical to [`oracle_forward`] —
/// output and every trace counter — at every equality width, in both
/// kernel modes, with the projection cache on; and, where the bbox bound
/// holds, that the tile pipeline renders the same output.
fn assert_matches_oracle(pixels: &PixelSet, tiled: bool, base: RenderConfig) {
    let scene = random_scene(77, 400);
    let cam = camera();
    let want = oracle_forward(&scene, &cam, pixels, tiled, &base);
    assert!(want.trace.forward.proj_pairs_kept > 0);
    for kernels in [KernelMode::Scalar, KernelMode::Simd] {
        for threads in EQUALITY_WIDTHS {
            let config = RenderConfig {
                threads,
                kernels,
                ..base
            };
            let got = render_forward(&scene, &cam, pixels, Pipeline::PixelBased, &config);
            let at = format!("{kernels:?}, {threads} workers");
            assert_eq!(got.color, want.color, "color, {at}");
            assert_eq!(got.depth, want.depth, "depth, {at}");
            assert_eq!(
                got.final_transmittance, want.final_transmittance,
                "Γ_final, {at}"
            );
            assert_eq!(got.contributions, want.contributions, "contribs, {at}");
            assert_eq!(got.trace, want.trace, "trace, {at}");
            // Where the bbox bound holds, both pipelines keep exactly the
            // pairs with α ≥ α*, so the tile raster loop (which takes the
            // same shortcut) composites the same pairs in the same order.
            if config.bbox_prereject() {
                let tile = render_forward(&scene, &cam, pixels, Pipeline::TileBased, &config);
                assert_eq!(tile.color, want.color, "tile color, {at}");
                assert_eq!(tile.depth, want.depth, "tile depth, {at}");
                assert_eq!(
                    tile.contributions, want.contributions,
                    "tile contribs, {at}"
                );
            }
        }
    }
}

#[test]
fn sparse_forward_matches_oracle() {
    // Tile slots plus two cell-indexed extras, at the default config, where
    // the bbox pre-reject must not change a bit or a counter.
    let config = cfg(0);
    assert!(config.bbox_prereject());
    assert_matches_oracle(&sparse_set(), true, config);
}

#[test]
fn sparse_forward_without_prereject_matches_oracle() {
    // At 3σ the bound no longer guarantees α < α* outside the box, so the
    // pre-reject switches itself off and every candidate pays its `exp`.
    let config = RenderConfig {
        bbox_sigma: 3.0,
        ..cfg(0)
    };
    assert!(!config.bbox_prereject());
    assert_matches_oracle(&sparse_set(), true, config);
}

#[test]
fn pixel_list_forward_matches_oracle() {
    // A tile-less set (`from_pixels`, as loss-guided tracking builds):
    // every sample is found through the cell index.
    let mut rng = Rng64::seed_from_u64(9);
    let pts: Vec<PixelCoord> = (0..150)
        .map(|_| {
            PixelCoord::new(
                rng.gen_range(0.0..96.0) as u16,
                rng.gen_range(0.0..72.0) as u16,
            )
        })
        .collect();
    assert_matches_oracle(&PixelSet::from_pixels(96, 72, pts), false, cfg(0));
}

/// A mapping pixel set from [`MappingSampler`] over a textured frame, with
/// every pixel where a diagonal stripe pattern puts `Γ_final` above the
/// unseen threshold added as an extra.
fn mapping_set(strategy: MappingStrategy) -> PixelSet {
    let color = Image::from_fn(96, 72, |x, y| {
        Vec3::splat(((x * 3 + y * 5) % 11) as f64 / 10.0)
    });
    let frame = Frame::new(color, Image::filled(96, 72, 2.0), 0);
    let transmittance = Image::from_fn(96, 72, |x, y| if (x + 2 * y) % 7 < 2 { 0.9 } else { 0.1 });
    let set = MappingSampler::new(8, strategy).build(&frame, &transmittance, 5);
    assert!(set.extra_count() > 1000);
    set
}

#[test]
fn mapping_combined_forward_matches_oracle() {
    // Tile slots plus ~1.6k cell-indexed unseen pixels.
    let set = mapping_set(MappingStrategy::Combined);
    assert!(set.sample_count() > 0);
    assert_matches_oracle(&set, true, cfg(0));
}

#[test]
fn mapping_unseen_only_forward_matches_oracle() {
    // No samples at all: every pixel is a cell-indexed extra.
    let set = mapping_set(MappingStrategy::UnseenOnly);
    assert_eq!(set.sample_count(), 0);
    assert_matches_oracle(&set, false, cfg(0));
}

#[test]
fn cached_render_sequence_matches_uncached() {
    // A tracking-shaped sequence — forward and backward at pose A (the
    // backward is a guaranteed cache hit), then forward at pose B (pose
    // delta, invalidation) — must be bit-identical to the same sequence
    // rendered cold, at every equality width and both pipelines.
    let scene = random_scene(91, 400);
    let cam_a = camera();
    let cam_b = Camera::look_at(
        Intrinsics::with_fov(96, 72, 1.2),
        Vec3::new(0.35, -0.2, -0.5),
        Vec3::new(0.0, 0.0, 2.0),
        Vec3::Y,
    );
    let pixels = sparse_set();
    let lg = loss_grads(pixels.len());
    for pipeline in [Pipeline::PixelBased, Pipeline::TileBased] {
        for threads in EQUALITY_WIDTHS {
            clear_caches();
            let on = cfg(threads);
            let off = RenderConfig {
                sort_cache: false,
                ..cfg(threads)
            };
            // The cold run empties both caches before every render.
            let run = |c: &RenderConfig, cold: bool| {
                let fresh = || {
                    if cold {
                        clear_caches();
                    }
                };
                fresh();
                let f = render_forward(&scene, &cam_a, &pixels, pipeline, c);
                fresh();
                let bwd = render_backward(&scene, &cam_a, &pixels, &f, &lg, pipeline, c);
                fresh();
                let f2 = render_forward(&scene, &cam_b, &pixels, pipeline, c);
                (f, bwd, f2)
            };
            let (fa, ba, fa2) = run(&on, false);
            match pipeline {
                Pipeline::PixelBased => {
                    // The pixel pipeline reuses projections directly.
                    let stats = splatonic_render::projcache::stats();
                    assert!(stats.hits >= 1, "{pipeline:?}: backward must hit the cache");
                    assert!(
                        stats.invalidations >= 1,
                        "{pipeline:?}: the pose step must invalidate"
                    );
                }
                Pipeline::TileBased => {
                    // The tile pipeline reuses whole sorted tile lists: the
                    // backward pass is an exact hit, the pose step at B a
                    // coherent re-merge of the pose-A order.
                    let stats = splatonic_render::tilesort::stats();
                    assert!(
                        stats.hits >= 1,
                        "{pipeline:?}: backward must hit the sort cache"
                    );
                    assert!(
                        stats.merges >= 1,
                        "{pipeline:?}: the pose step must re-merge"
                    );
                }
            }
            let (fb, bb, fb2) = run(&off, true);
            assert_eq!(
                fa.color, fb.color,
                "{pipeline:?} fwd color, {threads} workers"
            );
            assert_eq!(
                fa.trace, fb.trace,
                "{pipeline:?} fwd trace, {threads} workers"
            );
            assert_eq!(ba.0, bb.0, "{pipeline:?} scene grads, {threads} workers");
            assert_eq!(ba.1, bb.1, "{pipeline:?} pose grad, {threads} workers");
            assert_eq!(ba.2, bb.2, "{pipeline:?} bwd trace, {threads} workers");
            assert_eq!(
                fa2.color, fb2.color,
                "{pipeline:?} moved fwd, {threads} workers"
            );
            assert_eq!(
                fa2.trace, fb2.trace,
                "{pipeline:?} moved trace, {threads} workers"
            );
        }
    }
    clear_caches();
}

/// Runs the tile pipeline forward+backward under `c` and returns every
/// output that must be bit-stable across sort-schedule knobs.
fn tile_round(
    scene: &GaussianScene,
    cam: &Camera,
    pixels: &PixelSet,
    lg: &[LossGrad],
    c: &RenderConfig,
) -> (
    splatonic_render::ForwardResult,
    (
        splatonic_render::SceneGrads,
        splatonic_render::PoseGrad,
        splatonic_render::RenderTrace,
    ),
) {
    clear_caches();
    let f = render_forward(scene, cam, pixels, Pipeline::TileBased, c);
    let b = render_backward(scene, cam, pixels, &f, lg, Pipeline::TileBased, c);
    (f, b)
}

/// Zeroes the sorting-schedule counters, which legitimately differ between
/// grouped and ungrouped runs.
fn zero_sort_counters(t: &mut splatonic_render::RenderTrace) {
    t.forward.sort_lists = 0;
    t.forward.sort_elems = 0;
    t.forward.sort_group_reuse = 0;
}

#[test]
fn grouped_sort_matches_per_tile_oracle() {
    // The default grouped schedule (shared sort per 2×2-tile group, masked
    // per-tile lists) must be bit-identical to the per-tile oracle —
    // images, contributions, gradients, and the trace up to the sort
    // counters — at every width, for forward and backward passes.
    let scene = random_scene(113, 400);
    let cam = camera();
    for pixels in [PixelSet::dense(96, 72), sparse_set()] {
        let lg = loss_grads(pixels.len());
        for threads in EQUALITY_WIDTHS {
            let grouped = RenderConfig {
                tile_grouping: true,
                sort_cache: false,
                ..cfg(threads)
            };
            let oracle = RenderConfig {
                tile_grouping: false,
                sort_cache: false,
                ..cfg(threads)
            };
            let (fg, bg) = tile_round(&scene, &cam, &pixels, &lg, &grouped);
            let (fo, bo) = tile_round(&scene, &cam, &pixels, &lg, &oracle);
            assert_eq!(fg.color, fo.color, "color, {threads} workers");
            assert_eq!(fg.depth, fo.depth, "depth, {threads} workers");
            assert_eq!(
                fg.final_transmittance, fo.final_transmittance,
                "Γ_final, {threads} workers"
            );
            assert_eq!(fg.contributions, fo.contributions, "contribs, {threads}");
            assert!(
                fg.trace.forward.sort_elems < fo.trace.forward.sort_elems,
                "grouping must shrink the sorted-element stream"
            );
            assert!(fg.trace.forward.sort_group_reuse > 0);
            assert_eq!(fo.trace.forward.sort_group_reuse, 0);
            let (mut tg, mut to) = (fg.trace.clone(), fo.trace.clone());
            zero_sort_counters(&mut tg);
            zero_sort_counters(&mut to);
            assert_eq!(tg, to, "trace (sort counters zeroed), {threads} workers");
            assert_eq!(bg.0, bo.0, "scene grads, {threads} workers");
            assert_eq!(bg.1, bo.1, "pose grad, {threads} workers");
            assert_eq!(bg.2, bo.2, "backward trace, {threads} workers");
        }
    }
    clear_caches();
}

#[test]
fn cached_sort_matches_cold_sort() {
    // A tracking-shaped pose walk (A, A-backward, then three small pose
    // steps exercising the coherent re-merge) with the sort cache on must
    // be bit-identical — outputs *and* traces — to the same walk built
    // cold, at every width.
    let scene = random_scene(127, 400);
    let pixels = PixelSet::dense(96, 72);
    let lg = loss_grads(pixels.len());
    let poses: Vec<Camera> = (0..4)
        .map(|i| {
            Camera::look_at(
                Intrinsics::with_fov(96, 72, 1.2),
                Vec3::new(0.3 + 0.01 * i as f64, -0.2, -0.5),
                Vec3::new(0.0, 0.0, 2.0),
                Vec3::Y,
            )
        })
        .collect();
    for threads in EQUALITY_WIDTHS {
        // The cold walk empties both caches before every render.
        let walk = |c: &RenderConfig, cold: bool| {
            clear_caches();
            let mut outs = Vec::new();
            for cam in &poses {
                let f = render_forward(&scene, cam, &pixels, Pipeline::TileBased, c);
                if cold {
                    clear_caches();
                }
                let b = render_backward(&scene, cam, &pixels, &f, &lg, Pipeline::TileBased, c);
                if cold {
                    clear_caches();
                }
                outs.push((f, b));
            }
            outs
        };
        let cached = walk(&cfg(threads), false);
        let stats = splatonic_render::tilesort::stats();
        assert_eq!(stats.misses, 1, "only the first pose builds cold");
        assert_eq!(stats.merges as usize, poses.len() - 1, "pose steps merge");
        assert_eq!(stats.hits as usize, poses.len(), "every backward hits");
        let cold = walk(
            &RenderConfig {
                sort_cache: false,
                ..cfg(threads)
            },
            true,
        );
        for (i, ((fc, bc), (fx, bx))) in cached.iter().zip(&cold).enumerate() {
            assert_eq!(fc.color, fx.color, "pose {i} color, {threads} workers");
            assert_eq!(
                fc.contributions, fx.contributions,
                "pose {i} contribs, {threads} workers"
            );
            assert_eq!(fc.trace, fx.trace, "pose {i} trace, {threads} workers");
            assert_eq!(bc.0, bx.0, "pose {i} scene grads, {threads} workers");
            assert_eq!(bc.1, bx.1, "pose {i} pose grad, {threads} workers");
            assert_eq!(bc.2, bx.2, "pose {i} bwd trace, {threads} workers");
        }
    }
    clear_caches();
}

#[test]
fn merged_traces_are_thread_count_invariant() {
    // Traces merged across several renders (the SLAM accumulation pattern)
    // stay bit-identical too.
    let scene = random_scene(101, 300);
    let cam = camera();
    let pixels = sparse_set();
    let run = |threads: usize| {
        let mut merged = splatonic_render::RenderTrace::new();
        for pipeline in [Pipeline::PixelBased, Pipeline::TileBased] {
            let out = render_forward(&scene, &cam, &pixels, pipeline, &cfg(threads));
            merged.merge(&out.trace);
        }
        merged
    };
    let base = run(1);
    for threads in THREAD_COUNTS {
        assert_eq!(base, run(threads), "merged trace, {threads} workers");
    }
}
