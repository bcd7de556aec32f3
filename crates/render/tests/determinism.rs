//! Cross-thread-count golden tests.
//!
//! The worker pool's contract (`splatonic_math::pool`) is that chunk
//! boundaries and merge order never depend on the worker count, so forward
//! images, backward gradients, and the full workload trace must be
//! **bit-identical** for 1, 2, and 8 workers. These tests pin that contract
//! on a seeded random scene for both pipelines.

use splatonic_math::{Image, Rng64, Vec3};
use splatonic_render::grad::{pixel_backward, CamGradAccumulator, REPROJECT_CHUNK};
use splatonic_render::kernel::{
    alpha_at, project_scene, ALPHA_THRESHOLD, BACKGROUND, TRANSMITTANCE_MIN,
};
use splatonic_render::loss::LossGrad;
use splatonic_render::pixelset::{PixelCoord, PixelSet};
use splatonic_render::sampling::MappingStrategy;
use splatonic_render::tile::{TILE, WARP};
use splatonic_render::{
    render_backward, render_forward, Contribution, ForwardResult, GradRequest, Handoff, KernelMode,
    MappingSampler, Pipeline, PixelLists, PoseGrad, ProjectedGaussian, RenderConfig, RenderTrace,
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

/// The compact projection a pixel forward hands to its backward pass.
fn pixel_projection(f: &ForwardResult) -> &[ProjectedGaussian] {
    match &f.handoff {
        Handoff::Pixel(projected) => projected,
        Handoff::Tile(_) => panic!("expected a pixel forward result"),
    }
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
    let (g1, p1, t1) = render_backward(&scene, &cam, pixels, &fwd, &lg, &cfg(1), GradRequest::Both);
    for threads in THREAD_COUNTS {
        let (g, p, t) = render_backward(
            &scene,
            &cam,
            pixels,
            &fwd,
            &lg,
            &cfg(threads),
            GradRequest::Both,
        );
        assert_eq!(g1, g, "{pipeline:?} scene grads, {threads} workers");
        assert_eq!(p1, p, "{pipeline:?} pose grad, {threads} workers");
        assert_eq!(t1, t, "{pipeline:?} backward trace, {threads} workers");
    }
}

/// Asserts that each gradient half a caller asks for is bit-identical to
/// that half of a [`GradRequest::Both`] backward — scene grads for
/// [`GradRequest::Scene`], the pose gradient for [`GradRequest::Pose`], the
/// other half empty or zero and the trace unchanged — and that all of them
/// equal the scalar width-1 result, at every equality width in both kernel
/// modes. Returns the number of Gaussians the backward touched.
fn assert_split_reproject_matches_both(
    pipeline: Pipeline,
    pixels: &PixelSet,
    scene: &GaussianScene,
) -> u64 {
    let cam = camera();
    let lg = loss_grads(pixels.len());
    let oracle = RenderConfig {
        kernels: KernelMode::Scalar,
        ..cfg(1)
    };
    let fwd = render_forward(scene, &cam, pixels, pipeline, &oracle);
    let (want_g, want_p, want_t) =
        render_backward(scene, &cam, pixels, &fwd, &lg, &oracle, GradRequest::Both);
    assert!(!want_g.is_empty() && want_p != PoseGrad::default());
    for kernels in [KernelMode::Scalar, KernelMode::Simd] {
        for threads in EQUALITY_WIDTHS {
            let config = RenderConfig { threads, kernels };
            let at = format!("{pipeline:?}, {kernels:?}, {threads} workers");
            let fwd = render_forward(scene, &cam, pixels, pipeline, &config);
            let backward = |want| render_backward(scene, &cam, pixels, &fwd, &lg, &config, want);
            let (both_g, both_p, both_t) = backward(GradRequest::Both);
            let (scene_g, scene_p, scene_t) = backward(GradRequest::Scene);
            let (pose_g, pose_p, pose_t) = backward(GradRequest::Pose);
            assert_eq!(both_g, want_g, "Both scene grads vs width 1, {at}");
            assert_eq!(both_p, want_p, "Both pose grad vs width 1, {at}");
            assert_eq!(scene_g, both_g, "Scene grads vs Both, {at}");
            assert_eq!(scene_p, PoseGrad::default(), "Scene pose grad, {at}");
            assert_eq!(pose_p, both_p, "Pose pose grad vs Both, {at}");
            assert!(pose_g.is_empty(), "Pose scene grads, {at}");
            for t in [&both_t, &scene_t, &pose_t] {
                assert_eq!(t, &want_t, "backward trace, {at}");
            }
        }
    }
    want_t.backward.gaussians_touched
}

#[test]
fn pixel_split_reproject_matches_both_sparse() {
    assert_split_reproject_matches_both(
        Pipeline::PixelBased,
        &sparse_set(),
        &random_scene(57, 400),
    );
}

#[test]
fn pixel_split_reproject_matches_both_across_chunks() {
    // A dense render of a larger scene touches enough Gaussians that the
    // scene half fans out over several re-projection chunks.
    let touched = assert_split_reproject_matches_both(
        Pipeline::PixelBased,
        &PixelSet::dense(96, 72),
        &random_scene(59, 1200),
    );
    assert!(
        touched > 3 * REPROJECT_CHUNK as u64,
        "{touched} touched Gaussians"
    );
}

#[test]
fn tile_split_reproject_matches_both_sparse() {
    assert_split_reproject_matches_both(Pipeline::TileBased, &sparse_set(), &random_scene(57, 400));
}

#[test]
fn tile_split_reproject_matches_both_dense() {
    assert_split_reproject_matches_both(
        Pipeline::TileBased,
        &PixelSet::dense(96, 72),
        &random_scene(59, 1200),
    );
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

/// Asserts that the pixel backward reading the forward's compact
/// projection is bit-identical — scene grads, pose grad and backward trace —
/// to one handed the full `project_scene` list, in both kernel modes at
/// widths 1, 2 and 4.
fn assert_compact_backward_matches_full(pixels: &PixelSet) {
    let scene = random_scene(63, 400);
    let cam = camera();
    let lg = loss_grads(pixels.len());
    for kernels in [KernelMode::Scalar, KernelMode::Simd] {
        for threads in [1, 2, 4] {
            let config = RenderConfig {
                kernels,
                ..cfg(threads)
            };
            let compact = render_forward(&scene, &cam, pixels, Pipeline::PixelBased, &config);
            let mut full = compact.clone();
            full.handoff = Handoff::Pixel(project_scene(&scene, &cam, &config).0);
            assert!(pixel_projection(&compact).len() <= pixel_projection(&full).len());
            let backward = |fwd: &ForwardResult| {
                render_backward(&scene, &cam, pixels, fwd, &lg, &config, GradRequest::Both)
            };
            let (gc, pc, tc) = backward(&compact);
            let (gf, pf, tf) = backward(&full);
            let at = format!("{kernels:?}, {threads} workers");
            assert!(!gc.entries.is_empty(), "no gradients, {at}");
            assert_eq!(gc, gf, "scene grads, {at}");
            assert_eq!(pc, pf, "pose grad, {at}");
            assert_eq!(tc, tf, "backward trace, {at}");
        }
    }
}

#[test]
fn compact_projection_backward_matches_full_sparse() {
    assert_compact_backward_matches_full(&sparse_set());
}

#[test]
fn compact_projection_backward_matches_full_dense() {
    assert_compact_backward_matches_full(&PixelSet::dense(96, 72));
}

/// Widths for the oracle and hand-over equality tests: 1, a fixed multi-worker
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
/// (projection-index tie-break) and composited front to back. The compact
/// projection holds every projected Gaussian that kept a pair, in scene
/// order. Also returns the contribution lists as nested per-pixel vectors.
fn oracle_forward(
    scene: &GaussianScene,
    cam: &Camera,
    pixels: &PixelSet,
    tiled: bool,
) -> (ForwardResult, Vec<Vec<Contribution>>) {
    use splatonic_render::trace::bytes;
    let (projected, culled) = project_scene(scene, cam, &cfg(0));
    let mut lists: Vec<Vec<(f64, u32, f64)>> = vec![Vec::new(); pixels.len()];
    let mut trace = RenderTrace::new();
    let tile = pixels.tile_size();
    let (tiles_x, tiles_y) = pixels.tile_dims();
    let tile_span = |lo: f64, hi: f64, n: usize| {
        let clamp = |v: f64| ((v as isize) / tile as isize).clamp(0, n as isize - 1) as usize;
        clamp(lo.floor())..=clamp(hi.ceil())
    };
    let untiled_from = if tiled { pixels.sample_count() } else { 0 };
    let mut alpha_checks = 0u64;
    let mut compact = Vec::new();
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
        alpha_checks += candidates.len() as u64;
        let mut kept = false;
        for (out_idx, p) in candidates {
            let (alpha, _) = alpha_at(pg, p.center());
            if alpha >= ALPHA_THRESHOLD {
                lists[out_idx].push((pg.depth, pi as u32, alpha));
                kept = true;
            }
        }
        if kept {
            compact.push(*pg);
        }
    }
    let f = &mut trace.forward;
    f.gaussians_input = scene.len() as u64;
    f.gaussians_culled = culled;
    f.gaussians_projected = projected.len() as u64;
    f.proj_alpha_checks = alpha_checks;
    f.exp_evals = f.proj_alpha_checks;
    f.proj_pairs_kept = lists.iter().map(|l| l.len() as u64).sum();
    f.bytes_read = scene.len() as u64 * bytes::GAUSSIAN + f.proj_pairs_kept * bytes::PAIR_ENTRY;
    f.bytes_written = f.proj_pairs_kept * bytes::PAIR_ENTRY;
    let mut out = ForwardResult {
        color: Vec::new(),
        depth: Vec::new(),
        final_transmittance: Vec::new(),
        contributions: PixelLists::default(),
        handoff: Handoff::Pixel(compact),
        trace: RenderTrace::new(),
    };
    let mut nested = Vec::new();
    for mut list in lists {
        if !list.is_empty() {
            f.sort_lists += 1;
            f.sort_elems += list.len() as u64;
        }
        list.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let (mut t, mut c, mut d) = (1.0, Vec3::ZERO, 0.0);
        let mut contribs = Vec::new();
        for &(depth, pi, alpha) in &list {
            if t < TRANSMITTANCE_MIN {
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
        out.color.push(c);
        out.depth.push(d);
        out.final_transmittance.push(t);
        nested.push(contribs);
    }
    out.contributions = PixelLists::from_lists(&nested);
    out.trace = trace;
    (out, nested)
}

/// Asserts `got` holds exactly the nested lists `want`, pixel by pixel.
fn assert_lists_match(got: &PixelLists, want: &[Vec<Contribution>], at: &str) {
    assert_eq!(got.len(), want.len(), "list count, {at}");
    for (i, list) in want.iter().enumerate() {
        assert_eq!(&got[i], &list[..], "pixel {i}, {at}");
    }
}

/// Asserts the pixel pipeline is bit-identical to [`oracle_forward`] —
/// output, compact projection and every trace counter — at every equality
/// width, in both kernel modes; and that the tile pipeline renders the same
/// output.
fn assert_matches_oracle(pixels: &PixelSet, tiled: bool) {
    let scene = random_scene(77, 400);
    let cam = camera();
    let (want, _) = oracle_forward(&scene, &cam, pixels, tiled);
    assert!(want.trace.forward.proj_pairs_kept > 0);
    for kernels in [KernelMode::Scalar, KernelMode::Simd] {
        for threads in EQUALITY_WIDTHS {
            let config = RenderConfig {
                kernels,
                ..cfg(threads)
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
            assert_eq!(
                pixel_projection(&got),
                pixel_projection(&want),
                "compact projection, {at}"
            );
            assert_eq!(got.trace, want.trace, "trace, {at}");
            // The bbox bound makes both pipelines keep exactly the pairs
            // with α ≥ α*, so the tile raster loop (which takes the same
            // shortcut) composites the same pairs in the same order.
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

#[test]
fn sparse_forward_matches_oracle() {
    // Tile slots plus two cell-indexed extras: the bbox pre-reject must not
    // change a bit or a counter.
    assert_matches_oracle(&sparse_set(), true);
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
    assert_matches_oracle(&PixelSet::from_pixels(96, 72, pts), false);
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
    assert_matches_oracle(&set, true);
}

#[test]
fn mapping_unseen_only_forward_matches_oracle() {
    // No samples at all: every pixel is a cell-indexed extra.
    let set = mapping_set(MappingStrategy::UnseenOnly);
    assert_eq!(set.sample_count(), 0);
    assert_matches_oracle(&set, false);
}

#[test]
fn interleaved_forwards_and_backwards_match_sequential_order() {
    // Each backward pass reads its own forward's hand-over, so issuing
    // both forwards first (forward A, forward B, backward A, backward B)
    // gives the bits of the sequential order (A's forward and backward,
    // then B's): colour, contributions, gradients and traces, on both
    // pipelines at every equality width. A and B differ in scene and pose.
    let renders = [
        (random_scene(91, 400), camera()),
        (
            random_scene(92, 400),
            Camera::look_at(
                Intrinsics::with_fov(96, 72, 1.2),
                Vec3::new(0.35, -0.2, -0.5),
                Vec3::new(0.0, 0.0, 2.0),
                Vec3::Y,
            ),
        ),
    ];
    let pixels = sparse_set();
    let lg = loss_grads(pixels.len());
    for pipeline in [Pipeline::PixelBased, Pipeline::TileBased] {
        for threads in EQUALITY_WIDTHS {
            let c = cfg(threads);
            let forward = |(scene, cam): &(GaussianScene, Camera)| {
                render_forward(scene, cam, &pixels, pipeline, &c)
            };
            let backward = |(scene, cam): &(GaussianScene, Camera), f: &ForwardResult| {
                render_backward(scene, cam, &pixels, f, &lg, &c, GradRequest::Both)
            };
            let sequential: Vec<_> = renders
                .iter()
                .map(|r| {
                    let f = forward(r);
                    let b = backward(r, &f);
                    (f, b)
                })
                .collect();
            let forwards: Vec<ForwardResult> = renders.iter().map(forward).collect();
            let interleaved: Vec<_> = renders
                .iter()
                .zip(forwards)
                .map(|(r, f)| {
                    let b = backward(r, &f);
                    (f, b)
                })
                .collect();
            for (i, ((fs, bs), (fi, bi))) in sequential.iter().zip(&interleaved).enumerate() {
                let at = format!("render {i}, {pipeline:?}, {threads} workers");
                assert_eq!(fs.color, fi.color, "color, {at}");
                assert_eq!(fs.contributions, fi.contributions, "contribs, {at}");
                assert_eq!(fs.trace, fi.trace, "forward trace, {at}");
                assert_eq!(bs.0, bi.0, "scene grads, {at}");
                assert_eq!(bs.1, bi.1, "pose grad, {at}");
                assert_eq!(bs.2, bi.2, "backward trace, {at}");
            }
            assert!(!sequential[0].1 .0.is_empty() && !sequential[1].1 .0.is_empty());
        }
    }
}

/// Zeroes the sorting-schedule counters, which the tile oracles leave
/// zero (`grouped_sort_matches_per_tile_oracle` covers them).
fn zero_sort_counters(t: &mut splatonic_render::RenderTrace) {
    t.forward.sort_lists = 0;
    t.forward.sort_elems = 0;
    t.forward.sort_group_reuse = 0;
}

#[test]
fn grouped_sort_matches_per_tile_oracle() {
    // One render counts the grouped schedule (a shared sort per 2×2-tile
    // group, masked per-tile lists). The per-tile schedule read back from
    // those counters must be the independent oracle's (non-empty tiles,
    // Σ list lengths), and the render must match the oracle's output, at
    // every width, on a dense and a sparse set.
    let scene = random_scene(113, 400);
    let cam = camera();
    for pixels in [PixelSet::dense(96, 72), sparse_set()] {
        let lists = oracle_tiles(&scene, &cam, &pixels).lists;
        let per_tile = (
            lists.iter().filter(|l| !l.is_empty()).count() as u64,
            lists.iter().map(|l| l.len() as u64).sum::<u64>(),
        );
        let (want, _) = oracle_tile_forward(&scene, &cam, &pixels);
        for threads in [1, 2, 4] {
            let got = render_forward(&scene, &cam, &pixels, Pipeline::TileBased, &cfg(threads));
            let f = &got.trace.forward;
            assert_eq!(f.per_tile_sort(), per_tile, "{threads} workers");
            assert!(
                f.sort_elems < per_tile.1 && f.sort_lists < per_tile.0,
                "grouping must shrink the sorted lists, {threads} workers"
            );
            assert_eq!(got.color, want.color, "color, {threads} workers");
            assert_eq!(got.contributions, want.contributions, "contribs, {threads}");
        }
    }
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

/// Per-tile depth-sorted lists (depth, then id) of every projected Gaussian
/// whose clamped bbox tile range covers the tile, built here independently
/// of `tilesort`'s grouped build.
fn oracle_tile_lists(
    projected: &[ProjectedGaussian],
    tiles_x: usize,
    tiles_y: usize,
) -> Vec<Vec<u32>> {
    let tile = |v: f64, n: usize| ((v as isize) / TILE as isize).clamp(0, n as isize - 1) as usize;
    let mut lists: Vec<Vec<u32>> = vec![Vec::new(); tiles_x * tiles_y];
    for (pi, pg) in projected.iter().enumerate() {
        let (lo, hi) = pg.bbox();
        for ty in tile(lo.y.floor(), tiles_y)..=tile(hi.y.ceil(), tiles_y) {
            for tx in tile(lo.x.floor(), tiles_x)..=tile(hi.x.ceil(), tiles_x) {
                lists[ty * tiles_x + tx].push(pi as u32);
            }
        }
    }
    for list in &mut lists {
        list.sort_by(|&a, &b| {
            let (pa, pb) = (&projected[a as usize], &projected[b as usize]);
            pa.depth.total_cmp(&pb.depth).then(pa.id.cmp(&pb.id))
        });
    }
    lists
}

/// The tile raster's inputs for the oracles: the projection, the tile
/// lists, and per tile its requested pixels (with output indices) bucketed
/// into warps of 32 row-major lanes.
struct OracleTiles {
    projected: Vec<ProjectedGaussian>,
    culled: u64,
    lists: Vec<Vec<u32>>,
    warps: Vec<Vec<Vec<(PixelCoord, usize)>>>,
}

fn oracle_tiles(scene: &GaussianScene, cam: &Camera, pixels: &PixelSet) -> OracleTiles {
    let (projected, culled) = project_scene(scene, cam, &cfg(0));
    let tiles_x = pixels.width().div_ceil(TILE);
    let tiles_y = pixels.height().div_ceil(TILE);
    let lists = oracle_tile_lists(&projected, tiles_x, tiles_y);
    let mut warps = vec![vec![Vec::new(); TILE * TILE / WARP]; tiles_x * tiles_y];
    for (out_idx, p) in pixels.iter_all().enumerate() {
        let (tx, ty) = (p.x as usize / TILE, p.y as usize / TILE);
        let lane = (p.y as usize % TILE) * TILE + p.x as usize % TILE;
        warps[ty * tiles_x + tx][lane / WARP].push((p, out_idx));
    }
    OracleTiles {
        projected,
        culled,
        lists,
        warps,
    }
}

/// The tile pipeline's forward pass as the per-lane loop it models: every
/// warp steps through its tile's list until all its lanes have terminated,
/// and α-checks each lane with `T ≥ T_min` with a real `exp` — no bbox
/// shortcut, per lane or per warp. The sort-schedule counters are left zero
/// (`grouped_sort_matches_per_tile_oracle` covers them). Also returns the
/// contribution lists as nested per-pixel vectors.
fn oracle_tile_forward(
    scene: &GaussianScene,
    cam: &Camera,
    pixels: &PixelSet,
) -> (ForwardResult, Vec<Vec<Contribution>>) {
    use splatonic_render::trace::bytes;
    let tiles = oracle_tiles(scene, cam, pixels);
    let n = pixels.len();
    let mut out = ForwardResult {
        color: vec![BACKGROUND; n],
        depth: vec![0.0; n],
        final_transmittance: vec![1.0; n],
        contributions: PixelLists::default(),
        // The oracle builds no tile lists of its own to hand over; the
        // backward rows pair its contributions with a tile render's lists.
        handoff: Handoff::Pixel(Vec::new()),
        trace: RenderTrace::new(),
    };
    let mut nested: Vec<Vec<Contribution>> = vec![Vec::new(); n];
    let f = &mut out.trace.forward;
    let tile_pairs: u64 = tiles.lists.iter().map(|l| l.len() as u64).sum();
    f.gaussians_input = scene.len() as u64;
    f.gaussians_culled = tiles.culled;
    f.gaussians_projected = tiles.projected.len() as u64;
    f.tile_pairs = tile_pairs;
    f.bytes_read = scene.len() as u64 * bytes::GAUSSIAN + tile_pairs * bytes::PAIR_ENTRY;
    f.bytes_written =
        (tiles.projected.len() as u64) * bytes::PROJECTED + tile_pairs * bytes::PAIR_ENTRY;
    f.pixels_shaded = n as u64;
    for (list, warps) in tiles.lists.iter().zip(&tiles.warps) {
        if list.is_empty() || warps.iter().all(Vec::is_empty) {
            continue;
        }
        f.bytes_read += list.len() as u64 * bytes::PROJECTED;
        for members in warps.iter().filter(|m| !m.is_empty()) {
            let mut state = vec![(Vec3::ZERO, 0.0, 1.0); members.len()];
            let mut live = members.len();
            for &pi in list {
                if live == 0 {
                    break;
                }
                f.warp_steps += 1;
                let pg = &tiles.projected[pi as usize];
                for (mi, &(p, out_idx)) in members.iter().enumerate() {
                    let (c, d, t) = state[mi];
                    if t < TRANSMITTANCE_MIN {
                        continue;
                    }
                    f.raster_alpha_checks += 1;
                    f.exp_evals += 1;
                    let (alpha, _) = alpha_at(pg, p.center());
                    if alpha < ALPHA_THRESHOLD {
                        continue;
                    }
                    f.warp_active += 1;
                    f.pairs_integrated += 1;
                    nested[out_idx].push(Contribution {
                        gaussian: pg.id,
                        alpha,
                        transmittance: t,
                    });
                    let nt = t * (1.0 - alpha);
                    state[mi] = (c + pg.color * (t * alpha), d + pg.depth * (t * alpha), nt);
                    if nt < TRANSMITTANCE_MIN {
                        live -= 1;
                    }
                }
            }
            for (&(_, out_idx), &(c, d, t)) in members.iter().zip(&state) {
                out.color[out_idx] = c;
                out.depth[out_idx] = d;
                out.final_transmittance[out_idx] = t;
                f.bytes_written += bytes::PIXEL_OUT;
            }
        }
    }
    for contribs in &nested {
        f.pixel_list_len.push(contribs.len() as f64);
    }
    out.contributions = PixelLists::from_lists(&nested);
    (out, nested)
}

/// The tile pipeline's backward trace as the per-lane cursor walk it
/// models: every warp steps through its tile's whole list, each lane whose
/// cursor has not reached the end of its contribution list is α-checked, and
/// the cursor advances where the Gaussian matches. Gradients go through the
/// scalar `pixel_backward` into one accumulator. Also returns how many lanes
/// stalled (a contribution the walk never reaches).
fn oracle_tile_backward(
    scene: &GaussianScene,
    cam: &Camera,
    pixels: &PixelSet,
    fwd: &ForwardResult,
    lg: &[LossGrad],
) -> (RenderTrace, u64) {
    use splatonic_render::trace::bytes;
    let tiles = oracle_tiles(scene, cam, pixels);
    let mut proj_of_id = vec![usize::MAX; scene.len()];
    for (pi, pg) in tiles.projected.iter().enumerate() {
        proj_of_id[pg.id as usize] = pi;
    }
    let lookup = |id: u32| tiles.projected[proj_of_id[id as usize]];
    let mut acc = CamGradAccumulator::new(scene.len());
    let mut trace = RenderTrace::new();
    let b = &mut trace.backward;
    let tile_pairs: u64 = tiles.lists.iter().map(|l| l.len() as u64).sum();
    b.bytes_read = tile_pairs * bytes::PAIR_ENTRY + tiles.projected.len() as u64 * bytes::PROJECTED;
    let mut stalls = 0;
    for (list, warps) in tiles.lists.iter().zip(&tiles.warps) {
        if list.is_empty() {
            continue;
        }
        for members in warps.iter().filter(|m| !m.is_empty()) {
            let mut cursors = vec![0usize; members.len()];
            for &pi in list {
                b.warp_steps += 1;
                for (cursor, &(_, out_idx)) in cursors.iter_mut().zip(members) {
                    let contribs = &fwd.contributions[out_idx];
                    if *cursor >= contribs.len() {
                        continue;
                    }
                    b.alpha_checks += 1;
                    b.exp_evals += 1;
                    if contribs[*cursor].gaussian == tiles.projected[pi as usize].id {
                        b.warp_active += 1;
                        *cursor += 1;
                    }
                }
            }
            for (&cursor, &(_, out_idx)) in cursors.iter().zip(members) {
                stalls += u64::from(cursor < fwd.contributions[out_idx].len());
            }
        }
        let mut group: Vec<(PixelCoord, usize)> = warps.concat();
        group.sort_by_key(|&(_, out_idx)| out_idx);
        for (p, out_idx) in group {
            let counts = pixel_backward(
                p.center(),
                &fwd.contributions[out_idx],
                &lookup,
                lg[out_idx].d_color,
                lg[out_idx].d_depth,
                &mut acc,
            );
            b.pairs_grad += counts.pairs;
            b.atomic_adds += counts.atomic_adds;
            b.bytes_written += counts.pairs * bytes::GRADIENT;
        }
    }
    for &id in acc.touched() {
        b.gaussian_touches.push(acc.get(id).count as f64);
    }
    b.gaussians_touched = acc.touched().len() as u64;
    b.reprojections = b.gaussians_touched;
    b.bytes_read += b.gaussians_touched * bytes::GRADIENT;
    b.bytes_written += b.gaussians_touched * bytes::GRADIENT;
    (trace, stalls)
}

/// Asserts the tile pipeline's forward output and full `RenderTrace`, and
/// its backward trace, equal [`oracle_tile_forward`] and
/// [`oracle_tile_backward`] at every equality width in both kernel modes.
/// The backward pass is handed the oracle's forward result at `fwd_cam`
/// (the render pose when `None`). Returns the oracle's forward result at
/// the render pose and its stalled-lane count, for row-specific checks.
fn assert_tile_trace_matches_oracle(
    scene: &GaussianScene,
    pixels: &PixelSet,
    fwd_cam: Option<&Camera>,
) -> (ForwardResult, u64) {
    let cam = camera();
    let (want, _) = oracle_tile_forward(scene, &cam, pixels);
    let other;
    let fwd = match fwd_cam {
        Some(c) => {
            other = oracle_tile_forward(scene, c, pixels).0;
            &other
        }
        None => &want,
    };
    let lg = loss_grads(pixels.len());
    let (want_bwd, stalls) = oracle_tile_backward(scene, &cam, pixels, fwd, &lg);
    assert!(want.trace.forward.warp_steps > 0 && want_bwd.backward.warp_steps > 0);
    for kernels in [KernelMode::Scalar, KernelMode::Simd] {
        for threads in EQUALITY_WIDTHS {
            let config = RenderConfig {
                kernels,
                ..cfg(threads)
            };
            let at = format!("{kernels:?}, {threads} workers");
            let got = render_forward(scene, &cam, pixels, Pipeline::TileBased, &config);
            assert_eq!(got.color, want.color, "color, {at}");
            assert_eq!(got.depth, want.depth, "depth, {at}");
            assert_eq!(
                got.final_transmittance, want.final_transmittance,
                "Γ_final, {at}"
            );
            assert_eq!(got.contributions, want.contributions, "contribs, {at}");
            let mut got_trace = got.trace.clone();
            zero_sort_counters(&mut got_trace);
            assert_eq!(got_trace, want.trace, "forward trace, {at}");
            // The backward pass reads the render's own tile lists, handed
            // `fwd`'s contributions (another pose's when `fwd_cam` is set).
            let handed = ForwardResult {
                contributions: fwd.contributions.clone(),
                ..got
            };
            let (_, _, bwd) = render_backward(
                scene,
                &cam,
                pixels,
                &handed,
                &lg,
                &config,
                GradRequest::Both,
            );
            assert_eq!(bwd, want_bwd, "backward trace, {at}");
        }
    }
    (want, stalls)
}

#[test]
fn tile_trace_matches_oracle_dense() {
    let scene = random_scene(77, 400);
    assert_tile_trace_matches_oracle(&scene, &PixelSet::dense(96, 72), None);
}

#[test]
fn tile_trace_matches_oracle_sparse16() {
    let set = PixelSet::from_tile_chooser(96, 72, 16, |_, _, x0, y0, tw, th| {
        Some(PixelCoord::new((x0 + tw / 2) as u16, (y0 + th / 2) as u16))
    });
    assert_tile_trace_matches_oracle(&random_scene(77, 400), &set, None);
}

#[test]
fn tile_trace_matches_oracle_one_pixel() {
    let set = PixelSet::from_pixels(96, 72, vec![PixelCoord::new(50, 37)]);
    let (want, _) = assert_tile_trace_matches_oracle(&random_scene(77, 400), &set, None);
    assert!(!want.contributions[0].is_empty());
}

#[test]
fn tile_trace_matches_oracle_early_termination() {
    // A near-opaque scene: some lanes fall below `T_min` and drop out of
    // their warps mid-list, so a warp-level reject must count only the
    // lanes still live; others never terminate.
    let mut scene = random_scene(77, 400);
    for i in 0..scene.len() {
        scene.update(i, |g| g.opacity_logit += 4.0);
    }
    let (want, _) = assert_tile_trace_matches_oracle(&scene, &PixelSet::dense(96, 72), None);
    let t = &want.final_transmittance;
    assert!(t.iter().any(|&t| t < TRANSMITTANCE_MIN));
    assert!(t.iter().any(|&t| t >= TRANSMITTANCE_MIN));
}

#[test]
fn tile_backward_trace_matches_oracle_across_poses() {
    // Contributions from a forward pass at another pose are absent from,
    // or out of order in, this pose's tile lists: those lanes' cursors
    // stall and check on every remaining step.
    let moved = Camera::look_at(
        Intrinsics::with_fov(96, 72, 1.2),
        Vec3::new(0.35, -0.2, -0.5),
        Vec3::new(0.0, 0.0, 2.0),
        Vec3::Y,
    );
    let (_, stalls) = assert_tile_trace_matches_oracle(
        &random_scene(77, 400),
        &PixelSet::dense(96, 72),
        Some(&moved),
    );
    assert!(stalls > 0);
}

#[test]
fn flat_lists_match_nested_oracle_lists() {
    // Both pipelines' flat per-chunk lists hold, pixel by pixel, what the
    // oracles build as one vector per pixel, at widths 1, 2 and 4: on the
    // dense set, chunk buffers hold thousands of lists each.
    let scene = random_scene(77, 400);
    let cam = camera();
    for (name, pixels, tiled) in [
        ("sparse", sparse_set(), true),
        ("dense", PixelSet::dense(96, 72), false),
    ] {
        let (_, pixel_want) = oracle_forward(&scene, &cam, &pixels, tiled);
        let (_, tile_want) = oracle_tile_forward(&scene, &cam, &pixels);
        for threads in [1, 2, 4] {
            for (pipeline, want) in [
                (Pipeline::PixelBased, &pixel_want),
                (Pipeline::TileBased, &tile_want),
            ] {
                let got = render_forward(&scene, &cam, &pixels, pipeline, &cfg(threads));
                let at = format!("{name}, {pipeline:?}, {threads} workers");
                assert_lists_match(&got.contributions, want, &at);
                assert_eq!(got.contributions, PixelLists::from_lists(want), "{at}");
            }
        }
    }
}
