//! Randomized property tests over the public API.
//!
//! These check the invariants DESIGN.md §7 calls out: compositing
//! monotonicity, α bounds, SE(3) round-trips, ATE rigid-invariance, pixel-
//! set structure, and the exp-LUT's approximation contract.
//!
//! The harness is hand-rolled on the suite's own deterministic PRNG
//! ([`Rng64`]) instead of an external property-testing crate, so the test
//! suite builds offline. Each property runs a fixed number of cases from a
//! fixed master seed; a failure message includes the case index, which
//! pins down the failing input exactly (case `i` uses seed `MASTER ^ i`).

use splatonic::math::{ExpLut, Pose, Rng64, Se3, Vec3};
use splatonic::render::prelude::*;
use splatonic::scene::{Camera, Gaussian, GaussianScene, Intrinsics};
use splatonic_math::Quat;

const CASES: usize = 48;

/// Runs `f` once per case with a per-case deterministic generator.
fn for_each_case(master_seed: u64, f: impl Fn(usize, &mut Rng64)) {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from_u64(master_seed ^ case as u64);
        f(case, &mut rng);
    }
}

fn small_vec3(rng: &mut Rng64) -> Vec3 {
    Vec3::new(
        rng.gen_range(-1.0..1.0),
        rng.gen_range(-1.0..1.0),
        rng.gen_range(-1.0..1.0),
    )
}

fn arb_gaussian(rng: &mut Rng64) -> Gaussian {
    let offset = small_vec3(rng);
    let scale = Vec3::new(
        rng.gen_range(0.02..0.4),
        rng.gen_range(0.02..0.4),
        rng.gen_range(0.02..0.4),
    );
    let (qx, qy, qz) = (
        rng.gen_range(-1.0..1.0),
        rng.gen_range(-1.0..1.0),
        rng.gen_range(-1.0..1.0),
    );
    let qw = rng.gen_range(0.1..1.0);
    let opacity = rng.gen_range(0.05..0.95);
    let color = Vec3::new(
        rng.gen_range(0.0..1.0),
        rng.gen_range(0.0..1.0),
        rng.gen_range(0.0..1.0),
    );
    let depth = rng.gen_range(1.2..4.0);
    Gaussian::new(
        Vec3::new(offset.x, offset.y, depth),
        scale,
        Quat::new(qw, qx, qy, qz),
        opacity,
        color,
    )
}

fn arb_scene(rng: &mut Rng64, min: usize, max: usize) -> GaussianScene {
    let n = rng.gen_range(min..max);
    (0..n).map(|_| arb_gaussian(rng)).collect()
}

fn arb_pose(rng: &mut Rng64) -> Pose {
    Se3::new(small_vec3(rng) * 3.0, small_vec3(rng)).exp()
}

fn camera() -> Camera {
    Camera::new(Intrinsics::with_fov(48, 36, 1.2), Pose::identity())
}

/// Rendering invariants: Γ ∈ [0,1] and decreasing along each pixel's
/// contribution list, α within (0, α_max], colors finite and bounded.
#[test]
fn forward_render_invariants() {
    for_each_case(0x0BAD_5EED, |case, rng| {
        let scene = arb_scene(rng, 1, 24);
        let cam = camera();
        let pixels = PixelSet::dense(48, 36);
        let cfg = RenderConfig::default();
        let out = render_forward(&scene, &cam, &pixels, Pipeline::PixelBased, &cfg);
        for (i, contribs) in out.contributions.iter().enumerate() {
            let mut prev_t = 1.0f64;
            for c in contribs {
                assert!(
                    c.alpha > 0.0 && c.alpha <= splatonic::render::kernel::ALPHA_MAX + 1e-12,
                    "case {case}: alpha {} out of range",
                    c.alpha
                );
                assert!(
                    c.transmittance <= prev_t + 1e-12,
                    "case {case}: Γ increased"
                );
                assert!(c.transmittance >= 0.0, "case {case}");
                prev_t = c.transmittance;
            }
            assert!(out.final_transmittance[i] >= 0.0, "case {case}");
            assert!(out.final_transmittance[i] <= 1.0 + 1e-12, "case {case}");
            assert!(out.color[i].is_finite(), "case {case}");
            // Composited color of [0,1] sources stays in [0,1] (+bg 0).
            assert!(out.color[i].max_component() <= 1.0 + 1e-9, "case {case}");
        }
    });
}

/// The two pipelines render identical images for arbitrary scenes.
#[test]
fn pipelines_agree() {
    for_each_case(0xA9EE_0001, |case, rng| {
        let scene = arb_scene(rng, 1, 16);
        let cam = camera();
        let pixels = PixelSet::dense(48, 36);
        let cfg = RenderConfig::default();
        let a = render_forward(&scene, &cam, &pixels, Pipeline::TileBased, &cfg);
        let b = render_forward(&scene, &cam, &pixels, Pipeline::PixelBased, &cfg);
        for (ca, cb) in a.color.iter().zip(b.color.iter()) {
            assert!(
                (*ca - *cb).abs().max_component() < 1e-9,
                "case {case}: pipelines diverge"
            );
        }
    });
}

/// SE(3) exp/log round-trip over the tangent space.
#[test]
fn se3_exp_log_round_trip() {
    for_each_case(0x5E30_0C0F, |case, rng| {
        let rho = Vec3::new(
            rng.gen_range(-2.0..2.0),
            rng.gen_range(-2.0..2.0),
            rng.gen_range(-2.0..2.0),
        );
        let phi = small_vec3(rng);
        let xi = Se3::new(rho, phi);
        let back = xi.exp().log();
        assert!((back.rho - xi.rho).norm() < 1e-8, "case {case}");
        assert!((back.phi - xi.phi).norm() < 1e-8, "case {case}");
    });
}

/// ATE is invariant under a global rigid transform of the estimate.
#[test]
fn ate_rigid_invariance() {
    for_each_case(0xA7E0_0123, |case, rng| {
        let jitter = rng.gen_range(0.0..1.0) * 1e-3;
        let gt: Vec<Pose> = (0..12)
            .map(|i| {
                let t = i as f64 * 0.2 + jitter;
                Se3::new(
                    Vec3::new(t.cos(), 0.05 * t, t.sin()),
                    Vec3::new(0.0, 0.1 * t, 0.0),
                )
                .exp()
            })
            .collect();
        let rig = Se3::new(
            small_vec3(rng),
            Vec3::new(
                rng.gen_range(-0.8..0.8),
                rng.gen_range(-0.8..0.8),
                rng.gen_range(-0.8..0.8),
            ),
        )
        .exp();
        let est: Vec<Pose> = gt.iter().map(|p| p.compose(&rig)).collect();
        let ate = splatonic::slam::metrics::ate_rmse_cm(&est, &gt);
        assert!(ate < 1e-3, "case {case}: ATE {ate}");
    });
}

/// The exp LUT approximates exp(-x) within its documented error bound and
/// is monotone non-increasing.
#[test]
fn explut_contract() {
    for_each_case(0xE4B_1007, |case, rng| {
        let lut = ExpLut::default();
        let x = rng.gen_range(0.0..8.0f64);
        let y = rng.gen_range(0.0..8.0f64);
        assert!(
            (lut.eval(x) - (-x).exp()).abs() < 2.5e-3,
            "case {case}: LUT error at {x}"
        );
        let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
        assert!(lut.eval(lo) >= lut.eval(hi) - 1e-12, "case {case}");
    });
}

/// Pixel sets built from a tile chooser keep one in-tile sample per tile
/// and report the exact sampling rate.
#[test]
fn pixelset_tile_structure() {
    for_each_case(0x7115_0CAF, |case, rng| {
        let tile = rng.gen_range(2usize..32);
        let w = rng.gen_range(16usize..120);
        let h = rng.gen_range(16usize..100);
        let set = PixelSet::from_tile_chooser(w, h, tile, |_, _, x0, y0, tw, th| {
            Some(splatonic::render::pixelset::PixelCoord::new(
                (x0 + (tw - 1) / 2) as u16,
                (y0 + (th - 1) / 2) as u16,
            ))
        });
        let tiles = w.div_ceil(tile) * h.div_ceil(tile);
        assert_eq!(set.len(), tiles, "case {case}");
        for p in set.samples() {
            assert!((p.x as usize) < w && (p.y as usize) < h, "case {case}");
        }
        // Every sample sits in a distinct tile.
        let mut seen = std::collections::HashSet::new();
        for p in set.samples() {
            let key = (p.x as usize / tile, p.y as usize / tile);
            assert!(seen.insert(key), "case {case}: two samples in one tile");
        }
    });
}

/// Covariances of arbitrary Gaussians are symmetric positive semi-definite
/// with the expected determinant.
#[test]
fn covariance_is_spd() {
    for_each_case(0xC0F4_0D57, |case, rng| {
        let g = arb_gaussian(rng);
        let c = g.covariance();
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (c.at(i, j) - c.at(j, i)).abs() < 1e-10,
                    "case {case}: asymmetric covariance"
                );
            }
        }
        let s = g.scale();
        let expected_det = (s.x * s.y * s.z).powi(2);
        assert!(c.det() > 0.0, "case {case}");
        assert!(
            (c.det() - expected_det).abs() / expected_det < 1e-6,
            "case {case}: det {} vs {}",
            c.det(),
            expected_det
        );
    });
}

/// A pixel outside a projected Gaussian's bounding box always fails the
/// α-check, which is what lets the renderer skip its `exp` unconditionally
/// (`kernel::BBOX_SIGMA`). Random strongly anisotropic Gaussians
/// under random poses, with means anywhere in the image plus the
/// `0.3·max(W, H)` guard band the frustum cull admits beyond each edge, and
/// pixels from just past a box edge to far outside it.
#[test]
fn alpha_fails_outside_bbox() {
    use splatonic::math::Vec2;
    use splatonic::render::kernel::{alpha_at, project_gaussian, ALPHA_THRESHOLD, BBOX_SIGMA};
    assert!(BBOX_SIGMA * BBOX_SIGMA >= -2.0 * ALPHA_THRESHOLD.ln());
    let (w, h) = (48.0, 36.0);
    let guard = 0.3 * w;
    for_each_case(0xB0B0_0075, |case, rng| {
        let cam = Camera::new(Intrinsics::with_fov(48, 36, 1.2), arb_pose(rng));
        let mut checked = 0;
        for _ in 0..48 {
            let mean = cam.unproject_to_world(
                rng.gen_range(-guard..w + guard),
                rng.gen_range(-guard..h + guard),
                rng.gen_range(0.21..6.0),
            );
            let mut axis = || 10f64.powf(rng.gen_range(-3.0..0.3));
            let scale = Vec3::new(axis(), axis(), axis());
            let rotation = Quat::new(
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            );
            let opacity = rng.gen_range(0.01..1.0);
            let g = Gaussian::new(mean, scale, rotation, opacity, Vec3::splat(0.5));
            let Some(pg) = project_gaussian(&g, 0, &cam) else {
                continue;
            };
            let (lo, hi) = pg.bbox();
            let r = pg.radius.x;
            for _ in 0..16 {
                let past = 10f64.powf(rng.gen_range(-6.0..2.0));
                let along = Vec2::new(
                    rng.gen_range(lo.x - 2.0 * r..hi.x + 2.0 * r),
                    rng.gen_range(lo.y - 2.0 * r..hi.y + 2.0 * r),
                );
                let pixel = match rng.gen_range(0usize..4) {
                    0 => Vec2::new(lo.x - past, along.y),
                    1 => Vec2::new(hi.x + past, along.y),
                    2 => Vec2::new(along.x, lo.y - past),
                    _ => Vec2::new(along.x, hi.y + past),
                };
                if pg.bbox_contains(pixel) {
                    continue; // `past` vanished in rounding
                }
                let (alpha, q) = alpha_at(&pg, pixel);
                assert!(
                    alpha < ALPHA_THRESHOLD,
                    "case {case}: α {alpha} (q {q}) at {pixel:?} outside bbox {lo:?}..{hi:?}"
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "case {case}: no projected Gaussian");
    });
}

/// Empties the thread-local projection and sorted-list caches, so the next
/// render starts cold.
fn clear_caches() {
    splatonic::render::projcache::clear();
    splatonic::render::tilesort::clear();
}

/// The cross-iteration projection cache never changes rendered output:
/// repeated renders (cache hits) are bit-identical to cold renders (both
/// caches emptied first) of the same inputs.
#[test]
fn projection_cache_is_transparent() {
    for_each_case(0xCAC4_E5EED, |case, rng| {
        let scene = arb_scene(rng, 4, 32);
        let cam = camera();
        let cfg = RenderConfig::default();
        let pixels = PixelSet::dense(48, 36);
        let a1 = render_forward(&scene, &cam, &pixels, Pipeline::PixelBased, &cfg);
        let a2 = render_forward(&scene, &cam, &pixels, Pipeline::PixelBased, &cfg);
        clear_caches();
        let b = render_forward(&scene, &cam, &pixels, Pipeline::PixelBased, &cfg);
        assert_eq!(a1.color, b.color, "case {case}: first render");
        assert_eq!(a2.color, b.color, "case {case}: repeat (cached) render");
        assert_eq!(a1.trace, b.trace, "case {case}: trace");
        assert_eq!(a2.trace, b.trace, "case {case}: cached trace");
    });
}

/// The grouped tile sort (one shared depth sort per tile group, per-tile
/// lists recovered by masking, DESIGN.md §16) against an independent
/// per-tile oracle, for arbitrary scenes and poses: the per-tile schedule
/// read back from one render's grouped counters is the oracle's
/// (non-empty tiles, Σ list lengths), the grouped sort never handles more
/// elements, and every pixel's contributions follow its tile's oracle list
/// in order.
#[test]
fn grouped_sort_matches_per_tile_oracle() {
    use splatonic::render::kernel::project_scene;
    use splatonic::render::tile::TILE;
    for_each_case(0x6C0D_5027, |case, rng| {
        let scene = arb_scene(rng, 8, 48);
        let cam = Camera::new(Intrinsics::with_fov(48, 36, 1.2), arb_pose(rng));
        let pixels = PixelSet::dense(48, 36);
        let cfg = RenderConfig::default();
        clear_caches();
        let out = render_forward(&scene, &cam, &pixels, Pipeline::TileBased, &cfg);
        // Oracle: every projected Gaussian in each tile its clamped bbox
        // tile range covers, each tile sorted by (depth, id).
        let (tiles_x, tiles_y) = (48usize.div_ceil(TILE), 36usize.div_ceil(TILE));
        let tile = |v: f64, n: usize| ((v as isize) / TILE as isize).clamp(0, n as isize - 1);
        let (projected, _) = project_scene(&scene, &cam, &cfg);
        let mut lists: Vec<Vec<(f64, u32)>> = vec![Vec::new(); tiles_x * tiles_y];
        for pg in &projected {
            let (lo, hi) = pg.bbox();
            for ty in tile(lo.y.floor(), tiles_y)..=tile(hi.y.ceil(), tiles_y) {
                for tx in tile(lo.x.floor(), tiles_x)..=tile(hi.x.ceil(), tiles_x) {
                    lists[ty as usize * tiles_x + tx as usize].push((pg.depth, pg.id));
                }
            }
        }
        for list in &mut lists {
            list.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        }
        let per_tile = (
            lists.iter().filter(|l| !l.is_empty()).count() as u64,
            lists.iter().map(|l| l.len() as u64).sum::<u64>(),
        );
        let f = &out.trace.forward;
        assert_eq!(f.per_tile_sort(), per_tile, "case {case}: per-tile sort");
        assert!(
            f.sort_elems <= per_tile.1,
            "case {case}: grouped sorted {} elems, per-tile {}",
            f.sort_elems,
            per_tile.1
        );
        for (i, p) in pixels.iter_all().enumerate() {
            let list = &lists[p.y as usize / TILE * tiles_x + p.x as usize / TILE];
            let mut order = list.iter().map(|&(_, id)| id);
            for c in &out.contributions[i] {
                assert!(
                    order.any(|id| id == c.gaussian),
                    "case {case}: pixel {i} leaves its tile's depth order"
                );
            }
        }
    });
    clear_caches();
}

/// The sorted-list cache never changes rendered output: repeated renders
/// (exact hits), small pose steps and scene mutations (cold misses) are all
/// bit-identical to cold renders of the same inputs (both caches emptied
/// before each), forward and backward.
#[test]
fn sort_cache_is_transparent() {
    use splatonic::render::LossGrad;
    for_each_case(0x50CA_C4ED, |case, rng| {
        let mut scene = arb_scene(rng, 8, 40);
        let base = arb_pose(rng);
        // A tracking-shaped walk: repeat pose, two small steps, then a
        // scene mutation followed by one more render at the last pose.
        let step = |p: &Pose, rng: &mut Rng64| {
            p.compose(&Se3::new(small_vec3(rng) * 0.01, small_vec3(rng) * 0.004).exp())
        };
        let mut poses = vec![base, base];
        let s1 = step(&base, rng);
        poses.push(s1);
        poses.push(step(&s1, rng));
        let pixels = PixelSet::dense(48, 36);
        let lg: Vec<LossGrad> = (0..pixels.len())
            .map(|_| LossGrad {
                d_color: small_vec3(rng),
                d_depth: rng.gen_range(-0.5..0.5),
            })
            .collect();
        let mutate = |scene: &mut GaussianScene, rng: &mut Rng64| {
            let i = rng.gen_range(0usize..scene.len());
            let nudge = small_vec3(rng) * 0.05;
            scene.update(i, |g| g.mean += nudge);
        };
        // The cached walk keeps both caches across renders; the cold walk
        // empties both before every render.
        let walk = |scene: &mut GaussianScene, rng: &mut Rng64, cold: bool| {
            clear_caches();
            let cfg = RenderConfig::default();
            let fresh = || {
                if cold {
                    clear_caches();
                }
            };
            let mut outs = Vec::new();
            let mut round = |scene: &GaussianScene, pose: &Pose| {
                let cam = Camera::new(Intrinsics::with_fov(48, 36, 1.2), *pose);
                fresh();
                let f = render_forward(scene, &cam, &pixels, Pipeline::TileBased, &cfg);
                fresh();
                let b = render_backward(
                    scene,
                    &cam,
                    &pixels,
                    &f,
                    &lg,
                    Pipeline::TileBased,
                    &cfg,
                    GradRequest::Both,
                );
                outs.push((f, b));
            };
            for cam_pose in &poses {
                round(scene, cam_pose);
            }
            mutate(scene, rng);
            round(scene, poses.last().unwrap());
            outs
        };
        // Both walks must see the same scene trajectory: clone the scene so
        // each applies the identical mutation from an identical state.
        let mut scene_cold = GaussianScene::from_vec(scene.to_vec());
        let mut rng_cold = Rng64::seed_from_u64(0x50CA_C4ED ^ case as u64 ^ 0xFFFF);
        let mut rng_cached = Rng64::seed_from_u64(0x50CA_C4ED ^ case as u64 ^ 0xFFFF);
        let cached = walk(&mut scene, &mut rng_cached, false);
        let stats = splatonic::render::tilesort::stats();
        assert_eq!(
            stats.hits, 6,
            "case {case}: the repeat and every backward hit"
        );
        assert_eq!(stats.misses, 4, "case {case}: pose steps and the edit miss");
        let cold = walk(&mut scene_cold, &mut rng_cold, true);
        for (i, ((fc, bc), (fx, bx))) in cached.iter().zip(&cold).enumerate() {
            assert_eq!(fc.color, fx.color, "case {case}: render {i} color");
            assert_eq!(
                fc.contributions, fx.contributions,
                "case {case}: render {i} contributions"
            );
            assert_eq!(fc.trace, fx.trace, "case {case}: render {i} trace");
            assert_eq!(bc.0, bx.0, "case {case}: render {i} scene grads");
            assert_eq!(bc.1, bx.1, "case {case}: render {i} pose grad");
            assert_eq!(bc.2, bx.2, "case {case}: render {i} bwd trace");
        }
    });
    clear_caches();
}

/// Snapshot wire-format round trip: encode → decode → re-encode is the
/// byte-identity for arbitrary run state, including non-finite floats
/// (NaN payloads, ±∞, −0.0 travel via `to_bits`, DESIGN.md §12) — and any
/// single corrupted payload byte is rejected by the checksum.
#[test]
fn snapshot_round_trip_is_byte_identity() {
    use splatonic_math::stats::Summary;
    use splatonic_render::RenderTrace;
    use splatonic_slam::snapshot::{Snapshot, SnapshotError, HEADER_LEN};

    for_each_case(0x5A47_500C, |case, rng| {
        let weird = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 1.5e-300];
        let f = |rng: &mut Rng64| {
            if rng.gen_range(0.0..1.0) < 0.15 {
                weird[rng.gen_range(0usize..weird.len())]
            } else {
                rng.gen_range(-1e6..1e6)
            }
        };
        let n_poses = rng.gen_range(1usize..6);
        let mut tracking_trace = RenderTrace::new();
        tracking_trace.forward.pixels_shaded = rng.gen_range(0u64..1 << 40);
        tracking_trace.forward.pixel_list_len =
            Summary::from_parts(rng.gen_range(0usize..99), f(rng), f(rng), f(rng), f(rng));
        tracking_trace.backward.atomic_adds = rng.gen_range(0u64..1 << 40);
        tracking_trace.forward.proj_alpha_checks = rng.gen_range(0u64..u64::MAX);
        tracking_trace.backward.gaussian_touches =
            Summary::from_parts(rng.gen_range(0usize..99), f(rng), f(rng), f(rng), f(rng));
        let snapshot = Snapshot {
            seed: rng.gen_range(0u64..u64::MAX),
            config_fingerprint: rng.gen_range(0u64..u64::MAX),
            next_frame: n_poses,
            scene_revision: rng.gen_range(0u64..1 << 50),
            gaussians: (0..rng.gen_range(0usize..12))
                .map(|_| arb_gaussian(rng))
                .collect(),
            est_poses: (0..n_poses).map(|_| arb_pose(rng)).collect(),
            keyframes: (0..rng.gen_range(0usize..4))
                .map(|_| (rng.gen_range(0usize..n_poses), arb_pose(rng)))
                .collect(),
            adam_t: rng.gen_range(0u64..1 << 50),
            adam_moments: (0..rng.gen_range(0usize..30))
                .map(|_| (f(rng), f(rng)))
                .collect(),
            tracking_iters: rng.gen_range(0usize..1 << 20),
            mapping_iters: rng.gen_range(0usize..1 << 20),
            mapping_invocations: rng.gen_range(0usize..1 << 20),
            tracking_trace,
            mapping_trace: RenderTrace::new(),
        };
        let bytes = snapshot.to_bytes();
        let decoded = Snapshot::from_bytes(&bytes)
            .unwrap_or_else(|e| panic!("case {case}: decode failed: {e}"));
        assert_eq!(
            decoded.to_bytes(),
            bytes,
            "case {case}: re-encode must be byte-identical"
        );
        // Any single payload-byte corruption trips the checksum.
        if bytes.len() > HEADER_LEN {
            let mut corrupt = bytes.clone();
            let i = HEADER_LEN + rng.gen_range(0usize..bytes.len() - HEADER_LEN);
            corrupt[i] ^= 1 + rng.gen_range(0u64..255) as u8;
            assert!(
                matches!(
                    Snapshot::from_bytes(&corrupt),
                    Err(SnapshotError::ChecksumMismatch { .. })
                ),
                "case {case}: flipped payload byte {i} must be rejected"
            );
        }
    });
}

/// The SoA scene store is a lossless transpose of the AoS `Gaussian` list:
/// scattering any list into `GaussianScene` columns and gathering it back
/// must reproduce every field bit-for-bit, in order (DESIGN.md §13). The
/// SIMD kernels rely on this to treat either layout as the same scene.
#[test]
fn scene_soa_aos_round_trip_is_lossless() {
    for_each_case(0x50a0_a05a, |case, rng| {
        let scene = arb_scene(rng, 1, 40);
        let aos = scene.to_vec();
        assert_eq!(aos.len(), scene.len(), "case {case}: length");
        let rebuilt = GaussianScene::from_vec(aos);
        assert_eq!(rebuilt.len(), scene.len(), "case {case}: rebuilt length");
        for (i, (a, b)) in scene.iter().zip(rebuilt.iter()).enumerate() {
            let pairs = [
                (a.mean.x, b.mean.x),
                (a.mean.y, b.mean.y),
                (a.mean.z, b.mean.z),
                (a.log_scale.x, b.log_scale.x),
                (a.log_scale.y, b.log_scale.y),
                (a.log_scale.z, b.log_scale.z),
                (a.opacity_logit, b.opacity_logit),
                (a.color.x, b.color.x),
                (a.color.y, b.color.y),
                (a.color.z, b.color.z),
            ];
            for (k, (fa, fb)) in pairs.into_iter().enumerate() {
                assert_eq!(
                    fa.to_bits(),
                    fb.to_bits(),
                    "case {case}: gaussian {i} field {k}"
                );
            }
            let (qa, qb) = (a.rotation.to_array(), b.rotation.to_array());
            for k in 0..4 {
                assert_eq!(
                    qa[k].to_bits(),
                    qb[k].to_bits(),
                    "case {case}: gaussian {i} rotation[{k}]"
                );
            }
        }
    });
}
