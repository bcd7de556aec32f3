//! Plain timing micro-benchmarks for the hot kernels: both rendering
//! schedules (dense and sparse), the backward pass, the sampling
//! strategies, the loss, and the aggregation-unit simulation.
//!
//! These complement the `figures` binary (which regenerates the paper's
//! modelled results) by measuring the *host* implementation itself. Timing
//! uses telemetry spans (count/mean/p50/p95 per kernel), so the harness has
//! no external dependencies and builds offline.
//!
//! Usage:
//!   kernels [--iters N] [--threads N] [--report out.json]
//!           [--scalar | --simd]
//!           [--trace-out trace.json] [--events-out events.jsonl]
//!
//! `--trace-out` writes a Chrome trace-event JSON (Perfetto-loadable) of
//! the whole run; `--events-out` streams the span/counter records as JSONL
//! (one object per line, flushed per line). Both go through the bench
//! crate's one export path (`cli::Exports`). An unknown flag, a stray
//! argument, or a flag whose value is missing or malformed exits 2 before
//! anything runs.
//!
//! `--threads` sets the render worker-pool width (0 = auto: the
//! `SPLATONIC_THREADS` environment variable, then host parallelism).
//! Results are bit-identical for every value; only wall-clock changes.
//!
//! The forward cases time both schedules on the dense set and on the
//! one-per-16×16-tile sparse set, plus the pixel schedule on a tile-less
//! copy of the sparse set (`pixel_scattered16`), whose pixels are found
//! through the pixel set's cell index instead of its tile slots. The
//! `cache/*` gauges report the projection cache's hits over those cases.
//! The backward cases time the pixel schedule on the sparse set and the
//! tile schedule on the dense set, each on one forward pass's output.
//!
//! The run's `sort/*` gauges record the compared-element counts of a short
//! tracking burst under the tile pipeline's GS-TG-style grouped sort
//! schedule against the per-tile uncached baseline read from the same
//! renders' traces, so a single default run quantifies the sort-work
//! reduction.
//!
//! `--scalar` / `--simd` select the kernel mode (DESIGN.md §13). The two
//! SIMD kernels, projection and per-pixel gradient accumulation, are
//! bit-identical to their scalar oracles, so this is a pure A/B timing
//! switch: the `kernel/project` and `kernel/gradient` micro-spans and the
//! end-to-end forward/backward spans move, nothing else. The active lane
//! width is reported as the `render/simd_lanes` gauge (1 in scalar mode or
//! on hosts without a vector unit). `scripts/bench_record.sh` runs both modes and
//! appends the pair to `BENCH_kernels.json`.

use splatonic::telemetry::{AccuracySummary, Telemetry};
use splatonic_accel::{AggregationConfig, DramModel, FrameWorkload, SplatonicAccel};
use splatonic_bench::cli::{arg_usize, arg_value, positional_args_or_exit, Exports};
use splatonic_render::prelude::*;
use splatonic_render::sampling::{tracking_plan, MappingStrategy};
use splatonic_render::{loss, LossConfig, MappingSampler};
use splatonic_scene::{Camera, Intrinsics, WorldBuilder};
use splatonic_slam::dataset::{Dataset, DatasetConfig};
use std::path::PathBuf;

const W: usize = 96;
const H: usize = 72;

fn bench_scene() -> (splatonic_scene::GaussianScene, Camera) {
    let world = WorldBuilder::new(5)
        .gaussian_spacing(0.25)
        .furniture(3)
        .build();
    let cam = Camera::look_at(
        Intrinsics::with_fov(W, H, 1.25),
        splatonic_math::Vec3::new(0.6, -0.1, -0.4),
        splatonic_math::Vec3::new(0.0, 0.0, 2.2),
        splatonic_math::Vec3::Y,
    );
    (world.scene, cam)
}

fn sparse_set() -> PixelSet {
    PixelSet::from_tile_chooser(W, H, 16, |_, _, x0, y0, tw, th| {
        Some(splatonic_render::pixelset::PixelCoord::new(
            (x0 + tw / 2) as u16,
            (y0 + th / 2) as u16,
        ))
    })
}

fn bench_dataset(name: &str, frames: usize) -> Dataset {
    Dataset::replica_like(
        name,
        9,
        DatasetConfig {
            width: W,
            height: H,
            frames,
            spacing: 0.3,
            fov: 1.25,
            furniture: 2,
            depth_dropout_coverage: 0.9,
        },
    )
}

/// The flags that take a value.
const VALUED_FLAGS: &[&str] = &[
    "--iters",
    "--threads",
    "--report",
    "--trace-out",
    "--events-out",
];

/// The flags that stand alone.
const SWITCHES: &[&str] = &["--scalar", "--simd"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(arg) = positional_args_or_exit(&args, VALUED_FLAGS, SWITCHES).first() {
        eprintln!("unexpected argument {arg}");
        std::process::exit(2);
    }
    let iters = arg_usize(&args, "--iters").unwrap_or(20);
    let report_path = arg_value(&args, "--report");
    let threads = arg_usize(&args, "--threads").unwrap_or(0);
    let mode = if args.iter().any(|a| a == "--scalar") {
        splatonic_render::KernelMode::Scalar
    } else {
        splatonic_render::KernelMode::Simd
    };
    let t = Telemetry::enabled();
    let exports = Exports::begin(
        &t,
        arg_value(&args, "--trace-out").map(PathBuf::from),
        arg_value(&args, "--events-out").map(PathBuf::from),
    )
    .unwrap_or_else(|e| fail(&e));
    let pool_stats_before = splatonic::pool::worker_stats_snapshot();

    // Forward kernels: schedule × density.
    let (scene, cam) = bench_scene();
    let cfg = RenderConfig {
        threads,
        kernels: mode,
    };
    let lanes = if mode.simd_active() {
        splatonic_render::simd::lanes()
    } else {
        1
    };
    t.gauge_set("render/simd_lanes", lanes as f64);
    eprintln!("[kernels] kernel mode: {} ({lanes} lane(s))", mode.label());
    let dense = PixelSet::dense(W, H);
    let sparse = sparse_set();
    let scattered = PixelSet::from_pixels(W, H, sparse.iter_all().collect());
    let forward_cases: [(&str, Pipeline, &PixelSet); 5] = [
        ("tile_dense", Pipeline::TileBased, &dense),
        ("pixel_dense", Pipeline::PixelBased, &dense),
        ("tile_sparse16", Pipeline::TileBased, &sparse),
        ("pixel_sparse16", Pipeline::PixelBased, &sparse),
        ("pixel_scattered16", Pipeline::PixelBased, &scattered),
    ];
    for (name, pipeline, pixels) in forward_cases {
        let _outer = t.span("forward");
        for _ in 0..iters {
            let _span = t.span(name);
            std::hint::black_box(render_forward(&scene, &cam, pixels, pipeline, &cfg));
        }
    }

    let cache_stats = splatonic_render::projcache::stats();
    t.gauge_set("cache/hits", cache_stats.hits as f64);
    t.gauge_set("cache/misses", cache_stats.misses as f64);
    t.gauge_set("cache/invalidations", cache_stats.invalidations as f64);

    // A/B sorted-tile-list accounting on the tile schedule: a short
    // tracking burst (4 nearby poses × 2 Adam iterations, forward +
    // backward) under the grouped schedule, against the per-tile
    // uncached baseline read from the same renders' traces. Without reuse
    // every pass sorts its lists, so each is charged twice (fwd + bwd);
    // the sorted-list cache replays the forward's lists for the backward
    // and for repeat iterations at the same pose, so `sort/realized_elems`
    // counts only the elements sorted cold — once per pose.
    {
        const POSES: usize = 4;
        const ITERS_PER_POSE: usize = 2;
        let pose_cam = |i: usize| {
            Camera::look_at(
                Intrinsics::with_fov(W, H, 1.25),
                splatonic_math::Vec3::new(0.6 + 0.01 * i as f64, -0.1, -0.4),
                splatonic_math::Vec3::new(0.0, 0.0, 2.2),
                splatonic_math::Vec3::Y,
            )
        };
        let grads = vec![
            loss::LossGrad {
                d_color: splatonic_math::Vec3::splat(0.1),
                d_depth: 0.05,
            };
            sparse.len()
        ];

        // Baseline schedule: per-tile sorts, no reuse — each of the
        // 2 × POSES × ITERS_PER_POSE passes sorts every tile list cold.
        // Grouped schedule, realized: the side-band cache stats of the
        // burst.
        splatonic_render::tilesort::clear();
        let sort_before = splatonic_render::tilesort::stats();
        let mut naive_elems = 0u64;
        let mut sched_elems = 0u64;
        let mut group_reuse = 0u64;
        let _outer = t.span("sort_ab");
        for p in 0..POSES {
            let camp = pose_cam(p);
            for _ in 0..ITERS_PER_POSE {
                let _span = t.span("tile_sparse16_iter");
                let out = render_forward(&scene, &camp, &sparse, Pipeline::TileBased, &cfg);
                naive_elems += out.trace.forward.per_tile_sort().1 * 2;
                sched_elems += out.trace.forward.sort_elems * 2;
                group_reuse += out.trace.forward.sort_group_reuse;
                std::hint::black_box(render_backward(
                    &scene,
                    &camp,
                    &sparse,
                    &out,
                    &grads,
                    Pipeline::TileBased,
                    &cfg,
                    GradRequest::Pose,
                ));
            }
        }
        let s = splatonic_render::tilesort::stats().since(&sort_before);
        let realized = s.cold_elems;
        t.gauge_set("sort/naive_elems", naive_elems as f64);
        t.gauge_set("sort/sched_elems", sched_elems as f64);
        t.gauge_set("sort/realized_elems", realized as f64);
        t.gauge_set("sort/group_reuse", group_reuse as f64);
        t.gauge_set("sort/hits", s.hits as f64);
        t.gauge_set("sort/misses", s.misses as f64);
        let reduction = naive_elems as f64 / realized.max(1) as f64;
        t.gauge_set("sort/elems_reduction", reduction);
        eprintln!(
            "[kernels] tile sort burst: per-tile uncached {naive_elems} elems \
             vs realized {realized} ({reduction:.1}x reduction)"
        );
    }

    // Backward kernels, each on the output of one forward pass at the same
    // pose and asking for the gradient half its caller uses: the sparse
    // pixel-based and dense tile tracking shapes (pose), and the dense
    // pixel-based mapping iteration 0 (scene).
    {
        let backward_cases: [(&str, Pipeline, &PixelSet, GradRequest); 3] = [
            (
                "pixel_sparse16",
                Pipeline::PixelBased,
                &sparse,
                GradRequest::Pose,
            ),
            ("tile_dense", Pipeline::TileBased, &dense, GradRequest::Pose),
            (
                "pixel_dense",
                Pipeline::PixelBased,
                &dense,
                GradRequest::Scene,
            ),
        ];
        for (name, pipeline, pixels, want) in backward_cases {
            let out = render_forward(&scene, &cam, pixels, pipeline, &cfg);
            let grads = vec![
                loss::LossGrad {
                    d_color: splatonic_math::Vec3::splat(0.1),
                    d_depth: 0.05,
                };
                pixels.len()
            ];
            let _outer = t.span("backward");
            for _ in 0..iters {
                let _span = t.span(name);
                std::hint::black_box(render_backward(
                    &scene, &cam, pixels, &out, &grads, pipeline, &cfg, want,
                ));
            }
        }
    }

    // Per-kernel microbenches in the selected kernel mode. Each span times
    // ONE of the two vector kernels in isolation so `BENCH_kernels.json`
    // records where the scalar-vs-SIMD speedup comes from, not just the
    // end-to-end delta. Both modes run identical workloads (the SIMD kernels
    // are bit-exact replicas of the scalar oracles), so the span ratio IS
    // the speedup.
    {
        use splatonic_math::{Vec2, Vec3};
        use splatonic_render::grad::{pixel_backward, CamGradAccumulator};
        use splatonic_render::kernel::{project_scene, sort_by_depth};
        use splatonic_render::simd::{self, ProjectedSoA};

        let simd_on = cfg.kernels.simd_active();
        let (mut projected, _) = project_scene(&scene, &cam, &cfg);
        sort_by_depth(&mut projected);
        let soa = ProjectedSoA::build(&projected);
        let _outer = t.span("kernel");

        // Projection: full scene → screen space.
        for _ in 0..iters {
            let _span = t.span("project");
            std::hint::black_box(project_scene(&scene, &cam, &cfg));
        }

        // Gradient: reverse color integration over every sparse pixel's
        // real contribution list from a forward pass.
        let fwd = render_forward(&scene, &cam, &sparse, Pipeline::PixelBased, &cfg);
        let mut proj_of_id: Vec<u32> = vec![u32::MAX; scene.len()];
        for (pi, pg) in projected.iter().enumerate() {
            proj_of_id[pg.id as usize] = pi as u32;
        }
        let lookup = |id: u32| projected[proj_of_id[id as usize] as usize];
        let mut accum = CamGradAccumulator::new(scene.len());
        let pixels: Vec<Vec2> = sparse.iter_all().map(|p| p.center()).collect();
        for _ in 0..iters {
            let _span = t.span("gradient");
            accum.reset(scene.len());
            for (pi, pixel) in pixels.iter().enumerate() {
                let counts = if simd_on {
                    simd::pixel_backward_simd(
                        *pixel,
                        &fwd.contributions[pi],
                        &soa,
                        &proj_of_id,
                        Vec3::splat(0.1),
                        0.05,
                        &mut accum,
                    )
                } else {
                    pixel_backward(
                        *pixel,
                        &fwd.contributions[pi],
                        &lookup,
                        Vec3::splat(0.1),
                        0.05,
                        &mut accum,
                    )
                };
                std::hint::black_box(counts);
            }
        }
    }

    // Sampling strategies.
    {
        let d = bench_dataset("bench", 2);
        let frame = &d.frames[0];
        let transmittance = splatonic_math::Image::filled(W, H, 0.2);
        let sampler = MappingSampler::new(4, MappingStrategy::Combined);
        let _outer = t.span("sampling");
        for _ in 0..iters {
            {
                let _span = t.span("random_per_tile16");
                std::hint::black_box(tracking_plan(
                    SamplingStrategy::RandomPerTile { tile: 16 },
                    frame,
                    1,
                    None,
                ));
            }
            {
                let _span = t.span("harris_per_tile16");
                std::hint::black_box(tracking_plan(
                    SamplingStrategy::HarrisPerTile { tile: 16 },
                    frame,
                    1,
                    None,
                ));
            }
            {
                let _span = t.span("mapping_combined_w4");
                std::hint::black_box(sampler.build(frame, &transmittance, 1));
            }
        }
    }

    // Dense loss evaluation.
    {
        let out = render_forward(&scene, &cam, &dense, Pipeline::TileBased, &cfg);
        let d = bench_dataset("bench-loss", 1);
        let _outer = t.span("loss");
        for _ in 0..iters {
            let _span = t.span("dense");
            std::hint::black_box(loss::evaluate_loss(
                &out,
                &d.frames[0],
                &dense,
                &LossConfig::default(),
            ));
        }
    }

    // Snapshot wire format: encode + decode of a mid-run checkpoint
    // (DESIGN.md §12). The scene dominates the payload, so this measures
    // the serializer against a realistically sized run state.
    {
        let d = bench_dataset("bench-snap", 4);
        let mut sys =
            splatonic_slam::SlamSystem::new(splatonic_slam::SlamConfig::default(), d.intrinsics);
        let quiet = Telemetry::disabled();
        for _ in 0..3 {
            sys.step_frame(&d, &quiet);
        }
        let snapshot = sys.checkpoint();
        let bytes = snapshot.to_bytes();
        t.gauge_set("snapshot/bytes", bytes.len() as f64);
        t.gauge_set("snapshot/gaussians", snapshot.gaussians.len() as f64);
        let _outer = t.span("snapshot");
        for _ in 0..iters {
            {
                let _span = t.span("encode");
                std::hint::black_box(snapshot.to_bytes());
            }
            {
                let _span = t.span("decode");
                std::hint::black_box(
                    splatonic_slam::Snapshot::from_bytes(&bytes).expect("snapshot decodes"),
                );
            }
        }
    }

    // Aggregation-unit simulation and full accelerator pricing.
    {
        let stream: Vec<Vec<u32>> = (0..2000u32)
            .map(|p| (0..16u32).map(|k| (p / 4) * 8 + k * 37 % 4000).collect())
            .collect();
        let dram = DramModel::lpddr3_1600_x4();
        let workload = FrameWorkload {
            gaussians: 4000,
            projected: 3000,
            proj_alpha_checks: 4 * 3000,
            pairs_kept: 960,
            pixel_lists: vec![20; 48],
            grad_stream: (0..48u32)
                .map(|p| (0..20u32).map(|k| (p * 37 + k * 113) % 4000).collect())
                .collect(),
            fwd_bytes: 300_000,
            bwd_bytes: 50_000,
            pixels: 48,
            ..FrameWorkload::default()
        };
        let _outer = t.span("accel");
        for _ in 0..iters {
            {
                let _span = t.span("aggregation_unit");
                std::hint::black_box(splatonic_accel::aggregation::simulate(
                    &stream,
                    &AggregationConfig::paper(),
                    &dram,
                    500e6,
                ));
            }
            {
                let _span = t.span("price_sparse_iteration");
                std::hint::black_box(SplatonicAccel::paper().price(&workload));
            }
        }
    }

    t.gauge_set(
        "pool/threads",
        splatonic::pool::resolve_threads(threads) as f64,
    );
    t.record_pool_workers(&pool_stats_before);
    let report = t.finish("kernels", AccuracySummary::default());
    print!("{}", report.to_text());
    if let Some(path) = report_path {
        if let Err(e) = report.write_json_file(std::path::Path::new(&path)) {
            fail(&format!("failed to write {path}: {e}"));
        }
        eprintln!("[kernels] report written to {path}");
    }
    match exports.write_trace(&t, &[]) {
        Ok(Some(path)) => eprintln!("[kernels] trace written to {}", path.display()),
        Ok(None) => {}
        Err(e) => fail(&e),
    }
}

fn fail(message: &str) -> ! {
    eprintln!("[kernels] {message}");
    std::process::exit(1);
}
