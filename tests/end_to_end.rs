//! End-to-end integration tests spanning all crates: dataset synthesis →
//! SLAM → evaluation → hardware pricing.

use splatonic::prelude::*;
use splatonic_scene::{ply, GaussianScene};

fn dataset() -> Dataset {
    Dataset::replica_like(
        "e2e",
        31,
        DatasetConfig {
            width: 96,
            height: 72,
            frames: 10,
            spacing: 0.26,
            fov: 1.25,
            furniture: 3,
            depth_dropout_coverage: 0.9,
        },
    )
}

#[test]
fn sparse_slam_tracks_and_reconstructs() {
    let d = dataset();
    let mut sys = SlamSystem::new(
        SlamConfig::splatonic(AlgorithmConfig::default()),
        d.intrinsics,
    );
    let r = sys.run(&d);
    assert!(r.ate_cm < 12.0, "ATE {} cm", r.ate_cm);
    assert!(r.psnr_db > 20.0, "PSNR {} dB", r.psnr_db);
    assert_eq!(r.est_poses.len(), d.len());

    // The asset pipeline on the real map: an exported `.ply` re-encodes
    // bit-identically and the re-imported map still renders the sequence
    // (DESIGN.md §17).
    let bytes = ply::encode_ply(sys.scene());
    let scene = ply::decode_ply(&bytes).expect("exported map decodes");
    assert!(ply::encode_ply(&scene) == bytes, ".ply re-encode differs");
    let render_cfg = sys.config().render;
    let psnr = |scene: &GaussianScene| {
        evaluate_scene_psnr(scene, d.intrinsics, &render_cfg, &d, &r.est_poses, 1)
    };
    let imported = psnr(&scene);
    assert!(imported >= 30.0, "re-imported map PSNR {imported} dB");
}

#[test]
fn sparse_accuracy_is_comparable_to_dense() {
    // The paper's headline accuracy claim: sparse sampling matches the
    // dense baseline (Fig. 17). Allow generous slack — these are short
    // noisy sequences — but sparse must stay in the same accuracy class.
    let d = dataset();
    let dense = SlamSystem::new(
        SlamConfig::dense_baseline(AlgorithmConfig::default()),
        d.intrinsics,
    )
    .run(&d);
    let sparse = SlamSystem::new(
        SlamConfig::splatonic(AlgorithmConfig::default()),
        d.intrinsics,
    )
    .run(&d);
    assert!(
        sparse.ate_cm < dense.ate_cm * 3.0 + 2.0,
        "sparse ATE {} vs dense {}",
        sparse.ate_cm,
        dense.ate_cm
    );
    assert!(
        sparse.psnr_db > dense.psnr_db - 8.0,
        "sparse PSNR {} vs dense {}",
        sparse.psnr_db,
        dense.psnr_db
    );
}

#[test]
fn sparse_renders_far_fewer_pixels() {
    let d = dataset();
    let dense = SlamSystem::new(
        SlamConfig::dense_baseline(AlgorithmConfig::default()),
        d.intrinsics,
    )
    .run(&d);
    let sparse = SlamSystem::new(
        SlamConfig::splatonic(AlgorithmConfig::default()),
        d.intrinsics,
    )
    .run(&d);
    let dense_px = dense.tracking_trace.forward.pixels_shaded;
    let sparse_px = sparse.tracking_trace.forward.pixels_shaded;
    // One pixel per 16x16 tile → ~256× fewer tracking pixels.
    assert!(
        (dense_px as f64 / sparse_px as f64) > 100.0,
        "dense {dense_px} vs sparse {sparse_px}"
    );
}

#[test]
fn slam_is_deterministic() {
    let d = dataset();
    let cfg = SlamConfig::splatonic(AlgorithmConfig::default());
    let a = SlamSystem::new(cfg, d.intrinsics).run(&d);
    let b = SlamSystem::new(cfg, d.intrinsics).run(&d);
    assert_eq!(a.ate_cm, b.ate_cm);
    assert_eq!(a.scene_size, b.scene_size);
    for (pa, pb) in a.est_poses.iter().zip(b.est_poses.iter()) {
        assert_eq!(pa.translation, pb.translation);
    }
}

#[test]
fn kill_and_resume_is_bitwise_identical_across_thread_widths() {
    // Checkpoint/resume contract (DESIGN.md §12): stop after frame k,
    // serialize, decode, resume — at ANY worker width, including a width
    // different from the one the snapshot was taken at — and the completed
    // run must be bitwise identical to an uninterrupted single-width run.
    let d = dataset();
    let cfg_for = |threads: usize| {
        let mut cfg = SlamConfig::splatonic(AlgorithmConfig::default());
        cfg.render.threads = threads;
        cfg
    };
    let full = SlamSystem::new(cfg_for(1), d.intrinsics).run(&d);
    let telemetry = splatonic::telemetry::Telemetry::disabled();
    for kill_after in [2usize, 6] {
        // Take the snapshot at width 1...
        let mut sys = SlamSystem::new(cfg_for(1), d.intrinsics);
        for _ in 0..=kill_after {
            sys.step_frame(&d, &telemetry);
        }
        let bytes = sys.checkpoint().to_bytes();
        drop(sys);
        let snap = splatonic_slam::Snapshot::from_bytes(&bytes).expect("snapshot decodes");
        // ...and resume at widths 1, 4, and 8.
        for threads in [1usize, 4, 8] {
            let mut resumed = SlamSystem::resume(cfg_for(threads), d.intrinsics, &d, &snap)
                .expect("snapshot resumes at any width");
            let r = resumed.run(&d);
            let mismatches = r.bitwise_mismatches(&full);
            assert!(
                mismatches.is_empty(),
                "kill after {kill_after}, {threads} workers: {mismatches:?} differ"
            );
        }
    }
}

#[test]
fn hardware_pricing_end_to_end() {
    use splatonic::harness::{measure_tracking_iteration, TrackingScenario};
    let d = dataset();
    let scenario = TrackingScenario::prepare(&d, 5);
    let sampling = SamplingStrategy::RandomPerTile { tile: 16 };
    let tile = measure_tracking_iteration(&scenario, Pipeline::TileBased, sampling, 1);
    let pixel = measure_tracking_iteration(&scenario, Pipeline::PixelBased, sampling, 1);
    let gpu = HardwareTarget::GpuTile.price(&tile);
    let sw = HardwareTarget::GpuPixel.price(&pixel);
    let hw = HardwareTarget::SplatonicHw.price(&pixel);
    // The paper's hierarchy: HW < SW < GPU-tile time on the same sparse work.
    assert!(hw.seconds < sw.seconds);
    assert!(sw.seconds < gpu.seconds);
    assert!(hw.joules < gpu.joules);
}

#[test]
fn four_algorithm_presets_run() {
    use splatonic_slam::algorithm::AlgorithmPreset;
    let d = Dataset::replica_like(
        "e2e-presets",
        33,
        DatasetConfig {
            width: 64,
            height: 48,
            frames: 6,
            spacing: 0.3,
            fov: 1.25,
            furniture: 2,
            depth_dropout_coverage: 0.9,
        },
    );
    for preset in AlgorithmPreset::all() {
        let mut sys = SlamSystem::new(SlamConfig::splatonic(preset.config()), d.intrinsics);
        let r = sys.run(&d);
        assert!(r.ate_cm.is_finite(), "{} produced NaN ATE", preset.name());
        assert!(r.psnr_db.is_finite());
    }
}

#[test]
fn tum_like_fast_motion_still_tracks() {
    let d = Dataset::tum_like(
        "e2e-tum",
        35,
        DatasetConfig {
            width: 96,
            height: 72,
            frames: 10,
            spacing: 0.26,
            fov: 1.25,
            furniture: 3,
            depth_dropout_coverage: 0.9,
        },
    );
    let mut sys = SlamSystem::new(
        SlamConfig::splatonic(AlgorithmConfig::default()),
        d.intrinsics,
    );
    let r = sys.run(&d);
    // Fast motion is harder (paper Fig. 18 shows larger ATEs on TUM).
    assert!(r.ate_cm < 25.0, "TUM-like ATE {} cm", r.ate_cm);
}
