//! The end-to-end SLAM loop (paper Fig. 1 / Fig. 2).
//!
//! [`SlamSystem::run`] processes an RGB-D sequence: tracking runs on every
//! frame; mapping is invoked every `mapping_every` frames over a keyframe
//! window (mapping `M_t` depends on tracking `T_t`, Fig. 2). The first pose
//! anchors the trajectory (standard SLAM convention) and the scene is seeded
//! from the first frame's depth.
//!
//! The loop is structured as an incremental state machine —
//! [`SlamSystem::step_frame`] processes one frame, [`SlamSystem::finalize`]
//! evaluates the finished trajectory — so a run can be checkpointed after
//! any frame ([`SlamSystem::checkpoint`]) and continued in another process
//! ([`SlamSystem::resume`]) with bitwise-identical results (DESIGN.md §12).

use crate::adam::AdamVector;
use crate::algorithm::AlgorithmConfig;
use crate::mapping::{map_scene, seed_scene_from_frame, Keyframe};
use crate::metrics::ate_rmse_cm;
use crate::snapshot::{fnv1a, Snapshot, SnapshotError};
use crate::tracking::{constant_velocity_init, track_frame};
use crate::Dataset;
use splatonic_math::pool::WorkerStats;
use splatonic_math::Pose;
use splatonic_render::kernel::{
    ALPHA_MAX, ALPHA_THRESHOLD, BACKGROUND, BBOX_SIGMA, NEAR, SCREEN_BLUR, TRANSMITTANCE_MIN,
};
use splatonic_render::projcache;
use splatonic_render::sampling::MappingStrategy;
use splatonic_render::tilesort;
use splatonic_render::{
    LossConfig, MappingSampler, Pipeline, RenderConfig, RenderTrace, SamplingStrategy,
};
use splatonic_scene::{Frame, GaussianScene, Intrinsics};
use splatonic_telemetry::{FrameRecord, Telemetry};
use std::time::Instant;

/// Receives each checkpoint as it is cut: the decoded [`Snapshot`] plus its
/// already-encoded wire bytes (so a file sink never re-encodes). Returning
/// an error aborts the run with that error.
pub type CheckpointSink<'a> = dyn FnMut(&Snapshot, &[u8]) -> Result<(), SnapshotError> + 'a;

/// System-level configuration: which pipeline, which samplers, which
/// algorithm preset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlamConfig {
    /// Algorithm preset configuration.
    pub algorithm: AlgorithmConfig,
    /// Rendering schedule for both processes.
    pub pipeline: Pipeline,
    /// Tracking-time pixel sampling.
    pub tracking_sampling: SamplingStrategy,
    /// Mapping sampler tile edge `w_m`.
    pub mapping_tile: usize,
    /// Mapping sampler strategy variant.
    pub mapping_strategy: MappingStrategy,
    /// Renderer numeric configuration.
    pub render: RenderConfig,
    /// Master seed.
    pub seed: u64,
    /// Seeding stride for the initial back-projection.
    pub seed_stride: usize,
    /// Cut a checkpoint after every this many frames in
    /// [`SlamSystem::run_with_checkpoints`] (`0` disables checkpointing).
    /// Frame 0 (the anchor + initial mapping) always falls on the cadence.
    pub checkpoint_every: usize,
}

impl Default for SlamConfig {
    fn default() -> Self {
        SlamConfig {
            algorithm: AlgorithmConfig::default(),
            pipeline: Pipeline::PixelBased,
            tracking_sampling: SamplingStrategy::RandomPerTile { tile: 16 },
            mapping_tile: 4,
            mapping_strategy: MappingStrategy::Combined,
            render: RenderConfig::default(),
            seed: 0,
            seed_stride: 1,
            checkpoint_every: 0,
        }
    }
}

impl SlamConfig {
    /// The dense baseline: original pipeline, no sparse sampling.
    pub fn dense_baseline(algorithm: AlgorithmConfig) -> Self {
        SlamConfig {
            algorithm,
            pipeline: Pipeline::TileBased,
            tracking_sampling: SamplingStrategy::Dense,
            mapping_strategy: MappingStrategy::RandomOnly,
            mapping_tile: 1,
            ..SlamConfig::default()
        }
    }

    /// The paper's SPLATONIC configuration (sparse sampling + pixel-based
    /// rendering, `w_t = 16`, `w_m = 4`).
    pub fn splatonic(algorithm: AlgorithmConfig) -> Self {
        SlamConfig {
            algorithm,
            ..SlamConfig::default()
        }
    }

    /// "Org.+S": sparse sampling on the unmodified tile-based pipeline.
    pub fn original_plus_sampling(algorithm: AlgorithmConfig) -> Self {
        SlamConfig {
            algorithm,
            pipeline: Pipeline::TileBased,
            ..SlamConfig::default()
        }
    }

    /// Fingerprint of the *result-affecting* configuration, stored in every
    /// [`Snapshot`] so resuming under a different algorithm or sampling
    /// setup is rejected as stale ([`SnapshotError::ConfigMismatch`]).
    ///
    /// Every config struct is destructured with no `..`, so a new field
    /// fails to compile until it is either hashed or bound to `_` as a
    /// bitwise-transparent execution knob. The excluded knobs are all of
    /// `render` — `threads` and `kernels` are execution policy (scalar and
    /// SIMD kernels are bit-identical, DESIGN.md §13) — and
    /// `checkpoint_every` itself, so a snapshot taken at one thread width
    /// or kernel mode resumes at any other. The renderer's constants
    /// (α*, α clamp, T_min, blur, bbox extent, near plane, background) are
    /// still hashed in their historical slots, so stored snapshots keep
    /// their fingerprints.
    pub fn fingerprint(&self) -> u64 {
        let SlamConfig {
            algorithm,
            pipeline,
            tracking_sampling,
            mapping_tile,
            mapping_strategy,
            render,
            seed,
            seed_stride,
            // Cutting a checkpoint never changes the run it snapshots.
            checkpoint_every: _,
        } = self;
        let AlgorithmConfig {
            preset,
            tracking_iters,
            mapping_iters,
            mapping_every,
            keyframe_window,
            pose_lr,
            mean_lr,
            scale_lr,
            rot_lr,
            opacity_lr,
            color_lr,
            loss,
            densify_max_per_frame,
        } = algorithm;
        let LossConfig {
            color_weight,
            depth_weight,
            huber_delta,
            huber_delta_depth,
        } = loss;
        let RenderConfig {
            // Pool width: the renderer is bit-identical at every width.
            threads: _,
            // Scalar and SIMD kernels are bit-identical.
            kernels: _,
        } = render;

        let mut buf: Vec<u8> = Vec::with_capacity(256);
        let u = |buf: &mut Vec<u8>, v: usize| buf.extend_from_slice(&(v as u64).to_le_bytes());
        let f = |buf: &mut Vec<u8>, v: f64| buf.extend_from_slice(&v.to_bits().to_le_bytes());
        buf.extend_from_slice(format!("{preset:?}").as_bytes());
        for v in [
            tracking_iters,
            mapping_iters,
            mapping_every,
            keyframe_window,
            densify_max_per_frame,
        ] {
            u(&mut buf, *v);
        }
        for v in [
            pose_lr,
            mean_lr,
            scale_lr,
            rot_lr,
            opacity_lr,
            color_lr,
            color_weight,
            depth_weight,
            huber_delta,
            huber_delta_depth,
        ] {
            f(&mut buf, *v);
        }
        buf.extend_from_slice(format!("{pipeline:?}").as_bytes());
        buf.extend_from_slice(format!("{tracking_sampling:?}").as_bytes());
        u(&mut buf, *mapping_tile);
        buf.extend_from_slice(format!("{mapping_strategy:?}").as_bytes());
        for v in [
            ALPHA_THRESHOLD,
            ALPHA_MAX,
            TRANSMITTANCE_MIN,
            SCREEN_BLUR,
            BBOX_SIGMA,
            NEAR,
            BACKGROUND.x,
            BACKGROUND.y,
            BACKGROUND.z,
        ] {
            f(&mut buf, v);
        }
        buf.extend_from_slice(&seed.to_le_bytes());
        u(&mut buf, *seed_stride);
        fnv1a(&buf)
    }
}

/// Result of a SLAM run.
#[derive(Debug, Clone)]
pub struct SlamResult {
    /// Estimated world-to-camera poses, one per frame.
    pub est_poses: Vec<Pose>,
    /// Absolute trajectory error versus ground truth (cm).
    pub ate_cm: f64,
    /// Mean PSNR of final-map renders at every `mapping_every`-th estimated
    /// frame pose (dB). Evaluation strides over the whole trajectory —
    /// every `mapping_every`-th frame, whether or not it entered the
    /// keyframe window.
    pub psnr_db: f64,
    /// Aggregated tracking workload trace.
    pub tracking_trace: RenderTrace,
    /// Aggregated mapping workload trace.
    pub mapping_trace: RenderTrace,
    /// Total tracking iterations executed.
    pub tracking_iters: usize,
    /// Total mapping iterations executed.
    pub mapping_iters: usize,
    /// Number of frames processed.
    pub frames: usize,
    /// Number of mapping invocations.
    pub mapping_invocations: usize,
    /// Final scene size (Gaussians).
    pub scene_size: usize,
}

impl SlamResult {
    /// The names of the fields in which `self` and `other` differ: floats
    /// and poses compare by `to_bits`, traces and counts by `==`. Empty
    /// means bitwise identical.
    ///
    /// This is the one statement of the bitwise contract (any thread width,
    /// kill/resume, served or sequential). Both results are destructured
    /// with no `..`, so a new field fails to compile here until it is
    /// compared.
    pub fn bitwise_mismatches(&self, other: &SlamResult) -> Vec<&'static str> {
        let SlamResult {
            est_poses,
            ate_cm,
            psnr_db,
            tracking_trace,
            mapping_trace,
            tracking_iters,
            mapping_iters,
            frames,
            mapping_invocations,
            scene_size,
        } = self;
        let SlamResult {
            est_poses: o_est_poses,
            ate_cm: o_ate_cm,
            psnr_db: o_psnr_db,
            tracking_trace: o_tracking_trace,
            mapping_trace: o_mapping_trace,
            tracking_iters: o_tracking_iters,
            mapping_iters: o_mapping_iters,
            frames: o_frames,
            mapping_invocations: o_mapping_invocations,
            scene_size: o_scene_size,
        } = other;
        let bits = |p: &Pose| {
            let t = p.translation;
            p.rotation
                .m
                .iter()
                .chain([&t.x, &t.y, &t.z])
                .map(|v| v.to_bits())
                .collect::<Vec<u64>>()
        };
        let same_poses = est_poses.len() == o_est_poses.len()
            && est_poses
                .iter()
                .zip(o_est_poses)
                .all(|(a, b)| bits(a) == bits(b));
        [
            ("est_poses", same_poses),
            ("ate_cm", ate_cm.to_bits() == o_ate_cm.to_bits()),
            ("psnr_db", psnr_db.to_bits() == o_psnr_db.to_bits()),
            ("tracking_trace", tracking_trace == o_tracking_trace),
            ("mapping_trace", mapping_trace == o_mapping_trace),
            ("tracking_iters", tracking_iters == o_tracking_iters),
            ("mapping_iters", mapping_iters == o_mapping_iters),
            ("frames", frames == o_frames),
            (
                "mapping_invocations",
                mapping_invocations == o_mapping_invocations,
            ),
            ("scene_size", scene_size == o_scene_size),
        ]
        .into_iter()
        .filter(|&(_, same)| !same)
        .map(|(name, _)| name)
        .collect()
    }
}

/// In-flight run state: everything that must survive a checkpoint/resume
/// cycle. Execution telemetry (pool and cache activity) is not part of it:
/// each [`FrameWindow`] writes its share straight into the run's
/// [`Telemetry`] handle.
#[derive(Debug, Clone, Default)]
struct RunState {
    /// Index of the first unprocessed frame.
    next_frame: usize,
    /// Estimated poses for frames `0..next_frame`.
    est_poses: Vec<Pose>,
    /// The keyframe window as (dataset frame index, estimated pose), the
    /// form [`Snapshot::keyframes`] stores; mapping borrows the frames
    /// from the dataset.
    keyframes: Vec<(usize, Pose)>,
    /// Mapping optimizer state (moments + step count).
    map_adam: AdamVector,
    /// Aggregated tracking trace so far.
    tracking_trace: RenderTrace,
    /// Aggregated mapping trace so far.
    mapping_trace: RenderTrace,
    tracking_iters: usize,
    mapping_iters: usize,
    mapping_invocations: usize,
}

/// The pool, projection-cache and sorted-list-cache activity of one window
/// of a run (a frame, or the final evaluation), outside the bitwise
/// contract. The pool registry is process-global and the caches are
/// thread-local, so a run-start/run-end subtraction would absorb every
/// other session's activity when runs interleave on one thread; each
/// window brackets only this run's own work instead, and its deltas go
/// straight into the run's telemetry. Counters are additive, so nothing is
/// lost when a serving layer evicts the run between windows.
struct FrameWindow {
    pool: Vec<WorkerStats>,
    cache: projcache::CacheStats,
    sort: tilesort::SortStats,
}

impl FrameWindow {
    /// Opens a window, or `None` when `telemetry` records nothing.
    fn open(telemetry: &Telemetry) -> Option<FrameWindow> {
        telemetry.is_enabled().then(|| FrameWindow {
            pool: splatonic_math::pool::worker_stats_snapshot(),
            cache: projcache::stats(),
            sort: tilesort::stats(),
        })
    }

    /// Projection-cache activity since the window opened.
    fn cache_so_far(&self) -> projcache::CacheStats {
        projcache::stats().since(&self.cache)
    }

    /// Adds the window's cache and sort activity to the `render/cache_*`
    /// and `render/sort_*` counters and its pool activity to the
    /// `pool/worker<i>` spans.
    fn close(self, telemetry: &Telemetry) {
        let cache = self.cache_so_far();
        let sort = tilesort::stats().since(&self.sort);
        telemetry.counter_add("render/cache_hits", cache.hits);
        telemetry.counter_add("render/cache_misses", cache.misses);
        telemetry.counter_add("render/cache_invalidations", cache.invalidations);
        telemetry.counter_add("render/sort_hits", sort.hits);
        telemetry.counter_add("render/sort_misses", sort.misses);
        telemetry.counter_add("render/sort_cold_elems", sort.cold_elems);
        telemetry.record_pool_workers(&self.pool);
    }
}

/// The SLAM system state.
#[derive(Debug, Clone)]
pub struct SlamSystem {
    config: SlamConfig,
    intrinsics: Intrinsics,
    scene: GaussianScene,
    run: Option<RunState>,
}

impl SlamSystem {
    /// Creates a system for the given camera.
    pub fn new(config: SlamConfig, intrinsics: Intrinsics) -> Self {
        SlamSystem {
            config,
            intrinsics,
            scene: GaussianScene::new(),
            run: None,
        }
    }

    /// The current reconstructed scene.
    pub fn scene(&self) -> &GaussianScene {
        &self.scene
    }

    /// The configuration.
    pub fn config(&self) -> &SlamConfig {
        &self.config
    }

    /// Runs SLAM over the whole dataset and evaluates against ground truth.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn run(&mut self, dataset: &Dataset) -> SlamResult {
        self.run_with_telemetry(dataset, &Telemetry::disabled())
    }

    /// [`Self::run`] with full instrumentation: `tracking` / `mapping` spans
    /// (render passes nest under them as `forward` / `backward`), one
    /// [`FrameRecord`] per frame including running PSNR and ATE, and the
    /// aggregated workload traces exported as counters.
    ///
    /// Per-frame PSNR/ATE evaluation renders the current map densely, which
    /// real SLAM would not do each frame — it only happens when `telemetry`
    /// is enabled, so the uninstrumented path is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn run_with_telemetry(&mut self, dataset: &Dataset, telemetry: &Telemetry) -> SlamResult {
        self.run_with_checkpoints(dataset, telemetry, &mut |_, _| Ok(()))
            .expect("the no-op checkpoint sink cannot fail")
    }

    /// [`Self::run_with_telemetry`] that additionally cuts a checkpoint
    /// through `sink` after every `checkpoint_every`-th frame (see
    /// [`SlamConfig::checkpoint_every`]; a zero cadence never calls the
    /// sink). Each cut records a `checkpoint` span, bumps the
    /// `slam/checkpoints_written` counter, and sets `slam/snapshot_bytes`.
    ///
    /// Continues a resumed run ([`Self::resume`]) from its first
    /// unprocessed frame instead of starting over.
    ///
    /// # Errors
    ///
    /// Propagates the first error the sink returns.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn run_with_checkpoints(
        &mut self,
        dataset: &Dataset,
        telemetry: &Telemetry,
        sink: &mut CheckpointSink,
    ) -> Result<SlamResult, SnapshotError> {
        assert!(!dataset.is_empty(), "dataset must contain frames");
        let every = self.config.checkpoint_every;
        while let Some(t) = self.step_frame(dataset, telemetry) {
            if every > 0 && t.is_multiple_of(every) {
                self.emit_checkpoint(telemetry, sink)?;
            }
        }
        Ok(self.finalize(dataset, telemetry))
    }

    /// Processes the next unprocessed frame and returns its index, or
    /// `None` when every frame has been processed (call
    /// [`Self::finalize`]). The first call of a fresh run processes the
    /// anchor frame: pose given, scene seeded from depth, initial mapping.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn step_frame(&mut self, dataset: &Dataset, telemetry: &Telemetry) -> Option<usize> {
        assert!(!dataset.is_empty(), "dataset must contain frames");
        let t = self.run.as_ref().map_or(0, |r| r.next_frame);
        if t >= dataset.len() {
            return None;
        }
        self.process_frame(dataset, t, telemetry);
        Some(t)
    }

    /// Evaluates the finished trajectory (ATE, PSNR), exports the
    /// aggregated traces and run counters to telemetry, and clears the run
    /// state so the next [`Self::run`] starts fresh.
    ///
    /// # Panics
    ///
    /// Panics if no run is active (no [`Self::step_frame`] call, or
    /// finalize called twice).
    pub fn finalize(&mut self, dataset: &Dataset, telemetry: &Telemetry) -> SlamResult {
        let _finalize = telemetry.span_flat("finalize");
        let state = self.run.take().expect("finalize requires an active run");
        let n = state.next_frame;
        assert_eq!(n, dataset.len(), "finalize requires a completed run");
        let ate_cm = ate_rmse_cm(&state.est_poses, &dataset.gt_poses[..n]);
        let psnr = {
            let _span = telemetry.span_flat("psnr_eval");
            // The evaluation renders go through the same pool and cache;
            // window them so they attribute to this run too.
            let window = FrameWindow::open(telemetry);
            let v = self.evaluate_psnr(
                dataset,
                &state.est_poses,
                self.config.algorithm.mapping_every,
            );
            if let Some(window) = window {
                window.close(telemetry);
            }
            v
        };

        telemetry.record_trace("tracking", &state.tracking_trace);
        telemetry.record_trace("mapping", &state.mapping_trace);
        telemetry.counter_add("slam/tracking_iters", state.tracking_iters as u64);
        telemetry.counter_add("slam/mapping_iters", state.mapping_iters as u64);
        telemetry.counter_add("slam/mapping_invocations", state.mapping_invocations as u64);
        telemetry.gauge_set("slam/scene_size", self.scene.len() as f64);

        SlamResult {
            est_poses: state.est_poses,
            ate_cm,
            psnr_db: psnr,
            tracking_trace: state.tracking_trace,
            mapping_trace: state.mapping_trace,
            tracking_iters: state.tracking_iters,
            mapping_iters: state.mapping_iters,
            frames: n,
            mapping_invocations: state.mapping_invocations,
            scene_size: self.scene.len(),
        }
    }

    /// Serializes the current run state into a [`Snapshot`].
    ///
    /// Between runs (no frame processed yet, or after [`Self::finalize`])
    /// the snapshot carries `next_frame == 0` and the current scene;
    /// resuming it starts a fresh run.
    pub fn checkpoint(&self) -> Snapshot {
        let idle = RunState::default();
        let r = self.run.as_ref().unwrap_or(&idle);
        Snapshot {
            seed: self.config.seed,
            config_fingerprint: self.config.fingerprint(),
            next_frame: r.next_frame,
            scene_revision: self.scene.revision(),
            gaussians: self.scene.to_vec(),
            est_poses: r.est_poses.clone(),
            keyframes: r.keyframes.clone(),
            adam_t: r.map_adam.step_count(),
            adam_moments: r.map_adam.scalars().iter().map(|s| s.moments()).collect(),
            tracking_iters: r.tracking_iters,
            mapping_iters: r.mapping_iters,
            mapping_invocations: r.mapping_invocations,
            tracking_trace: r.tracking_trace.clone(),
            mapping_trace: r.mapping_trace.clone(),
        }
    }

    /// Encodes the current run state and hands it to `sink`, recording the
    /// `checkpoint` span, the `slam/checkpoints_written` counter, and the
    /// `slam/snapshot_bytes` gauge. [`Self::run_with_checkpoints`] calls
    /// this on the configured cadence; harnesses driving
    /// [`Self::step_frame`] directly (fault injection) call it themselves.
    ///
    /// # Errors
    ///
    /// Propagates the sink's error.
    pub fn emit_checkpoint(
        &self,
        telemetry: &Telemetry,
        sink: &mut CheckpointSink,
    ) -> Result<(), SnapshotError> {
        let _span = telemetry.span("checkpoint");
        let snapshot = self.checkpoint();
        let bytes = snapshot.to_bytes();
        telemetry.counter_add("slam/checkpoints_written", 1);
        telemetry.gauge_set("slam/snapshot_bytes", bytes.len() as f64);
        sink(&snapshot, &bytes)
    }

    /// Reconstructs a mid-run system from a snapshot, validating it against
    /// the configuration and dataset it will continue under. The next
    /// [`Self::run_with_telemetry`] / [`Self::run_with_checkpoints`] /
    /// [`Self::step_frame`] call continues from `snapshot.next_frame`, and
    /// the completed run is bitwise identical to one that was never
    /// interrupted (see `tests/` and `scripts/fault_inject.sh`).
    ///
    /// # Errors
    ///
    /// * [`SnapshotError::ConfigMismatch`] — `config` fingerprints
    ///   differently from the configuration the snapshot was taken under
    ///   (different algorithm, sampling, seed, ...); continuing would
    ///   silently diverge from the original run.
    /// * [`SnapshotError::FrameOutOfRange`] — the snapshot references
    ///   frames past the end of `dataset`.
    /// * [`SnapshotError::Malformed`] — internally inconsistent state
    ///   (trajectory length disagrees with the frame cursor).
    pub fn resume(
        config: SlamConfig,
        intrinsics: Intrinsics,
        dataset: &Dataset,
        snapshot: &Snapshot,
    ) -> Result<SlamSystem, SnapshotError> {
        if snapshot.config_fingerprint != config.fingerprint() {
            return Err(SnapshotError::ConfigMismatch(
                "result-affecting SlamConfig fingerprint",
            ));
        }
        if snapshot.next_frame > dataset.len() {
            return Err(SnapshotError::FrameOutOfRange {
                frame: snapshot.next_frame,
                dataset_len: dataset.len(),
            });
        }
        if snapshot.est_poses.len() != snapshot.next_frame {
            return Err(SnapshotError::Malformed(
                "trajectory length disagrees with next_frame",
            ));
        }
        for &(idx, _) in &snapshot.keyframes {
            if idx >= dataset.len() {
                return Err(SnapshotError::FrameOutOfRange {
                    frame: idx,
                    dataset_len: dataset.len(),
                });
            }
        }
        let scene = snapshot.restore_scene();
        let run = (snapshot.next_frame > 0).then(|| RunState {
            next_frame: snapshot.next_frame,
            est_poses: snapshot.est_poses.clone(),
            keyframes: snapshot.keyframes.clone(),
            map_adam: snapshot.restore_adam(),
            tracking_trace: snapshot.tracking_trace.clone(),
            mapping_trace: snapshot.mapping_trace.clone(),
            tracking_iters: snapshot.tracking_iters,
            mapping_iters: snapshot.mapping_iters,
            mapping_invocations: snapshot.mapping_invocations,
        });
        Ok(SlamSystem {
            config,
            intrinsics,
            scene,
            run,
        })
    }

    /// One loop iteration over frame `t`: estimate its pose, push a
    /// keyframe and map on the `mapping_every` cadence, record the frame.
    ///
    /// Frame 0 is the anchor of a fresh run (standard SLAM convention): its
    /// pose is given, the scene is seeded from its depth instead of
    /// tracked against, and its mapping seed is `cfg.seed` itself.
    fn process_frame(&mut self, dataset: &Dataset, t: usize, telemetry: &Telemetry) {
        // Flat span: aggregates under the verbatim name "frame" (one record
        // per processed frame, anchor included) without nesting the
        // tracking/mapping paths beneath it.
        let _frame = telemetry.span_flat("frame");
        // Window this frame so pool and cache activity attribute to *this*
        // run even when a session manager interleaves several runs on one
        // thread.
        let window = FrameWindow::open(telemetry);
        let cfg = self.config;
        let algo = cfg.algorithm;
        let mut state = self.run.take().unwrap_or_default();
        let frame = &dataset.frames[t];

        let mut track_iters = 0;
        let mut sampled_pixels = 0;
        let mut track_ms = 0.0;
        let pose = if t == 0 {
            self.scene =
                seed_scene_from_frame(frame, self.intrinsics, dataset.gt_poses[0], cfg.seed_stride);
            dataset.gt_poses[0]
        } else {
            let prev_prev = t.checked_sub(2).map(|i| state.est_poses[i]);
            let init = constant_velocity_init(state.est_poses[t - 1], prev_prev);
            let track_start = Instant::now();
            let out = {
                let _span = telemetry.span("tracking");
                track_frame(
                    &self.scene,
                    self.intrinsics,
                    init,
                    frame,
                    cfg.tracking_sampling,
                    cfg.pipeline,
                    &algo,
                    &cfg.render,
                    cfg.seed ^ (t as u64).wrapping_mul(0xA5A5_5A5A),
                    telemetry,
                )
            };
            track_ms = track_start.elapsed().as_secs_f64() * 1e3;
            state.tracking_trace.merge(&out.trace);
            state.tracking_iters += out.iters;
            track_iters = out.iters;
            sampled_pixels = out.sampled_pixels;
            out.pose
        };
        state.est_poses.push(pose);

        let mut map_invoked = false;
        let mut map_ms = 0.0;
        let mut map_sampled_pixels = 0usize;
        if t.is_multiple_of(algo.mapping_every) {
            state.keyframes.push((t, pose));
            if state.keyframes.len() > algo.keyframe_window {
                let cut = state.keyframes.len() - algo.keyframe_window;
                state.keyframes.drain(..cut);
            }
            let keyframes: Vec<Keyframe> = state
                .keyframes
                .iter()
                .map(|&(i, pose)| Keyframe {
                    frame: &dataset.frames[i],
                    pose,
                })
                .collect();
            let seed = if t == 0 {
                cfg.seed
            } else {
                cfg.seed ^ (t as u64).wrapping_mul(0x5A5A_A5A5) ^ 0xF0F0
            };
            let sampler = MappingSampler::new(cfg.mapping_tile, cfg.mapping_strategy);
            let map_start = Instant::now();
            let m = {
                let _span = telemetry.span("mapping");
                map_scene(
                    &mut self.scene,
                    &keyframes,
                    self.intrinsics,
                    &sampler,
                    &algo,
                    cfg.pipeline,
                    &cfg.render,
                    seed,
                    &mut state.map_adam,
                    telemetry,
                )
            };
            map_ms = map_start.elapsed().as_secs_f64() * 1e3;
            map_invoked = true;
            map_sampled_pixels = m.sampled_pixels;
            state.mapping_trace.merge(&m.trace);
            state.mapping_iters += m.iters;
            state.mapping_invocations += 1;
        }

        if let Some(window) = window {
            // The frame's cache delta is read before the telemetry-only
            // PSNR render below, whose lookups the window still counts.
            let cache_frame = window.cache_so_far();
            telemetry.record_frame(FrameRecord {
                frame_idx: t,
                track_iters,
                map_invoked,
                sampled_pixels,
                map_sampled_pixels,
                gaussian_count: self.scene.len(),
                cache_hits: cache_frame.hits,
                cache_invalidations: cache_frame.invalidations,
                psnr_db: self.frame_psnr(frame, pose),
                ate_so_far_cm: if t == 0 {
                    0.0 // the anchor pose is given
                } else {
                    ate_rmse_cm(&state.est_poses, &dataset.gt_poses[..=t])
                },
                track_ms,
                map_ms,
            });
            window.close(telemetry);
        }
        state.next_frame = t + 1;
        self.run = Some(state);
    }

    /// PSNR of the current map rendered densely at `pose` versus `frame`.
    fn frame_psnr(&self, frame: &Frame, pose: Pose) -> f64 {
        crate::metrics::scene_frame_psnr(
            &self.scene,
            self.intrinsics,
            &self.config.render,
            frame,
            pose,
        )
    }

    /// Mean PSNR of final-map renders at every `stride`-th frame pose.
    /// Delegates to [`crate::metrics::evaluate_scene_psnr`] so standalone
    /// pipelines evaluate with identical arithmetic.
    fn evaluate_psnr(&self, dataset: &Dataset, est_poses: &[Pose], stride: usize) -> f64 {
        crate::metrics::evaluate_scene_psnr(
            &self.scene,
            self.intrinsics,
            &self.config.render,
            dataset,
            est_poses,
            stride,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetConfig;

    fn tiny() -> Dataset {
        Dataset::replica_like(
            "sys-test",
            21,
            DatasetConfig {
                width: 64,
                height: 48,
                frames: 9,
                spacing: 0.3,
                fov: 1.25,
                furniture: 2,
                depth_dropout_coverage: 0.9,
            },
        )
    }

    #[test]
    fn slam_runs_end_to_end_sparse() {
        let d = tiny();
        let mut sys = SlamSystem::new(SlamConfig::default(), d.intrinsics);
        let r = sys.run(&d);
        assert_eq!(r.est_poses.len(), 9);
        assert_eq!(r.frames, 9);
        assert!(r.ate_cm.is_finite());
        assert!(
            r.ate_cm < 10.0,
            "sparse SLAM should track within 10 cm on an easy sequence: {} cm",
            r.ate_cm
        );
        assert!(r.psnr_db > 12.0, "PSNR {}", r.psnr_db);
        assert!(r.scene_size > 100);
        assert!(r.tracking_iters > 0 && r.mapping_iters > 0);
        assert!(r.mapping_invocations >= 2);
    }

    #[test]
    fn traces_separate_tracking_and_mapping() {
        let d = tiny();
        let mut sys = SlamSystem::new(SlamConfig::default(), d.intrinsics);
        let r = sys.run(&d);
        assert!(r.tracking_trace.forward.pixels_shaded > 0);
        assert!(r.mapping_trace.forward.pixels_shaded > 0);
        // Mapping renders dense Γ passes, so its per-invocation pixel count
        // is much larger; tracking runs on far sparser sets.
        let track_px = r.tracking_trace.forward.pixels_shaded as f64 / r.tracking_iters as f64;
        let map_px = r.mapping_trace.forward.pixels_shaded as f64 / r.mapping_iters as f64;
        assert!(map_px > track_px);
    }

    #[test]
    fn telemetry_records_spans_frames_and_counters() {
        let d = tiny();
        let mut sys = SlamSystem::new(SlamConfig::default(), d.intrinsics);
        let telemetry = Telemetry::enabled();
        let r = sys.run_with_telemetry(&d, &telemetry);
        let report = telemetry.finish(
            "sys-test",
            splatonic_telemetry::AccuracySummary {
                ate_cm: r.ate_cm,
                psnr_db: r.psnr_db,
                frames: r.frames,
                scene_size: r.scene_size,
            },
        );
        // One record per frame, running metrics populated.
        assert_eq!(report.frames.len(), r.frames);
        // The anchor frame: pose given (no tracking), initial mapping.
        let anchor = &report.frames[0];
        assert_eq!(anchor.frame_idx, 0);
        assert_eq!(anchor.track_iters, 0);
        assert_eq!(anchor.sampled_pixels, 0);
        assert!(anchor.map_invoked);
        assert_eq!(anchor.ate_so_far_cm, 0.0);
        assert_eq!(anchor.track_ms, 0.0);
        assert!(report.frames[1..].iter().all(|f| f.track_iters > 0));
        assert!(report.frames.iter().any(|f| f.map_invoked));
        // Every mapping invocation renders pixels, and that count must reach
        // the frame record (anchor frame included).
        for f in &report.frames {
            if f.map_invoked {
                assert!(
                    f.map_sampled_pixels > 0,
                    "frame {} mapped but reports zero sampled pixels",
                    f.frame_idx
                );
            } else {
                assert_eq!(f.map_sampled_pixels, 0, "frame {}", f.frame_idx);
            }
        }
        assert!(report.frames.last().unwrap().psnr_db.is_finite());
        assert!(report.frames.last().unwrap().ate_so_far_cm.is_finite());
        // Nested spans: render passes under tracking and mapping.
        let span = |p: &str| report.spans.iter().find(|(n, _)| n == p);
        for path in [
            "tracking",
            "tracking/forward",
            "tracking/backward",
            "mapping",
            "mapping/gamma_dense",
            "mapping/densify",
            "mapping/sample",
            "mapping/forward",
            "mapping/backward",
            "mapping/adam",
            "mapping/prune",
        ] {
            assert!(span(path).is_some(), "missing span {path}");
        }
        assert_eq!(span("tracking").unwrap().1.count(), r.frames - 1);
        assert_eq!(span("mapping").unwrap().1.count(), r.mapping_invocations);
        // Flat spans: recorded under their verbatim names (no nesting), with
        // deterministic counts — one "frame" per processed frame, one
        // "finalize" and one "psnr_eval" per run.
        assert_eq!(span("frame").unwrap().1.count(), r.frames);
        assert_eq!(span("finalize").unwrap().1.count(), 1);
        assert_eq!(span("psnr_eval").unwrap().1.count(), 1);
        // Workload counters match the aggregated traces.
        let counter = |n: &str| {
            report
                .counters
                .iter()
                .find(|(name, _)| name == n)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(
            counter("tracking/forward/pixels_shaded"),
            r.tracking_trace.forward.pixels_shaded
        );
        assert_eq!(
            counter("mapping/backward/atomic_adds"),
            r.mapping_trace.backward.atomic_adds
        );
        assert!(counter("mapping/gaussians_densified") > 0);
    }

    #[test]
    fn frame_records_report_exact_sampled_pixels() {
        // satellite of PR 5: `sampled_pixels` must be the tracker's exact
        // total, not a mean×iters reconstruction.
        let d = tiny();
        let mut sys = SlamSystem::new(SlamConfig::default(), d.intrinsics);
        let telemetry = Telemetry::enabled();
        let r = sys.run_with_telemetry(&d, &telemetry);
        let report = telemetry.finish(
            "sys-exact-pixels",
            splatonic_telemetry::AccuracySummary::default(),
        );
        let total: u64 = report.frames.iter().map(|f| f.sampled_pixels as u64).sum();
        assert_eq!(
            total, r.tracking_trace.forward.pixels_shaded,
            "per-frame sampled_pixels must sum to the trace's exact total"
        );
    }

    #[test]
    fn telemetry_does_not_change_results() {
        let d = tiny();
        let mut a = SlamSystem::new(SlamConfig::default(), d.intrinsics);
        let ra = a.run(&d);
        let mut b = SlamSystem::new(SlamConfig::default(), d.intrinsics);
        let rb = b.run_with_telemetry(&d, &Telemetry::enabled());
        assert_eq!(ra.bitwise_mismatches(&rb), Vec::<&str>::new());
    }

    #[test]
    fn slam_results_identical_across_thread_counts() {
        // End-to-end determinism: the whole SLAM loop — sampling, tracking,
        // mapping, densify/prune — must be bit-identical for every worker
        // count (the pool's golden contract, satellite of PR 3).
        let d = tiny();
        let run = |threads: usize| {
            let mut cfg = SlamConfig::default();
            cfg.render.threads = threads;
            SlamSystem::new(cfg, d.intrinsics).run(&d)
        };
        let r1 = run(1);
        for threads in [2, 8] {
            let mismatches = run(threads).bitwise_mismatches(&r1);
            assert!(mismatches.is_empty(), "{threads} workers: {mismatches:?}");
        }
    }

    #[test]
    fn checkpoint_cadence_and_telemetry() {
        let d = tiny();
        let cfg = SlamConfig {
            checkpoint_every: 3,
            ..Default::default()
        };
        let mut sys = SlamSystem::new(cfg, d.intrinsics);
        let telemetry = Telemetry::enabled();
        let mut cuts: Vec<usize> = Vec::new();
        let mut last_bytes = 0usize;
        let r = sys
            .run_with_checkpoints(&d, &telemetry, &mut |snap, bytes| {
                cuts.push(snap.next_frame);
                last_bytes = bytes.len();
                Ok(())
            })
            .expect("run completes");
        // Frames 0, 3, 6 fall on the cadence (9 frames, every 3).
        assert_eq!(cuts, vec![1, 4, 7]);
        assert!(last_bytes > 0);
        assert_eq!(r.frames, 9);
        let report = telemetry.finish("ckpt", splatonic_telemetry::AccuracySummary::default());
        let counter = |n: &str| {
            report
                .counters
                .iter()
                .find(|(name, _)| name == n)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(counter("slam/checkpoints_written"), 3);
        assert!(report.spans.iter().any(|(n, _)| n == "checkpoint"));
        assert!(report
            .gauges
            .iter()
            .any(|(n, v)| n == "slam/snapshot_bytes" && *v > 0.0));
    }

    #[test]
    fn checkpointing_does_not_change_results() {
        let d = tiny();
        let mut plain = SlamSystem::new(SlamConfig::default(), d.intrinsics);
        let ra = plain.run(&d);
        let cfg = SlamConfig {
            checkpoint_every: 2,
            ..Default::default()
        };
        let mut chk = SlamSystem::new(cfg, d.intrinsics);
        let rb = chk
            .run_with_checkpoints(&d, &Telemetry::disabled(), &mut |_, _| Ok(()))
            .unwrap();
        assert_eq!(ra.bitwise_mismatches(&rb), Vec::<&str>::new());
    }

    #[test]
    fn sink_error_aborts_run() {
        let d = tiny();
        let cfg = SlamConfig {
            checkpoint_every: 1,
            ..Default::default()
        };
        let mut sys = SlamSystem::new(cfg, d.intrinsics);
        let err = sys
            .run_with_checkpoints(&d, &Telemetry::disabled(), &mut |_, _| {
                Err(SnapshotError::Io("disk full".into()))
            })
            .expect_err("sink error must propagate");
        assert_eq!(err, SnapshotError::Io("disk full".into()));
    }

    #[test]
    fn resume_rejects_mismatched_config() {
        let d = tiny();
        let mut sys = SlamSystem::new(SlamConfig::default(), d.intrinsics);
        sys.step_frame(&d, &Telemetry::disabled());
        let snap = sys.checkpoint();
        let other = SlamConfig {
            seed: 999,
            ..Default::default()
        };
        let err = SlamSystem::resume(other, d.intrinsics, &d, &snap).expect_err("stale");
        assert!(matches!(err, SnapshotError::ConfigMismatch(_)));
        // Thread width is bitwise-transparent and must NOT be stale.
        let mut wide = SlamConfig::default();
        wide.render.threads = 7;
        assert!(SlamSystem::resume(wide, d.intrinsics, &d, &snap).is_ok());
    }

    #[test]
    fn resume_rejects_out_of_range_frames() {
        let d = tiny();
        let mut sys = SlamSystem::new(SlamConfig::default(), d.intrinsics);
        for _ in 0..5 {
            sys.step_frame(&d, &Telemetry::disabled());
        }
        let mut snap = sys.checkpoint();
        snap.keyframes.push((999, Pose::identity()));
        let err =
            SlamSystem::resume(SlamConfig::default(), d.intrinsics, &d, &snap).expect_err("oob");
        assert!(matches!(err, SnapshotError::FrameOutOfRange { .. }));
    }

    #[test]
    fn kill_and_resume_is_bitwise_identical() {
        // The tentpole contract: stop after frame k, rebuild the system
        // from the snapshot's wire bytes, continue — everything the result
        // carries must be bitwise identical to the uninterrupted run.
        let d = tiny();
        let mut uninterrupted = SlamSystem::new(SlamConfig::default(), d.intrinsics);
        let full = uninterrupted.run(&d);
        for kill_after in [0, 1, 4, 8] {
            let mut sys = SlamSystem::new(SlamConfig::default(), d.intrinsics);
            for _ in 0..=kill_after {
                sys.step_frame(&d, &Telemetry::disabled());
            }
            let bytes = sys.checkpoint().to_bytes();
            drop(sys); // the "crash"
            let snap = Snapshot::from_bytes(&bytes).expect("snapshot decodes");
            let mut resumed =
                SlamSystem::resume(SlamConfig::default(), d.intrinsics, &d, &snap).unwrap();
            let mismatches = resumed.run(&d).bitwise_mismatches(&full);
            assert!(
                mismatches.is_empty(),
                "kill after {kill_after}: {mismatches:?}"
            );
        }
    }

    #[test]
    fn checkpoint_size_does_not_grow_with_renders() {
        // Run-level traces hold fixed-size counters only: merging each
        // trace into itself ten times (1024× the renders) leaves the
        // checkpoint's wire size unchanged.
        let d = tiny();
        let mut sys = SlamSystem::new(SlamConfig::default(), d.intrinsics);
        for _ in 0..3 {
            sys.step_frame(&d, &Telemetry::disabled());
        }
        let mut snap = sys.checkpoint();
        let before = snap.to_bytes().len();
        for _ in 0..10 {
            let tracking = snap.tracking_trace.clone();
            snap.tracking_trace.merge(&tracking);
            let mapping = snap.mapping_trace.clone();
            snap.mapping_trace.merge(&mapping);
        }
        assert_eq!(snap.to_bytes().len(), before);
    }

    #[test]
    fn run_twice_restarts_from_scratch() {
        // finalize() clears the run state, so a second run() re-anchors and
        // reproduces the first bit-for-bit (the pre-refactor behavior).
        let d = tiny();
        let mut sys = SlamSystem::new(SlamConfig::default(), d.intrinsics);
        let a = sys.run(&d);
        let b = sys.run(&d);
        assert_eq!(a.bitwise_mismatches(&b), Vec::<&str>::new());
    }

    #[test]
    fn config_presets_differ() {
        let algo = AlgorithmConfig::default();
        let a = SlamConfig::dense_baseline(algo);
        let b = SlamConfig::splatonic(algo);
        let c = SlamConfig::original_plus_sampling(algo);
        assert_eq!(a.tracking_sampling, SamplingStrategy::Dense);
        assert_eq!(b.pipeline, Pipeline::PixelBased);
        assert_eq!(c.pipeline, Pipeline::TileBased);
        assert!(matches!(
            c.tracking_sampling,
            SamplingStrategy::RandomPerTile { tile: 16 }
        ));
        // Fingerprints separate result-affecting differences...
        assert_ne!(a.fingerprint(), b.fingerprint());
        // ...but ignore bitwise-transparent execution knobs.
        let mut b2 = b;
        b2.render.threads = 13;
        b2.render.kernels = splatonic_render::KernelMode::Scalar;
        b2.checkpoint_every = 5;
        assert_eq!(b.fingerprint(), b2.fingerprint());
        // The densify cap IS result-affecting, so it must separate.
        let mut b3 = b;
        b3.algorithm.densify_max_per_frame = 64;
        assert_ne!(b.fingerprint(), b3.fingerprint());
    }

    #[test]
    fn fingerprint_byte_stream_is_pinned() {
        // Snapshots on disk carry these values: a change to what is hashed,
        // or in which order, makes every stored snapshot stale.
        let splatam = crate::AlgorithmPreset::SplaTam.config();
        assert_eq!(SlamConfig::default().fingerprint(), 0x3615_cb23_ed70_da99);
        assert_eq!(
            SlamConfig::splatonic(splatam).fingerprint(),
            0x3615_cb23_ed70_da99
        );
        assert_eq!(
            SlamConfig::dense_baseline(splatam).fingerprint(),
            0x1c3b_b1bc_9126_4560
        );
    }

    #[test]
    #[should_panic(expected = "must contain frames")]
    fn empty_dataset_panics() {
        let d = tiny();
        let empty = Dataset {
            name: "empty".into(),
            frames: Vec::new(),
            gt_poses: Vec::new(),
            intrinsics: d.intrinsics,
            world: d.world.clone(),
        };
        let mut sys = SlamSystem::new(SlamConfig::default(), d.intrinsics);
        let _ = sys.run(&empty);
    }

    /// Runs the `tiny()` sequence with one degenerate-sensor edit under
    /// both the SPLATONIC and the dense configuration. A degenerate sensor
    /// must degrade accuracy, not crash: the run completes with finite
    /// poses, ATE and PSNR, and the scene grows to at most twice its clean
    /// size.
    fn assert_degrades_gracefully(label: &str, degrade: impl Fn(&mut Dataset)) {
        let algorithm = AlgorithmConfig::default();
        for config in [
            SlamConfig::splatonic(algorithm),
            SlamConfig::dense_baseline(algorithm),
        ] {
            let clean = tiny();
            let clean_size = SlamSystem::new(config, clean.intrinsics)
                .run(&clean)
                .scene_size;
            let mut d = tiny();
            degrade(&mut d);
            let r = SlamSystem::new(config, d.intrinsics).run(&d);
            let mode = format!("{:?}", config.pipeline);
            assert_eq!(r.est_poses.len(), d.len(), "{label}/{mode}");
            for pose in &r.est_poses {
                assert!(
                    pose.translation.is_finite() && pose.rotation.m.iter().all(|v| v.is_finite()),
                    "{label}/{mode}: non-finite pose {pose:?}"
                );
            }
            assert!(r.ate_cm.is_finite(), "{label}/{mode}: ATE {}", r.ate_cm);
            assert!(r.psnr_db.is_finite(), "{label}/{mode}: PSNR {}", r.psnr_db);
            assert!(
                r.scene_size <= 2 * clean_size,
                "{label}/{mode}: scene grew to {} against {clean_size} clean",
                r.scene_size
            );
        }
    }

    #[test]
    fn zero_depth_after_the_anchor_degrades_gracefully() {
        assert_degrades_gracefully("zero depth from frame 1", |d| {
            for f in &mut d.frames[1..] {
                f.depth = f.depth.map(|_| 0.0);
            }
        });
    }

    #[test]
    fn zero_depth_everywhere_degrades_gracefully() {
        // The anchor frame seeds nothing, so every later stage runs on an
        // empty scene.
        assert_degrades_gracefully("zero depth everywhere", |d| {
            for f in &mut d.frames {
                f.depth = f.depth.map(|_| 0.0);
            }
        });
    }

    #[test]
    fn constant_color_frames_degrade_gracefully() {
        assert_degrades_gracefully("constant color", |d| {
            for f in &mut d.frames {
                f.color = f.color.map(|_| splatonic_math::Vec3::splat(0.5));
            }
        });
    }

    #[test]
    fn zero_motion_degrades_gracefully() {
        // Frame 0 and its pose repeated: the sequence never moves.
        assert_degrades_gracefully("zero motion", |d| {
            let (first, pose) = (d.frames[0].clone(), d.gt_poses[0]);
            for (i, (f, p)) in d.frames.iter_mut().zip(&mut d.gt_poses).enumerate() {
                *f = Frame {
                    index: i,
                    ..first.clone()
                };
                *p = pose;
            }
        });
    }

    #[test]
    fn yaw_180_degrades_gracefully() {
        // From mid-sequence on the camera turns half a turn about its own
        // up axis (camera y points down, so the yaw is R_y(π) applied in
        // the camera frame, exact in floating point), and those frames
        // are re-rendered from the world: tracking must jump 180° between
        // two frames that share almost no content.
        assert_degrades_gracefully("180° yaw", |d| {
            let yaw = Pose::new(
                splatonic_math::Mat3::from_rows(
                    splatonic_math::Vec3::new(-1.0, 0.0, 0.0),
                    splatonic_math::Vec3::Y,
                    splatonic_math::Vec3::new(0.0, 0.0, -1.0),
                ),
                splatonic_math::Vec3::ZERO,
            );
            let mid = d.len() / 2;
            for p in &mut d.gt_poses[mid..] {
                *p = yaw.compose(p);
            }
            let frames = crate::dataset::render_sequence(
                &d.world.scene,
                &d.gt_poses[mid..],
                d.intrinsics,
                0.9, // tiny()'s depth_dropout_coverage
            );
            for (i, f) in frames.into_iter().enumerate() {
                d.frames[mid + i] = Frame {
                    index: mid + i,
                    ..f
                };
            }
        });
    }
}
