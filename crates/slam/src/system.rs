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
use crate::mapping::{map_scene_with_state, seed_scene_from_frame, Keyframe};
use crate::metrics::ate_rmse_cm;
use crate::snapshot::{fnv1a, Snapshot, SnapshotError};
use crate::tracking::{constant_velocity_init, track_frame_with_telemetry};
use crate::Dataset;
use splatonic_math::pool::WorkerStats;
use splatonic_math::Pose;
use splatonic_render::projcache;
use splatonic_render::sampling::MappingStrategy;
use splatonic_render::tilesort;
use splatonic_render::{MappingSampler, Pipeline, RenderConfig, RenderTrace, SamplingStrategy};
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
    /// Post-mapping LOD budget: when nonzero, [`SlamSystem::finalize`]
    /// decimates the scene to at most this many Gaussians
    /// ([`splatonic_scene::lod::decimate`]) *after* the accuracy
    /// evaluation — the reported PSNR measures the full map; the decimated
    /// scene is what callers export or keep serving. `0` (default)
    /// disables the pass. Runs strictly after the last frame, so it is
    /// not result-affecting for tracking/mapping and stays outside the
    /// config fingerprint.
    pub lod_budget: usize,
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
            lod_budget: 0,
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
    /// Execution knobs that are bitwise-transparent by contract are
    /// deliberately excluded — the four render execution knobs
    /// `render.threads`, `render.tile_grouping`, `render.sort_cache` and
    /// `render.kernels` (scalar and SIMD kernels are bit-identical,
    /// DESIGN.md §13), `checkpoint_every`
    /// itself, and `lod_budget` (a post-run pass that never shapes
    /// per-frame results) — so a snapshot taken at one thread width or
    /// kernel mode resumes at any other.
    pub fn fingerprint(&self) -> u64 {
        let mut buf: Vec<u8> = Vec::with_capacity(256);
        let u = |buf: &mut Vec<u8>, v: u64| buf.extend_from_slice(&v.to_le_bytes());
        let f = |buf: &mut Vec<u8>, v: f64| buf.extend_from_slice(&v.to_bits().to_le_bytes());
        let a = &self.algorithm;
        buf.extend_from_slice(format!("{:?}", a.preset).as_bytes());
        u(&mut buf, a.tracking_iters as u64);
        u(&mut buf, a.mapping_iters as u64);
        u(&mut buf, a.mapping_every as u64);
        u(&mut buf, a.keyframe_window as u64);
        u(&mut buf, a.densify_max_per_frame as u64);
        for lr in [
            a.pose_lr,
            a.mean_lr,
            a.scale_lr,
            a.rot_lr,
            a.opacity_lr,
            a.color_lr,
        ] {
            f(&mut buf, lr);
        }
        for w in [
            a.loss.color_weight,
            a.loss.depth_weight,
            a.loss.huber_delta,
            a.loss.huber_delta_depth,
        ] {
            f(&mut buf, w);
        }
        buf.extend_from_slice(format!("{:?}", self.pipeline).as_bytes());
        buf.extend_from_slice(format!("{:?}", self.tracking_sampling).as_bytes());
        u(&mut buf, self.mapping_tile as u64);
        buf.extend_from_slice(format!("{:?}", self.mapping_strategy).as_bytes());
        let r = &self.render;
        for v in [
            r.alpha_threshold,
            r.alpha_max,
            r.transmittance_min,
            r.screen_blur,
            r.bbox_sigma,
            r.near,
            r.background.x,
            r.background.y,
            r.background.z,
        ] {
            f(&mut buf, v);
        }
        u(&mut buf, self.seed);
        u(&mut buf, self.seed_stride as u64);
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
    /// Final scene size (Gaussians), after the optional
    /// [`SlamConfig::lod_budget`] decimation pass.
    pub scene_size: usize,
}

/// In-flight run state: everything that must survive a checkpoint/resume
/// cycle, plus per-process telemetry bracketing that deliberately does not
/// (pool/cache baselines restart at resume — they are side-band stats,
/// outside the bitwise contract).
#[derive(Debug, Clone)]
struct RunState {
    /// Index of the first unprocessed frame.
    next_frame: usize,
    /// Estimated poses for frames `0..next_frame`.
    est_poses: Vec<Pose>,
    /// The keyframe window (owned frames, for mapping).
    keyframes: Vec<Keyframe>,
    /// Dataset frame index of each keyframe (for serialization — snapshots
    /// store indices, not images).
    keyframe_indices: Vec<usize>,
    /// Mapping optimizer state (moments + step count).
    map_adam: AdamVector,
    /// Aggregated tracking trace so far.
    tracking_trace: RenderTrace,
    /// Aggregated mapping trace so far.
    mapping_trace: RenderTrace,
    tracking_iters: usize,
    mapping_iters: usize,
    mapping_invocations: usize,
    /// Per-worker pool activity attributed to *this* run so far (telemetry
    /// only). The pool registry is process-global, so a run-start/run-end
    /// subtraction would absorb every other session's activity when runs
    /// interleave; instead each frame brackets its own window and the
    /// deltas accumulate here.
    pool_accum: Vec<WorkerStats>,
    /// Projection-cache activity attributed to this run, accumulated the
    /// same bracket-by-bracket way (telemetry side-band only).
    cache_accum: projcache::CacheStats,
    /// Sorted-tile-list cache activity attributed to this run (hits,
    /// merges, cold/merged element counts), accumulated like `cache_accum`.
    sort_accum: tilesort::SortStats,
}

/// Adds the per-worker activity since `before` (a
/// [`splatonic_math::pool::worker_stats_snapshot`]) into `accum`,
/// merging by worker slot.
fn accumulate_pool(accum: &mut Vec<WorkerStats>, before: &[WorkerStats]) {
    let after = splatonic_math::pool::worker_stats_snapshot();
    for w in &after {
        let prev = before.iter().find(|b| b.worker == w.worker);
        let delta_ms = w.busy_ms - prev.map_or(0.0, |b| b.busy_ms);
        let delta_chunks = w.chunks.saturating_sub(prev.map_or(0, |b| b.chunks));
        if delta_ms <= 0.0 && delta_chunks == 0 {
            continue;
        }
        if let Some(slot) = accum.iter_mut().find(|a| a.worker == w.worker) {
            slot.busy_ms += delta_ms;
            slot.chunks += delta_chunks;
        } else {
            accum.push(WorkerStats {
                worker: w.worker,
                busy_ms: delta_ms,
                chunks: delta_chunks,
            });
        }
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
        if self.run.is_none() {
            self.init_run(dataset, telemetry);
            return Some(0);
        }
        let t = self.run.as_ref().expect("active run").next_frame;
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
        let mut state = self.run.take().expect("finalize requires an active run");
        let n = state.next_frame;
        assert_eq!(n, dataset.len(), "finalize requires a completed run");
        let ate_cm = ate_rmse_cm(&state.est_poses, &dataset.gt_poses[..n]);
        let psnr = {
            let _span = telemetry.span_flat("psnr_eval");
            // The evaluation renders go through the same pool and cache;
            // bracket them so they attribute to this run too.
            let pool_before = if telemetry.is_enabled() {
                splatonic_math::pool::worker_stats_snapshot()
            } else {
                Vec::new()
            };
            let cache_before = projcache::stats();
            let sort_before = tilesort::stats();
            let v = self.evaluate_psnr(
                dataset,
                &state.est_poses,
                self.config.algorithm.mapping_every,
            );
            state
                .cache_accum
                .add(&projcache::stats().since(&cache_before));
            state.sort_accum.add(&tilesort::stats().since(&sort_before));
            if telemetry.is_enabled() {
                accumulate_pool(&mut state.pool_accum, &pool_before);
            }
            v
        };

        telemetry.record_trace("tracking", &state.tracking_trace);
        telemetry.record_trace("mapping", &state.mapping_trace);
        let cache_run = state.cache_accum;
        telemetry.counter_add("render/cache_hits", cache_run.hits);
        telemetry.counter_add("render/cache_misses", cache_run.misses);
        telemetry.counter_add("render/cache_invalidations", cache_run.invalidations);
        let sort_run = state.sort_accum;
        telemetry.counter_add("render/sort_hits", sort_run.hits);
        telemetry.counter_add("render/sort_misses", sort_run.misses);
        telemetry.counter_add("render/sort_merges", sort_run.merges);
        telemetry.counter_add("render/sort_cold_elems", sort_run.cold_elems);
        telemetry.counter_add("render/sort_merged_elems", sort_run.merged_elems);
        telemetry.counter_add("slam/tracking_iters", state.tracking_iters as u64);
        telemetry.counter_add("slam/mapping_iters", state.mapping_iters as u64);
        telemetry.counter_add("slam/mapping_invocations", state.mapping_invocations as u64);

        // Optional post-mapping LOD pass (after the PSNR evaluation, so the
        // reported accuracy measures the full map). The counter is emitted
        // even when the pass is off — `lod/pruned == 0` distinguishes
        // "nothing pruned" from "telemetry missing" in the report gates.
        let lod = if self.config.lod_budget > 0 {
            let _span = telemetry.span_flat("lod_decimate");
            splatonic_scene::lod::decimate(&mut self.scene, self.config.lod_budget)
        } else {
            splatonic_scene::LodStats {
                kept: self.scene.len(),
                pruned: 0,
            }
        };
        telemetry.counter_add("lod/pruned", lod.pruned as u64);
        telemetry.gauge_set("slam/scene_size", self.scene.len() as f64);
        telemetry.record_pool_worker_deltas(&state.pool_accum);

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

    /// Flushes the session-scoped cache/pool telemetry accumulators into
    /// `telemetry` and resets them.
    ///
    /// Snapshots deliberately exclude execution telemetry (DESIGN.md §12),
    /// so the accumulators would be lost when a serving layer evicts this
    /// system to disk and later resumes it. Evicting callers flush first;
    /// counters are additive, so the flushed amounts plus whatever
    /// [`Self::finalize`] exports after the last resume still cover the
    /// session's whole life. A no-op between runs.
    pub fn flush_counters(&mut self, telemetry: &Telemetry) {
        let Some(state) = self.run.as_mut() else {
            return;
        };
        let cache = state.cache_accum;
        state.cache_accum = projcache::CacheStats::default();
        telemetry.counter_add("render/cache_hits", cache.hits);
        telemetry.counter_add("render/cache_misses", cache.misses);
        telemetry.counter_add("render/cache_invalidations", cache.invalidations);
        let sort = state.sort_accum;
        state.sort_accum = tilesort::SortStats::default();
        telemetry.counter_add("render/sort_hits", sort.hits);
        telemetry.counter_add("render/sort_misses", sort.misses);
        telemetry.counter_add("render/sort_merges", sort.merges);
        telemetry.counter_add("render/sort_cold_elems", sort.cold_elems);
        telemetry.counter_add("render/sort_merged_elems", sort.merged_elems);
        let pool = std::mem::take(&mut state.pool_accum);
        telemetry.record_pool_worker_deltas(&pool);
    }

    /// Serializes the current run state into a [`Snapshot`].
    ///
    /// Between runs (no frame processed yet, or after [`Self::finalize`])
    /// the snapshot carries `next_frame == 0` and the current scene;
    /// resuming it starts a fresh run.
    pub fn checkpoint(&self) -> Snapshot {
        let cfg = &self.config;
        let base = Snapshot {
            seed: cfg.seed,
            config_fingerprint: cfg.fingerprint(),
            next_frame: 0,
            scene_revision: self.scene.revision(),
            gaussians: self.scene.to_vec(),
            est_poses: Vec::new(),
            keyframes: Vec::new(),
            adam_t: 0,
            adam_moments: Vec::new(),
            tracking_iters: 0,
            mapping_iters: 0,
            mapping_invocations: 0,
            tracking_trace: RenderTrace::new(),
            mapping_trace: RenderTrace::new(),
        };
        match &self.run {
            None => base,
            Some(r) => Snapshot {
                next_frame: r.next_frame,
                est_poses: r.est_poses.clone(),
                keyframes: r
                    .keyframe_indices
                    .iter()
                    .zip(r.keyframes.iter())
                    .map(|(&idx, kf)| (idx, kf.pose))
                    .collect(),
                adam_t: r.map_adam.step_count(),
                adam_moments: r.map_adam.scalars().iter().map(|s| s.moments()).collect(),
                tracking_iters: r.tracking_iters,
                mapping_iters: r.mapping_iters,
                mapping_invocations: r.mapping_invocations,
                tracking_trace: r.tracking_trace.clone(),
                mapping_trace: r.mapping_trace.clone(),
                ..base
            },
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
        let run = if snapshot.next_frame == 0 {
            None
        } else {
            let mut keyframes = Vec::with_capacity(snapshot.keyframes.len());
            let mut keyframe_indices = Vec::with_capacity(snapshot.keyframes.len());
            for &(idx, pose) in &snapshot.keyframes {
                keyframes.push(Keyframe {
                    frame: dataset.frames[idx].clone(),
                    pose,
                });
                keyframe_indices.push(idx);
            }
            Some(RunState {
                next_frame: snapshot.next_frame,
                est_poses: snapshot.est_poses.clone(),
                keyframes,
                keyframe_indices,
                map_adam: snapshot.restore_adam(),
                tracking_trace: snapshot.tracking_trace.clone(),
                mapping_trace: snapshot.mapping_trace.clone(),
                tracking_iters: snapshot.tracking_iters,
                mapping_iters: snapshot.mapping_iters,
                mapping_invocations: snapshot.mapping_invocations,
                pool_accum: Vec::new(),
                cache_accum: projcache::CacheStats::default(),
                sort_accum: tilesort::SortStats::default(),
            })
        };
        Ok(SlamSystem {
            config,
            intrinsics,
            scene,
            run,
        })
    }

    /// Anchor-frame processing: pose given, scene seeded from the first
    /// frame's depth, initial mapping to refine the seed. Leaves
    /// `next_frame == 1`.
    fn init_run(&mut self, dataset: &Dataset, telemetry: &Telemetry) {
        // Flat span: aggregates under the verbatim name "frame" (one record
        // per processed frame, anchor included) without nesting the
        // tracking/mapping paths beneath it.
        let _frame = telemetry.span_flat("frame");
        // Bracket this frame's window so the pool's per-worker busy time
        // and the projection-cache deltas attribute to *this* run even when
        // a session manager interleaves several runs on one thread.
        let pool_before = if telemetry.is_enabled() {
            splatonic_math::pool::worker_stats_snapshot()
        } else {
            Vec::new()
        };
        // Projection-cache statistics are thread-local side-band state (not
        // part of the render trace — see `projcache`); bracket each frame
        // with snapshots to accumulate this run's deltas.
        let cache_before = projcache::stats();
        let sort_before = tilesort::stats();
        let cfg = self.config;
        let algo = cfg.algorithm;

        // Anchor: the first pose is given (standard convention) and the
        // scene is seeded from the first frame.
        self.scene = seed_scene_from_frame(
            &dataset.frames[0],
            self.intrinsics,
            dataset.gt_poses[0],
            cfg.seed_stride,
        );
        let mut state = RunState {
            next_frame: 1,
            est_poses: vec![dataset.gt_poses[0]],
            keyframes: vec![Keyframe {
                frame: dataset.frames[0].clone(),
                pose: dataset.gt_poses[0],
            }],
            keyframe_indices: vec![0],
            map_adam: AdamVector::new(0),
            tracking_trace: RenderTrace::new(),
            mapping_trace: RenderTrace::new(),
            tracking_iters: 0,
            mapping_iters: 0,
            mapping_invocations: 0,
            pool_accum: Vec::new(),
            cache_accum: projcache::CacheStats::default(),
            sort_accum: tilesort::SortStats::default(),
        };
        let sampler = MappingSampler::new(cfg.mapping_tile, cfg.mapping_strategy);

        // Initial mapping refines the seeded scene.
        let cache_frame_start = projcache::stats();
        let map0_start = Instant::now();
        let m0 = {
            let _span = telemetry.span("mapping");
            map_scene_with_state(
                &mut self.scene,
                &state.keyframes,
                self.intrinsics,
                &sampler,
                &algo,
                cfg.pipeline,
                &cfg.render,
                cfg.seed,
                &mut state.map_adam,
                telemetry,
            )
        };
        state.mapping_trace.merge(&m0.trace);
        state.mapping_iters += m0.iters;
        state.mapping_invocations += 1;
        if telemetry.is_enabled() {
            let cache_frame = projcache::stats().since(&cache_frame_start);
            telemetry.record_frame(FrameRecord {
                frame_idx: 0,
                track_iters: 0,
                map_invoked: true,
                sampled_pixels: 0, // tracking never runs on the anchor frame
                map_sampled_pixels: m0.sampled_pixels,
                gaussian_count: self.scene.len(),
                cache_hits: cache_frame.hits,
                cache_invalidations: cache_frame.invalidations,
                psnr_db: self.frame_psnr(&dataset.frames[0], state.est_poses[0]),
                ate_so_far_cm: 0.0, // the anchor pose is given
                track_ms: 0.0,
                map_ms: map0_start.elapsed().as_secs_f64() * 1e3,
            });
        }
        state
            .cache_accum
            .add(&projcache::stats().since(&cache_before));
        state.sort_accum.add(&tilesort::stats().since(&sort_before));
        if telemetry.is_enabled() {
            accumulate_pool(&mut state.pool_accum, &pool_before);
        }
        self.run = Some(state);
    }

    /// One loop iteration: track frame `t`, push a keyframe and map on the
    /// `mapping_every` cadence, record the frame.
    fn process_frame(&mut self, dataset: &Dataset, t: usize, telemetry: &Telemetry) {
        let _frame = telemetry.span_flat("frame");
        // Frame-wide attribution window (see `init_run`): deltas taken at
        // the end of this function accumulate into this run's own totals.
        let pool_before = if telemetry.is_enabled() {
            splatonic_math::pool::worker_stats_snapshot()
        } else {
            Vec::new()
        };
        let cache_before = projcache::stats();
        let sort_before = tilesort::stats();
        let cfg = self.config;
        let algo = cfg.algorithm;
        let mut state = self.run.take().expect("active run");
        let sampler = MappingSampler::new(cfg.mapping_tile, cfg.mapping_strategy);

        let prev = state.est_poses[t - 1];
        let prev_prev = if t >= 2 {
            Some(state.est_poses[t - 2])
        } else {
            None
        };
        let init = constant_velocity_init(prev, prev_prev);
        let cache_frame_start = projcache::stats();
        let track_start = Instant::now();
        let out = {
            let _span = telemetry.span("tracking");
            track_frame_with_telemetry(
                &self.scene,
                self.intrinsics,
                init,
                &dataset.frames[t],
                cfg.tracking_sampling,
                cfg.pipeline,
                &algo,
                &cfg.render,
                cfg.seed ^ (t as u64).wrapping_mul(0xA5A5_5A5A),
                telemetry,
            )
        };
        let track_ms = track_start.elapsed().as_secs_f64() * 1e3;
        state.tracking_trace.merge(&out.trace);
        state.tracking_iters += out.iters;
        state.est_poses.push(out.pose);

        let mut map_invoked = false;
        let mut map_ms = 0.0;
        let mut map_sampled_pixels = 0usize;
        if t.is_multiple_of(algo.mapping_every) {
            state.keyframes.push(Keyframe {
                frame: dataset.frames[t].clone(),
                pose: out.pose,
            });
            state.keyframe_indices.push(t);
            if state.keyframes.len() > algo.keyframe_window {
                let cut = state.keyframes.len() - algo.keyframe_window;
                state.keyframes.drain(..cut);
                state.keyframe_indices.drain(..cut);
            }
            let map_start = Instant::now();
            let m = {
                let _span = telemetry.span("mapping");
                map_scene_with_state(
                    &mut self.scene,
                    &state.keyframes,
                    self.intrinsics,
                    &sampler,
                    &algo,
                    cfg.pipeline,
                    &cfg.render,
                    cfg.seed ^ (t as u64).wrapping_mul(0x5A5A_A5A5) ^ 0xF0F0,
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

        if telemetry.is_enabled() {
            let cache_frame = projcache::stats().since(&cache_frame_start);
            telemetry.record_frame(FrameRecord {
                frame_idx: t,
                track_iters: out.iters,
                map_invoked,
                sampled_pixels: out.sampled_pixels,
                map_sampled_pixels,
                gaussian_count: self.scene.len(),
                cache_hits: cache_frame.hits,
                cache_invalidations: cache_frame.invalidations,
                psnr_db: self.frame_psnr(&dataset.frames[t], out.pose),
                ate_so_far_cm: ate_rmse_cm(&state.est_poses, &dataset.gt_poses[..=t]),
                track_ms,
                map_ms,
            });
        }
        state
            .cache_accum
            .add(&projcache::stats().since(&cache_before));
        state.sort_accum.add(&tilesort::stats().since(&sort_before));
        if telemetry.is_enabled() {
            accumulate_pool(&mut state.pool_accum, &pool_before);
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
            "mapping/forward",
            "mapping/backward",
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
        assert_eq!(ra.est_poses, rb.est_poses);
        assert_eq!(ra.ate_cm, rb.ate_cm);
        assert_eq!(ra.tracking_trace, rb.tracking_trace);
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
            let r = run(threads);
            assert_eq!(r1.est_poses, r.est_poses, "{threads} workers");
            assert_eq!(r1.ate_cm.to_bits(), r.ate_cm.to_bits(), "{threads} workers");
            assert_eq!(
                r1.psnr_db.to_bits(),
                r.psnr_db.to_bits(),
                "{threads} workers"
            );
            assert_eq!(r1.tracking_trace, r.tracking_trace, "{threads} workers");
            assert_eq!(r1.mapping_trace, r.mapping_trace, "{threads} workers");
            assert_eq!(r1.scene_size, r.scene_size, "{threads} workers");
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
        assert_eq!(ra.est_poses, rb.est_poses);
        assert_eq!(ra.ate_cm.to_bits(), rb.ate_cm.to_bits());
        assert_eq!(ra.psnr_db.to_bits(), rb.psnr_db.to_bits());
        assert_eq!(ra.tracking_trace, rb.tracking_trace);
        assert_eq!(ra.mapping_trace, rb.mapping_trace);
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
        for kill_after in [1, 4, 8] {
            let mut sys = SlamSystem::new(SlamConfig::default(), d.intrinsics);
            for _ in 0..=kill_after {
                sys.step_frame(&d, &Telemetry::disabled());
            }
            let bytes = sys.checkpoint().to_bytes();
            drop(sys); // the "crash"
            let snap = Snapshot::from_bytes(&bytes).expect("snapshot decodes");
            let mut resumed =
                SlamSystem::resume(SlamConfig::default(), d.intrinsics, &d, &snap).unwrap();
            let r = resumed.run(&d);
            assert_eq!(full.est_poses, r.est_poses, "kill after {kill_after}");
            assert_eq!(full.ate_cm.to_bits(), r.ate_cm.to_bits());
            assert_eq!(full.psnr_db.to_bits(), r.psnr_db.to_bits());
            assert_eq!(full.tracking_trace, r.tracking_trace);
            assert_eq!(full.mapping_trace, r.mapping_trace);
            assert_eq!(full.scene_size, r.scene_size);
        }
    }

    #[test]
    fn run_twice_restarts_from_scratch() {
        // finalize() clears the run state, so a second run() re-anchors and
        // reproduces the first bit-for-bit (the pre-refactor behavior).
        let d = tiny();
        let mut sys = SlamSystem::new(SlamConfig::default(), d.intrinsics);
        let a = sys.run(&d);
        let b = sys.run(&d);
        assert_eq!(a.est_poses, b.est_poses);
        assert_eq!(a.ate_cm.to_bits(), b.ate_cm.to_bits());
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
        b2.render.tile_grouping = false;
        b2.render.sort_cache = false;
        b2.render.kernels = splatonic_render::KernelMode::Scalar;
        b2.checkpoint_every = 5;
        b2.lod_budget = 1000;
        assert_eq!(b.fingerprint(), b2.fingerprint());
        // The densify cap IS result-affecting, so it must separate.
        let mut b3 = b;
        b3.algorithm.densify_max_per_frame = 64;
        assert_ne!(b.fingerprint(), b3.fingerprint());
    }

    #[test]
    fn lod_budget_decimates_after_evaluation() {
        let d = tiny();
        // Baseline run: full scene size and PSNR.
        let mut full_sys = SlamSystem::new(SlamConfig::default(), d.intrinsics);
        let full = full_sys.run(&d);
        assert!(full.scene_size > 50);
        let budget = full.scene_size / 2;
        let telemetry = splatonic_telemetry::Telemetry::enabled();
        let mut sys = SlamSystem::new(
            SlamConfig {
                lod_budget: budget,
                ..SlamConfig::default()
            },
            d.intrinsics,
        );
        let r = sys.run_with_telemetry(&d, &telemetry);
        // Same run bitwise (LOD is post-run): poses and PSNR unchanged.
        assert_eq!(r.est_poses, full.est_poses);
        assert_eq!(r.psnr_db.to_bits(), full.psnr_db.to_bits());
        // Scene decimated to the budget, and the counter reports it.
        assert_eq!(r.scene_size, budget);
        assert_eq!(sys.scene().len(), budget);
        let report = telemetry.finish("lod-test", Default::default());
        let pruned = report
            .counters
            .iter()
            .find(|(n, _)| n == "lod/pruned")
            .map(|(_, v)| *v);
        assert_eq!(pruned, Some((full.scene_size - budget) as u64));
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
}
