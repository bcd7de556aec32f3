//! Multi-session SLAM serving layer.
//!
//! SplaTAM-style per-frame track/map loops are embarrassingly parallel
//! *across* sessions — but the repo once could only run one [`SlamSystem`] at a time
//! correctly: the render-phase ring buffer and the pool trace collectors
//! were process-global, so interleaved sessions cross-attributed each
//! other's events. With those session-scoped (run-id-tagged trace events,
//! per-frame counter windows) and a renderer that keeps no state between
//! renders, this module adds the missing piece: a [`SessionManager`] that owns K independent sessions and drives
//! them over the shared deterministic worker pool.
//!
//! # Model
//!
//! Each session is one SLAM run: frames arrive through [`ingest`] into a
//! bounded per-session queue (the tail of the session's growing dataset;
//! past [`ServeConfig::queue_capacity`] pending frames the call reports
//! [`ServeError::Backpressure`] and the producer must retry). [`step`]
//! schedules fairly — round-robin over the sessions with pending frames —
//! and processes exactly one frame on the calling thread; the worker pool
//! fans out *inside* the frame, so parallel hardware is shared by time-
//! slicing sessions at frame granularity, exactly how the paper's
//! accelerator shares its units across stages. Each step runs inside a
//! [`splatonic_math::timebase::run_scope`] carrying the session id, so
//! every trace event the frame produces attributes to its session.
//!
//! Idle sessions are evicted to disk via the PR 5 snapshot format — either
//! explicitly ([`evict`]) or automatically when more than
//! [`ServeConfig::max_resident`] sessions are resident — and resume
//! transparently on their next scheduled frame. Eviction/resume is inside
//! the bitwise contract: a session that ping-pongs to disk produces output
//! bit-identical to one that never left memory (`tests/serve.rs`).
//!
//! Per-session accounting stays meaningful under concurrency because every
//! session owns its own [`Telemetry`] handle: each frame window writes its
//! `pool/worker*` spans and per-frame record straight into that handle
//! (see `system.rs` `FrameWindow`), so it holds only what the session's own
//! frames did, and an eviction has nothing left to flush.
//!
//! [`ingest`]: SessionManager::ingest
//! [`step`]: SessionManager::step
//! [`evict`]: SessionManager::evict

use crate::snapshot::{Snapshot, SnapshotError};
use crate::system::{SlamConfig, SlamResult, SlamSystem};
use crate::Dataset;
use splatonic_math::{timebase, Pose, Vec3};
use splatonic_scene::{Frame, GaussianScene, Intrinsics, SyntheticWorld, WorldStyle};
use splatonic_telemetry::{AccuracySummary, RunReport, SpanEvent, Telemetry};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

/// Serving-layer configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum frames a session may have pending (ingested, not yet
    /// stepped) before [`SessionManager::ingest`] reports
    /// [`ServeError::Backpressure`]. Must be at least 1.
    pub queue_capacity: usize,
    /// Maximum sessions kept resident in memory; past it the least-recently
    /// stepped session is evicted to disk after each step. `0` disables
    /// automatic eviction (explicit [`SessionManager::evict`] still works
    /// when `evict_dir` is set).
    pub max_resident: usize,
    /// Directory for eviction snapshots. Required when `max_resident > 0`
    /// or [`SessionManager::evict`] is used.
    pub evict_dir: Option<PathBuf>,
    /// Give each session an enabled [`Telemetry`] handle (per-frame
    /// records, spans, counters — needed for per-session latency
    /// reporting). Telemetry never changes results (bitwise contract).
    pub telemetry: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 4,
            max_resident: 0,
            evict_dir: None,
            telemetry: true,
        }
    }
}

/// Serving-layer errors.
#[derive(Debug)]
pub enum ServeError {
    /// No session with this id exists (never created, or already finished).
    UnknownSession(u32),
    /// The session's pending queue is full; retry after stepping.
    Backpressure {
        /// Session id.
        session: u32,
        /// Frames currently pending.
        pending: usize,
    },
    /// The session was closed; no further frames may be ingested.
    Closed(u32),
    /// [`SessionManager::finish`] requires [`SessionManager::close`] first.
    NotClosed(u32),
    /// [`SessionManager::finish`] requires every pending frame stepped.
    NotDrained {
        /// Session id.
        session: u32,
        /// Frames still pending.
        pending: usize,
    },
    /// The session never processed a frame; there is nothing to finalize.
    Empty(u32),
    /// Eviction requested but [`ServeConfig::evict_dir`] is unset.
    NoEvictDir,
    /// Snapshot encode/decode/IO failure during eviction or resume.
    Snapshot(SnapshotError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownSession(id) => write!(f, "unknown session {id}"),
            ServeError::Backpressure { session, pending } => {
                write!(f, "session {session} queue full ({pending} pending)")
            }
            ServeError::Closed(id) => write!(f, "session {id} is closed to new frames"),
            ServeError::NotClosed(id) => write!(f, "session {id} must be closed before finish"),
            ServeError::NotDrained { session, pending } => {
                write!(f, "session {session} still has {pending} pending frames")
            }
            ServeError::Empty(id) => write!(f, "session {id} processed no frames"),
            ServeError::NoEvictDir => write!(f, "eviction requires ServeConfig::evict_dir"),
            ServeError::Snapshot(e) => write!(f, "session snapshot failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SnapshotError> for ServeError {
    fn from(e: SnapshotError) -> Self {
        ServeError::Snapshot(e)
    }
}

/// One processed frame, as reported by [`SessionManager::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepReport {
    /// The session that was stepped.
    pub session: u32,
    /// The dataset frame index that was processed.
    pub frame: usize,
}

/// Everything a finished session hands back.
#[derive(Debug)]
pub struct SessionOutcome {
    /// Session id.
    pub id: u32,
    /// Session name (as given to [`SessionManager::create_session`]).
    pub name: String,
    /// The SLAM result — bit-identical to a sequential
    /// [`SlamSystem::run`] over the same frames.
    pub result: SlamResult,
    /// The session's own telemetry report (per-frame records and their
    /// latency quantiles, `slam/*` counters, `pool/worker*` spans).
    pub report: RunReport,
    /// The session's hierarchical span events (run-id tagged), for merged
    /// fleet trace export.
    pub span_events: Vec<SpanEvent>,
    /// Times this session was evicted to disk.
    pub evictions: u64,
    /// Times this session was resumed from disk.
    pub resumes: u64,
}

/// Where a session's [`SlamSystem`] currently lives.
#[derive(Debug)]
enum Residency {
    /// In memory, ready to step.
    Resident(Box<SlamSystem>),
    /// Snapshotted to this file; resumed transparently on the next step.
    Evicted(PathBuf),
}

/// One managed SLAM session.
#[derive(Debug)]
struct Session {
    id: u32,
    name: String,
    config: SlamConfig,
    intrinsics: Intrinsics,
    /// The session's sequence so far: ingested frames + reference poses.
    /// Frames `0..processed` are done; the tail is the pending queue.
    dataset: Dataset,
    /// Frames processed so far (== the system's `next_frame`).
    processed: usize,
    /// Closed sessions accept no further frames.
    closed: bool,
    residency: Residency,
    telemetry: Telemetry,
    /// Global step counter value of this session's most recent step
    /// (recency for the eviction policy).
    last_step: u64,
    evictions: u64,
    resumes: u64,
}

impl Session {
    fn pending(&self) -> usize {
        self.dataset.len() - self.processed
    }
}

/// Session ids are process-unique (not per-manager): they double as trace
/// run ids, and two managers in one process (tests run in parallel) must
/// not cross-attribute events in the shared trace buffers.
static NEXT_SESSION_ID: AtomicU32 = AtomicU32::new(1);

/// Owns K independent SLAM sessions and schedules their frames fairly over
/// the shared worker pool. See the module docs for the serving model.
#[derive(Debug)]
pub struct SessionManager {
    config: ServeConfig,
    sessions: Vec<Session>,
    /// Round-robin scan start for the next [`SessionManager::step`].
    rr_cursor: usize,
    /// Monotonic step counter (recency clock for eviction).
    step_counter: u64,
    frames_total: u64,
    evictions: u64,
    resumes: u64,
}

impl SessionManager {
    /// Creates an empty manager.
    ///
    /// # Panics
    ///
    /// Panics if `queue_capacity == 0`, or if `max_resident > 0` without an
    /// `evict_dir` (automatic eviction would have nowhere to write).
    pub fn new(config: ServeConfig) -> Self {
        assert!(config.queue_capacity > 0, "queue_capacity must be >= 1");
        assert!(
            config.max_resident == 0 || config.evict_dir.is_some(),
            "max_resident > 0 requires ServeConfig::evict_dir"
        );
        SessionManager {
            config,
            sessions: Vec::new(),
            rr_cursor: 0,
            step_counter: 0,
            frames_total: 0,
            evictions: 0,
            resumes: 0,
        }
    }

    /// Creates a session and returns its id (process-unique; also the
    /// session's trace run id).
    pub fn create_session(
        &mut self,
        name: &str,
        config: SlamConfig,
        intrinsics: Intrinsics,
    ) -> u32 {
        let id = NEXT_SESSION_ID.fetch_add(1, Ordering::Relaxed);
        let telemetry = if self.config.telemetry {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        // The SLAM loop reads only frames/gt_poses/intrinsics; the world is
        // a placeholder (a served session has no ground-truth world).
        let dataset = Dataset {
            name: name.to_string(),
            frames: Vec::new(),
            gt_poses: Vec::new(),
            intrinsics,
            world: SyntheticWorld {
                scene: GaussianScene::new(),
                extent: Vec3::ZERO,
                style: WorldStyle::ReplicaLike,
                seed: 0,
            },
        };
        self.sessions.push(Session {
            id,
            name: name.to_string(),
            config,
            intrinsics,
            dataset,
            processed: 0,
            closed: false,
            residency: Residency::Resident(Box::new(SlamSystem::new(config, intrinsics))),
            telemetry,
            last_step: 0,
            evictions: 0,
            resumes: 0,
        });
        id
    }

    fn index_of(&self, id: u32) -> Result<usize, ServeError> {
        self.sessions
            .iter()
            .position(|s| s.id == id)
            .ok_or(ServeError::UnknownSession(id))
    }

    /// Enqueues one frame (with its reference pose) for the session.
    ///
    /// # Errors
    ///
    /// [`ServeError::Backpressure`] when the session already has
    /// `queue_capacity` pending frames (retry after [`Self::step`]);
    /// [`ServeError::Closed`] after [`Self::close`];
    /// [`ServeError::UnknownSession`] otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the frame's dimensions disagree with the session's
    /// intrinsics.
    pub fn ingest(
        &mut self,
        id: u32,
        frame: Frame,
        reference_pose: Pose,
    ) -> Result<(), ServeError> {
        let idx = self.index_of(id)?;
        let session = &mut self.sessions[idx];
        if session.closed {
            return Err(ServeError::Closed(id));
        }
        let pending = session.pending();
        if pending >= self.config.queue_capacity {
            return Err(ServeError::Backpressure {
                session: id,
                pending,
            });
        }
        assert_eq!(
            (frame.width(), frame.height()),
            (session.intrinsics.width, session.intrinsics.height),
            "ingested frame dimensions disagree with session intrinsics"
        );
        session.dataset.frames.push(frame);
        session.dataset.gt_poses.push(reference_pose);
        Ok(())
    }

    /// Frames ingested but not yet stepped for the session.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] if no such session exists.
    pub fn pending(&self, id: u32) -> Result<usize, ServeError> {
        Ok(self.sessions[self.index_of(id)?].pending())
    }

    /// Closes the session to further [`Self::ingest`] calls. Pending frames
    /// still step; call [`Self::finish`] once drained.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] if no such session exists.
    pub fn close(&mut self, id: u32) -> Result<(), ServeError> {
        let idx = self.index_of(id)?;
        self.sessions[idx].closed = true;
        Ok(())
    }

    /// Whether the session is currently resident in memory (as opposed to
    /// evicted to disk).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] if no such session exists.
    pub fn is_resident(&self, id: u32) -> Result<bool, ServeError> {
        let idx = self.index_of(id)?;
        Ok(matches!(
            self.sessions[idx].residency,
            Residency::Resident(_)
        ))
    }

    /// Processes one frame of the next ready session (round-robin over
    /// sessions with pending frames), resuming it from disk first if it was
    /// evicted. Returns `None` when no session has pending frames.
    ///
    /// After the step, enforces [`ServeConfig::max_resident`] by evicting
    /// least-recently-stepped sessions (never the one just stepped).
    ///
    /// # Errors
    ///
    /// [`ServeError::Snapshot`] if an eviction or resume fails.
    pub fn step(&mut self) -> Result<Option<StepReport>, ServeError> {
        let n = self.sessions.len();
        let Some(idx) = (0..n)
            .map(|off| (self.rr_cursor + off) % n.max(1))
            .find(|&i| n > 0 && self.sessions[i].pending() > 0)
        else {
            return Ok(None);
        };
        self.rr_cursor = (idx + 1) % n;
        self.make_resident(idx)?;

        let session = &mut self.sessions[idx];
        let Residency::Resident(system) = &mut session.residency else {
            unreachable!("make_resident leaves the session resident");
        };
        let frame = {
            // Everything this frame records — phase events, pool events,
            // telemetry spans — attributes to this session's run id.
            let _scope = timebase::run_scope(session.id);
            system
                .step_frame(&session.dataset, &session.telemetry)
                .expect("pending > 0 implies an unprocessed frame")
        };
        session.processed += 1;
        self.step_counter += 1;
        self.frames_total += 1;
        session.last_step = self.step_counter;
        let report = StepReport {
            session: session.id,
            frame,
        };
        self.enforce_residency(idx)?;
        Ok(Some(report))
    }

    /// Steps until every session's queue is empty; returns the number of
    /// frames processed.
    ///
    /// # Errors
    ///
    /// Propagates the first [`Self::step`] error.
    pub fn run_until_blocked(&mut self) -> Result<usize, ServeError> {
        let mut steps = 0;
        while self.step()?.is_some() {
            steps += 1;
        }
        Ok(steps)
    }

    /// Snapshots the session to disk and drops its in-memory state. A
    /// no-op if it is already evicted. The session resumes transparently on
    /// its next step.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoEvictDir`] without a configured directory;
    /// [`ServeError::Snapshot`] on write failure;
    /// [`ServeError::UnknownSession`] if no such session exists.
    pub fn evict(&mut self, id: u32) -> Result<(), ServeError> {
        let idx = self.index_of(id)?;
        self.evict_idx(idx)
    }

    fn evict_idx(&mut self, idx: usize) -> Result<(), ServeError> {
        let dir = self
            .config
            .evict_dir
            .as_ref()
            .ok_or(ServeError::NoEvictDir)?
            .clone();
        let session = &mut self.sessions[idx];
        let Residency::Resident(system) = &session.residency else {
            return Ok(());
        };
        std::fs::create_dir_all(&dir).map_err(|e| SnapshotError::Io(e.to_string()))?;
        let path = dir.join(format!("session_{}.snap", session.id));
        system.checkpoint().write_file(&path)?;
        session.residency = Residency::Evicted(path);
        session.evictions += 1;
        self.evictions += 1;
        session.telemetry.counter_add("serve/evictions", 1);
        Ok(())
    }

    /// Resumes the session from its snapshot if it was evicted, then
    /// deletes the snapshot file: it exists only while its session is
    /// evicted, so finished sessions leave nothing behind.
    fn make_resident(&mut self, idx: usize) -> Result<(), ServeError> {
        let session = &mut self.sessions[idx];
        let Residency::Evicted(path) = &session.residency else {
            return Ok(());
        };
        let snapshot = Snapshot::read_file(path)?;
        let system = SlamSystem::resume(
            session.config,
            session.intrinsics,
            &session.dataset,
            &snapshot,
        )?;
        std::fs::remove_file(path).map_err(|e| SnapshotError::Io(e.to_string()))?;
        session.residency = Residency::Resident(Box::new(system));
        session.resumes += 1;
        self.resumes += 1;
        session.telemetry.counter_add("serve/resumes", 1);
        Ok(())
    }

    /// Evicts least-recently-stepped resident sessions (never index
    /// `keep`) until at most `max_resident` remain resident.
    fn enforce_residency(&mut self, keep: usize) -> Result<(), ServeError> {
        let max = self.config.max_resident;
        if max == 0 {
            return Ok(());
        }
        loop {
            let resident = self
                .sessions
                .iter()
                .filter(|s| matches!(s.residency, Residency::Resident(_)))
                .count();
            if resident <= max {
                return Ok(());
            }
            let Some(victim) = self
                .sessions
                .iter()
                .enumerate()
                .filter(|(i, s)| *i != keep && matches!(s.residency, Residency::Resident(_)))
                .min_by_key(|(_, s)| s.last_step)
                .map(|(i, _)| i)
            else {
                return Ok(());
            };
            self.evict_idx(victim)?;
        }
    }

    /// Finalizes a closed, fully drained session: evaluates the trajectory,
    /// snapshots its telemetry into a [`RunReport`], and removes it from
    /// the manager. An evicted session is resumed first, which deletes its
    /// eviction file.
    ///
    /// # Errors
    ///
    /// [`ServeError::NotClosed`] before [`Self::close`];
    /// [`ServeError::NotDrained`] with frames still pending;
    /// [`ServeError::Empty`] if it never processed a frame;
    /// [`ServeError::Snapshot`] if resuming an evicted session (reading,
    /// decoding or deleting its file) fails;
    /// [`ServeError::UnknownSession`] if no such session exists.
    pub fn finish(&mut self, id: u32) -> Result<SessionOutcome, ServeError> {
        let idx = self.index_of(id)?;
        {
            let s = &self.sessions[idx];
            if !s.closed {
                return Err(ServeError::NotClosed(id));
            }
            if s.pending() > 0 {
                return Err(ServeError::NotDrained {
                    session: id,
                    pending: s.pending(),
                });
            }
            if s.processed == 0 {
                return Err(ServeError::Empty(id));
            }
        }
        self.make_resident(idx)?;
        let session = self.sessions.remove(idx);
        let Residency::Resident(mut system) = session.residency else {
            unreachable!("make_resident leaves the session resident");
        };
        let result = {
            let _scope = timebase::run_scope(session.id);
            system.finalize(&session.dataset, &session.telemetry)
        };
        let report = session.telemetry.finish(
            &session.name,
            AccuracySummary {
                ate_cm: result.ate_cm,
                psnr_db: result.psnr_db,
                frames: result.frames,
                scene_size: result.scene_size,
            },
        );
        let span_events = session.telemetry.span_events();
        Ok(SessionOutcome {
            id: session.id,
            name: session.name,
            result,
            report,
            span_events,
            evictions: session.evictions,
            resumes: session.resumes,
        })
    }

    /// Total frames processed across all sessions since creation.
    pub fn frames_processed(&self) -> u64 {
        self.frames_total
    }

    /// Total evictions performed (automatic + explicit).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Total resumes performed.
    pub fn resumes(&self) -> u64 {
        self.resumes
    }
}
