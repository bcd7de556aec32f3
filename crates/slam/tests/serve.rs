//! Integration tests for the multi-session serving layer (DESIGN.md §15).
//!
//! The serving contract under test: interleaving K sessions through one
//! [`SessionManager`] — including eviction to disk mid-sequence — is
//! **bitwise invisible** in every session's results, at any worker-pool
//! width; scheduling is fair; queues are bounded; failures are typed.

use splatonic_slam::prelude::*;
use splatonic_slam::serve::{ServeConfig, ServeError, SessionManager, SessionOutcome};
use splatonic_telemetry::Telemetry;
use std::path::PathBuf;

fn tiny(frames: usize) -> DatasetConfig {
    DatasetConfig {
        width: 64,
        height: 48,
        frames,
        spacing: 0.3,
        fov: 1.25,
        furniture: 2,
        depth_dropout_coverage: 0.9,
    }
}

fn config(threads: usize) -> SlamConfig {
    let mut cfg = SlamConfig::default();
    cfg.render.threads = threads;
    cfg
}

fn datasets(count: usize, frames: usize) -> Vec<Dataset> {
    (0..count)
        .map(|i| Dataset::replica_like(&format!("serve-{i}"), 31 + 16 * i as u64, tiny(frames)))
        .collect()
}

/// A fresh per-test eviction directory under the target tmpdir.
fn evict_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("splatonic-serve-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Serves all datasets interleaved through one manager (producers offer up
/// to two frames per session per round, then the manager steps once per
/// session) and finishes every session, in order.
fn serve_interleaved(
    serve_config: ServeConfig,
    cfg: SlamConfig,
    data: &[Dataset],
) -> (SessionManager, Vec<SessionOutcome>) {
    let mut manager = SessionManager::new(serve_config);
    let ids: Vec<u32> = data
        .iter()
        .map(|d| manager.create_session(&d.name, cfg, d.intrinsics))
        .collect();
    let mut cursor = vec![0usize; data.len()];
    while cursor.iter().zip(data).any(|(c, d)| *c < d.len()) {
        for (i, d) in data.iter().enumerate() {
            for _ in 0..2 {
                if cursor[i] >= d.len() {
                    break;
                }
                match manager.ingest(ids[i], d.frames[cursor[i]].clone(), d.gt_poses[cursor[i]]) {
                    Ok(()) => cursor[i] += 1,
                    Err(ServeError::Backpressure { .. }) => break,
                    Err(e) => panic!("ingest failed: {e}"),
                }
            }
        }
        for _ in 0..data.len() {
            manager.step().expect("step");
        }
    }
    manager.run_until_blocked().expect("drain");
    let outcomes = ids
        .iter()
        .map(|&id| {
            manager.close(id).expect("close");
            manager.finish(id).expect("finish")
        })
        .collect();
    (manager, outcomes)
}

#[test]
fn interleaved_sessions_are_bit_identical_to_sequential_at_any_width() {
    let data = datasets(2, 6);
    // 1 worker, a fixed width, and auto: interleaving must be invisible at
    // every pool configuration (the deterministic-pool contract extended
    // across sessions).
    for threads in [1usize, 4, 0] {
        let cfg = config(threads);
        let (_, outcomes) = serve_interleaved(
            ServeConfig {
                queue_capacity: 2,
                max_resident: 0,
                evict_dir: None,
                telemetry: false,
            },
            cfg,
            &data,
        );
        for (outcome, d) in outcomes.iter().zip(&data) {
            let sequential = SlamSystem::new(cfg, d.intrinsics).run(d);
            let mismatches = outcome.result.bitwise_mismatches(&sequential);
            assert!(
                mismatches.is_empty(),
                "{} @ threads={threads}: {mismatches:?} differ",
                d.name
            );
        }
    }
}

#[test]
fn eviction_mid_sequence_resumes_bitwise() {
    let data = datasets(2, 6);
    let cfg = config(0);
    // max_resident = 1 with two active sessions: every scheduling switch
    // ping-pongs a session through the snapshot file.
    let (manager, outcomes) = serve_interleaved(
        ServeConfig {
            queue_capacity: 2,
            max_resident: 1,
            evict_dir: Some(evict_dir("pingpong")),
            telemetry: false,
        },
        cfg,
        &data,
    );
    assert!(
        manager.evictions() > 2,
        "expected repeated evictions, got {}",
        manager.evictions()
    );
    assert!(
        manager.resumes() > 2,
        "expected repeated resumes, got {}",
        manager.resumes()
    );
    for (outcome, d) in outcomes.iter().zip(&data) {
        assert!(outcome.evictions > 0, "{}: never evicted", d.name);
        assert!(outcome.resumes > 0, "{}: never resumed", d.name);
        let sequential = SlamSystem::new(cfg, d.intrinsics).run(d);
        let mismatches = outcome.result.bitwise_mismatches(&sequential);
        assert!(
            mismatches.is_empty(),
            "{} via eviction: {mismatches:?} differ",
            d.name
        );
    }
}

#[test]
fn finished_sessions_leave_no_eviction_files() {
    let data = datasets(2, 3);
    let dir = evict_dir("cleanup");
    let (manager, outcomes) = serve_interleaved(
        ServeConfig {
            queue_capacity: 2,
            max_resident: 1,
            evict_dir: Some(dir.clone()),
            telemetry: false,
        },
        config(1),
        &data,
    );
    assert!(manager.evictions() > 0 && outcomes.iter().all(|o| o.evictions > 0));
    let left: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("evict_dir exists once a session was evicted")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .collect();
    assert!(
        left.is_empty(),
        "eviction files outlive their sessions: {left:?}"
    );
}

#[test]
fn backpressure_bounds_the_ingest_queue() {
    let d = &datasets(1, 4)[0];
    let mut manager = SessionManager::new(ServeConfig {
        queue_capacity: 2,
        max_resident: 0,
        evict_dir: None,
        telemetry: false,
    });
    let id = manager.create_session(&d.name, config(1), d.intrinsics);
    manager
        .ingest(id, d.frames[0].clone(), d.gt_poses[0])
        .unwrap();
    manager
        .ingest(id, d.frames[1].clone(), d.gt_poses[1])
        .unwrap();
    match manager.ingest(id, d.frames[2].clone(), d.gt_poses[2]) {
        Err(ServeError::Backpressure { session, pending }) => {
            assert_eq!(session, id);
            assert_eq!(pending, 2);
        }
        other => panic!("expected backpressure, got {other:?}"),
    }
    // One step frees one slot; the retry succeeds.
    manager.step().unwrap().expect("a frame was pending");
    assert_eq!(manager.pending(id).unwrap(), 1);
    manager
        .ingest(id, d.frames[2].clone(), d.gt_poses[2])
        .unwrap();
}

#[test]
fn scheduling_is_round_robin_over_ready_sessions() {
    let data = datasets(3, 2);
    let mut manager = SessionManager::new(ServeConfig {
        queue_capacity: 2,
        max_resident: 0,
        evict_dir: None,
        telemetry: false,
    });
    let ids: Vec<u32> = data
        .iter()
        .map(|d| manager.create_session(&d.name, config(1), d.intrinsics))
        .collect();
    for (i, d) in data.iter().enumerate() {
        for t in 0..2 {
            manager
                .ingest(ids[i], d.frames[t].clone(), d.gt_poses[t])
                .unwrap();
        }
    }
    let mut order = Vec::new();
    while let Some(report) = manager.step().unwrap() {
        order.push(report.session);
    }
    // Three ready sessions, two frames each: perfect rotation, no session
    // steps twice before the others step once.
    assert_eq!(
        order,
        vec![ids[0], ids[1], ids[2], ids[0], ids[1], ids[2]],
        "round-robin order violated"
    );
}

#[test]
fn lifecycle_errors_are_typed() {
    let d = &datasets(1, 3)[0];
    let mut manager = SessionManager::new(ServeConfig {
        queue_capacity: 2,
        max_resident: 0,
        evict_dir: None,
        telemetry: false,
    });
    assert!(matches!(
        manager.pending(999),
        Err(ServeError::UnknownSession(999))
    ));
    let id = manager.create_session(&d.name, config(1), d.intrinsics);
    assert!(matches!(manager.evict(id), Err(ServeError::NoEvictDir)));
    assert!(matches!(
        manager.finish(id),
        Err(ServeError::NotClosed(i)) if i == id
    ));
    manager
        .ingest(id, d.frames[0].clone(), d.gt_poses[0])
        .unwrap();
    manager.close(id).unwrap();
    assert!(matches!(
        manager.ingest(id, d.frames[1].clone(), d.gt_poses[1]),
        Err(ServeError::Closed(i)) if i == id
    ));
    assert!(matches!(
        manager.finish(id),
        Err(ServeError::NotDrained { session, pending: 1 }) if session == id
    ));
    manager.run_until_blocked().unwrap();
    let outcome = manager.finish(id).unwrap();
    assert_eq!(outcome.result.frames, 1);
    assert!(matches!(
        manager.finish(id),
        Err(ServeError::UnknownSession(i)) if i == id
    ));

    // A session closed before processing anything cannot be finalized.
    let empty = manager.create_session("empty", config(1), d.intrinsics);
    manager.close(empty).unwrap();
    assert!(matches!(
        manager.finish(empty),
        Err(ServeError::Empty(i)) if i == empty
    ));
}

#[test]
fn corrupt_eviction_snapshot_reports_a_typed_error() {
    let d = &datasets(1, 3)[0];
    let dir = evict_dir("corrupt");
    let mut manager = SessionManager::new(ServeConfig {
        queue_capacity: 3,
        max_resident: 0,
        evict_dir: Some(dir.clone()),
        telemetry: false,
    });
    let id = manager.create_session(&d.name, config(1), d.intrinsics);
    manager
        .ingest(id, d.frames[0].clone(), d.gt_poses[0])
        .unwrap();
    manager.step().unwrap().expect("frame pending");
    manager.evict(id).unwrap();
    assert!(!manager.is_resident(id).unwrap());

    // Flip a payload byte: the next step must resume, fail checksum
    // validation, and surface the typed snapshot error (not a panic, not a
    // silently diverged session).
    let snap = dir.join(format!("session_{id}.snap"));
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&snap, &bytes).unwrap();
    manager
        .ingest(id, d.frames[1].clone(), d.gt_poses[1])
        .unwrap();
    match manager.step() {
        Err(ServeError::Snapshot(e)) => {
            let text = e.to_string();
            assert!(
                text.contains("checksum"),
                "expected a checksum failure, got: {text}"
            );
        }
        other => panic!("expected a snapshot error, got {other:?}"),
    }
}

#[test]
fn served_session_counters_match_a_solo_instrumented_run() {
    let d = &datasets(1, 5)[0];
    let cfg = config(1);

    // Solo reference: one system, one telemetry handle, same thread.
    let solo_tel = Telemetry::enabled();
    let mut solo = SlamSystem::new(cfg, d.intrinsics);
    let solo_result = solo.run_with_telemetry(d, &solo_tel);
    let solo_report = solo_tel.finish(
        &d.name,
        splatonic_telemetry::AccuracySummary {
            ate_cm: solo_result.ate_cm,
            psnr_db: solo_result.psnr_db,
            frames: solo_result.frames,
            scene_size: solo_result.scene_size,
        },
    );

    let (_, outcomes) = serve_interleaved(
        ServeConfig {
            queue_capacity: 2,
            max_resident: 0,
            evict_dir: None,
            telemetry: true,
        },
        cfg,
        std::slice::from_ref(d),
    );
    let served_report = &outcomes[0].report;

    let counter = |report: &splatonic_telemetry::RunReport, name: &str| {
        report
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing counter {name}"))
    };
    for key in [
        "slam/tracking_iters",
        "slam/mapping_iters",
        "slam/mapping_invocations",
    ] {
        assert_eq!(
            counter(served_report, key),
            counter(&solo_report, key),
            "served session counter {key} diverged from the solo oracle"
        );
    }
    assert_eq!(served_report.frames.len(), solo_report.frames.len());
}

#[test]
fn ingest_rejects_mismatched_frame_dimensions() {
    let d = &datasets(1, 3)[0];
    let other = Dataset::replica_like(
        "serve-mismatch",
        77,
        DatasetConfig {
            width: 32,
            height: 24,
            ..tiny(3)
        },
    );
    let mut manager = SessionManager::new(ServeConfig::default());
    let id = manager.create_session(&d.name, config(1), d.intrinsics);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = manager.ingest(id, other.frames[0].clone(), other.gt_poses[0]);
    }));
    assert!(
        result.is_err(),
        "mismatched frame dimensions must be rejected"
    );
}

#[test]
fn explicit_evict_is_transparent_and_idempotent() {
    let d = &datasets(1, 4)[0];
    let cfg = config(1);
    let dir = evict_dir("explicit");
    let mut manager = SessionManager::new(ServeConfig {
        queue_capacity: 4,
        max_resident: 0,
        evict_dir: Some(dir),
        telemetry: false,
    });
    let id = manager.create_session(&d.name, cfg, d.intrinsics);
    for t in 0..2 {
        manager
            .ingest(id, d.frames[t].clone(), d.gt_poses[t])
            .unwrap();
    }
    manager.run_until_blocked().unwrap();
    manager.evict(id).unwrap();
    manager.evict(id).unwrap(); // second evict: no-op, not an error
    assert!(!manager.is_resident(id).unwrap());
    assert_eq!(
        manager.evictions(),
        1,
        "idempotent evict must snapshot once"
    );
    for t in 2..4 {
        manager
            .ingest(id, d.frames[t].clone(), d.gt_poses[t])
            .unwrap();
    }
    manager.run_until_blocked().unwrap();
    assert!(
        manager.is_resident(id).unwrap(),
        "stepping resumes the session"
    );
    manager.close(id).unwrap();
    let outcome = manager.finish(id).unwrap();
    let sequential = SlamSystem::new(cfg, d.intrinsics).run(d);
    let mismatches = outcome.result.bitwise_mismatches(&sequential);
    assert!(
        mismatches.is_empty(),
        "explicit evict: {mismatches:?} differ"
    );
}
