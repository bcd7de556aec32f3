//! Multi-session SLAM serving driver (DESIGN.md §15; the fleet smoke in
//! `scripts/verify.sh` and CI).
//!
//! Usage:
//!   fleet [--sessions K] [--frames N] [--queue-cap Q] [--max-resident M]
//!         [--threads N] [--quick] [--report out.json] [--trace-out out.json]
//!         [--no-verify]
//!
//! Builds K synthetic RGB-D sequences, serves them through one
//! [`SessionManager`] — producers ingest round-robin through the bounded
//! per-session queues, the manager schedules one frame per step fairly —
//! and finalizes every session. `--max-resident` defaults to K−1 so the
//! run always exercises at least one snapshot eviction/resume cycle.
//!
//! Unless `--no-verify` is given, every served session is then replayed as
//! a plain sequential [`SlamSystem::run`] and compared **bitwise**
//! (poses, ATE, PSNR, iteration traces, scene size); any divergence exits 1.
//! This is the serving layer's core promise: interleaving K sessions over
//! the shared worker pool, with eviction in the middle, is invisible in
//! the results.
//!
//! `--report` writes a fleet-level JSON report: aggregate `serve/*`
//! counters, per-session frame counts and cache hits, aggregate
//! frames/sec, and each session's p95 track/map latency (from its own
//! telemetry — per-session accounting stays exact under concurrency).
//! `--trace-out` writes one merged Chrome trace with a process group per
//! session (`scripts/check_trace.py` validates it).

use splatonic_bench::Settings;
use splatonic_math::Pose;
use splatonic_slam::prelude::*;
use splatonic_slam::serve::{ServeConfig, ServeError, SessionManager, SessionOutcome};
use splatonic_telemetry::{AccuracySummary, Telemetry, TraceSession};
use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("{flag} requires an argument");
            exit(2);
        })
    })
}

fn arg_usize(args: &[String], flag: &str) -> Option<usize> {
    arg_value(args, flag).map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("{flag} expects an unsigned integer, got {v}");
            exit(2);
        })
    })
}

fn pose_bits(p: &Pose) -> Vec<u64> {
    let mut v: Vec<u64> = p.rotation.m.iter().map(|x| x.to_bits()).collect();
    v.extend([
        p.translation.x.to_bits(),
        p.translation.y.to_bits(),
        p.translation.z.to_bits(),
    ]);
    v
}

/// Bitwise comparison of a served session against its sequential replay;
/// returns the number of mismatched facets (0 = identical).
fn compare(name: &str, served: &SlamResult, sequential: &SlamResult) -> u32 {
    let mut failures = 0;
    let mut check = |what: &str, ok: bool| {
        if ok {
            eprintln!("[fleet] OK  {name}: {what}");
        } else {
            eprintln!("[fleet] FAIL {name}: {what}");
            failures += 1;
        }
    };
    let poses_match = sequential.est_poses.len() == served.est_poses.len()
        && sequential
            .est_poses
            .iter()
            .zip(served.est_poses.iter())
            .all(|(a, b)| pose_bits(a) == pose_bits(b));
    check("est_poses bitwise", poses_match);
    check(
        "ate_cm bitwise",
        sequential.ate_cm.to_bits() == served.ate_cm.to_bits(),
    );
    check(
        "psnr_db bitwise",
        sequential.psnr_db.to_bits() == served.psnr_db.to_bits(),
    );
    check(
        "tracking_trace",
        sequential.tracking_trace == served.tracking_trace,
    );
    check(
        "mapping_trace",
        sequential.mapping_trace == served.mapping_trace,
    );
    check("scene_size", sequential.scene_size == served.scene_size);
    check(
        "iteration counts",
        sequential.tracking_iters == served.tracking_iters
            && sequential.mapping_iters == served.mapping_iters,
    );
    failures
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sessions = arg_usize(&args, "--sessions").unwrap_or(4);
    let queue_cap = arg_usize(&args, "--queue-cap").unwrap_or(4);
    // K−1 resident by default: the fleet always exercises eviction/resume.
    let max_resident = arg_usize(&args, "--max-resident").unwrap_or(sessions.saturating_sub(1));
    let threads = arg_usize(&args, "--threads").unwrap_or(0);
    let verify = !args.iter().any(|a| a == "--no-verify");
    let settings = if args.iter().any(|a| a == "--quick") {
        Settings::quick()
    } else {
        Settings::full()
    };
    let report_out = arg_value(&args, "--report").map(PathBuf::from);
    let trace_out = arg_value(&args, "--trace-out").map(PathBuf::from);
    assert!(sessions > 0, "--sessions must be >= 1");

    let mut dataset_config = settings.dataset_config();
    if let Some(frames) = arg_usize(&args, "--frames") {
        dataset_config.frames = frames;
    }
    let mut config = SlamConfig::splatonic(AlgorithmConfig::default());
    config.render.threads = threads;

    // K distinct worlds: different seeds, same schedule — the adversarial
    // case for shared state, since sessions look alike but diverge in data.
    let datasets: Vec<Dataset> = (0..sessions)
        .map(|i| Dataset::replica_like(&format!("fleet-{i}"), 100 + i as u64, dataset_config))
        .collect();

    let evict_dir = std::env::temp_dir().join(format!("splatonic-fleet-{}", std::process::id()));
    let trace_session = trace_out.as_ref().map(|_| TraceSession::begin());
    let mut manager = SessionManager::new(ServeConfig {
        queue_capacity: queue_cap,
        max_resident,
        evict_dir: Some(evict_dir.clone()),
        telemetry: true,
    });
    let ids: Vec<u32> = datasets
        .iter()
        .map(|d| manager.create_session(&d.name, config, d.intrinsics))
        .collect();

    // Interleaved serve loop: each round offers every session up to two
    // frames (stopping at backpressure), then steps K times. This keeps all
    // queues non-empty so the round-robin scheduler genuinely interleaves.
    let mut cursor = vec![0usize; sessions];
    let mut backpressure = 0u64;
    let started = Instant::now();
    loop {
        let ingested_all = cursor.iter().zip(&datasets).all(|(c, d)| *c >= d.len());
        if ingested_all {
            break;
        }
        for i in 0..sessions {
            for _ in 0..2 {
                if cursor[i] >= datasets[i].len() {
                    break;
                }
                let frame = datasets[i].frames[cursor[i]].clone();
                let pose = datasets[i].gt_poses[cursor[i]];
                match manager.ingest(ids[i], frame, pose) {
                    Ok(()) => cursor[i] += 1,
                    Err(ServeError::Backpressure { .. }) => {
                        backpressure += 1;
                        break;
                    }
                    Err(e) => {
                        eprintln!("[fleet] ingest failed: {e}");
                        exit(1);
                    }
                }
            }
        }
        for _ in 0..sessions {
            if let Err(e) = manager.step() {
                eprintln!("[fleet] step failed: {e}");
                exit(1);
            }
        }
    }
    if let Err(e) = manager.run_until_blocked() {
        eprintln!("[fleet] drain failed: {e}");
        exit(1);
    }
    let evictions = manager.evictions();
    let resumes = manager.resumes();
    let frames_total = manager.frames_processed();

    let outcomes: Vec<SessionOutcome> = ids
        .iter()
        .map(|&id| {
            manager.close(id).expect("session exists");
            manager.finish(id).unwrap_or_else(|e| {
                eprintln!("[fleet] finish failed: {e}");
                exit(1);
            })
        })
        .collect();
    let elapsed = started.elapsed().as_secs_f64();
    let fps = frames_total as f64 / elapsed.max(1e-9);
    let _ = std::fs::remove_dir_all(&evict_dir);

    if max_resident > 0 && sessions > 1 && (evictions == 0 || resumes == 0) {
        eprintln!(
            "[fleet] FAIL: expected at least one eviction/resume cycle \
             (evictions {evictions}, resumes {resumes})"
        );
        exit(1);
    }

    if verify {
        let mut failures = 0;
        for (outcome, dataset) in outcomes.iter().zip(&datasets) {
            let sequential = SlamSystem::new(config, dataset.intrinsics).run(dataset);
            failures += compare(&outcome.name, &outcome.result, &sequential);
        }
        if failures > 0 {
            eprintln!("[fleet] served sessions diverged from sequential ({failures} mismatches)");
            exit(1);
        }
        eprintln!("[fleet] all {sessions} sessions bitwise-identical to sequential runs");
    }

    // Fleet-level report: aggregate serve counters + per-session accounting
    // pulled from each session's own telemetry.
    let fleet = Telemetry::enabled();
    fleet.counter_add("serve/sessions", sessions as u64);
    fleet.counter_add("serve/frames_total", frames_total);
    fleet.counter_add("serve/evictions", evictions);
    fleet.counter_add("serve/resumes", resumes);
    fleet.counter_add("serve/backpressure", backpressure);
    fleet.gauge_set("serve/frames_per_sec", fps);
    let mut ate_sum = 0.0;
    let mut psnr_sum = 0.0;
    let mut scene_total = 0;
    for o in &outcomes {
        ate_sum += o.result.ate_cm;
        psnr_sum += o.result.psnr_db;
        scene_total += o.result.scene_size;
        let pfx = format!("session/{}", o.id);
        fleet.counter_add(&format!("{pfx}/frames"), o.result.frames as u64);
        for key in [
            "render/cache_hits",
            "render/cache_misses",
            "render/cache_invalidations",
        ] {
            if let Some((_, v)) = o.report.counters.iter().find(|(n, _)| n == key) {
                fleet.counter_add(&format!("{pfx}/{}", key.rsplit('/').next().unwrap()), *v);
            }
        }
        for (name, q) in o.report.latency() {
            let short = name.rsplit('/').next().unwrap_or(name);
            fleet.gauge_set(&format!("{pfx}/{short}_p95"), q.p95_ms);
        }
    }
    let report = fleet.finish(
        "fleet",
        AccuracySummary {
            ate_cm: ate_sum / sessions as f64,
            psnr_db: psnr_sum / sessions as f64,
            frames: frames_total as usize,
            scene_size: scene_total,
        },
    );
    if let Some(path) = &report_out {
        report.write_json_file(path).unwrap_or_else(|e| {
            eprintln!("[fleet] failed to write {}: {e}", path.display());
            exit(1);
        });
        eprintln!("[fleet] report written to {}", path.display());
    }
    if let (Some(path), Some(session)) = (&trace_out, &trace_session) {
        // One merged trace: every session's spans land in its own process
        // group (run id == session id).
        let all_spans: Vec<_> = outcomes
            .iter()
            .flat_map(|o| o.span_events.iter().cloned())
            .collect();
        if let Err(e) = fleet.write_chrome_trace_merged(session, &all_spans, path) {
            eprintln!("[fleet] failed to write {}: {e}", path.display());
            exit(1);
        }
        eprintln!("[fleet] trace written to {}", path.display());
    }

    println!(
        "fleet: {sessions} sessions x {} frames in {elapsed:.2} s ({fps:.1} frames/s aggregate), \
         {evictions} evictions, {resumes} resumes, {backpressure} backpressure events",
        dataset_config.frames
    );
    for o in &outcomes {
        let [(_, track), (_, map)] = o.report.latency();
        println!(
            "  {:>10}: ate {:7.3} cm  psnr {:6.2} dB  track p95 {:7.2} ms  map p95 {:7.2} ms  \
             evictions {}  resumes {}",
            o.name,
            o.result.ate_cm,
            o.result.psnr_db,
            track.p95_ms,
            map.p95_ms,
            o.evictions,
            o.resumes
        );
    }
}
