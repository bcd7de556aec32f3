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
//! a plain sequential [`SlamSystem::run`] and compared **bitwise** on every
//! result field ([`SlamResult::bitwise_mismatches`]); any divergence exits 1.
//! This is the serving layer's core promise: interleaving K sessions over
//! the shared worker pool, with eviction in the middle, is invisible in
//! the results.
//!
//! `--report` writes a fleet-level JSON report: aggregate `serve/*`
//! counters, per-session frame counts, aggregate
//! frames/sec, and each session's p95 track/map latency (from its own
//! telemetry — per-session accounting stays exact under concurrency).
//! `--trace-out` writes one merged Chrome trace with a process group per
//! session (`scripts/check_trace.py` validates it) through the bench
//! crate's one export path (`cli::Exports`). An unknown flag, a stray
//! argument, or a flag whose value is missing or malformed exits 2 before
//! anything runs.

use splatonic_bench::cli::{arg_usize, arg_value, positional_args_or_exit, Exports};
use splatonic_bench::Settings;
use splatonic_slam::prelude::*;
use splatonic_slam::serve::{ServeConfig, ServeError, SessionManager, SessionOutcome};
use splatonic_telemetry::{AccuracySummary, Telemetry};
use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

/// The flags that take a value.
const VALUED_FLAGS: &[&str] = &[
    "--sessions",
    "--frames",
    "--queue-cap",
    "--max-resident",
    "--threads",
    "--report",
    "--trace-out",
];

/// The flags that stand alone.
const SWITCHES: &[&str] = &["--quick", "--no-verify"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(arg) = positional_args_or_exit(&args, VALUED_FLAGS, SWITCHES).first() {
        eprintln!("unexpected argument {arg}");
        exit(2);
    }
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
    // The fleet-level handle carries the aggregate report; the trace merges
    // every session's spans into it at the end.
    let fleet = Telemetry::enabled();
    let exports = Exports::begin(
        &fleet,
        arg_value(&args, "--trace-out").map(PathBuf::from),
        None,
    )
    .unwrap_or_else(|e| fail(&e));
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
                    Err(e) => fail(&format!("ingest failed: {e}")),
                }
            }
        }
        for _ in 0..sessions {
            if let Err(e) = manager.step() {
                fail(&format!("step failed: {e}"));
            }
        }
    }
    if let Err(e) = manager.run_until_blocked() {
        fail(&format!("drain failed: {e}"));
    }
    let evictions = manager.evictions();
    let resumes = manager.resumes();
    let frames_total = manager.frames_processed();

    let outcomes: Vec<SessionOutcome> = ids
        .iter()
        .map(|&id| {
            manager.close(id).expect("session exists");
            manager
                .finish(id)
                .unwrap_or_else(|e| fail(&format!("finish failed: {e}")))
        })
        .collect();
    let elapsed = started.elapsed().as_secs_f64();
    let fps = frames_total as f64 / elapsed.max(1e-9);
    let _ = std::fs::remove_dir_all(&evict_dir);

    if max_resident > 0 && sessions > 1 && (evictions == 0 || resumes == 0) {
        fail(&format!(
            "FAIL: expected at least one eviction/resume cycle \
             (evictions {evictions}, resumes {resumes})"
        ));
    }

    if verify {
        let mut failures = 0;
        for (outcome, dataset) in outcomes.iter().zip(&datasets) {
            let sequential = SlamSystem::new(config, dataset.intrinsics).run(dataset);
            let mismatches = outcome.result.bitwise_mismatches(&sequential);
            if mismatches.is_empty() {
                eprintln!("[fleet] OK  {}: bitwise identical", outcome.name);
            } else {
                eprintln!("[fleet] FAIL {}: {mismatches:?} differ", outcome.name);
                failures += mismatches.len();
            }
        }
        if failures > 0 {
            fail(&format!(
                "served sessions diverged from sequential ({failures} mismatches)"
            ));
        }
        eprintln!("[fleet] all {sessions} sessions bitwise-identical to sequential runs");
    }

    // Fleet-level report: aggregate serve counters + per-session accounting
    // pulled from each session's own telemetry.
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
        report
            .write_json_file(path)
            .unwrap_or_else(|e| fail(&format!("failed to write {}: {e}", path.display())));
        eprintln!("[fleet] report written to {}", path.display());
    }
    // One merged trace: every session's spans land in its own process
    // group (run id == session id).
    let all_spans: Vec<_> = outcomes
        .iter()
        .flat_map(|o| o.span_events.iter().cloned())
        .collect();
    match exports.write_trace(&fleet, &all_spans) {
        Ok(Some(path)) => eprintln!("[fleet] trace written to {}", path.display()),
        Ok(None) => {}
        Err(e) => fail(&e),
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

fn fail(message: &str) -> ! {
    eprintln!("[fleet] {message}");
    exit(1);
}
