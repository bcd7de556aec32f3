//! Fault-injection harness for the checkpoint/resume subsystem
//! (DESIGN.md §12; driven by `scripts/fault_inject.sh`).
//!
//! Usage:
//!   fault_inject run     --dir D --kill-at K [--checkpoint-every C]
//!   fault_inject resume  --dir D
//!   fault_inject corrupt --dir D
//!
//! `run` and `resume` additionally accept `--trace-out <path>` (Chrome
//! trace-event JSON; in `run` mode it is written just before the simulated
//! crash) and `--events-out <path>` (JSONL event stream, flushed per line —
//! so the stream written up to the kill point survives the crash, which is
//! the whole point of a live-tailing format). Both go through the bench
//! crate's one export path (`cli::Exports`). A flag whose value is missing
//! or malformed exits 2.
//!
//! `run` executes SLAM frame by frame, writing a snapshot to `--dir` on the
//! checkpoint cadence, then simulates a crash by exiting with code 21
//! immediately after frame `K` — no finalize, no cleanup. `resume` loads the
//! newest snapshot from `--dir`, continues to completion, replays an
//! uninterrupted run in-process, and fails (exit 1) unless every result
//! field is **bitwise** identical (`SlamResult::bitwise_mismatches`).
//! `corrupt` mutates the newest snapshot four ways (payload flip, truncation,
//! magic, version) and checks each is rejected with the right typed error.
//!
//! All modes build the same fixed quick-settings dataset, so the comparison
//! in `resume` is self-contained; thread width comes from the standard
//! `SPLATONIC_THREADS` resolution and must not affect any compared value.

use splatonic_bench::cli::{arg_usize, arg_value, Exports};
use splatonic_bench::Settings;
use splatonic_slam::prelude::*;
use splatonic_slam::snapshot::HEADER_LEN;
use splatonic_telemetry::Telemetry;
use std::path::{Path, PathBuf};
use std::process::exit;

/// Telemetry for the `run` and `resume` modes: enabled, with the
/// `--trace-out`/`--events-out` exports attached, only when an export was
/// requested; disabled otherwise.
fn telemetry(args: &[String]) -> (Telemetry, Exports) {
    let trace_out = arg_value(args, "--trace-out").map(PathBuf::from);
    let events_out = arg_value(args, "--events-out").map(PathBuf::from);
    let telemetry = if trace_out.is_some() || events_out.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let exports = Exports::begin(&telemetry, trace_out, events_out).unwrap_or_else(|e| fail(&e));
    (telemetry, exports)
}

fn write_trace(telemetry: &Telemetry, exports: &Exports) {
    match exports.write_trace(telemetry, &[]) {
        Ok(Some(path)) => eprintln!("[fault_inject] trace written to {}", path.display()),
        Ok(None) => {}
        Err(e) => fail(&e),
    }
}

fn fail(message: &str) -> ! {
    eprintln!("[fault_inject] {message}");
    exit(1);
}

/// Exit code the `run` mode uses for the simulated crash; the shell harness
/// asserts it to distinguish the planned kill from a real failure.
const KILL_EXIT_CODE: u8 = 21;

fn dataset() -> Dataset {
    Dataset::replica_like("fault-room", 7, Settings::quick().dataset_config())
}

fn config(checkpoint_every: usize) -> SlamConfig {
    let mut cfg = SlamConfig::splatonic(AlgorithmConfig::default());
    cfg.checkpoint_every = checkpoint_every;
    cfg
}

fn snapshot_path(dir: &Path, next_frame: usize) -> PathBuf {
    dir.join(format!("ckpt_{next_frame:04}.snap"))
}

/// Newest snapshot in `dir` (highest frame number in the file name).
fn latest_snapshot(dir: &Path) -> Option<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .ok()?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "snap"))
        .collect();
    paths.sort();
    paths.pop()
}

fn run_mode(dir: &Path, kill_at: usize, checkpoint_every: usize, args: &[String]) {
    std::fs::create_dir_all(dir).expect("create snapshot dir");
    let d = dataset();
    assert!(
        kill_at < d.len(),
        "--kill-at {kill_at} out of range (dataset has {} frames)",
        d.len()
    );
    let mut sys = SlamSystem::new(config(checkpoint_every), d.intrinsics);
    let (telemetry, exports) = telemetry(args);
    while let Some(t) = sys.step_frame(&d, &telemetry) {
        if t.is_multiple_of(checkpoint_every) {
            let snap = sys.checkpoint();
            let path = snapshot_path(dir, snap.next_frame);
            snap.write_file(&path).expect("write snapshot");
            eprintln!(
                "[fault_inject] checkpoint after frame {t} -> {}",
                path.display()
            );
        }
        if t == kill_at {
            eprintln!("[fault_inject] simulated crash after frame {t} (exit {KILL_EXIT_CODE})");
            // The trace must be serialized before the kill — a crash runs no
            // destructors. The JSONL stream needs nothing: it is flushed per
            // line, so everything up to this frame is already on disk.
            write_trace(&telemetry, &exports);
            exit(KILL_EXIT_CODE as i32);
        }
    }
    unreachable!("kill-at frame must be reached before the dataset ends");
}

fn resume_mode(dir: &Path, args: &[String]) {
    let path = latest_snapshot(dir)
        .unwrap_or_else(|| fail(&format!("no snapshot found in {}", dir.display())));
    let snap = Snapshot::read_file(&path).expect("snapshot must decode");
    let d = dataset();
    eprintln!(
        "[fault_inject] resuming from {} (next frame {})",
        path.display(),
        snap.next_frame
    );
    let mut resumed = SlamSystem::resume(config(0), d.intrinsics, &d, &snap)
        .expect("snapshot must resume under the original config");
    let (telemetry, exports) = telemetry(args);
    let r = resumed.run_with_telemetry(&d, &telemetry);

    let mut uninterrupted = SlamSystem::new(config(0), d.intrinsics);
    let full = uninterrupted.run(&d);

    let mismatches = r.bitwise_mismatches(&full);
    if !mismatches.is_empty() {
        fail(&format!("resumed run diverged: {mismatches:?} differ"));
    }
    eprintln!("[fault_inject] OK  every result field bitwise identical");
    write_trace(&telemetry, &exports);
    println!(
        "fault_inject resume: bitwise identical (ate {:.4} cm, psnr {:.2} dB, {} frames)",
        r.ate_cm, r.psnr_db, r.frames
    );
}

fn corrupt_mode(dir: &Path) {
    let path = latest_snapshot(dir)
        .unwrap_or_else(|| fail(&format!("no snapshot found in {}", dir.display())));
    let bytes = std::fs::read(&path).expect("read snapshot");
    Snapshot::from_bytes(&bytes).expect("pristine snapshot must decode");

    let mut failures = 0u32;
    let mut expect = |what: &str, mutated: Vec<u8>, matches: &dyn Fn(&SnapshotError) -> bool| {
        match Snapshot::from_bytes(&mutated) {
            Err(ref e) if matches(e) => eprintln!("[fault_inject] OK  {what}: {e}"),
            Err(e) => {
                eprintln!("[fault_inject] FAIL {what}: wrong error {e}");
                failures += 1;
            }
            Ok(_) => {
                eprintln!("[fault_inject] FAIL {what}: corrupted snapshot accepted");
                failures += 1;
            }
        }
    };

    // Flip one byte in the middle of the payload: checksum must catch it.
    let mut flipped = bytes.clone();
    let mid = HEADER_LEN + (flipped.len() - HEADER_LEN) / 2;
    flipped[mid] ^= 0xFF;
    expect("payload byte flip", flipped, &|e| {
        matches!(e, SnapshotError::ChecksumMismatch { .. })
    });

    // Drop the tail: truncation must be reported before any decode.
    expect(
        "truncated payload",
        bytes[..bytes.len() - 7].to_vec(),
        &|e| matches!(e, SnapshotError::Truncated { .. }),
    );

    // Clobber the magic.
    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0x55;
    expect("bad magic", bad_magic, &|e| {
        matches!(e, SnapshotError::BadMagic)
    });

    // Bump the format version (little-endian u32 right after the magic).
    let mut future = bytes.clone();
    future[8] = future[8].wrapping_add(1);
    expect("unsupported version", future, &|e| {
        matches!(e, SnapshotError::UnsupportedVersion(_))
    });

    if failures > 0 {
        exit(1);
    }
    println!("fault_inject corrupt: all 4 corruptions rejected with typed errors");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str).unwrap_or("");
    let dir = arg_value(&args, "--dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            eprintln!("--dir is required");
            exit(2);
        });
    match mode {
        "run" => {
            let kill_at = arg_usize(&args, "--kill-at").unwrap_or_else(|| {
                eprintln!("run mode requires --kill-at");
                exit(2);
            });
            let every = arg_usize(&args, "--checkpoint-every").unwrap_or(2);
            if every == 0 {
                eprintln!("--checkpoint-every must be positive");
                exit(2);
            }
            run_mode(&dir, kill_at, every, &args);
        }
        "resume" => resume_mode(&dir, &args),
        "corrupt" => corrupt_mode(&dir),
        other => {
            eprintln!("unknown mode {other:?}; expected run | resume | corrupt");
            exit(2);
        }
    }
}
