//! Regenerates the SPLATONIC paper's tables and figures.
//!
//! Usage:
//!   figures all [--quick]
//!   figures fig10 fig22 [--quick]
//!   figures --list
//!   figures --report BENCH_smoke.json [--quick]
//!   figures --report out.json --checkpoint-every 4 --checkpoint-dir snaps/
//!   figures --trace-out trace.json --events-out events.jsonl [--quick]
//!
//! `--report <path>` runs a fully-instrumented SLAM pass plus hardware
//! pricing and writes a machine-readable run report (spans, workload
//! counters, per-frame accuracy trajectory) to `<path>`. Experiment ids may
//! be combined with it; with `--report` alone, only the report is produced.
//!
//! `--checkpoint-every N` overrides the report run's checkpoint cadence
//! (default 4; `0` cuts none, and the report then fails the `report_diff`
//! gate) and `--checkpoint-dir D` additionally writes each snapshot to `D`
//! (one `ckpt_<frame>.snap` per cut) instead of keeping them in memory.
//!
//! `--trace-out <path>` writes a Chrome trace-event JSON of the
//! instrumented pass (open in Perfetto or `chrome://tracing`) and
//! `--events-out <path>` streams a JSONL event log (one record per span,
//! frame, counter — flushed per line, so `tail -f` follows the run live);
//! both go through the bench crate's one export path (`cli::Exports`).
//! Either flag triggers the instrumented pass even without `--report`.
//!
//! A flag whose value is missing or malformed exits 2.
//!
//! `--plan <file>` executes a headless multi-step plan (run → checkpoint →
//! export `.ply` → decimate → re-import → re-evaluate PSNR; see
//! `crates/bench/src/plan.rs` for the schema and `plans/roundtrip.json`
//! for the committed CI smoke plan). Artifacts land in `--plan-dir <dir>`
//! (default: a per-process temp directory). Any failed plan assertion
//! exits nonzero.

use splatonic_bench::cli::{arg_usize, arg_value};
use splatonic_bench::{plan, report, run_experiment, Settings, EXPERIMENTS};
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for id in EXPERIMENTS {
            println!("{id}");
        }
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    let settings = if quick {
        Settings::quick()
    } else {
        Settings::full()
    };
    let report_path = arg_value(&args, "--report");
    let mut options = report::InstrumentOptions {
        checkpoint_dir: arg_value(&args, "--checkpoint-dir").map(PathBuf::from),
        trace_out: arg_value(&args, "--trace-out").map(PathBuf::from),
        events_out: arg_value(&args, "--events-out").map(PathBuf::from),
        ..Default::default()
    };
    if let Some(every) = arg_usize(&args, "--checkpoint-every") {
        options.checkpoint_every = every;
    }
    let plan_path = arg_value(&args, "--plan").map(PathBuf::from);
    let plan_dir = arg_value(&args, "--plan-dir").map(PathBuf::from);
    let instrument =
        report_path.is_some() || options.trace_out.is_some() || options.events_out.is_some();
    let mut ids: Vec<&str> = {
        let mut skip_next = false;
        args.iter()
            .filter(|a| {
                if skip_next {
                    skip_next = false;
                    return false;
                }
                if [
                    "--report",
                    "--checkpoint-every",
                    "--checkpoint-dir",
                    "--trace-out",
                    "--events-out",
                    "--plan",
                    "--plan-dir",
                ]
                .contains(&a.as_str())
                {
                    skip_next = true;
                    return false;
                }
                !a.starts_with("--")
            })
            .map(String::as_str)
            .collect()
    };
    if ids.contains(&"all") || (ids.is_empty() && !instrument && plan_path.is_none()) {
        ids = EXPERIMENTS.to_vec();
    }
    for id in ids {
        let start = std::time::Instant::now();
        eprintln!("[figures] running {id}...");
        for table in run_experiment(id, &settings) {
            println!("{table}");
        }
        eprintln!(
            "[figures] {id} done in {:.1}s",
            start.elapsed().as_secs_f64()
        );
    }
    if instrument {
        let start = std::time::Instant::now();
        eprintln!("[figures] running instrumented report pass...");
        let name = report_path
            .as_deref()
            .and_then(|p| std::path::Path::new(p).file_stem())
            .and_then(|s| s.to_str())
            .unwrap_or("bench")
            .to_string();
        let run = report::instrumented_run(&name, &settings, &options);
        print!("{}", run.to_text());
        if let Some(path) = &report_path {
            if let Err(e) = run.write_json_file(std::path::Path::new(path)) {
                eprintln!("[figures] failed to write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("[figures] report written to {path}");
        }
        if let Some(path) = &options.trace_out {
            eprintln!("[figures] trace written to {}", path.display());
        }
        if let Some(path) = &options.events_out {
            eprintln!("[figures] events written to {}", path.display());
        }
        eprintln!(
            "[figures] instrumented pass done in {:.1}s",
            start.elapsed().as_secs_f64()
        );
    }
    if let Some(path) = &plan_path {
        let start = std::time::Instant::now();
        let dir = plan_dir.unwrap_or_else(|| {
            std::env::temp_dir().join(format!("splatonic-plan-{}", std::process::id()))
        });
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("[figures] cannot create plan dir {}: {e}", dir.display());
            std::process::exit(1);
        }
        eprintln!(
            "[figures] running plan {} (artifacts in {})...",
            path.display(),
            dir.display()
        );
        match plan::run_plan_file(path, &settings, &dir) {
            Ok(outcome) => {
                for line in &outcome.log {
                    println!("[plan {}] {line}", outcome.name);
                }
                eprintln!(
                    "[figures] plan {} done in {:.1}s",
                    outcome.name,
                    start.elapsed().as_secs_f64()
                );
            }
            Err(e) => {
                eprintln!("[figures] plan failed: {e}");
                std::process::exit(1);
            }
        }
    }
}
