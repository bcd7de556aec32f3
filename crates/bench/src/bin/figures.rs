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
//! An unknown flag, an unknown experiment id, or a flag whose value is
//! missing or malformed exits 2 before anything runs.

use splatonic_bench::cli::{arg_usize, arg_value, positional_args};
use splatonic_bench::{report, run_experiment, Settings, EXPERIMENTS};
use std::path::PathBuf;

/// The flags that take a value.
const VALUED_FLAGS: &[&str] = &[
    "--report",
    "--checkpoint-every",
    "--checkpoint-dir",
    "--trace-out",
    "--events-out",
];

/// The flags that stand alone.
const SWITCHES: &[&str] = &["--quick", "--list"];

fn usage_error(message: &str) -> ! {
    eprintln!("[figures] {message}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids =
        positional_args(&args, VALUED_FLAGS, SWITCHES).unwrap_or_else(|e| usage_error(&e));
    let known = |id: &&str| ["all", "ablations"].contains(id) || EXPERIMENTS.contains(id);
    if let Some(id) = ids.iter().find(|id| !known(id)) {
        usage_error(&format!("unknown experiment id {id} (see figures --list)"));
    }
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
    let instrument =
        report_path.is_some() || options.trace_out.is_some() || options.events_out.is_some();
    if ids.contains(&"all") || (ids.is_empty() && !instrument) {
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
}
