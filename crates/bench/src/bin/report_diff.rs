//! The run-report gate, plus the benchmark-trajectory recorder.
//!
//! Usage:
//!   report_diff REPORT BASELINE
//!   report_diff record SCALAR_REPORT SIMD_REPORT KERNELS_OUT SORT_OUT
//!   report_diff record-e2e --commit REV OUT RUN...
//!
//! The first form compares a fresh `RunReport` JSON against a committed
//! baseline under the policy in `splatonic_bench::diff`: workload counters
//! and span counts exact, accuracy and per-frame floats within a small
//! absolute tolerance, wall-clock (span totals, latency percentiles) bounded
//! by a generous multiplier of the baseline, machine-dependent metrics
//! (`pool/`, `render/simd_lanes`) skipped. Each latency percentile is an
//! exact nearest-rank sample of that report's own `frames[]` times.
//!
//! `record` takes a `kernels --scalar` and a `kernels --simd` report and
//! appends one entry each to the kernel and sort trajectories
//! (`splatonic_bench::record`; run by `scripts/bench_record.sh`).
//!
//! `record-e2e` appends one `BENCH_e2e.json` entry per `RUN`, the saved
//! stdout of one `bash slam_bench/run.sh` run (`splatonic_bench::record`),
//! stamped with `REV`, the commit the runs measured (required).
//!
//! Exit codes: 0 = pass, 1 = violations (one per line on stderr), a
//! refused kernel record or a failed write, 2 = usage or
//! unreadable/invalid input, including a `record-e2e` run that is not
//! `correct` or has failed frames.

use splatonic::telemetry::json;
use splatonic_bench::diff::diff_reports;
use splatonic_bench::record::{record, record_e2e, E2eError};
use std::path::Path;

const USAGE: &str = "usage: report_diff REPORT BASELINE\n       \
                     report_diff record SCALAR_REPORT SIMD_REPORT KERNELS_OUT SORT_OUT\n       \
                     report_diff record-e2e --commit REV OUT RUN...";

fn load(path: &str) -> json::Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("report_diff: cannot read {path}: {e}");
        std::process::exit(2);
    });
    json::parse(&text).unwrap_or_else(|e| {
        eprintln!("report_diff: {path} is not valid JSON: {e:?}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [mode, scalar, simd, kernels_out, sort_out] if mode == "record" => {
            match record(
                &load(scalar),
                &load(simd),
                Path::new(kernels_out),
                Path::new(sort_out),
            ) {
                Ok(summary) => print!("{summary}"),
                Err(e) => {
                    eprintln!("report_diff record: {e}");
                    std::process::exit(1);
                }
            }
        }
        [mode, flag, commit, out, runs @ ..] if mode == "record-e2e" && flag == "--commit" => {
            if runs.is_empty() {
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
            let runs: Vec<&Path> = runs.iter().map(Path::new).collect();
            match record_e2e(Path::new(out), commit, &runs) {
                Ok(summary) => print!("{summary}"),
                Err(E2eError::Invalid(e)) => {
                    eprintln!("report_diff record-e2e: {e}");
                    std::process::exit(2);
                }
                Err(E2eError::Write(e)) => {
                    eprintln!("report_diff record-e2e: {e}");
                    std::process::exit(1);
                }
            }
        }
        [report_path, baseline_path] => {
            let errors = diff_reports(&load(report_path), &load(baseline_path));
            if !errors.is_empty() {
                eprintln!("report_diff: FAIL ({} violation(s))", errors.len());
                for e in &errors {
                    eprintln!("  - {e}");
                }
                std::process::exit(1);
            }
            println!("report_diff: OK (report matches {baseline_path})");
        }
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}
