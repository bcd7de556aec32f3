//! Benchmark-trajectory recorder (`report_diff record`).
//!
//! `scripts/bench_record.sh` runs the `kernels` binary once with `--scalar`
//! and once with `--simd` and hands both run reports to [`record`], which
//! appends one dated entry to each committed trajectory:
//!
//! * `BENCH_kernels.json`: both runs' per-kernel span totals and the
//!   derived speedup (DESIGN.md §13);
//! * `BENCH_sort.json`: the SIMD run's `sort/*` gauges (DESIGN.md §16).
//!   Every `kernels` run measures the per-tile sort baseline in-process, so one report carries the whole comparison. The counts are
//!   deterministic, and an entry below [`MIN_SORT_REDUCTION`] is refused.
//!
//! Each entry carries the report date and the recording host's `rustc -V`.
//!
//! [`record_e2e`] (`report_diff record-e2e`) appends the repository
//! benchmark's end-to-end results to `BENCH_e2e.json`: one entry per
//! `slam_bench/run.sh` stdout, with the date, the commit the run measured
//! (given by the caller, so the two sides of an A/B can be told apart), the
//! run's `#` host line (`nproc`, `simd_lanes`, `rustc`), the workload and
//! the metrics of its final JSON line. A run whose check failed is refused.

use crate::diff::MIN_SORT_REDUCTION;
use splatonic::telemetry::json::{self, Json};
use std::path::Path;

/// Spans recorded per kernel entry: the per-kernel micro-spans plus the
/// end-to-end schedule spans — enough to read both where the speedup comes
/// from and what it buys overall.
const KERNEL_SPANS: &[&str] = &[
    "kernel/project",
    "kernel/gradient",
    "forward/pixel_dense",
    "forward/pixel_sparse16",
    "forward/tile_dense",
    "forward/tile_sparse16",
    "backward/pixel_sparse16",
    "backward/tile_dense",
    "backward/pixel_dense",
];

/// Gauges recorded per sort entry (stored without the `sort/` prefix).
const SORT_GAUGES: &[&str] = &[
    "sort/naive_elems",
    "sort/sched_elems",
    "sort/realized_elems",
    "sort/elems_reduction",
    "sort/group_reuse",
];

const KERNELS_DESCRIPTION: &str = "Scalar-vs-SIMD kernel timing trajectory \
    (scripts/bench_record.sh): span total_ms over `iters` iterations of the \
    `kernels` binary; speedup = scalar_ms / simd_ms (DESIGN.md §13). \
    Machine-dependent; compare entries recorded on comparable hosts.";

const SORT_DESCRIPTION: &str = "Tile-sort trajectory (scripts/bench_record.sh): \
    deterministic compared-element counts (sort/* gauges of the kernels \
    binary's tracking burst), grouped with each backward reading its \
    forward's lists vs per-tile sorting in every pass (DESIGN.md §16); \
    elems_reduction = naive_elems / realized_elems >= 2x.";

const E2E_DESCRIPTION: &str = "End-to-end benchmark trajectory \
    (report_diff record-e2e): one entry per `bash slam_bench/run.sh` run, \
    with the commit it measured (entries from before the `commit` key have \
    none), the run's host line (nproc, simd_lanes, rustc), workload, seed \
    and the metrics of its final JSON line. Machine-dependent; compare entries \
    recorded on comparable hosts.";

fn round(x: f64, places: i32) -> f64 {
    let scale = 10f64.powi(places);
    (x * scale).round() / scale
}

fn span_field(report: &Json, name: &str, field: &str) -> Result<Json, String> {
    report
        .get("spans")
        .and_then(|s| s.get(name))
        .and_then(|s| s.get(field))
        .cloned()
        .ok_or_else(|| format!("span {name}.{field} missing from report"))
}

fn gauge(report: &Json, name: &str) -> Result<f64, String> {
    report
        .get("gauges")
        .and_then(|g| g.get(name))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("gauge {name} missing from report"))
}

fn date(report: &Json) -> Result<&str, String> {
    report
        .get("date")
        .and_then(Json::as_str)
        .ok_or_else(|| "report has no date".to_string())
}

/// [`KERNEL_SPANS`] totals in milliseconds, rounded to microseconds.
fn span_totals(report: &Json) -> Result<Vec<f64>, String> {
    KERNEL_SPANS
        .iter()
        .map(|name| {
            let ms = span_field(report, name, "total_ms")?;
            ms.as_f64()
                .map(|ms| round(ms, 3))
                .ok_or_else(|| format!("span {name}.total_ms is not a number"))
        })
        .collect()
}

fn by_span(values: impl IntoIterator<Item = Json>) -> Json {
    let mut out = Json::obj();
    for (name, value) in KERNEL_SPANS.iter().zip(values) {
        out.set(name, value);
    }
    out
}

/// Builds a `BENCH_kernels.json` entry from a `kernels --scalar` and a
/// `kernels --simd` report.
fn kernel_entry(scalar: &Json, simd: &Json, rustc: &str) -> Result<Json, String> {
    let iters = span_field(simd, "kernel/project", "count")?;
    if span_field(scalar, "kernel/project", "count")? != iters {
        return Err("scalar and SIMD reports ran different --iters".into());
    }
    let scalar_ms = span_totals(scalar)?;
    let simd_ms = span_totals(simd)?;
    let speedup = by_span(scalar_ms.iter().zip(&simd_ms).map(|(s, v)| {
        if *v > 0.0 {
            Json::Num(round(s / v, 2))
        } else {
            Json::Null
        }
    }));
    let mut entry = Json::obj();
    entry
        .set("date", date(simd)?)
        .set("rustc", rustc)
        .set("iters", iters)
        .set("simd_lanes", gauge(simd, "render/simd_lanes")? as i64)
        .set("scalar_ms", by_span(scalar_ms.into_iter().map(Json::Num)))
        .set("simd_ms", by_span(simd_ms.into_iter().map(Json::Num)))
        .set("speedup", speedup);
    Ok(entry)
}

/// Builds a `BENCH_sort.json` entry from a `kernels` report, refusing a
/// sorted-element reduction below [`MIN_SORT_REDUCTION`].
fn sort_entry(report: &Json, rustc: &str) -> Result<Json, String> {
    let mut grouped = Json::obj();
    for name in SORT_GAUGES {
        grouped.set(&name["sort/".len()..], round(gauge(report, name)?, 3));
    }
    let reduction = round(gauge(report, "sort/elems_reduction")?, 3);
    if reduction < MIN_SORT_REDUCTION {
        return Err(format!(
            "grouped sort reduction {reduction}x is below the \
             {MIN_SORT_REDUCTION}x acceptance bar (DESIGN.md §16)"
        ));
    }
    let mut entry = Json::obj();
    entry
        .set("date", date(report)?)
        .set("rustc", rustc)
        .set("grouped", grouped)
        .set("elems_reduction", reduction);
    Ok(entry)
}

/// Appends `entry` to the trajectory file at `path` (created with
/// `description` when absent) and returns the new entry count.
fn append(path: &Path, description: &str, entry: Json) -> Result<usize, String> {
    let mut doc = match std::fs::read_to_string(path) {
        Ok(text) => json::parse(&text)
            .map_err(|e| format!("{} is not valid JSON: {e:?}", path.display()))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            let mut doc = Json::obj();
            doc.set("description", description)
                .set("entries", Json::Arr(Vec::new()));
            doc
        }
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let entries = match &mut doc {
        Json::Obj(fields) => fields.iter_mut().find_map(|(k, v)| match v {
            Json::Arr(entries) if k == "entries" => Some(entries),
            _ => None,
        }),
        _ => None,
    }
    .ok_or_else(|| format!("{} has no entries array", path.display()))?;
    entries.push(entry);
    let count = entries.len();
    std::fs::write(path, doc.to_string_pretty() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(count)
}

/// The toolchain that built the recorded binaries, as `rustc -V` prints it.
fn rustc_version() -> Result<String, String> {
    let out = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .map_err(|e| format!("cannot run rustc -V: {e}"))?;
    if !out.status.success() {
        return Err(format!("rustc -V failed: {}", out.status));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Appends one entry built from the `scalar`/`simd` `kernels` reports to
/// each trajectory and returns a human-readable summary. Both entries are
/// built before either file is written, so a refused sort entry leaves both
/// trajectories untouched.
pub fn record(
    scalar: &Json,
    simd: &Json,
    kernels_out: &Path,
    sort_out: &Path,
) -> Result<String, String> {
    let rustc = rustc_version()?;
    let kernels = kernel_entry(scalar, simd, &rustc)?;
    let sort = sort_entry(simd, &rustc)?;
    let field = |entry: &Json, key| entry.get(key).map_or(String::new(), Json::to_string_pretty);
    let summary = format!(
        "speedup (scalar_ms / simd_ms): {}\nsorted-element reduction: {}x\n",
        field(&kernels, "speedup"),
        field(&sort, "elems_reduction"),
    );
    let n_kernels = append(kernels_out, KERNELS_DESCRIPTION, kernels)?;
    let n_sort = append(sort_out, SORT_DESCRIPTION, sort)?;
    Ok(format!(
        "{summary}appended entry {n_kernels} to {}\nappended entry {n_sort} to {}\n",
        kernels_out.display(),
        sort_out.display()
    ))
}

/// The value of `key=` in a `slam_bench/run.sh` host line (`rustc` is the
/// last field and quoted; the others are single words).
fn host_field<'a>(host: &'a str, key: &str) -> Result<&'a str, String> {
    if key == "rustc" {
        return host
            .split_once(" rustc=\"")
            .and_then(|(_, rest)| rest.strip_suffix('"'))
            .ok_or_else(|| "host line has no quoted rustc".to_string());
    }
    host.split_whitespace()
        .find_map(|word| word.strip_prefix(key)?.strip_prefix('='))
        .ok_or_else(|| format!("host line has no {key}="))
}

/// Builds a `BENCH_e2e.json` entry dated `date` for `commit` from the
/// stdout of one `slam_bench/run.sh` run, refusing a run that is not
/// `correct` or has failed frames.
fn e2e_entry(stdout: &str, date: &str, commit: &str) -> Result<Json, String> {
    let host = stdout
        .lines()
        .find(|l| l.starts_with("# slam-bench "))
        .ok_or("no `# slam-bench` host line")?;
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty run output")?;
    let result = json::parse(last).map_err(|e| format!("final line is not JSON: {e:?}"))?;
    let failed = result
        .get("failed")
        .and_then(Json::as_f64)
        .ok_or("final line has no failed count")?;
    if result.get("correct") != Some(&Json::Bool(true)) || failed != 0.0 {
        return Err(format!(
            "refused: run is not correct ({failed} failed frames)"
        ));
    }
    let Some(Json::Obj(fields)) = result.get("metrics") else {
        return Err("final line has no metrics object".into());
    };
    let mut metrics = Json::obj();
    for (name, metric) in fields {
        let value = metric
            .get("value")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("metric {name} has no value"))?;
        metrics.set(name, value);
    }
    let int = |key| -> Result<i64, String> {
        host_field(host, key)?
            .parse()
            .map_err(|e| format!("host line {key}: {e}"))
    };
    let mut entry = Json::obj();
    entry
        .set("date", date)
        .set("commit", commit)
        .set("workload", host_field(host, "workload")?)
        .set("seed", int("seed")?)
        .set("trace", int("trace")?)
        .set("nproc", int("nproc")?)
        .set("simd_lanes", int("simd_lanes")?)
        .set("rustc", host_field(host, "rustc")?)
        .set("metrics", metrics);
    Ok(entry)
}

/// Why [`record_e2e`] wrote nothing, or stopped part-way.
#[derive(Debug, Clone, PartialEq)]
pub enum E2eError {
    /// A run was unreadable, malformed or refused; nothing was written.
    Invalid(String),
    /// Writing the trajectory failed.
    Write(String),
}

/// Appends one entry per `slam_bench/run.sh` stdout in `runs` to the
/// trajectory at `out`, dated today (UTC) and stamped with `commit`, the
/// revision the runs measured, and returns a summary. Every entry is built
/// before any is written, so one refused run (or an empty `commit`) leaves
/// the trajectory untouched.
pub fn record_e2e(out: &Path, commit: &str, runs: &[&Path]) -> Result<String, E2eError> {
    if commit.trim().is_empty() {
        return Err(E2eError::Invalid("empty --commit".into()));
    }
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let date = splatonic::telemetry::utc_date(unix);
    let entries = runs
        .iter()
        .map(|run| {
            let text = std::fs::read_to_string(run)
                .map_err(|e| format!("cannot read {}: {e}", run.display()))?;
            e2e_entry(&text, &date, commit).map_err(|e| format!("{}: {e}", run.display()))
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(E2eError::Invalid)?;
    let mut summary = String::new();
    for entry in entries {
        let n = append(out, E2E_DESCRIPTION, entry).map_err(E2eError::Write)?;
        summary += &format!("appended entry {n} to {}\n", out.display());
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `kernels` report whose [`KERNEL_SPANS`] each took `ms` over five
    /// iterations, carrying the committed sort counts with `reduction`.
    fn kernels_report(ms: f64, reduction: f64) -> Json {
        let mut spans = Json::obj();
        for name in KERNEL_SPANS {
            let mut span = Json::obj();
            span.set("count", 5u64).set("total_ms", ms);
            spans.set(name, span);
        }
        let mut gauges = Json::obj();
        gauges.set("render/simd_lanes", 4.0);
        for (name, value) in [
            ("sort/naive_elems", 36780.0),
            ("sort/sched_elems", 18732.0),
            ("sort/realized_elems", 9366.0),
            ("sort/elems_reduction", reduction),
            ("sort/group_reuse", 168.0),
        ] {
            gauges.set(name, value);
        }
        let mut doc = Json::obj();
        doc.set("date", "2026-10-16")
            .set("spans", spans)
            .set("gauges", gauges);
        doc
    }

    #[test]
    fn entries_are_built_from_kernel_reports() {
        let scalar = kernels_report(9.0, 36780.0 / 9366.0);
        let simd = kernels_report(3.0, 36780.0 / 9366.0);
        let kernels = kernel_entry(&scalar, &simd, "rustc 1.0.0").unwrap();
        assert_eq!(kernels.get("rustc"), Some(&Json::from("rustc 1.0.0")));
        assert_eq!(kernels.get("iters"), Some(&Json::Int(5)));
        assert_eq!(kernels.get("simd_lanes"), Some(&Json::Int(4)));
        for name in KERNEL_SPANS {
            let speedup = kernels.get("speedup").and_then(|s| s.get(name));
            assert_eq!(speedup, Some(&Json::Num(3.0)), "{name}");
        }

        let sort = sort_entry(&simd, "rustc 1.0.0").unwrap();
        assert_eq!(sort.get("date"), Some(&Json::from("2026-10-16")));
        assert_eq!(sort.get("elems_reduction"), Some(&Json::Num(3.927)));
        assert!(sort.get("per_tile_uncached").is_none());
        let grouped = sort.get("grouped").unwrap();
        assert_eq!(grouped.get("naive_elems"), Some(&Json::Num(36780.0)));
        assert_eq!(grouped.get("realized_elems"), Some(&Json::Num(9366.0)));
        assert!(grouped.get("hits").is_none() && grouped.get("misses").is_none());

        let path = std::env::temp_dir().join(format!("record_test_{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        assert_eq!(append(&path, "d", sort.clone()), Ok(1));
        assert_eq!(append(&path, "d", sort.clone()), Ok(2));
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let entries = doc.get("entries").and_then(Json::as_arr);
        assert_eq!(entries, Some(&[sort.clone(), sort][..]));
    }

    /// The committed trajectory's latest entry records exactly the spans
    /// `record` reads now, so a kernel added to or dropped from
    /// [`KERNEL_SPANS`] must come with a fresh entry. Older entries keep
    /// their historical keys.
    #[test]
    fn latest_committed_kernel_entry_has_the_kernel_spans() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernels.json");
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let latest = doc
            .get("entries")
            .and_then(Json::as_arr)
            .and_then(<[Json]>::last)
            .expect("BENCH_kernels.json has entries");
        for key in ["scalar_ms", "simd_ms", "speedup"] {
            let Some(Json::Obj(fields)) = latest.get(key) else {
                panic!("latest entry has no {key} object");
            };
            let names: Vec<&str> = fields.iter().map(|(name, _)| name.as_str()).collect();
            assert_eq!(names, KERNEL_SPANS, "{key}");
        }
    }

    /// The stdout of a `slam_bench/run.sh` run, abridged to two metrics.
    fn bench_stdout(correct: bool, failed: u32) -> String {
        format!(
            "# slam-bench workload=dense-tile seed=1 trace=0 pool_width=2 nproc=2 \
             simd_lanes=4 rustc=\"rustc 1.0.0 (abc 2026-01-01)\"\n\
             # 1 untraced episode\n\
             setup_s 0.035 s\n\
             # check: ok\n\
             {{\"correct\": {correct}, \"attempted\": 9, \"failed\": {failed}, \"metrics\": \
             {{\"setup_s\": {{\"value\": 0.035, \"unit\": \"s\"}}, \
             \"track_ms_p50\": {{\"value\": 62.7, \"unit\": \"ms\"}}}}}}\n"
        )
    }

    #[test]
    fn e2e_entry_reads_the_host_line_and_final_metrics() {
        let entry = e2e_entry(&bench_stdout(true, 0), "2026-10-19", "c77a40f").unwrap();
        assert_eq!(entry.get("date"), Some(&Json::from("2026-10-19")));
        assert_eq!(entry.get("commit"), Some(&Json::from("c77a40f")));
        assert_eq!(entry.get("workload"), Some(&Json::from("dense-tile")));
        assert_eq!(entry.get("seed"), Some(&Json::Int(1)));
        assert_eq!(entry.get("trace"), Some(&Json::Int(0)));
        assert_eq!(entry.get("nproc"), Some(&Json::Int(2)));
        assert_eq!(entry.get("simd_lanes"), Some(&Json::Int(4)));
        assert_eq!(
            entry.get("rustc"),
            Some(&Json::from("rustc 1.0.0 (abc 2026-01-01)"))
        );
        let metrics = entry.get("metrics").unwrap();
        assert_eq!(metrics.get("setup_s"), Some(&Json::Num(0.035)));
        assert_eq!(metrics.get("track_ms_p50"), Some(&Json::Num(62.7)));
    }

    #[test]
    fn failed_bench_runs_are_refused() {
        for (correct, failed) in [(false, 0), (true, 3), (false, 2)] {
            let err = e2e_entry(&bench_stdout(correct, failed), "d", "c").unwrap_err();
            assert!(err.contains("refused"), "{err}");
        }
        assert!(e2e_entry("setup_s 1 s\n", "d", "c").is_err());

        // One refused run among good ones writes nothing.
        let dir = std::env::temp_dir();
        let id = std::process::id();
        let good = dir.join(format!("e2e_good_{id}.txt"));
        let bad = dir.join(format!("e2e_bad_{id}.txt"));
        let out = dir.join(format!("e2e_out_{id}.json"));
        std::fs::write(&good, bench_stdout(true, 0)).unwrap();
        std::fs::write(&bad, bench_stdout(false, 1)).unwrap();
        let _ = std::fs::remove_file(&out);
        let got = record_e2e(&out, "c", &[&good, &bad]);
        assert!(matches!(got, Err(E2eError::Invalid(_))), "{got:?}");
        let got = record_e2e(&out, " ", &[&good]);
        assert!(matches!(got, Err(E2eError::Invalid(_))), "{got:?}");
        assert!(!out.exists());
        assert!(record_e2e(&out, "abc123", &[&good, &good]).is_ok());
        let doc = json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        let entries = doc.get("entries").and_then(Json::as_arr).unwrap();
        assert_eq!(entries.len(), 2);
        for entry in entries {
            assert_eq!(entry.get("commit"), Some(&Json::from("abc123")));
        }
        for path in [good, bad, out] {
            std::fs::remove_file(path).unwrap();
        }
    }

    #[test]
    fn sort_reduction_below_the_bar_is_refused() {
        let report = kernels_report(1.0, 1.9);
        let err = sort_entry(&report, "rustc 1.0.0").unwrap_err();
        assert!(err.contains("below"), "{err}");
        assert!(sort_entry(&kernels_report(1.0, MIN_SORT_REDUCTION), "r").is_ok());
    }
}
