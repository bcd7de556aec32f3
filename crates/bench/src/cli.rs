//! Command-line plumbing shared by the bench binaries (`figures`,
//! `kernels`, `fleet`, `fault_inject`): flag parsing that rejects malformed
//! values or unknown flags, and the `--trace-out`/`--events-out` exports.

use splatonic::telemetry::{SpanEvent, Telemetry, TraceSession};
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// The value following `flag` in `args`, parsed as `T`: `Ok(None)` when the
/// flag is absent.
///
/// # Errors
///
/// When the flag is the last argument or its value does not parse.
pub fn parse_flag<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let value = args
        .get(i + 1)
        .ok_or_else(|| format!("{flag} requires an argument"))?;
    value
        .parse()
        .map(Some)
        .map_err(|_| format!("{flag}: malformed value {value:?}"))
}

/// The positional arguments of `args`, after checking every `--flag`
/// against the known ones: a flag in `valued` consumes the argument after
/// it, a flag in `switches` stands alone.
///
/// # Errors
///
/// On a flag in neither list.
pub fn positional_args<'a>(
    args: &'a [String],
    valued: &[&str],
    switches: &[&str],
) -> Result<Vec<&'a str>, String> {
    let mut positional = Vec::new();
    let mut rest = args.iter().map(String::as_str);
    while let Some(arg) = rest.next() {
        if valued.contains(&arg) {
            rest.next();
        } else if !arg.starts_with("--") {
            positional.push(arg);
        } else if !switches.contains(&arg) {
            return Err(format!("unknown flag {arg}"));
        }
    }
    Ok(positional)
}

/// [`parse_flag`] that prints the error and exits 2 (a usage error).
fn flag_or_exit<T: FromStr>(args: &[String], flag: &str) -> Option<T> {
    parse_flag(args, flag).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// The string value following `flag`; exits 2 when the value is missing.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    flag_or_exit(args, flag)
}

/// The unsigned integer following `flag`; exits 2 when the value is
/// missing or malformed.
pub fn arg_usize(args: &[String], flag: &str) -> Option<usize> {
    flag_or_exit(args, flag)
}

/// The trace and event exports of one bench run: a JSONL event stream
/// attached to the run's telemetry (`--events-out`) and a Chrome trace
/// written at the end (`--trace-out`).
#[derive(Debug)]
pub struct Exports {
    trace: Option<(PathBuf, TraceSession)>,
}

impl Exports {
    /// Attaches the event stream to `telemetry` when `events_out` is set
    /// and begins the trace session when `trace_out` is set. Call it before
    /// the first render, so the pool and render-phase capture covers the
    /// whole run.
    ///
    /// # Errors
    ///
    /// When the events file cannot be created.
    pub fn begin(
        telemetry: &Telemetry,
        trace_out: Option<PathBuf>,
        events_out: Option<PathBuf>,
    ) -> Result<Exports, String> {
        if let Some(path) = events_out {
            let file = std::fs::File::create(&path)
                .map_err(|e| format!("failed to create {}: {e}", path.display()))?;
            telemetry.stream_events_to(Box::new(std::io::BufWriter::new(file)));
        }
        Ok(Exports {
            trace: trace_out.map(|path| (path, TraceSession::begin())),
        })
    }

    /// Writes the Chrome trace, if one was requested: `telemetry`'s span
    /// events plus `extra_spans` (other handles' events, e.g. one per
    /// served session) and the captured pool and render-phase activity.
    /// Returns the path written. The event stream needs no final step: it
    /// is flushed line by line.
    ///
    /// # Errors
    ///
    /// When the trace file cannot be written.
    pub fn write_trace(
        &self,
        telemetry: &Telemetry,
        extra_spans: &[SpanEvent],
    ) -> Result<Option<&Path>, String> {
        let Some((path, session)) = &self.trace else {
            return Ok(None);
        };
        telemetry
            .write_chrome_trace(session, extra_spans, path)
            .map_err(|e| format!("failed to write {}: {e}", path.display()))?;
        Ok(Some(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_or_report_a_usage_error() {
        let a = args(&["--iters", "3", "--threads", "x", "--out"]);
        assert_eq!(parse_flag::<usize>(&a, "--iters"), Ok(Some(3)));
        assert_eq!(parse_flag::<usize>(&a, "--absent"), Ok(None));
        let malformed = parse_flag::<usize>(&a, "--threads").unwrap_err();
        assert!(malformed.contains("malformed value \"x\""), "{malformed}");
        let missing = parse_flag::<String>(&a, "--out").unwrap_err();
        assert!(missing.contains("requires an argument"), "{missing}");
    }

    #[test]
    fn positional_args_skip_flag_values_and_reject_unknown_flags() {
        let (valued, switches) = (&["--report", "--out"][..], &["--quick"][..]);
        let a = args(&["fig19", "--report", "r.json", "--quick", "fig21", "--out"]);
        assert_eq!(
            positional_args(&a, valued, switches),
            Ok(vec!["fig19", "fig21"])
        );
        // A flag's value is never an id, even when it looks like a flag.
        let a = args(&["--report", "--quick", "fig04"]);
        assert_eq!(positional_args(&a, valued, switches), Ok(vec!["fig04"]));
        let a = args(&["fig04", "--qiuck"]);
        assert_eq!(
            positional_args(&a, valued, switches),
            Err("unknown flag --qiuck".to_string())
        );
    }
}
