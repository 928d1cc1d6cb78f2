//! Shared observability CLI surface for experiment binaries.
//!
//! Every instrumented binary accepts one optional flag, `--obs-out DIR`.
//! It creates `DIR` and leaves the run's artifacts there under fixed
//! names — the bundle layout, which is the whole contract (there is no
//! manifest file):
//!
//! * [`TRACE`] — the structured event trace as JSONL, one
//!   [`bgpvcg_telemetry::TraceEvent`] per line.
//! * [`METRICS`] — the final metrics snapshot as JSON
//!   ([`bgpvcg_telemetry::MetricsSnapshot::to_json`]).
//! * [`PROFILE`] + [`FOLDED`] — the span profiler's report
//!   (`bgpvcg-profile-v1`) and its flamegraph-ready collapsed stacks (see
//!   [`bgpvcg_telemetry::profile`]).
//!
//! A binary writes only the artifacts it produces: the profile comes from
//! the binaries that attach the profiler, and the health monitor's
//! findings are `HealthVerdict` lines of the trace. Without the flag the
//! runs are the same (the registry still aggregates and the tables are
//! printed from it), but nothing hits disk. See `docs/OBSERVABILITY.md`
//! for the event taxonomy, metric names and who reads each file.

use bgpvcg_telemetry::{SpanProfiler, Telemetry};
use std::path::PathBuf;
use std::process::exit;

/// The JSONL event trace.
pub const TRACE: &str = "trace.jsonl";
/// The final metrics snapshot.
pub const METRICS: &str = "metrics.json";
/// The `bgpvcg-profile-v1` report.
pub const PROFILE: &str = "profile.json";
/// The span profile's collapsed stacks.
pub const FOLDED: &str = "profile.folded";

/// The parsed `--obs-out DIR` flag plus the [`Telemetry`] handle it
/// configures.
#[derive(Debug)]
pub struct ObsConfig {
    dir: Option<PathBuf>,
    telemetry: Telemetry,
}

impl ObsConfig {
    /// Parses the process arguments. Any other argument — a retired
    /// per-artifact flag such as `--trace-out` included — prints usage to
    /// stderr and exits with status 2, so a stale script never silently
    /// runs the (often minutes-long) sweep without its requested outputs.
    pub fn from_args() -> Self {
        let (dir, rest) = split(std::env::args().skip(1));
        if let Some(arg) = rest.first() {
            eprintln!("unknown argument `{arg}`");
            eprintln!("usage: <experiment> [--obs-out DIR]");
            exit(2);
        }
        Self::open(dir)
    }

    /// Splits `args` into `--obs-out DIR` (consumed into an `ObsConfig`)
    /// and everything else (returned for the binary's own parser, whose
    /// usage line names `[--obs-out DIR]`).
    pub fn extract<I: IntoIterator<Item = String>>(args: I) -> (Self, Vec<String>) {
        let (dir, rest) = split(args);
        (Self::open(dir), rest)
    }

    /// Creates the bundle directory and opens its trace.
    fn open(dir: Option<PathBuf>) -> Self {
        let telemetry = match &dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)
                    .unwrap_or_else(|err| panic!("cannot create {}: {err}", dir.display()));
                let path = dir.join(TRACE);
                Telemetry::jsonl_file(&path)
                    .unwrap_or_else(|err| panic!("cannot open {}: {err}", path.display()))
            }
            None => Telemetry::null(),
        };
        ObsConfig { dir, telemetry }
    }

    /// Writes `profiler`'s report to the bundle's [`PROFILE`] and its
    /// collapsed stacks to [`FOLDED`].
    pub fn write_profile(&self, profiler: &SpanProfiler) {
        self.write(PROFILE, &profiler.to_json());
        self.write(FOLDED, &profiler.collapsed());
    }

    /// The telemetry handle every run in the binary should share, so the
    /// final snapshot aggregates the whole sweep.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Flushes the trace and writes the bundle's [`METRICS`]. Call once,
    /// after the last run.
    pub fn finish(&self) {
        self.telemetry.flush();
        if self.dir.is_some() {
            self.write(METRICS, &self.telemetry.snapshot().to_json());
        }
    }

    fn write(&self, name: &str, contents: &str) {
        if let Some(dir) = &self.dir {
            let path = dir.join(name);
            std::fs::write(&path, contents)
                .unwrap_or_else(|err| panic!("cannot write {}: {err}", path.display()));
        }
    }
}

/// Takes `--obs-out DIR` out of `args`; a missing `DIR` exits with
/// status 2.
fn split<I: IntoIterator<Item = String>>(args: I) -> (Option<PathBuf>, Vec<String>) {
    let mut dir = None;
    let mut rest = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg != "--obs-out" {
            rest.push(arg);
        } else if let Some(path) = args.next() {
            dir = Some(PathBuf::from(path));
        } else {
            eprintln!("`--obs-out` requires a DIR argument");
            exit(2);
        }
    }
    (dir, rest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpvcg_telemetry::profile::span;
    use bgpvcg_telemetry::TraceEvent;

    #[test]
    fn obs_out_creates_a_bundle_of_exactly_the_documented_files() {
        let dir = std::env::temp_dir().join(format!("bgpvcg-obs-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (config, rest) = ObsConfig::extract(
            [
                "--smoke",
                "--obs-out",
                dir.to_str().unwrap(),
                "--out",
                "x.json",
            ]
            .map(str::to_string),
        );
        assert_eq!(rest, ["--smoke", "--out", "x.json"]);
        assert!(dir.is_dir(), "--obs-out creates the bundle directory");

        config
            .telemetry()
            .record(&TraceEvent::StageStart { stage: 1 });
        config.telemetry().counter("bgp_messages_total").add(7);
        let mut profiler = SpanProfiler::engine();
        profiler.enter(span::STAGE, 10);
        profiler.exit(30);
        config.write_profile(&profiler);
        config.finish();

        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        assert_eq!(files, [METRICS, FOLDED, PROFILE, TRACE]);
        let read = |name| std::fs::read_to_string(dir.join(name)).unwrap();
        assert_eq!(read(TRACE).lines().count(), 1);
        assert!(read(METRICS).contains("\"bgp_messages_total\":7"));
        assert!(read(PROFILE).contains("bgpvcg-profile-v1"));
        assert!(read(FOLDED).contains("stage 20"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
