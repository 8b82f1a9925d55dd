//! The unified bench-artifact schema.
//!
//! Every `exp_*` binary emits exactly one machine-readable line —
//! `BENCH {json}` — plus, optionally, a file copy of the same document.
//! Each binary builds a [`BenchReport`] and ships it through [`emit`], so
//! CI artifacts and any external consumer see one schema:
//!
//! ```json
//! {"schema":1,"bench":"exp_fleet",
//!  "meta":{"threads":"8"},
//!  "metrics":{"homes_per_sec":512.3,"converged":160},
//!  "alloc":{"allocs_total":1,"bytes_total":2,"peak_live_bytes":3},
//!  "profile":[{"path":"fleet.cell","count":160,"ticks":9,"self_ticks":4}]}
//! ```
//!
//! * `metrics` is a sorted map of scalars ([`Metric`]). Names ending in a
//!   wall-clock suffix (`_secs`, `_per_sec`, `_ms`, `_nanos`, `_hz`,
//!   `speedup`) are machine-dependent by convention; everything else is a
//!   deterministic function of the run's inputs.
//! * `alloc` carries the [`AllocStats`] window measured by the counting
//!   allocator (absent when the binary did not install one).
//! * `profile` is the phase tree in folded order — deterministic sim
//!   ticks, never wall time (per-phase wall nanos stay out of the
//!   artifact on purpose).
//!
//! The artifact is an output, not a gate: nothing in the workspace reads
//! it back. The regression gate is the rb-bench `work_counters` test,
//! which reruns the gated workloads in-process and pins their counters.
//! The repo has no serialization dependency, so the writer is hand-rolled.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use rb_prof::{AllocStats, PhaseEntry, PhaseProfile};
use rb_telemetry::json::escape;

/// Version tag every artifact carries; bump on breaking schema changes.
pub const SCHEMA_VERSION: u64 = 1;

/// Environment variable naming a directory to drop artifacts into. When
/// set it wins over any positional output path: [`emit`] writes
/// `$RB_BENCH_OUT/bench_<name>.json`. CI sets this once per job instead
/// of threading a path argument through every binary.
pub const OUT_ENV: &str = "RB_BENCH_OUT";

/// One scalar in the `metrics` map.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// An exact integer (counts, ticks, bytes).
    U64(u64),
    /// A float (rates, ratios); serialized with enough digits to round-trip.
    F64(f64),
    /// A pass/fail flag.
    Bool(bool),
    /// A label.
    Text(String),
}

impl Metric {
    fn to_json(&self) -> String {
        match self {
            Metric::U64(v) => v.to_string(),
            Metric::F64(v) => {
                if v.is_finite() {
                    let s = v.to_string();
                    // Keep floats recognizable as floats after parsing.
                    if s.contains(['.', 'e', 'E']) {
                        s
                    } else {
                        format!("{s}.0")
                    }
                } else {
                    "null".to_owned()
                }
            }
            Metric::Bool(v) => v.to_string(),
            Metric::Text(v) => format!("\"{}\"", escape(v)),
        }
    }
}

/// The one artifact schema all experiment binaries emit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchReport {
    /// Binary name, e.g. `exp_fleet`.
    pub bench: String,
    /// Free-form run parameters (seeds, thread counts, budgets), recorded
    /// for reproduction.
    pub meta: BTreeMap<String, String>,
    /// The measured scalars.
    pub metrics: BTreeMap<String, Metric>,
    /// Allocator window for the run, when the binary measured one.
    pub alloc: Option<AllocStats>,
    /// Phase tree (deterministic sim ticks), empty when not profiled.
    pub profile: Vec<PhaseEntry>,
}

impl BenchReport {
    /// A fresh report for the named bench.
    pub fn new(bench: &str) -> Self {
        BenchReport {
            bench: bench.to_owned(),
            ..BenchReport::default()
        }
    }

    /// Records a run parameter.
    pub fn meta(&mut self, key: &str, value: impl ToString) -> &mut Self {
        self.meta.insert(key.to_owned(), value.to_string());
        self
    }

    /// Records an integer metric.
    pub fn metric_u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.metrics.insert(key.to_owned(), Metric::U64(value));
        self
    }

    /// Records a float metric.
    pub fn metric_f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.metrics.insert(key.to_owned(), Metric::F64(value));
        self
    }

    /// Records a boolean metric.
    pub fn metric_bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.metrics.insert(key.to_owned(), Metric::Bool(value));
        self
    }

    /// Records a text metric.
    pub fn metric_text(&mut self, key: &str, value: &str) -> &mut Self {
        self.metrics
            .insert(key.to_owned(), Metric::Text(value.to_owned()));
        self
    }

    /// Attaches the allocator window.
    pub fn with_alloc(&mut self, alloc: AllocStats) -> &mut Self {
        self.alloc = Some(alloc);
        self
    }

    /// Attaches a phase tree (folded order, ticks only).
    pub fn with_profile(&mut self, profile: &PhaseProfile) -> &mut Self {
        self.profile = profile.entries();
        self
    }

    /// The single-line JSON document. Maps are BTree-backed and the
    /// profile is in folded order, so the bytes are deterministic.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"schema\":{SCHEMA_VERSION},\"bench\":\"{}\",\"meta\":{{",
            escape(&self.bench)
        );
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":\"{}\"", escape(k), escape(v));
        }
        out.push_str("},\"metrics\":{");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape(k), v.to_json());
        }
        out.push_str("},\"alloc\":");
        match &self.alloc {
            Some(a) => {
                let _ = write!(
                    out,
                    "{{\"allocs_total\":{},\"bytes_total\":{},\"peak_live_bytes\":{}}}",
                    a.allocs_total, a.bytes_total, a.peak_live_bytes
                );
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"profile\":[");
        for (i, e) in self.profile.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"path\":\"{}\",\"count\":{},\"ticks\":{},\"self_ticks\":{}}}",
                escape(&e.path),
                e.count,
                e.ticks,
                e.self_ticks
            );
        }
        out.push_str("]}");
        out
    }
}

/// Prints the canonical `BENCH {json}` line and writes the file copy:
/// to `$RB_BENCH_OUT/bench_<name>.json` when [`OUT_ENV`] is set (the
/// variable wins), else to `out_arg` when given, else nowhere. Exits the
/// process with status 1 when a requested write fails — an artifact CI
/// asked for but did not get must fail the job.
pub fn emit(report: &BenchReport, out_arg: Option<&str>) {
    let json = report.to_json();
    println!("BENCH {json}");
    match write_artifact(report, out_arg) {
        Ok(Some(path)) => eprintln!("wrote {}", path.display()),
        Ok(None) => {}
        Err(e) => {
            eprintln!("{}: {e}", report.bench);
            std::process::exit(1);
        }
    }
}

/// The file-writing half of [`emit`]: resolves the destination
/// ([`OUT_ENV`] directory wins over the positional path), creates the
/// directory if needed, writes the JSON, and returns the path written
/// (`None` when no destination was requested).
pub fn write_artifact(
    report: &BenchReport,
    out_arg: Option<&str>,
) -> Result<Option<PathBuf>, String> {
    let path = match std::env::var(OUT_ENV) {
        Ok(dir) if !dir.is_empty() => {
            std::fs::create_dir_all(&dir)
                .map_err(|e| format!("cannot create {OUT_ENV} dir {dir}: {e}"))?;
            PathBuf::from(dir).join(format!("bench_{}.json", report.bench))
        }
        _ => match out_arg {
            Some(path) => PathBuf::from(path),
            None => return Ok(None),
        },
    };
    std::fs::write(&path, report.to_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(Some(path))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn sample() -> BenchReport {
        let mut r = BenchReport::new("exp_sample");
        r.meta("seeds", "7,11,13")
            .metric_u64("events_total", 120_000)
            .metric_f64("homes_per_sec", 512.25)
            .metric_bool("deterministic", true)
            .metric_text("mode", "paper_sweep")
            .metric_f64("ratio", 2.0)
            .with_alloc(AllocStats {
                allocs_total: 1000,
                bytes_total: 64_000,
                live_bytes: 0,
                peak_live_bytes: 32_000,
            });
        r.profile = vec![
            PhaseEntry {
                path: "scenario.setup".into(),
                count: 1,
                ticks: 40_000,
                self_ticks: 10_000,
                wall_nanos: 0,
            },
            PhaseEntry {
                path: "scenario.setup;sim.deliver".into(),
                count: 900,
                ticks: 30_000,
                self_ticks: 30_000,
                wall_nanos: 0,
            },
        ];
        r
    }

    #[test]
    fn to_json_is_pinned() {
        assert_eq!(
            sample().to_json(),
            concat!(
                r#"{"schema":1,"bench":"exp_sample","meta":{"seeds":"7,11,13"},"#,
                r#""metrics":{"deterministic":true,"events_total":120000,"#,
                r#""homes_per_sec":512.25,"mode":"paper_sweep","ratio":2.0},"#,
                r#""alloc":{"allocs_total":1000,"bytes_total":64000,"peak_live_bytes":32000},"#,
                r#""profile":[{"path":"scenario.setup","count":1,"ticks":40000,"self_ticks":10000},"#,
                r#"{"path":"scenario.setup;sim.deliver","count":900,"ticks":30000,"self_ticks":30000}]}"#
            )
        );
        let mut bare = BenchReport::new("quo\"ted");
        bare.meta("note", "line\nbreak");
        assert_eq!(
            bare.to_json(),
            r#"{"schema":1,"bench":"quo\"ted","meta":{"note":"line\nbreak"},"metrics":{},"alloc":null,"profile":[]}"#
        );
    }
}
