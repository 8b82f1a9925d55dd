//! The regression gate on the benches' work counters. Reruns, in-process,
//! the exact workloads of the profiled benches and pins what they count:
//!
//! * the fleet sweep of `exp_fleet --homes 200 --threads 4`;
//! * the §V-C product-series DoS of `exp_dos_scale` (1/2/4/8/16 homes,
//!   vulnerable and capability designs);
//! * the wire-codec shootout of `exp_codec` (default corpus and passes);
//! * `rbsim prof tp-link 7`, the canonical lifecycle profile.
//!
//! Simulation counters — phase trees, ticks, outcome counts, the fleet
//! census and frame sizes — are pure functions of the inputs and are
//! pinned exactly. Allocation counts and single-threaded peaks are
//! deterministic for one toolchain but move with std's allocation pattern
//! across compilers, so they are pinned within [`ALLOC_MARGIN`]; the
//! 4-thread fleet peak also moves with scheduling and gets
//! [`THREADED_PEAK_MARGIN`]. The pinned allocation values were measured
//! with rustc 1.95.0 (debug and release builds count the same).
//!
//! The phase trees of the fleet and DoS runs are goldens under
//! `tests/golden/` (one `path count ticks` line per phase); regenerate
//! them with `UPDATE_GOLDEN=1 cargo test -p rb-bench --test work_counters`.
//! The TP-LINK profile is the rb-scenario golden `tp_link_folded.txt`,
//! read from there.
//!
//! The counting allocator is process-wide, so this binary holds exactly
//! one test: nothing else allocates while a window is open.

// Test code: panicking on unexpected state is the correct failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::fmt::Debug;
use std::path::{Path, PathBuf};

use rb_bench::codec::{codec_corpus, codec_shootout, DEFAULT_ITERS};
use rb_bench::dos::{dos_scale_series, series_designs};
use rb_core::vendors;
use rb_fleet::{run_fleet_profiled, FleetSpec};
use rb_prof::{AllocScope, AllocStats, CountingAlloc, PhaseProfile, Profiler};
use rb_wire::codec::CodecKind;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Relative margin on allocation counts, byte totals, per-message
/// allocation counts and single-threaded peaks.
const ALLOC_MARGIN: f64 = 0.10;
/// Relative margin on the peak of the 4-thread fleet pass.
const THREADED_PEAK_MARGIN: f64 = 0.20;

/// Collects every mismatch, so one run reports all of the drift.
#[derive(Default)]
struct Pins {
    failures: Vec<String>,
}

impl Pins {
    fn exact<T: PartialEq + Debug>(&mut self, name: &str, got: T, want: T) {
        if got != want {
            self.failures
                .push(format!("{name}: {got:?}, pinned exactly at {want:?}"));
        }
    }

    fn near(&mut self, name: &str, got: f64, want: f64, margin: f64) {
        let drift = (got - want) / want;
        if drift.abs() > margin {
            self.failures.push(format!(
                "{name}: {got}, pinned at {want} ±{:.0}% ({:+.1}%)",
                margin * 100.0,
                drift * 100.0
            ));
        }
    }

    /// An allocation window that opened with `live_before` bytes live,
    /// against pinned (allocations, bytes, peak growth); the peak under
    /// `peak_margin`. The peak is taken above `live_before`, so the test
    /// harness's own heap does not count.
    fn alloc(
        &mut self,
        name: &str,
        got: AllocStats,
        live_before: u64,
        want: (u64, u64, u64),
        peak_margin: f64,
    ) {
        let (allocs, bytes, peak) = want;
        let mut near = |field: &str, got: u64, want: u64, margin: f64| {
            self.near(&format!("{name} {field}"), got as f64, want as f64, margin);
        };
        near("allocs_total", got.allocs_total, allocs, ALLOC_MARGIN);
        near("bytes_total", got.bytes_total, bytes, ALLOC_MARGIN);
        near(
            "peak_live_bytes growth",
            got.peak_live_bytes.saturating_sub(live_before),
            peak,
            peak_margin,
        );
    }

    /// Compares `got` with the text file at `path`; with `UPDATE_GOLDEN`
    /// set and `writable`, rewrites the file instead.
    fn golden(&mut self, path: &Path, got: &str, writable: bool) {
        if writable && std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(path, got).unwrap();
            return;
        }
        let want = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
        if got != want {
            self.failures.push(format!(
                "{} drifted (regenerate with UPDATE_GOLDEN=1 if intended); got:\n{got}",
                path.display()
            ));
        }
    }

    /// The phase tree as one `path count ticks` line per phase, against
    /// `tests/golden/<name>`.
    fn profile(&mut self, name: &str, profile: &PhaseProfile) {
        let table: String = profile
            .entries()
            .iter()
            .map(|e| format!("{} {} {}\n", e.path, e.count, e.ticks))
            .collect();
        self.golden(&golden_dir().join(name), &table, true);
    }
}

fn live_bytes() -> u64 {
    AllocStats::current().live_bytes
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

#[test]
fn work_counters_match_their_pins() {
    let mut pins = Pins::default();
    prof_tp_link(&mut pins);
    codec(&mut pins);
    fleet(&mut pins);
    dos_scale(&mut pins);
    assert!(
        pins.failures.is_empty(),
        "{} work counters drifted:\n{}",
        pins.failures.len(),
        pins.failures.join("\n")
    );
}

/// `rbsim prof tp-link 7`.
fn prof_tp_link(pins: &mut Pins) {
    let live_before = live_bytes();
    let scope = AllocScope::start();
    let run = rb_scenario::prof_run(&vendors::tp_link(), 7);
    let alloc = scope.finish();
    pins.exact("prof tp-link converged", run.converged, true);
    pins.exact("prof tp-link end_tick", run.end_tick, 42_000);
    pins.exact(
        "prof tp-link total_ticks",
        run.profile.total_ticks(),
        42_000,
    );
    let folded =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../scenario/tests/golden/tp_link_folded.txt");
    pins.golden(&folded, &run.profile.folded(), false);
    let want = (3_534, 200_433, 74_703);
    pins.alloc("prof tp-link", alloc, live_before, want, ALLOC_MARGIN);
}

/// `exp_codec` with its default corpus and passes.
fn codec(pins: &mut Pins) {
    let corpus = codec_corpus();
    let live_before = live_bytes();
    let (runs, alloc) = codec_shootout(&corpus, DEFAULT_ITERS).unwrap();
    let [(CodecKind::Classic, classic), (CodecKind::Compact, compact)] = runs.as_slice() else {
        panic!("one run per codec, classic first");
    };
    pins.exact("codec classic_bytes_per_msg", classic.bytes_per_msg, 40.725);
    pins.exact(
        "codec compact_bytes_per_msg",
        compact.bytes_per_msg,
        32.1225,
    );
    for (name, got, want) in [
        ("classic_encode", classic.encode_allocs_per_msg, 2.0),
        ("classic_decode", classic.decode_allocs_per_msg, 3.25),
        ("compact_encode", compact.encode_allocs_per_msg, 2.25),
        ("compact_decode", compact.decode_allocs_per_msg, 0.25),
    ] {
        pins.near(
            &format!("codec {name}_allocs_per_msg"),
            got,
            want,
            ALLOC_MARGIN,
        );
    }
    let want = (6_201_703, 242_665_392, 54_624);
    pins.alloc("codec", alloc, live_before, want, ALLOC_MARGIN);
}

/// `exp_fleet --homes 200 --threads 4`: a serial pass, then the measured
/// 4-thread pass, which must agree with it byte for byte.
fn fleet(pins: &mut Pins) {
    let spec = FleetSpec::paper_sweep(200);
    let (serial, serial_profile, _) = run_fleet_profiled(&spec.clone().threads(1));
    let live_before = live_bytes();
    let scope = AllocScope::start();
    let (report, profile, _) = run_fleet_profiled(&spec.clone().threads(4));
    let alloc = scope.finish();
    let deterministic = serial.render() == report.render()
        && serial.to_json() == report.to_json()
        && serial_profile.folded() == profile.folded();
    pins.exact("fleet deterministic", deterministic, true);
    pins.exact("fleet cells", report.cells.len(), 160);
    pins.exact("fleet converged", report.converged(), 160);
    pins.exact("fleet homes_total", report.homes(), 320);
    pins.exact("fleet control_homes", report.control_homes(), 320);
    pins.exact("fleet total_ticks", profile.total_ticks(), 995_200);
    pins.profile("fleet_profile.txt", &profile);
    let want = (379_352, 23_770_021, 480_000);
    pins.alloc("fleet", alloc, live_before, want, THREADED_PEAK_MARGIN);
}

/// `exp_dos_scale`: the whole series under one profiler.
fn dos_scale(pins: &mut Pins) {
    let designs = series_designs();
    let profiler = Profiler::new();
    let mut rows = Vec::new();
    let live_before = live_bytes();
    let scope = AllocScope::start();
    dos_scale_series(&designs, &profiler, |row| rows.push(row));
    let alloc = scope.finish();
    let profile = profiler.snapshot();
    for row in &rows {
        let homes = row.homes;
        // §V-C: the vulnerable series is occupied and locked out in full;
        // capability binding denies the attacker every device.
        pins.exact(
            &format!("dos occupied/locked_out_vulnerable_{homes}"),
            row.vulnerable,
            (homes, homes),
        );
        pins.exact(
            &format!("dos occupied/locked_out_capability_{homes}"),
            row.capability,
            (0, 0),
        );
    }
    let homes_total: usize = rows.iter().map(|row| row.homes * 2).sum();
    pins.exact("dos homes_total", homes_total, 62);
    pins.exact("dos total_ticks", profile.total_ticks(), 842_700);
    pins.profile("dos_scale_profile.txt", &profile);
    let want = (10_597_799, 348_665_959, 7_692_089);
    pins.alloc("dos", alloc, live_before, want, ALLOC_MARGIN);
}
