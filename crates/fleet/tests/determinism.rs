//! Serial-vs-parallel determinism: the merged fleet report must be
//! *byte-identical* whatever the thread count, because each cell owns its
//! world and the merge is slot-indexed. This is the invariant that makes
//! the parallel engine trustworthy — any cross-cell leakage (shared RNG,
//! shared registry, order-dependent merge) breaks it loudly here. The same
//! holds for the streaming monitor's alert stream when monitor-enabled
//! worlds fan out through [`run_pool`].

use rb_core::vendors::{self, vendor_designs};
use rb_fleet::{run_fleet, run_fleet_profiled, run_pool, FleetSpec};
use rb_scenario::{monitor_run, ChaosProfile};

fn small_spec(seed_base: u64) -> FleetSpec {
    // Two designs x two seeds x (benign + one chaos profile): eight cells,
    // one home each — small enough for CI, rich enough to cover the chaos
    // injection path.
    let designs = vendor_designs().into_iter().take(2).collect();
    FleetSpec::new(designs, vec![seed_base, seed_base + 1], 8)
        .with_profiles(&[ChaosProfile::DupReorder])
}

#[test]
fn threads_1_and_8_render_identical_reports_across_seeds() {
    for seed_base in [1u64, 42, 20_260_805] {
        let (serial, _) = run_fleet(&small_spec(seed_base).threads(1));
        let (parallel, _) = run_fleet(&small_spec(seed_base).threads(8));
        assert_eq!(
            serial.render(),
            parallel.render(),
            "serial and 8-thread renders diverged for seed base {seed_base}"
        );
        assert_eq!(
            serial.to_json(),
            parallel.to_json(),
            "serial and 8-thread JSON diverged for seed base {seed_base}"
        );
    }
}

#[test]
fn repeated_runs_are_pure_functions_of_the_spec() {
    let (a, _) = run_fleet(&small_spec(7).threads(4));
    let (b, _) = run_fleet(&small_spec(7).threads(4));
    assert_eq!(a, b);
}

#[test]
fn folded_profile_is_identical_across_thread_counts() {
    // The merged phase profile is assembled in cell-slot order, so the
    // folded export must be byte-identical at any worker count — the
    // profiler restatement of the fleet's core determinism invariant.
    let (report_1, profile_1, _) = run_fleet_profiled(&small_spec(7).threads(1));
    let folded_1 = profile_1.folded();
    assert!(!folded_1.is_empty(), "profiled fleet produced no phases");
    for threads in [4usize, 8] {
        let (report_n, profile_n, _) = run_fleet_profiled(&small_spec(7).threads(threads));
        assert_eq!(report_1, report_n, "report diverged at {threads} threads");
        assert_eq!(
            folded_1,
            profile_n.folded(),
            "folded profile diverged at {threads} threads"
        );
    }
    // And reruns at the same thread count are byte-identical too.
    let (_, profile_again, _) = run_fleet_profiled(&small_spec(7).threads(4));
    assert_eq!(folded_1, profile_again.folded(), "rerun diverged");
}

#[test]
fn benign_cells_converge_for_every_design() {
    // All ten designs, one seed, benign: every cell must converge — this is
    // the fleet-engine restatement of "the happy path works for every
    // vendor".
    let spec = FleetSpec::new(vendor_designs(), vec![11], 10).threads(4);
    let (report, timings) = run_fleet(&spec);
    assert_eq!(report.cells.len(), 10);
    assert_eq!(report.converged(), 10, "report:\n{}", report.render());
    assert_eq!(report.control_homes(), report.homes());
    assert_eq!(timings.cell_nanos.len(), 10);
    assert!(timings.total_nanos > 0);
}

/// The little vendor × seed matrix the monitor determinism sweep runs.
/// Small on purpose: the full grid belongs to `exp_defense`.
fn monitor_matrix() -> Vec<(rb_core::design::VendorDesign, u64)> {
    let mut cells = Vec::new();
    for design in [vendors::tp_link(), vendors::e_link(), vendors::ozwi()] {
        for seed in [7, 11] {
            cells.push((design.clone(), seed));
        }
    }
    cells
}

/// Runs the monitor matrix on `threads` workers and returns one
/// byte-stable artifact (alert stream, monitor state, Prometheus export)
/// per cell.
fn monitor_sweep(threads: usize) -> Vec<String> {
    run_pool(&monitor_matrix(), threads, |(design, seed)| {
        let run = monitor_run(design, *seed);
        format!(
            "== {} seed={seed}\n{}\n{}\n{}",
            design.vendor,
            run.alert_stream,
            run.state,
            run.telemetry.to_prometheus()
        )
    })
}

#[test]
fn alert_stream_and_state_are_identical_at_1_4_and_8_threads() {
    let one = monitor_sweep(1);
    let four = monitor_sweep(4);
    let eight = monitor_sweep(8);
    assert_eq!(one, four, "4-thread sweep must be byte-identical");
    assert_eq!(one, eight, "8-thread sweep must be byte-identical");
}
