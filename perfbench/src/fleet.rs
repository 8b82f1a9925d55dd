//! `fleet`: the paper sweep through the public `rb_fleet::run_fleet` —
//! 10 designs × 16 seeds × 7 homes per cell (1,120 homes), benign, on 2
//! worker threads. Many small private worlds.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use rb_core::shadow::ShadowState;
use rb_core::vendors::vendor_designs;
use rb_fleet::{run_fleet, Cell, CellReport, FleetReport, FleetSpec};
use rb_prof::PhaseProfile;
use rb_scenario::WorldBuilder;
use rb_telemetry::Telemetry;
use rb_wire::codec::CodecKind;

use crate::replay::ReplayOut;
use crate::{
    fnv1a, median, nanos_since, rss, shared, Pass, PassOut, Record, Size, Spans, FNV_START,
};

/// Worker threads of the sweep.
pub const THREADS: usize = 2;
/// Set-up repetitions whose median is reported (set-up is microseconds).
const SETUP_REPS: usize = 25;

/// The sweep grid for `seed`: workload seed `n` sweeps world seeds
/// `16n .. 16n + 16`.
pub fn spec(seed: u64, size: Size) -> FleetSpec {
    match size {
        Size::Full => {
            let seeds = (0..16)
                .map(|i| seed.wrapping_mul(16).wrapping_add(i))
                .collect();
            FleetSpec::new(vendor_designs(), seeds, 1_120).threads(THREADS)
        }
        Size::Tiny => {
            let mut spec = FleetSpec::smoke().threads(THREADS);
            spec.seeds = vec![seed.wrapping_mul(2), seed.wrapping_mul(2) + 1];
            spec
        }
    }
}

/// A cell's outcome with its census, phase tree and monitor footprint.
type CellOut = (CellReport, Telemetry, PhaseProfile, u64);

/// One cell with instruments attached: the same steps as
/// `rb_fleet::run_cell`, with spans around the build and the setup flow.
fn traced_cell(cell: &Cell, max_ticks: u64, pass: Pass, spans: &mut Spans) -> CellOut {
    let telemetry = pass.telemetry();
    let profiler = pass.profiler();
    spans.open("fleet.cell");
    let mut world = spans.time("scenario.build", || {
        WorldBuilder::new(cell.design.clone(), cell.seed)
            .homes(cell.homes)
            .with_telemetry(telemetry.clone())
            .with_profiler(profiler.clone())
            .build()
    });
    spans.open("scenario.setup");
    let converged = shared::drive_setup(&mut world, spans, max_ticks, 1_000).converged;
    spans.close();
    let n = world.homes.len();
    let bound = (0..n).filter(|&i| world.app(i).is_bound()).count();
    let control = (0..n)
        .filter(|&i| world.shadow_state(i) == ShadowState::Control)
        .count();
    spans.close();
    let monitor_bytes = world.cloud().monitor().render_state().len() as u64;
    let report = CellReport {
        vendor: cell.design.vendor.clone(),
        seed: cell.seed,
        profile: "none",
        homes: n,
        converged,
        bound,
        control,
        end_tick: world.now().as_u64(),
    };
    (report, telemetry, profiler.snapshot(), monitor_bytes)
}

/// The instrumented sweep: the same work-stealing shape as `run_fleet`,
/// one span table, registry and profiler per cell, merged in cell order.
fn instrumented(
    spec: &FleetSpec,
    pass: Pass,
    epoch: Instant,
) -> (FleetReport, Telemetry, PhaseProfile, u64, Vec<Spans>) {
    let cells = spec.cells();
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<CellOut>>> = Mutex::new(vec![None; cells.len()]);
    let tables: Vec<Spans> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..spec.threads)
            .map(|thread| {
                let (cells, cursor, slots) = (&cells, &cursor, &slots);
                scope.spawn(move || {
                    let mut spans = Spans::new(pass.spans(), thread + 1, epoch);
                    while let Some(cell) = cells.get(cursor.fetch_add(1, Ordering::SeqCst)) {
                        let out = traced_cell(cell, spec.max_ticks, pass, &mut spans);
                        slots
                            .lock()
                            .expect("a worker panicked while holding the slot lock")[cell.index] =
                            Some(out);
                    }
                    spans
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("fleet worker panicked"))
            .collect()
    });
    let merged = Telemetry::new();
    let mut profile = PhaseProfile::default();
    let mut reports = Vec::with_capacity(cells.len());
    let mut monitor_bytes = 0;
    for (report, telemetry, p, bytes) in slots
        .into_inner()
        .expect("a worker panicked while holding the slot lock")
        .into_iter()
        .flatten()
    {
        let snap = telemetry.snapshot();
        merged.with(|r| r.merge_from(&snap));
        profile.merge(&p);
        monitor_bytes += bytes;
        reports.push(report);
    }
    (
        FleetReport { cells: reports },
        merged,
        profile,
        monitor_bytes,
        tables,
    )
}

/// Runs one pass. The plain pass runs `rb_fleet::run_fleet` itself; the
/// instrumented passes run the same cells through [`instrumented`].
pub fn pass(seed: u64, pass: Pass, size: Size) -> PassOut {
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut grid = spec(seed, size);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        grid = spec(seed, size);
        std::hint::black_box(grid.cells());
        setup.push(nanos_since(t) as f64 / 1e9);
    }
    let mut rec = Record {
        workload: "fleet",
        seed,
        threads: grid.threads,
        homes: grid.total_homes() as u64,
        setup_s: median(&mut setup),
        ..Record::default()
    };

    let rss0 = rss().0;
    let epoch = Instant::now();
    let mut idle_ns = 0;
    let (report, telemetry, profile, monitor_bytes, tables) = if pass == Pass::Plain {
        let (report, timings) = run_fleet(&grid);
        rec.cell_ns = timings.cell_nanos;
        (
            report,
            Telemetry::disabled(),
            PhaseProfile::default(),
            0,
            Vec::new(),
        )
    } else {
        // The main thread only waits on the pool; its spans bracket the
        // sweep for the trace and carry no self time into the ledger.
        let mut main = Spans::new(pass.spans(), 0, epoch);
        main.open("bench.workload");
        main.open("fleet.run_fleet");
        let (report, telemetry, profile, bytes, mut tables) = instrumented(&grid, pass, epoch);
        main.close();
        main.close();
        let wall = nanos_since(epoch);
        idle_ns = tables
            .iter()
            .map(|t| wall.saturating_sub(t.active_ns()))
            .sum();
        tables.insert(0, main);
        (report, telemetry, profile, bytes, tables)
    };
    let wall_ns = nanos_since(epoch);
    rec.homes_s = wall_ns as f64 / 1e9;
    rec.rss_growth_bytes = rss().0.saturating_sub(rss0);
    rec.cell_ticks = report.cells.iter().map(|c| c.end_tick).collect();
    rec.steady_s = rec.cell_ns.iter().sum::<u64>() as f64 / 1e9;

    let cells = report.cells.len();
    rec.homes_ok = report.control_homes() as u64;
    rec.check(
        "cells_converged",
        report.converged() == cells,
        format!("converged={}/{cells}", report.converged()),
    );
    rec.check(
        "control_homes",
        rec.homes_ok == rec.homes,
        format!("control_homes={}/{}", rec.homes_ok, rec.homes),
    );
    rec.pin_digest(size, fnv1a(FNV_START, report.render().as_bytes()));
    let ticks: u64 = rec.cell_ticks.iter().sum();
    rec.counts.insert("setup_sim_ticks".into(), ticks as f64);

    let mut out = PassOut::new(rec, telemetry);
    out.profile = profile;
    out.tables = tables;
    out.wall_ns = wall_ns;
    out.idle_ns = idle_ns;
    out.nodes = 2 * grid.homes_per_cell + 2;
    out.worlds = cells;
    out.monitor_state_bytes = monitor_bytes;
    out
}

/// Prices the run's request mix on one standalone cloud per design, each
/// the size of a cell.
pub fn replay(seed: u64, size: Size, mix: &BTreeMap<String, u64>) -> ReplayOut {
    let grid = spec(seed, size);
    crate::replay::replay_homes(
        &grid.designs,
        CodecKind::default(),
        grid.homes_per_cell,
        mix,
        seed,
    )
}
