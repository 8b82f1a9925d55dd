//! `shared_cloud`: one world of thousands of TP-LINK homes on one
//! `CloudService`, single-threaded. Builds the world (set-up), runs the
//! binding setup flow to convergence, then a fixed steady window of
//! heartbeats and telemetry.

use std::collections::BTreeMap;
use std::time::Instant;

use rb_core::shadow::ShadowState;
use rb_core::vendors;
use rb_scenario::{World, WorldBuilder};
use rb_wire::codec::CodecKind;

use crate::replay::ReplayOut;
use crate::{fnv1a, nanos_since, rss, Pass, PassOut, Record, Size, Spans, FNV_START};

/// Simulated-time budget for the setup flow.
const SETUP_BUDGET: u64 = 300_000;
/// Slice length of the steady window (one "cell" of this workload).
const SLICE: u64 = 200;
/// Ticks between two looks at the homes during the setup flow.
const SCAN: u64 = 10;

fn params(size: Size) -> (usize, u64) {
    match size {
        Size::Full => (3_000, 20_000),
        Size::Tiny => (20, 4_000),
    }
}

/// The outcome of [`drive_setup`].
#[derive(Debug, Default)]
pub struct SetupRun {
    /// Whether every home converged within the budget.
    pub converged: bool,
    /// Per home, the first tick at which it was bound and in `Control`
    /// (0 if never).
    pub first: Vec<u64>,
    /// Wall nanoseconds of each `scan`-tick slice, in order.
    pub scan_ns: Vec<u64>,
}

/// The setup flow of `World::try_run_setup` — press the button of every
/// unbound home needing one, run 1,000 ticks, repeat until every home is
/// bound and in `Control` at once — looking at the homes every `scan`
/// ticks (a divisor of 1,000) to record the first tick at which each one
/// converged. With `scan = 1_000` it is `try_run_setup` step for step.
pub fn drive_setup(world: &mut World, spans: &mut Spans, budget: u64, scan: u64) -> SetupRun {
    let n = world.homes.len();
    let needs_button = world.design.checks.bind_requires_local_proof;
    let deadline = world.now().as_u64().saturating_add(budget);
    let mut run = SetupRun {
        first: vec![0u64; n],
        ..SetupRun::default()
    };
    let mut pending: Vec<usize> = (0..n).collect();
    let done =
        |w: &World, i: usize| w.app(i).is_bound() && w.shadow_state(i) == ShadowState::Control;
    loop {
        if needs_button {
            for i in 0..n {
                if !world.app(i).is_bound() {
                    world.device_mut(i).press_button();
                }
            }
        }
        for _ in 0..1_000 / scan {
            let t = Instant::now();
            spans.fold("netsim.run_for", || world.run_for(scan));
            let now = world.now().as_u64();
            let first = &mut run.first;
            pending.retain(|&i| {
                let ok = done(world, i);
                if ok && first[i] == 0 {
                    first[i] = now;
                }
                !ok
            });
            if pending.is_empty() {
                // Converged only when every home holds at the same instant.
                pending = (0..n).filter(|&i| !done(world, i)).collect();
            }
            if pending.is_empty() {
                if world.design.checks.post_binding_session {
                    spans.fold("netsim.run_for", || world.run_for(3 * 2_000 + 100));
                }
                run.scan_ns.push(nanos_since(t));
                run.converged = true;
                return run;
            }
            run.scan_ns.push(nanos_since(t));
        }
        if world.now().as_u64() >= deadline {
            return run;
        }
    }
}

/// Runs one pass.
pub fn pass(seed: u64, pass: Pass, size: Size) -> PassOut {
    let (homes, steady) = params(size);
    let telemetry = pass.telemetry();
    let profiler = pass.profiler();
    let mut spans = Spans::new(pass.spans(), 0, Instant::now());
    let mut rec = Record {
        workload: "shared_cloud",
        seed,
        threads: 1,
        homes: homes as u64,
        ..Record::default()
    };

    let started = Instant::now();
    spans.open("bench.workload");
    let mut world = spans.time("scenario.build", || {
        WorldBuilder::new(vendors::tp_link(), seed)
            .homes(homes)
            .with_telemetry(telemetry.clone())
            .with_profiler(profiler.clone())
            .build()
    });
    rec.setup_s = nanos_since(started) as f64 / 1e9;

    let rss0 = rss().0;
    let measured = Instant::now();
    spans.open("scenario.setup");
    let setup = drive_setup(&mut world, &mut spans, SETUP_BUDGET, SCAN);
    spans.close();
    let (converged, first) = (setup.converged, setup.first);
    rec.setup_ns = setup.scan_ns;
    rec.homes_s = nanos_since(measured) as f64 / 1e9;
    let setup_end = world.now().as_u64();

    let t = Instant::now();
    spans.open("scenario.steady");
    for _ in 0..steady / SLICE {
        let c = Instant::now();
        spans.fold("netsim.run_for", || world.run_for(SLICE));
        rec.cell_ns.push(nanos_since(c));
        rec.cell_ticks.push(SLICE);
    }
    spans.close();
    rec.steady_s = nanos_since(t) as f64 / 1e9;
    rec.rss_growth_bytes = rss().0.saturating_sub(rss0);
    spans.close();
    let wall_ns = nanos_since(started);

    let control = (0..homes)
        .filter(|&i| world.app(i).is_bound() && world.shadow_state(i) == ShadowState::Control)
        .count();
    rec.homes_ok = first.iter().filter(|&&t| t > 0).count() as u64;
    rec.check(
        "setup_converged",
        converged && rec.homes_ok == homes as u64,
        format!(
            "converged={converged} homes_ok={}/{homes} end_tick={setup_end}",
            rec.homes_ok
        ),
    );
    rec.check(
        "control_after_steady",
        control == homes,
        format!("control={control}/{homes}"),
    );
    let mut digest = FNV_START;
    for t in &first {
        digest = fnv1a(digest, &t.to_le_bytes());
    }
    digest = fnv1a(digest, &setup_end.to_le_bytes());
    digest = fnv1a(digest, &world.now().as_u64().to_le_bytes());
    // The steady window's work: every request the cloud handled, and how
    // many it denied.
    let audit = world.cloud().audit();
    digest = fnv1a(digest, &(audit.len() as u64).to_le_bytes());
    digest = fnv1a(digest, &(audit.denials() as u64).to_le_bytes());
    rec.pin_digest(size, digest);
    rec.counts
        .insert("setup_sim_ticks".into(), setup_end as f64);

    let mut out = PassOut::new(rec, telemetry);
    out.profile = profiler.snapshot();
    out.tables = vec![spans];
    out.wall_ns = wall_ns;
    out.nodes = world.sim.node_count();
    out.monitor_state_bytes = world.cloud().monitor().render_state().len() as u64;
    out
}

/// Prices the run's request mix on a standalone TP-LINK cloud of the same
/// size.
pub fn replay(seed: u64, size: Size, mix: &BTreeMap<String, u64>) -> ReplayOut {
    let homes = params(size).0;
    crate::replay::replay_homes(
        &[vendors::tp_link()],
        CodecKind::default(),
        homes,
        mix,
        seed,
    )
}
