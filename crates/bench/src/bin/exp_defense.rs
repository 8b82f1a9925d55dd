//! EXP-DEFENSE — passive detection, streaming alerting, and active
//! mitigation of the Table III attacks.
//!
//! The ground truth is one undefended Table III sweep
//! ([`run_all_parallel`] at `DETECT_SEED`): it names the feasible cells
//! (exactly the 15 of Table III, a hard gate) and, from each attack's
//! evidence, the alerts the cloud's *passive* monitor raised while the
//! attack ran. The paper's attacks succeed silently on real clouds; every
//! one of them must leave at least one such alert — no protocol change
//! required (gate: zero silent successes).
//!
//! Then four legs, each a hard gate:
//!
//! 1. **Precision = 1.0.** The benign binding lifecycle, disturbed by every
//!    chaos profile over a 16-seed matrix, runs under the *hardened*
//!    defense policy — and the streaming monitor must raise zero alerts
//!    and draw zero interventions. Chaos is noise, not an attacker; a
//!    vendor whose defenses fire on packet loss would brick honest homes.
//! 2. **Recall ≥ 0.9.** Every Table III cell that is feasible against the
//!    undefended cloud is re-run against the hardened cloud; the monitor
//!    must raise at least one alert during the attack.
//! 3. **Window reduction > 0.** For every cell the hardened cloud actively
//!    mitigated (rotation / quarantine / bind limiting), the remaining
//!    trace after the first defensive intervention — the span the attacker
//!    would previously have held their advantage — must be positive.
//! 4. **Thread determinism.** The monitor-enabled sweep renders its alert
//!    streams, state summaries, and Prometheus exports byte-identically at
//!    1, 4, and 8 worker threads.
//!
//! Also reports end-to-end alert throughput (alerts/sec of wall clock
//! through the defended attack grid — the only machine-dependent number).
//!
//! Prints human tables, then a single `BENCH ` line with a JSON document:
//!
//! ```text
//! cargo run --release -p rb-bench --bin exp_defense
//! cargo run --release -p rb-bench --bin exp_defense -- --out bench_defense.json
//! ```

use std::time::Instant;

use rb_attack::campaign::{run_all_parallel, VendorCampaign};
use rb_attack::{run_attack_opts, AttackOpts};
use rb_bench::render_table;
use rb_bench::report::{emit, BenchReport};
use rb_cloud::DefensePolicy;
use rb_core::attacks::AttackId;
use rb_core::vendors;
use rb_netsim::TraceEvent;
use rb_scenario::{monitor_run, run_lifecycle, ChaosProfile, WorldBuilder};

/// The one seed of the defended attack grid (worlds are deterministic in it).
const SEED: u64 = 0xDEF_2019;

/// Base seed of the undefended sweep that fixes the feasible cells and
/// records the passive monitor's alerts.
const DETECT_SEED: u64 = 0xDE7EC7;

/// Feasible cells in the paper's Table III.
const TABLE3_FEASIBLE: usize = 15;

/// Seeds of the benign chaos matrix.
const BENIGN_SEEDS: u64 = 16;

/// One defended rerun of a feasible Table III cell.
struct CellRun {
    vendor: String,
    id: AttackId,
    /// Alerts the passive monitor raised in the undefended run, e.g.
    /// `foreign-unbind×1` (`no alerts` for a silent success).
    passive: String,
    alerts: u64,
    mitigations: u64,
    /// Ticks between the first defensive intervention and the end of the
    /// trace — the slice of the attack window the defense clawed back.
    window_reduction: Option<u64>,
}

/// Leg 1: the benign chaos matrix under the hardened policy. Returns
/// `(runs, alerts, mitigations)`.
fn benign_matrix(designs: &[rb_core::design::VendorDesign]) -> (u64, u64, u64) {
    let mut runs = 0u64;
    let mut alerts = 0u64;
    let mut mitigations = 0u64;
    for design in designs {
        for seed in 0..BENIGN_SEEDS {
            for profile in ChaosProfile::ALL.into_iter().map(Some).chain([None]) {
                let mut world = WorldBuilder::new(design.clone(), seed)
                    .defense(DefensePolicy::hardened())
                    .build();
                run_lifecycle(&mut world, profile);
                runs += 1;
                alerts += world.telemetry().counter_family("cloud_alerts_total");
                mitigations += world.telemetry().counter_family("cloud_mitigations_total");
            }
        }
    }
    (runs, alerts, mitigations)
}

/// Legs 2+3: rerun every cell the undefended `campaigns` found feasible
/// against the hardened cloud with a forensic capture, and read detection
/// + mitigation off each cell's private registry and trace.
fn defended_grid(campaigns: &[VendorCampaign]) -> (Vec<CellRun>, f64) {
    let mut cells = Vec::new();
    let started = Instant::now();
    for campaign in campaigns {
        let design = &campaign.design;
        for (&id, undefended) in &campaign.runs {
            // Blocked/unconfirmable cells have nothing to defend.
            if !undefended.outcome.is_feasible() {
                continue;
            }
            let passive = undefended
                .evidence
                .iter()
                .rev()
                .find_map(|e| e.strip_prefix("cloud monitor: "))
                .unwrap_or("(not sampled)")
                .to_owned();
            let opts = AttackOpts {
                defense: DefensePolicy::hardened(),
                capture: true,
                ..AttackOpts::default()
            };
            let run = run_attack_opts(design, id, SEED, &opts);
            let window_reduction = run.capture.as_deref().and_then(|capture| {
                let first_defense = capture.trace.iter().find_map(|e| match &e.event {
                    TraceEvent::Mark { text, .. } if text.starts_with("defense ") => Some(e.at),
                    _ => None,
                })?;
                let end = capture.trace.last()?.at;
                Some(end.as_u64().saturating_sub(first_defense.as_u64()))
            });
            cells.push(CellRun {
                vendor: design.vendor.clone(),
                id,
                passive,
                alerts: opts.telemetry.counter_family("cloud_alerts_total"),
                mitigations: run.mitigations,
                window_reduction,
            });
        }
    }
    (cells, started.elapsed().as_secs_f64())
}

/// Leg 4: the monitor-enabled sweep at `threads` workers on
/// [`rb_fleet::run_pool`], one byte-stable artifact per cell.
fn monitor_sweep(threads: usize) -> Vec<String> {
    let cells: Vec<_> = [vendors::tp_link(), vendors::e_link(), vendors::ozwi()]
        .into_iter()
        .flat_map(|d| [7u64, 11].map(|s| (d.clone(), s)))
        .collect();
    rb_fleet::run_pool(&cells, threads, |(design, seed)| {
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

fn main() {
    let mut out_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--out" {
            out_path = args.next();
        }
    }

    println!("EXP-DEFENSE: streaming detection + active mitigation (seed {SEED:#x})\n");

    // Leg 1: precision on the benign chaos matrix.
    let benign_designs = [vendors::tp_link(), vendors::e_link(), vendors::ozwi()];
    let (benign_runs, benign_alerts, benign_mitigations) = benign_matrix(&benign_designs);
    let precision_ok = benign_alerts == 0 && benign_mitigations == 0;
    println!(
        "benign matrix: {benign_runs} runs ({} vendors x {BENIGN_SEEDS} seeds x {} profiles) \
         -> {benign_alerts} alerts, {benign_mitigations} interventions",
        benign_designs.len(),
        ChaosProfile::ALL.len() + 1
    );

    // Ground truth, then legs 2+3: the defended attack grid.
    let (cells, grid_secs) = defended_grid(&run_all_parallel(DETECT_SEED));
    let feasible = cells.len();
    let silent = cells.iter().filter(|c| c.passive == "no alerts").count();
    let detected = cells.iter().filter(|c| c.alerts > 0).count();
    let mitigated: Vec<&CellRun> = cells.iter().filter(|c| c.mitigations > 0).collect();
    let min_reduction = mitigated
        .iter()
        .map(|c| c.window_reduction.unwrap_or(0))
        .min();
    let recall = if feasible == 0 {
        1.0
    } else {
        detected as f64 / feasible as f64
    };
    let grid_alerts: u64 = cells.iter().map(|c| c.alerts).sum();
    let alerts_per_sec = grid_alerts as f64 / grid_secs.max(f64::EPSILON);

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.vendor.clone(),
                c.id.to_string(),
                c.passive.clone(),
                c.alerts.to_string(),
                c.mitigations.to_string(),
                c.window_reduction
                    .map_or_else(|| "-".into(), |w| w.to_string()),
            ]
        })
        .collect();
    println!(
        "\n{}",
        render_table(
            &[
                "vendor",
                "cell",
                "passive alerts (undefended)",
                "alerts",
                "mitigations",
                "window cut (ticks)"
            ],
            &rows
        )
    );
    println!(
        "passive detection: {}/{feasible} feasible cells raised an alert undefended \
         (silent: {silent})",
        feasible - silent
    );
    println!("signature key: foreign-unbind = A3-2 | bare-unbind = A3-1 | binding-replaced =");
    println!("A3-3/A4-1 | session-moved = status forgery (A1/A3-4) | remote-only-bind = A2/A4-2");
    println!(
        "recall {recall:.3} ({detected}/{feasible} feasible cells detected); \
         {} cells actively mitigated; {grid_alerts} alerts in {grid_secs:.2}s \
         ({alerts_per_sec:.0} alerts/s end-to-end)",
        mitigated.len()
    );

    // Leg 4: thread determinism of the monitor sweep.
    let one = monitor_sweep(1);
    let determinism_ok = one == monitor_sweep(4) && one == monitor_sweep(8);
    println!(
        "monitor sweep determinism at 1/4/8 threads: {}",
        if determinism_ok {
            "byte-identical"
        } else {
            "DIVERGED"
        }
    );

    // The machine-readable artifact: the unified schema-versioned report
    // (per-cell counters flattened to dotted metric keys).
    let precision = if precision_ok { 1.0 } else { 0.0 };
    let mut report = BenchReport::new("exp_defense");
    report
        .meta("seed", SEED)
        .metric_u64("benign_runs", benign_runs)
        .metric_u64("benign_alerts", benign_alerts)
        .metric_u64("benign_mitigations", benign_mitigations)
        .metric_f64("precision", precision)
        .metric_f64("recall", recall)
        .metric_u64("feasible_cells", feasible as u64)
        .metric_u64("passive_silent_cells", silent as u64)
        .metric_u64("detected_cells", detected as u64)
        .metric_u64("mitigated_cells", mitigated.len() as u64)
        .metric_f64("alerts_per_sec", alerts_per_sec)
        .metric_bool("thread_determinism", determinism_ok);
    if let Some(w) = min_reduction {
        report.metric_u64("min_window_reduction", w);
    }
    for c in &cells {
        let key = |stat: &str| format!("{}.{}.{stat}", c.vendor, c.id);
        report
            .metric_u64(&key("alerts"), c.alerts)
            .metric_u64(&key("mitigations"), c.mitigations);
        if let Some(w) = c.window_reduction {
            report.metric_u64(&key("window_reduction"), w);
        }
    }
    emit(&report, out_path.as_deref());

    let mut failed = false;
    if feasible != TABLE3_FEASIBLE {
        eprintln!(
            "exp_defense: GATE FAILED — {feasible} feasible cells, Table III has {TABLE3_FEASIBLE}"
        );
        failed = true;
    }
    if silent > 0 {
        eprintln!("exp_defense: GATE FAILED — {silent} successful attacks raised no passive alert");
        failed = true;
    }
    if !precision_ok {
        eprintln!("exp_defense: GATE FAILED — the benign chaos matrix tripped the defenses");
        failed = true;
    }
    if recall < 0.9 {
        eprintln!("exp_defense: GATE FAILED — recall {recall:.3} < 0.9");
        failed = true;
    }
    if mitigated
        .iter()
        .any(|c| c.window_reduction.unwrap_or(0) == 0)
    {
        eprintln!("exp_defense: GATE FAILED — a mitigated cell shows no attack-window reduction");
        failed = true;
    }
    if !determinism_ok {
        eprintln!("exp_defense: GATE FAILED — monitor sweep diverged across thread counts");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
