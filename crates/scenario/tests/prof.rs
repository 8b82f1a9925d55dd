//! Determinism tests for the phase profiler: `prof_run` is a pure
//! function of (design, seed), so its folded-stack export must be
//! byte-identical across reruns, and the canonical TP-LINK seed-7
//! profile is pinned as a golden file.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use rb_core::vendors;
use rb_netsim::TraceEvent;
use rb_scenario::{metrics_run, prof_run, trace_run};

/// The metrics, trace and profile runs drive one lifecycle, so for every
/// vendor they end on the same tick and send the same packets.
#[test]
fn metrics_trace_and_prof_runs_agree() {
    for design in vendors::vendor_designs() {
        let metrics = metrics_run(&design, 7).snapshot();
        let trace = trace_run(&design, 7, None);
        let prof = prof_run(&design, 7);
        let vendor = &design.vendor;
        assert!(prof.converged, "{vendor}: setup converges");
        assert_eq!(
            metrics.gauge("scenario_setup_converged"),
            Some(1),
            "{vendor}"
        );
        assert_eq!(
            metrics.gauge("sim_now_ticks"),
            Some(prof.end_tick as i64),
            "{vendor}: metrics and prof runs end on the same tick"
        );
        let sent = trace
            .trace
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::Sent { .. }))
            .count() as u64;
        assert_eq!(
            metrics.counter("sim_packets_sent_total"),
            sent,
            "{vendor}: metrics and trace runs send the same packets"
        );
        assert_eq!(
            prof.telemetry.counter("sim_packets_sent_total"),
            sent,
            "{vendor}: prof and trace runs send the same packets"
        );
    }
}

/// Reruns of the same (design, seed) must produce byte-identical folded
/// output — the profiler is clocked off the sim tick, never the wall.
#[test]
fn folded_profile_is_byte_identical_across_reruns() {
    for (design, seed) in [
        (vendors::tp_link(), 7u64),
        (vendors::ozwi(), 42),
        (vendors::belkin(), 0xBEEF),
    ] {
        let a = prof_run(&design, seed);
        let b = prof_run(&design, seed);
        assert_eq!(
            a.profile.folded(),
            b.profile.folded(),
            "folded profile diverged across reruns for {} seed {seed}",
            design.vendor
        );
        assert_eq!(a.end_tick, b.end_tick, "end tick diverged");
        assert_eq!(a.converged, b.converged, "convergence diverged");
    }
}

/// Different seeds on the same design should still converge (the profile
/// shape is seed-dependent, but the phases all appear).
#[test]
fn profile_covers_the_lifecycle_phases() {
    let run = prof_run(&vendors::tp_link(), 7);
    assert!(run.converged, "TP-LINK seed 7 must converge");
    let folded = run.profile.folded();
    for phase in [
        "scenario.setup",
        "scenario.control",
        "scenario.unbind",
        "scenario.reset",
        "scenario.rebind",
        "scenario.quiesce",
    ] {
        assert!(
            folded.lines().any(|l| l.starts_with(phase)),
            "phase {phase} missing from folded output:\n{folded}"
        );
    }
    assert!(run.profile.total_ticks() > 0, "profile recorded no time");
}

/// Golden folded profile: the canonical TP-LINK seed-7 run is pinned
/// byte-for-byte. Regenerate with
/// `UPDATE_GOLDEN=1 cargo test -p rb-scenario --test prof golden`.
#[test]
fn golden_tp_link_folded_profile_is_pinned() {
    let run = prof_run(&vendors::tp_link(), 7);
    let text = run.profile.folded();
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/tp_link_folded.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).unwrap();
        std::fs::write(&path, &text).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}; regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        text, want,
        "the folded profile drifted; regenerate with UPDATE_GOLDEN=1 if intended"
    );
}
