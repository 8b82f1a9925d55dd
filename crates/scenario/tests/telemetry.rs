//! Determinism and golden-export tests for the telemetry layer.
//!
//! The observability contract (DESIGN.md §9): two runs of the same
//! `(vendor, seed, chaos profile)` produce *byte-identical* JSON and
//! Prometheus exports, and the canonical TP-LINK export is pinned so CI
//! catches any metric rename, re-bucketing, or exporter drift.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use rb_core::vendors;
use rb_scenario::{metrics_run, run_lifecycle, ChaosProfile, WorldBuilder};

#[test]
fn metrics_run_is_byte_deterministic() {
    let design = vendors::tp_link();
    let a = metrics_run(&design, 7);
    let b = metrics_run(&design, 7);
    assert_eq!(a.to_json(), b.to_json(), "JSON export must be byte-stable");
    assert_eq!(
        a.to_prometheus(),
        b.to_prometheus(),
        "Prometheus export must be byte-stable"
    );
    assert_eq!(a.render_human(), b.render_human());
}

#[test]
fn chaos_metrics_run_is_byte_deterministic() {
    let design = vendors::d_link();
    let run = || {
        let mut world = WorldBuilder::new(design.clone(), 11).build();
        run_lifecycle(&mut world, Some(ChaosProfile::DupReorder));
        world.telemetry().clone()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.to_prometheus(), b.to_prometheus());
}

#[test]
fn lifecycle_histograms_are_populated() {
    let design = vendors::tp_link();
    let snap = metrics_run(&design, 7).snapshot();
    let online = snap
        .histogram("binding_initial_to_online_ticks")
        .expect("initial→online latency recorded");
    assert!(online.count() >= 1, "device came online at least once");
    let bound = snap
        .histogram("binding_online_to_bound_ticks")
        .expect("online→bound latency recorded");
    assert!(bound.count() >= 1, "binding landed at least once");
    let rebind = snap
        .histogram("binding_unbind_to_rebind_ticks")
        .expect("unbind→rebind window recorded");
    assert!(
        rebind.count() >= 1,
        "the canonical scenario unbinds and re-binds once"
    );
    // The engine, the agents, and the cloud all fed the same registry.
    assert!(snap.counter("sim_events_total") > 0);
    assert!(snap.counter("device_heartbeats_total") > 0);
    assert!(snap.counter("app_binds_total") >= 2, "bind + re-bind");
    let setup = snap
        .histogram("span_ticks{name=\"app_setup\"}")
        .expect("app setup spans closed");
    assert_eq!(setup.count(), 2, "one converged setup plus one re-bind");
}

/// Golden Prometheus export: the canonical TP-LINK seed-7 run is pinned
/// byte-for-byte. Regenerate with
/// `UPDATE_GOLDEN=1 cargo test -p rb-scenario --test telemetry golden`.
#[test]
fn golden_prometheus_export_is_pinned() {
    let design = vendors::tp_link();
    let text = metrics_run(&design, 7).to_prometheus();
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/telemetry_prom.txt");
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
        "the telemetry export drifted; regenerate with UPDATE_GOLDEN=1 if intended"
    );
}
