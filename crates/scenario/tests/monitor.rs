//! Monitor-enabled world tests: the streaming monitor detects and mitigates
//! the scripted attacker, and the canonical monitor-enabled Prometheus
//! export (alert + mitigation families included) is pinned as a golden.
//! The 1/4/8-thread byte-determinism of the alert stream lives with the
//! parallel runner, in `crates/fleet/tests/determinism.rs`.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use rb_core::vendors;
use rb_scenario::monitor_run;

#[test]
fn monitor_run_detects_and_mitigates_the_scripted_attacker() {
    let run = monitor_run(&vendors::tp_link(), 7);
    assert!(run.converged, "benign setup converges before the attack");
    assert!(
        run.alert_stream.contains("enumeration"),
        "the ID sweep is flagged:\n{}",
        run.alert_stream
    );
    let alerts = run.telemetry.counter_family("cloud_alerts_total");
    assert!(alerts >= 2, "several detectors fire on TP-LINK: {alerts}");
    let mitigations = run.telemetry.counter_family("cloud_mitigations_total");
    assert!(
        mitigations >= 1,
        "the hardened policy reacts: {mitigations}"
    );
    // Detection latency histograms are tick-valued and populated.
    assert!(
        run.telemetry
            .to_prometheus()
            .contains("monitor_detection_latency_ticks"),
        "latency histograms exported"
    );
}

/// Golden monitor-enabled Prometheus export: the canonical TP-LINK seed-7
/// `monitor_run` is pinned byte-for-byte, alert and mitigation families
/// included. Regenerate with
/// `UPDATE_GOLDEN=1 cargo test -p rb-scenario --test monitor golden`.
#[test]
fn golden_monitor_prometheus_export_is_pinned() {
    let run = monitor_run(&vendors::tp_link(), 7);
    let text = format!(
        "{}\n---\n{}\n---\n{}",
        run.alert_stream,
        run.state,
        run.telemetry.to_prometheus()
    );
    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/monitor_prom.txt");
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
        "the monitor export drifted; regenerate with UPDATE_GOLDEN=1 if intended"
    );
}
