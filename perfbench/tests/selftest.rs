//! The benchmark's self-test at tiny sizes: every output check passes on
//! two seeds in both the plain and the traced mode, the traced ledger
//! stays inside its residual bound, and a wrong pinned digest is rejected.

use perfbench::ledger::RESIDUAL_BOUND;
use perfbench::{pin_verdict, run, Mode, Size};

const WORKLOADS: [&str; 3] = ["fleet", "shared_cloud", "dos_enum"];

#[test]
fn every_check_passes_at_tiny_size() {
    for workload in WORKLOADS {
        for seed in [0, 1] {
            for mode in [Mode::Plain, Mode::Traced] {
                let rec = run(workload, seed, mode, Size::Tiny).expect("known workload");
                let failed: Vec<_> = rec.checks.iter().filter(|c| !c.ok).collect();
                assert!(
                    failed.is_empty(),
                    "{workload} seed {seed} {mode:?}: {failed:?}"
                );
                assert!(
                    rec.homes_ok == rec.homes,
                    "{workload}: {}/{}",
                    rec.homes_ok,
                    rec.homes
                );
            }
        }
    }
}

#[test]
fn traced_ledger_residual_is_inside_its_bound() {
    for workload in WORKLOADS {
        let rec = run(workload, 2, Mode::Traced, Size::Tiny).expect("known workload");
        let residual = rec.layers["ledger.residual"];
        assert!(
            residual.abs() <= RESIDUAL_BOUND,
            "{workload}: residual {residual}"
        );
        assert!(rec.layers.len() > 30, "{workload}: {:?}", rec.layers.keys());
    }
}

#[test]
fn a_wrong_pinned_digest_is_rejected() {
    let rec = run("dos_enum", 3, Mode::Plain, Size::Tiny).expect("known workload");
    let good = format!("dos_enum tiny 3 {}\n", rec.digest);
    assert_eq!(
        pin_verdict(&good, "dos_enum", Size::Tiny, 3, &rec.digest),
        "match"
    );
    let wrong = format!(
        "dos_enum tiny 3 {:016x}\n",
        u64::from_str_radix(&rec.digest, 16).unwrap_or(0) ^ 1
    );
    assert_eq!(
        pin_verdict(&wrong, "dos_enum", Size::Tiny, 3, &rec.digest),
        "mismatch"
    );
    assert_eq!(
        pin_verdict(&good, "dos_enum", Size::Tiny, 4, &rec.digest),
        "unpinned"
    );

    let mut tampered = rec.clone();
    tampered.pin = pin_verdict(&wrong, "dos_enum", Size::Tiny, 3, &rec.digest);
    assert!(!tampered.correct(), "a pin mismatch must fail the run");
}

#[test]
fn unknown_workloads_are_refused() {
    assert!(run("nope", 0, Mode::Plain, Size::Tiny).is_none());
}
