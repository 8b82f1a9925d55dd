//! Regression tests for the cloud's indexed lookups.
//!
//! The per-request `device_of_node` lookup is a node → device reverse
//! index rather than a scan over every shadow record. These tests pin the
//! indexed answers against the O(N) scan across session churn, so a
//! refactor that forgets to maintain the index fails loudly rather than
//! silently mis-attributing capability binds.

use rb_cloud::state::DeviceState;
use rb_netsim::{NodeId, SimRng, Tick};
use rb_wire::ids::{DevId, MacAddr};
use rb_wire::tokens::UserId;

fn dev(n: u8) -> DevId {
    DevId::Mac(MacAddr::new([2, 0, 0, 0, 1, n]))
}

/// The pre-index reference: scan every record and inspect its session.
/// This is a verbatim port of the old `CloudService::device_of_node`.
fn device_of_node_scan(state: &DeviceState, node: NodeId) -> Option<DevId> {
    state
        .iter_records()
        .map(|(id, _)| id)
        .find(|id| {
            state
                .session(id)
                .map(|s| s.nodes.contains(&node))
                .unwrap_or(false)
        })
        .cloned()
}

/// Drives a deterministic churn of touch / drop / expire operations and
/// checks the reverse index against the linear scan after every step.
#[test]
fn node_index_matches_linear_scan_under_churn() {
    let mut rng = SimRng::new(7);
    let mut state = DeviceState::new();
    let devices: Vec<DevId> = (0..12).map(dev).collect();
    // Ensure every device has a record, as real traffic would.
    for d in &devices {
        state.record_mut(d).shadow.on_status(0);
    }

    for step in 0..400u64 {
        let now = Tick(step * 10);
        let d = &devices[rng.range_u64(0, devices.len() as u64 - 1) as usize];
        let node = NodeId(rng.range_u64(0, 30) as u32);
        match rng.range_u64(0, 9) {
            0..=5 => {
                let concurrent = rng.chance(1, 3);
                state.touch_session(d, node, Some(UserId::new("u")), None, now, concurrent);
            }
            6..=7 => {
                state.drop_node(d, node);
            }
            _ => {
                state.expire_sessions(now, 120);
            }
        }
        // The index answers exactly what the scan answers, for every node
        // that has a single-device session (the only shape the bind flow
        // relies on; multi-device impersonation is checked below).
        for probe in 0..31u32 {
            let probe = NodeId(probe);
            let scanned = device_of_node_scan(&state, probe);
            let indexed = state.device_of_node(probe).cloned();
            match (&scanned, &indexed) {
                (None, None) => {}
                (Some(_), Some(_)) => {
                    // Both found membership; with HashMap iteration the
                    // scan's pick among several devices was arbitrary, so
                    // only assert that the indexed answer really holds the
                    // node — strictly stronger than what the scan promised.
                    let held = indexed
                        .as_ref()
                        .and_then(|d| state.session(d))
                        .map(|s| s.nodes.contains(&probe))
                        .unwrap_or(false);
                    assert!(held, "index returned a device not holding node {probe:?}");
                }
                _ => panic!(
                    "index/scan disagree on presence for node {probe:?}: \
                     scan={scanned:?} index={indexed:?} at step {step}"
                ),
            }
        }
    }
}

/// A node displaced from one device's session must stop resolving to it,
/// and a node speaking for two devices resolves to the most recent one.
#[test]
fn index_tracks_displacement_and_multi_device_nodes() {
    let mut state = DeviceState::new();
    state.record_mut(&dev(1)).shadow.on_status(0);
    state.record_mut(&dev(2)).shadow.on_status(0);

    // Node 5 authenticates as device 1, then as device 2 (impersonation).
    state.touch_session(&dev(1), NodeId(5), None, None, Tick(1), false);
    state.touch_session(&dev(2), NodeId(5), None, None, Tick(2), false);
    assert_eq!(state.device_of_node(NodeId(5)), Some(&dev(2)));

    // Node 6 displaces node 5 from device 2; node 5 falls back to device 1.
    state.touch_session(&dev(2), NodeId(6), None, None, Tick(3), false);
    assert_eq!(state.device_of_node(NodeId(5)), Some(&dev(1)));
    assert_eq!(state.device_of_node(NodeId(6)), Some(&dev(2)));

    // Dropping node 5 from device 1 clears it entirely.
    state.drop_node(&dev(1), NodeId(5));
    assert_eq!(state.device_of_node(NodeId(5)), None);

    // Expiry clears the index too.
    state.expire_sessions(Tick(10_000), 100);
    assert_eq!(state.device_of_node(NodeId(6)), None);
}
