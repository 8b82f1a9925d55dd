//! The allocation budget of the denied-probe path (§V-C): a sequential-ID
//! `Bind` sweep from the world's attacker against a hardened cloud costs a
//! small, fixed number of heap allocations per probe, and leaves the live
//! heap flat once the cloud's bounded audit log is full. The world records
//! no telemetry, like the repository benchmark's measured runs: the gate
//! covers the request path itself, not the metrics it can feed.
//!
//! Allocation counts are a deterministic work counter, unlike wall time,
//! so the gate is tight. The counting allocator is process-wide: this
//! binary holds exactly one test so nothing else allocates concurrently.

// Test code: panicking on unexpected state is the correct failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use rb_cloud::DefensePolicy;
use rb_core::vendors;
use rb_prof::AllocScope;
use rb_scenario::{attacker_login, forged_bind, RawClient, World, WorldBuilder};
use rb_telemetry::Telemetry;
use rb_wire::ids::IdScheme;
use rb_wire::messages::{Message, Response};

#[global_allocator]
static ALLOC: rb_prof::CountingAlloc = rb_prof::CountingAlloc;

/// The cloud's default audit-log capacity (`CloudConfig::new`).
const AUDIT_CAP: u64 = 65_536;
/// Ticks each probe waits for its reply.
const WAIT: u64 = 20;
/// Probes before the measured batch: past the audit cap, so every
/// retained structure of a correct cloud is at its steady size.
const WARM_UP: u64 = AUDIT_CAP + 1_000;
/// Probes per measured half. The whole batch is at least as long as the
/// warm-up, so a table that kept one entry per probe would have to
/// reallocate (double) inside it and show up as live growth.
const HALF: u64 = WARM_UP / 2 + 1;
/// Heap allocations one denied probe may cost end to end: the request
/// frame and the reply frame (one buffer and one shared handle each) plus
/// the attacker's fresh inbox — 5 — and one of margin.
const MAX_ALLOCS_PER_PROBE: f64 = 6.0;

#[test]
fn denied_probes_allocate_a_fixed_budget_and_hold_no_memory() {
    let mut design = vendors::ozwi();
    design.id_scheme = IdScheme::SequentialSerial {
        vendor: 0x0102,
        start: 5_000,
    };
    // The sweep walks the same series far past the four victims, so every
    // probe is denied (rate-limited or unknown device).
    let sweep = IdScheme::SequentialSerial {
        vendor: 0x0102,
        start: 1_000_000,
    };
    let mut world = WorldBuilder::new(design.clone(), 7)
        .homes(4)
        .victim_paused()
        .defense(DefensePolicy::hardened())
        .with_telemetry(Telemetry::disabled())
        .build();
    let mut client = RawClient::default();
    let Some(Response::LoginOk { user_token }) =
        client.request(&mut world, attacker_login(), WAIT).reply
    else {
        panic!("the attacker's login must succeed");
    };
    let mut next = 0;
    let mut probe = |world: &mut World, n: u64| {
        for _ in 0..n {
            let bind = forged_bind(&design, &sweep.id_at(next), user_token).expect("ACL design");
            let replies = client.request(world, Message::Bind(bind), WAIT);
            assert!(
                matches!(replies.reply, Some(Response::Denied { .. })),
                "probe {next}: {replies:?}"
            );
            next += 1;
        }
    };

    probe(&mut world, WARM_UP);
    let scope = AllocScope::start();
    let start = scope.finish();
    probe(&mut world, HALF);
    let first = scope.finish();
    probe(&mut world, HALF);
    let both = scope.finish();

    let per_probe = both.allocs_total as f64 / (2 * HALF) as f64;
    assert!(
        per_probe <= MAX_ALLOCS_PER_PROBE,
        "{per_probe:.2} allocations per denied probe (budget {MAX_ALLOCS_PER_PROBE}): {both:?}"
    );
    for (half, end) in [("first", first), ("second", both)] {
        assert!(
            end.live_bytes <= start.live_bytes,
            "live heap grew by {} bytes by the end of the {half} half ({HALF} probes each)",
            end.live_bytes - start.live_bytes
        );
    }
}
