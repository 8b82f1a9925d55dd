//! The allocation budget of the denied-probe path (§V-C): a `Bind` sweep
//! from the world's attacker costs a small, fixed number of heap
//! allocations per probe, and leaves the live heap flat once the cloud's
//! bounded audit log is full. Two sweeps: past the devices of a hardened
//! cloud (every probe rate-limited or unknown), and round a bound series
//! of a cloud that rejects binds to bound devices (every probe an
//! `AlreadyBound` denial, counted per contested pair). The worlds record
//! no telemetry, like the repository benchmark's measured runs: the gate
//! covers the request path itself, not the metrics it can feed.
//!
//! Allocation counts are a deterministic work counter, unlike wall time,
//! so the gates are tight. The counting allocator is process-wide: this
//! binary holds exactly one test so nothing else allocates concurrently.

// Test code: panicking on unexpected state is the correct failure mode.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use rb_cloud::DefensePolicy;
use rb_core::design::VendorDesign;
use rb_core::vendors;
use rb_netsim::{Fault, FaultPlan};
use rb_prof::AllocScope;
use rb_scenario::{attacker_login, forged_bind, RawClient, World, WorldBuilder};
use rb_telemetry::Telemetry;
use rb_wire::ids::{DevId, IdScheme};
use rb_wire::messages::{DenyReason, Message, Response};

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
/// the attacker's fresh inbox — 5, measured in both sweeps (a known
/// contested pair allocates nothing) — and one of margin.
const MAX_ALLOCS_PER_PROBE: f64 = 6.0;
/// Bound homes in the second world: the attacker's re-sweep revisits each
/// one thousands of times, far past the contested-pair threshold.
const BOUND_HOMES: u64 = 8;

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
    sweep_within_budget(
        "sequential window",
        &mut world,
        &design,
        |n| sweep.id_at(n),
        |_| true,
    );

    let design = vendors::d_link();
    assert!(design.checks.reject_bind_when_bound);
    let mut world = WorldBuilder::new(design.clone(), 7)
        .homes(BOUND_HOMES as usize)
        .with_telemetry(Telemetry::disabled())
        .build();
    world.run_setup();
    // Unplug every bound home: its binding stays, and its app's event log
    // (which grows by one telemetry entry per heartbeat) stops growing,
    // so the heap measured below is the denial path's alone.
    let mut unplug = FaultPlan::new();
    for home in &world.homes {
        unplug = unplug
            .at(0, Fault::Crash { node: home.app })
            .at(0, Fault::Crash { node: home.device });
    }
    world.apply_fault_plan(&unplug);
    let bound: Vec<DevId> = world.homes.iter().map(|h| h.dev_id.clone()).collect();
    sweep_within_budget(
        "bound series",
        &mut world,
        &design,
        |n| bound[(n % BOUND_HOMES) as usize].clone(),
        |reason| *reason == DenyReason::AlreadyBound,
    );
    let state = world.cloud().monitor().render_state();
    assert!(
        state.contains(&format!("contested_pairs={BOUND_HOMES}\n")),
        "{state}"
    );
}

/// Logs the attacker in, sends [`WARM_UP`] forged binds for `id_at(0..)`,
/// then two measured halves of [`HALF`] more. Every reply must be a denial
/// `denied` accepts; the measured probes may cost at most
/// [`MAX_ALLOCS_PER_PROBE`] allocations each, and the live heap must not
/// grow past its size at the start of the measured batch.
fn sweep_within_budget(
    label: &str,
    world: &mut World,
    design: &VendorDesign,
    id_at: impl Fn(u64) -> DevId,
    denied: impl Fn(&DenyReason) -> bool,
) {
    let mut client = RawClient::default();
    let Some(Response::LoginOk { user_token }) =
        client.request(world, attacker_login(), WAIT).reply
    else {
        panic!("{label}: the attacker's login must succeed");
    };
    let mut next = 0;
    let mut probe = |world: &mut World, n: u64| {
        for _ in 0..n {
            let bind = forged_bind(design, &id_at(next), user_token).expect("ACL design");
            let replies = client.request(world, Message::Bind(bind), WAIT);
            assert!(
                matches!(&replies.reply, Some(Response::Denied { reason }) if denied(reason)),
                "{label} probe {next}: {replies:?}"
            );
            next += 1;
        }
    };

    probe(world, WARM_UP);
    let scope = AllocScope::start();
    let start = scope.finish();
    probe(world, HALF);
    let first = scope.finish();
    probe(world, HALF);
    let both = scope.finish();

    let per_probe = both.allocs_total as f64 / (2 * HALF) as f64;
    assert!(
        per_probe <= MAX_ALLOCS_PER_PROBE,
        "{label}: {per_probe:.2} allocations per denied probe (budget {MAX_ALLOCS_PER_PROBE}): {both:?}"
    );
    for (half, end) in [("first", first), ("second", both)] {
        assert!(
            end.live_bytes <= start.live_bytes,
            "{label}: live heap grew by {} bytes by the end of the {half} half ({HALF} probes each)",
            end.live_bytes - start.live_bytes
        );
    }
    eprintln!("{label}: {per_probe:.3} allocations per denied probe");
}
