//! The canonical binding life cycle and the monitor-enabled scenario.
//!
//! [`run_lifecycle`] drives one home through the full binding life cycle —
//! setup, a control round-trip, an unbind, a factory reset, a re-bind, and
//! a quiesce period — on whatever world it is handed. The world decides
//! what is recorded: [`metrics_run`] keeps the shared [`Telemetry`]
//! registry, [`trace_run`](crate::trace_run) the causal trace, and
//! [`prof_run`](crate::prof_run) the phase profile. `rbsim metrics`, the
//! pinned Prometheus golden, and the `exp_observability` bench all consume
//! this exact scenario, so a metric that drifts shows up identically in
//! all three.
//!
//! Determinism: the run is a pure function of `(design, seed, profile)`
//! and the world's builder options. Two invocations with the same
//! arguments produce byte-identical JSON and Prometheus exports (asserted
//! in `tests/telemetry.rs`).

use rb_cloud::DefensePolicy;
use rb_core::design::VendorDesign;
use rb_netsim::Telemetry;
use rb_wire::messages::{
    ControlAction, DeviceAttributes, Message, Response, StatusAuth, StatusPayload, UnbindPayload,
};
use rb_wire::tokens::UserToken;

use crate::{
    attacker_login, forged_bind, forged_unbind, ChaosProfile, RawClient, World, WorldBuilder,
};

/// How long each post-setup phase of the canonical scenario runs.
const PHASE_TICKS: u64 = 10_000;

/// Runs the canonical binding life cycle on `world`, first applying the
/// `profile` fault plan (seeded by the world's seed) if given.
///
/// The six phases — `scenario.setup`, `.control`, `.unbind`, `.reset`,
/// `.rebind`, `.quiesce` — are bracketed on the world's profiler, which
/// records nothing unless the world was built with one. The
/// `scenario_setup_converged` gauge records whether setup converged,
/// which is also the return value. Under chaos setup may legitimately not
/// converge; the four user phases are then skipped and the registry
/// records the give-ups and retries instead.
pub fn run_lifecycle(world: &mut World, profile: Option<ChaosProfile>) -> bool {
    if let Some(profile) = profile {
        let plan = profile.plan(world, world.seed());
        world.apply_fault_plan(&plan);
    }
    let converged = phase(world, "scenario.setup", |w| w.try_run_setup(300_000));
    world
        .telemetry()
        .gauge_set("scenario_setup_converged", i64::from(converged));

    if converged {
        // One control round-trip (Bound → Control transition and a
        // device command).
        phase(world, "scenario.control", |w| {
            w.app_mut(0).queue_control(ControlAction::TurnOn);
            w.run_for(PHASE_TICKS);
        });
        // Unbind ("remove device" in the app) ...
        phase(world, "scenario.unbind", |w| {
            w.app_mut(0).queue_unbind();
            w.run_for(PHASE_TICKS);
        });
        // ... and re-bind, populating the unbind-to-rebind window
        // histogram. A cloud-side unbind does not make a device-bind
        // design re-send its Bind, so "remove device, reset it, add it
        // again" is the realistic re-pairing flow for every design. The
        // reset executes on the device's next heartbeat tick; let it land
        // before the user re-opens the app, or the fresh pairing material
        // would be wiped mid-provisioning.
        phase(world, "scenario.reset", |w| {
            w.device_mut(0).queue_reset();
            w.run_for(PHASE_TICKS);
        });
        phase(world, "scenario.rebind", |w| {
            w.app_mut(0).restart_setup();
            w.try_run_setup(300_000);
        });
    }

    // Quiesce — heartbeats keep flowing so steady-state counters separate
    // from the setup burst.
    phase(world, "scenario.quiesce", |w| w.run_for(PHASE_TICKS));
    converged
}

/// Runs `act` bracketed as phase `name` on the world's profiler.
fn phase<R>(world: &mut World, name: &str, act: impl FnOnce(&mut World) -> R) -> R {
    let profiler = world.sim.profiler().clone();
    let tok = profiler.enter(name, world.now().as_u64());
    let out = act(world);
    profiler.exit(tok, world.now().as_u64());
    out
}

/// Runs the canonical binding life cycle on a pristine world and returns
/// the shared metrics registry.
pub fn metrics_run(design: &VendorDesign, seed: u64) -> Telemetry {
    let mut world = WorldBuilder::new(design.clone(), seed).build();
    run_lifecycle(&mut world, None);
    world.telemetry().clone()
}

/// The artifacts of one [`monitor_run`]: byte-stable renders of the
/// streaming monitor's output plus the shared metrics registry. Two runs
/// with the same `(design, seed)` produce identical strings — the
/// determinism gate `exp_defense` enforces at 1, 4, and 8 threads.
#[derive(Debug, Clone)]
pub struct MonitorRun {
    /// The shared metrics registry (alert counters, detection-latency
    /// histograms, mitigation counters all live here).
    pub telemetry: Telemetry,
    /// `t=<tick> <alert>` lines, one per alert, in raise order.
    pub alert_stream: String,
    /// The monitor's deterministic state summary.
    pub state: String,
    /// Whether benign setup converged before the attacker script ran.
    pub converged: bool,
}

/// The canonical monitor-enabled scenario: one benign home plus a scripted
/// WAN attacker, with the hardened [`DefensePolicy`] installed and the
/// netsim stream tap on.
///
/// The attacker walks the ID space (enumeration), forges a device
/// registration (session move / impossible transition on register-reset
/// designs), fires an unauthorized unbind, and binds with its own account
/// where the design's bind shape permits — so every detector the design
/// can feasibly trip is exercised. `rbsim monitor`, the monitor-enabled
/// Prometheus golden, and `exp_defense` all consume this exact scenario.
pub fn monitor_run(design: &VendorDesign, seed: u64) -> MonitorRun {
    let mut world = WorldBuilder::new(design.clone(), seed)
        .defense(DefensePolicy::hardened())
        .stream_tap()
        .build();
    let converged = world.try_run_setup(300_000);
    let dev_id = world.homes[0].dev_id.clone();
    let mut attacker = RawClient::default();

    // Attacker signs in with its own (legitimately created) account.
    let token = match attacker.request(&mut world, attacker_login(), 2_000).reply {
        Some(Response::LoginOk { user_token }) => user_token,
        _ => UserToken::from_entropy(0),
    };

    // ID-space sweep: ten probes against sequential (mostly unknown)
    // DevIds — the enumeration-rate signature.
    for i in 1..=10u64 {
        let probe = design.id_scheme.id_at(1_000 + i);
        attacker.request(
            &mut world,
            Message::Unbind(UnbindPayload::DevIdUserToken {
                dev_id: probe,
                user_token: token,
            }),
            500,
        );
    }

    // A forged device registration from the WAN (session move; on
    // register-reset designs also the impossible shadow transition).
    attacker.request(
        &mut world,
        Message::Status(StatusPayload::register(
            StatusAuth::DevId(dev_id.clone()),
            dev_id.clone(),
            DeviceAttributes::default(),
        )),
        2_000,
    );

    // An unauthorized unbind against the victim's device.
    let unbind = forged_unbind(design, &dev_id, token);
    attacker.request(&mut world, Message::Unbind(unbind), 2_000);

    // Repeated binds with the attacker's own account (contested-binding on
    // rejecting designs, displacement + remote-only-bind on replacing
    // ones). The capability shape needs a device round trip the WAN
    // attacker does not have, so it is skipped there.
    if let Some(payload) = forged_bind(design, &dev_id, token) {
        for _ in 0..3 {
            attacker.request(&mut world, Message::Bind(payload.clone()), 1_000);
        }
    }

    // Quiesce: the victim's device keeps heartbeating, defenses settle.
    world.run_for(PHASE_TICKS);

    let monitor = world.cloud().monitor();
    MonitorRun {
        alert_stream: monitor.render_alert_stream(),
        state: monitor.render_state(),
        telemetry: world.telemetry().clone(),
        converged,
    }
}
