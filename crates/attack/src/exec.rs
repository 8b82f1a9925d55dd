//! One executor per attack of Table II.
//!
//! Each executor builds a fresh world for its vendor design, drives the
//! victim to the attack's *targeted state*, performs the forgery over the
//! WAN, and classifies the outcome from observable evidence — the same
//! methodology as the paper's Section VI (response messages and end-to-end
//! effects), including the honesty rule that attacks requiring unknown
//! device-message formats are reported `O` (unconfirmable), not guessed.

use rb_cloud::DefensePolicy;
use rb_core::attacks::{AttackId, Feasibility};
use rb_core::design::{BindScheme, DeviceAuthScheme, FirmwareKnowledge, VendorDesign};
use rb_core::shadow::ShadowState;
use rb_forensics::Capture;
use rb_netsim::{FaultPlan, Telemetry};
use rb_scenario::{World, WorldBuilder};
use rb_wire::messages::{
    ControlAction, DeviceAttributes, Message, Response, StatusAuth, StatusPayload, UnbindPayload,
};
use rb_wire::telemetry::{ScheduleEntry, TelemetryFrame};
use rb_wire::tokens::UserId;

use crate::adversary::{Adversary, ATTACKER_ID};

/// The record of one executed (or refused) attack.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackRun {
    /// Which attack.
    pub id: AttackId,
    /// The observed outcome, in the paper's ✓/✗/O vocabulary.
    pub outcome: Feasibility,
    /// Evidence lines for the experiment log.
    pub evidence: Vec<String>,
    /// The forensic capture of the run (trace + role map), when
    /// [`AttackOpts::capture`] was set. Feed it to `rb_forensics::classify`
    /// to reconstruct the attack from the trace alone.
    pub capture: Option<Box<Capture>>,
    /// Defensive interventions (token rotations, quarantines, bind
    /// rate-limits) the victim cloud recorded during this run. Always 0
    /// under the default disabled [`AttackOpts::defense`] policy.
    pub mitigations: u64,
}

impl AttackRun {
    fn new(id: AttackId, outcome: Feasibility, evidence: Vec<String>) -> Self {
        AttackRun {
            id,
            outcome,
            evidence,
            capture: None,
            mitigations: 0,
        }
    }

    /// Whether the victim cloud's online defenses intervened.
    pub fn mitigated(&self) -> bool {
        self.mitigations > 0
    }
}

/// Environment options for an attack run. The default is the pristine
/// world every Table III campaign uses; the chaos suite passes a benign
/// fault plan to check attack outcomes are fault-invariant.
#[derive(Debug, Clone, Default)]
pub struct AttackOpts {
    /// Faults injected into the victim world from the start of the run.
    pub fault_plan: FaultPlan,
    /// Metrics registry shared with the victim world. Campaign drivers
    /// pass one handle across all runs to get per-family attempt/success
    /// counters; the default is a private registry.
    pub telemetry: Telemetry,
    /// Record a forensic capture: the victim world runs with causal
    /// tracing and cloud forensic marks enabled, and the run returns the
    /// full trace + role map in [`AttackRun::capture`].
    pub capture: bool,
    /// The victim cloud's active-response policy. The default is fully
    /// disabled — the baseline Table III campaign attacks an undefended
    /// cloud; `exp_defense` reruns the grid under `DefensePolicy::hardened()`
    /// to measure detection and mitigation.
    pub defense: DefensePolicy,
}

/// Runs one attack against one design. Dispatches to the specific
/// executor; `seed` controls the whole world's randomness.
pub fn run_attack(design: &VendorDesign, id: AttackId, seed: u64) -> AttackRun {
    run_attack_opts(design, id, seed, &AttackOpts::default())
}

/// Like [`run_attack`], with explicit environment options.
pub fn run_attack_opts(
    design: &VendorDesign,
    id: AttackId,
    seed: u64,
    opts: &AttackOpts,
) -> AttackRun {
    let family = id.family();
    opts.telemetry
        .incr(&format!("attack_attempts_total{{family=\"{family}\"}}"));
    // The targeted state decides the starting world: A2 and A4-2 attack
    // a device that is still in its box (victim paused), everything else
    // a fully set-up home. Construction lives here — not in the
    // executors — so the forensic capture wraps the *whole* run.
    let paused = matches!(id, AttackId::A2 | AttackId::A4_2);
    let mitigations_before = opts.telemetry.counter_family(MITIGATIONS);
    let mut world = build_world(design, seed, opts, paused);
    let mut run = match id {
        AttackId::A1 => run_a1(design, &mut world),
        AttackId::A2 => run_a2(design, &mut world),
        AttackId::A3_1 | AttackId::A3_2 => run_a3_unbind(id, &mut world),
        AttackId::A3_3 => run_a3_3(design, &mut world),
        AttackId::A3_4 => run_a3_4(design, &mut world),
        AttackId::A4_1 => run_a4_1(design, &mut world),
        AttackId::A4_2 => run_a4_2(design, &mut world),
        AttackId::A4_3 => run_a4_3(design, &mut world),
    };
    let outcome = match &run.outcome {
        Feasibility::Feasible => "feasible",
        Feasibility::Infeasible { .. } => "blocked",
        Feasibility::Unconfirmable { .. } => "unconfirmable",
    };
    if run.outcome == Feasibility::Feasible {
        opts.telemetry
            .incr(&format!("attack_success_total{{family=\"{family}\"}}"));
    }
    opts.telemetry.incr(&format!(
        "attack_outcomes_total{{id=\"{id}\",outcome=\"{outcome}\"}}"
    ));
    // Mitigation accounting: the shared registry counts every defensive
    // intervention; the delta over this run is this run's share.
    run.mitigations = opts
        .telemetry
        .counter_family(MITIGATIONS)
        .saturating_sub(mitigations_before);
    if run.mitigations > 0 {
        opts.telemetry
            .incr(&format!("attack_mitigated_total{{id=\"{id}\"}}"));
    }
    if opts.capture {
        run.capture = Some(Box::new(rb_scenario::capture(&world)));
    }
    run
}

/// The counter family `cloud_mitigations_total{action=…}`.
const MITIGATIONS: &str = "cloud_mitigations_total";

/// Builds the victim world with the run's environment options applied.
fn build_world(design: &VendorDesign, seed: u64, opts: &AttackOpts, paused: bool) -> World {
    let mut builder = WorldBuilder::new(design.clone(), seed)
        .fault_plan(opts.fault_plan.clone())
        .with_telemetry(opts.telemetry.clone())
        .defense(opts.defense);
    if paused {
        builder = builder.victim_paused();
    }
    if opts.capture {
        builder = builder.trace();
    }
    builder.build()
}

// ---------------------------------------------------------------------------
// Shared pieces.
// ---------------------------------------------------------------------------

/// Knowledge gate for device-originated status forgery: returns the
/// ✗-or-O verdict when the attacker cannot construct the message.
fn status_forgery_gate(design: &VendorDesign, id: AttackId) -> Option<AttackRun> {
    if design.status_forgeable() {
        return None;
    }
    if design.status_forgery_unconfirmable() {
        Some(AttackRun::new(
            id,
            Feasibility::unconfirmable(
                "unable to confirm due to firmware challenges (device message format unknown)",
            ),
            Vec::new(),
        ))
    } else {
        Some(blocked(
            id,
            format!("{} device authentication is unforgeable", design.auth),
            Vec::new(),
        ))
    }
}

/// A run the victim's design (or cloud) blocked for reason `by`.
fn blocked(id: AttackId, by: impl Into<String>, evidence: Vec<String>) -> AttackRun {
    AttackRun::new(id, Feasibility::blocked(by), evidence)
}

/// Builds the bind forgery for this design, or explains why none exists.
/// A device-sent bind needs the firmware's message format.
fn forged_bind(
    design: &VendorDesign,
    world: &World,
    adv: &Adversary,
) -> Result<Message, Feasibility> {
    if design.bind == BindScheme::AclDevice && design.firmware == FirmwareKnowledge::Opaque {
        return Err(Feasibility::unconfirmable(
            "device-sent bind format unknown without firmware",
        ));
    }
    let Some(user_token) = adv.user_token else {
        unreachable!("the adversary logs in before forging binds")
    };
    rb_scenario::forged_bind(design, &world.homes[0].dev_id, user_token)
        .map(Message::Bind)
        .ok_or_else(|| {
            Feasibility::blocked(
                "capability-based binding: the BindToken never leaves the victim's LAN",
            )
        })
}

/// The evidence wording of one forged-bind step: the line logged on
/// `Bound`, and the prefixes of the block reasons on a denial
/// (`"{denied} denied: {reason}"`) or any other answer
/// (`"{other} {answer:?}"`).
struct BindStep {
    accepted: &'static str,
    denied: &'static str,
    other: &'static str,
}

/// The replacing bind of A3-3 and A4-1.
const REPLACING_BIND: BindStep = BindStep {
    accepted: "attacker's replacing bind accepted",
    denied: "replacing bind",
    other: "no bind response:",
};

/// Forges the design's bind and sends it. On `Bound` the stolen session
/// is kept for the control check; otherwise the finished run comes back
/// as the error — the forgery's infeasibility, or the cloud's refusal.
fn bind_step(
    id: AttackId,
    design: &VendorDesign,
    world: &mut World,
    adv: &mut Adversary,
    evidence: &mut Vec<String>,
    step: &BindStep,
) -> Result<(), AttackRun> {
    let bind = forged_bind(design, world, adv)
        .map_err(|f| AttackRun::new(id, f, std::mem::take(evidence)))?;
    world.telemetry().incr("attack_forged_binds_total");
    match adv.request(world, bind) {
        Some(Response::Bound { session }) => {
            adv.hijack_session = session;
            evidence.push(step.accepted.into());
            Ok(())
        }
        Some(Response::Denied { reason }) => Err(blocked(
            id,
            format!("{} denied: {reason}", step.denied),
            std::mem::take(evidence),
        )),
        other => Err(blocked(
            id,
            format!("{} {other:?}", step.other),
            std::mem::take(evidence),
        )),
    }
}

/// Summarizes the alerts the victim cloud's passive monitor raised during
/// the attack — what a watchful vendor *could* have noticed.
fn alert_summary(world: &World) -> String {
    let alerts = world.cloud().monitor().alert_log();
    if alerts.is_empty() {
        return "cloud monitor: no alerts".to_owned();
    }
    let mut counts: std::collections::BTreeMap<&'static str, usize> = Default::default();
    for (_, a) in alerts {
        *counts.entry(a.kind()).or_default() += 1;
    }
    let parts: Vec<String> = counts.iter().map(|(k, n)| format!("{k}×{n}")).collect();
    format!("cloud monitor: {}", parts.join(", "))
}

/// Downgrades a mechanically successful hijack-control to the paper's "O"
/// when the vendor channel was never inspected: the simulator's optimistic
/// model of an unknown channel is not evidence.
fn control_feasibility(design: &VendorDesign, works: bool, blocked_note: &str) -> Feasibility {
    if !works {
        return Feasibility::blocked(blocked_note.to_owned());
    }
    if design.auth == DeviceAuthScheme::Opaque {
        Feasibility::unconfirmable(
            "whether control is relayed cannot be confirmed without inspecting the vendor channel",
        )
    } else {
        Feasibility::Feasible
    }
}

fn forged_register(world: &World) -> Message {
    let dev_id = world.homes[0].dev_id.clone();
    Message::Status(StatusPayload::register(
        StatusAuth::DevId(dev_id.clone()),
        dev_id,
        DeviceAttributes::new("forged", "0.0.0"),
    ))
}

fn forged_heartbeat(world: &World, telemetry: Vec<TelemetryFrame>) -> Message {
    let dev_id = world.homes[0].dev_id.clone();
    let mut payload = StatusPayload::heartbeat(StatusAuth::DevId(dev_id.clone()), dev_id);
    payload.telemetry = telemetry;
    Message::Status(payload)
}

/// The attacker attempts to actually drive the device after acquiring a
/// binding: sends `TurnOn` and checks the physical relay.
fn control_check(world: &mut World, adv: &mut Adversary, evidence: &mut Vec<String>) -> bool {
    world.telemetry().incr("attack_control_attempts_total");
    let dev_id = world.homes[0].dev_id.clone();
    let Some(user_token) = adv.user_token else {
        unreachable!("the adversary logs in before attempting control")
    };
    // A hijacker presents whatever session token came with the stolen
    // binding, exactly as the protocol demands.
    let session = adv.hijack_session;
    let rsp = adv.request(
        world,
        Message::Control {
            dev_id,
            user_token,
            session,
            action: ControlAction::TurnOn,
        },
    );
    world.run_for(5_000);
    match rsp {
        Some(Response::ControlOk { .. }) => {
            let on = world.device(0).is_on();
            if on {
                world.telemetry().incr("attack_control_relayed_total");
            }
            evidence.push(format!("control accepted by cloud; device relay on = {on}"));
            evidence.push(alert_summary(world));
            on
        }
        Some(Response::Denied { reason }) => {
            evidence.push(format!("control denied: {reason}"));
            evidence.push(alert_summary(world));
            false
        }
        other => {
            evidence.push(format!("control got {other:?}"));
            false
        }
    }
}

// ---------------------------------------------------------------------------
// A1: data injection and stealing.
// ---------------------------------------------------------------------------

fn run_a1(design: &VendorDesign, world: &mut World) -> AttackRun {
    const ID: AttackId = AttackId::A1;
    if let Some(run) = status_forgery_gate(design, ID) {
        return run;
    }
    world.run_setup();
    let mut adv = Adversary::new();
    adv.login(world);
    let mut evidence = Vec::new();

    // Open a forged device session.
    let register = forged_register(world);
    world.telemetry().incr("attack_forged_registers_total");
    match adv.request(world, register) {
        Some(Response::StatusAccepted { .. }) => {
            evidence.push("forged registration accepted".into());
        }
        Some(Response::Denied { reason }) => {
            return blocked(
                ID,
                format!("forged registration denied: {reason}"),
                evidence,
            );
        }
        other => return blocked(ID, format!("no registration response: {other:?}"), evidence),
    }
    // If the registration nuked the binding, there is no user left to
    // deceive (TP-LINK: the forgery lands as A3-4 instead).
    if world.cloud().bound_user(&world.homes[0].dev_id) != Some(world.homes[0].user_id.clone()) {
        return blocked(
            ID,
            "registration reset the binding; no bound user left to deceive (see A3-4)",
            evidence,
        );
    }

    // Injection: report an absurd power reading and check it reaches the
    // victim's app.
    let marker = TelemetryFrame::PowerMilliwatts(999_000_000);
    let heartbeat = forged_heartbeat(world, vec![marker.clone()]);
    world.telemetry().incr("attack_forged_heartbeats_total");
    adv.request(world, heartbeat);
    world.run_for(5_000);
    let injected = world.app(0).events.iter().any(|e| match e {
        rb_app::AppEvent::Telemetry(frames) => frames.contains(&marker),
        _ => false,
    });
    evidence.push(format!("fake telemetry reached the victim app: {injected}"));

    // Stealing: the victim stores a schedule; the forged device session
    // receives the push meant for the real device.
    let secret_entry = ScheduleEntry {
        at_tick: 0x5EC2E7,
        turn_on: false,
    };
    world
        .app_mut(0)
        .queue_control(ControlAction::SetSchedule(secret_entry.clone()));
    world.run_for(10_000);
    adv.drain(world, None);
    let stolen = adv.saw_push(|rsp| {
        matches!(rsp, Response::ControlPush { action: ControlAction::SetSchedule(e), .. } if *e == secret_entry)
    });
    evidence.push(format!(
        "victim's schedule exfiltrated to the attacker: {stolen}"
    ));

    evidence.push(alert_summary(world));
    if injected && stolen {
        AttackRun::new(ID, Feasibility::Feasible, evidence)
    } else {
        blocked(
            ID,
            "forged session did not carry user data both ways",
            evidence,
        )
    }
}

// ---------------------------------------------------------------------------
// A2: binding denial-of-service.
// ---------------------------------------------------------------------------

fn run_a2(design: &VendorDesign, world: &mut World) -> AttackRun {
    const ID: AttackId = AttackId::A2;
    // The world arrives paused: the device is manufactured and its ID
    // leaked, but the victim has not set it up yet (the *initial* state).
    let mut adv = Adversary::new();
    adv.login(world);
    let mut evidence = Vec::new();

    let step = BindStep {
        accepted: "attacker's pre-emptive binding accepted",
        denied: "pre-emptive bind",
        other: "no bind response:",
    };
    if let Err(run) = bind_step(ID, design, world, &mut adv, &mut evidence, &step) {
        return run;
    }

    // Now the victim unboxes the device and tries to set it up.
    world.resume_victims();
    let converged = world.try_run_setup(150_000);
    let holder = world.cloud().bound_user(&world.homes[0].dev_id);
    evidence.push(format!(
        "victim setup converged: {converged}; binding holder: {holder:?}"
    ));
    evidence.push(alert_summary(world));
    if !converged && holder == Some(UserId::new(ATTACKER_ID)) {
        AttackRun::new(ID, Feasibility::Feasible, evidence)
    } else {
        blocked(
            ID,
            "the victim completed binding anyway (replacement semantics or re-bind)",
            evidence,
        )
    }
}

// ---------------------------------------------------------------------------
// A3-1 / A3-2: device unbinding by forged unbind messages.
// ---------------------------------------------------------------------------

/// A3-1 sends the bare `Unbind:DevId`; A3-2 the attacker's own token.
fn run_a3_unbind(id: AttackId, world: &mut World) -> AttackRun {
    world.run_setup();
    let mut adv = Adversary::new();
    let mut evidence = Vec::new();
    let dev_id = world.homes[0].dev_id.clone();
    let (payload, accepted) = if id == AttackId::A3_1 {
        let payload = UnbindPayload::DevIdOnly {
            dev_id: dev_id.clone(),
        };
        (payload, "cloud accepted Unbind:DevId")
    } else {
        let user_token = adv.login(world);
        let payload = UnbindPayload::DevIdUserToken {
            dev_id: dev_id.clone(),
            user_token,
        };
        (payload, "cloud accepted the attacker's token on unbind")
    };
    world.telemetry().incr("attack_forged_unbinds_total");
    match adv.request(world, Message::Unbind(payload)) {
        Some(Response::Unbound) => {
            let unbound = world.cloud().bound_user(&dev_id).is_none();
            evidence.push(format!("{accepted}; binding revoked: {unbound}"));
            evidence.push(alert_summary(world));
            if unbound {
                AttackRun::new(id, Feasibility::Feasible, evidence)
            } else {
                blocked(id, "binding survived", evidence)
            }
        }
        Some(Response::Denied { reason }) => blocked(id, format!("denied: {reason}"), evidence),
        other => blocked(id, format!("no response: {other:?}"), evidence),
    }
}

// ---------------------------------------------------------------------------
// A3-3: device unbinding via replacing bind (no control).
// ---------------------------------------------------------------------------

fn run_a3_3(design: &VendorDesign, world: &mut World) -> AttackRun {
    const ID: AttackId = AttackId::A3_3;
    world.run_setup();
    let mut adv = Adversary::new();
    adv.login(world);
    let mut evidence = Vec::new();

    if let Err(run) = bind_step(ID, design, world, &mut adv, &mut evidence, &REPLACING_BIND) {
        return run;
    }
    world.run_for(5_000);
    let victim_disconnected = !world.app(0).is_bound();
    evidence.push(format!(
        "victim app lost its binding: {victim_disconnected}"
    ));
    if !victim_disconnected {
        return blocked(ID, "victim binding survived", evidence);
    }
    // If the replacement also yields *confirmed* control, the stronger
    // A4-1 classification applies and this run does not count as A3-3.
    let works = control_check(world, &mut adv, &mut evidence);
    if works && design.auth != DeviceAuthScheme::Opaque {
        blocked(
            ID,
            "subsumed by A4-1: the replacement yields control",
            evidence,
        )
    } else {
        AttackRun::new(ID, Feasibility::Feasible, evidence)
    }
}

// ---------------------------------------------------------------------------
// A3-4: device unbinding via forged status.
// ---------------------------------------------------------------------------

fn run_a3_4(design: &VendorDesign, world: &mut World) -> AttackRun {
    const ID: AttackId = AttackId::A3_4;
    if let Some(run) = status_forgery_gate(design, ID) {
        return run;
    }
    world.run_setup();
    let mut adv = Adversary::new();
    let mut evidence = Vec::new();
    let register = forged_register(world);
    world.telemetry().incr("attack_forged_registers_total");
    match adv.request(world, register) {
        Some(Response::StatusAccepted { .. }) => {
            evidence.push("forged registration accepted".into());
        }
        Some(Response::Denied { reason }) => {
            return blocked(
                ID,
                format!("forged registration denied: {reason}"),
                evidence,
            );
        }
        other => return blocked(ID, format!("no response: {other:?}"), evidence),
    }
    world.run_for(2_000);
    let unbound = world.cloud().bound_user(&world.homes[0].dev_id).is_none();
    evidence.push(format!("binding revoked by the registration: {unbound}"));
    evidence.push(alert_summary(world));
    if unbound {
        AttackRun::new(ID, Feasibility::Feasible, evidence)
    } else {
        blocked(
            ID,
            "a fresh registration does not reset the binding",
            evidence,
        )
    }
}

// ---------------------------------------------------------------------------
// A4-1: hijack via replacing bind in the control state.
// ---------------------------------------------------------------------------

fn run_a4_1(design: &VendorDesign, world: &mut World) -> AttackRun {
    const ID: AttackId = AttackId::A4_1;
    world.run_setup();
    let mut adv = Adversary::new();
    adv.login(world);
    let mut evidence = Vec::new();

    if let Err(run) = bind_step(ID, design, world, &mut adv, &mut evidence, &REPLACING_BIND) {
        return run;
    }
    let works = control_check(world, &mut adv, &mut evidence);
    let outcome = control_feasibility(design, works, "binding replaced but control is not relayed");
    AttackRun::new(ID, outcome, evidence)
}

// ---------------------------------------------------------------------------
// A4-2: hijack by racing the setup window.
// ---------------------------------------------------------------------------

fn run_a4_2(design: &VendorDesign, world: &mut World) -> AttackRun {
    const ID: AttackId = AttackId::A4_2;
    // The world arrives paused (the setup has not happened yet).
    let mut adv = Adversary::new();
    adv.login(world);
    let mut evidence = Vec::new();

    // Can the attacker even construct a bind?
    if let Err(f) = forged_bind(design, world, &adv) {
        return AttackRun::new(ID, f, evidence);
    }

    // The victim starts setting up; the attacker fires binds blindly at a
    // realistic probe cadence, hoping to land inside the online-unbound
    // window.
    world.resume_victims();
    let mut occupied = false;
    for _round in 0..600 {
        let Ok(bind) = forged_bind(design, world, &adv) else {
            unreachable!("forgeability was checked before the probe loop")
        };
        world.telemetry().incr("attack_window_probes_total");
        adv.fire(world, bind);
        world.run_for(250);
        if let Some(Response::Bound { session }) = latest_bind_response(&mut adv, world) {
            adv.hijack_session = session;
            occupied = true;
            break;
        }
        if world.app(0).is_bound() && world.shadow_state(0) == ShadowState::Control {
            // The victim won the race and holds a sticky binding.
            if !world.design.bind_replaces() {
                break;
            }
        }
    }
    if !occupied {
        evidence.push("never landed inside the online-unbound window".into());
        return blocked(ID, "setup window unexploitable", evidence);
    }
    evidence.push("bound inside the setup window".into());
    // Let the victim finish flailing; with sticky semantics their binds are
    // now rejected.
    world.try_run_setup(60_000);
    let holder = world.cloud().bound_user(&world.homes[0].dev_id);
    evidence.push(format!("final binding holder: {holder:?}"));
    if holder != Some(UserId::new(ATTACKER_ID)) {
        return blocked(ID, "the victim displaced the attacker's binding", evidence);
    }
    let works = control_check(world, &mut adv, &mut evidence);
    let outcome = control_feasibility(design, works, "window won but control is not relayed");
    AttackRun::new(ID, outcome, evidence)
}

fn latest_bind_response(adv: &mut Adversary, world: &mut World) -> Option<Response> {
    adv.drain(world, None);
    let stash: Vec<_> = adv.stashed_responses().to_vec();
    stash
        .into_iter()
        .map(|(_, r)| r)
        .rfind(|r| matches!(r, Response::Bound { .. }))
}

// ---------------------------------------------------------------------------
// A4-3: hijack by unbind-then-bind.
// ---------------------------------------------------------------------------

fn run_a4_3(design: &VendorDesign, world: &mut World) -> AttackRun {
    const ID: AttackId = AttackId::A4_3;
    world.run_setup();
    let mut adv = Adversary::new();
    let user_token = adv.login(world);
    let mut evidence = Vec::new();
    let dev_id = world.homes[0].dev_id.clone();

    // Step 1: revoke the victim's binding.
    let unbind = rb_scenario::forged_unbind(design, &dev_id, user_token);
    world.telemetry().incr("attack_forged_unbinds_total");
    match adv.request(world, Message::Unbind(unbind)) {
        Some(Response::Unbound) => evidence.push("step 1: victim unbound".into()),
        Some(Response::Denied { reason }) => {
            return blocked(ID, format!("step 1 (unbind) denied: {reason}"), evidence);
        }
        other => return blocked(ID, format!("step 1 got {other:?}"), evidence),
    }

    // Step 2: bind the now-unbound device to the attacker.
    let step = BindStep {
        accepted: "step 2: attacker bound",
        denied: "step 2 (bind)",
        other: "step 2 got",
    };
    if let Err(run) = bind_step(ID, design, world, &mut adv, &mut evidence, &step) {
        return run;
    }

    // Step 3: absolute control.
    let works = control_check(world, &mut adv, &mut evidence);
    let outcome = control_feasibility(
        design,
        works,
        "bound but control is not relayed to the device",
    );
    AttackRun::new(ID, outcome, evidence)
}
