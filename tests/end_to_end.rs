//! Workspace-level end-to-end tests through the facade crate: complete
//! attack stories exercised via the public API only.

use iot_remote_binding::attack::campaign::run_campaign;
use iot_remote_binding::attack::Adversary;
use iot_remote_binding::core_model::attacks::AttackId;
use iot_remote_binding::core_model::shadow::ShadowState;
use iot_remote_binding::core_model::vendors;
use iot_remote_binding::scenario::WorldBuilder;
use iot_remote_binding::wire::messages::{ControlAction, Message, Response, UnbindPayload};
use iot_remote_binding::wire::telemetry::TelemetryFrame;

/// The paper's Belkin story, told end to end: a working smart plug, then a
/// stranger's unbind request that the cloud happily honours (A3-2).
#[test]
fn belkin_story_a3_2() {
    let mut world = WorldBuilder::new(vendors::belkin(), 0xB31).build();
    world.run_setup();

    // The victim's plug works.
    world.app_mut(0).queue_control(ControlAction::TurnOn);
    world.run_for(10_000);
    assert!(world.device(0).is_on());

    // A stranger on the WAN, armed only with the device ID and their own
    // account, revokes the binding.
    let mut adv = Adversary::new();
    let user_token = adv.login(&mut world);
    let dev_id = world.homes[0].dev_id.clone();
    let rsp = adv.request(
        &mut world,
        Message::Unbind(UnbindPayload::DevIdUserToken { dev_id, user_token }),
    );
    assert_eq!(rsp, Some(Response::Unbound));

    // The victim's app hears about it and can no longer control the plug.
    world.run_for(10_000);
    assert!(!world.app(0).is_bound());
    assert_eq!(world.shadow_state(0), ShadowState::Online);
    world.app_mut(0).queue_control(ControlAction::TurnOff);
    world.run_for(10_000);
    assert!(
        world.device(0).is_on(),
        "the relay never received the command"
    );
}

/// D-LINK's A1 story: the fake power reading and the stolen schedule —
/// exactly the paper's §VI-B description.
#[test]
fn d_link_story_a1() {
    use iot_remote_binding::attack::exec::run_attack;
    let run = run_attack(&vendors::d_link(), AttackId::A1, 0xD11);
    assert!(run.outcome.is_feasible(), "{:?}", run);
    assert!(run
        .evidence
        .iter()
        .any(|e| e.contains("fake telemetry reached the victim app: true")));
    assert!(run
        .evidence
        .iter()
        .any(|e| e.contains("exfiltrated to the attacker: true")));
}

/// The KONKE peculiarity: no unbind support means replacement *is* the
/// revocation mechanism — the attacker can disconnect, but never control.
#[test]
fn konke_story_a3_3_without_hijack() {
    let campaign = run_campaign(&vendors::konke(), 0x40);
    assert!(campaign.outcome(AttackId::A3_3).is_feasible());
    assert!(!campaign.outcome(AttackId::A4_1).is_feasible());
    assert!(
        !campaign.outcome(AttackId::A2).is_feasible(),
        "replacement defeats occupation"
    );
}

/// The facade's quickstart promise.
#[test]
fn facade_quickstart_claim() {
    let campaign = run_campaign(&vendors::e_link(), 1);
    assert_eq!(campaign.row(), ["O", "✗", "✗", "A4-1"]);
}

/// Telemetry tampering is visible end to end: the attacker's absurd frame
/// arrives marked exactly as sent.
#[test]
fn injected_frame_arrives_verbatim() {
    use iot_remote_binding::wire::messages::{StatusAuth, StatusPayload};
    let mut world = WorldBuilder::new(vendors::d_link(), 0xF00D).build();
    world.run_setup();
    let mut adv = Adversary::new();
    adv.login(&mut world);
    let dev_id = world.homes[0].dev_id.clone();
    // Register a forged session, then inject a triggered fire alarm.
    let register = Message::Status(StatusPayload::register(
        StatusAuth::DevId(dev_id.clone()),
        dev_id.clone(),
        Default::default(),
    ));
    assert!(matches!(
        adv.request(&mut world, register),
        Some(Response::StatusAccepted { .. })
    ));
    let mut hb = StatusPayload::heartbeat(StatusAuth::DevId(dev_id.clone()), dev_id);
    hb.telemetry = vec![TelemetryFrame::Alarm { triggered: true }];
    adv.request(&mut world, Message::Status(hb));
    world.run_for(5_000);
    let saw_alarm = world.app(0).events.iter().any(|e| match e {
        iot_remote_binding::app::AppEvent::Telemetry(frames) => {
            frames.iter().any(|f| f.is_alarming())
        }
        _ => false,
    });
    assert!(
        saw_alarm,
        "the victim's app shows a fire that does not exist"
    );
}

/// The passive monitor sees the Belkin A3-2 story end to end: the foreign
/// unbind leaves a `foreign-unbind` alert naming both parties.
#[test]
fn monitor_flags_the_belkin_story() {
    let mut world = WorldBuilder::new(vendors::belkin(), 0xB32).build();
    world.run_setup();
    assert!(
        world.cloud().monitor().alert_log().is_empty(),
        "clean setup"
    );
    let mut adv = Adversary::new();
    let user_token = adv.login(&mut world);
    let dev_id = world.homes[0].dev_id.clone();
    adv.request(
        &mut world,
        Message::Unbind(UnbindPayload::DevIdUserToken { dev_id, user_token }),
    );
    world.run_for(5_000);
    use iot_remote_binding::cloud::SecurityAlert;
    let alerts = world.cloud().monitor().alert_log();
    assert!(
        alerts.iter().any(|(_, a)| matches!(
            a,
            SecurityAlert::ForeignUnbind { victim, requester, .. }
                if victim.as_str() == "user0@example.com"
                    && requester.as_str() == "attacker@evil.example"
        )),
        "{alerts:?}"
    );
}
