//! Full-stack device sharing across households, plus failure injection:
//! partitions, outages, and lossy links during the binding life cycle.

use rb_core::shadow::ShadowState;
use rb_core::vendors;
use rb_netsim::LinkQuality;
use rb_scenario::WorldBuilder;
use rb_wire::messages::ControlAction;
use rb_wire::tokens::UserId;

#[test]
fn owner_shares_device_with_neighbour() {
    // Two homes on one cloud; home 0's owner shares their plug with home
    // 1's account, who then controls it from their own LAN.
    let mut world = WorldBuilder::new(vendors::d_link(), 0x5A11)
        .homes(2)
        .build();
    world.run_setup();

    let guest_account = world.homes[1].user_id.clone();
    world.app_mut(0).queue_share(guest_account, true);
    world.run_for(10_000);
    assert_eq!(
        world.cloud().guests(&world.homes[0].dev_id),
        vec![world.homes[1].user_id.clone()]
    );

    let shared_dev = world.homes[0].dev_id.clone();
    world
        .app_mut(1)
        .queue_control_device(shared_dev, ControlAction::TurnOn);
    world.run_for(10_000);
    assert!(
        world.device(0).is_on(),
        "the neighbour controls home 0's plug"
    );

    // Revocation closes the door again.
    let guest_account = world.homes[1].user_id.clone();
    world.app_mut(0).queue_share(guest_account, false);
    world.run_for(10_000);
    let shared_dev = world.homes[0].dev_id.clone();
    world
        .app_mut(1)
        .queue_control_device(shared_dev, ControlAction::TurnOff);
    world.run_for(10_000);
    assert!(
        world.device(0).is_on(),
        "revoked guest can no longer switch the plug"
    );
}

#[test]
fn stranger_cannot_control_without_a_grant() {
    let mut world = WorldBuilder::new(vendors::d_link(), 0x5A12)
        .homes(2)
        .build();
    world.run_setup();
    let foreign_dev = world.homes[0].dev_id.clone();
    world
        .app_mut(1)
        .queue_control_device(foreign_dev, ControlAction::TurnOn);
    world.run_for(10_000);
    assert!(!world.device(0).is_on());
    assert!(world.app(1).stats.denials >= 1, "the control was denied");
}

#[test]
fn wan_partition_during_control_state_then_recovery() {
    let mut world = WorldBuilder::new(vendors::belkin(), 0x9A97).build();
    world.run_setup();
    let device_node = world.homes[0].device;
    // Cut the home's uplink: heartbeats stop reaching the cloud.
    world.sim.partition_wan(device_node, true);
    world.run_for(80_000);
    assert_eq!(
        world.shadow_state(0),
        ShadowState::Bound,
        "offline but bound"
    );
    // Heal: the device's denied heartbeats push it to re-register.
    world.sim.partition_wan(device_node, false);
    world.run_for(80_000);
    assert_eq!(world.shadow_state(0), ShadowState::Control, "recovered");
    assert_eq!(
        world.cloud().bound_user(&world.homes[0].dev_id),
        Some(world.homes[0].user_id.clone()),
        "binding unchanged through the outage"
    );
}

#[test]
fn setup_survives_heavy_loss() {
    // 15% WAN loss, high jitter: the retry machinery must still converge.
    let mut world = WorldBuilder::new(vendors::d_link(), 0x70551)
        .link_quality(LinkQuality::lan(), LinkQuality::lossy(150))
        .build();
    assert!(
        world.try_run_setup(900_000),
        "setup converges under 15% loss"
    );
    assert_eq!(world.shadow_state(0), ShadowState::Control);
}

#[test]
fn control_is_idempotent_under_duplicate_queueing() {
    let mut world = WorldBuilder::new(vendors::d_link(), 0x1D3).build();
    world.run_setup();
    for _ in 0..5 {
        world.app_mut(0).queue_control(ControlAction::TurnOn);
    }
    world.run_for(30_000);
    assert!(world.device(0).is_on());
    assert!(
        world.device(0).stats.commands >= 5,
        "all five pushes applied"
    );
}

#[test]
fn phone_reboot_resumes_the_flow() {
    let mut world = WorldBuilder::new(vendors::lightstory(), 0xF0E).build();
    // Kill the phone mid-setup.
    world.run_for(1_500);
    let app_node = world.homes[0].app;
    world.sim.set_power(app_node, false);
    world.run_for(20_000);
    assert!(!world.app(0).is_bound());
    world.sim.set_power(app_node, true);
    world.run_setup();
    assert!(world.app(0).is_bound(), "flow resumed after reboot");
}

#[test]
fn sharing_with_a_ghost_account_fails_cleanly() {
    let mut world = WorldBuilder::new(vendors::d_link(), 0x640).build();
    world.run_setup();
    world
        .app_mut(0)
        .queue_share(UserId::new("nobody@void.example"), true);
    world.run_for(10_000);
    assert!(world.cloud().guests(&world.homes[0].dev_id).is_empty());
    assert!(world.app(0).stats.denials >= 1);
}

#[test]
fn airkiss_provisioning_end_to_end() {
    use rb_device::ProvisioningMode;
    let mut world = WorldBuilder::new(vendors::ozwi(), 0xA1715)
        .provisioning(ProvisioningMode::Airkiss)
        .build();
    world.run_setup();
    assert!(world.app(0).is_bound());
    assert_eq!(world.shadow_state(0), ShadowState::Control);
}

#[test]
fn device_executes_schedule_locally_while_cloud_is_down() {
    let mut world = WorldBuilder::new(vendors::d_link(), 0x5CED).build();
    world.run_setup();
    let fire_at = world.now().as_u64() + 30_000;
    world.app_mut(0).queue_control(ControlAction::SetSchedule(
        rb_wire::telemetry::ScheduleEntry {
            at_tick: fire_at,
            turn_on: true,
        },
    ));
    world.run_for(10_000);
    assert!(!world.device(0).is_on(), "not yet due");
    assert_eq!(world.device(0).schedule().len(), 1);
    // The home loses its uplink; the schedule must still fire on time.
    let device_node = world.homes[0].device;
    world.sim.partition_wan(device_node, true);
    world.run_for(40_000);
    assert!(
        world.device(0).is_on(),
        "schedule fired locally despite the outage"
    );
    assert!(world.device(0).schedule().is_empty(), "entry consumed");
}

#[test]
fn happy_paths_raise_no_security_alerts_for_any_vendor() {
    // The monitor's value depends on silence during legitimate operation:
    // full setup + control + telemetry on every design must produce zero
    // alerts.
    let mut designs = vendors::vendor_designs();
    designs.push(vendors::capability_reference());
    designs.push(vendors::public_key_reference());
    for (i, design) in designs.into_iter().enumerate() {
        let vendor = design.vendor.clone();
        let mut world = WorldBuilder::new(design, 0xFA15E + i as u64).build();
        world.run_setup();
        world.app_mut(0).queue_control(ControlAction::TurnOn);
        world.run_for(30_000);
        assert!(world.device(0).is_on(), "{vendor}");
        assert!(
            world.cloud().monitor().alert_log().is_empty(),
            "{vendor}: false positives: {:?}",
            world.cloud().monitor().alert_log()
        );
    }
}
