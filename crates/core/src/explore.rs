//! Exhaustive design-space exploration.
//!
//! The paper examines ten observed design points; this module pushes the
//! same systematic program to completion: enumerate *every* coherent
//! combination of authentication scheme, binding scheme, unbinding support,
//! cloud-side checks, setup order, and firmware knowledge, analyze each,
//! and derive population-level facts — which attacks are generic, which
//! defenses are load-bearing, and what the minimal secure designs look
//! like.

use std::collections::BTreeMap;

use crate::analyzer::analyze;
use crate::attacks::{AttackId, Feasibility};
use crate::design::{
    BindScheme, CloudChecks, DeviceAuthScheme, DeviceKind, FirmwareKnowledge, SetupOrder,
    UnbindSupport, VendorDesign,
};
use rb_wire::ids::IdScheme;

/// Enumerates every coherent design point.
///
/// Dimensions: 4 auth × 3 bind × 4 unbind × 2⁷ checks × 2 setup orders ×
/// 2 firmware states, minus the combinations [`VendorDesign::validate`]
/// rejects. The ID scheme is fixed (it does not affect the analyzer).
pub fn all_designs() -> Vec<VendorDesign> {
    let auths = [
        DeviceAuthScheme::DevToken,
        DeviceAuthScheme::DevId,
        DeviceAuthScheme::PublicKey,
        DeviceAuthScheme::Opaque,
    ];
    let binds = [
        BindScheme::AclApp,
        BindScheme::AclDevice,
        BindScheme::Capability,
    ];
    let unbinds = [
        UnbindSupport::none(),
        UnbindSupport::token_only(),
        UnbindSupport {
            dev_id_user_token: false,
            dev_id_only: true,
        },
        UnbindSupport::both(),
    ];
    let mut out = Vec::new();
    for auth in auths {
        for bind in binds {
            for unbind in unbinds {
                for check_bits in 0u8..128 {
                    let checks = CloudChecks {
                        verify_unbind_is_bound_user: check_bits & 1 != 0,
                        reject_bind_when_bound: check_bits & 2 != 0,
                        bind_requires_local_proof: check_bits & 4 != 0,
                        bind_requires_online_device: check_bits & 8 != 0,
                        post_binding_session: check_bits & 16 != 0,
                        register_resets_binding: check_bits & 32 != 0,
                        concurrent_device_sessions: check_bits & 64 != 0,
                    };
                    for setup_order in [SetupOrder::OnlineFirst, SetupOrder::BindFirst] {
                        for firmware in [FirmwareKnowledge::Known, FirmwareKnowledge::Opaque] {
                            let design = VendorDesign {
                                vendor: format!(
                                    "pt-{auth:?}-{bind:?}-{check_bits:03}-{setup_order:?}-{firmware:?}"
                                ),
                                device: DeviceKind::SmartPlug,
                                id_scheme: IdScheme::RandomUuid,
                                auth,
                                bind,
                                unbind,
                                checks,
                                setup_order,
                                firmware,
                            };
                            if design.validate().is_ok() {
                                out.push(design);
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Population-level statistics over the design space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpaceStats {
    /// Number of coherent designs analyzed.
    pub total: usize,
    /// Designs on which each attack is feasible.
    pub feasible_counts: BTreeMap<AttackId, usize>,
    /// Designs on which each attack is unconfirmable.
    pub unconfirmable_counts: BTreeMap<AttackId, usize>,
    /// Designs with no feasible attack at all.
    pub fully_secure: usize,
    /// Designs with no feasible **and no unconfirmable** verdict — provably
    /// secure under the model.
    pub provably_secure: usize,
}

/// Analyzes the entire space.
pub fn survey() -> SpaceStats {
    let designs = all_designs();
    let mut feasible_counts: BTreeMap<AttackId, usize> = BTreeMap::new();
    let mut unconfirmable_counts: BTreeMap<AttackId, usize> = BTreeMap::new();
    let mut fully_secure = 0;
    let mut provably_secure = 0;
    for design in &designs {
        let report = analyze(design);
        let mut any_feasible = false;
        let mut any_unconfirmed = false;
        for id in AttackId::ALL {
            match report.verdict(id) {
                Feasibility::Feasible => {
                    *feasible_counts.entry(id).or_default() += 1;
                    any_feasible = true;
                }
                Feasibility::Unconfirmable { .. } => {
                    *unconfirmable_counts.entry(id).or_default() += 1;
                    any_unconfirmed = true;
                }
                Feasibility::Infeasible { .. } => {}
            }
        }
        if !any_feasible {
            fully_secure += 1;
            if !any_unconfirmed {
                provably_secure += 1;
            }
        }
    }
    SpaceStats {
        total: designs.len(),
        feasible_counts,
        unconfirmable_counts,
        fully_secure,
        provably_secure,
    }
}

/// The global theorems the exploration verifies. Returns violations (empty
/// = all theorems hold over the whole space).
pub fn check_theorems() -> Vec<String> {
    let mut violations = Vec::new();
    for design in all_designs() {
        let report = analyze(&design);
        // T1: capability binding blocks every bind-forgery attack.
        if design.bind == BindScheme::Capability {
            for id in [AttackId::A2, AttackId::A3_3, AttackId::A4_1, AttackId::A4_2] {
                if report.feasible(id) {
                    violations.push(format!("{}: {id} feasible under capability", design.vendor));
                }
            }
        }
        // T2: post-binding sessions block all hijacks.
        if design.checks.post_binding_session {
            for id in [AttackId::A4_1, AttackId::A4_2, AttackId::A4_3] {
                if report.feasible(id) {
                    violations.push(format!("{}: {id} despite sessions", design.vendor));
                }
            }
        }
        // T3: static-ID auth with known firmware always admits status
        // forgery in one form: A1 when registrations are benign, A3-4 when
        // they reset.
        if design.auth == DeviceAuthScheme::DevId && design.firmware == FirmwareKnowledge::Known {
            let one_of = report.feasible(AttackId::A1) || report.feasible(AttackId::A3_4);
            if !one_of {
                violations.push(format!(
                    "{}: DevId+firmware admits neither A1 nor A3-4",
                    design.vendor
                ));
            }
        }
        // T4: a bare Unbind:DevId always admits A3-1.
        if design.unbind.dev_id_only && !report.feasible(AttackId::A3_1) {
            violations.push(format!(
                "{}: Unbind:DevId accepted but A3-1 blocked",
                design.vendor
            ));
        }
        // T5: DevToken auth never yields a feasible hijack — its session is
        // keyed to the user. (Public keys do NOT give this property: they
        // authenticate the device, not the binding.)
        if design.auth == DeviceAuthScheme::DevToken {
            for id in [AttackId::A4_1, AttackId::A4_2, AttackId::A4_3] {
                if report.feasible(id) {
                    violations.push(format!("{}: {id} under DevToken auth", design.vendor));
                }
            }
        }
    }
    violations
}

/// A minimal secure recipe: the weakest set of choices the survey finds
/// sufficient for zero feasible and zero unconfirmable attacks.
pub fn minimal_secure_design() -> VendorDesign {
    VendorDesign {
        vendor: "minimal-secure".into(),
        device: DeviceKind::SmartPlug,
        id_scheme: IdScheme::RandomUuid,
        auth: DeviceAuthScheme::DevToken,
        bind: BindScheme::Capability,
        unbind: UnbindSupport::token_only(),
        checks: CloudChecks {
            verify_unbind_is_bound_user: true,
            reject_bind_when_bound: true,
            bind_requires_local_proof: false,
            bind_requires_online_device: false,
            post_binding_session: false,
            register_resets_binding: false,
            concurrent_device_sessions: false,
        },
        setup_order: SetupOrder::OnlineFirst,
        firmware: FirmwareKnowledge::Known,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_is_large_and_coherent() {
        let designs = all_designs();
        assert!(designs.len() > 10_000, "got {}", designs.len());
        for d in designs.iter().take(500) {
            assert!(d.validate().is_ok());
        }
    }

    #[test]
    fn survey_counts_are_sane() {
        let stats = survey();
        assert_eq!(stats.total, all_designs().len());
        // Attacks exist somewhere in the space.
        for id in AttackId::ALL {
            assert!(
                stats.feasible_counts.get(&id).copied().unwrap_or(0) > 0,
                "{id} never feasible anywhere?"
            );
        }
        // And secure designs exist too.
        assert!(stats.provably_secure > 0);
        assert!(stats.fully_secure >= stats.provably_secure);
        assert!(stats.fully_secure < stats.total);
    }

    #[test]
    fn all_theorems_hold_over_the_space() {
        let violations = check_theorems();
        assert!(
            violations.is_empty(),
            "first violations: {:?}",
            &violations[..violations.len().min(5)]
        );
    }

    #[test]
    fn minimal_secure_design_is_clean() {
        let design = minimal_secure_design();
        design.validate().unwrap();
        let report = analyze(&design);
        for id in AttackId::ALL {
            assert!(
                matches!(report.verdict(id), Feasibility::Infeasible { .. }),
                "{id}: {:?}",
                report.verdict(id)
            );
        }
    }

    #[test]
    fn dropping_any_pillar_of_the_minimal_design_opens_an_attack() {
        // The minimal design is minimal: weaken each pillar and something
        // becomes feasible or unconfirmable.
        let base = minimal_secure_design();

        let mut weaker = base.clone();
        weaker.auth = DeviceAuthScheme::DevId;
        let report = analyze(&weaker);
        assert!(report.feasible(AttackId::A1), "static IDs reopen A1");

        let mut weaker = base.clone();
        weaker.bind = BindScheme::AclApp;
        let report = analyze(&weaker);
        assert!(report.feasible(AttackId::A2), "ACL binding reopens the DoS");

        let mut weaker = base.clone();
        weaker.checks.verify_unbind_is_bound_user = false;
        let report = analyze(&weaker);
        assert!(
            report.feasible(AttackId::A3_2),
            "unchecked unbind reopens A3-2"
        );
    }
}
