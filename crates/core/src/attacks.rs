//! The attack taxonomy of Table II.

use std::fmt;

use crate::shadow::{Primitive, ShadowState};

/// The attacks of the paper's taxonomy (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(non_camel_case_types)]
pub enum AttackId {
    /// A1: data injection and stealing via forged `Status:DevId`.
    A1,
    /// A2: binding denial-of-service via forged `Bind:(DevId,UserToken)`
    /// before the user binds.
    A2,
    /// A3-1: device unbinding via forged `Unbind:DevId`.
    A3_1,
    /// A3-2: device unbinding via forged `Unbind:(DevId,UserToken)` when
    /// the cloud skips the bound-user check.
    A3_2,
    /// A3-3: device unbinding via a replacing `Bind:(DevId,UserToken)`.
    A3_3,
    /// A3-4: device unbinding via forged `Status:DevId` (the cloud adopts
    /// the forged session / treats registration as reset).
    A3_4,
    /// A4-1: device hijacking via a replacing bind in the control state.
    A4_1,
    /// A4-2: device hijacking via binding first in the online-unbound setup
    /// window.
    A4_2,
    /// A4-3: device hijacking by unbinding (A3-1/A3-2) then binding.
    A4_3,
}

impl AttackId {
    /// All nine attacks, in Table II order.
    pub const ALL: [AttackId; 9] = [
        AttackId::A1,
        AttackId::A2,
        AttackId::A3_1,
        AttackId::A3_2,
        AttackId::A3_3,
        AttackId::A3_4,
        AttackId::A4_1,
        AttackId::A4_2,
        AttackId::A4_3,
    ];

    /// The attack family (A1–A4) this attack belongs to.
    pub fn family(self) -> AttackFamily {
        match self {
            AttackId::A1 => AttackFamily::A1,
            AttackId::A2 => AttackFamily::A2,
            AttackId::A3_1 | AttackId::A3_2 | AttackId::A3_3 | AttackId::A3_4 => AttackFamily::A3,
            AttackId::A4_1 | AttackId::A4_2 | AttackId::A4_3 => AttackFamily::A4,
        }
    }

    /// The primitive message(s) the attacker forges, in order.
    pub fn forged_primitives(self) -> &'static [Primitive] {
        match self {
            AttackId::A1 | AttackId::A3_4 => &[Primitive::Status],
            AttackId::A2 | AttackId::A3_3 | AttackId::A4_1 | AttackId::A4_2 => &[Primitive::Bind],
            AttackId::A3_1 | AttackId::A3_2 => &[Primitive::Unbind],
            AttackId::A4_3 => &[Primitive::Unbind, Primitive::Bind],
        }
    }

    /// The shadow states the attack targets (Table II column 4).
    pub fn targeted_states(self) -> &'static [ShadowState] {
        match self {
            AttackId::A1 => &[ShadowState::Control, ShadowState::Bound],
            AttackId::A2 => &[ShadowState::Initial],
            AttackId::A3_1 | AttackId::A3_2 | AttackId::A3_3 | AttackId::A3_4 => {
                &[ShadowState::Control]
            }
            AttackId::A4_1 => &[ShadowState::Control],
            AttackId::A4_2 => &[ShadowState::Online],
            AttackId::A4_3 => &[ShadowState::Control],
        }
    }

    /// The end state after a successful attack (Table II column 5), from
    /// the victim's perspective.
    pub fn end_state(self) -> ShadowState {
        match self {
            AttackId::A1 => ShadowState::Control,
            AttackId::A2 => ShadowState::Bound,
            AttackId::A3_1 | AttackId::A3_2 | AttackId::A3_3 | AttackId::A3_4 => {
                ShadowState::Online
            }
            AttackId::A4_1 | AttackId::A4_2 | AttackId::A4_3 => ShadowState::Control,
        }
    }

    /// The consequence column of Table II.
    pub fn consequence(self) -> &'static str {
        match self.family() {
            AttackFamily::A1 => {
                "The attacker can inject fake device data or steal private user data."
            }
            AttackFamily::A2 => {
                "The attacker can cause denial-of-service to the user's binding operation."
            }
            AttackFamily::A3 => "The attacker can disconnect the device with the user.",
            AttackFamily::A4 => "The attacker can take absolute control of the device.",
        }
    }

    /// The forged-message shape as printed in Table II.
    pub fn forged_message_str(self) -> &'static str {
        match self {
            AttackId::A1 | AttackId::A3_4 => "Status:DevId",
            AttackId::A2 | AttackId::A3_3 | AttackId::A4_1 | AttackId::A4_2 => {
                "Bind:(DevId,UserToken)"
            }
            AttackId::A3_1 => "Unbind:DevId",
            AttackId::A3_2 => "Unbind:(DevId,UserToken)",
            AttackId::A4_3 => "(1) Unbind:DevId or (DevId,UserToken)  (2) Bind:(DevId,UserToken)",
        }
    }
}

impl fmt::Display for AttackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AttackId::A1 => "A1",
            AttackId::A2 => "A2",
            AttackId::A3_1 => "A3-1",
            AttackId::A3_2 => "A3-2",
            AttackId::A3_3 => "A3-3",
            AttackId::A3_4 => "A3-4",
            AttackId::A4_1 => "A4-1",
            AttackId::A4_2 => "A4-2",
            AttackId::A4_3 => "A4-3",
        };
        f.write_str(s)
    }
}

/// The four attack families of Table II's first column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AttackFamily {
    /// Data injection and stealing.
    A1,
    /// Binding denial-of-service.
    A2,
    /// Device unbinding.
    A3,
    /// Device hijacking.
    A4,
}

impl AttackFamily {
    /// All four families.
    pub const ALL: [AttackFamily; 4] = [
        AttackFamily::A1,
        AttackFamily::A2,
        AttackFamily::A3,
        AttackFamily::A4,
    ];

    /// Human-readable name used in the paper's table.
    pub fn name(self) -> &'static str {
        match self {
            AttackFamily::A1 => "Data injection and stealing",
            AttackFamily::A2 => "Binding denial-of-service",
            AttackFamily::A3 => "Device unbinding",
            AttackFamily::A4 => "Device hijacking",
        }
    }

    /// The attack variants within this family.
    pub fn variants(self) -> Vec<AttackId> {
        AttackId::ALL
            .iter()
            .copied()
            .filter(|a| a.family() == self)
            .collect()
    }
}

impl fmt::Display for AttackFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AttackFamily::A1 => "A1",
            AttackFamily::A2 => "A2",
            AttackFamily::A3 => "A3",
            AttackFamily::A4 => "A4",
        };
        f.write_str(s)
    }
}

/// The verdict on one attack against one design — either predicted (static
/// analyzer) or observed (live campaign).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Feasibility {
    /// The attack succeeds.
    Feasible,
    /// The attack is blocked; the reason names the defeating design
    /// element.
    Infeasible {
        /// Which design element blocks it.
        blocked_by: String,
    },
    /// Cannot be determined without firmware access — the paper's "O".
    Unconfirmable {
        /// Why.
        reason: String,
    },
}

impl Feasibility {
    /// Convenience constructor for [`Feasibility::Infeasible`].
    pub fn blocked(by: impl Into<String>) -> Self {
        Feasibility::Infeasible {
            blocked_by: by.into(),
        }
    }

    /// Convenience constructor for [`Feasibility::Unconfirmable`].
    pub fn unconfirmable(reason: impl Into<String>) -> Self {
        Feasibility::Unconfirmable {
            reason: reason.into(),
        }
    }

    /// Whether the verdict is `Feasible`.
    pub fn is_feasible(&self) -> bool {
        matches!(self, Feasibility::Feasible)
    }

    /// The paper's table symbol: ✓, ✗, or O.
    pub fn symbol(&self) -> &'static str {
        match self {
            Feasibility::Feasible => "✓",
            Feasibility::Infeasible { .. } => "✗",
            Feasibility::Unconfirmable { .. } => "O",
        }
    }
}

impl fmt::Display for Feasibility {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Feasibility::Feasible => f.write_str("feasible"),
            Feasibility::Infeasible { blocked_by } => write!(f, "blocked by {blocked_by}"),
            Feasibility::Unconfirmable { reason } => write!(f, "unconfirmable ({reason})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_partition_the_attacks() {
        let mut count = 0;
        for fam in AttackFamily::ALL {
            count += fam.variants().len();
            for v in fam.variants() {
                assert_eq!(v.family(), fam);
            }
        }
        assert_eq!(count, AttackId::ALL.len());
        assert_eq!(AttackFamily::A3.variants().len(), 4);
        assert_eq!(AttackFamily::A4.variants().len(), 3);
    }

    #[test]
    fn table_ii_shapes() {
        assert_eq!(AttackId::A1.forged_message_str(), "Status:DevId");
        assert_eq!(
            AttackId::A3_2.forged_message_str(),
            "Unbind:(DevId,UserToken)"
        );
        assert_eq!(
            AttackId::A1.targeted_states(),
            &[ShadowState::Control, ShadowState::Bound]
        );
        assert_eq!(AttackId::A2.end_state(), ShadowState::Bound);
        assert_eq!(AttackId::A3_3.end_state(), ShadowState::Online);
        assert_eq!(AttackId::A4_2.targeted_states(), &[ShadowState::Online]);
        assert_eq!(
            AttackId::A4_3.forged_primitives(),
            &[Primitive::Unbind, Primitive::Bind]
        );
    }

    #[test]
    fn end_states_follow_the_machine_for_single_message_attacks() {
        // For every single-primitive attack, Table II's end state must be
        // what the state machine produces from the targeted state.
        for a in AttackId::ALL {
            let prims = a.forged_primitives();
            if prims.len() != 1 || a == AttackId::A3_4 || a == AttackId::A3_3 || a == AttackId::A1 {
                // A1 self-loops on Control; A3-3/A3-4 end states are
                // victim-perspective (binding replaced/reset) — checked in
                // the analyzer tests instead.
                continue;
            }
            for &s in a.targeted_states() {
                assert_eq!(s.apply(prims[0]), a.end_state(), "{a} from {s}");
            }
        }
    }

    #[test]
    fn display_strings() {
        assert_eq!(AttackId::A3_4.to_string(), "A3-4");
        assert_eq!(AttackFamily::A4.to_string(), "A4");
        assert_eq!(AttackFamily::A2.name(), "Binding denial-of-service");
    }

    #[test]
    fn feasibility_symbols() {
        assert_eq!(Feasibility::Feasible.symbol(), "✓");
        assert_eq!(Feasibility::blocked("x").symbol(), "✗");
        assert_eq!(Feasibility::unconfirmable("no firmware").symbol(), "O");
        assert!(Feasibility::Feasible.is_feasible());
        assert!(!Feasibility::blocked("x").is_feasible());
        assert!(Feasibility::blocked("the check")
            .to_string()
            .contains("the check"));
    }
}
