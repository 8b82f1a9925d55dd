//! The attacker's account and the design-shaped forgeries every attack
//! harness sends from it.
//!
//! The world builder provisions the attacker's account (attackers can
//! always sign up for their own), and the executors, the monitor scenario
//! and the counterexample replayer all forge binds and unbinds in the one
//! shape the victim's design accepts. Both live here, once.

use rb_core::design::{BindScheme, VendorDesign};
use rb_wire::ids::DevId;
use rb_wire::messages::{BindPayload, Message, UnbindPayload};
use rb_wire::tokens::{UserId, UserPw, UserToken};

/// The attacker's account identifier.
pub const ATTACKER_ID: &str = "attacker@evil.example";
/// The attacker's password.
pub const ATTACKER_PW: &str = "attacker-pw";

/// The attacker's login request.
pub fn attacker_login() -> Message {
    Message::Login {
        user_id: UserId::new(ATTACKER_ID),
        user_pw: UserPw::new(ATTACKER_PW),
    }
}

/// The bind the attacker forges for `dev_id` in the shape `design`
/// accepts: the app's `(DevId, UserToken)` with the attacker's own token,
/// or the device's `(DevId, UserId, UserPw)` with the attacker's own
/// credentials. `None` for capability binds — the `BindToken` never
/// leaves the victim's LAN.
pub fn forged_bind(
    design: &VendorDesign,
    dev_id: &DevId,
    user_token: UserToken,
) -> Option<BindPayload> {
    let dev_id = dev_id.clone();
    match design.bind {
        BindScheme::AclApp => Some(BindPayload::AclApp { dev_id, user_token }),
        BindScheme::AclDevice => Some(BindPayload::AclDevice {
            dev_id,
            user_id: UserId::new(ATTACKER_ID),
            user_pw: UserPw::new(ATTACKER_PW),
        }),
        BindScheme::Capability => None,
    }
}

/// The unbind the attacker forges for `dev_id`: the bare
/// `Unbind:DevId` where `design` accepts it, else `(DevId, UserToken)`
/// with the attacker's own token.
pub fn forged_unbind(
    design: &VendorDesign,
    dev_id: &DevId,
    user_token: UserToken,
) -> UnbindPayload {
    let dev_id = dev_id.clone();
    if design.unbind.dev_id_only {
        UnbindPayload::DevIdOnly { dev_id }
    } else {
        UnbindPayload::DevIdUserToken { dev_id, user_token }
    }
}
