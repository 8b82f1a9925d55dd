//! The product machine: the concrete protocol semantics rb-mc explores.
//!
//! [`rb_core::spec`] checks an *abstract* machine in which the user is an
//! oracle who can perform any honest action at any time. That is sound for
//! the three safety properties it decides, but its witnesses are not always
//! *schedules*: a spec trace may ask the user to "bind" on a design whose
//! binding message is sent by the device itself, which no sequence of live
//! events reproduces without also registering the device.
//!
//! This module refines the abstraction until every transition corresponds
//! to something the simulator can actually do, so every counterexample the
//! checker extracts replays as a concrete packet schedule (see
//! [`crate::replay`]):
//!
//! * **Device-channel binds ride registration.** For
//!   [`BindScheme::AclDevice`] and [`BindScheme::Capability`] designs the
//!   live device attempts its bind right after a fresh registration, using
//!   material the physically-present user loaded during configuration. The
//!   model folds that into [`McAct::DevRegister`]; a separate
//!   [`McAct::UserBind`] exists only for app-channel designs.
//! * **Honest unbinding has two realizable channels.** The token channel
//!   needs `Unbind:(DevId,UserToken)` to exist and the cloud to accept the
//!   requester (the bound user always passes the ownership check; anyone
//!   passes when the check is absent). The reset channel needs bare
//!   `Unbind:DevId` to exist — the message a factory reset emits, which
//!   the home can reproduce without wiping the device.
//! * **Session staleness is tracked.** The [`PState::atk_stale`] bit
//!   records that the attacker still holds a session token minted under a
//!   binding epoch that has since been revoked or replaced, which is what
//!   the NO-STALE-ACCEPT invariant quantifies over.
//!
//! The adversarial actions are exactly the spec's: their guards encode
//! what a WAN attacker holding the device ID (and, where firmware is
//! known, the message formats) can forge.

use rb_core::design::{BindScheme, VendorDesign};
use rb_core::spec::{self, AbsState, DeviceSrc, Party};
use std::fmt;

/// A state of the product machine: the spec's abstract cloud state plus
/// the session-staleness bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PState {
    /// Who currently speaks as the device at the cloud.
    pub src: DeviceSrc,
    /// Who holds the binding.
    pub bound: Option<Party>,
    /// Whose bind minted the current binding-session token (post-binding
    /// designs only).
    pub binding_session: Option<Party>,
    /// Whose mint the *real device* currently presents (the token travels
    /// only over the LAN, so only the user can refresh it).
    pub device_token: Option<Party>,
    /// The attacker retains a session token minted under a binding epoch
    /// that was later revoked or replaced.
    pub atk_stale: bool,
}

impl PState {
    /// The factory state: device unconfigured, nothing bound.
    pub fn initial() -> Self {
        PState {
            src: DeviceSrc::None,
            bound: None,
            binding_session: None,
            device_token: None,
            atk_stale: false,
        }
    }

    /// Projects away the staleness bit, giving the spec's abstract state.
    pub fn abs(self) -> AbsState {
        AbsState {
            src: self.src,
            bound: self.bound,
            binding_session: self.binding_session,
            device_token: self.device_token,
        }
    }

    /// Packs the state into a dense key in `0..KEY_SPACE`.
    pub fn key(self) -> u16 {
        fn party(p: Option<Party>) -> u16 {
            match p {
                None => 0,
                Some(Party::User) => 1,
                Some(Party::Attacker) => 2,
            }
        }
        let src = match self.src {
            DeviceSrc::None => 0u16,
            DeviceSrc::Real => 1,
            DeviceSrc::Forged => 2,
            DeviceSrc::Both => 3,
        };
        src | party(self.bound) << 2
            | party(self.binding_session) << 4
            | party(self.device_token) << 6
            | u16::from(self.atk_stale) << 8
    }

    /// Inverts [`PState::key`]; returns `None` for keys that use a spare
    /// encoding (the party fields pack three values into two bits).
    pub fn from_key(key: u16) -> Option<Self> {
        fn party(bits: u16) -> Option<Option<Party>> {
            match bits {
                0 => Some(None),
                1 => Some(Some(Party::User)),
                2 => Some(Some(Party::Attacker)),
                _ => None,
            }
        }
        let src = match key & 0b11 {
            0 => DeviceSrc::None,
            1 => DeviceSrc::Real,
            2 => DeviceSrc::Forged,
            _ => DeviceSrc::Both,
        };
        Some(PState {
            src,
            bound: party(key >> 2 & 0b11)?,
            binding_session: party(key >> 4 & 0b11)?,
            device_token: party(key >> 6 & 0b11)?,
            atk_stale: key >> 8 & 1 == 1,
        })
    }
}

/// The number of packed-state keys ([`PState::key`] is 9 bits wide).
pub const KEY_SPACE: usize = 512;

/// The actions of the product machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum McAct {
    /// The physically-present user configures the device (loading Wi-Fi
    /// credentials, tokens, or account material as the design requires)
    /// and powers it on; the device registers. On device-channel designs
    /// the device then immediately attempts the user's bind.
    DevRegister,
    /// The device drops offline and its cloud session expires.
    DevOffline,
    /// The user completes an app-channel bind (`BindScheme::AclApp` only;
    /// device-channel binds ride [`McAct::DevRegister`]).
    UserBind,
    /// The user revokes the current binding through a realizable honest
    /// channel (token unbind or the reset channel's bare unbind).
    UserUnbind,
    /// The attacker forges a device registration (`Status`).
    AtkRegister,
    /// The attacker forges a binding.
    AtkBind,
    /// The attacker forges `Unbind:(DevId,UserToken)` with their own
    /// token.
    AtkUnbindToken,
    /// The attacker forges bare `Unbind:DevId`.
    AtkUnbindBare,
}

impl McAct {
    /// All actions, in the exploration order (this order makes witness
    /// traces deterministic).
    pub const ALL: [McAct; 8] = [
        McAct::DevRegister,
        McAct::DevOffline,
        McAct::UserBind,
        McAct::UserUnbind,
        McAct::AtkRegister,
        McAct::AtkBind,
        McAct::AtkUnbindToken,
        McAct::AtkUnbindBare,
    ];

    /// The honest actions — what the user and their device can do without
    /// the attacker's cooperation. Liveness is checked under fairness of
    /// exactly these.
    pub const HONEST: [McAct; 4] = [
        McAct::DevRegister,
        McAct::DevOffline,
        McAct::UserBind,
        McAct::UserUnbind,
    ];

    /// Whether the action is adversarial.
    pub fn is_adversarial(self) -> bool {
        matches!(
            self,
            McAct::AtkRegister | McAct::AtkBind | McAct::AtkUnbindToken | McAct::AtkUnbindBare
        )
    }

    /// The corresponding abstract action of the bounded checker.
    pub fn spec_act(self) -> spec::Act {
        match self {
            McAct::DevRegister => spec::Act::DevRegister,
            McAct::DevOffline => spec::Act::DevOffline,
            McAct::UserBind => spec::Act::UserBind,
            McAct::UserUnbind => spec::Act::UserUnbind,
            McAct::AtkRegister => spec::Act::AtkRegister,
            McAct::AtkBind => spec::Act::AtkBind,
            McAct::AtkUnbindToken => spec::Act::AtkUnbindToken,
            McAct::AtkUnbindBare => spec::Act::AtkUnbindBare,
        }
    }
}

impl fmt::Display for McAct {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            McAct::DevRegister => "dev-register",
            McAct::DevOffline => "dev-offline",
            McAct::UserBind => "user-bind",
            McAct::UserUnbind => "user-unbind",
            McAct::AtkRegister => "atk-register",
            McAct::AtkBind => "atk-bind",
            McAct::AtkUnbindToken => "atk-unbind-token",
            McAct::AtkUnbindBare => "atk-unbind-bare",
        };
        f.write_str(s)
    }
}

/// Clears the binding, recording that an attacker-minted session token
/// (if one was current) is now stale.
fn clear_binding(n: &mut PState) {
    if n.binding_session == Some(Party::Attacker) {
        n.atk_stale = true;
    }
    n.bound = None;
    n.binding_session = None;
}

/// Installs the user's binding (the design's post-binding session flows to
/// both the table and the device: for app binds the app delivers the token
/// over the LAN, for device binds the `Bound` reply carries it).
fn bind_user(design: &VendorDesign, n: &mut PState) {
    if design.checks.post_binding_session {
        if n.binding_session == Some(Party::Attacker) {
            n.atk_stale = true;
        }
        n.binding_session = Some(Party::User);
        n.device_token = Some(Party::User);
    }
    n.bound = Some(Party::User);
}

/// Applies `act` in `s` under `design`; `None` when the cloud rejects the
/// message, the actor cannot construct it, or the action is a no-op.
pub fn step(design: &VendorDesign, s: PState, act: McAct) -> Option<PState> {
    let mut n = s;
    match act {
        McAct::DevRegister => {
            if design.checks.register_resets_binding && s.bound.is_some() {
                clear_binding(&mut n);
            }
            n.src = match s.src {
                DeviceSrc::Forged | DeviceSrc::Both if design.checks.concurrent_device_sessions => {
                    DeviceSrc::Both
                }
                _ => DeviceSrc::Real,
            };
            // Device-channel binds happen right here: the freshly
            // registered device submits the bind material its user loaded
            // (account credentials or a bind token). The cloud applies the
            // same guards it would to any bind; a sticky cloud silently
            // denies while the attacker holds the binding.
            if matches!(design.bind, BindScheme::AclDevice | BindScheme::Capability) {
                let sticky_denied = design.checks.reject_bind_when_bound
                    && n.bound.is_some()
                    && n.bound != Some(Party::User);
                if !sticky_denied {
                    bind_user(design, &mut n);
                }
            }
            Some(n)
        }
        McAct::DevOffline => {
            n.src = match s.src {
                DeviceSrc::Real => DeviceSrc::None,
                DeviceSrc::Both => DeviceSrc::Forged,
                other => other,
            };
            (n != s).then_some(n)
        }
        McAct::UserBind => {
            // Only app-channel designs have a user-initiated bind; on the
            // others the device performs it at registration.
            if design.bind != BindScheme::AclApp {
                return None;
            }
            if design.checks.bind_requires_online_device && !s.src.online() {
                return None;
            }
            // The local proof needs the real device to report the button
            // press, so its session must be live.
            if design.checks.bind_requires_local_proof && !s.src.includes_real() {
                return None;
            }
            if design.checks.reject_bind_when_bound && s.bound == Some(Party::Attacker) {
                return None;
            }
            bind_user(design, &mut n);
            Some(n)
        }
        McAct::UserUnbind => {
            s.bound?;
            let token_channel = design.unbind.dev_id_user_token
                && (s.bound == Some(Party::User) || !design.checks.verify_unbind_is_bound_user);
            let reset_channel = design.unbind.dev_id_only;
            if !token_channel && !reset_channel {
                return None;
            }
            clear_binding(&mut n);
            Some(n)
        }
        McAct::AtkRegister => {
            if !design.status_forgeable() {
                return None;
            }
            if design.checks.register_resets_binding && s.bound.is_some() {
                clear_binding(&mut n);
            }
            n.src = match s.src {
                DeviceSrc::Real | DeviceSrc::Both if design.checks.concurrent_device_sessions => {
                    DeviceSrc::Both
                }
                _ => DeviceSrc::Forged,
            };
            Some(n)
        }
        McAct::AtkBind => {
            if !design.bind_forgeable() {
                return None;
            }
            if design.checks.bind_requires_online_device && !s.src.online() {
                return None;
            }
            if design.checks.reject_bind_when_bound && s.bound == Some(Party::User) {
                return None;
            }
            if design.checks.post_binding_session {
                if s.binding_session == Some(Party::Attacker) {
                    // The previous attacker mint is superseded by this one.
                    n.atk_stale = true;
                }
                n.binding_session = Some(Party::Attacker);
                // The attacker cannot make the LAN hop: the real device
                // keeps whatever token it had.
            }
            n.bound = Some(Party::Attacker);
            Some(n)
        }
        McAct::AtkUnbindToken => {
            if !design.unbind.dev_id_user_token
                || design.checks.verify_unbind_is_bound_user
                || s.bound.is_none()
            {
                return None;
            }
            clear_binding(&mut n);
            Some(n)
        }
        McAct::AtkUnbindBare => {
            if !design.unbind.dev_id_only || s.bound.is_none() {
                return None;
            }
            clear_binding(&mut n);
            Some(n)
        }
    }
}

/// Whether the attacker's control commands are relayed to the real device
/// in state `s` — the paper's "absolute control". Identical to the spec's
/// predicate, lifted to the product state.
pub fn attacker_controls(design: &VendorDesign, s: PState) -> bool {
    spec::attacker_controls(design, s.abs())
}

/// Whether the cloud would accept a control request authorized by the
/// *stale* session mint the attacker retains (NO-STALE-ACCEPT).
///
/// `atk_stale` marks a mint from a superseded binding epoch. The cloud
/// accepts a session token iff it compares equal to the **current**
/// binding's mint, and every rebind draws fresh entropy, so a superseded
/// mint never compares equal — no knob in the design space disables the
/// comparison. The checker still sweeps every reachable state through this
/// predicate so the invariant is *verified* rather than assumed: it lights
/// up immediately if a `reuse_binding_session`-style behaviour is ever
/// added to [`rb_core::design::CloudChecks`].
pub fn stale_session_accepted(design: &VendorDesign, s: PState) -> bool {
    let holds_stale_mint = design.checks.post_binding_session && s.atk_stale;
    holds_stale_mint && mint_comparison_skipped(design)
}

/// Whether the design skips the mint-equality comparison on session-bearing
/// requests. No current design knob does; this is the single place to
/// update if one is introduced.
fn mint_comparison_skipped(_design: &VendorDesign) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_core::vendors::*;

    #[test]
    fn keys_round_trip_every_state() {
        let mut seen = 0usize;
        for key in 0..KEY_SPACE as u16 {
            let Some(s) = PState::from_key(key) else {
                continue;
            };
            assert_eq!(s.key(), key);
            seen += 1;
        }
        // 4 src x 3 bound x 3 session x 3 token x 2 stale.
        assert_eq!(seen, 4 * 3 * 3 * 3 * 2);
    }

    #[test]
    fn device_channel_binds_ride_registration() {
        let d = tp_link(); // AclDevice
        let s = step(&d, PState::initial(), McAct::DevRegister).expect("registers");
        assert_eq!(s.src, DeviceSrc::Real);
        assert_eq!(s.bound, Some(Party::User), "the device bound its user");
        assert_eq!(
            step(&d, PState::initial(), McAct::UserBind),
            None,
            "no separate app bind on a device-channel design"
        );
    }

    #[test]
    fn sticky_cloud_denies_the_device_bind_while_attacker_holds() {
        let mut d = tp_link();
        d.checks.reject_bind_when_bound = true;
        // TP-LINK treats a fresh registration as a factory reset; disable
        // that so the binding survives into the sticky check.
        d.checks.register_resets_binding = false;
        let hijacked = PState {
            src: DeviceSrc::Real,
            bound: Some(Party::Attacker),
            ..PState::initial()
        };
        let s = step(&d, hijacked, McAct::DevRegister).expect("registration itself succeeds");
        assert_eq!(s.bound, Some(Party::Attacker), "the bind inside was denied");
    }

    #[test]
    fn honest_unbind_uses_only_realizable_channels() {
        // Token channel with the ownership check: the user can clear their
        // own binding but not the attacker's.
        let mut d = belkin();
        d.checks.verify_unbind_is_bound_user = true;
        let own = PState {
            bound: Some(Party::User),
            ..PState::initial()
        };
        assert!(step(&d, own, McAct::UserUnbind).is_some());
        let hijacked = PState {
            bound: Some(Party::Attacker),
            ..PState::initial()
        };
        assert_eq!(step(&d, hijacked, McAct::UserUnbind), None);

        // The reset channel clears anything: bare Unbind:DevId.
        let tp = tp_link();
        assert!(step(&tp, hijacked, McAct::UserUnbind).is_some());
    }

    #[test]
    fn revoking_an_attacker_session_marks_it_stale() {
        let d = konke(); // post-binding sessions, replace semantics
        let s = PState {
            src: DeviceSrc::Real,
            ..PState::initial()
        };
        let s = step(&d, s, McAct::AtkBind).expect("forgeable");
        assert_eq!(s.binding_session, Some(Party::Attacker));
        assert!(!s.atk_stale);
        let s = step(&d, s, McAct::UserBind).expect("replacement");
        assert!(s.atk_stale, "the attacker's mint is now stale");
        assert_eq!(s.binding_session, Some(Party::User));
        assert!(
            !stale_session_accepted(&d, s),
            "a superseded mint never compares equal to the current one"
        );
    }

    #[test]
    fn product_steps_refine_the_spec() {
        // Every product transition projects to a spec-reachable effect:
        // the same state change is produced by one or two spec acts.
        use rb_core::explore::all_designs;
        for design in all_designs().into_iter().step_by(97) {
            for key in 0..KEY_SPACE as u16 {
                let Some(s) = PState::from_key(key) else {
                    continue;
                };
                for act in McAct::ALL {
                    let Some(n) = step(&design, s, act) else {
                        continue;
                    };
                    let via_spec = match act {
                        // Registration may compose with the device bind.
                        McAct::DevRegister => {
                            let r = spec::step(&design, s.abs(), spec::Act::DevRegister)
                                .unwrap_or(s.abs());
                            r == n.abs()
                                || spec::step(&design, r, spec::Act::UserBind) == Some(n.abs())
                        }
                        // The honest reset channel reuses the bare-unbind
                        // effect the spec models adversarially.
                        McAct::UserUnbind => {
                            spec::step(&design, s.abs(), spec::Act::UserUnbind) == Some(n.abs())
                                || spec::step(&design, s.abs(), spec::Act::AtkUnbindBare)
                                    == Some(n.abs())
                                || spec::step(&design, s.abs(), spec::Act::AtkUnbindToken)
                                    == Some(n.abs())
                        }
                        // Deliberate divergence: the live cloud's online
                        // guard counts forged sessions too, so the product
                        // machine enables the app bind wherever *any*
                        // session is live; the spec's user oracle insists
                        // on the real device. Verify the effect by running
                        // the spec step with the source upgraded.
                        McAct::UserBind => {
                            spec::step(&design, s.abs(), spec::Act::UserBind) == Some(n.abs())
                                || spec::step(
                                    &design,
                                    AbsState {
                                        src: DeviceSrc::Real,
                                        ..s.abs()
                                    },
                                    spec::Act::UserBind,
                                )
                                .map(|r| AbsState { src: s.src, ..r })
                                    == Some(n.abs())
                        }
                        other => spec::step(&design, s.abs(), other.spec_act()) == Some(n.abs()),
                    };
                    assert!(
                        via_spec,
                        "{}: {act} from {s:?} not a spec effect",
                        design.vendor
                    );
                }
            }
        }
    }
}
