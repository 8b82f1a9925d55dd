//! The device-shadow state machine (paper Figure 2).
//!
//! The cloud tracks two bits per device: *online* (a status message arrived
//! recently) and *bound* (a binding exists). Their four combinations are
//! the shadow states; the three primitive messages plus heartbeat expiry
//! drive the transitions. The paper labels six transitions:
//!
//! * ① `Initial --Status--> Online` and ⑥ `Bound --Status--> Control`
//!   (device authentication);
//! * ② `Online --Bind--> Control` and ④ `Initial --Bind--> Bound`
//!   (binding creation);
//! * ③ `Control --Unbind--> Online` and ⑤ `Bound --Unbind--> Initial`
//!   (binding revocation).
//!
//! Offline transitions (heartbeat timeout / power-off) move
//! `Online -> Initial` and `Control -> Bound`.

use std::fmt;

/// A state of the device shadow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ShadowState {
    /// Offline and unbound — the factory/reset state.
    Initial,
    /// Online and unbound — authenticated to the cloud, not yet bound.
    Online,
    /// Online and bound — "the only state that allows the user to control
    /// the device".
    Control,
    /// Offline and bound — powered off / disconnected, binding retained;
    /// or bound before first coming online.
    Bound,
}

impl ShadowState {
    /// All four states, in the paper's presentation order.
    pub const ALL: [ShadowState; 4] = [
        ShadowState::Initial,
        ShadowState::Online,
        ShadowState::Control,
        ShadowState::Bound,
    ];

    /// Whether the device is online in this state.
    pub fn is_online(self) -> bool {
        matches!(self, ShadowState::Online | ShadowState::Control)
    }

    /// Whether the device is bound in this state.
    pub fn is_bound(self) -> bool {
        matches!(self, ShadowState::Control | ShadowState::Bound)
    }

    /// Reconstructs the state from its two status bits.
    pub fn from_flags(online: bool, bound: bool) -> Self {
        match (online, bound) {
            (false, false) => ShadowState::Initial,
            (true, false) => ShadowState::Online,
            (true, true) => ShadowState::Control,
            (false, true) => ShadowState::Bound,
        }
    }

    /// Applies a primitive, returning the successor state.
    ///
    /// This is the *pure* machine: it assumes the primitive was accepted.
    /// Whether a concrete cloud accepts it is policy (`rb-cloud`), and
    /// whether an attacker can forge it is the analyzer's question.
    pub fn apply(self, primitive: Primitive) -> ShadowState {
        match primitive {
            Primitive::Status => ShadowState::from_flags(true, self.is_bound()),
            Primitive::Offline => ShadowState::from_flags(false, self.is_bound()),
            Primitive::Bind => ShadowState::from_flags(self.is_online(), true),
            Primitive::Unbind => ShadowState::from_flags(self.is_online(), false),
        }
    }

    /// The paper's circled label for the transition `self --primitive-->`,
    /// if Figure 2 labels it (self-loops and offline edges are unlabeled).
    pub fn transition_label(self, primitive: Primitive) -> Option<u8> {
        match (self, primitive) {
            (ShadowState::Initial, Primitive::Status) => Some(1),
            (ShadowState::Online, Primitive::Bind) => Some(2),
            (ShadowState::Control, Primitive::Unbind) => Some(3),
            (ShadowState::Initial, Primitive::Bind) => Some(4),
            (ShadowState::Bound, Primitive::Unbind) => Some(5),
            (ShadowState::Bound, Primitive::Status) => Some(6),
            _ => None,
        }
    }
}

impl fmt::Display for ShadowState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ShadowState::Initial => "initial",
            ShadowState::Online => "online",
            ShadowState::Control => "control",
            ShadowState::Bound => "bound",
        };
        f.write_str(name)
    }
}

/// The primitive inputs of the state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Primitive {
    /// A status (registration/heartbeat) message was accepted.
    Status,
    /// A binding was created (or replaced).
    Bind,
    /// A binding was revoked.
    Unbind,
    /// Heartbeats stopped: the cloud marks the device offline. Not a wire
    /// message, but a first-class input of the model.
    Offline,
}

impl Primitive {
    /// The three wire primitives plus the offline timeout.
    pub const ALL: [Primitive; 4] = [
        Primitive::Status,
        Primitive::Bind,
        Primitive::Unbind,
        Primitive::Offline,
    ];

    /// The wire primitives only (what can be *forged*).
    pub const FORGEABLE: [Primitive; 3] = [Primitive::Status, Primitive::Bind, Primitive::Unbind];
}

impl fmt::Display for Primitive {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Primitive::Status => "Status",
            Primitive::Bind => "Bind",
            Primitive::Unbind => "Unbind",
            Primitive::Offline => "Offline",
        };
        f.write_str(name)
    }
}

/// A tracked shadow: the state plus bookkeeping the model layer exposes to
/// the cloud implementation (who is bound, when the last status arrived).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shadow<U> {
    state: ShadowState,
    bound_user: Option<U>,
    last_status_at: Option<u64>,
}

impl<U: Clone + PartialEq> Shadow<U> {
    /// A shadow in the initial state.
    pub fn new() -> Self {
        Shadow {
            state: ShadowState::Initial,
            bound_user: None,
            last_status_at: None,
        }
    }

    /// Current state.
    pub fn state(&self) -> ShadowState {
        self.state
    }

    /// The bound user, if any.
    pub fn bound_user(&self) -> Option<&U> {
        self.bound_user.as_ref()
    }

    /// Time of the last accepted status message.
    pub fn last_status_at(&self) -> Option<u64> {
        self.last_status_at
    }

    /// Records an accepted status message at time `now`.
    pub fn on_status(&mut self, now: u64) {
        self.last_status_at = Some(now);
        self.state = self.state.apply(Primitive::Status);
    }

    /// Records an accepted binding for `user`, returning the displaced
    /// user when the binding replaced an existing one.
    pub fn on_bind(&mut self, user: U) -> Option<U> {
        let prev = self.bound_user.take();
        self.bound_user = Some(user);
        self.state = self.state.apply(Primitive::Bind);
        prev.filter(|p| Some(p) != self.bound_user.as_ref())
    }

    /// Records an accepted unbinding, returning the user whose binding was
    /// revoked.
    pub fn on_unbind(&mut self) -> Option<U> {
        self.state = self.state.apply(Primitive::Unbind);
        self.bound_user.take()
    }

    /// Marks the device offline if its last status is older than
    /// `timeout` at time `now`. Returns `true` if the state changed.
    pub fn expire(&mut self, now: u64, timeout: u64) -> bool {
        if !self.state.is_online() {
            return false;
        }
        let expired = match self.last_status_at {
            Some(t) => now.saturating_sub(t) > timeout,
            None => true,
        };
        if expired {
            self.state = self.state.apply(Primitive::Offline);
        }
        expired
    }

    /// Forces the offline transition (e.g. the cloud observed the
    /// connection close).
    pub fn force_offline(&mut self) {
        self.state = self.state.apply(Primitive::Offline);
    }
}

impl<U: Clone + PartialEq> Default for Shadow<U> {
    fn default() -> Self {
        Shadow::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_and_states_are_a_bijection() {
        for s in ShadowState::ALL {
            assert_eq!(ShadowState::from_flags(s.is_online(), s.is_bound()), s);
        }
    }

    #[test]
    fn the_six_labeled_transitions_of_figure_2() {
        use Primitive::*;
        use ShadowState::*;
        // ① and ⑥: device authentication.
        assert_eq!(Initial.apply(Status), Online);
        assert_eq!(Bound.apply(Status), Control);
        // ② and ④: binding creation.
        assert_eq!(Online.apply(Bind), Control);
        assert_eq!(Initial.apply(Bind), Bound);
        // ③ and ⑤: binding revocation.
        assert_eq!(Control.apply(Unbind), Online);
        assert_eq!(Bound.apply(Unbind), Initial);
    }

    #[test]
    fn transition_labels_match_the_figure() {
        use Primitive::*;
        use ShadowState::*;
        assert_eq!(Initial.transition_label(Status), Some(1));
        assert_eq!(Online.transition_label(Bind), Some(2));
        assert_eq!(Control.transition_label(Unbind), Some(3));
        assert_eq!(Initial.transition_label(Bind), Some(4));
        assert_eq!(Bound.transition_label(Unbind), Some(5));
        assert_eq!(Bound.transition_label(Status), Some(6));
        // Unlabeled edges.
        assert_eq!(Online.transition_label(Status), None);
        assert_eq!(Control.transition_label(Offline), None);
    }

    #[test]
    fn offline_transitions() {
        use Primitive::*;
        use ShadowState::*;
        assert_eq!(Online.apply(Offline), Initial);
        assert_eq!(Control.apply(Offline), Bound);
        assert_eq!(Initial.apply(Offline), Initial);
        assert_eq!(Bound.apply(Offline), Bound);
    }

    #[test]
    fn self_loops() {
        use Primitive::*;
        use ShadowState::*;
        assert_eq!(Online.apply(Status), Online, "heartbeat keeps online");
        assert_eq!(Control.apply(Status), Control);
        assert_eq!(Control.apply(Bind), Control, "re-bind keeps control");
        assert_eq!(Bound.apply(Bind), Bound);
        assert_eq!(Initial.apply(Unbind), Initial);
        assert_eq!(Online.apply(Unbind), Online);
    }

    #[test]
    fn both_paths_to_control_exist() {
        use Primitive::*;
        use ShadowState::*;
        // "a binding can be created before the device authentication
        // (initial → bound → control) or after (initial → online → control)"
        assert_eq!(Initial.apply(Bind).apply(Status), Control);
        assert_eq!(Initial.apply(Status).apply(Bind), Control);
    }

    #[test]
    fn machine_is_total_and_closed() {
        for s in ShadowState::ALL {
            for p in Primitive::ALL {
                let next = s.apply(p);
                assert!(ShadowState::ALL.contains(&next));
            }
        }
    }

    #[test]
    fn shadow_tracks_bound_user_through_lifecycle() {
        let mut sh: Shadow<&str> = Shadow::new();
        assert_eq!(sh.state(), ShadowState::Initial);
        sh.on_status(10);
        assert_eq!(sh.state(), ShadowState::Online);
        assert_eq!(sh.on_bind("alice"), None);
        assert_eq!(sh.state(), ShadowState::Control);
        assert_eq!(sh.bound_user(), Some(&"alice"));
        // Replacement returns the displaced user.
        assert_eq!(sh.on_bind("mallory"), Some("alice"));
        assert_eq!(sh.bound_user(), Some(&"mallory"));
        // Re-binding the same user reports no displacement.
        assert_eq!(sh.on_bind("mallory"), None);
        assert_eq!(sh.on_unbind(), Some("mallory"));
        assert_eq!(sh.state(), ShadowState::Online);
        assert_eq!(sh.bound_user(), None);
    }

    #[test]
    fn heartbeat_expiry() {
        let mut sh: Shadow<u32> = Shadow::new();
        sh.on_status(100);
        sh.on_bind(1);
        assert_eq!(sh.state(), ShadowState::Control);
        assert!(!sh.expire(130, 50), "not yet expired");
        assert_eq!(sh.state(), ShadowState::Control);
        assert!(sh.expire(151, 50), "expired");
        assert_eq!(
            sh.state(),
            ShadowState::Bound,
            "binding survives going offline"
        );
        assert!(!sh.expire(500, 50), "already offline");
    }

    #[test]
    fn force_offline() {
        let mut sh: Shadow<u32> = Shadow::new();
        sh.on_status(1);
        sh.force_offline();
        assert_eq!(sh.state(), ShadowState::Initial);
    }

    #[test]
    fn display_names() {
        assert_eq!(ShadowState::Control.to_string(), "control");
        assert_eq!(Primitive::Unbind.to_string(), "Unbind");
    }
}
