//! The cloud service: message handlers parameterized by a vendor design.
//!
//! Every accept/deny branch here corresponds to a design element of
//! [`VendorDesign`]; the static analyzer in `rb-core` reasons about those
//! elements symbolically, and this module *executes* them, so the Table III
//! experiment can cross-check prediction against execution.

use std::borrow::Cow;
use std::collections::HashMap;

use rb_core::design::{BindScheme, CloudChecks, DeviceAuthScheme, UnbindSupport, VendorDesign};
use rb_core::shadow::ShadowState;
use rb_netsim::{Actor, Ctx, Dest, NodeId, Profiler, SimRng, Telemetry, Tick};
use rb_wire::codec::CodecKind;
use rb_wire::envelope::Envelope;
use rb_wire::ids::DevId;
use rb_wire::messages::{
    AutomationRule, BindPayload, ControlAction, DenyReason, Message, Response, StatusAuth,
    StatusKind, StatusPayload, UnbindPayload,
};
use rb_wire::tokens::{SessionToken, UserId, UserPw, UserToken};

use crate::accounts::AccountStore;
use crate::audit::{AuditEntry, AuditLog, AuditOutcome};
use crate::issued::{BindTokenLedger, DevTokenLedger};
use crate::monitor::{DefensePolicy, Monitor, SecurityAlert};
use crate::registry::{DeviceRecord, DeviceRegistry};
use crate::state::DeviceState;

/// Per-source request rate limiting — the defense that prices remote ID
/// enumeration out of the §I "within an hour" regime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimit {
    /// Window length in ticks.
    pub window: u64,
    /// Maximum requests per source node per window.
    pub max: u32,
}

/// The `Copy` control-flow knobs of a [`VendorDesign`], snapshotted per
/// request. Handlers used to clone the whole design (including its heap
/// `String` vendor name) on every message; this copies four plain enums
/// and bit-structs instead while keeping the `design.checks.…` call sites
/// unchanged.
#[derive(Debug, Clone, Copy)]
struct DesignKnobs {
    checks: CloudChecks,
    bind: BindScheme,
    auth: DeviceAuthScheme,
    unbind: UnbindSupport,
}

/// Cloud configuration.
#[derive(Debug, Clone)]
pub struct CloudConfig {
    /// The vendor design that parameterizes every handler.
    pub design: VendorDesign,
    /// Ticks without a status message before a device is considered
    /// offline.
    pub heartbeat_timeout: u64,
    /// Window (ticks) within which a reported button press counts as a
    /// local-presence proof (Philips Hue: 30 seconds).
    pub button_window: u64,
    /// Audit-log capacity.
    pub audit_cap: usize,
    /// Optional per-source rate limit (off by default — none of the studied
    /// vendors deployed one, which is what makes enumeration viable).
    pub rate_limit: Option<RateLimit>,
    /// Active-response policy driven by the streaming monitor's alerts.
    /// Disabled by default: the monitor observes but the service never
    /// intervenes, keeping default-world behavior byte-identical.
    pub defense: DefensePolicy,
}

impl CloudConfig {
    /// A configuration with realistic defaults (30 s heartbeat timeout,
    /// 30 s button window at 1 tick = 1 ms).
    pub fn new(design: VendorDesign) -> Self {
        CloudConfig {
            design,
            heartbeat_timeout: 30_000,
            button_window: 30_000,
            audit_cap: 65_536,
            rate_limit: None,
            defense: DefensePolicy::disabled(),
        }
    }
}

/// The result of handling one request: the direct reply plus any pushes to
/// other parties.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Reply to the requester.
    pub reply: Response,
    /// Unsolicited pushes `(recipient, response)`.
    pub pushes: Vec<(NodeId, Response)>,
}

impl Outcome {
    fn deny(reason: DenyReason) -> Self {
        Outcome {
            reply: Response::Denied { reason },
            pushes: Vec::new(),
        }
    }

    fn reply(reply: Response) -> Self {
        Outcome {
            reply,
            pushes: Vec::new(),
        }
    }
}

const TIMER_EXPIRE: u64 = 1;

/// Counts one request from `from` against `limit`'s per-source window in
/// `windows`; whether it exceeds the limit. No limit, no count.
fn over_limit(
    windows: &mut HashMap<NodeId, (Tick, u32)>,
    limit: Option<RateLimit>,
    from: NodeId,
    now: Tick,
) -> bool {
    let Some(limit) = limit else {
        return false;
    };
    let entry = windows.entry(from).or_insert((now, 0));
    if now - entry.0 >= limit.window {
        *entry = (now, 0);
    }
    entry.1 += 1;
    entry.1 > limit.max
}

/// The simulated IoT cloud.
///
/// See the [crate docs](crate) for the component map. Drive it through the
/// network simulator (it implements [`Actor`]) or call
/// [`CloudService::handle_message`] directly in protocol tests.
pub struct CloudService {
    config: CloudConfig,
    accounts: AccountStore,
    registry: DeviceRegistry,
    dev_tokens: DevTokenLedger,
    bind_tokens: BindTokenLedger,
    state: DeviceState,
    audit: AuditLog,
    nat: HashMap<NodeId, u32>,
    rules: HashMap<rb_wire::tokens::UserId, Vec<AutomationRule>>,
    rate: HashMap<NodeId, (Tick, u32)>,
    /// Per-source `Bind` windows for the defense policy's bind limiter.
    bind_rate: HashMap<NodeId, (Tick, u32)>,
    monitor: Monitor,
    telemetry: Telemetry,
    /// Phase profiler: disabled by default (one branch per request); a
    /// recording handle tallies the codec round-trip and dispatch under
    /// the simulation's open `sim.deliver` phase.
    profiler: Profiler,
    /// Wire format spoken on the simulated network (classic by default).
    codec: CodecKind,
    forensics: bool,
    forensic_marks: Vec<String>,
}

impl CloudService {
    /// Creates a cloud for one vendor design.
    pub fn new(config: CloudConfig) -> Self {
        let audit = AuditLog::new(config.audit_cap);
        CloudService {
            config,
            accounts: AccountStore::new(),
            registry: DeviceRegistry::new(),
            dev_tokens: DevTokenLedger::new(),
            bind_tokens: BindTokenLedger::new(),
            state: DeviceState::new(),
            audit,
            nat: HashMap::new(),
            rules: HashMap::new(),
            rate: HashMap::new(),
            bind_rate: HashMap::new(),
            monitor: Monitor::default(),
            telemetry: Telemetry::new(),
            profiler: Profiler::disabled(),
            codec: CodecKind::default(),
            forensics: false,
            forensic_marks: Vec::new(),
        }
    }

    /// Enables forensic marks: causally-attributed statements ("rpc …",
    /// "shadow …", "bind …") emitted into the simulation trace alongside
    /// the packet that caused them, consumed by `rb-forensics` to
    /// reconstruct attacks. Off by default so untraced runs pay nothing.
    pub fn set_forensics(&mut self, enabled: bool) {
        self.forensics = enabled;
    }

    /// Records a shadow transition into the unified registry — the
    /// `cloud_shadow_transitions_total{from,to}` counter plus the
    /// binding-lifecycle histograms — and, when forensics is on, a
    /// `shadow dev=… from=… to=…` mark tied to the causing message.
    fn track_transition(
        &mut self,
        dev_id: &DevId,
        before: ShadowState,
        after: ShadowState,
        now: Tick,
    ) {
        if before == after {
            return;
        }
        if !self.telemetry.is_enabled() {
            if self.forensics {
                self.forensic_marks
                    .push(format!("shadow dev={dev_id} from={before} to={after}"));
            }
            return;
        }
        self.telemetry.with(|r| {
            r.counter_add(
                &format!("cloud_shadow_transitions_total{{from=\"{before}\",to=\"{after}\"}}"),
                1,
            );
            let dev = dev_id.to_string();
            let now = now.as_u64();
            match (before.is_online(), after.is_online()) {
                (false, true) => r.lifecycle_online(&dev, now),
                (true, false) => r.lifecycle_offline(&dev),
                _ => {}
            }
            match (before.is_bound(), after.is_bound()) {
                (false, true) => r.lifecycle_bound(&dev, now),
                (true, false) => r.lifecycle_unbound(&dev, now),
                _ => {}
            }
        });
        if self.forensics {
            self.forensic_marks
                .push(format!("shadow dev={dev_id} from={before} to={after}"));
        }
    }

    /// Points the cloud (and its monitor) at a shared telemetry registry.
    /// The world builder calls this with the simulation's handle so every
    /// layer records into one place.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.monitor.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// Installs a phase profiler (usually the simulation's handle, so the
    /// cloud's `cloud.decode` / `cloud.dispatch` / `cloud.encode` tallies
    /// nest under the open `sim.deliver` phase).
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    /// Selects the wire format this cloud encodes and decodes. All parties
    /// in a world must agree; `WorldBuilder::with_codec` threads one choice
    /// through every agent.
    pub fn set_codec(&mut self, codec: CodecKind) {
        self.codec = codec;
    }

    /// The telemetry handle this cloud records into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The design this cloud implements.
    pub fn design(&self) -> &VendorDesign {
        &self.config.design
    }

    /// Per-request snapshot of the design's `Copy` knobs (no allocation).
    fn knobs(&self) -> DesignKnobs {
        let d = &self.config.design;
        DesignKnobs {
            checks: d.checks,
            bind: d.bind,
            auth: d.auth,
            unbind: d.unbind,
        }
    }

    /// Vendor-side account signup.
    pub fn provision_account(&mut self, user_id: UserId, user_pw: UserPw) {
        self.accounts.register(user_id, user_pw);
    }

    /// Manufactures a device: registers its ID, factory secret, and
    /// (optionally) a signing key.
    pub fn manufacture(&mut self, dev_id: DevId, factory_secret: u128, key: Option<(u64, u128)>) {
        self.registry.add(
            dev_id,
            DeviceRecord {
                factory_secret,
                key,
            },
        );
    }

    /// Declares the public IP (NAT identity) a node's traffic arrives from.
    /// Nodes sharing a home router share an IP; used by the Hue-style
    /// source-IP comparison.
    pub fn set_public_ip(&mut self, node: NodeId, ip: u32) {
        self.nat.insert(node, ip);
    }

    fn public_ip(&self, node: NodeId) -> u32 {
        // Unmapped nodes get a unique synthetic address.
        self.nat.get(&node).copied().unwrap_or(0xffff_0000 | node.0)
    }

    /// The audit log.
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// The passive security monitor.
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// Installs an active-response policy. The default policy is disabled;
    /// installing an enabled one makes the service react to fresh monitor
    /// alerts after every handled request.
    pub fn set_defense(&mut self, policy: DefensePolicy) {
        self.config.defense = policy;
    }

    /// The active-response policy in force.
    pub fn defense(&self) -> &DefensePolicy {
        &self.config.defense
    }

    /// Diagnostic access to a device's shadow state.
    pub fn shadow_state(&self, dev_id: &DevId) -> ShadowState {
        self.state.shadow_state(dev_id)
    }

    /// Diagnostic access to the bound user of a device.
    pub fn bound_user(&self, dev_id: &DevId) -> Option<UserId> {
        self.state
            .record(dev_id)
            .and_then(|r| r.shadow.bound_user().cloned())
    }

    /// Diagnostic access to the nodes currently speaking as a device.
    pub fn device_nodes(&self, dev_id: &DevId) -> Vec<NodeId> {
        self.state
            .session(dev_id)
            .map(|s| s.nodes.clone())
            .unwrap_or_default()
    }

    /// Handles one request, returning the reply and pushes. This is the
    /// transport-independent core; the [`Actor`] impl wraps it.
    pub fn handle_message(
        &mut self,
        from: NodeId,
        now: Tick,
        msg: &Message,
        rng: &mut SimRng,
    ) -> Outcome {
        let mut outcome = if over_limit(&mut self.rate, self.config.rate_limit, from, now) {
            Outcome::deny(DenyReason::RateLimited)
        } else {
            self.dispatch(from, now, msg, rng)
        };
        // Active responses run on the request path, right after the
        // handler: whatever alerts this request raised are reacted to
        // before the reply leaves, and any defensive revocation push rides
        // the same outcome.
        if self.config.defense.is_enabled() {
            let pushes = self.apply_defenses(now, rng);
            outcome.pushes.extend(pushes);
        }
        let audited = AuditOutcome::of(&outcome.reply);
        // The audit log and the metrics registry observe the same
        // request/outcome stream: the log keeps bounded per-request
        // records, the registry keeps unbounded per-kind counters. The
        // key formatting is skipped entirely when recording is off.
        if self.telemetry.is_enabled() {
            self.telemetry.with(|r| {
                let kind = msg.kind_str();
                r.counter_add(&format!("cloud_requests_total{{kind=\"{kind}\"}}"), 1);
                if audited.is_denied() {
                    r.counter_add(&format!("cloud_denials_total{{kind=\"{kind}\"}}"), 1);
                }
            });
        }
        if self.forensics {
            let dev = msg
                .dev_id()
                .map_or_else(|| "-".to_string(), ToString::to_string);
            self.forensic_marks.push(format!(
                "rpc {} dev={dev} outcome={audited}",
                msg.primitive_str()
            ));
        }
        self.audit.push(AuditEntry {
            at: now,
            from,
            request: msg.kind_str(),
            outcome: audited,
        });
        outcome
    }

    /// Drains the forensic marks accumulated since the last drain (empty
    /// unless [`CloudService::set_forensics`] enabled them).
    pub fn take_forensic_marks(&mut self) -> Vec<String> {
        std::mem::take(&mut self.forensic_marks)
    }

    // -- Active defense ------------------------------------------------------

    /// Records one mitigation: the `cloud_mitigations_total{action="…"}`
    /// counter, the `cloud_mitigations` rate series, a `defense` event on
    /// the streaming bus, and (under forensics) a FAULT-style
    /// `defense action=… … trigger=…` mark tied to the causing request.
    /// `detail` is only formatted when one of those sinks is on.
    fn record_mitigation(
        &mut self,
        now: Tick,
        action: &str,
        detail: impl FnOnce() -> String,
        trigger: &str,
    ) {
        if !self.telemetry.is_enabled() && !self.forensics {
            return;
        }
        let detail = detail();
        if self.telemetry.is_enabled() {
            self.telemetry
                .incr(&format!("cloud_mitigations_total{{action=\"{action}\"}}"));
            self.telemetry.rate_event("cloud_mitigations", now.as_u64());
            self.telemetry.publish(
                now.as_u64(),
                "defense",
                &format!("{action} {detail} trigger={trigger}"),
            );
        }
        if self.forensics {
            self.forensic_marks.push(format!(
                "defense action={action} {detail} trigger={trigger}"
            ));
        }
    }

    /// Reacts to the alerts raised since the last reaction, per the
    /// configured [`DefensePolicy`]. Returns pushes (defensive revocation
    /// notices) to append to the current outcome.
    fn apply_defenses(&mut self, now: Tick, rng: &mut SimRng) -> Vec<(NodeId, Response)> {
        let policy = self.config.defense;
        let mut pushes = Vec::new();
        for (_, alert) in self.monitor.drain_defense_alerts() {
            let kind = alert.kind();
            let Some(dev_id) = alert.dev_id().cloned() else {
                continue;
            };
            // Takeover-shaped alerts rotate the session token,
            // occupation-shaped ones quarantine the device. The match is
            // exhaustive, so a new alert kind must pick its responses.
            let (rotate, quarantine) = match alert {
                SecurityAlert::BindingReplaced { .. } => (true, true),
                SecurityAlert::SessionMoved { .. } | SecurityAlert::StaleTokenReplay { .. } => {
                    (true, false)
                }
                SecurityAlert::ContestedBinding { .. }
                | SecurityAlert::RemoteOnlyBind { .. }
                | SecurityAlert::ImpossibleTransition { .. }
                | SecurityAlert::BareUnbind { .. }
                | SecurityAlert::ForeignUnbind { .. } => (false, true),
                SecurityAlert::EnumerationSuspected { .. } => (false, false),
            };
            if policy.rotate_tokens && rotate {
                self.rotate_binding_token(&dev_id, now, rng, kind);
            }
            if policy.quarantine_ticks > 0 && quarantine {
                pushes.extend(self.quarantine_device(&dev_id, now, policy.quarantine_ticks, kind));
            }
        }
        pushes
    }

    /// Rotates a bound device's binding-session token, retiring the old
    /// token so any stolen copy becomes replay-detectable and useless for
    /// session-gated control.
    fn rotate_binding_token(&mut self, dev_id: &DevId, now: Tick, rng: &mut SimRng, trigger: &str) {
        let fresh = SessionToken::from_entropy(rng.entropy128());
        let Some(record) = self.state.record_mut_existing(dev_id) else {
            return;
        };
        if !record.shadow.state().is_bound() {
            return;
        }
        let Some(old) = record.binding_session.replace(fresh) else {
            record.binding_session = None;
            return;
        };
        self.monitor.retire_token(dev_id, old, now);
        self.record_mitigation(now, "rotate-token", || format!("dev={dev_id}"), trigger);
    }

    /// Quarantines a suspect device: non-co-located binds are denied until
    /// the window expires, and a binding not provably co-located with the
    /// device is revoked on the spot. Returns the revocation push, if any.
    fn quarantine_device(
        &mut self,
        dev_id: &DevId,
        now: Tick,
        ticks: u64,
        trigger: &str,
    ) -> Vec<(NodeId, Response)> {
        if self.monitor.is_quarantined(dev_id, now) {
            return Vec::new();
        }
        self.monitor.quarantine(dev_id, now + ticks);
        let dev_ip = self.monitor.device_ip(dev_id);
        let mut pushes = Vec::new();
        let mut revoked_user = None;
        if let Some(record) = self.state.record_mut_existing(dev_id) {
            let colocated = matches!((record.binding_ip, dev_ip), (Some(b), Some(d)) if b == d);
            if record.shadow.state().is_bound() && (record.remote_bind_flagged || !colocated) {
                let before = record.shadow.state();
                let revoked = record.shadow.on_unbind();
                let after = record.shadow.state();
                let old = record.binding_session.take();
                record.guests.clear();
                self.track_transition(dev_id, before, after, now);
                if let Some(tok) = old {
                    self.monitor.retire_token(dev_id, tok, now);
                }
                if let Some(user) = revoked {
                    if let Some(node) = self.accounts.node_of(&user) {
                        pushes.push((node, Response::BindingRevoked));
                    }
                    revoked_user = Some(user);
                }
            }
        }
        let detail = || match &revoked_user {
            Some(user) => format!("dev={dev_id} revoked={user}"),
            None => format!("dev={dev_id}"),
        };
        self.record_mitigation(now, "quarantine", detail, trigger);
        pushes
    }

    /// Expires stale device sessions (heartbeat timeout) and half-open
    /// shadows left `Online`/`Control` without a live session. Normally
    /// driven by the actor timer; exposed for direct-drive tests.
    pub fn expire(&mut self, now: Tick) -> Vec<DevId> {
        let mut expired = self
            .state
            .expire_sessions(now, self.config.heartbeat_timeout);
        expired.extend(
            self.state
                .expire_half_open(now, self.config.heartbeat_timeout),
        );
        for dev_id in &expired {
            // Expiry always moves an online shadow offline; the post-state
            // tells us whether it was Online→Initial or Control→Bound.
            let after = self.state.shadow_state(dev_id);
            let before = ShadowState::from_flags(true, after.is_bound());
            self.track_transition(dev_id, before, after, now);
        }
        if !expired.is_empty() {
            self.telemetry
                .counter_add("cloud_sessions_expired_total", expired.len() as u64);
        }
        expired
    }

    fn dispatch(&mut self, from: NodeId, now: Tick, msg: &Message, rng: &mut SimRng) -> Outcome {
        match msg {
            Message::Login { user_id, user_pw } => {
                match self.accounts.login(user_id, user_pw, from, rng) {
                    Ok(user_token) => Outcome::reply(Response::LoginOk { user_token }),
                    Err(reason) => Outcome::deny(reason),
                }
            }
            Message::RequestDevToken { user_token } => {
                let user = match self.accounts.verify_token(user_token) {
                    Ok(u) => u.clone(),
                    Err(reason) => return Outcome::deny(reason),
                };
                let dev_token = self.dev_tokens.issue(user, rng);
                Outcome::reply(Response::DevTokenIssued { dev_token })
            }
            Message::RequestBindToken { user_token } => {
                let user = match self.accounts.verify_token(user_token) {
                    Ok(u) => u.clone(),
                    Err(reason) => return Outcome::deny(reason),
                };
                let bind_token = self.bind_tokens.issue(user, rng);
                Outcome::reply(Response::BindTokenIssued { bind_token })
            }
            Message::Status(payload) => self.handle_status(from, now, payload),
            Message::Bind(payload) => self.handle_bind(from, now, payload, rng),
            Message::Unbind(payload) => self.handle_unbind(from, now, payload),
            Message::Control {
                dev_id,
                user_token,
                session,
                action,
            } => self.handle_control(from, now, dev_id, user_token, *session, action),
            Message::Share {
                dev_id,
                user_token,
                grantee,
            } => self.handle_share(dev_id, user_token, grantee, true),
            Message::SetRule { user_token, rule } => self.handle_set_rule(user_token, rule),
            Message::Unshare {
                dev_id,
                user_token,
                grantee,
            } => self.handle_share(dev_id, user_token, grantee, false),
            Message::QueryShadow { dev_id } => {
                let state = self.state.shadow_state(dev_id);
                Outcome::reply(Response::ShadowState {
                    online: state.is_online(),
                    bound: state.is_bound(),
                })
            }
        }
    }

    // -- Status ------------------------------------------------------------

    fn authenticate_status(&self, payload: &StatusPayload) -> Result<Option<UserId>, DenyReason> {
        match self.config.design.auth {
            DeviceAuthScheme::DevToken => match &payload.auth {
                StatusAuth::DevToken(token) => Ok(Some(self.dev_tokens.verify(token)?.clone())),
                _ => Err(DenyReason::DeviceAuthFailed),
            },
            DeviceAuthScheme::DevId => match &payload.auth {
                StatusAuth::DevId(id) if *id == payload.dev_id => Ok(None),
                _ => Err(DenyReason::DeviceAuthFailed),
            },
            DeviceAuthScheme::PublicKey => match &payload.auth {
                StatusAuth::PublicKey { key_id, signature } => {
                    if self
                        .registry
                        .verify_signature(*key_id, &payload.dev_id, *signature)
                    {
                        Ok(None)
                    } else {
                        Err(DenyReason::DeviceAuthFailed)
                    }
                }
                _ => Err(DenyReason::DeviceAuthFailed),
            },
            // The vendor channel we could not inspect: modeled as a
            // per-device factory secret only the real firmware holds.
            DeviceAuthScheme::Opaque => match &payload.auth {
                StatusAuth::DevToken(token)
                    if Some(token.to_u128()) == self.registry.factory_secret(&payload.dev_id) =>
                {
                    Ok(None)
                }
                _ => Err(DenyReason::DeviceAuthFailed),
            },
        }
    }

    fn handle_status(&mut self, from: NodeId, now: Tick, payload: &StatusPayload) -> Outcome {
        self.monitor.observe_target(from, &payload.dev_id, now);
        if !self.registry.knows(&payload.dev_id) {
            return Outcome::deny(DenyReason::UnknownDevice);
        }
        let auth_user = match self.authenticate_status(payload) {
            Ok(u) => u,
            Err(reason) => return Outcome::deny(reason),
        };
        // Heartbeats are only valid within an established device session;
        // a new source must register first (TCP-connection semantics).
        if payload.kind == StatusKind::Heartbeat {
            let member = self
                .state
                .session(&payload.dev_id)
                .map(|s| s.nodes.contains(&from))
                .unwrap_or(false);
            if !member {
                return Outcome::deny(DenyReason::DeviceAuthFailed);
            }
        }

        let mut pushes = Vec::new();
        let design = self.knobs();

        // TP-LINK semantics: a fresh registration implies a factory reset,
        // revoking any existing binding (attack surface A3-4).
        if design.checks.register_resets_binding
            && payload.kind == StatusKind::Register
            && self.state.shadow_state(&payload.dev_id).is_bound()
        {
            // A bound shadow dropping on a Register from an address the
            // device has never lived at is the impossible-transition
            // signature (A3-4); the monitor's IP guard keeps genuine
            // factory resets (same NAT) silent.
            let reset_ip = self.public_ip(from);
            self.monitor
                .observe_binding_drop(&payload.dev_id, reset_ip, now);
            let record = self.state.record_mut(&payload.dev_id);
            let before = record.shadow.state();
            let revoked = record.shadow.on_unbind();
            let after = record.shadow.state();
            let old_session = record.binding_session.take();
            record.guests.clear();
            if let Some(tok) = old_session {
                self.monitor.retire_token(&payload.dev_id, tok, now);
            }
            self.track_transition(&payload.dev_id, before, after, now);
            if let Some(user) = revoked {
                if let Some(node) = self.accounts.node_of(&user) {
                    pushes.push((node, Response::BindingRevoked));
                }
            }
        }

        let _displaced = self.state.touch_session(
            &payload.dev_id,
            from,
            auth_user.clone(),
            payload.session,
            now,
            design.checks.concurrent_device_sessions,
        );

        let from_ip = self.public_ip(from);
        // Replay check runs against the *pre-update* device IP: an attacker
        // forging a device session with a stolen-but-retired token must not
        // first overwrite the co-location evidence that convicts it.
        if let Some(tok) = payload.session {
            self.monitor
                .observe_presented_token(&payload.dev_id, tok, from_ip, now);
        }
        self.monitor
            .observe_device_ip(&payload.dev_id, from_ip, now);
        // Retroactive co-location check: a binding created before the
        // device ever connected is flagged once the device's real IP shows
        // up somewhere else (the pre-emptive A2 occupation signature).
        {
            let record = self.state.record_mut(&payload.dev_id);
            if !record.remote_bind_flagged {
                if let (Some(holder), Some(bind_ip)) =
                    (record.shadow.bound_user().cloned(), record.binding_ip)
                {
                    if bind_ip != from_ip {
                        record.remote_bind_flagged = true;
                        self.monitor.raise(
                            now,
                            SecurityAlert::RemoteOnlyBind {
                                dev_id: payload.dev_id.clone(),
                                holder,
                                from_ip: bind_ip,
                            },
                        );
                    }
                }
            }
        }
        let record = self.state.record_mut(&payload.dev_id);
        let before = record.shadow.state();
        record.shadow.on_status(now.as_u64());
        let after = record.shadow.state();
        self.track_transition(&payload.dev_id, before, after, now);
        let record = self.state.record_mut(&payload.dev_id);
        if payload.button_pressed {
            record.button_at = Some(now);
            record.button_ip = Some(from_ip);
        }
        let bound_user = record.shadow.bound_user().cloned();
        let binding_session = record.binding_session;
        if !payload.telemetry.is_empty() {
            record.last_telemetry = payload.telemetry.clone();
            if let Some(user) = &bound_user {
                if let Some(node) = self.accounts.node_of(user) {
                    pushes.push((
                        node,
                        Response::TelemetryPush {
                            dev_id: payload.dev_id.clone(),
                            telemetry: payload.telemetry.clone(),
                        },
                    ));
                }
            }
        }

        // Automation rules (IFTTT-style): telemetry from a bound device may
        // trigger actions on the owner's other devices — the cascade that
        // makes A1 injection consequential (§V-B).
        if !payload.telemetry.is_empty() {
            if let Some(owner) = &bound_user {
                pushes.extend(self.fire_rules(owner.clone(), &payload.dev_id, &payload.telemetry));
            }
        }

        // Only a session authenticated as the bound user may learn the
        // binding session token from the cloud; everyone else receives it
        // through the local channel.
        let session_echo = match (&auth_user, &bound_user) {
            (Some(a), Some(b)) if a == b => binding_session,
            _ => None,
        };
        Outcome {
            reply: Response::StatusAccepted {
                session: session_echo,
            },
            pushes,
        }
    }

    // -- Bind ----------------------------------------------------------------

    fn handle_bind(
        &mut self,
        from: NodeId,
        now: Tick,
        payload: &BindPayload,
        rng: &mut SimRng,
    ) -> Outcome {
        let design = self.knobs();
        // Resolve the requesting user and target device per the design's
        // accepted bind shape. The user stays borrowed until a path needs
        // an owned copy: most binds of an ID sweep are denied first.
        let (dev_id, user): (DevId, Cow<'_, UserId>) = match (design.bind, payload) {
            (BindScheme::AclApp, BindPayload::AclApp { dev_id, user_token }) => {
                match self.accounts.verify_token(user_token) {
                    Ok(u) => (dev_id.clone(), Cow::Borrowed(u)),
                    Err(reason) => return Outcome::deny(reason),
                }
            }
            (
                BindScheme::AclDevice,
                BindPayload::AclDevice {
                    dev_id,
                    user_id,
                    user_pw,
                },
            ) => {
                if let Err(reason) = self.accounts.verify_password(user_id, user_pw) {
                    return Outcome::deny(reason);
                }
                (dev_id.clone(), Cow::Borrowed(user_id))
            }
            (BindScheme::Capability, BindPayload::Capability { bind_token }) => {
                // The capability must be submitted by an authenticated
                // device session — that round trip through the device is
                // the ownership proof.
                let Some(dev_id) = self.device_of_node(from) else {
                    return Outcome::deny(DenyReason::DeviceAuthFailed);
                };
                match self.bind_tokens.consume(bind_token) {
                    Ok(u) => (dev_id, Cow::Owned(u)),
                    Err(reason) => return Outcome::deny(reason),
                }
            }
            _ => return Outcome::deny(DenyReason::UnsupportedOperation),
        };

        self.monitor.observe_target(from, &dev_id, now);
        // Defense interventions on the bind path. Both are no-ops under the
        // disabled policy (no limit configured, nothing ever quarantined).
        // The limiter runs before the existence check so ID-space sweeps
        // (which mostly hit unknown IDs) are priced out too.
        if over_limit(
            &mut self.bind_rate,
            self.config.defense.bind_limit,
            from,
            now,
        ) {
            self.record_mitigation(
                now,
                "rate-limit-bind",
                || format!("from={from}"),
                "bind-rate",
            );
            return Outcome::deny(DenyReason::RateLimited);
        }
        if !self.registry.knows(&dev_id) {
            return Outcome::deny(DenyReason::UnknownDevice);
        }
        if self.monitor.is_quarantined(&dev_id, now)
            && self.monitor.device_ip(&dev_id) != Some(self.public_ip(from))
        {
            // Only a requester co-located with the device may bind a
            // quarantined DevId; everyone else waits out the window.
            return Outcome::deny(DenyReason::RateLimited);
        }
        if design.checks.bind_requires_online_device
            && !self.state.shadow_state(&dev_id).is_online()
        {
            return Outcome::deny(DenyReason::DeviceOffline);
        }
        if design.checks.bind_requires_local_proof {
            let requester_ip = self.public_ip(from);
            let record = self.state.record_mut(&dev_id);
            let fresh_button = record
                .button_at
                .is_some_and(|at| now - at <= self.config.button_window);
            let same_ip = record.button_ip == Some(requester_ip);
            if !(fresh_button && same_ip) {
                return Outcome::deny(DenyReason::OwnershipProofFailed);
            }
        }
        let shadow_bound = self.state.shadow_state(&dev_id).is_bound();
        if design.checks.reject_bind_when_bound && shadow_bound {
            let holder = self
                .state
                .record(&dev_id)
                .and_then(|r| r.shadow.bound_user());
            if holder != Some(&*user) {
                if let Some(holder) = holder {
                    self.monitor
                        .observe_bind_denial(&dev_id, holder, &user, now);
                }
                return Outcome::deny(DenyReason::AlreadyBound);
            }
        }

        // Accept: create (or replace) the binding.
        let user = user.into_owned();
        let session = if design.checks.post_binding_session {
            Some(SessionToken::from_entropy(rng.entropy128()))
        } else {
            None
        };
        let bind_ip = self.public_ip(from);
        let record = self.state.record_mut(&dev_id);
        let before = record.shadow.state();
        let displaced = record.shadow.on_bind(user.clone());
        let after = record.shadow.state();
        self.track_transition(&dev_id, before, after, now);
        if displaced.is_some() {
            self.telemetry.incr("cloud_bindings_replaced_total");
        }
        if self.forensics {
            let prev = displaced
                .as_ref()
                .map_or_else(|| "none".to_string(), ToString::to_string);
            self.forensic_marks
                .push(format!("bind dev={dev_id} user={user} displaced={prev}"));
        }
        let record = self.state.record_mut(&dev_id);
        let old_session = record.binding_session;
        record.binding_session = session;
        record.binding_ip = Some(bind_ip);
        record.remote_bind_flagged = false;
        if displaced.is_some() {
            record.guests.clear();
        }
        // The superseded binding token (if any) is retired: anyone still
        // presenting it from an address other than the device's own is a
        // replay.
        if let Some(old) = old_session {
            if Some(old) != session {
                self.monitor.retire_token(&dev_id, old, now);
            }
        }
        if let Some(prev) = &displaced {
            self.monitor.raise(
                now,
                SecurityAlert::BindingReplaced {
                    dev_id: dev_id.clone(),
                    victim: prev.clone(),
                    new_holder: user.clone(),
                },
            );
        }
        // A bind whose source IP has never been co-located with the device
        // is the pre-emptive-occupation signature. If the device has not
        // connected yet, the check re-runs when it does (handle_status).
        if let Some(dev_ip) = self.monitor.device_ip(&dev_id) {
            if dev_ip != bind_ip {
                self.monitor.raise(
                    now,
                    SecurityAlert::RemoteOnlyBind {
                        dev_id: dev_id.clone(),
                        holder: user.clone(),
                        from_ip: bind_ip,
                    },
                );
                self.state.record_mut(&dev_id).remote_bind_flagged = true;
            }
        }
        let mut pushes = Vec::new();
        if let Some(prev) = displaced {
            if let Some(node) = self.accounts.node_of(&prev) {
                pushes.push((node, Response::BindingRevoked));
            }
        }
        // In the capability flow the bind arrives from the *device*; the
        // user learns the outcome (and the session token) through a push.
        if design.bind == BindScheme::Capability {
            let binder = self
                .state
                .record(&dev_id)
                .and_then(|r| r.shadow.bound_user().cloned());
            if let Some(node) = binder.as_ref().and_then(|u| self.accounts.node_of(u)) {
                pushes.push((node, Response::Bound { session }));
            }
        }
        Outcome {
            reply: Response::Bound { session },
            pushes,
        }
    }

    fn device_of_node(&self, node: NodeId) -> Option<DevId> {
        // O(1) through the session reverse index; used to scan every shadow
        // record on each capability bind.
        self.state.device_of_node(node).cloned()
    }

    // -- Unbind ---------------------------------------------------------------

    fn handle_unbind(&mut self, from: NodeId, now: Tick, payload: &UnbindPayload) -> Outcome {
        let design = self.knobs();
        let dev_id = payload.dev_id().clone();
        self.monitor.observe_target(from, &dev_id, now);
        if !self.registry.knows(&dev_id) {
            return Outcome::deny(DenyReason::UnknownDevice);
        }
        let mut requester: Option<UserId> = None;
        match payload {
            UnbindPayload::DevIdUserToken { user_token, .. } => {
                if !design.unbind.dev_id_user_token {
                    return Outcome::deny(DenyReason::UnsupportedOperation);
                }
                let user = match self.accounts.verify_token(user_token) {
                    Ok(u) => u.clone(),
                    Err(reason) => return Outcome::deny(reason),
                };
                let bound = self
                    .state
                    .record(&dev_id)
                    .and_then(|r| r.shadow.bound_user());
                let Some(bound) = bound else {
                    return Outcome::deny(DenyReason::NotBound);
                };
                if design.checks.verify_unbind_is_bound_user && *bound != user {
                    return Outcome::deny(DenyReason::NotBoundUser);
                }
                requester = Some(user);
            }
            UnbindPayload::DevIdOnly { .. } => {
                if !design.unbind.dev_id_only {
                    return Outcome::deny(DenyReason::UnsupportedOperation);
                }
                if !self.state.shadow_state(&dev_id).is_bound() {
                    return Outcome::deny(DenyReason::NotBound);
                }
            }
        }
        let from_ip = self.public_ip(from);
        let record = self.state.record_mut(&dev_id);
        let before = record.shadow.state();
        let revoked = record.shadow.on_unbind();
        let after = record.shadow.state();
        let old_session = record.binding_session.take();
        record.guests.clear();
        if let Some(tok) = old_session {
            self.monitor.retire_token(&dev_id, tok, now);
        }
        self.track_transition(&dev_id, before, after, now);
        if self.forensics {
            let who = revoked
                .as_ref()
                .map_or_else(|| "none".to_string(), ToString::to_string);
            self.forensic_marks
                .push(format!("unbind dev={dev_id} revoked={who}"));
        }
        match (payload, &revoked, &requester) {
            // Legitimate resets come from the device's own NAT; a bare
            // unbind from anywhere else is the A3-1 signature.
            (UnbindPayload::DevIdOnly { .. }, _, _)
                if self.monitor.device_ip(&dev_id) != Some(from_ip) =>
            {
                self.monitor.raise(
                    now,
                    SecurityAlert::BareUnbind {
                        dev_id: dev_id.clone(),
                        from_ip,
                    },
                );
            }
            (UnbindPayload::DevIdUserToken { .. }, Some(victim), Some(req)) if victim != req => {
                self.monitor.raise(
                    now,
                    SecurityAlert::ForeignUnbind {
                        dev_id: dev_id.clone(),
                        victim: victim.clone(),
                        requester: req.clone(),
                    },
                );
            }
            _ => {}
        }
        let mut pushes = Vec::new();
        if let Some(user) = revoked {
            if let Some(node) = self.accounts.node_of(&user) {
                if node != from {
                    pushes.push((node, Response::BindingRevoked));
                }
            }
        }
        Outcome {
            reply: Response::Unbound,
            pushes,
        }
    }

    // -- Control ---------------------------------------------------------------

    fn handle_control(
        &mut self,
        from: NodeId,
        now: Tick,
        dev_id: &DevId,
        user_token: &UserToken,
        session: Option<SessionToken>,
        action: &ControlAction,
    ) -> Outcome {
        let design = self.knobs();
        self.monitor.observe_target(from, dev_id, now);
        // A retired binding token presented on the control path from an
        // address that is not the device's own is the stale-token-replay
        // signature (the paper's stolen-session A1 follow-up).
        if let Some(tok) = session {
            let from_ip = self.public_ip(from);
            self.monitor
                .observe_presented_token(dev_id, tok, from_ip, now);
        }
        let user = match self.accounts.verify_token(user_token) {
            Ok(u) => u.clone(),
            Err(reason) => return Outcome::deny(reason),
        };
        let Some(record) = self.state.record(dev_id) else {
            return Outcome::deny(DenyReason::UnknownDevice);
        };
        let Some(bound) = record.shadow.bound_user() else {
            return Outcome::deny(DenyReason::NotBound);
        };
        let is_owner = *bound == user;
        if !is_owner && !record.guests.contains(&user) {
            return Outcome::deny(DenyReason::NotBoundUser);
        }
        if !record.shadow.state().is_online() {
            return Outcome::deny(DenyReason::DeviceOffline);
        }
        let binding_session = record.binding_session;
        if design.checks.post_binding_session {
            // Both sides must hold the binding's session token: the user
            // presents it in the request, the device must have presented it
            // in a status message after receiving it over the local
            // channel. A hijacker can satisfy neither for the real device.
            let device_session = self.state.session(dev_id).and_then(|s| s.presented_session);
            if session != binding_session || device_session != binding_session {
                return Outcome::deny(DenyReason::BadSession);
            }
        }
        if design.auth == DeviceAuthScheme::DevToken {
            // The device's session is keyed to the user whose DevToken it
            // authenticated with; a binding by anyone else gets no relay.
            // Guests are covered by the owner's grant, so the comparison is
            // against the *owner*.
            let owner = self
                .state
                .record(dev_id)
                .and_then(|r| r.shadow.bound_user().cloned());
            let session_user = self.state.session(dev_id).and_then(|s| s.auth_user.clone());
            if session_user != owner {
                return Outcome::deny(DenyReason::BadSession);
            }
        }

        let device_nodes = self.device_nodes(dev_id);
        let mut pushes = Vec::new();
        let reply = match action {
            ControlAction::TurnOn | ControlAction::TurnOff | ControlAction::SetBrightness(_) => {
                for node in &device_nodes {
                    pushes.push((
                        *node,
                        Response::ControlPush {
                            action: action.clone(),
                            session: binding_session,
                        },
                    ));
                }
                Response::ControlOk {
                    schedule: Vec::new(),
                    telemetry: Vec::new(),
                }
            }
            ControlAction::SetSchedule(entry) => {
                let record = self.state.record_mut(dev_id);
                record.schedule.push(entry.clone());
                // The schedule is pushed to the device so it can run
                // offline — the channel a forged device session exfiltrates
                // (A1 stealing).
                for node in &device_nodes {
                    pushes.push((
                        *node,
                        Response::ControlPush {
                            action: action.clone(),
                            session: binding_session,
                        },
                    ));
                }
                Response::ControlOk {
                    schedule: Vec::new(),
                    telemetry: Vec::new(),
                }
            }
            ControlAction::QuerySchedule => Response::ControlOk {
                schedule: record.schedule.clone(),
                telemetry: Vec::new(),
            },
            ControlAction::QueryTelemetry => Response::ControlOk {
                schedule: Vec::new(),
                telemetry: record.last_telemetry.clone(),
            },
        };
        Outcome { reply, pushes }
    }
}

impl CloudService {
    /// Grants (`grant = true`) or revokes a device share. Only the bound
    /// owner may manage shares; grantees must be real accounts.
    fn handle_share(
        &mut self,
        dev_id: &DevId,
        user_token: &UserToken,
        grantee: &UserId,
        grant: bool,
    ) -> Outcome {
        let user = match self.accounts.verify_token(user_token) {
            Ok(u) => u.clone(),
            Err(reason) => return Outcome::deny(reason),
        };
        if !self.registry.knows(dev_id) {
            return Outcome::deny(DenyReason::UnknownDevice);
        }
        let Some(record) = self.state.record(dev_id) else {
            return Outcome::deny(DenyReason::NotBound);
        };
        let Some(bound) = record.shadow.bound_user() else {
            return Outcome::deny(DenyReason::NotBound);
        };
        if *bound != user {
            return Outcome::deny(DenyReason::NotBoundUser);
        }
        if grant && !self.accounts.exists(grantee) {
            return Outcome::deny(DenyReason::UnknownUser);
        }
        if grant && *grantee == user {
            // Owner already has full access; treat as a no-op grant.
            let Some(record) = self.state.record(dev_id) else {
                return Outcome::deny(DenyReason::NotBound);
            };
            return Outcome::reply(Response::ShareOk {
                session: record.binding_session,
                guests: record.guests.len() as u16,
            });
        }
        let record = self.state.record_mut(dev_id);
        if grant {
            if !record.guests.contains(grantee) {
                record.guests.push(grantee.clone());
            }
        } else {
            record.guests.retain(|g| g != grantee);
        }
        Outcome::reply(Response::ShareOk {
            session: record.binding_session,
            guests: record.guests.len() as u16,
        })
    }

    /// Diagnostic access to a device's guest list.
    pub fn guests(&self, dev_id: &DevId) -> Vec<UserId> {
        self.state
            .record(dev_id)
            .map(|r| r.guests.clone())
            .unwrap_or_default()
    }

    /// Maximum rules stored per account.
    pub const MAX_RULES_PER_USER: usize = 64;

    /// Stores an automation rule after checking the requester controls both
    /// endpoints (owner or guest).
    fn handle_set_rule(&mut self, user_token: &UserToken, rule: &AutomationRule) -> Outcome {
        let user = match self.accounts.verify_token(user_token) {
            Ok(u) => u.clone(),
            Err(reason) => return Outcome::deny(reason),
        };
        for dev in [&rule.trigger_dev, &rule.action_dev] {
            if !self.registry.knows(dev) {
                return Outcome::deny(DenyReason::UnknownDevice);
            }
            let authorized = self
                .state
                .record(dev)
                .is_some_and(|r| r.shadow.bound_user() == Some(&user) || r.guests.contains(&user));
            if !authorized {
                return Outcome::deny(DenyReason::NotBoundUser);
            }
        }
        let rules = self.rules.entry(user).or_default();
        if rules.len() >= Self::MAX_RULES_PER_USER {
            return Outcome::deny(DenyReason::RateLimited);
        }
        rules.push(rule.clone());
        Outcome::reply(Response::RuleSet {
            count: rules.len() as u16,
        })
    }

    /// Evaluates the owner's rules against fresh telemetry from
    /// `trigger_dev`; returns the control pushes for fired actions.
    fn fire_rules(
        &mut self,
        owner: UserId,
        trigger_dev: &DevId,
        telemetry: &[rb_wire::telemetry::TelemetryFrame],
    ) -> Vec<(NodeId, Response)> {
        let Some(rules) = self.rules.get(&owner) else {
            return Vec::new();
        };
        let fired: Vec<AutomationRule> = rules
            .iter()
            .filter(|r| {
                r.trigger_dev == *trigger_dev && telemetry.iter().any(|f| r.trigger.matches(f))
            })
            .cloned()
            .collect();
        let mut pushes = Vec::new();
        for rule in fired {
            // Re-check authorization at fire time: the action device must
            // still belong to the rule owner.
            let still_owned = self
                .state
                .record(&rule.action_dev)
                .is_some_and(|r| r.shadow.bound_user() == Some(&owner));
            if !still_owned {
                continue;
            }
            let session = self
                .state
                .record(&rule.action_dev)
                .and_then(|r| r.binding_session);
            for node in self.device_nodes(&rule.action_dev) {
                pushes.push((
                    node,
                    Response::ControlPush {
                        action: rule.action.clone(),
                        session,
                    },
                ));
            }
        }
        pushes
    }

    /// Diagnostic access to a user's rule count.
    pub fn rule_count(&self, user: &UserId) -> usize {
        self.rules.get(user).map(Vec::len).unwrap_or(0)
    }
}

impl Actor for CloudService {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(self.config.heartbeat_timeout / 2, TIMER_EXPIRE);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &[u8]) {
        let payload = bytes::Bytes::copy_from_slice(payload);
        self.on_packet_bytes(ctx, from, &payload);
    }

    fn on_packet_bytes(&mut self, ctx: &mut Ctx<'_>, from: NodeId, payload: &bytes::Bytes) {
        // One tally per wire-level decode attempt, garbage included: the
        // codec leg of the request round-trip.
        self.profiler.tally("cloud.decode", 0);
        let Ok(Envelope::Request { corr, msg }) = Envelope::decode_with(self.codec, payload) else {
            // Responses and garbage are ignored; a real cloud would log.
            return;
        };
        let now = ctx.now();
        // Split the borrow: effects buffer lives in ctx, rng is shared.
        let outcome = {
            let rng = ctx.rng();
            // Fork keeps determinism while avoiding aliasing ctx.
            let mut local = rng.fork();
            self.profiler.tally("cloud.dispatch", 0);
            self.handle_message(from, now, &msg, &mut local)
        };
        if self.forensics {
            for (node, rsp) in &outcome.pushes {
                self.forensic_marks
                    .push(format!("push {} to={node}", rsp.kind_str()));
            }
            // Marks are drained before the sends so a forensic reader sees
            // the cloud's statements about a request ahead of the replies
            // they explain; all carry the request packet's trace context.
            for text in self.take_forensic_marks() {
                ctx.mark(text);
            }
        }
        self.profiler.tally("cloud.encode", 0);
        ctx.send(
            Dest::Unicast(from),
            Envelope::Response {
                corr,
                rsp: outcome.reply,
            }
            .encode_with(self.codec),
        );
        for (node, rsp) in outcome.pushes {
            self.profiler.tally("cloud.encode", 0);
            ctx.send(
                Dest::Unicast(node),
                Envelope::push(rsp).encode_with(self.codec),
            );
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, key: u64) {
        if key == TIMER_EXPIRE {
            let now = ctx.now();
            self.expire(now);
            // Expiry marks root fresh traces: nothing on the wire caused
            // them, the passage of time did.
            for text in self.take_forensic_marks() {
                ctx.mark(text);
            }
            ctx.set_timer(self.config.heartbeat_timeout / 2, TIMER_EXPIRE);
        }
    }
}

impl std::fmt::Debug for CloudService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CloudService")
            .field("vendor", &self.config.design.vendor)
            .field("devices", &self.registry.len())
            .field("audit_entries", &self.audit.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::one_of_each;
    use rb_core::vendors;
    use rb_wire::messages::DeviceAttributes;

    const USER: NodeId = NodeId(1);
    const DEVICE: NodeId = NodeId(2);

    fn send(cloud: &mut CloudService, from: NodeId, msg: Message) -> Response {
        cloud
            .handle_message(from, Tick(10), &msg, &mut SimRng::new(1))
            .reply
    }

    /// A hardened KONKE cloud whose device is bound and holds a binding
    /// session token, so both rotation and quarantine have work to do.
    fn bound_konke(dev_id: &DevId) -> CloudService {
        let mut cloud = CloudService::new(CloudConfig::new(vendors::konke()));
        cloud.set_defense(DefensePolicy::hardened());
        cloud.provision_account(UserId::new("victim"), UserPw::new("v"));
        cloud.manufacture(dev_id.clone(), 0, None);
        // One household: the app and the device share a public IP.
        cloud.set_public_ip(USER, 100);
        cloud.set_public_ip(DEVICE, 100);
        let login = Message::Login {
            user_id: UserId::new("victim"),
            user_pw: UserPw::new("v"),
        };
        let Response::LoginOk { user_token } = send(&mut cloud, USER, login) else {
            panic!("login");
        };
        let Response::DevTokenIssued { dev_token } =
            send(&mut cloud, USER, Message::RequestDevToken { user_token })
        else {
            panic!("dev token");
        };
        let register = StatusPayload::register(
            StatusAuth::DevToken(dev_token),
            dev_id.clone(),
            DeviceAttributes::default(),
        );
        assert!(send(&mut cloud, DEVICE, Message::Status(register)).is_ok());
        let bind = BindPayload::AclApp {
            dev_id: dev_id.clone(),
            user_token,
        };
        assert!(send(&mut cloud, USER, Message::Bind(bind)).is_ok());
        assert!(cloud.monitor().alert_log().is_empty());
        cloud
    }

    #[test]
    fn each_alert_kind_draws_its_defenses() {
        let dev_id = DevId::Digits {
            value: 424_242,
            width: 6,
        };
        for alert in one_of_each(&dev_id) {
            let kind = alert.kind();
            // (rotate-token, quarantine) mitigations drawn.
            let expected = match kind {
                "binding-replaced" => (1, 1),
                "session-moved" | "stale-token-replay" => (1, 0),
                "enumeration" => (0, 0),
                _ => (0, 1),
            };
            let mut cloud = bound_konke(&dev_id);
            cloud.monitor.raise(Tick(20), alert);
            cloud.apply_defenses(Tick(20), &mut SimRng::new(2));
            let tele = cloud.telemetry();
            let drawn = (
                tele.counter("cloud_mitigations_total{action=\"rotate-token\"}"),
                tele.counter("cloud_mitigations_total{action=\"quarantine\"}"),
            );
            assert_eq!(drawn, expected, "{kind}");
        }
    }
}
