//! Streaming runtime security monitoring and active defense.
//!
//! The paper's attacks succeed *silently*: nothing in the studied clouds
//! notices a foreign unbind, a replaced binding, or an ID-space sweep. This
//! module is the defensive counterpart — an **online** monitor inside the
//! cloud, fed by the service handlers on every request and shadow
//! transition as the world runs (no post-hoc trace scans). It keeps one
//! bounded entry per source, contested pair and retired token, raises typed
//! [`SecurityAlert`]s onto a tick-stamped alert log, measures detection
//! latency in simulation ticks, and publishes every alert onto the
//! [`rb_telemetry`] streaming bus for outside subscribers (`rbsim
//! monitor`, the defense bench).
//!
//! Detection alone is the passive half. The active half is a per-vendor
//! [`DefensePolicy`]: the service drains newly raised alerts after every
//! request and responds with binding-token rotation, bind rate-limiting,
//! or quarantine of suspect devices — each response leaving a FAULT-style
//! `defense …` mark in the causal trace so `rb-forensics` can classify
//! mitigated outcomes. With the default (disabled) policy the monitor is
//! purely observational and the service behaves byte-identically to a
//! world without it.
//!
//! Everything in here is deterministic: state is a pure function of the
//! observation sequence, and the rendered alert stream / state summary are
//! byte-stable across runs and thread counts.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::hash::Hash;

use crate::service::RateLimit;
use rb_netsim::{NodeId, Telemetry, Tick};
use rb_wire::ids::DevId;
use rb_wire::tokens::{SessionToken, UserId};

/// A security-relevant anomaly observed by the cloud.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SecurityAlert {
    /// An accepted `Unbind:(DevId,UserToken)` whose requester was not the
    /// bound user (the A3-2 signature).
    ForeignUnbind {
        /// The affected device.
        dev_id: DevId,
        /// The user whose binding was revoked.
        victim: UserId,
        /// The requesting user.
        requester: UserId,
    },
    /// An accepted bare `Unbind:DevId` (the A3-1 signature — inherently
    /// unattributable).
    BareUnbind {
        /// The affected device.
        dev_id: DevId,
        /// Public IP the request came from.
        from_ip: u32,
    },
    /// An accepted bind displaced an existing binding of a different user
    /// (the A3-3/A4-1 signature).
    BindingReplaced {
        /// The affected device.
        dev_id: DevId,
        /// The displaced user.
        victim: UserId,
        /// The new holder.
        new_holder: UserId,
    },
    /// A device session moved to a different public IP (the A1/A3-4/A4
    /// status-forgery signature; also fires on legitimate household moves,
    /// which is why it is an alert and not a block).
    SessionMoved {
        /// The affected device.
        dev_id: DevId,
        /// Previous public IP.
        old_ip: u32,
        /// New public IP.
        new_ip: u32,
    },
    /// One source touched many distinct device IDs (the enumeration /
    /// scalable-DoS signature of §V-C).
    EnumerationSuspected {
        /// The probing source.
        source: NodeId,
        /// Distinct device IDs touched.
        distinct_ids: usize,
    },
    /// Someone keeps being refused a binding another account holds — the
    /// victim-experience signature of a pre-emptive occupation (A2) on
    /// designs whose device never comes online while the DoS holds.
    ContestedBinding {
        /// The disputed device.
        dev_id: DevId,
        /// The current holder.
        holder: UserId,
        /// The repeatedly refused challenger.
        challenger: UserId,
        /// Denials observed.
        denials: u32,
    },
    /// A binding was created for a device the requester's source IP has
    /// never been co-located with (the pre-emptive A2 signature: the real
    /// owner's app binds from the same NAT as the device sooner or later;
    /// the attacker never does).
    RemoteOnlyBind {
        /// The affected device.
        dev_id: DevId,
        /// The binder.
        holder: UserId,
        /// Public IP of the bind request.
        from_ip: u32,
    },
    /// A status-family request from an IP never co-located with the device
    /// dropped its binding — a shadow transition the legitimate household
    /// cannot have caused (the register-reset A3-4 signature seen online).
    ImpossibleTransition {
        /// The affected device.
        dev_id: DevId,
        /// Public IP the resetting request came from.
        from_ip: u32,
        /// The device's last co-located public IP.
        known_ip: u32,
    },
    /// A retired binding-session token was presented again from an IP that
    /// is not the device's own — replay of a stale credential after an
    /// unbind, reset, or defensive rotation.
    StaleTokenReplay {
        /// The affected device.
        dev_id: DevId,
        /// Public IP the replay came from.
        from_ip: u32,
    },
}

impl SecurityAlert {
    /// Short classifier for tables.
    pub fn kind(&self) -> &'static str {
        match self {
            SecurityAlert::ForeignUnbind { .. } => "foreign-unbind",
            SecurityAlert::BareUnbind { .. } => "bare-unbind",
            SecurityAlert::BindingReplaced { .. } => "binding-replaced",
            SecurityAlert::SessionMoved { .. } => "session-moved",
            SecurityAlert::EnumerationSuspected { .. } => "enumeration",
            SecurityAlert::ContestedBinding { .. } => "contested-binding",
            SecurityAlert::RemoteOnlyBind { .. } => "remote-only-bind",
            SecurityAlert::ImpossibleTransition { .. } => "impossible-transition",
            SecurityAlert::StaleTokenReplay { .. } => "stale-token-replay",
        }
    }

    /// One deterministic line describing the alert: `kind key=value …`.
    /// This is the byte-stable body published onto the streaming bus and
    /// rendered into the alert stream.
    pub fn describe(&self) -> String {
        match self {
            SecurityAlert::ForeignUnbind {
                dev_id,
                victim,
                requester,
            } => format!("foreign-unbind dev={dev_id} victim={victim} requester={requester}"),
            SecurityAlert::BareUnbind { dev_id, from_ip } => {
                format!("bare-unbind dev={dev_id} from_ip={from_ip}")
            }
            SecurityAlert::BindingReplaced {
                dev_id,
                victim,
                new_holder,
            } => format!("binding-replaced dev={dev_id} victim={victim} new_holder={new_holder}"),
            SecurityAlert::SessionMoved {
                dev_id,
                old_ip,
                new_ip,
            } => format!("session-moved dev={dev_id} old_ip={old_ip} new_ip={new_ip}"),
            SecurityAlert::EnumerationSuspected {
                source,
                distinct_ids,
            } => format!("enumeration source={source} distinct_ids={distinct_ids}"),
            SecurityAlert::ContestedBinding {
                dev_id,
                holder,
                challenger,
                denials,
            } => format!(
                "contested-binding dev={dev_id} holder={holder} challenger={challenger} denials={denials}"
            ),
            SecurityAlert::RemoteOnlyBind {
                dev_id,
                holder,
                from_ip,
            } => format!("remote-only-bind dev={dev_id} holder={holder} from_ip={from_ip}"),
            SecurityAlert::ImpossibleTransition {
                dev_id,
                from_ip,
                known_ip,
            } => format!("impossible-transition dev={dev_id} from_ip={from_ip} known_ip={known_ip}"),
            SecurityAlert::StaleTokenReplay { dev_id, from_ip } => {
                format!("stale-token-replay dev={dev_id} from_ip={from_ip}")
            }
        }
    }

    /// The device the alert concerns, when it concerns exactly one.
    pub fn dev_id(&self) -> Option<&DevId> {
        match self {
            SecurityAlert::ForeignUnbind { dev_id, .. }
            | SecurityAlert::BareUnbind { dev_id, .. }
            | SecurityAlert::BindingReplaced { dev_id, .. }
            | SecurityAlert::SessionMoved { dev_id, .. }
            | SecurityAlert::ContestedBinding { dev_id, .. }
            | SecurityAlert::RemoteOnlyBind { dev_id, .. }
            | SecurityAlert::ImpossibleTransition { dev_id, .. }
            | SecurityAlert::StaleTokenReplay { dev_id, .. } => Some(dev_id),
            SecurityAlert::EnumerationSuspected { .. } => None,
        }
    }
}

/// Per-vendor active-response knobs. The default policy is fully disabled:
/// the monitor observes and alerts but the service never intervenes, so
/// Table III outcomes and every pinned golden are unchanged unless a world
/// opts in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DefensePolicy {
    /// Rotate the binding-session token when a takeover-shaped alert
    /// (binding-replaced, session-moved, stale-token-replay) names a bound
    /// device, invalidating any stolen session.
    pub rotate_tokens: bool,
    /// Sliding-window rate limit applied to `Bind` requests per source
    /// node (on top of any vendor-wide [`RateLimit`]); throttles bind
    /// races and re-bind storms.
    pub bind_limit: Option<RateLimit>,
    /// Quarantine window in ticks. When an occupation-shaped alert
    /// (contested-binding, remote-only-bind, impossible-transition,
    /// bare-unbind, foreign-unbind, binding-replaced) names a device, a
    /// remotely held binding is revoked and non-co-located binds are
    /// denied until the window expires. `0` disables quarantine.
    pub quarantine_ticks: u64,
}

impl DefensePolicy {
    /// The fully disabled policy (same as `Default`).
    pub fn disabled() -> Self {
        DefensePolicy::default()
    }

    /// Every response enabled with the reference knobs used by the defense
    /// experiments: rotation on, 6 binds per 10 000-tick window per
    /// source, 30 000-tick quarantine.
    pub fn hardened() -> Self {
        DefensePolicy {
            rotate_tokens: true,
            bind_limit: Some(RateLimit {
                window: 10_000,
                max: 6,
            }),
            quarantine_ticks: 30_000,
        }
    }

    /// Whether any response is switched on.
    pub fn is_enabled(&self) -> bool {
        self.rotate_tokens || self.bind_limit.is_some() || self.quarantine_ticks > 0
    }
}

/// Distinct device IDs one source may touch before it is flagged for
/// enumeration.
const ENUMERATION_THRESHOLD: usize = 8;
/// `AlreadyBound` denials per (device, challenger) before the pair is
/// flagged.
const CONTESTED_THRESHOLD: u32 = 3;

/// The enumeration tracking of one source.
#[derive(Debug)]
enum Source {
    /// Below the threshold: the distinct device IDs touched so far and the
    /// tick of the first touch (the detection evidence).
    Counting { ids: HashSet<DevId>, first_at: Tick },
    /// Flagged once; nothing more about the source is ever read.
    Flagged,
}

/// The denials of one (device, challenger) pair.
#[derive(Debug)]
struct Contested {
    /// Denials counted; the pair is flagged when this reaches
    /// [`CONTESTED_THRESHOLD`], and counting stops there.
    denials: u32,
    /// Tick of the first denial (the detection evidence).
    first_at: Tick,
}

/// One retired binding-session token.
#[derive(Debug)]
struct Retired {
    /// Tick of retirement (the detection evidence).
    retired_at: Tick,
    /// Whether a replay has been flagged (flag once per token).
    flagged: bool,
}

/// The streaming monitor: fed observations by the service handlers as the
/// world runs, keeps one bounded entry per source, contested pair and
/// retired token, and accumulates a tick-stamped alert log. Its thresholds
/// are fixed: 8 distinct device IDs per source, 3 denials per pair.
#[derive(Debug, Default)]
pub struct Monitor {
    /// The cumulative tick-stamped alert log, in raise order. Never
    /// drained; this is the byte-stable alert stream.
    log: Vec<(Tick, SecurityAlert)>,
    /// Position in `log` up to which defenses have already reacted.
    defense_cursor: usize,
    /// Enumeration tracking per source.
    sources: HashMap<NodeId, Source>,
    /// Device public IPs observed from device sessions.
    device_ips: HashMap<DevId, u32>,
    /// `AlreadyBound` denials per device, then per challenger, so a known
    /// pair is found without cloning either half of its key.
    contested: HashMap<DevId, HashMap<UserId, Contested>>,
    /// Retired binding-session tokens.
    retired: HashMap<(DevId, SessionToken), Retired>,
    /// Quarantined devices and the tick their quarantine expires.
    quarantined: HashMap<DevId, Tick>,
    /// Metrics sink: every raised alert also bumps
    /// `cloud_alerts_total{kind="…"}`, feeds the
    /// `monitor_detection_latency_ticks{kind="…"}` histogram, records the
    /// `cloud_alerts` rate series, and publishes onto the streaming bus.
    telemetry: Telemetry,
}

impl Monitor {
    /// Points the monitor at a shared telemetry registry (normally the
    /// cloud service forwards its own handle here).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The cumulative tick-stamped alert log (never drained).
    pub fn alert_log(&self) -> &[(Tick, SecurityAlert)] {
        &self.log
    }

    /// Alerts of one kind over the whole run.
    pub fn count(&self, kind: &str) -> usize {
        self.log.iter().filter(|(_, a)| a.kind() == kind).count()
    }

    /// The byte-stable rendering of the alert stream: one
    /// `t=<tick> <kind> <detail>` line per alert, in raise order. The
    /// thread-count determinism gates diff this exact string.
    pub fn render_alert_stream(&self) -> String {
        let mut out = String::new();
        for (at, alert) in &self.log {
            let _ = writeln!(out, "t={} {}", at.as_u64(), alert.describe());
        }
        out
    }

    /// A deterministic summary of the monitor's internal state: alert
    /// totals per kind plus the sizes of every tracking table, rendered in
    /// sorted order. Byte-identical across runs and thread counts.
    pub fn render_state(&self) -> String {
        let mut kinds: BTreeMap<&'static str, usize> = BTreeMap::new();
        for (_, alert) in &self.log {
            *kinds.entry(alert.kind()).or_default() += 1;
        }
        let mut out = String::from("monitor-state\n");
        for (kind, n) in kinds {
            let _ = writeln!(out, "  alerts {kind}={n}");
        }
        let flagged = self
            .sources
            .values()
            .filter(|s| matches!(s, Source::Flagged))
            .count();
        let contested: usize = self.contested.values().map(HashMap::len).sum();
        let _ = writeln!(out, "  sources_tracked={}", self.sources.len());
        let _ = writeln!(out, "  sources_flagged={flagged}");
        let _ = writeln!(out, "  device_ips={}", self.device_ips.len());
        let _ = writeln!(out, "  contested_pairs={contested}");
        let _ = writeln!(out, "  retired_tokens={}", self.retired.len());
        let mut quarantined: Vec<String> = self
            .quarantined
            .iter()
            .map(|(dev, until)| format!("{dev}:{}", until.as_u64()))
            .collect();
        quarantined.sort_unstable();
        let _ = writeln!(out, "  quarantined=[{}]", quarantined.join(", "));
        out
    }

    /// Raises `alert` at `now` with detection evidence dating back to
    /// `evidence_at`: bumps the per-kind counter, feeds the detection
    /// latency histogram, records the `cloud_alerts` rate series, and
    /// publishes the alert onto the streaming bus.
    pub(crate) fn raise_with_evidence(
        &mut self,
        now: Tick,
        evidence_at: Tick,
        alert: SecurityAlert,
    ) {
        let kind = alert.kind();
        if self.telemetry.is_enabled() {
            self.telemetry
                .incr(&format!("cloud_alerts_total{{kind=\"{kind}\"}}"));
            self.telemetry.observe(
                &format!("monitor_detection_latency_ticks{{kind=\"{kind}\"}}"),
                now.as_u64().saturating_sub(evidence_at.as_u64()),
            );
            self.telemetry.rate_event("cloud_alerts", now.as_u64());
            self.telemetry
                .publish(now.as_u64(), "alert", &alert.describe());
        }
        self.log.push((now, alert));
    }

    /// Raises an alert whose evidence is the raising observation itself
    /// (zero detection latency).
    pub(crate) fn raise(&mut self, now: Tick, alert: SecurityAlert) {
        self.raise_with_evidence(now, now, alert);
    }

    /// Records that `source` addressed `dev_id`; raises the enumeration
    /// alert, once, when the source has touched
    /// [`ENUMERATION_THRESHOLD`] distinct IDs. Latency is measured from the
    /// first touch.
    ///
    /// A flagged source keeps its key, so `sources_tracked` still counts
    /// it, but drops its ID set: per-source state is capped at the
    /// threshold.
    pub(crate) fn observe_target(&mut self, source: NodeId, dev_id: &DevId, now: Tick) {
        let state = self
            .sources
            .entry(source)
            .or_insert_with(|| Source::Counting {
                ids: HashSet::new(),
                first_at: now,
            });
        let Source::Counting { ids, first_at } = state else {
            return;
        };
        if !ids.insert(dev_id.clone()) || ids.len() < ENUMERATION_THRESHOLD {
            return;
        }
        let (distinct_ids, evidence) = (ids.len(), *first_at);
        *state = Source::Flagged;
        self.raise_with_evidence(
            now,
            evidence,
            SecurityAlert::EnumerationSuspected {
                source,
                distinct_ids,
            },
        );
    }

    /// Records the public IP a device session spoke from; raises
    /// [`SecurityAlert::SessionMoved`] on change.
    pub(crate) fn observe_device_ip(&mut self, dev_id: &DevId, ip: u32, now: Tick) {
        match self.device_ips.insert(dev_id.clone(), ip) {
            Some(old_ip) if old_ip != ip => {
                self.raise(
                    now,
                    SecurityAlert::SessionMoved {
                        dev_id: dev_id.clone(),
                        old_ip,
                        new_ip: ip,
                    },
                );
            }
            _ => {}
        }
    }

    /// The last public IP a device session spoke from.
    pub(crate) fn device_ip(&self, dev_id: &DevId) -> Option<u32> {
        self.device_ips.get(dev_id).copied()
    }

    /// Records an `AlreadyBound` denial of `challenger` for a device held
    /// by `holder`; flags the pair, once, at [`CONTESTED_THRESHOLD`]
    /// denials and stops counting there. Latency is measured from the
    /// pair's first denial.
    pub(crate) fn observe_bind_denial(
        &mut self,
        dev_id: &DevId,
        holder: &UserId,
        challenger: &UserId,
        now: Tick,
    ) {
        let pairs = slot(&mut self.contested, dev_id, HashMap::new);
        let pair = slot(pairs, challenger, || Contested {
            denials: 0,
            first_at: now,
        });
        if pair.denials == CONTESTED_THRESHOLD {
            return;
        }
        pair.denials += 1;
        if pair.denials < CONTESTED_THRESHOLD {
            return;
        }
        let (denials, evidence) = (pair.denials, pair.first_at);
        self.raise_with_evidence(
            now,
            evidence,
            SecurityAlert::ContestedBinding {
                dev_id: dev_id.clone(),
                holder: holder.clone(),
                challenger: challenger.clone(),
                denials,
            },
        );
    }

    /// A status-family request from `from_ip` dropped the device's
    /// binding; raises [`SecurityAlert::ImpossibleTransition`] when the
    /// device is known to live at a different public IP.
    pub(crate) fn observe_binding_drop(&mut self, dev_id: &DevId, from_ip: u32, now: Tick) {
        if let Some(known_ip) = self.device_ip(dev_id) {
            if known_ip != from_ip {
                self.raise(
                    now,
                    SecurityAlert::ImpossibleTransition {
                        dev_id: dev_id.clone(),
                        from_ip,
                        known_ip,
                    },
                );
            }
        }
    }

    /// Marks a binding-session token as retired (unbind, reset, or
    /// defensive rotation). A later presentation of the token from a
    /// non-device IP is a stale-token replay.
    pub(crate) fn retire_token(&mut self, dev_id: &DevId, token: SessionToken, now: Tick) {
        self.retired
            .entry((dev_id.clone(), token))
            .or_insert(Retired {
                retired_at: now,
                flagged: false,
            });
    }

    /// Observes a presented binding-session token; raises
    /// [`SecurityAlert::StaleTokenReplay`] (once per token) when the token
    /// was retired and the presenter is not at the device's own IP.
    /// Latency is measured from the retirement tick.
    pub(crate) fn observe_presented_token(
        &mut self,
        dev_id: &DevId,
        token: SessionToken,
        from_ip: u32,
        now: Tick,
    ) {
        if self.device_ips.get(dev_id) == Some(&from_ip) {
            return;
        }
        let Some(retired) = self.retired.get_mut(&(dev_id.clone(), token)) else {
            return;
        };
        if retired.flagged {
            return;
        }
        retired.flagged = true;
        let evidence = retired.retired_at;
        self.raise_with_evidence(
            now,
            evidence,
            SecurityAlert::StaleTokenReplay {
                dev_id: dev_id.clone(),
                from_ip,
            },
        );
    }

    /// Places `dev_id` under quarantine until `until`.
    pub(crate) fn quarantine(&mut self, dev_id: &DevId, until: Tick) {
        let slot = self.quarantined.entry(dev_id.clone()).or_insert(until);
        if *slot < until {
            *slot = until;
        }
    }

    /// Whether `dev_id` is under quarantine at `now`.
    pub(crate) fn is_quarantined(&self, dev_id: &DevId, now: Tick) -> bool {
        self.quarantined
            .get(dev_id)
            .is_some_and(|&until| now < until)
    }

    /// The alerts raised since the last defense reaction, advancing the
    /// defense cursor past them. The service calls this after every
    /// handled request to drive the active responses.
    pub(crate) fn drain_defense_alerts(&mut self) -> Vec<(Tick, SecurityAlert)> {
        if self.defense_cursor == self.log.len() {
            return Vec::new();
        }
        let fresh = self.log[self.defense_cursor..].to_vec();
        self.defense_cursor = self.log.len();
        fresh
    }
}

/// The value under `key`, inserted by `init` when absent. The key is cloned
/// only on insertion.
fn slot<'a, K: Hash + Eq + Clone, V>(
    map: &'a mut HashMap<K, V>,
    key: &K,
    init: impl FnOnce() -> V,
) -> &'a mut V {
    if !map.contains_key(key) {
        map.insert(key.clone(), init());
    }
    match map.get_mut(key) {
        Some(value) => value,
        None => unreachable!("inserted above"),
    }
}

/// One alert of every kind, about `dev_id` where the kind names a device,
/// in declaration order.
#[cfg(test)]
pub(crate) fn one_of_each(dev_id: &DevId) -> [SecurityAlert; 9] {
    let (dev_id, victim, mallory) = (dev_id.clone(), UserId::new("v"), UserId::new("a"));
    [
        SecurityAlert::ForeignUnbind {
            dev_id: dev_id.clone(),
            victim: victim.clone(),
            requester: mallory.clone(),
        },
        SecurityAlert::BareUnbind {
            dev_id: dev_id.clone(),
            from_ip: 9,
        },
        SecurityAlert::BindingReplaced {
            dev_id: dev_id.clone(),
            victim: victim.clone(),
            new_holder: mallory.clone(),
        },
        SecurityAlert::SessionMoved {
            dev_id: dev_id.clone(),
            old_ip: 1,
            new_ip: 9,
        },
        SecurityAlert::EnumerationSuspected {
            source: NodeId(3),
            distinct_ids: ENUMERATION_THRESHOLD,
        },
        SecurityAlert::ContestedBinding {
            dev_id: dev_id.clone(),
            holder: victim.clone(),
            challenger: mallory.clone(),
            denials: CONTESTED_THRESHOLD,
        },
        SecurityAlert::RemoteOnlyBind {
            dev_id: dev_id.clone(),
            holder: mallory,
            from_ip: 9,
        },
        SecurityAlert::ImpossibleTransition {
            dev_id: dev_id.clone(),
            from_ip: 9,
            known_ip: 1,
        },
        SecurityAlert::StaleTokenReplay { dev_id, from_ip: 9 },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_wire::ids::{DevId, MacAddr};

    fn id(n: u8) -> DevId {
        DevId::Mac(MacAddr::new([n, 0, 0, 0, 0, 0]))
    }

    #[test]
    fn enumeration_flags_once_at_threshold() {
        let mut m = Monitor::default();
        for i in 0..ENUMERATION_THRESHOLD as u8 + 4 {
            m.observe_target(NodeId(9), &id(i), Tick(1));
        }
        assert_eq!(m.count("enumeration"), 1, "{:?}", m.alert_log());
        // A second source has its own counter.
        m.observe_target(NodeId(8), &id(0), Tick(2));
        assert_eq!(m.count("enumeration"), 1);
    }

    fn serial(seq: u64) -> DevId {
        DevId::Serial { vendor: 7, seq }
    }

    #[test]
    fn flagged_source_tables_stay_bounded() {
        let mut m = Monitor::default();
        let source = NodeId(9);
        for seq in 0..100_000 + ENUMERATION_THRESHOLD as u64 {
            m.observe_target(source, &serial(seq), Tick(seq));
        }
        assert_eq!(m.count("enumeration"), 1);
        assert!(matches!(m.sources[&source], Source::Flagged));
        assert!(m.render_state().contains("sources_tracked=1\n"));
    }

    #[test]
    fn flagged_pair_stops_counting() {
        let mut m = Monitor::default();
        let (holder, mallory) = (UserId::new("owner"), UserId::new("mallory"));
        for t in 0..100_000 + u64::from(CONTESTED_THRESHOLD) {
            m.observe_bind_denial(&id(1), &holder, &mallory, Tick(t));
        }
        assert_eq!(m.count("contested-binding"), 1);
        assert_eq!(m.contested.len(), 1);
        assert_eq!(m.contested[&id(1)][&mallory].denials, CONTESTED_THRESHOLD);
        assert!(m.render_state().contains("contested_pairs=1\n"));
    }

    /// The monitor's tracking as it was with one table per fact: distinct
    /// IDs, first-touch ticks and flags per source, with the sliding-window
    /// burst detector at 8 IDs per 10 000 ticks beside the total of 8;
    /// denial counts, first denials and flags per contested pair;
    /// retirement ticks and replay flags per token. Alerts and device IPs go
    /// through an inner [`Monitor`] whose own tracking tables stay empty,
    /// so streams and telemetry compare directly.
    #[derive(Default)]
    struct Reference {
        inner: Monitor,
        touched: HashMap<NodeId, HashSet<DevId>>,
        first_touch: HashMap<NodeId, Vec<u64>>,
        flagged: HashSet<NodeId>,
        contested: HashMap<(DevId, UserId), u32>,
        contested_first: HashMap<(DevId, UserId), Tick>,
        contested_flagged: HashSet<(DevId, UserId)>,
        retired: HashMap<(DevId, SessionToken), Tick>,
        replay_flagged: HashSet<(DevId, SessionToken)>,
    }

    impl Reference {
        const TOTAL: usize = 8;
        const BURST: usize = 8;
        const WINDOW: u64 = 10_000;
        const CONTESTED: u32 = 3;

        fn new(telemetry: Telemetry) -> Self {
            let mut reference = Reference::default();
            reference.inner.set_telemetry(telemetry);
            reference
        }

        fn observe_target(&mut self, source: NodeId, dev_id: &DevId, now: Tick) {
            let set = self.touched.entry(source).or_default();
            if !set.insert(dev_id.clone()) {
                return;
            }
            let total = set.len();
            let ticks = self.first_touch.entry(source).or_default();
            ticks.push(now.as_u64());
            let window_start = now.as_u64().saturating_sub(Self::WINDOW);
            let in_window = ticks.partition_point(|&t| t <= window_start);
            let hit_window = ticks.len() - in_window >= Self::BURST;
            if (total >= Self::TOTAL || hit_window) && self.flagged.insert(source) {
                let evidence = if hit_window {
                    ticks[in_window]
                } else {
                    ticks[0]
                };
                self.inner.raise_with_evidence(
                    now,
                    Tick(evidence),
                    SecurityAlert::EnumerationSuspected {
                        source,
                        distinct_ids: total,
                    },
                );
            }
        }

        fn observe_bind_denial(&mut self, dev: &DevId, holder: &UserId, by: &UserId, now: Tick) {
            let key = (dev.clone(), by.clone());
            self.contested_first.entry(key.clone()).or_insert(now);
            let n = self.contested.entry(key.clone()).or_default();
            *n += 1;
            let denials = *n;
            if denials >= Self::CONTESTED && self.contested_flagged.insert(key.clone()) {
                let evidence = self.contested_first[&key];
                self.inner.raise_with_evidence(
                    now,
                    evidence,
                    SecurityAlert::ContestedBinding {
                        dev_id: dev.clone(),
                        holder: holder.clone(),
                        challenger: by.clone(),
                        denials,
                    },
                );
            }
        }

        fn retire_token(&mut self, dev_id: &DevId, token: SessionToken, now: Tick) {
            self.retired.entry((dev_id.clone(), token)).or_insert(now);
        }

        fn observe_presented_token(
            &mut self,
            dev: &DevId,
            token: SessionToken,
            ip: u32,
            now: Tick,
        ) {
            let key = (dev.clone(), token);
            let Some(&retired_at) = self.retired.get(&key) else {
                return;
            };
            if self.inner.device_ip(dev) == Some(ip) {
                return;
            }
            if self.replay_flagged.insert(key) {
                self.inner.raise_with_evidence(
                    now,
                    retired_at,
                    SecurityAlert::StaleTokenReplay {
                        dev_id: dev.clone(),
                        from_ip: ip,
                    },
                );
            }
        }

        /// `Monitor::render_state`'s text over the reference's own tables
        /// (the inner monitor's stay empty).
        fn render_state(&self) -> String {
            [
                ("sources_tracked", self.touched.len()),
                ("sources_flagged", self.flagged.len()),
                ("contested_pairs", self.contested.len()),
                ("retired_tokens", self.retired.len()),
            ]
            .iter()
            .fold(self.inner.render_state(), |state, (table, n)| {
                state.replace(&format!("  {table}=0\n"), &format!("  {table}={n}\n"))
            })
        }
    }

    #[test]
    fn bounded_tables_render_like_the_unbounded_ones() {
        let (tele, ref_tele) = (Telemetry::new(), Telemetry::new());
        let mut folded = Monitor::default();
        folded.set_telemetry(tele.clone());
        let mut reference = Reference::new(ref_tele.clone());
        let users: Vec<UserId> = (0..4).map(|u| UserId::new(format!("u{u}"))).collect();
        // A fixed pseudo-random mix of sources, repeated IDs, tick gaps,
        // device sessions, contested denials and token retire/present.
        // Source 99 probes rarely, so only the total threshold can flag it;
        // the others probe densely enough to fill the old window too.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        };
        let mut now = 0;
        for _ in 0..40_000 {
            now += next() % 200;
            let at = Tick(now);
            let dev = serial(next() % 3_000);
            match next() % 8 {
                0 => {
                    let ip = (next() % 4) as u32;
                    folded.observe_device_ip(&dev, ip, at);
                    reference.inner.observe_device_ip(&dev, ip, at);
                }
                1 => {
                    let dev = serial(next() % 40);
                    let (holder, by) = (&users[0], &users[1 + (next() % 3) as usize]);
                    folded.observe_bind_denial(&dev, holder, by, at);
                    reference.observe_bind_denial(&dev, holder, by, at);
                }
                2 => {
                    let dev = serial(next() % 40);
                    let token = SessionToken::from_entropy(u128::from(next() % 16));
                    if next() % 2 == 0 {
                        folded.retire_token(&dev, token, at);
                        reference.retire_token(&dev, token, at);
                    } else {
                        let ip = (next() % 4) as u32;
                        folded.observe_presented_token(&dev, token, ip, at);
                        reference.observe_presented_token(&dev, token, ip, at);
                    }
                }
                _ => {
                    let source = if next() % 64 == 0 {
                        NodeId(99)
                    } else {
                        NodeId(1 + (next() % 5) as u32)
                    };
                    folded.observe_target(source, &dev, at);
                    reference.observe_target(source, &dev, at);
                }
            }
        }
        for kind in ["enumeration", "contested-binding", "stale-token-replay"] {
            assert!(folded.count(kind) > 0, "the mix exercises {kind}");
        }
        assert_eq!(folded.count("enumeration"), 6, "every source flags");
        assert_eq!(
            folded.render_alert_stream(),
            reference.inner.render_alert_stream()
        );
        assert_eq!(folded.render_state(), reference.render_state());
        // Alert counters and detection-latency histograms, per kind.
        let prom = tele.to_prometheus();
        assert!(prom.contains("monitor_detection_latency_ticks"), "{prom}");
        assert_eq!(prom, ref_tele.to_prometheus());
    }

    #[test]
    fn enumeration_latency_measures_from_the_first_touch() {
        let tele = Telemetry::new();
        let mut m = Monitor::default();
        m.set_telemetry(tele.clone());
        for i in 0..ENUMERATION_THRESHOLD as u8 {
            m.observe_target(NodeId(9), &id(i), Tick(5_000 + 50 * u64::from(i)));
        }
        let snap = tele.snapshot();
        let hist = snap
            .histogram("monitor_detection_latency_ticks{kind=\"enumeration\"}")
            .expect("latency histogram");
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.sum(), 350, "evidence = the source's first touch");
    }

    #[test]
    fn session_move_detected_only_on_change() {
        let mut m = Monitor::default();
        m.observe_device_ip(&id(1), 100, Tick(1));
        m.observe_device_ip(&id(1), 100, Tick(2));
        assert_eq!(m.count("session-moved"), 0);
        m.observe_device_ip(&id(1), 200, Tick(3));
        assert_eq!(m.count("session-moved"), 1);
        assert_eq!(m.device_ip(&id(1)), Some(200));
    }

    #[test]
    fn impossible_transition_requires_a_foreign_ip() {
        let mut m = Monitor::default();
        // Unknown device IP: no basis for impossibility.
        m.observe_binding_drop(&id(1), 9_999, Tick(5));
        assert_eq!(m.count("impossible-transition"), 0);
        m.observe_device_ip(&id(1), 1_000, Tick(6));
        // Same IP as the device (the benign household reset): silent.
        m.observe_binding_drop(&id(1), 1_000, Tick(7));
        assert_eq!(m.count("impossible-transition"), 0);
        // Foreign IP: alert.
        m.observe_binding_drop(&id(1), 9_999, Tick(8));
        assert_eq!(m.count("impossible-transition"), 1);
    }

    #[test]
    fn stale_token_replay_flags_foreign_presentations_once() {
        let mut m = Monitor::default();
        let token = SessionToken::from_entropy(42);
        m.observe_device_ip(&id(1), 1_000, Tick(1));
        // Live token: nothing to flag.
        m.observe_presented_token(&id(1), token, 9_999, Tick(2));
        assert_eq!(m.count("stale-token-replay"), 0);
        m.retire_token(&id(1), token, Tick(10));
        // The honest device still heartbeating its stale token from its
        // own IP is desync, not an attack.
        m.observe_presented_token(&id(1), token, 1_000, Tick(20));
        assert_eq!(m.count("stale-token-replay"), 0);
        // A foreign replay flags, exactly once.
        m.observe_presented_token(&id(1), token, 9_999, Tick(30));
        m.observe_presented_token(&id(1), token, 9_999, Tick(40));
        assert_eq!(m.count("stale-token-replay"), 1);
    }

    #[test]
    fn stale_token_latency_measures_from_retirement() {
        let tele = Telemetry::new();
        let mut m = Monitor::default();
        m.set_telemetry(tele.clone());
        let token = SessionToken::from_entropy(7);
        m.retire_token(&id(1), token, Tick(100));
        m.observe_presented_token(&id(1), token, 9_999, Tick(350));
        let snap = tele.snapshot();
        let hist = snap
            .histogram("monitor_detection_latency_ticks{kind=\"stale-token-replay\"}")
            .expect("latency histogram");
        assert_eq!((hist.count(), hist.sum()), (1, 250));
    }

    #[test]
    fn alert_kinds_are_pinned() {
        // Experiment tables and the telemetry counter labels key on these
        // exact strings; changing one silently breaks both.
        let kinds = [
            "foreign-unbind",
            "bare-unbind",
            "binding-replaced",
            "session-moved",
            "enumeration",
            "contested-binding",
            "remote-only-bind",
            "impossible-transition",
            "stale-token-replay",
        ];
        for (alert, kind) in one_of_each(&id(1)).into_iter().zip(kinds) {
            assert_eq!(alert.kind(), kind);
            assert!(
                alert.describe().starts_with(kind),
                "describe() leads with the kind: {}",
                alert.describe()
            );
        }
    }

    #[test]
    fn contested_binding_flags_once_at_threshold_per_challenger() {
        let mut m = Monitor::default();
        let holder = UserId::new("owner");
        let mallory = UserId::new("mallory");
        for _ in 0..2 {
            m.observe_bind_denial(&id(1), &holder, &mallory, Tick(10));
        }
        assert_eq!(m.count("contested-binding"), 0, "below threshold");
        for _ in 0..3 {
            m.observe_bind_denial(&id(1), &holder, &mallory, Tick(20));
        }
        assert_eq!(m.count("contested-binding"), 1, "flagged exactly once");
        // A different challenger on the same device gets its own counter.
        let eve = UserId::new("eve");
        for _ in 0..3 {
            m.observe_bind_denial(&id(1), &holder, &eve, Tick(30));
        }
        assert_eq!(m.count("contested-binding"), 2);
    }

    #[test]
    fn contested_latency_measures_from_the_first_denial() {
        let tele = Telemetry::new();
        let mut m = Monitor::default();
        m.set_telemetry(tele.clone());
        let holder = UserId::new("owner");
        let mallory = UserId::new("mallory");
        m.observe_bind_denial(&id(1), &holder, &mallory, Tick(100));
        m.observe_bind_denial(&id(1), &holder, &mallory, Tick(200));
        m.observe_bind_denial(&id(1), &holder, &mallory, Tick(450));
        let snap = tele.snapshot();
        let hist = snap
            .histogram("monitor_detection_latency_ticks{kind=\"contested-binding\"}")
            .expect("latency histogram");
        assert_eq!((hist.count(), hist.sum()), (1, 350));
    }

    #[test]
    fn raise_emits_telemetry_counters_per_kind() {
        let tele = Telemetry::new();
        let mut m = Monitor::default();
        m.set_telemetry(tele.clone());
        m.raise(
            Tick(1),
            SecurityAlert::BareUnbind {
                dev_id: id(1),
                from_ip: 5,
            },
        );
        m.raise(
            Tick(2),
            SecurityAlert::BareUnbind {
                dev_id: id(2),
                from_ip: 5,
            },
        );
        m.raise(
            Tick(3),
            SecurityAlert::ForeignUnbind {
                dev_id: id(1),
                victim: UserId::new("v"),
                requester: UserId::new("a"),
            },
        );
        assert_eq!(tele.counter("cloud_alerts_total{kind=\"bare-unbind\"}"), 2);
        assert_eq!(
            tele.counter("cloud_alerts_total{kind=\"foreign-unbind\"}"),
            1
        );
        // Draining the defense cursor does not reset the counters.
        assert_eq!(m.drain_defense_alerts().len(), 3);
        assert_eq!(tele.counter("cloud_alerts_total{kind=\"bare-unbind\"}"), 2);
        // Every raise also lands on the streaming bus and the rate series.
        let (_, events) = tele.events_since(0);
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].topic, "alert");
        assert!(events[0].body.starts_with("bare-unbind"));
        assert_eq!(tele.rate("cloud_alerts", 10), 3);
    }

    #[test]
    fn threshold_alerts_reach_telemetry_too() {
        let tele = Telemetry::new();
        let mut m = Monitor::default();
        m.set_telemetry(tele.clone());
        for i in 0..ENUMERATION_THRESHOLD as u8 {
            m.observe_target(NodeId(9), &id(i), Tick(1));
        }
        assert_eq!(tele.counter("cloud_alerts_total{kind=\"enumeration\"}"), 1);
        m.observe_device_ip(&id(1), 100, Tick(2));
        m.observe_device_ip(&id(1), 200, Tick(3));
        assert_eq!(
            tele.counter("cloud_alerts_total{kind=\"session-moved\"}"),
            1
        );
    }

    #[test]
    fn alert_stream_and_state_render_deterministically() {
        let run = || {
            let mut m = Monitor::default();
            m.observe_device_ip(&id(1), 100, Tick(5));
            m.observe_device_ip(&id(1), 9_999, Tick(40));
            m.quarantine(&id(1), Tick(500));
            m.quarantine(&id(2), Tick(300));
            (m.render_alert_stream(), m.render_state())
        };
        let (stream, state) = run();
        assert_eq!((stream.clone(), state.clone()), run());
        assert!(
            stream.contains("t=40 session-moved dev="),
            "stream lines are tick-stamped: {stream}"
        );
        assert!(state.contains("alerts session-moved=1"), "{state}");
        assert!(state.contains("quarantined=["), "{state}");
    }

    #[test]
    fn quarantine_expires_and_extends() {
        let mut m = Monitor::default();
        m.quarantine(&id(1), Tick(100));
        assert!(m.is_quarantined(&id(1), Tick(50)));
        assert!(!m.is_quarantined(&id(1), Tick(100)), "until is exclusive");
        assert!(!m.is_quarantined(&id(2), Tick(50)));
        // Extension keeps the later deadline; shrinking is ignored.
        m.quarantine(&id(1), Tick(200));
        m.quarantine(&id(1), Tick(150));
        assert!(m.is_quarantined(&id(1), Tick(199)));
    }

    #[test]
    fn defense_drain_sees_each_alert_once() {
        let mut m = Monitor::default();
        m.raise(
            Tick(1),
            SecurityAlert::BareUnbind {
                dev_id: id(1),
                from_ip: 5,
            },
        );
        let first = m.drain_defense_alerts();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].0, Tick(1));
        assert!(m.drain_defense_alerts().is_empty());
        m.raise(
            Tick(9),
            SecurityAlert::BareUnbind {
                dev_id: id(2),
                from_ip: 5,
            },
        );
        assert_eq!(m.drain_defense_alerts().len(), 1);
        // The log itself is untouched by draining.
        assert_eq!(m.alert_log().len(), 2);
    }

    #[test]
    fn hardened_policy_is_enabled_and_default_is_not() {
        assert!(!DefensePolicy::default().is_enabled());
        assert!(!DefensePolicy::disabled().is_enabled());
        let hard = DefensePolicy::hardened();
        assert!(hard.is_enabled());
        assert!(hard.rotate_tokens);
        assert!(hard.bind_limit.is_some());
        assert!(hard.quarantine_ticks > 0);
    }
}
