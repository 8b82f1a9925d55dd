//! Standalone replays that price one layer at a time, outside any world:
//!
//! * [`replay_homes`] — a cloud built with `new`/`manufacture`/
//!   `provision_account` handles each home's setup requests and then
//!   heartbeats; `CloudService::handle_message` is timed per request kind
//!   and `Envelope::encode_with`/`decode_with` per frame kind, and both are
//!   weighted by the run's own `cloud_requests_total{kind}` mix.
//! * [`replay_probes`] — the same cloud-side timing for `dos_enum`'s
//!   enumeration probes under the hardened defense.
//! * [`queue_ns_per_event`] — a `Simulation` of null actors replaying a
//!   workload's event mix at its heap depth: the event loop's own cost.

use std::collections::BTreeMap;
use std::time::Instant;

use bytes::Bytes;
use rb_cloud::{CloudConfig, CloudService, DefensePolicy};
use rb_core::design::{BindScheme, DeviceAuthScheme, VendorDesign};
use rb_netsim::{
    Actor, Ctx, Dest, LinkQuality, NodeConfig, NodeId, SimRng, Simulation, Telemetry, Tick,
};
use rb_wire::codec::CodecKind;
use rb_wire::envelope::{CorrId, Envelope};
use rb_wire::ids::{DevId, IdScheme};
use rb_wire::messages::{
    BindPayload, DeviceAttributes, Message, Response, StatusAuth, StatusPayload,
};
use rb_wire::telemetry::TelemetryFrame;
use rb_wire::tokens::{DevToken, UserId, UserPw};

/// Heartbeats replayed per home after its setup requests.
const HEARTBEATS: usize = 8;
/// Passes over the frame corpus when timing the codec.
const CODEC_PASSES: usize = 8;

/// What a replay measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayOut {
    /// `handle_message` nanoseconds per request, weighted by the run's mix.
    pub handle_ns_per_req: f64,
    /// `decode_with` nanoseconds per frame, weighted by the run's mix.
    pub decode_ns_per_msg: f64,
    /// `encode_with` nanoseconds per frame, weighted by the run's mix.
    pub encode_ns_per_msg: f64,
    /// Mean frame size in bytes, weighted by the run's mix.
    pub bytes_per_msg: f64,
}

/// Per-kind timing tallies: `(samples, total ns, frame bytes)`.
#[derive(Default)]
struct Tally {
    handle: BTreeMap<&'static str, (u64, u64)>,
    frames: BTreeMap<&'static str, Vec<Bytes>>,
}

impl Tally {
    /// Times one request and keeps its request and reply frames.
    fn handle(
        &mut self,
        cloud: &mut CloudService,
        from: NodeId,
        now: u64,
        msg: Message,
        rng: &mut SimRng,
        codec: CodecKind,
    ) -> Response {
        let kind = msg.kind_str();
        let t = Instant::now();
        let out = cloud.handle_message(from, Tick(now), &msg, rng);
        let ns = crate::nanos_since(t);
        let e = self.handle.entry(kind).or_default();
        e.0 += 1;
        e.1 += ns;
        let frames = self.frames.entry(kind).or_default();
        frames.push(
            Envelope::Request {
                corr: CorrId(now),
                msg,
            }
            .encode_with(codec),
        );
        frames.push(
            Envelope::Response {
                corr: CorrId(now),
                rsp: out.reply.clone(),
            }
            .encode_with(codec),
        );
        out.reply
    }

    /// Weights the per-kind means by `mix` (kinds the replay never saw
    /// fall back to the all-kind mean) and times the codec on the frames.
    fn finish(&self, codec: CodecKind, mix: &BTreeMap<String, u64>) -> ReplayOut {
        let mut out = ReplayOut::default();
        let (all_n, all_ns) = self
            .handle
            .values()
            .fold((0, 0), |(n, s), (a, b)| (n + a, s + b));
        let fallback = all_ns as f64 / all_n.max(1) as f64;
        let codec_cost: BTreeMap<&str, (f64, f64, f64)> = self
            .frames
            .iter()
            .map(|(k, frames)| (*k, time_codec(codec, frames)))
            .collect();
        let all_codec = time_codec(
            codec,
            &self.frames.values().flatten().cloned().collect::<Vec<_>>(),
        );
        let total: u64 = mix.values().sum();
        let mix: Vec<(&str, u64)> = if total == 0 {
            self.handle.iter().map(|(k, (n, _))| (*k, *n)).collect()
        } else {
            mix.iter().map(|(k, v)| (k.as_str(), *v)).collect()
        };
        let weight: u64 = mix.iter().map(|(_, v)| v).sum::<u64>().max(1);
        for (kind, count) in mix {
            let w = count as f64 / weight as f64;
            let handle = self
                .handle
                .get(kind)
                .map_or(fallback, |(n, ns)| *ns as f64 / (*n).max(1) as f64);
            let (enc, dec, bytes) = codec_cost.get(kind).copied().unwrap_or(all_codec);
            out.handle_ns_per_req += w * handle;
            out.encode_ns_per_msg += w * enc;
            out.decode_ns_per_msg += w * dec;
            out.bytes_per_msg += w * bytes;
        }
        out
    }
}

/// `(encode ns, decode ns, bytes)` per frame over `frames`.
fn time_codec(codec: CodecKind, frames: &[Bytes]) -> (f64, f64, f64) {
    if frames.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let envs: Vec<Envelope> = frames
        .iter()
        .filter_map(|f| Envelope::decode_with(codec, f).ok())
        .collect();
    let bytes = frames.iter().map(Bytes::len).sum::<usize>() as f64 / frames.len() as f64;
    let t = Instant::now();
    for _ in 0..CODEC_PASSES {
        for env in &envs {
            std::hint::black_box(env.encode_with(codec));
        }
    }
    let enc = crate::nanos_since(t) as f64 / (CODEC_PASSES * envs.len().max(1)) as f64;
    let t = Instant::now();
    for _ in 0..CODEC_PASSES {
        for f in frames {
            let _ = std::hint::black_box(Envelope::decode_with(codec, f));
        }
    }
    let dec = crate::nanos_since(t) as f64 / (CODEC_PASSES * frames.len()) as f64;
    (enc, dec, bytes)
}

/// A manufactured device's factory secret and optional signing key.
type DeviceSecrets = (u128, Option<(u64, u128)>);

fn standalone(
    design: &VendorDesign,
    codec: CodecKind,
    homes: usize,
) -> (CloudService, Vec<DeviceSecrets>) {
    let mut cloud = CloudService::new(CloudConfig::new(design.clone()));
    cloud.set_telemetry(Telemetry::disabled());
    cloud.set_codec(codec);
    let mut secrets = Vec::with_capacity(homes);
    for i in 0..homes {
        let secret = 0x5eed_0000_u128 + i as u128;
        let key =
            (design.auth == DeviceAuthScheme::PublicKey).then(|| (i as u64 + 1, secret ^ 0xabcd));
        cloud.manufacture(design.id_scheme.id_at(i as u64), secret, key);
        cloud.provision_account(user(i).0, user(i).1);
        secrets.push((secret, key));
    }
    (cloud, secrets)
}

fn user(i: usize) -> (UserId, UserPw) {
    (
        UserId::new(format!("user{i}@example.com")),
        UserPw::new(format!("pw-{i}")),
    )
}

/// Replays every home's setup requests (login, token requests, register,
/// bind) and then heartbeats on a standalone cloud per design, and prices
/// the run's request mix with the measured per-kind costs.
pub fn replay_homes(
    designs: &[VendorDesign],
    codec: CodecKind,
    homes: usize,
    mix: &BTreeMap<String, u64>,
    seed: u64,
) -> ReplayOut {
    let mut tally = Tally::default();
    let mut rng = SimRng::new(seed);
    for design in designs {
        let (mut cloud, secrets) = standalone(design, codec, homes);
        let mut now = 1;
        let mut status = Vec::with_capacity(homes);
        for (i, (secret, key)) in secrets.iter().enumerate() {
            let dev_id = design.id_scheme.id_at(i as u64);
            let app = NodeId(2 * i as u32 + 1);
            let dev = NodeId(2 * i as u32 + 2);
            let (user_id, user_pw) = user(i);
            now += 10;
            let rsp = tally.handle(
                &mut cloud,
                app,
                now,
                Message::Login {
                    user_id: user_id.clone(),
                    user_pw: user_pw.clone(),
                },
                &mut rng,
                codec,
            );
            let Response::LoginOk { user_token } = rsp else {
                continue;
            };
            let mut dev_token = DevToken::from_entropy(0);
            if design.auth == DeviceAuthScheme::DevToken {
                now += 10;
                if let Response::DevTokenIssued { dev_token: t } = tally.handle(
                    &mut cloud,
                    app,
                    now,
                    Message::RequestDevToken { user_token },
                    &mut rng,
                    codec,
                ) {
                    dev_token = t;
                }
            }
            let auth = match design.auth {
                DeviceAuthScheme::DevToken => StatusAuth::DevToken(dev_token),
                DeviceAuthScheme::DevId => StatusAuth::DevId(dev_id.clone()),
                DeviceAuthScheme::Opaque => StatusAuth::DevToken(DevToken::from_entropy(*secret)),
                DeviceAuthScheme::PublicKey => {
                    let (key_id, k) = key.unwrap_or((0, 0));
                    StatusAuth::PublicKey {
                        key_id,
                        signature: rb_wire::crypto::sign_dev_id(k, &dev_id),
                    }
                }
            };
            now += 10;
            let register =
                StatusPayload::register(auth.clone(), dev_id.clone(), DeviceAttributes::default());
            tally.handle(
                &mut cloud,
                dev,
                now,
                Message::Status(register),
                &mut rng,
                codec,
            );
            let bind = match design.bind {
                BindScheme::AclApp => Some((
                    app,
                    BindPayload::AclApp {
                        dev_id: dev_id.clone(),
                        user_token,
                    },
                )),
                BindScheme::AclDevice => Some((
                    dev,
                    BindPayload::AclDevice {
                        dev_id: dev_id.clone(),
                        user_id,
                        user_pw,
                    },
                )),
                BindScheme::Capability => {
                    now += 10;
                    match tally.handle(
                        &mut cloud,
                        app,
                        now,
                        Message::RequestBindToken { user_token },
                        &mut rng,
                        codec,
                    ) {
                        Response::BindTokenIssued { bind_token } => {
                            Some((dev, BindPayload::Capability { bind_token }))
                        }
                        _ => None,
                    }
                }
            };
            let mut session = None;
            if let Some((from, payload)) = bind {
                now += 10;
                if let Response::Bound { session: s } = tally.handle(
                    &mut cloud,
                    from,
                    now,
                    Message::Bind(payload),
                    &mut rng,
                    codec,
                ) {
                    session = s;
                }
            }
            status.push((dev, auth, dev_id, session));
        }
        for beat in 0..HEARTBEATS {
            for (dev, auth, dev_id, session) in &status {
                now += 1;
                let mut hb = StatusPayload::heartbeat(auth.clone(), dev_id.clone());
                hb.session = *session;
                hb.telemetry = vec![TelemetryFrame::PowerMilliwatts(1_000 + beat as u64)];
                tally.handle(&mut cloud, *dev, now, Message::Status(hb), &mut rng, codec);
            }
        }
    }
    tally.finish(codec, mix)
}

/// Replays `probes` enumeration probes (one `Bind` every `gap` ticks over
/// `window`) against a standalone hardened cloud holding `victims`
/// manufactured devices, and prices them.
pub fn replay_probes(
    design: &VendorDesign,
    codec: CodecKind,
    victims: usize,
    window: &IdScheme,
    probes: u64,
    gap: u64,
    seed: u64,
) -> ReplayOut {
    let (mut cloud, _) = standalone(design, codec, victims);
    cloud.set_defense(DefensePolicy::hardened());
    let attacker = NodeId(1);
    let mut tally = Tally::default();
    let mut rng = SimRng::new(seed);
    cloud.provision_account(
        UserId::new(rb_attack::adversary::ATTACKER_ID),
        UserPw::new(rb_attack::adversary::ATTACKER_PW),
    );
    let login = Message::Login {
        user_id: UserId::new(rb_attack::adversary::ATTACKER_ID),
        user_pw: UserPw::new(rb_attack::adversary::ATTACKER_PW),
    };
    let Response::LoginOk { user_token } = cloud
        .handle_message(attacker, Tick(1), &login, &mut rng)
        .reply
    else {
        return ReplayOut::default();
    };
    for j in 0..probes {
        let dev_id: DevId = window.id_at(j);
        let msg = Message::Bind(BindPayload::AclApp { dev_id, user_token });
        tally.handle(&mut cloud, attacker, 2 + gap * j, msg, &mut rng, codec);
    }
    tally.finish(codec, &BTreeMap::new())
}

/// A null actor: re-arms one timer per `period` ticks and, on a
/// deterministic fraction of its timers, sends a small frame to `peer`.
struct Null {
    period: u64,
    peer: NodeId,
    /// Sends per timer, in 1/1024ths (a Bresenham accumulator).
    send_per_1024: u64,
    acc: u64,
}

impl Actor for Null {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let phase = 1 + u64::from(ctx.id().0) % self.period;
        ctx.set_timer(phase, 1);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _key: u64) {
        self.acc += self.send_per_1024;
        while self.acc >= 1_024 {
            self.acc -= 1_024;
            ctx.send(Dest::Unicast(self.peer), vec![0u8; 24]);
        }
        ctx.set_timer(self.period, 1);
    }
}

/// Wall nanoseconds per event of a null-actor `Simulation` with `nodes`
/// actors (the heap depth) whose timer share matches `timer_share`, run
/// for about `events` events.
pub fn queue_ns_per_event(nodes: usize, timer_share: f64, events: u64, seed: u64) -> f64 {
    let nodes = nodes.max(2);
    let share = timer_share.clamp(0.05, 1.0);
    // timers / (timers + deliveries) = share  =>  sends per timer:
    let send_per_1024 = ((1.0 - share) / share * 1_024.0).round() as u64;
    let period = 20;
    let mut sim = Simulation::with_quality(seed, LinkQuality::perfect(), LinkQuality::perfect());
    sim.set_telemetry(Telemetry::disabled());
    for i in 0..nodes {
        let peer = NodeId(((i + 1) % nodes) as u32);
        sim.add_node(
            NodeConfig::wan_only(format!("null{i}")),
            Box::new(Null {
                period,
                peer,
                send_per_1024,
                acc: 0,
            }),
        );
    }
    // Events per tick ~ nodes / period * (1 + sends per timer).
    let per_tick = nodes as f64 / period as f64 * (1.0 + send_per_1024 as f64 / 1_024.0);
    let ticks = (events as f64 / per_tick).ceil().max(1.0) as u64;
    sim.run_for(period); // start-up events out of the timed window
    let mut stepped = 0u64;
    let until = sim.now().saturating_add(ticks);
    let t = Instant::now();
    while sim.now() < until && sim.step() {
        stepped += 1;
    }
    crate::nanos_since(t) as f64 / stepped.max(1) as f64
}
