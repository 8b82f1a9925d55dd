//! The wire-codec shootout: encode and decode a deterministic
//! mixed-traffic corpus through every [`CodecKind`] under the counting
//! allocator. `exp_codec` prints it and the `work_counters` test pins its
//! frame sizes and allocation counts; both call [`codec_shootout`].

use std::time::Instant;

use bytes::Bytes;
use rb_prof::{AllocScope, AllocStats};
use rb_wire::codec::CodecKind;
use rb_wire::envelope::{CorrId, Envelope};
use rb_wire::ids::{DevId, MacAddr};
use rb_wire::messages::{
    BindPayload, ControlAction, DeviceAttributes, Message, Response, StatusAuth, StatusKind,
    StatusPayload,
};
use rb_wire::telemetry::TelemetryFrame;
use rb_wire::tokens::{DevToken, SessionToken, UserId, UserPw, UserToken};

/// Passes over the corpus per codec in `exp_codec` by default.
pub const DEFAULT_ITERS: usize = 2_000;

/// The message blend 50 home lifecycles put on the wire (logins,
/// registers, binds, control round-trips, heartbeats, telemetry pushes),
/// eight frames per home.
pub fn codec_corpus() -> Vec<Envelope> {
    (0..50).flat_map(corpus_slice).collect()
}

/// One home-lifecycle's worth of wire traffic, `i` varying the identifying
/// fields so no two frames are byte-identical.
fn corpus_slice(i: u64) -> Vec<Envelope> {
    let dev_id = DevId::Mac(MacAddr::new([
        0x94,
        0x10,
        (i >> 24) as u8,
        (i >> 16) as u8,
        (i >> 8) as u8,
        i as u8,
    ]));
    let user_token = UserToken::from_entropy(u128::from(i).wrapping_mul(0x9e37_79b9));
    let dev_token = DevToken::from_entropy(u128::from(i).wrapping_mul(0x85eb_ca6b) | 1);
    vec![
        Envelope::Request {
            corr: CorrId(i * 10 + 1),
            msg: Message::Login {
                user_id: UserId::new(format!("resident{i}@example.com")),
                user_pw: UserPw::new("correct horse battery"),
            },
        },
        Envelope::Request {
            corr: CorrId(i * 10 + 2),
            msg: Message::Status(StatusPayload::register(
                StatusAuth::DevToken(dev_token),
                dev_id.clone(),
                DeviceAttributes::new("HS110", "1.2.6"),
            )),
        },
        Envelope::Request {
            corr: CorrId(i * 10 + 3),
            msg: Message::Bind(BindPayload::AclApp {
                dev_id: dev_id.clone(),
                user_token,
            }),
        },
        Envelope::Request {
            corr: CorrId(i * 10 + 4),
            msg: Message::Control {
                dev_id: dev_id.clone(),
                user_token,
                session: None,
                action: ControlAction::TurnOn,
            },
        },
        // The steady-state bulk: heartbeats and telemetry pushes.
        Envelope::Request {
            corr: CorrId(i * 10 + 5),
            msg: Message::Status(StatusPayload {
                auth: StatusAuth::DevToken(dev_token),
                dev_id: dev_id.clone(),
                kind: StatusKind::Heartbeat,
                attributes: DeviceAttributes::default(),
                session: None,
                telemetry: vec![
                    TelemetryFrame::PowerMilliwatts(1_000 + i),
                    TelemetryFrame::SwitchState {
                        on: i.is_multiple_of(2),
                    },
                ],
                button_pressed: false,
            }),
        },
        Envelope::push(Response::TelemetryPush {
            dev_id,
            telemetry: vec![TelemetryFrame::PowerMilliwatts(990 + i)],
        }),
        Envelope::Response {
            corr: CorrId(i * 10 + 1),
            rsp: Response::LoginOk { user_token },
        },
        Envelope::Response {
            corr: CorrId(i * 10 + 3),
            rsp: Response::Bound {
                session: Some(SessionToken::from_entropy(u128::from(i) | 1)),
            },
        },
    ]
}

/// One codec's figures over the corpus.
#[derive(Clone, Copy, Debug)]
pub struct CodecRun {
    /// Encode throughput, wall clock.
    pub encode_msgs_per_sec: f64,
    /// Decode throughput, wall clock.
    pub decode_msgs_per_sec: f64,
    /// Mean encoded frame size (deterministic).
    pub bytes_per_msg: f64,
    /// Heap allocations per encoded message.
    pub encode_allocs_per_msg: f64,
    /// Heap allocations per decoded message.
    pub decode_allocs_per_msg: f64,
}

fn run_codec(kind: CodecKind, corpus: &[Envelope], iters: usize) -> Result<CodecRun, String> {
    let msgs = (corpus.len() * iters) as u64;

    // Warm + measure encode.
    let scope = AllocScope::start();
    let t0 = Instant::now();
    let mut total_bytes = 0u64;
    for _ in 0..iters {
        for env in corpus {
            total_bytes += env.encode_with(kind).len() as u64;
        }
    }
    let encode_secs = t0.elapsed().as_secs_f64();
    let encode_allocs = scope.finish().allocs_total;

    // Pre-encode once so the decode loop touches only the decoder.
    let frames: Vec<Bytes> = corpus.iter().map(|env| env.encode_with(kind)).collect();
    let scope = AllocScope::start();
    let t0 = Instant::now();
    for _ in 0..iters {
        for frame in &frames {
            let env = Envelope::decode_with(kind, frame)
                .map_err(|e| format!("corpus frame failed to decode under {kind}: {e}"))?;
            std::hint::black_box(env);
        }
    }
    let decode_secs = t0.elapsed().as_secs_f64();
    let decode_allocs = scope.finish().allocs_total;

    Ok(CodecRun {
        encode_msgs_per_sec: msgs as f64 / encode_secs.max(1e-9),
        decode_msgs_per_sec: msgs as f64 / decode_secs.max(1e-9),
        bytes_per_msg: total_bytes as f64 / msgs as f64,
        encode_allocs_per_msg: encode_allocs as f64 / msgs as f64,
        decode_allocs_per_msg: decode_allocs as f64 / msgs as f64,
    })
}

/// Runs every codec in [`CodecKind::ALL`] order over `iters` passes of
/// `corpus`, inside one allocation window. Returns each codec's run and
/// the window; `Err` names the first corpus frame a codec cannot decode.
pub fn codec_shootout(
    corpus: &[Envelope],
    iters: usize,
) -> Result<(Vec<(CodecKind, CodecRun)>, AllocStats), String> {
    let scope = AllocScope::start();
    let mut runs = Vec::new();
    for kind in CodecKind::ALL {
        runs.push((kind, run_codec(kind, corpus, iters)?));
    }
    Ok((runs, scope.finish()))
}
