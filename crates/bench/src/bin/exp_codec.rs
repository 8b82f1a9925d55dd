//! EXP-CODEC — wire-codec shootout: throughput, frame size, and
//! allocations per message for every [`CodecKind`].
//!
//! Encodes and decodes a deterministic mixed-traffic corpus — the message
//! blend one home's lifecycle puts on the wire (heartbeats, control
//! round-trips, binds, telemetry pushes) — through each codec behind the
//! [`rb_wire::codec::Codec`] trait and reports, per codec:
//!
//! * `<codec>_encode_msgs_per_sec` / `<codec>_decode_msgs_per_sec` —
//!   wall-clock throughput (informational, never gated),
//! * `<codec>_bytes_per_msg` — mean encoded frame size (deterministic),
//! * `<codec>_encode_allocs_per_msg` / `<codec>_decode_allocs_per_msg` —
//!   counting-allocator windows over the hot loops (deterministic),
//! * `compact_decode_speedup` — compact over classic decode throughput.
//!
//! The bin exits nonzero unless the compact codec beats the classic one on
//! decode throughput AND on decode allocations per message — the zero-copy
//! contract this PR exists to keep. `benches/baselines/codec.json` gates
//! the deterministic metrics in CI via `rb_bench::compare`.
//!
//! Prints a human summary, then a single `BENCH ` line with the
//! schema-versioned [`rb_bench::report::BenchReport`] document:
//!
//! ```text
//! cargo run --release -p rb-bench --bin exp_codec
//! cargo run --release -p rb-bench --bin exp_codec -- out.json
//! cargo run --release -p rb-bench --bin exp_codec -- --iters 200
//! RB_BENCH_OUT=artifacts cargo run --release -p rb-bench --bin exp_codec
//! ```

use std::time::Instant;

use bytes::Bytes;
use rb_bench::report::{emit, BenchReport};
use rb_prof::{AllocScope, CountingAlloc};
use rb_wire::codec::CodecKind;
use rb_wire::envelope::{CorrId, Envelope};
use rb_wire::ids::{DevId, MacAddr};
use rb_wire::messages::{
    BindPayload, ControlAction, DeviceAttributes, Message, Response, StatusAuth, StatusKind,
    StatusPayload,
};
use rb_wire::telemetry::TelemetryFrame;
use rb_wire::tokens::{DevToken, SessionToken, UserId, UserPw, UserToken};

/// Count the hot loops, not the harness.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

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

struct CodecRun {
    encode_msgs_per_sec: f64,
    decode_msgs_per_sec: f64,
    bytes_per_msg: f64,
    encode_allocs_per_msg: f64,
    decode_allocs_per_msg: f64,
}

fn run_codec(kind: CodecKind, corpus: &[Envelope], iters: usize) -> CodecRun {
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
            match Envelope::decode_with(kind, frame) {
                Ok(env) => {
                    std::hint::black_box(env);
                }
                Err(e) => {
                    eprintln!("exp_codec: corpus frame failed to decode under {kind}: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
    let decode_secs = t0.elapsed().as_secs_f64();
    let decode_allocs = scope.finish().allocs_total;

    CodecRun {
        encode_msgs_per_sec: msgs as f64 / encode_secs.max(1e-9),
        decode_msgs_per_sec: msgs as f64 / decode_secs.max(1e-9),
        bytes_per_msg: total_bytes as f64 / msgs as f64,
        encode_allocs_per_msg: encode_allocs as f64 / msgs as f64,
        decode_allocs_per_msg: decode_allocs as f64 / msgs as f64,
    }
}

fn main() {
    let mut iters = 2_000usize;
    let mut out_path: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--iters" => {
                iters = iter.next().and_then(|s| s.parse().ok()).unwrap_or(iters);
            }
            other => out_path = Some(other.to_owned()),
        }
    }

    let corpus: Vec<Envelope> = (0..50).flat_map(corpus_slice).collect();
    println!(
        "EXP-CODEC: {} frames x {iters} iterations per codec ({} msgs/codec)\n",
        corpus.len(),
        corpus.len() * iters
    );

    let scope = AllocScope::start();
    let mut runs = Vec::new();
    for kind in CodecKind::ALL {
        println!("{kind}:");
        let run = run_codec(kind, &corpus, iters);
        println!(
            "  encode {:>10.0} msgs/s ({:.2} allocs/msg)",
            run.encode_msgs_per_sec, run.encode_allocs_per_msg
        );
        println!(
            "  decode {:>10.0} msgs/s ({:.2} allocs/msg)",
            run.decode_msgs_per_sec, run.decode_allocs_per_msg
        );
        println!("  frame  {:>10.1} bytes/msg", run.bytes_per_msg);
        runs.push((kind, run));
    }
    let alloc = scope.finish();

    let classic = &runs[0].1;
    let compact = &runs[1].1;
    let decode_speedup = compact.decode_msgs_per_sec / classic.decode_msgs_per_sec.max(1e-9);
    let compact_faster_decode = compact.decode_msgs_per_sec > classic.decode_msgs_per_sec;
    let compact_fewer_allocs = compact.decode_allocs_per_msg < classic.decode_allocs_per_msg;
    let compact_smaller = compact.bytes_per_msg < classic.bytes_per_msg;

    println!(
        "\ncompact vs classic: decode {decode_speedup:.2}x, \
         {:.2} vs {:.2} allocs/msg, {:.1} vs {:.1} bytes/msg",
        compact.decode_allocs_per_msg,
        classic.decode_allocs_per_msg,
        compact.bytes_per_msg,
        classic.bytes_per_msg
    );

    let mut report = BenchReport::new("exp_codec");
    report
        .meta("frames", corpus.len())
        .meta("iters", iters)
        .metric_bool("compact_faster_decode", compact_faster_decode)
        .metric_bool("compact_fewer_decode_allocs", compact_fewer_allocs)
        .metric_bool("compact_smaller_frames", compact_smaller)
        .metric_f64("compact_decode_speedup_x_per_sec", decode_speedup)
        .with_alloc(alloc);
    for (kind, run) in &runs {
        let name = kind.name();
        report
            .metric_f64(
                &format!("{name}_encode_msgs_per_sec"),
                run.encode_msgs_per_sec,
            )
            .metric_f64(
                &format!("{name}_decode_msgs_per_sec"),
                run.decode_msgs_per_sec,
            )
            .metric_f64(&format!("{name}_bytes_per_msg"), run.bytes_per_msg)
            .metric_f64(
                &format!("{name}_encode_allocs_per_msg"),
                run.encode_allocs_per_msg,
            )
            .metric_f64(
                &format!("{name}_decode_allocs_per_msg"),
                run.decode_allocs_per_msg,
            );
    }
    emit(&report, out_path.as_deref());

    if !(compact_faster_decode && compact_fewer_allocs && compact_smaller) {
        eprintln!(
            "exp_codec: compact must beat classic on decode throughput, decode allocs/msg, \
             and frame size (got faster={compact_faster_decode} fewer_allocs={compact_fewer_allocs} \
             smaller={compact_smaller})"
        );
        std::process::exit(1);
    }
}
