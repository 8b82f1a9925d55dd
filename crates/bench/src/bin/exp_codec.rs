//! EXP-CODEC — wire-codec shootout: throughput, frame size, and
//! allocations per message for every [`rb_wire::codec::CodecKind`].
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
//! The corpus and the measured loops are [`rb_bench::codec`]. The bin
//! exits nonzero unless the compact codec beats the classic one on decode
//! throughput AND on decode allocations per message — the zero-copy
//! contract the compact format exists to keep. The rb-bench
//! `work_counters` test pins the frame sizes exactly and the allocation
//! counts within a stated margin.
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
//!
//! An unknown flag or an unparsable count exits 2 with a usage line.

use rb_bench::codec::{codec_corpus, codec_shootout, DEFAULT_ITERS};
use rb_bench::parse_args;
use rb_bench::report::{emit, BenchReport};
use rb_prof::CountingAlloc;

/// Count the hot loops, not the harness.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let mut iters = DEFAULT_ITERS;
    let out_path = parse_args(
        "exp_codec [--iters N] [out.json]",
        &mut [("--iters", &mut iters)],
    );

    let corpus = codec_corpus();
    println!(
        "EXP-CODEC: {} frames x {iters} iterations per codec ({} msgs/codec)\n",
        corpus.len(),
        corpus.len() * iters
    );

    let (runs, alloc) = codec_shootout(&corpus, iters).unwrap_or_else(|e| {
        eprintln!("exp_codec: {e}");
        std::process::exit(1);
    });
    for (kind, run) in &runs {
        println!("{kind}:");
        println!(
            "  encode {:>10.0} msgs/s ({:.2} allocs/msg)",
            run.encode_msgs_per_sec, run.encode_allocs_per_msg
        );
        println!(
            "  decode {:>10.0} msgs/s ({:.2} allocs/msg)",
            run.decode_msgs_per_sec, run.decode_allocs_per_msg
        );
        println!("  frame  {:>10.1} bytes/msg", run.bytes_per_msg);
    }

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
