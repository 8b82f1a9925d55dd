//! Simulation outcomes are codec-invariant.
//!
//! The wire codec decides the bytes on the wire, nothing else: link
//! latency is drawn independently of payload size, so the canonical
//! TP-LINK lifecycle must produce identical telemetry and identical
//! causal traces under [`CodecKind::Classic`] and [`CodecKind::Compact`]
//! — modulo the payload-size (`…B` / `"bytes":…`) annotations and the
//! `sim_packet_bytes_*` counters, which legitimately see smaller frames.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use rb_core::vendors;
use rb_forensics::Capture;
use rb_netsim::Telemetry;
use rb_scenario::{capture, metrics_run, run_lifecycle, World, WorldBuilder};
use rb_wire::codec::CodecKind;

/// The canonical TP-LINK seed-7 lifecycle under `codec`, traced or not.
fn lifecycle(codec: CodecKind, trace: bool) -> World {
    let mut builder = WorldBuilder::new(vendors::tp_link(), 7).with_codec(codec);
    if trace {
        builder = builder.trace();
    }
    let mut world = builder.build();
    run_lifecycle(&mut world, None);
    world
}

fn metrics(codec: CodecKind) -> Telemetry {
    lifecycle(codec, false).telemetry().clone()
}

fn traced(codec: CodecKind) -> Capture {
    capture(&lifecycle(codec, true))
}

/// Drops every character of a digit-run so `sent 34B` and `sent 21B`
/// compare equal while any other difference still shows.
fn strip_digits(line: &str) -> String {
    line.chars().filter(|c| !c.is_ascii_digit()).collect()
}

#[test]
fn tp_link_telemetry_is_codec_invariant() {
    let classic = metrics(CodecKind::Classic);
    let compact = metrics(CodecKind::Compact);

    // Byte-size counters are the only metrics allowed to differ.
    let filter = |export: String| -> String {
        export
            .lines()
            .filter(|l| !l.contains("sim_packet_bytes"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        filter(classic.to_prometheus()),
        filter(compact.to_prometheus()),
        "lifecycle telemetry must not depend on the wire codec"
    );
}

#[test]
fn classic_codec_run_matches_default_run() {
    let default_run = metrics_run(&vendors::tp_link(), 7);
    let classic = metrics(CodecKind::Classic);
    assert_eq!(
        default_run.to_prometheus(),
        classic.to_prometheus(),
        "classic is the default codec; selecting it explicitly must change nothing"
    );
}

#[test]
fn tp_link_traces_are_codec_invariant_modulo_byte_sizes() {
    let classic = traced(CodecKind::Classic);
    let compact = traced(CodecKind::Compact);

    assert_eq!(
        classic.trace.len(),
        compact.trace.len(),
        "same number of trace events under either codec"
    );
    let mut compact_saved = 0usize;
    for (a, b) in classic.trace.iter().zip(compact.trace.iter()) {
        let (la, lb) = (a.to_string(), b.to_string());
        assert_eq!(
            strip_digits(&la),
            strip_digits(&lb),
            "trace event differs beyond byte-size annotations:\n  classic: {la}\n  compact: {lb}"
        );
        assert_eq!(a.at, b.at, "event timing must be codec-invariant");
        if la.len() > lb.len() {
            compact_saved += la.len() - lb.len();
        }
    }
    assert!(
        compact_saved > 0,
        "the compact codec should shrink at least some frames in the lifecycle"
    );
}
