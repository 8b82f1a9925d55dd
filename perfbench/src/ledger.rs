//! The per-layer ledger of a traced run: splits the profiled pass's wall
//! time, the census work counts and the failures across the repository's
//! modules.
//!
//! Where the time comes from:
//!
//! * `rb-fleet`, `rb-scenario`, `rb-attack`: self time of the benchmark's
//!   spans around their calls (`fleet.cell`, `scenario.*`, `attack.*`).
//! * `rb-netsim`: `Σ run_for` span time minus the profiler's wall time for
//!   dispatched events (`sim.deliver`/`sim.timer`/…), i.e. the event
//!   loop's own share outside actor callbacks.
//! * `rb-wire`: frames × (encode + decode) ns from the codec replay, less
//!   the attacker's own calls on `dos_enum`, which are timed in place.
//! * `rb-cloud`: requests × `handle_message` ns from the standalone replay.
//! * agents (`rb-device`/`rb-app`): dispatched-event time minus the codec
//!   and cloud shares inside it — the ledger's remainder.
//!
//! The profiled pass carries the profiler's own cost, which lands in the
//! netsim and agent shares; `prof.overhead_x` (computed by `run.py`) says
//! how large it is. `ledger.idle_share` is worker time with no cell left
//! to claim, and `ledger.residual` what neither a layer nor idling
//! accounts for (benchmark glue outside every span), both as shares of
//! `threads × wall`.

use rb_prof::{AllocStats, PhaseProfile};

use crate::replay::ReplayOut;
use crate::{PassOut, Record, Spans};

/// The ledger must account for all but this share of the traced wall
/// time; a traced run outside it fails its `ledger_residual` check.
pub const RESIDUAL_BOUND: f64 = 0.05;

/// `(count, wall ns)` of the top-level profiler phase `name`.
fn phase(profile: &PhaseProfile, name: &str) -> (f64, f64) {
    profile
        .entries()
        .iter()
        .find(|e| e.path == name)
        .map_or((0.0, 0.0), |e| (e.count as f64, e.wall_nanos as f64))
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Fills `rec.layers` from the census counts already in `rec`, the
/// profiled pass `prof` (span tables, phase profile), the allocation pass
/// and the replays. The replays run in the same (traced) build as the
/// profiled pass, so the shares add up over its wall time; the per-layer
/// codec, cloud and queue costs themselves come from the untraced census
/// run (`Mode::Telemetry`).
pub fn fill(rec: &mut Record, prof: &PassOut, allocs: AllocStats, replay: ReplayOut) {
    let c = |k: &str| rec.counts.get(k).copied().unwrap_or(0.0);
    let sum = |f: &dyn Fn(&Spans) -> u64| prof.tables.iter().map(f).sum::<u64>() as f64;
    let homes = rec.homes.max(1) as f64;
    let events = c("events");
    let requests = c("requests");
    // A "probe" is one of the attacker's probes on `dos_enum` and one
    // answered cloud request elsewhere.
    let probes = if rec.probes_sent > 0 {
        rec.probes_sent as f64
    } else {
        requests.max(1.0)
    };
    let msgs = 2.0 * requests + c("pushes");
    let thread_ns = prof.wall_ns as f64 * rec.threads.max(1) as f64;

    let (deliver_n, deliver_ns) = phase(&prof.profile, "sim.deliver");
    let (timer_n, timer_ns) = phase(&prof.profile, "sim.timer");
    let dispatched_ns = deliver_ns
        + timer_ns
        + phase(&prof.profile, "sim.start").1
        + phase(&prof.profile, "sim.inject").1;

    let run_for = sum(&|s| s.total("netsim.run_for"));
    let fleet_self = sum(&|s| s.self_total("fleet.cell"));
    let scenario_self = sum(&|s| {
        [
            "scenario.build",
            "scenario.setup",
            "scenario.steady",
            "scenario.victims",
        ]
        .iter()
        .map(|n| s.self_total(n))
        .sum()
    });
    let attack_self = sum(&|s| s.self_total("attack.enumerate") + s.self_total("attack.login"));
    let wire_in_place = sum(&|s| s.total("wire.encode") + s.total("wire.decode"));

    let codec_ns = msgs * (replay.encode_ns_per_msg + replay.decode_ns_per_msg);
    let wire_in_sim = (codec_ns - wire_in_place).max(0.0);
    let wire_total = wire_in_sim + wire_in_place;
    let cloud_ns = requests * replay.handle_ns_per_req;
    let netsim_self = run_for - dispatched_ns;
    let agent_ns = dispatched_ns - wire_in_sim - cloud_ns;
    let covered =
        fleet_self + scenario_self + attack_self + netsim_self + agent_ns + wire_total + cloud_ns;

    let timer_share = ratio(timer_n, events);
    let cells = sum(&|s| s.total("fleet.cell"));
    let busy = if cells > 0.0 { cells } else { run_for };

    let mut put = |k: &str, v: f64| {
        rec.layers.insert(k.to_string(), v);
    };
    put("fleet.busy_ratio", ratio(busy, thread_ns));
    put(
        "scenario.build_us_per_home",
        sum(&|s| s.total("scenario.build")) / 1e3 / homes,
    );
    put("scenario.setup_sim_ticks", c("setup_sim_ticks"));
    put("netsim.events_per_home", events / homes);
    put("netsim.events_per_probe", events / probes);
    put("netsim.timer_share", timer_share);
    put("netsim.useful_ratio", ratio(c("delivered"), events));
    put("netsim.deliver_ns_per_event", ratio(deliver_ns, deliver_n));
    put("netsim.timer_ns_per_event", ratio(timer_ns, timer_n));
    put("netsim.drops_per_home", c("dropped") / homes);
    put(
        "agent.retries_per_home",
        (c("app_retries") + c("device_bind_retries")) / homes,
    );
    put("agent.heartbeats_per_home", c("heartbeats") / homes);
    put("agent.ns_per_event", ratio(agent_ns, events));
    put("wire.msgs_per_home", msgs / homes);
    put("wire.msgs_per_probe", msgs / probes);
    put("cloud.requests_per_home", requests / homes);
    put("cloud.requests_per_probe", requests / probes);
    put("cloud.denied_ratio", ratio(c("denials"), requests));
    put("cloud.monitor_state_bytes", prof.monitor_state_bytes as f64);
    put("cloud.alerts_total", c("alerts"));
    put("attack.reply_ticks_p50", prof.reply_ticks_p50 as f64);
    put("alloc.allocs_per_home", allocs.allocs_total as f64 / homes);
    put(
        "alloc.allocs_per_probe",
        allocs.allocs_total as f64 / probes,
    );
    put("ledger.fleet_share", ratio(fleet_self, thread_ns));
    put("ledger.scenario_share", ratio(scenario_self, thread_ns));
    put("ledger.netsim_share", ratio(netsim_self, thread_ns));
    put("ledger.agent_share", ratio(agent_ns, thread_ns));
    put("ledger.cloud_share", ratio(cloud_ns, thread_ns));
    put("ledger.wire_share", ratio(wire_total, thread_ns));
    put("ledger.attack_share", ratio(attack_self, thread_ns));
    put("ledger.idle_share", ratio(prof.idle_ns as f64, thread_ns));
    let residual = 1.0 - ratio(covered + prof.idle_ns as f64, thread_ns);
    put("ledger.residual", residual);
    rec.check(
        "ledger_residual",
        residual.abs() <= RESIDUAL_BOUND,
        format!("residual={residual:.4} bound={RESIDUAL_BOUND}"),
    );
}
