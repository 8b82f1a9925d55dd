//! # rb-bench
//!
//! Experiment binaries regenerating every table and figure of the paper,
//! plus the shared `BENCH` report schema ([`report`]) they all emit and
//! the workloads that both a binary and the `work_counters` test run
//! ([`dos`], [`codec`]). See `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for paper-vs-measured records.
//!
//! Binaries (each prints its artifact to stdout):
//!
//! | binary | artifact |
//! |---|---|
//! | `fig1_procedures` | Figure 1 — the remote-binding procedure sequence |
//! | `fig2_state_machine` | Figure 2 — the device-shadow state machine |
//! | `fig3_device_auth` | Figure 3 — device-authentication flows |
//! | `fig4_binding_creation` | Figure 4 — binding-creation flows |
//! | `table2_taxonomy` | Table II — the attack taxonomy |
//! | `table3_attacks` | Table III — attacks on the ten vendor designs |
//! | `exp_idspace` | §I/§III-A — device-ID search spaces & enumeration |
//! | `exp_dos_scale` | §V-C — scalable binding denial-of-service |
//! | `exp_attack_window` | §V-E — the A4-2 setup-window race |
//! | `exp_ablation` | §VII — mitigation ablation matrix |
//! | `exp_design_space` | extension — exhaustive design-space survey |
//! | `exp_defense` | extension — passive detection, streaming monitor and active mitigation of the Table III attacks |
//! | `exp_forensics` | extension — attack reconstruction from causal traces |
//! | `exp_lint` | extension — design-linter soundness/precision sweep |
//! | `exp_mc` | extension — model-checker determinism, agreement and replay gates |
//! | `exp_fuzz` | extension — lifecycle-fuzzer campaign gates |
//! | `exp_chaos` | extension — setup convergence under injected faults |
//! | `exp_observability` | extension — binding-latency percentiles + sim throughput |
//! | `exp_fleet` | extension — population-scale parallel sweep, phase and allocation envelope |
//! | `exp_codec` | extension — wire-codec throughput, frame size and allocations |
//! | `rbsim` | the whole toolkit as one CLI |

pub mod codec;
pub mod dos;
pub mod report;

use std::fmt::Write as _;

/// Renders an ASCII table: a header row plus data rows, column-aligned.
///
/// The experiment binaries print tables with this one helper so their
/// output stays uniform and diffable.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| display_width(h)).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(display_width(cell));
        }
    }
    let mut out = String::new();
    let sep = |out: &mut String| {
        for w in &widths {
            let _ = write!(out, "+{}", "-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    sep(&mut out);
    for (i, h) in headers.iter().enumerate() {
        let _ = write!(out, "| {}{} ", h, " ".repeat(widths[i] - display_width(h)));
    }
    out.push_str("|\n");
    sep(&mut out);
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            let _ = write!(
                out,
                "| {}{} ",
                cell,
                " ".repeat(widths[i] - display_width(cell))
            );
        }
        out.push_str("|\n");
    }
    sep(&mut out);
    out
}

/// Approximate display width: counts chars, treating the table symbols the
/// paper uses (✓ ✗) as single cells.
fn display_width(s: &str) -> usize {
    s.chars().count()
}

/// Parses an experiment binary's command line: `--name <count>` for each
/// of `options` (overwriting its default) and at most one bare argument,
/// the artifact path. Anything else — an unknown flag, a missing or
/// unparsable count, a second path — prints the error and `usage` and
/// exits 2.
pub fn parse_args(usage: &str, options: &mut [(&str, &mut usize)]) -> Option<String> {
    parse_args_from(std::env::args().skip(1), options).unwrap_or_else(|e| {
        eprintln!("{e}\nusage: {usage}");
        std::process::exit(2);
    })
}

fn parse_args_from(
    args: impl IntoIterator<Item = String>,
    options: &mut [(&str, &mut usize)],
) -> Result<Option<String>, String> {
    let mut out_path = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with('-') {
            if let Some(first) = out_path.replace(arg) {
                return Err(format!("more than one output path ({first:?})"));
            }
            continue;
        }
        let (_, value) = options
            .iter_mut()
            .find(|(name, _)| *name == arg)
            .ok_or_else(|| format!("unknown option {arg}"))?;
        let text = args.next().unwrap_or_default();
        **value = text
            .parse()
            .map_err(|_| format!("{arg} needs a count, got {text:?}"))?;
    }
    Ok(out_path)
}

/// Formats a duration in seconds into a human-friendly unit.
pub fn human_secs(secs: f64) -> String {
    if secs < 1.0 {
        format!("{:.0} ms", secs * 1e3)
    } else if secs < 120.0 {
        format!("{secs:.1} s")
    } else if secs < 7200.0 {
        format!("{:.1} min", secs / 60.0)
    } else if secs < 48.0 * 3600.0 {
        format!("{:.1} h", secs / 3600.0)
    } else if secs < 730.0 * 24.0 * 3600.0 {
        format!("{:.1} days", secs / 86_400.0)
    } else {
        format!("{:.1} years", secs / (365.25 * 86_400.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment_holds() {
        let t = render_table(
            &["vendor", "A1"],
            &[
                vec!["Belkin".into(), "✗".into()],
                vec!["D-LINK".into(), "✓".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 6); // 3 separators + header + 2 rows
        let width = lines[0].chars().count();
        assert!(lines.iter().all(|l| l.chars().count() == width), "{t}");
        assert!(t.contains("| Belkin"));
    }

    #[test]
    fn args_parse_counts_and_one_path() {
        let parse = |args: &[&str]| {
            let (mut homes, mut threads) = (1000, 8);
            let out = parse_args_from(
                args.iter().map(|a| a.to_string()),
                &mut [("--homes", &mut homes), ("--threads", &mut threads)],
            );
            out.map(|out| (homes, threads, out))
        };
        assert_eq!(parse(&[]), Ok((1000, 8, None)));
        assert_eq!(
            parse(&["--homes", "40", "out.json", "--threads", "2"]),
            Ok((40, 2, Some("out.json".to_owned())))
        );
        assert!(parse(&["--homes", "40", "--thread", "2"]).is_err());
        assert!(parse(&["--homes", "forty"]).is_err());
        assert!(parse(&["--homes"]).is_err());
        assert!(parse(&["a.json", "b.json"]).is_err());
    }

    #[test]
    fn human_secs_units() {
        assert_eq!(human_secs(0.5), "500 ms");
        assert_eq!(human_secs(55.9), "55.9 s");
        assert_eq!(human_secs(3_600.0), "60.0 min");
        assert_eq!(human_secs(10_000.0), "2.8 h");
        assert!(human_secs(1e7).ends_with("days"));
        assert!(human_secs(1e12).ends_with("years"));
    }
}
