//! The command line shared by both binaries.

use std::path::PathBuf;

use crate::{Mode, Size};

/// Parses `args`, runs one iteration, prints its record and returns the
/// exit code: 0 when every check passed, 1 when one failed, 2 on a usage
/// error.
pub fn main(args: Vec<String>) -> i32 {
    let mut workload = None;
    let mut seed = 0u64;
    let mut mode = Mode::Plain;
    let mut size = Size::Full;
    let mut trace_out = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let value = match arg.as_str() {
            "--seed" | "--mode" | "--size" | "--trace-out" => it.next(),
            _ => None,
        };
        match (arg.as_str(), value) {
            ("--seed", Some(v)) => match v.parse() {
                Ok(n) => seed = n,
                Err(_) => return usage(&format!("bad seed {v}")),
            },
            ("--mode", Some(v)) => match Mode::parse(&v) {
                Some(m) => mode = m,
                None => return usage(&format!("bad mode {v}")),
            },
            ("--size", Some(v)) => match v.as_str() {
                "full" => size = Size::Full,
                "tiny" => size = Size::Tiny,
                _ => return usage(&format!("bad size {v}")),
            },
            ("--trace-out", Some(v)) => trace_out = Some(PathBuf::from(v)),
            (w, None) if workload.is_none() && !w.starts_with("--") => {
                workload = Some(w.to_string())
            }
            _ => return usage(&format!("unexpected argument {arg}")),
        }
    }
    let Some(workload) = workload else {
        return usage("missing workload");
    };
    let Some(rec) = crate::run(&workload, seed, mode, size) else {
        return usage(&format!("unknown workload {workload}"));
    };
    if let Some(path) = trace_out {
        if let Err(e) = crate::write_trace(&path, &rec.span_rows) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return 2;
        }
    }
    println!("{}", rec.to_json());
    if rec.correct() {
        0
    } else {
        1
    }
}

fn usage(msg: &str) -> i32 {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench <fleet|shared_cloud|dos_enum> --seed N \
         --mode plain|telemetry|traced [--size full|tiny] [--trace-out FILE]"
    );
    2
}
