//! One iteration of one benchmark workload, with the system allocator.
//!
//! ```text
//! perfbench <fleet|shared_cloud|dos_enum> --seed N --mode plain|telemetry|traced
//!           [--size full|tiny] [--trace-out spans.json]
//! ```
//!
//! Prints one JSON record; exits 1 when an output check fails and 2 on a
//! usage error.

fn main() {
    std::process::exit(perfbench::cli::main(std::env::args().skip(1).collect()));
}
