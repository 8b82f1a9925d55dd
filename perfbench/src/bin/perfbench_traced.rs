//! `perfbench` with the counting allocator installed: the traced build.
//! The allocator's process-global atomics serialise threads, so only
//! traced runs pay for it.

#[global_allocator]
static ALLOC: rb_prof::CountingAlloc = rb_prof::CountingAlloc;

fn main() {
    std::process::exit(perfbench::cli::main(std::env::args().skip(1).collect()));
}
