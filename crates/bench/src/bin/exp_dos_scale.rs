//! EXP-DOS — §V-C: "given that some vendors use sequential device IDs for
//! its products, attackers can enumerate or brute-force the device IDs,
//! and it could even cause scalable denial-of-service attacks to the
//! entire product series of a vendor."
//!
//! The attacker enumerates the ID space of a product series and occupies
//! every binding before the owners set up. Measured across series sizes,
//! for a vulnerable design vs the capability-based reference — under the
//! phase profiler and the counting allocator, so the bench also reports
//! homes/sec, peak bytes/home, and where the ticks went. The series
//! itself is [`rb_bench::dos::dos_scale_series`].
//!
//! Prints the human table, then a single `BENCH ` line with the
//! schema-versioned [`rb_bench::report::BenchReport`] document. The
//! rb-bench `work_counters` test pins the same series: outcome counts,
//! phase tree and ticks exactly, allocations within a stated margin.
//!
//! ```text
//! cargo run -p rb-bench --bin exp_dos_scale
//! cargo run -p rb-bench --bin exp_dos_scale -- out.json
//! ```
//!
//! Any flag exits 2 with a usage line.

use std::time::Instant;

use rb_bench::dos::{dos_scale_series, series_designs, DosRow};
use rb_bench::report::{emit, BenchReport};
use rb_bench::{parse_args, render_table};
use rb_prof::{AllocScope, CountingAlloc, Profiler};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let out_path = parse_args("exp_dos_scale [out.json]", &mut []);
    println!("EXP-DOS: scalable binding denial-of-service over a product series\n");
    let designs = series_designs();

    let profiler = Profiler::new();
    let scope = AllocScope::start();
    let started = Instant::now();
    let mut report = BenchReport::new("exp_dos_scale");
    let mut rows = Vec::new();
    let mut homes_total = 0usize;
    dos_scale_series(&designs, &profiler, |row| {
        let DosRow {
            homes,
            vulnerable: (occ_v, lock_v),
            capability: (occ_s, lock_s),
        } = row;
        homes_total += homes * 2;
        report
            .metric_u64(&format!("occupied_vulnerable_{homes}"), occ_v as u64)
            .metric_u64(&format!("locked_out_vulnerable_{homes}"), lock_v as u64)
            .metric_u64(&format!("occupied_capability_{homes}"), occ_s as u64)
            .metric_u64(&format!("locked_out_capability_{homes}"), lock_s as u64);
        rows.push(vec![
            homes.to_string(),
            format!("{occ_v}/{homes}"),
            format!("{lock_v}/{homes}"),
            format!("{occ_s}/{homes}"),
            format!("{lock_s}/{homes}"),
        ]);
    });
    let elapsed_secs = started.elapsed().as_secs_f64();
    let alloc = scope.finish();
    let profile = profiler.snapshot();
    println!(
        "{}",
        render_table(
            &[
                "series size",
                "occupied (vulnerable)",
                "victims locked out (vulnerable)",
                "occupied (capability)",
                "victims locked out (capability)"
            ],
            &rows
        )
    );

    println!("shape check (paper §V-C): the DoS scales linearly over the whole series for");
    println!("ACL designs with sequential IDs, and is identically zero for capability binding.");
    println!(
        "\nenvelope: {homes_total} homes in {elapsed_secs:.2}s ({:.0} homes/s), peak live {} bytes \
         ({:.0} bytes/home)",
        homes_total as f64 / elapsed_secs,
        alloc.peak_live_bytes,
        alloc.peak_live_bytes as f64 / homes_total.max(1) as f64
    );
    println!("phase ticks: {}\n", profile.total_ticks());

    report
        .meta("series_sizes", "1,2,4,8,16")
        .metric_u64("homes_total", homes_total as u64)
        .metric_u64("total_ticks", profile.total_ticks())
        .metric_f64("elapsed_secs", elapsed_secs)
        .metric_f64("homes_per_sec", homes_total as f64 / elapsed_secs)
        .metric_u64("peak_alloc_bytes", alloc.peak_live_bytes)
        .metric_u64(
            "peak_bytes_per_home",
            alloc.peak_live_bytes / homes_total.max(1) as u64,
        )
        .with_alloc(alloc)
        .with_profile(&profile);
    emit(&report, out_path.as_deref());
}
