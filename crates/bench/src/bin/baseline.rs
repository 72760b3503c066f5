//! Throughput baseline for the simulator's memory-access hot path.
//!
//! Runs a fixed, fully deterministic Smoke-scale sweep (every interactive
//! application under every execution architecture, heuristic re-allocation)
//! and reports how fast the *simulator itself* executed it: simulated memory
//! accesses per wall-clock second, wall time, and peak RSS. The output JSON
//! (`BENCH_<n>.json` in the repo root) is the recorded perf trajectory: every
//! PR that touches the hot path re-runs this harness and commits the new
//! figure next to the old ones.
//!
//! The headline `accesses_per_sec` is measured on **one** worker thread
//! (sequential hot-path cost); a `scaling` section then re-runs the same
//! grid at 1, 2 and 8 workers and checks that every configuration
//! serialises the byte-identical matrix — the determinism the sweep runner
//! guarantees — while recording how wall time scales.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ironhide-bench --bin baseline            # full grid
//! cargo run --release -p ironhide-bench --bin baseline -- --smoke # CI smoke
//! cargo run --release -p ironhide-bench --bin baseline -- --out path.json
//! cargo run --release -p ironhide-bench --bin baseline -- --threads 2
//! ```
//!
//! `--threads <n>` replaces the 1/2/8 scaling set with a single `n`-worker
//! run (which then also provides the headline figures). Under `--smoke`
//! every run — a separate 2-thread process included — must reproduce
//! `pins::BASELINE_SMOKE` and clear `pins::ACCESS_RATE_FLOOR` before it
//! writes anything: cross-thread determinism checked across processes, not
//! just inside one harness invocation.
//!
//! The access count is the number of simulated memory accesses across
//! **every** phase of every cell — predictor probes, warm-up and the
//! measured phase (`CompletionReport::sim_accesses_total`). All of those
//! accesses run through the same simulation hot path and dominate the wall
//! time the rate divides by, so this is the honest throughput denominator;
//! BENCH_2 through BENCH_5 counted the measured phase only (~26 % of the
//! work, documented then as a conservative lower bound), so their
//! `accesses_per_sec` values are comparable with each other but not with
//! BENCH_6 onward. The measured-phase count is still reported as
//! `measured_accesses`. The simulated results themselves are
//! byte-deterministic, so `total_cycles` doubles as a semantics checksum:
//! two builds of the same simulator must agree on it exactly. (The checksum
//! moved 93304015 → 102277232 between BENCH_2 and BENCH_4 when the MI6
//! boundary model was unified with the attack runner's, 102277232 →
//! 102599801 when the MESI directory landed, and 102599801 → 102451907 when
//! the parallel-ack invalidation model replaced summed sharer round trips —
//! all intentional, documented model changes.)
//!
//! The scaling section records `std::thread::available_parallelism` and
//! flags every point where `threads > cores`: on a 1-CPU container an
//! "8-thread" run measures scheduling overhead, not parallel speedup, and
//! BENCH_5's flat-to-negative scaling read as a parallelism bug until that
//! distinction was recorded.

use ironhide_bench::{
    available_parallelism, check_floor, check_pin, fail, parse_args, peak_rss_bytes, pins,
    run_baseline, simulated_cycles, thread_identity, write_report, HarnessArgs,
};
use ironhide_core::sweep::SweepMatrix;

const HARNESS: &str = "baseline";

fn main() {
    let args = parse_args(HARNESS, "BENCH_6.json", true);
    let (matrix, walls) = run(&args);
    if args.smoke {
        smoke_gate(&matrix, walls[0].1);
    }
    write_report(HARNESS, &args.out, &render_report(&args, &matrix, &walls));
}

/// Sweeps the grid at every worker count through the thread-identity gate,
/// returning the first run's matrix and every run's wall time; exits
/// non-zero if a run fails or diverges. The headline figures come from the
/// first run (sequential by default, the overridden count under --threads).
fn run(args: &HarnessArgs) -> (SweepMatrix, Vec<(usize, f64)>) {
    eprintln!("baseline: running {} grid at {:?} threads...", args.label(), args.threads);
    thread_identity(&args.threads, |threads| {
        let matrix = run_baseline(args.smoke, threads)
            .unwrap_or_else(|e| fail(HARNESS, &format!("sweep failed: {e}")));
        let json = matrix.to_json();
        (matrix, json)
    })
    .unwrap_or_else(|n| fail(HARNESS, &format!("NONDETERMINISM — the {n}-thread matrix differs")))
}

/// The smoke grid's pin and floor: it simulates accesses (at least the
/// measured phase's), reproduces `pins::BASELINE_SMOKE` and clears
/// `pins::ACCESS_RATE_FLOOR` on its headline run.
fn smoke_gate(matrix: &SweepMatrix, wall_s: f64) {
    let accesses: u64 = matrix.cells.iter().map(|c| c.report.sim_accesses_total).sum();
    let measured: u64 = matrix.cells.iter().map(|c| c.report.machine.l1.accesses).sum();
    if accesses == 0 {
        fail(HARNESS, "smoke grid must simulate accesses");
    }
    if accesses < measured {
        fail(HARNESS, "the all-phase access count cannot undercut the measured phase");
    }
    check_pin(HARNESS, "simulated_cycles_total", simulated_cycles(matrix), pins::BASELINE_SMOKE);
    let headline = rate(accesses, wall_s);
    check_floor(HARNESS, "accesses_per_sec", headline, pins::ACCESS_RATE_FLOOR);
}

/// Simulated accesses per wall second, rounded (0 for a zero wall time).
fn rate(accesses: u64, wall_s: f64) -> u64 {
    if wall_s > 0.0 {
        (accesses as f64 / wall_s).round() as u64
    } else {
        0
    }
}

/// Renders the measurement as deterministic-layout JSON (the values of the
/// timing fields naturally vary run to run; the layout does not).
fn render_report(args: &HarnessArgs, matrix: &SweepMatrix, walls: &[(usize, f64)]) -> String {
    let accesses: u64 = matrix.cells.iter().map(|c| c.report.sim_accesses_total).sum();
    let measured: u64 = matrix.cells.iter().map(|c| c.report.machine.l1.accesses).sum();
    let sim_cycles = simulated_cycles(matrix);
    let wall_s = walls[0].1;
    let cores = available_parallelism();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"access_hot_path_baseline\",\n");
    out.push_str(&format!("  \"grid\": \"{}\",\n", args.label()));
    out.push_str(&format!("  \"cells\": {},\n", matrix.cells.len()));
    out.push_str(&format!("  \"master_seed\": {},\n", matrix.master_seed));
    out.push_str(&format!("  \"accesses\": {accesses},\n"));
    out.push_str(&format!("  \"measured_accesses\": {measured},\n"));
    out.push_str(&format!("  \"wall_seconds\": {wall_s:.3},\n"));
    out.push_str(&format!("  \"accesses_per_sec\": {},\n", rate(accesses, wall_s)));
    out.push_str(&format!("  \"simulated_cycles_total\": {sim_cycles},\n"));
    out.push_str(&format!("  \"peak_rss_bytes\": {},\n", peak_rss_bytes()));
    out.push_str(&format!("  \"available_parallelism\": {cores},\n"));
    // Coherence traffic of the measured phase, summed over every cell's
    // directory counters and the NoC's maintenance-class packets (see the
    // README's BENCH field documentation): how much MESI work the grid's
    // sharing actually generated, and therefore how much of the simulated
    // latency movement is protocol traffic rather than cache behaviour.
    let dir = |f: fn(&ironhide_cache::DirectoryStats) -> u64| -> u64 {
        matrix.cells.iter().map(|c| f(&c.report.machine.directory)).sum()
    };
    let maintenance: u64 = matrix.cells.iter().map(|c| c.report.machine.noc.maintenance).sum();
    out.push_str("  \"coherence\": {\n");
    out.push_str(&format!("    \"directory_lookups\": {},\n", dir(|d| d.lookups)));
    out.push_str(&format!("    \"invalidations\": {},\n", dir(|d| d.invalidations)));
    out.push_str(&format!("    \"downgrades\": {},\n", dir(|d| d.downgrades)));
    out.push_str(&format!("    \"back_invalidations\": {},\n", dir(|d| d.back_invalidations)));
    out.push_str(&format!("    \"maintenance_packets\": {maintenance}\n"));
    out.push_str("  },\n");
    out.push_str("  \"scaling\": [\n");
    for (i, &(threads, wall)) in walls.iter().enumerate() {
        // threads > cores points measure oversubscription (scheduler churn),
        // not parallel speedup; the flag keeps container artifacts (a 1-CPU
        // CI host) distinguishable from genuine scaling regressions.
        let oversubscribed = cores != 0 && threads > cores;
        out.push_str(&format!(
            "    {{\"threads\": {threads}, \"wall_seconds\": {wall:.3}, \
             \"accesses_per_sec\": {}, \"simulated_cycles_total\": {sim_cycles}, \
             \"threads_exceed_cores\": {oversubscribed}}}{}\n",
            rate(accesses, wall),
            if i + 1 == walls.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ironhide_bench::THREAD_COUNTS;

    #[test]
    fn smoke_report_carries_every_field() {
        // The rate floor guards optimised builds, so the report is rendered
        // without the smoke gate.
        let args = HarnessArgs { smoke: true, out: String::new(), threads: THREAD_COUNTS.to_vec() };
        let (matrix, walls) = run(&args);
        let report = render_report(&args, &matrix, &walls);
        for field in [
            "accesses",
            "measured_accesses",
            "wall_seconds",
            "accesses_per_sec",
            "simulated_cycles_total",
            "peak_rss_bytes",
            "available_parallelism",
            "coherence",
            "scaling",
        ] {
            assert!(report.contains(&format!("\n  \"{field}\": ")), "missing field: {field}");
        }
        for field in [
            "directory_lookups",
            "invalidations",
            "downgrades",
            "back_invalidations",
            "maintenance_packets",
        ] {
            assert!(
                report.contains(&format!("\n    \"{field}\": ")),
                "missing coherence field: {field}"
            );
        }
        let cores = available_parallelism();
        for threads in THREAD_COUNTS {
            let point = report
                .lines()
                .find(|l| l.starts_with(&format!("    {{\"threads\": {threads},")))
                .unwrap_or_else(|| panic!("no {threads}-thread scaling point"));
            let exceeds = cores != 0 && threads > cores;
            assert!(
                point.contains(&format!("\"threads_exceed_cores\": {exceeds}}}")),
                "threads_exceed_cores mislabels the {threads}-thread point"
            );
        }
        assert_eq!(report.matches("{\"threads\": ").count(), THREAD_COUNTS.len());
    }
}
