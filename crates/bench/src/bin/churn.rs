//! Reconfiguration-storm benchmark: the cost of `ClusterManager::reconfigure`
//! under churn.
//!
//! The ROADMAP's multi-tenant scenario drives thousands of cluster
//! reconfigurations per simulated second, each a stalled purge → rehome →
//! scrub sequence. This harness measures that path in isolation: it warms a
//! paper-default machine (two processes, real pinned pages, resident caches
//! and directories), then runs a seed-deterministic open-loop storm of
//! alternating cluster shapes and times **only** the `reconfigure` calls.
//!
//! Every storm runs twice from identical initial states: once through the
//! scalar reference reconfiguration path (`Machine::set_reconfig_reference`,
//! the pre-batching per-pin/per-line implementation kept as the byte-identity
//! oracle) and once through the default batched path. The harness asserts the
//! two passes agree on the stall-cycle checksum and the pages-rehomed count —
//! an in-process differential gate on every benchmark run — and reports both
//! throughputs plus their ratio, so the committed `BENCH_7.json` carries the
//! speedup claim *and* the evidence the optimisation is observably inert.
//!
//! The full grid also re-runs the BENCH_6 baseline sweeps (full + smoke) and
//! embeds their simulated-cycle checksums, pinning the storm measurement to a
//! simulator whose end-to-end semantics are byte-unchanged. Under `--smoke`
//! the batched stall checksum and the embedded smoke baseline checksum must
//! equal their `ironhide_bench::pins`, and the batched rate must clear
//! `pins::RECONFIG_RATE_FLOOR`, before anything is written.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ironhide-bench --bin churn            # full storm
//! cargo run --release -p ironhide-bench --bin churn -- --smoke # CI smoke
//! cargo run --release -p ironhide-bench --bin churn -- --out path.json
//! ```

use ironhide_bench::storm::{run_storm, StormParams, StormResult, STORM_SEED};
use ironhide_bench::{
    available_parallelism, check_floor, check_pin, fail, parse_args, peak_rss_bytes, pins,
    run_baseline, simulated_cycles, write_report, HarnessArgs,
};

const HARNESS: &str = "churn";

fn main() {
    let args = parse_args(HARNESS, "BENCH_7.json", false);
    let churn = run(&args);
    if args.smoke {
        smoke_gate(&churn);
    }
    write_report(HARNESS, &args.out, &render_report(&args, &churn));
}

/// Both storm passes plus the embedded baseline checksums.
struct Churn {
    params: StormParams,
    reference: StormResult,
    batched: StormResult,
    /// `(name, simulated_cycles_total)` of the re-run baseline sweeps: the
    /// smoke grid's, preceded by the full grid's in full mode.
    baseline_checksums: Vec<(&'static str, u64)>,
}

/// Runs both storm passes through the differential gate and re-derives the
/// baseline checksums; exits non-zero if the passes diverge.
fn run(args: &HarnessArgs) -> Churn {
    let label = args.label();
    let params = StormParams::new(args.smoke);

    eprintln!("churn: running {label} storm ({} reconfigs, reference pass)...", params.reconfigs);
    let reference = run_storm(&params, true);
    eprintln!("churn: running {label} storm ({} reconfigs, batched pass)...", params.reconfigs);
    let batched = run_storm(&params, false);

    // The in-harness differential gate: the batched protocol must be
    // observably identical to the scalar reference, stall cycle for stall
    // cycle, before its throughput may be reported.
    if reference.stall_checksum != batched.stall_checksum {
        let (b, r) = (batched.stall_checksum, reference.stall_checksum);
        fail(HARNESS, &format!("DIVERGENCE — batched stall checksum {b} != reference {r}"));
    }
    if reference.pages_rehomed != batched.pages_rehomed {
        let (b, r) = (batched.pages_rehomed, reference.pages_rehomed);
        fail(HARNESS, &format!("DIVERGENCE — batched pages_rehomed {b} != reference {r}"));
    }

    // Pin the storm to an end-to-end-unchanged simulator by re-deriving the
    // baseline checksums.
    let baseline_checksum = |smoke| {
        let matrix = run_baseline(smoke, 1)
            .unwrap_or_else(|e| fail(HARNESS, &format!("embedded baseline sweep failed: {e}")));
        simulated_cycles(&matrix)
    };
    let baseline_checksums = if args.smoke {
        vec![("smoke", baseline_checksum(true))]
    } else {
        vec![("full_grid", baseline_checksum(false)), ("smoke", baseline_checksum(true))]
    };
    Churn { params, reference, batched, baseline_checksums }
}

/// The smoke storm's pins and floor: the batched stall checksum and the
/// embedded smoke baseline reproduce their pins, pages really move, and the
/// batched pass clears `pins::RECONFIG_RATE_FLOOR`.
fn smoke_gate(churn: &Churn) {
    let batched = &churn.batched;
    check_pin(HARNESS, "storm stall-cycle checksum", batched.stall_checksum, pins::STORM_SMOKE);
    if batched.pages_rehomed == 0 {
        fail(HARNESS, "the storm must re-home pages, identically in both passes");
    }
    let embedded = churn.baseline_checksums.last().expect("the smoke baseline always runs").1;
    check_pin(HARNESS, "embedded baseline checksum", embedded, pins::BASELINE_SMOKE);
    check_floor(HARNESS, "batched reconfigs_per_sec", batched.rate, pins::RECONFIG_RATE_FLOOR);
}

/// Renders the measurement as deterministic-layout JSON (timing fields vary
/// run to run; everything else, including both checksums, must not).
fn render_report(args: &HarnessArgs, churn: &Churn) -> String {
    let Churn { params, reference, batched, baseline_checksums } = churn;
    let speedup =
        if reference.rate > 0 { batched.rate as f64 / reference.rate as f64 } else { 0.0 };
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"reconfiguration_storm\",\n");
    out.push_str(&format!("  \"grid\": \"{}\",\n", args.label()));
    out.push_str(&format!("  \"master_seed\": {STORM_SEED},\n"));
    out.push_str(&format!("  \"reconfigs\": {},\n", params.reconfigs));
    out.push_str(&format!("  \"warm_pages_per_process\": {},\n", params.warm_pages));
    for (name, r) in [("reference", reference), ("batched", batched)] {
        out.push_str(&format!("  \"{name}\": {{\n"));
        out.push_str(&format!("    \"wall_seconds\": {:.6},\n", r.wall_s));
        out.push_str(&format!("    \"reconfigs_per_sec\": {},\n", r.rate));
        out.push_str(&format!("    \"stall_cycle_checksum\": {},\n", r.stall_checksum));
        out.push_str(&format!("    \"pages_rehomed\": {},\n", r.pages_rehomed));
        out.push_str(&format!("    \"scrub_probes\": {}\n", r.scrub_probes));
        out.push_str("  },\n");
    }
    out.push_str(&format!("  \"speedup\": {speedup:.2},\n"));
    out.push_str("  \"baseline_checksums\": {\n");
    for (i, (name, sum)) in baseline_checksums.iter().enumerate() {
        let sep = if i + 1 == baseline_checksums.len() { "" } else { "," };
        out.push_str(&format!("    \"{name}\": {sum}{sep}\n"));
    }
    out.push_str("  },\n");
    out.push_str(&format!("  \"peak_rss_bytes\": {},\n", peak_rss_bytes()));
    out.push_str(&format!("  \"available_parallelism\": {}\n", available_parallelism()));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_carries_every_field() {
        // The rate floor guards optimised builds, so the report is rendered
        // without the smoke gate.
        let args = HarnessArgs { smoke: true, out: String::new(), threads: vec![1] };
        let report = render_report(&args, &run(&args));
        for field in [
            "benchmark",
            "grid",
            "master_seed",
            "reconfigs",
            "warm_pages_per_process",
            "reference",
            "batched",
            "speedup",
            "baseline_checksums",
            "peak_rss_bytes",
            "available_parallelism",
        ] {
            assert!(report.contains(&format!("\n  \"{field}\": ")), "missing field: {field}");
        }
        for field in [
            "wall_seconds",
            "reconfigs_per_sec",
            "stall_cycle_checksum",
            "pages_rehomed",
            "scrub_probes",
        ] {
            assert_eq!(
                report.matches(&format!("\n    \"{field}\": ")).count(),
                2,
                "missing {field}"
            );
        }
        assert!(report.contains("\n  \"grid\": \"smoke\","));
    }
}
