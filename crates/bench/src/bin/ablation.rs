//! The temporal-fence defence-ablation harness (BENCH_10).
//!
//! Sweeps the `TemporalFence` architecture's {flush subset × channel} grid
//! on the covert-channel testbench and reports, per channel, which flush
//! subset closes it at what switch cost — the experiment the fence.t.s paper
//! runs in silicon, reproduced across all six shipped channels (including
//! the directory, mesh-contention and reconfiguration-window channels no
//! hardware paper can reach). The output JSON (`BENCH_10.json` in the repo
//! root) embeds the full deterministic matrix, a per-channel
//! cheapest-closing-subset summary, and the FNV checksum
//! `ironhide_bench::pins` holds for the smoke grid.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ironhide-bench --bin ablation            # full grid
//! cargo run --release -p ironhide-bench --bin ablation -- --smoke # CI smoke
//! cargo run --release -p ironhide-bench --bin ablation -- --out path.json
//! cargo run --release -p ironhide-bench --bin ablation -- --threads 2
//! ```
//!
//! Without `--threads` the grid runs at 1, 2 and 8 workers and the harness
//! exits non-zero unless all three serialised matrices are **byte-identical**
//! (the sweep runner's determinism contract). `--threads <n>` replaces that
//! set with a single `n`-worker run. The harness also enforces the
//! ablation's differential claim: every channel must decode
//! under the zero-flush fence (it is the insecure baseline), SIMF must close
//! every channel, and some selective subset must close each channel at a
//! strictly lower switch cost than SIMF. Under `--smoke` every run — a
//! separate 2-thread process included — must also reproduce
//! `pins::ABLATION_SMOKE` and the smoke ladder's golden rows before it writes
//! anything.

use ironhide_bench::{
    ablation_grid, check_pin, fail, parse_args, pins, thread_identity, write_report, HarnessArgs,
    ABLATION_SEED,
};
use ironhide_core::sweep::{AblationMatrix, SweepRunner};
use ironhide_sim::config::MachineConfig;
use ironhide_sim::fence::TemporalFenceConfig;

const HARNESS: &str = "ablation";

/// The subset row every channel must stay open under.
const NONE_LABEL: &str = "none";

/// The flush-everything preset row.
const SIMF_LABEL: &str = "simf";

/// The smoke ladder's golden rows: the subset that closes every channel most
/// cheaply, and the everything-but-predictor subset that must close them all.
const SMOKE_CHEAPEST: &str = "l1+tlb+dir";
const ALL_BUT_PREDICTOR: &str = "l1+tlb+dir+noc+dram";

fn main() {
    let args = parse_args(HARNESS, "BENCH_10.json", true);
    let (matrix, walls) = run(&args);
    if args.smoke {
        smoke_gate(&matrix);
    }
    write_report(HARNESS, &args.out, &render_report(&args, &matrix, walls[0].1));
}

/// Sweeps the grid through the thread-identity and differential gates,
/// returning the first run's matrix and every run's wall time; exits
/// non-zero on the first failed gate.
fn run(args: &HarnessArgs) -> (AblationMatrix, Vec<(usize, f64)>) {
    let (grid, label) = (ablation_grid(args.smoke), args.label());
    let config = MachineConfig::attack_testbench();

    eprintln!("ablation: running {label} grid ({} cells) at {:?}...", grid.len(), args.threads);
    let (matrix, walls) = thread_identity(&args.threads, |threads| {
        let runner =
            SweepRunner::new(config.clone()).with_threads(threads).with_seed(ABLATION_SEED);
        let matrix = runner
            .run_ablation(&grid)
            .unwrap_or_else(|e| fail(HARNESS, &format!("sweep failed: {e}")));
        let json = matrix.to_json();
        (matrix, json)
    })
    .unwrap_or_else(|n| fail(HARNESS, &format!("NONDETERMINISM — the {n}-thread matrix differs")));

    // The differential gate: open under zero flush, closed under SIMF, and
    // closed strictly cheaper than SIMF by some selective subset.
    let violations = matrix.differential_violations(NONE_LABEL, SIMF_LABEL);
    if !violations.is_empty() {
        fail(
            HARNESS,
            &format!("the differential claim FAILED:\n  - {}", violations.join("\n  - ")),
        );
    }
    (matrix, walls)
}

/// The smoke pin and golden rows: 4 subsets × 6 channels; per channel the
/// zero-flush row charges nothing, SIMF charges the geometry's SIMF cost,
/// [`SMOKE_CHEAPEST`] is the cheapest closing subset and
/// [`ALL_BUT_PREDICTOR`] closes the channel too.
fn smoke_gate(matrix: &AblationMatrix) {
    check_pin(HARNESS, "ablation checksum", matrix.checksum(), pins::ABLATION_SMOKE);
    let channels = channel_scale_pairs(matrix);
    if matrix.cells.len() != 24 || channels.len() != 6 {
        fail(HARNESS, "smoke grid is 4 subsets x 6 channels");
    }
    let simf_cost = TemporalFenceConfig::simf().switch_cost(&MachineConfig::attack_testbench());
    for (channel, scale) in &channels {
        let row = |subset| matrix.get(subset, channel, scale).expect("smoke subset ran");
        if row(NONE_LABEL).switch_cost != 0 {
            fail(HARNESS, &format!("{channel}: the zero flush charged a switch cost"));
        }
        if row(SIMF_LABEL).switch_cost != simf_cost {
            fail(HARNESS, &format!("{channel}: SIMF row charges other than {simf_cost}"));
        }
        if !row(ALL_BUT_PREDICTOR).outcome.is_closed() {
            fail(HARNESS, &format!("{ALL_BUT_PREDICTOR} leaks on {channel}"));
        }
        let best = matrix.cheapest_closed(channel, scale).expect("the differential gate passed");
        if best.key.subset != SMOKE_CHEAPEST {
            let moved = format!("{} at {}", best.key.subset, best.switch_cost);
            fail(HARNESS, &format!("{channel}: cheapest closing subset moved: {moved}"));
        }
    }
}

/// Every (channel, scale) pair of `matrix`, in grid order: the pairs of its
/// zero-flush rows, which every ablation grid starts with.
fn channel_scale_pairs(matrix: &AblationMatrix) -> Vec<(&str, &str)> {
    let none_rows = matrix.cells.iter().filter(|c| c.key.subset == NONE_LABEL);
    none_rows.map(|c| (c.key.channel.as_str(), c.key.scale.as_str())).collect()
}

/// Renders the measurement as deterministic-layout JSON (only
/// `wall_seconds` varies run to run; every other byte, including the
/// embedded matrix and its checksum, must not).
fn render_report(args: &HarnessArgs, matrix: &AblationMatrix, wall_s: f64) -> String {
    let simf_cost = TemporalFenceConfig::simf().switch_cost(&MachineConfig::attack_testbench());
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"temporal_fence_ablation\",\n");
    out.push_str(&format!("  \"grid\": \"{}\",\n", args.label()));
    out.push_str(&format!("  \"cells\": {},\n", matrix.cells.len()));
    out.push_str(&format!("  \"master_seed\": {},\n", matrix.master_seed));
    out.push_str(&format!("  \"wall_seconds\": {wall_s:.3},\n"));
    out.push_str(&format!("  \"thread_counts_identical\": {:?},\n", args.threads));
    out.push_str(&format!("  \"ablation_checksum\": {},\n", matrix.checksum()));
    out.push_str(&format!("  \"simf_switch_cost\": {simf_cost},\n"));

    // Per-channel closure summary: what the channel costs to close, and how
    // far below flushing everything that sits.
    let channels = channel_scale_pairs(matrix);
    out.push_str("  \"channels\": [\n");
    for (i, (channel, scale)) in channels.iter().enumerate() {
        let open = matrix.get(NONE_LABEL, channel, scale).expect("the none row ran");
        let simf = matrix.get(SIMF_LABEL, channel, scale).expect("the simf row ran");
        let best = matrix.cheapest_closed(channel, scale).expect("the differential gate passed");
        let sep = if i + 1 == channels.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"channel\": \"{channel}\", \"scale\": \"{scale}\", \
             \"none_ber\": {:.3}, \"simf_ber\": {:.3}, \"simf_switch_cost\": {}, \
             \"cheapest_closed_subset\": \"{}\", \"cheapest_closed_cost\": {}, \
             \"saved_vs_simf\": {}}}{sep}\n",
            open.outcome.ber,
            simf.outcome.ber,
            simf.switch_cost,
            best.key.subset,
            best.switch_cost,
            simf.switch_cost - best.switch_cost,
        ));
    }
    out.push_str("  ],\n");

    // The full matrix, embedded verbatim: BENCH_10 is self-contained
    // evidence, not a pointer to a run that no longer exists.
    out.push_str("  \"matrix\": ");
    out.push_str(&matrix.to_json().trim_end().replace('\n', "\n  "));
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ironhide_bench::THREAD_COUNTS;

    #[test]
    fn smoke_report_carries_every_field() {
        let args = HarnessArgs { smoke: true, out: String::new(), threads: THREAD_COUNTS.to_vec() };
        let (matrix, walls) = run(&args);
        smoke_gate(&matrix);
        let report = render_report(&args, &matrix, walls[0].1);
        for field in [
            "benchmark",
            "grid",
            "cells",
            "master_seed",
            "thread_counts_identical",
            "ablation_checksum",
            "simf_switch_cost",
            "channels",
            "matrix",
        ] {
            assert!(report.contains(&format!("\n  \"{field}\": ")), "missing field: {field}");
        }
        assert!(report.contains("\n  \"grid\": \"smoke\","));
        assert!(report.contains("\n  \"thread_counts_identical\": [1, 2, 8],"));
        for field in [
            "none_ber",
            "simf_ber",
            "cheapest_closed_subset",
            "cheapest_closed_cost",
            "saved_vs_simf",
        ] {
            assert_eq!(
                report.matches(&format!("\"{field}\": ")).count(),
                6,
                "channel field {field}"
            );
        }
    }
}
