//! Multi-tenant churn benchmark: per-tenant SLOs under admission control,
//! plus the reconfiguration-window verdict rows.
//!
//! The ROADMAP's multi-tenant scenario is a stream of tenants arriving at an
//! IRONHIDE machine, each wanting its own attested secure-cluster
//! allocation. This harness sweeps the {admission policy × load} tenancy
//! grid through `SweepRunner::run_tenancy` — a seed-deterministic open-loop
//! arrival process replayed under Deny / Queue / ShrinkNeighbours — and
//! reports each cell's conservation counts and exact-sample SLO tails
//! (p50/p99/p999 completion latency, reconfiguration-stall percentiles).
//!
//! Three in-process gates run before the report is written:
//!
//! 1. **Thread identity** — the tenancy matrix is serialised at 1, 2 and 8
//!    worker threads and must be byte-identical (the determinism contract
//!    every sweep in this workspace carries).
//! 2. **Storm baseline** — the BENCH_7 smoke reconfiguration storm is
//!    replayed and its stall-cycle checksum must equal the pinned value, so
//!    the tenancy numbers ride on a simulator whose reconfiguration
//!    semantics are byte-unchanged.
//! 3. **Window verdicts** — the reconfiguration-window covert channel must
//!    judge CLOSED (clean isolation audit) under the shipped purge ordering
//!    on MI6 and IRONHIDE, OPEN on the insecure baseline, and OPEN under the
//!    injected rehome-before-purge mis-ordering — the golden rows proving
//!    the stall sequence's purge ordering is what closes the window.
//!
//! Under `--smoke` the harness also checks the tenancy checksum against
//! `ironhide_bench::pins` and the golden smoke rows: the three policies in
//! canonical order, each conserving its tenants with a drained queue.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ironhide-bench --bin tenancy            # full grid
//! cargo run --release -p ironhide-bench --bin tenancy -- --smoke # CI smoke
//! cargo run --release -p ironhide-bench --bin tenancy -- --out path.json
//! ```

use ironhide_attacks::window::WindowAttack;
use ironhide_bench::storm::{run_storm, StormParams, StormResult};
use ironhide_bench::{
    available_parallelism, check_pin, fail, parse_args, peak_rss_bytes, pins, tenancy_grid,
    thread_identity, write_report, HarnessArgs, TENANCY_SEED,
};
use ironhide_core::arch::Architecture;
use ironhide_core::attack::{AttackOutcome, ChannelVerdict};
use ironhide_core::cluster::PurgeOrder;
use ironhide_core::sweep::SweepRunner;
use ironhide_core::tenancy::{AdmissionPolicy, TenancyMatrix};
use ironhide_sim::config::MachineConfig;

const HARNESS: &str = "tenancy";

/// Seed of the window-channel verdict rows (matches the module tests).
const WINDOW_SEED: u64 = 7;

fn main() {
    let args = parse_args(HARNESS, "BENCH_8.json", false);
    let tenancy = run(&args);
    if args.smoke {
        smoke_gate(&tenancy.matrix);
    }
    write_report(HARNESS, &args.out, &render_report(&args, &tenancy));
}

/// Everything the report renders.
struct Tenancy {
    matrix: TenancyMatrix,
    sweep_walls: Vec<(usize, f64)>,
    storm: StormResult,
    verdicts: Vec<(ChannelVerdict, AttackOutcome)>,
}

/// Sweeps the grid and runs the three gates; exits non-zero on the first
/// failed gate.
fn run(args: &HarnessArgs) -> Tenancy {
    let (grid, label) = (tenancy_grid(args.smoke), args.label());

    // Gate 1: the matrix must serialise byte-identically at every thread
    // count. The first pass is the canonical one reported.
    eprintln!("tenancy: running {label} grid ({} cells) at {:?}...", grid.len(), args.threads);
    let (matrix, sweep_walls) = thread_identity(&args.threads, |threads| {
        let runner = SweepRunner::new(MachineConfig::paper_default())
            .with_threads(threads)
            .with_seed(TENANCY_SEED);
        let matrix = runner
            .run_tenancy(&grid)
            .unwrap_or_else(|e| fail(HARNESS, &format!("sweep failed: {e}")));
        let json = matrix.to_json();
        (matrix, json)
    })
    .unwrap_or_else(|n| fail(HARNESS, &format!("NONDETERMINISM — the {n}-thread matrix differs")));

    // Gate 2: replay the BENCH_7 smoke storm and pin its stall checksum.
    eprintln!("tenancy: replaying the BENCH_7 smoke storm...");
    let storm = run_storm(&StormParams::new(true), false);
    check_pin(HARNESS, "replayed storm stall checksum", storm.stall_checksum, pins::STORM_SMOKE);

    // Gate 3: the reconfiguration-window verdict rows.
    eprintln!("tenancy: judging the reconfiguration-window channel...");
    let verdicts = window_verdicts();
    for (expected, outcome) in &verdicts {
        let row = format!("{} under {}", outcome.channel, outcome.arch);
        let (verdict, ber) = (outcome.verdict, outcome.ber);
        if verdict != *expected {
            let judged = format!("judged {verdict} (BER {ber}), expected {expected}");
            fail(HARNESS, &format!("WINDOW VERDICT FAILURE — {row} {judged}"));
        }
        if verdict == ChannelVerdict::Closed && !outcome.isolation.is_clean() {
            let dirt = &outcome.isolation.violations;
            fail(HARNESS, &format!("WINDOW AUDIT FAILURE — {row} closed but dirty: {dirt:?}"));
        }
    }
    Tenancy { matrix, sweep_walls, storm, verdicts }
}

/// The smoke pin and golden rows: three policies in canonical order, each
/// conserving its tenants with a drained queue.
fn smoke_gate(matrix: &TenancyMatrix) {
    check_pin(HARNESS, "tenancy checksum", matrix.checksum(), pins::TENANCY_SMOKE);
    let policies: Vec<AdmissionPolicy> = matrix.cells.iter().map(|c| c.key.policy).collect();
    if policies != AdmissionPolicy::ALL {
        fail(HARNESS, &format!("smoke grid is 3 policies x 1 load, got {policies:?}"));
    }
    for cell in &matrix.cells {
        let (r, policy) = (&cell.report, cell.key.policy);
        let conserved = r.admitted + r.denied + r.queued;
        if conserved != r.arrived {
            let arrived = r.arrived;
            fail(HARNESS, &format!("{policy}: conservation violated ({conserved} != {arrived})"));
        }
        if r.queued != 0 {
            fail(HARNESS, &format!("{policy}: queue did not drain"));
        }
    }
}

/// The golden verdict rows: expected verdict paired with the measured
/// outcome for every (ordering, architecture) the claim covers.
fn window_verdicts() -> Vec<(ChannelVerdict, AttackOutcome)> {
    let config = MachineConfig::attack_testbench();
    let shipped = WindowAttack::new(config.clone(), PurgeOrder::PurgeThenRehome);
    let misordered = WindowAttack::new(config, PurgeOrder::RehomeThenPurge);
    let run = |attack: &WindowAttack, arch| {
        attack
            .assess(arch, WINDOW_SEED)
            .unwrap_or_else(|e| fail(HARNESS, &format!("window attack failed: {e}")))
    };
    vec![
        (ChannelVerdict::Open, run(&shipped, Architecture::Insecure)),
        (ChannelVerdict::Closed, run(&shipped, Architecture::Mi6)),
        (ChannelVerdict::Closed, run(&shipped, Architecture::Ironhide)),
        (ChannelVerdict::Open, run(&misordered, Architecture::Ironhide)),
    ]
}

/// Renders the measurement as deterministic-layout JSON (timing fields vary
/// run to run; everything else, including every checksum, must not).
fn render_report(args: &HarnessArgs, tenancy: &Tenancy) -> String {
    let Tenancy { matrix, sweep_walls, storm, verdicts } = tenancy;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"tenant_churn\",\n");
    out.push_str(&format!("  \"grid\": \"{}\",\n", args.label()));
    out.push_str(&format!("  \"master_seed\": {TENANCY_SEED},\n"));
    out.push_str(&format!("  \"tenancy_checksum\": {},\n", matrix.checksum()));
    out.push_str(&format!("  \"thread_counts_identical\": {:?},\n", args.threads));

    out.push_str("  \"cells\": [\n");
    for (i, cell) in matrix.cells.iter().enumerate() {
        let r = &cell.report;
        let sep = if i + 1 == matrix.cells.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"policy\": \"{}\", \"load\": \"{}\", \"arrived\": {}, \"admitted\": {}, \
             \"denied\": {}, \"queued\": {}, \"completion_p50_cycles\": {}, \
             \"completion_p99_cycles\": {}, \"completion_p999_cycles\": {}, \
             \"stall_p99_cycles\": {}, \"stall_max_cycles\": {}, \"reconfigurations\": {}, \
             \"slo_checksum\": {}}}{sep}\n",
            cell.key.policy.label(),
            cell.key.load,
            r.arrived,
            r.admitted,
            r.denied,
            r.queued,
            r.slo.completion_percentile(1, 2),
            r.slo.completion_percentile(99, 100),
            r.slo.completion_percentile(999, 1000),
            r.slo.stall_percentile(99, 100),
            r.slo.stall_max(),
            r.reconfigurations,
            r.slo.checksum(),
        ));
    }
    out.push_str("  ],\n");

    out.push_str("  \"window_channel\": [\n");
    for (i, (expected, o)) in verdicts.iter().enumerate() {
        let sep = if i + 1 == verdicts.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"channel\": \"{}\", \"arch\": \"{}\", \"payload_bits\": {}, \
             \"bit_errors\": {}, \"ber\": {:.4}, \"verdict\": \"{}\", \"expected\": \"{expected}\", \
             \"isolation_clean\": {}}}{sep}\n",
            o.channel,
            o.arch,
            o.payload_bits,
            o.bit_errors,
            o.ber,
            o.verdict,
            o.isolation.is_clean(),
        ));
    }
    out.push_str("  ],\n");

    out.push_str("  \"storm_replay\": {\n");
    out.push_str(&format!("    \"stall_cycle_checksum\": {},\n", storm.stall_checksum));
    out.push_str(&format!("    \"reconfigs_per_sec\": {}\n", storm.rate));
    out.push_str("  },\n");

    out.push_str("  \"sweep_wall_seconds\": {\n");
    for (i, (threads, wall)) in sweep_walls.iter().enumerate() {
        let sep = if i + 1 == sweep_walls.len() { "" } else { "," };
        out.push_str(&format!("    \"{threads}\": {wall:.6}{sep}\n"));
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
    use ironhide_bench::THREAD_COUNTS;

    #[test]
    fn smoke_report_carries_every_field() {
        let args = HarnessArgs { smoke: true, out: String::new(), threads: THREAD_COUNTS.to_vec() };
        let tenancy = run(&args);
        smoke_gate(&tenancy.matrix);
        let report = render_report(&args, &tenancy);
        for field in [
            "benchmark",
            "grid",
            "master_seed",
            "tenancy_checksum",
            "thread_counts_identical",
            "cells",
            "window_channel",
            "storm_replay",
            "sweep_wall_seconds",
            "peak_rss_bytes",
            "available_parallelism",
        ] {
            assert!(report.contains(&format!("\n  \"{field}\": ")), "missing field: {field}");
        }
        assert!(report.contains("\n  \"grid\": \"smoke\","));
        assert!(report.contains("\n  \"thread_counts_identical\": [1, 2, 8],"));
        for field in [
            "policy",
            "load",
            "arrived",
            "admitted",
            "denied",
            "queued",
            "completion_p50_cycles",
            "completion_p99_cycles",
            "completion_p999_cycles",
            "stall_p99_cycles",
            "stall_max_cycles",
            "reconfigurations",
            "slo_checksum",
        ] {
            assert_eq!(report.matches(&format!("\"{field}\": ")).count(), 3, "cell field {field}");
        }
        for (channel, arch) in [
            ("reconfig-window", "Insecure"),
            ("reconfig-window", "MI6"),
            ("reconfig-window", "IRONHIDE"),
            ("reconfig-window-misordered", "IRONHIDE"),
        ] {
            let row = format!("{{\"channel\": \"{channel}\", \"arch\": \"{arch}\",");
            assert!(report.contains(&row), "missing window row {channel}/{arch}");
        }
    }
}
