//! Fault-injection campaign: graceful degradation and security invariants
//! that survive failure (BENCH_9).
//!
//! The ROADMAP's robustness scenario: tiles die, NoC links degrade, memory
//! controllers stall, and the purge traffic IRONHIDE's isolation leans on is
//! itself dropped mid-reconfiguration. This harness sweeps the
//! {fault kind × rate × degradation discipline} grid through
//! `SweepRunner::run_faults` — every cell a seed-deterministic tenant storm
//! replayed under an injected `FaultSchedule` — and reports conservation
//! counts, quarantine/backoff/recovery tallies and exact-sample SLO tails.
//!
//! Four in-process gates run before the report is written:
//!
//! 1. **Thread identity** — the fault matrix is serialised at 1, 2 and 8
//!    worker threads and must be byte-identical (the determinism contract
//!    every sweep in this workspace carries).
//! 2. **Conservation** — every cell, however hard it was faulted, must
//!    satisfy `admitted + denied + queued + failed_recovered == arrived`:
//!    degradation may slow tenants down but never loses one.
//! 3. **Bounded degradation** — each faulted cell's p99 completion latency
//!    must stay within a fixed factor of its same-kind, same-discipline
//!    healthy baseline (the rate-0 cell), so "graceful" is a measured claim.
//! 4. **Fault-channel verdicts** — the reconfiguration-window attack is
//!    re-run with dropped-purge faults injected: the audited discipline must
//!    judge CLOSED with a clean scrub audit (detection-then-recovery works
//!    under fire), and the unaudited fail-open variant must judge OPEN (the
//!    negative control proving the audit is load-bearing, not decorative).
//!
//! Under `--smoke` the harness also checks the campaign checksum against
//! `ironhide_bench::pins`, the 16-cell grid shape, and that the faulted half
//! of the grid actually injected faults.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ironhide-bench --bin faults            # full grid
//! cargo run --release -p ironhide-bench --bin faults -- --smoke # CI smoke
//! cargo run --release -p ironhide-bench --bin faults -- --out path.json
//! ```

use ironhide_attacks::window::{FaultMode, WindowAttack};
use ironhide_bench::{
    available_parallelism, check_pin, fail, fault_grid, parse_args, peak_rss_bytes, pins,
    thread_identity, write_report, HarnessArgs, FAULTS_SEED,
};
use ironhide_core::arch::Architecture;
use ironhide_core::attack::ChannelVerdict;
use ironhide_core::cluster::PurgeOrder;
use ironhide_core::faults::FaultMatrix;
use ironhide_core::sweep::SweepRunner;
use ironhide_sim::config::MachineConfig;

const HARNESS: &str = "faults";

/// Seed of the fault-channel verdict rows (matches the window-attack tests).
const WINDOW_SEED: u64 = 7;

/// Drop rate of the fault-channel rows, per-mille. High enough that the
/// unaudited variant reliably decodes OPEN — the negative control needs a
/// strong signal to be meaningful (matches the window-attack tests).
const WINDOW_DROP_RATE: u32 = 800;

/// Gate 3's bound: a faulted cell's p99 completion latency must stay within
/// this factor of its healthy (rate-0) same-kind, same-discipline baseline.
const SLO_DEGRADATION_FACTOR: u64 = 10;

fn main() {
    let args = parse_args(HARNESS, "BENCH_9.json", false);
    let campaign = run(&args);
    if args.smoke {
        smoke_gate(&campaign.matrix);
    }
    write_report(HARNESS, &args.out, &render_report(&args, &campaign));
}

/// Everything the report renders.
struct Campaign {
    matrix: FaultMatrix,
    channel_rows: Vec<ChannelRow>,
    sweep_walls: Vec<(usize, f64)>,
}

/// Sweeps the campaign and runs the four gates; exits non-zero on the first
/// failed gate.
fn run(args: &HarnessArgs) -> Campaign {
    let (grid, label) = (fault_grid(args.smoke), args.label());

    // Gate 1: the matrix must serialise byte-identically at every thread
    // count. The first pass is the canonical one reported.
    eprintln!("faults: running {label} campaign ({} cells) at {:?}...", grid.len(), args.threads);
    let (matrix, sweep_walls) = thread_identity(&args.threads, |threads| {
        let runner = SweepRunner::new(MachineConfig::paper_default())
            .with_threads(threads)
            .with_seed(FAULTS_SEED);
        let matrix = runner
            .run_faults(&grid)
            .unwrap_or_else(|e| fail(HARNESS, &format!("sweep failed: {e}")));
        let json = matrix.to_json();
        (matrix, json)
    })
    .unwrap_or_else(|n| fail(HARNESS, &format!("NONDETERMINISM — the {n}-thread matrix differs")));

    // Gate 2: conservation — no tenant is ever lost, only delayed or
    // re-routed, whatever broke underneath.
    for cell in &matrix.cells {
        let (r, key) = (&cell.report, &cell.key);
        if !r.conserves_tenants() {
            let sum =
                format!("{} + {} + {} + {}", r.admitted, r.denied, r.queued, r.failed_recovered);
            fail(HARNESS, &format!("CONSERVATION FAILURE in [{key}]: {sum} != {}", r.arrived));
        }
        let unrecovered = r.dropped_scrubs_unrecovered;
        if key.arch.audited() && unrecovered != 0 {
            fail(
                HARNESS,
                &format!(
                    "AUDIT FAILURE in [{key}]: {unrecovered} dropped packets left unrecovered"
                ),
            );
        }
    }

    // Gate 3: bounded degradation against each (kind, arch)'s rate-0 cell.
    for cell in &matrix.cells {
        if cell.key.rate_per_mille == 0 {
            continue;
        }
        let baseline = matrix.get(cell.key.kind, 0, cell.key.arch).unwrap_or_else(|| {
            fail(HARNESS, &format!("grid has no healthy baseline for [{}]", cell.key))
        });
        let base_p99 = baseline.report.slo.completion_percentile(99, 100).max(1);
        let faulted_p99 = cell.report.slo.completion_percentile(99, 100);
        if faulted_p99 > base_p99.saturating_mul(SLO_DEGRADATION_FACTOR) {
            let bound = format!("{SLO_DEGRADATION_FACTOR}x healthy {base_p99}");
            fail(
                HARNESS,
                &format!("DEGRADATION FAILURE in [{}]: p99 {faulted_p99} > {bound}", cell.key),
            );
        }
    }

    // Gate 4: the fault-channel verdict rows — isolation must survive the
    // fault when audited, and demonstrably not survive it when not.
    eprintln!("faults: judging the faulted reconfiguration-window channel...");
    let channel_rows = fault_channel_rows();
    for ChannelRow { expected, outcome: o, .. } in &channel_rows {
        if o.verdict != *expected {
            let judged = format!("{} judged {} (BER {})", o.channel, o.verdict, o.ber);
            fail(HARNESS, &format!("CHANNEL VERDICT FAILURE — {judged}, expected {expected}"));
        }
    }
    Campaign { matrix, channel_rows, sweep_walls }
}

/// The smoke pin and golden shape: 4 kinds × 2 rates × 2 disciplines, and
/// the faulted half of the grid really injects faults.
fn smoke_gate(matrix: &FaultMatrix) {
    check_pin(HARNESS, "fault campaign checksum", matrix.checksum(), pins::FAULTS_SMOKE);
    if matrix.cells.len() != 16 {
        fail(HARNESS, "smoke grid is 4 kinds x 2 rates x 2 arches");
    }
    let fired: u64 = matrix
        .cells
        .iter()
        .map(|c| {
            let r = &c.report;
            r.faults_injected + r.dropped_scrubs_detected + r.dropped_scrubs_unrecovered
        })
        .sum();
    if fired == 0 {
        fail(HARNESS, "the faulted half of the grid must actually inject faults");
    }
}

/// One fault-channel verdict row: the expected verdict, the measured attack
/// outcome and the scrub audit's tally.
struct ChannelRow {
    expected: ChannelVerdict,
    outcome: ironhide_core::attack::AttackOutcome,
    audit: ironhide_attacks::FaultAudit,
}

/// The differential rows of gate 4: audited dropped-purge recovery must keep
/// the window CLOSED with a clean audit; the unaudited fail-open variant is
/// the negative control and must be pinned OPEN.
fn fault_channel_rows() -> Vec<ChannelRow> {
    let config = MachineConfig::attack_testbench();
    let run = |mode: FaultMode, expected: ChannelVerdict| {
        let attack = WindowAttack::new(config.clone(), PurgeOrder::PurgeThenRehome)
            .with_fault(mode, WINDOW_DROP_RATE);
        let (outcome, audit) = attack
            .assess_faulted(Architecture::Ironhide, WINDOW_SEED, &mut None)
            .unwrap_or_else(|e| fail(HARNESS, &format!("window attack failed: {e}")));
        if expected == ChannelVerdict::Closed {
            if !audit.is_clean() {
                fail(
                    HARNESS,
                    &format!("CHANNEL AUDIT FAILURE — closed row has dirty audit: {audit:?}"),
                );
            }
            if audit.dropped_detected == 0 {
                fail(HARNESS, "CHANNEL FAULT FAILURE — closed row dropped nothing");
            }
        } else if audit.dropped_unrecovered == 0 {
            fail(HARNESS, "NEGATIVE CONTROL FAILURE — open row left no residue");
        }
        ChannelRow { expected, outcome, audit }
    };
    vec![
        run(FaultMode::DroppedPurgeAudited, ChannelVerdict::Closed),
        run(FaultMode::DroppedPurgeUnaudited, ChannelVerdict::Open),
    ]
}

/// Renders the measurement as deterministic-layout JSON (timing fields vary
/// run to run; everything else, including every checksum, must not).
fn render_report(args: &HarnessArgs, campaign: &Campaign) -> String {
    let Campaign { matrix, channel_rows, sweep_walls } = campaign;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benchmark\": \"fault_campaign\",\n");
    out.push_str(&format!("  \"grid\": \"{}\",\n", args.label()));
    out.push_str(&format!("  \"master_seed\": {FAULTS_SEED},\n"));
    out.push_str(&format!("  \"campaign_checksum\": {},\n", matrix.checksum()));
    out.push_str(&format!("  \"thread_counts_identical\": {:?},\n", args.threads));
    out.push_str(&format!("  \"slo_degradation_factor_bound\": {SLO_DEGRADATION_FACTOR},\n"));

    out.push_str("  \"cells\": [\n");
    for (i, cell) in matrix.cells.iter().enumerate() {
        let r = &cell.report;
        let sep = if i + 1 == matrix.cells.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"kind\": \"{}\", \"rate_per_mille\": {}, \"arch\": \"{}\", \
             \"arrived\": {}, \"admitted\": {}, \"denied\": {}, \"queued\": {}, \
             \"failed_recovered\": {}, \"conserved\": {}, \"faults_injected\": {}, \
             \"quarantined_tiles\": {}, \"backoff_retries\": {}, \
             \"dropped_scrubs_detected\": {}, \"dropped_scrubs_recovered\": {}, \
             \"dropped_scrubs_unrecovered\": {}, \"completion_p50_cycles\": {}, \
             \"completion_p99_cycles\": {}, \"stall_p99_cycles\": {}, \
             \"reconfigurations\": {}, \"slo_checksum\": {}}}{sep}\n",
            cell.key.kind.label(),
            cell.key.rate_per_mille,
            cell.key.arch.label(),
            r.arrived,
            r.admitted,
            r.denied,
            r.queued,
            r.failed_recovered,
            r.conserves_tenants(),
            r.faults_injected,
            r.quarantined_tiles,
            r.backoff_retries,
            r.dropped_scrubs_detected,
            r.dropped_scrubs_recovered,
            r.dropped_scrubs_unrecovered,
            r.slo.completion_percentile(1, 2),
            r.slo.completion_percentile(99, 100),
            r.slo.stall_percentile(99, 100),
            r.reconfigurations,
            r.slo.checksum(),
        ));
    }
    out.push_str("  ],\n");

    out.push_str("  \"fault_channel\": [\n");
    for (i, row) in channel_rows.iter().enumerate() {
        let o = &row.outcome;
        let sep = if i + 1 == channel_rows.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"channel\": \"{}\", \"arch\": \"{}\", \"drop_rate_per_mille\": {WINDOW_DROP_RATE}, \
             \"payload_bits\": {}, \"bit_errors\": {}, \"ber\": {:.4}, \"verdict\": \"{}\", \
             \"expected\": \"{}\", \"dropped_detected\": {}, \"dropped_recovered\": {}, \
             \"dropped_unrecovered\": {}, \"audit_clean\": {}, \"isolation_clean\": {}}}{sep}\n",
            o.channel,
            o.arch,
            o.payload_bits,
            o.bit_errors,
            o.ber,
            o.verdict,
            row.expected,
            row.audit.dropped_detected,
            row.audit.dropped_recovered,
            row.audit.dropped_unrecovered,
            row.audit.is_clean(),
            o.isolation.is_clean(),
        ));
    }
    out.push_str("  ],\n");

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
        let campaign = run(&args);
        smoke_gate(&campaign.matrix);
        let report = render_report(&args, &campaign);
        for field in [
            "benchmark",
            "grid",
            "master_seed",
            "campaign_checksum",
            "thread_counts_identical",
            "slo_degradation_factor_bound",
            "cells",
            "fault_channel",
            "sweep_wall_seconds",
            "peak_rss_bytes",
            "available_parallelism",
        ] {
            assert!(report.contains(&format!("\n  \"{field}\": ")), "missing field: {field}");
        }
        assert!(report.contains("\n  \"grid\": \"smoke\","));
        assert!(report.contains("\n  \"thread_counts_identical\": [1, 2, 8],"));
        let cells = &report[report.find("\"cells\": [").expect("cells")
            ..report.find("\"fault_channel\"").expect("rows")];
        for field in [
            "kind",
            "rate_per_mille",
            "arch",
            "arrived",
            "admitted",
            "denied",
            "queued",
            "failed_recovered",
            "conserved",
            "faults_injected",
            "quarantined_tiles",
            "backoff_retries",
            "dropped_scrubs_detected",
            "dropped_scrubs_recovered",
            "dropped_scrubs_unrecovered",
            "completion_p50_cycles",
            "completion_p99_cycles",
            "stall_p99_cycles",
            "reconfigurations",
            "slo_checksum",
        ] {
            assert_eq!(cells.matches(&format!("\"{field}\": ")).count(), 16, "cell field {field}");
        }
        for channel in ["reconfig-window-dropped-purge-audited", "reconfig-window-dropped-purge"] {
            let row = format!("{{\"channel\": \"{channel}\",");
            assert!(report.contains(&row), "missing fault-channel row {channel}");
        }
    }
}
