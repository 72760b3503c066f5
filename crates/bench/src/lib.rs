//! # ironhide-bench
//!
//! The benchmark harness that regenerates the paper's figures. Each figure
//! has its own `harness = false` bench target that runs the relevant
//! experiment sweep and prints the same rows/series the paper reports:
//!
//! * `fig1_overview` — Figure 1(a): normalised geometric-mean completion time
//!   of SGX, MI6 and IRONHIDE relative to an insecure baseline.
//! * `fig6_completion_time` — Figure 6: per-application completion time broken
//!   into compute and enclave/purge overhead, plus the secure-cluster core
//!   counts and the user/OS/overall geometric means.
//! * `fig7_miss_rates` — Figure 7: private L1 and shared L2 miss rates under
//!   MI6 and IRONHIDE.
//! * `fig8_heuristic` — Figure 8: sensitivity of IRONHIDE to the core
//!   re-allocation decision (Heuristic, Optimal, fixed ±x% variations).
//! * `ablation_isolation` — ablations of IRONHIDE's design choices (static vs.
//!   dynamic hardware isolation).
//! * `micro_primitives` — Criterion microbenchmarks of the purge and IPC
//!   primitives backing the per-event costs quoted in Section V.
//!
//! The five bench binaries (`baseline`, `churn`, `tenancy`, `faults`,
//! `ablation`) each sweep one fixed grid and write a JSON report. This
//! library holds everything they share: the command line and the
//! thread-identity gate ([`parse_args`], [`thread_identity`],
//! [`write_report`], [`fail`]), each harness's grid and master seed, the
//! reconfiguration [`storm`], and the [`pins`] every `--smoke` run checks
//! itself against. The figure benches share [`paper_sweep`] and the table
//! printers.

mod grids;
mod harness;
pub mod pins;
pub mod storm;

pub use grids::{
    ablation_grid, baseline_grid, fault_grid, run_baseline, simulated_cycles, storm_config,
    tenancy_grid, ABLATION_SEED, BASELINE_SEED, FAULTS_SEED, TENANCY_SEED,
};
pub use harness::{
    check_floor, check_pin, fail, parse_args, thread_identity, write_report, HarnessArgs,
    THREAD_COUNTS,
};

use ironhide_core::arch::Architecture;
use ironhide_core::realloc::ReallocPolicy;
use ironhide_core::sweep::{SweepMatrix, SweepRunner};
use ironhide_sim::config::MachineConfig;
use ironhide_workloads::app::{sweep_grid, AppId, ScaleFactor};

// The single definition lives in the sweep harness; re-exported here so the
// figure benches keep their historical `ironhide_bench::geometric_mean` path.
pub use ironhide_core::sweep::geometric_mean;

/// Runs every application under each of `archs` × `policies` at Paper scale
/// on the paper-default machine — the sweep behind the figure benches.
pub fn paper_sweep(archs: &[Architecture], policies: &[ReallocPolicy]) -> SweepMatrix {
    let grid = sweep_grid(&AppId::ALL, archs, policies, &[ScaleFactor::Paper]);
    SweepRunner::new(MachineConfig::paper_default())
        .run(&grid)
        .unwrap_or_else(|e| panic!("figure sweep failed: {e}"))
}

/// Prints a markdown-style table row.
pub fn print_row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a markdown-style table header with a separator line.
pub fn print_header(cells: &[&str]) {
    print_row(&cells.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    println!("|{}|", cells.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`); 0 where procfs is unavailable.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Cores the host actually offers (0 when the platform cannot say).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[3.0, 3.0, 3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn smoke_sweep_runs_one_app() {
        let grid = sweep_grid(
            &[AppId::QueryAes],
            &[Architecture::SgxLike],
            &[ReallocPolicy::Heuristic],
            &[ScaleFactor::Smoke],
        );
        let matrix =
            SweepRunner::new(MachineConfig::paper_default()).run(&grid).expect("cell runs");
        let report = &matrix.cells[0].report;
        assert!(report.total_cycles > 0);
        assert!(report.isolation.is_clean());
    }

    #[test]
    fn smoke_baseline_grid_reproduces_its_pin() {
        let matrix = run_baseline(true, 1).expect("smoke baseline runs");
        assert_eq!(simulated_cycles(&matrix), pins::BASELINE_SMOKE);
    }

    #[test]
    fn smoke_storm_reproduces_its_pin() {
        let result = storm::run_storm(&storm::StormParams::new(true), false);
        assert_eq!(result.stall_checksum, pins::STORM_SMOKE);
    }
}
