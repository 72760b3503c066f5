//! Figure 8: impact of the core re-allocation predictor's decision on
//! IRONHIDE's performance.
//!
//! Paper reference points: the gradient Heuristic delivers ≈ 2.1× and the
//! idealised Optimal ≈ 2.3× geometric-mean completion-time improvement over
//! the MI6 baseline, and the Heuristic stays within the ±5 % decision
//! variations.

use ironhide_bench::{geometric_mean, paper_sweep, print_header, print_row};
use ironhide_core::arch::Architecture;
use ironhide_core::realloc::ReallocPolicy;

fn policy_label(policy: ReallocPolicy) -> String {
    match policy {
        ReallocPolicy::Static => "Static 50/50".to_string(),
        ReallocPolicy::Heuristic => "Heuristic".to_string(),
        ReallocPolicy::Optimal => "Optimal".to_string(),
        ReallocPolicy::FixedOffset(p) if p > 0 => format!("+{p}%"),
        ReallocPolicy::FixedOffset(p) => format!("{p}%"),
    }
}

fn main() {
    let policies = ReallocPolicy::figure8_set();
    let matrix = paper_sweep(&[Architecture::Mi6, Architecture::Ironhide], &policies);
    println!("# Figure 8: sensitivity to the core re-allocation decision\n");

    // The MI6 baseline every policy is compared against.
    let mi6_cells = matrix.cells.iter().filter(|c| c.key.arch == Architecture::Mi6);
    let mi6: Vec<f64> = mi6_cells
        .filter(|c| c.key.policy == ReallocPolicy::Heuristic)
        .map(|c| c.report.total_time_ms())
        .collect();
    let mi6_geo = geometric_mean(&mi6);

    print_header(&[
        "Predictor decision",
        "Geomean completion time (ms)",
        "Normalized to MI6 (%)",
        "Improvement over MI6",
    ]);
    print_row(&[
        "MI6 baseline".to_string(),
        format!("{mi6_geo:.2}"),
        "100.0".to_string(),
        "1.00x".to_string(),
    ]);

    let fig8 = matrix.fig8();
    for policy in policies {
        let times: Vec<f64> =
            fig8.iter().filter(|r| r.policy == policy).map(|r| r.total_ms).collect();
        let geo = geometric_mean(&times);
        print_row(&[
            policy_label(policy),
            format!("{geo:.2}"),
            format!("{:.1}", geo / mi6_geo * 100.0),
            format!("{:.2}x", mi6_geo / geo),
        ]);
    }

    println!("\nSecure-cluster cores chosen by the Heuristic per application:");
    print_header(&["Application", "Secure cores (of 64)"]);
    for row in fig8.iter().filter(|r| r.policy == ReallocPolicy::Heuristic) {
        print_row(&[row.app.clone(), row.secure_cores.to_string()]);
    }
}
