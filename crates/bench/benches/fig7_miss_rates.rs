//! Figure 7: private L1 and shared L2 cache miss rates for each interactive
//! application under MI6 and IRONHIDE.
//!
//! Paper reference points: IRONHIDE reduces private L1 miss rates by up to
//! 5.9× (MI6 thrashes the L1 by purging it every interaction) and improves L2
//! miss rates by up to 2×, with `<TC, GRAPH>` and `<LIGHTTPD, OS>` as the
//! exceptions where IRONHIDE's asymmetric L2 allocation is slightly worse.

use ironhide_bench::{geometric_mean, paper_sweep, print_header, print_row};
use ironhide_core::arch::Architecture;
use ironhide_core::realloc::ReallocPolicy;

fn main() {
    let matrix =
        paper_sweep(&[Architecture::Mi6, Architecture::Ironhide], &[ReallocPolicy::Heuristic]);
    println!("# Figure 7: cache miss rates (%) under MI6 and IRONHIDE\n");
    print_header(&[
        "Application",
        "MI6 L1 miss %",
        "IRONHIDE L1 miss %",
        "L1 improvement",
        "MI6 L2 miss %",
        "IRONHIDE L2 miss %",
        "L2 improvement",
    ]);

    let mut l1_mi6 = Vec::new();
    let mut l1_ih = Vec::new();
    let mut l2_mi6 = Vec::new();
    let mut l2_ih = Vec::new();
    for row in matrix.fig7(ReallocPolicy::Heuristic) {
        print_row(&[
            row.app,
            format!("{:.1}", row.mi6_l1 * 100.0),
            format!("{:.1}", row.ironhide_l1 * 100.0),
            format!("{:.1}x", row.mi6_l1 / row.ironhide_l1.max(1e-9)),
            format!("{:.1}", row.mi6_l2 * 100.0),
            format!("{:.1}", row.ironhide_l2 * 100.0),
            format!("{:.1}x", row.mi6_l2 / row.ironhide_l2.max(1e-9)),
        ]);
        l1_mi6.push(row.mi6_l1 * 100.0);
        l1_ih.push(row.ironhide_l1 * 100.0);
        l2_mi6.push(row.mi6_l2 * 100.0);
        l2_ih.push(row.ironhide_l2 * 100.0);
    }

    println!("\n## Geometric means\n");
    print_header(&["Metric", "MI6", "IRONHIDE"]);
    print_row(&[
        "L1 miss rate (%)".to_string(),
        format!("{:.1}", geometric_mean(&l1_mi6)),
        format!("{:.1}", geometric_mean(&l1_ih)),
    ]);
    print_row(&[
        "L2 miss rate (%)".to_string(),
        format!("{:.1}", geometric_mean(&l2_mi6)),
        format!("{:.1}", geometric_mean(&l2_ih)),
    ]);
}
