//! Figure 1(a): normalised geometric-mean completion time of the evaluated
//! secure-processor architectures relative to an insecure baseline.
//!
//! Paper reference points: SGX ≈ 1.33×, MI6 ≈ 2.25×, IRONHIDE well below MI6
//! (≈ 2.1× faster than MI6 and ≈ 20 % faster than SGX).

use ironhide_bench::{geometric_mean, paper_sweep, print_header, print_row};
use ironhide_core::arch::Architecture;
use ironhide_core::realloc::ReallocPolicy;
use ironhide_workloads::app::AppId;

fn main() {
    let matrix = paper_sweep(&Architecture::ALL, &[ReallocPolicy::Heuristic]);
    let report = |app: AppId, arch| {
        &matrix.get(app.label(), arch, ReallocPolicy::Heuristic, "Paper").expect("swept").report
    };
    println!("# Figure 1(a): normalized geometric-mean completion time (vs. insecure)\n");

    print_header(&["Architecture", "Normalized completion time (geomean)"]);
    let mut summary = Vec::new();
    for arch in [Architecture::SgxLike, Architecture::Mi6, Architecture::Ironhide] {
        let normalized: Vec<f64> = AppId::ALL
            .iter()
            .map(|&app| report(app, arch).normalized_to(report(app, Architecture::Insecure)))
            .collect();
        let geo = geometric_mean(&normalized);
        print_row(&[arch.to_string(), format!("{geo:.2}x")]);
        summary.push((arch, geo));
    }

    println!();
    let sgx = summary[0].1;
    let mi6 = summary[1].1;
    let ironhide = summary[2].1;
    println!("IRONHIDE speedup over MI6 (paper: ~2.1x): {:.2}x", mi6 / ironhide);
    println!("IRONHIDE improvement over SGX (paper: ~20%): {:.1}%", (sgx / ironhide - 1.0) * 100.0);
}
