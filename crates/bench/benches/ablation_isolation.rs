//! Ablation study of IRONHIDE's design choices (Section III-B):
//!
//! 1. **Dynamic vs. static hardware isolation** — run IRONHIDE with the
//!    re-allocation predictor disabled (a fixed 32/32 split) and compare
//!    against the full design. The paper motivates dynamic isolation with the
//!    load imbalance of applications like `<TC, GRAPH>` (2 vs. 62 cores).
//! 2. **Strong isolation cost** — compare IRONHIDE against the SGX-like model
//!    that shares caches and DRAM freely, quantifying what spatial
//!    partitioning costs when purges are already eliminated.

use ironhide_bench::{geometric_mean, paper_sweep, print_header, print_row};
use ironhide_core::arch::Architecture;
use ironhide_core::realloc::ReallocPolicy;
use ironhide_workloads::app::AppId;

fn main() {
    let matrix = paper_sweep(
        &[Architecture::SgxLike, Architecture::Ironhide],
        &[ReallocPolicy::Static, ReallocPolicy::Heuristic],
    );
    let report = |app: AppId, arch, policy| {
        &matrix.get(app.label(), arch, policy, "Paper").expect("swept").report
    };
    println!("# Ablation: dynamic hardware isolation and partitioning cost\n");
    print_header(&[
        "Application",
        "IRONHIDE static 32/32 (ms)",
        "IRONHIDE dynamic (ms)",
        "Dynamic speedup",
        "SGX-like (ms)",
        "Partitioning cost vs SGX (%)",
    ]);

    let mut static_times = Vec::new();
    let mut dynamic_times = Vec::new();
    for app in AppId::ALL {
        let fixed = report(app, Architecture::Ironhide, ReallocPolicy::Static);
        let dynamic = report(app, Architecture::Ironhide, ReallocPolicy::Heuristic);
        let sgx = report(app, Architecture::SgxLike, ReallocPolicy::Heuristic);
        print_row(&[
            app.label().to_string(),
            format!("{:.2}", fixed.total_time_ms()),
            format!("{:.2}", dynamic.total_time_ms()),
            format!("{:.2}x", dynamic.speedup_over(fixed)),
            format!("{:.2}", sgx.total_time_ms()),
            format!("{:+.1}", (dynamic.total_time_ms() / sgx.total_time_ms() - 1.0) * 100.0),
        ]);
        static_times.push(fixed.total_time_ms());
        dynamic_times.push(dynamic.total_time_ms());
    }

    println!(
        "\nGeomean benefit of dynamic hardware isolation: {:.2}x",
        geometric_mean(&static_times) / geometric_mean(&dynamic_times)
    );
}
