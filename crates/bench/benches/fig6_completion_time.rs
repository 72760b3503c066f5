//! Figure 6: completion times of IRONHIDE against the SGX and MI6 baselines
//! for each interactive application, broken into compute and enclave/purge
//! overhead, with the number of secure-cluster cores chosen by IRONHIDE and
//! the user-level / OS-level / overall geometric means.

use ironhide_bench::{geometric_mean, paper_sweep, print_header, print_row};
use ironhide_core::arch::Architecture;
use ironhide_core::realloc::ReallocPolicy;
use ironhide_workloads::app::AppId;

fn main() {
    let archs = [Architecture::SgxLike, Architecture::Mi6, Architecture::Ironhide];
    let matrix = paper_sweep(&archs, &[ReallocPolicy::Heuristic]);
    let report = |app: AppId, arch| {
        &matrix.get(app.label(), arch, ReallocPolicy::Heuristic, "Paper").expect("swept").report
    };
    let geo_of = |apps: &[AppId], arch| {
        geometric_mean(&apps.iter().map(|&a| report(a, arch).total_time_ms()).collect::<Vec<_>>())
    };
    println!("# Figure 6: completion time per interactive application (ms)\n");
    print_header(&[
        "Application",
        "SGX compute",
        "SGX overhead",
        "MI6 compute",
        "MI6 overhead",
        "IRONHIDE compute",
        "IRONHIDE overhead+reconfig",
        "IRONHIDE secure cores",
        "MI6/IRONHIDE speedup",
    ]);

    let mut per_arch = Vec::new();
    for app in AppId::ALL {
        let [sgx, mi6, ih] = archs.map(|arch| report(app, arch));
        assert!(sgx.isolation.is_clean() && mi6.isolation.is_clean() && ih.isolation.is_clean());
        print_row(&[
            app.label().to_string(),
            format!("{:.2}", sgx.compute_time_ms()),
            format!("{:.2}", sgx.overhead_time_ms()),
            format!("{:.2}", mi6.compute_time_ms()),
            format!("{:.2}", mi6.overhead_time_ms()),
            format!("{:.2}", ih.compute_time_ms()),
            format!("{:.2}", ih.overhead_time_ms() + ih.reconfig_time_ms()),
            format!("{}", ih.secure_cores),
            format!("{:.2}x", ih.speedup_over(mi6)),
        ]);
        per_arch.push((sgx, mi6, ih));
    }

    println!("\n## Geometric means (completion time, ms)\n");
    print_header(&["Group", "SGX", "MI6", "IRONHIDE", "MI6/IRONHIDE", "SGX/IRONHIDE"]);
    for (label, apps) in [
        ("User-level", AppId::user_level()),
        ("OS-level", AppId::os_level()),
        ("All", AppId::ALL.to_vec()),
    ] {
        let [sgx, mi6, ih] = archs.map(|arch| geo_of(&apps, arch));
        print_row(&[
            label.to_string(),
            format!("{sgx:.2}"),
            format!("{mi6:.2}"),
            format!("{ih:.2}"),
            format!("{:.2}x", mi6 / ih),
            format!("{:.2}x", sgx / ih),
        ]);
    }

    // The per-interaction purge overhead the paper quotes for MI6 (~0.19 ms)
    // and the purge-component improvement of IRONHIDE over MI6 (~706x).
    let mi6_overhead_per_interaction: Vec<f64> =
        per_arch.iter().map(|(_, mi6, _)| mi6.overhead_per_interaction_ms()).collect();
    let purge_improvement: Vec<f64> = per_arch
        .iter()
        .map(|(_, mi6, ih)| {
            let ih_over = (ih.overhead_cycles + ih.reconfig_cycles).max(1) as f64;
            mi6.overhead_cycles as f64 / ih_over
        })
        .collect();
    println!(
        "\nMI6 purge overhead per interaction (paper: ~0.19 ms): {:.3} ms (geomean)",
        geometric_mean(&mi6_overhead_per_interaction)
    );
    println!(
        "IRONHIDE purge-component improvement over MI6 (paper: ~706x): {:.0}x (geomean)",
        geometric_mean(&purge_improvement)
    );
}
