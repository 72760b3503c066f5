//! Golden-stats regression tests.
//!
//! Snapshots the full per-architecture completion report — including the
//! machine-wide cache/TLB/NoC/memory counters — for `<AES, QUERY>` at the
//! Smoke scale, and asserts an exact byte match against
//! `tests/golden/*.json`. Any change to the timing model, the cache/TLB/NoC
//! simulators or the runner shows up here as a diff.
//!
//! To regenerate the snapshots after an *intentional* model change:
//!
//! ```bash
//! IRONHIDE_REGEN_GOLDEN=1 cargo test --test golden_stats
//! git diff tests/golden/   # review the counter movement, then commit
//! ```

use std::fs;
use std::path::PathBuf;

use ironhide::ironhide_core::sweep::report_json;
use ironhide::prelude::*;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

fn arch_slug(arch: Architecture) -> &'static str {
    match arch {
        Architecture::Insecure => "insecure",
        Architecture::SgxLike => "sgx",
        Architecture::Mi6 => "mi6",
        Architecture::Ironhide => "ironhide",
        Architecture::TemporalFence => "fence",
    }
}

#[test]
fn query_aes_smoke_counters_match_golden() {
    // Default ArchParams and the paper machine: the exact configuration is
    // part of the snapshot contract, so do not override anything here.
    let paper = sweep_grid(
        &[AppId::QueryAes],
        &Architecture::ALL,
        &[ReallocPolicy::Static],
        &[ScaleFactor::Smoke],
    );
    // The temporal fence runs on the same machine with the SIMF flush set,
    // pinning its boundary crossing on the performance path.
    let fence = sweep_grid(
        &[AppId::QueryAes],
        &[Architecture::TemporalFence],
        &[ReallocPolicy::Static],
        &[ScaleFactor::Smoke],
    );
    let fence_config = MachineConfig {
        temporal_fence: TemporalFenceConfig::simf(),
        ..MachineConfig::paper_default()
    };
    let runs = [(MachineConfig::paper_default(), paper), (fence_config, fence)];

    let regen = std::env::var_os("IRONHIDE_REGEN_GOLDEN").is_some();
    if regen {
        fs::create_dir_all(golden_dir()).expect("create tests/golden");
    }

    let mut mismatches = Vec::new();
    for (config, grid) in &runs {
        let matrix =
            SweepRunner::new(config.clone()).with_seed(0).run(grid).expect("golden sweep runs");
        for cell in &matrix.cells {
            let arch = cell.key.arch;
            let mut rendered = String::new();
            report_json(&mut rendered, &cell.report);
            rendered.push('\n');

            let path = golden_dir().join(format!("query_aes_smoke_{}.json", arch_slug(arch)));
            if regen {
                fs::write(&path, &rendered).expect("write golden file");
                continue;
            }
            let expected = fs::read_to_string(&path).unwrap_or_else(|_| {
                panic!(
                    "missing golden file {}; generate it with IRONHIDE_REGEN_GOLDEN=1 cargo test --test golden_stats",
                    path.display()
                )
            });
            if rendered != expected {
                mismatches.push(format!(
                    "{arch}: counters drifted from {} (regenerate with IRONHIDE_REGEN_GOLDEN=1 \
                     if the model change is intentional)",
                    path.display()
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// The golden run itself must be reproducible within a session: two
/// back-to-back sweeps render identical reports (guards against accidental
/// nondeterminism — e.g. hash-map iteration — sneaking into the simulators,
/// which would make the golden files flaky).
#[test]
fn golden_run_is_reproducible_in_process() {
    let grid = sweep_grid(
        &[AppId::QueryAes],
        &[Architecture::Mi6, Architecture::Ironhide],
        &[ReallocPolicy::Static],
        &[ScaleFactor::Smoke],
    );
    let render = || {
        let matrix =
            SweepRunner::new(MachineConfig::paper_default()).with_seed(0).run(&grid).unwrap();
        matrix.to_json()
    };
    assert_eq!(render(), render());
}
