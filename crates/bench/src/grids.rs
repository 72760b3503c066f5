//! The grid and master seed each bench harness sweeps. The cross-process
//! tests under `tests/` read the same definitions, so a pin can only hold
//! against the grid the harness actually runs.

use ironhide_core::arch::Architecture;
use ironhide_core::faults::{FaultArch, FaultGrid, FaultKind};
use ironhide_core::realloc::ReallocPolicy;
use ironhide_core::runner::RunError;
use ironhide_core::sweep::{
    AblationGrid, CellError, CellKey, ScalePoint, SweepGrid, SweepMatrix, SweepRunner,
};
use ironhide_core::tenancy::{AdmissionPolicy, LoadPoint, StormConfig, TenancyGrid};
use ironhide_sim::config::MachineConfig;
use ironhide_workloads::app::{sweep_grid, AppId, ScaleFactor};
use ironhide_workloads::tenant_profiles;

/// Master seed of the baseline sweep (fixed forever: changing it would make
/// `simulated_cycles_total` incomparable across builds).
pub const BASELINE_SEED: u64 = 2;

/// Master seed of the tenancy sweep.
pub const TENANCY_SEED: u64 = 11;

/// Master seed of the fault campaign.
pub const FAULTS_SEED: u64 = 11;

/// Master seed of the flush ablation.
pub const ABLATION_SEED: u64 = 0xAB1A_7104;

/// The baseline grid at Smoke scale with heuristic re-allocation: every
/// application under every architecture, or two of each for the smoke grid.
pub fn baseline_grid(smoke: bool) -> SweepGrid {
    let (apps, archs): (&[AppId], &[Architecture]) = if smoke {
        (&[AppId::QueryAes, AppId::PrGraph], &[Architecture::Mi6, Architecture::Ironhide])
    } else {
        (&AppId::ALL, &Architecture::ALL)
    };
    sweep_grid(apps, archs, &[ReallocPolicy::Heuristic], &[ScaleFactor::Smoke])
}

/// Runs [`baseline_grid`] on the paper-default machine at `threads` workers.
///
/// # Errors
///
/// Returns the first failing cell, in grid order.
pub fn run_baseline(
    smoke: bool,
    threads: usize,
) -> Result<SweepMatrix, CellError<CellKey, RunError>> {
    SweepRunner::new(MachineConfig::paper_default())
        .with_threads(threads)
        .with_seed(BASELINE_SEED)
        .run(&baseline_grid(smoke))
}

/// The baseline's semantics checksum: the summed simulated completion cycles
/// of every cell.
pub fn simulated_cycles(matrix: &SweepMatrix) -> u64 {
    matrix.cells.iter().map(|c| c.report.total_cycles).sum()
}

/// A tenant storm of `tenants` arrivals drawn from the paper's nine
/// applications, eight host cores held back.
pub fn storm_config(tenants: usize, mean_interarrival_cycles: u64) -> StormConfig {
    StormConfig {
        tenants,
        mean_interarrival_cycles,
        mean_service_scale: 1,
        host_reserve_cores: 8,
        profiles: tenant_profiles(&AppId::ALL),
    }
}

/// The {admission policy × load} tenancy grid: one 40-tenant smoke load, or
/// a calm and a storm load.
pub fn tenancy_grid(smoke: bool) -> TenancyGrid {
    let mut grid = TenancyGrid::new();
    for policy in AdmissionPolicy::ALL {
        grid = grid.with_policy(policy);
    }
    if smoke {
        grid.with_load(LoadPoint::new("Smoke", storm_config(40, 30_000)))
    } else {
        // Calm: arrivals mostly drain before the next tenant lands.
        // Storm: heavy overlap — admission control decides the tails.
        grid.with_load(LoadPoint::new("Calm", storm_config(120, 60_000)))
            .with_load(LoadPoint::new("Storm", storm_config(240, 12_000)))
    }
}

/// The {fault kind × rate × degradation discipline} campaign over one
/// queueing tenant storm.
pub fn fault_grid(smoke: bool) -> FaultGrid {
    let (tenants, rates): (usize, &[u32]) =
        if smoke { (40, &[0, 200]) } else { (120, &[0, 120, 500]) };
    let mut grid = FaultGrid::new(storm_config(tenants, 30_000), AdmissionPolicy::Queue);
    for kind in FaultKind::ALL {
        grid = grid.with_kind(kind);
    }
    for rate in rates {
        grid = grid.with_rate(*rate);
    }
    for arch in FaultArch::ALL {
        grid = grid.with_arch(arch);
    }
    grid
}

/// The {flush subset × channel} ablation grid at Smoke scale: the 4-subset
/// smoke ladder or the full 13-subset one, against every channel.
pub fn ablation_grid(smoke: bool) -> AblationGrid {
    let subsets = if smoke {
        ironhide_attacks::smoke_subsets()
    } else {
        ironhide_attacks::ablation_subsets()
    };
    ironhide_attacks::ablation_grid(subsets, &[ScalePoint::new("Smoke")])
}
