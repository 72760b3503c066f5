//! The reconfiguration storm: a seed-deterministic open-loop sequence of
//! secure-cluster resizes on a warmed paper-default machine, timing only the
//! `ClusterManager::reconfigure` calls. The `churn` harness runs it through
//! both reconfiguration paths; the `tenancy` harness replays the smoke storm
//! to tie its numbers to unchanged reconfiguration semantics.

use std::time::{Duration, Instant};

use ironhide_core::cluster::ClusterManager;
use ironhide_mesh::{ClusterId, NodeId};
use ironhide_sim::config::MachineConfig;
use ironhide_sim::machine::Machine;
use ironhide_sim::process::{ProcessId, SecurityClass};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Master seed of the storm (fixed forever: changing it would make the
/// stall-cycle checksum incomparable across builds).
pub const STORM_SEED: u64 = 7;

/// Secure-cluster shapes the storm alternates between. Row-major splits on
/// the paper's 8×8 mesh; every consecutive pair differs, so every
/// reconfiguration moves tiles, purges slices and re-homes pages.
pub const SHAPES: [usize; 6] = [8, 16, 24, 32, 40, 56];

/// The storm's size.
#[derive(Debug, Clone, Copy)]
pub struct StormParams {
    /// Reconfigurations in the timed loop.
    pub reconfigs: u64,
    /// Pages each process touches per warm-up window.
    pub warm_pages: u64,
}

impl StormParams {
    /// The smoke storm (40 reconfigurations) or the full one (200).
    pub fn new(smoke: bool) -> Self {
        if smoke {
            StormParams { reconfigs: 40, warm_pages: 64 }
        } else {
            StormParams { reconfigs: 200, warm_pages: 128 }
        }
    }
}

/// One storm pass's measurement.
#[derive(Debug)]
pub struct StormResult {
    /// Host seconds spent inside `reconfigure`.
    pub wall_s: f64,
    /// Reconfigurations per host second.
    pub rate: u64,
    /// Wrapping sum of the stall cycles every reconfiguration charged.
    pub stall_checksum: u64,
    /// Pages re-homed over the whole pass.
    pub pages_rehomed: u64,
    /// Scrub probes over the whole pass (a diagnostic work counter).
    pub scrub_probes: u64,
}

/// Runs one storm pass from the warmed initial state, through the scalar
/// reference reconfiguration path when `reference` is set and the batched
/// path otherwise.
pub fn run_storm(params: &StormParams, reference: bool) -> StormResult {
    let mut machine = Machine::new(MachineConfig::paper_default());
    let secure = machine.create_process("tenant-secure", SecurityClass::Secure);
    let insecure = machine.create_process("tenant-insecure", SecurityClass::Insecure);
    let (mut manager, _) =
        ClusterManager::form(&mut machine, secure, insecure, SHAPES[3]).expect("initial clusters");
    warm(&mut machine, &manager, secure, insecure, 0, params.warm_pages);
    machine.set_reconfig_reference(reference);

    let mut rng = StdRng::seed_from_u64(STORM_SEED);
    let mut current = SHAPES[3];
    let mut stall_checksum = 0u64;
    let mut stalled = Duration::ZERO;
    for i in 0..params.reconfigs {
        let idx = (rng.next_u64() % SHAPES.len() as u64) as usize;
        let mut target = SHAPES[idx];
        if target == current {
            target = SHAPES[(idx + 1) % SHAPES.len()];
        }
        let start = Instant::now();
        let cycles =
            manager.reconfigure(&mut machine, secure, insecure, target).expect("valid storm shape");
        stalled += start.elapsed();
        stall_checksum = stall_checksum.wrapping_add(cycles);
        current = target;
        // Open-loop tenant activity between reconfigurations (untimed): the
        // window slides a quarter of its width per iteration, so caches and
        // directories are resident *and* fresh pages keep pinning onto the
        // current cluster shape, as real churn would.
        warm(
            &mut machine,
            &manager,
            secure,
            insecure,
            (i + 1) * params.warm_pages / 4,
            params.warm_pages,
        );
    }
    let wall_s = stalled.as_secs_f64();
    let rate = if wall_s > 0.0 { (params.reconfigs as f64 / wall_s).round() as u64 } else { 0 };
    StormResult {
        wall_s,
        rate,
        stall_checksum,
        pages_rehomed: machine.stats().pages_rehomed,
        scrub_probes: machine.scrub_probes(),
    }
}

/// Touches pages `base..base + pages` per process from cores spread over the
/// process's cluster, so pins, L1/L2 lines and directory entries are all
/// resident when a reconfiguration hits. The storm advances `base` between
/// iterations — a sliding window, like real tenants continuously allocating:
/// re-touched pages repopulate the caches, fresh pages allocate and pin
/// round-robin over the *current* allowed slices, so every later shrink has
/// real pages to move (a fixed working set converges to pins inside the
/// always-allowed slice range and the storm degenerates to pure purges).
fn warm(
    machine: &mut Machine,
    manager: &ClusterManager,
    secure: ProcessId,
    insecure: ProcessId,
    base: u64,
    pages: u64,
) {
    let secure_cores: Vec<NodeId> = manager.cores_iter(ClusterId::Secure).collect();
    let insecure_cores: Vec<NodeId> = manager.cores_iter(ClusterId::Insecure).collect();
    for p in base..base + pages {
        let vaddr = p * 4096;
        let sc = secure_cores[p as usize % secure_cores.len()];
        let ic = insecure_cores[p as usize % insecure_cores.len()];
        machine.access(sc, secure, vaddr, p % 3 == 0);
        machine.access(ic, insecure, vaddr, p % 3 == 1);
        // A second reader per page gives the directories Shared entries, so
        // the scrub's sharer census has real work.
        machine.access(secure_cores[(p as usize + 1) % secure_cores.len()], secure, vaddr, false);
    }
}
