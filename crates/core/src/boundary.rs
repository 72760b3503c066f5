//! The one architecture model: where each architecture places a
//! secure/insecure pair, and what one domain crossing between them costs.
//!
//! The paper's results (2.1x over MI6, 20% over SGX) follow from exactly
//! these two choices, so every driver that runs a pair takes both from
//! here: [`ExperimentRunner`](crate::runner::ExperimentRunner) for the
//! performance sweeps, [`AttackRunner`](crate::attack::AttackRunner) for the
//! covert-channel matrix and the reconfiguration-window attack in
//! `ironhide-attacks`. Each driver keeps only its own core choice.
//!
//! * **Placement** ([`bring_up`]): Insecure, SGX and the temporal fence share
//!   every core and slice; MI6 statically splits the shared L2 slices, the
//!   secure process homing on the low half and the insecure one on the high
//!   half, while cores stay time-shared; IRONHIDE forms two spatial clusters
//!   through [`ClusterManager::form`].
//! * **Crossing** ([`crossing_cost`]): free for Insecure and IRONHIDE (pinned
//!   clusters interact through shared memory, no enclave transition); the
//!   constant HotCalls-measured enclave transition for SGX; for MI6 that
//!   constant plus a purge of all time-shared microarchitecture state —
//!   private L1s and TLBs on every core, the memory-controller queues and
//!   open rows, and the in-flight network state (on the prototype, the
//!   `tmc_mem_fence` that ends a purge only completes once every packet has
//!   drained, so no queue occupancy survives a boundary); for the temporal
//!   fence, the configured flush set's erasure at its state-independent
//!   worst-case cost.
//!
//! The module exists because copies drift. The performance and attack
//! runners once kept their own MI6 boundaries, and they diverged — the
//! performance runner predated `Machine::purge_network` and omitted the NoC
//! drain, so the performance figures modelled a slightly harsher MI6 whose
//! residual link congestion survived its boundaries while the security
//! figures did not — which is exactly the kind of seam that lets a defence
//! look cheaper in one table than the machine the attacks were run against.
//! Unifying that arm moved every MI6 cell of the performance goldens
//! (regenerated intentionally); the attack matrix was already on this model
//! and did not move. Placement and the other crossings now have one copy
//! too, so no architecture can be priced on one machine and attacked on
//! another.

use ironhide_cache::SliceId;
use ironhide_mem::ControllerMask;
use ironhide_sim::config::MachineConfig;
use ironhide_sim::machine::Machine;
use ironhide_sim::process::{ProcessId, SecurityClass};

use crate::arch::{ArchParams, Architecture};
use crate::cluster::ClusterManager;
use crate::kernel::{AppDomain, SecureKernel};
use crate::runner::RunError;

/// Signing key of the simulated enclave author. The kernel only needs
/// signatures to be *verifiable* inside the simulation, not secret.
const AUTHOR_KEY: u64 = 0x1234_5678_9ABC_DEF0;

/// A secure/insecure process pair brought up and placed on one machine.
#[derive(Debug)]
pub struct Pair {
    /// The machine the pair runs on.
    pub machine: Machine,
    /// The insecure process (created first).
    pub insecure: ProcessId,
    /// The attested secure process.
    pub secure: ProcessId,
    /// The cluster manager pinning the pair (IRONHIDE only).
    pub cluster: Option<ClusterManager>,
}

/// Brings up a secure/insecure pair under `arch`: recycles `recycled` (via
/// [`Machine::reset_pristine`]) or builds a machine from `config`, creates
/// the insecure process and then the secure one (`names` is `(insecure,
/// secure)`), attests the secure process against `image`, and places the
/// pair. `secure_cores` sizes IRONHIDE's secure cluster and is ignored by
/// the temporally shared architectures.
///
/// # Errors
///
/// Returns a [`RunError`] if the secure process fails attestation or the
/// clusters cannot be formed (the recycled machine is lost in that case).
pub fn bring_up(
    recycled: Option<Machine>,
    config: &MachineConfig,
    arch: Architecture,
    names: (&str, &str),
    image: &[u8],
    secure_cores: usize,
) -> Result<Pair, RunError> {
    let mut machine = match recycled {
        Some(mut m) => {
            m.reset_pristine();
            m
        }
        None => Machine::new(config.clone()),
    };
    let insecure = machine.create_process(names.0, SecurityClass::Insecure);
    let secure = machine.create_process(names.1, SecurityClass::Secure);

    // The secure process must attest before the secure kernel lets it run;
    // the insecure process is unattested code in a foreign trust domain.
    let mut kernel = SecureKernel::new();
    let signature = SecureKernel::sign(image, AUTHOR_KEY);
    kernel.register(secure, image, signature, AUTHOR_KEY, AppDomain(1))?;
    kernel.admit(secure, image)?;

    let cluster = match arch {
        // The temporal fence places exactly like the insecure baseline: its
        // defence happens at crossings, not in the placement.
        Architecture::Insecure | Architecture::SgxLike | Architecture::TemporalFence => None,
        Architecture::Mi6 => {
            // Static partitioning of the shared L2 slices (half each, as in
            // the paper's 32/32 example); cores remain time-shared.
            let total = config.cores();
            let half = (total / 2).max(1);
            let low: Vec<SliceId> = (0..half).map(SliceId).collect();
            let high: Vec<SliceId> = (half..total).map(SliceId).collect();
            machine.set_process_slices(secure, &low);
            machine.set_process_slices(insecure, &high);
            None
        }
        Architecture::Ironhide => {
            let (manager, _setup) =
                ClusterManager::form(&mut machine, secure, insecure, secure_cores)?;
            Some(manager)
        }
    };
    Ok(Pair { machine, insecure, secure, cluster })
}

/// The cost, in cycles, of one domain crossing (enclave entry or exit) under
/// `arch` on `machine`, performing the crossing's functional effect (MI6's
/// purge, the temporal fence's flush) as a side effect. The temporal fence's
/// flush policy is read from the caller's `config`, never from the possibly
/// recycled machine's stored copy.
pub fn crossing_cost(
    machine: &mut Machine,
    arch: Architecture,
    params: &ArchParams,
    config: &MachineConfig,
) -> u64 {
    match arch {
        Architecture::Insecure | Architecture::Ironhide => 0,
        Architecture::SgxLike => machine.clock().us_to_cycles(params.sgx_entry_exit_us),
        Architecture::Mi6 => mi6_boundary_cost(machine, params),
        Architecture::TemporalFence => {
            let fence = config.temporal_fence;
            machine.temporal_flush(fence.set);
            fence.switch_cost(config)
        }
    }
}

/// The cost, in cycles, of one MI6 enclave boundary crossing (entry or
/// exit) on `machine`: the SGX transition constant plus the full purge of
/// private state, controller queues and the network. Functionally purges
/// the machine as a side effect, exactly as the boundary does.
pub fn mi6_boundary_cost(machine: &mut Machine, params: &ArchParams) -> u64 {
    let clock = machine.clock();
    let controllers = machine.config().controllers;
    let purge = machine.purge_all_private();
    let mc = machine.purge_controllers(ControllerMask::first(controllers));
    let net = machine.purge_network();
    clock.us_to_cycles(params.sgx_entry_exit_us) + purge + mc + net
}

#[cfg(test)]
mod tests {
    use super::*;
    use ironhide_mesh::NodeId;
    use ironhide_sim::config::MachineConfig;
    use ironhide_sim::process::SecurityClass;

    #[test]
    fn boundary_purges_all_private_state_and_charges_the_fence() {
        let mut m = Machine::new(MachineConfig::small_test());
        let pid = m.create_process("p", SecurityClass::Insecure);
        for i in 0..32u64 {
            m.access(NodeId(0), pid, i * 64, true);
            m.access(NodeId(1), pid, i * 64 + 4096 * 64, false);
        }
        let params = ArchParams::default();
        let cost = mi6_boundary_cost(&mut m, &params);
        let clock = m.clock();
        assert!(
            cost > clock.us_to_cycles(params.sgx_entry_exit_us),
            "boundary must cost more than the bare SGX transition"
        );
        let stats = m.stats();
        assert_eq!(stats.core_purges as usize, m.config().cores());
        assert_eq!(stats.mem.purges as usize, m.config().controllers);
        // Both cores' private state is gone: the next accesses are cold.
        let hits_before = m.process_stats(pid).l1.hits;
        m.access(NodeId(0), pid, 0, false);
        assert_eq!(m.process_stats(pid).l1.hits, hits_before, "post-boundary access must miss");
    }

    #[test]
    fn boundary_drains_the_network() {
        let mut m = Machine::new(MachineConfig::small_test());
        let pid = m.create_process("p", SecurityClass::Insecure);
        // Congest a route, then verify the boundary resets the link loads.
        for _ in 0..16 {
            for line in 0..64u64 {
                m.access(NodeId(1), pid, line * 64, false);
            }
        }
        let probe = |m: &mut Machine| {
            m.purge_core(NodeId(1));
            m.access(NodeId(1), pid, 0x40, false)
        };
        let congested = probe(&mut m);
        mi6_boundary_cost(&mut m, &ArchParams::default());
        let drained = probe(&mut m);
        assert!(
            drained < congested,
            "the boundary fence must drain link congestion ({drained} >= {congested})"
        );
    }
}
