//! `reconfig-churn`: secure-cluster resizes beside tenant data accesses.
//!
//! One thread, one warmed two-tenant machine of the paper's size. The pass
//! resizes the secure cluster to seed-drawn shapes and, between resizes,
//! both tenants read and write a sliding window of pages through
//! `Machine::access_run` on the same state. Each resize is one operation;
//! its host latency is the operation latency.

use std::time::Instant;

use ironhide_core::cluster::ClusterManager;
use ironhide_mesh::{ClusterId, NodeId};
use ironhide_sim::config::MachineConfig;
use ironhide_sim::machine::Machine;
use ironhide_sim::process::{ProcessId, SecurityClass};
use ironhide_sim::stream::RefRun;

use crate::measure::{process_cpu_s, quantile, Pass};
use crate::trace::{self, Kind};
use crate::Workload;

/// Secure-cluster sizes the resizes draw from (row-major splits of the
/// 8×8 mesh).
const SHAPES: [usize; 6] = [8, 16, 24, 32, 40, 56];

/// Resizes per pass: enough that the 99th percentile has ten samples
/// beyond it within one pass.
const RESIZES: u64 = 1000;

/// Pages each tenant touches between two resizes; the window slides by a
/// quarter of this each time.
const WINDOW_PAGES: u64 = 10;

/// Pages each tenant touches before the first resize.
const WARM_PAGES: u64 = 128;

struct Tenants {
    machine: Machine,
    manager: ClusterManager,
    secure: ProcessId,
    insecure: ProcessId,
}

pub struct Churn {
    seed: u64,
    state: Option<Tenants>,
    /// Scrub probes the set-up itself performed.
    setup_probes: u64,
}

impl Churn {
    pub fn new(seed: u64) -> Self {
        Churn { seed, state: None, setup_probes: 0 }
    }
}

/// SplitMix64: the seed's stream of resize targets.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Both tenants touch every line of pages `base..base + pages` from cores
/// spread over their clusters; a second secure core re-reads each page so
/// directories hold shared entries. Returns (cycles, accesses).
fn touch(t: &mut Tenants, base: u64, pages: u64) -> (u64, u64) {
    let page = t.machine.page_bytes();
    let line = t.machine.config().l1.line_bytes as u64;
    let lines = (page / line) as u32;
    let secure_cores: Vec<NodeId> = t.manager.cores_iter(ClusterId::Secure).collect();
    let insecure_cores: Vec<NodeId> = t.manager.cores_iter(ClusterId::Insecure).collect();
    let mut cycles = 0u64;
    let mut accesses = 0u64;
    for p in base..base + pages {
        let vaddr = p * page;
        let i = p as usize;
        let runs = [
            (secure_cores[i % secure_cores.len()], t.secure, p % 3 == 0),
            (insecure_cores[i % insecure_cores.len()], t.insecure, p % 3 == 1),
            (secure_cores[(i + 1) % secure_cores.len()], t.secure, false),
        ];
        for (core, pid, write) in runs {
            let _span = trace::span(Kind::AccessRun);
            cycles += t.machine.access_run(core, pid, RefRun::new(vaddr, line, lines, write));
            accesses += lines as u64;
        }
    }
    (cycles, accesses)
}

impl Workload for Churn {
    fn setup(&mut self) -> Result<(), String> {
        let mut machine = Machine::new(MachineConfig::paper_default());
        let secure = machine.create_process("tenant-secure", SecurityClass::Secure);
        let insecure = machine.create_process("tenant-insecure", SecurityClass::Insecure);
        let (manager, _) = ClusterManager::form(&mut machine, secure, insecure, SHAPES[3])
            .map_err(|e| format!("forming the initial clusters: {e}"))?;
        let mut tenants = Tenants { machine, manager, secure, insecure };
        touch(&mut tenants, 0, WARM_PAGES);
        tenants.machine.reset_stats();
        self.setup_probes = tenants.machine.scrub_probes();
        self.state = Some(tenants);
        Ok(())
    }

    fn pass(&mut self, _traced: bool) -> Pass {
        let mut t = self.state.take().expect("set-up runs before every pass");
        let mut pass = Pass::default();
        let mut rng = self.seed;
        let mut current = SHAPES[3];
        let mut stalls = Vec::with_capacity(RESIZES as usize);
        // Every stall and every window's access cycles, in order.
        let mut digest = 0u64;
        let cpu0 = process_cpu_s();
        let start = Instant::now();
        for i in 0..RESIZES {
            let idx = (splitmix(&mut rng) % SHAPES.len() as u64) as usize;
            let target =
                if SHAPES[idx] == current { SHAPES[(idx + 1) % SHAPES.len()] } else { SHAPES[idx] };
            let step = (Instant::now(), process_cpu_s());
            let op = Instant::now();
            let result = {
                let _span = trace::span(Kind::Reconfigure);
                t.manager.reconfigure(&mut t.machine, t.secure, t.insecure, target)
            };
            pass.op_us.push((i, op.elapsed().as_secs_f64() * 1e6));
            pass.ops += 1;
            match result {
                Ok(stall) => {
                    current = target;
                    stalls.push(stall as f64);
                    pass.counters.cycles_reconfig += stall;
                    digest = digest.wrapping_mul(31).wrapping_add(stall);
                }
                Err(e) => {
                    pass.failed += 1;
                    pass.failures.push(format!("resize {i} to {target} cores: {e}"));
                }
            }
            let (cycles, accesses) =
                touch(&mut t, WARM_PAGES + (i + 1) * WINDOW_PAGES / 4, WINDOW_PAGES);
            pass.counters.cycles_compute += cycles;
            pass.sim_accesses += accesses;
            digest = digest.wrapping_mul(31).wrapping_add(cycles);
            pass.steps.push((i, step.0.elapsed().as_secs_f64(), process_cpu_s() - step.1));
        }
        pass.wall_s = start.elapsed().as_secs_f64();
        pass.cpu_s = process_cpu_s() - cpu0;
        pass.measured_accesses = pass.sim_accesses;
        pass.checksums = vec![("cycle_digest", digest)];
        pass.plan = vec![(0..RESIZES).collect()];
        pass.workers = 1;
        pass.counters.add_machine(&t.machine.stats());
        pass.counters.scrub_probes = t.machine.scrub_probes() - self.setup_probes;
        pass.sim = vec![("cluster.stall_p99_cycles", quantile(&stalls, 0.99), "cycles")];
        pass
    }
}
