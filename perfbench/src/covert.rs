//! `covert-matrix`: the attack grid plus the TemporalFence flush ablation.
//!
//! Five covert channels × four architectures at Paper payloads, then the
//! 78-cell {flush subset × channel} ablation at Smoke payloads, both on the
//! 8-core `attack_testbench` machine every attack harness uses, at two
//! sweep workers. Each cell is one operation.
//!
//! The untraced pass runs the library's own channel specs behind a timing
//! decorator. The traced pass runs specs that build each channel and assess
//! it inside spans; its matrices must equal the untraced ones.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use ironhide_attacks::oracle::balanced_bits;
use ironhide_attacks::{
    ablation_channels, ablation_subsets, attack_spec, window_attack_spec, ChannelKind,
    LeakageOracle, WindowAttack,
};
use ironhide_core::arch::Architecture;
use ironhide_core::cluster::PurgeOrder;
use ironhide_core::sweep::{AblationGrid, AttackGrid, AttackSpec, ScalePoint, SweepRunner};
use ironhide_sim::config::MachineConfig;

use crate::measure::{fnv1a, process_cpu_s, Counters, Pass};
use crate::trace::{self, Kind};
use crate::Workload;

/// Sweep workers (the host this benchmark was sized on has two cores).
const WORKERS: usize = 2;

/// Ablation rows every channel must decode under, and close under.
const NONE_LABEL: &str = "none";
const SIMF_LABEL: &str = "simf";

/// What the timing decorator saw of one cell.
#[derive(Default)]
struct CellLog {
    op_us: Vec<(u64, f64)>,
    counters: Counters,
}

type Log = Arc<Mutex<CellLog>>;

pub struct Covert {
    seed: u64,
    runner: SweepRunner,
    log: Log,
    grids: Option<Grids>,
}

struct Grids {
    plain: (AttackGrid, AblationGrid),
    traced: (AttackGrid, AblationGrid),
}

impl Covert {
    pub fn new(seed: u64) -> Self {
        Covert {
            seed,
            runner: SweepRunner::new(MachineConfig::attack_testbench()),
            log: Arc::default(),
            grids: None,
        }
    }
}

/// `inner` behind a decorator that makes the cell a span and logs its host
/// latency and its machine's counters.
fn timed(inner: AttackSpec, log: &Log) -> AttackSpec {
    let log = Arc::clone(log);
    AttackSpec::new(inner.label().to_string(), move |config, arch, scale, seed, slot| {
        let _span = trace::span(Kind::AttackCell);
        let start = Instant::now();
        let outcome = inner.execute(config, arch, scale, seed, slot);
        let us = start.elapsed().as_secs_f64() * 1e6;
        let stats = slot.as_ref().map(|machine| machine.stats());
        if let Ok(mut log) = log.lock() {
            log.op_us.push((seed, us));
            if let Some(stats) = stats {
                log.counters.add_machine(&stats);
            }
        }
        outcome
    })
}

/// A stream channel's spec with spans around the channel build and the
/// oracle's assessment (the same calls `attack_spec` makes).
fn traced_channel(kind: ChannelKind) -> AttackSpec {
    AttackSpec::new(kind.label(), move |config, arch, scale, seed, slot| {
        let channel = {
            let _span = trace::span(Kind::ChannelBuild);
            kind.build(config, seed)
        };
        let oracle = LeakageOracle::new(config.clone())
            .with_payload_bits(LeakageOracle::payload_for_scale(scale.label()));
        let _span = trace::span(Kind::Assess);
        oracle.assess_recycled(arch, &channel, seed, slot)
    })
}

/// The reconfiguration-window attack's spec with a span around its
/// assessment (the same calls `window_attack_spec` makes).
fn traced_window() -> AttackSpec {
    let label = window_attack_spec(PurgeOrder::PurgeThenRehome).label().to_string();
    AttackSpec::new(label, move |config: &MachineConfig, arch, scale, seed, slot| {
        let attack = WindowAttack::new(config.clone(), PurgeOrder::PurgeThenRehome)
            .with_payload_bits(LeakageOracle::payload_for_scale(scale.label()));
        let _span = trace::span(Kind::Assess);
        attack.assess_recycled(arch, seed, slot)
    })
}

/// The attack grid and the ablation grid over the given channel specs.
fn grids(
    log: &Log,
    attack: Vec<AttackSpec>,
    ablation: Vec<AttackSpec>,
) -> (AttackGrid, AblationGrid) {
    let mut attacks = AttackGrid::new()
        .with_architectures(&Architecture::ALL)
        .with_scale(ScalePoint::new("Paper"));
    for spec in attack {
        attacks = attacks.with_channel(timed(spec, log));
    }
    let mut fences = AblationGrid::new().with_scale(ScalePoint::new("Smoke"));
    for subset in ablation_subsets() {
        fences = fences.with_subset(subset);
    }
    for spec in ablation {
        fences = fences.with_channel(timed(spec, log));
    }
    (attacks, fences)
}

impl Workload for Covert {
    fn setup(&mut self) -> Result<(), String> {
        let plain = grids(
            &self.log,
            ChannelKind::ALL.into_iter().map(attack_spec).collect(),
            ablation_channels(),
        );
        let traced_channels = || ChannelKind::ALL.into_iter().map(traced_channel);
        let traced = grids(
            &self.log,
            traced_channels().collect(),
            traced_channels().chain([traced_window()]).collect(),
        );
        self.runner = SweepRunner::new(MachineConfig::attack_testbench())
            .with_threads(WORKERS)
            .with_seed(self.seed);
        // Build every cell's channel and payload from its seed and check the
        // payload is balanced (a signal-free channel must decode at 50%).
        let config = MachineConfig::attack_testbench();
        let attack_inputs = plain.0.keys().into_iter().map(|key| {
            (key.channel.clone(), key.scale.clone(), self.runner.attack_cell_seed(&key))
        });
        let ablation_inputs = plain.1.keys().into_iter().map(|key| {
            (key.channel.clone(), key.scale.clone(), self.runner.ablation_cell_seed(&key))
        });
        for (channel, scale, seed) in attack_inputs.chain(ablation_inputs) {
            if let Some(kind) = ChannelKind::ALL.into_iter().find(|k| k.label() == channel) {
                std::hint::black_box(kind.build(&config, seed));
            }
            let bits = balanced_bits(seed, LeakageOracle::payload_for_scale(&scale));
            if 2 * bits.iter().filter(|b| **b).count() != bits.len() {
                return Err(format!("{channel} @{scale}: unbalanced payload at seed {seed}"));
            }
        }
        self.grids = Some(Grids { plain, traced });
        Ok(())
    }

    fn pass(&mut self, traced: bool) -> Pass {
        let grids = self.grids.as_ref().expect("set-up runs before every pass");
        let (attack_grid, ablation_grid) = if traced { &grids.traced } else { &grids.plain };
        *self.log.lock().expect("no cell panics holding the log") = CellLog::default();
        let mut pass =
            Pass { ops: (attack_grid.len() + ablation_grid.len()) as u64, ..Pass::default() };

        let cpu0 = process_cpu_s();
        let start = Instant::now();
        let attacks = {
            let _span = trace::span(Kind::SweepRun);
            self.runner.run_attacks(attack_grid)
        };
        let ablation = {
            let _span = trace::span(Kind::SweepRun);
            self.runner.run_ablation(ablation_grid)
        };
        pass.wall_s = start.elapsed().as_secs_f64();
        pass.cpu_s = process_cpu_s() - cpu0;

        let log = std::mem::take(&mut *self.log.lock().expect("no cell panics holding the log"));
        pass.op_us = log.op_us;
        // A cell computes without blocking, so its latency is its CPU time.
        pass.steps = pass.op_us.iter().map(|&(seed, us)| (seed, us * 1e-6, us * 1e-6)).collect();
        pass.plan = vec![
            attack_grid.keys().iter().map(|key| self.runner.attack_cell_seed(key)).collect(),
            ablation_grid.keys().iter().map(|key| self.runner.ablation_cell_seed(key)).collect(),
        ];
        pass.workers = WORKERS;
        pass.counters = log.counters;
        pass.sim_accesses = pass.counters.l1_accesses;
        pass.measured_accesses = pass.sim_accesses;

        let mut failures = Vec::new();
        match &attacks {
            Ok(matrix) => {
                for cell in matrix.cells.iter().filter(|c| !c.outcome.isolation.is_clean()) {
                    failures.push(format!("{}: isolation not clean", cell.key));
                }
                failures.extend(matrix.differential_violations());
                pass.checksums.push(("attack_matrix_fnv", fnv1a(matrix.to_json().as_bytes())));
            }
            Err(e) => failures.extend(attack_grid.keys().iter().map(|_| e.to_string())),
        }
        match &ablation {
            Ok(matrix) => {
                for cell in matrix.cells.iter().filter(|c| !c.outcome.isolation.is_clean()) {
                    failures.push(format!("{}: isolation not clean", cell.key));
                }
                failures.extend(matrix.differential_violations(NONE_LABEL, SIMF_LABEL));
                pass.checksums.push(("ablation_checksum", matrix.checksum()));
                let close_cost: u64 = ablation_grid
                    .channels
                    .iter()
                    .filter_map(|c| matrix.cheapest_closed(c.label(), "Smoke"))
                    .map(|cell| cell.switch_cost)
                    .sum();
                pass.sim = vec![("fence.close_cost_cycles", close_cost as f64, "cycles")];
            }
            Err(e) => failures.extend(ablation_grid.keys().iter().map(|_| e.to_string())),
        }
        pass.failed = (failures.len() as u64).min(pass.ops);
        pass.failures = failures;
        pass
    }
}
