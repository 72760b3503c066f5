//! `fig6-paper`: the paper's headline experiment.
//!
//! Nine applications × four architectures, Heuristic re-allocation, Paper
//! scale, on the paper's 64-tile machine, run by two sweep workers. The
//! untraced pass is `SweepRunner::run`; the traced pass drives the same
//! cells through `ExperimentRunner::run_recycled` with
//! `SweepRunner::cell_seed`, so spans can wrap the runner.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ironhide_core::app::{Interaction, InteractiveApp, ProcessProfile};
use ironhide_core::arch::Architecture;
use ironhide_core::realloc::ReallocPolicy;
use ironhide_core::runner::ExperimentRunner;
use ironhide_core::sweep::{
    geometric_mean, AppSpec, CellKey, ScalePoint, SweepCell, SweepGrid, SweepMatrix, SweepRunner,
};
use ironhide_sim::config::MachineConfig;
use ironhide_sim::machine::Machine;
use ironhide_workloads::app::{AppId, ScaleFactor};

use crate::measure::{process_cpu_s, Pass};
use crate::trace::{self, Kind};
use crate::Workload;

/// Sweep workers (the host this benchmark was sized on has two cores).
const WORKERS: usize = 2;

/// The paper's geometric-mean speed-ups of IRONHIDE over MI6 and over the
/// SGX-like baseline.
const PAPER_MI6_SPEEDUP: f64 = 2.1;
const PAPER_SGX_SPEEDUP: f64 = 1.2;

/// Host latencies of finished cells in microseconds, keyed by cell seed.
type LatencySink = Arc<Mutex<Vec<(u64, f64)>>>;

pub struct Fig6 {
    seed: u64,
    config: MachineConfig,
    runner: SweepRunner,
    grid: SweepGrid,
    cell_us: LatencySink,
}

impl Fig6 {
    pub fn new(seed: u64) -> Self {
        let config = MachineConfig::paper_default();
        Fig6 {
            seed,
            runner: SweepRunner::new(config.clone()),
            config,
            grid: SweepGrid::new(),
            cell_us: Arc::default(),
        }
    }

    /// Runs one cell the way `SweepRunner::run` does, with spans around the
    /// runner call.
    fn run_cell(&self, key: &CellKey, machine: &mut Option<Machine>) -> Result<SweepCell, String> {
        let seed = self.runner.cell_seed(key);
        let spec = self
            .grid
            .apps
            .iter()
            .find(|spec| spec.label() == key.app)
            .ok_or_else(|| format!("{key}: no such application"))?;
        let mut app = spec.instantiate(&ScalePoint::new(key.scale.clone()), seed);
        let runner = ExperimentRunner::new(self.config.clone()).with_realloc(key.policy);
        let result = {
            let _span = trace::span(Kind::RunRecycled(key.arch));
            runner.run_recycled(key.arch, app.as_mut(), machine.take())
        };
        let (report, recycled) = result.map_err(|e| format!("{key}: {e}"))?;
        *machine = Some(recycled);
        Ok(SweepCell { key: key.clone(), seed, report })
    }

    /// The traced cell loop: the grid's cells over `WORKERS` threads pulling
    /// from one shared index, each recycling its own machine.
    fn drive(&self) -> Vec<Result<SweepCell, String>> {
        let keys = self.grid.keys();
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<SweepCell, String>>>> =
            keys.iter().map(|_| Mutex::new(None)).collect();
        let _run = trace::span(Kind::SweepRun);
        std::thread::scope(|scope| {
            for _ in 0..WORKERS {
                scope.spawn(|| {
                    let mut machine = None;
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(key) = keys.get(idx) else { break };
                        let _cell = trace::span(Kind::Cell);
                        let outcome = self.run_cell(key, &mut machine);
                        *slots[idx].lock().expect("no worker panics holding a slot") =
                            Some(outcome);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("no worker panics holding a slot")
                    .unwrap_or_else(|| Err("cell never ran".into()))
            })
            .collect()
    }
}

impl Workload for Fig6 {
    fn setup(&mut self) -> Result<(), String> {
        let apps = AppId::ALL.iter().map(|&app| timed_spec(app, Arc::clone(&self.cell_us)));
        let mut grid = SweepGrid::new()
            .with_architectures(&Architecture::ALL)
            .with_policies(&[ReallocPolicy::Heuristic])
            .with_scale(ScaleFactor::Paper.sweep_point());
        for spec in apps {
            grid = grid.with_app(spec);
        }
        self.grid = grid;
        self.runner =
            SweepRunner::new(self.config.clone()).with_threads(WORKERS).with_seed(self.seed);
        // Generate every application's input stream once and check it.
        for app in AppId::ALL {
            let mut instance = app.instantiate(&ScaleFactor::Paper);
            let runs: usize = (0..instance.interactions())
                .map(|i| {
                    let interaction = instance.interaction(i);
                    interaction.insecure.accesses.len() + interaction.secure.accesses.len()
                })
                .sum();
            if runs == 0 {
                return Err(format!("{} generated no memory references", app.label()));
            }
        }
        Ok(())
    }

    fn pass(&mut self, traced: bool) -> Pass {
        self.cell_us.lock().expect("no cell panics holding the sink").clear();
        let cpu0 = process_cpu_s();
        let start = Instant::now();
        let cells: Vec<Result<SweepCell, String>> = if traced {
            self.drive()
        } else {
            match self.runner.run(&self.grid) {
                Ok(matrix) => matrix.cells.into_iter().map(Ok).collect(),
                Err(e) => self.grid.keys().iter().map(|_| Err(e.to_string())).collect(),
            }
        };
        let wall_s = start.elapsed().as_secs_f64();
        let cpu_s = process_cpu_s() - cpu0;
        let mut pass = summarize(self.seed, cells);
        pass.wall_s = wall_s;
        pass.cpu_s = cpu_s;
        pass.op_us = std::mem::take(&mut *self.cell_us.lock().expect("no cell panics"));
        // A cell computes without blocking, so its latency is its CPU time.
        pass.steps = pass.op_us.iter().map(|&(seed, us)| (seed, us * 1e-6, us * 1e-6)).collect();
        pass.plan = vec![self.grid.keys().iter().map(|key| self.runner.cell_seed(key)).collect()];
        pass.workers = WORKERS;
        pass
    }
}

/// Checks and digests one pass's cells.
fn summarize(seed: u64, cells: Vec<Result<SweepCell, String>>) -> Pass {
    let mut pass = Pass { ops: cells.len() as u64, ..Pass::default() };
    let mut done = Vec::with_capacity(cells.len());
    let mut total_cycles = 0u64;
    for cell in cells {
        match cell {
            Ok(cell) => done.push(cell),
            Err(e) => {
                pass.failed += 1;
                pass.failures.push(e);
            }
        }
    }
    for cell in &done {
        let r = &cell.report;
        if !r.isolation.is_clean() {
            pass.failed += 1;
            pass.failures.push(format!("{}: isolation {:?}", cell.key, r.isolation.violations));
        }
        pass.sim_accesses += r.sim_accesses_total;
        pass.measured_accesses += r.machine.l1.accesses;
        total_cycles = total_cycles.wrapping_add(r.total_cycles);
        pass.counters.add_machine(&r.machine);
        pass.counters.cycles_compute += r.compute_cycles;
        pass.counters.cycles_overhead += r.overhead_cycles;
        pass.counters.cycles_reconfig += r.reconfig_cycles;
    }
    pass.checksums = vec![("total_cycles", total_cycles)];
    let matrix = SweepMatrix { master_seed: seed, cells: done };
    let violations = matrix.fig6_ordering_violations(ReallocPolicy::Heuristic);
    pass.failed = (pass.failed + violations.len() as u64).min(pass.ops);
    pass.failures.extend(violations);

    let rows = matrix.fig6(ReallocPolicy::Heuristic);
    let mi6 = geometric_mean(&rows.iter().map(|r| r.mi6_ms / r.ironhide_ms).collect::<Vec<_>>());
    let sgx = geometric_mean(&rows.iter().map(|r| r.sgx_ms / r.ironhide_ms).collect::<Vec<_>>());
    pass.sim = vec![
        ("model.mi6_over_ironhide", mi6, "x"),
        ("model.sgx_over_ironhide", sgx, "x"),
        ("model.mi6_speedup_err_pct", (mi6 / PAPER_MI6_SPEEDUP - 1.0).abs() * 100.0, "pct"),
        ("model.sgx_speedup_err_pct", (sgx / PAPER_SGX_SPEEDUP - 1.0).abs() * 100.0, "pct"),
    ];
    pass
}

/// `app`'s sweep spec behind a timing decorator: the factory call is a
/// span, and the instance it returns times its interactions and reports
/// the cell's host latency when the sweep drops it at cell end.
fn timed_spec(app: AppId, sink: LatencySink) -> AppSpec {
    let inner = app.sweep_spec();
    AppSpec::new(app.label(), move |scale: &ScalePoint, seed| {
        let start = Instant::now();
        let instance = {
            let _span = trace::span(Kind::Instantiate);
            inner.instantiate(scale, seed)
        };
        Box::new(TimedApp { inner: instance, seed, start, sink: Arc::clone(&sink) })
    })
}

struct TimedApp {
    inner: Box<dyn InteractiveApp>,
    seed: u64,
    start: Instant,
    sink: LatencySink,
}

impl InteractiveApp for TimedApp {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn insecure_profile(&self) -> &ProcessProfile {
        self.inner.insecure_profile()
    }

    fn secure_profile(&self) -> &ProcessProfile {
        self.inner.secure_profile()
    }

    fn interactions(&self) -> usize {
        self.inner.interactions()
    }

    fn interactivity_per_second(&self) -> f64 {
        self.inner.interactivity_per_second()
    }

    fn interaction(&mut self, idx: usize) -> Interaction {
        let _span = trace::span(Kind::Interaction);
        self.inner.interaction(idx)
    }

    fn reset(&mut self) {
        self.inner.reset()
    }
}

impl Drop for TimedApp {
    fn drop(&mut self) {
        let us = self.start.elapsed().as_secs_f64() * 1e6;
        if let Ok(mut sink) = self.sink.lock() {
            sink.push((self.seed, us));
        }
    }
}
