//! The IRONHIDE simulator's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig6-paper|reconfig-churn|covert-matrix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run sets the workload up, makes one untimed warm-up pass, then repeats
//! timed passes for `--seconds` (at least three), building the inputs again
//! from the seed before each pass. With `--trace 0` it reports the
//! end-to-end metrics: set-up time as the median over every set-up, and
//! the host times of a pass composed of each step's (cell's, or resize
//! step's) fastest instance across the timed passes. The host this was
//! sized on is shared, and its speed wanders by up to 2x over seconds to
//! minutes; the fastest instance of a step varies far less from run to run
//! than whole passes do. With `--trace 1` it alternates
//! untraced and traced passes, and reports per-layer host time, simulated
//! counters, the tracing overhead and a substrate calibration.
//!
//! Every pass is checked: each cell's isolation audit, the Figure 6
//! ordering, the attack and ablation differential claims, every resize's
//! result, and the simulated digests, which must be equal across passes,
//! traced or not, and equal the repository's pins at the pins' seeds.
//! Lines starting with `#` describe the run; the last line of standard
//! output is the JSON result.

mod calib;
mod churn;
mod covert;
mod fig6;
mod measure;
mod trace;

use std::time::Instant;

use ironhide_core::arch::Architecture;
use ironhide_sim::config::MachineConfig;

use measure::{median, peak_rss_mb, quantile, Pass};
use trace::{Kind, Layer, SpanRec};

/// One workload of the benchmark.
pub trait Workload {
    /// Builds and validates the inputs of the next pass from the seed
    /// (timed as set-up).
    fn setup(&mut self) -> Result<(), String>;
    /// Runs one pass, through the instrumented cell loop when `traced`.
    fn pass(&mut self, traced: bool) -> Pass;
}

/// The end-to-end metrics, in output order, with their units.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("ops_per_s", "1/s"),
    ("sim_accesses_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
    ("ok_op_share", "share"),
];

/// Timed passes a run makes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// Simulated digests the repository pins: (workload, digest, seed, value).
const PINS: [(&str, &str, u64, u64); 2] = [
    ("fig6-paper", "total_cycles", 2, 1_499_884_198),
    ("covert-matrix", "ablation_checksum", 0xAB1A_7104, 2_227_128_353_016_042_739),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Everything a run collected.
struct Run {
    setups: Vec<f64>,
    setup_failures: Vec<String>,
    warmup: Pass,
    untraced: Vec<Pass>,
    traced: Vec<(Pass, Vec<SpanRec>)>,
}

impl Run {
    fn passes(&self) -> impl Iterator<Item = &Pass> {
        std::iter::once(&self.warmup)
            .chain(&self.untraced)
            .chain(self.traced.iter().map(|(pass, _)| pass))
    }
}

fn execute(args: &Args, workload: &mut dyn Workload) -> Run {
    let mut setups = Vec::new();
    let mut setup_failures = Vec::new();
    let mut timed_setup = |workload: &mut dyn Workload| {
        let start = Instant::now();
        let result = workload.setup();
        setups.push(start.elapsed().as_secs_f64());
        setup_failures.extend(result.err());
    };
    timed_setup(workload);
    let warmup = workload.pass(false);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    loop {
        timed_setup(workload);
        untraced.push(workload.pass(false));
        if args.trace {
            timed_setup(workload);
            trace::start();
            let pass = {
                let _root = trace::span(Kind::Pass);
                workload.pass(true)
            };
            traced.push((pass, trace::finish()));
        }
        let min = if args.trace { MIN_PASSES - 1 } else { MIN_PASSES };
        if start.elapsed().as_secs_f64() >= args.seconds && untraced.len() >= min {
            break;
        }
    }
    Run { setups, setup_failures, warmup, untraced, traced }
}

/// The run's failed checks, empty when every output is correct.
fn check(args: &Args, run: &Run) -> Vec<String> {
    let mut problems: Vec<String> = run.setup_failures.clone();
    problems.extend(run.passes().flat_map(|p| p.failures.clone()));
    for pass in run.passes() {
        if pass.checksums != run.warmup.checksums {
            problems.push(format!(
                "digests differ between passes: {:?} vs {:?}",
                pass.checksums, run.warmup.checksums
            ));
        }
    }
    for (workload, name, seed, value) in PINS {
        if workload != args.workload || seed != args.seed {
            continue;
        }
        let got = run.warmup.checksums.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
        if got != Some(value) {
            problems.push(format!("{name} {got:?} differs from the pin {value} at seed {seed}"));
        }
    }
    for (_, spans) in &run.traced {
        let attributed: f64 = trace::attribute(spans).iter().sum();
        let wall = trace::root_s(spans);
        if (attributed - wall).abs() > 1e-6 * wall.max(1.0) {
            problems
                .push(format!("layer times sum to {attributed} s, the traced wall is {wall} s"));
        }
    }
    problems.sort();
    problems.dedup();
    problems
}

fn end_to_end(run: &Run) -> Vec<(&'static str, f64)> {
    let (wall_s, cpu_s) = composed_pass(&run.untraced);
    let ops = run.warmup.ops as f64;
    let attempted: u64 = run.passes().map(|p| p.ops).sum();
    let failed: u64 = run.passes().map(|p| p.failed).sum();
    let values = [
        median(&run.setups),
        wall_s,
        cpu_s,
        ops / wall_s,
        run.warmup.sim_accesses as f64 / wall_s,
        quantile(&fastest_ops(&run.untraced), 0.5),
        peak_rss_mb(),
        1.0 - failed as f64 / attempted.max(1) as f64,
    ];
    END_TO_END.iter().map(|(name, _)| *name).zip(values).collect()
}

/// Wall and CPU seconds of a pass composed of each step's least-disturbed
/// instance across `passes`. Every pass does the same deterministic steps,
/// and interference from other tenants of the host only ever slows a step
/// down. The wall time replays the pass's dispatch: each batch's steps go,
/// in order, to whichever worker is free first.
fn composed_pass(passes: &[Pass]) -> (f64, f64) {
    let mut best: std::collections::BTreeMap<u64, (f64, f64)> = Default::default();
    for &(step, wall, cpu) in passes.iter().flat_map(|p| &p.steps) {
        let entry = best.entry(step).or_insert((wall, cpu));
        *entry = (entry.0.min(wall), entry.1.min(cpu));
    }
    let first = &passes[0];
    let mut wall = 0.0;
    for batch in &first.plan {
        let mut free = vec![0.0f64; first.workers.max(1)];
        for step in batch {
            let worker = (0..free.len())
                .min_by(|&a, &b| free[a].total_cmp(&free[b]))
                .expect("at least one worker");
            free[worker] += best.get(step).map_or(0.0, |b| b.0);
        }
        wall += free.iter().copied().fold(0.0, f64::max);
    }
    (wall, best.values().map(|b| b.1).sum())
}

/// Each operation's least-disturbed latency across `passes`, which all
/// repeat the same operations.
fn fastest_ops(passes: &[Pass]) -> Vec<f64> {
    let mut best: std::collections::BTreeMap<u64, f64> = Default::default();
    for (op, us) in passes.iter().flat_map(|p| &p.op_us) {
        best.entry(*op).and_modify(|b| *b = b.min(*us)).or_insert(*us);
    }
    best.into_values().collect()
}

/// The item whose pass took the least wall time.
fn fastest<T>(items: &[T], pass: impl Fn(&T) -> &Pass) -> &T {
    items
        .iter()
        .min_by(|a, b| pass(a).wall_s.total_cmp(&pass(b).wall_s))
        .expect("every run makes at least one pass of each kind it reports")
}

/// Span-derived per-layer metrics of one traced pass.
fn layer_metrics(pass: &Pass, spans: &[SpanRec], workers: usize) -> Vec<(String, f64)> {
    let shares = trace::attribute(spans);
    let mut out: Vec<(String, f64)> = vec![
        ("trace.wall_s".into(), trace::root_s(spans)),
        ("trace.residue_s".into(), shares[Layer::Residue as usize]),
    ];
    for layer in &Layer::ALL[1..] {
        out.push((format!("{}.self_s", layer.name()), shares[*layer as usize]));
    }
    for arch in Architecture::ALL {
        out.push((
            format!("runner.cell_s.{arch}"),
            trace::total_s(spans, |k| k == Kind::RunRecycled(arch)),
        ));
    }
    let drives_machine =
        |k: Kind| matches!(k, Kind::RunRecycled(_) | Kind::AccessRun | Kind::Assess);
    let sweep_s = trace::total_s(spans, |k| k == Kind::SweepRun);
    let cells_s = trace::total_s(spans, |k| matches!(k, Kind::Cell | Kind::AttackCell));
    out.extend([
        (
            "runner.measured_access_share".into(),
            pass.measured_accesses as f64 / pass.sim_accesses.max(1) as f64,
        ),
        ("workloads.interaction_s".into(), trace::total_s(spans, |k| k == Kind::Interaction)),
        (
            "sim.ns_per_access".into(),
            trace::self_s(spans, drives_machine) * 1e9 / pass.sim_accesses.max(1) as f64,
        ),
        ("sim.access_run_s".into(), trace::total_s(spans, |k| k == Kind::AccessRun)),
        ("cluster.reconfigure_s".into(), trace::total_s(spans, |k| k == Kind::Reconfigure)),
        (
            "sweep.worker_busy_share".into(),
            if sweep_s > 0.0 { cells_s / (workers as f64 * sweep_s) } else { 0.0 },
        ),
        ("attacks.build_s".into(), trace::total_s(spans, |k| k == Kind::ChannelBuild)),
        ("attacks.assess_s".into(), trace::total_s(spans, |k| k == Kind::Assess)),
    ]);
    for (name, value, _) in pass.counters.metrics() {
        out.push((name.into(), value));
    }
    for (name, value, _) in &pass.sim {
        out.push(((*name).into(), *value));
    }
    out
}

/// Every per-layer metric, in output order, with its unit.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = vec![
        ("trace.wall_s".into(), "s"),
        ("trace.overhead_s".into(), "s"),
        ("trace.residue_s".into(), "s"),
    ];
    for layer in &Layer::ALL[1..] {
        names.push((format!("{}.self_s", layer.name()), "s"));
    }
    for arch in Architecture::ALL {
        names.push((format!("runner.cell_s.{arch}"), "s"));
    }
    for (name, unit) in [
        ("op_p99_us", "us"),
        ("runner.measured_access_share", "share"),
        ("workloads.interaction_s", "s"),
        ("sim.ns_per_access", "ns"),
        ("sim.access_run_s", "s"),
        ("cluster.reconfigure_s", "s"),
        ("sweep.worker_busy_share", "share"),
        ("attacks.build_s", "s"),
        ("attacks.assess_s", "s"),
    ] {
        names.push((name.into(), unit));
    }
    for (name, _, unit) in measure::Counters::default().metrics() {
        names.push((name.into(), unit));
    }
    for (name, unit) in [
        ("model.mi6_over_ironhide", "x"),
        ("model.sgx_over_ironhide", "x"),
        ("model.mi6_speedup_err_pct", "pct"),
        ("model.sgx_speedup_err_pct", "pct"),
        ("cluster.stall_p99_cycles", "cycles"),
        ("fence.close_cost_cycles", "cycles"),
        ("calib.l1_ns", "ns"),
        ("calib.tlb_ns", "ns"),
        ("calib.l2_ns", "ns"),
        ("calib.dir_ns", "ns"),
        ("calib.hop_ns", "ns"),
        ("calib.mem_ns", "ns"),
        ("split.cache_ns_per_access", "ns"),
        ("split.mesh_ns_per_access", "ns"),
        ("split.mem_ns_per_access", "ns"),
        ("split.sim_ns_per_access", "ns"),
    ] {
        names.push((name.into(), unit));
    }
    names
}

/// Per-layer metrics of a traced run, all from its least-disturbed traced
/// pass (so its layer times sum to its wall time), plus the tracing
/// overhead and the substrate calibration.
fn per_layer(
    run: &Run,
    config: &MachineConfig,
    workers: usize,
) -> (Vec<(String, f64)>, &'static str) {
    let (pass, spans) = fastest(&run.traced, |(pass, _)| pass);
    let traced = layer_metrics(pass, spans, workers);
    let value = |name: &str| traced.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v);
    let untraced_wall = fastest(&run.untraced, |p| p).wall_s;
    let cal = calib::calibrate(config);
    let split = calib::Split::new(&cal, &pass.counters, value("sim.ns_per_access"));
    let extra = [
        ("trace.overhead_s", pass.wall_s - untraced_wall),
        ("op_p99_us", quantile(&fastest_ops(&run.untraced), 0.99)),
        ("calib.l1_ns", cal.l1_ns),
        ("calib.tlb_ns", cal.tlb_ns),
        ("calib.l2_ns", cal.l2_ns),
        ("calib.dir_ns", cal.dir_ns),
        ("calib.hop_ns", cal.hop_ns),
        ("calib.mem_ns", cal.mem_ns),
        ("split.cache_ns_per_access", split.cache),
        ("split.mesh_ns_per_access", split.mesh),
        ("split.mem_ns_per_access", split.mem),
        ("split.sim_ns_per_access", split.sim),
    ];
    let metrics = per_layer_names()
        .into_iter()
        .map(|(name, _)| {
            let v =
                extra.iter().find(|(n, _)| *n == name).map_or_else(|| value(&name), |(_, v)| *v);
            (name, v)
        })
        .collect();
    (metrics, split.top())
}

fn json_metrics(metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: perfbench --workload <fig6-paper|reconfig-churn|covert-matrix> --seed <n> \
             --seconds <s> --trace <0|1>"
        );
        std::process::exit(2);
    });
    let (mut workload, config, workers): (Box<dyn Workload>, MachineConfig, usize) = match args
        .workload
        .as_str()
    {
        "fig6-paper" => (Box::new(fig6::Fig6::new(args.seed)), MachineConfig::paper_default(), 2),
        "reconfig-churn" => {
            (Box::new(churn::Churn::new(args.seed)), MachineConfig::paper_default(), 1)
        }
        "covert-matrix" => {
            (Box::new(covert::Covert::new(args.seed)), MachineConfig::attack_testbench(), 2)
        }
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };

    let run = execute(&args, workload.as_mut());
    let problems = check(&args, &run);
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# workload={} seed={} seconds={} trace={} available_parallelism={cores} workers={workers}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# passes: warm-up 1, untraced {}, traced {}; set-ups {}",
        run.untraced.len(),
        run.traced.len(),
        run.setups.len()
    );
    let walls: Vec<String> = run.untraced.iter().map(|p| format!("{:.4}", p.wall_s)).collect();
    println!("# untraced pass wall_s: {}", walls.join(" "));
    for (name, value) in &run.warmup.checksums {
        let pin = PINS.iter().find(|(w, n, _, _)| *w == args.workload && n == name);
        match pin {
            Some((_, _, seed, pinned)) => println!(
                "# digest {name} = {value} (pin {pinned} at seed {seed}: {})",
                if value == pinned { "equal" } else { "different" }
            ),
            None => println!("# digest {name} = {value}"),
        }
    }
    for (name, value, unit) in &run.warmup.sim {
        println!("# sim {name} = {value} {unit}");
    }
    println!("# op_p99_us = {} us", quantile(&fastest_ops(&run.untraced), 0.99));
    for problem in &problems {
        println!("# FAILED: {problem}");
    }

    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let (values, top) = per_layer(&run, &config, workers);
        println!("# top host-time layer of a simulated access: {top}");
        values.into_iter().zip(per_layer_names()).map(|((n, v), (_, u))| (n, v, u)).collect()
    } else {
        end_to_end(&run)
            .into_iter()
            .zip(END_TO_END)
            .map(|((name, v), (_, unit))| (name.to_string(), v, unit))
            .collect()
    };
    for (name, value, unit) in &metrics {
        println!("# metric {name} = {value} {unit}");
    }
    if args.trace {
        let (_, spans) = fastest(&run.traced, |(pass, _)| pass);
        let path = std::path::Path::new(".bench_build/perfbench")
            .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        match trace::write_spans(&path, spans) {
            Ok(()) => println!("# spans of the reported traced pass: {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    let attempted: u64 = run.passes().map(|p| p.ops).sum();
    let failed: u64 = run.passes().map(|p| p.failed).sum();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        problems.is_empty(),
        json_metrics(&metrics)
    );
}
