//! In-memory span tracing for the traced pass, and per-layer attribution.
//!
//! The benchmark's own code opens a [`Span`] around every call it makes into
//! a simulator layer. Spans carry a kind (which names the layer), start and
//! end in nanoseconds since the process's trace epoch, the id of the span
//! that caused them and the id of the cell they belong to. They are kept in
//! per-thread buffers, moved to one shared sink whenever a thread's
//! outermost span closes, and handed back by [`finish`].
//!
//! With tracing off, [`span`] costs one relaxed atomic load and records
//! nothing, so untraced passes run the same code.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use ironhide_core::arch::Architecture;

/// Marker for "no span" in parent and cell fields.
pub const NONE: u32 = u32::MAX;

/// The simulator layers host time is attributed to. `Residue` is time the
/// benchmark could not place in any layer (its own glue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Residue,
    Workloads,
    Sweep,
    Runner,
    Cluster,
    Sim,
    Attacks,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Residue,
        Layer::Workloads,
        Layer::Sweep,
        Layer::Runner,
        Layer::Cluster,
        Layer::Sim,
        Layer::Attacks,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Residue => "residue",
            Layer::Workloads => "workloads",
            Layer::Sweep => "sweep",
            Layer::Runner => "runner",
            Layer::Cluster => "cluster",
            Layer::Sim => "sim",
            Layer::Attacks => "attacks",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// What a span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One whole traced pass (the root; its self time is residue).
    Pass,
    /// `SweepRunner::run*`, or the traced cell loop standing in for it.
    /// Its thread only waits while workers run cells.
    SweepRun,
    /// One performance-grid cell in the traced cell loop: seed derivation,
    /// instantiation and the run.
    Cell,
    /// An `AppSpec` factory call.
    Instantiate,
    /// `InteractiveApp::interaction`.
    Interaction,
    /// `ExperimentRunner::run_recycled` under one architecture.
    RunRecycled(Architecture),
    /// `ClusterManager::reconfigure`.
    Reconfigure,
    /// `Machine::access_run`.
    AccessRun,
    /// One `AttackSpec` factory call (one attack or ablation cell).
    AttackCell,
    /// `ChannelKind::build`.
    ChannelBuild,
    /// `LeakageOracle::assess_recycled` (or the window attack's).
    Assess,
}

impl Kind {
    pub fn layer(self) -> Layer {
        match self {
            Kind::Pass => Layer::Residue,
            Kind::SweepRun | Kind::Cell => Layer::Sweep,
            Kind::Instantiate | Kind::Interaction => Layer::Workloads,
            Kind::RunRecycled(_) => Layer::Runner,
            Kind::Reconfigure => Layer::Cluster,
            Kind::AccessRun => Layer::Sim,
            Kind::AttackCell | Kind::ChannelBuild | Kind::Assess => Layer::Attacks,
        }
    }

    pub fn name(self) -> String {
        match self {
            Kind::Pass => "bench.pass".into(),
            Kind::SweepRun => "sweep.run".into(),
            Kind::Cell => "sweep.cell".into(),
            Kind::Instantiate => "workloads.instantiate".into(),
            Kind::Interaction => "workloads.interaction".into(),
            Kind::RunRecycled(arch) => format!("runner.run_recycled.{arch}"),
            Kind::Reconfigure => "cluster.reconfigure".into(),
            Kind::AccessRun => "sim.access_run".into(),
            Kind::AttackCell => "attacks.cell".into(),
            Kind::ChannelBuild => "attacks.build".into(),
            Kind::Assess => "attacks.assess".into(),
        }
    }

    fn opens_cell(self) -> bool {
        matches!(self, Kind::Cell | Kind::AttackCell)
    }

    /// Whether the span's thread hands its work to worker threads and waits.
    fn forks(self) -> bool {
        matches!(self, Kind::SweepRun)
    }
}

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub id: u32,
    pub kind: Kind,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub cell: u32,
}

impl SpanRec {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(0);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
/// The open fork span worker-thread roots are parented to.
static FORK_PARENT: AtomicU32 = AtomicU32::new(NONE);
static SINK: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

struct Open {
    id: u32,
    kind: Kind,
    start_ns: u64,
    parent: u32,
    cell: u32,
}

struct Local {
    thread: u32,
    stack: Vec<Open>,
    done: Vec<SpanRec>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        stack: Vec::new(),
        done: Vec::new(),
    });
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Guard of one open span; closing happens on drop.
#[must_use = "a span closes when its guard is dropped"]
pub struct Span {
    active: bool,
}

/// Opens a span of `kind` on the calling thread (a no-op with tracing off).
pub fn span(kind: Kind) -> Span {
    if !ENABLED.load(Ordering::Relaxed) {
        return Span { active: false };
    }
    let start_ns = now_ns();
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let (parent, cell) = match local.stack.last() {
            Some(top) => (top.id, top.cell),
            None => (FORK_PARENT.load(Ordering::SeqCst), NONE),
        };
        let cell = if kind.opens_cell() { id } else { cell };
        if kind.forks() {
            FORK_PARENT.store(id, Ordering::SeqCst);
        }
        local.stack.push(Open { id, kind, start_ns, parent, cell });
    });
    Span { active: true }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end_ns = now_ns();
        LOCAL.with(|local| {
            let mut local = local.borrow_mut();
            let Some(open) = local.stack.pop() else { return };
            if open.kind.forks() {
                FORK_PARENT.store(open.parent, Ordering::SeqCst);
            }
            let thread = local.thread;
            local.done.push(SpanRec {
                id: open.id,
                kind: open.kind,
                thread,
                start_ns: open.start_ns,
                end_ns,
                parent: open.parent,
                cell: open.cell,
            });
            if local.stack.is_empty() {
                let done = std::mem::take(&mut local.done);
                if let Ok(mut sink) = SINK.lock() {
                    sink.extend(done);
                }
            }
        });
    }
}

/// Starts recording (clearing anything a previous traced pass left).
pub fn start() {
    SINK.lock().expect("no thread panics while holding the span sink").clear();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stops recording and returns every span closed since [`start`].
pub fn finish() -> Vec<SpanRec> {
    ENABLED.store(false, Ordering::SeqCst);
    std::mem::take(&mut *SINK.lock().expect("no thread panics while holding the span sink"))
}

/// Writes `spans` as JSON lines to `path`, creating its directory.
pub fn write_spans(path: &std::path::Path, spans: &[SpanRec]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{},\
             \"parent\":{},\"cell\":{}}}",
            s.id,
            s.kind.name(),
            s.thread,
            s.start_ns,
            s.end_ns,
            if s.parent == NONE { -1 } else { s.parent as i64 },
            if s.cell == NONE { -1 } else { s.cell as i64 },
        )?;
    }
    out.flush()
}

/// Sum of the durations of the spans `keep` selects, in seconds.
pub fn total_s(spans: &[SpanRec], keep: impl Fn(Kind) -> bool) -> f64 {
    // Folded from +0.0: an empty float `sum` is -0.0.
    spans.iter().filter(|s| keep(s.kind)).map(SpanRec::secs).fold(0.0, |a, b| a + b)
}

/// Self time (duration minus same-thread children) of the spans `keep`
/// selects, in thread-seconds.
pub fn self_s(spans: &[SpanRec], keep: impl Fn(Kind) -> bool) -> f64 {
    let index: std::collections::HashMap<u32, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut own: Vec<f64> = spans.iter().map(SpanRec::secs).collect();
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            if spans[p].thread == s.thread {
                own[p] -= s.secs();
            }
        }
    }
    spans.iter().zip(own).filter(|(s, _)| keep(s.kind)).map(|(_, o)| o).fold(0.0, |a, b| a + b)
}

/// One interval of a thread's timeline and the innermost span covering it.
struct Segment {
    start: u64,
    end: u64,
    kind: Kind,
}

/// Splits one thread's (properly nested) spans into the intervals where
/// each span is innermost.
fn timeline(mut spans: Vec<&SpanRec>) -> Vec<Segment> {
    spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));
    let mut out = Vec::new();
    let mut stack: Vec<&SpanRec> = Vec::new();
    let mut cursor = 0u64;
    let emit = |out: &mut Vec<Segment>, start: u64, end: u64, kind: Kind| {
        if end > start {
            out.push(Segment { start, end, kind });
        }
    };
    for s in spans {
        while let Some(top) = stack.last().copied() {
            if top.end_ns > s.start_ns {
                break;
            }
            emit(&mut out, cursor, top.end_ns, top.kind);
            cursor = top.end_ns;
            stack.pop();
        }
        if let Some(top) = stack.last() {
            emit(&mut out, cursor, s.start_ns, top.kind);
        }
        cursor = s.start_ns;
        stack.push(s);
    }
    while let Some(top) = stack.pop() {
        emit(&mut out, cursor, top.end_ns, top.kind);
        cursor = top.end_ns;
    }
    out
}

/// Wall-clock attribution of a traced pass: every instant of the root span
/// goes to the layers of the threads working at that instant, split evenly
/// among them. A thread whose innermost span only waits for workers (a
/// sweep run) counts as working only while no worker does. The shares
/// therefore sum to the root span's duration exactly.
pub fn attribute(spans: &[SpanRec]) -> [f64; 7] {
    let mut by_thread: std::collections::BTreeMap<u32, Vec<&SpanRec>> = Default::default();
    for s in spans {
        by_thread.entry(s.thread).or_default().push(s);
    }
    let timelines: Vec<Vec<Segment>> = by_thread.into_values().map(timeline).collect();
    let mut bounds: Vec<u64> =
        timelines.iter().flatten().flat_map(|seg| [seg.start, seg.end]).collect();
    bounds.sort_unstable();
    bounds.dedup();

    let mut shares = [0.0f64; 7];
    let mut cursors = vec![0usize; timelines.len()];
    let mut working: Vec<Kind> = Vec::new();
    let mut waiting: Vec<Kind> = Vec::new();
    for pair in bounds.windows(2) {
        let (t0, t1) = (pair[0], pair[1]);
        working.clear();
        waiting.clear();
        for (line, cursor) in timelines.iter().zip(cursors.iter_mut()) {
            while *cursor < line.len() && line[*cursor].end <= t0 {
                *cursor += 1;
            }
            if let Some(seg) = line.get(*cursor) {
                if seg.start <= t0 {
                    if seg.kind.forks() {
                        waiting.push(seg.kind);
                    } else {
                        working.push(seg.kind);
                    }
                }
            }
        }
        let owners = if working.is_empty() { &waiting } else { &working };
        let dt = (t1 - t0) as f64 * 1e-9;
        for kind in owners.iter() {
            shares[kind.layer().index()] += dt / owners.len() as f64;
        }
    }
    shares
}

/// The root span's duration in seconds (0 when absent).
pub fn root_s(spans: &[SpanRec]) -> f64 {
    spans.iter().filter(|s| s.kind == Kind::Pass).map(SpanRec::secs).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u32, kind: Kind, thread: u32, start_ns: u64, end_ns: u64, parent: u32) -> SpanRec {
        SpanRec { id, kind, thread, start_ns, end_ns, parent, cell: NONE }
    }

    #[test]
    fn attribution_conserves_wall_time_across_workers() {
        let spans = vec![
            rec(0, Kind::Pass, 0, 0, 1000, NONE),
            rec(1, Kind::SweepRun, 0, 100, 900, 0),
            rec(2, Kind::Cell, 1, 150, 800, 1),
            rec(3, Kind::RunRecycled(Architecture::Mi6), 1, 200, 700, 2),
            rec(4, Kind::Interaction, 1, 300, 400, 3),
            rec(5, Kind::Cell, 2, 150, 500, 1),
        ];
        let shares = attribute(&spans);
        let total: f64 = shares.iter().sum();
        assert!((total - root_s(&spans)).abs() < 1e-12);
        // 0..100 and 900..1000 are residue; 100..150 and 800..900 the sweep
        // waits alone.
        assert!((shares[Layer::Residue.index()] - 200e-9).abs() < 1e-15);
        // Interaction 300..400 runs beside worker 2's cell: half of it.
        assert!((shares[Layer::Workloads.index()] - 50e-9).abs() < 1e-15);
        assert!((self_s(&spans, |k| k == Kind::Pass) - 200e-9).abs() < 1e-15);
    }
}
