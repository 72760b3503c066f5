//! Substrate calibration from outside the machine.
//!
//! Times each substrate primitive on warmed standalone instances of the
//! workload's machine geometry, multiplies the per-event host cost by the
//! workload's event counters, and reconciles the result against the host
//! nanoseconds per simulated access the trace measured. What the primitives
//! do not explain is the simulator's own glue (segment walking, route
//! memos, statistics), reported as the `sim` share.

use std::hint::black_box;
use std::time::Instant;

use ironhide_cache::{Directory, SetAssocCache, Tlb};
use ironhide_mem::MemoryController;
use ironhide_mesh::{LatencyModel, MeshTopology, NodeId, RoutingAlgorithm};
use ironhide_sim::config::MachineConfig;

use crate::measure::{median, Counters};

/// Calls per timing repetition, and repetitions per primitive.
const CALLS: u64 = 200_000;
const REPS: usize = 5;

/// References one L1 line run and one TLB page run stand for: the
/// word-granular and line-granular strides the recorded streams mostly use.
const REFS_PER_LINE_RUN: u64 = 8;
const REFS_PER_PAGE_RUN: u64 = 64;

/// Host nanoseconds per primitive event.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Per L1 reference, through `SetAssocCache::access_line_run`.
    pub l1_ns: f64,
    /// Per TLB reference, through `Tlb::access_page_run`.
    pub tlb_ns: f64,
    /// Per L2 slice access.
    pub l2_ns: f64,
    /// Per `Directory::access` transaction.
    pub dir_ns: f64,
    /// Per link a packet traverses (`LatencyModel::traverse_links`).
    pub hop_ns: f64,
    /// Per memory-controller request.
    pub mem_ns: f64,
}

/// A deterministic address stream.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Median over `REPS` repetitions of the nanoseconds per call of `op`,
/// after one untimed repetition to warm the instance.
fn per_call(mut op: impl FnMut(&mut Stream) -> u64) -> f64 {
    let mut stream = Stream(1);
    let mut sink = 0u64;
    for _ in 0..CALLS {
        sink = sink.wrapping_add(op(&mut stream));
    }
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let start = Instant::now();
        for _ in 0..CALLS {
            sink = sink.wrapping_add(op(&mut stream));
        }
        samples.push(start.elapsed().as_secs_f64() * 1e9 / CALLS as f64);
    }
    black_box(sink);
    median(&samples)
}

/// Times every primitive for `config`'s geometry. Working sets are twice
/// each structure's capacity, so lookups mix hits and misses.
pub fn calibrate(config: &MachineConfig) -> Calibration {
    let line = config.l1.line_bytes as u64;
    let page = config.tlb.page_bytes as u64;

    let l1_lines = 2 * (config.l1.size_bytes as u64 / line);
    let mut l1 = SetAssocCache::new(config.l1);
    let l1_run = per_call(|s| {
        let addr = (s.next() % l1_lines) * line;
        let (outcome, shared) = l1.access_line_run(addr, REFS_PER_LINE_RUN, s.next() % 4 == 0);
        outcome.is_miss() as u64 + shared as u64
    });

    let tlb_pages = 2 * config.tlb.entries as u64;
    let mut tlb = Tlb::new(config.tlb);
    let tlb_run =
        per_call(|s| tlb.access_page_run((s.next() % tlb_pages) * page, REFS_PER_PAGE_RUN) as u64);

    let l2_lines = 2 * (config.l2_slice.size_bytes as u64 / line);
    let mut l2 = SetAssocCache::new(config.l2_slice);
    let l2_ns = per_call(|s| {
        let addr = (s.next() % l2_lines) * line;
        l2.access_line_run(addr, 1, s.next() % 4 == 0).0.is_miss() as u64
    });

    let cores = config.cores() as u64;
    let mut dir = Directory::new(config.directory);
    let dir_lines = 2 * (config.directory.sets * config.directory.ways) as u64;
    let dir_ns = per_call(|s| {
        let outcome = dir.access(
            s.next() % dir_lines,
            NodeId((s.next() % cores) as usize),
            s.next() % 4 == 0,
        );
        black_box(&outcome);
        1
    });

    let topology = MeshTopology::new(config.mesh_width, config.mesh_height);
    let mut noc = LatencyModel::new(config.noc);
    let routes: Vec<Vec<(NodeId, NodeId)>> = (0..256u64)
        .map(|i| {
            let src = NodeId((i * 7 % cores) as usize);
            let dst = NodeId((i * 13 + 5) as usize % cores as usize);
            topology.route(src, dst, RoutingAlgorithm::XY).links().collect()
        })
        .collect();
    let hops: usize = routes.iter().map(Vec::len).sum();
    let mut next_route = 0usize;
    let route_ns = per_call(|_| {
        next_route = (next_route + 1) % routes.len();
        noc.traverse_links(&routes[next_route], 5)
    });
    let hop_ns = route_ns * routes.len() as f64 / hops.max(1) as f64;

    let mut mc = MemoryController::new(0, config.dram);
    let mem_ns = per_call(|s| mc.access(s.next() % (1 << 30), s.next() % 4 == 0, s.next() % 4));

    Calibration {
        l1_ns: l1_run / REFS_PER_LINE_RUN as f64,
        tlb_ns: tlb_run / REFS_PER_PAGE_RUN as f64,
        l2_ns,
        dir_ns,
        hop_ns,
        mem_ns,
    }
}

/// Host nanoseconds per simulated access split by layer.
#[derive(Debug, Clone, Copy)]
pub struct Split {
    pub cache: f64,
    pub mesh: f64,
    pub mem: f64,
    /// The measured cost the primitives leave unexplained.
    pub sim: f64,
}

impl Split {
    /// Splits `ns_per_access` using `counters` (whose events are all per
    /// `counters.l1_accesses` references).
    pub fn new(cal: &Calibration, counters: &Counters, ns_per_access: f64) -> Self {
        let refs = counters.l1_accesses.max(1) as f64;
        let per = |events: u64, ns: f64| events as f64 * ns / refs;
        let cache = per(counters.l1_accesses, cal.l1_ns)
            + per(counters.tlb_accesses, cal.tlb_ns)
            + per(counters.l2_accesses, cal.l2_ns)
            + per(counters.dir_lookups, cal.dir_ns);
        let mesh = per(counters.mesh_hops, cal.hop_ns);
        let mem = per(counters.mem_requests, cal.mem_ns);
        Split { cache, mesh, mem, sim: ns_per_access - cache - mesh - mem }
    }

    /// The layer with the largest share.
    pub fn top(&self) -> &'static str {
        [("cache", self.cache), ("mesh", self.mesh), ("mem", self.mem), ("sim", self.sim)]
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map_or("none", |(name, _)| name)
    }
}
