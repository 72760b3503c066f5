//! What one pass measures, and the host-side probes (CPU time, peak RSS).

use ironhide_sim::stats::MachineStats;

/// Simulated event counters of one pass, summed over its machines.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    pub l1_accesses: u64,
    pub l1_misses: u64,
    pub tlb_accesses: u64,
    pub tlb_misses: u64,
    pub l2_accesses: u64,
    pub l2_misses: u64,
    pub dir_lookups: u64,
    pub dir_invalidations: u64,
    pub dir_downgrades: u64,
    pub dir_back_invalidations: u64,
    pub mesh_packets: u64,
    pub mesh_hops: u64,
    pub mesh_maintenance: u64,
    pub mesh_cross_cluster: u64,
    pub mesh_latency_cycles: u64,
    pub mem_requests: u64,
    pub mem_row_hits: u64,
    pub mem_row_misses: u64,
    pub mem_latency_cycles: u64,
    pub core_purges: u64,
    pub pages_rehomed: u64,
    pub scrub_probes: u64,
    pub cycles_compute: u64,
    pub cycles_overhead: u64,
    pub cycles_reconfig: u64,
}

impl Counters {
    /// Adds one machine's statistics snapshot.
    pub fn add_machine(&mut self, s: &MachineStats) {
        self.l1_accesses += s.l1.accesses;
        self.l1_misses += s.l1.misses;
        self.tlb_accesses += s.tlb.accesses;
        self.tlb_misses += s.tlb.misses;
        self.l2_accesses += s.l2.accesses;
        self.l2_misses += s.l2.misses;
        self.dir_lookups += s.directory.lookups;
        self.dir_invalidations += s.directory.invalidations;
        self.dir_downgrades += s.directory.downgrades;
        self.dir_back_invalidations += s.directory.back_invalidations;
        self.mesh_packets += s.noc.packets;
        self.mesh_hops += s.noc.hops;
        self.mesh_maintenance += s.noc.maintenance;
        self.mesh_cross_cluster += s.noc.cross_cluster_packets;
        self.mesh_latency_cycles += s.noc.latency_cycles;
        self.mem_requests += s.mem.requests;
        self.mem_row_hits += s.mem.row_hits;
        self.mem_row_misses += s.mem.row_misses;
        self.mem_latency_cycles += s.mem.total_latency_cycles;
        self.core_purges += s.core_purges;
        self.pages_rehomed += s.pages_rehomed;
    }

    /// The counters as per-layer metrics.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let c = |v: u64| v as f64;
        vec![
            ("cache.l1.accesses", c(self.l1_accesses), "count"),
            ("cache.l1.misses", c(self.l1_misses), "count"),
            ("cache.tlb.accesses", c(self.tlb_accesses), "count"),
            ("cache.tlb.misses", c(self.tlb_misses), "count"),
            ("cache.l2.accesses", c(self.l2_accesses), "count"),
            ("cache.l2.misses", c(self.l2_misses), "count"),
            ("cache.dir.lookups", c(self.dir_lookups), "count"),
            ("cache.dir.invalidations", c(self.dir_invalidations), "count"),
            ("cache.dir.downgrades", c(self.dir_downgrades), "count"),
            ("cache.dir.back_invalidations", c(self.dir_back_invalidations), "count"),
            ("mesh.packets", c(self.mesh_packets), "count"),
            ("mesh.hops", c(self.mesh_hops), "count"),
            ("mesh.maintenance", c(self.mesh_maintenance), "count"),
            ("mesh.cross_cluster", c(self.mesh_cross_cluster), "count"),
            ("mesh.latency_cycles", c(self.mesh_latency_cycles), "cycles"),
            ("mem.requests", c(self.mem_requests), "count"),
            ("mem.row_hits", c(self.mem_row_hits), "count"),
            ("mem.row_misses", c(self.mem_row_misses), "count"),
            ("mem.latency_cycles", c(self.mem_latency_cycles), "cycles"),
            ("sim.core_purges", c(self.core_purges), "count"),
            ("sim.pages_rehomed", c(self.pages_rehomed), "count"),
            ("sim.scrub_probes", c(self.scrub_probes), "count"),
            ("cycles.compute", c(self.cycles_compute), "cycles"),
            ("cycles.overhead", c(self.cycles_overhead), "cycles"),
            ("cycles.reconfig", c(self.cycles_reconfig), "cycles"),
        ]
    }
}

/// Everything one pass of a workload produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host wall seconds of the pass.
    pub wall_s: f64,
    /// Process CPU seconds of the pass.
    pub cpu_s: f64,
    /// Operations attempted: cells, or reconfigurations.
    pub ops: u64,
    /// Operations that erred or failed a check.
    pub failed: u64,
    /// What failed, for the log.
    pub failures: Vec<String>,
    /// Simulated memory accesses the pass performed.
    pub sim_accesses: u64,
    /// The part of them inside measured phases (the rest is predictor
    /// probes and warm-up).
    pub measured_accesses: u64,
    /// Host latency of each operation in microseconds, keyed by an id that
    /// names the same operation in every pass (its cell seed, or its index).
    pub op_us: Vec<(u64, f64)>,
    /// Wall and CPU seconds of each step of the pass, keyed like `op_us`.
    pub steps: Vec<(u64, f64, f64)>,
    /// How the steps were dispatched: batches run one after another, each
    /// over `workers` threads that take its steps in order.
    pub plan: Vec<Vec<u64>>,
    pub workers: usize,
    /// Deterministic digests of the simulated results, by name.
    pub checksums: Vec<(&'static str, u64)>,
    /// Simulated event counters.
    pub counters: Counters,
    /// Simulated results specific to the workload (name, value, unit).
    pub sim: Vec<(&'static str, f64, &'static str)>,
}

/// Seconds of CPU time this process has used, all threads together.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec with the C layout the
    // libc call expects, and it outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// FNV-1a over `bytes`, the digest the repository's matrices use.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= *b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}
