//! Analytical NoC latency and contention model.
//!
//! The reproduction does not simulate individual flits. Instead each packet
//! traversal is charged `router_cycles + link_cycles` per hop plus a
//! serialisation term for multi-flit packets, and a contention term derived
//! from the running utilisation of the links the packet crosses. This keeps
//! the per-access cost of the simulator low while preserving the first-order
//! effects the paper relies on: longer routes cost more, and concentrating a
//! cluster's traffic on fewer tiles raises its queueing delay.
//!
//! The model consumes lazily-stepped [`RouteIter`]s, so charging a packet
//! allocates nothing. Link load and link faults live in dense arrays indexed
//! by a link slot (the source tile times four, plus the output direction told
//! from the node pair alone), so each hop costs one array access instead of a
//! hash probe. Both arrays grow the first time a higher slot appears and never
//! shrink, so a warmed network charges packets without touching the
//! allocator.

use crate::routing::RouteIter;
use crate::topology::NodeId;

/// Latency parameters of the mesh network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocLatencyConfig {
    /// Cycles spent in each router (arbitration + crossbar).
    pub router_cycles: u64,
    /// Cycles spent on each link.
    pub link_cycles: u64,
    /// Additional serialisation cycles per flit beyond the first.
    pub serialization_cycles: u64,
    /// Maximum extra cycles per hop injected by contention at full load.
    pub max_contention_cycles: u64,
    /// Exponential-moving-average weight used by the link-load tracker
    /// (between 0 and 1; higher forgets faster).
    pub load_ema: f64,
}

impl Default for NocLatencyConfig {
    /// Parameters approximating a Tile-Gx-class single-cycle-per-hop mesh.
    fn default() -> Self {
        NocLatencyConfig {
            router_cycles: 1,
            link_cycles: 1,
            serialization_cycles: 1,
            max_contention_cycles: 4,
            load_ema: 0.05,
        }
    }
}

/// The dense-array slot of the directional link `from -> to`: `from * 4`
/// plus the output direction, told from the node pair alone (`to == from + 1`,
/// `from == to + 1`, `to > from`, `to < from`). Every mesh link joins
/// neighbours, and a tile has at most one neighbour in each of those four
/// classes on any mesh width (1×N and N×1 included), so the mapping is
/// injective over links. A non-neighbour pair aliases a real link's slot,
/// which is why every entry point that takes a pair is neighbour-only.
#[inline]
fn link_slot(from: NodeId, to: NodeId) -> usize {
    let dir = if to.0 == from.0 + 1 {
        0
    } else if from.0 == to.0 + 1 {
        1
    } else if to.0 > from.0 {
        2
    } else {
        3
    };
    from.0 * 4 + dir
}

/// Tracks per-link utilisation with an exponential moving average and turns it
/// into a contention penalty.
#[derive(Debug, Clone, Default)]
pub struct LinkLoad {
    /// Utilisation per link slot (see [`link_slot`]); a slot never written
    /// reads 0.0.
    load: Vec<f64>,
}

impl LinkLoad {
    /// Creates an empty load tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the utilisation of link `slot` *before* this packet, then
    /// records the packet's `flits`.
    #[inline]
    fn observe(&mut self, slot: usize, flits: usize, ema: f64) -> f64 {
        if slot >= self.load.len() {
            self.grow(slot);
        }
        let entry = &mut self.load[slot];
        let before = *entry;
        *entry = (1.0 - ema) * before + ema * flits as f64;
        before
    }

    /// Extends the array to cover `slot`; runs once per new high-water slot.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, slot: usize) {
        self.load.resize(slot + 1, 0.0);
    }

    /// Current utilisation estimate of the neighbour link `(from, to)`, in
    /// flits per recorded packet (0 when the link has never been used).
    ///
    /// `from` and `to` must be mesh neighbours: a non-neighbour pair shares
    /// a real link's slot and reads that link's load.
    pub fn utilization(&self, from: NodeId, to: NodeId) -> f64 {
        self.load.get(link_slot(from, to)).copied().unwrap_or(0.0)
    }

    /// Clears all recorded load (used when the network is purged or
    /// reconfigured). Zero-fills in place and frees nothing.
    pub fn reset(&mut self) {
        self.load.fill(0.0);
    }
}

/// Computes packet latencies over routes and maintains the link-load state.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    config: NocLatencyConfig,
    load: LinkLoad,
    /// Extra per-traversal cycles charged on degraded links, per link slot
    /// (see [`link_slot`]); 0 is healthy.
    link_faults: Vec<u64>,
    /// Number of nonzero entries in `link_faults`. Zero on a healthy
    /// network, so the no-fault hot path pays nothing.
    faulted: usize,
}

impl LatencyModel {
    /// Creates a latency model with the given parameters.
    pub fn new(config: NocLatencyConfig) -> Self {
        LatencyModel { config, load: LinkLoad::new(), link_faults: Vec::new(), faulted: 0 }
    }

    /// The configuration in use.
    pub fn config(&self) -> &NocLatencyConfig {
        &self.config
    }

    /// Read-only access to the link-load tracker.
    pub fn load(&self) -> &LinkLoad {
        &self.load
    }

    /// Marks the directional link `(from, to)` as degraded: every packet
    /// crossing it is charged `penalty_cycles` on top of the healthy-link
    /// cost. A penalty of zero removes the fault. Fault injection sets both
    /// directions when a physical link (rather than one channel of it) fails.
    ///
    /// `from` and `to` must be mesh neighbours: a non-neighbour pair shares
    /// a real link's slot and would degrade that link instead.
    pub fn set_link_fault(&mut self, from: NodeId, to: NodeId, penalty_cycles: u64) {
        let slot = link_slot(from, to);
        if slot >= self.link_faults.len() {
            if penalty_cycles == 0 {
                return;
            }
            self.link_faults.resize(slot + 1, 0);
        }
        let entry = &mut self.link_faults[slot];
        match (*entry != 0, penalty_cycles != 0) {
            (false, true) => self.faulted += 1,
            (true, false) => self.faulted -= 1,
            _ => {}
        }
        *entry = penalty_cycles;
    }

    /// The degradation penalty currently charged on `(from, to)` (0 if the
    /// link is healthy).
    pub fn link_fault(&self, from: NodeId, to: NodeId) -> u64 {
        self.link_faults.get(link_slot(from, to)).copied().unwrap_or(0)
    }

    /// Number of directional links currently marked degraded.
    pub fn faulted_links(&self) -> usize {
        self.faulted
    }

    /// Clears every link fault, restoring a healthy network. Unlike
    /// [`LatencyModel::reset_load`], this is *not* part of a network purge —
    /// purging queues does not repair hardware — so only machine-level resets
    /// call it.
    pub fn clear_link_faults(&mut self) {
        self.link_faults.fill(0);
        self.faulted = 0;
    }

    /// The contention-free cost of a route: per-hop router + link cycles plus
    /// the serialisation term for multi-flit packets. Shared by
    /// [`LatencyModel::traverse`] and [`LatencyModel::estimate`]; the two only
    /// differ in load bookkeeping.
    fn base_latency(&self, hops: usize, flits: usize) -> u64 {
        let per_hop = self.config.router_cycles + self.config.link_cycles;
        let serialization = self.config.serialization_cycles * flits.saturating_sub(1) as u64;
        per_hop * hops as u64 + serialization
    }

    /// Charges a packet of `flits` flits over `hops` links, observing and
    /// recording each link's load in route order. The one loop behind
    /// [`LatencyModel::traverse`] and [`LatencyModel::traverse_links`].
    #[inline]
    fn charge(
        &mut self,
        links: impl Iterator<Item = (NodeId, NodeId)>,
        hops: usize,
        flits: usize,
    ) -> u64 {
        if hops == 0 {
            return 0;
        }
        let mut contention = 0.0;
        let mut fault_penalty = 0u64;
        let faulted = self.faulted > 0;
        for (from, to) in links {
            let slot = link_slot(from, to);
            let util = self.load.observe(slot, flits, self.config.load_ema);
            // Saturating logistic-ish penalty: util is in flits/packet, a link
            // carrying full data packets every cycle approaches the max.
            let norm = (util / 5.0).min(1.0);
            contention += norm * self.config.max_contention_cycles as f64;
            if faulted {
                fault_penalty += self.link_faults.get(slot).copied().unwrap_or(0);
            }
        }
        self.base_latency(hops, flits) + contention.round() as u64 + fault_penalty
    }

    /// Latency, in cycles, of sending a packet of `flits` flits along `route`,
    /// updating link load along the way.
    pub fn traverse(&mut self, route: RouteIter, flits: usize) -> u64 {
        self.charge(route.links(), route.hops(), flits)
    }

    /// Latency of a packet of `flits` flits over a route whose links were
    /// materialised up front, updating link load along the way.
    ///
    /// Byte-identical to [`LatencyModel::traverse`] over the route that
    /// produced `links`: the per-link load observations happen in the same
    /// order with the same floating-point operations. Used by the batched
    /// access engine, which resolves a route once per run of same-route
    /// packets and then charges each packet against the cached link list —
    /// skipping the per-packet route stepping and containment re-selection.
    pub fn traverse_links(&mut self, links: &[(NodeId, NodeId)], flits: usize) -> u64 {
        self.charge(links.iter().copied(), links.len(), flits)
    }

    /// Latency of a route with no load bookkeeping (used for what-if queries
    /// by the re-allocation predictor).
    pub fn estimate(&self, route: RouteIter, flits: usize) -> u64 {
        let hops = route.hops();
        if hops == 0 {
            return 0;
        }
        self.base_latency(hops, flits)
    }

    /// Clears the contention state (network purge / reconfiguration).
    pub fn reset_load(&mut self) {
        self.load.reset();
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::new(NocLatencyConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::RoutingAlgorithm;
    use crate::topology::MeshTopology;

    #[test]
    fn zero_hop_route_is_free() {
        let m = MeshTopology::new(4, 4);
        let r = m.route_iter(NodeId(3), NodeId(3), RoutingAlgorithm::XY);
        let mut model = LatencyModel::default();
        assert_eq!(model.traverse(r, 5), 0);
        assert_eq!(model.estimate(r, 5), 0);
    }

    #[test]
    fn latency_scales_with_distance() {
        let m = MeshTopology::new(8, 8);
        let model = LatencyModel::default();
        let near = m.route_iter(NodeId(0), NodeId(1), RoutingAlgorithm::XY);
        let far = m.route_iter(NodeId(0), NodeId(63), RoutingAlgorithm::XY);
        assert!(model.estimate(far, 1) > model.estimate(near, 1));
        assert_eq!(model.estimate(near, 1), 2);
        assert_eq!(model.estimate(far, 1), 28);
    }

    #[test]
    fn serialization_adds_for_data_packets() {
        let m = MeshTopology::new(8, 8);
        let model = LatencyModel::default();
        let r = m.route_iter(NodeId(0), NodeId(7), RoutingAlgorithm::XY);
        assert_eq!(model.estimate(r, 5) - model.estimate(r, 1), 4);
    }

    #[test]
    fn estimate_matches_unloaded_traverse() {
        let m = MeshTopology::new(8, 8);
        let mut model = LatencyModel::default();
        let r = m.route_iter(NodeId(2), NodeId(45), RoutingAlgorithm::YX);
        // On a cold network the two paths share the same base cost.
        assert_eq!(model.estimate(r, 5), model.traverse(r, 5));
    }

    /// The meshes the equivalence and slot tests sweep: a small rectangle,
    /// the paper's 8×8, and both degenerate widths, where `from + 1` is a
    /// vertical neighbour (1 wide) or every link is horizontal (1 high).
    const MESHES: [(usize, usize); 4] = [(4, 2), (8, 8), (1, 8), (8, 1)];

    /// Calls `f` with every `(src, dst)` route of every mesh in [`MESHES`]
    /// under both routing orders, plus the pair's running index.
    fn for_every_route(mut f: impl FnMut(RouteIter, usize)) {
        let mut i = 0;
        for (w, h) in MESHES {
            let m = MeshTopology::new(w, h);
            for algorithm in [RoutingAlgorithm::XY, RoutingAlgorithm::YX] {
                for src in 0..m.nodes() {
                    for dst in 0..m.nodes() {
                        f(m.route_iter(NodeId(src), NodeId(dst), algorithm), i);
                        i += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn traverse_links_matches_traverse() {
        let mut a = LatencyModel::default();
        let mut b = LatencyModel::default();
        // Repeated traffic builds identical load state through both entry
        // points, packet by packet, over every route; purges (and repairs,
        // which must not disturb load) land between routes on both sides.
        for_every_route(|r, i| {
            let links: Vec<(NodeId, NodeId)> = r.links().collect();
            for p in 0..3 {
                let flits = if (i + p) % 3 == 0 { 5 } else { 1 };
                assert_eq!(a.traverse(r, flits), b.traverse_links(&links, flits), "route {i}");
            }
            if i % 7 == 0 {
                a.reset_load();
                b.reset_load();
            }
            if i % 11 == 0 {
                a.clear_link_faults();
                b.clear_link_faults();
            }
        });
        assert_eq!(a.traverse_links(&[], 5), 0);
    }

    #[test]
    fn contention_builds_up_under_load() {
        let m = MeshTopology::new(8, 8);
        let mut model = LatencyModel::default();
        let r = m.route_iter(NodeId(0), NodeId(7), RoutingAlgorithm::XY);
        let cold = model.traverse(r, 5);
        for _ in 0..500 {
            model.traverse(r, 5);
        }
        let hot = model.traverse(r, 5);
        assert!(hot > cold, "repeated traffic on a link must raise latency ({hot} <= {cold})");
        model.reset_load();
        assert_eq!(model.traverse(r, 5), cold);
    }

    #[test]
    fn link_faults_charge_identically_through_both_entry_points() {
        let mut a = LatencyModel::default();
        let mut b = LatencyModel::default();
        for_every_route(|r, i| {
            let links: Vec<(NodeId, NodeId)> = r.links().collect();
            // Degrade the route's middle link, and periodically the reverse
            // channel of its first link, which this route never crosses.
            if let Some(&(from, to)) = links.get(links.len() / 2) {
                a.set_link_fault(from, to, 37);
                b.set_link_fault(from, to, 37);
            }
            if i % 5 == 0 {
                if let Some(&(from, to)) = links.first() {
                    a.set_link_fault(to, from, 1_000);
                    b.set_link_fault(to, from, 1_000);
                }
            }
            for p in 0..3 {
                let flits = if (i + p) % 3 == 0 { 5 } else { 1 };
                assert_eq!(a.traverse(r, flits), b.traverse_links(&links, flits), "route {i}");
            }
            assert_eq!(a.faulted_links(), b.faulted_links());
            if i % 7 == 0 {
                a.reset_load();
                b.reset_load();
            }
            if i % 11 == 0 {
                a.clear_link_faults();
                b.clear_link_faults();
                assert_eq!(a.faulted_links(), 0);
                // Repaired and purged, the route costs its cold, healthy
                // base again.
                a.reset_load();
                b.reset_load();
                assert_eq!(a.traverse(r, 5), a.estimate(r, 5), "route {i}");
                assert_eq!(b.traverse_links(&links, 5), a.estimate(r, 5), "route {i}");
            }
        });
        // Off-route faults cost nothing.
        let m = MeshTopology::new(8, 8);
        let r = m.route_iter(NodeId(2), NodeId(45), RoutingAlgorithm::XY);
        let mut healthy = LatencyModel::default();
        let mut elsewhere = LatencyModel::default();
        elsewhere.set_link_fault(NodeId(60), NodeId(61), 1_000);
        assert_eq!(elsewhere.traverse(r, 5), healthy.traverse(r, 5));
    }

    #[test]
    fn link_fault_raises_traversal_cost_by_its_penalty() {
        let m = MeshTopology::new(8, 8);
        let mut model = LatencyModel::default();
        let r = m.route_iter(NodeId(0), NodeId(7), RoutingAlgorithm::XY);
        let mut faulted = LatencyModel::default();
        faulted.set_link_fault(NodeId(0), NodeId(1), 50);
        faulted.set_link_fault(NodeId(3), NodeId(4), 9);
        assert_eq!(faulted.traverse(r, 5), model.traverse(r, 5) + 59);
        assert_eq!(faulted.link_fault(NodeId(0), NodeId(1)), 50);
        // A zero penalty removes the fault entry entirely.
        faulted.set_link_fault(NodeId(0), NodeId(1), 0);
        assert_eq!(faulted.faulted_links(), 1);
        // reset_load (a network purge) must NOT repair the hardware.
        faulted.reset_load();
        assert_eq!(faulted.link_fault(NodeId(3), NodeId(4)), 9);
    }

    #[test]
    fn utilization_reads_route_links_only() {
        let m = MeshTopology::new(4, 4);
        let mut model = LatencyModel::default();
        let r = m.route_iter(NodeId(0), NodeId(3), RoutingAlgorithm::XY);
        for _ in 0..10 {
            model.traverse(r, 5);
        }
        for (from, to) in r.links() {
            assert!(model.load().utilization(from, to) > 0.0, "{from} -> {to}");
        }
        // Neither the reverse channel nor a link off the route saw traffic.
        assert_eq!(model.load().utilization(NodeId(1), NodeId(0)), 0.0);
        assert_eq!(model.load().utilization(NodeId(4), NodeId(5)), 0.0);
        // A link beyond anything recorded reads 0 as well.
        assert_eq!(model.load().utilization(NodeId(14), NodeId(15)), 0.0);
        model.reset_load();
        assert_eq!(model.load().utilization(NodeId(0), NodeId(1)), 0.0);
    }

    #[test]
    fn neighbour_links_map_to_distinct_slots() {
        for (w, h) in MESHES {
            let m = MeshTopology::new(w, h);
            let mut seen = crate::fx::FxHashMap::default();
            for from in (0..m.nodes()).map(NodeId) {
                for to in m.neighbors(from) {
                    let slot = link_slot(from, to);
                    assert!(slot < m.nodes() * 4, "{w}x{h}: {from} -> {to} slot {slot}");
                    if let Some(other) = seen.insert(slot, (from, to)) {
                        panic!("{w}x{h}: {from} -> {to} shares slot {slot} with {other:?}");
                    }
                }
            }
            let links = 2 * ((w - 1) * h + w * (h - 1));
            assert_eq!(seen.len(), links, "{w}x{h}");
        }
    }
}
