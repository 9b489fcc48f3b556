//! The happens-before graph of a schedule, with minimal-cycle extraction.
//!
//! Nodes are `(device, slot)` pairs — one per scheduled pass. Edges are
//! each device's program order (a device runs its slots strictly in
//! sequence) plus the cross-device dependency edges of [`crate::deps`].
//! Acyclicity of this graph is exactly deadlock freedom of the
//! thread-per-stage runtime; a cycle is a set of passes that all wait on
//! each other. The minimal-cycle extractor turns "the schedule is stuck"
//! into a witness naming the exact passes that form the smallest such
//! loop, which is what `vp-check` reports as diagnostic `VP0001`.

use crate::deps::{DepGraph, EdgeKind};
use crate::pass::{Schedule, ScheduledPass};

/// Why one pass must precede another in the happens-before graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HbEdge {
    /// Same-device program order: a device runs its slots in sequence.
    Program,
    /// A cross-device dependency edge of [`crate::deps`].
    Dep(EdgeKind),
}

impl HbEdge {
    /// Short human label used in cycle reports.
    pub fn describe(self) -> &'static str {
        match self {
            HbEdge::Program => "program order",
            HbEdge::Dep(EdgeKind::ActivationP2p) => "activation send/recv",
            HbEdge::Dep(EdgeKind::GradP2p) => "gradient send/recv",
            HbEdge::Dep(EdgeKind::C0Broadcast) => "C0 broadcast",
            HbEdge::Dep(EdgeKind::C1Barrier) => "C1 barrier",
            HbEdge::Dep(EdgeKind::C2Reduce) => "C2 reduce",
            HbEdge::Dep(EdgeKind::NaiveBarrier) => "naive S/S2 barrier",
            HbEdge::Dep(EdgeKind::InterlacedSync) => "interlaced sync",
            HbEdge::Dep(EdgeKind::InputAllReduce) => "input all-reduce",
            HbEdge::Dep(EdgeKind::InputGradBroadcast) => "input grad broadcast",
            HbEdge::Dep(EdgeKind::Local) => "local data dependency",
        }
    }
}

/// One step of a deadlock cycle: the pass at `(device, slot)` must finish
/// before the *next* step's pass can run (the last step precedes the
/// first), yet program order or the dependency rules place it after.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleStep {
    /// Device of this step's pass.
    pub device: usize,
    /// Slot of this step's pass in its device's execution order.
    pub slot: usize,
    /// The pass itself.
    pub pass: ScheduledPass,
    /// Why this pass must precede the next step's pass.
    pub edge: HbEdge,
}

/// The happens-before graph over every scheduled pass.
#[derive(Debug, Clone)]
pub struct HbGraph {
    /// `offsets[d]` is the node id of `(d, 0)`; node ids are contiguous
    /// per device.
    offsets: Vec<usize>,
    nodes: Vec<(usize, usize, ScheduledPass)>,
    /// Forward adjacency: `succs[v]` lists `(w, edge)` with `v` before `w`.
    succs: Vec<Vec<(usize, HbEdge)>>,
    /// Number of happens-before predecessors per node (for Kahn peeling).
    pred_count: Vec<usize>,
}

impl HbGraph {
    /// Builds the happens-before graph from a schedule and its dependency
    /// graph (as produced by [`crate::deps::build_deps`]).
    pub fn new(schedule: &Schedule, deps: &DepGraph) -> HbGraph {
        let p = schedule.devices();
        let mut offsets = Vec::with_capacity(p);
        let mut nodes = Vec::new();
        for d in 0..p {
            offsets.push(nodes.len());
            for (i, pass) in schedule.passes(d).iter().enumerate() {
                nodes.push((d, i, *pass));
            }
        }
        let n = nodes.len();
        let mut succs: Vec<Vec<(usize, HbEdge)>> = vec![Vec::new(); n];
        let mut pred_count = vec![0usize; n];
        for d in 0..p {
            let len = schedule.passes(d).len();
            for i in 0..len {
                let v = offsets[d] + i;
                if i + 1 < len {
                    succs[v].push((v + 1, HbEdge::Program));
                    pred_count[v + 1] += 1;
                }
            }
            for i in 0..len {
                let v = offsets[d] + i;
                for dep in deps.preds(d, i) {
                    let u = offsets[dep.device] + dep.index;
                    succs[u].push((v, HbEdge::Dep(dep.kind)));
                    pred_count[v] += 1;
                }
            }
        }
        HbGraph {
            offsets,
            nodes,
            succs,
            pred_count,
        }
    }

    /// Number of nodes (scheduled passes).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node id of pass `slot` on `device`.
    pub fn id(&self, device: usize, slot: usize) -> usize {
        self.offsets[device] + slot
    }

    /// The `(device, slot, pass)` of a node id.
    pub fn node(&self, id: usize) -> (usize, usize, ScheduledPass) {
        self.nodes[id]
    }

    /// Happens-before successors of a node.
    pub fn succs(&self, id: usize) -> &[(usize, HbEdge)] {
        &self.succs[id]
    }

    /// A topological order of the graph, or `None` if it contains a cycle
    /// (the schedule deadlocks).
    pub fn topo_order(&self) -> Option<Vec<usize>> {
        let (order, _) = self.kahn();
        if order.len() == self.nodes.len() {
            Some(order)
        } else {
            None
        }
    }

    /// Kahn peeling: returns the peeled order plus the residual in-degree
    /// vector (nonzero entries mark the cyclic core).
    fn kahn(&self) -> (Vec<usize>, Vec<usize>) {
        let mut indeg = self.pred_count.clone();
        let mut order: Vec<usize> = (0..self.nodes.len()).filter(|&v| indeg[v] == 0).collect();
        let mut head = 0;
        while head < order.len() {
            let v = order[head];
            head += 1;
            for &(w, _) in &self.succs[v] {
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    order.push(w);
                }
            }
        }
        (order, indeg)
    }

    /// Extracts a minimal happens-before cycle, or `None` if the graph is
    /// acyclic.
    ///
    /// The cycle is minimal in the number of passes involved: among all
    /// cycles of the graph, a shortest one is returned (breaking ties
    /// towards lower device/slot ids), so a deadlock report names only the
    /// passes that actually form the loop, not everything transitively
    /// stuck behind it.
    pub fn minimal_cycle(&self) -> Option<Vec<CycleStep>> {
        let (_, indeg) = self.kahn();
        // The cyclic core: nodes Kahn could not peel.
        let core: Vec<usize> = (0..self.nodes.len()).filter(|&v| indeg[v] > 0).collect();
        if core.is_empty() {
            return None;
        }
        let mut in_core = vec![false; self.nodes.len()];
        for &v in &core {
            in_core[v] = true;
        }
        // Shortest cycle through any core node: BFS within the core from
        // each start, looking for the start itself.
        let mut best: Option<Vec<(usize, HbEdge)>> = None;
        for &start in &core {
            if let Some(cycle) = self.shortest_cycle_through(start, &in_core) {
                let better = match &best {
                    None => true,
                    Some(b) => cycle.len() < b.len(),
                };
                if better {
                    best = Some(cycle);
                }
            }
        }
        best.map(|steps| {
            steps
                .into_iter()
                .map(|(v, edge)| {
                    let (device, slot, pass) = self.nodes[v];
                    CycleStep {
                        device,
                        slot,
                        pass,
                        edge,
                    }
                })
                .collect()
        })
    }

    /// BFS from `start` (restricted to core nodes) back to `start`; returns
    /// the cycle as `(node, edge-to-next)` steps, or `None` if `start` is
    /// not on a cycle.
    fn shortest_cycle_through(
        &self,
        start: usize,
        in_core: &[bool],
    ) -> Option<Vec<(usize, HbEdge)>> {
        let n = self.nodes.len();
        let mut parent: Vec<Option<(usize, HbEdge)>> = vec![None; n];
        let mut visited = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        visited[start] = true;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            for &(w, edge) in &self.succs[v] {
                if !in_core[w] {
                    continue;
                }
                if w == start {
                    // Reconstruct start -> ... -> v, then close with edge.
                    let mut rev = vec![(v, edge)];
                    let mut cur = v;
                    while cur != start {
                        let (prev, e) = parent[cur].expect("BFS parent chain");
                        rev.push((prev, e));
                        cur = prev;
                    }
                    rev.reverse();
                    return Some(rev);
                }
                if !visited[w] {
                    visited[w] = true;
                    parent[w] = Some((v, edge));
                    queue.push_back(w);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::PassTimes;
    use crate::deps::build_deps;
    use crate::generators::{one_f_one_b, vocab_1f1b};
    use crate::pass::{PassKind, Schedule, ScheduleKind, VocabVariant};

    #[test]
    fn valid_schedule_has_topo_order_and_no_cycle() {
        let sched = vocab_1f1b(4, 6, VocabVariant::Alg2, PassTimes::default(), true);
        let deps = build_deps(&sched).unwrap();
        let hb = HbGraph::new(&sched, &deps);
        assert_eq!(hb.len(), sched.total_passes());
        let topo = hb.topo_order().expect("acyclic");
        assert_eq!(topo.len(), hb.len());
        assert!(hb.minimal_cycle().is_none());
        // Topo order respects every edge.
        let mut rank = vec![0usize; hb.len()];
        for (r, &v) in topo.iter().enumerate() {
            rank[v] = r;
        }
        for v in 0..hb.len() {
            for &(w, _) in hb.succs(v) {
                assert!(rank[v] < rank[w]);
            }
        }
    }

    #[test]
    fn inverted_order_yields_minimal_cycle() {
        // dev0: [F0, B0]; dev1: [B0, F0] — device 1's backward (last
        // virtual stage) needs its own forward, which program order puts
        // after it: a 2-node cycle.
        let sched = Schedule::new(
            ScheduleKind::Plain,
            1,
            1,
            vec![
                vec![
                    ScheduledPass::new(PassKind::F, 0),
                    ScheduledPass::new(PassKind::B, 0),
                ],
                vec![
                    ScheduledPass::new(PassKind::B, 0),
                    ScheduledPass::new(PassKind::F, 0),
                ],
            ],
        );
        let deps = build_deps(&sched).unwrap();
        let hb = HbGraph::new(&sched, &deps);
        assert!(hb.topo_order().is_none());
        let cycle = hb.minimal_cycle().expect("deadlocked schedule");
        assert_eq!(cycle.len(), 2, "{cycle:?}");
        assert!(cycle.iter().all(|s| s.device == 1));
        let kinds: Vec<PassKind> = cycle.iter().map(|s| s.pass.kind).collect();
        assert!(kinds.contains(&PassKind::F) && kinds.contains(&PassKind::B));
    }

    #[test]
    fn cycle_is_minimal_not_everything_stuck() {
        // A long valid 1F1B prefix plus one swapped F/B pair on the last
        // device: the cycle must involve only the swapped neighborhood,
        // not all m microbatches.
        let sched = one_f_one_b(4, 8, PassTimes::default());
        let mut passes: Vec<Vec<_>> = (0..4).map(|d| sched.passes(d).to_vec()).collect();
        let d = 3;
        let fi = passes[d]
            .iter()
            .position(|p| p.kind == PassKind::F && p.microbatch == 5)
            .unwrap();
        let bi = passes[d]
            .iter()
            .position(|p| p.kind == PassKind::B && p.microbatch == 5)
            .unwrap();
        passes[d].swap(fi, bi);
        let mutated = Schedule::new(ScheduleKind::Plain, 8, 1, passes);
        let deps = build_deps(&mutated).unwrap();
        let hb = HbGraph::new(&mutated, &deps);
        let cycle = hb.minimal_cycle().expect("swap deadlocks");
        assert!(
            cycle.len() <= 4,
            "cycle should be local to the swap: {cycle:?}"
        );
        assert!(cycle.iter().any(|s| s.pass.microbatch == 5));
    }
}
