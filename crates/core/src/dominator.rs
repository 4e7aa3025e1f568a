//! Dominator sets — the Hong–Kung S-partition machinery ([10], also
//! Savage [14] and Bilardi et al. [7]), the oldest of the prior techniques
//! the paper's Section 2 lists.
//!
//! A *dominator* of a vertex set `T` is a set `D` such that every path
//! from an input to `T` meets `D`; during any segment that computes `T`,
//! the values of some dominator must have passed through cache, so
//! `|minimum dominator| − M` lower-bounds the segment's loads. By Menger's
//! theorem the minimum dominator is the maximum number of vertex-disjoint
//! input→`T` paths — computed here exactly with a vertex-capacity max-flow
//! (Dinic-style BFS/DFS on the split graph).
//!
//! Like Loomis–Whitney, the dominator bound is blunt against cancellation
//! (it cannot see that Strassen's combinations *must* be recombined), but
//! it is valid for every CDAG — and the per-segment empirical check here
//! is another independent soundness witness for the scheduler.

use mmio_cdag::{Cdag, VertexId};
use std::collections::HashSet;

/// Vertex-capacity max-flow on a CDAG from the inputs to `targets`:
/// the size of the minimum dominator of `targets` (Menger).
///
/// Every vertex is split into in/out nodes with capacity 1 (inputs and
/// targets included — a dominator may use any vertex, including an input
/// or a target itself). Every input→target path runs inside the targets'
/// ancestor cone, so the network is built on the cone alone: the cost
/// follows the cone, not |V|.
pub fn min_dominator_size(g: &Cdag, targets: &[VertexId]) -> usize {
    let cone = ancestors(g, targets);
    let node = |v: &VertexId| cone.binary_search(v).ok();
    // Node numbering: cone vertex i → in = 2i, out = 2i+1; source = 2n,
    // sink = 2n+1.
    let n = cone.len();
    let source = 2 * n;
    let sink = 2 * n + 1;
    let mut flow = MaxFlow::new(2 * n + 2);
    for (i, &v) in cone.iter().enumerate() {
        flow.add_edge(2 * i, 2 * i + 1, 1); // vertex capacity
        for j in g.succs(v).iter().filter_map(node) {
            flow.add_edge(2 * i + 1, 2 * j, usize::MAX / 4);
        }
        if g.is_input(v) {
            flow.add_edge(source, 2 * i, usize::MAX / 4);
        }
    }
    for i in targets.iter().filter_map(node) {
        flow.add_edge(2 * i + 1, sink, usize::MAX / 4);
    }
    flow.max_flow(source, sink)
}

/// `targets` and every vertex with a path into them, sorted.
fn ancestors(g: &Cdag, targets: &[VertexId]) -> Vec<VertexId> {
    let mut seen: HashSet<VertexId> = targets.iter().copied().collect();
    let mut stack: Vec<VertexId> = seen.iter().copied().collect();
    while let Some(v) = stack.pop() {
        stack.extend(g.preds(v).iter().filter(|&&p| seen.insert(p)));
    }
    let mut cone: Vec<VertexId> = seen.into_iter().collect();
    cone.sort_unstable();
    cone
}

/// A minimal Dinic max-flow (unit-ish capacities, graphs of ~10⁵ edges).
struct MaxFlow {
    first: Vec<i32>,
    next: Vec<i32>,
    to: Vec<usize>,
    cap: Vec<usize>,
}

impl MaxFlow {
    fn new(nodes: usize) -> MaxFlow {
        MaxFlow {
            first: vec![-1; nodes],
            next: Vec::new(),
            to: Vec::new(),
            cap: Vec::new(),
        }
    }

    fn add_edge(&mut self, from: usize, to: usize, cap: usize) {
        for (f, t, c) in [(from, to, cap), (to, from, 0)] {
            self.next.push(self.first[f]);
            self.first[f] = (self.to.len()) as i32;
            self.to.push(t);
            self.cap.push(c);
        }
    }

    fn bfs(&self, s: usize, t: usize, level: &mut [i32]) -> bool {
        level.fill(-1);
        level[s] = 0;
        let mut queue = std::collections::VecDeque::from([s]);
        while let Some(u) = queue.pop_front() {
            let mut e = self.first[u];
            while e >= 0 {
                let (v, c) = (self.to[e as usize], self.cap[e as usize]);
                if c > 0 && level[v] < 0 {
                    level[v] = level[u] + 1;
                    queue.push_back(v);
                }
                e = self.next[e as usize];
            }
        }
        level[t] >= 0
    }

    fn dfs(&mut self, u: usize, t: usize, pushed: usize, level: &[i32], iter: &mut [i32]) -> usize {
        if u == t {
            return pushed;
        }
        while iter[u] >= 0 {
            let e = iter[u] as usize;
            let v = self.to[e];
            if self.cap[e] > 0 && level[v] == level[u] + 1 {
                let d = self.dfs(v, t, pushed.min(self.cap[e]), level, iter);
                if d > 0 {
                    self.cap[e] -= d;
                    self.cap[e ^ 1] += d;
                    return d;
                }
            }
            iter[u] = self.next[e];
        }
        0
    }

    fn max_flow(&mut self, s: usize, t: usize) -> usize {
        let n = self.first.len();
        let mut level = vec![-1i32; n];
        let mut total = 0;
        while self.bfs(s, t, &mut level) {
            let mut iter = self.first.clone();
            loop {
                let f = self.dfs(s, t, usize::MAX / 2, &level, &mut iter);
                if f == 0 {
                    break;
                }
                total += f;
            }
        }
        total
    }
}

/// The Hong–Kung per-segment property, checked on a real schedule: every
/// set of `T` consecutively computed vertices has a dominator of size at
/// most `|R(T)| + M` — the values read plus those already in cache.
/// Returns the worst `(dominator, reads)` pair seen.
pub fn verify_dominator_bound(
    g: &Cdag,
    order: &[VertexId],
    segment_len: usize,
    m: usize,
) -> (usize, usize) {
    let mut worst = (0usize, 0usize);
    let mut read_set: Vec<VertexId> = Vec::new();
    for chunk in order.chunks(segment_len) {
        let dom = min_dominator_size(g, chunk);
        // |R(T)|: predecessors outside the chunk, found by binary search
        // in the sorted chunk.
        let mut members = chunk.to_vec();
        members.sort_unstable();
        read_set.clear();
        for &v in chunk {
            read_set.extend(
                g.preds(v)
                    .iter()
                    .filter(|p| members.binary_search(p).is_err()),
            );
        }
        read_set.sort_unstable();
        read_set.dedup();
        let reads = read_set.len();
        assert!(
            dom <= reads + m + chunk.len(),
            "dominator {dom} exceeds reads {reads} + M {m} + |T| {}",
            chunk.len()
        );
        if dom > worst.0 {
            worst = (dom, reads);
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmio_algos::classical::classical;
    use mmio_algos::strassen::strassen;
    use mmio_cdag::build::build_cdag;
    use mmio_pebble::orders::recursive_order;

    #[test]
    fn dominator_of_single_product_is_small() {
        let g = build_cdag(&strassen(), 1);
        let p = g.products().next().unwrap();
        // One product: cut it off at itself — dominator size 1.
        assert_eq!(min_dominator_size(&g, &[p]), 1);
    }

    #[test]
    fn dominator_of_all_outputs_is_matrix_sized() {
        // Everything flows through the 2a^r inputs and through the a^r…
        // actually through the b^r products; the bottleneck is the inputs:
        // min dominator of all outputs ≤ 2a^r, and ≥ a^r (each output
        // needs its row/col data).
        let g = build_cdag(&strassen(), 2);
        let outputs: Vec<_> = g.outputs().collect();
        let dom = min_dominator_size(&g, &outputs);
        assert!(dom <= 32, "dominator {dom} can't exceed the inputs");
        assert!(dom >= 16, "dominator {dom} must cover all outputs' data");
    }

    #[test]
    fn dominator_of_inputs_is_inputs() {
        let g = build_cdag(&strassen(), 1);
        let inputs: Vec<_> = g.inputs().collect();
        assert_eq!(min_dominator_size(&g, &inputs), inputs.len());
    }

    #[test]
    fn hong_kung_property_on_schedules() {
        for base in [strassen(), classical(2)] {
            let g = build_cdag(&base, 2);
            let order = recursive_order(&g);
            let (dom, reads) = verify_dominator_bound(&g, &order, 16, 8);
            assert!(dom > 0);
            assert!(dom <= reads + 8 + 16);
        }
    }

    #[test]
    fn classical_products_dominated_by_operands() {
        // A window of classical products with shared operands has a
        // dominator smaller than 2×window (operand reuse) — the effect the
        // S-partition argument quantifies.
        let g = build_cdag(&classical(2), 2);
        let products: Vec<_> = g.products().take(16).collect();
        let dom = min_dominator_size(&g, &products);
        assert!(dom < 32, "got {dom}");
        assert!(dom >= 8);
    }
}
