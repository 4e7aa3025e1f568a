//! Meta-vertices: maximal groups of CDAG vertices holding the same value.
//!
//! A vertex whose single predecessor feeds it with coefficient 1 through a
//! *trivial* base-graph row is a **copy** — its value equals its parent's.
//! Following the paper (Section 3, Figure 2), all vertices holding one value
//! are grouped into a *meta-vertex*: a chain under single copying, an
//! upward-branching subtree rooted at the original value (an input, for
//! base graphs satisfying the single-use assumption) under multiple copying.

use crate::graph::{Cdag, VertexId};
use crate::view::CdagView;

/// Identifier of a meta-vertex: the dense id of its *root* — the unique
/// member all other members are copies of (the member of smallest rank).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MetaId(pub u32);

/// A partition of the vertices into groups, each named by its smallest
/// member (`label[v] ≤ v` and `label[label[v]] == label[v]`), stored as a
/// compact CSR table: only groups of two or more members are listed.
///
/// `names` holds the sorted names of those groups and
/// `members[offsets[i]..offsets[i + 1]]` the members of group `names[i]`
/// in ascending id order, the name first. A singleton `v` is served as
/// `slice::from_ref(&label[v])`, so beyond `label` the table costs
/// O(#grouped vertices), not O(|V|).
pub(crate) struct Groups {
    label: Vec<VertexId>,
    names: Vec<VertexId>,
    offsets: Vec<u32>,
    members: Vec<VertexId>,
}

impl Groups {
    /// Groups the vertices by `label` (one entry per vertex).
    pub(crate) fn new(label: Vec<VertexId>) -> Groups {
        // (name, member) for every vertex that is not its group's name;
        // sorting the pairs lists each group's members in ascending order.
        let mut pairs: Vec<(VertexId, VertexId)> = label
            .iter()
            .enumerate()
            .filter(|&(i, l)| l.idx() != i)
            .map(|(i, &l)| (l, VertexId(i as u32)))
            .collect();
        pairs.sort_unstable();
        let (mut names, mut offsets) = (Vec::new(), Vec::new());
        let mut members = Vec::with_capacity(pairs.len());
        for (name, v) in pairs {
            if names.last() != Some(&name) {
                debug_assert!(name < v && label[name.idx()] == name, "bad group name");
                offsets.push(members.len() as u32);
                names.push(name);
                members.push(name);
            }
            members.push(v);
        }
        offsets.push(members.len() as u32);
        Groups {
            label,
            names,
            offsets,
            members,
        }
    }

    /// The name of `v`'s group.
    pub(crate) fn label(&self, v: VertexId) -> VertexId {
        self.label[v.idx()]
    }

    /// The members of `v`'s group, name first, the rest ascending.
    pub(crate) fn members_of(&self, v: VertexId) -> &[VertexId] {
        let name = &self.label[v.idx()];
        match self.names.binary_search(name) {
            Ok(i) => &self.members[self.offsets[i] as usize..self.offsets[i + 1] as usize],
            Err(_) => std::slice::from_ref(name),
        }
    }

    /// Every vertex lying in a group of two or more members.
    pub(crate) fn grouped(&self) -> &[VertexId] {
        &self.members
    }

    /// Number of groups, singletons included.
    pub(crate) fn count(&self) -> usize {
        self.label
            .iter()
            .enumerate()
            .filter(|&(i, l)| l.idx() == i)
            .count()
    }

    /// The group closure of `set`: every member of every group `set`
    /// touches, sorted (groups are disjoint, so no duplicates).
    pub(crate) fn closure(&self, set: &[VertexId]) -> Vec<VertexId> {
        let mut names: Vec<VertexId> = set.iter().map(|&v| self.label(v)).collect();
        names.sort_unstable();
        names.dedup();
        let mut out = Vec::with_capacity(names.len());
        for name in names {
            out.extend_from_slice(self.members_of(name));
        }
        out.sort_unstable();
        out
    }

    /// Fills `out` with `tag(name)` for every group adjacent to the sorted,
    /// group-closed vertex list `closure` but outside it, sorted and
    /// deduplicated. Walks the closure's adjacency only.
    pub(crate) fn boundary_into<V: CdagView, T: Ord>(
        &self,
        g: &V,
        closure: &[VertexId],
        tag: impl Fn(VertexId) -> T,
        out: &mut Vec<T>,
    ) {
        out.clear();
        let mut adj = Vec::new();
        for &v in closure {
            adj.clear();
            g.preds_into(v, &mut adj);
            g.succs_into(v, &mut adj);
            for &w in &adj {
                if closure.binary_search(&w).is_err() {
                    out.push(tag(self.label(w)));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
    }
}

/// The meta-vertex structure of a CDAG.
pub struct MetaVertices {
    /// Each vertex's root, and the members of every nontrivial
    /// meta-vertex (singletons omitted).
    groups: Groups,
}

impl MetaVertices {
    /// Computes the meta-vertex grouping of `g`.
    ///
    /// A vertex is a copy when its level's base-graph row (encoding row `τ`
    /// at encoding ranks, decoding row `υ` at decoding ranks) is trivial:
    /// one nonzero coefficient equal to 1. Copies are united with their
    /// single parent; roots are the non-copy vertices.
    pub fn compute(g: &Cdag) -> MetaVertices {
        MetaVertices::compute_view(g)
    }

    /// [`MetaVertices::compute`] over any [`CdagView`] — the copy condition
    /// and grouping are identical for the explicit and closed-form views
    /// (equivalence-tested in `mmio-integration`).
    pub fn compute_view<V: CdagView>(g: &V) -> MetaVertices {
        let n = g.n_vertices();
        let mut root: Vec<VertexId> = (0..n as u32).map(VertexId).collect();
        // Dense order is topological, so a copy's parent already has its
        // final root when we visit the copy: one pass suffices.
        for i in 0..n as u32 {
            if let Some(p) = g.copy_parent(VertexId(i)) {
                root[i as usize] = root[p.idx()];
            }
        }
        MetaVertices {
            groups: Groups::new(root),
        }
    }

    /// The meta-vertex containing `v`.
    pub fn meta_of(&self, v: VertexId) -> MetaId {
        MetaId(self.groups.label(v).0)
    }

    /// The root vertex of a meta-vertex (the original, non-copy value).
    pub fn root_vertex(&self, m: MetaId) -> VertexId {
        VertexId(m.0)
    }

    /// All members of the meta-vertex containing `v` (including `v`): the
    /// root first, the copies in ascending id order. Allocation-free.
    pub fn members_of(&self, v: VertexId) -> &[VertexId] {
        self.groups.members_of(v)
    }

    /// Whether `v` is *duplicated*: its meta-vertex has more than one member.
    pub fn is_duplicated(&self, v: VertexId) -> bool {
        self.size_of(v) > 1
    }

    /// Size of the meta-vertex containing `v`.
    pub fn size_of(&self, v: VertexId) -> usize {
        self.members_of(v).len()
    }

    /// Number of distinct meta-vertices in the graph.
    pub fn count(&self) -> usize {
        self.groups.count()
    }

    /// Whether any meta-vertex branches (multiple copying): some member has
    /// two or more copy-children, i.e. the meta-vertex is a tree, not a chain.
    pub fn has_multiple_copying<V: CdagView>(&self, g: &V) -> bool {
        let mut succs = Vec::new();
        self.groups.grouped().iter().any(|&v| {
            succs.clear();
            g.succs_into(v, &mut succs);
            let root = self.groups.label(v);
            succs
                .iter()
                .filter(|&&s| self.groups.label(s) == root)
                .count()
                >= 2
        })
    }

    /// The meta-closure of `set`: every member of every meta-vertex `set`
    /// touches, sorted and deduplicated. Costs O(|closure| log |closure|).
    pub fn closure(&self, set: &[VertexId]) -> Vec<VertexId> {
        self.groups.closure(set)
    }

    /// Fills `out` with the meta-vertices adjacent to `closure` (a sorted
    /// meta-closure, as [`MetaVertices::closure`] returns) and not in it,
    /// sorted. Walks only the closure's adjacency: O(|closure|·deg ·
    /// log |closure|), independent of |V|.
    pub fn closure_boundary_into<V: CdagView>(
        &self,
        g: &V,
        closure: &[VertexId],
        out: &mut Vec<MetaId>,
    ) {
        self.groups.boundary_into(g, closure, |r| MetaId(r.0), out);
    }

    /// Meta-vertices adjacent to the meta-closure of `set` that are not in it
    /// — the paper's `δ'(S')` (Definition 1, meta form). `set` is given as
    /// vertices; its meta-closure is taken automatically.
    pub fn meta_boundary<V: CdagView>(&self, g: &V, set: &[VertexId]) -> Vec<MetaId> {
        let mut out = Vec::new();
        self.closure_boundary_into(g, &self.closure(set), &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::BaseGraph;
    use crate::build::build_cdag;
    use crate::graph::Layer;
    use mmio_matrix::{Matrix, Rational};

    fn r_(n: i64) -> Rational {
        Rational::integer(n)
    }

    fn classical2() -> BaseGraph {
        let n0 = 2;
        let mut enc_a = Matrix::zeros(8, 4);
        let mut enc_b = Matrix::zeros(8, 4);
        let mut dec = Matrix::zeros(4, 8);
        let mut m = 0;
        for i in 0..n0 {
            for j in 0..n0 {
                for k in 0..n0 {
                    enc_a[(m, i * n0 + k)] = r_(1);
                    enc_b[(m, k * n0 + j)] = r_(1);
                    dec[(i * n0 + j, m)] = r_(1);
                    m += 1;
                }
            }
        }
        BaseGraph::new("classical2", n0, enc_a, enc_b, dec)
    }

    /// A 1×1 base graph with no copying at all: every row is nontrivial
    /// (scaled), kept correct by compensating in the decoder:
    /// c = (2a)(3b)·(1/6).
    fn no_copy() -> BaseGraph {
        BaseGraph::new(
            "scaled",
            1,
            Matrix::from_vec(1, 1, vec![r_(2)]),
            Matrix::from_vec(1, 1, vec![r_(3)]),
            Matrix::from_vec(1, 1, vec![Rational::new(1, 6)]),
        )
    }

    #[test]
    fn classical_has_full_copying() {
        // Every classical encoding row is trivial: rank-1 vertices are all
        // copies of inputs, and every input is copied to 2 products.
        let g = build_cdag(&classical2(), 1);
        let meta = MetaVertices::compute(&g);
        for v in g.inputs() {
            assert!(meta.is_duplicated(v));
            assert_eq!(meta.size_of(v), 3, "input + 2 copies");
            assert_eq!(meta.root_vertex(meta.meta_of(v)), v);
        }
        assert!(meta.has_multiple_copying(&g));
    }

    #[test]
    fn no_copy_graph_has_singletons() {
        let g = build_cdag(&no_copy(), 2);
        let meta = MetaVertices::compute(&g);
        for v in g.vertices() {
            assert_eq!(meta.size_of(v), 1);
            assert_eq!(meta.meta_of(v), MetaId(v.0));
        }
        assert!(!meta.has_multiple_copying(&g));
        assert_eq!(meta.count(), g.n_vertices());
    }

    #[test]
    fn meta_count_consistency() {
        let g = build_cdag(&classical2(), 2);
        let meta = MetaVertices::compute(&g);
        let total: usize = g
            .vertices()
            .filter(|&v| meta.root_vertex(meta.meta_of(v)) == v)
            .map(|v| meta.size_of(v))
            .sum();
        assert_eq!(total, g.n_vertices());
    }

    #[test]
    fn copies_transitive_through_levels() {
        // classical2 at r=2: encoding rank-2 vertices whose two base rows are
        // both trivial are copies-of-copies; their root must be an input.
        let g = build_cdag(&classical2(), 2);
        let meta = MetaVertices::compute(&g);
        for v in g.segment(Layer::EncA, 2) {
            let root = meta.root_vertex(meta.meta_of(v));
            assert!(g.is_input(root), "root of a copy chain must be the input");
        }
    }

    #[test]
    fn meta_boundary_of_everything_is_empty() {
        let g = build_cdag(&classical2(), 1);
        let meta = MetaVertices::compute(&g);
        let all: Vec<_> = g.vertices().collect();
        assert!(meta.meta_boundary(&g, &all).is_empty());
    }

    #[test]
    fn meta_boundary_of_single_product() {
        let g = build_cdag(&classical2(), 1);
        let meta = MetaVertices::compute(&g);
        let p = g.products().next().unwrap();
        let boundary = meta.meta_boundary(&g, &[p]);
        // Product 0 = a00·b00 → c00: adjacent metas are input-a00's meta,
        // input-b00's meta, and the output c00.
        assert_eq!(boundary.len(), 3);
    }
}
