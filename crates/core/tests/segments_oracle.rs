//! Equivalence oracles for the closure-local segment analysis.
//!
//! `segments::analyze_with` and `MetaVertices::meta_boundary` work on each
//! segment's sorted meta-closure and never touch all of V. The reference
//! below is the earlier mask-based implementation, unchanged apart from
//! `members_of` now returning a slice: it allocates and scans a |V|
//! membership mask per segment, which is slow but plainly correct. Every case must produce identical `SegmentAnalysis`
//! JSON across the registry, random topological orders and counted sets,
//! several thresholds, both views and 1, 2 and 8 threads.
//!
//! The same file checks the CSR meta-vertex table against a naive
//! `HashMap` grouping, and `ValueClasses::class_boundary` against its
//! mask-based reference.

use mmio_algos::registry::all_base_graphs;
use mmio_algos::strassen::strassen;
use mmio_algos::synthetic::with_duplicated_combination;
use mmio_cdag::build::build_cdag;
use mmio_cdag::meta::MetaId;
use mmio_cdag::values::{ClassId, ValueClasses};
use mmio_cdag::view::count_vertices;
use mmio_cdag::{BaseGraph, Cdag, CdagView, IndexView, MetaVertices, VertexId};
use mmio_core::segments::{analyze_with, SegmentAnalysis, SegmentReport};
use mmio_parallel::Pool;
use mmio_pebble::orders::random_topo_order;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Largest graph a case materializes: the reference costs
/// O(segments·|V|), so cases stay small.
const MAX_VERTICES: u64 = 3_000;

/// `base` at the deepest `r ≤ r_max` (at least 1) within [`MAX_VERTICES`].
fn capped(base: &BaseGraph, r_max: u32) -> Cdag {
    let (a, b) = (base.a() as u64, base.b() as u64);
    let r = (1..=r_max)
        .rev()
        .find(|&r| count_vertices(a, b, r).is_some_and(|n| n <= MAX_VERTICES))
        .unwrap_or(1);
    build_cdag(base, r)
}

// ---------------------------------------------------------------------
// Reference: the mask-based segment analysis.
// ---------------------------------------------------------------------

/// Meta-vertices adjacent to the meta-closure of `set` that are not in it.
fn reference_meta_boundary<V: CdagView>(
    meta: &MetaVertices,
    g: &V,
    set: &[VertexId],
) -> Vec<MetaId> {
    let mut in_set = vec![false; g.n_vertices()];
    // Meta-closure: mark every member of every touched meta-vertex.
    for &v in set {
        for &m in meta.members_of(v) {
            in_set[m.idx()] = true;
        }
    }
    let mut seen = std::collections::HashSet::new();
    let mut adj = Vec::new();
    for i in 0..in_set.len() as u32 {
        if !in_set[i as usize] {
            continue;
        }
        adj.clear();
        g.preds_into(VertexId(i), &mut adj);
        g.succs_into(VertexId(i), &mut adj);
        for &w in &adj {
            if !in_set[w.idx()] {
                seen.insert(meta.meta_of(w));
            }
        }
    }
    let mut out: Vec<MetaId> = seen.into_iter().collect();
    out.sort();
    out
}

/// One segment's boundary and I/O quantities, over a |V| closure mask.
fn reference_segment_report<V: CdagView>(
    g: &V,
    meta: &MetaVertices,
    pos: &[u64],
    vs: &[VertexId],
    (start, end, counted_n, complete): (usize, usize, u64, bool),
) -> SegmentReport {
    // Meta-closure membership mask.
    let mut in_closure = vec![false; g.n_vertices()];
    for &v in vs {
        for &w in meta.members_of(v) {
            in_closure[w.idx()] = true;
        }
    }
    // δ'(S'): outside metas adjacent in either direction (Equation 2).
    let boundary = reference_meta_boundary(meta, g, vs).len() as u64;
    // R'(S'): outside metas feeding vertices computed in this segment.
    let mut read_roots = std::collections::HashSet::new();
    let mut adj: Vec<VertexId> = Vec::new();
    for &v in vs {
        adj.clear();
        g.preds_into(v, &mut adj);
        for &p in &adj {
            if !in_closure[p.idx()] {
                read_roots.insert(meta.meta_of(p));
            }
        }
    }
    // W°(S'): metas whose root is computed in this segment and that are
    // used after it or contain an output.
    let end_pos = end as u64;
    let mut write_roots = std::collections::HashSet::new();
    for &v in vs {
        let root = meta.root_vertex(meta.meta_of(v));
        let rp = pos[root.idx()];
        if rp == u64::MAX || rp < start as u64 || rp >= end_pos {
            continue; // root is an input or computed in another segment
        }
        let needed_later = meta.members_of(root).iter().any(|&member| {
            if g.is_output(member) {
                return true;
            }
            adj.clear();
            g.succs_into(member, &mut adj);
            adj.iter()
                .any(|&s| pos[s.idx()] != u64::MAX && pos[s.idx()] >= end_pos)
        });
        if needed_later {
            write_roots.insert(meta.meta_of(root));
        }
    }
    SegmentReport {
        start,
        end,
        counted: counted_n,
        meta_boundary: boundary,
        read_metas: read_roots.len() as u64,
        write_metas: write_roots.len() as u64,
        complete,
    }
}

/// The serial mask-based analysis.
fn reference_analyze<V: CdagView>(
    g: &V,
    meta: &MetaVertices,
    order: &[VertexId],
    counted: &[bool],
    m: u64,
    threshold: u64,
    k: u32,
) -> SegmentAnalysis {
    let n = g.n_vertices();
    let mut pos = vec![u64::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        pos[v.idx()] = i as u64;
    }
    let mut bounds: Vec<(usize, usize, u64, bool)> = Vec::new();
    let mut start = 0usize;
    let mut counted_in_segment = 0u64;
    let mut counted_seen = vec![false; n];
    for (i, &v) in order.iter().enumerate() {
        for &w in meta.members_of(v) {
            if counted[w.idx()] && !counted_seen[w.idx()] {
                counted_seen[w.idx()] = true;
                counted_in_segment += 1;
            }
        }
        if counted_in_segment >= threshold {
            bounds.push((start, i + 1, counted_in_segment, true));
            start = i + 1;
            counted_in_segment = 0;
        }
    }
    if start < order.len() {
        bounds.push((start, order.len(), counted_in_segment, false));
    }
    let segments: Vec<SegmentReport> = bounds
        .iter()
        .map(|&b| reference_segment_report(g, meta, &pos, &order[b.0..b.1], b))
        .collect();
    let complete_segments = segments.iter().filter(|s| s.complete).count() as u64;
    let certified_io = segments
        .iter()
        .map(|s| s.read_metas.saturating_sub(m) + s.write_metas.saturating_sub(m))
        .sum();
    SegmentAnalysis {
        k,
        m,
        threshold,
        segments,
        complete_segments,
        certified_io,
    }
}

/// Class-closure boundary of `set`, over a |V| mask.
fn reference_class_boundary(vc: &ValueClasses, g: &Cdag, set: &[VertexId]) -> Vec<ClassId> {
    let mut in_set = vec![false; g.n_vertices()];
    for &v in set {
        for &w in vc.members_of(v) {
            in_set[w.idx()] = true;
        }
    }
    let mut seen = std::collections::HashSet::new();
    for v in g.vertices() {
        if !in_set[v.idx()] {
            continue;
        }
        for &w in g.preds(v).iter().chain(g.succs(v)) {
            if !in_set[w.idx()] {
                seen.insert(vc.class_of(w));
            }
        }
    }
    let mut out: Vec<ClassId> = seen.into_iter().collect();
    out.sort();
    out
}

// ---------------------------------------------------------------------
// Segment analysis: closure-local ≡ reference.
// ---------------------------------------------------------------------

/// Runs the reference once and the fast analysis on both views at 1, 2
/// and 8 threads, comparing JSON. `counted_pct` is the share of vertices
/// counted; `m` the cache size.
fn check_analysis(g: &Cdag, seed: u64, threshold: u64, counted_pct: u32, m: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let order = random_topo_order(g, &mut rng);
    let counted: Vec<bool> = (0..g.n_vertices())
        .map(|_| rng.gen_range(0..100u32) < counted_pct)
        .collect();
    let meta = MetaVertices::compute(g);
    let expected = serde_json::to_string(&reference_analyze(
        g, &meta, &order, &counted, m, threshold, 1,
    ))
    .unwrap();
    let view = IndexView::from_base(g.base(), g.r());
    let view_meta = MetaVertices::compute_view(&view);
    for threads in [1, 2, 8] {
        let pool = Pool::new(threads);
        let explicit = analyze_with(g, &meta, &order, &counted, m, threshold, 1, &pool);
        let implicit = analyze_with(&view, &view_meta, &order, &counted, m, threshold, 1, &pool);
        let ctx = format!(
            "{} r={} seed={seed} threshold={threshold} threads={threads}",
            g.base().name(),
            g.r()
        );
        assert_eq!(
            serde_json::to_string(&explicit).unwrap(),
            expected,
            "{ctx} explicit"
        );
        assert_eq!(
            serde_json::to_string(&implicit).unwrap(),
            expected,
            "{ctx} implicit"
        );
    }
}

#[test]
fn every_registry_algorithm_matches_reference() {
    for (i, base) in all_base_graphs().iter().enumerate() {
        let g = capped(base, 4);
        for (j, threshold) in [1u64, 7, 40].into_iter().enumerate() {
            check_analysis(&g, (i * 3 + j) as u64, threshold, 30, 2);
        }
    }
}

proptest! {
    #[test]
    fn closure_local_analysis_matches_reference(
        (base_idx, r, threshold, seed) in (0..all_base_graphs().len(), 1u32..=4, 1u64..64, 0u64..1_000_000),
    ) {
        let base = &all_base_graphs()[base_idx];
        let g = capped(base, r);
        check_analysis(&g, seed, threshold, 5 + (seed % 60) as u32, seed % 9);
    }
}

// ---------------------------------------------------------------------
// The CSR meta-vertex table against a naive grouping.
// ---------------------------------------------------------------------

/// Root → members (ascending), by following copy parents one vertex at a
/// time.
fn naive_groups<V: CdagView>(g: &V) -> HashMap<VertexId, Vec<VertexId>> {
    let mut groups: HashMap<VertexId, Vec<VertexId>> = HashMap::new();
    for i in 0..g.n_vertices() as u32 {
        let mut root = VertexId(i);
        while let Some(p) = g.copy_parent(root) {
            root = p;
        }
        groups.entry(root).or_default().push(VertexId(i));
    }
    groups
}

fn check_csr<V: CdagView>(g: &V, meta: &MetaVertices, seed: u64) {
    let groups = naive_groups(g);
    let n = g.n_vertices();
    assert_eq!(groups.values().map(Vec::len).sum::<usize>(), n);
    assert_eq!(meta.count(), groups.len());
    let mut sizes = 0;
    for (&root, members) in &groups {
        assert_eq!(members[0], root, "root first");
        assert!(members.windows(2).all(|w| w[0] < w[1]), "members ascend");
        sizes += meta.size_of(root);
        for &v in members {
            assert_eq!(meta.members_of(v), members.as_slice());
            assert_eq!(meta.meta_of(v), MetaId(root.0));
            assert_eq!(meta.root_vertex(meta.meta_of(v)), root);
            assert_eq!(meta.size_of(v), members.len());
            assert_eq!(meta.is_duplicated(v), members.len() > 1);
        }
    }
    assert_eq!(sizes, n, "sizes over the roots sum to |V|");
    // The closure of a random set is the sorted union of its groups.
    let mut rng = StdRng::seed_from_u64(seed);
    let set: Vec<VertexId> = (0..8)
        .map(|_| VertexId(rng.gen_range(0..n as u32)))
        .collect();
    let mut union: Vec<VertexId> = set
        .iter()
        .map(|&v| meta.meta_of(v))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .flat_map(|m| groups[&meta.root_vertex(m)].iter().copied())
        .collect();
    union.sort_unstable();
    assert_eq!(meta.closure(&set), union);
}

#[test]
fn csr_meta_table_matches_naive_grouping() {
    for (i, base) in all_base_graphs().iter().enumerate() {
        let g = capped(base, 3);
        check_csr(&g, &MetaVertices::compute(&g), i as u64);
        let view = IndexView::from_base(base, g.r());
        check_csr(&view, &MetaVertices::compute_view(&view), i as u64);
    }
}

proptest! {
    #[test]
    fn meta_boundary_matches_reference(
        (base_idx, r, len, seed) in (0..all_base_graphs().len(), 1u32..=3, 1usize..40, 0u64..1_000_000),
    ) {
        let g = capped(&all_base_graphs()[base_idx], r);
        let meta = MetaVertices::compute(&g);
        let mut rng = StdRng::seed_from_u64(seed);
        let set: Vec<VertexId> = (0..len)
            .map(|_| VertexId(rng.gen_range(0..g.n_vertices() as u32)))
            .collect();
        prop_assert_eq!(meta.meta_boundary(&g, &set), reference_meta_boundary(&meta, &g, &set));
    }
}

// ---------------------------------------------------------------------
// Value classes: closure-local class boundary ≡ reference.
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn class_boundary_matches_reference(
        (duplicated, r, len, seed) in (0u32..2, 1u32..=3, 1usize..40, 0u64..1_000_000),
    ) {
        let base = if duplicated == 1 {
            with_duplicated_combination(&strassen())
        } else {
            strassen()
        };
        let g = capped(&base, r);
        let vc = ValueClasses::compute(&g);
        let mut rng = StdRng::seed_from_u64(seed);
        let set: Vec<VertexId> = (0..len)
            .map(|_| VertexId(rng.gen_range(0..g.n_vertices() as u32)))
            .collect();
        prop_assert_eq!(vc.class_boundary(&g, &set), reference_class_boundary(&vc, &g, &set));
    }
}
