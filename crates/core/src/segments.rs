//! The segment argument (Sections 5 and 6): partition any computation
//! order into segments with enough *counted* vertices, show each segment
//! has a large meta-boundary, and convert boundary size into an I/O
//! certificate.
//!
//! Counted vertices (the set `S̄`) are those on decoding rank `k` and
//! encoding rank `r-k` (both sides) lying in the chosen mutually
//! input-disjoint subcomputations. The paper chooses `k` as the smallest
//! integer with `a^k ≥ 72M` and segments with `|S̄| = 36M`, then proves
//! `|δ'(S')| ≥ |S̄|/12 ≥ 3M`, of which at most `2M` can be free (already in
//! cache / allowed to stay), so each complete segment costs at least `M`
//! I/Os.

use mmio_cdag::meta::MetaId;
use mmio_cdag::{index, Cdag, CdagView, Layer, MetaVertices, VertexId, VertexRef};
use mmio_parallel::Pool;
use serde::Serialize;

/// The paper's choice of subcomputation depth for cache size `m`
/// (Section 6): smallest `k` with `a^k ≥ multiplier·m`, clamped into
/// `[1, r-2]` (the clamp is reported so callers can tell when `m` was too
/// large for this `r` and the asymptotic regime is not yet reached).
///
/// The paper uses `multiplier = 72` and notes it "did not optimize for the
/// constant factor"; smaller multipliers give certificates at smaller
/// scales (the ablation bench sweeps this).
pub fn choose_k<V: CdagView>(g: &V, m: u64, multiplier: u64) -> (u32, bool) {
    let a = g.a();
    let mut k = 1u32;
    while index::pow(a, k) < multiplier * m && k < 63 {
        k += 1;
    }
    if g.r() >= 3 && k <= g.r() - 2 {
        (k, true)
    } else {
        (1.min(g.r()), false)
    }
}

/// Membership mask of the counted ranks: encoding rank `r-k` (both sides)
/// and decoding rank `k`, restricted to subcomputations in `chosen`.
///
/// The counted vertices of subcomputation `i` are written in closed form
/// (the Fact-1 copy's `2a^k` inputs on encoding rank `r-k` and `a^k`
/// outputs on decoding rank `k`, `mul = i`), so this works over any
/// [`CdagView`] without materializing the graph.
pub fn counted_mask<V: CdagView>(g: &V, k: u32, chosen: &[u64]) -> Vec<bool> {
    let mut mask = vec![false; g.n_vertices()];
    let ak = index::pow(g.a(), k);
    let r = g.r();
    for &prefix in chosen {
        for layer in [Layer::EncA, Layer::EncB] {
            for entry in 0..ak {
                let v = g
                    .try_id(VertexRef {
                        layer,
                        level: r - k,
                        mul: prefix,
                        entry,
                    })
                    .expect("subcomputation input in range");
                mask[v.idx()] = true;
            }
        }
        for entry in 0..ak {
            let v = g
                .try_id(VertexRef {
                    layer: Layer::Dec,
                    level: k,
                    mul: prefix,
                    entry,
                })
                .expect("subcomputation output in range");
            mask[v.idx()] = true;
        }
    }
    mask
}

/// One segment's report.
#[derive(Clone, Debug, Serialize)]
pub struct SegmentReport {
    /// Segment bounds as indices into the compute order (`start..end`).
    pub start: usize,
    /// Exclusive end index.
    pub end: usize,
    /// `|S̄|`: counted vertices computed in this segment.
    pub counted: u64,
    /// `|δ'(S')|`: meta-vertices adjacent to the segment's meta-closure
    /// (the paper's Equation 2 quantity).
    pub meta_boundary: u64,
    /// `|R'(S')|`: meta-vertices outside the closure feeding it — each must
    /// be in cache during the segment (≤ M free, the rest loaded).
    pub read_metas: u64,
    /// `|W°(S')|`: meta-vertices *created* in this segment (root computed
    /// here) and needed after it — each must survive the segment (≤ M may
    /// stay cached, the rest stored). Disjoint across segments, so the
    /// per-segment charges sum soundly.
    pub write_metas: u64,
    /// Whether the segment is complete (reached the threshold).
    pub complete: bool,
}

/// Whole-run segment analysis.
#[derive(Clone, Debug, Serialize)]
pub struct SegmentAnalysis {
    /// Depth `k` used for counting.
    pub k: u32,
    /// Cache size the analysis certifies against.
    pub m: u64,
    /// Segment threshold `|S̄| ≥ 36M` (or caller-chosen).
    pub threshold: u64,
    /// Per-segment reports.
    pub segments: Vec<SegmentReport>,
    /// Number of complete segments.
    pub complete_segments: u64,
    /// The certified I/O lower bound
    /// `Σ_segments max(0, |R'| − M) + max(0, |W°| − M)`.
    pub certified_io: u64,
}

/// Partitions `order` into minimal segments each containing `threshold`
/// counted vertices (meta-closure included in `S`), computes `δ'(S')`,
/// `R'(S')`, and `W°(S')` per segment, and accumulates the I/O certificate.
///
/// The certificate charges, per segment: every meta-vertex read from
/// outside the closure beyond the `M` that may already sit in cache (one
/// load each), and every meta-vertex created in the segment and needed
/// later beyond the `M` that may remain in cache (one store each —
/// creation segments are unique per meta, so the charges are disjoint
/// I/O events).
pub fn analyze<V: CdagView + Sync>(
    g: &V,
    meta: &MetaVertices,
    order: &[VertexId],
    counted: &[bool],
    m: u64,
    threshold: u64,
    k: u32,
) -> SegmentAnalysis {
    analyze_with(g, meta, order, counted, m, threshold, k, &Pool::serial())
}

/// One segment's boundary and I/O quantities. `vs = order[start..end]` is
/// the segment's computed vertices; `pos` maps every vertex to its position
/// in the order (`u32::MAX` for inputs).
///
/// Works on the segment's sorted meta-closure only: membership is a binary
/// search in it, so the cost is O(|closure|·deg·log |closure|) with no |V|
/// term.
fn segment_report<V: CdagView>(
    g: &V,
    meta: &MetaVertices,
    pos: &[u32],
    vs: &[VertexId],
    (start, end, counted_n, complete): (usize, usize, u64, bool),
) -> SegmentReport {
    let closure = meta.closure(vs);
    let outside = |w: &VertexId| closure.binary_search(w).is_err();
    // One buffer collects, in turn, each of the three meta sets.
    let mut metas: Vec<MetaId> = Vec::new();
    // δ'(S'): outside metas adjacent in either direction (Equation 2).
    meta.closure_boundary_into(g, &closure, &mut metas);
    let boundary = metas.len() as u64;
    // R'(S'): outside metas feeding vertices *computed in this
    // segment*. (Not the whole closure: a closure member computed in an
    // earlier segment needed its operands then, not now — charging them
    // again here would double-count loads and break soundness.)
    metas.clear();
    let mut adj: Vec<VertexId> = Vec::new();
    for &v in vs {
        adj.clear();
        g.preds_into(v, &mut adj);
        metas.extend(adj.iter().filter(|p| outside(p)).map(|&p| meta.meta_of(p)));
    }
    metas.sort_unstable();
    metas.dedup();
    let read_metas = metas.len() as u64;
    // W°(S'): metas whose root is computed in this segment and that are
    // used after it (some member has a successor computed at position
    // ≥ end) or contain an output (which must eventually be stored).
    let (start_pos, end_pos) = (start as u32, end as u32);
    metas.clear();
    // Skip roots that are inputs (`u32::MAX`) or computed in another
    // segment, then scan each remaining meta-vertex once.
    metas.extend(
        vs.iter()
            .map(|&v| meta.meta_of(v))
            .filter(|&m| (start_pos..end_pos).contains(&pos[meta.root_vertex(m).idx()])),
    );
    metas.sort_unstable();
    metas.dedup();
    metas.retain(|&m| {
        meta.members_of(meta.root_vertex(m)).iter().any(|&member| {
            if g.is_output(member) {
                return true;
            }
            adj.clear();
            g.succs_into(member, &mut adj);
            adj.iter()
                .any(|&s| pos[s.idx()] != u32::MAX && pos[s.idx()] >= end_pos)
        })
    });
    SegmentReport {
        start,
        end,
        counted: counted_n,
        meta_boundary: boundary,
        read_metas,
        write_metas: metas.len() as u64,
        complete,
    }
}

/// [`analyze`] with the per-segment reports computed over `pool`.
///
/// Two phases: the segment *boundaries* come from a serial scan of the
/// order (the running counted-vertex counter is inherently sequential), and
/// then each segment's report — meta-closure, `δ'(S')`, `R'(S')`, `W°(S')`,
/// the expensive part — is computed independently. [`Pool::map`] returns
/// results in segment order, so the analysis is byte-identical to the
/// serial path at any thread count.
#[allow(clippy::too_many_arguments)] // mirrors `analyze`, plus the pool
pub fn analyze_with<V: CdagView + Sync>(
    g: &V,
    meta: &MetaVertices,
    order: &[VertexId],
    counted: &[bool],
    m: u64,
    threshold: u64,
    k: u32,
    pool: &Pool,
) -> SegmentAnalysis {
    let n = g.n_vertices();
    // Position of each vertex's computation; inputs get position MAX-as-
    // "before everything" sentinel handled separately. Positions fit in
    // `u32` because vertex ids do.
    let mut pos = vec![u32::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        pos[v.idx()] = i as u32;
    }

    // Phase 1 (serial): find the segment boundaries.
    let mut bounds: Vec<(usize, usize, u64, bool)> = Vec::new();
    let mut start = 0usize;
    let mut counted_in_segment = 0u64;
    let mut counted_seen = vec![false; n];
    for (i, &v) in order.iter().enumerate() {
        // Meta-closure: count every not-yet-counted counted-rank member of
        // v's meta-vertex.
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

    // Phase 2 (parallel): per-segment reports, merged in segment order.
    let segments = pool.map(bounds.len(), |i| {
        let b = bounds[i];
        segment_report(g, meta, &pos, &order[b.0..b.1], b)
    });

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

/// Convenience: the number of counted-rank vertices available in total
/// (`3·a^k·b^{r-k}` before restriction, less after).
pub fn counted_total(counted: &[bool]) -> u64 {
    counted.iter().filter(|&&c| c).count() as u64
}

/// The Section 5 variant of the argument, exactly as stated for Strassen:
/// count only decoding-rank-`k` vertices (no subcomputation restriction
/// needed — the decoding graph has no copying, Lemma 2), segment at
/// `|S̄| = threshold`, and lower-bound the *vertex-level* boundary
/// `|δ(S)| ≥ |S̄|/22` per complete segment (Equation 1 with the paper's
/// constants; the 1/22 comes from the `11·7^k` routing).
///
/// Returns per-segment `(counted, |δ(S)|)` pairs for complete segments.
pub fn analyze_section5(g: &Cdag, order: &[VertexId], k: u32, threshold: u64) -> Vec<(u64, u64)> {
    // Counted mask: decoding rank k.
    let mut counted = vec![false; g.n_vertices()];
    for v in g.segment(Layer::Dec, k) {
        counted[v.idx()] = true;
    }
    let mut out = Vec::new();
    let mut segment: Vec<VertexId> = Vec::new();
    let mut counted_in_segment = 0u64;
    for &v in order {
        segment.push(v);
        if counted[v.idx()] {
            counted_in_segment += 1;
        }
        if counted_in_segment >= threshold {
            let mask = crate::boundary::mask_of(g, &segment);
            let delta = crate::boundary::boundary_size(g, &mask) as u64;
            out.push((counted_in_segment, delta));
            segment.clear();
            counted_in_segment = 0;
        }
    }
    out
}

/// Section 5's choice of `k` for Strassen-like graphs: smallest `k` with
/// `a^k ≥ multiplier·m` (the paper uses 132 = 2·66).
pub fn choose_k_section5(g: &Cdag, m: u64, multiplier: u64) -> u32 {
    let a = g.base().a();
    let mut k = 1u32;
    while index::pow(a, k) < multiplier * m && k < g.r() {
        k += 1;
    }
    k.min(g.r())
}

/// Sanity helper: all counted vertices must lie on the three counted ranks.
pub fn counted_ranks_only<V: CdagView>(g: &V, k: u32, counted: &[bool]) -> bool {
    (0..g.n_vertices() as u32).all(|i| {
        if !counted[i as usize] {
            return true;
        }
        let vr: VertexRef = g.try_vref(VertexId(i)).expect("id in range");
        match vr.layer {
            Layer::EncA | Layer::EncB => vr.level == g.r() - k,
            Layer::Dec => vr.level == k,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lemma1::select_input_disjoint;
    use mmio_algos::strassen::strassen;
    use mmio_cdag::build::build_cdag;
    use mmio_pebble::orders;

    fn setup(r: u32, k: u32) -> (Cdag, MetaVertices, Vec<bool>) {
        let g = build_cdag(&strassen(), r);
        let meta = MetaVertices::compute(&g);
        let chosen = select_input_disjoint(&g, &meta, k);
        let counted = counted_mask(&g, k, &chosen);
        (g, meta, counted)
    }

    #[test]
    fn counted_mask_is_on_counted_ranks() {
        let (g, _meta, counted) = setup(3, 1);
        assert!(counted_ranks_only(&g, 1, &counted));
        assert!(counted_total(&counted) > 0);
    }

    #[test]
    fn segments_partition_the_order() {
        let (g, meta, counted) = setup(3, 1);
        let order = orders::recursive_order(&g);
        let analysis = analyze(&g, &meta, &order, &counted, 2, 24, 1);
        // Segments tile the order.
        let mut expected_start = 0;
        for s in &analysis.segments {
            assert_eq!(s.start, expected_start);
            assert!(s.end > s.start);
            expected_start = s.end;
        }
        assert_eq!(expected_start, order.len());
        // All but possibly the last are complete with exactly-threshold
        // counted vertices (meta closure can overshoot only when one step
        // adds several counted vertices at once).
        for s in &analysis.segments[..analysis.segments.len() - 1] {
            assert!(s.complete);
            assert!(s.counted >= 24);
        }
    }

    #[test]
    fn paper_inequality_delta_ge_counted_over_12() {
        // Equation 2: |δ'(S')| ≥ |S̄|/12 for every segment, any order.
        let (g, meta, counted) = setup(3, 1);
        for order in [orders::recursive_order(&g), orders::rank_order(&g)] {
            let analysis = analyze(&g, &meta, &order, &counted, 2, 24, 1);
            for s in analysis.segments.iter().filter(|s| s.complete) {
                assert!(
                    s.meta_boundary * 12 >= s.counted,
                    "segment {}..{}: δ'={} < {}/12",
                    s.start,
                    s.end,
                    s.meta_boundary,
                    s.counted
                );
            }
        }
    }

    #[test]
    fn parallel_analysis_is_thread_count_invariant() {
        let (g, meta, counted) = setup(3, 1);
        let order = orders::recursive_order(&g);
        let serial = analyze(&g, &meta, &order, &counted, 2, 24, 1);
        for threads in [2, 8] {
            let pool = Pool::new(threads);
            let par = analyze_with(&g, &meta, &order, &counted, 2, 24, 1, &pool);
            assert_eq!(
                serde_json::to_string(&serial).unwrap(),
                serde_json::to_string(&par).unwrap(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn certificate_nonnegative_and_monotone_in_segments() {
        let (g, meta, counted) = setup(3, 1);
        let order = orders::recursive_order(&g);
        let coarse = analyze(&g, &meta, &order, &counted, 2, 48, 1);
        let fine = analyze(&g, &meta, &order, &counted, 2, 24, 1);
        assert!(fine.complete_segments >= coarse.complete_segments);
    }

    #[test]
    fn section5_boundaries_satisfy_equation1() {
        // Strassen, any order: |δ(S)| ≥ |S̄|/22 per complete segment.
        let g = build_cdag(&strassen(), 4);
        for order in [orders::recursive_order(&g), orders::rank_order(&g)] {
            let k = choose_k_section5(&g, 1, 4); // a^k ≥ 4
            let segments = analyze_section5(&g, &order, k, 8);
            assert!(!segments.is_empty());
            for (counted, delta) in segments {
                assert!(
                    delta * 22 >= counted,
                    "Equation 1 violated: δ={delta} counted={counted}"
                );
            }
        }
    }

    #[test]
    fn section5_k_choice() {
        let g = build_cdag(&strassen(), 6);
        // a=4, M=1, multiplier 132: 4^4 = 256 ≥ 132 > 64.
        assert_eq!(choose_k_section5(&g, 1, 132), 4);
    }

    #[test]
    fn choose_k_matches_formula() {
        let g = build_cdag(&strassen(), 6);
        // a=4: a^k ≥ 72M. M=1 → 72 → k=4 (4^4=256 ≥ 72 > 64=4^3).
        let (k, ok) = choose_k(&g, 1, 72);
        assert!(ok);
        assert_eq!(k, 4);
        // M large: k would exceed r-2, fallback flagged.
        let (_k2, ok2) = choose_k(&g, 1_000_000, 72);
        assert!(!ok2);
        // Smaller multiplier admits smaller graphs.
        let g2 = build_cdag(&strassen(), 3);
        let (k3, ok3) = choose_k(&g2, 2, 2);
        assert!(ok3);
        assert_eq!(k3, 1);
    }
}
