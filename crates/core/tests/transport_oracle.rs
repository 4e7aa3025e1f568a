//! Equivalence oracle for the transported-routing engine.
//!
//! `transport::verify_transported` builds one `RoutingClass` per
//! `(algo, k)` and transports it into every Fact-1 copy of `G_k` in `G_r`
//! by index arithmetic. The reference below is the pre-engine path,
//! unchanged: for every copy it rebuilds `G_k`, re-derives the Hall
//! matchings and chain router, materializes each path as its own `Vec`,
//! transports it vertex by vertex and re-walks the transported edges
//! against `G_r`. Both must agree on every verified quantity.

use mmio_algos::strassen::{strassen, winograd};
use mmio_cdag::build::build_cdag;
use mmio_cdag::fact1::Subcomputation;
use mmio_cdag::{BaseGraph, Cdag, MetaVertices};
use mmio_core::deps::{unpack_entry, DepSide};
use mmio_core::routing::VertexHitCounter;
use mmio_core::theorem2::InOutRouting;
use mmio_core::transport::{verify_transported, RoutingClass, TransportReport};
use mmio_parallel::Pool;

/// The pre-engine verification path, preserved verbatim as the oracle:
/// for every copy, rebuild `G_k`, re-derive the Hall matchings and chain
/// router, materialize each path as its own `Vec`, transport it vertex by
/// vertex, and re-walk the transported edges against `G_r`.
fn baseline_sweep(g: &Cdag, base: &BaseGraph, k: u32) -> TransportReport {
    let copies = Subcomputation::count(g, k);
    let (mut max_v, mut max_m, mut violations) = (0u64, 0u64, 0u64);
    let (mut paths_per_copy, mut bound) = (0u64, 0u64);
    let mut uniform = true;
    let mut first: Option<(u64, u64)> = None;
    for prefix in 0..copies {
        let gk = build_cdag(base, k);
        let routing = InOutRouting::new(&gk).expect("Hall matching exists");
        let meta = MetaVertices::compute(&gk);
        let sub = Subcomputation::new(g, k, prefix);
        let mut counter = VertexHitCounter::new(&gk, Some(&meta));
        let (n0, ak) = (base.n0(), mmio_cdag::index::pow(base.a(), k));
        for side in [DepSide::A, DepSide::B] {
            for in_e in 0..ak {
                for out_e in 0..ak {
                    let (ir, ic) = unpack_entry(in_e, n0, k);
                    let (or_, oc) = unpack_entry(out_e, n0, k);
                    let path = routing.path(side, ir, ic, or_, oc);
                    counter.add_path(&path);
                    let global: Vec<_> = path
                        .iter()
                        .map(|&v| sub.local_to_global(gk.vref(v)))
                        .collect();
                    for w in global.windows(2) {
                        if !(g.preds(w[1]).contains(&w[0]) || g.succs(w[1]).contains(&w[0])) {
                            violations += 1;
                        }
                    }
                }
            }
        }
        let stats = counter.stats();
        max_v = max_v.max(stats.max_vertex_hits);
        max_m = max_m.max(stats.max_meta_hits);
        paths_per_copy = stats.paths;
        bound = routing.theorem2_bound();
        match &first {
            None => first = Some((stats.max_vertex_hits, stats.max_meta_hits)),
            Some(f) => uniform &= *f == (stats.max_vertex_hits, stats.max_meta_hits),
        }
    }
    TransportReport {
        k,
        copies,
        paths_per_copy,
        bound,
        max_vertex_hits: max_v,
        max_meta_hits: max_m,
        edge_violations: violations,
        uniform,
    }
}

#[test]
fn transport_engine_matches_per_copy_rederivation() {
    let cases = [
        (strassen(), 1, 3),
        (strassen(), 1, 4),
        (strassen(), 2, 4),
        (winograd(), 1, 3),
    ];
    for (base, k, r) in &cases {
        let ctx = format!("{} k={k} r={r}", base.name());
        let g = build_cdag(base, *r);
        let oracle = baseline_sweep(&g, base, *k);
        let pool = Pool::new(2);
        let class = RoutingClass::build(base, *k, &pool).expect("Hall matching exists");
        let engine = verify_transported(&g, &class, &pool);
        assert_eq!(format!("{engine:?}"), format!("{oracle:?}"), "{ctx}");
        assert!(
            engine.verified() && engine.edge_violations == 0,
            "{ctx}: {engine:?}"
        );
    }
}
