//! Equivalence oracle for the distinct-hop routing verifier.
//!
//! `verify` decides each distinct hop of a routing certificate once on
//! `G_k`, and once per Fact-1 copy on `G_r`, in first-occurrence order. The
//! reference below is the earlier per-path walk, unchanged apart from living
//! outside the crate: it re-probes every hop of every path on `G_k`, then
//! lifts and re-probes every hop of every path into every copy. It is slow
//! but plainly correct. Every case must give byte-identical
//! `Verdict::to_json()` — rejection codes, order and detail strings.
//!
//! Cases: strassen, winograd and classical at k ∈ {1, 2}, k ≤ r ≤ 4, each
//! with its mutation battery, seeded single-hop corruptions and prefix
//! lies; plus one hand-built certificate pinning that the first non-edge in
//! path order is the one reported.

use std::collections::BTreeMap;

use mmio_cdag::hits::HitCounter;
use mmio_cdag::BaseGraph;
use mmio_cert::codes;
use mmio_cert::format::{Payload, RoutingPayload};
use mmio_cert::verify::Rejection;
use mmio_cert::view::{check_tensor, checked_pow, view_of, IndexView, ViewError};
use mmio_cert::{mutate, verify, Certificate, Verdict, FORMAT_VERSION};
use mmio_core::transport::{emit_certificate, RoutingClass};
use mmio_parallel::Pool;

// ---------------------------------------------------------------------
// Reference: the per-path routing walk.
// ---------------------------------------------------------------------

const MAX_WALK_VERTICES: u64 = 1 << 26;
const MAX_TRANSPORT_WORK: u64 = 1 << 26;
const MAX_PATHS: u64 = 1 << 24;
const MAX_DETAILS_PER_CODE: u64 = 8;

struct Ctx {
    rejections: Vec<Rejection>,
    counts: BTreeMap<String, u64>,
}

impl Ctx {
    fn reject(&mut self, code: &str, detail: impl Into<String>) {
        let n = self.counts.entry(code.to_string()).or_insert(0);
        *n += 1;
        if *n <= MAX_DETAILS_PER_CODE {
            self.rejections.push(Rejection {
                code: code.to_string(),
                detail: detail.into(),
            });
        }
    }

    fn finish(mut self, format_version: u64, kind: &str, algo: &str) -> Verdict {
        for (code, n) in &self.counts {
            if *n > MAX_DETAILS_PER_CODE {
                self.rejections.push(Rejection {
                    code: code.clone(),
                    detail: format!("… and {} more", n - MAX_DETAILS_PER_CODE),
                });
            }
        }
        Verdict {
            format_version,
            kind: kind.to_string(),
            algo: algo.to_string(),
            accepted: self.rejections.is_empty(),
            rejections: self.rejections,
        }
    }
}

/// The verdict the per-path walk gives a routing certificate.
fn reference(cert: &Certificate) -> Verdict {
    let Payload::Routing(p) = &cert.payload else {
        panic!("the oracle covers routing certificates only");
    };
    let mut ctx = Ctx {
        rejections: Vec::new(),
        counts: BTreeMap::new(),
    };
    if cert.version != FORMAT_VERSION {
        ctx.reject(
            codes::V_VERSION,
            format!(
                "certificate has format version {}, verifier supports {FORMAT_VERSION}",
                cert.version
            ),
        );
    } else {
        reference_routing(cert, p, &mut ctx);
    }
    ctx.finish(cert.version as u64, "routing", &cert.base.name)
}

fn build_view(cert: &Certificate, r: u32, walk: bool, ctx: &mut Ctx) -> Option<IndexView> {
    let view = match view_of(&cert.base, r) {
        Ok(v) => v,
        Err(ViewError::Shape(e)) => {
            ctx.reject(codes::V_BASE_INVALID, e);
            return None;
        }
        Err(ViewError::Params(e)) => {
            ctx.reject(codes::V_PARAMS, e);
            return None;
        }
    };
    if walk && view.n_vertices() as u64 > MAX_WALK_VERTICES {
        ctx.reject(
            codes::V_PARAMS,
            format!(
                "G_{r} has {} vertices, above the verifier's walk ceiling",
                view.n_vertices()
            ),
        );
        return None;
    }
    if let Err(e) = check_tensor(&cert.base) {
        ctx.reject(codes::V_BASE_INVALID, e);
        return None;
    }
    Some(view)
}

fn reference_routing(cert: &Certificate, p: &RoutingPayload, ctx: &mut Ctx) {
    if p.k < 1 || p.k > p.r {
        ctx.reject(
            codes::V_PARAMS,
            format!("routing requires 1 ≤ k ≤ r, got k = {}, r = {}", p.k, p.r),
        );
        return;
    }
    let Some(kview) = build_view(cert, p.k, true, ctx) else {
        return;
    };
    let Some(rview) = build_view(cert, p.r, false, ctx) else {
        return;
    };
    let Some(ak) = checked_pow(kview.a() as u64, p.k) else {
        ctx.reject(codes::V_PARAMS, "a^k overflows the id space");
        return;
    };
    let Some(expected_paths) = ak.checked_mul(ak).and_then(|x| x.checked_mul(2)) else {
        ctx.reject(codes::V_PARAMS, "expected path count 2a^{2k} overflows");
        return;
    };
    if expected_paths > MAX_PATHS {
        ctx.reject(
            codes::V_PARAMS,
            format!("{expected_paths} paths exceed the verifier's ceiling"),
        );
        return;
    }

    let true_bound = 6 * ak;
    if p.bound != true_bound {
        ctx.reject(
            codes::V_ROUTE_BOUND,
            format!(
                "claimed bound {} but the Routing Theorem gives 6a^k = {true_bound}",
                p.bound
            ),
        );
    }
    if p.paths.len() as u64 != expected_paths {
        ctx.reject(
            codes::V_ROUTE_PATH_COUNT,
            format!(
                "{} paths, an in-out routing of G_{} has {expected_paths}",
                p.paths.len(),
                p.k
            ),
        );
    }

    let n_local = kview.n_vertices();
    let mut counter = HitCounter::with_groups(kview.copy_roots());
    let outputs = kview.outputs_count();
    let mut pair_seen = vec![false; expected_paths as usize];
    let mut preds = Vec::new();
    for (i, path) in p.paths.iter().enumerate() {
        if path.is_empty() {
            ctx.reject(codes::V_ROUTE_NON_EDGE, format!("path {i} is empty"));
            continue;
        }
        if let Some(&bad) = path.iter().find(|&&v| v >= n_local) {
            ctx.reject(
                codes::V_MALFORMED,
                format!("path {i} references vertex {bad}, G_{} has {n_local}", p.k),
            );
            continue;
        }
        let mut ok = true;
        for (j, w) in path.windows(2).enumerate() {
            let &[u, v] = w else { continue };
            preds.clear();
            kview.preds_into(v, &mut preds);
            let mut edge = preds.contains(&u);
            if !edge {
                preds.clear();
                kview.preds_into(u, &mut preds);
                edge = preds.contains(&v);
            }
            if !edge {
                ctx.reject(
                    codes::V_ROUTE_NON_EDGE,
                    format!("path {i} hop {j}: ({u}, {v}) is not an edge of G_{}", p.k),
                );
                ok = false;
                break;
            }
        }
        if !ok {
            continue;
        }
        let (Some(&s), Some(&t)) = (path.first(), path.last()) else {
            continue;
        };
        let pair = match (kview.input_ord(s), kview.output_ord(t)) {
            (Some(iord), Some(oord)) => Some((iord, oord)),
            _ => match (kview.input_ord(t), kview.output_ord(s)) {
                (Some(iord), Some(oord)) => Some((iord, oord)),
                _ => {
                    ctx.reject(
                        codes::V_ROUTE_PAIRS,
                        format!("path {i} endpoints ({s}, {t}) are not an input-output pair"),
                    );
                    None
                }
            },
        };
        if let Some((iord, oord)) = pair {
            let slot = (iord * outputs + oord) as usize;
            match pair_seen.get_mut(slot) {
                Some(true) => {
                    ctx.reject(
                        codes::V_ROUTE_PAIRS,
                        format!("pair (input {iord}, output {oord}) routed twice"),
                    );
                }
                Some(seen) => *seen = true,
                None => ctx.reject(
                    codes::V_ROUTE_PAIRS,
                    format!("pair (input {iord}, output {oord}) out of range"),
                ),
            }
        }
        counter.add_path(path.iter().copied());
    }
    let missing = pair_seen.iter().filter(|&&seen| !seen).count();
    if missing > 0 {
        ctx.reject(
            codes::V_ROUTE_PAIRS,
            format!("{missing} of {expected_paths} (input, output) pairs have no path"),
        );
    }

    let s = counter.summary();
    if s.max_vertex_hits > true_bound {
        let worst = counter.argmax_vertex().unwrap_or(0);
        ctx.reject(
            codes::V_ROUTE_VERTEX_OVERLOAD,
            format!(
                "vertex {worst} lies on {} paths, above the 6a^k = {true_bound} bound",
                s.max_vertex_hits
            ),
        );
    }
    if s.max_group_hits > true_bound {
        let worst = counter.argmax_group().unwrap_or(0);
        ctx.reject(
            codes::V_ROUTE_META_OVERLOAD,
            format!(
                "copy-group of vertex {worst} is hit by {} paths, above 6a^k = {true_bound}",
                s.max_group_hits
            ),
        );
    }
    if s.max_vertex_hits != p.max_vertex_hits || s.max_group_hits != p.max_meta_hits {
        ctx.reject(
            codes::V_ROUTE_CLAIM_MISMATCH,
            format!(
                "claimed hits (vertex {}, meta {}) but recount gives (vertex {}, meta {})",
                p.max_vertex_hits, p.max_meta_hits, s.max_vertex_hits, s.max_group_hits
            ),
        );
    }

    reference_transport(p, &kview, &rview, ctx);
}

fn reference_transport(p: &RoutingPayload, kview: &IndexView, rview: &IndexView, ctx: &mut Ctx) {
    let Some(copies) = checked_pow(kview.b() as u64, p.r - p.k) else {
        ctx.reject(codes::V_PARAMS, "b^{r-k} overflows the id space");
        return;
    };
    if p.copy_prefixes.len() as u64 != copies {
        ctx.reject(
            codes::V_ROUTE_TRANSPORT,
            format!(
                "{} transport prefixes, Fact 1 gives b^{{r-k}} = {copies} copies",
                p.copy_prefixes.len()
            ),
        );
    }
    let mut seen = vec![false; copies as usize];
    let mut prefixes_ok = Vec::new();
    for &prefix in &p.copy_prefixes {
        match usize::try_from(prefix).ok().and_then(|i| seen.get_mut(i)) {
            None => ctx.reject(
                codes::V_ROUTE_TRANSPORT,
                format!("prefix {prefix} out of range [0, {copies})"),
            ),
            Some(true) => ctx.reject(
                codes::V_ROUTE_TRANSPORT,
                format!("prefix {prefix} duplicated"),
            ),
            Some(s) => {
                *s = true;
                prefixes_ok.push(prefix);
            }
        }
    }

    let work = (prefixes_ok.len() as u64).saturating_mul(p.paths.len() as u64);
    if work > MAX_TRANSPORT_WORK {
        ctx.reject(
            codes::V_PARAMS,
            format!("transport re-walk of {work} path-copies exceeds the verifier's ceiling"),
        );
        return;
    }
    let n_local = kview.n_vertices();
    let mut preds = Vec::new();
    for &prefix in &prefixes_ok {
        let mut bad = false;
        for path in &p.paths {
            if path.is_empty() || path.iter().any(|&v| v >= n_local) {
                continue;
            }
            for w in path.windows(2) {
                let &[hu, hv] = w else { continue };
                let (Some(lu), Some(lv)) =
                    (rview.lift(kview, prefix, hu), rview.lift(kview, prefix, hv))
                else {
                    ctx.reject(
                        codes::V_ROUTE_TRANSPORT,
                        format!("prefix {prefix}: hop ({hu}, {hv}) does not lift into G_r"),
                    );
                    bad = true;
                    break;
                };
                preds.clear();
                rview.preds_into(lv, &mut preds);
                let mut edge = preds.contains(&lu);
                if !edge {
                    preds.clear();
                    rview.preds_into(lu, &mut preds);
                    edge = preds.contains(&lv);
                }
                if !edge {
                    ctx.reject(
                        codes::V_ROUTE_TRANSPORT,
                        format!(
                            "prefix {prefix}: lifted hop ({lu}, {lv}) is not an edge of G_{}",
                            p.r
                        ),
                    );
                    bad = true;
                    break;
                }
            }
            if bad {
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Cases.
// ---------------------------------------------------------------------

/// SplitMix64: a seeded, dependency-free stream for the corruptions.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn routing_mut(cert: &mut Certificate) -> &mut RoutingPayload {
    match &mut cert.payload {
        Payload::Routing(p) => p,
        other => panic!("expected a routing payload, got {}", other.kind()),
    }
}

fn assert_same(cert: &Certificate, what: &str) {
    let got = verify(cert).to_json();
    let want = reference(cert).to_json();
    assert_eq!(got, want, "{what}");
}

/// Seeded single-hop corruptions of `cert`: a vertex replaced, a hop
/// reversed, a path truncated, an out-of-range id.
fn hop_corruptions(cert: &Certificate, n_local: u32, rng: &mut Rng) -> Vec<(String, Certificate)> {
    let Payload::Routing(p) = &cert.payload else {
        unreachable!("routing certificates only")
    };
    let i = rng.below(p.paths.len());
    let len = p.paths[i].len();
    let (j, hop, keep) = (rng.below(len), rng.below(len - 1), rng.below(len));
    let (w, far) = (
        rng.below(n_local as usize) as u32,
        n_local + rng.below(4) as u32,
    );
    let with_path = |edit: &dyn Fn(&mut Vec<u32>)| {
        let mut c = cert.clone();
        edit(&mut routing_mut(&mut c).paths[i]);
        c
    };
    vec![
        (
            format!("path {i} vertex {j} replaced by {w}"),
            with_path(&|path| path[j] = w),
        ),
        (
            format!("path {i} hop {hop} reversed"),
            with_path(&|path| path.swap(hop, hop + 1)),
        ),
        (
            format!("path {i} truncated to {keep}"),
            with_path(&|path| path.truncate(keep)),
        ),
        (
            format!("path {i} vertex {j} set to {far}"),
            with_path(&|path| path[j] = far),
        ),
    ]
}

/// Prefix lies: a duplicated prefix, an out-of-range prefix, a missing
/// prefix.
fn prefix_lies(cert: &Certificate, copies: u64, rng: &mut Rng) -> Vec<(String, Certificate)> {
    let Payload::Routing(p) = &cert.payload else {
        unreachable!("routing certificates only")
    };
    let n = p.copy_prefixes.len();
    let (dup, at, gone) = (rng.below(n), rng.below(n), rng.below(n));
    let far = copies + rng.below(3) as u64;
    let with_prefixes = |edit: &dyn Fn(&mut Vec<u64>)| {
        let mut c = cert.clone();
        edit(&mut routing_mut(&mut c).copy_prefixes);
        c
    };
    vec![
        (
            format!("prefix slot {dup} duplicated"),
            with_prefixes(&|ps| ps.push(ps[dup])),
        ),
        (
            format!("prefix slot {at} set to {far}"),
            with_prefixes(&|ps| ps[at] = far),
        ),
        (
            format!("prefix slot {gone} missing"),
            with_prefixes(&|ps| {
                ps.remove(gone);
            }),
        ),
    ]
}

/// Every routing certificate of `base` at k ∈ {1, 2}, k ≤ r ≤ 4, clean
/// and corrupted, must get the reference verdict byte for byte.
fn assert_matches_reference(base: &BaseGraph, seed: u64) {
    let pool = Pool::new(1);
    let mut rng = Rng(seed);
    let mut cases = 0usize;
    for k in [1u32, 2] {
        let class = RoutingClass::build(base, k, &pool)
            .unwrap_or_else(|| panic!("{} routes at k = {k}", base.name()));
        let n_local = view_of(&mmio_cert::format::BaseSpec::from_base(base), k)
            .unwrap()
            .n_vertices();
        for r in k..=4 {
            let cert = emit_certificate(&class, r);
            let name = format!("{} k={k} r={r}", base.name());
            assert!(verify(&cert).accepted, "{name}: clean certificate rejected");
            assert_same(&cert, &name);
            let copies = (base.b() as u64).pow(r - k);
            let corrupt = mutate::mutants_for(&cert)
                .into_iter()
                .map(|m| (m.name.to_string(), m.cert))
                .chain(hop_corruptions(&cert, n_local, &mut rng))
                .chain(prefix_lies(&cert, copies, &mut rng));
            for (what, c) in corrupt {
                assert_same(&c, &format!("{name}: {what}"));
                cases += 1;
            }
        }
    }
    // 7 instances × (7 mutants + 4 hop corruptions + 3 prefix lies).
    assert!(cases >= 7 * 14, "only {cases} corrupted cases ran");
}

#[test]
fn strassen_matches_per_path_walk() {
    assert_matches_reference(&mmio_algos::strassen::strassen(), 0x5eed_0001);
}

#[test]
fn winograd_matches_per_path_walk() {
    assert_matches_reference(&mmio_algos::strassen::winograd(), 0x5eed_0002);
}

#[test]
fn classical_matches_per_path_walk() {
    assert_matches_reference(&mmio_algos::classical::classical(2), 0x5eed_0003);
}

#[test]
fn first_non_edge_in_path_order_is_reported() {
    let pool = Pool::new(1);
    let base = mmio_algos::strassen::strassen();
    let class = RoutingClass::build(&base, 1, &pool).unwrap();
    let mut cert = emit_certificate(&class, 2);
    // Two self-hops (never edges): the earlier path carries the larger
    // vertex, so sorted hop order and path order disagree.
    let p = routing_mut(&mut cert);
    let hop1 = |i: usize| p.paths[i][1];
    let (early, late) = (0..p.paths.len())
        .flat_map(|i| (i + 1..p.paths.len()).map(move |j| (i, j)))
        .find(|&(i, j)| hop1(i) > hop1(j))
        .expect("two paths whose second vertices are out of order");
    let (x, y) = (hop1(early), hop1(late));
    p.paths[early][2] = x;
    p.paths[late][2] = y;

    let v = verify(&cert);
    assert_eq!(v.to_json(), reference(&cert).to_json());
    let details = |code: &str| -> Vec<&str> {
        v.rejections
            .iter()
            .filter(|r| r.code == code)
            .map(|r| r.detail.as_str())
            .collect()
    };
    assert_eq!(
        details(codes::V_ROUTE_NON_EDGE),
        [
            format!("path {early} hop 1: ({x}, {x}) is not an edge of G_1"),
            format!("path {late} hop 1: ({y}, {y}) is not an edge of G_1"),
        ]
    );
    let spec = mmio_cert::format::BaseSpec::from_base(&base);
    let (kview, rview) = (view_of(&spec, 1).unwrap(), view_of(&spec, 2).unwrap());
    let transport = details(codes::V_ROUTE_TRANSPORT);
    let lx = rview.lift(&kview, 0, x).unwrap();
    assert_eq!(
        transport.first().copied(),
        Some(format!("prefix 0: lifted hop ({lx}, {lx}) is not an edge of G_2").as_str())
    );
}
