//! The batch commands, run the way `mmio` runs them.
//!
//! Each command calls the same public functions the `mmio` CLI calls, in the
//! same order, and renders the same bytes; goldens pinned from the CLI check
//! that on every sample. Where the CLI picks a graph view, the command uses
//! the CLI's default policy (`ops::use_implicit` with `ViewMode::Auto`).
//!
//! With tracing on, the same command runs with a span around each public
//! call, so the traced output is reassembled from the phase calls. Certify
//! is the one command whose untraced form is a single call
//! (`ops::certify_text`); its traced form makes the calls that function
//! makes, one by one.

use crate::proc::Report;
use crate::trace::Trace;
use mmio_cdag::build::build_cdag;
use mmio_cdag::index::pow;
use mmio_cdag::{BaseGraph, CdagView, IndexView, MetaVertices};
use mmio_core::theorem1::{CertifyParams, LowerBound};
use mmio_core::theorem2::InOutRouting;
use mmio_core::transport::{verify_transported, verify_transported_view, RoutingClass};
use mmio_core::{lemma1, segments};
use mmio_parallel::distsim::{MachineModel, Topology};
use mmio_parallel::Pool;
use mmio_pebble::orders::recursive_order;
use mmio_pebble::policy::Belady;
use mmio_pebble::{AutoScheduler, ViewGraph};
use mmio_serve::ops::{self, use_implicit, ViewMode};
use std::path::{Path, PathBuf};

/// Where `cert emit` writes, relative to the child's working directory.
pub const CERT_DIR: &str = "certs";

/// One batch command with its arguments (the algorithm is passed apart).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmd {
    /// `mmio certify A r m`
    Certify { r: u32, m: u64 },
    /// `mmio routing A k r`
    Routing { k: u32, r: u32 },
    /// `mmio cert emit A r --out certs`
    CertEmit { r: u32 },
    /// `mmio cert verify certs` (after `CertEmit { r }`)
    CertVerify { r: u32 },
    /// `mmio simulate A r m`
    Simulate { r: u32, m: usize },
    /// `mmio distsim A r --procs p [--assign subtree] --topo torus`
    Distsim { r: u32, p: u32, subtree: bool },
    /// Resolve the algorithm and exit: the per-process set-up cost.
    Noop,
}

impl Cmd {
    /// The end-to-end metric this command's wall time adds to.
    pub fn metric(self) -> &'static str {
        match self {
            Cmd::Certify { .. } => "certify_s",
            Cmd::Routing { .. } => "routing_s",
            Cmd::CertEmit { .. } => "cert_emit_s",
            Cmd::CertVerify { .. } => "cert_verify_s",
            Cmd::Simulate { .. } => "simulate_s",
            Cmd::Distsim { .. } => "distsim_s",
            Cmd::Noop => "setup_s",
        }
    }

    /// The golden file stem, e.g. `certify_7_64`.
    pub fn golden_name(self) -> String {
        match self {
            Cmd::Certify { r, m } => format!("certify_{r}_{m}"),
            Cmd::Routing { k, r } => format!("routing_{k}_{r}"),
            Cmd::CertEmit { r } => format!("cert_emit_{r}"),
            Cmd::CertVerify { r } => format!("cert_verify_{r}"),
            Cmd::Simulate { r, m } => format!("simulate_{r}_{m}"),
            Cmd::Distsim { r, p, subtree } => {
                format!(
                    "distsim_{r}_{p}_{}",
                    if subtree { "subtree" } else { "cyclic" }
                )
            }
            Cmd::Noop => "noop".into(),
        }
    }

    /// The `mmio` command line this stands for.
    pub fn cli(self, algo: &str) -> String {
        match self {
            Cmd::Certify { r, m } => format!("certify {algo} {r} {m}"),
            Cmd::Routing { k, r } => format!("routing {algo} {k} {r}"),
            Cmd::CertEmit { r } => format!("cert emit {algo} {r} --out {CERT_DIR}"),
            Cmd::CertVerify { .. } => format!("cert verify {CERT_DIR}"),
            Cmd::Simulate { r, m } => format!("simulate {algo} {r} {m}"),
            Cmd::Distsim { r, p, subtree } => format!(
                "distsim {algo} {r} --procs {p}{} --topo torus",
                if subtree { " --assign subtree" } else { "" }
            ),
            Cmd::Noop => format!("(start-up, {algo})"),
        }
    }

    /// Encodes the command as child-process arguments.
    pub fn to_args(self) -> Vec<String> {
        let v: Vec<u64> = match self {
            Cmd::Certify { r, m } => vec![0, r.into(), m],
            Cmd::Routing { k, r } => vec![1, k.into(), r.into()],
            Cmd::CertEmit { r } => vec![2, r.into()],
            Cmd::CertVerify { r } => vec![3, r.into()],
            Cmd::Simulate { r, m } => vec![4, r.into(), m as u64],
            Cmd::Distsim { r, p, subtree } => vec![5, r.into(), p.into(), subtree.into()],
            Cmd::Noop => vec![6],
        };
        v.iter().map(u64::to_string).collect()
    }

    /// Decodes [`Cmd::to_args`].
    pub fn from_args(args: &[String]) -> Option<Cmd> {
        let v: Vec<u64> = args.iter().map(|a| a.parse().ok()).collect::<Option<_>>()?;
        let u = |i: usize| -> Option<u32> { u32::try_from(*v.get(i)?).ok() };
        Some(match *v.first()? {
            0 => Cmd::Certify {
                r: u(1)?,
                m: *v.get(2)?,
            },
            1 => Cmd::Routing { k: u(1)?, r: u(2)? },
            2 => Cmd::CertEmit { r: u(1)? },
            3 => Cmd::CertVerify { r: u(1)? },
            4 => Cmd::Simulate {
                r: u(1)?,
                m: usize::try_from(*v.get(2)?).ok()?,
            },
            5 => Cmd::Distsim {
                r: u(1)?,
                p: u(2)?,
                subtree: *v.get(3)? == 1,
            },
            6 => Cmd::Noop,
            _ => return None,
        })
    }
}

/// Runs `cmd` on `base` and returns the bytes `mmio` prints.
pub fn run(
    cmd: Cmd,
    base: &BaseGraph,
    pool: &Pool,
    t: &mut Trace,
    rep: &mut Report,
) -> Result<String, String> {
    match cmd {
        Cmd::Certify { r, m } => Ok(if t.enabled() {
            certify_traced(base, r, m, pool, t, rep)
        } else {
            ops::certify_text(base, r, m, ViewMode::Auto, pool)
        }),
        Cmd::Routing { k, r } => routing(base, k, r, pool, t, rep),
        Cmd::CertEmit { r } => cert_emit(base, r, pool, t, rep),
        Cmd::CertVerify { .. } => cert_verify(t, rep),
        Cmd::Simulate { r, m } => Ok(simulate(base, r, m, t, rep)),
        Cmd::Distsim { r, p, subtree } => distsim(base, r, p, subtree, pool, t, rep),
        Cmd::Noop => Ok(String::new()),
    }
}

fn certify_traced(
    base: &BaseGraph,
    r: u32,
    m: u64,
    pool: &Pool,
    t: &mut Trace,
    rep: &mut Report,
) -> String {
    t.span("certify", |t| {
        if use_implicit(ViewMode::Auto, base, r) {
            let v = rep.phase_rss("certify.graph", || {
                t.span("certify.graph", |_| IndexView::from_base(base, r))
            });
            certify_phases(base, &v, m, pool, t, rep)
        } else {
            let g = rep.phase_rss("certify.graph", || {
                t.span("certify.graph", |_| build_cdag(base, r))
            });
            certify_phases(base, &g, m, pool, t, rep)
        }
    })
}

/// The calls `certify_pooled_view` makes, one span each, rendered as
/// `ops::certify_text` renders the certificate.
fn certify_phases<V: CdagView + Sync>(
    base: &BaseGraph,
    g: &V,
    m: u64,
    pool: &Pool,
    t: &mut Trace,
    rep: &mut Report,
) -> String {
    let params = CertifyParams::SMALL;
    let order = t.span("certify.order", |_| recursive_order(g));
    let meta = t.span("certify.meta", |_| MetaVertices::compute_view(g));
    let (k, k_feasible, chosen) = t.span("certify.lemma1", |_| {
        let (k, feasible) = segments::choose_k(g, m, params.k_multiplier);
        (k, feasible, lemma1::select_input_disjoint(g, &meta, k))
    });
    let counted = t.span("certify.mask", |_| segments::counted_mask(g, k, &chosen));
    let threshold = params.threshold_multiplier * m;
    let analysis = rep.phase_rss("certify.segments", || {
        t.span("certify.segments", |_| {
            segments::analyze_with(g, &meta, &order, &counted, m, threshold, k, pool)
        })
    });
    rep.count("certify.vertices", g.n_vertices() as f64);
    rep.count("certify.segments", analysis.segments.len() as f64);
    let n = pow(base.n0(), g.r());
    let lemma1_target = if k + 2 <= g.r() {
        pow(base.b(), g.r() - k - 2)
    } else {
        0
    };
    format!(
        "n = {}, M = {m}: {} complete segments, certified I/O ≥ {}\n\
         (k = {}, feasible = {}, disjoint subcomputations = {} ≥ target {})\n",
        n,
        analysis.complete_segments,
        analysis.certified_io,
        k,
        k_feasible,
        chosen.len(),
        lemma1_target
    )
}

fn routing(
    base: &BaseGraph,
    k: u32,
    r: u32,
    pool: &Pool,
    t: &mut Trace,
    rep: &mut Report,
) -> Result<String, String> {
    t.span("routing", |t| {
        let g = t.span("routing.gk", |_| build_cdag(base, k));
        let stats = t.span("routing.theorem2", |_| {
            let routing = InOutRouting::new(&g)
                .ok_or("no n₀-capacity Hall matching (paper hypotheses fail)")?;
            let stats = routing.verify_with(pool);
            Ok::<_, String>((routing.theorem2_bound(), stats))
        });
        let (bound, stats) = stats?;
        let mut out = format!(
            "6a^k = {}: {} paths, max vertex hits {}, max meta hits {} → {}\n",
            bound,
            stats.paths,
            stats.max_vertex_hits,
            stats.max_meta_hits,
            if stats.is_m_routing(bound) {
                "VERIFIED"
            } else {
                "VIOLATED"
            }
        );
        let class = t
            .span("routing.class_build", |_| {
                RoutingClass::build(base, k, pool)
            })
            .ok_or("no routing class")?;
        let tr = if use_implicit(ViewMode::Auto, base, r) {
            let gr = t.span("routing.graph", |_| IndexView::from_base(base, r));
            t.span("routing.transport", |_| {
                verify_transported_view(&gr, &class, pool)
            })
        } else {
            let gr = t.span("routing.graph", |_| build_cdag(base, r));
            t.span("routing.transport", |_| {
                verify_transported(&gr, &class, pool)
            })
        };
        rep.count(&format!("routing.copies.r{r}"), tr.copies as f64);
        rep.count("routing.copies", tr.copies as f64);
        rep.count("routing.paths", (tr.copies * tr.paths_per_copy) as f64);
        out += &format!(
            "transported into G_{r}: {} copies × {} paths, max hits {}/{} \
             (bound {}), edge violations {}, uniform {} → {}\n",
            tr.copies,
            tr.paths_per_copy,
            tr.max_vertex_hits,
            tr.max_meta_hits,
            tr.bound,
            tr.edge_violations,
            tr.uniform,
            if tr.verified() {
                "VERIFIED"
            } else {
                "VIOLATED"
            }
        );
        Ok(out)
    })
}

/// `mmio cert emit A r --out certs`: the CLI's `emit_certs_for`, call for
/// call, then the writes and the summary lines.
fn cert_emit(
    base: &BaseGraph,
    r: u32,
    pool: &Pool,
    t: &mut Trace,
    rep: &mut Report,
) -> Result<String, String> {
    use mmio_pebble::cert::{emit_schedule_certificate, emit_sweep_certificate};
    use mmio_pebble::sweep::{sweep, PolicySpec};

    t.span("cert_emit", |t| {
        let out_dir = PathBuf::from(CERT_DIR);
        std::fs::create_dir_all(&out_dir).map_err(|e| format!("{CERT_DIR}: {e}"))?;
        let name = base.name();
        let implicit = use_implicit(ViewMode::Auto, base, r);
        let mut certs = Vec::new();

        let routing_k = r.min(if base.a() >= 16 { 1 } else { 2 }).max(1);
        let class = t.span("cert.class_build", |_| {
            RoutingClass::build(base, routing_k, pool)
        });
        if let Some(class) = class {
            let cert = t.span("cert.emit_routing", |_| {
                mmio_core::transport::emit_certificate(&class, r)
            });
            rep.count("cert.routing_copies", pow(base.b(), r - routing_k) as f64);
            certs.push((format!("{name}__routing_k{routing_k}_r{r}.json"), cert));
        }

        let mut sched_r = if base.b() > 30 { r.min(2) } else { r };
        if implicit {
            sched_r = sched_r.min(4);
        }
        let g = t.span("cert.graph", |_| build_cdag(base, sched_r));
        let need = g.vertices().map(|v| g.preds(v).len()).max().unwrap_or(1) + 1;
        let m = need + 4;
        let order = t.span("cert.order", |_| recursive_order(&g));
        let (_, sched) = t.span("cert.schedule", |_| {
            AutoScheduler::new(&g, m).run_recorded(&order, &mut Belady)
        });
        let cert = t.span("cert.emit_schedule", |_| {
            emit_schedule_certificate(&g, m, &sched)
        });
        certs.push((format!("{name}__schedule_r{sched_r}_m{m}.json"), cert));

        let ms = [2, need, 4 * need];
        let points = t.span("cert.sweep", |_| {
            sweep(&g, &[&order], &[PolicySpec::Lru], &ms, pool)
        });
        let cert = t.span("cert.emit_sweep", |_| {
            emit_sweep_certificate(&g, &PolicySpec::Lru, &points)
        });
        certs.push((format!("{name}__sweep_r{sched_r}.json"), cert));

        let mut out = String::new();
        for (file, cert) in &certs {
            let path = out_dir.join(file);
            let json = t.span("cert.render", |_| cert.to_json());
            rep.count("cert.bytes", json.len() as f64);
            t.span("cert.write", |_| std::fs::write(&path, json))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            out += &format!("wrote {}\n", path.display());
        }
        out += &format!("{} certificate(s) → {}\n", certs.len(), out_dir.display());
        Ok(out)
    })
}

/// `mmio cert verify certs`: every `*.json` in the directory, sorted,
/// through the standalone verifier.
fn cert_verify(t: &mut Trace, rep: &mut Report) -> Result<String, String> {
    t.span("cert_verify", |t| {
        let dir = Path::new(CERT_DIR);
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("{CERT_DIR}: {e}"))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        if files.is_empty() {
            return Err("no certificate files to verify".into());
        }
        let mut out = String::new();
        let mut rejected = 0usize;
        for path in &files {
            let text = t
                .span("cert.read", |_| std::fs::read_to_string(path))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            let file = path.display().to_string();
            let layer = ["routing", "schedule", "sweep"]
                .into_iter()
                .find(|k| file.contains(&format!("__{k}_")))
                .unwrap_or("other");
            let verdict = t.span(&format!("cert.verify_{layer}"), |_| {
                mmio_cert::verify_json(&text)
            });
            rep.count("cert.verified_bytes", text.len() as f64);
            if verdict.accepted {
                out += &format!(
                    "{}: ACCEPTED ({} {})\n",
                    path.display(),
                    verdict.kind,
                    verdict.algo
                );
            } else {
                rejected += 1;
                out += &format!("{}: REJECTED\n", path.display());
                for rej in &verdict.rejections {
                    out += &format!("  {}: {}\n", rej.code, rej.detail);
                }
            }
        }
        out += &format!(
            "cert verify: {}/{} accepted\n",
            files.len() - rejected,
            files.len()
        );
        if rejected > 0 {
            return Err(out);
        }
        Ok(out)
    })
}

fn simulate(base: &BaseGraph, r: u32, m: usize, t: &mut Trace, rep: &mut Report) -> String {
    t.span("simulate", |t| {
        let (stats, n_vertices) = if use_implicit(ViewMode::Auto, base, r) {
            let (v, vg) = t.span("pebble.viewgraph", |_| {
                let v = IndexView::from_base(base, r);
                let vg = ViewGraph::from_view(&v);
                (v, vg)
            });
            let order = t.span("pebble.order", |_| recursive_order(&v));
            let stats = t.span("pebble.schedule", |_| {
                AutoScheduler::new(&vg, m).run(&order, &mut Belady)
            });
            (stats, CdagView::n_vertices(&v))
        } else {
            let g = t.span("pebble.viewgraph", |_| build_cdag(base, r));
            let order = t.span("pebble.order", |_| recursive_order(&g));
            let stats = t.span("pebble.schedule", |_| {
                AutoScheduler::new(&g, m).run(&order, &mut Belady)
            });
            (stats, g.n_vertices())
        };
        rep.count("pebble.io", stats.io() as f64);
        rep.count("pebble.vertices", n_vertices as f64);
        let n = pow(base.n0(), r);
        let bound = LowerBound::new(base).sequential_io(n, m as u64);
        format!(
            "n = {n}, M = {m}: {} loads + {} stores = {} I/Os (Ω bound {:.0}, ratio {:.2})\n",
            stats.loads,
            stats.stores,
            stats.io(),
            bound,
            stats.io() as f64 / bound
        )
    })
}

fn distsim(
    base: &BaseGraph,
    r: u32,
    p: u32,
    subtree: bool,
    pool: &Pool,
    t: &mut Trace,
    rep: &mut Report,
) -> Result<String, String> {
    t.span("distsim", |t| {
        let machine = Some(MachineModel::new(Topology::parse("torus", p)?, 1, 1, 1));
        let assign_name = if subtree { "subtree" } else { "cyclic" };
        let (outcome, m) = if use_implicit(ViewMode::Auto, base, r) {
            let v = t.span("distsim.graph", |_| IndexView::from_base(base, r));
            distsim_on(&v, p, subtree, machine, pool, t)
        } else {
            let g = t.span("distsim.graph", |_| build_cdag(base, r));
            distsim_on(&g, p, subtree, machine, pool, t)
        };
        rep.count("distsim.total_words", outcome.run.total_words as f64);
        let mut out = format!(
            "{} r={r} P={p} M={m} assign={assign_name}: {} words moved, \
             critical path {}, local I/O max {} / total {}\n",
            base.name(),
            outcome.run.total_words,
            outcome.run.critical_path_words,
            outcome.run.max_local_io,
            outcome.run.total_local_io
        );
        if let Some(c) = &outcome.contention {
            rep.count("distsim.makespan", c.makespan as f64);
            out += &format!(
                "contended on {:?} (α={} β={} γ={}): makespan {} over {} round(s)\n",
                c.machine.topo,
                c.machine.alpha,
                c.machine.beta,
                c.machine.gamma,
                c.makespan,
                c.rounds.len()
            );
        }
        Ok(out)
    })
}

/// The CLI's `run_distsim` for the two assignments the workload uses. A
/// traced run also simulates once without the machine model (a probe), so
/// the contention model's own cost is the difference of the two.
fn distsim_on<V: CdagView + Sync>(
    g: &V,
    p: u32,
    subtree: bool,
    machine: Option<MachineModel>,
    pool: &Pool,
    t: &mut Trace,
) -> (mmio_parallel::distsim::DistOutcome, usize) {
    use mmio_parallel::assign;
    let a = t.span("distsim.assign", |_| {
        if subtree {
            assign::by_top_subproblem(g, p)
        } else {
            assign::cyclic_per_rank(g, p)
        }
    });
    let need = g.max_indegree() + 1;
    let m = need.max(16);
    let order = t.span("distsim.order", |_| recursive_order(g));
    if t.enabled() {
        t.probe("distsim.simulate", |_| {
            mmio_parallel::distsim::simulate_on(g, &a, &order, m, None, pool)
        });
    }
    let outcome = t.span("distsim.contended", |_| {
        mmio_parallel::distsim::simulate_on(g, &a, &order, m, machine, pool)
    });
    (outcome, m)
}

/// Entry point of a batch child: `threads traced algo cmd-args…`. Prints
/// the command's output on stdout and its report on stderr.
pub fn child_main(args: &[String]) -> i32 {
    let parsed = (|| {
        let threads: usize = args.first()?.parse().ok()?;
        let traced = args.get(1)? == "1";
        let base = ops::resolve_registry(args.get(2)?)?;
        let cmd = Cmd::from_args(&args[3..])?;
        Some((threads, traced, base, cmd))
    })();
    let Some((threads, traced, base, cmd)) = parsed else {
        eprintln!("perfbench child: bad arguments {args:?}");
        return 2;
    };
    let pool = Pool::new(threads);
    let mut t = if traced { Trace::new() } else { Trace::off() };
    let mut rep = Report::default();
    let result = run(cmd, &base, &pool, &mut t, &mut rep);
    let code = match result {
        Ok(text) => {
            print!("{text}");
            0
        }
        Err(e) => {
            print!("{e}");
            eprintln!("perfbench child: {} failed", cmd.cli(base.name()));
            1
        }
    };
    rep.spans = t.spans().to_vec();
    rep.vmhwm_kb = crate::proc::vmhwm_kb();
    eprint!("{}", rep.to_lines());
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_round_trip_through_child_arguments() {
        for cmd in [
            Cmd::Certify { r: 7, m: 64 },
            Cmd::Routing { k: 1, r: 7 },
            Cmd::CertEmit { r: 6 },
            Cmd::CertVerify { r: 6 },
            Cmd::Simulate { r: 7, m: 64 },
            Cmd::Distsim {
                r: 6,
                p: 256,
                subtree: true,
            },
            Cmd::Noop,
        ] {
            assert_eq!(Cmd::from_args(&cmd.to_args()), Some(cmd));
        }
        assert_eq!(Cmd::from_args(&["9".into()]), None);
        assert_eq!(Cmd::from_args(&["0".into(), "x".into()]), None);
    }

    #[test]
    fn traced_certify_reassembles_the_untraced_bytes() {
        let base = ops::resolve_registry("strassen").unwrap();
        let pool = Pool::new(2);
        let plain = ops::certify_text(&base, 3, 16, ViewMode::Auto, &pool);
        let mut t = Trace::new();
        let mut rep = Report::default();
        let traced = run(Cmd::Certify { r: 3, m: 16 }, &base, &pool, &mut t, &mut rep).unwrap();
        assert_eq!(plain, traced);
        let names: Vec<&str> = t.spans().iter().map(|s| s.name.as_str()).collect();
        for phase in ["graph", "order", "meta", "lemma1", "mask", "segments"] {
            assert!(
                names.contains(&format!("certify.{phase}").as_str()),
                "{names:?}"
            );
        }
        assert!(rep.get("certify.segments") > 0.0);
    }
}
