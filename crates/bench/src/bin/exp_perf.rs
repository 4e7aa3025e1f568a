//! P1–P5 — the performance sweeps behind the five `BENCH_*.json` records.
//!
//! Every workload is timed through [`mmio_bench::measure`] (one warm-up
//! run, then `REPEATS` timed runs: median, quartiles and peak RSS), and
//! every record has the one [`BenchRecord`] schema, printed to stdout by
//! [`render_table`]:
//!
//! - `BENCH_implicit.json` (P3): the routing-certificate emit at r = 8,
//!   and Theorem-1 certify on a materialized `Cdag` against `IndexView`.
//! - `BENCH_routing.json` (P1): the transported-routing engine at each
//!   thread count, and its per-copy cost as the copy count grows.
//! - `BENCH_pebble.json` (P2): the pebble engine against `auto::reference`
//!   over r × policy × M, and a pooled `pebble::sweep` by thread count.
//!   A full run requires ≥ 3× on the largest instance (Belady, largest M).
//! - `BENCH_distsim.json` (P5): the SoA distsim engine against
//!   `distsim::reference` (a full run requires ≥ 10×), and strong scaling
//!   over P against the memory-independent bound of arXiv:1202.3177.
//! - `BENCH_serve.json` (P4): serve load over the Unix socket, cold and
//!   warm, by client count.
//!
//! Thread and client counts are the powers of two up to the host's cores.
//! The engines' equivalence contracts (fast ≡ reference, pooled ≡ serial,
//! `Cdag` ≡ `IndexView`, serve ≡ batch) are tests, not checks made here.
//!
//! `MMIO_BENCH_SMOKE=1` runs reduced sizes and writes the records under
//! `target/bench-smoke/`, leaving the checked-in ones alone.

use mmio_algos::strassen::{strassen, winograd};
use mmio_bench::{
    measure, render_table, thread_grid, write_bench_record, BenchRecord, Row, REPEATS,
};
use mmio_cdag::build::build_cdag;
use mmio_cdag::view::count_vertices;
use mmio_cdag::{CdagView, IndexView};
use mmio_core::theorem1::{certify_pooled, CertifyParams, LowerBound};
use mmio_core::transport::{emit_certificate, verify_transported, RoutingClass};
use mmio_parallel::assign::cyclic_per_rank;
use mmio_parallel::distsim::{reference, simulate_on, MachineModel, Topology};
use mmio_parallel::Pool;
use mmio_pebble::auto::reference::ReferenceScheduler;
use mmio_pebble::auto::{AutoScheduler, RunOptions, SchedScratch};
use mmio_pebble::orders::{rank_order, recursive_order};
use mmio_pebble::sweep::{sweep, PolicySpec};
use mmio_serve::engine::{Engine, EngineConfig};
use mmio_serve::faults::NoFaults;
use mmio_serve::protocol::Status;
use mmio_serve::{Client, Server};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What every sweep is sized by.
struct Ctx {
    smoke: bool,
    cores: usize,
    threads: Vec<usize>,
}

/// A full-run timing gate: (what, speedup, the least speedup that passes).
type Gate = (&'static str, f64, f64);

/// A sweep's rows and, in a full run, its gate.
type Sweep = (Vec<Row>, Option<Gate>);

/// Adds the `{t}t` wall time of `work` at each thread count of the grid,
/// and returns the last result.
fn by_threads<T>(ctx: &Ctx, mut row: Row, mut work: impl FnMut(&Pool) -> T) -> (Row, T) {
    let mut last = None;
    for &t in &ctx.threads {
        let pool = Pool::new(t);
        let (out, s) = measure(|| work(&pool));
        row = row.time(&format!("{t}t"), &s);
        last = Some(out);
    }
    (row, last.expect("a non-empty thread grid"))
}

/// P1: class build plus Fact-1 transport and re-verification into every
/// copy, by thread count; then the per-copy transport cost as `r` grows.
fn routing(ctx: &Ctx) -> Sweep {
    let cases = if ctx.smoke {
        vec![(strassen(), 1, 3)]
    } else {
        vec![
            (strassen(), 1, 3),
            (strassen(), 1, 4),
            (strassen(), 2, 4),
            (winograd(), 1, 3),
        ]
    };
    let mut rows = Vec::new();
    for (base, k, r) in &cases {
        let g = build_cdag(base, *r);
        let row = Row::new(format!("{} k={k} r={r}", base.name()));
        let (row, report) = by_threads(ctx, row, |pool| {
            let class = RoutingClass::build(base, *k, pool).expect("Hall matching exists");
            verify_transported(&g, &class, pool)
        });
        rows.push(
            row.push("copies", report.copies as f64)
                .push("paths_per_copy", report.paths_per_copy as f64),
        );
    }
    let base = strassen();
    let serial = Pool::serial();
    let class = RoutingClass::build(&base, 1, &serial).expect("Hall matching exists");
    for r in 2..=if ctx.smoke { 3 } else { 4 } {
        let g = build_cdag(&base, r);
        let (report, s) = measure(|| verify_transported(&g, &class, &serial));
        rows.push(
            Row::new(format!("strassen k=1 r={r}"))
                .push("copies", report.copies as f64)
                .time("transport", &s)
                .push("us_per_copy", s.median_ms * 1e3 / report.copies as f64),
        );
    }
    (rows, None)
}

/// P2: the fast scheduler against `auto::reference` (single-threaded, so
/// the gain is algorithmic), then a pooled sweep grid by thread count.
fn pebble(ctx: &Ctx) -> Sweep {
    let base = strassen();
    let rs: &[u32] = if ctx.smoke { &[3, 4] } else { &[4, 5, 6] };
    let policies = [
        PolicySpec::Lru,
        PolicySpec::Belady,
        PolicySpec::Random { seed: 5 },
    ];
    let ms_grid = [8usize, 32, 128, 512];
    let mut rows = Vec::new();
    let mut headline = 0.0;
    for &r in rs {
        let g = build_cdag(&base, r);
        let n = g.n_vertices();
        let order = recursive_order(&g);
        let mut scratch = SchedScratch::new();
        scratch.prepare(&g, &order);
        for &spec in &policies {
            for &m in &ms_grid {
                let reference = ReferenceScheduler::new(&g, m);
                let (_, ref_s) = measure(|| reference.run(&order, spec.instantiate(n).as_mut()));
                let fast = AutoScheduler::new(&g, m);
                let (out, fast_s) = measure(|| {
                    let mut policy = spec.instantiate(n);
                    fast.run_prepared(&order, &mut scratch, policy.as_mut(), RunOptions::default())
                });
                let speedup = ref_s.median_ms / fast_s.median_ms;
                if r == rs[rs.len() - 1] && m == ms_grid[3] && spec == PolicySpec::Belady {
                    headline = speedup;
                }
                let c = out.counters;
                rows.push(
                    Row::new(format!("{} n={} M={m}", spec.name(), g.n()))
                        .push("io", out.stats.io() as f64)
                        .time("reference", &ref_s)
                        .time("fast", &fast_s)
                        .push("speedup", speedup)
                        .push("evictions", c.policy_evictions as f64)
                        .push("heap_pushes", c.heap_pushes as f64)
                        .push("stale_pops", c.stale_pops as f64)
                        .push("compactions", c.heap_compactions as f64)
                        .push("peak_heap", c.peak_heap_len as f64),
                );
            }
        }
    }
    let r = if ctx.smoke { 3 } else { 5 };
    let g = build_cdag(&base, r);
    let (rec, rank) = (recursive_order(&g), rank_order(&g));
    let orders: [&[_]; 2] = [&rec, &rank];
    let sweep_ms = [8usize, 32, 128];
    let points = orders.len() * policies.len() * sweep_ms.len();
    let row = Row::new(format!("sweep n={}", g.n())).push("points", points as f64);
    let (row, _) = by_threads(ctx, row, |pool| {
        sweep(&g, &orders, &policies, &sweep_ms, pool)
    });
    rows.push(row);
    let gate = ("pebble engine over auto::reference", headline, 3.0);
    (rows, (!ctx.smoke).then_some(gate))
}

/// P3: the r = 8 routing-certificate emit (`G_8` is never built), then the
/// Theorem-1 certify pipeline on each graph representation. Rows run
/// smallest-first so the RSS floor a row inherits comes from a smaller
/// workload.
fn certify(ctx: &Ctx) -> Sweep {
    let pool = Pool::new(ctx.cores);
    let base = strassen();
    let vertices = |a: usize, b: usize, r: u32| {
        count_vertices(a as u64, b as u64, r).expect("in u64 range") as f64
    };
    let (bytes, s) = measure(|| {
        let class = RoutingClass::build(&base, 2, &pool).expect("Hall matching exists");
        emit_certificate(&class, 8).to_json().len()
    });
    let mut rows = vec![Row::new("strassen emit r=8 k=2")
        .push("vertices", vertices(base.a(), base.b(), 8))
        .push("bytes", bytes as f64)
        .time("emit", &s)
        .rss("emit", &s)];
    let cases = if ctx.smoke {
        vec![(strassen(), 3), (strassen(), 4)]
    } else {
        let mut cases: Vec<_> = (3..=6)
            .flat_map(|r| [(strassen(), r), (winograd(), r)])
            .collect();
        cases.push((strassen(), 7));
        cases
    };
    let m = 64;
    for (base, r) in &cases {
        let (_, cdag) = measure(|| {
            let g = build_cdag(base, *r);
            let order = recursive_order(&g);
            certify_pooled(base, &g, m, &order, CertifyParams::SMALL, &pool)
        });
        let (_, view) = measure(|| {
            let v = IndexView::from_base(base, *r);
            let order = recursive_order(&v);
            certify_pooled(base, &v, m, &order, CertifyParams::SMALL, &pool)
        });
        rows.push(
            Row::new(format!("{} r={r} M={m}", base.name()))
                .push("vertices", vertices(base.a(), base.b(), *r))
                .time("cdag", &cdag)
                .rss("cdag", &cdag)
                .time("view", &view)
                .rss("view", &view),
        );
    }
    (rows, None)
}

/// P5: the SoA engine against the dense reference on the largest instance
/// both run, then untraced strong scaling on `IndexView` over a 2D torus.
fn distsim(ctx: &Ctx) -> Sweep {
    let pool = Pool::new(ctx.cores);
    let base = strassen();
    let (r, p) = if ctx.smoke { (3, 64) } else { (4, 512) };
    let g = build_cdag(&base, r);
    let order = recursive_order(&g);
    let m = (g.max_indegree() + 1).max(64);
    let a = cyclic_per_rank(&g, p);
    let (_, ref_s) = measure(|| reference::simulate(&g, &a, &order, m));
    let (out, soa_s) = measure(|| simulate_on(&g, &a, &order, m, None, &pool));
    let speedup = ref_s.median_ms / soa_s.median_ms;
    let mut rows = vec![Row::new(format!("strassen r={r} P={p} M={m}"))
        .push("vertices", g.n_vertices() as f64)
        .push("words", out.run.total_words as f64)
        .time("reference", &ref_s)
        .time("soa", &soa_s)
        .push("speedup", speedup)];

    let r = if ctx.smoke { 3 } else { 5 };
    let p_grid: &[u32] = if ctx.smoke {
        &[64, 256]
    } else {
        &[64, 256, 1024, 4096]
    };
    let view = IndexView::from_base(&base, r);
    let order = recursive_order(&view);
    let m = (view.max_indegree() + 1).max(16);
    let n = mmio_cdag::index::pow(base.n0(), r);
    let lb = LowerBound::new(&base);
    let mut first_cost = None;
    for &p in p_grid {
        let a = cyclic_per_rank(&view, p);
        let topo = Topology::parse("torus", p).expect("square P grid");
        let mm = Some(MachineModel::new(topo, 1, 1, 1));
        let (out, s) = measure(|| simulate_on(&view, &a, &order, m, mm, &pool));
        let makespan = out.contention.expect("machine model attached").makespan;
        let bound = lb.memory_independent_bandwidth(n, p as u64);
        // makespan(P₀)·P₀ / (makespan(P)·P): 1 is perfect strong scaling.
        let cost = makespan as f64 * p as f64;
        let efficiency = *first_cost.get_or_insert(cost) / cost;
        rows.push(
            Row::new(format!("strassen r={r} torus P={p}"))
                .push("words", out.run.total_words as f64)
                .push("crit_path", out.run.critical_path_words as f64)
                .push("makespan", makespan as f64)
                .push("bound", bound)
                .push("ratio", out.run.critical_path_words as f64 / bound)
                .push("efficiency", efficiency)
                .time("sim", &s),
        );
    }
    let gate = ("SoA distsim over distsim::reference", speedup, 10.0);
    (rows, (!ctx.smoke).then_some(gate))
}

/// The request cycle each serve client plays, as wire lines: certify,
/// analyze and sweep, all cacheable.
const CYCLE: [&str; 3] = [
    r#"{"id":1,"op":"certify","algo":"strassen","r":2,"m":49}"#,
    r#"{"id":2,"op":"analyze","algo":"winograd","r":1}"#,
    r#"{"id":3,"op":"sweep","algo":"strassen","r":1,"ms":[8,16,64]}"#,
];

/// A serve engine with a fresh disk memo, listening on a socket.
struct Served {
    sock: PathBuf,
    cache: PathBuf,
    thread: JoinHandle<()>,
}

impl Served {
    fn start(tag: &str, workers: usize) -> Served {
        let name = format!("mmio_exp_perf_{tag}_{}", std::process::id());
        let cache = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&cache);
        let config = EngineConfig {
            workers,
            queue_cap: 256,
            max_spawns: 16,
            default_deadline: Duration::from_secs(120),
            cache_dir: Some(cache.clone()),
            pool_threads: 1,
        };
        let (engine, _) = Engine::start(config, Arc::new(NoFaults)).expect("engine start");
        let sock = cache.with_extension("sock");
        let server = Server::bind(&sock, Arc::new(engine)).expect("bind");
        let thread = std::thread::spawn(move || server.run().expect("server run"));
        Served {
            sock,
            cache,
            thread,
        }
    }

    /// `clients` concurrent connections, each playing `per_client`
    /// requests of the cacheable [`CYCLE`].
    fn load(&self, clients: usize, per_client: usize) {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let sock = self.sock.clone();
                std::thread::spawn(move || {
                    let mut client =
                        Client::connect_retry(&sock, Duration::from_secs(10)).expect("connect");
                    for line in CYCLE.iter().cycle().take(per_client) {
                        client.send_line(line).expect("send");
                        let resp = client.read_response().expect("response");
                        assert_eq!(resp.status, Status::Ok, "{resp:?}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
    }

    fn stop(self) {
        let mut closer =
            Client::connect_retry(&self.sock, Duration::from_secs(5)).expect("connect");
        closer
            .send_line(r#"{"id":0,"op":"shutdown"}"#)
            .expect("send");
        closer.read_response().expect("shutdown");
        self.thread.join().expect("server thread");
        let _ = std::fs::remove_dir_all(&self.cache);
    }
}

/// P4: each cold run starts a fresh engine on an empty memo; the warm runs
/// share one engine whose memo the warm-up run filled.
fn serve(ctx: &Ctx) -> Sweep {
    let per_client = if ctx.smoke { 12 } else { 60 };
    let mut rows = Vec::new();
    let mut push = |phase: &str, clients: usize, s: &mmio_bench::Sample| {
        let requests = (clients * per_client) as f64;
        rows.push(
            Row::new(format!("{phase} clients={clients}"))
                .push("requests", requests)
                .time("wall", s)
                .push("req_per_s", requests / (s.median_ms / 1e3)),
        );
    };
    for &clients in &ctx.threads {
        let (_, s) = measure(|| {
            let served = Served::start("cold", ctx.cores);
            served.load(clients, per_client);
            served.stop();
        });
        push("cold", clients, &s);
    }
    let served = Served::start("warm", ctx.cores);
    for &clients in &ctx.threads {
        let (_, s) = measure(|| served.load(clients, per_client));
        push("warm", clients, &s);
    }
    served.stop();
    (rows, None)
}

fn main() {
    let smoke = std::env::var("MMIO_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        smoke,
        cores,
        threads: thread_grid(cores),
    };
    mmio_bench::preflight(&strassen());
    mmio_bench::preflight(&winograd());
    // Certify runs first: its peak RSS is floored at whatever the
    // allocator kept from earlier sweeps.
    let sweeps = [
        ("implicit", certify as fn(&Ctx) -> Sweep),
        ("routing", routing),
        ("pebble", pebble),
        ("distsim", distsim),
        ("serve", serve),
    ];
    let mut failed = Vec::new();
    for (name, run) in sweeps {
        let (rows, gate) = run(&ctx);
        let record = BenchRecord {
            experiment: format!("perf_{name}"),
            host_cores: cores,
            smoke,
            repeats: REPEATS,
            rows,
        };
        let path = write_bench_record(&format!("BENCH_{name}.json"), &record);
        println!("{}\n{}", path.display(), render_table(&record.rows));
        if let Some((what, got, min)) = gate {
            println!("gate: {what} {got:.2}x (needs {min}x)\n");
            if got < min {
                failed.push(what);
            }
        }
    }
    assert!(failed.is_empty(), "timing gates failed: {failed:?}");
}
