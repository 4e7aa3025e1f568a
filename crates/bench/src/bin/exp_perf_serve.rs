//! P4 — the serve tier under load: cold-cache vs warm-cache throughput and
//! latency over the Unix socket, at 1/4/8 concurrent clients, written to
//! `BENCH_serve.json` at the workspace root (the checked-in perf record;
//! CI re-runs a reduced workload and uploads its own copy as an artifact).
//!
//! Every response received during the load run is checked byte-for-byte
//! against the batch renderers in `mmio_serve::ops` — the serve tier's
//! core contract is that caching, concurrency, and queueing never change
//! a single byte of output — and the binary **exits nonzero on any
//! divergence**. The warm pass must also be served overwhelmingly from
//! the memo tier (`cached` flags checked), so a cache regression that
//! silently recomputes everything fails here too.
//!
//! `MMIO_BENCH_SMOKE=1` runs a reduced workload (CI's serve-faults job):
//! fewer requests per client, same checks, same output schema.

use mmio_parallel::Pool;
use mmio_serve::engine::{Engine, EngineConfig};
use mmio_serve::faults::NoFaults;
use mmio_serve::ops;
use mmio_serve::protocol::{Op, Request, Status};
use mmio_serve::{Client, Server};
use serde::Serialize;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Serialize, Clone)]
struct LoadRecord {
    phase: String,
    clients: usize,
    requests: usize,
    wall_ms: f64,
    throughput_rps: f64,
    mean_latency_us: f64,
    max_latency_us: f64,
    cache_hit_fraction: f64,
}

#[derive(Serialize)]
struct BenchRecord {
    experiment: &'static str,
    host_cores: usize,
    smoke: bool,
    /// Requests issued per client per phase.
    per_client: usize,
    loads: Vec<LoadRecord>,
    /// Byte-identity vs the batch renderers, across every response of
    /// every phase.
    divergences: u64,
    determinism: &'static str,
}

/// The mixed request stream one client plays, cycling by request index.
/// Everything here is cacheable, so the warm pass hits the memo tier.
fn op_for(i: u64) -> Op {
    match i % 3 {
        0 => Op::Certify {
            algo: "strassen".into(),
            r: 2,
            m: 49,
        },
        1 => Op::Analyze {
            algo: "winograd".into(),
            r: 1,
        },
        _ => Op::Sweep {
            algo: "strassen".into(),
            r: 1,
            ms: vec![8, 16, 64],
        },
    }
}

/// The batch-CLI rendering of [`op_for`]`(i)` — the byte-identity oracle.
fn batch_payload(i: u64) -> String {
    let pool = Pool::serial();
    match op_for(i) {
        Op::Certify { algo, r, m } => {
            ops::certify(&ops::resolve_registry(&algo).unwrap(), r, m, &pool)
        }
        Op::Analyze { algo, r } => ops::analyze_json(&ops::resolve_registry(&algo).unwrap(), r).0,
        Op::Sweep { algo, r, ms } => {
            ops::sweep_json(&ops::resolve_registry(&algo).unwrap(), r, &ms, &pool)
        }
        _ => unreachable!("op_for emits cacheable ops only"),
    }
}

struct PhaseResult {
    wall: Duration,
    latencies_us: Vec<f64>,
    hits: usize,
    divergences: u64,
}

/// Runs one load phase: `clients` concurrent connections, `per_client`
/// requests each, every response checked against the oracle.
fn run_phase(
    sock: &std::path::Path,
    clients: usize,
    per_client: usize,
    oracle: &Arc<Vec<String>>,
) -> PhaseResult {
    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let sock = sock.to_path_buf();
            let oracle = Arc::clone(oracle);
            std::thread::spawn(move || {
                let mut client =
                    Client::connect_retry(&sock, Duration::from_secs(10)).expect("connect");
                let mut latencies = Vec::with_capacity(per_client);
                let (mut hits, mut divergences) = (0usize, 0u64);
                for i in 0..per_client as u64 {
                    let req = Request {
                        id: c as u64 * 1_000_000 + i,
                        deadline_ms: Some(120_000),
                        op: op_for(i),
                    };
                    let t = Instant::now();
                    let resp = client.call(&req).expect("response");
                    latencies.push(t.elapsed().as_secs_f64() * 1e6);
                    if resp.status != Status::Ok {
                        eprintln!("DIVERGENCE: non-ok response {resp:?}");
                        divergences += 1;
                        continue;
                    }
                    if resp.cached {
                        hits += 1;
                    }
                    if resp.payload.as_deref() != Some(oracle[(i % 3) as usize].as_str()) {
                        eprintln!(
                            "DIVERGENCE: client {c} request {i}: payload differs from batch CLI"
                        );
                        divergences += 1;
                    }
                }
                (latencies, hits, divergences)
            })
        })
        .collect();
    let mut latencies_us = Vec::new();
    let (mut hits, mut divergences) = (0usize, 0u64);
    for h in handles {
        let (l, ph, pd) = h.join().expect("client thread");
        latencies_us.extend(l);
        hits += ph;
        divergences += pd;
    }
    PhaseResult {
        wall: t0.elapsed(),
        latencies_us,
        hits,
        divergences,
    }
}

fn main() {
    let smoke = std::env::var("MMIO_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let per_client = if smoke { 12 } else { 60 };

    // Pre-flight: the algorithms the stream exercises must lint clean.
    mmio_bench::preflight(&mmio_algos::strassen::strassen());
    mmio_bench::preflight(&mmio_algos::strassen::winograd());

    // The oracle: one batch rendering per op in the cycle.
    let oracle = Arc::new((0..3).map(batch_payload).collect::<Vec<_>>());

    let cache_dir = std::env::temp_dir().join(format!("mmio_bench_serve_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let sock = std::env::temp_dir().join(format!("mmio_bench_serve_{}.sock", std::process::id()));
    let (engine, _) = Engine::start(
        EngineConfig {
            workers: 4,
            queue_cap: 256,
            max_spawns: 16,
            default_deadline: Duration::from_secs(120),
            cache_dir: Some(cache_dir.clone()),
            pool_threads: 1,
        },
        Arc::new(NoFaults),
    )
    .expect("engine start");
    let server = Server::bind(&sock, Arc::new(engine)).expect("bind");
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));

    println!(
        "P4: serve tier under load ({per_client} requests/client, mixed certify/analyze/sweep)\n"
    );
    println!(
        "{:<6} {:>8} {:>9} {:>9} {:>13} {:>13} {:>13} {:>6}",
        "phase", "clients", "requests", "wall ms", "req/s", "mean lat µs", "max lat µs", "hit%"
    );

    let mut loads = Vec::new();
    let mut divergences = 0u64;
    // Cold phase first (1 client, empty cache), then warm phases at rising
    // concurrency — the cache was fully populated by the cold pass, so the
    // warm phases measure the memo-tier hot path.
    let phases: &[(&str, usize)] = &[("cold", 1), ("warm", 1), ("warm", 4), ("warm", 8)];
    for &(phase, clients) in phases {
        let result = run_phase(&sock, clients, per_client, &oracle);
        divergences += result.divergences;
        let requests = clients * per_client;
        let wall_ms = result.wall.as_secs_f64() * 1e3;
        let throughput = requests as f64 / result.wall.as_secs_f64();
        let mean = result.latencies_us.iter().sum::<f64>() / result.latencies_us.len() as f64;
        let max = result.latencies_us.iter().cloned().fold(0.0, f64::max);
        let hit_frac = result.hits as f64 / requests as f64;
        if phase == "warm" && hit_frac < 0.9 {
            eprintln!(
                "DIVERGENCE: warm phase ({clients} clients) hit fraction {hit_frac:.2} < 0.9 — \
                 the memo tier is not serving"
            );
            divergences += 1;
        }
        println!(
            "{phase:<6} {clients:>8} {requests:>9} {wall_ms:>9.1} {throughput:>13.0} \
             {mean:>13.1} {max:>13.1} {:>5.0}%",
            hit_frac * 100.0
        );
        loads.push(LoadRecord {
            phase: phase.to_string(),
            clients,
            requests,
            wall_ms,
            throughput_rps: throughput,
            mean_latency_us: mean,
            max_latency_us: max,
            cache_hit_fraction: hit_frac,
        });
    }

    // Graceful shutdown over the wire.
    let mut closer = Client::connect_retry(&sock, Duration::from_secs(5)).expect("connect");
    closer
        .call(&Request {
            id: 0,
            deadline_ms: None,
            op: Op::Shutdown,
        })
        .expect("shutdown");
    server_thread.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&cache_dir);

    let record = BenchRecord {
        experiment: "perf_serve",
        host_cores,
        smoke,
        per_client,
        loads,
        divergences,
        determinism: if divergences == 0 {
            "identical"
        } else {
            "DIVERGED"
        },
    };
    let mut path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    path.pop();
    path.pop();
    path.push("BENCH_serve.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&record).expect("serializable"),
    )
    .expect("write BENCH_serve.json");
    println!("\nwrote {}", path.display());

    assert_eq!(
        divergences, 0,
        "serve responses diverged from the batch CLI (see stderr)"
    );
}
