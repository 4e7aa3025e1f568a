//! The serve-mix workload: a real `mmio serve` process driven over its Unix
//! socket by a closed loop of two connections.
//!
//! The server is started the way `mmio serve` starts it (`Engine::start`,
//! then `Server::bind` and `run`) in a process of its own, on a memo
//! directory preloaded with part of the key space. Each response's payload
//! must equal the batch `ops::*` rendering of its key, computed once per
//! key outside the timed loop.
//!
//! The traced run replays the same request stream in this process through
//! the public calls the engine makes per request — parse, memo get,
//! re-verify, compute, memo put, render — with a span around each.

use crate::plan::{self, KeySpace};
use crate::proc::{self, Reaper, Report};
use crate::stats;
use crate::trace::{self, Trace};
use mmio_parallel::Pool;
use mmio_serve::ops::{self, ViewMode};
use mmio_serve::{CacheKey, Client, DiskCache, Engine, EngineConfig, NoFaults, Op, Request};
use mmio_serve::{Response, Server, Status};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Concurrent client connections (a closed loop: each waits for its reply).
pub const CONNECTIONS: u64 = 2;
/// Server start-ups timed per run for `setup_s`, besides the load server's.
const SETUP_PROBES: usize = 9;
/// Completions per block when timing the stream in blocks (`pass_s`).
pub const BLOCK: usize = 100;
/// Requests the traced run replays in-process.
const REPLAY_CAP: usize = 400;

/// The cache identity the engine files `op` under.
pub fn cache_key(op: &Op) -> Option<CacheKey> {
    let (kind, algo, k, extra) = match op {
        Op::Certify { algo, r, m } => ("certify", algo, *r, format!("m={m}")),
        Op::Analyze { algo, r } => ("analyze", algo, *r, String::new()),
        Op::Sweep { algo, r, ms } => {
            let ms: Vec<String> = ms.iter().map(usize::to_string).collect();
            ("sweep", algo, *r, format!("ms={}", ms.join(",")))
        }
        Op::RoutingCert { algo, k, r } => ("routing_cert", algo, *k, format!("r={r}")),
        Op::Stats | Op::Shutdown => return None,
    };
    Some(CacheKey {
        kind,
        algo: algo.clone(),
        k,
        extra,
    })
}

/// The batch rendering of `op`: what `mmio` prints for it, and what a
/// serve response must carry.
pub fn render(op: &Op, pool: &Pool) -> Option<String> {
    match op {
        Op::Certify { algo, r, m } => Some(ops::certify_text(
            &ops::resolve_registry(algo)?,
            *r,
            *m,
            ViewMode::Auto,
            pool,
        )),
        Op::Analyze { algo, r } => Some(ops::analyze_json(&ops::resolve_registry(algo)?, *r).0),
        Op::Sweep { algo, r, ms } => {
            Some(ops::sweep_json(&ops::resolve_registry(algo)?, *r, ms, pool))
        }
        Op::RoutingCert { algo, k, r } => {
            ops::routing_cert_json(&ops::resolve_registry(algo)?, *k, *r, pool)
        }
        Op::Stats | Op::Shutdown => None,
    }
}

/// Oracle renderings, computed at most once per key, with the time each
/// took (the compute cost of that key).
pub struct Oracle {
    payloads: HashMap<usize, String>,
    /// `(kind, seconds)` of every rendering made.
    pub compute: Vec<(&'static str, f64)>,
}

impl Oracle {
    fn new() -> Oracle {
        Oracle {
            payloads: HashMap::new(),
            compute: Vec::new(),
        }
    }

    /// Renders every key in `keys` not rendered yet.
    fn fill(&mut self, space: &KeySpace, keys: &[usize], pool: &Pool) -> Result<(), String> {
        for &k in keys {
            if self.payloads.contains_key(&k) {
                continue;
            }
            let op = &space.keys[k];
            let start = Instant::now();
            let text = render(op, pool).ok_or_else(|| format!("no rendering for {op:?}"))?;
            self.compute
                .push((op.kind(), start.elapsed().as_secs_f64()));
            self.payloads.insert(k, text);
        }
        Ok(())
    }

    fn get(&self, k: usize) -> &str {
        &self.payloads[&k]
    }
}

/// A prepared serve-mix instance: the key space, the preloaded memo and the
/// oracle renderings of the preloaded keys.
pub struct Setup {
    /// Workload seed.
    pub seed: u64,
    /// The key space the stream draws from.
    pub space: KeySpace,
    /// The oracle.
    pub oracle: Oracle,
    /// The work directory (server cwd).
    pub work: PathBuf,
    /// Seconds each preload `DiskCache::put` took.
    pub put_s: Vec<f64>,
    /// Compute-pool threads.
    pub threads: usize,
}

/// Memo directory name inside the work directory.
const MEMO: &str = "memo";
/// The preloaded memo as it was before any server ran.
const PRELOADED: &str = "memo-preloaded";
/// Socket name inside the work directory.
const SOCKET: &str = "serve.sock";

/// Builds the key space, renders the preloaded keys and writes them to a
/// fresh memo directory. With `forge`, one hot key's snapshot carries a
/// wrong payload under a valid checksum (the benchmark's own test of its
/// payload check).
pub fn prepare(
    seed: u64,
    space: KeySpace,
    work: &Path,
    threads: usize,
    forge: bool,
) -> Result<Setup, String> {
    let pool = Pool::new(threads);
    let mut oracle = Oracle::new();
    oracle.fill(&space, &space.preloaded, &pool)?;
    let memo = work.join(MEMO);
    let _ = std::fs::remove_dir_all(&memo);
    let (cache, _) =
        DiskCache::open(&memo, Arc::new(NoFaults)).map_err(|e| format!("memo: {e}"))?;
    let mut put_s = Vec::new();
    for &k in &space.preloaded {
        let key = cache_key(&space.keys[k]).ok_or("uncacheable key")?;
        let mut payload = oracle.get(k).to_string();
        if forge && k == space.hot[0] {
            payload.push_str("forged\n");
        }
        let start = Instant::now();
        cache.put(&key, &payload);
        put_s.push(start.elapsed().as_secs_f64());
    }
    drop(cache);
    // The server's memo changes as it runs; replays start from this copy.
    copy_dir(&memo, &work.join(PRELOADED)).map_err(|e| format!("copy memo: {e}"))?;
    Ok(Setup {
        seed,
        space,
        oracle,
        work: work.to_path_buf(),
        put_s,
        threads,
    })
}

/// Entry point of the server process: `threads`. Serves `serve.sock` on
/// the memo in the working directory, with `mmio serve`'s defaults, until
/// a shutdown request; then reports its peak RSS.
pub fn server_main(args: &[String]) -> i32 {
    let Some(threads) = args.first().and_then(|a| a.parse().ok()) else {
        eprintln!("perfbench server: bad arguments {args:?}");
        return 2;
    };
    let workers = 2;
    let cfg = EngineConfig {
        workers,
        queue_cap: 64,
        max_spawns: workers * 4,
        default_deadline: Duration::from_millis(30_000),
        cache_dir: Some(PathBuf::from(MEMO)),
        pool_threads: threads,
    };
    let run = || -> std::io::Result<()> {
        let (engine, _) = Engine::start(cfg, Arc::new(NoFaults))?;
        Server::bind(SOCKET, Arc::new(engine))?.run()
    };
    if let Err(e) = run() {
        eprintln!("perfbench server: {e}");
        return 1;
    }
    let rep = Report {
        vmhwm_kb: proc::vmhwm_kb(),
        ..Report::default()
    };
    eprint!("{}", rep.to_lines());
    0
}

/// A running server process.
struct Running {
    child: Reaper,
    /// Seconds from spawn to the first `stats` reply.
    setup_s: f64,
}

fn start_server(s: &Setup) -> Result<Running, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(s.work.join(SOCKET));
    let start = Instant::now();
    let child = Command::new(exe)
        .args(["__serve", &s.threads.to_string()])
        .current_dir(&s.work)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn server: {e}"))?;
    let mut child = Reaper(Some(child));
    let sock = s.work.join(SOCKET);
    let mut client = loop {
        match Client::connect(&sock) {
            Ok(c) => break c,
            Err(e) => {
                if start.elapsed() > Duration::from_secs(60) {
                    return Err(format!("server did not come up: {e}"));
                }
                if let Some(Ok(Some(status))) = child.0.as_mut().map(|c| c.try_wait()) {
                    return Err(format!("server exited during start-up: {status}"));
                }
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    };
    let resp = client
        .call(&Request {
            id: 0,
            deadline_ms: None,
            op: Op::Stats,
        })
        .map_err(|e| format!("stats: {e}"))?;
    let setup_s = start.elapsed().as_secs_f64();
    if resp.status != Status::Ok {
        return Err(format!("stats answered {resp:?}"));
    }
    Ok(Running {
        child: std::mem::replace(&mut child, Reaper(None)),
        setup_s,
    })
}

/// Shuts the server down and returns its peak RSS in KiB.
fn stop_server(s: &Setup, mut run: Running) -> Result<Option<u64>, String> {
    let mut client = Client::connect(s.work.join(SOCKET)).map_err(|e| e.to_string())?;
    let bye = client
        .call(&Request {
            id: u64::MAX,
            deadline_ms: None,
            op: Op::Shutdown,
        })
        .map_err(|e| format!("shutdown: {e}"))?;
    drop(client);
    let mut child = run.child.0.take().ok_or("server already reaped")?;
    let (_, stderr) = proc::drain(&mut child).map_err(|e| e.to_string())?;
    let status = child.wait().map_err(|e| e.to_string())?;
    if bye.status != Status::Ok || !status.success() {
        return Err(format!("server shutdown: {bye:?}, exit {status}"));
    }
    Ok(Report::parse(&stderr).vmhwm_kb)
}

/// One answered request of the load.
pub struct Sample {
    /// Stream index.
    pub index: u64,
    /// Latency in milliseconds; infinite when the request failed.
    pub ms: f64,
    /// Seconds since the load began, at completion.
    pub done_s: f64,
    /// Whether the response was `ok` with the right payload.
    pub ok: bool,
    /// Whether the memo answered it.
    pub cached: bool,
}

/// The outcome of driving the server.
pub struct Load {
    /// Every answered request, in stream order.
    pub samples: Vec<Sample>,
    /// Wall time of the load, seconds.
    pub wall_s: f64,
    /// Server start-up times, seconds.
    pub setup_s: Vec<f64>,
    /// Largest peak RSS of any server process, KiB.
    pub peak_kb: u64,
    /// Messages describing failed requests (first few).
    pub errors: Vec<String>,
}

impl Load {
    /// Latencies in ms, failures counted as infinite.
    pub fn latencies(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.ms).collect()
    }

    /// Requests answered correctly.
    pub fn ok(&self) -> usize {
        self.samples.iter().filter(|s| s.ok).count()
    }

    /// Wall time of each block of [`BLOCK`] consecutive completions.
    pub fn block_s(&self) -> Vec<f64> {
        let mut done: Vec<f64> = self.samples.iter().map(|s| s.done_s).collect();
        done.sort_by(f64::total_cmp);
        let mut blocks = Vec::new();
        let mut prev = 0.0;
        for chunk in done.chunks_exact(BLOCK) {
            let end = chunk[BLOCK - 1];
            blocks.push(end - prev);
            prev = end;
        }
        if blocks.is_empty() && !done.is_empty() {
            // Fewer than one block: scale the whole load to a block.
            blocks.push(self.wall_s * BLOCK as f64 / done.len() as f64);
        }
        blocks
    }
}

/// Starts the server `SETUP_PROBES + 1` times, then drives the last one for
/// `seconds` with a closed loop over [`CONNECTIONS`] connections and checks
/// every payload against the oracle.
pub fn load(s: &mut Setup, seconds: f64) -> Result<Load, String> {
    let mut setup_s = Vec::new();
    let mut peak_kb = 0;
    for _ in 0..SETUP_PROBES {
        let run = start_server(s)?;
        setup_s.push(run.setup_s);
        peak_kb = peak_kb.max(stop_server(s, run)?.unwrap_or(0));
    }
    let run = start_server(s)?;
    setup_s.push(run.setup_s);

    type Seen = (
        Vec<(u64, usize, f64, f64, Option<String>, bool)>,
        Vec<String>,
    );
    let shared: &Setup = s;
    let start = Instant::now();
    let results: Vec<Result<Seen, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let s = shared;
                scope.spawn(move || -> Result<Seen, String> {
                    let mut client =
                        Client::connect(s.work.join(SOCKET)).map_err(|e| e.to_string())?;
                    let mut seen = Vec::new();
                    let mut errors = Vec::new();
                    let mut i = c;
                    while start.elapsed().as_secs_f64() < seconds {
                        let k = plan::request(s.seed, &s.space, i);
                        let req = Request {
                            id: i,
                            deadline_ms: None,
                            op: s.space.keys[k].clone(),
                        };
                        let t = Instant::now();
                        let resp = client.call(&req);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        let done = start.elapsed().as_secs_f64();
                        match resp {
                            Ok(r) if r.status == Status::Ok && r.id == i => {
                                seen.push((i, k, ms, done, r.payload, r.cached));
                            }
                            Ok(r) => {
                                errors.push(format!("request {i}: {:?} {:?}", r.status, r.error));
                                seen.push((i, k, ms, done, None, false));
                            }
                            Err(e) => return Err(format!("connection {c}: {e}")),
                        }
                        i += CONNECTIONS;
                    }
                    Ok((seen, errors))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    peak_kb = peak_kb.max(stop_server(s, run)?.unwrap_or(0));

    let mut raw = Vec::new();
    let mut errors = Vec::new();
    for r in results {
        let (seen, errs) = r?;
        raw.extend(seen);
        errors.extend(errs);
    }
    raw.sort_by_key(|x| x.0);
    // Render every requested key once, outside the timed loop.
    let keys: Vec<usize> = raw.iter().map(|x| x.1).collect();
    let pool = Pool::new(s.threads);
    s.oracle.fill(&s.space, &keys, &pool)?;
    let samples = raw
        .into_iter()
        .map(|(index, k, ms, done_s, payload, cached)| {
            let ok = payload.as_deref() == Some(s.oracle.get(k));
            if payload.is_some() && !ok && errors.len() < 8 {
                errors.push(format!(
                    "request {index} ({:?}): payload differs from the batch rendering",
                    s.space.keys[k]
                ));
            }
            Sample {
                index,
                ms: if ok { ms } else { f64::INFINITY },
                done_s,
                ok,
                cached,
            }
        })
        .collect();
    Ok(Load {
        samples,
        wall_s,
        setup_s,
        peak_kb,
        errors,
    })
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &dest)?;
        } else {
            std::fs::copy(entry.path(), dest)?;
        }
    }
    Ok(())
}

/// The outcome of one in-process replay.
pub struct Replay {
    /// Spans (traced replay only).
    pub spans: Vec<trace::Span>,
    /// Wall time of the request loop plus the memo open, seconds.
    pub total_s: f64,
    /// `(requests, memo hits)`.
    pub hits: (usize, usize),
    /// Snapshots the recovery scan found valid.
    pub snapshots: usize,
    /// Replayed payloads that differ from the oracle.
    pub mismatches: usize,
}

/// Replays stream requests `0..n` through the engine's per-request calls
/// on a copy of the preloaded memo.
pub fn replay(s: &mut Setup, n: usize, traced: bool, tag: &str) -> Result<Replay, String> {
    let dir = s.work.join(format!("replay-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    copy_dir(&s.work.join(PRELOADED), &dir).map_err(|e| format!("copy memo: {e}"))?;
    let keys: Vec<usize> = (0..n as u64)
        .map(|i| plan::request(s.seed, &s.space, i))
        .collect();
    let pool = Pool::new(s.threads);
    s.oracle.fill(&s.space, &keys, &pool)?;
    let lines: Vec<String> = keys
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            Request {
                id: i as u64,
                deadline_ms: None,
                op: s.space.keys[k].clone(),
            }
            .to_line()
        })
        .collect();

    let mut t = if traced { Trace::new() } else { Trace::off() };
    let start = Instant::now();
    let (cache, report) = t
        .span("serve.recovery", |_| {
            DiskCache::open(&dir, Arc::new(NoFaults))
        })
        .map_err(|e| format!("open memo: {e}"))?;
    let mut hits = 0;
    let mut mismatches = 0;
    for (i, line) in lines.iter().enumerate() {
        let resp = t.span("serve.request", |t| -> Result<String, String> {
            let req = t
                .span("serve.parse", |_| Request::from_line(line))
                .map_err(|e| e.to_string())?;
            let key = cache_key(&req.op).ok_or("uncacheable request")?;
            let mut payload = t.span("serve.cache_get", |_| cache.get(&key));
            if let Some(p) = &payload {
                hits += 1;
                if key.kind == "routing_cert"
                    && !t.span("serve.reverify", |_| mmio_cert::verify_json(p).accepted)
                {
                    payload = None;
                }
            }
            let (payload, cached) = match payload {
                Some(p) => (p, true),
                None => {
                    let p = t
                        .span(&format!("serve.compute.{}", req.op.kind()), |_| {
                            render(&req.op, &pool)
                        })
                        .ok_or("no rendering")?;
                    t.span("serve.cache_put", |_| cache.put(&key, &p));
                    (p, false)
                }
            };
            Ok(t.span("serve.render", |_| {
                Response::ok(req.id, cached, payload).to_line()
            }))
        })?;
        let back = Response::from_line(&resp).map_err(|e| e.to_string())?;
        if back.payload.as_deref() != Some(s.oracle.get(keys[i])) {
            mismatches += 1;
        }
    }
    let total_s = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Replay {
        spans: t.spans().to_vec(),
        total_s,
        hits: (lines.len(), hits),
        snapshots: report.valid,
        mismatches,
    })
}

/// Per-layer serve metrics of a traced run, as `(name, unit, value)`.
pub fn layer_metrics(s: &mut Setup, load: &Load) -> Result<(stats::Metrics, f64, usize), String> {
    let n = load
        .samples
        .iter()
        .enumerate()
        .take_while(|(i, x)| x.index == *i as u64)
        .count()
        .min(REPLAY_CAP);
    if n == 0 {
        return Err("no requests answered".into());
    }
    let plain = replay(s, n, false, "plain")?;
    let traced = replay(s, n, true, "traced")?;
    let spans = &traced.spans;
    let selfs = trace::self_times(spans);
    let of = |name: &str, scale: f64| -> Vec<f64> {
        spans
            .iter()
            .zip(&selfs)
            .filter(|(sp, _)| sp.name == name)
            .map(|(_, t)| t * scale)
            .collect()
    };
    let med = |v: Vec<f64>| (!v.is_empty()).then(|| stats::median(&v));
    let mut out: stats::Metrics = vec![
        ("serve.parse_us".into(), "us", med(of("serve.parse", 1e6))),
        (
            "serve.cache_get_us".into(),
            "us",
            med(of("serve.cache_get", 1e6)),
        ),
        ("serve.render_us".into(), "us", med(of("serve.render", 1e6))),
        (
            "serve.reverify_ms".into(),
            "ms",
            med(of("serve.reverify", 1e3)),
        ),
    ];
    for kind in ["certify", "analyze", "sweep", "routing_cert"] {
        let mut v = of(&format!("serve.compute.{kind}"), 1e3);
        v.extend(
            s.oracle
                .compute
                .iter()
                .filter(|(k, _)| *k == kind)
                .map(|(_, t)| t * 1e3),
        );
        out.push((format!("serve.compute_ms.{kind}"), "ms", med(v)));
    }
    let mut puts = of("serve.cache_put", 1e3);
    puts.extend(s.put_s.iter().map(|t| t * 1e3));
    out.push(("serve.cache_put_ms".into(), "ms", med(puts)));
    let requests: Vec<&trace::Span> = spans.iter().filter(|x| x.name == "serve.request").collect();
    let overhead: Vec<f64> = requests
        .iter()
        .zip(&load.samples)
        .filter(|(_, l)| l.ok)
        .map(|(r, l)| l.ms - r.duration() * 1e3)
        .collect();
    out.push(("serve.overhead_ms".into(), "ms", med(overhead)));
    let mut recovery = of("serve.recovery", 1e3);
    for _ in 0..2 {
        let start = Instant::now();
        DiskCache::open(s.work.join(PRELOADED), Arc::new(NoFaults)).map_err(|e| e.to_string())?;
        recovery.push(start.elapsed().as_secs_f64() * 1e3);
    }
    out.push(("serve.recovery_ms".into(), "ms", med(recovery)));
    out.push((
        "serve.hit_frac".into(),
        "frac",
        Some(traced.hits.1 as f64 / traced.hits.0 as f64),
    ));
    out.push((
        "serve.snapshots".into(),
        "count",
        Some(traced.snapshots as f64),
    ));
    let overhead_frac = traced.total_s / plain.total_s - 1.0;
    Ok((out, overhead_frac, traced.mismatches + plain.mismatches))
}
