//! `perfbench` — the mmio workspace's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <certify-deep|proof-sim|serve-mix> --seed N
//!           --seconds S --trace <0|1> [--golden-dir DIR] [--tiny]
//!           [--forge-memo]
//! ```
//!
//! With `--trace 0` it runs the workload's passes for `S` seconds, checks
//! every output, prints each metric by name with unit, sample count, median
//! and quartiles, and ends with one JSON line holding the end-to-end
//! metrics. With `--trace 1` it runs one traced pass of every workload and
//! prints the per-layer metrics instead. Any divergence makes it exit 1.
//! `--tiny`, `--golden-dir` and `--forge-memo` exist for the benchmark's own
//! tests. See `perfbench/README.md` for the workloads and metrics.

mod batch;
mod calib;
mod plan;
mod proc;
mod serve;
mod stats;
mod trace;

use batch::Cmd;
use proc::ChildRun;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The workload names, in the order the traced run visits them.
const WORKLOADS: [&str; 3] = ["certify-deep", "proof-sim", "serve-mix"];
/// Fresh-process start-ups timed per batch run for `setup_s`.
const SETUP_PROBES: usize = 15;
/// Seconds of `--seconds` per batch pass, by workload. A pass runs every
/// command of the workload for both algorithms: on a 2-core shared host
/// about 15 s for certify-deep and 20–27 s for proof-sim, so a 20 s run
/// makes two certify-deep passes and one proof-sim pass.
fn nominal_pass_s(workload: &str) -> f64 {
    if workload == "certify-deep" {
        10.0
    } else {
        20.0
    }
}
/// Calibration kernels timed at the start of every run (and, for
/// serve-mix, again after the load; batch runs add one per command).
const KERNELS: usize = 9;
/// How long the traced run drives the server before its replay.
const TRACE_SERVE_SECONDS: f64 = 6.0;

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    golden: PathBuf,
    tiny: bool,
    forge_memo: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let value = |flag: &str| -> Option<&String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let need = |flag: &str| value(flag).ok_or(format!("missing {flag}"));
    let workload = need("--workload")?.clone();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {WORKLOADS:?})"
        ));
    }
    let seed = need("--seed")?.parse().map_err(|_| "invalid --seed")?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|_| "invalid --seconds")?;
    let trace = match need("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("invalid --trace '{other}' (0 or 1)")),
    };
    let golden = value("--golden-dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("golden"));
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
        golden,
        tiny: args.iter().any(|a| a == "--tiny"),
        forge_memo: args.iter().any(|a| a == "--forge-memo"),
    })
}

/// The instance sizes of every workload.
struct Scale {
    /// certify-deep's two commands (the second is the deeper one).
    certify: [Cmd; 2],
    /// proof-sim's units; a unit's commands run back to back.
    proof: Vec<Vec<Cmd>>,
    /// proof-sim's two routing instances, named `.r6` and `.r7` in metrics.
    routing: [Cmd; 2],
    /// proof-sim's simulate, at the deep certify's depth and `M`.
    simulate: Cmd,
    /// serve-mix's key space.
    limits: &'static plan::Limits,
}

fn scale(tiny: bool) -> Scale {
    let (c, rt, e, s, d, (p1, p2)) = if tiny {
        ((3, 4, 16), [(2, 4), (1, 4)], 3, (4, 16), 3, (16, 16))
    } else {
        ((6, 7, 64), [(2, 6), (1, 7)], 6, (7, 64), 6, (1024, 256))
    };
    let routing = rt.map(|(k, r)| Cmd::Routing { k, r });
    let simulate = Cmd::Simulate { r: s.0, m: s.1 };
    Scale {
        certify: [
            Cmd::Certify { r: c.0, m: c.2 },
            Cmd::Certify { r: c.1, m: c.2 },
        ],
        proof: vec![
            vec![routing[0]],
            vec![routing[1]],
            vec![Cmd::CertEmit { r: e }, Cmd::CertVerify { r: e }],
            vec![simulate],
            vec![Cmd::Distsim {
                r: d,
                p: p1,
                subtree: false,
            }],
            vec![Cmd::Distsim {
                r: d,
                p: p2,
                subtree: true,
            }],
        ],
        routing,
        simulate,
        limits: if tiny { &plan::TINY } else { &plan::FULL },
    }
}

struct Ctx {
    seed: u64,
    /// `A` first, then the other algorithm: every batch pass runs both.
    algos: [&'static str; 2],
    threads: usize,
    work: PathBuf,
    golden: PathBuf,
    scale: Scale,
}

/// Failures and metrics gathered by a run.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Every metric the report lines show: name, unit, samples.
    report: Vec<(String, &'static str, Vec<f64>)>,
    /// The metrics of the final JSON line.
    result: stats::Metrics,
}

impl Outcome {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(what);
        }
    }

    fn sampled(&mut self, name: &str, unit: &'static str, samples: Vec<f64>) {
        self.report.push((name.to_string(), unit, samples));
    }
}

impl Ctx {
    fn golden_text(&self, algo: &str, cmd: Cmd) -> Result<String, String> {
        let path = self
            .golden
            .join(algo)
            .join(format!("{}.out", cmd.golden_name()));
        std::fs::read_to_string(&path).map_err(|e| format!("golden {}: {e}", path.display()))
    }

    /// `(file, length, fnv64)` of every certificate `cert emit A r` writes.
    fn golden_certs(&self, algo: &str, r: u32) -> Result<Vec<(String, u64, String)>, String> {
        let path = self.golden.join(algo).join(format!("certs_{r}.fnv"));
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("golden {}: {e}", path.display()))?;
        text.lines()
            .map(
                |l| match l.split_whitespace().collect::<Vec<_>>().as_slice() {
                    [f, len, h] => Ok((
                        f.to_string(),
                        len.parse().map_err(|_| "bad length")?,
                        h.to_string(),
                    )),
                    _ => Err(format!("{}: bad line '{l}'", path.display())),
                },
            )
            .collect()
    }

    /// Runs one batch command in a fresh process.
    fn sample(&self, algo: &str, cmd: Cmd, traced: bool) -> Result<ChildRun, String> {
        if let Cmd::CertEmit { .. } = cmd {
            let _ = std::fs::remove_dir_all(self.work.join(batch::CERT_DIR));
        }
        let mut args = vec![
            "__child".to_string(),
            self.threads.to_string(),
            u8::from(traced).to_string(),
            algo.to_string(),
        ];
        args.extend(cmd.to_args());
        proc::run_self(&args, &self.work).map_err(|e| format!("spawn {}: {e}", cmd.cli(algo)))
    }

    /// Every check a batch sample must pass: exit status, golden bytes,
    /// certificate files, and cross-layer soundness.
    fn check(&self, algo: &str, cmd: Cmd, run: &ChildRun) -> Result<(), String> {
        let cli = cmd.cli(algo);
        if !run.ok {
            let tail: String = run
                .stderr
                .lines()
                .rev()
                .take(3)
                .collect::<Vec<_>>()
                .join(" | ");
            return Err(format!("{cli}: nonzero exit ({tail})"));
        }
        if let Cmd::Noop = cmd {
            return Ok(());
        }
        if run.stdout != self.golden_text(algo, cmd)? {
            return Err(format!("{cli}: output differs from its golden"));
        }
        let [_, deep] = self.scale.certify;
        let simulate = self.scale.simulate;
        match cmd {
            Cmd::CertEmit { r } => {
                for (file, len, hash) in self.golden_certs(algo, r)? {
                    let path = self.work.join(batch::CERT_DIR).join(&file);
                    let bytes = std::fs::read(&path).map_err(|e| format!("{cli}: {file}: {e}"))?;
                    let got = format!("{:016x}", mmio_serve::cache::fnv64(&bytes));
                    if bytes.len() as u64 != len || got != hash {
                        return Err(format!("{cli}: {file} differs from its golden"));
                    }
                }
            }
            // Each workload runs one side of the soundness pair; the other
            // side is its golden.
            c if c == deep => sound(&cli, &run.stdout, &self.golden_text(algo, simulate)?)?,
            c if c == simulate => sound(&cli, &self.golden_text(algo, deep)?, &run.stdout)?,
            _ => {}
        }
        Ok(())
    }
}

fn number_after(text: &str, marker: &str, end: &str) -> Result<u64, String> {
    let tail = text
        .split(marker)
        .nth(1)
        .ok_or(format!("no '{marker}' in output"))?;
    let field = tail.split(end).next().unwrap_or("").trim();
    field
        .parse()
        .map_err(|_| format!("unparsable number '{field}'"))
}

/// Cross-layer soundness: the simulated schedule's I/O is at least the
/// certified lower bound for the same order and `M`.
fn sound(cli: &str, certify_out: &str, simulate_out: &str) -> Result<(), String> {
    let io = certified_io(certify_out)?;
    let sim = simulated_io(simulate_out)?;
    if sim < io {
        return Err(format!(
            "{cli}: simulated I/O {sim} below certified I/O {io}"
        ));
    }
    Ok(())
}

/// The certified I/O lower bound `mmio certify` prints.
fn certified_io(text: &str) -> Result<u64, String> {
    number_after(text, "certified I/O ≥ ", "\n")
}

/// The I/O count `mmio simulate` prints.
fn simulated_io(text: &str) -> Result<u64, String> {
    number_after(text, "stores = ", " I/Os")
}

/// A pass's units for each of `algos`; a unit's commands run back to back.
fn batch_units(ctx: &Ctx, workload: &str, algos: &[&'static str]) -> Vec<(&'static str, Vec<Cmd>)> {
    let units = if workload == "certify-deep" {
        ctx.scale.certify.iter().map(|&c| vec![c]).collect()
    } else {
        ctx.scale.proof.clone()
    };
    algos
        .iter()
        .flat_map(|&a| units.iter().map(move |u| (a, u.clone())))
        .collect()
}

/// An untraced batch workload: start-up probes, then one pass per
/// [`nominal_pass_s`] of `seconds` (at least one). A fixed pass count
/// keeps the work of a run the same at every commit.
fn run_batch(ctx: &Ctx, workload: &str, seconds: f64, out: &mut Outcome) {
    let units = batch_units(ctx, workload, &ctx.algos);
    let mut setup = Vec::new();
    let mut peak_kb = 0u64;
    let mut slowdown: Vec<f64> = (0..KERNELS).map(|_| calib::slowdown()).collect();
    for _ in 0..SETUP_PROBES {
        match ctx.sample(ctx.algos[0], Cmd::Noop, false) {
            Ok(run) => match ctx.check(ctx.algos[0], Cmd::Noop, &run) {
                Ok(()) => setup.push(run.wall_s),
                Err(e) => out.fail(e),
            },
            Err(e) => out.fail(e),
        }
    }
    let mut per_cmd: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut pass_s = Vec::new();
    let mut op_ms = Vec::new();
    let passes = (seconds / nominal_pass_s(workload)).round().max(1.0) as u64;
    for pass in 0..passes {
        let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
        for u in plan::pass_order(ctx.seed, pass, units.len()) {
            let (algo, ref cmds) = units[u];
            for &cmd in cmds {
                out.attempted += 1;
                slowdown.push(calib::slowdown());
                let run = match ctx.sample(algo, cmd, false) {
                    Ok(run) => run,
                    Err(e) => {
                        out.fail(e);
                        continue;
                    }
                };
                *sums.entry(cmd.metric()).or_default() += run.wall_s;
                op_ms.push(run.wall_s * 1e3);
                peak_kb = peak_kb.max(run.report.vmhwm_kb.unwrap_or(0));
                if let Err(e) = ctx.check(algo, cmd, &run) {
                    out.fail(e);
                }
            }
        }
        pass_s.push(sums.values().sum());
        for (name, s) in sums {
            per_cmd.entry(name).or_default().push(s);
        }
    }
    for (name, samples) in per_cmd {
        out.sampled(name, "s", samples);
    }
    out.sampled("op_wall_ms", "ms", op_ms);
    let peak_mb = peak_kb as f64 / 1024.0;
    finish_e2e(out, pass_s, setup, peak_mb, slowdown);
}

/// Records the end-to-end metrics every workload reports. Times are
/// divided by the run's median host slowdown (see [`calib`]); the report
/// lines keep the raw wall times beside the slowdown samples.
fn finish_e2e(
    out: &mut Outcome,
    pass_s: Vec<f64>,
    setup: Vec<f64>,
    peak_mb: f64,
    slowdown: Vec<f64>,
) {
    let f = stats::median(&slowdown);
    let at_reference = |v: &[f64]| Some(stats::median(v) / f);
    out.result = vec![
        ("pass_s".into(), "s", at_reference(&pass_s)),
        ("setup_s".into(), "s", at_reference(&setup)),
        ("peak_rss_mb".into(), "MB", Some(peak_mb)),
    ];
    out.sampled("pass_wall_s", "s", pass_s);
    out.sampled("setup_wall_s", "s", setup);
    out.sampled("host_slowdown", "ratio", slowdown);
    out.sampled("peak_rss_mb", "MB", vec![peak_mb]);
}

fn serve_space(ctx: &Ctx) -> plan::KeySpace {
    let analyze_algos: Vec<String> = mmio_algos::registry::all_base_graphs()
        .into_iter()
        .filter(|g| g.b() <= 30)
        .map(|g| g.name().to_string())
        .collect();
    plan::key_space(ctx.seed, ctx.algos, &analyze_algos, ctx.scale.limits)
}

/// The untraced serve-mix workload.
fn run_serve(ctx: &Ctx, seconds: f64, forge: bool, out: &mut Outcome) -> Result<(), String> {
    // The kernel cannot run beside the server, so it runs before the set-up
    // and after the load.
    let mut slowdown: Vec<f64> = (0..KERNELS).map(|_| calib::slowdown()).collect();
    let mut setup = serve::prepare(ctx.seed, serve_space(ctx), &ctx.work, ctx.threads, forge)?;
    let load = serve::load(&mut setup, seconds)?;
    slowdown.extend((0..KERNELS).map(|_| calib::slowdown()));
    record_load(&load, out);
    let peak_mb = load.peak_kb as f64 / 1024.0;
    let setup_s = load.setup_s.clone();
    finish_e2e(out, load.block_s(), setup_s, peak_mb, slowdown);
    Ok(())
}

/// Counts a load's requests and failures and records its serve metrics.
fn record_load(load: &serve::Load, out: &mut Outcome) {
    out.attempted += load.samples.len() as u64;
    let failed = load.samples.len() - load.ok();
    for e in &load.errors {
        if out.errors.len() < 20 {
            out.errors.push(e.clone());
        }
    }
    out.failed += failed as u64;
    let lat = load.latencies();
    out.sampled("serve_p50_ms", "ms", lat.clone());
    match stats::percentile(&lat, 99.0) {
        Some(p99) => out.sampled("serve_p99_ms", "ms", vec![p99]),
        None => println!(
            "metric serve_p99_ms ms refused: {} samples leave fewer than 10 beyond p99",
            lat.len()
        ),
    }
    out.sampled("serve_rps", "1/s", vec![load.ok() as f64 / load.wall_s]);
    let cached = load.samples.iter().filter(|s| s.cached).count();
    out.sampled(
        "serve_cached_frac",
        "frac",
        vec![cached as f64 / load.samples.len().max(1) as f64],
    );
}

/// One traced pass of every workload: per-layer metrics, byte-identity of
/// the reassembled outputs, and the tracing overhead. The batch passes run
/// algorithm `A` only, which keeps a traced run near a minute; each command
/// runs untraced and traced back to back, the order alternating by unit so
/// drift of the host biases neither side.
fn run_traced(ctx: &Ctx, seconds: f64, out: &mut Outcome) -> Result<(), String> {
    let mut layer: stats::Metrics = Vec::new();
    for workload in ["certify-deep", "proof-sim"] {
        let units = batch_units(ctx, workload, &ctx.algos[..1]);
        let (mut plain, mut traced) = (0.0, 0.0);
        let mut runs: Vec<(Cmd, ChildRun)> = Vec::new();
        for (i, u) in plan::pass_order(ctx.seed, 0, units.len())
            .into_iter()
            .enumerate()
        {
            let (algo, ref cmds) = units[u];
            let sides = if i % 2 == 0 {
                [false, true]
            } else {
                [true, false]
            };
            for &cmd in cmds {
                for tr in sides {
                    out.attempted += 1;
                    let run = match ctx.sample(algo, cmd, tr) {
                        Ok(run) => run,
                        Err(e) => {
                            out.fail(e);
                            continue;
                        }
                    };
                    if let Err(e) = ctx.check(algo, cmd, &run) {
                        out.fail(format!("{}{e}", if tr { "traced: " } else { "" }));
                    }
                    if tr {
                        let probes: f64 = run
                            .report
                            .spans
                            .iter()
                            .filter(|s| s.probe)
                            .map(|s| s.duration())
                            .sum();
                        traced += run.wall_s - probes;
                        runs.push((cmd, run));
                    } else {
                        plain += run.wall_s;
                    }
                }
            }
        }
        layer.extend(batch_layers(ctx, &runs));
        layer.push((
            format!("trace_overhead_frac.{workload}"),
            "frac",
            Some(traced / plain - 1.0),
        ));
    }

    let mut setup = serve::prepare(ctx.seed, serve_space(ctx), &ctx.work, ctx.threads, false)?;
    let load = serve::load(&mut setup, seconds.min(TRACE_SERVE_SECONDS))?;
    record_load(&load, out);
    let (serve_layers, overhead, mismatches) = serve::layer_metrics(&mut setup, &load)?;
    if mismatches > 0 {
        out.fail(format!(
            "serve replay: {mismatches} payload(s) differ from the batch rendering"
        ));
    }
    layer.extend(serve_layers);
    layer.push((
        "trace_overhead_frac.serve-mix".into(),
        "frac",
        Some(overhead),
    ));
    out.result = layer;
    Ok(())
}

/// Per-layer metrics of the batch layers from one traced pass.
fn batch_layers(ctx: &Ctx, runs: &[(Cmd, ChildRun)]) -> stats::Metrics {
    let of = |cmd: Cmd| runs.iter().filter(move |(c, _)| *c == cmd).map(|(_, r)| r);
    let self_s = |name: &str| -> f64 {
        runs.iter()
            .map(|(_, r)| trace::self_time_of(&r.report.spans, name))
            .sum()
    };
    let count = |name: &str| -> f64 { runs.iter().map(|(_, r)| r.report.get(name)).sum() };
    let rss = |name: &str| -> Option<f64> {
        let v: Vec<Option<f64>> = runs
            .iter()
            .flat_map(|(_, r)| {
                r.report
                    .rss
                    .iter()
                    .filter(|(n, _)| n == name)
                    .map(|(_, v)| *v)
            })
            .collect();
        v.iter()
            .copied()
            .collect::<Option<Vec<f64>>>()
            .and_then(|v| v.into_iter().reduce(f64::max))
    };
    let root = |cmd: Cmd, name: &str| -> f64 {
        of(cmd)
            .flat_map(|r| {
                r.report
                    .spans
                    .iter()
                    .filter(|s| s.name == name && s.parent.is_none())
            })
            .map(trace::Span::duration)
            .sum()
    };
    let per = |a: f64, b: f64, scale: f64| (b > 0.0).then(|| a / b * scale);
    let mut m: stats::Metrics = Vec::new();
    let mut put =
        |name: &str, unit: &'static str, v: Option<f64>| m.push((name.to_string(), unit, v));
    if runs.iter().any(|(c, _)| matches!(c, Cmd::Certify { .. })) {
        for phase in ["graph", "order", "meta", "lemma1", "mask", "segments"] {
            put(
                &format!("certify.{phase}_s"),
                "s",
                Some(self_s(&format!("certify.{phase}"))),
            );
        }
        put("certify.vertices", "count", Some(count("certify.vertices")));
        put("certify.segments", "count", Some(count("certify.segments")));
        put(
            "certify.segments_us_per_segment",
            "us",
            per(self_s("certify.segments"), count("certify.segments"), 1e6),
        );
        let [shallow, deep] = ctx.scale.certify;
        put(
            "certify.r7_over_r6",
            "ratio",
            per(root(deep, "certify"), root(shallow, "certify"), 1.0),
        );
        put("certify.graph_rss_mb", "MB", rss("certify.graph"));
        put("certify.segments_rss_mb", "MB", rss("certify.segments"));
        return m;
    }
    put(
        "routing.class_build_s",
        "s",
        Some(self_s("routing.class_build")),
    );
    put(
        "routing.transport_s",
        "s",
        Some(self_s("routing.transport")),
    );
    for (cmd, tag) in ctx.scale.routing.iter().zip(["r6", "r7"]) {
        let (t, copies) = of(*cmd).fold((0.0, 0.0), |(t, n), r| {
            (
                t + trace::self_time_of(&r.report.spans, "routing.transport"),
                n + r.report.get("routing.copies"),
            )
        });
        put(
            &format!("routing.transport_us_per_copy.{tag}"),
            "us",
            per(t, copies, 1e6),
        );
    }
    put("routing.copies", "count", Some(count("routing.copies")));
    put(
        "routing.paths_per_copy",
        "count",
        per(count("routing.paths"), count("routing.copies"), 1.0),
    );
    for k in ["routing", "schedule", "sweep"] {
        put(
            &format!("cert.emit_{k}_s"),
            "s",
            Some(self_s(&format!("cert.emit_{k}"))),
        );
    }
    for k in ["routing", "schedule", "sweep"] {
        put(
            &format!("cert.verify_{k}_s"),
            "s",
            Some(self_s(&format!("cert.verify_{k}"))),
        );
    }
    put(
        "cert.verify_us_per_copy",
        "us",
        per(
            self_s("cert.verify_routing"),
            count("cert.routing_copies"),
            1e6,
        ),
    );
    put("cert.bytes", "count", Some(count("cert.bytes")));
    for phase in ["viewgraph", "order", "schedule"] {
        put(
            &format!("pebble.{phase}_s"),
            "s",
            Some(self_s(&format!("pebble.{phase}"))),
        );
    }
    put(
        "pebble.ns_per_vertex",
        "ns",
        per(self_s("pebble.schedule"), count("pebble.vertices"), 1e9),
    );
    put("pebble.io", "count", Some(count("pebble.io")));
    put("distsim.assign_s", "s", Some(self_s("distsim.assign")));
    put("distsim.simulate_s", "s", Some(self_s("distsim.simulate")));
    put(
        "distsim.contention_s",
        "s",
        Some(self_s("distsim.contended") - self_s("distsim.simulate")),
    );
    put(
        "distsim.total_words",
        "count",
        Some(count("distsim.total_words")),
    );
    put("distsim.makespan", "count", Some(count("distsim.makespan")));
    m
}

/// 64-bit FNV-1a over several byte strings.
fn fnv_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A fingerprint of the program's sources (every `.rs` and `.toml` under
/// `crates/`, and `Cargo.lock`), which identifies the code measured where
/// no git metadata is present.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            h = fnv_update(h, f.display().to_string().as_bytes());
            h = fnv_update(h, &bytes);
        }
    }
    format!("{h:016x}")
}

/// The checked-out commit, read from `.git` when there is one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn print_report(out: &Outcome) {
    for (name, unit, samples) in &out.report {
        let s = stats::Summary::of(samples);
        println!(
            "metric {name} {unit} n={} median={} q1={} q3={}",
            s.n, s.median, s.q1, s.q3
        );
    }
    // The drift note: how far this run's own samples spread.
    for (name, _, samples) in &out.report {
        if samples.len() >= 2 {
            let s = stats::Summary::of(samples);
            let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            println!(
                "drift {name}: {} samples from {lo} to {hi}, quartiles {:.1}% of the median apart",
                s.n,
                100.0 * s.spread()
            );
        }
    }
    let frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!("metric failed_frac frac n={} value={frac}", out.attempted);
    for (name, unit, v) in &out.result {
        match v {
            Some(v) => println!("result {name} {unit} {v}"),
            None => println!("result {name} {unit} null"),
        }
    }
    for e in &out.errors {
        println!("FAILED {e}");
    }
}

fn json_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .result
        .iter()
        .map(|(name, unit, v)| {
            let v = match v {
                Some(v) if v.is_finite() => v.to_string(),
                _ => "null".into(),
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn run(opts: &Opts) -> Result<Outcome, String> {
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let algos = plan::algos(opts.seed);
    let algo = algos[0];
    let work = PathBuf::from(".perfbench_work").join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let ctx = Ctx {
        seed: opts.seed,
        algos,
        threads: host_cores.min(2),
        work,
        golden: opts.golden.clone(),
        scale: scale(opts.tiny),
    };
    // Refuse to start without goldens: a run that cannot check its
    // outputs must not report numbers.
    ctx.golden_text(algo, ctx.scale.certify[0])?;
    let clear_refs = proc::reset_hwm();
    println!(
        "meta workload={} seed={} algo={algo} trace={} host_cores={host_cores} threads={} \
         commit={} source_fnv={} rustc=\"{}\" clear_refs={clear_refs} seconds={}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace),
        ctx.threads,
        commit(),
        source_fingerprint(),
        env!("PERFBENCH_RUSTC"),
        opts.seconds,
    );
    let mut out = Outcome::default();
    let result = if opts.trace {
        run_traced(&ctx, opts.seconds, &mut out)
    } else if opts.workload == "serve-mix" {
        run_serve(&ctx, opts.seconds, opts.forge_memo, &mut out)
    } else {
        run_batch(&ctx, &opts.workload, opts.seconds, &mut out);
        Ok(())
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let _ = std::fs::remove_dir(".perfbench_work");
    result?;
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("__child") => batch::child_main(&args[1..]),
        Some("__serve") => serve::server_main(&args[1..]),
        _ => match parse_opts(&args).and_then(|o| run(&o)) {
            Ok(out) => {
                print_report(&out);
                println!("{}", json_line(&out));
                i32::from(out.failed > 0)
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                2
            }
        },
    };
    ExitCode::from(u8::try_from(code).unwrap_or(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let out = Outcome {
            attempted: 4,
            failed: 1,
            result: vec![("pass_s".into(), "s", Some(1.5)), ("x".into(), "MB", None)],
            ..Outcome::default()
        };
        assert_eq!(
            json_line(&out),
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, \"metrics\": \
             {\"pass_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"x\": {\"value\": null, \"unit\": \"MB\"}}}"
        );
    }

    #[test]
    fn io_figures_parse_from_cli_output() {
        let c = "n = 128, M = 64: 1029 complete segments, certified I/O ≥ 986624\n(k = 4)\n";
        assert_eq!(certified_io(c), Ok(986624));
        let s = "n = 128, M = 64: 1 loads + 2 stores = 3745226 I/Os (Ω bound 1, ratio 2)\n";
        assert_eq!(simulated_io(s), Ok(3745226));
        assert!(certified_io("nothing").is_err());
    }
}
