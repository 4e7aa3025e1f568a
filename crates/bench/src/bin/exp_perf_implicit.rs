//! P3 — the implicit (closed-form) `CdagView` against the explicit graph.
//!
//! Two measurements, written to `BENCH_implicit.json` at the workspace
//! root (the checked-in perf record; CI re-runs a reduced workload and
//! uploads its own copy as an artifact):
//!
//! 1. **Certify sweep**: the full Theorem 1 certification pipeline
//!    (meta-vertices, `k` selection, Lemma 1 subcomputation selection,
//!    segment analysis) per `(algo, r)`, once on a materialized `Cdag`
//!    and once on the [`IndexView`] — wall-clock and peak RSS for each.
//!    The certificates must agree field-for-field wherever both run; the
//!    binary exits nonzero on any divergence. The sweep stops at the
//!    largest depth the explicit side still materializes comfortably
//!    (the scale-emit measurement is the beyond-that story).
//! 2. **Scale emit** (`r = 8`): `mmio cert emit`-equivalent certificate
//!    emission for Strassen at a depth whose explicit graph (≈40M
//!    vertices) aborts under a 768 MB cap — the implicit path emits the
//!    same routing certificate in milliseconds at a few MB of RSS
//!    (CI enforces the cap itself in the `implicit-scale` job).
//!
//! Peak RSS is read from `/proc/self/status` (`VmHWM`) after resetting
//! the high-water mark through `/proc/self/clear_refs`; on systems
//! without those files the fields are null and only wall-clock is
//! recorded. The allocator retains freed pages, so a reading is floored
//! at whatever RSS earlier workloads left behind — the emit measurement
//! runs first and the sweep rows run smallest-first to keep each
//! reading dominated by its own workload.
//!
//! `MMIO_BENCH_SMOKE=1` runs a reduced workload (CI's bench-smoke job):
//! smaller sweeps, same divergence checks, same output schema.

use mmio_algos::strassen::{strassen, winograd};
use mmio_cdag::build::build_cdag;
use mmio_cdag::view::count_vertices;
use mmio_cdag::{BaseGraph, IndexView};
use mmio_core::theorem1::{certify_pooled, CertifyParams};
use mmio_core::transport::RoutingClass;
use mmio_parallel::Pool;
use mmio_pebble::orders::recursive_order;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Measure {
    wall_ms: f64,
    peak_rss_kb: Option<u64>,
}

#[derive(Serialize)]
struct CertifyRecord {
    algo: String,
    r: u32,
    n_vertices: u64,
    m: u64,
    explicit: Option<Measure>,
    implicit: Measure,
    /// `Some(true)` when both views ran and produced identical
    /// certificates; `None` when the explicit side was skipped.
    identical: Option<bool>,
}

#[derive(Serialize)]
struct EmitRecord {
    algo: String,
    r: u32,
    routing_k: u32,
    wall_ms: f64,
    peak_rss_kb: Option<u64>,
    certificate_bytes: usize,
}

#[derive(Serialize)]
struct BenchRecord {
    experiment: &'static str,
    host_cores: usize,
    smoke: bool,
    certify_sweep: Vec<CertifyRecord>,
    scale_emit: Vec<EmitRecord>,
    determinism: &'static str,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Resets the process's RSS high-water mark (`VmHWM`), so the next
/// [`peak_rss_kb`] reading covers only the workload in between. No-op on
/// kernels without `/proc/self/clear_refs`.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Current `VmHWM` in KiB, if the kernel exposes it.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Runs `work` with a fresh RSS high-water mark, returning its result
/// alongside wall-clock and peak memory.
fn measured<T>(work: impl FnOnce() -> T) -> (T, Measure) {
    reset_peak_rss();
    let t = Instant::now();
    let out = work();
    let wall_ms = ms(t);
    (
        out,
        Measure {
            wall_ms,
            peak_rss_kb: peak_rss_kb(),
        },
    )
}

fn fmt_rss(m: &Measure) -> String {
    match m.peak_rss_kb {
        Some(kb) => format!("{:.1} MB", kb as f64 / 1024.0),
        None => "n/a".to_string(),
    }
}

fn main() {
    let smoke = std::env::var("MMIO_BENCH_SMOKE").is_ok_and(|v| v == "1");
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = Pool::new(4.min(host_cores));
    let mut determinism_ok = true;

    // --- 1. Scale emit at r = 8 ---------------------------------------------
    // Routing-certificate emission only ever materializes G_k (the Fact-1
    // transport into G_r is symbolic), so r = 8 emits in milliseconds at a
    // few MB — while `build_cdag(strassen, 8)` (≈40M vertices) aborts under
    // a 768 MB cap. The CI `implicit-scale` job enforces that cap end to
    // end; here we record the implicit side's cost.
    let scale_base = strassen();
    let scale_r = 8;
    let routing_k = 2;
    let ((class_ok, cert_bytes), emit_measure) = measured(|| {
        let class = RoutingClass::build(&scale_base, routing_k, &pool);
        match class {
            Some(class) => {
                let cert = mmio_core::transport::emit_certificate(&class, scale_r);
                (true, cert.to_json().len())
            }
            None => (false, 0),
        }
    });
    if !class_ok {
        eprintln!("DIVERGENCE: strassen lost its Hall matching");
        determinism_ok = false;
    }
    println!(
        "\nP3b: routing-certificate emission at r = {scale_r} (G_r ≈ {} vertices, never built): \
         {:.1} ms, peak {} — {} certificate bytes",
        count_vertices(scale_base.a() as u64, scale_base.b() as u64, scale_r)
            .expect("in u64 range"),
        emit_measure.wall_ms,
        fmt_rss(&emit_measure),
        cert_bytes
    );
    let scale_emit = vec![EmitRecord {
        algo: scale_base.name().to_string(),
        r: scale_r,
        routing_k,
        wall_ms: emit_measure.wall_ms,
        peak_rss_kb: emit_measure.peak_rss_kb,
        certificate_bytes: cert_bytes,
    }];

    // --- 2. Certify sweep ---------------------------------------------------
    // Rows run smallest-first (r ascending across algorithms) so the RSS
    // floor a row inherits comes from a smaller workload, not a larger one.
    // The bool marks rows where the explicit side still materializes.
    let rows: Vec<(BaseGraph, u32, bool)> = if smoke {
        vec![(strassen(), 3, true), (strassen(), 4, true)]
    } else {
        vec![
            (strassen(), 3, true),
            (winograd(), 3, true),
            (strassen(), 4, true),
            (winograd(), 4, true),
            (strassen(), 5, true),
            (winograd(), 5, true),
            (strassen(), 6, true),
            (winograd(), 6, true),
            (strassen(), 7, true),
        ]
    };
    let m: u64 = 64;
    let mut certify_sweep = Vec::new();
    println!("\nP3a: certify pipeline, explicit Cdag vs implicit IndexView (M = {m})\n");
    println!(
        "{:<10} {:>2} {:>10} | {:>12} {:>12} | {:>12} {:>12} | certs",
        "algo", "r", "vertices", "expl ms", "expl RSS", "impl ms", "impl RSS"
    );
    for (base, r, run_explicit) in &rows {
        let (base, r) = (base, *r);
        let n_vertices = count_vertices(base.a() as u64, base.b() as u64, r).expect("in u64 range");

        let (implicit_cert, implicit) = measured(|| {
            let v = IndexView::from_base(base, r);
            let order = recursive_order(&v);
            certify_pooled(base, &v, m, &order, CertifyParams::SMALL, &pool)
        });
        let explicit = run_explicit.then(|| {
            measured(|| {
                let g = build_cdag(base, r);
                let order = recursive_order(&g);
                certify_pooled(base, &g, m, &order, CertifyParams::SMALL, &pool)
            })
        });

        let identical = explicit.as_ref().map(|(cert, _)| {
            let same = format!("{cert:?}") == format!("{implicit_cert:?}");
            if !same {
                eprintln!(
                    "DIVERGENCE: {} r={r}: explicit {cert:?} vs implicit {implicit_cert:?}",
                    base.name()
                );
                determinism_ok = false;
            }
            same
        });

        println!(
            "{:<10} {r:>2} {n_vertices:>10} | {:>12} {:>12} | {:>12.1} {:>12} | {}",
            base.name(),
            explicit
                .as_ref()
                .map_or("—".to_string(), |(_, e)| format!("{:.1}", e.wall_ms)),
            explicit
                .as_ref()
                .map_or("—".to_string(), |(_, e)| fmt_rss(e)),
            implicit.wall_ms,
            fmt_rss(&implicit),
            match identical {
                Some(true) => "identical",
                Some(false) => "DIVERGED",
                None => "implicit only",
            }
        );
        certify_sweep.push(CertifyRecord {
            algo: base.name().to_string(),
            r,
            n_vertices,
            m,
            explicit: explicit.map(|(_, e)| e),
            implicit,
            identical,
        });
    }

    // --- Record -------------------------------------------------------------
    let record = BenchRecord {
        experiment: "perf_implicit",
        host_cores,
        smoke,
        certify_sweep,
        scale_emit,
        determinism: if determinism_ok {
            "identical"
        } else {
            "DIVERGED"
        },
    };
    let mut path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    path.pop();
    path.pop();
    path.push("BENCH_implicit.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&record).expect("serializable"),
    )
    .expect("write BENCH_implicit.json");
    println!("\nwrote {}", path.display());

    assert!(
        determinism_ok,
        "explicit/implicit certificate divergence (see stderr)"
    );
}
