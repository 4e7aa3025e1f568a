//! The serve-tier fault campaign, as a reporting binary: every scenario
//! from the fault-injection harness (`tests/fault_suite.rs` and
//! `tests/crash_restart.rs`) re-run end-to-end, with a machine-readable
//! JSON report for CI's `serve-faults` job to upload as an artifact.
//!
//! Exits nonzero if *any* scenario fails — the report is evidence, the
//! exit code is the gate. Output path: `--out <path>` (default
//! `serve_faults_report.json` in the working directory).
//!
//! The kill-mid-persist scenario re-execs this binary; the child half is
//! gated on the `MMIO_SERVE_FAULTS_CHILD` environment variable (the cache
//! directory to crash into) and dies by `std::process::abort()` mid-write.

use mmio_parallel::Pool;
use mmio_serve::cache::{CacheKey, DiskCache};
use mmio_serve::engine::{Engine, EngineConfig};
use mmio_serve::faults::{NoFaults, PersistFault, ReadFault, ScriptedFaults};
use mmio_serve::protocol::{Op, Request, Status};
use mmio_serve::{codes, ops, FaultPlan};
use serde::Value;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

const CHILD_ENV: &str = "MMIO_SERVE_FAULTS_CHILD";

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmio_serve_faults_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cfg(cache: Option<PathBuf>) -> EngineConfig {
    EngineConfig {
        workers: 2,
        queue_cap: 16,
        max_spawns: 8,
        default_deadline: Duration::from_secs(60),
        cache_dir: cache,
        pool_threads: 1,
    }
}

fn certify(id: u64, deadline_ms: Option<u64>) -> Request {
    Request {
        id,
        deadline_ms,
        op: Op::Certify {
            algo: "strassen".into(),
            r: 2,
            m: 49,
        },
    }
}

fn certify_key() -> CacheKey {
    CacheKey {
        kind: "certify",
        algo: "strassen".to_string(),
        k: 2,
        extra: "m=49".to_string(),
    }
}

fn batch_payload() -> String {
    ops::certify(
        &ops::resolve_registry("strassen").unwrap(),
        2,
        49,
        &Pool::serial(),
    )
}

/// One scenario: `Ok(evidence)` or `Err(what went wrong)`.
type Outcome = Result<String, String>;

fn check(cond: bool, detail: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(detail.to_string())
    }
}

fn scenario_panic_isolation() -> Outcome {
    let hook = Arc::new(ScriptedFaults::new().script_panics([true]));
    let (engine, _) = Engine::start(cfg(None), hook).map_err(|e| e.to_string())?;
    let poisoned = engine.submit(certify(1, None));
    check(
        poisoned.status == Status::Panicked && poisoned.code == Some(codes::SERVE_JOB_PANIC),
        &format!("expected typed panic response, got {poisoned:?}"),
    )?;
    let next = engine.submit(certify(2, None));
    check(
        next.status == Status::Ok && next.payload.as_deref() == Some(batch_payload().as_str()),
        &format!("server did not survive the panic: {next:?}"),
    )?;
    check(
        engine.shutdown(Duration::from_secs(10)),
        "workers failed to drain",
    )?;
    Ok("injected panic → typed MMIO-F006, next request batch-identical".to_string())
}

fn scenario_wedge_deadline() -> Outcome {
    let hook = Arc::new(ScriptedFaults::new().script_wedges([Some(Duration::from_secs(30))]));
    let (engine, _) = Engine::start(
        EngineConfig {
            workers: 1,
            max_spawns: 4,
            ..cfg(None)
        },
        hook,
    )
    .map_err(|e| e.to_string())?;
    let wedged = engine.submit(certify(1, Some(100)));
    check(
        wedged.status == Status::DeadlineExceeded && wedged.code == Some(codes::SERVE_DEADLINE),
        &format!("expected typed deadline, got {wedged:?}"),
    )?;
    check(
        engine.worker_replacements() == 1,
        "wedged worker was not replaced",
    )?;
    let next = engine.submit(certify(2, Some(30_000)));
    check(
        next.status == Status::Ok && next.payload.as_deref() == Some(batch_payload().as_str()),
        &format!("replacement worker did not serve: {next:?}"),
    )?;
    engine.shutdown(Duration::from_millis(50));
    Ok("30 s wedge → MMIO-F007 in 100 ms, worker replaced, service restored".to_string())
}

fn scenario_saturation_shed() -> Outcome {
    let hook = Arc::new(ScriptedFaults::new().script_wedges([Some(Duration::from_secs(2))]));
    let (engine, _) = Engine::start(
        EngineConfig {
            workers: 1,
            queue_cap: 1,
            max_spawns: 2,
            ..cfg(None)
        },
        hook,
    )
    .map_err(|e| e.to_string())?;
    let engine = Arc::new(engine);
    let e1 = Arc::clone(&engine);
    let h1 = std::thread::spawn(move || e1.submit(certify(1, None)));
    std::thread::sleep(Duration::from_millis(200));
    let e2 = Arc::clone(&engine);
    let h2 = std::thread::spawn(move || e2.submit(certify(2, None)));
    std::thread::sleep(Duration::from_millis(200));
    let t0 = std::time::Instant::now();
    let shed = engine.submit(certify(3, None));
    check(
        t0.elapsed() < Duration::from_millis(500),
        &format!("shedding blocked for {:?}", t0.elapsed()),
    )?;
    check(
        shed.status == Status::Overloaded && shed.code == Some(codes::SERVE_OVERLOADED),
        &format!("expected typed overload, got {shed:?}"),
    )?;
    let expect = batch_payload();
    for h in [h1, h2] {
        let resp = h.join().map_err(|_| "submitter thread panicked")?;
        check(
            resp.status == Status::Ok && resp.payload.as_deref() == Some(expect.as_str()),
            &format!("queued request corrupted: {resp:?}"),
        )?;
    }
    check(
        engine.shutdown(Duration::from_secs(10)),
        "workers failed to drain",
    )?;
    Ok("cap-1 queue under a wedge → immediate typed MMIO-F008, queued work intact".to_string())
}

fn scenario_dead_disk_degrade() -> Outcome {
    let dir = tmpdir("deaddisk");
    let hook = Arc::new(
        ScriptedFaults::new()
            .script_persists(vec![PersistFault::TransientError; 64])
            .script_reads(vec![ReadFault::TransientError; 64]),
    );
    let (engine, _) = Engine::start(cfg(Some(dir.clone())), hook).map_err(|e| e.to_string())?;
    let expect = batch_payload();
    for id in 0..3 {
        let resp = engine.submit(certify(id, None));
        check(
            resp.status == Status::Ok && !resp.cached,
            &format!("dead disk failed a request: {resp:?}"),
        )?;
        check(
            resp.payload.as_deref() == Some(expect.as_str()),
            "dead-disk recompute diverged from batch",
        )?;
    }
    let cache = engine.cache().expect("cache configured");
    let degraded = cache.counters.degraded.load(Ordering::Relaxed);
    check(degraded >= 2, "degradations not counted")?;
    let diags = cache.take_diags();
    check(
        diags.iter().any(|d| d.code == codes::SERVE_CACHE_DEGRADED),
        "no MMIO-F005 diagnostic emitted",
    )?;
    engine.shutdown(Duration::from_secs(10));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(format!(
        "every cache I/O failing → {degraded} typed MMIO-F005 degradations, zero failed requests"
    ))
}

fn scenario_corruption_quarantine() -> Outcome {
    let dir = tmpdir("corrupt");
    let (engine, _) =
        Engine::start(cfg(Some(dir.clone())), Arc::new(NoFaults)).map_err(|e| e.to_string())?;
    let expect = batch_payload();
    engine.submit(certify(1, None));
    let key = certify_key();
    let path = dir
        .join(format!("shard{:02}", key.shard()))
        .join(key.file_name());
    let mut bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
    let text = String::from_utf8(bytes.clone()).map_err(|e| e.to_string())?;
    let i = text.find("complete").ok_or("payload text missing")?;
    bytes[i] ^= 0x20;
    std::fs::write(&path, &bytes).map_err(|e| e.to_string())?;
    let after = engine.submit(certify(2, None));
    check(
        after.status == Status::Ok && !after.cached,
        &format!("corrupt snapshot served or failed: {after:?}"),
    )?;
    check(
        after.payload.as_deref() == Some(expect.as_str()),
        "recompute after corruption diverged from batch",
    )?;
    let diags = engine.cache().expect("cache").take_diags();
    check(
        diags
            .iter()
            .any(|d| d.code == codes::SERVE_SNAPSHOT_CHECKSUM),
        "no MMIO-F002 diagnostic emitted",
    )?;
    check(
        dir.join("quarantine")
            .read_dir()
            .map_err(|e| e.to_string())?
            .next()
            .is_some(),
        "corrupt file not preserved in quarantine/",
    )?;
    engine.shutdown(Duration::from_secs(10));
    let _ = std::fs::remove_dir_all(&dir);
    Ok("bit flip → MMIO-F002, quarantined, recompute batch-identical".to_string())
}

fn scenario_seeded_campaigns() -> Outcome {
    let expect = batch_payload();
    let seeds = [7u64, 1312, 0xC0FFEE, 0xDEAD];
    for &seed in &seeds {
        let dir = tmpdir(&format!("seed{seed}"));
        let hook = Arc::new(FaultPlan::seeded(seed, 48));
        let (engine, _) = Engine::start(
            EngineConfig {
                workers: 4,
                queue_cap: 32,
                ..cfg(Some(dir.clone()))
            },
            hook,
        )
        .map_err(|e| e.to_string())?;
        let engine = Arc::new(engine);
        let handles: Vec<_> = (0..16)
            .map(|id| {
                let e = Arc::clone(&engine);
                std::thread::spawn(move || e.submit(certify(id, Some(60_000))))
            })
            .collect();
        for h in handles {
            let resp = h.join().map_err(|_| "submitter thread panicked")?;
            check(
                resp.status == Status::Ok,
                &format!("seed {seed}: request failed: {resp:?}"),
            )?;
            check(
                resp.payload.as_deref() == Some(expect.as_str()),
                &format!("seed {seed}: corrupt bytes reached a response"),
            )?;
        }
        check(
            engine.shutdown(Duration::from_secs(10)),
            &format!("seed {seed}: workers failed to drain"),
        )?;
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(format!(
        "{} seeded campaigns × 16 concurrent requests: every response batch-identical",
        seeds.len()
    ))
}

fn scenario_crash_restart() -> Outcome {
    let dir = tmpdir("crash");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(&exe)
        .env(CHILD_ENV, &dir)
        .output()
        .map_err(|e| e.to_string())?;
    check(
        !output.status.success(),
        "child exited cleanly instead of aborting mid-persist",
    )?;
    let (engine, report) = Engine::start(cfg(Some(dir.clone())), Arc::new(NoFaults))
        .map_err(|e| format!("restart over crash site failed: {e}"))?;
    check(report.valid == 1, "published snapshot lost in the crash")?;
    check(report.orphans_swept == 1, "torn temp not swept on restart")?;
    check(
        report.quarantined.is_empty(),
        &format!("spurious quarantine: {:?}", report.quarantined),
    )?;
    let resp = engine.submit(certify(1, None));
    check(
        resp.status == Status::Ok && resp.cached,
        &format!("recovered snapshot not served as a hit: {resp:?}"),
    )?;
    check(
        resp.payload.as_deref() == Some(batch_payload().as_str()),
        "recovered snapshot diverged from batch",
    )?;
    engine.shutdown(Duration::from_secs(10));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(
        "abort() mid-persist → restart sweeps 1 orphan, keeps 1 snapshot, warm hit identical"
            .to_string(),
    )
}

fn scenario_socket_concurrency() -> Outcome {
    let sock = std::env::temp_dir().join(format!("mmio_serve_faults_{}.sock", std::process::id()));
    let (engine, _) = Engine::start(
        EngineConfig {
            workers: 4,
            queue_cap: 64,
            ..cfg(None)
        },
        Arc::new(NoFaults),
    )
    .map_err(|e| e.to_string())?;
    let server = mmio_serve::Server::bind(&sock, Arc::new(engine)).map_err(|e| e.to_string())?;
    let h = std::thread::spawn(move || server.run());
    let expect = batch_payload();
    let clients: Vec<_> = (0..8)
        .map(|c| {
            let sock = sock.clone();
            let expect = expect.clone();
            std::thread::spawn(move || -> Result<(), String> {
                let mut client = mmio_serve::Client::connect_retry(&sock, Duration::from_secs(5))
                    .map_err(|e| e.to_string())?;
                for i in 0..4u64 {
                    let resp = client
                        .call(&certify(c * 100 + i, None))
                        .map_err(|e| e.to_string())?;
                    check(
                        resp.status == Status::Ok
                            && resp.payload.as_deref() == Some(expect.as_str()),
                        &format!("socket response diverged: {resp:?}"),
                    )?;
                }
                Ok(())
            })
        })
        .collect();
    for c in clients {
        c.join().map_err(|_| "client thread panicked")??;
    }
    let mut closer = mmio_serve::Client::connect_retry(&sock, Duration::from_secs(5))
        .map_err(|e| e.to_string())?;
    closer
        .call(&Request {
            id: 0,
            deadline_ms: None,
            op: Op::Shutdown,
        })
        .map_err(|e| e.to_string())?;
    h.join()
        .map_err(|_| "server thread panicked")?
        .map_err(|e| e.to_string())?;
    Ok("8 clients × 4 requests over the socket: every payload batch-identical".to_string())
}

/// The crash child: publish one snapshot, then die mid-persist.
fn run_child(dir: PathBuf) -> ! {
    let hook = Arc::new(ScriptedFaults::new().script_persists([
        PersistFault::None,
        PersistFault::AbortProcess { keep_bytes: 37 },
    ]));
    let (cache, _) = DiskCache::open(dir, hook).expect("child opens cache");
    cache.put(&certify_key(), &batch_payload());
    let doomed = CacheKey {
        kind: "analyze",
        algo: "strassen".to_string(),
        k: 2,
        extra: String::new(),
    };
    cache.put(&doomed, "this entry never gets published");
    unreachable!("AbortProcess must have killed the process");
}

fn main() -> ExitCode {
    if let Some(dir) = std::env::var_os(CHILD_ENV) {
        run_child(PathBuf::from(dir));
    }
    let out = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1).cloned())
            .unwrap_or_else(|| "serve_faults_report.json".to_string())
    };

    type Scenario = (&'static str, fn() -> Outcome);
    let scenarios: Vec<Scenario> = vec![
        ("panic_isolation", scenario_panic_isolation),
        ("wedge_deadline", scenario_wedge_deadline),
        ("saturation_shed", scenario_saturation_shed),
        ("dead_disk_degrade", scenario_dead_disk_degrade),
        ("corruption_quarantine", scenario_corruption_quarantine),
        ("seeded_campaigns", scenario_seeded_campaigns),
        ("crash_restart", scenario_crash_restart),
        ("socket_concurrency", scenario_socket_concurrency),
    ];

    println!("serve fault campaign ({} scenarios)\n", scenarios.len());
    let mut rows = Vec::new();
    let mut failed = 0usize;
    for (name, run) in scenarios {
        let outcome = run();
        let (passed, detail) = match &outcome {
            Ok(d) => (true, d.clone()),
            Err(d) => {
                failed += 1;
                (false, d.clone())
            }
        };
        println!(
            "  {} {:<24} {}",
            if passed { "PASS" } else { "FAIL" },
            name,
            detail
        );
        rows.push(Value::Object(vec![
            ("scenario".to_string(), Value::Str(name.to_string())),
            ("passed".to_string(), Value::Bool(passed)),
            ("detail".to_string(), Value::Str(detail)),
        ]));
    }

    let report = Value::Object(vec![
        (
            "campaign".to_string(),
            Value::Str("serve_faults".to_string()),
        ),
        ("scenarios".to_string(), Value::Array(rows)),
        ("failed".to_string(), Value::UInt(failed as u64)),
    ]);
    match std::fs::write(
        &out,
        format!(
            "{}\n",
            serde_json::to_string_pretty(&report).expect("serializable")
        ),
    ) {
        Ok(()) => println!("\nwrote {out}"),
        Err(e) => {
            eprintln!("error: writing {out}: {e}");
            return ExitCode::from(1);
        }
    }
    if failed > 0 {
        eprintln!("\n{failed} scenario(s) FAILED");
        return ExitCode::from(1);
    }
    println!("all scenarios passed");
    ExitCode::SUCCESS
}
