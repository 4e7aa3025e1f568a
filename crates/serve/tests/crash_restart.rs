//! The kill-mid-persist crash/restart cycle, with a *real* process death:
//! the test re-execs its own binary; the child persists one snapshot
//! cleanly and then hits a scripted [`PersistFault::AbortProcess`] —
//! `std::process::abort()` mid-temp-write, no unwinding, no destructors,
//! the closest in-process stand-in for SIGKILL. The parent then restarts
//! over the same cache directory and asserts the full recovery contract:
//! the orphaned temp is swept, the published snapshot survived intact,
//! nothing was quarantined, and a fresh engine serves bytes identical to
//! the batch CLI (as a warm hit, proving the snapshot really was reread).

use mmio_parallel::Pool;
use mmio_serve::cache::{CacheKey, DiskCache};
use mmio_serve::engine::{Engine, EngineConfig};
use mmio_serve::faults::{NoFaults, PersistFault, ScriptedFaults};
use mmio_serve::protocol::{Op, Request, Status};
use mmio_serve::{codes, ops};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const CHILD_ENV: &str = "MMIO_CRASH_CHILD_DIR";

fn certify_key() -> CacheKey {
    CacheKey {
        kind: "certify",
        algo: "strassen".to_string(),
        k: 2,
        extra: "m=49".to_string(),
    }
}

fn batch_certify_payload() -> String {
    ops::certify(
        &ops::resolve_registry("strassen").unwrap(),
        2,
        49,
        &Pool::serial(),
    )
}

/// The child half: runs only when re-exec'd by the parent test (gated on
/// the env var), publishes one snapshot, then dies mid-persist.
#[test]
#[ignore = "child half of kill_mid_persist_then_restart_recovers; spawned via re-exec"]
fn crash_child_aborts_mid_persist() {
    let Some(dir) = std::env::var_os(CHILD_ENV) else {
        // Invoked directly (e.g. `--ignored` sweep): nothing to do.
        return;
    };
    let hook = Arc::new(ScriptedFaults::new().script_persists([
        PersistFault::None,
        PersistFault::AbortProcess { keep_bytes: 37 },
    ]));
    let (cache, _) = DiskCache::open(PathBuf::from(dir), hook).unwrap();
    // First persist publishes cleanly — this snapshot must survive the
    // crash byte-for-byte.
    cache.put(&certify_key(), &batch_certify_payload());
    // Second persist aborts the process 37 bytes into the temp file.
    let doomed = CacheKey {
        kind: "analyze",
        algo: "strassen".to_string(),
        k: 2,
        extra: String::new(),
    };
    cache.put(&doomed, "this entry never gets published");
    unreachable!("AbortProcess must have killed the process");
}

#[test]
fn kill_mid_persist_then_restart_recovers() {
    let dir = std::env::temp_dir().join(format!("mmio_crash_restart_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Re-exec this test binary, running only the (ignored) child test.
    let exe = std::env::current_exe().unwrap();
    let output = std::process::Command::new(&exe)
        .args([
            "--exact",
            "crash_child_aborts_mid_persist",
            "--ignored",
            "--nocapture",
        ])
        .env(CHILD_ENV, &dir)
        .output()
        .expect("re-exec the test binary");
    assert!(
        !output.status.success(),
        "the child must die by abort, not exit cleanly: {output:?}"
    );

    // The crash site: exactly one published snapshot plus one orphaned
    // `.tmp-` from the interrupted persist.
    let key = certify_key();
    let shard = dir.join(format!("shard{:02}", key.shard()));
    assert!(
        shard.join(key.file_name()).exists(),
        "published snapshot must survive the crash"
    );
    let orphans: Vec<_> = (0..8)
        .flat_map(|s| {
            std::fs::read_dir(dir.join(format!("shard{s:02}")))
                .unwrap()
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
                .collect::<Vec<_>>()
        })
        .collect();
    assert_eq!(orphans.len(), 1, "exactly one torn temp at the crash site");

    // Restart: recovery sweeps the orphan, keeps the good snapshot, and
    // reports it all through typed diagnostics — never a panic.
    let (engine, report) = Engine::start(
        EngineConfig {
            cache_dir: Some(dir.clone()),
            ..EngineConfig::small()
        },
        Arc::new(NoFaults),
    )
    .unwrap();
    assert_eq!(report.valid, 1, "the published snapshot recovered");
    assert_eq!(report.orphans_swept, 1, "the torn temp swept");
    assert!(
        report.quarantined.is_empty(),
        "nothing to quarantine: {:?}",
        report.quarantined
    );
    let diags = engine.cache().unwrap().take_diags();
    assert!(
        diags.iter().any(|d| d.code == codes::SERVE_ORPHAN_TEMP),
        "{diags:?}"
    );

    // The restarted server serves the crashed-process's snapshot as a warm
    // hit, byte-identical to the batch CLI.
    let resp = engine.submit(Request {
        id: 1,
        deadline_ms: None,
        op: Op::Certify {
            algo: "strassen".into(),
            r: 2,
            m: 49,
        },
    });
    assert_eq!(resp.status, Status::Ok, "{resp:?}");
    assert!(resp.cached, "recovered snapshot must serve as a hit");
    assert_eq!(
        resp.payload.as_deref(),
        Some(batch_certify_payload().as_str())
    );
    assert!(engine.shutdown(Duration::from_secs(10)));
    let _ = std::fs::remove_dir_all(&dir);
}
