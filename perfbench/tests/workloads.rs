//! End-to-end tests of the benchmark binary on tiny instances: every
//! workload runs and checks its outputs, a tampered golden and a forged
//! serve payload are caught, and the printed metric names are the ones
//! `BENCHMARK.json` declares.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bench(dir: &Path, workload: &str, trace: u8, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--tiny"])
        .args(extra)
        .current_dir(dir)
        .output()
        .unwrap()
}

/// The last stdout line, which must be the result object.
fn result_line(out: &Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_string();
    assert!(last.starts_with("{\"correct\": "), "stdout:\n{stdout}");
    last
}

/// Metric names declared under `key` in the repository's BENCHMARK.json.
fn declared(key: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let section = text.split(&format!("\"{key}\"")).nth(1).unwrap();
    let section = &section[..section.find(']').unwrap()];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').unwrap()].to_string())
        .collect()
}

fn printed(line: &str) -> Vec<String> {
    let metrics = line.split("\"metrics\": {").nth(1).unwrap();
    metrics
        .split("}, \"")
        .map(|m| {
            m.trim_start_matches('"')
                .split('"')
                .next()
                .unwrap()
                .to_string()
        })
        .collect()
}

#[test]
fn every_workload_runs_end_to_end_and_reports_the_declared_metrics() {
    let e2e = declared("end_to_end");
    for workload in ["certify-deep", "proof-sim", "serve-mix"] {
        let dir = scratch(&format!("run-{workload}"));
        let out = bench(&dir, workload, 0, &[]);
        let line = result_line(&out);
        assert!(out.status.success(), "{workload}: {line}");
        assert!(
            line.contains("\"correct\": true, ") && line.contains("\"failed\": 0,"),
            "{line}"
        );
        assert_eq!(printed(&line), e2e, "{workload}");
        assert!(!line.contains("null"), "{line}");
        assert!(
            !dir.join(".perfbench_work").exists(),
            "work directory left behind"
        );
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    let dir = scratch("traced");
    let out = bench(&dir, "proof-sim", 1, &[]);
    let line = result_line(&out);
    assert!(out.status.success(), "{line}");
    assert_eq!(printed(&line), declared("per_layer"));
}

#[test]
fn tampered_golden_fails_the_run() {
    let dir = scratch("tampered");
    let golden = dir.join("golden");
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden");
    for algo in ["strassen", "winograd"] {
        std::fs::create_dir_all(golden.join(algo)).unwrap();
        for f in std::fs::read_dir(src.join(algo)).unwrap() {
            let f = f.unwrap();
            std::fs::copy(f.path(), golden.join(algo).join(f.file_name())).unwrap();
        }
        let p = golden.join(algo).join("certify_4_16.out");
        let text = std::fs::read_to_string(&p).unwrap();
        std::fs::write(&p, text.replacen("segments", "segmentz", 1)).unwrap();
    }
    let out = bench(
        &dir,
        "certify-deep",
        0,
        &["--golden-dir", golden.to_str().unwrap()],
    );
    let line = result_line(&out);
    assert_eq!(out.status.code(), Some(1), "{line}");
    assert!(
        line.contains("\"correct\": false") && !line.contains("\"failed\": 0,"),
        "{line}"
    );
}

#[test]
fn forged_serve_payload_fails_the_run() {
    let dir = scratch("forged");
    let out = bench(&dir, "serve-mix", 0, &["--forge-memo"]);
    let line = result_line(&out);
    assert_eq!(out.status.code(), Some(1), "{line}");
    assert!(
        line.contains("\"correct\": false") && !line.contains("\"failed\": 0,"),
        "{line}"
    );
}

#[test]
fn unknown_workload_exits_nonzero_without_a_result() {
    let dir = scratch("unknown");
    let out = bench(&dir, "no-such", 0, &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
