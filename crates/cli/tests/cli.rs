//! Black-box tests of the `mmio` binary.

use std::process::Command;

fn mmio(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mmio"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn list_shows_builtins() {
    let out = mmio(&["list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for name in ["strassen", "winograd", "laderman", "classical2"] {
        assert!(stdout.contains(name), "missing {name}");
    }
}

#[test]
fn verify_builtin() {
    let out = mmio(&["verify", "strassen"]);
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("correct"));
}

#[test]
fn verify_unknown_fails() {
    let out = mmio(&["verify", "nonsense"]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("unknown algorithm"));
}

#[test]
fn export_import_roundtrip() {
    let exported = mmio(&["export", "winograd"]);
    assert!(exported.status.success());
    let dir = std::env::temp_dir().join("mmio_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("winograd.json");
    std::fs::write(&path, &exported.stdout).unwrap();
    let verified = mmio(&["verify", path.to_str().unwrap()]);
    assert!(verified.status.success());
    assert!(String::from_utf8(verified.stdout)
        .unwrap()
        .contains("correct"));
}

#[test]
fn corrupted_import_rejected() {
    let exported = mmio(&["export", "strassen"]);
    let json = String::from_utf8(exported.stdout).unwrap();
    // Flip a coefficient: "−1" → "−2" somewhere.
    let corrupted = json.replacen("\"-1\"", "\"-2\"", 1);
    assert_ne!(json, corrupted, "fixture must contain a -1 coefficient");
    let dir = std::env::temp_dir().join("mmio_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.json");
    std::fs::write(&path, corrupted).unwrap();
    let out = mmio(&["verify", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("not a matrix multiplication algorithm"));
}

#[test]
fn simulate_reports_io() {
    let out = mmio(&["simulate", "strassen", "3", "16"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("I/Os"));
    assert!(stdout.contains("ratio"));
}

#[test]
fn certify_reports_bound() {
    let out = mmio(&["certify", "strassen", "4", "8"]);
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("certified I/O ≥"));
}

#[test]
fn routing_verifies() {
    let out = mmio(&["routing", "strassen", "2"]);
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("VERIFIED"));
}

#[test]
fn info_emits_json() {
    let out = mmio(&["info", "laderman"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"omega0\""));
    assert!(stdout.contains("\"edge_expansion_applies\""));
}

#[test]
fn no_args_prints_usage() {
    let out = mmio(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("usage"));
}

#[test]
fn analyze_json_is_thread_count_invariant() {
    // The determinism contract: `--threads N` must never change output.
    // One clean algorithm, one with a different matching structure, and
    // the disconnected-decoding pathology.
    for algo in ["strassen", "winograd", "strassen+dummy"] {
        let serial = mmio(&["--threads", "1", "analyze", algo, "2", "--json"]);
        assert!(serial.status.success(), "{algo}");
        for threads in ["2", "8"] {
            let par = mmio(&["--threads", threads, "analyze", algo, "2", "--json"]);
            assert_eq!(par.status.code(), serial.status.code(), "{algo}");
            assert_eq!(
                par.stdout, serial.stdout,
                "{algo}: analyze --json diverges at {threads} threads"
            );
        }
    }
}

#[test]
fn threads_env_var_matches_flag() {
    let flag = mmio(&["--threads", "3", "routing", "strassen", "1", "3"]);
    assert!(flag.status.success());
    let env = Command::new(env!("CARGO_BIN_EXE_mmio"))
        .env("MMIO_THREADS", "3")
        .args(["routing", "strassen", "1", "3"])
        .output()
        .expect("binary runs");
    assert_eq!(flag.stdout, env.stdout);
    // And the explicit flag wins over the environment.
    let both = Command::new(env!("CARGO_BIN_EXE_mmio"))
        .env("MMIO_THREADS", "2")
        .args(["--threads", "1", "routing", "strassen", "1", "3"])
        .output()
        .expect("binary runs");
    assert_eq!(both.stdout, flag.stdout);
}

#[test]
fn routing_transport_verifies() {
    let out = mmio(&["routing", "winograd", "1", "3"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("49 copies"), "{stdout}");
    assert!(stdout.contains("uniform true"), "{stdout}");
    assert!(!stdout.contains("VIOLATED"), "{stdout}");
}

#[test]
fn check_passes_clean() {
    let out = mmio(&["check"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("check: PASS"), "{stdout}");
    assert!(!stdout.contains("DIVERGES"), "{stdout}");
    assert!(!stdout.contains("MISSED"), "{stdout}");
}

#[test]
fn check_json_is_thread_count_invariant() {
    // The suite fixes its own thread counts; `--threads` must be inert.
    let serial = mmio(&["--threads", "1", "check", "--json"]);
    assert!(serial.status.success());
    for threads in ["2", "8"] {
        let par = mmio(&["--threads", threads, "check", "--json"]);
        assert!(par.status.success());
        assert_eq!(
            par.stdout, serial.stdout,
            "check --json diverges at {threads} threads"
        );
    }
    // And across repeat runs of the same configuration.
    let again = mmio(&["--threads", "1", "check", "--json"]);
    assert_eq!(again.stdout, serial.stdout);
}

#[test]
fn check_json_reports_exact_planted_codes() {
    let out = mmio(&["check", "--json"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"ok\": true"), "{stdout}");
    // The three seeded defect traces fire their exact codes (plus the
    // explorer's own planted-bug self-tests).
    for code in ["MMIO-C001", "MMIO-C002", "MMIO-C003", "MMIO-D005"] {
        assert!(stdout.contains(code), "missing selftest code {code}");
    }
    assert!(!stdout.contains("\"fired\": false"), "{stdout}");
}

#[test]
fn unparsable_threads_env_warns_and_falls_back() {
    for bad in ["0", "abc"] {
        let out = Command::new(env!("CARGO_BIN_EXE_mmio"))
            .env("MMIO_THREADS", bad)
            .args(["verify", "strassen"])
            .output()
            .expect("binary runs");
        assert!(out.status.success(), "MMIO_THREADS={bad} must not be fatal");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains("warning: MMIO_THREADS") && stderr.contains(bad),
            "MMIO_THREADS={bad}: {stderr}"
        );
    }
}

#[test]
fn bad_threads_value_fails() {
    let out = mmio(&["--threads", "zero", "list"]);
    assert!(!out.status.success());
    let out = mmio(&["--threads"]);
    assert!(!out.status.success());
}

#[test]
fn certify_golden_across_threads() {
    // The expected bytes are pinned so a drift in the one graph path fails
    // loudly, at every thread count.
    let golden = "n = 8, M = 4: 36 complete segments, certified I/O ≥ 1422\n\
                  (k = 1, feasible = false, disjoint subcomputations = 49 ≥ target 1)\n";
    for threads in ["1", "2", "8"] {
        let out = mmio(&["--threads", threads, "certify", "strassen", "3", "4"]);
        assert!(out.status.success(), "threads={threads}");
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            golden,
            "certify bytes diverge at threads={threads}"
        );
    }
}

#[test]
#[ignore = "large: Theorem-1 certificate at r = 8 (~40M vertices; ~20 s and ~0.6 GB on a 2-core host)"]
fn certify_r8_headline() {
    // The deepest Theorem-1 certificate the closure-local segment
    // analysis reaches, on the default view. Run with
    // `cargo test --release -p mmio-cli -- --ignored certify_r8`.
    let out = mmio(&["certify", "strassen", "8", "64"]);
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        "n = 256, M = 64: 7203 complete segments, certified I/O ≥ 7537408\n\
         (k = 4, feasible = true, disjoint subcomputations = 2401 ≥ target 49)\n"
    );
}

#[test]
fn simulate_golden() {
    let out = mmio(&["simulate", "strassen", "3", "64"]);
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        "n = 8, M = 64: 476 loads + 159 stores = 635 I/Os (Ω bound 64, ratio 9.92)\n"
    );
}

#[test]
fn routing_transport_golden() {
    let out = mmio(&["routing", "winograd", "1", "3"]);
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        "6a^k = 24: 32 paths, max vertex hits 24, max meta hits 16 → VERIFIED\n\
         transported into G_3: 49 copies × 32 paths, max hits 24/16 (bound 24), \
         edge violations 0, uniform true → VERIFIED\n"
    );
}

#[test]
fn bad_view_value_fails() {
    // The representation is not an option: `--view` is an unknown command.
    let out = mmio(&["--view", "implicit", "list"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown command '--view'"), "{stderr}");
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn degenerate_r0_legal() {
    // r = 0 (n = 1) runs on the closed-form view of G_0 like any other
    // depth; the pinned bytes are those of the materialized G_0.
    for (args, golden) in [
        (
            &["simulate", "strassen", "0", "4"][..],
            "n = 1, M = 4: 2 loads + 1 stores = 3 I/Os (Ω bound 1, ratio 5.25)\n",
        ),
        (
            &["certify", "strassen", "0", "4"][..],
            "n = 1, M = 4: 0 complete segments, certified I/O ≥ 0\n\
             (k = 0, feasible = false, disjoint subcomputations = 1 ≥ target 0)\n",
        ),
        (
            &["distsim", "strassen", "0"][..],
            "strassen r=0 P=4 M=16 assign=cyclic: 1 words moved, critical path 1, \
             local I/O max 2 / total 2\n",
        ),
        (
            &["routing", "strassen", "0", "0"][..],
            "6a^k = 6: 2 paths, max vertex hits 4, max meta hits 2 → VERIFIED\n\
             transported into G_0: 1 copies × 2 paths, max hits 4/2 (bound 6), \
             edge violations 0, uniform true → VERIFIED\n",
        ),
    ] {
        let out = mmio(args);
        assert!(out.status.success(), "{args:?}");
        assert_eq!(String::from_utf8(out.stdout).unwrap(), golden, "{args:?}");
    }
}

#[test]
fn cert_emit_names_follow_the_size_rule() {
    // G_5 (113 553 vertices) is under the schedule-witness vertex budget,
    // so every witness is emitted at the requested depth; G_7 (5.7M) is
    // over it, so the schedule and sweep witnesses are capped at depth 4.
    for (r, want) in [
        (
            "5",
            [
                "strassen__routing_k2_r5.json",
                "strassen__schedule_r5_m9.json",
                "strassen__sweep_r5.json",
            ],
        ),
        (
            "7",
            [
                "strassen__routing_k2_r7.json",
                "strassen__schedule_r4_m9.json",
                "strassen__sweep_r4.json",
            ],
        ),
    ] {
        let dir = std::env::temp_dir().join(format!("mmio_cli_emit{r}_{}", std::process::id()));
        let out = mmio(&[
            "cert",
            "emit",
            "strassen",
            r,
            "--out",
            dir.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "r={r}");
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, want, "r={r}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
