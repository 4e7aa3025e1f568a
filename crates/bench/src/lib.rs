//! # mmio-bench
//!
//! The experiment harness: one binary per experiment in `EXPERIMENTS.md`
//! (`cargo run --release -p mmio-bench --bin exp_<id>`), plus criterion
//! benches (`cargo bench -p mmio-bench`).
//!
//! Every binary prints its table to stdout and appends a machine-readable
//! record to `results/<id>.json`. The performance sweeps live in one
//! binary, `exp_perf`, which times every workload through [`measure`] and
//! writes the `BENCH_*.json` records as [`BenchRecord`]s.

#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Pre-flight static analysis gate for experiment binaries: runs the
/// `mmio-analyze` CDAG passes on `base` at depth 1 and panics on any error,
/// so a malformed algorithm is rejected before minutes of measurement.
/// Depth 1 suffices — the base-graph lints (tensor identity, single-use)
/// are depth-independent, and structural defects replicate to every depth.
pub fn preflight(base: &mmio_cdag::BaseGraph) {
    preflight_expecting(base, &[]);
}

/// [`preflight`] for experiments that *study* a defect: every reported
/// error must carry one of the `expected` codes, and every expected code
/// must actually fire. E12, for instance, measures a base graph that
/// deliberately violates the single-use assumption (`MMIO-A007`).
pub fn preflight_expecting(base: &mmio_cdag::BaseGraph, expected: &[&str]) {
    let report = mmio_analyze::analyze_base_at(base, 1);
    for d in report.errors() {
        assert!(
            expected.contains(&d.code),
            "pre-flight static analysis failed for '{}': {d}",
            base.name()
        );
    }
    for code in expected {
        assert!(
            report.has_code(code),
            "pre-flight expected '{}' to trigger {code}, but it did not",
            base.name()
        );
    }
}

fn workspace_root() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop();
    dir.pop();
    dir
}

/// Where experiment records are written (workspace-relative `results/`).
pub fn results_dir() -> PathBuf {
    workspace_root().join("results")
}

/// Where `exp_perf` writes the record `name` (e.g. `BENCH_routing.json`):
/// the checked-in file at the workspace root for a full run, and
/// `target/bench-smoke/` for a reduced run, so a smoke pass never
/// overwrites a checked-in record.
pub fn bench_record_path(name: &str, smoke: bool) -> PathBuf {
    let root = workspace_root();
    if smoke {
        root.join("target").join("bench-smoke").join(name)
    } else {
        root.join(name)
    }
}

/// Serializes `record` as pretty JSON into `path`, creating its directory.
fn write_json<T: Serialize>(path: &Path, record: &T) -> std::io::Result<()> {
    fs::create_dir_all(path.parent().expect("a file path"))?;
    let json = serde_json::to_string_pretty(record).map_err(std::io::Error::other)?;
    fs::write(path, json)
}

/// Serializes `record` as pretty JSON into `results/<name>.json`.
pub fn write_record<T: Serialize>(name: &str, record: &T) {
    // Reporting is best-effort; the stdout table is the output.
    let _ = write_json(&results_dir().join(format!("{name}.json")), record);
}

/// Writes `record` to [`bench_record_path`]`(name, record.smoke)` and
/// returns that path. Unlike [`write_record`], a failure panics: the
/// record is the sweep's output.
pub fn write_bench_record(name: &str, record: &BenchRecord) -> PathBuf {
    let path = bench_record_path(name, record.smoke);
    write_json(&path, record).expect("write BENCH record");
    path
}

/// A generic labelled row of floats, the common shape of experiment tables.
#[derive(Serialize, Deserialize, Clone, Debug)]
pub struct Row {
    /// Row label (e.g. the swept parameter).
    pub label: String,
    /// Named values.
    pub values: Vec<(String, f64)>,
}

impl Row {
    /// Builds a row.
    pub fn new(label: impl Into<String>) -> Row {
        Row {
            label: label.into(),
            values: Vec::new(),
        }
    }

    /// Adds one named value.
    pub fn push(mut self, key: &str, value: f64) -> Row {
        self.values.push((key.to_string(), value));
        self
    }

    /// Adds a [`Sample`]'s wall time as `{key}_ms` plus its quartiles
    /// (`{key}_q1_ms`, `{key}_q3_ms`), which [`render_table`] folds into
    /// one cell.
    pub fn time(self, key: &str, s: &Sample) -> Row {
        self.push(&format!("{key}_ms"), s.median_ms)
            .push(&format!("{key}_q1_ms"), s.q1_ms)
            .push(&format!("{key}_q3_ms"), s.q3_ms)
    }

    /// Adds a [`Sample`]'s peak RSS as `{key}_rss_mb`, where the kernel
    /// reports one.
    pub fn rss(self, key: &str, s: &Sample) -> Row {
        match s.peak_rss_mb {
            Some(mb) => self.push(&format!("{key}_rss_mb"), mb),
            None => self,
        }
    }

    fn get(&self, key: &str) -> Option<f64> {
        self.values.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }
}

/// Timed runs per [`measure`], after one untimed warm-up run.
pub const REPEATS: usize = 5;

/// Wall time of one workload over [`REPEATS`] runs, and its peak RSS.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Median wall time, ms.
    pub median_ms: f64,
    /// First quartile of wall time, ms.
    pub q1_ms: f64,
    /// Third quartile of wall time, ms.
    pub q3_ms: f64,
    /// The highest `VmHWM` of the timed runs, MB, reset before each run
    /// (`None` without `/proc/self/status`). The allocator keeps freed
    /// pages, so a reading is floored at what earlier work left resident.
    pub peak_rss_mb: Option<f64>,
}

/// Runs `work` once to warm up, then [`REPEATS`] timed times, and returns
/// the last run's result with the wall-time median and quartiles and the
/// peak RSS. Each run's result is dropped before the next run starts.
pub fn measure<T>(mut work: impl FnMut() -> T) -> (T, Sample) {
    let mut out = Some(work());
    let mut wall = Vec::with_capacity(REPEATS);
    let mut rss_mb = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        drop(out.take());
        // Mode 5 resets the high-water mark to the current RSS.
        let _ = fs::write("/proc/self/clear_refs", "5");
        let t = Instant::now();
        out = Some(work());
        wall.push(t.elapsed().as_secs_f64() * 1e3);
        rss_mb.extend(peak_rss_kb().map(|kb| kb as f64 / 1024.0));
    }
    wall.sort_by(f64::total_cmp);
    let quartile = |q: usize| wall[(wall.len() - 1) * q / 4];
    let sample = Sample {
        median_ms: quartile(2),
        q1_ms: quartile(1),
        q3_ms: quartile(3),
        peak_rss_mb: rss_mb.into_iter().reduce(f64::max),
    };
    (out.expect("REPEATS > 0"), sample)
}

/// The process's `VmHWM` in KiB, if the kernel exposes it.
fn peak_rss_kb() -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The thread counts a scaling sweep runs: the powers of two up to
/// `host_cores`. More threads than cores would only time oversubscription.
pub fn thread_grid(host_cores: usize) -> Vec<usize> {
    std::iter::successors(Some(1usize), |t| Some(t * 2))
        .take_while(|&t| t <= host_cores.max(1))
        .collect()
}

/// One `BENCH_*.json` record: every perf sweep writes this schema.
#[derive(Serialize, Deserialize, Clone, Debug)]
pub struct BenchRecord {
    /// Which sweep produced the record (e.g. `perf_routing`).
    pub experiment: String,
    /// Cores visible when the record was produced.
    pub host_cores: usize,
    /// Whether this was a reduced (`MMIO_BENCH_SMOKE=1`) run.
    pub smoke: bool,
    /// Timed runs behind every wall time ([`REPEATS`]).
    pub repeats: usize,
    /// The measured rows, in the order [`render_table`] prints them.
    pub rows: Vec<Row>,
}

/// Renders rows as Markdown tables: consecutive rows with the same keys
/// share one table. A `{k}_ms` column whose `{k}_q1_ms` and `{k}_q3_ms`
/// are present prints as `median (q1–q3)`. The same text goes to stdout
/// and, between `<!-- BENCH_x.json -->` markers, into the docs.
pub fn render_table(rows: &[Row]) -> String {
    let keys = |row: &Row| {
        row.values
            .iter()
            .map(|(k, _)| k.clone())
            .collect::<Vec<_>>()
    };
    let is_quartile = |k: &str| k.ends_with("_q1_ms") || k.ends_with("_q3_ms");
    let mut tables = Vec::new();
    for group in rows.chunk_by(|a, b| keys(a) == keys(b)) {
        let columns: Vec<String> = keys(&group[0])
            .into_iter()
            .filter(|k| !is_quartile(k))
            .collect();
        let mut t = String::from("| case |");
        for k in &columns {
            t.push_str(&format!(" {} |", k.replace('_', " ")));
        }
        t.push_str(&format!("\n|---|{}\n", "---|".repeat(columns.len())));
        for row in group {
            t.push_str(&format!("| {} |", row.label));
            for (k, v) in row.values.iter().filter(|(k, _)| !is_quartile(k)) {
                let quartile = |q: &str| {
                    let stem = k.strip_suffix("_ms")?;
                    row.get(&format!("{stem}_{q}_ms"))
                };
                t.push_str(&match (quartile("q1"), quartile("q3")) {
                    (Some(q1), Some(q3)) => {
                        format!(" {} ({}–{}) |", fmt_num(*v), fmt_num(q1), fmt_num(q3))
                    }
                    _ => format!(" {} |", fmt_num(*v)),
                });
            }
            t.push('\n');
        }
        tables.push(t);
    }
    tables.join("\n")
}

/// Integers print whole; other values keep about three significant digits.
fn fmt_num(v: f64) -> String {
    let a = v.abs();
    if v.fract() == 0.0 && a < 1e15 {
        format!("{v:.0}")
    } else if a >= 100.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_accumulate() {
        let row = Row::new("M=8").push("io", 12.0).push("bound", 4.0);
        assert_eq!(row.values.len(), 2);
        assert_eq!(row.values[1].1, 4.0);
    }

    #[test]
    fn results_dir_points_at_workspace() {
        assert!(results_dir().ends_with("results"));
    }

    #[test]
    fn smoke_records_never_land_on_the_checked_in_files() {
        let full = bench_record_path("BENCH_routing.json", false);
        let smoke = bench_record_path("BENCH_routing.json", true);
        assert_eq!(full, workspace_root().join("BENCH_routing.json"));
        assert!(smoke.ends_with("target/bench-smoke/BENCH_routing.json"));
        assert!(smoke.starts_with(workspace_root().join("target")));
    }

    #[test]
    fn measure_reports_ordered_quartiles_and_the_last_result() {
        let mut calls = 0;
        let (last, s) = measure(|| {
            calls += 1;
            calls
        });
        assert_eq!((calls, last), (REPEATS + 1, REPEATS + 1));
        assert!(s.q1_ms <= s.median_ms && s.median_ms <= s.q3_ms, "{s:?}");
    }

    #[test]
    fn thread_grid_is_powers_of_two_up_to_the_cores() {
        assert_eq!(thread_grid(1), vec![1]);
        assert_eq!(thread_grid(2), vec![1, 2]);
        assert_eq!(thread_grid(6), vec![1, 2, 4]);
        assert_eq!(thread_grid(0), vec![1]);
    }

    #[test]
    fn tables_group_rows_and_fold_quartiles() {
        let s = Sample {
            median_ms: 2.5,
            q1_ms: 2.25,
            q3_ms: 3.0,
            peak_rss_mb: None,
        };
        let rows = vec![
            Row::new("a").push("n", 7.0).time("fast", &s),
            Row::new("b").push("n", 49.0).time("fast", &s),
            Row::new("c").push("ratio", 0.5),
        ];
        assert_eq!(
            render_table(&rows),
            "| case | n | fast ms |\n|---|---|---|\n\
             | a | 7 | 2.50 (2.25–3) |\n| b | 49 | 2.50 (2.25–3) |\n\
             \n| case | ratio |\n|---|---|\n| c | 0.500 |\n"
        );
    }
}
