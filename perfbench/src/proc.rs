//! Process plumbing: peak-RSS reads, the child report protocol, and timed
//! child runs.
//!
//! Every batch sample runs in a fresh process (this same executable,
//! re-executed). The child writes the command's output to stdout and its
//! report — peak RSS, and in a traced run its spans, counts and per-phase
//! RSS — to stderr as lines starting with [`TAG`].

use crate::trace::Span;
use std::io::Read;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// Prefix of report lines on a child's stderr.
pub const TAG: &str = "@perfbench";

/// This process's peak resident set (`VmHWM`) in KiB.
pub fn vmhwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Resets `VmHWM` to the current RSS through `/proc/self/clear_refs`.
/// Returns false where the kernel does not offer it.
pub fn reset_hwm() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// What a child reports besides its stdout.
#[derive(Debug, Default)]
pub struct Report {
    /// Peak RSS of the whole child, KiB.
    pub vmhwm_kb: Option<u64>,
    /// Spans of a traced child.
    pub spans: Vec<Span>,
    /// Work counters, summed when a name repeats.
    pub counts: Vec<(String, f64)>,
    /// Per-phase peak RSS in MiB; `None` without `clear_refs`.
    pub rss: Vec<(String, Option<f64>)>,
}

impl Report {
    /// Adds `v` to counter `name`.
    pub fn count(&mut self, name: &str, v: f64) {
        match self.counts.iter_mut().find(|(n, _)| n == name) {
            Some((_, x)) => *x += v,
            None => self.counts.push((name.to_string(), v)),
        }
    }

    /// Counter `name`, 0 when never counted.
    pub fn get(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Runs `f` with `VmHWM` reset first and records the phase's peak RSS
    /// under `name`.
    pub fn phase_rss<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let reset = reset_hwm();
        let out = f();
        let mb = vmhwm_kb().filter(|_| reset).map(|kb| kb as f64 / 1024.0);
        self.rss.push((name.to_string(), mb));
        out
    }

    /// Renders the report as stderr lines.
    pub fn to_lines(&self) -> String {
        let mut s = String::new();
        if let Some(kb) = self.vmhwm_kb {
            s += &format!("{TAG} vmhwm_kb {kb}\n");
        }
        for sp in &self.spans {
            let parent = sp.parent.map_or("-".to_string(), |p| p.to_string());
            s += &format!(
                "{TAG} span {} {parent} {} {} {}\n",
                sp.name, sp.start, sp.end, sp.probe as u8
            );
        }
        for (name, v) in &self.counts {
            s += &format!("{TAG} count {name} {v}\n");
        }
        for (name, mb) in &self.rss {
            let v = mb.map_or("null".to_string(), |m| m.to_string());
            s += &format!("{TAG} rss {name} {v}\n");
        }
        s
    }

    /// Parses the report lines out of a child's stderr; other lines are
    /// ignored.
    pub fn parse(stderr: &str) -> Report {
        let mut r = Report::default();
        for line in stderr.lines() {
            let Some(rest) = line.strip_prefix(TAG) else {
                continue;
            };
            let f: Vec<&str> = rest.split_whitespace().collect();
            match f.as_slice() {
                ["vmhwm_kb", kb] => r.vmhwm_kb = kb.parse().ok(),
                ["span", name, parent, start, end, probe] => r.spans.push(Span {
                    name: name.to_string(),
                    parent: parent.parse().ok(),
                    start: start.parse().unwrap_or(0.0),
                    end: end.parse().unwrap_or(0.0),
                    probe: *probe == "1",
                }),
                ["count", name, v] => r.count(name, v.parse().unwrap_or(0.0)),
                ["rss", name, v] => r.rss.push((name.to_string(), v.parse().ok())),
                _ => {}
            }
        }
        r
    }
}

/// One finished child: wall time from spawn to exit, exit status, output.
pub struct ChildRun {
    /// Seconds from spawn to exit.
    pub wall_s: f64,
    /// Whether the child exited with status 0.
    pub ok: bool,
    /// Everything the child wrote to stdout.
    pub stdout: String,
    /// The child's report.
    pub report: Report,
    /// Its stderr, for diagnostics.
    pub stderr: String,
}

/// Runs this executable with `args` in `cwd` and waits for it.
pub fn run_self(args: &[String], cwd: &Path) -> std::io::Result<ChildRun> {
    let exe = std::env::current_exe()?;
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args(args)
        .current_dir(cwd)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let (stdout, stderr) = drain(&mut child)?;
    let status = child.wait()?;
    let wall_s = start.elapsed().as_secs_f64();
    Ok(ChildRun {
        wall_s,
        ok: status.success(),
        report: Report::parse(&stderr),
        stdout,
        stderr,
    })
}

/// Reads a child's stdout and stderr to the end without letting either
/// pipe fill up.
pub fn drain(child: &mut Child) -> std::io::Result<(String, String)> {
    let mut err_pipe = child.stderr.take();
    let err_reader = std::thread::spawn(move || {
        let mut s = String::new();
        if let Some(p) = err_pipe.as_mut() {
            let _ = p.read_to_string(&mut s);
        }
        s
    });
    let mut out = String::new();
    if let Some(p) = child.stdout.as_mut() {
        p.read_to_string(&mut out)?;
    }
    let err = err_reader.join().unwrap_or_default();
    Ok((out, err))
}

/// Kills and reaps a child when dropped, so no early return leaves a
/// process behind.
pub struct Reaper(pub Option<Child>);

impl Drop for Reaper {
    fn drop(&mut self) {
        if let Some(mut c) = self.0.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_stderr_lines() {
        let mut r = Report {
            vmhwm_kb: Some(1234),
            ..Report::default()
        };
        r.spans.push(Span {
            name: "certify.graph".into(),
            parent: None,
            start: 0.5,
            end: 1.25,
            probe: false,
        });
        r.count("certify.vertices", 10.0);
        r.count("certify.vertices", 5.0);
        r.rss.push(("certify.graph".into(), None));
        r.rss.push(("certify.segments".into(), Some(12.5)));
        let text = format!("noise\n{}other\n", r.to_lines());
        let back = Report::parse(&text);
        assert_eq!(back.vmhwm_kb, Some(1234));
        assert_eq!(back.spans, r.spans);
        assert_eq!(back.get("certify.vertices"), 15.0);
        assert_eq!(back.rss, r.rss);
    }
}
