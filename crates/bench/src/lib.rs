//! Shared harness utilities for the figure-reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one figure or table of the
//! paper's evaluation (see `DESIGN.md` for the index and `EXPERIMENTS.md`
//! for recorded results). Sizes are scaled down from the paper's
//! GPU-scale inputs by [`scale`] (override with the `ADAPTIC_SCALE`
//! environment variable; `1` reproduces the paper's sizes at the cost of
//! long simulation times).

pub mod workloads;

use std::path::{Path, PathBuf};
use std::time::Instant;

use adaptic::RunOptions;
use gpu_sim::{ExecMode, ExecPolicy};

/// Global size divisor for the sweeps (default 4).
pub fn scale() -> usize {
    std::env::var("ADAPTIC_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|s| *s >= 1)
        .unwrap_or(4)
}

/// Execution mode used by timing sweeps: sampled execution keeps
/// figure-scale launches tractable while preserving aggregate statistics.
pub fn sweep_mode() -> ExecMode {
    ExecMode::SampledExec(256)
}

/// Worker count used by the sweeps: deterministic parallel block
/// execution sized to the host by default. Override with the
/// `ADAPTIC_WORKERS` environment variable — `1` forces one worker,
/// `n > 1` pins the worker count. Results are identical under every
/// policy; only wall-clock changes.
pub fn sweep_policy() -> ExecPolicy {
    match std::env::var("ADAPTIC_WORKERS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    {
        Some(0) | None => ExecPolicy::auto(),
        Some(1) => ExecPolicy::Serial,
        Some(n) => ExecPolicy::Parallel(n),
    }
}

/// [`sweep_mode`] + [`sweep_policy`] bundled for `run_opts`.
pub fn sweep_opts() -> RunOptions<'static> {
    RunOptions {
        mode: sweep_mode(),
        policy: sweep_policy(),
        ..RunOptions::serial(sweep_mode())
    }
}

/// Deterministic pseudo-random data in [-1, 1).
pub fn data(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        })
        .collect()
}

/// Human-readable size label (1K, 4M, ...).
pub fn size_label(n: usize) -> String {
    if n >= 1 << 20 && n.is_multiple_of(1 << 20) {
        format!("{}M", n >> 20)
    } else if n >= 1 << 10 && n.is_multiple_of(1 << 10) {
        format!("{}K", n >> 10)
    } else {
        n.to_string()
    }
}

/// Print a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Print a figure header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
    println!(
        "(sizes scaled by 1/{}; set ADAPTIC_SCALE=1 for paper-scale)\n",
        scale()
    );
}

/// One measured benchmark for [`bench_json`].
#[derive(Debug, Clone)]
pub struct BenchRecord {
    pub name: String,
    pub mean_ns: f64,
    pub min_ns: f64,
    pub max_ns: f64,
    /// Mean-over-mean speedup relative to a baseline record (set via
    /// [`BenchRecord::vs`]); `None` marks a baseline itself.
    pub speedup: Option<f64>,
    /// Work completed per second under its own JSON key, such as
    /// `("rows_per_s", 1.2e7)` (set via [`BenchRecord::rate`]).
    pub rate: Option<(&'static str, f64)>,
}

impl BenchRecord {
    /// Tag this record with a throughput: each timed call completed
    /// `per_call` units of work, reported per second of the mean call.
    pub fn rate(mut self, key: &'static str, per_call: f64) -> BenchRecord {
        self.rate = Some((key, per_call / (self.mean_ns * 1e-9)));
        self
    }

    /// Tag this record with its speedup over `baseline` (baseline mean /
    /// this mean, so > 1 means faster than the baseline).
    pub fn vs(mut self, baseline: &BenchRecord) -> BenchRecord {
        self.speedup = Some(baseline.mean_ns / self.mean_ns);
        self
    }
}

/// Time `samples` invocations of `f` (after one warm-up call) and return
/// min/mean/max wall-clock nanoseconds as a [`BenchRecord`].
pub fn measure(name: &str, samples: usize, mut f: impl FnMut()) -> BenchRecord {
    assert!(samples > 0, "at least one sample");
    f();
    let (mut min, mut max, mut sum) = (f64::INFINITY, 0.0f64, 0.0f64);
    for _ in 0..samples {
        let t = Instant::now();
        f();
        let ns = t.elapsed().as_nanos() as f64;
        min = min.min(ns);
        max = max.max(ns);
        sum += ns;
    }
    BenchRecord {
        name: name.to_string(),
        mean_ns: sum / samples as f64,
        min_ns: min,
        max_ns: max,
        speedup: None,
        rate: None,
    }
}

/// Current git revision, or `"unknown"` outside a repository. A tree with
/// uncommitted changes to tracked files reads `<rev>-dirty`, so a record
/// measured on code that `<rev>` does not contain says so.
pub fn git_rev() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    let Some(rev) = git(&["rev-parse", "HEAD"]) else {
        return "unknown".to_string();
    };
    let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
        .is_some_and(|s| !s.trim().is_empty());
    format!("{}{}", rev.trim(), if dirty { "-dirty" } else { "" })
}

/// Render bench records as the machine-readable JSON document written by
/// [`bench_json`] (no serde in the dependency set, so it is assembled by
/// hand; names must be plain ASCII without quotes or backslashes).
pub fn render_bench_json(stem: &str, rev: &str, records: &[BenchRecord]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"bench\": \"{stem}\",\n"));
    s.push_str(&format!("  \"git_rev\": \"{rev}\",\n"));
    s.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        debug_assert!(
            !r.name.contains(['"', '\\']),
            "bench names must not need JSON escaping"
        );
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"max_ns\": {:.1}",
            r.name, r.mean_ns, r.min_ns, r.max_ns
        ));
        if let Some(sp) = r.speedup {
            s.push_str(&format!(", \"speedup\": {sp:.3}"));
        }
        if let Some((key, per_s)) = r.rate {
            s.push_str(&format!(", \"{key}\": {per_s:.0}"));
        }
        s.push('}');
        if i + 1 < records.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ]\n}\n");
    s
}

/// Write `records` to `<dir>/BENCH_<stem>.json` and return the path.
///
/// # Errors
///
/// Propagates filesystem errors from creating the directory or writing.
pub fn bench_json_to(dir: &Path, stem: &str, records: &[BenchRecord]) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{stem}.json"));
    std::fs::write(&path, render_bench_json(stem, &git_rev(), records))?;
    Ok(path)
}

/// Write `records` to `results/BENCH_<stem>.json` at the workspace root,
/// alongside the prose `results/*.txt` records.
///
/// # Errors
///
/// Propagates filesystem errors from creating the directory or writing.
pub fn bench_json(stem: &str, records: &[BenchRecord]) -> std::io::Result<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    bench_json_to(&dir, stem, records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(size_label(1 << 10), "1K");
        assert_eq!(size_label(4 << 20), "4M");
        assert_eq!(size_label(1000), "1000");
    }

    #[test]
    fn data_is_deterministic_and_bounded() {
        let a = data(100, 1);
        let b = data(100, 1);
        assert_eq!(a, b);
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
        assert_ne!(a, data(100, 2));
    }

    #[test]
    fn scale_is_positive() {
        assert!(scale() >= 1);
    }

    #[test]
    fn sweep_opts_bundle_is_consistent() {
        let opts = sweep_opts();
        assert_eq!(opts.mode, sweep_mode());
        assert!(opts.policy.workers() >= 1);
    }

    #[test]
    fn measure_reports_ordered_bounds() {
        let mut n = 0u64;
        let r = measure("spin", 5, || {
            for i in 0..10_000u64 {
                n = n.wrapping_add(i);
            }
        });
        std::hint::black_box(n);
        assert!(r.min_ns > 0.0);
        assert!(r.min_ns <= r.mean_ns && r.mean_ns <= r.max_ns);
        assert!(r.speedup.is_none());
    }

    #[test]
    fn bench_json_renders_and_writes() {
        let base = BenchRecord {
            name: "base".into(),
            mean_ns: 200.0,
            min_ns: 150.0,
            max_ns: 260.0,
            speedup: None,
            rate: None,
        };
        let fast = BenchRecord {
            name: "fast".into(),
            mean_ns: 50.0,
            min_ns: 40.0,
            max_ns: 61.0,
            speedup: None,
            rate: None,
        }
        .vs(&base)
        .rate("rows_per_s", 100.0);
        assert_eq!(fast.speedup, Some(4.0));

        let doc = render_bench_json("demo", "deadbeef", &[base.clone(), fast.clone()]);
        assert!(doc.contains("\"bench\": \"demo\""));
        assert!(doc.contains("\"git_rev\": \"deadbeef\""));
        assert!(doc.contains("\"name\": \"base\", \"mean_ns\": 200.0"));
        assert!(doc.contains("\"speedup\": 4.000, \"rows_per_s\": 2000000000}"));

        let dir = std::env::temp_dir().join(format!("bench_json_test_{}", std::process::id()));
        let path = bench_json_to(&dir, "demo", &[base, fast]).unwrap();
        assert_eq!(path.file_name().unwrap(), "BENCH_demo.json");
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert!(on_disk.contains("\"results\": ["));
        std::fs::remove_dir_all(&dir).ok();
    }
}
