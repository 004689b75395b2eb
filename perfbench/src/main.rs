//! `perf`: the repository's benchmark.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perf --workload <name> --self-test     # must detect a corrupted reference
//! perf --workload <name> --repeat <n>    # n runs, spread of every metric
//! perf --smoke                           # all six workloads, about 10 s
//! ```
//!
//! One run is one workload in one process: set-up (several times, the
//! median is `setup_s`), an in-process determinism check, then the
//! measured section of `--seconds`. With `--trace 0` the last line of
//! standard output carries the end-to-end metrics; with `--trace 1` the
//! layer probes run, most of the section is traced, and the line carries
//! the per-layer metrics. See README.md beside this package.

mod corpus;
mod gen;
mod layers;
mod metrics;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use metrics::{Values, END_TO_END, PER_LAYER};
use workloads::{Limit, Outcome, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Share of a traced run's section that runs untraced, half before and
/// half after the traced part, for `trace.overhead_share`: a workload whose
/// caches are still filling speeds up or slows down as it runs, and the
/// two halves put the untraced rate at the same point in that drift.
const UNTRACED_SHARE: f64 = 0.3;
const WORKLOADS: [&str; 6] = [
    "compile_boot",
    "exec_full",
    "launch_steady",
    "serve_closed",
    "serve_open",
    "drift_replan",
];

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
    repeat: Option<usize>,
    smoke: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut a = Args {
            workload: None,
            seed: 1,
            seconds: 10.0,
            trace: false,
            self_test: false,
            repeat: None,
            smoke: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => a.workload = Some(value()?),
                "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => {
                    a.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                    }
                }
                "--repeat" => {
                    a.repeat = Some(value()?.parse().map_err(|e| format!("--repeat: {e}"))?)
                }
                "--self-test" => a.self_test = true,
                "--smoke" => a.smoke = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if !(a.seconds > 0.0 && a.seconds <= 60.0) {
            return Err("--seconds must be in (0, 60]".into());
        }
        Ok(a)
    }
}

/// The build directory of the checkout the benchmark runs in: everything
/// it writes goes under it.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .unwrap_or_else(|| "target".into())
        .into()
}

/// A directory of this process, removed when the run ends.
fn scratch_dir() -> PathBuf {
    target_dir()
        .join("perfbench-scratch")
        .join(std::process::id().to_string())
}

fn trace_file(workload: &str, seed: u64) -> PathBuf {
    target_dir()
        .join("perfbench-trace")
        .join(format!("{workload}-{seed}.tsv"))
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one run of one workload reports.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &'static [(&'static str, &'static str)],
    values: Values,
    first_error: Option<String>,
}

impl Report {
    fn line(&self) -> String {
        metrics::result_line(
            self.correct,
            self.attempted,
            self.failed,
            self.table,
            &self.values,
        )
    }
}

fn end_to_end(setup_s: f64, out: &Outcome) -> Values {
    let percentile = |p| stats::windowed_percentile(&out.lat_ns, out.pass_ops, p) as f64 / 1e6;
    let mut v = Values::new();
    v.insert("setup_s", setup_s);
    v.insert("ops_per_s", ops_per_s(out));
    v.insert("op_ms_p50", percentile(50.0));
    v.insert("op_ms_p95", percentile(95.0));
    v.insert("ok_share", out.ok as f64 / out.attempted.max(1) as f64);
    v.insert("sim_us_per_op", out.sim_us / out.sim_ops.max(1) as f64);
    v.insert("peak_rss_mb", peak_rss_mb());
    v
}

/// The per-layer values a workload's own run supplies: counts, and what
/// the serving workloads observe from their replies.
fn layer_counts(v: &mut Values, out: &Outcome) {
    let c = &out.counts;
    v.insert("artifact.hits", c.artifact_hits as f64);
    v.insert("artifact.misses", c.artifact_misses as f64);
    v.insert("artifact.rejects", c.artifact_rejects as f64);
    v.insert("gpu_sim.cache_hits", c.cache_hits as f64);
    v.insert("gpu_sim.cache_misses", c.cache_misses as f64);
    v.insert("gpu_sim.cache_evictions", c.cache_evictions as f64);
    let lookups = (c.cache_hits + c.cache_misses).max(1) as f64;
    v.insert("gpu_sim.cache_hit_share", c.cache_hits as f64 / lookups);
    v.insert("kmu.boundary_moves", c.boundary_moves as f64);
    v.insert("kmu.model_error_mean", c.model_error_mean);
    v.insert("kmu.fallbacks", c.fallbacks as f64);
    v.insert("kmu.retries", c.retries as f64);
    v.insert("resched.replans", c.reschedules as f64);
    v.insert("resched.rate_exits", c.rate_exits as f64);
    v.insert("resched.clamped", c.clamped as f64);
    v.insert("resched.plan_wall_us_total", c.plan_wall_us);
    v.insert("resched.store_hits", c.region_store_hits as f64);
    v.insert("serve.rejected_quota", c.rejected_quota as f64);
    v.insert("serve.rejected_queue_full", c.rejected_queue_full as f64);
    v.insert("serve.rejected_deadline", c.rejected_deadline as f64);
    v.insert("serve.shed", c.shed as f64);
    v.insert("serve.failed", c.serve_failed as f64);
    v.insert("serve.coalesced", c.coalesced as f64);
    let Some(s) = &out.serve else { return };
    let mut queued = s.queued_us.clone();
    queued.sort_unstable();
    v.insert(
        "serve.queued_us_p50",
        stats::percentile(&queued, 50.0) as f64,
    );
    v.insert(
        "serve.queued_us_p95",
        stats::tail_percentile(&queued, 95.0) as f64,
    );
    let (queued, latency): (u64, u64) = (queued.iter().sum(), s.latency_us.iter().sum());
    v.insert(
        "serve.launch_share",
        1.0 - queued as f64 / latency.max(1) as f64,
    );
    v.insert("serve.late", s.late as f64);
    let executed = (s.completed + s.deadline_killed).max(1) as f64;
    v.insert("serve.useful_share", out.ok as f64 / executed);
    let step_names = [
        ("serve.on_time_share_lo", "serve.goodput_rps_lo"),
        ("serve.on_time_share_mid", "serve.goodput_rps_mid"),
        ("serve.on_time_share_hi", "serve.goodput_rps_hi"),
    ];
    for ((share, rate), &(offered, on_time, seconds)) in step_names.into_iter().zip(&s.steps) {
        v.insert(share, on_time as f64 / offered.max(1) as f64);
        v.insert(rate, on_time as f64 / seconds);
    }
    let mut lag = s.lag_us.clone();
    lag.sort_unstable();
    let lag_p95 = stats::tail_percentile(&lag, 95.0) as f64;
    v.insert("loadgen.lag_ms_p95", lag_p95 / 1e3);
    if s.min_gap_us > 0.0 {
        v.insert("loadgen.lag_share_of_gap", lag_p95 / s.min_gap_us);
    }
}

/// Span-derived values of a traced run, and the span file.
fn trace_values(v: &mut Values, out: &Outcome, workload: &str, seed: u64) {
    let (mut spans, mut ops, mut op_total, mut op_self) = (0usize, 0u64, 0u64, 0u64);
    for t in &out.tracers {
        spans += t.spans().len();
        if let Some(op) = trace::totals_by_name(t.spans()).get("op") {
            ops += op.count;
            op_total += op.total_ns;
            op_self += op.self_ns;
        }
    }
    v.insert("trace.spans", spans as f64);
    v.insert("trace.ops", ops as f64);
    v.insert(
        "trace.layer_time_share",
        1.0 - op_self as f64 / op_total.max(1) as f64,
    );
    let path = trace_file(workload, seed);
    if let Err(e) = trace::write_spans(&path, &out.tracers) {
        eprintln!("perf: cannot write {}: {e}", path.display());
    }
}

fn ops_per_s(out: &Outcome) -> f64 {
    out.ok as f64 / out.busy_s.max(1e-9)
}

/// One run of workload `W`.
fn drive<W: Workload>(a: &Args, setups: usize) -> Result<Report, String> {
    let scratch = scratch_dir().join(W::NAME);
    let mut setup_times = Vec::new();
    let mut states = Vec::new();
    for i in 0..setups {
        let dir = scratch.join(format!("setup{i}"));
        let t = Instant::now();
        states.push(W::setup(a.seed, &dir)?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let setup_s = stats::median_f64(&mut setup_times);
    let mut measured = states.pop().expect("at least one set-up");

    // The spare set-ups warm the process up; on a single-threaded workload
    // they also run the same op prefix twice, which must agree exactly on
    // simulated time, chosen variants and cache hits, misses and evictions.
    let mut problems: Vec<String> = Vec::new();
    if W::PREFIX_OPS > 0 && states.len() >= 2 {
        let digests: Vec<_> = states
            .iter_mut()
            .map(|twin| {
                let o = twin.run(Limit::ops(W::PREFIX_OPS), false);
                if let Some(e) = o.first_error {
                    problems.push(format!("determinism prefix: {e}"));
                }
                let c = o.counts;
                (
                    o.digest,
                    o.sim_us.to_bits(),
                    c.cache_hits,
                    c.cache_misses,
                    c.cache_evictions,
                )
            })
            .collect();
        if digests[0] != digests[1] {
            problems.push(format!(
                "not deterministic: two in-process runs of the same {} ops differ: {:x?} vs {:x?}",
                W::PREFIX_OPS,
                digests[0],
                digests[1]
            ));
        }
    } else if let Some(spare) = states.first_mut() {
        spare.run(Limit::seconds(0.5), false);
    }
    drop(states);

    if a.self_test {
        measured.corrupt_reference();
    }
    let (attempted, failed, table, values): (u64, u64, &'static [_], Values) = if a.trace {
        let mut values = probes::run(a.seed, &scratch)?;
        let half = Limit::seconds(a.seconds * UNTRACED_SHARE / 2.0);
        let before = measured.run(half, false);
        let traced = measured.run(Limit::seconds(a.seconds * (1.0 - UNTRACED_SHARE)), true);
        let after = measured.run(half, false);
        layer_counts(&mut values, &traced);
        trace_values(&mut values, &traced, W::NAME, a.seed);
        let untraced = (before.ok + after.ok) as f64 / (before.busy_s + after.busy_s);
        values.insert(
            "trace.overhead_share",
            1.0 - ops_per_s(&traced) / untraced.max(1e-9),
        );
        let runs = [&before, &traced, &after];
        problems.extend(runs.iter().filter_map(|o| o.first_error.clone()));
        (
            runs.iter().map(|o| o.attempted).sum(),
            runs.iter().map(|o| o.failed).sum(),
            &PER_LAYER,
            values,
        )
    } else {
        let out = measured.run(Limit::seconds(a.seconds), false);
        problems.extend(out.first_error.clone());
        (
            out.attempted,
            out.failed,
            &END_TO_END,
            end_to_end(setup_s, &out),
        )
    };
    drop(measured);
    let _ = std::fs::remove_dir_all(scratch_dir());
    Ok(Report {
        correct: failed == 0 && problems.is_empty() && attempted > 0,
        attempted,
        failed,
        table,
        values,
        first_error: problems.into_iter().next(),
    })
}

fn dispatch(name: &str, a: &Args, setups: usize) -> Result<Report, String> {
    use workloads::*;
    match name {
        "compile_boot" => drive::<compile_boot::CompileBoot>(a, setups),
        "exec_full" => drive::<exec_full::ExecFull>(a, setups),
        "launch_steady" => drive::<launch_steady::LaunchSteady>(a, setups),
        "serve_closed" => drive::<serve_closed::ServeClosed>(a, setups),
        "serve_open" => drive::<serve_open::ServeOpen>(a, setups),
        "drift_replan" => drive::<drift_replan::DriftReplan>(a, setups),
        other => Err(format!(
            "unknown workload `{other}`; the workloads are {}",
            WORKLOADS.join(", ")
        )),
    }
}

/// `--repeat n`: n child runs on consecutive seeds; for every end-to-end
/// metric the range and the quartile spread, each as a share of the median.
fn repeat(name: &str, a: &Args, n: usize) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut columns: Vec<(String, Vec<f64>)> = Vec::new();
    for i in 0..n {
        let seed = a.seed + i as u64;
        let out = std::process::Command::new(&exe)
            .args(["--workload", name, "--trace", "0"])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().last().unwrap_or("");
        let (correct, values) =
            metrics::parse_result_line(line).ok_or(format!("run {i} printed no result: {line}"))?;
        if !out.status.success() || !correct {
            return Err(format!("run {i} (seed {seed}) was not correct: {line}"));
        }
        for (k, (metric, value)) in values.into_iter().enumerate() {
            if columns.len() <= k {
                columns.push((metric, Vec::new()));
            }
            columns[k].1.push(value);
        }
    }
    println!(
        "{name}: {n} runs of {} s, seeds {}..{}",
        a.seconds,
        a.seed,
        a.seed + n as u64
    );
    println!(
        "{:<16} {:>14} {:>14} {:>14} {:>10} {:>10}",
        "metric", "min", "median", "max", "range/med", "iqr/med"
    );
    for (metric, values) in &mut columns {
        let med = stats::median_f64(&mut values.clone());
        let (min, max) = values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            });
        let iqr = if values.len() >= 2 {
            stats::iqr_share(values)
        } else {
            0.0
        };
        println!(
            "{metric:<16} {min:>14.6} {med:>14.6} {max:>14.6} {:>10.4} {iqr:>10.4}",
            if med == 0.0 {
                0.0
            } else {
                (max - min) / med.abs()
            }
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let a = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    if a.smoke {
        // Every workload, briefly: one set-up, a short measured section.
        let brief = Args {
            seconds: 0.5,
            ..a.clone()
        };
        let mut all_correct = true;
        for name in WORKLOADS {
            match dispatch(name, &brief, 1) {
                Ok(r) => {
                    all_correct &= r.correct;
                    if let Some(e) = &r.first_error {
                        eprintln!("perf: {name}: {e}");
                    }
                    println!("{name} {}", r.line());
                }
                Err(e) => {
                    eprintln!("perf: {name}: {e}");
                    all_correct = false;
                }
            }
        }
        return if all_correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let Some(name) = a.workload.clone() else {
        eprintln!(
            "perf: --workload is required; the workloads are {}",
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    if let Some(n) = a.repeat {
        return match repeat(&name, &a, n) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perf: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let a = if a.self_test {
        Args {
            seconds: a.seconds.min(2.0),
            ..a
        }
    } else {
        a
    };
    match dispatch(&name, &a, SETUPS) {
        Ok(r) => {
            if let Some(e) = &r.first_error {
                eprintln!("perf: {name}: {e}");
            }
            println!("{}", r.line());
            match (a.self_test, r.failed > 0) {
                (false, _) => ExitCode::SUCCESS,
                // The corrupted reference was caught: failing is the design.
                (true, true) => ExitCode::FAILURE,
                (true, false) => {
                    eprintln!("perf: self-test: a corrupted reference went unnoticed");
                    ExitCode::from(3)
                }
            }
        }
        Err(e) => {
            eprintln!("perf: {name}: {e}");
            ExitCode::FAILURE
        }
    }
}
