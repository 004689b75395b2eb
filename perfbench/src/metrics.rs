//! The metric tables and the result line.
//!
//! `BENCHMARK.json` at the root of the repository lists the same names in
//! the same order; a unit test holds the two together.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric, printed with tracing off.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p95", "ms"),
    ("ok_share", "share"),
    ("sim_us_per_op", "sim_us"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, printed by a traced run.
/// Timings are medians from the layer probes; counts come from the
/// workload the traced run executed and are 0 where it does not use the
/// layer.
pub const PER_LAYER: [(&str, &str); 77] = [
    ("streamir.parse_us", "us"),
    ("streamir.parse_bytes_per_s", "B/s"),
    ("streamir.rate_match_us", "us"),
    ("plan.compile_cold_us", "us"),
    ("plan.compile_warm_us", "us"),
    ("plan.tables_us", "us"),
    ("plan.variants", "count"),
    ("plan.content_hash_us", "us"),
    ("perfmodel.estimate_ns", "ns"),
    ("perfmodel.partition_us", "us"),
    ("bytecode.lower_us", "us"),
    ("bytecode.ops", "count"),
    ("artifact.encode_us", "us"),
    ("artifact.decode_us", "us"),
    ("artifact.store_write_us", "us"),
    ("artifact.load_us", "us"),
    ("artifact.bytes", "B"),
    ("artifact.hits", "count"),
    ("artifact.misses", "count"),
    ("artifact.rejects", "count"),
    ("warp.eval_ns_per_firing", "ns"),
    ("warp.firings_per_s", "1/s"),
    ("gpu_sim.launch_full_us", "us"),
    ("gpu_sim.sim_threads_per_s", "1/s"),
    ("gpu_sim.accounting_rows_per_s", "1/s"),
    ("gpu_sim.cache_hit_ns", "ns"),
    ("gpu_sim.cache_insert_ns", "ns"),
    ("gpu_sim.cache_hits", "count"),
    ("gpu_sim.cache_misses", "count"),
    ("gpu_sim.cache_evictions", "count"),
    ("gpu_sim.cache_hit_share", "share"),
    ("kmu.select_ns", "ns"),
    ("kmu.corrected_cost_ns", "ns"),
    ("kmu.run_full_us", "us"),
    ("kmu.run_hit_us", "us"),
    ("kmu.run_miss_us", "us"),
    ("kmu.boundary_moves", "count"),
    ("kmu.model_error_mean", "share"),
    ("kmu.regret_geomean", "ratio"),
    ("kmu.fallbacks", "count"),
    ("kmu.retries", "count"),
    ("telemetry.snapshot_ns", "ns"),
    ("telemetry.share_of_hit", "share"),
    ("fleet.place_ns", "ns"),
    ("fleet.admit_ns", "ns"),
    ("fleet.settle_ns", "ns"),
    ("fleet.makespan_sim_us", "sim_us"),
    ("resched.replans", "count"),
    ("resched.rate_exits", "count"),
    ("resched.clamped", "count"),
    ("resched.plan_wall_us_total", "us"),
    ("resched.store_hits", "count"),
    ("serve.submit_ns", "ns"),
    ("serve.request_us", "us"),
    ("serve.queued_us_p50", "us"),
    ("serve.queued_us_p95", "us"),
    ("serve.launch_share", "share"),
    ("serve.rejected_quota", "count"),
    ("serve.rejected_queue_full", "count"),
    ("serve.rejected_deadline", "count"),
    ("serve.shed", "count"),
    ("serve.failed", "count"),
    ("serve.late", "count"),
    ("serve.coalesced", "count"),
    ("serve.useful_share", "share"),
    ("serve.on_time_share_lo", "share"),
    ("serve.on_time_share_mid", "share"),
    ("serve.on_time_share_hi", "share"),
    ("serve.goodput_rps_lo", "1/s"),
    ("serve.goodput_rps_mid", "1/s"),
    ("serve.goodput_rps_hi", "1/s"),
    ("loadgen.lag_ms_p95", "ms"),
    ("loadgen.lag_share_of_gap", "share"),
    ("trace.spans", "count"),
    ("trace.overhead_share", "share"),
    ("trace.layer_time_share", "share"),
    ("trace.ops", "count"),
];

/// Metric values by name; a name never set prints as 0.
pub type Values = BTreeMap<&'static str, f64>;

/// The last line of standard output: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`. Values print with all
/// the digits they were measured with.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&'static str, &'static str)],
    values: &Values,
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, unit)) in table.iter().enumerate() {
        let v = values.get(name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

/// `name -> value` of a result line this program printed.
pub fn parse_result_line(line: &str) -> Option<(bool, Vec<(String, f64)>)> {
    let correct = line.contains("\"correct\": true");
    let body = line.split_once("\"metrics\": {")?.1;
    let mut out = Vec::new();
    for part in body.split("\"unit\"") {
        let Some((head, value)) = part.rsplit_once("{\"value\": ") else {
            continue;
        };
        let name = head.rsplit('"').nth(1)?;
        let value = value.trim_end_matches([',', ' ']).parse().ok()?;
        out.push((name.to_string(), value));
    }
    Some((correct, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A name: starts with a letter or digit, at most 64 of letters,
    /// digits, `_`, `.` and `-`.
    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    /// A unit: at most 16 of letters, digits, `_`, `/`, `%`, `.` and `-`.
    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_charset() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "bad metric name `{name}`");
            assert!(valid_unit(unit), "bad unit `{unit}` of `{name}`");
            assert!(seen.insert(*name), "metric `{name}` is listed twice");
        }
        assert!(!valid_name(".hidden") && !valid_name("a b") && !valid_name(&"x".repeat(65)));
        assert!(valid_name("serve.on_time_share_0.5x") && valid_unit("1/s") && !valid_unit("µs"));
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        for (section, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let body = json.split_once(&format!("\"{section}\": [")).unwrap().1;
            let body = body.split_once(']').unwrap().0;
            let listed: Vec<(&str, &str)> = body
                .split('{')
                .skip(1)
                .map(|e| {
                    let field = |k: &str| {
                        let rest = e.split_once(&format!("\"{k}\": \"")).unwrap().1;
                        rest.split_once('"').unwrap().0
                    };
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(listed, table, "{section} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn result_line_round_trips() {
        let mut v = Values::new();
        v.insert("setup_s", 0.8127);
        v.insert("ops_per_s", 1234.5678901);
        let line = result_line(true, 10, 0, &END_TO_END, &v);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        let (correct, parsed) = parse_result_line(&line).unwrap();
        assert!(correct);
        assert_eq!(parsed.len(), END_TO_END.len());
        assert_eq!(parsed[0], ("setup_s".to_string(), 0.8127));
        assert_eq!(parsed[1], ("ops_per_s".to_string(), 1234.5678901));
        assert_eq!(parsed[2], ("op_ms_p50".to_string(), 0.0));
    }
}
