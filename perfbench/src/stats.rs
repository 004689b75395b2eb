//! Order statistics: the percentile rule, medians and the run-to-run
//! spread the benchmark contract is judged by.

/// Percentiles the benchmark will report, lowest first, each with the
/// samples beyond it per thousand.
const LADDER: [(f64, usize); 5] = [(50.0, 500), (90.0, 100), (95.0, 50), (99.0, 10), (99.9, 1)];

/// The highest percentile of [`LADDER`] that still has at least ten
/// samples beyond it; 50 when even the median has fewer.
pub fn highest_supported_percentile(samples: usize) -> f64 {
    LADDER
        .iter()
        .filter(|(_, beyond_per_mille)| samples * beyond_per_mille >= 10 * 1000)
        .map(|(p, _)| *p)
        .fold(50.0, f64::max)
}

/// Nearest-rank percentile of an ascending slice; 0 for an empty one.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `p`, lowered to the highest percentile the sample supports.
pub fn tail_percentile(sorted: &[u64], p: f64) -> u64 {
    percentile(sorted, p.min(highest_supported_percentile(sorted.len())))
}

/// Windows a run's samples are cut into.
pub const WINDOWS: usize = 5;
/// Samples a window needs to support a 95th percentile.
const MIN_WINDOW: usize = 200;

/// `samples`, in the order they were taken, cut into [`WINDOWS`]
/// consecutive windows, or into fewer when they would hold under
/// [`MIN_WINDOW`] samples. This host stalls for a second or two now and
/// then; a value reported as the median over the windows of a run leaves
/// such a stall out, where a value over the whole run carries it.
///
/// A window is a whole number of `unit`s: a loop that repeats one pass of
/// ops passes its length, so that every window holds the same mix of ops.
/// The last window takes what is left over.
fn cuts(samples: &[u64], unit: usize) -> Vec<&[u64]> {
    let unit = unit.max(1);
    let units = samples.len() / unit;
    let windows = WINDOWS.min(units / MIN_WINDOW.div_ceil(unit)).max(1);
    let len = units / windows * unit;
    (0..windows)
        .map(|w| match w + 1 == windows {
            true => &samples[w * len..],
            false => &samples[w * len..(w + 1) * len],
        })
        .collect()
}

/// The median over the windows of each window's percentile `p`.
pub fn windowed_percentile(samples: &[u64], unit: usize, p: f64) -> u64 {
    let mut per_window: Vec<u64> = cuts(samples, unit)
        .into_iter()
        .map(|w| {
            let mut w = w.to_vec();
            w.sort_unstable();
            tail_percentile(&w, p)
        })
        .collect();
    median_u64(&mut per_window)
}

/// Ops per second of a loop that runs one op at a time, from its op
/// latencies: the median over the windows of ops ÷ summed latency.
pub fn windowed_rate(lat_ns: &[u64], unit: usize) -> f64 {
    let mut per_window: Vec<f64> = cuts(lat_ns, unit)
        .into_iter()
        .filter(|w| !w.is_empty())
        .map(|w| w.len() as f64 * 1e9 / (w.iter().sum::<u64>().max(1)) as f64)
        .collect();
    median_f64(&mut per_window)
}

pub fn median_u64(v: &mut [u64]) -> u64 {
    v.sort_unstable();
    percentile(v, 50.0)
}

pub fn median_f64(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Latency of an open-loop request, timed from when it was *due*, so a
/// stalled generator's delay is charged to the requests it delayed.
pub fn due_latency_us(due_us: u64, finished_us: u64) -> u64 {
    finished_us.saturating_sub(due_us)
}

/// Quartile cut points as Python's `statistics.quantiles(v, n=4)` gives
/// them (the default, exclusive method).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    assert!(m >= 2, "quartiles need two values");
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and the third quartile as a share of the
/// median: the spread the driver compares with a metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(v: &[u64]) -> Vec<u64> {
        let mut v = v.to_vec();
        v.sort_unstable();
        v
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(5), 50.0);
        assert_eq!(highest_supported_percentile(20), 50.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(199), 90.0);
        assert_eq!(highest_supported_percentile(200), 95.0);
        assert_eq!(highest_supported_percentile(1000), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
    }

    #[test]
    fn nearest_rank() {
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile(&v, 50.0), 100);
        assert_eq!(percentile(&v, 95.0), 190);
        assert_eq!(percentile(&v, 100.0), 200);
        assert_eq!(percentile(&[], 50.0), 0);
        // 100 samples support p90 at most: a p95 request is lowered.
        let small: Vec<u64> = (1..=100).collect();
        assert_eq!(tail_percentile(&small, 95.0), 90);
        assert_eq!(tail_percentile(&v, 95.0), 190);
    }

    #[test]
    fn windows_shrug_off_one_bad_stretch() {
        // Five windows of 200; the fourth has a tail ten times as long.
        let mut v: Vec<u64> = (0..1000).map(|i| i % 200).collect();
        for s in &mut v[600..800] {
            *s *= 10;
        }
        assert_eq!(windowed_percentile(&v, 1, 95.0), 189);
        assert_eq!(percentile(&sorted(&v), 95.0), 1490);
        assert_eq!(windowed_percentile(&[], 1, 95.0), 0);
        // Too few samples for five windows of 200: one window of 300.
        let few: Vec<u64> = (1..=300).collect();
        assert_eq!(windowed_percentile(&few, 1, 95.0), 285);
        // Passes of 90 ops: 12 passes make four windows of 3 passes (270).
        let passes: Vec<u64> = (0..12 * 90).collect();
        let lens: Vec<usize> = cuts(&passes, 90).iter().map(|w| w.len()).collect();
        assert_eq!(lens, [270, 270, 270, 270]);
        let lens: Vec<usize> = cuts(&passes[..1000], 90).iter().map(|w| w.len()).collect();
        assert_eq!(lens, [270, 270, 460]);
        // 200 ops of 1 ms a window, 10 ms in the stalled one: 1000 ops/s.
        let mut lat = vec![1_000_000u64; 1000];
        for ns in &mut lat[600..800] {
            *ns *= 10;
        }
        assert_eq!(windowed_rate(&lat, 1), 1000.0);
        assert_eq!(windowed_rate(&[], 1), 0.0);
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        // Due at 1000, sent late at 1400, finished at 1900: the caller
        // waited 900, not 500.
        assert_eq!(due_latency_us(1000, 1900), 900);
        assert_eq!(due_latency_us(1000, 900), 0);
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_u64(&mut [9, 1, 5, 7]), 5);
    }
}
