//! Estimators: nearest-rank percentiles, the sub-window tail estimator, and
//! the quartiles `--compare` and the spread check use.

/// Nearest-rank percentile of an ascending slice (`q` in (0, 1]).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("latencies are never NaN"));
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The tail estimator for request workloads: cut the phase into `windows`
/// equal spans of due time, take each span's p99, report their median. One
/// machine hiccup then moves one window, not the metric. `samples` are
/// `(due_ns, latency_us)`; returns the estimate and the smallest window's
/// sample count (printed, so a reader can see the p99 is supported).
pub fn subwindow_p99(samples: &[(u64, f64)], span_ns: u64, windows: usize) -> (f64, usize) {
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(due, lat) in samples {
        let w = ((due as u128 * windows as u128) / span_ns.max(1) as u128) as usize;
        buckets[w.min(windows - 1)].push(lat);
    }
    buckets.retain(|b| !b.is_empty());
    assert!(!buckets.is_empty(), "tail of no samples");
    let smallest = buckets.iter().map(Vec::len).min().unwrap_or(0);
    let p99s: Vec<f64> = buckets
        .iter_mut()
        .map(|b| {
            sort(b);
            percentile(b, 0.99)
        })
        .collect();
    (median(&p99s), smallest)
}

/// Fixed-memory latency recorder for phases that resolve millions of
/// operations: log-spaced buckets 0.1% wide from 0.1 µs up, so a percentile
/// is within 0.1% of the sample it stands for and the recorder's size does
/// not grow with throughput (it would otherwise show up in `rss_mb`).
pub struct LogHist {
    buckets: Vec<u64>,
    count: u64,
}

const HIST_MIN_US: f64 = 0.1;
const HIST_STEP: f64 = 1.001;
/// 0.1 µs · 1.001^20_000 ≈ 48 s: beyond any latency a run can see.
const HIST_BUCKETS: usize = 20_000;

impl LogHist {
    pub fn new() -> Self {
        LogHist {
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
        }
    }

    pub fn record(&mut self, us: f64) {
        let i = ((us.max(HIST_MIN_US) / HIST_MIN_US).ln() / HIST_STEP.ln()) as usize;
        self.buckets[i.min(HIST_BUCKETS - 1)] += 1;
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Nearest-rank percentile, reported as its bucket's geometric middle.
    pub fn percentile(&self, q: f64) -> f64 {
        assert!(self.count > 0, "percentile of no samples");
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return HIST_MIN_US * HIST_STEP.powf(i as f64 + 0.5);
            }
        }
        unreachable!("rank is within count")
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so the spread printed here is the spread the
/// driver computes. One value has no spread: all three quartiles equal it.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    assert!(n > 0, "quartiles of no samples");
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// Inter-quartile distance as a share of the median (0 when the median is).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_a_sorted_oracle() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(percentile(&v, 1.0), 1000.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // unsorted input through the public path
        let mut w = vec![5.0, 1.0, 9.0, 3.0];
        sort(&mut w);
        assert_eq!(percentile(&w, 0.5), 3.0);
        assert_eq!(median(&[5.0, 1.0, 9.0, 3.0]), 4.0);
    }

    #[test]
    fn log_hist_tracks_the_sorted_oracle_within_a_bucket() {
        let mut h = LogHist::new();
        let mut v: Vec<f64> = (0..50_000)
            .map(|i| 3.0 + (i as f64 * 0.37) % 9_000.0)
            .collect();
        v.iter().for_each(|&x| h.record(x));
        sort(&mut v);
        assert_eq!(h.count(), 50_000);
        for q in [0.5, 0.99, 1.0] {
            let (got, want) = (h.percentile(q), percentile(&v, q));
            assert!((got / want - 1.0).abs() < 0.001, "q{q}: {got} vs {want}");
        }
        h.record(1e12); // absurd values land in the last bucket, not out of bounds
        h.record(0.0);
    }

    #[test]
    fn subwindow_tail_ignores_one_bad_window() {
        // three windows of 1000 samples at latency 1..=1000, then poison
        // the last window: the median of p99s stays at the clean value
        let mut samples = Vec::new();
        for w in 0..3u64 {
            for i in 0..1000u64 {
                let lat = if w == 2 { 1e6 } else { (i + 1) as f64 };
                samples.push((w * 1000 + i, lat));
            }
        }
        let (tail, smallest) = subwindow_p99(&samples, 3000, 3);
        assert_eq!(tail, 990.0);
        assert_eq!(smallest, 1000);
        // oracle: sort each window by hand
        let mut first: Vec<f64> = samples[..1000].iter().map(|s| s.1).collect();
        sort(&mut first);
        assert_eq!(first[989], 990.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[4.0]), 0.0);
    }
}
