//! Small statistics helpers: order statistics over samples and the
//! process's peak resident memory.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by the nearest-rank rule; 0
/// for an empty slice. Sorts a copy, so callers keep their sample order.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of `samples` (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// How many of `n` samples are the fastest `share` of them: at least one of
/// a non-empty set.
pub fn fast_count(n: usize, share: f64) -> usize {
    (share * n as f64).ceil() as usize
}

/// The fastest `share` of each group's samples, pooled.
pub fn fastest_pooled(groups: &[Vec<f64>], share: f64) -> Vec<f64> {
    groups
        .iter()
        .flat_map(|g| {
            let mut g = g.clone();
            g.sort_by(f64::total_cmp);
            g.truncate(fast_count(g.len(), share));
            g
        })
        .collect()
}

/// Units of work per second over the fastest `share` of `parts`, each a
/// `(wall seconds, units done)` pair; with the units and parts that rate
/// counts.
pub fn fastest_rate(parts: &[(f64, usize)], share: f64) -> (f64, usize, usize) {
    let mut parts = parts.to_vec();
    parts.sort_by(|a, b| a.0.total_cmp(&b.0));
    parts.truncate(fast_count(parts.len(), share));
    let wall: f64 = parts.iter().map(|(w, _)| w).sum();
    let units: usize = parts.iter().map(|(_, n)| n).sum();
    (units as f64 / wall, units, parts.len())
}

/// The highest of p99, p90 and p50 that has at least ten samples beyond it,
/// with its label; p50 when there are fewer than twenty samples.
pub fn tail(samples: &[f64]) -> (&'static str, f64) {
    for (label, q) in [("p99", 0.99), ("p90", 0.90)] {
        let rank = (q * samples.len() as f64).ceil() as usize;
        if samples.len().saturating_sub(rank) >= 10 {
            return (label, quantile(samples, q));
        }
    }
    ("p50", median(samples))
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total and stolen CPU jiffies so far, from the first line of
/// `/proc/stat`; zeros where it is unavailable. Steal is the time a virtual
/// CPU was ready but the host ran something else.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(tail(&v).0, "p90");
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&many), ("p99", 990.0));
    }

    #[test]
    fn fastest_tenth() {
        assert_eq!(fast_count(0, 0.1), 0);
        assert_eq!(fast_count(5, 0.1), 1);
        assert_eq!(fast_count(20, 0.1), 2);
        assert_eq!(fast_count(5, 0.5), 3);
        let groups = vec![(1..=20).rev().map(f64::from).collect(), vec![7.0]];
        assert_eq!(fastest_pooled(&groups, 0.1), vec![1.0, 2.0, 7.0]);
        let parts: Vec<(f64, usize)> = (1..=10).map(|w| (w as f64, 4)).collect();
        assert_eq!(fastest_rate(&parts, 0.1), (4.0, 4, 1));
        assert_eq!(fastest_rate(&parts, 0.2), (8.0 / 3.0, 8, 2));
    }
}
