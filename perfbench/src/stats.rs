//! The benchmark's arithmetic: percentiles, the paper's top-20 metric, span self
//! time and the executor's useful-work ratio. Times are plain `f64` seconds.

/// A reported percentile must keep at least this many samples beyond it.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Number of samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Median of the values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 0 {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The paper's metric: take each query's median latency over its repetitions, then
/// sum the `k` largest medians. Queries without samples are skipped.
pub fn top_k_of_medians(per_query: &[Vec<f64>], k: usize) -> f64 {
    let mut medians: Vec<f64> = per_query
        .iter()
        .filter(|samples| !samples.is_empty())
        .map(|samples| median(samples))
        .collect();
    medians.sort_by(|a, b| b.total_cmp(a));
    medians.iter().take(k).sum()
}

/// Length of the part of `parent` covered by the union of `children`, each clipped
/// to the parent interval. Intervals are `(start, end)`.
pub fn covered(parent: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(start, end)| (start.max(parent.0), end.min(parent.1)))
        .filter(|(start, end)| end > start)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (start, end) in clipped {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + current.map_or(0.0, |(s, e)| e - s)
}

/// A span's self time: its duration minus the part its children cover.
pub fn self_time(parent: (f64, f64), children: &[(f64, f64)]) -> f64 {
    (parent.1 - parent.0) - covered(parent, children)
}

/// Useful-work ratio of execution: summed operator time divided by the executor's
/// wall time times its thread count (1.0 = every thread busy in an operator).
pub fn busy_ratio(operator_s: f64, exec_wall_s: f64, threads: usize) -> f64 {
    if exec_wall_s <= 0.0 || threads == 0 {
        0.0
    } else {
        operator_s / (exec_wall_s * threads as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_is_the_highest_percentile_one_pass_supports() {
        // One pass of the 104-query workload keeps 10 samples beyond the p90 and one
        // beyond the p99, so p90 is the highest percentile it can report.
        assert_eq!(samples_beyond(104, 0.9), 10);
        assert_eq!(samples_beyond(104, 0.99), 1);
        // Fewer than 100 samples cannot support a p90.
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(samples_beyond(416, 0.9), 41);
        assert_eq!(samples_beyond(0, 0.9), 0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let sorted: Vec<f64> = (1..=104).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 52.0);
        assert_eq!(percentile(&sorted, 0.9), 94.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn top_k_sums_the_largest_per_query_medians() {
        let per_query = vec![
            vec![1.0, 100.0, 2.0], // median 2: one slow outlier does not count
            vec![5.0, 6.0],        // median 5.5
            vec![],                // never ran
            vec![3.0],
        ];
        assert_eq!(top_k_of_medians(&per_query, 2), 8.5);
        assert_eq!(top_k_of_medians(&per_query, 20), 10.5);
    }

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        // Overlapping children count once.
        assert_eq!(covered((0.0, 10.0), &[(1.0, 4.0), (3.0, 5.0)]), 4.0);
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 4.0), (3.0, 5.0)]), 6.0);
        // Disjoint children add up; a child reaching outside is clipped.
        assert_eq!(
            self_time((0.0, 10.0), &[(8.0, 12.0), (-1.0, 1.0), (4.0, 5.0)]),
            6.0
        );
        // Children wholly outside, or empty, cover nothing.
        assert_eq!(self_time((0.0, 10.0), &[(11.0, 12.0), (5.0, 5.0)]), 10.0);
        // A child covering the parent leaves no self time.
        assert_eq!(self_time((2.0, 3.0), &[(0.0, 9.0)]), 0.0);
    }

    #[test]
    fn busy_ratio_normalises_by_threads() {
        assert_eq!(busy_ratio(3.0, 2.0, 2), 0.75);
        assert_eq!(busy_ratio(2.0, 2.0, 1), 1.0);
        assert_eq!(busy_ratio(1.0, 0.0, 2), 0.0);
    }
}
