//! Metrics and gates computed from a [`RunRecord`].

use crate::stats::{self, busy_ratio, median, percentile, top_k_of_medians};
use crate::yardstick::at_reference_speed;
use crate::{RunRecord, Sample, Workload};

/// Span names, in the order their self-time shares are reported.
const SPAN_NAMES: [&str; 7] = [
    "query",
    "sql.parse",
    "planner.plan",
    "executor.execute",
    "core.reopt",
    "reopt.detection",
    "reopt.materialize",
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn sum(samples: &[&Sample], field: impl Fn(&Sample) -> f64) -> f64 {
    samples.iter().map(|s| field(s)).sum()
}

fn median_of(samples: &[&Sample], field: impl Fn(&Sample) -> f64) -> f64 {
    let values: Vec<f64> = samples.iter().map(|s| field(s)).collect();
    if values.is_empty() {
        0.0
    } else {
        median(&values)
    }
}

impl RunRecord {
    fn samples_where(&self, traced: bool) -> Vec<&Sample> {
        self.samples.iter().filter(|s| s.traced == traced).collect()
    }

    fn pass_count(&self, traced: bool) -> usize {
        self.passes.iter().filter(|(t, _)| *t == traced).count()
    }

    /// Failed query calls: errors and results that differ from the reference.
    pub fn failed(&self) -> usize {
        self.samples.iter().filter(|s| s.error.is_some()).count()
    }

    /// The untraced latencies of each query, indexed like [`RunRecord::queries`];
    /// as measured, or at the yardstick's reference speed.
    fn latencies_by_query(&self, at_reference: bool) -> Vec<Vec<f64>> {
        let mut per_query = vec![Vec::new(); self.queries.len()];
        for sample in self.samples_where(false) {
            per_query[sample.query].push(if at_reference {
                at_reference_speed(sample.latency, sample.yardstick)
            } else {
                sample.latency
            });
        }
        per_query
    }

    /// The end-to-end metrics, from the untraced passes. The latency percentiles are
    /// taken over the per-query latencies (each query's median over the passes), so
    /// one pass's jitter on the few queries next to the p90 rank does not decide it.
    ///
    /// With `at_reference`, every time is scaled to the yardstick's reference speed
    /// by the reading around its call: these are the reported metrics, because the
    /// host's own speed drifts by more than any bound. Without it, the times are as
    /// measured.
    pub fn end_to_end(&self, at_reference: bool) -> Vec<Metric> {
        let per_query = self.latencies_by_query(at_reference);
        let stream: Vec<f64> = per_query.iter().flatten().copied().collect();
        let setups: Vec<f64> = if at_reference {
            self.setup_s
                .iter()
                .zip(&self.setup_yardstick)
                .map(|(&s, &y)| at_reference_speed(s, y))
                .collect()
        } else {
            self.setup_s.clone()
        };
        let mut latencies: Vec<f64> = per_query
            .iter()
            .filter(|l| !l.is_empty())
            .map(|l| median(l))
            .collect();
        latencies.sort_by(f64::total_cmp);
        let (p50, p90) = if latencies.is_empty() {
            (0.0, 0.0)
        } else {
            (percentile(&latencies, 0.5), percentile(&latencies, 0.9))
        };
        vec![
            metric("setup_s", "s", median(&setups)),
            metric(
                "qps",
                "1/s",
                ratio(stream.len() as f64, stream.iter().sum()),
            ),
            metric("latency_p50_ms", "ms", p50 * 1e3),
            metric("latency_p90_ms", "ms", p90 * 1e3),
            metric("top20_s", "s", top_k_of_medians(&per_query, 20)),
            metric(
                "error_rate",
                "ratio",
                ratio(self.failed() as f64, self.samples.len() as f64),
            ),
            metric("peak_rss_mb", "MB", self.peak_rss_mb),
        ]
    }

    /// The per-layer metrics, from the traced passes (empty for an untraced run).
    /// Counts and summed times are per traced pass unless named per query.
    pub fn per_layer(&self) -> Vec<Metric> {
        let t = self.samples_where(true);
        if t.is_empty() {
            return Vec::new();
        }
        let n = t.len() as f64;
        let passes = self.pass_count(true) as f64;
        let all_passes = self.passes.len() as f64;
        let wall = sum(&t, |s| s.latency);
        let exec = sum(&t, |s| s.exec);
        let estimates = sum(&t, |s| s.estimation.total() as f64);
        let subset_hits = sum(&t, |s| s.estimation.subset_cache_hits as f64);
        let memo_hits = sum(&t, |s| s.estimation.selectivity_memo_hits as f64);
        let memo_misses = sum(&t, |s| s.estimation.selectivity_memo_misses as f64);
        let detection = sum(&t, |s| s.detection);
        let pass_walls = |traced: bool| -> f64 {
            let walls: Vec<f64> = self
                .passes
                .iter()
                .filter(|(t, _)| *t == traced)
                .map(|(_, wall)| *wall)
                .collect();
            median(&walls)
        };
        let overhead = pass_walls(true) - pass_walls(false);
        let self_times = self.trace.self_time_by_name();

        let mut metrics = vec![
            metric("sql.parse_us", "us", median_of(&t, |s| s.parse) * 1e6),
            metric("planner.plan_ms", "ms", median_of(&t, |s| s.plan) * 1e3),
            metric(
                "planner.plan_share",
                "ratio",
                ratio(sum(&t, |s| s.plan), wall),
            ),
            metric(
                "planner.plans_per_query",
                "count",
                sum(&t, |s| s.plans as f64) / n,
            ),
            metric("planner.estimates_per_query", "count", estimates / n),
            metric(
                "planner.subset_cache_hit_rate",
                "ratio",
                ratio(subset_hits, subset_hits + estimates),
            ),
            metric(
                "planner.selectivity_memo_hit_rate",
                "ratio",
                ratio(memo_hits, memo_hits + memo_misses),
            ),
            metric("executor.exec_ms", "ms", median_of(&t, |s| s.exec) * 1e3),
            metric("executor.exec_share", "ratio", ratio(exec, wall)),
            metric("executor.join_op_s", "s", sum(&t, |s| s.join_op) / passes),
            metric("executor.scan_op_s", "s", sum(&t, |s| s.scan_op) / passes),
            metric(
                "executor.busy_ratio",
                "ratio",
                busy_ratio(
                    sum(&t, |s| s.op_total),
                    exec,
                    self.settings.workload.threads(),
                ),
            ),
            metric(
                "executor.fallbacks",
                "count",
                sum(&t, |s| f64::from(u8::from(s.fallback))) / passes,
            ),
            metric(
                "executor.peak_buffered_mb",
                "MB",
                t.iter().map(|s| s.peak_buffered_bytes).max().unwrap_or(0) as f64 / 1e6,
            ),
            metric("pool.threads_spawned", "count", self.threads_spawned as f64),
            metric(
                "spill.bytes_mb",
                "MB",
                sum(&t, |s| s.spilled_bytes as f64) / passes / 1e6,
            ),
            metric(
                "spill.partitions",
                "count",
                sum(&t, |s| s.spill_partitions as f64) / passes,
            ),
            metric("spill.denials", "count", self.denials as f64 / all_passes),
            metric(
                "spill.peak_reserved_mb",
                "MB",
                self.peak_reserved as f64 / 1e6,
            ),
            metric(
                "reopt.rounds_per_query",
                "count",
                sum(&t, |s| s.rounds as f64) / n,
            ),
            metric("reopt.detection_s", "s", detection / passes),
            metric("reopt.detection_share", "ratio", ratio(detection, wall)),
            metric(
                "reopt.materialize_s",
                "s",
                sum(&t, |s| s.materialize) / passes,
            ),
            metric(
                "reopt.reused_rows",
                "count",
                sum(&t, |s| s.reused_rows as f64) / passes,
            ),
        ];
        for name in SPAN_NAMES {
            let self_time = self_times.get(name).copied().unwrap_or(0.0);
            metrics.push(metric(
                format!("self_share.{name}"),
                "ratio",
                ratio(self_time, wall),
            ));
        }
        metrics.push(metric("trace.overhead_s", "s", overhead));
        metrics.push(metric(
            "trace.overhead_share",
            "ratio",
            ratio(overhead, pass_walls(false)),
        ));
        metrics.push(metric(
            "machine.yardstick_ms",
            "ms",
            median(&self.yardstick_readings) * 1e3,
        ));
        metrics
    }

    /// Gates that fail the run when a workload stops exercising what it exists to
    /// measure, leaks spill files, or has too few queries for its p90.
    pub fn gate_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        let measured = self
            .latencies_by_query(false)
            .iter()
            .filter(|l| !l.is_empty())
            .count();
        if stats::samples_beyond(measured, 0.9) < stats::MIN_SAMPLES_BEYOND {
            failures.push(format!(
                "p90 needs {} per-query latencies beyond it; {measured} queries leave {}",
                stats::MIN_SAMPLES_BEYOND,
                stats::samples_beyond(measured, 0.9)
            ));
        }
        let rounds: usize = self.samples.iter().map(|s| s.rounds).sum();
        let spilled: u64 = self.samples.iter().map(|s| s.spilled_bytes).sum();
        let parallel = self.samples.iter().filter(|s| s.parallel).count();
        match self.settings.workload {
            Workload::Plain => {}
            Workload::MidQuery => {
                if rounds == 0 {
                    failures.push("no re-optimization round was triggered".into());
                }
            }
            Workload::OutOfCore2t => {
                if self.denials == 0 {
                    failures.push("the memory governor denied no grant".into());
                }
                if spilled == 0 {
                    failures.push("no bytes were spilled".into());
                }
                if parallel == 0 {
                    failures.push("no query ran on the parallel engine".into());
                }
            }
        }
        if self.live_spill_files != 0 {
            failures.push(format!(
                "{} spill file(s) left on disk",
                self.live_spill_files
            ));
        }
        failures
    }
}
