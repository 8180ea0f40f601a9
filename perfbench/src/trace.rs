//! Spans the benchmark records around its own calls into each layer. They stay in
//! memory during the run and are written out once at the end.

use crate::stats;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed interval, as an offset from the trace's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary the span covers (`query`, `sql.parse`, `planner.plan`, ...).
    pub name: &'static str,
    /// Index of the query in the workload's query list.
    pub query: usize,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Start offset from the epoch.
    pub start: Duration,
    /// End offset from the epoch.
    pub end: Duration,
}

/// An in-memory span log.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// An empty trace whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Offset of `instant` from the epoch.
    pub fn offset(&self, instant: Instant) -> Duration {
        instant.saturating_duration_since(self.epoch)
    }

    /// Record a span over `[start, end)` and return its index, for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        query: usize,
        parent: Option<usize>,
        start: Duration,
        end: Duration,
    ) -> usize {
        self.spans.push(Span {
            name,
            query,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Record children of `parent` back to back from its start, one per
    /// `(name, duration)`. Used where a layer reports how long its phases took but
    /// not when they ran; the layout only matters for coverage, and back-to-back
    /// spans cover exactly the sum of their durations (clipped to the parent).
    pub fn record_sequential(&mut self, parent: usize, phases: &[(&'static str, Duration)]) {
        let Span { query, start, .. } = self.spans[parent];
        let mut at = start;
        for &(name, duration) in phases {
            self.record(name, query, Some(parent), at, at + duration);
            at += duration;
        }
    }

    /// Summed self time (span minus the part its children cover), in seconds, per
    /// span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, f64> {
        let interval = |span: &Span| (span.start.as_secs_f64(), span.end.as_secs_f64());
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push(interval(span));
            }
        }
        let mut totals = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&children) {
            *totals.entry(span.name).or_insert(0.0) += stats::self_time(interval(span), children);
        }
        totals
    }

    /// Write the spans as tab-separated lines: span index, parent index (`-` for a
    /// root), query id, name, start and end in microseconds from the epoch.
    pub fn write_tsv(&self, path: &Path, query_ids: &[String]) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "span\tparent\tquery\tname\tstart_us\tend_us")?;
        for (idx, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{idx}\t{parent}\t{}\t{}\t{}\t{}",
                query_ids[span.query],
                span.name,
                span.start.as_micros(),
                span.end.as_micros()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(value: u64) -> Duration {
        Duration::from_millis(value)
    }

    #[test]
    fn self_time_groups_by_name_and_subtracts_children() {
        let mut trace = Trace::new();
        let query = trace.record("query", 0, None, ms(0), ms(100));
        trace.record("sql.parse", 0, Some(query), ms(0), ms(10));
        trace.record("planner.plan", 0, Some(query), ms(10), ms(30));
        trace.record("executor.execute", 0, Some(query), ms(35), ms(95));
        let totals = trace.self_time_by_name();
        assert!((totals["query"] - 0.010).abs() < 1e-9);
        assert!((totals["sql.parse"] - 0.010).abs() < 1e-9);
        assert!((totals["planner.plan"] - 0.020).abs() < 1e-9);
        assert!((totals["executor.execute"] - 0.060).abs() < 1e-9);
    }

    #[test]
    fn sequential_children_are_clipped_to_the_parent() {
        let mut trace = Trace::new();
        let reopt = trace.record("core.reopt", 3, None, ms(50), ms(80));
        // Reported phase durations that sum past the parent (e.g. summed worker
        // time) cover it fully and leave no negative self time.
        trace.record_sequential(
            reopt,
            &[("planner.plan", ms(10)), ("executor.execute", ms(40))],
        );
        assert_eq!(trace.spans()[2].start, ms(60));
        assert_eq!(trace.spans()[2].query, 3);
        let totals = trace.self_time_by_name();
        assert_eq!(totals["core.reopt"], 0.0);
        assert!((totals["executor.execute"] - 0.040).abs() < 1e-9);
    }
}
