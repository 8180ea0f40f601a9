//! # reopt-perfbench
//!
//! The repository's benchmark: three closed-loop JOB workloads, one client thread
//! each, over the synthetic IMDB data of `reopt-workload`. Every workload runs the
//! 104 JOB queries that join at most 12 relations, pass after pass, and checks every
//! result against a reference computed before the timed stream. See `README.md` in
//! this directory for why each workload exists and which metric each layer moves.
//!
//! The benchmark measures every layer from outside: it times its own calls into
//! `reopt-sql`, `reopt-planner`, `reopt-executor` and `reopt-core`, and reads the
//! durations and counts those calls already return. Every setting is pinned through
//! the public setters, so `REOPT_*` environment variables cannot change a workload.
//!
//! The end-to-end times are reported at a fixed machine speed: every timed call is
//! bracketed by readings of the benchmark's own [`yardstick`], which cancel the
//! shared host's drift.

pub mod report;
pub mod stats;
pub mod trace;
pub mod yardstick;

use reopt_core::{execute_with_policy_feedback, Database, DbError, ReoptConfig, ReoptMode};
use reopt_executor::{Executor, QueryMetrics, WorkerPool, DEFAULT_BATCH_SIZE};
use reopt_planner::{EstimationLog, OptimizerConfig};
use reopt_sql::parse_sql;
use reopt_storage::Row;
use reopt_workload::{job_queries, load_imdb, ImdbConfig};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Trace;
use yardstick::SpeedProbe;

/// IMDB scale factor of the measured runs. At this scale one 17-relation query
/// (families 20/21) runs longer than all the others together, hence
/// [`MAX_RELATIONS`].
pub const SCALE: f64 = 0.02;

/// Queries joining more relations are left out (JOB families 20 and 21).
pub const MAX_RELATIONS: usize = 12;

/// Generator seed of the measured data (the one `perf_smoke` uses). The data stays
/// fixed across runs: from one data seed to the next the same pass costs 5 to 17 s,
/// far more than any bound a regression check could use.
pub const DATA_SEED: u64 = 13;

/// The paper's q-error threshold for re-optimization.
pub const THRESHOLD: f64 = 32.0;

/// Memory budget of `job-outofcore-2t` at [`SCALE`]: below the hash-only plans'
/// unbudgeted working set, so builds are denied grants and spill.
const OUT_OF_CORE_BUDGET: u64 = 16 << 20;

/// Set-ups timed after every pass, besides the two before the stream (one for the
/// reference, one for the stream); `setup_s` is the median of all of them. Spread
/// over the run, they sample the machine's speed over the same window as the
/// stream, so `setup_s` drifts no more than the stream's metrics do.
pub const SETUPS_PER_PASS: usize = 4;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Default optimizer, plain execution, 1 thread, unlimited memory.
    Plain,
    /// Mid-query re-optimization at the paper's threshold, 1 thread.
    MidQuery,
    /// Hash-join-only plans, plain execution, 2 threads, a finite memory budget.
    OutOfCore2t,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [Workload::Plain, Workload::MidQuery, Workload::OutOfCore2t];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Plain => "job-plain",
            Workload::MidQuery => "job-midquery",
            Workload::OutOfCore2t => "job-outofcore-2t",
        }
    }

    /// The workload named `name`.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Executor threads.
    pub fn threads(self) -> usize {
        match self {
            Workload::Plain | Workload::MidQuery => 1,
            Workload::OutOfCore2t => 2,
        }
    }

    /// The settings every query of the workload runs under. The out-of-core budget
    /// scales with the data, so a smaller scale keeps the working set over budget.
    fn pins(self, scale: f64) -> Pins {
        match self {
            Workload::Plain | Workload::MidQuery => Pins {
                threads: 1,
                columnar: true,
                mem_budget: None,
                optimizer: OptimizerConfig::default(),
            },
            Workload::OutOfCore2t => Pins {
                threads: 2,
                columnar: true,
                mem_budget: Some((OUT_OF_CORE_BUDGET as f64 * scale / SCALE) as u64),
                optimizer: OptimizerConfig {
                    enable_index_nl_joins: false,
                    enable_merge_joins: false,
                    ..OptimizerConfig::default()
                },
            },
        }
    }
}

/// Everything a database is pinned to through its public setters.
#[derive(Debug, Clone)]
struct Pins {
    threads: usize,
    columnar: bool,
    mem_budget: Option<u64>,
    optimizer: OptimizerConfig,
}

impl Pins {
    /// The correctness oracle: forced single-threaded row engine, unlimited memory,
    /// default optimizer.
    fn reference() -> Self {
        Pins {
            threads: 1,
            columnar: false,
            mem_budget: None,
            optimizer: OptimizerConfig::default(),
        }
    }

    fn apply(&self, db: &mut Database) {
        db.set_threads(Some(self.threads));
        db.set_columnar(Some(self.columnar));
        db.set_batch_size(Some(DEFAULT_BATCH_SIZE));
        db.set_mem_budget(self.mem_budget);
        db.set_optimizer_config(self.optimizer.clone());
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the query order: every pass runs the queries in a fresh shuffle.
    pub seed: u64,
    /// Seed of the generated IMDB data ([`DATA_SEED`] for measured runs).
    pub data_seed: u64,
    /// IMDB scale factor ([`SCALE`] for measured runs).
    pub scale: f64,
    /// The stream runs every whole pass expected to end within this many seconds,
    /// judged by the mean pass so far (at least one pass; two when traced).
    pub seconds: f64,
    /// Alternate untraced and traced passes (at least one of each) and record
    /// spans on the traced ones.
    pub traced: bool,
    /// Where the reference results are cached across runs.
    pub out_dir: Option<PathBuf>,
}

/// A workload query.
#[derive(Debug, Clone)]
pub struct Query {
    /// JOB id (e.g. "6d").
    pub id: String,
    /// SQL text.
    pub sql: String,
    /// Whether the query has an ORDER BY, so results compare in order.
    pub ordered: bool,
}

/// What the benchmark measured and read back for one query call.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Index into [`RunRecord::queries`].
    pub query: usize,
    /// Whether the call ran in a traced pass.
    pub traced: bool,
    /// Seconds from the call to the returned rows.
    pub latency: f64,
    /// Yardstick reading around the call (see [`yardstick::SpeedProbe::around`]).
    pub yardstick: f64,
    /// The error returned, or the mismatch against the reference.
    pub error: Option<String>,
    /// Re-optimization rounds.
    pub rounds: usize,
    /// Plans made (1 + one per re-optimization round).
    pub plans: usize,
    /// The final run used the parallel engine.
    pub parallel: bool,
    /// `QueryMetrics::fallback` of the final run was set.
    pub fallback: bool,
    /// Largest breaker buffer, in bytes.
    pub peak_buffered_bytes: u64,
    /// Bytes written to spill files.
    pub spilled_bytes: u64,
    /// Spill partitions written.
    pub spill_partitions: u64,
    /// Seconds in `parse_sql`.
    pub parse: f64,
    /// Seconds planning (every round).
    pub plan: f64,
    /// Seconds in the executor's final run.
    pub exec: f64,
    /// Seconds of executed-then-abandoned work before a suspension or restart.
    pub detection: f64,
    /// Seconds materializing or registering re-optimization state.
    pub materialize: f64,
    /// Rows of breaker state reused by mid-query rounds.
    pub reused_rows: u64,
    /// Summed operator self time of join operators, in seconds.
    pub join_op: f64,
    /// Summed operator self time of scans, in seconds.
    pub scan_op: f64,
    /// Summed operator self time of all operators, in seconds.
    pub op_total: f64,
    /// The planner's estimation counters.
    pub estimation: EstimationLog,
}

impl Sample {
    fn read_metrics(&mut self, metrics: &QueryMetrics) {
        self.parallel = metrics.engine == "parallel";
        self.fallback = metrics.fallback.is_some();
        let (bytes, partitions) = metrics.root.total_spilled();
        self.spilled_bytes = bytes;
        self.spill_partitions = partitions;
        metrics.root.walk(&mut |node| {
            let elapsed = node.metrics.elapsed.as_secs_f64();
            self.op_total += elapsed;
            if node.metrics.is_join {
                self.join_op += elapsed;
            } else if node.metrics.encoding.is_some() {
                self.scan_op += elapsed;
            }
        });
    }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct RunRecord {
    /// The settings the run used.
    pub settings: Settings,
    /// The workload's queries.
    pub queries: Vec<Query>,
    /// Seconds each set-up took.
    pub setup_s: Vec<f64>,
    /// Yardstick reading around each set-up, indexed like `setup_s`.
    pub setup_yardstick: Vec<f64>,
    /// Every yardstick reading of the run, in order.
    pub yardstick_readings: Vec<f64>,
    /// Every query call of the timed stream, in order.
    pub samples: Vec<Sample>,
    /// `(traced, summed latency in seconds)` of each pass.
    pub passes: Vec<(bool, f64)>,
    /// Grants the memory governor denied during the stream.
    pub denials: u64,
    /// The governor's high-water mark of reserved bytes.
    pub peak_reserved: u64,
    /// Worker-pool threads spawned during the stream.
    pub threads_spawned: usize,
    /// Spill files still on disk after the stream.
    pub live_spill_files: usize,
    /// Spans of the traced passes.
    pub trace: Trace,
    /// The process's peak resident set at the end of the run, less the
    /// yardstick's hash map, in MB.
    pub peak_rss_mb: f64,
}

/// The workload's queries: every JOB query joining at most [`MAX_RELATIONS`]
/// relations, in suite order.
fn workload_queries() -> Result<Vec<Query>, String> {
    job_queries()
        .into_iter()
        .filter(|q| q.table_count <= MAX_RELATIONS)
        .map(|q| {
            let statement =
                parse_sql(&q.sql).map_err(|e| format!("query {} does not parse: {e}", q.id))?;
            let ordered = statement
                .query()
                .is_some_and(|select| !select.order_by.is_empty());
            Ok(Query {
                id: q.id,
                sql: q.sql,
                ordered,
            })
        })
        .collect()
}

/// Generate, load, index and ANALYZE the data, pin the settings and warm the
/// worker pool; append the seconds it took, and the yardstick reading around it,
/// to `setups`.
fn set_up(
    settings: &Settings,
    pins: &Pins,
    probe: &mut SpeedProbe,
    setups: &mut Vec<(f64, f64)>,
) -> Result<Database, String> {
    let start = Instant::now();
    let mut db = Database::new();
    let config = ImdbConfig {
        scale: settings.scale,
        seed: settings.data_seed,
    };
    load_imdb(&mut db, &config).map_err(|e| format!("loading the IMDB data failed: {e}"))?;
    pins.apply(&mut db);
    WorkerPool::global().ensure_available(pins.threads);
    let seconds = start.elapsed().as_secs_f64();
    setups.push((seconds, probe.around()));
    Ok(db)
}

/// What a correct run of a query returns: its row count and a digest of its rows
/// rendered in canonical order (sorted unless the query has an ORDER BY).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Expected {
    rows: usize,
    digest: u64,
}

impl Expected {
    fn of(rows: &[Row], ordered: bool) -> Self {
        let mut rendered: Vec<String> = rows.iter().map(|row| format!("{row}")).collect();
        if !ordered {
            rendered.sort();
        }
        let mut hasher = DefaultHasher::new();
        rendered.hash(&mut hasher);
        Self {
            rows: rows.len(),
            digest: hasher.finish(),
        }
    }
}

/// The oracle's results: a forced single-threaded, row-engine, unlimited-memory
/// plain run on a database of its own, so the workload's governor counters see
/// only the stream. They depend only on the binary and the data, so with an output
/// directory they are computed once per build and read back by later runs.
fn reference(
    mut db: Database,
    queries: &[Query],
    settings: &Settings,
) -> Result<Vec<Expected>, String> {
    let cache = match &settings.out_dir {
        Some(dir) => Some(reference_cache_path(dir, settings)?),
        None => None,
    };
    if let Some(expected) = cache
        .as_deref()
        .and_then(|path| read_reference(path, queries))
    {
        return Ok(expected);
    }
    Pins::reference().apply(&mut db);
    let mut expected = Vec::with_capacity(queries.len());
    for query in queries {
        let output = db
            .execute(&query.sql)
            .map_err(|e| format!("reference run of {} failed: {e}", query.id))?;
        expected.push(Expected::of(&output.rows, query.ordered));
    }
    if let Some(path) = cache {
        write_reference(&path, queries, &expected)
            .map_err(|e| format!("writing {} failed: {e}", path.display()))?;
    }
    Ok(expected)
}

/// The cache file for this binary (identified by a digest of its bytes), scale and
/// data seed.
fn reference_cache_path(dir: &Path, settings: &Settings) -> Result<PathBuf, String> {
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .map_err(|e| format!("reading the benchmark binary failed: {e}"))?;
    let mut hasher = DefaultHasher::new();
    exe.hash(&mut hasher);
    Ok(dir.join(format!(
        "reference-{:016x}-scale{}-data{}.tsv",
        hasher.finish(),
        settings.scale,
        settings.data_seed
    )))
}

/// Lines of `id<TAB>rows<TAB>digest`, one per query in workload order; `None` when
/// the file is missing or does not match the queries.
fn read_reference(path: &Path, queries: &[Query]) -> Option<Vec<Expected>> {
    let text = std::fs::read_to_string(path).ok()?;
    let lines: Vec<&str> = text.lines().collect();
    if lines.len() != queries.len() {
        return None;
    }
    lines
        .iter()
        .zip(queries)
        .map(|(line, query)| {
            let mut fields = line.split('\t');
            if fields.next()? != query.id {
                return None;
            }
            Some(Expected {
                rows: fields.next()?.parse().ok()?,
                digest: u64::from_str_radix(fields.next()?, 16).ok()?,
            })
        })
        .collect()
}

fn write_reference(path: &Path, queries: &[Query], expected: &[Expected]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let text: String = queries
        .iter()
        .zip(expected)
        .map(|(query, e)| format!("{}\t{}\t{:016x}\n", query.id, e.rows, e.digest))
        .collect();
    // Written aside and renamed, so an interrupted run leaves no partial file.
    let partial = path.with_extension("partial");
    std::fs::write(&partial, text)?;
    std::fs::rename(&partial, path)
}

/// Run one workload: set up twice, compute the reference results, then run the
/// timed stream, setting up [`SETUPS_PER_PASS`] more times after every pass. The
/// yardstick is read between every two timed calls.
///
/// Fails when set-up or the reference run fails; query failures are recorded in
/// the samples.
pub fn run(settings: &Settings) -> Result<RunRecord, String> {
    let workload = settings.workload;
    let queries = workload_queries()?;
    let pins = workload.pins(settings.scale);

    // The yardstick's hash map is not the program's memory.
    let rss_before = status_mb("VmRSS:")?;
    let mut probe = SpeedProbe::new();
    let yardstick_mb = status_mb("VmRSS:")? - rss_before;
    let mut setups = Vec::new();
    let reference_db = set_up(settings, &pins, &mut probe, &mut setups)?;
    let mut db = set_up(settings, &pins, &mut probe, &mut setups)?;
    // Outside the timed stream and outside setup_s.
    let reference = reference(reference_db, &queries, settings)?;
    probe.refresh();

    let mut stream = Stream::new(workload);
    let pool = WorkerPool::global();
    let spawned_before = pool.threads_spawned_total();
    let denials_before = db.governor().denials();
    let mut order_rng = SplitMix64(settings.seed);
    let mut order: Vec<usize> = (0..queries.len()).collect();
    let min_passes = if settings.traced { 2 } else { 1 };
    let mut samples = Vec::new();
    let mut passes = Vec::new();
    let start = Instant::now();
    loop {
        let traced = settings.traced && passes.len() % 2 == 1;
        order_rng.shuffle(&mut order);
        let mut wall = 0.0;
        for &idx in &order {
            let query = &queries[idx];
            let (mut sample, rows) = stream.call(&mut db, idx, query, traced);
            sample.yardstick = probe.around();
            sample.error = match rows.map(|rows| Expected::of(&rows, query.ordered)) {
                Ok(got) if got == reference[idx] => None,
                Ok(got) => Some(format!(
                    "{}: {} row(s) differ from the reference's {}",
                    query.id, got.rows, reference[idx].rows
                )),
                Err(error) => Some(format!("{}: {error}", query.id)),
            };
            wall += sample.latency;
            samples.push(sample);
        }
        passes.push((traced, wall));
        for _ in 0..SETUPS_PER_PASS {
            set_up(settings, &pins, &mut probe, &mut setups)?;
        }
        let elapsed = start.elapsed().as_secs_f64();
        let next_end = elapsed + elapsed / passes.len() as f64;
        if passes.len() >= min_passes && next_end > settings.seconds {
            break;
        }
    }
    let threads_spawned = pool.threads_spawned_total() - spawned_before;
    let denials = db.governor().denials() - denials_before;
    let peak_reserved = db.governor().peak_reserved();

    // `ReoptReport` carries no estimation counters; read those of
    // each query's first plan, outside the stream.
    if workload == Workload::MidQuery {
        for sample in samples.iter_mut().filter(|s| s.traced) {
            let statement = parse_sql(&queries[sample.query].sql).expect("parsed at set-up");
            let select = statement.query().expect("workload queries are SELECTs");
            if let Ok((planned, _)) = db.plan_select(select) {
                sample.estimation = planned.estimation_log;
            }
        }
    }
    drop(db);
    let (setup_s, setup_yardstick) = setups.into_iter().unzip();

    Ok(RunRecord {
        settings: settings.clone(),
        queries,
        setup_s,
        setup_yardstick,
        yardstick_readings: probe.readings().to_vec(),
        samples,
        passes,
        denials,
        peak_reserved,
        threads_spawned,
        live_spill_files: reopt_storage::live_spill_files(),
        trace: stream.trace,
        peak_rss_mb: status_mb("VmHWM:")? - yardstick_mb,
    })
}

/// The closed-loop client: one query call at a time.
struct Stream {
    workload: Workload,
    reopt: ReoptConfig,
    trace: Trace,
}

impl Stream {
    fn new(workload: Workload) -> Self {
        Self {
            workload,
            reopt: ReoptConfig {
                mode: ReoptMode::MidQuery,
                ..ReoptConfig::with_threshold(THRESHOLD)
            }
            .with_feedback(false),
            trace: Trace::new(),
        }
    }

    fn call(
        &mut self,
        db: &mut Database,
        idx: usize,
        query: &Query,
        traced: bool,
    ) -> (Sample, Result<Vec<Row>, DbError>) {
        let mut sample = Sample {
            query: idx,
            traced,
            plans: 1,
            ..Sample::default()
        };
        let rows = match (self.workload, traced) {
            (Workload::MidQuery, _) => self.reoptimized(db, query, &mut sample),
            (_, false) => plain(db, query, &mut sample),
            (_, true) => self.plain_traced(db, query, &mut sample),
        };
        (sample, rows)
    }

    /// `job-midquery`: one `execute_with_policy_feedback` call. Its phases become
    /// child spans of a `core.reopt` span, laid out from the durations the report
    /// returns.
    fn reoptimized(
        &mut self,
        db: &mut Database,
        query: &Query,
        sample: &mut Sample,
    ) -> Result<Vec<Row>, DbError> {
        if sample.traced {
            // The call parses internally; time the same parse on its own.
            let start = Instant::now();
            let parsed = parse_sql(&query.sql);
            sample.parse = start.elapsed().as_secs_f64();
            parsed?;
        }
        let mut policy = self.reopt.policy();
        let start = Instant::now();
        let result =
            execute_with_policy_feedback(db, &query.sql, policy.as_mut(), self.reopt.feedback);
        let end = Instant::now();
        sample.latency = (end - start).as_secs_f64();
        let report = result?;

        let materialize: Duration = report.rounds.iter().map(|r| r.materialization_time).sum();
        let exec = report.execution_time.saturating_sub(materialize);
        sample.rounds = report.rounds.len();
        sample.plans = 1 + report.rounds.len();
        sample.plan = report.planning_time.as_secs_f64();
        sample.exec = exec.as_secs_f64();
        sample.detection = report.detection_time.as_secs_f64();
        sample.materialize = materialize.as_secs_f64();
        sample.reused_rows = report.rounds.iter().filter_map(|r| r.reused_rows).sum();
        if let Some(metrics) = &report.final_metrics {
            sample.read_metrics(metrics);
        }
        // The report's totals cover every round, the final metrics only the last run.
        sample.spilled_bytes = report.spilled_bytes;
        sample.spill_partitions = report.spill_partitions;
        sample.peak_buffered_bytes = report.peak_buffered_bytes;

        if sample.traced {
            let (start, end) = (self.trace.offset(start), self.trace.offset(end));
            let root = self.trace.record("query", sample.query, None, start, end);
            let reopt = self
                .trace
                .record("core.reopt", sample.query, Some(root), start, end);
            self.trace.record_sequential(
                reopt,
                &[
                    ("planner.plan", report.planning_time),
                    ("executor.execute", exec),
                    ("reopt.detection", report.detection_time),
                    ("reopt.materialize", materialize),
                ],
            );
        }
        Ok(report.final_rows)
    }

    /// `job-plain` and `job-outofcore-2t`, traced: the same three calls
    /// `Database::execute` makes, each in its own span.
    fn plain_traced(
        &mut self,
        db: &Database,
        query: &Query,
        sample: &mut Sample,
    ) -> Result<Vec<Row>, DbError> {
        let mut marks = [Instant::now(); 4];
        let result = (|| {
            let statement = parse_sql(&query.sql)?;
            marks[1] = Instant::now();
            let select = statement.query().expect("workload queries are SELECTs");
            let (planned, _) = db.plan_select(select)?;
            marks[2] = Instant::now();
            let result = Executor::with_batch_size(db.storage(), db.batch_size())
                .with_threads(db.threads())
                .with_columnar(db.columnar())
                .with_priority(db.priority())
                .with_governor(Arc::clone(db.governor()))
                .execute(&planned.plan)
                .map_err(DbError::Exec)?;
            marks[3] = Instant::now();
            Ok::<_, DbError>((planned.estimation_log, result))
        })();
        sample.latency = (Instant::now() - marks[0]).as_secs_f64();
        let (estimation, result) = result?;

        let [t0, t1, t2, t3] = marks.map(|mark| self.trace.offset(mark));
        sample.parse = (t1 - t0).as_secs_f64();
        sample.plan = (t2 - t1).as_secs_f64();
        sample.exec = (t3 - t2).as_secs_f64();
        sample.estimation = estimation;
        sample.peak_buffered_bytes = result.peak_buffered_bytes;
        sample.read_metrics(&result.metrics);

        let root = self.trace.record("query", sample.query, None, t0, t3);
        self.trace
            .record("sql.parse", sample.query, Some(root), t0, t1);
        self.trace
            .record("planner.plan", sample.query, Some(root), t1, t2);
        self.trace
            .record("executor.execute", sample.query, Some(root), t2, t3);
        Ok(result.rows)
    }
}

/// `job-plain` and `job-outofcore-2t`, untraced: one `Database::execute` call.
fn plain(db: &mut Database, query: &Query, sample: &mut Sample) -> Result<Vec<Row>, DbError> {
    let start = Instant::now();
    let result = db.execute(&query.sql);
    sample.latency = start.elapsed().as_secs_f64();
    let output = result?;
    if let Some(metrics) = &output.metrics {
        sample.read_metrics(metrics);
    }
    sample.peak_buffered_bytes = output.peak_buffered_bytes;
    sample.estimation = output.estimation_log;
    Ok(output.rows)
}

/// SplitMix64: a small seeded generator for the query order.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle.
    fn shuffle(&mut self, items: &mut [usize]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// A memory line of this process's status (`VmHWM:`, `VmRSS:`), in MB.
fn status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status failed: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib * 1024.0 / 1e6)
        .ok_or_else(|| format!("no {field} line in /proc/self/status"))
}
