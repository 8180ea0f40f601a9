//! Tiny-scale run of every workload — one untraced and one traced pass — so the
//! benchmark cannot rot: each must return reference-identical rows, pass its gates,
//! and report exactly the metrics `BENCHMARK.json` lists.

use reopt_perfbench::{run, RunRecord, Settings, Workload};
use std::sync::Mutex;

/// The spill-file leak gate reads a process-wide counter, so workloads run one at
/// a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// Small enough that a pass takes a few seconds. The data seed differs from the
/// measured runs', so the results are also checked on a second dataset.
const SMOKE_SCALE: f64 = 0.01;
const SMOKE_DATA_SEED: u64 = 7;

/// The metric names listed in one section of `BENCHMARK.json`.
fn listed_names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

fn smoke(workload: Workload) -> RunRecord {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let record = run(&Settings {
        workload,
        seed: 1,
        data_seed: SMOKE_DATA_SEED,
        scale: SMOKE_SCALE,
        seconds: 0.0,
        traced: true,
        out_dir: None,
    })
    .expect("set-up succeeds");
    let errors: Vec<_> = record
        .samples
        .iter()
        .filter_map(|s| s.error.clone())
        .collect();
    assert!(errors.is_empty(), "{}: {errors:?}", workload.name());
    assert_eq!(
        record.gate_failures(),
        Vec::<String>::new(),
        "{}",
        workload.name()
    );
    assert_eq!(record.passes.len(), 2);
    assert_eq!(record.samples.len(), 2 * record.queries.len());

    let end_to_end: Vec<String> = record
        .end_to_end(true)
        .into_iter()
        .map(|m| m.name)
        .filter(|name| name != "error_rate")
        .collect();
    assert_eq!(end_to_end, listed_names("end_to_end"));
    let per_layer = record.per_layer();
    let names: Vec<String> = per_layer.iter().map(|m| m.name.clone()).collect();
    assert_eq!(names, listed_names("per_layer"));
    assert!(per_layer.iter().all(|m| m.value.is_finite()));
    record
}

fn layer(record: &RunRecord, name: &str) -> f64 {
    record
        .per_layer()
        .into_iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

#[test]
fn job_plain_smoke() {
    let record = smoke(Workload::Plain);
    assert_eq!(record.queries.len(), 104);
    // The control: no re-optimization, spilling or parallel work.
    assert_eq!(layer(&record, "reopt.rounds_per_query"), 0.0);
    assert_eq!(layer(&record, "spill.bytes_mb"), 0.0);
    assert!(layer(&record, "self_share.executor.execute") > 0.0);
}

#[test]
fn job_midquery_smoke() {
    let record = smoke(Workload::MidQuery);
    assert!(layer(&record, "reopt.rounds_per_query") > 0.0);
    assert!(layer(&record, "planner.plans_per_query") > 1.0);
    assert!(layer(&record, "self_share.executor.execute") > 0.0);
}

#[test]
fn job_outofcore_2t_smoke() {
    let record = smoke(Workload::OutOfCore2t);
    assert!(layer(&record, "spill.denials") > 0.0);
    assert!(layer(&record, "spill.bytes_mb") > 0.0);
    assert_eq!(layer(&record, "reopt.rounds_per_query"), 0.0);
}
