//! Run one benchmark workload and print its metrics.
//!
//! ```text
//! perfbench --workload <job-plain|job-midquery|job-outofcore-2t> --seed <n> \
//!     --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! With `--out-dir`, the reference results are cached there across runs of the same
//! build, and a traced run writes its spans to `trace-<workload>-seed<n>.tsv` there.
//!
//! Prints every metric by name with its unit (the end-to-end ones both as measured
//! and at the yardstick's reference speed), then, as the last line, one JSON
//! object: `correct`, `attempted`, `failed`, and the end-to-end metrics at the
//! reference speed (`--trace 0`) or the per-layer metrics (`--trace 1`). Exits 1 on
//! a wrong result or a failed gate, 2 on bad arguments or a failed set-up.

use reopt_perfbench::report::Metric;
use reopt_perfbench::stats::median;
use reopt_perfbench::yardstick::REFERENCE_S;
use reopt_perfbench::{run, Settings, Workload, DATA_SEED, SCALE};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args() -> Result<Settings, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut out_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad(()))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad(()))?),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(())),
                })
            }
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |name: &str| format!("missing --{name}");
    let seconds = seconds.ok_or_else(|| missing("seconds"))?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a number >= 0".into());
    }
    Ok(Settings {
        workload: workload.ok_or_else(|| missing("workload"))?,
        seed: seed.ok_or_else(|| missing("seed"))?,
        data_seed: DATA_SEED,
        scale: SCALE,
        seconds,
        traced: traced.ok_or_else(|| missing("trace"))?,
        out_dir,
    })
}

fn print_metrics(heading: &str, metrics: &[Metric]) {
    println!("{heading}");
    for m in metrics {
        println!("  {:<36} {:>14.6} {}", m.name, m.value, m.unit);
    }
}

fn json_metrics(metrics: &[&Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let settings = match parse_args() {
        Ok(settings) => settings,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    let record = match run(&settings) {
        Ok(record) => record,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };

    let untraced = record.samples.iter().filter(|s| !s.traced).count();
    println!(
        "perfbench: {} seed {} (data seed {}) scale {}: {} queries, {} pass(es), {} untraced samples, {} thread(s)",
        settings.workload.name(),
        settings.seed,
        settings.data_seed,
        settings.scale,
        record.queries.len(),
        record.passes.len(),
        untraced,
        settings.workload.threads(),
    );
    let walls: Vec<String> = record
        .passes
        .iter()
        .map(|(traced, wall)| format!("{wall:.3}{}", if *traced { "T" } else { "" }))
        .collect();
    println!(
        "perfbench: pass latency sums (s, T = traced): {}",
        walls.join(" ")
    );
    let setups: Vec<String> = record
        .setup_s
        .iter()
        .map(|s| format!("{:.2}", s * 1e3))
        .collect();
    println!("perfbench: set-ups (ms): {}", setups.join(" "));
    for sample in record.samples.iter().filter(|s| s.error.is_some()) {
        eprintln!(
            "perfbench: FAILED {}",
            sample.error.as_deref().unwrap_or_default()
        );
    }
    let gates = record.gate_failures();
    for gate in &gates {
        eprintln!("perfbench: GATE FAILED: {gate}");
    }
    let end_to_end = record.end_to_end(true);
    let per_layer = record.per_layer();
    print_metrics(
        "end-to-end (untraced passes), as measured:",
        &record.end_to_end(false),
    );
    print_metrics(
        &format!(
            "end-to-end (untraced passes), at the yardstick's reference speed ({} ms; median reading {:.4} ms):",
            REFERENCE_S * 1e3,
            median(&record.yardstick_readings) * 1e3
        ),
        &end_to_end,
    );
    if settings.traced {
        print_metrics("per-layer (traced passes):", &per_layer);
    }
    if let (true, Some(dir)) = (settings.traced, &settings.out_dir) {
        let name = format!(
            "trace-{}-seed{}.tsv",
            settings.workload.name(),
            settings.seed
        );
        let path = dir.join(name);
        let ids: Vec<String> = record.queries.iter().map(|q| q.id.clone()).collect();
        if let Err(error) = record.trace.write_tsv(&path, &ids) {
            eprintln!("perfbench: writing {} failed: {error}", path.display());
            return ExitCode::from(2);
        }
    }

    // error_rate is carried by `failed`/`attempted`: a metric that is 0 on every
    // correct run has no relative spread to bound.
    let reported: Vec<&Metric> = if settings.traced {
        per_layer.iter().collect()
    } else {
        end_to_end
            .iter()
            .filter(|m| m.name != "error_rate")
            .collect()
    };
    let failed = record.failed();
    let correct = failed == 0 && gates.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        record.samples.len(),
        json_metrics(&reported)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
