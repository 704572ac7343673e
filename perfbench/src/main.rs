//! The repository benchmark: four DRAI workloads, each a long run of
//! repeated operations, measured end to end (untraced run) and per
//! layer (traced run). See `perfbench/README.md` for the method.
//!
//! ```text
//! drai-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! drai-perfbench --self-test
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is
//! nonzero when an output check failed.

mod climate;
mod common;
mod facility;
mod loader;
mod tabular;
mod trace;

use common::{LibTotals, Report};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of
/// them in an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_mb_s", "MB/s"),
    ("latency_p50_ms", "ms"),
    ("completed_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("goodput_ops_s", "1/s"),
    ("setup_s", "s"),
];

/// Per-layer metrics: `(name, unit)`. Every workload reports all of
/// them in a traced run; a layer the workload does not reach reads 0.
/// Times are per operation (`_ms`), counts per operation (`1/op`).
/// `latency_p90_ms` is the end-to-end p90 of the run's untraced
/// operations, kept here because it did not repeat within a bound on
/// `facility_mix`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("latency_p90_ms", "ms"),
    ("formats.netcdf_parse_ms", "ms"),
    ("formats.npz_decode_ms", "ms"),
    ("formats.text_parse_ms", "ms"),
    ("transform.impute_ms", "ms"),
    ("transform.normalize_ms", "ms"),
    ("transform.label_ms", "ms"),
    ("transform.features_ms", "ms"),
    ("transform.split_ms", "ms"),
    ("core.pipeline_self_ms", "ms"),
    ("core.executor_wall_ms", "ms"),
    ("core.stage.validate_busy_ms", "ms"),
    ("core.stage.regrid_busy_ms", "ms"),
    ("core.stage.normalize_busy_ms", "ms"),
    ("core.stage.shard_busy_ms", "ms"),
    ("core.executor_overlap", "ratio"),
    ("core.executor.stall_ms", "ms"),
    ("core.executor.shortcircuits", "1/op"),
    ("io.shard_write_ms", "ms"),
    ("io.shard_write_mb_s", "MB/s"),
    ("io.shard_read_ms", "ms"),
    ("io.shard_read_mb_s", "MB/s"),
    ("io.crc32c_ms", "ms"),
    ("io.codec_decode_ms", "ms"),
    ("io.stored_over_payload", "ratio"),
    ("io.shard.verify_rewrites", "1/op"),
    ("io.retries", "1/op"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "1/op"),
    ("cache.quarantined", "1/op"),
    ("cache.get_ms", "ms"),
    ("cache.put_ms", "ms"),
    ("sched.queue_wait_p50_ms", "ms"),
    ("sched.queue_wait_p90_ms", "ms"),
    ("sched.run_ms", "ms"),
    ("sched.rejected", "1/op"),
    ("sched.shed", "1/op"),
    ("domains.climate_job_ms", "ms"),
    ("domains.materials_job_ms", "ms"),
    ("domains.bio_job_ms", "ms"),
    ("domains.fusion_job_ms", "ms"),
    ("provenance.records", "1/op"),
    ("telemetry.library_spans", "1/op"),
    ("bench.span_coverage", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.generator_lag_ms", "ms"),
    ("bench.traced_ops", "count"),
];

/// Every per-layer metric at 0, for a workload to fill in.
pub fn layer_defaults() -> BTreeMap<&'static str, f64> {
    PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect()
}

/// `core.stage.<stage>_busy_ms` for one of the four executor stages.
pub fn stage_metric(stage: &str) -> &'static str {
    match stage {
        "validate" => "core.stage.validate_busy_ms",
        "regrid" => "core.stage.regrid_busy_ms",
        "normalize" => "core.stage.normalize_busy_ms",
        _ => "core.stage.shard_busy_ms",
    }
}

/// Shard-write metrics from the library counters of the traced
/// operations: time and rate of `ShardWriter::write_all` (the bench's
/// own `io.shard_write` span when it made the call, else the library's
/// `io.shard.write_all` span histogram), stored/payload bytes, verify
/// rewrites and retries.
pub fn shard_write_metrics(
    m: &mut BTreeMap<&'static str, f64>,
    lib: &LibTotals,
    tot: &BTreeMap<String, drai_telemetry::trace::NameAggregate>,
    ops: f64,
) {
    let write_ns = match tot.get("io.shard_write") {
        Some(t) => t.self_ns as f64,
        None => lib.get("io.shard.write_all.ns.sum"),
    };
    let bytes_in = lib.get("io.shard.bytes_in");
    m.insert("io.shard_write_ms", write_ns / 1e6 / ops);
    m.insert(
        "io.shard_write_mb_s",
        if write_ns > 0.0 {
            bytes_in / 1e6 / (write_ns / 1e9)
        } else {
            0.0
        },
    );
    m.insert(
        "io.stored_over_payload",
        if bytes_in > 0.0 {
            lib.get("io.shard.bytes_out") / bytes_in
        } else {
            0.0
        },
    );
    m.insert(
        "io.shard.verify_rewrites",
        lib.get("io.shard.verify_rewrites") / ops,
    );
    m.insert("io.retries", lib.get("io.retry.attempts") / ops);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.self_test && args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Prove at a tiny size that every output check can fail: a flipped
/// shard byte, a differing loader record, an unaccounted submission.
fn self_test() -> Result<(), String> {
    climate::self_test()?;
    tabular::self_test()?;
    loader::self_test()?;
    facility::self_test()?;
    Ok(())
}

fn print_result(report: &Report, trace: bool) {
    let catalogue = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    if report.correct {
        for &(name, unit) in catalogue {
            let value = report.metrics.get(name).copied().unwrap_or(0.0);
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("drai-perfbench: {e}");
            std::process::exit(2);
        }
    };
    // The check self-test runs before every measurement: a run whose
    // checks could not fail would prove nothing.
    if let Err(e) = self_test() {
        eprintln!("drai-perfbench: self-test failed: {e}");
        std::process::exit(1);
    }
    if args.self_test {
        eprintln!("drai-perfbench: self-test passed");
        return;
    }
    let result = match args.workload.as_str() {
        "climate_ensemble" => climate::run(args.seed, args.seconds, args.trace),
        "tabular_fig1" => tabular::run(args.seed, args.seconds, args.trace),
        "shard_loader" => loader::run(args.seed, args.seconds, args.trace),
        "facility_mix" => facility::run(args.seed, args.seconds, args.trace),
        // Calibration only (not a benchmark workload): per-kind job
        // times and the job rate the facility sustains.
        "facility_calibrate" => {
            facility::calibrate(args.seed, 60, 1000).map(|()| std::process::exit(0))
        }
        other => Err(format!("unknown workload {other}")),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("drai-perfbench: {e}");
            std::process::exit(1);
        }
    };
    if args.trace {
        let path = PathBuf::from(format!(
            "perfbench/out/trace-{}-seed{}.json",
            args.workload, args.seed
        ));
        if let Err(e) = trace::write_chrome(&path) {
            eprintln!("drai-perfbench: writing {}: {e}", path.display());
        }
    }
    print_result(&report, args.trace);
    if !report.correct {
        std::process::exit(1);
    }
}
