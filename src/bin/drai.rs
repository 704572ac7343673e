//! `drai` — command-line front end for the DRAI pipelines.
//!
//! ```text
//! drai run <climate|fusion|bio|materials> [--out DIR] [--seed N] [--scale N]
//! drai matrix                      # print the Table 2 maturity matrix
//! drai assess <manifest.json>      # grade a dataset manifest file
//! drai card <domain> [--out DIR]   # run a pipeline and emit its dataset card
//! ```

use drai::core::card::DatasetCard;
use drai::core::quality::QualityReport;
use drai::core::readiness::{MaturityMatrix, ProcessingStage};
use drai::core::{DatasetManifest, ReadinessAssessor};
use drai::domains::{bio, climate, fusion, materials, DomainRun};
use drai::io::sink::LocalFs;
use drai::tensor::LatLonGrid;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("run") => cmd_run(&args[1..], false),
        Some("card") => cmd_run(&args[1..], true),
        Some("matrix") => {
            cmd_matrix();
            ExitCode::SUCCESS
        }
        Some("assess") => cmd_assess(&args[1..]),
        _ => {
            eprintln!(
                "usage:\n  drai run <climate|fusion|bio|materials> [--out DIR] [--seed N] [--scale N]\n  \
                 drai card <domain> [--out DIR]\n  drai matrix\n  drai assess <manifest.json>"
            );
            ExitCode::FAILURE
        }
    }
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn cmd_run(args: &[String], emit_card: bool) -> ExitCode {
    let Some(domain) = args.first() else {
        eprintln!("missing domain (climate|fusion|bio|materials)");
        return ExitCode::FAILURE;
    };
    let out = flag(args, "--out").unwrap_or_else(|| format!("./drai-out/{domain}"));
    let seed: u64 = flag(args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_025);
    let scale: usize = flag(args, "--scale")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
        .max(1);

    let sink = match LocalFs::new(&out) {
        Ok(s) => Arc::new(s),
        Err(e) => {
            eprintln!("cannot open output dir {out}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result: Result<DomainRun, _> = match domain.as_str() {
        "climate" => climate::run(
            &climate::ClimateConfig {
                src_grid: LatLonGrid::global(24 * scale, 48 * scale),
                dst_grid: LatLonGrid::global(16 * scale, 32 * scale),
                timesteps: 16 * scale,
                seed,
                ..climate::ClimateConfig::default()
            },
            sink,
        ),
        "fusion" => fusion::run(
            &fusion::FusionConfig {
                shots: 16 * scale,
                seed,
                ..fusion::FusionConfig::default()
            },
            sink,
        ),
        "bio" => bio::run(
            &bio::BioConfig {
                patients: 48 * scale,
                seed,
                ..bio::BioConfig::default()
            },
            sink,
        ),
        "materials" => materials::run(
            &materials::MaterialsConfig {
                structures: 32 * scale,
                seed,
                ..materials::MaterialsConfig::default()
            },
            sink,
        ),
        other => {
            eprintln!("unknown domain {other:?}");
            return ExitCode::FAILURE;
        }
    };
    let run = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pipeline failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("{} pipeline complete -> {}", domain, out);
    for s in &run.stages {
        println!(
            "  {:<14} [{:<10}] {:>8} records  {:>10.3} ms",
            s.name,
            s.kind.to_string(),
            s.throughput.records,
            s.throughput.elapsed.as_secs_f64() * 1e3
        );
    }
    let assessment = match ReadinessAssessor::new().assess(&run.manifest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("assessment failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("readiness: {}", assessment.overall);
    println!(
        "shards: {} files, provenance: {} events",
        run.shard_files.len(),
        run.ledger.len()
    );

    // Persist the manifest + audit log next to the data.
    let manifest_json = run.manifest.to_json().to_string_compact();
    let _ = std::fs::write(format!("{out}/manifest.json"), &manifest_json);
    let _ = std::fs::write(format!("{out}/provenance.jsonl"), run.ledger.to_jsonl());

    if emit_card {
        let card = DatasetCard::new(run.manifest.clone(), assessment, demo_quality(&run));
        let path = format!("{out}/DATASET_CARD.md");
        if std::fs::write(&path, card.to_markdown()).is_ok() {
            println!("dataset card written to {path}");
        }
        let _ = std::fs::write(
            format!("{out}/dataset_card.json"),
            card.to_json().to_string_compact(),
        );
    }
    ExitCode::SUCCESS
}

/// Cheap post-hoc quality snapshot for the card: label coverage and
/// missing fraction come from the manifest; per-variable stats use the
/// schema names over a sampled probe (the card records the probe size).
fn demo_quality(run: &DomainRun) -> Vec<QualityReport> {
    run.manifest
        .schema
        .iter()
        .map(|v| {
            // The shards are binary; rather than re-decode every format in
            // the CLI we record the variable as "not re-profiled" with an
            // empty probe. The domain examples show full profiling.
            QualityReport::compute(&v.name, &[])
        })
        .collect()
}

fn cmd_matrix() {
    println!("Data Readiness maturity matrix (paper Table 2):\n");
    for (level, cells) in MaturityMatrix::rows() {
        println!("{level}");
        for (stage, cell) in ProcessingStage::ALL.iter().zip(cells) {
            match cell {
                Some(text) => println!("  {:<11} {}", stage.label(), text),
                None => println!("  {:<11} —", stage.label()),
            }
        }
        println!();
    }
}

fn cmd_assess(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        eprintln!("missing manifest path");
        return ExitCode::FAILURE;
    };
    let Ok(text) = std::fs::read_to_string(path) else {
        eprintln!("cannot read {path}");
        return ExitCode::FAILURE;
    };
    let Ok(json) = drai::io::json::Json::parse(&text) else {
        eprintln!("{path} is not valid JSON");
        return ExitCode::FAILURE;
    };
    let manifest = match DatasetManifest::from_json(&json) {
        Ok(manifest) => manifest,
        Err(e) => {
            eprintln!("{path} is not a drai manifest: {e}");
            return ExitCode::FAILURE;
        }
    };
    match ReadinessAssessor::new().assess(&manifest) {
        Ok(a) => {
            println!("{}: {}", manifest.name, a.overall);
            for (stage, level) in &a.per_stage {
                println!("  {:<11} {}", stage.label(), level);
            }
            for d in &a.deficiencies {
                println!(
                    "  blocked at {} / {}: {}",
                    d.blocked_level, d.stage, d.reason
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("assessment failed: {e}");
            ExitCode::FAILURE
        }
    }
}
