//! `tabular_fig1`: the paper's Figure-1 pipeline over a synthetic
//! table (closed loop, one caller).
//!
//! `Pipeline::run` drives impute (median) → z-score → label → rolling
//! features → split → shard over `drai_bench::tabular(100_000, 16, 0.05,
//! seed)`. Every pass gets a fresh copy of the table, made outside the
//! timing. The check compares a digest of the written shards with the
//! reference pass that set-up decoded and checked (no missing values
//! left, every column z-scored).

use crate::common::{
    closed_loop, closed_loop_report, flip_one_byte, sink_digest, timed, LibTotals, OpError,
    OpRegistry, OpSample, Report,
};
use crate::trace::span;
use drai_core::pipeline::{Pipeline, StageCounters};
use drai_core::ProcessingStage as S;
use drai_io::shard::{ShardReader, ShardSpec, ShardWriter};
use drai_io::sink::MemSink;
use drai_transform::features::rolling_mean;
use drai_transform::impute::{impute, Strategy};
use drai_transform::label::threshold_labels;
use drai_transform::normalize::{ColumnNormalizer, Method};
use drai_transform::split::{assign, Fractions};
use std::sync::Arc;

const ROWS: usize = 100_000;
const COLS: usize = 16;
const MISSING: f64 = 0.05;
const NORM_TOL: f64 = 1e-3;

pub struct Tabular {
    raw: Vec<f64>,
    cols: usize,
    reference: u64,
}

pub struct Output {
    sink: Arc<MemSink>,
    registry: drai_telemetry::Registry,
}

fn stage_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The Figure-1 stage list; the shard stage writes into `sink`.
fn pipeline(cols: usize, sink: Arc<MemSink>) -> Pipeline<Vec<f64>> {
    Pipeline::builder("fig1")
        .stage("clean", S::Preprocess, |mut data: Vec<f64>, c| {
            span("transform.impute", || impute(&mut data, Strategy::Median)).map_err(stage_err)?;
            c.bytes = (data.len() * 8) as u64;
            Ok(data)
        })
        .stage(
            "normalize",
            S::Transform,
            move |mut data: Vec<f64>, c: &mut StageCounters| {
                span("transform.normalize", || {
                    let cn = ColumnNormalizer::fit(Method::ZScore, &data, cols)?;
                    cn.apply(&mut data)
                })
                .map_err(stage_err)?;
                c.bytes = (data.len() * 8) as u64;
                Ok(data)
            },
        )
        .stage("label", S::Transform, move |data: Vec<f64>, c| {
            c.records = span("transform.label", || {
                let col0: Vec<f64> = data.iter().step_by(cols).copied().collect();
                threshold_labels(&col0, 1.5).len() as u64
            });
            Ok(data)
        })
        .stage("features", S::Structure, move |data: Vec<f64>, c| {
            span("transform.features", || {
                for ci in 0..cols {
                    let col: Vec<f64> = data.iter().skip(ci).step_by(cols).copied().collect();
                    rolling_mean(&col, 9)?;
                }
                Ok::<_, drai_transform::TransformError>(())
            })
            .map_err(stage_err)?;
            c.records = cols as u64;
            Ok(data)
        })
        .stage("split", S::Structure, move |data: Vec<f64>, c| {
            span("transform.split", || {
                let f = Fractions::standard();
                for r in 0..data.len() / cols {
                    assign(&format!("row-{r}"), 7, f)?;
                }
                Ok::<_, drai_transform::TransformError>(())
            })
            .map_err(stage_err)?;
            c.records = (data.len() / cols) as u64;
            Ok(data)
        })
        .stage("shard", S::Shard, move |data: Vec<f64>, c| {
            let recs: Vec<Vec<u8>> = span("bench.pack_records", || {
                data.chunks(cols)
                    .map(|row| row.iter().flat_map(|v| v.to_le_bytes()).collect())
                    .collect()
            });
            let manifest = span("io.shard_write", || {
                ShardWriter::new(ShardSpec::new("fig1", 1 << 20), sink.as_ref()).write_all(&recs)
            })
            .map_err(stage_err)?;
            c.records = manifest.total_records;
            c.bytes = manifest.payload_bytes;
            Ok(data)
        })
        .build()
}

impl Tabular {
    pub fn setup(seed: u64, rows: usize, cols: usize) -> Result<Tabular, String> {
        let raw = drai_bench::tabular(rows, cols, MISSING, seed);
        let mut t = Tabular {
            raw,
            cols,
            reference: 0,
        };
        let out = t.run_once(t.raw.clone()).map_err(|e| format!("{e:?}"))?;
        validate(&out.sink, rows, cols)?;
        t.reference = sink_digest(out.sink.as_ref(), "fig1")?;
        Ok(t)
    }

    pub fn input_bytes(&self) -> u64 {
        (self.raw.len() * 8) as u64
    }

    pub fn run_once(&self, data: Vec<f64>) -> Result<Output, OpError> {
        let sink = Arc::new(MemSink::new());
        let op_reg = OpRegistry::attach();
        pipeline(self.cols, sink.clone())
            .run(data)
            .map_err(crate::common::failed)?;
        Ok(Output {
            sink,
            registry: op_reg.registry.clone(),
        })
    }

    pub fn check(&self, out: &Output) -> Result<(), String> {
        let got = sink_digest(out.sink.as_ref(), "fig1")?;
        if got != self.reference {
            return Err(format!(
                "fig1 shard digest {got:016x} differs from reference {:016x}",
                self.reference
            ));
        }
        Ok(())
    }
}

/// Read the shards back and check row count, that no value is missing
/// and that every column is z-scored.
fn validate(sink: &MemSink, rows: usize, cols: usize) -> Result<(), String> {
    let reader = ShardReader::open("fig1", sink).map_err(|e| e.to_string())?;
    let records = reader.read_all().map_err(|e| e.to_string())?;
    if records.len() != rows {
        return Err(format!("fig1: {} records, expected {rows}", records.len()));
    }
    let mut sums = vec![(0.0f64, 0.0f64); cols];
    for rec in &records {
        if rec.len() != cols * 8 {
            return Err(format!("fig1: record of {} bytes", rec.len()));
        }
        for (c, chunk) in rec.chunks_exact(8).enumerate() {
            let x = f64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            if !x.is_finite() {
                return Err(format!("fig1: non-finite value in column {c}"));
            }
            sums[c].0 += x;
            sums[c].1 += x * x;
        }
    }
    for (c, (s, ss)) in sums.iter().enumerate() {
        let mean = s / rows as f64;
        let std = (ss / rows as f64 - mean * mean).max(0.0).sqrt();
        if mean.abs() > NORM_TOL || (std - 1.0).abs() > NORM_TOL {
            return Err(format!("fig1 column {c}: mean {mean:.5} std {std:.5}"));
        }
    }
    Ok(())
}

pub fn run(seed: u64, seconds: f64, trace_on: bool) -> Result<Report, String> {
    let (wl, setup_s) = crate::common::repeated_setup(5, || Tabular::setup(seed, ROWS, COLS))?;
    let mut lib = LibTotals::default();
    let res = closed_loop(seconds, trace_on, |traced| {
        let data = span("bench.copy_input", || wl.raw.clone());
        let (out, ns) = timed(|| wl.run_once(data));
        let out = out?;
        span("bench.check", || wl.check(&out))?;
        if traced {
            lib.absorb(&out.registry);
        }
        Ok(OpSample {
            ns,
            bytes: wl.input_bytes(),
        })
    });
    Ok(closed_loop_report(&res, trace_on, setup_s, |t, m| {
        for (metric, name) in [
            ("transform.impute_ms", "transform.impute"),
            ("transform.normalize_ms", "transform.normalize"),
            ("transform.label_ms", "transform.label"),
            ("transform.features_ms", "transform.features"),
            ("transform.split_ms", "transform.split"),
            ("core.pipeline_self_ms", "op"),
        ] {
            m.insert(metric, t.self_ms(name));
        }
        crate::shard_write_metrics(m, &lib, &t.totals, t.ops);
        m.insert(
            "telemetry.library_spans",
            lib.get("bench.library_spans") / t.ops,
        );
    }))
}

/// The check must reject a single flipped byte in one output shard.
pub fn self_test() -> Result<(), String> {
    let wl = Tabular::setup(7, 500, 4)?;
    let out = wl.run_once(wl.raw.clone()).map_err(|e| format!("{e:?}"))?;
    wl.check(&out)
        .map_err(|e| format!("clean fig1 output rejected: {e}"))?;
    let name = flip_one_byte(&out.sink, "fig1", ".shard")?;
    match wl.check(&out) {
        Err(_) => Ok(()),
        Ok(()) => Err(format!("fig1 check passed with a flipped byte in {name}")),
    }
}
