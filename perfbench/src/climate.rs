//! `climate_ensemble`: raw NetCDF ensemble → regridded, normalized NPZ
//! shards through the streaming executor (closed loop, one caller).
//!
//! Set-up writes raw NetCDF for every member (four variables each). One
//! operation parses every file and streams the members through
//! `climate::build_batch_pipeline` + `run_batch_streaming` into a fresh
//! in-memory sink. The output check compares a digest of every shard
//! and manifest with the one set-up recorded, after set-up decoded that
//! reference output and checked its shape and normalization.

use crate::common::{
    closed_loop, closed_loop_report, failed, flip_one_byte, sink_digest, timed, LibTotals, OpError,
    OpRegistry, OpSample, Report,
};
use crate::trace::span;
use drai_core::executor::{ExecutorConfig, StreamingBatchExt};
use drai_domains::climate::{self, ClimateConfig, ClimateData, VARIABLES};
use drai_formats::netcdf::NcFile;
use drai_formats::npy::read_npy;
use drai_formats::zip::read_zip;
use drai_io::shard::ShardReader;
use drai_io::sink::{MemSink, StorageSink};
use drai_provenance::Ledger;
use drai_tensor::LatLonGrid;
use std::sync::Arc;

/// Ensemble members per batch.
const MEMBERS: usize = 16;
/// Tolerance of the normalization check on f32 shard values.
const NORM_TOL: f64 = 1e-3;

pub struct Climate {
    cfg: ClimateConfig,
    members: usize,
    /// Raw NetCDF bytes: `raw[member][variable]`.
    raw: Vec<Vec<Vec<u8>>>,
    raw_bytes: u64,
    reference: u64,
    exec: ExecutorConfig,
}

/// One operation's output.
pub struct Output {
    pub sink: Arc<MemSink>,
    pub ledger_records: usize,
    pub registry: drai_telemetry::Registry,
}

impl Climate {
    /// Synthesize the raw ensemble, run it once and check that output
    /// in depth; its digest is the reference every operation must hit.
    pub fn setup(seed: u64, members: usize, cfg: ClimateConfig) -> Result<Climate, String> {
        let mut raw = Vec::with_capacity(members);
        for m in 0..members {
            let member_cfg = ClimateConfig {
                seed: seed.wrapping_mul(1_000).wrapping_add(m as u64),
                ..cfg.clone()
            };
            let staging = MemSink::new();
            let names = climate::generate_raw(&member_cfg, &staging).map_err(|e| e.to_string())?;
            let files = names
                .iter()
                .map(|n| staging.read_file(n).map_err(|e| e.to_string()))
                .collect::<Result<Vec<_>, _>>()?;
            raw.push(files);
        }
        let raw_bytes = raw.iter().flatten().map(|f| f.len() as u64).sum();
        let mut c = Climate {
            cfg,
            members,
            raw,
            raw_bytes,
            reference: 0,
            exec: ExecutorConfig::for_host(),
        };
        let out = c.run_once().map_err(|e| format!("{e:?}"))?;
        validate(&out.sink, &c.cfg, members)?;
        c.reference = sink_digest(out.sink.as_ref(), "climate/")?;
        Ok(c)
    }

    /// Parse every raw file and stream the ensemble into a fresh sink.
    pub fn run_once(&self) -> Result<Output, OpError> {
        let sink = Arc::new(MemSink::new());
        let ledger = Arc::new(Ledger::new());
        let op_reg = OpRegistry::attach();
        let mut items = Vec::with_capacity(self.members);
        for (m, files) in self.raw.iter().enumerate() {
            let mut fields = Vec::with_capacity(files.len());
            for (vi, bytes) in files.iter().enumerate() {
                let field = span("formats.netcdf_parse", || {
                    let nc = NcFile::from_bytes(bytes).map_err(failed)?;
                    nc.var(VARIABLES[vi].0)
                        .map(|v| v.data.to_f64_vec())
                        .ok_or_else(|| {
                            OpError::Failed(format!("member {m}: no {}", VARIABLES[vi].0))
                        })
                })?;
                fields.push(field);
            }
            items.push((
                m,
                ClimateData {
                    fields,
                    grid: self.cfg.src_grid.clone(),
                    timesteps: self.cfg.timesteps,
                    normalizers: vec![],
                },
            ));
        }
        let pipeline = climate::build_batch_pipeline(&self.cfg, sink.clone(), ledger.clone());
        span("core.run_batch_streaming", || {
            pipeline.run_batch_streaming(items, &self.exec)
        })
        .map_err(failed)?;
        Ok(Output {
            sink,
            ledger_records: ledger.len(),
            registry: op_reg.registry.clone(),
        })
    }

    /// The per-operation output check.
    pub fn check(&self, out: &Output) -> Result<(), String> {
        let got = sink_digest(out.sink.as_ref(), "climate/")?;
        if got != self.reference {
            return Err(format!(
                "climate output digest {got:016x} differs from reference {:016x}",
                self.reference
            ));
        }
        Ok(())
    }
}

/// Decode every member's shards and check record count, member layout,
/// tensor shape and the z-score normalization of every variable.
pub fn validate(sink: &MemSink, cfg: &ClimateConfig, members: usize) -> Result<(), String> {
    let names = sink.list().map_err(|e| e.to_string())?;
    let shape = [cfg.dst_grid.nlat(), cfg.dst_grid.nlon()];
    for m in 0..members {
        let dir = format!("climate/m{m}/");
        let mut sums = vec![(0.0f64, 0.0f64, 0usize); VARIABLES.len()];
        let mut records = 0usize;
        for manifest in names
            .iter()
            .filter(|n| n.starts_with(&dir) && n.ends_with(".manifest.json"))
        {
            let prefix = manifest.trim_end_matches(".manifest.json");
            let reader = ShardReader::open(prefix, sink).map_err(|e| e.to_string())?;
            for rec in reader.read_all().map_err(|e| e.to_string())? {
                records += 1;
                let entries = read_zip(&rec).map_err(|e| e.to_string())?;
                if entries.len() != VARIABLES.len() {
                    return Err(format!("{prefix}: {} NPZ members", entries.len()));
                }
                for (vi, entry) in entries.iter().enumerate() {
                    if entry.name != format!("{}.npy", VARIABLES[vi].0) {
                        return Err(format!("{prefix}: unexpected member {}", entry.name));
                    }
                    let t = read_npy::<f32>(&entry.data).map_err(|e| e.to_string())?;
                    if t.shape() != shape {
                        return Err(format!("{prefix}: shape {:?}", t.shape()));
                    }
                    let acc = &mut sums[vi];
                    for &x in t.as_slice() {
                        acc.0 += x as f64;
                        acc.1 += (x as f64) * (x as f64);
                        acc.2 += 1;
                    }
                }
            }
        }
        if records != cfg.timesteps {
            return Err(format!(
                "member {m}: {records} records, expected {}",
                cfg.timesteps
            ));
        }
        for (vi, (s, ss, n)) in sums.iter().enumerate() {
            let mean = s / *n as f64;
            let std = (ss / *n as f64 - mean * mean).max(0.0).sqrt();
            if mean.abs() > NORM_TOL || (std - 1.0).abs() > NORM_TOL {
                return Err(format!(
                    "member {m} {}: mean {mean:.5} std {std:.5}, not z-scored",
                    VARIABLES[vi].0
                ));
            }
        }
    }
    Ok(())
}

pub fn run(seed: u64, seconds: f64, trace_on: bool) -> Result<Report, String> {
    let (wl, setup_s) = crate::common::repeated_setup(5, || {
        Climate::setup(seed, MEMBERS, ClimateConfig::default())
    })?;
    let mut lib = LibTotals::default();
    let mut ledger_records = 0usize;
    let res = closed_loop(seconds, trace_on, |traced| {
        let (out, ns) = timed(|| wl.run_once());
        let out = out?;
        span("bench.check", || wl.check(&out))?;
        if traced {
            lib.absorb(&out.registry);
            ledger_records += out.ledger_records;
        }
        Ok(OpSample {
            ns,
            bytes: wl.raw_bytes,
        })
    });
    Ok(closed_loop_report(&res, trace_on, setup_s, |t, m| {
        m.insert("formats.netcdf_parse_ms", t.self_ms("formats.netcdf_parse"));
        m.insert(
            "core.executor_wall_ms",
            t.self_ms("core.run_batch_streaming"),
        );
        m.insert("core.pipeline_self_ms", t.self_ms("op"));
        let mut busy_total = 0.0;
        for stage in ["validate", "regrid", "normalize", "shard"] {
            let busy =
                lib.get(&format!("pipeline.climate-batch.{stage}.item_ns.sum")) / 1e6 / t.ops;
            busy_total += busy;
            m.insert(crate::stage_metric(stage), busy);
        }
        let wall = t.wall_ms("core.run_batch_streaming");
        m.insert(
            "core.executor_overlap",
            if wall > 0.0 { busy_total / wall } else { 0.0 },
        );
        m.insert(
            "core.executor.stall_ms",
            lib.get("executor.stall_ns.sum") / 1e6 / t.ops,
        );
        m.insert(
            "core.executor.shortcircuits",
            lib.get("executor.shortcircuits") / t.ops,
        );
        crate::shard_write_metrics(m, &lib, &t.totals, t.ops);
        m.insert("provenance.records", ledger_records as f64 / t.ops);
        m.insert(
            "telemetry.library_spans",
            lib.get("bench.library_spans") / t.ops,
        );
    }))
}

/// The check must reject a single flipped byte in one output shard.
pub fn self_test() -> Result<(), String> {
    let cfg = ClimateConfig {
        src_grid: LatLonGrid::global(12, 24),
        dst_grid: LatLonGrid::global(8, 16),
        timesteps: 6,
        ..ClimateConfig::default()
    };
    let wl = Climate::setup(7, 2, cfg)?;
    let out = wl.run_once().map_err(|e| format!("{e:?}"))?;
    wl.check(&out)
        .map_err(|e| format!("clean climate output rejected: {e}"))?;
    let name = flip_one_byte(&out.sink, "climate/", ".shard")?;
    match wl.check(&out) {
        Err(_) => Ok(()),
        Ok(()) => Err(format!(
            "climate check passed with a flipped byte in {name}"
        )),
    }
}
