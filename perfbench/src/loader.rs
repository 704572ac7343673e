//! `shard_loader`: the training-side read path (closed loop, one
//! caller; one operation is one epoch).
//!
//! Set-up writes climate NPZ shards through the climate batch pipeline
//! and record shards with every codec `drai-io` ships (raw, RLE, delta,
//! LZ), and records a digest of every record (for the codec shards, of
//! the payload set-up handed to the writer). An epoch opens every
//! manifest, reads all records with their CRC checks and decodes the
//! NPZ/NPY members. The check compares every record, and every decoded
//! NPZ tensor, with set-up's digests. Nothing is written.

use crate::common::{
    closed_loop, closed_loop_report, digest, failed, timed, LibTotals, OpError, OpRegistry,
    OpSample, Report,
};
use crate::trace::span;
use drai_core::executor::{ExecutorConfig, StreamingBatchExt};
use drai_domains::climate::{self, ClimateConfig, VARIABLES};
use drai_formats::npy::read_npy;
use drai_formats::zip::read_zip;
use drai_io::checksum::crc32c;
use drai_io::codec::CodecId;
use drai_io::shard::{parse_shard, ShardReader, ShardSpec, ShardWriter};
use drai_io::sink::{MemSink, StorageSink};
use drai_provenance::Ledger;
use drai_tensor::{LatLonGrid, Tensor};
use std::sync::Arc;

/// Sizes of one loader data set.
#[derive(Clone, Copy)]
pub struct Sizes {
    pub npz_members: usize,
    pub grid: (usize, usize),
    pub timesteps: usize,
    pub records_per_codec: usize,
    pub record_bytes: usize,
}

const FULL: Sizes = Sizes {
    npz_members: 16,
    grid: (48, 96),
    timesteps: 24,
    records_per_codec: 96,
    record_bytes: 64 << 10,
};

/// One manifest the epoch reads.
struct Dataset {
    prefix: String,
    npz: bool,
    /// Digest of every record, in order.
    records: Vec<u64>,
    /// For NPZ datasets, digest of every record's decoded tensors.
    tensors: Vec<u64>,
}

pub struct Loader {
    sink: MemSink,
    datasets: Vec<Dataset>,
    /// Stored bytes one epoch reads (every shard file).
    epoch_bytes: u64,
    tensor_shape: [usize; 2],
}

/// Records read in one epoch, per dataset, plus decoded NPZ tensors.
pub struct Epoch {
    records: Vec<Vec<Vec<u8>>>,
    tensors: Vec<Vec<Vec<Tensor<f32>>>>,
}

fn tensor_digest(ts: &[Tensor<f32>]) -> u64 {
    let mut d = crate::common::Digest::new();
    for t in ts {
        let bytes: Vec<u8> = t.as_slice().iter().flat_map(|x| x.to_le_bytes()).collect();
        d.add(&bytes);
    }
    d.finish()
}

/// One record of `n` bytes for `codec`: a sparse mask (RLE), monotone
/// timestamps (delta) or a smooth f32 signal (raw, LZ). Each record is
/// generated on its own, so how well a data set compresses (and so how
/// long it takes to decode) is an average over many records and does
/// not swing with the seed.
fn codec_record(codec: CodecId, n: usize, seed: u64) -> Vec<u8> {
    match codec {
        CodecId::Rle => drai_bench::mask_bytes(n, seed),
        CodecId::Delta { .. } => drai_bench::timestamps_u64(n / 8, seed),
        _ => drai_bench::science_f32(n / 4, seed),
    }
}

impl Loader {
    pub fn setup(seed: u64, sz: Sizes) -> Result<Loader, String> {
        let sink = MemSink::new();
        let mut datasets = Vec::new();
        // Climate NPZ shards, written by the pipeline itself.
        let cfg = ClimateConfig {
            src_grid: LatLonGrid::global(sz.grid.0, sz.grid.1),
            dst_grid: LatLonGrid::global(sz.grid.0 * 2 / 3, sz.grid.1 * 2 / 3),
            timesteps: sz.timesteps,
            seed,
            ..ClimateConfig::default()
        };
        let shared = Arc::new(MemSink::new());
        let items = (0..sz.npz_members)
            .map(|m| (m, climate::member_input(&cfg, m)))
            .collect();
        climate::build_batch_pipeline(&cfg, shared.clone(), Arc::new(Ledger::new()))
            .run_batch_streaming(items, &ExecutorConfig::for_host())
            .map_err(|e| e.to_string())?;
        for name in shared.list().map_err(|e| e.to_string())? {
            let data = shared.read_file(&name).map_err(|e| e.to_string())?;
            sink.write_file(&name, &data).map_err(|e| e.to_string())?;
            if let Some(prefix) = name.strip_suffix(".manifest.json") {
                datasets.push(Dataset {
                    prefix: prefix.to_string(),
                    npz: true,
                    records: vec![],
                    tensors: vec![],
                });
            }
        }
        // Record shards, one data set per codec.
        for (ci, codec) in [
            CodecId::Raw,
            CodecId::Rle,
            CodecId::Delta { width: 8 },
            CodecId::Lz,
        ]
        .into_iter()
        .enumerate()
        {
            let records: Vec<Vec<u8>> = (0..sz.records_per_codec)
                .map(|r| {
                    let record_seed = seed.wrapping_mul(1_000_003) + (ci * 10_000 + r) as u64;
                    codec_record(codec, sz.record_bytes, record_seed)
                })
                .collect();
            let prefix = format!("records/{}", codec.name());
            ShardWriter::new(
                ShardSpec::new(prefix.clone(), 1 << 20).with_codec(codec),
                &sink,
            )
            .write_all(&records)
            .map_err(|e| e.to_string())?;
            datasets.push(Dataset {
                prefix,
                npz: false,
                records: records.iter().map(|r| digest(r)).collect(),
                tensors: vec![],
            });
        }
        let mut epoch_bytes = 0;
        for ds in &datasets {
            let reader = ShardReader::open(&ds.prefix, &sink).map_err(|e| e.to_string())?;
            epoch_bytes += reader
                .manifest()
                .shards
                .iter()
                .map(|s| s.bytes)
                .sum::<u64>();
        }
        let mut loader = Loader {
            sink,
            datasets,
            epoch_bytes,
            tensor_shape: [cfg.dst_grid.nlat(), cfg.dst_grid.nlon()],
        };
        // NPZ digests come from one set-up read, after checking that
        // every record decodes to the right members and shapes.
        let epoch = loader.epoch(false).map_err(|e| format!("{e:?}"))?;
        for (di, ds) in loader.datasets.iter_mut().enumerate() {
            if ds.npz {
                ds.records = epoch.records[di].iter().map(|r| digest(r)).collect();
                ds.tensors = epoch.tensors[di].iter().map(|t| tensor_digest(t)).collect();
            }
        }
        loader.check(&epoch)?;
        Ok(loader)
    }

    /// Read every data set; traced epochs time `read_all` as its
    /// public parts (sink read, whole-file CRC, shard parse).
    pub fn epoch(&self, parts: bool) -> Result<Epoch, OpError> {
        let mut out = Epoch {
            records: Vec::with_capacity(self.datasets.len()),
            tensors: Vec::with_capacity(self.datasets.len()),
        };
        for ds in &self.datasets {
            let reader = span("io.open_manifest", || {
                ShardReader::open(&ds.prefix, &self.sink)
            })
            .map_err(failed)?;
            let records = if parts {
                let m = reader.manifest();
                let mut recs = Vec::new();
                for info in &m.shards {
                    let data = span("io.shard_read", || self.sink.read_file(&info.name))
                        .map_err(failed)?;
                    if span("io.crc32c", || crc32c(&data)) != info.crc32c {
                        return Err(OpError::Failed(format!("{}: CRC mismatch", info.name)));
                    }
                    recs.extend(
                        span("io.codec_decode", || {
                            parse_shard(&data, &info.name, m.codec)
                        })
                        .map_err(failed)?,
                    );
                }
                recs
            } else {
                span("io.read_all", || reader.read_all()).map_err(failed)?
            };
            let mut tensors = Vec::new();
            if ds.npz {
                for rec in &records {
                    tensors.push(span("formats.npz_decode", || {
                        read_zip(rec)
                            .map_err(failed)?
                            .iter()
                            .map(|e| read_npy::<f32>(&e.data).map_err(failed))
                            .collect::<Result<Vec<_>, _>>()
                    })?);
                }
            }
            out.records.push(records);
            out.tensors.push(tensors);
        }
        Ok(out)
    }

    pub fn check(&self, epoch: &Epoch) -> Result<(), String> {
        for (di, ds) in self.datasets.iter().enumerate() {
            let recs = &epoch.records[di];
            if recs.len() != ds.records.len() {
                return Err(format!(
                    "{}: {} records, expected {}",
                    ds.prefix,
                    recs.len(),
                    ds.records.len()
                ));
            }
            for (ri, (rec, want)) in recs.iter().zip(&ds.records).enumerate() {
                if digest(rec) != *want {
                    return Err(format!("{} record {ri}: digest differs", ds.prefix));
                }
            }
            if !ds.npz {
                continue;
            }
            for (ri, (ts, want)) in epoch.tensors[di].iter().zip(&ds.tensors).enumerate() {
                if ts.len() != VARIABLES.len() || ts.iter().any(|t| t.shape() != self.tensor_shape)
                {
                    return Err(format!("{} record {ri}: bad NPZ layout", ds.prefix));
                }
                if tensor_digest(ts) != *want {
                    return Err(format!("{} record {ri}: decoded tensors differ", ds.prefix));
                }
            }
        }
        Ok(())
    }
}

pub fn run(seed: u64, seconds: f64, trace_on: bool) -> Result<Report, String> {
    let (wl, setup_s) = crate::common::repeated_setup(5, || Loader::setup(seed, FULL))?;
    // Traced epochs call `read_all`'s parts, so the library spans per
    // epoch are counted over every epoch.
    let (mut lib, mut epochs) = (LibTotals::default(), 0usize);
    let res = closed_loop(seconds, trace_on, |traced| {
        let op_reg = OpRegistry::attach();
        let (epoch, ns) = timed(|| wl.epoch(traced));
        let epoch = epoch?;
        span("bench.check", || wl.check(&epoch))?;
        span("bench.drop_epoch", || drop(epoch));
        lib.absorb(&op_reg.registry);
        epochs += 1;
        Ok(OpSample {
            ns,
            bytes: wl.epoch_bytes,
        })
    });
    Ok(closed_loop_report(&res, trace_on, setup_s, |t, m| {
        let read_ms = t.self_ms("io.shard_read");
        m.insert("io.shard_read_ms", read_ms);
        m.insert(
            "io.shard_read_mb_s",
            if read_ms > 0.0 {
                wl.epoch_bytes as f64 / 1e6 / (read_ms / 1e3)
            } else {
                0.0
            },
        );
        m.insert("io.crc32c_ms", t.self_ms("io.crc32c"));
        m.insert("io.codec_decode_ms", t.self_ms("io.codec_decode"));
        m.insert("formats.npz_decode_ms", t.self_ms("formats.npz_decode"));
        m.insert(
            "telemetry.library_spans",
            lib.get("bench.library_spans") / epochs.max(1) as f64,
        );
    }))
}

/// The check must reject an epoch in which one decoded record differs.
pub fn self_test() -> Result<(), String> {
    let tiny = Sizes {
        npz_members: 2,
        grid: (12, 24),
        timesteps: 4,
        records_per_codec: 4,
        record_bytes: 1 << 10,
    };
    let wl = Loader::setup(7, tiny)?;
    for parts in [false, true] {
        let mut epoch = wl.epoch(parts).map_err(|e| format!("{e:?}"))?;
        wl.check(&epoch)
            .map_err(|e| format!("clean loader epoch rejected: {e}"))?;
        let last = epoch.records.len() - 1;
        epoch.records[last][0][0] ^= 0x01;
        if wl.check(&epoch).is_ok() {
            return Err("loader check passed with one record changed".into());
        }
    }
    Ok(())
}
