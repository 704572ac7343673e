//! Cached variants of the domain pipelines: the same stage lists as
//! [`crate::climate`] / [`crate::materials`], with the expensive stages
//! decorated by [`drai_cache::StageCache`] so a re-run over unchanged
//! inputs replays memoized results instead of recomputing (the
//! "incremental reprocessing" need of §4 — pipelines are rerun every
//! time normalization choices or grid targets change).
//!
//! The [`drai_cache::CacheBytes`] impls here are the canonical binary
//! encodings of the inter-stage artifacts. They are exact (f64/f32 bits
//! round-trip via [`ByteWriter`]/[`ByteReader`]), so a cached stage
//! output is byte-identical to a fresh one — asserted by the coherence
//! tests and required for stable provenance digests.

use crate::climate::{self, ClimateConfig, ClimateData};
use crate::materials::{self, GraphSample, MaterialsConfig, MaterialsData};
use drai_cache::bytes::{ByteReader, ByteWriter};
use drai_cache::{
    config_fingerprint, member_cache_bytes, member_from_cache_bytes, CacheBytes, CachedPipelineExt,
    StageCache,
};
use drai_core::pipeline::{Pipeline, PipelineBuilder, StageCounters};
use drai_core::readiness::ProcessingStage;
use drai_formats::xyz::{Atom, Frame};
use drai_io::sink::StorageSink;
use drai_provenance::Ledger;
use drai_tensor::{Element, LatLonGrid, Tensor};
use drai_transform::normalize::{Method, Normalizer};
use std::collections::BTreeMap;
use std::sync::Arc;

fn method_tag(m: Method) -> u8 {
    match m {
        Method::ZScore => 0,
        Method::MinMax => 1,
        Method::Robust => 2,
    }
}

fn method_from_tag(tag: u8) -> Result<Method, String> {
    match tag {
        0 => Ok(Method::ZScore),
        1 => Ok(Method::MinMax),
        2 => Ok(Method::Robust),
        t => Err(format!("unknown normalizer method tag {t}")),
    }
}

impl CacheBytes for ClimateData {
    fn to_cache_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(
            self.fields.iter().map(|f| f.len() * 8 + 8).sum::<usize>() + 64,
        );
        w.put_u64(self.grid.nlat() as u64);
        w.put_u64(self.grid.nlon() as u64);
        w.put_u64(self.timesteps as u64);
        w.put_u64(self.fields.len() as u64);
        for f in &self.fields {
            w.put_f64_slice(f);
        }
        w.put_u64(self.normalizers.len() as u64);
        for n in &self.normalizers {
            w.put_u8(method_tag(n.method()));
            w.put_f64(n.offset);
            w.put_f64(n.scale);
        }
        w.finish()
    }

    fn from_cache_bytes(data: &[u8]) -> Result<ClimateData, String> {
        let mut r = ByteReader::new(data);
        let nlat = r.u64()? as usize;
        let nlon = r.u64()? as usize;
        let timesteps = r.u64()? as usize;
        let nfields = r.u64()? as usize;
        let mut fields = Vec::with_capacity(nfields.min(1024));
        for _ in 0..nfields {
            fields.push(r.f64_vec()?);
        }
        let nnorm = r.u64()? as usize;
        let mut normalizers = Vec::with_capacity(nnorm.min(1024));
        for _ in 0..nnorm {
            let method = method_from_tag(r.u8()?)?;
            let offset = r.f64()?;
            let scale = r.f64()?;
            normalizers.push(Normalizer::from_parts(method, offset, scale));
        }
        r.expect_end()?;
        Ok(ClimateData {
            fields,
            grid: LatLonGrid::global(nlat, nlon),
            timesteps,
            normalizers,
        })
    }
}

fn put_tensor<T: Element>(w: &mut ByteWriter, t: &Tensor<T>) {
    w.put_u64(t.shape().len() as u64);
    for &d in t.shape() {
        w.put_u64(d as u64);
    }
    w.put_bytes(&t.to_le_bytes());
}

fn read_tensor<T: Element>(r: &mut ByteReader) -> Result<Tensor<T>, String> {
    let rank = r.u64()? as usize;
    if rank > 16 {
        return Err(format!("implausible tensor rank {rank}"));
    }
    let shape = (0..rank)
        .map(|_| r.u64().map(|d| d as usize))
        .collect::<Result<Vec<usize>, String>>()?;
    Tensor::from_le_bytes(r.bytes()?, &shape).map_err(|e| format!("{e}"))
}

impl CacheBytes for MaterialsData {
    fn to_cache_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(self.frames.len() as u64);
        for frame in &self.frames {
            w.put_u64(frame.atoms.len() as u64);
            for atom in &frame.atoms {
                w.put_str(&atom.element);
                for &p in &atom.position {
                    w.put_f64(p);
                }
                match atom.force {
                    Some(f) => {
                        w.put_u8(1);
                        for &x in &f {
                            w.put_f64(x);
                        }
                    }
                    None => w.put_u8(0),
                }
            }
            w.put_u64(frame.properties.len() as u64);
            for (k, v) in &frame.properties {
                w.put_str(k);
                w.put_str(v);
            }
        }
        w.put_f64(self.energy_stats.0);
        w.put_f64(self.energy_stats.1);
        w.put_u64(self.graphs.len() as u64);
        for g in &self.graphs {
            w.put_u64(g.structure_id as u64);
            put_tensor(&mut w, &g.node_features);
            put_tensor(&mut w, &g.edges);
            put_tensor(&mut w, &g.edge_lengths);
            w.put_f64(g.energy_per_atom);
            put_tensor(&mut w, &g.forces);
        }
        w.finish()
    }

    fn from_cache_bytes(data: &[u8]) -> Result<MaterialsData, String> {
        let mut r = ByteReader::new(data);
        let nframes = r.u64()? as usize;
        let mut frames = Vec::with_capacity(nframes.min(4096));
        for _ in 0..nframes {
            let natoms = r.u64()? as usize;
            let mut atoms = Vec::with_capacity(natoms.min(65_536));
            for _ in 0..natoms {
                let element = r.str()?.to_string();
                let position = [r.f64()?, r.f64()?, r.f64()?];
                let force = match r.u8()? {
                    0 => None,
                    1 => Some([r.f64()?, r.f64()?, r.f64()?]),
                    t => return Err(format!("bad force flag {t}")),
                };
                atoms.push(Atom {
                    element,
                    position,
                    force,
                });
            }
            let nprops = r.u64()? as usize;
            let mut properties = BTreeMap::new();
            for _ in 0..nprops {
                let k = r.str()?.to_string();
                let v = r.str()?.to_string();
                properties.insert(k, v);
            }
            frames.push(Frame { atoms, properties });
        }
        let energy_stats = (r.f64()?, r.f64()?);
        let ngraphs = r.u64()? as usize;
        let mut graphs = Vec::with_capacity(ngraphs.min(4096));
        for _ in 0..ngraphs {
            let structure_id = r.u64()? as usize;
            let node_features = read_tensor(&mut r)?;
            let edges = read_tensor(&mut r)?;
            let edge_lengths = read_tensor(&mut r)?;
            let energy_per_atom = r.f64()?;
            let forces = read_tensor(&mut r)?;
            graphs.push(GraphSample {
                structure_id,
                node_features,
                edges,
                edge_lengths,
                energy_per_atom,
                forces,
            });
        }
        r.expect_end()?;
        Ok(MaterialsData {
            frames,
            energy_stats,
            graphs,
        })
    }
}

/// Fingerprint of every `ClimateConfig` input that affects the regrid
/// stage's output.
pub fn climate_regrid_fingerprint(cfg: &ClimateConfig) -> Vec<u8> {
    config_fingerprint([(
        "dst_grid",
        format!("{}x{}", cfg.dst_grid.nlat(), cfg.dst_grid.nlon()),
    )])
}

/// Fingerprint of the climate normalize stage configuration.
pub fn climate_normalize_fingerprint(_cfg: &ClimateConfig) -> Vec<u8> {
    config_fingerprint([("method", "zscore".to_string())])
}

/// Fingerprint of every `ClimateConfig` input that affects sharding.
pub fn climate_shard_fingerprint(cfg: &ClimateConfig) -> Vec<u8> {
    config_fingerprint([
        ("shard_bytes", format!("{}", cfg.shard_bytes)),
        ("seed", format!("{}", cfg.seed)),
        (
            "fractions",
            format!(
                "{}/{}/{}",
                cfg.fractions.train, cfg.fractions.validation, cfg.fractions.test
            ),
        ),
    ])
}

/// Builder decorator for the archetype stage lists: with a cache the
/// stage runs through [`CachedPipelineExt::cached_stage_with_check`]
/// (`check` vets each decoded hit), without one it is a plain stage.
pub(crate) trait OptionallyCached<I> {
    fn maybe_cached(
        self,
        cache: &Option<Arc<StageCache>>,
        name: &str,
        kind: ProcessingStage,
        config_fp: Vec<u8>,
        check: impl Fn(&I) -> bool + Send + Sync + 'static,
        func: impl Fn(I, &mut StageCounters) -> Result<I, String> + Send + Sync + 'static,
    ) -> Self;
}

impl<I: CacheBytes + Send + Sync + 'static> OptionallyCached<I> for PipelineBuilder<I> {
    fn maybe_cached(
        self,
        cache: &Option<Arc<StageCache>>,
        name: &str,
        kind: ProcessingStage,
        config_fp: Vec<u8>,
        check: impl Fn(&I) -> bool + Send + Sync + 'static,
        func: impl Fn(I, &mut StageCounters) -> Result<I, String> + Send + Sync + 'static,
    ) -> Self {
        match cache {
            Some(cache) => {
                self.cached_stage_with_check(name, kind, cache.clone(), config_fp, check, func)
            }
            None => self.stage(name, kind, func),
        }
    }
}

/// Build the climate pipeline with the regrid, normalize and shard
/// stages running through `cache`.
///
/// The shard stage's hit path additionally verifies that every split's
/// shard blobs still exist under `climate/` in `sink` — a cache entry
/// whose external artifacts were deleted is rejected and recomputed,
/// not trusted.
pub fn build_cached_climate_pipeline(
    cfg: &ClimateConfig,
    sink: Arc<dyn StorageSink>,
    ledger: Arc<Ledger>,
    cache: Arc<StageCache>,
) -> Pipeline<ClimateData> {
    climate::stage_list("climate", cfg, sink, ledger, Some(cache))
}

/// A batch member flowing through a cached batch pipeline: the member
/// id plus the inter-stage artifact.
#[derive(Clone)]
pub struct Member<T>(pub usize, pub T);

/// Cached with the same member-tagged encoding as `(usize, T)`, so each
/// member keys its own cache entries.
impl<T: CacheBytes> CacheBytes for Member<T> {
    fn to_cache_bytes(&self) -> Vec<u8> {
        member_cache_bytes(self.0, &self.1)
    }

    fn from_cache_bytes(data: &[u8]) -> Result<Member<T>, String> {
        member_from_cache_bytes(data).map(|(m, inner)| Member(m, inner))
    }
}

/// Build the climate batch pipeline (member-tagged items, per-member
/// shard prefixes `climate/m<member>/`) with the regrid, normalize and
/// shard stages running through `cache`. Under the streaming executor
/// a warm cache turns each cached stage's probe into a fast-path hit
/// that skips the stage's channel hop entirely.
pub fn build_cached_climate_batch_pipeline(
    cfg: &ClimateConfig,
    sink: Arc<dyn StorageSink>,
    ledger: Arc<Ledger>,
    cache: Arc<StageCache>,
) -> Pipeline<Member<ClimateData>> {
    climate::stage_list("climate-batch", cfg, sink, ledger, Some(cache))
}

/// Fingerprint of the materials normalize stage configuration.
pub fn materials_normalize_fingerprint(_cfg: &MaterialsConfig) -> Vec<u8> {
    config_fingerprint([("target", "energy_per_atom".to_string())])
}

/// Fingerprint of every `MaterialsConfig` input that affects encoding.
pub fn materials_encode_fingerprint(cfg: &MaterialsConfig) -> Vec<u8> {
    config_fingerprint([("cutoff", format!("{:.12e}", cfg.cutoff))])
}

/// Build the materials pipeline with the normalize and encode stages
/// running through `cache`. The shard stage stays uncached: its output
/// is the external BP/JSONL blobs, which must be (re)written every run.
pub fn build_cached_materials_pipeline(
    cfg: &MaterialsConfig,
    sink: Arc<dyn StorageSink>,
    ledger: Arc<Ledger>,
    cache: Arc<StageCache>,
) -> Pipeline<MaterialsData> {
    materials::stage_list("materials", cfg, sink, ledger, Some(cache))
}

#[cfg(test)]
mod tests {
    use super::*;
    use drai_cache::clock::LogicalClock;
    use drai_formats::netcdf::NcFile;
    use drai_formats::xyz::parse_xyz;
    use drai_io::checksum::content_hash128;
    use drai_io::sink::MemSink;
    use drai_telemetry::{Registry, TraceContext};
    use drai_transform::split::Split;

    fn climate_cfg() -> ClimateConfig {
        ClimateConfig {
            src_grid: LatLonGrid::global(12, 24),
            dst_grid: LatLonGrid::global(8, 16),
            timesteps: 6,
            seed: 7,
            shard_bytes: 64 * 1024,
            ..ClimateConfig::default()
        }
    }

    fn materials_cfg() -> MaterialsConfig {
        MaterialsConfig {
            structures: 6,
            cell_atoms: 2,
            seed: 11,
            ..MaterialsConfig::default()
        }
    }

    fn test_cache(sink: &Arc<MemSink>) -> Arc<StageCache> {
        Arc::new(
            StageCache::new(sink.clone() as Arc<dyn StorageSink>, 64 << 20)
                .with_clock(Arc::new(LogicalClock::new())),
        )
    }

    fn climate_input(cfg: &ClimateConfig) -> ClimateData {
        let raw_sink = MemSink::new();
        let names = climate::generate_raw(cfg, &raw_sink).expect("generate");
        let fields = names
            .iter()
            .enumerate()
            .map(|(vi, name)| {
                let bytes = raw_sink.read_file(name).expect("read raw");
                let nc = NcFile::from_bytes(&bytes).expect("parse nc");
                nc.var(climate::VARIABLES[vi].0)
                    .expect("variable present")
                    .data
                    .to_f64_vec()
            })
            .collect();
        ClimateData {
            fields,
            grid: cfg.src_grid.clone(),
            timesteps: cfg.timesteps,
            normalizers: vec![],
        }
    }

    fn materials_input(cfg: &MaterialsConfig) -> MaterialsData {
        let raw_sink = MemSink::new();
        materials::generate_raw(cfg, &raw_sink).expect("generate");
        let raw = raw_sink.read_file("raw/structures.xyz").expect("read raw");
        let frames = parse_xyz(&String::from_utf8_lossy(&raw)).expect("parse xyz");
        MaterialsData {
            frames,
            energy_stats: (0.0, 1.0),
            graphs: vec![],
        }
    }

    #[test]
    fn climate_data_round_trips_exactly() {
        let cfg = climate_cfg();
        let mut data = climate_input(&cfg);
        data.normalizers = vec![
            Normalizer::from_parts(Method::ZScore, 1.5, 2.0),
            Normalizer::from_parts(Method::Robust, -0.25, 4.0),
        ];
        let bytes = data.to_cache_bytes();
        let back = ClimateData::from_cache_bytes(&bytes).expect("decode");
        assert_eq!(back.to_cache_bytes(), bytes);
        assert_eq!(back.fields, data.fields);
        assert_eq!(back.grid.shape(), data.grid.shape());
        assert_eq!(back.normalizers, data.normalizers);
    }

    #[test]
    fn materials_data_round_trips_exactly() {
        let cfg = materials_cfg();
        let data = materials_input(&cfg);
        let bytes = data.to_cache_bytes();
        let back = MaterialsData::from_cache_bytes(&bytes).expect("decode");
        assert_eq!(back.to_cache_bytes(), bytes);
        assert_eq!(back.frames.len(), data.frames.len());
        assert_eq!(
            back.frames[0].atoms[0].position,
            data.frames[0].atoms[0].position
        );
    }

    #[test]
    fn cached_climate_pipeline_matches_plain_and_hits_warm() {
        let reg = Registry::new();
        let ((), snapshot) = run_in_registry(&reg, || {
            let cfg = climate_cfg();
            let input = climate_input(&cfg);

            // Plain pipeline → reference output digest.
            let plain_sink: Arc<dyn StorageSink> = Arc::new(MemSink::new());
            let plain_ledger = Arc::new(Ledger::new());
            let plain = climate::build_pipeline(&cfg, plain_sink.clone(), plain_ledger.clone());
            let plain_out = plain.run(input.clone()).expect("plain run").output;
            let plain_digest = content_hash128(&plain_out.to_cache_bytes());

            // Cached pipeline, cold then warm, against a fresh sink each
            // run (the cache sink is separate and persists).
            let cache_sink = Arc::new(MemSink::new());
            let cache = test_cache(&cache_sink);
            for pass in 0..2 {
                let sink: Arc<dyn StorageSink> = Arc::new(MemSink::new());
                let ledger = Arc::new(Ledger::new());
                let p = build_cached_climate_pipeline(&cfg, sink.clone(), ledger, cache.clone());
                let out = p.run(input.clone()).expect("cached run").output;
                assert_eq!(
                    content_hash128(&out.to_cache_bytes()),
                    plain_digest,
                    "pass {pass}: cached output differs from plain"
                );
                // Each pass gets a fresh output sink, so the shard hit's
                // external check fails and the stage recomputes — shard
                // blobs must appear in every pass's own sink.
                let blobs = sink.list().expect("list");
                assert!(
                    blobs
                        .iter()
                        .any(|n| n.starts_with("climate/") && n.ends_with(".shard")),
                    "pass {pass}: shard stage must write to its own sink"
                );
            }
        });
        let hits = snapshot.counters.get("cache.hits").copied().unwrap_or(0);
        // Warm pass: regrid, normalize and shard all decode as hits
        // (the shard hit is then rejected by the external check above).
        assert_eq!(hits, 3, "counters: {:?}", snapshot.counters);
        assert_eq!(
            snapshot.counters.get("cache.misses").copied().unwrap_or(0),
            3,
            "cold pass misses all three cached stages"
        );
    }

    #[test]
    fn cached_climate_shard_hit_accepted_when_blobs_exist() {
        let cfg = climate_cfg();
        let input = climate_input(&cfg);
        let cache_sink = Arc::new(MemSink::new());
        let cache = test_cache(&cache_sink);
        // One shared output sink: warm pass sees the cold pass's shards.
        let sink: Arc<dyn StorageSink> = Arc::new(MemSink::new());
        let cold_reg = Registry::new();
        run_in_registry(&cold_reg, || {
            let ledger = Arc::new(Ledger::new());
            let p = build_cached_climate_pipeline(&cfg, sink.clone(), ledger, cache.clone());
            p.run(input.clone()).expect("cold run");
        });
        let warm_reg = Registry::new();
        let ((), snapshot) = run_in_registry(&warm_reg, || {
            let ledger = Arc::new(Ledger::new());
            let p = build_cached_climate_pipeline(&cfg, sink.clone(), ledger, cache.clone());
            p.run(input.clone()).expect("warm run");
        });
        assert_eq!(
            snapshot.counters.get("cache.hits").copied().unwrap_or(0),
            3,
            "all three cached stages hit on warm pass: {:?}",
            snapshot.counters
        );
        // Accepted shard hit ⇒ the warm pass never writes to the output
        // sink (only cache reads happen, no cache or shard writes).
        assert_eq!(
            snapshot
                .counters
                .get("io.sink.files_written")
                .copied()
                .unwrap_or(0),
            0,
            "warm pass must be read-only: {:?}",
            snapshot.counters
        );
    }

    #[test]
    fn cached_materials_pipeline_matches_plain_and_hits_warm() {
        let reg = Registry::new();
        let ((), snapshot) = run_in_registry(&reg, || {
            let cfg = materials_cfg();

            let plain_sink: Arc<dyn StorageSink> = Arc::new(MemSink::new());
            let plain_ledger = Arc::new(Ledger::new());
            let plain = materials::build_pipeline(&cfg, plain_sink.clone(), plain_ledger.clone());
            let plain_out = plain.run(materials_input(&cfg)).expect("plain run").output;
            let plain_digest = content_hash128(&plain_out.to_cache_bytes());

            let cache_sink = Arc::new(MemSink::new());
            let cache = test_cache(&cache_sink);
            for pass in 0..2 {
                let sink: Arc<dyn StorageSink> = Arc::new(MemSink::new());
                let ledger = Arc::new(Ledger::new());
                let p = build_cached_materials_pipeline(&cfg, sink.clone(), ledger, cache.clone());
                let out = p.run(materials_input(&cfg)).expect("cached run").output;
                assert_eq!(
                    content_hash128(&out.to_cache_bytes()),
                    plain_digest,
                    "pass {pass}: cached output differs from plain"
                );
            }
        });
        assert_eq!(
            snapshot.counters.get("cache.hits").copied().unwrap_or(0),
            2,
            "normalize + encode hit on warm pass: {:?}",
            snapshot.counters
        );
    }

    #[test]
    fn config_change_invalidates_climate_regrid() {
        let cfg_a = climate_cfg();
        let cfg_b = ClimateConfig {
            dst_grid: LatLonGrid::global(6, 12),
            ..climate_cfg()
        };
        let fp_a = climate_regrid_fingerprint(&cfg_a);
        let fp_b = climate_regrid_fingerprint(&cfg_b);
        assert_ne!(fp_a, fp_b);
    }

    fn run_in_registry<R>(reg: &Registry, f: impl FnOnce() -> R) -> (R, drai_telemetry::Snapshot) {
        let ctx = TraceContext::root(reg);
        let r = ctx.scope(f);
        (r, reg.snapshot())
    }

    #[test]
    fn member_tagged_climate_data_round_trips_exactly() {
        let cfg = climate_cfg();
        let data = Member(7, climate_input(&cfg));
        let bytes = data.to_cache_bytes();
        let back = Member::<ClimateData>::from_cache_bytes(&bytes).expect("decode");
        assert_eq!(back.0, 7);
        assert_eq!(back.to_cache_bytes(), bytes);
        assert_eq!(back.1.fields, data.1.fields);
        // Tagging changes the encoding, so identical fields under a
        // different member id key different cache entries.
        assert_ne!(Member(8, climate_input(&cfg)).to_cache_bytes(), bytes);
        // One member-tag encoding, pinned byte for byte: the u64 member
        // id, then the length-prefixed inner bytes. `Member` and the
        // tuple form share it, so existing cache keys stay valid.
        let inner = data.1.to_cache_bytes();
        let mut expected = 7u64.to_le_bytes().to_vec();
        expected.extend((inner.len() as u64).to_le_bytes());
        expected.extend(&inner);
        assert_eq!(bytes, expected);
        assert_eq!((7usize, data.1.clone()).to_cache_bytes(), expected);
        let (m, back) = <(usize, ClimateData)>::from_cache_bytes(&expected).expect("decode");
        assert_eq!((m, back.fields), (7, data.1.fields));
    }

    /// Blobs in `sink` directly under `prefix/` whose names end in one of
    /// `exts`, keyed by their name relative to the prefix.
    fn blobs_under(
        sink: &dyn StorageSink,
        prefix: &str,
        exts: &[&str],
    ) -> BTreeMap<String, Vec<u8>> {
        sink.list()
            .expect("list")
            .into_iter()
            .filter_map(|name| {
                let rel = name.strip_prefix(&format!("{prefix}/"))?.to_string();
                let wanted = !rel.contains('/') && exts.iter().any(|e| rel.ends_with(e));
                wanted.then(|| (rel, sink.read_file(&name).expect("read")))
            })
            .collect()
    }

    #[test]
    fn every_climate_builder_streaming_or_not_writes_identical_shards() {
        use drai_core::executor::{ExecutorConfig, StreamingBatchExt};
        let cfg = climate_cfg();
        let data = climate::member_input(&cfg, 2);
        let exec = ExecutorConfig::default();
        let fresh = || -> Arc<dyn StorageSink> { Arc::new(MemSink::new()) };

        let sink = fresh();
        climate::build_pipeline(&cfg, sink.clone(), Arc::new(Ledger::new()))
            .run(data.clone())
            .expect("plain run");
        let expected = blobs_under(sink.as_ref(), "climate", &[".shard"]);
        assert!(!expected.is_empty());

        let sink = fresh();
        climate::build_batch_pipeline(&cfg, sink.clone(), Arc::new(Ledger::new()))
            .run_batch_streaming(vec![(2, data.clone())], &exec)
            .expect("batch run");
        assert_eq!(
            blobs_under(sink.as_ref(), "climate/m2", &[".shard"]),
            expected
        );

        // Cached batch, cold then warm, each into a fresh output sink:
        // the warm pass replays regrid + normalize from the cache and
        // must still shard the same bytes.
        let cache = test_cache(&Arc::new(MemSink::new()));
        for (pass, hits) in [("cold", 0), ("warm", 3)] {
            let sink = fresh();
            let ((), snap) = run_in_registry(&Registry::new(), || {
                build_cached_climate_batch_pipeline(
                    &cfg,
                    sink.clone(),
                    Arc::new(Ledger::new()),
                    cache.clone(),
                )
                .run_batch_streaming(vec![Member(2, data.clone())], &exec)
                .expect("cached batch run");
            });
            assert_eq!(snap.counters.get("cache.hits").copied().unwrap_or(0), hits);
            assert_eq!(
                blobs_under(sink.as_ref(), "climate/m2", &[".shard"]),
                expected,
                "{pass} pass"
            );
        }
    }

    #[test]
    fn every_materials_builder_streaming_or_not_writes_identical_shards() {
        use drai_core::executor::{ExecutorConfig, StreamingBatchExt};
        let cfg = materials_cfg();
        let exts = [".bp", ".jsonl"];
        let fresh = || -> Arc<dyn StorageSink> { Arc::new(MemSink::new()) };

        let sink = fresh();
        materials::build_pipeline(&cfg, sink.clone(), Arc::new(Ledger::new()))
            .run(materials_input(&cfg))
            .expect("plain run");
        let expected = blobs_under(sink.as_ref(), "materials", &exts);
        assert!(!expected.is_empty());

        let sink = fresh();
        materials::build_batch_pipeline(&cfg, sink.clone(), Arc::new(Ledger::new()))
            .run_batch_streaming(vec![(2, materials_input(&cfg))], &ExecutorConfig::default())
            .expect("batch run");
        assert_eq!(blobs_under(sink.as_ref(), "materials/m2", &exts), expected);

        let cache = test_cache(&Arc::new(MemSink::new()));
        for pass in ["cold", "warm"] {
            let sink = fresh();
            build_cached_materials_pipeline(
                &cfg,
                sink.clone(),
                Arc::new(Ledger::new()),
                cache.clone(),
            )
            .run(materials_input(&cfg))
            .expect("cached run");
            assert_eq!(
                blobs_under(sink.as_ref(), "materials", &exts),
                expected,
                "{pass} pass"
            );
        }
    }

    #[test]
    fn cached_climate_shard_hit_needs_every_split_under_its_own_prefix() {
        let cfg = ClimateConfig {
            timesteps: 24,
            ..climate_cfg()
        };
        let input = climate_input(&cfg);
        let cache = test_cache(&Arc::new(MemSink::new()));
        let run = |sink: &Arc<dyn StorageSink>| {
            build_cached_climate_pipeline(
                &cfg,
                sink.clone(),
                Arc::new(Ledger::new()),
                cache.clone(),
            )
            .run(input.clone())
            .expect("cached run");
        };
        let shards = |sink: &Arc<dyn StorageSink>, split: &str| -> Vec<String> {
            let stem = format!("climate/{split}-");
            let names = sink.list().expect("list");
            names
                .into_iter()
                .filter(|n| n.starts_with(&stem) && n.ends_with(".shard"))
                .collect()
        };
        // The cold pass fills the cache and shards into `first`.
        let first: Arc<dyn StorageSink> = Arc::new(MemSink::new());
        run(&first);
        let splits: Vec<&str> = Split::ALL
            .map(Split::name)
            .into_iter()
            .filter(|split| !shards(&first, split).is_empty())
            .collect();
        assert_eq!(splits.len(), 3, "need every split, got {splits:?}");

        // A sibling member's shard is not this run's shard: the hit is
        // rejected and every split is written under `climate/`.
        let sibling: Arc<dyn StorageSink> = Arc::new(MemSink::new());
        sibling
            .write_file("climate/m0/train-00000.shard", b"sibling")
            .expect("write");
        run(&sibling);
        for split in &splits {
            assert!(!shards(&sibling, split).is_empty(), "{split} not written");
        }

        // With one split's shards deleted, the hit is rejected and the
        // missing split is rewritten.
        let gone = splits[splits.len() - 1];
        for name in shards(&first, gone) {
            first.delete(&name).expect("delete");
        }
        run(&first);
        assert!(!shards(&first, gone).is_empty(), "{gone} not rewritten");
    }

    #[test]
    fn cached_batch_pipeline_warm_streaming_short_circuits_channel_hops() {
        use drai_core::executor::{ExecutorConfig, StreamingBatchExt};

        let cfg = climate_cfg();
        let members = 3usize;
        let items = |n: usize| -> Vec<Member<ClimateData>> {
            (0..n)
                .map(|m| Member(m, climate::member_input(&cfg, m)))
                .collect()
        };
        let cache_sink = Arc::new(MemSink::new());
        let cache = test_cache(&cache_sink);
        // One shared output sink so the warm pass's shard hits pass the
        // external blob check.
        let sink: Arc<dyn StorageSink> = Arc::new(MemSink::new());
        let exec = ExecutorConfig::default();

        let cold_reg = Registry::new();
        let ((), cold) = run_in_registry(&cold_reg, || {
            let p = build_cached_climate_batch_pipeline(
                &cfg,
                sink.clone(),
                Arc::new(Ledger::new()),
                cache.clone(),
            );
            p.run_batch_streaming(items(members), &exec).expect("cold");
        });
        assert_eq!(
            cold.counters.get("cache.misses").copied().unwrap_or(0),
            3 * members as u64,
            "cold pass misses all three cached stages per member: {:?}",
            cold.counters
        );

        let warm_reg = Registry::new();
        let ((), warm) = run_in_registry(&warm_reg, || {
            let p = build_cached_climate_batch_pipeline(
                &cfg,
                sink.clone(),
                Arc::new(Ledger::new()),
                cache.clone(),
            );
            p.run_batch_streaming(items(members), &exec).expect("warm");
        });
        assert_eq!(
            warm.counters.get("cache.hits").copied().unwrap_or(0),
            3 * members as u64,
            "warm pass hits all three cached stages per member: {:?}",
            warm.counters
        );
        // Every warm hit fires on the sending side of a channel, so the
        // executor skips that stage's channel hop entirely.
        assert_eq!(
            warm.counters
                .get("executor.shortcircuits")
                .copied()
                .unwrap_or(0),
            3 * members as u64,
            "each warm hit skips its channel hop: {:?}",
            warm.counters
        );
    }
}
