//! `facility_mix`: the archetypes as multi-tenant service jobs (open
//! loop).
//!
//! Three tenants with weights 2/1/1 submit jobs on a seeded Poisson
//! arrival schedule at one fixed offered rate. Jobs run on a scheduler
//! worker pool of `nproc` threads. A quarter of the jobs are each of:
//!
//! - cached climate jobs: one member drawn with Zipf popularity from a
//!   pool whose cache footprint exceeds the `StageCache` capacity, so
//!   hits, misses and evictions all occur;
//! - materials batches (`parse_xyz` + `build_batch_pipeline`);
//! - bio cohorts (`bio::ingest` + `build_pipeline`);
//! - fusion runs (`fusion::run`, which synthesizes its shot store inside
//!   the job: `FusionData` cannot be built outside the crate).
//!
//! The basis of every traffic number (sizes, costs, popularity, cache
//! capacity, rate) is given where it is defined and in
//! `perfbench/README.md`.
//!
//! Every input is made in set-up; the generator only wraps set-up data
//! in a `JobSpec` and submits it. Each job is timed from its due time.
//! The checks: every submission is accounted for (completed, rejected,
//! shed, failed or cancelled), and every job's output digest equals the
//! first one seen for the same input (a cache hit must return what a
//! miss computed).

use crate::common::{
    failed, quantile, sink_digest, Digest, LibTotals, OpError, OpRegistry, Report, RssSampler,
    Traced,
};
use crate::trace::{self, span};
use drai_cache::StageCache;
use drai_core::StreamingBatchExt;
use drai_domains::bio::{self, BioConfig};
use drai_domains::cached::{self, Member};
use drai_domains::climate::{self, ClimateConfig, ClimateData};
use drai_domains::fusion::{self, FusionConfig};
use drai_domains::materials::{self, MaterialsConfig, MaterialsData};
use drai_formats::xyz::parse_xyz;
use drai_io::sink::{MemSink, StorageSink};
use drai_provenance::Ledger;
use drai_sched::{
    JobContext, JobOutcome, JobOutput, JobSpec, Scheduler, SchedulerConfig, TenantConfig,
};
use drai_telemetry::{Registry, TraceContext};
use drai_tensor::LatLonGrid;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Offered load in jobs per second, fixed once from the capacity probe
/// (`--workload facility_calibrate`) of the commit that introduced this
/// benchmark and frozen since, so a faster program shows as shorter
/// waits, not as more load. It is about 45% of the probe's figure; at
/// 57% the queue grew whenever the host slowed (see
/// `perfbench/README.md`).
pub const RATE_PER_S: f64 = 40.0;
/// Latency limit for goodput, from due time to completion: twice the
/// longest kind's job time, so a job of any kind can meet it even after
/// waiting behind one job of the longest kind.
fn limit_ms() -> f64 {
    2.0 * JOB_MS.iter().copied().fold(0.0, f64::max)
}
/// A run is invalid when the generator submitted its 99th-percentile
/// job later than this after its due time.
const MAX_GENERATOR_LAG_MS: f64 = 50.0;

const TENANTS: [(&str, u32); 3] = [("alpha", 2), ("beta", 1), ("gamma", 1)];

/// Mean job time of each kind in ms, in [`KINDS`] order, at the
/// [`full`] sizes, measured one job at a time by `--workload
/// facility_calibrate` (see `perfbench/README.md`) and frozen. It sets
/// the job costs ([`Kind::cost`]) and the goodput limit.
const JOB_MS: [f64; 4] = [17.8, 18.3, 16.6, 19.5];

/// Zipf exponent of climate member popularity. Breslau et al., "Web
/// Caching and Zipf-like Distributions: Evidence and Implications"
/// (IEEE INFOCOM 1999) fit exponents of 0.64 to 0.83 to six proxy
/// request traces; 0.8 lies in that range.
const ZIPF_S: f64 = 0.8;

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Climate,
    Materials,
    Bio,
    Fusion,
}

const KINDS: [Kind; 4] = [Kind::Climate, Kind::Materials, Kind::Bio, Kind::Fusion];

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Climate => "climate",
            Kind::Materials => "materials",
            Kind::Bio => "bio",
            Kind::Fusion => "fusion",
        }
    }

    /// Scheduler cost: the job time in ms, the unit of the scheduler's
    /// own cost model (`SchedulerConfig::default().cost_ns_per_unit` is
    /// 1 ms per cost unit).
    fn cost(self) -> u64 {
        (JOB_MS[self as usize].round() as u64).max(1)
    }
}

/// Sizes of one facility data set.
#[derive(Clone, Copy)]
pub struct Sizes {
    /// Climate member pool: the 16-member ensemble of
    /// `climate_ensemble`.
    pub pool: usize,
    pub grid: (usize, usize),
    pub timesteps: usize,
    pub materials_variants: usize,
    pub materials_members: usize,
    pub bio_variants: usize,
    pub bio_patients: usize,
    pub fusion_variants: usize,
    pub fusion_shots: usize,
}

/// The benchmark's sizes. A climate job is one member of the default
/// climate config, the unit the cache works in. The other kinds are
/// sized so that their mean job time matches a climate job's (the sizes
/// `--workload facility_calibrate` suggests, frozen), and every kind is
/// a quarter of the jobs: each archetype gets an equal share of the
/// facility's busy time, and the latency percentiles do not fall in a
/// gap between kinds of very different size.
fn full() -> Sizes {
    let climate = ClimateConfig::default();
    Sizes {
        pool: 16,
        grid: (climate.src_grid.nlat(), climate.src_grid.nlon()),
        timesteps: climate.timesteps,
        materials_variants: 4,
        materials_members: 8,
        bio_variants: 4,
        bio_patients: 360,
        fusion_variants: 4,
        fusion_shots: 9,
    }
}

/// One scheduled submission.
#[derive(Clone, Debug)]
pub struct Arrival {
    due: Duration,
    tenant: usize,
    kind: Kind,
    /// Climate: pool members; other kinds: `[variant]`.
    inputs: Vec<usize>,
}

/// Everything jobs read, built in set-up and shared by `Arc`.
pub struct Inputs {
    climate_cfg: ClimateConfig,
    pool: Vec<ClimateData>,
    member_bytes: u64,
    cache: Arc<StageCache>,
    climate_sink: Arc<MemSink>,
    materials_cfg: MaterialsConfig,
    /// `materials[variant][member]` raw XYZ text.
    materials: Vec<Vec<String>>,
    bio: Vec<(BioConfig, Vec<u8>, Vec<u8>)>,
    fusion: Vec<FusionConfig>,
    /// First output digest seen per input (`kind`, input id).
    seen: Mutex<BTreeMap<(Kind, usize), u64>>,
}

/// What one job's work produced.
struct Done {
    /// Input bytes the job processed.
    bytes: u64,
    /// Provenance records the job's ledger holds.
    ledger_records: u64,
    /// Output digest per input (pool member or variant).
    digests: Vec<(usize, u64)>,
}

/// What a finished job reports back to the generator.
#[derive(Clone, Debug)]
struct JobRec {
    kind: Kind,
    traced: bool,
    due: Instant,
    submitted: Instant,
    start: Instant,
    end: Instant,
    bytes: u64,
    ledger_records: u64,
    mismatch: Option<String>,
}

pub struct Facility {
    inputs: Arc<Inputs>,
    arrivals: Vec<Arrival>,
}

/// Split `draws` in proportion to `weights` with exact shares (largest
/// remainder rounding).
fn exact_counts(weights: &[f64], draws: usize) -> Vec<usize> {
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / total * draws as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    for &i in by_remainder
        .iter()
        .take(draws - counts.iter().sum::<usize>())
    {
        counts[i] += 1;
    }
    counts
}

/// Zipf([`ZIPF_S`]) popularity of `n` members, rank 0 most popular.
fn zipf_weights(n: usize) -> Vec<f64> {
    (1..=n).map(|k| (k as f64).powf(-ZIPF_S)).collect()
}

/// The most popular members that together receive at least half of
/// all draws. The cache holds exactly these, so a cache that kept the
/// most popular members would hit half the time, and hits and misses
/// weigh alike in the job latency.
fn hot_members(n: usize) -> usize {
    let w = zipf_weights(n);
    let total: f64 = w.iter().sum();
    let mut acc = 0.0;
    for (k, x) in w.iter().enumerate() {
        acc += x;
        if acc >= total / 2.0 {
            return k + 1;
        }
    }
    n
}

/// `counts[i]` copies of each index `i`, in seeded order. Fixing the
/// counts keeps the offered work (and the cache's hit ratio) close to
/// the same for every seed; the order still varies.
fn shuffled(rng: &mut SmallRng, counts: &[usize]) -> Vec<usize> {
    let mut out: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(i, &c)| std::iter::repeat_n(i, c))
        .collect();
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_range(0..i + 1));
    }
    out
}

/// The seeded arrival schedule: `rate × seconds` arrivals, the i-th at
/// a uniform random point of the slot `[i, i + 1) / rate` (a jittered
/// periodic schedule), tenants by weight, an equal number of jobs of
/// each kind and one climate member per climate job with exact Zipf
/// shares, both in seeded order. Fixing the count, the shares and one
/// arrival per slot keeps the offered work the same for every seed at
/// every timescale above one slot; the seed moves only the timing
/// within slots, the order and the inputs drawn. Poisson arrivals made
/// the latency follow each seed's bursts (see `perfbench/README.md`).
pub fn schedule(seed: u64, sz: &Sizes, rate: f64, seconds: f64) -> Vec<Arrival> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_fac1);
    let n = (rate * seconds).round() as usize;
    let times: Vec<f64> = (0..n)
        .map(|i| (i as f64 + rng.gen::<f64>()) / rate)
        .collect();
    let kinds = shuffled(&mut rng, &exact_counts(&[1.0; KINDS.len()], n));
    let climate_jobs = kinds
        .iter()
        .filter(|&&k| k == Kind::Climate as usize)
        .count();
    let counts = exact_counts(&zipf_weights(sz.pool), climate_jobs);
    let mut members = shuffled(&mut rng, &counts).into_iter();
    let weight_total: u32 = TENANTS.iter().map(|t| t.1).sum();
    times
        .into_iter()
        .zip(kinds)
        .map(|(t, k)| {
            let kind = KINDS[k];
            let mut w = rng.gen_range(0..weight_total);
            let tenant = TENANTS
                .iter()
                .position(|&(_, tw)| {
                    let hit = w < tw;
                    w = w.saturating_sub(tw);
                    hit
                })
                .unwrap_or(0);
            let inputs = match kind {
                Kind::Climate => members.next().into_iter().collect(),
                Kind::Materials => vec![rng.gen_range(0..sz.materials_variants)],
                Kind::Bio => vec![rng.gen_range(0..sz.bio_variants)],
                Kind::Fusion => vec![rng.gen_range(0..sz.fusion_variants)],
            };
            Arrival {
                due: Duration::from_secs_f64(t),
                tenant,
                kind,
                inputs,
            }
        })
        .collect()
}

impl Inputs {
    pub fn setup(seed: u64, sz: &Sizes) -> Result<Inputs, String> {
        let climate_cfg = ClimateConfig {
            src_grid: LatLonGrid::global(sz.grid.0, sz.grid.1),
            dst_grid: LatLonGrid::global(sz.grid.0 * 2 / 3, sz.grid.1 * 2 / 3),
            timesteps: sz.timesteps,
            seed: seed.wrapping_mul(7_919),
            ..ClimateConfig::default()
        };
        let pool: Vec<ClimateData> = (0..sz.pool)
            .map(|m| climate::member_input(&climate_cfg, m))
            .collect();
        let member_bytes = pool[0].fields.iter().map(|f| f.len() as u64 * 8).sum();
        let materials_cfg = MaterialsConfig {
            seed: seed.wrapping_mul(31),
            ..MaterialsConfig::default()
        };
        let mut materials = Vec::new();
        for v in 0..sz.materials_variants {
            let mut texts = Vec::new();
            for m in 0..sz.materials_members {
                let cfg = MaterialsConfig {
                    seed: materials_cfg.seed.wrapping_add((v * 100 + m) as u64),
                    ..materials_cfg.clone()
                };
                let staging = MemSink::new();
                materials::generate_raw(&cfg, &staging).map_err(|e| e.to_string())?;
                let raw = staging
                    .read_file("raw/structures.xyz")
                    .map_err(|e| e.to_string())?;
                texts.push(String::from_utf8(raw).map_err(|e| e.to_string())?);
            }
            materials.push(texts);
        }
        let mut bio_sets = Vec::new();
        for v in 0..sz.bio_variants {
            let cfg = BioConfig {
                patients: sz.bio_patients,
                seed: seed.wrapping_mul(131).wrapping_add(v as u64),
                ..BioConfig::default()
            };
            let staging = MemSink::new();
            bio::generate_raw(&cfg, &staging).map_err(|e| e.to_string())?;
            let csv = staging
                .read_file("raw/ehr.csv")
                .map_err(|e| e.to_string())?;
            let fasta = staging
                .read_file("raw/sequences.fasta")
                .map_err(|e| e.to_string())?;
            bio_sets.push((cfg, csv, fasta));
        }
        let fusion = (0..sz.fusion_variants)
            .map(|v| FusionConfig {
                shots: sz.fusion_shots,
                seed: seed.wrapping_mul(977).wrapping_add(v as u64),
                ..FusionConfig::default()
            })
            .collect();
        let climate_sink = Arc::new(MemSink::new());
        let cache = Arc::new(StageCache::new(Arc::new(MemSink::new()), u64::MAX));
        Ok(Inputs {
            climate_cfg,
            pool,
            member_bytes,
            cache,
            climate_sink,
            materials_cfg,
            materials,
            bio: bio_sets,
            fusion,
            seen: Mutex::new(BTreeMap::new()),
        })
    }

    /// Run one job's work.
    fn work(&self, a: &Arrival, ctx: &JobContext) -> Result<Done, OpError> {
        let ledger = Arc::new(Ledger::new());
        match a.kind {
            Kind::Climate => {
                let items: Vec<Member<ClimateData>> = span("bench.copy_input", || {
                    a.inputs
                        .iter()
                        .map(|&m| Member(m, self.pool[m].clone()))
                        .collect()
                });
                let outputs = span("domains.climate_job", || {
                    cached::build_cached_climate_batch_pipeline(
                        &self.climate_cfg,
                        self.climate_sink.clone(),
                        ledger.clone(),
                        self.cache.clone(),
                    )
                    .run_batch_streaming_cancellable(
                        items,
                        &ctx.exec,
                        &ctx.cancel,
                    )
                })
                .map_err(failed)?
                .0;
                let digests = outputs
                    .iter()
                    .map(|Member(m, data)| {
                        let mut d = Digest::new();
                        for f in &data.fields {
                            let bytes: Vec<u8> = f.iter().flat_map(|x| x.to_le_bytes()).collect();
                            d.add(&bytes);
                        }
                        (*m, d.finish())
                    })
                    .collect();
                Ok(Done {
                    bytes: self.member_bytes * a.inputs.len() as u64,
                    ledger_records: ledger.len() as u64,
                    digests,
                })
            }
            Kind::Materials => {
                let v = a.inputs[0];
                let texts = &self.materials[v];
                let mut items = Vec::with_capacity(texts.len());
                for (m, text) in texts.iter().enumerate() {
                    let frames = span("formats.text_parse", || parse_xyz(text)).map_err(failed)?;
                    items.push((
                        m,
                        MaterialsData {
                            frames,
                            energy_stats: (0.0, 1.0),
                            graphs: vec![],
                        },
                    ));
                }
                let sink = Arc::new(MemSink::new());
                span("domains.materials_job", || {
                    materials::build_batch_pipeline(
                        &self.materials_cfg,
                        sink.clone(),
                        ledger.clone(),
                    )
                    .run_batch_streaming_cancellable(
                        items,
                        &ctx.exec,
                        &ctx.cancel,
                    )
                })
                .map_err(failed)?;
                let bytes = texts.iter().map(|t| t.len() as u64).sum();
                let d = sink_digest(sink.as_ref(), "").map_err(OpError::Failed)?;
                Ok(Done {
                    bytes,
                    ledger_records: ledger.len() as u64,
                    digests: vec![(v, d)],
                })
            }
            Kind::Bio => {
                let v = a.inputs[0];
                let (cfg, csv, fasta) = &self.bio[v];
                let sink = Arc::new(MemSink::new());
                span("bench.stage_input", || {
                    sink.write_file("raw/ehr.csv", csv)?;
                    sink.write_file("raw/sequences.fasta", fasta)
                })
                .map_err(failed)?;
                span("domains.bio_job", || {
                    let data = bio::ingest(cfg, sink.as_ref())?;
                    bio::build_pipeline(cfg, sink.clone(), ledger.clone())
                        .run(data)
                        .map_err(drai_domains::DomainError::from)
                })
                .map_err(failed)?;
                let d = sink_digest(sink.as_ref(), "").map_err(OpError::Failed)?;
                Ok(Done {
                    bytes: (csv.len() + fasta.len()) as u64,
                    ledger_records: ledger.len() as u64,
                    digests: vec![(v, d)],
                })
            }
            Kind::Fusion => {
                let v = a.inputs[0];
                let sink = Arc::new(MemSink::new());
                let run = span("domains.fusion_job", || {
                    fusion::run(&self.fusion[v], sink.clone())
                })
                .map_err(failed)?;
                let d = sink_digest(sink.as_ref(), "").map_err(OpError::Failed)?;
                // The shot store is synthesized inside the job; count the
                // f64 windows it produced as the job's input.
                let bytes = run.manifest.records * self.fusion[v].window_len as u64 * 8;
                Ok(Done {
                    bytes,
                    ledger_records: run.ledger.len() as u64,
                    digests: vec![(v, d)],
                })
            }
        }
    }

    /// Compare each output digest with the first one seen for the same
    /// input.
    fn check(&self, kind: Kind, digests: &[(usize, u64)]) -> Option<String> {
        let mut seen = self
            .seen
            .lock()
            .expect("digest table lock is never poisoned");
        for &(input, d) in digests {
            let first = *seen.entry((kind, input)).or_insert(d);
            if first != d {
                return Some(format!(
                    "{} input {input}: output digest {d:016x}, first run gave {first:016x}",
                    kind.label()
                ));
            }
        }
        None
    }
}

impl Facility {
    pub fn setup(seed: u64, sz: &Sizes, rate: f64, seconds: f64) -> Result<Facility, String> {
        let mut inputs = Inputs::setup(seed, sz)?;
        // Size the cache to hold exactly the hot members (see
        // [`hot_members`]): prime an unbounded cache with them, read its
        // footprint, then prime a cache of that capacity, as a facility
        // that has been serving this population would have it.
        let ctx = JobContext {
            exec: drai_core::ExecutorConfig::for_host(),
            cancel: drai_core::CancelToken::new(),
        };
        let prime = Arrival {
            due: Duration::ZERO,
            tenant: 0,
            kind: Kind::Climate,
            inputs: (0..hot_members(sz.pool)).collect(),
        };
        for sized in [false, true] {
            if sized {
                let capacity = inputs.cache.tracked_bytes();
                inputs.cache = Arc::new(StageCache::new(Arc::new(MemSink::new()), capacity));
                inputs.climate_sink = Arc::new(MemSink::new());
            }
            let done = inputs.work(&prime, &ctx).map_err(|e| format!("{e:?}"))?;
            if let Some(msg) = inputs.check(Kind::Climate, &done.digests) {
                return Err(msg);
            }
        }
        Ok(Facility {
            inputs: Arc::new(inputs),
            arrivals: schedule(seed, sz, rate, seconds),
        })
    }
}

/// Outcome totals of one open-loop run.
#[derive(Default, Debug)]
pub struct Tally {
    pub submitted: u64,
    pub completed: u64,
    pub rejected: u64,
    pub shed: u64,
    pub failed: u64,
    pub cancelled: u64,
}

impl Tally {
    /// Every submission must land in exactly one outcome.
    pub fn check(&self) -> Result<(), String> {
        let accounted = self.completed + self.rejected + self.shed + self.failed + self.cancelled;
        if accounted != self.submitted {
            return Err(format!(
                "{} submissions, {accounted} accounted for ({self:?})",
                self.submitted
            ));
        }
        Ok(())
    }
}

struct OpenLoop {
    tally: Tally,
    recs: Vec<JobRec>,
    lags_ms: Vec<f64>,
    wall_s: f64,
    peak_rss_mb: f64,
    /// Library counters of every job (traced run only).
    lib: LibTotals,
}

/// Scheduler settings of the run. Costs are job times in ms, so the
/// in-flight cost cap is lifted (the `nproc` workers bound concurrency)
/// and shedding starts only above 10 s of queued work, far above what
/// the offered rate queues: at the fixed rate every job is admitted
/// unless the program has slowed down a lot.
fn scheduler_config(unbounded: bool) -> (SchedulerConfig, usize) {
    let cfg = SchedulerConfig {
        exec: drai_core::ExecutorConfig::for_host(),
        max_inflight_cost: u64::MAX,
        shed_watermark: if unbounded { u64::MAX } else { 10_000 },
        ..SchedulerConfig::default()
    };
    (cfg, if unbounded { usize::MAX } else { 256 })
}

/// Drive the arrival schedule through a scheduler. `drop_one` loses
/// one job handle on purpose (self-test of the accounting check);
/// `unbounded` lifts the queue and shedding limits (capacity probe).
fn open_loop(f: &Facility, trace_on: bool, drop_one: bool, unbounded: bool) -> OpenLoop {
    // The scheduler's own records land in a registry of the run; each
    // job's library records in one of the job's own.
    let registry = Registry::new();
    let _attached = TraceContext::root(&registry).attach();
    let lib = Arc::new(Mutex::new(LibTotals::default()));
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (cfg, max_queued) = scheduler_config(unbounded);
    let sched = Arc::new(Scheduler::new(cfg));
    for (name, weight) in TENANTS {
        sched.register_tenant(
            TenantConfig::new(name)
                .weight(weight)
                .max_queued(max_queued),
        );
    }
    let pool = sched.start_workers(workers);
    let recs: Arc<Mutex<Vec<JobRec>>> = Arc::new(Mutex::new(Vec::new()));
    let mut tally = Tally::default();
    let mut lags_ms = Vec::with_capacity(f.arrivals.len());
    let mut handles = Vec::with_capacity(f.arrivals.len());
    let rss = RssSampler::start();
    let t0 = Instant::now() + Duration::from_millis(5);
    for (i, a) in f.arrivals.iter().enumerate() {
        let due = t0 + a.due;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let submitted = Instant::now();
        lags_ms.push(submitted.duration_since(due).as_secs_f64() * 1e3);
        let traced = trace_on && i % 2 == 0;
        let (inputs, recs, lib, arrival) = (f.inputs.clone(), recs.clone(), lib.clone(), a.clone());
        let spec = JobSpec::new(
            TENANTS[a.tenant].0,
            a.kind.label(),
            a.kind.cost(),
            move |ctx: &JobContext| {
                let op_reg = OpRegistry::attach();
                trace::set_enabled(traced);
                let start = Instant::now();
                let result = span("op", || inputs.work(&arrival, ctx));
                let end = Instant::now();
                trace::set_enabled(false);
                if trace_on {
                    lib.lock()
                        .expect("library totals lock is never poisoned")
                        .absorb(&op_reg.registry);
                }
                let Done {
                    bytes,
                    ledger_records,
                    digests,
                } = result.map_err(|e| format!("{e:?}"))?;
                let mismatch = inputs.check(arrival.kind, &digests);
                recs.lock()
                    .expect("job record lock is never poisoned")
                    .push(JobRec {
                        kind: arrival.kind,
                        traced,
                        due,
                        submitted,
                        start,
                        end,
                        bytes,
                        ledger_records,
                        mismatch,
                    });
                Ok(JobOutput {
                    items: digests.len() as u64,
                    detail: String::new(),
                })
            },
        );
        tally.submitted += 1;
        match sched.submit(spec) {
            Ok(h) => handles.push(h),
            Err(_) => tally.rejected += 1,
        }
    }
    if drop_one {
        handles.pop();
    }
    for h in handles {
        match h.wait() {
            JobOutcome::Completed(_) => tally.completed += 1,
            JobOutcome::Failed { error } => {
                eprintln!("job failed: {error}");
                tally.failed += 1
            }
            JobOutcome::Shed { .. } => tally.shed += 1,
            JobOutcome::Cancelled => tally.cancelled += 1,
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let peak_rss_mb = rss.stop();
    sched.shutdown();
    pool.join();
    let recs = std::mem::take(&mut *recs.lock().expect("job record lock is never poisoned"));
    let lib = std::mem::take(&mut *lib.lock().expect("library totals lock is never poisoned"));
    OpenLoop {
        tally,
        recs,
        lags_ms,
        wall_s,
        peak_rss_mb,
        lib,
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn run(seed: u64, seconds: f64, trace_on: bool) -> Result<Report, String> {
    let (f, setup_s) =
        crate::common::repeated_setup(5, || Facility::setup(seed, &full(), RATE_PER_S, seconds))?;
    let ol = open_loop(&f, trace_on, false, false);
    let mut report = Report {
        attempted: ol.tally.submitted,
        failed: ol.tally.submitted - ol.tally.completed,
        correct: false,
        ..Report::default()
    };
    if let Err(msg) = ol.tally.check() {
        eprintln!("check failed: {msg}");
        return Ok(report);
    }
    if let Some(msg) = ol.recs.iter().find_map(|r| r.mismatch.clone()) {
        eprintln!("check failed: {msg}");
        return Ok(report);
    }
    let lag_p99 = quantile(&ol.lags_ms, 0.99);
    if lag_p99 > MAX_GENERATOR_LAG_MS {
        eprintln!(
            "invalid run: the generator fell behind (p99 lag {lag_p99:.2} ms > {MAX_GENERATOR_LAG_MS} ms)"
        );
        return Ok(report);
    }
    report.correct = true;
    let lat: Vec<f64> = ol.recs.iter().map(|r| ms(r.end - r.due)).collect();
    let n = ol.tally.submitted.max(1) as f64;
    report.metrics = if trace_on {
        let t = Traced::collect(ol.recs.iter().filter(|r| r.traced).count());
        let lib = &ol.lib;
        let mean_dur = |name: &str| {
            t.totals
                .get(name)
                .map_or(0.0, |t| t.total_ns as f64 / 1e6 / t.count.max(1) as f64)
        };
        let mut m = t.base_metrics(trace_overhead(&ol.recs));
        let untraced: Vec<f64> = ol
            .recs
            .iter()
            .filter(|r| !r.traced)
            .map(|r| ms(r.end - r.due))
            .collect();
        m.insert("latency_p90_ms", quantile(&untraced, 0.9));
        m.insert("formats.text_parse_ms", t.self_ms("formats.text_parse"));
        m.insert("domains.climate_job_ms", mean_dur("domains.climate_job"));
        m.insert(
            "domains.materials_job_ms",
            mean_dur("domains.materials_job"),
        );
        m.insert("domains.bio_job_ms", mean_dur("domains.bio_job"));
        m.insert("domains.fusion_job_ms", mean_dur("domains.fusion_job"));
        let waits: Vec<f64> = ol.recs.iter().map(|r| ms(r.start - r.submitted)).collect();
        m.insert("sched.queue_wait_p50_ms", quantile(&waits, 0.5));
        m.insert("sched.queue_wait_p90_ms", quantile(&waits, 0.9));
        let runs: Vec<f64> = ol.recs.iter().map(|r| ms(r.end - r.start)).collect();
        m.insert(
            "sched.run_ms",
            runs.iter().sum::<f64>() / runs.len().max(1) as f64,
        );
        m.insert("sched.rejected", ol.tally.rejected as f64 / n);
        m.insert("sched.shed", ol.tally.shed as f64 / n);
        let (hits, misses) = (lib.get("cache.hits"), lib.get("cache.misses"));
        m.insert(
            "cache.hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        );
        m.insert("cache.evictions", lib.get("cache.evictions") / n);
        m.insert("cache.quarantined", lib.get("cache.quarantined") / n);
        m.insert("cache.get_ms", lib.get("cache.get.ns.sum") / 1e6 / n);
        m.insert("cache.put_ms", lib.get("cache.put.ns.sum") / 1e6 / n);
        m.insert(
            "core.executor.shortcircuits",
            lib.get("executor.shortcircuits") / n,
        );
        m.insert(
            "core.executor.stall_ms",
            lib.get("executor.stall_ns.sum") / 1e6 / n,
        );
        crate::shard_write_metrics(&mut m, lib, &BTreeMap::new(), n);
        m.insert(
            "provenance.records",
            ol.recs.iter().map(|r| r.ledger_records as f64).sum::<f64>()
                / ol.recs.len().max(1) as f64,
        );
        m.insert(
            "telemetry.library_spans",
            lib.get("bench.library_spans") / n,
        );
        m.insert("bench.generator_lag_ms", lag_p99);
        m
    } else {
        let bytes: u64 = ol.recs.iter().map(|r| r.bytes).sum();
        let within = lat.iter().filter(|&&l| l <= limit_ms()).count();
        let mut m = BTreeMap::new();
        m.insert("setup_s", setup_s);
        m.insert("throughput_mb_s", bytes as f64 / 1e6 / ol.wall_s);
        m.insert("latency_p50_ms", quantile(&lat, 0.5));
        m.insert("completed_frac", ol.tally.completed as f64 / n);
        m.insert("peak_rss_mb", ol.peak_rss_mb);
        m.insert("goodput_ops_s", within as f64 / ol.wall_s);
        m
    };
    Ok(report)
}

/// Traced vs untraced job run time, by medians per job kind, averaged
/// over the kinds present in both halves.
fn trace_overhead(recs: &[JobRec]) -> f64 {
    let mut fracs = Vec::new();
    for kind in KINDS {
        let med = |traced: bool| {
            let v: Vec<f64> = recs
                .iter()
                .filter(|r| r.kind == kind && r.traced == traced)
                .map(|r| ms(r.end - r.start))
                .collect();
            quantile(&v, 0.5)
        };
        let (t, p) = (med(true), med(false));
        if t > 0.0 && p > 0.0 {
            fracs.push(t / p - 1.0);
        }
    }
    fracs.iter().sum::<f64>() / fracs.len().max(1) as f64
}

/// Calibration (not a benchmark workload). Prints the mean time of
/// each job kind, run one at a time over the schedule's own inputs
/// (climate jobs against the primed cache, in schedule order), which
/// [`JOB_MS`] freezes, and the size of each other kind that would match
/// the climate job's mean time, which [`full`] freezes. Then prints the
/// capacity: completed jobs per second when `jobs` arrivals are all due
/// at once with the queue and shedding limits lifted, which
/// [`RATE_PER_S`] is fixed from.
pub fn calibrate(seed: u64, per_kind: usize, jobs: usize) -> Result<(), String> {
    let sz = full();
    let mut f = Facility::setup(seed, &sz, 1000.0, 100.0)?;
    let ctx = JobContext {
        exec: drai_core::ExecutorConfig::for_host(),
        cancel: drai_core::CancelToken::new(),
    };
    let mut means = Vec::new();
    for kind in KINDS {
        let mut times = Vec::new();
        for a in f.arrivals.iter().filter(|a| a.kind == kind).take(per_kind) {
            let start = Instant::now();
            f.inputs.work(a, &ctx).map_err(|e| format!("{e:?}"))?;
            times.push(ms(start.elapsed()));
        }
        means.push(times.iter().sum::<f64>() / times.len().max(1) as f64);
    }
    let climate_ms = means[Kind::Climate as usize];
    for (kind, mean) in KINDS.into_iter().zip(&means) {
        let size = match kind {
            Kind::Climate => 1,
            Kind::Materials => sz.materials_members,
            Kind::Bio => sz.bio_patients,
            Kind::Fusion => sz.fusion_shots,
        };
        eprintln!(
            "{:<10} size {size:>4}: mean job {mean:8.3} ms (frozen {:.3} ms); size for {climate_ms:.3} ms: {:.1}",
            kind.label(),
            JOB_MS[kind as usize],
            size as f64 * climate_ms / mean
        );
    }
    f.arrivals.truncate(jobs);
    for a in &mut f.arrivals {
        a.due = Duration::ZERO;
    }
    let ol = open_loop(&f, false, false, true);
    ol.tally.check()?;
    eprintln!(
        "capacity: {:.1} jobs/s",
        ol.tally.completed as f64 / ol.wall_s
    );
    Ok(())
}

/// The accounting check must catch a submission whose outcome is lost,
/// and the digest check a job whose output differs from the first run.
pub fn self_test() -> Result<(), String> {
    let tiny = Sizes {
        pool: 3,
        grid: (12, 24),
        timesteps: 4,
        materials_variants: 1,
        materials_members: 1,
        bio_variants: 1,
        bio_patients: 8,
        fusion_variants: 1,
        fusion_shots: 2,
    };
    let f = Facility::setup(7, &tiny, 400.0, 0.05)?;
    let clean = open_loop(&f, false, false, false);
    clean
        .tally
        .check()
        .map_err(|e| format!("clean facility run rejected: {e}"))?;
    if let Some(msg) = clean.recs.iter().find_map(|r| r.mismatch.clone()) {
        return Err(format!("clean facility run rejected: {msg}"));
    }
    let lossy = open_loop(&f, false, true, false);
    if lossy.tally.check().is_ok() {
        return Err("facility accounting passed with a submission unaccounted for".into());
    }
    // The priming job recorded climate member 0; a different digest for
    // it must be rejected.
    let first = f
        .inputs
        .seen
        .lock()
        .expect("digest table lock is never poisoned")[&(Kind::Climate, 0)];
    if f.inputs.check(Kind::Climate, &[(0, !first)]).is_none() {
        return Err("facility digest check passed a differing output".into());
    }
    Ok(())
}
