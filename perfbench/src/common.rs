//! Shared measurement plumbing: the closed-loop driver, statistics,
//! output digests, the resident-set sampler and the per-operation
//! library registry.

use drai_io::sink::{MemSink, StorageSink};
use drai_telemetry::trace::NameAggregate;
use drai_telemetry::{ContextGuard, Registry, TraceContext};
use std::collections::BTreeMap;
use std::hash::Hasher;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A closed-loop run keeps going past `--seconds` until it has at least
/// this many operations, so the p90 has ten samples beyond it.
pub const MIN_OPS: usize = 100;

/// Hard stop for a closed loop, as a multiple of `--seconds`.
const MAX_OVERRUN: f64 = 4.0;

/// Why an operation did not produce a usable sample.
#[derive(Debug)]
pub enum OpError {
    /// The library returned an error: the operation counts as failed.
    Failed(String),
    /// The output check rejected the operation's output.
    Incorrect(String),
}

/// Output checks return `Result<(), String>`; `?` on one makes the
/// operation incorrect.
impl From<String> for OpError {
    fn from(s: String) -> Self {
        OpError::Incorrect(s)
    }
}

/// Map any library error into [`OpError::Failed`].
pub fn failed<E: std::fmt::Display>(e: E) -> OpError {
    OpError::Failed(e.to_string())
}

/// One measured operation: its latency and the input bytes it processed.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    pub ns: u64,
    pub bytes: u64,
}

/// Everything a workload hands back to `main` for printing.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub metrics: BTreeMap<&'static str, f64>,
}

/// Result of [`closed_loop`].
pub struct LoopResult {
    /// Samples of untraced operations.
    pub plain: Vec<OpSample>,
    /// Samples of traced operations (only in a traced run).
    pub traced: Vec<OpSample>,
    pub attempted: u64,
    pub failed: u64,
    pub peak_rss_mb: f64,
    /// First check failure, if any (the loop stops at it).
    pub incorrect: Option<String>,
}

/// Run `op` back to back for `seconds` (and at least [`MIN_OPS`]
/// times). In a traced run every other operation is traced, so traced
/// and untraced operations interleave under the same conditions.
pub fn closed_loop(
    seconds: f64,
    trace: bool,
    mut op: impl FnMut(bool) -> Result<OpSample, OpError>,
) -> LoopResult {
    let rss = RssSampler::start();
    let begin = Instant::now();
    let mut res = LoopResult {
        plain: Vec::new(),
        traced: Vec::new(),
        attempted: 0,
        failed: 0,
        peak_rss_mb: 0.0,
        incorrect: None,
    };
    let mut traced = false;
    loop {
        let elapsed = begin.elapsed().as_secs_f64();
        let done = res.attempted as usize;
        if (elapsed >= seconds && done >= MIN_OPS) || elapsed >= seconds * MAX_OVERRUN {
            break;
        }
        traced = trace && !traced;
        crate::trace::set_enabled(traced);
        res.attempted += 1;
        match op(traced) {
            Ok(s) if traced => res.traced.push(s),
            Ok(s) => res.plain.push(s),
            Err(OpError::Failed(msg)) => {
                eprintln!("operation failed: {msg}");
                res.failed += 1;
            }
            Err(OpError::Incorrect(msg)) => {
                res.incorrect = Some(msg);
                break;
            }
        }
    }
    crate::trace::set_enabled(false);
    res.peak_rss_mb = rss.stop();
    res
}

/// Time `f` with the bench's own clock, inside an `op` span.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = Instant::now();
    let out = crate::trace::span("op", f);
    (out, start.elapsed().as_nanos() as u64)
}

/// The end-to-end metrics of a closed-loop workload. A closed loop has
/// no deadline, so its `goodput_ops_s` is every completed operation per
/// second of operation time.
fn closed_loop_metrics(res: &LoopResult, setup_s: f64) -> BTreeMap<&'static str, f64> {
    let samples = &res.plain;
    let lat: Vec<f64> = samples.iter().map(|s| s.ns as f64 / 1e6).collect();
    let busy_s: f64 = samples.iter().map(|s| s.ns as f64 / 1e9).sum();
    let bytes: u64 = samples.iter().map(|s| s.bytes).sum();
    let mut m = BTreeMap::new();
    m.insert("setup_s", setup_s);
    m.insert("throughput_mb_s", bytes as f64 / 1e6 / busy_s.max(1e-9));
    m.insert("latency_p50_ms", quantile(&lat, 0.5));
    m.insert(
        "completed_frac",
        (res.attempted - res.failed) as f64 / res.attempted.max(1) as f64,
    );
    m.insert("peak_rss_mb", res.peak_rss_mb);
    m.insert("goodput_ops_s", samples.len() as f64 / busy_s.max(1e-9));
    m
}

/// `bench.trace_overhead_frac`: how much slower a traced operation is
/// than an untraced one, by medians (0.02 = 2% slower).
fn trace_overhead(res: &LoopResult) -> f64 {
    let med = |v: &[OpSample]| quantile(&v.iter().map(|s| s.ns as f64).collect::<Vec<_>>(), 0.5);
    let (t, p) = (med(&res.traced), med(&res.plain));
    if p > 0.0 {
        t / p - 1.0
    } else {
        0.0
    }
}

/// The spans of a traced run, summed per name, and the number of
/// traced operations the layer numbers average over.
pub struct Traced {
    pub totals: BTreeMap<String, NameAggregate>,
    pub ops: f64,
}

impl Traced {
    pub fn collect(ops: usize) -> Traced {
        Traced {
            totals: crate::trace::aggregates(),
            ops: ops.max(1) as f64,
        }
    }

    /// Self time of the spans named `name`, in ms per operation.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |t| t.self_ns as f64) / 1e6 / self.ops
    }

    /// Wall time of the spans named `name`, in ms per operation.
    pub fn wall_ms(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |t| t.total_ns as f64) / 1e6 / self.ops
    }

    /// Every per-layer metric at 0, with the bench's own filled in:
    /// coverage of the `op` spans, the given trace overhead and the
    /// traced operation count.
    pub fn base_metrics(&self, overhead: f64) -> BTreeMap<&'static str, f64> {
        let mut m = crate::layer_defaults();
        m.insert(
            "bench.span_coverage",
            crate::trace::coverage(&self.totals, "op"),
        );
        m.insert("bench.trace_overhead_frac", overhead);
        m.insert("bench.traced_ops", self.ops);
        m
    }
}

/// The report of a closed-loop run: end-to-end metrics from its
/// untraced operations, or, in a traced run, the per-layer metrics
/// `layers` fills in from the spans.
pub fn closed_loop_report(
    res: &LoopResult,
    trace_on: bool,
    setup_s: f64,
    layers: impl FnOnce(&Traced, &mut BTreeMap<&'static str, f64>),
) -> Report {
    let mut report = Report {
        attempted: res.attempted,
        failed: res.failed,
        correct: res.incorrect.is_none(),
        ..Report::default()
    };
    if let Some(msg) = &res.incorrect {
        eprintln!("check failed: {msg}");
        return report;
    }
    report.metrics = if trace_on {
        let t = Traced::collect(res.traced.len());
        let mut m = t.base_metrics(trace_overhead(res));
        let lat: Vec<f64> = res.plain.iter().map(|s| s.ns as f64 / 1e6).collect();
        m.insert("latency_p90_ms", quantile(&lat, 0.9));
        layers(&t, &mut m);
        m
    } else {
        closed_loop_metrics(res, setup_s)
    };
    report
}

/// Linear-interpolated quantile (`q` in [0, 1]); 0 for an empty set.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of a few set-up timings.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Run `setup` `times` times and return the last result with the median
/// wall time in seconds. Earlier results are dropped before the next
/// set-up starts, so memory does not pile up.
pub fn repeated_setup<S>(
    times: usize,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, f64), String> {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let start = Instant::now();
        let s = setup()?;
        secs.push(start.elapsed().as_secs_f64());
        last = Some(s);
    }
    Ok((last.expect("at least one set-up ran"), median(&secs)))
}

/// Order-sensitive 64-bit digest of byte slices, independent of the
/// checksums the library itself uses.
#[derive(Default)]
pub struct Digest(std::collections::hash_map::DefaultHasher);

impl Digest {
    pub fn new() -> Self {
        Self::default()
    }
    pub fn add(&mut self, bytes: &[u8]) -> &mut Self {
        self.0.write_usize(bytes.len());
        self.0.write(bytes);
        self
    }
    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

pub fn digest(bytes: &[u8]) -> u64 {
    Digest::new().add(bytes).finish()
}

/// Digest of every blob in `sink` whose name starts with `prefix`,
/// names included, in name order.
pub fn sink_digest(sink: &dyn StorageSink, prefix: &str) -> Result<u64, String> {
    let mut d = Digest::new();
    for name in sink.list().map_err(|e| e.to_string())? {
        if !name.starts_with(prefix) {
            continue;
        }
        let data = sink.read_file(&name).map_err(|e| e.to_string())?;
        d.add(name.as_bytes()).add(&data);
    }
    Ok(d.finish())
}

/// Flip one bit of the first blob under `prefix` whose name ends with
/// `suffix` (self-test fault injection). Returns the blob's name.
pub fn flip_one_byte(sink: &MemSink, prefix: &str, suffix: &str) -> Result<String, String> {
    let names = sink.list().map_err(|e| e.to_string())?;
    let name = names
        .into_iter()
        .find(|n| n.starts_with(prefix) && n.ends_with(suffix))
        .ok_or_else(|| format!("no blob {prefix}*{suffix} to corrupt"))?;
    let mut data = sink.read_file(&name).map_err(|e| e.to_string())?;
    let mid = data.len() / 2;
    data[mid] ^= 0x01;
    sink.write_file(&name, &data).map_err(|e| e.to_string())?;
    Ok(name)
}

/// A fresh telemetry registry attached to this thread for the duration
/// of one operation, so library counters and spans for that operation
/// land in it (and worker threads the library spawns inherit it).
pub struct OpRegistry {
    pub registry: Registry,
    _attached: ContextGuard,
}

impl OpRegistry {
    pub fn attach() -> Self {
        let registry = Registry::new();
        let _attached = TraceContext::root(&registry).attach();
        OpRegistry {
            registry,
            _attached,
        }
    }
}

/// Library counters and histogram sums accumulated across traced
/// operations. Histogram entries are stored as `<name>.sum` and
/// `<name>.count`.
#[derive(Default)]
pub struct LibTotals(pub BTreeMap<String, f64>);

impl LibTotals {
    pub fn absorb(&mut self, reg: &Registry) {
        for (k, v) in reg.counter_values() {
            *self.0.entry(k).or_default() += v as f64;
        }
        for (k, (count, sum)) in reg.histogram_totals() {
            *self.0.entry(format!("{k}.sum")).or_default() += sum as f64;
            *self.0.entry(format!("{k}.count")).or_default() += count as f64;
        }
        *self.0.entry("bench.library_spans".into()).or_default() +=
            reg.snapshot().spans.len() as f64;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Samples this process's resident set on a background thread and
/// reports the peak, in MB, between `start` and `stop`.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    peak_kb: Arc<AtomicU64>,
    handle: Option<std::thread::JoinHandle<()>>,
}

fn rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

impl RssSampler {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let peak_kb = Arc::new(AtomicU64::new(rss_kb()));
        let handle = {
            let (stop, peak_kb) = (stop.clone(), peak_kb.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    peak_kb.fetch_max(rss_kb(), Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        };
        RssSampler {
            stop,
            peak_kb,
            handle: Some(handle),
        }
    }

    pub fn stop(mut self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            h.join().expect("RSS sampler thread does not panic");
        }
        self.peak_kb.fetch_max(rss_kb(), Ordering::Relaxed);
        self.peak_kb.load(Ordering::Relaxed) as f64 / 1024.0
    }
}
