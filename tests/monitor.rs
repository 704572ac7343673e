//! Live-monitor acceptance tests (ISSUE 9 gate):
//!
//! * seeded bottleneck naming — one stage of a four-stage streaming
//!   batch sleeps on every item (which one is chosen by the CI
//!   `FAULT_SEED` sweep) and the post-run diagnosis must name exactly
//!   that stage, with the JSONL artifact round-tripping byte-identically;
//! * sampler determinism — two registries driven through the same
//!   mutation sequence under [`ManualClock`]s produce bitwise-identical
//!   artifacts;
//! * ring-buffer wraparound — a series over capacity keeps exactly the
//!   last `capacity` points, oldest-first, ticks strictly increasing.

use drai::core::executor::{executor_health_spec, ExecutorConfig, StreamingBatchExt};
use drai::core::pipeline::{Pipeline, StageCounters};
use drai::core::ProcessingStage as S;
use drai::io::fault::FaultConfig;
use drai::telemetry::monitor::{
    ManualClock, MonitorReport, ProgressTarget, Sampler, SamplerConfig, WallMonitorClock,
};
use drai::telemetry::{Registry, TraceContext};
use std::sync::Arc;
use std::time::Duration;

/// The four stages, indexed by `FAULT_SEED % 4` — each CI seed
/// exercises a different injected bottleneck.
const STAGES: [(&str, S); 4] = [
    ("validate", S::Ingest),
    ("regrid", S::Preprocess),
    ("normalize", S::Transform),
    ("shard", S::Shard),
];

/// A four-stage pipeline in which `slow` sleeps 12 ms per item and
/// every other stage passes the item straight on.
fn lagged_pipeline(slow: &'static str) -> Pipeline<u64> {
    STAGES
        .iter()
        .fold(Pipeline::builder("lagged"), |b, &(name, kind)| {
            b.stage(name, kind, move |x: u64, c: &mut StageCounters| {
                if name == slow {
                    std::thread::sleep(Duration::from_millis(12));
                }
                c.records = 1;
                Ok(x + 1)
            })
        })
        .build()
}

/// The acceptance scenario: a streaming batch with one artificially
/// slowed stage, sampled live; the diagnosis must name the slowed stage
/// as the bottleneck and the artifact must round-trip.
#[test]
fn slowed_stage_is_named_by_diagnosis_and_artifact_round_trips() {
    let seed = FaultConfig::seed_from_env(1);
    let slow = STAGES[seed as usize % STAGES.len()].0;
    let members = 6usize;

    let registry = Registry::new();
    let scope = TraceContext::root(&registry).attach();
    let exec = ExecutorConfig::default();
    let pipeline = lagged_pipeline(slow);
    let items: Vec<u64> = (0..members as u64).collect();

    let sampler = Sampler::new(
        &registry,
        Arc::new(WallMonitorClock::new()),
        SamplerConfig {
            capacity: 512,
            progress: Some(ProgressTarget {
                counter: "executor.items_completed".to_string(),
                total: members as u64,
            }),
        },
        executor_health_spec(&exec, STAGES.len()),
    );
    let handle = sampler.start(Duration::from_millis(1));
    let (outputs, _stages) = pipeline.run_batch_streaming(items, &exec).unwrap();
    assert_eq!(outputs, (4..4 + members as u64).collect::<Vec<_>>());
    let report = handle.stop();
    drop(scope);

    // The injected 12 ms/item lag dominates every other stage, so the
    // slowed stage must win the busy-integral vote.
    let diag = report.diagnose();
    let bottleneck = diag
        .bottleneck
        .clone()
        .expect("a bottleneck stage is named");
    assert_eq!(
        (bottleneck.pipeline.as_str(), bottleneck.stage.as_str()),
        ("lagged", slow),
        "seed {seed}: diagnosis named the wrong stage\n{}",
        diag.render()
    );
    assert!(diag.observed_ticks >= 2, "sampler barely ticked");

    // Executor series were captured, and live progress reached total.
    assert!(report
        .series
        .iter()
        .any(|s| s.name.starts_with("executor.")));
    let done = report
        .series_named("executor.items_completed")
        .expect("live progress counter sampled");
    assert_eq!(done.latest().unwrap().value, members as f64);
    assert!(report.series_named("executor.queue_depth").is_some());

    // The JSONL artifact round-trips byte-identically.
    let text = report.to_jsonl();
    let parsed = MonitorReport::parse_jsonl(&text).unwrap();
    assert_eq!(parsed.to_jsonl(), text);
    assert_eq!(parsed.ticks, report.ticks);
    assert_eq!(parsed.series.len(), report.series.len());
}

/// Drive one registry through a fixed mutation sequence under a
/// [`ManualClock`], sampling after each step; returns the artifact.
fn scripted_run() -> String {
    let registry = Registry::new();
    let clock = Arc::new(ManualClock::new());
    let sampler = Sampler::new(
        &registry,
        clock.clone(),
        SamplerConfig {
            capacity: 16,
            progress: None,
        },
        drai::telemetry::monitor::HealthSpec::new(),
    );
    let items = registry.counter("executor.items_completed");
    let depth = registry.gauge("executor.queue_depth");
    let lat = registry.histogram("stage.batch.latency_ns");
    for step in 0..12u64 {
        items.add(step % 3);
        depth.set((step % 5) as i64);
        lat.record(step * 100);
        clock.advance(Duration::from_millis(7));
        sampler.tick();
    }
    sampler.report().to_jsonl()
}

/// Injectable clock ⇒ the artifact is a pure function of the mutation
/// sequence: two independent runs are bitwise identical.
#[test]
fn sampler_is_deterministic_under_manual_clock() {
    let a = scripted_run();
    let b = scripted_run();
    assert_eq!(a, b);
    // And it parses back to the same artifact.
    let parsed = MonitorReport::parse_jsonl(&a).unwrap();
    assert_eq!(parsed.to_jsonl(), a);
}

/// Over-capacity series drop oldest points: exactly `capacity` survive,
/// oldest-first, with strictly increasing ticks ending at the latest.
#[test]
fn ring_buffer_keeps_only_the_last_capacity_points() {
    let registry = Registry::new();
    let clock = Arc::new(ManualClock::new());
    let sampler = Sampler::new(
        &registry,
        clock.clone(),
        SamplerConfig {
            capacity: 4,
            progress: None,
        },
        drai::telemetry::monitor::HealthSpec::new(),
    );
    let c = registry.counter("monitor.samples.test_feed");
    for _ in 0..10 {
        c.incr();
        clock.advance(Duration::from_millis(1));
        sampler.tick();
    }
    let report = sampler.report();
    let series = report
        .series_named("monitor.samples.test_feed")
        .expect("fed counter has a series");
    assert_eq!(series.len(), 4);
    assert_eq!(series.capacity(), 4);
    let ticks: Vec<u64> = series.iter().map(|p| p.tick).collect();
    assert!(
        ticks.windows(2).all(|w| w[0] < w[1]),
        "ticks not increasing"
    );
    assert_eq!(*ticks.last().unwrap(), 10);
    // After wraparound every surviving counter point still carries the
    // correct cumulative value and per-tick delta.
    for p in series.iter() {
        assert_eq!(p.value, p.tick as f64);
        assert_eq!(p.delta, 1.0);
    }
}
