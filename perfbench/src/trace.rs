//! The benchmark's spans, recorded with `drai_telemetry`'s span API
//! into a registry the benchmark owns.
//!
//! Spans are opened only by benchmark code, around its calls into the
//! library crates; no library code is instrumented. The bench registry
//! is kept apart from the per-operation registry the library records
//! into, so a layer's self time (`drai_telemetry::trace`'s
//! `aggregate_by_name`) counts only bench spans.
//!
//! Recording is switched per thread ([`set_enabled`]): the traced run
//! alternates traced and untraced operations on the same thread, which
//! is how `bench.trace_overhead_frac` is measured.

use drai_telemetry::trace::{aggregate_by_name, build_forest, to_chrome_json, NameAggregate};
use drai_telemetry::{Registry, TraceContext};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::OnceLock;

fn registry() -> &'static Registry {
    static BENCH: OnceLock<Registry> = OnceLock::new();
    BENCH.get_or_init(Registry::new)
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    /// Open bench spans on this thread. A span's context is attached
    /// only while its child span is created, never while the library
    /// runs, so library code keeps recording into its own registry.
    static OPEN: RefCell<Vec<TraceContext>> = const { RefCell::new(Vec::new()) };
}

/// Turn recording on or off for spans opened on this thread.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// Run `f` inside a span named `name` (recorded only when enabled on
/// this thread).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !ENABLED.with(Cell::get) {
        return f();
    }
    let span = {
        let _parent = OPEN.with(|o| o.borrow().last().map(TraceContext::attach));
        registry().span(name)
    };
    OPEN.with(|o| o.borrow_mut().push(span.context()));
    let out = f();
    OPEN.with(|o| o.borrow_mut().pop());
    drop(span);
    out
}

/// Per-name count, total and self time of every span recorded so far.
pub fn aggregates() -> BTreeMap<String, NameAggregate> {
    aggregate_by_name(&build_forest(&registry().snapshot().spans))
}

/// Share of the time inside `root` spans that named child spans
/// account for: 1 means every nanosecond of every operation is
/// attributed to a layer, 0 means none is.
pub fn coverage(agg: &BTreeMap<String, NameAggregate>, root: &str) -> f64 {
    match agg.get(root) {
        Some(a) if a.total_ns > 0 => 1.0 - a.self_ns as f64 / a.total_ns as f64,
        _ => 0.0,
    }
}

/// Write every recorded span as a Chrome trace-event JSON file (open it
/// in Perfetto or `chrome://tracing`).
pub fn write_chrome(path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, to_chrome_json(&registry().snapshot().spans))
}
