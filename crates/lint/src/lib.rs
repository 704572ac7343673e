//! # drai-lint
//!
//! Workspace-native static analysis for the DRAI codebase: a
//! dependency-free (std-only) rule engine over a lightweight Rust lexer
//! that checks project-specific invariants no generic lint can express.
//! It runs offline — matching the vendored-shim philosophy — and gates
//! CI: `drai-lint` exits nonzero on any finding.
//!
//! ## Rules
//!
//! | rule | invariant |
//! |------|-----------|
//! | `no-panic-in-lib` | no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` (or indexing-adjacent `assert!`) in library code of `drai-core`, `drai-io`, `drai-formats`, `drai-transform`, `drai-domains` |
//! | `telemetry-names` | metric-name literals match the dotted grammar and the `METRIC_FAMILIES` registry in `drai-telemetry`, and every registered family is emitted somewhere |
//! | `unsafe-audit` | every `unsafe` token carries an adjacent `// SAFETY:` comment |
//! | `shim-parity` | shim crates import only `std` (no cross-shim or workspace deps), keeping them deletable |
//! | `error-context` | `IoError` construction in `drai-io` carries a path/shard/record context |
//! | `no-wallclock` | `Instant::now`/`SystemTime::now` only in `drai-telemetry` and the retry/cache clock seams (deterministic replay) |
//! | `lock-order` | the workspace-wide lock-acquisition-order graph is acyclic (no ABBA deadlocks, no same-lock reacquisition) |
//! | `lock-across-blocking` | no live lock guard spans a blocking channel `send`/`recv`, `thread::join`, or backoff sleep |
//! | `layering` | crate dependencies (manifest and `use`-level) point strictly down the architectural layer stack |
//! | `gauge-balance` | every gauge increment has a matching decrement, `set`, or RAII scope in the same crate |
//!
//! The first six are single-file lexical rules (v1); the last four are
//! v2 concurrency/architecture rules built on the structural model in
//! [`model`] (lexer → model → rules).
//!
//! ## Suppressions
//!
//! A finding can be silenced with a comment on the same line or the
//! line above — the reason is mandatory:
//!
//! ```text
//! // drai-lint: allow(no-panic-in-lib) reason="length proven by the split above"
//! ```
//!
//! Malformed or unused suppressions are themselves findings (rule
//! `suppression`), so the allow-list can only shrink through honest
//! means.

#![forbid(unsafe_code)]

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod lexer;
pub mod model;
pub mod rules;
pub mod suppress;

use lexer::LexFile;
use suppress::Suppression;

/// What kind of code a file holds, derived from its workspace path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library code under some `src/` (excluding `src/bin/`).
    Lib,
    /// Binary code under a `src/bin/`.
    Bin,
    /// Integration tests under a `tests/` directory.
    Tests,
    /// Example programs under an `examples/` directory.
    Examples,
    /// Criterion benchmarks under a `benches/` directory.
    Bench,
    /// Vendored shim code under `shims/`.
    Shim,
}

/// One lexed source file plus its workspace-level classification.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// Crate the file belongs to (`core`, `io`, ..., `drai` for the
    /// root package, shim name for shims).
    pub crate_name: String,
    /// Coarse classification driving rule scoping.
    pub class: FileClass,
    /// Lexed contents.
    pub lex: LexFile,
}

/// One metric family parsed from the `METRIC_FAMILIES` registry.
#[derive(Debug, Clone)]
pub struct MetricFamily {
    /// Dotted pattern; `*` segments match one or more name segments.
    pub pattern: String,
    /// Line of the literal inside the telemetry crate.
    pub line: u32,
}

/// Everything the rules need to see at once.
#[derive(Debug)]
pub struct Workspace {
    /// Workspace root directory.
    pub root: PathBuf,
    /// All lexed `.rs` files.
    pub files: Vec<SourceFile>,
    /// Parsed metric-family registry (empty if the telemetry crate is
    /// absent, in which case `telemetry-names` reports that instead).
    pub metric_families: Vec<MetricFamily>,
    /// `(relative path, contents)` of every `shims/*/Cargo.toml`.
    pub shim_manifests: Vec<(String, String)>,
    /// `(relative path, contents)` of the root and every
    /// `crates/*/Cargo.toml` (for the `layering` rule).
    pub crate_manifests: Vec<(String, String)>,
}

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier (e.g. `no-panic-in-lib`).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

/// A finding silenced by a suppression comment, kept for reporting.
#[derive(Debug, Clone)]
pub struct SuppressedFinding {
    /// The original finding.
    pub finding: Finding,
    /// The mandatory reason from the suppression comment.
    pub reason: String,
}

/// Outcome of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Active findings (exit-nonzero material).
    pub findings: Vec<Finding>,
    /// Findings silenced by a valid suppression comment.
    pub suppressed: Vec<SuppressedFinding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when no active findings remain.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Render as a machine-readable JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
                json_escape(f.rule),
                json_escape(&f.file),
                f.line,
                json_escape(&f.message)
            ));
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"suppressed\": [");
        for (i, s) in self.suppressed.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"reason\": \"{}\"}}",
                json_escape(s.finding.rule),
                json_escape(&s.finding.file),
                s.finding.line,
                json_escape(&s.reason)
            ));
        }
        if !self.suppressed.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(&format!(
            "],\n  \"summary\": {{\"files_scanned\": {}, \"findings\": {}, \"suppressed\": {}}}\n}}\n",
            self.files_scanned,
            self.findings.len(),
            self.suppressed.len()
        ));
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Directories scanned under the workspace root.
const SCAN_DIRS: &[&str] = &["crates", "src", "shims", "tests", "examples"];

/// Classify a workspace-relative path.
pub fn classify(rel: &str) -> (FileClass, String) {
    let crate_name = if let Some(rest) = rel.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or("").to_string()
    } else if let Some(rest) = rel.strip_prefix("shims/") {
        rest.split('/').next().unwrap_or("").to_string()
    } else {
        "drai".to_string()
    };
    let class = if rel.starts_with("shims/") {
        FileClass::Shim
    } else if rel.starts_with("tests/") || rel.contains("/tests/") {
        FileClass::Tests
    } else if rel.starts_with("examples/") || rel.contains("/examples/") {
        FileClass::Examples
    } else if rel.starts_with("benches/") || rel.contains("/benches/") {
        FileClass::Bench
    } else if rel.contains("src/bin/") {
        FileClass::Bin
    } else {
        FileClass::Lib
    };
    (class, crate_name)
}

/// Build a [`SourceFile`] from in-memory contents (used by rule
/// fixtures and by [`lint_workspace`]).
pub fn source_file(rel: &str, contents: &str) -> SourceFile {
    let (class, crate_name) = classify(rel);
    SourceFile {
        rel: rel.to_string(),
        crate_name,
        class,
        lex: lexer::lex(contents),
    }
}

/// Recursively collect `.rs` files under `dir`, skipping `target`.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" && name != ".git" {
                walk(&path, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Load and lex every source file reachable from `root`.
pub fn load_workspace(root: &Path) -> io::Result<Workspace> {
    let mut paths = Vec::new();
    for dir in SCAN_DIRS {
        let d = root.join(dir);
        if d.is_dir() {
            walk(&d, &mut paths)?;
        }
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let contents = fs::read_to_string(path)?;
        files.push(source_file(&rel, &contents));
    }

    let metric_families = files
        .iter()
        .find(|f| f.rel == rules::telemetry_names::REGISTRY_FILE)
        .map(|f| rules::telemetry_names::parse_families(&f.lex))
        .unwrap_or_default();

    let mut shim_manifests = Vec::new();
    let shims = root.join("shims");
    if shims.is_dir() {
        for entry in fs::read_dir(&shims)? {
            let entry = entry?;
            let manifest = entry.path().join("Cargo.toml");
            if manifest.is_file() {
                let rel = manifest
                    .strip_prefix(root)
                    .unwrap_or(&manifest)
                    .to_string_lossy()
                    .replace('\\', "/");
                shim_manifests.push((rel, fs::read_to_string(&manifest)?));
            }
        }
    }
    shim_manifests.sort();

    let mut crate_manifests = Vec::new();
    let root_manifest = root.join("Cargo.toml");
    if root_manifest.is_file() {
        crate_manifests.push((
            "Cargo.toml".to_string(),
            fs::read_to_string(&root_manifest)?,
        ));
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let entry = entry?;
            let manifest = entry.path().join("Cargo.toml");
            if manifest.is_file() {
                let rel = manifest
                    .strip_prefix(root)
                    .unwrap_or(&manifest)
                    .to_string_lossy()
                    .replace('\\', "/");
                crate_manifests.push((rel, fs::read_to_string(&manifest)?));
            }
        }
    }
    crate_manifests.sort();

    Ok(Workspace {
        root: root.to_path_buf(),
        files,
        metric_families,
        shim_manifests,
        crate_manifests,
    })
}

/// Run every rule over a loaded workspace and apply suppressions.
pub fn lint(ws: &Workspace) -> Report {
    let mut raw: Vec<Finding> = Vec::new();
    for file in &ws.files {
        rules::no_panic::check_file(file, &mut raw);
        rules::telemetry_names::check_file(file, ws, &mut raw);
        rules::unsafe_audit::check_file(file, &mut raw);
        rules::shim_parity::check_file(file, &mut raw);
        rules::error_context::check_file(file, &mut raw);
        rules::no_wallclock::check_file(file, &mut raw);
        rules::lock_blocking::check_file(file, &mut raw);
    }
    rules::telemetry_names::check_workspace(ws, &mut raw);
    rules::shim_parity::check_manifests(ws, &mut raw);
    rules::lock_order::check_workspace(ws, &mut raw);
    rules::layering::check_workspace(ws, &mut raw);
    rules::gauge_balance::check_workspace(ws, &mut raw);

    // Apply suppressions per file.
    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    for file in &ws.files {
        let (mut sups, malformed) = suppress::collect(&file.lex);
        for m in malformed {
            findings.push(Finding {
                rule: suppress::RULE,
                file: file.rel.clone(),
                line: m.line,
                message: m.message,
            });
        }
        let (mut file_findings, rest): (Vec<Finding>, Vec<Finding>) =
            raw.drain(..).partition(|f| f.file == file.rel);
        raw = rest;
        file_findings.sort_by_key(|f| f.line);
        for f in file_findings {
            match sups.iter_mut().find(|s| s.covers(f.rule, f.line)) {
                Some(s) => {
                    s.used = true;
                    suppressed.push(SuppressedFinding {
                        reason: s.reason.clone(),
                        finding: f,
                    });
                }
                None => findings.push(f),
            }
        }
        for s in sups.iter().filter(|s| !s.used) {
            findings.push(unused_suppression(file, s));
        }
    }
    // Findings for files outside the scan set (shouldn't happen, but
    // never drop a finding silently).
    findings.append(&mut raw);
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));

    Report {
        findings,
        suppressed,
        files_scanned: ws.files.len(),
    }
}

fn unused_suppression(file: &SourceFile, s: &Suppression) -> Finding {
    Finding {
        rule: suppress::RULE,
        file: file.rel.clone(),
        line: s.line,
        message: format!(
            "unused suppression for rule `{}` — nothing to allow here; delete it",
            s.rule
        ),
    }
}

/// Load `root` and lint it in one call.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    Ok(lint(&load_workspace(root)?))
}

/// Names of all rules, for `--list-rules` and docs.
pub const RULE_NAMES: &[&str] = &[
    rules::no_panic::RULE,
    rules::telemetry_names::RULE,
    rules::unsafe_audit::RULE,
    rules::shim_parity::RULE,
    rules::error_context::RULE,
    rules::no_wallclock::RULE,
    rules::lock_order::RULE,
    rules::lock_blocking::RULE,
    rules::layering::RULE,
    rules::gauge_balance::RULE,
    suppress::RULE,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(
            classify("crates/io/src/shard.rs"),
            (FileClass::Lib, "io".to_string())
        );
        assert_eq!(
            classify("crates/bench/src/bin/drai-bench.rs"),
            (FileClass::Bin, "bench".to_string())
        );
        assert_eq!(
            classify("crates/lint/tests/workspace_clean.rs"),
            (FileClass::Tests, "lint".to_string())
        );
        assert_eq!(
            classify("shims/rand/src/lib.rs"),
            (FileClass::Shim, "rand".to_string())
        );
        assert_eq!(
            classify("crates/bench/benches/pipeline.rs"),
            (FileClass::Bench, "bench".to_string())
        );
        assert_eq!(
            classify("benches/top_level.rs"),
            (FileClass::Bench, "drai".to_string())
        );
        assert_eq!(
            classify("tests/end_to_end.rs"),
            (FileClass::Tests, "drai".to_string())
        );
        assert_eq!(
            classify("examples/quickstart.rs"),
            (FileClass::Examples, "drai".to_string())
        );
        assert_eq!(classify("src/lib.rs"), (FileClass::Lib, "drai".to_string()));
        assert_eq!(
            classify("src/bin/drai.rs"),
            (FileClass::Bin, "drai".to_string())
        );
    }

    #[test]
    fn json_report_escapes() {
        let report = Report {
            findings: vec![Finding {
                rule: "no-panic-in-lib",
                file: "a\\b.rs".into(),
                line: 3,
                message: "said \"no\"".into(),
            }],
            suppressed: vec![],
            files_scanned: 1,
        };
        let json = report.to_json();
        assert!(json.contains("a\\\\b.rs"));
        assert!(json.contains("said \\\"no\\\""));
        assert!(json.contains("\"files_scanned\": 1"));
    }
}
