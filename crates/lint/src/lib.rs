//! `htap-lint` — workspace determinism/concurrency static analysis.
//!
//! The engine's correctness story is bit-for-bit determinism at any worker
//! count. The classic regressions against that story are all *lexically
//! visible*: a `HashMap` iterated into query output, an undocumented
//! `unsafe`, a `panic!` on the query path, a lock-order inversion, a wall
//! clock read inside a kernel. This crate tokenizes every workspace `.rs`
//! file with a small hand-rolled lexer (no external deps — the linter builds
//! in the same offline environment as the shims it audits) and enforces the
//! five rules documented in [`rules`], with `// lint:allow(<rule>): <why>`
//! suppressions ([`allow`]) and a machine-readable unsafe inventory.
//!
//! The static lock-order graph ([`lockorder`]) is paired with a *runtime*
//! checker in `shims/parking_lot` that sees actual lock instances under
//! `cfg(debug_assertions)`; see ARCHITECTURE.md § "Static analysis &
//! concurrency checking" for how the two relate.

pub mod allow;
pub mod lexer;
pub mod lockorder;
pub mod rules;

pub use lockorder::LockEdge;
pub use rules::{Diagnostic, Rule, Scope, UnsafeSite};

use std::path::{Path, PathBuf};

/// Everything the linter learned from one file.
#[derive(Debug)]
pub struct FileReport {
    /// Diagnostics after allow-list suppression (lock-order cycles are
    /// global and reported by [`lint_files`], not here).
    pub diagnostics: Vec<Diagnostic>,
    /// Every `unsafe` occurrence, documented or not.
    pub unsafe_sites: Vec<UnsafeSite>,
    /// This file's contribution to the lock-order graph.
    pub edges: Vec<LockEdge>,
}

/// Workspace-level result: per-file findings plus global cycle analysis.
#[derive(Debug)]
pub struct WorkspaceReport {
    /// All diagnostics, sorted by (file, line).
    pub diagnostics: Vec<Diagnostic>,
    /// The unsafe inventory across every scanned file.
    pub unsafe_sites: Vec<UnsafeSite>,
    /// Number of files scanned.
    pub files: usize,
}

/// Normalize a path for scope matching: forward slashes, no leading `./`.
fn norm(path: &str) -> String {
    let p = path.replace('\\', "/");
    p.strip_prefix("./").unwrap_or(&p).to_string()
}

/// Is this a test/bench/example file as a whole?
fn is_test_path(p: &str) -> bool {
    let in_dir = |dir: &str| p.starts_with(&format!("{dir}/")) || p.contains(&format!("/{dir}/"));
    in_dir("tests") || in_dir("examples") || in_dir("benches")
}

/// Paths whose execution must be a pure function of committed data + plan:
/// single files, and — ending in `/` — a directory with everything under it,
/// so a module added to the executor is covered without touching this list.
const DETERMINISTIC_PATHS: [&str; 4] = [
    "crates/olap/src/exec/",
    "crates/olap/src/kernels.rs",
    "crates/olap/src/hashtable.rs",
    "crates/olap/src/program.rs",
];

/// Which rules apply to the file at (normalized) `path`.
pub fn scope_for(path: &str) -> Scope {
    let test_file = is_test_path(path);
    let under = |prefix: &str| path.starts_with(prefix);
    Scope {
        unordered: !test_file && (under("crates/olap/src/") || under("crates/sql/src/")),
        no_panic: !test_file
            && (under("crates/olap/src/")
                || under("crates/sql/src/")
                || under("crates/storage/src/")
                || under("crates/durability/src/")
                || under("crates/obs/src/")),
        nondeterminism: !test_file && DETERMINISTIC_PATHS.iter().any(|p| path.starts_with(p)),
    }
}

/// Lint one file's source text. `path` is used for scope decisions and
/// diagnostics; the file is never read from disk (tests feed fixtures
/// directly).
pub fn lint_source(path: &str, src: &str) -> FileReport {
    let path = norm(path);
    let tokens = lexer::lex(src);
    let sig = rules::significant(&tokens);
    let mask = rules::test_mask(&tokens, &sig);
    let allows = allow::collect(&tokens);
    let scope = scope_for(&path);

    let scan = rules::scan(&path, &tokens, &sig, &mask, scope);
    let mut diagnostics: Vec<Diagnostic> = scan
        .raw
        .into_iter()
        .filter(|d| !allow::suppressed(&allows, d.rule, d.line))
        .collect();

    let edges = if is_test_path(&path) {
        Vec::new()
    } else {
        lockorder::extract(&path, &tokens, &sig, &mask, &allows)
    };

    // Allow-list hygiene: every entry must name a real rule, carry a
    // justification, and have suppressed something.
    for a in &allows {
        if a.rule.is_none() {
            diagnostics.push(Diagnostic {
                file: path.clone(),
                line: a.line,
                rule: Rule::UnjustifiedAllow,
                message: format!(
                    "lint:allow names unknown rule `{}` (valid: unordered-container, \
                     undocumented-unsafe, no-panic, lock-order, nondeterministic-source \
                     or L1-L5)",
                    a.rule_text
                ),
            });
        } else if a.justification.is_empty() {
            diagnostics.push(Diagnostic {
                file: path.clone(),
                line: a.line,
                rule: Rule::UnjustifiedAllow,
                message: format!(
                    "lint:allow({}) without a justification; write \
                     `// lint:allow({}): <why this is sound>`",
                    a.rule_text, a.rule_text
                ),
            });
        } else if !a.used.get() {
            diagnostics.push(Diagnostic {
                file: path.clone(),
                line: a.line,
                rule: Rule::UnusedAllow,
                message: format!(
                    "lint:allow({}) suppresses nothing on this or the next line; \
                     remove it so the allow-list stays an inventory of real exceptions",
                    a.rule_text
                ),
            });
        }
    }

    FileReport {
        diagnostics,
        unsafe_sites: scan.unsafe_sites,
        edges,
    }
}

/// Lint a set of (path, source) pairs as one workspace: per-file rules plus
/// the global lock-order cycle check.
pub fn lint_files(files: &[(String, String)]) -> WorkspaceReport {
    let mut diagnostics = Vec::new();
    let mut unsafe_sites = Vec::new();
    let mut edges = Vec::new();
    for (path, src) in files {
        let report = lint_source(path, src);
        diagnostics.extend(report.diagnostics);
        unsafe_sites.extend(report.unsafe_sites);
        edges.extend(report.edges);
    }
    diagnostics.extend(lockorder::cycles(&edges));
    diagnostics
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    unsafe_sites.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    WorkspaceReport {
        diagnostics,
        unsafe_sites,
        files: files.len(),
    }
}

/// Discover workspace `.rs` files under `root`, skipping build output,
/// VCS metadata, and lint fixtures. Sorted for deterministic reports.
pub fn discover(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    walk(root, &mut out)?;
    out.sort();
    Ok(out)
}

const SKIP_DIRS: [&str; 4] = ["target", ".git", "fixtures", "node_modules"];

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Render the unsafe inventory as JSON (machine-readable CI artifact).
pub fn unsafe_inventory_json(sites: &[UnsafeSite]) -> String {
    let mut s = String::from("{\n  \"unsafe_sites\": [\n");
    for (i, site) in sites.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"file\": {}, \"line\": {}, \"kind\": {}, \"safety\": {}}}{}\n",
            json_str(&site.file),
            site.line,
            json_str(site.kind),
            site.safety
                .as_deref()
                .map(json_str)
                .unwrap_or_else(|| "null".into()),
            if i + 1 < sites.len() { "," } else { "" }
        ));
    }
    s.push_str(&format!(
        "  ],\n  \"total\": {},\n  \"documented\": {}\n}}\n",
        sites.len(),
        sites.iter().filter(|s| s.safety.is_some()).count()
    ));
    s
}

fn json_str(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
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
    out.push('"');
    out
}
