//! Fixture tests: every rule's true positives AND the look-alikes that must
//! *not* fire. Fixtures are inline strings fed through [`lint_source`] /
//! [`lint_files`] with synthetic workspace paths, so scope decisions (which
//! crate, test file or not) are exercised exactly as on disk.

use htap_lint::{lint_files, lint_source, Rule};

/// Diagnostics of one rule as (line, message) pairs.
fn hits(path: &str, src: &str, rule: Rule) -> Vec<(u32, String)> {
    lint_source(path, src)
        .diagnostics
        .into_iter()
        .filter(|d| d.rule == rule)
        .map(|d| (d.line, d.message))
        .collect()
}

fn count(path: &str, src: &str, rule: Rule) -> usize {
    hits(path, src, rule).len()
}

// ---------------------------------------------------------------- L1

#[test]
fn l1_flags_unordered_containers_in_result_producing_crates() {
    let src = "use std::collections::HashMap;\n\
               fn agg() { let m: HashMap<i64, f64> = HashMap::new(); }\n";
    let found = hits("crates/olap/src/widget.rs", src, Rule::UnorderedContainer);
    assert_eq!(found.len(), 3, "{found:?}");
    assert_eq!(found[0].0, 1, "use statement line");
    assert_eq!(found[1].0, 2, "type annotation and constructor lines");
    assert!(found[0].1.contains("HashMap"));

    assert_eq!(
        count(
            "crates/sql/src/binder.rs",
            "fn f(s: &HashSet<u32>) {}\n",
            Rule::UnorderedContainer
        ),
        1,
        "HashSet in crates/sql is in scope too"
    );
}

#[test]
fn l1_ignores_out_of_scope_crates_strings_comments_and_tests() {
    // OLTP ingest code may use hash containers: order never reaches results.
    assert_eq!(
        count(
            "crates/oltp/src/worker.rs",
            "use std::collections::HashMap;\n",
            Rule::UnorderedContainer
        ),
        0
    );
    // The word inside a string or comment is not a token.
    let src = "// a HashMap would be wrong here\n\
               fn f() -> &'static str { \"HashMap\" }\n";
    assert_eq!(
        count("crates/olap/src/widget.rs", src, Rule::UnorderedContainer),
        0
    );
    // Test modules may use whatever container they like.
    let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
    assert_eq!(
        count("crates/olap/src/widget.rs", src, Rule::UnorderedContainer),
        0
    );
    // Whole-file exemption for tests/ and benches/ paths.
    assert_eq!(
        count(
            "crates/olap/tests/exec.rs",
            "use std::collections::HashMap;\n",
            Rule::UnorderedContainer
        ),
        0
    );
}

#[test]
fn l1_allow_is_honored_and_marked_used() {
    let src = "// lint:allow(unordered-container): membership set, contains() only\n\
               fn f(s: &HashSet<u32>) {}\n";
    let report = lint_source("crates/olap/src/widget.rs", src);
    assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
}

// ---------------------------------------------------------------- L2

#[test]
fn l2_flags_undocumented_unsafe_with_position() {
    let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
    let found = hits("crates/core/src/x.rs", src, Rule::UndocumentedUnsafe);
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].0, 2);
    assert!(found[0].1.contains("SAFETY"));
}

#[test]
fn l2_applies_even_inside_test_code() {
    // Unlike L1/L3/L5, test modules get no pass on undocumented unsafe.
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { unsafe { core::hint::unreachable_unchecked() } }\n}\n";
    assert_eq!(
        count("crates/core/src/x.rs", src, Rule::UndocumentedUnsafe),
        1
    );
}

#[test]
fn l2_accepts_safety_comment_above_or_on_the_statement() {
    let above = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid\n    unsafe { *p }\n}\n";
    assert_eq!(
        count("crates/core/src/x.rs", above, Rule::UndocumentedUnsafe),
        0
    );
    let doc = "/// # Safety\n/// `p` must be valid for reads.\npub unsafe fn read(p: *const u8) -> u8 { unsafe { *p } }\n";
    // The doc header covers both the fn and the block inside the same item
    // statement... the inner block starts a fresh statement, so it still
    // needs its own comment:
    let found = hits("crates/core/src/x.rs", doc, Rule::UndocumentedUnsafe);
    assert!(found.len() <= 1, "{found:?}");
    let both = "/// # Safety\n/// `p` must be valid for reads.\npub unsafe fn read(p: *const u8) -> u8 {\n    // SAFETY: contract forwarded to the caller\n    unsafe { *p }\n}\n";
    assert_eq!(
        count("crates/core/src/x.rs", both, Rule::UndocumentedUnsafe),
        0
    );
}

#[test]
fn l2_inventory_records_every_site_with_kind_and_doc_state() {
    let src =
        "// SAFETY: documented impl\nunsafe impl Send for X {}\nfn f() { unsafe { danger() } }\n";
    let report = lint_source("crates/core/src/x.rs", src);
    assert_eq!(report.unsafe_sites.len(), 2);
    assert_eq!(report.unsafe_sites[0].kind, "impl");
    assert!(report.unsafe_sites[0].safety.is_some());
    assert_eq!(report.unsafe_sites[1].kind, "block");
    assert!(report.unsafe_sites[1].safety.is_none());

    let json = htap_lint::unsafe_inventory_json(&report.unsafe_sites);
    assert!(json.contains("\"total\": 2"), "{json}");
    assert!(json.contains("\"documented\": 1"), "{json}");
    assert!(json.contains("\"kind\": \"impl\""), "{json}");
}

// ---------------------------------------------------------------- L3

#[test]
fn l3_flags_the_whole_panic_family_with_lines() {
    let src = "fn f(o: Option<u32>) -> u32 {\n\
               let a = o.unwrap();\n\
               let b = o.expect(\"present\");\n\
               if a > b { panic!(\"impossible\") }\n\
               todo!()\n\
               }\n";
    let found = hits("crates/sql/src/widget.rs", src, Rule::NoPanic);
    let lines: Vec<u32> = found.iter().map(|(l, _)| *l).collect();
    assert_eq!(lines, vec![2, 3, 4, 5], "{found:?}");
    assert!(found[0].1.contains("unwrap"));
    assert!(found[2].1.contains("panic"));
}

#[test]
fn l3_ignores_look_alikes_out_of_scope_and_test_code() {
    // Strings and comments mentioning unwrap( are not calls; unwrap_or is a
    // different identifier, not a prefix match.
    let src = "// never .unwrap() here\n\
               fn f(o: Option<u32>) -> u32 { o.unwrap_or_default() }\n\
               fn g() -> &'static str { \"x.unwrap()\" }\n\
               fn h(o: Option<u32>) -> u32 { o.unwrap_or_else(|| 0) }\n";
    assert_eq!(count("crates/olap/src/widget.rs", src, Rule::NoPanic), 0);
    // `unwrap` as a free function name (no `.`/`::` receiver) is not the
    // panicking method.
    assert_eq!(
        count(
            "crates/olap/src/widget.rs",
            "fn unwrap() {}\nfn f() { unwrap() }\n",
            Rule::NoPanic
        ),
        0
    );
    // Out-of-scope crate: the scheduler may unwrap.
    assert_eq!(
        count(
            "crates/scheduler/src/policy.rs",
            "fn f(o: Option<u32>) -> u32 { o.unwrap() }\n",
            Rule::NoPanic
        ),
        0
    );
    // Test module exemption.
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n";
    assert_eq!(count("crates/sql/src/widget.rs", src, Rule::NoPanic), 0);
    // ... but #[cfg(not(test))] is production code.
    let src = "#[cfg(not(test))]\nfn f(o: Option<u32>) -> u32 { o.unwrap() }\n";
    assert_eq!(count("crates/sql/src/widget.rs", src, Rule::NoPanic), 1);
}

#[test]
fn l3_allow_needs_a_justification_and_must_suppress_something() {
    let ok = "// lint:allow(no-panic): dtype checked by caller\n\
              fn f(o: Option<u32>) -> u32 { o.unwrap() }\n";
    assert!(lint_source("crates/storage/src/widget.rs", ok)
        .diagnostics
        .is_empty());

    // Same-line allow works too.
    let same = "fn f(o: Option<u32>) -> u32 { o.unwrap() } // lint:allow(no-panic): checked\n";
    assert!(lint_source("crates/storage/src/widget.rs", same)
        .diagnostics
        .is_empty());

    // Short rule id accepted.
    let by_id = "// lint:allow(L3): checked\nfn f(o: Option<u32>) -> u32 { o.unwrap() }\n";
    assert!(lint_source("crates/storage/src/widget.rs", by_id)
        .diagnostics
        .is_empty());

    // No justification: the allow still suppresses (so the author sees one
    // actionable diagnostic, not two), but is itself flagged — the gate
    // fails either way.
    let bare = "// lint:allow(no-panic)\nfn f(o: Option<u32>) -> u32 { o.unwrap() }\n";
    let report = lint_source("crates/storage/src/widget.rs", bare);
    let rules: Vec<Rule> = report.diagnostics.iter().map(|d| d.rule).collect();
    assert_eq!(rules, vec![Rule::UnjustifiedAllow], "{rules:?}");

    // An allow with nothing to suppress is sediment.
    let unused = "// lint:allow(no-panic): stale\nfn f() {}\n";
    let report = lint_source("crates/storage/src/widget.rs", unused);
    assert_eq!(report.diagnostics.len(), 1);
    assert_eq!(report.diagnostics[0].rule, Rule::UnusedAllow);

    // An allow for rule X does not suppress rule Y.
    let wrong = "// lint:allow(no-panic): wrong rule\nfn f(s: &HashSet<u32>) {}\n";
    let report = lint_source("crates/olap/src/widget.rs", wrong);
    let rules: Vec<Rule> = report.diagnostics.iter().map(|d| d.rule).collect();
    assert!(rules.contains(&Rule::UnorderedContainer), "{rules:?}");
    assert!(rules.contains(&Rule::UnusedAllow), "{rules:?}");
}

// ---------------------------------------------------------------- L4

#[test]
fn l4_reports_a_cycle_across_files_with_both_sites() {
    let ingest = "fn ingest(&self) {\n\
                  let a = self.catalog.lock();\n\
                  let b = self.stats.lock();\n\
                  drop(b); drop(a);\n\
                  }\n";
    let report_fn = "fn report(&self) {\n\
                     let b = self.stats.lock();\n\
                     let a = self.catalog.lock();\n\
                     drop(a); drop(b);\n\
                     }\n";
    let files = vec![
        ("crates/oltp/src/ingest.rs".to_string(), ingest.to_string()),
        (
            "crates/oltp/src/report.rs".to_string(),
            report_fn.to_string(),
        ),
    ];
    let report = lint_files(&files);
    let cycles: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == Rule::LockOrder)
        .collect();
    assert_eq!(cycles.len(), 1, "{:?}", report.diagnostics);
    let msg = &cycles[0].message;
    assert!(msg.contains("catalog") && msg.contains("stats"), "{msg}");
    assert!(
        msg.contains("ingest.rs") || msg.contains("report.rs"),
        "{msg}"
    );
}

#[test]
fn l4_consistent_order_transient_guards_and_test_code_are_clean() {
    // Same nesting order everywhere: acyclic.
    let consistent = "fn a(&self) { let g = self.x.lock(); let h = self.y.lock(); drop(h); drop(g); }\n\
                      fn b(&self) { let g = self.x.lock(); let h = self.y.lock(); drop(h); drop(g); }\n";
    let files = vec![("crates/oltp/src/a.rs".to_string(), consistent.to_string())];
    assert!(lint_files(&files).diagnostics.is_empty());

    // A guard consumed within one statement is released before the next
    // acquisition: no edge, so reversed transient uses stay clean.
    let transient = "fn a(&self) { let n = self.x.lock().len(); let m = self.y.lock().len(); let _ = n + m; }\n\
                     fn b(&self) { let m = self.y.lock().len(); let n = self.x.lock().len(); let _ = n + m; }\n";
    let files = vec![("crates/oltp/src/b.rs".to_string(), transient.to_string())];
    assert!(lint_files(&files).diagnostics.is_empty());

    // drop() releases: y is no longer held when x is re-acquired.
    let dropped = "fn a(&self) { let g = self.x.lock(); drop(g); let h = self.y.lock(); drop(h); }\n\
                   fn b(&self) { let h = self.y.lock(); drop(h); let g = self.x.lock(); drop(g); }\n";
    let files = vec![("crates/oltp/src/c.rs".to_string(), dropped.to_string())];
    assert!(lint_files(&files).diagnostics.is_empty());

    // Deliberate inversions inside tests/ files (like the shim's own runtime
    // checker tests) contribute no edges.
    let inverted = "fn a(&self) { let g = self.x.lock(); let h = self.y.lock(); drop(h); drop(g); }\n\
                    fn b(&self) { let h = self.y.lock(); let g = self.x.lock(); drop(g); drop(h); }\n";
    let files = vec![(
        "crates/oltp/tests/inversion.rs".to_string(),
        inverted.to_string(),
    )];
    assert!(lint_files(&files).diagnostics.is_empty());
}

#[test]
fn l4_read_write_nesting_participates_in_the_graph() {
    let src = "fn a(&self) { let g = self.x.write(); let h = self.y.read(); drop(h); drop(g); }\n\
               fn b(&self) { let h = self.y.write(); let g = self.x.read(); drop(g); drop(h); }\n";
    let files = vec![("crates/storage/src/d.rs".to_string(), src.to_string())];
    let report = lint_files(&files);
    assert_eq!(
        report
            .diagnostics
            .iter()
            .filter(|d| d.rule == Rule::LockOrder)
            .count(),
        1,
        "{:?}",
        report.diagnostics
    );
}

// ---------------------------------------------------------------- L5

#[test]
fn l5_flags_clock_and_rng_in_deterministic_path_files_only() {
    let src = "fn f() { let t = Instant::now(); }\n";
    let found = hits(
        "crates/olap/src/kernels.rs",
        src,
        Rule::NondeterministicSource,
    );
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].0, 1);

    assert_eq!(
        count(
            "crates/olap/src/exec/mod.rs",
            "fn f() { let s = SystemTime::now(); }\n",
            Rule::NondeterministicSource
        ),
        1
    );
    assert_eq!(
        count(
            "crates/olap/src/hashtable.rs",
            "fn f() { let r = rand::thread_rng(); }\n",
            Rule::NondeterministicSource
        ),
        2,
        "both the rand:: path and thread_rng flag"
    );
    // The same construct in a non-deterministic-path file is fine (the
    // scheduler is *supposed* to read the clock).
    assert_eq!(
        count(
            "crates/scheduler/src/tick.rs",
            "fn f() { let t = Instant::now(); }\n",
            Rule::NondeterministicSource
        ),
        0
    );
    assert_eq!(
        count(
            "crates/olap/src/worker.rs",
            "fn f() { let t = Instant::now(); }\n",
            Rule::NondeterministicSource
        ),
        0
    );
}

/// The executor is a directory of per-operator modules; L5 is scoped to the
/// directory, so the morsel loop keeps the rule wherever it moves and a
/// module added later is covered without a list edit.
#[test]
fn l5_covers_every_file_under_the_executor_directory() {
    let src = "fn f() { let t = Instant::now(); }\n";
    for file in ["pipeline.rs", "group.rs", "an_operator_added_later.rs"] {
        let path = format!("crates/olap/src/exec/{file}");
        let found = hits(&path, src, Rule::NondeterministicSource);
        assert_eq!(found.len(), 1, "{path}");
        assert_eq!(found[0].0, 1, "{path}");
    }
    // A sibling that merely shares the prefix text is not in the directory.
    assert_eq!(
        count(
            "crates/olap/src/executor_notes.rs",
            src,
            Rule::NondeterministicSource
        ),
        0
    );
}

#[test]
fn l5_ignores_look_alike_identifiers_and_strings() {
    // `operand` contains "rand" as a substring; tokens compare exactly.
    let src = "fn f(operand: u32) -> u32 { operand }\n\
               fn g() -> &'static str { \"Instant::now\" }\n\
               // Instant would be wrong here\n";
    assert_eq!(
        count(
            "crates/olap/src/kernels.rs",
            src,
            Rule::NondeterministicSource
        ),
        0
    );
    // A local named `rand` not followed by `::` is not the crate.
    assert_eq!(
        count(
            "crates/olap/src/kernels.rs",
            "fn f(rand: u32) -> u32 { rand + 1 }\n",
            Rule::NondeterministicSource
        ),
        0
    );
}

// ---------------------------------------------------------------- meta

#[test]
fn diagnostics_render_file_line_and_rule() {
    let report = lint_source(
        "crates/sql/src/widget.rs",
        "fn f(o: Option<u32>) -> u32 { o.unwrap() }\n",
    );
    assert_eq!(report.diagnostics.len(), 1);
    let rendered = report.diagnostics[0].to_string();
    assert!(
        rendered.starts_with("crates/sql/src/widget.rs:1: [L3/no-panic]"),
        "{rendered}"
    );
}

#[test]
fn rule_parsing_accepts_names_and_ids_case_insensitively() {
    assert_eq!(Rule::parse("no-panic"), Some(Rule::NoPanic));
    assert_eq!(Rule::parse("L3"), Some(Rule::NoPanic));
    assert_eq!(Rule::parse("l1"), Some(Rule::UnorderedContainer));
    assert_eq!(Rule::parse("Lock-Order"), Some(Rule::LockOrder));
    assert_eq!(Rule::parse("nonsense"), None);
}
