//! The domain rules.
//!
//! | id | name | scope | invariant |
//! |----|------|-------|-----------|
//! | L1 | `unordered-container` | `crates/olap/src`, `crates/sql/src` | no `HashMap`/`HashSet` in result-producing code: iteration order is nondeterministic, result ordering must come from morsel order or an explicit sort |
//! | L2 | `undocumented-unsafe` | whole workspace | every `unsafe` carries a `// SAFETY:` (or `/// # Safety`) comment |
//! | L3 | `no-panic` | `crates/{olap,sql,storage,durability,obs}/src` | no `.unwrap()` / `.expect()` / `panic!` / `todo!` / `unimplemented!` on the query, recovery or tracing path — errors are typed (`OlapError`, `SqlError`, `DurabilityError`) and tracing must never take a worker down |
//! | L4 | `lock-order` | whole workspace | the static graph of nested `.lock()`/`.read()`/`.write()` acquisitions is acyclic |
//! | L5 | `nondeterministic-source` | `crates/olap/src/exec/` (every file under it), `kernels.rs`, `hashtable.rs`, `program.rs` | no wall clock (`Instant`, `SystemTime`) or RNG construction inside deterministic execution paths |
//!
//! Test code (`#[cfg(test)]` modules, `#[test]` functions, files under
//! `tests/`, `examples/`, `benches/`) is exempt from L1/L3/L5 — tests may
//! unwrap and may iterate however they like — but not from L2: an
//! undocumented `unsafe` is a defect wherever it lives. L4 skips test code
//! because deliberate inversions are exactly what the shim's *runtime*
//! checker tests construct.

use crate::lexer::{Kind, Token};

/// A lint rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// L1: unordered container named in a result-producing crate.
    UnorderedContainer,
    /// L2: `unsafe` without a SAFETY comment.
    UndocumentedUnsafe,
    /// L3: panic-family call on the query path.
    NoPanic,
    /// L4: cycle in the static lock-order graph.
    LockOrder,
    /// L5: wall clock / RNG in a deterministic execution path.
    NondeterministicSource,
    /// A `lint:allow` entry without a justification.
    UnjustifiedAllow,
    /// A `lint:allow` entry that suppressed nothing.
    UnusedAllow,
}

impl Rule {
    /// Canonical kebab-case name (what `lint:allow(...)` takes).
    pub fn name(self) -> &'static str {
        match self {
            Rule::UnorderedContainer => "unordered-container",
            Rule::UndocumentedUnsafe => "undocumented-unsafe",
            Rule::NoPanic => "no-panic",
            Rule::LockOrder => "lock-order",
            Rule::NondeterministicSource => "nondeterministic-source",
            Rule::UnjustifiedAllow => "unjustified-allow",
            Rule::UnusedAllow => "unused-allow",
        }
    }

    /// Short id used in diagnostics (`L1`..`L5`; meta rules have none).
    pub fn id(self) -> &'static str {
        match self {
            Rule::UnorderedContainer => "L1",
            Rule::UndocumentedUnsafe => "L2",
            Rule::NoPanic => "L3",
            Rule::LockOrder => "L4",
            Rule::NondeterministicSource => "L5",
            Rule::UnjustifiedAllow | Rule::UnusedAllow => "allow",
        }
    }

    /// Parse a rule name or short id, case-insensitively.
    pub fn parse(text: &str) -> Option<Rule> {
        let lower = text.trim().to_ascii_lowercase();
        let all = [
            Rule::UnorderedContainer,
            Rule::UndocumentedUnsafe,
            Rule::NoPanic,
            Rule::LockOrder,
            Rule::NondeterministicSource,
        ];
        all.into_iter()
            .find(|r| lower == r.name() || lower == r.id().to_ascii_lowercase())
    }
}

/// One diagnostic: a rule violation at a file:line.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}/{}] {}",
            self.file,
            self.line,
            self.rule.id(),
            self.rule.name(),
            self.message
        )
    }
}

/// One `unsafe` occurrence, for the machine-readable inventory.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the `unsafe` keyword.
    pub line: u32,
    /// What the keyword introduces: `block`, `fn`, `impl`, `trait`,
    /// `extern`, or `other`.
    pub kind: &'static str,
    /// The SAFETY comment text, when present.
    pub safety: Option<String>,
}

/// Indices of the non-comment tokens, the working set for code rules.
pub fn significant(tokens: &[Token]) -> Vec<usize> {
    (0..tokens.len())
        .filter(|&i| !tokens[i].is_comment())
        .collect()
}

/// Per-token mask: `true` where the token sits inside test-only code — a
/// `#[cfg(test)]` or `#[test]` item (module, function, impl, use, ...).
pub fn test_mask(tokens: &[Token], sig: &[usize]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut s = 0usize;
    let mut pending_test_attr = false;
    while s < sig.len() {
        let i = sig[s];
        // Attribute: #[...] — scan its bracket group.
        if tokens[i].is_punct('#') && s + 1 < sig.len() && tokens[sig[s + 1]].is_punct('[') {
            let (end_s, is_test) = scan_attr(tokens, sig, s + 1);
            pending_test_attr |= is_test;
            s = end_s + 1;
            continue;
        }
        if pending_test_attr && tokens[i].kind == Kind::Ident {
            // The attributed item: mark from here to its end (matching `}`
            // of its first body brace, or the terminating `;`).
            let end_s = item_end(tokens, sig, s);
            // Mark the whole span, comments included: a `lint:allow` or
            // SAFETY comment inside a test item belongs to test code.
            let hi = sig[end_s.min(sig.len() - 1)];
            for m in mask.iter_mut().take(hi + 1).skip(i) {
                *m = true;
            }
            pending_test_attr = false;
            s = end_s + 1;
            continue;
        }
        s += 1;
    }
    mask
}

/// Scan the attribute bracket group starting at `sig[open_s]` (the `[`).
/// Returns (index into `sig` of the closing `]`, whether it marks test code).
fn scan_attr(tokens: &[Token], sig: &[usize], open_s: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut has_test = false;
    let mut has_not = false;
    let mut s = open_s;
    while s < sig.len() {
        let tok = &tokens[sig[s]];
        if tok.is_punct('[') {
            depth += 1;
        } else if tok.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if tok.is_ident("test") {
            has_test = true;
        } else if tok.is_ident("not") {
            has_not = true;
        }
        s += 1;
    }
    // `#[test]`, `#[cfg(test)]`, `#[cfg(any(test, ...))]` are test markers;
    // `#[cfg(not(test))]` is production code.
    (s, has_test && !has_not)
}

/// Index into `sig` of the last token of the item starting at `sig[start_s]`:
/// the `}` matching its first body brace, or the `;` that ends a braceless
/// item (`use`, `type`, ...).
fn item_end(tokens: &[Token], sig: &[usize], start_s: usize) -> usize {
    let mut s = start_s;
    // Find the body opening brace (outside parens: fn params carry no
    // braces) or a terminating semicolon.
    let mut paren = 0i32;
    while s < sig.len() {
        let tok = &tokens[sig[s]];
        if tok.is_punct('(') {
            paren += 1;
        } else if tok.is_punct(')') {
            paren -= 1;
        } else if tok.is_punct(';') && paren == 0 {
            return s;
        } else if tok.is_punct('{') && paren == 0 {
            break;
        }
        s += 1;
    }
    if s >= sig.len() {
        return sig.len() - 1;
    }
    // Match braces to the item's closing one.
    let mut depth = 0i32;
    while s < sig.len() {
        let tok = &tokens[sig[s]];
        if tok.is_punct('{') {
            depth += 1;
        } else if tok.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return s;
            }
        }
        s += 1;
    }
    sig.len() - 1
}

/// Lines covered by comments, with whether any comment on that line carries
/// a SAFETY marker, and the comment text.
pub struct CommentLines {
    covered: std::collections::BTreeMap<u32, String>,
}

impl CommentLines {
    /// Build from the token stream.
    pub fn new(tokens: &[Token]) -> Self {
        let mut covered = std::collections::BTreeMap::new();
        for tok in tokens.iter().filter(|t| t.is_comment()) {
            for line in tok.line..=tok.end_line {
                covered
                    .entry(line)
                    .and_modify(|t: &mut String| {
                        t.push('\n');
                        t.push_str(&tok.text);
                    })
                    .or_insert_with(|| tok.text.clone());
            }
        }
        CommentLines { covered }
    }

    fn is_comment_line(&self, line: u32) -> bool {
        self.covered.contains_key(&line)
    }

    fn safety_on(&self, line: u32) -> Option<String> {
        let text = self.covered.get(&line)?;
        if text.contains("SAFETY:") || text.contains("# Safety") {
            Some(
                text.lines()
                    .map(|l| {
                        l.trim_start()
                            .trim_start_matches('/')
                            .trim_start_matches('*')
                            .trim()
                    })
                    .filter(|l| !l.is_empty())
                    .collect::<Vec<_>>()
                    .join(" "),
            )
        } else {
            None
        }
    }

    /// The SAFETY comment justifying a statement that starts on
    /// `stmt_line` and contains `unsafe` on `unsafe_line`: on any line of
    /// the statement itself, or in the contiguous comment run directly
    /// above the statement.
    pub fn safety_for(&self, stmt_line: u32, unsafe_line: u32) -> Option<String> {
        for line in stmt_line..=unsafe_line {
            if let Some(text) = self.safety_on(line) {
                return Some(text);
            }
        }
        let mut line = stmt_line.saturating_sub(1);
        while line > 0 && self.is_comment_line(line) {
            if let Some(text) = self.safety_on(line) {
                return Some(text);
            }
            line -= 1;
        }
        None
    }
}

/// Scan for L1/L2/L3/L5 violations and collect the unsafe inventory.
///
/// `sig` is the significant-token index, `mask` the test mask over all
/// tokens. Scope flags say which rules apply to this file. Suppression and
/// allow bookkeeping happen in the caller.
pub struct ScanOutput {
    /// Raw (unsuppressed) diagnostics.
    pub raw: Vec<Diagnostic>,
    /// Every `unsafe` occurrence (test code included).
    pub unsafe_sites: Vec<UnsafeSite>,
}

/// Rule scopes for one file.
#[derive(Debug, Clone, Copy)]
pub struct Scope {
    /// L1 applies (crates/olap, crates/sql, non-test file).
    pub unordered: bool,
    /// L3 applies (crates/{olap,sql,storage}, non-test file).
    pub no_panic: bool,
    /// L5 applies (deterministic-path files).
    pub nondeterminism: bool,
}

const PANIC_MACROS: [&str; 3] = ["panic", "todo", "unimplemented"];
const NONDET_IDENTS: [&str; 5] = [
    "Instant",
    "SystemTime",
    "thread_rng",
    "from_entropy",
    "StdRng",
];

/// Run the per-file token scans.
pub fn scan(
    file: &str,
    tokens: &[Token],
    sig: &[usize],
    mask: &[bool],
    scope: Scope,
) -> ScanOutput {
    let comments = CommentLines::new(tokens);
    let mut raw = Vec::new();
    let mut unsafe_sites = Vec::new();
    // Line on which the current statement started (for SAFETY lookup).
    let mut stmt_line = tokens.first().map(|t| t.line).unwrap_or(1);
    let mut stmt_boundary = true;

    for (s, &i) in sig.iter().enumerate() {
        let tok = &tokens[i];
        if stmt_boundary {
            stmt_line = tok.line;
            stmt_boundary = false;
        }
        if tok.kind == Kind::Punct && (tok.is_punct(';') || tok.is_punct('{') || tok.is_punct('}'))
        {
            stmt_boundary = true;
        }
        if tok.kind != Kind::Ident {
            continue;
        }
        let in_test = mask[i];
        let prev = s.checked_sub(1).map(|p| &tokens[sig[p]]);
        let next = sig.get(s + 1).map(|&n| &tokens[n]);

        // L2 + inventory: every `unsafe`, test code included.
        if tok.text == "unsafe" {
            let kind = match next {
                Some(n) if n.is_punct('{') => "block",
                Some(n) if n.is_ident("fn") => "fn",
                Some(n) if n.is_ident("impl") => "impl",
                Some(n) if n.is_ident("trait") => "trait",
                Some(n) if n.is_ident("extern") => "extern",
                _ => "other",
            };
            let safety = comments.safety_for(stmt_line, tok.line);
            if safety.is_none() {
                raw.push(Diagnostic {
                    file: file.to_string(),
                    line: tok.line,
                    rule: Rule::UndocumentedUnsafe,
                    message: format!(
                        "`unsafe` {kind} without a `// SAFETY:` comment; state the invariant \
                         that makes it sound"
                    ),
                });
            }
            unsafe_sites.push(UnsafeSite {
                file: file.to_string(),
                line: tok.line,
                kind,
                safety,
            });
            continue;
        }
        if in_test {
            continue;
        }

        // L1: unordered containers in result-producing crates.
        if scope.unordered && (tok.text == "HashMap" || tok.text == "HashSet") {
            raw.push(Diagnostic {
                file: file.to_string(),
                line: tok.line,
                rule: Rule::UnorderedContainer,
                message: format!(
                    "`{}` in a result-producing crate: iteration order is nondeterministic \
                     and can leak into query output; derive ordering from morsel order, an \
                     explicit sort, or use BTreeMap/BTreeSet",
                    tok.text
                ),
            });
            continue;
        }

        // L3: panic family on the query path.
        if scope.no_panic {
            let method_recv = matches!(&prev, Some(p) if p.is_punct('.') || p.is_punct(':'));
            if (tok.text == "unwrap" || tok.text == "expect") && method_recv {
                raw.push(Diagnostic {
                    file: file.to_string(),
                    line: tok.line,
                    rule: Rule::NoPanic,
                    message: format!(
                        "`.{}()` on the query path can abort a worker mid-pipeline; \
                         propagate a typed OlapError/SqlError instead",
                        tok.text
                    ),
                });
                continue;
            }
            if PANIC_MACROS.contains(&tok.text.as_str())
                && matches!(&next, Some(n) if n.is_punct('!'))
            {
                raw.push(Diagnostic {
                    file: file.to_string(),
                    line: tok.line,
                    rule: Rule::NoPanic,
                    message: format!(
                        "`{}!` on the query path; return a typed error instead of \
                         crashing the worker",
                        tok.text
                    ),
                });
                continue;
            }
        }

        // L5: nondeterministic sources in deterministic execution paths.
        if scope.nondeterminism {
            // `rand` only as a crate path (`rand::`), not a local named rand
            // (`rand: u32` in a signature has a single colon).
            let next2 = sig.get(s + 2).map(|&n| &tokens[n]);
            let nondet = NONDET_IDENTS.contains(&tok.text.as_str())
                || (tok.text == "rand"
                    && matches!(&next, Some(n) if n.is_punct(':'))
                    && matches!(&next2, Some(n) if n.is_punct(':')));
            if nondet {
                raw.push(Diagnostic {
                    file: file.to_string(),
                    line: tok.line,
                    rule: Rule::NondeterministicSource,
                    message: format!(
                        "`{}` inside a deterministic execution path: results must be a pure \
                         function of committed data and plan; take timestamps/seeds at the \
                         boundary and pass them in",
                        tok.text
                    ),
                });
            }
        }
    }
    ScanOutput { raw, unsafe_sites }
}
