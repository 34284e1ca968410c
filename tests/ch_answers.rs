//! The seven CH-benCHmark answers, bit for bit.
//!
//! The figure goldens print modelled numbers and the oracle checks grant a
//! floating-point tolerance, so neither notices a change that moves a
//! result's last bit. This test runs every `QueryId`'s SQL text through
//! `HtapSystem::execute_sql_with_output` on a fresh `HtapConfig::tiny()`
//! system and compares each result value, as decimal and as its `to_bits`
//! hex, with `tests/golden/ch_answers.txt`. A change that must keep the
//! answers leaves the file as it is; one that moves them on purpose
//! regenerates it from the text the failure prints.

use adaptive_htap::olap::QueryResult;
use adaptive_htap::{HtapConfig, HtapSystem, QueryId};
use std::fmt::Write;

const QUERIES: [QueryId; 7] = [
    QueryId::Q1,
    QueryId::Q3,
    QueryId::Q4,
    QueryId::Q6,
    QueryId::Q12,
    QueryId::Q14,
    QueryId::Q19,
];

/// One value as `decimal/0xbits`.
fn value(out: &mut String, v: f64) {
    write!(out, " {v:?}/{:#018x}", v.to_bits()).unwrap();
}

/// Every query's result rows, one line per row: the label, then the group
/// key (grouped results only), then each aggregate value; a grouped result
/// without groups is one line that says so.
fn answers(system: &HtapSystem) -> String {
    let mut out = String::new();
    for q in QUERIES {
        let (_, output) = system.execute_sql_with_output(&q.sql()).unwrap();
        match &output.result {
            QueryResult::Scalars(values) => {
                out.push_str(q.label());
                values.iter().for_each(|&v| value(&mut out, v));
                out.push('\n');
            }
            QueryResult::Groups(rows) if rows.is_empty() => {
                writeln!(out, "{} (no groups)", q.label()).unwrap();
            }
            QueryResult::Groups(rows) => {
                for (key, values) in rows {
                    write!(out, "{} {key:?}", q.label()).unwrap();
                    values.iter().for_each(|&v| value(&mut out, v));
                    out.push('\n');
                }
            }
        }
    }
    out
}

#[test]
fn ch_answers_match_the_golden_bits() {
    let system = HtapSystem::build(HtapConfig::tiny()).unwrap();
    let actual = answers(&system);
    let golden = include_str!("golden/ch_answers.txt");
    assert!(
        actual == golden,
        "the CH answers moved; if that is intended, write this text to \
         tests/golden/ch_answers.txt:\n{actual}"
    );
}
