//! CH-benCHmark workload (§5.1 of the paper).
//!
//! The CH-benCHmark combines TPC-C (transactional side) and TPC-H (analytical
//! side): the schema inherits the nine TPC-C relations and adds `supplier`,
//! `nation` and `region`. Following the paper:
//!
//! * the database is scaled with a TPC-H-style scale factor `SF`, sizing the
//!   `orderline` relation at `SF × 6,001,215` rows with 15 order lines per
//!   order at load time;
//! * each OLTP worker owns one warehouse and runs `NewOrder` transactions
//!   (5–15 order lines each) back to back, simulating a full transaction
//!   queue;
//! * the analytical side runs the paper's CH-Q1 (scan–filter–group-by),
//!   CH-Q6 (scan–filter–reduce) and CH-Q19 (fact–dimension join, `LIKE`
//!   removed), with 100 % selectivity on date predicates as the paper
//!   assumes — plus the widened mix's Q3 (three-table chain join), Q4
//!   (grouped join with top-k), Q12 (grouped join) and Q14 (promotion
//!   join), adapted to the integer/float schema the same way — each defined
//!   once, as SQL text ([`QueryId::sql`]);
//! * the transactional mix adds `Payment`, `Delivery` and `StockLevel`
//!   alongside `NewOrder` (see [`transactions`] for the key-addressed
//!   `Delivery` adaptation).

pub mod catalog;
pub mod generator;
pub mod queries;
pub mod schema;
pub mod sequence;
pub mod transactions;

pub use catalog::catalog;
pub use generator::{ChConfig, ChGenerator, PopulationReport, INITIAL_NEXT_O_ID};
pub use queries::{query_mix, query_mix_wide, QueryId};
pub use schema::{keys, tables, ALL_TABLES};
pub use sequence::{QuerySequence, SequenceKind};
pub use transactions::{NewOrderParams, TransactionDriver, TxnStats, DELIVERY_DATE_BASE};
