//! Resource and Data Exchange (RDE) engine — the integration layer between
//! the OLTP and the OLAP engine (§3.4 of the paper).
//!
//! The RDE engine owns all compute and memory resources and distributes them
//! to the two engines; it drives the operations HTAP needs:
//!
//! * **instance switching and synchronisation** — instructing the OLTP engine
//!   to switch its active twin instance, then copying the records flagged by
//!   the update-indication bits into the new active instance;
//! * **ETL** — transferring the delta (inserted + updated records) from the
//!   OLTP snapshot to the OLAP engine's own instance, using OLAP-side compute
//!   resources (the transfer time is charged to the query);
//! * **state migration** — the `MigrateStateS1/S2/S3` procedures of
//!   Algorithm 1, one body over a per-state table, which move the system
//!   between the co-located (S1), isolated (S2) and hybrid (S3) designs; each
//!   state is one split of the cores between the engines (socket- or
//!   core-granular, subject to the administrator-set OLTP minimums), and
//!   both engines read the core list the split hands them.

pub mod engine;
pub mod migration;
pub mod state;

pub use engine::{AccessMethod, EtlReport, RdeConfig, RdeEngine, SwitchReport};
pub use migration::MigrationReport;
pub use state::{ElasticityMode, SystemState};
