//! Configuration of the assembled HTAP system.

use htap_chbench::ChConfig;
use htap_rde::RdeConfig;
use htap_scheduler::{Schedule, SchedulerPolicy};
use htap_sim::{SocketId, Topology};

/// Durability (WAL + checkpoint) tuning of an [`crate::HtapSystem`].
///
/// Durability itself is enabled by *building* the system against a durable
/// storage backend ([`crate::HtapSystem::build_durable`]); this struct only
/// tunes the group-commit coordinator and the checkpoint cadence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// How long a group-commit leader lingers for more committers to join
    /// its batch before issuing the fsync, in microseconds.
    pub flush_interval_micros: u64,
    /// Batch size that triggers an immediate flush without lingering.
    pub max_batch: usize,
    /// Take a column-segment checkpoint (and restart the WAL) every N
    /// instance switches — that is, every N analytical queries: a query
    /// crosses the switch gate exactly once. 0 disables periodic checkpoints.
    pub checkpoint_interval_switches: u64,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            flush_interval_micros: 100,
            max_batch: 64,
            checkpoint_interval_switches: 4,
        }
    }
}

/// Configuration of an [`crate::HtapSystem`].
#[derive(Debug, Clone)]
pub struct HtapConfig {
    /// The simulated machine.
    pub topology: Topology,
    /// Socket hosting the OLTP engine's storage.
    pub oltp_socket: SocketId,
    /// Socket hosting the OLAP engine's storage.
    pub olap_socket: SocketId,
    /// Minimum OLTP cores per socket the scheduler must preserve.
    pub oltp_min_cores_per_socket: usize,
    /// Minimum number of OLTP sockets.
    pub oltp_min_sockets: usize,
    /// OLTP-socket cores the OLAP engine may borrow in state S3-NI.
    pub elastic_cores: usize,
    /// Base throughput of one OLTP worker (transactions per second).
    pub base_tps_per_worker: f64,
    /// CH-benCHmark population.
    pub chbench: ChConfig,
    /// Initial scheduling discipline.
    pub schedule: Schedule,
    /// WAL / checkpoint tuning (effective only when the system is built with
    /// [`crate::HtapSystem::build_durable`]).
    pub durability: DurabilityConfig,
}

impl HtapConfig {
    /// A configuration mirroring the paper's evaluation server with a small
    /// database — the right starting point for examples and quick runs.
    pub fn small() -> Self {
        HtapConfig {
            topology: Topology::two_socket(),
            oltp_socket: SocketId(0),
            olap_socket: SocketId(1),
            oltp_min_cores_per_socket: 4,
            oltp_min_sockets: 1,
            elastic_cores: 4,
            base_tps_per_worker: 85_000.0,
            chbench: ChConfig::small(),
            schedule: Schedule::Adaptive(SchedulerPolicy::adaptive_non_isolated(0.5)),
            durability: DurabilityConfig::default(),
        }
    }

    /// A tiny configuration for unit/integration tests.
    pub fn tiny() -> Self {
        HtapConfig {
            chbench: ChConfig::tiny(),
            ..Self::small()
        }
    }

    /// A configuration scaled like the paper (scale factor `sf`); note that
    /// SF 300 needs a correspondingly large amount of host memory — the
    /// figure binaries of `crates/bench` default to `--scale 0.02`, and the
    /// population each factor yields is [`ChConfig::scale_factor`]'s.
    pub fn scale_factor(sf: f64) -> Self {
        HtapConfig {
            chbench: ChConfig::scale_factor(sf),
            ..Self::small()
        }
    }

    /// Use the given scheduling discipline.
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Use the given ETL-sensitivity α with the adaptive (hybrid) policy.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.schedule = Schedule::Adaptive(SchedulerPolicy::adaptive_non_isolated(alpha));
        self
    }

    /// Use the given CH-benCHmark population.
    pub fn with_chbench(mut self, chbench: ChConfig) -> Self {
        self.chbench = chbench;
        self
    }

    /// Number of cores the OLAP engine may borrow elastically.
    pub fn with_elastic_cores(mut self, cores: usize) -> Self {
        self.elastic_cores = cores;
        self
    }

    /// Use the given WAL / checkpoint tuning.
    pub fn with_durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = durability;
        self
    }

    /// The RDE-engine configuration implied by this system configuration.
    pub fn rde_config(&self) -> RdeConfig {
        RdeConfig {
            topology: self.topology.clone(),
            oltp_socket: self.oltp_socket,
            olap_socket: self.olap_socket,
            oltp_min_cores_per_socket: self.oltp_min_cores_per_socket,
            oltp_min_sockets: self.oltp_min_sockets,
            elastic_cores: self.elastic_cores,
            base_tps_per_worker: self.base_tps_per_worker,
        }
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), String> {
        self.topology.validate()?;
        if self.oltp_socket == self.olap_socket {
            return Err("OLTP and OLAP home sockets must differ".into());
        }
        if self.oltp_socket.index() >= self.topology.sockets as usize
            || self.olap_socket.index() >= self.topology.sockets as usize
        {
            return Err("home sockets out of range for the topology".into());
        }
        if self.elastic_cores >= self.topology.cores_per_socket as usize {
            return Err("elastic cores must leave at least one OLTP core".into());
        }
        Ok(())
    }
}

impl Default for HtapConfig {
    fn default() -> Self {
        Self::small()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        assert!(HtapConfig::small().validate().is_ok());
        assert!(HtapConfig::tiny().validate().is_ok());
        assert!(HtapConfig::scale_factor(0.01).validate().is_ok());
    }

    #[test]
    fn builder_methods_compose() {
        let cfg = HtapConfig::tiny()
            .with_alpha(0.25)
            .with_elastic_cores(6)
            .with_chbench(ChConfig::tiny())
            .with_durability(DurabilityConfig {
                flush_interval_micros: 50,
                max_batch: 8,
                checkpoint_interval_switches: 2,
            });
        assert_eq!(cfg.elastic_cores, 6);
        assert_eq!(cfg.durability.max_batch, 8);
        assert_eq!(cfg.durability.checkpoint_interval_switches, 2);
        match cfg.schedule {
            Schedule::Adaptive(p) => assert!((p.alpha - 0.25).abs() < 1e-12),
            _ => panic!("expected adaptive schedule"),
        }
        let rde = cfg.rde_config();
        assert_eq!(rde.elastic_cores, 6);
    }

    #[test]
    fn validation_rejects_bad_configurations() {
        let mut cfg = HtapConfig::tiny();
        cfg.olap_socket = cfg.oltp_socket;
        assert!(cfg.validate().is_err());

        let mut cfg = HtapConfig::tiny();
        cfg.olap_socket = SocketId(9);
        assert!(cfg.validate().is_err());

        let mut cfg = HtapConfig::tiny();
        cfg.elastic_cores = 14;
        assert!(cfg.validate().is_err());
    }
}
