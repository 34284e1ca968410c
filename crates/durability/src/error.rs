//! Typed errors of the durability subsystem.

/// An error raised by the WAL, checkpoint or recovery machinery. All
/// variants are cloneable so a single I/O failure can be fanned out to every
/// committer waiting on the same group-commit batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurabilityError {
    /// An I/O operation on the durable medium failed.
    Io {
        /// The failed operation (`append`, `sync`, `write_atomic`, ...).
        op: String,
        /// Storage-level detail.
        detail: String,
    },
    /// On-disk bytes failed structural or checksum validation.
    Corrupt {
        /// What failed to validate.
        detail: String,
    },
    /// The injected process-death failpoint is active: every operation on the
    /// durable medium fails, as if the process had been killed.
    Halted,
    /// The WAL previously failed to flush and refuses further appends; the
    /// engine must recover from disk before accepting new commits.
    Broken {
        /// The original failure, rendered.
        detail: String,
    },
    /// A log restart at `lsn` ([`crate::Wal::restart_at`]) while the log
    /// numbers records from another position or holds some not yet durable:
    /// the restart would drop records no checkpoint covers.
    Uncovered {
        /// Where the restart was asked to start the log.
        lsn: u64,
        /// The LSN the next append would receive.
        next_lsn: u64,
        /// The exclusive durable watermark.
        durable_to: u64,
    },
}

impl DurabilityError {
    /// Construct an [`DurabilityError::Io`] with the given operation name.
    pub fn io(op: &str, detail: impl Into<String>) -> Self {
        DurabilityError::Io {
            op: op.to_string(),
            detail: detail.into(),
        }
    }

    /// Construct a [`DurabilityError::Corrupt`].
    pub fn corrupt(detail: impl Into<String>) -> Self {
        DurabilityError::Corrupt {
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityError::Io { op, detail } => write!(f, "durable {op} failed: {detail}"),
            DurabilityError::Corrupt { detail } => write!(f, "corrupt durable state: {detail}"),
            DurabilityError::Halted => write!(f, "durable medium halted (simulated crash)"),
            DurabilityError::Broken { detail } => {
                write!(f, "wal broken by earlier failure: {detail}")
            }
            DurabilityError::Uncovered {
                lsn,
                next_lsn,
                durable_to,
            } => write!(
                f,
                "no wal restart at lsn {lsn}: next lsn {next_lsn}, durable to {durable_to}"
            ),
        }
    }
}

impl std::error::Error for DurabilityError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        assert_eq!(
            DurabilityError::io("sync", "disk full").to_string(),
            "durable sync failed: disk full"
        );
        assert_eq!(
            DurabilityError::corrupt("bad crc").to_string(),
            "corrupt durable state: bad crc"
        );
        assert_eq!(
            DurabilityError::Halted.to_string(),
            "durable medium halted (simulated crash)"
        );
    }
}
