//! Crash-recovery acceptance suite: ingest concurrently, hard-stop the
//! durable medium, recover from disk, and assert the recovered store is
//! bit-identical to the committed prefix of the run that crashed.
//!
//! Four scenarios: clean shutdown, mid-ingest kill (halted medium),
//! kill-during-checkpoint, and a torn WAL tail — plus the periodic
//! checkpoint cadence (one switch, hence one tick, per query).

use htap_core::{HtapConfig, HtapSystem, MemStorage};
use htap_durability::{decode_wal, DurableStorage, FaultInjector, FaultStorage};
use htap_oltp::WAL_FILE;
use htap_storage::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Bit-exact printable form of a value (`F64` via `to_bits`, so `-0.0`,
/// `NaN` payloads and every last mantissa bit participate in the compare).
fn value_repr(v: &Value) -> String {
    match v {
        Value::I64(x) => format!("i64:{x}"),
        Value::I32(x) => format!("i32:{x}"),
        Value::F64(x) => format!("f64:{:016x}", x.to_bits()),
        Value::Str(s) => format!("str:{s}"),
    }
}

/// Key-addressed digest of the whole OLTP store: every row of every
/// relation, read through the primary-key index from the active instance.
fn digest(system: &HtapSystem) -> BTreeMap<(String, u64), Vec<String>> {
    let oltp = system.rde().oltp();
    let mut out = BTreeMap::new();
    for name in oltp.table_names() {
        let rt = oltp.table(&name).unwrap();
        let columns = rt.twin().schema().columns.len();
        for (key, loc) in rt.index().entries() {
            let row: Vec<String> = (0..columns)
                .map(|c| value_repr(&rt.twin().get(loc.row, c).unwrap()))
                .collect();
            out.insert((name.clone(), key), row);
        }
    }
    out
}

fn config() -> HtapConfig {
    let mut cfg = HtapConfig::tiny();
    // Periodic checkpoints off by default; scenarios trigger them explicitly.
    cfg.durability.checkpoint_interval_switches = 0;
    cfg.durability.flush_interval_micros = 50;
    cfg
}

#[test]
fn clean_shutdown_recovers_bit_identical() {
    let disk = MemStorage::new();
    let before = {
        let system = HtapSystem::build_durable(config(), Arc::new(disk.clone())).unwrap();
        assert!(system.run_oltp(10) > 0);
        digest(&system)
    };
    let system = HtapSystem::build_durable(config(), Arc::new(disk.clone())).unwrap();
    assert_eq!(digest(&system), before);
    // The recovered system keeps working — and keeps logging.
    assert!(system.run_oltp(1) > 0);
}

#[test]
fn mid_ingest_kill_recovers_exactly_the_durable_commits() {
    let disk = MemStorage::new();
    let injector = FaultInjector::new();
    let faulty: Arc<dyn DurableStorage> =
        Arc::new(FaultStorage::new(Arc::new(disk.clone()), injector.clone()));
    let committed_prefix = {
        let system = HtapSystem::build_durable(config(), faulty).unwrap();
        assert!(system.start_oltp_ingest() > 0);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while system.oltp_live_counts().committed < 50 {
            assert!(
                std::time::Instant::now() < deadline,
                "no commits within 30s"
            );
            std::thread::yield_now();
        }
        // Hard stop: the medium dies mid-ingest. Commits whose WAL append
        // had not fsynced yet fail and are never applied (WAL-before-apply),
        // so the live committed state IS the durable state.
        injector.halt();
        let report = system.stop_oltp_ingest();
        assert!(report.committed() >= 50);
        digest(&system)
    };
    assert!(!committed_prefix.is_empty());
    // "Reboot": the medium comes back with exactly the bytes it held.
    injector.resume();
    let system = HtapSystem::build_durable(config(), Arc::new(disk.clone())).unwrap();
    assert_eq!(digest(&system), committed_prefix);
    assert!(system.run_oltp(1) > 0);
}

/// `checkpoint_interval_switches = N` means every N queries: a query
/// crosses the switch gate once, so eight queries at interval 4 take exactly
/// two checkpoints — and what they captured plus the WAL tail recovers
/// bit-identically.
#[test]
fn periodic_checkpoints_tick_once_per_query() {
    let disk = MemStorage::new();
    let mut cfg = config();
    cfg.durability.checkpoint_interval_switches = 4;
    let before = {
        let system = HtapSystem::build_durable(cfg.clone(), Arc::new(disk.clone())).unwrap();
        for _ in 0..8 {
            assert!(system.run_oltp(2) > 0);
            system
                .execute_sql("SELECT COUNT(*) FROM orderline")
                .unwrap();
        }
        let stats = system.rde().oltp().durability().unwrap().stats();
        assert_eq!(stats.switches_seen, 8);
        assert_eq!(stats.checkpoints_taken, 2);
        assert_eq!(stats.checkpoint_errors, 0);
        // A tail after the last checkpoint, so recovery replays on top of it.
        assert!(system.run_oltp(2) > 0);
        digest(&system)
    };
    let system = HtapSystem::build_durable(cfg, Arc::new(disk.clone())).unwrap();
    assert_eq!(digest(&system), before);
    assert!(system.run_oltp(1) > 0);
}

#[test]
fn kill_during_checkpoint_falls_back_to_previous_checkpoint_plus_tail() {
    let disk = MemStorage::new();
    let injector = FaultInjector::new();
    let faulty: Arc<dyn DurableStorage> =
        Arc::new(FaultStorage::new(Arc::new(disk.clone()), injector.clone()));
    let before = {
        let system = HtapSystem::build_durable(config(), faulty).unwrap();
        assert!(system.run_oltp(5) > 0);
        // A first checkpoint succeeds and truncates the WAL...
        assert!(system.checkpoint_now().unwrap());
        assert!(system.run_oltp(5) > 0);
        // ...then the next one dies mid-write. Atomic replace means the
        // on-disk checkpoint still holds the previous snapshot, and the WAL
        // tail (everything after it) was never truncated.
        injector.set_fail_atomic_writes(true);
        assert!(system.checkpoint_now().is_err());
        digest(&system)
    };
    injector.set_fail_atomic_writes(false);
    let system = HtapSystem::build_durable(config(), Arc::new(disk.clone())).unwrap();
    assert_eq!(digest(&system), before);
    assert!(system.run_oltp(1) > 0);
}

#[test]
fn torn_wal_tail_recovers_exactly_the_valid_prefix() {
    let disk = MemStorage::new();
    let before = {
        let system = HtapSystem::build_durable(config(), Arc::new(disk.clone())).unwrap();
        assert!(system.run_oltp(10) > 0);
        digest(&system)
    };
    let wal = disk.bytes(WAL_FILE).unwrap();
    let full = decode_wal(&wal).unwrap();
    assert!(full.records.len() >= 3, "need a few records to tear");

    // Tear the file mid-record: find a cut that lands inside the frame of
    // the third-from-last record (decode then yields only the records before
    // it, and reports the byte boundary of that valid prefix).
    let keep_records = full.records.len() - 3;
    let mut cut = wal.len();
    while decode_wal(&wal[..cut]).map_or(true, |s| s.records.len() > keep_records) {
        cut -= 1;
    }
    let seg = decode_wal(&wal[..cut]).unwrap();
    assert_eq!(seg.records.len(), keep_records);
    let boundary = seg.valid_len;
    assert!(boundary < cut, "cut must land mid-record");

    let torn_disk = MemStorage::new();
    torn_disk.set_bytes(WAL_FILE, wal[..cut].to_vec());
    // Control: the same disk truncated exactly at the record boundary.
    let clean_disk = MemStorage::new();
    clean_disk.set_bytes(WAL_FILE, wal[..boundary].to_vec());

    let torn = HtapSystem::build_durable(config(), Arc::new(torn_disk.clone())).unwrap();
    let clean = HtapSystem::build_durable(config(), Arc::new(clean_disk)).unwrap();
    // Torn tail == committed prefix, bit-identical; and both differ from the
    // full run (the torn records really are gone).
    assert_eq!(digest(&torn), digest(&clean));
    assert_ne!(digest(&torn), before);
    // Recovery repaired the file in place: the torn bytes are gone from disk
    // and new commits append cleanly after the valid prefix.
    assert_eq!(torn_disk.bytes(WAL_FILE).unwrap().len(), boundary);
    assert!(torn.run_oltp(1) > 0);
}
