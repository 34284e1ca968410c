//! Crash-recovery acceptance suite: ingest concurrently, hard-stop the
//! durable medium, recover from disk, and assert the recovered store is
//! bit-identical to the committed prefix of the run that crashed.
//!
//! Four scenarios: clean shutdown, mid-ingest kill (halted medium),
//! kill-during-checkpoint, and a torn WAL tail — plus the periodic
//! checkpoint cadence (one switch, hence one tick, per query), and one run
//! over real files in a temporary directory. Under them,
//! the enumerated net: one seeded script of transactions and checkpoints is
//! crashed at every append, sync and atomic write it issues (and its every
//! append torn, and dropped), and each time the reopened store must be the
//! acknowledged prefix. And a checkpoint restore reproduces row ids, so the
//! reopened system answers the CH queries bit for bit.

use htap_chbench::{query_mix_wide, ChConfig};
use htap_core::{HtapConfig, HtapSystem, MemStorage};
use htap_durability::{
    decode_wal, AppendFault, DurableStorage, FaultInjector, FaultStorage, FsStorage,
};
use htap_oltp::{CHECKPOINT_FILE, WAL_FILE};
use htap_storage::Value;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
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
/// relation from the active instance, under its key cell — held against the
/// primary-key index, which must point each key at its row and hold no
/// other key.
fn digest(system: &HtapSystem) -> BTreeMap<(String, u64), Vec<String>> {
    let oltp = system.rde().oltp();
    let mut out = BTreeMap::new();
    for name in oltp.table_names() {
        let rt = oltp.table(&name).unwrap();
        let schema = rt.twin().schema();
        let pk = schema.primary_key.unwrap();
        let rows = rt.twin().row_count();
        assert_eq!(rt.index().len() as u64, rows, "{name}: keys and rows");
        for row in 0..rows {
            let key = rt.twin().get(row, pk).unwrap().as_i64() as u64;
            let at = rt.index().get(key).map(|loc| loc.row);
            assert_eq!(at, Some(row), "{name}: key {key} of row {row}");
            let cells: Vec<String> = (0..schema.arity())
                .map(|c| value_repr(&rt.twin().get(row, c).unwrap()))
                .collect();
            out.insert((name.clone(), key), cells);
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

/// A dead medium wedges the WAL, so every commit fails: `run_oltp` reports
/// no commits instead of retrying forever.
#[test]
fn run_oltp_returns_when_every_commit_fails() {
    let injector = FaultInjector::new();
    let faulty: Arc<dyn DurableStorage> = Arc::new(FaultStorage::new(
        Arc::new(MemStorage::new()),
        injector.clone(),
    ));
    let system = HtapSystem::build_durable(config(), faulty).unwrap();
    injector.halt();
    assert_eq!(system.run_oltp(5), 0);
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
        // A first checkpoint succeeds and restarts the WAL...
        assert!(system.checkpoint_now().unwrap());
        assert!(system.run_oltp(5) > 0);
        // ...then the next one dies mid-write. Atomic replace means the
        // on-disk checkpoint still holds the previous snapshot, and the WAL
        // tail (everything after it) is still in the log.
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

/// The system over real files, end to end: a checkpoint between two runs of
/// transactions, a reopen, a second checkpoint, another reopen — each reopen
/// finds the store it left. The directory is fresh and removed at the end.
#[test]
fn real_files_recover_across_checkpoints_and_reopens() {
    let dir = std::env::temp_dir().join(format!("htap-crash-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = || {
        let storage = Arc::new(FsStorage::open(&dir).unwrap());
        HtapSystem::build_durable(config(), storage).unwrap()
    };
    let first = {
        let system = open();
        assert!(system.run_oltp(10) > 0);
        assert!(system.checkpoint_now().unwrap());
        assert!(system.run_oltp(10) > 0);
        digest(&system)
    };
    assert!(dir.join(WAL_FILE).exists() && dir.join(CHECKPOINT_FILE).exists());
    let second = {
        let system = open();
        assert_eq!(digest(&system), first);
        assert!(system.checkpoint_now().unwrap());
        assert!(system.run_oltp(5) > 0);
        digest(&system)
    };
    assert_ne!(second, first);
    assert_eq!(digest(&open()), second);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// After a checkpoint and a reopen, every CH query answers exactly as
/// before: the same rows *and* the same `WorkProfile`. The image stores rows
/// in row-id order and the restore loads them back column at a time, so the
/// reopened instances are the checkpointed ones value for value, row for
/// row, and every floating-point sum associates the same way.
#[test]
fn queries_are_bit_identical_after_a_checkpoint_restore() {
    let disk = MemStorage::new();
    let answers = |system: &HtapSystem| -> Vec<_> {
        query_mix_wide()
            .iter()
            .map(|q| system.execute_sql_with_output(&q.sql()).unwrap().1)
            .collect()
    };
    let before = {
        let system = HtapSystem::build_durable(config(), Arc::new(disk.clone())).unwrap();
        // NewOrders insert orders and order lines whose keys fall between the
        // loaded ones: key order and row order differ from here on.
        assert!(system.run_oltp(40) > 0);
        assert!(system.checkpoint_now().unwrap());
        answers(&system)
    };
    let system = HtapSystem::build_durable(config(), Arc::new(disk.clone())).unwrap();
    assert_eq!(answers(&system), before);
}

// ---------------------------------------------------------------------------
// Enumerated crash sweep
// ---------------------------------------------------------------------------

/// Transactions per phase of the sweep's script; a checkpoint follows each
/// phase but the last, so the third phase is a WAL tail over a checkpoint.
const SWEEP_PHASES: [u64; 3] = [14, 14, 6];
/// Transactions the reopened system runs before it is reopened once more.
const SWEEP_AFTERMATH: u64 = 3;

/// A database of a few hundred rows: the sweep builds it three times per
/// crashed run, and its I/O points do not depend on the population.
fn sweep_config() -> HtapConfig {
    config().with_chbench(ChConfig {
        warehouses: 1,
        districts_per_warehouse: 2,
        customers_per_district: 10,
        items: 50,
        orderlines: 300,
        seed: 7,
    })
}

/// One fingerprint of [`digest`] (the sweep keeps one per script step).
fn fingerprint(system: &HtapSystem) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    digest(system).hash(&mut hasher);
    hasher.finish()
}

/// Step `index` of the script: one transaction of the 45/43/6/6 mix, its
/// parameters a function of the index alone. Returns whether it committed.
fn sweep_txn(system: &HtapSystem, index: u64) -> bool {
    system
        .txn_driver()
        .run_one_mixed(system.rde().oltp(), 0, 0xC4A5, index)
}

/// Run the script; `after_step` sees the system after every transaction.
/// Checkpoints may fail (the medium may be dead by then). Returns each
/// transaction's outcome.
fn sweep_script(system: &HtapSystem, mut after_step: impl FnMut(&HtapSystem)) -> Vec<bool> {
    let mut outcomes = Vec::new();
    for (phase, txns) in SWEEP_PHASES.iter().enumerate() {
        for _ in 0..*txns {
            outcomes.push(sweep_txn(system, outcomes.len() as u64));
            after_step(system);
        }
        if phase + 1 < SWEEP_PHASES.len() {
            let _ = system.checkpoint_now();
        }
    }
    outcomes
}

#[derive(Debug, Clone, Copy)]
enum SweepFault {
    /// The medium dies at this I/O point (append, sync or atomic write).
    HaltAt(u64),
    /// This append lands only its first bytes and fails; the medium lives.
    TornAppend(u64),
    /// This append fails having written nothing; the medium lives.
    DroppedAppend(u64),
}

/// Crash one run of the script with `fault`, reopen, and hold the reopened
/// store against the clean run: `clean_outcomes[i]` is step `i`'s outcome
/// there and `prefix[i]` the store's fingerprint after `i` steps.
fn sweep_one(fault: SweepFault, clean_outcomes: &[bool], prefix: &[u64]) {
    let disk = MemStorage::new();
    let injector = FaultInjector::new();
    match fault {
        SweepFault::HaltAt(point) => injector.halt_at_io_point(point),
        SweepFault::TornAppend(nth) => {
            injector.schedule_append_fault(nth, AppendFault::Truncate { keep: 11 })
        }
        SweepFault::DroppedAppend(nth) => injector.schedule_append_fault(nth, AppendFault::Drop),
    }
    let faulty: Arc<dyn DurableStorage> =
        Arc::new(FaultStorage::new(Arc::new(disk.clone()), injector.clone()));
    // The first step that went differently is the transaction the fault hit:
    // its commit was refused, and with the WAL wedged so is every later one
    // that writes. None differs when the fault hit a checkpoint instead, and
    // the store never opened when it hit the WAL header's first write.
    let hit = match HtapSystem::build_durable(sweep_config(), faulty) {
        Ok(system) => {
            let outcomes = sweep_script(&system, |_| ());
            let hit = (0..outcomes.len())
                .find(|&i| outcomes[i] != clean_outcomes[i])
                .unwrap_or(outcomes.len());
            assert_eq!(
                fingerprint(&system),
                prefix[hit],
                "{fault:?}: the live store is not the acknowledged prefix"
            );
            hit
        }
        Err(_) => 0,
    };
    injector.resume();

    // "Reboot": every acknowledged commit is back; the one in flight is too
    // if its record had reached the medium whole when the sync died.
    let system = HtapSystem::build_durable(sweep_config(), Arc::new(disk.clone()))
        .unwrap_or_else(|e| panic!("{fault:?}: reopen failed: {e}"));
    let recovered = fingerprint(&system);
    let in_flight_too = prefix.get(hit + 1).copied();
    match fault {
        SweepFault::HaltAt(_) => assert!(
            recovered == prefix[hit] || Some(recovered) == in_flight_too,
            "{fault:?}: recovered neither {hit} nor {} steps",
            hit + 1
        ),
        // The record never reached the medium whole.
        _ => assert_eq!(recovered, prefix[hit], "{fault:?}: not {hit} steps"),
    }
    // The recovered store takes commits, and they survive the next reopen:
    // its log and checkpoint agree on where the next record goes.
    let first = clean_outcomes.len() as u64;
    for index in first..first + SWEEP_AFTERMATH {
        sweep_txn(&system, index);
    }
    let aftermath = fingerprint(&system);
    assert_ne!(
        aftermath, recovered,
        "{fault:?}: aftermath committed nothing"
    );
    drop(system);
    let system = HtapSystem::build_durable(sweep_config(), Arc::new(disk.clone())).unwrap();
    assert_eq!(
        fingerprint(&system),
        aftermath,
        "{fault:?}: commits after the recovery were lost"
    );
}

/// ROADMAP 3(a): count the I/O points of one clean run of the script, then
/// crash a fresh run at each of them in turn.
#[test]
fn crash_at_every_io_point_recovers_the_acknowledged_prefix() {
    let injector = FaultInjector::new();
    let storage: Arc<dyn DurableStorage> = Arc::new(FaultStorage::new(
        Arc::new(MemStorage::new()),
        injector.clone(),
    ));
    let system = HtapSystem::build_durable(sweep_config(), storage).unwrap();
    let mut prefix = vec![fingerprint(&system)];
    let clean_outcomes = sweep_script(&system, |system| prefix.push(fingerprint(system)));
    let (points, appends) = (injector.io_points_seen(), injector.appends_seen());
    drop(system);
    // The script is worth sweeping: it commits, in every phase, and both
    // checkpoints and their WAL restarts are among its points.
    let steps: u64 = SWEEP_PHASES.iter().sum();
    assert_eq!(clean_outcomes.len() as u64, steps);
    assert!(prefix.windows(2).filter(|w| w[0] != w[1]).count() as u64 >= steps / 2);
    assert!(prefix[steps as usize - 1] != prefix[steps as usize]);
    assert!(
        points >= 2 * appends + 1 + 4,
        "{points} points, {appends} appends"
    );

    for point in 0..points {
        sweep_one(SweepFault::HaltAt(point), &clean_outcomes, &prefix);
    }
    for nth in 0..appends {
        sweep_one(SweepFault::TornAppend(nth), &clean_outcomes, &prefix);
        sweep_one(SweepFault::DroppedAppend(nth), &clean_outcomes, &prefix);
    }
    println!(
        "crash sweep: {points} I/O points halted, {appends} appends torn and dropped: {} crashed runs",
        points + 2 * appends
    );
}
