//! Injectable durable-file abstraction and its implementations.
//!
//! All durability I/O goes through two traits so that crash tests can swap
//! the medium without touching the WAL or checkpoint logic:
//!
//! * [`DurableFile`] — an append-only handle with an explicit `sync`
//!   (fsync) barrier;
//! * [`DurableStorage`] — a flat namespace of named durable files with
//!   whole-file read, atomic replace (temp file + rename) and append-handle
//!   opening. Nothing is ever deleted: a checkpoint replaces its file, and
//!   the log restart behind it replaces the log with a bare header.
//!
//! Three implementations ship:
//!
//! * [`FsStorage`] — real files in a directory, with real fsyncs (the
//!   crash-recovery suite runs the system over it end to end; the benchmark
//!   uses [`MemStorage`]);
//! * [`MemStorage`] — an in-memory "disk" shared through an `Arc`, so a test
//!   can discard every in-process structure and still recover from the bytes
//!   that survived;
//! * [`FaultStorage`] — a decorator driven by a [`FaultInjector`] that can
//!   drop, truncate or bit-flip individual appends, fail fsyncs and atomic
//!   writes, or halt the medium entirely (simulated process death).

use crate::error::DurabilityError;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};

pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A panicking holder poisons a std mutex; the guarded state here is
    // plain bytes/counters and stays structurally valid, so recover the
    // guard rather than propagate the poison.
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// An append-only durable file handle.
pub trait DurableFile: Send {
    /// Append bytes to the end of the file. The bytes are not durable until
    /// [`DurableFile::sync`] returns.
    fn append(&mut self, data: &[u8]) -> Result<(), DurabilityError>;
    /// Durability barrier: block until every previously appended byte has
    /// reached the durable medium (fsync).
    fn sync(&mut self) -> Result<(), DurabilityError>;
}

/// A flat namespace of named durable files.
pub trait DurableStorage: Send + Sync {
    /// Open (creating if absent) a file for appending; the handle is
    /// positioned at the current end of the file. A file this creates is
    /// not durable until its directory is synced, which `open_append` does
    /// not do: callers create a file through
    /// [`DurableStorage::write_atomic`] first (the WAL writes its header
    /// that way) and open it for appending after.
    fn open_append(&self, name: &str) -> Result<Box<dyn DurableFile>, DurabilityError>;
    /// Read the full contents of a file; `Ok(None)` if it does not exist.
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, DurabilityError>;
    /// Atomically replace the contents of a file (temp file + rename): after
    /// a crash the file holds either the old or the new bytes, never a mix.
    fn write_atomic(&self, name: &str, data: &[u8]) -> Result<(), DurabilityError>;
}

// ---------------------------------------------------------------------------
// Real filesystem
// ---------------------------------------------------------------------------

/// Durable storage backed by real files in one directory.
#[derive(Debug, Clone)]
pub struct FsStorage {
    dir: std::path::PathBuf,
}

impl FsStorage {
    /// Open (creating if needed) the directory `dir` as a storage namespace.
    pub fn open(dir: impl Into<std::path::PathBuf>) -> Result<Self, DurabilityError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| DurabilityError::io("create_dir", e.to_string()))?;
        Ok(FsStorage { dir })
    }

    fn path(&self, name: &str) -> std::path::PathBuf {
        self.dir.join(name)
    }
}

struct FsFile {
    file: std::fs::File,
}

impl DurableFile for FsFile {
    fn append(&mut self, data: &[u8]) -> Result<(), DurabilityError> {
        self.file
            .write_all(data)
            .map_err(|e| DurabilityError::io("append", e.to_string()))
    }

    fn sync(&mut self) -> Result<(), DurabilityError> {
        self.file
            .sync_data()
            .map_err(|e| DurabilityError::io("sync", e.to_string()))
    }
}

impl DurableStorage for FsStorage {
    fn open_append(&self, name: &str) -> Result<Box<dyn DurableFile>, DurabilityError> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))
            .map_err(|e| DurabilityError::io("open_append", e.to_string()))?;
        Ok(Box::new(FsFile { file }))
    }

    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, DurabilityError> {
        match std::fs::read(self.path(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(DurabilityError::io("read", e.to_string())),
        }
    }

    fn write_atomic(&self, name: &str, data: &[u8]) -> Result<(), DurabilityError> {
        let tmp = self.path(&format!("{name}.tmp"));
        let fin = self.path(name);
        let io = |e: std::io::Error| DurabilityError::io("write_atomic", e.to_string());
        {
            let mut f = std::fs::File::create(&tmp).map_err(io)?;
            f.write_all(data).map_err(io)?;
            f.sync_data().map_err(io)?;
        }
        std::fs::rename(&tmp, &fin).map_err(io)?;
        // Persist the rename itself.
        sync_dir(&self.dir)
    }
}

/// Make the entries of directory `dir` durable — a rename or a create in it
/// is not until its directory is synced.
fn sync_dir(dir: &std::path::Path) -> Result<(), DurabilityError> {
    std::fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| DurabilityError::io("sync_dir", e.to_string()))
}

// ---------------------------------------------------------------------------
// In-memory "disk"
// ---------------------------------------------------------------------------

/// An in-memory durable medium. Clones share the same underlying bytes, so a
/// crash test can tear down every in-process engine structure while the
/// "disk" — this map — survives for recovery.
#[derive(Debug, Clone, Default)]
pub struct MemStorage {
    files: Arc<Mutex<BTreeMap<String, Vec<u8>>>>,
}

impl MemStorage {
    /// Fresh empty medium.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raw bytes of a file (test hook for corruption scenarios).
    pub fn bytes(&self, name: &str) -> Option<Vec<u8>> {
        lock(&self.files).get(name).cloned()
    }

    /// Overwrite the raw bytes of a file (test hook: simulate a torn tail by
    /// truncating, or silent media corruption by flipping bits).
    pub fn set_bytes(&self, name: &str, data: Vec<u8>) {
        lock(&self.files).insert(name.to_string(), data);
    }
}

struct MemFile {
    files: Arc<Mutex<BTreeMap<String, Vec<u8>>>>,
    name: String,
}

impl DurableFile for MemFile {
    fn append(&mut self, data: &[u8]) -> Result<(), DurabilityError> {
        lock(&self.files)
            .entry(self.name.clone())
            .or_default()
            .extend_from_slice(data);
        Ok(())
    }

    fn sync(&mut self) -> Result<(), DurabilityError> {
        Ok(())
    }
}

impl DurableStorage for MemStorage {
    fn open_append(&self, name: &str) -> Result<Box<dyn DurableFile>, DurabilityError> {
        lock(&self.files).entry(name.to_string()).or_default();
        Ok(Box::new(MemFile {
            files: Arc::clone(&self.files),
            name: name.to_string(),
        }))
    }

    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, DurabilityError> {
        Ok(lock(&self.files).get(name).cloned())
    }

    fn write_atomic(&self, name: &str, data: &[u8]) -> Result<(), DurabilityError> {
        lock(&self.files).insert(name.to_string(), data.to_vec());
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// A fault to apply to one append on the durable medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendFault {
    /// The append fails having written nothing (power cut before the write).
    Drop,
    /// The append fails after writing only the first `keep` bytes (torn
    /// write: power cut mid-write).
    Truncate {
        /// Bytes that reach the medium before the cut.
        keep: usize,
    },
    /// The append "succeeds" but the byte at `offset` has bit `bit` flipped
    /// on the medium (silent corruption; only the checksum can catch it).
    BitFlip {
        /// Byte offset within this append.
        offset: usize,
        /// Bit index 0..8 within the byte.
        bit: u8,
    },
}

#[derive(Debug, Default)]
struct FaultState {
    append_seq: u64,
    append_faults: BTreeMap<u64, AppendFault>,
    failing_syncs: u64,
    fail_atomic_writes: bool,
    halted: bool,
    /// Appends, syncs and atomic writes attempted so far, on any file.
    io_points: u64,
    /// The I/O point at which the medium halts by itself.
    halt_at: Option<u64>,
}

impl FaultState {
    /// Count one append, sync or atomic write, halting the medium if this is
    /// the point it was told to die at; fails if it is (now) halted.
    fn enter_io_point(&mut self) -> Result<(), DurabilityError> {
        if self.halt_at == Some(self.io_points) {
            self.halted = true;
        }
        if self.halted {
            return Err(DurabilityError::Halted);
        }
        self.io_points += 1;
        Ok(())
    }
}

/// Shared controller for a [`FaultStorage`]. Cloning shares the schedule, so
/// a test can keep a handle while the engine owns the storage.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    inner: Arc<Mutex<FaultState>>,
}

impl FaultInjector {
    /// New injector with no scheduled faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `fault` for the `nth` append (0-based, counted across every
    /// file of the wrapped storage).
    pub fn schedule_append_fault(&self, nth: u64, fault: AppendFault) {
        lock(&self.inner).append_faults.insert(nth, fault);
    }

    /// Appends performed so far on the wrapped storage.
    pub fn appends_seen(&self) -> u64 {
        lock(&self.inner).append_seq
    }

    /// Make the next `n` syncs fail.
    pub fn fail_syncs(&self, n: u64) {
        lock(&self.inner).failing_syncs = n;
    }

    /// Make every atomic replace fail (checkpoint kill point) until cleared.
    pub fn set_fail_atomic_writes(&self, fail: bool) {
        lock(&self.inner).fail_atomic_writes = fail;
    }

    /// Simulated process death: every subsequent operation on the wrapped
    /// medium fails with [`DurabilityError::Halted`]. Bytes already written
    /// survive and stay readable once [`FaultInjector::resume`] is called.
    pub fn halt(&self) {
        lock(&self.inner).halted = true;
    }

    /// Lift a [`FaultInjector::halt`] (the "reboot" before recovery).
    pub fn resume(&self) {
        let mut st = lock(&self.inner);
        st.halted = false;
        st.halt_at = None;
    }

    /// I/O points passed so far: every append, sync and atomic write on the
    /// wrapped storage that was let through, in the order they were issued.
    /// A crash sweep counts them in one clean run and then dies at each.
    pub fn io_points_seen(&self) -> u64 {
        lock(&self.inner).io_points
    }

    /// [`FaultInjector::halt`] the medium by itself when the `nth` I/O point
    /// (0-based, counted as [`FaultInjector::io_points_seen`] does) is
    /// reached: that operation and every later one fails, nothing of it
    /// reaches the medium.
    pub fn halt_at_io_point(&self, nth: u64) {
        lock(&self.inner).halt_at = Some(nth);
    }

    fn check_halted(&self) -> Result<(), DurabilityError> {
        if lock(&self.inner).halted {
            Err(DurabilityError::Halted)
        } else {
            Ok(())
        }
    }

    fn next_append_fault(&self) -> Result<Option<AppendFault>, DurabilityError> {
        let mut st = lock(&self.inner);
        st.enter_io_point()?;
        let seq = st.append_seq;
        st.append_seq += 1;
        Ok(st.append_faults.remove(&seq))
    }

    fn take_sync_fault(&self) -> Result<bool, DurabilityError> {
        let mut st = lock(&self.inner);
        st.enter_io_point()?;
        if st.failing_syncs > 0 {
            st.failing_syncs -= 1;
            Ok(true)
        } else {
            Ok(false)
        }
    }
}

/// Fault-injecting decorator around any [`DurableStorage`].
#[derive(Clone)]
pub struct FaultStorage {
    inner: Arc<dyn DurableStorage>,
    injector: FaultInjector,
}

impl FaultStorage {
    /// Wrap `inner`, controlled by `injector`.
    pub fn new(inner: Arc<dyn DurableStorage>, injector: FaultInjector) -> Self {
        FaultStorage { inner, injector }
    }

    /// The controlling injector.
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }
}

struct FaultFile {
    inner: Box<dyn DurableFile>,
    injector: FaultInjector,
}

impl DurableFile for FaultFile {
    fn append(&mut self, data: &[u8]) -> Result<(), DurabilityError> {
        match self.injector.next_append_fault()? {
            None => self.inner.append(data),
            Some(AppendFault::Drop) => Err(DurabilityError::io("append", "injected drop")),
            Some(AppendFault::Truncate { keep }) => {
                let keep = keep.min(data.len());
                self.inner.append(&data[..keep])?;
                Err(DurabilityError::io("append", "injected torn write"))
            }
            Some(AppendFault::BitFlip { offset, bit }) => {
                let mut corrupt = data.to_vec();
                if let Some(byte) = corrupt.get_mut(offset % data.len().max(1)) {
                    *byte ^= 1 << (bit % 8);
                }
                // Silent corruption: the writer never learns.
                self.inner.append(&corrupt)
            }
        }
    }

    fn sync(&mut self) -> Result<(), DurabilityError> {
        if self.injector.take_sync_fault()? {
            return Err(DurabilityError::io("sync", "injected fsync failure"));
        }
        self.inner.sync()
    }
}

impl DurableStorage for FaultStorage {
    fn open_append(&self, name: &str) -> Result<Box<dyn DurableFile>, DurabilityError> {
        self.injector.check_halted()?;
        Ok(Box::new(FaultFile {
            inner: self.inner.open_append(name)?,
            injector: self.injector.clone(),
        }))
    }

    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, DurabilityError> {
        self.injector.check_halted()?;
        self.inner.read(name)
    }

    fn write_atomic(&self, name: &str, data: &[u8]) -> Result<(), DurabilityError> {
        {
            let mut st = lock(&self.injector.inner);
            st.enter_io_point()?;
            if st.fail_atomic_writes {
                return Err(DurabilityError::io("write_atomic", "injected failure"));
            }
        }
        self.inner.write_atomic(name, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_appends_and_reads() {
        let s = MemStorage::new();
        let mut f = s.open_append("wal").unwrap();
        f.append(b"abc").unwrap();
        f.append(b"def").unwrap();
        f.sync().unwrap();
        assert_eq!(s.read("wal").unwrap().unwrap(), b"abcdef");
        assert_eq!(s.read("missing").unwrap(), None);
        s.write_atomic("wal", b"xyz").unwrap();
        assert_eq!(s.read("wal").unwrap().unwrap(), b"xyz");
    }

    #[test]
    fn mem_storage_clones_share_the_disk() {
        let s = MemStorage::new();
        let clone = s.clone();
        s.open_append("f").unwrap().append(b"123").unwrap();
        assert_eq!(clone.read("f").unwrap().unwrap(), b"123");
    }

    #[test]
    fn fs_storage_round_trip() {
        let dir = std::env::temp_dir().join(format!("htap-dur-test-{}", std::process::id()));
        let s = FsStorage::open(&dir).unwrap();
        let mut f = s.open_append("wal").unwrap();
        f.append(b"hello").unwrap();
        f.sync().unwrap();
        assert_eq!(s.read("wal").unwrap().unwrap(), b"hello");
        // Reopening appends at the end.
        let mut f2 = s.open_append("wal").unwrap();
        f2.append(b" world").unwrap();
        f2.sync().unwrap();
        assert_eq!(s.read("wal").unwrap().unwrap(), b"hello world");
        s.write_atomic("ckpt", b"snapshot").unwrap();
        assert_eq!(s.read("ckpt").unwrap().unwrap(), b"snapshot");
        assert_eq!(s.read("missing").unwrap(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_directory_sync_that_fails_is_a_typed_error() {
        let dir = std::env::temp_dir().join(format!("htap-dur-missing-{}", std::process::id()));
        assert!(sync_dir(&std::env::temp_dir()).is_ok());
        assert!(matches!(
            sync_dir(&dir),
            Err(DurabilityError::Io { op, .. }) if op == "sync_dir"
        ));
    }

    #[test]
    fn injected_drop_writes_nothing() {
        let mem = MemStorage::new();
        let inj = FaultInjector::new();
        let s = FaultStorage::new(Arc::new(mem.clone()), inj.clone());
        inj.schedule_append_fault(1, AppendFault::Drop);
        let mut f = s.open_append("wal").unwrap();
        f.append(b"first").unwrap();
        assert!(f.append(b"second").is_err());
        f.append(b"third").unwrap();
        assert_eq!(mem.read("wal").unwrap().unwrap(), b"firstthird");
        assert_eq!(inj.appends_seen(), 3);
    }

    #[test]
    fn injected_truncate_tears_the_write() {
        let mem = MemStorage::new();
        let inj = FaultInjector::new();
        let s = FaultStorage::new(Arc::new(mem.clone()), inj.clone());
        inj.schedule_append_fault(0, AppendFault::Truncate { keep: 2 });
        let mut f = s.open_append("wal").unwrap();
        assert!(f.append(b"abcdef").is_err());
        assert_eq!(mem.read("wal").unwrap().unwrap(), b"ab");
    }

    #[test]
    fn injected_bit_flip_is_silent() {
        let mem = MemStorage::new();
        let inj = FaultInjector::new();
        let s = FaultStorage::new(Arc::new(mem.clone()), inj.clone());
        inj.schedule_append_fault(0, AppendFault::BitFlip { offset: 1, bit: 0 });
        let mut f = s.open_append("wal").unwrap();
        f.append(&[0u8, 0, 0]).unwrap();
        assert_eq!(mem.read("wal").unwrap().unwrap(), vec![0u8, 1, 0]);
    }

    #[test]
    fn halt_fails_everything_until_resume() {
        let mem = MemStorage::new();
        let inj = FaultInjector::new();
        let s = FaultStorage::new(Arc::new(mem.clone()), inj.clone());
        let mut f = s.open_append("wal").unwrap();
        f.append(b"pre").unwrap();
        inj.halt();
        assert_eq!(f.append(b"post"), Err(DurabilityError::Halted));
        assert_eq!(f.sync(), Err(DurabilityError::Halted));
        assert_eq!(s.read("wal"), Err(DurabilityError::Halted));
        assert_eq!(s.write_atomic("x", b""), Err(DurabilityError::Halted));
        inj.resume();
        assert_eq!(s.read("wal").unwrap().unwrap(), b"pre");
    }

    #[test]
    fn io_points_count_every_write_and_the_medium_can_die_at_one() {
        let mem = MemStorage::new();
        let inj = FaultInjector::new();
        let s = FaultStorage::new(Arc::new(mem.clone()), inj.clone());
        let mut f = s.open_append("wal").unwrap();
        f.append(b"a").unwrap();
        f.sync().unwrap();
        s.write_atomic("ckpt", b"x").unwrap();
        // Reads and opens are not points: they change nothing on the medium.
        s.read("wal").unwrap();
        assert_eq!(inj.io_points_seen(), 3);

        inj.halt_at_io_point(4);
        f.append(b"b").unwrap();
        assert_eq!(f.sync(), Err(DurabilityError::Halted));
        assert_eq!(s.write_atomic("ckpt", b"y"), Err(DurabilityError::Halted));
        assert_eq!(inj.io_points_seen(), 4, "a refused operation is no point");
        inj.resume();
        assert_eq!(mem.bytes("wal").unwrap(), b"ab");
        assert_eq!(mem.bytes("ckpt").unwrap(), b"x");
        f.sync().unwrap();
    }

    #[test]
    fn sync_and_atomic_write_faults() {
        let mem = MemStorage::new();
        let inj = FaultInjector::new();
        let s = FaultStorage::new(Arc::new(mem.clone()), inj.clone());
        let mut f = s.open_append("wal").unwrap();
        inj.fail_syncs(1);
        assert!(f.sync().is_err());
        assert!(f.sync().is_ok());
        inj.set_fail_atomic_writes(true);
        assert!(s.write_atomic("ckpt", b"x").is_err());
        inj.set_fail_atomic_writes(false);
        assert!(s.write_atomic("ckpt", b"x").is_ok());
    }
}
