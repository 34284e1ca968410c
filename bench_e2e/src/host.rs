//! The machine under the numbers: CPU count and model, one-off memory and
//! fsync probes, `/proc` readers for stolen CPU time and peak memory, and the
//! scratch directory the fsync probe writes to. Numbers are only ever
//! compared on one host, parent against change; these make a changed host
//! visible in the record.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;

/// CPUs this process may run on, read once: pinning a thread later narrows
/// what `available_parallelism` reports for it.
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Restrict the calling thread, and every thread it spawns afterwards, to the
/// CPUs in `cpus`. Returns whether the kernel accepted the mask (always
/// `false` off Linux, where this is a no-op).
///
/// Only the two-sided workloads pin, generators on the lower half of the
/// CPUs and the query side on the upper half — the isolation the simulated
/// topology describes. Unpinned, the kernel's first placement of the two
/// sides decided between two regimes for a whole run on the 2-CPU host this
/// was built on (query p50 15 or 21 ms, transaction p95 0.3 or 2.8 ms).
pub fn pin_current_thread(cpus: std::ops::Range<usize>) -> bool {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        // A `cpu_set_t` is 1 024 bits.
        let mut mask = [0u64; 16];
        for cpu in cpus.filter(|cpu| *cpu < 1024) {
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
        // SAFETY: `sched_setaffinity(2)` only reads `cpusetsize` bytes from
        // `mask`, which points at a live array of exactly that size; pid 0
        // names the calling thread. An empty or unavailable mask is an error
        // return, not undefined behaviour.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpus;
        false
    }
}

/// The CPUs of the transactional side (`lower`) or the analytical side of a
/// two-sided workload on a host with `nproc` CPUs; everything on a 1-CPU
/// host.
pub fn side_cpus(nproc: usize, lower: bool) -> std::ops::Range<usize> {
    let half = nproc / 2;
    match (half, lower) {
        (0, _) => 0..nproc,
        (_, true) => 0..half,
        (_, false) => half..nproc,
    }
}

/// The first `model name` of `/proc/cpuinfo`, or "unknown".
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| parse_cpu_model(&text))
        .unwrap_or_else(|| "unknown".to_string())
}

fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Peak resident set of this process in MB (`VmHWM`); 0 where `/proc` is
/// missing.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| parse_vm_hwm_kb(&text))
        .map_or(0.0, |kb| kb / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Cumulative `(stolen, total)` CPU ticks from the first line of
/// `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    parse_cpu_ticks(&std::fs::read_to_string("/proc/stat").ok()?)
}

fn parse_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user/nice.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Samples stolen CPU time over an interval: create before, read after.
pub struct StealWatch(Option<(u64, u64)>);

impl StealWatch {
    pub fn start() -> Self {
        StealWatch(cpu_ticks())
    }

    /// Percentage of all CPU time stolen by the hypervisor since `start`.
    pub fn steal_pct(&self) -> f64 {
        match (self.0, cpu_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        }
    }
}

/// Single-thread copy bandwidth in GB/s: best of five copies of a 64 MiB
/// buffer (larger than any private cache of the hosts this runs on).
pub fn memcpy_gb_per_s() -> f64 {
    const BYTES: usize = 64 << 20;
    let src = vec![1u8; BYTES];
    let mut dst = vec![0u8; BYTES];
    let mut best = f64::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        best = best.min(t.elapsed().as_secs_f64());
    }
    BYTES as f64 / best / 1e9
}

/// Median µs of 200 appends of 4 KiB each followed by `sync_data` — the
/// device cost under every group-commit batch.
pub fn fsync_p50_us(dir: &Path) -> std::io::Result<f64> {
    let path = dir.join("fsync_probe.bin");
    let mut file = std::fs::File::create(&path)?;
    let block = [7u8; 4096];
    let mut micros = Vec::with_capacity(200);
    for _ in 0..200 {
        let t = Instant::now();
        file.write_all(&block)?;
        file.sync_data()?;
        micros.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(file);
    std::fs::remove_file(&path)?;
    Ok(crate::stats::median(&micros))
}

/// A scratch directory next to the running executable — inside the build
/// directory, hence inside the checkout and ignored by git — for the fsync
/// probe; removed when dropped, on success and on failure alike.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(tag: &str) -> std::io::Result<Self> {
        let base = std::env::current_exe()?
            .parent()
            .map(Path::to_path_buf)
            .ok_or_else(|| std::io::Error::other("executable has no parent directory"))?;
        let dir = base.join(format!("bench_e2e_tmp-{}-{tag}", std::process::id()));
        // A stale directory of a killed run with the same pid must not leak
        // its WAL into this one.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_parsers_read_the_documented_fields() {
        let stat = "cpu  100 5 50 800 10 0 5 30 0 0\ncpu0 1 2 3\n";
        assert_eq!(parse_cpu_ticks(stat), Some((30, 1000)));
        assert_eq!(parse_cpu_ticks("intr 1 2"), None);
        let status = "Name:\tx\nVmHWM:\t  947048 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(947048.0));
        let cpuinfo = "processor\t: 0\nmodel name\t: Some CPU @ 2.10GHz\n";
        assert_eq!(
            parse_cpu_model(cpuinfo).as_deref(),
            Some("Some CPU @ 2.10GHz")
        );
    }

    #[test]
    fn cpu_halves_cover_the_host_without_overlap() {
        assert_eq!((side_cpus(2, true), side_cpus(2, false)), (0..1, 1..2));
        assert_eq!((side_cpus(5, true), side_cpus(5, false)), (0..2, 2..5));
        assert_eq!((side_cpus(1, true), side_cpus(1, false)), (0..1, 0..1));
    }

    #[test]
    fn pinning_a_thread_to_every_cpu_is_accepted_on_linux() {
        let accepted = std::thread::spawn(|| pin_current_thread(0..1024))
            .join()
            .unwrap();
        assert_eq!(accepted, cfg!(target_os = "linux"));
        assert!(!std::thread::spawn(|| pin_current_thread(0..0))
            .join()
            .unwrap());
    }

    #[test]
    fn scratch_dir_is_removed_on_drop() {
        let dir = ScratchDir::create("unit").unwrap();
        let path = dir.path().to_path_buf();
        std::fs::write(path.join("wal.log"), b"abc").unwrap();
        assert!(fsync_p50_us(&path).unwrap() > 0.0);
        drop(dir);
        assert!(!path.exists());
    }
}
