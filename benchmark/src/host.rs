//! What the host and the kernel know about a measured process: CPU time,
//! faults and context switches from `getrusage`, the RSS high-water mark,
//! plus the machine metadata every recorded baseline is stamped with.

use std::path::Path;
use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the harness reads Linux's 64-bit `struct rusage`");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// Linux's `struct rusage` on 64-bit targets: two `timeval`s and fourteen
/// `long`s, of which the harness reads four.
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    _ixrss: i64,
    _idrss: i64,
    _isrss: i64,
    minflt: i64,
    _majflt: i64,
    _nswap: i64,
    _inblock: i64,
    _oublock: i64,
    _msgsnd: i64,
    _msgrcv: i64,
    _nsignals: i64,
    nvcsw: i64,
    _nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

/// Whose resources [`rusage`] reads.
#[derive(Debug, Clone, Copy)]
pub enum Who {
    /// This process, all threads.
    Myself = 0,
    /// Every child this process has waited for. A rep child waits for at
    /// most one `hc3i-sim`, so this is that subprocess exactly.
    Children = -1,
}

/// A snapshot of cumulative resource use.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rusage {
    /// CPU time in user mode.
    pub user: Duration,
    /// CPU time in the kernel.
    pub sys: Duration,
    /// RSS high-water mark, MiB. Trustworthy for [`Who::Children`] only
    /// when this process was small at the spawn: `exec` seeds the new
    /// program's mark with the forking process's (so a child of the
    /// runner, which has just touched its ballast, must read
    /// [`own_peak_rss_mib`] instead).
    pub peak_rss_mib: f64,
    /// Page faults served without I/O.
    pub minor_faults: u64,
    /// Voluntary context switches (the process blocked).
    pub vol_ctx_switches: u64,
}

/// Read the kernel's resource accounting for `who`.
pub fn rusage(who: Who) -> Rusage {
    let mut raw = RawRusage::default();
    // SAFETY: `raw` is a live, writable `struct rusage` of the layout the
    // Linux 64-bit ABI defines (checked by the cfg above), and `who` is
    // one of the two constants the call accepts.
    let rc = unsafe { getrusage(who as i32, &mut raw) };
    assert_eq!(rc, 0, "getrusage failed");
    let tv = |t: &Timeval| Duration::new(t.sec as u64, t.usec as u32 * 1000);
    Rusage {
        user: tv(&raw.utime),
        sys: tv(&raw.stime),
        peak_rss_mib: raw.maxrss_kib as f64 / 1024.0,
        minor_faults: raw.minflt as u64,
        vol_ctx_switches: raw.nvcsw as u64,
    }
}

impl Rusage {
    /// Resources used between `earlier` and `self` (the RSS high-water
    /// mark is not a difference: it stays `self`'s).
    pub fn since(&self, earlier: &Rusage) -> Rusage {
        Rusage {
            user: self.user.saturating_sub(earlier.user),
            sys: self.sys.saturating_sub(earlier.sys),
            peak_rss_mib: self.peak_rss_mib,
            minor_faults: self.minor_faults - earlier.minor_faults,
            vol_ctx_switches: self.vol_ctx_switches - earlier.vol_ctx_switches,
        }
    }
}

/// This process's RSS high-water mark: `VmHWM` of `/proc/self/status`,
/// which belongs to the address space `exec` created and inherits nothing.
pub fn own_peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    vm_hwm_kib(&status).expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

fn vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Usable cores.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Filesystem type holding `path`, from the longest matching mount point
/// in `/proc/mounts` (`"unknown"` when that cannot be read).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    fs_type_from(&mounts, &path)
}

fn fs_type_from(mounts: &str, path: &Path) -> String {
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_dev, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs.to_string())
}

/// Kernel release string.
pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

/// Host-only cost: the `calibration_spin` of `hc3i_baselines`, copied —
/// an integer mix serialized through a dependent load from a 16 MiB
/// table, so cache and memory contention on a shared host shows up in it
/// the way it shows up in the simulator's pointer-heavy dispatch. Returns
/// iterations per second (best of `reps`: the quiet-floor rate).
pub fn calibration_iters_per_s(reps: usize) -> f64 {
    const TABLE_WORDS: usize = (16 << 20) / 8;
    const ITERS: u64 = 1_000_000;
    let mut table = vec![0u64; TABLE_WORDS];
    let mut x = 0x9e3779b97f4a7c15u64;
    for (i, w) in table.iter_mut().enumerate() {
        x = x.wrapping_mul(0xd1342543de82ef95).rotate_left(23) ^ i as u64;
        *w = x;
    }
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = std::time::Instant::now();
        for i in 0..ITERS {
            x = x.wrapping_mul(0xd1342543de82ef95).rotate_left(23) ^ i;
            x ^= table[(x >> 17) as usize & (TABLE_WORDS - 1)];
        }
        std::hint::black_box(x);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    ITERS as f64 / best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rusage_moves_with_work() {
        let before = rusage(Who::Myself);
        let mut v = vec![0u8; 8 << 20];
        for (i, b) in v.iter_mut().enumerate() {
            *b = i as u8;
        }
        std::hint::black_box(&v);
        let used = rusage(Who::Myself).since(&before);
        assert!(used.minor_faults >= 1000, "{used:?}");
        assert!(own_peak_rss_mib() > 8.0);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(vm_hwm_kib(status), Some(2048));
        assert_eq!(vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn longest_mount_wins() {
        let mounts = "proc /proc proc rw 0 0\n/dev/vda / ext4 rw 0 0\ntmpfs /tmp tmpfs rw 0 0\n";
        assert_eq!(fs_type_from(mounts, Path::new("/tmp/x/y")), "tmpfs");
        assert_eq!(fs_type_from(mounts, Path::new("/root/repo")), "ext4");
        assert_eq!(fs_type_from("", Path::new("/root")), "unknown");
    }
}
