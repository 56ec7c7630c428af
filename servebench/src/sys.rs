//! Process accounting: CPU time and resident memory.

use std::path::Path;

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s followed by
/// fourteen `long` counters.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU time of the whole process, in microseconds.
pub fn cpu_us() -> u64 {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value with the layout of the C
    // `struct rusage` on 64-bit Linux, which `getrusage` fills in full.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    let us = |tv: [i64; 2]| tv[0] as u64 * 1_000_000 + tv[1] as u64;
    us(usage.utime) + us(usage.stime)
}

/// The `field` line (`VmHWM`, `VmRSS`) of this process's status, in KiB.
fn status_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// `VmHWM` (peak resident set) of this process, in KiB.
pub fn peak_rss_kib() -> u64 {
    status_kib("VmHWM")
}

/// `VmRSS` (current resident set) of this process, in KiB.
pub fn rss_kib() -> u64 {
    status_kib("VmRSS")
}

/// Reset this process's `VmHWM` to its current resident set, so that a
/// later [`peak_rss_kib`] reports the peak from now on only.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("reset peak RSS (/proc/self/clear_refs): {e}"))
}

/// Total bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

const POLLIN: i16 = 0x1;

/// Wait until `fd` is readable or `timeout` passes; returns whether it is
/// readable (or in an error state a read will report). Unlike a socket
/// read timeout, which the kernel rounds up to whole scheduler ticks,
/// `ppoll` sleeps on a high-resolution timer, so an open-loop generator
/// can wake for its next send on time.
pub fn wait_readable(fd: i32, timeout: std::time::Duration) -> bool {
    let mut pfd = PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfd` and `ts` are live for the call, `nfds` is 1 to match
    // the single `pollfd`, and a null signal mask means "leave it as is".
    let rc = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    rc > 0
}
