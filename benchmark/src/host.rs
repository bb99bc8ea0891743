//! What the benchmark reads from the host: the thread's CPU clock and the
//! process's resident memory.

/// Process memory from `/proc/self/status`, in kB.
#[derive(Clone, Copy, Debug, Default)]
pub struct Rss {
    pub now_kb: u64,
    pub peak_kb: u64,
}

pub fn read_rss() -> Rss {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    Rss {
        now_kb: field("VmRSS:"),
        peak_kb: field("VmHWM:"),
    }
}

/// Nanoseconds this thread has spent on a CPU (`CLOCK_THREAD_CPUTIME_ID`).
///
/// The simulator is single-threaded, does no I/O and never sleeps, so on a
/// quiet machine this equals wall-clock. In a shared sandbox wall-clock
/// also contains the time the hypervisor ran someone else (tens of percent
/// here, changing by the minute); the thread clock leaves that out, which
/// is what makes the time metrics repeatable.
#[cfg(target_os = "linux")]
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` is the C library's (std links it on Linux);
    // `Timespec` has the layout of `struct timespec` on 64-bit Linux and
    // `ts` is a valid, exclusive pointer for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Without a thread clock, fall back to wall-clock.
#[cfg(not(target_os = "linux"))]
pub fn thread_cpu_ns() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}
