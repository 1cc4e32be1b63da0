//! Process resource counters: CPU time, context switches and memory.

use std::time::Duration;

/// The `getrusage(RUSAGE_SELF)` fields the benchmark reports. Covers
/// every thread of the process, including threads that already exited.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub user: Duration,
    pub sys: Duration,
    pub max_rss_kb: u64,
    pub voluntary_switches: u64,
    pub involuntary_switches: u64,
}

impl Usage {
    pub fn now() -> Usage {
        let r = raw_rusage();
        let tv = |s: i64, us: i64| {
            Duration::from_secs(s.max(0) as u64) + Duration::from_micros(us.max(0) as u64)
        };
        Usage {
            user: tv(r[0], r[1]),
            sys: tv(r[2], r[3]),
            max_rss_kb: r[4].max(0) as u64,
            voluntary_switches: r[16].max(0) as u64,
            involuntary_switches: r[17].max(0) as u64,
        }
    }

    /// User plus system CPU time.
    pub fn cpu(&self) -> Duration {
        self.user + self.sys
    }

    pub fn switches(&self) -> u64 {
        self.voluntary_switches + self.involuntary_switches
    }
}

/// `struct rusage` as 18 machine words: two `timeval`s, then the 14 long
/// counters (`ru_maxrss` first, `ru_nvcsw`/`ru_nivcsw` last).
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn raw_rusage() -> [i64; 18] {
    let mut buf = [0i64; 18];
    // SAFETY: getrusage(RUSAGE_SELF = 0, buf) writes exactly one
    // `struct rusage` (144 bytes on x86-64 Linux, the size of `buf`) and
    // touches no other memory; the syscall clobbers only rax, rcx and r11,
    // which are declared.
    unsafe {
        let ret: i64;
        std::arch::asm!(
            "syscall",
            inlateout("rax") 98i64 => ret, // SYS_getrusage
            in("rdi") 0i64,                // RUSAGE_SELF
            in("rsi") buf.as_mut_ptr(),
            out("rcx") _,
            out("r11") _,
        );
        assert_eq!(ret, 0, "getrusage failed");
    }
    buf
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn raw_rusage() -> [i64; 18] {
    panic!("the benchmark reads process usage with a raw x86-64 Linux syscall");
}

/// Current resident set size in MiB, from `/proc/self/statm`.
pub fn rss_mb() -> f64 {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("read /proc/self/statm");
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("statm has a resident-pages field");
    pages as f64 * 4096.0 / (1024.0 * 1024.0)
}
