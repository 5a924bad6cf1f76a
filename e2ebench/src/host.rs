//! Host clocks. Every host figure is on-CPU time of the whole process, so
//! the refinement thread the batch pipeline spawns per query is counted
//! with the thread that drives the loop; wall time is kept only to print
//! beside it.

use std::hash::{DefaultHasher, Hasher};
use std::time::Instant;

/// On-CPU nanoseconds of the whole process, every thread it ever ran
/// included: `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`, the nanosecond form
/// of utime + stime.
fn process_cpu_ns() -> u64 {
    const SYS_CLOCK_GETTIME: i64 = 228;
    const CLOCK_PROCESS_CPUTIME_ID: i64 = 2;
    // struct timespec { tv_sec: i64, tv_nsec: i64 }
    let mut ts = [0i64; 2];
    let ret: i64;
    // SAFETY: clock_gettime writes one 16-byte timespec through `rsi`,
    // which points at `ts`, a live, writable, 16-byte local; the syscall
    // touches no other memory and clobbers only rax, rcx and r11, all of
    // which are declared.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_CLOCK_GETTIME => ret,
            in("rdi") CLOCK_PROCESS_CPUTIME_ID,
            in("rsi") ts.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    assert_eq!(ret, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts[0] as u64 * 1_000_000_000 + ts[1] as u64
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!("the process CPU clock reads clock_gettime through a raw x86-64 Linux syscall");

/// A started measurement of process on-CPU time, with wall time beside it.
pub struct CpuClock {
    cpu_ns: u64,
    wall: Instant,
}

impl CpuClock {
    pub fn start() -> Self {
        Self {
            cpu_ns: process_cpu_ns(),
            wall: Instant::now(),
        }
    }

    /// On-CPU seconds since `start`.
    pub fn seconds(&self) -> f64 {
        (process_cpu_ns() - self.cpu_ns) as f64 * 1e-9
    }

    /// Wall seconds since `start`.
    pub fn wall_seconds(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }
}

/// Peak resident set (`VmHWM` of `/proc/self/status`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// On-CPU milliseconds of [`reference_loop_ms`] on the 2-core x86-64 box
/// the workloads were sized on; normalized host figures are scaled to it.
pub const REFERENCE_LOOP_MS: f64 = 20.0;

/// A fixed piece of CPU work (sort 2^19 pseudo-random keys, then hash
/// them) whose on-CPU time tracks the machine's current speed. Returns its
/// on-CPU milliseconds.
pub fn reference_loop_ms() -> f64 {
    let clock = CpuClock::start();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut keys: Vec<u64> = (0..1 << 19)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    keys.sort_unstable();
    let mut h = DefaultHasher::new();
    for k in &keys {
        h.write_u64(*k);
    }
    std::hint::black_box(h.finish());
    clock.seconds() * 1e3
}
