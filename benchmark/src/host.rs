//! What the benchmark reads from the host about its own process: CPU
//! time, peak resident set, the time the host stole from the guest, and
//! how fast the host runs a fixed memory-bound loop right now.
//!
//! On a shared virtual host the wall time of a run also counts the time
//! the vCPU was handed to another guest (steal) and the time the run
//! thread waited for a core. Process CPU time counts neither: the guest
//! kernel charges steal to no task. What CPU time still counts is how
//! busy the other guests keep the shared cache, memory and clock: the
//! same run's CPU time swings by half for tens of seconds to minutes at a
//! time. The [`Canary`] measures that swing between runs, and the gated
//! run times are divided by it.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds all threads of this process have used so far.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec (64-bit `time_t` and
    // `long` on the 64-bit Linux targets this file compiles for).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Cycle entries of the canary's table: 32 MiB of `u32`, larger than a
/// core's L2 and a fair share of the shared L3, like the simulator's
/// working set.
const CANARY_ENTRIES: usize = 1 << 23;

/// Steps of one canary walk (about 0.2 CPU s on the reference host).
const CANARY_STEPS: u32 = 1 << 20;

/// A fixed memory-latency-bound loop: one walk along a random cycle
/// through a table built once, so that a walk allocates nothing and its
/// CPU time depends only on how fast the host serves the loads.
pub struct Canary {
    next: Vec<u32>,
}

impl Canary {
    /// Resident size of the table, MiB.
    pub const MIB: f64 = (CANARY_ENTRIES * 4) as f64 / (1024.0 * 1024.0);

    /// Build the table: one random cycle over all entries, the same on
    /// every run of the benchmark. Sattolo's shuffle of the identity turns
    /// it into a single cycle in place, so building takes no more memory
    /// than the table.
    pub fn new() -> Canary {
        let mut next: Vec<u32> = (0..CANARY_ENTRIES as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..next.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        Canary { next }
    }

    /// CPU seconds of one walk.
    pub fn measure(&self) -> f64 {
        let c0 = process_cpu_s();
        let mut i = 0u32;
        for _ in 0..CANARY_STEPS {
            i = self.next[i as usize];
        }
        std::hint::black_box(i);
        process_cpu_s() - c0
    }
}

/// Jiffies the host has stolen from this guest's vCPUs since boot (the
/// `steal` column of `/proc/stat`), or 0 where that is not readable.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// `VmHWM` (peak resident set) of this process, in MiB; 0 where it is not
/// readable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let c0 = process_cpu_s();
        let mut x = 1u64;
        for _ in 0..20_000_000u32 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        std::hint::black_box(x);
        let c1 = process_cpu_s();
        // Twenty million dependent multiply-adds take milliseconds.
        assert!(c1 - c0 > 1e-3, "work used {} CPU s", c1 - c0);
    }

    #[test]
    fn canary_table_is_one_cycle() {
        let c = Canary::new();
        let (mut i, mut steps) = (0u32, 0usize);
        loop {
            i = c.next[i as usize];
            steps += 1;
            if i == 0 {
                break;
            }
        }
        assert_eq!(steps, CANARY_ENTRIES, "the walk must visit every entry");
        assert!(c.measure() > 0.0);
    }

    #[test]
    fn peak_rss_covers_an_allocation() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        assert!(peak_rss_mib() >= 64.0, "{} MiB", peak_rss_mib());
    }
}
