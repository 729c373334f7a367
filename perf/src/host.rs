//! The machine under the benchmark: process CPU time, memory, thread
//! and context-switch counts read from `/proc`, a fixed probe that
//! tells a quiet host from a disturbed one, and the seeded generator
//! every input is drawn from.

use std::time::{Duration, Instant};

/// SplitMix64: small, seedable, good enough to draw payload bytes and
/// schedule jitter from.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound` > 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

fn proc_status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// User + system CPU time of the whole process (all threads, living
/// and joined) in microseconds, from `/proc/self/stat` at the kernel's
/// 100 Hz tick. `None` off Linux.
pub fn process_cpu_us() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line, 12th and 13th after it.
    let after = stat.rsplit_once(')')?.1;
    let mut fields = after.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 10_000)
}

/// Peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    proc_status_field(&status, "VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// Live threads of this process.
pub fn thread_count() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    proc_status_field(&status, "Threads")
}

/// Voluntary + involuntary context switches summed over the live
/// threads. Threads that exited take their counts with them, so take
/// both readings while the cluster is up.
pub fn context_switches() -> Option<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir("/proc/self/task").ok()? {
        let path = entry.ok()?.path().join("status");
        // A thread may exit between the listing and the read.
        let Ok(status) = std::fs::read_to_string(path) else {
            continue;
        };
        total += proc_status_field(&status, "voluntary_ctxt_switches").unwrap_or(0);
        total += proc_status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0);
    }
    Some(total)
}

#[cfg(target_os = "linux")]
extern "C" {
    // From the C library `std` already links; declared here because the
    // standard library has no affinity call.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins this thread, and every thread spawned after, to the first CPU
/// it is allowed on, and returns that CPU. Call before spawning.
///
/// Why: on the 2-vCPU VMs this runs on, the host packs both vCPUs onto
/// one core after a second of light load and spreads them again under
/// sustained load, so the same 36-thread cluster measures 172 or
/// 235 ktx/s depending on what ran before it. One CPU is the only
/// capacity the host offers every time.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let list = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
        let first: usize = list.trim().split([',', '-']).next()?.parse().ok()?;
        let mut mask = [0u64; 16];
        *mask.get_mut(first / 64)? |= 1 << (first % 64);
        // SAFETY: `mask` is a live, initialised buffer of exactly the
        // `size_of_val(&mask)` bytes passed as its length; pid 0 names
        // the calling thread; the call reads the mask and keeps no
        // pointer to it.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
        (rc == 0).then_some(first)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

fn spin(iters: u64, seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// How much of a second core the host gives this VM right now: the
/// time of an arithmetic loop on one thread over its time on two
/// threads at once, times two (2 = a full second core, 1 = both
/// threads share one). Call before [`pin_to_one_cpu`].
pub fn two_thread_speedup() -> f64 {
    const ITERS: u64 = 10_000_000;
    let timed = |f: &dyn Fn()| {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64()
    };
    let work = || {
        std::hint::black_box(spin(std::hint::black_box(ITERS), 0xFEED));
    };
    let one = timed(&work);
    let two = timed(&|| {
        std::thread::scope(|s| {
            s.spawn(work);
            work();
        })
    });
    2.0 * one / two
}

/// Times a fixed piece of work that is sensitive to what disturbs this
/// kind of host: 2 000 datagrams to self over loopback, two system
/// calls each through cache-cold kernel paths. Returns milliseconds.
///
/// A neighbour on the host shows here first: on the VMs this was
/// written on, a quiet host takes 3.5 ms and a disturbed one 5 to 6,
/// while an arithmetic loop reads the same in both states (the
/// contention is for cache and memory, not for the ALU).
pub fn calibrate() -> f64 {
    let probe = || -> std::io::Result<f64> {
        let sock = std::net::UdpSocket::bind("127.0.0.1:0")?;
        let addr = sock.local_addr()?;
        let mut buf = [0u8; 64];
        let start = Instant::now();
        for _ in 0..2_000 {
            sock.send_to(&buf[..32], addr)?;
            sock.recv_from(&mut buf)?;
        }
        Ok(start.elapsed().as_secs_f64() * 1e3)
    };
    // Without loopback UDP there is nothing to gate on: every reading
    // is the same and every repetition starts at once.
    probe().unwrap_or(1.0)
}

/// Waits for a quiet host before a repetition: the calibration kernel
/// must come within 25% of the fastest run seen so far, else sleep and
/// try again, a bounded number of times. Disturbances come in episodes
/// of seconds; this starts a repetition in a gap between them when
/// there is one, and costs at most a second when there is none.
#[derive(Debug, Default)]
pub struct QuietGate {
    best_ms: Option<f64>,
    /// Every calibration reading taken.
    pub readings: Vec<f64>,
    /// Readings that were too slow and led to a sleep and a retry.
    pub retries: u64,
}

impl QuietGate {
    const TOLERANCE: f64 = 1.25;
    const MAX_RETRIES: usize = 8;
    const BACKOFF: Duration = Duration::from_millis(100);

    pub fn wait(&mut self) {
        for attempt in 0..=Self::MAX_RETRIES {
            let ms = calibrate();
            self.readings.push(ms);
            let best = self.best_ms.map_or(ms, |b| b.min(ms));
            self.best_ms = Some(best);
            if ms <= best * Self::TOLERANCE || attempt == Self::MAX_RETRIES {
                return;
            }
            self.retries += 1;
            std::thread::sleep(Self::BACKOFF);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_repeats_for_a_seed_and_differs_across_seeds() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(8);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut buf = [0u8; 13];
        Rng::new(7).fill(&mut buf);
        assert!(buf.iter().any(|&x| x != 0));
    }

    #[test]
    fn status_field_parses_kb_and_counts() {
        let text = "Name:\tx\nVmHWM:\t  2048 kB\nThreads:\t37\n";
        assert_eq!(proc_status_field(text, "VmHWM"), Some(2048));
        assert_eq!(proc_status_field(text, "Threads"), Some(37));
        assert_eq!(proc_status_field(text, "VmRSS"), None);
    }
}
