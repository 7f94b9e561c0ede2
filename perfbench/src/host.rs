//! Measuring on a small shared virtual machine: run on one CPU under
//! `SCHED_BATCH`, and scale sequential round trips to a reference host
//! speed.
//!
//! Three effects of the host moved wall-clock figures by more than a code
//! change should have to (measured on a 2-vCPU shared VM):
//!
//! - **Steal.** With the client and the server on two vCPUs, every request
//!   wakes a halted vCPU, and on a busy host each wake-up waits for the
//!   host to run that vCPU again: steal reached 20% of a run and the median
//!   sequential round trip doubled with the neighbours' load. Pinned to one
//!   vCPU, which stays busy through a timed phase, steal stayed near 2%.
//! - **Two modes.** On one CPU, a cached read's round trip took either
//!   about 13 µs or about 20 µs, and the mode flipped from window to window
//!   within a run. Under `SCHED_BATCH`, where a woken thread does not
//!   preempt the running one, the windows of a run mostly kept one mode,
//!   though which one still changed with the host over minutes.
//! - **Host speed.** The vCPU's speed drifts over minutes with what runs
//!   beside it: the same seed's median read took 12 µs in one run and
//!   18 µs in another. A fixed sort kernel, timed between windows on its
//!   thread's CPU clock, drifts with sequential round trips, so their times
//!   are multiplied by `REFERENCE_NS` over the run's median kernel time
//!   (and their rates divided by it). In a six-seed set this cut the
//!   spread over seeds of every round-trip figure of `text_sequential` and
//!   `monitor_seq` by 30–90%. It widened the spread of `ingest`'s
//!   pipelined bulk phase (0.03 to 0.07), which, like set-up and recovery,
//!   is reported as measured. The kernel is the benchmark's own code on its
//!   thread's CPU clock: neither a change to the program nor a program
//!   thread competing for the CPU moves it.

use crate::stats::median;

/// Affinity mask wide enough for 1024 CPUs, as glibc's `cpu_set_t`.
type CpuSet = [u64; 16];

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// `SCHED_BATCH`.
const SCHED_BATCH: i32 = 3;
/// `CLOCK_THREAD_CPUTIME_ID`.
const THREAD_CPU_CLOCK: i32 = 3;

/// Pin the calling thread to the last CPU it may run on. Threads and
/// processes it starts afterwards inherit the pin, so call this before the
/// first thread is spawned. Returns the CPU, or `None` when the affinity
/// could not be read or set (the run then continues unpinned).
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: the pointer and size describe `allowed`, which the call only
    // writes within.
    let rc = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), allowed.as_mut_ptr()) };
    if rc != 0 {
        return None;
    }
    let cpu = (0..64 * allowed.len())
        .rev()
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the pointer and size describe `one`, which the call only
    // reads.
    let rc = unsafe { sched_setaffinity(0, size_of::<CpuSet>(), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Put the calling thread under `SCHED_BATCH`, which threads and
/// processes it starts afterwards inherit, so call this before the first
/// thread is spawned. Returns whether it took.
pub fn batch_policy() -> bool {
    let priority = 0i32;
    // SAFETY: `struct sched_param` is one int, the priority (0 under
    // SCHED_BATCH), which the call only reads.
    unsafe { sched_setscheduler(0, SCHED_BATCH, &priority) == 0 }
}

/// CPU nanoseconds the calling thread has used.
fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and the call writes nothing else.
    let rc = unsafe { clock_gettime(THREAD_CPU_CLOCK, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock always exists");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Kernel time at reference speed: about what the kernel takes on the
/// 2-vCPU shared VM the bounds in `BENCHMARK.json` were set on, so scaled
/// figures there stay close to raw ones.
pub const REFERENCE_NS: f64 = 800_000.0;
/// Keys sorted by one run of the kernel (256 KiB: the kernel stays in L2).
const KEYS: usize = 32_768;
/// Runs of the kernel per probe; the probe takes their median.
const REPS: usize = 9;

/// The calibration kernel and every probe's result.
#[derive(Debug)]
pub struct Calibrator {
    keys: Vec<u64>,
    work: Vec<u64>,
    probes_ns: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let keys = (0..KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Calibrator {
            keys,
            work: Vec::with_capacity(KEYS),
            probes_ns: Vec::new(),
        }
    }

    /// Time the kernel now. Call between timed phases: the probes sample
    /// the host's speed through the run.
    pub fn probe(&mut self) {
        let mut samples = [0.0; REPS];
        for s in &mut samples {
            self.work.clear();
            self.work.extend_from_slice(&self.keys);
            let t0 = thread_cpu_ns();
            self.work.sort_unstable();
            std::hint::black_box(&self.work);
            *s = (thread_cpu_ns() - t0) as f64;
        }
        self.probes_ns.push(median(&samples));
    }

    /// The factor that turns a time measured in this run into a time at
    /// reference speed: `REFERENCE_NS` over the median kernel time of
    /// every probe so far. One factor for the whole run: the host's speed
    /// drifts over minutes, while single probes scatter by several percent.
    pub fn scale(&self) -> f64 {
        REFERENCE_NS / median(&self.probes_ns)
    }

    /// One line for the log: the probes' median, range and count.
    pub fn summary(&self) -> String {
        let min = self.probes_ns.iter().copied().fold(f64::INFINITY, f64::min);
        let max = self.probes_ns.iter().copied().fold(0.0, f64::max);
        format!(
            "calibration kernel median {:.0} ns (min {min:.0}, max {max:.0}, {} probes; \
             reference {REFERENCE_NS:.0} ns): times scaled by {:.4}",
            median(&self.probes_ns),
            self.probes_ns.len(),
            self.scale()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_scale_is_positive_and_finite() {
        let mut c = Calibrator::new();
        c.probe();
        c.probe();
        let s = c.scale();
        assert!(s.is_finite() && s > 0.0);
    }
}
