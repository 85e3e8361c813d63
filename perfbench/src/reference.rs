//! A fixed reference workload that measures how fast the host runs now.
//!
//! On a 2-vCPU KVM guest (Intel Xeon), the host changed speed by 30–40%
//! within half an hour with steal near zero: `landscape-warm` took 4.4 ms
//! per op (median of ten runs), then 3.1 ms, with CPU per op moving the
//! same way.
//! Neighbours on the same cores and caches come and go, and no statistic
//! over one program's own timings can tell a slower host from a slower
//! program. This workload can: it is benchmark-owned, std-only and never
//! changes, so any change in its time is the host's.
//!
//! Generator threads run one pass between ops (outside every latency
//! window) about a hundred times per run, so the passes sample the host
//! across the whole timed window. Passes rotate over the CPUs the process
//! may use, because the vCPUs of one guest need not run equally fast and
//! the daemon's threads use all of them. A pass is timed in the thread's
//! own CPU time, which excludes steal and preemption and so measures only
//! how fast instructions retire. The gated time metrics are scaled by
//! [`NOMINAL_MS`] over the median pass.

use std::fmt::Write as _;
use std::hint::black_box;

/// The reference's CPU time on the nominal host, in milliseconds. Its
/// value only fixes the scale of the normalized metrics.
pub const NOMINAL_MS: f64 = 1.2;

/// `CLOCK_THREAD_CPUTIME_ID` from `<time.h>`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `cpu_set_t` from `<sched.h>`: a mask of 1024 CPUs.
#[repr(C)]
struct CpuSet {
    bits: [u64; 16],
}

extern "C" {
    /// `clock_gettime(2)`: 0, or -1 with `errno` set.
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    /// `sched_getaffinity(2)`; pid 0 is the calling thread.
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    /// `sched_setaffinity(2)`; pid 0 is the calling thread.
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The calling thread's CPU mask, or `None` if it cannot be read.
fn affinity() -> Option<CpuSet> {
    let mut mask = CpuSet { bits: [0; 16] };
    // SAFETY: `mask` is a live, writable `cpu_set_t` of exactly the size
    // passed, and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
    (rc == 0).then_some(mask)
}

/// Sets the calling thread's CPU mask; returns whether the kernel took it.
fn set_affinity(mask: &CpuSet) -> bool {
    // SAFETY: `mask` is a live `cpu_set_t` of exactly the size passed,
    // which the kernel only reads; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) == 0 }
}

/// CPU time the calling thread has consumed, in milliseconds.
fn thread_cpu_ms() -> Result<f64, String> {
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and
    // the kernel writes only that struct.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut now) };
    if rc != 0 {
        return Err(format!(
            "clock_gettime: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(now.tv_sec as f64 * 1e3 + now.tv_nsec as f64 / 1e6)
}

/// One pass of the mix the daemon and client spend their time on: float
/// formatting and parsing as on the wire, transcendentals as in the π
/// build, and large buffer copies as through socket buffers.
fn work() -> f64 {
    let mut text = String::with_capacity(96 * 1024);
    let mut x = 0.123_456_789_123_4_f64;
    for i in 0..3000 {
        x = (x * 3.987_654_321).fract() + 1e-3;
        let _ = write!(text, "{:?},", x * 10f64.powi(i % 40 - 20));
    }
    let mut sum = 0.0;
    for token in text.split(',') {
        if let Ok(value) = token.parse::<f64>() {
            sum += value;
        }
    }
    for i in 0..20_000 {
        sum += (-f64::from(i) * 1e-4).exp();
    }
    for _ in 0..4 {
        let copy = black_box(text.clone()).into_bytes();
        sum += f64::from(copy[copy.len() / 2]);
    }
    sum
}

/// Runs one pass and returns its CPU time in milliseconds.
fn pass_cpu_ms() -> Result<f64, String> {
    let before = thread_cpu_ms()?;
    black_box(work());
    Ok(thread_cpu_ms()? - before)
}

/// Runs pass number `k` on the `k`-th allowed CPU (round robin), then
/// restores the thread's CPU mask. Runs unpinned if the mask cannot be
/// changed.
pub fn pass_cpu_ms_rotating(k: usize) -> Result<f64, String> {
    let Some(saved) = affinity() else {
        return pass_cpu_ms();
    };
    let allowed: Vec<usize> = (0..1024)
        .filter(|cpu| saved.bits[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect();
    if allowed.is_empty() {
        return pass_cpu_ms();
    }
    let cpu = allowed[k % allowed.len()];
    let mut only = CpuSet { bits: [0; 16] };
    only.bits[cpu / 64] |= 1 << (cpu % 64);
    let pinned = set_affinity(&only);
    let result = pass_cpu_ms();
    if pinned && !set_affinity(&saved) {
        return Err("restoring the generator thread's CPU mask failed".to_owned());
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_is_deterministic_and_timed() {
        assert_eq!(work().to_bits(), work().to_bits());
        let before = affinity().unwrap().bits;
        for k in 0..3 {
            let cpu = pass_cpu_ms_rotating(k).unwrap();
            assert!(cpu > 0.0 && cpu < 1e3, "{cpu}");
        }
        assert_eq!(affinity().unwrap().bits, before);
    }
}
