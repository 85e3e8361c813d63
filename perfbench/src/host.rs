//! Host and process counters read from `/proc`: CPU time, steal, peak
//! RSS and the CPU model. Everything here is Linux-only by design — the
//! benchmark measures the daemon as it runs in production.

use std::fs;

/// Clock ticks per second of the `/proc/<pid>/stat` CPU fields
/// (`sysconf(_SC_CLK_TCK)`, 100 on every Linux architecture this runs on).
const CLK_TCK: f64 = 100.0;

/// User plus system CPU seconds consumed by process `pid` (all its
/// threads, exited ones included), or `None` when it cannot be read.
pub fn process_cpu_s(pid: u32) -> Option<f64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line, i.e. 11
    // and 12 after the state field that follows the name.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / CLK_TCK)
}

/// Peak resident set size (`VmHWM`) of process `pid` in MiB.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The aggregate `cpu` line of `/proc/stat`: (steal ticks, total ticks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// Reads the current counters (zeros when `/proc/stat` is unreadable).
    pub fn now() -> CpuTicks {
        let Ok(stat) = fs::read_to_string("/proc/stat") else {
            return CpuTicks::default();
        };
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return CpuTicks::default();
        };
        let values: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already included in user, so it is not re-added.
        let total = values.iter().take(8).sum();
        let steal = values.get(7).copied().unwrap_or(0);
        CpuTicks { steal, total }
    }

    /// Steal as a percentage of all CPU ticks between `self` and `later`.
    pub fn steal_pct_until(self, later: CpuTicks) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
