//! Keeps every vCPU out of its idle halt while the benchmark runs.
//!
//! On a virtual machine, a halted vCPU that is woken waits for the
//! hypervisor to schedule it again, and the guest reports that wait as
//! steal. Every op of these workloads hops between threads (generator,
//! reactor, executor, pool), so halted vCPUs turn host contention into
//! latency. On a 2-vCPU KVM guest, eight `landscape-warm` runs alternating
//! with and without this process saw median steal of 4% against 16%, and
//! a p50 spread (quartile distance over median) of 6% against 24%.
//!
//! The keep-warm process runs one `SCHED_IDLE` thread per CPU that spins
//! on [`std::hint::spin_loop`]. Any runnable thread of the daemon or the
//! generator preempts it at once, and its CPU time belongs to neither
//! measured process. If the idle policy cannot be set, it does not spin.

use std::io::{self, BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

/// `SCHED_IDLE` from `<sched.h>`: run only when nothing else wants the CPU.
const SCHED_IDLE: i32 = 5;

#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

extern "C" {
    /// `sched_setscheduler(2)`; pid 0 is the calling thread. Returns 0 or
    /// -1 with `errno` set.
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Moves the calling thread to the idle scheduling policy.
fn make_idle() -> io::Result<()> {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a live, initialized `struct sched_param` for the
    // duration of the call, and pid 0 names the calling thread, so the
    // kernel reads nothing else and writes nothing.
    let rc = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Entry point of the `keep-warm` subcommand: spin at idle priority until
/// stdin closes. Announces `keep-warm: …` on stdout first.
pub fn keep_warm_child() -> i32 {
    let stop = Arc::new(AtomicBool::new(false));
    let cpus = crate::host::nproc();
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let spinners: Vec<_> = (0..cpus)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let ready = ready_tx.clone();
            thread::spawn(move || {
                let idle = make_idle();
                let ok = idle.is_ok();
                let _ = ready.send(idle.err());
                // ORDERING: a standalone stop flag; nothing is published
                // through it.
                while ok && !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            })
        })
        .collect();
    let failure = ready_rx.iter().take(cpus).flatten().next();
    let mut out = io::stdout();
    let _ = match failure {
        None => writeln!(out, "keep-warm: {cpus} idle-priority spinner(s)"),
        Some(e) => writeln!(out, "keep-warm: off (SCHED_IDLE refused: {e})"),
    };
    let _ = out.flush();
    let _ = io::copy(&mut io::stdin(), &mut io::sink());
    // ORDERING: see the load above.
    stop.store(true, Ordering::Relaxed);
    for spinner in spinners {
        let _ = spinner.join();
    }
    0
}

/// The running keep-warm child.
pub struct KeepWarm {
    child: Child,
    stdin: Option<ChildStdin>,
    /// What the child announced (`keep-warm: …`).
    pub status: String,
}

impl KeepWarm {
    /// Spawns the keep-warm child and waits for its announcement.
    pub fn start() -> Result<KeepWarm, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating self: {e}"))?;
        let mut child = Command::new(exe)
            .arg("keep-warm")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning keep-warm: {e}"))?;
        let stdin = child.stdin.take();
        let mut status = String::new();
        if let Some(stdout) = child.stdout.take() {
            let _ = BufReader::new(stdout).read_line(&mut status);
        }
        Ok(KeepWarm {
            child,
            stdin,
            status: status.trim_end().to_owned(),
        })
    }
}

impl Drop for KeepWarm {
    fn drop(&mut self) {
        // Closing stdin stops the spinners; then reap the child.
        drop(self.stdin.take());
        let _ = self.child.wait();
    }
}
