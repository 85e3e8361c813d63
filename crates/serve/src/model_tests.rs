//! Exhaustive-interleaving model tests for the crate's two concurrency
//! protocols: [`FairBudget`](crate::budget::FairBudget) admission and
//! the eventfd wakeup handshake between the engine pool and the event
//! loop.
//!
//! The offline workspace has no `loom`, so this module vendors the part
//! of it these protocols actually need: a deterministic enumerator of
//! *every* interleaving of a small set of logical threads. The trick
//! that makes plain enumeration sound here is that each protocol step
//! is already atomic on its own — every `FairBudget` method runs its
//! whole body under the one state mutex, and each eventfd/queue
//! operation is a single syscall or lock-free channel op — so any real
//! concurrent execution is equivalent to *some* sequential order of
//! those steps. Running all orders therefore covers all behaviours,
//! with none of loom's instrumentation.
//!
//! Everything is gated behind `--cfg zeroconf_loom` (see ci.sh) so the
//! default test pass stays fast:
//!
//! ```text
//! RUSTFLAGS="--cfg zeroconf_loom" cargo test -p zeroconf-serve --lib
//! ```

/// The schedule enumerator: the minimal loom replacement.
#[cfg(all(test, zeroconf_loom))]
mod explorer {
    /// Every interleaving of `counts[t]` program-ordered steps per
    /// logical thread, as sequences of thread ids. A schedule like
    /// `[0, 1, 0]` means "thread 0 runs its first step, thread 1 its
    /// first, thread 0 its second". Per-thread order is preserved —
    /// exactly the executions a sequentially consistent scheduler can
    /// produce.
    pub fn schedules(counts: &[usize]) -> Vec<Vec<usize>> {
        let total: usize = counts.iter().sum();
        let mut out = Vec::new();
        let mut taken = vec![0_usize; counts.len()];
        let mut cur = Vec::with_capacity(total);
        recurse(counts, &mut taken, &mut cur, total, &mut out);
        out
    }

    fn recurse(
        counts: &[usize],
        taken: &mut Vec<usize>,
        cur: &mut Vec<usize>,
        total: usize,
        out: &mut Vec<Vec<usize>>,
    ) {
        if cur.len() == total {
            out.push(cur.clone());
            return;
        }
        for thread in 0..counts.len() {
            if taken[thread] < counts[thread] {
                taken[thread] += 1;
                cur.push(thread);
                recurse(counts, taken, cur, total, out);
                cur.pop();
                taken[thread] -= 1;
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::schedules;

        #[test]
        fn schedules_enumerates_every_order_preserving_merge() {
            // 2+2 steps: C(4,2) = 6 interleavings, all distinct.
            let all = schedules(&[2, 2]);
            assert_eq!(all.len(), 6);
            for schedule in &all {
                assert_eq!(schedule.iter().filter(|&&t| t == 0).count(), 2);
                assert_eq!(schedule.iter().filter(|&&t| t == 1).count(), 2);
            }
            let mut dedup = all.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), all.len());
        }
    }
}

/// `FairBudget` under every schedule: permits are conserved, capacity
/// is never exceeded, and grants always go to the longest-waiting
/// connection.
#[cfg(all(test, zeroconf_loom))]
mod budget_model {
    use super::explorer::schedules;
    use crate::budget::FairBudget;

    #[derive(Clone, Copy)]
    enum Step {
        /// `try_acquire(conn)` — the reactor's non-blocking admission.
        Try(u64),
        /// `release()` one permit, but only if this connection holds one
        /// (a thread's release step is a no-op on schedules where its
        /// acquire lost the race).
        ReleaseIfGranted(u64),
        /// `leave(conn)` — connection teardown while queued.
        Leave(u64),
    }

    /// The budget plus a mirror of what the spec says its state must
    /// be: which connections hold permits and who is waiting, in ask
    /// order. Every step cross-checks the real budget against it.
    struct World {
        budget: FairBudget,
        capacity: usize,
        granted: Vec<u64>,
        waiting: Vec<u64>,
    }

    impl World {
        fn new(capacity: usize) -> World {
            World {
                budget: FairBudget::new(capacity),
                capacity,
                granted: Vec::new(),
                waiting: Vec::new(),
            }
        }

        fn step(&mut self, step: Step) {
            match step {
                Step::Try(conn) => {
                    let was_waiting = self.waiting.contains(&conn);
                    if self.budget.try_acquire(conn) {
                        // Round-robin fairness: a grant only ever goes
                        // to the front of the ask queue — nobody who
                        // asked earlier may still be waiting.
                        if was_waiting {
                            assert_eq!(
                                self.waiting.first(),
                                Some(&conn),
                                "a permit was granted out of ask order"
                            );
                            self.waiting.remove(0);
                        } else {
                            assert!(
                                self.waiting.is_empty(),
                                "a newcomer overtook {} queued connection(s)",
                                self.waiting.len()
                            );
                        }
                        self.granted.push(conn);
                        assert!(
                            self.granted.len() <= self.capacity,
                            "grants exceeded capacity"
                        );
                    } else if !was_waiting {
                        self.waiting.push(conn);
                    }
                }
                Step::ReleaseIfGranted(conn) => {
                    if let Some(at) = self.granted.iter().position(|&c| c == conn) {
                        self.granted.remove(at);
                        self.budget.release();
                    }
                }
                Step::Leave(conn) => {
                    self.budget.leave(conn);
                    self.waiting.retain(|&c| c != conn);
                }
            }
            // Permit conservation, checked after every single step.
            assert_eq!(
                self.budget.available() + self.granted.len(),
                self.capacity,
                "permits were lost or minted"
            );
        }

        /// Quiescence: release everything still granted, then every
        /// queued connection must be admitted in ask order and the pool
        /// must end exactly full — no lost wakeup, no lost permit.
        fn settle(mut self) {
            while self.granted.pop().is_some() {
                self.budget.release();
            }
            for conn in std::mem::take(&mut self.waiting) {
                assert!(
                    self.budget.try_acquire(conn),
                    "connection {conn} starved at quiescence"
                );
                self.budget.release();
            }
            assert_eq!(self.budget.available(), self.capacity);
        }
    }

    fn explore(capacity: usize, threads: &[Vec<Step>]) -> usize {
        let counts: Vec<usize> = threads.iter().map(Vec::len).collect();
        let all = schedules(&counts);
        for schedule in &all {
            let mut cursors = vec![0_usize; threads.len()];
            let mut world = World::new(capacity);
            for &thread in schedule {
                world.step(threads[thread][cursors[thread]]);
                cursors[thread] += 1;
            }
            world.settle();
        }
        all.len()
    }

    #[test]
    fn three_contenders_on_one_permit_stay_fair_under_every_schedule() {
        let program = |conn| {
            vec![
                Step::Try(conn),
                Step::Try(conn),
                Step::ReleaseIfGranted(conn),
            ]
        };
        let explored = explore(1, &[program(1), program(2), program(3)]);
        // 9 steps, 3 per thread: 9!/(3!·3!·3!) interleavings.
        assert_eq!(explored, 1680);
    }

    #[test]
    fn two_permits_across_four_connections_are_conserved_everywhere() {
        let program = |conn| vec![Step::Try(conn), Step::ReleaseIfGranted(conn)];
        let explored = explore(2, &[program(1), program(2), program(3), program(4)]);
        assert_eq!(explored, 2520);
    }

    #[test]
    fn a_mid_wait_leaver_never_strands_the_queue() {
        let explored = explore(
            1,
            &[
                vec![Step::Try(1), Step::ReleaseIfGranted(1)],
                vec![Step::Try(2), Step::Leave(2)],
                vec![Step::Try(3)],
            ],
        );
        assert_eq!(explored, 30);
    }
}

/// The engine-pool → event-loop wakeup handshake under every schedule,
/// against the real eventfd and a real completion channel.
///
/// Producer protocol: enqueue the completion, *then* `notify()`.
/// Consumer protocol: `drain()` the handle, *then* poll the queue.
/// The invariant that keeps the reactor from sleeping on pending work:
/// at quiescence either every completion was consumed or the wake
/// handle still polls readable.
#[cfg(all(test, zeroconf_loom))]
mod wakeup_model {
    use super::explorer::schedules;
    use crate::reactor::{Event, Interest, Poller, WakeHandle};
    use std::sync::mpsc;
    use std::time::Duration;

    const WAKE_TOKEN: u64 = 7;

    struct World {
        poller: Poller,
        wake: WakeHandle,
        tx: mpsc::Sender<u64>,
        rx: mpsc::Receiver<u64>,
        events: Vec<Event>,
        sent: usize,
        consumed: usize,
    }

    #[derive(Clone, Copy)]
    enum Step {
        /// Producer: push one completion onto the channel.
        Send,
        /// Producer: ring the wake handle.
        Notify,
        /// Consumer: clear the wake handle (level-triggered reset).
        Drain,
        /// Consumer: poll the completion channel dry.
        RecvAll,
    }

    impl World {
        fn new() -> World {
            let mut poller = Poller::new().expect("poller");
            let wake = WakeHandle::new().expect("wake handle");
            poller
                .register(wake.raw_fd(), WAKE_TOKEN, Interest::READ)
                .expect("register wake handle");
            let (tx, rx) = mpsc::channel();
            World {
                poller,
                wake,
                tx,
                rx,
                events: Vec::new(),
                sent: 0,
                consumed: 0,
            }
        }

        fn step(&mut self, step: Step) {
            match step {
                Step::Send => {
                    self.tx.send(1).expect("send completion");
                    self.sent += 1;
                }
                Step::Notify => self.wake.notify(),
                Step::Drain => self.wake.drain(),
                Step::RecvAll => {
                    while self.rx.try_recv().is_ok() {
                        self.consumed += 1;
                    }
                }
            }
        }

        /// What a blocked `epoll_wait` would see right now.
        fn readable(&mut self) -> bool {
            self.poller
                .wait(&mut self.events, Duration::ZERO)
                .expect("zero-timeout poll");
            self.events
                .iter()
                .any(|e| e.token == WAKE_TOKEN && e.ready.readable)
        }

        /// The no-lost-wakeup invariant at quiescence.
        fn wakeup_pending_or_all_consumed(&mut self) -> bool {
            self.consumed == self.sent || self.readable()
        }
    }

    fn explore(threads: &[Vec<Step>]) -> (usize, usize) {
        let counts: Vec<usize> = threads.iter().map(Vec::len).collect();
        let all = schedules(&counts);
        let mut violations = 0;
        for schedule in &all {
            let mut cursors = vec![0_usize; threads.len()];
            let mut world = World::new();
            for &thread in schedule {
                world.step(threads[thread][cursors[thread]]);
                cursors[thread] += 1;
            }
            if !world.wakeup_pending_or_all_consumed() {
                violations += 1;
            }
        }
        (all.len(), violations)
    }

    #[test]
    fn send_then_notify_against_drain_then_poll_never_loses_a_wakeup() {
        // Two producers racing one consumer pass through the handshake.
        let producer = vec![Step::Send, Step::Notify];
        let consumer = vec![Step::Drain, Step::RecvAll];
        let (explored, violations) = explore(&[producer.clone(), producer, consumer]);
        assert_eq!(explored, 90);
        assert_eq!(violations, 0, "the wakeup protocol lost a completion");
    }

    #[test]
    fn a_consumer_pass_mid_burst_still_leaves_the_handle_readable() {
        // One producer, two full consumer passes: whatever the timing,
        // work left behind must keep the handle readable.
        let producer = vec![Step::Send, Step::Notify, Step::Send, Step::Notify];
        let consumer = vec![Step::Drain, Step::RecvAll, Step::Drain, Step::RecvAll];
        let (explored, violations) = explore(&[producer, consumer]);
        assert_eq!(explored, 70);
        assert_eq!(violations, 0, "the wakeup protocol lost a completion");
    }

    #[test]
    fn the_reversed_consumer_order_demonstrably_loses_wakeups() {
        // Poll-then-drain — the order the real reactor must NOT use —
        // has schedules where a completion arrives with the handle
        // already cleared: the reactor would sleep on pending work.
        // This is the teeth-check that the explorer can catch the bug
        // the protocol exists to prevent.
        let producer = vec![Step::Send, Step::Notify];
        let consumer = vec![Step::RecvAll, Step::Drain];
        let (explored, violations) = explore(&[producer, consumer]);
        assert_eq!(explored, 6);
        assert!(
            violations > 0,
            "reversing drain/poll should lose a wakeup in some schedule"
        );
    }
}
