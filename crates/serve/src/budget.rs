//! Cross-connection admission: a global in-flight budget split fairly.
//!
//! Every sweep or rescore admitted into the shared engine consumes one
//! permit from a single server-wide pool; a connection that wants to
//! admit work joins a FIFO queue of *connections* and is only granted a
//! permit when it reaches the front. Because a connection re-enters the
//! queue at the back for every new request, grants rotate round-robin
//! across the connections that are actively asking — a client that
//! pipelines hundreds of sweeps cannot starve one that sends a single
//! request, no matter how the permits are sized.
//!
//! Admission never waits: the serve reactor runs every connection on one
//! event-loop thread, so [`FairBudget::try_acquire`] answers at once. A
//! refused connection keeps its queue position (the queue holds at most
//! one entry per connection) and asks again on a later loop iteration.
//! Permits are released by the same loop as it polls completions, so a
//! retry follows promptly. This is also what makes the scheme
//! deadlock-free: a connection whose own pending requests hold every
//! permit keeps polling the completions that free them.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};

/// The shared permit pool plus the connection admission queue.
pub struct FairBudget {
    state: Mutex<State>,
    capacity: usize,
}

struct State {
    /// Permits not currently held by an admitted request.
    available: usize,
    /// Connections waiting for a permit, oldest first.
    queue: VecDeque<u64>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl FairBudget {
    /// A budget of `capacity` permits (clamped to at least one).
    #[must_use]
    pub fn new(capacity: usize) -> FairBudget {
        let capacity = capacity.max(1);
        FairBudget {
            state: Mutex::new(State {
                available: capacity,
                queue: VecDeque::new(),
            }),
            capacity,
        }
    }

    /// The total number of permits.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Permits currently available (observability only — racy by nature).
    #[must_use]
    pub fn available(&self) -> usize {
        lock(&self.state).available
    }

    /// Tries to acquire one permit for `conn`, without waiting.
    ///
    /// Enqueues `conn` on first call and grants a permit only when `conn`
    /// is at the queue front with a permit free; the connection then
    /// leaves the queue. On `false` the connection **stays queued**,
    /// keeping its round-robin position for the next attempt.
    pub fn try_acquire(&self, conn: u64) -> bool {
        let mut state = lock(&self.state);
        if !state.queue.contains(&conn) {
            state.queue.push_back(conn);
        }
        if state.queue.front() != Some(&conn) || state.available == 0 {
            return false;
        }
        state.available -= 1;
        state.queue.pop_front();
        true
    }

    /// Returns one permit to the pool.
    pub fn release(&self) {
        self.release_many(1);
    }

    /// Returns `n` permits to the pool (capped at capacity — releasing
    /// more than was acquired is an accounting bug upstream, contained
    /// here rather than inflating the pool).
    pub fn release_many(&self, n: usize) {
        if n == 0 {
            return;
        }
        let mut state = lock(&self.state);
        state.available = (state.available + n).min(self.capacity);
    }

    /// Removes `conn` from the admission queue (connection teardown, or
    /// stepping out while output backpressure gates admission). Idempotent.
    pub fn leave(&self, conn: u64) {
        lock(&self.state).queue.retain(|&c| c != conn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permits_are_granted_up_to_capacity() {
        let budget = FairBudget::new(2);
        assert!(budget.try_acquire(1));
        assert!(budget.try_acquire(1));
        assert!(!budget.try_acquire(1), "no third permit");
        budget.release();
        assert!(budget.try_acquire(1));
        budget.release_many(2);
        assert_eq!(budget.available(), 2);
    }

    #[test]
    fn front_of_queue_goes_first() {
        let budget = FairBudget::new(1);
        assert!(budget.try_acquire(1));
        // Pool empty: both are refused but stay queued in ask order, so
        // after a release conn 2 wins even when conn 3 retries first.
        assert!(!budget.try_acquire(2));
        assert!(!budget.try_acquire(3));
        budget.release();
        assert!(!budget.try_acquire(3), "conn 3 is behind conn 2");
        assert!(budget.try_acquire(2));
        budget.release();
        assert!(budget.try_acquire(3));
    }

    #[test]
    fn leaving_the_queue_unblocks_the_next_connection() {
        let budget = FairBudget::new(1);
        assert!(budget.try_acquire(1));
        assert!(!budget.try_acquire(2));
        assert!(!budget.try_acquire(3));
        budget.leave(2);
        budget.release();
        assert!(budget.try_acquire(3), "conn 3 moves up when 2 leaves");
    }

    #[test]
    fn release_is_capped_at_capacity() {
        let budget = FairBudget::new(2);
        budget.release_many(10);
        assert_eq!(budget.available(), 2);
    }
}
