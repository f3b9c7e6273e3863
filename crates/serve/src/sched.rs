//! The job queue between connection threads and workers: one bounded
//! FIFO with non-blocking backpressure.
//!
//! Connection threads call [`JobQueue::try_push`], which never blocks:
//! a full queue hands the job straight back so the caller can answer
//! the client with an immediate rejection instead of stalling the whole
//! connection behind slow verifications. Workers block in
//! [`JobQueue::pop`] and take jobs in arrival order. Closing the queue
//! ([`JobQueue::close`]) wakes all workers; pops then drain whatever was
//! already accepted — the graceful-shutdown contract is "every accepted
//! job gets an answer" — and return `None` only once the queue is
//! empty.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum PushError<T> {
    /// The queue holds `capacity` jobs; the job is handed back.
    Full(T),
    /// [`JobQueue::close`] was called; the job is handed back.
    Closed(T),
}

/// No code panics while holding the queue's lock, so it is never
/// poisoned: a worker's `pop` cannot panic, which the server's pool
/// invariant relies on.
const POISONED: &str = "job queue lock poisoned";

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// The queue. See the module docs.
#[derive(Debug)]
pub(crate) struct JobQueue<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> JobQueue<T> {
    /// Creates a queue that accepts at most `capacity` waiting jobs.
    pub(crate) fn new(capacity: usize) -> JobQueue<T> {
        JobQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().expect(POISONED)
    }

    /// Enqueues without blocking; a full or closed queue refuses.
    pub(crate) fn try_push(&self, job: T) -> Result<(), PushError<T>> {
        let mut s = self.lock();
        if s.closed {
            return Err(PushError::Closed(job));
        }
        if s.items.len() >= self.capacity {
            return Err(PushError::Full(job));
        }
        s.items.push_back(job);
        drop(s);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks for the next job. `None` means the queue is closed *and*
    /// fully drained — the worker should exit.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut s = self.lock();
        loop {
            if let Some(job) = s.items.pop_front() {
                return Some(job);
            }
            if s.closed {
                return None;
            }
            s = self.available.wait(s).expect(POISONED);
        }
    }

    /// Stops accepting new jobs and wakes every blocked worker. Already
    /// accepted jobs remain poppable (drain semantics).
    pub(crate) fn close(&self) {
        self.lock().closed = true;
        self.available.notify_all();
    }

    /// Jobs currently queued (the `queue_depth` gauge).
    pub(crate) fn len(&self) -> usize {
        self.lock().items.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn jobs_pop_in_push_order() {
        let q = JobQueue::new(8);
        for job in ["a", "b", "c"] {
            q.try_push(job).unwrap();
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some("a"));
        q.try_push("d").unwrap();
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), Some("c"));
        assert_eq!(q.pop(), Some("d"));
    }

    #[test]
    fn capacity_counts_all_lanes() {
        // One lane: the capacity bounds every queued job, and a refused
        // job is handed back.
        let q = JobQueue::new(2);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        match q.try_push("over") {
            Err(PushError::Full(j)) => assert_eq!(j, "over"),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.len(), 2);
        // Popping frees a slot.
        assert_eq!(q.pop(), Some("a"));
        q.try_push("over").unwrap();
    }

    #[test]
    fn close_drains_then_stops() {
        let q = JobQueue::new(8);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert!(matches!(q.try_push(3), Err(PushError::Closed(3))));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_workers() {
        let q = Arc::new(JobQueue::<u32>::new(4));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop())
            })
            .collect();
        q.close();
        for h in handles {
            assert_eq!(h.join().unwrap(), None);
        }
    }

    #[test]
    fn shutdown_race_loses_no_job() {
        // A close racing concurrent pushes must leave every job either
        // drainable or handed back — never silently dropped.
        for round in 0..50 {
            let q = Arc::new(JobQueue::new(4));
            let accepted = Arc::new(Mutex::new(Vec::new()));
            let bounced = Arc::new(Mutex::new(Vec::new()));
            std::thread::scope(|scope| {
                for p in 0..3u32 {
                    let q = Arc::clone(&q);
                    let accepted = Arc::clone(&accepted);
                    let bounced = Arc::clone(&bounced);
                    scope.spawn(move || {
                        for i in 0..20u32 {
                            let job = p * 100 + i;
                            match q.try_push(job) {
                                Ok(()) => accepted.lock().unwrap().push(job),
                                Err(PushError::Full(j) | PushError::Closed(j)) => {
                                    bounced.lock().unwrap().push(j);
                                }
                            }
                        }
                    });
                }
                let q = Arc::clone(&q);
                scope.spawn(move || {
                    for _ in 0..round % 7 {
                        std::thread::yield_now();
                    }
                    q.close();
                });
            });
            let mut drained: Vec<u32> = std::iter::from_fn(|| q.pop()).collect();
            drained.sort_unstable();
            let mut acc = accepted.lock().unwrap().clone();
            acc.sort_unstable();
            assert_eq!(drained, acc, "every accepted job is drainable");
            assert_eq!(drained.len() + bounced.lock().unwrap().len(), 60);
        }
    }

    #[test]
    fn concurrent_producers_consumers_lose_nothing() {
        let q = Arc::new(JobQueue::new(8));
        let total = 400u32;
        let consumed = Arc::new(Mutex::new(Vec::new()));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                let consumed = Arc::clone(&consumed);
                std::thread::spawn(move || {
                    while let Some(v) = q.pop() {
                        consumed.lock().unwrap().push(v);
                    }
                })
            })
            .collect();
        std::thread::scope(|scope| {
            for p in 0..4 {
                let q = Arc::clone(&q);
                scope.spawn(move || {
                    for i in 0..total / 4 {
                        let mut job = p * 1000 + i;
                        loop {
                            match q.try_push(job) {
                                Ok(()) => break,
                                Err(PushError::Full(j)) => {
                                    job = j;
                                    std::thread::yield_now();
                                }
                                Err(PushError::Closed(_)) => panic!("closed early"),
                            }
                        }
                    }
                });
            }
        });
        q.close();
        for c in consumers {
            c.join().unwrap();
        }
        let mut got = consumed.lock().unwrap().clone();
        got.sort_unstable();
        let mut want: Vec<u32> = (0..4)
            .flat_map(|p| (0..total / 4).map(move |i| p * 1000 + i))
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }
}
