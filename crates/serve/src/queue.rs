//! Bounded admission queue with a delayed-retry lane.
//!
//! The ready lane is the backpressure surface: [`JobQueue::try_push`]
//! refuses once `capacity` jobs are waiting, and the caller sheds the job
//! with a BUSY response instead of buffering it — daemon memory stays
//! bounded no matter how fast clients submit. The retry lane is a separate
//! min-heap of `(due, job)` pairs that *bypasses* the capacity check:
//! retries are jobs the server already accepted (and journaled), so
//! shedding them would break the at-least-once promise; their population is
//! bounded by `capacity × retry_limit` anyway.
//!
//! [`JobQueue::pop`] blocks until a ready job, a due retry, or close. After
//! [`JobQueue::close`], pops drain what is already queued and then return
//! `None` — the graceful-drain contract: accepted work finishes (or is
//! cancelled by the drain grace timer), new work is refused.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::time::Duration;

use xsfq_exec::sync::time::Instant;
use xsfq_exec::sync::{Condvar, Mutex};

use crate::job::Job;

struct Delayed {
    due: Instant,
    seq: u64,
    job: Job,
}

impl PartialEq for Delayed {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for Delayed {}
impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delayed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

#[derive(Default)]
struct State {
    ready: VecDeque<Job>,
    delayed: BinaryHeap<Reverse<Delayed>>,
    seq: u64,
    closed: bool,
}

/// The shared admission queue. See the [module docs](self).
pub struct JobQueue {
    state: Mutex<State>,
    cv: Condvar,
    capacity: usize,
}

impl JobQueue {
    /// A queue admitting at most `capacity` waiting jobs (retries excluded).
    pub fn new(capacity: usize) -> JobQueue {
        JobQueue {
            state: Mutex::new(State::default()),
            cv: Condvar::new(),
            capacity,
        }
    }

    /// Admit a job, or hand it back when the ready lane is full or the
    /// queue is closed (the caller sheds it with BUSY).
    pub fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut s = self.state.lock().unwrap();
        if s.closed || s.ready.len() >= self.capacity {
            return Err(job);
        }
        s.ready.push_back(job);
        drop(s);
        self.cv.notify_one();
        Ok(())
    }

    /// Requeue an already-accepted job after `delay`. Bypasses the
    /// capacity check; refused only after close (the job is handed back so
    /// the caller can fail it as cancelled).
    pub fn push_retry(&self, job: Job, delay: Duration) -> Result<(), Job> {
        let mut s = self.state.lock().unwrap();
        if s.closed {
            return Err(job);
        }
        let seq = s.seq;
        s.seq += 1;
        s.delayed.push(Reverse(Delayed {
            due: Instant::now() + delay,
            seq,
            job,
        }));
        drop(s);
        // Wake a popper so it can re-arm its wait for the new due time.
        self.cv.notify_one();
        Ok(())
    }

    /// Number of jobs waiting in the ready lane (the backpressure signal).
    pub fn ready_len(&self) -> usize {
        self.state.lock().unwrap().ready.len()
    }

    /// Block until a job is available; `None` once closed and fully
    /// drained (including pending retries).
    pub fn pop(&self) -> Option<Job> {
        let mut s = self.state.lock().unwrap();
        loop {
            let now = Instant::now();
            // A due retry goes ahead of fresh admissions — a retry is older
            // than anything in the ready lane — and the min-heap hands out
            // the earliest due first.
            if s.delayed.peek().is_some_and(|d| d.0.due <= now) {
                return s.delayed.pop().map(|Reverse(d)| d.job);
            }
            if let Some(job) = s.ready.pop_front() {
                return Some(job);
            }
            if s.closed && s.delayed.is_empty() {
                return None;
            }
            s = match s.delayed.peek().map(|d| d.0.due) {
                Some(due) => {
                    let wait = due.saturating_duration_since(now);
                    self.cv.wait_timeout(s, wait).unwrap().0
                }
                None => self.cv.wait(s).unwrap(),
            };
        }
    }

    /// Stop admitting; wake every popper so the drain can complete.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.cv.notify_all();
    }
}

// Unit tests drive the queue outside a model schedule, so they only make
// sense against the std primitives; tests/model_gate.rs covers the model
// configuration.
#[cfg(all(test, not(feature = "model")))]
mod tests {
    use super::*;
    use crate::cache::CacheKey;
    use crate::job::{Input, Job, JobSink};
    use std::sync::Arc;
    use xsfq_aig::digest::Digest;
    use xsfq_aig::Aig;

    fn job(id: u64) -> Job {
        Job {
            id,
            name: format!("j{id}"),
            input: Box::new(Input {
                aig: Aig::default(),
                key: CacheKey {
                    digest: Digest([0; 16]),
                    script: String::new(),
                    guards: String::new(),
                },
            }),
            fault: None,
            sink: JobSink::Discard,
            attempt: 0,
        }
    }

    #[test]
    fn capacity_zero_sheds_everything() {
        let q = JobQueue::new(0);
        assert!(q.try_push(job(1)).is_err());
    }

    #[test]
    fn fifo_within_capacity_then_sheds() {
        let q = JobQueue::new(2);
        assert!(q.try_push(job(1)).is_ok());
        assert!(q.try_push(job(2)).is_ok());
        let shed = q.try_push(job(3)).unwrap_err();
        assert_eq!(shed.id, 3);
        assert_eq!(q.pop().unwrap().id, 1);
        assert_eq!(q.pop().unwrap().id, 2);
    }

    #[test]
    fn retries_bypass_capacity_and_come_due() {
        let q = JobQueue::new(0);
        assert!(q.push_retry(job(7), Duration::from_millis(5)).is_ok());
        let got = q.pop().unwrap();
        assert_eq!(got.id, 7);
    }

    #[test]
    fn due_retries_pop_in_due_order() {
        let q = JobQueue::new(4);
        q.try_push(job(9)).unwrap();
        for id in 1..=3 {
            q.push_retry(job(id), Duration::from_millis(id)).unwrap();
        }
        std::thread::sleep(Duration::from_millis(20));
        let order: Vec<u64> = (0..4).map(|_| q.pop().unwrap().id).collect();
        assert_eq!(order, [1, 2, 3, 9], "due retries first, earliest due first");
    }

    #[test]
    fn close_drains_then_ends() {
        let q = Arc::new(JobQueue::new(4));
        q.try_push(job(1)).unwrap();
        q.close();
        assert!(q.try_push(job(2)).is_err(), "no admissions after close");
        assert_eq!(q.pop().unwrap().id, 1);
        assert!(q.pop().is_none());
    }

    #[test]
    fn pop_wakes_on_push_from_another_thread() {
        let q = Arc::new(JobQueue::new(4));
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || q2.pop().map(|j| j.id));
        std::thread::sleep(Duration::from_millis(20));
        q.try_push(job(9)).unwrap();
        assert_eq!(t.join().unwrap(), Some(9));
    }
}
