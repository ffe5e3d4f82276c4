//! Bounded priority job queue with admission control.
//!
//! The queue is the service's overload valve: [`JobQueue::push`] never
//! blocks — it either admits the job or answers [`Pushed::Full`] so the
//! HTTP layer can return `429 Too Many Requests` with `Retry-After`
//! while the accept loop keeps draining new connections. Workers block
//! in [`JobQueue::pop`] on a condvar.
//!
//! Ordering is `(priority descending, submission order ascending)`:
//! higher-priority jobs jump the line, equal priorities stay FIFO.
//! Cancelled-while-queued jobs are *tombstones* — they stay in the heap
//! (removing from a binary heap is O(n)) and are skipped at pop time.

use std::collections::BinaryHeap;
use std::sync::{Arc, Condvar, Mutex};

use crate::job::{Job, JobStatus};

/// Outcome of a non-blocking push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pushed {
    /// Admitted; carries the queue depth after insertion.
    Admitted(usize),
    /// The queue is at capacity — reject with `429`.
    Full,
}

struct Entry {
    priority: u64,
    seq: u64,
    job: Arc<Job>,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher priority wins; ties go to the earlier seq.
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

struct Inner {
    heap: BinaryHeap<Entry>,
    next_seq: u64,
    closed: bool,
}

/// The bounded priority queue shared between the HTTP layer (producers)
/// and the worker pool (consumers).
pub struct JobQueue {
    inner: Mutex<Inner>,
    ready: Condvar,
    depth: usize,
}

impl JobQueue {
    /// An empty queue admitting at most `depth` waiting jobs.
    pub fn new(depth: usize) -> Self {
        JobQueue {
            inner: Mutex::new(Inner {
                heap: BinaryHeap::new(),
                next_seq: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            depth: depth.max(1),
        }
    }

    /// Admits `job` or reports the queue full. Never blocks; `Full` when
    /// `depth` jobs are already waiting (tombstones included — they
    /// drain quickly) or the queue has been closed for drain.
    pub fn push(&self, job: Arc<Job>) -> Pushed {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.closed || inner.heap.len() >= self.depth {
            return Pushed::Full;
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.heap.push(Entry {
            priority: job.spec.priority,
            seq,
            job,
        });
        let len = inner.heap.len();
        drop(inner);
        self.ready.notify_one();
        Pushed::Admitted(len)
    }

    /// Blocks until a runnable job is available, skipping tombstoned
    /// (cancelled-while-queued) entries. Returns `None` once the queue
    /// is closed *and* empty — the worker-thread exit signal.
    pub fn pop(&self) -> Option<Arc<Job>> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            while let Some(entry) = inner.heap.pop() {
                if entry.job.status() == JobStatus::Cancelled {
                    continue;
                }
                return Some(entry.job);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Number of jobs currently waiting (tombstones included).
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .heap
            .len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stops admissions and wakes every waiting worker so they can
    /// finish the backlog (or exit immediately if told to).
    pub fn close(&self) {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;

    fn job(id: u64, priority: u64) -> Arc<Job> {
        let spec = JobSpec::from_json(
            &minpower_core::json::parse(&format!(r#"{{"circuit":"c17","priority":{priority}}}"#))
                .unwrap(),
        )
        .unwrap();
        Arc::new(Job::new(id, spec))
    }

    #[test]
    fn orders_by_priority_then_fifo() {
        let q = JobQueue::new(8);
        assert_eq!(q.push(job(1, 0)), Pushed::Admitted(1));
        assert_eq!(q.push(job(2, 5)), Pushed::Admitted(2));
        assert_eq!(q.push(job(3, 5)), Pushed::Admitted(3));
        assert_eq!(q.push(job(4, 1)), Pushed::Admitted(4));
        let order: Vec<u64> = (0..4).map(|_| q.pop().unwrap().id).collect();
        assert_eq!(order, vec![2, 3, 4, 1]);
    }

    #[test]
    fn full_queue_rejects_without_blocking() {
        let q = JobQueue::new(2);
        assert!(matches!(q.push(job(1, 0)), Pushed::Admitted(_)));
        assert!(matches!(q.push(job(2, 0)), Pushed::Admitted(_)));
        assert_eq!(q.push(job(3, 0)), Pushed::Full);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn cancelled_entries_are_skipped() {
        let q = JobQueue::new(8);
        let doomed = job(1, 9);
        q.push(doomed.clone());
        q.push(job(2, 0));
        doomed.cancel_by_user();
        assert_eq!(q.pop().unwrap().id, 2);
    }

    #[test]
    fn close_wakes_and_terminates_pop() {
        let q = Arc::new(JobQueue::new(4));
        let q2 = q.clone();
        let handle = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert!(handle.join().unwrap().is_none());
        assert_eq!(q.push(job(1, 0)), Pushed::Full);
    }
}
