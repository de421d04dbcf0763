//! The persistent worker pool behind the store's parallel runtimes.
//!
//! [`crate::StoreBuilder`] creates one [`WorkerPool`] when the store is built
//! (never per drain — the old threaded runtime re-spawned one OS thread per
//! shard on *every* `run_until_quiescent` call). Workers live as long as the
//! store and park on a condvar between drains.
//!
//! Scheduling follows the chase-lev work-stealing discipline, implemented
//! std-only because the workspace vendors no crossbeam and the store crate
//! forbids unsafe code: every worker owns one double-ended queue, pushes and
//! pops at the back (newest first, likely cache-warm), and steals from the
//! *front* of another worker's queue when its own runs dry (oldest first, the
//! task its owner is furthest from reaching). A mutex per deque stands in for
//! the lock-free bottom/top indices of the real thing; tasks here are whole
//! cluster simulations, so queue operations are noise next to task bodies.
//!
//! Determinism is unaffected by any of this: a task owns its key cluster
//! outright while it runs (no shard state is shared), each cluster is a
//! self-contained deterministic simulation, and the store reinstalls and
//! harvests results in `(shard, cluster-index)` order after the pool drains.
//! Which worker ran which cluster first is the *only* nondeterminism, and it
//! is visible only in the [`PoolMetrics`] counters.

use crate::metrics::PoolMetrics;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// A unit of pool work: run one key cluster (or one shard's whole batch) to
/// quiescence and report back through the channel the task captured.
pub(crate) type Task = Box<dyn FnOnce() + Send + 'static>;

/// State shared between the pool handle and its workers.
struct PoolShared {
    /// One deque per worker; see the module docs for the stealing discipline.
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Tasks pushed but not yet taken, across all queues. Lets sleepy workers
    /// notice work without locking every queue.
    queued: AtomicUsize,
    /// Workers park on this pair when every queue is empty.
    idle: Mutex<()>,
    work_ready: Condvar,
    /// Tasks submitted whose worker has not yet finished with them — body
    /// run *and* counters below updated. [`WorkerPool::wait_idle`] parks on
    /// `all_done` (under `idle`) until this reaches zero.
    unfinished: AtomicUsize,
    all_done: Condvar,
    shutdown: AtomicBool,
    /// Tasks whose body panicked. The submitter re-raises once its result
    /// channel disconnects short of the expected count.
    panics: AtomicUsize,
    tasks_executed: AtomicU64,
    steals: AtomicU64,
    busy_nanos: AtomicU64,
}

/// A fixed-size pool of persistent worker threads with work-stealing deques.
/// Dropping the pool shuts the workers down and joins them.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` (at least one) persistent worker threads.
    pub(crate) fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            queued: AtomicUsize::new(0),
            idle: Mutex::new(()),
            work_ready: Condvar::new(),
            unfinished: AtomicUsize::new(0),
            all_done: Condvar::new(),
            shutdown: AtomicBool::new(false),
            panics: AtomicUsize::new(0),
            tasks_executed: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("soda-store-worker-{index}"))
                    .spawn(move || worker_loop(index, &shared))
                    .expect("spawning a store worker thread")
            })
            .collect();
        WorkerPool {
            shared,
            workers: handles,
        }
    }

    /// Number of worker threads.
    pub(crate) fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Distributes `tasks` round-robin across the worker deques and wakes
    /// every worker. Returns immediately; results travel through whatever
    /// channel the tasks capture, and [`Self::wait_idle`] is the barrier
    /// after which every submitted task is over and counted.
    pub(crate) fn submit(&self, tasks: Vec<Task>) {
        if tasks.is_empty() {
            return;
        }
        let count = tasks.len();
        let queues = self.shared.queues.len();
        self.shared.unfinished.fetch_add(count, Ordering::SeqCst);
        for (i, task) in tasks.into_iter().enumerate() {
            self.shared.queues[i % queues]
                .lock()
                .expect("worker queue poisoned")
                .push_back(task);
        }
        self.shared.queued.fetch_add(count, Ordering::Release);
        // Notify while holding the idle lock: every worker is then either
        // before its own emptiness re-check (it will observe `queued > 0`) or
        // already waiting (the notification reaches it) — no missed wakeups.
        let _idle = self.shared.idle.lock().expect("idle lock poisoned");
        self.shared.work_ready.notify_all();
    }

    /// Blocks until every task submitted so far has finished: its body has
    /// returned or unwound, and `panics`, `tasks_executed` and `busy_nanos`
    /// include it. A task's own completion signal (its channel sender
    /// dropping) is observable *before* its worker updates those counters,
    /// and a panicking task may hold no sender at all — so this, not the
    /// channel, is what makes the counters safe to read.
    pub(crate) fn wait_idle(&self) {
        let mut idle = self.shared.idle.lock().expect("idle lock poisoned");
        while self.shared.unfinished.load(Ordering::SeqCst) > 0 {
            idle = self
                .shared
                .all_done
                .wait(idle)
                .expect("idle lock poisoned while waiting");
        }
    }

    /// Tasks whose body panicked since the pool was created.
    pub(crate) fn panics(&self) -> usize {
        self.shared.panics.load(Ordering::Acquire)
    }

    /// Lifetime scheduling counters.
    pub(crate) fn metrics(&self) -> PoolMetrics {
        PoolMetrics {
            workers: self.workers.len(),
            tasks_executed: self.shared.tasks_executed.load(Ordering::Relaxed),
            steals: self.shared.steals.load(Ordering::Relaxed),
            busy_nanos: self.shared.busy_nanos.load(Ordering::Relaxed),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _idle = self.shared.idle.lock().expect("idle lock poisoned");
            self.shared.work_ready.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(index: usize, shared: &PoolShared) {
    loop {
        if let Some(task) = take_task(index, shared) {
            let started = Instant::now();
            // A panicking task must not take the whole pool (and every
            // following drain) down with it; the drain that submitted the
            // task re-raises when its results come up short.
            if std::panic::catch_unwind(AssertUnwindSafe(task)).is_err() {
                shared.panics.fetch_add(1, Ordering::Release);
            }
            shared
                .busy_nanos
                .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
            shared.tasks_executed.fetch_add(1, Ordering::Relaxed);
            // Last, so that whoever sees `unfinished` reach zero also sees
            // the counters above. Notify under the idle lock: a waiter is
            // then either before its own check (it will read zero) or
            // already waiting (the notification reaches it).
            if shared.unfinished.fetch_sub(1, Ordering::SeqCst) == 1 {
                let _idle = shared.idle.lock().expect("idle lock poisoned");
                shared.all_done.notify_all();
            }
            continue;
        }
        let idle = shared.idle.lock().expect("idle lock poisoned");
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if shared.queued.load(Ordering::Acquire) > 0 {
            continue; // work arrived between the scan and the lock
        }
        drop(
            shared
                .work_ready
                .wait(idle)
                .expect("idle lock poisoned while waiting"),
        );
    }
}

/// Pops the newest task of the worker's own deque, or steals the oldest task
/// of another worker's, scanning ring-order from the right-hand neighbor.
fn take_task(index: usize, shared: &PoolShared) -> Option<Task> {
    let n = shared.queues.len();
    for offset in 0..n {
        let victim = (index + offset) % n;
        let task = {
            let mut queue = shared.queues[victim].lock().expect("worker queue poisoned");
            if offset == 0 {
                queue.pop_back()
            } else {
                queue.pop_front()
            }
        };
        if let Some(task) = task {
            shared.queued.fetch_sub(1, Ordering::Release);
            if offset != 0 {
                shared.steals.fetch_add(1, Ordering::Relaxed);
            }
            return Some(task);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = WorkerPool::new(3);
        let (tx, rx) = channel();
        let tasks: Vec<Task> = (0..64u64)
            .map(|i| {
                let tx = tx.clone();
                Box::new(move || tx.send(i).unwrap()) as Task
            })
            .collect();
        drop(tx);
        pool.submit(tasks);
        let mut seen: Vec<u64> = rx.iter().take(64).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..64).collect::<Vec<_>>());
        pool.wait_idle();
        let m = pool.metrics();
        assert_eq!(m.tasks_executed, 64);
        assert_eq!(m.workers, 3);
    }

    #[test]
    fn survives_repeated_drains_and_a_panicking_task() {
        let pool = WorkerPool::new(2);
        for round in 0..3u64 {
            let (tx, rx) = channel();
            let mut tasks: Vec<Task> = (0..8u64)
                .map(|i| {
                    let tx = tx.clone();
                    Box::new(move || tx.send(round * 100 + i).unwrap()) as Task
                })
                .collect();
            // The panicking task holds no sender and is held back until every
            // result of its round has been received: the interleaving in
            // which the channel says "done" while a task is still running.
            let (release, held) = channel::<()>();
            if round == 1 {
                tasks.push(Box::new(move || {
                    let _ = held.recv();
                    panic!("task panic must stay contained")
                }));
            }
            drop(tx);
            pool.submit(tasks);
            assert_eq!(rx.iter().count(), 8, "round {round}");
            drop(release);
            pool.wait_idle();
            assert_eq!(pool.panics(), usize::from(round >= 1), "round {round}");
        }
        assert_eq!(pool.metrics().tasks_executed, 25);
    }

    #[test]
    fn wait_idle_returns_at_once_on_an_idle_pool() {
        let pool = WorkerPool::new(2);
        pool.wait_idle();
        pool.submit(Vec::new());
        pool.wait_idle();
        assert_eq!(pool.metrics().tasks_executed, 0);
    }

    #[test]
    fn zero_workers_is_clamped_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.num_workers(), 1);
        let (tx, rx) = channel();
        pool.submit(vec![Box::new(move || tx.send(7u32).unwrap()) as Task]);
        assert_eq!(rx.recv().unwrap(), 7);
    }
}
