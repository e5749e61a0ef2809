//! The reactor's fixed-size worker pool.
//!
//! Deliberately simple: a bounded crew of workers pulling closures off a
//! shared channel. A job is one request or one coalesced batch, so
//! persistent connections never pin a worker; the pool size bounds
//! concurrent handler work.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size worker pool; dropping it waits for every submitted job.
pub struct ThreadPool {
    workers: Vec<thread::JoinHandle<()>>,
    sender: Option<mpsc::Sender<Job>>,
}

impl ThreadPool {
    /// Spawns a pool with `size` workers.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    #[must_use]
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "thread pool needs at least one worker");
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..size)
            .map(|_| {
                let receiver = Arc::clone(&receiver);
                thread::spawn(move || loop {
                    let job = {
                        // Recover rather than propagate poisoning: the
                        // receiver is only *held* across `recv`, which
                        // cannot leave it mid-mutation, and a dead worker
                        // here would silently shrink the crew forever.
                        let guard = match receiver.lock() {
                            Ok(guard) => guard,
                            Err(poisoned) => poisoned.into_inner(),
                        };
                        guard.recv()
                    };
                    match job {
                        // A panicking job must cost only itself, never the
                        // worker: the reactor sizes its pool assuming every
                        // member stays alive (one bad handler taking
                        // a worker down would wedge a 1-worker reactor).
                        Ok(job) => drop(catch_unwind(AssertUnwindSafe(job))),
                        Err(_) => break, // channel closed: shut down
                    }
                })
            })
            .collect();
        Self {
            workers,
            sender: Some(sender),
        }
    }

    /// Submits a job; it runs as soon as a worker is free.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.sender
            .as_ref()
            .expect("the sender lives until drop")
            .send(Box::new(job))
            .expect("workers are alive while sender exists");
    }
}

impl Drop for ThreadPool {
    /// Closes the queue and waits for all submitted jobs to finish.
    fn drop(&mut self) {
        drop(self.sender.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn runs_all_jobs() {
        let pool = ThreadPool::new(3);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..200 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool);
        assert_eq!(counter.load(Ordering::SeqCst), 200);
    }

    #[test]
    fn concurrency_is_bounded_by_size() {
        let pool = ThreadPool::new(2);
        let active = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        for _ in 0..20 {
            let active = Arc::clone(&active);
            let peak = Arc::clone(&peak);
            pool.execute(move || {
                let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                thread::sleep(Duration::from_millis(5));
                active.fetch_sub(1, Ordering::SeqCst);
            });
        }
        drop(pool);
        assert!(peak.load(Ordering::SeqCst) <= 2);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_size_panics() {
        let _ = ThreadPool::new(0);
    }

    #[test]
    fn workers_survive_panicking_jobs() {
        // A 1-worker pool: if the panicking job killed its worker, the
        // follow-up jobs would never run and drop would still return
        // (channel closed) with the counter short.
        let pool = ThreadPool::new(1);
        let counter = Arc::new(AtomicUsize::new(0));
        for round in 0..6 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                if round % 2 == 0 {
                    panic!("job {round} blew up");
                }
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool);
        assert_eq!(counter.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn drop_waits_for_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(2);
            for _ in 0..10 {
                let counter = Arc::clone(&counter);
                pool.execute(move || {
                    thread::sleep(Duration::from_millis(1));
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        } // drop
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }
}
