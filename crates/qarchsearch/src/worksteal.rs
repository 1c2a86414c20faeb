//! A work-stealing task executor for candidate evaluations.
//!
//! The original parallel scheduler fanned each depth's candidates out with a
//! fork-join `par_iter`, which splits the task list into one contiguous
//! chunk per thread up front. Candidate training times vary wildly under
//! successive halving (a candidate pruned at the first rung costs a tenth of
//! a full-budget survivor), so static chunking routinely leaves most cores
//! idle behind one unlucky worker. This executor replaces it:
//!
//! * tasks are dealt round-robin into **per-worker deques**;
//! * each worker drains its own deque from the front and, when empty,
//!   **steals from the back** of the other deques;
//! * every worker owns a [`WorkerScratch`] of reusable batch-evaluation
//!   buffers (keyed by register width), so no simulation allocates its `2^n`
//!   states in steady state;
//! * workers pin the **inner** parallelism level to one thread for the
//!   duration of each task: the outer level owns the cores (the paper's
//!   two-level scheme). The inner level's results do not depend on its
//!   thread count, so the pin is about cores, not bits.
//!
//! Determinism: each task's result depends only on the task itself (seeded
//! optimizers, thread-count-independent kernels), and results are returned
//! in task order no matter which worker executed them or in what
//! interleaving.

use crate::sync::lock_recover;
use qaoa::BatchScratch;
use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

/// Per-worker reusable simulation buffers, keyed by register width.
#[derive(Debug, Default)]
pub struct WorkerScratch {
    batches: HashMap<usize, BatchScratch>,
}

impl WorkerScratch {
    /// A scratch pool with no buffers allocated yet.
    pub fn new() -> WorkerScratch {
        WorkerScratch::default()
    }

    /// The reusable batched-evaluation scratch for `num_qubits`. The buffers
    /// inside are built lazily by the batch path itself, so handing one out
    /// costs nothing until a batched sweep actually runs.
    pub fn batch(&mut self, num_qubits: usize) -> &mut BatchScratch {
        self.batches.entry(num_qubits).or_default()
    }

    /// Number of distinct buffer widths currently held.
    pub fn num_buffers(&self) -> usize {
        self.batches.len()
    }
}

/// Run every task and return the results in task order.
///
/// `threads` is the worker count (clamped to the task count; `1` executes
/// inline). `f` receives the worker's scratch pool and the task. Worker
/// panics propagate.
pub fn run_tasks<T, R, F>(tasks: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut WorkerScratch, T) -> R + Sync,
{
    let n = tasks.len();
    let threads = threads.clamp(1, n.max(1));

    // The outer level owns the cores: each task's kernels run inline.
    let inner_pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("single-thread pool");

    if threads <= 1 {
        let mut scratch = WorkerScratch::new();
        return tasks
            .into_iter()
            .map(|t| inner_pool.install(|| f(&mut scratch, t)))
            .collect();
    }

    // Deal tasks round-robin into per-worker deques, remembering each task's
    // original position so results can be reassembled in order.
    let mut queues: Vec<VecDeque<(usize, T)>> = (0..threads).map(|_| VecDeque::new()).collect();
    for (i, task) in tasks.into_iter().enumerate() {
        queues[i % threads].push_back((i, task));
    }
    let queues: Vec<Mutex<VecDeque<(usize, T)>>> = queues.into_iter().map(Mutex::new).collect();
    let queues = &queues;
    let f = &f;
    let inner_pool = &inner_pool;

    let mut buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                scope.spawn(move || {
                    let mut scratch = WorkerScratch::new();
                    let mut done: Vec<(usize, R)> = Vec::new();
                    loop {
                        // Own queue first (front), then steal (back) walking
                        // the other workers in ring order.
                        let next = {
                            let mut own = lock_recover(&queues[w]);
                            own.pop_front()
                        }
                        .or_else(|| {
                            (1..threads).find_map(|d| {
                                let victim = (w + d) % threads;
                                let mut q = lock_recover(&queues[victim]);
                                q.pop_back()
                            })
                        });
                        match next {
                            Some((i, task)) => {
                                let r = inner_pool.install(|| f(&mut scratch, task));
                                done.push((i, r));
                            }
                            None => break,
                        }
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("work-stealing worker panicked"))
            .collect()
    });

    // Reassemble in task order.
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for bucket in buckets.iter_mut() {
        for (i, r) in bucket.drain(..) {
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every task executed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_task_order() {
        let tasks: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 4, 7] {
            let out = run_tasks(tasks.clone(), threads, |_, t| t * 3);
            assert_eq!(out, (0..100).map(|t| t * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = run_tasks((0..250).collect::<Vec<_>>(), 4, |_, t: i32| {
            counter.fetch_add(1, Ordering::SeqCst);
            t
        });
        assert_eq!(counter.load(Ordering::SeqCst), 250);
        assert_eq!(out.len(), 250);
    }

    #[test]
    fn uneven_task_costs_are_balanced_by_stealing() {
        // One pathological task (index 0) next to many cheap ones: with
        // stealing, wall-clock is bounded by the slow task, not by a static
        // chunk containing it plus half the cheap work.
        let tasks: Vec<u64> = (0..64).map(|i| if i == 0 { 20 } else { 1 }).collect();
        let out = run_tasks(tasks, 4, |_, millis| {
            std::thread::sleep(std::time::Duration::from_millis(millis));
            millis
        });
        assert_eq!(out.iter().sum::<u64>(), 20 + 63);
    }

    #[test]
    fn scratch_buffers_are_reused_within_a_worker() {
        // Single worker: the second task of the same width must find the
        // buffer already allocated.
        let sizes = vec![4usize, 4, 5, 4, 5];
        let out = run_tasks(sizes, 1, |scratch, n| {
            scratch.batch(n);
            scratch.num_buffers()
        });
        assert_eq!(out, vec![1, 1, 2, 2, 2]);
    }

    #[test]
    fn more_threads_than_tasks_is_fine() {
        let out = run_tasks(vec![1, 2], 16, |_, t| t + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn empty_task_list_returns_empty() {
        let out: Vec<i32> = run_tasks(Vec::<i32>::new(), 4, |_, t| t);
        assert!(out.is_empty());
    }
}
