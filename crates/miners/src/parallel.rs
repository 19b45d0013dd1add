//! Deterministic dynamic work distribution.
//!
//! The mining pipeline's work items are wildly uneven: one seed's ball can
//! hold half the pool while another's is empty, and one item's DFS subtree
//! can dwarf its siblings'. A fixed-chunk `std::thread::scope` split
//! therefore idles most workers on stragglers. This module provides work
//! stealing off a shared queue instead: workers claim the next unclaimed
//! task index from an atomic counter, so a worker that finishes early
//! immediately takes over work that would otherwise queue behind a long
//! task on a static schedule.
//!
//! The queue lives in `cfp_miners` (the lowest crate that schedules work)
//! and is shared upward: the parallel initial-pool miner
//! ([`crate::delta_pool_slab`]) distributes per-item DFS subtrees over it,
//! and `cfp_core` re-exports it as `cfp_core::parallel` for the fusion
//! engine's ball scans, per-seed fusions, shard runs, and pivot-table
//! builds.
//!
//! Determinism: results are keyed by task index, not by completion order, so
//! the output is identical for any thread count — the scheduler only decides
//! *who* runs a task, never *what* the task computes (per-task RNGs are
//! derived from the task index upstream).
//!
//! The ball scan keeps this contract: its tasks are cut by
//! `BallQuery::segments` (in `cfp_core::ball`), a pure function of the
//! query's candidate window, so the task list — and therefore every task's
//! identity and output slot — is the same at any thread count.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `work(0..n_tasks)` across `threads` workers that steal task indices
/// from a shared queue, returning results in task order.
///
/// With `threads <= 1` (or fewer than two tasks) everything runs inline on
/// the caller's thread with no synchronization.
pub fn run_tasks<T, F>(n_tasks: usize, threads: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || n_tasks <= 1 {
        return (0..n_tasks).map(work).collect();
    }
    let next = AtomicUsize::new(0);
    let workers = threads.min(n_tasks);
    let mut slots: Vec<Option<T>> = (0..n_tasks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let work = &work;
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n_tasks {
                            break;
                        }
                        done.push((i, work(i)));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            for (i, out) in h.join().expect("worker panicked") {
                slots[i] = Some(out);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every task index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_are_in_task_order_for_any_thread_count() {
        let work = |i: usize| i * i;
        let want: Vec<usize> = (0..97).map(work).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(run_tasks(97, threads, work), want, "threads={threads}");
        }
    }

    #[test]
    fn uneven_tasks_all_run_exactly_once() {
        let ran = AtomicU64::new(0);
        let out = run_tasks(40, 4, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            if i % 7 == 0 {
                // Simulate stragglers.
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i
        });
        assert_eq!(ran.load(Ordering::Relaxed), 40);
        assert_eq!(out, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn zero_and_one_tasks() {
        assert_eq!(run_tasks(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(run_tasks(1, 8, |i| i + 1), vec![1]);
    }
}
