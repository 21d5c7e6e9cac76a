//! The workspace's one scoped-thread work pool.
//!
//! Every parallel pass in the pipeline (the body pass of the parser, the
//! frontend's cache-aware body pass, constraint-block recording and the
//! executor's analysis matrix) has the same shape: `n` independent jobs,
//! results wanted in job order. [`claim_indexed`] is that shape, once.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Run `work(i)` for every `i in 0..n` on up to `workers` scoped threads
/// and return the results in index order.
///
/// Workers claim indices from a shared atomic counter, so a slow job never
/// holds back the rest. Results land in per-index slots, so the output is
/// the same whatever the interleaving; it equals `(0..n).map(work)` for
/// any worker count. With one worker (or at most one job) the jobs run
/// inline on the calling thread, in index order, without spawning.
///
/// A panic in `work` propagates to the caller once every worker has
/// stopped. A slot lock poisoned along the way is recovered: a slot is
/// only ever written whole.
pub fn claim_indexed<T: Send>(
    n: usize,
    workers: usize,
    work: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let workers = workers.min(n);
    if workers <= 1 {
        return (0..n).map(work).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let t = work(i);
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(t);
            });
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                // `scope` re-raises any worker panic before this point, so
                // every index was claimed and written.
                .unwrap_or_else(|| panic!("claimed job {i} left no result"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_at_every_worker_count() {
        for n in [0, 1, 97] {
            let serial: Vec<usize> = (0..n).map(|i| i * i).collect();
            for workers in [0, 1, 2, 4, 200] {
                assert_eq!(
                    claim_indexed(n, workers, |i| i * i),
                    serial,
                    "{n}/{workers}"
                );
            }
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let ran = Mutex::new(Vec::new());
        claim_indexed(50, 3, |i| ran.lock().unwrap().push(i));
        let mut ran = ran.into_inner().unwrap();
        ran.sort_unstable();
        assert_eq!(ran, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn a_worker_panic_reaches_the_caller() {
        let outcome = std::panic::catch_unwind(|| {
            claim_indexed(8, 2, |i| {
                assert!(i != 5, "job 5 fails");
                i
            })
        });
        assert!(outcome.is_err());
    }
}
