//! A small scoped worker pool: dynamic self-scheduling over a list of
//! tasks, with deterministic result ordering.
//!
//! Workers claim tasks one at a time from a shared queue — the classic
//! self-scheduling loop, which load-balances skewed per-strip work the
//! same way rayon's work stealing would for this flat fan-out shape —
//! and each worker owns one per-thread state (the executor passes its
//! long-lived [`StripScanner`](crate::exec::strip::StripScanner)s, so
//! crossbar scratch and sALUs are never shared). A task is a value moved
//! to whichever worker claims it, so it may carry exclusive borrows: the
//! executor hands each plan unit its own disjoint output windows this
//! way. Results are reassembled in task order, which is what makes the
//! executor's plan-order metrics merge deterministic.
//!
//! The calling thread is itself worker 0: a fan-out over `n` workers
//! spawns only `n − 1` helpers and runs its own share on `states[0]`
//! instead of sitting idle in the join. The pool is scoped
//! (`std::thread::scope`), so tasks may freely borrow from the caller's
//! stack; no `'static` bounds, no channels, no unsafe.

use std::sync::Mutex;

/// Host parallelism available to the process (at least 1).
#[must_use]
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `tasks` indexed tasks on up to `threads` workers and returns the
/// results in index order.
///
/// `init` builds one scratch state per worker; `step` executes one task
/// with that state. The caller's thread is worker 0; with one worker (or
/// at most one task) everything runs inline on it — same closure, same
/// order.
///
/// # Panics
///
/// Re-raises a worker's panic — the caller's own share included — with
/// its original payload (after every worker has stopped), so a caller's
/// `catch_unwind` sees the task's own message.
pub fn run_indexed<S, T, I, F>(tasks: usize, threads: usize, init: I, step: F) -> Vec<T>
where
    S: Send,
    T: Send,
    I: Fn() -> S,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let workers = threads.max(1).min(tasks.max(1));
    let mut states: Vec<S> = (0..workers).map(|_| init()).collect();
    run_on(&mut states, 0..tasks, step)
}

/// [`run_indexed`] over caller-owned worker states and task values: one
/// worker per entry of `states` (at most one per task), each passing its
/// own state and the task it claimed to `step`, so states persist across
/// calls for a caller that keeps them. The calling thread is worker 0 on
/// `states[0]`; only the other workers are spawned.
pub(crate) fn run_on<S, I, T, F>(states: &mut [S], tasks: I, step: F) -> Vec<T>
where
    S: Send,
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    T: Send,
    F: Fn(&mut S, I::Item) -> T + Sync,
{
    assert!(!states.is_empty(), "at least one worker state required");
    let tasks = tasks.into_iter();
    let len = tasks.len();
    let workers = states.len().min(len.max(1));
    if workers == 1 {
        let state = &mut states[0];
        return tasks.map(|task| step(state, task)).collect();
    }
    let queue = Mutex::new(tasks.enumerate());
    let claim = |state: &mut S| {
        let mut out = Vec::new();
        loop {
            // The guard drops at the end of this statement, before the
            // task runs, so a panicking task never poisons the queue.
            let claimed = queue.lock().expect("queue lock").next();
            let Some((idx, task)) = claimed else { break };
            out.push((idx, step(state, task)));
        }
        out
    };
    let (own, helpers) = states[..workers]
        .split_first_mut()
        .expect("workers ≥ 2 here");
    let joined: Vec<_> = std::thread::scope(|scope| {
        let claim = &claim;
        let handles: Vec<_> = helpers
            .iter_mut()
            .map(|state| scope.spawn(move || claim(state)))
            .collect();
        // A panic on the caller's own share leaves the scope, which first
        // waits for the helpers and then re-raises its payload.
        let mine = claim(own);
        std::iter::once(Ok(mine))
            .chain(handles.into_iter().map(|h| h.join()))
            .collect()
    });
    let mut indexed = Vec::with_capacity(len);
    for worker in joined {
        match worker {
            Ok(out) => indexed.extend(out),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;
    use std::sync::Barrier;

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [1, 2, 8] {
            let out = run_indexed(
                100,
                threads,
                || 0u64,
                |state, i| {
                    *state += 1;
                    i * i
                },
            );
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn workers_share_no_state() {
        // Each worker's init state counts its own tasks; totals must cover
        // exactly the task range.
        let seen: Vec<usize> = run_indexed(64, 4, || (), |(), i| i);
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn zero_tasks_is_fine() {
        let out: Vec<usize> = run_indexed(0, 4, || (), |(), i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn borrows_from_caller_stack() {
        let data: Vec<usize> = (0..32).collect();
        let doubled = run_indexed(data.len(), 3, || (), |(), i| data[i] * 2);
        assert_eq!(doubled[31], 62);
    }

    #[test]
    fn states_persist_across_calls() {
        let mut states = vec![0usize; 3];
        for _ in 0..4 {
            run_on(&mut states, 0..10, |count, _| *count += 1);
        }
        assert_eq!(states.iter().sum::<usize>(), 40);
    }

    #[test]
    fn the_caller_runs_a_share_beside_its_helper() {
        // Each task waits for the other at the barrier, so the two must run
        // concurrently on two threads, one of them the caller.
        let caller = std::thread::current().id();
        let barrier = Barrier::new(2);
        let ran_on = run_indexed(
            2,
            2,
            || (),
            |(), _| {
                barrier.wait();
                std::thread::current().id()
            },
        );
        assert_ne!(ran_on[0], ran_on[1], "the tasks must run on two threads");
        assert!(ran_on.contains(&caller), "one task must run on the caller");
    }

    fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
        payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("")
    }

    #[test]
    fn worker_panics_keep_their_payload() {
        for threads in [1, 3] {
            let caught = std::panic::catch_unwind(|| {
                run_indexed(
                    8,
                    threads,
                    || (),
                    |(), i| {
                        assert!(i != 5, "unit {i} rejected its input");
                        i
                    },
                )
            })
            .expect_err("the task panic must reach the caller");
            assert_eq!(
                panic_message(&*caught),
                "unit 5 rejected its input",
                "{threads} threads"
            );
        }
        // One share per thread (the barrier pins the split); the panic is
        // raised on the caller's own share, then on the helper's.
        let caller = std::thread::current().id();
        for (on_caller, expected) in [(true, "the caller"), (false, "a helper")] {
            let barrier = Barrier::new(2);
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                run_indexed(
                    2,
                    2,
                    || (),
                    |(), i| {
                        barrier.wait();
                        let here = std::thread::current().id() == caller;
                        let who = if here { "the caller" } else { "a helper" };
                        assert!(here != on_caller, "{who} rejected its input");
                        i
                    },
                )
            }))
            .expect_err("the share's panic must reach the caller");
            assert_eq!(
                panic_message(&*caught),
                format!("{expected} rejected its input")
            );
        }
    }
}
