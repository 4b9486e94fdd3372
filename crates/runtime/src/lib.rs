//! Deterministic fan-out of independent, indexed tasks over scoped threads.
//!
//! Every hot loop in the workspace that iterates over *independent episodes*
//! (evaluation rollouts, DBN training-data collection, grid-search training
//! runs) funnels through [`run_indexed`] / [`run_indexed_with`]: workers pull
//! task indices from a shared atomic counter, results land in the slot of
//! their index, and the caller gets a `Vec` in task order. Because each task
//! derives all of its randomness from its *index* (see [`episode_seed`] and
//! [`stream_seed`]), the output is bit-identical for any thread count —
//! including 1, where the tasks run inline on the calling thread with no
//! thread machinery at all.
//!
//! The thread count defaults to the machine's available parallelism and can
//! be pinned with the `ACSO_THREADS` environment variable (see
//! [`available_threads`]). No external dependencies: the pool is
//! `std::thread::scope` plus an `AtomicUsize`.
//!
//! **Nested fan-outs run inline.** A worker of a fan-out already holds one
//! of the threads the outer fan-out sized itself to, so on a worker
//! [`available_threads`] is 1 and a nested [`run_indexed`] fan-out runs its
//! tasks on the worker itself: a grid-search cell that trains an agent, fits
//! a DBN or evaluates on a worker neither multiplies threads nor changes a
//! result. The DQN update's crew takes its width from
//! [`available_threads`], so an update on a worker runs alone too.

#![warn(missing_docs)]

mod autoscale;

pub use autoscale::{
    detected_cores, plan, plan_with, AutoscalePlan, WorkloadShape, LOCKSTEP_ACTION_THRESHOLD,
    LOCKSTEP_NODE_THRESHOLD, MAX_AUTO_LANES,
};

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

thread_local! {
    /// Whether this thread is a worker of a [`run_indexed_with_stats`]
    /// fan-out.
    static POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is a worker of a fan-out, where nested
/// fan-outs run inline (see the crate docs).
pub fn on_pool_worker() -> bool {
    POOL_WORKER.get()
}

/// Environment variable that pins the worker-thread count (`0`, empty or
/// unparsable values fall back to the detected parallelism).
pub const THREADS_ENV_VAR: &str = "ACSO_THREADS";

/// Number of worker threads to use: 1 on a fan-out's worker (see
/// [`on_pool_worker`]), otherwise `ACSO_THREADS` if set to a positive
/// integer, otherwise [`std::thread::available_parallelism`] (1 if unknown).
pub fn available_threads() -> usize {
    if on_pool_worker() {
        return 1;
    }
    threads_from(std::env::var(THREADS_ENV_VAR).ok().as_deref())
}

/// Parses a thread-count override, falling back to detected parallelism.
/// Split out from [`available_threads`] so the parsing is testable without
/// touching process-global environment state.
pub fn threads_from(var: Option<&str>) -> usize {
    match var.and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(n) if n > 0 => n,
        _ => thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// The `ACSO_THREADS` override alone: `Some(n)` only when the variable is
/// set to a positive integer, `None` otherwise. [`available_threads`] folds
/// this with the detected parallelism; the autoscaler ([`plan`]) needs the
/// two separated to report whether the operator pinned the count.
pub fn threads_override() -> Option<usize> {
    std::env::var(THREADS_ENV_VAR)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|n| *n > 0)
}

/// Environment variable that pins the lockstep rollout engine's lane count.
/// Unset, `0`, empty or unparsable values pin nothing: the autoscale
/// [`plan`] then picks the width from the workload's shape, several lanes
/// per worker at [`LOCKSTEP_NODE_THRESHOLD`] nodes or
/// [`LOCKSTEP_ACTION_THRESHOLD`] actions and up (for example
/// `registry-1000`), one lane below.
pub const BATCH_ENV_VAR: &str = "ACSO_BATCH";

/// Lockstep-batch lane count: `Some(n)` if `ACSO_BATCH` is set to a positive
/// integer, `None` (no override; the autoscale plan decides) otherwise.
pub fn batch_lanes() -> Option<usize> {
    batch_lanes_from(std::env::var(BATCH_ENV_VAR).ok().as_deref())
}

/// Parses a batch-lane override. Split out from [`batch_lanes`] so the
/// parsing is testable without touching process-global environment state.
pub fn batch_lanes_from(var: Option<&str>) -> Option<usize> {
    var.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|n| *n > 0)
}

/// Deterministic per-episode base seed: `base ^ episode_index`.
///
/// Episode `i` of a run seeded with `base` always sees the same RNG stream,
/// no matter which worker executes it or how many workers there are — the
/// property that makes parallel rollouts bit-identical to serial ones.
pub fn episode_seed(base: u64, index: usize) -> u64 {
    base ^ index as u64
}

/// A statistically independent stream for auxiliary randomness (e.g. a
/// policy's action RNG) alongside [`episode_seed`]: the episode seed is
/// offset by `salt` and diffused through a SplitMix64 round so that streams
/// with nearby bases and indices do not correlate.
pub fn stream_seed(base: u64, index: usize, salt: u64) -> u64 {
    let mut z = episode_seed(base, index)
        .wrapping_add(salt)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The Mersenne prime 2^61 - 1 used by [`mersenne_stream`].
pub const MERSENNE_61: u64 = (1 << 61) - 1;

/// Deterministic scenario seed streams via multiply-mod-Mersenne hashing
/// (Ahle–Knudsen–Thorup): `h = (a * x + b) mod (2^61 - 1)`, with the salt
/// folded into `x`. A scenario identifier (any `u64`) plus a stream salt
/// yields an independent, platform-stable seed for each of the scenario's
/// randomized components (topology shape, attacker parameters, IDS tier,
/// base episode seed), so a procedurally generated scenario is exactly
/// reproducible from its identifier alone. Composes with [`episode_seed`]:
/// the scenario-level stream becomes the rollout base seed, episodes XOR
/// their index on top.
pub fn mersenne_stream(scenario_seed: u64, salt: u64) -> u64 {
    // Fixed odd multipliers below 2^61, chosen once; the exact values only
    // need to be stable, not secret.
    const A: u128 = 0x0D96_57B2_5A18_93E5;
    const B: u128 = 0x1234_5672_89AB_CDE3;
    let x = (scenario_seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)) as u128;
    let h = (A * x + B) % (MERSENNE_61 as u128);
    // One SplitMix-style diffusion round so consecutive salts do not produce
    // arithmetically related outputs.
    let mut z = (h as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// How one [`run_indexed_with_stats`] fan-out distributed its tasks over the
/// worker pool — the engine-utilization hook consumed by serving-layer
/// observability (`acso-serve` renders it as a Prometheus gauge).
///
/// The per-worker counts depend on OS scheduling, so two runs of the same
/// job may report different distributions; only the task total and worker
/// count are deterministic. Treat the utilization number as telemetry, never
/// as part of a result transcript.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Total tasks executed.
    pub tasks: usize,
    /// Workers the pool ran with (1 means the inline serial path).
    pub workers: usize,
    /// Tasks executed by each worker, in spawn order.
    pub tasks_per_worker: Vec<usize>,
}

impl PoolStats {
    /// Mean worker load divided by the busiest worker's load, in `0.0..=1.0`:
    /// `1.0` means every worker executed the same number of tasks, values
    /// near `1/workers` mean one worker did nearly everything. Empty pools
    /// and zero-task runs report `1.0` (nothing was wasted).
    pub fn utilization(&self) -> f64 {
        let max = self.tasks_per_worker.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return 1.0;
        }
        let mean = self.tasks as f64 / self.tasks_per_worker.len().max(1) as f64;
        mean / max as f64
    }
}

/// Runs `tasks` independent jobs, fanning out over at most `threads` scoped
/// workers, and returns the results in task order.
///
/// `f(i)` must depend only on `i` (and immutable captures) for the output to
/// be thread-count-independent; all callers in this workspace derive episode
/// RNG seeds from `i` via [`episode_seed`]. A worker panic propagates to the
/// caller.
pub fn run_indexed<T, F>(tasks: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_with(tasks, threads, || (), move |(), i| f(i))
}

/// Like [`run_indexed`], but gives every worker a private mutable state
/// built by `init` (a policy instance, a scratch buffer, ...) that is reused
/// across all tasks the worker executes.
///
/// `init` runs once per worker *on that worker's thread*, so the state does
/// not need to be `Send`. With `threads <= 1`, a single task, or a caller
/// that is itself a fan-out's worker, everything runs inline on the calling
/// thread in index order.
pub fn run_indexed_with<W, T, I, F>(tasks: usize, threads: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> W + Sync,
    F: Fn(&mut W, usize) -> T + Sync,
{
    run_indexed_with_stats(tasks, threads, init, f).0
}

/// Like [`run_indexed_with`], but also reports how the tasks were spread
/// over the workers ([`PoolStats`]). The result vector is bit-identical to
/// [`run_indexed_with`]; only the stats side channel is new, so hot paths
/// that ignore it pay nothing.
pub fn run_indexed_with_stats<W, T, I, F>(
    tasks: usize,
    threads: usize,
    init: I,
    f: F,
) -> (Vec<T>, PoolStats)
where
    T: Send,
    I: Fn() -> W + Sync,
    F: Fn(&mut W, usize) -> T + Sync,
{
    let threads = if on_pool_worker() {
        1
    } else {
        threads.max(1).min(tasks.max(1))
    };
    if threads <= 1 {
        let mut worker = init();
        let results = (0..tasks).map(|i| f(&mut worker, i)).collect();
        let stats = PoolStats {
            tasks,
            workers: 1,
            tasks_per_worker: vec![tasks],
        };
        return (results, stats);
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..tasks).map(|_| None).collect();
    let mut tasks_per_worker = Vec::with_capacity(threads);
    thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    POOL_WORKER.set(true);
                    let mut worker = init();
                    let mut produced = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= tasks {
                            break;
                        }
                        produced.push((i, f(&mut worker, i)));
                    }
                    produced
                })
            })
            .collect();
        for handle in handles {
            let produced = handle.join().expect("rollout worker panicked");
            tasks_per_worker.push(produced.len());
            for (i, value) in produced {
                slots[i] = Some(value);
            }
        }
    });
    let results = slots
        .into_iter()
        .map(|slot| slot.expect("every task index produced a result"))
        .collect();
    let stats = PoolStats {
        tasks,
        workers: threads,
        tasks_per_worker,
    };
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_results_match_serial_in_order() {
        let serial = run_indexed(97, 1, |i| i * i);
        let parallel = run_indexed(97, 8, |i| i * i);
        assert_eq!(serial, parallel);
        assert_eq!(serial[10], 100);
    }

    #[test]
    fn worker_state_is_reused_within_a_worker() {
        // Each worker counts how many tasks it ran; the per-task results must
        // still land in index order regardless of which worker ran them.
        let out = run_indexed_with(
            50,
            4,
            || 0usize,
            |count, i| {
                *count += 1;
                (i, *count >= 1)
            },
        );
        assert_eq!(out.len(), 50);
        for (idx, (i, counted)) in out.iter().enumerate() {
            assert_eq!(*i, idx);
            assert!(counted);
        }
    }

    #[test]
    fn zero_tasks_yield_empty_output() {
        let out: Vec<u32> = run_indexed(0, 4, |_| unreachable!("no tasks to run"));
        assert!(out.is_empty());
    }

    #[test]
    fn seeds_are_per_index_deterministic() {
        assert_eq!(episode_seed(7, 0), 7);
        assert_eq!(episode_seed(7, 3), 7 ^ 3);
        assert_eq!(episode_seed(0, 5), 5);
        // Distinct indices give distinct auxiliary streams.
        assert_ne!(stream_seed(0, 0, 1), stream_seed(0, 1, 1));
        assert_ne!(stream_seed(0, 0, 1), stream_seed(0, 0, 2));
        assert_eq!(stream_seed(9, 4, 3), stream_seed(9, 4, 3));
    }

    #[test]
    fn mersenne_streams_are_stable_and_independent() {
        // Stability: pinned values guard the hash against accidental change
        // (every procedurally generated scenario depends on them).
        assert_eq!(mersenne_stream(0, 0), mersenne_stream(0, 0));
        assert_ne!(mersenne_stream(0, 0), mersenne_stream(0, 1));
        assert_ne!(mersenne_stream(0, 0), mersenne_stream(1, 0));
        // Nearby seeds and salts diffuse into unrelated outputs.
        let a = mersenne_stream(42, 1);
        let b = mersenne_stream(42, 2);
        let c = mersenne_stream(43, 1);
        assert_ne!(a ^ b, a ^ c);
    }

    #[test]
    fn thread_count_parsing_prefers_valid_overrides() {
        assert_eq!(threads_from(Some("3")), 3);
        assert_eq!(threads_from(Some(" 12 ")), 12);
        let detected = threads_from(None);
        assert!(detected >= 1);
        assert_eq!(threads_from(Some("0")), detected);
        assert_eq!(threads_from(Some("lots")), detected);
    }

    #[test]
    fn batch_lane_parsing_requires_a_positive_integer() {
        assert_eq!(batch_lanes_from(Some("16")), Some(16));
        assert_eq!(batch_lanes_from(Some(" 1 ")), Some(1));
        assert_eq!(batch_lanes_from(Some("0")), None);
        assert_eq!(batch_lanes_from(Some("many")), None);
        assert_eq!(batch_lanes_from(Some("")), None);
        assert_eq!(batch_lanes_from(None), None);
    }

    #[test]
    fn stats_account_for_every_task() {
        let (out, stats) = run_indexed_with_stats(40, 4, || (), |(), i| i);
        assert_eq!(out.len(), 40);
        assert_eq!(stats.tasks, 40);
        assert_eq!(stats.workers, 4);
        assert_eq!(stats.tasks_per_worker.len(), 4);
        assert_eq!(stats.tasks_per_worker.iter().sum::<usize>(), 40);
        let u = stats.utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization {u} out of range");

        // The inline serial path reports a single fully-utilized worker.
        let (_, serial) = run_indexed_with_stats(5, 1, || (), |(), i| i);
        assert_eq!(serial.workers, 1);
        assert_eq!(serial.tasks_per_worker, vec![5]);
        assert_eq!(serial.utilization(), 1.0);
    }

    #[test]
    fn utilization_of_degenerate_pools_is_one() {
        let empty = PoolStats {
            tasks: 0,
            workers: 2,
            tasks_per_worker: vec![0, 0],
        };
        assert_eq!(empty.utilization(), 1.0);
        let lopsided = PoolStats {
            tasks: 10,
            workers: 2,
            tasks_per_worker: vec![10, 0],
        };
        assert!((lopsided.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn nested_fan_outs_run_inline_on_the_worker() {
        let (nested, _) = run_indexed_with_stats(
            2,
            2,
            || (),
            |(), _| {
                let worker = std::thread::current().id();
                let (ran_on, stats) =
                    run_indexed_with_stats(3, 2, || (), |(), i| (i, std::thread::current().id()));
                assert!(ran_on.iter().all(|(_, id)| *id == worker));
                (stats, available_threads(), on_pool_worker())
            },
        );
        for (stats, threads, on_worker) in nested {
            assert_eq!(stats.workers, 1);
            assert_eq!(stats.tasks_per_worker, vec![3]);
            assert_eq!(threads, 1);
            assert!(on_worker);
        }
        assert!(!on_pool_worker());
    }

    #[test]
    fn panics_in_workers_propagate() {
        let result = std::panic::catch_unwind(|| {
            run_indexed(8, 4, |i| {
                assert!(i < 4, "boom");
                i
            })
        });
        assert!(result.is_err());
    }
}
