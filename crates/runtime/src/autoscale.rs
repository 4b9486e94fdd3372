//! Deterministic lane and thread autoscaling.
//!
//! Every evaluation fan-out runs on the lockstep engine, which steps a
//! batch of `lanes` episodes per worker; the plan picks that lane width and
//! the worker thread count. Historically each caller read `ACSO_BATCH` /
//! `ACSO_THREADS` directly and fell back to fixed defaults, which meant a
//! 1000-host evaluation ran un-batched unless the operator remembered the
//! right incantation. [`plan`] turns that around: the *workload's shape*
//! (topology size, action-space size, episode count) and the machine's
//! detected cores pick the lanes and threads, and the environment variables
//! are demoted to explicit overrides.
//!
//! The plan is a pure function of its inputs ([`plan_with`]), so the same
//! shape on the same machine with the same overrides always produces the
//! same plan. And because the engine is pinned bit-identical to the serial
//! evaluator for any thread count and lane width (`rollout_determinism.rs`,
//! `batch_determinism.rs`), autoscaling can never change a transcript — only
//! how fast it is produced.

use std::thread;

/// Shape of a rollout workload, as known before any episode runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadShape {
    /// Computing nodes in the topology (drives per-decision inference cost).
    pub nodes: usize,
    /// Flat action-space size (drives the Q-head width).
    pub actions: usize,
    /// Episodes the run will execute.
    pub episodes: usize,
}

/// A resolved autoscaling decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AutoscalePlan {
    /// Episodes each worker steps in lockstep (at least one).
    pub lanes: usize,
    /// Worker threads for the episode fan-out.
    pub threads: usize,
    /// Whether `ACSO_THREADS` (or an explicit caller override) pinned the
    /// thread count instead of the detected parallelism.
    pub threads_overridden: bool,
    /// Whether `ACSO_BATCH` (or an explicit caller override) pinned the
    /// lane width instead of the shape heuristic.
    pub lanes_overridden: bool,
}

impl AutoscalePlan {
    /// The lane width as an `Option`, always `Some`: the form perfbench
    /// reads (`.lanes().unwrap_or(1)`).
    pub fn lanes(&self) -> Option<usize> {
        Some(self.lanes)
    }

    /// One-line human/JSON-friendly summary, e.g.
    /// `"lockstep lanes=16 threads=8 (auto)"`.
    pub fn describe(&self) -> String {
        let provenance = match (self.lanes_overridden, self.threads_overridden) {
            (false, false) => "auto",
            (true, false) => "lanes pinned",
            (false, true) => "threads pinned",
            (true, true) => "lanes+threads pinned",
        };
        format!(
            "lockstep lanes={} threads={} ({provenance})",
            self.lanes, self.threads
        )
    }
}

/// Node count at which batched inference starts to pay: at this size the
/// per-decision network forward dominates the step, and amortising it across
/// lockstep lanes beats one lane per worker.
pub const LOCKSTEP_NODE_THRESHOLD: usize = 192;

/// Action-space size with the same effect (wide Q-heads batch well even on
/// mid-sized topologies).
pub const LOCKSTEP_ACTION_THRESHOLD: usize = 1_536;

/// Widest lane count the heuristic will pick on its own (overrides may go
/// higher). Past this width the inference batch stops gaining and lane
/// divergence — episodes ending at different times — starts wasting slots.
pub const MAX_AUTO_LANES: usize = 16;

/// The machine's detected parallelism (1 if unknown), ignoring every
/// override.
pub fn detected_cores() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Plans lanes and threads for a workload using detected cores and the
/// `ACSO_THREADS` / `ACSO_BATCH` environment overrides. Deterministic given
/// the same shape, machine and environment — see [`plan_with`] for the pure
/// core. On a fan-out's worker, where nested fan-outs run inline, the plan
/// has one thread.
pub fn plan(shape: &WorkloadShape) -> AutoscalePlan {
    let (cores, threads) = if crate::on_pool_worker() {
        (1, None)
    } else {
        (detected_cores(), crate::threads_override())
    };
    plan_with(shape, cores, threads, crate::batch_lanes())
}

/// The pure planning function: no environment reads, no machine probes.
///
/// * `threads_override` / `lanes_override` pin the respective decision when
///   `Some` (the environment variables, or an explicit caller choice).
/// * Otherwise threads default to `cores` and the lane width follows the
///   shape: topologies at or above [`LOCKSTEP_NODE_THRESHOLD`] nodes (or
///   action spaces at or above [`LOCKSTEP_ACTION_THRESHOLD`]) run
///   `episodes.div_ceil(threads).clamp(1, MAX_AUTO_LANES)` lanes, so every
///   worker gets a batch before any batch widens (with one thread that is
///   `episodes.clamp(1, MAX_AUTO_LANES)`); everything smaller runs one lane
///   per worker, where per-decision cost is too small for batching to beat
///   the scatter/gather overhead.
pub fn plan_with(
    shape: &WorkloadShape,
    cores: usize,
    threads_override: Option<usize>,
    lanes_override: Option<usize>,
) -> AutoscalePlan {
    let threads = threads_override.unwrap_or_else(|| cores.max(1)).max(1);
    let batch_pays =
        shape.nodes >= LOCKSTEP_NODE_THRESHOLD || shape.actions >= LOCKSTEP_ACTION_THRESHOLD;
    let lanes = match lanes_override {
        Some(lanes) => lanes,
        None if batch_pays => shape.episodes.div_ceil(threads).clamp(1, MAX_AUTO_LANES),
        None => 1,
    };
    AutoscalePlan {
        lanes: lanes.max(1),
        threads,
        threads_overridden: threads_override.is_some(),
        lanes_overridden: lanes_override.is_some(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(nodes: usize, actions: usize, episodes: usize) -> WorkloadShape {
        WorkloadShape {
            nodes,
            actions,
            episodes,
        }
    }

    #[test]
    fn small_topologies_stay_episode_parallel() {
        // One lane per worker: each worker plays its episodes one by one.
        let p = plan_with(&shape(33, 250, 100), 8, None, None);
        assert_eq!(p.lanes, 1);
        assert_eq!(p.threads, 8);
        assert!(!p.lanes_overridden && !p.threads_overridden);
        assert_eq!(p.lanes(), Some(1));
    }

    #[test]
    fn large_topologies_go_lockstep_with_bounded_lanes() {
        // 100 episodes over 8 workers: batches of ceil(100 / 8) = 13.
        let p = plan_with(&shape(1_000, 7_101, 100), 8, None, None);
        assert_eq!(p.lanes, 13);
        // Fewer episodes than cores: one-lane batches, one per worker.
        let few = plan_with(&shape(1_000, 7_101, 5), 8, None, None);
        assert_eq!(few.lanes, 1);
        // Enough episodes to fill every worker past the cap.
        let many = plan_with(&shape(1_000, 7_101, 1_000), 8, None, None);
        assert_eq!(many.lanes, MAX_AUTO_LANES);
        // Wide action spaces trigger the same path on mid-sized topologies.
        let wide = plan_with(&shape(120, 2_000, 50), 8, None, None);
        assert_eq!(wide.lanes, 7);
    }

    #[test]
    fn every_worker_gets_a_batch_before_any_batch_widens() {
        // The XL evaluation shape: 4 episodes on 2 cores run as two 2-lane
        // batches, not one 4-lane batch beside an idle core.
        let xl = plan_with(&shape(1_003, 7_222, 4), 2, None, None);
        assert_eq!(xl.lanes, 2);
        assert_eq!(xl.threads, 2);
        // A single episode is a single lane on any machine.
        for cores in [1, 2, 8] {
            let one = plan_with(&shape(1_003, 7_222, 1), cores, None, None);
            assert_eq!(one.lanes, 1);
        }
        // One thread keeps every episode in one batch, up to the cap.
        for (episodes, lanes) in [(4, 4), (5, 5), (100, MAX_AUTO_LANES)] {
            let serial = plan_with(&shape(1_003, 7_222, episodes), 8, Some(1), None);
            assert_eq!(serial.lanes, lanes);
            assert_eq!(serial.threads, 1);
        }
        // A lanes override still wins over the per-worker split.
        let pinned = plan_with(&shape(1_003, 7_222, 4), 2, None, Some(4));
        assert_eq!(pinned.lanes, 4);
        assert!(pinned.lanes_overridden);
    }

    #[test]
    fn overrides_pin_the_decision() {
        let p = plan_with(&shape(1_000, 7_101, 100), 8, Some(2), Some(4));
        assert_eq!(p.lanes, 4);
        assert_eq!(p.threads, 2);
        assert!(p.lanes_overridden && p.threads_overridden);

        // A lanes override widens batches even on a tiny topology.
        let forced = plan_with(&shape(10, 80, 4), 8, None, Some(3));
        assert_eq!(forced.lanes, 3);
        assert_eq!(forced.lanes(), Some(3));
    }

    #[test]
    fn degenerate_inputs_are_clamped() {
        let p = plan_with(&shape(1_000, 7_101, 0), 0, Some(0), Some(0));
        assert!(p.threads >= 1);
        assert_eq!(p.lanes, 1);
        let auto = plan_with(&shape(1_000, 7_101, 0), 0, None, None);
        assert_eq!(auto.lanes, 1);
        assert_eq!(auto.threads, 1);
    }

    #[test]
    fn plans_are_deterministic_and_described() {
        let a = plan_with(&shape(500, 3_600, 20), 4, None, None);
        let b = plan_with(&shape(500, 3_600, 20), 4, None, None);
        assert_eq!(a, b);
        // 20 episodes over 4 workers: batches of 5.
        assert_eq!(a.describe(), "lockstep lanes=5 threads=4 (auto)");
        let serial = plan_with(&shape(20, 150, 20), 4, Some(1), None);
        assert_eq!(
            serial.describe(),
            "lockstep lanes=1 threads=1 (threads pinned)"
        );
        let pinned = plan_with(&shape(20, 150, 20), 4, Some(2), Some(3));
        assert_eq!(
            pinned.describe(),
            "lockstep lanes=3 threads=2 (lanes+threads pinned)"
        );
    }
}
