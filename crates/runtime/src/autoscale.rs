//! Deterministic engine autoscaling.
//!
//! Callers that fan out rollout episodes have two engines to choose from —
//! the episode-parallel pool and the lockstep batched engine — plus a worker
//! thread count and a lane width. Historically each caller read `ACSO_BATCH`
//! / `ACSO_THREADS` directly and fell back to fixed defaults, which meant a
//! 1000-host evaluation ran un-batched unless the operator remembered the
//! right incantation. [`plan`] turns that around: the *workload's shape*
//! (topology size, action-space size, episode count) and the machine's
//! detected cores pick the engine, and the environment variables are demoted
//! to explicit overrides.
//!
//! The plan is a pure function of its inputs ([`plan_with`]), so the same
//! shape on the same machine with the same overrides always produces the
//! same plan. And because every engine is pinned bit-identical to the serial
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

/// Which rollout engine a plan selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// Fan whole episodes out over worker threads (one policy per worker).
    EpisodeParallel,
    /// Step `lanes` episodes in lockstep, batching every inference call.
    Lockstep {
        /// Lane width of each lockstep batch.
        lanes: usize,
    },
}

/// A resolved autoscaling decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AutoscalePlan {
    /// The engine to run.
    pub engine: EngineChoice,
    /// Worker threads for the episode fan-out.
    pub threads: usize,
    /// Whether `ACSO_THREADS` (or an explicit caller override) pinned the
    /// thread count instead of the detected parallelism.
    pub threads_overridden: bool,
    /// Whether `ACSO_BATCH` (or an explicit caller override) pinned the
    /// engine choice instead of the shape heuristic.
    pub engine_overridden: bool,
}

impl AutoscalePlan {
    /// Lane width when the plan selected the lockstep engine.
    pub fn lanes(&self) -> Option<usize> {
        match self.engine {
            EngineChoice::EpisodeParallel => None,
            EngineChoice::Lockstep { lanes } => Some(lanes),
        }
    }

    /// One-line human/JSON-friendly summary, e.g.
    /// `"lockstep lanes=16 threads=8 (auto)"`.
    pub fn describe(&self) -> String {
        let engine = match self.engine {
            EngineChoice::EpisodeParallel => "episode-parallel".to_string(),
            EngineChoice::Lockstep { lanes } => format!("lockstep lanes={lanes}"),
        };
        let provenance = match (self.engine_overridden, self.threads_overridden) {
            (false, false) => "auto",
            (true, false) => "engine pinned",
            (false, true) => "threads pinned",
            (true, true) => "engine+threads pinned",
        };
        format!("{engine} threads={} ({provenance})", self.threads)
    }
}

/// Node count at which batched inference starts to pay: at this size the
/// per-decision network forward dominates the step, and amortising it across
/// lockstep lanes beats episode-level parallelism alone.
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

/// Plans the engine for a workload using detected cores and the
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
/// * Otherwise threads default to `cores` and the engine follows the shape:
///   topologies at or above [`LOCKSTEP_NODE_THRESHOLD`] nodes (or action
///   spaces at or above [`LOCKSTEP_ACTION_THRESHOLD`]) run lockstep with
///   `episodes.div_ceil(threads).clamp(1, MAX_AUTO_LANES)` lanes, so every
///   worker gets a batch before any batch widens (with one thread that is
///   `episodes.clamp(1, MAX_AUTO_LANES)`); everything smaller runs
///   episode-parallel, where per-decision cost is too small for batching to
///   beat the scatter/gather overhead.
pub fn plan_with(
    shape: &WorkloadShape,
    cores: usize,
    threads_override: Option<usize>,
    lanes_override: Option<usize>,
) -> AutoscalePlan {
    let threads_overridden = threads_override.is_some();
    let threads = threads_override.unwrap_or_else(|| cores.max(1)).max(1);
    let (engine, engine_overridden) = match lanes_override {
        Some(lanes) => (
            EngineChoice::Lockstep {
                lanes: lanes.max(1),
            },
            true,
        ),
        None => {
            let batch_pays = shape.nodes >= LOCKSTEP_NODE_THRESHOLD
                || shape.actions >= LOCKSTEP_ACTION_THRESHOLD;
            let engine = if batch_pays {
                EngineChoice::Lockstep {
                    lanes: shape.episodes.div_ceil(threads).clamp(1, MAX_AUTO_LANES),
                }
            } else {
                EngineChoice::EpisodeParallel
            };
            (engine, false)
        }
    };
    AutoscalePlan {
        engine,
        threads,
        threads_overridden,
        engine_overridden,
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
        let p = plan_with(&shape(33, 250, 100), 8, None, None);
        assert_eq!(p.engine, EngineChoice::EpisodeParallel);
        assert_eq!(p.threads, 8);
        assert!(!p.engine_overridden && !p.threads_overridden);
        assert_eq!(p.lanes(), None);
    }

    #[test]
    fn large_topologies_go_lockstep_with_bounded_lanes() {
        // 100 episodes over 8 workers: batches of ceil(100 / 8) = 13.
        let p = plan_with(&shape(1_000, 7_101, 100), 8, None, None);
        assert_eq!(p.engine, EngineChoice::Lockstep { lanes: 13 });
        // Fewer episodes than cores: one-lane batches, one per worker.
        let few = plan_with(&shape(1_000, 7_101, 5), 8, None, None);
        assert_eq!(few.engine, EngineChoice::Lockstep { lanes: 1 });
        // Enough episodes to fill every worker past the cap.
        let many = plan_with(&shape(1_000, 7_101, 1_000), 8, None, None);
        assert_eq!(
            many.engine,
            EngineChoice::Lockstep {
                lanes: MAX_AUTO_LANES
            }
        );
        // Wide action spaces trigger the same path on mid-sized topologies.
        let wide = plan_with(&shape(120, 2_000, 50), 8, None, None);
        assert!(matches!(wide.engine, EngineChoice::Lockstep { .. }));
    }

    #[test]
    fn every_worker_gets_a_batch_before_any_batch_widens() {
        // The XL evaluation shape: 4 episodes on 2 cores run as two 2-lane
        // batches, not one 4-lane batch beside an idle core.
        let xl = plan_with(&shape(1_003, 7_222, 4), 2, None, None);
        assert_eq!(xl.engine, EngineChoice::Lockstep { lanes: 2 });
        assert_eq!(xl.threads, 2);
        // A single episode is a single lane on any machine.
        for cores in [1, 2, 8] {
            let one = plan_with(&shape(1_003, 7_222, 1), cores, None, None);
            assert_eq!(one.engine, EngineChoice::Lockstep { lanes: 1 });
        }
        // One thread keeps every episode in one batch, up to the cap.
        for (episodes, lanes) in [(4, 4), (5, 5), (100, MAX_AUTO_LANES)] {
            let serial = plan_with(&shape(1_003, 7_222, episodes), 8, Some(1), None);
            assert_eq!(serial.engine, EngineChoice::Lockstep { lanes });
            assert_eq!(serial.threads, 1);
        }
        // A lanes override still wins over the per-worker split.
        let pinned = plan_with(&shape(1_003, 7_222, 4), 2, None, Some(4));
        assert_eq!(pinned.engine, EngineChoice::Lockstep { lanes: 4 });
        assert!(pinned.engine_overridden);
    }

    #[test]
    fn overrides_pin_the_decision() {
        let p = plan_with(&shape(1_000, 7_101, 100), 8, Some(2), Some(4));
        assert_eq!(p.engine, EngineChoice::Lockstep { lanes: 4 });
        assert_eq!(p.threads, 2);
        assert!(p.engine_overridden && p.threads_overridden);

        // A lanes override forces lockstep even on a tiny topology.
        let forced = plan_with(&shape(10, 80, 4), 8, None, Some(3));
        assert_eq!(forced.engine, EngineChoice::Lockstep { lanes: 3 });
        assert_eq!(forced.lanes(), Some(3));
    }

    #[test]
    fn degenerate_inputs_are_clamped() {
        let p = plan_with(&shape(1_000, 7_101, 0), 0, Some(0), Some(0));
        assert!(p.threads >= 1);
        assert_eq!(p.engine, EngineChoice::Lockstep { lanes: 1 });
        let auto = plan_with(&shape(1_000, 7_101, 0), 0, None, None);
        assert_eq!(auto.engine, EngineChoice::Lockstep { lanes: 1 });
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
            "episode-parallel threads=1 (threads pinned)"
        );
    }
}
