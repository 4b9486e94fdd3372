//! The episode rollout engine.
//!
//! Every evaluation episode is independent: its environment and its policy
//! RNG are seeded from the episode *index*, and stateful policies are fully
//! reset at the episode boundary. [`SyncBatchEngine`] exploits that
//! independence twice: it fans batches of episodes out over scoped worker
//! threads (via [`acso_runtime`]), and on each worker it steps a batch's
//! `lanes` episodes in lockstep — gather the live lanes' observations, make
//! one batched decision, scatter the actions — so policies with batched
//! inference (the neural agent) amortise every forward pass across lanes.
//! At one lane each worker runs its episodes one after another.
//!
//! [`rollout_serial`] and [`run_episode`] run episodes one by one through a
//! single policy instance: the serial oracle the engine is checked against.
//! Both drive episodes through the same `EpisodeLane` state machine and
//! derive all randomness from [`acso_runtime::episode_seed`], so the
//! engine's per-episode metrics are **bit-identical** to a serial run for
//! any thread count and any lane width — the property the determinism tests
//! in `tests/rollout_determinism.rs` and `tests/batch_determinism.rs` (root
//! package) pin down.
//!
//! The evaluation pipeline takes the thread count and lane width from the
//! autoscale plan ([`acso_runtime::plan`]), which `ACSO_THREADS` and
//! `ACSO_BATCH` override.

mod sync_batch;

pub use sync_batch::{
    BatchPolicy, BatchStats, EngineStats, LaneDecision, PerLanePolicies, SyncBatchEngine,
};

use crate::policy::DefenderPolicy;
use ics_sim::metrics::EpisodeMetrics;
use ics_sim::{DefenderAction, IcsEnvironment, Observation, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Salt separating the policy's decision RNG stream from the environment
/// stream (kept at the historical `+10_000` offset of the serial evaluator).
const POLICY_SEED_OFFSET: u64 = 10_000;

/// A batch of episodes to roll out.
#[derive(Debug, Clone, PartialEq)]
pub struct RolloutPlan {
    /// Simulation configuration shared by every episode (per-episode seeds
    /// are derived on top of it).
    pub sim: SimConfig,
    /// Number of episodes.
    pub episodes: usize,
    /// Base seed; episode `i` runs with [`acso_runtime::episode_seed`]`(seed, i)`.
    pub seed: u64,
    /// Worker threads; `1` runs inline on the calling thread.
    pub threads: usize,
}

impl RolloutPlan {
    /// A plan using the auto-detected thread count (`ACSO_THREADS` or
    /// available parallelism).
    pub fn new(sim: SimConfig, episodes: usize, seed: u64) -> Self {
        Self {
            sim,
            episodes,
            seed,
            threads: acso_runtime::available_threads(),
        }
    }

    /// Overrides the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// One episode's live state inside an engine: the environment, the policy's
/// per-episode decision RNG, and the metrics accumulated so far.
///
/// The serial oracle and the lockstep engine both drive episodes through
/// this one type, so the per-step bookkeeping (metric recording,
/// discounting, termination) cannot diverge between them. The lane's seeds
/// derive from the episode index exactly as the serial evaluator's always
/// have.
pub(crate) struct EpisodeLane {
    pub(crate) env: IcsEnvironment,
    pub(crate) rng: StdRng,
    pub(crate) obs: Observation,
    pub(crate) metrics: EpisodeMetrics,
    pub(crate) done: bool,
    discount: f64,
    gamma: f64,
}

impl EpisodeLane {
    /// Builds and resets episode `episode` of a run seeded with `base_seed`.
    pub(crate) fn start(sim: &SimConfig, base_seed: u64, episode: usize) -> Self {
        let episode_seed = acso_runtime::episode_seed(base_seed, episode);
        let sim = sim.clone().with_seed(episode_seed);
        let mut env = IcsEnvironment::new(sim);
        let rng = StdRng::seed_from_u64(episode_seed.wrapping_add(POLICY_SEED_OFFSET));
        let gamma = env.gamma();
        let obs = env.reset();
        Self {
            env,
            rng,
            obs,
            metrics: EpisodeMetrics::new(),
            done: false,
            discount: 1.0,
            gamma,
        }
    }

    /// Applies one decision: steps the environment, records the step's
    /// metrics, and advances the discount.
    pub(crate) fn advance(&mut self, actions: &[DefenderAction]) {
        let step = self.env.step(actions);
        self.metrics.record_step(
            step.reward,
            self.discount,
            step.it_cost,
            step.info.nodes_compromised,
            step.info.plcs_offline,
        );
        self.discount *= self.gamma;
        self.obs = step.observation;
        self.done = step.done;
    }
}

/// Runs one evaluation episode of a plan against a policy: the serial
/// evaluator's code path, sharing its `EpisodeLane` bookkeeping with the
/// lockstep engine, so their transcripts cannot diverge.
pub fn run_episode(
    policy: &mut dyn DefenderPolicy,
    sim: &SimConfig,
    base_seed: u64,
    episode: usize,
) -> EpisodeMetrics {
    let mut lane = EpisodeLane::start(sim, base_seed, episode);
    policy.reset(lane.env.topology());
    while !lane.done {
        let actions = policy.decide(&lane.obs, lane.env.topology(), &mut lane.rng);
        lane.advance(&actions);
    }
    lane.metrics
}

/// Rolls out a plan's episodes serially through one policy instance.
pub fn rollout_serial(policy: &mut dyn DefenderPolicy, plan: &RolloutPlan) -> Vec<EpisodeMetrics> {
    (0..plan.episodes)
        .map(|i| run_episode(policy, &plan.sim, plan.seed, i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::PlaybookPolicy;

    fn plan(threads: usize) -> RolloutPlan {
        RolloutPlan {
            sim: SimConfig::tiny().with_max_time(120),
            episodes: 6,
            seed: 21,
            threads,
        }
    }

    /// The engine at one lane: each worker runs its episodes one by one.
    fn rollout(plan: &RolloutPlan) -> Vec<EpisodeMetrics> {
        SyncBatchEngine::new(1).rollout(plan, &|| {
            Box::new(PlaybookPolicy::new()) as Box<dyn DefenderPolicy>
        })
    }

    #[test]
    fn parallel_rollout_matches_serial_exactly() {
        let serial = rollout_serial(&mut PlaybookPolicy::new(), &plan(1));
        let parallel = rollout(&plan(4));
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), 6);
    }

    #[test]
    fn episodes_differ_across_indices_and_repeat_across_runs() {
        let a = rollout(&plan(2));
        let b = rollout(&plan(3));
        assert_eq!(a, b);
        // Different seeds per episode: not all episodes can be identical.
        assert!(a.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn plan_builder_detects_threads() {
        let p = RolloutPlan::new(SimConfig::tiny(), 3, 0);
        assert!(p.threads >= 1);
        assert_eq!(p.with_threads(2).threads, 2);
    }

    #[test]
    fn batched_engine_matches_serial_for_every_lane_width() {
        let serial = rollout_serial(&mut PlaybookPolicy::new(), &plan(1));
        for lanes in [1usize, 2, 3, 6, 16] {
            for threads in [1usize, 4] {
                let engine = SyncBatchEngine::new(lanes);
                let batched = engine.rollout(&plan(threads), &|| {
                    Box::new(PlaybookPolicy::new()) as Box<dyn DefenderPolicy>
                });
                assert_eq!(
                    serial, batched,
                    "lanes={lanes} threads={threads} diverged from serial"
                );
            }
        }
    }
}
