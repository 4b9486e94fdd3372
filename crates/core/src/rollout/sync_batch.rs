//! The step-synchronized batched rollout engine.
//!
//! [`SyncBatchEngine`] steps `lanes` episodes in lockstep: each simulated
//! hour it gathers the live lanes' observations, asks the policy for **one
//! batched decision** ([`BatchPolicy::decide_lanes`]), and scatters the
//! chosen actions back into the lanes' environments. Policies with batched
//! inference (the neural agent) answer the whole gather with a single
//! forward pass, retiring the per-observation hot path; policies without it
//! are adapted per lane by [`PerLanePolicies`].
//!
//! Determinism is inherited, not re-proven: every lane derives its
//! environment and decision-RNG streams from its episode index
//! ([`acso_runtime::episode_seed`], exactly as the serial oracle does), lane
//! state never crosses lanes, and batched inference is bit-identical per
//! item to solo inference (the [`crate::agent::QNetwork::q_values_batch`]
//! contract). Transcripts are therefore bit-identical to
//! [`super::rollout_serial`] for any lane count and any thread count —
//! pinned by `tests/batch_determinism.rs` across every registry scenario and
//! all four policy families.
//!
//! Batches compose with the [`acso_runtime`] worker pool: the episode range
//! is chunked into consecutive `lanes`-sized batches and the chunks fan out
//! over `ACSO_THREADS` workers, each worker owning one batch of lanes at a
//! time (and one long-lived batch policy instance).

use super::{EpisodeLane, RolloutPlan};
use crate::policy::DefenderPolicy;
use acso_runtime::PoolStats;
use ics_net::Topology;
use ics_sim::metrics::EpisodeMetrics;
use ics_sim::{DefenderAction, Observation};
use rand::rngs::StdRng;

/// How full the engine's lockstep batches ran: every decision round offers
/// `lanes` slots (the engine's configured width) and fills one per live
/// episode. The ratio of filled to offered slots is the *batch-fill ratio* —
/// the number the serving layer watches to confirm that concurrent requests
/// are actually being coalesced into shared batches instead of running in
/// mostly-empty ones.
///
/// The counts are deterministic for a given plan set and lane width (they
/// depend only on episode lengths), unlike the wall-clock numbers around
/// them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Lockstep decision rounds executed, summed over all batches.
    pub rounds: u64,
    /// Live-lane slots filled across those rounds (one per episode still
    /// running when its batch made a decision).
    pub filled_slots: u64,
    /// Slots offered across those rounds: `engine lanes x rounds`.
    pub capacity_slots: u64,
}

impl BatchStats {
    /// Filled slots over offered slots, in `0.0..=1.0` (`1.0` when no round
    /// ran). Higher means batched inference amortised over more episodes.
    pub fn fill_ratio(&self) -> f64 {
        if self.capacity_slots == 0 {
            return 1.0;
        }
        self.filled_slots as f64 / self.capacity_slots as f64
    }

    fn absorb(&mut self, other: BatchStats) {
        self.rounds += other.rounds;
        self.filled_slots += other.filled_slots;
        self.capacity_slots += other.capacity_slots;
    }
}

/// Observability side channel of one [`SyncBatchEngine::rollout_many`] call:
/// the deterministic batch-fill accounting plus the (non-deterministic)
/// worker-pool distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineStats {
    /// Lockstep batch-fill accounting.
    pub batch: BatchStats,
    /// How the batches spread over the worker pool.
    pub pool: PoolStats,
}

/// One live lane's slot in a lockstep decision round: what the policy may
/// read (observation, topology, the lane's decision RNG) and where it writes
/// the chosen actions.
pub struct LaneDecision<'a> {
    /// Lane index within the engine's batch (stable across the episode).
    pub lane: usize,
    /// The lane's latest observation.
    pub observation: &'a Observation,
    /// The lane's topology.
    pub topology: &'a Topology,
    /// The lane's per-episode decision RNG — the same stream the serial
    /// evaluator would hand this episode's `decide` calls.
    pub rng: &'a mut StdRng,
    /// The actions to submit this hour (filled by the policy, empty on
    /// entry).
    pub actions: Vec<DefenderAction>,
}

/// A defender policy that decides for many lockstep episode lanes at once.
///
/// Implementations must keep lanes independent: lane `k`'s decisions may
/// depend only on lane `k`'s observation history, reset state and RNG, so
/// that every lane's transcript matches a serial episode bit for bit.
pub trait BatchPolicy: Send {
    /// A short name used in result tables ("ACSO", "Playbook", ...).
    fn name(&self) -> &str;

    /// Resets lane `lane`'s internal state at the start of its episode.
    fn reset_lane(&mut self, lane: usize, topology: &Topology);

    /// Decides actions for every live lane of this simulated hour. Requests
    /// arrive in ascending lane order; finished lanes are absent.
    fn decide_lanes(&mut self, requests: &mut [LaneDecision<'_>]);
}

/// Adapts policies without batched inference to the lane interface: one
/// serial [`DefenderPolicy`] instance per lane, each seeing exactly the call
/// sequence a serial episode would give it.
pub struct PerLanePolicies {
    name: String,
    lanes: Vec<Box<dyn DefenderPolicy>>,
}

impl PerLanePolicies {
    /// Serves `lanes` lanes: `prototype` is lane 0, and the factory builds
    /// the other `lanes - 1` instances (none at one lane).
    pub fn new<F>(prototype: Box<dyn DefenderPolicy>, lanes: usize, make_policy: F) -> Self
    where
        F: Fn() -> Box<dyn DefenderPolicy>,
    {
        let name = prototype.name().to_string();
        let lanes = std::iter::once(prototype)
            .chain((1..lanes).map(|_| make_policy()))
            .collect();
        Self { name, lanes }
    }
}

impl BatchPolicy for PerLanePolicies {
    fn name(&self) -> &str {
        &self.name
    }

    fn reset_lane(&mut self, lane: usize, topology: &Topology) {
        self.lanes[lane].reset(topology);
    }

    fn decide_lanes(&mut self, requests: &mut [LaneDecision<'_>]) {
        for r in requests {
            r.actions = self.lanes[r.lane].decide(r.observation, r.topology, r.rng);
        }
    }
}

/// The lockstep batched rollout engine.
///
/// `lanes` is the number of episodes stepped together per worker batch (the
/// inference batch size), fixed at construction with
/// [`SyncBatchEngine::new`]; the evaluation pipeline's autoscale plan (or an
/// `ACSO_BATCH` override) chooses it.
///
/// # Example
///
/// ```
/// use acso_core::baselines::PlaybookPolicy;
/// use acso_core::policy::DefenderPolicy;
/// use acso_core::rollout::{rollout_serial, RolloutPlan, SyncBatchEngine};
/// use ics_sim::SimConfig;
///
/// let plan = RolloutPlan::new(SimConfig::tiny().with_max_time(60), 3, 7).with_threads(2);
/// let engine = SyncBatchEngine::new(4);
/// let batched = engine.rollout(&plan, &|| {
///     Box::new(PlaybookPolicy::new()) as Box<dyn DefenderPolicy>
/// });
/// // Lockstep batching never changes transcripts, only how they are computed.
/// let serial = rollout_serial(&mut PlaybookPolicy::new(), &plan);
/// assert_eq!(batched, serial);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncBatchEngine {
    lanes: usize,
}

impl SyncBatchEngine {
    /// An engine stepping `lanes` episodes in lockstep (at least one).
    pub fn new(lanes: usize) -> Self {
        Self {
            lanes: lanes.max(1),
        }
    }

    /// Episodes stepped together per worker batch.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Rolls out a plan's episodes through lockstep batches fanned out over
    /// the worker pool. Returns per-episode metrics in episode order,
    /// bit-identical to [`super::rollout_serial`] with a policy from the
    /// same factory.
    ///
    /// Each worker builds one long-lived batch policy: the factory's
    /// prototype is asked to upgrade itself via
    /// [`DefenderPolicy::make_batch_policy`] (the neural agent returns its
    /// shared-network batched form); otherwise it becomes lane 0 of a
    /// [`PerLanePolicies`], so a worker builds `lanes` policies in all.
    pub fn rollout<F>(&self, plan: &RolloutPlan, make_policy: &F) -> Vec<EpisodeMetrics>
    where
        F: Fn() -> Box<dyn DefenderPolicy> + Sync,
    {
        let (mut results, _) = self.rollout_many(std::slice::from_ref(plan), make_policy);
        results.pop().expect("one plan yields one result set")
    }

    /// Rolls out several plans' episodes through **shared** lockstep batches:
    /// the episodes of every plan are flattened (plan order, then episode
    /// order) and chunked into `lanes`-wide batches, so episodes from
    /// different plans step through the same batched decisions. This is the
    /// serving layer's coalescing primitive: concurrent `evaluate` requests
    /// become one plan each and fill batches together instead of running
    /// under-occupied ones.
    ///
    /// Returns per-plan metric vectors (in plan order, each in episode
    /// order) plus the [`EngineStats`] side channel. Each episode's metrics
    /// are **bit-identical** to running its plan alone — lanes never share
    /// state, and every lane's seeds derive from its own plan's
    /// `(seed, episode index)` exactly as in [`SyncBatchEngine::rollout`] —
    /// so coalescing is invisible in transcripts and visible only in the
    /// stats.
    ///
    /// Worker threads are taken as the maximum `threads` over the plans.
    /// When the policy upgrades to batched inference
    /// ([`DefenderPolicy::make_batch_policy`]), every plan must use the same
    /// topology (batched Q-networks stack per-node features across lanes);
    /// [`PerLanePolicies`] fallbacks have no such constraint.
    pub fn rollout_many<F>(
        &self,
        plans: &[RolloutPlan],
        make_policy: &F,
    ) -> (Vec<Vec<EpisodeMetrics>>, EngineStats)
    where
        F: Fn() -> Box<dyn DefenderPolicy> + Sync,
    {
        let lanes = self.lanes;
        // One ticket per episode, plan-major so per-plan results come back
        // as consecutive runs.
        let tickets: Vec<(usize, usize)> = plans
            .iter()
            .enumerate()
            .flat_map(|(p, plan)| (0..plan.episodes).map(move |e| (p, e)))
            .collect();
        let batches = tickets.len().div_ceil(lanes.max(1));
        let threads = plans.iter().map(|p| p.threads).max().unwrap_or(1);
        let (results, pool) = acso_runtime::run_indexed_with_stats(
            batches,
            threads,
            || {
                let prototype = make_policy();
                match prototype.make_batch_policy(lanes) {
                    Some(batched) => batched,
                    None => Box::new(PerLanePolicies::new(prototype, lanes, make_policy)),
                }
            },
            |policy, batch| {
                let chunk = &tickets[batch * lanes..((batch + 1) * lanes).min(tickets.len())];
                let lanes_for_chunk: Vec<EpisodeLane> = chunk
                    .iter()
                    .map(|&(p, e)| EpisodeLane::start(&plans[p].sim, plans[p].seed, e))
                    .collect();
                run_lockstep_lanes(policy.as_mut(), lanes_for_chunk, lanes)
            },
        );
        let mut batch_stats = BatchStats::default();
        let mut per_plan: Vec<Vec<EpisodeMetrics>> = plans
            .iter()
            .map(|p| Vec::with_capacity(p.episodes))
            .collect();
        let mut flat = tickets.iter();
        for (metrics, stats) in results {
            batch_stats.absorb(stats);
            for m in metrics {
                let &(p, _) = flat.next().expect("one ticket per episode result");
                per_plan[p].push(m);
            }
        }
        (
            per_plan,
            EngineStats {
                batch: batch_stats,
                pool,
            },
        )
    }
}

/// Steps a prepared set of lanes in lockstep against one batch policy,
/// returning their metrics in lane order plus the batch-fill accounting.
/// `capacity_lanes` is the engine's configured width (a ragged tail batch
/// still *offers* the full width; the unfilled slots show up in the ratio).
fn run_lockstep_lanes(
    policy: &mut dyn BatchPolicy,
    mut lanes: Vec<EpisodeLane>,
    capacity_lanes: usize,
) -> (Vec<EpisodeMetrics>, BatchStats) {
    let mut stats = BatchStats::default();
    for (k, lane) in lanes.iter_mut().enumerate() {
        policy.reset_lane(k, lane.env.topology());
    }
    loop {
        // Gather the live lanes...
        let mut requests: Vec<LaneDecision<'_>> = Vec::new();
        for (k, lane) in lanes.iter_mut().enumerate() {
            if lane.done {
                continue;
            }
            let EpisodeLane { env, rng, obs, .. } = lane;
            requests.push(LaneDecision {
                lane: k,
                observation: obs,
                topology: env.topology(),
                rng,
                actions: Vec::new(),
            });
        }
        if requests.is_empty() {
            let metrics = lanes.into_iter().map(|lane| lane.metrics).collect();
            return (metrics, stats);
        }
        stats.rounds += 1;
        stats.filled_slots += requests.len() as u64;
        stats.capacity_slots += capacity_lanes.max(1) as u64;
        // ...one batched decision...
        policy.decide_lanes(&mut requests);
        // ...and scatter the actions back into the environments.
        let decided: Vec<(usize, Vec<DefenderAction>)> =
            requests.into_iter().map(|r| (r.lane, r.actions)).collect();
        for (k, actions) in decided {
            lanes[k].advance(&actions);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{PlaybookPolicy, SemiRandomPolicy};
    use crate::rollout::{rollout_serial, RolloutPlan};
    use ics_sim::SimConfig;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn plan(episodes: usize, threads: usize) -> RolloutPlan {
        RolloutPlan {
            sim: SimConfig::tiny().with_max_time(100),
            episodes,
            seed: 7,
            threads,
        }
    }

    #[test]
    fn ragged_tail_batches_cover_every_episode() {
        // 7 episodes in lanes of 3: batches of 3, 3 and 1.
        let serial = rollout_serial(&mut PlaybookPolicy::new(), &plan(7, 1));
        let engine = SyncBatchEngine::new(3);
        let batched = engine.rollout(&plan(7, 2), &|| {
            Box::new(PlaybookPolicy::new()) as Box<dyn DefenderPolicy>
        });
        assert_eq!(serial, batched);
        assert_eq!(batched.len(), 7);
    }

    #[test]
    fn rng_hungry_policies_keep_their_per_lane_streams() {
        // The semi-random baseline consumes the decision RNG every step, so
        // any cross-lane sharing of streams would change transcripts.
        let serial = rollout_serial(&mut SemiRandomPolicy::new(), &plan(5, 1));
        let engine = SyncBatchEngine::new(4);
        let batched = engine.rollout(&plan(5, 2), &|| {
            Box::new(SemiRandomPolicy::new()) as Box<dyn DefenderPolicy>
        });
        assert_eq!(serial, batched);
    }

    #[test]
    fn a_worker_builds_one_policy_per_lane() {
        // The prototype a worker upgrades is lane 0 of its per-lane
        // fallback, not one build more.
        for lanes in [1usize, 3] {
            let builds = AtomicUsize::new(0);
            let factory = || {
                builds.fetch_add(1, Ordering::Relaxed);
                Box::new(PlaybookPolicy::new()) as Box<dyn DefenderPolicy>
            };
            let serial = rollout_serial(&mut PlaybookPolicy::new(), &plan(5, 1));
            let batched = SyncBatchEngine::new(lanes).rollout(&plan(5, 1), &factory);
            assert_eq!(serial, batched);
            assert_eq!(builds.into_inner(), lanes, "lanes={lanes}");
        }
    }

    #[test]
    fn engine_configuration_is_clamped_and_env_driven() {
        assert_eq!(SyncBatchEngine::new(0).lanes(), 1);
        assert_eq!(SyncBatchEngine::new(16).lanes(), 16);
    }

    #[test]
    fn zero_episodes_yield_no_batches() {
        let engine = SyncBatchEngine::new(8);
        let out = engine.rollout(&plan(0, 2), &|| {
            Box::new(PlaybookPolicy::new()) as Box<dyn DefenderPolicy>
        });
        assert!(out.is_empty());
    }

    #[test]
    fn coalesced_plans_match_their_solo_rollouts() {
        // Two "requests" with different seeds and episode counts, coalesced
        // into shared batches: each plan's metrics must be bit-identical to
        // rolling it out alone.
        let factory = || Box::new(PlaybookPolicy::new()) as Box<dyn DefenderPolicy>;
        let plans = [
            RolloutPlan {
                sim: SimConfig::tiny().with_max_time(100),
                episodes: 3,
                seed: 7,
                threads: 1,
            },
            RolloutPlan {
                sim: SimConfig::tiny().with_max_time(100),
                episodes: 2,
                seed: 99,
                threads: 2,
            },
        ];
        let engine = SyncBatchEngine::new(8);
        let (coalesced, stats) = engine.rollout_many(&plans, &factory);
        assert_eq!(coalesced.len(), 2);
        for (plan, got) in plans.iter().zip(&coalesced) {
            let solo = rollout_serial(&mut PlaybookPolicy::new(), plan);
            assert_eq!(&solo, got, "coalescing changed plan transcripts");
        }
        // All 5 episodes fit one 8-lane batch: fill can never exceed 5/8.
        assert_eq!(stats.pool.tasks, 1);
        assert!(stats.batch.rounds > 0);
        assert!(stats.batch.fill_ratio() <= 5.0 / 8.0 + 1e-12);
        assert!(stats.batch.fill_ratio() > 0.0);
    }

    #[test]
    fn coalescing_raises_the_fill_ratio() {
        // One 2-episode request in an 8-lane engine wastes 6 slots per
        // round; four such requests coalesced fill the batch.
        let factory = || Box::new(PlaybookPolicy::new()) as Box<dyn DefenderPolicy>;
        let engine = SyncBatchEngine::new(8);
        let request = |seed: u64| RolloutPlan {
            sim: SimConfig::tiny().with_max_time(100),
            episodes: 2,
            seed,
            threads: 1,
        };
        let (_, solo) = engine.rollout_many(&[request(7)], &factory);
        let plans: Vec<RolloutPlan> = (0..4).map(|i| request(7 + i)).collect();
        let (_, coalesced) = engine.rollout_many(&plans, &factory);
        assert!(
            coalesced.batch.fill_ratio() > solo.batch.fill_ratio(),
            "coalesced fill {} should beat solo fill {}",
            coalesced.batch.fill_ratio(),
            solo.batch.fill_ratio()
        );
    }

    #[test]
    fn batch_stats_ratio_handles_empty_runs() {
        assert_eq!(BatchStats::default().fill_ratio(), 1.0);
        let engine = SyncBatchEngine::new(4);
        let (results, stats) = engine.rollout_many(&[], &|| {
            Box::new(PlaybookPolicy::new()) as Box<dyn DefenderPolicy>
        });
        assert!(results.is_empty());
        assert_eq!(stats.batch, BatchStats::default());
    }
}
