//! The evaluation protocol: run a defender policy for many episodes and
//! aggregate the paper's four metrics (Table 2).
//!
//! The policy-factory entry points ([`evaluate_factory_detailed`]) run
//! episodes through the lockstep [`SyncBatchEngine`] over worker threads,
//! with bit-identical results to the serial `&mut dyn` entry points
//! ([`crate::rollout::rollout_serial`]), which are kept for policies that
//! cannot be constructed per worker. The engine's lane width and thread
//! count are *autoscaled*: the workload's shape (topology size, action-space
//! size, episode count) picks them via [`acso_runtime::plan`], with the
//! `ACSO_BATCH` / `ACSO_THREADS` environment variables acting as overrides.
//! The engine is pinned bit-identical to the serial evaluator at every
//! width, so the plan can never change a transcript — only its wall-clock.

use crate::actions::ActionSpace;
use crate::policy::DefenderPolicy;
use crate::rollout::{self, RolloutPlan, SyncBatchEngine};
use acso_runtime::WorkloadShape;
use ics_sim::metrics::{EpisodeMetrics, EvaluationSummary};
use ics_sim::SimConfig;
use serde::{Deserialize, Serialize};

/// Configuration of an evaluation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalConfig {
    /// Simulation configuration (topology, attacker profile, horizon).
    pub sim: SimConfig,
    /// Number of attack episodes to run (the paper uses 100).
    pub episodes: usize,
    /// Base seed; episode `i` uses `seed ^ i` so runs are reproducible and
    /// every policy sees the same sequence of attack scenarios.
    pub seed: u64,
}

impl EvalConfig {
    /// The paper's evaluation protocol: the full network and 100 episodes.
    pub fn paper() -> Self {
        Self {
            sim: SimConfig::full(),
            episodes: 100,
            seed: 0,
        }
    }

    /// A reduced protocol for quick runs: the small (§4.2) network, shorter
    /// episodes, fewer trials.
    pub fn quick() -> Self {
        Self {
            sim: SimConfig::small().with_max_time(2_000),
            episodes: 10,
            seed: 0,
        }
    }
}

/// Per-episode metrics plus their aggregate for one policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyEvaluation {
    /// Name of the evaluated policy.
    pub policy: String,
    /// Per-episode metrics.
    pub episodes: Vec<EpisodeMetrics>,
    /// Aggregate over the episodes (one row of Table 2).
    pub summary: EvaluationSummary,
}

fn plan_for(config: &EvalConfig) -> RolloutPlan {
    RolloutPlan::new(config.sim.clone(), config.episodes, config.seed)
}

/// The autoscaler's view of an evaluation run: node count and action-space
/// size straight from the scenario's topology spec (no topology is built),
/// plus the episode count. Shared by the evaluator and the benchmark
/// harness so recorded plans match executed plans.
pub fn workload_shape(config: &EvalConfig) -> WorkloadShape {
    let nodes = config.sim.topology.total_nodes();
    WorkloadShape {
        nodes,
        actions: ActionSpace::from_counts(nodes, config.sim.topology.plcs).len(),
        episodes: config.episodes,
    }
}

fn package(policy: String, episodes: Vec<EpisodeMetrics>) -> PolicyEvaluation {
    let summary = EvaluationSummary::from_episodes(&episodes);
    PolicyEvaluation {
        policy,
        episodes,
        summary,
    }
}

/// Runs a policy through the evaluation protocol serially and returns
/// per-episode metrics and their aggregate.
///
/// Episode transcripts are identical to [`evaluate_factory_detailed`] with a
/// factory producing equivalent policies — both run through
/// [`rollout::run_episode`].
pub fn evaluate_policy_detailed(
    policy: &mut dyn DefenderPolicy,
    config: &EvalConfig,
) -> PolicyEvaluation {
    let episodes = rollout::rollout_serial(policy, &plan_for(config));
    package(policy.name().to_string(), episodes)
}

/// Runs the evaluation protocol through the lockstep [`SyncBatchEngine`],
/// with episodes fanned out over worker threads and policies built per
/// worker from `make_policy`. The autoscaler ([`acso_runtime::plan`]) picks
/// the lane width from the workload's shape: large topologies and wide
/// action spaces batch several episodes per worker, small ones run one lane
/// per worker. `ACSO_BATCH` pins the lane width, `ACSO_THREADS` the worker
/// count. Results are bit-identical to the serial evaluator at any width.
pub fn evaluate_factory_detailed<F>(make_policy: F, config: &EvalConfig) -> PolicyEvaluation
where
    F: Fn() -> Box<dyn DefenderPolicy> + Sync,
{
    let name = make_policy().name().to_string();
    let auto = acso_runtime::plan(&workload_shape(config));
    let plan = plan_for(config).with_threads(auto.threads);
    let episodes = SyncBatchEngine::new(auto.lanes).rollout(&plan, &make_policy);
    package(name, episodes)
}

/// Aggregate-only variant of [`evaluate_factory_detailed`].
pub fn evaluate_factory<F>(make_policy: F, config: &EvalConfig) -> EvaluationSummary
where
    F: Fn() -> Box<dyn DefenderPolicy> + Sync,
{
    evaluate_factory_detailed(make_policy, config).summary
}

/// Runs a policy through the evaluation protocol and returns the aggregate
/// metrics (one row of Table 2).
pub fn evaluate_policy(policy: &mut dyn DefenderPolicy, config: &EvalConfig) -> EvaluationSummary {
    evaluate_policy_detailed(policy, config).summary
}

/// Formats a set of policy evaluations as an aligned text table in the layout
/// of Table 2.
pub fn format_table(evaluations: &[PolicyEvaluation]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:>22} {:>20} {:>18} {:>26}\n",
        "Policy", "Discounted Return", "Final PLCs Offline", "Avg IT Cost", "Avg Nodes Compromised"
    ));
    for eval in evaluations {
        let s = &eval.summary;
        out.push_str(&format!(
            "{:<14} {:>12.1} ± {:<6.1} {:>12.2} ± {:<4.2} {:>11.3} ± {:<4.3} {:>17.2} ± {:<4.2}\n",
            eval.policy,
            s.discounted_return.mean,
            s.discounted_return.std_err,
            s.final_plcs_offline.mean,
            s.final_plcs_offline.std_err,
            s.average_it_cost.mean,
            s.average_it_cost.std_err,
            s.average_nodes_compromised.mean,
            s.average_nodes_compromised.std_err,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{PlaybookPolicy, SemiRandomPolicy};
    use crate::policy::NullPolicy;

    fn tiny_eval(episodes: usize) -> EvalConfig {
        EvalConfig {
            sim: SimConfig::tiny().with_max_time(150),
            episodes,
            seed: 11,
        }
    }

    #[test]
    fn evaluation_is_reproducible() {
        let cfg = tiny_eval(2);
        let a = evaluate_policy(&mut PlaybookPolicy::new(), &cfg);
        let b = evaluate_policy(&mut PlaybookPolicy::new(), &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn factory_evaluation_matches_serial_evaluation() {
        let cfg = tiny_eval(4);
        let serial = evaluate_policy_detailed(&mut PlaybookPolicy::new(), &cfg);
        let parallel = evaluate_factory_detailed(|| Box::new(PlaybookPolicy::new()), &cfg);
        assert_eq!(serial, parallel);
        assert_eq!(
            evaluate_factory(|| Box::new(PlaybookPolicy::new()), &cfg),
            serial.summary
        );
    }

    #[test]
    fn autoscaled_lockstep_matches_serial_on_large_topologies() {
        // Inflate the tiny scenario past the lockstep node threshold so the
        // autoscaler (no overrides set) batches several lanes per worker,
        // and pin its transcripts against the serial evaluator.
        let mut cfg = tiny_eval(3);
        cfg.sim.topology.l2_workstations = 200;
        cfg.sim.topology.host_budget = 256;
        cfg.sim = cfg.sim.clone().with_max_time(40);
        let shape = workload_shape(&cfg);
        assert!(shape.nodes >= acso_runtime::LOCKSTEP_NODE_THRESHOLD);
        assert_eq!(shape.episodes, 3);
        let serial = evaluate_policy_detailed(&mut PlaybookPolicy::new(), &cfg);
        let auto = evaluate_factory_detailed(|| Box::new(PlaybookPolicy::new()), &cfg);
        assert_eq!(serial, auto);
    }

    #[test]
    fn random_policy_costs_more_than_doing_nothing() {
        let cfg = tiny_eval(2);
        let random = evaluate_policy(&mut SemiRandomPolicy::new(), &cfg);
        let null = evaluate_policy(&mut NullPolicy::new(), &cfg);
        assert!(random.average_it_cost.mean > null.average_it_cost.mean);
        assert_eq!(null.average_it_cost.mean, 0.0);
    }

    #[test]
    fn detailed_evaluation_reports_every_episode() {
        let cfg = tiny_eval(3);
        let eval = evaluate_policy_detailed(&mut PlaybookPolicy::new(), &cfg);
        assert_eq!(eval.episodes.len(), 3);
        assert_eq!(eval.summary.episodes, 3);
        assert_eq!(eval.policy, "Playbook");
    }

    #[test]
    fn table_formatting_contains_all_policies() {
        let cfg = tiny_eval(1);
        let evals = vec![
            evaluate_policy_detailed(&mut PlaybookPolicy::new(), &cfg),
            evaluate_policy_detailed(&mut NullPolicy::new(), &cfg),
        ];
        let table = format_table(&evals);
        assert!(table.contains("Playbook"));
        assert!(table.contains("No defense"));
        assert!(table.contains("Discounted Return"));
    }
}
