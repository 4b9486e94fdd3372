//! One entry point per table and figure of the paper's evaluation.
//!
//! Every experiment takes an [`ExperimentScale`] so the same code path can be
//! run at paper scale (full topology, 100 evaluation episodes, long training)
//! or at a reduced scale suitable for CPU smoke runs; EXPERIMENTS.md records
//! which scale produced the numbers in the repository.

use crate::baselines::{DbnExpertPolicy, PlaybookPolicy, SemiRandomPolicy};
use crate::eval::{evaluate_factory_detailed, EvalConfig, PolicyEvaluation};
use crate::policy::DefenderPolicy;
use crate::scenario::ScenarioRegistry;
use crate::train::{train_attention_acso, TrainConfig, TrainedAcso};
use dbn::validate::{validate_filter, ValidationReport};
use ics_sim::apt::AptProfile;
use ics_sim::metrics::MeanStdErr;
use ics_sim::reward::ShapingConfig;
use ics_sim::SimConfig;
use rl::DqnConfig;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// How big to run an experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentScale {
    /// Simulation configuration used for evaluation episodes.
    pub eval_sim: SimConfig,
    /// Simulation configuration used for training (may be smaller/shorter).
    pub train_sim: SimConfig,
    /// Evaluation episodes per policy per condition (the paper uses 100).
    pub eval_episodes: usize,
    /// ACSO training episodes.
    pub train_episodes: usize,
    /// Random-defender episodes used to fit the DBN (the paper uses 1 000).
    pub dbn_episodes: usize,
    /// Base random seed.
    pub seed: u64,
}

impl ExperimentScale {
    /// Paper scale: full network, 100 evaluation episodes. Training episode
    /// count is still far below the paper's 1.25 M-step GPU budget; see
    /// EXPERIMENTS.md.
    pub fn paper() -> Self {
        Self {
            eval_sim: SimConfig::full(),
            train_sim: SimConfig::small().with_max_time(2_000),
            eval_episodes: 100,
            train_episodes: 150,
            dbn_episodes: 200,
            seed: 0,
        }
    }

    /// Reduced scale used by the default benchmark binaries: small network,
    /// shorter episodes, a handful of evaluation episodes.
    pub fn quick() -> Self {
        Self {
            eval_sim: SimConfig::small().with_max_time(2_000),
            train_sim: SimConfig::small().with_max_time(1_000),
            eval_episodes: 10,
            train_episodes: 12,
            dbn_episodes: 20,
            seed: 0,
        }
    }

    /// Minimal scale used by tests: tiny network, very short episodes.
    pub fn smoke() -> Self {
        Self {
            eval_sim: SimConfig::tiny().with_max_time(150),
            train_sim: SimConfig::tiny().with_max_time(150),
            eval_episodes: 2,
            train_episodes: 1,
            dbn_episodes: 2,
            seed: 0,
        }
    }

    fn eval_config(&self) -> EvalConfig {
        EvalConfig {
            sim: self.eval_sim.clone(),
            episodes: self.eval_episodes,
            seed: self.seed,
        }
    }

    fn train_config(&self) -> TrainConfig {
        // The paper decays ε by 0.999 per episode over thousands of episodes;
        // CPU-scale runs have far fewer, so the decay is chosen to reach the
        // ε floor about 60% of the way through whatever budget was requested.
        let epsilon_decay = 0.05f64
            .powf(1.0 / (0.6 * self.train_episodes.max(2) as f64))
            .clamp(0.5, 0.999);
        TrainConfig {
            sim: self.train_sim.clone(),
            agent: if self.train_episodes <= 2 {
                crate::agent::AgentConfig::smoke()
            } else {
                crate::agent::AgentConfig {
                    dqn: DqnConfig {
                        epsilon_decay,
                        update_every: 8,
                        ..DqnConfig::smoke()
                    },
                    learning_rate: 1e-3,
                    seed: self.seed,
                }
            },
            episodes: self.train_episodes,
            dbn_episodes: self.dbn_episodes,
            seed: self.seed,
        }
    }
}

/// Shared experiment context: the trained ACSO and the DBN model, prepared
/// once and reused by every experiment.
pub struct ExperimentContext {
    /// The trained attention-based defender.
    pub trained: TrainedAcso,
    /// The scale the context was prepared at.
    pub scale: ExperimentScale,
}

/// Trains the ACSO (and its DBN filter) once for use by the experiments.
pub fn prepare(scale: ExperimentScale) -> ExperimentContext {
    let trained = train_attention_acso(&scale.train_config());
    ExperimentContext { trained, scale }
}

/// One factory per policy of the paper's comparison, in presentation order
/// (ACSO first, as in Table 2). Factories let the rollout engine build a
/// private policy instance per worker thread; the trained agent is copied
/// via [`crate::AcsoAgent::eval_clone`] (networks and filter, not the
/// replay history), the baselines are constructed fresh.
type PolicyFactory<'a> = Box<dyn Fn() -> Box<dyn DefenderPolicy> + Sync + 'a>;

fn policy_factories(ctx: &ExperimentContext) -> Vec<PolicyFactory<'_>> {
    let agent = &ctx.trained.agent;
    let model = &ctx.trained.dbn_model;
    vec![
        Box::new(move || Box::new(agent.eval_clone()) as Box<dyn DefenderPolicy>),
        Box::new(move || Box::new(DbnExpertPolicy::new(model.clone()))),
        Box::new(|| Box::new(PlaybookPolicy::new())),
        Box::new(|| Box::new(SemiRandomPolicy::new())),
    ]
}

/// The result of the Table 2 experiment: one evaluation row per policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Result {
    /// Evaluations in presentation order (ACSO first, as in the paper).
    pub evaluations: Vec<PolicyEvaluation>,
}

/// Reproduces Table 2: nominal evaluation of the ACSO and the three baseline
/// policies under the training attacker (APT1). Each policy's episodes fan
/// out over the rollout engine's worker threads.
pub fn table2(ctx: &mut ExperimentContext) -> Table2Result {
    let config = ctx.scale.eval_config();
    ctx.trained.agent.set_explore(false);
    let evaluations = policy_factories(ctx)
        .iter()
        .map(|factory| evaluate_factory_detailed(factory, &config))
        .collect();
    Table2Result { evaluations }
}

/// One defender's series across a parameter sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSeries {
    /// Policy name.
    pub policy: String,
    /// Final PLCs offline at each sweep point.
    pub plcs_offline: Vec<MeanStdErr>,
    /// Average level-2/1 nodes compromised at each sweep point.
    pub nodes_compromised: Vec<MeanStdErr>,
    /// Average IT cost at each sweep point.
    pub it_cost: Vec<MeanStdErr>,
}

/// The result of the Fig. 6 experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Result {
    /// Cleanup-effectiveness values swept (training value is 0.5).
    pub effectiveness: Vec<f64>,
    /// One series per policy.
    pub series: Vec<SweepSeries>,
}

/// Reproduces Fig. 6: defender performance as the APT's cleanup effectiveness
/// is perturbed away from the nominal 0.5 used in training.
pub fn fig6(ctx: &mut ExperimentContext) -> Fig6Result {
    let effectiveness = vec![0.1, 0.3, 0.5, 0.7, 0.8, 0.9];
    ctx.trained.agent.set_explore(false);

    let mut series: Vec<SweepSeries> = Vec::new();
    for factory in policy_factories(ctx) {
        let mut name = String::new();
        let mut plcs = Vec::new();
        let mut nodes = Vec::new();
        let mut cost = Vec::new();
        for eff in &effectiveness {
            let mut config = ctx.scale.eval_config();
            config.sim.apt = config.sim.apt.with_cleanup_effectiveness(*eff);
            let evaluation = evaluate_factory_detailed(&factory, &config);
            name = evaluation.policy.clone();
            plcs.push(evaluation.summary.final_plcs_offline);
            nodes.push(evaluation.summary.average_nodes_compromised);
            cost.push(evaluation.summary.average_it_cost);
        }
        series.push(SweepSeries {
            policy: name,
            plcs_offline: plcs,
            nodes_compromised: nodes,
            it_cost: cost,
        });
    }
    Fig6Result {
        effectiveness,
        series,
    }
}

/// One (policy, attacker) cell of the Fig. 10 comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig10Cell {
    /// Policy name.
    pub policy: String,
    /// Attacker name ("APT1" or "APT2").
    pub attacker: String,
    /// Final PLCs offline.
    pub plcs_offline: MeanStdErr,
    /// Average IT cost.
    pub it_cost: MeanStdErr,
    /// Average nodes compromised.
    pub nodes_compromised: MeanStdErr,
}

/// The result of the Fig. 10 experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig10Result {
    /// One cell per (policy, attacker) pair.
    pub cells: Vec<Fig10Cell>,
}

/// Reproduces Fig. 10: robustness of every defender against the nominal APT1
/// and the more aggressive APT2 (which the ACSO never saw in training).
pub fn fig10(ctx: &mut ExperimentContext) -> Fig10Result {
    let mut cells = Vec::new();
    ctx.trained.agent.set_explore(false);
    for (attacker_name, profile) in [("APT1", AptProfile::apt1()), ("APT2", AptProfile::apt2())] {
        let mut config = ctx.scale.eval_config();
        config.sim.apt = AptProfile {
            cleanup_effectiveness: config.sim.apt.cleanup_effectiveness,
            ..profile
        };
        for factory in policy_factories(ctx) {
            let evaluation = evaluate_factory_detailed(&factory, &config);
            cells.push(Fig10Cell {
                policy: evaluation.policy.clone(),
                attacker: attacker_name.to_string(),
                plcs_offline: evaluation.summary.final_plcs_offline,
                it_cost: evaluation.summary.average_it_cost,
                nodes_compromised: evaluation.summary.average_nodes_compromised,
            });
        }
    }
    Fig10Result { cells }
}

/// One grid-search configuration and the training return it achieved.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridSearchRow {
    /// Whether the shaping reward was enabled.
    pub shaping: bool,
    /// Target-network update interval (gradient updates).
    pub target_update_interval: u64,
    /// ε decay rate per episode.
    pub epsilon_decay: f64,
    /// Mean discounted return over the last half of training episodes.
    pub mean_return: f64,
}

/// Reproduces the §4.2 hyper-parameter grid search protocol on the small
/// network: shaping reward on/off, target-update interval, and ε decay.
///
/// The eight configurations are independent training runs, so they fan out
/// over the rollout worker pool (one full training per task); results come
/// back in grid order regardless of the thread count.
pub fn grid_search(scale: &ExperimentScale) -> Vec<GridSearchRow> {
    let mut grid = Vec::new();
    for shaping in [true, false] {
        for target_update_interval in [500u64, 5_000] {
            for epsilon_decay in [0.999, 0.9999] {
                grid.push((shaping, target_update_interval, epsilon_decay));
            }
        }
    }
    // Each concurrent training run holds its own replay buffer (at paper
    // scale, 2^17 n-step transitions carrying two feature sets each), so
    // concurrency is capped to bound peak memory; `ACSO_THREADS=1` restores
    // the fully sequential behaviour.
    let threads = acso_runtime::available_threads().min(4);
    acso_runtime::run_indexed(grid.len(), threads, |i| {
        let (shaping, target_update_interval, epsilon_decay) = grid[i];
        // Each grid cell occupies one pool worker, so its DBN fit and its
        // updates run on that worker alone (nested fan-outs run inline).
        let mut config = scale.train_config();
        config.sim = if shaping {
            config.sim.clone()
        } else {
            config.sim.clone().with_shaping(ShapingConfig::disabled())
        };
        config.agent.dqn.target_update_interval = target_update_interval;
        config.agent.dqn.epsilon_decay = epsilon_decay;
        let trained = train_attention_acso(&config);
        let n = trained.report.episode_returns.len().max(1);
        let mean_return = trained.report.recent_mean_return(n / 2 + 1);
        GridSearchRow {
            shaping,
            target_update_interval,
            epsilon_decay,
            mean_return,
        }
    })
}

/// Scale knobs for the scenario sweep (the registry-wide robustness
/// experiment; see [`scenario_sweep`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSweepScale {
    /// Evaluation episodes per policy per scenario.
    pub eval_episodes: usize,
    /// Episode-horizon override applied to every scenario (`None` keeps each
    /// scenario's own horizon).
    pub max_time: Option<u64>,
    /// ACSO training episodes per scenario (the agent is re-trained on each
    /// scenario's own simulator, like `prepare` does for the paper network).
    pub train_episodes: usize,
    /// Random-defender episodes used to fit each scenario's DBN.
    pub dbn_episodes: usize,
    /// Base random seed shared by every scenario, so each policy sees the
    /// same per-scenario attack sequences.
    pub seed: u64,
}

impl ScenarioSweepScale {
    /// Smoke scale: short horizons, two evaluation episodes — CI-friendly.
    pub fn smoke() -> Self {
        Self {
            eval_episodes: 2,
            max_time: Some(150),
            train_episodes: 1,
            dbn_episodes: 2,
            seed: 0,
        }
    }

    /// Reduced scale for laptop runs.
    pub fn quick() -> Self {
        Self {
            eval_episodes: 6,
            max_time: Some(1_000),
            train_episodes: 8,
            dbn_episodes: 10,
            seed: 0,
        }
    }

    /// Paper-style scale: every scenario at its own full horizon.
    pub fn paper() -> Self {
        Self {
            eval_episodes: 100,
            max_time: None,
            train_episodes: 150,
            dbn_episodes: 200,
            seed: 0,
        }
    }
}

/// One scenario's row of the sweep: every policy's evaluation under that
/// scenario's conditions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSweepRow {
    /// Scenario name (registry key).
    pub scenario: String,
    /// The scenario's tags, echoed for grouping in reports.
    pub tags: Vec<String>,
    /// One evaluation per policy, in presentation order (ACSO first).
    pub evaluations: Vec<PolicyEvaluation>,
}

/// The result of the scenario sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSweepResult {
    /// One row per scenario, in registry order.
    pub rows: Vec<ScenarioSweepRow>,
}

impl ScenarioSweepResult {
    /// Formats the sweep as an aligned per-scenario results table.
    pub fn format_table(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "{:<16} {:<14} {:>18} {:>14} {:>12} {:>16}",
            "Scenario", "Policy", "Return", "PLCs Offline", "IT Cost", "Nodes Compromised"
        )
        .unwrap();
        for row in &self.rows {
            for (i, eval) in row.evaluations.iter().enumerate() {
                let s = &eval.summary;
                writeln!(
                    out,
                    "{:<16} {:<14} {:>10.1} ± {:<5.1} {:>8.2} ± {:<3.2} {:>6.3} ± {:<4.3} {:>9.2} ± {:<4.2}",
                    if i == 0 { row.scenario.as_str() } else { "" },
                    eval.policy,
                    s.discounted_return.mean,
                    s.discounted_return.std_err,
                    s.final_plcs_offline.mean,
                    s.final_plcs_offline.std_err,
                    s.average_it_cost.mean,
                    s.average_it_cost.std_err,
                    s.average_nodes_compromised.mean,
                    s.average_nodes_compromised.std_err,
                )
                .unwrap();
            }
        }
        out
    }
}

/// Evaluates a freshly trained ACSO and the three baselines across every
/// scenario in the registry (the "can it defend networks it was not designed
/// around?" experiment the ROADMAP's scenario goal asks for).
///
/// For each scenario the DBN and the agent are trained on that scenario's
/// own simulator, then all four policies are evaluated through the parallel
/// rollout engine; like every rollout consumer, results are bit-identical
/// for any `ACSO_THREADS` setting.
pub fn scenario_sweep(
    registry: &ScenarioRegistry,
    scale: &ScenarioSweepScale,
) -> ScenarioSweepResult {
    let mut rows = Vec::new();
    for scenario in registry {
        let mut sim = scenario.config.clone();
        if let Some(max_time) = scale.max_time {
            sim = sim.with_max_time(max_time);
        }
        let experiment = ExperimentScale {
            eval_sim: sim.clone(),
            train_sim: sim,
            eval_episodes: scale.eval_episodes,
            train_episodes: scale.train_episodes,
            dbn_episodes: scale.dbn_episodes,
            seed: scale.seed,
        };
        let mut ctx = prepare(experiment);
        let result = table2(&mut ctx);
        rows.push(ScenarioSweepRow {
            scenario: scenario.name.clone(),
            tags: scenario.tags.clone(),
            evaluations: result.evaluations,
        });
    }
    ScenarioSweepResult { rows }
}

/// Reproduces the §4.3 DBN validation: learn the filter from random-defender
/// episodes and report its divergence from the true state.
pub fn dbn_validation(scale: &ExperimentScale) -> ValidationReport {
    let model = dbn::learn::learn_model(&dbn::learn::LearnConfig {
        episodes: scale.dbn_episodes,
        seed: scale.seed,
        sim: scale.eval_sim.clone(),
    });
    validate_filter(
        &model,
        &scale.eval_sim,
        scale.eval_episodes.min(10),
        scale.seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_smoke_produces_all_four_policies() {
        let mut ctx = prepare(ExperimentScale::smoke());
        let result = table2(&mut ctx);
        assert_eq!(result.evaluations.len(), 4);
        let names: Vec<&str> = result
            .evaluations
            .iter()
            .map(|e| e.policy.as_str())
            .collect();
        assert_eq!(names, vec!["ACSO", "DBN Expert", "Playbook", "Semi Random"]);
        for eval in &result.evaluations {
            assert_eq!(eval.episodes.len(), 2);
        }
    }

    #[test]
    fn fig10_smoke_covers_both_attackers() {
        let mut ctx = prepare(ExperimentScale::smoke());
        let result = fig10(&mut ctx);
        assert_eq!(result.cells.len(), 8);
        assert!(result.cells.iter().any(|c| c.attacker == "APT1"));
        assert!(result.cells.iter().any(|c| c.attacker == "APT2"));
    }

    #[test]
    fn scenario_sweep_smoke_covers_registry_rows_in_order() {
        let mut registry = ScenarioRegistry::builtin();
        registry.retain_named(&["tiny".to_string()]);
        registry
            .register(
                ics_sim::Scenario::new(
                    "tiny-insider",
                    "tiny network, insider foothold",
                    ics_sim::SimConfig::tiny().with_apt(AptProfile::insider()),
                )
                .with_tags(["attacker"]),
            )
            .unwrap();
        let result = scenario_sweep(&registry, &ScenarioSweepScale::smoke());
        assert_eq!(result.rows.len(), 2);
        assert_eq!(result.rows[0].scenario, "tiny");
        assert_eq!(result.rows[1].scenario, "tiny-insider");
        for row in &result.rows {
            assert_eq!(row.evaluations.len(), 4);
            assert_eq!(row.evaluations[0].policy, "ACSO");
            for eval in &row.evaluations {
                assert_eq!(eval.episodes.len(), 2);
            }
        }
        let table = result.format_table();
        assert!(table.contains("tiny-insider"));
        assert!(table.contains("ACSO"));
    }

    #[test]
    fn dbn_validation_smoke() {
        let report = dbn_validation(&ExperimentScale::smoke());
        assert!(report.samples > 0);
        assert!(report.compromise_accuracy > 0.5);
    }
}
