//! The augmented-DQN training loop of §4.2.
//!
//! Training interleaves environment interaction with gradient updates: the
//! agent selects ε-greedy actions, transitions (with the shaping reward of
//! eq. 6 added) flow through the n-step accumulator into prioritized replay,
//! and every few steps a double-DQN update is applied. Only the task reward
//! is reported in the returned history, matching the paper's evaluation rule.

use crate::actions::ActionSpace;
use crate::agent::{AcsoAgent, AgentConfig, AttentionQNet, QNetwork};
use crate::snapshot;
use dbn::learn::{learn_model, LearnConfig};
use dbn::DbnModel;
use ics_sim::{IcsEnvironment, SimConfig};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::PathBuf;

/// Configuration of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Simulation configuration to train in.
    pub sim: SimConfig,
    /// Agent/learner configuration.
    pub agent: AgentConfig,
    /// Number of training episodes.
    pub episodes: usize,
    /// Number of random-defender episodes used to fit the DBN filter before
    /// training starts (the paper uses 1 000).
    pub dbn_episodes: usize,
    /// Seed for environment and DBN data collection.
    pub seed: u64,
}

impl TrainConfig {
    /// The paper's training setup: the §4.2 small network for tuning, paper
    /// DQN hyper-parameters. The episode count is the main knob to trade
    /// fidelity for wall-clock time.
    pub fn paper_small(episodes: usize) -> Self {
        Self {
            sim: SimConfig::small(),
            agent: AgentConfig::default(),
            episodes,
            dbn_episodes: 50,
            seed: 0,
        }
    }

    /// A fast smoke-training setup used by tests and quick experiment runs:
    /// tiny network, short episodes, small replay warm-up.
    pub fn smoke(episodes: usize) -> Self {
        Self {
            sim: SimConfig::tiny().with_max_time(200),
            agent: AgentConfig::smoke(),
            episodes,
            dbn_episodes: 2,
            seed: 0,
        }
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.agent.seed = seed;
        self
    }
}

/// History of a training run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Discounted task return of each training episode (no shaping).
    pub episode_returns: Vec<f64>,
    /// Mean TD loss of each training episode (0 when no update ran).
    pub episode_losses: Vec<f32>,
    /// Total environment steps consumed.
    pub env_steps: u64,
    /// Total gradient updates applied.
    pub updates: u64,
}

impl TrainReport {
    /// Mean return over the last `n` episodes (or all if fewer).
    pub fn recent_mean_return(&self, n: usize) -> f64 {
        if self.episode_returns.is_empty() {
            return 0.0;
        }
        let tail: Vec<f64> = self
            .episode_returns
            .iter()
            .rev()
            .take(n.max(1))
            .copied()
            .collect();
        tail.iter().sum::<f64>() / tail.len() as f64
    }
}

/// Periodic checkpointing of a training run.
///
/// A checkpoint is an `ACSOSNAP` container (see [`crate::snapshot`]) written
/// atomically to `path` every `every_episodes` episodes and again after the
/// final one. Restoring it and continuing is bit-identical to never having
/// stopped — the contract `tests/resume_determinism.rs` pins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Where the snapshot lives. Writes go through a sibling `.tmp` file and
    /// a rename, so a crash mid-write leaves the previous checkpoint intact.
    pub path: PathBuf,
    /// Checkpoint cadence in episodes (must be at least 1).
    pub every_episodes: usize,
}

impl CheckpointConfig {
    /// Checkpoints to `path` every `every_episodes` episodes.
    pub fn new(path: impl Into<PathBuf>, every_episodes: usize) -> Self {
        assert!(every_episodes > 0, "checkpoint cadence must be positive");
        Self {
            path: path.into(),
            every_episodes,
        }
    }
}

/// Trains an agent that already wraps a Q-network. Returns the training
/// history; the agent is trained in place.
///
/// The episode loop is inherently serial — each episode's ε-greedy decisions
/// depend on everything learned before it — so unlike evaluation it does not
/// fan out over the rollout engine. The gradient step, however, is
/// batch-first: every DQN update runs one stacked forward and one stacked
/// backward over the whole minibatch (see [`AcsoAgent::maybe_train`]), bit
/// for bit what a per-sample loop would compute. The parallelism in a
/// training run lives in the DBN
/// data-collection phase ([`dbn::learn::learn_model`] fans episodes over
/// `ACSO_THREADS` workers) and, one level up, in
/// [`crate::experiments::grid_search`] running independent training
/// configurations concurrently. Per-episode seeds use the engine's
/// derivation so the environment stream depends only on the episode index.
pub fn train_agent<N: QNetwork + Clone>(
    agent: &mut AcsoAgent<N>,
    sim: &SimConfig,
    episodes: usize,
    seed: u64,
) -> TrainReport {
    let mut report = TrainReport::default();
    run_episodes(agent, sim, episodes, seed, &mut report, None)
        .expect("no checkpoint configured, so no I/O can fail");
    report
}

/// Trains with periodic crash-recovery checkpoints, optionally resuming from
/// an existing one.
///
/// With `resume` set and a readable snapshot at `checkpoint.path`, the
/// agent's full learning state (networks, optimizer moments, replay ring and
/// arena, schedules, RNG stream position) is restored and training continues
/// from the episode after the checkpoint — per-episode environment seeds
/// depend only on the episode index, so the continuation replays exactly the
/// stream an uninterrupted run would have seen. Resuming a checkpoint that
/// already covers `episodes` episodes trains nothing further and returns its
/// report.
///
/// # Errors
///
/// Propagates snapshot I/O failures; with `resume`, also a missing, torn or
/// corrupt checkpoint (a torn write is caught by the container digest before
/// any state is touched, so the agent is left as constructed and the caller
/// may fall back to a cold start).
pub fn train_agent_checkpointed<N: QNetwork + Clone>(
    agent: &mut AcsoAgent<N>,
    sim: &SimConfig,
    episodes: usize,
    seed: u64,
    checkpoint: &CheckpointConfig,
    resume: bool,
) -> io::Result<TrainReport> {
    let mut report = TrainReport::default();
    if resume {
        let bytes = std::fs::read(&checkpoint.path)?;
        report = snapshot::decode_train_checkpoint(agent, &bytes)?;
    }
    run_episodes(agent, sim, episodes, seed, &mut report, Some(checkpoint))?;
    Ok(report)
}

/// The shared episode loop. `report` may already carry completed episodes (a
/// resumed run); the loop continues from that point so per-episode seeds line
/// up with an uninterrupted run.
fn run_episodes<N: QNetwork + Clone>(
    agent: &mut AcsoAgent<N>,
    sim: &SimConfig,
    episodes: usize,
    seed: u64,
    report: &mut TrainReport,
    checkpoint: Option<&CheckpointConfig>,
) -> io::Result<()> {
    let start = report.episode_returns.len();
    agent.set_explore(true);

    for episode in start..episodes {
        let sim = sim
            .clone()
            .with_seed(acso_runtime::episode_seed(seed, episode));
        let mut env = IcsEnvironment::new(sim);
        let gamma = env.gamma();
        agent.begin_episode();
        let obs = env.reset();
        let (mut action, mut state) = agent.select_action(&obs);

        let mut discounted_return = 0.0;
        let mut discount = 1.0;
        loop {
            let step = env.step(&[agent.action_space().decode(action)]);
            discounted_return += discount * step.reward;
            discount *= gamma;

            // Each decision point is encoded into the replay arena exactly
            // once; its id links this transition's next state to the next
            // transition's start state with no feature clone.
            let (next_action, next_state) = agent.select_action(&step.observation);
            agent.store_transition(
                state,
                action,
                step.reward + step.shaping_reward,
                next_state,
                step.done,
            );
            agent.maybe_train();

            action = next_action;
            state = next_state;
            if step.done {
                break;
            }
        }
        report.episode_returns.push(discounted_return);
        report.episode_losses.push(agent.recent_loss());
        agent.end_episode();

        if let Some(config) = checkpoint {
            let done = episode + 1;
            if done % config.every_episodes == 0 || done == episodes {
                report.env_steps = agent.env_steps();
                report.updates = agent.updates();
                let bytes = snapshot::encode_train_checkpoint(agent, report);
                snapshot::write_atomic(&config.path, &bytes)?;
            }
        }
    }
    report.env_steps = agent.env_steps();
    report.updates = agent.updates();
    agent.set_explore(false);
    Ok(())
}

/// A trained ACSO defender together with the artefacts needed to reuse it.
pub struct TrainedAcso {
    /// The trained agent (exploration disabled, ready for evaluation).
    pub agent: AcsoAgent<AttentionQNet>,
    /// The DBN model fitted before training.
    pub dbn_model: DbnModel,
    /// The training history.
    pub report: TrainReport,
}

/// The cold attention ACSO `config` describes, with the DBN model it was
/// built on: the DBN fit from random-defender episodes, then an untrained
/// agent for the configured topology.
fn cold_attention_acso(config: &TrainConfig) -> (AcsoAgent<AttentionQNet>, DbnModel) {
    let dbn_model = learn_model(&LearnConfig {
        episodes: config.dbn_episodes,
        seed: config.seed,
        sim: config.sim.clone(),
    });
    let env = IcsEnvironment::new(config.sim.clone().with_seed(config.seed));
    let action_space = ActionSpace::new(env.topology());
    let network = AttentionQNet::new(action_space, config.seed);
    let agent = AcsoAgent::new(
        env.topology(),
        dbn_model.clone(),
        network,
        config.agent.clone(),
    );
    (agent, dbn_model)
}

/// End-to-end training of the attention-based ACSO: fit the DBN filter from
/// random-defender episodes, then run the augmented DQN loop.
pub fn train_attention_acso(config: &TrainConfig) -> TrainedAcso {
    let (mut agent, dbn_model) = cold_attention_acso(config);
    let report = train_agent(&mut agent, &config.sim, config.episodes, config.seed);
    TrainedAcso {
        agent,
        dbn_model,
        report,
    }
}

/// [`train_attention_acso`] with crash-recovery checkpoints.
///
/// The DBN fit, environment and network construction are all deterministic
/// in `config`, so a restarted process rebuilds an identical cold agent and
/// — when `resume` finds a checkpoint — restores the saved learning state on
/// top of it and continues bit-identically.
///
/// # Errors
///
/// See [`train_agent_checkpointed`].
pub fn train_attention_acso_checkpointed(
    config: &TrainConfig,
    checkpoint: &CheckpointConfig,
    resume: bool,
) -> io::Result<TrainedAcso> {
    let (mut agent, dbn_model) = cold_attention_acso(config);
    let report = train_agent_checkpointed(
        &mut agent,
        &config.sim,
        config.episodes,
        config.seed,
        checkpoint,
        resume,
    )?;
    Ok(TrainedAcso {
        agent,
        dbn_model,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_training_runs_end_to_end() {
        let config = TrainConfig::smoke(2).with_seed(3);
        let trained = train_attention_acso(&config);
        assert_eq!(trained.report.episode_returns.len(), 2);
        assert!(trained.report.env_steps >= 400);
        assert!(trained.report.updates > 0, "training should apply updates");
        assert!(trained.report.recent_mean_return(2).is_finite());
        // Exploration is disabled after training so the agent is ready for
        // greedy evaluation.
        assert!(trained.agent.epsilon() < 1.0);
    }

    #[test]
    fn train_report_recent_mean() {
        let report = TrainReport {
            episode_returns: vec![1.0, 2.0, 3.0, 4.0],
            ..TrainReport::default()
        };
        assert!((report.recent_mean_return(2) - 3.5).abs() < 1e-12);
        assert!((report.recent_mean_return(10) - 2.5).abs() < 1e-12);
        assert_eq!(TrainReport::default().recent_mean_return(3), 0.0);
    }
}
