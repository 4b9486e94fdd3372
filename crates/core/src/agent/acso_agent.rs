//! The ACSO agent: a Q-network, the DBN filter, and the augmented DQN
//! training machinery, behind both a training interface and the common
//! [`DefenderPolicy`] evaluation interface.

use crate::actions::ActionSpace;
use crate::agent::QNetwork;
use crate::features::{EncodeScratch, NodeFeatureEncoder, StateFeatures};
use crate::policy::DefenderPolicy;
use dbn::{DbnFilter, DbnModel};
use ics_net::Topology;
use ics_sim::{DefenderAction, Observation};
use neural::optim::Adam;
use neural::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl::{epsilon_greedy, DqnConfig, DqnTrainer, FeatureId, Transition};

/// Configuration of the agent's learner.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentConfig {
    /// Augmented-DQN hyper-parameters (§4.2).
    pub dqn: DqnConfig,
    /// Adam learning rate (the paper uses 1e-4).
    pub learning_rate: f32,
    /// Seed for the agent's exploration RNG.
    pub seed: u64,
}

impl Default for AgentConfig {
    fn default() -> Self {
        Self {
            dqn: DqnConfig::paper(),
            learning_rate: 1e-4,
            seed: 0,
        }
    }
}

impl AgentConfig {
    /// A configuration sized for CPU smoke-training runs.
    pub fn smoke() -> Self {
        Self {
            dqn: DqnConfig::smoke(),
            learning_rate: 3e-4,
            seed: 0,
        }
    }
}

/// The ACSO defender agent.
///
/// `Clone` snapshots the whole agent — networks, filter, replay contents —
/// which is how the parallel rollout engine gives every evaluation worker
/// its own instance of a trained agent.
///
/// # Example
///
/// Assemble an (untrained) agent from its three ingredients — a learned DBN
/// model, a Q-network, a configuration — and roll out one greedy episode:
///
/// ```
/// use acso_core::agent::{AcsoAgent, AgentConfig, AttentionQNet};
/// use acso_core::rollout::{rollout_serial, RolloutPlan};
/// use acso_core::ActionSpace;
/// use dbn::learn::{learn_model, LearnConfig};
/// use ics_sim::{IcsEnvironment, SimConfig};
///
/// let sim = SimConfig::tiny().with_max_time(30);
/// let model = learn_model(&LearnConfig { episodes: 1, seed: 0, sim: sim.clone() });
/// let env = IcsEnvironment::new(sim.clone());
/// let network = AttentionQNet::new(ActionSpace::new(env.topology()), 0);
/// let mut agent = AcsoAgent::new(env.topology(), model, network, AgentConfig::smoke());
/// agent.set_explore(false); // greedy evaluation mode
///
/// let metrics = rollout_serial(&mut agent, &RolloutPlan::new(sim, 1, 0).with_threads(1));
/// assert_eq!(metrics.len(), 1);
/// ```
#[derive(Clone)]
pub struct AcsoAgent<N: QNetwork + Clone> {
    online: N,
    target: N,
    trainer: DqnTrainer<StateFeatures>,
    optimizer: Adam,
    action_space: ActionSpace,
    encoder: NodeFeatureEncoder,
    filter: DbnFilter,
    rng: StdRng,
    /// Whether action selection explores (training) or is purely greedy
    /// (evaluation).
    explore: bool,
    losses: Vec<f32>,
    /// Reusable feature buffer for the greedy evaluation path, where the
    /// encoding is dead as soon as the action is chosen.
    eval_features: StateFeatures,
    /// Step-chain bookkeeping for `eval_features`, letting the greedy path
    /// rewrite only active rows between consecutive hours of one episode.
    eval_scratch: EncodeScratch,
    /// Reusable `[batch, action-space]` gradient matrix for the update.
    grad_batch: Matrix,
}

impl<N: QNetwork + Clone> AcsoAgent<N> {
    /// Creates an agent for a topology with the given Q-network and learned
    /// DBN model.
    pub fn new(topology: &Topology, dbn_model: DbnModel, network: N, config: AgentConfig) -> Self {
        let action_space = ActionSpace::new(topology);
        let encoder = NodeFeatureEncoder::new(topology);
        let filter = DbnFilter::new(dbn_model, topology.node_count());
        let target = network.clone();
        Self {
            online: network,
            target,
            trainer: DqnTrainer::new(config.dqn),
            optimizer: Adam::new(config.learning_rate),
            action_space,
            encoder,
            filter,
            rng: StdRng::seed_from_u64(config.seed),
            explore: true,
            losses: Vec::new(),
            eval_features: StateFeatures::empty(),
            eval_scratch: EncodeScratch::new(),
            grad_batch: Matrix::zeros(0, 0),
        }
    }

    /// The flat action space the agent selects from.
    pub fn action_space(&self) -> &ActionSpace {
        &self.action_space
    }

    /// Mutable access to the online Q-network (weight serialization,
    /// diagnostics).
    pub fn network_mut(&mut self) -> &mut N {
        &mut self.online
    }

    /// A lightweight copy for evaluation workers: networks, belief filter
    /// and encoder are cloned, but the replay buffer, n-step window and
    /// optimizer state are reset — greedy evaluation never reads them, and
    /// a full `Clone` would otherwise copy the entire training history per
    /// worker. The copy starts with exploration disabled.
    pub fn eval_clone(&self) -> Self {
        Self {
            online: self.online.clone(),
            target: self.target.clone(),
            trainer: DqnTrainer::new(*self.trainer.config()),
            optimizer: Adam::new(self.optimizer.learning_rate()),
            action_space: self.action_space.clone(),
            encoder: self.encoder.clone(),
            filter: self.filter.clone(),
            rng: self.rng.clone(),
            explore: false,
            losses: Vec::new(),
            eval_features: StateFeatures::empty(),
            eval_scratch: EncodeScratch::new(),
            grad_batch: Matrix::zeros(0, 0),
        }
    }

    /// Current exploration rate.
    pub fn epsilon(&self) -> f64 {
        self.trainer.epsilon()
    }

    /// Mean training loss over the most recent updates (diagnostics).
    pub fn recent_loss(&self) -> f32 {
        if self.losses.is_empty() {
            0.0
        } else {
            self.losses.iter().sum::<f32>() / self.losses.len() as f32
        }
    }

    /// Switches between exploring (training) and greedy (evaluation) action
    /// selection.
    pub fn set_explore(&mut self, explore: bool) {
        self.explore = explore;
    }

    /// Resets per-episode state (the belief filter). Call at every episode
    /// start, for training and evaluation alike.
    pub fn begin_episode(&mut self) {
        self.filter.reset();
        self.eval_scratch.invalidate();
    }

    /// Finishes a training episode: decays ε and flushes the n-step window.
    pub fn end_episode(&mut self) {
        self.trainer.end_episode();
        self.losses.clear();
    }

    /// Updates the belief filter with an observation, encodes the state into
    /// the trainer's feature arena, and selects an action index (ε-greedy
    /// when exploring, greedy otherwise).
    ///
    /// The returned [`FeatureId`] is the arena handle for this decision
    /// point: the training loop passes it to
    /// [`AcsoAgent::store_transition`] twice — as the next state of one
    /// transition and the current state of the following one — so each
    /// encoded state is stored exactly once. **Every id must reach
    /// `store_transition`** (ending the episode right after the final call
    /// is fine — that id was already stored as the last transition's next
    /// state): an id that is selected but never stored keeps its arena slot
    /// occupied for the life of the trainer. Loops that only need actions,
    /// not learning, should use the greedy [`DefenderPolicy`] interface
    /// instead, which touches no arena.
    ///
    /// Inference runs through [`QNetwork::q_values_batch`] as a batch of one
    /// — bit-identical to the cached single-state forward, but (like every
    /// inference call since the batch-first refactor) it leaves the training
    /// cache untouched.
    pub fn select_action(&mut self, observation: &Observation) -> (usize, FeatureId) {
        self.filter.update(observation);
        let features = self.encoder.encode(observation, &self.filter);
        let q = self
            .online
            .q_values_batch(&[&features])
            .pop()
            .expect("a batch of one state yields one Q-vector");
        let id = self.trainer.intern(features);
        let epsilon = if self.explore {
            self.trainer.epsilon()
        } else {
            0.0
        };
        let action = epsilon_greedy(&q, epsilon, &mut self.rng);
        (action, id)
    }

    /// Greedy action selection for evaluation: encodes into a reusable
    /// buffer (no per-step feature allocation, and between consecutive hours
    /// only active node rows are rewritten) and consumes no randomness, so
    /// cloned agents decide identically regardless of call history.
    fn act_greedy(&mut self, observation: &Observation) -> usize {
        self.filter.update(observation);
        self.encoder.encode_active_into(
            observation,
            &self.filter,
            &mut self.eval_scratch,
            &mut self.eval_features,
        );
        let q = self
            .online
            .q_values_batch(&[&self.eval_features])
            .pop()
            .expect("a batch of one state yields one Q-vector");
        rl::policy::greedy(&q)
    }

    /// Records a transition for learning, by feature-arena ids (from
    /// [`AcsoAgent::select_action`]) — no feature set is copied or cloned on
    /// this path.
    pub fn store_transition(
        &mut self,
        state: FeatureId,
        action: usize,
        reward: f64,
        next_state: FeatureId,
        done: bool,
    ) {
        self.trainer.observe(Transition {
            state,
            action,
            reward,
            next_state,
            done,
        });
    }

    /// Number of live feature sets in the replay arena (memory
    /// diagnostics; see [`DqnTrainer::arena_live`]).
    pub fn replay_arena_live(&self) -> usize {
        self.trainer.arena_live()
    }

    /// Number of n-step transitions in the replay ring.
    pub fn replay_buffered(&self) -> usize {
        self.trainer.buffered()
    }

    /// Runs one gradient update if the trainer says it is time. Returns the
    /// batch loss when an update happened.
    ///
    /// The update is batch-first end to end: the double-DQN bootstrap, the
    /// prediction forward *and* the backward pass each run as one stacked
    /// pass over the whole minibatch (gradients summed per parameter before
    /// a single optimizer step), with per-sample TD errors still extracted
    /// for the priority updates. Minibatch states are gathered from the
    /// replay feature arena by index — nothing is cloned on this path. The
    /// unit tests pin it bit for bit to a per-sample reference loop.
    pub fn maybe_train(&mut self) -> Option<f32> {
        if !self.trainer.should_update() {
            return None;
        }
        let picks = self.trainer.sample_batch_indices(&mut self.rng);
        if picks.is_empty() {
            return None;
        }
        let loss = self.update_batched(&picks);
        self.losses.push(loss);
        Some(loss)
    }

    /// Double-DQN bootstrap values for the non-terminal samples of a batch:
    /// the online network chooses the bootstrap action, the target network
    /// evaluates it. One batched (inference-only) forward per network
    /// covers the whole minibatch and leaves the training cache untouched.
    fn bootstrap_values(&mut self, picks: &[(usize, f64)]) -> Vec<f64> {
        let boot_states: Vec<&StateFeatures> = picks
            .iter()
            .filter(|(index, _)| !self.trainer.transition(*index).done)
            .map(|(index, _)| {
                self.trainer
                    .features(self.trainer.transition(*index).final_state)
            })
            .collect();
        let online_next = self.online.q_values_batch(&boot_states);
        let target_next = self.target.q_values_batch(&boot_states);
        online_next
            .iter()
            .zip(&target_next)
            .map(|(online_q, target_q)| f64::from(target_q[rl::policy::greedy(online_q)]))
            .collect()
    }

    /// The batched update: one stacked training forward, one gradient row
    /// per sample, one stacked backward, one optimizer step.
    fn update_batched(&mut self, picks: &[(usize, f64)]) -> f32 {
        let gamma = self.trainer.config().gamma;
        let batch_len = picks.len();
        self.online.zero_grad();
        let bootstraps = self.bootstrap_values(picks);
        let mut bootstraps = bootstraps.into_iter();

        // One stacked forward over the whole minibatch, gathered from the
        // arena; the per-sample predictions are bit-identical to solo cached
        // forwards, so the TD errors (and the priorities they feed) match
        // the per-sample reference loop exactly.
        let states: Vec<&StateFeatures> = picks
            .iter()
            .map(|(index, _)| self.trainer.features(self.trainer.transition(*index).state))
            .collect();
        let predictions = self.online.q_values_batch_train(&states);

        let action_len = self.action_space.len();
        if self.grad_batch.shape() != (batch_len, action_len) {
            self.grad_batch = Matrix::zeros(batch_len, action_len);
        } else {
            self.grad_batch.fill(0.0);
        }
        let mut errors = Vec::with_capacity(batch_len);
        let mut loss_sum = 0.0f32;
        for (row, (index, weight)) in picks.iter().enumerate() {
            let t = self.trainer.transition(*index);
            let bootstrap = if t.done {
                0.0
            } else {
                bootstraps.next().expect("one bootstrap per live sample")
            };
            let td_target = t.return_n + t.bootstrap_discount(gamma) * bootstrap;
            let prediction = f64::from(predictions[row][t.action]);
            let td_error = prediction - td_target;

            // Huber gradient on the selected action only, importance-weighted.
            let delta = 1.0f64;
            let grad_value = td_error.clamp(-delta, delta) * weight / batch_len as f64;
            self.grad_batch.row_mut(row)[t.action] = grad_value as f32;
            loss_sum += huber_loss(td_error) as f32;
            errors.push((*index, td_error.abs()));
        }
        self.online.backward_batch(&self.grad_batch);

        self.finish_update(&errors);
        loss_sum / batch_len as f32
    }

    /// Tail of an update: optimizer step, priority refresh, target-network
    /// sync.
    fn finish_update(&mut self, errors: &[(usize, f64)]) {
        self.optimizer.step(&mut self.online.params_mut());
        let sync = self.trainer.record_update(errors);
        if sync {
            self.target.copy_params_from(&mut self.online);
        }
    }

    /// Total environment steps the agent has observed.
    pub fn env_steps(&self) -> u64 {
        self.trainer.env_steps()
    }

    /// Total gradient updates performed.
    pub fn updates(&self) -> u64 {
        self.trainer.updates()
    }

    /// The training bookkeeping (checkpoint encoding and invariant sweeps).
    pub fn trainer(&self) -> &DqnTrainer<StateFeatures> {
        &self.trainer
    }

    /// The DBN belief filter (invariant sweeps: every node's belief must
    /// remain a probability distribution after each update).
    pub fn filter(&self) -> &DbnFilter {
        &self.filter
    }

    /// Mutable access to the training bookkeeping (checkpoint restore).
    pub(crate) fn trainer_mut(&mut self) -> &mut DqnTrainer<StateFeatures> {
        &mut self.trainer
    }

    /// Mutable access to the target Q-network (checkpoint encoding: the
    /// target lags the online network, so both sets of weights travel).
    pub(crate) fn target_mut(&mut self) -> &mut N {
        &mut self.target
    }

    /// The optimizer (checkpoint encoding).
    pub(crate) fn optimizer(&self) -> &Adam {
        &self.optimizer
    }

    /// Mutable access to the optimizer (checkpoint restore).
    pub(crate) fn optimizer_mut(&mut self) -> &mut Adam {
        &mut self.optimizer
    }

    /// The exploration RNG's exact stream position.
    pub(crate) fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Restores the exploration RNG to a saved stream position, so a resumed
    /// run draws the continuation of the interrupted stream rather than
    /// restarting it.
    pub(crate) fn restore_rng_state(&mut self, state: [u64; 4]) {
        self.rng = StdRng::from_state(state);
    }
}

/// Huber loss (δ = 1) of one TD error.
fn huber_loss(td_error: f64) -> f64 {
    let delta = 1.0f64;
    if td_error.abs() <= delta {
        0.5 * td_error * td_error
    } else {
        delta * (td_error.abs() - 0.5 * delta)
    }
}

impl<N: QNetwork + Clone + 'static> DefenderPolicy for AcsoAgent<N> {
    fn name(&self) -> &str {
        "ACSO"
    }

    fn reset(&mut self, _topology: &Topology) {
        self.begin_episode();
    }

    fn decide(
        &mut self,
        observation: &Observation,
        _topology: &Topology,
        _rng: &mut StdRng,
    ) -> Vec<DefenderAction> {
        let action = self.act_greedy(observation);
        vec![self.action_space.decode(action)]
    }

    /// The agent's batched upgrade for the lockstep engine: one clone of the
    /// online network shared by all lanes, one belief filter per lane.
    /// Greedy like [`AcsoAgent::decide`] and bit-identical to it per lane
    /// (the [`QNetwork::q_values_batch`] contract), so batched rollouts
    /// reproduce serial transcripts exactly.
    fn make_batch_policy(&self, lanes: usize) -> Option<Box<dyn crate::rollout::BatchPolicy>> {
        Some(Box::new(crate::agent::BatchedAgentPolicy::new(
            self.online.clone(),
            self.action_space.clone(),
            self.encoder.clone(),
            self.filter.clone(),
            lanes,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{AttentionQNet, BaselineConvQNet};
    use dbn::learn::{learn_model, LearnConfig};
    use ics_sim::{IcsEnvironment, SimConfig};

    impl<N: QNetwork + Clone> AcsoAgent<N> {
        /// The per-sample reference for [`AcsoAgent::maybe_train`]: the same
        /// sampling, bootstrap, optimizer step and priority refresh, but the
        /// forward and backward passes run one replay sample at a time
        /// through the networks' solo cached `q_values`/`backward`.
        fn maybe_train_serial(&mut self) -> Option<f32> {
            if !self.trainer.should_update() {
                return None;
            }
            let picks = self.trainer.sample_batch_indices(&mut self.rng);
            if picks.is_empty() {
                return None;
            }
            let gamma = self.trainer.config().gamma;
            let batch_len = picks.len();
            self.online.zero_grad();
            let mut bootstraps = self.bootstrap_values(&picks).into_iter();
            let mut errors = Vec::with_capacity(batch_len);
            let mut loss_sum = 0.0f32;
            for (index, weight) in &picks {
                let t = self.trainer.transition(*index);
                let bootstrap = if t.done {
                    0.0
                } else {
                    bootstraps.next().expect("one bootstrap per live sample")
                };
                let td_target = t.return_n + t.bootstrap_discount(gamma) * bootstrap;
                let q = self.online.q_values(self.trainer.features(t.state));
                let td_error = f64::from(q[t.action]) - td_target;
                let mut grad = vec![0.0; q.len()];
                grad[t.action] = (td_error.clamp(-1.0, 1.0) * weight / batch_len as f64) as f32;
                self.online.backward(&grad);
                loss_sum += huber_loss(td_error) as f32;
                errors.push((*index, td_error.abs()));
            }
            self.finish_update(&errors);
            let loss = loss_sum / batch_len as f32;
            self.losses.push(loss);
            Some(loss)
        }
    }

    /// One update step: [`AcsoAgent::maybe_train`] or its serial reference.
    type Update<N> = fn(&mut AcsoAgent<N>) -> Option<f32>;

    /// Plays one ε-greedy training episode of at most `max_steps` steps the
    /// way `train::train_agent` does, running every update through
    /// `update`. Returns the losses of the updates that ran.
    fn train_episode<N: QNetwork + Clone>(
        agent: &mut AcsoAgent<N>,
        env: &mut IcsEnvironment,
        max_steps: usize,
        update: Update<N>,
    ) -> Vec<f32> {
        agent.begin_episode();
        let obs = env.reset();
        let (mut action, mut state) = agent.select_action(&obs);
        let mut losses = Vec::new();
        for _ in 0..max_steps {
            let step = env.step(&[agent.action_space().decode(action)]);
            let (next_action, next_state) = agent.select_action(&step.observation);
            agent.store_transition(
                state,
                action,
                step.reward + step.shaping_reward,
                next_state,
                step.done,
            );
            losses.extend(update(agent));
            action = next_action;
            state = next_state;
            if step.done {
                break;
            }
        }
        agent.end_episode();
        losses
    }

    /// Trains one agent through the batched update and an identical one
    /// through the serial reference, then asserts the two runs agree bit
    /// for bit: every loss, every weight of both networks and Adam's
    /// moments.
    fn assert_serial_matches<N: QNetwork + Clone>(
        label: &str,
        train: impl Fn(Update<N>) -> (Vec<f32>, AcsoAgent<N>),
    ) {
        let run = |update: Update<N>| {
            let (losses, mut agent) = train(update);
            let losses: Vec<u32> = losses.iter().map(|l| l.to_bits()).collect();
            let mut weights: Vec<Vec<u32>> = Vec::new();
            for net in [&mut agent.online, &mut agent.target] {
                weights.extend(
                    net.params_mut()
                        .iter()
                        .map(|p| p.value.data().iter().map(|v| v.to_bits()).collect()),
                );
            }
            (losses, weights, agent.optimizer.state_bytes())
        };
        let (batched_losses, batched_weights, batched_adam) = run(AcsoAgent::maybe_train);
        let (serial_losses, serial_weights, serial_adam) = run(AcsoAgent::maybe_train_serial);
        assert!(!batched_losses.is_empty(), "{label}: no update ran");
        assert_eq!(batched_losses, serial_losses, "{label}: losses diverged");
        assert_eq!(batched_weights, serial_weights, "{label}: weights diverged");
        assert_eq!(batched_adam, serial_adam, "{label}: Adam moments diverged");
    }

    fn make_agent<N: QNetwork + Clone>(
        seed: u64,
        network: fn(ActionSpace, u64) -> N,
    ) -> (IcsEnvironment, AcsoAgent<N>) {
        let sim = SimConfig::tiny().with_max_time(120).with_seed(seed);
        let model = learn_model(&LearnConfig {
            episodes: 1,
            seed,
            sim: sim.clone(),
        });
        let env = IcsEnvironment::new(sim);
        let space = ActionSpace::new(env.topology());
        let net = network(space, seed);
        let config = AgentConfig {
            dqn: DqnConfig {
                warmup_transitions: 16,
                update_every: 8,
                batch_size: 8,
                n_step: 3,
                target_update_interval: 4,
                ..DqnConfig::smoke()
            },
            learning_rate: 1e-3,
            seed,
        };
        let agent = AcsoAgent::new(env.topology(), model, net, config);
        (env, agent)
    }

    #[test]
    fn agent_selects_valid_actions_and_trains() {
        let (mut env, mut agent) = make_agent(3, AttentionQNet::new);
        agent.begin_episode();
        let obs = env.reset();
        let (mut action, mut state) = agent.select_action(&obs);
        let mut trained = false;
        for _ in 0..80 {
            assert!(action < agent.action_space().len());
            let step = env.step(&[agent.action_space().decode(action)]);
            let (next_action, next_state) = agent.select_action(&step.observation);
            agent.store_transition(
                state,
                action,
                step.reward + step.shaping_reward,
                next_state,
                step.done,
            );
            if agent.maybe_train().is_some() {
                trained = true;
            }
            action = next_action;
            state = next_state;
            if step.done {
                break;
            }
        }
        agent.end_episode();
        assert!(trained, "agent should perform at least one gradient update");
        assert!(agent.env_steps() > 0);
        assert!(agent.updates() > 0);
        assert!(agent.recent_loss() >= 0.0 || !agent.recent_loss().is_nan());
        // The arena holds about one feature set per distinct decision point
        // — half the two-per-transition pre-arena layout.
        assert!(agent.replay_buffered() > 0);
        assert!(agent.replay_arena_live() <= agent.replay_buffered() + 2);
    }

    /// The batched update must train exactly like the per-sample reference
    /// loop, for both architectures; release builds also check the train
    /// golden's configuration (`tests/train_determinism.rs`).
    #[test]
    fn batched_and_serial_updates_are_bit_identical() {
        assert_serial_matches("attention", |update| {
            let (mut env, mut agent) = make_agent(13, AttentionQNet::new);
            (train_episode(&mut agent, &mut env, 64, update), agent)
        });
        assert_serial_matches("baseline", |update| {
            let (mut env, mut agent) = make_agent(13, BaselineConvQNet::new);
            (train_episode(&mut agent, &mut env, 64, update), agent)
        });
        // A full two-episode smoke training per update path is too slow for
        // the debug test tier.
        #[cfg(not(debug_assertions))]
        assert_serial_matches("attention, train golden configuration", |update| {
            let config = crate::train::TrainConfig::smoke(2).with_seed(11);
            let model = learn_model(&LearnConfig {
                episodes: config.dbn_episodes,
                seed: config.seed,
                sim: config.sim.clone(),
            });
            let env = IcsEnvironment::new(config.sim.clone().with_seed(config.seed));
            let net = AttentionQNet::new(ActionSpace::new(env.topology()), config.seed);
            let mut agent = AcsoAgent::new(env.topology(), model, net, config.agent.clone());
            let mut losses = Vec::new();
            for episode in 0..config.episodes {
                let sim = config
                    .sim
                    .clone()
                    .with_seed(acso_runtime::episode_seed(config.seed, episode));
                let mut env = IcsEnvironment::new(sim);
                losses.extend(train_episode(&mut agent, &mut env, usize::MAX, update));
            }
            (losses, agent)
        });
    }

    #[test]
    fn epsilon_decays_across_episodes() {
        let (_, mut agent) = make_agent(5, AttentionQNet::new);
        let before = agent.epsilon();
        agent.end_episode();
        agent.end_episode();
        assert!(agent.epsilon() < before);
    }

    #[test]
    fn defender_policy_interface_is_greedy_and_valid() {
        let (mut env, mut agent) = make_agent(7, AttentionQNet::new);
        agent.set_explore(false);
        let obs = env.reset();
        let topo = env.topology().clone();
        let mut rng = StdRng::seed_from_u64(0);
        agent.reset(&topo);
        let actions = agent.decide(&obs, &topo, &mut rng);
        assert_eq!(actions.len(), 1);
        assert_eq!(agent.name(), "ACSO");
    }
}
