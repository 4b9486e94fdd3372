//! The ACSO agent: a Q-network, the DBN filter, and the augmented DQN
//! training machinery, behind both a training interface and the common
//! [`DefenderPolicy`] evaluation interface.

use crate::actions::ActionSpace;
use crate::agent::QNetwork;
use crate::features::{NodeFeatureEncoder, StateFeatures};
use crate::policy::DefenderPolicy;
use dbn::{DbnFilter, DbnModel};
use ics_net::Topology;
use ics_sim::{DefenderAction, Observation};
use neural::optim::Adam;
use neural::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl::{epsilon_greedy, DqnConfig, DqnTrainer, FeatureId, Transition};
use std::time::Instant;

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
/// `Clone` snapshots the whole agent — networks, filter, replay contents.
/// Evaluation workers take the lighter [`AcsoAgent::eval_clone`] instead.
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
    /// Reusable `[batch, action-space]` gradient matrix for the update.
    grad_batch: Matrix,
    /// The target network's Q-rows per feature-arena slot, reused by the
    /// double-DQN bootstrap until the slot or the target network changes.
    target_cache: TargetCache,
    /// Whether updates open their crew, from their measured times.
    crew: CrewChoice,
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
            encoder,
            filter,
            rng: StdRng::seed_from_u64(config.seed),
            explore: true,
            losses: Vec::new(),
            grad_batch: Matrix::zeros(0, 0),
            target_cache: TargetCache::new(action_space.len()),
            crew: CrewChoice::default(),
            action_space,
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
    /// worker. The target cache starts empty. The copy starts with
    /// exploration disabled.
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
            grad_batch: Matrix::zeros(0, 0),
            target_cache: TargetCache::new(self.action_space.len()),
            crew: CrewChoice::default(),
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
    /// Interning may reuse a freed arena slot, so the slot's target-cache
    /// row is dropped here: it answered for the slot's previous state.
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
        self.target_cache.drop_slot(id.index());
        let epsilon = if self.explore {
            self.trainer.epsilon()
        } else {
            0.0
        };
        let action = epsilon_greedy(&q, epsilon, &mut self.rng);
        (action, id)
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

    /// The target cache's hit, miss, drop and clear counts (diagnostics).
    pub fn target_cache_stats(&self) -> TargetCacheStats {
        self.target_cache.stats
    }

    /// Runs one gradient update if the trainer says it is time. Returns the
    /// batch loss when an update happened.
    ///
    /// The update is batch-first end to end: the prediction forward and the
    /// backward pass each run as one stacked pass over the whole minibatch
    /// (gradients summed per parameter before a single optimizer step), with
    /// per-sample TD errors still extracted for the priority updates.
    /// Minibatch states are gathered from the replay feature arena by index —
    /// nothing is cloned on this path. The training forward runs first, and
    /// the double-DQN bootstrap then answers each distinct next state once:
    /// the online choice reuses the training forward's Q-rows for next states
    /// that are also training states, and the target value comes from the
    /// per-slot target cache where the target network already answered the
    /// slot's state. The unit tests pin the update bit for bit to a
    /// per-sample reference loop with an uncached bootstrap.
    ///
    /// The update runs on a [crew](neural::crew) opened for its length:
    /// the network kernels of the training forward, the bootstrap forwards
    /// and the backward split their outputs across it, with the same bits
    /// at every width. The width is the caller's
    /// `acso_runtime::available_threads()` (1 on a fan-out's worker),
    /// bounded by the minibatch at one member per 8 states, while updates
    /// with the crew have been measured faster than updates without it.
    pub fn maybe_train(&mut self) -> Option<f32> {
        if !self.trainer.should_update() {
            return None;
        }
        let picks = self.trainer.sample_batch_indices(&mut self.rng);
        if picks.is_empty() {
            return None;
        }
        let width = self.update_width(picks.len());
        let started = Instant::now();
        let loss = neural::crew::with_crew(width, || self.update_batched(&picks));
        self.crew.record(width > 1, started.elapsed().as_secs_f64());
        self.losses.push(loss);
        Some(loss)
    }

    /// The next update's crew width: the thread budget for a minibatch of
    /// `batch` states while the crew pays (see [`CrewChoice`]), else 1.
    fn update_width(&self, batch: usize) -> usize {
        #[cfg(test)]
        if let Some(width) = tests::CREW_WIDTH.get() {
            return width;
        }
        let budget = crew_budget(batch);
        if budget > 1 && self.crew.open() {
            budget
        } else {
            1
        }
    }

    /// Double-DQN bootstrap values for the non-terminal samples of a batch:
    /// the online network chooses the bootstrap action, the target network
    /// evaluates it. Each distinct next state (arena slot) is answered once.
    /// The online choice reads `predictions`, the training forward's Q-rows,
    /// when the next state is also a training state of the batch; the target
    /// value reads the target cache when the slot's row is valid. The rest
    /// run as one inference forward per network, which leaves the training
    /// cache untouched. The values are exactly those of fresh forwards over
    /// every next state: a state's inference Q-values do not depend on its
    /// batch and equal its training-forward Q-values on every backend
    /// (pinned by the `agent::backend_equivalence` tests).
    fn bootstrap_values(&mut self, picks: &[(usize, f64)], predictions: &[Vec<f32>]) -> Vec<f64> {
        let trainer = &self.trainer;
        // Distinct next states, and each live sample's index into them.
        let mut next: Vec<FeatureId> = Vec::new();
        let positions: Vec<usize> = picks
            .iter()
            .map(|(index, _)| trainer.transition(*index))
            .filter(|t| !t.done)
            .map(|t| {
                next.iter()
                    .position(|id| *id == t.final_state)
                    .unwrap_or_else(|| {
                        next.push(t.final_state);
                        next.len() - 1
                    })
            })
            .collect();

        let mut actions = vec![0; next.len()];
        let mut online_misses = Vec::new();
        for (k, id) in next.iter().enumerate() {
            let row = picks
                .iter()
                .position(|(index, _)| trainer.transition(*index).state == *id);
            match row {
                Some(row) => actions[k] = rl::policy::greedy(&predictions[row]),
                None => online_misses.push(k),
            }
        }
        if !online_misses.is_empty() {
            let states: Vec<&StateFeatures> = online_misses
                .iter()
                .map(|&k| trainer.features(next[k]))
                .collect();
            let rows = self.online.q_values_batch(&states);
            for (&k, q) in online_misses.iter().zip(&rows) {
                actions[k] = rl::policy::greedy(q);
            }
        }

        let mut values = vec![0.0; next.len()];
        let mut target_misses = Vec::new();
        for (k, id) in next.iter().enumerate() {
            match self.target_cache.row(id.index()) {
                Some(row) => values[k] = f64::from(row[actions[k]]),
                None => target_misses.push(k),
            }
        }
        let cache = &mut self.target_cache;
        cache.stats.hits += (next.len() - target_misses.len()) as u64;
        cache.stats.misses += target_misses.len() as u64;
        if !target_misses.is_empty() {
            let states: Vec<&StateFeatures> = target_misses
                .iter()
                .map(|&k| trainer.features(next[k]))
                .collect();
            let rows = self.target.q_values_batch(&states);
            let slots = trainer.arena().capacity();
            for (&k, q) in target_misses.iter().zip(&rows) {
                values[k] = f64::from(q[actions[k]]);
                cache.insert(next[k].index(), slots, q);
            }
        }
        positions.into_iter().map(|k| values[k]).collect()
    }

    /// The batched update: one stacked training forward, the bootstrap, one
    /// gradient row per sample, one stacked backward, one optimizer step.
    fn update_batched(&mut self, picks: &[(usize, f64)]) -> f32 {
        let gamma = self.trainer.config().gamma;
        let batch_len = picks.len();
        self.online.zero_grad();

        // One stacked forward over the whole minibatch, gathered from the
        // arena; the per-sample predictions are bit-identical to solo cached
        // forwards, so the TD errors (and the priorities they feed) match
        // the per-sample reference loop exactly.
        let states: Vec<&StateFeatures> = picks
            .iter()
            .map(|(index, _)| self.trainer.features(self.trainer.transition(*index).state))
            .collect();
        let predictions = self.online.q_values_batch_train(&states);
        let mut bootstraps = self.bootstrap_values(picks, &predictions).into_iter();

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
    /// sync (which empties the target cache).
    fn finish_update(&mut self, errors: &[(usize, f64)]) {
        self.optimizer.step(&mut self.online.params_mut());
        let sync = self.trainer.record_update(errors);
        if sync {
            self.target.copy_params_from(&mut self.online);
            self.target_cache.clear();
        }
    }

    /// Checks one cached target row against a fresh target-network forward
    /// of its slot's state, bit for bit (invariant sweeps). `pick` chooses
    /// among the valid rows of live arena slots, `pick % count`; rows of
    /// freed slots are never read (re-interning the slot drops them) and are
    /// skipped. Returns whether a row was compared: `Ok(false)` when the
    /// cache holds none. The forward is inference-only, so the check
    /// changes nothing the training run computes.
    ///
    /// # Errors
    ///
    /// Names the slot and the first action whose cached value differs.
    pub fn check_target_cache(&mut self, pick: u64) -> Result<bool, String> {
        let (slots, _, _) = self.trainer.arena().parts();
        let cached: Vec<usize> = (0..slots.len())
            .filter(|&slot| slots[slot].is_some() && self.target_cache.row(slot).is_some())
            .collect();
        if cached.is_empty() {
            return Ok(false);
        }
        let slot = cached[(pick % cached.len() as u64) as usize];
        let state = slots[slot].as_ref().expect("live slot");
        let fresh = self
            .target
            .q_values_batch(&[state])
            .pop()
            .expect("a batch of one state yields one Q-vector");
        let row = self.target_cache.row(slot).expect("valid row");
        match (0..fresh.len()).find(|&a| fresh[a].to_bits() != row[a].to_bits()) {
            None => Ok(true),
            Some(action) => Err(format!(
                "target cache row of slot {slot} is stale: action {action} cached {} but the target network gives {}",
                row[action], fresh[action]
            )),
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
    /// Empties the target cache: a restore replaces the arena, so cached
    /// rows would answer for other states.
    pub(crate) fn trainer_mut(&mut self) -> &mut DqnTrainer<StateFeatures> {
        self.target_cache.clear();
        &mut self.trainer
    }

    /// Writes the target Q-network's weights (checkpoint encoding: the
    /// target lags the online network, so both sets of weights travel). It
    /// only reads the weights, so the target cache stays valid.
    pub(crate) fn save_target_weights(&mut self, out: &mut Vec<u8>) {
        crate::agent::io::save_weights_to(&mut self.target, out)
            .expect("writing weights to a Vec cannot fail");
    }

    /// Replaces the target Q-network (checkpoint restore) and empties the
    /// target cache, whose rows the old weights computed.
    pub(crate) fn replace_target(&mut self, target: N) {
        self.target = target;
        self.target_cache.clear();
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

/// Minibatch states per crew member: a member that gets fewer would spend
/// more on its start-up and handoffs than it saves.
const STATES_PER_MEMBER: usize = 8;

/// The most threads an update's crew may use: the caller's
/// ([`acso_runtime::available_threads`], so 1 on a fan-out's worker and at
/// most `ACSO_THREADS`), bounded by the work a minibatch of `batch` states
/// offers.
fn crew_budget(batch: usize) -> usize {
    acso_runtime::available_threads().min(batch.div_ceil(STATES_PER_MEMBER))
}

/// Every this many updates, one runs the way that has been slower, so a
/// change in the machine's load shows; rare enough that a probe of a way
/// half again as slow costs under 2% of the updates' time.
const PROBE_EVERY: u64 = 32;

/// Updates at the start that alternate between the two ways, to measure
/// both.
const SEED_UPDATES: u64 = 8;

/// Update times kept per way; a way's time is their median, which one
/// update that a busy host stalled does not move.
const TIMES_KEPT: usize = 8;

/// Whether updates open their crew, chosen from measured update times.
///
/// A crew pays only while its helpers get cores of their own. On a VM
/// whose host is busy, the second vCPU runs a helper on time taken from the
/// caller's, and the update slows down instead. So every update is timed:
/// after [`SEED_UPDATES`] that alternate, updates run the way whose recent
/// median time is lower, and every [`PROBE_EVERY`]-th runs the other way.
/// Which threads compute an update never changes a bit, so the choice is
/// timing state alone: checkpoints do not carry it and `eval_clone` starts
/// afresh.
#[derive(Debug, Clone, Default)]
struct CrewChoice {
    /// Recent update times with the crew, in seconds.
    with: RecentTimes,
    /// Recent update times without it.
    without: RecentTimes,
    /// Updates seen.
    updates: u64,
}

/// The last [`TIMES_KEPT`] times recorded, in a ring.
#[derive(Debug, Clone, Default)]
struct RecentTimes {
    times: [f64; TIMES_KEPT],
    recorded: usize,
}

impl RecentTimes {
    fn push(&mut self, secs: f64) {
        self.times[self.recorded % TIMES_KEPT] = secs;
        self.recorded += 1;
    }

    /// The median of the kept times (`+∞` before the first).
    fn median(&self) -> f64 {
        let kept = self.recorded.min(TIMES_KEPT);
        if kept == 0 {
            return f64::INFINITY;
        }
        let mut times = self.times;
        let times = &mut times[..kept];
        times.sort_by(f64::total_cmp);
        times[kept / 2]
    }
}

impl CrewChoice {
    /// Whether the next update opens its crew.
    fn open(&self) -> bool {
        if self.updates < SEED_UPDATES {
            return self.updates.is_multiple_of(2);
        }
        let faster = self.with.median() <= self.without.median();
        faster != self.updates.is_multiple_of(PROBE_EVERY)
    }

    /// Records an update's wall time. The first update, which sizes every
    /// buffer, is left out.
    fn record(&mut self, opened: bool, secs: f64) {
        if self.updates > 0 {
            if opened {
                self.with.push(secs);
            } else {
                self.without.push(secs);
            }
        }
        self.updates += 1;
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

/// Byte budget of the target cache's rows. Slots whose row would end past
/// it are never cached, so their lookups always miss. A 1,024-slot ring on
/// `paper-small` (173 actions) takes 0.7 MB; the paper's 131,072-slot ring
/// on `paper-full` (332 actions) would take ~174 MB and caches its first
/// ~25,000 slots.
const TARGET_CACHE_BYTES: usize = 32 << 20;

/// Counters of an agent's target cache since the agent was built.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TargetCacheStats {
    /// Bootstrap next states answered from the cache.
    pub hits: u64,
    /// Bootstrap next states the target network ran on.
    pub misses: u64,
    /// Valid rows dropped because their arena slot took a new state.
    pub reuse_drops: u64,
    /// Whole-cache clears: one per target sync, two per checkpoint restore
    /// (the arena and the target network are both replaced).
    pub clears: u64,
}

/// The target network's Q-rows per feature-arena slot.
///
/// The target network changes only at a sync, and a replay transition is
/// sampled several times in its life, so most bootstrap next states were
/// already answered by the same target weights. A row stays valid until its
/// slot takes a new state ([`AcsoAgent::select_action`]) or the target
/// network changes (a sync or a checkpoint restore clears every row). The
/// cache is derived state: checkpoints do not carry it, and a restored
/// agent refills it with the same bits.
#[derive(Clone)]
struct TargetCache {
    /// Values per row: the action-space size.
    width: usize,
    /// Row `slot` at `slot * width..(slot + 1) * width`.
    values: Vec<f32>,
    /// Whether row `slot` holds the current target network's Q-values of
    /// the state in arena slot `slot`.
    valid: Vec<bool>,
    stats: TargetCacheStats,
}

impl TargetCache {
    fn new(width: usize) -> Self {
        Self {
            width,
            values: Vec::new(),
            valid: Vec::new(),
            stats: TargetCacheStats::default(),
        }
    }

    /// The cached row of `slot`, if valid.
    fn row(&self, slot: usize) -> Option<&[f32]> {
        let valid = self.valid.get(slot).copied().unwrap_or(false);
        valid.then(|| &self.values[slot * self.width..(slot + 1) * self.width])
    }

    /// Caches `row` as `slot`'s target Q-values. Storage grows to the
    /// arena's `slots` rows, within [`TARGET_CACHE_BYTES`]; a slot past the
    /// budget is not stored.
    fn insert(&mut self, slot: usize, slots: usize, row: &[f32]) {
        let max_rows = TARGET_CACHE_BYTES / (self.width * std::mem::size_of::<f32>());
        if slot >= max_rows {
            return;
        }
        if slot >= self.valid.len() {
            let rows = slots.clamp(slot + 1, max_rows);
            self.valid.resize(rows, false);
            self.values.resize(rows * self.width, 0.0);
        }
        self.values[slot * self.width..(slot + 1) * self.width].copy_from_slice(row);
        self.valid[slot] = true;
    }

    /// Drops `slot`'s row: the arena slot now holds a different state.
    fn drop_slot(&mut self, slot: usize) {
        if let Some(valid) = self.valid.get_mut(slot) {
            if *valid {
                *valid = false;
                self.stats.reuse_drops += 1;
            }
        }
    }

    /// Drops every row: the target network changed.
    fn clear(&mut self) {
        self.valid.fill(false);
        self.stats.clears += 1;
    }
}

impl<N: QNetwork + Clone + 'static> DefenderPolicy for AcsoAgent<N> {
    fn name(&self) -> &str {
        "ACSO"
    }

    fn reset(&mut self, _topology: &Topology) {
        self.begin_episode();
    }

    /// The plain greedy reference the lockstep engine is checked against:
    /// the dense [`NodeFeatureEncoder::encode`], one state's forward, and no
    /// randomness, so clones decide identically whatever their call history.
    fn decide(
        &mut self,
        observation: &Observation,
        _topology: &Topology,
        _rng: &mut StdRng,
    ) -> Vec<DefenderAction> {
        self.filter.update(observation);
        let features = self.encoder.encode(observation, &self.filter);
        let q = self
            .online
            .q_values_batch(&[&features])
            .pop()
            .expect("a batch of one state yields one Q-vector");
        vec![self.action_space.decode(rl::policy::greedy(&q))]
    }

    /// The agent's batched upgrade for the lockstep engine: one clone of the
    /// online network shared by all lanes, one belief filter per lane, and
    /// the step-chained [`NodeFeatureEncoder::encode_active_into`].
    /// Bit-identical per lane to [`DefenderPolicy::decide`] (the
    /// [`QNetwork::q_values_batch`] contract and the sparse encode's equality
    /// with the dense one), so batched rollouts reproduce serial transcripts
    /// exactly.
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
    use crate::agent::{AttentionQNet, BaselineConvQNet, SoloQNetwork};
    use dbn::learn::{learn_model, LearnConfig};
    use ics_sim::{IcsEnvironment, SimConfig};
    use std::cell::Cell;

    thread_local! {
        /// The width `AcsoAgent::update_width` returns on this test thread,
        /// when set.
        pub(super) static CREW_WIDTH: Cell<Option<usize>> = const { Cell::new(None) };
    }

    /// Runs `f` with every update on this thread opening a crew of `width`.
    fn at_crew_width<R>(width: usize, f: impl FnOnce() -> R) -> R {
        CREW_WIDTH.set(Some(width));
        let out = f();
        CREW_WIDTH.set(None);
        out
    }

    impl<N: QNetwork + Clone> AcsoAgent<N> {
        /// The uncached double-DQN bootstrap: fresh online and target
        /// forwards over every non-terminal sample's next state, repeats
        /// included.
        fn bootstrap_values_uncached(&mut self, picks: &[(usize, f64)]) -> Vec<f64> {
            let boot_states: Vec<&StateFeatures> = picks
                .iter()
                .map(|(index, _)| self.trainer.transition(*index))
                .filter(|t| !t.done)
                .map(|t| self.trainer.features(t.final_state))
                .collect();
            let online_next = self.online.q_values_batch(&boot_states);
            let target_next = self.target.q_values_batch(&boot_states);
            online_next
                .iter()
                .zip(&target_next)
                .map(|(online_q, target_q)| f64::from(target_q[rl::policy::greedy(online_q)]))
                .collect()
        }

        /// The per-sample reference for [`AcsoAgent::maybe_train`]: the same
        /// sampling, optimizer step and priority refresh, but an uncached
        /// bootstrap, and forward and backward passes that run one replay
        /// sample at a time through the networks' solo cached
        /// [`SoloQNetwork`] pair.
        fn maybe_train_serial(&mut self) -> Option<f32>
        where
            N: SoloQNetwork,
        {
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
            let mut bootstraps = self.bootstrap_values_uncached(&picks).into_iter();
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

    /// What a training run leaves behind, as bits: the losses, every weight
    /// of both networks, the replay ring's priorities, Adam's state and the
    /// target cache's counters.
    #[derive(Debug, PartialEq)]
    struct TrainedBits {
        losses: Vec<u32>,
        weights: Vec<Vec<u32>>,
        priorities: Vec<u64>,
        adam: Vec<u8>,
        cache: TargetCacheStats,
    }

    fn trained_bits<N: QNetwork + Clone>(losses: &[f32], agent: &mut AcsoAgent<N>) -> TrainedBits {
        let mut weights: Vec<Vec<u32>> = Vec::new();
        for net in [&mut agent.online, &mut agent.target] {
            weights.extend(
                net.params_mut()
                    .iter()
                    .map(|p| p.value.data().iter().map(|v| v.to_bits()).collect()),
            );
        }
        let replay = agent.trainer.replay();
        let mut priorities: Vec<u64> = (0..replay.len())
            .map(|i| replay.leaf_priority(i).to_bits())
            .collect();
        priorities.push(replay.max_priority().to_bits());
        TrainedBits {
            losses: losses.iter().map(|l| l.to_bits()).collect(),
            weights,
            priorities,
            adam: agent.optimizer.state_bytes(),
            cache: agent.target_cache_stats(),
        }
    }

    /// Trains one agent through the batched update, on a crew of two, and
    /// an identical one through the serial reference, then asserts the two
    /// runs agree bit for bit: every loss, every weight of both networks,
    /// the replay priorities and Adam's moments. Returns the batched run's
    /// target-cache counters.
    fn assert_serial_matches<N: SoloQNetwork + Clone>(
        label: &str,
        train: impl Fn(Update<N>) -> (Vec<f32>, AcsoAgent<N>),
    ) -> TargetCacheStats {
        let run = |update: Update<N>| {
            let (losses, mut agent) = train(update);
            trained_bits(&losses, &mut agent)
        };
        let batched = at_crew_width(2, || run(AcsoAgent::maybe_train));
        let serial = run(AcsoAgent::maybe_train_serial);
        assert!(!batched.losses.is_empty(), "{label}: no update ran");
        assert_eq!(batched.losses, serial.losses, "{label}: losses diverged");
        assert_eq!(batched.weights, serial.weights, "{label}: weights diverged");
        assert_eq!(
            batched.priorities, serial.priorities,
            "{label}: priorities diverged"
        );
        assert_eq!(batched.adam, serial.adam, "{label}: Adam moments diverged");
        batched.cache
    }

    fn make_agent<N: QNetwork + Clone>(
        seed: u64,
        network: fn(ActionSpace, u64) -> N,
    ) -> (IcsEnvironment, AcsoAgent<N>) {
        make_agent_with_ring(seed, network, DqnConfig::smoke().buffer_capacity)
    }

    fn make_agent_with_ring<N: QNetwork + Clone>(
        seed: u64,
        network: fn(ActionSpace, u64) -> N,
        buffer_capacity: usize,
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
                buffer_capacity,
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
        // A 16-transition ring recycles arena slots, and the target network
        // syncs every 4 updates, so cached rows are read, dropped on slot
        // reuse and cleared at syncs while the serial run checks every
        // bootstrap against fresh forwards.
        let stats = assert_serial_matches("attention, 16-slot ring", |update| {
            let (mut env, mut agent) = make_agent_with_ring(13, AttentionQNet::new, 16);
            (train_episode(&mut agent, &mut env, 120, update), agent)
        });
        assert!(stats.hits > 0, "no cache hit: {stats:?}");
        assert!(stats.reuse_drops > 0, "no slot-reuse drop: {stats:?}");
        assert!(stats.clears >= 2, "fewer than two sync clears: {stats:?}");
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

    /// The update's crew splits every large kernel across its members, and
    /// each split keeps every output element's arithmetic: training at crew
    /// widths 1, 2 and 3 (3 oversubscribes a 2-core machine) leaves the same
    /// bits behind for both architectures, with the 16-slot ring's cache
    /// hits, slot-reuse drops and sync clears.
    #[test]
    fn updates_are_bit_identical_at_every_crew_width() {
        type Train<N> = fn() -> (Vec<f32>, AcsoAgent<N>);
        fn check<N: QNetwork + Clone>(label: &str, train: Train<N>) {
            let bits = |width| {
                at_crew_width(width, || {
                    let (losses, mut agent) = train();
                    trained_bits(&losses, &mut agent)
                })
            };
            let alone = bits(1);
            assert!(!alone.losses.is_empty(), "{label}: no update ran");
            for width in [2, 3] {
                assert_eq!(bits(width), alone, "{label}: width {width} diverged");
            }
        }
        check::<AttentionQNet>("attention", || {
            let (mut env, mut agent) = make_agent(13, AttentionQNet::new);
            let losses = train_episode(&mut agent, &mut env, 64, AcsoAgent::maybe_train);
            (losses, agent)
        });
        check::<BaselineConvQNet>("baseline", || {
            let (mut env, mut agent) = make_agent(13, BaselineConvQNet::new);
            let losses = train_episode(&mut agent, &mut env, 64, AcsoAgent::maybe_train);
            (losses, agent)
        });
        check::<AttentionQNet>("attention, 16-slot ring", || {
            let (mut env, mut agent) = make_agent_with_ring(13, AttentionQNet::new, 16);
            let losses = train_episode(&mut agent, &mut env, 120, AcsoAgent::maybe_train);
            (losses, agent)
        });
    }

    /// An update's crew budget is the caller's thread budget, bounded by
    /// its minibatch; on a fan-out's worker that is one thread.
    #[test]
    fn crew_budget_follows_the_thread_budget_and_the_minibatch() {
        assert_eq!(crew_budget(1), 1);
        assert!(crew_budget(64) >= 1 && crew_budget(64) <= 8);
        assert!(crew_budget(64) <= acso_runtime::available_threads());
        let nested = acso_runtime::run_indexed(2, 2, |_| crew_budget(64));
        assert_eq!(nested, vec![1, 1]);
    }

    /// Updates alternate while both ways are measured, then run the faster
    /// way, with one probe of the slower way every `PROBE_EVERY` updates;
    /// the choice follows a lasting change in which way is faster, not one
    /// slow update.
    #[test]
    fn the_crew_opens_while_it_pays() {
        let mut choice = CrewChoice::default();
        let run = |choice: &mut CrewChoice, updates: u64, with: f64, without: f64| {
            let mut opened = 0;
            for _ in 0..updates {
                let open = choice.open();
                opened += u64::from(open);
                choice.record(open, if open { with } else { without });
            }
            opened
        };
        assert_eq!(run(&mut choice, SEED_UPDATES, 1.0, 2.0), SEED_UPDATES / 2);
        // The crew pays: every update but the probes opens it.
        assert_eq!(
            run(&mut choice, 4 * PROBE_EVERY, 1.0, 2.0),
            4 * PROBE_EVERY - 4
        );
        // One stalled update does not move the choice.
        assert_eq!(run(&mut choice, 1, 50.0, 2.0), 1);
        assert!(choice.open());
        // The machine gets busy: once most recent crew updates are slower,
        // only the probes open it.
        assert!(run(&mut choice, TIMES_KEPT as u64, 3.0, 2.0) < TIMES_KEPT as u64);
        assert_eq!(run(&mut choice, 4 * PROBE_EVERY, 3.0, 2.0), 4);
    }

    /// A slot whose row would end past the byte budget is never stored:
    /// inserting it allocates nothing and its lookups miss.
    #[test]
    fn target_cache_skips_slots_past_its_byte_budget() {
        let width = 173;
        let first_past = TARGET_CACHE_BYTES / (width * std::mem::size_of::<f32>());
        let mut cache = TargetCache::new(width);
        cache.insert(first_past, first_past + 1, &vec![1.0; width]);
        assert!(cache.row(first_past).is_none());
        assert_eq!(cache.values.capacity(), 0);
        assert_eq!(cache.valid.capacity(), 0);
        assert_eq!(cache.stats, TargetCacheStats::default());
    }

    /// The soak harness's cache check passes on live rows and names a
    /// corrupted one.
    #[test]
    fn target_cache_check_catches_a_stale_row() {
        let (mut env, mut agent) = make_agent_with_ring(13, AttentionQNet::new, 16);
        train_episode(&mut agent, &mut env, 120, AcsoAgent::maybe_train);
        assert_eq!(agent.check_target_cache(0), Ok(true));
        let width = agent.target_cache.width;
        for slot in 0..agent.target_cache.valid.len() {
            agent.target_cache.values[slot * width] += 1.0;
        }
        let err = agent.check_target_cache(0).unwrap_err();
        assert!(err.contains("action 0"), "{err}");
    }

    /// Writing a checkpoint leaves the cache alone. Each restore path
    /// empties it on its own: `trainer_mut`, whose caller replaces the
    /// arena, and `replace_target`.
    #[test]
    fn checkpoint_restore_paths_empty_the_target_cache() {
        use crate::snapshot::{decode_train_checkpoint, encode_train_checkpoint};
        let (_, mut agent) = make_agent(13, AttentionQNet::new);
        let fill = |agent: &mut AcsoAgent<AttentionQNet>| {
            let row = vec![0.0; agent.target_cache.width];
            agent.target_cache.insert(0, 1, &row);
        };
        let cached = |agent: &AcsoAgent<AttentionQNet>| agent.target_cache.valid.contains(&true);

        fill(&mut agent);
        let before = agent.target_cache.valid.clone();
        let bytes = encode_train_checkpoint(&mut agent, &crate::train::TrainReport::default());
        assert_eq!(agent.target_cache.valid, before);
        agent.trainer_mut();
        assert!(!cached(&agent));
        fill(&mut agent);
        agent.replace_target(agent.target.clone());
        assert!(!cached(&agent));
        fill(&mut agent);
        decode_train_checkpoint(&mut agent, &bytes).unwrap();
        assert!(!cached(&agent));
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
