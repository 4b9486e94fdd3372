//! The ACSO agent: Q-networks and the DQN agent that wraps them.

mod acso_agent;
mod attention_net;
mod baseline_net;
mod batched;
pub mod io;

pub use acso_agent::{AcsoAgent, AgentConfig, TargetCacheStats};
pub use attention_net::AttentionQNet;
pub use baseline_net::BaselineConvQNet;
pub use batched::BatchedAgentPolicy;
pub use io::{load_weights, save_weights};

use crate::features::StateFeatures;
use neural::{Matrix, Param};

/// A Q-value network over the defender action space.
///
/// Implementations map [`StateFeatures`] encodings to one value per flat
/// action (see [`crate::ActionSpace`]) and support backpropagation of a
/// gradient with respect to those values.
///
/// The interface is **batch-only**: [`QNetwork::q_values_batch`] is the
/// inference path (action selection, double-DQN bootstrap, the lockstep
/// rollout engine), a single state being a batch of one, and
/// [`QNetwork::q_values_batch_train`] with [`QNetwork::backward_batch`] is
/// the training pair.
pub trait QNetwork: Send {
    /// Q-values for a batch of states: one `Vec` per state, each covering
    /// every flat action in action-space order.
    ///
    /// Two contracts every implementation upholds (pinned by tests):
    ///
    /// * state `i`'s values are **bit-identical** to those of a batch
    ///   holding state `i` alone — padding states into a batch never
    ///   changes any individual answer, which is what lets the batched
    ///   rollout engine promise transcripts identical to the serial engine;
    /// * the call is **inference-only**: no backward cache is written or
    ///   clobbered, so it may run between a
    ///   [`QNetwork::q_values_batch_train`] forward and its
    ///   [`QNetwork::backward_batch`].
    ///
    /// Being inference-only also leaves an implementation free to skip
    /// repeated work the training forward must keep: [`AttentionQNet`]
    /// runs each state's distinct node rows once, with the same output
    /// bits (see its `q_values_batch_impl`).
    fn q_values_batch(&mut self, features: &[&StateFeatures]) -> Vec<Vec<f32>>;

    /// The training-mode batched forward: Q-values for a whole minibatch in
    /// one stacked pass, caching batch-shaped intermediates for a subsequent
    /// [`QNetwork::backward_batch`].
    ///
    /// State `i`'s values are **bit-identical** to those
    /// [`QNetwork::q_values_batch`] returns for it, but unlike the inference
    /// path this call *does* overwrite the training cache. What it caches
    /// is up to the network: it may keep a stage's inputs instead of its
    /// intermediates and let the backward re-run that stage on the rows the
    /// gradient reaches, as the attention net does for its output heads.
    fn q_values_batch_train(&mut self, features: &[&StateFeatures]) -> Vec<Vec<f32>>;

    /// Backpropagates one gradient row per state of the most recent
    /// [`QNetwork::q_values_batch_train`] call (a `[batch, action-space]`
    /// matrix), accumulating parameter gradients summed over the minibatch.
    ///
    /// Gradient accumulation is bit-identical to a loop, in row order, of
    /// one-state training forwards each followed by its backward, on every
    /// kernel backend — the property that makes the batched DQN update
    /// reproduce serial-update training exactly (pinned by
    /// `tests/train_determinism.rs` on the reference backend, and on every
    /// backend by acso-core's unit tests, which keep that per-state loop as
    /// the oracle of both nets). An implementation may skip rows whose
    /// gradient is zero as long as skipping changes no gradient bit: the
    /// DQN loss reaches one Q-value per state.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before
    /// [`QNetwork::q_values_batch_train`] or with a gradient matrix whose
    /// shape does not match the cached batch.
    fn backward_batch(&mut self, grad_q: &Matrix);

    /// Mutable access to all trainable parameters (stable ordering).
    fn params_mut(&mut self) -> Vec<&mut Param>;

    /// Clears accumulated gradients.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Total number of trainable scalars.
    fn parameter_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.len()).sum()
    }

    /// Copies parameter values from another network of the same shape
    /// (used to refresh the target network).
    fn copy_params_from(&mut self, source: &mut dyn QNetwork) {
        let source_values: Vec<neural::Matrix> = source
            .params_mut()
            .iter()
            .map(|p| p.value.clone())
            .collect();
        for (dst, src) in self.params_mut().into_iter().zip(source_values) {
            dst.value = src;
        }
    }
}

/// The solo cached training pair of a Q-network: one state's Q-values from
/// the training forward, then the backward of that forward. It is the
/// per-state oracle the unit tests compare the batched pair against, so it
/// exists in test builds only.
#[cfg(test)]
pub(crate) trait SoloQNetwork: QNetwork {
    /// Q-values for every flat action of one state, in action-space order,
    /// caching the intermediates [`SoloQNetwork::backward`] reads.
    fn q_values(&mut self, features: &StateFeatures) -> Vec<f32>;

    /// Backpropagates a gradient with respect to the Q-values returned by
    /// the most recent [`SoloQNetwork::q_values`] call, accumulating
    /// parameter gradients.
    ///
    /// # Panics
    ///
    /// Panics if called before [`SoloQNetwork::q_values`] or with a
    /// gradient of the wrong length.
    fn backward(&mut self, grad_q: &[f32]);
}

#[cfg(test)]
mod backend_equivalence;

/// Shared fixtures for the Q-network tests: distinct decision-point states
/// from one undefended episode (beliefs and alerts evolve), so batched-vs-
/// solo and cross-backend comparisons run over non-identical inputs.
#[cfg(test)]
pub(crate) mod test_states {
    use crate::actions::ActionSpace;
    use crate::features::{NodeFeatureEncoder, StateFeatures};
    use dbn::learn::{learn_model, LearnConfig};
    use dbn::DbnFilter;
    use ics_net::TopologySpec;
    use ics_sim::{DefenderAction, IcsEnvironment, SimConfig};

    /// `count` states of a 200 h `tiny` episode at `seed`, 3 h apart, with
    /// the DBN filter fit at `seed` too.
    pub(crate) fn episode_states(count: usize, seed: u64) -> (Vec<StateFeatures>, ActionSpace) {
        let sim = SimConfig::tiny().with_max_time(200).with_seed(seed);
        trajectory_states(sim, count, 3, seed)
    }

    /// `count` states of an episode on `spec` (the `tiny` configuration
    /// otherwise), 3 h apart, with the DBN filter fit at seed 0.
    pub(crate) fn topology_states(
        spec: TopologySpec,
        count: usize,
    ) -> (Vec<StateFeatures>, ActionSpace) {
        let sim = SimConfig {
            topology: spec,
            ..SimConfig::tiny()
        }
        .with_max_time(4 * count as u64 + 50);
        trajectory_states(sim, count, 3, 0)
    }

    /// Encodes `count` decision-point states of one undefended episode of
    /// `sim`, `stride` hours apart (the first at hour 0), with the DBN
    /// filter fit on one episode of the same simulator at `model_seed`.
    pub(crate) fn trajectory_states(
        sim: SimConfig,
        count: usize,
        stride: usize,
        model_seed: u64,
    ) -> (Vec<StateFeatures>, ActionSpace) {
        let model = learn_model(&LearnConfig {
            episodes: 1,
            seed: model_seed,
            sim: sim.clone(),
        });
        let mut env = IcsEnvironment::new(sim);
        let mut obs = env.reset();
        let encoder = NodeFeatureEncoder::new(env.topology());
        let mut filter = DbnFilter::new(model, env.topology().node_count());
        let space = ActionSpace::new(env.topology());
        let mut states = Vec::with_capacity(count);
        for _ in 0..count {
            filter.update(&obs);
            states.push(encoder.encode(&obs, &filter));
            for _ in 0..stride {
                obs = env.step(&[DefenderAction::NoAction]).observation;
            }
        }
        (states, space)
    }

    /// Hand-built variants of a real encoded state that pin grouped
    /// Q-network inference at its edges, in this order: every node row
    /// equal (hosts and servers still split by head routing); a host row
    /// with a server row's bits; two node rows and two PLC rows that differ
    /// only in the sign of a zero; and every node row distinct (no row to
    /// group).
    ///
    /// # Panics
    ///
    /// Panics if `base` has fewer than two hosts, servers or PLCs.
    pub(crate) fn grouping_edge_states(base: &StateFeatures) -> Vec<StateFeatures> {
        let (host, server) = (base.host_rows[0], base.server_rows[0]);
        let copy_row = |f: &mut StateFeatures, from: usize, to: usize| {
            let src = f.nodes.row(from).to_vec();
            f.nodes.row_mut(to).copy_from_slice(&src);
        };
        let mut all_equal = base.clone();
        for node in 1..all_equal.node_count() {
            copy_row(&mut all_equal, 0, node);
        }
        let mut host_as_server = base.clone();
        copy_row(&mut host_as_server, server, host);
        let mut signed_zero = base.clone();
        let twin = base.host_rows[1];
        copy_row(&mut signed_zero, host, twin);
        let col = base.nodes.row(host).iter().position(|&v| v == 0.0).unwrap();
        signed_zero.nodes.row_mut(twin)[col] = -0.0;
        let plc = signed_zero.plcs.row(0).to_vec();
        signed_zero.plcs.row_mut(1).copy_from_slice(&plc);
        let col = plc.iter().position(|&v| v == 0.0).unwrap();
        signed_zero.plcs.row_mut(1)[col] = -0.0;
        let mut distinct = base.clone();
        for node in 0..distinct.node_count() {
            distinct.nodes.row_mut(node)[0] += node as f32 * 1e-3;
        }
        vec![all_equal, host_as_server, signed_zero, distinct]
    }
}
