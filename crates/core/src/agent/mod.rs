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
/// Implementations map a [`StateFeatures`] encoding to one value per flat
/// action (see [`crate::ActionSpace`]) and support backpropagation of a
/// gradient with respect to those values.
///
/// The interface is **batch-first**: [`QNetwork::q_values_batch`] is the
/// required inference path (action selection, double-DQN bootstrap, the
/// lockstep rollout engine), and the single-state [`QNetwork::q_values`] is
/// by default the batch-of-1 special case. Networks that support training
/// override `q_values` with a forward that caches intermediates for
/// [`QNetwork::backward`].
pub trait QNetwork: Send {
    /// Q-values for a batch of states: one `Vec` per state, each covering
    /// every flat action in action-space order.
    ///
    /// Two contracts every implementation upholds (pinned by tests):
    ///
    /// * state `i`'s values are **bit-identical** to a solo
    ///   [`QNetwork::q_values`] call on state `i` — padding states into a
    ///   batch never changes any individual answer, which is what lets the
    ///   batched rollout engine promise transcripts identical to the serial
    ///   engine;
    /// * the call is **inference-only**: no backward cache is written or
    ///   clobbered, so it may run between a cached `q_values` forward and
    ///   its [`QNetwork::backward`].
    ///
    /// Being inference-only also leaves an implementation free to skip
    /// repeated work the training forward must keep: [`AttentionQNet`]
    /// runs each state's distinct node rows once, with the same output
    /// bits (see its `q_values_batch_impl`).
    fn q_values_batch(&mut self, features: &[&StateFeatures]) -> Vec<Vec<f32>>;

    /// Q-values for every flat action of a single state, in action-space
    /// order. Trainable networks override this with a forward pass that
    /// caches intermediates for a subsequent [`QNetwork::backward`]; the
    /// default is the batch-of-1 special case of
    /// [`QNetwork::q_values_batch`] (inference-only, no backward cache).
    fn q_values(&mut self, features: &StateFeatures) -> Vec<f32> {
        self.q_values_batch(&[features])
            .pop()
            .expect("a batch of one state yields one Q-vector")
    }

    /// Backpropagates a gradient with respect to the Q-values returned by the
    /// most recent [`QNetwork::q_values`] call, accumulating parameter
    /// gradients.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before [`QNetwork::q_values`] or
    /// with a gradient of the wrong length.
    fn backward(&mut self, grad_q: &[f32]);

    /// The training-mode batched forward: Q-values for a whole minibatch in
    /// one stacked pass, caching batch-shaped intermediates for a subsequent
    /// [`QNetwork::backward_batch`].
    ///
    /// State `i`'s values are **bit-identical** to a solo
    /// [`QNetwork::q_values`] call on state `i` (the same contract as
    /// [`QNetwork::q_values_batch`]), but unlike the inference path this
    /// call *does* overwrite the training cache. The layers hold one cache
    /// each, shared with the solo [`QNetwork::q_values`], so this call
    /// replaces a loop of cached solo forwards and must not interleave with
    /// one. What it caches is up to the network: it may keep a stage's
    /// inputs instead of its intermediates and let the backward re-run that
    /// stage on the rows the gradient reaches, as the attention net does for
    /// its output heads.
    fn q_values_batch_train(&mut self, features: &[&StateFeatures]) -> Vec<Vec<f32>>;

    /// Backpropagates one gradient row per state of the most recent
    /// [`QNetwork::q_values_batch_train`] call (a `[batch, action-space]`
    /// matrix), accumulating parameter gradients summed over the minibatch.
    ///
    /// Gradient accumulation is bit-identical to running solo
    /// `q_values`/`backward` per state in row order, on every kernel
    /// backend — the property that makes the batched DQN update reproduce
    /// serial-update training exactly (pinned by `tests/train_determinism.rs`
    /// on the reference backend, and on every backend by
    /// `tests/backend_equivalence.rs` for the attention net and by the
    /// agent's unit tests for both nets). An implementation may skip rows
    /// whose gradient is zero as long as skipping changes no gradient bit:
    /// the DQN loss reaches one Q-value per state.
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

/// Shared fixture for the Q-network batching tests: distinct decision-point
/// states from one undefended episode (beliefs and alerts evolve), so
/// batched-vs-solo comparisons run over non-identical inputs.
#[cfg(test)]
pub(crate) mod test_states {
    use crate::actions::ActionSpace;
    use crate::features::{NodeFeatureEncoder, StateFeatures};
    use dbn::learn::{learn_model, LearnConfig};
    use dbn::DbnFilter;
    use ics_sim::{DefenderAction, IcsEnvironment, SimConfig};

    pub(crate) fn episode_states(count: usize, seed: u64) -> (Vec<StateFeatures>, ActionSpace) {
        let sim = SimConfig::tiny().with_max_time(200).with_seed(seed);
        let model = learn_model(&LearnConfig {
            episodes: 1,
            seed,
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
            for _ in 0..3 {
                obs = env.step(&[DefenderAction::NoAction]).observation;
            }
        }
        (states, space)
    }
}
