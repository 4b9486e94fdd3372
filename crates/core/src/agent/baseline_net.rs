//! The baseline Q-network used for the architecture comparison (Table 7).
//!
//! The paper's baseline is a 1-D convolutional network over the observation
//! history whose flattened input (and therefore parameter count) grows with
//! the number of nodes on the network. This reproduction feeds both
//! architectures the DBN belief state (which already summarises history), so
//! the baseline is realised as a fully-connected network over the flattened
//! per-node features — preserving the property under comparison: its
//! parameter count scales linearly with the size of the network, unlike the
//! attention architecture.

use crate::actions::ActionSpace;
use crate::agent::QNetwork;
#[cfg(test)]
use crate::agent::SoloQNetwork;
use crate::features::{StateFeatures, NODE_FEATURE_DIM, PLC_FEATURE_DIM, PLC_SUMMARY_DIM};
use neural::layers::{Activation, Dense};
use neural::{Batch, Layer, Matrix, Param, Scratch};

const HIDDEN1: usize = 256;
const HIDDEN2: usize = 128;

/// The flattened fully-connected baseline Q-network.
#[derive(Debug, Clone)]
pub struct BaselineConvQNet {
    action_space: ActionSpace,
    input_dim: usize,
    fc1: Dense,
    act1: Activation,
    fc2: Dense,
    act2: Activation,
    fc3: Dense,
    out: Activation,
    scratch: Scratch,
}

impl BaselineConvQNet {
    /// Builds the baseline network for a fixed topology size.
    pub fn new(action_space: ActionSpace, seed: u64) -> Self {
        let input_dim = action_space.node_count() * NODE_FEATURE_DIM
            + action_space.plc_count() * PLC_FEATURE_DIM
            + PLC_SUMMARY_DIM;
        Self {
            fc1: Dense::new(input_dim, HIDDEN1, seed.wrapping_add(1)),
            act1: Activation::leaky_relu(),
            fc2: Dense::new(HIDDEN1, HIDDEN2, seed.wrapping_add(2)),
            act2: Activation::leaky_relu(),
            fc3: Dense::new(HIDDEN2, action_space.len(), seed.wrapping_add(3)),
            out: Activation::tanh(),
            input_dim,
            action_space,
            scratch: Scratch::new(),
        }
    }

    /// The flattened input dimension (grows with the network size).
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// The action space the output covers.
    pub fn action_space(&self) -> &ActionSpace {
        &self.action_space
    }

    /// Pins every subsequent pass of this network to a specific kernel
    /// backend by swapping the internal scratch pool (see
    /// [`neural::backend`]). The default is the process-wide backend.
    pub fn set_kernel_backend(&mut self, backend: neural::backend::BackendRef) {
        self.scratch = Scratch::with_backend(backend);
    }

    /// The kernel backend this network's passes dispatch to.
    pub fn kernel_backend(&self) -> neural::backend::BackendRef {
        self.scratch.backend()
    }

    /// Writes one state's flattened features into row `row` of `out`.
    fn flatten_into(&self, features: &StateFeatures, out: &mut Matrix, row: usize) {
        let dst = out.row_mut(row);
        let mut at = 0;
        for src in [
            features.nodes.data(),
            features.plcs.data(),
            features.plc_summary.data(),
        ] {
            dst[at..at + src.len()].copy_from_slice(src);
            at += src.len();
        }
        dst[at..].fill(0.0);
    }

    /// Shared core of [`QNetwork::q_values_batch`] (`train = false`:
    /// inference, no cache touched) and [`QNetwork::q_values_batch_train`]
    /// (`train = true`: every layer writes its batch cache). All states are
    /// flattened into one `[batch, input_dim]` matrix, one single-row item
    /// per state, and pushed through one layer chain: 64 states cost one
    /// matmul chain rather than 64 single-row passes. Every layer is
    /// row-wise, so each state's values are bit-identical to a one-state
    /// batch.
    ///
    /// # Panics
    ///
    /// Panics if any state's flattened width does not exactly fill the
    /// network's fixed input (the flattened baseline is built for one
    /// topology; silently zero-padding a smaller state would produce
    /// plausible-looking Q-values for the wrong action space).
    fn q_values_batch_impl(&mut self, features: &[&StateFeatures], train: bool) -> Vec<Vec<f32>> {
        if features.is_empty() {
            return Vec::new();
        }
        for f in features {
            let flattened = f.nodes.len() + f.plcs.len() + f.plc_summary.len();
            assert_eq!(
                flattened, self.input_dim,
                "batched states must match the network's topology"
            );
        }
        let mut x = Batch::take(&mut self.scratch, features.len(), 1, self.input_dim);
        for (row, f) in features.iter().enumerate() {
            self.flatten_into(f, x.matrix_mut(), row);
        }
        let s = &mut self.scratch;
        let layers: [&mut dyn Layer; 6] = [
            &mut self.fc1,
            &mut self.act1,
            &mut self.fc2,
            &mut self.act2,
            &mut self.fc3,
            &mut self.out,
        ];
        for layer in layers {
            let y = if train {
                layer.forward_batch_train(&x, s)
            } else {
                layer.forward_batch(&x, s)
            };
            s.recycle(std::mem::replace(&mut x, y).into_matrix());
        }
        let out = (0..features.len())
            .map(|i| x.matrix().row(i).to_vec())
            .collect();
        s.recycle(x.into_matrix());
        out
    }
}

impl QNetwork for BaselineConvQNet {
    /// Batched inference through the layers' `forward_batch` path (see
    /// `q_values_batch_impl`): each state's values are bit-identical to a
    /// one-state batch and the training cache is left untouched.
    fn q_values_batch(&mut self, features: &[&StateFeatures]) -> Vec<Vec<f32>> {
        self.q_values_batch_impl(features, false)
    }

    /// The batched training forward: the same chain as
    /// [`BaselineConvQNet::q_values_batch`], every layer writing the batch
    /// cache [`BaselineConvQNet::backward_batch`] consumes.
    fn q_values_batch_train(&mut self, features: &[&StateFeatures]) -> Vec<Vec<f32>> {
        self.q_values_batch_impl(features, true)
    }

    /// One stacked backward per layer for the whole minibatch, each state a
    /// single-row item of the layers' `backward_batch`. The dense layers
    /// flush their weight gradients once per item, so the sums are the
    /// per-state loop's bit for bit on every backend; one stacked chain
    /// over all rows would round differently under fused multiply-adds.
    fn backward_batch(&mut self, grad_q: &Matrix) {
        assert_eq!(
            grad_q.cols(),
            self.action_space.len(),
            "gradient width mismatch"
        );
        let s = &mut self.scratch;
        let mut grad = Batch::new(s.take_copy(grad_q), grad_q.rows());
        let layers: [&mut dyn Layer; 6] = [
            &mut self.out,
            &mut self.fc3,
            &mut self.act2,
            &mut self.fc2,
            &mut self.act1,
            &mut self.fc1,
        ];
        for layer in layers {
            let g = layer.backward_batch(&grad, s);
            s.recycle(std::mem::replace(&mut grad, g).into_matrix());
        }
        s.recycle(grad.into_matrix());
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = Vec::new();
        params.extend(self.fc1.params_mut());
        params.extend(self.fc2.params_mut());
        params.extend(self.fc3.params_mut());
        params
    }
}

#[cfg(test)]
impl SoloQNetwork for BaselineConvQNet {
    /// Cached single-state forward: the training pass on a one-state batch,
    /// whose cache feeds [`SoloQNetwork::backward`].
    fn q_values(&mut self, features: &StateFeatures) -> Vec<f32> {
        self.q_values_batch_impl(&[features], true)
            .pop()
            .expect("a batch of one state yields one Q-vector")
    }

    fn backward(&mut self, grad_q: &[f32]) {
        assert_eq!(
            grad_q.len(),
            self.action_space.len(),
            "gradient length mismatch"
        );
        let mut grad = self.scratch.take_for_overwrite(1, grad_q.len());
        grad.row_mut(0).copy_from_slice(grad_q);
        self.backward_batch(&grad);
        self.scratch.recycle(grad);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::AttentionQNet;
    use crate::features::NodeFeatureEncoder;
    use dbn::learn::{learn_model, LearnConfig};
    use dbn::DbnFilter;
    use ics_net::TopologySpec;
    use ics_sim::{IcsEnvironment, SimConfig};

    fn features_for(spec: &TopologySpec, seed: u64) -> (StateFeatures, ActionSpace) {
        let sim = SimConfig {
            topology: spec.clone(),
            ..SimConfig::tiny()
        }
        .with_max_time(60)
        .with_seed(seed);
        let model = learn_model(&LearnConfig {
            episodes: 1,
            seed,
            sim: sim.clone(),
        });
        let mut env = IcsEnvironment::new(sim);
        let obs = env.reset();
        let encoder = NodeFeatureEncoder::new(env.topology());
        let filter = DbnFilter::new(model, env.topology().node_count());
        let space = ActionSpace::new(env.topology());
        (encoder.encode(&obs, &filter), space)
    }

    #[test]
    fn outputs_cover_action_space() {
        let (features, space) = features_for(&TopologySpec::tiny(), 1);
        let mut net = BaselineConvQNet::new(space.clone(), 0);
        let q = net.q_values(&features);
        assert_eq!(q.len(), space.len());
        assert!(q.iter().all(|v| v.abs() <= 1.0));
        assert_eq!(net.action_space().len(), space.len());
    }

    #[test]
    fn parameter_count_grows_with_network_size_unlike_attention() {
        let (_, small_space) = features_for(&TopologySpec::tiny(), 2);
        let (_, large_space) = features_for(&TopologySpec::paper_small(), 3);
        let mut small = BaselineConvQNet::new(small_space.clone(), 0);
        let mut large = BaselineConvQNet::new(large_space.clone(), 0);
        assert!(large.parameter_count() > small.parameter_count());
        assert!(large.input_dim() > small.input_dim());

        // The attention architecture stays constant over the same change —
        // the comparison Table 7 is making.
        let mut attn_small = AttentionQNet::new(small_space, 0);
        let mut attn_large = AttentionQNet::new(large_space, 0);
        assert_eq!(attn_small.parameter_count(), attn_large.parameter_count());
    }

    #[test]
    fn batched_q_values_are_bit_identical_to_solo_forwards() {
        let (states, space) = crate::agent::test_states::episode_states(8, 9);
        let mut net = BaselineConvQNet::new(space, 4);
        let solo: Vec<Vec<f32>> = states.iter().map(|f| net.q_values(f)).collect();
        let refs: Vec<&StateFeatures> = states.iter().collect();
        let batched = net.q_values_batch(&refs);
        assert_eq!(solo, batched, "batched Q-values diverged from solo");
        assert!(solo.windows(2).any(|w| w[0] != w[1]));
        assert!(net.q_values_batch(&[]).is_empty());
    }

    #[test]
    fn gradients_flow_through_backward() {
        let (features, space) = features_for(&TopologySpec::tiny(), 4);
        let mut net = BaselineConvQNet::new(space, 5);
        let q = net.q_values(&features);
        let mut grad = vec![0.0; q.len()];
        grad[1] = 1.0;
        net.zero_grad();
        net.backward(&grad);
        let total: f32 = net.params_mut().iter().map(|p| p.grad.norm()).sum();
        assert!(total > 0.0);
    }
}
