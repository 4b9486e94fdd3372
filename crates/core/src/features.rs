//! Feature encoding: from observations and beliefs to network inputs.
//!
//! Each node is described by a fixed-width feature vector (belief over
//! compromise classes, node type, quarantine flag, this hour's alert and
//! investigation signals); the PLC population is summarised by a short global
//! vector. The encoding is identical for the attention network and the
//! baseline convolutional network so architecture comparisons are fair.
//!
//! Every *per-instance* dimension (node rows, PLC rows, host/server head
//! routing) derives from the [`Topology`] the encoder was built for — never
//! from paper constants — so any registry or seed-generated scenario encodes
//! correctly. The fixed widths ([`NODE_FEATURE_DIM`], [`PLC_FEATURE_DIM`],
//! [`PLC_SUMMARY_DIM`]) are structural: compromise classes, node-type
//! one-hot, alert severities and PLC statuses do not vary across topologies.

use dbn::DbnFilter;
use ics_net::{NodeKind, Topology};
use ics_sim::observation::NodeObservation;
use ics_sim::{CompromiseClass, Observation, PlcStatus};
use neural::Matrix;
use serde::{Deserialize, Serialize};

/// Width of the per-node feature vector.
pub const NODE_FEATURE_DIM: usize = CompromiseClass::COUNT + 3 + 1 + 3 + 1;
/// First node-type one-hot column.
const TYPE_COL: usize = CompromiseClass::COUNT;
/// Quarantine flag column.
const QUARANTINE_COL: usize = TYPE_COL + 3;
/// First alert-count column.
const ALERT_COL: usize = QUARANTINE_COL + 1;
/// Investigation-detection column.
const DETECTION_COL: usize = ALERT_COL + 3;
/// Width of the global PLC summary vector.
pub const PLC_SUMMARY_DIM: usize = 3;
/// Width of the per-PLC feature vector (status one-hot).
pub const PLC_FEATURE_DIM: usize = 3;

/// A fully-encoded state: everything the Q-networks consume for one decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateFeatures {
    /// Per-node features, one row per node (`[node_count, NODE_FEATURE_DIM]`).
    pub nodes: Matrix,
    /// Per-PLC status one-hots (`[plc_count, PLC_FEATURE_DIM]`).
    pub plcs: Matrix,
    /// Global PLC summary: fraction nominal, disrupted, destroyed.
    pub plc_summary: Matrix,
    /// Row indices of host nodes (workstations and HMIs).
    pub host_rows: Vec<usize>,
    /// Row indices of server nodes.
    pub server_rows: Vec<usize>,
}

impl StateFeatures {
    /// An empty placeholder whose buffers [`NodeFeatureEncoder::encode_into`]
    /// will size on first use.
    pub fn empty() -> Self {
        Self {
            nodes: Matrix::zeros(0, NODE_FEATURE_DIM),
            plcs: Matrix::zeros(0, PLC_FEATURE_DIM),
            plc_summary: Matrix::zeros(1, PLC_SUMMARY_DIM),
            host_rows: Vec::new(),
            server_rows: Vec::new(),
        }
    }

    /// Number of nodes in the encoded state.
    pub fn node_count(&self) -> usize {
        self.nodes.rows()
    }

    /// Number of PLCs in the encoded state.
    pub fn plc_count(&self) -> usize {
        self.plcs.rows()
    }
}

/// Encodes observations and beliefs into [`StateFeatures`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeFeatureEncoder {
    node_kinds: Vec<NodeKindClass>,
    /// Row indices of host nodes, precomputed once from the topology.
    host_rows: Vec<usize>,
    /// Row indices of server nodes, precomputed once from the topology.
    server_rows: Vec<usize>,
}

/// Step-to-step bookkeeping for [`NodeFeatureEncoder::encode_active_into`]:
/// which rows the previous encode wrote observation columns into, and at what
/// simulation hour. One scratch per (feature buffer, episode stream) pair.
#[derive(Debug, Clone, Default)]
pub struct EncodeScratch {
    last_time: Option<u64>,
    prev_active: Vec<usize>,
}

impl EncodeScratch {
    /// A fresh scratch with no carry-over (the first encode through it runs
    /// the dense path).
    pub fn new() -> Self {
        Self::default()
    }

    /// Breaks the step chain: the next encode through this scratch runs the
    /// dense path. Call at episode boundaries.
    pub fn invalidate(&mut self) {
        self.last_time = None;
        self.prev_active.clear();
    }
}

/// Coarse node classes used for the one-hot type encoding and the output-head
/// routing (hosts share one head, servers another).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum NodeKindClass {
    Workstation,
    Server,
    Hmi,
}

impl NodeFeatureEncoder {
    /// Builds an encoder for a topology.
    pub fn new(topology: &Topology) -> Self {
        let node_kinds: Vec<NodeKindClass> = topology
            .nodes()
            .map(|n| match n.kind {
                NodeKind::Workstation => NodeKindClass::Workstation,
                NodeKind::Server(_) => NodeKindClass::Server,
                NodeKind::Hmi => NodeKindClass::Hmi,
            })
            .collect();
        let mut host_rows = Vec::new();
        let mut server_rows = Vec::new();
        for (i, kind) in node_kinds.iter().enumerate() {
            match kind {
                NodeKindClass::Server => server_rows.push(i),
                NodeKindClass::Workstation | NodeKindClass::Hmi => host_rows.push(i),
            }
        }
        Self {
            node_kinds,
            host_rows,
            server_rows,
        }
    }

    /// Number of nodes the encoder covers.
    pub fn node_count(&self) -> usize {
        self.node_kinds.len()
    }

    /// Encodes one decision point from the current observation and the DBN
    /// filter's beliefs.
    pub fn encode(&self, observation: &Observation, filter: &DbnFilter) -> StateFeatures {
        let mut out = StateFeatures::empty();
        self.encode_into(observation, filter, &mut out);
        out
    }

    /// Encodes one decision point into a caller-owned [`StateFeatures`],
    /// reusing its buffers — the zero-allocation path for per-step action
    /// selection, where the previous encoding is dead the moment the next
    /// observation arrives.
    pub fn encode_into(
        &self,
        observation: &Observation,
        filter: &DbnFilter,
        out: &mut StateFeatures,
    ) {
        let n = self.node_kinds.len();
        if out.nodes.shape() != (n, NODE_FEATURE_DIM) {
            out.nodes = Matrix::zeros(n, NODE_FEATURE_DIM);
        } else {
            out.nodes.fill(0.0);
        }
        out.host_rows.clone_from(&self.host_rows);
        out.server_rows.clone_from(&self.server_rows);

        for (i, kind) in self.node_kinds.iter().enumerate() {
            let belief = filter.beliefs()[i];
            let obs = &observation.nodes[i];
            let row = out.nodes.row_mut(i);
            for (col, b) in belief.iter().enumerate() {
                row[col] = *b as f32;
            }
            // Node type one-hot.
            let type_index = match kind {
                NodeKindClass::Workstation => 0,
                NodeKindClass::Server => 1,
                NodeKindClass::Hmi => 2,
            };
            row[TYPE_COL + type_index] = 1.0;
            Self::write_obs_cols(row, obs);
        }

        Self::encode_plcs(observation, out);
    }

    /// Encodes one decision point reusing the previous step's encoding in
    /// `out`: belief columns are refreshed for every row (the DBN filter
    /// moves every belief every hour), but the observation-derived columns
    /// are rewritten only for rows active this hour or last — every other
    /// row is a quiet carry-over whose columns are already exact. Falls back
    /// to the dense [`NodeFeatureEncoder::encode_into`] whenever the scratch
    /// cannot prove `out` holds the previous hour of the same episode.
    /// Bit-identical to the dense encode in either case.
    pub fn encode_active_into(
        &self,
        observation: &Observation,
        filter: &DbnFilter,
        scratch: &mut EncodeScratch,
        out: &mut StateFeatures,
    ) {
        let n = self.node_kinds.len();
        let chain_valid = scratch.last_time.is_some()
            && scratch.last_time == observation.time.checked_sub(1)
            && out.nodes.shape() == (n, NODE_FEATURE_DIM)
            && out.host_rows.len() + out.server_rows.len() == n
            && observation.nodes.len() == n;
        if chain_valid {
            for i in 0..n {
                let belief = filter.beliefs()[i];
                let row = out.nodes.row_mut(i);
                for (col, b) in belief.iter().enumerate() {
                    row[col] = *b as f32;
                }
            }
            for &i in scratch.prev_active.iter().chain(&observation.active_nodes) {
                if i < n {
                    Self::write_obs_cols(out.nodes.row_mut(i), &observation.nodes[i]);
                }
            }
            Self::encode_plcs(observation, out);
        } else {
            self.encode_into(observation, filter, out);
        }
        scratch.last_time = Some(observation.time);
        scratch.prev_active.clone_from(&observation.active_nodes);
    }

    /// Writes the observation-derived columns (quarantine flag, alert
    /// counts, detection flag) of one node row.
    fn write_obs_cols(row: &mut [f32], obs: &NodeObservation) {
        row[QUARANTINE_COL] = if obs.quarantined { 1.0 } else { 0.0 };
        for (s, count) in obs.alert_counts.iter().enumerate() {
            row[ALERT_COL + s] = (*count as f32).min(5.0) / 5.0;
        }
        row[DETECTION_COL] = if obs.detection() { 1.0 } else { 0.0 };
    }

    /// Encodes the PLC one-hots and the global PLC summary (the PLC block is
    /// small and always encoded densely).
    fn encode_plcs(observation: &Observation, out: &mut StateFeatures) {
        let plc_count = observation.plc_status.len();
        if out.plcs.shape() != (plc_count, PLC_FEATURE_DIM) {
            out.plcs = Matrix::zeros(plc_count, PLC_FEATURE_DIM);
        } else {
            out.plcs.fill(0.0);
        }
        if out.plc_summary.shape() != (1, PLC_SUMMARY_DIM) {
            out.plc_summary = Matrix::zeros(1, PLC_SUMMARY_DIM);
        }
        let mut counts = [0usize; 3];
        for (i, status) in observation.plc_status.iter().enumerate() {
            let idx = match status {
                PlcStatus::Nominal => 0,
                PlcStatus::Disrupted => 1,
                PlcStatus::Destroyed => 2,
            };
            out.plcs.row_mut(i)[idx] = 1.0;
            counts[idx] += 1;
        }
        let denom = plc_count.max(1) as f32;
        let summary = out.plc_summary.row_mut(0);
        summary[0] = counts[0] as f32 / denom;
        summary[1] = counts[1] as f32 / denom;
        summary[2] = counts[2] as f32 / denom;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbn::learn::{learn_model, LearnConfig};
    use ics_net::TopologySpec;
    use ics_sim::{DefenderAction, IcsEnvironment, SimConfig};
    use proptest::prelude::*;

    fn fixture() -> (IcsEnvironment, NodeFeatureEncoder, DbnFilter) {
        let sim = SimConfig::tiny().with_max_time(100);
        let model = learn_model(&LearnConfig {
            episodes: 1,
            seed: 5,
            sim: sim.clone(),
        });
        let env = IcsEnvironment::new(sim.with_seed(3));
        let encoder = NodeFeatureEncoder::new(env.topology());
        let filter = DbnFilter::new(model, env.topology().node_count());
        (env, encoder, filter)
    }

    #[test]
    fn encoding_shapes_match_topology() {
        let (mut env, encoder, mut filter) = fixture();
        let obs = env.reset();
        filter.reset();
        let features = encoder.encode(&obs, &filter);
        assert_eq!(features.node_count(), env.topology().node_count());
        assert_eq!(features.plc_count(), env.topology().plc_count());
        assert_eq!(features.nodes.cols(), NODE_FEATURE_DIM);
        assert_eq!(features.plcs.cols(), PLC_FEATURE_DIM);
        assert_eq!(features.plc_summary.cols(), PLC_SUMMARY_DIM);
        assert_eq!(
            features.host_rows.len() + features.server_rows.len(),
            features.node_count()
        );
        assert_eq!(encoder.node_count(), env.topology().node_count());
    }

    #[test]
    fn encoding_adapts_to_generated_scenario_topologies() {
        use crate::ActionSpace;
        use ics_sim::Scenario;

        for seed in [3u64, 11] {
            let scenario = Scenario::from_seed(seed);
            let sim = scenario.config.clone().with_max_time(40);
            let mut env = ics_sim::IcsEnvironment::new(sim.clone());
            let obs = env.reset();
            let encoder = NodeFeatureEncoder::new(env.topology());
            let model = learn_model(&LearnConfig {
                episodes: 1,
                seed: 5,
                sim,
            });
            let filter = DbnFilter::new(model, env.topology().node_count());
            let features = encoder.encode(&obs, &filter);
            // Every dimension tracks the generated topology, not the paper
            // network.
            assert_eq!(features.node_count(), env.topology().node_count());
            assert_eq!(features.plc_count(), env.topology().plc_count());
            assert_eq!(
                features.host_rows.len(),
                env.topology().node_count() - env.topology().servers().count()
            );
            assert_eq!(features.server_rows.len(), env.topology().servers().count());
            let space = ActionSpace::new(env.topology());
            assert_eq!(
                space.len(),
                1 + crate::actions::ACTIONS_PER_NODE * env.topology().node_count()
                    + crate::actions::ACTIONS_PER_PLC * env.topology().plc_count()
            );
        }
    }

    #[test]
    fn active_row_encoding_matches_dense_encoding() {
        let (mut env, encoder, mut filter) = fixture();
        let _ = env.reset();
        filter.reset();
        let mut scratch = EncodeScratch::new();
        let mut sparse = StateFeatures::empty();
        let n = env.topology().node_count();
        for t in 0..60u64 {
            // Exercise quarantine toggles and investigations alongside the
            // alert stream.
            let mut actions = vec![DefenderAction::NoAction];
            if t % 6 == 0 {
                actions.push(DefenderAction::Mitigate {
                    kind: ics_sim::orchestrator::MitigationKind::Quarantine,
                    node: ics_net::NodeId::from_index((t as usize) % n),
                });
            }
            if t % 4 == 0 {
                actions.push(DefenderAction::Investigate {
                    kind: ics_sim::orchestrator::InvestigationKind::SimpleScan,
                    node: ics_net::NodeId::from_index((t as usize * 3) % n),
                });
            }
            let step = env.step(&actions);
            filter.update(&step.observation);
            encoder.encode_active_into(&step.observation, &filter, &mut scratch, &mut sparse);
            let dense = encoder.encode(&step.observation, &filter);
            assert_eq!(sparse, dense, "sparse encode diverged at t={t}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The sparse world model's feature half, over arbitrary topology
        /// shapes from tiny up to ~1200 hosts — beyond the 1003-host
        /// registry scenario, across multi-segment layouts where segment 0
        /// spills into overflow /24 subnets: active-node feature encoding of
        /// the sparse environment's observations is bit-identical to the
        /// dense encode of the same observation and beliefs at every step,
        /// while the defender churns quarantine and investigation actions
        /// across the fleet. (ics-sim's test of the same name checks those
        /// observations against the dense rebuild-everything reference.)
        #[test]
        fn sparse_and_dense_world_models_are_bit_identical(
            l2_workstations in 1usize..901,
            l1_hmis in 1usize..251,
            plcs in 1usize..121,
            l2_segments in 1usize..9,
            l1_segments in 1usize..9,
            seed in 0u64..100,
        ) {
            use ics_sim::orchestrator::{InvestigationKind, MitigationKind};

            let spec = TopologySpec {
                l2_workstations,
                l1_hmis,
                plcs,
                l2_segments,
                l1_segments,
                host_budget: 1_200,
                ..TopologySpec::paper_full()
            };
            prop_assert!(spec.validate().is_ok(), "generated spec must validate");
            let sim = SimConfig {
                topology: spec,
                ..SimConfig::small()
            }
            .with_max_time(40);
            let model = learn_model(&LearnConfig {
                episodes: 1,
                seed: 1,
                sim: sim.clone().with_max_time(10),
            });

            let mut env = IcsEnvironment::new(sim.with_seed(seed));
            let nodes = env.topology().node_count();
            let mut filter = DbnFilter::new(model, nodes);
            let encoder = NodeFeatureEncoder::new(env.topology());
            let mut scratch = EncodeScratch::new();
            let mut sparse_features = StateFeatures::empty();
            let _ = env.reset();
            filter.reset();

            for t in 0..40u64 {
                // Deterministic action churn touching nodes all over the
                // fleet: quarantines (VLAN moves), their eventual lifts, and
                // scans.
                let mut actions = vec![DefenderAction::NoAction];
                if t % 5 == 0 {
                    actions.push(DefenderAction::Mitigate {
                        kind: MitigationKind::Quarantine,
                        node: ics_net::NodeId::from_index((t as usize * 7) % nodes),
                    });
                }
                if t % 3 == 0 {
                    actions.push(DefenderAction::Investigate {
                        kind: InvestigationKind::SimpleScan,
                        node: ics_net::NodeId::from_index((t as usize * 11) % nodes),
                    });
                }
                let step = env.step(&actions);
                filter.update(&step.observation);
                encoder.encode_active_into(
                    &step.observation,
                    &filter,
                    &mut scratch,
                    &mut sparse_features,
                );
                let dense_features = encoder.encode(&step.observation, &filter);
                prop_assert_eq!(&sparse_features, &dense_features);
                if step.done {
                    break;
                }
            }
        }
    }

    #[test]
    fn plc_summary_reflects_status_fractions() {
        let (mut env, encoder, mut filter) = fixture();
        let obs = env.reset();
        filter.reset();
        let features = encoder.encode(&obs, &filter);
        // All PLCs start nominal.
        assert!((features.plc_summary.get(0, 0) - 1.0).abs() < 1e-6);
        assert_eq!(features.plc_summary.get(0, 1), 0.0);
        assert_eq!(features.plc_summary.get(0, 2), 0.0);
        // Each PLC row is a one-hot.
        for i in 0..features.plc_count() {
            let row_sum: f32 = features.plcs.row(i).iter().sum();
            assert!((row_sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn beliefs_flow_into_node_features() {
        let (mut env, encoder, mut filter) = fixture();
        let _ = env.reset();
        filter.reset();
        // Step a few hours so alerts and beliefs evolve.
        let mut obs = None;
        for _ in 0..30 {
            let step = env.step(&[DefenderAction::NoAction]);
            filter.update(&step.observation);
            obs = Some(step.observation);
        }
        let features = encoder.encode(&obs.unwrap(), &filter);
        // The first CompromiseClass::COUNT columns of each row are the belief
        // and must sum to one.
        for i in 0..features.node_count() {
            let belief_sum: f32 = features.nodes.row(i)[..CompromiseClass::COUNT].iter().sum();
            assert!(
                (belief_sum - 1.0).abs() < 1e-4,
                "row {i} belief sum {belief_sum}"
            );
        }
    }
}
