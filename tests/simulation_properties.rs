//! Property-based tests of the simulator's invariants under arbitrary
//! defender behaviour, plus cross-crate properties of the action space and
//! the DBN filter.

use acso_core::ActionSpace;
use dbn::learn::{learn_model, LearnConfig};
use dbn::DbnFilter;
use ics_net::{NodeId, Topology, TopologySpec};
use ics_sim::{IcsEnvironment, SimConfig};
use proptest::prelude::*;

/// Strategy: an arbitrary sequence of flat action indices for the tiny
/// topology's action space.
fn action_sequence(space_len: usize) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0..space_len, 1..60)
}

fn tiny_space() -> (SimConfig, ActionSpace) {
    let sim = SimConfig::tiny().with_max_time(80);
    let topo = Topology::build(&sim.topology).unwrap();
    let space = ActionSpace::new(&topo);
    (sim, space)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the defender does, the simulator's counters stay within their
    /// physical bounds and rewards stay finite.
    #[test]
    fn environment_invariants_hold_under_arbitrary_defender_actions(
        seed in 0u64..500,
        actions in action_sequence(tiny_space().1.len()),
    ) {
        let (sim, space) = tiny_space();
        let mut env = IcsEnvironment::new(sim.with_seed(seed));
        let _ = env.reset();
        let node_count = env.topology().node_count();
        let plc_count = env.topology().plc_count();

        for idx in actions {
            let action = space.decode(idx);
            let step = env.step(&[action]);
            prop_assert!(step.reward.is_finite());
            prop_assert!(step.shaping_reward.is_finite());
            prop_assert!(step.it_cost >= 0.0);
            prop_assert!(step.info.nodes_compromised <= node_count);
            prop_assert!(step.info.plcs_offline <= plc_count);
            prop_assert_eq!(step.observation.nodes.len(), node_count);
            prop_assert_eq!(step.observation.plc_status.len(), plc_count);
            // Alert counts in the observation only refer to real nodes.
            for alert in &step.observation.alerts {
                if let ics_sim::AlertSource::Node(node) = alert.source {
                    prop_assert!(node.index() < node_count);
                }
            }
        }
    }

    /// The flat action space is a bijection between indices and actions.
    #[test]
    fn action_space_round_trips(nodes in 1usize..40, plcs in 0usize..60) {
        let space = ActionSpace::from_counts(nodes, plcs);
        for index in 0..space.len() {
            let action = space.decode(index);
            prop_assert_eq!(space.encode(&action), index);
        }
    }

    /// Episode metrics are identical when the same seed and action sequence
    /// are replayed: the simulator is fully deterministic given its RNG seed.
    #[test]
    fn episodes_replay_deterministically(seed in 0u64..200) {
        let (sim, space) = tiny_space();
        let run = |seed: u64| {
            let mut env = IcsEnvironment::new(sim.clone().with_seed(seed));
            let _ = env.reset();
            let mut trace = Vec::new();
            for i in 0..40usize {
                let step = env.step(&[space.decode(i % space.len())]);
                trace.push((
                    step.info.nodes_compromised,
                    step.info.plcs_offline,
                    (step.reward * 1e9).round() as i64,
                ));
            }
            trace
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// DBN beliefs remain valid probability distributions no matter what the
    /// observation stream looks like.
    #[test]
    fn dbn_beliefs_stay_normalised(seed in 0u64..100) {
        let sim = SimConfig::tiny().with_max_time(60);
        let model = learn_model(&LearnConfig { episodes: 1, seed: 3, sim: sim.clone() });
        let mut env = IcsEnvironment::new(sim.with_seed(seed));
        let _ = env.reset();
        let mut filter = DbnFilter::new(model, env.topology().node_count());
        for _ in 0..60 {
            let step = env.step(&[ics_sim::DefenderAction::NoAction]);
            filter.update(&step.observation);
            for i in 0..filter.node_count() {
                let belief = filter.belief(NodeId::from_index(i));
                let sum: f64 = belief.iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-6, "belief not normalised: {sum}");
                prop_assert!(belief.iter().all(|p| *p >= 0.0 && *p <= 1.0 + 1e-9));
            }
            if step.done {
                break;
            }
        }
    }
}

#[test]
fn topology_paths_always_include_both_endpoints_switches() {
    // Structural sanity across every pair of VLANs in the full topology.
    let topo = Topology::build(&TopologySpec::paper_full()).unwrap();
    for a in topo.vlans() {
        for b in topo.vlans() {
            let path = topo.devices_between_vlans(a, b);
            assert!(!path.is_empty());
            let factor = topo.device_factor_between_vlans(a, b);
            assert!(factor >= 1.0);
            if a == b {
                assert_eq!(path.len(), 1);
            } else {
                assert!(path.len() >= 3);
            }
        }
    }
}
