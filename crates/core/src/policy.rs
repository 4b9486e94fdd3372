//! The defender policy interface shared by the ACSO agent and every baseline.

use crate::rollout::BatchPolicy;
use ics_net::Topology;
use ics_sim::{DefenderAction, Observation};
use rand::rngs::StdRng;

/// A defender decision policy.
///
/// Policies are called once per simulated hour with the latest observation
/// and may return any number of actions to submit this step (the learned
/// agent returns at most one; the playbook may run several courses of action
/// in parallel).
pub trait DefenderPolicy: Send {
    /// A short name used in result tables ("ACSO", "Playbook", ...).
    fn name(&self) -> &str;

    /// Resets internal state at the start of an episode.
    fn reset(&mut self, topology: &Topology);

    /// Chooses the actions to submit for this hour.
    fn decide(
        &mut self,
        observation: &Observation,
        topology: &Topology,
        rng: &mut StdRng,
    ) -> Vec<DefenderAction>;

    /// Upgrades a policy of this kind into a [`BatchPolicy`] managing
    /// `lanes` lockstep episode lanes, when the policy supports batched
    /// inference. `self` acts as the prototype (the returned policy must
    /// decide exactly like `lanes` independent copies of it); on the default
    /// `None` the engine runs the prototype itself as lane 0 of per-lane
    /// serial instances ([`crate::rollout::PerLanePolicies`]).
    fn make_batch_policy(&self, lanes: usize) -> Option<Box<dyn BatchPolicy>> {
        let _ = lanes;
        None
    }
}

/// A defender that never acts. Useful as a lower bound on IT cost and an
/// upper bound on attack success.
#[derive(Debug, Default, Clone)]
pub struct NullPolicy;

impl NullPolicy {
    /// Creates the do-nothing policy.
    pub fn new() -> Self {
        Self
    }
}

impl DefenderPolicy for NullPolicy {
    fn name(&self) -> &str {
        "No defense"
    }

    fn reset(&mut self, _topology: &Topology) {}

    fn decide(
        &mut self,
        _observation: &Observation,
        _topology: &Topology,
        _rng: &mut StdRng,
    ) -> Vec<DefenderAction> {
        vec![DefenderAction::NoAction]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ics_net::TopologySpec;
    use rand::SeedableRng;

    #[test]
    fn null_policy_never_acts() {
        let topo = Topology::build(&TopologySpec::tiny()).unwrap();
        let mut policy = NullPolicy::new();
        policy.reset(&topo);
        assert_eq!(policy.name(), "No defense");
        let obs = Observation {
            time: 0,
            nodes: Vec::new(),
            plc_status: Vec::new(),
            alerts: Vec::new(),
            active_nodes: Vec::new(),
        };
        let mut rng = StdRng::seed_from_u64(0);
        let actions = policy.decide(&obs, &topo, &mut rng);
        assert_eq!(actions, vec![DefenderAction::NoAction]);
    }

    #[test]
    fn policy_trait_is_object_safe() {
        let _: Box<dyn DefenderPolicy> = Box::new(NullPolicy::new());
    }
}
