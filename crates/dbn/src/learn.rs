//! Learning the DBN's conditional probability tables from data.
//!
//! The paper runs 1 000 episodes with the APT and a defender taking random
//! actions, records states, actions and observations at every step, and
//! estimates the probability tables by counting (§4.3). This module does the
//! same against the simulator; the number of episodes is configurable so fast
//! smoke runs and full reproductions share the code path.

use crate::cpt::{ObservationCpt, TransitionCpt};
use crate::filter::DbnModel;
use crate::types::{ActionCategory, MuBucket, ObsSymbol};
use ics_net::{NodeId, PlcId};
use ics_sim::orchestrator::{DefenderAction, InvestigationKind, MitigationKind, PlcRecoveryKind};
use ics_sim::{CompromiseClass, IcsEnvironment, SimConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the data-collection run.
#[derive(Debug, Clone, PartialEq)]
pub struct LearnConfig {
    /// Number of random-defender episodes to record (the paper uses 1 000).
    pub episodes: usize,
    /// Seed for the data-collection RNG.
    pub seed: u64,
    /// Simulation configuration to collect under.
    pub sim: SimConfig,
}

impl Default for LearnConfig {
    fn default() -> Self {
        Self {
            episodes: 1_000,
            seed: 0,
            sim: SimConfig::full(),
        }
    }
}

/// Samples a random defender action, mirroring the paper's random policy: an
/// action type drawn from a fixed categorical distribution and a target drawn
/// uniformly from the appropriate object set.
pub fn random_defender_action(
    node_count: usize,
    plc_count: usize,
    rng: &mut StdRng,
) -> DefenderAction {
    let node = NodeId::from_index(rng.gen_range(0..node_count.max(1)));
    match rng.gen_range(0..100u32) {
        // Half the time, do nothing — independent analysts are not constantly
        // acting on every node.
        0..=49 => DefenderAction::NoAction,
        50..=69 => DefenderAction::Investigate {
            kind: match rng.gen_range(0..3u32) {
                0 => InvestigationKind::SimpleScan,
                1 => InvestigationKind::AdvancedScan,
                _ => InvestigationKind::HumanAnalysis,
            },
            node,
        },
        70..=79 => DefenderAction::Mitigate {
            kind: MitigationKind::Reboot,
            node,
        },
        80..=86 => DefenderAction::Mitigate {
            kind: MitigationKind::ResetPassword,
            node,
        },
        87..=92 => DefenderAction::Mitigate {
            kind: MitigationKind::ReimageNode,
            node,
        },
        93..=95 => DefenderAction::Mitigate {
            kind: MitigationKind::Quarantine,
            node,
        },
        _ => {
            if plc_count == 0 {
                DefenderAction::NoAction
            } else {
                DefenderAction::RecoverPlc {
                    kind: if rng.gen_bool(0.5) {
                        PlcRecoveryKind::ResetPlc
                    } else {
                        PlcRecoveryKind::ReplacePlc
                    },
                    plc: PlcId::from_index(rng.gen_range(0..plc_count)),
                }
            }
        }
    }
}

/// Records one random-defender episode into a fresh pair of count tables.
///
/// All randomness derives from the episode index: the environment seed uses
/// the same hash as the historical serial collector, and the defender's
/// action RNG gets its own per-episode stream. That makes episodes
/// independent, so [`learn_model`] can fan them out over worker threads and
/// still produce a bit-identical model for any thread count.
fn collect_episode(config: &LearnConfig, episode: usize) -> (TransitionCpt, ObservationCpt) {
    let mut transition = TransitionCpt::new(0.5);
    let mut observation = ObservationCpt::new(0.5);
    let mut rng = StdRng::seed_from_u64(acso_runtime::stream_seed(config.seed, episode, 0x5eed));

    let sim = config.sim.clone().with_seed(
        config
            .sim
            .seed
            .wrapping_add(episode as u64)
            .wrapping_mul(2654435761),
    );
    let mut env = IcsEnvironment::new(sim);
    let _ = env.reset();
    let node_count = env.topology().node_count();
    let plc_count = env.topology().plc_count();

    let mut prev_classes: Vec<CompromiseClass> = (0..node_count)
        .map(|i| env.state().compromise(NodeId::from_index(i)).class())
        .collect();
    let mut prev_mu = MuBucket::from_count(env.state().compromised_count() as f64);

    loop {
        let actions = vec![random_defender_action(node_count, plc_count, &mut rng)];
        let step = env.step(&actions);

        for (idx, prev_class) in prev_classes.iter_mut().enumerate() {
            let node = NodeId::from_index(idx);
            let next_class = env.state().compromise(node).class();
            let node_obs = &step.observation.nodes[idx];
            let action = ActionCategory::from_observation(node_obs);
            let symbol = ObsSymbol::from_observation(node_obs);
            transition.record(*prev_class, prev_mu, action, next_class);
            observation.record(next_class, action, symbol);
            *prev_class = next_class;
        }
        prev_mu = MuBucket::from_count(env.state().compromised_count() as f64);

        if step.done {
            break;
        }
    }
    (transition, observation)
}

/// Runs random-defender episodes against the simulator and estimates the
/// transition and observation tables by counting.
///
/// Episodes are independent and fan out over `ACSO_THREADS` workers (default:
/// available parallelism; one, inline, when the caller is itself a
/// fan-out's worker, such as a grid-search cell); per-episode count shards
/// are merged in episode order, so the learned model is identical for any
/// thread count.
pub fn learn_model(config: &LearnConfig) -> DbnModel {
    let threads = acso_runtime::available_threads();
    let shards = acso_runtime::run_indexed(config.episodes, threads, |episode| {
        collect_episode(config, episode)
    });

    let mut transition = TransitionCpt::new(0.5);
    let mut observation = ObservationCpt::new(0.5);
    for (t, o) in &shards {
        transition.merge(t);
        observation.merge(o);
    }
    DbnModel {
        transition,
        observation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_actions_cover_the_action_space() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut saw_investigate = false;
        let mut saw_mitigate = false;
        let mut saw_plc = false;
        let mut saw_noop = false;
        for _ in 0..500 {
            match random_defender_action(10, 5, &mut rng) {
                DefenderAction::NoAction => saw_noop = true,
                DefenderAction::Investigate { .. } => saw_investigate = true,
                DefenderAction::Mitigate { .. } => saw_mitigate = true,
                DefenderAction::RecoverPlc { .. } => saw_plc = true,
            }
        }
        assert!(saw_noop && saw_investigate && saw_mitigate && saw_plc);
    }

    #[test]
    fn random_actions_handle_zero_plcs() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let action = random_defender_action(4, 0, &mut rng);
            assert!(action.target_plc().is_none());
        }
    }

    #[test]
    fn learned_model_distinguishes_quiet_and_compromised_nodes() {
        let config = LearnConfig {
            episodes: 4,
            seed: 7,
            sim: SimConfig::tiny().with_max_time(250),
        };
        let model = learn_model(&config);
        assert!(model.transition.total_observations() > 0.0);
        assert!(model.observation.total_observations() > 0.0);

        // Clean states should self-persist with high probability under no
        // defender action.
        let p_stay_clean = model.transition.prob(
            CompromiseClass::Clean,
            MuBucket::Few,
            ActionCategory::None,
            CompromiseClass::Clean,
        );
        assert!(
            p_stay_clean > 0.5,
            "clean self-transition was {p_stay_clean}"
        );

        // Quiet observations should be more likely from clean nodes than
        // severity-2 alerts are.
        let quiet = ObsSymbol::from_index(0);
        let sev2 = ObsSymbol::from_index(4);
        let p_quiet_clean =
            model
                .observation
                .prob(CompromiseClass::Clean, ActionCategory::None, quiet);
        let p_sev2_clean =
            model
                .observation
                .prob(CompromiseClass::Clean, ActionCategory::None, sev2);
        assert!(p_quiet_clean > p_sev2_clean);
    }
}
