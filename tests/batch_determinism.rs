//! The batched engine's core guarantee, pinned across the whole scenario
//! registry: for **every built-in scenario** and **all four policy
//! families** (trained neural agent, DBN expert, playbook, semi-random),
//! the step-synchronized [`SyncBatchEngine`] produces per-episode
//! transcripts bit-identical to the serial engine, for any lane count and
//! any worker-thread count.
//!
//! Thread and lane counts are passed explicitly (no environment variables),
//! so the matrix here composes with whatever `ACSO_THREADS`/`ACSO_BATCH`
//! the surrounding CI job sets. The routing test at the end goes through the
//! evaluation pipeline under those variables, and the `batch-determinism`
//! CI step exercises them end to end through the `table2` binary.

use acso_core::agent::{AcsoAgent, AgentConfig, AttentionQNet};
use acso_core::baselines::{DbnExpertPolicy, PlaybookPolicy, SemiRandomPolicy};
use acso_core::eval::{evaluate_factory_detailed, evaluate_policy_detailed, EvalConfig};
use acso_core::rollout::{rollout_serial, RolloutPlan, SyncBatchEngine};
use acso_core::train::{train_attention_acso, TrainConfig};
use acso_core::{ActionSpace, DefenderPolicy, ScenarioRegistry};
use dbn::learn::{learn_model, LearnConfig};
use ics_sim::metrics::EpisodeMetrics;
use ics_sim::{IcsEnvironment, SimConfig};

const EPISODES: usize = 4;
const MAX_TIME: u64 = 50;

/// (lanes, threads) pairs exercised for every scenario × policy cell:
/// single-lane batches (the engine itself must be transcript-neutral) and
/// multi-lane batches wider than the episode count (one lockstep batch
/// covering everything), across serial and parallel workers. Ragged-tail
/// lane splits are covered by the engine's own unit tests.
const ENGINE_MATRIX: &[(usize, usize)] = &[(1, 1), (16, 4)];

fn plan(sim: &SimConfig, threads: usize) -> RolloutPlan {
    RolloutPlan {
        sim: sim.clone(),
        episodes: EPISODES,
        seed: 29,
        threads,
    }
}

/// Asserts serial-vs-batched equality for one policy factory on one
/// scenario's simulator.
fn assert_engine_matrix<F>(scenario: &str, policy: &str, sim: &SimConfig, make: F)
where
    F: Fn() -> Box<dyn DefenderPolicy> + Sync,
{
    let mut serial_policy = make();
    let serial: Vec<EpisodeMetrics> = rollout_serial(serial_policy.as_mut(), &plan(sim, 1));
    for &(lanes, threads) in ENGINE_MATRIX {
        let batched = SyncBatchEngine::new(lanes).rollout(&plan(sim, threads), &make);
        assert_eq!(
            serial, batched,
            "{scenario}/{policy}: lanes={lanes} threads={threads} diverged from serial"
        );
    }
}

#[test]
fn batched_transcripts_match_serial_for_every_scenario_and_policy() {
    let mut registry = ScenarioRegistry::builtin();
    // The engine matrix trains a per-scenario agent; extra-large scenarios
    // (tag "xl", ~1000 hosts) are covered by their own bounded tests.
    registry.retain_standard();
    assert!(
        registry.len() >= 11,
        "registry shrank to {} scenarios",
        registry.len()
    );
    for scenario in &registry {
        let sim = scenario.config.clone().with_max_time(MAX_TIME);

        // Train this scenario's own agent and DBN filter (smoke scale): the
        // agent's action space and beliefs must match the scenario topology.
        let trained = train_attention_acso(&TrainConfig {
            sim: sim.clone(),
            agent: acso_core::agent::AgentConfig::smoke(),
            episodes: 1,
            dbn_episodes: 2,
            seed: 0,
        });
        let mut agent = trained.agent;
        agent.set_explore(false);
        let model = trained.dbn_model;

        assert_engine_matrix(&scenario.name, "ACSO", &sim, || {
            Box::new(agent.eval_clone()) as Box<dyn DefenderPolicy>
        });
        assert_engine_matrix(&scenario.name, "DBN Expert", &sim, {
            let model = model.clone();
            move || Box::new(DbnExpertPolicy::new(model.clone())) as Box<dyn DefenderPolicy>
        });
        assert_engine_matrix(&scenario.name, "Playbook", &sim, || {
            Box::new(PlaybookPolicy::new()) as Box<dyn DefenderPolicy>
        });
        assert_engine_matrix(&scenario.name, "Semi Random", &sim, || {
            Box::new(SemiRandomPolicy::new()) as Box<dyn DefenderPolicy>
        });
    }
}

/// The ~1000-host `registry-1000` scenario with the ACSO defender, whose
/// Q-network groups each state's repeated node rows at inference: lockstep
/// batches whose states carry different group counts (each padded to the
/// batch's largest) must keep every transcript bit-identical to the serial
/// engine. The property is structural, so the network is untrained, and
/// 24 h episodes keep a debug-mode run short.
#[test]
fn xl_acso_lockstep_transcripts_match_serial() {
    let sim = ScenarioRegistry::builtin()
        .get("registry-1000")
        .expect("registry-1000 is built in")
        .config
        .clone()
        .with_max_time(24);
    let model = learn_model(&LearnConfig {
        episodes: 1,
        seed: 0,
        sim: sim.clone(),
    });
    let env = IcsEnvironment::new(sim.clone());
    let network = AttentionQNet::new(ActionSpace::new(env.topology()), 3);
    let mut agent = AcsoAgent::new(env.topology(), model, network, AgentConfig::smoke());
    agent.set_explore(false);
    assert_engine_matrix("registry-1000", "ACSO", &sim, || {
        Box::new(agent.eval_clone()) as Box<dyn DefenderPolicy>
    });
}

#[test]
fn env_routed_evaluation_matches_the_explicit_engines() {
    // The evaluation pipeline's autoscale plan, under whatever
    // `ACSO_BATCH`/`ACSO_THREADS` the job sets, picks a lane width and a
    // thread count, never a result: the factory entry point must match the
    // serial one for a stateful baseline and for a trained agent.
    let config = EvalConfig {
        sim: SimConfig::tiny().with_max_time(MAX_TIME),
        episodes: 2 * EPISODES + 1,
        seed: 29,
    };
    let serial = evaluate_policy_detailed(&mut PlaybookPolicy::new(), &config);
    let routed = evaluate_factory_detailed(|| Box::new(PlaybookPolicy::new()), &config);
    assert_eq!(serial, routed, "Playbook: the routed evaluation diverged");

    let trained = train_attention_acso(&TrainConfig::smoke(1).with_seed(4));
    let mut agent = trained.agent;
    agent.set_explore(false);
    let routed = evaluate_factory_detailed(|| Box::new(agent.eval_clone()), &config);
    let serial = evaluate_policy_detailed(&mut agent, &config);
    assert_eq!(serial, routed, "ACSO: the routed evaluation diverged");
}
