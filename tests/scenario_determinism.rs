//! Determinism contract of the scenario subsystem.
//!
//! A scenario identifier is the *complete* description of a workload: the
//! same `u64` must reproduce the same topology, the same attacker
//! parameters, and — through the rollout engine — bit-identical episode
//! transcripts, at any worker-thread count. (The companion
//! `scenario_golden.rs` pins the paper presets against pre-refactor golden
//! fixtures.)

use acso_core::baselines::PlaybookPolicy;
use acso_core::rollout::{self, rollout_serial, RolloutPlan, SyncBatchEngine};
use acso_core::scenario::ScenarioRegistry;
use acso_core::DefenderPolicy;
use ics_net::Topology;
use ics_sim::Scenario;

#[test]
fn from_seed_reproduces_topology_and_apt_params_exactly() {
    for seed in [0u64, 7, 0xDEAD_BEEF, u64::MAX] {
        let a = Scenario::from_seed(seed);
        let b = Scenario::from_seed(seed);
        assert_eq!(a, b, "seed {seed}");
        // The built topologies are structurally identical, not just the
        // specs.
        let ta = Topology::build(&a.config.topology).unwrap();
        let tb = Topology::build(&b.config.topology).unwrap();
        assert_eq!(ta.node_count(), tb.node_count());
        for (na, nb) in ta.nodes().zip(tb.nodes()) {
            assert_eq!(na, nb);
            assert_eq!(ta.ip_of(na.id), tb.ip_of(nb.id));
        }
        for (pa, pb) in ta.plc_ids().zip(tb.plc_ids()) {
            assert_eq!(ta.plc_ip(pa), tb.plc_ip(pb));
        }
        assert_eq!(a.config.apt, b.config.apt);
        assert_eq!(a.config.ids, b.config.ids);
    }
}

#[test]
fn from_seed_reproduces_episode_transcripts_exactly() {
    let seed = 41u64;
    let run = || {
        let scenario = Scenario::from_seed(seed);
        let sim = scenario.config.clone().with_max_time(120);
        let mut policy = PlaybookPolicy::new();
        (0..3)
            .map(|episode| rollout::run_episode(&mut policy, &sim, scenario.config.seed, episode))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn generated_scenarios_are_thread_count_independent() {
    let scenario = Scenario::from_seed(13);
    let sim = scenario.config.clone().with_max_time(100);
    let serial_plan = RolloutPlan::new(sim.clone(), 6, scenario.config.seed).with_threads(1);
    let parallel_plan = RolloutPlan::new(sim, 6, scenario.config.seed).with_threads(4);
    let serial = rollout_serial(&mut PlaybookPolicy::new(), &serial_plan);
    let parallel = SyncBatchEngine::new(1).rollout(&parallel_plan, &|| {
        Box::new(PlaybookPolicy::new()) as Box<dyn DefenderPolicy>
    });
    assert_eq!(serial, parallel);
}

#[test]
fn toml_round_trip_preserves_transcripts() {
    let scenario = Scenario::from_seed(23);
    let round_tripped = Scenario::from_toml(&scenario.to_toml()).unwrap();
    assert_eq!(round_tripped, scenario);
    let run = |s: &Scenario| {
        let sim = s.config.clone().with_max_time(80);
        rollout::run_episode(&mut PlaybookPolicy::new(), &sim, s.config.seed, 0)
    };
    assert_eq!(run(&scenario), run(&round_tripped));
}

#[test]
fn registry_scenarios_replay_deterministically() {
    // Every built-in scenario (including the multi-segment and insider
    // variants) produces identical metrics when replayed.
    let registry = ScenarioRegistry::builtin();
    for scenario in &registry {
        let sim = scenario.config.clone().with_max_time(60);
        let run = || rollout::run_episode(&mut PlaybookPolicy::new(), &sim, 5, 0);
        assert_eq!(run(), run(), "{}", scenario.name);
    }
}
