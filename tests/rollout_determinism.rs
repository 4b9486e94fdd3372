//! The rollout engine's core guarantee: fanning episodes over worker
//! threads produces **bit-identical** per-episode transcripts (metrics) to
//! running them serially, for stateless baselines, stateful
//! filter-carrying baselines, and the trained neural agent alike. The
//! engine runs at one lane here, one episode at a time per worker;
//! `batch_determinism.rs` covers wider batches.

use acso_core::baselines::{DbnExpertPolicy, PlaybookPolicy, SemiRandomPolicy};
use acso_core::rollout::{rollout_serial, RolloutPlan, SyncBatchEngine};
use acso_core::train::{train_attention_acso, TrainConfig};
use acso_core::DefenderPolicy;
use dbn::learn::{learn_model, LearnConfig};
use ics_sim::metrics::EpisodeMetrics;
use ics_sim::SimConfig;

/// The engine at one lane, building one policy per worker.
fn rollout<F>(plan: &RolloutPlan, make_policy: F) -> Vec<EpisodeMetrics>
where
    F: Fn() -> Box<dyn DefenderPolicy> + Sync,
{
    SyncBatchEngine::new(1).rollout(plan, &make_policy)
}

fn sixteen_episode_plan(threads: usize) -> RolloutPlan {
    RolloutPlan {
        sim: SimConfig::tiny().with_max_time(100),
        episodes: 16,
        seed: 33,
        threads,
    }
}

#[test]
fn parallel_rollout_matches_serial_for_baseline_policies() {
    let model = learn_model(&LearnConfig {
        episodes: 2,
        seed: 9,
        sim: SimConfig::tiny().with_max_time(100),
    });

    // Playbook: stateful course-of-action tracking across steps.
    let serial = rollout_serial(&mut PlaybookPolicy::new(), &sixteen_episode_plan(1));
    let parallel = rollout(&sixteen_episode_plan(4), || Box::new(PlaybookPolicy::new()));
    assert_eq!(serial, parallel, "playbook transcripts diverged");

    // DBN expert: carries a belief filter that must reset per episode.
    let serial = rollout_serial(
        &mut DbnExpertPolicy::new(model.clone()),
        &sixteen_episode_plan(1),
    );
    let parallel = rollout(&sixteen_episode_plan(3), {
        let model = model.clone();
        move || Box::new(DbnExpertPolicy::new(model.clone()))
    });
    assert_eq!(serial, parallel, "DBN expert transcripts diverged");

    // Semi-random: consumes the per-episode policy RNG stream heavily.
    let serial = rollout_serial(&mut SemiRandomPolicy::new(), &sixteen_episode_plan(1));
    let parallel = rollout(&sixteen_episode_plan(5), {
        || Box::new(SemiRandomPolicy::new())
    });
    assert_eq!(serial, parallel, "semi-random transcripts diverged");
}

#[test]
fn parallel_rollout_matches_serial_for_the_trained_agent() {
    // A short smoke training, then greedy evaluation: the cloned-per-worker
    // agents must decide exactly like one serially-reused agent.
    let trained = train_attention_acso(&TrainConfig::smoke(1).with_seed(8));
    let mut agent = trained.agent;
    agent.set_explore(false);

    let plan = |threads| RolloutPlan {
        sim: SimConfig::tiny().with_max_time(80),
        episodes: 8,
        seed: 5,
        threads,
    };
    let serial = rollout_serial(&mut agent, &plan(1));
    let parallel = rollout(&plan(4), || Box::new(agent.clone()));
    assert_eq!(serial, parallel, "trained-agent transcripts diverged");

    // The experiment pipeline hands workers `eval_clone()` copies (no replay
    // history); they must decide exactly like the fully-cloned agent.
    let eval_parallel = rollout(&plan(4), || Box::new(agent.eval_clone()));
    assert_eq!(serial, eval_parallel, "eval_clone transcripts diverged");
}

#[test]
fn dbn_learning_is_thread_count_independent() {
    // learn_model fans episode collection over ACSO_THREADS workers; the
    // merged model must not depend on that fan-out. Exercise it by learning
    // the same model twice (the pool size may differ between runs on a busy
    // machine only via the env var, so this also guards plain determinism).
    let config = LearnConfig {
        episodes: 6,
        seed: 13,
        sim: SimConfig::tiny().with_max_time(120),
    };
    let a = learn_model(&config);
    let b = learn_model(&config);
    assert_eq!(
        a.transition.total_observations(),
        b.transition.total_observations()
    );
    assert_eq!(a, b);
}
