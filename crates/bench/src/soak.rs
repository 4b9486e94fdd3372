//! The invariant-sweep soak harness.
//!
//! Drives thousands of episodes on seed-generated scenarios
//! ([`ics_sim::Scenario::from_seed`], seeds from
//! [`acso_runtime::mersenne_stream`]) through the full training stack —
//! simulator, IDS, DBN filter, feature arena, prioritized replay, the
//! augmented-DQN update — and asserts cross-module invariants after **every**
//! environment step:
//!
//! * **alert conservation** — the per-node severity counts the defender
//!   observes aggregate exactly the raw alert stream;
//! * **belief normalization** — every node's DBN belief stays a probability
//!   distribution after each filter update;
//! * **topology reachability** — every node sits on its home VLAN or its
//!   quarantine counterpart, both served by a switch, and cross-level paths
//!   cross the plant firewall exactly once;
//! * **arena refcount balance** — outstanding feature references equal
//!   exactly two per live replay entry;
//! * **replay-ring/arena consistency** — every stored transition (and the
//!   pending n-step window) resolves to live arena slots;
//! * **target-cache consistency** — one sampled cached target-network row
//!   equals, bit for bit, a fresh target forward of its slot's state
//!   ([`AcsoAgent::check_target_cache`]).
//!
//! Mid-run, a seeded coin injects checkpoint/restore-and-compare: the agent
//! is serialized ([`acso_core::snapshot::encode_train_checkpoint`]), a cold
//! twin is restored from the bytes, the round trip is required to be
//! **bit-identical**, and the run continues on the restored twin — so any
//! drift the snapshot path introduced would trip the sweeps on later steps.
//! With a state directory the run also checkpoints at every episode boundary
//! and can be killed ([`SoakConfig::kill_at_op`]) and resumed; a killed-and-
//! resumed run converges to the same final checkpoint bytes as an
//! uninterrupted one (pinned by this module's tests).

use acso_core::agent::{AcsoAgent, AgentConfig, AttentionQNet};
use acso_core::snapshot::{self, peek_train_progress};
use acso_core::train::TrainReport;
use acso_core::ActionSpace;
use acso_runtime::{episode_seed, mersenne_stream};
use dbn::learn::{learn_model, LearnConfig};
use ics_net::Topology;
use ics_sim::{AlertSource, IcsEnvironment, Observation, Scenario};
use rl::DqnConfig;
use std::path::PathBuf;

/// Salt separating scenario-generation seeds from everything else.
const SCENARIO_SALT: u64 = 0x50AC;
/// Salt for the per-scenario run seed (DBN fit, network init, episodes).
const RUN_SALT: u64 = 0x51AC;
/// Salt for the restore-injection coin.
const RESTORE_SALT: u64 = 0x52AC;
/// Salt for the target-cache row the per-step sweep samples.
const CACHE_SALT: u64 = 0x53AC;

/// Random-defender episodes fitting each scenario's DBN before the sweep.
const DBN_EPISODES: usize = 2;

/// Replay ring capacity: small enough that a few thousand ops wrap the
/// ring, so evictions free arena slots and new states reuse them.
const REPLAY_CAPACITY: usize = 256;

/// Gradient updates between target syncs: a few thousand ops (one update
/// per 16 steps) sync several times, so the target cache is cleared
/// mid-run and not only by restores.
const TARGET_SYNC_INTERVAL: u64 = 32;

/// Configuration of a soak run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoakConfig {
    /// Minimum environment steps to drive, split across the scenarios. The
    /// run stops at the first episode boundary past each scenario's share.
    pub ops: u64,
    /// Master seed: scenario generation, DBN fits, network init and episode
    /// streams all derive from it through salted Mersenne hash streams.
    pub seed: u64,
    /// How many seed-generated scenarios to sweep.
    pub scenarios: usize,
    /// Episode-horizon cap applied to every generated scenario.
    pub max_time: u64,
    /// Checkpoint/restore-and-compare injection rate: roughly one in this
    /// many episode boundaries (seeded coin). 0 disables injection.
    pub restore_every: u64,
    /// Directory for per-scenario checkpoints; enables kill-and-resume.
    pub state_dir: Option<PathBuf>,
    /// Simulate a crash: exit at the first episode boundary at or past this
    /// global op count, right after writing the checkpoint. Requires
    /// [`SoakConfig::state_dir`].
    pub kill_at_op: Option<u64>,
}

impl SoakConfig {
    /// A small smoke configuration (used by tests and `--smoke`).
    pub fn smoke() -> Self {
        Self {
            ops: 400,
            seed: 0,
            scenarios: 1,
            max_time: 40,
            restore_every: 2,
            state_dir: None,
            kill_at_op: None,
        }
    }
}

/// What a completed soak run did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SoakReport {
    /// Environment steps driven (including steps replayed from checkpoints).
    pub ops: u64,
    /// Episodes completed across all scenarios.
    pub episodes: u64,
    /// Individual invariant checks that passed.
    pub checks: u64,
    /// Checkpoint/restore-and-compare injections performed.
    pub restores: u64,
    /// Episodes recovered from checkpoints instead of being re-run.
    pub resumed_episodes: u64,
    /// Names of the generated scenarios, in sweep order.
    pub scenario_names: Vec<String>,
}

/// How a soak run ended (when no invariant was violated).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SoakOutcome {
    /// The full op budget was driven with zero violations.
    Completed(SoakReport),
    /// [`SoakConfig::kill_at_op`] triggered: the run stopped mid-sweep with
    /// its state checkpointed, ready to be resumed.
    Killed {
        /// Global op count at the simulated crash.
        at_op: u64,
        /// The checkpoint the resumed run will pick up.
        checkpoint: PathBuf,
    },
}

/// Runs the soak. `Err` carries the first invariant violation (or an I/O
/// failure on the checkpoint path) — the harness stops immediately so the
/// failing step stays identifiable by seed and op count.
pub fn run_soak(config: &SoakConfig) -> Result<SoakOutcome, String> {
    if config.scenarios == 0 {
        return Err("soak needs at least one scenario".into());
    }
    if config.kill_at_op.is_some() && config.state_dir.is_none() {
        return Err("--kill-at-op needs --state-dir to checkpoint into".into());
    }
    if let Some(dir) = &config.state_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("state dir {}: {e}", dir.display()))?;
    }

    let per_scenario = config.ops.div_ceil(config.scenarios as u64);
    let mut report = SoakReport::default();
    let mut completed_ops = 0u64;

    for index in 0..config.scenarios {
        let scenario =
            Scenario::from_seed(mersenne_stream(config.seed, SCENARIO_SALT + index as u64));
        report.scenario_names.push(scenario.name.clone());
        let sim = scenario.config.clone().with_max_time(config.max_time);
        let run_seed = mersenne_stream(config.seed, RUN_SALT + index as u64);
        let checkpoint_path = config
            .state_dir
            .as_ref()
            .map(|dir| dir.join(format!("soak_scenario_{index}.acsosnap")));

        // Resume bookkeeping: a checkpoint that already covers this
        // scenario's share is accounted without rebuilding its agent.
        let mut resume_bytes = None;
        if let Some(path) = &checkpoint_path {
            if let Ok(bytes) = std::fs::read(path) {
                let progress = peek_train_progress(&bytes)
                    .map_err(|e| format!("checkpoint {}: {e}", path.display()))?;
                if progress.env_steps >= per_scenario {
                    completed_ops += progress.env_steps;
                    report.episodes += progress.episodes as u64;
                    report.resumed_episodes += progress.episodes as u64;
                    continue;
                }
                resume_bytes = Some(bytes);
            }
        }

        // The deterministic cold world: everything below is a function of
        // the scenario and `run_seed`, so a killed process rebuilds it
        // identically before restoring the checkpoint on top.
        let model = learn_model(&LearnConfig {
            episodes: DBN_EPISODES,
            seed: run_seed,
            sim: sim.clone(),
        });
        let base_env = IcsEnvironment::new(sim.clone().with_seed(run_seed));
        let space = ActionSpace::new(base_env.topology());
        let agent_config = AgentConfig {
            dqn: DqnConfig {
                buffer_capacity: REPLAY_CAPACITY,
                target_update_interval: TARGET_SYNC_INTERVAL,
                ..DqnConfig::smoke()
            },
            seed: run_seed,
            ..AgentConfig::smoke()
        };
        let make_agent = || {
            let network = AttentionQNet::new(space.clone(), run_seed);
            AcsoAgent::new(
                base_env.topology(),
                model.clone(),
                network,
                agent_config.clone(),
            )
        };
        let mut agent = make_agent();
        let mut train_report = TrainReport::default();
        if let Some(bytes) = resume_bytes {
            train_report = snapshot::decode_train_checkpoint(&mut agent, &bytes)
                .map_err(|e| format!("resuming scenario {index}: {e}"))?;
            report.episodes += train_report.episode_returns.len() as u64;
            report.resumed_episodes += train_report.episode_returns.len() as u64;
        }

        check_topology(base_env.topology())
            .map_err(|e| format!("scenario `{}`: {e}", scenario.name))?;
        let cache_seed = mersenne_stream(run_seed, CACHE_SALT);
        agent.set_explore(true);

        while train_report.env_steps < per_scenario {
            let episode = train_report.episode_returns.len();
            let mut env =
                IcsEnvironment::new(sim.clone().with_seed(episode_seed(run_seed, episode)));
            let gamma = env.gamma();
            agent.begin_episode();
            let obs = env.reset();
            check_step(&mut agent, &env, &obs, cache_seed, &mut report.checks)
                .map_err(|e| at(&scenario.name, episode, &agent, e))?;
            let (mut action, mut state) = agent.select_action(&obs);

            let mut discounted = 0.0;
            let mut discount = 1.0;
            loop {
                let step = env.step(&[agent.action_space().decode(action)]);
                discounted += discount * step.reward;
                discount *= gamma;
                let (next_action, next_state) = agent.select_action(&step.observation);
                agent.store_transition(
                    state,
                    action,
                    step.reward + step.shaping_reward,
                    next_state,
                    step.done,
                );
                agent.maybe_train();
                check_step(
                    &mut agent,
                    &env,
                    &step.observation,
                    cache_seed,
                    &mut report.checks,
                )
                .map_err(|e| at(&scenario.name, episode, &agent, e))?;
                action = next_action;
                state = next_state;
                if step.done {
                    break;
                }
            }
            train_report.episode_returns.push(discounted);
            train_report.episode_losses.push(agent.recent_loss());
            agent.end_episode();
            train_report.env_steps = agent.env_steps();
            train_report.updates = agent.updates();
            report.episodes += 1;

            // Episode boundary: checkpoint, then maybe crash, then maybe
            // swap the live agent for a from-bytes restoration of itself.
            let inject = config.restore_every > 0
                && mersenne_stream(run_seed, RESTORE_SALT + episode as u64)
                    .is_multiple_of(config.restore_every);
            if checkpoint_path.is_some() || inject {
                let bytes = snapshot::encode_train_checkpoint(&mut agent, &train_report);
                if let Some(path) = &checkpoint_path {
                    snapshot::write_atomic(path, &bytes)
                        .map_err(|e| format!("checkpoint {}: {e}", path.display()))?;
                    if let Some(kill) = config.kill_at_op {
                        let global = completed_ops + train_report.env_steps;
                        if global >= kill {
                            return Ok(SoakOutcome::Killed {
                                at_op: global,
                                checkpoint: path.clone(),
                            });
                        }
                    }
                }
                if inject {
                    let mut fresh = make_agent();
                    let restored =
                        snapshot::decode_train_checkpoint(&mut fresh, &bytes).map_err(|e| {
                            at(&scenario.name, episode, &agent, format!("restore: {e}"))
                        })?;
                    if restored != train_report {
                        return Err(at(
                            &scenario.name,
                            episode,
                            &agent,
                            "restored report diverges from the live one".into(),
                        ));
                    }
                    let round_trip = snapshot::encode_train_checkpoint(&mut fresh, &restored);
                    if round_trip != bytes {
                        return Err(at(
                            &scenario.name,
                            episode,
                            &agent,
                            format!(
                                "checkpoint round trip is not bit-identical: {} vs {} bytes",
                                bytes.len(),
                                round_trip.len()
                            ),
                        ));
                    }
                    // Continue the sweep on the restored twin: if restoration
                    // lost anything, later per-step checks will trip on it.
                    agent = fresh;
                    report.restores += 1;
                }
            }
        }
        completed_ops += train_report.env_steps;
    }

    report.ops = completed_ops;
    Ok(SoakOutcome::Completed(report))
}

/// Report of a bounded extra-large-scenario invariant sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct XlSoakReport {
    /// Environment steps driven across all XL scenarios.
    pub ops: u64,
    /// Episodes completed.
    pub episodes: u64,
    /// Individual invariant checks that passed.
    pub checks: u64,
    /// Names of the XL scenarios swept.
    pub scenario_names: Vec<String>,
}

/// Bounded invariant sweep over the extra-large registry scenarios (tag
/// [`acso_core::ScenarioRegistry::XL_TAG`], ~1000 hosts).
///
/// The full training soak is deliberately too heavy at this scale (it
/// trains a per-scenario agent), so this sweep drives the world model alone
/// — playbook defender against the environment, no neural stack — and
/// asserts the world-level invariant families after every step: the static
/// topology reachability sweep once per scenario, then alert conservation
/// and live VLAN/quarantine reachability per step (the same
/// `check_world_step` shared with the full soak).
/// At ~1000 hosts these are exactly the invariants the sparse dirty-set
/// observation path and the multi-/24 IP allocator could silently break.
///
/// `ops` bounds the total steps (split across XL scenarios); episodes use
/// the playbook defender so quarantine churn exercises VLAN toggling.
pub fn run_xl_soak(ops: u64, seed: u64, max_time: u64) -> Result<XlSoakReport, String> {
    use acso_core::baselines::PlaybookPolicy;
    use acso_core::{DefenderPolicy, ScenarioRegistry};
    use rand::SeedableRng;

    let registry = ScenarioRegistry::builtin();
    let xl: Vec<_> = registry
        .iter()
        .filter(|s| s.has_tag(ScenarioRegistry::XL_TAG))
        .cloned()
        .collect();
    if xl.is_empty() {
        return Err("no XL-tagged scenarios in the registry".into());
    }

    let per_scenario = ops.div_ceil(xl.len() as u64);
    let mut report = XlSoakReport::default();
    for (index, scenario) in xl.iter().enumerate() {
        report.scenario_names.push(scenario.name.clone());
        let sim = scenario.config.clone().with_max_time(max_time);
        let run_seed = mersenne_stream(seed, RUN_SALT + index as u64);
        let mut env = IcsEnvironment::new(sim.clone().with_seed(run_seed));
        check_topology(env.topology()).map_err(|e| format!("scenario `{}`: {e}", scenario.name))?;

        let mut scenario_ops = 0u64;
        let mut episode = 0usize;
        while scenario_ops < per_scenario {
            env = IcsEnvironment::new(sim.clone().with_seed(episode_seed(run_seed, episode)));
            let mut policy = PlaybookPolicy::new();
            let mut rng =
                rand::rngs::StdRng::seed_from_u64(mersenne_stream(run_seed, episode as u64));
            policy.reset(env.topology());
            let mut obs = env.reset();
            check_world_step(&env, &obs, &mut report.checks)
                .map_err(|e| format!("scenario `{}` episode {episode}: {e}", scenario.name))?;
            loop {
                let actions = policy.decide(&obs, env.topology(), &mut rng);
                let step = env.step(&actions);
                scenario_ops += 1;
                check_world_step(&env, &step.observation, &mut report.checks).map_err(|e| {
                    format!(
                        "scenario `{}` episode {episode} op {scenario_ops}: {e}",
                        scenario.name
                    )
                })?;
                obs = step.observation;
                if step.done {
                    break;
                }
            }
            episode += 1;
            report.episodes += 1;
        }
        report.ops += scenario_ops;
    }
    Ok(report)
}

/// Prefixes a violation with where it happened.
fn at<N: acso_core::agent::QNetwork + Clone>(
    scenario: &str,
    episode: usize,
    agent: &AcsoAgent<N>,
    message: String,
) -> String {
    format!(
        "scenario `{scenario}` episode {episode} op {}: {message}",
        agent.env_steps()
    )
}

/// Static reachability sweep, once per scenario: every node's home VLAN and
/// quarantine counterpart are served by a switch at the node's level, and
/// cross-level paths cross the plant firewall exactly once.
fn check_topology(topo: &Topology) -> Result<(), String> {
    for node in topo.nodes() {
        let switch = topo
            .switch_for_vlan(node.home_vlan)
            .ok_or_else(|| format!("node {} has no home switch", node.id))?;
        let device = topo
            .devices()
            .find(|d| d.id == switch)
            .ok_or_else(|| format!("switch of node {} resolves to no device", node.id))?;
        if device.level != node.level {
            return Err(format!("node {} and its switch disagree on level", node.id));
        }
        if topo.switch_for_vlan(node.home_vlan.counterpart()).is_none() {
            return Err(format!(
                "vlan {:?} has no quarantine counterpart switch",
                node.home_vlan
            ));
        }
    }
    for from in topo.vlans() {
        for to in topo.vlans() {
            let crossings = topo
                .devices_between_vlans(from, to)
                .iter()
                .filter(|d| **d == topo.plant_firewall())
                .count();
            let expected = usize::from(from.level_number() != to.level_number());
            if crossings != expected {
                return Err(format!(
                    "path {from:?} -> {to:?} crosses the plant firewall {crossings} times, expected {expected}"
                ));
            }
        }
    }
    Ok(())
}

/// The world-level per-step invariants — alert conservation and live VLAN
/// reachability — shared by the full training soak and the bounded
/// extra-large sweep ([`run_xl_soak`]). Bumps `checks` once per family.
fn check_world_step(
    env: &IcsEnvironment,
    obs: &Observation,
    checks: &mut u64,
) -> Result<(), String> {
    // 1. Alert conservation: the per-node severity counts are exactly the
    //    aggregation of the raw alert stream.
    let node_count = env.topology().node_count();
    if obs.nodes.len() != node_count {
        return Err(format!(
            "observation covers {} nodes, topology has {node_count}",
            obs.nodes.len()
        ));
    }
    let mut recomputed = vec![[0u32; 3]; node_count];
    for alert in &obs.alerts {
        if let AlertSource::Node(node) = alert.source {
            if node.index() >= node_count {
                return Err(format!(
                    "alert attributed to out-of-range node {}",
                    node.index()
                ));
            }
            recomputed[node.index()][(alert.severity.level() - 1) as usize] += 1;
        }
    }
    for (index, node_obs) in obs.nodes.iter().enumerate() {
        if node_obs.alert_counts != recomputed[index] {
            return Err(format!(
                "alert conservation violated on node {index}: observation says {:?}, the raw stream aggregates to {:?}",
                node_obs.alert_counts, recomputed[index]
            ));
        }
    }
    *checks += 1;

    // 2. Reachability of the live VLAN placement: quarantine toggling must
    //    keep every node on a switch-served VLAN consistent with its flag.
    let state = env.state();
    for node in env.topology().nodes() {
        let vlan = state.vlan_of(node.id);
        let expected = if state.is_quarantined(node.id) {
            node.home_vlan.counterpart()
        } else {
            node.home_vlan
        };
        if vlan != expected {
            return Err(format!(
                "node {} sits on vlan {vlan:?} but its quarantine flag expects {expected:?}",
                node.id
            ));
        }
        if env.topology().switch_for_vlan(vlan).is_none() {
            return Err(format!(
                "node {} is on vlan {vlan:?} with no serving switch",
                node.id
            ));
        }
    }
    *checks += 1;

    Ok(())
}

/// The per-step invariant sweep. Bumps `checks` once per invariant family
/// that passed; returns the first violation. `cache_seed` and the agent's
/// step count choose the sampled target-cache row.
fn check_step<N: acso_core::agent::QNetwork + Clone>(
    agent: &mut AcsoAgent<N>,
    env: &IcsEnvironment,
    obs: &Observation,
    cache_seed: u64,
    checks: &mut u64,
) -> Result<(), String> {
    // 1–2. Alert conservation and live VLAN reachability.
    check_world_step(env, obs, checks)?;

    // 3. Belief normalization: each node's belief is a distribution.
    for (index, belief) in agent.filter().beliefs().iter().enumerate() {
        let sum: f64 = belief.iter().sum();
        if !sum.is_finite()
            || (sum - 1.0).abs() > 1e-6
            || belief.iter().any(|p| !p.is_finite() || *p < -1e-12)
        {
            return Err(format!(
                "belief of node {index} is not a distribution: {belief:?} (sum {sum})"
            ));
        }
    }
    *checks += 1;

    // 4. Arena refcount balance: exactly two references per replay entry
    //    (its start and bootstrap states), nothing leaked, nothing early.
    let trainer = agent.trainer();
    let total = trainer.arena().total_refs();
    let expected = 2 * trainer.replay().len() as u64;
    if total != expected {
        return Err(format!(
            "arena refcount imbalance: {total} outstanding references for {} replay entries (expected {expected})",
            trainer.replay().len()
        ));
    }
    *checks += 1;

    // 5. Replay-ring/arena consistency: every stored transition and the
    //    pending n-step window resolve to live arena slots.
    let (slots, _, _) = trainer.arena().parts();
    let replay = trainer.replay();
    let mut occupied = 0;
    for index in 0..replay.capacity() {
        if let Some(t) = replay.slot(index) {
            occupied += 1;
            for id in [t.state, t.final_state] {
                if id.index() >= slots.len() || slots[id.index()].is_none() {
                    return Err(format!(
                        "replay slot {index} references freed feature id {}",
                        id.index()
                    ));
                }
            }
        }
    }
    if occupied != replay.len() {
        return Err(format!(
            "replay ring reports len {} but {occupied} slots are occupied",
            replay.len()
        ));
    }
    for t in trainer.nstep_window() {
        for id in [t.state, t.next_state] {
            if id.index() >= slots.len() || slots[id.index()].is_none() {
                return Err(format!(
                    "n-step window references freed feature id {}",
                    id.index()
                ));
            }
        }
    }
    *checks += 1;

    // 6. Target-cache consistency: a sampled cached row still equals the
    //    target network's answer for its slot's state.
    let pick = mersenne_stream(cache_seed, agent.env_steps());
    if agent.check_target_cache(pick)? {
        *checks += 1;
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn smoke_soak_checks_every_step_and_injects_restores() {
        let config = SoakConfig {
            ops: 120,
            max_time: 30,
            restore_every: 1, // inject at every episode boundary
            ..SoakConfig::smoke()
        };
        let outcome = run_soak(&config).expect("invariants must hold");
        let SoakOutcome::Completed(report) = outcome else {
            panic!("no kill configured");
        };
        assert!(report.ops >= config.ops);
        assert!(report.episodes >= 1);
        assert!(report.restores >= 1, "restore injection never fired");
        // Five invariant families per step, plus the reset observation.
        assert!(
            report.checks >= 5 * report.ops,
            "{} checks for {} ops",
            report.checks,
            report.ops
        );
        assert_eq!(report.scenario_names.len(), 1);
    }

    #[test]
    fn killed_and_resumed_soak_matches_an_uninterrupted_run() {
        let straight_dir = temp_dir("acso_soak_straight");
        let killed_dir = temp_dir("acso_soak_killed");
        let base = SoakConfig {
            ops: 120,
            max_time: 30,
            restore_every: 3,
            ..SoakConfig::smoke()
        };

        let straight = SoakConfig {
            state_dir: Some(straight_dir.clone()),
            ..base.clone()
        };
        let SoakOutcome::Completed(full) = run_soak(&straight).unwrap() else {
            panic!("no kill configured");
        };

        let killed = SoakConfig {
            state_dir: Some(killed_dir.clone()),
            kill_at_op: Some(base.ops / 2),
            ..base.clone()
        };
        let SoakOutcome::Killed { at_op, checkpoint } = run_soak(&killed).unwrap() else {
            panic!("kill must trigger before the budget is spent");
        };
        assert!(at_op >= base.ops / 2 && at_op < full.ops);
        assert!(checkpoint.exists());

        let resumed = SoakConfig {
            state_dir: Some(killed_dir.clone()),
            kill_at_op: None,
            ..base
        };
        let SoakOutcome::Completed(rest) = run_soak(&resumed).unwrap() else {
            panic!("no kill configured");
        };
        assert!(
            rest.resumed_episodes > 0,
            "resume should pick up the checkpoint"
        );
        assert_eq!(rest.ops, full.ops);
        assert_eq!(rest.episodes, full.episodes);

        // The strong claim: crash plus resume converges to the *same bytes*
        // an uninterrupted run checkpoints.
        let a = std::fs::read(straight_dir.join("soak_scenario_0.acsosnap")).unwrap();
        let b = std::fs::read(killed_dir.join("soak_scenario_0.acsosnap")).unwrap();
        assert_eq!(a, b, "resumed run diverged from the uninterrupted one");

        let _ = std::fs::remove_dir_all(&straight_dir);
        let _ = std::fs::remove_dir_all(&killed_dir);
    }

    #[test]
    fn xl_sweep_holds_world_invariants_on_the_1000_host_scenario() {
        let report = run_xl_soak(90, 0, 45).expect("XL invariants must hold");
        assert!(report.ops >= 90);
        assert!(report.episodes >= 1);
        // Two world-level invariant families per step, plus the reset
        // observation of each episode.
        assert!(
            report.checks >= 2 * report.ops,
            "{} checks for {} ops",
            report.checks,
            report.ops
        );
        assert!(report
            .scenario_names
            .iter()
            .any(|name| name == "registry-1000"));
    }

    #[test]
    fn kill_without_a_state_dir_is_rejected() {
        let config = SoakConfig {
            kill_at_op: Some(10),
            ..SoakConfig::smoke()
        };
        let err = run_soak(&config).unwrap_err();
        assert!(err.contains("--state-dir"), "{err}");
    }
}
