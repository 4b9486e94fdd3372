//! `train-small`: the augmented-DQN loop of `train::train_agent` on
//! `paper-small` with the paper's DQN hyper-parameters, the replay ring
//! sized below the run's transition count so it wraps and evicts.

use crate::layers::{self, Shape};
use crate::setup::{self, DbnFit, SALT_AGENT, SALT_EPISODES, SALT_LAYERS};
use crate::trace::{Trace, Tracer};
use crate::{eval, sys, Args, Report};
use acso_core::agent::{AcsoAgent, AgentConfig, AttentionQNet, QNetwork};
use acso_core::features::StateFeatures;
use acso_core::train::train_agent;
use acso_serve::json::JsonValue;
use ics_sim::{IcsEnvironment, SimConfig};
use neural::optim::Adam;
use neural::Matrix;
use rl::DqnConfig;
use std::time::{Duration, Instant};

/// Episode horizon: short enough that episode boundaries, where the
/// train_agent cross-check happens, come every second or so.
const HORIZON: u64 = 200;

/// Replay ring capacity: a timed run stores several times this many
/// transitions.
const REPLAY_CAPACITY: usize = 1_024;

/// Steps per throughput window: eight updates at the paper's update period.
const RATE_WINDOW: u64 = 64;

/// Episodes cross-checked against `train::train_agent` on every run: enough
/// to pass the paper's 1 000-transition warm-up and run updates.
const CHECK_EPISODES: usize = 6;

/// The traced replay times the update's stages on replicas after every
/// this many updates.
const REPLICA_EVERY: usize = 2;

/// Adam's learning rate.
const LEARNING_RATE: f32 = 1e-4;

type Agent = AcsoAgent<AttentionQNet>;

/// When the loop stops.
#[derive(Clone, Copy)]
enum Limit {
    Until(Instant),
    Steps(u64),
}

#[derive(Default)]
struct Run {
    steps: u64,
    episodes: usize,
    decisions_us: Vec<f64>,
    updates_ms: Vec<f64>,
    non_finite: u64,
    evictions: u64,
    /// Weights after each of the first [`CHECK_EPISODES`] episodes.
    snapshots: Vec<Vec<f32>>,
    spans: Vec<crate::trace::Span>,
    /// Steps per second of each [`RATE_WINDOW`]-step window from the first
    /// update on.
    rates: Vec<f64>,
    /// Start of the open window.
    window: Option<(Instant, u64)>,
}

/// The update's stages, timed on replicas of the agent's online network at
/// the minibatch shape right after a real update, on ring states the
/// benchmark samples itself: the two bootstrap `q_values_batch` calls,
/// `q_values_batch_train`, `backward_batch` and an `Adam::step`. The
/// replicas live for the whole replay and take the agent's current weights
/// before each sample, so their buffers are as warm as the agent's own.
struct UpdateStages {
    seed: u64,
    batch: usize,
    replicas: Option<(AttentionQNet, AttentionQNet, Adam)>,
    forward_ms: Vec<f64>,
    /// One minibatch state, for the stand-alone layer shape.
    state: Option<StateFeatures>,
}

/// Copies every parameter value of `from` into `to`.
fn copy_weights(from: &mut AttentionQNet, to: &mut AttentionQNet) {
    for (dst, src) in to.params_mut().into_iter().zip(from.params_mut()) {
        dst.value.data_mut().copy_from_slice(src.value.data());
    }
}

impl UpdateStages {
    fn new(seed: u64, batch: usize) -> Self {
        Self {
            seed,
            batch,
            replicas: None,
            forward_ms: Vec::new(),
            state: None,
        }
    }

    /// Times one replica update inside a `replica` span, which the tracing
    /// overhead leaves out.
    fn sample(&mut self, agent: &mut Agent, t: &mut Tracer, id: u64) {
        t.begin("replica", id);
        let warm = self.replicas.is_some();
        let (online, target, adam) = self.replicas.get_or_insert_with(|| {
            let online = agent.network_mut().clone();
            (online.clone(), online, Adam::new(LEARNING_RATE))
        });
        copy_weights(agent.network_mut(), online);
        copy_weights(agent.network_mut(), target);
        let trainer = agent.trainer();
        let ring = trainer.replay();
        let salt = (self.forward_ms.len() * self.batch) as u64;
        let states: Vec<&StateFeatures> = (0..self.batch as u64)
            .map(|i| {
                let slot = setup::stream(self.seed, salt + i) % ring.len() as u64;
                trainer.features(ring.get(slot as usize).state)
            })
            .collect();
        self.state.get_or_insert_with(|| states[0].clone());
        let mut grad = Matrix::zeros(states.len(), online.action_space().len());
        for row in 0..states.len() {
            let col = row % grad.cols();
            grad.row_mut(row)[col] = 1e-2;
        }
        let mut stages = || {
            let t0 = Instant::now();
            drop(online.q_values_batch(&states));
            let t1 = Instant::now();
            drop(target.q_values_batch(&states));
            let t2 = Instant::now();
            online.zero_grad();
            online.q_values_batch_train(&states);
            let t3 = Instant::now();
            online.backward_batch(&grad);
            let t4 = Instant::now();
            adam.step(&mut online.params_mut());
            [t0, t1, t2, t3, t4, Instant::now()]
        };
        if !warm {
            // The first pass sizes every buffer and Adam's moments.
            stages();
        }
        let [t0, t1, t2, t3, t4, t5] = stages();
        self.forward_ms.push((t1 - t0).as_secs_f64() * 1e3);
        t.record("replica.bootstrap", id, t0, t2);
        t.record("replica.train_fwd", id, t2, t3);
        t.record("replica.train_bwd", id, t3, t4);
        t.record("replica.adam", id, t4, t5);
        t.end();
    }
}

/// Ring pushes since `cursor` given the ring's state now, and the evictions
/// they caused.
fn evicted(agent: &Agent, len_before: usize, cursor_before: usize) -> u64 {
    let replay = agent.trainer().replay();
    let capacity = replay.capacity();
    let pushes = (replay.next_slot() + capacity - cursor_before) % capacity;
    (len_before + pushes).saturating_sub(capacity) as u64
}

/// The sequence of public `AcsoAgent` calls `train::train_agent` makes, with
/// each call timed; traced, with update stages sampled, when `stages` is
/// given.
fn train_loop(
    agent: &mut Agent,
    sim: &SimConfig,
    seed: u64,
    limit: Limit,
    mut stages: Option<&mut UpdateStages>,
    epoch: Instant,
) -> Run {
    let mut t = Tracer::new(stages.is_some(), epoch);
    let mut run = Run::default();
    agent.set_explore(true);
    let finished = |run: &Run| match limit {
        Limit::Until(deadline) => Instant::now() >= deadline,
        Limit::Steps(n) => run.steps >= n,
    };
    'episodes: for episode in 0.. {
        let id = episode as u64;
        t.begin("episode_start", id);
        let mut env = IcsEnvironment::new(
            sim.clone()
                .with_seed(acso_runtime::episode_seed(seed, episode)),
        );
        agent.begin_episode();
        let obs = env.reset();
        t.end();
        let started = Instant::now();
        t.begin("select", id);
        let (mut action, mut state) = agent.select_action(&obs);
        t.end();
        run.decisions_us.push(started.elapsed().as_secs_f64() * 1e6);
        loop {
            t.begin("train_step", id);
            t.begin("env.step", id);
            let step = env.step(&[agent.action_space().decode(action)]);
            t.end();
            let started = Instant::now();
            t.begin("select", id);
            let (next_action, next_state) = agent.select_action(&step.observation);
            t.end();
            run.decisions_us.push(started.elapsed().as_secs_f64() * 1e6);
            let (len, cursor) = (
                agent.trainer().replay().len(),
                agent.trainer().replay().next_slot(),
            );
            t.begin("store", id);
            agent.store_transition(
                state,
                action,
                step.reward + step.shaping_reward,
                next_state,
                step.done,
            );
            t.end();
            run.evictions += evicted(agent, len, cursor);
            let started = Instant::now();
            let loss = agent.maybe_train();
            let ended = Instant::now();
            if let Some(loss) = loss {
                t.record("update", id, started, ended);
                run.updates_ms.push((ended - started).as_secs_f64() * 1e3);
                run.non_finite += u64::from(!loss.is_finite());
            } else {
                t.record("maybe_train", id, started, ended);
            }
            t.end();
            if let Some(stages) = stages.as_deref_mut() {
                if loss.is_some() && run.updates_ms.len() % REPLICA_EVERY == 0 {
                    stages.sample(agent, &mut t, id);
                }
            }
            action = next_action;
            state = next_state;
            run.steps += 1;
            if !run.updates_ms.is_empty() {
                let (opened, first) = *run.window.get_or_insert((Instant::now(), run.steps));
                if run.steps - first == RATE_WINDOW {
                    run.rates
                        .push(RATE_WINDOW as f64 / opened.elapsed().as_secs_f64());
                    run.window = Some((Instant::now(), run.steps));
                }
            }
            if finished(&run) {
                break 'episodes;
            }
            if step.done {
                break;
            }
        }
        let (len, cursor) = (
            agent.trainer().replay().len(),
            agent.trainer().replay().next_slot(),
        );
        agent.end_episode();
        run.evictions += evicted(agent, len, cursor);
        run.episodes += 1;
        if run.snapshots.len() < CHECK_EPISODES {
            run.snapshots.push(setup::weights_of(agent.network_mut()));
        }
        if finished(&run) {
            break;
        }
    }
    run.spans = t.finish();
    run
}

/// Runs `train-small`.
pub fn run(args: &Args) -> Report {
    let weights = setup::weights_path("train-small", args.seed);
    let config = AgentConfig {
        dqn: DqnConfig {
            buffer_capacity: REPLAY_CAPACITY,
            ..DqnConfig::paper()
        },
        learning_rate: LEARNING_RATE,
        seed: setup::stream(args.seed, SALT_AGENT),
    };
    let fit = DbnFit {
        episodes: 2,
        max_time: 1_000,
    };
    let mut fits = Vec::new();
    let (defender, setup_times) = setup::repeated(|| {
        let d = setup::defender(
            "paper-small",
            Some(HORIZON),
            fit,
            config.clone(),
            args.seed,
            &weights,
        );
        fits.push(d.fit_s);
        d
    });
    let _ = std::fs::remove_file(&weights);
    let sim = defender.sim.clone();
    let seed = setup::stream(args.seed, SALT_EPISODES);
    let initial = defender.agent.clone();
    let mut agent = defender.agent;

    let cpu0 = sys::cpu_seconds();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(args.seconds);
    let run = train_loop(
        &mut agent,
        &sim,
        seed,
        Limit::Until(deadline),
        None,
        started,
    );
    let wall = started.elapsed().as_secs_f64();
    let cpu_util = (sys::cpu_seconds() - cpu0) / wall;

    let mut report = Report {
        attempted: run.updates_ms.len() as u64,
        failed: run.non_finite,
        ..Report::default()
    };
    report.metrics.insert("setup_s", sys::median(&setup_times));
    report
        .metrics
        .insert("steps_per_s", sys::median(&run.rates));
    report.detail(
        "steps_per_s_whole_run",
        JsonValue::num(run.steps as f64 / wall),
    );
    let updates: Vec<f64> = run.updates_ms.clone();
    report
        .metrics
        .insert("latency_p50_ms", sys::median(&updates));
    let (tail, tail_pct) = sys::tail(&updates).expect("a timed region runs more than ten updates");
    report.metrics.insert("latency_tail_ms", tail);
    report.detail("steps", JsonValue::num(run.steps as f64));
    report.detail("episodes", JsonValue::num(run.episodes as f64));
    report.detail("updates", JsonValue::num(updates.len() as f64));
    report.detail("latency_tail_percentile", JsonValue::num(tail_pct));
    report.detail(
        "decision_p50_us",
        JsonValue::num(sys::median(&run.decisions_us)),
    );
    report.detail("cpu_util", JsonValue::num(cpu_util));
    report.detail(
        "setup_s_samples",
        JsonValue::Arr(setup_times.iter().map(|t| JsonValue::num(*t)).collect()),
    );

    // Cross-check the loop against train::train_agent over the first
    // complete episodes, weight for weight.
    let checked = run.episodes.min(CHECK_EPISODES);
    if checked > 0 {
        let mut reference = initial.clone();
        train_agent(&mut reference, &sim, checked, seed);
        report.check(setup::weights_of(reference.network_mut()) == run.snapshots[checked - 1]);
    }
    report.detail(
        "train_agent_checked_episodes",
        JsonValue::num(checked as f64),
    );

    // The trained network's Q-values on states spread over the ring, against
    // the reference backend.
    let states: Vec<StateFeatures> = {
        let trainer = agent.trainer();
        let ring = trainer.replay();
        (0..eval::BACKEND_CHECK_STATES)
            .map(|i| {
                let slot = i * ring.len() / eval::BACKEND_CHECK_STATES;
                trainer.features(ring.get(slot).state).clone()
            })
            .collect()
    };
    eval::check_backend(&mut report, agent.network_mut(), &states);

    if !args.trace {
        report.metrics.insert("peak_rss_mb", sys::peak_rss_mb());
        return report;
    }

    // Traced replay of exactly the same steps; its final weights must match.
    let final_weights = setup::weights_of(agent.network_mut());
    let mut replayed = initial.clone();
    let mut stages =
        UpdateStages::new(setup::stream(args.seed, SALT_LAYERS), config.dqn.batch_size);
    let replay_started = Instant::now();
    let traced = train_loop(
        &mut replayed,
        &sim,
        seed,
        Limit::Steps(run.steps),
        Some(&mut stages),
        replay_started,
    );
    let replay_wall = replay_started.elapsed().as_secs_f64();
    report.check(
        setup::weights_of(replayed.network_mut()) == final_weights && traced.steps == run.steps,
    );
    let mut trace = Trace::default();
    trace.absorb(traced.spans);
    let stats = trace.stats();
    let self_us = |name: &str| stats.get(name).map_or(0.0, |s| s.self_us());
    let mean_ms = |name: &str| {
        stats
            .get(name)
            .map_or(0.0, |s| s.total as f64 / s.count.max(1) as f64 / 1e6)
    };
    let update_ms = mean_ms("update");
    let (bootstrap_ms, train_fwd_ms, train_bwd_ms, adam_ms) = (
        mean_ms("replica.bootstrap"),
        mean_ms("replica.train_fwd"),
        mean_ms("replica.train_bwd"),
        mean_ms("replica.adam"),
    );
    let replicas_s = stats.get("replica").map_or(0.0, |s| s.total as f64 / 1e9);
    let forward_ms = sys::mean(&stages.forward_ms);
    let state = stages.state.expect("a timed region runs updates");
    let shape = Shape::of(&state, config.dqn.batch_size);
    let layer = layers::measure(&shape, true, setup::stream(args.seed, SALT_LAYERS));

    let m = &mut report.metrics;
    m.insert("ics-sim.step_us", self_us("env.step"));
    m.insert("ics-sim.episode_start_us", self_us("episode_start"));
    m.insert("dbn.fit_s", sys::median(&fits));
    m.insert("acso-core.forward_us", forward_ms * 1e3);
    m.insert("acso-core.forward_states", config.dqn.batch_size as f64);
    m.insert(
        "acso-core.qnet_glue_us",
        forward_ms * 1e3 - layer.fwd_total_us(),
    );
    m.insert("acso-core.engine_us", self_us("train_step"));
    m.insert("acso-core.act_us", self_us("select"));
    m.insert("acso-core.store_us", self_us("store"));
    m.insert("acso-core.update_ms", update_ms);
    m.insert("acso-core.bootstrap_ms", bootstrap_ms);
    m.insert("acso-core.train_fwd_ms", train_fwd_ms);
    m.insert("acso-core.train_bwd_ms", train_bwd_ms);
    m.insert(
        "acso-core.update_rest_ms",
        update_ms - bootstrap_ms - train_fwd_ms - train_bwd_ms - adam_ms,
    );
    layer.insert_forward(m);
    m.insert("neural.embed_bwd_us", layer.embed_bwd_us);
    m.insert("neural.attn_bwd_us", layer.attn_bwd_us);
    m.insert("neural.heads_bwd_us", layer.heads_bwd_us);
    m.insert("neural.adam_us", adam_ms * 1e3);
    m.insert("rl.evictions", traced.evictions as f64);
    m.insert("acso-runtime.cpu_util", cpu_util);
    m.insert(
        "perfbench.trace_overhead",
        (replay_wall - replicas_s) / wall - 1.0,
    );
    // Steps are covered by their call spans; updates by the replica stages.
    let update_coverage =
        ((bootstrap_ms + train_fwd_ms + train_bwd_ms + adam_ms) / update_ms).min(1.0);
    m.insert(
        "perfbench.coverage",
        trace.coverage("train_step").min(update_coverage),
    );
    report.detail(
        "replica_updates",
        JsonValue::num(stages.forward_ms.len() as f64),
    );
    report.detail(
        "update_stage_sum_over_update",
        JsonValue::num((bootstrap_ms + train_fwd_ms + train_bwd_ms + adam_ms) / update_ms),
    );
    report.detail(
        "backward_share_of_update",
        JsonValue::num(train_bwd_ms / update_ms),
    );
    report.detail("layers", layer.describe(&shape));
    report.trace = Some(trace);
    report
}
