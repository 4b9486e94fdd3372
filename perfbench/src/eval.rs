//! `eval-paper` and `eval-xl`: greedy ACSO evaluation through
//! `eval::evaluate_factory_detailed`, with a traced replay of the same
//! episodes through the stages the engine runs.

use crate::layers::{self, Shape};
use crate::setup::{self, DbnFit, SALT_EPISODES, SALT_LAYERS};
use crate::trace::{Trace, Tracer};
use crate::{sys, Args, Report};
use acso_core::agent::{AcsoAgent, AgentConfig, AttentionQNet, QNetwork};
use acso_core::eval::{evaluate_factory_detailed, workload_shape, EvalConfig};
use acso_core::features::{EncodeScratch, NodeFeatureEncoder, StateFeatures};
use acso_core::rollout::{BatchPolicy, LaneDecision};
use acso_core::{ActionSpace, DefenderPolicy};
use acso_serve::json::JsonValue;
use dbn::{DbnFilter, DbnModel};
use ics_net::Topology;
use ics_sim::{DefenderAction, EpisodeMetrics, IcsEnvironment, Observation, SimConfig};
use neural::Tolerance;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One evaluation workload.
pub struct Spec {
    name: &'static str,
    scenario: &'static str,
    max_time: Option<u64>,
    /// Episodes per evaluator call; `None` runs one per core.
    episodes: Option<usize>,
    fit: DbnFit,
}

/// Table 2 conditions: `paper-full`, full 5 000 h episodes, one per core per
/// call, so the autoscaler picks the episode-parallel engine.
pub const PAPER: Spec = Spec {
    name: "eval-paper",
    scenario: "paper-full",
    max_time: None,
    episodes: None,
    fit: DbnFit {
        episodes: 2,
        max_time: 1_000,
    },
};

/// `registry-1000` with four short episodes per call: fewer than the
/// autoscaler's lane cap, so it picks one lockstep batch.
pub const XL: Spec = Spec {
    name: "eval-xl",
    scenario: "registry-1000",
    max_time: Some(24),
    episodes: Some(4),
    fit: DbnFit {
        episodes: 2,
        max_time: 100,
    },
};

/// States compared against the reference backend.
pub const BACKEND_CHECK_STATES: usize = 3;

/// Widening of the joined kernel tolerance for whole-network Q-values: a
/// forward chains dozens of kernels, so rounding compounds. The same factor
/// the repository's backend-equivalence suite uses for whole Q-networks.
const NET_TOLERANCE_FACTOR: f32 = 100.0;

type Sink = Arc<Mutex<Vec<f64>>>;

/// Times every decision of the policy the factory returns, in ms.
struct TimedPolicy {
    inner: Box<dyn DefenderPolicy>,
    sink: Sink,
    local: Vec<f64>,
}

impl DefenderPolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn reset(&mut self, topology: &Topology) {
        self.inner.reset(topology);
    }

    fn decide(
        &mut self,
        observation: &Observation,
        topology: &Topology,
        rng: &mut StdRng,
    ) -> Vec<DefenderAction> {
        let started = Instant::now();
        let actions = self.inner.decide(observation, topology, rng);
        self.local.push(started.elapsed().as_secs_f64() * 1e3);
        actions
    }

    fn make_batch_policy(&self, lanes: usize) -> Option<Box<dyn BatchPolicy>> {
        let inner = self.inner.make_batch_policy(lanes)?;
        Some(Box::new(TimedBatch {
            inner,
            sink: self.sink.clone(),
            local: Vec::new(),
        }))
    }
}

impl Drop for TimedPolicy {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.sink.lock() {
            sink.append(&mut self.local);
        }
    }
}

/// Times every lockstep round of the policy's batched form, in ms.
struct TimedBatch {
    inner: Box<dyn BatchPolicy>,
    sink: Sink,
    local: Vec<f64>,
}

impl BatchPolicy for TimedBatch {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn reset_lane(&mut self, lane: usize, topology: &Topology) {
        self.inner.reset_lane(lane, topology);
    }

    fn decide_lanes(&mut self, requests: &mut [LaneDecision<'_>]) {
        let started = Instant::now();
        self.inner.decide_lanes(requests);
        self.local.push(started.elapsed().as_secs_f64() * 1e3);
    }
}

impl Drop for TimedBatch {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.sink.lock() {
            sink.append(&mut self.local);
        }
    }
}

/// Counts gathered by the replay.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    rounds: u64,
    filled: u64,
    offered: u64,
    steps: u64,
    active_nodes: u64,
    forward_states: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.rounds += o.rounds;
        self.filled += o.filled;
        self.offered += o.offered;
        self.steps += o.steps;
        self.active_nodes += o.active_nodes;
        self.forward_states += o.forward_states;
    }
}

struct Lane {
    env: IcsEnvironment,
    obs: Observation,
    filter: DbnFilter,
    scratch: EncodeScratch,
    features: StateFeatures,
    metrics: EpisodeMetrics,
    discount: f64,
    gamma: f64,
    done: bool,
    id: u64,
}

/// The benchmark's own loop over the stages of a defended step, in the
/// engine's order: `DbnFilter::update`, `encode_active_into`, one
/// `q_values_batch` for every live lane, `greedy` and `ActionSpace::decode`,
/// then `IcsEnvironment::step`. Beside it, outside every span, the agent's
/// own decision path (its batched policy in lockstep, `decide` otherwise)
/// sees the same observations, and every step's actions must agree.
struct Replay<'a> {
    sim: &'a SimConfig,
    model: &'a DbnModel,
    agent: &'a AcsoAgent<AttentionQNet>,
    network: &'a AttentionQNet,
    space: ActionSpace,
    encoder: NodeFeatureEncoder,
    epoch: Instant,
    trace: bool,
}

/// The agent's decision path for one replayed batch, as the engine runs it.
enum Reference {
    Lockstep(Box<dyn BatchPolicy>),
    PerEpisode(Vec<AcsoAgent<AttentionQNet>>),
}

impl Reference {
    fn new(agent: &AcsoAgent<AttentionQNet>, lanes: &[Lane], capacity: usize) -> Self {
        if capacity > 1 {
            let mut policy = agent
                .make_batch_policy(capacity)
                .expect("the agent has a batched form");
            for (k, lane) in lanes.iter().enumerate() {
                policy.reset_lane(k, lane.env.topology());
            }
            Reference::Lockstep(policy)
        } else {
            Reference::PerEpisode(
                lanes
                    .iter()
                    .map(|lane| {
                        let mut policy = agent.eval_clone();
                        policy.reset(lane.env.topology());
                        policy
                    })
                    .collect(),
            )
        }
    }

    /// The actions the agent picks for the live lanes.
    fn decide(&mut self, lanes: &[Lane], live: &[usize]) -> Vec<Vec<DefenderAction>> {
        // ACSO's greedy decisions never draw from the lane RNG.
        let mut rngs: Vec<StdRng> = live.iter().map(|_| StdRng::seed_from_u64(0)).collect();
        match self {
            Reference::Lockstep(policy) => {
                let mut requests: Vec<LaneDecision<'_>> = live
                    .iter()
                    .zip(rngs.iter_mut())
                    .map(|(&k, rng)| LaneDecision {
                        lane: k,
                        observation: &lanes[k].obs,
                        topology: lanes[k].env.topology(),
                        rng,
                        actions: Vec::new(),
                    })
                    .collect();
                policy.decide_lanes(&mut requests);
                requests.into_iter().map(|r| r.actions).collect()
            }
            Reference::PerEpisode(policies) => live
                .iter()
                .zip(rngs.iter_mut())
                .map(|(&k, rng)| policies[k].decide(&lanes[k].obs, lanes[k].env.topology(), rng))
                .collect(),
        }
    }
}

struct BatchOut {
    metrics: Vec<EpisodeMetrics>,
    /// Whether each episode's actions agreed with the agent's at every step.
    agreed: Vec<bool>,
    spans: Vec<crate::trace::Span>,
    counts: Counts,
    states: Vec<StateFeatures>,
    /// Time spent in the agent's reference decisions, outside every span.
    check_s: f64,
}

impl Replay<'_> {
    /// Replays episodes `episodes` of a call seeded `base`, in lockstep
    /// batches of `lanes` over `threads` workers. Span ids are
    /// `id_base + episode`.
    fn call(
        &self,
        base: u64,
        episodes: &[usize],
        lanes: usize,
        threads: usize,
        id_base: u64,
    ) -> Vec<BatchOut> {
        let batches: Vec<&[usize]> = episodes.chunks(lanes.max(1)).collect();
        acso_runtime::run_indexed_with(
            batches.len(),
            threads,
            || self.network.clone(),
            |net, b| self.batch(net, base, batches[b], lanes, id_base),
        )
    }

    fn batch(
        &self,
        net: &mut AttentionQNet,
        base: u64,
        episodes: &[usize],
        capacity: usize,
        id_base: u64,
    ) -> BatchOut {
        let mut t = Tracer::new(self.trace, self.epoch);
        let mut counts = Counts::default();
        let mut states = Vec::new();
        let mut lanes: Vec<Lane> = episodes
            .iter()
            .map(|&e| {
                let id = id_base + e as u64;
                t.begin("episode_start", id);
                let sim = self
                    .sim
                    .clone()
                    .with_seed(acso_runtime::episode_seed(base, e));
                let mut env = IcsEnvironment::new(sim);
                let gamma = env.gamma();
                let obs = env.reset();
                t.end();
                let mut filter = DbnFilter::new(self.model.clone(), env.topology().node_count());
                filter.reset();
                Lane {
                    env,
                    obs,
                    filter,
                    scratch: EncodeScratch::new(),
                    features: StateFeatures::empty(),
                    metrics: EpisodeMetrics::new(),
                    discount: 1.0,
                    gamma,
                    done: false,
                    id,
                }
            })
            .collect();
        let mut reference = Reference::new(self.agent, &lanes, capacity);
        let mut agreed = vec![true; lanes.len()];
        let mut check_s = 0.0;
        loop {
            let live: Vec<usize> = (0..lanes.len()).filter(|&k| !lanes[k].done).collect();
            let Some(&first) = live.first() else { break };
            let round_id = lanes[first].id;
            counts.rounds += 1;
            counts.filled += live.len() as u64;
            counts.offered += capacity as u64;
            t.begin("round", round_id);
            for &k in &live {
                let lane = &mut lanes[k];
                t.begin("dbn.update", lane.id);
                lane.filter.update(&lane.obs);
                t.end();
                t.begin("encode", lane.id);
                self.encoder.encode_active_into(
                    &lane.obs,
                    &lane.filter,
                    &mut lane.scratch,
                    &mut lane.features,
                );
                t.end();
            }
            let q = {
                let batch: Vec<&StateFeatures> = live.iter().map(|&k| &lanes[k].features).collect();
                t.begin("forward", round_id);
                let q = net.q_values_batch(&batch);
                t.end();
                q
            };
            counts.forward_states += live.len() as u64;
            if states.len() < BACKEND_CHECK_STATES {
                states.push(lanes[first].features.clone());
            }
            let mut actions = Vec::with_capacity(live.len());
            for (&k, q) in live.iter().zip(&q) {
                t.begin("select", lanes[k].id);
                actions.push(self.space.decode(rl::policy::greedy(q)));
                t.end();
            }
            let mut next = Vec::with_capacity(live.len());
            for (&k, action) in live.iter().zip(&actions) {
                let lane = &mut lanes[k];
                t.begin("env.step", lane.id);
                let step = lane.env.step(std::slice::from_ref(action));
                t.end();
                lane.metrics.record_step(
                    step.reward,
                    lane.discount,
                    step.it_cost,
                    step.info.nodes_compromised,
                    step.info.plcs_offline,
                );
                lane.discount *= lane.gamma;
                counts.steps += 1;
                counts.active_nodes += step.observation.active_nodes.len() as u64;
                lane.done = step.done;
                next.push(step.observation);
            }
            t.end();
            let checked = Instant::now();
            let expected = reference.decide(&lanes, &live);
            check_s += checked.elapsed().as_secs_f64();
            for ((&k, action), expected) in live.iter().zip(&actions).zip(&expected) {
                agreed[k] &= expected.as_slice() == std::slice::from_ref(action);
            }
            for (&k, obs) in live.iter().zip(next) {
                lanes[k].obs = obs;
            }
        }
        BatchOut {
            metrics: lanes.into_iter().map(|l| l.metrics).collect(),
            agreed,
            spans: t.finish(),
            counts,
            states,
            check_s,
        }
    }
}

/// Counts one check per state: the network's Q-values against a
/// reference-backend copy's (see [`backend_matches`]).
pub fn check_backend(report: &mut Report, network: &AttentionQNet, states: &[StateFeatures]) {
    let checks = backend_matches(network, states);
    for ok in &checks {
        report.check(*ok);
    }
    report.detail("backend_checks", JsonValue::num(checks.len() as f64));
    report.detail(
        "backend_mismatches",
        JsonValue::num(checks.iter().filter(|ok| !**ok).count() as f64),
    );
}

/// Compares a network's Q-values on `states` with a reference-backend copy,
/// within the joined declared tolerance widened for a whole network.
fn backend_matches(network: &AttentionQNet, states: &[StateFeatures]) -> Vec<bool> {
    let simd = network.kernel_backend();
    let reference = neural::backend::backend_by_name("reference").expect("always compiled");
    let (rel, abs) = match Tolerance::Exact.join(simd.tolerance()) {
        Tolerance::Exact => (0.0, 0.0),
        Tolerance::Bounded { rel, abs } => (rel * NET_TOLERANCE_FACTOR, abs * NET_TOLERANCE_FACTOR),
    };
    let band = Tolerance::Bounded { rel, abs };
    let mut fast = network.clone();
    let mut exact = network.clone();
    exact.set_kernel_backend(reference);
    states
        .iter()
        .map(|s| {
            let a = fast.q_values_batch(&[s]);
            let b = exact.q_values_batch(&[s]);
            a[0].len() == b[0].len() && a[0].iter().zip(&b[0]).all(|(x, y)| band.allows(*x, *y))
        })
        .collect()
}

/// Runs an evaluation workload.
pub fn run(spec: &Spec, args: &Args) -> Report {
    let weights = setup::weights_path(spec.name, args.seed);
    let (mut defender, setup_times) = setup::repeated(|| {
        setup::defender(
            spec.scenario,
            spec.max_time,
            spec.fit,
            AgentConfig::default(),
            args.seed,
            &weights,
        )
    });
    let _ = std::fs::remove_file(&weights);
    defender.agent.set_explore(false);
    let agent = &defender.agent;

    let episodes = spec.episodes.unwrap_or_else(acso_runtime::detected_cores);
    let config_for = |k: usize| EvalConfig {
        sim: defender.sim.clone(),
        episodes,
        seed: setup::stream(args.seed, SALT_EPISODES + k as u64),
    };
    let plan = acso_runtime::plan(&workload_shape(&config_for(0)));
    let lanes = plan.lanes().unwrap_or(1);
    let sink: Sink = Arc::default();
    let factory = || -> Box<dyn DefenderPolicy> {
        Box::new(TimedPolicy {
            inner: Box::new(agent.eval_clone()),
            sink: sink.clone(),
            local: Vec::new(),
        })
    };

    // Timed region: whole evaluator calls until the time is up.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let cpu0 = sys::cpu_seconds();
    let started = Instant::now();
    let mut calls: Vec<(u64, Vec<EpisodeMetrics>)> = Vec::new();
    let mut rates = Vec::new();
    while calls.is_empty() || Instant::now() < deadline {
        let config = config_for(calls.len());
        let call_started = Instant::now();
        let evaluation = evaluate_factory_detailed(factory, &config);
        let call_steps: u64 = evaluation.episodes.iter().map(|m| m.steps).sum();
        rates.push(call_steps as f64 / call_started.elapsed().as_secs_f64());
        calls.push((config.seed, evaluation.episodes));
    }
    let wall = started.elapsed().as_secs_f64();
    let cpu_util = (sys::cpu_seconds() - cpu0) / (wall * plan.threads as f64);
    let decisions = std::mem::take(&mut *sink.lock().expect("no timing thread panicked"));
    let steps: u64 = calls
        .iter()
        .flat_map(|(_, e)| e.iter().map(|m| m.steps))
        .sum();

    let mut report = Report::default();
    report.metrics.insert("setup_s", sys::median(&setup_times));
    report.metrics.insert("steps_per_s", sys::median(&rates));
    report.detail("steps_per_s_whole_run", JsonValue::num(steps as f64 / wall));
    report
        .metrics
        .insert("latency_p50_ms", sys::median(&decisions));
    let (tail, tail_pct) =
        sys::tail(&decisions).expect("a timed region makes more than ten decisions");
    report.metrics.insert("latency_tail_ms", tail);
    report.detail("plan", JsonValue::str(plan.describe()));
    report.detail("calls", JsonValue::num(calls.len() as f64));
    report.detail("episodes", JsonValue::num((calls.len() * episodes) as f64));
    report.detail("steps", JsonValue::num(steps as f64));
    report.detail("decisions", JsonValue::num(decisions.len() as f64));
    report.detail("latency_tail_percentile", JsonValue::num(tail_pct));
    report.detail("cpu_util", JsonValue::num(cpu_util));
    report.detail(
        "setup_s_samples",
        JsonValue::Arr(setup_times.iter().map(|t| JsonValue::num(*t)).collect()),
    );

    // Replay: every episode of every call when traced, with the plan's
    // lanes and threads; untraced runs replay the first call's first
    // episodes one by one. An episode passes when its metrics are finite
    // and, where replayed, the stage loop's actions equal the agent's at
    // every step. Whole transcripts are compared too, but only reported:
    // the simulator does not reproduce long episodes exactly (see README).
    let mut prototype = agent.eval_clone();
    let network = prototype.network_mut().clone();
    let env = IcsEnvironment::new(defender.sim.clone());
    let replay = Replay {
        sim: &defender.sim,
        model: &defender.model,
        agent,
        network: &network,
        space: ActionSpace::new(env.topology()),
        encoder: NodeFeatureEncoder::new(env.topology()),
        epoch: Instant::now(),
        trace: args.trace,
    };
    let mut trace = Trace::default();
    let mut counts = Counts::default();
    let mut states = Vec::new();
    let mut agreed: Vec<Vec<Option<bool>>> = calls.iter().map(|_| vec![None; episodes]).collect();
    let mut differing = 0u64;
    let mut check_s = 0.0;
    let replay_started = Instant::now();
    let replayed: Vec<(usize, Vec<usize>, usize)> = if args.trace {
        (0..calls.len())
            .map(|k| (k, (0..episodes).collect(), lanes))
            .collect()
    } else {
        vec![(0, (0..episodes.min(plan.threads)).collect(), 1)]
    };
    for (k, which, width) in &replayed {
        let (base, expected) = &calls[*k];
        let outs = replay.call(*base, which, *width, plan.threads, (*k * episodes) as u64);
        let mut episodes_out = which.iter();
        // Workers check in parallel; the slowest one adds to the wall time.
        check_s += outs.iter().map(|o| o.check_s).fold(0.0, f64::max);
        for out in outs {
            trace.absorb(out.spans);
            counts.add(&out.counts);
            states.extend(out.states);
            for (metrics, ok) in out.metrics.iter().zip(out.agreed) {
                let e = *episodes_out
                    .next()
                    .expect("one result per replayed episode");
                agreed[*k][e] = Some(ok);
                differing += u64::from(expected[e] != *metrics);
            }
        }
    }
    // The reference decisions run beside the stage loop; leave them out of
    // the traced time.
    let replay_wall = replay_started.elapsed().as_secs_f64() - check_s;
    for ((_, episodes), agreed) in calls.iter().zip(&agreed) {
        for (metrics, agreed) in episodes.iter().zip(agreed) {
            let finite = metrics.discounted_return.is_finite() && metrics.steps > 0;
            report.check(finite && agreed.unwrap_or(true));
        }
    }
    report.detail(
        "episodes_replayed",
        JsonValue::num(agreed.iter().flatten().flatten().count() as f64),
    );
    report.detail("transcripts_differing", JsonValue::num(differing as f64));

    states.truncate(BACKEND_CHECK_STATES);
    check_backend(&mut report, &network, &states);

    if !args.trace {
        report.metrics.insert("peak_rss_mb", sys::peak_rss_mb());
        return report;
    }

    // Per-layer numbers from the traced replay.
    let stats = trace.stats();
    let self_us = |name: &str| stats.get(name).map_or(0.0, |s| s.self_us());
    let forward_states = counts.forward_states as f64 / counts.rounds.max(1) as f64;
    let shape = Shape::of(&states[0], forward_states.round() as usize);
    let layer = layers::measure(&shape, false, setup::stream(args.seed, SALT_LAYERS));
    let m = &mut report.metrics;
    m.insert("ics-sim.step_us", self_us("env.step"));
    m.insert("ics-sim.episode_start_us", self_us("episode_start"));
    m.insert(
        "ics-sim.active_nodes",
        counts.active_nodes as f64 / counts.steps.max(1) as f64,
    );
    m.insert("dbn.update_us", self_us("dbn.update"));
    m.insert("dbn.fit_s", defender.fit_s);
    m.insert("acso-core.encode_us", self_us("encode"));
    m.insert("acso-core.forward_us", self_us("forward"));
    m.insert("acso-core.forward_states", forward_states);
    m.insert(
        "acso-core.qnet_glue_us",
        self_us("forward") - layer.fwd_total_us(),
    );
    m.insert("acso-core.engine_us", self_us("round"));
    m.insert(
        "acso-core.batch_fill",
        counts.filled as f64 / counts.offered.max(1) as f64,
    );
    layer.insert_forward(m);
    m.insert("acso-runtime.cpu_util", cpu_util);
    m.insert("perfbench.trace_overhead", replay_wall / wall - 1.0);
    m.insert("perfbench.coverage", trace.coverage("round"));
    let round_us = stats
        .get("round")
        .map_or(f64::NAN, |s| s.total as f64 / s.count as f64 / 1e3);
    report.detail(
        "forward_share_of_step",
        JsonValue::num(self_us("forward") / round_us),
    );
    report.detail(
        "attention_share_of_forward",
        JsonValue::num(layer.attention_us() / self_us("forward")),
    );
    report.detail("layers", layer.describe(&shape));
    report.trace = Some(trace);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use acso_core::ScenarioRegistry;
    use dbn::learn::{learn_model, LearnConfig};

    #[test]
    fn a_stage_loop_that_disagrees_with_the_agent_fails_its_episodes() {
        let sim = setup::scenario_sim(&ScenarioRegistry::builtin(), "tiny", Some(20));
        let model = learn_model(&LearnConfig {
            episodes: 1,
            seed: 1,
            sim: sim.clone(),
        });
        let env = IcsEnvironment::new(sim.clone());
        let space = ActionSpace::new(env.topology());
        let mut agent = AcsoAgent::new(
            env.topology(),
            model.clone(),
            AttentionQNet::new(space.clone(), 1),
            AgentConfig::default(),
        );
        agent.set_explore(false);
        let own = agent.network_mut().clone();
        let perturbed = AttentionQNet::new(space.clone(), 2);
        let agreed = |network: &AttentionQNet, lanes: usize| -> Vec<bool> {
            let replay = Replay {
                sim: &sim,
                model: &model,
                agent: &agent,
                network,
                space: space.clone(),
                encoder: NodeFeatureEncoder::new(env.topology()),
                epoch: Instant::now(),
                trace: false,
            };
            replay
                .call(7, &[0, 1], lanes, 1, 0)
                .into_iter()
                .flat_map(|o| o.agreed)
                .collect()
        };
        for lanes in [1, 2] {
            assert_eq!(agreed(&own, lanes), [true, true]);
            assert!(agreed(&perturbed, lanes).contains(&false));
        }
    }
}
