//! Shared plumbing for the experiment binaries and Criterion benchmarks.
//!
//! Every table and figure of the paper has a corresponding binary in
//! `src/bin/` (see DESIGN.md's per-experiment index); this library holds the
//! command-line scale selection and output formatting they share, plus the
//! [`soak`] invariant-sweep harness behind the `soak` binary.

#![warn(missing_docs)]

pub mod soak;

use acso_core::agent::{AcsoAgent, AgentConfig, QNetwork};
use acso_core::experiments::ExperimentScale;
use acso_core::features::NodeFeatureEncoder;
use acso_core::{ActionSpace, StateFeatures};
use dbn::learn::{learn_model, LearnConfig};
use dbn::DbnFilter;
use ics_net::TopologySpec;
use ics_sim::{DefenderAction, IcsEnvironment, SimConfig};
use rl::DqnConfig;

/// Which scale an experiment binary should run at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny smoke run (seconds) — sanity check only.
    Smoke,
    /// Reduced run (minutes on a laptop) — the default.
    Quick,
    /// Paper-scale run (full topology, 100 evaluation episodes).
    Paper,
}

impl Scale {
    /// Parses the scale from command-line arguments: `--smoke`, `--quick`
    /// (default) or `--paper` / `--full`.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut scale = Scale::Quick;
        for arg in args {
            match arg.as_str() {
                "--smoke" => scale = Scale::Smoke,
                "--quick" => scale = Scale::Quick,
                "--paper" | "--full" => scale = Scale::Paper,
                _ => {}
            }
        }
        scale
    }

    /// The experiment scale configuration for this setting.
    pub fn experiment_scale(&self) -> ExperimentScale {
        match self {
            Scale::Smoke => ExperimentScale::smoke(),
            Scale::Quick => ExperimentScale::quick(),
            Scale::Paper => ExperimentScale::paper(),
        }
    }

    /// Human-readable label used in output headers.
    pub fn label(&self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Quick => "quick (reduced)",
            Scale::Paper => "paper",
        }
    }
}

/// Encodes `count` distinct decision-point states from one undefended
/// episode on `spec` (beliefs and alerts evolve as the attack progresses),
/// for benchmarks that need realistic, non-identical batch inputs. Shared by
/// `perf_smoke` and the `batched_inference` criterion bench so their inputs
/// cannot drift apart.
pub fn episode_states(spec: TopologySpec, count: usize) -> (Vec<StateFeatures>, ActionSpace) {
    let sim = SimConfig {
        topology: spec,
        ..SimConfig::tiny()
    }
    .with_max_time(4 * count as u64 + 50);
    trajectory_states(sim, count, 3)
}

/// Encodes `count` decision-point states of one undefended episode of
/// `sim`, `stride` hours apart (the first at hour 0), with the DBN filter
/// fit on one episode of the same simulator at seed 0.
pub fn trajectory_states(
    sim: SimConfig,
    count: usize,
    stride: usize,
) -> (Vec<StateFeatures>, ActionSpace) {
    let model = learn_model(&LearnConfig {
        episodes: 1,
        seed: 0,
        sim: sim.clone(),
    });
    let mut env = IcsEnvironment::new(sim);
    let mut obs = env.reset();
    let encoder = NodeFeatureEncoder::new(env.topology());
    let mut filter = DbnFilter::new(model, env.topology().node_count());
    let space = ActionSpace::new(env.topology());
    let mut states = Vec::with_capacity(count);
    for _ in 0..count {
        filter.update(&obs);
        states.push(encoder.encode(&obs, &filter));
        for _ in 0..stride {
            obs = env.step(&[DefenderAction::NoAction]).observation;
        }
    }
    (states, space)
}

/// Hand-built variants of a real encoded state that pin grouped Q-network
/// inference at its edges, in this order: every node row equal (hosts and
/// servers still split by head routing); a host row with a server row's
/// bits; two node rows and two PLC rows that differ only in the sign of a
/// zero; and every node row distinct (no row to group).
///
/// # Panics
///
/// Panics if `base` has fewer than two hosts, servers or PLCs.
pub fn grouping_edge_states(base: &StateFeatures) -> Vec<StateFeatures> {
    let (host, server) = (base.host_rows[0], base.server_rows[0]);
    let copy_row = |f: &mut StateFeatures, from: usize, to: usize| {
        let src = f.nodes.row(from).to_vec();
        f.nodes.row_mut(to).copy_from_slice(&src);
    };
    let mut all_equal = base.clone();
    for node in 1..all_equal.node_count() {
        copy_row(&mut all_equal, 0, node);
    }
    let mut host_as_server = base.clone();
    copy_row(&mut host_as_server, server, host);
    let mut signed_zero = base.clone();
    let twin = base.host_rows[1];
    copy_row(&mut signed_zero, host, twin);
    let col = base.nodes.row(host).iter().position(|&v| v == 0.0).unwrap();
    signed_zero.nodes.row_mut(twin)[col] = -0.0;
    let plc = signed_zero.plcs.row(0).to_vec();
    signed_zero.plcs.row_mut(1).copy_from_slice(&plc);
    let col = plc.iter().position(|&v| v == 0.0).unwrap();
    signed_zero.plcs.row_mut(1)[col] = -0.0;
    let mut distinct = base.clone();
    for node in 0..distinct.node_count() {
        distinct.nodes.row_mut(node)[0] += node as f32 * 1e-3;
    }
    vec![all_equal, host_as_server, signed_zero, distinct]
}

/// Builds an agent on the `paper_small` topology with the given minibatch
/// size and prefills its replay past warm-up by driving one exploring
/// episode — the fixture for update benchmarks (`batched_training`,
/// `perf_smoke`): each subsequent `maybe_train` call runs exactly one
/// gradient update over a `batch_size` minibatch.
pub fn prefilled_update_agent<N: QNetwork + Clone>(
    make_network: impl FnOnce(ActionSpace) -> N,
    batch_size: usize,
) -> AcsoAgent<N> {
    let steps = 200u64;
    let sim = SimConfig {
        topology: TopologySpec::paper_small(),
        ..SimConfig::tiny()
    }
    .with_max_time(steps + 50);
    let model = learn_model(&LearnConfig {
        episodes: 1,
        seed: 0,
        sim: sim.clone(),
    });
    let mut env = IcsEnvironment::new(sim);
    let space = ActionSpace::new(env.topology());
    let config = AgentConfig {
        dqn: DqnConfig {
            batch_size,
            // `maybe_train` is gated by the caller, so every explicit call
            // during the benchmark runs one update...
            update_every: 1,
            warmup_transitions: 64,
            // ...and the target network never syncs mid-measurement.
            target_update_interval: u64::MAX,
            ..DqnConfig::smoke()
        },
        learning_rate: 1e-4,
        seed: 0,
    };
    let mut agent = AcsoAgent::new(env.topology(), model, make_network(space), config);
    agent.begin_episode();
    let obs = env.reset();
    let (mut action, mut state) = agent.select_action(&obs);
    for _ in 0..steps {
        let step = env.step(&[agent.action_space().decode(action)]);
        let (next_action, next_state) = agent.select_action(&step.observation);
        agent.store_transition(
            state,
            action,
            step.reward + step.shaping_reward,
            next_state,
            step.done,
        );
        action = next_action;
        state = next_state;
        if step.done {
            break;
        }
    }
    assert!(
        agent.replay_buffered() >= 64,
        "prefill left replay below warm-up"
    );
    agent
}

/// Applies the `--batch N` command-line flag: sets the `ACSO_BATCH`
/// environment variable (the switch the evaluation pipeline reads) before
/// any worker threads exist. Returns the lane count now in effect, if any.
pub fn apply_batch_flag<I: IntoIterator<Item = String>>(args: I) -> Option<usize> {
    let args: Vec<String> = args.into_iter().collect();
    if let Some(i) = args.iter().position(|a| a == "--batch") {
        let lanes = args
            .get(i + 1)
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|n| *n > 0)
            .expect("--batch needs a positive lane count");
        std::env::set_var(acso_runtime::BATCH_ENV_VAR, lanes.to_string());
    }
    acso_runtime::batch_lanes()
}

/// Prints the standard experiment header: what is being reproduced, at which
/// scale, over how many rollout worker threads, and at which lane width.
pub fn print_header(artefact: &str, scale: Scale) {
    println!("==========================================================");
    println!("Reproducing {artefact}");
    println!("Scale: {}", scale.label());
    println!(
        "Rollout threads: {} (override with {})",
        acso_runtime::available_threads(),
        acso_runtime::THREADS_ENV_VAR
    );
    match acso_runtime::batch_lanes() {
        Some(lanes) => println!(
            "Lockstep lanes: {lanes} per worker ({}=N / --batch N)",
            acso_runtime::BATCH_ENV_VAR
        ),
        None => println!(
            "Lockstep lanes: autoscaled (several per worker at >= {} nodes or >= {} actions, \
             one below; pin with {}=N or --batch N)",
            acso_runtime::LOCKSTEP_NODE_THRESHOLD,
            acso_runtime::LOCKSTEP_ACTION_THRESHOLD,
            acso_runtime::BATCH_ENV_VAR
        ),
    }
    println!("(Use --smoke / --quick / --paper to change; see EXPERIMENTS.md)");
    println!("==========================================================");
}

/// Formats a mean ± standard-error pair the way the paper's tables do.
pub fn fmt_mean(mean_std: &ics_sim::metrics::MeanStdErr) -> String {
    format!("{:.2} ± {:.2}", mean_std.mean, mean_std.std_err)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_defaults_to_quick() {
        assert_eq!(Scale::from_args(Vec::<String>::new()), Scale::Quick);
        assert_eq!(Scale::from_args(vec!["--smoke".to_string()]), Scale::Smoke);
        assert_eq!(
            Scale::from_args(vec!["prog".to_string(), "--paper".to_string()]),
            Scale::Paper
        );
        assert_eq!(Scale::from_args(vec!["--full".to_string()]), Scale::Paper);
        assert_eq!(
            Scale::from_args(vec!["--unknown".to_string()]),
            Scale::Quick
        );
    }

    #[test]
    fn scales_map_to_experiment_configurations() {
        assert_eq!(Scale::Smoke.experiment_scale().eval_episodes, 2);
        assert_eq!(Scale::Paper.experiment_scale().eval_episodes, 100);
        assert!(Scale::Quick.experiment_scale().eval_episodes < 100);
        assert_eq!(Scale::Paper.label(), "paper");
    }

    #[test]
    fn mean_formatting() {
        let m = ics_sim::metrics::MeanStdErr {
            mean: 2149.9,
            std_err: 0.2,
        };
        assert_eq!(fmt_mean(&m), "2149.90 ± 0.20");
    }
}
