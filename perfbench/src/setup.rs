//! Set-up shared by the workloads: seed streams, the weights file, and the
//! attention ACSO under test.

use acso_core::agent::{load_weights, save_weights, AcsoAgent, AgentConfig, AttentionQNet};
use acso_core::{ActionSpace, ScenarioRegistry};
use dbn::learn::{learn_model, LearnConfig};
use dbn::DbnModel;
use ics_sim::{IcsEnvironment, SimConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Stream salts: every random input of a workload is
/// `mersenne_stream(workload seed, salt)`.
pub const SALT_WEIGHTS: u64 = 1;
/// Salt of the DBN fit's data-collection seed.
pub const SALT_DBN: u64 = 2;
/// Salt of the agent's exploration seed (train-small).
pub const SALT_AGENT: u64 = 3;
/// Salt of the serve request mix.
pub const SALT_REQUESTS: u64 = 4;
/// Salt of the stand-alone layer inputs.
pub const SALT_LAYERS: u64 = 5;
/// Base salt of episode seeds: evaluator call or training run `k` uses
/// `SALT_EPISODES + k`.
pub const SALT_EPISODES: u64 = 1_000;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// An independent stream of the workload seed.
pub fn stream(seed: u64, salt: u64) -> u64 {
    acso_runtime::mersenne_stream(seed, salt)
}

/// The seed of the DBN fit. It is below 2^53, so it survives a JSON number
/// in a `load_policy` request.
pub fn dbn_seed(seed: u64) -> u64 {
    stream(seed, SALT_DBN) >> 11
}

/// Where runs write the weights file, the run record and the span file.
pub fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create the benchmark's output directory");
    dir
}

/// The weights file of one run (the process id keeps concurrent runs apart).
pub fn weights_path(workload: &str, seed: u64) -> PathBuf {
    out_dir().join(format!("{workload}-{seed}-{}.acsowts", std::process::id()))
}

/// The simulator configuration of a built-in scenario, with an optional
/// horizon override.
pub fn scenario_sim(
    registry: &ScenarioRegistry,
    scenario: &str,
    max_time: Option<u64>,
) -> SimConfig {
    let sim = registry
        .get(scenario)
        .unwrap_or_else(|| panic!("built-in scenario `{scenario}` exists"))
        .config
        .clone();
    match max_time {
        Some(t) => sim.with_max_time(t),
        None => sim,
    }
}

/// Writes the policy's weights: an attention Q-net initialised from the
/// seed. Its parameters do not depend on the topology, so one file serves
/// every scale.
pub fn write_weights(path: &Path, seed: u64) {
    let mut net = AttentionQNet::new(ActionSpace::from_counts(1, 1), stream(seed, SALT_WEIGHTS));
    save_weights(&mut net, path).expect("write the weights file");
}

/// How the DBN is fit at set-up: random-defender episodes at a horizon.
#[derive(Debug, Clone, Copy)]
pub struct DbnFit {
    /// Data-collection episodes.
    pub episodes: usize,
    /// Their horizon in hours.
    pub max_time: u64,
}

/// The ACSO under test and what built it.
pub struct Defender {
    /// The scenario's simulator configuration.
    pub sim: SimConfig,
    /// The fitted DBN.
    pub model: DbnModel,
    /// The agent, weights loaded from the file.
    pub agent: AcsoAgent<AttentionQNet>,
    /// Wall time of the DBN fit, s.
    pub fit_s: f64,
}

/// One full set-up: registry and topology build, DBN fit, weights write and
/// load, agent construction.
pub fn defender(
    scenario: &str,
    max_time: Option<u64>,
    fit: DbnFit,
    config: AgentConfig,
    seed: u64,
    weights: &Path,
) -> Defender {
    let registry = ScenarioRegistry::builtin();
    let sim = scenario_sim(&registry, scenario, max_time);
    let started = Instant::now();
    let model = learn_model(&LearnConfig {
        episodes: fit.episodes,
        seed: dbn_seed(seed),
        sim: sim.clone().with_max_time(fit.max_time),
    });
    let fit_s = started.elapsed().as_secs_f64();
    write_weights(weights, seed);
    let env = IcsEnvironment::new(sim.clone());
    let mut network = AttentionQNet::new(ActionSpace::new(env.topology()), 0);
    load_weights(&mut network, weights).expect("load the weights file");
    let agent = AcsoAgent::new(env.topology(), model.clone(), network, config);
    Defender {
        sim,
        model,
        agent,
        fit_s,
    }
}

/// Runs a set-up [`SETUP_REPEATS`] times and keeps the last result, with
/// the wall time of each repetition.
pub fn repeated<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        last = Some(setup());
        times.push(started.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// Every parameter value of a network, in parameter order.
pub fn weights_of(network: &mut AttentionQNet) -> Vec<f32> {
    use acso_core::agent::QNetwork;
    network
        .params_mut()
        .iter()
        .flat_map(|p| p.value.data().iter().copied())
        .collect()
}
