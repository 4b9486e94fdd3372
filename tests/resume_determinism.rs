//! Resume-determinism pin for `ACSOSNAP` training checkpoints.
//!
//! The contract: *train 2N episodes* and *train N episodes, checkpoint, kill
//! the process, rebuild from scratch, restore, train N more* must produce
//! **bit-identical** agents — same serialized weight bytes, same
//! full-precision training history, same greedy evaluation transcript. That
//! is what makes checkpointing a durability feature rather than a silent
//! fork of the training semantics.
//!
//! The "kill" is simulated faithfully: the resumed half starts from a
//! freshly constructed agent (new DBN fit, new network init, new RNG), the
//! way a restarted process would, and only then applies the snapshot.
//!
//! Both network architectures are covered; the attention network runs in
//! every tier-1 pass, the baseline network is release-only (the
//! batch-determinism CI job runs it).
//!
//! Re-bless (only for an intentional change to the training semantics) with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --release --test resume_determinism
//! ```

use acso_core::agent::io::save_weights_to;
#[cfg(not(debug_assertions))]
use acso_core::agent::BaselineConvQNet;
use acso_core::agent::{AcsoAgent, AttentionQNet, QNetwork};
use acso_core::snapshot::fnv1a64;
use acso_core::train::{train_agent, train_agent_checkpointed, TrainConfig, TrainReport};
use acso_core::{ActionSpace, CheckpointConfig, DefenderPolicy};
use dbn::learn::{learn_model, LearnConfig};
use ics_sim::IcsEnvironment;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

/// Seed of the pinned runs (environment, network init and exploration).
const SEED: u64 = 23;
/// The uninterrupted run trains this many episodes; the interrupted run
/// checkpoints at the midpoint.
const TOTAL_EPISODES: usize = 2;
const MIDPOINT: usize = TOTAL_EPISODES / 2;
/// Fixed seed of the greedy post-training evaluation episode.
const EVAL_SEED: u64 = 77;

fn config() -> TrainConfig {
    TrainConfig::smoke(TOTAL_EPISODES).with_seed(SEED)
}

/// Builds a cold agent exactly the way `train_attention_acso` does — from
/// nothing but the configuration — so the resumed half genuinely rebuilds
/// the world a restarted process would.
fn cold_agent<N: QNetwork + Clone>(make: impl Fn(ActionSpace, u64) -> N) -> AcsoAgent<N> {
    let config = config();
    let dbn_model = learn_model(&LearnConfig {
        episodes: config.dbn_episodes,
        seed: config.seed,
        sim: config.sim.clone(),
    });
    let env = IcsEnvironment::new(config.sim.clone().with_seed(config.seed));
    let network = make(ActionSpace::new(env.topology()), config.seed);
    AcsoAgent::new(env.topology(), dbn_model, network, config.agent.clone())
}

/// Digest of serialized weights, full-precision history, and a greedy
/// fixed-seed evaluation transcript — the same shape as the training golden.
fn fingerprint<N: QNetwork + Clone + 'static>(
    agent: &mut AcsoAgent<N>,
    report: &TrainReport,
) -> String {
    let mut weight_bytes = Vec::new();
    save_weights_to(agent.network_mut(), &mut weight_bytes).expect("serialize weights");

    let mut out = String::new();
    out.push_str("schema: acso-resume-golden/v1\n");
    out.push_str(&format!(
        "weights_fnv1a64: {:016x}\n",
        fnv1a64(&weight_bytes)
    ));
    out.push_str(&format!("weights_len: {}\n", weight_bytes.len()));
    out.push_str(&format!("env_steps: {}\n", report.env_steps));
    out.push_str(&format!("updates: {}\n", report.updates));
    out.push_str(&format!("episode_returns: {:?}\n", report.episode_returns));
    out.push_str(&format!("episode_losses: {:?}\n", report.episode_losses));

    let sim = config().sim.with_seed(EVAL_SEED);
    let mut env = IcsEnvironment::new(sim);
    let topology = env.topology().clone();
    let mut rng = StdRng::seed_from_u64(EVAL_SEED);
    let mut obs = env.reset();
    agent.reset(&topology);
    out.push_str("transcript:\n");
    for t in 0..120 {
        let actions = agent.decide(&obs, &topology, &mut rng);
        let step = env.step(&actions);
        out.push_str(&format!(
            "  t={t} actions={actions:?} reward={:?} done={}\n",
            step.reward, step.done
        ));
        obs = step.observation;
        if step.done {
            break;
        }
    }
    out
}

/// Runs one architecture through the uninterrupted and interrupted-resumed
/// paths and returns both fingerprints.
fn run_combo<N: QNetwork + Clone + 'static>(
    tag: &str,
    make: impl Fn(ActionSpace, u64) -> N + Copy,
) -> (String, String) {
    let cfg = config();

    // Uninterrupted reference: 2N episodes straight through.
    let mut straight = cold_agent(make);
    let straight_report = train_agent(&mut straight, &cfg.sim, TOTAL_EPISODES, cfg.seed);

    // Interrupted run: N episodes, checkpoint, "kill".
    let path = std::env::temp_dir().join(format!("acso_resume_{tag}.acsosnap"));
    let checkpoint = CheckpointConfig::new(&path, MIDPOINT.max(1));
    let mut first_half = cold_agent(make);
    train_agent_checkpointed(
        &mut first_half,
        &cfg.sim,
        MIDPOINT,
        cfg.seed,
        &checkpoint,
        false,
    )
    .expect("checkpointed first half");
    drop(first_half);

    // Restart: rebuild the world from scratch, restore, finish the run.
    let mut resumed = cold_agent(make);
    let resumed_report = train_agent_checkpointed(
        &mut resumed,
        &cfg.sim,
        TOTAL_EPISODES,
        cfg.seed,
        &checkpoint,
        true,
    )
    .expect("resumed second half");
    let _ = std::fs::remove_file(&path);

    (
        fingerprint(&mut straight, &straight_report),
        fingerprint(&mut resumed, &resumed_report),
    )
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Asserts the resumed fingerprint equals the uninterrupted one, and pins
/// both against the golden fixture (blessed from the uninterrupted run).
fn assert_combo(tag: &str, golden: &str, straight: String, resumed: String) {
    assert_eq!(
        straight, resumed,
        "{tag}: resumed training diverged from the uninterrupted run"
    );
    let path = golden_path(golden);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &straight).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run UPDATE_GOLDEN=1 to bless",
            path.display()
        )
    });
    assert_eq!(
        straight, expected,
        "{tag}: training outcome diverged from the golden fixture"
    );
}

#[test]
fn attention_batched_resume_is_bit_identical() {
    let (straight, resumed) = run_combo("attention_batched", AttentionQNet::new);
    assert_combo(
        "attention/batched",
        "resume_attention.txt",
        straight,
        resumed,
    );
}

#[cfg(not(debug_assertions))]
#[test]
fn baseline_batched_resume_is_bit_identical() {
    let (straight, resumed) = run_combo("baseline_batched", BaselineConvQNet::new);
    assert_combo("baseline/batched", "resume_baseline.txt", straight, resumed);
}

/// A truncated checkpoint must be rejected by the container digest before
/// any agent state is touched: the restart path can then degrade to a cold
/// start instead of training on garbage.
#[test]
fn torn_checkpoint_is_rejected_and_leaves_the_agent_cold() {
    let cfg = config();
    let path = std::env::temp_dir().join("acso_resume_torn.acsosnap");
    let checkpoint = CheckpointConfig::new(&path, 1);
    let mut agent = cold_agent(AttentionQNet::new);
    train_agent_checkpointed(&mut agent, &cfg.sim, 1, cfg.seed, &checkpoint, false)
        .expect("checkpointed run");

    // Tear the write: keep a prefix long enough to look structurally alive.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

    let mut restarted = cold_agent(AttentionQNet::new);
    let before = restarted.trainer().counters();
    let err = train_agent_checkpointed(
        &mut restarted,
        &cfg.sim,
        TOTAL_EPISODES,
        cfg.seed,
        &checkpoint,
        true,
    )
    .expect_err("a torn checkpoint must not resume");
    assert!(
        err.to_string().contains("digest mismatch"),
        "torn write should fail the digest check, got: {err}"
    );
    // The failed restore left the cold agent untouched — counters unchanged.
    assert_eq!(restarted.trainer().counters(), before);
    let _ = std::fs::remove_file(&path);
}
