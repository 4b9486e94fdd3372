//! Training-determinism pin for the batch-first DQN update.
//!
//! The golden fixture (`tests/golden/train_smoke.txt`) was captured **before**
//! the batched-training refactor, while `AcsoAgent::maybe_train` still
//! backpropagated one replay sample at a time. Training the same smoke
//! scenario must keep producing **bit-identical** agent weights and greedy
//! evaluation transcripts — that is the contract that makes the batched
//! update a pure performance change rather than a silent behaviour change.
//! The per-sample loop itself is test code in acso-core: its unit test
//! `batched_and_serial_updates_are_bit_identical` trains this configuration
//! both ways in release builds.
//!
//! Re-bless (only for an intentional change to the training semantics) with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --release --test train_determinism
//! ```

use acso_core::agent::io::save_weights_to;
use acso_core::train::{train_attention_acso, TrainConfig, TrainedAcso};
use acso_core::DefenderPolicy;
use ics_sim::IcsEnvironment;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

const GOLDEN_PATH: &str = "tests/golden/train_smoke.txt";
/// Seed of the pinned smoke run (environment, network init and exploration).
const SEED: u64 = 11;
const EPISODES: usize = 2;
/// Fixed seed of the greedy post-training evaluation episode.
const EVAL_SEED: u64 = 71;

fn train_smoke() -> TrainedAcso {
    train_attention_acso(&TrainConfig::smoke(EPISODES).with_seed(SEED))
}

/// FNV-1a 64-bit digest — dependency-free and stable across platforms for a
/// byte-exact input, which is all a bit-identity pin needs.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Renders the trained agent as a golden-comparable document: a digest of
/// every serialized weight byte, the full-precision training history, and a
/// greedy evaluation transcript on a fixed-seed episode.
fn fingerprint(trained: &mut TrainedAcso) -> String {
    let mut weight_bytes = Vec::new();
    save_weights_to(trained.agent.network_mut(), &mut weight_bytes).expect("serialize weights");

    let mut out = String::new();
    out.push_str("schema: acso-train-golden/v1\n");
    out.push_str(&format!(
        "weights_fnv1a64: {:016x}\n",
        fnv1a64(&weight_bytes)
    ));
    out.push_str(&format!("weights_len: {}\n", weight_bytes.len()));
    out.push_str(&format!("env_steps: {}\n", trained.report.env_steps));
    out.push_str(&format!("updates: {}\n", trained.report.updates));
    // `{:?}` on f64 prints the shortest round-trip representation, so any
    // single-ulp drift in the training arithmetic changes this line.
    out.push_str(&format!(
        "episode_returns: {:?}\n",
        trained.report.episode_returns
    ));

    // Greedy evaluation transcript: decisions consume no randomness, so this
    // pins the post-training policy itself.
    let sim = TrainConfig::smoke(EPISODES).sim.with_seed(EVAL_SEED);
    let mut env = IcsEnvironment::new(sim);
    let topology = env.topology().clone();
    let mut rng = StdRng::seed_from_u64(EVAL_SEED);
    let mut obs = env.reset();
    trained.agent.reset(&topology);
    out.push_str("transcript:\n");
    for t in 0..120 {
        let actions = trained.agent.decide(&obs, &topology, &mut rng);
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

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(GOLDEN_PATH)
}

#[test]
fn training_matches_pre_refactor_golden_fixture() {
    let mut trained = train_smoke();
    let actual = fingerprint(&mut trained);
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
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
        actual, expected,
        "training diverged from the pre-refactor serial-update fixture"
    );
}

/// Replay-memory smoke assertion: the feature arena must hold at most half
/// the bytes of the pre-refactor layout (two owned feature sets per replay
/// transition), with a small additive slack for the window/terminal states
/// each episode shares.
#[test]
fn arena_replay_memory_is_at_most_half_the_pre_refactor_layout() {
    let config = TrainConfig::smoke(1).with_seed(SEED);
    let trained = train_attention_acso(&config);

    // Per-feature footprint measured from a real encoding of this scenario.
    let mut env = IcsEnvironment::new(config.sim.clone().with_seed(SEED));
    let obs = env.reset();
    let encoder = acso_core::features::NodeFeatureEncoder::new(env.topology());
    let filter = dbn::DbnFilter::new(trained.dbn_model.clone(), env.topology().node_count());
    let features = encoder.encode(&obs, &filter);
    let feature_bytes = (features.nodes.len() + features.plcs.len() + features.plc_summary.len())
        * std::mem::size_of::<f32>()
        + (features.host_rows.len() + features.server_rows.len()) * std::mem::size_of::<usize>();

    let buffered = trained.agent.replay_buffered();
    let live = trained.agent.replay_arena_live();
    assert!(buffered > 100, "smoke run should fill replay ({buffered})");

    let arena_bytes = live * feature_bytes;
    let pre_refactor_bytes = buffered * 2 * feature_bytes;
    // Slack: one extra shared state per episode boundary plus the in-flight
    // decision point.
    let slack_bytes = 4 * feature_bytes;
    assert!(
        arena_bytes <= pre_refactor_bytes / 2 + slack_bytes,
        "arena holds {live} live feature sets ({arena_bytes} B) for {buffered} transitions; \
         pre-refactor layout would be {pre_refactor_bytes} B"
    );
}
