//! Seeded mutation suites over every decoder that reads bytes from outside
//! the process: the `ACSOSNAP` container (`Snapshot::parse`) with the train
//! checkpoint and the serve state, `ACSOWTS` weight files, scenario TOML and
//! serve's JSON.
//!
//! Each decoder gets arbitrary bytes and seeded mutations of a valid
//! encoding (flip a byte, truncate, insert bytes, or overwrite a 4- or
//! 8-byte field with zeros or all-ones) and must answer with a value or a
//! typed error, never a panic. Mutated containers are re-sealed (their
//! FNV-1a-64 trailer recomputed, as anyone can) and section payloads are
//! mutated in place, so the mutations reach the section decoders rather than
//! stopping at the digest check. Every valid encoding must round-trip
//! unchanged.
//!
//! Every choice of a case is drawn from `acso_runtime::mersenne_stream(case
//! seed, k)` for k = 1, 2, ..., so a failure names the one `u64` that
//! replays it: `mutated(valid, seed)` rebuilds the same input.

use acso_core::agent::{io as weights, AcsoAgent, AgentConfig, AttentionQNet};
use acso_core::snapshot::{
    decode_train_checkpoint, encode_train_checkpoint, fnv1a64, Snapshot, SnapshotBuilder,
};
use acso_core::train::TrainReport;
use acso_core::{ActionSpace, ScenarioRegistry};
use acso_serve::json::JsonValue;
use acso_serve::state::{self, PolicyRecord, ServeState};
use dbn::learn::{learn_model, LearnConfig};
use ics_sim::{DefenderAction, IcsEnvironment, Scenario, SimConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Cases per suite, sized so the five suites take a few seconds together
/// in a debug build.
const CHECKPOINT_CASES: u64 = 150;
const STATE_CASES: u64 = 2_000;
const WEIGHTS_CASES: u64 = 300;
const TOML_CASES: u64 = 2_000;
const JSON_CASES: u64 = 10_000;

/// The seeded choices of one case.
struct Draws {
    seed: u64,
    k: u64,
}

impl Draws {
    fn new(seed: u64) -> Self {
        Self { seed, k: 0 }
    }

    fn next(&mut self) -> u64 {
        self.k += 1;
        acso_runtime::mersenne_stream(self.seed, self.k)
    }

    /// A value in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A position in `0..len`, half the time among the first 64: headers,
    /// counts and shapes sit at the front of every encoding here.
    fn position(&mut self, len: usize) -> usize {
        let span = if self.below(2) == 0 { len.min(64) } else { len };
        self.below(span.max(1))
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

/// One to three seeded edits of `bytes`.
fn mutate(bytes: &mut Vec<u8>, d: &mut Draws) {
    for _ in 0..1 + d.below(3) {
        let len = bytes.len();
        match d.below(5) {
            0 if len > 0 => {
                let at = d.position(len);
                bytes[at] ^= 1 + d.below(255) as u8;
            }
            1 => bytes.truncate(d.below(len + 1)),
            2 => {
                let at = d.position(len + 1);
                let len = 1 + d.below(16);
                let extra = d.bytes(len);
                bytes.splice(at..at, extra);
            }
            3 | 4 => {
                let width = if d.below(2) == 0 { 4 } else { 8 };
                if len >= width {
                    let at = d.position(len - width + 1);
                    let fill = if d.below(2) == 0 { 0x00 } else { 0xff };
                    bytes[at..at + width].fill(fill);
                }
            }
            _ => {}
        }
    }
}

/// An input for case `seed`: a tenth are arbitrary bytes, the rest seeded
/// mutations of `valid`.
fn mutated(valid: &[u8], seed: u64) -> Vec<u8> {
    let mut d = Draws::new(seed);
    if d.below(10) == 0 {
        let len = d.below(96);
        return d.bytes(len);
    }
    let mut bytes = valid.to_vec();
    mutate(&mut bytes, &mut d);
    bytes
}

/// Recomputes a container's FNV-1a-64 trailer over everything before it.
fn reseal(bytes: &mut [u8]) {
    if bytes.len() >= 8 {
        let at = bytes.len() - 8;
        let digest = fnv1a64(&bytes[..at]);
        bytes[at..].copy_from_slice(&digest.to_le_bytes());
    }
}

/// An `ACSOSNAP` input for case `seed`: like [`mutated`], except that half
/// the mutations edit one section's payload and rebuild the container
/// around it, and most mutated containers are re-sealed.
fn mutated_container(valid: &[u8], seed: u64) -> Vec<u8> {
    let mut d = Draws::new(seed ^ 0x5ec7_1075);
    if d.below(2) == 0 {
        let mut sections = sections_of(valid);
        let pick = d.below(sections.len());
        mutate(&mut sections[pick].1, &mut d);
        let mut builder = SnapshotBuilder::new();
        for (tag, payload) in sections {
            builder.section(&tag, payload);
        }
        return builder.finish();
    }
    let mut bytes = mutated(valid, seed);
    if d.below(4) != 0 {
        reseal(&mut bytes);
    }
    bytes
}

/// The sections of a valid container, in order: magic (8 bytes), version
/// and section count (4 each), then per section an 8-byte tag, an 8-byte
/// length and the payload; the digest trails.
fn sections_of(bytes: &[u8]) -> Vec<(String, Vec<u8>)> {
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    let mut at = 16;
    (0..count)
        .map(|_| {
            let tag = String::from_utf8(bytes[at..at + 8].to_vec()).unwrap();
            let len = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap()) as usize;
            at += 16 + len;
            let tag = tag.trim_end_matches('\0').to_string();
            (tag, bytes[at - len..at].to_vec())
        })
        .collect()
}

/// Runs `cases` inputs through `decode` and counts the inputs it reports as
/// accepted; a panic fails the suite with the case seed that replays it.
fn fuzz(
    name: &str,
    salt: u64,
    cases: u64,
    input: impl Fn(u64) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> bool,
) -> u64 {
    let mut accepted = 0;
    for case in 0..cases {
        let seed = acso_runtime::mersenne_stream(0xdec0_de00 ^ salt, case);
        let bytes = input(seed);
        match catch_unwind(AssertUnwindSafe(|| decode(&bytes))) {
            Ok(ok) => accepted += u64::from(ok),
            Err(panic) => {
                let message = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("?");
                panic!("{name}: case seed {seed:#018x} panicked: {message}");
            }
        }
    }
    accepted
}

/// A small agent with some transitions in its replay ring.
fn small_agent() -> AcsoAgent<AttentionQNet> {
    let sim = SimConfig::tiny().with_max_time(30).with_seed(5);
    let model = learn_model(&LearnConfig {
        episodes: 1,
        seed: 5,
        sim: sim.clone(),
    });
    let mut env = IcsEnvironment::new(sim);
    let network = AttentionQNet::new(ActionSpace::new(env.topology()), 5);
    let mut agent = AcsoAgent::new(env.topology(), model, network, AgentConfig::smoke());
    agent.begin_episode();
    let obs = env.reset();
    let (mut action, mut state) = agent.select_action(&obs);
    for _ in 0..12 {
        let step = env.step(&[DefenderAction::NoAction]);
        let (next_action, next_state) = agent.select_action(&step.observation);
        agent.store_transition(state, action, step.reward, next_state, step.done);
        (action, state) = (next_action, next_state);
    }
    agent.end_episode();
    agent
}

#[test]
fn train_checkpoints_decode_to_a_value_or_a_typed_error() {
    let mut agent = small_agent();
    let report = TrainReport {
        episode_returns: vec![-1.5, 2.25],
        episode_losses: vec![0.5, 0.125],
        env_steps: 12,
        updates: 0,
    };
    let valid = encode_train_checkpoint(&mut agent, &report);

    // The valid encoding round-trips unchanged through a fresh agent.
    let mut fresh = small_agent();
    let decoded = decode_train_checkpoint(&mut fresh, &valid).expect("valid checkpoint");
    assert_eq!(decoded, report);
    assert!(encode_train_checkpoint(&mut fresh, &decoded) == valid);
    assert!(Snapshot::parse(&valid).is_ok());

    // Over a third of the mutated containers pass the digest and reach
    // the section decoders.
    let sealed = fuzz(
        "train checkpoint",
        1,
        CHECKPOINT_CASES,
        |seed| mutated_container(&valid, seed),
        |bytes| {
            let _ = decode_train_checkpoint(&mut fresh.clone(), bytes);
            Snapshot::parse(bytes).is_ok()
        },
    );
    assert!(sealed > CHECKPOINT_CASES / 3, "{sealed} sealed cases");
}

#[test]
fn serve_states_decode_to_a_value_or_a_typed_error() {
    let mut weights = Vec::new();
    let space = ActionSpace::new(IcsEnvironment::new(SimConfig::tiny()).topology());
    weights::save_weights_to(&mut AttentionQNet::new(space, 3), &mut weights).unwrap();
    let record = |handle: &str, kind: &str, weights: Option<Vec<u8>>| PolicyRecord {
        handle: handle.to_string(),
        kind: kind.to_string(),
        name: kind.to_uppercase(),
        version: 1,
        scenario: "tiny".to_string(),
        max_time: Some(60),
        dbn_episodes: 2,
        seed: 9,
        weights,
    };
    let sample = ServeState {
        next_policy_id: 3,
        policies: vec![
            record("playbook@1", "playbook", None),
            record("acso@2", "acso", Some(weights[..4096].to_vec())),
        ],
    };
    let valid = state::encode(&sample);
    assert_eq!(state::decode(&valid).expect("valid state"), sample);

    let sealed = fuzz(
        "serve state",
        2,
        STATE_CASES,
        |seed| mutated_container(&valid, seed),
        |bytes| {
            if let Ok(decoded) = state::decode(bytes) {
                // Whatever decodes re-encodes to a container that decodes
                // to the same state.
                assert_eq!(state::decode(&state::encode(&decoded)).ok(), Some(decoded));
            }
            Snapshot::parse(bytes).is_ok()
        },
    );
    assert!(sealed > STATE_CASES / 3, "{sealed} sealed cases");
}

#[test]
fn weight_files_decode_to_a_value_or_a_typed_error() {
    let space = ActionSpace::new(IcsEnvironment::new(SimConfig::tiny()).topology());
    let mut valid = Vec::new();
    weights::save_weights_to(&mut AttentionQNet::new(space.clone(), 1), &mut valid).unwrap();
    let mut fresh = AttentionQNet::new(space, 2);
    weights::load_weights_from(&mut fresh, &mut valid.as_slice()).expect("valid weights");
    let mut again = Vec::new();
    weights::save_weights_to(&mut fresh, &mut again).unwrap();
    assert!(again == valid, "weights did not round-trip");

    fuzz(
        "ACSOWTS",
        3,
        WEIGHTS_CASES,
        |seed| mutated(&valid, seed),
        |bytes| weights::load_weights_from(&mut fresh.clone(), &mut &bytes[..]).is_ok(),
    );
}

#[test]
fn scenario_toml_decodes_to_a_value_or_a_typed_error() {
    let registry = ScenarioRegistry::builtin();
    let mut texts = Vec::new();
    for scenario in registry
        .iter()
        .cloned()
        .chain((0..4).map(Scenario::from_seed))
    {
        let text = scenario.to_toml();
        let parsed = Scenario::from_toml(&text).expect("valid scenario TOML");
        assert_eq!(parsed, scenario);
        assert_eq!(parsed.to_toml(), text);
        texts.push(text);
    }

    fuzz(
        "scenario TOML",
        4,
        TOML_CASES,
        |seed| mutated(texts[seed as usize % texts.len()].as_bytes(), seed),
        |bytes| Scenario::from_toml(&String::from_utf8_lossy(bytes)).is_ok(),
    );
}

#[test]
fn json_decodes_to_a_value_or_a_typed_error() {
    let texts = [
        r#"{"id":1,"method":"evaluate","params":{"policy":"acso@1","scenario":"tiny","episodes":3,"max_time":60,"seed":7}}"#,
        r#"{"id":"x","ok":true,"result":{"scenarios":[{"name":"tiny","tags":["smoke"]}],"mean":-1.25,"n":null}}"#,
        r#"[true,false,null,0,-0.5,1.5,"é\n\"",[[],{}]]"#,
    ];
    for text in texts {
        let value = JsonValue::parse(text).expect("valid JSON");
        assert_eq!(value.to_string(), text);
        assert_eq!(JsonValue::parse(&value.to_string()), Ok(value));
    }

    fuzz(
        "JSON",
        5,
        JSON_CASES,
        |seed| mutated(texts[seed as usize % texts.len()].as_bytes(), seed),
        |bytes| JsonValue::parse(&String::from_utf8_lossy(bytes)).is_ok(),
    );
}
