//! The protocol brain: parse requests, coalesce evaluations, answer.
//!
//! [`EvalService`] owns everything warm: the scenario registry (built once),
//! every loaded policy (trained networks and DBN models stay resident), the
//! lockstep [`SyncBatchEngine`], and the metrics/event registries. The serve
//! loop hands it whole *batches* of request lines
//! ([`EvalService::handle_batch`]): every `evaluate` in a batch that targets
//! the same policy, scenario and horizon is flattened into one
//! [`SyncBatchEngine::rollout_many`] call, so concurrent clients share
//! lockstep inference batches instead of running back to back. Per-lane
//! independence in the engine guarantees each request's transcripts are
//! bit-identical to running it alone — coalescing changes throughput, never
//! results.
//!
//! See `docs/PROTOCOL.md` for the complete request/response reference; its
//! worked transcript is replayed byte-for-byte against this module by
//! `tests/serve_protocol.rs`.

use crate::events::{Clock, EventSink};
use crate::json::JsonValue;
use crate::metrics::ServeMetrics;
use crate::state::{self, PolicyRecord, ServeState, STATE_FILE};
use acso_core::agent::io::{self as weights_io, FORMAT_VERSION};
use acso_core::agent::{AcsoAgent, AgentConfig, AttentionQNet};
use acso_core::baselines::{DbnExpertPolicy, PlaybookPolicy, SemiRandomPolicy};
use acso_core::experiments::{prepare, ExperimentScale};
use acso_core::policy::NullPolicy;
use acso_core::snapshot as core_snapshot;
use acso_core::train::{TrainReport, TrainedAcso};
use acso_core::{ActionSpace, DefenderPolicy, RolloutPlan, ScenarioRegistry, SyncBatchEngine};
use dbn::learn::{learn_model, LearnConfig};
use dbn::DbnModel;
use ics_sim::metrics::{EpisodeMetrics, EvaluationSummary, MeanStdErr};
use ics_sim::{IcsEnvironment, SimConfig};
use std::fs::File;
use std::io::{self, BufReader, Read};
use std::path::PathBuf;

/// Smallest lane width the daemon autoscales to, and the width the pinned
/// [`ServiceConfig::fixed`] transcript configuration runs with.
pub const DEFAULT_LANES: usize = 8;

/// Longest request line, in bytes without its newline, the service parses;
/// a longer line is answered with `limit_exceeded` and `id: null` before
/// any parsing. Far above any documented request (all under 1 KiB), it
/// also bounds what one line can make the stdio reader buffer: it cuts a
/// longer line one byte past the limit.
pub const MAX_REQUEST_LINE_BYTES: usize = 1 << 20;

/// Largest `episodes` one `evaluate` may ask for; larger counts are refused
/// with `limit_exceeded` (an unbounded count sized one allocation per
/// episode and could abort the process).
const MAX_EVAL_EPISODES: u64 = 100_000;

/// Largest `max_time` horizon, in hours, a request may set: twenty times the
/// longest built-in horizon (`paper-full`'s 5 000 h).
const MAX_HORIZON_HOURS: u64 = 100_000;

/// Largest `train_episodes` and `dbn_episodes` one `load_policy` may ask
/// for.
const MAX_FIT_EPISODES: u64 = 100_000;

/// How the service runs: lane width, rollout threads, and whether time is
/// pinned for byte-deterministic output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Lockstep lanes per inference batch (`--lanes`, else `ACSO_BATCH`,
    /// else detected cores clamped to `DEFAULT_LANES..=MAX_AUTO_LANES`).
    pub lanes: usize,
    /// Worker threads for episode fan-out within a batch.
    pub threads: usize,
    /// Pin the clock: timestamps 0, durations 0 (the `--fixed-time` flag).
    pub fixed_time: bool,
}

impl ServiceConfig {
    /// Reads `ACSO_BATCH` / `ACSO_THREADS`; with no lane override set, the
    /// lane width autoscales to the machine (detected cores clamped to
    /// `DEFAULT_LANES..=MAX_AUTO_LANES`). Lane width never affects a
    /// response transcript — the lockstep engine is pinned bit-identical for
    /// every width — so autoscaling is purely throughput.
    pub fn from_env() -> Self {
        let lanes = acso_runtime::batch_lanes().unwrap_or_else(|| {
            acso_runtime::detected_cores().clamp(DEFAULT_LANES, acso_runtime::MAX_AUTO_LANES)
        });
        Self {
            lanes,
            threads: acso_runtime::available_threads(),
            fixed_time: false,
        }
    }

    /// The configuration the transcript-replay test and the PROTOCOL.md
    /// worked transcript both run under: default lanes, one worker thread,
    /// fixed time. Every field is pinned so responses are byte-stable.
    pub fn fixed() -> Self {
        Self {
            lanes: DEFAULT_LANES,
            threads: 1,
            fixed_time: true,
        }
    }
}

/// The outcome of one request batch.
#[derive(Debug)]
pub struct BatchOutcome {
    /// One response line per request line, in arrival order.
    pub responses: Vec<String>,
    /// Whether a `shutdown` request was in the batch (the loop exits after
    /// sending every response).
    pub shutdown: bool,
}

/// What a loaded policy handle points at. Trained artefacts stay warm here
/// for the life of the daemon — that is the point of serving.
enum PolicyStock {
    /// A trained ACSO (attention Q-net + DBN filter).
    Acso(Box<TrainedAcso>),
    /// The DBN-expert baseline around a learned model.
    DbnExpert(DbnModel),
    /// The playbook baseline.
    Playbook,
    /// The semi-random baseline.
    SemiRandom,
    /// The no-defense policy.
    Null,
}

impl PolicyStock {
    fn make(&self) -> Box<dyn DefenderPolicy> {
        match self {
            PolicyStock::Acso(t) => Box::new(t.agent.eval_clone()),
            PolicyStock::DbnExpert(model) => Box::new(DbnExpertPolicy::new(model.clone())),
            PolicyStock::Playbook => Box::new(PlaybookPolicy::new()),
            PolicyStock::SemiRandom => Box::new(SemiRandomPolicy::new()),
            PolicyStock::Null => Box::new(NullPolicy::new()),
        }
    }
}

/// Builds an ACSO from saved weights instead of training: the DBN is learned
/// (cheap), the attention Q-net is constructed for the scenario's topology
/// and its parameters restored from `weights` — the weights file a
/// `load_policy` names, or the weight bytes a state snapshot holds.
fn acso_from_weights(
    sim: SimConfig,
    dbn_episodes: usize,
    seed: u64,
    weights: &mut impl Read,
) -> io::Result<TrainedAcso> {
    let model = learn_model(&LearnConfig {
        episodes: dbn_episodes,
        seed,
        sim: sim.clone(),
    });
    let env = IcsEnvironment::new(sim);
    let space = ActionSpace::new(env.topology());
    let mut network = AttentionQNet::new(space, seed);
    weights_io::load_weights_from(&mut network, weights)?;
    let mut agent = AcsoAgent::new(
        env.topology(),
        model.clone(),
        network,
        AgentConfig {
            seed,
            ..AgentConfig::smoke()
        },
    );
    agent.set_explore(false);
    Ok(TrainedAcso {
        agent,
        dbn_model: model,
        report: TrainReport::default(),
    })
}

/// One versioned policy handle, together with the parameters a state
/// snapshot needs to rebuild it deterministically after a restart.
struct LoadedPolicy {
    handle: String,
    kind: String,
    /// Display name (matches the offline experiment tables).
    name: String,
    version: u32,
    scenario: String,
    /// Horizon override of the original `load_policy`, if any.
    max_time: Option<u64>,
    /// DBN fit size of the original load (refit deterministically on restore).
    dbn_episodes: u64,
    /// Seed of the original load (DBN fit, network init).
    seed: u64,
    stock: PolicyStock,
}

/// A parsed request envelope.
struct Request {
    id: JsonValue,
    method: String,
    params: JsonValue,
}

/// An `evaluate` request after validation, ready to coalesce.
struct EvaluateJob {
    slot: usize,
    id: JsonValue,
    policy_index: usize,
    scenario: String,
    sim: SimConfig,
    episodes: usize,
    seed: u64,
    max_time: Option<u64>,
    transcripts: bool,
}

/// The persistent evaluation service.
///
/// # Example
///
/// Coalescing: a batch of request lines is answered together, and
/// same-shaped evaluations share one lockstep run (the `batch` block in
/// each response reports how many requests were flattened in):
///
/// ```
/// use acso_serve::service::{EvalService, ServiceConfig};
///
/// let mut service = EvalService::new(ServiceConfig::fixed());
/// let outcome = service.handle_batch(&[
///     r#"{"id":1,"method":"load_policy","params":{"policy":"null"}}"#.to_string(),
///     r#"{"id":2,"method":"evaluate","params":{"handle":"null@1","scenario":"tiny","episodes":2,"max_time":60}}"#.to_string(),
///     r#"{"id":3,"method":"evaluate","params":{"handle":"null@1","scenario":"tiny","episodes":2,"max_time":60,"seed":9}}"#.to_string(),
/// ]);
/// assert_eq!(outcome.responses.len(), 3);
/// assert!(!outcome.shutdown);
/// // Both evaluations rode the same lockstep run.
/// assert!(outcome.responses[1].contains(r#""coalesced_requests":2"#));
/// assert!(outcome.responses[2].contains(r#""coalesced_requests":2"#));
/// ```
pub struct EvalService {
    config: ServiceConfig,
    clock: Clock,
    registry: ScenarioRegistry,
    engine: SyncBatchEngine,
    policies: Vec<LoadedPolicy>,
    next_policy_id: u64,
    metrics: ServeMetrics,
    events: EventSink,
    /// Where the crash-recovery snapshot lives (the `--state-dir` flag).
    state_path: Option<PathBuf>,
}

fn jobj(pairs: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn mean_std_err_json(m: &MeanStdErr) -> JsonValue {
    jobj(vec![
        ("mean", JsonValue::num(m.mean)),
        ("std_err", JsonValue::num(m.std_err)),
    ])
}

fn summary_json(s: &EvaluationSummary) -> JsonValue {
    jobj(vec![
        ("episodes", JsonValue::num(s.episodes as f64)),
        ("discounted_return", mean_std_err_json(&s.discounted_return)),
        (
            "final_plcs_offline",
            mean_std_err_json(&s.final_plcs_offline),
        ),
        ("average_it_cost", mean_std_err_json(&s.average_it_cost)),
        (
            "average_nodes_compromised",
            mean_std_err_json(&s.average_nodes_compromised),
        ),
    ])
}

fn transcript_json(episodes: &[EpisodeMetrics]) -> JsonValue {
    JsonValue::Arr(
        episodes
            .iter()
            .enumerate()
            .map(|(i, e)| {
                jobj(vec![
                    ("episode", JsonValue::num(i as f64)),
                    ("discounted_return", JsonValue::num(e.discounted_return)),
                    ("undiscounted_return", JsonValue::num(e.undiscounted_return)),
                    (
                        "final_plcs_offline",
                        JsonValue::num(e.final_plcs_offline as f64),
                    ),
                    (
                        "max_plcs_offline",
                        JsonValue::num(e.max_plcs_offline() as f64),
                    ),
                    ("steps", JsonValue::num(e.steps as f64)),
                    ("average_it_cost", JsonValue::num(e.average_it_cost())),
                    (
                        "average_nodes_compromised",
                        JsonValue::num(e.average_nodes_compromised()),
                    ),
                ])
            })
            .collect(),
    )
}

fn ok_value(id: &JsonValue, result: JsonValue) -> JsonValue {
    jobj(vec![
        ("id", id.clone()),
        ("ok", JsonValue::Bool(true)),
        ("result", result),
    ])
}

impl EvalService {
    /// Builds the service: scenario registry constructed once, engine sized
    /// to the configured lane width, no event stream.
    pub fn new(config: ServiceConfig) -> Self {
        let clock = if config.fixed_time {
            Clock::Fixed
        } else {
            Clock::System
        };
        let engine = SyncBatchEngine::new(config.lanes);
        Self {
            config,
            clock,
            registry: ScenarioRegistry::builtin(),
            engine,
            policies: Vec::new(),
            next_policy_id: 0,
            metrics: ServeMetrics::new(),
            events: EventSink::disabled(),
            state_path: None,
        }
    }

    /// Attaches a structured event stream (the `--events PATH` flag).
    pub fn with_events(mut self, events: EventSink) -> Self {
        self.events = events;
        self
    }

    /// Enables crash recovery (the `--state-dir DIR` flag): `snapshot`
    /// requests write the policy table to `DIR/serve_state.acsosnap` and
    /// [`EvalService::restore_on_start`] reloads it after a restart.
    pub fn with_state_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.state_path = Some(dir.into().join(STATE_FILE));
        self
    }

    /// The service configuration in effect.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Read-only access to the metrics registry (benchmarks assert on the
    /// batch-fill counters here).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// Handles a single request line (a batch of one).
    pub fn handle_line(&mut self, line: &str) -> String {
        let mut outcome = self.handle_batch(std::slice::from_ref(&line.to_string()));
        outcome.responses.pop().expect("one response per request")
    }

    /// Handles a batch of request lines, coalescing compatible `evaluate`
    /// requests into shared lockstep batches. Returns one response line per
    /// request, in arrival order.
    ///
    /// Non-`evaluate` requests are answered in arrival order first (so an
    /// `evaluate` may reference a handle from a `load_policy` earlier in the
    /// same batch), then every `evaluate` runs; a `shutdown` anywhere in the
    /// batch takes effect only after the whole batch is answered.
    pub fn handle_batch(&mut self, lines: &[String]) -> BatchOutcome {
        let started = self.clock.start();
        let mut slots: Vec<Option<JsonValue>> = vec![None; lines.len()];
        let mut evaluates: Vec<EvaluateJob> = Vec::new();
        let mut shutdown = false;

        for (slot, line) in lines.iter().enumerate() {
            match self.parse_request(line) {
                Err(response) => slots[slot] = Some(response),
                Ok(request) => {
                    self.metrics.requests.add(&request.method, 1);
                    self.events.emit(
                        "request_accepted",
                        &[
                            ("id", request.id.clone()),
                            ("method", JsonValue::str(&request.method)),
                        ],
                    );
                    match request.method.as_str() {
                        "list_scenarios" => {
                            slots[slot] = Some(self.list_scenarios(&request));
                        }
                        "load_policy" => {
                            slots[slot] = Some(self.load_policy(&request));
                        }
                        "metrics" => {
                            slots[slot] = Some(self.metrics_snapshot(&request));
                        }
                        "snapshot" => {
                            slots[slot] = Some(self.snapshot_request(&request));
                        }
                        "restore" => {
                            slots[slot] = Some(self.restore_request(&request));
                        }
                        "shutdown" => {
                            shutdown = true;
                            self.events.emit("shutdown", &[]);
                            slots[slot] = Some(ok_value(
                                &request.id,
                                jobj(vec![("stopping", JsonValue::Bool(true))]),
                            ));
                        }
                        "evaluate" => match self.parse_evaluate(slot, &request) {
                            Ok(job) => evaluates.push(job),
                            Err(response) => slots[slot] = Some(response),
                        },
                        other => {
                            slots[slot] = Some(self.fail(
                                &request.id,
                                "unknown_method",
                                &format!("unknown method `{other}`"),
                            ));
                        }
                    }
                }
            }
        }

        self.run_evaluates(&mut slots, evaluates);

        let elapsed = self.clock.elapsed_secs(started);
        let duration_ms = elapsed * 1_000.0;
        let mut responses = Vec::with_capacity(lines.len());
        for slot in slots {
            let value = slot.expect("every request slot is answered");
            self.metrics.request_latency.observe(elapsed);
            self.events.emit(
                "request_completed",
                &[
                    ("id", value.get("id").cloned().unwrap_or(JsonValue::Null)),
                    ("ok", value.get("ok").cloned().unwrap_or(JsonValue::Null)),
                    ("duration_ms", JsonValue::num(duration_ms)),
                ],
            );
            responses.push(value.to_string());
        }
        BatchOutcome {
            responses,
            shutdown,
        }
    }

    /// Builds an error response and records it in metrics and events.
    fn fail(&mut self, id: &JsonValue, code: &str, message: &str) -> JsonValue {
        self.metrics.errors.add(code, 1);
        self.events.emit(
            "error",
            &[
                ("id", id.clone()),
                ("code", JsonValue::str(code)),
                ("message", JsonValue::str(message)),
            ],
        );
        jobj(vec![
            ("id", id.clone()),
            ("ok", JsonValue::Bool(false)),
            (
                "error",
                jobj(vec![
                    ("code", JsonValue::str(code)),
                    ("message", JsonValue::str(message)),
                ]),
            ),
        ])
    }

    fn parse_request(&mut self, line: &str) -> Result<Request, JsonValue> {
        if line.len() > MAX_REQUEST_LINE_BYTES {
            self.metrics.requests.add("invalid", 1);
            return Err(self.fail(
                &JsonValue::Null,
                "limit_exceeded",
                &format!("request line is above the limit of {MAX_REQUEST_LINE_BYTES} bytes"),
            ));
        }
        let value = match JsonValue::parse(line) {
            Ok(v) => v,
            Err(e) => {
                self.metrics.requests.add("invalid", 1);
                return Err(self.fail(&JsonValue::Null, "parse_error", &e));
            }
        };
        let id = value.get("id").cloned().unwrap_or(JsonValue::Null);
        if value.as_obj().is_none() {
            self.metrics.requests.add("invalid", 1);
            return Err(self.fail(&id, "invalid_request", "request must be a JSON object"));
        }
        let Some(method) = value.get("method").and_then(|m| m.as_str()) else {
            self.metrics.requests.add("invalid", 1);
            return Err(self.fail(
                &id,
                "invalid_request",
                "request needs a string `method` field",
            ));
        };
        let params = value
            .get("params")
            .cloned()
            .unwrap_or(JsonValue::Obj(Vec::new()));
        if params.as_obj().is_none() {
            self.metrics.requests.add("invalid", 1);
            return Err(self.fail(&id, "invalid_request", "`params` must be an object"));
        }
        Ok(Request {
            id,
            method: method.to_string(),
            params,
        })
    }

    fn list_scenarios(&mut self, request: &Request) -> JsonValue {
        let scenarios = JsonValue::Arr(
            self.registry
                .iter()
                .map(|s| {
                    jobj(vec![
                        ("name", JsonValue::str(&s.name)),
                        ("description", JsonValue::str(&s.description)),
                        (
                            "tags",
                            JsonValue::Arr(s.tags.iter().map(JsonValue::str).collect()),
                        ),
                    ])
                })
                .collect(),
        );
        ok_value(&request.id, jobj(vec![("scenarios", scenarios)]))
    }

    /// Resolves a scenario name + optional horizon override into the
    /// simulator configuration an evaluation or training run uses.
    fn resolve_sim(
        &mut self,
        id: &JsonValue,
        scenario: &str,
        max_time: Option<u64>,
    ) -> Result<SimConfig, JsonValue> {
        let Some(found) = self.registry.get(scenario) else {
            return Err(self.fail(
                id,
                "unknown_scenario",
                &format!("unknown scenario `{scenario}`"),
            ));
        };
        let mut sim = found.config.clone();
        if let Some(max_time) = max_time {
            sim = sim.with_max_time(max_time);
        }
        Ok(sim)
    }

    /// The optional integer parameter `name`, refused with
    /// `limit_exceeded` above `limit`. A missing or non-integer value reads
    /// as absent.
    fn bounded(
        &mut self,
        request: &Request,
        name: &str,
        limit: u64,
    ) -> Result<Option<u64>, JsonValue> {
        match request.params.get(name).and_then(|v| v.as_u64()) {
            Some(value) if value > limit => Err(self.fail(
                &request.id,
                "limit_exceeded",
                &format!("`{name}` is {value}, above the limit of {limit}"),
            )),
            value => Ok(value),
        }
    }

    fn load_policy(&mut self, request: &Request) -> JsonValue {
        let params = &request.params;
        let Some(kind) = params.get("policy").and_then(|p| p.as_str()) else {
            return self.fail(
                &request.id,
                "invalid_params",
                "`policy` must be one of acso, dbn_expert, playbook, semi_random, null",
            );
        };
        let kind = kind.to_string();
        let scenario = params
            .get("scenario")
            .and_then(|s| s.as_str())
            .unwrap_or("tiny")
            .to_string();
        let sizes = (|| {
            Ok((
                self.bounded(request, "max_time", MAX_HORIZON_HOURS)?,
                self.bounded(request, "train_episodes", MAX_FIT_EPISODES)?,
                self.bounded(request, "dbn_episodes", MAX_FIT_EPISODES)?,
            ))
        })();
        let (max_time, train_episodes, dbn_episodes) = match sizes {
            Ok((max_time, train, dbn)) => (
                max_time,
                train.unwrap_or(1) as usize,
                dbn.unwrap_or(2) as usize,
            ),
            Err(response) => return response,
        };
        let seed = params.get("seed").and_then(|v| v.as_u64()).unwrap_or(0);
        let weights = params
            .get("weights")
            .and_then(|w| w.as_str())
            .map(str::to_string);

        let sim = match self.resolve_sim(&request.id, &scenario, max_time) {
            Ok(sim) => sim,
            Err(response) => return response,
        };

        let (stock, name, version) = match kind.as_str() {
            "acso" => {
                let trained = match weights {
                    None => {
                        // Same path the offline experiments take
                        // (`experiments::prepare`), so a daemon-loaded agent
                        // is bit-identical to a sweep-trained one.
                        let ctx = prepare(ExperimentScale {
                            eval_sim: sim.clone(),
                            train_sim: sim,
                            eval_episodes: 0,
                            train_episodes,
                            dbn_episodes,
                            seed,
                        });
                        ctx.trained
                    }
                    Some(path) => {
                        let built = File::open(&path).and_then(|file| {
                            acso_from_weights(sim, dbn_episodes, seed, &mut BufReader::new(file))
                        });
                        match built {
                            Ok(trained) => trained,
                            Err(e) => {
                                let message = format!("cannot load weights from `{path}`: {e}");
                                return self.fail(&request.id, "weights_error", &message);
                            }
                        }
                    }
                };
                (PolicyStock::Acso(Box::new(trained)), "ACSO", FORMAT_VERSION)
            }
            "dbn_expert" => {
                let model = learn_model(&LearnConfig {
                    episodes: dbn_episodes,
                    seed,
                    sim,
                });
                (PolicyStock::DbnExpert(model), "DBN Expert", 1)
            }
            "playbook" => (PolicyStock::Playbook, "Playbook", 1),
            "semi_random" => (PolicyStock::SemiRandom, "Semi Random", 1),
            "null" => (PolicyStock::Null, "No defense", 1),
            other => {
                return self.fail(
                    &request.id,
                    "unknown_policy_kind",
                    &format!("unknown policy kind `{other}`"),
                );
            }
        };

        self.next_policy_id += 1;
        let handle = format!("{kind}@{}", self.next_policy_id);
        self.policies.push(LoadedPolicy {
            handle: handle.clone(),
            kind: kind.clone(),
            name: name.to_string(),
            version,
            scenario: scenario.clone(),
            max_time,
            dbn_episodes: dbn_episodes as u64,
            seed,
            stock,
        });
        self.metrics.policies_loaded = self.policies.len() as u64;
        let loaded = self.policies.last().expect("just pushed");
        let event_fields = [
            ("handle", JsonValue::str(&loaded.handle)),
            ("kind", JsonValue::str(&loaded.kind)),
            ("scenario", JsonValue::str(&loaded.scenario)),
        ];
        self.events.emit("policy_loaded", &event_fields);

        ok_value(
            &request.id,
            jobj(vec![
                ("handle", JsonValue::str(handle)),
                ("policy", JsonValue::str(name)),
                ("kind", JsonValue::str(kind)),
                ("version", JsonValue::num(f64::from(version))),
                ("scenario", JsonValue::str(scenario)),
            ]),
        )
    }

    fn parse_evaluate(&mut self, slot: usize, request: &Request) -> Result<EvaluateJob, JsonValue> {
        let params = &request.params;
        let Some(handle) = params.get("handle").and_then(|h| h.as_str()) else {
            return Err(self.fail(
                &request.id,
                "invalid_params",
                "`handle` must be a policy handle from load_policy",
            ));
        };
        let handle = handle.to_string();
        let Some(policy_index) = self.policies.iter().position(|p| p.handle == handle) else {
            return Err(self.fail(
                &request.id,
                "unknown_handle",
                &format!("unknown policy handle `{handle}`"),
            ));
        };
        let Some(scenario) = params.get("scenario").and_then(|s| s.as_str()) else {
            return Err(self.fail(
                &request.id,
                "invalid_params",
                "`scenario` must be a scenario name from list_scenarios",
            ));
        };
        let scenario = scenario.to_string();
        let Some(episodes) = params.get("episodes").and_then(|e| e.as_u64()) else {
            return Err(self.fail(
                &request.id,
                "invalid_params",
                "`episodes` must be a positive integer",
            ));
        };
        if episodes == 0 {
            return Err(self.fail(
                &request.id,
                "invalid_params",
                "`episodes` must be a positive integer",
            ));
        }
        self.bounded(request, "episodes", MAX_EVAL_EPISODES)?;
        let max_time = self.bounded(request, "max_time", MAX_HORIZON_HOURS)?;
        let seed = params.get("seed").and_then(|v| v.as_u64()).unwrap_or(0);
        let transcripts = params
            .get("transcripts")
            .and_then(|t| t.as_bool())
            .unwrap_or(false);
        let sim = self.resolve_sim(&request.id, &scenario, max_time)?;
        Ok(EvaluateJob {
            slot,
            id: request.id.clone(),
            policy_index,
            scenario,
            sim,
            episodes: episodes as usize,
            seed,
            max_time,
            transcripts,
        })
    }

    /// Runs every `evaluate` of a batch. Jobs sharing (policy, scenario,
    /// horizon) — and therefore an identical simulator and topology — are
    /// coalesced into one [`SyncBatchEngine::rollout_many`] call so their
    /// episodes share lockstep inference batches.
    fn run_evaluates(&mut self, slots: &mut [Option<JsonValue>], jobs: Vec<EvaluateJob>) {
        let mut groups: Vec<Vec<EvaluateJob>> = Vec::new();
        for job in jobs {
            let key = |j: &EvaluateJob| (j.policy_index, j.scenario.clone(), j.max_time);
            match groups.iter_mut().find(|g| key(&g[0]) == key(&job)) {
                Some(group) => group.push(job),
                None => groups.push(vec![job]),
            }
        }

        for group in groups {
            let started = self.clock.start();
            let plans: Vec<RolloutPlan> = group
                .iter()
                .map(|j| {
                    RolloutPlan::new(j.sim.clone(), j.episodes, j.seed)
                        .with_threads(self.config.threads)
                })
                .collect();
            let stock = &self.policies[group[0].policy_index].stock;
            let (results, stats) = self.engine.rollout_many(&plans, &|| stock.make());

            let elapsed = self.clock.elapsed_secs(started);
            let total_episodes: usize = results.iter().map(Vec::len).sum();
            let total_steps: u64 = results.iter().flat_map(|r| r.iter().map(|e| e.steps)).sum();
            let fill_ratio = stats.batch.fill_ratio();
            let utilization = stats.pool.utilization();

            self.metrics.episodes_total += total_episodes as u64;
            self.metrics.steps_total += total_steps;
            self.metrics.batch_rounds_total += stats.batch.rounds;
            self.metrics.batch_filled_slots_total += stats.batch.filled_slots;
            self.metrics.batch_capacity_slots_total += stats.batch.capacity_slots;
            self.metrics.last_batch_fill_ratio = fill_ratio;
            self.metrics.last_engine_utilization = utilization;
            self.metrics.last_episodes_per_sec = if elapsed > 0.0 {
                total_episodes as f64 / elapsed
            } else {
                0.0
            };
            self.events.emit(
                "evaluate_batch",
                &[
                    ("requests", JsonValue::num(group.len() as f64)),
                    ("episodes", JsonValue::num(total_episodes as f64)),
                    ("fill_ratio", JsonValue::num(fill_ratio)),
                ],
            );
            self.events.emit(
                "episodes_done",
                &[("total", JsonValue::num(self.metrics.episodes_total as f64))],
            );

            let coalesced = group.len();
            for (job, episodes) in group.into_iter().zip(results) {
                let policy = &self.policies[job.policy_index];
                let summary = EvaluationSummary::from_episodes(&episodes);
                let mut result = vec![
                    ("policy", JsonValue::str(&policy.name)),
                    ("handle", JsonValue::str(&policy.handle)),
                    ("version", JsonValue::num(f64::from(policy.version))),
                    ("scenario", JsonValue::str(&job.scenario)),
                    ("episodes", JsonValue::num(episodes.len() as f64)),
                    ("seed", JsonValue::num(job.seed as f64)),
                    ("summary", summary_json(&summary)),
                    (
                        "batch",
                        jobj(vec![
                            ("lanes", JsonValue::num(self.engine.lanes() as f64)),
                            ("rounds", JsonValue::num(stats.batch.rounds as f64)),
                            ("fill_ratio", JsonValue::num(fill_ratio)),
                            ("coalesced_requests", JsonValue::num(coalesced as f64)),
                        ]),
                    ),
                ];
                if job.transcripts {
                    result.push(("transcripts", transcript_json(&episodes)));
                }
                slots[job.slot] = Some(ok_value(&job.id, jobj(result)));
            }
        }
    }

    /// Captures the durable slice of the service: every policy handle with
    /// its reconstruction parameters, plus the exact weight bytes behind
    /// `acso` handles.
    fn capture_state(&mut self) -> ServeState {
        let mut records = Vec::with_capacity(self.policies.len());
        for policy in self.policies.iter_mut() {
            let weights = match &mut policy.stock {
                PolicyStock::Acso(trained) => {
                    let mut bytes = Vec::new();
                    weights_io::save_weights_to(trained.agent.network_mut(), &mut bytes)
                        .expect("writing weights to a Vec cannot fail");
                    Some(bytes)
                }
                _ => None,
            };
            records.push(PolicyRecord {
                handle: policy.handle.clone(),
                kind: policy.kind.clone(),
                name: policy.name.clone(),
                version: policy.version,
                scenario: policy.scenario.clone(),
                max_time: policy.max_time,
                dbn_episodes: policy.dbn_episodes,
                seed: policy.seed,
                weights,
            });
        }
        ServeState {
            next_policy_id: self.next_policy_id,
            policies: records,
        }
    }

    /// Rebuilds one policy handle from its snapshot record. Everything not
    /// stored verbatim (the DBN model, topology, network architecture) is a
    /// deterministic function of the stored parameters, so the rebuilt handle
    /// serves bit-identical responses.
    fn rebuild_policy(
        registry: &ScenarioRegistry,
        record: &PolicyRecord,
    ) -> Result<LoadedPolicy, String> {
        let Some(found) = registry.get(&record.scenario) else {
            return Err(format!(
                "snapshot references unknown scenario `{}`",
                record.scenario
            ));
        };
        let mut sim = found.config.clone();
        if let Some(max_time) = record.max_time {
            sim = sim.with_max_time(max_time);
        }
        let stock = match record.kind.as_str() {
            "acso" => {
                let Some(weights) = &record.weights else {
                    return Err(format!(
                        "snapshot record `{}` has no weight bytes",
                        record.handle
                    ));
                };
                let trained = acso_from_weights(
                    sim,
                    record.dbn_episodes as usize,
                    record.seed,
                    &mut weights.as_slice(),
                )
                .map_err(|e| format!("snapshot record `{}`: {e}", record.handle))?;
                PolicyStock::Acso(Box::new(trained))
            }
            "dbn_expert" => PolicyStock::DbnExpert(learn_model(&LearnConfig {
                episodes: record.dbn_episodes as usize,
                seed: record.seed,
                sim,
            })),
            "playbook" => PolicyStock::Playbook,
            "semi_random" => PolicyStock::SemiRandom,
            "null" => PolicyStock::Null,
            other => {
                return Err(format!("snapshot references unknown policy kind `{other}`"));
            }
        };
        Ok(LoadedPolicy {
            handle: record.handle.clone(),
            kind: record.kind.clone(),
            name: record.name.clone(),
            version: record.version,
            scenario: record.scenario.clone(),
            max_time: record.max_time,
            dbn_episodes: record.dbn_episodes,
            seed: record.seed,
            stock,
        })
    }

    /// Writes the state snapshot atomically into the configured state dir.
    ///
    /// # Errors
    ///
    /// Fails when no `--state-dir` is configured or the write itself fails.
    pub fn write_state_snapshot(&mut self) -> Result<(PathBuf, usize), String> {
        let Some(path) = self.state_path.clone() else {
            return Err("no --state-dir configured".to_string());
        };
        let state = self.capture_state();
        let bytes = state::encode(&state);
        core_snapshot::write_atomic(&path, &bytes)
            .map_err(|e| format!("cannot write snapshot `{}`: {e}", path.display()))?;
        self.events.emit(
            "snapshot_written",
            &[
                ("path", JsonValue::str(path.display().to_string())),
                ("bytes", JsonValue::num(bytes.len() as f64)),
                ("policies", JsonValue::num(state.policies.len() as f64)),
            ],
        );
        Ok((path, state.policies.len()))
    }

    /// Replaces the policy table with the snapshot in the state dir.
    ///
    /// All-or-nothing: every record is rebuilt before the live table is
    /// touched, so a corrupt snapshot (torn write, unknown scenario, bad
    /// weights) leaves the service exactly as it was.
    ///
    /// # Errors
    ///
    /// Fails when no `--state-dir` is configured, the snapshot is missing or
    /// fails its digest, or any record cannot be rebuilt.
    pub fn restore_state_snapshot(&mut self) -> Result<usize, String> {
        let Some(path) = self.state_path.clone() else {
            return Err("no --state-dir configured".to_string());
        };
        let bytes = std::fs::read(&path)
            .map_err(|e| format!("cannot read snapshot `{}`: {e}", path.display()))?;
        let state = state::decode(&bytes).map_err(|e| e.to_string())?;
        let mut policies = Vec::with_capacity(state.policies.len());
        for record in &state.policies {
            policies.push(Self::rebuild_policy(&self.registry, record)?);
        }
        let restored = policies.len();
        self.policies = policies;
        self.next_policy_id = state.next_policy_id;
        self.metrics.policies_loaded = restored as u64;
        self.events.emit(
            "snapshot_restored",
            &[
                ("path", JsonValue::str(path.display().to_string())),
                ("policies", JsonValue::num(restored as f64)),
            ],
        );
        Ok(restored)
    }

    /// Startup crash recovery: reload the state snapshot if one exists.
    /// Degrades gracefully — a missing snapshot is a normal first boot, and a
    /// corrupt one emits a `snapshot_corrupt` event and falls back to a cold
    /// start instead of refusing to serve.
    pub fn restore_on_start(&mut self) {
        let Some(path) = self.state_path.clone() else {
            return;
        };
        if !path.exists() {
            return;
        }
        if let Err(message) = self.restore_state_snapshot() {
            self.events
                .emit("snapshot_corrupt", &[("message", JsonValue::str(&message))]);
        }
    }

    fn snapshot_request(&mut self, request: &Request) -> JsonValue {
        match self.write_state_snapshot() {
            Ok((path, policies)) => ok_value(
                &request.id,
                jobj(vec![
                    ("path", JsonValue::str(path.display().to_string())),
                    ("policies", JsonValue::num(policies as f64)),
                ]),
            ),
            Err(message) => self.fail(&request.id, "state_error", &message),
        }
    }

    fn restore_request(&mut self, request: &Request) -> JsonValue {
        match self.restore_state_snapshot() {
            Ok(policies) => {
                let handles = JsonValue::Arr(
                    self.policies
                        .iter()
                        .map(|p| JsonValue::str(&p.handle))
                        .collect(),
                );
                ok_value(
                    &request.id,
                    jobj(vec![
                        ("policies", JsonValue::num(policies as f64)),
                        ("handles", handles),
                    ]),
                )
            }
            Err(message) => self.fail(&request.id, "state_error", &message),
        }
    }

    fn metrics_snapshot(&mut self, request: &Request) -> JsonValue {
        let m = &self.metrics;
        ok_value(
            &request.id,
            jobj(vec![
                ("requests_total", JsonValue::num(m.requests.total() as f64)),
                ("errors_total", JsonValue::num(m.errors.total() as f64)),
                ("episodes_total", JsonValue::num(m.episodes_total as f64)),
                ("steps_total", JsonValue::num(m.steps_total as f64)),
                ("policies_loaded", JsonValue::num(m.policies_loaded as f64)),
                ("batch_fill_ratio", JsonValue::num(m.batch_fill_ratio())),
                (
                    "last_episodes_per_sec",
                    JsonValue::num(m.last_episodes_per_sec),
                ),
                (
                    "last_engine_utilization",
                    JsonValue::num(m.last_engine_utilization),
                ),
                ("prometheus", JsonValue::str(m.render_prometheus())),
            ]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acso_core::eval::{evaluate_factory_detailed, EvalConfig};

    fn service() -> EvalService {
        EvalService::new(ServiceConfig::fixed())
    }

    fn parse_ok(line: &str) -> JsonValue {
        let v = JsonValue::parse(line).unwrap();
        assert_eq!(v.get("ok").and_then(|o| o.as_bool()), Some(true), "{line}");
        v.get("result").unwrap().clone()
    }

    fn parse_err(line: &str) -> (String, String) {
        let v = JsonValue::parse(line).unwrap();
        assert_eq!(v.get("ok").and_then(|o| o.as_bool()), Some(false), "{line}");
        let e = v.get("error").unwrap();
        (
            e.get("code").unwrap().as_str().unwrap().to_string(),
            e.get("message").unwrap().as_str().unwrap().to_string(),
        )
    }

    #[test]
    fn list_scenarios_returns_the_builtin_catalog() {
        let mut service = service();
        let result = parse_ok(&service.handle_line(r#"{"id":1,"method":"list_scenarios"}"#));
        let scenarios = result.get("scenarios").unwrap().as_arr().unwrap();
        assert_eq!(scenarios.len(), ScenarioRegistry::builtin().len());
        assert!(scenarios.iter().any(|s| {
            s.get("name").and_then(|n| n.as_str()) == Some("tiny")
                && s.get("tags")
                    .and_then(|t| t.as_arr())
                    .is_some_and(|tags| tags.iter().any(|t| t.as_str() == Some("paper")))
        }));
    }

    #[test]
    fn malformed_requests_get_typed_errors() {
        let mut service = service();
        for (line, code) in [
            ("{not json", "parse_error"),
            (r#"{"id":1}"#, "invalid_request"),
            (r#"{"id":1,"method":"explode"}"#, "unknown_method"),
            (r#"{"id":1,"method":"evaluate"}"#, "invalid_params"),
            (
                r#"{"id":1,"method":"evaluate","params":{"handle":"nope","scenario":"tiny","episodes":1}}"#,
                "unknown_handle",
            ),
            (
                r#"{"id":1,"method":"load_policy","params":{"policy":"wat"}}"#,
                "unknown_policy_kind",
            ),
            (
                r#"{"id":1,"method":"load_policy","params":{"policy":"playbook","scenario":"missing"}}"#,
                "unknown_scenario",
            ),
            (
                r#"{"id":1,"method":"load_policy","params":{"policy":"acso","scenario":"tiny","weights":"/nonexistent/weights.bin"}}"#,
                "weights_error",
            ),
        ] {
            let (got, _) = parse_err(&service.handle_line(line));
            assert_eq!(got, code, "{line}");
        }
        assert_eq!(service.metrics().errors.total(), 8);
        assert_eq!(service.metrics().requests.get("invalid"), 2);
    }

    #[test]
    fn evaluate_matches_the_offline_evaluation_path() {
        let mut service = service();
        let loaded = parse_ok(
            &service
                .handle_line(r#"{"id":1,"method":"load_policy","params":{"policy":"playbook"}}"#),
        );
        let handle = loaded.get("handle").unwrap().as_str().unwrap().to_string();
        assert_eq!(handle, "playbook@1");
        assert_eq!(
            loaded.get("policy").and_then(|p| p.as_str()),
            Some("Playbook")
        );

        let line = format!(
            r#"{{"id":2,"method":"evaluate","params":{{"handle":"{handle}","scenario":"tiny","episodes":3,"seed":11,"max_time":150,"transcripts":true}}}}"#
        );
        let result = parse_ok(&service.handle_line(&line));

        let offline = evaluate_factory_detailed(
            || Box::new(PlaybookPolicy::new()),
            &EvalConfig {
                sim: SimConfig::tiny().with_max_time(150),
                episodes: 3,
                seed: 11,
            },
        );
        let summary = result.get("summary").unwrap();
        assert_eq!(
            summary
                .get("discounted_return")
                .unwrap()
                .get("mean")
                .unwrap()
                .as_f64(),
            Some(offline.summary.discounted_return.mean)
        );
        let transcripts = result.get("transcripts").unwrap().as_arr().unwrap();
        assert_eq!(transcripts.len(), 3);
        for (t, e) in transcripts.iter().zip(&offline.episodes) {
            assert_eq!(
                t.get("discounted_return").unwrap().as_f64(),
                Some(e.discounted_return)
            );
            assert_eq!(t.get("steps").unwrap().as_u64(), Some(e.steps));
        }
        assert_eq!(service.metrics().episodes_total, 3);
        assert!(service.metrics().steps_total > 0);
    }

    #[test]
    fn coalesced_requests_share_batches_and_keep_their_transcripts() {
        // Four pipelined 2-episode requests against one handle: coalesced
        // into one lockstep run with a higher fill ratio than a solo run,
        // while each request's numbers stay bit-identical to running alone.
        let mut solo = service();
        let load = r#"{"id":0,"method":"load_policy","params":{"policy":"playbook"}}"#;
        parse_ok(&solo.handle_line(load));
        let request = |id: usize, seed: u64| {
            format!(
                r#"{{"id":{id},"method":"evaluate","params":{{"handle":"playbook@1","scenario":"tiny","episodes":2,"seed":{seed},"max_time":150,"transcripts":true}}}}"#
            )
        };
        let solo_responses: Vec<JsonValue> = (0..4)
            .map(|i| parse_ok(&solo.handle_line(&request(i, 20 + i as u64))))
            .collect();
        let solo_fill = solo.metrics().batch_fill_ratio();

        let mut coalesced = service();
        parse_ok(&coalesced.handle_line(load));
        let lines: Vec<String> = (0..4).map(|i| request(i, 20 + i as u64)).collect();
        let outcome = coalesced.handle_batch(&lines);
        assert!(!outcome.shutdown);
        let coalesced_fill = coalesced.metrics().batch_fill_ratio();

        for (line, solo_result) in outcome.responses.iter().zip(&solo_responses) {
            let result = parse_ok(line);
            assert_eq!(
                result.get("transcripts").unwrap(),
                solo_result.get("transcripts").unwrap(),
                "coalescing changed a transcript"
            );
            assert_eq!(
                result
                    .get("batch")
                    .unwrap()
                    .get("coalesced_requests")
                    .unwrap()
                    .as_u64(),
                Some(4)
            );
        }
        assert!(
            coalesced_fill > solo_fill,
            "coalesced fill {coalesced_fill} should beat solo fill {solo_fill}"
        );
    }

    #[test]
    fn shutdown_answers_the_whole_batch_first() {
        let mut service = service();
        let outcome = service.handle_batch(&[
            r#"{"id":1,"method":"shutdown"}"#.to_string(),
            r#"{"id":2,"method":"metrics"}"#.to_string(),
        ]);
        assert!(outcome.shutdown);
        assert_eq!(outcome.responses.len(), 2);
        parse_ok(&outcome.responses[1]);
    }

    #[test]
    fn deeply_nested_lines_are_parse_errors_and_the_batch_goes_on() {
        let mut service = service();
        let outcome = service.handle_batch(&[
            "[".repeat(100_000),
            r#"{"id":2,"method":"list_scenarios"}"#.to_string(),
        ]);
        let (code, message) = parse_err(&outcome.responses[0]);
        assert_eq!(code, "parse_error");
        assert!(message.contains("nesting deeper than"), "{message}");
        parse_ok(&outcome.responses[1]);
    }

    #[test]
    fn over_long_lines_exceed_the_limit_and_the_batch_goes_on() {
        let mut service = service();
        let outcome = service.handle_batch(&[
            format!(
                r#"{{"id":1,"method":"list_scenarios","pad":"{}"}}"#,
                "x".repeat(MAX_REQUEST_LINE_BYTES)
            ),
            r#"{"id":2,"method":"list_scenarios"}"#.to_string(),
        ]);
        let (code, message) = parse_err(&outcome.responses[0]);
        assert_eq!(code, "limit_exceeded");
        assert!(
            message.contains(&MAX_REQUEST_LINE_BYTES.to_string()),
            "{message}"
        );
        assert!(
            outcome.responses[0].starts_with(r#"{"id":null,"#),
            "{}",
            outcome.responses[0]
        );
        let scenarios = parse_ok(&outcome.responses[1]);
        assert!(scenarios.get("scenarios").is_some());
    }

    #[test]
    fn metrics_snapshot_reports_request_counts_and_prometheus_text() {
        let mut service = service();
        service.handle_line(r#"{"id":1,"method":"list_scenarios"}"#);
        let result = parse_ok(&service.handle_line(r#"{"id":2,"method":"metrics"}"#));
        assert_eq!(result.get("requests_total").unwrap().as_u64(), Some(2));
        assert_eq!(result.get("errors_total").unwrap().as_u64(), Some(0));
        let prometheus = result.get("prometheus").unwrap().as_str().unwrap();
        assert!(prometheus.contains("acso_serve_requests_total{method=\"list_scenarios\"} 1"));
        assert!(prometheus.contains("# TYPE acso_serve_request_duration_seconds histogram"));
    }

    /// The crash-recovery acceptance test: a daemon restarted against the
    /// same `--state-dir` serves byte-identical `evaluate` responses for the
    /// handles it had loaded, including a trained `acso` policy.
    #[test]
    fn restart_from_state_snapshot_serves_bit_identical_responses() {
        let dir = std::env::temp_dir().join("acso_serve_state_restart_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let mut first = EvalService::new(ServiceConfig::fixed()).with_state_dir(&dir);
        parse_ok(&first.handle_line(
            r#"{"id":1,"method":"load_policy","params":{"policy":"acso","scenario":"tiny","max_time":60,"train_episodes":1,"dbn_episodes":2,"seed":5}}"#,
        ));
        parse_ok(
            &first.handle_line(r#"{"id":2,"method":"load_policy","params":{"policy":"playbook"}}"#),
        );
        let eval_line = r#"{"id":3,"method":"evaluate","params":{"handle":"acso@1","scenario":"tiny","episodes":2,"seed":9,"max_time":60,"transcripts":true}}"#;
        let before = first.handle_line(eval_line);
        let snap = parse_ok(&first.handle_line(r#"{"id":4,"method":"snapshot"}"#));
        assert_eq!(snap.get("policies").unwrap().as_u64(), Some(2));
        drop(first); // the "crash"

        let mut second = EvalService::new(ServiceConfig::fixed()).with_state_dir(&dir);
        second.restore_on_start();
        let after = second.handle_line(eval_line);
        assert_eq!(
            before, after,
            "restored policy must serve byte-identical responses"
        );
        // The handle counter survives too: new handles never collide.
        let loaded = parse_ok(
            &second.handle_line(r#"{"id":5,"method":"load_policy","params":{"policy":"null"}}"#),
        );
        assert_eq!(
            loaded.get("handle").and_then(|h| h.as_str()),
            Some("null@3")
        );
        // An explicit `restore` round trip works as a protocol method too.
        let restored = parse_ok(&second.handle_line(r#"{"id":6,"method":"restore"}"#));
        assert_eq!(restored.get("policies").unwrap().as_u64(), Some(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A torn snapshot write must degrade to a cold start with an error
    /// event — never serve from, or crash on, half-written state.
    #[test]
    fn torn_state_snapshot_degrades_to_cold_start() {
        let dir = std::env::temp_dir().join("acso_serve_state_torn_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let mut first = EvalService::new(ServiceConfig::fixed()).with_state_dir(&dir);
        parse_ok(
            &first.handle_line(r#"{"id":1,"method":"load_policy","params":{"policy":"playbook"}}"#),
        );
        parse_ok(&first.handle_line(r#"{"id":2,"method":"snapshot"}"#));
        drop(first);

        // Tear the write: truncate the snapshot mid-container.
        let path = dir.join(STATE_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();

        let events_path = dir.join("events.jsonl");
        let mut second = EvalService::new(ServiceConfig::fixed())
            .with_events(EventSink::to_writer(
                Box::new(std::fs::File::create(&events_path).unwrap()),
                Clock::Fixed,
            ))
            .with_state_dir(&dir);
        second.restore_on_start();

        // Cold start: the old handle is gone, but the daemon serves.
        let (code, _) = parse_err(&second.handle_line(
            r#"{"id":3,"method":"evaluate","params":{"handle":"playbook@1","scenario":"tiny","episodes":1,"max_time":60}}"#,
        ));
        assert_eq!(code, "unknown_handle");
        // An explicit `restore` surfaces the typed digest failure.
        let (code, message) = parse_err(&second.handle_line(r#"{"id":4,"method":"restore"}"#));
        assert_eq!(code, "state_error");
        assert!(
            message.contains("digest mismatch"),
            "torn write should fail the digest check: {message}"
        );
        drop(second);
        let events = std::fs::read_to_string(&events_path).unwrap();
        assert!(
            events.contains(r#""event":"snapshot_corrupt""#),
            "startup fallback must log the corruption: {events}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `snapshot`/`restore` without `--state-dir` are well-formed errors.
    #[test]
    fn state_methods_without_a_state_dir_get_typed_errors() {
        let mut service = service();
        let (code, message) = parse_err(&service.handle_line(r#"{"id":1,"method":"snapshot"}"#));
        assert_eq!(code, "state_error");
        assert_eq!(message, "no --state-dir configured");
        let (code, _) = parse_err(&service.handle_line(r#"{"id":2,"method":"restore"}"#));
        assert_eq!(code, "state_error");
    }

    #[test]
    fn evaluate_can_use_a_handle_loaded_earlier_in_the_same_batch() {
        let mut service = service();
        let outcome = service.handle_batch(&[
            r#"{"id":1,"method":"load_policy","params":{"policy":"null"}}"#.to_string(),
            r#"{"id":2,"method":"evaluate","params":{"handle":"null@1","scenario":"tiny","episodes":1,"max_time":150}}"#
                .to_string(),
        ]);
        let loaded = parse_ok(&outcome.responses[0]);
        assert_eq!(
            loaded.get("policy").and_then(|p| p.as_str()),
            Some("No defense")
        );
        let result = parse_ok(&outcome.responses[1]);
        assert_eq!(result.get("episodes").unwrap().as_u64(), Some(1));
        // The null policy never acts, so its IT cost is exactly zero.
        assert_eq!(
            result
                .get("summary")
                .unwrap()
                .get("average_it_cost")
                .unwrap()
                .get("mean")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }
}
