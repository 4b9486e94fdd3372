//! `serve-mixed`: a closed loop of two in-process clients against
//! `EvalService::handle_batch`. Each client sends a seeded mix of `evaluate`
//! requests on ACSO, playbook and DBN-expert handles plus `metrics` calls,
//! waits for its response and sends the next one, so every batch holds one
//! request per client.

use crate::layers::{self, Shape};
use crate::setup::{self, DbnFit, SALT_EPISODES, SALT_LAYERS, SALT_REQUESTS};
use crate::trace::{Span, Trace, Tracer};
use crate::{obj, sys, Args, Report};
use acso_core::agent::{AcsoAgent, AgentConfig, AttentionQNet};
use acso_core::baselines::{DbnExpertPolicy, PlaybookPolicy};
use acso_core::features::NodeFeatureEncoder;
use acso_core::{DefenderPolicy, RolloutPlan, ScenarioRegistry, SyncBatchEngine};
use acso_serve::events::{Clock, EventSink};
use acso_serve::json::JsonValue;
use acso_serve::service::{EvalService, ServiceConfig};
use dbn::{DbnFilter, DbnModel};
use ics_sim::metrics::{EvaluationSummary, MeanStdErr};
use ics_sim::{IcsEnvironment, SimConfig};
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Clients in the closed loop, one per core of a 2-core machine.
const CLIENTS: usize = 2;

const SCENARIO: &str = "paper-small";

/// Policy kinds behind the handles, in load order.
const KINDS: [&str; 3] = ["acso", "playbook", "dbn_expert"];
const ACSO: usize = 0;
const PLAYBOOK: usize = 1;
const EXPERT: usize = 2;

/// Horizons of the baseline `evaluate` requests, hours.
const HORIZONS: [u64; 2] = [150, 300];

/// Most episodes one baseline request asks for.
const MAX_EPISODES: u64 = 4;

/// Horizon of client A's ACSO requests, hours.
const ACSO_HORIZON: u64 = 200;

/// How the handles' DBN is fit at `load_policy`: the service fits on the
/// load's simulator, so the load's horizon sets the fit's episode length.
const FIT: DbnFit = DbnFit {
    episodes: 2,
    max_time: 500,
};

/// One request kind of the mix.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Card {
    Evaluate {
        policy: usize,
        episodes: u64,
        horizon: u64,
    },
    Metrics,
}

fn evaluate(policy: usize, episodes: u64, horizon: u64) -> Card {
    Card::Evaluate {
        policy,
        episodes,
        horizon,
    }
}

/// `policy` at every baseline horizon and episode count.
fn kinds(policy: usize) -> impl Iterator<Item = Card> {
    HORIZONS.into_iter().flat_map(move |horizon| {
        (1..=MAX_EPISODES).map(move |episodes| evaluate(policy, episodes, horizon))
    })
}

/// The 24 batches of one pass, one request per client. Client A asks for
/// ACSO evaluations of 1, 2 and 3 episodes, eight of each. Client B sends
/// every playbook and DBN-expert kind and four `metrics` calls, plus four
/// one-episode ACSO requests: two beside A's one-episode requests at A's
/// horizon, which coalesce with them, and two at another horizon beside
/// A's three-episode ones, which run as a second group. Every batch holds
/// an ACSO request, so the latency percentiles sit on the Q-network's
/// cost, and the median falls inside the two-episode cluster rather than
/// between clusters.
fn pass() -> Vec<[Card; CLIENTS]> {
    let a = (1..=3).flat_map(|episodes| [evaluate(ACSO, episodes, ACSO_HORIZON); 8]);
    let mut baseline = kinds(PLAYBOOK)
        .chain(kinds(EXPERT))
        .chain([Card::Metrics; 4]);
    let mut b = vec![evaluate(ACSO, 1, ACSO_HORIZON); 2];
    b.extend(baseline.by_ref().take(14));
    b.extend([evaluate(ACSO, 1, HORIZONS[1]); 2]);
    b.extend(baseline);
    a.zip(b).map(|(a, b)| [a, b]).collect()
}

/// The two clients' cards in batch `k`. Pass `k / len` sends every batch of
/// [`pass`] once, in a Fisher–Yates order drawn from the stream `(seed,
/// pass)`, so every seed sends the same batches in another order.
fn draw(batches: &[[Card; CLIENTS]], seed: u64, k: usize) -> [Card; CLIENTS] {
    let pass = setup::stream(seed, (k / batches.len()) as u64);
    let mut order: Vec<usize> = (0..batches.len()).collect();
    for i in (1..order.len()).rev() {
        let j = (setup::stream(pass, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    batches[order[k % batches.len()]]
}

/// A request line; `seed` is the evaluate's episode seed.
fn request_line(id: u64, card: Card, handles: &[String], seed: u64) -> String {
    match card {
        Card::Metrics => format!(r#"{{"id":{id},"method":"metrics"}}"#),
        Card::Evaluate {
            policy,
            episodes,
            horizon,
        } => format!(
            r#"{{"id":{id},"method":"evaluate","params":{{"handle":"{}","scenario":"{SCENARIO}","episodes":{episodes},"max_time":{horizon},"seed":{seed}}}}}"#,
            handles[policy]
        ),
    }
}

/// The service with one handle per policy kind, loaded the way a client
/// would: `load_policy` calls, the ACSO one from the weights file.
fn start_service(weights: &std::path::Path, fit_seed: u64) -> (EvalService, Vec<String>) {
    let mut service = EvalService::new(ServiceConfig::from_env());
    let handles = KINDS
        .iter()
        .enumerate()
        .map(|(i, kind)| {
            let weights = if i == ACSO {
                format!(r#","weights":{}"#, JsonValue::str(weights.display().to_string()))
            } else {
                String::new()
            };
            let line = format!(
                r#"{{"id":{i},"method":"load_policy","params":{{"policy":"{kind}","scenario":"{SCENARIO}","max_time":{},"dbn_episodes":{},"seed":{fit_seed}{weights}}}}}"#,
                FIT.max_time, FIT.episodes
            );
            let response = JsonValue::parse(&service.handle_line(&line)).expect("the service answers JSON");
            response
                .get("result")
                .and_then(|r| r.get("handle"))
                .and_then(JsonValue::as_str)
                .unwrap_or_else(|| panic!("load_policy {kind} failed: {response}"))
                .to_string()
        })
        .collect();
    (service, handles)
}

/// The benchmark's own copies of the served policies, built from the same
/// inputs, to replay requests through `SyncBatchEngine::rollout_many`.
struct Replicas {
    acso: AcsoAgent<AttentionQNet>,
    model: DbnModel,
}

impl Replicas {
    fn make(&self, policy: usize) -> Box<dyn DefenderPolicy> {
        match policy {
            ACSO => Box::new(self.acso.eval_clone()),
            PLAYBOOK => Box::new(PlaybookPolicy::new()),
            _ => Box::new(DbnExpertPolicy::new(self.model.clone())),
        }
    }
}

/// The slots of a batch's evaluate requests, grouped as the service groups
/// them: same policy, scenario and horizon, in order of first arrival.
fn groups_of(cards: &[Card]) -> Vec<Vec<usize>> {
    let key = |slot: usize| match cards[slot] {
        Card::Evaluate {
            policy, horizon, ..
        } => Some((policy, horizon)),
        Card::Metrics => None,
    };
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for slot in 0..cards.len() {
        let Some(k) = key(slot) else { continue };
        match groups.iter_mut().find(|g| key(g[0]) == Some(k)) {
            Some(group) => group.push(slot),
            None => groups.push(vec![slot]),
        }
    }
    groups
}

/// One answered batch.
struct Batch {
    lines: Vec<String>,
    cards: Vec<Card>,
    /// Episode seed of each request (unused by `metrics` calls).
    seeds: Vec<u64>,
    responses: Vec<String>,
    ms: f64,
}

fn mean_std_err(m: &MeanStdErr) -> JsonValue {
    obj(vec![
        ("mean", JsonValue::num(m.mean)),
        ("std_err", JsonValue::num(m.std_err)),
    ])
}

/// The `summary` block the service renders for a set of episodes.
fn summary(s: &EvaluationSummary) -> JsonValue {
    obj(vec![
        ("episodes", JsonValue::num(s.episodes as f64)),
        ("discounted_return", mean_std_err(&s.discounted_return)),
        ("final_plcs_offline", mean_std_err(&s.final_plcs_offline)),
        ("average_it_cost", mean_std_err(&s.average_it_cost)),
        (
            "average_nodes_compromised",
            mean_std_err(&s.average_nodes_compromised),
        ),
    ])
}

/// Replays batches through `SyncBatchEngine::rollout_many` with the
/// service's lane width and threads.
struct Replayer<'a> {
    sim: &'a SimConfig,
    replicas: &'a Replicas,
    engine: SyncBatchEngine,
    threads: usize,
}

impl Replayer<'_> {
    /// The summary each evaluate request of `batch` should carry, by slot.
    fn summaries(&self, batch: &Batch) -> Vec<Option<JsonValue>> {
        let mut out = vec![None; batch.cards.len()];
        for group in groups_of(&batch.cards) {
            let mut policy = 0;
            let plans: Vec<RolloutPlan> = group
                .iter()
                .map(|&slot| {
                    let Card::Evaluate {
                        policy: p,
                        episodes,
                        horizon,
                    } = batch.cards[slot]
                    else {
                        unreachable!("groups hold evaluate requests only")
                    };
                    policy = p;
                    RolloutPlan::new(
                        self.sim.clone().with_max_time(horizon),
                        episodes as usize,
                        batch.seeds[slot],
                    )
                    .with_threads(self.threads)
                })
                .collect();
            let (results, _) = self
                .engine
                .rollout_many(&plans, &|| self.replicas.make(policy));
            for (&slot, episodes) in group.iter().zip(results) {
                out[slot] = Some(summary(&EvaluationSummary::from_episodes(&episodes)));
            }
        }
        out
    }
}

/// Whether a response is `ok` and, where `expected` is given, carries it as
/// its summary.
fn response_matches(response: &str, expected: Option<&JsonValue>) -> bool {
    let Ok(value) = JsonValue::parse(response) else {
        return false;
    };
    if value.get("ok").and_then(JsonValue::as_bool) != Some(true) {
        return false;
    }
    expected.is_none_or(|summary| {
        value
            .get("result")
            .and_then(|r| r.get("summary"))
            .map(JsonValue::to_string)
            == Some(summary.to_string())
    })
}

/// Counts each response of `batch` as one operation: failed when it is not
/// `ok`, or when its summary differs from the replay's `expected` one.
fn check_batch(report: &mut Report, batch: &Batch, expected: Option<&[Option<JsonValue>]>) {
    for (slot, response) in batch.responses.iter().enumerate() {
        report.check(response_matches(
            response,
            expected.and_then(|e| e[slot].as_ref()),
        ));
    }
}

/// The service's stage events: the instant each event line is written.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    /// `request_accepted`: a request parsed and its envelope checked.
    Accepted,
    /// `evaluate_batch`: one group's engine run finished.
    GroupDone,
    /// `episodes_done`: the group's bookkeeping finished.
    EpisodesDone,
    Other,
}

/// An event-stream writer that keeps only when each event was written.
#[derive(Clone, Default)]
struct EventTimes(Arc<Mutex<Vec<(Instant, Event)>>>);

impl EventTimes {
    fn take(&self) -> Vec<(Instant, Event)> {
        std::mem::take(
            &mut *self
                .0
                .lock()
                .expect("the service thread never panics while writing"),
        )
    }
}

impl Write for EventTimes {
    fn write(&mut self, line: &[u8]) -> std::io::Result<usize> {
        let at = Instant::now();
        let event = if line.starts_with(br#"{"event":"request_accepted""#) {
            Event::Accepted
        } else if line.starts_with(br#"{"event":"evaluate_batch""#) {
            Event::GroupDone
        } else if line.starts_with(br#"{"event":"episodes_done""#) {
            Event::EpisodesDone
        } else {
            Event::Other
        };
        self.0
            .lock()
            .expect("the service thread never panics while writing")
            .push((at, event));
        Ok(line.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Stage times of one batch in the traced pass, ms.
struct Staged {
    request: f64,
    /// Engine run of each group, in `groups_of` order.
    groups: Vec<f64>,
}

/// Sends every batch again through the service with its event stream on,
/// and turns the events into spans: one `request` span per batch around
/// `handle_batch`, holding a `parse` span per request and a `group` span per
/// engine run. Returns the spans, the stage times and the responses.
fn traced_pass(
    service: &mut EvalService,
    events: &EventTimes,
    batches: &[Batch],
) -> (Vec<Span>, Vec<Staged>, Vec<Vec<String>>) {
    let mut t = Tracer::new(true, Instant::now());
    let mut staged = Vec::with_capacity(batches.len());
    let mut responses = Vec::with_capacity(batches.len());
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    for (b, batch) in batches.iter().enumerate() {
        let id = b as u64;
        events.take();
        let start = Instant::now();
        let outcome = service.handle_batch(&batch.lines);
        let end = Instant::now();
        t.begin_at("request", id, start);
        let mut from = start;
        let mut groups = Vec::new();
        for (at, event) in events.take() {
            match event {
                Event::Accepted => {
                    t.record("parse", id, from, at);
                    from = at;
                }
                Event::GroupDone => {
                    t.record("group", id, from, at);
                    groups.push(ms(from, at));
                    from = at;
                }
                Event::EpisodesDone => from = at,
                Event::Other => {}
            }
        }
        t.end_at(end);
        staged.push(Staged {
            request: ms(start, end),
            groups,
        });
        responses.push(outcome.responses);
    }
    (t.finish(), staged, responses)
}

/// Runs `serve-mixed`.
pub fn run(args: &Args) -> Report {
    let weights = setup::weights_path("serve-mixed", args.seed);
    let fit_seed = setup::dbn_seed(args.seed);
    let ((mut service, handles), setup_times) = setup::repeated(|| {
        setup::write_weights(&weights, args.seed);
        start_service(&weights, fit_seed)
    });
    // The replicas load the same file and fit the same model, outside the
    // timed set-up.
    let defender = setup::defender(
        SCENARIO,
        Some(FIT.max_time),
        FIT,
        AgentConfig {
            seed: fit_seed,
            ..AgentConfig::smoke()
        },
        args.seed,
        &weights,
    );
    let _ = std::fs::remove_file(&weights);
    let mut acso = defender.agent;
    acso.set_explore(false);
    let replicas = Replicas {
        acso,
        model: defender.model,
    };
    let sim = setup::scenario_sim(&ScenarioRegistry::builtin(), SCENARIO, None);
    let replayer = Replayer {
        sim: &sim,
        replicas: &replicas,
        engine: SyncBatchEngine::new(service.config().lanes),
        threads: service.config().threads,
    };

    let cards = pass();
    let mix_seed = setup::stream(args.seed, SALT_REQUESTS);
    let metrics0 = service.metrics().clone();
    let cpu0 = sys::cpu_seconds();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(args.seconds);
    let mut batches: Vec<Batch> = Vec::new();
    let mut rates = Vec::new();
    let (mut pass_started, mut pass_steps) = (started, service.metrics().steps_total);
    let mut next_id = KINDS.len() as u64;
    // Whole passes, so every run sends the same batches.
    while !batches.len().is_multiple_of(cards.len())
        || batches.is_empty()
        || Instant::now() < deadline
    {
        let drawn = draw(&cards, mix_seed, batches.len());
        let mut lines = Vec::with_capacity(CLIENTS);
        let mut seeds = Vec::with_capacity(CLIENTS);
        for &card in &drawn {
            next_id += 1;
            let seed = setup::stream(args.seed, SALT_EPISODES + next_id) >> 11;
            lines.push(request_line(next_id, card, &handles, seed));
            seeds.push(seed);
        }
        let sent = Instant::now();
        let outcome = service.handle_batch(&lines);
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        batches.push(Batch {
            lines,
            cards: drawn.to_vec(),
            seeds,
            responses: outcome.responses,
            ms,
        });
        if batches.len().is_multiple_of(cards.len()) {
            let steps = service.metrics().steps_total;
            rates.push((steps - pass_steps) as f64 / pass_started.elapsed().as_secs_f64());
            (pass_started, pass_steps) = (Instant::now(), steps);
        }
    }
    let wall = started.elapsed().as_secs_f64();
    let cpu_util = (sys::cpu_seconds() - cpu0) / (wall * service.config().threads as f64);
    let served = service.metrics().clone();
    let steps = served.steps_total - metrics0.steps_total;
    let filled = served.batch_filled_slots_total - metrics0.batch_filled_slots_total;
    let offered = served.batch_capacity_slots_total - metrics0.batch_capacity_slots_total;
    let rounds = served.batch_rounds_total - metrics0.batch_rounds_total;
    // Every client waits for the whole batch its request rode in.
    let latencies: Vec<f64> = batches
        .iter()
        .flat_map(|b| std::iter::repeat_n(b.ms, b.lines.len()))
        .collect();

    let mut report = Report::default();
    report.metrics.insert("setup_s", sys::median(&setup_times));
    report.metrics.insert("steps_per_s", sys::median(&rates));
    report.detail("steps_per_s_whole_run", JsonValue::num(steps as f64 / wall));
    report
        .metrics
        .insert("latency_p50_ms", sys::median(&latencies));
    let (tail, tail_pct) =
        sys::tail(&latencies).expect("a timed region answers more than ten requests");
    report.metrics.insert("latency_tail_ms", tail);
    report.detail("lanes", JsonValue::num(service.config().lanes as f64));
    report.detail("threads", JsonValue::num(service.config().threads as f64));
    report.detail("batches", JsonValue::num(batches.len() as f64));
    report.detail("requests", JsonValue::num(latencies.len() as f64));
    report.detail("steps", JsonValue::num(steps as f64));
    report.detail("latency_tail_percentile", JsonValue::num(tail_pct));
    report.detail(
        "batch_fill",
        JsonValue::num(filled as f64 / offered.max(1) as f64),
    );
    report.detail("cpu_util", JsonValue::num(cpu_util));
    report.detail(
        "setup_s_samples",
        JsonValue::Arr(setup_times.iter().map(|t| JsonValue::num(*t)).collect()),
    );

    // Every response must be `ok`; the first pass's summaries (every
    // batch's, when traced) must match a `rollout_many` replay.
    let replayed = if args.trace {
        batches.len()
    } else {
        cards.len().min(batches.len())
    };
    for (b, batch) in batches.iter().enumerate() {
        let expected = (b < replayed).then(|| replayer.summaries(batch));
        check_batch(&mut report, batch, expected.as_deref());
    }
    report.detail("batches_replayed", JsonValue::num(replayed as f64));

    if !args.trace {
        report.metrics.insert("peak_rss_mb", sys::peak_rss_mb());
        return report;
    }

    // The traced pass: the same batches again, now with the event stream
    // on; its evaluate responses must equal the untraced ones.
    let events = EventTimes::default();
    let mut service = service.with_events(EventSink::to_writer(
        Box::new(events.clone()),
        Clock::System,
    ));
    let traced_started = Instant::now();
    let (spans, staged, responses) = traced_pass(&mut service, &events, &batches);
    let traced_wall = traced_started.elapsed().as_secs_f64();
    for (batch, traced) in batches.iter().zip(&responses) {
        for (slot, card) in batch.cards.iter().enumerate() {
            if matches!(card, Card::Evaluate { .. }) {
                report.check(traced[slot] == batch.responses[slot]);
            }
        }
    }
    let mut trace = Trace::default();
    trace.absorb(spans);
    let stats = trace.stats();
    let mut overhead_ms = Vec::new();
    let mut hol_ms = Vec::new();
    let mut coalesced = Vec::new();
    for (batch, stage) in batches.iter().zip(&staged) {
        let groups = groups_of(&batch.cards);
        overhead_ms.push(stage.request - stage.groups.iter().sum::<f64>());
        for slot in 0..batch.cards.len() {
            let own = groups
                .iter()
                .position(|g| g.contains(&slot))
                .map_or(0.0, |g| stage.groups[g]);
            hol_ms.push(stage.request - own);
        }
        coalesced.extend(groups.iter().map(|g| g.len() as f64));
    }

    // The served ACSO's forward layers, at the engine's mean lane fill.
    let state = {
        let mut env = IcsEnvironment::new(sim.clone());
        let obs = env.reset();
        let mut filter = DbnFilter::new(replicas.model.clone(), env.topology().node_count());
        filter.reset();
        NodeFeatureEncoder::new(env.topology()).encode(&obs, &filter)
    };
    let shape = Shape::of(
        &state,
        (filled as f64 / rounds.max(1) as f64).round() as usize,
    );
    let layer = layers::measure(&shape, false, setup::stream(args.seed, SALT_LAYERS));
    let m = &mut report.metrics;
    m.insert("dbn.fit_s", defender.fit_s);
    m.insert(
        "acso-core.batch_fill",
        filled as f64 / offered.max(1) as f64,
    );
    layer.insert_forward(m);
    m.insert("acso-runtime.cpu_util", cpu_util);
    m.insert(
        "acso-serve.parse_us",
        stats.get("parse").map_or(0.0, |s| s.self_us()),
    );
    m.insert("acso-serve.overhead_ms", sys::mean(&overhead_ms));
    m.insert("acso-serve.hol_wait_ms", sys::mean(&hol_ms));
    m.insert("acso-serve.coalesced", sys::mean(&coalesced));
    m.insert("perfbench.trace_overhead", traced_wall / wall - 1.0);
    m.insert("perfbench.coverage", trace.coverage("request"));
    report.detail("layers", layer.describe(&shape));
    report.trace = Some(trace);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(cards: Vec<Card>, responses: Vec<String>) -> Batch {
        Batch {
            lines: vec![String::new(); cards.len()],
            seeds: vec![0; cards.len()],
            cards,
            responses,
            ms: 1.0,
        }
    }

    #[test]
    fn every_seed_sends_the_same_batches_per_pass() {
        let batches = pass();
        assert_eq!(batches.len(), 24);
        let order = |seed: u64| -> Vec<[Card; CLIENTS]> {
            (0..batches.len())
                .map(|k| draw(&batches, seed, k))
                .collect()
        };
        let sorted = |mut b: Vec<[Card; CLIENTS]>| {
            b.sort_by_key(|b| format!("{b:?}"));
            b
        };
        assert_ne!(order(1), order(2), "seeds reorder the batches");
        assert_eq!(sorted(order(1)), sorted(order(2)));
        assert!(batches
            .iter()
            .all(|b| matches!(b[0], Card::Evaluate { policy: ACSO, .. })));
        let coalescing = batches
            .iter()
            .filter(|b| groups_of(&b[..]).iter().any(|g| g.len() > 1))
            .count();
        assert_eq!(coalescing, 2);
        let metrics = batches.iter().filter(|b| b[1] == Card::Metrics).count();
        assert_eq!(metrics, 4);
    }

    #[test]
    fn perturbed_or_failed_responses_are_counted_as_failed() {
        let card = Card::Evaluate {
            policy: 1,
            episodes: 1,
            horizon: 150,
        };
        let expected = summary(&EvaluationSummary::from_episodes(&[]));
        let ok = format!(r#"{{"id":1,"ok":true,"result":{{"summary":{expected}}}}}"#);
        let perturbed = ok.replacen(r#""episodes":0"#, r#""episodes":1"#, 1);
        let refused = r#"{"id":1,"ok":false,"error":{"code":"x","message":"y"}}"#.to_string();
        for (response, failed) in [(ok, 0), (perturbed, 1), (refused, 1)] {
            let mut report = Report::default();
            check_batch(
                &mut report,
                &batch(vec![card], vec![response]),
                Some(&[Some(expected.clone())]),
            );
            assert_eq!((report.attempted, report.failed), (1, failed));
        }
    }

    #[test]
    fn event_lines_mark_the_service_stages() {
        let mut service = EvalService::new(ServiceConfig::fixed());
        let events = EventTimes::default();
        service = service.with_events(EventSink::to_writer(Box::new(events.clone()), Clock::Fixed));
        service.handle_batch(&[
            r#"{"id":1,"method":"load_policy","params":{"policy":"playbook"}}"#.to_string(),
            r#"{"id":2,"method":"evaluate","params":{"handle":"playbook@1","scenario":"tiny","episodes":1,"max_time":5}}"#.to_string(),
        ]);
        let kinds: Vec<Event> = events
            .take()
            .into_iter()
            .map(|(_, e)| e)
            .filter(|e| *e != Event::Other)
            .collect();
        assert_eq!(
            kinds,
            [
                Event::Accepted,
                Event::Accepted,
                Event::GroupDone,
                Event::EpisodesDone
            ]
        );
    }
}
