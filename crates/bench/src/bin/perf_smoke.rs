//! Perf-trajectory smoke benchmark: measures simulator rollout throughput
//! (serial vs one-lane parallel vs 16-lane lockstep), neural forward/backward cost,
//! batched-inference speedup, and the DQN update cost, and emits a `BENCH_<n>.json` snapshot so the repository tracks
//! performance across PRs (summarise the trajectory with the
//! `bench_compare` binary).
//!
//! Usage:
//!
//! ```sh
//! cargo run --release -p acso-bench --bin perf_smoke -- \
//!     [--quick] [--out BENCH_x.json] [--backend reference|simd]
//! ```
//!
//! `--quick` shrinks the workload for CI; `--out` writes the JSON snapshot
//! (stdout always gets a human-readable summary). `ACSO_THREADS` pins the
//! parallel worker count. `--backend` (or `ACSO_BACKEND`) selects the kernel
//! backend the flat snapshot metrics are measured with; the snapshot is
//! tagged with the choice. When the binary is compiled with
//! `--features backend-simd` and the primary backend is the reference one,
//! the neural metrics are *also* measured under the SIMD backend and
//! recorded in a `simd_kernels` block, so one snapshot carries the
//! before/after pair.
//!
//! Schema v5 adds the `xl_topology` block: per-step throughput of the full
//! world-model hot path (environment step + DBN filter update + feature
//! encode) on the ~1000-host `registry-1000` scenario, measured with the
//! sparse activity-indexed path and with the dense reference path
//! (`set_dense_observation_reference` + dense encode), plus the same
//! pipeline on the paper_small topology (the per-host sublinearity
//! reference) and the engine plan the autoscaler picks for that workload.

use acso_bench::prefilled_update_agent;
use acso_core::agent::{AttentionQNet, BaselineConvQNet, QNetwork};
use acso_core::baselines::PlaybookPolicy;
use acso_core::features::{EncodeScratch, NodeFeatureEncoder};
use acso_core::rollout::{rollout_serial, RolloutPlan, SyncBatchEngine};
use acso_core::{ActionSpace, DefenderPolicy, ScenarioRegistry, StateFeatures};
use acso_runtime::{AutoscalePlan, WorkloadShape};
use dbn::learn::{learn_model, LearnConfig};
use dbn::DbnFilter;
use ics_net::TopologySpec;
use ics_sim::{IcsEnvironment, SimConfig};
use neural::backend::BackendRef;
use std::time::Instant;

struct SimThroughput {
    episodes: usize,
    hours: u64,
    serial_steps_per_sec: f64,
    parallel_steps_per_sec: f64,
    threads: usize,
}

fn measure_sim_throughput(episodes: usize, hours: u64) -> SimThroughput {
    let sim = SimConfig::small().with_max_time(hours);
    let serial_plan = RolloutPlan::new(sim.clone(), episodes, 7).with_threads(1);
    let parallel_plan = RolloutPlan::new(sim, episodes, 7);
    let total_steps = (episodes as u64 * hours) as f64;

    // Warm-up (page in code and allocator state), then timed runs.
    let _ = rollout_serial(&mut PlaybookPolicy::new(), &serial_plan);
    let start = Instant::now();
    let serial = rollout_serial(&mut PlaybookPolicy::new(), &serial_plan);
    let serial_time = start.elapsed();
    let playbook = || Box::new(PlaybookPolicy::new()) as Box<dyn DefenderPolicy>;
    let start = Instant::now();
    let parallel = SyncBatchEngine::new(1).rollout(&parallel_plan, &playbook);
    let parallel_time = start.elapsed();
    assert_eq!(serial, parallel, "parallel rollout must be bit-identical");
    let batched = SyncBatchEngine::new(16).rollout(&parallel_plan, &playbook);
    assert_eq!(serial, batched, "batched rollout must be bit-identical");

    SimThroughput {
        episodes,
        hours,
        serial_steps_per_sec: total_steps / serial_time.as_secs_f64(),
        parallel_steps_per_sec: total_steps / parallel_time.as_secs_f64(),
        threads: parallel_plan.threads,
    }
}

struct XlThroughput {
    scenario: String,
    nodes: usize,
    plcs: usize,
    hours: u64,
    sparse_steps_per_sec: f64,
    dense_steps_per_sec: f64,
    /// Node count of the small-topology reference pipeline run.
    small_nodes: usize,
    /// The same env+filter+encode pipeline on the paper_small topology.
    small_steps_per_sec: f64,
    plan: AutoscalePlan,
}

impl XlThroughput {
    fn sparse_speedup(&self) -> f64 {
        self.sparse_steps_per_sec / self.dense_steps_per_sec
    }

    /// Per-step cost growth divided by node-count growth, small topology →
    /// XL topology. Below 1.0 means per-step wall-clock grew *sublinearly*
    /// in world size — the sparse hot-path contract.
    fn per_host_scaling(&self) -> f64 {
        let cost_ratio = self.small_steps_per_sec / self.sparse_steps_per_sec;
        let node_ratio = self.nodes as f64 / self.small_nodes as f64;
        cost_ratio / node_ratio
    }
}

/// Measures the full world-model hot path — environment step, DBN filter
/// update, feature encode, playbook defender decision — over repeated
/// episodes of `hours` simulated hours until at least `min_steps` total
/// steps are timed. One 60-hour episode is only 60 steps (~milliseconds),
/// which page-fault and allocator warm-up noise dominates; amortizing over
/// many episodes in a single timed region makes per-step cost stable.
///
/// The playbook defender keeps the infection bounded, which is the regime
/// the sparse paths are built for: an *undefended* 1000-host world
/// saturates (every node compromised and alerting), and once activity ≈
/// world size, sparse and dense necessarily cost the same. Sparse and dense
/// paths produce bit-identical observations and features (pinned by the
/// equivalence tests), so their ratio is pure sparsity payoff.
fn measure_pipeline(sim: &SimConfig, hours: u64, min_steps: u64, dense: bool) -> f64 {
    use rand::SeedableRng;

    let model = learn_model(&LearnConfig {
        episodes: 1,
        seed: 0,
        sim: sim.clone().with_max_time(hours.min(30)),
    });
    let nodes = sim.topology.total_nodes();
    let mut filter = DbnFilter::new(model, nodes);
    let mut features = StateFeatures::empty();
    let mut scratch = EncodeScratch::new();
    let mut steps = 0u64;
    let mut episode = 0u64;
    // Only the step loop is timed: per-episode environment construction is
    // identical in both modes and would dilute the per-step signal.
    let mut timed = std::time::Duration::ZERO;
    while steps < min_steps {
        let mut env = IcsEnvironment::new(sim.clone().with_seed(9 + episode));
        env.set_dense_observation_reference(dense);
        let encoder = NodeFeatureEncoder::new(env.topology());
        let mut policy = PlaybookPolicy::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11 + episode);
        let mut obs = env.reset();
        filter.reset();
        scratch.invalidate();
        policy.reset(env.topology());
        let mut hour = 0u64;
        let episode_start = Instant::now();
        loop {
            filter.update(&obs);
            if dense {
                encoder.encode_into(&obs, &filter, &mut features);
            } else {
                encoder.encode_active_into(&obs, &filter, &mut scratch, &mut features);
            }
            std::hint::black_box(&features);
            let actions = policy.decide(&obs, env.topology(), &mut rng);
            let step = env.step(&actions);
            steps += 1;
            hour += 1;
            obs = step.observation;
            if step.done || hour >= hours {
                break;
            }
        }
        timed += episode_start.elapsed();
        episode += 1;
    }
    steps as f64 / timed.as_secs_f64()
}

/// Measures the world-model hot path on the ~1000-host registry scenario
/// (sparse and dense-reference), plus the same pipeline on the paper_small
/// topology as the sublinearity reference point, and the engine plan the
/// autoscaler picks for a paper-scale (100-episode) XL evaluation.
fn measure_xl_throughput(hours: u64, min_steps: u64) -> XlThroughput {
    let registry = ScenarioRegistry::builtin();
    let scenario = registry
        .get("registry-1000")
        .expect("registry-1000 scenario exists");
    let sim = scenario.config.clone().with_max_time(hours);
    let nodes = sim.topology.total_nodes();
    let plcs = sim.topology.plcs;

    let small_sim = SimConfig {
        topology: TopologySpec::paper_small(),
        ..scenario.config.clone()
    }
    .with_max_time(hours);
    let small_nodes = small_sim.topology.total_nodes();
    // Warm-up (page in code and allocator state), then the measured runs;
    // dense before sparse so any residual warm-up favours the reference.
    let _ = measure_pipeline(&small_sim, hours, min_steps, false);
    let small_steps_per_sec = measure_pipeline(&small_sim, hours, min_steps, false);
    let dense_steps_per_sec = measure_pipeline(&sim, hours, min_steps, true);
    let sparse_steps_per_sec = measure_pipeline(&sim, hours, min_steps, false);

    let plan = acso_runtime::plan(&WorkloadShape {
        nodes,
        actions: ActionSpace::from_counts(nodes, plcs).len(),
        episodes: 100,
    });
    XlThroughput {
        scenario: scenario.name.clone(),
        nodes,
        plcs,
        hours,
        sparse_steps_per_sec,
        dense_steps_per_sec,
        small_nodes,
        small_steps_per_sec,
        plan,
    }
}

fn features_for(spec: TopologySpec) -> (StateFeatures, ActionSpace) {
    let sim = SimConfig {
        topology: spec,
        ..SimConfig::tiny()
    }
    .with_max_time(50);
    let model = learn_model(&LearnConfig {
        episodes: 1,
        seed: 0,
        sim: sim.clone(),
    });
    let mut env = IcsEnvironment::new(sim);
    let obs = env.reset();
    let encoder = NodeFeatureEncoder::new(env.topology());
    let filter = DbnFilter::new(model, env.topology().node_count());
    (
        encoder.encode(&obs, &filter),
        ActionSpace::new(env.topology()),
    )
}

struct BatchedInference {
    batch: usize,
    attention_per_state_ns: f64,
    attention_batched_ns_per_state: f64,
    baseline_per_state_ns: f64,
    baseline_batched_ns_per_state: f64,
}

impl BatchedInference {
    fn attention_speedup(&self) -> f64 {
        self.attention_per_state_ns / self.attention_batched_ns_per_state
    }

    fn baseline_speedup(&self) -> f64 {
        self.baseline_per_state_ns / self.baseline_batched_ns_per_state
    }
}

/// Measures per-state inference cost with and without batching: `batch`
/// states answered by one `q_values_batch` call versus `batch` solo
/// `q_values` calls (same states, same outputs to the backend's tolerance).
fn measure_batched_inference(iters: usize, batch: usize, backend: BackendRef) -> BatchedInference {
    let (states, space) = acso_bench::episode_states(TopologySpec::paper_small(), batch);
    let refs: Vec<&StateFeatures> = states.iter().collect();
    let mut attention = AttentionQNet::new(space.clone(), 0);
    attention.set_kernel_backend(backend);
    let mut baseline = BaselineConvQNet::new(space, 0);
    baseline.set_kernel_backend(backend);

    let per_state = |f: &mut dyn FnMut()| {
        f(); // warm-up (fills the scratch pools)
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed().as_nanos() as f64 / (iters * batch) as f64
    };

    let attention_per_state_ns = per_state(&mut || {
        for f in &states {
            std::hint::black_box(attention.q_values(f));
        }
    });
    let attention_batched_ns_per_state = per_state(&mut || {
        std::hint::black_box(attention.q_values_batch(&refs));
    });
    let baseline_per_state_ns = per_state(&mut || {
        for f in &states {
            std::hint::black_box(baseline.q_values(f));
        }
    });
    let baseline_batched_ns_per_state = per_state(&mut || {
        std::hint::black_box(baseline.q_values_batch(&refs));
    });

    BatchedInference {
        batch,
        attention_per_state_ns,
        attention_batched_ns_per_state,
        baseline_per_state_ns,
        baseline_batched_ns_per_state,
    }
}

struct BatchedTraining {
    batch: usize,
    attention_batched_update_ns: f64,
    baseline_batched_update_ns: f64,
}

/// Measures one full DQN gradient update (bootstrap, forward, backward,
/// optimizer step) per architecture.
fn measure_batched_training(iters: usize, batch: usize, backend: BackendRef) -> BatchedTraining {
    let mut attention = prefilled_update_agent(|s| AttentionQNet::new(s, 0), batch);
    attention.network_mut().set_kernel_backend(backend);
    let mut baseline = prefilled_update_agent(|s| BaselineConvQNet::new(s, 0), batch);
    baseline.network_mut().set_kernel_backend(backend);

    let per_update = |f: &mut dyn FnMut()| {
        f(); // warm-up (fills the scratch pools)
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed().as_nanos() as f64 / iters as f64
    };

    let attention_batched_update_ns = per_update(&mut || {
        std::hint::black_box(attention.maybe_train().expect("update"));
    });
    let baseline_batched_update_ns = per_update(&mut || {
        std::hint::black_box(baseline.maybe_train().expect("update"));
    });

    BatchedTraining {
        batch,
        attention_batched_update_ns,
        baseline_batched_update_ns,
    }
}

struct NnForward {
    attention_forward_ns: f64,
    attention_forward_backward_ns: f64,
    baseline_forward_ns: f64,
}

fn measure_nn_forward(iters: usize, backend: BackendRef) -> NnForward {
    let (features, space) = features_for(TopologySpec::paper_small());
    let mut attention = AttentionQNet::new(space.clone(), 0);
    attention.set_kernel_backend(backend);
    let mut baseline = BaselineConvQNet::new(space, 0);
    baseline.set_kernel_backend(backend);

    let time_per_op = |f: &mut dyn FnMut()| {
        f(); // warm-up (fills the scratch pools)
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed().as_nanos() as f64 / iters as f64
    };

    let attention_forward_ns = time_per_op(&mut || {
        std::hint::black_box(attention.q_values(&features));
    });
    let attention_forward_backward_ns = time_per_op(&mut || {
        let q = attention.q_values(&features);
        let mut grad = vec![0.0f32; q.len()];
        grad[1] = 1.0;
        attention.backward(&grad);
        std::hint::black_box(q);
    });
    let baseline_forward_ns = time_per_op(&mut || {
        std::hint::black_box(baseline.q_values(&features));
    });

    NnForward {
        attention_forward_ns,
        attention_forward_backward_ns,
        baseline_forward_ns,
    }
}

/// All neural metrics for one kernel backend: solo forward/backward,
/// batched inference, and the DQN update.
struct NeuralMetrics {
    nn: NnForward,
    batched: BatchedInference,
    training: BatchedTraining,
}

fn measure_neural(iters: usize, backend: BackendRef) -> NeuralMetrics {
    NeuralMetrics {
        nn: measure_nn_forward(iters, backend),
        batched: measure_batched_inference(iters.max(20) / 4, 32, backend),
        training: measure_batched_training(iters.max(40) / 8, 32, backend),
    }
}

fn print_neural(m: &NeuralMetrics, iters: usize, backend: &str) {
    println!("nn_forward (paper_small topology, {iters} iters, {backend} backend):");
    println!(
        "  attention forward:          {:>10.0} ns/op",
        m.nn.attention_forward_ns
    );
    println!(
        "  attention forward+backward: {:>10.0} ns/op",
        m.nn.attention_forward_backward_ns
    );
    println!(
        "  baseline forward:           {:>10.0} ns/op",
        m.nn.baseline_forward_ns
    );
    println!(
        "batched_inference (paper_small topology, batch {}, {backend} backend):",
        m.batched.batch
    );
    println!(
        "  attention: {:>8.0} -> {:>8.0} ns/state ({:.2}x)",
        m.batched.attention_per_state_ns,
        m.batched.attention_batched_ns_per_state,
        m.batched.attention_speedup()
    );
    println!(
        "  baseline:  {:>8.0} -> {:>8.0} ns/state ({:.2}x)",
        m.batched.baseline_per_state_ns,
        m.batched.baseline_batched_ns_per_state,
        m.batched.baseline_speedup()
    );
    println!(
        "batched_training (paper_small topology, minibatch {}, {backend} backend):",
        m.training.batch
    );
    println!(
        "  attention update: {:>10.0} ns",
        m.training.attention_batched_update_ns
    );
    println!(
        "  baseline update:  {:>10.0} ns",
        m.training.baseline_batched_update_ns
    );
}

/// Measures the neural metrics under the SIMD backend when it is compiled
/// in and is not already the primary backend, for the `simd_kernels`
/// snapshot block (also printed to stdout). Returns an empty string when
/// the feature is off or SIMD is already the primary backend.
fn simd_kernels_block(iters: usize, primary: &str) -> String {
    #[cfg(feature = "backend-simd")]
    {
        if primary != "simd" {
            let simd = neural::backend::backend_by_name("simd").expect("simd compiled in");
            let m = measure_neural(iters, simd);
            print_neural(&m, iters, "simd");
            return format!(
                ",\n  \"simd_kernels\": {{\n    \"simd_attention_forward_ns_per_op\": {af:.0},\n    \"simd_attention_forward_backward_ns_per_op\": {afb:.0},\n    \"simd_baseline_forward_ns_per_op\": {bf:.0},\n    \"simd_attention_per_state_ns\": {aps:.0},\n    \"simd_attention_batched_ns_per_state\": {abs:.0},\n    \"simd_attention_batched_speedup\": {asp:.3},\n    \"simd_baseline_batched_ns_per_state\": {bbs:.0},\n    \"simd_attention_batched_update_ns\": {tab:.0},\n    \"simd_baseline_batched_update_ns\": {tbb:.0}\n  }}",
                af = m.nn.attention_forward_ns,
                afb = m.nn.attention_forward_backward_ns,
                bf = m.nn.baseline_forward_ns,
                aps = m.batched.attention_per_state_ns,
                abs = m.batched.attention_batched_ns_per_state,
                asp = m.batched.attention_speedup(),
                bbs = m.batched.baseline_batched_ns_per_state,
                tab = m.training.attention_batched_update_ns,
                tbb = m.training.baseline_batched_update_ns,
            );
        }
        String::new()
    }
    #[cfg(not(feature = "backend-simd"))]
    {
        let _ = (iters, primary);
        String::new()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let value_of = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out_path = value_of("--out");
    if let Some(name) = value_of("--backend") {
        let be = neural::backend::backend_by_name(&name)
            .unwrap_or_else(|e| panic!("--backend {name}: {e}"));
        neural::backend::set_default_backend(be);
    }
    let backend = neural::backend::default_backend();

    let (episodes, hours, iters) = if quick { (8, 250, 100) } else { (32, 500, 400) };

    println!(
        "== perf_smoke ({}, {} backend) ==",
        if quick { "quick" } else { "full" },
        backend.name()
    );
    let sim = measure_sim_throughput(episodes, hours);
    println!(
        "sim_throughput: {} episodes x {} h (playbook, small topology)",
        sim.episodes, sim.hours
    );
    println!("  serial:   {:>12.0} steps/sec", sim.serial_steps_per_sec);
    if sim.threads == 1 {
        // A 1-thread "parallel" run only measures pool overhead; reporting
        // it as a speedup would poison the trajectory (BENCH_6's 0.856x).
        println!(
            "  parallel: {:>12.0} steps/sec (1 thread; speedup not meaningful, omitted)",
            sim.parallel_steps_per_sec
        );
    } else {
        println!(
            "  parallel: {:>12.0} steps/sec ({} threads, {:.2}x)",
            sim.parallel_steps_per_sec,
            sim.threads,
            sim.parallel_steps_per_sec / sim.serial_steps_per_sec
        );
    }

    // Same horizon at both scales: past ~60 h even the playbook loses
    // containment on the 1000-host world and activity saturates toward
    // world size, which would measure the saturated regime instead of the
    // activity-bounded one the sparse paths target (and make quick and
    // full snapshots incomparable on this metric). Scale changes only how
    // many episodes the per-step cost is averaged over.
    let xl_hours = 60;
    let xl = measure_xl_throughput(xl_hours, if quick { 1_200 } else { 12_000 });
    println!(
        "xl_topology ({}, {} nodes + {} PLCs, {} h, env+filter+encode):",
        xl.scenario, xl.nodes, xl.plcs, xl.hours
    );
    println!(
        "  dense reference: {:>9.0} steps/sec",
        xl.dense_steps_per_sec
    );
    println!(
        "  sparse:          {:>9.0} steps/sec ({:.2}x)",
        xl.sparse_steps_per_sec,
        xl.sparse_speedup()
    );
    println!(
        "  small reference: {:>9.0} steps/sec ({} nodes)",
        xl.small_steps_per_sec, xl.small_nodes
    );
    println!(
        "  per-host scaling exponent: {:.3} (1.0 = linear in world size)",
        xl.per_host_scaling()
    );
    println!("  autoscale plan:  {}", xl.plan.describe());

    let primary = measure_neural(iters, backend);
    print_neural(&primary, iters, backend.name());
    let simd_block = simd_kernels_block(iters, backend.name());

    let speedup_json = if sim.threads == 1 {
        "null".to_string()
    } else {
        format!(
            "{:.3}",
            sim.parallel_steps_per_sec / sim.serial_steps_per_sec
        )
    };
    let json = format!(
        "{{\n  \"schema\": \"acso-bench-smoke/v5\",\n  \"mode\": \"{mode}\",\n  \"backend\": \"{backend}\",\n  \"threads\": {threads},\n  \"sim_throughput\": {{\n    \"policy\": \"Playbook\",\n    \"topology\": \"paper_small\",\n    \"episodes\": {episodes},\n    \"hours_per_episode\": {hours},\n    \"serial_steps_per_sec\": {serial:.0},\n    \"parallel_steps_per_sec\": {parallel:.0},\n    \"parallel_speedup\": {speedup}\n  }},\n  \"xl_topology\": {{\n    \"xl_scenario\": \"{xl_scenario}\",\n    \"xl_nodes\": {xl_nodes},\n    \"xl_plcs\": {xl_plcs},\n    \"xl_hours\": {xl_hours},\n    \"xl_sparse_steps_per_sec\": {xl_sparse:.0},\n    \"xl_dense_reference_steps_per_sec\": {xl_dense:.0},\n    \"xl_sparse_speedup\": {xl_speedup:.3},\n    \"xl_small_reference_nodes\": {xl_small_nodes},\n    \"xl_small_reference_steps_per_sec\": {xl_small:.0},\n    \"xl_per_host_scaling\": {xl_scaling:.3},\n    \"autoscale_engine\": \"{auto_engine}\",\n    \"autoscale_lanes\": {auto_lanes},\n    \"autoscale_threads\": {auto_threads}\n  }},\n  \"nn_forward\": {{\n    \"topology\": \"paper_small\",\n    \"iters\": {iters},\n    \"attention_forward_ns_per_op\": {af:.0},\n    \"attention_forward_backward_ns_per_op\": {afb:.0},\n    \"baseline_forward_ns_per_op\": {bf:.0}\n  }},\n  \"batched_inference\": {{\n    \"topology\": \"paper_small\",\n    \"batch\": {batch},\n    \"attention_per_state_ns\": {aps:.0},\n    \"attention_batched_ns_per_state\": {abs:.0},\n    \"attention_batched_speedup\": {asp:.3},\n    \"baseline_per_state_ns\": {bps:.0},\n    \"baseline_batched_ns_per_state\": {bbs:.0},\n    \"baseline_batched_speedup\": {bsp:.3}\n  }},\n  \"batched_training\": {{\n    \"topology\": \"paper_small\",\n    \"minibatch\": {tbatch},\n    \"attention_batched_update_ns\": {tab:.0},\n    \"baseline_batched_update_ns\": {tbb:.0}\n  }}{simd_block}\n}}\n",
        mode = if quick { "quick" } else { "full" },
        backend = backend.name(),
        threads = sim.threads,
        episodes = sim.episodes,
        hours = sim.hours,
        serial = sim.serial_steps_per_sec,
        parallel = sim.parallel_steps_per_sec,
        speedup = speedup_json,
        xl_scenario = xl.scenario,
        xl_nodes = xl.nodes,
        xl_plcs = xl.plcs,
        xl_hours = xl.hours,
        xl_sparse = xl.sparse_steps_per_sec,
        xl_dense = xl.dense_steps_per_sec,
        xl_speedup = xl.sparse_speedup(),
        xl_small_nodes = xl.small_nodes,
        xl_small = xl.small_steps_per_sec,
        xl_scaling = xl.per_host_scaling(),
        auto_engine = xl.plan.describe(),
        auto_lanes = xl
            .plan
            .lanes()
            .map_or("null".to_string(), |l| l.to_string()),
        auto_threads = xl.plan.threads,
        iters = iters,
        af = primary.nn.attention_forward_ns,
        afb = primary.nn.attention_forward_backward_ns,
        bf = primary.nn.baseline_forward_ns,
        batch = primary.batched.batch,
        aps = primary.batched.attention_per_state_ns,
        abs = primary.batched.attention_batched_ns_per_state,
        asp = primary.batched.attention_speedup(),
        bps = primary.batched.baseline_per_state_ns,
        bbs = primary.batched.baseline_batched_ns_per_state,
        bsp = primary.batched.baseline_speedup(),
        tbatch = primary.training.batch,
        tab = primary.training.attention_batched_update_ns,
        tbb = primary.training.baseline_batched_update_ns,
        simd_block = simd_block,
    );
    if let Some(path) = out_path {
        std::fs::write(&path, &json).expect("failed to write benchmark snapshot");
        println!("wrote {path}");
    } else {
        println!("{json}");
    }
}
