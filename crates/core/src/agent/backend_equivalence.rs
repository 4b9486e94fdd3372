//! Batched-vs-solo and cross-backend equivalence of the Q-networks.
//!
//! The neural crate's own equivalence suite compares individual kernels and
//! single layers; these tests close the loop at the level the paper's
//! results are produced: whole Q-networks evaluating realistic episode
//! states. On every registered backend the attention net's grouped
//! inference and batched training must equal the ungrouped and per-state
//! passes bit for bit, and every backend's Q-values must agree with the
//! reference within its declared [`Tolerance`], with greedy-action
//! transcripts identical except where the reference decision itself sits
//! inside the tolerance band. Without the `neural/backend-simd` feature the
//! reference is the only backend, and the cross-backend tests compare it
//! with itself exactly.

use crate::actions::{ACTIONS_PER_NODE, ACTIONS_PER_PLC};
use crate::agent::test_states::{grouping_edge_states, topology_states, trajectory_states};
use crate::agent::{AttentionQNet, BaselineConvQNet, QNetwork, SoloQNetwork};
use crate::{ActionSpace, ScenarioRegistry, StateFeatures};
use ics_net::TopologySpec;
use neural::backend::BackendRef;
use neural::{Matrix, Tolerance};

/// Grouped inference is exact on every registered backend: the attention
/// net's `q_values_batch`, which runs each state's distinct node rows once,
/// returns the same Q-value bits as the ungrouped training forward
/// (`q_values_batch_train`, in batches of three) and as solo `q_values`. The
/// inputs are three states from the first 24 h of `registry-1000` (1003
/// nodes, a handful of distinct rows per state; an ungrouped forward at
/// that size costs seconds in a debug build), a `paper-full` trajectory,
/// and hand-built edge states; batches of one and three give the items of
/// a batch different group counts.
#[test]
fn grouped_attention_inference_is_bit_identical_to_the_ungrouped_forwards() {
    let xl = ScenarioRegistry::builtin()
        .get("registry-1000")
        .expect("registry-1000 is built in")
        .config
        .clone()
        .with_max_time(24);
    let (xl, xl_space) = trajectory_states(xl, 3, 8, 0);
    // Grouping must actually engage: a registry-1000 state has far fewer
    // distinct node rows than nodes.
    for state in &xl {
        let distinct: std::collections::HashSet<Vec<u32>> = (0..state.node_count())
            .map(|r| state.nodes.row(r).iter().map(|v| v.to_bits()).collect())
            .collect();
        assert!(
            distinct.len() * 10 < state.node_count(),
            "{} distinct rows",
            distinct.len()
        );
    }
    let (paper, paper_space) = topology_states(TopologySpec::paper_full(), 12);
    let edges = grouping_edge_states(&paper[5]);
    let inputs = [
        ("registry-1000", xl, xl_space),
        ("paper-full", paper, paper_space.clone()),
        ("edge states", edges, paper_space),
    ];
    for backend in neural::backend::all_backends() {
        for (label, states, space) in &inputs {
            let label = format!("{label} on {}", backend.name());
            assert_grouping_exact(states, space, *backend, &label);
        }
    }
}

fn assert_grouping_exact(
    states: &[StateFeatures],
    space: &ActionSpace,
    backend: BackendRef,
    label: &str,
) {
    let bits = |q: &[f32]| q.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    let mut net = AttentionQNet::new(space.clone(), 7);
    net.set_kernel_backend(backend);
    let mut ungrouped = Vec::with_capacity(states.len());
    for chunk in states.chunks(3) {
        let refs: Vec<&StateFeatures> = chunk.iter().collect();
        ungrouped.extend(net.q_values_batch_train(&refs).iter().map(|q| bits(q)));
    }
    for (i, state) in states.iter().enumerate() {
        assert_eq!(
            bits(&net.q_values(state)),
            ungrouped[i],
            "{label}: state {i}: solo vs training forward"
        );
    }
    for size in [1, 3] {
        for (c, chunk) in states.chunks(size).enumerate() {
            let refs: Vec<&StateFeatures> = chunk.iter().collect();
            for (j, q) in net.q_values_batch(&refs).iter().enumerate() {
                let i = c * size + j;
                assert_eq!(
                    bits(q),
                    ungrouped[i],
                    "{label}: state {i}: grouped batch of {size} vs training forward"
                );
            }
        }
    }
}

/// Batched training is the solo loop, bit for bit, on every registered
/// backend: `q_values_batch_train` + `backward_batch` over ten `paper-small`
/// trajectory states leave every parameter gradient equal to a loop of solo
/// `q_values` + `backward` calls in state order. The batched backward runs
/// the host, server and PLC heads only on the rows the gradient reaches,
/// and flushes each state's rows at once; the solo backward runs every row.
/// Three gradients:
///
/// - (a) the DQN shape: one non-zero entry per state, on a no-action, host,
///   server or PLC value, each kind in at least two states;
/// - (b) one state with entries on two hosts and two PLCs (two rows of one
///   head in one flush) and one all-zero gradient row;
/// - (c) a NaN in one state's PLC status row while that state's PLC
///   gradient is zero: the solo loop's `0 × NaN` makes the PLC head's
///   weight gradient NaN, and so must the batched backward.
#[test]
fn batched_attention_training_is_bit_identical_to_the_solo_loop() {
    let (states, space) = topology_states(TopologySpec::paper_small(), 10);
    let first = &states[0];
    let (hosts, servers) = (&first.host_rows, &first.server_rows);
    let plc_base = 1 + ACTIONS_PER_NODE * first.node_count();
    let host = |slot: usize, k: usize| 1 + hosts[slot] * ACTIONS_PER_NODE + k;
    let server = |slot: usize, k: usize| 1 + servers[slot] * ACTIONS_PER_NODE + k;
    let plc = |index: usize, k: usize| plc_base + index * ACTIONS_PER_PLC + k;
    assert!(hosts.len() >= 3 && servers.len() >= 2 && first.plc_count() >= 4);

    // (state, action, value) of each state's single entry: kinds cycle
    // no-action, host, server, PLC, with distinct values.
    let single: Vec<(usize, usize, f32)> = (0..states.len())
        .map(|i| {
            let value = (i as f32 + 1.0) * if i % 2 == 0 { 0.0137 } else { -0.0291 };
            let action = match i % 4 {
                0 => 0,
                1 => host(i % hosts.len(), i % ACTIONS_PER_NODE),
                2 => server(i % servers.len(), i % ACTIONS_PER_NODE),
                _ => plc(i % first.plc_count(), i % ACTIONS_PER_PLC),
            };
            (i, action, value)
        })
        .collect();
    let gradient = |entries: &[(usize, usize, f32)]| {
        let mut grad = Matrix::zeros(states.len(), space.len());
        for &(state, action, value) in entries {
            grad.row_mut(state)[action] = value;
        }
        grad
    };
    let mut spread = vec![
        (0, host(0, 2), 0.021f32),
        (0, host(2, 5), -0.017),
        (0, plc(1, 0), 0.033),
        (0, plc(3, 1), -0.009),
    ];
    spread.extend(single.iter().filter(|&&(i, ..)| i > 1));
    // State 2's single entry is a server value, so its PLC gradient is zero.
    let mut poisoned = states.clone();
    poisoned[2].plcs.row_mut(1)[0] = f32::NAN;

    let cases = [
        ("(a) DQN shape", &states, gradient(&single)),
        (
            "(b) two rows per head, a zero row",
            &states,
            gradient(&spread),
        ),
        ("(c) NaN PLC status row", &poisoned, gradient(&single)),
    ];
    for backend in neural::backend::all_backends() {
        for (label, states, grad) in &cases {
            let label = format!("{label} on {}", backend.name());
            let [batched, solo] = train_both_ways(states, &space, grad, *backend, &label);
            for (j, (a, b)) in batched.iter().zip(&solo).enumerate() {
                for (k, (x, y)) in a.iter().zip(b).enumerate() {
                    assert!(
                        same_bits(*x, *y),
                        "{label}: parameter {j} element {k}: batched {x} vs solo {y}"
                    );
                }
            }
            if label.starts_with("(c)") {
                // The PLC head's first weight matrix: the head parameters
                // come last, four per head, ordered host, server, PLC,
                // no-action.
                let plc_weight = batched.len() - 8;
                for grads in [&batched, &solo] {
                    assert!(grads[plc_weight].iter().any(|v| v.is_nan()), "{label}");
                }
            }
        }
    }
}

/// Equal bits, or both NaN (NaN payloads are not part of the contract).
fn same_bits(x: f32, y: f32) -> bool {
    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
}

/// Every parameter gradient of one network after a batched training pass
/// and of its twin after the solo loop over the same states and gradient
/// rows, checking on the way that both forwards return the same Q-values.
fn train_both_ways(
    states: &[StateFeatures],
    space: &ActionSpace,
    grad: &Matrix,
    backend: BackendRef,
    label: &str,
) -> [Vec<Vec<f32>>; 2] {
    let grads = |net: &mut AttentionQNet| -> Vec<Vec<f32>> {
        net.params_mut()
            .iter()
            .map(|p| p.grad.data().to_vec())
            .collect()
    };
    let mut batched = AttentionQNet::new(space.clone(), 7);
    batched.set_kernel_backend(backend);
    let mut solo = batched.clone();
    solo.set_kernel_backend(backend);

    let refs: Vec<&StateFeatures> = states.iter().collect();
    batched.zero_grad();
    let q_batched = batched.q_values_batch_train(&refs);
    batched.backward_batch(grad);
    solo.zero_grad();
    for (i, state) in states.iter().enumerate() {
        let q = solo.q_values(state);
        let same = q.iter().zip(&q_batched[i]).all(|(x, y)| same_bits(*x, *y));
        assert!(same, "{label}: state {i}: Q-values");
        solo.backward(grad.row(i));
    }
    [grads(&mut batched), grads(&mut solo)]
}

/// States per network in the transcript comparison. Enough decision
/// points for beliefs/alerts to vary; small enough for a debug-mode run.
const STATES: usize = 24;

/// Widening factor applied to the joined kernel tolerance: a full
/// Q-network chains dozens of kernel calls (embeddings, two attention
/// layers, four heads), so per-kernel rounding compounds.
const NET_FACTOR: f32 = 100.0;

fn widened(backend: BackendRef, factor: f32) -> (f32, f32) {
    match Tolerance::Exact.join(backend.tolerance()) {
        Tolerance::Exact => (0.0, 0.0),
        Tolerance::Bounded { rel, abs } => (rel * factor, abs * factor),
    }
}

fn close(rel: f32, abs: f32, a: f32, b: f32) -> bool {
    let diff = (a - b).abs();
    diff <= abs || diff <= rel * a.abs().max(b.abs())
}

fn argmax(q: &[f32]) -> usize {
    q.iter()
        .enumerate()
        .max_by(|x, y| x.1.partial_cmp(y.1).expect("finite Q-values"))
        .expect("non-empty action space")
        .0
}

/// Gap between the best and second-best reference Q-value: when this is
/// inside the tolerance band, an argmax flip on the other backend is a
/// legitimate tie-break, not a kernel bug.
fn top2_gap(q: &[f32]) -> f32 {
    let best = argmax(q);
    let runner_up = q
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != best)
        .map(|(_, v)| *v)
        .fold(f32::NEG_INFINITY, f32::max);
    q[best] - runner_up
}

/// Runs `states` through a reference-pinned clone and a clone pinned to
/// each registered backend of the same network, and checks Q-values plus
/// the greedy transcript.
fn compare_networks<N, F>(make: F, label: &str)
where
    N: SoloQNetwork + BackendPinned,
    F: Fn() -> N,
{
    let (states, _space) = topology_states(TopologySpec::paper_small(), STATES);
    for backend in neural::backend::all_backends() {
        let label = format!("{label} on {}", backend.name());
        let mut reference = make();
        reference.pin_backend(neural::backend::backend_by_name("reference").unwrap());
        let mut other = make();
        other.pin_backend(*backend);

        let (rel, abs) = widened(*backend, NET_FACTOR);
        let mut flips = 0usize;
        for (i, state) in states.iter().enumerate() {
            let q_ref = reference.q_values(state);
            let q_other = other.q_values(state);
            assert_eq!(q_ref.len(), q_other.len());
            for (a, (r, s)) in q_ref.iter().zip(&q_other).enumerate() {
                assert!(
                    close(rel, abs, *r, *s),
                    "{label}: state {i} action {a}: reference {r} vs {s} \
                     outside rel={rel} abs={abs}"
                );
            }
            if argmax(&q_ref) != argmax(&q_other) {
                let gap = top2_gap(&q_ref);
                assert!(
                    close(rel, abs, gap, 0.0),
                    "{label}: state {i}: greedy action flipped with a decisive \
                     reference gap of {gap} (rel={rel} abs={abs})"
                );
                flips += 1;
            }
        }
        // A transcript where *every* decision flips would mean the backends
        // disagree systematically even if each flip is individually a tie.
        assert!(
            flips * 2 <= STATES,
            "{label}: {flips}/{STATES} greedy decisions flipped — backends diverge"
        );

        // The batched path (the fused block-diagonal kernels) must agree with
        // the same tolerance as the solo path.
        let refs: Vec<&StateFeatures> = states.iter().collect();
        let batch_ref = reference.q_values_batch(&refs);
        let batch_other = other.q_values_batch(&refs);
        for (i, (row_ref, row_other)) in batch_ref.iter().zip(&batch_other).enumerate() {
            for (a, (r, s)) in row_ref.iter().zip(row_other.iter()).enumerate() {
                assert!(
                    close(rel, abs, *r, *s),
                    "{label}: batched state {i} action {a}: reference {r} vs \
                     {s} outside rel={rel} abs={abs}"
                );
            }
        }
    }
}

/// The one capability this suite needs beyond [`SoloQNetwork`]: pinning a
/// network's scratch to a kernel backend.
trait BackendPinned {
    fn pin_backend(&mut self, backend: BackendRef);
}

impl BackendPinned for AttentionQNet {
    fn pin_backend(&mut self, backend: BackendRef) {
        self.set_kernel_backend(backend);
    }
}

impl BackendPinned for BaselineConvQNet {
    fn pin_backend(&mut self, backend: BackendRef) {
        self.set_kernel_backend(backend);
    }
}

#[test]
fn attention_net_q_values_and_transcript_match_across_backends() {
    let (_, space) = topology_states(TopologySpec::paper_small(), 1);
    compare_networks(move || AttentionQNet::new(space.clone(), 7), "attention");
}

#[test]
fn baseline_net_q_values_and_transcript_match_across_backends() {
    let (_, space) = topology_states(TopologySpec::paper_small(), 1);
    compare_networks(move || BaselineConvQNet::new(space.clone(), 7), "baseline");
}
