//! Stand-alone `neural` layers with `AttentionQNet`'s dimensions, timed at a
//! workload's batch × node shape, with computed FLOP and byte counts.
//!
//! The layer dimensions are private to `acso-core`; they are restated here
//! and checked against `AttentionQNet::parameter_count` so a change to the
//! network cannot silently leave these rows measuring a different shape.

use crate::{obj, setup};
use acso_core::actions::{ACTIONS_PER_NODE, ACTIONS_PER_PLC};
use acso_core::features::{StateFeatures, NODE_FEATURE_DIM, PLC_FEATURE_DIM, PLC_SUMMARY_DIM};
use acso_serve::json::JsonValue;
use neural::layers::{Activation, Dense, SelfAttention};
use neural::{Batch, Layer, Matrix, Scratch};
use std::collections::BTreeMap;
use std::time::Instant;

const EMBED_HIDDEN: usize = 64;
const EMBED_OUT: usize = 32;
const CTX_DIM: usize = 64;
const HEAD_HIDDEN: usize = 128;

/// Wall-time budget per timed layer group and pass.
const BUDGET_S: f64 = 0.03;

/// The forward shape of one Q-net call.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// States per call.
    pub items: usize,
    /// Nodes per state.
    pub nodes: usize,
    /// Host rows (workstations and HMIs) per state.
    pub hosts: usize,
    /// Server rows per state.
    pub servers: usize,
    /// PLCs per state.
    pub plcs: usize,
}

impl Shape {
    /// The shape of a call on `items` states shaped like `state`.
    pub fn of(state: &StateFeatures, items: usize) -> Self {
        Self {
            items: items.max(1),
            nodes: state.node_count(),
            hosts: state.host_rows.len(),
            servers: state.server_rows.len(),
            plcs: state.plc_count(),
        }
    }
}

/// One timed group: a chain of layers over `rows` rows per item.
struct Group {
    name: &'static str,
    layers: Vec<Box<dyn Layer>>,
    rows: usize,
    input_cols: usize,
    /// Computed GEMM FLOPs of one forward over the whole batch.
    flops: f64,
    /// Computed bytes of one forward: input, weights, outputs and, for
    /// attention, one write and one read of every score matrix.
    bytes: f64,
    attention: bool,
}

fn dense_chain(
    name: &'static str,
    dims: &[usize],
    out_act: Activation,
    rows: usize,
    items: usize,
) -> Group {
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    let (mut flops, mut bytes) = (0.0, 0.0);
    let r = (rows * items) as f64;
    for (i, w) in dims.windows(2).enumerate() {
        layers.push(Box::new(Dense::new(w[0], w[1], 1 + i as u64)));
        let last = i + 2 == dims.len();
        layers.push(Box::new(if last {
            out_act.clone()
        } else {
            Activation::relu()
        }));
        flops += 2.0 * r * (w[0] * w[1]) as f64;
        bytes += 4.0 * (r * (w[0] + w[1]) as f64 + (w[0] * w[1] + w[1]) as f64);
    }
    Group {
        name,
        layers,
        rows,
        input_cols: dims[0],
        flops,
        bytes,
        attention: false,
    }
}

fn attention(name: &'static str, input: usize, items: usize, nodes: usize, seed: u64) -> Group {
    let (n, b, d) = (nodes as f64, items as f64, CTX_DIM as f64);
    let i = input as f64;
    // Q, K, V projections, Q·Kᵀ, A·V and the output projection.
    let flops = b * (3.0 * 2.0 * n * i * d + 2.0 * 2.0 * n * n * d + 2.0 * n * d * d);
    let bytes = 4.0 * (b * (n * i + 4.0 * n * d + 2.0 * n * n + n * d) + 3.0 * i * d + d * d);
    Group {
        name,
        layers: vec![Box::new(SelfAttention::new(input, CTX_DIM, CTX_DIM, seed))],
        rows: nodes,
        input_cols: input,
        flops,
        bytes,
        attention: true,
    }
}

fn groups(shape: &Shape) -> Vec<Group> {
    let b = shape.items;
    let head_in = CTX_DIM + PLC_SUMMARY_DIM;
    vec![
        dense_chain(
            "embed",
            &[NODE_FEATURE_DIM, EMBED_HIDDEN, EMBED_HIDDEN, EMBED_OUT],
            Activation::relu(),
            shape.nodes,
            b,
        ),
        attention("attn1", EMBED_OUT, b, shape.nodes, 4),
        attention("attn2", CTX_DIM, b, shape.nodes, 5),
        dense_chain(
            "head_host",
            &[head_in, HEAD_HIDDEN, ACTIONS_PER_NODE],
            Activation::tanh(),
            shape.hosts,
            b,
        ),
        dense_chain(
            "head_server",
            &[head_in, HEAD_HIDDEN, ACTIONS_PER_NODE],
            Activation::tanh(),
            shape.servers,
            b,
        ),
        dense_chain(
            "head_plc",
            &[PLC_FEATURE_DIM + CTX_DIM, HEAD_HIDDEN, ACTIONS_PER_PLC],
            Activation::tanh(),
            shape.plcs,
            b,
        ),
        dense_chain(
            "head_noact",
            &[head_in, HEAD_HIDDEN, 1],
            Activation::tanh(),
            1,
            b,
        ),
    ]
}

/// Timings of one shape.
#[derive(Debug, Default)]
pub struct Timings {
    /// `(group, forward µs per call)`.
    pub fwd_us: Vec<(&'static str, f64)>,
    /// Backward µs per call: embed, both attention layers, all heads.
    pub embed_bwd_us: f64,
    /// Backward µs per call of `attn1` plus `attn2`.
    pub attn_bwd_us: f64,
    /// Backward µs per call of the four heads.
    pub heads_bwd_us: f64,
    /// Attention forward GFLOP/s (computed FLOPs ÷ measured time).
    pub attn_gflops: f64,
    /// Dense-chain forward GFLOP/s.
    pub dense_gflops: f64,
    /// Computed MB (10^6 bytes) of one `[n, n]` f32 score matrix.
    pub attn_scores_mb: f64,
    /// Computed GEMM FLOPs and bytes of one forward per group.
    pub computed: Vec<(&'static str, f64, f64)>,
}

impl Timings {
    /// Sum of every group's forward time, µs.
    pub fn fwd_total_us(&self) -> f64 {
        self.fwd_us.iter().map(|(_, t)| t).sum()
    }

    /// Forward time of the two attention layers, µs.
    pub fn attention_us(&self) -> f64 {
        self.fwd_us
            .iter()
            .filter(|(g, _)| g.starts_with("attn"))
            .map(|(_, t)| t)
            .sum()
    }

    /// The shape and every group's computed GEMM FLOPs and bytes per
    /// forward, for the run record.
    pub fn describe(&self, shape: &Shape) -> JsonValue {
        let count = |v: usize| JsonValue::num(v as f64);
        let groups = self.computed.iter().map(|(group, flops, bytes)| {
            obj(vec![
                ("group", JsonValue::str(*group)),
                ("computed_gemm_flops", JsonValue::num(*flops)),
                ("computed_bytes", JsonValue::num(*bytes)),
            ])
        });
        obj(vec![
            ("items", count(shape.items)),
            ("nodes", count(shape.nodes)),
            ("hosts", count(shape.hosts)),
            ("servers", count(shape.servers)),
            ("plcs", count(shape.plcs)),
            ("groups", JsonValue::Arr(groups.collect())),
        ])
    }

    /// Adds the forward rows, the throughputs and the score size to a run's
    /// per-layer metrics.
    pub fn insert_forward(&self, metrics: &mut BTreeMap<&'static str, f64>) {
        for (group, us) in &self.fwd_us {
            metrics.insert(fwd_metric(group), *us);
        }
        metrics.insert("neural.attn_gflops", self.attn_gflops);
        metrics.insert("neural.dense_gflops", self.dense_gflops);
        metrics.insert("neural.attn_scores_mb", self.attn_scores_mb);
    }
}

/// The per-layer metric of a stand-alone forward group.
fn fwd_metric(group: &str) -> &'static str {
    match group {
        "embed" => "neural.embed_fwd_us",
        "attn1" => "neural.attn1_fwd_us",
        "attn2" => "neural.attn2_fwd_us",
        "head_host" => "neural.head_host_fwd_us",
        "head_server" => "neural.head_server_fwd_us",
        "head_plc" => "neural.head_plc_fwd_us",
        _ => "neural.head_noact_fwd_us",
    }
}

fn input(items: usize, rows: usize, cols: usize, seed: u64, scratch: &mut Scratch) -> Batch {
    let mut x = Batch::take(scratch, items, rows, cols);
    for (i, v) in x.matrix_mut().data_mut().iter_mut().enumerate() {
        let h = setup::stream(seed, i as u64);
        *v = (h >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0;
    }
    x
}

/// Median per-call time (µs) of `f`, repeated within [`BUDGET_S`].
fn time_us(mut f: impl FnMut()) -> f64 {
    f();
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 5 || (started.elapsed().as_secs_f64() < BUDGET_S && samples.len() < 500) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    crate::sys::median(&samples)
}

fn forward(layers: &mut [Box<dyn Layer>], x: &Batch, scratch: &mut Scratch, train: bool) -> Batch {
    let mut cur = scratch.take_copy(x.matrix());
    for layer in layers.iter_mut() {
        let input = Batch::new(cur, x.items());
        let out = if train {
            layer.forward_batch_train(&input, scratch)
        } else {
            layer.forward_batch(&input, scratch)
        };
        scratch.recycle(input.into_matrix());
        cur = out.into_matrix();
    }
    Batch::new(cur, x.items())
}

fn backward(layers: &mut [Box<dyn Layer>], grad: &Batch, scratch: &mut Scratch) {
    let mut cur = scratch.take_copy(grad.matrix());
    for layer in layers.iter_mut().rev() {
        let g = Batch::new(cur, grad.items());
        let out = layer.backward_batch(&g, scratch);
        scratch.recycle(g.into_matrix());
        cur = out.into_matrix();
    }
    scratch.recycle(cur);
}

/// Times every group's forward at `shape` on the process's default backend,
/// and the backward passes too when `backward` is set.
pub fn measure(shape: &Shape, backward_too: bool, seed: u64) -> Timings {
    let mut scratch = Scratch::new();
    let mut t = Timings {
        attn_scores_mb: 4.0 * (shape.nodes * shape.nodes) as f64 / 1e6,
        ..Timings::default()
    };
    let (mut attn_flops, mut attn_time, mut dense_flops, mut dense_time) = (0.0, 0.0, 0.0, 0.0);
    for (gi, mut g) in groups(shape).into_iter().enumerate() {
        t.computed.push((g.name, g.flops, g.bytes));
        if g.rows == 0 {
            t.fwd_us.push((g.name, 0.0));
            continue;
        }
        let x = input(
            shape.items,
            g.rows,
            g.input_cols,
            setup::stream(seed, gi as u64),
            &mut scratch,
        );
        let fwd = time_us(|| {
            let y = forward(&mut g.layers, &x, &mut scratch, false);
            scratch.recycle(std::hint::black_box(y).into_matrix());
        });
        t.fwd_us.push((g.name, fwd));
        if g.attention {
            attn_flops += g.flops;
            attn_time += fwd;
        } else {
            dense_flops += g.flops;
            dense_time += fwd;
        }
        if backward_too {
            let y = forward(&mut g.layers, &x, &mut scratch, true);
            let grad = Batch::new(
                Matrix::from_vec(
                    y.matrix().rows(),
                    y.matrix().cols(),
                    vec![1e-3; y.matrix().data().len()],
                ),
                y.items(),
            );
            scratch.recycle(y.into_matrix());
            let mut samples = Vec::new();
            let started = Instant::now();
            while samples.len() < 5
                || (started.elapsed().as_secs_f64() < BUDGET_S && samples.len() < 500)
            {
                let y = forward(&mut g.layers, &x, &mut scratch, true);
                scratch.recycle(y.into_matrix());
                let s = Instant::now();
                backward(&mut g.layers, &grad, &mut scratch);
                samples.push(s.elapsed().as_secs_f64() * 1e6);
            }
            let bwd = crate::sys::median(&samples);
            match g.name {
                "embed" => t.embed_bwd_us += bwd,
                "attn1" | "attn2" => t.attn_bwd_us += bwd,
                _ => t.heads_bwd_us += bwd,
            }
        }
        scratch.recycle(x.into_matrix());
    }
    // µs → GFLOP/s: flops / (µs · 1e3).
    t.attn_gflops = if attn_time > 0.0 {
        attn_flops / (attn_time * 1e3)
    } else {
        0.0
    };
    t.dense_gflops = if dense_time > 0.0 {
        dense_flops / (dense_time * 1e3)
    } else {
        0.0
    };
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use acso_core::agent::{AttentionQNet, QNetwork};
    use acso_core::ActionSpace;

    #[test]
    fn standalone_layers_have_the_networks_parameters() {
        let shape = Shape {
            items: 1,
            nodes: 1,
            hosts: 1,
            servers: 1,
            plcs: 1,
        };
        let standalone: usize = groups(&shape)
            .iter_mut()
            .flat_map(|g| g.layers.iter_mut())
            .map(|l| l.params_mut().iter().map(|p| p.len()).sum::<usize>())
            .sum();
        let mut net = AttentionQNet::new(ActionSpace::from_counts(1, 1), 0);
        assert_eq!(standalone, net.parameter_count());
    }
}
