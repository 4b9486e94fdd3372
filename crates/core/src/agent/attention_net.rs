//! The attention-based Q-network of Fig. 5 and Table 6.
//!
//! Each node's belief/observation features are embedded by a shared MLP,
//! mixed across nodes by global self-attention, concatenated with the PLC
//! summary, and decoded by per-node-type output heads into action values.
//! Because every sub-graph is shared across nodes of a type, the parameter
//! count does not grow with the number of nodes on the network — the central
//! architectural claim of the paper.

use crate::actions::{ActionSpace, ACTIONS_PER_NODE, ACTIONS_PER_PLC};
use crate::agent::QNetwork;
#[cfg(test)]
use crate::agent::SoloQNetwork;
use crate::features::{StateFeatures, NODE_FEATURE_DIM, PLC_FEATURE_DIM, PLC_SUMMARY_DIM};
use neural::layers::{Activation, Dense, SelfAttention};
use neural::{Batch, Layer, Matrix, Param, Scratch};
use std::collections::HashMap;
use std::hash::Hash;

const EMBED_HIDDEN: usize = 64;
const EMBED_OUT: usize = 32;
const CTX_DIM: usize = 64;
const HEAD_HIDDEN: usize = 128;

/// The attention Q-network (Fig. 5 / Table 6).
#[derive(Debug, Clone)]
pub struct AttentionQNet {
    action_space: ActionSpace,

    embed1: Dense,
    embed_act1: Activation,
    embed2: Dense,
    embed_act2: Activation,
    embed3: Dense,
    embed_act3: Activation,

    attn1: SelfAttention,
    attn2: SelfAttention,

    host_head: Head,
    server_head: Head,
    plc_head: Head,
    noact_head: Head,

    scratch: Scratch,
    /// The solo oracle's forward cache (see [`SoloQNetwork`]).
    #[cfg(test)]
    cache: Option<ForwardCache>,
    batch_cache: Option<BatchForwardCache>,
    /// Reused row-grouping buffers of the batched forward.
    groups: RowGroups,
}

/// Cache of the batched training forward. The embedding, attention and
/// no-action head intermediates live in the layers' own batch caches. The
/// host, server and PLC heads run their inference forward and cache
/// nothing: the network keeps their input rows instead, from which
/// [`QNetwork::backward_batch`] re-runs each head on the rows the loss
/// gradient reaches (see [`Head::backward_rows`]).
#[derive(Debug, Clone)]
struct BatchForwardCache {
    items: usize,
    node_count: usize,
    host_rows: Vec<usize>,
    server_rows: Vec<usize>,
    /// `[items * hosts, head_in]`: every host's head input row.
    host_in: Matrix,
    /// `[items * servers, head_in]`: every server's head input row.
    server_in: Matrix,
    /// `[items * plc.width, plc_in]`: one head input row per distinct PLC
    /// status row of each state.
    plc_in: Matrix,
    /// Each state's PLCs → their `plc_in` rows.
    plc: Grouping,
}

impl AttentionQNet {
    /// Builds the network for a given action space (which fixes the node and
    /// PLC counts the flat output must cover, though the parameters are
    /// independent of both).
    pub fn new(action_space: ActionSpace, seed: u64) -> Self {
        let head_in = CTX_DIM + PLC_SUMMARY_DIM;
        let plc_head_in = PLC_FEATURE_DIM + CTX_DIM;
        Self {
            action_space,
            embed1: Dense::new(NODE_FEATURE_DIM, EMBED_HIDDEN, seed.wrapping_add(1)),
            embed_act1: Activation::relu(),
            embed2: Dense::new(EMBED_HIDDEN, EMBED_HIDDEN, seed.wrapping_add(2)),
            embed_act2: Activation::relu(),
            embed3: Dense::new(EMBED_HIDDEN, EMBED_OUT, seed.wrapping_add(3)),
            embed_act3: Activation::relu(),
            attn1: SelfAttention::new(EMBED_OUT, CTX_DIM, CTX_DIM, seed.wrapping_add(4)),
            attn2: SelfAttention::new(CTX_DIM, CTX_DIM, CTX_DIM, seed.wrapping_add(5)),
            host_head: Head::new(head_in, ACTIONS_PER_NODE, seed.wrapping_add(6)),
            server_head: Head::new(head_in, ACTIONS_PER_NODE, seed.wrapping_add(8)),
            plc_head: Head::new(plc_head_in, ACTIONS_PER_PLC, seed.wrapping_add(10)),
            noact_head: Head::new(head_in, 1, seed.wrapping_add(12)),
            scratch: Scratch::new(),
            #[cfg(test)]
            cache: None,
            batch_cache: None,
            groups: RowGroups::default(),
        }
    }

    /// The action space the flat output covers.
    pub fn action_space(&self) -> &ActionSpace {
        &self.action_space
    }

    /// Pins every subsequent pass of this network to a specific kernel
    /// backend by swapping the internal scratch pool (new pool, so no
    /// buffers survive from the previous backend). Benches and
    /// cross-backend tests use this to compare backends side by side
    /// without touching the process-wide default.
    pub fn set_kernel_backend(&mut self, backend: neural::backend::BackendRef) {
        self.scratch = Scratch::with_backend(backend);
    }

    /// The kernel backend this network's passes dispatch to.
    pub fn kernel_backend(&self) -> neural::backend::BackendRef {
        self.scratch.backend()
    }

    /// Shared core of [`QNetwork::q_values_batch`] (`train = false`:
    /// inference, no cache touched) and
    /// [`QNetwork::q_values_batch_train`] (`train = true`: the embedding,
    /// attention and no-action layers write their batch caches, and the
    /// network keeps the other heads' input rows for
    /// [`QNetwork::backward_batch`]). One implementation of the stacked
    /// pass keeps the two paths bit-identical by construction.
    ///
    /// **Grouped inference.** The embedding MLP and the heads are shared
    /// across nodes, and attention has no positional input, so two nodes of
    /// one state whose feature rows match bit for bit (and that feed the
    /// same heads) get bit-identical outputs at every stage. Inference
    /// therefore groups each state's node rows by (head routing,
    /// `f32::to_bits` of the row), pads every state to `m`, the batch's
    /// largest group count, and runs the embedding, both attention layers
    /// and the host/server heads on `b × m` group rows instead of `b × n`
    /// node rows; the PLC head runs once per distinct PLC status row. The
    /// steps that mix rows still see every node: each attention layer
    /// copies K and V out to all `n` nodes in node order
    /// ([`SelfAttention::forward_batch_grouped`]), and the pooled context
    /// adds all `n` context rows in ascending node order. Every kernel on
    /// the way computes an output row from its own input row alone, so the
    /// Q-values are bit-identical to the ungrouped pass on every backend.
    /// Grouping is chosen from the input alone: it applies when `m < n`,
    /// and a batch whose largest group count is `n` runs the identity
    /// grouping, which is exactly the ungrouped pass.
    ///
    /// **Training.** The embedding and both attention layers run the
    /// identity grouping, so their batch caches, and the gradient sums
    /// `backward_batch` forms from them, keep their shapes and order. The
    /// host, server and PLC heads run their inference forward exactly as
    /// above, PLC rows grouped, and cache nothing: the loss reads one
    /// Q-value per state, so `backward_batch` re-runs each of these heads
    /// on the few rows its gradient reaches, from the input rows kept here.
    fn q_values_batch_impl(&mut self, features: &[&StateFeatures], train: bool) -> Vec<Vec<f32>> {
        if features.is_empty() {
            return Vec::new();
        }
        let b = features.len();
        let f0 = features[0];
        let n = f0.node_count();
        let p = f0.plc_count();
        for f in features {
            assert_eq!(f.node_count(), n, "batched states must share a topology");
            assert_eq!(f.plc_count(), p, "batched states must share a topology");
            assert_eq!(
                f.host_rows, f0.host_rows,
                "batched states must share head routing"
            );
            assert_eq!(
                f.server_rows, f0.server_rows,
                "batched states must share head routing"
            );
        }
        let mut g = std::mem::take(&mut self.groups);
        g.plan(features, train);
        let m = g.node.width;
        let head_in = CTX_DIM + PLC_SUMMARY_DIM;

        // Shared per-node embedding over every state's group rows at once.
        let mut x = Batch::take(&mut self.scratch, b, m, NODE_FEATURE_DIM);
        for (i, f) in features.iter().enumerate() {
            for (row, node) in g.node.sources(i) {
                x.matrix_mut()
                    .row_mut(i * m + row)
                    .copy_from_slice(f.nodes.row(node));
            }
        }
        let e = self.embed(x, train);
        let s = &mut self.scratch;

        // Global attention within each state (per-item boundary) over all
        // of the state's nodes.
        let x = attend(&mut self.attn1, &e, &g.node, s, train);
        s.recycle(e.into_matrix());
        let ctx = attend(&mut self.attn2, &x, &g.node, s, train);
        s.recycle(x.into_matrix());

        // Per-state pooled context: every node's context row, ascending
        // node order, scaled by 1/n (a repeated row is added once per node,
        // never weighted by its count, so the sum keeps its order).
        let mut mean_ctx = s.take(b, CTX_DIM);
        for i in 0..b {
            let out = mean_ctx.row_mut(i);
            for &row in g.node.rows_of(i) {
                for (o, v) in out.iter_mut().zip(ctx.matrix().row(i * m + row)) {
                    *o += v;
                }
            }
            if n > 0 {
                let inv = 1.0 / n as f32;
                for o in out {
                    *o *= inv;
                }
            }
        }

        // Node heads: one input row per group of the head's nodes, holding
        // that group's context ++ the state's PLC summary.
        let head_input = |head: &Grouping, nodes: &[usize], s: &mut Scratch| {
            let mut input = Batch::take(s, b, head.width, head_in);
            for (i, f) in features.iter().enumerate() {
                for (row, slot) in head.sources(i) {
                    let group = g.node.rows_of(i)[nodes[slot]];
                    let dst = input.matrix_mut().row_mut(i * head.width + row);
                    dst[..CTX_DIM].copy_from_slice(ctx.matrix().row(i * m + group));
                    dst[CTX_DIM..].copy_from_slice(f.plc_summary.row(0));
                }
            }
            input
        };
        // Training keeps each of these heads' input rows for the backward;
        // inference hands them straight back to the pool.
        let keep = |input: Batch, s: &mut Scratch| {
            let input = input.into_matrix();
            if train {
                Some(input)
            } else {
                s.recycle(input);
                None
            }
        };
        let host_in = head_input(&g.host, &f0.host_rows, s);
        let q_host =
            (!f0.host_rows.is_empty()).then(|| self.host_head.forward_batch(&host_in, s, false));
        let host_in = keep(host_in, s);
        let server_in = head_input(&g.server, &f0.server_rows, s);
        let q_server = (!f0.server_rows.is_empty())
            .then(|| self.server_head.forward_batch(&server_in, s, false));
        let server_in = keep(server_in, s);
        s.recycle(ctx.into_matrix());

        // No-action value from each state's pooled context.
        let mut noact_in = Batch::take(s, b, 1, head_in);
        for (i, f) in features.iter().enumerate() {
            let row = noact_in.matrix_mut().row_mut(i);
            row[..CTX_DIM].copy_from_slice(mean_ctx.row(i));
            row[CTX_DIM..].copy_from_slice(f.plc_summary.row(0));
        }
        let q_noact = self.noact_head.forward_batch(&noact_in, s, train);
        s.recycle(noact_in.into_matrix());

        // PLC head: one input row per distinct PLC status row of each
        // state, holding that status one-hot ++ the pooled context.
        let mut plc_in = Batch::take(s, b, g.plc.width, PLC_FEATURE_DIM + CTX_DIM);
        for (i, f) in features.iter().enumerate() {
            for (row, plc) in g.plc.sources(i) {
                let dst = plc_in.matrix_mut().row_mut(i * g.plc.width + row);
                dst[..PLC_FEATURE_DIM].copy_from_slice(f.plcs.row(plc));
                dst[PLC_FEATURE_DIM..].copy_from_slice(mean_ctx.row(i));
            }
        }
        let q_plc = (p > 0).then(|| self.plc_head.forward_batch(&plc_in, s, false));
        let plc_in = keep(plc_in, s);
        s.recycle(mean_ctx);

        // Assemble each state's flat Q-vector in action-space order, every
        // node and PLC reading its group's row.
        let mut out = Vec::with_capacity(b);
        let plc_base = 1 + ACTIONS_PER_NODE * n;
        for i in 0..b {
            let mut q = vec![0.0f32; self.action_space.len()];
            q[0] = q_noact.matrix().get(i, 0);
            for (head, nodes, qh) in [
                (&g.host, &f0.host_rows, &q_host),
                (&g.server, &f0.server_rows, &q_server),
            ] {
                if let Some(qh) = qh {
                    for (&node, &row) in nodes.iter().zip(head.rows_of(i)) {
                        let base = 1 + node * ACTIONS_PER_NODE;
                        q[base..base + ACTIONS_PER_NODE]
                            .copy_from_slice(qh.matrix().row(i * head.width + row));
                    }
                }
            }
            if let Some(qp) = &q_plc {
                for (plc, &row) in g.plc.rows_of(i).iter().enumerate() {
                    let base = plc_base + plc * ACTIONS_PER_PLC;
                    q[base..base + ACTIONS_PER_PLC]
                        .copy_from_slice(qp.matrix().row(i * g.plc.width + row));
                }
            }
            out.push(q);
        }
        for q in [q_host, q_server, q_plc].into_iter().flatten() {
            s.recycle(q.into_matrix());
        }
        s.recycle(q_noact.into_matrix());

        if let (Some(host_in), Some(server_in), Some(plc_in)) = (host_in, server_in, plc_in) {
            // Training: refresh the cache, reusing its row-index buffers and
            // handing the previous pass's input rows back to the pool.
            let cache = self.batch_cache.get_or_insert_with(|| BatchForwardCache {
                items: 0,
                node_count: 0,
                host_rows: Vec::new(),
                server_rows: Vec::new(),
                host_in: Matrix::zeros(0, 0),
                server_in: Matrix::zeros(0, 0),
                plc_in: Matrix::zeros(0, 0),
                plc: Grouping::default(),
            });
            cache.items = b;
            cache.node_count = n;
            cache.host_rows.clear();
            cache.host_rows.extend_from_slice(&f0.host_rows);
            cache.server_rows.clear();
            cache.server_rows.extend_from_slice(&f0.server_rows);
            cache.plc.clone_from(&g.plc);
            for (slot, input) in [
                (&mut cache.host_in, host_in),
                (&mut cache.server_in, server_in),
                (&mut cache.plc_in, plc_in),
            ] {
                s.recycle(std::mem::replace(slot, input));
            }
        }
        self.groups = g;
        out
    }
}

impl AttentionQNet {
    /// The shared per-node embedding MLP over `x` (recycled): inference, or
    /// with `train` the training forward that writes each layer's cache.
    fn embed(&mut self, x: Batch, train: bool) -> Batch {
        let s = &mut self.scratch;
        let layers: [&mut dyn Layer; 6] = [
            &mut self.embed1,
            &mut self.embed_act1,
            &mut self.embed2,
            &mut self.embed_act2,
            &mut self.embed3,
            &mut self.embed_act3,
        ];
        let mut x = x;
        for layer in layers {
            let y = fwd(layer, &x, s, train);
            s.recycle(std::mem::replace(&mut x, y).into_matrix());
        }
        x
    }

    /// Backpropagates the context gradient of every node row (recycled)
    /// through both attention layers and the embedding MLP, from the caches
    /// of their training forward.
    fn backward_trunk(&mut self, grad_ctx: Batch) {
        let s = &mut self.scratch;
        let layers: [&mut dyn Layer; 8] = [
            &mut self.attn2,
            &mut self.attn1,
            &mut self.embed_act3,
            &mut self.embed3,
            &mut self.embed_act2,
            &mut self.embed2,
            &mut self.embed_act1,
            &mut self.embed1,
        ];
        let mut grad = grad_ctx;
        for layer in layers {
            let g = layer.backward_batch(&grad, s);
            s.recycle(std::mem::replace(&mut grad, g).into_matrix());
        }
        s.recycle(grad.into_matrix());
    }
}

/// Head-routing bits in a node row's grouping key: a host and a server with
/// identical features stay in separate groups, so each goes through its
/// own head.
const ROUTE_HOST: u8 = 1;
const ROUTE_SERVER: u8 = 2;

/// How each item of a batch maps its rows (nodes, a head's node list, or
/// PLCs) onto the rows the forward computes.
#[derive(Debug, Clone, Default)]
struct Grouping {
    /// Rows per item of the grouped list.
    rows: usize,
    /// Computed rows per item: the batch's largest group count (shorter
    /// items are padded), `rows` under the identity grouping.
    width: usize,
    /// `[items * rows]`: the computed row, within its item, of every row.
    of_row: Vec<usize>,
    /// `[items * width]`: the first row each computed row stands for
    /// ([`PADDING`] on padding rows, which stay zero and feed nothing).
    source: Vec<usize>,
}

/// [`Grouping::source`] entry of a padding row.
const PADDING: usize = usize::MAX;

impl Grouping {
    /// Every row computed for itself.
    fn identity(&mut self, items: usize, rows: usize) {
        self.rows = rows;
        self.width = rows;
        self.of_row.clear();
        self.of_row.extend((0..items).flat_map(|_| 0..rows));
        self.source.clone_from(&self.of_row);
    }

    /// Groups each item's rows by `key` (bit patterns, so `±0.0` and NaN
    /// payloads form separate groups, which is always safe): a row joins
    /// the group of the first earlier row of its item with an equal key,
    /// or opens the next one. The previous row's key is checked first —
    /// quiet nodes arrive in index-ordered runs — so each row is hashed at
    /// most once and most rows not at all.
    fn by_key<K: Copy + Eq + Hash>(
        &mut self,
        items: usize,
        rows: usize,
        mut key: impl FnMut(usize, usize) -> K,
    ) {
        self.rows = rows;
        self.width = 0;
        self.of_row.clear();
        let mut memo: HashMap<K, usize> = HashMap::new();
        for item in 0..items {
            memo.clear();
            let mut last: Option<(K, usize)> = None;
            for row in 0..rows {
                let k = key(item, row);
                let group = match last {
                    Some((lk, lg)) if lk == k => lg,
                    _ => {
                        let next = memo.len();
                        let group = *memo.entry(k).or_insert(next);
                        last = Some((k, group));
                        group
                    }
                };
                self.of_row.push(group);
            }
            self.width = self.width.max(memo.len());
        }
        self.source.clear();
        self.source.resize(items * self.width, PADDING);
        for (at, &group) in self.of_row.iter().enumerate() {
            let src = &mut self.source[at / rows * self.width + group];
            if *src == PADDING {
                *src = at % rows;
            }
        }
    }

    /// Item `i`'s computed row for each of its rows.
    fn rows_of(&self, item: usize) -> &[usize] {
        &self.of_row[item * self.rows..(item + 1) * self.rows]
    }

    /// Item `i`'s non-padding computed rows with the row each copies.
    fn sources(&self, item: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.source[item * self.width..(item + 1) * self.width]
            .iter()
            .enumerate()
            .filter(|(_, &src)| src != PADDING)
            .map(|(row, &src)| (row, src))
    }
}

/// The row groupings one batched forward runs with (reused across calls).
#[derive(Debug, Clone, Default)]
struct RowGroups {
    /// Node rows → embedding/attention rows.
    node: Grouping,
    /// Host list → host-head rows (keyed by node group).
    host: Grouping,
    /// Server list → server-head rows (keyed by node group).
    server: Grouping,
    /// PLC rows → PLC-head rows.
    plc: Grouping,
    /// Per-node head-routing bits.
    route: Vec<u8>,
}

impl RowGroups {
    /// Chooses this batch's groupings. PLC rows are grouped by key in both
    /// modes: the PLC head is a row-wise map whose rows the training
    /// backward re-runs one by one. Node rows are grouped by key at
    /// inference and take the identity in training, which keeps the
    /// embedding and attention caches ungrouped; so do the host and server
    /// lists, which are keyed by node group. Wherever grouping saves no row
    /// the result is the identity.
    fn plan(&mut self, features: &[&StateFeatures], train: bool) {
        let b = features.len();
        let f0 = features[0];
        let (n, p) = (f0.node_count(), f0.plc_count());
        let (hosts, servers) = (&f0.host_rows, &f0.server_rows);
        self.plc.by_key(b, p, |i, r| {
            row_bits::<PLC_FEATURE_DIM>(features[i].plcs.row(r))
        });
        if !train {
            self.route.clear();
            self.route.resize(n, 0);
            for &node in hosts {
                self.route[node] |= ROUTE_HOST;
            }
            for &node in servers {
                self.route[node] |= ROUTE_SERVER;
            }
            let route = &self.route;
            self.node.by_key(b, n, |i, r| {
                (
                    route[r],
                    row_bits::<NODE_FEATURE_DIM>(features[i].nodes.row(r)),
                )
            });
        }
        if train || self.node.width == n {
            self.node.identity(b, n);
            self.host.identity(b, hosts.len());
            self.server.identity(b, servers.len());
        } else {
            let node = &self.node;
            self.host
                .by_key(b, hosts.len(), |i, r| node.rows_of(i)[hosts[r]]);
            self.server
                .by_key(b, servers.len(), |i, r| node.rows_of(i)[servers[r]]);
        }
    }
}

/// A feature row's bit pattern: the grouping key's equality is bitwise.
fn row_bits<const D: usize>(row: &[f32]) -> [u32; D] {
    let mut bits = [0u32; D];
    for (b, v) in bits.iter_mut().zip(row) {
        *b = v.to_bits();
    }
    bits
}

/// One attention layer's batched forward over a node grouping: the
/// ungrouped (training or inference) pass under the identity grouping,
/// otherwise the grouped inference pass.
fn attend(
    layer: &mut SelfAttention,
    x: &Batch,
    node: &Grouping,
    s: &mut Scratch,
    train: bool,
) -> Batch {
    if node.width == node.rows {
        fwd(layer, x, s, train)
    } else {
        layer.forward_batch_grouped(x, &node.of_row, s)
    }
}

/// Dispatches one layer's batched forward: inference (`forward_batch`,
/// caches untouched) or training (`forward_batch_train`, batch cache
/// written). Keeping the dispatch in one place lets the whole stacked pass
/// exist once for both modes — the structural guarantee that the training
/// forward computes exactly what the inference forward computes.
fn fwd(layer: &mut dyn Layer, x: &Batch, s: &mut Scratch, train: bool) -> Batch {
    if train {
        layer.forward_batch_train(x, s)
    } else {
        layer.forward_batch(x, s)
    }
}

/// A two-layer output head: dense → ReLU → dense → tanh.
#[derive(Debug, Clone)]
struct Head {
    dense1: Dense,
    act: Activation,
    dense2: Dense,
    out: Activation,
}

impl Head {
    /// A head from `input` features to `output` values; the two dense
    /// layers are seeded `seed` and `seed + 1`.
    fn new(input: usize, output: usize, seed: u64) -> Self {
        Self {
            dense1: Dense::new(input, HEAD_HIDDEN, seed),
            act: Activation::relu(),
            dense2: Dense::new(HEAD_HIDDEN, output, seed.wrapping_add(1)),
            out: Activation::tanh(),
        }
    }

    /// The batched forward; `train` selects the cache-writing layer path
    /// (see [`fwd`]).
    fn forward_batch(&mut self, input: &Batch, s: &mut Scratch, train: bool) -> Batch {
        let x = fwd(&mut self.dense1, input, s, train);
        let y = fwd(&mut self.act, &x, s, train);
        s.recycle(x.into_matrix());
        let x = fwd(&mut self.dense2, &y, s, train);
        s.recycle(y.into_matrix());
        let q = fwd(&mut self.out, &x, s, train);
        s.recycle(x.into_matrix());
        q
    }

    /// The batched backward of a training [`Head::forward_batch`],
    /// returning the gradient on the head input.
    fn backward_batch(&mut self, grad: Batch, s: &mut Scratch) -> Batch {
        let x = self.out.backward_batch(&grad, s);
        s.recycle(grad.into_matrix());
        let y = self.dense2.backward_batch(&x, s);
        s.recycle(x.into_matrix());
        let x = self.act.backward_batch(&y, s);
        s.recycle(y.into_matrix());
        let g = self.dense1.backward_batch(&x, s);
        s.recycle(x.into_matrix());
        g
    }

    /// Backpropagates, after an inference forward that cached nothing, the
    /// rows of `items` states × `rows` head rows that the loss gradient
    /// reaches. `input(i, r)` is row `r`'s head input in state `i`,
    /// `grad(i, r)` its slice of the Q-gradient, and `scatter(i, r, g)`
    /// receives its gradient on the head input, in ascending `(i, r)` order.
    ///
    /// A row is picked when its gradient slice holds a non-zero entry (NaN
    /// included) or its input holds a NaN or ±Inf. Any other row would add
    /// `x · 0 = ±0` to accumulators that are `+0` after `zero_grad`, which
    /// changes no gradient bit while the row's forward values are finite; a
    /// non-finite input would make `0 × NaN` reach the weight gradient in a
    /// backward over every row, so such a row always runs. The picked rows
    /// re-run the training forward (the kernels are row-wise, so they repeat
    /// the Q-values already returned bit for bit) as one item per state,
    /// holding the state's picked rows in row order and padded with zero
    /// rows to the largest count: one gradient flush per state, as in a solo
    /// backward per state.
    fn backward_rows<'a>(
        &mut self,
        items: usize,
        rows: usize,
        input: impl Fn(usize, usize) -> &'a [f32],
        grad: impl Fn(usize, usize) -> &'a [f32],
        s: &mut Scratch,
        mut scatter: impl FnMut(usize, usize, &[f32]),
    ) {
        // (state, row, stacked row) of every picked row.
        let mut picks: Vec<(usize, usize, usize)> = Vec::new();
        let (mut states, mut width) = (0, 0);
        for i in 0..items {
            let first = picks.len();
            for r in 0..rows {
                let reached = grad(i, r).iter().any(|&g| g != 0.0)
                    || input(i, r).iter().any(|v| !v.is_finite());
                if reached {
                    picks.push((i, r, states));
                }
            }
            if picks.len() > first {
                states += 1;
                width = width.max(picks.len() - first);
            }
        }
        if picks.is_empty() {
            return;
        }
        let mut x = Batch::take(s, states, width, self.dense1.input_dim());
        let mut g = Batch::take(s, states, width, self.dense2.output_dim());
        let (mut prev, mut slot) = (usize::MAX, 0);
        for pick in &mut picks {
            let (i, r, item) = *pick;
            slot = if item == prev { slot + 1 } else { 0 };
            prev = item;
            pick.2 = item * width + slot;
            x.matrix_mut().row_mut(pick.2).copy_from_slice(input(i, r));
            g.matrix_mut().row_mut(pick.2).copy_from_slice(grad(i, r));
        }
        let q = self.forward_batch(&x, s, true);
        s.recycle(q.into_matrix());
        s.recycle(x.into_matrix());
        let grad_in = self.backward_batch(g, s);
        for &(i, r, row) in &picks {
            scatter(i, r, grad_in.matrix().row(row));
        }
        s.recycle(grad_in.into_matrix());
    }

    fn params_mut(&mut self) -> impl Iterator<Item = &mut Param> {
        let dense1 = self.dense1.params_mut();
        dense1.into_iter().chain(self.dense2.params_mut())
    }
}

impl QNetwork for AttentionQNet {
    /// The batch-first inference path: all states are stacked along the row
    /// axis and pushed through every stage in one pass — the per-node
    /// embedding and the output heads as single stacked matmuls, the
    /// attention layers with an explicit per-item boundary (each state's
    /// nodes attend only to that state's nodes). Each state's repeated node
    /// rows are computed once (grouped inference, see
    /// `q_values_batch_impl`). Every state's Q-vector is bit-identical to
    /// the one a batch of that state alone returns, and the training cache
    /// is left untouched.
    ///
    /// # Panics
    ///
    /// Panics if the states do not share one topology (node/PLC counts and
    /// head routing must match — the batched engine only ever mixes lanes of
    /// the same scenario).
    fn q_values_batch(&mut self, features: &[&StateFeatures]) -> Vec<Vec<f32>> {
        self.q_values_batch_impl(features, false)
    }

    /// The batched *training* forward: the same stacked pass as
    /// [`AttentionQNet::q_values_batch`] (so every state's Q-vector is
    /// bit-identical to the inference forward's), with the
    /// embedding, attention and no-action layers run through their
    /// `forward_batch_train` path so batch-shaped caches feed one
    /// [`AttentionQNet::backward_batch`] for the whole minibatch. The host,
    /// server and PLC heads run their inference forward and the network
    /// keeps their input rows, because the backward re-runs them only on
    /// the rows its gradient reaches.
    ///
    /// # Panics
    ///
    /// Panics if the states do not share one topology (the minibatch is
    /// sampled from one scenario's replay, so they always do).
    fn q_values_batch_train(&mut self, features: &[&StateFeatures]) -> Vec<Vec<f32>> {
        self.q_values_batch_impl(features, true)
    }

    /// The batched backward. The host, server and PLC heads run only on
    /// the (state, row) pairs whose gradient slice is non-zero or whose
    /// kept input is not finite, one gradient flush per state (see
    /// `Head::backward_rows`): the DQN loss reaches one Q-value per state,
    /// so a minibatch of 64 `paper-small` states backpropagates at most 64
    /// of the 2,944 rows of those three heads, with the same gradient bits
    /// as a backward over every row. The no-action head, both attention
    /// layers and the embedding run their full batched backward.
    fn backward_batch(&mut self, grad_q: &Matrix) {
        let cache = self
            .batch_cache
            .take()
            .expect("backward_batch called before q_values_batch_train");
        let b = cache.items;
        let n = cache.node_count;
        assert_eq!(
            grad_q.shape(),
            (b, self.action_space.len()),
            "batched gradient shape mismatch"
        );
        let s = &mut self.scratch;

        // Context gradient of every node row, starting from the host and
        // server heads on the rows the loss reaches.
        let mut grad_ctx = Batch::take(s, b, n, CTX_DIM);
        for (head, nodes, kept) in [
            (&mut self.host_head, &cache.host_rows, &cache.host_in),
            (&mut self.server_head, &cache.server_rows, &cache.server_in),
        ] {
            let rows = nodes.len();
            head.backward_rows(
                b,
                rows,
                |i, r| kept.row(i * rows + r),
                |i, r| {
                    let base = 1 + nodes[r] * ACTIONS_PER_NODE;
                    &grad_q.row(i)[base..base + ACTIONS_PER_NODE]
                },
                s,
                |i, r, g| {
                    let dst = grad_ctx.matrix_mut().row_mut(i * n + nodes[r]);
                    for (d, &v) in dst.iter_mut().zip(&g[..CTX_DIM]) {
                        *d += v;
                    }
                },
            );
        }

        // No-action head -> gradient on each state's pooled context.
        let mut grad_noact = Batch::take(s, b, 1, 1);
        for i in 0..b {
            grad_noact.matrix_mut().row_mut(i)[0] = grad_q.row(i)[0];
        }
        let grad_noact_in = self.noact_head.backward_batch(grad_noact, s);
        let mut grad_mean_ctx = s.take(b, CTX_DIM);
        for i in 0..b {
            grad_mean_ctx
                .row_mut(i)
                .copy_from_slice(&grad_noact_in.matrix().row(i)[..CTX_DIM]);
        }
        s.recycle(grad_noact_in.into_matrix());

        // PLC head on the rows the loss reaches -> more gradient on each
        // state's pooled context.
        let plc = &cache.plc;
        let plc_base = 1 + ACTIONS_PER_NODE * n;
        self.plc_head.backward_rows(
            b,
            plc.rows,
            |i, r| cache.plc_in.row(i * plc.width + plc.rows_of(i)[r]),
            |i, r| {
                let base = plc_base + r * ACTIONS_PER_PLC;
                &grad_q.row(i)[base..base + ACTIONS_PER_PLC]
            },
            s,
            |i, _, g| {
                for (d, &v) in grad_mean_ctx
                    .row_mut(i)
                    .iter_mut()
                    .zip(&g[PLC_FEATURE_DIM..])
                {
                    *d += v;
                }
            },
        );

        // Mean-pooling backward: every node row of a state adds 1/n of the
        // state's pooled gradient to its head slice.
        let inv_n = 1.0 / n.max(1) as f32;
        for i in 0..b {
            for r in 0..n {
                let dst = grad_ctx.matrix_mut().row_mut(i * n + r);
                for (d, &g) in dst.iter_mut().zip(grad_mean_ctx.row(i)) {
                    *d += g * inv_n;
                }
            }
        }
        s.recycle(grad_mean_ctx);

        self.backward_trunk(grad_ctx);
        self.batch_cache = Some(cache);
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = Vec::new();
        params.extend(self.embed1.params_mut());
        params.extend(self.embed2.params_mut());
        params.extend(self.embed3.params_mut());
        params.extend(self.attn1.params_mut());
        params.extend(self.attn2.params_mut());
        params.extend(self.host_head.params_mut());
        params.extend(self.server_head.params_mut());
        params.extend(self.plc_head.params_mut());
        params.extend(self.noact_head.params_mut());
        params
    }
}

/// What the solo backward needs of its forward beyond the layer caches:
/// the shape and head routing of the state.
#[cfg(test)]
#[derive(Debug, Clone)]
struct ForwardCache {
    node_count: usize,
    plc_count: usize,
    host_rows: Vec<usize>,
    server_rows: Vec<usize>,
}

/// Horizontal concatenation of two row blocks into a pooled matrix: every
/// output row is `left.row(i) ++ right_row` (with `right` broadcast when
/// single-row).
#[cfg(test)]
fn hcat_broadcast_into(left: &Matrix, right: &Matrix, out: &mut Matrix) {
    let lc = left.cols();
    for i in 0..out.rows() {
        let right_row = if right.rows() == 1 { 0 } else { i };
        let row = out.row_mut(i);
        row[..lc].copy_from_slice(left.row(i));
        row[lc..].copy_from_slice(right.row(right_row));
    }
}

#[cfg(test)]
impl SoloQNetwork for AttentionQNet {
    /// The solo training forward, the oracle of the batched pair: every
    /// layer runs its training forward on one state as a one-item batch,
    /// each head over all of its rows, feeding [`SoloQNetwork::backward`].
    fn q_values(&mut self, features: &StateFeatures) -> Vec<f32> {
        let n = features.node_count();
        let p = features.plc_count();

        // Shared per-node embedding, the state as a one-item batch.
        let x = Batch::new(self.scratch.take_copy(&features.nodes), 1);
        let e = self.embed(x, true);
        let s = &mut self.scratch;

        // Global attention over node embeddings.
        let x = fwd(&mut self.attn1, &e, s, true);
        s.recycle(e.into_matrix());
        let ctx = fwd(&mut self.attn2, &x, s, true).into_matrix();
        s.recycle(x.into_matrix());
        let mut mean_ctx = s.take(1, CTX_DIM);
        ctx.mean_rows_into(&mut mean_ctx);

        // Per-node head input: context + PLC summary (broadcast).
        let mut h = s.take(n, CTX_DIM + PLC_SUMMARY_DIM);
        hcat_broadcast_into(&ctx, &features.plc_summary, &mut h);
        s.recycle(ctx);

        let node_head = |head: &mut Head, rows: &[usize], s: &mut Scratch| {
            if rows.is_empty() {
                return s.take(0, ACTIONS_PER_NODE);
            }
            let mut input = s.take(rows.len(), h.cols());
            h.select_rows_into(rows, &mut input);
            let input = Batch::new(input, 1);
            let q = head.forward_batch(&input, s, true);
            s.recycle(input.into_matrix());
            q.into_matrix()
        };
        let q_host = node_head(&mut self.host_head, &features.host_rows, s);
        let q_server = node_head(&mut self.server_head, &features.server_rows, s);
        s.recycle(h);

        // No-action value from the pooled context.
        let mut noact_in = s.take(1, CTX_DIM + PLC_SUMMARY_DIM);
        hcat_broadcast_into(&mean_ctx, &features.plc_summary, &mut noact_in);
        let noact_in = Batch::new(noact_in, 1);
        let q_noact = self.noact_head.forward_batch(&noact_in, s, true);
        s.recycle(noact_in.into_matrix());
        let q_noact = q_noact.into_matrix();

        // PLC head: per-PLC status one-hot + pooled context (broadcast).
        let q_plc = if p == 0 {
            s.take(0, ACTIONS_PER_PLC)
        } else {
            let mut plc_in = s.take(p, PLC_FEATURE_DIM + CTX_DIM);
            hcat_broadcast_into(&features.plcs, &mean_ctx, &mut plc_in);
            let plc_in = Batch::new(plc_in, 1);
            let q = self.plc_head.forward_batch(&plc_in, s, true);
            s.recycle(plc_in.into_matrix());
            q.into_matrix()
        };
        s.recycle(mean_ctx);

        // Assemble the flat Q-vector in action-space order.
        let mut q = vec![0.0f32; self.action_space.len()];
        q[0] = q_noact.get(0, 0);
        for (row, node) in features.host_rows.iter().enumerate() {
            let base = 1 + node * ACTIONS_PER_NODE;
            q[base..base + ACTIONS_PER_NODE].copy_from_slice(q_host.row(row));
        }
        for (row, node) in features.server_rows.iter().enumerate() {
            let base = 1 + node * ACTIONS_PER_NODE;
            q[base..base + ACTIONS_PER_NODE].copy_from_slice(q_server.row(row));
        }
        let plc_base = 1 + ACTIONS_PER_NODE * n;
        for plc in 0..p {
            let base = plc_base + plc * ACTIONS_PER_PLC;
            q[base..base + ACTIONS_PER_PLC].copy_from_slice(q_plc.row(plc));
        }
        s.recycle(q_host);
        s.recycle(q_server);
        s.recycle(q_noact);
        s.recycle(q_plc);

        // Refresh the forward cache, reusing its row-index buffers.
        let cache = self.cache.get_or_insert_with(|| ForwardCache {
            node_count: 0,
            plc_count: 0,
            host_rows: Vec::new(),
            server_rows: Vec::new(),
        });
        cache.node_count = n;
        cache.plc_count = p;
        cache.host_rows.clear();
        cache.host_rows.extend_from_slice(&features.host_rows);
        cache.server_rows.clear();
        cache.server_rows.extend_from_slice(&features.server_rows);
        q
    }

    /// The solo backward runs every head over all of its rows: it is the
    /// oracle the sparse batched backward is compared against.
    fn backward(&mut self, grad_q: &[f32]) {
        let cache = self.cache.take().expect("backward called before q_values");
        let n = cache.node_count;
        let p = cache.plc_count;
        assert_eq!(
            grad_q.len(),
            self.action_space.len(),
            "gradient length mismatch"
        );
        let s = &mut self.scratch;

        let head_in = CTX_DIM + PLC_SUMMARY_DIM;
        let mut grad_h = s.take(n, head_in);

        // Host and server heads.
        for (head, rows) in [
            (&mut self.host_head, &cache.host_rows),
            (&mut self.server_head, &cache.server_rows),
        ] {
            if rows.is_empty() {
                continue;
            }
            let mut grad = s.take(rows.len(), ACTIONS_PER_NODE);
            for (row, node) in rows.iter().enumerate() {
                let base = 1 + node * ACTIONS_PER_NODE;
                grad.row_mut(row)
                    .copy_from_slice(&grad_q[base..base + ACTIONS_PER_NODE]);
            }
            let g = head.backward_batch(Batch::new(grad, 1), s);
            for (row, node) in rows.iter().enumerate() {
                for (d, &v) in grad_h.row_mut(*node).iter_mut().zip(g.matrix().row(row)) {
                    *d += v;
                }
            }
            s.recycle(g.into_matrix());
        }

        // No-action head -> gradient on the pooled context.
        let mut grad_noact = s.take(1, 1);
        grad_noact.row_mut(0)[0] = grad_q[0];
        let grad_noact_in = self.noact_head.backward_batch(Batch::new(grad_noact, 1), s);
        let mut grad_mean_ctx = s.take(1, CTX_DIM);
        grad_mean_ctx
            .row_mut(0)
            .copy_from_slice(&grad_noact_in.matrix().row(0)[..CTX_DIM]);
        s.recycle(grad_noact_in.into_matrix());

        // PLC head -> more gradient on the pooled context.
        if p > 0 {
            let mut grad_plc = s.take(p, ACTIONS_PER_PLC);
            let plc_base = 1 + ACTIONS_PER_NODE * n;
            for plc in 0..p {
                let base = plc_base + plc * ACTIONS_PER_PLC;
                grad_plc
                    .row_mut(plc)
                    .copy_from_slice(&grad_q[base..base + ACTIONS_PER_PLC]);
            }
            let grad_plc_in = self.plc_head.backward_batch(Batch::new(grad_plc, 1), s);
            for i in 0..p {
                let src = &grad_plc_in.matrix().row(i)[PLC_FEATURE_DIM..];
                for (d, &v) in grad_mean_ctx.row_mut(0).iter_mut().zip(src) {
                    *d += v;
                }
            }
            s.recycle(grad_plc_in.into_matrix());
        }

        // Context gradient: the per-node head slice plus 1/n of the pooled
        // gradient (mean-pooling backward).
        let mut grad_ctx = Batch::take(s, 1, n, CTX_DIM);
        let inv_n = 1.0 / n.max(1) as f32;
        for i in 0..n {
            let dst = grad_ctx.matrix_mut().row_mut(i);
            dst.copy_from_slice(&grad_h.row(i)[..CTX_DIM]);
            for (d, &g) in dst.iter_mut().zip(grad_mean_ctx.row(0)) {
                *d += g * inv_n;
            }
        }
        s.recycle(grad_h);
        s.recycle(grad_mean_ctx);

        self.backward_trunk(grad_ctx);
        self.cache = Some(cache);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::NodeFeatureEncoder;
    use dbn::learn::{learn_model, LearnConfig};
    use dbn::DbnFilter;
    use ics_net::TopologySpec;
    use ics_sim::{IcsEnvironment, SimConfig};

    fn features_for(spec: &TopologySpec, seed: u64) -> (StateFeatures, ActionSpace) {
        let sim = SimConfig {
            topology: spec.clone(),
            ..SimConfig::tiny()
        }
        .with_max_time(60)
        .with_seed(seed);
        let model = learn_model(&LearnConfig {
            episodes: 1,
            seed,
            sim: sim.clone(),
        });
        let mut env = IcsEnvironment::new(sim);
        let obs = env.reset();
        let encoder = NodeFeatureEncoder::new(env.topology());
        let filter = DbnFilter::new(model, env.topology().node_count());
        let space = ActionSpace::new(env.topology());
        (encoder.encode(&obs, &filter), space)
    }

    use crate::agent::test_states::episode_states;

    #[test]
    fn batched_q_values_are_bit_identical_to_solo_forwards() {
        let (mut states, space) = episode_states(9, 3);
        // Hand-built edges of grouped inference: every node row equal (one
        // group per head), and two rows that differ only in a zero's sign
        // (separate groups).
        let mut all_equal = states[4].clone();
        let mut signed_zero = states[4].clone();
        let row0 = all_equal.nodes.row(0).to_vec();
        for r in 1..all_equal.node_count() {
            all_equal.nodes.row_mut(r).copy_from_slice(&row0);
        }
        let (a, b) = (signed_zero.host_rows[0], signed_zero.host_rows[1]);
        let row_a = signed_zero.nodes.row(a).to_vec();
        let zero = row_a.iter().position(|&v| v == 0.0).unwrap();
        signed_zero.nodes.row_mut(b).copy_from_slice(&row_a);
        signed_zero.nodes.row_mut(b)[zero] = -0.0;
        states.extend([all_equal, signed_zero]);

        let bits = |qs: &[Vec<f32>]| -> Vec<Vec<u32>> {
            qs.iter()
                .map(|q| q.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        let mut net = AttentionQNet::new(space, 5);
        // Solo answers first, then the batches — and again in the other
        // order, so neither path depends on residue from the other.
        let solo: Vec<Vec<f32>> = states.iter().map(|f| net.q_values(f)).collect();
        let refs: Vec<&StateFeatures> = states.iter().collect();
        for size in [1, 3, refs.len()] {
            let batched: Vec<Vec<f32>> = refs
                .chunks(size)
                .flat_map(|chunk| net.q_values_batch(chunk))
                .collect();
            assert_eq!(bits(&solo), bits(&batched), "batches of {size} vs solo");
        }
        let trained = net.q_values_batch_train(&refs);
        assert_eq!(bits(&solo), bits(&trained), "training forward vs solo");
        let again: Vec<Vec<f32>> = states.iter().map(|f| net.q_values(f)).collect();
        assert_eq!(bits(&solo), bits(&again));
        // Not all states are identical, so the equality above is meaningful.
        assert!(solo.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn batched_inference_does_not_clobber_the_training_cache() {
        let (states, space) = episode_states(4, 7);
        let make_grad = |len: usize| {
            let mut g = vec![0.0f32; len];
            g[2] = 1.0;
            g[0] = -0.5;
            g
        };

        let mut reference = AttentionQNet::new(space.clone(), 11);
        let q = reference.q_values(&states[0]);
        reference.zero_grad();
        reference.backward(&make_grad(q.len()));

        let mut interleaved = AttentionQNet::new(space, 11);
        let q = interleaved.q_values(&states[0]);
        let refs: Vec<&StateFeatures> = states.iter().collect();
        let _ = interleaved.q_values_batch(&refs);
        interleaved.zero_grad();
        interleaved.backward(&make_grad(q.len()));

        for (a, b) in reference
            .params_mut()
            .iter()
            .zip(interleaved.params_mut().iter())
        {
            assert_eq!(a.grad.data(), b.grad.data(), "training gradients diverged");
        }
    }

    #[test]
    fn q_output_covers_the_action_space_and_is_bounded() {
        let (features, space) = features_for(&TopologySpec::tiny(), 1);
        let mut net = AttentionQNet::new(space.clone(), 0);
        let q = net.q_values(&features);
        assert_eq!(q.len(), space.len());
        assert!(
            q.iter().all(|v| v.abs() <= 1.0),
            "tanh heads bound Q values"
        );
        assert_eq!(net.action_space().len(), space.len());
    }

    #[test]
    fn parameter_count_is_independent_of_network_size() {
        let (_, small_space) = features_for(&TopologySpec::tiny(), 2);
        let (_, large_space) = features_for(&TopologySpec::paper_small(), 3);
        let mut small = AttentionQNet::new(small_space, 0);
        let mut large = AttentionQNet::new(large_space, 0);
        assert_eq!(small.parameter_count(), large.parameter_count());
        // Comfortably under a million parameters.
        assert!(small.parameter_count() < 1_000_000);
    }

    #[test]
    fn backward_accumulates_gradients_for_selected_action() {
        let (features, space) = features_for(&TopologySpec::tiny(), 4);
        let mut net = AttentionQNet::new(space.clone(), 7);
        let q = net.q_values(&features);
        let mut grad = vec![0.0f32; q.len()];
        grad[3] = 1.0; // some per-node action
        grad[0] = 0.5; // the no-action value
        net.zero_grad();
        net.backward(&grad);
        let total_grad: f32 = net.params_mut().iter().map(|p| p.grad.norm()).sum();
        assert!(
            total_grad > 0.0,
            "backward should produce non-zero gradients"
        );
    }

    #[test]
    fn training_step_reduces_td_error_on_a_fixed_target() {
        let (features, space) = features_for(&TopologySpec::tiny(), 5);
        let mut net = AttentionQNet::new(space.clone(), 11);
        let mut opt = neural::optim::Adam::new(1e-3);
        let action = 2usize;
        let target = 0.7f32;
        let initial_error = (net.q_values(&features)[action] - target).abs();
        for _ in 0..60 {
            let q = net.q_values(&features);
            let mut grad = vec![0.0f32; q.len()];
            grad[action] = q[action] - target;
            net.zero_grad();
            net.backward(&grad);
            opt.step(&mut net.params_mut());
        }
        let final_error = (net.q_values(&features)[action] - target).abs();
        assert!(
            final_error < initial_error * 0.5,
            "TD error did not shrink: {initial_error} -> {final_error}"
        );
    }

    #[test]
    fn target_network_copy_matches_online_outputs() {
        let (features, space) = features_for(&TopologySpec::tiny(), 6);
        let mut online = AttentionQNet::new(space.clone(), 1);
        let mut target = AttentionQNet::new(space, 2);
        let q_online = online.q_values(&features);
        let q_target_before = target.q_values(&features);
        assert_ne!(q_online, q_target_before);
        target.copy_params_from(&mut online);
        let q_target_after = target.q_values(&features);
        for (a, b) in q_online.iter().zip(&q_target_after) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
