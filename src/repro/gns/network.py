"""Encode–Process–Decode graph network (Fig 1a of the paper).

* **Encoder** — node and edge MLPs embed raw features into a latent graph.
* **Processor** — M message-passing blocks (interaction networks with
  residual connections); the attention variant weights incoming messages
  with edge-softmax coefficients (the paper's graph-attention extension).
* **Decoder** — node MLP extracting the dynamics (acceleration).
"""
# repro-lint: fp32-ok — float32 inference fast path

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from ..autodiff import Tensor, concatenate
from ..autodiff.fused import (
    edge_mlp_first_layer, fused_edge_mlp, fused_node_mlp, mlp_forward_numpy,
    node_mlp_first_layer, _accel_for, _buf, _mlp_tail, _mlp_tail_accel,
)
from ..autodiff.scatter import (
    SortedSegments, gather, scatter_add, scatter_softmax, segment_sum,
)
from ..accel.cpu import MLP_WIDTHS
from ..graph import Graph
from ..nn import MLP, Module

_NULL_TIMER = contextlib.nullcontext()


def _aggregation_matrix(receivers: np.ndarray, num_edges: int, num_nodes: int,
                        dtype) -> sparse.csr_matrix:
    """Sparse (n × e) one-hot receiver matrix whose matmul is segment-sum.

    When ``receivers`` is sorted (the :func:`repro.graph.radius_graph`
    contract) the CSR structure is written directly — no COO sort — and
    is bitwise-identical to the COO-constructed matrix.
    """
    data = np.ones(num_edges, dtype=dtype)
    indices = np.arange(num_edges, dtype=np.int32)
    if num_edges == 0 or np.all(receivers[:-1] <= receivers[1:]):
        indptr = np.searchsorted(receivers, np.arange(num_nodes + 1)
                                 ).astype(np.int32)
        return sparse.csr_matrix((data, indices, indptr),
                                 shape=(num_nodes, num_edges))
    return sparse.csr_matrix((data, (receivers, indices)),
                             shape=(num_nodes, num_edges))


def _fused(mlp: MLP, kern) -> bool:
    """True when the fused C kernel runs ``mlp``: float32 kernels are
    available and it is a LayerNorm MLP whose hidden and output widths
    are one of :data:`repro.accel.cpu.MLP_WIDTHS`."""
    sizes = mlp.sizes
    return (kern is not None and mlp.norm is not None and len(sizes) > 2
            and sizes[-1] in MLP_WIDTHS
            and all(s == sizes[-1] for s in sizes[1:]))


def _run_fused(kern, mlp: MLP, x: np.ndarray, **kw) -> np.ndarray:
    """``kern.mlp`` on ``mlp``'s packed float32 parameters."""
    return kern.mlp(mlp.packed(np.float32), mlp.sizes, mlp.norm.eps, x, **kw)


def _encode(mlp: MLP, x: np.ndarray, kind: str, getbuf, kern) -> np.ndarray:
    """Encoder MLP into the ``"<kind>.latent"`` buffer."""
    out = _buf(getbuf, f"{kind}.latent", (x.shape[0], mlp.sizes[-1]),
               x.dtype)
    if _fused(mlp, kern):
        return _run_fused(kern, mlp, x, out=out)
    return mlp.forward_numpy(x, getbuf, kind, out=out)


def _fused_block(block: "InteractionNetwork", nodes: np.ndarray,
                 edges: np.ndarray, senders: np.ndarray,
                 receivers: np.ndarray, getbuf, kern,
                 edge_residual: bool) -> None:
    """One interaction block as two fused kernel calls, updating
    ``nodes`` (and, with ``edge_residual``, ``edges``) in place.

    The edge MLP's node-sized sender/receiver projections stay BLAS
    GEMMs; the kernel gathers them per edge, runs the MLP and
    LayerNorm, sums each message into its receiver in edge order and
    adds the residual — no edge-sized intermediate is written.
    """
    n, width = nodes.shape
    ein = edges.shape[1]
    w0 = block.edge_mlp.linears[0].arrays(np.float32)[0]
    shape = (n, w0.shape[1])
    proj_s = np.matmul(nodes, w0[ein:ein + width],
                       out=_buf(getbuf, "node.proj_s", shape, np.float32))
    proj_r = np.matmul(nodes, w0[ein + width:],
                       out=_buf(getbuf, "node.proj_r", shape, np.float32))
    agg = _buf(getbuf, "node.agg", shape, np.float32)
    _run_fused(kern, block.edge_mlp, edges,
               gather=(proj_s, proj_r, senders, receivers), agg=agg,
               out=edges if edge_residual else None, residual=True)
    _run_fused(kern, block.node_mlp, nodes, x2=agg, out=nodes,
               residual=True)


__all__ = ["GNSNetworkConfig", "InteractionNetwork", "EncodeProcessDecode"]


@dataclass
class GNSNetworkConfig:
    """Architecture hyperparameters.

    The paper follows Sanchez-Gonzalez et al. (2020): latent size 128 and
    10 message-passing steps; defaults here are smaller for CPU-scale
    experiments but fully configurable.
    """

    node_input_size: int = 12
    edge_input_size: int = 3
    output_size: int = 2
    latent_size: int = 64
    mlp_hidden_size: int = 64
    mlp_hidden_layers: int = 2
    message_passing_steps: int = 5
    attention: bool = False

    def _mlp_sizes(self, in_size: int, out_size: int) -> list[int]:
        return [in_size] + [self.mlp_hidden_size] * self.mlp_hidden_layers + [out_size]


class InteractionNetwork(Module):
    """One message-passing block with residual updates.

    Edge update: e' = φ_e([e, v_s, v_r]); node update: v' = φ_v([v, Σ e'])
    where the sum runs over incoming edges. With ``attention=True`` the
    aggregation is an attention-weighted sum: coefficients are an
    edge-softmax over each receiver's incoming edges, computed from the
    same inputs as the edge update (GAT-style).
    """

    def __init__(self, cfg: GNSNetworkConfig, rng: np.random.Generator):
        super().__init__()
        ls = cfg.latent_size
        self.edge_mlp = MLP(cfg._mlp_sizes(3 * ls, ls), rng, layer_norm=True)
        self.node_mlp = MLP(cfg._mlp_sizes(2 * ls, ls), rng, layer_norm=True)
        self.attention = cfg.attention
        if cfg.attention:
            self.attn_mlp = MLP([3 * ls, cfg.mlp_hidden_size, 1], rng)

    def attention_coefficients(self, edge_in: Tensor, receivers: np.ndarray,
                               num_nodes: int,
                               plan: SortedSegments | None = None) -> Tensor:
        """Edge-softmax attention over each receiver's incoming edges."""
        logits = self.attn_mlp(edge_in).reshape(-1)
        return scatter_softmax(logits, receivers, num_nodes, plan=plan)

    def forward(self, nodes: Tensor, edges: Tensor,
                senders: np.ndarray, receivers: np.ndarray,
                collect_attention: list | None = None,
                plan: SortedSegments | None = None,
                sender_plan: SortedSegments | None = None
                ) -> tuple[Tensor, Tensor]:
        """``plan`` and ``sender_plan`` are the receiver and sender
        :class:`SortedSegments` of the graph (:meth:`Graph.segments`)."""
        n = nodes.shape[0]
        if self.attention:
            # attention needs the explicit concatenated edge input for the
            # coefficient MLP, so it keeps the composite-op path
            vs = gather(nodes, senders, plan=sender_plan)
            vr = gather(nodes, receivers, plan=plan)
            edge_in = concatenate([edges, vs, vr], axis=1)
            messages = self.edge_mlp(edge_in)
            alpha = self.attention_coefficients(edge_in, receivers, n,
                                                plan=plan)
            if collect_attention is not None:
                collect_attention.append(alpha.data.copy())
            weighted = messages * alpha.reshape(-1, 1)
            aggregated = scatter_add(weighted, receivers, n, plan=plan)
            node_update = self.node_mlp(concatenate([nodes, aggregated], axis=1))
            # residual connections stabilize deep message-passing stacks
            return nodes + node_update, edges + messages
        # fused path: one tape node per MLP, split first layers — no
        # edge-sized concat, node-sized sender/receiver projections; the
        # node-side residual folds into the fused node MLP's tape node
        messages = fused_edge_mlp(edges, nodes, senders, receivers,
                                  *self.edge_mlp.fused_params(),
                                  sender_plan=sender_plan,
                                  receiver_plan=plan)
        aggregated = scatter_add(messages, receivers, n, plan=plan)
        new_nodes = fused_node_mlp(nodes, aggregated,
                                   *self.node_mlp.fused_params(),
                                   residual=nodes)
        return new_nodes, edges + messages


class EncodeProcessDecode(Module):
    """The full GNS network: graph in → per-node output (acceleration)."""

    def __init__(self, cfg: GNSNetworkConfig, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.cfg = cfg
        ls = cfg.latent_size
        self.node_encoder = MLP(cfg._mlp_sizes(cfg.node_input_size, ls), rng,
                                layer_norm=True)
        self.edge_encoder = MLP(cfg._mlp_sizes(cfg.edge_input_size, ls), rng,
                                layer_norm=True)
        self.blocks = [InteractionNetwork(cfg, rng)
                       for _ in range(cfg.message_passing_steps)]
        self.decoder = MLP(cfg._mlp_sizes(ls, cfg.output_size), rng,
                           layer_norm=False)

    def forward(self, graph: Graph) -> Tensor:
        from ..obs import span
        with span("encode"):
            nodes = self.node_encoder(graph.node_features)
            edges = self.edge_encoder(graph.edge_features)
        with span("process"):
            # the graph's sender/receiver reduction plans, shared by
            # every block
            send, recv = graph.segments()
            for block in self.blocks:
                nodes, edges = block(nodes, edges, graph.senders,
                                     graph.receivers, plan=recv,
                                     sender_plan=send)
        with span("decode"):
            return self.decoder(nodes)

    def forward_with_attention(self, graph: Graph
                               ) -> tuple[Tensor, list[np.ndarray]]:
        """Forward pass that also returns each attention block's per-edge
        coefficients (empty list for non-attention processors)."""
        collected: list[np.ndarray] = []
        nodes = self.node_encoder(graph.node_features)
        edges = self.edge_encoder(graph.edge_features)
        send, recv = graph.segments()
        for block in self.blocks:
            nodes, edges = block(nodes, edges, graph.senders, graph.receivers,
                                 collect_attention=collected, plan=recv,
                                 sender_plan=send)
        return self.decoder(nodes), collected

    def forward_numpy(self, node_features: np.ndarray, edge_features: np.ndarray,
                      senders: np.ndarray, receivers: np.ndarray) -> np.ndarray:
        """Tape-free inference: plain-NumPy mirror of :meth:`forward`.

        Used by the fast rollout path (hybrid solver, speedup benchmarks)
        where no gradients are required; numerically identical to the
        Tensor path.
        """
        return self.forward_fast(node_features, edge_features, senders,
                                 receivers)

    def forward_fast(self, node_features: np.ndarray,
                     edge_features: np.ndarray,
                     senders: np.ndarray, receivers: np.ndarray,
                     work=None, timers: dict | None = None,
                     plan: SortedSegments | None = None) -> np.ndarray:
        """No-grad forward with optional buffer reuse and stage timing.

        Runs the same fused kernels as the tape path (split first layers,
        in-place LayerNorm, one CSR aggregation matrix shared by every
        block), so float64 results are bitwise-identical to
        :meth:`forward`. With ``work`` (a
        :class:`repro.utils.buffers.Workspace`) every edge/node-sized
        temporary lives in a reusable buffer — the returned array is a
        workspace view, valid until the next call. ``timers`` may map
        ``"encode"/"process"/"decode"`` to accumulating
        :class:`repro.utils.Timer` objects.

        ``plan`` is a :class:`SortedSegments` over ``receivers``; the
        engine builds it once per neighbor-list rebuild so every block of
        every step between rebuilds shares one set of aggregation
        structures (bitwise-identical to the per-call matrix). On float32
        inputs the C kernels of :mod:`repro.accel` run when available:
        the encoders and every non-attention block whose MLPs have a
        kernel width (:func:`_fused`) run as whole-MLP kernel calls,
        everything else through the per-stage kernels.
        """
        timers = timers or {}
        getbuf = work.get if work is not None else None
        dtype = node_features.dtype
        n = node_features.shape[0]
        e = edge_features.shape[0]
        kern = _accel_for(node_features, None)
        if kern is not None and not (
                edge_features.flags.c_contiguous
                and senders.dtype == np.int64
                and receivers.dtype == np.int64):
            kern = None

        # buffers: the node/edge latents, plus two ping-pong scratch
        # buffers per row kind shared by every MLP (layer k writes
        # "<kind>.<k % 2>")
        with timers.get("encode", _NULL_TIMER):
            nodes = _encode(self.node_encoder, node_features, "node",
                            getbuf, kern)
            edges = _encode(self.edge_encoder, edge_features, "edge",
                            getbuf, kern)

        with timers.get("process", _NULL_TIMER):
            agg_mat = None if plan is not None else \
                _aggregation_matrix(receivers, e, n, dtype)
            last = len(self.blocks) - 1
            for bi, block in enumerate(self.blocks):
                if (not block.attention and _fused(block.edge_mlp, kern)
                        and _fused(block.node_mlp, kern)):
                    _fused_block(block, nodes, edges, senders, receivers,
                                 getbuf, kern, edge_residual=bi != last)
                    continue
                ews, ebs, egamma, ebeta, eeps = block.edge_mlp.arrays(dtype)
                if block.attention:
                    edge_in = np.concatenate(
                        [edges, nodes.take(senders, axis=0),
                         nodes.take(receivers, axis=0)], axis=1)
                    messages = block.edge_mlp.forward_numpy(edge_in)
                    logits = block.attn_mlp.forward_numpy(edge_in).ravel()
                    # dtype follows the logits so the fp32 fast path is
                    # not silently promoted back to float64
                    if plan is not None:
                        seg_max = plan.segment_max(logits, empty=-np.inf)
                    else:
                        seg_max = np.full(n, -np.inf, dtype=logits.dtype)
                        np.maximum.at(seg_max, receivers, logits)
                    seg_max[~np.isfinite(seg_max)] = 0.0
                    exp = np.exp(logits - seg_max[receivers])
                    denom = segment_sum(exp, receivers, n, plan=plan)
                    alpha = exp / denom[receivers]
                    weighted = messages * alpha[:, None]
                    aggregated = plan.segment_sum(weighted) \
                        if plan is not None else segment_sum(weighted,
                                                             receivers, n)
                else:
                    hidden = ews[0].shape[1]
                    h0 = _buf(getbuf, "edge.0", (e, hidden), dtype)
                    if kern is not None and len(ews) > 1:
                        # fp32: single-pass gather+add+ReLU C kernel for
                        # the split first layer, fused bias/LN tail
                        ein = edges.shape[1]
                        width = nodes.shape[1]
                        proj_s = np.matmul(
                            nodes, ews[0][ein:ein + width],
                            out=_buf(getbuf, "node.proj_s", (n, hidden),
                                     dtype))
                        proj_s += ebs[0]
                        proj_r = np.matmul(
                            nodes, ews[0][ein + width:],
                            out=_buf(getbuf, "node.proj_r", (n, hidden),
                                     dtype))
                        np.matmul(edges, ews[0][:ein], out=h0)
                        kern.gather2_add_relu(h0, proj_s, proj_r,
                                              senders, receivers)
                        messages = _mlp_tail_accel(h0, ews, ebs, egamma,
                                                   ebeta, eeps, getbuf,
                                                   "edge", kern,
                                                   activated=True)
                    else:
                        h0 = edge_mlp_first_layer(edges, nodes, senders,
                                                  receivers, ews[0], ebs[0],
                                                  out=h0)
                        messages = _mlp_tail(h0, ews, ebs, egamma, ebeta,
                                             eeps, getbuf=getbuf, tag="edge")
                    if plan is not None:
                        agg_out = _buf(getbuf, "node.agg",
                                       (n, messages.shape[1]), dtype) \
                            if dtype == np.float32 else None
                        aggregated = plan.segment_sum(messages, out=agg_out)
                    else:
                        aggregated = agg_mat @ messages
                nws, nbs, ngamma, nbeta, neps = block.node_mlp.arrays(dtype)
                if kern is not None and len(nws) > 1 and not block.attention:
                    width = nodes.shape[1]
                    h0 = np.matmul(nodes, nws[0][:width],
                                   out=_buf(getbuf, "node.0",
                                            (n, nws[0].shape[1]), dtype))
                    h0 += np.matmul(aggregated, nws[0][width:],
                                    out=_buf(getbuf, "node.1",
                                             (n, nws[0].shape[1]), dtype))
                    node_update = _mlp_tail_accel(h0, nws, nbs, ngamma,
                                                  nbeta, neps, getbuf,
                                                  "node", kern,
                                                  bias0=nbs[0])
                else:
                    h0 = node_mlp_first_layer(
                        nodes, aggregated, nws[0], nbs[0],
                        out=_buf(getbuf, "node.0", (n, nws[0].shape[1]),
                                 dtype))
                    node_update = _mlp_tail(h0, nws, nbs, ngamma, nbeta, neps,
                                            getbuf=getbuf, tag="node")
                nodes += node_update
                if bi != last:
                    # the final block's edge residual is dead — nothing
                    # downstream reads the edge latents (values identical)
                    edges += messages

        with timers.get("decode", _NULL_TIMER):
            out = self.decoder.forward_numpy(nodes, getbuf, "node")
        return out

    def forward_with_latents(self, graph: Graph) -> tuple[Tensor, list[Tensor]]:
        """Forward pass that also returns each block's edge messages —
        used by the interpretability pipeline (Section 6)."""
        nodes = self.node_encoder(graph.node_features)
        edges = self.edge_encoder(graph.edge_features)
        send, recv = graph.segments()
        message_log: list[Tensor] = []
        for block in self.blocks:
            new_nodes, new_edges = block(nodes, edges, graph.senders,
                                         graph.receivers, plan=recv,
                                         sender_plan=send)
            message_log.append(new_edges - edges)  # the block's raw messages
            nodes, edges = new_nodes, new_edges
        return self.decoder(nodes), message_log
