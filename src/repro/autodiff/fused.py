"""Fused MLP kernels: one tape node per network block instead of ~8.

The GNS hot loop is dominated by small MLPs applied to every edge and
node. Composing them from Tensor primitives costs one Python closure,
one tape node, and at least one temporary array per op. This module
provides:

* **Plain-NumPy forward kernels** (:func:`mlp_forward_numpy` and the
  split first-layer helpers) used by the no-grad inference paths. They
  accept optional caller-managed buffers so a rollout engine can run
  allocation-free.
* **Fused tape ops** (:func:`linear_relu`, :func:`mlp_forward`,
  :func:`fused_edge_mlp`, :func:`fused_node_mlp`) that execute the same
  kernels forward and implement a single hand-written vector-Jacobian
  product, so the training path and the inference path share bitwise-
  identical float64 numerics.

The split first-layer trick: an interaction-network edge update computes
``φ_e([e, v_s, v_r]) = concat([e, v_s, v_r]) @ W0 + b0``. Splitting
``W0`` by row blocks ``[We; Ws; Wr]`` gives

    e @ We + (v @ Ws)[senders] + (v @ Wr)[receivers] + b0

which replaces two *edge-sized* matmul blocks with *node-sized* ones
(~20× fewer flops on those blocks at GNS densities) and eliminates the
edge-sized concatenation entirely. The bias is folded into the sender
projection so it is added once per node instead of once per edge.
"""
# repro-lint: fp32-ok — float32 inference fast path

from __future__ import annotations

import numpy as np

from ..accel import kernels as _accel_kernels
from .scatter import SortedSegments
from .tensor import Tensor, as_tensor

__all__ = [
    "linear_relu", "mlp_forward", "fused_edge_mlp", "fused_node_mlp",
    "mlp_forward_numpy", "edge_mlp_first_layer", "node_mlp_first_layer",
    "layer_norm_inplace",
]

# cached per-(width, dtype) mean vectors: row means as a matvec run ~2.5×
# faster than ndarray.mean on the reduction-heavy LayerNorm path
_MEAN_VECS: dict[tuple[int, np.dtype], np.ndarray] = {}


def _mean_vec(width: int, dtype) -> np.ndarray:
    key = (width, np.dtype(dtype))
    vec = _MEAN_VECS.get(key)
    if vec is None:
        vec = np.full(width, 1.0 / width, dtype=dtype)
        _MEAN_VECS[key] = vec
    return vec


#: output widths below this run through einsum on the float32 C-kernel
#: path (see :func:`_mlp_tail_accel`)
_NARROW = 8


def _buf(getbuf, tag: str, shape: tuple, dtype) -> np.ndarray:
    if getbuf is None:
        return np.empty(shape, dtype=dtype)
    return getbuf(tag, shape, dtype)


def _accel_for(h: np.ndarray, saved) -> object | None:
    """Compiled C kernels for ``h``, or None when the NumPy path applies.

    Only the no-grad float32 path ever dispatches to the C kernels: the
    float64 path keeps its bitwise-equality contract with the legacy
    per-op implementation, and tape mode (``saved``) needs the NumPy
    intermediates for the VJP.
    """
    if saved is not None or h.dtype != np.float32 or not h.flags.c_contiguous:
        return None
    return _accel_kernels()


# ----------------------------------------------------------------------
# NumPy forward kernels (shared by tape ops and no-grad inference)
# ----------------------------------------------------------------------

def _ln_stats(h: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(centered, inv_std)`` for LayerNorm over the last axis."""
    width = h.shape[-1]
    mu = h @ _mean_vec(width, h.dtype)
    centered = h - mu[:, None]
    var = np.einsum("ij,ij->i", centered, centered)
    var /= width
    var += eps
    np.sqrt(var, out=var)
    inv = np.divide(1.0, var, out=var)
    return centered, inv


def layer_norm_inplace(h: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                       eps: float) -> np.ndarray:
    """LayerNorm over the last axis, overwriting ``h``.

    float32 inputs dispatch to the single-pass C kernel when available
    (last-ulp differences vs NumPy; see :mod:`repro.accel.cpu`)."""
    if h.ndim == 2:
        kern = _accel_for(h, None)
        if (kern is not None and gamma.dtype == np.float32
                and beta.dtype == np.float32
                and gamma.flags.c_contiguous and beta.flags.c_contiguous):
            return kern.ln(h, gamma, beta, eps)
    width = h.shape[-1]
    mu = h @ _mean_vec(width, h.dtype)
    np.subtract(h, mu[:, None], out=h)
    var = np.einsum("ij,ij->i", h, h)
    var /= width
    var += eps
    np.sqrt(var, out=var)
    np.divide(1.0, var, out=var)
    h *= var[:, None]
    h *= gamma
    h += beta
    return h


def _layer_buf(getbuf, tag: str, k: int, last: bool, shape: tuple, dtype,
               out: np.ndarray | None) -> np.ndarray:
    """Output buffer of layer ``k``: ``out`` for the last layer when
    given, else the ``k % 2`` half of the ``tag`` ping-pong pair (layer
    ``k`` reads layer ``k - 1``'s buffer, so two scratch buffers serve
    any depth)."""
    if last and out is not None:
        return out
    return _buf(getbuf, f"{tag}.{k % 2}", shape, dtype)


def _mlp_tail_accel(h: np.ndarray, weights, biases, gamma, beta, eps: float,
                    getbuf, tag: str, kern, bias0: np.ndarray | None = None,
                    activated: bool = False,
                    out: np.ndarray | None = None) -> np.ndarray:
    """float32 tail using the fused C kernels (bias+ReLU, bias+LayerNorm).

    ``h`` is the layer-0 pre-activation. With ``bias0`` the layer-0 bias
    has not been added yet and is fused into the first ReLU; with
    ``activated`` the caller already applied bias and ReLU (the fused
    edge first layer). ``out`` receives the last layer. Requires
    ``len(weights) > 1``.
    """
    depth = len(weights)
    for k in range(1, depth):
        if k > 1:
            kern.bias_relu(h, biases[k - 1])
        elif not activated:
            if bias0 is not None:
                kern.bias_relu(h, bias0)
            else:
                kern.relu(h)
        buf = _layer_buf(getbuf, tag, k, k == depth - 1,
                         (h.shape[0], weights[k].shape[1]), h.dtype, out)
        if weights[k].shape[1] < _NARROW:
            # OpenBLAS sgemm takes row-position-dependent paths for so
            # few columns; einsum's fixed per-row dot keeps identical
            # batch members bitwise-identical (the decoder's 2-3 outputs)
            h = np.einsum("ik,kj->ij", h, weights[k], out=buf)
        else:
            h = np.matmul(h, weights[k], out=buf)
    if gamma is not None:
        kern.bias_ln(h, biases[depth - 1], gamma, beta, eps)
    else:
        h += biases[depth - 1]
    return h


def _mlp_tail(h: np.ndarray, weights, biases, gamma, beta, eps: float,
              getbuf=None, tag: str = "mlp",
              saved: dict | None = None,
              out: np.ndarray | None = None) -> np.ndarray:
    """Layers 1..K−1 plus optional LayerNorm, given layer-0 pre-activation.

    With ``saved`` (tape mode, seeded by :func:`_grad_snapshot`) every
    intermediate is a fresh allocation and the LayerNorm stats and, per
    hidden layer, the post-ReLU activation are recorded for the VJP —
    or only its bool ReLU mask when that layer's weight is frozen, since
    only the weight gradient reads the activation values. Without it,
    ReLU and LayerNorm run in place and matmuls target caller buffers —
    same operations, bitwise-identical values; layer ``k`` writes the
    ``f"{tag}.{k % 2}"`` buffer, or ``out`` for the last layer. On the
    no-grad float32 path, multi-layer tails dispatch to the fused C
    kernels when available.
    """
    depth = len(weights)
    if depth > 1:
        kern = _accel_for(h, saved)
        if kern is not None:
            return _mlp_tail_accel(h, weights, biases, gamma, beta, eps,
                                   getbuf, tag, kern, out=out)
    acts = []
    for k in range(1, depth):
        np.maximum(h, 0.0, out=h)
        if saved is not None:
            acts.append(h if saved["wgrad"][k] else h > 0)
        h = np.matmul(h, weights[k], out=_layer_buf(
            getbuf, tag, k, k == depth - 1,
            (h.shape[0], weights[k].shape[1]), h.dtype, out))
        h += biases[k]
    if gamma is not None:
        if saved is not None:
            centered, inv = _ln_stats(h, eps)
            xhat = centered
            xhat *= inv[:, None]
            out = xhat * gamma
            out += beta
            saved["xhat"], saved["inv"] = xhat, inv
            h = out
        else:
            layer_norm_inplace(h, gamma, beta, eps)
    if saved is not None:
        saved["acts"] = acts
    return h


def mlp_forward_numpy(x: np.ndarray, weights, biases, gamma=None, beta=None,
                      eps: float = 1e-5, getbuf=None, tag: str = "mlp",
                      saved: dict | None = None,
                      out: np.ndarray | None = None) -> np.ndarray:
    """ReLU MLP (+ optional LayerNorm) on plain arrays.

    ``weights``/``biases`` are per-layer arrays; ``getbuf(tag, shape,
    dtype)`` optionally supplies reusable scratch buffers (inference
    engine), two per ``tag`` whatever the depth; ``out`` receives the
    last layer; ``saved`` (mutually exclusive with ``getbuf``) records
    intermediates for a fused backward pass.
    """
    depth = len(weights)
    h = np.matmul(x, weights[0], out=_layer_buf(
        getbuf, tag, 0, depth == 1, (x.shape[0], weights[0].shape[1]),
        x.dtype, out))
    if depth > 1:
        kern = _accel_for(h, saved)
        if kern is not None:
            # layer-0 bias folds into the first fused bias+ReLU pass
            return _mlp_tail_accel(h, weights, biases, gamma, beta, eps,
                                   getbuf, tag, kern, bias0=biases[0],
                                   out=out)
    h += biases[0]
    return _mlp_tail(h, weights, biases, gamma, beta, eps,
                     getbuf=getbuf, tag=tag, saved=saved, out=out)


def edge_mlp_first_layer(edge_f: np.ndarray, node_f: np.ndarray,
                         senders: np.ndarray, receivers: np.ndarray,
                         w0: np.ndarray, b0: np.ndarray,
                         out: np.ndarray | None = None) -> np.ndarray:
    """Split-evaluate ``concat([edge_f, node_f[s], node_f[r]]) @ w0 + b0``."""
    ein = edge_f.shape[1]
    width = node_f.shape[1]
    w_edge = w0[:ein]
    w_send = w0[ein:ein + width]
    w_recv = w0[ein + width:]
    proj_s = node_f @ w_send
    proj_s += b0  # bias folded: added once per node, not once per edge
    proj_r = node_f @ w_recv
    if out is None:
        h = edge_f @ w_edge
    else:
        h = np.matmul(edge_f, w_edge, out=out)
    h += proj_s.take(senders, axis=0)
    h += proj_r.take(receivers, axis=0)
    return h


def node_mlp_first_layer(node_f: np.ndarray, agg: np.ndarray,
                         w0: np.ndarray, b0: np.ndarray,
                         out: np.ndarray | None = None) -> np.ndarray:
    """Split-evaluate ``concat([node_f, agg]) @ w0 + b0``."""
    width = node_f.shape[1]
    if out is None:
        h = node_f @ w0[:width]
    else:
        h = np.matmul(node_f, w0[:width], out=out)
    h += agg @ w0[width:]
    h += b0
    return h


# ----------------------------------------------------------------------
# Fused tape ops
# ----------------------------------------------------------------------

def _as_param_lists(weights, biases):
    return [as_tensor(w) for w in weights], [as_tensor(b) for b in biases]


def _grad_snapshot(weights, biases, gamma, beta) -> dict:
    """The ``saved`` dict of a fused tape op, seeded with which parameter
    gradients its backward computes.

    ``requires_grad`` is read here, once, at forward time, and the
    backward honours the snapshot instead of the live flags: a forward
    run under :meth:`repro.nn.Module.frozen` computes no weight gradient
    even when ``backward()`` runs after the flags are restored, and
    :func:`_mlp_tail` keeps bool ReLU masks for its frozen layers.
    """
    return {"wgrad": [w.requires_grad for w in weights],
            "bgrad": [b.requires_grad for b in biases],
            "lngrad": (gamma is not None and gamma.requires_grad,
                       beta is not None and beta.requires_grad)}


def _mlp_backward_tail(g: np.ndarray, saved: dict, weights, biases,
                       gamma, beta, grads) -> np.ndarray:
    """Backward through LayerNorm + layers K−1..1; returns grad at the
    layer-0 pre-activation. Parameter gradients follow the forward-time
    snapshot in ``saved``."""
    if gamma is not None:
        xhat, inv = saved["xhat"], saved["inv"]
        width = xhat.shape[1]
        gamma_grad, beta_grad = saved["lngrad"]
        if gamma_grad:
            Tensor._add_grad(grads, gamma, np.einsum("ij,ij->j", g, xhat))
        if beta_grad:
            Tensor._add_grad(grads, beta, g.sum(axis=0))
        gxh = g * gamma.data
        m1 = gxh @ _mean_vec(width, gxh.dtype)
        m2 = np.einsum("ij,ij->i", gxh, xhat)
        m2 /= width
        gh = gxh
        gh -= m1[:, None]
        gh -= xhat * m2[:, None]
        gh *= inv[:, None]
    else:
        gh = np.asarray(g)
    acts, wgrad, bgrad = saved["acts"], saved["wgrad"], saved["bgrad"]
    for k in range(len(weights) - 1, 0, -1):
        # a trainable layer kept its float activation, a frozen one
        # only the ReLU mask
        mask = acts[k - 1]
        if wgrad[k]:
            Tensor._add_grad(grads, weights[k], mask.T @ gh)
            mask = mask > 0
        if bgrad[k]:
            Tensor._add_grad(grads, biases[k], gh.sum(axis=0))
        gh = gh @ weights[k].data.T
        gh *= mask
    return gh


def _ln_parents(gamma, beta):
    return ([gamma, beta], gamma, beta) if gamma is not None else ([], None, None)


def linear_relu(x, weight, bias) -> Tensor:
    """Fused ``relu(x @ weight + bias)`` — one tape node, one temporary."""
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    out = np.matmul(x.data, weight.data)
    out += bias.data
    np.maximum(out, 0.0, out=out)
    need_x, need_w, need_b = (x.requires_grad, weight.requires_grad,
                              bias.requires_grad)

    def backward(g, grads):
        gh = g * (out > 0)
        if need_w:
            Tensor._add_grad(grads, weight, x.data.T @ gh)
        if need_b:
            Tensor._add_grad(grads, bias, gh.sum(axis=0))
        if need_x:
            Tensor._add_grad(grads, x, gh @ weight.data.T)

    return Tensor._make(out, (x, weight, bias), backward)


def mlp_forward(x, weights, biases, gamma=None, beta=None,
                eps: float = 1e-5) -> Tensor:
    """Whole ReLU MLP (+ optional LayerNorm) as a single tape node."""
    x = as_tensor(x)
    weights, biases = _as_param_lists(weights, biases)
    ln_parents, gamma, beta = _ln_parents(
        as_tensor(gamma) if gamma is not None else None,
        as_tensor(beta) if beta is not None else None)
    saved = _grad_snapshot(weights, biases, gamma, beta)
    need_x = x.requires_grad
    out = mlp_forward_numpy(x.data, [w.data for w in weights],
                            [b.data for b in biases],
                            gamma.data if gamma is not None else None,
                            beta.data if beta is not None else None,
                            eps, saved=saved)

    def backward(g, grads):
        gh = _mlp_backward_tail(g, saved, weights, biases, gamma, beta, grads)
        if saved["wgrad"][0]:
            Tensor._add_grad(grads, weights[0], x.data.T @ gh)
        if saved["bgrad"][0]:
            Tensor._add_grad(grads, biases[0], gh.sum(axis=0))
        if need_x:
            Tensor._add_grad(grads, x, gh @ weights[0].data.T)

    return Tensor._make(out, [x] + weights + biases + ln_parents, backward)


def fused_edge_mlp(edge_f, node_f, senders: np.ndarray, receivers: np.ndarray,
                   weights, biases, gamma=None, beta=None,
                   eps: float = 1e-5,
                   sender_plan: SortedSegments | None = None,
                   receiver_plan: SortedSegments | None = None) -> Tensor:
    """Edge MLP ``φ_e([e, v_s, v_r])`` with the split first layer, fused
    into one tape node (gathers, concat, all linear layers, LayerNorm).

    ``sender_plan``/``receiver_plan`` are :class:`SortedSegments` over
    ``senders``/``receivers`` (see :meth:`repro.graph.Graph.segments`);
    the backward's two node-side reductions run through them, building
    their own only when none is given."""
    edge_f, node_f = as_tensor(edge_f), as_tensor(node_f)
    weights, biases = _as_param_lists(weights, biases)
    ln_parents, gamma, beta = _ln_parents(
        as_tensor(gamma) if gamma is not None else None,
        as_tensor(beta) if beta is not None else None)
    senders = np.asarray(senders, dtype=np.intp)
    receivers = np.asarray(receivers, dtype=np.intp)
    saved = _grad_snapshot(weights, biases, gamma, beta)
    need_e, need_v = edge_f.requires_grad, node_f.requires_grad
    h0 = edge_mlp_first_layer(edge_f.data, node_f.data, senders, receivers,
                              weights[0].data, biases[0].data)
    out = _mlp_tail(h0, [w.data for w in weights], [b.data for b in biases],
                    gamma.data if gamma is not None else None,
                    beta.data if beta is not None else None,
                    eps, saved=saved)

    def backward(g, grads):
        gh = _mlp_backward_tail(g, saved, weights, biases, gamma, beta, grads)
        w0 = weights[0].data
        ein = edge_f.data.shape[1]
        width = node_f.data.shape[1]
        n = node_f.data.shape[0]
        if saved["wgrad"][0] or need_v:
            send = sender_plan if sender_plan is not None \
                else SortedSegments(senders, n)
            recv = receiver_plan if receiver_plan is not None \
                else SortedSegments(receivers, n)
            seg_s = send.segment_sum(gh)
            seg_r = recv.segment_sum(gh)
        if saved["wgrad"][0]:
            gw0 = np.empty_like(w0)
            gw0[:ein] = edge_f.data.T @ gh
            gw0[ein:ein + width] = node_f.data.T @ seg_s
            gw0[ein + width:] = node_f.data.T @ seg_r
            Tensor._add_grad(grads, weights[0], gw0)
        if saved["bgrad"][0]:
            Tensor._add_grad(grads, biases[0], gh.sum(axis=0))
        if need_e:
            Tensor._add_grad(grads, edge_f, gh @ w0[:ein].T)
        if need_v:
            gnodes = seg_s @ w0[ein:ein + width].T
            gnodes += seg_r @ w0[ein + width:].T
            Tensor._add_grad(grads, node_f, gnodes)

    return Tensor._make(out, [edge_f, node_f] + weights + biases + ln_parents,
                        backward)


def fused_node_mlp(node_f, agg, weights, biases, gamma=None, beta=None,
                   eps: float = 1e-5, residual=None) -> Tensor:
    """Node MLP ``φ_v([v, Σe'])`` with the split first layer, fused into
    one tape node.

    ``residual`` optionally folds the interaction-network skip connection
    ``residual + φ_v(...)`` into the same node (its VJP is the identity),
    saving one tape node and one closure per processor block.
    """
    node_f, agg = as_tensor(node_f), as_tensor(agg)
    weights, biases = _as_param_lists(weights, biases)
    ln_parents, gamma, beta = _ln_parents(
        as_tensor(gamma) if gamma is not None else None,
        as_tensor(beta) if beta is not None else None)
    if residual is not None:
        residual = as_tensor(residual)
    saved = _grad_snapshot(weights, biases, gamma, beta)
    need_v, need_a = node_f.requires_grad, agg.requires_grad
    need_r = residual is not None and residual.requires_grad
    h0 = node_mlp_first_layer(node_f.data, agg.data, weights[0].data,
                              biases[0].data)
    out = _mlp_tail(h0, [w.data for w in weights], [b.data for b in biases],
                    gamma.data if gamma is not None else None,
                    beta.data if beta is not None else None,
                    eps, saved=saved)
    if residual is not None:
        # same operand order as the unfused `residual + update` tape op,
        # so the fold is bitwise-neutral
        out = residual.data + out

    def backward(g, grads):
        if need_r:
            Tensor._add_grad(grads, residual, g)
        gh = _mlp_backward_tail(g, saved, weights, biases, gamma, beta, grads)
        w0 = weights[0].data
        width = node_f.data.shape[1]
        if saved["wgrad"][0]:
            gw0 = np.empty_like(w0)
            gw0[:width] = node_f.data.T @ gh
            gw0[width:] = agg.data.T @ gh
            Tensor._add_grad(grads, weights[0], gw0)
        if saved["bgrad"][0]:
            Tensor._add_grad(grads, biases[0], gh.sum(axis=0))
        if need_v:
            Tensor._add_grad(grads, node_f, gh @ w0[:width].T)
        if need_a:
            Tensor._add_grad(grads, agg, gh @ w0[width:].T)

    parents = [node_f, agg] + weights + biases + ln_parents
    if residual is not None:
        parents.append(residual)
    return Tensor._make(out, parents, backward)
