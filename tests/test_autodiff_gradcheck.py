"""Finite-difference gradient checks over *every* registered VJP.

One parametrized case per tape op — tensor primitives (arithmetic,
activations, reductions, shape ops), the differentiable scatter ops, and
the fused MLP kernels (input and weight gradients). Each case builds a
scalar loss from one input Tensor and asserts the tape gradient matches
central differences. Lint rule ADF002 cross-references the fused and
scatter kernels against the test corpus; this module is the exhaustive
anchor for that rule.

Kinked ops (relu, abs, max, min, clip) use inputs placed away from
their non-differentiable points so the central difference is valid.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import (Tensor, concatenate, stack, where, gather,
                            scatter_add, scatter_mean, scatter_softmax,
                            linear_relu, mlp_forward, fused_edge_mlp,
                            fused_node_mlp)

from .helpers import check_grad


def _arr(seed: int, *shape: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=shape)


def _pos(seed: int, *shape: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.5, 2.0, size=shape)


# fixed constant operands (weights make every gradient entry distinct,
# so a transposed/misbroadcast VJP cannot cancel to the right answer)
A = _arr(1, 4, 3)
A2 = A.copy()   # distinct object: numerical_grad perturbs the input array
                # in place, so constant operands must never alias it
C = _arr(2, 4, 3)
B = _arr(3, 3, 5)          # matmul rhs
D = _arr(4, 4, 5)          # matmul output weight
C34 = _arr(5, 3, 4)
CROW = _arr(6, 3)
CCOL = _arr(7, 4)
POS = _pos(8, 4, 3)
# off-kink input: no element within 0.05 of 0 (relu/abs) or the clip bounds
KINK = np.where(np.abs(A) < 0.05, 0.5, A)

IDX6 = np.array([0, 2, 1, 0, 3, 2], dtype=np.intp)
SEG6 = np.array([0, 0, 1, 2, 2, 2], dtype=np.intp)
COND = np.array([[True, False, True],
                 [False, True, True],
                 [True, True, False],
                 [False, False, True]])

# ---------------------------------------------------------------- tensor ops
TENSOR_CASES = {
    "add": (A, lambda x: ((x + A2) * C).sum()),
    "radd": (A, lambda x: ((2.5 + x) * C).sum()),
    "sub": (A, lambda x: ((x - A2) * C).sum()),
    "rsub": (A, lambda x: ((1.5 - x) * C).sum()),
    "mul": (A, lambda x: ((x * POS) * C).sum()),
    "div": (A, lambda x: ((x / POS) * C).sum()),
    "rdiv": (POS, lambda x: ((2.0 / x) * C).sum()),
    "neg": (A, lambda x: ((-x) * C).sum()),
    "pow": (POS, lambda x: ((x ** 3.0) * C).sum()),
    "matmul": (A, lambda x: ((x @ B) * D).sum()),
    "exp": (A, lambda x: (x.exp() * C).sum()),
    "log": (POS, lambda x: (x.log() * C).sum()),
    "sqrt": (POS, lambda x: (x.sqrt() * C).sum()),
    "tanh": (A, lambda x: (x.tanh() * C).sum()),
    "sigmoid": (A, lambda x: (x.sigmoid() * C).sum()),
    "relu": (KINK, lambda x: (x.relu() * C).sum()),
    "abs": (KINK, lambda x: (x.abs() * C).sum()),
    "sin": (A, lambda x: (x.sin() * C).sum()),
    "cos": (A, lambda x: (x.cos() * C).sum()),
    "clip": (3.0 * A, lambda x: (x.clip(-1.0, 1.0) * C).sum()),
    "sum": (A, lambda x: (x.sum(axis=0) * CROW).sum()),
    "sum_all": (A, lambda x: x.sum()),
    "mean": (A, lambda x: (x.mean(axis=1) * CCOL).sum()),
    "max": (A, lambda x: (x.max(axis=1) * CCOL).sum()),
    "min": (A, lambda x: (x.min(axis=1) * CCOL).sum()),
    "reshape": (A, lambda x: (x.reshape(3, 4) * C34).sum()),
    "transpose": (A, lambda x: (x.transpose(1, 0) * C34).sum()),
    "getitem": (A, lambda x: (x[1:3] * C[1:3]).sum()),
    "squeeze": (_arr(9, 4, 1, 3),
                lambda x: (x.squeeze(1) * C).sum()),
    "expand_dims": (A, lambda x: (x.expand_dims(0) * C[None]).sum()),
    "concatenate": (A, lambda x: (concatenate([x, Tensor(A2)], axis=0)
                                  * np.vstack([C, C34.T])).sum()),
    "stack": (A, lambda x: (stack([x, Tensor(A2)], axis=0)
                            * np.stack([C, C34.T])).sum()),
    "where": (A, lambda x: (where(COND, x, Tensor(A2)) * C).sum()),
}


@pytest.mark.parametrize("name", sorted(TENSOR_CASES))
def test_tensor_op_vjp(name):
    x0, build = TENSOR_CASES[name]
    check_grad(build, x0)


# --------------------------------------------------------------- scatter ops
CSCAT = _arr(10, 3, 3)     # 3 segments, width 3
CEDGE = _arr(11, 6, 3)
CSOFT = _arr(12, 6)

SCATTER_CASES = {
    "gather": (A, lambda x: (gather(x, IDX6) * CEDGE).sum()),
    "scatter_add": (_arr(13, 6, 3),
                    lambda x: (scatter_add(x, SEG6, 3) * CSCAT).sum()),
    "scatter_mean": (_arr(14, 6, 3),
                     lambda x: (scatter_mean(x, SEG6, 3) * CSCAT).sum()),
    "scatter_softmax": (_arr(15, 6),
                        lambda x: (scatter_softmax(x, SEG6, 3)
                                   * CSOFT).sum()),
}


@pytest.mark.parametrize("name", sorted(SCATTER_CASES))
def test_scatter_op_vjp(name):
    x0, build = SCATTER_CASES[name]
    check_grad(build, x0)


# ----------------------------------------------------------------- fused ops
# network shapes: 4 nodes (width 3), 6 edges (width 2), hidden 5, out 2
W0 = 0.4 * _arr(20, 3, 5)
B0 = 0.1 * _arr(21, 5)
W1 = 0.4 * _arr(22, 5, 2)
B1 = 0.1 * _arr(23, 2)
GAMMA = 1.0 + 0.1 * _arr(24, 2)
BETA = 0.1 * _arr(25, 2)
WE0 = 0.4 * _arr(26, 2 + 3 + 3, 5)   # [edge, sender, receiver] first layer
WN0 = 0.4 * _arr(27, 3 + 3, 5)       # [node, aggregate] first layer
EDGE_F = _arr(28, 6, 2)
NODE_F = _arr(29, 4, 3)
AGG_F = _arr(30, 4, 3)
COUT = _arr(31, 4, 2)
COUT6 = _arr(32, 6, 2)
CH5 = _arr(33, 4, 5)
SEND = np.array([0, 1, 2, 3, 0, 2], dtype=np.intp)
RECV = np.array([1, 2, 3, 0, 2, 1], dtype=np.intp)
# residual variant: output width must match the node width (3)
WRES = 0.4 * _arr(34, 5, 3)
BRES = 0.1 * _arr(35, 3)
GAMMA_RES = 1.0 + 0.1 * _arr(36, 3)
BETA_RES = 0.1 * _arr(37, 3)
CRES = _arr(38, 4, 3)
RES_F = _arr(39, 4, 3)
# a second hidden layer (5 -> 5), so a tail holds two ReLUs
WH = 0.4 * _arr(40, 5, 5)
BH = 0.1 * _arr(41, 5)


def _frozen(arr):
    """A weight Tensor whose layer saves only its ReLU mask."""
    return Tensor(arr, requires_grad=False)

FUSED_CASES = {
    "linear_relu_x": (NODE_F,
                      lambda x: (linear_relu(x, Tensor(W0), Tensor(B0))
                                 * CH5).sum()),
    "linear_relu_w": (W0,
                      lambda w: (linear_relu(Tensor(NODE_F), w, Tensor(B0))
                                 * CH5).sum()),
    "linear_relu_b": (B0,
                      lambda b: (linear_relu(Tensor(NODE_F), Tensor(W0), b)
                                 * CH5).sum()),
    "mlp_forward_x": (NODE_F,
                      lambda x: (mlp_forward(x, [Tensor(W0), Tensor(W1)],
                                             [Tensor(B0), Tensor(B1)],
                                             Tensor(GAMMA), Tensor(BETA))
                                 * COUT).sum()),
    "mlp_forward_w": (W1,
                      lambda w: (mlp_forward(Tensor(NODE_F),
                                             [Tensor(W0), w],
                                             [Tensor(B0), Tensor(B1)],
                                             Tensor(GAMMA), Tensor(BETA))
                                 * COUT).sum()),
    "mlp_forward_gamma": (GAMMA,
                          lambda g: (mlp_forward(Tensor(NODE_F),
                                                 [Tensor(W0), Tensor(W1)],
                                                 [Tensor(B0), Tensor(B1)],
                                                 g, Tensor(BETA))
                                     * COUT).sum()),
    "fused_edge_mlp_e": (EDGE_F,
                         lambda e: (fused_edge_mlp(
                             e, Tensor(NODE_F), SEND, RECV,
                             [Tensor(WE0), Tensor(W1)],
                             [Tensor(B0), Tensor(B1)],
                             Tensor(GAMMA), Tensor(BETA)) * COUT6).sum()),
    "fused_edge_mlp_v": (NODE_F,
                         lambda v: (fused_edge_mlp(
                             Tensor(EDGE_F), v, SEND, RECV,
                             [Tensor(WE0), Tensor(W1)],
                             [Tensor(B0), Tensor(B1)],
                             Tensor(GAMMA), Tensor(BETA)) * COUT6).sum()),
    "fused_edge_mlp_w": (WE0,
                         lambda w: (fused_edge_mlp(
                             Tensor(EDGE_F), Tensor(NODE_F), SEND, RECV,
                             [w, Tensor(W1)],
                             [Tensor(B0), Tensor(B1)],
                             Tensor(GAMMA), Tensor(BETA)) * COUT6).sum()),
    "fused_node_mlp_v": (NODE_F,
                         lambda v: (fused_node_mlp(
                             v, Tensor(AGG_F),
                             [Tensor(WN0), Tensor(W1)],
                             [Tensor(B0), Tensor(B1)],
                             Tensor(GAMMA), Tensor(BETA)) * COUT).sum()),
    "fused_node_mlp_agg": (AGG_F,
                           lambda a: (fused_node_mlp(
                               Tensor(NODE_F), a,
                               [Tensor(WN0), Tensor(W1)],
                               [Tensor(B0), Tensor(B1)],
                               Tensor(GAMMA), Tensor(BETA)) * COUT).sum()),
    "fused_node_mlp_w": (WN0,
                         lambda w: (fused_node_mlp(
                             Tensor(NODE_F), Tensor(AGG_F),
                             [w, Tensor(W1)],
                             [Tensor(B0), Tensor(B1)],
                             Tensor(GAMMA), Tensor(BETA)) * COUT).sum()),
    # the folded interaction-network skip connection: v is both the MLP
    # input and the residual, so its grad accumulates both paths
    "fused_node_mlp_residual_v": (
        NODE_F,
        lambda v: (fused_node_mlp(
            v, Tensor(AGG_F), [Tensor(WN0), Tensor(WRES)],
            [Tensor(B0), Tensor(BRES)],
            Tensor(GAMMA_RES), Tensor(BETA_RES),
            residual=v) * CRES).sum()),
    "fused_node_mlp_residual_r": (
        RES_F,
        lambda r: (fused_node_mlp(
            Tensor(NODE_F), Tensor(AGG_F), [Tensor(WN0), Tensor(WRES)],
            [Tensor(B0), Tensor(BRES)],
            Tensor(GAMMA_RES), Tensor(BETA_RES),
            residual=r) * CRES).sum()),
    # mask path: a layer whose weight does not require grad at forward
    # time saves a bool ReLU mask, not its float activation; the
    # ``_mixed`` cases keep the activation for one layer (the weight
    # under test) and a mask for the other
    "mlp_forward_x_mask": (NODE_F,
                           lambda x: (mlp_forward(
                               x, [_frozen(W0), _frozen(WH), _frozen(W1)],
                               [Tensor(B0), Tensor(BH), Tensor(B1)],
                               Tensor(GAMMA), Tensor(BETA)) * COUT).sum()),
    "mlp_forward_w_mixed": (WH,
                            lambda w: (mlp_forward(
                                Tensor(NODE_F),
                                [_frozen(W0), w, _frozen(W1)],
                                [Tensor(B0), Tensor(BH), Tensor(B1)],
                                Tensor(GAMMA), Tensor(BETA)) * COUT).sum()),
    "fused_edge_mlp_v_mask": (NODE_F,
                              lambda v: (fused_edge_mlp(
                                  Tensor(EDGE_F), v, SEND, RECV,
                                  [_frozen(WE0), _frozen(WH), _frozen(W1)],
                                  [Tensor(B0), Tensor(BH), Tensor(B1)],
                                  Tensor(GAMMA), Tensor(BETA))
                                  * COUT6).sum()),
    "fused_edge_mlp_w_mixed": (W1,
                               lambda w: (fused_edge_mlp(
                                   Tensor(EDGE_F), Tensor(NODE_F), SEND,
                                   RECV, [_frozen(WE0), _frozen(WH), w],
                                   [Tensor(B0), Tensor(BH), Tensor(B1)],
                                   Tensor(GAMMA), Tensor(BETA))
                                   * COUT6).sum()),
    "fused_node_mlp_agg_mask": (AGG_F,
                                lambda a: (fused_node_mlp(
                                    Tensor(NODE_F), a,
                                    [_frozen(WN0), _frozen(WH), _frozen(W1)],
                                    [Tensor(B0), Tensor(BH), Tensor(B1)],
                                    Tensor(GAMMA), Tensor(BETA))
                                    * COUT).sum()),
    "fused_node_mlp_w_mixed": (WH,
                               lambda w: (fused_node_mlp(
                                   Tensor(NODE_F), Tensor(AGG_F),
                                   [_frozen(WN0), w, _frozen(W1)],
                                   [Tensor(B0), Tensor(BH), Tensor(B1)],
                                   Tensor(GAMMA), Tensor(BETA))
                                   * COUT).sum()),
}


@pytest.mark.parametrize("name", sorted(FUSED_CASES))
def test_fused_kernel_vjp(name):
    x0, build = FUSED_CASES[name]
    # LayerNorm + ReLU compositions lose a couple of digits to
    # cancellation in the central difference; tolerances match
    # test_fused.py's existing checks
    check_grad(build, x0, rtol=1e-4, atol=1e-6)
