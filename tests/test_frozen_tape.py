"""The frozen-network tape: ``Module.frozen``, the fused ops' forward-time
``requires_grad`` snapshot, and the inverse problem's dφ.

The inverse problem differentiates a rollout of a trained, fixed GNS with
respect to the material scalar only. Freezing the Parameters for the
forward must leave dφ (and seed-frame gradients) bitwise-equal to the
full training-time tape, compute no weight gradient, and leave the shared
simulator exactly as it was — also when the forward raises, and when
several threads run inverse jobs on one simulator.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.autodiff.fused import fused_edge_mlp, fused_node_mlp
from repro.gns import (
    FeatureConfig, GNSNetworkConfig, LearnedSimulator,
    checkpointed_rollout_gradient,
)
from repro.graph import radius_graph
from repro.inverse import RunoutInverseProblem, soft_runout
from repro.nn import MLP, Module

BOUNDS = np.array([[0.0, 1.0], [0.0, 1.0]])


def _flags(module: Module) -> list[bool]:
    return [p.requires_grad for p in module.parameters()]


def _untouched(module: Module) -> bool:
    return all(p.requires_grad and p.grad is None
               for p in module.parameters())


# ---------------------------------------------------------------- frozen()
class TestModuleFrozen:
    def test_freezes_and_restores(self):
        mlp = MLP([3, 4, 2], np.random.default_rng(0), layer_norm=True)
        with mlp.frozen() as m:
            assert m is mlp
            assert not any(_flags(mlp))
        assert all(_flags(mlp))

    def test_reentrant(self):
        mlp = MLP([3, 4, 2], np.random.default_rng(0))
        with mlp.frozen():
            with mlp.frozen():
                assert not any(_flags(mlp))
            assert not any(_flags(mlp))
        assert all(_flags(mlp))

    def test_restores_on_exception(self):
        mlp = MLP([3, 4, 2], np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            with mlp.frozen():
                raise RuntimeError("boom")
        assert all(_flags(mlp))

    def test_keeps_flags_that_were_already_off(self):
        mlp = MLP([3, 4, 2], np.random.default_rng(0))
        first = mlp.linears[0].weight
        first.requires_grad = False
        with mlp.frozen():
            pass
        assert not first.requires_grad
        assert all(p.requires_grad for p in mlp.parameters()
                   if p is not first)

    def test_overlapping_blocks_across_threads(self):
        """A block on the root and a block on a submodule, opened and
        closed from two threads in crossing order: the shared Parameters
        stay frozen until the last block holding them exits."""
        sim = _sim({}, 0)
        sub = sim.network.blocks[0]
        order = {k: threading.Event() for k in
                 ("root_in", "sub_in", "root_out")}
        seen = {}

        def root():
            with sim.frozen():
                order["root_in"].set()
                order["sub_in"].wait()
            order["root_out"].set()

        def block():
            order["root_in"].wait()
            with sub.frozen():
                order["sub_in"].set()
                order["root_out"].wait()
                seen["sub"] = _flags(sub)
                seen["rest"] = _flags(sim.network.decoder)

        threads = [threading.Thread(target=root),
                   threading.Thread(target=block)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not any(seen["sub"])
        assert all(seen["rest"])
        assert all(_flags(sim))


# ------------------------------------------------- fused-op tape contract
SEND = np.array([0, 1, 2, 3, 0, 2, 3], dtype=np.intp)
RECV = np.array([1, 2, 3, 0, 2, 1, 1], dtype=np.intp)


def _arr(seed, *shape):
    return np.random.default_rng(seed).normal(size=shape)


def _mlp_case(mlp, inputs):
    (x,) = inputs
    return mlp(x)


def _edge_case(mlp, inputs):
    e, v = inputs
    return fused_edge_mlp(e, v, SEND, RECV, *mlp.fused_params())


def _node_case(mlp, inputs):
    v, agg = inputs
    return fused_node_mlp(v, agg, *mlp.fused_params(), residual=v)


# name -> (MLP sizes, input shapes, op)
FUSED_OPS = {
    "mlp_forward": ([3, 5, 5, 2], [(4, 3)], _mlp_case),
    "fused_edge_mlp": ([2 + 3 + 3, 5, 5, 3], [(7, 2), (4, 3)], _edge_case),
    "fused_node_mlp": ([3 + 3, 5, 5, 3], [(4, 3), (4, 3)], _node_case),
}


def _saved(out: Tensor) -> dict:
    """The ``saved`` dict captured by a fused op's VJP closure."""
    for cell in out._backward_fn.__closure__:
        value = cell.cell_contents
        if isinstance(value, dict) and "acts" in value:
            return value
    raise AssertionError("no saved dict in the VJP closure")


def _run(name, mlp, freeze: Module | None):
    """Forward with ``freeze`` (a module, or None) frozen, then the
    backward after the block has restored the flags."""
    _, shapes, op = FUSED_OPS[name]
    inputs = [Tensor(_arr(10 + i, *s), requires_grad=True)
              for i, s in enumerate(shapes)]
    with freeze.frozen() if freeze is not None else contextlib.nullcontext():
        out = op(mlp, inputs)
    saved = _saved(out)
    # the backward runs after the block: the flags are live again
    assert all(_flags(mlp))
    (out * Tensor(_arr(5, *out.shape))).sum().backward()
    return [t.grad for t in inputs], saved


@pytest.mark.parametrize("name", sorted(FUSED_OPS))
class TestForwardTimeSnapshot:
    def test_frozen_forward_computes_no_weight_gradient(self, name):
        mlp = MLP(FUSED_OPS[name][0], np.random.default_rng(1),
                  layer_norm=True)
        ref, _ = _run(name, mlp, None)
        assert all(p.grad is not None for p in mlp.parameters())
        mlp.zero_grad()
        got, _ = _run(name, mlp, mlp)
        assert all(p.grad is None for p in mlp.parameters())
        for a, b in zip(got, ref):
            assert np.array_equal(a, b)

    def test_frozen_layers_save_masks(self, name):
        mlp = MLP(FUSED_OPS[name][0], np.random.default_rng(1),
                  layer_norm=True)
        _, trained = _run(name, mlp, None)
        _, frozen = _run(name, mlp, mlp)
        assert [a.dtype for a in trained["acts"]] == [np.float64] * 2
        assert [a.dtype for a in frozen["acts"]] == [np.bool_] * 2
        for mask, act in zip(frozen["acts"], trained["acts"]):
            assert np.array_equal(mask, act > 0)

    def test_only_frozen_layers_save_masks(self, name):
        mlp = MLP(FUSED_OPS[name][0], np.random.default_rng(1),
                  layer_norm=True)
        last = mlp.linears[-1]
        _, saved = _run(name, mlp, last)
        assert [a.dtype for a in saved["acts"]] == [np.float64, np.bool_]
        assert last.weight.grad is None and last.bias.grad is None
        assert mlp.linears[1].weight.grad is not None


# ------------------------------------------- dφ against the full tape
# degenerate configurations from the ROADMAP plus the common ones
CONFIGS = {
    "bounds": {},
    "no_bounds": {"bounds": False},
    "attention": {"attention": True},
    "static_types": {"types": True},
    "zero_edges": {"radius": 0.01, "n": 4},
    "one_particle": {"n": 1},
}


def _sim(cfg: dict, seed: int) -> LearnedSimulator:
    types = cfg.get("types", False)
    fc = FeatureConfig(
        connectivity_radius=cfg.get("radius", 0.35), history=2,
        bounds=BOUNDS if cfg.get("bounds", True) else None,
        use_material=True, dim=2,
        num_particle_types=2 if types else 1,
        static_types=(1,) if types else ())
    nc = GNSNetworkConfig(latent_size=8, mlp_hidden_size=8,
                          mlp_hidden_layers=2, message_passing_steps=2,
                          attention=cfg.get("attention", False))
    return LearnedSimulator(fc, nc, rng=np.random.default_rng(seed))


def _history(cfg: dict, seed: int) -> np.ndarray:
    rng = np.random.default_rng(100 + seed)
    n = cfg.get("n", 10)
    if "radius" in cfg:
        # a coarse lattice: no pair within the tiny radius
        side = int(np.ceil(np.sqrt(n)))
        grid = np.stack(np.meshgrid(np.arange(side), np.arange(side)),
                        axis=-1).reshape(-1, 2)[:n]
        base = 0.2 + 0.3 * grid.astype(np.float64)
    else:
        base = rng.uniform(0.25, 0.75, size=(n, 2))
    step = rng.normal(0.0, 0.003, size=(n, 2))
    return np.stack([base, base + step, base + 2.0 * step])


def _types(cfg: dict, seed: int) -> np.ndarray | None:
    if not cfg.get("types"):
        return None
    n = cfg.get("n", 10)
    types = (np.arange(n) % 3 == 0).astype(np.int64)
    return np.roll(types, seed)


def _gradients(sim, history, phi, types, seed_grad, freeze):
    """(dφ, seed-frame grads) of a soft-runout loss on a 3-step
    ``rollout_differentiable``; the Parameters frozen for the forward or
    left trainable (the full training-time tape)."""
    leaf = Tensor(np.array(phi), requires_grad=True)
    seeds = [Tensor(f.copy(), requires_grad=seed_grad) for f in history]
    if freeze:
        with sim.frozen():
            frames = sim.rollout_differentiable(seeds, 3, material=leaf,
                                                particle_types=types)
    else:
        frames = sim.rollout_differentiable(seeds, 3, material=leaf,
                                            particle_types=types)
    diff = soft_runout(frames[-1], 0.5, 0.05) - 0.1
    (diff * diff).backward()
    return leaf.grad, [s.grad for s in seeds]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_dphi_bitwise_equals_full_tape(name, seed):
    cfg = CONFIGS[name]
    sim = _sim(cfg, seed)
    history = _history(cfg, seed)
    if name in ("zero_edges", "one_particle"):
        senders, _ = radius_graph(history[-1], sim.feature_config
                                  .connectivity_radius)
        assert senders.size == 0
    types = _types(cfg, seed)
    phi = float(np.random.default_rng(seed).uniform(20.0, 45.0))
    seed_grad = seed % 2 == 1

    ref_phi, ref_seeds = _gradients(sim, history, phi, types, seed_grad,
                                    freeze=False)
    assert any(p.grad is not None for p in sim.parameters())
    sim.zero_grad()
    got_phi, got_seeds = _gradients(sim, history, phi, types, seed_grad,
                                    freeze=True)
    assert np.array_equal(got_phi, ref_phi)
    for a, b in zip(got_seeds, ref_seeds):
        assert (a is None and b is None) or np.array_equal(a, b)
    assert _untouched(sim)

    if types is None:
        # the inverse problem's own loss: frozen inside, same dφ
        problem = RunoutInverseProblem(sim, history, target_runout=0.1,
                                       toe_x=0.5, rollout_steps=3,
                                       temperature=0.05)
        leaf = Tensor(np.array(phi), requires_grad=True)
        problem.loss(leaf).backward()
        assert np.array_equal(leaf.grad, ref_phi)
        assert _untouched(sim)


# ---------------------------------------- the inverse leaves no trace
def _problem(seed=0):
    sim = _sim({}, seed)
    return RunoutInverseProblem(sim, _history({}, seed), target_runout=0.1,
                                toe_x=0.5, rollout_steps=3, temperature=0.05)


def _runout_loss(problem):
    def loss_fn(final):
        diff = soft_runout(final, problem.toe_x, problem.temperature) \
            - problem.target_runout
        return diff * diff
    return loss_fn


class TestInverseLeavesSimulatorUntouched:
    def test_loss_backward(self):
        problem = _problem()
        leaf = Tensor(np.array(30.0), requires_grad=True)
        problem.loss(leaf).backward()
        assert leaf.grad is not None
        assert _untouched(problem.simulator)

    def test_solve(self):
        problem = _problem()
        problem.solve(30.0, max_iterations=2)
        assert _untouched(problem.simulator)

    def test_checkpointed_gradient(self):
        problem = _problem()
        _, grad, _ = checkpointed_rollout_gradient(
            problem.simulator, problem.initial_history, 3, 30.0,
            _runout_loss(problem), segment_length=2)
        assert np.isfinite(grad)
        assert _untouched(problem.simulator)

    def test_checkpointed_matches_loss(self):
        problem = _problem()
        leaf = Tensor(np.array(30.0), requires_grad=True)
        problem.loss(leaf).backward()
        _, grad, _ = checkpointed_rollout_gradient(
            problem.simulator, problem.initial_history, 3, 30.0,
            _runout_loss(problem), segment_length=2)
        assert grad == pytest.approx(float(leaf.grad), rel=1e-9)

    def test_forward_raising_mid_rollout(self, monkeypatch):
        problem = _problem()
        sim = problem.simulator
        real_step = sim.step
        calls = []

        def failing_step(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                assert not any(_flags(sim))
                raise FloatingPointError("diverged mid-rollout")
            return real_step(*args, **kwargs)

        monkeypatch.setattr(sim, "step", failing_step)
        with pytest.raises(FloatingPointError):
            problem.loss(Tensor(np.array(30.0), requires_grad=True))
        assert _untouched(sim)
        calls.clear()
        with pytest.raises(FloatingPointError):
            checkpointed_rollout_gradient(sim, problem.initial_history, 3,
                                          30.0, _runout_loss(problem))
        assert _untouched(sim)

    def test_two_threads_match_serial(self):
        problem = _problem()
        phis = (27.0, 38.0)

        def dphi(phi):
            leaf = Tensor(np.array(phi), requires_grad=True)
            problem.loss(leaf).backward()
            return leaf.grad

        serial = [dphi(phi) for phi in phis]
        start = threading.Barrier(len(phis))
        results = {}

        def worker(i):
            start.wait()
            results[i] = dphi(phis[i])

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(phis))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i, ref in enumerate(serial):
            assert np.array_equal(results[i], ref)
        assert _untouched(problem.simulator)
