"""The benchmark's workloads: seeded inputs, one op each, and its checks.

Every input is drawn from the ``--seed`` argument: particle jitter,
initial velocities, synthetic network weights, the MPM friction angle and
jitter, and the per-op friction angle. The program under test receives only the
generated arrays. The same seed gives the same inputs.

Each workload answers one question about the paper's two jobs:

* ``rollout_fp32`` — the forward surrogate on the path users run.
* ``inverse`` — the differentiable path (tape build plus backward).

``WHY`` below records the reason for each in one line; the same lines
appear in ``BENCHMARK.json``. The MPM column, the numerical baseline
behind the E2 speedup claim, runs inside the traced ``rollout_fp32`` run
and has no end-to-end workload of its own (see ``MPMColumn``).
"""
# The program's own modules are imported inside the classes so that
# importing this file stays cheap and side-effect free.

from __future__ import annotations

import math

import numpy as np

#: max |x_fp32 - x_f64| over one checked rollout (bench_fastpath's gate)
FP32_DRIFT_TOL = 5e-3
#: checkpointed vs full-tape material gradient (tests/test_gns_checkpointing)
GRAD_RTOL = 1e-9
#: physical seconds one learned GNS frame stands for (bench_speedup)
FRAME_DT = 2.5e-3

WHY = {
    "rollout_fp32": "paper's forward surrogate as users run it: fp32 engine "
                    "rollout, 1024 particles, C kernels, L2-sized edge "
                    "arrays, neighbour cache mostly hits",
    "inverse": "differentiable path: k=30 tape rollout plus backward; "
               "bypasses engine, neighbour cache and C kernels",
}


def granular_bed(rng: np.random.Generator, n_side: int, history: int):
    """Settled granular bed on the unit square: jittered lattice plus a
    slow coherent velocity (the ``bench_fastpath`` set-up, seeded).

    Returns ``(seed_frames (history+1, n, 2), radius, velocity_scale)``.
    """
    spacing = 1.0 / (n_side + 1)
    xs = (np.arange(n_side, dtype=np.float64) + 1) * spacing
    lattice = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
    x0 = lattice + rng.uniform(-0.15, 0.15, lattice.shape) * spacing
    velocity_scale = 0.03 * spacing
    velocity = rng.normal(0.0, velocity_scale, size=x0.shape)
    frames = [x0]
    for _ in range(history):
        frames.append(frames[-1] + velocity)
    return np.stack(frames, axis=0), 2.33 * spacing, velocity_scale


def synthetic_simulator(weights_seed, radius: float, velocity_scale: float,
                        history: int, latent: int, mp_steps: int):
    """Untrained material-conditioned GNS with seeded weights. The tiny
    acceleration scale keeps untrained outputs from blowing up."""
    from repro.gns import (FeatureConfig, GNSNetworkConfig, LearnedSimulator,
                           Stats)

    cfg = FeatureConfig(connectivity_radius=radius, history=history,
                        bounds=np.array([[0.0, 1.0], [0.0, 1.0]]),
                        use_material=True)
    net = GNSNetworkConfig(latent_size=latent, mlp_hidden_size=latent,
                           mlp_hidden_layers=2,
                           message_passing_steps=mp_steps)
    stats = Stats(np.zeros(2), np.full(2, velocity_scale), np.zeros(2),
                  np.full(2, 0.02 * velocity_scale))
    return LearnedSimulator(cfg, net, stats,
                            rng=np.random.default_rng(weights_seed))


class Workload:
    """One workload: ``setup`` builds the inputs and the program's
    objects, ``op`` is the unit of timed work (the worker runs one
    untimed op first, as warm-up), ``check`` runs on every op and
    ``verify`` re-runs a sampled op outside the timed interval.

    ``check``/``verify`` return ``None`` when the output is right and a
    message otherwise.
    """

    name = ""
    #: numbers the checks measured, printed with the results
    notes: dict
    #: frames one op completes (differentiable frames for the inverse
    #: problem, frame equivalents for MPM)
    frames_per_op = 1
    #: the GNS simulator, if the workload runs one (for the FLOP model)
    simulator = None
    seed = 0
    #: nodes per network forward and forward dtype (for the FLOP model)
    nodes_per_forward = 0
    network_dtype = np.float64

    def __init__(self):
        self.notes = {}

    def setup(self, seed: int, tiny: bool) -> None:
        raise NotImplementedError

    def op_rng(self, i: int) -> np.random.Generator:
        """The stream op ``i`` draws its own inputs from."""
        return np.random.default_rng([self.seed, 2, i])

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> str | None:
        return None

    def verify(self, i: int, out) -> str | None:
        return None

    def engine(self):
        """The inference engine the op runs on, or ``None``."""
        return None

    def tape_forward(self, i: int):
        """The op's differentiable forward alone, returning the output
        that holds the tape, or ``None`` when the op builds no tape."""
        return None


def _finite(name: str, a) -> str | None:
    return None if np.isfinite(a).all() else f"non-finite {name}"


class RolloutFP32(Workload):
    """``LearnedSimulator.rollout``: 20 frames from the seed state, fp32,
    on a warm engine. The per-op material is drawn from the seed."""

    name = "rollout_fp32"
    network_dtype = np.float32

    def material(self, i):
        return float(self.op_rng(i).uniform(20.0, 45.0))

    def setup(self, seed, tiny):
        n_side, latent, mp, self.frames_per_op = \
            (6, 8, 2, 3) if tiny else (32, 32, 5, 20)
        rng = np.random.default_rng(seed)
        self.seed_frames, radius, vscale = granular_bed(rng, n_side, 5)
        self.simulator = synthetic_simulator([seed, 1], radius, vscale, 5,
                                             latent, mp)
        self.nodes_per_forward = self.seed_frames.shape[1]
        self.seed = seed

    def op(self, i):
        return self.simulator.rollout(self.seed_frames, self.frames_per_op,
                                      material=self.material(i),
                                      dtype=np.float32)

    def check(self, i, out):
        return _finite("positions", out)

    def verify(self, i, out):
        ref = self.simulator.rollout(self.seed_frames, self.frames_per_op,
                                     material=self.material(i),
                                     dtype=np.float64)
        drift = float(np.abs(out - ref).max())
        self.notes["fp32_drift"] = max(self.notes.get("fp32_drift", 0.0),
                                       drift)
        if not drift < FP32_DRIFT_TOL:
            return f"fp32 drift {drift:.3e} >= {FP32_DRIFT_TOL:g}"
        return None

    def engine(self):
        return self.simulator.engine(dtype=np.float32)


class Inverse(Workload):
    """One gradient iteration of the paper's inverse problem:
    ``RunoutInverseProblem.loss(phi)`` plus ``backward()``, k=30, 256
    particles, float64 tape. The per-op phi is drawn from the seed."""

    name = "inverse"
    temperature = 0.02

    def phi(self, i):
        return float(self.op_rng(i).uniform(20.0, 45.0))

    def setup(self, seed, tiny):
        from repro.inverse import RunoutInverseProblem

        n_side, latent, mp, self.frames_per_op = \
            (5, 8, 2, 3) if tiny else (16, 32, 5, 30)
        rng = np.random.default_rng(seed)
        self.seed_frames, radius, vscale = granular_bed(rng, n_side, 5)
        self.simulator = synthetic_simulator([seed, 1], radius, vscale, 5,
                                             latent, mp)
        self.nodes_per_forward = self.seed_frames.shape[1]
        self.toe_x = float(self.seed_frames[-1, :, 0].max())
        self.problem = RunoutInverseProblem(
            self.simulator, self.seed_frames, target_runout=0.0,
            toe_x=self.toe_x, rollout_steps=self.frames_per_op,
            temperature=self.temperature)
        self.problem.target_runout = self.problem.target_from_angle(
            float(rng.uniform(25.0, 40.0)))
        self.seed = seed

    def op(self, i):
        from repro.autodiff import Tensor

        leaf = Tensor(np.array(self.phi(i)), requires_grad=True)
        loss = self.problem.loss(leaf)
        loss.backward()
        return float(loss.data), float(leaf.grad)

    def tape_forward(self, i):
        from repro.autodiff import Tensor

        return self.problem.loss(Tensor(np.array(self.phi(i)),
                                        requires_grad=True))

    def check(self, i, out):
        return _finite("loss/gradient", out)

    def verify(self, i, out):
        from repro.gns.checkpointing import checkpointed_rollout_gradient
        from repro.inverse.runout import soft_runout

        target = self.problem.target_runout

        def loss_fn(final):
            diff = soft_runout(final, self.toe_x, self.temperature) - target
            return diff * diff

        _, grad, _ = checkpointed_rollout_gradient(
            self.simulator, self.seed_frames, self.frames_per_op,
            self.phi(i), loss_fn)
        rel = abs(out[1] - grad) / abs(grad) if grad else abs(out[1])
        self.notes["max_grad_rel_diff"] = \
            max(self.notes.get("max_grad_rel_diff", 0.0), rel)
        if not math.isclose(out[1], grad, rel_tol=GRAD_RTOL, abs_tol=0.0):
            return f"gradient {out[1]!r} vs checkpointed {grad!r}"
        return None


class MPMColumn(Workload):
    """One learned-frame equivalent of explicit MPM: ceil(FRAME_DT/dt)
    CFL substeps of ``MPMSolver.step`` on a 1024-particle granular
    column (E = 5e7, the ``bench_speedup`` set-up). Every op restarts
    from the same seeded state, so every op's output must be identical.

    It is the numerical baseline of the E2 speedup and the only user of
    ``repro.mpm``, but not an end-to-end workload: on a shared 2-vCPU
    cloud VM its small-array NumPy code slowed up to 2x while other
    tenants were busy, and over ten 30-second runs its frames/s spread
    0.19-0.24 of the median (quartile distance), too close to the 0.25
    bound a later change is held to. The traced
    ``rollout_fp32`` run times it beside the rollout for ``e2.speedup``
    and the ``mpm.*`` layer metrics."""

    name = "mpm_column"

    def setup(self, seed, tiny):
        from repro.mpm import granular_column_collapse

        rng = np.random.default_rng(seed)
        spec = granular_column_collapse(
            cells_per_unit=8 if tiny else 32, particles_per_cell=2,
            column_width=0.5, aspect_ratio=1.0, domain=(2.0, 1.0),
            youngs_modulus=5e7, friction_angle=float(rng.uniform(20.0, 45.0)))
        self.solver = spec.solver
        p = self.solver.particles
        spacing = self.solver.grid.spacing / 2
        p.positions += rng.uniform(-0.1, 0.1, p.positions.shape) * spacing
        self.start = self.solver.snapshot()
        self.dt = self.solver.stable_dt()
        self.substeps = math.ceil(FRAME_DT / self.dt)
        self.first = None

    def op(self, i):
        self.solver.restore(self.start)
        for _ in range(self.substeps):
            self.solver.step(self.dt)
        return self.solver.particles.positions.copy()

    def check(self, i, out):
        bad = _finite("positions", out)
        if bad:
            return bad
        size = np.asarray(self.solver.grid.size, dtype=np.float64)
        if (out < 0.0).any() or (out > size).any():
            return "particle outside the grid"
        if self.first is None:
            self.first = out
        elif not np.array_equal(out, self.first):
            return "same input gave a different output than op 0"
        return None


WORKLOADS = {cls.name: cls for cls in (RolloutFP32, Inverse)}
