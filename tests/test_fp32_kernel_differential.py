"""Differential test of the float32 engine: C kernels on vs off.

Random network configurations (latent width, MLP depth, attention) and
particle layouts, including the degenerate ones: one particle, no edges
at all, isolated particles beside a cluster, and batches of B identical
members. Every run is checked against the pure-NumPy float32 path
(``REPRO_NO_CKERNELS=1``) over a stated horizon, and the members of a
kernels-on batch must come out bitwise-identical: each row's arithmetic
in the fused kernels is independent of where the row sits.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import available
from repro.gns import FeatureConfig, GNSNetworkConfig, LearnedSimulator, Stats

pytestmark = pytest.mark.skipif(not available(),
                                reason="no C toolchain / cffi")

#: rollout horizon and the bound on max |kernels on - kernels off| over
#: it, in position units (a unit box, ~0.2 connectivity radius); the
#: largest difference seen over a 432-run grid of these configurations
#: was 7e-8
STEPS = 20
DRIFT_BOUND = 1e-5


def _simulator(latent, hidden_layers, attention, seed):
    spacing = 1.0 / 12
    cfg = FeatureConfig(connectivity_radius=2.33 * spacing, history=3,
                        bounds=np.array([[0.0, 1.0], [0.0, 1.0]]))
    net = GNSNetworkConfig(latent_size=latent, mlp_hidden_size=latent,
                           mlp_hidden_layers=hidden_layers,
                           message_passing_steps=2, attention=attention)
    vel = 0.002
    stats = Stats(np.zeros(2), np.full(2, vel), np.zeros(2),
                  np.full(2, 0.05 * vel))
    return LearnedSimulator(cfg, net, stats,
                            rng=np.random.default_rng(seed))


def _seed_frames(n_cluster, n_isolated, seed):
    """A random cluster plus particles on a grid wider than the
    connectivity radius (so they have no neighbours)."""
    rng = np.random.default_rng(seed)
    cluster = rng.uniform(0.3, 0.7, size=(n_cluster, 2))
    grid = np.array([(0.05 + 0.3 * i, 0.05 + 0.9 * j)
                     for i in range(4) for j in range(2)])[:n_isolated]
    x0 = np.concatenate([cluster, grid])
    frames = [x0]
    for _ in range(3):
        frames.append(frames[-1] + rng.normal(0, 5e-4, size=x0.shape))
    return np.stack(frames)


# (cluster size, isolated count): one particle, edges-free, mixed, dense
_LAYOUTS = st.one_of(
    st.just((1, 0)),
    st.tuples(st.just(0), st.integers(2, 8)),
    st.tuples(st.integers(2, 30), st.integers(1, 8)),
    st.tuples(st.integers(2, 60), st.just(0)),
)


@settings(max_examples=40, deadline=None)
@given(latent=st.sampled_from([8, 16, 32, 64]),
       hidden_layers=st.integers(1, 3),
       attention=st.booleans(),
       layout=_LAYOUTS,
       batch=st.integers(1, 3),
       seed=st.integers(0, 2**16))
def test_kernels_match_numpy_and_batch_members_agree(
        latent, hidden_layers, attention, layout, batch, seed):
    sim = _simulator(latent, hidden_layers, attention, seed)
    frames = np.stack([_seed_frames(*layout, seed + 1)] * batch)
    on = sim.rollout_batch(frames, STEPS, dtype=np.float32)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_NO_CKERNELS", "1")
        off = sim.rollout_batch(frames, STEPS, dtype=np.float32)
    assert np.isfinite(on).all()
    drift = np.abs(on - off).max()
    assert drift < DRIFT_BOUND, f"{STEPS}-step kernel drift {drift:.2e}"
    for member in on[1:]:
        np.testing.assert_array_equal(member, on[0])
