"""Inference engine: bitwise parity with the naive path, batching, timing."""

import numpy as np
import pytest

from repro.gns import (
    FeatureConfig, GNSNetworkConfig, InferenceEngine, LearnedSimulator, Stats,
)


def make_sim(use_material=True, types=False, attention=False, history=3,
             seed=1):
    bounds = np.array([[0.0, 1.0], [0.0, 1.0]])
    cfg = FeatureConfig(
        connectivity_radius=0.15, history=history, bounds=bounds,
        use_material=use_material,
        num_particle_types=2 if types else 1,
        static_types=(1,) if types else ())
    net = GNSNetworkConfig(latent_size=12, mlp_hidden_size=12,
                           message_passing_steps=2, attention=attention)
    # small acceleration scale keeps the untrained dynamics slow enough
    # that the Verlet cache actually gets hits
    stats = Stats(np.zeros(2), np.full(2, 0.01), np.zeros(2),
                  np.full(2, 2e-4))
    return LearnedSimulator(cfg, net, stats, rng=np.random.default_rng(seed))


def make_seed(sim, n=50, seed=0):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(0.25, 0.75, size=(n, 2))
    frames = [x0]
    for _ in range(sim.feature_config.history):
        frames.append(frames[-1] + rng.normal(0, 5e-4, size=(n, 2)))
    return np.stack(frames, axis=0)


class TestBitwiseParity:
    @pytest.mark.parametrize("types", [False, True])
    def test_fast_matches_naive(self, types):
        sim = make_sim(types=types)
        seed = make_seed(sim)
        n = seed.shape[1]
        ptypes = (np.arange(n) % 7 == 0).astype(np.int64) if types else None
        naive = sim.rollout(seed, 15, material=30.0, particle_types=ptypes,
                            fast=False)
        fast = sim.rollout(seed, 15, material=30.0, particle_types=ptypes,
                           fast=True)
        np.testing.assert_array_equal(naive, fast)

    def test_cached_matches_uncached(self):
        sim = make_sim()
        seed = make_seed(sim)
        cached = sim.rollout(seed, 20, material=30.0, skin=0.04)
        stats = sim.engine(0.04).cache_stats()
        assert stats["builds"] < stats["queries"]  # caching engaged
        uncached = sim.rollout(seed, 20, material=30.0, skin=0.0)
        np.testing.assert_array_equal(cached, uncached)

    def test_attention_network_matches(self):
        sim = make_sim(attention=True)
        seed = make_seed(sim, n=30)
        naive = sim.rollout(seed, 5, material=30.0, fast=False)
        fast = sim.rollout(seed, 5, material=30.0, fast=True)
        np.testing.assert_array_equal(naive, fast)

    def test_engine_reuse_stays_exact(self):
        # a second rollout through the same engine (warm buffers, stale
        # cache from the previous trajectory) must still be exact
        sim = make_sim()
        seed_a = make_seed(sim, seed=0)
        seed_b = make_seed(sim, seed=9)
        sim.rollout(seed_a, 10, material=30.0)
        fast = sim.rollout(seed_b, 10, material=25.0)
        naive = sim.rollout(seed_b, 10, material=25.0, fast=False)
        np.testing.assert_array_equal(naive, fast)


class TestBatchRollout:
    def test_matches_individual_rollouts(self):
        sim = make_sim()
        seeds = np.stack([make_seed(sim, seed=s) for s in range(3)], axis=0)
        mats = [25.0, 30.0, 35.0]
        batch = sim.rollout_batch(seeds, 12, materials=mats)
        for i in range(3):
            single = sim.rollout(seeds[i], 12, material=mats[i])
            np.testing.assert_allclose(batch[i], single, rtol=0, atol=1e-12)

    def test_scalar_material_and_types(self):
        sim = make_sim(types=True)
        n = 40
        seeds = np.stack([make_seed(sim, n=n, seed=s) for s in range(2)],
                         axis=0)
        ptypes = (np.arange(n) % 5 == 0).astype(np.int64)
        batch = sim.rollout_batch(seeds, 8, materials=30.0,
                                  particle_types=ptypes)
        assert batch.shape == (2, seeds.shape[1] + 8, n, 2)
        # static particles stay frozen in every trajectory
        frozen = ptypes.astype(bool)
        for b in range(2):
            np.testing.assert_array_equal(
                batch[b, -1, frozen], batch[b, seeds.shape[1] - 1, frozen])

    def test_bad_shapes_raise(self):
        sim = make_sim()
        with pytest.raises(ValueError):
            sim.rollout_batch(make_seed(sim), 3)  # missing batch dim
        seeds = np.stack([make_seed(sim, seed=0)], axis=0)
        with pytest.raises(ValueError):
            sim.rollout_batch(seeds, 3, materials=[1.0, 2.0])

    def test_batch_of_one_does_not_mutate_input(self):
        """Regression: for B=1 the stacking transpose+reshape was a view
        of the caller's array (size-1 axes keep it C-contiguous), so the
        rollout's window shifting mutated the input seed frames."""
        sim = make_sim()
        seeds = np.stack([make_seed(sim, seed=0)], axis=0)
        before = seeds.copy()
        sim.rollout_batch(seeds, 5, materials=30.0)
        np.testing.assert_array_equal(seeds, before)
        # and the batch still matches solo bitwise
        batch = sim.rollout_batch(seeds, 5, materials=30.0)
        single = sim.rollout(seeds[0], 5, material=30.0)
        np.testing.assert_array_equal(batch[0], single)


class TestBatchMixedFailure:
    """One diverging trajectory must not poison its siblings."""

    def _poisoned_seeds(self, sim):
        good = [make_seed(sim, seed=s) for s in range(2)]
        bad = make_seed(sim, seed=7)
        # a huge last-frame displacement makes the extrapolated velocity
        # blow any sane max_velocity on the first predicted step
        bad[-1] += 0.5
        return good, bad

    def test_batch_with_diverging_member_raises(self):
        sim = make_sim()
        good, bad = self._poisoned_seeds(sim)
        from repro.obs.health import RolloutDivergedError

        seeds = np.stack([good[0], bad, good[1]], axis=0)
        with pytest.raises(RolloutDivergedError):
            sim.rollout_batch(seeds, 8, materials=30.0, max_velocity=0.1)

    def test_siblings_unpoisoned_after_failed_batch(self):
        """After a batch aborts on one bad trajectory, re-running the
        siblings solo on the SAME engine must be bitwise-identical to a
        fresh engine's solo rollouts — i.e. the aborted batch left no
        state behind in the reused buffers/caches."""
        sim = make_sim()
        good, bad = self._poisoned_seeds(sim)
        from repro.obs.health import RolloutDivergedError

        engine = sim.engine()
        reference = [InferenceEngine(sim).rollout(s, 8, material=30.0)
                     for s in good]
        seeds = np.stack([good[0], bad, good[1]], axis=0)
        with pytest.raises(RolloutDivergedError):
            engine.rollout_batch(seeds, 8, materials=30.0, max_velocity=0.1)
        recovered = [engine.rollout(s, 8, material=30.0) for s in good]
        for got, want in zip(recovered, reference):
            np.testing.assert_array_equal(got, want)


class TestEngineInstrumentation:
    def test_timings_populated(self):
        sim = make_sim()
        engine = InferenceEngine(sim)
        engine.rollout(make_seed(sim), 6, material=30.0)
        timings = engine.timings()
        for stage in ("graph", "features", "encode", "process", "decode",
                      "integrate"):
            assert timings[stage]["count"] >= 6, stage
            assert timings[stage]["total"] > 0.0, stage
        engine.reset_timers()
        assert engine.timings()["process"]["count"] == 0

    def test_cache_stats_track_hits(self):
        sim = make_sim()
        engine = InferenceEngine(sim, skin=0.05)
        engine.rollout(make_seed(sim), 20, material=30.0)
        stats = engine.cache_stats()
        assert stats["queries"] == 20
        assert stats["builds"] < stats["queries"]
        assert 0.0 < stats["hit_rate"] <= 1.0

    def test_fp32_inference_dtype(self):
        sim = make_sim()
        sim.inference_dtype = np.float32
        seed = make_seed(sim)
        fast = sim.rollout(seed, 5, material=30.0)
        naive = sim.rollout(seed, 5, material=30.0, fast=False)
        assert fast.dtype == np.float64  # positions stay f64
        np.testing.assert_allclose(fast, naive, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32],
                             ids=["f64", "fp32"])
    def test_workspace_keeps_two_edge_scratch_buffers(self, dtype):
        """Every MLP writes layer k into its row kind's ``k % 2``
        buffer, so a deep network still holds only the edge latent and
        two scratch edge buffers (none at all when the fused float32
        kernel runs the MLPs)."""
        from repro.accel import available

        bounds = np.array([[0.0, 1.0], [0.0, 1.0]])
        cfg = FeatureConfig(connectivity_radius=0.15, history=3,
                            bounds=bounds)
        net = GNSNetworkConfig(latent_size=16, mlp_hidden_size=16,
                               mlp_hidden_layers=3, message_passing_steps=2)
        stats = Stats(np.zeros(2), np.full(2, 0.01), np.zeros(2),
                      np.full(2, 2e-4))
        sim = LearnedSimulator(cfg, net, stats,
                               rng=np.random.default_rng(1))
        seed = make_seed(sim, n=60)
        engine = sim.engine(dtype=dtype)
        engine.rollout(seed, 3)
        edges = engine.cache.query(seed[-1])[0].shape[0]
        assert edges > 2 * 60
        edge_sized = {tag for (tag, _, _), buf in engine.work._bufs.items()
                      if buf.shape[0] >= edges}
        want = {"feat.edge", "edge.latent"}
        if dtype is np.float64 or not available():
            want |= {"edge.0", "edge.1"}
        assert edge_sized == want

    def test_wrong_seed_length_raises(self):
        sim = make_sim()
        with pytest.raises(ValueError):
            sim.engine().rollout(make_seed(sim)[:-1], 3)


def test_simulator_engine_is_cached_per_skin():
    sim = make_sim()
    e1 = sim.engine()
    assert sim.engine() is e1
    e2 = sim.engine(0.02)
    assert e2 is not e1
    assert sim.engine(0.02) is e2
