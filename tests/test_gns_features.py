"""Tests for GNS feature construction and normalization."""

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.gns import FeatureConfig, GNSFeaturizer, Stats


def _history(c=3, n=6, d=2, seed=0, scale=0.05):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.2, 0.8, size=(n, d))
    frames = [base]
    for _ in range(c):
        frames.append(frames[-1] + rng.normal(0, scale, size=(n, d)))
    return frames


def _cfg(**kw):
    defaults = dict(connectivity_radius=0.5, history=3,
                    bounds=np.array([[0.0, 1.0], [0.0, 1.0]]), dim=2)
    defaults.update(kw)
    return FeatureConfig(**defaults)


class TestFeatureSizes:
    def test_node_feature_size(self):
        cfg = _cfg()
        assert cfg.node_feature_size() == 3 * 2 + 4
        assert _cfg(use_material=True).node_feature_size() == 3 * 2 + 4 + 1
        assert _cfg(bounds=None).node_feature_size() == 6

    def test_edge_feature_size(self):
        assert _cfg().edge_feature_size() == 3


class TestBuildGraph:
    def test_shapes(self):
        cfg = _cfg()
        g = GNSFeaturizer(cfg).build_graph(_history())
        assert g.node_features.shape == (6, cfg.node_feature_size())
        assert g.edge_features.shape[1] == 3
        g.validate()

    def test_graph_carries_the_step_segment_plans(self):
        feat = GNSFeaturizer(_cfg())
        g = feat.build_graph([Tensor(f) for f in _history()])
        assert g.sender_plan is not None and g.receiver_plan is not None
        assert g.segments() == (g.sender_plan, g.receiver_plan)
        assert np.array_equal(g.sender_plan.index, g.senders)
        assert np.array_equal(g.receiver_plan.index, g.receivers)

    def test_wrong_history_length_raises(self):
        with pytest.raises(ValueError):
            GNSFeaturizer(_cfg()).build_graph(_history(c=2))

    def test_material_required_when_configured(self):
        f = GNSFeaturizer(_cfg(use_material=True))
        with pytest.raises(ValueError):
            f.build_graph(_history())

    def test_material_feature_value(self):
        f = GNSFeaturizer(_cfg(use_material=True, material_scale=45.0))
        g = f.build_graph(_history(), material=30.0)
        np.testing.assert_allclose(g.node_features.data[:, -1], 30.0 / 45.0)

    def test_velocity_features_are_differences(self):
        frames = _history()
        f = GNSFeaturizer(_cfg())
        g = f.build_graph(frames)
        v0 = frames[1] - frames[0]
        np.testing.assert_allclose(g.node_features.data[:, :2], v0)

    def test_velocity_normalization_applied(self):
        stats = Stats(velocity_mean=np.array([1.0, 2.0]),
                      velocity_std=np.array([2.0, 4.0]),
                      acceleration_mean=np.zeros(2),
                      acceleration_std=np.ones(2))
        frames = _history()
        g = GNSFeaturizer(_cfg(), stats).build_graph(frames)
        v0 = frames[1] - frames[0]
        np.testing.assert_allclose(g.node_features.data[:, :2],
                                   (v0 - [1.0, 2.0]) / [2.0, 4.0])

    def test_translation_invariance_of_features(self):
        """Node velocity/boundary-free features and edge features must be
        identical for a globally translated system (inertial-frame bias)."""
        frames = _history()
        shift = np.array([0.05, -0.03])
        f = GNSFeaturizer(_cfg(bounds=None))
        g1 = f.build_graph(frames)
        g2 = f.build_graph([fr + shift for fr in frames])
        np.testing.assert_allclose(g1.node_features.data, g2.node_features.data,
                                   atol=1e-12)
        np.testing.assert_allclose(g1.edge_features.data, g2.edge_features.data,
                                   atol=1e-12)

    def test_boundary_feature_clipped(self):
        frames = _history()
        g = GNSFeaturizer(_cfg()).build_graph(frames)
        bf = g.node_features.data[:, 6:10]
        assert bf.min() >= 0.0 and bf.max() <= 1.0

    def test_edge_distance_consistent_with_rel(self):
        g = GNSFeaturizer(_cfg()).build_graph(_history())
        rel = g.edge_features.data[:, :2]
        dist = g.edge_features.data[:, 2]
        np.testing.assert_allclose(dist, np.linalg.norm(rel, axis=1), atol=1e-6)

    def test_gradient_flows_to_material(self):
        f = GNSFeaturizer(_cfg(use_material=True))
        m = Tensor(np.array(30.0), requires_grad=True)
        g = f.build_graph(_history(), material=m)
        (g.node_features ** 2).sum().backward()
        assert m.grad is not None and abs(float(m.grad)) > 0

    def test_gradient_flows_to_positions(self):
        frames = _history()
        last = Tensor(frames[-1], requires_grad=True)
        tensors = [Tensor(fr) for fr in frames[:-1]] + [last]
        g = GNSFeaturizer(_cfg()).build_graph(tensors)
        (g.edge_features ** 2).sum().backward()
        assert last.grad is not None
        assert np.abs(last.grad).sum() > 0


class TestNormalizationHelpers:
    def test_acc_roundtrip(self):
        stats = Stats(np.zeros(2), np.ones(2),
                      np.array([0.1, -0.2]), np.array([0.5, 2.0]))
        f = GNSFeaturizer(_cfg(), stats)
        acc = np.random.default_rng(0).normal(size=(5, 2))
        np.testing.assert_allclose(
            f.denormalize_acceleration(f.normalize_acceleration(acc)), acc)

    def test_acc_roundtrip_tensor(self):
        f = GNSFeaturizer(_cfg())
        acc = Tensor(np.random.default_rng(0).normal(size=(5, 2)))
        out = f.denormalize_acceleration(f.normalize_acceleration(acc))
        np.testing.assert_allclose(out.data, acc.data)

    def test_stats_from_dict_unit(self):
        s = Stats.unit(2)
        np.testing.assert_array_equal(s.velocity_std, [1.0, 1.0])
        d = s.to_dict()
        s2 = Stats.from_dict(d)
        np.testing.assert_array_equal(s2.acceleration_mean, s.acceleration_mean)
