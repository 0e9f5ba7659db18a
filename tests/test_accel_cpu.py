"""Runtime-compiled float32 C kernels (:mod:`repro.accel`): parity with
the numpy reference, IEEE semantics (NaN propagation), and the input
validation contract. All parity tests are skipped when no C toolchain
is available — the numpy fallback is what runs then anyway."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.accel import available, kernels

pytestmark = pytest.mark.skipif(not available(),
                                reason="no C toolchain / cffi")

RNG = np.random.default_rng(3)


def _f32(shape):
    return RNG.normal(size=shape).astype(np.float32)


class TestElementwise:
    def test_relu_matches_numpy(self):
        kern = kernels()
        h = _f32((40, 16))
        expect = np.maximum(h, 0.0)
        kern.relu(h)
        np.testing.assert_array_equal(h, expect)

    def test_relu_propagates_nan(self):
        kern = kernels()
        h = _f32((4, 4))
        h[1, 2] = np.nan
        kern.relu(h)
        assert np.isnan(h[1, 2])

    def test_bias_relu(self):
        kern = kernels()
        h = _f32((30, 8))
        b = _f32(8)
        expect = np.maximum(h + b, 0.0)
        kern.bias_relu(h, b)
        np.testing.assert_array_equal(h, expect)

    def test_ln_close_to_f64_reference(self):
        kern = kernels()
        h = _f32((50, 32))
        gamma, beta = _f32(32), _f32(32)
        x = h.astype(np.float64)
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        ref = (x - mu) / np.sqrt(var + 1e-5) * gamma + beta
        kern.ln(h, gamma, beta, 1e-5)
        np.testing.assert_allclose(h, ref, atol=5e-6)

    def test_bias_ln(self):
        kern = kernels()
        h = _f32((20, 16))
        b, gamma, beta = _f32(16), _f32(16), _f32(16)
        x = (h.astype(np.float64) + b)
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        ref = (x - mu) / np.sqrt(var + 1e-5) * gamma + beta
        kern.bias_ln(h, b, gamma, beta, 1e-5)
        np.testing.assert_allclose(h, ref, atol=5e-6)

    def test_ln_propagates_nan(self):
        kern = kernels()
        h = _f32((3, 8))
        h[0, 0] = np.nan
        kern.ln(h, np.ones(8, np.float32), np.zeros(8, np.float32), 1e-5)
        assert np.isnan(h[0]).all()
        assert np.isfinite(h[1:]).all()


class TestGraphKernels:
    def test_gather2_add_relu(self):
        kern = kernels()
        e, n, w = 60, 12, 16
        senders = RNG.integers(0, n, size=e)
        receivers = RNG.integers(0, n, size=e)
        h = _f32((e, w))
        ps, pr = _f32((n, w)), _f32((n, w))
        expect = np.maximum(h + ps[senders] + pr[receivers], 0.0)
        kern.gather2_add_relu(h, ps, pr, senders, receivers)
        np.testing.assert_array_equal(h, expect)

    def test_gather2_add_no_relu(self):
        kern = kernels()
        e, n, w = 20, 6, 8
        senders = RNG.integers(0, n, size=e)
        receivers = RNG.integers(0, n, size=e)
        h = _f32((e, w))
        ps, pr = _f32((n, w)), _f32((n, w))
        expect = h + ps[senders] + pr[receivers]
        kern.gather2_add_relu(h, ps, pr, senders, receivers, relu=False)
        np.testing.assert_array_equal(h, expect)

    def test_segment_sum_bitwise_vs_csr(self):
        kern = kernels()
        e, n, w = 120, 25, 8
        idx = np.sort(RNG.integers(0, n, size=e))
        msgs = _f32((e, w))
        indptr = np.searchsorted(idx, np.arange(n + 1)).astype(np.int64)
        mat = sparse.csr_matrix(
            (np.ones(e, dtype=np.float32),
             np.arange(e, dtype=np.int32), indptr), shape=(n, e))
        expect = np.asarray(mat @ msgs)
        out = np.empty((n, w), dtype=np.float32)
        kern.segment_sum(msgs, indptr, out)
        np.testing.assert_array_equal(out, expect)

    def test_segment_sum_empty_segments(self):
        kern = kernels()
        idx = np.array([1, 1, 3])
        msgs = _f32((3, 4))
        indptr = np.searchsorted(idx, np.arange(6)).astype(np.int64)
        out = np.empty((5, 4), dtype=np.float32)
        kern.segment_sum(msgs, indptr, out)
        np.testing.assert_array_equal(out[0], 0.0)
        np.testing.assert_array_equal(out[2], 0.0)
        np.testing.assert_array_equal(out[4], 0.0)
        np.testing.assert_array_equal(out[1], msgs[0] + msgs[1])


def _mlp(width, hidden_layers, din, seed=0):
    from repro.nn import MLP

    return MLP([din] + [width] * (hidden_layers + 1),
               np.random.default_rng(seed), layer_norm=True)


def _run(mlp, x, **kw):
    """``CpuKernels.mlp`` on ``mlp``'s packed float32 parameters."""
    return kernels().mlp(mlp.packed(np.float32), mlp.sizes, mlp.norm.eps,
                         x, **kw)


def _numpy_mlp(mlp, x, monkeypatch):
    """The NumPy float32 path of ``mlp`` (C kernels switched off)."""
    monkeypatch.setenv("REPRO_NO_CKERNELS", "1")
    try:
        return mlp.forward_numpy(x)
    finally:
        monkeypatch.delenv("REPRO_NO_CKERNELS")


def _projections(mlp, nodes):
    """The edge MLP's node-sized sender/receiver first-layer terms."""
    width = nodes.shape[1]
    w0 = mlp.linears[0].weight.data.astype(np.float32)
    return nodes @ w0[width:2 * width], nodes @ w0[2 * width:]


def _edge_case(e, n, width, seed=4):
    rng = np.random.default_rng(seed)
    senders = rng.integers(0, n, size=e)
    receivers = np.sort(rng.integers(0, n, size=e))
    edges = rng.normal(size=(e, width)).astype(np.float32)
    nodes = rng.normal(size=(n, width)).astype(np.float32)
    return edges, nodes, senders, receivers


#: max |kernel - NumPy float32| on unit-scale LayerNorm outputs: FMA
#: contraction and the LayerNorm lane tree change rounding only
MLP_ATOL = 1e-5


class TestFusedMLP:
    """``CpuKernels.mlp`` against the NumPy float32 path of the same MLP."""

    @pytest.mark.parametrize("width", [16, 32, 64, 128])
    @pytest.mark.parametrize("hidden_layers", [1, 2, 3])
    def test_encoder_matches_numpy(self, width, hidden_layers, monkeypatch):
        mlp = _mlp(width, hidden_layers, din=7)
        x = _f32((45, 7))  # 45 is not a multiple of any group size
        out = np.empty((45, width), np.float32)
        _run(mlp, x, out=out)
        ref = _numpy_mlp(mlp, x, monkeypatch)
        np.testing.assert_allclose(out, ref, rtol=0, atol=MLP_ATOL)

    @pytest.mark.parametrize("width", [16, 32, 64, 128])
    @pytest.mark.parametrize("hidden_layers", [1, 2, 3])
    def test_edge_block_matches_numpy(self, width, hidden_layers,
                                      monkeypatch):
        """Gathered first layer, receiver sum and residual, as the
        interaction block runs them."""
        e, n = 53, 11
        mlp = _mlp(width, hidden_layers, din=3 * width)
        edges, nodes, senders, receivers = _edge_case(e, n, width)
        x_in = np.concatenate([edges, nodes[senders], nodes[receivers]], 1)
        msgs = _numpy_mlp(mlp, x_in, monkeypatch)
        ps, pr = _projections(mlp, nodes)
        agg = np.empty((n, width), np.float32)
        out = edges.copy()
        _run(mlp, out, gather=(ps, pr, senders, receivers), agg=agg,
             out=out, residual=True)
        np.testing.assert_allclose(out, edges + msgs, rtol=0, atol=MLP_ATOL)
        ref = np.zeros((n, width), np.float64)
        np.add.at(ref, receivers, msgs)
        np.testing.assert_allclose(agg, ref, rtol=0, atol=4 * MLP_ATOL)

    @pytest.mark.parametrize("width", [16, 32, 64, 128])
    def test_two_inputs_match_concat(self, width, monkeypatch):
        """``x2`` meets the first-layer rows after ``x``'s (node MLP)."""
        mlp = _mlp(width, 2, din=2 * width)
        a, b = _f32((19, width)), _f32((19, width))
        out = a.copy()
        _run(mlp, out, x2=b, out=out, residual=True)
        ref = a + _numpy_mlp(mlp, np.concatenate([a, b], 1), monkeypatch)
        np.testing.assert_allclose(out, ref, rtol=0, atol=MLP_ATOL)

    def test_zero_rows(self):
        mlp = _mlp(32, 2, din=96)
        edges, nodes, senders, receivers = _edge_case(0, 5, 32)
        agg = np.full((5, 32), np.nan, np.float32)
        _run(mlp, edges, gather=(nodes, nodes, senders, receivers), agg=agg)
        np.testing.assert_array_equal(agg, 0.0)

    @pytest.mark.parametrize("width", [16, 32, 64, 128])
    def test_row_result_independent_of_position(self, width):
        """A row computes the same bits in a full group, in the
        zero-padded last group and alone."""
        mlp = _mlp(width, 2, din=5)
        x = _f32((41, 5))
        x[[0, 17, 40]] = x[3]
        out = np.empty((41, width), np.float32)
        _run(mlp, x, out=out)
        one = np.empty((1, width), np.float32)
        _run(mlp, x[3:4].copy(), out=one)
        for row in (0, 17, 40):
            np.testing.assert_array_equal(out[row], out[3])
        np.testing.assert_array_equal(one[0], out[3])

    def test_aggregates_in_edge_order(self):
        """The receiver sum is bitwise the CSR segment sum of the
        kernel's own messages (same zero start, same edge order)."""
        mlp = _mlp(32, 2, din=96)
        edges, nodes, senders, receivers = _edge_case(70, 9, 32)
        gather = (*_projections(mlp, nodes), senders, receivers)
        msgs = np.empty_like(edges)
        _run(mlp, edges, gather=gather, out=msgs,
             agg=np.empty((9, 32), np.float32))
        agg = np.empty((9, 32), np.float32)
        _run(mlp, edges, gather=gather, agg=agg)
        indptr = np.searchsorted(receivers, np.arange(10)).astype(np.int64)
        seg = np.empty_like(agg)
        kernels().segment_sum(msgs, indptr, seg)
        np.testing.assert_array_equal(agg, seg)

    def test_nan_propagates_like_numpy(self, monkeypatch):
        mlp = _mlp(32, 2, din=96)
        edges, nodes, senders, receivers = _edge_case(30, 6, 32)
        edges[4, 7] = np.nan
        x_in = np.concatenate([edges, nodes[senders], nodes[receivers]], 1)
        ref = _numpy_mlp(mlp, x_in, monkeypatch)
        out = np.empty_like(edges)
        agg = np.empty((6, 32), np.float32)
        _run(mlp, edges, gather=(*_projections(mlp, nodes), senders,
                                 receivers), agg=agg, out=out)
        np.testing.assert_array_equal(np.isnan(out), np.isnan(ref))
        assert np.isnan(out[4]).all()
        nan_nodes = np.unique(receivers[np.isnan(ref).any(axis=1)])
        assert np.isnan(agg[nan_nodes]).all()
        assert np.isfinite(np.delete(agg, nan_nodes, axis=0)).all()


class TestFusedMLPValidation:
    """Bad inputs raise before the kernel reads a pointer."""

    def _case(self):
        mlp = _mlp(32, 2, din=96)
        edges, nodes, senders, receivers = _edge_case(12, 4, 32)
        agg = np.empty((4, 32), np.float32)
        return mlp, edges, (nodes, nodes.copy(), senders, receivers), agg

    def test_fortran_order_rejected(self):
        # the layout Linear.arrays(float32) caches its weights in
        mlp = _mlp(32, 2, din=32)
        x = np.asfortranarray(_f32((10, 32)))
        with pytest.raises(TypeError):
            _run(mlp, x, out=np.empty((10, 32), np.float32))

    def test_float64_rejected(self):
        mlp = _mlp(32, 2, din=8)
        with pytest.raises(TypeError):
            _run(mlp, np.ones((3, 8)), out=np.empty((3, 32), np.float32))
        with pytest.raises(TypeError):
            kernels().mlp(mlp.packed(np.float64), mlp.sizes, 1e-5,
                          _f32((3, 8)), out=np.empty((3, 32), np.float32))

    def test_int32_indices_rejected(self):
        mlp, edges, (ps, pr, s, r), agg = self._case()
        with pytest.raises(TypeError):
            _run(mlp, edges, gather=(ps, pr, s.astype(np.int32), r),
                 agg=agg)

    def test_out_of_range_index_rejected_before_writing(self):
        mlp, edges, (ps, pr, s, r), agg = self._case()
        r = r.copy()
        r[-1] = 4
        agg[:] = 7.0
        with pytest.raises(IndexError):
            _run(mlp, edges, gather=(ps, pr, s, r), agg=agg)
        np.testing.assert_array_equal(agg, 7.0)

    @pytest.mark.parametrize("sizes", [[96, 24, 24], [96, 32, 16],
                                       [96, 32]])
    def test_unsupported_sizes_rejected(self, sizes):
        mlp, edges, gather, agg = self._case()
        with pytest.raises(ValueError):
            kernels().mlp(mlp.packed(np.float32), sizes, 1e-5, edges,
                          gather=gather, agg=agg)

    def test_params_size_mismatch_rejected(self):
        mlp, edges, gather, agg = self._case()
        with pytest.raises(ValueError):
            kernels().mlp(mlp.packed(np.float32)[:-1].copy(), mlp.sizes,
                          1e-5, edges, gather=gather, agg=agg)

    def test_overlapping_buffers_rejected(self):
        mlp, edges, gather, agg = self._case()
        with pytest.raises(ValueError):
            _run(mlp, edges, gather=gather, agg=gather[0])
        big = np.zeros((13, 32), np.float32)
        with pytest.raises(ValueError):
            _run(mlp, big[:12], gather=gather, out=big[1:], agg=agg)

    def test_agg_needs_gather(self):
        mlp = _mlp(32, 2, din=8)
        with pytest.raises(ValueError):
            _run(mlp, _f32((3, 8)), agg=np.empty((2, 32), np.float32))


class TestValidation:
    def test_wrong_dtype_rejected(self):
        kern = kernels()
        with pytest.raises(TypeError):
            kern.relu(np.ones((3, 3), dtype=np.float64))

    def test_non_contiguous_rejected(self):
        kern = kernels()
        h = np.ones((6, 6), dtype=np.float32)[:, ::2]
        with pytest.raises(TypeError):
            kern.relu(h)

    def test_bad_indptr_rejected(self):
        kern = kernels()
        msgs = np.ones((3, 2), dtype=np.float32)
        indptr = np.array([0, 1, 2], dtype=np.int64)  # [-1] != e
        out = np.empty((2, 2), dtype=np.float32)
        with pytest.raises(ValueError):
            kern.segment_sum(msgs, indptr, out)


def test_kill_switch(monkeypatch):
    """REPRO_NO_CKERNELS must disable compilation in a fresh probe."""
    from repro.accel import cpu

    monkeypatch.setenv("REPRO_NO_CKERNELS", "1")
    monkeypatch.setattr(cpu, "_TRIED", False)
    monkeypatch.setattr(cpu, "_KERNELS", None)
    assert cpu.kernels() is None


def test_kill_switch_masks_compiled_kernels(monkeypatch):
    """REPRO_NO_CKERNELS set after the kernels compiled still turns them
    off; unsetting it brings the same handle back."""
    kern = kernels()
    monkeypatch.setenv("REPRO_NO_CKERNELS", "1")
    assert kernels() is None
    assert not available()
    monkeypatch.delenv("REPRO_NO_CKERNELS")
    assert kernels() is kern
