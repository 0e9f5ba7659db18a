"""Host fingerprint, roofline probes and the network's computed cost.

``fingerprint()`` records what a number depends on: CPU model, cores,
cache sizes, BLAS vendor and threads, NumPy and Python versions, and
whether the program's compiled float32 kernels loaded.

``gemm_gflop_s`` times one matrix product at the network's shape and
``stream_gb_s`` times an in-place scale over an array at least four times
the last-level cache, so the network's achieved GFLOP/s can be read
against what this host sustains.

``network_cost`` counts the FLOPs and bytes of one GNS forward from its
configuration and graph size. The bytes are computed from array sizes
(each operand read once, each result written once); cache misses are
not modelled, so they are labelled computed.
"""

from __future__ import annotations

import glob
import os
import platform
import statistics
import time

import numpy as np

#: assumed last-level cache when the host does not report one
DEFAULT_LLC_BYTES = 32 << 20


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read().strip()


def _size_bytes(text: str) -> int:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units \
        else int(text)


def caches() -> list[dict]:
    """Data and unified caches of CPU 0 as ``{level, type, bytes}``."""
    out = []
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            kind = _read(f"{index}/type")
            if kind == "Instruction":
                continue
            out.append({"level": int(_read(f"{index}/level")), "type": kind,
                        "bytes": _size_bytes(_read(f"{index}/size"))})
        except (OSError, ValueError, IndexError):
            continue
    return out


def llc_bytes() -> int:
    levels = caches()
    if not levels:
        return DEFAULT_LLC_BYTES
    return max(levels, key=lambda c: c["level"])["bytes"]


def _cpu_model() -> str:
    try:
        for line in _read("/proc/cpuinfo").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{deps.get('name', '?')} {deps.get('version', '')}".strip()
    except (TypeError, KeyError):
        vendor = "unknown"
    threads = {k: os.environ[k] for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
               if k in os.environ}
    return {"vendor": vendor, "threads": threads}


def fingerprint() -> dict:
    from repro.accel import cpu

    return {
        "cpu": _cpu_model(),
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "caches": caches(),
        "blas": _blas(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "ckernels_loaded": cpu.available(),
    }


def _median_rate(work: float, fn, seconds: float, windows: int = 5) -> float:
    """Median over ``windows`` timing windows of ``work`` units per second,
    each window repeating ``fn`` for about ``seconds / windows``."""
    fn()
    rates = []
    for _ in range(windows):
        reps, t0 = 0, time.perf_counter()
        while True:
            fn()
            reps += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds / windows:
                break
        rates.append(work * reps / elapsed)
    return statistics.median(rates)


def gemm_gflop_s(rows: int, inner: int, cols: int, dtype,
                 seconds: float = 0.5) -> float:
    """GFLOP/s of ``(rows x inner) @ (inner x cols)`` into a reused output."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((rows, inner)).astype(dtype)
    b = rng.standard_normal((inner, cols)).astype(dtype)
    c = np.empty((rows, cols), dtype=dtype)
    return _median_rate(2.0 * rows * inner * cols / 1e9,
                        lambda: np.matmul(a, b, out=c), seconds)


def stream_gb_s(array_bytes: int, seconds: float = 1.0) -> float:
    """GB/s of an in-place scale (one read and one write per element)."""
    a = np.ones(array_bytes // 8, dtype=np.float64)
    return _median_rate(2.0 * a.nbytes / 1e9,
                        lambda: np.multiply(a, 1.0, out=a), seconds)


def network_cost(net_cfg, node_in: int, edge_in: int, nodes: int,
                 edges: float, dtype) -> dict:
    """FLOPs and computed bytes of one ``EncodeProcessDecode`` forward.

    Every dense layer ``k -> m`` on ``r`` rows costs ``2rkm`` FLOPs and
    moves its input, weights and output once; bias+ReLU and LayerNorm
    passes move their array twice (read and write). Processor blocks
    split the first layers (sender, receiver and edge projections), so
    the edge MLP's first layer adds a gather of two projected rows per
    edge; the segment sum reads every message and writes every node.
    """
    size = np.dtype(dtype).itemsize
    hidden = net_cfg.mlp_hidden_size
    latent = net_cfg.latent_size
    flops = 0.0
    moved = 0.0

    def dense(r, k, m):
        nonlocal flops, moved
        flops += 2.0 * r * k * m
        moved += size * (r * k + k * m + r * m)

    def pointwise(r, m, flop_per=1.0):
        nonlocal flops, moved
        flops += flop_per * r * m
        moved += 2.0 * size * r * m

    def mlp(r, k, out, layer_norm, first_done=False):
        widths = [k] + [hidden] * net_cfg.mlp_hidden_layers + [out]
        for i, (a, b) in enumerate(zip(widths[:-1], widths[1:])):
            if not (first_done and i == 0):
                dense(r, a, b)
            pointwise(r, b)                    # bias (+ ReLU)
        if layer_norm:
            pointwise(r, out, flop_per=8.0)

    mlp(nodes, node_in, latent, True)
    mlp(edges, edge_in, latent, True)
    for _ in range(net_cfg.message_passing_steps):
        dense(edges, latent, hidden)           # edge projection
        dense(nodes, latent, hidden)           # sender projection
        dense(nodes, latent, hidden)           # receiver projection
        flops += 2.0 * edges * hidden          # gather-add
        moved += size * 4.0 * edges * hidden
        mlp(edges, latent, latent, True, first_done=True)
        flops += edges * latent                # segment sum
        moved += size * (edges + nodes) * latent
        dense(nodes, latent, hidden)           # node projection
        dense(nodes, latent, hidden)           # aggregate projection
        mlp(nodes, latent, latent, True, first_done=True)
        pointwise(nodes, latent)               # node residual
        pointwise(edges, latent)               # edge residual
    mlp(nodes, latent, net_cfg.output_size, False)
    return {"gflop": flops / 1e9, "mb": moved / 1e6}
