"""Outside-in tracing: spans around calls into the program's layers.

The traced run wraps public functions of the ``repro`` modules from here,
the benchmark's own file; nothing inside ``src/`` changes. Each wrapped
call records a span (name, start, end, parent, op id) in memory; the
spans are written out when the run ends.

Layers are named after the ``repro`` modules they time:

==================  ====================================================
``graph``           ``NeighborListCache.query``, ``radius_graph``
``features``        ``GNSFeaturizer.assemble_node_features``,
                    ``assemble_edge_features``, ``build_graph`` (self
                    time, so the radius search inside is not counted)
``network``         ``EncodeProcessDecode.forward_fast`` / ``forward``
``network.mlp``     MLP and fused first-layer calls inside the network
``network.aggregate``  segment sums inside the network
``engine``          ``InferenceEngine.rollout``
``inverse.forward`` ``RunoutInverseProblem.loss``
``autodiff.backward``  ``Tensor.backward`` (opaque: calls made inside
                    it are not split out)
``mpm.step``        ``MPMSolver.step``
``mpm.shape``       shape-function evaluation
``mpm.stress``      ``update_stress`` of the materials
``mpm.boundary``    ``BoxBoundary.apply``
==================  ====================================================

A span's self time is its duration minus the time its child spans
cover. The benchmark's own ``op`` span wraps every op, so the self time
of ``op`` spans is the part of an op that no layer accounts for.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

_MISSING = object()


class SpanRecorder:
    """In-memory span list. A span is ``[name, start_ns, end_ns,
    parent_index, op_id]``; ``parent_index`` is -1 at the top."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.op_id = -1
        self._stack: list[int] = []
        self._opaque = 0

    def count(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    @contextlib.contextmanager
    def span(self, name: str, opaque: bool = False):
        if self._opaque:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           self.op_id])
        self._stack.append(idx)
        self._opaque += opaque
        try:
            yield
        finally:
            self._opaque -= opaque
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter_ns()

    def layer_ms(self) -> dict[str, dict[str, float]]:
        """Per span name: ``total`` (outermost spans of that name only)
        and ``self`` (duration minus children), both in milliseconds."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            row = out.setdefault(name, {"total": 0.0, "self": 0.0,
                                        "count": 0})
            row["count"] += 1
            row["self"] += (end - start - child[i]) / 1e6
            if not self._inside(parent, name):
                row["total"] += (end - start) / 1e6
        return out

    def _inside(self, idx: int, name: str) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False

    def write(self, path, extra: dict) -> None:
        fields = ("name", "start_ns", "end_ns", "parent", "op")
        with open(path, "w") as fh:
            json.dump({**extra, "span_fields": fields, "spans": self.spans},
                      fh)


def _edges(result) -> int:
    return int(result[0].shape[0])


#: spans whose inner calls are not split out
_OPAQUE = {"autodiff.backward"}
#: span name -> function of the call's result counted as ``<name>.results``
_COUNTED = {"graph": _edges}


def _targets():
    """``(owner, attribute, span name)`` for every wrapped call."""
    from repro.accel.cpu import CpuKernels
    from repro.autodiff import Tensor
    from repro.autodiff.scatter import SortedSegments
    from repro.gns import engine, features, network
    from repro.graph import NeighborListCache
    from repro.inverse import RunoutInverseProblem
    from repro.mpm import grid, materials, shape, solver
    from repro.nn import MLP

    mlp = "network.mlp"
    agg = "network.aggregate"
    rows = [
        (NeighborListCache, "query", "graph"),
        (features, "radius_graph", "graph"),
        (features.GNSFeaturizer, "assemble_node_features", "features"),
        (features.GNSFeaturizer, "assemble_edge_features", "features"),
        (features.GNSFeaturizer, "build_graph", "features"),
        (network.EncodeProcessDecode, "forward_fast", "network"),
        (network.EncodeProcessDecode, "forward", "network"),
        (MLP, "forward_numpy", mlp),
        (MLP, "forward", mlp),
        (CpuKernels, "gather2_add_relu", mlp),
        *[(network, fn, mlp) for fn in (
            "edge_mlp_first_layer", "node_mlp_first_layer", "_mlp_tail",
            "_mlp_tail_accel", "fused_edge_mlp", "fused_node_mlp")],
        (SortedSegments, "segment_sum", agg),
        (network, "segment_sum", agg),
        (network, "scatter_add", agg),
        (engine.InferenceEngine, "rollout", "engine"),
        (RunoutInverseProblem, "loss", "inverse.forward"),
        (Tensor, "backward", "autodiff.backward"),
        (solver.MPMSolver, "step", "mpm.step"),
        (grid.BoxBoundary, "apply", "mpm.boundary"),
    ]
    rows += [(cls, "__call__", "mpm.shape")
             for cls in shape.ShapeFunction.__subclasses__()]
    rows += [(cls, "update_stress", "mpm.stress")
             for cls in vars(materials).values()
             if isinstance(cls, type) and "update_stress" in vars(cls)]
    return rows


def _wrap(fn, recorder: SpanRecorder, name: str):
    opaque = name in _OPAQUE
    counter = _COUNTED.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with recorder.span(name, opaque):
            result = fn(*args, **kwargs)
        if counter is not None and not recorder._opaque:
            recorder.count(name + ".results", counter(result))
        return result
    return traced


@contextlib.contextmanager
def instrument(recorder: SpanRecorder):
    """Wrap every target for the duration of the block, then restore the
    original attributes exactly (including inherited ones), and count
    tape ops through the autodiff layer's public tape hook."""
    from repro.autodiff.tensor import set_tape_hook

    saved = []
    try:
        for owner, attr, name in _targets():
            saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, _wrap(getattr(owner, attr), recorder, name))
        set_tape_hook(lambda data, backward_fn: recorder.count("tape_ops"),
                      slot="perfbench")
        yield recorder
    finally:
        set_tape_hook(None, slot="perfbench")
        for owner, attr, own in reversed(saved):
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
