"""Graph container used by GNS and MeshNet.

A :class:`Graph` is a plain data holder: node features, edge features, and
a ``(2, E)`` connectivity array of ``(senders, receivers)``. Feature arrays
may be NumPy arrays or autodiff Tensors — the network blocks accept both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..autodiff.scatter import SortedSegments

__all__ = ["Graph"]


@dataclass
class Graph:
    """Directed multigraph with dense feature matrices.

    Attributes
    ----------
    node_features:
        ``(N, F_v)`` features per node.
    edge_features:
        ``(E, F_e)`` features per edge.
    senders, receivers:
        ``(E,)`` integer endpoints; the message on edge *k* flows from
        ``senders[k]`` to ``receivers[k]``.
    globals_:
        Optional global feature vector.
    sender_plan, receiver_plan:
        :class:`~repro.autodiff.scatter.SortedSegments` over ``senders``
        and ``receivers``; :meth:`segments` builds any not given.
    """

    node_features: Any
    edge_features: Any
    senders: np.ndarray
    receivers: np.ndarray
    globals_: Any = None
    meta: dict = field(default_factory=dict)
    sender_plan: SortedSegments | None = field(default=None, repr=False,
                                                compare=False)
    receiver_plan: SortedSegments | None = field(default=None, repr=False,
                                                  compare=False)

    def __post_init__(self):
        self.senders = np.asarray(self.senders, dtype=np.intp)
        self.receivers = np.asarray(self.receivers, dtype=np.intp)
        if self.senders.shape != self.receivers.shape:
            raise ValueError("senders and receivers must have identical shape")

    @property
    def num_nodes(self) -> int:
        return int(self.node_features.shape[0])

    @property
    def num_edges(self) -> int:
        return int(self.senders.shape[0])

    def segments(self) -> tuple[SortedSegments, SortedSegments]:
        """``(sender_plan, receiver_plan)``: the segment-reduction plans
        every gather VJP and aggregation over this edge list shares,
        built on first use and kept."""
        if self.sender_plan is None or self.receiver_plan is None:
            n = self.num_nodes
            self.sender_plan = SortedSegments(self.senders, n)
            self.receiver_plan = SortedSegments(self.receivers, n)
        return self.sender_plan, self.receiver_plan

    def replace(self, **kwargs) -> "Graph":
        """Return a shallow copy with the given fields replaced."""
        data = dict(
            node_features=self.node_features,
            edge_features=self.edge_features,
            senders=self.senders,
            receivers=self.receivers,
            globals_=self.globals_,
            meta=self.meta,
        )
        data.update(kwargs)
        return Graph(**data)

    def validate(self) -> None:
        """Raise if connectivity indexes outside the node set."""
        n = self.num_nodes
        if self.num_edges:
            if self.senders.min() < 0 or self.senders.max() >= n:
                raise ValueError("sender index out of range")
            if self.receivers.min() < 0 or self.receivers.max() >= n:
                raise ValueError("receiver index out of range")

    def to_networkx(self):
        """Export connectivity to a networkx.DiGraph (topology only)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self.num_nodes))
        g.add_edges_from(zip(self.senders.tolist(), self.receivers.tolist()))
        return g
