"""Minimal neural-network module system over the autodiff engine."""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator

import numpy as np

from ..autodiff import Tensor

__all__ = ["Parameter", "Module"]

# Parameter -> (number of open frozen() blocks holding it, the flag to
# restore when the last one exits); shared by every Module so blocks over
# overlapping parameter sets nest correctly across threads
_FROZEN: dict["Parameter", tuple[int, bool]] = {}
_FROZEN_LOCK = threading.Lock()


class Parameter(Tensor):
    """A Tensor that is registered as a trainable leaf of a Module."""

    def __init__(self, data, name: str | None = None):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class: tracks Parameters and sub-Modules by attribute assignment.

    Provides ``parameters()``, ``state_dict()``/``load_state_dict()``,
    ``zero_grad()`` — the subset of the torch.nn.Module API the paper's
    training loops rely on.
    """

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_modules", {})

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        elif isinstance(value, (list, tuple)) and value and all(isinstance(v, Module) for v in value):
            for i, v in enumerate(value):
                self._modules[f"{name}.{i}"] = v
        object.__setattr__(self, name, value)

    def parameters(self) -> Iterator[Parameter]:
        """Yield all trainable parameters, depth-first, deterministically."""
        for _, p in self.named_parameters():
            yield p

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, p in self._params.items():
            yield (f"{prefix}{name}", p)
        for name, mod in self._modules.items():
            yield from mod.named_parameters(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for mod in self._modules.values():
            yield from mod.modules()

    @contextlib.contextmanager
    def frozen(self) -> Iterator["Module"]:
        """Hold every Parameter at ``requires_grad=False`` for the block.

        The fused tape ops read ``requires_grad`` once, at forward time,
        so a forward run inside the block computes no weight gradient and
        keeps ReLU masks instead of activations — even when its
        ``backward()`` runs after the block has exited. Re-entrant and
        thread-safe (serve workers share one simulator across threads):
        each Parameter gets its own flag back when the last block holding
        it exits, exceptions included.
        """
        params = list(self.parameters())
        with _FROZEN_LOCK:
            for p in params:
                depth, flag = _FROZEN.get(p, (0, p.requires_grad))
                _FROZEN[p] = (depth + 1, flag)
                p.requires_grad = False
        try:
            yield self
        finally:
            with _FROZEN_LOCK:
                for p in params:
                    depth, flag = _FROZEN.pop(p)
                    if depth > 1:
                        _FROZEN[p] = (depth - 1, flag)
                    else:
                        p.requires_grad = flag

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter array keyed by dotted path."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state_dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, p in own.items():
            arr = np.asarray(state[name])
            if arr.shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name}: {arr.shape} vs {p.data.shape}")
            p.data = arr.astype(p.data.dtype).copy()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError
