"""Adapters between per-position (batch, dim) tensors and the (positions,
batch, dim) sequences the layers read, for tests whose per-op reference
code predates the sequence layout. Each adapter is one tape node, so every
gradient reaches the other layout through one accumulation."""

from __future__ import annotations

import numpy as np

from stancegen.tensor import Tensor, _record


def stack(parts: list[Tensor]) -> Tensor:
    """(batch, dim) tensors as one sequence: backward hands each position's
    row block to its tensor."""
    out = Tensor(np.stack([p.value for p in parts]))

    def backward(g):
        for j, p in enumerate(parts):
            p.accum(g[j])

    return _record(out, backward)


def unstack(seq: Tensor) -> list[Tensor]:
    """A sequence's positions as (batch, dim) tensors: backward accumulates
    their gradients into the sequence as one array, zeros where a position
    has none."""
    parts = tuple(Tensor(seq.value[j].copy()) for j in range(seq.value.shape[0]))

    def backward(*grads):
        seq.accum(np.stack([np.zeros_like(p.value) if g is None else g for p, g in zip(parts, grads)]))

    _record(parts, backward)
    return list(parts)
