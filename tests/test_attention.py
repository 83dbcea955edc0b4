"""The fused attention node against the per-op pool it replaced, bit for bit.

`reference_additive_attention_batch`, `reference_stack_cols` and
`reference_weighted_sum` are the attention layer and the two tensor ops it
called before the pool became one tape node, copied verbatim but for the
score product. The old layer made one [summary; h_j] @ w.T product per
position against the view of w.T; the fused node makes one for all
positions against a C-contiguous copy, so the reference stacks the
positions' [summary; h_j] rows with the `stack` adapter of
tests/sequences.py, scores them with `positions_matmul_ct` and splits the
tanh rows again with `unstack`. The rest reads per-position (batch, dim)
tensors; the fused node reads one (positions, batch, dim) sequence, which
the reference reaches only through `unstack`. Every value and every
gradient the fused node produces must have the same bytes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pytest

from sequences import stack, unstack
from stancegen.errors import ShapeError
from stancegen.layers import AttentionOutput, AttentionParams, additive_attention_batch
from stancegen.tensor import (
    PRECISIONS,
    Tape,
    Tensor,
    _record,
    add,
    concat_cols,
    matvec,
    mul,
    softmax_rows,
    sum_all,
    tanh,
)

# ------------------------------------------------------- the per-op oracle


def reference_stack_cols(parts: Sequence[Tensor]) -> Tensor:
    """Stack rank-1 tensors of equal length as the columns of a matrix."""
    if not parts:
        raise ValueError("stack_cols requires at least one part")
    n = parts[0].value.shape[0]
    for p in parts:
        if p.value.ndim != 1 or p.value.shape[0] != n:
            raise ShapeError(f"stack_cols: incompatible shape {p.value.shape}")
    parts = list(parts)
    out = Tensor(np.stack([p.value for p in parts], axis=1))

    def backward(g):
        for j, p in enumerate(parts):
            p.accum(g[:, j])

    return _record(out, backward)


def reference_weighted_sum(weights: Tensor, parts: Sequence[Tensor]) -> Tensor:
    """Per-row weighted sum of equal rank-2 parts, added in j order:
    sum_j parts[j] * weights[:, j], with weights (rows, len(parts))."""
    parts = list(parts)
    w = weights.value
    shape = parts[0].value.shape if parts else ()
    if len(shape) != 2 or w.shape != (shape[0], len(parts)) or any(p.value.shape != shape for p in parts):
        raise ShapeError(f"weighted_sum: weights {w.shape} for {len(parts)} parts of {shape}")
    total = parts[0].value * w[:, 0, None]
    for j in range(1, len(parts)):
        total = total + parts[j].value * w[:, j, None]
    out = Tensor(total)

    def backward(g):
        if weights.grad is None:
            weights.grad = np.zeros_like(w)
        for j, p in enumerate(parts):
            p.accum(g * w[:, j, None])
            weights.grad[:, j] += (g * p.value).sum(axis=1)

    return _record(out, backward)


def positions_matmul_ct(seq: Tensor, w: Tensor) -> Tensor:
    """tensor.matmul_t of every position of a (positions, batch, k) sequence
    in one product against a C-contiguous copy of w.T. Backward runs each
    position's matmul_t backward, in decreasing position order, as the old
    layer's per-position nodes ran on the tape."""
    x = seq.value
    out = Tensor((x.reshape(-1, x.shape[-1]) @ np.ascontiguousarray(w.value.T)).reshape(*x.shape[:-1], -1))

    def backward(g):
        gx = np.empty_like(x)
        for j in range(x.shape[0] - 1, -1, -1):
            gx[j] = g[j] @ w.value
            w.accum(g[j].T @ x[j])
        seq.accum(gx)

    return _record(out, backward)


def reference_additive_attention_batch(
    target_summary: Tensor,
    hiddens: Sequence[Tensor],
    params: AttentionParams,
    mask: np.ndarray,
) -> AttentionOutput:
    """Score positions with v . tanh(w [summary; h_j]), softmax, weighted sum.

    mask is (batch, positions) with trailing padding; masked positions get
    weight exactly 0.
    """
    z = stack([concat_cols([target_summary, h]) for h in hiddens])
    scores = [matvec(t, params.v) for t in unstack(tanh(positions_matmul_ct(z, params.w)))]
    alpha = softmax_rows(reference_stack_cols(scores), mask=mask)
    return AttentionOutput(s=reference_weighted_sum(alpha, hiddens), alpha=alpha)


# ----------------------------------------------------------- layout adapter


def reference_pool(target_summary, hiddens, params, mask):
    return reference_additive_attention_batch(target_summary, unstack(hiddens), params, mask)


# ------------------------------------------------------------------ helpers

DIMS = [(6, 4), (8, 6), (400, 200)]  # (attention, hidden); inputs are 2*hidden wide
ROWS = [1, 2, 5, 32]
POSITIONS = 5


def weighted(t: Tensor, coeffs: np.ndarray) -> Tensor:
    return sum_all(mul(t, Tensor(coeffs)))


def ragged_mask(rows, n):
    # trailing padding; row lengths cycle n, n-1, ..., 1
    lengths = [n - i % n for i in range(rows)]
    return np.arange(n)[None, :] < np.array(lengths)[:, None]


def assert_same_bits(name, a, b):
    if a is None or b is None:
        assert a is None and b is None, f"{name}: one gradient is None"
        return
    assert a.dtype == b.dtype and a.shape == b.shape, name
    assert a.tobytes() == b.tobytes(), f"{name} differs at {np.argwhere(a != b)[:5].tolist()}"


class Case:
    """Fresh leaves built from fixed arrays, so both pools start equal."""

    def __init__(self, rng, dtype, rows, attn, hidden):
        init = AttentionParams.init(attn, 4 * hidden, rng, dtype)
        self.w, self.v = init.w.value, init.v.value
        self.summary = rng.uniform(-1, 1, (rows, 2 * hidden)).astype(dtype)
        self.hiddens = rng.uniform(-1, 1, (POSITIONS, rows, 2 * hidden)).astype(dtype)
        self.coeffs = [rng.uniform(-1.5, 1.5, (rows, n)).astype(dtype) for n in (2 * hidden, POSITIONS)]
        self.coeffs.append(rng.uniform(-1.5, 1.5, self.hiddens.shape).astype(dtype))
        self.mask = ragged_mask(rows, POSITIONS)

    def run(self, attention, precision, read):
        params = AttentionParams(w=Tensor(self.w.copy()), v=Tensor(self.v.copy()))
        summary = Tensor(self.summary.copy())
        hiddens = Tensor(self.hiddens.copy())
        with Tape(precision) as tape:
            out = attention(summary, hiddens, params, self.mask)
            if read == "s":
                root = weighted(out.s, self.coeffs[0])
            elif read == "alpha":
                root = weighted(out.alpha, self.coeffs[1])
            else:
                # alpha and s both, and the inputs directly too, so every
                # input already holds a gradient when the pool adds its own
                root = add(weighted(out.s, self.coeffs[0]), weighted(out.alpha, self.coeffs[1]))
                root = add(root, weighted(summary, self.coeffs[0]))
                root = add(root, weighted(hiddens, self.coeffs[2]))
            tape.backward(root)
        values = {"s": out.s.value, "alpha": out.alpha.value}
        grads = {"w": params.w.grad, "v": params.v.grad, "summary": summary.grad, "hiddens": hiddens.grad}
        return values, grads


# -------------------------------------------------------------------- tests


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("attn,hidden", DIMS)
@pytest.mark.parametrize("rows", ROWS)
def test_attention_matches_the_per_op_pool(precision, attn, hidden, rows):
    case = Case(np.random.default_rng([rows, attn, hidden]), PRECISIONS[precision], rows, attn, hidden)
    for read in ("s", "alpha", "s+alpha"):
        fused, fused_grads = case.run(additive_attention_batch, precision, read)
        ref, ref_grads = case.run(reference_pool, precision, read)
        for name in ("s", "alpha"):
            assert_same_bits(f"{name} read={read}", fused[name], ref[name])
        assert fused_grads.keys() == ref_grads.keys()
        for name in ref_grads:
            assert_same_bits(f"{name}.grad read={read}", fused_grads[name], ref_grads[name])


def test_attention_records_one_node():
    case = Case(np.random.default_rng(1), np.float32, 3, 6, 4)
    params = AttentionParams(w=Tensor(case.w), v=Tensor(case.v))
    with Tape("float32") as tape:
        additive_attention_batch(Tensor(case.summary), Tensor(case.hiddens), params, case.mask)
    assert len(tape) == 1
