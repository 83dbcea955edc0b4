"""Neural building blocks: LSTMs, one BiLSTM routine, attention, pooling,
dropout, and the gradient-reversal layer.

Conditional encoding is two bilstm_encode_batch calls: the target pair from
zero states, then the sentence pair from the target's final states. Each
LSTM step is one tape node (the fused cell, lstm_step_batch, padding blend
included), plus one recurrent-dropout node when dropout is on.

Every layer is row-batched: a sequence is a list of (batch, dim) matrices,
one per position, with trailing padding marked by a (batch, positions) mask
that is True on real tokens. A single example is a batch of one. A layer
that drops units takes one optional Dropout value; None means eval mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ShapeError
from .tensor import (
    Tensor,
    _record,
    blend_rows,
    concat_cols,
    dropout,
    matmul_t,
    matvec,
    maximum,
    softmax_rows,
    stack_cols,
    tanh,
    tensor,
    weighted_sum,
)


def glorot_uniform(rng: np.random.Generator | None, rows: int, cols: int, dtype) -> np.ndarray:
    """Glorot-uniform draw; with rng None, an uninitialized array of the same
    shape and dtype, for a caller that fills every entry itself."""
    if rng is None:
        return np.empty((rows, cols), dtype=dtype)
    r = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-r, r, size=(rows, cols)).astype(dtype)


@dataclass(frozen=True)
class Dropout:
    """Inverted dropout at `rate` with masks drawn from `rng`, one draw per
    call in call order; at rate 0 it returns its input and draws nothing."""

    rate: float
    rng: np.random.Generator | None = None

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {self.rate}")
        if self.rate > 0.0 and self.rng is None:
            raise ValueError(f"dropout at rate {self.rate} needs a generator")

    def __call__(self, x: Tensor) -> Tensor:
        return x if self.rate == 0.0 else dropout(x, self.rate, self.rng)


@dataclass
class LSTMState:
    """Hidden and cell states, each (batch, hidden)."""

    h: Tensor
    c: Tensor


@dataclass
class LSTMParams:
    """Input/forget/output/candidate gate weights over [x; h_prev], plus biases."""

    w_i: Tensor
    w_f: Tensor
    w_o: Tensor
    w_g: Tensor
    b_i: Tensor
    b_f: Tensor
    b_o: Tensor
    b_g: Tensor

    @property
    def hidden_dim(self) -> int:
        return self.w_i.value.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w_i.value.shape[1] - self.hidden_dim

    @classmethod
    def init(
        cls, input_dim: int, hidden_dim: int, rng: np.random.Generator | None, dtype
    ) -> "LSTMParams":
        """Glorot-uniform gate weights (uninitialized when rng is None); zero
        biases except forget bias = 1."""

        def w() -> Tensor:
            return Tensor(glorot_uniform(rng, hidden_dim, input_dim + hidden_dim, dtype))

        def b(fill: float = 0.0) -> Tensor:
            return Tensor(np.full(hidden_dim, fill, dtype=dtype))

        return cls(w_i=w(), w_f=w(), w_o=w(), w_g=w(), b_i=b(), b_f=b(1.0), b_o=b(), b_g=b())

    def named(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        for field in ("w_i", "w_f", "w_o", "w_g", "b_i", "b_f", "b_o", "b_g"):
            yield f"{prefix}.{field}", getattr(self, field)


@dataclass
class AttentionParams:
    """Additive attention: score_i = v . tanh(w @ [query; key_i]), no bias."""

    w: Tensor
    v: Tensor

    @classmethod
    def init(
        cls, attn_dim: int, in_dim: int, rng: np.random.Generator | None, dtype
    ) -> "AttentionParams":
        """Glorot-uniform w and v; uninitialized when rng is None."""
        w = Tensor(glorot_uniform(rng, attn_dim, in_dim, dtype))
        v = Tensor(glorot_uniform(rng, attn_dim, 1, dtype).reshape(attn_dim))
        return cls(w=w, v=v)

    def named(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        yield f"{prefix}.w", self.w
        yield f"{prefix}.v", self.v


@dataclass
class AttentionOutput:
    s: Tensor
    alpha: Tensor


def zero_state_batch(batch: int, hidden_dim: int, dtype) -> LSTMState:
    shape = (batch, hidden_dim)
    return LSTMState(tensor(np.zeros(shape), dtype), tensor(np.zeros(shape), dtype))


def lstm_step_batch(
    x: Tensor,
    prev: LSTMState,
    params: LSTMParams,
    h_in: Tensor | None = None,
    keep: np.ndarray | None = None,
) -> LSTMState:
    """Batched LSTM step over (batch, dim) rows, recorded as one tape node
    with outputs h and c.

    The gates read [x; h_in], with h_in defaulting to prev.h (a recurrent
    dropout passes the dropped h). Rows where the (batch,) mask `keep` is
    False are padding: they carry prev through unchanged.

    Forward and backward keep every expression, every sum and every
    gradient accumulation into a tensor outside the cell in the order of
    the per-op cell that tests/test_lstm_cell.py holds as its oracle, so the
    two agree bit for bit: four per-gate products z @ w.T plus bias (one
    stacked product changes bits on some BLAS builds), sigmoid as
    0.5 * (1 + tanh(a / 2)), c = f*c_prev + i*g, h = o*tanh(c); backward
    goes through the blends, h, c, then the gates in g, o, f, i order.
    """
    h_in = prev.h if h_in is None else h_in
    hidden, width = params.w_i.value.shape
    if x.value.ndim != 2 or x.value.shape[1] + hidden != width or any(
        t.value.shape != (x.value.shape[0], hidden) for t in (prev.h, prev.c, h_in)
    ):
        raise ShapeError(
            f"lstm_step_batch: x {x.value.shape}, h {h_in.value.shape}, c {prev.c.value.shape} "
            f"for gates {params.w_i.value.shape}"
        )
    if keep is not None:
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != (x.value.shape[0],):
            raise ShapeError(f"lstm_step_batch: mask {keep.shape} for {x.value.shape[0]} rows")
    blend = keep is not None and not keep.all()
    col = keep[:, None] if blend else None
    z = np.concatenate([x.value, h_in.value], axis=1)
    i = 0.5 * (1.0 + np.tanh(0.5 * (z @ params.w_i.value.T + params.b_i.value)))
    f = 0.5 * (1.0 + np.tanh(0.5 * (z @ params.w_f.value.T + params.b_f.value)))
    o = 0.5 * (1.0 + np.tanh(0.5 * (z @ params.w_o.value.T + params.b_o.value)))
    g = np.tanh(z @ params.w_g.value.T + params.b_g.value)
    c_prev = prev.c.value
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    if blend:
        h = np.where(col, h, prev.h.value)
        c = np.where(col, c, c_prev)
    out = LSTMState(Tensor(h), Tensor(c))

    def gate(ga, w, b, gz):
        # one gate's add_rowvec and matmul_t backward; z's gradient is the
        # first gate's product, then a running in-place sum
        b.accum(ga.sum(axis=0))
        w.accum(ga.T @ z)
        if gz is None:
            return ga @ w.value
        gz += ga @ w.value
        return gz

    def backward(gh, gc):
        if blend:
            if gc is not None:
                prev.c.accum(gc * ~col)
                gc = gc * col
            if gh is not None:
                prev.h.accum(gh * ~col)
                gh = gh * col
        go = None
        if gh is not None:
            go = gh * tc
            dtc = (gh * o) * (1.0 - tc * tc)
            gc = dtc if gc is None else gc + dtc
        gi, gg, gf = gc * g, gc * i, gc * c_prev
        prev.c.accum(gc * f)
        gz = gate(gg * (1.0 - g * g), params.w_g, params.b_g, None)
        if go is not None:
            gz = gate(go * o * (1.0 - o), params.w_o, params.b_o, gz)
        gz = gate(gf * f * (1.0 - f), params.w_f, params.b_f, gz)
        gz = gate(gi * i * (1.0 - i), params.w_i, params.b_i, gz)
        cols = x.value.shape[1]
        x.accum(gz[:, :cols])
        h_in.accum(gz[:, cols:])

    _record((out.h, out.c), backward)
    return out


def run_lstm_batch(
    steps: Sequence[Tensor],
    mask: np.ndarray,
    init: LSTMState,
    params: LSTMParams,
    reverse: bool = False,
    drop: Dropout | None = None,
) -> list[LSTMState]:
    """Run an LSTM over padded steps; states returned in position order.

    mask is (batch, positions) with trailing padding. At padded positions the
    state carries through unchanged, so the state at the last processed step
    equals each row's true final state, and in reverse each row's first
    processed position conditions on `init`. With `drop`, an independent
    mask falls on h_prev entering each step. Each step is one cell node on
    the tape, plus the dropout node.
    """
    n = len(steps)
    if not n:
        raise ValueError("run_lstm_batch: empty sequence")
    rows = steps[0].value.shape[0]
    if mask.shape != (rows, n):
        raise ShapeError(f"run_lstm_batch: mask {mask.shape} for {rows} rows of {n} steps")
    states: list[LSTMState | None] = [None] * n
    prev = init
    for t in range(n - 1, -1, -1) if reverse else range(n):
        h_in = None if drop is None else drop(prev.h)
        prev = lstm_step_batch(steps[t], prev, params, h_in=h_in, keep=mask[:, t])
        states[t] = prev
    return states  # type: ignore[return-value]


@dataclass
class EncoderParams:
    """One BiLSTM pair for targets and one for sentences."""

    target_fwd: LSTMParams
    target_bwd: LSTMParams
    sent_fwd: LSTMParams
    sent_bwd: LSTMParams

    @classmethod
    def init(
        cls, embed_dim: int, hidden_dim: int, rng: np.random.Generator | None, dtype
    ) -> "EncoderParams":
        return cls(
            target_fwd=LSTMParams.init(embed_dim, hidden_dim, rng, dtype),
            target_bwd=LSTMParams.init(embed_dim, hidden_dim, rng, dtype),
            sent_fwd=LSTMParams.init(embed_dim, hidden_dim, rng, dtype),
            sent_bwd=LSTMParams.init(embed_dim, hidden_dim, rng, dtype),
        )

    def named(self, prefix: str) -> Iterator[tuple[str, Tensor]]:
        for part in ("target_fwd", "target_bwd", "sent_fwd", "sent_bwd"):
            yield from getattr(self, part).named(f"{prefix}.{part}")


def bilstm_encode_batch(
    steps: Sequence[Tensor],
    mask: np.ndarray,
    fwd: LSTMParams,
    bwd: LSTMParams,
    drop: Dropout | None = None,
    init: tuple[LSTMState, LSTMState] | None = None,
) -> tuple[list[LSTMState], list[LSTMState]]:
    """Forward and backward LSTM states over the same steps, each list in
    position order. The forward LSTM starts from init[0] and the backward one
    from init[1]; with init None both start from zero states. Conditional
    encoding passes a target's (forward[-1], backward[0]) as a sentence's
    init."""
    if init is None:
        zero = zero_state_batch(mask.shape[0], fwd.hidden_dim, fwd.w_i.value.dtype)
        init = (zero, zero)
    f = run_lstm_batch(steps, mask, init[0], fwd, drop=drop)
    b = run_lstm_batch(steps, mask, init[1], bwd, reverse=True, drop=drop)
    return f, b


def additive_attention_batch(
    target_summary: Tensor,
    hiddens: Sequence[Tensor],
    params: AttentionParams,
    mask: np.ndarray,
) -> AttentionOutput:
    """Score positions with v . tanh(w [summary; h_j]), softmax, weighted sum.

    mask is (batch, positions) with trailing padding; masked positions get
    weight exactly 0.
    """
    scores = [
        matvec(tanh(matmul_t(concat_cols([target_summary, h]), params.w)), params.v) for h in hiddens
    ]
    alpha = softmax_rows(stack_cols(scores), mask=mask)
    return AttentionOutput(s=weighted_sum(alpha, hiddens), alpha=alpha)


def max_pool_encode_batch(hiddens: Sequence[Tensor], mask: np.ndarray) -> Tensor:
    """Coordinatewise max over each row's real positions; ties favor the
    earliest. mask is (batch, positions) and position 0 must be real;
    padded rows keep their running max."""
    if not mask[:, 0].all():
        raise ValueError("max_pool_encode_batch: padding must be trailing")
    out = hiddens[0]
    for j in range(1, len(hiddens)):
        keep = mask[:, j]
        cand = maximum(out, hiddens[j])
        out = cand if keep.all() else blend_rows(cand, out, keep)
    return out


def grl(x: Tensor) -> Tensor:
    """Gradient reversal: identity forward, exact negation backward."""
    out = Tensor(x.value.copy())

    def backward(g):
        x.accum(-g)

    return _record(out, backward)
