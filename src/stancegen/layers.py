"""Neural building blocks: LSTMs, one BiLSTM routine, attention, pooling,
dropout, and the gradient-reversal layer.

Conditional encoding is two bilstm_encode_batch calls: the target pair from
zero states, then the sentence pair from the target's final states. An LSTM
run (padding and recurrent dropout included) and an attention pool are one
tape node each, with a hand-written backward. In eval mode (no tape) on more
than one row, LSTM gate products read a contiguous copy of each weight's
transpose (see _forward_weights), attention splits its weight at the
summary's width and stacks the positions (_eval_scores), and a large enough
BiLSTM runs its forward direction on tensor's helper thread. Training and
1-row batches keep the taped forward's products and bits.

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
    accum_product,
    active_tape,
    blend_rows,
    dropout,
    dropout_factor,
    helper_takes,
    matmul_t,  # unused here: perfbench's tracer counts products through layers.matmul_t
    maximum,
    on_helper,
    softmax_input_grad,
    softmax_values,
    tensor,
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


def _forward_weights(rows: int, *weights: np.ndarray) -> tuple[np.ndarray, ...]:
    """Right operands for one node's forward products z @ w.T: a C-contiguous
    copy of each w.T when no tape is active and the batch has more than one
    row, else the view w.T.

    run_lstm_batch's gate products use it. BLAS multiplies faster against
    the contiguous copy: in float32 on one OpenBLAS 0.3.31 thread (x86_64,
    Haswell kernels), a (32x300)(300x200) gate product takes 51 us against
    the view's 78, and a copy costs 23 us, made once per LSTM run. The copy's
    bits can differ from the view's, so every taped forward (training,
    gradcheck) reads the view and training bits stay as they were. A 1-row
    product, as in predict, saves nothing, so it reads the view too. The
    copy is never cached: Adam updates each w in place and load_checkpoint
    reassigns it.
    """
    if rows > 1 and active_tape() is None:
        return tuple(np.ascontiguousarray(w.T) for w in weights)
    return tuple(w.T for w in weights)


def _lstm_cell(
    x: Tensor, prev: LSTMState, h_in: np.ndarray, params: LSTMParams, wt: tuple, keep: np.ndarray
):
    """One run_lstm_batch step over [x; h_in]; rows where `keep` is False
    carry prev. wt holds the i, f, o, g gate weights' transposes from
    _forward_weights. Returns the state and backward(gh, gc) -> h_in's
    gradient."""
    col = None if keep.all() else keep[:, None]  # None: no padded row
    z = np.concatenate([x.value, h_in], axis=1)
    wt_i, wt_f, wt_o, wt_g = wt
    i = 0.5 * (1.0 + np.tanh(0.5 * (z @ wt_i + params.b_i.value)))
    f = 0.5 * (1.0 + np.tanh(0.5 * (z @ wt_f + params.b_f.value)))
    o = 0.5 * (1.0 + np.tanh(0.5 * (z @ wt_o + params.b_o.value)))
    g = np.tanh(z @ wt_g + params.b_g.value)
    c_prev = prev.c.value
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    if col is not None:
        h = np.where(col, h, prev.h.value)
        c = np.where(col, c, c_prev)

    def gate(ga, w, b, gz):
        # one gate's add_rowvec and matmul_t backward; z's gradient is the
        # first gate's product, then a running in-place sum
        b.accum(ga.sum(axis=0))
        accum_product(w, ga, z)
        if gz is None:
            return ga @ w.value
        gz += ga @ w.value
        return gz

    def backward(gh, gc):
        if col is not None:
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
        return gz[:, cols:]

    return LSTMState(Tensor(h), Tensor(c)), backward


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
    mask, drawn just before its step, falls on h_prev entering each step.

    The run is one tape node with every step's h and c as outputs. It keeps
    every expression, sum and accumulation of the per-op steps that
    tests/test_lstm_cell.py holds as its oracle, in order, so the two agree
    bit for bit: four per-gate products z @ w.T plus bias (one stacked
    product changes bits on some BLAS builds), sigmoid as 0.5*(1 + tanh(a/2)),
    c = f*c_prev + i*g, h = o*tanh(c). Backward walks the steps in reverse,
    each through the blends, h, c, the gates in g, o, f, i order, then the
    recurrent dropout into h_prev. Each gate's weight gradient ga.T @ z goes
    through tensor.accum_product, which runs a large one (the paper's 32-row
    batches) on the helper thread in queue order while this walk goes on.

    With no tape active and more than one row, the four gate products read
    contiguous copies of the w.T made once before the step loop
    (_forward_weights), so eval h and c can differ from the taped run's by
    rounding; training and 1-row runs read the view and keep their bits.
    """
    n = len(steps)
    if not n:
        raise ValueError("run_lstm_batch: empty sequence")
    rows = steps[0].value.shape[0]
    if mask.shape != (rows, n):
        raise ShapeError(f"run_lstm_batch: mask {mask.shape} for {rows} rows of {n} steps")
    hidden, width = params.w_i.value.shape
    shapes, state = {x.value.shape for x in steps}, {init.h.value.shape, init.c.value.shape}
    if shapes != {(rows, width - hidden)} or state != {(rows, hidden)}:
        raise ShapeError(
            f"run_lstm_batch: steps {sorted(shapes)}, states {sorted(state)} for gates {(hidden, width)}"
        )
    tape, rate = active_tape(), 0.0 if drop is None else drop.rate
    wt = _forward_weights(rows, params.w_i.value, params.w_f.value, params.w_o.value, params.w_g.value)
    states, prev = [init] * n, init
    taped = []  # (prev, out, backward, dropout factor) per step, only on a tape
    for t in range(n - 1, -1, -1) if reverse else range(n):
        factor = dropout_factor(prev.h.shape, prev.h.value.dtype, rate, drop.rng) if rate else None
        h_in = prev.h.value if factor is None else prev.h.value * factor
        out, backward = _lstm_cell(steps[t], prev, h_in, params, wt, np.asarray(mask[:, t], dtype=bool))
        if tape is not None:
            taped.append((prev, out, backward, factor))
        states[t] = prev = out

    def run_backward(*_):
        # a step's gradients are read in its turn, once the next step has added to them
        for prev, out, backward, factor in reversed(taped):
            if out.h.grad is not None or out.c.grad is not None:
                g_in = backward(out.h.grad, out.c.grad)
                prev.h.accum(g_in if factor is None else g_in * factor)

    if tape is not None:
        tape.record(tuple(t for s in states for t in (s.h, s.c)), run_backward)
    return states


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
    init.

    With no tape, no dropout and more than one row, when tensor.helper_takes
    a gate product of rows x hidden x (input + hidden) multiply-adds (17 rows
    or more at the paper's 100/200 with one BLAS thread on two CPUs), the
    forward run goes to the helper thread while this thread runs the
    backward one. Each run is the same call with the same operands as
    inline, so every state keeps its bits; an error in the helper's run is
    raised here. A taped or dropout encoding runs both directions here, in
    order, so the dropout masks are drawn as before, and so does a batch of
    one, as predict's.
    """
    rows, (hidden, width) = mask.shape[0], fwd.w_i.value.shape
    if init is None:
        zero = zero_state_batch(rows, hidden, fwd.w_i.value.dtype)
        init = (zero, zero)
    if rows > 1 and active_tape() is None and drop is None and helper_takes(rows * hidden * width):
        forward = on_helper(run_lstm_batch, steps, mask, init[0], fwd)
        try:
            b = run_lstm_batch(steps, mask, init[1], bwd, reverse=True)
        finally:
            f = forward()  # the helper is done with this call even if the main run raised
        return f, b
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
    weight exactly 0. The pool is one tape node with outputs s and alpha that
    keeps the products, operands and accumulation order of the per-op pool in
    tests/test_attention.py, so the two agree bit for bit. Backward: s's share
    into each h_j and alpha in increasing j, softmax, score path in decreasing j;
    each position's w gradient goes through tensor.accum_product, so a large
    one runs on the helper thread, as in run_lstm_batch.

    With no tape active and more than one row, the scores come from
    _eval_scores: the summary's share of the product once per pool, then the
    positions' shares stacked, so eval s and alpha can differ from the taped
    pool's by rounding; training and 1-row pools keep the per-position
    products and their bits.
    """
    summary, w, v = target_summary.value, params.w.value, params.v.value
    rows, k = summary.shape if summary.ndim == 2 else (None, 0)
    shapes = {h.value.shape for h in hiddens}
    if shapes != {(rows, w.shape[1] - k)} or v.shape != (w.shape[0],):
        raise ShapeError(
            f"additive_attention_batch: summary {summary.shape}, hiddens {sorted(shapes)}, w {w.shape}"
        )
    tape = active_tape()
    kept = []  # each position's z and tanh, only on a tape
    if tape is None and rows > 1:
        scores = _eval_scores(summary, [h.value for h in hiddens], w, v)
    else:
        columns = []
        for h in hiddens:
            z = np.concatenate([summary, h.value], axis=1)
            t = np.tanh(z @ w.T)
            columns.append(t @ v)
            if tape is not None:
                kept.append((z, t))
        scores = np.stack(columns, axis=1)
    p = softmax_values(scores, mask)
    total = hiddens[0].value * p[:, 0, None]
    for j in range(1, len(hiddens)):
        total = total + hiddens[j].value * p[:, j, None]
    out = AttentionOutput(s=Tensor(total), alpha=Tensor(p))

    def backward(gs, galpha):
        if gs is not None:
            galpha = np.zeros_like(p) if galpha is None else galpha
            for j, h in enumerate(hiddens):
                h.accum(gs * p[:, j, None])
                galpha[:, j] += (gs * h.value).sum(axis=1)
        gscore = softmax_input_grad(p, galpha)
        for j, (z, t) in reversed(list(enumerate(kept))):
            g = np.array(gscore[:, j])  # a copy, as the per-op column's accum made
            params.v.accum(t.T @ g)
            ga = np.outer(g, v) * (1.0 - t * t)
            gz = ga @ w
            accum_product(params.w, ga, z)
            target_summary.accum(gz[:, :k])
            hiddens[j].accum(gz[:, k:])

    if tape is not None:
        tape.record((out.s, out.alpha), backward)
    return out


EVAL_POSITIONS_PER_PRODUCT = 8


def _eval_scores(summary: np.ndarray, hiddens: list[np.ndarray], w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """additive_attention_batch's (rows, positions) scores with no tape:
    v . tanh(q + h_j @ w_h.T), where w = [w_s w_h] splits at the summary's
    width and q = summary @ w_s.T is computed once. The positions' products
    are stacked, EVAL_POSITIONS_PER_PRODUCT at a time, which bounds the
    scratch arrays at that many rows per batch row.

    Both products read views of w: in float32 on one OpenBLAS 0.3.31 thread
    (x86_64, Haswell kernels), a paper-size pool of 32 rows and 20 positions
    took 2.7-3.3 ms this way against 3.1-3.5 ms with contiguous copies of the
    two transposes, whose making costs more than it saves, and 7-8 ms with
    one [summary; h_j] product per position against a contiguous w.T.
    """
    rows, k = summary.shape
    q = summary @ w[:, :k].T
    wt_h = w[:, k:].T
    scores = np.empty((rows, len(hiddens)), dtype=summary.dtype)
    for lo in range(0, len(hiddens), EVAL_POSITIONS_PER_PRODUCT):
        chunk = hiddens[lo : lo + EVAL_POSITIONS_PER_PRODUCT]
        a = (np.concatenate(chunk) @ wt_h).reshape(len(chunk), rows, -1)  # position-major
        a += q
        np.tanh(a, out=a)
        scores[:, lo : lo + len(chunk)] = (a @ v).T
    return scores


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
