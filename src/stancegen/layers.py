"""Neural building blocks: LSTMs, one BiLSTM routine, attention, pooling,
dropout, and the gradient-reversal layer.

Conditional encoding is two bilstm_encode_batch calls: the target pair from
zero states, then the sentence pair from the target's final states. An LSTM
run (padding and recurrent dropout included), an attention pool and a max
pool are one tape node each, with a hand-written backward.

Products. LSTM gate products read a C-contiguous copy of each weight's
transpose, made on every run, taped or not. Whether a tape is active
switches attention and the helper thread, whatever the row count. On a
tape (training, gradcheck) attention scores every position's [summary;
h_j] rows in one product against a contiguous copy of w.T. The per-op
oracles in tests/test_lstm_cell.py and tests/test_attention.py make the
same products as the taped layers, which they hold bit for bit. With no
tape (eval, and predict's batch of one), attention splits its weight at the
summary's width and stacks the positions (_eval_scores), and a BiLSTM
without dropout whose gate products tensor.helper_takes runs its forward
direction on the helper thread. The two attention rules can round
differently: tests/test_eval_products.py holds them to a few ulp of each
other.

Every layer is row-batched: a sequence is one C-contiguous (positions,
batch, dim) tensor with trailing padding marked by a (batch, positions) mask
that is True on real tokens. A single example is a batch of one. A layer
that drops units takes one optional Dropout value; None means eval mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ShapeError
from .tensor import (
    Tensor,
    _record,
    accum_product,
    active_tape,
    dropout,
    dropout_factor,
    helper_takes,
    matmul_t,  # unused here: perfbench's tracer counts products through layers.matmul_t
    on_helper,
    softmax_input_grad,
    softmax_values,
    tensor,
)


def placeholder(shape: tuple[int, ...], dtype) -> np.ndarray:
    """A read-only stand-in that holds no memory (every stride 0 over one
    zero item), for a caller that replaces it; numpy raises ValueError for a
    shape too large to describe."""
    return np.ndarray(shape, dtype, bytes(8), strides=(0,) * len(shape))


def glorot_uniform(rng: np.random.Generator | None, rows: int, cols: int, dtype) -> np.ndarray:
    """Glorot-uniform draw; with rng None, a placeholder of the same shape."""
    if rng is None:
        return placeholder((rows, cols), dtype)
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
        """Glorot-uniform gate weights; zero biases except forget bias = 1.
        With rng None every array is a placeholder."""

        def w() -> Tensor:
            return Tensor(glorot_uniform(rng, hidden_dim, input_dim + hidden_dim, dtype))

        def b(fill: float = 0.0) -> Tensor:
            return Tensor(placeholder((hidden_dim,), dtype) if rng is None else np.full(hidden_dim, fill, dtype=dtype))

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
        """Glorot-uniform w and v; placeholders when rng is None."""
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


def _lstm_cell(x, h_prev, c_prev, h_in, params: LSTMParams, wt: tuple, keep: np.ndarray):
    """One run_lstm_batch step over [x; h_in]; rows where `keep` is False
    carry (h_prev, c_prev). wt holds the i, f, o, g gate weights' transposes
    from run_lstm_batch. Returns h, c and backward(gh, gc) -> (h_prev's and
    c_prev's padding shares, None if no row is padded, c_prev's f*gc, z's
    gradient)."""
    col = None if keep.all() else keep[:, None]  # None: no padded row
    z = np.concatenate([x, h_in], axis=1)
    wt_i, wt_f, wt_o, wt_g = wt
    i = 0.5 * (1.0 + np.tanh(0.5 * (z @ wt_i + params.b_i.value)))
    f = 0.5 * (1.0 + np.tanh(0.5 * (z @ wt_f + params.b_f.value)))
    o = 0.5 * (1.0 + np.tanh(0.5 * (z @ wt_o + params.b_o.value)))
    g = np.tanh(z @ wt_g + params.b_g.value)
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    if col is not None:
        h = np.where(col, h, h_prev)
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
        h_pad = c_pad = None
        if col is not None:
            if gc is not None:
                c_pad = gc * ~col
                gc = gc * col
            if gh is not None:
                h_pad = gh * ~col
                gh = gh * col
        go = None
        if gh is not None:
            go = gh * tc
            dtc = (gh * o) * (1.0 - tc * tc)
            gc = dtc if gc is None else gc + dtc
        gi, gg, gf = gc * g, gc * i, gc * c_prev
        c_f = gc * f
        gz = gate(gg * (1.0 - g * g), params.w_g, params.b_g, None)
        if go is not None:
            gz = gate(go * o * (1.0 - o), params.w_o, params.b_o, gz)
        gz = gate(gf * f * (1.0 - f), params.w_f, params.b_f, gz)
        gz = gate(gi * i * (1.0 - i), params.w_i, params.b_i, gz)
        return h_pad, c_pad, c_f, gz

    return h, c, backward


def _plus(total: np.ndarray | None, g: np.ndarray | None) -> np.ndarray | None:
    """A local gradient sum in Tensor.accum's order: the first term as it is
    (a zero-filled start would turn -0.0 into +0.0), each later one added."""
    if g is None:
        return total
    return g if total is None else total + g


def run_lstm_batch(
    steps: Tensor,
    mask: np.ndarray,
    init: LSTMState,
    params: LSTMParams,
    reverse: bool = False,
    drop: Dropout | None = None,
) -> tuple[Tensor, LSTMState]:
    """Run an LSTM over the padded (positions, batch, input) sequence steps.
    Returns (hs, final): every position's h as one (positions, batch, hidden)
    tensor, and the state after the last processed step, position T-1 going
    forward and position 0 in reverse.

    mask is (batch, positions) with trailing padding. At padded positions the
    state carries through unchanged, so final is each row's true final state,
    and in reverse each row's first processed position conditions on init.
    With drop, an independent (batch, hidden) mask, drawn just before its
    step, falls on h_prev entering each step.

    The run is one tape node with outputs hs, final.h and final.c. It keeps
    every expression, sum and accumulation of the per-op steps that
    tests/test_lstm_cell.py holds as its oracle, in order, so the two agree
    bit for bit: four per-gate products z @ w.T plus bias, each against a
    C-contiguous copy of w.T made once per run (one stacked product changes
    bits on some BLAS builds), sigmoid as 0.5*(1 + tanh(a/2)),
    c = f*c_prev + i*g, h = o*tanh(c). Backward walks the steps in reverse,
    each through the blends, h, c, the gates in g, o, f, i order, then the
    recurrent dropout into h_prev; a state's gradient is a local sum in the
    per-op order: its consumers', the next step's padding share, then f*gc
    or the recurrent input's. Each gate's ga.T @ z goes through
    tensor.accum_product, which runs a large one on the helper thread.

    In float32 on one OpenBLAS 0.3.31 thread (x86_64, Haswell kernels), a
    (32x300)(300x200) gate product takes 49 us against the copy and 74
    against the view of w.T, and a copy costs 22 us. The copy is never
    cached: Adam updates each w in place and load_checkpoint reassigns it.
    """
    x = steps.value
    if x.ndim != 3 or not x.shape[0]:
        raise ValueError(f"run_lstm_batch: empty sequence or not (positions, batch, input): {x.shape}")
    n, rows, cols = x.shape
    if mask.shape != (rows, n):
        raise ShapeError(f"run_lstm_batch: mask {mask.shape} for {rows} rows of {n} steps")
    hidden, width = params.w_i.value.shape
    state = {init.h.value.shape, init.c.value.shape}
    if cols != width - hidden or state != {(rows, hidden)}:
        raise ShapeError(f"run_lstm_batch: steps {x.shape}, states {sorted(state)} for gates {(hidden, width)}")
    tape, rate = active_tape(), 0.0 if drop is None else drop.rate
    wt = tuple(np.ascontiguousarray(w.value.T) for w in (params.w_i, params.w_f, params.w_o, params.w_g))
    hs = np.empty((n, rows, hidden), dtype=np.result_type(x, init.h.value))
    h, c = init.h.value, init.c.value
    taped = []  # (position, backward, dropout factor) per step, only on a tape
    for t in range(n - 1, -1, -1) if reverse else range(n):
        factor = dropout_factor(h.shape, h.dtype, rate, drop.rng) if rate else None
        h_in = h if factor is None else h * factor
        h, c, backward = _lstm_cell(x[t], h, c, h_in, params, wt, np.asarray(mask[:, t], dtype=bool))
        hs[t] = h
        if tape is not None:
            taped.append((t, backward, factor))
    out, final = Tensor(hs), LSTMState(Tensor(h), Tensor(c))

    def run_backward(g_hs, g_h, g_c):
        # the consumers' share of the h of each step, processed k-th
        shares = [None] * n if g_hs is None else [g_hs[t] for t, _, _ in taped]
        gh, gc, gx = _plus(g_h, shares[-1]), g_c, np.empty_like(x)
        for k in range(n - 1, -1, -1):
            t, backward, factor = taped[k]
            h_pad, c_pad, c_f, gz = backward(gh, gc)
            gx[t] = gz[:, :cols]
            g_in = gz[:, cols:] if factor is None else gz[:, cols:] * factor
            if k:
                gh, gc = _plus(_plus(shares[k - 1], h_pad), g_in), _plus(c_pad, c_f)
        for part, g in ((init.c, c_pad), (init.c, c_f), (init.h, h_pad), (init.h, g_in)):
            if g is not None:
                part.accum(g)
        steps.accum(gx)

    if tape is not None:
        tape.record((out, final.h, final.c), run_backward)
    return out, final


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
    steps: Tensor,
    mask: np.ndarray,
    fwd: LSTMParams,
    bwd: LSTMParams,
    drop: Dropout | None = None,
    init: tuple[LSTMState, LSTMState] | None = None,
) -> tuple[tuple[Tensor, LSTMState], tuple[Tensor, LSTMState]]:
    """The forward and the backward run_lstm_batch's (hs, final) over the
    same steps, from init[0] and init[1], or zero states with init None.
    Conditional encoding passes a target's two final states as a sentence's
    init.

    With no tape and no dropout, when tensor.helper_takes a gate product of
    rows x hidden x (input + hidden) multiply-adds (the eval rule in the
    module docstring; 17 rows or more at the paper's 100/200 with one BLAS
    thread on two CPUs, so never predict's one row), the forward run goes to
    the helper thread while this thread runs the backward one, with the same
    calls and bits as inline; an error in the helper's run is raised here.
    Other encodings run both directions here, in order, so the dropout masks
    are drawn as before.
    """
    rows, (hidden, width) = mask.shape[0], fwd.w_i.value.shape
    if init is None:
        zero = zero_state_batch(rows, hidden, fwd.w_i.value.dtype)
        init = (zero, zero)
    if active_tape() is None and drop is None and helper_takes(rows * hidden * width):
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
    hiddens: Tensor,
    params: AttentionParams,
    mask: np.ndarray,
) -> AttentionOutput:
    """Score the positions of the (positions, batch, dim) sequence hiddens
    with v . tanh(w [summary; h_j]), softmax, weighted sum.

    mask is (batch, positions) with trailing padding; masked positions get
    weight exactly 0. The pool is one tape node with outputs s and alpha that
    keeps the products, operands and accumulation order of the per-op pool in
    tests/test_attention.py, so the two agree bit for bit. Backward: s's
    share into each h_j and alpha in increasing j, softmax, score path in
    decreasing j, into one hiddens gradient; each position's w gradient goes
    through tensor.accum_product, as in run_lstm_batch.

    On a tape every position's [summary; h_j] rows are built once, as one
    (positions, batch, 4h) array, and multiplied in one product against a
    C-contiguous copy of w.T, made per call; each position's tanh rows then
    meet v in their own product. In float32 on one OpenBLAS 0.3.31 thread
    (x86_64, Haswell kernels), a paper-size BCAInvar taped forward over 32
    rows took 38 ms this way against 49-52 ms with one product per position
    against the view, whose gate products also read the view. With no tape active the scores come from _eval_scores (the
    eval rule in the module docstring).
    """
    summary, hid, w, v = target_summary.value, hiddens.value, params.w.value, params.v.value
    rows, k = summary.shape if summary.ndim == 2 else (None, 0)
    if hid.ndim != 3 or not hid.shape[0] or hid.shape[1:] != (rows, w.shape[1] - k) or v.shape != (w.shape[0],):
        raise ShapeError(f"additive_attention_batch: summary {summary.shape}, hiddens {hid.shape}, w {w.shape}")
    n, tape = hid.shape[0], active_tape()
    if tape is None:
        scores = _eval_scores(summary, hid, w, v)
    else:
        z = np.concatenate([np.broadcast_to(summary, (n, rows, k)), hid], axis=2)  # position-major
        t = (z.reshape(n * rows, -1) @ np.ascontiguousarray(w.T)).reshape(n, rows, -1)
        np.tanh(t, out=t)
        scores = np.stack([t[j] @ v for j in range(n)], axis=1)
    p = softmax_values(scores, mask)
    total = hid[0] * p[:, 0, None]
    for j in range(1, n):
        total = total + hid[j] * p[:, j, None]
    out = AttentionOutput(s=Tensor(total), alpha=Tensor(p))

    def backward(gs, galpha):
        gh = np.empty_like(hid)  # every position's score path adds to it
        if gs is not None:
            galpha = np.zeros_like(p) if galpha is None else galpha
            for j in range(n):
                gh[j] = gs * p[:, j, None]
                galpha[:, j] += (gs * hid[j]).sum(axis=1)
        gscore = softmax_input_grad(p, galpha)
        for j in range(n - 1, -1, -1):
            g = np.array(gscore[:, j])  # a copy, as the per-op column's accum made
            params.v.accum(t[j].T @ g)
            ga = np.outer(g, v) * (1.0 - t[j] * t[j])
            gz = ga @ w
            accum_product(params.w, ga, z[j])
            target_summary.accum(gz[:, :k])
            gh[j] = gz[:, k:] if gs is None else gh[j] + gz[:, k:]
        hiddens.accum(gh)

    if tape is not None:
        tape.record((out.s, out.alpha), backward)
    return out


EVAL_POSITIONS_PER_PRODUCT = 8


def _eval_scores(summary: np.ndarray, hiddens: np.ndarray, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """additive_attention_batch's (rows, positions) scores with no tape:
    v . tanh(q + h_j @ w_h.T), where w = [w_s w_h] splits at the summary's
    width and q = summary @ w_s.T is computed once. The positions' products
    are stacked, EVAL_POSITIONS_PER_PRODUCT at a time, each a reshaped slice
    of the (positions, rows, dim) hiddens, which bounds the scratch arrays.

    Both products read views of w: in float32 on one OpenBLAS 0.3.31 thread
    (x86_64, Haswell kernels), a paper-size pool of 32 rows and 20 positions
    took 2.7-3.3 ms this way against 3.1-3.5 ms with contiguous copies of the
    two transposes, whose making costs more than it saves, and 7-8 ms with
    one [summary; h_j] product per position against a contiguous w.T.
    """
    (rows, k), (n, _, d) = summary.shape, hiddens.shape
    q = summary @ w[:, :k].T
    wt_h = w[:, k:].T
    scores = np.empty((rows, n), dtype=summary.dtype)
    for lo in range(0, n, EVAL_POSITIONS_PER_PRODUCT):
        chunk = hiddens[lo : lo + EVAL_POSITIONS_PER_PRODUCT]
        a = (chunk.reshape(-1, d) @ wt_h).reshape(len(chunk), rows, -1)  # position-major
        a += q
        np.tanh(a, out=a)
        scores[:, lo : lo + len(chunk)] = (a @ v).T
    return scores


def max_pool_encode_batch(hiddens: Tensor, mask: np.ndarray) -> Tensor:
    """Coordinatewise max over each row's real positions of the (positions,
    batch, dim) sequence hiddens. mask is (batch, positions) and position 0
    must be real; padded rows keep their running max.

    One tape node that replays the per-op chain, bit for bit: m_j =
    maximum(m_{j-1}, h_j), blended back to m_{j-1} on the rows padded at j.
    A tie sends the gradient to m_{j-1}, so to the earliest position.
    """
    if not mask[:, 0].all():
        raise ValueError("max_pool_encode_batch: padding must be trailing")
    hid, taped = hiddens.value, active_tape() is not None
    out, chain = hid[0], []  # per position j >= 1 on a tape: (running max won, blend column or None)
    for j in range(1, hid.shape[0]):
        col = None if mask[:, j].all() else np.asarray(mask[:, j], dtype=bool)[:, None]
        cand = np.maximum(out, hid[j])
        if taped:
            chain.append((out >= hid[j], col))
        out = cand if col is None else np.where(col, cand, out)

    def backward(g):
        gh = np.empty_like(hid)
        for j in range(len(chain), 0, -1):
            take, col = chain[j - 1]
            g_cand, g_old = (g, None) if col is None else (g * col, g * ~col)
            gh[j] = g_cand * ~take
            g = _plus(g_old, g_cand * take)
        gh[0] = g
        hiddens.accum(gh)

    return _record(Tensor(out), backward)


def grl(x: Tensor) -> Tensor:
    """Gradient reversal: identity forward, exact negation backward."""
    out = Tensor(x.value.copy())

    def backward(g):
        x.accum(-g)

    return _record(out, backward)
