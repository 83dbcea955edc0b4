"""The fused LSTM cell against the per-op cell it replaced, bit for bit.

`reference_lstm_step_batch` and `reference_step` are the per-op LSTM step
and the body of `run_lstm_batch`'s loop as they were before the cell became
one tape node, copied verbatim (with `reference_sigmoid`, the tensor op the
old step called). Every value and every gradient the fused cell produces must
have the same bytes.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from stancegen.layers import Dropout, LSTMParams, LSTMState, lstm_step_batch, run_lstm_batch
from stancegen.tensor import (
    PRECISIONS,
    Tape,
    Tensor,
    _record,
    add,
    add_rowvec,
    blend_rows,
    concat_cols,
    matmul_t,
    mul,
    sum_all,
    tanh,
)

# ------------------------------------------------------- the per-op oracle


def reference_sigmoid(x: Tensor) -> Tensor:
    # tanh formulation avoids exp overflow for large |x|
    out = Tensor(0.5 * (1.0 + np.tanh(0.5 * x.value)))

    def backward(g):
        x.accum(g * out.value * (1.0 - out.value))

    return _record(out, backward)


def reference_lstm_step_batch(x: Tensor, prev: LSTMState, params: LSTMParams) -> LSTMState:
    """Batched LSTM step over (batch, dim) rows."""
    z = concat_cols([x, prev.h])
    i = reference_sigmoid(add_rowvec(matmul_t(z, params.w_i), params.b_i))
    f = reference_sigmoid(add_rowvec(matmul_t(z, params.w_f), params.b_f))
    o = reference_sigmoid(add_rowvec(matmul_t(z, params.w_o), params.b_o))
    g = tanh(add_rowvec(matmul_t(z, params.w_g), params.b_g))
    c = add(mul(f, prev.c), mul(i, g))
    h = mul(o, tanh(c))
    return LSTMState(h, c)


def reference_step(x, prev, params, drop, keep):
    """One iteration of the old run_lstm_batch loop; also returns the h the
    gates read."""
    step_in = prev if drop is None else LSTMState(drop(prev.h), prev.c)
    new = reference_lstm_step_batch(x, step_in, params)
    if keep.all():
        prev = new
    else:
        prev = LSTMState(blend_rows(new.h, prev.h, keep), blend_rows(new.c, prev.c, keep))
    return prev, step_in.h


def fused_step(x, prev, params, drop, keep):
    h_in = None if drop is None else drop(prev.h)
    out = lstm_step_batch(x, prev, params, h_in=h_in, keep=keep)
    return out, prev.h if h_in is None else h_in


# ------------------------------------------------------------------ helpers

PARAM_NAMES = ("w_i", "w_f", "w_o", "w_g", "b_i", "b_f", "b_o", "b_g")
DIMS = [(6, 4), (8, 6), (100, 200)]  # (input, hidden)
ROWS = [1, 2, 3, 4, 5, 32]


def masks(rows):
    part = np.arange(rows) % 3 != 1
    return {"all": np.ones(rows, bool), "part": part, "none": np.zeros(rows, bool)}


def weighted(t: Tensor, coeffs: np.ndarray) -> Tensor:
    return sum_all(mul(t, Tensor(coeffs)))


class Case:
    """Fresh leaves built from fixed arrays, so both cells start equal."""

    def __init__(self, rng, dtype, rows, input_dim, hidden):
        init = LSTMParams.init(input_dim, hidden, rng, dtype)
        self.params = {name: getattr(init, name).value for name in PARAM_NAMES}
        for name in PARAM_NAMES[4:]:
            self.params[name] = rng.uniform(-0.5, 0.5, hidden).astype(dtype)
        self.x = rng.uniform(-1, 1, (rows, input_dim)).astype(dtype)
        self.h = rng.uniform(-1, 1, (rows, hidden)).astype(dtype)
        self.c = rng.uniform(-2, 2, (rows, hidden)).astype(dtype)
        self.coeffs = [rng.uniform(-1.5, 1.5, (rows, hidden)).astype(dtype) for _ in range(4)]

    def leaves(self):
        params = LSTMParams(**{k: Tensor(v.copy()) for k, v in self.params.items()})
        return Tensor(self.x.copy()), LSTMState(Tensor(self.h.copy()), Tensor(self.c.copy())), params


def assert_same_bits(name, a, b):
    if a is None or b is None:
        assert a is None and b is None, f"{name}: one gradient is None"
        return
    assert a.dtype == b.dtype and a.shape == b.shape, name
    assert a.tobytes() == b.tobytes(), f"{name} differs at {np.argwhere(a != b)[:5].tolist()}"


def run_one(step, case, precision, drop_rate, keep, carry):
    x, prev, params = case.leaves()
    drop = None if drop_rate == 0.0 else Dropout(drop_rate, np.random.default_rng(9))
    with Tape(precision) as tape:
        out, h_in = step(x, prev, params, drop, keep)
        terms = []
        if "h" in carry:
            terms.append(weighted(out.h, case.coeffs[0]))
        if "c" in carry:
            terms.append(weighted(out.c, case.coeffs[1]))
        root = terms[0] if len(terms) == 1 else add(*terms)
        tape.backward(root)
    grads = {"x": x.grad, "h_in": h_in.grad, "prev.h": prev.h.grad, "prev.c": prev.c.grad}
    grads.update({name: getattr(params, name).grad for name in PARAM_NAMES})
    return out, grads


# ----------------------------------------------------------------- one step


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("input_dim,hidden", DIMS)
@pytest.mark.parametrize("rows", ROWS)
def test_step_matches_the_per_op_cell(precision, input_dim, hidden, rows):
    rng = np.random.default_rng([rows, input_dim, hidden])
    case = Case(rng, PRECISIONS[precision], rows, input_dim, hidden)
    for (mask_name, keep), drop_rate, carry in itertools.product(
        masks(rows).items(), (0.0, 0.3), ("h", "c", "hc")
    ):
        label = f"mask={mask_name} drop={drop_rate} carry={carry}"
        fused, fused_grads = run_one(fused_step, case, precision, drop_rate, keep, carry)
        ref, ref_grads = run_one(reference_step, case, precision, drop_rate, keep, carry)
        assert_same_bits(f"h {label}", fused.h.value, ref.h.value)
        assert_same_bits(f"c {label}", fused.c.value, ref.c.value)
        for name in ref_grads:
            assert_same_bits(f"{name}.grad {label}", fused_grads[name], ref_grads[name])
        if carry == "c":
            # only c carries gradient: the o gate is skipped, as per op
            assert fused_grads["w_o"] is None and fused_grads["b_o"] is None, label


# ------------------------------------------------------------ chained steps


def run_chain(step, case, precision, keeps, drop_rate):
    x, prev, params = case.leaves()
    x2 = Tensor(case.x[::-1].copy())
    drop = None if drop_rate == 0.0 else Dropout(drop_rate, np.random.default_rng(9))
    with Tape(precision) as tape:
        s1, _ = step(x, prev, params, drop, keeps[0])
        s2, _ = step(x2, s1, params, drop, keeps[1])
        # every state also feeds the root directly, so c1 sums three terms:
        # the root's share, the second step's f*c share, then its own tanh(c)
        root = weighted(s2.h, case.coeffs[0])
        for t, k in ((s2.c, 1), (s1.h, 2), (s1.c, 3)):
            root = add(root, weighted(t, case.coeffs[k]))
        tape.backward(root)
    tensors = {"x": x, "x2": x2, "prev.h": prev.h, "prev.c": prev.c}
    tensors.update({name: getattr(params, name) for name in PARAM_NAMES})
    return {name: t.grad for name, t in tensors.items()}, s2


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("input_dim,hidden", DIMS)
@pytest.mark.parametrize("first,second", [("all", "all"), ("all", "part"), ("part", "none"), ("part", "part")])
@pytest.mark.parametrize("drop_rate", [0.0, 0.3])
def test_two_chained_steps_match_the_per_op_cell(precision, input_dim, hidden, first, second, drop_rate):
    rng = np.random.default_rng([input_dim, hidden, 2])
    case = Case(rng, PRECISIONS[precision], 32, input_dim, hidden)
    keeps = (masks(32)[first], masks(32)[second])
    fused, fused_s2 = run_chain(fused_step, case, precision, keeps, drop_rate)
    ref, ref_s2 = run_chain(reference_step, case, precision, keeps, drop_rate)
    assert_same_bits("h2", fused_s2.h.value, ref_s2.h.value)
    assert_same_bits("c2", fused_s2.c.value, ref_s2.c.value)
    for name in ref:
        assert_same_bits(f"{name}.grad", fused[name], ref[name])


def test_run_lstm_batch_matches_the_per_op_loop():
    # a padded float32 batch at the encoder's 6-wide size, both directions,
    # with recurrent dropout: the whole loop against chained per-op steps
    rng = np.random.default_rng(4)
    case = Case(rng, np.float32, 5, 8, 6)
    steps_values = [rng.uniform(-1, 1, (5, 8)).astype(np.float32) for _ in range(4)]
    mask = np.array([[True] * 4, [True] * 3 + [False], [True] * 2 + [False] * 2, [True] + [False] * 3, [True] * 4])
    for reverse in (False, True):
        results = []
        for fused in (True, False):
            _, init, params = case.leaves()
            steps = [Tensor(v.copy()) for v in steps_values]
            drop = Dropout(0.25, np.random.default_rng(3))
            with Tape("float32") as tape:
                if fused:
                    states = run_lstm_batch(steps, mask, init, params, reverse=reverse, drop=drop)
                else:
                    states, prev = [None] * 4, init
                    for t in (range(3, -1, -1) if reverse else range(4)):
                        prev, _ = reference_step(steps[t], prev, params, drop, mask[:, t])
                        states[t] = prev
                root = weighted(states[0 if reverse else -1].h, case.coeffs[0])
                tape.backward(root)
            grads = [s.grad for s in steps] + [init.h.grad, init.c.grad]
            grads += [getattr(params, name).grad for name in PARAM_NAMES]
            results.append(([s.h.value for s in states], grads))
        (fused_h, fused_g), (ref_h, ref_g) = results
        for a, b in zip(fused_h + fused_g, ref_h + ref_g):
            assert_same_bits(f"reverse={reverse}", a, b)
