"""The fused LSTM run against the per-op steps it replaced, bit for bit.

`reference_lstm_step_batch`, `reference_step` and `reference_run` are the
per-op LSTM step, the body of `run_lstm_batch`'s loop and the loop itself as
they were before each step became one tape node, copied verbatim (with
`reference_sigmoid` and `blend_rows`, the tensor ops the old step called),
but for one operand: each gate product goes through `matmul_ct`, which
multiplies against the C-contiguous copy of w.T that the run reads, where
`tensor.matmul_t` reads the view. The run is now one tape node for all of
its steps, over a (positions, batch, input) sequence, so a single step is a
one-step run. The per-op code reads and writes per-position (batch, dim)
tensors; it reaches the sequence layout only through the `stack` and
`unstack` adapters of tests/sequences.py. Every value and every gradient
the run produces must have the same bytes.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from sequences import stack, unstack
from stancegen.errors import ShapeError
from stancegen.layers import Dropout, LSTMParams, LSTMState, run_lstm_batch, zero_state_batch
from stancegen.tensor import (
    PRECISIONS,
    Tape,
    Tensor,
    _record,
    add,
    add_rowvec,
    concat_cols,
    mul,
    sum_all,
    tanh,
)

# ------------------------------------------------------- the per-op oracle


def blend_rows(new: Tensor, old: Tensor, keep_new: np.ndarray) -> Tensor:
    """Per-row select: rows where keep_new is true come from `new`, else `old`."""
    if new.value.shape != old.value.shape or new.value.ndim != 2:
        raise ShapeError(f"blend_rows: {new.value.shape} vs {old.value.shape}")
    keep = np.asarray(keep_new, dtype=bool)
    if keep.shape != (new.value.shape[0],):
        raise ShapeError(f"blend_rows: mask {keep.shape}")
    col = keep[:, None]
    out = Tensor(np.where(col, new.value, old.value))

    def backward(g):
        new.accum(g * col)
        old.accum(g * ~col)

    return _record(out, backward)


def matmul_ct(a: Tensor, w: Tensor) -> Tensor:
    """tensor.matmul_t with the forward product against a C-contiguous copy
    of w.T instead of the view; the same backward."""
    out = Tensor(a.value @ np.ascontiguousarray(w.value.T))

    def backward(g):
        a.accum(g @ w.value)
        w.accum(g.T @ a.value)

    return _record(out, backward)


def reference_sigmoid(x: Tensor) -> Tensor:
    # tanh formulation avoids exp overflow for large |x|
    out = Tensor(0.5 * (1.0 + np.tanh(0.5 * x.value)))

    def backward(g):
        x.accum(g * out.value * (1.0 - out.value))

    return _record(out, backward)


def reference_lstm_step_batch(x: Tensor, prev: LSTMState, params: LSTMParams) -> LSTMState:
    """Batched LSTM step over (batch, dim) rows."""
    z = concat_cols([x, prev.h])
    i = reference_sigmoid(add_rowvec(matmul_ct(z, params.w_i), params.b_i))
    f = reference_sigmoid(add_rowvec(matmul_ct(z, params.w_f), params.b_f))
    o = reference_sigmoid(add_rowvec(matmul_ct(z, params.w_o), params.b_o))
    g = tanh(add_rowvec(matmul_ct(z, params.w_g), params.b_g))
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


def reference_run(steps, mask, init, params, reverse, drop):
    """The old run_lstm_batch: one per-op step per position."""
    states, prev = [None] * len(steps), init
    for t in reversed(range(len(steps))) if reverse else range(len(steps)):
        prev, _ = reference_step(steps[t], prev, params, drop, mask[:, t])
        states[t] = prev
    return states


# ---------------------------------------------------------- layout adapters


def reference_run_batch(steps, mask, init, params, reverse, drop):
    """reference_run on the sequence layout, returning run_lstm_batch's
    (hs, final): the state of the last processed step is final."""
    states = reference_run(unstack(steps), mask, init, params, reverse, drop)
    return stack([st.h for st in states]), states[0 if reverse else -1]


def fused_step(x, prev, params, drop, keep):
    # the dropped h the gates read is internal to the run: no tensor holds it
    return run_lstm_batch(stack([x]), keep[:, None], prev, params, drop=drop)[1], None


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
        out, _ = step(x, prev, params, drop, keep)
        terms = []
        if "h" in carry:
            terms.append(weighted(out.h, case.coeffs[0]))
        if "c" in carry:
            terms.append(weighted(out.c, case.coeffs[1]))
        root = terms[0] if len(terms) == 1 else add(*terms)
        tape.backward(root)
    grads = {"x": x.grad, "prev.h": prev.h.grad, "prev.c": prev.c.grad}
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


# ---------------------------------------------------------------- whole runs


def ragged_mask(rows, n):
    # trailing padding; row lengths cycle n, n-1, ..., 1
    lengths = [n - i % n for i in range(rows)]
    return np.arange(n)[None, :] < np.array(lengths)[:, None]


def readout(hs, final, coeffs, which):
    """A scalar root over the run's outputs. "all" reads every h, then the
    final h and c, so the last processed step's h sums two outside shares
    before the run's own; "final" reads the final h; "hs" reads every
    position's h but not the final state's outputs."""
    positions = np.stack([coeffs[2 + k % 2] for k in range(hs.value.shape[0])])
    if which == "final":
        return weighted(final.h, coeffs[0])
    root = weighted(hs, positions)
    if which == "all":
        root = add(root, weighted(final.h, coeffs[0]))
        root = add(root, weighted(final.c, coeffs[1]))
    return root


def run_both(case, precision, n, reverse, drop_rate, which):
    rng = np.random.default_rng(n)
    rows, input_dim = case.x.shape
    steps_values = rng.uniform(-1, 1, (n, rows, input_dim)).astype(case.x.dtype)
    mask = ragged_mask(rows, n)
    results = []
    for run in (run_lstm_batch, reference_run_batch):
        _, init, params = case.leaves()
        steps = Tensor(steps_values.copy())
        drop = None if drop_rate == 0.0 else Dropout(drop_rate, np.random.default_rng(3))
        with Tape(precision) as tape:
            hs, final = run(steps, mask, init, params, reverse, drop)
            tape.backward(readout(hs, final, case.coeffs, which))
        values = [hs.value, final.h.value, final.c.value]
        grads = [steps.grad, init.h.grad, init.c.grad]
        grads += [getattr(params, name).grad for name in PARAM_NAMES]
        results.append(values + grads)
    return results


def test_run_lstm_batch_matches_the_per_op_loop():
    # from a non-zero initial state, both directions, dropout off and on,
    # one step and several, every output read or only some
    for precision, (input_dim, hidden), rows in itertools.product(PRECISIONS, DIMS[:2], (1, 5, 32)):
        case = Case(np.random.default_rng([rows, hidden, 4]), PRECISIONS[precision], rows, input_dim, hidden)
        for n, reverse, drop_rate, which in itertools.product(
            (1, 4), (False, True), (0.0, 0.3), ("all", "final", "hs")
        ):
            fused, ref = run_both(case, precision, n, reverse, drop_rate, which)
            label = f"{precision} {input_dim}x{hidden} rows={rows} n={n} reverse={reverse} drop={drop_rate} {which}"
            assert len(fused) == len(ref), label
            for k, (a, b) in enumerate(zip(fused, ref)):
                assert_same_bits(f"entry {k} {label}", a, b)


@pytest.mark.parametrize("reverse", [False, True])
def test_paper_size_run_matches_the_per_op_loop(reverse):
    case = Case(np.random.default_rng(5), np.float32, 32, 100, 200)
    fused, ref = run_both(case, "float32", 5, reverse, 0.3, "all")
    for k, (a, b) in enumerate(zip(fused, ref)):
        assert_same_bits(f"entry {k}", a, b)


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("drop_rate", [0.0, 0.3])
def test_conditional_chain_matches_the_per_op_loop(precision, drop_rate):
    # the model's conditional encoding: the target runs start from zero
    # states and their final states seed the sentence runs, so the target
    # runs' last outputs take gradients from the sentence runs and the root
    dtype = PRECISIONS[precision]
    rng = np.random.default_rng(6)
    rows, input_dim, hidden = 5, 8, 6
    cases = [Case(rng, dtype, rows, input_dim, hidden) for _ in range(4)]
    t_values = rng.uniform(-1, 1, (3, rows, input_dim)).astype(dtype)
    s_values = rng.uniform(-1, 1, (4, rows, input_dim)).astype(dtype)
    t_mask, s_mask = ragged_mask(rows, 3), ragged_mask(rows, 4)
    coeffs = [rng.uniform(-1.5, 1.5, (rows, hidden)).astype(dtype) for _ in range(4)]
    fwd_coeffs = np.stack([coeffs[k % 2] for k in range(4)])
    bwd_coeffs = np.stack([coeffs[2 + k % 2] for k in range(4)])
    results = []
    for run in (run_lstm_batch, reference_run_batch):
        params = [case.leaves()[2] for case in cases]
        t_steps = Tensor(t_values.copy())
        s_steps = Tensor(s_values.copy())
        drop = None if drop_rate == 0.0 else Dropout(drop_rate, np.random.default_rng(7))
        with Tape(precision) as tape:
            zero = zero_state_batch(rows, hidden, dtype)
            t_fwd = run(t_steps, t_mask, zero, params[0], False, drop)
            t_bwd = run(t_steps, t_mask, zero, params[1], True, drop)
            s_fwd = run(s_steps, s_mask, t_fwd[1], params[2], False, drop)
            s_bwd = run(s_steps, s_mask, t_bwd[1], params[3], True, drop)
            root = add(weighted(t_fwd[1].h, coeffs[0]), weighted(t_bwd[1].h, coeffs[1]))
            root = add(root, add(weighted(s_fwd[0], fwd_coeffs), weighted(s_bwd[0], bwd_coeffs)))
            tape.backward(root)
        values = [hs.value for hs, _ in (t_fwd, t_bwd, s_fwd, s_bwd)]
        values += [part.value for _, final in (t_fwd, t_bwd, s_fwd, s_bwd) for part in (final.h, final.c)]
        grads = [t_steps.grad, s_steps.grad]
        grads += [getattr(p, name).grad for p in params for name in PARAM_NAMES]
        results.append(values + grads)
    for k, (a, b) in enumerate(zip(*results)):
        assert_same_bits(f"entry {k}", a, b)
