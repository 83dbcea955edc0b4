import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stancegen.tensor as T
from stancegen.errors import ShapeError
from stancegen.layers import (
    AttentionParams,
    Dropout,
    LSTMParams,
    LSTMState,
    additive_attention_batch,
    run_lstm_batch,
)
from stancegen.tensor import (
    Tape,
    Tensor,
    add,
    add_rowvec,
    blend_rows,
    concat_cols,
    dropout,
    finite_difference_check,
    matmul_t,
    matvec,
    maximum,
    mul,
    nll_sum,
    relu,
    scale,
    softmax_rows,
    sum_all,
    tensor,
    zero_grads,
)


def t64(values):
    return tensor(values, dtype=np.float64)


# ---------------------------------------------------------------- unary ops


def test_tanh_at_zero():
    assert tanh_value([0.0]) == [0.0]


def tanh_value(v):
    return list(T.tanh(t64(v)).value)


def test_relu_clips_negatives():
    assert list(relu(t64([-1.0, 2.0])).value) == [0.0, 2.0]


def test_scale_values():
    assert list(scale(t64([1.0, 2.0]), 3.0).value) == [3.0, 6.0]
    assert list(scale(t64([1.0, -2.0]), -1.0).value) == [-1.0, 2.0]


# --------------------------------------------------------------- binary ops


def test_add_mul_sub_examples():
    assert list(add(t64([1, 2]), t64([3, 4])).value) == [4, 6]
    assert list(mul(t64([2, 3]), t64([0, 1])).value) == [0, 3]
    # subtraction is an add of a negation
    assert list(add(t64([3, 1]), scale(t64([1, 1]), -1.0)).value) == [2, 0]


def test_binary_shape_mismatch_reports_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2,\).*\(3,\)"):
        add(t64([1, 2]), t64([1, 2, 3]))


def test_maximum_tie_routes_gradient_to_first():
    a, b = t64([2.0, 2.0]), t64([2.0, 2.0])
    with Tape("float64") as tape:
        tape.backward(sum_all(maximum(a, b)))
    assert list(a.grad) == [1.0, 1.0]
    assert list(b.grad) == [0.0, 0.0]


# ------------------------------------------------------------------ matvec


def test_matvec_examples():
    assert list(matvec(t64([[1, 2], [3, 4]]), t64([1, 1])).value) == [3, 7]
    assert list(matvec(t64(np.eye(2)), t64([5, -5])).value) == [5, -5]
    assert list(matvec(t64(np.zeros((2, 2))), t64([9, 9])).value) == [0, 0]


def test_matvec_dimension_mismatch():
    with pytest.raises(ShapeError):
        matvec(t64([[1, 2]]), t64([1, 2, 3]))


# ------------------------------------------------------------------ concat


def test_concat_examples():
    assert concat_cols([t64([[1], [4]]), t64([[2, 3], [5, 6]])]).value.tolist() == [[1, 2, 3], [4, 5, 6]]
    assert concat_cols([t64([[7, 8]])]).value.tolist() == [[7, 8]]
    with pytest.raises(ValueError):
        concat_cols([])
    with pytest.raises(ShapeError):
        concat_cols([t64([[1]]), t64([[1], [2]])])


# ----------------------------------------------------------------- softmax


def test_softmax_symmetry():
    assert np.allclose(softmax_rows(t64([[0.0, 0.0, 0.0]])).value, [[1 / 3] * 3], atol=1e-12)


def test_softmax_hand_derived():
    # exp(0) = 1 and exp(ln 3) = 3, so the normalized outputs are 1/4 and 3/4
    p = softmax_rows(t64([[0.0, np.log(3.0)], [np.log(3.0), 0.0]])).value
    assert np.allclose(p, [[0.25, 0.75], [0.75, 0.25]], atol=1e-12)


def test_softmax_single_unmasked_position():
    p = softmax_rows(t64([[5.0, 1.0]]), mask=np.array([[True, False]])).value
    assert p[0, 0] == 1.0 and p[0, 1] == 0.0


def test_softmax_all_masked_raises():
    with pytest.raises(ValueError, match="masked"):
        softmax_rows(t64([[1.0, 2.0], [3.0, 4.0]]), mask=np.array([[True, True], [False, False]]))


def test_softmax_masked_positions_get_zero_gradient():
    x = t64([[1.0, 50.0, 2.0]])
    with Tape("float64") as tape:
        p = softmax_rows(x, mask=np.array([[True, False, True]]))
        tape.backward(sum_all(mul(p, t64([[1.0, 5.0, -2.0]]))))
    assert x.grad[0, 1] == 0.0
    assert x.grad[0, 0] != 0.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8))
def test_softmax_sums_to_one(vals):
    p = softmax_rows(t64([vals])).value
    assert abs(p.sum() - 1.0) < 1e-9
    assert ((p >= 0.0) & (p <= 1.0)).all()


# ---------------------------------------------------------------- backward


def test_backward_sum_of_squares():
    x = t64([3.0])
    with Tape("float64") as tape:
        tape.backward(sum_all(mul(x, x)))
    assert list(x.grad) == [6.0]


def test_backward_constant_root_leaves_grads_lazily_zero():
    x = t64([3.0])
    c = t64([1.0])
    with Tape("float64") as tape:
        tape.backward(sum_all(c))
    assert x.grad is None  # unreachable: gradient never materialized


def test_backward_tanh_at_zero():
    x = t64([0.0])
    with Tape("float64") as tape:
        tape.backward(sum_all(T.tanh(x)))
    assert list(x.grad) == [1.0]


def test_backward_rejects_non_scalar_root():
    x = t64([1.0, 2.0])
    with Tape("float64") as tape:
        y = add(x, x)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(y)


def _two_output_node(x, calls):
    """A node with outputs 2x and 3x that logs the gradients it is given."""
    a, b = Tensor(x.value * 2.0), Tensor(x.value * 3.0)

    def backward(ga, gb):
        calls.append((ga, gb))
        for g, k in ((ga, 2.0), (gb, 3.0)):
            if g is not None:
                x.accum(g * k)

    T._record((a, b), backward)
    return a, b


@pytest.mark.parametrize("used", ["first", "second", "both", "neither"])
def test_multi_output_node_runs_when_any_output_has_a_gradient(used):
    x = t64([1.0, -2.0])
    calls = []
    with Tape("float64") as tape:
        a, b = _two_output_node(x, calls)
        roots = {"first": [a], "second": [b], "both": [a, b], "neither": [x]}[used]
        root = sum_all(roots[0]) if len(roots) == 1 else add(sum_all(roots[0]), sum_all(roots[1]))
        tape.backward(root)
    assert len(tape) == 2 * len(roots)  # one node for both outputs, then the sums
    if used == "neither":
        assert calls == []  # skipped: no output has a gradient
        assert list(x.grad) == [1.0, 1.0]
        return
    (ga, gb), = calls
    assert (ga is None, gb is None) == (used == "second", used == "first")
    expected = {"first": 2.0, "second": 3.0, "both": 5.0}[used]
    assert list(x.grad) == [expected, expected]


def test_multi_output_node_checks_every_output_precision():
    with Tape("float32"):
        with pytest.raises(ValueError, match="precision"):
            T._record((Tensor(np.zeros(1, np.float32)), Tensor(np.zeros(1))), lambda ga, gb: None)


def test_fanout_gradient_is_sum_of_single_consumer_gradients():
    def consumer_a(x):
        return sum_all(mul(x, x))

    def consumer_b(x):
        return sum_all(T.tanh(x))

    vals = [0.3, -1.2, 2.0]

    x = t64(vals)
    with Tape("float64") as tape:
        tape.backward(add(consumer_a(x), consumer_b(x)))
    combined = np.array(x.grad)

    xa, xb = t64(vals), t64(vals)
    with Tape("float64") as tape:
        tape.backward(consumer_a(xa))
    with Tape("float64") as tape:
        tape.backward(consumer_b(xb))
    # association order differs between the two computations, so allow ulps
    assert np.allclose(combined, xa.grad + xb.grad, rtol=0, atol=1e-14)


# ------------------------------------------------------------------ nll_sum
#
# The reference is the chain of five tape nodes nll_sum replaced, each op's
# forward and backward as it was: select_rows, clamp_min, log, negate,
# sum_all. Every intermediate gradient passes through Tensor.accum, as it did.


def _chain_node(x, forward, backward):
    out = Tensor(forward(x.value))
    return T._record(out, lambda g: x.accum(backward(x.value, g)))


def _five_op_nll_sum(probs, idx, floor):
    rows = np.arange(probs.value.shape[0])
    picked = Tensor(probs.value[rows, idx].copy())

    def select_rows_backward(g):
        if probs.grad is None:
            probs.grad = np.zeros_like(probs.value)
        probs.grad[rows, idx] += g

    T._record(picked, select_rows_backward)
    kept = _chain_node(picked, lambda x: np.maximum(x, floor), lambda x, g: g * (x > floor))
    logs = _chain_node(kept, np.log, lambda x, g: g / x)
    negated = _chain_node(logs, lambda x: -x, lambda x, g: -g)
    return sum_all(negated)


def _nll_run(op, probs_value, idx, precision):
    probs = Tensor(probs_value.copy())
    with Tape(precision) as tape:
        # scaled as the losses scale it, so the incoming gradient is not 1
        root = scale(op(probs, idx, 1e-12), 1.0 / probs_value.shape[0])
        tape.backward(root)
    return root.value, probs.grad


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("with_nan", [False, True], ids=["finite", "nan_row"])
def test_nll_sum_matches_the_five_op_chain_bit_for_bit(precision, with_nan):
    rng = np.random.default_rng(31)
    dtype = T.PRECISIONS[precision]
    probs = rng.dirichlet(np.ones(3), size=6).astype(dtype)
    idx = np.array([0, 2, 1, 1, 0, 2])
    probs[1, 2] = 1e-15  # below the floor
    probs[4, 0] = 1.0  # exactly log 1
    if with_nan:
        probs[3] = np.nan
    fused_value, fused_grad = _nll_run(nll_sum, probs, idx, precision)
    chain_value, chain_grad = _nll_run(_five_op_nll_sum, probs, idx, precision)
    assert fused_value.dtype == chain_value.dtype == dtype
    assert fused_grad.dtype == chain_grad.dtype == dtype
    assert fused_value.tobytes() == chain_value.tobytes()
    assert fused_grad.tobytes() == chain_grad.tobytes()
    assert np.isnan(fused_value[0]) == with_nan
    assert fused_grad[1, 2] == 0.0  # no gradient below the floor


def test_nll_sum_shape_errors():
    with pytest.raises(ShapeError, match="nll_sum"):
        nll_sum(t64([0.5, 0.5]), np.array([0]), 1e-12)
    with pytest.raises(ShapeError, match="nll_sum"):
        nll_sum(t64([[0.5, 0.5]]), np.array([0, 1]), 1e-12)


# ------------------------------------------------- finite difference check


def test_fd_check_sum_of_squares():
    p = t64([1.0, -2.0, 3.0])
    assert finite_difference_check(lambda: sum_all(mul(p, p)), [p]) < 1e-8


def test_fd_check_constant_is_exact_zero():
    p = t64([1.0, 2.0])
    c = np.array([4.0])
    assert finite_difference_check(lambda: Tensor(c.copy()), [p]) == 0.0


def test_fd_check_differences_numeric_instead_of_f():
    p = t64([0.4, -0.7])
    f = lambda: sum_all(mul(p, p))
    # the same function as numeric reads exactly what f alone reads
    assert finite_difference_check(f, [p], numeric=f) == finite_difference_check(f, [p])
    # a function whose gradient is the negation is caught
    assert finite_difference_check(f, [p], numeric=lambda: scale(f(), -1.0)) > 0.99


def test_fd_check_detects_planted_backward_error(monkeypatch):
    def planted(x):
        out = T.Tensor(np.tanh(x.value))
        return T._record(out, lambda g: x.accum(g * (1.1 - out.value * out.value)))

    monkeypatch.setattr(T, "tanh", planted)
    p = t64([0.4, -0.7])
    assert finite_difference_check(lambda: sum_all(T.tanh(p)), [p]) > 1e-3


# ------------------------------------------- randomized gradient agreement
#
# One builder per op returns (f, params); the scalar head contracts the op
# output against a fixed random coefficient tensor so every coordinate of
# the output influences the root.


def _reduce(out, rng):
    # fresh fixed-seed generator: identical coefficients on every call, so
    # the wrapped function stays deterministic under repeated evaluation
    r = tensor(np.random.default_rng(12345).uniform(-1, 1, out.value.shape), dtype=np.float64)
    return sum_all(mul(out, r))


def _vec(rng, n=3, lo=-2.0, hi=2.0):
    return tensor(rng.uniform(lo, hi, n), dtype=np.float64)


def _mat(rng, r=3, c=2, lo=-2.0, hi=2.0):
    return tensor(rng.uniform(lo, hi, (r, c)), dtype=np.float64)


def _away_from(rng, n, kink, gap=0.2):
    v = rng.uniform(-2, 2, n)
    v = np.where(np.abs(v - kink) < gap, v + np.sign(v - kink + 1e-9) * gap, v)
    return tensor(v, dtype=np.float64)


def _op_catalog():
    def unary(op, make):
        def build(rng):
            x = make(rng)
            return lambda: _reduce(op(x), rng), [x]

        return build

    cases = {
        "tanh": unary(T.tanh, _vec),
        "scale": unary(lambda x: T.scale(x, 0.5), _vec),
        "relu": unary(T.relu, lambda rng: _away_from(rng, 3, 0.0)),
    }

    def binary(op):
        def build(rng):
            a, b = _vec(rng), _vec(rng)
            return lambda: _reduce(op(a, b), rng), [a, b]

        return build

    cases["add"] = binary(T.add)
    cases["mul"] = binary(T.mul)

    def build_maximum(rng):
        a = _vec(rng)
        b = tensor(a.value + rng.choice([-1, 1], a.value.shape) * rng.uniform(0.2, 1, a.value.shape), dtype=np.float64)
        return lambda: _reduce(maximum(a, b), rng), [a, b]

    cases["maximum"] = build_maximum

    def build_matvec(rng):
        w, x = _mat(rng), _vec(rng, 2)
        return lambda: _reduce(matvec(w, x), rng), [w, x]

    cases["matvec"] = build_matvec

    def build_matmul_t(rng):
        a, w = _mat(rng, 3, 2), _mat(rng, 4, 2)
        return lambda: _reduce(matmul_t(a, w), rng), [a, w]

    cases["matmul_t"] = build_matmul_t

    def build_concat_cols(rng):
        a, b = _mat(rng, 3, 2), _mat(rng, 3, 1)
        return lambda: _reduce(concat_cols([a, b]), rng), [a, b]

    cases["concat_cols"] = build_concat_cols

    def build_add_rowvec(rng):
        m, b = _mat(rng), _vec(rng, 2)
        return lambda: _reduce(add_rowvec(m, b), rng), [m, b]

    cases["add_rowvec"] = build_add_rowvec

    def build_blend_rows(rng):
        a, b = _mat(rng), _mat(rng)
        keep = rng.random(3) < 0.5
        return lambda: _reduce(blend_rows(a, b, keep), rng), [a, b]

    cases["blend_rows"] = build_blend_rows

    def nll(shape, floor, below=0):
        # entries in [0.2, 0.9], the first `below` rows' picks under the floor
        def build(rng):
            p = _mat(rng, *shape, lo=0.2, hi=0.9)
            idx = rng.integers(0, shape[1], shape[0])
            p.value[np.arange(below), idx[:below]] = 0.1
            return lambda: nll_sum(p, idx, floor), [p]

        return build

    cases["nll_sum"] = nll((3, 4), 1e-12)
    cases["nll_sum_one_row"] = nll((1, 3), 1e-12)
    cases["nll_sum_two_classes"] = nll((4, 2), 1e-12)
    cases["nll_sum_below_floor"] = nll((3, 4), 0.15, below=1)

    def build_softmax(rng):
        x = _mat(rng, 3, 4)
        return lambda: _reduce(softmax_rows(x), rng), [x]

    cases["softmax"] = build_softmax

    def build_softmax_masked(rng):
        x = _mat(rng, 1, 4)
        mask = np.array([[True, True, False, True]])
        return lambda: _reduce(softmax_rows(x, mask), rng), [x]

    cases["softmax_masked"] = build_softmax_masked

    def build_softmax_rows(rng):
        x = _mat(rng, 3, 4)
        mask = np.ones((3, 4), dtype=bool)
        mask[1, 2:] = False
        return lambda: _reduce(softmax_rows(x, mask), rng), [x]

    cases["softmax_rows"] = build_softmax_rows

    def build_sum_all(rng):
        x = _mat(rng)
        return lambda: _reduce(sum_all(x), rng), [x]

    cases["sum_all"] = build_sum_all

    # the two fused layer nodes, at random ragged shapes

    def ragged_shape(rng, widths):
        # rows and positions, 2 or 3 each, then `widths` widths of 1 to 3;
        # the mask pads trailing positions, the first row full, the last shorter
        rows, n = (int(v) for v in rng.integers(2, 4, 2))
        lengths = rng.integers(1, n + 1, rows)
        lengths[0], lengths[-1] = n, rng.integers(1, n)
        mask = np.arange(n)[None, :] < lengths[:, None]
        return (rows, n, mask, *(int(v) for v in rng.integers(1, 4, widths)))

    def build_run_lstm_batch(rng):
        rows, n, mask, width, hidden = ragged_shape(rng, 2)
        params = LSTMParams(
            **{f"w_{g}": _mat(rng, hidden, width + hidden, -1, 1) for g in "ifog"},
            **{f"b_{g}": _vec(rng, hidden, -0.5, 0.5) for g in "ifog"},
        )
        steps = [_mat(rng, rows, width, -1, 1) for _ in range(n)]
        init = LSTMState(_mat(rng, rows, hidden, -1, 1), _mat(rng, rows, hidden, -1, 1))
        reverse, rate = bool(rng.integers(2)), float(rng.choice([0.0, 0.3]))

        def f():
            # re-seeded, so every evaluation draws the same dropout masks
            drop = Dropout(rate, np.random.default_rng(5)) if rate else None
            states = run_lstm_batch(steps, mask, init, params, reverse, drop)
            return _reduce(concat_cols([t for st in states for t in (st.h, st.c)]), rng)

        return f, steps + [init.h, init.c] + [t for _, t in params.named("p")]

    cases["run_lstm_batch"] = build_run_lstm_batch

    def build_additive_attention_batch(rng):
        rows, n, mask, k, d, attn = ragged_shape(rng, 3)
        params = AttentionParams(w=_mat(rng, attn, k + d, -1, 1), v=_vec(rng, attn, -1, 1))
        summary = _mat(rng, rows, k, -1, 1)
        hiddens = [_mat(rng, rows, d, -1, 1) for _ in range(n)]

        def f():
            out = additive_attention_batch(summary, hiddens, params, mask)
            return _reduce(concat_cols([out.s, out.alpha]), rng)

        return f, [summary, params.w, params.v] + hiddens

    cases["additive_attention_batch"] = build_additive_attention_batch

    return cases


TRIALS_PER_OP = 5


@pytest.mark.parametrize("op_name", sorted(_op_catalog()))
def test_gradients_match_finite_differences(op_name):
    build = _op_catalog()[op_name]
    # crc32, not hash(): str hashes are salted per process
    rng = np.random.default_rng(zlib.crc32(op_name.encode()))
    for _ in range(TRIALS_PER_OP):
        f, params = build(rng)
        assert finite_difference_check(f, params) < 1e-5


def test_total_randomized_trials_meet_quota():
    assert TRIALS_PER_OP * len(_op_catalog()) >= 100


# ----------------------------------------------------------- determinism


def _seeded_computation():
    rng = np.random.default_rng(7)
    x = tensor(rng.uniform(-1, 1, 5), dtype=np.float64)
    w = tensor(rng.uniform(-1, 1, (4, 5)), dtype=np.float64)
    with Tape("float64") as tape:
        h = T.tanh(matvec(w, x))
        d = dropout(h, 0.5, np.random.default_rng(11))
        root = sum_all(mul(d, d))
        tape.backward(root)
    return root.value.copy(), x.grad.copy(), w.grad.copy()

def test_identical_seeds_give_bitwise_identical_results():
    r1, x1, w1 = _seeded_computation()
    r2, x2, w2 = _seeded_computation()
    assert np.array_equal(r1, r2)
    assert np.array_equal(x1, x2)
    assert np.array_equal(w1, w2)


# -------------------------------------------------------- precision modes


def test_float32_tape_produces_float32_and_leaf_default_follows_tape():
    with Tape("float32"):
        x = tensor([1.0, 2.0])
        assert x.value.dtype == np.float32
        y = T.tanh(x)
        assert y.value.dtype == np.float32


def test_mixed_precision_on_one_tape_rejected():
    with Tape("float32"):
        x = tensor([1.0], dtype=np.float64)
        with pytest.raises(ValueError, match="precision"):
            T.tanh(x)


def test_unknown_precision_rejected():
    with pytest.raises(ValueError):
        Tape("float16")


# ------------------------------------------------- batched op equivalence


def test_matmul_t_matches_per_row_matvec():
    rng = np.random.default_rng(3)
    a, w = _mat(rng, 4, 3), _mat(rng, 5, 3)
    batched = matmul_t(a, w).value
    for i in range(4):
        row = matvec(w, tensor(a.value[i], dtype=np.float64)).value
        assert np.allclose(batched[i], row, atol=1e-14)


def test_softmax_rows_matches_per_row_softmax():
    rng = np.random.default_rng(4)
    x = _mat(rng, 3, 5)
    mask = rng.random((3, 5)) < 0.7
    mask[:, 0] = True
    batched = softmax_rows(x, mask).value
    for i in range(3):
        e = np.exp(x.value[i, mask[i]] - x.value[i, mask[i]].max())
        row = np.zeros(5)
        row[mask[i]] = e / e.sum()
        assert np.allclose(batched[i], row, atol=1e-14)
        assert not batched[i, ~mask[i]].any()


def test_dropout_no_tape_runs_value_only(monkeypatch):
    def record(*args):
        raise AssertionError("an op recorded a node with no tape active")

    monkeypatch.setattr(Tape, "record", record)
    x = tensor([1.0, 2.0, 3.0], dtype=np.float64)
    out = dropout(x, 0.5, np.random.default_rng(0))
    assert out.value.shape == (3,)
    assert out.grad is None
