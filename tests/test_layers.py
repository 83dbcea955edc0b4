import numpy as np
import pytest

from stancegen.layers import (
    AttentionParams,
    Dropout,
    EncoderParams,
    LSTMParams,
    LSTMState,
    additive_attention_batch,
    bilstm_encode_batch,
    grl,
    max_pool_encode_batch,
    run_lstm_batch,
    zero_state_batch,
)
from stancegen.errors import ShapeError
from stancegen.tensor import (
    Tape,
    add,
    concat_cols,
    finite_difference_check,
    matvec,
    mul,
    sum_all,
    tanh,
    tensor,
)

F64 = np.float64


def t64(values):
    return tensor(values, dtype=F64)


def contract(out, probe):
    """Scalar sum of out * probe, the head every gradient test backpropagates."""
    return sum_all(mul(out, t64(probe)))


def zero_lstm_params(input_dim, hidden, forget_bias=0.0):
    def w():
        return t64(np.zeros((hidden, input_dim + hidden)))

    def b(fill=0.0):
        return t64(np.full(hidden, fill))

    return LSTMParams(w_i=w(), w_f=w(), w_o=w(), w_g=w(), b_i=b(), b_f=b(forget_bias), b_o=b(), b_g=b())


def rand_lstm_params(input_dim, hidden, rng):
    return LSTMParams.init(input_dim, hidden, rng, F64)


def param_list(p):
    return [t for _, t in p.named("p")]


def _pad_batch(seqs, dim):
    """Per-position (batch, dim) steps and the (batch, positions) mask of a
    ragged batch with trailing zero padding."""
    n = max(len(s) for s in seqs)
    batch = len(seqs)
    steps = np.zeros((n, batch, dim))
    mask = np.zeros((batch, n), dtype=bool)
    for i, s in enumerate(seqs):
        for t, v in enumerate(s):
            steps[t, i] = v
            mask[i, t] = True
    return [t64(steps[t]) for t in range(n)], mask


def bilstm_hiddens(steps, mask, fwd, bwd, drop=None, init=None):
    """Per-position [h_fwd; h_bwd] rows of one bilstm_encode_batch call."""
    f, b = bilstm_encode_batch(steps, mask, fwd, bwd, drop, init)
    return [concat_cols([fj.h, bj.h]) for fj, bj in zip(f, b)]


def conditional_encode(t_steps, t_mask, s_steps, s_mask, enc, drop=None):
    """Conditional encoding as the model runs it: the sentence pair starts
    from the target pair's final states. Returns the sentence's per-position
    rows and the target summary [h_fwd_last; h_bwd_first]."""
    t_fwd, t_bwd = bilstm_encode_batch(t_steps, t_mask, enc.target_fwd, enc.target_bwd, drop)
    init = (t_fwd[-1], t_bwd[0])
    hiddens = bilstm_hiddens(s_steps, s_mask, enc.sent_fwd, enc.sent_bwd, drop, init)
    return hiddens, concat_cols([t_fwd[-1].h, t_bwd[0].h])


def lstm_step(x, prev, p):
    """One LSTM step: a one-step run over rows with no padding."""
    return run_lstm_batch([x], np.ones((x.value.shape[0], 1), dtype=bool), prev, p)[0]


# --------------------------------------------------------------- lstm_step


def test_lstm_step_zero_params_zero_state():
    p = zero_lstm_params(2, 3)
    out = lstm_step(t64([[5.0, -1.0], [0.5, 2.0]]), zero_state_batch(2, 3, F64), p)
    assert np.array_equal(out.h.value, np.zeros((2, 3)))
    assert np.array_equal(out.c.value, np.zeros((2, 3)))


def test_lstm_step_zero_params_cell_carry():
    # gates sigmoid(0) = 0.5 and candidate tanh(0) = 0, so c = 0.5 * c_prev
    p = zero_lstm_params(1, 1)
    prev = LSTMState(t64([[0.0]]), t64([[1.0]]))
    out = lstm_step(t64([[0.0]]), prev, p)
    assert np.allclose(out.c.value, [[0.5]], atol=1e-12)
    assert np.allclose(out.h.value, [[0.5 * np.tanh(0.5)]], atol=1e-12)
    assert abs(out.h.value[0, 0] - 0.23106) < 1e-5


def test_lstm_step_saturated_forget_gate_preserves_cell():
    p = zero_lstm_params(1, 1, forget_bias=50.0)
    prev = LSTMState(t64([[0.0], [0.0]]), t64([[2.0], [-3.0]]))
    out = lstm_step(t64([[0.0], [0.0]]), prev, p)
    assert np.allclose(out.c.value, [[2.0], [-3.0]], atol=1e-6)


def test_lstm_step_dimension_mismatch():
    p = zero_lstm_params(2, 3)
    # a wrong mask shape is test_run_lstm_rejects_time_by_batch_mask's
    with pytest.raises(ShapeError, match=r"steps \[\(1, 1\)\]"):
        lstm_step(t64([[1.0]]), zero_state_batch(1, 3, F64), p)
    with pytest.raises(ShapeError, match=r"states \[\(1, 2\)\]"):
        lstm_step(t64([[1.0, 2.0]]), zero_state_batch(1, 2, F64), p)
    with pytest.raises(ShapeError, match=r"states \[\(1, 3\), \(2, 3\)\]"):
        lstm_step(t64([[1.0, 2.0]]), LSTMState(t64(np.zeros((1, 3))), t64(np.zeros((2, 3)))), p)


def test_lstm_params_init_invariants():
    rng = np.random.default_rng(0)
    p = LSTMParams.init(3, 4, rng, F64)
    r = np.sqrt(6.0 / (4 + 7))
    for name in ("w_i", "w_f", "w_o", "w_g"):
        w = getattr(p, name).value
        assert w.shape == (4, 7)
        assert (np.abs(w) <= r).all()
    assert np.array_equal(p.b_f.value, np.ones(4))
    for name in ("b_i", "b_o", "b_g"):
        assert np.array_equal(getattr(p, name).value, np.zeros(4))
    assert p.input_dim == 3 and p.hidden_dim == 4


# ---------------------------------------------------------------- run_lstm


def test_run_lstm_single_step_equals_lstm_step():
    rng = np.random.default_rng(1)
    p = rand_lstm_params(2, 3, rng)
    x = t64(rng.uniform(-1, 1, (2, 2)))
    init = LSTMState(t64(rng.uniform(-1, 1, (2, 3))), t64(rng.uniform(-1, 1, (2, 3))))
    states = run_lstm_batch([x], np.ones((2, 1), dtype=bool), init, p)
    z = np.concatenate([x.value, init.h.value], axis=1)

    def gate(name, act):
        return act(z @ getattr(p, "w_" + name).value.T + getattr(p, "b_" + name).value)

    def sigmoid(a):
        return 1.0 / (1.0 + np.exp(-a))

    i, f, o, g = gate("i", sigmoid), gate("f", sigmoid), gate("o", sigmoid), gate("g", np.tanh)
    c = f * init.c.value + i * g
    assert np.allclose(states[0].c.value, c, atol=1e-14)
    assert np.allclose(states[0].h.value, o * np.tanh(c), atol=1e-14)


def test_run_lstm_reverse_mirrors_forward_on_palindrome():
    rng = np.random.default_rng(2)
    p = rand_lstm_params(2, 3, rng)
    a = rng.uniform(-1, 1, (2, 2))
    b = rng.uniform(-1, 1, (2, 2))
    seq = [t64(a), t64(b), t64(a)]
    mask = np.ones((2, 3), dtype=bool)
    fwd = run_lstm_batch(seq, mask, zero_state_batch(2, 3, F64), p)
    rev = run_lstm_batch(seq, mask, zero_state_batch(2, 3, F64), p, reverse=True)
    for j in range(3):
        assert np.allclose(rev[j].h.value, fwd[2 - j].h.value, atol=1e-12)
        assert np.allclose(rev[j].c.value, fwd[2 - j].c.value, atol=1e-12)


def test_run_lstm_zero_params_zero_init_all_states_zero():
    p = zero_lstm_params(2, 3)
    steps, mask = _pad_batch([[[1.0, 2.0], [-3.0, 4.0]], [[0.5, 0.5]]], 2)
    for reverse in (False, True):
        for st in run_lstm_batch(steps, mask, zero_state_batch(2, 3, F64), p, reverse=reverse):
            assert np.array_equal(st.h.value, np.zeros((2, 3)))
            assert np.array_equal(st.c.value, np.zeros((2, 3)))


def test_run_lstm_empty_sequence_rejected():
    p = zero_lstm_params(2, 3)
    with pytest.raises(ValueError):
        run_lstm_batch([], np.zeros((1, 0), dtype=bool), zero_state_batch(1, 3, F64), p)


def test_run_lstm_rejects_time_by_batch_mask():
    # an all-True (time, batch) mask used to pass: every row it read was all True
    p = zero_lstm_params(2, 3)
    steps = [t64(np.zeros((2, 2)))]
    with pytest.raises(ShapeError, match=r"mask \(1, 2\) for 2 rows of 1 steps"):
        run_lstm_batch(steps, np.ones((1, 2), dtype=bool), zero_state_batch(2, 3, F64), p)
    ragged = [t64(np.zeros((2, 2))) for _ in range(3)]
    with pytest.raises(ShapeError):
        run_lstm_batch(ragged, np.array([[True, True], [True, True], [True, False]]), zero_state_batch(2, 3, F64), p)


def test_run_lstm_reverse_first_processed_position_conditions_on_init():
    # in a ragged batch each row's first processed position is its own last
    # valid one; the padding after it must hand `init` through untouched
    rng = np.random.default_rng(3)
    p = rand_lstm_params(2, 2, rng)
    lengths = (3, 1, 2)
    init = LSTMState(t64(rng.uniform(-1, 1, (3, 2))), t64(rng.uniform(-1, 1, (3, 2))))
    steps, mask = _pad_batch([[rng.uniform(-1, 1, 2) for _ in range(n)] for n in lengths], 2)
    rev = run_lstm_batch(steps, mask, init, p, reverse=True)
    for i, n in enumerate(lengths):
        direct = lstm_step(steps[n - 1], init, p)
        assert np.array_equal(rev[n - 1].h.value[i], direct.h.value[i])
        assert np.array_equal(rev[n - 1].c.value[i], direct.c.value[i])


# -------------------------------------------------------- conditional_encode


def test_conditional_encode_shapes():
    rng = np.random.default_rng(4)
    params = EncoderParams.init(3, 4, rng, F64)
    t_steps, t_mask = _pad_batch([[rng.uniform(-1, 1, 3) for _ in range(m)] for m in (2, 1)], 3)
    s_steps, s_mask = _pad_batch([[rng.uniform(-1, 1, 3) for _ in range(n)] for n in (3, 2)], 3)
    hiddens, summary = conditional_encode(t_steps, t_mask, s_steps, s_mask, params)
    assert len(hiddens) == 3
    assert all(h.value.shape == (2, 8) for h in hiddens)
    assert summary.value.shape == (2, 8)


def test_conditional_encode_zero_target_params_matches_unconditional():
    rng = np.random.default_rng(5)
    params = EncoderParams(
        target_fwd=zero_lstm_params(3, 2),
        target_bwd=zero_lstm_params(3, 2),
        sent_fwd=rand_lstm_params(3, 2, rng),
        sent_bwd=rand_lstm_params(3, 2, rng),
    )
    t_steps, t_mask = _pad_batch([[rng.uniform(-1, 1, 3)], [rng.uniform(-1, 1, 3)] * 2], 3)
    s_steps, s_mask = _pad_batch([[rng.uniform(-1, 1, 3) for _ in range(n)] for n in (3, 1)], 3)
    cond, _ = conditional_encode(t_steps, t_mask, s_steps, s_mask, params)
    plain = bilstm_hiddens(s_steps, s_mask, params.sent_fwd, params.sent_bwd)
    for c, p in zip(cond, plain):
        assert np.allclose(c.value, p.value, atol=1e-14)


def test_conditional_encode_single_target_token_seeds_exact_step():
    rng = np.random.default_rng(6)
    params = EncoderParams.init(3, 2, rng, F64)
    target = [t64(rng.uniform(-1, 1, (2, 3)))]
    s_steps, s_mask = _pad_batch([[rng.uniform(-1, 1, 3) for _ in range(n)] for n in (2, 1)], 3)
    hiddens, summary = conditional_encode(target, np.ones((2, 1), dtype=bool), s_steps, s_mask, params)

    t_state = lstm_step(target[0], zero_state_batch(2, 2, F64), params.target_fwd)
    assert np.array_equal(summary.value[:, :2], t_state.h.value)
    manual_fwd = run_lstm_batch(s_steps, s_mask, t_state, params.sent_fwd)
    assert np.array_equal(hiddens[0].value[:, :2], manual_fwd[0].h.value)
    assert np.array_equal(hiddens[1].value[:, :2], manual_fwd[1].h.value)


def test_conditional_encode_rejects_empty():
    rng = np.random.default_rng(7)
    params = EncoderParams.init(3, 2, rng, F64)
    step, mask = [t64(np.zeros((1, 3)))], np.ones((1, 1), dtype=bool)
    empty = np.zeros((1, 0), dtype=bool)
    with pytest.raises(ValueError):
        conditional_encode([], empty, step, mask, params)
    with pytest.raises(ValueError):
        conditional_encode(step, mask, [], empty, params)


# The two encoder routines bilstm_encode_batch replaced, kept verbatim but for
# their names as references: one call per BiLSTM pair must reproduce them bit
# for bit, forward and backward.


def reference_conditional_encode(
    target_steps,
    target_mask,
    sent_steps,
    sent_mask,
    params,
    drop=None,
):
    """Encode sentences conditioned on their targets.

    The forward sentence LSTM starts from the forward target LSTM's final
    state and the backward sentence LSTM from the backward target LSTM's
    state at position 0. Returns per-position [h_fwd; h_bwd] rows and the
    target summary [h_fwd_last; h_bwd_first].
    """
    if not len(target_steps) or not len(sent_steps):
        raise ValueError("reference_conditional_encode: empty target or sentence")
    first = target_steps[0].value
    init = zero_state_batch(first.shape[0], params.target_fwd.hidden_dim, first.dtype)
    t_fwd = run_lstm_batch(target_steps, target_mask, init, params.target_fwd, drop=drop)
    t_bwd = run_lstm_batch(target_steps, target_mask, init, params.target_bwd, reverse=True, drop=drop)
    s_fwd = run_lstm_batch(sent_steps, sent_mask, t_fwd[-1], params.sent_fwd, drop=drop)
    s_bwd = run_lstm_batch(sent_steps, sent_mask, t_bwd[0], params.sent_bwd, reverse=True, drop=drop)
    hiddens = [concat_cols([f.h, b.h]) for f, b in zip(s_fwd, s_bwd)]
    summary = concat_cols([t_fwd[-1].h, t_bwd[0].h])
    return hiddens, summary


def reference_bilstm_encode(
    steps,
    mask,
    fwd,
    bwd,
    drop=None,
):
    """Unconditional BiLSTM encoding from zero initial states."""
    init = zero_state_batch(steps[0].value.shape[0], fwd.hidden_dim, steps[0].value.dtype)
    f = run_lstm_batch(steps, mask, init, fwd, drop=drop)
    b = run_lstm_batch(steps, mask, init, bwd, reverse=True, drop=drop)
    return [concat_cols([fj.h, bj.h]) for fj, bj in zip(f, b)]


def _encode_with_gradients(encode, dtype, seed=41):
    """Run `encode(t_steps, t_mask, s_steps, s_mask, enc, drop)` on a ragged
    batch with dropout 0.3 and backpropagate a fixed contraction of every
    output row. Returns the output values and the gradient of every
    parameter and input step."""
    rng = np.random.default_rng(seed)
    enc = EncoderParams.init(3, 4, rng, dtype)
    targets = [[rng.uniform(-1, 1, 3) for _ in range(m)] for m in (2, 1, 3)]
    sents = [[rng.uniform(-1, 1, 3) for _ in range(n)] for n in (4, 1, 3)]
    t_steps, t_mask = _pad_batch(targets, 3)
    s_steps, s_mask = _pad_batch(sents, 3)
    t_steps = [tensor(t.value, dtype) for t in t_steps]
    s_steps = [tensor(t.value, dtype) for t in s_steps]
    probe = tensor(np.random.default_rng(97).uniform(-1, 1, (3, 8)), dtype)
    with Tape(np.dtype(dtype).name) as tape:
        hiddens, summary = encode(t_steps, t_mask, s_steps, s_mask, enc, Dropout(0.3, np.random.default_rng(8)))
        root = sum_all(mul(summary, probe))
        for h in hiddens:
            root = add(root, sum_all(mul(h, probe)))
        tape.backward(root)
    values = [h.value for h in hiddens] + [summary.value]
    grads = [t.grad for _, t in enc.named("enc")] + [t.grad for t in t_steps + s_steps]
    return values, grads


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conditional_encode_matches_the_two_routine_reference(dtype):
    got_values, got_grads = _encode_with_gradients(conditional_encode, dtype)
    ref_values, ref_grads = _encode_with_gradients(reference_conditional_encode, dtype)
    assert all(v.dtype == dtype for v in got_values)
    assert all(g is not None for g in got_grads)
    assert len(got_values) == len(ref_values) and len(got_grads) == len(ref_grads)
    for got, ref in zip(got_values + got_grads, ref_values + ref_grads):
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bilstm_encode_matches_the_two_routine_reference(dtype):
    def plain(encode_pair):
        # both pairs unconditional, as the max-pool branch runs them
        def encode(t_steps, t_mask, s_steps, s_mask, enc, drop):
            t_hidden = encode_pair(t_steps, t_mask, enc.target_fwd, enc.target_bwd, drop)
            s_hidden = encode_pair(s_steps, s_mask, enc.sent_fwd, enc.sent_bwd, drop)
            return s_hidden + t_hidden[1:], t_hidden[0]

        return encode

    got_values, got_grads = _encode_with_gradients(plain(bilstm_hiddens), dtype)
    ref_values, ref_grads = _encode_with_gradients(plain(reference_bilstm_encode), dtype)
    assert all(v.dtype == dtype for v in got_values)
    assert all(g is not None for g in got_grads)
    for got, ref in zip(got_values + got_grads, ref_values + ref_grads):
        assert np.array_equal(got, ref)


# -------------------------------------------------------- additive_attention


def rand_attention(rng, attn_dim, in_dim):
    return AttentionParams.init(attn_dim, in_dim, rng, F64)


def test_attention_single_unmasked_position():
    rng = np.random.default_rng(8)
    params = rand_attention(rng, 3, 6)
    summary = t64(rng.uniform(-1, 1, (2, 4)))
    hiddens = [t64(rng.uniform(-1, 1, (2, 2))) for _ in range(3)]
    mask = np.array([[False, True, False], [True, False, False]])
    out = additive_attention_batch(summary, hiddens, params, mask)
    assert np.array_equal(out.alpha.value, [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    assert np.allclose(out.s.value[0], hiddens[1].value[0], atol=1e-14)
    assert np.allclose(out.s.value[1], hiddens[0].value[1], atol=1e-14)


def test_attention_identical_hiddens_uniform():
    rng = np.random.default_rng(9)
    params = rand_attention(rng, 3, 6)
    summary = t64(rng.uniform(-1, 1, (2, 4)))
    h = rng.uniform(-1, 1, (2, 2))
    hiddens = [t64(h) for _ in range(4)]
    out = additive_attention_batch(summary, hiddens, params, np.ones((2, 4), dtype=bool))
    assert np.allclose(out.alpha.value, 0.25, atol=1e-12)


def test_attention_zero_score_vector_gives_mean():
    rng = np.random.default_rng(10)
    params = AttentionParams(w=t64(rng.uniform(-1, 1, (3, 6))), v=t64(np.zeros(3)))
    summary = t64(rng.uniform(-1, 1, (2, 4)))
    hiddens = [t64(rng.uniform(-1, 1, (2, 2))) for _ in range(3)]
    mask = np.array([[True, True, True], [True, True, False]])
    out = additive_attention_batch(summary, hiddens, params, mask)
    assert np.allclose(out.alpha.value, [[1 / 3] * 3, [0.5, 0.5, 0.0]], atol=1e-12)
    values = np.stack([h.value for h in hiddens])
    assert np.allclose(out.s.value[0], values[:, 0].mean(axis=0), atol=1e-12)
    assert np.allclose(out.s.value[1], values[:2, 1].mean(axis=0), atol=1e-12)


def test_attention_all_masked_rejected():
    rng = np.random.default_rng(11)
    params = rand_attention(rng, 3, 6)
    with pytest.raises(ValueError):
        additive_attention_batch(
            t64(np.zeros((1, 4))), [t64(np.zeros((1, 2)))], params, np.array([[False]])
        )


def test_attention_alpha_sums_to_one_float32():
    rng = np.random.default_rng(12)
    with Tape("float32"):
        params = AttentionParams.init(3, 6, rng, np.float32)
        summary = tensor(rng.uniform(-1, 1, (2, 4)))
        hiddens = [tensor(rng.uniform(-1, 1, (2, 2))) for _ in range(5)]
        mask = np.array([[True, True, False, True, True], [True, True, True, False, False]])
        out = additive_attention_batch(summary, hiddens, params, mask)
    assert out.alpha.value.dtype == np.float32
    assert np.allclose(out.alpha.value.sum(axis=1), 1.0, atol=1e-6)


def test_attention_masked_positions_leak_no_gradient():
    rng = np.random.default_rng(13)
    params = rand_attention(rng, 3, 6)
    summary = t64(rng.uniform(-1, 1, (2, 4)))
    hiddens = [t64(rng.uniform(-1, 1, (2, 2))) for _ in range(3)]
    mask = np.array([[True, False, True], [True, True, True]])
    with Tape("float64") as tape:
        out = additive_attention_batch(summary, hiddens, params, mask)
        tape.backward(contract(out.s, [[1.0, -2.0], [0.5, 1.5]]))
    assert out.alpha.value[0, 1] == 0.0
    assert not hiddens[1].grad[0].any()  # masked in row 0
    assert hiddens[1].grad[1].any()  # the same position is live in row 1
    assert hiddens[0].grad[0].any()


def uniform_attention(in_dim, dtype=F64):
    # v = 0 scores every position 0, so alpha is uniform over real positions
    return AttentionParams(w=tensor(np.ones((3, in_dim)), dtype), v=tensor(np.zeros(3), dtype))


def test_attention_weighted_sum_examples():
    parts = [t64([[1.0, 2.0], [3.0, 4.0]]), t64([[10.0, 20.0], [30.0, 40.0]])]
    summary = t64(np.zeros((2, 1)))
    out = additive_attention_batch(summary, parts, uniform_attention(3), np.array([[True, False], [True, True]]))
    assert out.s.value.tolist() == [[1.0, 2.0], [16.5, 22.0]]
    one = additive_attention_batch(summary, parts[:1], uniform_attention(3), np.ones((2, 1), dtype=bool))
    assert one.s.value.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_attention_weighted_sum_adds_positions_in_order():
    # float32 addition is not associative: with equal weights a,
    # (3e8 a - 3e8 a) + 3a is 3a, but adding the positions in reverse,
    # (3a - 3e8 a) + 3e8 a, is 0
    parts = [tensor([[v]], np.float32) for v in (3e8, -3e8, 3.0)]
    summary = tensor(np.zeros((1, 1)), np.float32)
    out = additive_attention_batch(summary, parts, uniform_attention(2, np.float32), np.ones((1, 3), dtype=bool))
    assert out.s.value[0, 0] == 3.0 * out.alpha.value[0, 2] != 0.0


def test_attention_weighted_sum_gradients_by_hand():
    # v = 0 gives alpha = [0.5, 0.5], so s's gradient reaches each part
    # halved; alpha's gradient, each part's row sum [3, 2], reaches only v:
    # v.grad = sum_j tanh(w [summary; h_j]) * alpha_j (g_j - sum_k alpha_k g_k)
    parts = [t64([[1.0, 2.0]]), t64([[3.0, -1.0]])]
    summary = t64([[0.5]])
    params = AttentionParams(w=t64(np.arange(9.0).reshape(3, 3) / 10), v=t64(np.zeros(3)))
    with Tape("float64") as tape:
        tape.backward(sum_all(additive_attention_batch(summary, parts, params, np.ones((1, 2), dtype=bool)).s))
    assert parts[0].grad.tolist() == [[0.5, 0.5]]
    assert parts[1].grad.tolist() == [[0.5, 0.5]]
    t = [np.tanh(params.w.value @ np.concatenate([[0.5], h.value[0]])) for h in parts]
    assert np.allclose(params.v.grad, 0.25 * t[0] - 0.25 * t[1], atol=1e-15)
    assert not params.w.grad.any() and not summary.grad.any()


@pytest.mark.parametrize(
    "summary_shape, hidden_shapes",
    [
        ((2, 3), [(2, 4), (2, 4)]),  # summary too wide for w's columns
        ((3, 2), [(2, 4), (2, 4)]),  # summary rows differ from hidden rows
        ((2, 2), [(2, 4), (2, 3)]),  # hiddens of different widths
        ((2,), [(2, 4)]),  # rank-1 summary
        ((2, 2), [(2,)]),  # rank-1 hidden
        ((2, 2), []),  # no hiddens
    ],
)
def test_attention_shape_mismatch(summary_shape, hidden_shapes):
    params = AttentionParams(w=t64(np.ones((3, 6))), v=t64(np.ones(3)))
    mask = np.ones((2, len(hidden_shapes)), dtype=bool)
    with pytest.raises(ShapeError, match="additive_attention_batch"):
        additive_attention_batch(t64(np.ones(summary_shape)), [t64(np.ones(s)) for s in hidden_shapes], params, mask)


# ----------------------------------------------------------- max_pool_encode


def test_max_pool_examples():
    cols, mask = _pad_batch([[[1, 5], [3, 2]], [[0, 0]]], 2)
    assert np.array_equal(max_pool_encode_batch(cols, mask).value, [[3, 5], [0, 0]])
    single = t64([[4.0, -1.0]])
    assert max_pool_encode_batch([single], np.array([[True]])) is single


def test_max_pool_tie_routes_gradient_to_first():
    a, b = t64([[2.0, 2.0]]), t64([[2.0, 2.0]])
    with Tape("float64") as tape:
        out = max_pool_encode_batch([a, b], np.ones((1, 2), dtype=bool))
        tape.backward(sum_all(out))
    assert np.array_equal(out.value, [[2.0, 2.0]])
    assert np.array_equal(a.grad, [[1.0, 1.0]])
    assert np.array_equal(b.grad, [[0.0, 0.0]])


def test_max_pool_exactly_one_position_per_coordinate_gets_gradient():
    rng = np.random.default_rng(14)
    hiddens = [t64(rng.uniform(-1, 1, (2, 4))) for _ in range(5)]
    mask = np.array([[True] * 5, [True, True, True, False, False]])
    with Tape("float64") as tape:
        tape.backward(sum_all(max_pool_encode_batch(hiddens, mask)))
    grads = np.stack([h.grad if h.grad is not None else np.zeros((2, 4)) for h in hiddens])
    assert np.array_equal((grads != 0).sum(axis=0), np.ones((2, 4)))
    assert not grads[3:, 1].any()  # padding of row 1


def test_max_pool_respects_mask_and_rejects_all_masked():
    vecs = [t64([[1.0, 2.0], [5.0, 5.0]]), t64([[9.0, 9.0], [0.0, 0.0]])]
    out = max_pool_encode_batch(vecs, np.array([[True, False], [True, True]]))
    assert np.array_equal(out.value, [[1.0, 2.0], [5.0, 5.0]])
    with pytest.raises(ValueError):
        max_pool_encode_batch(vecs, np.array([[False, False], [True, True]]))


# ------------------------------------------------------------------- grl


def test_grl_forward_is_bitwise_identity():
    x = t64([1.5, -2.0])
    out = grl(x)
    assert np.array_equal(out.value, x.value)


def test_grl_backward_negates_exactly():
    x = t64([0.4, -1.1])
    with Tape("float64") as tape:
        tape.backward(contract(grl(x), [0.3, -0.7]))
    assert np.array_equal(x.grad, [-0.3, 0.7])


def test_grl_double_application_cancels():
    x = t64([0.4, -1.1])
    with Tape("float64") as tape:
        tape.backward(contract(grl(grl(x)), [0.3, -0.7]))
    assert np.array_equal(x.grad, [0.3, -0.7])


def test_grl_twin_graphs_give_exactly_negated_upstream_gradients():
    rng = np.random.default_rng(15)
    w_vals = rng.uniform(-1, 1, (3, 2))
    u_vals = rng.uniform(-1, 1, 2)
    head_vals = rng.uniform(-1, 1, 3)

    def run(with_grl):
        w, u, head = t64(w_vals), t64(u_vals), t64(head_vals)
        with Tape("float64") as tape:
            rep = tanh(matvec(w, u))
            fed = grl(rep) if with_grl else rep
            tape.backward(sum_all(mul(tanh(fed), head)))
        return w.grad, u.grad, head.grad

    gw1, gu1, gh1 = run(True)
    gw0, gu0, gh0 = run(False)
    assert np.array_equal(gw1, -gw0)
    assert np.array_equal(gu1, -gu0)
    assert np.array_equal(gh1, gh0)  # head is downstream of grl: untouched


# ------------------------------------------------------------------ Dropout


def test_dropout_rate_zero_is_identity_object():
    x = t64([1.0, 2.0])
    assert Dropout(0.0, np.random.default_rng(0))(x) is x
    assert Dropout(0.0)(x) is x


def _tiny_model_and_example():
    from stancegen.data import EmbeddingMatrix, Example
    from stancegen.models import ModelSpec, build_model

    values = np.random.default_rng(1).uniform(-0.5, 0.5, (6, 3))
    spec = ModelSpec(variant="BCAInvarSpec", embed_dim=3, hidden_dim=2, attn_dim=3, num_domains=2)
    model = build_model(spec, 0, EmbeddingMatrix(values=values), dtype=F64)
    return model, Example(["a", "b"], ["c"], "FAVOR", "a b", "c", 0, [2, 3], [4])


def test_dropout_eval_mode_is_identity_object():
    # eval mode passes no Dropout value, whatever the rate: the forward pass
    # equals the default one bit for bit and draws nothing
    from stancegen.models import model_forward_batch

    model, ex = _tiny_model_and_example()
    rng = np.random.default_rng(8)
    state = rng.bit_generator.state
    out = model_forward_batch(model, [ex], train_mode=False, rng=rng, dropout=0.5)
    assert out.stance_probs.value.tobytes() == model_forward_batch(model, [ex]).stance_probs.value.tobytes()
    assert rng.bit_generator.state == state


def test_dropout_train_mode_preserves_mean_within_two_percent():
    base = np.array([1.0, 2.0, -3.0])
    x = t64(np.tile(base, (10000, 1)))
    out = Dropout(0.5, np.random.default_rng(42))(x)
    means = out.value.mean(axis=0)
    assert np.all(np.abs(means - base) <= 0.02 * np.abs(base) + 1e-9)


def test_dropout_train_mode_scales_survivors():
    x = t64(np.ones(1000))
    out = Dropout(0.5, np.random.default_rng(7))(x)
    vals = np.unique(out.value)
    assert set(vals.tolist()) <= {0.0, 2.0}
    assert 0.0 in vals and 2.0 in vals


def test_dropout_invalid_rate_rejected():
    for rate in (1.0, -0.1):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            Dropout(rate, np.random.default_rng(0))


def test_dropout_positive_rate_needs_a_generator():
    from stancegen.models import model_forward_batch

    with pytest.raises(ValueError, match="generator"):
        Dropout(0.1)
    model, ex = _tiny_model_and_example()
    with pytest.raises(ValueError, match="generator"):
        model_forward_batch(model, [ex], train_mode=True, dropout=0.1)


# ------------------------------------------- finite differences over layers


def test_lstm_step_gradients_match_finite_differences():
    rng = np.random.default_rng(16)
    p = rand_lstm_params(2, 3, rng)
    x = t64(rng.uniform(-1, 1, (2, 2)))
    h0 = t64(rng.uniform(-1, 1, (2, 3)))
    c0 = t64(rng.uniform(-1, 1, (2, 3)))
    probe = np.random.default_rng(99).uniform(-1, 1, (2, 3))

    def f():
        return contract(lstm_step(x, LSTMState(h0, c0), p).h, probe)

    assert finite_difference_check(f, param_list(p) + [x, h0, c0]) < 1e-4


def test_run_lstm_gradients_match_finite_differences():
    rng = np.random.default_rng(17)
    p = rand_lstm_params(2, 2, rng)
    steps, mask = _pad_batch([[rng.uniform(-1, 1, 2) for _ in range(n)] for n in (3, 2)], 2)
    probe = np.random.default_rng(98).uniform(-1, 1, (2, 2))

    def f():
        states = run_lstm_batch(steps, mask, zero_state_batch(2, 2, F64), p, reverse=True)
        return contract(states[0].h, probe)

    assert finite_difference_check(f, param_list(p) + steps) < 1e-4


def test_recurrent_dropout_gradients_match_finite_differences():
    rng = np.random.default_rng(18)
    p = rand_lstm_params(2, 2, rng)
    steps, mask = _pad_batch([[rng.uniform(-1, 1, 2) for _ in range(n)] for n in (2, 3)], 2)
    probe = np.random.default_rng(97).uniform(-1, 1, (2, 2))

    def f():
        states = run_lstm_batch(
            steps, mask, zero_state_batch(2, 2, F64), p,
            drop=Dropout(0.5, np.random.default_rng(5)),
        )
        return contract(states[-1].h, probe)

    assert finite_difference_check(f, param_list(p) + steps) < 1e-4


def test_conditional_encode_with_attention_gradients_match_finite_differences():
    rng = np.random.default_rng(19)
    enc = EncoderParams.init(2, 2, rng, F64)
    attn = AttentionParams.init(3, 8, rng, F64)
    t_steps, t_mask = _pad_batch([[rng.uniform(-1, 1, 2) for _ in range(m)] for m in (2, 1)], 2)
    s_steps, s_mask = _pad_batch([[rng.uniform(-1, 1, 2) for _ in range(n)] for n in (2, 3)], 2)
    probe = np.random.default_rng(96).uniform(-1, 1, (2, 4))
    params = [t for _, t in enc.named("e")] + [t for _, t in attn.named("a")] + t_steps + s_steps

    def f():
        hiddens, summary = conditional_encode(t_steps, t_mask, s_steps, s_mask, enc)
        out = additive_attention_batch(summary, hiddens, attn, s_mask)
        return contract(out.s, probe)

    assert finite_difference_check(f, params) < 1e-4


def test_max_pool_gradients_match_finite_differences():
    rng = np.random.default_rng(20)
    # spread values so the eps=1e-5 probes never flip an argmax
    hiddens = [t64(rng.permutation(8).reshape(2, 4) * 1.0 + rng.uniform(-0.3, 0.3, (2, 4))) for _ in range(3)]
    mask = np.array([[True, True, True], [True, True, False]])
    probe = np.random.default_rng(95).uniform(-1, 1, (2, 4))

    def f():
        return contract(max_pool_encode_batch(hiddens, mask), probe)

    assert finite_difference_check(f, hiddens) < 1e-4


def test_grl_gradients_match_finite_differences_up_to_sign():
    rng = np.random.default_rng(21)
    w = t64(rng.uniform(-1, 1, (2, 3)))
    x = t64(rng.uniform(-1, 1, 3))
    probe = np.random.default_rng(94).uniform(-1, 1, 2)

    # through grl the analytic gradient is the negation of the true derivative,
    # so check the equivalent identity: grad(f(grl)) == -grad(f)
    def f_plain():
        return contract(tanh(matvec(w, x)), probe)

    def f_grl():
        return contract(tanh(grl(matvec(w, x))), probe)

    assert finite_difference_check(f_plain, [w, x]) < 1e-4
    from stancegen.tensor import zero_grads

    for fn, sign in ((f_plain, 1.0), (f_grl, -1.0)):
        zero_grads([w, x])
        with Tape("float64") as tape:
            tape.backward(fn())
        if sign == 1.0:
            gw_plain = np.array(w.grad)
        else:
            assert np.array_equal(w.grad, -gw_plain)


# ------------------------------- ragged batch rows against batches of one
#
# Padding must not leak: row i of a ragged batch equals the same layer run
# on example i alone, as a batch of one.


def test_lstm_step_batch_matches_single_rows():
    rng = np.random.default_rng(22)
    p = rand_lstm_params(3, 2, rng)
    xs = rng.uniform(-1, 1, (4, 3))
    hs = rng.uniform(-1, 1, (4, 2))
    cs = rng.uniform(-1, 1, (4, 2))
    batch = lstm_step(t64(xs), LSTMState(t64(hs), t64(cs)), p)
    for i in range(4):
        single = lstm_step(t64(xs[i : i + 1]), LSTMState(t64(hs[i : i + 1]), t64(cs[i : i + 1])), p)
        assert np.allclose(batch.h.value[i], single.h.value[0], atol=1e-14)
        assert np.allclose(batch.c.value[i], single.c.value[0], atol=1e-14)


def _run_alone(seq, p, reverse):
    steps, mask = _pad_batch([seq], 2)
    return run_lstm_batch(steps, mask, zero_state_batch(1, 2, F64), p, reverse=reverse)


def test_run_lstm_batch_carries_state_through_padding():
    rng = np.random.default_rng(23)
    p = rand_lstm_params(2, 2, rng)
    seqs = [[rng.uniform(-1, 1, 2) for _ in range(n)] for n in (3, 1, 2)]
    steps, mask = _pad_batch(seqs, 2)
    out = run_lstm_batch(steps, mask, zero_state_batch(3, 2, F64), p)
    for i, s in enumerate(seqs):
        single = _run_alone(s, p, reverse=False)
        # final stored state equals the example's true final state
        assert np.allclose(out[-1].h.value[i], single[-1].h.value[0], atol=1e-13)
        assert np.allclose(out[-1].c.value[i], single[-1].c.value[0], atol=1e-13)
        for t in range(len(s)):
            assert np.allclose(out[t].h.value[i], single[t].h.value[0], atol=1e-13)


def test_run_lstm_batch_reverse_matches_single():
    rng = np.random.default_rng(24)
    p = rand_lstm_params(2, 2, rng)
    seqs = [[rng.uniform(-1, 1, 2) for _ in range(n)] for n in (2, 4)]
    steps, mask = _pad_batch(seqs, 2)
    out = run_lstm_batch(steps, mask, zero_state_batch(2, 2, F64), p, reverse=True)
    for i, s in enumerate(seqs):
        single = _run_alone(s, p, reverse=True)
        for t in range(len(s)):
            assert np.allclose(out[t].h.value[i], single[t].h.value[0], atol=1e-13)
        # position 0 holds the fully conditioned backward state
        assert np.allclose(out[0].c.value[i], single[0].c.value[0], atol=1e-13)


def test_conditional_encode_matches_single():
    rng = np.random.default_rng(25)
    enc = EncoderParams.init(3, 2, rng, F64)
    targets = [[rng.uniform(-1, 1, 3) for _ in range(m)] for m in (2, 1, 3)]
    sents = [[rng.uniform(-1, 1, 3) for _ in range(n)] for n in (3, 2, 1)]
    t_steps, t_mask = _pad_batch(targets, 3)
    s_steps, s_mask = _pad_batch(sents, 3)
    hiddens, summary = conditional_encode(t_steps, t_mask, s_steps, s_mask, enc)
    for i in range(3):
        hs, summ = conditional_encode(*_pad_batch([targets[i]], 3), *_pad_batch([sents[i]], 3), enc)
        assert np.allclose(summary.value[i], summ.value[0], atol=1e-13)
        for t in range(len(sents[i])):
            assert np.allclose(hiddens[t].value[i], hs[t].value[0], atol=1e-13)


def test_additive_attention_batch_matches_single():
    rng = np.random.default_rng(26)
    attn = AttentionParams.init(3, 8, rng, F64)
    summaries = rng.uniform(-1, 1, (2, 4))
    hiddens_rows = [[rng.uniform(-1, 1, 4) for _ in range(n)] for n in (3, 2)]
    cols, mask = _pad_batch(hiddens_rows, 4)
    out = additive_attention_batch(t64(summaries), cols, attn, mask)
    for i, row in enumerate(hiddens_rows):
        alone, alone_mask = _pad_batch([row], 4)
        single = additive_attention_batch(t64(summaries[i : i + 1]), alone, attn, alone_mask)
        n = len(row)
        assert np.allclose(out.s.value[i], single.s.value[0], atol=1e-13)
        assert np.allclose(out.alpha.value[i, :n], single.alpha.value[0], atol=1e-13)
        assert not out.alpha.value[i, n:].any()


def test_max_pool_batch_matches_single_and_requires_leading_valid():
    rng = np.random.default_rng(27)
    rows = [[rng.uniform(-1, 1, 3) for _ in range(n)] for n in (2, 3)]
    cols, mask = _pad_batch(rows, 3)
    out = max_pool_encode_batch(cols, mask)
    for i, row in enumerate(rows):
        single = max_pool_encode_batch(*_pad_batch([row], 3))
        assert np.allclose(out.value[i], single.value[0], atol=1e-14)
    with pytest.raises(ValueError):
        max_pool_encode_batch(cols, np.array([[False, True, False], [True, True, True]]))


def test_run_lstm_batch_gradients_match_finite_differences():
    rng = np.random.default_rng(28)
    p = rand_lstm_params(2, 2, rng)
    seqs = [[rng.uniform(-1, 1, 2) for _ in range(2)], [rng.uniform(-1, 1, 2) for _ in range(3)]]
    steps, mask = _pad_batch(seqs, 2)
    probe = np.random.default_rng(93).uniform(-1, 1, (2, 2))

    def f():
        out = run_lstm_batch(steps, mask, zero_state_batch(2, 2, F64), p)
        return contract(out[-1].h, probe)

    assert finite_difference_check(f, param_list(p) + steps) < 1e-4


def test_attention_batch_gradients_match_finite_differences():
    rng = np.random.default_rng(29)
    attn = AttentionParams.init(2, 6, rng, F64)
    summary = t64(rng.uniform(-1, 1, (2, 4)))
    cols = [t64(rng.uniform(-1, 1, (2, 2))) for _ in range(3)]
    mask = np.array([[True, True, False], [True, True, True]])
    probe = np.random.default_rng(92).uniform(-1, 1, (2, 2))

    def f():
        out = additive_attention_batch(summary, cols, attn, mask)
        return contract(out.s, probe)

    params = [t for _, t in attn.named("a")] + [summary] + cols
    assert finite_difference_check(f, params) < 1e-4
