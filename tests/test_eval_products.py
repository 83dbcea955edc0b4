"""Eval-mode LSTM runs and attention pools against the taped ones, and
forwards that read weights updated in place.

run_lstm_batch multiplies against contiguous copies of its weights'
transposes, taped or not, so an untaped run has the taped run's bytes at
every row count. With no tape active, additive_attention_batch adds the
summary's share of its product, taken once, to the positions' shares, taken
a stack of positions at a time; on a tape it multiplies every position's
[summary; h_j] rows by a contiguous w.T in one product. The two pools can
round differently, and where they do depends on the BLAS build, so the
untaped pool is held to a few ulp of the taped one, a batch of one
included.
"""

from __future__ import annotations

import numpy as np
import pytest

from stancegen.data import Corpus, Example, build_vocab, encode_corpus, random_embeddings
from stancegen.layers import (
    EVAL_POSITIONS_PER_PRODUCT,
    AttentionParams,
    LSTMParams,
    LSTMState,
    additive_attention_batch,
    run_lstm_batch,
)
from stancegen.models import ModelSpec, build_model, model_forward_batch
from stancegen.tensor import PRECISIONS, Tape, Tensor, zero_grads
from stancegen.training import objective_batch

DIMS = [(6, 4, 5), (8, 6, 10), (100, 200, 400)]  # (input, hidden, attention)
ROWS = [1, 2, 5, 16, 17, 32]
POSITIONS = 6
ULPS = 8  # of max(1, |value|); the largest gap seen was 4.6 (float32, (100,200), 2 rows)


def padded_mask(rows, positions=POSITIONS):
    # the last row stops two positions early (with one row, that row is
    # padded); past one stacked attention product's positions, the other rows
    # end at every length from the full one down
    lengths = np.full(rows, positions)
    lengths[-1] -= 2
    if positions > EVAL_POSITIONS_PER_PRODUCT:
        lengths[:-1] = positions - np.arange(rows - 1) % positions
    return np.arange(positions)[None, :] < lengths[:, None]


def uniform(rng, shape, dtype):
    return rng.uniform(-1.0, 1.0, shape).astype(dtype)


def assert_same_bytes(name, a, b):
    assert a.dtype == b.dtype and a.shape == b.shape, name
    assert a.tobytes() == b.tobytes(), f"{name} differs at {np.argwhere(a != b)[:5].tolist()}"


def assert_agree(name, eval_value, taped_value):
    assert eval_value.dtype == taped_value.dtype and eval_value.shape == taped_value.shape, name
    eps = np.finfo(eval_value.dtype).eps
    bound = ULPS * eps * np.maximum(1.0, np.abs(taped_value))
    gap = np.abs(eval_value - taped_value)
    assert (gap <= bound).all(), f"{name}: {gap.max() / eps:.1f} eps apart"


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("input_dim,hidden,attn", DIMS)
@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("reverse", [False, True])
def test_untaped_lstm_run_agrees_with_the_taped_run(precision, input_dim, hidden, attn, rows, reverse):
    dtype = PRECISIONS[precision]
    rng = np.random.default_rng([rows, input_dim, hidden, reverse])
    params = LSTMParams.init(input_dim, hidden, rng, dtype)
    steps = Tensor(uniform(rng, (POSITIONS, rows, input_dim), dtype))
    init = LSTMState(Tensor(uniform(rng, (rows, hidden), dtype)), Tensor(uniform(rng, (rows, hidden), dtype)))
    mask = padded_mask(rows)
    with Tape(precision):
        taped_hs, taped = run_lstm_batch(steps, mask, init, params, reverse=reverse)
    untaped_hs, untaped = run_lstm_batch(steps, mask, init, params, reverse=reverse)
    assert_same_bytes("hs", untaped_hs.value, taped_hs.value)
    assert_same_bytes("final h", untaped.h.value, taped.h.value)
    assert_same_bytes("final c", untaped.c.value, taped.c.value)


def check_attention(precision, hidden, attn, rows, positions, seed):
    dtype = PRECISIONS[precision]
    rng = np.random.default_rng(seed)
    params = AttentionParams.init(attn, 4 * hidden, rng, dtype)
    summary = Tensor(uniform(rng, (rows, 2 * hidden), dtype))
    hiddens = Tensor(uniform(rng, (positions, rows, 2 * hidden), dtype))
    mask = padded_mask(rows, positions)
    with Tape(precision):
        taped = additive_attention_batch(summary, hiddens, params, mask)
    untaped = additive_attention_batch(summary, hiddens, params, mask)
    assert_agree("s", untaped.s.value, taped.s.value)
    assert_agree("alpha", untaped.alpha.value, taped.alpha.value)


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("input_dim,hidden,attn", DIMS)
@pytest.mark.parametrize("rows", ROWS)
def test_untaped_attention_agrees_with_the_taped_pool(precision, input_dim, hidden, attn, rows):
    check_attention(precision, hidden, attn, rows, POSITIONS, [rows, hidden, attn])


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("input_dim,hidden,attn", DIMS)
@pytest.mark.parametrize("rows", ROWS)
def test_untaped_attention_agrees_across_stacked_position_products(precision, input_dim, hidden, attn, rows):
    # 20 ragged positions: three stacked products, the last one partial
    check_attention(precision, hidden, attn, rows, 20, [rows, hidden, attn, 20])


def _bca_model_and_batch(seed):
    rng = np.random.default_rng(7)
    words = [f"w{i}" for i in range(30)]
    batch = [
        Example(
            sentence_tokens=[str(w) for w in rng.choice(words, int(rng.integers(3, 9)))],
            target_tokens=[str(w) for w in rng.choice(words, 1 + k % 2)],
            stance=("FAVOR", "AGAINST", "NONE")[k % 3],
            raw_text="",
            raw_target="",
        )
        for k in range(5)
    ]
    corpus = Corpus(batch)
    vocab = build_vocab([corpus])
    encode_corpus(corpus, vocab)
    model = build_model(ModelSpec("BCA", 6, 4, 5, 0), seed, random_embeddings(vocab, 6), np.float32)
    return model, batch


def test_eval_forward_reads_the_weights_as_they_are_now():
    # a weight updated in place between two eval forwards, as adam_step
    # updates it, must reach the second forward: no transposed copy or split
    # of a weight survives a call. Attention's w is nudged once in its
    # summary columns and once in its position columns, the two halves that
    # an eval pool multiplies separately
    model, batch = _bca_model_and_batch(3)
    summary_width = 2 * model.spec.hidden_dim
    nudges = [
        ("encoder.sent_fwd.w_i", slice(None)),
        ("encoder.target_bwd.w_g", slice(None)),
        ("attention.w", slice(None, summary_width)),
        ("attention.w", slice(summary_width, None)),
    ]
    nudge = np.random.default_rng(11)
    before = model_forward_batch(model, batch)
    for name, columns in nudges:
        w = model.params[name].value[:, columns]
        w -= np.float32(0.05) * nudge.uniform(-1.0, 1.0, w.shape).astype(np.float32)
        after = model_forward_batch(model, batch)
        assert after.stance_probs.value.tobytes() != before.stance_probs.value.tobytes(), (name, columns)

        fresh, _ = _bca_model_and_batch(3)
        for key, p in fresh.params.items():
            p.value = model.params[key].value.copy()
        expected = model_forward_batch(fresh, batch)
        assert after.stance_probs.value.tobytes() == expected.stance_probs.value.tobytes()
        assert after.attention.alpha.value.tobytes() == expected.attention.alpha.value.tobytes()
        before = after


def _taped_step(model, batch):
    """A taped forward and backward: the stance probabilities, alpha and
    every parameter's gradient, as bytes."""
    zero_grads(model.params.values())
    with Tape("float32") as tape:
        out = model_forward_batch(model, batch)
        tape.backward(objective_batch(out, batch, 0.1)[0])
    values = [out.stance_probs.value, out.attention.alpha.value]
    return [a.tobytes() for a in values + [p.grad for p in model.params.values()]]


def test_taped_forward_reads_the_weights_as_they_are_now():
    # the taped counterpart of the test above: a gate weight and attention's
    # w, updated in place between two taped forwards as adam_step updates
    # them, must each reach the second forward's outputs and gradients, which
    # then equal those of a model built with the updated weights
    model, batch = _bca_model_and_batch(3)
    nudge = np.random.default_rng(12)
    before = _taped_step(model, batch)
    for name in ("encoder.sent_fwd.w_i", "attention.w"):
        w = model.params[name].value
        w -= np.float32(0.05) * nudge.uniform(-1.0, 1.0, w.shape).astype(np.float32)
        after = _taped_step(model, batch)
        assert after[0] != before[0] and after[1] != before[1], name
        assert all(a != b for a, b in zip(after[2:], before[2:])), name

        fresh, _ = _bca_model_and_batch(3)
        for key, p in fresh.params.items():
            p.value = model.params[key].value.copy()
        assert after == _taped_step(fresh, batch), name
        before = after
