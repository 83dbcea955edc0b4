import math

import numpy as np
import pytest

import stancegen.models as M
import stancegen.training as TR
from stancegen.data import (
    STANCE_TO_INDEX,
    Corpus,
    EmbeddingMatrix,
    Example,
    build_vocab,
    encode_corpus,
    random_embeddings,
)
from stancegen.errors import ConfigError, NonFiniteLossError
from stancegen.models import ModelSpec, build_model
from stancegen.tensor import Tape, Tensor, add, scale
from stancegen.training import (
    AdamState,
    Hyperparams,
    adam_step,
    clip_gradients,
    domain_loss_batch,
    predict_corpus,
    stance_loss_batch,
    train,
)

LN2 = math.log(2.0)
LN3 = math.log(3.0)


# ------------------------------------------------------------------ losses


def stance_loss_one(probs, gold):
    """Stance loss of one example: a batch of one."""
    return stance_loss_batch(Tensor(np.array([probs], dtype=float)), np.array([gold]))


def domain_loss_one(heads, gold):
    """Domain loss of one example over per-head [p(in), p(out)] pairs."""
    return domain_loss_batch([Tensor(np.array([h], dtype=float)) for h in heads], np.array([gold]))


def test_stance_loss_uniform_is_ln3():
    with Tape("float64"):
        loss = stance_loss_one(np.full(3, 1 / 3), 0)
    assert abs(loss.value[0] - LN3) < 1e-12


def test_stance_loss_perfect_is_zero():
    with Tape("float64"):
        loss = stance_loss_one([0.0, 1.0, 0.0], 1)
    assert loss.value[0] == 0.0


def test_stance_loss_floor_caps_blowup():
    # gold probability 0 hits the 1e-12 floor instead of inf
    with Tape("float64"):
        loss = stance_loss_one([0.0, 1.0, 0.0], 0)
    assert abs(loss.value[0] - (-math.log(1e-12))) < 1e-9
    assert np.isfinite(loss.value[0])


def test_stance_loss_accepts_index():
    # training maps gold labels to class indices through STANCE_TO_INDEX
    probs = np.array([0.2, 0.5, 0.3])
    with Tape("float64"):
        loss = stance_loss_one(probs, STANCE_TO_INDEX["NONE"])
    assert abs(loss.value[0] - (-math.log(0.3))) < 1e-12


def test_stance_loss_gradient_is_reciprocal():
    with Tape("float64") as tape:
        p = Tensor(np.array([[0.25, 0.5, 0.25]]))
        loss = stance_loss_batch(p, np.array([0]))
        tape.backward(loss)
    assert np.allclose(p.grad, [[-4.0, 0.0, 0.0]])


def test_domain_loss_half_everywhere_is_ln2():
    with Tape("float64"):
        loss = domain_loss_one([[0.5, 0.5]] * 4, 1)
    assert abs(loss.value[0] - LN2) < 1e-12


def test_domain_loss_perfect_is_zero():
    with Tape("float64"):
        heads = [[1.0, 0.0] if i == 2 else [0.0, 1.0] for i in range(4)]
        loss = domain_loss_one(heads, 2)
    assert loss.value[0] == 0.0


def test_domain_loss_gold_out_of_range():
    with Tape("float64"):
        heads = [[0.5, 0.5]] * 3
        with pytest.raises(ValueError, match="out of range"):
            domain_loss_one(heads, 3)
        with pytest.raises(ValueError, match="out of range"):
            domain_loss_one(heads, -1)


def test_batched_stance_loss_matches_singles():
    rng = np.random.default_rng(0)
    raw = rng.dirichlet(np.ones(3), size=5)
    gold = np.array([0, 2, 1, 1, 0])
    with Tape("float64"):
        batched = stance_loss_batch(Tensor(raw.copy()), gold)
        singles = [stance_loss_one(raw[i], gold[i]).value[0] for i in range(5)]
    assert abs(batched.value[0] - np.mean(singles)) < 1e-12


def test_batch_size_one_stance_loss_matches_single():
    with Tape("float32"):
        batched = stance_loss_batch(Tensor(np.array([[0.1, 0.6, 0.3]], dtype=np.float32)), np.array([1]))
    assert batched.value.dtype == np.float32
    assert abs(batched.value[0] - (-math.log(0.6))) < 1e-6


def test_batched_domain_loss_matches_singles():
    rng = np.random.default_rng(1)
    heads = [rng.dirichlet(np.ones(2), size=4) for _ in range(3)]
    gold = np.array([0, 2, 1, 0])
    with Tape("float64"):
        batched = domain_loss_batch([Tensor(h.copy()) for h in heads], gold)
        singles = [domain_loss_one([h[b] for h in heads], gold[b]).value[0] for b in range(4)]
    assert abs(batched.value[0] - np.mean(singles)) < 1e-12


# -------------------------------------------------------------------- adam


def test_adam_first_step_magnitude():
    p = Tensor(np.array([1.0, -2.0]))
    p.grad = np.array([2.0, 2.0])
    state = AdamState.init({"p": p})
    adam_step({"p": p}, state, lr=0.003, l2=0.0)
    # bias-corrected first step is -lr * g / (|g| + eps)
    assert np.all(np.abs(p.value - np.array([0.997, -2.003])) < 1e-9)


def test_adam_zero_gradient_keeps_param():
    p = Tensor(np.array([3.0, -1.5]))
    p.grad = np.zeros(2)
    state = AdamState.init({"p": p})
    before = p.value.copy()
    adam_step({"p": p}, state, lr=0.01, l2=0.0)
    assert np.array_equal(p.value, before)


def test_adam_missing_gradient_treated_as_zero():
    p = Tensor(np.array([3.0]))
    state = AdamState.init({"p": p})
    adam_step({"p": p}, state, lr=0.01, l2=0.0)
    assert p.value[0] == 3.0


def test_adam_l2_acts_without_gradient():
    # decay enters through the gradient, so a zero-grad param still moves
    p = Tensor(np.array([1.0]))
    p.grad = np.zeros(1)
    state = AdamState.init({"p": p})
    adam_step({"p": p}, state, lr=0.003, l2=0.01)
    assert p.value[0] < 1.0


def _reference_adam(values, grads, lr, l2, beta1=0.9, beta2=0.999, eps=1e-8):
    """Independent loop-free reimplementation used as an oracle."""
    v = values.copy()
    m = np.zeros_like(v)
    s = np.zeros_like(v)
    for t, g in enumerate(grads, start=1):
        g = g + l2 * v
        m = beta1 * m + (1 - beta1) * g
        s = beta2 * s + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        shat = s / (1 - beta2**t)
        v = v - lr * mhat / (np.sqrt(shat) + eps)
    return v


def test_adam_many_steps_match_reference():
    rng = np.random.default_rng(9)
    start = rng.normal(size=6)
    grads = [rng.normal(size=6) for _ in range(10)]
    p = Tensor(start.copy())
    state = AdamState.init({"p": p})
    for g in grads:
        p.grad = g.copy()
        adam_step({"p": p}, state, lr=0.003, l2=0.01)
    expected = _reference_adam(start, grads, lr=0.003, l2=0.01)
    assert np.allclose(p.value, expected, rtol=0, atol=1e-12)


def test_adam_determinism():
    def run():
        p = Tensor(np.array([1.0, 2.0]))
        state = AdamState.init({"p": p})
        for i in range(5):
            p.grad = np.array([0.1 * i, -0.2])
            adam_step({"p": p}, state, lr=0.003, l2=0.01)
        return p.value

    assert np.array_equal(run(), run())


# ---------------------------------------------------------------- clipping


def test_clip_leaves_small_gradients_alone():
    p = Tensor(np.array([1.0]))
    p.grad = np.array([3.0])
    q = Tensor(np.array([1.0]))
    q.grad = np.array([4.0])
    norm = clip_gradients({"p": p, "q": q}, max_norm=5.0)
    assert norm == 5.0  # 3-4-5 triangle, exactly at the threshold
    assert p.grad[0] == 3.0 and q.grad[0] == 4.0


def test_clip_rescales_to_max_norm():
    p = Tensor(np.array([6.0]))
    p.grad = np.array([6.0])
    q = Tensor(np.array([8.0]))
    q.grad = np.array([8.0])
    norm = clip_gradients({"p": p, "q": q}, max_norm=5.0)
    assert norm == 10.0
    clipped = math.sqrt(p.grad[0] ** 2 + q.grad[0] ** 2)
    assert abs(clipped - 5.0) < 1e-12
    assert abs(p.grad[0] / q.grad[0] - 0.75) < 1e-12  # direction preserved


def test_clip_skips_missing_gradients():
    p = Tensor(np.array([1.0]))
    p.grad = np.array([10.0])
    q = Tensor(np.array([1.0]))  # grad None
    norm = clip_gradients({"p": p, "q": q}, max_norm=5.0)
    assert norm == 10.0
    assert q.grad is None
    assert abs(p.grad[0] - 5.0) < 1e-12


# ------------------------------------------------------------- hyperparams


def test_hyperparam_defaults():
    hp = Hyperparams()
    assert (hp.embed_dim, hp.hidden_dim) == (100, 200)
    assert hp.dropout == 0.1
    assert hp.batch_size == 32
    assert hp.learning_rate == 0.003
    assert hp.l2 == 0.01
    assert hp.patience == 10
    assert hp.lam == 0.1
    assert hp.max_epochs == 200
    assert hp.attention_dim == 400
    assert TR.CLIP_NORM == 5.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"dropout": 1.0},
        {"dropout": -0.1},
        {"lam": -0.5},
        {"batch_size": 0},
        {"learning_rate": 0.0},
        {"max_epochs": 0},
        {"l2": -1.0},
        {"learning_rate": float("nan")},
    ],
)
def test_hyperparam_validation(kwargs):
    with pytest.raises(ConfigError):
        Hyperparams(**kwargs)


# ------------------------------------------------------------- toy corpora


CUES = {"FAVOR": "good", "AGAINST": "bad"}
FILLERS = ["the", "a", "it", "was", "very", "so"]


def _toy_example(stance, rng, domain):
    tokens = [CUES[stance]] + list(rng.choice(FILLERS, size=int(rng.integers(1, 4))))
    rng.shuffle(tokens)
    return Example(
        sentence_tokens=tokens,
        target_tokens=["topic"],
        stance=stance,
        raw_text=" ".join(tokens),
        raw_target="topic",
        domain_index=domain,
    )


def toy_split(n_train=24, n_dev=8, seed=5):
    rng = np.random.default_rng(seed)
    train_ex = [
        _toy_example("FAVOR" if i % 2 == 0 else "AGAINST", rng, domain=i % 4)
        for i in range(n_train)
    ]
    dev_ex = [
        _toy_example("FAVOR" if i % 2 == 0 else "AGAINST", rng, domain=None)
        for i in range(n_dev)
    ]
    train_c, dev_c = Corpus(train_ex), Corpus(dev_ex)
    vocab = build_vocab([train_c])
    emb = random_embeddings(vocab, dim=5)
    encode_corpus(train_c, vocab)
    encode_corpus(dev_c, vocab)
    return train_c, dev_c, emb


def toy_model(variant, emb, seed=11, dtype=np.float32):
    spec = ModelSpec(variant=variant, embed_dim=5, hidden_dim=4, attn_dim=4, num_domains=4)
    return build_model(spec, seed, emb, dtype=dtype)


def toy_hp(**overrides):
    base = dict(
        embed_dim=5,
        hidden_dim=4,
        attn_dim=4,
        dropout=0.0,
        batch_size=8,
        learning_rate=0.01,
        l2=0.0,
        patience=50,
        lam=0.1,
        max_epochs=10,
        seed=0,
    )
    base.update(overrides)
    return Hyperparams(**base)


# ------------------------------------------------------------- train loop


def test_objective_batch_combines_the_two_losses():
    train_c, _, emb = toy_split()
    batch = train_c.examples[:4]
    gold = np.array([STANCE_TO_INDEX[ex.stance] for ex in batch])
    domains = np.array([ex.domain_index for ex in batch])
    invar = toy_model("BCAInvar", emb, dtype=np.float64)
    with Tape("float64"):
        out = M.model_forward_batch(invar, batch)
        objective, stance, domain = TR.objective_batch(out, batch, 0.3)
        expected_stance = stance_loss_batch(out.stance_probs, gold)
        expected_domain = domain_loss_batch(out.domain_probs, domains)
    assert stance.value[0] == expected_stance.value[0]
    assert domain.value[0] == expected_domain.value[0]
    assert objective.value[0] == add(expected_stance, scale(expected_domain, 0.3)).value[0]
    plain = toy_model("BCA", emb, dtype=np.float64)
    objective, stance, domain = TR.objective_batch(M.model_forward_batch(plain, batch), batch, 0.3)
    assert objective is stance and domain is None


def test_objective_tape_nodes_per_step():
    # one nll_sum per loss term, then the adds and scales that combine them
    train_c, _, emb = toy_split()
    batch = train_c.examples[:4]
    for variant, expected in (("BCAInvar", 12), ("BCA", 2)):
        model = toy_model(variant, emb)
        with Tape("float32") as tape:
            out = M.model_forward_batch(model, batch)
            before = len(tape)
            TR.objective_batch(out, batch, 0.3)
        assert len(tape) - before == expected, variant


# Tape nodes of one taped train-mode forward per variant, at any sentence
# length, since a sequence is one (positions, batch, dim) tensor: two
# embedding dropouts; per branch four LSTM runs and one [h_fwd; h_bwd]
# concatenation and dropout per hidden sequence it reads, then attention with
# its summary's concatenation and dropout, or two max pools and their
# concatenation; one concatenation of two branches; the stance head's 4 nodes
# and the adversarial heads' 1 + 3 per domain.
FORWARD_TAPE_NODES = {"Concat": 17, "ConcatInvar": 30, "BCA": 15, "BCAInvar": 28, "BCAInvarSpec": 38}


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_forward_tape_nodes_do_not_grow_with_sentence_length(variant):
    _, _, emb = toy_split()
    model = toy_model(variant, emb)
    counts = []
    for length in (3, 12):
        # a ragged batch: the last row ends two tokens early
        batch = [
            Example(["w"] * n, ["t"] * (1 + k % 2), "FAVOR", "", "", k % 4, [2 + k] * n, [3] * (1 + k % 2))
            for k, n in enumerate((length, length, length - 2))
        ]
        with Tape("float32") as tape:
            M.model_forward_batch(model, batch, train_mode=True, rng=np.random.default_rng(0), dropout=0.2)
        counts.append(len(tape))
    assert counts == [FORWARD_TAPE_NODES[variant]] * 2


def test_toy_convergence_to_perfect_dev():
    train_c, dev_c, emb = toy_split()
    model = toy_model("BCA", emb)
    report = train(model, train_c, dev_c, toy_hp(max_epochs=30, learning_rate=0.1))
    preds = predict_corpus(model, dev_c)
    golds = [ex.stance for ex in dev_c]
    accuracy = sum(p == g for p, g in zip(preds, golds)) / len(golds)
    assert accuracy == 1.0
    assert report.best_dev_f1 == 1.0


def test_training_reduces_stance_loss_across_seeds():
    train_c, dev_c, emb = toy_split()
    for seed in range(5):
        model = toy_model("BCA", emb, seed=seed)
        report = train(model, train_c, dev_c, toy_hp(max_epochs=8, seed=seed))
        assert report.epochs[-1].train_stance < report.epochs[0].train_stance


def test_lambda_zero_matches_plain_bca_exactly():
    # with lambda = 0 the adversarial branch contributes exactly zero
    # gradient, so BCAInvar must follow BCA's trajectory value for value
    train_c, dev_c, emb = toy_split()
    plain = toy_model("BCA", emb, seed=3)
    invar = toy_model("BCAInvar", emb, seed=3)
    hp = toy_hp(max_epochs=3, dropout=0.1, seed=7)
    rep_plain = train(plain, train_c, dev_c, hp)
    rep_invar = train(invar, train_c, dev_c, toy_hp(max_epochs=3, dropout=0.1, seed=7, lam=0.0))
    for name, p in plain.stance_path().items():
        assert np.array_equal(p.value, invar.params[name].value), name
    assert [e.dev_f1 for e in rep_plain.epochs] == [e.dev_f1 for e in rep_invar.epochs]


def test_lambda_nonzero_diverges_from_plain_bca():
    # sanity check that the twin test above is not vacuous
    train_c, dev_c, emb = toy_split()
    plain = toy_model("BCA", emb, seed=3)
    invar = toy_model("BCAInvar", emb, seed=3)
    train(plain, train_c, dev_c, toy_hp(max_epochs=2, seed=7))
    train(invar, train_c, dev_c, toy_hp(max_epochs=2, seed=7, lam=0.5))
    same = all(
        np.array_equal(p.value, invar.params[name].value)
        for name, p in plain.stance_path().items()
    )
    assert not same


def test_train_is_deterministic():
    train_c, dev_c, emb = toy_split()

    def run():
        model = toy_model("BCAInvar", emb, seed=2)
        report = train(model, train_c, dev_c, toy_hp(max_epochs=4, dropout=0.1, seed=9))
        return report.log_text(), {k: p.value.copy() for k, p in model.params.items()}

    log_a, params_a = run()
    log_b, params_b = run()
    assert log_a == log_b
    for name in params_a:
        assert np.array_equal(params_a[name], params_b[name]), name


def test_epoch_log_format(tmp_path):
    train_c, dev_c, emb = toy_split()
    model = toy_model("BCA", emb)
    log_path = tmp_path / "train.log"
    report = train(model, train_c, dev_c, toy_hp(max_epochs=2), log_path=log_path)
    lines = log_path.read_text().splitlines()
    assert len(lines) == 2
    for i, line in enumerate(lines, start=1):
        fields = line.split("\t")
        assert len(fields) == 4
        assert fields[0] == str(i)
        for value in fields[1:]:
            float(value)  # parses as a number
    assert log_path.read_text() == report.log_text()


def scripted_train(monkeypatch, scores, patience):
    """Train a toy BCA model whose dev macro-F1 after epoch e is scores[e - 1],
    for at most len(scores) epochs. Returns the report, the model, and the
    parameters scored after each epoch (0: the initial ones)."""
    train_c, dev_c, emb = toy_split()
    model = toy_model("BCA", emb)
    captured = {0: {k: p.value.copy() for k, p in model.params.items()}}

    def scripted(mdl, dev, batch_size=32):
        epoch = len(captured)
        captured[epoch] = {k: p.value.copy() for k, p in mdl.params.items()}
        return scores[epoch - 1]

    monkeypatch.setattr(TR, "dev_macro_f1", scripted)
    report = train(model, train_c, dev_c, toy_hp(max_epochs=len(scores), patience=patience))
    return report, model, captured


def test_scripted_early_stop_restores_best_params(monkeypatch):
    # 0.3, 0.4, then ten non-improving epochs: stop at 12, best 2
    report, model, captured = scripted_train(monkeypatch, [0.3, 0.4] + [0.4] * 20, patience=10)
    assert report.stop_epoch == 12
    assert report.best_epoch == 2
    assert report.best_dev_f1 == 0.4
    assert len(report.epochs) == 12
    for name, p in model.params.items():
        assert np.array_equal(p.value, captured[2][name]), name


@pytest.mark.parametrize(
    "scores, patience, stop_epoch, best_epoch",
    [
        pytest.param([0.5] * 5, 2, 3, 1, id="tie_counts_as_stale"),
        pytest.param([0.1, 0.1, 0.2, 0.2, 0.2, 0.2], 2, 5, 3, id="stale_count_restarts_on_improvement"),
        pytest.param([math.nan, 0.2, 0.1, 0.1, 0.1], 2, 4, 2, id="nan_never_improves"),
        pytest.param([math.nan] * 3, 1, 1, 0, id="nan_first_epoch_stops_at_patience_1"),
        pytest.param([0.1, 0.2, 0.3, 0.4, 0.5], 2, 5, 5, id="improving_runs_to_max_epochs"),
    ],
)
def test_scripted_early_stop_score_sequences(monkeypatch, scores, patience, stop_epoch, best_epoch):
    report, model, captured = scripted_train(monkeypatch, scores, patience)
    assert report.stop_epoch == stop_epoch
    assert report.best_epoch == best_epoch
    assert report.best_dev_f1 == (scores[best_epoch - 1] if best_epoch else -math.inf)
    assert len(report.epochs) == stop_epoch
    for name, p in model.params.items():
        assert np.array_equal(p.value, captured[best_epoch][name]), name


def test_checkpoint_written_holds_best_params(tmp_path):
    train_c, dev_c, emb = toy_split()
    model = toy_model("BCA", emb)
    path = tmp_path / "best.npz"
    vocab = build_vocab([train_c])
    train(model, train_c, dev_c, toy_hp(max_epochs=3), checkpoint_path=path, vocab=vocab)
    loaded, stored_vocab = M.load_checkpoint(path, emb, expected_vocab_hash=vocab.content_hash())
    assert stored_vocab == vocab
    for name, p in model.params.items():
        assert np.array_equal(p.value, loaded.params[name].value)


def test_invar_requires_domain_labels():
    train_c, dev_c, emb = toy_split()
    for ex in train_c:
        ex.domain_index = None
    model = toy_model("BCAInvar", emb)
    with pytest.raises(ConfigError, match="domain labels"):
        train(model, train_c, dev_c, toy_hp())


def test_non_finite_loss_stops_before_any_update(tmp_path):
    train_c, dev_c, emb = toy_split()
    model = toy_model("BCAInvar", emb)
    model.params["stance.w_stance"].value[0, 0] = np.nan
    before = {k: p.value.copy() for k, p in model.params.items()}
    ckpt = tmp_path / "model.npz"
    with pytest.raises(NonFiniteLossError, match="epoch 1, step 1"):
        train(model, train_c, dev_c, toy_hp(), checkpoint_path=ckpt)
    for k, p in model.params.items():
        assert np.array_equal(p.value, before[k], equal_nan=True), k
    assert not ckpt.exists()


def test_nan_probability_row_stops_training(tmp_path, monkeypatch):
    # a NaN row in the stance probabilities makes the summed NLL NaN
    train_c, dev_c, emb = toy_split()
    model = toy_model("ConcatInvar", emb)
    forward = TR.model_forward_batch

    def nan_row(*args, **kwargs):
        out = forward(*args, **kwargs)
        out.stance_probs.value[1] = np.nan
        return out

    monkeypatch.setattr(TR, "model_forward_batch", nan_row)
    before = {k: p.value.copy() for k, p in model.params.items()}
    with pytest.raises(NonFiniteLossError, match="epoch 1, step 1"):
        train(model, train_c, dev_c, toy_hp(), checkpoint_path=tmp_path / "model.npz")
    for k, p in model.params.items():
        assert np.array_equal(p.value, before[k]), k


def test_empty_corpus_rejected():
    _, dev_c, emb = toy_split()
    model = toy_model("BCA", emb)
    with pytest.raises(ConfigError, match="empty"):
        train(model, Corpus([]), dev_c, toy_hp())


def test_predict_corpus_batch_size_independent():
    train_c, dev_c, emb = toy_split()
    model = toy_model("BCA", emb, dtype=np.float64)
    assert predict_corpus(model, dev_c, batch_size=2) == predict_corpus(model, dev_c, batch_size=32)


# ------------------------------------------------ length-sorted eval batches


def ragged_corpus(n=23, seed=8):
    """Sentences of 1-9 tokens in shuffled order, so lengths repeat and the
    sorted batches differ from file order; targets of 1-3 tokens."""
    rng = np.random.default_rng(seed)
    lengths = rng.permutation(np.arange(n) % 9 + 1)
    examples = []
    for k, length in enumerate(lengths):
        sent = [int(i) for i in rng.integers(1, 12, size=length)]
        tgt = [int(i) for i in rng.integers(1, 12, size=1 + k % 3)]
        examples.append(
            Example(
                sentence_tokens=[f"s{i}" for i in sent], target_tokens=[f"t{i}" for i in tgt],
                stance=("FAVOR", "AGAINST", "NONE")[k % 3], raw_text="raw", raw_target="target",
                domain_index=k % 4, sentence_ids=sent, target_ids=tgt,
            )
        )
    return Corpus(examples)


def ragged_model(variant, dtype):
    emb = EmbeddingMatrix(values=np.random.default_rng(3).uniform(-0.5, 0.5, (12, 5)))
    return toy_model(variant, emb, dtype=dtype)


def record_forwards(monkeypatch):
    """Replace training.model_forward_batch, as perfbench's probe does, and
    record each call's examples with its stance rows."""
    calls = []
    forward = TR.model_forward_batch

    def recording(model, examples, *args, **kwargs):
        out = forward(model, examples, *args, **kwargs)
        calls.append((list(examples), out.stance_probs.value.copy()))
        return out

    monkeypatch.setattr(TR, "model_forward_batch", recording)
    return calls


@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
@pytest.mark.parametrize("variant", M.VARIANTS)
def test_predict_corpus_sorted_matches_file_order(monkeypatch, variant, dtype, tol):
    corpus = ragged_corpus()
    model = ragged_model(variant, dtype)
    batch = 4
    file_rows = np.concatenate(
        [
            M.model_forward_batch(model, corpus.examples[lo : lo + batch]).stance_probs.value
            for lo in range(0, len(corpus), batch)
        ]
    )
    calls = record_forwards(monkeypatch)
    labels = predict_corpus(model, corpus, batch)
    assert labels == [TR.STANCES[i] for i in file_rows.argmax(axis=1)]
    position = {id(ex): i for i, ex in enumerate(corpus.examples)}
    sorted_rows = np.zeros_like(file_rows)
    for examples, rows in calls:
        sorted_rows[[position[id(ex)] for ex in examples]] = rows
    assert np.abs(sorted_rows - file_rows).max() <= tol


def test_predict_corpus_batches_as_the_probe_sees_them(monkeypatch):
    corpus = ragged_corpus()
    model = ragged_model("BCAInvar", np.float32)
    calls = record_forwards(monkeypatch)
    predict_corpus(model, corpus, batch_size=4)
    position = {id(ex): i for i, ex in enumerate(corpus.examples)}
    seen = [position[id(ex)] for examples, _ in calls for ex in examples]
    assert sorted(seen) == list(range(len(corpus)))  # each example exactly once
    lengths = [len(corpus.examples[i].sentence_ids) for i in seen]
    assert lengths == sorted(lengths)  # never decreasing across calls
    assert [len(examples) for examples, _ in calls] == [4] * 5 + [3]
    keys = list(zip(lengths, seen))
    assert keys == sorted(keys)  # ties keep corpus order
    for examples, rows in calls:
        assert rows.shape == (len(examples), 3)


def test_predict_corpus_unencoded_example_keeps_forward_error():
    corpus = ragged_corpus()
    ex = corpus.examples[5]
    ex.sentence_ids = ex.target_ids = None
    model = ragged_model("BCA", np.float32)
    with pytest.raises(ValueError, match="model_forward_batch: empty"):
        predict_corpus(model, corpus, batch_size=4)


# ----------------------------------------------- saddle-point gradient shape


def test_adversarial_gradients_form_saddle():
    # heads descend the domain loss (+lam), shared encoder ascends it (-lam)
    train_c, _, emb = toy_split()
    batch = train_c.examples[:6]
    domains = np.array([ex.domain_index for ex in batch])
    lam = 0.7

    def grads(with_grl, lam_scale):
        model = toy_model("BCAInvar", emb, seed=4, dtype=np.float64)
        if not with_grl:
            monkeypatch_ctx = pytest.MonkeyPatch()
            monkeypatch_ctx.setattr(M, "grl", lambda x: x)
        with Tape("float64") as tape:
            out = M.model_forward_batch(model, batch)
            loss = scale(domain_loss_batch(out.domain_probs, domains), lam_scale)
            tape.backward(loss)
        if not with_grl:
            monkeypatch_ctx.undo()
        return {
            k: (p.grad.copy() if p.grad is not None else None) for k, p in model.params.items()
        }, model

    flipped, model = grads(with_grl=True, lam_scale=lam)
    reference, _ = grads(with_grl=False, lam_scale=lam)
    adversarial = model.adversarial
    checked_heads = checked_shared = 0
    for name in flipped:
        f, r = flipped[name], reference[name]
        if f is None and r is None:
            continue
        if name in adversarial:
            assert np.array_equal(f, r), name  # heads keep the descent direction
            checked_heads += 1
        else:
            assert np.allclose(f, -r, rtol=0, atol=1e-15), name  # encoder ascends
            checked_shared += 1
    assert checked_heads == 8  # four domains, W and b each
    assert checked_shared > 0
