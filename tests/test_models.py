import collections
import json
import tracemalloc

import numpy as np
import pytest

import stancegen.models as M
from stancegen.data import Example, EmbeddingMatrix, Vocabulary
from stancegen.errors import CheckpointError, ConfigError, DataError
from stancegen.models import (
    ModelSpec,
    build_model,
    load_checkpoint,
    model_forward_batch,
    pad_id_batch,
    save_checkpoint,
)
from stancegen.tensor import Tape, zero_grads
from stancegen.training import domain_loss_batch, objective_batch

F64 = np.float64

VOCAB_SIZE = 12
EMBED_DIM = 3
HIDDEN = 2
ATTN = 3
DOMAINS = 4


VOCAB = Vocabulary.from_tokens(["<pad>", "<unk>"] + [f"w{i}" for i in range(VOCAB_SIZE - 2)])


def embeddings(dim=EMBED_DIM, size=VOCAB_SIZE):
    rng = np.random.default_rng(1234)
    values = rng.uniform(-0.5, 0.5, (size, dim))
    values[0] = 0.0
    return EmbeddingMatrix(values=values)


def spec_for(variant, domains=DOMAINS):
    return ModelSpec(
        variant=variant,
        embed_dim=EMBED_DIM,
        hidden_dim=HIDDEN,
        attn_dim=ATTN,
        num_domains=domains,
    )


def example(sent_ids, tgt_ids, stance="FAVOR", domain=0):
    return Example(
        sentence_tokens=[f"s{i}" for i in sent_ids],
        target_tokens=[f"t{i}" for i in tgt_ids],
        stance=stance,
        raw_text="raw",
        raw_target="target",
        domain_index=domain,
        sentence_ids=list(sent_ids),
        target_ids=list(tgt_ids),
    )


EX = example([2, 3, 4], [5, 6])


def forward_one(model, ex=EX):
    """The forward pass of one example: a batch of one."""
    return model_forward_batch(model, [ex])


# ------------------------------------------------------------------- spec


def test_spec_rejects_unknown_variant():
    with pytest.raises(ConfigError, match="variant"):
        spec_for("BiLSTM")


def test_spec_invar_needs_two_domains():
    with pytest.raises(ConfigError, match="domains"):
        spec_for("BCAInvar", domains=1)
    spec_for("BCA", domains=0)  # baselines carry no domain heads


def test_spec_rejects_non_positive_dims():
    with pytest.raises(ConfigError):
        ModelSpec(variant="BCA", embed_dim=0, hidden_dim=2, attn_dim=2, num_domains=0)


# ------------------------------------------------------------ build_model


def test_same_seed_bitwise_identical_params():
    emb = embeddings()
    m1 = build_model(spec_for("BCAInvar"), seed=7, embeddings=emb, dtype=F64)
    m2 = build_model(spec_for("BCAInvar"), seed=7, embeddings=emb, dtype=F64)
    assert list(m1.params) == list(m2.params)
    for name in m1.params:
        assert np.array_equal(m1.params[name].value, m2.params[name].value), name


def test_bca_has_no_domain_parameters():
    m = build_model(spec_for("BCA"), seed=0, embeddings=embeddings(), dtype=F64)
    assert not m.adversarial
    assert not any(name.startswith("domain.") for name in m.params)


def test_bcainvar_has_one_classifier_per_domain_flagged_adversarial():
    m = build_model(spec_for("BCAInvar"), seed=0, embeddings=embeddings(), dtype=F64)
    pairs = [name for name in m.params if name.startswith("domain.")]
    assert len(pairs) == 2 * DOMAINS
    assert m.adversarial == set(pairs)
    for i in range(DOMAINS):
        assert m.params[f"domain.{i}.w"].value.shape == (2, 2 * HIDDEN)
        assert m.params[f"domain.{i}.b"].value.shape == (2,)


def test_embedding_dim_mismatch_rejected():
    with pytest.raises(ConfigError, match="dim"):
        build_model(spec_for("BCA"), seed=0, embeddings=embeddings(dim=5), dtype=F64)


def test_stance_path_params_identical_across_bca_and_bcainvar():
    emb = embeddings()
    bca = build_model(spec_for("BCA"), seed=3, embeddings=emb, dtype=F64)
    inv = build_model(spec_for("BCAInvar"), seed=3, embeddings=emb, dtype=F64)
    assert set(bca.params) == set(inv.stance_path())
    for name, t in bca.params.items():
        assert np.array_equal(t.value, inv.params[name].value), name


def lstm_count(e, h):
    return 4 * (h * (e + h) + h)


@pytest.mark.parametrize(
    "variant,formula",
    [
        ("Concat", lambda e, h, a, d: 4 * lstm_count(e, h) + h * 4 * h + 3 * h),
        ("ConcatInvar", lambda e, h, a, d: 4 * lstm_count(e, h) + h * 4 * h + 3 * h + d * (4 * h + 2)),
        ("BCA", lambda e, h, a, d: 4 * lstm_count(e, h) + a * 4 * h + a + h * 2 * h + 3 * h),
        (
            "BCAInvar",
            lambda e, h, a, d: 4 * lstm_count(e, h) + a * 4 * h + a + h * 2 * h + 3 * h + d * (4 * h + 2),
        ),
        (
            "BCAInvarSpec",
            lambda e, h, a, d: 8 * lstm_count(e, h)
            + 2 * (a * 4 * h + a)
            + h * 4 * h
            + 3 * h
            + d * (4 * h + 2),
        ),
    ],
)
def test_parameter_counts_match_closed_form(variant, formula):
    m = build_model(spec_for(variant), seed=0, embeddings=embeddings(), dtype=F64)
    assert m.param_count() == formula(EMBED_DIM, HIDDEN, ATTN, DOMAINS)


# ---------------------------------------------------- model_forward_batch


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_forward_stance_probs_is_distribution(variant):
    m = build_model(spec_for(variant), seed=1, embeddings=embeddings(), dtype=F64)
    out = forward_one(m)
    assert out.stance_probs.value.shape == (1, 3)
    assert abs(out.stance_probs.value.sum() - 1.0) < 1e-9


def test_forward_domain_rows_are_distributions():
    m = build_model(spec_for("BCAInvar"), seed=2, embeddings=embeddings(), dtype=F64)
    out = model_forward_batch(m, ragged_examples())
    assert len(out.domain_probs) == DOMAINS
    for p in out.domain_probs:
        assert p.value.shape == (3, 2)
        assert np.allclose(p.value.sum(axis=1), 1.0, atol=1e-9)


def test_forward_zero_stance_weights_give_uniform():
    m = build_model(spec_for("BCA"), seed=3, embeddings=embeddings(), dtype=F64)
    m.w_stance.value[:] = 0.0
    out = forward_one(m)
    assert np.allclose(out.stance_probs.value, [[1 / 3] * 3], atol=1e-12)


def test_forward_attention_presence_by_variant():
    emb = embeddings()
    bca = forward_one(build_model(spec_for("BCA"), seed=4, embeddings=emb, dtype=F64))
    assert bca.attention is not None
    assert bca.attention.alpha.value.shape == (1, 3)
    conc = forward_one(build_model(spec_for("Concat"), seed=4, embeddings=emb, dtype=F64))
    assert conc.attention is None
    assert not conc.domain_probs


def test_forward_rejects_empty_and_out_of_range_ids():
    m = build_model(spec_for("BCA"), seed=5, embeddings=embeddings(), dtype=F64)
    with pytest.raises(ValueError, match="empty sentence"):
        forward_one(m, example([], [2]))
    with pytest.raises(ValueError, match="empty target"):
        model_forward_batch(m, [EX, example([2], [])])
    with pytest.raises(DataError, match="token id"):
        forward_one(m, example([2, VOCAB_SIZE + 3], [2]))


def test_forward_eval_mode_deterministic_without_rng():
    m = build_model(spec_for("BCAInvarSpec"), seed=6, embeddings=embeddings(), dtype=F64)
    a = forward_one(m)
    b = forward_one(m)
    assert np.array_equal(a.stance_probs.value, b.stance_probs.value)
    assert np.array_equal(a.attention.alpha.value, b.attention.alpha.value)


def test_forward_stance_path_identical_between_bca_and_bcainvar():
    emb = embeddings()
    bca = build_model(spec_for("BCA"), seed=8, embeddings=emb, dtype=F64)
    inv = build_model(spec_for("BCAInvar"), seed=8, embeddings=emb, dtype=F64)
    out_b = forward_one(bca)
    out_i = forward_one(inv)
    assert np.array_equal(out_b.stance_probs.value, out_i.stance_probs.value)


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_eval_forward_keeps_model_precision(variant):
    # no tape: the encoder's zero initial states must not promote to float64
    m = build_model(spec_for(variant), seed=7, embeddings=embeddings(), dtype=np.float32)
    out = model_forward_batch(m, ragged_examples())
    assert out.stance_probs.value.dtype == np.float32
    assert out.repr.value.dtype == np.float32
    assert all(p.value.dtype == np.float32 for p in out.domain_probs)
    if out.attention is not None:
        assert out.attention.alpha.value.dtype == np.float32


# -------------------------------------------------------- grl placement


@pytest.mark.parametrize("variant", ["ConcatInvar", "BCAInvar", "BCAInvarSpec"])
def test_grl_flips_encoder_gradients_only(variant, monkeypatch):
    emb = embeddings()

    def grads(with_grl):
        m = build_model(spec_for(variant), seed=9, embeddings=emb, dtype=F64)
        if not with_grl:
            monkeypatch.setattr(M, "grl", lambda x: x)
        else:
            monkeypatch.undo()
        zero_grads(m.params.values())
        with Tape("float64") as tape:
            out = forward_one(m)
            tape.backward(domain_loss_batch(out.domain_probs, np.array([1])))
        return {
            name: (None if t.grad is None else t.grad.copy()) for name, t in m.params.items()
        }, m.adversarial

    g1, adv = grads(True)
    g0, _ = grads(False)
    flipped = checked = 0
    for name in g1:
        if name in adv:
            assert np.array_equal(g1[name], g0[name]), name
            checked += 1
        elif name.startswith("stance."):
            assert g1[name] is None and g0[name] is None  # stance head off-path
        elif g0[name] is not None and g0[name].any():
            assert np.array_equal(g1[name], -g0[name]), name
            flipped += 1
    assert checked == 2 * DOMAINS
    assert flipped > 0


# ------------------------------------------------------------ batch path


def ragged_examples():
    return [
        example([2, 3, 4], [5, 6]),
        example([7], [8, 9, 10]),
        example([3, 5], [2]),
    ]


def tape_kinds(variant, examples):
    """One training step's tape nodes by kind: the function whose closure
    each node replays."""
    m = build_model(spec_for(variant), seed=11, embeddings=embeddings(), dtype=np.float32)
    with Tape("float32") as tape:
        out = model_forward_batch(m, examples, train_mode=True, rng=np.random.default_rng(0), dropout=0.2)
        objective_batch(out, examples, 0.3)
    return collections.Counter(fn.__qualname__.split(".")[0] for _, fn in tape._nodes)


def test_training_step_records_one_node_per_lstm_run_and_attention_pool():
    exs = ragged_examples()
    kinds = tape_kinds("BCAInvarSpec", exs)
    # two branches, each with a target pair and a sentence pair of runs
    assert kinds["run_lstm_batch"] == 2 * 4
    assert kinds["additive_attention_batch"] == 2
    k = 3
    longer = [example(ex.sentence_ids + [4] * k, ex.target_ids) for ex in exs]
    grown = tape_kinds("BCAInvarSpec", longer)
    added = {kind: grown[kind] - kinds[kind] for kind in grown | kinds if grown[kind] != kinds[kind]}
    # a sequence is one tensor: its embedding dropout, and in each branch its
    # [h_fwd; h_bwd] concatenation and that sequence's dropout, are one node
    # each at any length
    assert added == {}
    assert kinds["dropout"] == 2 + 2 * 2 and kinds["concat_cols"] == 2 * 2 + 1


def test_pad_id_batch_layout():
    ids, mask = pad_id_batch([[2, 3], [4]])
    assert np.array_equal(ids, [[2, 3], [4, 0]])
    assert np.array_equal(mask, [[True, True], [True, False]])


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_batch_forward_matches_per_example(variant):
    # padding must not leak: row i of a ragged batch equals example i's
    # forward as a batch of one, and attention on its padding is exactly 0
    m = build_model(spec_for(variant), seed=10, embeddings=embeddings(), dtype=F64)
    exs = ragged_examples()
    batch = model_forward_batch(m, exs)
    assert len(batch.domain_probs) == (DOMAINS if variant in M.INVAR_VARIANTS else 0)
    for i, ex in enumerate(exs):
        single = forward_one(m, ex)
        assert np.allclose(batch.stance_probs.value[i], single.stance_probs.value[0], atol=1e-12)
        assert np.allclose(batch.repr.value[i], single.repr.value[0], atol=1e-12)
        for d in range(len(single.domain_probs)):
            assert np.allclose(
                batch.domain_probs[d].value[i], single.domain_probs[d].value[0], atol=1e-12
            )
        n = len(ex.sentence_ids)
        assert np.array_equal(batch.sentence_mask[i], np.arange(batch.sentence_mask.shape[1]) < n)
        if single.attention is not None:
            assert np.allclose(
                batch.attention.alpha.value[i, :n], single.attention.alpha.value[0], atol=1e-12
            )
            assert not batch.attention.alpha.value[i, n:].any()


def test_batch_forward_rejects_empty_batch():
    m = build_model(spec_for("BCA"), seed=10, embeddings=embeddings(), dtype=F64)
    with pytest.raises(ValueError):
        model_forward_batch(m, [])


# ------------------------------------------------------------ checkpoints


def trained_like_model(variant="BCAInvar", dtype=np.float32):
    m = build_model(spec_for(variant), seed=11, embeddings=embeddings(), dtype=dtype)
    rng = np.random.default_rng(99)
    for t in m.params.values():
        t.value = t.value + rng.normal(0, 0.01, t.value.shape).astype(dtype)
    return m


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_checkpoint_round_trip_value_exact(tmp_path, monkeypatch, variant):
    m = trained_like_model(variant)
    path = tmp_path / "model.npz"
    save_checkpoint(m, path, VOCAB)

    def no_draws(*args, **kwargs):
        raise AssertionError("load_checkpoint created a random generator")

    # every parameter and the embedding matrix come from the file, so
    # loading draws nothing and needs no embeddings
    with monkeypatch.context() as patched:
        patched.setattr(np.random, "default_rng", no_draws)
        loaded, vocab = load_checkpoint(path, expected_vocab_hash=VOCAB.content_hash())
    assert loaded.spec == m.spec
    assert vocab == VOCAB
    assert np.array_equal(loaded.embeddings.values, m.embeddings.values)
    assert set(loaded.params) == set(m.params)
    for name in m.params:
        assert np.array_equal(loaded.params[name].value, m.params[name].value), name
    out_orig = forward_one(m)
    out_loaded = forward_one(loaded)
    assert np.array_equal(out_orig.stance_probs.value, out_loaded.stance_probs.value)


def test_checkpoint_stores_embeddings_next_to_the_parameters(tmp_path):
    m = trained_like_model()
    path = tmp_path / "model.npz"
    save_checkpoint(m, path, VOCAB)
    with np.load(path, allow_pickle=False) as archive:
        names = archive.files
        meta = json.loads(str(archive[M.META_ARRAY]))
        flat = archive[M.PARAMS_ARRAY]
        stored = archive[M.EMBEDDINGS_ARRAY]
    assert names == [M.META_ARRAY, M.PARAMS_ARRAY, M.EMBEDDINGS_ARRAY]
    assert sorted(meta) == ["index", "precision", "spec", "version", "vocab"]
    assert meta["vocab"] == VOCAB.tokens()
    assert meta["index"] == [[name, list(t.value.shape)] for name, t in m.params.items()]
    assert flat.dtype == np.float32 and flat.ndim == 1
    assert flat.tobytes() == b"".join(t.value.tobytes() for t in m.params.values())
    assert stored.dtype == np.float64
    assert stored.tobytes() == m.embeddings.values.tobytes()


def test_loaded_parameters_are_slices_of_one_flat_array(tmp_path):
    m = trained_like_model()
    path = tmp_path / "model.npz"
    save_checkpoint(m, path, VOCAB)
    loaded, _ = load_checkpoint(path)
    bases = {id(t.value.base) for t in loaded.params.values()}
    assert len(bases) == 1
    assert all(t.value.flags.writeable for t in loaded.params.values())


def test_save_checkpoint_streams_the_flat_array(tmp_path):
    # the parameters are written one by one: saving never holds a copy of
    # all of them, only one parameter's bytes at a time
    m = build_model(ModelSpec("BCA", EMBED_DIM, 64, 16, DOMAINS), seed=0, embeddings=embeddings(), dtype=F64)
    total = sum(t.value.nbytes for t in m.params.values())
    tracemalloc.start()
    try:
        save_checkpoint(m, tmp_path / "model.npz", VOCAB)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < total / 2
    loaded, _ = load_checkpoint(tmp_path / "model.npz")
    for name, t in m.params.items():
        assert np.array_equal(loaded.params[name].value, t.value), name


def test_build_model_without_a_seed_allocates_nothing_the_spec_sizes():
    spec = ModelSpec("BCAInvar", EMBED_DIM, 10**6, 10**6, DOMAINS)
    m = build_model(spec, seed=None, embeddings=embeddings(), dtype=np.float32)
    weights = [t.value for name, t in m.params.items() if not name.startswith("domain.")]
    assert m.params["encoder.sent_fwd.w_i"].value.shape == (10**6, EMBED_DIM + 10**6)
    assert all(not v.flags.writeable and not any(v.strides) for v in weights)


def test_checkpoint_vocab_hash_mismatch(tmp_path):
    m = trained_like_model()
    path = tmp_path / "model.npz"
    save_checkpoint(m, path, VOCAB)
    with pytest.raises(CheckpointError, match="hash"):
        load_checkpoint(path, expected_vocab_hash="zzz")


def test_checkpoint_accepts_the_stored_embeddings_positionally(tmp_path):
    # the second positional parameter stays the optional embedding matrix
    m = trained_like_model()
    path = tmp_path / "model.npz"
    save_checkpoint(m, path, VOCAB)
    loaded, _ = load_checkpoint(path, embeddings(), VOCAB.content_hash())
    assert np.array_equal(loaded.embeddings.values, m.embeddings.values)


def test_checkpoint_embedding_mismatch(tmp_path):
    m = trained_like_model()
    path = tmp_path / "model.npz"
    save_checkpoint(m, path, VOCAB)
    other = embeddings()
    other.values = other.values + 1.0
    with pytest.raises(CheckpointError, match="embedding"):
        load_checkpoint(path, embeddings=other, expected_vocab_hash=VOCAB.content_hash())


def test_checkpoint_corrupted_file(tmp_path):
    path = tmp_path / "model.npz"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def _saved_arrays(tmp_path):
    m = trained_like_model()
    path = tmp_path / "model.npz"
    save_checkpoint(m, path, VOCAB)
    with np.load(path, allow_pickle=False) as archive:
        return path, {name: archive[name] for name in archive.files}


def test_checkpoint_version_gate(tmp_path):
    path, arrays = _saved_arrays(tmp_path)
    meta = json.loads(str(arrays["__meta__"]))
    arrays["__meta__"] = np.array(json.dumps({**meta, "version": 999}))
    np.savez(path, **arrays)
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 999"):
        load_checkpoint(path)


def _drop_parameter(arrays, name):
    """Remove `name` from the index and its values from the flat array."""
    meta = json.loads(str(arrays[M.META_ARRAY]))
    offset = 0
    for i, (entry, shape) in enumerate(meta["index"]):
        size = int(np.prod(shape))
        if entry == name:
            del meta["index"][i]
            flat = arrays[M.PARAMS_ARRAY]
            arrays[M.PARAMS_ARRAY] = np.concatenate([flat[:offset], flat[offset + size :]])
            arrays[M.META_ARRAY] = np.array(json.dumps(meta))
            return
        offset += size
    raise KeyError(name)


def test_checkpoint_missing_parameter_detected(tmp_path):
    path, arrays = _saved_arrays(tmp_path)
    _drop_parameter(arrays, "stance.w_mlp")
    np.savez(path, **arrays)
    with pytest.raises(CheckpointError, match=r"index entry \d+ is .*stance\.w_stance.*spec gives .*stance\.w_mlp"):
        load_checkpoint(path)


def test_checkpoint_dtype_mismatch_names_the_array(tmp_path):
    path, arrays = _saved_arrays(tmp_path)
    arrays[M.PARAMS_ARRAY] = arrays[M.PARAMS_ARRAY].astype(np.float64)
    np.savez(path, **arrays)
    with pytest.raises(CheckpointError, match=r"__params__ is float64.*float32"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "variant,prefixes",
    [
        ("Concat", {"encoder", "stance"}),
        ("ConcatInvar", {"encoder", "stance", "domain"}),
        ("BCA", {"encoder", "attention", "stance"}),
        ("BCAInvar", {"encoder", "attention", "stance", "domain"}),
        (
            "BCAInvarSpec",
            {"encoder_invar", "attention_invar", "encoder_spec", "attention_spec", "stance", "domain"},
        ),
    ],
)
def test_parameter_names_by_variant(variant, prefixes):
    # checkpoints store parameters by these names
    m = build_model(spec_for(variant), seed=0, embeddings=embeddings(), dtype=F64)
    assert {name.split(".")[0] for name in m.params} == prefixes
    assert len(m.branches) == (2 if variant == "BCAInvarSpec" else 1)
