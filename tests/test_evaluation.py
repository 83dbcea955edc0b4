import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stancegen.data import Corpus, EmbeddingMatrix, Example
from stancegen.errors import CapabilityError
from stancegen.evaluation import (
    AttentionRecord,
    ConfusionMatrix,
    attention_records,
    compute_metrics,
    dump_attention,
    format_metrics,
)
from stancegen.models import ModelSpec, build_model, model_forward_batch

F, A, N = "FAVOR", "AGAINST", "NONE"
LABELS = [F, A, N]


# ----------------------------------------------------------------- metrics


def test_hand_counted_case():
    rep = compute_metrics([F, A, A, A, N], [F, F, A, A, N])
    assert abs(rep.per_class[F].f1 - 2 / 3) < 1e-12
    assert abs(rep.per_class[A].f1 - 0.8) < 1e-12
    assert abs(rep.macro_f1 - (2 / 3 + 0.8) / 2) < 1e-12


def test_perfect_predictions():
    golds = [F, A, N, F, A]
    rep = compute_metrics(golds, golds)
    for name in LABELS:
        assert rep.per_class[name].f1 == 1.0
    assert rep.macro_f1 == 1.0


def test_absent_favor_scores_zero():
    # no FAVOR anywhere: 0/0 -> 0, macro collapses to F1_AGAINST / 2
    rep = compute_metrics([A, A, N], [A, N, A])
    assert rep.per_class[F].f1 == 0.0
    assert rep.macro_f1 == rep.per_class[A].f1 / 2


def test_length_mismatch_rejected():
    with pytest.raises(ValueError, match="2 .* 3|3 .* 2"):
        compute_metrics([F, A], [F, A, N])


def test_empty_rejected():
    with pytest.raises(ValueError):
        compute_metrics([], [])


def test_unknown_label_rejected():
    with pytest.raises(ValueError, match="MAYBE"):
        compute_metrics([F, "MAYBE"], [F, A])


def _oracle_metrics(preds, golds):
    """Brute-force recount, no confusion matrix: loop per class."""
    out = {}
    for name in LABELS:
        tp = sum(1 for p, g in zip(preds, golds) if p == name and g == name)
        fp = sum(1 for p, g in zip(preds, golds) if p == name and g != name)
        fn = sum(1 for p, g in zip(preds, golds) if p != name and g == name)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        out[name] = (prec, rec, f1)
    macro = (out[F][2] + out[A][2]) / 2
    return out, macro


def test_agrees_with_brute_force_oracle():
    rng = np.random.default_rng(777)
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        preds = [LABELS[i] for i in rng.integers(0, 3, n)]
        golds = [LABELS[i] for i in rng.integers(0, 3, n)]
        rep = compute_metrics(preds, golds)
        oracle, macro = _oracle_metrics(preds, golds)
        for name in LABELS:
            m = rep.per_class[name]
            assert (m.precision, m.recall, m.f1) == oracle[name]
        assert rep.macro_f1 == macro


@given(
    st.lists(st.tuples(st.sampled_from(LABELS), st.sampled_from(LABELS)), min_size=1, max_size=40),
    st.randoms(),
)
def test_macro_invariant_under_permutation(pairs, rnd):
    preds = [p for p, _ in pairs]
    golds = [g for _, g in pairs]
    base = compute_metrics(preds, golds).macro_f1
    order = list(range(len(pairs)))
    rnd.shuffle(order)
    shuffled = compute_metrics([preds[i] for i in order], [golds[i] for i in order]).macro_f1
    assert shuffled == base


def test_none_agreements_never_move_macro():
    preds = [F, A, A, N]
    golds = [F, F, A, N]
    base = compute_metrics(preds, golds).macro_f1
    for extra in (1, 5, 50):
        padded = compute_metrics(preds + [N] * extra, golds + [N] * extra).macro_f1
        assert padded == base


@given(st.lists(st.tuples(st.sampled_from(LABELS), st.sampled_from(LABELS)), min_size=1, max_size=30))
def test_metrics_bounded(pairs):
    rep = compute_metrics([p for p, _ in pairs], [g for _, g in pairs])
    for name in LABELS:
        m = rep.per_class[name]
        for v in (m.precision, m.recall, m.f1):
            assert 0.0 <= v <= 1.0
    assert 0.0 <= rep.macro_f1 <= 1.0


def test_confusion_layout_rows_are_gold():
    rep = compute_metrics([A], [F])
    assert rep.confusion.counts[0, 1] == 1  # gold FAVOR row, AGAINST column
    assert rep.confusion.total == 1


def test_confusion_rejects_negative_counts():
    bad = np.zeros((3, 3))
    bad[0, 0] = -1
    with pytest.raises(ValueError, match="non-negative"):
        ConfusionMatrix(bad)


def test_format_metrics_has_macro_line():
    rep = compute_metrics([F, A, N], [F, A, N])
    text = format_metrics(rep, title="dev")
    assert text.startswith("dev\n")
    assert "macro-F1 (FAVOR, AGAINST): 1.0000" in text
    assert "AGAINST" in text


# ---------------------------------------------------------- attention dump


def embeddings():
    rng = np.random.default_rng(1234)
    values = rng.uniform(-0.5, 0.5, (12, 3))
    values[0] = 0.0
    return EmbeddingMatrix(values=values)


def example(sent_ids, tgt_ids, stance=F, domain=0):
    return Example(
        sentence_tokens=[f"s{i}" for i in sent_ids],
        target_tokens=[f"t{i}" for i in tgt_ids],
        stance=stance,
        raw_text="raw",
        raw_target="some target",
        domain_index=domain,
        sentence_ids=list(sent_ids),
        target_ids=list(tgt_ids),
    )


def bca_model(variant="BCA"):
    spec = ModelSpec(variant=variant, embed_dim=3, hidden_dim=2, attn_dim=3, num_domains=4)
    return build_model(spec, 7, embeddings())


CORPUS = Corpus(
    [
        example([2, 3, 4], [5, 6]),
        example([7], [8], stance=A),
        example([9, 10, 11, 2], [3], stance=N),
    ]
)


def test_dump_count_matches_corpus(tmp_path):
    path = tmp_path / "att.jsonl"
    n = dump_attention(bca_model(), CORPUS, path)
    assert n == len(CORPUS)
    lines = path.read_text().splitlines()
    assert len(lines) == len(CORPUS)


def test_dump_record_contents(tmp_path):
    path = tmp_path / "att.jsonl"
    dump_attention(bca_model(), CORPUS, path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for rec, ex in zip(records, CORPUS):
        assert rec["tokens"] == ex.sentence_tokens
        assert len(rec["weights"]) == len(ex.sentence_tokens)
        assert abs(sum(rec["weights"]) - 1.0) < 1e-5
        assert rec["gold"] == ex.stance
        assert rec["predicted"] in LABELS
        assert rec["target"] == "some target"


def test_batched_records_match_one_padded_batch():
    # sorted batches of 2 against the whole corpus as one padded batch, the
    # way attention_records ran before it batched
    rng = np.random.default_rng(2)
    corpus = Corpus(
        [
            example([int(i) for i in rng.integers(1, 12, size=n)], [5, 6][: 1 + k % 2], stance=LABELS[k % 3])
            for k, n in enumerate([4, 1, 6, 2, 4, 3, 6, 1, 5])
        ]
    )
    model = bca_model()
    out = model_forward_batch(model, corpus.examples)
    records = attention_records(model, corpus, batch_size=2)
    assert len(records) == len(corpus)
    for i, (rec, ex) in enumerate(zip(records, corpus)):
        assert rec.tokens == ex.sentence_tokens
        assert rec.gold == ex.stance
        assert rec.predicted == LABELS[int(np.argmax(out.stance_probs.value[i]))]
        expected = out.attention.alpha.value[i][out.sentence_mask[i]]
        assert np.abs(np.array(rec.weights) - expected).max() <= 1e-6


def test_single_token_sentence_gets_unit_weight(tmp_path):
    path = tmp_path / "one.jsonl"
    dump_attention(bca_model(), Corpus([example([4], [5, 6])]), path)
    rec = json.loads(path.read_text())
    assert rec["weights"] == [1.0]


def test_concat_variant_lacks_attention(tmp_path):
    for variant in ("Concat", "ConcatInvar"):
        with pytest.raises(CapabilityError, match="no attention layer"):
            dump_attention(bca_model(variant), CORPUS, tmp_path / "x.jsonl")


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    model = bca_model()
    dump_attention(model, CORPUS, a)
    dump_attention(model, CORPUS, b)
    assert a.read_bytes() == b.read_bytes()


def test_dump_replaces_existing_file(tmp_path):
    path = tmp_path / "old.jsonl"
    path.write_text("stale\n" * 10, encoding="utf-8")
    n = dump_attention(bca_model(), CORPUS, path)
    assert n == 3
    assert len(path.read_text().splitlines()) == 3


def test_html_heatmap_written(tmp_path):
    path = tmp_path / "att.jsonl"
    html_path = tmp_path / "att.html"
    dump_attention(bca_model(), CORPUS, path, html_out=html_path)
    text = html_path.read_text()
    assert text.count('<span class="tok"') == sum(len(ex.sentence_tokens) for ex in CORPUS)
    assert "some target" in text


def test_html_escapes_tokens(tmp_path):
    ex = example([2, 3], [4])
    ex.sentence_tokens = ["<script>", "&amp"]
    html_path = tmp_path / "esc.html"
    dump_attention(bca_model(), Corpus([ex]), tmp_path / "esc.jsonl", html_out=html_path)
    text = html_path.read_text()
    assert "<script>" not in text
    assert "&lt;script&gt;" in text


def test_attention_record_json_shape():
    rec = AttentionRecord(
        tokens=["a", "b"], weights=[0.25, 0.75], target="t", gold=F, predicted=A
    )
    parsed = json.loads(rec.to_json())
    assert set(parsed) == {"tokens", "weights", "target", "gold", "predicted"}
