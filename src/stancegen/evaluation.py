"""Stance metrics (per-class P/R/F1, macro-F1 over FAVOR and AGAINST) and
attention dumps for qualitative inspection."""

from __future__ import annotations

import html
import json
from dataclasses import dataclass

import numpy as np

from .data import STANCE_TO_INDEX, STANCES, Corpus
from .errors import CapabilityError
from .files import atomic_write
from .models import ATTENTION_VARIANTS, Model, length_sorted_batches, model_forward_batch


class ConfusionMatrix:
    """3x3 integer counts, rows = gold, cols = predicted, order STANCES."""

    def __init__(self, counts: np.ndarray):
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (3, 3):
            raise ValueError(f"confusion matrix must be 3x3, got {counts.shape}")
        if (counts < 0).any():
            raise ValueError("confusion counts must be non-negative")
        self.counts = counts

    @classmethod
    def from_labels(cls, preds, golds) -> "ConfusionMatrix":
        counts = np.zeros((3, 3), dtype=np.int64)
        for p, g in zip(preds, golds):
            counts[STANCE_TO_INDEX[g], STANCE_TO_INDEX[p]] += 1
        return cls(counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class MetricsReport:
    per_class: dict[str, ClassMetrics]
    macro_f1: float
    confusion: ConfusionMatrix


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute_metrics(preds, golds) -> MetricsReport:
    """Per-class precision/recall/F1 plus macro-F1 over FAVOR and AGAINST.

    Any 0/0 ratio is defined as 0. NONE never contributes to macro_f1.
    """
    preds = list(preds)
    golds = list(golds)
    if len(preds) != len(golds):
        raise ValueError(f"{len(preds)} predictions for {len(golds)} gold labels")
    if not preds:
        raise ValueError("nothing to evaluate")
    for label in preds + golds:
        if label not in STANCE_TO_INDEX:
            raise ValueError(f"unknown stance label {label!r}")
    confusion = ConfusionMatrix.from_labels(preds, golds)
    per_class: dict[str, ClassMetrics] = {}
    for i, name in enumerate(STANCES):
        tp = int(confusion.counts[i, i])
        fp = int(confusion.counts[:, i].sum()) - tp
        fn = int(confusion.counts[i, :].sum()) - tp
        precision = _safe_div(tp, tp + fp)
        recall = _safe_div(tp, tp + fn)
        f1 = _safe_div(2 * precision * recall, precision + recall)
        per_class[name] = ClassMetrics(precision, recall, f1)
    macro = (per_class["FAVOR"].f1 + per_class["AGAINST"].f1) / 2.0
    return MetricsReport(per_class=per_class, macro_f1=macro, confusion=confusion)


def format_metrics(report: MetricsReport, title: str | None = None) -> str:
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{'class':<10}{'precision':>10}{'recall':>10}{'f1':>10}")
    for name in STANCES:
        m = report.per_class[name]
        lines.append(f"{name:<10}{m.precision:>10.4f}{m.recall:>10.4f}{m.f1:>10.4f}")
    lines.append(f"macro-F1 (FAVOR, AGAINST): {report.macro_f1:.4f}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class AttentionRecord:
    tokens: list[str]
    weights: list[float]
    target: str
    gold: str
    predicted: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "tokens": self.tokens,
                "weights": self.weights,
                "target": self.target,
                "gold": self.gold,
                "predicted": self.predicted,
            },
            ensure_ascii=False,
            sort_keys=True,
        )


def attention_records(model: Model, corpus: Corpus, batch_size: int = 32) -> list[AttentionRecord]:
    """One record per example, in corpus order, from eval-mode forward passes
    over length_sorted_batches, so memory grows with batch_size, not with
    the corpus."""
    if model.spec.variant not in ATTENTION_VARIANTS:
        raise CapabilityError(f"variant {model.spec.variant} has no attention layer")
    examples = corpus.examples
    records: list[AttentionRecord | None] = [None] * len(examples)
    for idx in length_sorted_batches(examples, batch_size):
        out = model_forward_batch(model, [examples[i] for i in idx])
        alpha = out.attention.alpha.value
        predicted = np.argmax(out.stance_probs.value, axis=1)
        for row, i in enumerate(idx):
            ex = examples[i]
            # each alpha row is cut at its sentence
            records[i] = AttentionRecord(
                tokens=list(ex.sentence_tokens),
                weights=[float(a) for a in alpha[row][out.sentence_mask[row]]],
                target=ex.raw_target,
                gold=ex.stance,
                predicted=STANCES[predicted[row]],
            )
    return records


def _heatmap_html(records: list[AttentionRecord]) -> str:
    parts = [
        "<!doctype html>",
        '<meta charset="utf-8">',
        "<title>attention heatmap</title>",
        "<style>body{font-family:sans-serif;max-width:60em;margin:1em auto}"
        ".ex{margin-bottom:1em}.meta{color:#555;font-size:85%}"
        "span.tok{padding:1px 3px;border-radius:3px}</style>",
    ]
    for rec in records:
        peak = max(rec.weights) if rec.weights else 1.0
        toks = []
        for tok, w in zip(rec.tokens, rec.weights):
            shade = w / peak if peak > 0 else 0.0
            toks.append(
                f'<span class="tok" style="background:rgba(220,40,40,{shade:.3f})">'
                f"{html.escape(tok)}</span>"
            )
        parts.append(
            '<div class="ex"><div class="meta">'
            f"target: {html.escape(rec.target)} | gold: {rec.gold} | predicted: {rec.predicted}"
            f"</div><p>{' '.join(toks)}</p></div>"
        )
    return "\n".join(parts) + "\n"


def dump_attention(model: Model, corpus: Corpus, out, html_out=None, batch_size: int = 32) -> int:
    """Write one JSON record per example to the path `out`; optionally an HTML heatmap.

    Returns the number of records written. Concat variants have no
    attention to dump and raise CapabilityError before any directory or
    file is created; otherwise missing parent directories are made.
    """
    records = attention_records(model, corpus, batch_size)
    outputs = [(out, "".join(rec.to_json() + "\n" for rec in records))]
    if html_out is not None:
        outputs.append((html_out, _heatmap_html(records)))
    for path, text in outputs:
        with atomic_write(path) as fh:
            fh.write(text)
    return len(records)
