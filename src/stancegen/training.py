"""Losses, Adam with L2, gradient clipping, early stopping, and the
mini-batch adversarial training loop.

The optimized objective, built by objective_batch, is stance loss + lambda *
domain loss with gradient reversal on the adversarial path, so shared encoder
parameters descend the stance loss while ascending the domain loss, and
domain heads descend their own loss. The training log reports the two losses
separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .data import STANCE_TO_INDEX, STANCES, Corpus, Example, Vocabulary
from .errors import ConfigError, NonFiniteLossError
from .evaluation import compute_metrics
from .files import atomic_write
from .models import ForwardOutput, Model, length_sorted_batches, model_forward_batch, save_checkpoint
from .tensor import Tape, Tensor, add, nll_sum, scale, zero_grads

PROB_FLOOR = 1e-12
CLIP_NORM = 5.0  # the global gradient L2 norm each step is clipped to


@dataclass
class Hyperparams:
    embed_dim: int = 100
    hidden_dim: int = 200
    attn_dim: int | None = None  # defaults to 2 * hidden_dim
    dropout: float = 0.1
    batch_size: int = 32
    learning_rate: float = 0.003
    l2: float = 0.01
    patience: int = 10
    lam: float = 0.1
    max_epochs: int = 200
    seed: int = 0
    min_count: int = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                key = "lambda" if f.name == "lam" else f.name
                raise ConfigError(f"{key} must be finite, got {value!r}")
        for name in ("batch_size", "patience", "max_epochs"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        if self.lam < 0:
            raise ConfigError("lambda must be non-negative")
        if self.l2 < 0:
            raise ConfigError("l2 must be non-negative")

    @property
    def attention_dim(self) -> int:
        return self.attn_dim if self.attn_dim is not None else 2 * self.hidden_dim


def stance_loss_batch(probs: Tensor, gold_idx: np.ndarray) -> Tensor:
    """Mean over the batch of -log p[gold] with a 1e-12 probability floor;
    probs is (batch, 3) and gold_idx holds class indices."""
    return scale(nll_sum(probs, gold_idx, PROB_FLOOR), 1.0 / probs.value.shape[0])


def domain_loss_batch(domain_probs: list[Tensor], gold_domain: np.ndarray) -> Tensor:
    """Mean over batch and domains of the per-head binary cross-entropies;
    head i's class 0 means "belongs to domain i"."""
    if gold_domain.min() < 0 or gold_domain.max() >= len(domain_probs):
        raise ValueError(f"gold domain out of range for {len(domain_probs)} domains")
    batch = domain_probs[0].value.shape[0]
    total = None
    for i, p in enumerate(domain_probs):
        cls = np.where(gold_domain == i, 0, 1)
        term = nll_sum(p, cls, PROB_FLOOR)
        total = term if total is None else add(total, term)
    return scale(total, 1.0 / (len(domain_probs) * batch))


def objective_batch(
    out: ForwardOutput, batch: list[Example], lam: float
) -> tuple[Tensor, Tensor, Tensor | None]:
    """(stance + lam * domain, stance, domain) against the batch's gold labels;
    without domain heads, domain is None and the objective is the stance loss."""
    stance = stance_loss_batch(out.stance_probs, np.array([STANCE_TO_INDEX[ex.stance] for ex in batch]))
    if not out.domain_probs:
        return stance, stance, None
    domain = domain_loss_batch(out.domain_probs, np.array([ex.domain_index for ex in batch]))
    return add(stance, scale(domain, lam)), stance, domain


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def init(cls, params: dict[str, Tensor]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p.value) for k, p in params.items()},
            v={k: np.zeros_like(p.value) for k, p in params.items()},
        )


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float, l2: float) -> None:
    """One Adam update with L2 added to the raw gradient before the moments."""
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.value)
        if l2:
            g = g + l2 * p.value
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p.value -= lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


def clip_gradients(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm:
        factor = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= factor
    return norm


@dataclass
class EpochLog:
    epoch: int
    train_stance: float
    train_domain: float
    dev_f1: float

    def line(self) -> str:
        return f"{self.epoch}\t{self.train_stance:.6f}\t{self.train_domain:.6f}\t{self.dev_f1:.6f}"


@dataclass
class TrainReport:
    epochs: list[EpochLog] = field(default_factory=list)
    best_epoch: int = 0
    stop_epoch: int = 0
    best_dev_f1: float = 0.0

    def log_text(self) -> str:
        return "".join(e.line() + "\n" for e in self.epochs)


def predict_corpus(model: Model, corpus: Corpus, batch_size: int = 32) -> list[str]:
    """Argmax stance labels in corpus order (eval mode, no tape).

    The batches come from length_sorted_batches, so each holds sentences of
    similar length and few padded steps are computed: on 1,024 tweets of
    8-30 tokens, 36% of the sentence positions in file-order batches of 32
    are padding, against 2% sorted. Compared with file-order batches, a
    stance probability can move by about one float32 ulp, because the
    attention softmax sums over the padded width; only an exact tie could
    flip a label. No tape is active here, so every batch takes the eval
    products (the rule in the layers module docstring), which can move a
    probability by about one ulp against a taped forward.
    """
    examples = corpus.examples
    labels = [""] * len(examples)
    for idx in length_sorted_batches(examples, batch_size):
        out = model_forward_batch(model, [examples[i] for i in idx])
        for i, row in zip(idx, np.argmax(out.stance_probs.value, axis=1)):
            labels[i] = STANCES[row]
    return labels


def dev_macro_f1(model: Model, dev: Corpus, batch_size: int = 32) -> float:
    preds = predict_corpus(model, dev, batch_size)
    return compute_metrics(preds, [ex.stance for ex in dev]).macro_f1


def _precision_of(dtype) -> str:
    return np.dtype(dtype).name


def train(
    model: Model,
    train_corpus: Corpus,
    dev_corpus: Corpus,
    hp: Hyperparams,
    log_path=None,
    checkpoint_path=None,
    vocab: Vocabulary | None = None,
) -> TrainReport:
    """Mini-batch training with per-epoch dev selection and early stopping:
    training stops once `patience` epochs have passed since the best dev
    macro-F1, where only a strictly higher F1 counts as better.

    The model is left holding the best-epoch parameters; if checkpoint_path
    is given they are also saved there, with `vocab`. A non-finite objective
    raises NonFiniteLossError before its backward pass, so no update is
    applied and nothing is written.
    """
    if model.spec.architecture.heads:
        missing = [i for i, ex in enumerate(train_corpus) if ex.domain_index is None]
        if missing:
            raise ConfigError(
                f"{model.spec.variant} requires domain labels on all training examples; "
                f"{len(missing)} examples have none"
            )
    examples = list(train_corpus.examples)
    if not examples:
        raise ConfigError("empty training corpus")
    shuffle_rng = np.random.default_rng([hp.seed, 0])
    dropout_rng = np.random.default_rng([hp.seed, 1])
    params = model.params
    adam = AdamState.init(params)
    best_f1, best_epoch = -np.inf, 0
    report = TrainReport()
    precision = _precision_of(model.dtype)
    best_values: dict[str, np.ndarray] = {k: p.value.copy() for k, p in params.items()}

    for epoch in range(1, hp.max_epochs + 1):
        order = shuffle_rng.permutation(len(examples))
        stance_total = 0.0
        domain_total = 0.0
        for step, lo in enumerate(range(0, len(order), hp.batch_size), start=1):
            batch = [examples[i] for i in order[lo : lo + hp.batch_size]]
            with Tape(precision) as tape:
                out = model_forward_batch(
                    model, batch, train_mode=True, rng=dropout_rng, dropout=hp.dropout
                )
                objective, s_loss, d_loss = objective_batch(out, batch, hp.lam)
                if d_loss is not None:
                    domain_total += float(d_loss.value[0]) * len(batch)
                if not np.isfinite(objective.value).all():
                    raise NonFiniteLossError(
                        f"non-finite loss {float(objective.value[0])} at epoch {epoch}, step {step}"
                    )
                tape.backward(objective)
            stance_total += float(s_loss.value[0]) * len(batch)
            clip_gradients(params, CLIP_NORM)
            adam_step(params, adam, hp.learning_rate, hp.l2)
            zero_grads(params.values())
        f1 = dev_macro_f1(model, dev_corpus, hp.batch_size)
        report.epochs.append(
            EpochLog(
                epoch=epoch,
                train_stance=stance_total / len(examples),
                train_domain=domain_total / len(examples),
                dev_f1=f1,
            )
        )
        if f1 > best_f1:
            best_f1, best_epoch = f1, epoch
            best_values = {k: p.value.copy() for k, p in params.items()}
        elif epoch - best_epoch >= hp.patience:
            break

    report.stop_epoch = report.epochs[-1].epoch
    report.best_epoch = best_epoch
    report.best_dev_f1 = float(best_f1)
    for k, p in params.items():
        p.value = best_values[k]
    if log_path is not None:
        with atomic_write(log_path) as fh:
            fh.write(report.log_text())
    if checkpoint_path is not None:
        save_checkpoint(model, checkpoint_path, vocab)
    return report
