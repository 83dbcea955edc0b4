"""Spans and counters recorded from outside the program.

The benchmark never edits stancegen. It replaces selected module globals
and class attributes with wrappers for the length of a run and puts the
originals back afterwards. Two kinds of wrapper exist:

* probes (on for every command, a handful of calls per optimizer step)
  that the end-to-end metrics need: where a step starts and ends, whether
  its loss is finite and its probability rows valid, when training ends;
* the tracer (every other command of a traced run), which opens a span
  around every layer entry point listed in SPANNED and counts tape nodes
  and the matrix products of training steps.

Tensor operations are counted, not spanned: a span around each op would
cost more than many ops and would move the heads' arithmetic out of the
model's self time.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 at top level
    run: int  # which command (one stancegen.cli.main call) the span belongs to


class Recorder:
    """Spans kept in memory in the order they were opened."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span never overlap (one thread), so subtracting their
    durations removes exactly the part of the interval they cover.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def totals_by_run(spans: list[Span], names, how: str, own: list[float] | None = None) -> dict[int, float]:
    """Per command, a number for the spans named in `names`.

    how="outer": total duration, not counting a span inside another span of
    the same group; how="self": total self time (pass `own` from
    self_times); how="count": the number of spans.
    """
    totals: dict[int, float] = {}
    for i, s in enumerate(spans):
        if s.name not in names:
            continue
        if how == "self":
            value = own[i]
        elif how == "count":
            value = 1
        else:
            parent = s.parent
            while parent >= 0 and spans[parent].name not in names:
                parent = spans[parent].parent
            if parent >= 0:
                continue
            value = s.end - s.start
        totals[s.run] = totals.get(s.run, 0.0) + value
    return totals


def self_time_by_layer(spans: list[Span], own: list[float]) -> dict[tuple[int, str], float]:
    """Self time per command and layer, the layer being the span name's prefix."""
    out: dict[tuple[int, str], float] = {}
    for s, t in zip(spans, own):
        key = (s.run, s.name.split(".", 1)[0])
        out[key] = out.get(key, 0.0) + t
    return out


def tail_percentile(samples, beyond: int = 10):
    """The highest percentile with at least `beyond` samples above it.

    Returns (percentile, value, samples_beyond), or None when there are too
    few samples for any such percentile.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= beyond:
        return None
    k = n - beyond - 1
    return 100.0 * (k + 1) / n, xs[k], n - k - 1


# ------------------------------------------------------------------ patching


class Patches:
    """Attribute replacements that can all be undone at once."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_function(self, modules, fn, make_wrapper) -> None:
        """Replace `fn` by one wrapper wherever a module global names it."""
        wrapper = make_wrapper(fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.set(module, attr, wrapper)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def stancegen_modules():
    from stancegen import cli, data, evaluation, layers, models, tensor, training

    return {
        "cli": cli,
        "data": data,
        "evaluation": evaluation,
        "layers": layers,
        "models": models,
        "tensor": tensor,
        "training": training,
    }


# The layer entry points the tracer opens a span around, by defining module.
SPANNED = {
    "data": (
        "parse_semeval_tsv",
        "make_split",
        "build_vocab",
        "encode_corpus",
        "load_embeddings",
        "random_embeddings",
        "Vocabulary.load",
        "Vocabulary.save",
        "Vocabulary.content_hash",
    ),
    "models": (
        "build_model",
        "model_forward",
        "model_forward_batch",
        "save_checkpoint",
        "load_checkpoint",
    ),
    "layers": (
        "conditional_encode",
        "conditional_encode_batch",
        "bilstm_encode",
        "bilstm_encode_batch",
        "additive_attention",
        "additive_attention_batch",
        "max_pool_encode",
        "max_pool_encode_batch",
    ),
    "tensor": ("Tape.backward",),
    "training": ("train", "clip_gradients", "adam_step", "dev_macro_f1", "predict_corpus"),
    "evaluation": ("compute_metrics", "format_metrics"),
}


@dataclass
class Counts:
    tape_nodes: int = 0
    matmul_calls: int = 0
    matmul_flop: float = 0.0


def _product_flop(name: str, a: np.ndarray, b: np.ndarray) -> float:
    if name == "matmul_t":  # (B, k) @ (m, k)^T
        return 2.0 * a.shape[0] * a.shape[1] * b.shape[0]
    return 2.0 * a.shape[0] * a.shape[1]  # matvec: (m, n) @ (n,)


class Tracer:
    """Installs span wrappers and counters; `undo` restores the program."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.counts = Counts()
        self._patches = Patches()

    def install(self) -> None:
        mods = stancegen_modules()
        everywhere = list(mods.values())
        # a name the program no longer defines (the per-example layers, once
        # one forward path remains) is skipped, not an error
        for layer, names in SPANNED.items():
            for qualname in names:
                span_name = f"{layer}.{qualname}"
                if "." in qualname:
                    self._wrap_method(mods[layer], qualname, span_name)
                elif qualname in vars(mods[layer]):
                    fn = getattr(mods[layer], qualname)
                    self._patches.wrap_function(
                        everywhere, fn, functools.partial(self.recorder.wrap, span_name)
                    )
        # matrix products where the layers and the model heads call them
        tensor = mods["tensor"]
        for name in ("matmul_t", "matvec"):
            fn = getattr(tensor, name)
            self._patches.wrap_function(
                [mods["layers"], mods["models"]], fn, functools.partial(self._count_products, name)
            )

    def _wrap_method(self, module, qualname: str, span_name: str) -> None:
        cls_name, attr = qualname.split(".")
        raw = vars(getattr(module, cls_name, object)).get(attr)
        if raw is None:
            return
        cls = getattr(module, cls_name)
        if isinstance(raw, classmethod):
            self._patches.set(cls, attr, classmethod(self.recorder.wrap(span_name, raw.__func__)))
        elif qualname == "Tape.backward":
            self._patches.set(cls, attr, self._backward(span_name, raw))
        else:
            self._patches.set(cls, attr, self.recorder.wrap(span_name, raw))

    def _backward(self, span_name: str, fn):
        traced = self.recorder.wrap(span_name, fn)
        counts = self.counts

        @functools.wraps(fn)
        def backward(tape, root):
            counts.tape_nodes += len(tape)
            return traced(tape, root)

        return backward

    def _count_products(self, name: str, fn):
        from stancegen.tensor import active_tape

        counts = self.counts

        @functools.wraps(fn)
        def counted(a, b):
            # only training steps record on a tape; eval-mode forwards (dev
            # and test passes) are not counted. A product on the tape costs
            # two more of the same size in backward, one per operand's gradient
            if active_tape() is not None:
                counts.matmul_calls += 3
                counts.matmul_flop += 3 * _product_flop(name, a.value, b.value)
            return fn(a, b)

        return counted

    def undo(self) -> None:
        self._patches.undo()


class Probes:
    """The few wrappers the end-to-end metrics need, on in every run.

    State is per command: `reset` before each stancegen.cli.main call.
    """

    def __init__(self):
        self._patches = Patches()
        self.reset()

    def reset(self) -> None:
        self.step_starts: list[float] = []
        self.step_ends: list[float] = []
        self.bad_steps: set[int] = set()
        self.train_end: float | None = None
        self.eval_seconds: float | None = None
        self.eval_rows: list[np.ndarray] = []  # stance probabilities, eval mode
        self.eval_gold: list[str] = []
        self.bad_rows = 0
        self.forward_start: float | None = None

    def install(self) -> None:
        mods = stancegen_modules()
        training, cli = mods["training"], mods["cli"]
        p = self._patches
        p.set(training, "model_forward_batch", self._forward_batch(training.model_forward_batch))
        p.set(training, "stance_loss_batch", self._loss(training.stance_loss_batch))
        p.set(training, "adam_step", self._step_end(training.adam_step))
        p.set(cli, "train", self._train(cli.train))
        p.set(cli, "predict_corpus", self._eval_pass(cli.predict_corpus))
        # predict's forward pass, whichever of the two paths cli calls it through
        for name in ("model_forward", "model_forward_batch"):
            if name in vars(cli):
                p.set(cli, name, self._single(getattr(cli, name)))

    def undo(self) -> None:
        self._patches.undo()

    @staticmethod
    def rows_valid(probs: np.ndarray) -> bool:
        return bool(
            np.isfinite(probs).all()
            and (probs >= 0).all()
            and np.allclose(probs.sum(axis=-1), 1.0, atol=1e-4)
        )

    def _forward_batch(self, fn):
        @functools.wraps(fn)
        def forward(model, examples, *args, **kwargs):
            train_mode = kwargs.get("train_mode", args[0] if args else False)
            if train_mode:
                self.step_starts.append(time.perf_counter())
            out = fn(model, examples, *args, **kwargs)
            probs = out.stance_probs.value
            valid = self.rows_valid(probs)
            if train_mode:
                if not valid:
                    self.bad_steps.add(len(self.step_starts) - 1)
            else:
                self.bad_rows += 0 if valid else len(examples)
                self.eval_rows.append(np.array(probs, dtype=np.float64))
                self.eval_gold.extend(ex.stance for ex in examples)
            return out

        return forward

    def _loss(self, fn):
        @functools.wraps(fn)
        def loss(*args, **kwargs):
            out = fn(*args, **kwargs)
            if not np.isfinite(out.value).all():
                self.bad_steps.add(len(self.step_starts) - 1)
            return out

        return loss

    def _step_end(self, fn):
        @functools.wraps(fn)
        def step_end(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.step_ends.append(time.perf_counter())
            return out

        return step_end

    def _train(self, fn):
        @functools.wraps(fn)
        def train(*args, **kwargs):
            out = fn(*args, **kwargs)
            # after the last dev pass, the training log and the checkpoint
            self.train_end = time.perf_counter()
            return out

        return train

    def _eval_pass(self, fn):
        @functools.wraps(fn)
        def eval_pass(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            self.eval_seconds = time.perf_counter() - start
            return out

        return eval_pass

    def _single(self, fn):
        @functools.wraps(fn)
        def single(*args, **kwargs):
            self.forward_start = time.perf_counter()
            return fn(*args, **kwargs)

        return single

