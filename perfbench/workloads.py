"""The three workloads and the metrics taken from them.

Every operation is a real stancegen command, run in this process through
stancegen.cli.main with its output captured, as a single closed-loop
client: the next command starts when the previous one has returned.
"""

from __future__ import annotations

import contextlib
import io
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from corpus import STANCES, TEST_TARGET, CorpusShape, predict_requests, write_inputs
from tracing import (
    Probes,
    Recorder,
    Tracer,
    self_time_by_layer,
    self_times,
    tail_percentile,
    totals_by_run,
)

PAPER_MODEL = {
    "variant": "BCAInvar",
    "embed_dim": 100,
    "hidden_dim": 200,
    "attn_dim": 400,
    "dropout": 0.1,
    "batch_size": 32,
    "lambda": 0.1,
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "infer"
    why: str
    shape: CorpusShape
    config: dict
    epochs: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train_bca",
            kind="train",
            why="the paper's model at paper size: BLAS products in the encoder recurrence, "
            "attention and backward dominate",
            shape=CorpusShape(
                train_per_target=64, dev=64, test=32, min_tokens=8, max_tokens=30,
                fillers=2000, embed_dim=100,
            ),
            config=PAPER_MODEL,
            epochs=2,
        ),
        Workload(
            name="train_small",
            kind="train",
            why="tiny matrices, no attention: per-op dispatch and tape bookkeeping dominate",
            shape=CorpusShape(
                train_per_target=128, dev=64, test=32, min_tokens=3, max_tokens=8,
                fillers=200, embed_dim=8, embedding_rows_per_word=1,
            ),
            config={
                "variant": "ConcatInvar",
                "embed_dim": 8,
                "hidden_dim": 6,
                "dropout": 0.1,
                "batch_size": 8,
                "lambda": 0.1,
            },
            epochs=2,
        ),
        Workload(
            name="infer_bca",
            kind="infer",
            why="eval mode only: checkpoint and embeddings reads per request, no tape, "
            "backward or Adam",
            shape=CorpusShape(
                train_per_target=32, dev=32, test=1024, min_tokens=8, max_tokens=30,
                fillers=2000, embed_dim=100, embedding_rows_per_word=4,
            ),
            config=PAPER_MODEL,
            epochs=1,
        ),
    )
}

PREDICT_REQUESTS = 64
# the fewest commands of a run; a traced run makes each minimum both
# untraced and traced
MIN_TRAIN_COMMANDS = 3  # setup_s is a median over commands
MIN_EVALS = 3
# even, so a traced run's predict pairs are whole; times MIN_EVALS, more than
# the 10 samples the tail needs beyond it
PREDICTS_PER_EVAL = 32


@dataclass
class Command:
    kind: str
    run: int
    traced: bool
    start: float
    end: float
    problems: list[str]
    attempted: int = 1
    failed_steps: int = 0  # a command with problems counts one more failure
    setup_s: float | None = None
    examples: int = 0  # examples through the timed work (training loop or eval pass)
    work_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    loss: float | None = None
    steps: int = 0
    counts: tuple = (0, 0, 0.0)


class Session:
    """Runs the commands of one run.

    In a traced session the commands of each kind come in pairs, one under
    the tracer and one not, in the order untraced-traced, traced-untraced,
    and so on. The two of a pair see the same state of the host, and the
    alternating order cancels what running first or second does to a
    command, so the tracing overhead can be read from the pairs.
    """

    def __init__(self, workload: Workload, work: Path, traced: bool):
        from stancegen import cli

        self.cli = cli
        self.workload = workload
        self.work = work
        self.recorder = Recorder() if traced else None
        self.tracer = Tracer(self.recorder) if traced else None
        self.probes = Probes()
        self.commands: list[Command] = []

    def count(self, kind: str) -> int:
        return sum(c.kind == kind for c in self.commands)

    def more(self, kind: str, minimum: int, deadline: float) -> bool:
        """Whether to run another command of `kind`: until the deadline and
        at least `minimum`; traced, at least `minimum` traced and `minimum`
        untraced, and only whole pairs."""
        n = self.count(kind)
        if self.tracer:
            return n < 2 * minimum or n % 2 == 1 or time.perf_counter() < deadline
        return n < minimum or time.perf_counter() < deadline

    def call(self, kind: str, argv: list[str]) -> tuple[Command, int | None, str]:
        traced = self.tracer is not None and self.count(kind) % 4 in (1, 2)
        run = len(self.commands) + 1
        self.probes.reset()
        # tracer first, so the probes wrap the traced functions
        if traced:
            self.tracer.install()
        self.probes.install()
        before = self._counts()
        out, err = io.StringIO(), io.StringIO()
        if traced:
            self.recorder.run = run
            span = self.recorder.begin("cli.main")
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except Exception as exc:  # an escaping traceback is a failed operation, not the end of the run
            rc = None
            err.write(f"{type(exc).__name__}: {exc}")
        end = time.perf_counter()
        if traced:
            self.recorder.end(span)
        after = self._counts()
        self.probes.undo()
        if traced:
            self.tracer.undo()
        cmd = Command(kind=kind, run=run, traced=traced, start=start, end=end, problems=[])
        cmd.counts = tuple(b - a for a, b in zip(before, after))
        if rc != 0:
            cmd.problems.append(f"exit {rc}: {err.getvalue().strip()[-300:]}")
        self.commands.append(cmd)
        return cmd, rc, out.getvalue()

    def _counts(self):
        if not self.tracer:
            return (0, 0, 0.0)
        c = self.tracer.counts
        return (c.tape_nodes, c.matmul_calls, c.matmul_flop)


def write_config(path: Path, paths: dict, out_dir: Path, workload: Workload) -> Path:
    values = {
        "train_path": paths["train"],
        "dev_path": paths["dev"],
        "test_path": paths["test"],
        "out_dir": out_dir,
        "count_check": "false",
        "max_epochs": workload.epochs,
        "patience": workload.epochs,
        "seed": 0,
        **workload.config,
    }
    if "embeddings" in paths:
        values["embeddings_path"] = paths["embeddings"]
    path.write_text("".join(f"{k}={v}\n" for k, v in values.items()), encoding="utf-8")
    return path


# ------------------------------------------------------------------ training

TRAIN_ARTIFACTS = ("vocab.tsv", "train_seed0.log", "model_seed0.npz", "metrics_seed0.txt", "summary.txt")


def _epoch_losses(log: str) -> list[float]:
    """Train stance loss per epoch from a train_seed<N>.log text."""
    return [float(line.split("\t")[1]) for line in log.splitlines()]


def train_phase(session: Session, config: Path, n_train: int, seconds: float) -> None:
    w = session.workload
    steps_per_epoch = math.ceil(n_train / w.config["batch_size"])
    expected_steps = w.epochs * steps_per_epoch
    deadline = time.perf_counter() + seconds
    first_log = None
    while session.more("train", MIN_TRAIN_COMMANDS, deadline):
        out_dir = session.work / f"train{len(session.commands) + 1}"
        cmd, rc, _ = session.call("train", ["train", "--config", str(config), "--out-dir", str(out_dir)])
        p = session.probes
        steps = min(len(p.step_starts), len(p.step_ends))
        cmd.steps = steps
        cmd.attempted = 1 + expected_steps
        cmd.failed_steps = len(p.bad_steps) + max(0, expected_steps - steps)
        if rc == 0:
            missing = [a for a in TRAIN_ARTIFACTS if not (out_dir / a).exists()]
            if missing:
                cmd.problems.append(f"missing artifacts {missing}")
            else:
                log = (out_dir / "train_seed0.log").read_text(encoding="utf-8")
                losses = _epoch_losses(log)
                if len(losses) != w.epochs or not all(math.isfinite(x) for x in losses):
                    cmd.problems.append(f"bad epoch losses {losses}")
                elif not losses[-1] < losses[0]:
                    cmd.problems.append(f"loss did not fall: {losses}")
                cmd.loss = losses[-1] if losses else None
                if first_log is None:
                    first_log = log
                elif log != first_log:
                    cmd.problems.append("training log differs from the first run with the same seed")
        if p.bad_rows:
            cmd.problems.append(f"{p.bad_rows} invalid probability rows in eval passes")
        if steps and p.train_end is not None:
            cmd.setup_s = p.step_starts[0] - cmd.start
            cmd.examples = n_train * w.epochs
            cmd.work_s = p.train_end - p.step_starts[0]
            cmd.latencies_ms = [1e3 * (b - a) for a, b in zip(p.step_starts, p.step_ends)]
        shutil.rmtree(out_dir, ignore_errors=True)


# ----------------------------------------------------------------- inference


@dataclass
class InferInputs:
    config: Path
    checkpoint: Path
    n_test: int
    requests: list[str]
    expected: np.ndarray  # stance probabilities per request, batch path


def prepare_infer(workload: Workload, work: Path, seed: int, env: dict) -> InferInputs:
    """Train the checkpoint in a child process, so its memory peak is not
    this process's, then compute reference probabilities for the requests."""
    paths = write_inputs(work / "data", seed, workload.shape)
    model_dir = work / "model"
    config = write_config(work / "infer.cfg", paths, model_dir, workload)
    child = subprocess.run(
        [sys.executable, "-m", "stancegen.cli", "train", "--config", str(config)],
        env=env, capture_output=True, text=True, timeout=150,
    )
    checkpoint = model_dir / "model_seed0.npz"
    if child.returncode != 0 or not checkpoint.exists():
        raise RuntimeError(f"checkpoint training failed ({child.returncode}): {child.stderr[-500:]}")
    requests = predict_requests(seed, PREDICT_REQUESTS, workload.shape)
    return InferInputs(
        config=config,
        checkpoint=checkpoint,
        n_test=workload.shape.test,
        requests=requests,
        expected=_reference_probs(model_dir, paths["embeddings"], checkpoint, workload, requests),
    )


def _reference_probs(model_dir, embeddings, checkpoint, workload, requests) -> np.ndarray:
    from stancegen.data import Example, Vocabulary, load_embeddings, tokenize
    from stancegen.models import load_checkpoint, model_forward_batch

    vocab = Vocabulary.load(model_dir / "vocab.tsv")
    emb = load_embeddings(embeddings, vocab, workload.config["embed_dim"])
    model, _ = load_checkpoint(checkpoint, emb, expected_vocab_hash=vocab.content_hash())
    target = tokenize(TEST_TARGET)
    examples = []
    for text in requests:
        sentence = tokenize(text)
        examples.append(
            Example(
                sentence_tokens=sentence, target_tokens=target, stance="NONE", raw_text=text,
                raw_target=TEST_TARGET, sentence_ids=[vocab.id_of(t) for t in sentence],
                target_ids=[vocab.id_of(t) for t in target],
            )
        )
    rows = [model_forward_batch(model, examples[i : i + 32]).stance_probs.value for i in range(0, len(examples), 32)]
    return np.concatenate(rows).astype(np.float64)


def macro_f1(preds: list[str], golds: list[str]) -> float:
    """Mean F1 of FAVOR and AGAINST, computed independently of stancegen."""
    f1s = []
    for label in ("FAVOR", "AGAINST"):
        tp = sum(p == label and g == label for p, g in zip(preds, golds))
        fp = sum(p == label and g != label for p, g in zip(preds, golds))
        fn = sum(p != label and g == label for p, g in zip(preds, golds))
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return sum(f1s) / 2


def infer_phase(session: Session, inputs: InferInputs, seconds: float) -> None:
    """Blocks of one eval call and PREDICTS_PER_EVAL predict requests until
    the time is up, so that both kinds of command sample the whole run."""
    base = ["--config", str(inputs.config), "--checkpoint", str(inputs.checkpoint)]
    deadline = time.perf_counter() + seconds
    losses: list[float] = []
    while session.more("eval", MIN_EVALS, deadline):
        _eval(session, inputs, base, losses)
        for _ in range(PREDICTS_PER_EVAL):
            _predict(session, inputs, base)


def _eval(session: Session, inputs: InferInputs, base: list[str], losses: list[float]) -> None:
    cmd, rc, out = session.call("eval", ["eval", *base, "--split", "test"])
    p = session.probes
    if rc != 0:
        return  # the exit code is already a problem
    rows = np.concatenate(p.eval_rows) if p.eval_rows else np.zeros((0, 3))
    if len(rows) != inputs.n_test or len(p.eval_gold) != inputs.n_test:
        cmd.problems.append(f"{len(rows)} predictions for {inputs.n_test} examples")
    elif p.bad_rows:
        cmd.problems.append(f"{p.bad_rows} invalid probability rows")
    else:
        gold = np.array([STANCES.index(g) for g in p.eval_gold])
        cmd.loss = float(-np.log(np.maximum(rows[np.arange(len(gold)), gold], 1e-12)).mean())
        expected_f1 = macro_f1([STANCES[i] for i in rows.argmax(axis=1)], p.eval_gold)
        printed = [l for l in out.splitlines() if l.startswith("macro-F1")]
        if not printed or abs(float(printed[-1].split()[-1]) - expected_f1) > 1e-4:
            cmd.problems.append(f"printed {printed} but predictions give macro-F1 {expected_f1:.4f}")
        if losses and cmd.loss != losses[0]:
            cmd.problems.append("eval loss differs from the first eval of the same checkpoint")
        losses.append(cmd.loss)
        cmd.examples = inputs.n_test
        cmd.work_s = p.eval_seconds


def _predict(session: Session, inputs: InferInputs, base: list[str]) -> None:
    n = session.count("predict")
    # both requests of a traced run's pair have the same text
    i = (n // 2 if session.tracer else n) % len(inputs.requests)
    cmd, rc, out = session.call(
        "predict", ["predict", *base, "--text", inputs.requests[i], "--target", TEST_TARGET]
    )
    if rc == 0:
        _check_prediction(cmd, out, inputs.expected[i])
        if session.probes.forward_start is not None:
            cmd.setup_s = session.probes.forward_start - cmd.start
    cmd.latencies_ms = [1e3 * (cmd.end - cmd.start)]


def _check_prediction(cmd: Command, out: str, expected: np.ndarray) -> None:
    fields = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    try:
        probs = np.array([float(fields[s]) for s in STANCES])
        label = fields["prediction"]
    except (KeyError, ValueError):
        cmd.problems.append(f"unreadable predict output {out!r}")
        return
    if abs(probs.sum() - 1.0) > 3e-4 or (probs < 0).any():
        cmd.problems.append(f"probabilities {probs} do not sum to 1")
    elif np.abs(probs - expected).max() > 1e-3:
        cmd.problems.append(f"probabilities {probs} differ from the batch path's {expected}")
    elif label != STANCES[int(np.argmax(probs))]:
        cmd.problems.append(f"prediction {label} is not the argmax of {probs}")


# ------------------------------------------------------------------- metrics


def prepare(workload: Workload, work: Path, seed: int, env: dict):
    """Generate the inputs; for infer_bca also train the checkpoint."""
    if workload.kind == "infer":
        return prepare_infer(workload, work, seed, env)
    paths = write_inputs(work / "data", seed, workload.shape)
    # every train command gets its own --out-dir over this config's out_dir
    return write_config(work / "train.cfg", paths, work / "out", workload)


def run(workload: Workload, work: Path, seconds: float, traced: bool, prepared) -> Session:
    """Run commands for `seconds` (or the workload's minimum count)."""
    session = Session(workload, work, traced)
    if workload.kind == "train":
        train_phase(session, prepared, 4 * workload.shape.train_per_target, seconds)
    else:
        infer_phase(session, prepared, seconds)
    return session


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(workload: Workload, session: Session) -> dict:
    """The user-visible numbers of a run, from its untraced commands only;
    attempted and failed operations count every command."""
    everything = session.commands
    cmds = [c for c in everything if not c.traced]
    main = "train" if workload.kind == "train" else "eval"
    latency_kind = "train" if workload.kind == "train" else "predict"
    work = [c for c in cmds if c.kind == main and c.work_s > 0]
    latencies = [x for c in cmds if c.kind == latency_kind for x in c.latencies_ms]
    tail = tail_percentile(latencies)
    if tail is None and latencies:
        tail = (100.0, max(latencies), 0)
    return {
        # a ratio of sums, not a median of per-command rates: the machine's
        # speed drifts over seconds and this averages over the whole run
        "throughput": sum(c.examples for c in work) / sum(c.work_s for c in work) if work else None,
        "latency_p50_ms": statistics.median(latencies) if latencies else None,
        "tail": tail,
        "setup_s": _median(c.setup_s for c in cmds if c.kind == latency_kind),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "loss": _median(c.loss for c in cmds if c.kind == main),
        "attempted": sum(c.attempted for c in everything),
        "failed": sum(c.failed_steps + bool(c.problems) for c in everything),
        "commands": {k: sum(c.kind == k for c in everything) for k in ("train", "eval", "predict")},
        "samples": len(latencies),
        "problems": [p for c in everything for p in c.problems],
    }


ENCODER = {
    "layers.conditional_encode",
    "layers.conditional_encode_batch",
    "layers.bilstm_encode",
    "layers.bilstm_encode_batch",
}
ATTENTION = {"layers.additive_attention", "layers.additive_attention_batch"}
POOL = {"layers.max_pool_encode", "layers.max_pool_encode_batch"}
FORWARD = {"models.model_forward", "models.model_forward_batch"}

# name -> (unit, span names, how): "outer" sums the outermost spans of the
# group, "self" sums the group's self time, "count" counts its spans
SPAN_METRICS = {
    "data.parse_s": ("s", {"data.parse_semeval_tsv", "data.make_split"}, "outer"),
    "data.encode_s": ("s", {"data.encode_corpus"}, "outer"),
    "data.vocab_s": (
        "s",
        {"data.build_vocab", "data.Vocabulary.load", "data.Vocabulary.save", "data.Vocabulary.content_hash"},
        "outer",
    ),
    "data.embeddings_s": ("s", {"data.load_embeddings", "data.random_embeddings"}, "outer"),
    "models.forward_s": ("s", FORWARD, "self"),
    "models.forward_calls": ("count", FORWARD, "count"),
    "models.init_s": ("s", {"models.build_model"}, "outer"),
    "models.checkpoint_load_s": ("s", {"models.load_checkpoint"}, "outer"),
    "models.checkpoint_save_s": ("s", {"models.save_checkpoint"}, "outer"),
    "layers.encoder_s": ("s", ENCODER, "outer"),
    "layers.attention_s": ("s", ATTENTION, "outer"),
    "layers.pool_s": ("s", POOL, "outer"),
    "tensor.backward_s": ("s", {"tensor.Tape.backward"}, "outer"),
    "training.clip_s": ("s", {"training.clip_gradients"}, "outer"),
    "training.adam_s": ("s", {"training.adam_step"}, "outer"),
    "training.dev_eval_s": ("s", {"training.dev_macro_f1"}, "outer"),
    "training.predict_s": ("s", {"training.predict_corpus"}, "outer"),
    "evaluation.metrics_s": ("s", {"evaluation.compute_metrics", "evaluation.format_metrics"}, "outer"),
    "cli.self_s": ("s", {"cli.main"}, "self"),
}
# On infer_bca these are read from predict requests, the rest from eval
# calls: each from the command whose end-to-end metric it moves.
PREDICT_SIDE = {"data.vocab_s", "data.embeddings_s", "models.init_s", "models.checkpoint_load_s", "cli.self_s"}
STEP_METRICS = {
    "training.step_s": "s",
    "tensor.tape_nodes_per_step": "count",
    "tensor.matmul_calls_per_step": "count",
    "tensor.matmul_gflop_per_step": "GFLOP",
}
PER_LAYER_UNITS = {
    **{name: unit for name, (unit, _, _) in SPAN_METRICS.items()},
    **STEP_METRICS,
    "trace.overhead_pct": "%",
}


def tracing_overhead_pct(workload: Workload, session: Session) -> float:
    """Median over the pairs of a traced run of the traced command's time
    over the untraced one's, less 1, in %. Both commands of a pair do the
    same work, moments apart (see Session). The time is the
    training loop's on train_*; on infer_bca it is a predict request's,
    as the requests give many more pairs than the eval calls."""
    kind = "train" if workload.kind == "train" else "predict"
    cmds = [c for c in session.commands if c.kind == kind]
    seconds = [c.work_s if kind == "train" else c.end - c.start for c in cmds]
    ratios = []
    for i in range(0, len(cmds) - 1, 2):
        (untraced, _), (traced, _) = sorted(
            ((seconds[j], cmds[j].traced) for j in (i, i + 1)), key=lambda x: x[1]
        )
        if cmds[i].traced != cmds[i + 1].traced and untraced > 0 and traced > 0:
            ratios.append(traced / untraced)
    return 100.0 * (statistics.median(ratios) - 1.0) if ratios else 0.0


def per_layer(workload: Workload, session: Session) -> tuple[dict, dict]:
    """Per-command medians over the traced commands, plus the tracing
    overhead. Also returns the median self time per command kind and layer,
    for the report."""
    spans = session.recorder.spans
    traced = [c for c in session.commands if c.traced]
    own = self_times(spans)
    out = {}
    for name, (_, names, how) in SPAN_METRICS.items():
        kind = "train" if workload.kind == "train" else ("predict" if name in PREDICT_SIDE else "eval")
        totals = totals_by_run(spans, names, how, own)
        values = [totals.get(c.run, 0.0) for c in traced if c.kind == kind]
        out[name] = statistics.median(values) if values else 0.0
    train_cmds = [c for c in traced if c.kind == "train" and c.steps]
    steps = sum(c.steps for c in train_cmds)
    per_step = [sum(c.counts[i] for c in train_cmds) / steps if steps else 0.0 for i in range(3)]
    out["training.step_s"] = (
        statistics.median(x / 1e3 for c in train_cmds for x in c.latencies_ms) if steps else 0.0
    )
    out["tensor.tape_nodes_per_step"] = per_step[0]
    out["tensor.matmul_calls_per_step"] = per_step[1]
    out["tensor.matmul_gflop_per_step"] = per_step[2] / 1e9
    out["trace.overhead_pct"] = tracing_overhead_pct(workload, session)
    by_layer: dict[str, list[float]] = {}
    kinds = {c.run: c.kind for c in traced}
    for (run, layer), t in self_time_by_layer(spans, own).items():
        by_layer.setdefault(f"{kinds[run]}:{layer}", []).append(t)
    return out, {k: statistics.median(v) for k, v in sorted(by_layer.items())}
