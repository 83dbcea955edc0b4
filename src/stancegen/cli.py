"""Command-line entry point: train, eval, predict, dump-attention, gradcheck.

Configuration is a flat key=value text file; a handful of flags override
file values. Exit codes partition failures: 2 config, 3 data, 4 checkpoint,
5 capability, 1 diagnostic (a failed gradcheck or a non-finite training
loss).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import statistics
import sys
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import (
    Corpus,
    EmbeddingMatrix,
    Example,
    Split,
    STANCES,
    TRAIN_TARGETS,
    Vocabulary,
    build_vocab,
    encode_corpus,
    load_embeddings,
    make_split,
    parse_semeval_tsv,
    random_embeddings,
    tokenize,
)
from .errors import (
    CapabilityError,
    CheckpointError,
    ConfigError,
    DataError,
    NonFiniteLossError,
    ParseError,
)
from .evaluation import compute_metrics, dump_attention, format_metrics
from .files import atomic_write, read_text
from .layers import (
    AttentionParams,
    Dropout,
    EncoderParams,
    LSTMParams,
    LSTMState,
    additive_attention_batch,
    bilstm_encode_batch,
    max_pool_encode_batch,
    run_lstm_batch,
    zero_state_batch,
)
from .models import ModelSpec, build_model, load_checkpoint, model_forward_batch
from .tensor import (
    Tensor,
    add,
    concat_cols,
    finite_difference_check,
    matmul_t,
    matvec,
    mul,
    nll_sum,
    relu,
    softmax_rows,
    sum_all,
    tanh,
    usable_cpus,
)
from . import tensor, training
from .training import Hyperparams, predict_corpus, train

EXIT_OK = 0
EXIT_DIAGNOSTIC = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CHECKPOINT = 4
EXIT_CAPABILITY = 5

GRADCHECK_TOLERANCE = 1e-4
DATA_DIR_ENV = "STANCEGEN_DATA_DIR"


# ------------------------------------------------------------ configuration


@dataclass
class RunConfig:
    train_path: str | None = None
    dev_path: str | None = None
    test_path: str | None = None
    embeddings_path: str | None = None
    vocab_path: str | None = None
    out_dir: str = "runs"
    variant: str = "BCAInvar"
    seeds: list[int] = field(default_factory=lambda: [0])
    count_check: bool = True
    parallel_seeds: bool = False
    hp: Hyperparams = field(default_factory=Hyperparams)


_HP_KEYS = {
    "embed_dim": int,
    "hidden_dim": int,
    "attn_dim": int,
    "dropout": float,
    "batch_size": int,
    "learning_rate": float,
    "l2": float,
    "patience": int,
    "lambda": float,
    "max_epochs": int,
    "min_count": int,
}
_PATH_KEYS = ("train_path", "dev_path", "test_path", "embeddings_path", "vocab_path", "out_dir")
_BOOL_KEYS = ("count_check", "parallel_seeds")


def _parse_bool(key: str, raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key} must be a boolean, got {raw!r}")


def parse_config_file(path) -> dict[str, str]:
    """Read flat key=value lines; # starts a comment, blank lines skipped."""
    if not Path(path).exists():
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, str] = {}
    for lineno, line in enumerate(read_text(path, error=ConfigError).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {lineno}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in values:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


def _parse_seeds(raw: str) -> list[int]:
    try:
        seeds = [int(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(f"seeds must be comma-separated integers, got {raw!r}")
    if not seeds:
        raise ConfigError("at least one seed is required")
    negative = [s for s in seeds if s < 0]
    if negative:
        raise ConfigError(f"seeds must be non-negative, got {negative[0]}")
    repeated = [s for i, s in enumerate(seeds) if s in seeds[:i]]
    if repeated:
        raise ConfigError(f"seed {repeated[0]} is listed more than once")
    return seeds


def build_run_config(args) -> RunConfig:
    """Merge defaults, then the config file, then flag overrides."""
    values: dict[str, str] = {}
    if getattr(args, "config", None):
        values = parse_config_file(args.config)
    if "seed" in values and "seeds" in values:
        raise ConfigError("the config file sets both seed and seeds; keep one")
    if getattr(args, "seeds", None) and getattr(args, "seed", None) is not None:
        raise ConfigError("both --seed and --seeds were given; keep one")
    cfg = RunConfig()
    hp_kwargs: dict = {}
    for key, raw in values.items():
        if key in _HP_KEYS:
            try:
                parsed = _HP_KEYS[key](raw)
            except ValueError:
                raise ConfigError(f"{key} must be {_HP_KEYS[key].__name__}, got {raw!r}")
            hp_kwargs["lam" if key == "lambda" else key] = parsed
        elif key in _PATH_KEYS:
            setattr(cfg, key, raw)
        elif key in _BOOL_KEYS:
            setattr(cfg, key, _parse_bool(key, raw))
        elif key == "variant":
            cfg.variant = raw
        elif key == "seeds" or key == "seed":
            cfg.seeds = _parse_seeds(raw)
        else:
            raise ConfigError(f"unknown config key {key!r}")
    if getattr(args, "variant", None):
        cfg.variant = args.variant
    if getattr(args, "lam", None) is not None:
        hp_kwargs["lam"] = args.lam
    if getattr(args, "seeds", None):
        cfg.seeds = _parse_seeds(args.seeds)
    elif getattr(args, "seed", None) is not None:
        cfg.seeds = _parse_seeds(str(args.seed))
    if getattr(args, "no_count_check", False):
        cfg.count_check = False
    if getattr(args, "out_dir", None):
        cfg.out_dir = args.out_dir
    if getattr(args, "parallel_seeds", False):
        cfg.parallel_seeds = True
    try:
        cfg.hp = Hyperparams(**hp_kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc))
    return cfg


def _resolve_data_path(configured: str | None, default_name: str, label: str) -> Path:
    """Resolve against the filesystem, then $STANCEGEN_DATA_DIR."""
    env_dir = os.environ.get(DATA_DIR_ENV)
    if configured:
        direct = Path(configured)
        if direct.exists():
            return direct
        if env_dir and not direct.is_absolute():
            fallback = Path(env_dir) / configured
            if fallback.exists():
                return fallback
        raise ConfigError(f"{label} path not found: {configured}")
    if env_dir:
        candidate = Path(env_dir) / default_name
        if candidate.exists():
            return candidate
    raise ConfigError(f"no {label} path configured and ${DATA_DIR_ENV} has no {default_name}")


def load_datasets(cfg: RunConfig) -> Split:
    """Parse the three distribution files, pool them, re-split by target."""
    full = Corpus([])
    for key, default_name, label in (
        ("train_path", "train.tsv", "train"),
        ("dev_path", "dev.tsv", "dev"),
        ("test_path", "test.tsv", "test"),
    ):
        path = _resolve_data_path(getattr(cfg, key), default_name, label)
        full.examples.extend(parse_semeval_tsv(path).examples)
    return make_split(full, check_counts=cfg.count_check)


def load_saved_vocab(cfg: RunConfig) -> Vocabulary:
    """The vocabulary a checkpoint was trained with: vocab_path if set, else
    the out_dir/vocab.tsv that train saved; it is never rebuilt from a split."""
    if cfg.vocab_path:
        return Vocabulary.load(_resolve_data_path(cfg.vocab_path, "vocab.tsv", "vocab"))
    saved = Path(cfg.out_dir) / "vocab.tsv"
    if not saved.exists():
        raise ConfigError(f"no vocab_path configured and {saved} not found")
    return Vocabulary.load(saved)


def load_vocab_and_embeddings(cfg: RunConfig, train: Corpus):
    """The train command's vocabulary, from vocab_path if set and else built
    from `train`, and its frozen embedding matrix: the embeddings_path rows
    of that vocabulary, or hash-seeded vectors without one."""
    if cfg.vocab_path:
        vocab = load_saved_vocab(cfg)
    else:
        vocab = build_vocab([train], min_count=cfg.hp.min_count)
    if cfg.embeddings_path:
        path = _resolve_data_path(cfg.embeddings_path, "embeddings.txt", "embeddings")
        emb = load_embeddings(path, vocab, cfg.hp.embed_dim)
    else:
        emb = random_embeddings(vocab, cfg.hp.embed_dim)
    return vocab, emb


# ------------------------------------------------------------------- train


def _train_one_seed(cfg: RunConfig, spec: ModelSpec, split: Split, vocab, emb, seed: int):
    """Train, save and score one seed; returns its summary row
    (seed, best epoch, dev macro-F1, test macro-F1)."""
    out_dir = Path(cfg.out_dir)
    model = build_model(spec, seed, emb)
    hp = dataclasses.replace(cfg.hp, seed=seed)
    report = train(
        model,
        split.train,
        split.dev,
        hp,
        log_path=out_dir / f"train_seed{seed}.log",
        checkpoint_path=out_dir / f"model_seed{seed}.npz",
        vocab_hash=vocab.content_hash(),
    )
    dev_metrics = compute_metrics(
        predict_corpus(model, split.dev, hp.batch_size), [ex.stance for ex in split.dev]
    )
    test_metrics = compute_metrics(
        predict_corpus(model, split.test, hp.batch_size), [ex.stance for ex in split.test]
    )
    metrics_text = format_metrics(dev_metrics, title=f"dev (seed {seed})") + format_metrics(
        test_metrics, title=f"test (seed {seed})"
    )
    with atomic_write(out_dir / f"metrics_seed{seed}.txt") as fh:
        fh.write(metrics_text)
    return seed, report.best_epoch, dev_metrics.macro_f1, test_metrics.macro_f1


def _seed_worker_init() -> None:
    # the --parallel-seeds pool already fills the cores
    tensor.HELPER = False


def cmd_train(args) -> int:
    cfg = build_run_config(args)
    # the spec is checked before any data is read; make_split always gives
    # the training targets as the source domains
    spec = ModelSpec(
        variant=cfg.variant,
        embed_dim=cfg.hp.embed_dim,
        hidden_dim=cfg.hp.hidden_dim,
        attn_dim=cfg.hp.attention_dim,
        num_domains=len(TRAIN_TARGETS),
    )
    split = load_datasets(cfg)
    vocab, emb = load_vocab_and_embeddings(cfg, split.train)
    for corpus in (split.train, split.dev, split.test):
        encode_corpus(corpus, vocab)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    vocab.save(out_dir / "vocab.tsv")
    if not cfg.embeddings_path:
        print("no embeddings path configured; using hash-seeded random vectors")
    run_seed = functools.partial(_train_one_seed, cfg, spec, split, vocab, emb)
    if cfg.parallel_seeds and len(cfg.seeds) > 1:
        # imported here: the process machinery costs every other command memory
        from concurrent.futures import ProcessPoolExecutor

        workers = min(len(cfg.seeds), usable_cpus())
        with ProcessPoolExecutor(max_workers=workers, initializer=_seed_worker_init) as pool:
            rows = list(pool.map(run_seed, cfg.seeds))
    else:
        rows = [run_seed(seed) for seed in cfg.seeds]
    lines = []
    for seed, best_epoch, dev_f1, test_f1 in rows:
        lines.append(
            f"seed {seed}: best epoch {best_epoch}, dev macro-F1 {dev_f1:.4f}, "
            f"test macro-F1 {test_f1:.4f}"
        )
    if len(rows) > 1:
        med_dev = statistics.median(r[2] for r in rows)
        med_test = statistics.median(r[3] for r in rows)
        lines.append(
            f"median over {len(rows)} seeds: dev macro-F1 {med_dev:.4f}, "
            f"test macro-F1 {med_test:.4f}"
        )
    summary = "\n".join(lines) + "\n"
    print(summary, end="")
    with atomic_write(out_dir / "summary.txt") as fh:
        fh.write(summary)
    return EXIT_OK


# ------------------------------------------------------------ eval/predict


def _load_checkpoint_for(cfg: RunConfig, checkpoint_path):
    """The checkpoint carries its embedding matrix, so only the vocabulary
    and the checkpoint are read; embeddings_path and embed_dim are not."""
    vocab = load_saved_vocab(cfg)
    model, _ = load_checkpoint(checkpoint_path, expected_vocab_hash=vocab.content_hash())
    rows = model.embeddings.values.shape[0]
    if rows != len(vocab):
        raise CheckpointError(
            f"{checkpoint_path}: embedding matrix has {rows} rows, but the vocabulary has {len(vocab)} tokens"
        )
    return model, vocab


def _evaluation_corpus(cfg: RunConfig, args) -> Corpus:
    if getattr(args, "dataset", None):
        corpus = parse_semeval_tsv(_resolve_data_path(args.dataset, "", "dataset"))
    else:
        corpus = getattr(load_datasets(cfg), args.split)
    if len(corpus) == 0:
        raise DataError("evaluation dataset is empty")
    return corpus


def cmd_eval(args) -> int:
    cfg = build_run_config(args)
    corpus = _evaluation_corpus(cfg, args)
    model, vocab = _load_checkpoint_for(cfg, args.checkpoint)
    encode_corpus(corpus, vocab)
    preds = predict_corpus(model, corpus, cfg.hp.batch_size)
    name = args.dataset if getattr(args, "dataset", None) else args.split
    print(format_metrics(compute_metrics(preds, [ex.stance for ex in corpus]), title=str(name)), end="")
    return EXIT_OK


def cmd_predict(args) -> int:
    cfg = build_run_config(args)
    model, vocab = _load_checkpoint_for(cfg, args.checkpoint)
    sentence = tokenize(args.text)
    target = tokenize(args.target)
    ex = Example(
        sentence_tokens=sentence,
        target_tokens=target,
        stance="NONE",
        raw_text=args.text,
        raw_target=args.target,
        sentence_ids=[vocab.id_of(t) for t in sentence],
        target_ids=[vocab.id_of(t) for t in target],
    )
    probs = model_forward_batch(model, [ex]).stance_probs.value[0]
    for name, p in zip(STANCES, probs):
        print(f"{name}: {float(p):.4f}")
    print(f"prediction: {STANCES[int(np.argmax(probs))]}")
    return EXIT_OK


def cmd_dump_attention(args) -> int:
    cfg = build_run_config(args)
    corpus = _evaluation_corpus(cfg, args)
    model, vocab = _load_checkpoint_for(cfg, args.checkpoint)
    encode_corpus(corpus, vocab)
    out_path = Path(args.out) if args.out else Path(cfg.out_dir) / "attention.jsonl"
    html_path = Path(args.html) if args.html else None
    count = dump_attention(model, corpus, out_path, html_out=html_path, batch_size=cfg.hp.batch_size)
    print(f"wrote {count} attention records to {out_path}")
    return EXIT_OK


# --------------------------------------------------------------- gradcheck


def _gradcheck_components():
    """(name, callable) pairs; each callable returns a max relative error.

    The layers are checked in their batched form, the one training runs, on
    ragged batches of two rows wherever padding changes the computation.
    Each component draws its operands from its own generator, seeded by its
    name, so adding or removing one leaves every other line unchanged.
    """

    def mat(rng, *shape):
        return Tensor(rng.uniform(-1.5, 1.5, shape))

    def reduce_with(t):
        # fixed coefficients on every call, so each f() stays deterministic
        coeffs = np.random.default_rng(19).uniform(-1.5, 1.5, t.value.shape)
        return sum_all(mul(t, Tensor(coeffs)))

    def unary_check(op, x_values):
        def run(rng):
            x = Tensor(np.array(x_values))
            return finite_difference_check(lambda: reduce_with(op(x)), [x])

        return run

    def binary_check(op):
        def run(rng):
            a, b = mat(rng, 4), mat(rng, 4)
            return finite_difference_check(lambda: reduce_with(op(a, b)), [a, b])

        return run

    def nll_sum_check(rng):
        # probabilities far above the floor, so no entry sits on its kink
        probs = Tensor(rng.uniform(0.2, 0.9, (3, 4)))
        idx = rng.integers(0, 4, 3)
        return finite_difference_check(lambda: nll_sum(probs, idx, training.PROB_FLOOR), [probs])

    def matvec_check(rng):
        w, x = mat(rng, 3, 4), mat(rng, 4)
        return finite_difference_check(lambda: reduce_with(matvec(w, x)), [w, x])

    def matmul_check(rng):
        a, b = mat(rng, 2, 3), mat(rng, 4, 3)
        return finite_difference_check(lambda: reduce_with(matmul_t(a, b)), [a, b])

    # a ragged batch of two rows, the second one position shorter
    mask = np.array([[True, True, True], [True, True, False]])

    def softmax_rows_check(rng):
        x = mat(rng, 2, 3)
        return finite_difference_check(lambda: reduce_with(softmax_rows(x, mask)), [x])

    def lstm_params(input_dim, hidden):
        return LSTMParams.init(input_dim, hidden, np.random.default_rng(21), np.float64)

    def lstm_step_check(rng):
        params = lstm_params(3, 2)
        x, h, c = mat(rng, 2, 3), mat(rng, 2, 2), mat(rng, 2, 2)
        tensors = [x, h, c] + [t for _, t in params.named("p")]
        def f():
            state = run_lstm_batch([x], np.ones((2, 1), dtype=bool), LSTMState(h, c), params)[0]
            return add(reduce_with(state.h), reduce_with(state.c))
        return finite_difference_check(f, tensors)

    def lstm_sequence_check(rng):
        params = lstm_params(2, 2)
        steps = [mat(rng, 2, 2) for _ in range(3)]
        tensors = steps + [t for _, t in params.named("p")]
        def f():
            # re-seeded, so every evaluation draws the same dropout masks; the
            # second row's final state reaches the last position through padding
            states = run_lstm_batch(
                steps, mask, zero_state_batch(2, 2, np.float64), params,
                drop=Dropout(0.3, np.random.default_rng(5)),
            )
            return reduce_with(states[-1].h)
        return finite_difference_check(f, tensors)

    def encoder_check(rng):
        params = EncoderParams.init(2, 2, np.random.default_rng(22), np.float64)
        target = [mat(rng, 2, 2) for _ in range(2)]
        sentence = [mat(rng, 2, 2) for _ in range(3)]
        target_mask = np.array([[True, False], [True, True]])
        tensors = target + sentence + [t for _, t in params.named("enc")]
        def f():
            # the model's conditional encoding: the sentence pair starts
            # from the target pair's final states
            t_fwd, t_bwd = bilstm_encode_batch(target, target_mask, params.target_fwd, params.target_bwd)
            s_fwd, s_bwd = bilstm_encode_batch(
                sentence, mask, params.sent_fwd, params.sent_bwd, init=(t_fwd[-1], t_bwd[0])
            )
            hidden = concat_cols([s_fwd[1].h, s_bwd[1].h])
            summary = concat_cols([t_fwd[-1].h, t_bwd[0].h])
            return add(reduce_with(summary), reduce_with(hidden))
        return finite_difference_check(f, tensors)

    def attention_check(rng):
        params = AttentionParams.init(3, 8, np.random.default_rng(23), np.float64)
        summary = mat(rng, 2, 4)
        hiddens = [mat(rng, 2, 4) for _ in range(3)]
        tensors = [summary] + hiddens + [t for _, t in params.named("att")]
        def f():
            return reduce_with(additive_attention_batch(summary, hiddens, params, mask).s)
        return finite_difference_check(f, tensors)

    def max_pool_check(rng):
        # distinct ranks 4 apart per coordinate, so eps perturbations cannot
        # flip any argmax and the maxima fall on different positions
        ranks = np.argsort(rng.random((3, 2, 3)), axis=0)
        hiddens = [Tensor(4.0 * ranks[j] + rng.uniform(-1.0, 1.0, (2, 3))) for j in range(3)]
        return finite_difference_check(
            lambda: reduce_with(max_pool_encode_batch(hiddens, mask)), hiddens
        )

    def _tiny_invar_setup():
        emb_rng = np.random.default_rng(24)
        values = emb_rng.uniform(-0.5, 0.5, (8, 3))
        values[0] = 0.0
        emb = EmbeddingMatrix(values=values)
        spec = ModelSpec(variant="BCAInvar", embed_dim=3, hidden_dim=2, attn_dim=2, num_domains=2)
        model = build_model(spec, 25, emb, dtype=np.float64)
        def ex(sent, tgt, stance, domain):
            return Example(
                sentence_tokens=[str(i) for i in sent],
                target_tokens=[str(i) for i in tgt],
                stance=stance,
                raw_text="",
                raw_target="",
                domain_index=domain,
                sentence_ids=sent,
                target_ids=tgt,
            )
        batch = [ex([2, 3, 4], [5], "FAVOR", 0), ex([6, 7], [3, 2], "AGAINST", 1)]
        return model, batch

    def objective(model, batch, lam):
        # the objective training optimizes: (objective, stance, domain)
        return training.objective_batch(model_forward_batch(model, batch), batch, lam)

    def model_forward_check(rng):
        model, batch = _tiny_invar_setup()
        params = list(model.stance_path().values())
        def f():
            return objective(model, batch, 0.3)[1]
        # wider step: some attention coordinates carry ~1e-8 gradients where
        # central-difference roundoff swamps the relative error at eps=1e-5
        return finite_difference_check(f, params, eps=3e-5)

    def invar_objective_check(rng):
        # The optimized objective stance + lam*domain is a saddle: its tape
        # gradients must match central differences of stance - lam*domain on
        # shared parameters (the reversal layer negates the domain term
        # there) and of the objective itself on the domain heads.
        model, batch = _tiny_invar_setup()
        lam = 0.3

        def f():
            return objective(model, batch, lam)[0]

        shared = finite_difference_check(
            f, list(model.stance_path().values()), numeric=lambda: objective(model, batch, -lam)[0]
        )
        heads = finite_difference_check(f, list(model.adversarial_path().values()))
        return max(shared, heads)

    def seeded(name, check):
        return name, lambda: check(np.random.default_rng(zlib.crc32(name.encode())))

    return [
        seeded("tanh", unary_check(tanh, [-1.2, 0.3, 0.9, -0.4])),
        seeded("relu", unary_check(relu, [-1.2, 0.3, 0.9, -0.4])),
        seeded("nll_sum", nll_sum_check),
        seeded("add", binary_check(add)),
        seeded("mul", binary_check(mul)),
        seeded("matvec", matvec_check),
        seeded("matmul_t", matmul_check),
        seeded("softmax_rows", softmax_rows_check),
        seeded("lstm_step_batch", lstm_step_check),
        seeded("lstm_sequence", lstm_sequence_check),
        seeded("conditional_encoder", encoder_check),
        seeded("attention", attention_check),
        seeded("max_pool", max_pool_check),
        seeded("stance_forward", model_forward_check),
        seeded("bcainvar_objective", invar_objective_check),
    ]


def cmd_gradcheck(args) -> int:
    started = time.perf_counter()
    failures = []
    components = _gradcheck_components()
    for name, check in components:
        err = check()
        status = "ok" if err < GRADCHECK_TOLERANCE else "FAIL"
        if status == "FAIL":
            failures.append(name)
        print(f"{name:<22}{err:.3e}  {status}")
    elapsed = time.perf_counter() - started
    if failures:
        print(f"gradcheck FAILED: {', '.join(failures)} ({elapsed:.1f}s)")
        return EXIT_DIAGNOSTIC
    print(f"gradcheck passed: {len(components)} components under {GRADCHECK_TOLERANCE:g} ({elapsed:.1f}s)")
    return EXIT_OK


# -------------------------------------------------------------- entry point


def _add_common_flags(sub):
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--variant", help="model variant name")
    sub.add_argument("--lambda", dest="lam", type=float, help="adversarial loss weight")
    sub.add_argument("--seed", type=int, help="single training seed")
    sub.add_argument("--seeds", help="comma-separated seed list")
    sub.add_argument("--no-count-check", action="store_true", help="skip split count validation")
    sub.add_argument("--out-dir", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stancegen", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one model per seed")
    _add_common_flags(p_train)
    p_train.add_argument(
        "--parallel-seeds", action="store_true", help="one process per seed, at most one per CPU"
    )
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_common_flags(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--split", choices=("train", "dev", "test"), default="test")
    p_eval.add_argument("--dataset", help="evaluate this TSV instead of a named split")
    p_eval.set_defaults(func=cmd_eval)

    p_pred = sub.add_parser("predict", help="classify one sentence/target pair")
    _add_common_flags(p_pred)
    p_pred.add_argument("--checkpoint", required=True)
    p_pred.add_argument("--text", required=True)
    p_pred.add_argument("--target", required=True)
    p_pred.set_defaults(func=cmd_predict)

    p_dump = sub.add_parser("dump-attention", help="write per-example attention records")
    _add_common_flags(p_dump)
    p_dump.add_argument("--checkpoint", required=True)
    p_dump.add_argument("--split", choices=("train", "dev", "test"), default="test")
    p_dump.add_argument("--dataset", help="dump this TSV instead of a named split")
    p_dump.add_argument("--out", help="output JSONL path")
    p_dump.add_argument("--html", help="optional HTML heatmap path")
    p_dump.set_defaults(func=cmd_dump_attention)

    p_grad = sub.add_parser("gradcheck", help="finite-difference self-diagnostics")
    p_grad.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, DataError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except NonFiniteLossError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTIC


if __name__ == "__main__":
    sys.exit(main())
