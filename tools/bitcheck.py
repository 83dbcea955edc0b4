"""Hash every output of a fixed set of stancegen runs, or compare two such sets.

    python3 tools/bitcheck.py --out DIR [--tree ROOT] [--blas-threads N]
    python3 tools/bitcheck.py --compare DIR_A DIR_B

The first form runs the stancegen source tree at ROOT (default: the tree
this file sits in) on seeded synthetic data from perfbench/corpus.py:

- `train` for all five variants with seeds 0 and 1, once serially and once
  with --parallel-seeds;
- then, on each serially trained checkpoint, `eval`, `predict` and
  `dump-attention --html`;
- then `train` ConcatInvar once more with patience 2 and at most 8 epochs,
  a run that stops early (the manifest's `early_stop` entry gives each
  seed's epoch count);
- then `gradcheck`, and the criterion-7 held-out gaps from
  tests/domainshift.py;
- then a paper-size float32 BCAInvar (embed 100, hidden 200, attention
  400): on ragged batches of 1-6 rows and one of 32, an eval forward and one
  training step, hashing the stance probabilities, `alpha`, every parameter
  gradient and every updated parameter;
- then, on a model built the same way over its own examples, an eval
  forward on batches of 16 and 17 rows, hashing the stance probabilities
  and `alpha` (`paper_size_eval`). At 1 BLAS thread these two batches sit
  on either side of the rule that runs an eval BiLSTM's forward direction
  on the helper thread (from 17 rows at paper size);
- then, on a third such model, one training step on a batch of 17 rows and
  another on a batch of 32, each from the model's initial parameters and a
  fresh Adam state, hashing the stance probabilities, `alpha`, every
  parameter gradient and every updated parameter (`paper_size_train`).
  `paper_size` chains its steps, so a change to its 1-row step changes
  every later line; this case pins full-batch training bits on their own.

It writes DIR/manifest.json: the SHA-256 of every output file, of every
checkpoint array with its dtype and shape (a format-3 or format-4
checkpoint's `__params__` whole, and each parameter cut out of it by the
`__meta__` index, which both formats store alike, under the same key as one
stored on its own), and of each checkpoint's `__meta__`, plus each command's stdout, stderr and exit code.
Two strings that differ between identical runs are normalised: the output
directory that commands print (dump-attention names its output path) and
gradcheck's elapsed seconds.

The second form prints every entry that differs between DIR_A/manifest.json
and DIR_B/manifest.json, or that only one of them has, and exits 1 if there
is any. To check that a change moves no bit, run the first form on a copy of
the parent commit and on the change, then compare.

Commands run with BLAS on --blas-threads threads (default 1), so the
products do not depend on the host's core count. At 1 thread on a machine
with two CPUs, training's weight-gradient products run on stancegen's
helper thread; at 2 they run inline with two-thread BLAS calls. Comparing
both settings against a parent tree covers both paths. Uses only the
standard library and numpy.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))
import corpus  # noqa: E402  (perfbench/corpus.py, the seeded input generator)

VARIANTS = ("Concat", "ConcatInvar", "BCA", "BCAInvar", "BCAInvarSpec")
SEEDS = (0, 1)
SHAPE = corpus.CorpusShape(
    train_per_target=12, dev=10, test=10, min_tokens=3, max_tokens=9,
    fillers=40, embed_dim=6, embedding_rows_per_word=1,
)
CONFIG = {
    "embed_dim": 6,
    "hidden_dim": 4,
    "attn_dim": 5,
    "dropout": 0.1,
    "batch_size": 8,
    "learning_rate": 0.02,
    "l2": 0.01,
    "lambda": 0.3,
    "max_epochs": 3,
    "patience": 3,
    "count_check": "false",
    "seeds": ",".join(str(s) for s in SEEDS),
}
# on this data seed 0 stops at epoch 3 on tied dev scores, and seed 1 at
# epoch 7, after improvements that follow a stale epoch
EARLY_STOP = ("ConcatInvar", {"patience": 2, "max_epochs": 8})
PREDICT = ("i love this great idea #SemST", "Donald Trump")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

CRITERION_7 = """
import domainshift
gaps = []
for seed in range(5):
    train_c, dev_c, held_c, emb = domainshift.build(seed)
    plain = domainshift.run_experiment(seed, "BCA", emb, train_c, dev_c, held_c)
    invar = domainshift.run_experiment(seed, "BCAInvar", emb, train_c, dev_c, held_c)
    gaps.append(invar - plain)
print(" ".join(f"{g:+.3f}" for g in gaps))
"""

# the paper-size cases build a float32 BCAInvar (embed 100, hidden 200,
# attention 400) on seeded batches of the given row counts; the small dims
# above hide products whose bits depend on the row count or the shapes
PAPER_PRELUDE = """
import hashlib
import numpy as np
from stancegen.data import Corpus, Example, build_vocab, encode_corpus, random_embeddings
from stancegen.models import ModelSpec, build_model, model_forward_batch
from stancegen.tensor import Tape, zero_grads
from stancegen.training import AdamState, adam_step, clip_gradients, objective_batch

def sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

"""
PAPER_EXAMPLES = """
words = [f"w{i}" for i in range(300)]

def example(k):
    return Example(
        sentence_tokens=[str(w) for w in rng.choice(words, int(rng.integers(8, 31)))],
        target_tokens=[str(w) for w in rng.choice(words, 1 + k % 3)],
        stance=("FAVOR", "AGAINST", "NONE")[k % 3], raw_text="", raw_target="", domain_index=k % 4,
    )

"""
PAPER_MODEL = """
corpus = Corpus([ex for batch in batches for ex in batch])
vocab = build_vocab([corpus])
encode_corpus(corpus, vocab)
model = build_model(ModelSpec("BCAInvar", 100, 200, 400, 4), 0, random_embeddings(vocab, 100), np.float32)
"""


def paper_size_setup(seed: int, rows: tuple[int, ...]) -> str:
    """The script lines that draw the examples from generator `seed`, one
    batch per row count, and build the model."""
    return (
        f"{PAPER_PRELUDE}rng = np.random.default_rng({seed})"
        f"{PAPER_EXAMPLES}batches = [[example(k) for k in range(n)] for n in {rows}]{PAPER_MODEL}"
    )


# per batch of 1-6 rows and one of 32, an eval forward, then one training
# step; the script's text is fixed, so its entry stays comparable across trees
PAPER_SIZE = paper_size_setup(14, (1, 2, 3, 4, 5, 6, 32)) + """adam = AdamState.init(model.params)
dropout_rng = np.random.default_rng([0, 1])
for batch in batches:
    tag = f"rows {len(batch)}"
    out = model_forward_batch(model, batch)
    print(tag, "eval stance_probs", sha(out.stance_probs.value))
    print(tag, "eval alpha", sha(out.attention.alpha.value))
    with Tape("float32") as tape:
        out = model_forward_batch(model, batch, train_mode=True, rng=dropout_rng, dropout=0.1)
        objective, _, _ = objective_batch(out, batch, 0.1)
        tape.backward(objective)
    print(tag, "train stance_probs", sha(out.stance_probs.value))
    print(tag, "train alpha", sha(out.attention.alpha.value))
    for name, p in model.params.items():
        print(tag, "grad", name, sha(p.grad) if p.grad is not None else None)
    clip_gradients(model.params, 5.0)
    adam_step(model.params, adam, 0.003, 0.01)
    zero_grads(model.params.values())
    for name, p in model.params.items():
        print(tag, "updated", name, sha(p.value))
"""

# eval forwards on batches of 16 and 17 rows: on OpenBLAS 0.3.31, gate
# products against the transposed copy that eval reads round differently
# from the view's up to 16 rows and alike from 17; at 1 BLAS thread on two
# CPUs the 17-row batch runs each BiLSTM's forward direction on the helper
PAPER_SIZE_EVAL = paper_size_setup(16, (16, 17)) + """for batch in batches:
    tag = f"rows {len(batch)}"
    out = model_forward_batch(model, batch)
    print(tag, "eval stance_probs", sha(out.stance_probs.value))
    print(tag, "eval alpha", sha(out.attention.alpha.value))
"""

# one training step per batch of 17 and 32 rows, each from the same initial
# parameters, Adam state and dropout generator
PAPER_SIZE_TRAIN = paper_size_setup(17, (17, 32)) + """initial = {name: p.value.copy() for name, p in model.params.items()}
for batch in batches:
    tag = f"rows {len(batch)}"
    for name, p in model.params.items():
        np.copyto(p.value, initial[name])
    adam = AdamState.init(model.params)
    with Tape("float32") as tape:
        out = model_forward_batch(model, batch, train_mode=True, rng=np.random.default_rng([0, 1]), dropout=0.1)
        objective, _, _ = objective_batch(out, batch, 0.1)
        tape.backward(objective)
    print(tag, "train stance_probs", sha(out.stance_probs.value))
    print(tag, "train alpha", sha(out.attention.alpha.value))
    for name, p in model.params.items():
        print(tag, "grad", name, sha(p.grad) if p.grad is not None else None)
    clip_gradients(model.params, 5.0)
    adam_step(model.params, adam, 0.003, 0.01)
    zero_grads(model.params.values())
    for name, p in model.params.items():
        print(tag, "updated", name, sha(p.value))
"""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def array_entry(arr: np.ndarray) -> str:
    return f"{arr.dtype} {tuple(arr.shape)} {sha256(np.ascontiguousarray(arr).tobytes())}"


def split_params(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """A format-3 or format-4 checkpoint's parameters, cut out of
    `__params__` by the `__meta__` index, so that each compares with the
    same parameter of another format's checkpoint, one that stored one
    array per parameter included."""
    if "__params__" not in arrays:
        return {}
    flat, offset, params = arrays["__params__"], 0, {}
    for name, shape in json.loads(str(arrays["__meta__"]))["index"]:
        size = math.prod(shape)
        params[name] = flat[offset : offset + size].reshape(shape)
        offset += size
    return params


def file_entries(root: Path) -> dict[str, str]:
    """One entry per file under root, one per array of each .npz and one per
    parameter of a format-3 or format-4 checkpoint, so a differing
    checkpoint names the parameters that differ."""
    entries: dict[str, str] = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix()
        entries[f"file:{rel}"] = sha256(path.read_bytes())
        if path.suffix == ".npz":
            with np.load(path, allow_pickle=False) as archive:
                arrays = {name: archive[name] for name in archive.files}
            for name, arr in sorted({**arrays, **split_params(arrays)}.items()):
                entries[f"array:{rel}:{name}"] = array_entry(arr)
    return entries


def read_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines() if path.exists() else []


def normalise(text: str, out: Path) -> str:
    text = text.replace(str(out), "<out>")
    return re.sub(r"\(\d+\.\d+s\)", "(<seconds>s)", text)


class Runner:
    """Runs commands against one source tree and records what they print."""

    def __init__(self, tree: Path, out: Path, blas_threads: int = 1):
        self.out = out
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree / "tests")]))
        self.env.update({var: str(blas_threads) for var in THREAD_VARS})
        self.entries: dict[str, str] = {}

    def run(self, label: str, args: list[str]) -> str:
        proc = subprocess.run(
            [sys.executable, *args], env=self.env, cwd=self.out, capture_output=True, text=True
        )
        stdout = normalise(proc.stdout, self.out)
        self.entries[f"cmd:{label}:exit"] = str(proc.returncode)
        self.entries[f"cmd:{label}:stdout"] = stdout
        self.entries[f"cmd:{label}:stderr"] = normalise(proc.stderr, self.out)
        print(f"{label}: exit {proc.returncode}", file=sys.stderr)
        return stdout

    def stancegen(self, label: str, args: list[str]) -> str:
        return self.run(label, ["-m", "stancegen.cli", *args])


def write_config(path: Path, paths: dict, variant: str, **overrides) -> Path:
    values = {
        "train_path": paths["train"],
        "dev_path": paths["dev"],
        "test_path": paths["test"],
        "embeddings_path": paths["embeddings"],
        "variant": variant,
        **CONFIG,
        **overrides,
    }
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    return path


def run_all(tree: Path, out: Path, blas_threads: int = 1) -> dict[str, str]:
    out.mkdir(parents=True, exist_ok=True)
    runs = out / "runs"
    paths = corpus.write_inputs(out / "data", seed=0, shape=SHAPE)
    runner = Runner(tree, out, blas_threads)
    for variant in VARIANTS:
        config = write_config(out / f"{variant}.cfg", paths, variant)
        common = ["--config", str(config)]
        for mode, extra in (("serial", []), ("parallel", ["--parallel-seeds"])):
            run_dir = runs / variant / mode
            runner.stancegen(f"train {variant} {mode}", ["train", *common, "--out-dir", str(run_dir), *extra])
        serial = runs / variant / "serial"
        for seed in SEEDS:
            ckpt = ["--out-dir", str(serial), "--checkpoint", str(serial / f"model_seed{seed}.npz")]
            tag = f"{variant} seed{seed}"
            runner.stancegen(f"eval {tag}", ["eval", *common, *ckpt])
            runner.stancegen(
                f"predict {tag}", ["predict", *common, *ckpt, "--text", PREDICT[0], "--target", PREDICT[1]]
            )
            dump = serial / f"attention_seed{seed}"
            runner.stancegen(
                f"dump-attention {tag}",
                ["dump-attention", *common, *ckpt, "--out", str(dump) + ".jsonl", "--html", str(dump) + ".html"],
            )
    variant, overrides = EARLY_STOP
    config = write_config(out / "early_stop.cfg", paths, variant, **overrides)
    run_dir = runs / variant / "early_stop"
    runner.stancegen(f"train {variant} early_stop", ["train", "--config", str(config), "--out-dir", str(run_dir)])
    runner.entries["early_stop"] = ", ".join(
        f"seed {seed}: {len(read_lines(run_dir / f'train_seed{seed}.log'))} of {overrides['max_epochs']} epochs"
        for seed in SEEDS
    )
    runner.stancegen("gradcheck", ["gradcheck"])
    runner.entries["criterion7"] = runner.run("criterion7", ["-c", CRITERION_7]).strip()
    runner.run("paper_size", ["-c", PAPER_SIZE])
    runner.run("paper_size_eval", ["-c", PAPER_SIZE_EVAL])
    runner.run("paper_size_train", ["-c", PAPER_SIZE_TRAIN])
    entries = {**file_entries(runs), **runner.entries}
    (out / "manifest.json").write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return entries


def load_manifest(path: Path) -> dict[str, str]:
    path = Path(path)
    if path.is_dir():
        path = path / "manifest.json"
    return json.loads(path.read_text(encoding="utf-8"))


def differences(a: dict[str, str], b: dict[str, str]) -> list[str]:
    """One block per differing entry: its key, then the changed lines of a
    multi-line text, or else both values."""
    blocks = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if va == vb:
            continue
        if va is not None and vb is not None and "\n" in va + vb:
            detail = list(difflib.unified_diff(va.splitlines(), vb.splitlines(), lineterm="", n=0))[2:]
        else:
            detail = [f"A: {'<absent>' if va is None else repr(va)}", f"B: {'<absent>' if vb is None else repr(vb)}"]
        blocks.append("\n".join([key] + ["  " + line for line in detail]))
    return blocks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, help="directory for the runs and manifest.json")
    parser.add_argument("--tree", type=Path, default=REPO, help="source tree to run (default: this one)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"), help="two run directories or manifests")
    parser.add_argument("--blas-threads", type=int, default=1, metavar="N", help="BLAS threads per command (default 1)")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (load_manifest(p) for p in args.compare)
        diffs = differences(a, b)
        for line in diffs:
            print(line)
        print(f"{len(diffs)} of {len(set(a) | set(b))} entries differ")
        return 1 if diffs else 0
    if args.out is None:
        parser.error("give --out DIR to run, or --compare A B")
    if args.blas_threads < 1:
        parser.error("--blas-threads must be at least 1")
    entries = run_all(args.tree.resolve(), args.out.resolve(), args.blas_threads)
    print(f"wrote {len(entries)} entries to {args.out / 'manifest.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
