"""Seeded synthetic inputs shaped like the SemEval-2016 Task 6 files.

Every tweet is built from a fixed-size lexicon: one or two stance cue words
(right about the label most of the time, so the training loss can fall), a
run of filler words, and now and then a mention, a URL or the #SemST hashtag
so the tokenizer does its real work. The six targets are the real target
names, so the program's own split runs unchanged (with --no-count-check,
since the label counts are not the official ones).

Sizes never depend on the seed, only contents do: lexicon size, example
counts, length ranges and the embeddings file's row count are fixed by the
caller, so two seeds give inputs of the same shape and cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

HEADER = "ID\tTarget\tTweet\tStance"
TRAIN_TARGETS = (
    "Atheism",
    "Climate Change is a Real Concern",
    "Feminist Movement",
    "Legalization of Abortion",
)
DEV_TARGET = "Hillary Clinton"
TEST_TARGET = "Donald Trump"

STANCES = ("FAVOR", "AGAINST", "NONE")
# roughly the label shares of the official training file
STANCE_SHARES = (0.28, 0.45, 0.27)
CUES = {
    "FAVOR": ("support", "love", "great", "proud", "yes", "agree"),
    "AGAINST": ("oppose", "hate", "awful", "shame", "no", "wrong"),
    "NONE": ("weather", "lunch", "traffic", "music", "movie", "game"),
}
CUE_RELIABILITY = 0.8
# strong enough for the tiny model to learn from in two epochs (the
# program's hash-seeded fallback vectors are ten times fainter)
EMBEDDING_SCALE = 0.5


@dataclass(frozen=True)
class CorpusShape:
    """Everything about the generated files except the seed."""

    train_per_target: int
    dev: int
    test: int
    min_tokens: int
    max_tokens: int
    fillers: int
    embed_dim: int
    # rows in the embeddings file per lexicon word; 0 writes no file
    embedding_rows_per_word: int = 0


def filler_words(n: int) -> list[str]:
    return [f"w{i:05d}" for i in range(n)]


def _tweet(rng: np.random.Generator, stance: str, shape: CorpusShape, fillers: list[str]) -> str:
    length = int(rng.integers(shape.min_tokens, shape.max_tokens + 1))
    n_cues = 1 if length < 6 or rng.random() < 0.5 else 2
    words = []
    for _ in range(n_cues):
        pool = stance if rng.random() < CUE_RELIABILITY else STANCES[int(rng.integers(0, 3))]
        words.append(CUES[pool][int(rng.integers(0, len(CUES[pool])))])
    words += [fillers[i] for i in rng.integers(0, len(fillers), size=length - n_cues)]
    rng.shuffle(words)
    # decorations replace words, so the token count stays in range
    extra = rng.random()
    if extra < 0.15:
        words[0] = "@someone"
    elif extra < 0.25:
        words[-1] = "http://t.co/x"
    elif extra < 0.45:
        words[-1] = "#SemST"
    return " ".join(words)


def _rows(rng, target: str, n: int, shape: CorpusShape, fillers, first_id: int) -> list[str]:
    stances = rng.choice(len(STANCES), size=n, p=STANCE_SHARES)
    return [
        f"{first_id + i}\t{target}\t{_tweet(rng, STANCES[s], shape, fillers)}\t{STANCES[s]}"
        for i, s in enumerate(stances)
    ]


def _write_tsv(path: Path, rows: list[str]) -> None:
    path.write_text(HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def embedding_tokens(shape: CorpusShape) -> list[str]:
    """Every token the tokenizer can produce from a generated file."""
    specials = ["<user>", "<url>", "semst"]
    target_words = sorted({w for t in TRAIN_TARGETS + (DEV_TARGET, TEST_TARGET) for w in t.lower().split()})
    cue_words = [w for s in STANCES for w in CUES[s]]
    return specials + target_words + cue_words + filler_words(shape.fillers)


def write_inputs(out_dir, seed: int, shape: CorpusShape) -> dict[str, Path]:
    """Write train/dev/test TSVs (and the embeddings file, if the shape asks
    for one) under out_dir. The same seed and shape give the same bytes."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 6])
    fillers = filler_words(shape.fillers)
    train_rows: list[str] = []
    for target in TRAIN_TARGETS:
        train_rows += _rows(rng, target, shape.train_per_target, shape, fillers, len(train_rows) + 1)
    dev_rows = _rows(rng, DEV_TARGET, shape.dev, shape, fillers, 100001)
    test_rows = _rows(rng, TEST_TARGET, shape.test, shape, fillers, 200001)
    paths = {"train": out_dir / "train.tsv", "dev": out_dir / "dev.tsv", "test": out_dir / "test.tsv"}
    _write_tsv(paths["train"], train_rows)
    _write_tsv(paths["dev"], dev_rows)
    _write_tsv(paths["test"], test_rows)
    if shape.embedding_rows_per_word:
        paths["embeddings"] = out_dir / "embeddings.txt"
        write_embeddings(paths["embeddings"], np.random.default_rng([seed, 7]), shape)
    return paths


def write_embeddings(path: Path, rng: np.random.Generator, shape: CorpusShape) -> None:
    """One "token v1 ... v_dim" line per known token, plus unknown words
    interleaved so the file has embedding_rows_per_word rows per word."""
    known = embedding_tokens(shape)
    unknown = [f"u{i:06d}" for i in range(len(known) * (shape.embedding_rows_per_word - 1))]
    tokens = known + unknown
    order = rng.permutation(len(tokens))
    values = rng.uniform(-EMBEDDING_SCALE, EMBEDDING_SCALE, (len(tokens), shape.embed_dim))
    with open(path, "w", encoding="utf-8") as fh:
        for row in order:
            fh.write(tokens[row] + " " + " ".join(f"{v:.5f}" for v in values[row]) + "\n")


def predict_requests(seed: int, n: int, shape: CorpusShape) -> list[str]:
    """Tweets for single predict requests against the test target."""
    rng = np.random.default_rng([seed, 8])
    fillers = filler_words(shape.fillers)
    stances = rng.choice(len(STANCES), size=n, p=STANCE_SHARES)
    return [_tweet(rng, STANCES[s], shape, fillers) for s in stances]
