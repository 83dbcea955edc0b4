"""Dataset ingestion: stance TSV parsing, tweet tokenization, vocabulary
construction, pretrained embedding loading, and the unseen-target split."""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ParseError
from .files import atomic_write, read_text, unreadable

STANCES = ("FAVOR", "AGAINST", "NONE")
STANCE_TO_INDEX = {s: i for i, s in enumerate(STANCES)}

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
PAD_ID = 0
UNK_ID = 1

TRAIN_TARGETS = (
    "Atheism",
    "Climate Change is a Real Concern",
    "Feminist Movement",
    "Legalization of Abortion",
)
DEV_TARGET = "Hillary Clinton"
TEST_TARGET = "Donald Trump"

_TARGET_ALIASES = {
    "atheism": "Atheism",
    "climate change is a real concern": "Climate Change is a Real Concern",
    "feminist movement": "Feminist Movement",
    "legalization of abortion": "Legalization of Abortion",
    "legality of abortion": "Legalization of Abortion",
    "hillary clinton": "Hillary Clinton",
    "hillary": "Hillary Clinton",
    "donald trump": "Donald Trump",
    "trump": "Donald Trump",
}

# label counts the split is validated against (FAVOR, AGAINST, NONE)
EXPECTED_TRAIN_COUNTS = (619, 982, 574)
EXPECTED_DEV_TOTAL = 1278
EXPECTED_TEST_TOTAL = 707


@dataclass
class Example:
    """One tweet/target pair; token ids are filled in by encode_corpus."""

    sentence_tokens: list[str]
    target_tokens: list[str]
    stance: str
    raw_text: str
    raw_target: str
    domain_index: int | None = None
    sentence_ids: list[int] | None = None
    target_ids: list[int] | None = None


@dataclass
class Corpus:
    examples: list[Example] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)

    def label_counts(self) -> dict[str, int]:
        counts = Counter(e.stance for e in self.examples)
        return {s: counts.get(s, 0) for s in STANCES}


@dataclass(frozen=True)
class Vocabulary:
    """Token to id map; id 0 is PAD, id 1 is UNK."""

    token_to_id: dict[str, int]

    def __len__(self) -> int:
        return len(self.token_to_id)

    @classmethod
    def from_tokens(cls, tokens) -> "Vocabulary":
        """The vocabulary whose token i has id i. Raises ValueError unless
        tokens is a list of unique strings that starts with PAD and UNK."""
        if not isinstance(tokens, list) or not all(isinstance(tok, str) for tok in tokens):
            raise ValueError("the vocabulary is not a list of strings")
        if problem := _vocabulary_problem(tokens):
            raise ValueError(problem[1])
        return cls({tok: i for i, tok in enumerate(tokens)})

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def tokens(self) -> list[str]:
        """Every token in id order."""
        return sorted(self.token_to_id, key=self.token_to_id.__getitem__)

    def serialize(self) -> str:
        return "".join(f"{tok}\t{i}\n" for i, tok in enumerate(self.tokens()))

    def content_hash(self) -> str:
        return hashlib.sha256(self.serialize().encode("utf-8")).hexdigest()

    def save(self, path) -> None:
        with atomic_write(path) as fh:
            fh.write(self.serialize())

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """Read 'token<TAB>id' lines with ids exactly 0..n-1, then apply the
        vocabulary rules. Any violation raises ParseError with its line."""
        token_of: dict[int, str] = {}
        line_of: dict[int, int] = {}
        for lineno, line in enumerate(read_text(path).splitlines(), start=1):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError(f"expected 'token<TAB>id', got {line!r}", line=lineno)
            try:
                idx = int(parts[1])
            except ValueError:
                raise ParseError(f"id {parts[1]!r} is not an integer", line=lineno) from None
            if idx in line_of:
                raise ParseError(f"id {idx} is already used on line {line_of[idx]}", line=lineno)
            token_of[idx] = parts[0]
            line_of[idx] = lineno
        for idx, lineno in line_of.items():
            if not 0 <= idx < len(line_of):
                raise ParseError(f"id {idx} is outside 0..{len(line_of) - 1}", line=lineno)
        tokens = [token_of[i] for i in range(len(token_of))]
        if problem := _vocabulary_problem(tokens):
            raise ParseError(problem[1], line=line_of.get(problem[0]))
        return cls({tok: i for i, tok in enumerate(tokens)})


def _vocabulary_problem(tokens: list[str]) -> tuple[int, str] | None:
    """The first id of a token list, in id order, that breaks a vocabulary rule
    (unique tokens, then PAD at 0 and UNK at 1), with its message; else None."""
    if len(set(tokens)) != len(tokens):
        seen: set[str] = set()
        for i, tok in enumerate(tokens):
            if tok in seen:
                return i, f"token {tok!r} is listed twice"
            seen.add(tok)
    for idx, special in ((PAD_ID, PAD_TOKEN), (UNK_ID, UNK_TOKEN)):
        found = tokens[idx] if idx < len(tokens) else None
        if found != special:
            return idx, f"id {idx} must be {special}, got {found!r}"
    return None


@dataclass
class EmbeddingMatrix:
    """Frozen |V| x dim lookup table; rows align with vocabulary ids."""

    values: np.ndarray

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def content_hash(self) -> str:
        return hashlib.sha256(np.ascontiguousarray(self.values).tobytes()).hexdigest()


_URL_RE = re.compile(r"(?:https?://|www\.)\S+")
_MENTION_RE = re.compile(r"@\w+")
_TOKEN_RE = re.compile(r"<url>|<user>|<unk>|<pad>|[a-z0-9_']+|[^\sa-z0-9_']+")


def tokenize(text: str) -> list[str]:
    """Lowercase, normalize URLs/mentions, strip '#', split word/punct runs.

    Never returns an empty list: degenerate input falls back to one UNK.
    """
    text = text.lower()
    text = _URL_RE.sub(" <url> ", text)
    text = _MENTION_RE.sub(" <user> ", text)
    text = text.replace("#", " ")
    tokens = _TOKEN_RE.findall(text)
    return tokens if tokens else [UNK_TOKEN]


def parse_semeval_tsv(path) -> Corpus:
    """Parse a 4-column (ID, Target, Tweet, Stance) TSV with one header line."""
    text = read_text(path, encoding="utf-8-sig")
    examples: list[Example] = []
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty file: missing header", line=1)
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != 4:
            raise ParseError(f"expected 4 tab-separated columns, got {len(cols)}", line=lineno)
        _, target, tweet, stance_raw = cols
        stance = stance_raw.strip().upper()
        if stance not in STANCE_TO_INDEX:
            raise ParseError(f"unknown stance {stance_raw.strip()!r}", line=lineno)
        examples.append(
            Example(
                sentence_tokens=tokenize(tweet),
                target_tokens=tokenize(target),
                stance=stance,
                raw_text=tweet,
                raw_target=target,
            )
        )
    return Corpus(examples)


def build_vocab(corpora: list[Corpus], min_count: int = 1) -> Vocabulary:
    """Count training tokens and assign ids by (count desc, token asc)."""
    if not corpora:
        raise ValueError("build_vocab requires at least one corpus")
    counts: Counter = Counter()
    for corpus in corpora:
        for ex in corpus:
            counts.update(ex.sentence_tokens)
            counts.update(ex.target_tokens)
    counts.pop(PAD_TOKEN, None)
    counts.pop(UNK_TOKEN, None)
    kept = sorted(
        (tok for tok, c in counts.items() if c >= min_count),
        key=lambda tok: (-counts[tok], tok),
    )
    return Vocabulary.from_tokens([PAD_TOKEN, UNK_TOKEN, *kept])


def _hash_seeded_vector(token: str, dim: int) -> np.ndarray:
    seed = int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:8], "little")
    return np.random.default_rng(seed).uniform(-0.05, 0.05, dim)


# train builds a float32 model (build_model's default), which casts every
# embedding row it looks up to float32
FLOAT32_MAX = float(np.finfo(np.float32).max)


def _vocab_vectors(lines, vocab: Vocabulary, dim: int) -> dict[str, np.ndarray]:
    """The vector of each vocabulary token among "token v1 ... v_dim" lines;
    a value that is not a finite float (nan, inf, or one that overflows to
    inf, such as 1e500), or whose magnitude exceeds float32's largest value
    (1e300, say), is a ParseError on its line."""
    found: dict[str, np.ndarray] = {}
    for lineno, line in enumerate(lines, start=1):
        head = line.split(None, 1)
        if not head or head[0] not in vocab.token_to_id:
            continue
        tok = head[0]
        values = head[1].split() if len(head) > 1 else []
        if len(values) != dim:
            raise ParseError(f"expected {dim} values for token {tok!r}, got {len(values)}", line=lineno)
        try:
            vec = np.array(values, dtype=np.float64)
        except ValueError:
            raise ParseError(f"non-numeric value in the vector for {tok!r}", line=lineno) from None
        if not (np.abs(vec) <= FLOAT32_MAX).all():  # false for NaN too
            if not np.isfinite(vec).all():
                raise ParseError(f"non-finite value in the vector for {tok!r}", line=lineno)
            raise ParseError(f"value beyond the float32 range in the vector for {tok!r}", line=lineno)
        found[tok] = vec
    return found


def load_embeddings(path, vocab: Vocabulary, dim: int) -> EmbeddingMatrix:
    """Read "token v1 ... v_dim" lines; PAD row is zeros; tokens missing from
    the file get a deterministic hash-seeded vector in [-0.05, 0.05]. The
    matrix is float64, but every value must fit the float32 model that
    casts its rows.

    Streams the file; a line's values are split and parsed only when its
    token is in the vocabulary. A string-to-float64 array cast parses each
    value as Python's float() does, so no bit depends on the conversion path.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            found = _vocab_vectors(fh, vocab, dim)
    except (OSError, UnicodeDecodeError) as exc:
        raise unreadable(path, exc) from None
    values = np.zeros((len(vocab), dim), dtype=np.float64)
    for tok, idx in vocab.token_to_id.items():
        if idx == PAD_ID:
            continue
        vec = found.get(tok)
        values[idx] = vec if vec is not None else _hash_seeded_vector(tok, dim)
    return EmbeddingMatrix(values=values)


def random_embeddings(vocab: Vocabulary, dim: int) -> EmbeddingMatrix:
    """Hash-seeded vectors for every non-PAD token (no pretrained file)."""
    values = np.zeros((len(vocab), dim), dtype=np.float64)
    for tok, idx in vocab.token_to_id.items():
        if idx != PAD_ID:
            values[idx] = _hash_seeded_vector(tok, dim)
    return EmbeddingMatrix(values=values)


def encode_corpus(corpus: Corpus, vocab: Vocabulary) -> Corpus:
    """Fill in token ids for every example; returns the same corpus."""
    for ex in corpus:
        ex.sentence_ids = [vocab.id_of(t) for t in ex.sentence_tokens]
        ex.target_ids = [vocab.id_of(t) for t in ex.target_tokens]
    return corpus


@dataclass
class Split:
    train: Corpus
    dev: Corpus
    test: Corpus
    domain_names: tuple[str, ...]


def canonical_target(raw: str) -> str | None:
    return _TARGET_ALIASES.get(raw.strip().lower())


def make_split(full: Corpus, check_counts: bool = True) -> Split:
    """Partition by target: four training domains, Hillary dev, Trump test.

    With check_counts, the split is validated against the expected label
    distribution (train FAVOR/AGAINST/NONE = 619/982/574, dev total 1278,
    test total 707).
    """
    buckets: dict[str, list[Example]] = {t: [] for t in TRAIN_TARGETS}
    buckets[DEV_TARGET] = []
    buckets[TEST_TARGET] = []
    for ex in full:
        canon = canonical_target(ex.raw_target)
        if canon is None:
            found = sorted(set(e.raw_target for e in full))
            raise DataError(f"unrecognized target {ex.raw_target!r}; targets found: {found}")
        buckets[canon].append(ex)
    missing = [t for t, rows in buckets.items() if not rows]
    if missing:
        found = sorted(set(e.raw_target for e in full))
        raise DataError(f"missing target(s) {missing}; targets found: {found}")
    for i, name in enumerate(TRAIN_TARGETS):
        for ex in buckets[name]:
            ex.domain_index = i
    for name in (DEV_TARGET, TEST_TARGET):
        for ex in buckets[name]:
            ex.domain_index = None
    train = Corpus([ex for name in TRAIN_TARGETS for ex in buckets[name]])
    dev = Corpus(buckets[DEV_TARGET])
    test = Corpus(buckets[TEST_TARGET])
    if check_counts:
        got = tuple(train.label_counts()[s] for s in STANCES)
        if got != EXPECTED_TRAIN_COUNTS:
            raise DataError(
                f"train label counts {got} != expected {EXPECTED_TRAIN_COUNTS} "
                "(use --no-count-check to bypass)"
            )
        if len(dev) != EXPECTED_DEV_TOTAL:
            raise DataError(f"dev total {len(dev)} != expected {EXPECTED_DEV_TOTAL}")
        if len(test) != EXPECTED_TEST_TOTAL:
            raise DataError(f"test total {len(test)} != expected {EXPECTED_TEST_TOTAL}")
    return Split(train=train, dev=dev, test=test, domain_names=TRAIN_TARGETS)
