"""Fuzz tests for the data readers.

load_embeddings is checked against an oracle: the line-by-line reader it
replaced, kept below, which splits every line and parses each kept value
with float(); it has since gained load_embeddings' rules that a value that
is not finite (nan, inf, or one that overflows to inf), or that a float32
model cannot hold (1e300), is a ParseError on its line. Both must give byte-identical matrices, or both raise
ParseError with the same message and line. parse_semeval_tsv and
Vocabulary.load must turn any text into a result or a ParseError/DataError,
never another exception.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stancegen.data import (
    PAD_ID,
    EmbeddingMatrix,
    Vocabulary,
    _hash_seeded_vector,
    load_embeddings,
    parse_semeval_tsv,
)
from stancegen.errors import DataError, ParseError


def reference_load_embeddings(path, vocab: Vocabulary, dim: int) -> EmbeddingMatrix:
    found: dict[str, np.ndarray] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split()
            if not parts:
                continue
            tok = parts[0]
            if tok not in vocab.token_to_id:
                continue
            if len(parts) - 1 != dim:
                raise ParseError(
                    f"expected {dim} values for token {tok!r}, got {len(parts) - 1}", line=lineno
                )
            try:
                vec = np.array([float(v) for v in parts[1:]], dtype=np.float64)
            except ValueError:
                raise ParseError(f"non-numeric value in the vector for {tok!r}", line=lineno) from None
            if not np.isfinite(vec).all():
                raise ParseError(f"non-finite value in the vector for {tok!r}", line=lineno)
            if (np.abs(vec) > np.finfo(np.float32).max).any():
                raise ParseError(f"value beyond the float32 range in the vector for {tok!r}", line=lineno)
            found[tok] = vec
    values = np.zeros((len(vocab), dim), dtype=np.float64)
    for tok, idx in vocab.token_to_id.items():
        if idx == PAD_ID:
            continue
        vec = found.get(tok)
        values[idx] = vec if vec is not None else _hash_seeded_vector(tok, dim)
    return EmbeddingMatrix(values=values)


VOCAB = Vocabulary({"<pad>": 0, "<unk>": 1, "a": 2, "b": 3, "the": 4, "٣": 5})
UNKNOWN = ["c", "A", "a,", "zz", "<UNK>", "1.0", "ａ"]
JUNK = [
    "1_0", "1__0", "_1", "nan", "-nan", "+NaN", "inf", "-Infinity", "iNf", "1e500", "-1e500", "1e300",
    "-3.4028236e38", "3.4028234e38",
    "4.9e-324", "1e-400", "٣", "١.٢", "１２", "0x10", "1,5", "1d0", "1e", ".", "-", "+1.", ".5",
    "1\x00", "\x00", "",
]
SPACES = [" ", "  ", "\t", " \t ", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "　"]
ENDINGS = ["\n", "\r\n", "\r", ""]

value_text = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(JUNK),
    st.text(alphabet="0123456789.-+eE_x\x00", max_size=4),
)


@st.composite
def embedding_lines(draw, dim):
    token = draw(st.sampled_from(sorted(VOCAB.token_to_id) + UNKNOWN))
    count = draw(st.sampled_from([dim, dim, dim, dim - 1, dim + 1, 0]))
    sep = st.sampled_from(SPACES)
    body = token
    for _ in range(count):
        body += draw(sep) + draw(value_text)
    lead = draw(st.sampled_from(["", "", " ", "\t", "\r"]))
    trail = draw(st.sampled_from(["", "", " ", "\t", " \r"]))
    return lead + body + trail + draw(st.sampled_from(ENDINGS))


@st.composite
def embedding_files(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    lines = draw(
        st.lists(
            st.one_of(embedding_lines(dim), st.sampled_from(["\n", " \n", "\t\r\n"]), st.text(max_size=8)),
            max_size=12,
        )
    )
    return dim, "".join(lines)


def _outcome(loader, path, dim):
    try:
        emb = loader(path, VOCAB, dim)
    except ParseError as exc:
        return ("error", str(exc), exc.line)
    return ("values", emb.values.dtype, emb.values.shape, emb.values.tobytes())


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=embedding_files())
def test_load_embeddings_matches_reference(tmp_path, case):
    dim, text = case
    path = tmp_path / "emb.txt"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(load_embeddings, path, dim) == _outcome(reference_load_embeddings, path, dim)


@pytest.mark.parametrize("value", JUNK)
def test_load_embeddings_junk_value_matches_reference(tmp_path, value):
    path = tmp_path / "emb.txt"
    path.write_bytes(f"b 0.5\na {value}\n".encode("utf-8"))
    assert _outcome(load_embeddings, path, 1) == _outcome(reference_load_embeddings, path, 1)


def test_load_embeddings_last_duplicate_wins(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("a 1 2\nc x\na 3 4\n", encoding="utf-8")
    emb = load_embeddings(path, VOCAB, 2)
    assert emb.values[VOCAB.id_of("a")].tolist() == [3.0, 4.0]
    assert not emb.values[PAD_ID].any()


def _accepts_or_rejects_cleanly(reader, tmp_path, text):
    path = tmp_path / "input.txt"
    path.write_bytes(text.encode("utf-8"))
    try:
        reader(path)
    except (ParseError, DataError):
        pass


STANCE_TEXT = st.sampled_from(["FAVOR", "against", " NONE ", "neutral", ""])
tsv_rows = st.lists(
    st.one_of(
        st.tuples(st.text(max_size=4), st.text(max_size=8), st.text(max_size=12), STANCE_TEXT).map(
            "\t".join
        ),
        st.text(max_size=20),
    ),
    max_size=6,
).map("\n".join)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.one_of(st.text(), tsv_rows))
def test_parse_semeval_tsv_raises_only_data_errors(tmp_path, text):
    _accepts_or_rejects_cleanly(parse_semeval_tsv, tmp_path, text)


vocab_rows = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["<pad>", "<unk>", "a", "b", "", " "]),
            st.one_of(st.integers(-2, 5).map(str), st.sampled_from(["x", "", "1_0", "٣", " 2", "9" * 5000])),
        ).map("\t".join),
        st.text(max_size=10),
    ),
    max_size=6,
).map("\n".join)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.one_of(st.text(), vocab_rows))
def test_vocab_load_raises_only_data_errors(tmp_path, text):
    _accepts_or_rejects_cleanly(Vocabulary.load, tmp_path, text)
