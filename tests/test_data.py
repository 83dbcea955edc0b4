import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stancegen.data import (
    DEV_TARGET,
    EXPECTED_TRAIN_COUNTS,
    PAD_ID,
    STANCES,
    TEST_TARGET,
    TRAIN_TARGETS,
    UNK_ID,
    UNK_TOKEN,
    Corpus,
    Example,
    Vocabulary,
    build_vocab,
    encode_corpus,
    load_embeddings,
    make_split,
    parse_semeval_tsv,
    random_embeddings,
    tokenize,
)
from stancegen.errors import DataError, ParseError


# ---------------------------------------------------------------- tokenize


def test_tokenize_sentence_with_trailing_period():
    assert tokenize("True equality allows all to be born.") == [
        "true", "equality", "allows", "all", "to", "be", "born", ".",
    ]


def test_tokenize_normalizes_mentions_urls_hashtags():
    assert tokenize("@user http://x.co #SemST") == ["<user>", "<url>", "semst"]


def test_tokenize_empty_input_falls_back_to_unk():
    assert tokenize("") == [UNK_TOKEN]
    assert tokenize("   ") == [UNK_TOKEN]
    assert tokenize("#") == [UNK_TOKEN]


def test_tokenize_keeps_apostrophes_and_splits_punctuation():
    assert tokenize("Don't stop!!") == ["don't", "stop", "!!"]


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=60))
def test_tokenize_idempotent_on_its_own_output(text):
    once = tokenize(text)
    assert tokenize(" ".join(once)) == once


# ---------------------------------------------------------------- parsing


HEADER = "ID\tTarget\tTweet\tStance\n"


def write_tsv(tmp_path, body, name="data.tsv"):
    p = tmp_path / name
    p.write_text(HEADER + body, encoding="utf-8")
    return p


def test_parse_semeval_row(tmp_path):
    p = write_tsv(tmp_path, "1\tLegalization of Abortion\tTrue equality allows all to be born.\tAGAINST\n")
    corpus = parse_semeval_tsv(p)
    assert len(corpus) == 1
    ex = corpus.examples[0]
    assert ex.stance == "AGAINST"
    assert ex.raw_target == "Legalization of Abortion"
    assert ex.sentence_tokens[0] == "true"
    assert ex.domain_index is None


def test_parse_empty_file_after_header(tmp_path):
    assert len(parse_semeval_tsv(write_tsv(tmp_path, ""))) == 0


def test_parse_three_columns_names_line(tmp_path):
    p = write_tsv(tmp_path, "1\tAtheism\tno stance column\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_semeval_tsv(p)


def test_parse_unknown_stance_rejected(tmp_path):
    p = write_tsv(tmp_path, "1\tAtheism\ttext\tMAYBE\n")
    with pytest.raises(ParseError, match="MAYBE"):
        parse_semeval_tsv(p)


def test_parse_stance_case_insensitive(tmp_path):
    p = write_tsv(tmp_path, "1\tAtheism\ttext\tagainst\n2\tAtheism\tmore\tFavor\n")
    corpus = parse_semeval_tsv(p)
    assert [e.stance for e in corpus] == ["AGAINST", "FAVOR"]


# ------------------------------------------------------------- vocabulary


def corpus_of(texts, target="t"):
    return Corpus(
        [
            Example(
                sentence_tokens=tokenize(t),
                target_tokens=tokenize(target),
                stance="NONE",
                raw_text=t,
                raw_target=target,
            )
            for t in texts
        ]
    )


def test_build_vocab_ordering_and_reserved_ids():
    vocab = build_vocab([corpus_of(["a a b"])])
    ids = vocab.token_to_id
    assert ids["<pad>"] == 0 and ids["<unk>"] == 1
    assert ids["a"] == 2 and ids["b"] == 3


def test_build_vocab_min_count_excludes_rare():
    vocab = build_vocab([corpus_of(["a a b"])], min_count=2)
    assert "b" not in vocab.token_to_id
    assert vocab.id_of("b") == UNK_ID


def test_build_vocab_tie_broken_by_token_ascending():
    vocab = build_vocab([corpus_of(["b b a a c"])])
    assert vocab.token_to_id["a"] == 2
    assert vocab.token_to_id["b"] == 3
    assert vocab.token_to_id["c"] == 4


def test_build_vocab_counts_target_tokens_too():
    vocab = build_vocab([corpus_of(["x"], target="y")])
    assert "y" in vocab.token_to_id


def test_build_vocab_deterministic_serialization():
    v1 = build_vocab([corpus_of(["the quick brown fox", "the lazy dog"])])
    v2 = build_vocab([corpus_of(["the quick brown fox", "the lazy dog"])])
    assert v1.serialize() == v2.serialize()
    assert v1.content_hash() == v2.content_hash()


def test_vocab_serialization_round_trip(tmp_path):
    vocab = build_vocab([corpus_of(["a a b c"])])
    path = tmp_path / "vocab.tsv"
    vocab.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.token_to_id == vocab.token_to_id
    first = path.read_text(encoding="utf-8").splitlines()[0]
    assert first == "<pad>\t0"


def test_vocab_tokens_round_trip_through_from_tokens(tmp_path):
    # the token list a checkpoint stores rebuilds the same vocabulary, also
    # from a file whose lines are not in id order
    path = _vocab_file(tmp_path, "<pad>\t0\nb\t3\n<unk>\t1\na\t2\n")
    loaded = Vocabulary.load(path)
    assert loaded.tokens() == ["<pad>", "<unk>", "a", "b"]
    assert Vocabulary.from_tokens(loaded.tokens()) == loaded
    assert Vocabulary.from_tokens(loaded.tokens()).serialize() == "<pad>\t0\n<unk>\t1\na\t2\nb\t3\n"


@pytest.mark.parametrize(
    "tokens, message",
    [
        ("<pad> <unk>", "not a list of strings"),
        (["<pad>", "<unk>", 3], "not a list of strings"),
        (["<pad>", "<unk>", "a", "a"], "token 'a' is listed twice"),
        (["<pad>", "<unk>", "<pad>"], "token '<pad>' is listed twice"),
        (["<unk>", "<pad>", "a"], "id 0 must be <pad>, got '<unk>'"),
        (["<pad>", "a", "<unk>"], "id 1 must be <unk>, got 'a'"),
        (["<pad>"], "id 1 must be <unk>, got None"),
        ([], "id 0 must be <pad>, got None"),
    ],
)
def test_vocab_from_tokens_refuses(tokens, message):
    with pytest.raises(ValueError, match=message):
        Vocabulary.from_tokens(tokens)


@pytest.mark.parametrize(
    "tokens, bad_id",
    [(["<pad>", "<unk>", "a", "a"], 3), (["<unk>", "<pad>", "a"], 0), (["<pad>", "a", "<unk>"], 1)],
)
def test_vocab_load_refuses_what_from_tokens_refuses(tmp_path, tokens, bad_id):
    # one set of rules: the file reader adds the offending id's line
    with pytest.raises(ValueError) as from_tokens:
        Vocabulary.from_tokens(tokens)
    path = _vocab_file(tmp_path, "".join(f"{tok}\t{i}\n" for i, tok in enumerate(tokens)))
    with pytest.raises(ParseError) as loaded:
        Vocabulary.load(path)
    assert str(loaded.value) == f"line {bad_id + 1}: {from_tokens.value}"


def _vocab_file(tmp_path, text):
    path = tmp_path / "vocab.tsv"
    path.write_text(text, encoding="utf-8")
    return path


def test_vocab_load_rejects_duplicate_id(tmp_path):
    path = _vocab_file(tmp_path, "<pad>\t0\n<unk>\t1\nb\t2\nc\t2\n")
    with pytest.raises(ParseError, match=r"line 4: id 2 is already used on line 3"):
        Vocabulary.load(path)


def test_vocab_load_rejects_gap_in_ids(tmp_path):
    # the ids are unique, but 3 is missing, so 4 lies outside 0..3
    path = _vocab_file(tmp_path, "<pad>\t0\n<unk>\t1\nb\t2\nc\t4\n")
    with pytest.raises(ParseError, match=r"line 4: id 4 is outside 0\.\.3"):
        Vocabulary.load(path)


def test_vocab_load_rejects_negative_id(tmp_path):
    path = _vocab_file(tmp_path, "<pad>\t0\n<unk>\t1\nb\t-1\n")
    with pytest.raises(ParseError, match=r"line 3: id -1 is outside"):
        Vocabulary.load(path)


def test_vocab_load_rejects_duplicate_token(tmp_path):
    path = _vocab_file(tmp_path, "<pad>\t0\n<unk>\t1\nb\t2\nb\t3\n")
    with pytest.raises(ParseError, match=r"line 4: token 'b' is listed twice"):
        Vocabulary.load(path)


def test_vocab_load_requires_pad_at_zero(tmp_path):
    path = _vocab_file(tmp_path, "a\t0\n<unk>\t1\n<pad>\t2\n")
    with pytest.raises(ParseError, match=r"line 1: id 0 must be <pad>, got 'a'"):
        Vocabulary.load(path)


def test_vocab_load_requires_unk_at_one(tmp_path):
    path = _vocab_file(tmp_path, "<pad>\t0\n<unk>\t2\nb\t1\n")
    with pytest.raises(ParseError, match=r"line 3: id 1 must be <unk>, got 'b'"):
        Vocabulary.load(path)
    with pytest.raises(ParseError, match=r"id 1 must be <unk>, got None"):
        Vocabulary.load(_vocab_file(tmp_path, "<pad>\t0\n"))


def test_vocab_load_rejects_the_unchecked_file(tmp_path):
    # this file used to load: three tokens, ids 0, 5, 5
    with pytest.raises(ParseError, match="line 3"):
        Vocabulary.load(_vocab_file(tmp_path, "a\t0\nb\t5\nc\t5\n"))


def test_encode_corpus_maps_oov_to_unk():
    corpus = corpus_of(["a b zzz"])
    vocab = build_vocab([corpus_of(["a b"])])
    encode_corpus(corpus, vocab)
    ids = corpus.examples[0].sentence_ids
    assert ids[:2] == [vocab.id_of("a"), vocab.id_of("b")]
    assert ids[2] == UNK_ID


# -------------------------------------------------------------- embeddings


def test_load_embeddings_reads_vectors(tmp_path):
    vocab = build_vocab([corpus_of(["a"])])
    p = tmp_path / "emb.txt"
    p.write_text("a 0.1 0.2\nskipped 9 9\n", encoding="utf-8")
    emb = load_embeddings(p, vocab, dim=2)
    assert np.allclose(emb.values[vocab.id_of("a")], [0.1, 0.2])


def test_load_embeddings_pad_row_is_zero(tmp_path):
    vocab = build_vocab([corpus_of(["a"])])
    p = tmp_path / "emb.txt"
    p.write_text("a 0.1 0.2\n", encoding="utf-8")
    emb = load_embeddings(p, vocab, dim=2)
    assert np.array_equal(emb.values[PAD_ID], [0.0, 0.0])


def test_load_embeddings_missing_token_deterministic(tmp_path):
    vocab = build_vocab([corpus_of(["a missing"])])
    p = tmp_path / "emb.txt"
    p.write_text("a 0.1 0.2\n", encoding="utf-8")
    e1 = load_embeddings(p, vocab, dim=2)
    e2 = load_embeddings(p, vocab, dim=2)
    row = vocab.id_of("missing")
    assert np.array_equal(e1.values[row], e2.values[row])
    assert (np.abs(e1.values[row]) <= 0.05).all()
    assert e1.values[row].any()


def test_load_embeddings_dim_mismatch_names_line(tmp_path):
    vocab = build_vocab([corpus_of(["a b"])])
    p = tmp_path / "emb.txt"
    p.write_text("a 0.1 0.2\nb 0.3\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 2"):
        load_embeddings(p, vocab, dim=2)


def test_random_embeddings_cover_all_non_pad_rows():
    vocab = build_vocab([corpus_of(["a b c"])])
    emb = random_embeddings(vocab, dim=3)
    assert emb.values.shape == (len(vocab), 3)
    assert not emb.values[PAD_ID].any()
    for tok in ("a", "b", "c", "<unk>"):
        assert emb.values[vocab.id_of(tok)].any()


# ------------------------------------------------------------------ split


def synthetic_full_corpus(per_target=3):
    rows = []
    all_targets = list(TRAIN_TARGETS) + [DEV_TARGET, TEST_TARGET]
    for target in all_targets:
        for i in range(per_target):
            rows.append(
                Example(
                    sentence_tokens=tokenize(f"tweet {i} about things"),
                    target_tokens=tokenize(target),
                    stance=STANCES[i % 3],
                    raw_text=f"tweet {i} about things",
                    raw_target=target,
                )
            )
    return Corpus(rows)


def test_make_split_assigns_domains_and_partitions():
    full = synthetic_full_corpus()
    split = make_split(full, check_counts=False)
    assert split.domain_names == TRAIN_TARGETS
    assert len(split.train) + len(split.dev) + len(split.test) == len(full)
    seen = set()
    for ex in split.train:
        assert ex.domain_index in (0, 1, 2, 3)
        assert id(ex) not in seen
        seen.add(id(ex))
    for ex in list(split.dev) + list(split.test):
        assert ex.domain_index is None
        assert id(ex) not in seen
        seen.add(id(ex))
    domains = {ex.raw_target: ex.domain_index for ex in split.train}
    assert domains == {t: i for i, t in enumerate(TRAIN_TARGETS)}


def test_make_split_accepts_alternate_target_names():
    full = synthetic_full_corpus()
    for ex in full:
        if ex.raw_target == "Legalization of Abortion":
            ex.raw_target = "Legality of Abortion"
        elif ex.raw_target == DEV_TARGET:
            ex.raw_target = "Hillary"
        elif ex.raw_target == TEST_TARGET:
            ex.raw_target = "Trump"
    split = make_split(full, check_counts=False)
    assert len(split.dev) == 3 and len(split.test) == 3


def test_make_split_missing_target_lists_found():
    full = synthetic_full_corpus()
    kept = Corpus([e for e in full if e.raw_target != DEV_TARGET])
    with pytest.raises(DataError, match="Hillary"):
        make_split(kept, check_counts=False)


def test_make_split_unknown_target_rejected():
    full = synthetic_full_corpus()
    full.examples[0].raw_target = "Brexit"
    with pytest.raises(DataError, match="Brexit"):
        make_split(full, check_counts=False)


def test_make_split_count_check_fires_on_synthetic_data():
    with pytest.raises(DataError, match="619"):
        make_split(synthetic_full_corpus(), check_counts=True)


def test_expected_counts_constants():
    assert EXPECTED_TRAIN_COUNTS == (619, 982, 574)
    assert sum(EXPECTED_TRAIN_COUNTS) == 2175
