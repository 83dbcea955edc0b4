"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from corpus import CorpusShape, embedding_tokens, predict_requests, write_inputs  # noqa: E402
from tracing import (  # noqa: E402
    Patches,
    Recorder,
    Span,
    self_time_by_layer,
    self_times,
    tail_percentile,
    totals_by_run,
)

SHAPE = CorpusShape(
    train_per_target=5, dev=4, test=6, min_tokens=3, max_tokens=9, fillers=30, embed_dim=4,
    embedding_rows_per_word=2,
)


# ------------------------------------------------------------ tail percentile


def test_tail_percentile_leaves_ten_samples_beyond():
    pct, value, beyond = tail_percentile(range(1, 101))
    assert (pct, value, beyond) == (90.0, 90, 10)


def test_tail_percentile_is_highest_such_percentile():
    samples = [float(x) for x in range(200)]
    pct, value, beyond = tail_percentile(samples)
    assert beyond == 10
    assert sum(x > value for x in samples) == 10
    assert pct == 100.0 * 190 / 200


def test_tail_percentile_ignores_input_order():
    assert tail_percentile([5, 3, 9, 1, 7, 2, 8, 4, 6, 0, 10]) == (100.0 / 11, 0, 10)


def test_tail_percentile_needs_more_than_ten_samples():
    assert tail_percentile(range(10)) is None
    assert tail_percentile([]) is None


# -------------------------------------------------------------- spans, self time


def _spans():
    # run 1: cli.main [0, 10] > training.train [1, 9] > layers.encoder [2, 5]
    #                                                 > tensor.backward [5, 8]
    #        cli.main > data.parse [9, 9.5]
    # run 2: cli.main [20, 24] > layers.encoder [21, 22] > layers.encoder [21.2, 21.7]
    return [
        Span("cli.main", 0.0, 10.0, -1, 1),
        Span("training.train", 1.0, 9.0, 0, 1),
        Span("layers.encoder", 2.0, 5.0, 1, 1),
        Span("tensor.backward", 5.0, 8.0, 1, 1),
        Span("data.parse", 9.0, 9.5, 0, 1),
        Span("cli.main", 20.0, 24.0, -1, 2),
        Span("layers.encoder", 21.0, 22.0, 5, 2),
        Span("layers.encoder", 21.2, 21.7, 6, 2),
    ]


def test_self_time_subtracts_direct_children_only():
    own = self_times(_spans())
    assert own[:5] == pytest.approx([1.5, 2.0, 3.0, 3.0, 0.5])
    assert own[5:] == pytest.approx([3.0, 0.5, 0.5])


def test_self_times_partition_each_command():
    spans = _spans()
    own = self_times(spans)
    for run in (1, 2):
        root = next(s for s in spans if s.run == run and s.parent == -1)
        total = sum(t for s, t in zip(spans, own) if s.run == run)
        assert total == pytest.approx(root.end - root.start)


def test_outer_time_skips_spans_nested_in_the_same_group():
    spans = _spans()
    assert totals_by_run(spans, {"layers.encoder"}, "outer") == pytest.approx({1: 3.0, 2: 1.0})
    assert totals_by_run(spans, {"layers.encoder"}, "count") == {1: 1, 2: 2}
    own = self_times(spans)
    assert totals_by_run(spans, {"layers.encoder"}, "self", own) == pytest.approx({1: 3.0, 2: 1.0})
    assert totals_by_run(spans, {"training.train"}, "self", own) == pytest.approx({1: 2.0})


def test_self_time_by_layer_groups_by_name_prefix():
    spans = _spans()
    by_layer = self_time_by_layer(spans, self_times(spans))
    assert by_layer[(1, "layers")] == pytest.approx(3.0)
    assert by_layer[(1, "cli")] == pytest.approx(1.5)
    assert by_layer[(2, "layers")] == pytest.approx(1.0)


def test_recorder_nests_spans_and_survives_exceptions(tmp_path):
    rec = Recorder()
    rec.run = 7

    def inner():
        raise KeyError("boom")

    outer = rec.wrap("models.outer", lambda: rec.wrap("layers.inner", inner)())
    with pytest.raises(KeyError):
        outer()
    after = rec.wrap("data.after", lambda: 1)
    assert after() == 1
    names = [(s.name, s.parent, s.run) for s in rec.spans]
    assert names == [("models.outer", -1, 7), ("layers.inner", 0, 7), ("data.after", -1, 7)]
    assert all(s.end >= s.start for s in rec.spans)
    rec.write(tmp_path / "out" / "spans.jsonl")
    assert len((tmp_path / "out" / "spans.jsonl").read_text().splitlines()) == 3


def test_patches_undo_restores_every_global():
    import types

    mod_a = types.ModuleType("a")
    mod_b = types.ModuleType("b")

    def f():
        return "original"

    mod_a.f = mod_b.alias = f
    patches = Patches()
    patches.wrap_function([mod_a, mod_b], f, lambda fn: lambda: "wrapped " + fn())
    assert mod_a.f() == mod_b.alias() == "wrapped original"
    patches.undo()
    assert mod_a.f is f and mod_b.alias is f


def test_tracer_counts_only_products_on_a_tape():
    import numpy as np
    from stancegen import layers
    from stancegen.tensor import Tape, tensor
    from tracing import Tracer

    tracer = Tracer(Recorder())
    tracer.install()
    try:
        a = tensor(np.ones((4, 3)), dtype=np.float32)
        w = tensor(np.ones((5, 3)), dtype=np.float32)
        layers.matmul_t(a, w)  # eval mode: not a training step
        assert tracer.counts.matmul_calls == 0
        with Tape():
            layers.matmul_t(a, w)
    finally:
        tracer.undo()
    # one forward product and two of the same size in backward
    assert tracer.counts.matmul_calls == 3
    assert tracer.counts.matmul_flop == 3 * 2.0 * 4 * 3 * 5


# ------------------------------------------------------------ tracing overhead


def _session(*timed):
    from types import SimpleNamespace

    cmds = [
        SimpleNamespace(kind="train", traced=traced, work_s=seconds, start=0.0, end=seconds)
        for traced, seconds in timed
    ]
    return SimpleNamespace(commands=cmds)


def test_overhead_compares_the_two_commands_of_each_pair():
    from workloads import WORKLOADS, tracing_overhead_pct

    # the host slows down between the pairs; each pair's ratio is still 1.1
    session = _session((False, 1.0), (True, 1.1), (True, 2.2), (False, 2.0), (False, 1.5), (True, 1.65))
    assert tracing_overhead_pct(WORKLOADS["train_small"], session) == pytest.approx(10.0)
    assert tracing_overhead_pct(WORKLOADS["train_small"], _session((False, 1.0))) == 0.0


# ------------------------------------------------------------------ generator


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_generator_is_byte_identical_for_a_seed(tmp_path):
    write_inputs(tmp_path / "a", 11, SHAPE)
    write_inputs(tmp_path / "b", 11, SHAPE)
    write_inputs(tmp_path / "c", 12, SHAPE)
    first = _files(tmp_path / "a")
    assert set(first) == {"train.tsv", "dev.tsv", "test.tsv", "embeddings.txt"}
    assert first == _files(tmp_path / "b")
    assert first != _files(tmp_path / "c")
    assert predict_requests(11, 5, SHAPE) == predict_requests(11, 5, SHAPE)


def test_generator_shape_does_not_depend_on_the_seed(tmp_path):
    for seed in (1, 2):
        paths = write_inputs(tmp_path / str(seed), seed, SHAPE)
        lines = {k: p.read_text(encoding="utf-8").splitlines() for k, p in paths.items()}
        assert [len(lines[k]) for k in ("train", "dev", "test")] == [1 + 4 * 5, 1 + 4, 1 + 6]
        assert len(lines["embeddings"]) == 2 * len(embedding_tokens(SHAPE))


def test_generated_files_run_through_the_real_split(tmp_path):
    from stancegen.data import Corpus, build_vocab, make_split, parse_semeval_tsv

    paths = write_inputs(tmp_path, 3, SHAPE)
    full = Corpus([])
    for key in ("train", "dev", "test"):
        full.examples.extend(parse_semeval_tsv(paths[key]).examples)
    split = make_split(full, check_counts=False)
    assert (len(split.train), len(split.dev), len(split.test)) == (20, 4, 6)
    for ex in full:
        assert SHAPE.min_tokens <= len(ex.sentence_tokens) <= SHAPE.max_tokens
    # every token the program can see has a row in the embeddings file
    known = set(embedding_tokens(SHAPE))
    assert set(build_vocab([full]).token_to_id) - {"<pad>", "<unk>"} <= known
