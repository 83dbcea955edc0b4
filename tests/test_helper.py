"""The weight-gradient helper thread behind tensor.accum_product.

With the helper on, the LSTM gate and attention weight-gradient products of
a backward run on one FIFO thread while the main thread walks the rest of
the tape. These tests force it on at tiny dims and compare every gradient
and every Adam-updated parameter with the inline path byte for byte, check
its guard (one BLAS thread, two CPUs), and check that no job outlives the
backward that queued it.
"""

from __future__ import annotations

import importlib.util
import os
import queue
import select
import signal
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import stancegen.tensor as T
from stancegen.data import Corpus, Example, build_vocab, encode_corpus, random_embeddings
from stancegen.layers import (
    AttentionParams,
    Dropout,
    LSTMParams,
    LSTMState,
    additive_attention_batch,
    run_lstm_batch,
)
from stancegen.models import ModelSpec, build_model, model_forward_batch
from stancegen.tensor import PRECISIONS, Tape, Tensor, _record, add, mul, sum_all
from stancegen.training import AdamState, adam_step, clip_gradients, objective_batch

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def forced(monkeypatch):
    """Switch the helper on for every product, whatever its size, and count
    the accumulations that run on a thread other than the main one."""
    monkeypatch.setattr(T, "HELPER", True)
    monkeypatch.setattr(T, "HELPER_MIN_MACS", 0)
    off_main = []
    accum = Tensor.accum

    def spy(self, g):
        if threading.current_thread() is not threading.main_thread():
            off_main.append(g.shape)
        accum(self, g)

    monkeypatch.setattr(Tensor, "accum", spy)
    return off_main


@pytest.fixture
def no_thread(monkeypatch):
    """Fail if anything queues a helper job or starts a thread."""
    monkeypatch.setattr(T, "_WORKER", None)

    def refuse(*args, **kwargs):
        raise AssertionError("a helper thread was started")

    monkeypatch.setattr(T.threading, "Thread", refuse)


def ragged_mask(rows, n):
    lengths = [n - i % n for i in range(rows)]
    return np.arange(n)[None, :] < np.array(lengths)[:, None]


def weighted_sum(tensors, rng, dtype):
    root = None
    for t in tensors:
        term = sum_all(mul(t, Tensor(rng.uniform(-1, 1, t.shape).astype(dtype))))
        root = term if root is None else add(root, term)
    return root


def adam_bytes(params: dict[str, Tensor]) -> dict[str, bytes]:
    """Every gradient, then the parameters after one clip and Adam step."""
    out = {f"grad {k}": p.grad.tobytes() for k, p in params.items() if p.grad is not None}
    clip_gradients(params, 0.5)
    adam_step(params, AdamState.init(params), 0.01, 0.01)
    out.update({f"updated {k}": p.value.tobytes() for k, p in params.items()})
    return out


def lstm_case(precision, reverse):
    dtype = PRECISIONS[precision]
    rng = np.random.default_rng(5)
    rows, n = 5, 6
    params = LSTMParams.init(7, 4, rng, dtype)
    steps = [Tensor(rng.uniform(-1, 1, (rows, 7)).astype(dtype)) for _ in range(n)]
    init = LSTMState(*(Tensor(rng.uniform(-1, 1, (rows, 4)).astype(dtype)) for _ in range(2)))
    with Tape(precision) as tape:
        states = run_lstm_batch(
            steps, ragged_mask(rows, n), init, params, reverse=reverse, drop=Dropout(0.3, rng)
        )
        tape.backward(weighted_sum([t for s in states for t in (s.h, s.c)], rng, dtype))
    leaves = dict(params.named("lstm"), **{f"step {j}": s for j, s in enumerate(steps)})
    leaves.update({"init.h": init.h, "init.c": init.c})
    return adam_bytes(leaves)


def attention_case(precision):
    dtype = PRECISIONS[precision]
    rng = np.random.default_rng(6)
    rows, n = 5, 6
    params = AttentionParams.init(5, 3 + 8, rng, dtype)
    summary = Tensor(rng.uniform(-1, 1, (rows, 3)).astype(dtype))
    hiddens = [Tensor(rng.uniform(-1, 1, (rows, 8)).astype(dtype)) for _ in range(n)]
    with Tape(precision) as tape:
        out = additive_attention_batch(summary, hiddens, params, ragged_mask(rows, n))
        tape.backward(weighted_sum([out.s, out.alpha], rng, dtype))
    leaves = dict(params.named("attention"), summary=summary)
    leaves.update({f"h {j}": h for j, h in enumerate(hiddens)})
    return adam_bytes(leaves)


def tiny_batch(rows, lengths):
    rng = np.random.default_rng(7)
    words = [f"w{i}" for i in range(30)]
    batch = [
        Example(
            sentence_tokens=[str(w) for w in rng.choice(words, int(rng.integers(*lengths)))],
            target_tokens=[str(w) for w in rng.choice(words, 1 + k % 3)],
            stance=("FAVOR", "AGAINST", "NONE")[k % 3],
            raw_text="",
            raw_target="",
            domain_index=k % 4,
        )
        for k in range(rows)
    ]
    corpus = Corpus(batch)
    vocab = build_vocab([corpus])
    encode_corpus(corpus, vocab)
    return batch, vocab


def step_case(precision, variant="BCAInvarSpec", dims=(6, 4, 5), rows=6, lengths=(3, 9)):
    dtype = PRECISIONS[precision]
    batch, vocab = tiny_batch(rows, lengths)
    model = build_model(ModelSpec(variant, *dims, 4), 0, random_embeddings(vocab, dims[0]), dtype)
    with Tape(precision) as tape:
        out = model_forward_batch(model, batch, train_mode=True, rng=np.random.default_rng(1), dropout=0.2)
        objective, _, _ = objective_batch(out, batch, 0.3)
        tape.backward(objective)
    return adam_bytes(model.params)


def assert_same(inline, helped):
    assert inline.keys() == helped.keys()
    differing = [k for k in inline if inline[k] != helped[k]]
    assert not differing, differing


CASES = {
    "lstm forward": lambda p: lstm_case(p, reverse=False),
    "lstm reverse": lambda p: lstm_case(p, reverse=True),
    "attention": attention_case,
    "BCAInvarSpec step": step_case,
}


# ------------------------------------------------------------ byte equality


@pytest.mark.parametrize("precision", ["float32", "float64"])
@pytest.mark.parametrize("case", list(CASES))
def test_helper_matches_the_inline_path_byte_for_byte(monkeypatch, forced, precision, case):
    helped = CASES[case](precision)
    assert forced, "no weight gradient ran on the helper"
    monkeypatch.setattr(T, "HELPER", False)
    forced.clear()
    inline = CASES[case](precision)
    assert not forced
    assert_same(inline, helped)


def test_helper_keeps_bits_under_frequent_thread_switches(monkeypatch, forced):
    # a lost or reordered update shows as a differing byte
    monkeypatch.setattr(T, "HELPER", False)
    inline = [CASES[case]("float32") for case in CASES]
    monkeypatch.setattr(T, "HELPER", True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            for case, expected in zip(CASES, inline):
                assert_same(expected, CASES[case]("float32"))
    finally:
        sys.setswitchinterval(interval)
    assert forced


def test_concurrent_first_jobs_start_one_worker(monkeypatch, forced):
    # eight threads queue their first job at once; one worker must serve them all
    monkeypatch.setattr(T, "_WORKER", None)
    monkeypatch.setattr(T, "_JOBS", queue.SimpleQueue())  # a running worker keeps the old queue
    started, real_thread = [], threading.Thread

    class Counted(real_thread):
        def start(self):
            started.append(self.name)
            super().start()

    monkeypatch.setattr(T.threading, "Thread", Counted)
    rng = np.random.default_rng(8)
    operands = [(rng.random((6, 5)), rng.random((6, 3))) for _ in range(8)]
    weights = [Tensor(np.zeros((5, 3))) for _ in operands]
    barrier = threading.Barrier(len(operands))

    def run(w, a, b):
        barrier.wait(timeout=30)
        T.accum_product(w, a, b)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [real_thread(target=run, args=(w, *ab)) for w, ab in zip(weights, operands)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        T._drain()
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert started == ["stancegen-dw"]
    assert [w.grad.tobytes() for w in weights] == [(a.T @ b).tobytes() for a, b in operands]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_starts_its_own_helper(forced):
    # as a --parallel-seeds pool forks its workers: the parent's helper
    # thread does not exist in the child, so the child must not queue on it
    a, b = np.ones((6, 5)), np.ones((6, 3))
    T.accum_product(Tensor(np.zeros((5, 3))), a, b)
    T._drain()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            w = Tensor(np.zeros((5, 3)))
            T.accum_product(w, a, b)
            T._drain()
            os.write(write, w.grad.tobytes())
        finally:
            os._exit(0)
    os.close(write)
    ready, _, _ = select.select([read], [], [], 30)
    if not ready:
        os.kill(pid, signal.SIGKILL)
    data = os.read(read, 1024) if ready else b""
    os.close(read)
    os.waitpid(pid, 0)
    assert data == (a.T @ b).tobytes()


def test_helper_runs_in_bitchecks_paper_size_training_case(tmp_path):
    # bitcheck's 0-diff result covers the helper only if the helper runs
    # there: under bitcheck's BLAS setting on a machine with two CPUs
    if T.usable_cpus() < 2:
        pytest.skip("the helper needs two CPUs")
    spec = importlib.util.spec_from_file_location("bitcheck", REPO / "tools" / "bitcheck.py")
    bitcheck = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bitcheck)
    spy = (
        "import threading\nimport stancegen.tensor as T\nhelped = []\n_accum = T.Tensor.accum\n"
        "def accum(self, g):\n"
        "    if threading.current_thread() is not threading.main_thread():\n"
        "        helped.append(g.shape)\n"
        "    _accum(self, g)\n"
        "T.Tensor.accum = accum\n"
    )
    script = spy + bitcheck.PAPER_SIZE + "print('helper accumulations', len(helped))\n"
    env = bitcheck.Runner(REPO, tmp_path, blas_threads=1).env
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1]
    assert last.startswith("helper accumulations ") and int(last.split()[-1]) > 0, last


# -------------------------------------------------------------------- guard


@pytest.mark.parametrize(
    "openblas,omp,cpus,wanted",
    [
        ("1", None, 2, True),
        (None, "1", 2, True),
        ("1", "2", 2, True),  # OPENBLAS_NUM_THREADS wins, as in OpenBLAS
        ("2", None, 2, False),
        ("2", "1", 2, False),
        (None, "4", 2, False),
        (None, None, 2, False),  # library default: one BLAS thread per CPU
        ("1", "1", 1, False),
    ],
)
def test_helper_stays_off_unless_blas_is_single_threaded_on_two_cpus(
    monkeypatch, openblas, omp, cpus, wanted
):
    for var, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
        if value is None:
            monkeypatch.delenv(var, raising=False)
        else:
            monkeypatch.setenv(var, value)
    monkeypatch.setattr(T.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    assert T._helper_wanted() is wanted


def test_one_cpu_affinity_keeps_a_paper_size_product_inline(monkeypatch, no_thread):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(T.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(T, "HELPER", T._helper_wanted())
    assert T.HELPER is False
    rng = np.random.default_rng(0)
    ga, z = rng.random((32, 200), dtype=np.float32), rng.random((32, 300), dtype=np.float32)
    w = Tensor(np.zeros((200, 300), dtype=np.float32))
    T.accum_product(w, ga, z)
    assert w.grad.tobytes() == (ga.T @ z).tobytes()


def test_usable_cpus_reads_the_affinity_set(monkeypatch):
    monkeypatch.setattr(T.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr(T.os, "cpu_count", lambda: 64)
    assert T.usable_cpus() == 1
    monkeypatch.delattr(T.os, "sched_getaffinity", raising=False)
    assert T.usable_cpus() == 64
    monkeypatch.setattr(T.os, "cpu_count", lambda: None)
    assert T.usable_cpus() == 1


# ---------------------------------------------------------------- lifecycle


def test_a_helper_error_surfaces_from_backward_and_the_helper_serves_the_next(monkeypatch, forced):
    monkeypatch.setattr(T, "HELPER", False)
    expected = lstm_case("float32", reverse=False)
    monkeypatch.setattr(T, "HELPER", True)
    rng = np.random.default_rng(5)
    params = LSTMParams.init(7, 4, rng, np.float32)
    steps = [Tensor(rng.uniform(-1, 1, (5, 7)).astype(np.float32)) for _ in range(6)]
    init = LSTMState(*(Tensor(rng.uniform(-1, 1, (5, 4)).astype(np.float32)) for _ in range(2)))
    params.w_f.grad = np.zeros((1, 1, 1), dtype=np.float32)  # every += into it fails
    with Tape("float32") as tape:
        states = run_lstm_batch(steps, ragged_mask(5, 6), init, params, drop=Dropout(0.3, rng))
        root = weighted_sum([t for s in states for t in (s.h, s.c)], rng, np.float32)
        with pytest.raises(ValueError):
            tape.backward(root)
    assert T._JOBS.empty() and not T._ERRORS
    forced.clear()
    assert_same(expected, lstm_case("float32", reverse=False))
    assert forced


def test_no_job_is_pending_when_backward_raises_on_the_main_thread(forced):
    rng = np.random.default_rng(2)
    params = AttentionParams.init(5, 11, rng, np.float32)
    summary = Tensor(rng.uniform(-1, 1, (4, 3)).astype(np.float32))
    first = Tensor(rng.uniform(-1, 1, (4, 8)).astype(np.float32))

    def fail(g):
        raise RuntimeError("planted")

    with Tape("float32") as tape:
        gate = _record(Tensor(first.value.copy()), fail)  # replayed last
        hiddens = [gate] + [Tensor(rng.uniform(-1, 1, (4, 8)).astype(np.float32)) for _ in range(5)]
        out = additive_attention_batch(summary, hiddens, params, ragged_mask(4, 6))
        with pytest.raises(RuntimeError, match="planted"):
            tape.backward(weighted_sum([out.s], rng, np.float32))
    assert forced, "the attention dW went to the helper before the failure"
    assert T._JOBS.empty() and not T._ERRORS
    assert params.w.grad is not None


def test_no_job_is_pending_after_backward_returns(forced):
    lstm_case("float64", reverse=True)
    assert forced
    assert T._JOBS.empty() and not T._ERRORS


def test_eval_and_a_train_small_step_never_start_the_helper(monkeypatch, no_thread):
    monkeypatch.setattr(T, "HELPER", True)
    # train_small's shape: ConcatInvar at embed 8, hidden 6, batch 8, 3-8 tokens
    step_case("float32", "ConcatInvar", (8, 6, 5), rows=8, lengths=(3, 9))
    batch, vocab = tiny_batch(8, (3, 9))
    model = build_model(ModelSpec("BCAInvar", 8, 6, 5, 4), 0, random_embeddings(vocab, 8), np.float32)
    model_forward_batch(model, batch)
    assert T._WORKER is None


def test_the_worker_drops_each_job_once_it_has_run(forced):
    rng = np.random.default_rng(4)
    a, b = rng.random((6, 5)), rng.random((6, 3))
    refs = [weakref.ref(a), weakref.ref(b)]
    w = Tensor(np.zeros((5, 3)))
    T.accum_product(w, a, b)
    T._drain()
    assert forced == [(5, 3)]
    del a, b
    assert [r() for r in refs] == [None, None]
    assert w.grad is not None
