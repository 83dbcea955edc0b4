"""Dense tensor engine with a recorded tape and reverse-mode gradients.

Tensors are thin wrappers around rank-0/1/2 numpy arrays. Running an
operation while a Tape is active records a node with a backward closure;
``Tape.backward`` replays the nodes in reverse insertion order and
accumulates gradients additively across fan-out. A node may have several
outputs (an LSTM run's every h and c, attention's s and alpha): it is
replayed in its turn when any output has a gradient, and its closure gets
one gradient per output, None for an output that has none. With no active
tape, operations compute values only (cheap inference path).

A tape and the tensors recorded on it belong to the thread that recorded
them; the active-tape stack is thread-local so independent tapes may run on
separate threads. One exception: during Tape.backward, accum_product may
hand a weight's gradient products to a single helper thread, which runs them
in the order they were queued. Such a weight's grad is then written only by
the helper, and backward waits for every queued job before it returns.
"""

from __future__ import annotations

import os
import queue
import threading
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeError

PRECISIONS = {"float32": np.float32, "float64": np.float64}

_TLS = threading.local()


def active_tape() -> "Tape | None":
    stack = getattr(_TLS, "tapes", None)
    return stack[-1] if stack else None


class Tensor:
    """A dense value buffer plus a lazily materialized gradient buffer."""

    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray):
        self.value = value
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def accum(self, g: np.ndarray) -> None:
        """Add a gradient contribution (copying on first touch)."""
        if self.grad is None:
            self.grad = np.array(g, dtype=self.value.dtype)
        else:
            self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.value.shape}, dtype={self.value.dtype})"


def tensor(values, dtype=None) -> Tensor:
    """Create a leaf tensor, defaulting to the active tape's precision."""
    if dtype is None:
        tape = active_tape()
        dtype = tape.dtype if tape is not None else np.float64
    return Tensor(np.asarray(values, dtype=dtype))


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _helper_wanted() -> bool:
    """One BLAS thread per call (OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, is
    1; more would oversubscribe the cores) and a second CPU for the helper."""
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return (threads or "").strip() == "1" and usable_cpus() >= 2


# accum_product's helper: one FIFO thread, started on first use. HELPER is
# read at import; --parallel-seeds workers switch it off. In a float32 LSTM
# backward (one BLAS thread, 2-core x86-64) it lost up to 1.5x at 0.24-0.48 M
# multiply-adds per product, broke even at 0.72 M and won 1.2-1.4x from
# 0.96 M (paper: 1.92 M).
HELPER = _helper_wanted()
HELPER_MIN_MACS = 1_000_000
_JOBS: queue.SimpleQueue = queue.SimpleQueue()
_ERRORS: list[BaseException] = []
_WORKER: threading.Thread | None = None
_STARTING = threading.Lock()


def _forget_helper() -> None:
    """A forked child has no helper thread: start its own on first use."""
    global _JOBS, _WORKER, _STARTING
    _JOBS, _WORKER, _STARTING = queue.SimpleQueue(), None, threading.Lock()
    _ERRORS.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _work() -> None:
    while True:
        job = _JOBS.get()
        if type(job) is queue.SimpleQueue:  # _drain's marker: every earlier job has run
            job.put(None)
            continue
        w, a, b = job
        try:
            w.accum(a.T @ b)
        except BaseException as exc:  # _drain re-raises it on the backward's thread
            _ERRORS.append(exc)
        job = w = a = b = None  # no tape array outlives its job


def accum_product(w: Tensor, a: np.ndarray, b: np.ndarray) -> None:
    """w.accum(a.T @ b); on the helper thread if HELPER is on and the product
    has HELPER_MIN_MACS multiply-adds. A weight's products in one backward
    share a shape, so they take one route and are added in queue order."""
    global _WORKER
    if not HELPER or a.shape[0] * a.shape[1] * b.shape[1] < HELPER_MIN_MACS:
        w.accum(a.T @ b)
        return
    with _STARTING:  # two tapes' backwards on two threads must not start two workers
        if _WORKER is None:
            _WORKER = threading.Thread(target=_work, name="stancegen-dw", daemon=True)
            _WORKER.start()
    _JOBS.put((w, a, b))


def _drain() -> None:
    """Wait for every queued job, then raise the first helper error, if any."""
    if _WORKER is not None:
        done = queue.SimpleQueue()
        _JOBS.put(done)
        done.get()
    if _ERRORS:
        first = _ERRORS[0]
        _ERRORS.clear()
        raise first


class Tape:
    """Ordered record of operations for one forward/backward pass.

    Nodes are appended in execution order, so every node's inputs precede
    it and the backward sweep is a single reversed pass.
    """

    def __init__(self, precision: str = "float32"):
        if precision not in PRECISIONS:
            raise ValueError(f"unknown precision {precision!r}")
        self.precision = precision
        self.dtype = PRECISIONS[precision]
        # (out, backward); out is a tuple of tensors for a multi-output node
        self._nodes: list[tuple[Tensor | tuple[Tensor, ...], Callable]] = []

    def __enter__(self) -> "Tape":
        stack = getattr(_TLS, "tapes", None)
        if stack is None:
            stack = _TLS.tapes = []
        stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _TLS.tapes.pop()

    def __len__(self) -> int:
        return len(self._nodes)

    def record(self, out: Tensor | tuple[Tensor, ...], backward: Callable) -> None:
        for t in out if type(out) is tuple else (out,):
            if t.value.dtype != self.dtype:
                raise ValueError(
                    f"tensor dtype {t.value.dtype} does not match tape precision {self.precision}"
                )
        self._nodes.append((out, backward))

    def backward(self, root: Tensor) -> None:
        """Accumulate d(root)/d(tensor) into every tensor reachable from root."""
        if root.value.size != 1:
            raise ValueError(f"backward root must be a scalar, got shape {root.value.shape}")
        root.accum(np.ones_like(root.value))
        try:
            for out, fn in reversed(self._nodes):
                if type(out) is tuple:
                    grads = [t.grad for t in out]
                    if any(g is not None for g in grads):
                        fn(*grads)
                    continue
                g = out.grad
                if g is not None:
                    fn(g)
        finally:
            _drain()  # no helper job outlives its backward


def _record(out, backward: Callable):
    """Record `out` (a tensor, or a tuple of tensors for a multi-output
    node) on the active tape, if any, and return it."""
    tape = active_tape()
    if tape is not None:
        tape.record(out, backward)
    return out


def tanh(x: Tensor) -> Tensor:
    out = Tensor(np.tanh(x.value))

    def backward(g):
        x.accum(g * (1.0 - out.value * out.value))

    return _record(out, backward)


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.value, 0.0))

    def backward(g):
        x.accum(g * (x.value > 0.0))

    return _record(out, backward)


def scale(x: Tensor, k: float) -> Tensor:
    out = Tensor(x.value * k)

    def backward(g):
        x.accum(g * k)

    return _record(out, backward)


def _same_shape(name: str, a: Tensor, b: Tensor) -> None:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"{name}: shapes {a.value.shape} and {b.value.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum over equal shapes."""
    _same_shape("add", a, b)
    out = Tensor(a.value + b.value)

    def backward(g):
        a.accum(g)
        b.accum(g)

    return _record(out, backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product over equal shapes."""
    _same_shape("mul", a, b)
    out = Tensor(a.value * b.value)

    def backward(g):
        a.accum(g * b.value)
        b.accum(g * a.value)

    return _record(out, backward)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; ties route the gradient to the first argument."""
    _same_shape("maximum", a, b)
    out = Tensor(np.maximum(a.value, b.value))

    def backward(g):
        take_a = a.value >= b.value
        a.accum(g * take_a)
        b.accum(g * ~take_a)

    return _record(out, backward)


def matvec(w: Tensor, x: Tensor) -> Tensor:
    """Matrix-vector product: (m, n) @ (n,) -> (m,)."""
    if w.value.ndim != 2 or x.value.ndim != 1 or w.value.shape[1] != x.value.shape[0]:
        raise ShapeError(f"matvec: {w.value.shape} @ {x.value.shape}")
    out = Tensor(w.value @ x.value)

    def backward(g):
        w.accum(np.outer(g, x.value))
        x.accum(w.value.T @ g)

    return _record(out, backward)


def matmul_t(a: Tensor, w: Tensor) -> Tensor:
    """Row-batched linear map: (B, k) @ (m, k)^T -> (B, m)."""
    if a.value.ndim != 2 or w.value.ndim != 2 or a.value.shape[1] != w.value.shape[1]:
        raise ShapeError(f"matmul_t: {a.value.shape} @ {w.value.shape}^T")
    out = Tensor(a.value @ w.value.T)

    def backward(g):
        a.accum(g @ w.value)
        w.accum(g.T @ a.value)

    return _record(out, backward)


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    """Column-concatenate rank-2 tensors sharing a row count."""
    if not parts:
        raise ValueError("concat_cols requires at least one part")
    rows = parts[0].value.shape[0]
    for p in parts:
        if p.value.ndim != 2 or p.value.shape[0] != rows:
            raise ShapeError(f"concat_cols: incompatible shape {p.value.shape}")
    parts = list(parts)
    out = Tensor(np.concatenate([p.value for p in parts], axis=1))
    offsets = np.cumsum([0] + [p.value.shape[1] for p in parts])

    def backward(g):
        for p, lo, hi in zip(parts, offsets, offsets[1:]):
            p.accum(g[:, lo:hi])

    return _record(out, backward)


def add_rowvec(m: Tensor, b: Tensor) -> Tensor:
    """Add a vector to every row of a matrix."""
    if m.value.ndim != 2 or b.value.ndim != 1 or m.value.shape[1] != b.value.shape[0]:
        raise ShapeError(f"add_rowvec: {m.value.shape} + {b.value.shape}")
    out = Tensor(m.value + b.value)

    def backward(g):
        m.accum(g)
        b.accum(g.sum(axis=0))

    return _record(out, backward)


def blend_rows(new: Tensor, old: Tensor, keep_new: np.ndarray) -> Tensor:
    """Per-row select: rows where keep_new is true come from `new`, else `old`."""
    if new.value.shape != old.value.shape or new.value.ndim != 2:
        raise ShapeError(f"blend_rows: {new.value.shape} vs {old.value.shape}")
    keep = np.asarray(keep_new, dtype=bool)
    if keep.shape != (new.value.shape[0],):
        raise ShapeError(f"blend_rows: mask {keep.shape}")
    col = keep[:, None]
    out = Tensor(np.where(col, new.value, old.value))

    def backward(g):
        new.accum(g * col)
        old.accum(g * ~col)

    return _record(out, backward)


def softmax_values(v: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """The array math of softmax_rows, shared with the attention node."""
    if v.ndim != 2:
        raise ShapeError(f"softmax_rows expects rank-2, got {v.shape}")
    if mask is None:
        e = np.exp(v - v.max(axis=1, keepdims=True))
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != v.shape:
            raise ShapeError(f"softmax_rows: mask {mask.shape} vs {v.shape}")
        if not mask.any(axis=1).all():
            raise ValueError("softmax_rows: some row has all positions masked")
        rowmax = np.where(mask, v, -np.inf).max(axis=1, keepdims=True)
        e = np.exp(np.where(mask, v - rowmax, -np.inf))
    return e / e.sum(axis=1, keepdims=True)


def softmax_input_grad(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient reaching softmax_rows' input from its output's g."""
    return p * (g - (g * p).sum(axis=1, keepdims=True))


def softmax_rows(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Max-subtracted softmax over each row; masked positions are exactly 0."""
    p = softmax_values(x.value, mask)

    def backward(g):
        x.accum(softmax_input_grad(p, g))

    return _record(Tensor(p), backward)


def sum_all(x: Tensor) -> Tensor:
    """Sum of all entries as a length-1 tensor."""
    out = Tensor(x.value.sum().reshape(1))

    def backward(g):
        x.accum(np.full_like(x.value, g[0]))

    return _record(out, backward)


def nll_sum(probs: Tensor, idx: np.ndarray, floor: float) -> Tensor:
    """Summed negative log-likelihood as a length-1 tensor:
    sum_i -log(max(probs[i, idx[i]], floor)). Below the floor an entry gets
    no gradient; a NaN probability gives a NaN sum."""
    idx = np.asarray(idx, dtype=np.intp)
    if probs.value.ndim != 2 or idx.shape != (probs.value.shape[0],):
        raise ShapeError(f"nll_sum: {probs.value.shape} idx {idx.shape}")
    rows = np.arange(probs.value.shape[0])
    picked = probs.value[rows, idx]
    kept = np.maximum(picked, floor)
    out = Tensor((-np.log(kept)).sum().reshape(1))

    def backward(g):
        g = -np.full_like(kept, g[0])
        g = g / kept
        g = g * (picked > floor)
        if probs.grad is None:
            probs.grad = np.zeros_like(probs.value)
        probs.grad[rows, idx] += g

    return _record(out, backward)


def dropout_factor(shape, dtype, rate: float, rng: np.random.Generator) -> np.ndarray:
    """One inverted-dropout mask: 0 with probability `rate`, else 1 / (1 - rate)."""
    return (rng.random(shape) >= rate).astype(dtype) / (1.0 - rate)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero with probability `rate`, scale survivors."""
    factor = dropout_factor(x.value.shape, x.value.dtype, rate, rng)
    out = Tensor(x.value * factor)

    def backward(g):
        x.accum(g * factor)

    return _record(out, backward)


def finite_difference_check(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    eps: float = 1e-5,
    numeric: Callable[[], Tensor] | None = None,
) -> float:
    """Max relative error between tape gradients of f() and central differences.

    f must be a deterministic scalar-valued function of the parameter values
    and must not open a tape of its own; parameters should be float64. The
    central differences are taken of `numeric` if given, else of f, so a
    saddle objective can be checked against the function its gradient
    should follow. Relative error uses |a - n| / (|a| + |n| + 1e-12) per
    coordinate.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    zero_grads(params)
    with Tape("float64") as tape:
        root = f()
        tape.backward(root)
    analytic = [
        np.array(p.grad) if p.grad is not None else np.zeros_like(p.value) for p in params
    ]
    zero_grads(params)
    probe = numeric if numeric is not None else f
    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.value.reshape(-1)
        a_flat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(probe().value.reshape(-1)[0])
            flat[i] = orig - eps
            lo = float(probe().value.reshape(-1)[0])
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * eps)
            err = abs(float(a_flat[i]) - numeric) / (abs(float(a_flat[i])) + abs(numeric) + 1e-12)
            if err > worst:
                worst = err
    return worst
