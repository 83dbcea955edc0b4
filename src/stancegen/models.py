"""The five architecture variants, read from one table: each variant is a
list of branches, either conditional encoding with attention or a BiLSTM
max-pool pair, with or without adversarial domain heads. Every branch runs
the target BiLSTM from zero states; the sentence BiLSTM starts from the
target's final states in a conditional branch and from zero states in a
max-pool one.

A Model owns a flat name -> Tensor registry split into the stance path and
the adversarial path. Stance-path parameters are always created first so two
variants sharing a seed draw identical stance-path initializations. The one
forward pass runs a padded batch of examples; a single example is a batch of
one.

A version-4 checkpoint is one .npz that holds the whole model in three
arrays: `__meta__` (JSON: version, spec, precision, `vocab`, the tokens in id
order, and `index`, the [name, shape] of every registry parameter in
registry order), `__params__`, every parameter raveled and concatenated in
index order into one 1-D array in the model's precision, and
`__embeddings__`, the frozen vocabulary-aligned embedding matrix in float64
exactly as EmbeddingMatrix holds it. Loading reads no other file. The
metadata fixes every array's dtype and shape: the index and the
placeholders of build_model give the flat length, and the vocabulary and
embed_dim the matrix's. Each array's .npy header is checked against them
before anything is allocated for its data.
"""

from __future__ import annotations

import itertools
import json
import math
import zipfile
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import EmbeddingMatrix, Example, Vocabulary
from .errors import CheckpointError, ConfigError, DataError
from .files import atomic_write
from .layers import (
    AttentionOutput,
    AttentionParams,
    Dropout,
    EncoderParams,
    additive_attention_batch,
    bilstm_encode_batch,
    glorot_uniform,
    grl,
    max_pool_encode_batch,
)
from .tensor import PRECISIONS, Tensor, add_rowvec, concat_cols, matmul_t, relu, softmax_rows


@dataclass(frozen=True)
class Architecture:
    """attention: conditional encoder + attention per branch, else a BiLSTM
    max-pool pair. branches: the parameter-name suffix of each branch, whose
    stance representations are concatenated. heads: adversarial domain heads
    behind the GRL, reading the first branch's sentence representation."""

    attention: bool
    branches: tuple[str, ...]
    heads: bool


ARCHITECTURES = {
    "Concat": Architecture(attention=False, branches=("",), heads=False),
    "ConcatInvar": Architecture(attention=False, branches=("",), heads=True),
    "BCA": Architecture(attention=True, branches=("",), heads=False),
    "BCAInvar": Architecture(attention=True, branches=("",), heads=True),
    "BCAInvarSpec": Architecture(attention=True, branches=("_invar", "_spec"), heads=True),
}
VARIANTS = tuple(ARCHITECTURES)
INVAR_VARIANTS = tuple(v for v, a in ARCHITECTURES.items() if a.heads)
ATTENTION_VARIANTS = tuple(v for v, a in ARCHITECTURES.items() if a.attention)

CHECKPOINT_VERSION = 4
META_ARRAY = "__meta__"
PARAMS_ARRAY = "__params__"
EMBEDDINGS_ARRAY = "__embeddings__"


@dataclass(frozen=True)
class ModelSpec:
    variant: str
    embed_dim: int
    hidden_dim: int
    attn_dim: int
    num_domains: int
    num_stance_classes: int = 3

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        for name in ("embed_dim", "hidden_dim", "attn_dim", "num_domains", "num_stance_classes"):
            if type(getattr(self, name)) is not int:
                raise ConfigError(f"{name} must be an integer")
        for name in ("embed_dim", "hidden_dim", "attn_dim", "num_stance_classes"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.architecture.heads and self.num_domains < 2:
            raise ConfigError(f"{self.variant} needs at least 2 source domains")
        if self.num_domains < 0:
            raise ConfigError("num_domains must be non-negative")

    @property
    def architecture(self) -> Architecture:
        return ARCHITECTURES[self.variant]

    @property
    def mlp_dim(self) -> int:
        return self.hidden_dim

    @property
    def repr_dim(self) -> int:
        """Width of the vector fed to the stance head: per branch, the
        attention summary or the [target; sentence] max-pool pair."""
        arch = self.architecture
        return len(arch.branches) * (2 if arch.attention else 4) * self.hidden_dim

    @property
    def domain_repr_dim(self) -> int:
        """Width of the vector the adversarial heads read (via grl)."""
        return 2 * self.hidden_dim

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class Branch:
    """One encoder, plus its attention unless the branch max-pools."""

    encoder: EncoderParams
    attention: AttentionParams | None


@dataclass
class Model:
    spec: ModelSpec
    embeddings: EmbeddingMatrix
    dtype: type
    params: dict[str, Tensor]
    adversarial: set[str]
    branches: list[Branch] = field(default_factory=list)
    w_mlp: Tensor | None = None
    w_stance: Tensor | None = None
    domain_w: list[Tensor] = field(default_factory=list)
    domain_b: list[Tensor] = field(default_factory=list)

    def stance_path(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.params.items() if k not in self.adversarial}

    def adversarial_path(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.params.items() if k in self.adversarial}

    def param_count(self) -> int:
        return sum(int(np.prod(t.value.shape)) for t in self.params.values())


@dataclass
class ForwardOutput:
    """Row-batched outputs: row i belongs to the batch's example i.

    stance_probs is (batch, classes) and each domain head gives (batch, 2).
    sentence_mask is (batch, positions) and marks the real, unpadded tokens;
    attention.alpha has the same shape and is exactly 0 off the mask.
    """

    stance_probs: Tensor
    domain_probs: list[Tensor]
    attention: AttentionOutput | None
    repr: Tensor
    sentence_mask: np.ndarray


def build_model(
    spec: ModelSpec, seed: int | None, embeddings: EmbeddingMatrix, dtype=np.float32
) -> Model:
    """Initialize all parameters under one seed; stance path drawn first.

    With seed None nothing is drawn and nothing the spec sizes is allocated:
    every weight matrix and LSTM bias is a read-only placeholder
    (layers.placeholder) for a caller that replaces each parameter, as
    load_checkpoint does.
    """
    if embeddings.dim != spec.embed_dim:
        raise ConfigError(f"embedding dim {embeddings.dim} != spec embed_dim {spec.embed_dim}")
    rng = None if seed is None else np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    adversarial: set[str] = set()
    model = Model(spec=spec, embeddings=embeddings, dtype=dtype, params=params, adversarial=adversarial)

    def register(pairs):
        for name, t in pairs:
            if name in params:
                raise ConfigError(f"duplicate parameter name {name}")
            params[name] = t

    arch = spec.architecture
    for suffix in arch.branches:
        encoder = EncoderParams.init(spec.embed_dim, spec.hidden_dim, rng, dtype)
        register(encoder.named("encoder" + suffix))
        attention = None
        if arch.attention:
            attention = AttentionParams.init(spec.attn_dim, 4 * spec.hidden_dim, rng, dtype)
            register(attention.named("attention" + suffix))
        model.branches.append(Branch(encoder, attention))

    model.w_mlp = Tensor(glorot_uniform(rng, spec.mlp_dim, spec.repr_dim, dtype))
    model.w_stance = Tensor(glorot_uniform(rng, spec.num_stance_classes, spec.mlp_dim, dtype))
    register([("stance.w_mlp", model.w_mlp), ("stance.w_stance", model.w_stance)])

    if arch.heads:
        for i in range(spec.num_domains):
            w = Tensor(glorot_uniform(rng, 2, spec.domain_repr_dim, dtype))
            b = Tensor(np.zeros(2, dtype=dtype))
            model.domain_w.append(w)
            model.domain_b.append(b)
            register([(f"domain.{i}.w", w), (f"domain.{i}.b", b)])
            adversarial.update({f"domain.{i}.w", f"domain.{i}.b"})
    return model


def _check_ids(model: Model, ids: list[int], what: str) -> None:
    if not ids:
        raise ValueError(f"model_forward_batch: empty {what}")
    n = model.embeddings.values.shape[0]
    for tid in ids:
        if not 0 <= tid < n:
            raise DataError(f"{what} token id {tid} outside embedding table of size {n}")


def pad_id_batch(id_lists: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Pad with PAD id 0. Returns (ids, mask), both (batch, position); the
    mask is True on real tokens."""
    batch = len(id_lists)
    width = max(len(ids) for ids in id_lists)
    out = np.zeros((batch, width), dtype=np.intp)
    mask = np.zeros((batch, width), dtype=bool)
    for i, ids in enumerate(id_lists):
        out[i, : len(ids)] = ids
        mask[i, : len(ids)] = True
    return out, mask


def length_sorted_batches(examples: list[Example], batch_size: int) -> list[list[int]]:
    """Index batches of at most batch_size over a stable sort of the examples
    by sentence length, ties in corpus order. An example without ids sorts
    first, so its batch's forward pass raises model_forward_batch's error."""
    order = sorted(range(len(examples)), key=lambda i: len(examples[i].sentence_ids or ()))
    return [order[lo : lo + batch_size] for lo in range(0, len(order), batch_size)]


def _embed_steps(model: Model, ids: np.ndarray) -> Tensor:
    """The (positions, batch, embed) sequence of a (batch, positions) id matrix."""
    return Tensor(model.embeddings.values[ids.T].astype(model.dtype))


def _stance_head_batch(model: Model, s: Tensor) -> Tensor:
    return softmax_rows(matmul_t(relu(matmul_t(s, model.w_mlp)), model.w_stance))


def _domain_heads_batch(model: Model, adv: Tensor) -> list[Tensor]:
    z = grl(adv)
    return [
        softmax_rows(add_rowvec(matmul_t(z, w), b))
        for w, b in zip(model.domain_w, model.domain_b)
    ]


def model_forward_batch(
    model: Model,
    examples: list[Example],
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
    dropout: float = 0.0,
) -> ForwardOutput:
    """Forward pass over a batch of examples, padded to the longest target
    and sentence; padding never changes another position's output, so each
    row equals the example's forward as a batch of one up to rounding: a
    1-row product takes numpy's vector path, and the attention softmax sums
    over the padded width. At paper size in float32, 495 of 1,024 rows in
    batches of 32 differed from a batch of one, by at most 9e-8.

    With no tape the layers make the eval products, a batch of one included
    (the rule in the layers module docstring). At paper size in float32 on
    OpenBLAS 0.3.31 this moves eval stance probabilities of batches of 1-16
    rows by about one ulp against a taped forward and leaves batches of 17
    or more rows alone. The attention split can move alpha only below 16
    rows: from 16 rows the library sums the 800-long [summary; h_j] product
    in the same two halves.

    In train mode one Dropout(dropout, rng) applies after the embedding
    lookup, between recurrent steps, and on the encoder outputs; eval mode
    consumes no randomness. The stance head reads the branches' concatenated
    representations; the domain heads and the reported attention weights
    come from the first branch."""
    if not examples:
        raise ValueError("model_forward_batch: empty batch")
    for ex in examples:
        _check_ids(model, ex.target_ids, "target")
        _check_ids(model, ex.sentence_ids, "sentence")
    t_ids, t_mask = pad_id_batch([ex.target_ids for ex in examples])
    s_ids, s_mask = pad_id_batch([ex.sentence_ids for ex in examples])
    drop = Dropout(dropout, rng) if train_mode else None

    post = (lambda x: x) if drop is None else drop

    def hidden(pair):  # every position's [h_fwd; h_bwd]
        (f_hs, _), (b_hs, _) = pair
        return post(concat_cols([f_hs, b_hs]))

    sent = post(_embed_steps(model, s_ids))
    tgt = post(_embed_steps(model, t_ids))

    attentions: list[AttentionOutput] = []
    stance_reprs: list[Tensor] = []
    sentence_reprs: list[Tensor] = []
    for branch in model.branches:
        enc = branch.encoder
        target = bilstm_encode_batch(tgt, t_mask, enc.target_fwd, enc.target_bwd, drop)
        if branch.attention is not None:
            (_, t_fwd), (_, t_bwd) = target
            sentence = bilstm_encode_batch(sent, s_mask, enc.sent_fwd, enc.sent_bwd, drop, init=(t_fwd, t_bwd))
            hiddens = hidden(sentence)
            summary = post(concat_cols([t_fwd.h, t_bwd.h]))
            att = additive_attention_batch(summary, hiddens, branch.attention, s_mask)
            attentions.append(att)
            stance_reprs.append(att.s)
            sentence_reprs.append(att.s)
        else:
            t_hidden = hidden(target)
            s_hidden = hidden(bilstm_encode_batch(sent, s_mask, enc.sent_fwd, enc.sent_bwd, drop))
            t_pool = max_pool_encode_batch(t_hidden, t_mask)
            s_pool = max_pool_encode_batch(s_hidden, s_mask)
            stance_reprs.append(concat_cols([t_pool, s_pool]))
            sentence_reprs.append(s_pool)
    s = stance_reprs[0] if len(stance_reprs) == 1 else concat_cols(stance_reprs)
    heads = model.spec.architecture.heads
    return ForwardOutput(
        stance_probs=_stance_head_batch(model, s),
        domain_probs=_domain_heads_batch(model, sentence_reprs[0]) if heads else [],
        attention=attentions[0] if attentions else None,
        repr=s,
        sentence_mask=s_mask,
    )


def save_checkpoint(model: Model, path, vocab: Vocabulary) -> None:
    """Write the spec, the vocabulary, all registry parameters as one flat
    array with their index, and the embedding matrix to one npz at exactly
    `path`, with no suffix added. The flat array is streamed parameter by
    parameter, so saving holds no copy of it."""
    params = list(model.params.values())
    meta = {
        "version": CHECKPOINT_VERSION,
        "spec": model.spec.to_dict(),
        "precision": np.dtype(model.dtype).name,
        "vocab": vocab.tokens(),
        "index": [[name, list(t.value.shape)] for name, t in model.params.items()],
    }
    descr = np.lib.format.dtype_to_descr(np.dtype(model.dtype))
    flat_header = {"descr": descr, "fortran_order": False, "shape": (sum(t.value.size for t in params),)}
    with atomic_write(path, "wb") as fh, zipfile.ZipFile(fh, "w") as archive:
        with archive.open(META_ARRAY + ".npy", "w") as out:
            np.lib.format.write_array(out, np.array(json.dumps(meta)), allow_pickle=False)
        with archive.open(PARAMS_ARRAY + ".npy", "w", force_zip64=True) as out:
            np.lib.format.write_array_header_1_0(out, flat_header)
            for t in params:
                out.write(np.asarray(t.value, dtype=model.dtype).tobytes())
        with archive.open(EMBEDDINGS_ARRAY + ".npy", "w", force_zip64=True) as out:
            np.lib.format.write_array(out, model.embeddings.values, allow_pickle=False)


def _value_problem(arr: np.ndarray, dtype) -> str | None:
    """What keeps a model of precision dtype from holding arr's values, or
    None. NaN propagates through min and max, so those two values find any
    NaN or infinity without a temporary the size of arr."""
    if arr.size == 0:
        return None
    lo, hi = arr.min(), arr.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        return "holds a NaN or infinite value"
    if max(-lo, hi) > np.finfo(dtype).max:
        return f"holds a value beyond the {np.dtype(dtype).name} range"
    return None


# numpy's own .npy reader reads 256 KiB at a time; reading 1 MiB chunks
# raised a paper-size load's peak RSS by about 1.4 MB and saved no time
READ_CHUNK = 1 << 18


def _read_array(
    archive: zipfile.ZipFile, path, name: str, what: str, dtype: np.dtype | None, shape: tuple, needs: str
) -> np.ndarray:
    """The checkpoint's `what`, stored as member name.npy.

    Its header must give `dtype` (None: a string of any length, the
    metadata's) and `shape` (`needs` says what fixes it) and account for
    exactly the member's bytes. Only then is the array allocated, and its
    data is read into it a chunk at a time, so neither a header's claim nor
    a deflated member makes the load allocate more than the metadata needs."""
    if name + ".npy" not in archive.namelist():
        raise CheckpointError(f"{path}: checkpoint lacks its {what} {name}")
    info = archive.getinfo(name + ".npy")
    try:
        with archive.open(info) as fh:
            version = np.lib.format.read_magic(fh)
            if version not in ((1, 0), (2, 0)):
                raise ValueError(f"unsupported .npy version {version}")
            read_header = getattr(np.lib.format, f"read_array_header_{version[0]}_0")
            stored_shape, fortran_order, stored_dtype = read_header(fh)
            if stored_dtype != dtype if dtype is not None else stored_dtype.kind != "U":
                raise CheckpointError(f"{path}: {name} is {stored_dtype}, not {'a string' if dtype is None else dtype}")
            if stored_shape != shape:
                raise CheckpointError(f"{path}: {name} has shape {stored_shape}, but {needs} {shape}")
            if fortran_order:
                raise CheckpointError(f"{path}: {name} is stored in Fortran order")
            nbytes = math.prod(shape) * stored_dtype.itemsize
            if info.file_size != fh.tell() + nbytes:
                raise CheckpointError(
                    f"{path}: {name} holds {info.file_size - fh.tell()} bytes of data, but its header gives {nbytes}"
                )
            arr = np.empty(shape, stored_dtype)
            buf = memoryview(arr.reshape(-1).view(np.uint8))
            for lo in range(0, nbytes, READ_CHUNK):
                chunk = buf[lo : lo + READ_CHUNK]
                if fh.readinto(chunk) != len(chunk):
                    raise ValueError(f"{name} ends early")
            return arr
    except CheckpointError:
        raise
    except Exception as exc:  # zipfile, zlib and numpy's header parser each raise their own kinds
        raise CheckpointError(f"{path}: unreadable checkpoint ({exc})") from exc


def _check_index(path, index: list, model: Model) -> None:
    """Refuse an index that differs from build_model's registry, naming the first entry that differs."""
    expected = [[name, list(t.value.shape)] for name, t in model.params.items()]
    for i, (stored, want) in enumerate(zip(index, expected)):
        if stored != want:
            raise CheckpointError(f"{path}: index entry {i} is {stored!r}, but the spec gives {want!r}")
    if len(index) != len(expected):
        raise CheckpointError(
            f"{path}: index names {len(index)} parameters, but the spec gives {len(expected)}"
        )


def load_checkpoint(
    path,
    embeddings: EmbeddingMatrix | None = None,
    expected_vocab_hash: str | None = None,
) -> tuple[Model, Vocabulary]:
    """Rebuild a Model with value-exact parameters and the stored embedding
    matrix; returns (model, vocabulary). Draws no random numbers and reads
    no other file: everything comes from the checkpoint. A caller that
    passes `embeddings` gets a CheckpointError unless they hash-equal the
    stored matrix, and one that passes `expected_vocab_hash` unless it is
    the stored vocabulary's content_hash.

    Each parameter's value is a view into the one flat array: its slice,
    handed over only after the index, the flat length and dtype, and every
    value have been checked."""
    try:
        archive = zipfile.ZipFile(path)
    except Exception as exc:
        raise CheckpointError(f"{path}: unreadable checkpoint ({exc})") from exc
    with archive:
        return _load(archive, path, embeddings, expected_vocab_hash)


def _load(archive: zipfile.ZipFile, path, embeddings, expected_vocab_hash) -> tuple[Model, Vocabulary]:
    stored = _read_array(archive, path, META_ARRAY, "metadata", None, (), "the format needs")
    try:
        meta = json.loads(str(stored))
    except (ValueError, RecursionError) as exc:
        raise CheckpointError(f"{path}: unreadable checkpoint metadata ({exc})") from exc
    version = meta.get("version") if isinstance(meta, dict) else None
    if version != CHECKPOINT_VERSION:
        # version 1 lacked the embedding matrix, version 2 stored one array
        # per parameter and version 3 left the vocabulary to a separate
        # file; retraining writes the current layout
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version}; "
            f"retrain to write a version {CHECKPOINT_VERSION} checkpoint"
        )
    for key, kind in (("spec", dict), ("precision", str), ("vocab", list), ("index", list)):
        if not isinstance(meta.get(key), kind):
            raise CheckpointError(f"{path}: checkpoint metadata lacks a {kind.__name__} {key!r}")
    if meta["precision"] not in PRECISIONS:
        raise CheckpointError(f"{path}: unknown checkpoint precision {meta['precision']!r}")
    dtype = PRECISIONS[meta["precision"]]
    try:
        vocab = Vocabulary.from_tokens(meta["vocab"])
    except ValueError as exc:
        raise CheckpointError(f"{path}: invalid vocabulary in checkpoint metadata ({exc})") from exc
    if expected_vocab_hash is not None and vocab.content_hash() != expected_vocab_hash:
        raise CheckpointError(
            f"{path}: vocabulary hash mismatch (checkpoint {vocab.content_hash()[:12]}..., "
            f"current {expected_vocab_hash[:12]}...)"
        )
    try:
        spec = ModelSpec(**meta["spec"])
    except (TypeError, ConfigError) as exc:
        raise CheckpointError(f"{path}: invalid model spec in checkpoint metadata ({exc})") from exc
    values = _read_array(
        archive, path, EMBEDDINGS_ARRAY, "embedding matrix", np.dtype(np.float64),
        (len(vocab), spec.embed_dim), "the vocabulary and embed_dim need",
    )
    problem = _value_problem(values, dtype)
    if problem:
        raise CheckpointError(f"{path}: {EMBEDDINGS_ARRAY} {problem}")
    stored_embeddings = EmbeddingMatrix(values=values)
    if embeddings is not None and embeddings.content_hash() != stored_embeddings.content_hash():
        raise CheckpointError(f"{path}: embedding matrix differs from the one stored at training time")
    index = meta["index"]
    if spec.architecture.heads and spec.num_domains > len(index):
        # each domain head owns parameters; refused before build_model makes
        # a placeholder per head
        raise CheckpointError(
            f"{path}: spec has {spec.num_domains} domain heads, but the index names {len(index)} parameters"
        )
    try:
        model = build_model(spec, seed=None, embeddings=stored_embeddings, dtype=dtype)
    except ValueError as exc:  # a shape too large for numpy to describe
        raise CheckpointError(
            f"{path}: model spec in checkpoint metadata has shapes numpy cannot hold ({exc})"
        ) from exc
    _check_index(path, index, model)
    bounds = list(itertools.accumulate((t.value.size for t in model.params.values()), initial=0))
    flat = _read_array(
        archive, path, PARAMS_ARRAY, "parameter array", np.dtype(dtype), (bounds[-1],), "the index needs"
    )
    slices = [(name, slice(lo, hi)) for name, lo, hi in zip(model.params, bounds, bounds[1:])]
    if _value_problem(flat, dtype):
        name, problem = next((n, p) for n, s in slices if (p := _value_problem(flat[s], dtype)))
        raise CheckpointError(f"{path}: {name} {problem}")
    # the registry and the structured layer views hold the same Tensor
    # objects, so assigning values here updates both
    for name, s in slices:
        t = model.params[name]
        t.value = flat[s].reshape(t.value.shape)
    return model, vocab
