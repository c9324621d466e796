"""Stacked sequence model: embed, unroll layers, decode, score.

A model observes a length-L prefix of symbols and emits H+1 decoded
vectors y_L..y_{L+H}; steps past the prefix are driven by ground-truth
label embeddings (teacher forcing). Scores are log-softmax inner products
against an output embedding table, normalized over the full vocabulary or
over {label} union sampled negatives.

All stacked layers must share segment boundaries so that each upper cell
sees a fixed input width within a segment.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from ..errors import (
    CheckpointError, DimensionMismatchError, DomainError, LongmemError, ScheduleError, allocating,
)
from ..fileio import atomic_write_text
from ..schedule import CellSchedule, schedule_from_pairs
from .cell import TENSOR_NAMES, GruCellParams
from .layer import EvoRnnLayer, LayerForward, evo_forward_batch

CHECKPOINT_FORMAT = "evornn-checkpoint"
CHECKPOINT_VERSION = 2

#: The dtypes a model's tensors may have, all of them the same one. Training
#: builds float32 models; gradient checks build float64 ones.
MODEL_DTYPES = ("float32", "float64")


@dataclass
class ModelParams:
    """Parameters of the full symbol-prediction model.

    The embedding tables are raw (V, dim) matrices: rows are updated in
    place during training. Every tensor must have its `model_shapes` shape,
    with the dims read from `input_table` and `decoder_b`, and the dtype of
    `input_table`, one of `MODEL_DTYPES`: a training step allocates every
    array in the model's dtype.
    """

    input_table: np.ndarray
    layers: list[EvoRnnLayer]
    decoder_w: np.ndarray
    decoder_b: np.ndarray
    output_table: np.ndarray
    horizon: int

    def __post_init__(self):
        if self.horizon < 0:
            raise DomainError(f"horizon must be >= 0, got {self.horizon}")
        check_shapes(
            [layer.schedule for layer in self.layers],
            {name: np.shape(tensor) for name, tensor in self.named_tensors()},
        )
        if self.dtype.name not in MODEL_DTYPES:
            raise DomainError(f"a model's tensors must be float32 or float64, got {self.dtype}")
        wrong = [name for name, tensor in self.named_tensors() if tensor.dtype != self.dtype]
        if wrong:
            raise DomainError(f"tensors of another dtype than the input table's {self.dtype}: {wrong[:4]}")

    @property
    def dtype(self) -> np.dtype:
        return self.input_table.dtype

    @property
    def vocab_size(self) -> int:
        return self.input_table.shape[0]

    @property
    def emb_dim(self) -> int:
        return self.input_table.shape[1]

    @property
    def decoder_dim(self) -> int:
        return self.decoder_b.size

    def named_tensors(self) -> Iterator[tuple[str, np.ndarray]]:
        """Every trainable tensor with a stable name, in a fixed order."""
        yield "input_table", self.input_table
        for i, layer in enumerate(self.layers):
            for s, cell in enumerate(layer.cells):
                for name, tensor in zip(TENSOR_NAMES, cell.tensors()):
                    yield f"layer{i}.cell{s}.{name}", tensor
            for b, matrix in sorted(layer.projections.items()):
                yield f"layer{i}.projection{b}", matrix
            yield f"layer{i}.init_state", layer.init_state
        yield "decoder_w", self.decoder_w
        yield "decoder_b", self.decoder_b
        yield "output_table", self.output_table


def build_model(
    vocab_size: int,
    emb_dim: int,
    schedule: CellSchedule,
    decoder_dim: int,
    horizon: int = 0,
    num_layers: int = 1,
    seed: int = 0,
    dtype=np.float32,
) -> ModelParams:
    """Fresh model with one GRU per (layer, segment) and tied boundaries,
    every tensor in `dtype` (float32 or float64).

    Gate matrices are uniform in +-1/sqrt(m+n), drawn per layer and per cell;
    biases and initial states are zero, and each projection copies the
    overlapping coordinates. Then `input_table`, `decoder_w` and
    `output_table` are uniform in +-1/sqrt(d), d being the dim each maps
    from: `emb_dim`, the top hidden size and `decoder_dim`. Layers too
    large to allocate raise DomainError before any shape is worked out.
    """
    nbytes = layer_nbytes(schedule, emb_dim, num_layers, dtype)
    with allocating(f"a {num_layers}-layer model", nbytes, "the tensors of its layers", "use fewer layers"):
        np.empty(max(nbytes, 0), dtype=np.uint8)
    model = zero_model([schedule] * num_layers, vocab_size, emb_dim, decoder_dim, horizon, dtype)
    rng = np.random.default_rng(seed)
    for layer in model.layers:
        for cell in layer.cells:
            scale = 1.0 / np.sqrt(cell.input_dim + cell.hidden_dim)
            for matrix in (cell.w_update, cell.w_reset, cell.w_candidate):
                matrix[...] = rng.uniform(-scale, scale, matrix.shape)
        for matrix in layer.projections.values():
            np.fill_diagonal(matrix, 1.0)
    top_hidden = schedule.segments[-1][1]
    for matrix, width in (
        (model.input_table, emb_dim), (model.decoder_w, top_hidden), (model.output_table, decoder_dim)
    ):
        matrix[...] = rng.uniform(-1, 1, matrix.shape) / np.sqrt(width)
    return model


def layer_nbytes(schedule: CellSchedule, emb_dim: int, num_layers: int, dtype) -> int:
    """Bytes of the layer tensors of a `build_model` model in `dtype`, in
    closed form: the `model_shapes` of 10^8 layers alone would fill memory."""
    sizes = schedule.hidden_sizes
    carried = sum(old * new for old, new in zip(sizes, sizes[1:]) if old != new) + sizes[0]
    first, upper = (
        carried + sum(3 * (m + n + 1) * n for m, n in zip(inputs, sizes))
        for inputs in ([emb_dim] * len(sizes), sizes)
    )
    return np.dtype(dtype).itemsize * (first + max(num_layers - 1, 0) * upper)


def model_shapes(
    schedules: Sequence[CellSchedule], vocab_size: int, emb_dim: int, decoder_dim: int
) -> dict[str, tuple[int, ...]]:
    """The shape of every tensor of a model with one layer per schedule, by
    its `named_tensors` name and in that order. Nothing is allocated.

    Layer 0's cells read `emb_dim` inputs; layer i's cell in a segment reads
    the hidden size of layer i-1's cell in the same segment.
    """
    if min(vocab_size, emb_dim, decoder_dim) < 1 or not schedules:
        raise DomainError("vocab, dims, and layer count must be positive")
    if len({tuple(length for length, _ in s.segments) for s in schedules}) > 1:
        raise ScheduleError("all layers must share identical segment boundaries")
    shapes = {"input_table": (vocab_size, emb_dim)}
    input_dims = [emb_dim] * len(schedules[0].segments)
    for i, schedule in enumerate(schedules):
        sizes = schedule.hidden_sizes
        for s, (m, n) in enumerate(zip(input_dims, sizes)):
            for name in TENSOR_NAMES:
                shapes[f"layer{i}.cell{s}.{name}"] = (m + n, n) if name.startswith("w_") else (n,)
        for b, (old, new) in enumerate(zip(sizes, sizes[1:])):
            if old != new:
                shapes[f"layer{i}.projection{b}"] = (new, old)
        shapes[f"layer{i}.init_state"] = (sizes[0],)
        input_dims = sizes
    shapes.update(decoder_w=(input_dims[-1], decoder_dim), decoder_b=(decoder_dim,))
    shapes["output_table"] = (vocab_size, decoder_dim)
    return shapes


def check_shapes(schedules: Sequence[CellSchedule], shapes: dict[str, tuple[int, ...]]) -> None:
    """Raise unless `shapes` (by `named_tensors` name) are exactly the
    `model_shapes` of `schedules`, with the vocabulary and embedding dims read
    from the `input_table` shape and the decoder dim from `decoder_b`'s."""
    table, bias = shapes.get("input_table", ()), shapes.get("decoder_b", ())
    if len(table) != 2 or len(bias) != 1:
        raise DimensionMismatchError("a model needs a 2-D 'input_table' and a 1-D 'decoder_b'")
    expected = model_shapes(schedules, *table, *bias)
    wrong = sorted(n for n in expected.keys() | shapes.keys() if expected.get(n) != shapes.get(n))
    if wrong:
        raise DimensionMismatchError(f"tensors missing, extra or of another shape: {wrong[:4]}")


def zero_model(
    schedules: Sequence[CellSchedule], vocab_size: int, emb_dim: int, decoder_dim: int, horizon: int,
    dtype,
) -> ModelParams:
    """An all-zero model of the `model_shapes` structure in `dtype`: the
    twin that gradients take and the frame a checkpoint is read into. A
    model too large to allocate raises DomainError naming its sizes."""
    shapes = model_shapes(schedules, vocab_size, emb_dim, decoder_dim)
    with allocating(  # worked out on refusal alone, for the gradient twin is made every step
        lambda: f"a {len(schedules)}-layer model of vocab {vocab_size}, embedding dim {emb_dim}, decoder "
        f"dim {decoder_dim} and hidden sizes up to {max(max(s.hidden_sizes) for s in schedules)}",
        lambda: np.dtype(dtype).itemsize * sum(math.prod(shape) for shape in shapes.values()),
    ):
        zeros = {name: np.zeros(shape, dtype) for name, shape in shapes.items()}
    layers = []
    for i, schedule in enumerate(schedules):
        cells = [
            GruCellParams(*(zeros[f"layer{i}.cell{s}.{name}"] for name in TENSOR_NAMES))
            for s in range(len(schedule.segments))
        ]
        projections = {
            b: zeros[f"layer{i}.projection{b}"]
            for b in range(len(cells) - 1) if f"layer{i}.projection{b}" in zeros
        }
        layers.append(EvoRnnLayer(schedule, cells, projections, zeros[f"layer{i}.init_state"]))
    return ModelParams(
        zeros["input_table"], layers, zeros["decoder_w"], zeros["decoder_b"], zeros["output_table"],
        horizon,
    )


@dataclass
class ModelForward:
    """Forward artifacts kept for the backward pass."""

    ids: np.ndarray
    decoded: np.ndarray
    decoded_states: np.ndarray
    layer_forwards: list[LayerForward]
    multiply_adds: int


def _check_ids(ids: np.ndarray, vocab_size: int) -> np.ndarray:
    ids = np.asarray(ids)
    if ids.ndim != 2:
        raise DimensionMismatchError(f"ids must be a (B, T) integer matrix, got {ids.shape}")
    if not np.issubdtype(ids.dtype, np.integer):
        raise DomainError("ids must be integers")
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        raise DomainError(f"ids must lie in [0, {vocab_size})")
    return ids


def forward_with_caches(model: ModelParams, ids: np.ndarray) -> ModelForward:
    """Run the batched forward pass over (B, L+H) symbol ids.

    The scheduled prefix length is L = T - horizon; the final H steps are
    the teacher-forced unfold. Decoded outputs correspond to steps
    L-1 .. L+H-1 of the top layer: the last H+1 states of its last run,
    which starts at or before step L-1.
    """
    ids = _check_ids(ids, model.vocab_size)
    horizon = model.horizon
    total_steps = ids.shape[1]
    prefix_length = total_steps - horizon
    if prefix_length < 1:
        raise DimensionMismatchError(
            f"sequence of {total_steps} steps too short for horizon {horizon}"
        )
    inputs: np.ndarray | LayerForward = model.input_table[ids.T]
    layer_forwards: list[LayerForward] = []
    multiply_adds = 0
    for layer in model.layers:
        inputs = evo_forward_batch(layer, inputs, prefix_length)
        layer_forwards.append(inputs)
        multiply_adds += inputs.multiply_adds
    decoded_states = np.ascontiguousarray(layer_forwards[-1].runs[-1].states[-(horizon + 1) :].swapaxes(0, 1))
    decoded = decoded_states @ model.decoder_w + model.decoder_b
    return ModelForward(
        ids=ids,
        decoded=decoded,
        decoded_states=decoded_states,
        layer_forwards=layer_forwards,
        multiply_adds=multiply_adds,
    )


def _logsumexp(logits: np.ndarray) -> np.ndarray:
    peak = logits.max(axis=-1, keepdims=True)
    return peak[..., 0] + np.log(np.exp(logits - peak).sum(axis=-1))


def score_batch(
    y: np.ndarray,
    labels: np.ndarray,
    output_table: np.ndarray,
    negatives: Optional[np.ndarray] = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Total log-softmax score over a (B, J) batch of labeled positions.

    Returns (score, grad_y, grad_output_table), the gradients being those of
    the NEGATIVE score. `negatives` is (B, J, N) with ids excluding the
    paired label; None means full-vocabulary softmax.
    """
    vocab = output_table.shape[0]
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= vocab:
        raise DomainError(f"labels must lie in [0, {vocab})")
    b, j = labels.shape
    if negatives is None:
        logits = y @ output_table.T
        lse = _logsumexp(logits)
        picked = np.take_along_axis(logits, labels[..., None], axis=-1)[..., 0]
        score = float(picked.sum() - lse.sum())
        softmax = np.exp(logits - lse[..., None])
        dlogits = softmax
        np.put_along_axis(
            dlogits, labels[..., None],
            np.take_along_axis(dlogits, labels[..., None], axis=-1) - 1.0, axis=-1,
        )
        grad_y = dlogits @ output_table
        flat = dlogits.reshape(b * j, vocab)
        grad_table = flat.T @ y.reshape(b * j, -1)
        return score, grad_y, grad_table
    negatives = np.asarray(negatives)
    if negatives.min() < 0 or negatives.max() >= vocab:
        raise DomainError(f"negative ids must lie in [0, {vocab})")
    candidates = np.concatenate([labels[..., None], negatives], axis=-1)
    cand_vectors = output_table[candidates]
    logits = np.einsum("bjd,bjkd->bjk", y, cand_vectors)
    lse = _logsumexp(logits)
    score = float(logits[..., 0].sum() - lse.sum())
    dlogits = np.exp(logits - lse[..., None])
    dlogits[..., 0] -= 1.0
    grad_y = np.einsum("bjk,bjkd->bjd", dlogits, cand_vectors)
    contributions = dlogits[..., None] * y[..., None, :]
    grad_table = rows_by_id(candidates.reshape(-1), contributions.reshape(-1, y.shape[-1]), vocab)
    return score, grad_y, grad_table


def rows_by_id(ids: np.ndarray, rows: np.ndarray, vocab: int) -> np.ndarray:
    """(vocab, d) sums of the (N, d) `rows` grouped by their `ids`, in the
    rows' dtype.

    One `np.bincount` per column adds each id's rows in row order in
    float64, so the result equals a row-by-row scatter-add into float64
    zeros bit for bit, rounded once to the rows' dtype.
    """
    out = np.empty((vocab, rows.shape[1]), dtype=rows.dtype)
    for j in range(rows.shape[1]):
        out[:, j] = np.bincount(ids, weights=rows[:, j], minlength=vocab)
    return out


def save_checkpoint(model: ModelParams, path: str) -> None:
    """Write a versioned JSON checkpoint: the layer schedules, the tensors'
    dtype and every named tensor."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "dtype": model.dtype.name,
        "horizon": model.horizon,
        "schedules": [[list(segment) for segment in layer.schedule.segments] for layer in model.layers],
        "tensors": {
            name: {"shape": list(tensor.shape), "data": tensor.ravel().tolist()}
            for name, tensor in model.named_tensors()
        },
    }
    atomic_write_text(path, json.dumps(payload))


def load_checkpoint(path: str) -> ModelParams:
    """Read a `save_checkpoint` file; every defect raises `CheckpointError`.

    Every tensor's data length is checked against its declared shape, and
    the declared shapes against the schedules (`check_shapes`), before
    anything is allocated. The zero model is then built in the file's
    `dtype` (float64 when the field is absent) and each tensor copied in,
    its values cast to that dtype and then checked finite, so a value
    beyond the dtype's range is refused, not read as infinite.
    """
    with open(path, encoding="utf-8") as stream:
        try:
            payload = json.load(stream)
        except (ValueError, RecursionError) as exc:
            raise CheckpointError(f"invalid checkpoint JSON: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"not an {CHECKPOINT_FORMAT} file")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {payload.get('version')!r}")
    entries, schedules, horizon = (payload.get(key) for key in ("tensors", "schedules", "horizon"))
    if not (isinstance(entries, dict) and isinstance(schedules, list) and type(horizon) is int):
        raise CheckpointError("checkpoint needs 'tensors', a 'schedules' list and an integer 'horizon'")
    dtype = payload.get("dtype", "float64")
    if dtype not in MODEL_DTYPES:
        raise CheckpointError(f"unsupported tensor dtype {dtype!r}; expected one of {MODEL_DTYPES}")
    shapes = {}
    for name, entry in entries.items():
        shape = entry.get("shape") if isinstance(entry, dict) else None
        if not (
            isinstance(shape, list)
            and all(type(n) is int and n >= 0 for n in shape)
            and isinstance(entry.get("data"), list)
            and len(entry["data"]) == math.prod(shape)
        ):
            raise CheckpointError(f"tensor {name!r} needs a list of sizes and as many values")
        shapes[name] = tuple(shape)
    try:
        schedules = [schedule_from_pairs(pairs) for pairs in schedules]
        check_shapes(schedules, shapes)
        model = zero_model(schedules, *shapes["input_table"], *shapes["decoder_b"], horizon, dtype)
    except LongmemError as exc:
        raise CheckpointError(f"checkpoint describes no valid model: {exc}") from None
    for name, tensor in model.named_tensors():
        data = entries[name]["data"]
        values = None
        if all(type(v) in (int, float) for v in data):
            try:  # NaN, infinities and values beyond the dtype's range all read as non-finite
                with np.errstate(over="ignore"):
                    values = np.array(data, dtype=dtype)
            except OverflowError:  # an integer beyond even float64's range
                pass
        if values is None or not np.isfinite(values).all():
            raise CheckpointError(f"tensor {name!r} must hold finite numbers")
        tensor[...] = values.reshape(tensor.shape)
    return model
