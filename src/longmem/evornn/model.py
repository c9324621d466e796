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
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from ..errors import CheckpointError, DimensionMismatchError, DomainError, ScheduleError
from ..fileio import atomic_write_text
from ..schedule import CellSchedule
from .cell import TENSOR_NAMES, GruCellParams
from .layer import EvoRnnLayer, LayerForward, evo_forward_batch, init_layer

CHECKPOINT_FORMAT = "evornn-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass
class ModelParams:
    """Parameters of the full symbol-prediction model.

    The embedding tables are raw (V, dim) matrices: rows are updated in
    place during training.
    """

    input_table: np.ndarray
    layers: list[EvoRnnLayer]
    decoder_w: np.ndarray
    decoder_b: np.ndarray
    output_table: np.ndarray
    horizon: int

    def __post_init__(self):
        if not self.layers:
            raise ScheduleError("model needs at least one layer")
        if self.horizon < 0:
            raise DomainError(f"horizon must be >= 0, got {self.horizon}")
        boundaries = self.layers[0].schedule.segments
        for layer in self.layers[1:]:
            if tuple(length for length, _ in layer.schedule.segments) != tuple(
                length for length, _ in boundaries
            ):
                raise ScheduleError("all layers must share identical segment boundaries")
        self.input_table = np.asarray(self.input_table, dtype=np.float64)
        self.output_table = np.asarray(self.output_table, dtype=np.float64)
        self.decoder_w = np.asarray(self.decoder_w, dtype=np.float64)
        self.decoder_b = np.asarray(self.decoder_b, dtype=np.float64)
        top_hidden = self.layers[-1].schedule.segments[-1][1]
        if self.decoder_w.shape != (top_hidden, self.decoder_b.size):
            raise DimensionMismatchError(
                f"decoder weight must map the top hidden size {top_hidden} to the "
                f"decoder output size {self.decoder_b.size}, got {self.decoder_w.shape}"
            )
        if self.output_table.shape[1] != self.decoder_b.size:
            raise DimensionMismatchError(
                f"output table dim {self.output_table.shape[1]} must equal decoder "
                f"output size {self.decoder_b.size}"
            )

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
            for b, matrix in enumerate(layer.projections):
                if matrix is not None:
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
) -> ModelParams:
    """Fresh model with one GRU per (layer, segment) and tied boundaries."""
    if vocab_size < 1 or emb_dim < 1 or decoder_dim < 1 or num_layers < 1:
        raise DomainError("vocab, dims, and layer count must be positive")
    rng = np.random.default_rng(seed)
    layers = []
    lower_dims: list[int] | int = emb_dim
    for _ in range(num_layers):
        layer = init_layer(schedule, lower_dims, rng)
        layers.append(layer)
        lower_dims = list(schedule.hidden_sizes)
    top_hidden = schedule.segments[-1][1]
    return ModelParams(
        input_table=rng.uniform(-1, 1, (vocab_size, emb_dim)) / np.sqrt(emb_dim),
        layers=layers,
        decoder_w=rng.uniform(-1, 1, (top_hidden, decoder_dim)) / np.sqrt(top_hidden),
        decoder_b=np.zeros(decoder_dim),
        output_table=rng.uniform(-1, 1, (vocab_size, decoder_dim)) / np.sqrt(decoder_dim),
        horizon=horizon,
    )


@dataclass
class ModelForward:
    """Forward artifacts kept for the backward pass."""

    ids: np.ndarray
    prefix_length: int
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
    L-1 .. L+H-1 of the top layer.
    """
    ids = _check_ids(ids, model.vocab_size)
    horizon = model.horizon
    total_steps = ids.shape[1]
    prefix_length = total_steps - horizon
    if prefix_length < 1:
        raise DimensionMismatchError(
            f"sequence of {total_steps} steps too short for horizon {horizon}"
        )
    inputs = list(model.input_table[ids.T])
    layer_forwards: list[LayerForward] = []
    multiply_adds = 0
    for layer in model.layers:
        result = evo_forward_batch(layer, inputs, prefix_length)
        layer_forwards.append(result)
        multiply_adds += result.multiply_adds
        inputs = result.outputs
    top_outputs = layer_forwards[-1].outputs
    decoded_states = np.stack(
        [top_outputs[t] for t in range(prefix_length - 1, total_steps)], axis=1
    )
    decoded = decoded_states @ model.decoder_w + model.decoder_b
    return ModelForward(
        ids=ids,
        prefix_length=prefix_length,
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
    grad_table = np.zeros_like(output_table)
    contributions = dlogits[..., None] * y[..., None, :]
    np.add.at(grad_table, candidates.reshape(-1), contributions.reshape(-1, y.shape[-1]))
    return score, grad_y, grad_table


def _tensor_to_json(array: np.ndarray) -> dict:
    return {"shape": list(array.shape), "data": [float(v) for v in array.ravel()]}


def _tensor_from_json(obj: dict) -> np.ndarray:
    try:
        shape = tuple(obj["shape"])
        data = np.array(obj["data"], dtype=np.float64)
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"malformed tensor entry: {exc}") from None
    if data.size != int(np.prod(shape)):
        raise CheckpointError(
            f"tensor data length {data.size} does not match shape {shape}"
        )
    return data.reshape(shape)


def save_checkpoint(model: ModelParams, path: str) -> None:
    """Write a versioned JSON checkpoint with explicit shape headers."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "horizon": model.horizon,
        "input_table": _tensor_to_json(model.input_table),
        "decoder": {
            "weight": _tensor_to_json(model.decoder_w),
            "bias": _tensor_to_json(model.decoder_b),
        },
        "output_table": _tensor_to_json(model.output_table),
        "layers": [
            {
                "schedule": [[length, hidden] for length, hidden in layer.schedule.segments],
                "cells": [
                    {
                        "input_dim": cell.input_dim,
                        "hidden_dim": cell.hidden_dim,
                        **{
                            name: _tensor_to_json(tensor)
                            for name, tensor in zip(TENSOR_NAMES, cell.tensors())
                        },
                    }
                    for cell in layer.cells
                ],
                "projections": [
                    None if m is None else _tensor_to_json(m) for m in layer.projections
                ],
                "init_state": _tensor_to_json(layer.init_state),
            }
            for layer in model.layers
        ],
    }
    atomic_write_text(path, json.dumps(payload))


def load_checkpoint(path: str) -> ModelParams:
    with open(path, encoding="utf-8") as stream:
        try:
            payload = json.load(stream)
        except (ValueError, RecursionError) as exc:
            raise CheckpointError(f"invalid checkpoint JSON: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"not an {CHECKPOINT_FORMAT} file")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {payload.get('version')!r}"
        )
    try:
        return _model_from_payload(payload)
    except KeyError as exc:
        raise CheckpointError(f"checkpoint is missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError, IndexError, OverflowError) as exc:
        raise CheckpointError(f"checkpoint has a malformed field: {exc}") from None


def _model_from_payload(payload: dict) -> ModelParams:
    layers = []
    for entry in payload["layers"]:
        cells = [
            GruCellParams(
                int(c["input_dim"]),
                int(c["hidden_dim"]),
                *(_tensor_from_json(c[name]) for name in TENSOR_NAMES),
            )
            for c in entry["cells"]
        ]
        layers.append(
            EvoRnnLayer(
                schedule=CellSchedule(entry["schedule"]),
                cells=cells,
                projections=[
                    None if m is None else _tensor_from_json(m) for m in entry["projections"]
                ],
                init_state=_tensor_from_json(entry["init_state"]),
            )
        )
    return ModelParams(
        input_table=_tensor_from_json(payload["input_table"]),
        layers=layers,
        decoder_w=_tensor_from_json(payload["decoder"]["weight"]),
        decoder_b=_tensor_from_json(payload["decoder"]["bias"]),
        output_table=_tensor_from_json(payload["output_table"]),
        horizon=int(payload["horizon"]),
    )
