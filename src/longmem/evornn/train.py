"""Training: exact reverse-mode gradients, clipped SGD, toy training loop.

`compute_gradients` returns the gradient of the summed NEGATIVE score over
a batch (so duplicating an example doubles it). The training loop scales by
the number of labeled positions, clips by global norm, and applies plain
SGD updates. Loss is reported per labeled position, comparable to log V.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from ..errors import DomainError, TrainingDivergedError
from .layer import evo_backward_batch
from .model import ModelForward, ModelParams, forward_with_caches, rows_by_id, score_batch, zero_model


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.2
    clip_norm: float = 1.0
    negatives: int = 16
    steps: int = 1000
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        # written so that NaN fails each range check
        if not 0.0 <= self.learning_rate < math.inf:
            raise DomainError(f"learning rate must be finite and >= 0, got {self.learning_rate}")
        if not self.clip_norm > 0:
            raise DomainError(f"clip norm must be positive, got {self.clip_norm}")
        if self.negatives < 1:
            raise DomainError(f"negative count must be >= 1, got {self.negatives}")
        if self.steps < 0 or self.batch_size < 1:
            raise DomainError("steps must be >= 0 and batch size >= 1")


def zero_grads(model: ModelParams) -> ModelParams:
    """A zeroed twin of `model`: gradients share the parameters' structure."""
    schedules = [layer.schedule for layer in model.layers]
    return zero_model(schedules, model.vocab_size, model.emb_dim, model.decoder_dim, model.horizon)


def parameter_pairs(
    model: ModelParams, grads: ModelParams
) -> Iterator[tuple[str, np.ndarray, np.ndarray]]:
    """Yield (name, parameter, gradient) triples in `named_tensors` order."""
    walks = zip(model.named_tensors(), grads.named_tensors(), strict=True)
    for (name, param), (_, grad) in walks:
        yield name, param, grad


def batch_arrays(batch: Sequence[tuple[Sequence[int], Sequence[int]]], horizon: int):
    """Stack a batch of (ids, labels) pairs into id and label matrices.

    The model input for each example is its ids followed by all labels
    but the last (teacher forcing); every labels entry must have H+1 ids.
    """
    if not batch:
        raise DomainError("batch must be non-empty")
    for _, labels in batch:
        if len(labels) != horizon + 1:
            raise DomainError(
                f"expected {horizon + 1} labels per example, got {len(labels)}"
            )
    if len({len(row) for row, _ in batch}) > 1:
        raise DomainError("all sequences in a batch must share one length")
    ids = np.array([row for row, _ in batch], dtype=np.int64)
    labels = np.array([row for _, row in batch], dtype=np.int64)
    return np.concatenate([ids, labels[:, :-1]], axis=1), labels


def _require_drawable(count: int, vocab: int) -> None:
    """Raise DomainError unless `count` negatives fit in the vocab's V-1 non-label ids."""
    if count > vocab - 1:
        raise DomainError(f"cannot draw {count} negatives from {vocab - 1} non-label ids")


def sample_negatives(
    rng: np.random.Generator, labels: np.ndarray, vocab: int, count: int
) -> np.ndarray:
    """Uniform negatives without replacement, excluding the paired label.

    Shape (B, J, count). Draws from [0, vocab-1) and shifts ids at or above
    the label by one, which is exactly uniform over the non-label ids.
    """
    _require_drawable(count, vocab)
    b, j = labels.shape
    keys = rng.random((b, j, vocab - 1))
    # the `count` smallest keys, then sorted: argsort(keys)[..., :count]
    smallest = np.argpartition(keys, count - 1, axis=-1)[..., :count]
    rank = np.argsort(np.take_along_axis(keys, smallest, axis=-1), axis=-1)
    order = np.take_along_axis(smallest, rank, axis=-1)
    return order + (order >= labels[..., None])


def compute_gradients(
    model: ModelParams,
    batch: Sequence[tuple[Sequence[int], Sequence[int]]],
    config: TrainConfig,
    negatives: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
) -> tuple[float, ModelParams, int]:
    """Summed negative score over the batch, its exact gradients and the
    forward's instrumented multiply-adds.

    Unless `config.negatives` is V-1 (the full softmax) or negatives are
    supplied, a sample is drawn from `rng` (or a fresh generator seeded by
    the config); more than V-1 negatives raise DomainError. Only the count
    leaves this frame, so the forward's run buffers are freed before the
    caller's next step.
    """
    ids, labels = batch_arrays(batch, model.horizon)
    vocab = model.output_table.shape[0]
    if negatives is None and config.negatives != vocab - 1:
        if rng is None:
            rng = np.random.default_rng(config.seed)
        negatives = sample_negatives(rng, labels, vocab, config.negatives)
    forward = forward_with_caches(model, ids)
    neg_score, grads = gradients_from_forward(model, forward, labels, negatives)
    return neg_score, grads, forward.multiply_adds


def gradients_from_forward(
    model: ModelParams,
    forward: ModelForward,
    labels: np.ndarray,
    negatives: Optional[np.ndarray],
) -> tuple[float, ModelParams]:
    score, grad_y, grad_out_table = score_batch(
        forward.decoded, labels, model.output_table, negatives
    )
    grads = zero_grads(model)
    grads.output_table += grad_out_table
    b, j, _ = grad_y.shape
    grads.decoder_w += forward.decoded_states.reshape(b * j, -1).T @ grad_y.reshape(b * j, -1)
    grads.decoder_b += grad_y.sum(axis=(0, 1))
    total_steps = forward.ids.shape[1]
    prefix = forward.prefix_length
    grad_top: list[Optional[np.ndarray]] = [None] * total_steps
    for offset in range(j):
        grad_top[prefix - 1 + offset] = grad_y[:, offset] @ model.decoder_w.T
    grad_outputs = grad_top
    for layer_index in range(len(model.layers) - 1, 0, -1):
        grad_outputs = evo_backward_batch(
            model.layers[layer_index],
            forward.layer_forwards[layer_index],
            grad_outputs,
            grads.layers[layer_index],
        )
    # allocated once the layers above have dropped their gate buffers
    grad_embedded = np.empty((total_steps, b, model.emb_dim))
    evo_backward_batch(model.layers[0], forward.layer_forwards[0], grad_outputs, grads.layers[0], grad_embedded)
    grads.input_table += rows_by_id(
        forward.ids.T.ravel(), grad_embedded.reshape(-1, model.emb_dim), model.vocab_size
    )
    return -score, grads


def clip_global_norm(grads: ModelParams, model: ModelParams, clip_norm: float) -> float:
    """Scale all gradients so the global L2 norm is at most clip_norm."""
    total = 0.0
    for _, _, grad in parameter_pairs(model, grads):
        total += float((grad * grad).sum())
    norm = np.sqrt(total)
    if norm > clip_norm:
        scale = clip_norm / norm
        for _, _, grad in parameter_pairs(model, grads):
            grad *= scale
    return norm


def sgd_step(model: ModelParams, grads: ModelParams, learning_rate: float) -> None:
    for _, param, grad in parameter_pairs(model, grads):
        param -= learning_rate * grad


@dataclass(frozen=True)
class StepMetrics:
    step: int
    loss: float
    multiply_adds: int
    wall_ms: float
    grad_norm: float
    clipped: bool


@dataclass
class TrainResult:
    history: list[StepMetrics] = field(default_factory=list)

    @property
    def final_loss(self) -> float:
        return self.history[-1].loss if self.history else float("nan")


def train_toy(
    model: ModelParams,
    task: Iterable[tuple[Sequence[int], Sequence[int]]],
    config: TrainConfig,
) -> TrainResult:
    """Clipped-SGD training on a task stream; deterministic given seeds.

    Gradients are scaled by the number of labeled positions in the batch so
    the step size is batch-size-invariant; recorded loss is the mean
    negative log-probability per labeled position. `multiply_adds` is the
    instrumented hidden-to-hidden multiply count of one forward pass
    through one sequence; `grad_norm` is the global gradient norm before
    clipping and `clipped` whether clipping scaled it down. Aborts with the
    step index if loss leaves the finite range. More negatives than V-1
    raise DomainError before the first step, so even zero steps check them.
    """
    _require_drawable(config.negatives, model.output_table.shape[0])
    rng = np.random.default_rng(config.seed)
    stream: Iterator = iter(task)
    positions = config.batch_size * (model.horizon + 1)
    result = TrainResult()
    for step in range(config.steps):
        batch = [next(stream) for _ in range(config.batch_size)]
        started = time.perf_counter()
        neg_score, grads, multiply_adds = compute_gradients(model, batch, config, rng=rng)
        loss = neg_score / positions
        if not np.isfinite(loss):
            raise TrainingDivergedError(step)
        for _, _, grad in parameter_pairs(model, grads):
            grad /= positions
        grad_norm = clip_global_norm(grads, model, config.clip_norm)
        sgd_step(model, grads, config.learning_rate)
        # the next step's forward and reverse run without this twin alive
        del grads
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        result.history.append(
            StepMetrics(
                step=step,
                loss=loss,
                multiply_adds=multiply_adds,
                wall_ms=elapsed_ms,
                grad_norm=float(grad_norm),
                clipped=bool(grad_norm > config.clip_norm),
            )
        )
    return result
