"""A recurrent layer whose cell size follows a schedule keyed from the end.

Each schedule segment owns one GRU cell. At a boundary where the hidden
size changes, the carried state is mapped through the boundary's projection
matrix before the new segment's cell consumes it; boundaries with equal
sizes carry the state through unchanged. Hidden-to-hidden multiplies are
counted at 3*n^2 per step (three gates) for cost instrumentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..errors import DimensionMismatchError, DomainError, ScheduleError
from ..schedule import CellSchedule, lookup_cell
from .cell import GruCellParams, gru_backward_batch, gru_forward_batch, init_cell, zero_cell_grads


@dataclass
class ProjectionSet:
    """One matrix per segment boundary where the hidden size changes.

    Entry b reconciles segment b to segment b+1: shape (n_{b+1}, n_b).
    None marks an identity boundary (equal sizes).
    """

    matrices: list[Optional[np.ndarray]]


@dataclass
class EvoRnnLayer:
    schedule: CellSchedule
    cells: list[GruCellParams]
    projections: ProjectionSet
    init_state: np.ndarray

    def __post_init__(self):
        segments = self.schedule.segments
        if len(self.cells) != len(segments):
            raise ScheduleError(
                f"need one cell per segment: {len(self.cells)} cells for "
                f"{len(segments)} segments"
            )
        for cell, (_, hidden) in zip(self.cells, segments):
            if cell.hidden_dim != hidden:
                raise DimensionMismatchError(
                    f"cell hidden dim {cell.hidden_dim} does not match segment size {hidden}"
                )
        if len(self.projections.matrices) != len(segments) - 1:
            raise ScheduleError(
                f"need one projection slot per boundary: "
                f"{len(self.projections.matrices)} for {len(segments) - 1} boundaries"
            )
        for b, matrix in enumerate(self.projections.matrices):
            n_old, n_new = segments[b][1], segments[b + 1][1]
            if n_old == n_new:
                if matrix is not None:
                    raise ScheduleError(
                        f"boundary {b} has equal sizes; projection must be the identity marker"
                    )
            else:
                if matrix is None:
                    raise ScheduleError(
                        f"boundary {b} changes size {n_old} -> {n_new}; projection required"
                    )
                matrix = np.asarray(matrix, dtype=np.float64)
                if matrix.shape != (n_new, n_old):
                    raise DimensionMismatchError(
                        f"boundary {b} projection must have shape ({n_new}, {n_old}), "
                        f"got {matrix.shape}"
                    )
                self.projections.matrices[b] = matrix
        init = np.asarray(self.init_state, dtype=np.float64)
        if init.shape != (segments[0][1],):
            raise DimensionMismatchError(
                f"init state must have the earliest segment's dim ({segments[0][1]},), "
                f"got {init.shape}"
            )
        self.init_state = init

    def input_dim(self, segment: int) -> int:
        return self.cells[segment].input_dim


def identity_like(n_new: int, n_old: int) -> np.ndarray:
    """Projection that copies overlapping coordinates and zeros the rest."""
    matrix = np.zeros((n_new, n_old))
    k = min(n_new, n_old)
    matrix[:k, :k] = np.eye(k)
    return matrix


def init_layer(
    schedule: CellSchedule,
    input_dims: int | Sequence[int],
    rng: np.random.Generator,
) -> EvoRnnLayer:
    """Build a layer with fresh cells and identity-like boundary projections.

    `input_dims` is one integer (same input width at every segment) or one
    per segment (stacked layers feed segment-dependent widths).
    """
    segments = schedule.segments
    if isinstance(input_dims, int):
        dims = [input_dims] * len(segments)
    else:
        dims = list(input_dims)
        if len(dims) != len(segments):
            raise ScheduleError(
                f"need one input dim per segment: {len(dims)} for {len(segments)}"
            )
    cells = [init_cell(m, n, rng) for m, (_, n) in zip(dims, segments)]
    matrices: list[Optional[np.ndarray]] = []
    for b in range(len(segments) - 1):
        n_old, n_new = segments[b][1], segments[b + 1][1]
        matrices.append(None if n_old == n_new else identity_like(n_new, n_old))
    return EvoRnnLayer(
        schedule=schedule,
        cells=cells,
        projections=ProjectionSet(matrices),
        init_state=np.zeros(segments[0][1]),
    )


def segment_of_step(t: int, length: int, schedule: CellSchedule) -> int:
    """Segment active at step t; steps at or beyond `length` stay in the
    last segment (distance to the end clamps at zero during unfolding)."""
    return lookup_cell(min(t, length - 1), length, schedule)[0]


@dataclass
class LayerForward:
    """Everything the backward pass needs from one layer's unroll."""

    outputs: list[np.ndarray]
    final_state: np.ndarray
    step_caches: list[tuple]
    initial_projections: list[tuple[int, np.ndarray]]
    multiply_adds: int


def _project(layer: EvoRnnLayer, boundary: int, h: np.ndarray) -> np.ndarray:
    matrix = layer.projections.matrices[boundary]
    return h if matrix is None else h @ matrix.T


def evo_forward_batch(layer: EvoRnnLayer, inputs: list[np.ndarray], length: int) -> LayerForward:
    """Unroll the layer over a batch.

    `inputs[t]` is the (B, m_t) input at step t; steps past `length - 1`
    are unfold steps handled by the last segment. The carried state crosses
    each boundary through its projection. When the sequence is shorter than
    the schedule's span, the initial state is first chained through the
    boundaries leading to the starting segment.
    """
    if not inputs:
        raise DomainError("need at least one input step")
    total_steps = len(inputs)
    if total_steps < length:
        raise DimensionMismatchError(
            f"got {total_steps} input steps for sequence length {length}"
        )
    batch = inputs[0].shape[0]
    h = np.broadcast_to(layer.init_state, (batch, layer.init_state.size)).copy()
    start_segment = segment_of_step(0, length, layer.schedule)
    initial_projections: list[tuple[int, np.ndarray]] = []
    for boundary in range(start_segment):
        initial_projections.append((boundary, h))
        h = _project(layer, boundary, h)
    outputs: list[np.ndarray] = []
    step_caches: list[tuple] = []
    multiply_adds = 0
    previous_segment = start_segment
    for t in range(total_steps):
        segment = segment_of_step(t, length, layer.schedule)
        crossed: list[tuple[int, np.ndarray]] = []
        for boundary in range(previous_segment, segment):
            crossed.append((boundary, h))
            h = _project(layer, boundary, h)
        cell = layer.cells[segment]
        h, cache = gru_forward_batch(cell, inputs[t], h)
        outputs.append(h)
        step_caches.append((segment, crossed, cache))
        multiply_adds += 3 * cell.hidden_dim * cell.hidden_dim
        previous_segment = segment
    return LayerForward(
        outputs=outputs,
        final_state=h,
        step_caches=step_caches,
        initial_projections=initial_projections,
        multiply_adds=multiply_adds,
    )


@dataclass
class LayerGrads:
    cells: list[list[np.ndarray]]
    projections: list[Optional[np.ndarray]]
    init_state: np.ndarray


def zero_layer_grads(layer: EvoRnnLayer) -> LayerGrads:
    return LayerGrads(
        cells=[zero_cell_grads(cell) for cell in layer.cells],
        projections=[
            None if m is None else np.zeros_like(m) for m in layer.projections.matrices
        ],
        init_state=np.zeros_like(layer.init_state),
    )


def _project_backward(
    layer: EvoRnnLayer,
    grads: LayerGrads,
    boundary: int,
    h_before: np.ndarray,
    grad_after: np.ndarray,
) -> np.ndarray:
    matrix = layer.projections.matrices[boundary]
    if matrix is None:
        return grad_after
    grads.projections[boundary] += grad_after.T @ h_before
    return grad_after @ matrix


def evo_backward_batch(
    layer: EvoRnnLayer,
    forward: LayerForward,
    grad_outputs: list[Optional[np.ndarray]],
    grads: LayerGrads,
) -> list[np.ndarray]:
    """Reverse the unroll; accumulates parameter grads, returns per-step
    input gradients. `grad_outputs[t]` may be None when no loss term touches
    the step's output."""
    total_steps = len(forward.step_caches)
    grad_inputs: list[np.ndarray] = [None] * total_steps  # type: ignore[list-item]
    dh = np.zeros_like(forward.final_state)
    for t in range(total_steps - 1, -1, -1):
        g = grad_outputs[t]
        if g is not None:
            dh = dh + g
        segment, crossed, cache = forward.step_caches[t]
        dx, dh = gru_backward_batch(layer.cells[segment], cache, dh, grads.cells[segment])
        grad_inputs[t] = dx
        for boundary, h_before in reversed(crossed):
            dh = _project_backward(layer, grads, boundary, h_before, dh)
    for boundary, h_before in reversed(forward.initial_projections):
        dh = _project_backward(layer, grads, boundary, h_before, dh)
    grads.init_state += dh.sum(axis=0)
    return grad_inputs

