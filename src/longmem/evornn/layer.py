"""A recurrent layer whose cell size follows a schedule keyed from the end.

Each schedule segment owns one GRU cell. At a boundary where the hidden
size changes, the carried state is mapped through the boundary's projection
matrix before the new segment's cell consumes it; boundaries with equal
sizes carry the state through unchanged. Hidden-to-hidden multiplies are
counted at 3*n^2 per step (three gates) for cost instrumentation.

The unroll walks segment runs (consecutive steps of one cell). Each run
writes its states and gates into (T_run, B, n) buffers, and a layer above
reads a run's states as its own input block, without a copy. The reverse
computes a run's gate factors once, over its whole buffers, and loops over
its steps only for the recurrent state gradient; the run's weight
gradients, bias sums and input gradients are one GEMM or sum each over its
stacked rows. The reverse spends a run's gate buffers and drops them, so a
forward is reversed once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import DimensionMismatchError, DomainError
from ..schedule import CellSchedule, lookup_cell
from .cell import GruCellParams, gru_backward_run, gru_forward_run


@dataclass
class EvoRnnLayer:
    """One GRU cell per schedule segment and a projection per resizing boundary.

    `projections[b]` maps segment b's state into segment b+1: shape
    (n_{b+1}, n_b). Boundaries between equal sizes carry the state through
    and have no entry. The `ModelParams` holding the layer checks these
    shapes (`model_shapes`).
    """

    schedule: CellSchedule
    cells: list[GruCellParams]
    projections: dict[int, np.ndarray]
    init_state: np.ndarray


def segment_of_step(t: int, length: int, schedule: CellSchedule) -> int:
    """Segment active at step t; steps at or beyond `length` stay in the
    last segment (distance to the end clamps at zero during unfolding).

    The per-step oracle for `segment_runs`."""
    return lookup_cell(min(t, length - 1), length, schedule)[0]


def segment_runs(
    length: int, total_steps: int, schedule: CellSchedule
) -> list[tuple[int, int, int]]:
    """(segment, start, stop) for each run of consecutive steps in
    [0, total_steps) that share a segment, earliest first.

    Segments are laid out back from step `length`; the earliest one is
    open-ended and steps at or beyond `length` unfold in the last one.
    Segments that no step reaches have no run.
    """
    segments = schedule.segments
    runs = []
    stop, edge = total_steps, length
    for segment in range(len(segments) - 1, -1, -1):
        edge = max(edge - segments[segment][0], 0) if segment else 0
        if edge < stop:
            runs.append((segment, edge, stop))
        stop = edge
    runs.reverse()
    return runs


@dataclass
class SegmentRun:
    """Steps [start, stop) of one segment's cell and the buffers its reverse reads.

    `crossings` holds (boundary, state before it) for each boundary the
    carried state crossed on entry; the first run's crossings chain the
    initial state to the starting segment. `inputs` is the run's
    (T_run, B, m) input block, a view of the layer's input. `states` is
    (T_run+1, B, n): the entering state, then each step's output. `gates`
    is (3, T_run, B, n): each step's update, reset and candidate gates,
    which the backward pass overwrites and then drops (None).
    """

    segment: int
    start: int
    stop: int
    crossings: list[tuple[int, np.ndarray]]
    inputs: np.ndarray
    states: np.ndarray
    gates: Optional[np.ndarray]


@dataclass
class LayerForward:
    """Everything the backward pass needs from one layer's unroll.

    `outputs[t]` is step t's (B, n_t) output, a view of its run's `states`.
    """

    outputs: list[np.ndarray]
    runs: list[SegmentRun]
    multiply_adds: int


def evo_forward_batch(
    layer: EvoRnnLayer, inputs: np.ndarray | LayerForward, length: int
) -> LayerForward:
    """Unroll the layer over a batch, one segment run at a time.

    `inputs` is the (T, B, m) input of a bottom layer (a list of per-step
    (B, m) arrays is stacked into one), or the `LayerForward` of the layer
    below, whose run outputs are read in place as this layer's input blocks;
    both layers must then have the same runs. Steps past `length - 1` are
    unfold steps handled by the last segment. The carried state crosses
    each boundary through its projection; when the sequence is shorter than
    the schedule's span, the initial state crosses every boundary before
    the starting segment.
    """
    if isinstance(inputs, LayerForward):
        below, steps = inputs, inputs.outputs
    else:
        below, steps = None, np.asarray(inputs, dtype=np.float64)
    total_steps = len(steps)
    if total_steps < 1 or length < 1:
        raise DomainError(f"need at least one input step and length >= 1, got length {length}")
    if total_steps < length:
        raise DimensionMismatchError(
            f"got {total_steps} input steps for sequence length {length}"
        )
    spans = segment_runs(length, total_steps, layer.schedule)
    if below is not None and [(r.start, r.stop) for r in below.runs] != [
        (start, stop) for _, start, stop in spans
    ]:
        raise DimensionMismatchError("stacked layers must share their segment runs")
    batch = steps[0].shape[0]
    h = np.broadcast_to(layer.init_state, (batch, layer.init_state.size)).copy()
    outputs: list[np.ndarray] = []
    runs: list[SegmentRun] = []
    multiply_adds = 0
    previous_segment = 0
    for k, (segment, start, stop) in enumerate(spans):
        crossings = []
        for boundary in range(previous_segment, segment):
            crossings.append((boundary, h))
            matrix = layer.projections.get(boundary)
            if matrix is not None:
                h = h @ matrix.T
        cell = layer.cells[segment]
        x = steps[start:stop] if below is None else below.runs[k].states[1:]
        if x.ndim != 3 or x.shape[1:] != (batch, cell.input_dim):
            raise DimensionMismatchError(
                f"segment {segment} needs ({batch}, {cell.input_dim}) inputs, got {x.shape[1:]}"
            )
        states = np.empty((stop - start + 1, batch, cell.hidden_dim))
        states[0] = h
        gates = np.empty((3, stop - start, batch, cell.hidden_dim))
        gru_forward_run(cell, x, states, gates)
        outputs.extend(states[1:])
        runs.append(SegmentRun(segment, start, stop, crossings, x, states, gates))
        multiply_adds += 3 * cell.hidden_dim * cell.hidden_dim * (stop - start)
        h = states[-1]
        previous_segment = segment
    return LayerForward(outputs=outputs, runs=runs, multiply_adds=multiply_adds)


def evo_backward_batch(
    layer: EvoRnnLayer,
    forward: LayerForward,
    grad_outputs: list[Optional[np.ndarray]],
    grads: EvoRnnLayer,
    grad_inputs: Optional[np.ndarray] = None,
) -> list[np.ndarray]:
    """Reverse the unroll run by run; accumulates parameter grads into
    `grads` (a zeroed twin of `layer`) and returns per-step input gradients.

    `grad_outputs[t]` may be None when no loss term touches the step's
    output. Input gradients are written into `grad_inputs`, a C-contiguous
    (T, B, m) array, when one is given (every step must then read m
    inputs), else into a new block per run; the returned steps are views of
    them. Each run's gate buffers are spent and dropped, so a forward is
    reversed once; reversing it again raises DomainError.
    """
    if any(run.gates is None for run in forward.runs):
        raise DomainError("this forward has already been reversed; its gate buffers are spent")
    blocks = []
    dh = np.zeros_like(forward.outputs[-1])
    for run in reversed(forward.runs):
        block = (
            np.empty(run.inputs.shape) if grad_inputs is None
            else grad_inputs[run.start : run.stop]
        )
        dh = gru_backward_run(
            layer.cells[run.segment],
            run.inputs,
            run.states,
            run.gates,
            grad_outputs[run.start : run.stop],
            dh,
            grads.cells[run.segment].tensors(),
            block,
        )
        run.gates = None
        blocks.append(block)
        for boundary, h_before in reversed(run.crossings):
            matrix = layer.projections.get(boundary)
            if matrix is not None:
                grads.projections[boundary] += dh.T @ h_before
                dh = dh @ matrix
    grads.init_state += dh.sum(axis=0)
    return [step for block in reversed(blocks) for step in block]
