"""GRU cell: parameters, the run kernels, and the per-step oracles.

Gates consume the concatenation u = [x; h] of the input and the carried
state. The candidate consumes [x; r*h] (reset applied to the state half
only). All math is in float64 so finite-difference checks are meaningful.

`gru_forward_run` and `gru_backward_run` unroll and reverse the cell over a
run of steps in preallocated (T, B, .) buffers. `gru_forward_batch` and
`gru_backward_batch` are one step each, kept as the oracles they are tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatchError


#: Field names of a cell's tensors, in the order of `tensors()` and of gradient lists.
TENSOR_NAMES = ("w_update", "b_update", "w_reset", "b_reset", "w_candidate", "b_candidate")


@dataclass
class GruCellParams:
    """Gate matrices of shape (m+n, n) and bias vectors of shape (n,).

    The `ModelParams` holding the cell checks these shapes (`model_shapes`).
    """

    w_update: np.ndarray
    b_update: np.ndarray
    w_reset: np.ndarray
    b_reset: np.ndarray
    w_candidate: np.ndarray
    b_candidate: np.ndarray

    @property
    def input_dim(self) -> int:
        return len(self.w_update) - self.hidden_dim

    @property
    def hidden_dim(self) -> int:
        return self.w_update.shape[1]

    def tensors(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in TENSOR_NAMES]


def zero_cell_grads(cell: GruCellParams) -> list[np.ndarray]:
    return [np.zeros_like(t) for t in cell.tensors()]


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # sigma(x) = (1 + tanh(x/2)) / 2: tanh is bounded by 1, so no step can overflow
    return np.add(0.5, 0.5 * np.tanh(0.5 * x), out=out)


def gru_forward_batch(
    cell: GruCellParams, x: np.ndarray, h: np.ndarray
) -> tuple[np.ndarray, tuple]:
    """One GRU step on a (B, m) input and (B, n) state; returns state + cache."""
    if x.ndim != 2 or x.shape[1] != cell.input_dim:
        raise DimensionMismatchError(
            f"input must be (B, {cell.input_dim}), got {x.shape}"
        )
    if h.ndim != 2 or h.shape[1] != cell.hidden_dim:
        raise DimensionMismatchError(
            f"state must be (B, {cell.hidden_dim}), got {h.shape}"
        )
    u = np.concatenate([x, h], axis=1)
    z = _sigmoid(u @ cell.w_update + cell.b_update)
    r = _sigmoid(u @ cell.w_reset + cell.b_reset)
    v = np.concatenate([x, r * h], axis=1)
    c = np.tanh(v @ cell.w_candidate + cell.b_candidate)
    h_new = (1.0 - z) * h + z * c
    return h_new, (h, u, z, r, v, c)


def gru_backward_batch(
    cell: GruCellParams,
    cache: tuple,
    grad_h_new: np.ndarray,
    grads: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Reverse one GRU step; accumulates into `grads` (same order as tensors()).

    Returns (grad_x, grad_h) for the step's input and incoming state.
    """
    h, u, z, r, v, c = cache
    m = cell.input_dim
    g = grad_h_new
    dz = g * (c - h)
    dc = g * z
    dh = g * (1.0 - z)
    d_pre_c = dc * (1.0 - c * c)
    grads[4] += v.T @ d_pre_c
    grads[5] += d_pre_c.sum(axis=0)
    dv = d_pre_c @ cell.w_candidate.T
    dx = dv[:, :m].copy()
    d_rh = dv[:, m:]
    dr = d_rh * h
    dh += d_rh * r
    d_pre_r = dr * r * (1.0 - r)
    d_pre_z = dz * z * (1.0 - z)
    grads[2] += u.T @ d_pre_r
    grads[3] += d_pre_r.sum(axis=0)
    grads[0] += u.T @ d_pre_z
    grads[1] += d_pre_z.sum(axis=0)
    du = d_pre_r @ cell.w_reset.T + d_pre_z @ cell.w_update.T
    dx += du[:, :m]
    dh += du[:, m:]
    return dx, dh


def gru_forward_run(
    cell: GruCellParams, x: np.ndarray, states: np.ndarray, gates: np.ndarray
) -> None:
    """Unroll the cell over a (T, B, m) input block, writing into run buffers.

    `states` is (T+1, B, n) with the entering state in row 0; step t writes
    its new state to row t+1 and its update, reset and candidate gates to
    `gates[0, t]`, `gates[1, t]` and `gates[2, t]` of the (3, T, B, n) buffer.
    Each step is `gru_forward_batch`'s arithmetic, so the states equal a
    chain of it bit for bit.
    """
    for t, x_t in enumerate(x):
        h = states[t]
        u = np.concatenate([x_t, h], axis=1)
        z = _sigmoid(u @ cell.w_update + cell.b_update, out=gates[0, t])
        r = _sigmoid(u @ cell.w_reset + cell.b_reset, out=gates[1, t])
        v = np.concatenate([x_t, r * h], axis=1)
        c = np.tanh(v @ cell.w_candidate + cell.b_candidate, out=gates[2, t])
        np.add((1.0 - z) * h, z * c, out=states[t + 1])


def gru_backward_run(
    cell: GruCellParams,
    x: np.ndarray,
    states: np.ndarray,
    gates: np.ndarray,
    grad_outputs: list,
    dh: np.ndarray,
    grads: list[np.ndarray],
    grad_x: np.ndarray,
) -> np.ndarray:
    """Reverse `gru_forward_run`, given the gradient `dh` of its last state.

    `grad_outputs[t]` (None when no loss term touches it) joins the gradient
    of step t's state. Only that gradient is recurrent: the loop computes
    each step's gate pre-activation gradients and writes them over the gate
    buffers once it has read them (update -> d_pre_z, reset -> r*h,
    candidate -> d_pre_c; d_pre_r goes to one scratch block). Each weight
    gradient, bias sum and the (T, B, m) input gradient `grad_x` is then
    one GEMM or sum over the run's stacked rows; `grad_x` must be
    C-contiguous. Accumulates into `grads` (order of tensors()) and returns
    the gradient of the entering state.
    """
    m = cell.input_dim
    w_update, w_reset, w_candidate = cell.w_update, cell.w_reset, cell.w_candidate
    update, reset, candidate = gates
    d_pre_reset = np.empty_like(reset)
    for t in range(len(x) - 1, -1, -1):
        if grad_outputs[t] is not None:
            dh = dh + grad_outputs[t]
        h, z, r, c = states[t], update[t], reset[t], candidate[t]
        d_pre_c = dh * z * (1.0 - c * c)
        d_pre_z = dh * (c - h) * z * (1.0 - z)
        d_rh = d_pre_c @ w_candidate[m:].T
        d_pre_reset[t] = d_pre_r = d_rh * h * r * (1.0 - r)
        dh = dh * (1.0 - z) + d_rh * r + d_pre_r @ w_reset[m:].T + d_pre_z @ w_update[m:].T
        reset[t] = r * h
        update[t] = d_pre_z
        candidate[t] = d_pre_c

    def rows(block: np.ndarray) -> np.ndarray:
        return block.reshape(-1, block.shape[-1])

    x_rows, h_rows = rows(x), rows(states[:-1])
    pairs = ((update, h_rows), (d_pre_reset, h_rows), (candidate, rows(reset)))
    for k, (d_pre, state_rows) in enumerate(pairs):
        d_pre = rows(d_pre)
        grads[2 * k][:m] += x_rows.T @ d_pre
        grads[2 * k][m:] += state_rows.T @ d_pre
        grads[2 * k + 1] += d_pre.sum(axis=0)
    dx = rows(grad_x)
    np.matmul(rows(update), w_update[:m].T, out=dx)
    dx += rows(d_pre_reset) @ w_reset[:m].T
    dx += rows(candidate) @ w_candidate[:m].T
    return dh
