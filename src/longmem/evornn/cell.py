"""GRU cell: parameters, forward step, and hand-derived backward pass.

Gates consume the concatenation u = [x; h] of the input and the carried
state. The candidate consumes [x; r*h] (reset applied to the state half
only). All math is in float64 so finite-difference checks are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatchError, DomainError


#: Field names of a cell's tensors, in the order of `tensors()` and of gradient lists.
TENSOR_NAMES = ("w_update", "b_update", "w_reset", "b_reset", "w_candidate", "b_candidate")


@dataclass
class GruCellParams:
    """Gate matrices of shape (m+n, n) and bias vectors of shape (n,)."""

    input_dim: int
    hidden_dim: int
    w_update: np.ndarray
    b_update: np.ndarray
    w_reset: np.ndarray
    b_reset: np.ndarray
    w_candidate: np.ndarray
    b_candidate: np.ndarray

    def __post_init__(self):
        m, n = self.input_dim, self.hidden_dim
        if m < 1 or n < 1:
            raise DomainError(f"cell dims must be positive, got m={m}, n={n}")
        for name in TENSOR_NAMES:
            tensor = np.asarray(getattr(self, name), dtype=np.float64)
            shape = (m + n, n) if name.startswith("w_") else (n,)
            if tensor.shape != shape:
                raise DimensionMismatchError(
                    f"{name} must have shape {shape}, got {tensor.shape}"
                )
            if not np.all(np.isfinite(tensor)):
                raise DomainError(f"{name} has non-finite entries")
            setattr(self, name, tensor)

    def tensors(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in TENSOR_NAMES]


def init_cell(input_dim: int, hidden_dim: int, rng: np.random.Generator) -> GruCellParams:
    """Uniform init in [-1/sqrt(m+n), 1/sqrt(m+n)] for matrices, zero biases."""
    scale = 1.0 / np.sqrt(input_dim + hidden_dim)
    shape = (input_dim + hidden_dim, hidden_dim)
    return GruCellParams(
        input_dim=input_dim,
        hidden_dim=hidden_dim,
        w_update=rng.uniform(-scale, scale, shape),
        b_update=np.zeros(hidden_dim),
        w_reset=rng.uniform(-scale, scale, shape),
        b_reset=np.zeros(hidden_dim),
        w_candidate=rng.uniform(-scale, scale, shape),
        b_candidate=np.zeros(hidden_dim),
    )


def zero_cell_grads(cell: GruCellParams) -> list[np.ndarray]:
    return [np.zeros_like(t) for t in cell.tensors()]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # sigma(x) = (1 + tanh(x/2)) / 2: tanh is bounded by 1, so no step can overflow
    return 0.5 + 0.5 * np.tanh(0.5 * x)


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

