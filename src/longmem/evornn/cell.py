"""GRU cell: parameters, the run kernels, and the per-step oracles.

Each gate's (m+n, n) matrix W is split into an input block W[:m] and a
recurrent block W[m:], and a gate's pre-activation is summed as
(x @ W[:m] + b) + h @ W[m:]. The candidate's recurrent block multiplies
r*h (reset applied to the state only). Every array a kernel allocates
takes the dtype of the state it is given, so a model's cells run in the
model's dtype: float32 for training, float64 where finite-difference
checks need the precision.

`gru_forward_run` and `gru_backward_run` unroll and reverse the cell over a
run of steps, allocating and returning every run buffer they write. The
forward projects the whole run's inputs before its step loop, so a step
multiplies only the carried state, and it allocates no array memory; the
reverse spends the forward's gates and multiplies by C-contiguous copies
of the three recurrent weight blocks, made once a run.
`gru_forward_batch` and `gru_backward_batch` are one step each, kept as
the oracles they are tested against.
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


def _sigmoid(
    x: np.ndarray, out: np.ndarray | None = None, half: float | np.ndarray = 0.5
) -> np.ndarray:
    # sigma(x) = (1 + tanh(x/2)) / 2: tanh is bounded by 1, so no step can
    # overflow. All four steps run in `out` (a new array when None; may be x).
    # The run kernel passes `half` as a 0-d array of x's dtype: numpy converts
    # a Python float operand on every call, which at small n costs more than
    # the arithmetic
    out = np.multiply(half, x, out=out)
    np.tanh(out, out=out)
    out *= half
    out += half
    return out


def gru_forward_batch(
    cell: GruCellParams, x: np.ndarray, h: np.ndarray
) -> tuple[np.ndarray, tuple]:
    """One GRU step on a (B, m) input and (B, n) state; returns state + cache.

    Each gate sums its input product and bias before its recurrent product,
    (x @ W[:m] + b) + h @ W[m:], the order of `gru_forward_run`. The cache
    holds u = [x|h] and v = [x|r*h] for `gru_backward_batch`.
    """
    if x.ndim != 2 or x.shape[1] != cell.input_dim:
        raise DimensionMismatchError(
            f"input must be (B, {cell.input_dim}), got {x.shape}"
        )
    if h.ndim != 2 or h.shape[1] != cell.hidden_dim:
        raise DimensionMismatchError(
            f"state must be (B, {cell.hidden_dim}), got {h.shape}"
        )
    m = cell.input_dim
    z = _sigmoid((x @ cell.w_update[:m] + cell.b_update) + h @ cell.w_update[m:])
    r = _sigmoid((x @ cell.w_reset[:m] + cell.b_reset) + h @ cell.w_reset[m:])
    rh = r * h
    c = np.tanh((x @ cell.w_candidate[:m] + cell.b_candidate) + rh @ cell.w_candidate[m:])
    h_new = (1.0 - z) * h + z * c
    u = np.concatenate([x, h], axis=1)
    v = np.concatenate([x, rh], axis=1)
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
    cell: GruCellParams, x: np.ndarray, h: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Unroll the cell over a (T, B, m) input block from the (B, n) state `h`.

    Returns the run's new (T+1, B, n) `states`, the entering state in row 0
    and step t's new state in row t+1, and its new (3, T, B, n) `gates`,
    step t's update, reset and candidate gates in `gates[0, t]`,
    `gates[1, t]` and `gates[2, t]`. Before the step loop, each gate block
    is filled with the run's input product x @ W[:m], one stacked matmul
    (a B-row GEMM per step, as the oracle's), plus the gate's bias. A step
    then adds only its recurrent products, h @ W[m:] and (r*h) @ W[m:],
    through three (B, n) buffers made once a run: the product, r*h and
    (1-z)*h. Each product, activation and state update writes into a gate
    row or one of those buffers, so a step allocates no array memory. Each
    gate is summed in `gru_forward_batch`'s order, so the states equal a
    chain of it bit for bit.
    """
    m = cell.input_dim
    states = np.empty((len(x) + 1, *h.shape), dtype=h.dtype)
    states[0] = h
    gates = np.empty((3, *states[1:].shape), dtype=h.dtype)
    weights = (cell.w_update, cell.w_reset, cell.w_candidate)
    for gate, w, b in zip(gates, weights, (cell.b_update, cell.b_reset, cell.b_candidate)):
        np.matmul(x, w[:m], out=gate)
        gate += b
    wh_update, wh_reset, wh_candidate = (w[m:] for w in weights)
    product = np.empty_like(states[0])
    rh = np.empty_like(product)
    keep = np.empty_like(product)
    half, one = (np.array(k, dtype=h.dtype) for k in (0.5, 1.0))  # see `_sigmoid`
    for t in range(len(x)):
        h = states[t]
        z = gates[0, t]
        z += np.matmul(h, wh_update, out=product)
        _sigmoid(z, out=z, half=half)
        r = gates[1, t]
        r += np.matmul(h, wh_reset, out=product)
        _sigmoid(r, out=r, half=half)
        np.multiply(r, h, out=rh)
        c = gates[2, t]
        c += np.matmul(rh, wh_candidate, out=product)
        np.tanh(c, out=c)
        np.subtract(one, z, out=keep)
        keep *= h
        h_new = np.multiply(z, c, out=states[t + 1])
        np.add(keep, h_new, out=h_new)
    return states, gates


def gru_backward_run(
    cell: GruCellParams,
    x: np.ndarray,
    states: np.ndarray,
    gates: np.ndarray,
    grad_states: np.ndarray | None,
    dh: np.ndarray,
    grads: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Reverse `gru_forward_run`, given the gradient `dh` of its last state.

    `grad_states`, None or a (k, B, n) block with k <= T, holds the gradient
    of the run's last k states. Only that gradient is recurrent, so every
    factor that does not depend on it is computed once for the run, in
    place over the (T, B, n) blocks, before the step loop:

    | block | forward wrote | before the loop | after the loop |
    | --- | --- | --- | --- |
    | `gates[0]` | z | 1-z | spent |
    | `gates[1]` | r | r | r*h |
    | `gates[2]` | c | z*(1-c^2) | d_pre_c |
    | scratch | | (c-h)*z*(1-z) | d_pre_z |
    | scratch | | h*r*(1-r) | d_pre_r |

    Each step multiplies `dh` into those factors, overwriting them with the
    gate pre-activation gradients, and carries `dh` back one step through
    C-contiguous (n, n) copies of the recurrent weight blocks, made once a
    run. Each weight gradient, bias sum and the input gradient is then one
    GEMM or sum over the run's stacked rows. `x` and `states` are only read,
    and `gates` is spent. Accumulates into `grads` (order of tensors()) and
    returns (grad_x, grad_h): a new C-contiguous (T, B, m) input gradient
    and the gradient of the entering state.
    """
    m = cell.input_dim
    w_update, w_reset, w_candidate = cell.w_update, cell.w_reset, cell.w_candidate
    # C-contiguous copies: a GEMM against a transposed view is the slower BLAS path
    wh_update, wh_reset, wh_candidate = (
        np.ascontiguousarray(w[m:].T) for w in (w_update, w_reset, w_candidate)
    )
    update, reset, candidate = gates
    h = states[:-1]
    d_pre_update = np.subtract(candidate, h)
    d_pre_update *= update
    np.multiply(candidate, candidate, out=candidate)
    np.subtract(1.0, candidate, out=candidate)
    candidate *= update
    np.subtract(1.0, update, out=update)
    d_pre_update *= update
    d_pre_reset = np.subtract(1.0, reset)
    d_pre_reset *= reset
    d_pre_reset *= h
    skip = len(x) - (0 if grad_states is None else len(grad_states))
    for t in range(len(x) - 1, -1, -1):
        if t >= skip:
            dh = dh + grad_states[t - skip]
        d_pre_c = np.multiply(dh, candidate[t], out=candidate[t])
        d_pre_z = np.multiply(dh, d_pre_update[t], out=d_pre_update[t])
        d_rh = d_pre_c @ wh_candidate
        d_pre_r = np.multiply(d_rh, d_pre_reset[t], out=d_pre_reset[t])
        d_rh *= reset[t]
        d_rh += np.multiply(dh, update[t], out=update[t])
        d_rh += d_pre_r @ wh_reset
        d_rh += d_pre_z @ wh_update
        dh = d_rh
    reset *= h

    def rows(block: np.ndarray) -> np.ndarray:
        return block.reshape(-1, block.shape[-1])

    x_rows, h_rows = rows(x), rows(h)
    pairs = ((d_pre_update, h_rows), (d_pre_reset, h_rows), (candidate, rows(reset)))
    for k, (d_pre, state_rows) in enumerate(pairs):
        d_pre = rows(d_pre)
        grads[2 * k][:m] += x_rows.T @ d_pre
        grads[2 * k][m:] += state_rows.T @ d_pre
        grads[2 * k + 1] += d_pre.sum(axis=0)
    dx = rows(d_pre_update) @ w_update[:m].T
    dx += rows(d_pre_reset) @ w_reset[:m].T
    dx += rows(candidate) @ w_candidate[:m].T
    return dx.reshape(x.shape), dh
