"""Shared helpers for the test suite."""

import json
import tracemalloc

import numpy as np

from longmem.evornn import build_model, compute_gradients, parameter_pairs
from longmem.evornn.train import TrainConfig
from longmem.schedule import CellSchedule, constant_schedule

REFERENCE_BATCH = [
    ([1, 2, 3, 4, 5], [3]),
    ([7, 0, 1, 6, 2], [0]),
]


def _reject_constant(token: str):
    raise ValueError(f"{token} is not valid JSON")


def load_json(path):
    """Parse a JSON file, refusing the NaN, Infinity and -Infinity tokens
    that Python's `json` module writes and reads but JSON does not define."""
    with open(path, encoding="utf-8") as stream:
        return json.load(stream, parse_constant=_reject_constant)


def traced_peak(fn):
    """Call `fn()` under tracemalloc; returns its result and the peak of
    traced allocations in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def fresh_layer(schedule: CellSchedule, input_dim: int, seed: int = 0, index: int = 0):
    """Layer `index` of a fresh `build_model` whose bottom cells read
    `input_dim` inputs; each upper layer reads the hidden sizes below it."""
    model = build_model(
        vocab_size=1, emb_dim=input_dim, schedule=schedule, decoder_dim=1,
        num_layers=index + 1, seed=seed,
    )
    return model.layers[index]


def fresh_cell(input_dim: int, hidden_dim: int, seed: int = 0):
    """A fresh GRU cell reading `input_dim` inputs into `hidden_dim` states."""
    return fresh_layer(constant_schedule(1, hidden_dim), input_dim, seed).cells[0]


def perturbed_reference_model():
    """Small two-segment model with non-zero biases and initial state.

    Perturbing the zero-initialized parameters keeps every gate away from
    its symmetric point so finite differences probe generic curvature.
    """
    model = build_model(
        vocab_size=8,
        emb_dim=4,
        schedule=CellSchedule(((3, 2), (2, 4))),
        decoder_dim=3,
        horizon=0,
        seed=7,
    )
    rng = np.random.default_rng(11)
    for layer in model.layers:
        layer.init_state += rng.normal(scale=0.1, size=layer.init_state.shape)
        for cell in layer.cells:
            cell.b_update += rng.normal(scale=0.1, size=cell.b_update.shape)
            cell.b_reset += rng.normal(scale=0.1, size=cell.b_reset.shape)
            cell.b_candidate += rng.normal(scale=0.1, size=cell.b_candidate.shape)
    return model


def finite_difference_worst_rel(
    model,
    batch,
    config: TrainConfig,
    negatives=None,
    eps: float = 1e-5,
    denom_floor: float = 1e-8,
):
    """Worst relative error between analytic and central-difference gradients.

    The floor guards the denominator where both gradients vanish; raising it
    (e.g. to 1e-6) discounts pure truncation noise on near-zero entries.
    """

    def loss():
        return compute_gradients(model, batch, config, negatives=negatives)[0]

    _, grads = compute_gradients(model, batch, config, negatives=negatives)
    worst = 0.0
    for _, param, grad in parameter_pairs(model, grads):
        flat_p, flat_g = param.ravel(), grad.ravel()
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + eps
            up = loss()
            flat_p[i] = orig - eps
            down = loss()
            flat_p[i] = orig
            fd = (up - down) / (2.0 * eps)
            rel = abs(fd - flat_g[i]) / max(abs(fd), abs(flat_g[i]), denom_floor)
            worst = max(worst, rel)
    return worst
