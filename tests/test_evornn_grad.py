"""Hand-derived backward passes against central finite differences."""

import numpy as np
import pytest

from conftest import REFERENCE_BATCH, finite_difference_worst_rel, perturbed_reference_model
from longmem.evornn import build_model, compute_gradients, init_cell, parameter_pairs
from longmem.evornn.cell import gru_backward_batch, gru_forward_batch, zero_cell_grads
from longmem.evornn.train import TrainConfig, clip_global_norm, zero_grads
from longmem.schedule import CellSchedule

# relative-error floor of 1e-6 discounts finite-difference truncation noise
# on gradient entries that are themselves ~1e-9
NOISY = dict(denom_floor=1e-6)


def test_gru_cell_backward_matches_finite_differences():
    rng = np.random.default_rng(0)
    cell = init_cell(4, 6, rng)
    for tensor in cell.tensors():
        tensor += rng.normal(scale=0.2, size=tensor.shape)
    x = rng.standard_normal((2, 4))
    h = rng.standard_normal((2, 6))

    def quadratic_loss():
        h_new, _ = gru_forward_batch(cell, x, h)
        return 0.5 * float(np.sum(h_new**2))

    h_new, cache = gru_forward_batch(cell, x, h)
    grads = zero_cell_grads(cell)
    dx, dh = gru_backward_batch(cell, cache, h_new.copy(), grads)

    eps = 1e-5
    worst = 0.0
    for param, grad in [(x, dx), (h, dh)] + list(zip(cell.tensors(), grads)):
        flat_p, flat_g = param.ravel(), grad.ravel()
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + eps
            up = quadratic_loss()
            flat_p[i] = orig - eps
            down = quadratic_loss()
            flat_p[i] = orig
            fd = (up - down) / (2.0 * eps)
            worst = max(worst, abs(fd - flat_g[i]) / max(abs(fd), abs(flat_g[i]), 1e-6))
    assert worst < 1e-5, f"worst rel = {worst:.3e}"


def test_duplicated_example_doubles_gradients():
    model = perturbed_reference_model()
    config = TrainConfig(negatives=7)
    single = [REFERENCE_BATCH[0]]
    doubled = [REFERENCE_BATCH[0], REFERENCE_BATCH[0]]
    loss1, grads1 = compute_gradients(model, single, config)
    loss2, grads2 = compute_gradients(model, doubled, config)
    assert np.isclose(loss2, 2.0 * loss1, rtol=1e-12)
    for (_, _, g1), (_, _, g2) in zip(
        parameter_pairs(model, grads1), parameter_pairs(model, grads2)
    ):
        assert np.max(np.abs(g2 - 2.0 * g1)) < 1e-12


def test_unused_vocabulary_rows_get_zero_gradient():
    model = perturbed_reference_model()
    single = [REFERENCE_BATCH[0]]  # input ids {1, 2, 3, 4, 5}
    _, grads = compute_gradients(model, single, TrainConfig(negatives=7))
    for v in (0, 6, 7):
        assert np.array_equal(grads.input_table[v], np.zeros(4)), v
    assert np.any(grads.input_table[1] != 0.0)
    # with sampled negatives, output rows outside {label} + sample stay zero
    negatives = np.array([[[2, 4]]])
    _, sampled = compute_gradients(
        model, single, TrainConfig(negatives=2), negatives=negatives
    )
    for v in (0, 1, 5, 6, 7):
        assert np.array_equal(sampled.output_table[v], np.zeros(3)), v
    assert np.any(sampled.output_table[3] != 0.0)  # the label row


def test_zero_grads_pair_every_tensor_with_a_zero_twin():
    model = build_model(
        vocab_size=8, emb_dim=4, schedule=CellSchedule(((3, 2), (2, 4), (2, 4))),
        decoder_dim=3, horizon=1, num_layers=2, seed=7,
    )
    pairs = list(parameter_pairs(model, zero_grads(model)))
    names = [name for name, _, _ in pairs]
    assert len(set(names)) == len(names)
    # 2 layers x (3 cells x 6 tensors + 1 projection + init state), tables, decoder
    assert len(pairs) == 2 * (3 * 6 + 1 + 1) + 4
    assert "layer1.projection0" in names and "layer1.projection1" not in names
    for name, param, grad in pairs:
        assert grad is not param, name
        assert grad.shape == param.shape, name
        assert not grad.any(), name


def test_clip_global_norm_contract():
    model = perturbed_reference_model()
    grads = zero_grads(model)
    for _, _, grad in parameter_pairs(model, grads):
        grad += 10.0
    before = clip_global_norm(grads, model, clip_norm=1.0)
    assert before > 1.0
    total = 0.0
    for _, _, grad in parameter_pairs(model, grads):
        total += float(np.sum(grad**2))
    assert np.sqrt(total) <= 1.0 + 1e-9

    small = zero_grads(model)
    for _, _, grad in parameter_pairs(model, small):
        grad += 1e-6
    clip_global_norm(small, model, clip_norm=1.0)
    for _, _, grad in parameter_pairs(model, small):
        assert np.all(grad == 1e-6)  # under the threshold: untouched


def test_gradients_with_teacher_forced_horizon():
    model = build_model(
        vocab_size=8, emb_dim=4, schedule=CellSchedule(((3, 2), (2, 4))),
        decoder_dim=3, horizon=2, seed=7,
    )
    rng = np.random.default_rng(11)
    for layer in model.layers:
        layer.init_state += rng.normal(scale=0.1, size=layer.init_state.shape)
        for cell in layer.cells:
            cell.b_update += rng.normal(scale=0.1, size=cell.b_update.shape)
    batch = [
        ([1, 2, 3, 4, 5, 6, 0], [6, 0, 3]),
        ([7, 0, 1, 6, 2, 2, 5], [2, 5, 1]),
    ]
    worst = finite_difference_worst_rel(model, batch, TrainConfig(negatives=7), **NOISY)
    assert worst < 1e-4, f"worst rel = {worst:.3e}"


def test_gradients_with_two_layers():
    model = build_model(
        vocab_size=8, emb_dim=4, schedule=CellSchedule(((3, 2), (2, 4))),
        decoder_dim=3, horizon=0, num_layers=2, seed=7,
    )
    rng = np.random.default_rng(11)
    for layer in model.layers:
        layer.init_state += rng.normal(scale=0.1, size=layer.init_state.shape)
        for cell in layer.cells:
            cell.b_reset += rng.normal(scale=0.1, size=cell.b_reset.shape)
    worst = finite_difference_worst_rel(
        model, REFERENCE_BATCH, TrainConfig(negatives=7), **NOISY
    )
    assert worst < 1e-4, f"worst rel = {worst:.3e}"


def test_gradients_through_initial_projection_chain():
    model = build_model(
        vocab_size=8, emb_dim=4, schedule=CellSchedule(((2, 2), (2, 3), (2, 4))),
        decoder_dim=3, horizon=0, seed=7,
    )
    rng = np.random.default_rng(11)
    for layer in model.layers:
        layer.init_state += rng.normal(scale=0.1, size=layer.init_state.shape)
    # length-3 inputs start inside the middle segment, so the initial state
    # crosses one boundary projection before the first cell application
    batch = [
        ([1, 2, 3], [3]),
        ([7, 0, 1], [0]),
    ]
    worst = finite_difference_worst_rel(model, batch, TrainConfig(negatives=7), **NOISY)
    assert worst < 1e-4, f"worst rel = {worst:.3e}"


def test_gradients_with_equal_size_segments():
    model = build_model(
        vocab_size=8, emb_dim=4, schedule=CellSchedule(((2, 4), (3, 4))),
        decoder_dim=3, horizon=0, seed=7,
    )
    rng = np.random.default_rng(11)
    for layer in model.layers:
        layer.init_state += rng.normal(scale=0.1, size=layer.init_state.shape)
    worst = finite_difference_worst_rel(model, REFERENCE_BATCH, TrainConfig(negatives=7), **NOISY)
    assert worst < 1e-4, f"worst rel = {worst:.3e}"
