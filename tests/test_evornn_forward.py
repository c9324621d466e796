"""GRU cell, evolving layer unroll, scoring, and checkpoints."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longmem.errors import (
    CheckpointError,
    DimensionMismatchError,
    DomainError,
)
from longmem.evornn import (
    build_model,
    identity_like,
    init_cell,
    init_layer,
    load_checkpoint,
    save_checkpoint,
)
from longmem.evornn.cell import TENSOR_NAMES, _sigmoid, gru_forward_batch
from longmem.evornn.layer import evo_forward_batch, segment_of_step, segment_runs
from longmem.evornn.model import forward_with_caches, score_batch
from longmem.schedule import CellSchedule, constant_schedule


def test_gru_step_zero_parameters_hold_state():
    cell = init_cell(3, 5, np.random.default_rng(0))
    for tensor in cell.tensors():
        tensor[:] = 0.0
    out, _ = gru_forward_batch(cell, np.ones((1, 3)), np.zeros((1, 5)))
    # z = 1/2, candidate = 0, so the state stays at zero
    assert np.array_equal(out, np.zeros((1, 5)))


def test_gru_step_output_is_new_state():
    cell = init_cell(2, 4, np.random.default_rng(1))
    out, _ = gru_forward_batch(cell, np.array([[0.3, -0.7]]), np.full((1, 4), 0.1))
    assert out.shape == (1, 4)
    assert np.all(np.abs(out) < 1.0)  # convex mix of h and tanh candidate


def test_gru_step_rejects_dim_mismatch():
    cell = init_cell(2, 4, np.random.default_rng(2))
    with pytest.raises(DimensionMismatchError):
        gru_forward_batch(cell, np.zeros((1, 3)), np.zeros((1, 4)))
    with pytest.raises(DimensionMismatchError):
        gru_forward_batch(cell, np.zeros((1, 2)), np.zeros((1, 5)))


def test_gru_batch_matches_single_steps():
    rng = np.random.default_rng(3)
    cell = init_cell(3, 4, rng)
    for tensor in cell.tensors():
        tensor += rng.normal(scale=0.3, size=tensor.shape)
    xs = rng.standard_normal((5, 3))
    hs = rng.standard_normal((5, 4))
    batched, _ = gru_forward_batch(cell, xs, hs)
    for i in range(5):
        single, _ = gru_forward_batch(cell, xs[i : i + 1], hs[i : i + 1])
        assert np.allclose(batched[i], single[0], atol=1e-14)


@pytest.mark.parametrize("name", TENSOR_NAMES)
def test_cell_rejects_a_wrongly_shaped_tensor(name):
    cell = init_cell(2, 3, np.random.default_rng(4))
    with pytest.raises(DimensionMismatchError, match=name):
        replace(cell, **{name: getattr(cell, name)[:-1]})


@pytest.mark.parametrize("name", TENSOR_NAMES)
def test_cell_rejects_a_nan_entry(name):
    cell = init_cell(2, 3, np.random.default_rng(4))
    tensor = getattr(cell, name).copy()
    tensor.flat[0] = np.nan
    with pytest.raises(DomainError, match=name):
        replace(cell, **{name: tensor})


def test_sigmoid_matches_the_logistic_function():
    x = np.linspace(-40.0, 40.0, 200001)
    # absolute bound: the gates mix states convexly, and relative error of
    # the tanh form grows in the negative tail where the gate is ~0
    assert np.max(np.abs(_sigmoid(x) - 1.0 / (1.0 + np.exp(-x)))) <= 2.3e-16


def test_sigmoid_saturates_without_floating_point_errors():
    with np.errstate(all="raise"):
        out = _sigmoid(np.array([-1e3, 1e3]))
    assert out.tolist() == [0.0, 1.0]


def test_gru_step_with_huge_weights_stays_finite():
    rng = np.random.default_rng(5)
    cell = init_cell(3, 4, rng)
    for tensor in cell.tensors():
        tensor += rng.normal(size=tensor.shape)
        tensor *= 1e3
    out, _ = gru_forward_batch(cell, rng.standard_normal((6, 3)), rng.standard_normal((6, 4)))
    assert np.all(np.isfinite(out))


def test_identity_like_shapes():
    assert np.array_equal(identity_like(3, 3), np.eye(3))
    grow = identity_like(4, 2)
    assert grow.shape == (4, 2)
    assert np.array_equal(grow[:2], np.eye(2))
    assert np.array_equal(grow[2:], np.zeros((2, 2)))


def test_constant_schedule_equals_plain_unroll():
    rng = np.random.default_rng(4)
    layer = init_layer(constant_schedule(6, 4), 3, rng)
    inputs = [rng.standard_normal((1, 3)) for _ in range(6)]
    result = evo_forward_batch(layer, inputs, 6)

    state = layer.init_state[None, :]
    for t in range(6):
        state, _ = gru_forward_batch(layer.cells[0], inputs[t], state)
        assert np.array_equal(result.outputs[t], state)
    assert np.array_equal(result.outputs[-1], state)


def test_appendix_dims_along_sequence():
    schedule = CellSchedule(((6, 2), (8, 4), (4, 8), (2, 16)))
    rng = np.random.default_rng(5)
    layer = init_layer(schedule, 3, rng)
    inputs = [rng.standard_normal((1, 3)) for _ in range(20)]
    result = evo_forward_batch(layer, inputs, 20)
    dims = [out.shape[1] for out in result.outputs]
    assert dims == [2] * 6 + [4] * 8 + [8] * 4 + [16] * 2
    assert result.outputs[-1].shape == (1, 16)


def test_equal_adjacent_sizes_have_identity_boundary():
    schedule = CellSchedule(((2, 4), (3, 4)))
    layer = init_layer(schedule, 2, np.random.default_rng(6))
    assert layer.projections == [None]
    result = evo_forward_batch(layer, [np.zeros((1, 2))] * 5, 5)
    assert all(out.shape == (1, 4) for out in result.outputs)


def test_short_sequence_starts_in_later_segment():
    schedule = CellSchedule(((2, 2), (2, 4)))
    rng = np.random.default_rng(7)
    layer = init_layer(schedule, 3, rng)
    inputs = [rng.standard_normal((1, 3)) for _ in range(2)]
    outputs = evo_forward_batch(layer, inputs, 2).outputs
    # both steps are within distance 2 of the end, so only the large cell runs,
    # and the initial state passes through the boundary projection first
    assert [o.shape[1] for o in outputs] == [4, 4]
    projected = (layer.projections[0] @ layer.init_state)[None, :]
    expected, _ = gru_forward_batch(layer.cells[1], inputs[0], projected)
    assert np.allclose(outputs[0], expected, atol=1e-14)


def test_multiply_add_counter_is_three_n_squared_per_step():
    schedule = CellSchedule(((2, 2), (2, 4)))
    layer = init_layer(schedule, 3, np.random.default_rng(8))
    inputs = [np.zeros((1, 3)) for _ in range(4)]
    result = evo_forward_batch(layer, inputs, 4)
    assert result.multiply_adds == 3 * (2 * 4 + 2 * 16)

    # three segments; a length-3 sequence starts in the middle one, and two
    # steps unfold past its end in the last one
    rng = np.random.default_rng(9)
    layer = init_layer(CellSchedule(((2, 2), (2, 3), (2, 4))), 3, rng)
    layer.init_state += rng.normal(size=2)
    layer.projections[0] += rng.normal(scale=0.3, size=(3, 2))
    layer.projections[1] += rng.normal(scale=0.3, size=(4, 3))
    inputs = [rng.standard_normal((2, 3)) for _ in range(5)]
    result = evo_forward_batch(layer, inputs, 3)
    state = np.tile(layer.init_state, (2, 1)) @ layer.projections[0].T
    state, _ = gru_forward_batch(layer.cells[1], inputs[0], state)
    expected = [state]
    state = state @ layer.projections[1].T
    for t in range(1, 5):
        state, _ = gru_forward_batch(layer.cells[2], inputs[t], state)
        expected.append(state)
    assert len(result.outputs) == 5
    for got, want in zip(result.outputs, expected):
        assert np.array_equal(got, want)
    assert result.multiply_adds == 3 * (1 * 9 + 4 * 16)


def test_segment_of_step_clamps_beyond_length():
    schedule = CellSchedule(((2, 2), (2, 4)))
    assert segment_of_step(3, 4, schedule) == 1
    assert segment_of_step(9, 4, schedule) == 1  # unfolded past the end


@settings(max_examples=60)
@given(
    st.lists(st.tuples(st.integers(1, 3), st.integers(1, 4)), min_size=1, max_size=4),
    st.integers(1, 12),
    st.integers(0, 3),
)
def test_segment_runs_match_per_step_lookup(segments, length, unfold):
    schedule = CellSchedule(tuple(segments))
    runs = segment_runs(length, length + unfold, schedule)
    steps = [(segment, t) for segment, start, stop in runs for t in range(start, stop)]
    assert [t for _, t in steps] == list(range(length + unfold))
    assert [segment for segment, _ in steps] == [
        segment_of_step(t, length, schedule) for t in range(length + unfold)
    ]
    assert all(start < stop for _, start, stop in runs)


def test_stacked_forward_shapes():
    model = build_model(
        vocab_size=8, emb_dim=4, schedule=CellSchedule(((3, 2), (2, 4))),
        decoder_dim=5, horizon=0, seed=0,
    )
    y = forward_with_caches(model, np.array([[1, 2, 3, 4, 5]])).decoded[0]
    assert y.shape == (1, 5)

    unfolding = build_model(
        vocab_size=8, emb_dim=4, schedule=CellSchedule(((3, 2), (2, 4))),
        decoder_dim=5, horizon=3, seed=0,
    )
    y3 = forward_with_caches(unfolding, np.array([[1, 2, 3, 4, 5, 1, 0, 2]])).decoded[0]
    assert y3.shape == (4, 5)


def test_forward_rejects_out_of_range_ids():
    model = build_model(
        vocab_size=8, emb_dim=4, schedule=CellSchedule(((3, 2), (2, 4))),
        decoder_dim=5, horizon=0, seed=0,
    )
    with pytest.raises(DomainError):
        forward_with_caches(model, np.array([[1, 2, 3, 4, 8]]))


def test_two_layer_model_stacks_hidden_sizes():
    model = build_model(
        vocab_size=8, emb_dim=4, schedule=CellSchedule(((3, 2), (2, 4))),
        decoder_dim=5, horizon=0, num_layers=2, seed=0,
    )
    assert len(model.layers) == 2
    # second layer consumes the first layer's per-segment output widths
    assert [c.input_dim for c in model.layers[1].cells] == [2, 4]
    y = forward_with_caches(model, np.array([[1, 2, 3, 4, 5]])).decoded[0]
    assert y.shape == (1, 5)


def test_score_log_prob_uniform_when_outputs_zero():
    y = np.zeros((2, 3))
    table = np.random.default_rng(9).standard_normal((6, 3)) * 0.0
    lp, _, _ = score_batch(y[None], np.array([[1, 4]]), table)
    assert np.isclose(lp, -2.0 * np.log(6.0), atol=1e-12)


def test_score_log_prob_single_symbol_vocab_is_zero():
    lp, _, _ = score_batch(np.zeros((1, 1, 2)), np.array([[0]]), np.zeros((1, 2)))
    assert lp == 0.0


def test_score_log_prob_rejects_bad_labels():
    with pytest.raises(DomainError):
        score_batch(np.zeros((1, 1, 2)), np.array([[3]]), np.zeros((2, 2)))


def test_sampled_score_with_all_negatives_equals_full():
    rng = np.random.default_rng(10)
    y = rng.standard_normal((2, 3, 4))  # B=2, J=3 positions
    table = rng.standard_normal((9, 4))
    labels = np.array([[1, 2, 3], [4, 5, 6]])
    full, _, _ = score_batch(y, labels, table, None)
    negatives = np.empty((2, 3, 8), dtype=np.int64)
    for b in range(2):
        for j in range(3):
            negatives[b, j] = [k for k in range(9) if k != labels[b, j]]
    sampled, _, _ = score_batch(y, labels, table, negatives)
    assert np.isclose(sampled, full, atol=1e-12)


def test_full_vocab_softmax_normalizes():
    rng = np.random.default_rng(11)
    y = rng.standard_normal((2, 8))
    table = rng.standard_normal((12, 8))
    logits = y @ table.T
    log_norm = np.log(np.sum(np.exp(logits - logits.max(axis=1, keepdims=True)), axis=1))
    log_probs = logits - logits.max(axis=1, keepdims=True) - log_norm[:, None]
    sums = np.exp(log_probs).sum(axis=1)
    assert np.allclose(sums, 1.0, atol=1e-10)
    # cross-check one position against score_batch
    lp, _, _ = score_batch(y[None, :1], np.array([[5]]), table)
    assert np.isclose(lp, log_probs[0, 5], atol=1e-10)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    model = build_model(
        vocab_size=8, emb_dim=4, schedule=CellSchedule(((3, 2), (2, 4))),
        decoder_dim=5, horizon=2, num_layers=2, seed=13,
    )
    path = tmp_path / "model.json"
    save_checkpoint(model, str(path))
    loaded = load_checkpoint(str(path))
    assert loaded.horizon == 2
    assert np.array_equal(loaded.input_table, model.input_table)
    assert np.array_equal(loaded.output_table, model.output_table)
    assert np.array_equal(loaded.decoder_w, model.decoder_w)
    for la, lb in zip(loaded.layers, model.layers):
        assert la.schedule == lb.schedule
        assert np.array_equal(la.init_state, lb.init_state)
        for ca, cb in zip(la.cells, lb.cells):
            for ta, tb in zip(ca.tensors(), cb.tensors()):
                assert np.array_equal(ta, tb)
        for ma, mb in zip(la.projections, lb.projections):
            assert (ma is None) == (mb is None)
            if ma is not None:
                assert np.array_equal(ma, mb)
    # forward passes agree exactly
    ids = np.array([[1, 2, 3, 4, 5, 6, 7]])
    assert np.array_equal(
        forward_with_caches(loaded, ids).decoded, forward_with_caches(model, ids).decoded
    )


def test_checkpoint_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))
    path.write_text("{truncated")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


@pytest.mark.parametrize(
    "keys",
    [
        ("layers",),
        ("horizon",),
        ("layers", 0, "cells", 1, "input_dim"),
        ("layers", 0, "cells", 0, "b_reset"),
    ],
    ids=["layers", "horizon", "input_dim", "b_reset"],
)
def test_checkpoint_missing_field_is_checkpoint_error(tmp_path, keys):
    model = build_model(
        vocab_size=8, emb_dim=4, schedule=CellSchedule(((3, 2), (2, 4))),
        decoder_dim=5, horizon=1, seed=0,
    )
    path = tmp_path / "model.json"
    save_checkpoint(model, str(path))
    payload = json.loads(path.read_text())
    parent = payload
    for key in keys[:-1]:
        parent = parent[key]
    del parent[keys[-1]]
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match=keys[-1]):
        load_checkpoint(str(path))


@pytest.mark.parametrize(
    "edit",
    [
        lambda payload: [payload],
        lambda payload: payload.update(layers=5),
        lambda payload: payload.update(horizon="x"),
        lambda payload: payload["layers"][0].update(schedule="x"),
        lambda payload: payload["input_table"].update(shape="ab"),
    ],
    ids=["array", "layers", "horizon", "schedule", "shape"],
)
def test_checkpoint_wrong_type_is_checkpoint_error(tmp_path, edit):
    model = build_model(
        vocab_size=8, emb_dim=4, schedule=CellSchedule(((3, 2), (2, 4))),
        decoder_dim=5, horizon=1, seed=0,
    )
    path = tmp_path / "model.json"
    save_checkpoint(model, str(path))
    payload = json.loads(path.read_text())
    edited = edit(payload)
    path.write_text(json.dumps(payload if edited is None else edited))
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


def test_checkpoint_write_failure_leaves_no_file(tmp_path, monkeypatch):
    model = build_model(
        vocab_size=8, emb_dim=4, schedule=CellSchedule(((3, 2), (2, 4))),
        decoder_dim=5, horizon=0, seed=0,
    )

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(model, str(tmp_path / "model.json"))
    assert os.listdir(tmp_path) == []


@settings(max_examples=25)
@given(
    st.lists(st.tuples(st.integers(1, 3), st.sampled_from([2, 3, 4])), min_size=1, max_size=3),
    st.integers(0, 2**31),
)
def test_output_dims_follow_active_segment(segments, seed):
    schedule = CellSchedule(tuple(segments))
    rng = np.random.default_rng(seed)
    layer = init_layer(schedule, 2, rng)
    length = schedule.total_length
    inputs = [rng.standard_normal((1, 2)) for _ in range(length)]
    outputs = evo_forward_batch(layer, inputs, length).outputs
    for t, out in enumerate(outputs):
        seg = segment_of_step(t, length, schedule)
        assert out.shape == (1, schedule.segments[seg][1])
