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
    LongmemError,
)
from conftest import fresh_cell, fresh_layer, traced_peak
from longmem.evornn import build_model, load_checkpoint, save_checkpoint
from longmem.evornn.cell import TENSOR_NAMES, _sigmoid, gru_forward_batch
from longmem.evornn.layer import evo_forward_batch, segment_of_step, segment_runs
from longmem.evornn.model import forward_with_caches, score_batch
from longmem.schedule import CellSchedule, constant_schedule


def test_gru_step_zero_parameters_hold_state():
    cell = fresh_cell(3, 5, seed=0)
    for tensor in cell.tensors():
        tensor[:] = 0.0
    out, _ = gru_forward_batch(cell, np.ones((1, 3)), np.zeros((1, 5)))
    # z = 1/2, candidate = 0, so the state stays at zero
    assert np.array_equal(out, np.zeros((1, 5)))


def test_gru_step_output_is_new_state():
    cell = fresh_cell(2, 4, seed=1)
    out, _ = gru_forward_batch(cell, np.array([[0.3, -0.7]]), np.full((1, 4), 0.1))
    assert out.shape == (1, 4)
    assert np.all(np.abs(out) < 1.0)  # convex mix of h and tanh candidate


def test_gru_step_rejects_dim_mismatch():
    cell = fresh_cell(2, 4, seed=2)
    with pytest.raises(DimensionMismatchError):
        gru_forward_batch(cell, np.zeros((1, 3)), np.zeros((1, 4)))
    with pytest.raises(DimensionMismatchError):
        gru_forward_batch(cell, np.zeros((1, 2)), np.zeros((1, 5)))


def test_gru_batch_matches_single_steps():
    rng = np.random.default_rng(3)
    cell = fresh_cell(3, 4, seed=3)
    for tensor in cell.tensors():
        tensor += rng.normal(scale=0.3, size=tensor.shape)
    xs = rng.standard_normal((5, 3))
    hs = rng.standard_normal((5, 4))
    batched, _ = gru_forward_batch(cell, xs, hs)
    for i in range(5):
        single, _ = gru_forward_batch(cell, xs[i : i + 1], hs[i : i + 1])
        assert np.allclose(batched[i], single[0], atol=1e-14)


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
    cell = fresh_cell(3, 4, seed=5)
    for tensor in cell.tensors():
        tensor += rng.normal(size=tensor.shape)
        tensor *= 1e3
    out, _ = gru_forward_batch(cell, rng.standard_normal((6, 3)), rng.standard_normal((6, 4)))
    assert np.all(np.isfinite(out))


def test_build_model_projections_copy_the_overlapping_coordinates():
    schedule = CellSchedule(((2, 3), (2, 3), (2, 1), (2, 4), (2, 2)))
    for layer in fresh_layer(schedule, 2), fresh_layer(schedule, 2, index=1):
        assert list(layer.projections) == [1, 2, 3]  # equal sizes carry the state through
        shrink, grow, narrow = layer.projections.values()
        assert np.array_equal(shrink, [[1.0, 0.0, 0.0]])
        assert np.array_equal(grow, [[1.0], [0.0], [0.0], [0.0]])
        assert np.array_equal(narrow, np.eye(2, 4))


def test_constant_schedule_equals_plain_unroll():
    rng = np.random.default_rng(4)
    layer = fresh_layer(constant_schedule(6, 4), 3, seed=4)
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
    layer = fresh_layer(schedule, 3, seed=5)
    inputs = [rng.standard_normal((1, 3)) for _ in range(20)]
    result = evo_forward_batch(layer, inputs, 20)
    dims = [out.shape[1] for out in result.outputs]
    assert dims == [2] * 6 + [4] * 8 + [8] * 4 + [16] * 2
    assert result.outputs[-1].shape == (1, 16)


def test_equal_adjacent_sizes_have_identity_boundary():
    schedule = CellSchedule(((2, 4), (3, 4)))
    layer = fresh_layer(schedule, 2, seed=6)
    assert layer.projections == {}
    result = evo_forward_batch(layer, [np.zeros((1, 2))] * 5, 5)
    assert all(out.shape == (1, 4) for out in result.outputs)


def test_short_sequence_starts_in_later_segment():
    schedule = CellSchedule(((2, 2), (2, 4)))
    rng = np.random.default_rng(7)
    layer = fresh_layer(schedule, 3, seed=7)
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
    layer = fresh_layer(schedule, 3, seed=8)
    inputs = [np.zeros((1, 3)) for _ in range(4)]
    result = evo_forward_batch(layer, inputs, 4)
    assert result.multiply_adds == 3 * (2 * 4 + 2 * 16)

    # three segments; a length-3 sequence starts in the middle one, and two
    # steps unfold past its end in the last one
    rng = np.random.default_rng(9)
    layer = fresh_layer(CellSchedule(((2, 2), (2, 3), (2, 4))), 3, seed=9)
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


def test_layer_forward_rejects_mismatched_inputs():
    layer = fresh_layer(CellSchedule(((2, 2), (2, 4))), 3, seed=10)
    with pytest.raises(DimensionMismatchError):
        evo_forward_batch(layer, np.zeros((4, 1, 2)), 4)  # 2 input columns, cells read 3
    below = evo_forward_batch(layer, np.zeros((4, 1, 3)), 4)
    shifted = fresh_layer(CellSchedule(((3, 2), (1, 4))), 3, seed=10, index=1)
    with pytest.raises(DimensionMismatchError):
        evo_forward_batch(shifted, below, 4)  # runs [0, 3), [3, 4) against [0, 2), [2, 4)


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
    payload = json.loads(path.read_text())
    assert payload["version"] == 2
    assert payload["schedules"] == [[[3, 2], [2, 4]]] * 2
    assert list(payload["tensors"]) == [name for name, _ in model.named_tensors()]
    loaded = load_checkpoint(str(path))
    assert loaded.horizon == 2
    assert [layer.schedule for layer in loaded.layers] == [layer.schedule for layer in model.layers]
    for (name, a), (_, b) in zip(loaded.named_tensors(), model.named_tensors(), strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    # forward passes agree exactly
    ids = np.array([[1, 2, 3, 4, 5, 6, 7]])
    assert np.array_equal(
        forward_with_caches(loaded, ids).decoded, forward_with_caches(model, ids).decoded
    )


def _shortened(name):
    """An edit that drops the last row of tensor `name` of layer 0's first cell."""

    def edit(model):
        cell = model.layers[0].cells[0]
        setattr(cell, name, getattr(cell, name)[:-1])

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda model: setattr(model, "output_table", np.zeros((9, 5))), "output_table"),
        (lambda model: model.layers[1].cells.__setitem__(0, fresh_cell(3, 2)), "layer1.cell0.w_"),
        (lambda model: model.layers[0].projections.pop(0), "layer0.projection0"),
        (lambda model: model.layers[1].projections.__setitem__(1, np.eye(4)), "layer1.projection1"),
        (lambda model: model.layers[0].projections.__setitem__(2, np.eye(4)), "layer0.projection2"),
        (lambda model: model.layers[0].cells.pop(), "layer0.cell2."),
        (lambda model: setattr(model.layers[1], "init_state", np.zeros(4)), "layer1.init_state"),
        (lambda model: setattr(model, "decoder_w", np.zeros((2, 5))), "decoder_w"),
        (
            lambda model: setattr(model.layers[1], "schedule", CellSchedule(((2, 2), (3, 4), (2, 4)))),
            "share identical segment boundaries",
        ),
        (lambda model: model.layers.clear(), "layer count"),
        *((_shortened(name), f"layer0.cell0.{name}") for name in TENSOR_NAMES),
    ],
    ids=[
        "other-vocab-output-table", "wrong-width-upper-cell", "missing-projection",
        "projection-on-equal-boundary", "projection-past-the-last-boundary", "one-cell-too-few",
        "wrong-init-state", "wrong-decoder-w", "unshared-boundaries", "no-layers",
        *(f"short-{name}" for name in TENSOR_NAMES),
    ],
)
def test_model_params_rejects_a_malformed_structure(edit, message):
    model = build_model(
        vocab_size=8, emb_dim=4, schedule=CellSchedule(((3, 2), (2, 4), (2, 4))),
        decoder_dim=5, horizon=1, num_layers=2, seed=0,
    )
    edit(model)
    with pytest.raises(LongmemError, match=message):
        replace(model)


def test_a_layer_without_projections_on_equal_boundaries_runs_as_built():
    model = build_model(
        vocab_size=8, emb_dim=3, schedule=CellSchedule(((2, 4), (2, 4))),
        decoder_dim=5, horizon=0, seed=0,
    )
    ids = np.array([[1, 2, 3, 4], [5, 6, 7, 0]])
    expected = forward_with_caches(model, ids).decoded
    model.layers[0].projections.clear()
    assert np.array_equal(forward_with_caches(replace(model), ids).decoded, expected)


def _saved_payload(tmp_path, schedule=((3, 2), (2, 4)), num_layers=1):
    model = build_model(
        vocab_size=8, emb_dim=4, schedule=CellSchedule(schedule),
        decoder_dim=5, horizon=1, num_layers=num_layers, seed=0,
    )
    path = tmp_path / "model.json"
    save_checkpoint(model, str(path))
    return path, json.loads(path.read_text())


def test_checkpoint_rejects_wrong_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else", "version": 2}')
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))
    path.write_text("{truncated")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


def test_checkpoint_version_1_is_unsupported(tmp_path):
    path = tmp_path / "v1.json"
    path.write_text(json.dumps({
        "format": "evornn-checkpoint", "version": 1, "horizon": 0,
        "input_table": {"shape": [1, 1], "data": [0.0]}, "layers": [],
    }))
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 1"):
        load_checkpoint(str(path))


@pytest.mark.parametrize(
    "keys",
    [
        ("schedules",),
        ("horizon",),
        ("tensors", "input_table"),
        ("tensors", "layer0.cell0.b_reset"),
    ],
    ids=["schedules", "horizon", "input_table", "b_reset"],
)
def test_checkpoint_missing_field_is_checkpoint_error(tmp_path, keys):
    path, payload = _saved_payload(tmp_path)
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
        lambda payload: payload.update(schedules=5),
        lambda payload: payload.update(horizon="x"),
        lambda payload: payload["schedules"].__setitem__(0, "x"),
        lambda payload: payload["tensors"]["input_table"].update(shape="ab"),
        lambda payload: payload.update(tensors=[]),
        lambda payload: payload["tensors"]["decoder_b"].update(data=["1"] * 5),
        lambda payload: payload["tensors"].update(extra={"shape": [1], "data": [0.0]}),
        lambda payload: payload["tensors"]["layer0.init_state"].update(shape=[1, 2], data=[0.0, 0.0]),
    ],
    ids=["array", "schedules", "horizon", "schedule", "shape", "tensors", "data", "extra", "reshaped"],
)
def test_checkpoint_wrong_type_is_checkpoint_error(tmp_path, edit):
    path, payload = _saved_payload(tmp_path)
    edited = edit(payload)
    path.write_text(json.dumps(payload if edited is None else edited))
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), -float("inf"), 10**400], ids=["nan", "inf", "-inf", "huge"]
)
@pytest.mark.parametrize(
    "name",
    [
        "input_table",
        "layer0.cell0.w_update",
        "layer1.cell1.b_candidate",
        "layer1.projection0",
        "layer0.init_state",
        "decoder_w",
        "decoder_b",
        "output_table",
    ],
)
def test_checkpoint_non_finite_tensor_is_checkpoint_error(tmp_path, name, value):
    path, payload = _saved_payload(tmp_path, num_layers=2)
    payload["tensors"][name]["data"][-1] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match=f"{name}.*finite"):
        load_checkpoint(str(path))


@pytest.mark.parametrize(
    "segment, position, value",
    [(0, 0, 3.0), (0, 1, 2.0), (0, 0, 2.7), (1, 0, True)],
    ids=["float-length", "float-hidden", "fraction", "bool"],
)
def test_checkpoint_schedule_entries_must_be_integers(tmp_path, segment, position, value):
    # each edit would read back as the saved schedule if truncated to int
    path, payload = _saved_payload(tmp_path, schedule=((3, 2), (1, 4)))
    payload["schedules"][0][segment][position] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="integer pairs"):
        load_checkpoint(str(path))


def _long_tables(payload):
    # a 4096-row input table and a 4096-wide decoder: the output table needs 4096 x 4096
    payload["tensors"]["input_table"] = {"shape": [4096, 1], "data": [0.0] * 4096}
    payload["tensors"]["decoder_b"] = {"shape": [4096], "data": [0.0] * 4096}


def _wide_input(payload):
    # 8192 input dims into 64-wide cells: the first cell weights need 3 x 8256 x 64
    payload["tensors"]["input_table"] = {"shape": [1, 8192], "data": [0.0] * 8192}
    payload["schedules"] = [[[3, 64], [2, 64]]]


@pytest.mark.parametrize(
    "edit",
    [
        lambda payload: payload["tensors"]["input_table"].update(shape=[4096, 4096]),
        lambda payload: payload["schedules"][0][1].__setitem__(1, 4096),
        _long_tables,
        _wide_input,
    ],
    ids=["shape", "schedule", "long-tables", "wide-input"],
)
def test_checkpoint_declared_sizes_are_checked_before_allocation(tmp_path, edit):
    # honoring any edit would allocate 12 MB or more for a file of at most 50 kB
    path, payload = _saved_payload(tmp_path)
    edit(payload)
    path.write_text(json.dumps(payload))
    _, peak = traced_peak(lambda: pytest.raises(CheckpointError, load_checkpoint, str(path)))
    assert peak < 2**20


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
    layer = fresh_layer(schedule, 2, seed=seed)
    length = schedule.total_length
    inputs = [rng.standard_normal((1, 2)) for _ in range(length)]
    outputs = evo_forward_batch(layer, inputs, length).outputs
    for t, out in enumerate(outputs):
        seg = segment_of_step(t, length, schedule)
        assert out.shape == (1, schedule.segments[seg][1])
