"""Hand-derived backward passes against central finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    REFERENCE_BATCH, finite_difference_worst_rel, fresh_cell, perturbed_reference_model, step_outputs, traced_peak,
)
from longmem.errors import DomainError
from longmem.evornn import build_model, compute_gradients, parameter_pairs
from longmem.evornn.cell import (
    gru_backward_batch,
    gru_backward_run,
    gru_forward_batch,
    gru_forward_run,
    zero_cell_grads,
)
from longmem.evornn.layer import evo_backward_batch, evo_forward_batch, segment_of_step, segment_runs
from longmem.evornn.model import forward_with_caches, layer_nbytes, model_shapes, rows_by_id, zero_model
from longmem.evornn.train import (
    TrainConfig,
    batch_arrays,
    clip_global_norm,
    gradients_from_forward,
    zero_grads,
)
from longmem.schedule import CellSchedule, constant_schedule

# relative-error floor of 1e-6 discounts finite-difference truncation noise
# on gradient entries that are themselves ~1e-9
NOISY = dict(denom_floor=1e-6)

# the two dtypes a model is built in: the run kernels and their oracles run
# in either, and the finite-difference checks run in float64
DTYPES = pytest.mark.parametrize("dtype", [np.float64, np.float32])


def test_gru_cell_backward_matches_finite_differences():
    rng = np.random.default_rng(0)
    cell = fresh_cell(4, 6, seed=0)
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
    loss1, grads1, _ = compute_gradients(model, single, config)
    loss2, grads2, _ = compute_gradients(model, doubled, config)
    assert np.isclose(loss2, 2.0 * loss1, rtol=1e-12)
    for (_, _, g1), (_, _, g2) in zip(
        parameter_pairs(model, grads1), parameter_pairs(model, grads2)
    ):
        assert np.max(np.abs(g2 - 2.0 * g1)) < 1e-12


def test_unused_vocabulary_rows_get_zero_gradient():
    model = perturbed_reference_model()
    single = [REFERENCE_BATCH[0]]  # input ids {1, 2, 3, 4, 5}
    _, grads, _ = compute_gradients(model, single, TrainConfig(negatives=7))
    for v in (0, 6, 7):
        assert np.array_equal(grads.input_table[v], np.zeros(4)), v
    assert np.any(grads.input_table[1] != 0.0)
    # with sampled negatives, output rows outside {label} + sample stay zero
    negatives = np.array([[[2, 4]]])
    _, sampled, _ = compute_gradients(
        model, single, TrainConfig(negatives=2), negatives=negatives
    )
    for v in (0, 1, 5, 6, 7):
        assert np.array_equal(sampled.output_table[v], np.zeros(3)), v
    assert np.any(sampled.output_table[3] != 0.0)  # the label row


@DTYPES
def test_zero_grads_pair_every_tensor_with_a_zero_twin(dtype):
    model = build_model(
        vocab_size=8, emb_dim=4, schedule=CellSchedule(((3, 2), (2, 4), (2, 4))),
        decoder_dim=3, horizon=1, num_layers=2, seed=7, dtype=dtype,
    )
    pairs = list(parameter_pairs(model, zero_grads(model)))
    names = [name for name, _, _ in pairs]
    assert len(set(names)) == len(names)
    # 2 layers x (3 cells x 6 tensors + 1 projection + init state), tables, decoder
    assert len(pairs) == 2 * (3 * 6 + 1 + 1) + 4
    assert "layer1.projection0" in names and "layer1.projection1" not in names
    # the shapes a checkpoint is checked against name the same tensors in the same order
    shapes = model_shapes([layer.schedule for layer in model.layers], 8, 4, 3)
    assert [(name, param.shape) for name, param, _ in pairs] == list(shapes.items())
    # the closed form that sizes the layers before their shapes are worked out
    layer_bytes = sum(param.nbytes for name, param, _ in pairs if name.startswith("layer"))
    assert layer_nbytes(model.layers[0].schedule, 4, 2, dtype) == layer_bytes
    for name, param, grad in pairs:
        assert grad is not param, name
        assert grad.shape == param.shape, name
        assert grad.dtype == param.dtype == dtype, name
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
        decoder_dim=3, horizon=2, seed=7, dtype=np.float64,
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


@pytest.mark.parametrize("horizon", [0, 2])
def test_gradients_with_two_layers(horizon):
    # the last segment is one step long, so the decoded H+1 states fill the
    # whole of the top layer's last run, whose input gradient block the
    # lower layer takes as its last run's gradient block. Many reset-gate
    # entries are ~1e-7 here, where central differences at eps 1e-5 are
    # roundoff-limited (the worst error falls tenfold as eps grows to 1e-4,
    # which a wrong gradient's would not), so the step is 1e-4
    model = build_model(
        vocab_size=8, emb_dim=4, schedule=CellSchedule(((2, 2), (2, 3), (1, 4))),
        decoder_dim=3, horizon=horizon, num_layers=2, seed=7, dtype=np.float64,
    )
    rng = np.random.default_rng(11)
    for layer in model.layers:
        layer.init_state += rng.normal(scale=0.1, size=layer.init_state.shape)
        for cell in layer.cells:
            cell.b_reset += rng.normal(scale=0.1, size=cell.b_reset.shape)
    batch = [(ids, [label, 6, 1][: horizon + 1]) for ids, (label,) in REFERENCE_BATCH]
    worst = finite_difference_worst_rel(model, batch, TrainConfig(negatives=7), eps=1e-4, **NOISY)
    assert worst < 1e-4, f"worst rel = {worst:.3e}"


def test_gradients_through_initial_projection_chain():
    model = build_model(
        vocab_size=8, emb_dim=4, schedule=CellSchedule(((2, 2), (2, 3), (2, 4))),
        decoder_dim=3, horizon=0, seed=7, dtype=np.float64,
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
        decoder_dim=3, horizon=0, seed=7, dtype=np.float64,
    )
    rng = np.random.default_rng(11)
    for layer in model.layers:
        layer.init_state += rng.normal(scale=0.1, size=layer.init_state.shape)
    worst = finite_difference_worst_rel(model, REFERENCE_BATCH, TrainConfig(negatives=7), **NOISY)
    assert worst < 1e-4, f"worst rel = {worst:.3e}"


def _oracle_layer(layer, inputs, length):
    """Step-by-step unroll with `gru_forward_batch`, crossing boundaries on entry."""
    h = np.tile(layer.init_state, (inputs[0].shape[0], 1))
    outputs, steps, previous = [], [], 0
    for t, x in enumerate(inputs):
        segment = segment_of_step(t, length, layer.schedule)
        crossings = []
        for boundary in range(previous, segment):
            crossings.append((boundary, h))
            if boundary in layer.projections:
                h = h @ layer.projections[boundary].T
        previous = segment
        h, cache = gru_forward_batch(layer.cells[segment], x, h)
        outputs.append(h)
        steps.append((segment, crossings, cache))
    return outputs, steps


def _oracle_layer_backward(layer, steps, grad_outputs, grads):
    """Reverse `_oracle_layer` with `gru_backward_batch`, given each step's
    output gradient (None when it has none); returns per-step input gradients."""
    dh = np.zeros_like(steps[-1][2][0])
    grad_inputs = [None] * len(steps)
    for t in range(len(steps) - 1, -1, -1):
        segment, crossings, cache = steps[t]
        if grad_outputs[t] is not None:
            dh = dh + grad_outputs[t]
        cell_grads = grads.cells[segment].tensors()
        grad_inputs[t], dh = gru_backward_batch(layer.cells[segment], cache, dh, cell_grads)
        for boundary, h_before in reversed(crossings):
            if boundary in layer.projections:
                grads.projections[boundary] += dh.T @ h_before
                dh = dh @ layer.projections[boundary]
    grads.init_state += dh.sum(axis=0)
    return grad_inputs


def _assert_close(got, want, rel=1e-12):
    # `rel` is in units of float64's rounding unit: a float32 array is held
    # to the same multiple of its own (1e-12 becomes about 5.4e-4)
    assert got.dtype == want.dtype
    rel *= np.finfo(got.dtype).eps / np.finfo(np.float64).eps
    scale = np.max(np.abs(want), initial=0.0)
    assert np.max(np.abs(got - want), initial=0.0) <= rel * max(scale, 1e-300)


def _check_run_kernels(layers, embedded, length, top_grads):
    """The run kernels against the per-step oracle chain, all in the dtype of
    `embedded`: forward outputs bit for bit, every gradient within
    `_assert_close` (one input gradient block per run), and each run's
    `states` and `inputs` bit-unchanged by the reverse."""
    schedules = [layer.schedule for layer in layers]
    emb_dim = embedded.shape[-1]
    forwards, inputs = [], embedded
    for layer in layers:
        inputs = evo_forward_batch(layer, inputs, length)
        forwards.append(inputs)
    oracle_steps, oracle_inputs = [], list(embedded)
    for layer, forward in zip(layers, forwards):
        outputs, steps = _oracle_layer(layer, oracle_inputs, length)
        assert len(step_outputs(forward)) == len(embedded)
        for got, want in zip(step_outputs(forward), outputs, strict=True):
            assert got.dtype == embedded.dtype and np.array_equal(got, want)
        oracle_steps.append(steps)
        oracle_inputs = outputs

    read_only = [(run, run.states.copy(), run.inputs.copy()) for f in forwards for run in f.runs]
    grad_blocks, oracle_grads_out = top_grads, _per_step(top_grads, forwards[-1].runs)
    for i in range(len(layers) - 1, -1, -1):
        grads, oracle = (zero_model(schedules, 1, emb_dim, 1, 0, embedded.dtype).layers[i] for _ in range(2))
        grad_blocks = evo_backward_batch(layers[i], forwards[i], grad_blocks, grads)
        assert [len(block) for block in grad_blocks] == [run.stop - run.start for run in forwards[i].runs]
        oracle_grads_out = _oracle_layer_backward(layers[i], oracle_steps[i], oracle_grads_out, oracle)
        for got, want in zip(_per_step(grad_blocks, forwards[i].runs), oracle_grads_out, strict=True):
            _assert_close(got, want)
        for got, want in zip(grads.cells, oracle.cells):
            for g, w in zip(got.tensors(), want.tensors()):
                _assert_close(g, w)
        assert grads.projections.keys() == oracle.projections.keys()
        for boundary, matrix in oracle.projections.items():
            _assert_close(grads.projections[boundary], matrix)
        _assert_close(grads.init_state, oracle.init_state)
    for run, states, run_inputs in read_only:
        assert run.inputs.dtype == run.states.dtype == embedded.dtype
        assert np.array_equal(run.states, states)
        assert np.array_equal(run.inputs, run_inputs)


def _top_grads(rng, schedule, length, total, batch, dtype):
    """One random `dtype` gradient block per run of the top layer, earliest
    first, for a suffix of the run's outputs of random length: None, part
    of the run or the whole of it."""
    blocks = []
    for segment, start, stop in segment_runs(length, total, schedule):
        k = rng.integers(0, stop - start + 1)
        blocks.append(rng.standard_normal((k, batch, schedule.segments[segment][1]), dtype) if k else None)
    return blocks


def _per_step(blocks, runs):
    """Run gradient blocks placed per step: each run's block fills its last
    steps, and the steps before it get None."""
    steps = []
    for block, run in zip(blocks, runs, strict=True):
        filled = 0 if block is None else len(block)
        steps += [None] * (run.stop - run.start - filled) + ([] if block is None else list(block))
    return steps


@DTYPES
@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 3), st.integers(1, 4)), min_size=1, max_size=4),
    st.data(),
    st.integers(0, 3),
    st.integers(1, 2),
    st.integers(1, 3),
    st.integers(0, 2**31),
)
def test_run_kernels_match_the_per_step_oracles(dtype, segments, data, unfold, num_layers, batch, seed):
    # lengths below the span start mid-schedule, above it in the open-ended
    # first segment; `unfold` steps run past the end in the last segment;
    # equal adjacent sizes give identity boundaries, unequal ones projections
    rng = np.random.default_rng(seed)
    schedules = [CellSchedule(tuple(segments))]
    for _ in range(num_layers - 1):
        sizes = data.draw(st.lists(st.integers(1, 4), min_size=len(segments), max_size=len(segments)))
        schedules.append(CellSchedule(tuple((l, n) for (l, _), n in zip(segments, sizes))))
    span = schedules[0].total_length
    length = data.draw(st.integers(1, span + 2))
    layers = zero_model(schedules, 1, 3, 1, 0, dtype).layers
    for layer in layers:
        layer.init_state += rng.normal(size=layer.init_state.shape)
        for cell in layer.cells:
            for tensor in cell.tensors():
                tensor += rng.normal(scale=0.3, size=tensor.shape)
        for matrix in layer.projections.values():
            np.fill_diagonal(matrix, 1.0)
            matrix += rng.normal(scale=0.3, size=matrix.shape)
    total = length + unfold
    embedded = rng.standard_normal((total, batch, 3), dtype)
    _check_run_kernels(layers, embedded, length, _top_grads(rng, schedules[-1], length, total, batch, dtype))


WORKLOAD_SHAPES = pytest.mark.parametrize(
    "segments, num_layers, horizon, batch",
    [
        # the power-law schedule of `train-powerlaw`
        (((32, 8), (16, 16), (8, 32), (4, 64), (4, 128)), 1, 0, 64),
        # the constant (64, 128) layers of `train-constant-sampled`
        (((64, 128),), 2, 3, 32),
    ],
)


def _workload_layers(segments, num_layers, rng, dtype):
    """The layers of a 32-dim embedding `dtype` model with random biases and initial states."""
    layers = build_model(
        vocab_size=1, emb_dim=32, schedule=CellSchedule(segments), decoder_dim=1,
        num_layers=num_layers, seed=3, dtype=dtype,
    ).layers
    for layer in layers:
        layer.init_state += rng.normal(scale=0.5, size=layer.init_state.shape)
        for cell in layer.cells:
            for bias in (cell.b_update, cell.b_reset, cell.b_candidate):
                bias += rng.normal(scale=0.5, size=bias.shape)
    return layers


@DTYPES
@WORKLOAD_SHAPES
def test_run_kernels_match_the_per_step_oracles_at_workload_shapes(segments, num_layers, horizon, batch, dtype):
    schedule = CellSchedule(segments)
    rng = np.random.default_rng(4)
    layers = _workload_layers(segments, num_layers, rng, dtype)
    length = schedule.total_length
    total = length + horizon
    embedded = rng.standard_normal((total, batch, 32), dtype)
    _check_run_kernels(layers, embedded, length, _top_grads(rng, schedule, length, total, batch, dtype))


@DTYPES
@WORKLOAD_SHAPES
def test_run_kernels_leave_their_inputs_and_the_cell_unchanged(segments, num_layers, horizon, batch, dtype):
    rng = np.random.default_rng(6)
    for layer in _workload_layers(segments, num_layers, rng, dtype):
        for cell, (steps, n) in zip(layer.cells, layer.schedule.segments):
            steps += horizon
            x = rng.standard_normal((steps, batch, cell.input_dim), dtype)
            h = rng.standard_normal((batch, n), dtype)
            tensors = [t.copy() for t in cell.tensors()]
            x_before, h_before = x.copy(), h.copy()
            states, gates = gru_forward_run(cell, x, h)
            assert np.array_equal(x, x_before) and np.array_equal(h, h_before)
            assert states.shape == (steps + 1, batch, n) and gates.shape == (3, steps, batch, n)
            assert states.dtype == gates.dtype == dtype
            assert np.array_equal(states[0], h)
            states_before = states.copy()
            grad_states = rng.standard_normal((steps // 2 + 1, batch, n), dtype)
            grad_states_before = grad_states.copy()
            grad_x, grad_h = gru_backward_run(
                cell, x, states, gates, grad_states, rng.standard_normal((batch, n), dtype),
                zero_cell_grads(cell),
            )
            assert grad_x.shape == x.shape and grad_x.dtype == grad_h.dtype == dtype
            assert grad_x.flags.c_contiguous
            assert not any(np.shares_memory(grad_x, other) for other in (x, states, gates))
            assert np.array_equal(x, x_before)
            assert np.array_equal(states, states_before)
            assert np.array_equal(grad_states, grad_states_before)
            for got, want in zip(cell.tensors(), tensors):
                assert np.array_equal(got, want)


@DTYPES
@pytest.mark.parametrize("k", [0, 3, 7])
def test_a_suffix_gradient_block_equals_a_zero_padded_full_block(k, dtype):
    # the gradient of a run's last k states, or None for k = 0, reverses the
    # run exactly as a full block whose first 7-k rows are zero
    rng = np.random.default_rng(12)
    cell = fresh_cell(5, 6, seed=12)
    for tensor in cell.tensors():
        tensor += rng.normal(scale=0.3, size=tensor.shape)
    cell = type(cell)(*(t.astype(dtype) for t in cell.tensors()))
    x = rng.standard_normal((7, 3, 5), dtype)
    h = rng.standard_normal((3, 6), dtype)
    dh = rng.standard_normal((3, 6), dtype)
    suffix = rng.standard_normal((k, 3, 6), dtype)
    full = np.concatenate([np.zeros((7 - k, 3, 6), dtype), suffix])
    results = []
    for grad_states in (suffix if k else None, full):
        grads = zero_cell_grads(cell)
        results.append((*gru_backward_run(cell, x, *gru_forward_run(cell, x, h), grad_states, dh, grads), *grads))
    for got, want in zip(*results, strict=True):
        assert got.dtype == dtype and np.array_equal(got, want)


@DTYPES
@pytest.mark.parametrize(
    "m, n, batch",
    # the first cell of `train-powerlaw`, and an upper cell of `train-constant-sampled`
    [(32, 8, 64), (128, 128, 32)],
)
def test_a_forward_step_allocates_nothing(m, n, batch, dtype):
    # beyond the `states` and `gates` it returns, a run holds three (B, n)
    # buffers and, before its step loop, the bias add's iterator buffer of
    # at most 8192 values; neither grows with the run's length. A length's
    # peak is the least of three calls, for Python's free lists move a
    # call's peak by a few dozen bytes of objects
    cell = build_model(
        vocab_size=1, emb_dim=m, schedule=constant_schedule(1, n), decoder_dim=1, seed=0, dtype=dtype,
    ).layers[0].cells[0]
    rng = np.random.default_rng(8)
    itemsize = np.dtype(dtype).itemsize
    peaks = []
    for steps in (16, 256):
        x = rng.standard_normal((steps, batch, m), dtype)
        h = rng.standard_normal((batch, n), dtype)
        states_nbytes = (steps + 1) * batch * n * itemsize
        gates_nbytes = 3 * steps * batch * n * itemsize
        peaks.append(
            min(traced_peak(lambda: gru_forward_run(cell, x, h))[1] for _ in range(3))
            - states_nbytes - gates_nbytes
        )
    assert peaks[0] == peaks[1]
    assert peaks[0] <= max(3 * batch * n, 8192) * itemsize + 4096


def test_a_forward_is_reversed_once():
    model = build_model(
        vocab_size=8, emb_dim=4, schedule=CellSchedule(((3, 2), (2, 4))), decoder_dim=3, seed=5
    )
    ids, labels = batch_arrays(REFERENCE_BATCH, model.horizon)
    forward = forward_with_caches(model, ids)
    gradients_from_forward(model, forward, labels, None)
    with pytest.raises(DomainError, match="already been reversed"):
        gradients_from_forward(model, forward, labels, None)


@DTYPES
@settings(max_examples=60)
@given(st.integers(1, 12), st.integers(0, 40), st.integers(1, 5), st.integers(0, 2**31))
def test_rows_by_id_equals_a_row_by_row_scatter(dtype, vocab, n, d, seed):
    # the scatter adds in float64 and is rounded once to the rows' dtype
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, vocab, size=n)
    rows = (rng.standard_normal((n, d)) * 10.0 ** rng.integers(-8, 8, size=(n, 1))).astype(dtype)
    expected = np.zeros((vocab, d))
    np.add.at(expected, ids, rows)
    assert rows_by_id(ids, rows, vocab).tobytes() == expected.astype(dtype).tobytes()
